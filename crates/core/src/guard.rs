//! The one invalidation rule: what an answer reads, what a commit
//! changed, and when the first can have moved with the second.
//!
//! Each stage of a retrieval reads part of a video's event layer — the
//! rows of a kind, the rows naming a driver, or the rows of a kind
//! naming a driver ([`Read`], [`reads`]). A catalog keeps, per video,
//! the seq of the last commit that changed each of those parts
//! ([`Changes`]), and an answer is guarded by the largest seq among the
//! parts it reads: equal guards across two observations prove that no
//! commit in between changed a row the answer selects.
//!
//! The paper's overlap rule makes a driver-named selection read more
//! than its kind and driver: a row of the kind that names no one
//! involves the driver while the driver is visible, so the selection
//! reads the kind's unnamed rows and, where there are any, every row
//! naming the driver ([`Read::Overlap`]). `Changes` keeps which kinds
//! have unnamed rows ([`Unnamed`]), exact or unknown; unknown reads the
//! driver's rows, as if every kind had unnamed rows.
//!
//! Both doors use it. A server guards its result cache and its standing
//! queries with its catalog's `Changes`. A router cannot read a shard's
//! catalog, so each shard reports what its commits touched ([`Touched`],
//! in `Changes`' own keys, a whole layer with its unnamed kinds), and
//! the router keeps a [`Mirror`] of the shard's `Changes` from those
//! reports, starting from the unnamed kinds the shard's feed handshake
//! names. Where the mirror does not cover the shard's latest stamp — a
//! stamp came without a report, the feed reconnected, the epoch changed
//! — the guard falls back to that whole stamp: unknown is never
//! unchanged.

use std::collections::{BTreeSet, HashMap};

use crate::cache::Stamp;
use crate::catalog::EventRecord;
use crate::query::Query;
use crate::retrieve::{stages, Stage, Stages};

/// The kinds of one video's event layer that hold a row naming no
/// driver (its driver `None` or `""`).
pub type Unnamed = BTreeSet<String>;

/// A part of a video's event layer a retrieval stage reads, by the
/// keys [`Changes`] keeps a seq for.
#[derive(Debug, Clone, Copy)]
pub enum Read<'a> {
    /// Every row of a kind.
    Kind(&'a str),
    /// Every row naming a driver (`""`: naming none).
    Driver(&'a str),
    /// The rows of a kind that name a driver (`""`: naming none).
    KindDriver(&'a str, &'a str),
    /// The overlap rule's read of a kind and a driver: the rows of the
    /// kind naming the driver and, where the kind has unnamed rows or
    /// that is unknown, every row naming the driver, which say where the
    /// driver is visible.
    Overlap(&'a str, &'a str),
}

impl<'q> Stage<'q> {
    /// The parts of the event layer the stage reads: its answer changes
    /// only with a commit that changes one of them.
    #[inline]
    pub(crate) fn reads(&self) -> [Option<Read<'q>>; 2] {
        match *self {
            // The rows of the kind naming the driver, and by the paper's
            // overlap rule the kind's unnamed rows and, while there are
            // any, where the driver is visible.
            Stage::SelectEvents {
                kind,
                driver: Some(driver),
            } => [
                Some(Read::KindDriver(kind, "")),
                Some(Read::Overlap(kind, driver)),
            ],
            Stage::SelectEvents { kind, driver: None } => [Some(Read::Kind(kind)), None],
            Stage::LeaderSegments => [Some(Read::Kind("caption:classification")), None],
            Stage::DriverVisible(driver) | Stage::Driver(driver) => {
                [Some(Read::Driver(driver)), None]
            }
            Stage::Pitlane => [Some(Read::Kind("caption:pit_stop")), None],
        }
    }
}

/// What `q`'s stages read together. A statement that cannot run
/// (`RETRIEVE SEGMENTS` without a driver) reads nothing but the layer as
/// a whole, which every guard includes.
pub fn reads(q: &Query) -> impl Iterator<Item = Read<'_>> + Clone + '_ {
    stages(q).ok().into_iter().flat_map(Stages::into_reads)
}

/// What one commit changed of a video's answers.
pub(crate) enum Change<'r> {
    /// Registration, a replace, the first store into a video with no
    /// layer: anything a query over the video reads. It carries the
    /// kinds of the layer it leaves that have unnamed rows (`None`:
    /// unknown).
    Layer(Option<Unnamed>),
    /// Rows appended to an existing layer: only what reads their kinds
    /// and drivers.
    Append(&'r [EventRecord]),
}

/// The commit seqs one video's answers are guarded by. A whole-layer
/// change clears the per-key entries, which its own seq covers, so the
/// maps hold only the keys appended to since — a few kinds and drivers,
/// not a row each.
///
/// Beside them it keeps the kinds with unnamed rows, which decide what a
/// [`Read::Overlap`] reads. The guard stays monotone as they change: an
/// append that gives a kind its first unnamed row moves that kind's
/// `(kind, "")` seq, which the overlap rule always reads too, and a
/// commit that takes a kind's unnamed rows away is a whole-layer change.
#[derive(Debug, Default)]
pub struct Changes {
    /// The last commit of either kind: the video's stamp.
    pub(crate) last: u64,
    /// The last whole-layer change.
    layer: u64,
    /// Per kind: the last append touching it, and per driver (`""` =
    /// unnamed) the last touching that (kind, driver) pair.
    pub(crate) kinds: HashMap<String, (u64, HashMap<String, u64>)>,
    /// Per driver (`""` = unnamed): the last append touching it.
    pub(crate) drivers: HashMap<String, u64>,
    /// The kinds with unnamed rows; `None` (the default): unknown.
    pub(crate) unnamed: Option<Unnamed>,
}

impl Changes {
    pub(crate) fn record(&mut self, seq: u64, change: Change<'_>) {
        self.last = seq;
        match change {
            Change::Layer(unnamed) => self.relayer(seq, unnamed),
            Change::Append(rows) => {
                for row in rows {
                    self.touch(seq, &row.kind, row.driver.as_deref().unwrap_or(""));
                }
            }
        }
    }

    /// A whole-layer change at `seq`, after which `unnamed` are the
    /// kinds with unnamed rows.
    fn relayer(&mut self, seq: u64, unnamed: Option<Unnamed>) {
        self.last = seq;
        self.layer = seq;
        self.kinds.clear();
        self.drivers.clear();
        self.unnamed = unnamed;
    }

    /// An append at `seq` of a row of `kind` naming `driver` (`""`: none),
    /// which touches the kind, the driver and the pair.
    fn touch(&mut self, seq: u64, kind: &str, driver: &str) {
        fn touch(seqs: &mut HashMap<String, u64>, key: &str, seq: u64) {
            match seqs.get_mut(key) {
                Some(at) => *at = seq,
                None => {
                    seqs.insert(key.to_string(), seq);
                }
            }
        }
        self.last = seq;
        touch(&mut self.drivers, driver, seq);
        if let Some(unnamed) = self.unnamed.as_mut().filter(|_| driver.is_empty()) {
            if !unnamed.contains(kind) {
                unnamed.insert(kind.to_string());
            }
        }
        match self.kinds.get_mut(kind) {
            Some((at, drivers)) => {
                *at = seq;
                touch(drivers, driver, seq);
            }
            None => {
                let drivers = HashMap::from([(driver.to_string(), seq)]);
                self.kinds.insert(kind.to_string(), (seq, drivers));
            }
        }
    }

    /// The largest seq of the whole layer and of `reads`.
    pub fn guard<'r>(&self, reads: impl IntoIterator<Item = Read<'r>>) -> u64 {
        let seq = |read| {
            let kind = |kind| self.kinds.get(kind);
            match read {
                Read::Kind(k) => kind(k).map(|(at, _)| *at),
                Read::Driver(d) => self.drivers.get(d).copied(),
                Read::KindDriver(k, d) => kind(k).and_then(|(_, drivers)| drivers.get(d).copied()),
                Read::Overlap(k, d) => {
                    let pair = kind(k).and_then(|(_, drivers)| drivers.get(d).copied());
                    let overlaps = self.unnamed.as_ref().is_none_or(|kinds| kinds.contains(k));
                    let driver = self.drivers.get(d).copied().filter(|_| overlaps);
                    pair.max(driver)
                }
            }
        };
        reads.into_iter().filter_map(seq).fold(self.layer, u64::max)
    }

    /// Adds to `report` what commits after `since` touched of `video`:
    /// the whole layer with its unnamed kinds, or the (kind, driver)
    /// pairs appended to. Kinds, drivers and unnamed kinds follow from
    /// the pairs, since an append touches all of them at once.
    fn report(&self, video: &str, since: u64, report: &mut Touched) {
        if self.last <= since {
            return;
        }
        if self.layer > since {
            report
                .layers
                .push((video.to_string(), self.unnamed.clone()));
            return;
        }
        for (kind, (at, drivers)) in &self.kinds {
            if *at <= since {
                continue;
            }
            for (driver, at) in drivers {
                if *at > since {
                    report
                        .pairs
                        .push((video.into(), kind.clone(), driver.clone()));
                }
            }
        }
    }
}

/// The guard of `reads` over `video` in `videos` (`"*"`: the largest over
/// every video it holds; 0 for none), at least `floor`.
pub(crate) fn guard_in<'r>(
    videos: &HashMap<String, Changes>,
    video: &str,
    floor: u64,
    reads: impl IntoIterator<Item = Read<'r>> + Clone,
) -> u64 {
    let guard = |changes: &Changes| changes.guard(reads.clone());
    let seq = if video == "*" {
        videos.values().map(guard).max()
    } else {
        videos.get(video).map(guard)
    };
    seq.unwrap_or(0).max(floor)
}

/// What one catalog's commits after seq `since` touched, in [`Changes`]'
/// keys: per video, its whole layer (with the kinds it then has unnamed
/// rows of) or the (kind, driver) pairs appended to. It is exact — the
/// catalog keeps the last seq of every key — and bounded by the keys
/// those commits wrote. The stamp it reaches is the one it travels with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touched {
    /// The seq the report starts after.
    pub since: u64,
    /// Videos whose whole layer changed — registered, replaced, or
    /// stored into for the first time — each with the kinds it then has
    /// unnamed rows of (`None`: unknown).
    pub layers: Vec<(String, Option<Unnamed>)>,
    /// `(video, kind, driver)` appended to (`""`: a row naming no driver).
    pub pairs: Vec<(String, String, String)>,
}

impl Touched {
    /// `videos`' report since `since`.
    pub(crate) fn of(videos: &HashMap<String, Changes>, since: u64) -> Touched {
        let mut report = Touched {
            since,
            ..Touched::default()
        };
        for (video, changes) in videos {
            changes.report(video, since, &mut report);
        }
        report
    }
}

/// A router's copy of one shard's [`Changes`], kept from the shard's
/// [`Touched`] reports. It is exact from its base — the stamp of the feed
/// handshake that started it, which every guard is at least — up to the
/// stamp it covers. A report applies when it starts at or before that
/// stamp and reaches past it; each key it names is taken to have changed
/// at the report's end, a seq no earlier than the real one and no later
/// than the stamp covered, which keeps every guard between what the
/// statement's rows really last changed at and the stamp.
///
/// It knows a video's unnamed kinds from the handshake, from a report of
/// the video's whole layer, and from the `(kind, "")` pairs appended
/// since; a video it has no kinds for reads as unknown.
#[derive(Debug)]
pub struct Mirror {
    base: Stamp,
    covered: Stamp,
    videos: HashMap<String, Changes>,
}

impl Mirror {
    /// A mirror that knows nothing before `base` but the kinds with
    /// unnamed rows, at `base`, of the videos `unnamed` names.
    pub fn new(base: Stamp, unnamed: Vec<(String, Unnamed)>) -> Mirror {
        let known = |(video, kinds)| {
            let changes = Changes {
                unnamed: Some(kinds),
                ..Changes::default()
            };
            (video, changes)
        };
        Mirror {
            base,
            covered: base,
            videos: unnamed.into_iter().map(known).collect(),
        }
    }

    /// The stamp the mirror is exact up to.
    pub fn covered(&self) -> Stamp {
        self.covered
    }

    /// Applies the report `touched`, which travelled with the shard's
    /// stamp `at`. A report of another epoch, one that starts past the
    /// stamp covered (a gap), or one that reaches no further changes
    /// nothing; the answer says whether it applied.
    pub fn apply(&mut self, at: Stamp, touched: &Touched) -> bool {
        let covered = self.covered;
        if at.epoch != covered.epoch || touched.since > covered.seq || at.seq <= covered.seq {
            return false;
        }
        for (video, unnamed) in &touched.layers {
            self.videos
                .entry(video.clone())
                .or_default()
                .relayer(at.seq, unnamed.clone());
        }
        for (video, kind, driver) in &touched.pairs {
            let changes = self.videos.entry(video.clone()).or_default();
            changes.touch(at.seq, kind, driver);
        }
        self.covered = at;
        true
    }

    /// The guard of `reads` over `video` (`"*"`: every video of the
    /// shard) while the shard's latest stamp is `known`: the mirrored
    /// guard when the mirror covers `known`, and `known` itself when it
    /// does not.
    pub fn guard<'r>(
        &self,
        known: Stamp,
        video: &str,
        reads: impl IntoIterator<Item = Read<'r>> + Clone,
    ) -> Stamp {
        if self.covered != known {
            return known;
        }
        Stamp {
            epoch: known.epoch,
            seq: guard_in(&self.videos, video, self.base.seq, reads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(seq: u64) -> Stamp {
        Stamp { epoch: 1, seq }
    }

    fn pairs(video: &str, kind: &str, driver: &str) -> Touched {
        Touched {
            since: 0,
            layers: Vec::new(),
            pairs: vec![(video.into(), kind.into(), driver.into())],
        }
    }

    /// A report moves only the guards of what it names, to its end; a
    /// gap, a stale report or another epoch leaves the mirror as it was,
    /// and a mirror that does not cover the latest stamp answers with
    /// that stamp.
    #[test]
    fn a_mirror_guards_by_what_the_reports_named_and_falls_back_past_a_gap() {
        let (pit, d0) = (
            [Read::KindDriver("pit", ""), Read::Driver("D0")],
            [Read::Driver("D1")],
        );
        let mut mirror = Mirror::new(at(4), Vec::new());
        assert_eq!(mirror.guard(at(4), "v", pit), at(4), "the base");
        let touched = Touched {
            since: 4,
            ..pairs("v", "pit", "D0")
        };
        assert!(mirror.apply(at(6), &touched));
        assert_eq!(mirror.guard(at(6), "v", pit), at(6));
        assert_eq!(mirror.guard(at(6), "v", d0), at(4), "unnamed driver");
        assert_eq!(mirror.guard(at(6), "*", pit), at(6));
        assert_eq!(mirror.guard(at(6), "w", pit), at(4), "unnamed video");
        assert!(!mirror.apply(
            at(6),
            &Touched {
                since: 4,
                ..Touched::default()
            }
        ));
        let gap = Touched {
            since: 7,
            ..pairs("v", "x", "D1")
        };
        assert!(!mirror.apply(at(9), &gap), "starts past what it covers");
        assert_eq!(mirror.guard(at(9), "v", d0), at(9), "the fallback");
        let other = Stamp { epoch: 2, seq: 9 };
        assert!(!mirror.apply(
            other,
            &Touched {
                since: 0,
                ..Touched::default()
            }
        ));
        let layer = Touched {
            since: 5,
            layers: vec![("w".into(), None)],
            pairs: Vec::new(),
        };
        assert!(mirror.apply(at(9), &layer), "overlaps what it covers");
        assert_eq!(mirror.guard(at(9), "v", d0), at(4));
        assert_eq!(mirror.guard(at(9), "w", d0), at(9));
        assert_eq!(mirror.guard(at(9), "*", d0), at(9));
    }

    fn row(kind: &str, driver: Option<&str>) -> EventRecord {
        EventRecord {
            kind: kind.into(),
            start: 0,
            end: 1,
            driver: driver.map(str::to_string),
        }
    }

    /// A driver-named selection reads the driver's other rows only while
    /// its kind has unnamed rows, or while that is unknown; the append
    /// that gives the kind its first unnamed row moves `(kind, "")`, so
    /// the guard never falls.
    #[test]
    fn the_overlap_read_follows_the_kinds_with_unnamed_rows() {
        let overlap = [Read::KindDriver("hl", ""), Read::Overlap("hl", "A")];
        let mut changes = Changes::default();
        changes.record(1, Change::Layer(Some(Unnamed::new())));
        changes.record(2, Change::Append(&[row("pit", Some("A"))]));
        assert_eq!(changes.guard(overlap), 1, "no unnamed highlight");
        changes.record(3, Change::Append(&[row("hl", Some(""))]));
        assert_eq!(changes.unnamed, Some(Unnamed::from(["hl".to_string()])));
        assert_eq!(changes.guard(overlap), 3, "the first unnamed highlight");
        changes.record(4, Change::Append(&[row("pit", Some("A"))]));
        assert_eq!(changes.guard(overlap), 4, "where A is visible matters now");
        changes.record(5, Change::Layer(Some(Unnamed::from(["pit".to_string()]))));
        changes.record(6, Change::Append(&[row("pit", Some("A"))]));
        assert_eq!(changes.guard(overlap), 5, "a replace took them away");
        changes.unnamed = None;
        assert_eq!(changes.guard(overlap), 6, "unknown reads the driver");

        // The mirror knows the kinds its handshake named, learns them
        // from layer reports and unnamed pairs, and reads the others
        // as unknown.
        let known = vec![("v".to_string(), Unnamed::new())];
        let mut mirror = Mirror::new(at(4), known);
        let touched = Touched {
            since: 4,
            pairs: vec![
                ("v".into(), "pit".into(), "A".into()),
                ("w".into(), "pit".into(), "A".into()),
            ],
            ..Touched::default()
        };
        assert!(mirror.apply(at(5), &touched));
        assert_eq!(mirror.guard(at(5), "v", overlap), at(4));
        assert_eq!(mirror.guard(at(5), "w", overlap), at(5), "unknown");
        let touched = Touched {
            since: 5,
            layers: vec![("w".into(), Some(Unnamed::new()))],
            pairs: vec![("v".into(), "hl".into(), "".into())],
        };
        assert!(mirror.apply(at(6), &touched));
        let touched = Touched {
            since: 6,
            ..pairs("w", "pit", "A")
        };
        assert!(mirror.apply(at(7), &touched));
        assert_eq!(
            mirror.guard(at(7), "w", overlap),
            at(6),
            "a layer named them"
        );
        let touched = Touched {
            since: 7,
            ..pairs("v", "pit", "A")
        };
        assert!(mirror.apply(at(8), &touched));
        assert_eq!(mirror.guard(at(8), "v", overlap), at(8), "an unnamed pair");
    }
}
