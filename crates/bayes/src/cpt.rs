//! Conditional probability tables for discrete nodes.

use rand::Rng;

use crate::{BayesError, Result};

/// A conditional probability table `P(child | parents)`.
///
/// Rows are indexed by the mixed-radix *parent configuration* (first parent
/// is the least-significant digit) and hold one probability per child
/// state. Rows always sum to one after construction or normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpt {
    card: usize,
    parent_cards: Vec<usize>,
    data: Vec<f64>,
}

impl Cpt {
    /// A uniform CPT.
    pub fn uniform(card: usize, parent_cards: Vec<usize>) -> Self {
        assert!(card >= 1, "child cardinality must be positive");
        let configs: usize = parent_cards.iter().product();
        Cpt {
            card,
            parent_cards,
            data: vec![1.0 / card as f64; configs * card],
        }
    }

    /// A CPT with rows drawn from a symmetric Dirichlet-ish jitter around
    /// uniform; `spread` in `(0, 1)` controls how far rows deviate.
    pub fn random(card: usize, parent_cards: Vec<usize>, rng: &mut impl Rng, spread: f64) -> Self {
        let mut cpt = Cpt::uniform(card, parent_cards);
        let configs = cpt.n_configs();
        for cfg in 0..configs {
            let mut row: Vec<f64> = (0..card)
                .map(|_| (1.0 - spread) + spread * rng.gen::<f64>())
                .collect();
            let sum: f64 = row.iter().sum();
            for v in &mut row {
                *v /= sum;
            }
            cpt.set_row(cfg, &row).expect("row matches cardinality");
        }
        cpt
    }

    /// Builds a CPT from explicit rows (one per parent configuration, in
    /// configuration order). Rows are normalized.
    pub fn from_rows(card: usize, parent_cards: Vec<usize>, rows: &[Vec<f64>]) -> Result<Self> {
        let configs: usize = parent_cards.iter().product();
        if rows.len() != configs {
            return Err(BayesError::CptShape {
                node: usize::MAX,
                message: format!(
                    "{} rows provided, {configs} parent configurations",
                    rows.len()
                ),
            });
        }
        let mut cpt = Cpt::uniform(card, parent_cards);
        for (cfg, row) in rows.iter().enumerate() {
            cpt.set_row(cfg, row)?;
        }
        Ok(cpt)
    }

    /// Shorthand for a *binary* node CPT: `rows[cfg]` is `P(child = 1 | cfg)`.
    pub fn binary(parent_cards: Vec<usize>, p_true: &[f64]) -> Result<Self> {
        let rows: Vec<Vec<f64>> = p_true.iter().map(|p| vec![1.0 - p, *p]).collect();
        Cpt::from_rows(2, parent_cards, &rows)
    }

    /// Child cardinality.
    pub fn card(&self) -> usize {
        self.card
    }

    /// Parent cardinalities (defines configuration indexing).
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// Number of parent configurations.
    pub fn n_configs(&self) -> usize {
        self.parent_cards.iter().product()
    }

    /// Encodes parent state values into a configuration index
    /// (first parent is the least significant digit).
    pub fn config_of(&self, parent_states: &[usize]) -> usize {
        debug_assert_eq!(parent_states.len(), self.parent_cards.len());
        let mut cfg = 0;
        let mut stride = 1;
        for (v, c) in parent_states.iter().zip(&self.parent_cards) {
            debug_assert!(v < c, "parent state out of range");
            cfg += v * stride;
            stride *= c;
        }
        cfg
    }

    /// `P(child = state | configuration)`.
    pub fn prob(&self, config: usize, state: usize) -> f64 {
        self.data[config * self.card + state]
    }

    /// The probability row for a parent configuration.
    pub fn row(&self, config: usize) -> &[f64] {
        &self.data[config * self.card..(config + 1) * self.card]
    }

    /// Replaces a row (normalizing it).
    pub fn set_row(&mut self, config: usize, row: &[f64]) -> Result<()> {
        if row.len() != self.card {
            return Err(BayesError::CptShape {
                node: usize::MAX,
                message: format!("row length {} != cardinality {}", row.len(), self.card),
            });
        }
        let sum: f64 = row.iter().sum();
        if sum.is_nan() || sum <= 0.0 {
            return Err(BayesError::Numerical(format!(
                "CPT row sums to {sum}, cannot normalize"
            )));
        }
        for (i, v) in row.iter().enumerate() {
            if *v < 0.0 {
                return Err(BayesError::Numerical("negative CPT entry".into()));
            }
            self.data[config * self.card + i] = v / sum;
        }
        Ok(())
    }

    /// Re-estimates every row from an accumulator of expected counts of the
    /// same shape, adding `pseudocount` to each cell (MAP smoothing). Rows
    /// whose total count is zero keep their previous values.
    pub fn set_from_counts(&mut self, counts: &CptCounts, pseudocount: f64) {
        debug_assert_eq!(counts.data.len(), self.data.len());
        for cfg in 0..self.n_configs() {
            let slice = &counts.data[cfg * self.card..(cfg + 1) * self.card];
            let total: f64 = slice.iter().sum();
            if total <= 0.0 && pseudocount <= 0.0 {
                continue;
            }
            let denom = total + pseudocount * self.card as f64;
            for (s, &c) in slice.iter().enumerate() {
                self.data[cfg * self.card + s] = (c + pseudocount) / denom;
            }
        }
    }

    /// An all-zero expected-count accumulator matching this CPT's shape.
    pub fn zero_counts(&self) -> CptCounts {
        CptCounts {
            card: self.card,
            data: vec![0.0; self.data.len()],
        }
    }
}

/// Expected-count accumulator used by EM's E-step.
#[derive(Debug, Clone)]
pub struct CptCounts {
    card: usize,
    data: Vec<f64>,
}

impl CptCounts {
    /// Adds `weight` to the (config, state) cell.
    pub fn add(&mut self, config: usize, state: usize, weight: f64) {
        self.data[config * self.card + state] += weight;
    }

    /// Total accumulated mass.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_rows_sum_to_one() {
        let cpt = Cpt::uniform(3, vec![2, 2]);
        assert_eq!(cpt.n_configs(), 4);
        for cfg in 0..4 {
            let s: f64 = cpt.row(cfg).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!((cpt.prob(cfg, 0) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn config_encoding_is_mixed_radix_lsb_first() {
        let cpt = Cpt::uniform(2, vec![2, 3]);
        assert_eq!(cpt.config_of(&[0, 0]), 0);
        assert_eq!(cpt.config_of(&[1, 0]), 1);
        assert_eq!(cpt.config_of(&[0, 1]), 2);
        assert_eq!(cpt.config_of(&[1, 2]), 5);
    }

    #[test]
    fn binary_builder_sets_p_true() {
        let cpt = Cpt::binary(vec![2], &[0.1, 0.8]).unwrap();
        assert!((cpt.prob(0, 1) - 0.1).abs() < 1e-12);
        assert!((cpt.prob(1, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(Cpt::from_rows(2, vec![2], &[vec![0.5, 0.5]]).is_err());
        assert!(Cpt::from_rows(2, vec![2], &[vec![1.0, 1.0], vec![2.0, 2.0]]).is_ok());
        // normalization happened:
        let cpt = Cpt::from_rows(2, vec![], &[vec![3.0, 1.0]]).unwrap();
        assert!((cpt.prob(0, 0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn set_row_rejects_bad_rows() {
        let mut cpt = Cpt::uniform(2, vec![]);
        assert!(cpt.set_row(0, &[0.2, 0.8, 0.0]).is_err());
        assert!(cpt.set_row(0, &[0.0, 0.0]).is_err());
        assert!(cpt.set_row(0, &[-1.0, 2.0]).is_err());
        assert!(cpt.set_row(0, &[1.0, 3.0]).is_ok());
        assert!((cpt.prob(0, 1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn random_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(7);
        let cpt = Cpt::random(4, vec![3], &mut rng, 0.9);
        for cfg in 0..3 {
            let s: f64 = cpt.row(cfg).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(cpt.row(cfg).iter().all(|p| *p > 0.0));
        }
    }

    #[test]
    fn counts_reestimate_with_pseudocounts() {
        let mut cpt = Cpt::uniform(2, vec![2]);
        let mut counts = cpt.zero_counts();
        counts.add(0, 1, 9.0);
        counts.add(0, 0, 1.0);
        // config 1 gets no mass: stays uniform thanks to pseudocounts.
        cpt.set_from_counts(&counts, 1.0);
        assert!((cpt.prob(0, 1) - 10.0 / 12.0).abs() < 1e-12);
        assert!((cpt.prob(1, 0) - 0.5).abs() < 1e-12);
        assert!((counts.total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pseudocount_keeps_untouched_rows() {
        let mut cpt = Cpt::binary(vec![2], &[0.3, 0.7]).unwrap();
        let counts = cpt.zero_counts();
        cpt.set_from_counts(&counts, 0.0);
        assert!((cpt.prob(0, 1) - 0.3).abs() < 1e-12);
    }
}
