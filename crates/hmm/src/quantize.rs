//! Feature quantization into observation symbols.
//!
//! The paper's Fig. 4 MIL listing prepares an observation sequence by
//! quantizing four feature BATs (`Obs := quant1(f1,f2,f3,f4)`). A
//! [`Quantizer`] does the same: each feature in `[0, 1]` is binned into
//! `bins` uniform levels and the per-feature levels are packed into a
//! single mixed-radix symbol.

use crate::{HmmError, Result};

/// Uniform per-feature binning packed into one discrete symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quantizer {
    n_features: usize,
    bins: usize,
}

impl Quantizer {
    /// A quantizer for `n_features` features with `bins` levels each.
    pub fn new(n_features: usize, bins: usize) -> Result<Self> {
        if n_features == 0 || bins == 0 {
            return Err(HmmError::Shape(
                "quantizer needs at least one feature and one bin".into(),
            ));
        }
        Ok(Quantizer { n_features, bins })
    }

    /// Alphabet size: `bins ^ n_features`.
    pub fn alphabet(&self) -> usize {
        self.bins.pow(self.n_features as u32)
    }

    /// Number of features expected per frame.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bin index of one feature value (values clamped into `[0, 1]`).
    pub fn bin(&self, value: f64) -> usize {
        let v = value.clamp(0.0, 1.0);
        ((v * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// Quantizes one frame of features into a symbol.
    pub fn symbol(&self, frame: &[f64]) -> Result<usize> {
        if frame.len() != self.n_features {
            return Err(HmmError::Shape(format!(
                "frame has {} features, expected {}",
                frame.len(),
                self.n_features
            )));
        }
        let mut sym = 0;
        let mut stride = 1;
        for &v in frame {
            sym += self.bin(v) * stride;
            stride *= self.bins;
        }
        Ok(sym)
    }

    /// Quantizes a feature matrix (one row per frame) into a sequence —
    /// the `quant1` operation.
    pub fn sequence(&self, frames: &[Vec<f64>]) -> Result<Vec<usize>> {
        frames.iter().map(|f| self.symbol(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_degenerate_shapes() {
        assert!(Quantizer::new(0, 2).is_err());
        assert!(Quantizer::new(2, 0).is_err());
    }

    #[test]
    fn binning_covers_the_unit_interval() {
        let q = Quantizer::new(1, 4).unwrap();
        assert_eq!(q.bin(0.0), 0);
        assert_eq!(q.bin(0.24), 0);
        assert_eq!(q.bin(0.25), 1);
        assert_eq!(q.bin(0.6), 2);
        assert_eq!(q.bin(0.99), 3);
        assert_eq!(q.bin(1.0), 3); // top edge folds into the last bin
        assert_eq!(q.bin(-2.0), 0); // clamped
        assert_eq!(q.bin(7.0), 3);
    }

    #[test]
    fn symbols_are_mixed_radix() {
        let q = Quantizer::new(2, 3).unwrap();
        assert_eq!(q.alphabet(), 9);
        assert_eq!(q.symbol(&[0.0, 0.0]).unwrap(), 0);
        assert_eq!(q.symbol(&[0.5, 0.0]).unwrap(), 1);
        assert_eq!(q.symbol(&[0.0, 0.5]).unwrap(), 3);
        assert_eq!(q.symbol(&[0.99, 0.99]).unwrap(), 8);
    }

    #[test]
    fn distinct_frames_in_different_bins_get_distinct_symbols() {
        let q = Quantizer::new(3, 2).unwrap();
        let a = q.symbol(&[0.1, 0.9, 0.1]).unwrap();
        let b = q.symbol(&[0.9, 0.1, 0.1]).unwrap();
        assert_ne!(a, b);
        assert!(a < q.alphabet() && b < q.alphabet());
    }

    #[test]
    fn sequence_maps_every_frame() {
        let q = Quantizer::new(2, 2).unwrap();
        let frames = vec![vec![0.1, 0.1], vec![0.9, 0.1], vec![0.9, 0.9]];
        assert_eq!(q.sequence(&frames).unwrap(), vec![0, 1, 3]);
    }

    #[test]
    fn wrong_arity_frame_is_rejected() {
        let q = Quantizer::new(2, 2).unwrap();
        assert!(q.symbol(&[0.5]).is_err());
        assert!(q.sequence(&[vec![0.5, 0.5], vec![0.5]]).is_err());
    }
}
