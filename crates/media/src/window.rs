//! Analysis windows for short-time energy computation.
//!
//! The paper compares four window filters for STE and selects the Hamming
//! window "because it brought the best results for speech endpoint
//! detection, and excited speech indication" (§5.2).

/// The four analysis windows considered by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No shaping (boxcar).
    Rectangular,
    /// `0.54 - 0.46 cos(2πn/(N-1))` — the paper's choice.
    Hamming,
    /// `0.5 - 0.5 cos(2πn/(N-1))`.
    Hann,
    /// Three-term Blackman window.
    Blackman,
}

impl Window {
    /// Window coefficients of length `len`.
    pub fn coefficients(self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        if len == 1 {
            return vec![1.0];
        }
        let denom = (len - 1) as f64;
        (0..len)
            .map(|n| {
                let x = std::f64::consts::TAU * n as f64 / denom;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }

    /// Applies the window to a frame in place.
    pub fn apply(self, frame: &mut [f64]) {
        if self == Window::Rectangular {
            return;
        }
        let coeffs = self.coefficients(frame.len());
        for (v, w) in frame.iter_mut().zip(coeffs) {
            *v *= w;
        }
    }

    /// All four windows, for the selection experiment.
    pub const ALL: [Window; 4] = [
        Window::Rectangular,
        Window::Hamming,
        Window::Hann,
        Window::Blackman,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(16)
            .iter()
            .all(|&w| w == 1.0));
    }

    #[test]
    fn hamming_endpoints_and_peak() {
        let c = Window::Hamming.coefficients(11);
        assert!((c[0] - 0.08).abs() < 1e-12);
        assert!((c[10] - 0.08).abs() < 1e-12);
        assert!((c[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = Window::Hann.coefficients(9);
        assert!(c[0].abs() < 1e-12);
        assert!(c[8].abs() < 1e-12);
        assert!((c[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for w in Window::ALL {
            let c = w.coefficients(32);
            for i in 0..16 {
                assert!(
                    (c[i] - c[31 - i]).abs() < 1e-12,
                    "{w:?} not symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn degenerate_lengths() {
        for w in Window::ALL {
            assert!(w.coefficients(0).is_empty());
            assert_eq!(w.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn apply_scales_samples() {
        let mut frame = vec![1.0; 8];
        Window::Hamming.apply(&mut frame);
        assert!((frame[0] - 0.08).abs() < 1e-12);
        let mut rect = vec![2.0; 8];
        Window::Rectangular.apply(&mut rect);
        assert!(rect.iter().all(|&v| v == 2.0));
    }
}
