//! Basic DSP: FIR band-pass filtering and Goertzel spectral probes.
//!
//! The paper filters the audio into sub-bands before computing features:
//! 0–882 Hz for pitch and MFCC, 882–2205 Hz for the emphasized-speech STE,
//! and everything below 2.5 kHz for speech characterization (§5.2). A
//! windowed-sinc FIR filter covers all of these. Spectral energies for the
//! mel filterbank are probed with the Goertzel algorithm, which avoids an
//! FFT dependency at the small cost of evaluating only the frequencies we
//! need.

use crate::{MediaError, Result};

/// A linear-phase FIR filter designed by the windowed-sinc method.
#[derive(Debug, Clone)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Designs a band-pass filter for `lo_hz..hi_hz` (pass `lo_hz = 0` for
    /// a low-pass). `taps` must be odd and ≥ 3.
    pub fn band_pass(lo_hz: f64, hi_hz: f64, taps: usize, sample_rate: usize) -> Result<Self> {
        if taps < 3 || taps.is_multiple_of(2) {
            return Err(MediaError::BadParameter(format!(
                "taps must be odd and >= 3, got {taps}"
            )));
        }
        let nyquist = sample_rate as f64 / 2.0;
        if !(0.0..nyquist).contains(&lo_hz) || hi_hz <= lo_hz || hi_hz > nyquist {
            return Err(MediaError::BadParameter(format!(
                "band {lo_hz}..{hi_hz} Hz invalid for sample rate {sample_rate}"
            )));
        }
        let fl = lo_hz / sample_rate as f64;
        let fh = hi_hz / sample_rate as f64;
        let mid = (taps / 2) as isize;
        let sinc = |f: f64, n: isize| -> f64 {
            if n == 0 {
                2.0 * f
            } else {
                (std::f64::consts::TAU * f * n as f64).sin() / (std::f64::consts::PI * n as f64)
            }
        };
        let mut t: Vec<f64> = (0..taps as isize)
            .map(|i| {
                let n = i - mid;
                let ideal = sinc(fh, n) - sinc(fl, n);
                // Hamming window on the impulse response.
                let w = 0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / (taps - 1) as f64).cos();
                ideal * w
            })
            .collect();
        // Normalize passband gain at the band centre.
        let fc = (fl + fh) / 2.0;
        let gain: f64 = t
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let n = (i as isize - mid) as f64;
                h * (std::f64::consts::TAU * fc * n).cos()
            })
            .sum();
        if gain.abs() > 1e-9 {
            for v in &mut t {
                *v /= gain;
            }
        }
        Ok(FirFilter { taps: t })
    }

    /// Filters a signal (same length out, zero-padded edges).
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        let mid = self.taps.len() / 2;
        let n = signal.len();
        let mut out = vec![0.0; n];
        // The interior, where the kernel hangs over neither end of the
        // signal, in groups of LANES outputs: enough independent sums to
        // keep the adder busy rather than waiting on each other.
        const LANES: usize = 16;
        let start = mid.min(n);
        let interior_end = n.saturating_sub(mid).max(start);
        let end = if interior_end - start >= LANES {
            interior_end
        } else {
            start
        };
        for i in (0..start).chain(end..n) {
            let mut acc = 0.0;
            for (k, &h) in self.taps.iter().enumerate() {
                let j = i as isize + k as isize - mid as isize;
                if j >= 0 && (j as usize) < n {
                    acc += h * signal[j as usize];
                }
            }
            out[i] = acc;
        }
        // No bounds to test there, and LANES outputs advance together:
        // each still sums its taps in ascending order, so it is the same
        // number; the independent sums just overlap in the pipeline. The
        // last group ends at the interior's end, so it may recompute
        // outputs of the one before, to the same numbers.
        for group in (start..end).step_by(LANES) {
            let i = group.min(end - LANES);
            let mut acc = [0.0; LANES];
            for (k, &h) in self.taps.iter().enumerate() {
                let first = i + k - mid;
                for (a, &x) in acc.iter_mut().zip(&signal[first..first + LANES]) {
                    *a += h * x;
                }
            }
            out[i..i + LANES].copy_from_slice(&acc);
        }
        out
    }

    /// The filter's impulse response.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }
}

/// The Goertzel recurrence coefficient `2 cos(2π f / fs)` of a probe
/// frequency.
pub(crate) fn goertzel_coefficient(freq_hz: f64, sample_rate: usize) -> f64 {
    let w = std::f64::consts::TAU * freq_hz / sample_rate as f64;
    2.0 * w.cos()
}

/// Power of `signal` at each probe of `coeffs` (see
/// [`goertzel_coefficient`]), normalized by the frame length. The
/// recurrences are independent, so they advance side by side over one
/// pass of the signal; each is the textbook chain.
pub(crate) fn goertzel_powers(signal: &[f64], coeffs: &[f64]) -> Vec<f64> {
    if signal.is_empty() {
        return vec![0.0; coeffs.len()];
    }
    let mut s1 = vec![0.0f64; coeffs.len()];
    let mut s2 = vec![0.0f64; coeffs.len()];
    for &x in signal {
        for ((s1, s2), &coeff) in s1.iter_mut().zip(s2.iter_mut()).zip(coeffs) {
            let s0 = x + coeff * *s1 - *s2;
            *s2 = *s1;
            *s1 = s0;
        }
    }
    let norm = signal.len() as f64 * signal.len() as f64 / 4.0;
    (s1.iter().zip(&s2).zip(coeffs))
        .map(|((&s1, &s2), &coeff)| {
            let power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
            power / norm
        })
        .collect()
}

/// Power of `signal` at `freq_hz` via the Goertzel algorithm, normalized
/// by the frame length.
pub fn goertzel_power(signal: &[f64], freq_hz: f64, sample_rate: usize) -> f64 {
    goertzel_powers(signal, &[goertzel_coefficient(freq_hz, sample_rate)])[0]
}

/// Generates a pure sine tone (for tests and calibration).
pub fn sine(freq_hz: f64, amplitude: f64, len: usize, sample_rate: usize) -> Vec<f64> {
    (0..len)
        .map(|n| {
            amplitude * (std::f64::consts::TAU * freq_hz * n as f64 / sample_rate as f64).sin()
        })
        .collect()
}

/// Root-mean-square of a signal.
pub fn rms(signal: &[f64]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    (signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SAMPLE_RATE;

    #[test]
    fn band_pass_design_validates_parameters() {
        assert!(FirFilter::band_pass(0.0, 882.0, 100, SAMPLE_RATE).is_err()); // even taps
        assert!(FirFilter::band_pass(0.0, 882.0, 1, SAMPLE_RATE).is_err());
        assert!(FirFilter::band_pass(900.0, 800.0, 101, SAMPLE_RATE).is_err());
        assert!(FirFilter::band_pass(0.0, 20_000.0, 101, SAMPLE_RATE).is_err());
        assert!(FirFilter::band_pass(0.0, 882.0, 101, SAMPLE_RATE).is_ok());
    }

    #[test]
    fn low_pass_passes_low_and_rejects_high() {
        let lp = FirFilter::band_pass(0.0, 882.0, 201, SAMPLE_RATE).unwrap();
        let low = sine(300.0, 1.0, 4400, SAMPLE_RATE);
        let high = sine(4000.0, 1.0, 4400, SAMPLE_RATE);
        let low_out = rms(&lp.apply(&low)[400..4000]);
        let high_out = rms(&lp.apply(&high)[400..4000]);
        assert!(low_out > 0.5, "low band attenuated: {low_out}");
        assert!(high_out < 0.05, "high band leaked: {high_out}");
    }

    #[test]
    fn band_pass_selects_the_mid_band() {
        let bp = FirFilter::band_pass(882.0, 2205.0, 201, SAMPLE_RATE).unwrap();
        let inside = sine(1500.0, 1.0, 4400, SAMPLE_RATE);
        let below = sine(300.0, 1.0, 4400, SAMPLE_RATE);
        let above = sine(5000.0, 1.0, 4400, SAMPLE_RATE);
        assert!(rms(&bp.apply(&inside)[400..4000]) > 0.5);
        assert!(rms(&bp.apply(&below)[400..4000]) < 0.08);
        assert!(rms(&bp.apply(&above)[400..4000]) < 0.08);
    }

    #[test]
    fn goertzel_detects_matching_frequency() {
        let tone = sine(440.0, 1.0, 2200, SAMPLE_RATE);
        let at = goertzel_power(&tone, 440.0, SAMPLE_RATE);
        let off = goertzel_power(&tone, 1320.0, SAMPLE_RATE);
        assert!(at > 10.0 * off, "at={at} off={off}");
        assert_eq!(goertzel_power(&[], 440.0, SAMPLE_RATE), 0.0);
    }

    #[test]
    fn rms_of_unit_sine_is_inv_sqrt2() {
        let tone = sine(100.0, 1.0, 22_000, SAMPLE_RATE);
        assert!((rms(&tone) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert_eq!(rms(&[]), 0.0);
    }
}
