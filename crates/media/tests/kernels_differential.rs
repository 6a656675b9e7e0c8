//! The lane-grouped audio kernels against one-accumulator references,
//! bit for bit.
//!
//! `FirFilter::apply` advances a group of outputs together over the
//! interior of the signal and goes one output at a time at its edges;
//! `pitch_autocorrelation` advances a group of lags together over the
//! buffer, with the last group overlapping the one before. Both promise
//! that every sum still runs in ascending order, so each output must
//! equal the plain loop's to the bit — on every length around the
//! interior/edge split, including signals shorter than one group and
//! shorter than the filter.

use f1_media::features::audio::pitch_autocorrelation;
use f1_media::signal::FirFilter;
use f1_media::time::SAMPLE_RATE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `FirFilter::apply` with one accumulator per output, taps in order,
/// out-of-range samples skipped.
fn fir_reference(taps: &[f64], signal: &[f64]) -> Vec<f64> {
    let mid = taps.len() / 2;
    (0..signal.len())
        .map(|i| {
            let mut acc = 0.0;
            for (k, &h) in taps.iter().enumerate() {
                if let Some(&x) = (i + k).checked_sub(mid).and_then(|j| signal.get(j)) {
                    acc += h * x;
                }
            }
            acc
        })
        .collect()
}

/// `pitch_autocorrelation` with one accumulator per lag, and the best
/// normalized score behind its answer (`None` where it returns before
/// scoring).
fn pitch_reference(
    buf: &[f64],
    min_hz: f64,
    max_hz: f64,
    voicing_threshold: f64,
) -> (Option<f64>, Option<f64>) {
    if buf.len() < 8 || min_hz <= 0.0 || max_hz <= min_hz {
        return (None, None);
    }
    let mut r0 = 0.0;
    for x in buf {
        r0 += x * x;
    }
    if r0 < 1e-9 {
        return (None, None);
    }
    let min_lag = (SAMPLE_RATE as f64 / max_hz).floor().max(2.0) as usize;
    let max_lag = ((SAMPLE_RATE as f64 / min_hz).ceil() as usize).min(buf.len() - 1);
    if min_lag >= max_lag {
        return (None, None);
    }
    let scores: Vec<f64> = (min_lag..=max_lag)
        .map(|lag| {
            let mut r = 0.0;
            for i in 0..buf.len() - lag {
                r += buf[i] * buf[i + lag];
            }
            r / (buf.len() - lag) as f64 / (r0 / buf.len() as f64)
        })
        .collect();
    let best = scores.iter().copied().fold(f64::MIN, f64::max);
    if best < voicing_threshold {
        return (None, Some(best));
    }
    let cutoff = voicing_threshold.max(0.9 * best);
    let lag = (0..scores.len()).find(|&i| {
        (i == 0 || scores[i] >= scores[i - 1])
            && (i + 1 == scores.len() || scores[i] >= scores[i + 1])
            && scores[i] >= cutoff
    });
    let pitch = lag.map(|i| SAMPLE_RATE as f64 / (i + min_lag) as f64);
    (pitch, Some(best))
}

/// Noise with a few random partials, so some buffers are voiced.
fn signal(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let partials: Vec<(f64, f64)> = (0..rng.gen_range(0..4))
        .map(|_| (rng.gen_range(40.0..2000.0), rng.gen_range(0.0..1.0)))
        .collect();
    let noise = rng.gen_range(0.0..1.0);
    (0..len)
        .map(|n| {
            let t = n as f64 / SAMPLE_RATE as f64;
            let tone: f64 = partials
                .iter()
                .map(|&(f, a)| a * (std::f64::consts::TAU * f * t).sin())
                .sum();
            tone + noise * rng.gen_range(-1.0..1.0)
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn fir_apply_is_the_one_accumulator_filter() {
    let mut rng = StdRng::seed_from_u64(0xF1F1);
    let nyquist = SAMPLE_RATE as f64 / 2.0;
    for taps in (3..=101).step_by(2) {
        let lo = rng.gen_range(0.0..nyquist - 100.0);
        let hi = rng.gen_range(lo + 50.0..nyquist);
        let fir = FirFilter::band_pass(lo, hi, taps, SAMPLE_RATE).unwrap();
        // Every length up to past one group, those around the filter's
        // own length and around an interior of exactly one group, the
        // longest, and random ones between.
        let longest = 3 * taps + 40;
        let mut lengths: Vec<usize> = (0..=20).collect();
        lengths.extend(taps - 2..=taps + 2);
        lengths.extend(taps + 12..=taps + 18);
        lengths.push(longest);
        lengths.extend((0..8).map(|_| rng.gen_range(0..=longest)));
        for len in lengths {
            let x = signal(&mut rng, len);
            assert_eq!(
                bits(&fir.apply(&x)),
                bits(&fir_reference(fir.taps(), &x)),
                "{taps} taps, {len} samples"
            );
        }
    }
}

#[test]
fn pitch_autocorrelation_is_the_one_accumulator_estimate() {
    let mut rng = StdRng::seed_from_u64(0x417C);
    let mut scored = 0;
    for trial in 0..400 {
        let len = rng.gen_range(0..=900);
        let buf = signal(&mut rng, len);
        // From a range of a few lags (below one group) to hundreds.
        let min_hz = rng.gen_range(20.0..4000.0);
        let max_hz = min_hz * rng.gen_range(1.05..20.0);
        let threshold = rng.gen_range(0.0..1.0);
        let (pitch, best) = pitch_reference(&buf, min_hz, max_hz, threshold);
        let got = pitch_autocorrelation(&buf, min_hz, max_hz, threshold);
        let case = format!("trial {trial}: {len} samples, {min_hz}..{max_hz} Hz");
        assert_eq!(got.map(f64::to_bits), pitch.map(f64::to_bits), "{case}");
        // The best score, to the bit: voiced at exactly it (when it is
        // positive, it is its own cutoff), unvoiced a step above it.
        if let Some(best) = best {
            scored += 1;
            let at = pitch_autocorrelation(&buf, min_hz, max_hz, best);
            let (want, _) = pitch_reference(&buf, min_hz, max_hz, best);
            assert_eq!(at.map(f64::to_bits), want.map(f64::to_bits), "{case}");
            assert!(
                best <= 0.0 || at.is_some(),
                "{case}: best score below the reference's"
            );
            let above = pitch_autocorrelation(&buf, min_hz, max_hz, best.next_up());
            assert_eq!(above, None, "{case}: best score above the reference's");
        }
    }
    assert!(scored > 200, "only {scored} trials reached scoring");
}
