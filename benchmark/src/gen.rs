//! The seeded request generator.
//!
//! Everything the system under test sees is produced here from
//! `--seed`: the reader's statement sequence and the writer's paced
//! schedule. The fixtures are the same for every seed, so two runs with
//! different seeds issue statistically identical load in a different
//! order.

use std::time::Duration;

/// SplitMix64: small, seedable, and good enough to draw request ranks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// How ranks are drawn from a statement table.
pub enum Popularity {
    /// Each of `n` statements equally likely (a working set far
    /// beyond the caches).
    Uniform(usize),
    /// `P(rank r) ∝ 1 / (r + 1)^s`, by inverse CDF.
    Zipf(Vec<f64>),
}

impl Popularity {
    pub fn zipf(n: usize, s: f64) -> Popularity {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Popularity::Zipf(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            Popularity::Uniform(n) => rng.below(*n),
            Popularity::Zipf(cdf) => {
                let u = rng.next_f64();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
            }
        }
    }
}

/// One statement the reader can issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub video: String,
    pub text: String,
}

/// The reader's endless request sequence for one seed: ranks into the
/// workload's statement table.
pub struct ReadStream<'a> {
    rng: Rng,
    popularity: &'a Popularity,
}

impl<'a> ReadStream<'a> {
    pub fn new(seed: u64, popularity: &'a Popularity) -> ReadStream<'a> {
        ReadStream {
            rng: Rng::new(seed),
            popularity,
        }
    }
}

impl Iterator for ReadStream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(self.popularity.sample(&mut self.rng))
    }
}

/// Writes per second of the paced writer.
pub const WRITE_RATE: f64 = 20.0;

/// One scheduled write and what the writer does once it is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOp {
    /// When the write is due, from the start of the phase.
    pub due: Duration,
    /// Tagged writes carry the subscribed driver, so each one changes
    /// the standing answer and owes a push, which the writer awaits.
    /// After an untagged write it sends one cross-video read instead.
    pub tagged: bool,
    /// Clip position; distinct per write, so no two events coincide
    /// and every tagged write is a visible delta.
    pub start: u64,
    /// Which of the workload's cross-video statements follows an
    /// untagged write (drawn uniformly).
    pub rank: usize,
}

/// First clip position the writer uses; far beyond any fixture event.
pub const WRITE_BASE_CLIP: u64 = 1_000_000;

/// The writer's schedule over `total`: `WRITE_RATE` per second on
/// average, each gap drawn uniformly from 0.5–1.5 intervals. A strictly
/// periodic writer would phase-lock with the router's 50 ms shard poll
/// and report whatever phase it happened to start in as push latency.
pub fn write_schedule(seed: u64, total: Duration, scatter_texts: usize) -> Vec<WriteOp> {
    // Decorrelated from the read stream of the same seed.
    let mut rng = Rng::new(seed ^ 0x5752_4954_4552);
    let interval = 1.0 / WRITE_RATE;
    let mut due = 0.0;
    let mut ops = Vec::new();
    while due < total.as_secs_f64() {
        let k = ops.len() as u64;
        ops.push(WriteOp {
            due: Duration::from_secs_f64(due),
            tagged: k % 2 == 1,
            start: WRITE_BASE_CLIP + 2 * k,
            rank: rng.below(scatter_texts),
        });
        due += interval * (0.5 + rng.next_f64());
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, n: usize) -> Vec<usize> {
        let zipf = Popularity::zipf(51, 1.0);
        ReadStream::new(seed, &zipf).take(n).collect()
    }

    fn schedule(seed: u64, secs: u64) -> Vec<WriteOp> {
        write_schedule(seed, Duration::from_secs(secs), 48)
    }

    #[test]
    fn same_seed_same_sequence_different_seed_different() {
        assert_eq!(draw(7, 2000), draw(7, 2000));
        assert_ne!(draw(7, 2000), draw(8, 2000));
        assert_eq!(schedule(7, 5), schedule(7, 5));
        assert_ne!(schedule(7, 5), schedule(8, 5));
    }

    #[test]
    fn zipf_rank_frequencies_follow_one_over_rank() {
        let n = 51;
        let zipf = Popularity::zipf(n, 1.0);
        let mut rng = Rng::new(42);
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for rank in [0, 1, 2, 9, 50] {
            let expected = draws as f64 / ((rank + 1) as f64 * harmonic);
            let got = counts[rank] as f64;
            assert!(
                (got - expected).abs() < 0.08 * expected + 30.0,
                "rank {rank}: got {got}, expected {expected:.0}"
            );
        }
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn uniform_covers_the_table() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 64];
        for _ in 0..5000 {
            seen[Popularity::Uniform(64).sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn write_schedule_keeps_its_rate_and_alternates_tags() {
        let ops = schedule(11, 30);
        let rate = ops.len() as f64 / 30.0;
        assert!((rate - WRITE_RATE).abs() < 1.5, "rate {rate}");
        for (k, pair) in ops.windows(2).enumerate() {
            let gap = (pair[1].due - pair[0].due).as_secs_f64() * WRITE_RATE;
            assert!((0.5..1.5).contains(&gap), "gap {gap} intervals");
            assert_ne!(pair[0].tagged, pair[1].tagged);
            assert_eq!(pair[0].start, WRITE_BASE_CLIP + 2 * k as u64);
            assert!(pair[0].rank < 48);
        }
    }
}
