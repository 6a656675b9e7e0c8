//! How fast the host is right now, so that a time can be reported as
//! what it would have been on a quiet host.
//!
//! The recorded host is a guest on a shared machine. What its
//! neighbours do to it is not to take processor time away but to slow
//! every memory access down: for minutes at a stretch the same request,
//! on the same processor, takes 1.2 to 1.8 times as long, and a loop of
//! pure arithmetic beside it runs at full speed throughout. Ten runs of
//! unchanged code then spread over 20–35 % of their median, which is
//! wider than any bound `BENCHMARK.json` may set.
//!
//! So the benchmark carries a yardstick: a fixed piece of work of its
//! own, of the kind the program's requests are made of (dependent loads
//! scattered over a quarter of a megabyte, then formatting, splitting
//! and allocating a few hundred short strings), run every
//! [`EVERY`] between two requests on the generator's thread, which is on
//! the same processor as everything else. The **slowdown** of a window
//! is the median time of the yardstick in it over [`QUIET_US`], and every
//! duration the benchmark reports is the measured one divided by the
//! slowdown measured beside it. On 96 pinned runs of 8 s taken through
//! a noisy hour this brought the quartile spread of `read_p50_us` from
//! 18–37 % down to 3–8 %, and likewise for every operation that is work
//! and not waiting (README.md, "How steady it is").
//!
//! The yardstick calls nothing of the program, so a change to the
//! program cannot move it; and the program's own work is measured in
//! the same wall-clock microseconds as before, so a change that makes
//! it do less shows in full.

use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// How often the session runs the yardstick between two operations:
/// ≈ 50 samples per one-second window for ≈ 1.3 % of the time.
pub const EVERY: Duration = Duration::from_millis(20);

/// Median time of the yardstick on the recorded host when its neighbours
/// are quiet. It only fixes the scale: a slowdown of 1.0 means "as on
/// that host at its best", and every comparison the benchmark serves is
/// between two runs scaled by the same constant.
pub const QUIET_US: f64 = 240.0;

/// Yardstick runs before and after a one-off timed step (a set-up, a
/// reopen).
const AROUND: usize = 12;

const SLOTS: usize = 32 * 1024;
const LOADS: usize = 40_000;
const ROWS: u32 = 200;

/// The yardstick and the memory it works on.
pub struct Yardstick {
    slots: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            slots: vec![1; SLOTS],
        }
    }

    /// Runs the fixed work once and returns how long it took, in µs.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        // Dependent loads and stores at pseudo-random places of a 256 KiB
        // table: bound by the caches the neighbours share with us.
        let mut x: u64 = 88_172_645_463_325_252;
        let mut acc: u64 = 0;
        for _ in 0..LOADS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % SLOTS;
            acc ^= self.slots[i];
            self.slots[i] = acc.rotate_left(7).wrapping_add(x);
        }
        black_box(acc);
        // What encoding and decoding a 200-row answer is made of:
        // formatting, scanning, and one small allocation per field.
        let mut text = String::new();
        for i in 0..ROWS {
            let _ = write!(
                text,
                "{{\"start\":{},\"end\":{},\"label\":\"caption:pit_stop\",\"driver\":\"D{}\"}},",
                i * 3,
                i * 3 + 2,
                i % 7
            );
        }
        let fields: Vec<String> = text
            .split(',')
            .filter_map(|part| part.split_once(':'))
            .map(|(k, v)| {
                format!(
                    "{}={}",
                    k.trim_matches(|c| c == '{' || c == '"'),
                    v.trim_matches('"')
                )
            })
            .collect();
        black_box(fields);
        t.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `step` with the yardstick before and after it, and returns
    /// its result, how long it took scaled to a quiet host (seconds),
    /// and the slowdown it was scaled by.
    pub fn timed<T>(&mut self, step: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut samples: Vec<f64> = (0..AROUND).map(|_| self.run()).collect();
        let t = Instant::now();
        let result = step();
        let seconds = t.elapsed().as_secs_f64();
        samples.extend((0..AROUND).map(|_| self.run()));
        let slowdown = slowdown(samples);
        (result, seconds / slowdown, slowdown)
    }
}

/// The slowdown a set of yardstick times (µs) says the host had.
pub fn slowdown(yardstick_us: Vec<f64>) -> f64 {
    median(yardstick_us).map_or(1.0, |us| us / QUIET_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_does_the_same_work_every_time() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        for _ in 0..3 {
            assert!(a.run() > 0.0);
        }
        b.run();
        b.run();
        b.run();
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn a_step_is_scaled_by_the_slowdown_beside_it() {
        let (result, seconds, by) = Yardstick::new().timed(|| 7);
        assert_eq!(result, 7);
        assert!(by > 0.0 && seconds >= 0.0);
        assert_eq!(slowdown(vec![QUIET_US * 2.0; 5]), 2.0);
        assert_eq!(slowdown(Vec::new()), 1.0);
    }
}
