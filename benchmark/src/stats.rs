//! Window and percentile arithmetic.
//!
//! Every timing metric the benchmark reports is the **median over
//! one-second windows of the per-window statistic, each scaled by the
//! window's slowdown**: the measured interval is cut into windows, the
//! statistic (p50, p95, a rate) is taken inside each, divided by how
//! much slower than quiet the host was during that window (`speed.rs`),
//! and the run's value is the median of the windows. The host's speed
//! changes from one second to the next as well as from one minute to the
//! next, so a single factor for a whole run leaves the windows of a
//! mixed run on two levels; and a window the yardstick could not follow
//! (a stall of the whole guest) is one outlier the median passes over.

use std::time::{Duration, Instant};

use crate::speed::slowdown;

/// Width of a window. The measured interval is cut into as many whole
/// windows of this width as fit, at least one.
const WINDOW: Duration = Duration::from_secs(1);

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p * n)` (1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median with the two middle values averaged on even counts. `None`
/// on an empty input.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Samples of one kind (the latencies of one operation type, or the
/// yardstick's times), bucketed by the window their operation *started*
/// in. Samples that start outside the measured interval (warm-up,
/// overrun) are dropped.
pub struct Windows {
    start: Instant,
    width: Duration,
    samples: Vec<Vec<f64>>,
}

impl Windows {
    /// Equal windows of about [`WINDOW`] covering `[start, start + total)`.
    pub fn new(start: Instant, total: Duration) -> Windows {
        let n = ((total.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
        Windows {
            start,
            width: total / n as u32,
            samples: vec![Vec::new(); n],
        }
    }

    /// The window an operation started at `at` belongs to.
    fn index(&self, at: Instant) -> Option<usize> {
        let offset = at.checked_duration_since(self.start)?;
        let i = (offset.as_nanos() / self.width.as_nanos().max(1)) as usize;
        (i < self.samples.len()).then_some(i)
    }

    /// True when `at` falls inside the measured interval.
    pub fn covers(&self, at: Instant) -> bool {
        self.index(at).is_some()
    }

    /// Records one completed operation that started at `at`.
    pub fn record(&mut self, at: Instant, micros: f64) {
        if let Some(i) = self.index(at) {
            self.samples[i].push(micros);
        }
    }

    /// Samples recorded across all windows.
    pub fn count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// The median over windows of `stat(samples, slowdown)`, over the
    /// windows that have both samples and yardstick times in `speed`
    /// (windows cut over the same interval).
    fn over_windows(&self, speed: &Windows, stat: impl Fn(&[f64], f64) -> f64) -> Option<f64> {
        let per_window = self
            .samples
            .iter()
            .zip(&speed.samples)
            .filter(|(w, yardstick)| !w.is_empty() && !yardstick.is_empty())
            .map(|(w, yardstick)| stat(w, slowdown(yardstick.clone())))
            .collect();
        median(per_window)
    }

    /// Percentile `p` of the operation's latency, scaled to a quiet host.
    pub fn percentile(&self, p: f64, speed: &Windows) -> Option<f64> {
        self.over_windows(speed, |w, slowdown| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p).expect("a window with samples") / slowdown
        })
    }

    /// Operations completed per second of the time spent on them (the
    /// samples are their latencies in µs), scaled to a quiet host: what
    /// one closed-loop caller gets while it does nothing else.
    pub fn rate(&self, speed: &Windows) -> Option<f64> {
        self.over_windows(speed, |w, slowdown| {
            slowdown * w.len() as f64 / (w.iter().sum::<f64>() / 1e6)
        })
    }

    /// For the yardstick's windows: the slowdown of the whole interval,
    /// as the median of its windows'.
    pub fn slowdown(&self) -> Option<f64> {
        self.over_windows(self, |_, slowdown| slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(Vec::new()), None);
    }

    #[test]
    fn samples_land_in_the_window_they_started_in() {
        use crate::speed::QUIET_US;
        let start = Instant::now();
        let total = Duration::from_secs(10);
        let (mut w, mut speed) = (Windows::new(start, total), Windows::new(start, total));
        // One slow outlier in window 0, steady samples everywhere else;
        // the host is quiet except in window 9, where everything takes
        // twice as long.
        w.record(start, 1000.0);
        for i in 0..10 {
            let at = start + Duration::from_millis(1000 * i + 500);
            let slow = if i == 9 { 2.0 } else { 1.0 };
            speed.record(at, QUIET_US * slow);
            w.record(at, (10.0 + i as f64) * slow);
            w.record(at, (10.0 + i as f64) * slow);
        }
        // Before the interval and past its end: dropped.
        w.record(start + total, 5000.0);
        assert!(!w.covers(start + total));
        assert_eq!(w.count(), 21);
        // Per-window p50s are 10..=19 once window 9 is scaled back; the
        // outlier moves none of them.
        assert_eq!(w.percentile(0.5, &speed), Some(14.5));
        // Window 0's max is the outlier, the others' are 11..=19.
        assert_eq!(w.percentile(1.0, &speed), Some(15.5));
        // 1e6 / latency per window, window 0 the slowest of all: the
        // median sits between the windows of 15 and 16 µs.
        let rate = w.rate(&speed).expect("a rate");
        assert!(
            (rate - (1e6 / 15.0 + 1e6 / 16.0) / 2.0).abs() < 1e-6,
            "{rate}"
        );
        assert_eq!(speed.slowdown(), Some(1.0));
        // A window without yardstick times is left out, not guessed.
        let empty = Windows::new(start, total);
        assert_eq!(w.percentile(0.5, &empty), None);
    }

    #[test]
    fn an_interval_is_cut_into_whole_one_second_windows() {
        let start = Instant::now();
        for (millis, windows) in [(400, 1), (1000, 1), (8000, 8), (8900, 8), (20_000, 20)] {
            let w = Windows::new(start, Duration::from_millis(millis));
            assert_eq!(w.samples.len(), windows, "{millis} ms");
            assert!(w.covers(start + Duration::from_millis(millis - 1)));
            assert!(!w.covers(start + Duration::from_millis(millis)));
        }
    }
}
