//! Timing summaries: the median plus the highest percentile the sample
//! can support, with the sample count.
//!
//! A percentile is supported when at least [`MIN_BEYOND`] samples lie
//! beyond it. The ladder tops out at p99; a sample too small for p99
//! falls back down the ladder and the summary names the percentile it
//! used, so a reader never mistakes a p90 for a p99.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples,
/// in integer arithmetic so that e.g. p90 of 100 samples is rank 90.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or the median when even that is unsupported.
pub fn supported_percentile(n: usize) -> usize {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Median and supported tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99 when supported).
    pub tail_pct: usize,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = supported_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            max: sorted[sorted.len() - 1],
        })
    }

    /// `p99`, or e.g. `p90` when the sample only supports that.
    pub fn tail_name(&self) -> String {
        format!("p{}", self.tail_pct)
    }

    /// One human-readable line: `name p50=… p99=… unit (n=…)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p50={:.4} {}={:.4} max={:.4} {unit} (n={})",
            self.p50,
            self.tail_name(),
            self.tail,
            self.max,
            self.n
        )
    }
}

/// A tail that one burst of noise cannot move: the samples, in time
/// order, are cut into `windows` equal consecutive slices, each slice's
/// supported tail is taken, and the median of those is returned with
/// the percentile it used. A sample too small to give every slice ten
/// samples beyond its median falls back to the whole sample's tail.
pub fn windowed_tail(in_time_order: &[f64], windows: usize) -> (f64, usize) {
    let size = in_time_order.len() / windows.max(1);
    if size < 2 * MIN_BEYOND + 1 {
        return Summary::of(in_time_order).map_or((0.0, 50), |s| (s.tail, s.tail_pct));
    }
    let tails: Vec<f64> = in_time_order
        .chunks_exact(size)
        .take(windows)
        .filter_map(|w| Summary::of(w).map(|s| s.tail))
        .collect();
    (median(&tails), supported_percentile(size))
}

/// The median of the calmest stretch: the samples, in time order, are
/// cut into `slices` equal consecutive slices and the lowest slice
/// median is returned. On a shared host whose CPU is taken away in
/// bursts, one slice usually runs undisturbed; a slowdown that lasts the
/// whole run still shows. With fewer than five samples per slice it is
/// the plain median.
pub fn calm_median(in_time_order: &[f64], slices: usize) -> f64 {
    let size = in_time_order.len() / slices.max(1);
    if size < 5 {
        return median(in_time_order);
    }
    in_time_order
        .chunks_exact(size)
        .take(slices)
        .map(median)
        .fold(f64::INFINITY, f64::min)
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ramp_percentiles_are_exact() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.max, 1000.0);
        assert_eq!(s.tail_name(), "p99");
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        xs.swap(3, 700);
        assert_eq!(Summary::of(&xs).unwrap().tail, 990.0);
    }

    #[test]
    fn small_samples_fall_down_the_ladder_and_say_so() {
        // 999 samples: p99 leaves only 9 beyond it, so p95 is reported.
        assert_eq!(supported_percentile(999), 95);
        assert_eq!(supported_percentile(1000), 99);
        assert_eq!(supported_percentile(200), 95);
        assert_eq!(supported_percentile(100), 90);
        assert_eq!(supported_percentile(40), 75);
        assert_eq!(supported_percentile(5), 50);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.tail_name().as_str(), s.tail), ("p90", 90.0));
        assert!(s.line("read", "us").contains("p90=90.0000"));
    }

    #[test]
    fn bimodal_tail_lands_in_the_slow_mode() {
        // 97% fast at 1.0, 3% slow at 100.0: p50 is fast, p99 is slow.
        let xs: Vec<f64> = (0..2000)
            .map(|i| if i % 100 < 3 { 100.0 } else { 1.0 })
            .collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.p50, s.tail), (1.0, 100.0));
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Five windows of 1000 samples; one holds a burst of slow ones.
        let mut xs: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[2000..2100] {
            *x = 1e6;
        }
        assert_eq!(Summary::of(&xs).unwrap().tail, 1e6);
        assert_eq!(windowed_tail(&xs, 5), (989.0, 99));
        // Slices of 100 support p90 only.
        let ys: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_tail(&ys, 5), (89.0, 90));
        // Too few samples: the whole sample's tail.
        assert_eq!(windowed_tail(&xs[..50], 5), (37.0, 75));
    }

    #[test]
    fn calm_median_takes_the_quietest_slice() {
        // Five slices of 10; the third runs twice as slow as the rest,
        // the last is the quietest.
        let mut xs: Vec<f64> = (0..50).map(|i| f64::from(i % 10)).collect();
        for x in &mut xs[20..30] {
            *x *= 2.0;
        }
        for x in &mut xs[40..50] {
            *x -= 1.0;
        }
        assert_eq!(calm_median(&xs, 5), 3.0);
        // Too few samples per slice: the plain median.
        assert_eq!(calm_median(&xs[..12], 5), median(&xs[..12]));
    }

    #[test]
    fn empty_and_single_samples() {
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1, 7.5, 50, 7.5));
    }
}
