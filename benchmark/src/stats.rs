//! Sample statistics and failure accounting shared by every workload.

/// The percentiles a tail may be reported at, in per mille, highest
/// first. The tail of a sample set is the highest of these with at
/// least [`MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [u64; 2] = [990, 900];

/// Cap on the tail of host-time samples. On a shared machine the p99 of
/// an op's host time mostly measures the neighbours: six to eight runs
/// of 20 s spread by 21–37% at p99 but 6–7% at p90.
pub const HOST_TAIL_CAP: u64 = P90;

/// Cap on the tail of modelled (virtual-tick) samples, which repeat
/// exactly: none.
pub const MODEL_TAIL_CAP: u64 = 990;

/// The median and the 90th percentile, in per mille.
pub const P50: u64 = 500;
pub const P90: u64 = 900;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of per-mille percentile `p` among `n` samples.
fn rank(p: u64, n: usize) -> usize {
    ((p * n as u64).div_ceil(1_000) as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] (per mille), at most
/// `cap`, with at least [`MIN_BEYOND`] of `n` samples beyond it; the
/// median when none has.
pub fn tail_permille(n: usize, cap: u64) -> u64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| p <= cap && n >= MIN_BEYOND && n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(P50)
}

/// Nearest-rank percentile `p` (per mille) of `sorted`, which must be
/// in ascending order. Zero for an empty slice.
pub fn percentile(sorted: &[f64], p: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, P50)
}

/// The arithmetic mean of `values`; zero when empty.
pub fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Runs `f` `reps` times and returns the median wall time in ns.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut v)
}

/// A median and a tail, with the percentile the tail was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// The tail's percentile, per mille.
    pub tail_permille: u64,
    pub n: usize,
}

/// Summarises `samples` by [`percentile`] and [`tail_permille`], with
/// the tail at most `cap` per mille.
pub fn summarise(samples: &[u64], cap: u64) -> Summary {
    let samples: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    summarise_f64(&samples, cap)
}

/// [`summarise`] for samples that are not whole numbers.
pub fn summarise_f64(samples: &[f64], cap: u64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_permille = tail_permille(sorted.len(), cap);
    Summary {
        p50: percentile(&sorted, P50),
        tail: percentile(&sorted, tail_permille),
        tail_permille,
        n: sorted.len(),
    }
}

/// Attempted and failed units of work. A unit that errs, breaks an
/// oracle or is refused (shed, routed to failure) counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `attempted` units of which `failed` failed; `failed` is
    /// capped at `attempted` so one unit is never counted twice.
    pub fn record(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// `failed / attempted`; zero before anything was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 - fail_ratio`, the end-to-end success metric.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.fail_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(0, MODEL_TAIL_CAP), P50);
        assert_eq!(tail_permille(99, MODEL_TAIL_CAP), P50);
        assert_eq!(tail_permille(100, MODEL_TAIL_CAP), 900);
        assert_eq!(tail_permille(999, MODEL_TAIL_CAP), 900);
        assert_eq!(tail_permille(1_000, MODEL_TAIL_CAP), 990);
        assert_eq!(tail_permille(250_000, MODEL_TAIL_CAP), 990);
        // Host-time tails stop at p90 however many samples there are.
        assert_eq!(tail_permille(99, HOST_TAIL_CAP), P50);
        assert_eq!(tail_permille(250_000, HOST_TAIL_CAP), 900);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&[], P50), 0.0);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        assert_eq!(mean(&[1, 2, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn summary_picks_its_tail_from_the_sample_count() {
        let few: Vec<u64> = (1..=50).rev().collect();
        let s = summarise(&few, MODEL_TAIL_CAP);
        assert_eq!((s.p50, s.tail, s.tail_permille, s.n), (25.0, 25.0, P50, 50));
        let many: Vec<u64> = (1..=1_000).collect();
        let s = summarise(&many, MODEL_TAIL_CAP);
        assert_eq!((s.p50, s.tail, s.tail_permille), (500.0, 990.0, 990));
        let s = summarise(&many, HOST_TAIL_CAP);
        assert_eq!((s.tail, s.tail_permille), (900.0, 900));
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(10, 0);
        t.record(10, 5);
        assert_eq!((t.attempted, t.failed), (20, 5));
        assert_eq!(t.fail_ratio(), 0.25);
        assert_eq!(t.ok_ratio(), 0.75);
        // A unit cannot fail twice: failures are capped per record.
        t.record(2, 9);
        assert_eq!((t.attempted, t.failed), (22, 7));
    }
}
