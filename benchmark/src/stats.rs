//! Exact timing statistics: percentiles from sorted raw samples, never
//! from bucketed histograms (`ccopt_trace::Histogram`'s power-of-two
//! buckets quantise to 2x, so a true 300 us median would print as 511).

/// The `q`-quantile (0 <= q <= 1) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. Exact: always one of the samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even
/// count). Sorts a copy.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Which way a figure improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The quartile of `values` on the good side, by nearest rank: the
/// figure a quarter of the slices reach or beat (the 4th best of 15).
///
/// Interference on a shared sandbox is one-sided — a host steal or a
/// seconds-long slow phase only ever makes a slice worse, and in a bad
/// minute it hits more than half of a run's slices, which moves a
/// median (ten-seed spreads of 7 %, 4 % and 14 % on `served_cross`'s
/// rate, median and p99 read 5 %, 2 % and 10 % this way). A quarter of
/// the slices must reach the figure, so one lucky slice cannot set it.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quartile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    match better {
        Better::Lower => percentile_sorted(&v, 0.25),
        Better::Higher => v[v.len() - (0.25 * v.len() as f64).ceil().max(1.0) as usize],
    }
}

/// Fewest samples a slice must hold for its p99 to count: ten samples
/// lie beyond the 99th percentile of a thousand.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// What one measured slice (a fixed wall-clock window) came to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceSummary {
    /// Transactions whose commit was acknowledged inside the slice.
    pub commits: usize,
    /// The slice's length in seconds.
    pub secs: f64,
    /// Exact latency quantiles of the slice, nanoseconds.
    pub p50_ns: u32,
    pub p99_ns: u32,
    pub p999_ns: u32,
    pub max_ns: u32,
}

impl SliceSummary {
    /// Summarise one slice from its raw latency samples (sorted in
    /// place). An empty slice summarises to zero latencies; the run
    /// rejects it later through [`RunSummary::from_slices`].
    pub fn from_samples(samples: &mut [u32], secs: f64) -> SliceSummary {
        samples.sort_unstable();
        let q = |q: f64| {
            if samples.is_empty() {
                0
            } else {
                percentile_sorted(samples, q)
            }
        };
        SliceSummary {
            commits: samples.len(),
            secs,
            p50_ns: q(0.5),
            p99_ns: q(0.99),
            p999_ns: q(0.999),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }
}

/// A run's timing figures: the [`good_quartile`] over its slices, so
/// that slow slices (host steals, slow phases of a shared box) cannot
/// move them, with the worst tail kept beside them so that it stays
/// visible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    pub slices: usize,
    /// Latency samples behind the figures (all slices).
    pub samples: usize,
    pub commits_per_s: f64,
    pub txn_p50_us: f64,
    pub txn_p99_us: f64,
    /// Worst slice p99.9 (printed, never gated).
    pub tail_p999_us: f64,
    /// Largest single sample (printed, never gated).
    pub tail_max_us: f64,
}

impl RunSummary {
    /// Fold slice summaries into the run's figures. `Err` names the
    /// first slice too thin for an exact p99.
    pub fn from_slices(slices: &[SliceSummary]) -> Result<RunSummary, String> {
        if slices.is_empty() {
            return Err("the run measured no slice".to_string());
        }
        if let Some((i, s)) = slices
            .iter()
            .enumerate()
            .find(|(_, s)| s.commits < MIN_SLICE_SAMPLES)
        {
            return Err(format!(
                "slice {i} holds {} samples, fewer than the {MIN_SLICE_SAMPLES} an exact p99 needs",
                s.commits
            ));
        }
        let over =
            |f: &dyn Fn(&SliceSummary) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
        let worst = |f: &dyn Fn(&SliceSummary) -> u32| slices.iter().map(f).max().unwrap_or(0);
        Ok(RunSummary {
            slices: slices.len(),
            samples: slices.iter().map(|s| s.commits).sum(),
            commits_per_s: good_quartile(&over(&|s| s.commits as f64 / s.secs), Better::Higher),
            txn_p50_us: good_quartile(&over(&|s| s.p50_ns as f64 / 1e3), Better::Lower),
            txn_p99_us: good_quartile(&over(&|s| s.p99_ns as f64 / 1e3), Better::Lower),
            tail_p999_us: worst(&|s| s.p999_ns) as f64 / 1e3,
            tail_max_us: worst(&|s| s.max_ns) as f64 / 1e3,
        })
    }
}

/// Nanoseconds of a duration as a latency sample, saturating at
/// `u32::MAX` (4.29 s — past the 2 s no-progress watchdog).
pub fn sample_ns(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Median and exact p99 (both in microseconds) of raw nanosecond
/// samples, for the per-layer round-trip metrics. Sorts in place.
pub fn p50_p99_us(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 0.5) as f64 / 1e3,
        percentile_sorted(samples, 0.99) as f64 / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_samples() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // 1000 samples: exactly ten lie beyond the p99.
        let v: Vec<u32> = (0..1000).collect();
        let p99 = percentile_sorted(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile_sorted(&[7u32], 0.99), 7);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn good_quartile_is_the_nearest_rank_on_the_good_side() {
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        // 15 slices: the 4th best either way.
        assert_eq!(good_quartile(&v, Better::Higher), 12.0);
        assert_eq!(good_quartile(&v, Better::Lower), 4.0);
        // 4 slices: the best one; 5: the 2nd best.
        assert_eq!(good_quartile(&[3.0, 1.0, 4.0, 2.0], Better::Higher), 4.0);
        assert_eq!(good_quartile(&[3.0, 1.0, 4.0, 2.0], Better::Lower), 1.0);
        assert_eq!(
            good_quartile(&[5.0, 3.0, 1.0, 4.0, 2.0], Better::Higher),
            4.0
        );
        assert_eq!(good_quartile(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn run_summary_takes_good_quartiles_and_worst_tails() {
        // Eight 1 s slices, k x 1000 commits each with latencies
        // 1..=n microseconds-ish; five of them slowed 100x.
        let mk = |n: u32, scale: u32| {
            let mut s: Vec<u32> = (1..=n).map(|i| i * scale).collect();
            SliceSummary::from_samples(&mut s, 1.0)
        };
        let slices = [
            mk(1000, 1000),
            mk(1100, 1000),
            mk(1200, 1000),
            mk(1300, 1000),
            mk(1400, 1000),
            mk(2000, 10),
            mk(3000, 10),
            mk(4000, 10),
        ];
        let r = RunSummary::from_slices(&slices).unwrap();
        assert_eq!(r.slices, 8);
        assert_eq!(r.samples, 15_000);
        // The 2nd best of 8: five slow slices move nothing.
        assert_eq!(r.commits_per_s, 3000.0);
        // slice medians 10, 15, 20 us on the good side -> 15 us.
        assert_eq!(r.txn_p50_us, 15.0);
        // slice p99s 19.8, 29.7, 39.6 us -> 29.7 us.
        assert_eq!(r.txn_p99_us, 29.7);
        // Worst tails come from the slow slices.
        assert_eq!(r.tail_p999_us, 1399.0);
        assert_eq!(r.tail_max_us, 1400.0);
    }

    #[test]
    fn thin_slices_fail_the_run() {
        let mut few: Vec<u32> = (0..999).collect();
        let thin = SliceSummary::from_samples(&mut few, 1.0);
        let err = RunSummary::from_slices(&[thin]).unwrap_err();
        assert!(err.contains("999"), "{err}");
        assert!(RunSummary::from_slices(&[]).is_err());
    }

    #[test]
    fn slice_rate_uses_the_slice_length() {
        let mut s: Vec<u32> = vec![5; 1500];
        let half = SliceSummary::from_samples(&mut s, 0.5);
        let r = RunSummary::from_slices(&[half]).unwrap();
        assert_eq!(r.commits_per_s, 3000.0);
    }
}
