//! Order statistics for latency samples: nearest-rank percentiles and the
//! `_tail` rule (the highest nearest-rank percentile that still has at
//! least [`TAIL_BEYOND`] samples above it, capped at p99.9).

/// The highest percentile a `_tail` metric reports, in hundredths of a
/// percent. Above some 10 000 samples the tail stays at p99.9 instead of
/// chasing ever rarer outliers, so runs of one workload report the same
/// percentile.
const TAIL_CAP: u64 = 9990;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of the percentile `pct_x100` (hundredths of a
/// percent) among `n` samples: `ceil(pct · n / 100)`, at least 1.
fn rank(pct_x100: u64, n: usize) -> usize {
    let n = n as u64;
    (pct_x100 * n).div_ceil(10_000).clamp(1, n) as usize
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn nearest_rank(sorted: &[f64], pct_x100: u64) -> f64 {
    sorted[rank(pct_x100, sorted.len()) - 1]
}

/// A tail percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. 99.9).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest nearest-rank percentile (at most p99.9) with at least
/// [`TAIL_BEYOND`] samples beyond its rank; `None` below 11 samples.
///
/// Below the cap this is rank `n - 10`, reported as percentile
/// `100 (n - 10) / n`: it moves smoothly with the sample count, so runs
/// whose counts differ slightly do not jump between fixed percentiles.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let r = (n - TAIL_BEYOND).min(rank(TAIL_CAP, n));
    Some(Tail {
        pct: 100.0 * r as f64 / n as f64,
        value: sorted[r - 1],
        beyond: n - r,
    })
}

/// Median and tail of one latency population.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median; 0 without samples.
    pub p50: f64,
    /// The `_tail` percentile, when there are enough samples.
    pub tail: Option<Tail>,
}

impl Summary {
    /// Summarises unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return Summary::default();
        }
        Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 5000),
            tail: tail(&sorted),
        }
    }

    /// The tail value, or 0 when there are too few samples for one.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(0.0, |t| t.value)
    }
}

/// Nearest-rank median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_follows_the_ceiling_definition() {
        let xs = ramp(10);
        assert_eq!(nearest_rank(&xs, 5000), 5.0);
        assert_eq!(nearest_rank(&xs, 5100), 6.0);
        assert_eq!(nearest_rank(&xs, 9000), 9.0);
        assert_eq!(nearest_rank(&xs, 9900), 10.0);
        assert_eq!(nearest_rank(&xs, 1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 9999), 7.0);
        // Median of an even count is the lower middle sample.
        assert_eq!(nearest_rank(&ramp(4), 5000), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        // 10 samples: no percentile has 10 beyond it.
        assert_eq!(tail(&ramp(10)), None);
        // 11 samples: rank 1 (p9.09) has exactly 10 beyond.
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // 100 samples: p90 (rank 90); 115 samples: rank 105, p91.3.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        assert_eq!(tail(&ramp(115)).unwrap().value, 105.0);
        // Below the cap exactly 10 samples lie beyond, and the percentile
        // is the one whose nearest rank is that sample.
        for n in [11, 37, 115, 999, 9_999] {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!((t.beyond, t.value), (10, (n - 10) as f64), "n = {n}");
            assert_eq!((t.pct * n as f64 / 100.0).round() as usize, n - 10);
        }
        // 10000 samples: p99.9 (rank 9990) has exactly 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        // Beyond that the tail stays at p99.9 with more samples beyond it.
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 99_900.0, 100));
    }

    #[test]
    fn summary_sorts_and_handles_empty_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert_eq!(s.tail_value(), 0.0);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50), (0, 0.0));
    }
}
