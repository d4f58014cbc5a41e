//! Order statistics and failure accounting shared by every workload.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in tenths of a percent, highest first
/// (integers, so the rank arithmetic is exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q` quantile (0 to 1), interpolated linearly between the two
/// nearest order statistics (so the 0.25 quantile of 4 samples lies
/// between the lowest and the second lowest); `None` when there are no
/// samples.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// 1-based nearest rank of the percentile `permille / 10` in `n` samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `permille / 10` (so `percentile(xs, 500)` is a
/// sample, and never above the [`tail`] of the same samples).
pub fn percentile(xs: &[f64], permille: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(v[rank(permille, v.len()) - 1])
}

/// A tail latency: the percentile chosen, its value, and the sample counts
/// behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it (nearest-rank). With fewer than
/// `2 * MIN_BEYOND` samples no percentile qualifies and the median is
/// returned with its (short) `beyond` count, so the printout shows that no
/// real tail was supported.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let pick = |permille: usize| {
        let r = rank(permille, n);
        Tail {
            percentile: permille as f64 / 10.0,
            value: v[r - 1],
            samples: n,
            beyond: n - r,
        }
    };
    Some(
        TAIL_LADDER
            .iter()
            .map(|&q| pick(q))
            .find(|t| t.beyond >= MIN_BEYOND)
            .unwrap_or_else(|| pick(500)),
    )
}

/// Attempted, failed and wrong operations of one run. An operation fails
/// when it errors or is refused; it is wrong when it completed but its
/// output did not match the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Count one operation and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Mark an already-counted operation as wrong (a correctness
    /// mismatch found after it completed).
    pub fn mismatch(&mut self, what: &str) {
        eprintln!("perfbench: MISMATCH: {what}");
        self.wrong += 1;
    }

    /// Count a check that is not itself a timed operation (a replay, a
    /// sampled support): it is attempted, and wrong if it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.mismatch(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Operations that did not complete correctly: failures plus
    /// mismatches, never more than were attempted.
    pub fn bad(&self) -> u64 {
        (self.failed + self.wrong).min(self.attempted)
    }

    /// `bad / attempted` (0 with nothing attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }

    /// Every completed output matched its reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 500), Some(2.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[], 0.25), None);
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), Some(1.75));
        assert_eq!(quantile(&ramp(5), 0.25), Some(2.0));
        assert_eq!(quantile(&ramp(5), 0.5), median(&ramp(5)));
        assert_eq!(quantile(&ramp(5), 1.0), Some(5.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 10,000 samples: p99.9 has exactly 10 beyond it.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9_990.0, 10));
        // 9,999 samples: p99.9 has only 9 beyond, so p99 is chosen.
        let t = tail(&ramp(9_999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 99));
        // 1,000 samples: p99 leaves exactly 10.
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 200 samples: p95 leaves 10; p99 only 2.
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        // 100 samples: p90 leaves 10.
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90.0);
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&ramp(40)).unwrap().percentile, 75.0);
        // 20 samples: only the median leaves 10.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_the_median_and_says_so() {
        let t = tail(&ramp(7)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (50.0, 4.0, 7, 3)
        );
        assert!(t.beyond < MIN_BEYOND);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fail_frac_counts_failures_and_mismatches_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed, t.wrong), (4, 1, 0));
        assert_eq!(t.fail_frac(), 0.25);
        assert!(t.correct());

        // A completed operation whose output was wrong counts too.
        t.mismatch("test");
        assert_eq!(t.fail_frac(), 0.5);
        assert!(!t.correct());

        // A check is an attempt of its own.
        let mut c = Tally::default();
        c.check(true, "fine");
        c.check(false, "broken");
        t.absorb(c);
        assert_eq!((t.attempted, t.failed, t.wrong), (6, 1, 2));
        assert_eq!(t.fail_frac(), 0.5);
    }

    #[test]
    fn bad_never_exceeds_attempted() {
        // A failed operation whose partial output was also flagged wrong
        // cannot push the fraction past 1.
        let mut t = Tally::default();
        t.record(false);
        t.mismatch("test");
        assert_eq!(t.bad(), 1);
        assert_eq!(t.fail_frac(), 1.0);
    }
}
