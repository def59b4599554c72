//! Summary statistics and curve fitting for the experiment harness.

/// Summary statistics over a sample of `f64` observations.
///
/// Used by every experiment binary to aggregate repeated episodes (e.g. the
/// per-barrier completion times averaged in Figures 4 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 when n < 2).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
}

impl Summary {
    /// Compute summary statistics. Returns `None` for an empty sample.
    ///
    /// NaN observations do not panic: samples are ordered by
    /// [`f64::total_cmp`], under which every NaN sorts above `+inf`, and
    /// the mean/stddev propagate NaN through ordinary arithmetic. A
    /// corrupted sample therefore yields a visibly-NaN summary in the
    /// results (and a poisoned `max`/`p95`) instead of aborting the
    /// whole `run_all` from deep inside a reduce.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples
                .iter()
                .map(|&x| (x - mean) * (x - mean))
                .sum::<f64>()
                / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }
}

/// Percentile `p` (in `[0, 100]`) of an already-sorted sample, with linear
/// interpolation between closest ranks.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Least-squares linear fit `y = slope * x + intercept`.
///
/// The paper summarizes Figure 3 as "time for lock acquisition increases
/// linearly with the number of processors"; the harness verifies that claim
/// by fitting the measured series and checking the residual.
///
/// Returns `(slope, intercept, r_squared)`. Requires at least two points
/// with distinct x values.
#[must_use]
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "mismatched series lengths");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    assert!(sxx > 0.0, "x values must not all be equal");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        // sample stddev of 1..4 = sqrt(5/3)
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_order_invariant() {
        let a = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        let b = Summary::of(&[1.0, 3.0, 5.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    fn nan_sample_degrades_instead_of_panicking() {
        // One bad observation must not abort a whole run: NaN sorts last
        // under total order, so min/median come from the clean samples
        // while mean and max are visibly poisoned.
        let s = Summary::of(&[2.0, f64::NAN, 1.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert!(s.mean.is_nan());
        assert!(s.max.is_nan());
    }

    #[test]
    fn fit_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (m, b, r2) = linear_fit(&xs, &ys);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_flat_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 4.0, 4.0];
        let (m, b, r2) = linear_fit(&xs, &ys);
        assert_eq!(m, 0.0);
        assert_eq!(b, 4.0);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn fit_noisy_line_has_reasonable_r2() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                3.0 * x
                    + if (x as u32).is_multiple_of(2) {
                        0.5
                    } else {
                        -0.5
                    }
            })
            .collect();
        let (m, _, r2) = linear_fit(&xs, &ys);
        assert!((m - 3.0).abs() < 0.05);
        assert!(r2 > 0.99);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn fit_rejects_mismatched_lengths() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
