//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the tail rule and the per-design geometric mean.

/// Percentiles the tail rule may choose, highest first, in tenths of
/// a percent (integers, so a rank never depends on float rounding).
/// p99 and above are left out: edit-stream's p99 sits at the top edge
/// of a dense cluster of 10–11 ms checks, so on a busy machine the
/// ~1% of checks it delays past that edge moved its p99 from 11 to
/// 15 ms between runs. p95 lies where checks are evenly spread.
const TAIL_LADDER: [usize; 4] = [950, 900, 750, 500];

/// Samples that must lie beyond a percentile for it to be reported as
/// the tail.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending, non-empty `sorted`, with the
/// percentile given in tenths of a percent (`500` is the median).
pub fn percentile(sorted: &[f64], tenths: usize) -> f64 {
    sorted[rank(sorted.len(), tenths) - 1]
}

/// 1-based nearest rank of a percentile (in tenths) among `n` samples.
fn rank(n: usize, tenths: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The tail: the highest ladder percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond its rank, as `(percentile, value,
/// samples beyond)`. Falls back to the median when there are too few
/// samples for any.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_BEYOND)
        .unwrap_or(500);
    (p as f64 / 10.0, percentile(sorted, p), n - rank(n, p))
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 500)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 200 samples: rank of p95 is 190, exactly 10 beyond it.
        assert_eq!(tail(&ramp(200)), (95.0, 190.0, 10));
        // One fewer and p95 keeps only 9 beyond: fall to p90.
        assert_eq!(tail(&ramp(199)), (90.0, 180.0, 19));
        // p95 is the top of the ladder however many samples there are.
        assert_eq!(tail(&ramp(20_000)), (95.0, 19_000.0, 1000));
        assert_eq!(tail(&ramp(100)), (90.0, 90.0, 10));
        assert_eq!(tail(&ramp(99)).0, 75.0);
        // Too few for any ladder rung: the median stands in.
        assert_eq!(tail(&ramp(5)).0, 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(4);
        assert_eq!(percentile(&xs, 500), 2.0);
        assert_eq!(percentile(&xs, 750), 3.0);
        assert_eq!(percentile(&xs, 1000), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn geomean_weights_designs_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        // One slow design moves it by its own factor, not by its size.
        let base = geomean(&[1.0, 1.0, 1.0, 1.0]);
        let slow = geomean(&[1.0, 1.0, 1.0, 16.0]);
        assert!((slow / base - 2.0).abs() < 1e-9);
    }
}
