//! Order statistics over timing samples.

/// Median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Candidate percentiles in basis points, highest first, for
/// [`tail_percentile`] (integers, so "ten beyond" is decided exactly).
const PERCENTILES_BP: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500];

/// The highest candidate percentile that leaves at least ten of `n`
/// samples beyond it, or `None` when even p75 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES_BP
        .into_iter()
        .find(|&bp| n as u64 * (10_000 - bp) >= 10 * 10_000)
        .map(|bp| bp as f64 / 100.0)
}

/// Nearest-rank value at percentile `p` of `samples` (`p` is resolved
/// to basis points, so the rank is exact integer arithmetic).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let bp = (p * 100.0).round() as usize;
    let rank = (bp * v.len()).div_ceil(10_000);
    v[rank.clamp(1, v.len()) - 1]
}

/// A timing reported the way the benchmark prints every timing: median,
/// the highest percentile with at least ten samples beyond it (if any),
/// and the sample count.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let mut s = format!("median {:.4} {unit}", median(samples));
    if let Some(p) = tail_percentile(samples.len()) {
        s.push_str(&format!(", p{p} {:.4} {unit}", percentile(samples, p)));
    }
    s.push_str(&format!(" (n={})", samples.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 40 samples leave < 10 beyond p75.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(1_370_000), Some(99.99));
    }

    #[test]
    fn chosen_tail_really_has_ten_beyond() {
        for n in [40usize, 57, 100, 250, 1_000, 12_345, 100_000] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = tail_percentile(n).expect("n >= 40");
            let cut = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p{p}: only {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }
}
