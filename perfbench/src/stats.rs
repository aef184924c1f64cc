//! Order statistics shared by the workloads and the A/A summary.

use std::time::Duration;

/// Nearest-rank percentile (`p` in `0..=1`) of `sorted`, plus how many
/// values lie strictly above the rank it picks.
pub fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median by the same nearest-rank rule as [`nearest_rank`], averaging
/// the two middle values of an even-length input.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so spreads printed here match the ones the
/// acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorted copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_counts_the_values_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.9), (90.0, 10));
        assert_eq!(nearest_rank(&v, 0.99), (99.0, 1));
    }
}
