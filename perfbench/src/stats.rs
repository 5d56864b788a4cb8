//! Exact order statistics: no histogram buckets, no interpolation.

/// The nearest-rank `pct` percentile of `values` and the number of samples
/// strictly beyond it. `None` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let v = sorted[rank.min(sorted.len()) - 1];
    let beyond = sorted.iter().filter(|&&x| x > v).count();
    Some((v, beyond))
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(f64::NAN, |(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_count_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&v, 50.0), Some((50.0, 50)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
