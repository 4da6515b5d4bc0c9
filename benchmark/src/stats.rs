//! Order statistics and the chunk-mark arithmetic the passes share.

/// The nearest-rank `q`-quantile of `values` (`q` in `(0, 1]`): the
/// smallest sample with at least `⌈q·n⌉` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank `⌈q·n⌉`; the small slack keeps a product
/// that binary rounding lifts just above a whole number (0.99 × n) from
/// moving up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).max(1)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
#[cfg(test)]
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The fewest samples that leave at least ten beyond the `q`-quantile —
/// the condition for reporting that percentile at all.
#[cfg(test)]
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= 10)
        .expect("some n satisfies it")
}

/// The median (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Absolute instruction marks `chunk, 2·chunk, …, total`: a chunked run
/// calls `run(mark − instructions so far)` for each, so it stops on the
/// same access as one `run(total)` call.
///
/// # Panics
///
/// Panics when `chunk` is zero.
pub fn chunk_marks(total: u64, chunk: u64) -> impl Iterator<Item = u64> {
    assert!(chunk > 0, "chunk must be non-zero");
    (1..=total.div_ceil(chunk)).map(move |k| (k * chunk).min(total))
}

/// Instructions to request so a run that has executed `done` stops at
/// `mark`; `None` when an earlier chunk already overshot the mark (an
/// access's instruction gap can carry the clock past several marks).
pub fn to_mark(mark: u64, done: u64) -> Option<u64> {
    mark.checked_sub(done).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_the_ten_beyond_rule() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 0.5), 500.0);
        assert_eq!(nearest_rank(&values, 0.99), 990.0);
        assert_eq!(nearest_rank(&values, 1.0), 1000.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // Order of the input does not matter.
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&reversed, 0.99), 990.0);

        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn chunk_marks_end_exactly_at_the_total() {
        assert_eq!(
            chunk_marks(250, 100).collect::<Vec<_>>(),
            vec![100, 200, 250]
        );
        assert_eq!(chunk_marks(200, 100).collect::<Vec<_>>(), vec![100, 200]);
        assert_eq!(chunk_marks(50, 100).collect::<Vec<_>>(), vec![50]);
        assert_eq!(chunk_marks(0, 100).count(), 0);

        assert_eq!(to_mark(200, 103), Some(97));
        assert_eq!(to_mark(200, 200), None, "already at the mark");
        assert_eq!(to_mark(200, 205), None, "overshot the mark");
    }
}
