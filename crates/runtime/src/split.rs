//! Deterministic balanced partitioning of a row index space.

use std::ops::Range;

/// Number of ranges [`split_rows`] cuts `0..n` into for `workers`:
/// `min(workers.max(1), n)`, and 0 when `n == 0`.
pub(crate) fn split_count(n: usize, workers: usize) -> usize {
    workers.max(1).min(n)
}

/// Range `t` of the [`split_rows`] partition of `0..n`, computed without
/// building the partition: with `w = min(workers.max(1), n)` ranges, the
/// first `n % w` hold one row more than the rest.
///
/// # Panics
/// Panics if `t` is not below that range count.
pub fn split_range(n: usize, workers: usize, t: usize) -> Range<usize> {
    let w = split_count(n, workers);
    assert!(t < w, "runtime split: range {t} of {w}");
    let (base, remainder) = (n / w, n % w);
    let start = t * base + t.min(remainder);
    start..start + base + usize::from(t < remainder)
}

/// Splits `0..n` into at most `workers` contiguous ranges whose lengths
/// differ by at most one, larger ranges first.
///
/// Properties (pinned by the property suite):
///
/// * every index in `0..n` appears in exactly one range,
/// * ranges are non-empty, contiguous and ascending,
/// * `ranges.len() == min(workers.max(1), n)` (and 0 when `n == 0`),
/// * the partition is a pure function of `(n, workers)` — two calls agree
///   bit for bit, which is what makes fixed-order reductions over the
///   ranges deterministic across runs and machines,
/// * range `t` is [`split_range`]`(n, workers, t)`, which is how the
///   executor finds a band without allocating this vector.
pub fn split_rows(n: usize, workers: usize) -> Vec<Range<usize>> {
    (0..split_count(n, workers))
        .map(|t| split_range(n, workers, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_produces_no_ranges() {
        assert!(split_rows(0, 4).is_empty());
    }

    #[test]
    fn more_workers_than_rows_gives_one_range_per_row() {
        let ranges = split_rows(3, 8);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn uneven_split_is_balanced_within_one() {
        let ranges = split_rows(10, 4);
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens.iter().max().unwrap() - lens.iter().min().unwrap(), 1);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        assert_eq!(split_rows(5, 0), vec![0..5]);
    }
}
