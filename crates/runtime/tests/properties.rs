//! Property-based tests for the runtime's deterministic partitioning and
//! executor primitives.

use dhmm_runtime::{split_range, split_rows, Executor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_rows_covers_every_row_exactly_once(n in 0usize..500, workers in 0usize..64) {
        let ranges = split_rows(n, workers);
        let mut seen = vec![0usize; n];
        for range in &ranges {
            for i in range.clone() {
                prop_assert!(i < n, "index {i} out of bounds");
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "coverage {seen:?}");
    }

    #[test]
    fn split_rows_chunks_are_balanced_within_one(n in 1usize..500, workers in 1usize..64) {
        let ranges = split_rows(n, workers);
        prop_assert_eq!(ranges.len(), workers.min(n));
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        prop_assert!(min >= 1, "empty chunk in {ranges:?}");
        prop_assert!(max - min <= 1, "unbalanced chunks {lens:?}");
    }

    #[test]
    fn split_rows_is_contiguous_and_ascending(n in 1usize..500, workers in 1usize..64) {
        let ranges = split_rows(n, workers);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].end, n);
        for pair in ranges.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn split_range_is_the_partition_range(n in 0usize..500, workers in 0usize..64) {
        // The executor finds its bands with `split_range` and never builds
        // the partition, so the two must agree range for range.
        let ranges = split_rows(n, workers);
        prop_assert_eq!(Executor::from_workers(workers).num_ranges(n), ranges.len());
        for (t, range) in ranges.iter().enumerate() {
            prop_assert_eq!(split_range(n, workers, t), range.clone(), "range {}", t);
        }
    }

    #[test]
    fn map_ranges_reduction_is_thread_count_invariant(
        values in proptest::collection::vec(-1e3..1e3f64, 1..200),
        workers in 2usize..16,
    ) {
        // Fixed-order reduction over per-range partial sums: the reduction
        // tree is a function of the partition alone, so any worker count
        // reproduces the serial result bit for bit.
        let reduce = |exec: Executor| -> f64 {
            exec.map_ranges(values.len(), |_, r| values[r].iter().sum::<f64>())
                .into_iter()
                .sum()
        };
        let serial = reduce(Executor::serial());
        // Same partition, dispatched through the pool.
        let one_range_per_row = reduce(Executor::from_workers(values.len().max(2)));
        let banded = Executor::from_workers(workers);
        let banded_sum: f64 = banded
            .map_ranges(values.len(), |_, r| values[r].iter().sum::<f64>())
            .into_iter()
            .sum();
        // The per-row partition sums rows individually; summing them in
        // fixed order equals the serial left-to-right sum exactly.
        prop_assert_eq!(serial.to_bits(), one_range_per_row.to_bits());
        // A coarser partition changes the reduction tree (allowed); it must
        // still agree with itself across repeated dispatches bit for bit.
        let banded_again: f64 = banded
            .map_ranges(values.len(), |_, r| values[r].iter().sum::<f64>())
            .into_iter()
            .sum();
        prop_assert_eq!(banded_sum.to_bits(), banded_again.to_bits());
    }
}
