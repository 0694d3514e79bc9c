//! Pool semantics under real stealing: result ordering, panic propagation,
//! and schedule-independence of every combining path.
//!
//! These tests run on multi-worker pools, so the schedules they exercise
//! are genuinely nondeterministic; the assertions pin down that *results*
//! are not.

use proptest::prelude::*;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

/// Irregular recursive join tree (uneven splits force stealing).
fn join_tree_sum(xs: &[u64]) -> u64 {
    if xs.len() <= 3 {
        return xs.iter().map(|&x| x % 1009).sum();
    }
    let mid = xs.len() / 3 + 1;
    let (a, b) = xs.split_at(mid);
    let (l, r) = rayon::join(|| join_tree_sum(a), || join_tree_sum(b));
    l + r
}

/// Unbalanced busy work so fast leaves finish long before slow ones —
/// shakes out any ordering assumption that only holds sequentially.
fn spin(units: u64) -> u64 {
    let mut acc = units;
    for i in 0..units * 37 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn join_tree_identical_across_pool_sizes(
        xs in proptest::collection::vec(any::<u64>(), 0..800)
    ) {
        let want: u64 = xs.iter().map(|&x| x % 1009).sum();
        for threads in [1, 4, 8] {
            let got = pool(threads).install(|| join_tree_sum(&xs));
            prop_assert_eq!(got, want, "mismatch at {} threads", threads);
        }
    }

    #[test]
    fn collect_preserves_order_under_stealing(
        xs in proptest::collection::vec(0u64..64, 0..1200)
    ) {
        // Per-item work varies with the value, so an 8-worker pool finishes
        // leaves in scrambled real-time order; collect must still place
        // every result at its input index.
        let got: Vec<u64> = pool(8).install(|| {
            xs.par_iter().with_min_len(4).map(|&x| spin(x) ^ x).collect()
        });
        let want: Vec<u64> = xs.iter().map(|&x| spin(x) ^ x).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn float_sum_bit_identical_across_pool_sizes(
        xs in proptest::collection::vec(-1.0f32..1.0, 0..3000)
    ) {
        // The split tree depends only on length, so even a non-associative
        // f32 sum combines in the same fixed order on 1 and 8 workers.
        let one = pool(1).install(|| xs.par_iter().map(|&x| x).sum::<f32>());
        let eight = pool(8).install(|| xs.par_iter().map(|&x| x).sum::<f32>());
        prop_assert_eq!(one.to_bits(), eight.to_bits());
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
        .unwrap_or("<non-string panic>")
}

#[test]
fn join_propagates_panic_from_a_and_still_runs_b() {
    let b_ran = AtomicBool::new(false);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| {
            rayon::join(
                || panic!("panic-from-a"),
                || b_ran.store(true, Ordering::SeqCst),
            )
        })
    }));
    let payload = result.expect_err("panic must propagate");
    assert_eq!(panic_message(&*payload), "panic-from-a");
    assert!(
        b_ran.load(Ordering::SeqCst),
        "b must complete before rethrow"
    );
}

#[test]
fn join_propagates_panic_from_b() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| rayon::join(|| 1 + 1, || panic!("panic-from-b")))
    }));
    let payload = result.expect_err("panic must propagate");
    assert_eq!(panic_message(&*payload), "panic-from-b");
}

#[test]
fn join_double_panic_prefers_a() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| {
            rayon::join::<_, _, (), ()>(|| panic!("panic-from-a"), || panic!("panic-from-b"))
        })
    }));
    let payload = result.expect_err("panic must propagate");
    assert_eq!(panic_message(&*payload), "panic-from-a");
}

#[test]
fn nested_join_panic_unwinds_through_levels() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool(8).install(|| rayon::join(|| rayon::join(|| (), || panic!("deep-panic")), || spin(50)))
    }));
    let payload = result.expect_err("panic must propagate");
    assert_eq!(panic_message(&*payload), "deep-panic");
}

#[test]
fn pool_survives_panics() {
    // A pool that has seen panics keeps scheduling correctly afterwards.
    let p = pool(4);
    for round in 0..8 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.install(|| rayon::join(|| panic!("round"), || spin(10)))
        }));
        assert!(result.is_err());
        let xs: Vec<u64> = (0..500).collect();
        let sum = p.install(|| xs.par_iter().sum::<u64>());
        assert_eq!(sum, 500 * 499 / 2, "round {round}");
    }
}

#[test]
fn install_returns_from_deep_fork_join() {
    // Saturating fan-out: more leaves than workers, every worker forced to
    // steal, with the result funneled back through install's latch.
    let xs: Vec<u64> = (0..40_000).map(|i| i * 7).collect();
    let want: u64 = xs.iter().map(|&x| x % 1009).sum();
    for _ in 0..5 {
        assert_eq!(pool(8).install(|| join_tree_sum(&xs)), want);
    }
}

#[test]
fn reduce_matches_sequential_fold() {
    let xs: Vec<u64> = (0..10_000).map(|i| i * 3 + 1).collect();
    let want: u64 = xs.iter().sum();
    let got = pool(8).install(|| xs.par_iter().map(|&x| x).reduce(|| 0u64, |a, b| a + b));
    assert_eq!(got, want);
    // Empty input returns the identity.
    let empty: Vec<u64> = Vec::new();
    assert_eq!(
        empty.par_iter().map(|&x| x).reduce(|| 7u64, |a, b| a + b),
        7
    );
}

#[test]
fn fold_reduce_float_bits_identical_across_thread_counts() {
    // The fold/reduce tree must be a pure function of the input length:
    // non-associative f32 accumulation gives the same bits at 1 and 8
    // threads, under real stealing schedules.
    let xs: Vec<f32> = (0..5_000)
        .map(|i| ((i * 37) % 113) as f32 * 0.137)
        .collect();
    let run = |threads: usize| -> u32 {
        pool(threads)
            .install(|| {
                xs.par_iter()
                    .fold(|| 0.0f32, |acc, &x| acc + x * x)
                    .reduce(|| 0.0f32, |a, b| a + b)
            })
            .to_bits()
    };
    let one = run(1);
    for _ in 0..10 {
        assert_eq!(run(8), one);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fold_reduce_counts_every_item(n in 0usize..3_000, min_len in 1usize..300) {
        let xs: Vec<usize> = (0..n).collect();
        let count = xs
            .par_iter()
            .with_min_len(min_len)
            .fold(|| 0usize, |acc, _| acc + 1)
            .reduce(|| 0usize, |a, b| a + b);
        prop_assert_eq!(count, n);
    }
}
