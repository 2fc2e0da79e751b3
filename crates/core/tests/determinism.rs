//! Engine-neutrality guarantees: routing evaluations through the
//! `minpower-engine` cache or a different thread count must never change
//! an optimization outcome — only its wall time.
//!
//! The cache can honor this because a hit requires an exact bit-pattern
//! fingerprint match on top of the quantized key, and the Monte-Carlo
//! trials can because each draws from its own `(seed, trial)` PRNG
//! stream and reduces in trial order.

use std::sync::Arc;

use minpower_core::context::DEFAULT_CACHE_CAPACITY;
use minpower_core::{yield_mc, EvalContext, Optimizer, SearchOptions, SizingMethod};

mod golden;

use golden::det_problem as problem;

#[test]
fn cache_on_and_off_produce_identical_results() {
    let p = problem();
    let cached_ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let cached = Optimizer::new(&p)
        .with_engine(cached_ctx.clone())
        .run()
        .unwrap();
    let uncached = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    assert_eq!(cached, uncached);
    // The lookup count (what `evaluations` reports) must also agree: the
    // cache absorbs recomputation, not probes.
    assert_eq!(cached.evaluations, uncached.evaluations);
    let stats = cached_ctx.cache_stats().expect("cache enabled");
    assert_eq!(stats.hits + stats.misses, cached.evaluations as u64);
}

#[test]
fn rerunning_on_a_warm_cache_is_identical() {
    let p = problem();
    let ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let cold = Optimizer::new(&p).with_engine(ctx.clone()).run().unwrap();
    let warm = Optimizer::new(&p).with_engine(ctx.clone()).run().unwrap();
    assert_eq!(cold, warm);
    // The second run must have been served from the cache.
    let stats = ctx.cache_stats().expect("cache enabled");
    assert!(
        stats.hits >= warm.evaluations as u64,
        "only {} hits for {} probes",
        stats.hits,
        warm.evaluations
    );
}

#[test]
fn thread_count_does_not_change_optimization_results() {
    let p = problem();
    let serial = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY)))
        .run()
        .unwrap();
    for threads in [2, 4] {
        let parallel = Optimizer::new(&p)
            .with_engine(Arc::new(EvalContext::new(threads, DEFAULT_CACHE_CAPACITY)))
            .run()
            .unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn engine_choices_commute_with_search_options() {
    // The guarantee holds for non-default searches too (multi-Vt,
    // tolerance margins change the probe inputs, not the contract).
    let p = problem();
    let opts = SearchOptions {
        steps: 10,
        vt_groups: 2,
        ..SearchOptions::default()
    };
    let cached = Optimizer::new(&p)
        .with_options(opts.clone())
        .with_engine(Arc::new(EvalContext::new(4, DEFAULT_CACHE_CAPACITY)))
        .run()
        .unwrap();
    let plain = Optimizer::new(&p)
        .with_options(opts)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    assert_eq!(cached, plain);
}

#[test]
fn incremental_and_full_paths_produce_identical_results() {
    // The incremental evaluation layer (journaled delay repair,
    // dirty-worklist arrival propagation, delta-maintained energy terms)
    // must land on the bits the dense-recompute reference produced when
    // the golden fixture was frozen: same energy, same widths, same
    // critical delay — for both sizing engines, any thread count, cache
    // on or off.
    let fixture = golden::fixture();
    for sizing in [SizingMethod::Budgeted, SizingMethod::Greedy] {
        let case = golden::case(&format!("det/optimize/{sizing:?}"));
        let mut first = None;
        for threads in [1, 4] {
            for capacity in [0, DEFAULT_CACHE_CAPACITY] {
                let ctx = Arc::new(EvalContext::new(threads, capacity));
                let result = case.run(ctx.clone());
                golden::assert_golden(&fixture, &case.key, &result);
                let first = first.get_or_insert_with(|| result.clone());
                assert_eq!(
                    *first, result,
                    "sizing {sizing:?}, threads {threads}, cache {capacity}"
                );
                // The incremental layer must actually have run.
                assert!(
                    ctx.snapshot().incremental_commits > 0,
                    "sizing {sizing:?}: no incremental commits recorded"
                );
            }
        }
    }
}

#[test]
fn size_at_incremental_matches_full_at_fixed_operating_points() {
    golden::check_prefix("det/size_at/");
}

#[test]
fn yield_mc_agrees_across_threads_and_cache_settings() {
    let p = problem();
    let r = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    let reference =
        yield_mc::timing_yield_with(&EvalContext::new(1, 0), &p, &r.design, 0.08, 96, 11);
    for ctx in [
        EvalContext::new(4, 0),
        EvalContext::new(3, DEFAULT_CACHE_CAPACITY),
        EvalContext::new(8, 16),
    ] {
        let other = yield_mc::timing_yield_with(&ctx, &p, &r.design, 0.08, 96, 11);
        assert_eq!(reference, other);
    }
}
