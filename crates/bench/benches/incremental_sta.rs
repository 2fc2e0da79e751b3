//! Width-sizing wall time on the incremental evaluation layer, across
//! the benchmark suite.
//!
//! The sizing inner loops repair only the fanout cone of each changed
//! gate and maintain the energy breakdown as a running ledger, instead
//! of paying a full O(N) delay and arrival recompute per probe.
//!
//! Run with:
//!
//! ```text
//! cargo bench --bench incremental_sta            # full measurement
//! cargo bench --bench incremental_sta -- --smoke # 1 iteration, CI
//! ```
//!
//! Reports, per circuit and per sizing engine, the sizing wall time;
//! then a gates-touched histogram from a width-edit storm on the largest
//! suite circuit, showing how small the repaired cones actually are; and
//! finally the engine telemetry accumulated by the sizing runs.

use std::sync::Arc;
use std::time::Instant;

use minpower_bench::{circuit_by_name, problem_for};
use minpower_core::search::size_at_with;
use minpower_core::{EvalContext, Problem, SearchOptions, SizingMethod};
use minpower_engine::SplitMix64;
use minpower_models::Design;
use minpower_netlist::GateId;
use minpower_timing::IncrementalSta;

/// Suite circuits for the timing comparison, smallest to largest.
const CIRCUITS: &[&str] = &["s27", "s298", "s526", "s713"];
/// Switching activity for the workload problems.
const ACTIVITY: f64 = 0.5;
/// Fixed operating point: mid-range supply and threshold, where both
/// sizing engines do substantial work.
const VDD: f64 = 2.5;
const VT: f64 = 0.45;

/// Times one sizing call on a single-thread, cache-off context (so
/// every probe is really computed), returning the best wall over `iters`
/// repeats. The context's stats accumulate across calls, for the closing
/// report.
fn time_sizing(
    problem: &Problem,
    sizing: SizingMethod,
    iters: usize,
    ctx: &Arc<EvalContext>,
) -> f64 {
    let opts = SearchOptions {
        sizing,
        ..SearchOptions::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let result =
            size_at_with(ctx.clone(), problem, VDD, VT, &opts).expect("suite circuit sizes");
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(result);
    }
    best
}

/// Log2 histogram bucket for a gates-touched count.
fn bucket(touched: u32) -> usize {
    if touched == 0 {
        0
    } else {
        (32 - touched.leading_zeros() as usize).min(BUCKETS.len() - 1)
    }
}

const BUCKETS: &[&str] = &[
    "0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128-255", "256+",
];

/// Width-edit storm on the largest suite circuit: random gates get
/// random widths, each edit committed through [`IncrementalSta`], and
/// the per-commit gates-touched counts are binned. The punchline is
/// the mean cone size against the full gate count — the factor a dense
/// recompute wastes.
fn gates_touched_histogram(probes: usize) {
    let netlist = circuit_by_name("s713");
    let problem = problem_for(&netlist, ACTIVITY);
    let model = problem.model();
    let (w_lo, w_hi) = model.technology().w_range;
    let n = netlist.gate_count();
    let mut design = Design::uniform(&netlist, VDD, VT, w_lo);
    let mut delays = model.delays(&design);
    let mut sta = IncrementalSta::forward_only(&netlist, &delays, problem.effective_cycle_time());

    let mut rng = SplitMix64::new(0xD1CE);
    let mut bins = vec![0u64; BUCKETS.len()];
    let mut total = 0u64;
    let mut fallbacks = 0u64;
    let mut staged: Vec<u32> = Vec::new();
    for _ in 0..probes {
        let g = (rng.next_u64() % n as u64) as usize;
        design.width[g] = w_lo + rng.next_f64() * (w_hi - w_lo);
        staged.clear();
        model.update_delays_after_width_change_with(
            &design,
            &mut delays,
            GateId::new(g),
            |i, _old| staged.push(i as u32),
        );
        for &i in &staged {
            sta.set_delay(GateId::new(i as usize), delays[i as usize]);
        }
        let commit = sta.commit();
        total += u64::from(commit.gates_touched);
        if commit.fallback {
            fallbacks += 1;
        }
        bins[bucket(commit.gates_touched)] += 1;
    }

    println!("gates touched per probe (s713, {n} gates, {probes} random width edits):");
    println!("  {:>8}  {:>8}  {:>6}", "touched", "probes", "share");
    for (label, &count) in BUCKETS.iter().zip(&bins) {
        if count > 0 {
            println!(
                "  {:>8}  {:>8}  {:>5.1}%",
                label,
                count,
                100.0 * count as f64 / probes as f64
            );
        }
    }
    println!(
        "  mean {:.1} gates/probe = {:.1}% of a dense pass; {} dense fallbacks",
        total as f64 / probes as f64,
        100.0 * total as f64 / (probes as f64 * n as f64),
        fallbacks,
    );
}

fn main() {
    let smoke = minpower_bench::smoke_mode();
    let iters = if smoke { 1 } else { 3 };
    let probes = if smoke { 200 } else { 20_000 };

    println!("== incremental width sizing (vdd {VDD} V, vt {VT} V) ==");
    println!("{:<8} {:<10} {:>12}", "circuit", "sizing", "wall (s)");
    // One shared context accumulates telemetry across the whole suite
    // (threads 1, cache off — identical work per run).
    let ctx = Arc::new(EvalContext::new(1, 0));
    let mut total = 0.0;
    for &name in CIRCUITS {
        let netlist = circuit_by_name(name);
        let problem = problem_for(&netlist, ACTIVITY);
        for sizing in [SizingMethod::Budgeted, SizingMethod::Greedy] {
            let wall = time_sizing(&problem, sizing, iters, &ctx);
            total += wall;
            println!("{:<8} {:<10} {:>12.6}", name, format!("{sizing:?}"), wall);
        }
    }
    println!(
        "suite width-sizing phase: {total:.4} s{}",
        if smoke {
            " (smoke mode: timings not meaningful)"
        } else {
            ""
        }
    );
    println!();
    gates_touched_histogram(probes);
    println!();
    println!("{}", ctx.snapshot().render());
}
