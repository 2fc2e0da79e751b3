//! `paper_suite`: a cold Procedure 1 + 2 optimization (default search
//! options) of each of the nine paper-suite circuits at activities 0.1
//! and 0.5 — the traffic of the paper's Tables 1 and 2.
//!
//! Each optimization runs serially on a fresh single-thread context with
//! the default probe cache, so the time goes to the nested search, the
//! probe cache and incremental evaluation; netlists are small, so
//! netlist and model build barely show.

use std::sync::Arc;
use std::time::Instant;

use minpower_circuits::paper_suite;
use minpower_core::context::DEFAULT_CACHE_CAPACITY;
use minpower_core::{EvalContext, Optimizer, Problem};
use minpower_device::Technology;
use minpower_engine::rng::SplitMix64;
use minpower_engine::StatsSnapshot;
use minpower_models::CircuitModel;

use crate::check::{self, median, percentile, Digest, Phase};
use crate::trace::Tracer;
use crate::{Args, Run};

/// The tables' clock target and activities.
const FC: f64 = 300.0e6;
const ACTIVITIES: [f64; 2] = [0.1, 0.5];
/// Signal probability of the primary inputs.
const PROBABILITY: f64 = 0.5;
/// Set-up repetitions, spread through the run; `setup_s` is their
/// median.
const SETUPS: usize = 31;

struct Row {
    name: String,
    activity: f64,
    problem: Problem,
}

fn build_rows(tracer: &Tracer, op: u64, parent: u64, smoke: bool) -> Vec<Row> {
    let netlists = tracer.span("circuits.synthesize", op, parent, |_| {
        let mut suite = paper_suite();
        if smoke {
            suite.truncate(3);
        }
        suite
    });
    tracer.span("models.build", op, parent, |_| {
        netlists
            .iter()
            .flat_map(|netlist| {
                ACTIVITIES.map(|activity| Row {
                    name: netlist.name().to_string(),
                    activity,
                    problem: Problem::new(
                        CircuitModel::with_uniform_activity(
                            netlist,
                            Technology::dac97(),
                            PROBABILITY,
                            activity,
                        ),
                        FC,
                    ),
                })
            })
            .collect()
    })
}

/// The seed's visiting order of the rows (Fisher–Yates).
fn row_order(seed: u64, rows: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..rows).rev() {
        order.swap(i, rng.range_usize(i + 1));
    }
    order
}

pub fn run(args: &Args, tracer: &Tracer) -> Run {
    let mut run = Run::default();
    let off = Tracer::new(false);

    let mut phase = Phase::new(args.seconds, SETUPS);
    let build = |op: u64| {
        tracer.span("bench.setup", op, 0, |id| {
            build_rows(tracer, op, id, args.smoke)
        })
    };
    let mut rows = phase.setup(build);

    let order = row_order(args.seed, rows.len());
    // Per row: untraced wall times, traced wall times, first result's
    // digest and energy.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut firsts: Vec<Option<(u64, f64)>> = vec![None; rows.len()];
    let mut engine = StatsSnapshot::default();
    let min_passes = if args.trace { 2 } else { 1 };

    let mut pass = 0u64;
    'measure: loop {
        // The traced run alternates untraced and traced passes; their
        // gap is the tracing overhead.
        let traced = args.trace && pass % 2 == 1;
        let t = if traced { tracer } else { &off };
        for &r in &order {
            if pass >= min_passes && phase.over() {
                break 'measure;
            }
            if phase.setup_due() {
                rows = phase.setup(build);
            }
            let row = &rows[r];
            let op = pass * rows.len() as u64 + r as u64;
            let ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
            run.attempted += 1;
            let (result, elapsed) = t.span("bench.op", op, 0, |root| {
                let t0 = Instant::now();
                let result = t.span("core.search.optimize", op, root, |_| {
                    Optimizer::new(&row.problem).with_engine(ctx.clone()).run()
                });
                let elapsed = t0.elapsed().as_secs_f64();
                let checked = result.map(|r| {
                    let verdict = t.span("timing.sta_check", op, root, |_| {
                        check::recheck(&row.problem, &r)
                    });
                    (r, verdict)
                });
                (checked, elapsed)
            });
            if traced {
                traced_times[r].push(elapsed);
                // Engine counts of one whole pass (the first traced one).
                if pass == 1 {
                    engine.merge(&ctx.snapshot());
                }
            } else {
                times[r].push(elapsed);
            }
            let label = format!("{} @ activity {}", row.name, row.activity);
            let (result, verdict) = match result {
                Ok(ok) => ok,
                Err(e) => {
                    run.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            if let Err(e) = verdict {
                run.fail(format!("{label}: {e}"));
                continue;
            }
            if !result.feasible {
                run.fail(format!("{label}: optimizer returned an infeasible design"));
                continue;
            }
            let mut digest = Digest::new();
            digest.result(&result);
            match firsts[r] {
                None => firsts[r] = Some((digest.value(), result.energy.total())),
                Some((first, _)) if first != digest.value() => {
                    run.fail(format!("{label}: result differs from this run's first"));
                }
                Some(_) => {}
            }
        }
        pass += 1;
    }
    while phase.setup_due() {
        rows = phase.setup(build);
    }
    let (setups, setup_s) = phase.setup_median();
    run.setup_s = setup_s;
    let mut digest = Digest::new();
    for (r, first) in firsts.iter().enumerate() {
        let (d, energy) = first.unwrap_or((0, 0.0));
        digest.u64(r as u64);
        digest.u64(d);
        run.energy_j += energy;
    }
    run.digest = digest.value();

    // A pass visits every row once: its time is the sum of the rows'
    // median times, robust to how the deadline cut the last pass.
    let row_medians: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let samples: usize = times.iter().map(Vec::len).sum();
    run.wall_s = row_medians.iter().sum();
    run.op_p50_ms = 1e3 * median(&row_medians);
    run.op_p99_ms = 1e3 * percentile(&row_medians, 99.0);
    // Optimizations per second of a median pass, not of the wall clock,
    // so one slow stretch of the run does not move it.
    run.ops_per_s = row_medians.len() as f64 / run.wall_s;
    run.report = vec![
        ("optimize_p50_s", median(&row_medians), "s", samples),
        ("wall_s", run.wall_s, "s", samples),
        ("energy_j", run.energy_j, "J", rows.len()),
        ("setup_s", run.setup_s, "s", setups),
    ];

    if args.trace {
        let self_times = tracer.self_times();
        let spans = |name: &str| self_times.get(name).cloned().unwrap_or_default();
        // Self time per pass: the sum over rows of each row's median.
        let per_pass = |name: &str| {
            let mut by_row: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
            for (op, secs) in spans(name) {
                by_row[op as usize % rows.len()].push(secs);
            }
            by_row
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .sum::<f64>()
        };
        let per_setup =
            |name: &str| spans(name).iter().map(|(_, s)| s).sum::<f64>() / SETUPS as f64;
        let traced_medians: f64 = traced_times
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .sum();
        let layers = &mut run.layers;
        layers.insert("circuits.synthesize_s", per_setup("circuits.synthesize"));
        layers.insert("models.build_s", per_setup("models.build"));
        layers.insert("core.search.optimize_s", per_pass("core.search.optimize"));
        layers.insert("timing.sta_check_s", per_pass("timing.sta_check"));
        layers.insert("engine.circuit_evals", engine.circuit_evals as f64);
        layers.insert("engine.sta_calls", engine.sta_calls as f64);
        layers.insert("engine.sta_fallbacks", engine.sta_fallbacks as f64);
        let lookups = engine.cache_hits + engine.cache_misses;
        layers.insert(
            "engine.cache_hit_ratio",
            engine.cache_hits as f64 / lookups.max(1) as f64,
        );
        layers.insert(
            "engine.incremental_gates_per_commit",
            engine.incremental_gates as f64 / engine.incremental_commits.max(1) as f64,
        );
        layers.insert("trace.overhead_frac", traced_medians / run.wall_s - 1.0);
    }

    run.meta = vec![
        ("fc".to_string(), minpower_core::json::Value::Float(FC)),
        (
            "rows".to_string(),
            minpower_core::json::Value::Int(rows.len() as u64),
        ),
        ("passes".to_string(), minpower_core::json::Value::Int(pass)),
        (
            "optimizations".to_string(),
            minpower_core::json::Value::Int(run.attempted),
        ),
    ];
    run
}
