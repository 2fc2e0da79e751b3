//! `rent_100k`: a seeded Rent's-rule netlist of 100k gates sized by
//! `size_at_with` at a fixed list of `(Vdd, Vt)` grid points — the
//! design-space grid a large-design user runs.
//!
//! Probes are few but the working set is large, so the time goes to
//! set-up (netlist and model build), Procedure 1 budgets, width sweeps
//! and critical-path repair. The context has one thread per core and no
//! probe cache, and there is no nested search: this workload bypasses
//! both.

use std::sync::Arc;
use std::time::Instant;

use minpower_circuits::{synthesize, BenchmarkSpec};
use minpower_core::budget::{assign_max_delays_with_policy, BudgetPolicy};
use minpower_core::json::Value;
use minpower_core::search::size_at_with;
use minpower_core::{EvalContext, OptimizationResult, Problem, SearchOptions};
use minpower_device::Technology;
use minpower_models::{CircuitModel, Design, SizeScratch, SoaKernel};

use crate::check::{self, median, percentile, Digest, Phase};
use crate::trace::Tracer;
use crate::{Args, Run};

const GATES: usize = 100_000;
const SMOKE_GATES: usize = 10_000;
const ACTIVITY: f64 = 0.5;
/// Signal probability of the primary inputs.
const PROBABILITY: f64 = 0.5;
/// The grid: `(Vdd, Vt, meant to be feasible)`. The first point is the
/// anchor of the clock-target rule and must be feasible; the second is
/// the mid-range point earlier large-netlist benches timed, whose
/// feasibility is recorded but not required.
const GRID: [(f64, f64, bool); 2] = [(3.3, 0.3, true), (2.5, 0.45, false)];
/// The clock target is this share of the frequency the uniform
/// maximum-width design reaches at the anchor point.
const FC_SHARE: f64 = 0.75;
/// Set-up repetitions, spread through the run; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// The budgeted sizer's bisection steps, budget derating and sweep
/// count (`SearchOptions::default()`, `core::search::MARGIN`), for the
/// traced run's stand-alone layer calls.
const STEPS: usize = 14;
const MARGIN: f64 = 0.97;
const SWEEPS: usize = 2;

/// The clock target for a generated netlist: [`FC_SHARE`] of the
/// frequency its uniform maximum-width design reaches at the grid's
/// anchor point. A rule over the netlist, not a per-seed constant, so
/// the anchor is feasible on every seed.
fn derive_fc(model: &CircuitModel) -> f64 {
    let (vdd, vt, _) = GRID[0];
    let design = Design::uniform(model.netlist(), vdd, vt, model.technology().w_range.1);
    let (mut delays, mut arrival) = (Vec::new(), Vec::new());
    FC_SHARE / model.timing_into(&design, &mut delays, &mut arrival)
}

fn setup(args: &Args, tracer: &Tracer, op: u64) -> Problem {
    tracer.span("bench.setup", op, 0, |root| {
        let gates = if args.smoke { SMOKE_GATES } else { GATES };
        let mut spec = BenchmarkSpec::rent(&format!("rent{gates}"), gates);
        spec.seed = args.seed;
        let netlist = tracer.span("circuits.synthesize", op, root, |_| {
            synthesize(&spec).expect("Rent specs are valid")
        });
        let model = tracer.span("models.build", op, root, |_| {
            CircuitModel::with_uniform_activity(
                &netlist,
                Technology::dac97(),
                PROBABILITY,
                ACTIVITY,
            )
        });
        let fc = derive_fc(&model);
        Problem::new(model, fc)
    })
}

/// Procedure 2's inner stage taken apart: budgets, kernel build, two
/// coupled width sweeps from minimum width and a dense timing + energy
/// pass, each called on its own inside a span — the layers `size_at`
/// runs, timed at this netlist size.
fn trace_layers(tracer: &Tracer, op: u64, root: u64, problem: &Problem, vdd: f64, vt: f64) {
    let model = problem.model();
    let budgets = tracer.span("core.budget.assign", op, root, |_| {
        assign_max_delays_with_policy(
            model.netlist(),
            problem.effective_cycle_time(),
            BudgetPolicy::FanoutWeighted,
        )
    });
    let kernel = tracer.span("models.soa.build", op, root, |_| SoaKernel::new(model));
    let design = tracer.span("models.soa.sweep", op, root, |_| {
        let mut design = Design::uniform(model.netlist(), vdd, vt, model.technology().w_range.0);
        let (mut last, mut next) = (budgets.clone(), Vec::new());
        let mut scratch = SizeScratch::new();
        for _ in 0..SWEEPS {
            kernel.size_sweep(&mut design, &budgets, &last, STEPS, MARGIN, &mut scratch);
            kernel.delays_into(&design, &mut next);
            std::mem::swap(&mut last, &mut next);
        }
        design
    });
    tracer.span("models.soa.dense_pass", op, root, |_| {
        let (mut delays, mut arrival) = (Vec::new(), Vec::new());
        let critical = kernel.timing_into(&design, &mut delays, &mut arrival);
        std::hint::black_box((critical, kernel.total_energy(&design, problem.fc())));
    });
}

pub fn run(args: &Args, tracer: &Tracer) -> Run {
    let mut run = Run::default();
    let off = Tracer::new(false);

    let mut phase = Phase::new(args.seconds, SETUPS);
    let build = |op: u64| setup(args, tracer, op);
    let mut problem = phase.setup(build);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Arc::new(EvalContext::new(threads, 0));
    let options = SearchOptions::default();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); GRID.len()];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); GRID.len()];
    let mut firsts: Vec<Option<(u64, OptimizationResult)>> = vec![None; GRID.len()];

    let mut pass = 0u64;
    'measure: loop {
        for (i, &(vdd, vt, expect_feasible)) in GRID.iter().enumerate() {
            if pass >= 1 && phase.over() {
                break 'measure;
            }
            if phase.setup_due() {
                // Drop the previous build first, so peak memory holds one.
                drop(problem);
                problem = phase.setup(build);
            }
            let op = pass * GRID.len() as u64 + i as u64;
            let size = |t: &Tracer, root: u64| {
                let t0 = Instant::now();
                let result = t.span("core.search.size_at", op, root, |_| {
                    size_at_with(ctx.clone(), &problem, vdd, vt, &options)
                });
                (result, t0.elapsed().as_secs_f64())
            };
            let (result, elapsed) = size(&off, 0);
            times[i].push(elapsed);
            // The traced run then calls each layer on its own and sizes
            // the point again, all inside spans; the gap between the two
            // `size_at` times is the tracing overhead.
            let t = if args.trace { tracer } else { &off };
            let verdict = t.span("bench.op", op, 0, |root| {
                if args.trace {
                    trace_layers(tracer, op, root, &problem, vdd, vt);
                    traced_times[i].push(size(tracer, root).1);
                }
                result.as_ref().ok().map(|r| {
                    t.span("timing.sta_check", op, root, |_| {
                        check::recheck(&problem, r)
                    })
                })
            });
            run.attempted += 1;
            let label = format!("grid point ({vdd} V, {vt} V)");
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    run.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            if let Some(Err(e)) = verdict {
                run.fail(format!("{label}: {e}"));
                continue;
            }
            if expect_feasible && !result.feasible {
                run.fail(format!("{label}: meant to be feasible, sized infeasible"));
                continue;
            }
            let mut digest = Digest::new();
            digest.result(&result);
            match &firsts[i] {
                None => firsts[i] = Some((digest.value(), result)),
                Some((first, _)) if *first != digest.value() => {
                    run.fail(format!("{label}: result differs from this run's first"));
                }
                Some(_) => {}
            }
        }
        pass += 1;
    }
    while phase.setup_due() {
        drop(problem);
        problem = phase.setup(build);
    }
    let (setups, setup_s) = phase.setup_median();
    run.setup_s = setup_s;

    let mut digest = Digest::new();
    let mut grid_meta = Vec::new();
    for (i, &(vdd, vt, expect_feasible)) in GRID.iter().enumerate() {
        digest.u64(i as u64);
        let mut point = vec![
            ("vdd".to_string(), Value::Float(vdd)),
            ("vt".to_string(), Value::Float(vt)),
            ("fc".to_string(), Value::Float(problem.fc())),
            ("meant_feasible".to_string(), Value::Bool(expect_feasible)),
        ];
        if let Some((d, result)) = &firsts[i] {
            digest.u64(*d);
            run.energy_j += result.energy.total();
            point.push(("feasible".to_string(), Value::Bool(result.feasible)));
            point.push(("energy_j".to_string(), Value::Float(result.energy.total())));
            point.push((
                "critical_delay_s".to_string(),
                Value::Float(result.critical_delay),
            ));
        }
        point.push(("size_p50_s".to_string(), Value::Float(median(&times[i]))));
        point.push((
            "times_s".to_string(),
            Value::Arr(times[i].iter().map(|&t| Value::Float(t)).collect()),
        ));
        grid_meta.push(Value::Obj(point));
    }
    run.digest = digest.value();

    let point_medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let samples: usize = times.iter().map(Vec::len).sum();
    run.wall_s = point_medians.iter().sum();
    run.op_p50_ms = 1e3 * median(&point_medians);
    run.op_p99_ms = 1e3 * percentile(&point_medians, 99.0);
    // Grid points per second of a median pass: a run holds only a few
    // sizings, so a count over the wall clock would move with where the
    // deadline cut the last pass.
    run.ops_per_s = GRID.len() as f64 / run.wall_s;
    run.report = vec![
        ("size_p50_s", median(&point_medians), "s", samples),
        ("wall_s", run.wall_s, "s", samples),
        ("energy_j", run.energy_j, "J", GRID.len()),
        ("setup_s", run.setup_s, "s", setups),
    ];

    if args.trace {
        let self_times = tracer.self_times();
        // Self time per grid pass: the sum over points of each point's
        // median; set-up layers per set-up.
        let per_pass = |name: &str| {
            let mut by_point: Vec<Vec<f64>> = vec![Vec::new(); GRID.len()];
            for &(op, secs) in self_times.get(name).map_or(&[][..], Vec::as_slice) {
                by_point[op as usize % GRID.len()].push(secs);
            }
            by_point
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .sum::<f64>()
        };
        let per_setup = |name: &str| {
            self_times
                .get(name)
                .map_or(0.0, |v| v.iter().map(|(_, s)| s).sum::<f64>())
                / SETUPS as f64
        };
        let traced: f64 = traced_times.iter().map(|t| median(t)).sum();
        let layers = &mut run.layers;
        layers.insert("circuits.synthesize_s", per_setup("circuits.synthesize"));
        layers.insert("models.build_s", per_setup("models.build"));
        for (span, metric) in [
            ("core.budget.assign", "core.budget.assign_s"),
            ("models.soa.build", "models.soa.build_s"),
            ("models.soa.sweep", "models.soa.sweep_s"),
            ("models.soa.dense_pass", "models.soa.dense_pass_s"),
            ("core.search.size_at", "core.search.size_at_s"),
            ("timing.sta_check", "timing.sta_check_s"),
        ] {
            layers.insert(metric, per_pass(span));
        }
        layers.insert("trace.overhead_frac", traced / run.wall_s - 1.0);
    }

    run.meta = vec![
        (
            "gates".to_string(),
            Value::Int(problem.model().netlist().logic_gate_count() as u64),
        ),
        ("fc".to_string(), Value::Float(problem.fc())),
        ("fc_share".to_string(), Value::Float(FC_SHARE)),
        ("threads".to_string(), Value::Int(threads as u64)),
        ("passes".to_string(), Value::Int(pass)),
        ("grid".to_string(), Value::Arr(grid_meta)),
    ];
    run
}
