//! SoA levelized kernel wall time: dense STA/energy passes and batched
//! speculative width probes vs the scalar gate-by-gate path, on
//! Rent's-rule synthetic netlists from 100k to 1M gates.
//!
//! Two measurements per size:
//!
//! * **dense pass** — one full `timing_into` + `total_energy` sweep,
//!   [`SoaKernel`](minpower_models::SoaKernel) vs
//!   [`CircuitModel`](minpower_models::CircuitModel);
//! * **width probes** — the sizing sweeps themselves: the kernel's
//!   batched `size_sweep` against the serial gate-by-gate bisection
//!   (transcribed from the budgeted sizer, as in the kernel's unit
//!   tests). The batched path bisects each gate against hoisted
//!   per-lane constants, so the transcendental work (`powf`, `exp`) is
//!   paid once per gate per sweep instead of once per probe — this is
//!   the number the >= 2x acceptance target applies to. The batched
//!   path recomputes delays between sweeps with the kernel's split delay
//!   pass (`delays_into_threaded`), the serial path with the model's
//!   `delays_into`. A third column times the batched sweeps and delay
//!   passes split over one worker per CPU (`size_sweep_threaded`,
//!   `delays_into_threaded`); the row records the CPU count.
//!
//! All paths are bit-identical by contract; every run here asserts it
//! on the actual results (critical delay, widths, the delays after the
//! last sweep). The smoke netlist has 10k gates, three chunks, so the
//! threaded sweep and delay pass really split. End-to-end sizing wall
//! time is the repository benchmark's `rent_100k` workload.
//!
//! Run with:
//!
//! ```text
//! cargo bench --bench soa_kernel            # full 100k..1M measurement,
//!                                           # rewrites BENCH_soa.json
//! cargo bench --bench soa_kernel -- --smoke # small workload, CI: asserts
//!                                           # bit-identity (threaded sweep
//!                                           # and delay pass included) and
//!                                           # that the committed baseline
//!                                           # still meets the 2x target
//! ```

use std::path::Path;
use std::time::Instant;

use minpower_circuits::{synthesize, BenchmarkSpec};
use minpower_core::budget::{assign_max_delays_with_policy, BudgetPolicy};
use minpower_core::json::{self, Value};
use minpower_core::Problem;
use minpower_models::{CircuitModel, Design, SizeScratch, SoaKernel};
use minpower_netlist::{GateKind, Netlist};

/// Fixed mid-range operating point where the width bisections do
/// substantial work (cf. `incremental_sta`).
const VDD: f64 = 2.5;
const VT: f64 = 0.45;
/// Switching activity for the workload problems.
const ACTIVITY: f64 = 0.5;
/// The acceptance floor: batched probes must be at least this much
/// faster than serial ones on every >= 100k-gate netlist.
const TARGET_SPEEDUP: f64 = 2.0;

/// `steps` and the budget derating of the budgeted sizer
/// (`SearchOptions::default().steps`, `core::search::MARGIN`).
const STEPS: usize = 14;
const MARGIN: f64 = 0.97;
/// Fixed-point sweeps to time; two is the default `width_passes`, enough
/// for the load coupling (previous-sweep sink widths) to be exercised.
const SWEEPS: usize = 2;

struct Row {
    gates: usize,
    depth: usize,
    dense_scalar: f64,
    dense_soa: f64,
    probe_serial: f64,
    probe_batched: f64,
    probe_threaded: f64,
}

impl Row {
    fn dense_speedup(&self) -> f64 {
        self.dense_scalar / self.dense_soa.max(1e-12)
    }
    fn probe_speedup(&self) -> f64 {
        self.probe_serial / self.probe_batched.max(1e-12)
    }
}

fn rent_netlist(gates: usize) -> Netlist {
    let spec = BenchmarkSpec::rent(&format!("rent{gates}"), gates);
    synthesize(&spec).expect("rent spec is valid")
}

/// Best-of-`iters` wall time for one dense STA + energy pass.
fn time_dense(f: &mut dyn FnMut() -> f64, iters: usize) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut value = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        value = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, value)
}

/// The serial reference sweep: the budgeted sizer's gate-by-gate width
/// bisection (bitwise the semantics of `SoaKernel::size_sweep`, probe
/// by probe — the kernel's unit tests pin this transcription).
fn serial_sweep(
    model: &CircuitModel,
    design: &mut Design,
    budgets: &[f64],
    last_delays: &[f64],
) -> f64 {
    let tech = model.technology();
    let (w_lo, w_hi) = tech.w_range;
    let netlist = model.netlist();
    let mut max_rel_change = 0.0f64;
    for &id in netlist.topological_order() {
        let i = id.index();
        if netlist.gate(id).kind() == GateKind::Input {
            continue;
        }
        let max_fanin = netlist
            .gate(id)
            .fanin()
            .iter()
            .map(|f| {
                let j = f.index();
                budgets[j].min(last_delays[j] * 1.05)
            })
            .fold(0.0, f64::max);
        let before = design.width[i];
        let target = budgets[i] * MARGIN;
        let mut lo = w_lo;
        let mut hi = w_hi;
        let mut feasible_w = None;
        for _ in 0..STEPS {
            let w = 0.5 * (lo + hi);
            design.width[i] = w;
            if model.gate_delay(design, id, max_fanin) <= target {
                feasible_w = Some(w);
                hi = w;
            } else {
                lo = w;
            }
        }
        design.width[i] = w_lo;
        if model.gate_delay(design, id, max_fanin) <= target {
            feasible_w = Some(w_lo);
        }
        design.width[i] = feasible_w.unwrap_or(w_hi);
        let rel = (design.width[i] - before).abs() / before.max(w_lo);
        max_rel_change = max_rel_change.max(rel);
    }
    max_rel_change
}

/// Times `SWEEPS` coupled sizing sweeps (widths from minimum, budgets
/// from Procedure 1, delays recomputed between sweeps) through either
/// the batched kernel on `Some(threads)` workers or the serial loop
/// (`None`); returns the best wall over `iters` repeats and the final
/// widths and delays for the bit-identity check.
fn time_probes(
    problem: &Problem,
    kernel: &SoaKernel,
    budgets: &[f64],
    batched: Option<usize>,
    iters: usize,
) -> (f64, Vec<f64>, Vec<f64>) {
    let model = problem.model();
    let netlist = model.netlist();
    let w_lo = model.technology().w_range.0;
    let mut best = f64::INFINITY;
    let mut widths = Vec::new();
    let mut delays = Vec::new();
    let mut scratch = SizeScratch::new();
    for _ in 0..iters {
        let mut design = Design::uniform(netlist, VDD, VT, w_lo);
        let mut last_delays = budgets.to_vec();
        let mut sweep_delays = Vec::new();
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            if let Some(threads) = batched {
                kernel.size_sweep_threaded(
                    threads,
                    &mut design,
                    budgets,
                    &last_delays,
                    STEPS,
                    MARGIN,
                    &mut scratch,
                );
                kernel.delays_into_threaded(threads, &design, &mut sweep_delays, &mut scratch);
            } else {
                serial_sweep(model, &mut design, budgets, &last_delays);
                model.delays_into(&design, &mut sweep_delays);
            }
            std::mem::swap(&mut last_delays, &mut sweep_delays);
        }
        best = best.min(t0.elapsed().as_secs_f64());
        widths = design.width;
        delays = last_delays;
    }
    (best, widths, delays)
}

fn measure(gates: usize, iters: usize) -> Row {
    let netlist = rent_netlist(gates);
    let problem = minpower_bench::problem_for(&netlist, ACTIVITY);
    let model = problem.model();
    let kernel = SoaKernel::new(model);
    let depth = kernel.csr().level_count();
    let design = Design::uniform(&netlist, VDD, VT, 4.0);

    let (mut delays, mut arrival) = (Vec::new(), Vec::new());
    let (dense_scalar, crit_scalar) = time_dense(
        &mut || {
            let crit = model.timing_into(&design, &mut delays, &mut arrival);
            let energy = model.total_energy(&design, minpower_bench::FC);
            std::hint::black_box(energy);
            crit
        },
        iters,
    );
    let (dense_soa, crit_soa) = time_dense(
        &mut || {
            let crit = kernel.timing_into(&design, &mut delays, &mut arrival);
            let energy = kernel.total_energy(&design, minpower_bench::FC);
            std::hint::black_box(energy);
            crit
        },
        iters,
    );
    assert_eq!(
        crit_scalar.to_bits(),
        crit_soa.to_bits(),
        "SoA dense pass diverged at {gates} gates"
    );

    let budgets = assign_max_delays_with_policy(
        model.netlist(),
        problem.effective_cycle_time(),
        BudgetPolicy::FanoutWeighted,
    );
    let (probe_serial, w_serial, d_serial) = time_probes(&problem, &kernel, &budgets, None, iters);
    let (probe_batched, w_batched, d_batched) =
        time_probes(&problem, &kernel, &budgets, Some(1), iters);
    let (probe_threaded, w_threaded, d_threaded) =
        time_probes(&problem, &kernel, &budgets, Some(cpus()), iters);
    for (i, (a, b)) in w_batched.iter().zip(w_serial.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "batched sweep diverged from serial at gate {i} of the {gates}-gate netlist"
        );
    }
    for (i, (a, b)) in w_threaded.iter().zip(w_batched.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "threaded sweep ({} chunks) diverged from one worker at gate {i} of the \
             {gates}-gate netlist",
            kernel.sweep_chunks()
        );
    }
    for (threads, d_kernel) in [(1, &d_batched), (cpus(), &d_threaded)] {
        for (i, (a, b)) in d_kernel.iter().zip(d_serial.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "delay pass on {threads} thread(s) ({} chunks) diverged from the model's \
                 serial delays_into at gate {i} of the {gates}-gate netlist",
                kernel.sweep_chunks()
            );
        }
    }

    Row {
        gates,
        depth,
        dense_scalar,
        dense_soa,
        probe_serial,
        probe_batched,
        probe_threaded,
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// In smoke mode the live timings are meaningless, so CI instead checks
/// the *committed* artifact: the full-run baseline must still exist,
/// parse, and meet the acceptance target on its >= 100k-gate rows.
fn check_committed_baseline(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed baseline {} unreadable: {e}", path.display()));
    let doc = json::parse(&text).expect("baseline parses");
    let obj = doc.as_obj("baseline").expect("baseline object");
    let rows = obj
        .req("rows")
        .expect("rows field")
        .as_arr("rows")
        .expect("rows array");
    let mut large = 0;
    for row in rows {
        let row = row.as_obj("row").expect("row object");
        let gates = row
            .req("gates")
            .and_then(|v| v.as_u64("gates"))
            .expect("gates field");
        let speedup = row
            .req("probe_speedup")
            .and_then(|v| v.as_number("probe_speedup"))
            .expect("probe_speedup field");
        if gates >= 100_000 {
            large += 1;
            assert!(
                speedup >= TARGET_SPEEDUP,
                "committed baseline regressed: {speedup:.2}x batched-probe speedup \
                 at {gates} gates (target {TARGET_SPEEDUP}x)"
            );
        }
    }
    assert!(large > 0, "committed baseline has no >= 100k-gate row");
    println!(
        "committed baseline {} ok: {large} row(s) >= 100k gates meet the {TARGET_SPEEDUP}x target",
        path.display()
    );
}

fn main() {
    let smoke = minpower_bench::smoke_mode();
    let (sizes, iters): (Vec<usize>, usize) = if smoke {
        (vec![10_000], 2)
    } else {
        (vec![100_000, 300_000, 1_000_000], 2)
    };

    println!("== SoA levelized kernel vs scalar path (vdd {VDD} V, vt {VT} V) ==");
    println!(
        "{:>9} {:>6} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>12}",
        "gates",
        "depth",
        "dense (s)",
        "soa (s)",
        "speedup",
        "serial (s)",
        "batched (s)",
        "speedup",
        "threaded (s)"
    );
    let mut rows = Vec::new();
    for &gates in &sizes {
        let row = measure(gates, iters);
        println!(
            "{:>9} {:>6} {:>11.6} {:>11.6} {:>7.2}x {:>11.4} {:>11.4} {:>7.2}x {:>12.4}",
            row.gates,
            row.depth,
            row.dense_scalar,
            row.dense_soa,
            row.dense_speedup(),
            row.probe_serial,
            row.probe_batched,
            row.probe_speedup(),
            row.probe_threaded,
        );
        rows.push(row);
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_soa.json");
    if smoke {
        println!("smoke mode: bit-identity asserted; timings not meaningful");
        check_committed_baseline(&path);
        return;
    }

    for row in &rows {
        if row.gates >= 100_000 {
            assert!(
                row.probe_speedup() >= TARGET_SPEEDUP,
                "batched probes only {:.2}x at {} gates (target {TARGET_SPEEDUP}x)",
                row.probe_speedup(),
                row.gates
            );
        }
    }

    let report = Value::Obj(vec![
        (
            "schema".to_string(),
            Value::Str("minpower-bench-soa".to_string()),
        ),
        ("version".to_string(), Value::Int(1)),
        ("cpus".to_string(), Value::Int(cpus() as u64)),
        (
            "operating_point".to_string(),
            Value::Obj(vec![
                ("vdd".to_string(), Value::Float(VDD)),
                ("vt".to_string(), Value::Float(VT)),
                ("fc".to_string(), Value::Float(minpower_bench::FC)),
                ("activity".to_string(), Value::Float(ACTIVITY)),
            ]),
        ),
        ("bit_identical".to_string(), Value::Bool(true)),
        (
            "rows".to_string(),
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("gates".to_string(), Value::Int(r.gates as u64)),
                            ("depth".to_string(), Value::Int(r.depth as u64)),
                            (
                                "dense_scalar_secs".to_string(),
                                Value::Float(r.dense_scalar),
                            ),
                            ("dense_soa_secs".to_string(), Value::Float(r.dense_soa)),
                            ("dense_speedup".to_string(), Value::Float(r.dense_speedup())),
                            (
                                "probe_serial_secs".to_string(),
                                Value::Float(r.probe_serial),
                            ),
                            (
                                "probe_batched_secs".to_string(),
                                Value::Float(r.probe_batched),
                            ),
                            ("probe_speedup".to_string(), Value::Float(r.probe_speedup())),
                            (
                                "probe_threaded_secs".to_string(),
                                Value::Float(r.probe_threaded),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, format!("{}\n", report.render())).expect("write report");
    println!("wrote {}", path.display());
}
