//! Golden sizing fixtures: the frozen, bit-exact outcomes of the sizing
//! stage on every case the equivalence suites cover.
//!
//! Each row of `tests/fixtures/sizing_golden.txt` holds, for one case,
//! the exact bits of `feasible`, the critical delay, the static and
//! dynamic energy and `V_dd`, the evaluation count, and an FNV-1a digest
//! of the width and threshold bits. The rows were first written while the
//! sizer still carried a scalar twin of the batched SoA width sweep and a
//! dense twin of each incremental repair loop, and only after all four
//! combinations had agreed bit for bit on the row. The rows now stand in
//! for those deleted reference paths: a change that moves any bit of a
//! sizing result fails here.
//!
//! Regenerate only after a deliberate change of results:
//!
//! ```text
//! cargo test -p minpower-core --test soa_equivalence -- --ignored regenerate_golden_fixtures
//! ```

#![allow(dead_code)] // each test binary uses a different subset

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use minpower_circuits::{circuit, specs, synthesize, BenchmarkSpec};
use minpower_core::search::size_at_with;
use minpower_core::{
    EvalContext, OptimizationResult, Optimizer, Problem, SearchOptions, SizingMethod,
};
use minpower_device::Technology;
use minpower_engine::{fnv1a_words, SplitMix64};
use minpower_models::CircuitModel;
use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

/// Clock target of the suite and Rent cases.
pub const FC: f64 = 3.0e8;

/// The suite and Rent cases' problem: uniform activity 0.3 at [`FC`].
pub fn problem_for(netlist: &Netlist) -> Problem {
    let model = CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.3);
    Problem::new(model, FC)
}

/// A two-output network deep and reconvergent enough that Procedure 2
/// probes a few hundred operating points (the determinism suite's).
pub fn det_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("det");
    for name in ["a", "b", "c", "d"] {
        b.input(name).unwrap();
    }
    b.gate("n1", GateKind::Nand, &["a", "b"]).unwrap();
    b.gate("n2", GateKind::Nor, &["b", "c"]).unwrap();
    b.gate("n3", GateKind::Nand, &["c", "d"]).unwrap();
    b.gate("m1", GateKind::Nor, &["n1", "n2"]).unwrap();
    b.gate("m2", GateKind::Nand, &["n2", "n3"]).unwrap();
    b.gate("m3", GateKind::Nand, &["m1", "m2"]).unwrap();
    b.gate("m4", GateKind::Nor, &["m1", "n3"]).unwrap();
    b.gate("y1", GateKind::Not, &["m3"]).unwrap();
    b.gate("y2", GateKind::Nand, &["m3", "m4"]).unwrap();
    b.output("y1").unwrap();
    b.output("y2").unwrap();
    b.finish().unwrap()
}

/// The determinism suite's problem: [`det_netlist`] at 250 MHz.
pub fn det_problem() -> Problem {
    let n = det_netlist();
    let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
    Problem::new(model, 250.0e6)
}

fn rent_netlist(name: &str, gates: usize) -> Netlist {
    synthesize(&BenchmarkSpec::rent(name, gates)).expect("rent spec is valid")
}

fn sizing_options(sizing: SizingMethod) -> SearchOptions {
    SearchOptions {
        sizing,
        ..SearchOptions::default()
    }
}

type Run = Box<dyn Fn(Arc<EvalContext>) -> OptimizationResult>;

/// One golden case: a key and the sizing call it freezes, run on a
/// caller-chosen context.
pub struct Case {
    pub key: String,
    run: Run,
}

impl Case {
    fn new(key: String, run: impl Fn(Arc<EvalContext>) -> OptimizationResult + 'static) -> Self {
        Case {
            key,
            run: Box::new(run),
        }
    }

    /// Runs the case on `ctx`.
    pub fn run(&self, ctx: Arc<EvalContext>) -> OptimizationResult {
        (self.run)(ctx)
    }
}

fn size_at_case(key: String, netlist: impl Fn() -> Netlist + 'static, vdd: f64, vt: f64) -> Case {
    Case::new(key, move |ctx| {
        size_at_with(
            ctx,
            &problem_for(&netlist()),
            vdd,
            vt,
            &SearchOptions::default(),
        )
        .expect("sizing")
    })
}

/// Every golden case, in fixture order.
pub fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // The paper suite at one mid-range point.
    let suite = std::iter::once("s27".to_string()).chain(specs().into_iter().map(|s| s.name));
    for name in suite {
        cases.push(size_at_case(
            format!("paper/{name}"),
            move || circuit(&name).expect("suite circuit"),
            2.5,
            0.4,
        ));
    }
    // Seeded Rent netlists, one operating point each.
    for (gates, vdd, vt) in [(200usize, 3.0, 0.5), (800, 2.2, 0.35), (2000, 1.6, 0.25)] {
        cases.push(size_at_case(
            format!("rent/{gates}"),
            move || rent_netlist(&format!("rent{gates}"), gates),
            vdd,
            vt,
        ));
    }
    cases.push(size_at_case(
        "rent/10000".to_string(),
        || rent_netlist("rent10000", 10_000),
        3.3,
        0.3,
    ));
    // Points where the widths the sweeps settle on miss the cycle time,
    // so the critical-path repair loop does real work: four it repairs
    // to feasibility, two it exhausts.
    for (name, vdd, vt) in [("s298", 1.5, 0.45), ("s713", 1.0, 0.2), ("s713", 1.5, 0.45)] {
        cases.push(size_at_case(
            format!("repair/{name}/{vdd},{vt}"),
            move || circuit(name).expect("suite circuit"),
            vdd,
            vt,
        ));
    }
    for (gates, vdd, vt) in [(200usize, 1.0, 0.3), (800, 1.2, 0.3), (2000, 1.5, 0.3)] {
        cases.push(size_at_case(
            format!("repair/rent{gates}/{vdd},{vt}"),
            move || rent_netlist(&format!("rent{gates}"), gates),
            vdd,
            vt,
        ));
    }
    // The complete Procedure 2 on a 300-gate Rent netlist.
    cases.push(Case::new("rent-e2e/optimize".to_string(), |ctx| {
        let problem = problem_for(&rent_netlist("rent-e2e", 300));
        Optimizer::new(&problem)
            .with_engine(ctx)
            .run()
            .expect("optimizer run")
    }));
    // Seeded random operating points, feasible or not.
    let mut rng = SplitMix64::new(0xB15EC7);
    for k in 0..12 {
        let vdd = rng.range_f64(1.2, 3.3);
        let vt = rng.range_f64(0.2, 0.55);
        cases.push(size_at_case(
            format!("random/{k}"),
            || rent_netlist("rent-prop-size", 150),
            vdd,
            vt,
        ));
    }
    // Both sizing engines on the determinism network: the full search
    // and three fixed operating points.
    for sizing in [SizingMethod::Budgeted, SizingMethod::Greedy] {
        cases.push(Case::new(format!("det/optimize/{sizing:?}"), move |ctx| {
            Optimizer::new(&det_problem())
                .with_options(sizing_options(sizing))
                .with_engine(ctx)
                .run()
                .expect("optimizer run")
        }));
        for (vdd, vt) in [(2.5, 0.45), (1.8, 0.35), (3.3, 0.6)] {
            cases.push(Case::new(
                format!("det/size_at/{sizing:?}/{vdd},{vt}"),
                move |ctx| {
                    size_at_with(ctx, &det_problem(), vdd, vt, &sizing_options(sizing))
                        .expect("sizing")
                },
            ));
        }
    }
    cases
}

/// The case named `key`.
pub fn case(key: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.key == key)
        .unwrap_or_else(|| panic!("no golden case {key}"))
}

/// The frozen bits of one sizing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub feasible: bool,
    pub critical_delay: u64,
    pub static_energy: u64,
    pub dynamic_energy: u64,
    pub vdd: u64,
    pub evaluations: usize,
    /// FNV-1a over the width bits, then the threshold bits.
    pub design_digest: u64,
}

impl Row {
    pub fn of(r: &OptimizationResult) -> Row {
        Row {
            feasible: r.feasible,
            critical_delay: r.critical_delay.to_bits(),
            static_energy: r.energy.static_.to_bits(),
            dynamic_energy: r.energy.dynamic.to_bits(),
            vdd: r.design.vdd.to_bits(),
            evaluations: r.evaluations,
            design_digest: fnv1a_words(
                r.design
                    .width
                    .iter()
                    .chain(&r.design.vt)
                    .map(|x| x.to_bits()),
            ),
        }
    }

    fn render(&self, key: &str) -> String {
        format!(
            "{key} {} {:016x} {:016x} {:016x} {:016x} {} {:016x}",
            u8::from(self.feasible),
            self.critical_delay,
            self.static_energy,
            self.dynamic_energy,
            self.vdd,
            self.evaluations,
            self.design_digest
        )
    }

    fn parse(line: &str) -> (String, Row) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 8, "malformed golden row: {line}");
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
        let row = Row {
            feasible: f[1] == "1",
            critical_delay: hex(f[2]),
            static_energy: hex(f[3]),
            dynamic_energy: hex(f[4]),
            vdd: hex(f[5]),
            evaluations: f[6].parse().expect("evaluation count"),
            design_digest: hex(f[7]),
        };
        (f[0].to_string(), row)
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sizing_golden.txt")
}

/// The committed fixture, keyed by case.
pub fn fixture() -> BTreeMap<String, Row> {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture readable");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(Row::parse)
        .collect()
}

/// Asserts `result` carries exactly the frozen bits of case `key`.
pub fn assert_golden(fixture: &BTreeMap<String, Row>, key: &str, result: &OptimizationResult) {
    let want = fixture
        .get(key)
        .unwrap_or_else(|| panic!("no golden row for {key}"));
    assert_eq!(
        &Row::of(result),
        want,
        "{key}: sizing outcome differs from the golden fixture"
    );
}

/// Runs every case whose key starts with `prefix` on a fresh
/// single-thread, cache-off context and checks it against the fixture.
pub fn check_prefix(prefix: &str) {
    let fixture = fixture();
    let mut checked = 0;
    for case in cases().into_iter().filter(|c| c.key.starts_with(prefix)) {
        let result = case.run(Arc::new(EvalContext::new(1, 0)));
        assert_golden(&fixture, &case.key, &result);
        checked += 1;
    }
    assert!(checked > 0, "no golden case starts with {prefix}");
}

/// Rewrites the fixture from the current code.
pub fn regenerate() {
    let mut out = String::from(
        "# Golden sizing outcomes; see crates/core/tests/golden/mod.rs.\n\
         # key feasible critical_delay static_energy dynamic_energy vdd evaluations design_digest\n",
    );
    for case in cases() {
        let result = case.run(Arc::new(EvalContext::new(1, 0)));
        out.push_str(&Row::of(&result).render(&case.key));
        out.push('\n');
    }
    std::fs::write(fixture_path(), out).expect("write golden fixture");
}
