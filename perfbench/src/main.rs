//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_suite|rent_100k|session_edit> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` is the untraced run: it prints every end-to-end metric.
//! `--trace 1` is the traced run: it records spans around each call into
//! a layer, writes them to `perfbench/out/`, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it name every metric with its unit and sample count, the
//! run's metadata, and the determinism digest. See `README.md`.

mod check;
mod paper_suite;
mod rent;
mod session_edit;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use minpower_core::json::Value;

use crate::trace::Tracer;

/// End-to-end metrics, printed by the untraced run of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("energy_j", "J"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload
/// (`0` for a layer the workload does not exercise).
const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.synthesize_s", "s"),
    ("models.build_s", "s"),
    ("core.budget.assign_s", "s"),
    ("models.soa.build_s", "s"),
    ("models.soa.sweep_s", "s"),
    ("models.soa.dense_pass_s", "s"),
    ("core.search.size_at_s", "s"),
    ("timing.sta_check_s", "s"),
    ("core.search.optimize_s", "s"),
    ("engine.circuit_evals", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.incremental_gates_per_commit", "gates"),
    ("engine.sta_fallbacks", "count"),
    ("engine.sta_calls", "count"),
    ("core.session.apply_local_us", "us"),
    ("core.session.apply_global_us", "us"),
    ("core.session.apply_reopt_ms", "ms"),
    ("core.session.oplog_append_us", "us"),
    ("core.json.snapshot_render_ms", "ms"),
    ("service.read_p50_ms", "ms"),
    ("service.overhead_p50_ms", "ms"),
    ("service.op_server_p50_ms", "ms"),
    ("service.op_server_p99_ms", "ms"),
    ("service.connections", "count"),
    ("service.requests", "count"),
    ("service.reconnects", "count"),
    ("service.rate_limited", "count"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <paper_suite|rent_100k|session_edit> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for a quick check of the whole path; its timings are
    /// not comparable with a full run's.
    pub smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag}` expects {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            smoke,
        })
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Up to a few failure descriptions, for the report.
    pub errors: Vec<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    pub ops_per_s: f64,
    pub energy_j: f64,
    /// Per-layer values (traced run only), by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    pub digest: u64,
    /// Workload-specific settings and counts recorded with the output.
    pub meta: Vec<(String, Value)>,
    /// The workload's metrics under their own names: (name, value,
    /// unit, sample count).
    pub report: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Run {
    /// Counts one failed attempt and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit under test, or `unknown` outside a git checkout.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the library sources and manifests, naming the code under
/// test where no commit is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = check::Digest::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        digest.bytes(rel.to_string_lossy().as_bytes());
        digest.bytes(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", digest.value())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let tracer = Tracer::new(args.trace);
    let mut run = match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&args, &tracer),
        "rent_100k" => rent::run(&args, &tracer),
        "session_edit" => session_edit::run(&args, &tracer, &out),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let peak_rss_mb = check::peak_rss_mb();
    assert!(run.attempted > 0, "workload attempted nothing");
    let failed_frac = run.failed as f64 / run.attempted as f64;

    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", run.setup_s),
        ("wall_s", run.wall_s),
        ("op_p50_ms", run.op_p50_ms),
        ("op_p99_ms", run.op_p99_ms),
        ("ops_per_s", run.ops_per_s),
        ("energy_j", run.energy_j),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .collect();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace { &run.layers } else { &e2e };
    for name in run.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "layer metric `{name}` is not declared"
        );
    }

    println!(
        "== {} seed {} ({} s{}{}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        if args.smoke { ", smoke" } else { "" }
    );
    for (name, value, unit, samples) in &run.report {
        println!("{name} = {value} {unit} (n={samples})");
    }
    println!(
        "failed_frac = {failed_frac} ({} of {} attempted)",
        run.failed, run.attempted
    );
    for error in &run.errors {
        println!("failure: {error}");
    }
    for (name, unit) in table {
        println!(
            "{name} = {} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "digest {} seed {}: {:016x}",
        args.workload, args.seed, run.digest
    );

    let mut meta = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::Int(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        (
            "cpus".to_string(),
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("commit".to_string(), Value::Str(commit())),
        ("source_digest".to_string(), Value::Str(source_digest())),
        (
            "digest".to_string(),
            Value::Str(format!("{:016x}", run.digest)),
        ),
        ("attempted".to_string(), Value::Int(run.attempted)),
        ("failed".to_string(), Value::Int(run.failed)),
        ("failed_frac".to_string(), Value::Float(failed_frac)),
    ];
    meta.append(&mut run.meta);
    let metrics = Value::Obj(
        table
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(value, unit))
            })
            .collect(),
    );
    meta.push(("metrics".to_string(), metrics.clone()));
    let meta = Value::Obj(meta).render();
    println!("meta {meta}");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(out.join(format!("run-{stem}.json")), format!("{meta}\n")) {
        eprintln!("cannot write run metadata: {e}");
    }
    if args.trace {
        let path = out.join(format!("spans-{stem}.jsonl"));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans: {e}"),
        }
    }

    let correct = run.failed == 0;
    let result = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(run.attempted)),
        ("failed".to_string(), Value::Int(run.failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
