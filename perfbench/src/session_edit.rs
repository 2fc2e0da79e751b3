//! `session_edit`: an in-process `minpower serve` with governance on at
//! generous limits, driven by two closed-loop keep-alive clients that
//! take turns from one thread. Each client owns one `s713` session and
//! sends a fixed seeded stream: 80%
//! local edits (`resize`, `set_vt`), 10% global re-times (`set_vdd`),
//! 5% `reoptimize` (steps 8) and 5% reads (`GET ?detail=gates`).
//!
//! The time goes to HTTP, the governor, dirty-cone repair, the fsynced
//! op-log append and JSON rendering — not to cold sizing.
//!
//! After the load, the first windows of each client's stream are
//! replayed through `SessionState::apply` in-process: every replayed
//! outcome must match the server's response bit for bit. The traced run times that
//! replay per op class, plus `append_op` and snapshot rendering.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use minpower_core::json::{self, Value};
use minpower_core::session::{append_op, SessionOp, SessionParams, SessionState};
use minpower_engine::rng::SplitMix64;
use minpower_netlist::{GateKind, Netlist};
use minpower_serve::{Config, Server, ServerHandle};

use crate::check::{median, percentile, Digest, Phase};
use crate::trace::Tracer;
use crate::{Args, Run};

const CIRCUIT: &str = "s713";
const SMOKE_CIRCUIT: &str = "s298";
const CLIENTS: usize = 2;
/// Requests per window and client; the load stops at the first window
/// boundary after the measured phase.
const WINDOW: usize = 250;
/// Leading windows of each client that are replayed and checked.
const CHECKED_WINDOWS: usize = 4;
/// Set-up repetitions (bind + session create), spread through the run;
/// `setup_s` is their median.
const SETUPS: usize = 15;
const REOPT_STEPS: u32 = 8;

/// The op classes of the stream, indexing [`CLASSES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Resize,
    SetVt,
    SetVdd,
    Reoptimize,
    Read,
}

const CLASSES: [Class; 5] = [
    Class::Resize,
    Class::SetVt,
    Class::SetVdd,
    Class::Reoptimize,
    Class::Read,
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Resize => "resize",
            Class::SetVt => "set_vt",
            Class::SetVdd => "set_vdd",
            Class::Reoptimize => "reoptimize",
            Class::Read => "read",
        }
    }

    /// The report name of the class's median latency.
    fn p50_name(self) -> &'static str {
        match self {
            Class::Resize => "resize_p50_ms",
            Class::SetVt => "set_vt_p50_ms",
            Class::SetVdd => "set_vdd_p50_ms",
            Class::Reoptimize => "reoptimize_p50_ms",
            Class::Read => "read_p50_ms",
        }
    }
}

/// One step of a client's stream: an edit op, or `None` for a read.
struct Step {
    class: Class,
    op: Option<SessionOp>,
}

/// A client's seeded op stream over the circuit's logic gates.
struct OpStream<'a> {
    rng: SplitMix64,
    gates: &'a [String],
}

impl<'a> OpStream<'a> {
    fn new(seed: u64, client: usize, gates: &'a [String]) -> OpStream<'a> {
        OpStream {
            rng: SplitMix64::stream(seed, client as u64),
            gates,
        }
    }

    fn next_step(&mut self) -> Step {
        let roll = self.rng.range_usize(100);
        let gate = self.gates[self.rng.range_usize(self.gates.len())].clone();
        let (class, op) = match roll {
            0..=39 => (
                Class::Resize,
                Some(SessionOp::Resize {
                    gate,
                    width: self.rng.range_f64(1.0, 10.0),
                }),
            ),
            40..=79 => (
                Class::SetVt,
                Some(SessionOp::SetVt {
                    gate,
                    vt: self.rng.range_f64(0.2, 0.6),
                }),
            ),
            80..=89 => (
                Class::SetVdd,
                Some(SessionOp::SetVdd {
                    vdd: self.rng.range_f64(2.0, 3.0),
                }),
            ),
            90..=94 => (
                Class::Reoptimize,
                Some(SessionOp::Reoptimize { steps: REOPT_STEPS }),
            ),
            _ => (Class::Read, None),
        };
        Step { class, op }
    }
}

/// A keep-alive HTTP client that honours the server's connection
/// budget: after a response carrying `Connection: close` it reconnects
/// for the next request, and counts the reconnect.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connected_before: bool,
    reconnects: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connected_before: false,
            reconnects: 0,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            if self.connected_before {
                self.reconnects += 1;
            }
            self.connected_before = true;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        // One write per request: a head-then-body pair of small writes
        // trips Nagle + delayed ACK.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let outcome = Self::exchange(conn, &request);
        match outcome {
            Ok((status, body, close)) => {
                if close {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Polls until the response starts to arrive, rather than sleeping
    /// in `read`: on a shared host the time to wake a sleeping client
    /// varies from run to run by more than the server's own op path, so
    /// a sleeping client would measure the host. Only one client thread
    /// runs, so the poll holds one core and leaves the other to the
    /// server.
    fn await_response(stream: &TcpStream) -> Result<(), String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut byte = [0u8; 1];
        let arrived = loop {
            match stream.peek(&mut byte) {
                Ok(_) => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => break Err(format!("read: {e}")),
            }
        };
        stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        arrived
    }

    /// Writes `request` and reads one response: status, body, and
    /// whether the server closes the connection after it.
    fn exchange(
        conn: &mut BufReader<TcpStream>,
        request: &str,
    ) -> Result<(u16, String, bool), String> {
        conn.get_mut()
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        if conn.buffer().is_empty() {
            Self::await_response(conn.get_ref())?;
        }
        let mut line = String::new();
        let mut status = None;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            let n = conn
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-head".to_string());
            }
            let text = line.trim_end();
            if text.is_empty() {
                break;
            }
            if status.is_none() {
                status = text.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                if status.is_none() {
                    return Err(format!("bad status line `{text}`"));
                }
            } else if let Some((name, value)) = text.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad Content-Length")?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
        Ok((status.expect("status parsed above"), body, close))
    }
}

/// What the server said about one request of the checked window.
enum Seen {
    /// An op response: revision, critical delay and total energy bits.
    Op(u64, u64, u64),
    /// A read: revision and the rendered state snapshot.
    Read(u64, String),
    /// A request that failed (already counted).
    Failed,
}

/// One client's measured load.
#[derive(Default)]
struct Load {
    /// `(class, latency s, traced)` per request.
    latencies: Vec<(Class, f64, bool)>,
    seen: Vec<Seen>,
    errors: Vec<String>,
    failed: u64,
    reconnects: u64,
}

/// Reads the checked fields of a `200` response to `step`.
fn parse_seen(step: &Step, body: &str) -> Result<Seen, String> {
    let doc = json::parse(body).map_err(|e| e.message)?;
    let obj = doc.as_obj("response").map_err(|e| e.message)?;
    let revision = obj
        .req("revision")
        .and_then(|v| v.as_u64("revision"))
        .map_err(|e| e.message)?;
    if step.op.is_none() {
        let state = obj.req("state").map_err(|e| e.message)?;
        return Ok(Seen::Read(revision, state.render()));
    }
    let critical = obj
        .req("critical_delay")
        .and_then(|v| v.as_number("critical_delay"))
        .map_err(|e| e.message)?;
    let energy = obj
        .req("energy")
        .and_then(|v| v.as_obj("energy")?.req("total")?.as_number("total"))
        .map_err(|e| e.message)?;
    Ok(Seen::Op(revision, critical.to_bits(), energy.to_bits()))
}

/// Drives every client's closed loop from this one thread, one request
/// per client in turn, until the first window boundary after the phase.
/// Every checked window runs, so `energy_j` and the digest cover the
/// same requests on every run of a seed. A set-up that falls due runs
/// `spare` between windows. Returns each client's load and each
/// window's `(seconds, traced)`.
///
/// Taking turns keeps at most two threads busy — this one and the
/// server's handler of the request in flight — on the two cores. With a
/// thread per client, two clients and their two handlers oversubscribe
/// the cores, and run-to-run spread follows how the scheduler placed
/// them rather than the code under test.
fn drive(
    sessions: Vec<(Client, u64)>,
    seed: u64,
    gates: &[String],
    phase: &mut Phase,
    mut spare: impl FnMut(&mut Phase),
    trace: bool,
    tracer: &Tracer,
) -> (Vec<Load>, Vec<(f64, bool)>) {
    let off = Tracer::new(false);
    let mut clients: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(client, (conn, session))| {
            (
                conn,
                OpStream::new(seed, client, gates),
                format!("/sessions/{session}/ops"),
                format!("/sessions/{session}?detail=gates"),
                Load::default(),
            )
        })
        .collect();
    let mut windows = Vec::new();
    for window in 0.. {
        if window >= CHECKED_WINDOWS && phase.over() {
            break;
        }
        if phase.setup_due() {
            spare(phase);
        }
        let traced = trace && window % 2 == 1;
        let t = if traced { tracer } else { &off };
        let w0 = Instant::now();
        for seq in (window * WINDOW) as u64..((window + 1) * WINDOW) as u64 {
            for (client, (conn, stream, ops_path, read_path, load)) in
                clients.iter_mut().enumerate()
            {
                let step = stream.next_step();
                let op_id = ((client as u64) << 32) | seq;
                let (method, path, body, span) = match &step.op {
                    Some(op) => ("POST", &*ops_path, op.to_json().render(), "service.op"),
                    None => ("GET", &*read_path, String::new(), "service.read"),
                };
                let r0 = Instant::now();
                let response = t.span(span, op_id, 0, |_| conn.request(method, path, &body));
                load.latencies
                    .push((step.class, r0.elapsed().as_secs_f64(), traced));
                let outcome = match response {
                    Ok((200, body)) if window < CHECKED_WINDOWS => {
                        parse_seen(&step, &body).map(Some)
                    }
                    Ok((200, _)) => Ok(None),
                    Ok((status, body)) => Err(format!("HTTP {status}: {body}")),
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok(Some(seen)) => load.seen.push(seen),
                    Ok(None) => {}
                    Err(e) => {
                        load.fail(format!("{}: {e}", step.class.name()));
                        if window < CHECKED_WINDOWS {
                            load.seen.push(Seen::Failed);
                        }
                    }
                }
            }
        }
        windows.push((w0.elapsed().as_secs_f64(), traced));
    }
    let loads = clients
        .into_iter()
        .map(|(conn, _, _, _, mut load)| {
            load.reconnects = conn.reconnects;
            load
        })
        .collect();
    (loads, windows)
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(what);
        }
    }
}

fn logic_gate_names(netlist: &Netlist) -> Vec<String> {
    netlist
        .gates()
        .iter()
        .filter(|g| g.kind() != GateKind::Input)
        .map(|g| g.name().to_string())
        .collect()
}

/// A running server and one keep-alive client per open session.
struct Service {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<minpower_serve::DrainOutcome>,
    addr: SocketAddr,
    sessions: Vec<(Client, u64)>,
}

impl Service {
    fn stop(self) {
        drop(self.sessions);
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Set-up: bind a governed server on a fresh state directory and open
/// one session per client.
fn start(state_dir: PathBuf, circuit: &str) -> Result<Service, String> {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_sessions: 8,
        state_dir,
        ops_rate: 10_000.0,
        ops_burst: 1_000.0,
        client_rate: 100_000.0,
        client_burst: 10_000.0,
        mem_budget_bytes: 1 << 30,
        ..Config::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut service = Service {
        handle,
        thread,
        addr,
        sessions: Vec::new(),
    };
    for _ in 0..CLIENTS {
        let mut client = Client::new(addr);
        let created = client
            .request(
                "POST",
                "/sessions",
                &format!(r#"{{"circuit":"{circuit}"}}"#),
            )
            .and_then(|(status, body)| {
                if status != 201 {
                    return Err(format!("create session: HTTP {status}: {body}"));
                }
                json::parse(&body)
                    .and_then(|doc| doc.as_obj("created")?.req("id")?.as_u64("id"))
                    .map_err(|e| e.message)
            });
        match created {
            Ok(id) => service.sessions.push((client, id)),
            Err(e) => {
                service.stop();
                return Err(e);
            }
        }
    }
    Ok(service)
}

/// A `/metrics` field by path.
fn metric_u64(doc: &Value, path: &[&str]) -> u64 {
    let mut value = doc;
    for key in path {
        match value.as_obj("metrics").ok().and_then(|o| o.opt(key)) {
            Some(v) => value = v,
            None => return 0,
        }
    }
    value.as_u64("metric").unwrap_or(0)
}

pub fn run(args: &Args, tracer: &Tracer, out: &Path) -> Run {
    let mut run = Run::default();
    let circuit = if args.smoke { SMOKE_CIRCUIT } else { CIRCUIT };
    let netlist = minpower_circuits::circuit(circuit).expect("suite circuit");
    let gates = logic_gate_names(&netlist);
    let root = out.join(format!("session-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut phase = Phase::new(args.seconds, SETUPS);
    let build = |i: u64| {
        tracer.span("bench.setup", i, 0, |_| {
            start(root.join(i.to_string()), circuit)
        })
    };
    let service = match phase.setup(build) {
        Ok(service) => service,
        Err(e) => {
            run.attempted += 1;
            run.fail(format!("set-up: {e}"));
            let _ = std::fs::remove_dir_all(&root);
            return run;
        }
    };
    let addr = service.addr;
    // The first set-up serves the load; the later ones each start a
    // spare server between windows, while the measured one idles, and
    // stop it untimed.
    let mut spare_errors = Vec::new();
    let mut spare = |phase: &mut Phase| match phase.setup(build) {
        Ok(spare) => spare.stop(),
        Err(e) => spare_errors.push(e),
    };

    let Service {
        handle,
        thread,
        sessions,
        ..
    } = service;
    let session_ids: Vec<u64> = sessions.iter().map(|(_, id)| *id).collect();
    let (loads, windows) = drive(
        sessions, args.seed, &gates, &mut phase, &mut spare, args.trace, tracer,
    );
    let windows: Vec<f64> = windows
        .iter()
        .filter(|(_, traced)| !traced)
        .map(|(secs, _)| *secs)
        .collect();

    let mut metrics_client = Client::new(addr);
    let server_metrics = metrics_client
        .request("GET", "/metrics", "")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok());
    drop(metrics_client);
    handle.shutdown();
    let _ = thread.join();
    while phase.setup_due() {
        spare(&mut phase);
    }
    for e in spare_errors {
        run.attempted += 1;
        run.fail(format!("set-up: {e}"));
    }
    let (setups, setup_s) = phase.setup_median();
    run.setup_s = setup_s;

    // Tally the load.
    let mut mix = [0u64; CLASSES.len()];
    let (mut ops, mut traced_ops) = (Vec::new(), Vec::new());
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    let mut reconnects = 0;
    for load in &loads {
        run.attempted += load.latencies.len() as u64;
        run.failed += load.failed;
        run.errors.extend(load.errors.iter().cloned());
        reconnects += load.reconnects;
        for &(class, secs, traced) in &load.latencies {
            mix[class as usize] += 1;
            if !traced {
                by_class[class as usize].push(secs);
            }
            match (class, traced) {
                (Class::Read, _) => {}
                (_, false) => ops.push(secs),
                (_, true) => traced_ops.push(secs),
            }
        }
    }

    // Replay each client's checked window in-process and compare.
    let mut digest = Digest::new();
    let mut replay_ops: Vec<u64> = Vec::new();
    let off = Tracer::new(false);
    let t = if args.trace { tracer } else { &off };
    for (client, load) in loads.iter().enumerate() {
        let mut state = SessionState::new(netlist.clone(), &SessionParams::default())
            .expect("default session parameters are valid");
        let log = out.join(format!("replay-{}-{client}.oplog", std::process::id()));
        let _ = std::fs::remove_file(&log);
        let mut stream = OpStream::new(args.seed, client, &gates);
        for (k, seen) in load.seen.iter().enumerate() {
            let step = stream.next_step();
            let op_id = ((client as u64) << 32) | k as u64;
            let label = format!("client {client} request {k} ({})", step.class.name());
            let mismatch = match (&step.op, seen) {
                (_, Seen::Failed) => None,
                (Some(op), Seen::Op(revision, critical, energy)) => {
                    replay_ops.push(op_id);
                    let span = match step.class {
                        Class::SetVdd => "core.session.apply_global",
                        Class::Reoptimize => "core.session.apply_reopt",
                        _ => "core.session.apply_local",
                    };
                    let outcome = t.span(span, op_id, 0, |_| state.apply(op));
                    if args.trace {
                        let appended = t.span("core.session.oplog_append", op_id, 0, |_| {
                            append_op(&log, op)
                        });
                        if let Err(e) = appended {
                            run.fail(format!("{label}: append_op: {e}"));
                        }
                    }
                    match outcome {
                        Ok(o)
                            if o.revision == *revision
                                && o.critical_delay.to_bits() == *critical
                                && o.energy.total().to_bits() == *energy =>
                        {
                            run.energy_j += o.energy.total();
                            None
                        }
                        Ok(_) => Some("replayed outcome differs from the server's".to_string()),
                        Err(e) => Some(format!("replay failed: {e}")),
                    }
                }
                (None, Seen::Read(revision, snapshot)) => {
                    let rendered = t.span("core.json.snapshot_render", op_id, 0, |_| {
                        state.snapshot().render()
                    });
                    (state.revision() != *revision || rendered != *snapshot)
                        .then(|| "replayed snapshot differs from the server's read".to_string())
                }
                _ => Some("response kind does not match the request".to_string()),
            };
            if let Some(what) = mismatch {
                run.fail(format!("{label}: {what}"));
            }
        }
        let _ = std::fs::remove_file(&log);
        digest.u64(client as u64);
        digest.f64s(&state.design().width);
        digest.f64s(&state.design().vt);
        digest.f64(state.design().vdd);
        digest.f64(state.energy().total());
        digest.f64(state.critical_delay());
    }
    run.digest = digest.value();
    let _ = std::fs::remove_dir_all(&root);

    let op_p50 = if ops.is_empty() { 0.0 } else { median(&ops) };
    let reads = &by_class[Class::Read as usize];
    let read_p50 = if reads.is_empty() { 0.0 } else { median(reads) };
    run.wall_s = median(&windows);
    run.op_p50_ms = 1e3 * op_p50;
    run.op_p99_ms = 1e3 * percentile(&ops, 99.0);
    // A window holds `WINDOW` requests of every client: throughput of a
    // median window, so a stall in one stretch of the run does not move it.
    run.ops_per_s = (CLIENTS * WINDOW) as f64 / run.wall_s;
    run.report = vec![
        ("op_p50_ms", run.op_p50_ms, "ms", ops.len()),
        ("op_p99_ms", run.op_p99_ms, "ms", ops.len()),
        ("ops_per_s", run.ops_per_s, "1/s", run.attempted as usize),
        ("wall_s", run.wall_s, "s", windows.len()),
        ("energy_j", run.energy_j, "J", replay_ops.len()),
        ("setup_s", run.setup_s, "s", setups),
    ];
    for (class, samples) in CLASSES.iter().zip(&by_class) {
        if !samples.is_empty() {
            run.report
                .push((class.p50_name(), 1e3 * median(samples), "ms", samples.len()));
        }
    }

    let server = |path: &[&str]| server_metrics.as_ref().map_or(0, |m| metric_u64(m, path));
    if args.trace {
        let self_times = tracer.self_times();
        let durations = |name: &str| -> Vec<f64> {
            self_times
                .get(name)
                .map(|v| v.iter().map(|(_, s)| *s).collect())
                .unwrap_or_default()
        };
        let median_of = |name: &str| {
            let v = durations(name);
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        // Per replayed op: apply plus append, the work a request does
        // below the service layer.
        let by_op = |name: &str| -> std::collections::HashMap<u64, f64> {
            self_times
                .get(name)
                .map(|v| v.iter().copied().collect())
                .unwrap_or_default()
        };
        let appends = by_op("core.session.oplog_append");
        let applies: std::collections::HashMap<u64, f64> = [
            "core.session.apply_local",
            "core.session.apply_global",
            "core.session.apply_reopt",
        ]
        .iter()
        .flat_map(|name| by_op(name))
        .collect();
        let below: Vec<f64> = replay_ops
            .iter()
            .filter_map(|op| Some(applies.get(op)? + appends.get(op)?))
            .collect();
        let below_p50 = if below.is_empty() {
            0.0
        } else {
            median(&below)
        };
        let layers = &mut run.layers;
        layers.insert(
            "core.session.apply_local_us",
            1e6 * median_of("core.session.apply_local"),
        );
        layers.insert(
            "core.session.apply_global_us",
            1e6 * median_of("core.session.apply_global"),
        );
        layers.insert(
            "core.session.apply_reopt_ms",
            1e3 * median_of("core.session.apply_reopt"),
        );
        layers.insert(
            "core.session.oplog_append_us",
            1e6 * median_of("core.session.oplog_append"),
        );
        layers.insert(
            "core.json.snapshot_render_ms",
            1e3 * median_of("core.json.snapshot_render"),
        );
        layers.insert("service.read_p50_ms", 1e3 * read_p50);
        layers.insert("service.overhead_p50_ms", 1e3 * (op_p50 - below_p50));
        layers.insert(
            "service.op_server_p50_ms",
            1e-3 * server(&["sessions", "op_p50_us"]) as f64,
        );
        layers.insert(
            "service.op_server_p99_ms",
            1e-3 * server(&["sessions", "op_p99_us"]) as f64,
        );
        layers.insert(
            "service.connections",
            server(&["http", "connections"]) as f64,
        );
        layers.insert(
            "service.requests",
            (server(&["http", "responses_ok"])
                + server(&["http", "responses_client_error"])
                + server(&["http", "responses_server_error"])) as f64,
        );
        layers.insert("service.reconnects", reconnects as f64);
        layers.insert(
            "service.rate_limited",
            server(&["govern", "rate_limited_ops"]) as f64,
        );
        let traced_p50 = if traced_ops.is_empty() {
            op_p50
        } else {
            median(&traced_ops)
        };
        layers.insert("trace.overhead_frac", traced_p50 / op_p50 - 1.0);
    }

    run.meta = vec![
        ("circuit".to_string(), Value::Str(circuit.to_string())),
        ("clients".to_string(), Value::Int(CLIENTS as u64)),
        ("window".to_string(), Value::Int(WINDOW as u64)),
        (
            "sessions".to_string(),
            Value::Arr(session_ids.iter().map(|&id| Value::Int(id)).collect()),
        ),
        (
            "op_mix".to_string(),
            Value::Obj(
                CLASSES
                    .iter()
                    .zip(mix)
                    .map(|(c, n)| (c.name().to_string(), Value::Int(n)))
                    .collect(),
            ),
        ),
        ("reconnects".to_string(), Value::Int(reconnects)),
        (
            "rate_limited".to_string(),
            Value::Int(server(&["govern", "rate_limited_ops"])),
        ),
        (
            "connections".to_string(),
            Value::Int(server(&["http", "connections"])),
        ),
    ];
    run
}
