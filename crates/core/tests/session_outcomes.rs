//! Golden session outcomes: a fixed, seeded edit script over suite
//! circuits, digested over every field of every `OpOutcome` (including
//! `gates_touched`, the number of delay entries each op repaired), every
//! rejected op's message, and the final design, delays, arrivals and
//! snapshot. The digests were recorded when sessions still ran their own
//! copy of the incremental probe transaction; a session op path that
//! moves any of those bits fails here.

use minpower_core::session::{SessionOp, SessionParams, SessionState};
use minpower_engine::{fnv1a_words, SplitMix64};
use minpower_netlist::{GateId, GateKind};

/// Runs `ops` seeded random edits (every op kind, some of them invalid)
/// on `circuit` and digests everything the session reports.
fn script_digest(circuit: &str, seed: u64, ops: usize) -> u64 {
    let netlist = minpower_circuits::circuit(circuit).expect("suite circuit");
    let mut state = SessionState::new(netlist, &SessionParams::default()).expect("session");
    let mut rng = SplitMix64::new(seed);
    let mut words: Vec<u64> = Vec::new();
    let pick = |state: &SessionState, rng: &mut SplitMix64| {
        let n = state.netlist().gate_count();
        let id = GateId::new(rng.range_usize(n));
        state.netlist().gate(id).name().to_string()
    };
    for step in 0..ops {
        let gate = pick(&state, &mut rng);
        let op = match rng.range_usize(100) {
            0..=34 => SessionOp::Resize {
                gate,
                width: rng.range_f64(0.5, 110.0),
            },
            35..=59 => SessionOp::SetVt {
                gate,
                vt: rng.range_f64(0.05, 0.8),
            },
            60..=65 => SessionOp::SetVdd {
                vdd: rng.range_f64(0.5, 3.4),
            },
            66..=70 => SessionOp::SetFc {
                fc: rng.range_f64(50e6, 900e6),
            },
            71..=73 => SessionOp::SetActivity {
                activity: rng.range_f64(0.0, 1.0),
            },
            74..=87 => SessionOp::Reoptimize {
                steps: 1 + rng.range_usize(14) as u32,
            },
            88..=90 => SessionOp::AddGate {
                name: format!("x{step}"),
                kind: GateKind::Nand,
                fanin: vec![gate, pick(&state, &mut rng)],
            },
            91..=93 => SessionOp::RemoveGate { gate },
            94..=96 => SessionOp::RewireFanin {
                gate,
                fanin: vec![pick(&state, &mut rng)],
            },
            _ => SessionOp::SwapGateKind {
                gate,
                kind: GateKind::Nor,
            },
        };
        match state.apply(&op) {
            Ok(o) => words.extend([
                o.revision,
                o.gates_touched as u64,
                o.resized as u64,
                u64::from(o.feasible),
                o.critical_delay.to_bits(),
                o.cycle_time.to_bits(),
                o.energy.static_.to_bits(),
                o.energy.dynamic.to_bits(),
                o.dirty as u64,
            ]),
            Err(e) => words.push(fnv1a_words(e.message.bytes().map(u64::from))),
        }
    }
    let design = state.design();
    words.extend(design.width.iter().chain(&design.vt).map(|x| x.to_bits()));
    words.extend(
        state
            .delays()
            .iter()
            .chain(state.arrivals())
            .map(|x| x.to_bits()),
    );
    words.push(fnv1a_words(
        state.snapshot().render().bytes().map(u64::from),
    ));
    fnv1a_words(words)
}

#[test]
fn session_outcomes_match_golden_digests() {
    for (circuit, seed, want) in [
        ("s27", 0x5E55_0001, 0x2297_bd33_4232_a410u64),
        ("s298", 0x5E55_0002, 0x0ad4_aaee_e2c9_db12),
        ("s713", 0x5E55_0003, 0xee4a_80b9_3b09_59ec),
    ] {
        let got = script_digest(circuit, seed, 600);
        assert_eq!(
            got, want,
            "{circuit}: session outcomes changed ({got:#018x})"
        );
    }
}
