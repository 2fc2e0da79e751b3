//! Transactional incremental evaluation: the one evaluation path of the
//! width-sizing repair loops, the greedy (TILOS) move loop, and the
//! interactive sessions.
//!
//! [`IncrementalEval`] bundles the delta layers built for those loops:
//!
//! * [`CircuitModel::update_delays_after_width_change_with`] repairs the
//!   self-consistent per-gate delay vector over the affected cone only
//!   (the changed gate, its drivers whose loads moved, and whatever the
//!   input-slope term reaches downstream), journaling every overwrite;
//! * [`IncrementalSta`] re-propagates arrival times with a levelized
//!   dirty-worklist, falling back to a journaled dense pass when the
//!   dirty set grows past its fallback fraction;
//! * the caller keeps an [`minpower_models::EnergyLedger`] beside this
//!   struct for the delta-maintained energy terms.
//!
//! Every layer stops propagation on *bitwise* change only, so the state
//! after any sequence of probes is exactly — bit for bit — what a dense
//! recompute would produce. The unit tests below check that against a
//! dense delay and arrival pass; the golden sizing fixtures in
//! `tests/fixtures/` freeze the end-to-end results.
//!
//! The API is a single-slot transaction: [`try_width`] (or [`try_vt`])
//! opens a probe (applies the edit, repairs delays, commits the STA), then
//! exactly one of [`accept`] or [`revert`] closes it. A revert replays the
//! delay journal in reverse and undoes the STA commit, restoring the
//! pre-probe state bit-exactly without recomputation.
//!
//! The evaluator does not borrow its [`CircuitModel`]: each call that
//! evaluates the device model takes it as an argument, so an owner (a
//! session) can replace the model between calls. Callers count commits
//! into their own telemetry ([`count_commit`]).
//!
//! [`try_width`]: IncrementalEval::try_width
//! [`try_vt`]: IncrementalEval::try_vt
//! [`accept`]: IncrementalEval::accept
//! [`revert`]: IncrementalEval::revert

use minpower_engine::EngineStats;
use minpower_models::{CircuitModel, Design};
use minpower_netlist::GateId;
use minpower_timing::{Commit, IncrementalSta};

/// Counts one probe's commit into the engine telemetry (commit + gates
/// touched + fallback).
pub(crate) fn count_commit(stats: &EngineStats, commit: Commit) {
    stats.count_incremental(u64::from(commit.gates_touched));
    if commit.fallback {
        stats.count_fallback();
    }
}

/// A design + self-consistent delays + persistent STA, advanced one probe
/// at a time.
pub(crate) struct IncrementalEval {
    design: Design,
    delays: Vec<f64>,
    sta: IncrementalSta,
    /// `(gate, previous_delay)` overwrites of the last probe, in apply
    /// order; replayed in reverse on revert.
    journal: Vec<(u32, f64)>,
    /// `(gate, previous_width, previous_vt)` of the open probe, if any.
    open: Option<(usize, f64, f64)>,
}

impl IncrementalEval {
    /// Starts from `design` and its already-self-consistent `delays`
    /// (i.e. bitwise what [`CircuitModel::delays`] returns for `design`).
    pub fn new(model: &CircuitModel, design: Design, delays: Vec<f64>, cycle_time: f64) -> Self {
        let sta = IncrementalSta::forward_only(model.netlist(), &delays, cycle_time);
        IncrementalEval {
            design,
            delays,
            sta,
            journal: Vec::new(),
            open: None,
        }
    }

    /// Opens a probe: sets gate `gate`'s width to `w`, repairs the delay
    /// vector over the affected cone, and commits the arrival update.
    ///
    /// # Panics
    ///
    /// Panics if a probe is already open.
    pub fn try_width(&mut self, model: &CircuitModel, gate: usize, w: f64) -> Commit {
        self.open_probe(gate);
        self.design.width[gate] = w;
        self.repair(model, gate)
    }

    /// Opens a probe that sets gate `gate`'s threshold to `vt`. A
    /// threshold moves only the gate's own drive and leakage (its
    /// drivers' delays recompute to the same bits), so the width-change
    /// repair cone is exactly the threshold-change cone.
    ///
    /// # Panics
    ///
    /// Panics if a probe is already open.
    pub fn try_vt(&mut self, model: &CircuitModel, gate: usize, vt: f64) -> Commit {
        self.open_probe(gate);
        self.design.vt[gate] = vt;
        self.repair(model, gate)
    }

    fn open_probe(&mut self, gate: usize) {
        assert!(self.open.is_none(), "a probe is already open");
        self.open = Some((gate, self.design.width[gate], self.design.vt[gate]));
    }

    /// Repairs the delays after an edit of `gate` and commits the STA.
    fn repair(&mut self, model: &CircuitModel, gate: usize) -> Commit {
        self.journal.clear();
        let journal = &mut self.journal;
        model.update_delays_after_width_change_with(
            &self.design,
            &mut self.delays,
            GateId::new(gate),
            |idx, old| journal.push((idx as u32, old)),
        );
        for &(idx, _) in self.journal.iter() {
            self.sta
                .set_delay(GateId::new(idx as usize), self.delays[idx as usize]);
        }
        self.sta.commit()
    }

    /// Delay entries the last probe repaired (overwrote).
    pub fn repaired(&self) -> usize {
        self.journal.len()
    }

    /// Keeps the open probe's state.
    ///
    /// # Panics
    ///
    /// Panics if no probe is open.
    pub fn accept(&mut self) {
        self.open.take().expect("no open probe to accept");
    }

    /// Discards the open probe: restores the width and threshold, replays
    /// the delay journal in reverse, and undoes the STA commit —
    /// bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if no probe is open.
    pub fn revert(&mut self) {
        let (gate, w_old, vt_old) = self.open.take().expect("no open probe to revert");
        self.design.width[gate] = w_old;
        self.design.vt[gate] = vt_old;
        for &(idx, old) in self.journal.iter().rev() {
            self.delays[idx as usize] = old;
        }
        self.sta.undo();
    }

    /// Rebuilds the state densely after an edit the cone repair does not
    /// cover (a new supply, a new model, a new cycle time): recomputes
    /// every delay from `model` and re-runs the forward STA.
    ///
    /// # Panics
    ///
    /// Panics if a probe is open.
    pub fn rebuild(&mut self, model: &CircuitModel, cycle_time: f64) {
        assert!(self.open.is_none(), "a probe is still open");
        model.delays_into(&self.design, &mut self.delays);
        self.sta = IncrementalSta::forward_only(model.netlist(), &self.delays, cycle_time);
    }

    /// The current design (post-accept state, or the probe's trial state
    /// while one is open).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The design, for edits followed by [`rebuild`](Self::rebuild).
    pub fn design_mut(&mut self) -> &mut Design {
        &mut self.design
    }

    /// Current self-consistent per-gate delays.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The persistent arrival analysis.
    pub fn sta(&self) -> &IncrementalSta {
        &self.sta
    }

    /// Current per-gate arrival times.
    pub fn arrivals(&self) -> &[f64] {
        self.sta.arrivals()
    }

    /// Splits into the pieces the move-selection walks need: a mutable
    /// design for in-place width probes plus the delay and arrival views.
    pub fn split(&mut self) -> (&mut Design, &[f64], &[f64]) {
        (&mut self.design, &self.delays, self.sta.arrivals())
    }

    /// Consumes the evaluator, returning the final design.
    ///
    /// # Panics
    ///
    /// Panics if a probe is still open.
    pub fn into_design(self) -> Design {
        assert!(self.open.is_none(), "a probe is still open");
        self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalContext;
    use minpower_device::Technology;
    use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

    /// Dense arrival times for `delays`: the reference the incremental
    /// arrivals must match bitwise.
    fn arrivals_into(netlist: &Netlist, delays: &[f64], arrival: &mut Vec<f64>) {
        arrival.clear();
        arrival.resize(delays.len(), 0.0);
        for &id in netlist.topological_order() {
            let i = id.index();
            let latest = netlist
                .gate(id)
                .fanin()
                .iter()
                .map(|f| arrival[f.index()])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
    }

    fn setup() -> (CircuitModel, Design) {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.gate("x", GateKind::Nand, &["a", "b"]).unwrap();
        b.gate("y", GateKind::Nor, &["x", "b"]).unwrap();
        b.gate("z", GateKind::Nand, &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let n = b.finish().unwrap();
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        let design = Design::uniform(&n, 2.5, 0.5, 2.0);
        (model, design)
    }

    #[test]
    fn accepted_probes_match_dense_recompute_bitwise() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let delays = model.delays(&design);
        let mut eval = IncrementalEval::new(&model, design, delays, 1e-9);
        for (step, gate) in [(1.4f64, 2usize), (2.2, 3), (1.1, 4), (3.0, 2)] {
            let w = eval.design().width[gate] * step;
            count_commit(ctx.stats(), eval.try_width(&model, gate, w));
            eval.accept();
            let dense_delays = model.delays(eval.design());
            for (i, (a, b)) in eval.delays().iter().zip(&dense_delays).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "delay[{i}]");
            }
            let mut dense_arrival = Vec::new();
            arrivals_into(model.netlist(), &dense_delays, &mut dense_arrival);
            for (i, (a, b)) in eval.arrivals().iter().zip(&dense_arrival).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "arrival[{i}]");
            }
        }
        let snap = ctx.snapshot();
        assert_eq!(snap.incremental_commits, 4);
    }

    #[test]
    fn reverted_probes_restore_state_bit_exactly() {
        let (model, design) = setup();
        let delays = model.delays(&design);
        let before_design = design.clone();
        let before_delays = delays.clone();
        let mut eval = IncrementalEval::new(&model, design, delays, 1e-9);
        let before_arrival = eval.arrivals().to_vec();
        eval.try_width(&model, 3, 9.0);
        eval.revert();
        eval.try_vt(&model, 4, 0.2);
        eval.revert();
        assert_eq!(eval.design(), &before_design);
        for (a, b) in eval.delays().iter().zip(&before_delays) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in eval.arrivals().iter().zip(&before_arrival) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn double_open_probe_panics() {
        let (model, design) = setup();
        let delays = model.delays(&design);
        let mut eval = IncrementalEval::new(&model, design, delays, 1e-9);
        eval.try_width(&model, 2, 3.0);
        eval.try_width(&model, 3, 3.0);
    }
}
