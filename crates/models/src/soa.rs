//! Levelized structure-of-arrays evaluation kernel with batched
//! speculative width probes.
//!
//! [`CircuitModel`] stores per-gate `Vec`s behind a `Vec` of structs —
//! fine at ISCAS scale, but a pointer chase per gate once netlists reach
//! 10⁵–10⁶ gates. [`SoaKernel`] flattens the model once into contiguous
//! parallel arrays (per-gate constants, fanout edges in CSR form, a
//! [`LevelizedCsr`] over the netlist) so a full delay/arrival/energy pass
//! is a few tight sweeps over flat `f64` buffers.
//!
//! The kernel also batches the innermost loop of Procedure 2. A scalar
//! sizer bisects each gate's width with `M` sequential `gate_delay`
//! probes, and every probe re-derives the gate's width-independent terms —
//! a `powf`, an `exp`/`ln_1p`, the wire RC fold. One sizing sweep is
//! embarrassingly independent across gates (each bisection reads only
//! *pre-sweep* sink widths, the fixed budget vector and the gate's own
//! threshold), so the sweep hoists those invariants once per gate — the
//! threshold-only ones once per run of equal thresholds — and runs the
//! gate's `M` bisection steps against the hoisted constants: a handful
//! of mul/add per probe instead of a full `gate_delay`.
//!
//! There is one sweep routine and one delay routine over the same chunks
//! of [`SWEEP_CHUNK`] logic gates of the levelized order.
//! [`SoaKernel::size_sweep_threaded`] hands the chunks to up to `threads`
//! workers, each writing its chunk's new widths to a staging slice, and
//! commits them after the join. [`SoaKernel::delays_into_threaded`] hands
//! the same chunks to the same workers to compute every gate's
//! fanin-independent delay terms (switching, internal-node and wire
//! delay, slope coefficient) from the threshold-only hoists, then folds
//! the slope terms in one serial levelized pass.
//! [`SoaKernel::size_sweep`] and [`SoaKernel::delays_into`] are the same
//! routines on the calling thread alone. Widths and delays are the same
//! bits at every thread count.
//!
//! Bit-identity contract: every method here produces bitwise the value of
//! its [`CircuitModel`] counterpart. The hoists are exact — `drive_current
//! = (k·w)·overdrive^α` factors the `powf` out of the width loop without
//! reassociating anything width-dependent, `off_current = w·leak_per_w`
//! likewise — and per-gate fold orders (fanin order, fanout edge order,
//! gate index order for energy sums, `gate_delay`'s term order) are
//! preserved by construction. The unit tests below check the batched
//! sweep against a scalar gate-by-gate transcription and the split delay
//! pass against [`CircuitModel::delays_into`] bit for bit, under every
//! partition and thread count, and `minpower-core`'s golden sizing
//! fixtures freeze the end-to-end results.

use std::sync::{Mutex, PoisonError};

use minpower_device::Technology;
use minpower_netlist::LevelizedCsr;

use crate::circuit::{CircuitModel, PO_LOAD_WIDTHS};
use crate::design::Design;
use crate::energy::EnergyBreakdown;

/// Sentinel sink index for a primary-output load (the `None` edge target
/// of the model's fanout list).
const PO_SENTINEL: u32 = u32::MAX;

/// Flat, levelized mirror of a [`CircuitModel`]: per-gate constants and
/// fanout edges as parallel arrays. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SoaKernel {
    csr: LevelizedCsr,
    tech: Technology,
    is_input: Vec<bool>,
    fanin_count: Vec<f64>,
    stack: Vec<f64>,
    activity: Vec<f64>,
    /// CSR offsets into the edge arrays; includes the pseudo-edges the
    /// model appends for primary-output loads.
    edge_offsets: Vec<u32>,
    /// Sink gate index per edge, or [`PO_SENTINEL`] for an output load.
    edge_target: Vec<u32>,
    edge_c_int: Vec<f64>,
    edge_r_int: Vec<f64>,
    edge_flight: Vec<f64>,
    /// The most fanout edges of any one gate (the sweep's per-worker
    /// load-term buffer size).
    max_fanout_edges: usize,
}

impl SoaKernel {
    /// Flattens `model` into SoA buffers. `O(V + E)`.
    pub fn new(model: &CircuitModel) -> Self {
        let n = model.info.len();
        let mut kernel = SoaKernel {
            csr: LevelizedCsr::new(&model.netlist),
            tech: model.tech.clone(),
            is_input: Vec::with_capacity(n),
            fanin_count: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            activity: Vec::with_capacity(n),
            edge_offsets: Vec::with_capacity(n + 1),
            edge_target: Vec::new(),
            edge_c_int: Vec::new(),
            edge_r_int: Vec::new(),
            edge_flight: Vec::new(),
            max_fanout_edges: 0,
        };
        kernel.edge_offsets.push(0);
        for g in &model.info {
            kernel.is_input.push(g.is_input);
            kernel.fanin_count.push(g.fanin_count);
            kernel.stack.push(g.stack);
            kernel.activity.push(g.activity);
            for e in &g.fanout {
                kernel.edge_target.push(e.target.unwrap_or(PO_SENTINEL));
                kernel.edge_c_int.push(e.c_int);
                kernel.edge_r_int.push(e.r_int);
                kernel.edge_flight.push(e.flight);
            }
            kernel.edge_offsets.push(kernel.edge_target.len() as u32);
            kernel.max_fanout_edges = kernel.max_fanout_edges.max(g.fanout.len());
        }
        kernel
    }

    /// The levelized index view the kernel sweeps over.
    pub fn csr(&self) -> &LevelizedCsr {
        &self.csr
    }

    /// Total gate count (primary inputs included).
    pub fn gate_count(&self) -> usize {
        self.is_input.len()
    }

    /// The fanout-edge range of gate `i` in the flat edge arrays.
    #[inline]
    fn edges(&self, i: usize) -> std::ops::Range<usize> {
        self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize
    }

    /// Walks gate `i`'s fanout edges in edge order against `design`'s
    /// sink widths, handing each edge's load `c_sink + c_int` to `load`;
    /// returns the wire delay, the largest edge RC + flight term.
    #[inline]
    fn fold_loads(&self, design: &Design, i: usize, mut load: impl FnMut(f64)) -> f64 {
        let tech = &self.tech;
        let mut t_wire: f64 = 0.0;
        for e in self.edges(i) {
            let t = self.edge_target[e];
            let sink_w = if t == PO_SENTINEL {
                PO_LOAD_WIDTHS
            } else {
                design.width[t as usize]
            };
            let c_sink = sink_w * tech.c_in;
            load(c_sink + self.edge_c_int[e]);
            t_wire = t_wire.max(
                self.edge_r_int[e] * (c_sink + self.edge_c_int[e] / 2.0) + self.edge_flight[e],
            );
        }
        t_wire
    }

    /// Logic gate `i`'s drive constants under the threshold hoists `vt`.
    #[inline]
    fn drive(&self, i: usize, vt: VtTerms) -> Drive {
        Drive {
            od_pow: vt.od_pow,
            leak_per_w: vt.leak_per_w,
            cmi_pre: (self.fanin_count[i] - 1.0).max(0.0) * self.tech.c_mi,
            stack: self.stack[i],
            fanin_count: self.fanin_count[i],
        }
    }

    /// Logic gate `i`'s fanin-independent delay terms under `design`,
    /// given the hoists `vt` of its threshold.
    #[inline]
    fn delay_terms(&self, design: &Design, i: usize, vt: VtTerms) -> DelayTerms {
        let w = design.width[i];
        let mut c_load = w * self.tech.c_pd;
        let t_wire = self.fold_loads(design, i, |c| c_load += c);
        match self
            .drive(i, vt)
            .switch_terms(&self.tech, design.vdd, w, c_load)
        {
            Some((t_switch, t_internal)) => DelayTerms {
                slope_coeff: vt.slope_coeff,
                t_switch,
                t_internal,
                t_wire,
            },
            None => DelayTerms::BLOCKED,
        }
    }

    /// [`CircuitModel::gate_delay`] over the flat arrays — bitwise the
    /// same value for the same inputs.
    #[inline]
    pub fn gate_delay(&self, design: &Design, i: usize, max_fanin_delay: f64) -> f64 {
        if self.is_input[i] {
            return 0.0;
        }
        let vt = VtTerms::new(&self.tech, design.vdd, design.vt[i]);
        self.delay_terms(design, i, vt).delay(max_fanin_delay)
    }

    /// [`CircuitModel::delays_into`] on the calling thread:
    /// [`delays_into_threaded`](Self::delays_into_threaded) with one
    /// worker and a fresh term buffer.
    pub fn delays_into(&self, design: &Design, delays: &mut Vec<f64>) {
        self.delays_into_threaded(1, design, delays, &mut SizeScratch::new());
    }

    /// [`CircuitModel::delays_into`] split over up to `threads` workers:
    /// bitwise the same vector at every thread count.
    ///
    /// A gate's delay is `slope_coeff · max_fanin_delay` plus terms that
    /// depend only on its own width, threshold and sink widths. So a
    /// local pass computes those terms — slope coefficient, switching,
    /// internal-node and wire delay, from the threshold-only hoists
    /// memoized across equal thresholds — for every logic gate, over the
    /// width sweep's [`SWEEP_CHUNK`]-gate chunks and workers, into
    /// `scratch`. A serial fold in levelized order then adds each gate's
    /// slope term in `gate_delay`'s order, and gives `INFINITY` where the
    /// drive current does not exceed the leakage. A netlist of one chunk
    /// runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic.
    pub fn delays_into_threaded(
        &self,
        threads: usize,
        design: &Design,
        delays: &mut Vec<f64>,
        scratch: &mut SizeScratch,
    ) {
        self.delays_in_chunks(threads, SWEEP_CHUNK, design, delays, scratch);
    }

    /// The delay pass over `chunk`-gate chunks on up to `threads`
    /// workers.
    fn delays_in_chunks(
        &self,
        threads: usize,
        chunk: usize,
        design: &Design,
        delays: &mut Vec<f64>,
        scratch: &mut SizeScratch,
    ) {
        let logic = self.logic_order();
        scratch.delay_terms.resize(logic.len(), DelayTerms::BLOCKED);
        let terms = &mut scratch.delay_terms[..];
        let mut workers = vec![(); self.workers(threads, chunk)];
        self.in_chunks(chunk, &mut workers, terms, |gates, out, _| {
            let mut memo = VtMemo::default();
            for (&g, out) in gates.iter().zip(out) {
                let i = g as usize;
                let vt = memo.get(&self.tech, design.vdd, design.vt[i]);
                *out = self.delay_terms(design, i, vt);
            }
            0.0
        });
        delays.clear();
        delays.resize(self.gate_count(), 0.0);
        for (&g, t) in logic.iter().zip(terms.iter()) {
            let i = g as usize;
            let max_fanin = self
                .csr
                .fanin_of(i)
                .iter()
                .map(|&f| delays[f as usize])
                .fold(0.0, f64::max);
            delays[i] = t.delay(max_fanin);
        }
    }

    /// [`CircuitModel::timing_into`]: delays plus the arrival sweep,
    /// returning the critical delay. Bitwise the dense values.
    pub fn timing_into(
        &self,
        design: &Design,
        delays: &mut Vec<f64>,
        arrival: &mut Vec<f64>,
    ) -> f64 {
        self.delays_into(design, delays);
        arrival.clear();
        arrival.resize(self.gate_count(), 0.0);
        for &i in self.csr.order() {
            let i = i as usize;
            let latest = self
                .csr
                .fanin_of(i)
                .iter()
                .map(|&f| arrival[f as usize])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
        self.csr
            .outputs()
            .iter()
            .map(|&o| arrival[o as usize])
            .fold(0.0, f64::max)
    }

    /// [`CircuitModel::gate_static_energy`] over the flat arrays.
    pub fn gate_static_energy(&self, design: &Design, i: usize, fc: f64) -> f64 {
        if self.is_input[i] {
            return 0.0;
        }
        design.vdd * self.tech.off_current(design.width[i], design.vt[i]) / fc
    }

    /// [`CircuitModel::gate_dynamic_energy`] over the flat arrays.
    pub fn gate_dynamic_energy(&self, design: &Design, i: usize) -> f64 {
        if self.is_input[i] {
            return 0.0;
        }
        let tech = &self.tech;
        let w = design.width[i];
        let mut c_sw = w * tech.c_pd + (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w;
        self.fold_loads(design, i, |c| c_sw += c);
        0.5 * self.activity[i] * design.vdd * design.vdd * c_sw
    }

    /// [`CircuitModel::total_energy`]: index-order accumulation, bitwise
    /// the dense breakdown.
    pub fn total_energy(&self, design: &Design, fc: f64) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for i in 0..self.gate_count() {
            total.static_ += self.gate_static_energy(design, i, fc);
            total.dynamic += self.gate_dynamic_energy(design, i);
        }
        total
    }

    /// One fixed-point width-sizing sweep of Procedure 2 on the calling
    /// thread: [`size_sweep_threaded`](Self::size_sweep_threaded) with one
    /// worker.
    pub fn size_sweep(
        &self,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
        scratch: &mut SizeScratch,
    ) -> f64 {
        self.size_sweep_threaded(1, design, budgets, last_delays, steps, margin, scratch)
    }

    /// One fixed-point width-sizing sweep of Procedure 2, batched and
    /// split over up to `threads` workers: each logic gate's width is
    /// bisected to the smallest value whose delay meets
    /// `budgets[i] * margin`, with the slope-term input
    /// `max(min(budget, 1.05 × last_delay))` over its fanins, the
    /// minimum-width endpoint tried after the bisection, and the maximum
    /// width kept when no probe was feasible. Per gate, the
    /// width-independent terms (slope, wire RC, `overdrive^α`, per-width
    /// leakage, load terms from the sink widths) are hoisted once, and
    /// the `steps` bisection probes run against them — a handful of
    /// mul/add per probe instead of a full `gate_delay` with its `powf`s.
    ///
    /// Within one sweep gates are independent: a gate reads only its
    /// sinks' widths (strictly later levels, which still hold their
    /// pre-sweep values), the fixed `budgets` / `last_delays` and its own
    /// threshold. So the logic gates of the levelized order are cut into
    /// contiguous chunks of [`SWEEP_CHUNK`] gates, which workers take in
    /// turn; each chunk reads the pre-sweep `design` and writes its new
    /// widths to its own slice of `scratch`, and the widths are committed
    /// after every chunk is done. The result is bitwise that of a scalar
    /// gate-by-gate sweep whatever the thread count; a netlist of one
    /// chunk sweeps on the calling thread.
    ///
    /// Returns the sweep's maximum relative width change (the scalar
    /// loop's convergence measure; a `max` fold over non-NaN values, so
    /// chunk order does not matter).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `budgets` / `last_delays` don't cover
    /// every gate; re-raises a worker's panic.
    #[allow(clippy::too_many_arguments)]
    pub fn size_sweep_threaded(
        &self,
        threads: usize,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
        scratch: &mut SizeScratch,
    ) -> f64 {
        let sweep = Sweep {
            budgets,
            last_delays,
            steps,
            margin,
        };
        self.sweep_in_chunks(threads, SWEEP_CHUNK, design, &sweep, scratch)
    }

    /// Number of [`SWEEP_CHUNK`]-gate chunks a width sweep or delay pass
    /// splits into — the most workers
    /// [`size_sweep_threaded`](Self::size_sweep_threaded) and
    /// [`delays_into_threaded`](Self::delays_into_threaded) use.
    pub fn sweep_chunks(&self) -> usize {
        self.logic_order().len().div_ceil(SWEEP_CHUNK)
    }

    /// The logic gates of the levelized order: level 0 holds exactly the
    /// primary inputs, and every logic gate has a fanin.
    fn logic_order(&self) -> &[u32] {
        &self.csr.order()[self.csr.input_count()..]
    }

    /// Workers for a pass over `chunk`-gate chunks on up to `threads`
    /// threads: never more than there are chunks, at least one.
    fn workers(&self, threads: usize, chunk: usize) -> usize {
        threads.clamp(1, self.logic_order().len().div_ceil(chunk).max(1))
    }

    /// Hands the `chunk`-gate chunks of the logic order, each with the
    /// matching chunk of `out` (one entry per logic gate), to one worker
    /// per entry of `locals` — the calling thread plus scoped helper
    /// threads — which run `work` on them with that entry as its own
    /// state. Returns the largest of `work`'s results (0 for no chunks).
    fn in_chunks<T: Send, L: Send>(
        &self,
        chunk: usize,
        locals: &mut [L],
        out: &mut [T],
        work: impl Fn(&[u32], &mut [T], &mut L) -> f64 + Sync,
    ) -> f64 {
        let queue = Mutex::new(self.logic_order().chunks(chunk).zip(out.chunks_mut(chunk)));
        let drain = |local: &mut L| {
            let mut max = 0.0f64;
            loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((gates, out)) = next else {
                    return max;
                };
                max = max.max(work(gates, out, local));
            }
        };
        let drain = &drain;
        let (own, helpers) = locals.split_first_mut().expect("at least one worker");
        if helpers.is_empty() {
            drain(own)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = helpers
                    .iter_mut()
                    .map(|local| s.spawn(move || drain(local)))
                    .collect();
                let own = drain(own);
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .fold(own, f64::max)
            })
        }
    }

    /// The sweep over `chunk`-gate chunks on up to `threads` workers; the
    /// calling thread is one of them.
    fn sweep_in_chunks(
        &self,
        threads: usize,
        chunk: usize,
        design: &mut Design,
        sweep: &Sweep<'_>,
        scratch: &mut SizeScratch,
    ) -> f64 {
        debug_assert_eq!(sweep.budgets.len(), self.gate_count());
        debug_assert_eq!(sweep.last_delays.len(), self.gate_count());
        let logic = self.logic_order();
        let workers = self.workers(threads, chunk);
        // Sized here, on the calling thread, so workers never allocate.
        scratch.reserve_sweep(workers, logic.len(), self.max_fanout_edges);
        let SizeScratch { staged, terms, .. } = scratch;
        let before: &Design = design;
        let max_rel_change =
            self.in_chunks(chunk, &mut terms[..workers], staged, |gates, out, terms| {
                self.sweep_chunk(before, sweep, gates, out, terms)
            });
        for (&g, &w) in logic.iter().zip(staged.iter()) {
            design.width[g as usize] = w;
        }
        max_rel_change
    }

    /// Sizes the logic gates `gates` against the pre-sweep `design`,
    /// writing gate `gates[k]`'s new width to `out[k]`; returns the
    /// chunk's maximum relative width change. `terms` is the per-gate
    /// load-term buffer.
    fn sweep_chunk(
        &self,
        design: &Design,
        sweep: &Sweep<'_>,
        gates: &[u32],
        out: &mut [f64],
        terms: &mut Vec<f64>,
    ) -> f64 {
        let tech = &self.tech;
        let (w_lo, w_hi) = tech.w_range;
        let vdd = design.vdd;
        let (budgets, last_delays) = (sweep.budgets, sweep.last_delays);
        let mut max_rel_change = 0.0f64;
        let mut memo = VtMemo::default();
        for (&gi, out) in gates.iter().zip(out) {
            let i = gi as usize;
            debug_assert!(!self.is_input[i]);
            let vt = memo.get(tech, vdd, design.vt[i]);
            let max_fanin = self
                .csr
                .fanin_of(i)
                .iter()
                .map(|&f| {
                    let j = f as usize;
                    budgets[j].min(last_delays[j] * 1.05)
                })
                .fold(0.0, f64::max);
            terms.clear();
            let t_wire = self.fold_loads(design, i, |c| terms.push(c));
            let lane = Lane {
                t_slope: vt.slope_coeff * max_fanin,
                t_wire,
                drive: self.drive(i, vt),
            };
            let target = budgets[i] * sweep.margin;
            let mut lo = w_lo;
            let mut hi = w_hi;
            let mut feasible = f64::NAN;
            for _ in 0..sweep.steps {
                let w = 0.5 * (lo + hi);
                if lane.probe_delay(tech, vdd, terms, w) <= target {
                    feasible = w;
                    hi = w;
                } else {
                    lo = w;
                }
            }
            // Minimum-width endpoint the bisection never lands on.
            if lane.probe_delay(tech, vdd, terms, w_lo) <= target {
                feasible = w_lo;
            }
            let w_new = if feasible.is_nan() { w_hi } else { feasible };
            *out = w_new;
            let before = design.width[i];
            let rel = (w_new - before).abs() / before.max(w_lo);
            max_rel_change = max_rel_change.max(rel);
        }
        max_rel_change
    }
}

/// Logic gates per chunk of a width sweep or delay pass: the unit of work
/// [`SoaKernel::size_sweep_threaded`] and
/// [`SoaKernel::delays_into_threaded`] hand to a worker. A constant, so
/// the partition depends only on the netlist; a netlist of at most this
/// many logic gates runs on the calling thread.
pub const SWEEP_CHUNK: usize = 4096;

/// The fixed inputs of one width sweep, shared by all its chunks.
struct Sweep<'a> {
    budgets: &'a [f64],
    last_delays: &'a [f64],
    steps: usize,
    margin: f64,
}

/// The hoisted terms of `gate_delay` that depend only on `(vdd, vt)`.
#[derive(Debug, Clone, Copy)]
struct VtTerms {
    slope_coeff: f64,
    /// `overdrive(vdd, vt)^α` — the hoisted `powf` of `drive_current`.
    od_pow: f64,
    /// `off_current(w, vt) / w` — the hoisted width-independent leakage.
    leak_per_w: f64,
}

impl VtTerms {
    fn new(tech: &Technology, vdd: f64, vt: f64) -> Self {
        VtTerms {
            slope_coeff: (0.5 - (1.0 - vt / vdd) / (1.0 + tech.alpha)).max(0.0),
            od_pow: tech.overdrive(vdd, vt).powf(tech.alpha),
            leak_per_w: tech.i_off0 * 10f64.powf(-vt / tech.subthreshold_swing()) + tech.i_junction,
        }
    }
}

/// The [`VtTerms`] of the previous gate of a pass: pure functions of
/// `(vdd, vt)`, so a gate with the same `vt` bits reuses them unchanged.
#[derive(Default)]
struct VtMemo(Option<(u64, VtTerms)>);

impl VtMemo {
    #[inline]
    fn get(&mut self, tech: &Technology, vdd: f64, vt: f64) -> VtTerms {
        match self.0 {
            Some((bits, terms)) if bits == vt.to_bits() => terms,
            _ => {
                let terms = VtTerms::new(tech, vdd, vt);
                self.0 = Some((vt.to_bits(), terms));
                terms
            }
        }
    }
}

/// One logic gate's width-independent drive constants.
struct Drive {
    od_pow: f64,
    leak_per_w: f64,
    /// `max(fanin_count − 1, 0) · c_mi` — the internal-node prefactor.
    cmi_pre: f64,
    stack: f64,
    fanin_count: f64,
}

impl Drive {
    /// The switching and internal-node delays at width `w` driving
    /// `c_load`, bitwise `gate_delay`'s; `None` where the drive current
    /// does not exceed the leakage (`gate_delay`'s `INFINITY`).
    #[inline]
    fn switch_terms(&self, tech: &Technology, vdd: f64, w: f64, c_load: f64) -> Option<(f64, f64)> {
        // `drive_current(w, vdd, vt)`, with its `powf` hoisted.
        let i_d = tech.k_drive * w * self.od_pow;
        let i_on = i_d / self.stack;
        let i_leak = self.fanin_count * (w * self.leak_per_w);
        let i_drive = i_on - i_leak;
        if i_drive <= 0.0 {
            return None;
        }
        let t_switch = vdd / 2.0 * c_load / i_drive;
        let t_internal = self.cmi_pre * w * vdd / i_d;
        Some((t_switch, t_internal))
    }
}

/// One gate's width-independent delay terms, hoisted out of its
/// bisection.
struct Lane {
    t_slope: f64,
    t_wire: f64,
    drive: Drive,
}

impl Lane {
    /// Candidate-width delay at width `w` from the hoisted terms and the
    /// per-edge load terms `c_sink + c_int`: bitwise what `gate_delay`
    /// computes for the same state.
    #[inline]
    fn probe_delay(&self, tech: &Technology, vdd: f64, terms: &[f64], w: f64) -> f64 {
        let mut c_load = w * tech.c_pd;
        for &term in terms {
            c_load += term;
        }
        match self.drive.switch_terms(tech, vdd, w, c_load) {
            Some((t_switch, t_internal)) => self.t_slope + t_switch + t_internal + self.t_wire,
            None => f64::INFINITY,
        }
    }
}

/// One logic gate's delay terms that do not depend on its fanins'
/// delays: everything of `gate_delay` but the slope input.
#[derive(Debug, Clone, Copy)]
struct DelayTerms {
    slope_coeff: f64,
    t_switch: f64,
    t_internal: f64,
    t_wire: f64,
}

impl DelayTerms {
    /// A gate whose drive current does not exceed its leakage. NaN marks
    /// it: a real slope coefficient is a `max(…, 0.0)`, never NaN.
    const BLOCKED: DelayTerms = DelayTerms {
        slope_coeff: f64::NAN,
        t_switch: 0.0,
        t_internal: 0.0,
        t_wire: 0.0,
    };

    /// The gate's delay given the largest delay among its drivers, in
    /// `gate_delay`'s order.
    #[inline]
    fn delay(&self, max_fanin_delay: f64) -> f64 {
        if self.slope_coeff.is_nan() {
            return f64::INFINITY;
        }
        self.slope_coeff * max_fanin_delay + self.t_switch + self.t_internal + self.t_wire
    }
}

/// Reusable buffers for [`SoaKernel::size_sweep_threaded`] and
/// [`SoaKernel::delays_into_threaded`]: the staged new widths and the
/// delay terms, one per logic gate in levelized order, and one load-term
/// buffer per worker. Sized on the calling thread.
#[derive(Debug, Clone, Default)]
pub struct SizeScratch {
    staged: Vec<f64>,
    terms: Vec<Vec<f64>>,
    delay_terms: Vec<DelayTerms>,
}

impl SizeScratch {
    /// A fresh, empty scratch. Buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        SizeScratch::default()
    }

    /// Room for a sweep of `gates` logic gates on `workers` workers whose
    /// gates have at most `edges` fanout edges each.
    fn reserve_sweep(&mut self, workers: usize, gates: usize, edges: usize) {
        self.staged.resize(gates, 0.0);
        if self.terms.len() < workers {
            self.terms.resize_with(workers, Vec::new);
        }
        for terms in &mut self.terms[..workers] {
            terms.reserve(edges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_netlist::{GateId, GateKind, Netlist, NetlistBuilder};

    /// Reconvergent network with shared fanout, a multi-input stack, and
    /// two primary outputs — exercises PO pseudo-edges and wire folds.
    fn web() -> Netlist {
        let mut b = NetlistBuilder::new("web");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate("u", GateKind::Nand, &["a", "c"]).unwrap();
        b.gate("v", GateKind::Nor, &["u", "c"]).unwrap();
        b.gate("w", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("x", GateKind::Or, &["w", "u"]).unwrap();
        b.gate("y", GateKind::Not, &["x"]).unwrap();
        b.gate("z", GateKind::Buf, &["w"]).unwrap();
        b.output("y").unwrap();
        b.output("z").unwrap();
        b.finish().unwrap()
    }

    fn model(netlist: &Netlist) -> CircuitModel {
        CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.4)
    }

    fn varied_design(n: &Netlist, vdd: f64) -> Design {
        let mut d = Design::uniform(n, vdd, 0.35, 2.0);
        for i in 0..n.gate_count() {
            d.width[i] = 1.0 + (i % 7) as f64 * 1.7;
            d.vt[i] = 0.25 + (i % 3) as f64 * 0.07;
        }
        d
    }

    #[test]
    fn kernel_passes_match_model_bitwise() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        for vdd in [0.6, 1.5, 3.3] {
            let d = varied_design(&n, vdd);
            let mut kd = Vec::new();
            let mut ka = Vec::new();
            let crit = k.timing_into(&d, &mut kd, &mut ka);
            let mut md = Vec::new();
            let mut ma = Vec::new();
            let mcrit = m.timing_into(&d, &mut md, &mut ma);
            assert_eq!(crit.to_bits(), mcrit.to_bits());
            for i in 0..n.gate_count() {
                assert_eq!(kd[i].to_bits(), md[i].to_bits(), "delay {i}");
                assert_eq!(ka[i].to_bits(), ma[i].to_bits(), "arrival {i}");
            }
            let ke = k.total_energy(&d, 3e8);
            let me = m.total_energy(&d, 3e8);
            assert_eq!(ke.static_.to_bits(), me.static_.to_bits());
            assert_eq!(ke.dynamic.to_bits(), me.dynamic.to_bits());
            for i in 0..n.gate_count() {
                let id = GateId::new(i);
                assert_eq!(
                    k.gate_static_energy(&d, i, 3e8).to_bits(),
                    m.gate_static_energy(&d, id, 3e8).to_bits()
                );
                assert_eq!(
                    k.gate_dynamic_energy(&d, i).to_bits(),
                    m.gate_dynamic_energy(&d, id).to_bits()
                );
            }
        }
    }

    /// The scalar reference sweep: the budgeted sizer's per-gate loop,
    /// transcribed from `minpower-core` (gate-by-gate bisection against
    /// the derated budget, minimum-width endpoint, convergence fold).
    fn scalar_sweep(
        m: &CircuitModel,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
    ) -> f64 {
        let tech = m.technology();
        let (w_lo, w_hi) = tech.w_range;
        let n = m.netlist();
        let mut max_rel_change = 0.0f64;
        for &id in n.topological_order() {
            let i = id.index();
            if n.gate(id).kind() == GateKind::Input {
                continue;
            }
            let max_fanin = n
                .gate(id)
                .fanin()
                .iter()
                .map(|f| {
                    let j = f.index();
                    budgets[j].min(last_delays[j] * 1.05)
                })
                .fold(0.0, f64::max);
            let before = design.width[i];
            let target = budgets[i] * margin;
            let mut lo = w_lo;
            let mut hi = w_hi;
            let mut feasible_w = None;
            for _ in 0..steps {
                let w = 0.5 * (lo + hi);
                design.width[i] = w;
                let t = m.gate_delay(design, id, max_fanin);
                if t <= target {
                    feasible_w = Some(w);
                    hi = w;
                } else {
                    lo = w;
                }
            }
            design.width[i] = w_lo;
            if m.gate_delay(design, id, max_fanin) <= target {
                feasible_w = Some(w_lo);
            }
            design.width[i] = feasible_w.unwrap_or(w_hi);
            let rel = (design.width[i] - before).abs() / before.max(w_lo);
            max_rel_change = max_rel_change.max(rel);
        }
        max_rel_change
    }

    #[test]
    fn batched_size_sweep_matches_scalar_bitwise() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let gates = n.gate_count();
        // Budgets spread around realistic stage delays for this process.
        let budgets: Vec<f64> = (0..gates).map(|i| 2e-10 * (1.0 + (i % 4) as f64)).collect();
        let mut scratch = SizeScratch::new();
        for vdd in [0.8, 1.5, 3.3] {
            let mut batched = varied_design(&n, vdd);
            let mut scalar = batched.clone();
            let mut last_delays = budgets.clone();
            // Several coupled sweeps so previous-sweep sink widths and the
            // `last_delays` feedback both get exercised.
            for _sweep in 0..3 {
                let rb = k.size_sweep(&mut batched, &budgets, &last_delays, 14, 0.97, &mut scratch);
                let rs = scalar_sweep(&m, &mut scalar, &budgets, &last_delays, 14, 0.97);
                assert_eq!(rb.to_bits(), rs.to_bits(), "rel-change diverged");
                for i in 0..gates {
                    assert_eq!(
                        batched.width[i].to_bits(),
                        scalar.width[i].to_bits(),
                        "width {i} diverged at vdd {vdd}"
                    );
                }
                k.delays_into(&batched, &mut last_delays);
            }
        }
    }

    /// A seeded ~2k-gate Rent netlist: many levels, wide fanouts.
    fn rent_2k() -> Netlist {
        let mut spec = minpower_circuits::BenchmarkSpec::rent("rent2000", 2000);
        spec.seed = 5;
        minpower_circuits::synthesize(&spec).expect("rent spec is valid")
    }

    /// Stage-delay budgets spread over a factor of four.
    fn spread_budgets(gates: usize) -> Vec<f64> {
        (0..gates).map(|i| 2e-10 * (1.0 + (i % 4) as f64)).collect()
    }

    /// Three coupled sweeps from `start` over `chunk`-gate chunks on
    /// `threads` workers: the bits of each sweep's relative change and of
    /// the widths after it.
    fn coupled_sweeps(
        k: &SoaKernel,
        start: &Design,
        budgets: &[f64],
        threads: usize,
        chunk: usize,
    ) -> Vec<(u64, Vec<u64>)> {
        let mut design = start.clone();
        let mut last_delays = budgets.to_vec();
        let mut scratch = SizeScratch::new();
        (0..3)
            .map(|_| {
                let sweep = Sweep {
                    budgets,
                    last_delays: &last_delays,
                    steps: 14,
                    margin: 0.97,
                };
                let rel = k.sweep_in_chunks(threads, chunk, &mut design, &sweep, &mut scratch);
                k.delays_into(&design, &mut last_delays);
                (
                    rel.to_bits(),
                    design.width.iter().map(|w| w.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn chunked_sweep_matches_single_chunk_bitwise() {
        for n in [web(), rent_2k()] {
            let m = model(&n);
            let k = SoaKernel::new(&m);
            let logic = n.logic_gate_count();
            let budgets = spread_budgets(n.gate_count());
            for vdd in [0.8, 3.3] {
                let start = varied_design(&n, vdd);
                let single = coupled_sweeps(&k, &start, &budgets, 1, logic);
                // The single chunk is the scalar gate-by-gate sweep.
                let mut scalar = start.clone();
                let mut last_delays = budgets.clone();
                for (rel, widths) in &single {
                    let rs = scalar_sweep(&m, &mut scalar, &budgets, &last_delays, 14, 0.97);
                    assert_eq!(rs.to_bits(), *rel, "{}: scalar rel-change", n.name());
                    let scalar_bits: Vec<u64> = scalar.width.iter().map(|w| w.to_bits()).collect();
                    assert_eq!(&scalar_bits, widths, "{}: scalar widths", n.name());
                    m.delays_into(&scalar, &mut last_delays);
                }
                for parts in [2, 3, logic] {
                    let chunk = logic.div_ceil(parts);
                    for threads in [1, 3] {
                        assert_eq!(
                            coupled_sweeps(&k, &start, &budgets, threads, chunk),
                            single,
                            "{}: {parts} chunks on {threads} thread(s), vdd {vdd}",
                            n.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_thread_counts_agree_bitwise() {
        let n = rent_2k();
        let k = SoaKernel::new(&model(&n));
        let budgets = spread_budgets(n.gate_count());
        let start = varied_design(&n, 1.5);
        let logic = n.logic_gate_count();
        for chunk in [logic.div_ceil(3), 100, 1] {
            let one = coupled_sweeps(&k, &start, &budgets, 1, chunk);
            for threads in [2, 3, 7] {
                assert_eq!(
                    coupled_sweeps(&k, &start, &budgets, threads, chunk),
                    one,
                    "{chunk}-gate chunks on {threads} threads"
                );
            }
        }
        // The public entry point: one chunk at this size, any thread count.
        let mut one = start.clone();
        let mut seven = start.clone();
        let mut scratch = SizeScratch::new();
        let r1 = k.size_sweep(&mut one, &budgets, &budgets, 14, 0.97, &mut scratch);
        let r7 = k.size_sweep_threaded(7, &mut seven, &budgets, &budgets, 14, 0.97, &mut scratch);
        assert_eq!(r1.to_bits(), r7.to_bits());
        assert_eq!(one.width, seven.width);
        assert_eq!(k.sweep_chunks(), logic.div_ceil(SWEEP_CHUNK));
    }

    /// The split delay pass over `chunk`-gate chunks on `threads`
    /// workers, as bits.
    fn split_delays(
        k: &SoaKernel,
        d: &Design,
        threads: usize,
        chunk: usize,
        scratch: &mut SizeScratch,
    ) -> Vec<u64> {
        let mut delays = vec![f64::NAN; 3];
        k.delays_in_chunks(threads, chunk, d, &mut delays, scratch);
        delays.iter().map(|t| t.to_bits()).collect()
    }

    fn model_delays(m: &CircuitModel, d: &Design) -> Vec<u64> {
        m.delays(d).iter().map(|t| t.to_bits()).collect()
    }

    /// Asserts the split delay pass equals the model's on `d` over 1, 2,
    /// 3 and one-gate partitions on 1 and 3 threads, and through the
    /// public entry points.
    fn assert_split_delays_match(m: &CircuitModel, k: &SoaKernel, d: &Design, what: &str) {
        let want = model_delays(m, d);
        let logic = m.netlist().logic_gate_count();
        let mut scratch = SizeScratch::new();
        for parts in [1, 2, 3, logic] {
            let chunk = logic.div_ceil(parts);
            for threads in [1, 3] {
                assert_eq!(
                    split_delays(k, d, threads, chunk, &mut scratch),
                    want,
                    "{what}: {parts} chunks on {threads} thread(s)"
                );
            }
        }
        let mut delays = Vec::new();
        k.delays_into_threaded(3, d, &mut delays, &mut scratch);
        assert_eq!(delays.iter().map(|t| t.to_bits()).collect::<Vec<_>>(), want);
        k.delays_into(d, &mut delays);
        assert_eq!(delays.iter().map(|t| t.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn split_delay_pass_matches_model_bitwise() {
        for n in [web(), rent_2k()] {
            let m = model(&n);
            let k = SoaKernel::new(&m);
            for vdd in [0.8, 3.3] {
                // Mixed per-gate thresholds make the memo miss; a uniform
                // one makes it hit.
                let mixed = varied_design(&n, vdd);
                let mut uniform = mixed.clone();
                uniform.vt.fill(0.35);
                assert_split_delays_match(&m, &k, &mixed, &format!("{} mixed vt {vdd}", n.name()));
                assert_split_delays_match(
                    &m,
                    &k,
                    &uniform,
                    &format!("{} uniform vt {vdd}", n.name()),
                );
            }
            // Post-sweep widths, the sizer's use.
            let budgets = spread_budgets(n.gate_count());
            let mut d = varied_design(&n, 1.5);
            k.size_sweep(
                &mut d,
                &budgets,
                &budgets,
                14,
                0.97,
                &mut SizeScratch::new(),
            );
            assert_split_delays_match(&m, &k, &d, &format!("{} swept", n.name()));
        }
    }

    #[test]
    fn blocked_gate_is_infinite_downstream_as_in_the_model() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let mut d = varied_design(&n, 0.8);
        // A threshold far above the supply: the drive current falls below
        // the junction leakage, so `u` cannot switch.
        let u = n.find("u").unwrap().index();
        d.vt[u] = 3.0;
        let delays = m.delays(&d);
        assert_eq!(delays[u], f64::INFINITY);
        for name in ["v", "w", "x", "y", "z"] {
            let i = n.find(name).unwrap().index();
            assert!(!delays[i].is_finite(), "{name} is downstream of u");
        }
        assert_eq!(k.gate_delay(&d, u, 0.0), f64::INFINITY);
        assert_split_delays_match(&m, &k, &d, "blocked u");
    }

    #[test]
    fn model_fingerprints_are_pinned() {
        // Checkpoints store the fingerprint inside their salt, so its
        // value must not drift.
        assert_eq!(model(&web()).fingerprint(), 0x9ea9_8b54_4fc3_802f);
        assert_eq!(
            model(&minpower_circuits::s27()).fingerprint(),
            0x00c9_2c1e_8147_b9e5
        );
    }

    #[test]
    fn infeasible_lane_takes_max_width() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let mut d = varied_design(&n, 1.5);
        // Impossible budgets: every lane's probes all fail, so every
        // logic gate lands on the maximum width (the scalar fallback).
        let budgets = vec![1e-18; n.gate_count()];
        let last_delays = budgets.clone();
        let mut scratch = SizeScratch::new();
        k.size_sweep(&mut d, &budgets, &last_delays, 6, 0.97, &mut scratch);
        let w_hi = m.technology().w_range.1;
        for i in 0..n.gate_count() {
            let id = GateId::new(i);
            if n.gate(id).kind() != GateKind::Input {
                assert_eq!(d.width[i], w_hi, "gate {i}");
            }
        }
    }
}
