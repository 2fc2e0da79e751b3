//! Result checks and summary statistics shared by the workloads.

use std::time::Instant;

use minpower_core::{OptimizationResult, Problem};
use minpower_timing::Sta;

/// Checks one sizing result against the paper's timing contract with
/// an independent dense STA pass, and its reported energy against a
/// fresh `total_energy` on the returned design (bit-equal).
pub fn recheck(problem: &Problem, result: &OptimizationResult) -> Result<(), String> {
    let model = problem.model();
    let energy = model.total_energy(&result.design, problem.fc()).total();
    if energy.to_bits() != result.energy.total().to_bits() {
        return Err(format!(
            "reported energy {:e} J differs from recomputed {:e} J",
            result.energy.total(),
            energy
        ));
    }
    if result.feasible {
        let delays = model.delays(&result.design);
        let sta = Sta::analyze(model.netlist(), &delays, problem.effective_cycle_time());
        let critical = sta.critical_delay();
        if critical.is_nan() || critical > problem.effective_cycle_time() {
            return Err(format!(
                "reported feasible, but dense STA finds critical delay {critical:e} s > cycle time {:e} s",
                problem.effective_cycle_time()
            ));
        }
    }
    Ok(())
}

/// FNV-1a over the bit patterns of a run's results: two runs of the
/// same code and seed must print the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Widths, thresholds, supply, energy and critical delay.
    pub fn result(&mut self, r: &OptimizationResult) {
        self.f64s(&r.design.width);
        self.f64s(&r.design.vt);
        self.f64(r.design.vdd);
        self.f64(r.energy.total());
        self.f64(r.critical_delay);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The clock of a measured phase, with the workload's repeated set-ups
/// spread evenly through it.
///
/// On a shared host, speed drifts over seconds, so set-ups run back to
/// back would all sample one moment of it. The `k`-th of `n` set-ups is
/// due `k / n` of the way through the phase, and set-up time does not
/// count towards the phase's length.
pub struct Phase {
    start: Instant,
    seconds: f64,
    setups: usize,
    setup_times: Vec<f64>,
}

impl Phase {
    /// Starts a phase of `seconds` of operations that holds `setups`
    /// set-ups.
    pub fn new(seconds: f64, setups: usize) -> Phase {
        Phase {
            start: Instant::now(),
            seconds,
            setups,
            setup_times: Vec::new(),
        }
    }

    /// Seconds of operations so far: the time since the start, set-ups
    /// excluded.
    fn measured(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.setup_times.iter().sum::<f64>()
    }

    /// Whether the phase has run its length.
    pub fn over(&self) -> bool {
        self.measured() >= self.seconds
    }

    /// Whether the next set-up is due, or is left over at the end of the
    /// phase.
    pub fn setup_due(&self) -> bool {
        let done = self.setup_times.len();
        done < self.setups
            && (self.over() || self.measured() >= self.seconds * done as f64 / self.setups as f64)
    }

    /// Runs and times one set-up; `f` gets the set-up's index.
    pub fn setup<T>(&mut self, f: impl FnOnce(u64) -> T) -> T {
        let t0 = Instant::now();
        let value = f(self.setup_times.len() as u64);
        self.setup_times.push(t0.elapsed().as_secs_f64());
        value
    }

    /// How many set-ups ran, and their median time.
    pub fn setup_median(&self) -> (usize, f64) {
        (self.setup_times.len(), median(&self.setup_times))
    }
}
