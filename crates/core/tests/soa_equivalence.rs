//! Bit-identity of the sizing stage against frozen golden outcomes, and
//! of the SoA evaluation kernel's dense passes against the scalar model.
//!
//! The budgeted sizer runs its width sweeps on the batched, levelized SoA
//! kernel and its critical-path repair on the incremental evaluation
//! layer. Both once had reference twins (a gate-by-gate scalar sweep and
//! a dense-recompute repair loop); their agreed outputs are now frozen in
//! `tests/fixtures/sizing_golden.txt` (see `golden/mod.rs`), and these
//! tests pin the sizing results to those bits across the paper's
//! ISCAS-style suite and seeded Rent's-rule synthetic netlists, end to end
//! through Procedure 2. The kernel's own scalar oracle lives in the
//! `models::soa` unit tests and in the randomized dense-pass test below.

mod golden;

#[test]
fn soa_sizing_matches_scalar_on_paper_suite() {
    golden::check_prefix("paper/");
}

#[test]
fn soa_sizing_matches_scalar_on_rent_netlists() {
    for gates in [200, 800, 2000] {
        golden::check_prefix(&format!("rent/{gates}"));
    }
}

/// One seeded 10k-gate Rent netlist through the standalone sizing stage.
#[test]
fn sizing_matches_golden_on_rent_10k() {
    golden::check_prefix("rent/10000");
}

/// Fixed points where the sweeps leave the critical path over the
/// cycle time, so the incremental repair loop does real work.
#[test]
fn sizing_matches_golden_where_the_repair_loop_runs() {
    golden::check_prefix("repair/");
}

#[test]
fn full_optimizer_matches_scalar_end_to_end() {
    golden::check_prefix("rent-e2e/optimize");
}

/// Seeded random operating points through the full sizing stage,
/// feasible or not.
#[test]
fn sizing_matches_at_random_operating_points() {
    golden::check_prefix("random/");
}

/// Rewrites `tests/fixtures/sizing_golden.txt` from the current code.
/// Run it only after a deliberate change of sizing results, and review
/// the diff of the fixture.
#[test]
#[ignore = "rewrites the committed golden fixture"]
fn regenerate_golden_fixtures() {
    golden::regenerate();
}

/// Randomized edit/width sequences: after arbitrary per-gate width and
/// threshold edits, the kernel's dense passes must stay bitwise equal to
/// the scalar model's. Self-contained generators (see
/// `crates/timing/tests/incremental_properties.rs`); the feature gates
/// the heavier randomized wall time out of the default `cargo test`.
///
/// Run with `cargo test -p minpower-core --features proptest`.
#[cfg(feature = "proptest")]
mod randomized {
    use super::golden::FC;
    use minpower_circuits::{synthesize, BenchmarkSpec};
    use minpower_device::Technology;
    use minpower_models::{CircuitModel, Design, SoaKernel};

    /// SplitMix64 — deterministic, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next_f64() * (hi - lo)
        }
    }

    fn assert_dense_passes_match(
        model: &CircuitModel,
        kernel: &SoaKernel,
        design: &Design,
        case: u64,
    ) {
        let (mut d_a, mut a_a) = (Vec::new(), Vec::new());
        let (mut d_b, mut a_b) = (Vec::new(), Vec::new());
        let crit_scalar = model.timing_into(design, &mut d_a, &mut a_a);
        let crit_soa = kernel.timing_into(design, &mut d_b, &mut a_b);
        assert_eq!(
            crit_scalar.to_bits(),
            crit_soa.to_bits(),
            "critical delay diverged (case {case})"
        );
        for (i, (x, y)) in d_a.iter().zip(d_b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "delay[{i}] diverged (case {case})"
            );
        }
        for (i, (x, y)) in a_a.iter().zip(a_b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "arrival[{i}] diverged (case {case})"
            );
        }
        let e_scalar = model.total_energy(design, FC);
        let e_soa = kernel.total_energy(design, FC);
        assert_eq!(e_scalar.static_.to_bits(), e_soa.static_.to_bits());
        assert_eq!(e_scalar.dynamic.to_bits(), e_soa.dynamic.to_bits());
    }

    /// Random Rent netlists under random width/threshold edit storms:
    /// the kernel's dense STA + energy passes track the scalar model
    /// bitwise after every committed batch of edits.
    #[test]
    fn dense_passes_match_under_random_edit_sequences() {
        let mut rng = Rng(0x50A_D15E);
        for case in 0..24u64 {
            let gates = 50 + rng.below(350);
            let spec = BenchmarkSpec::rent(&format!("rent-prop{case}-{gates}"), gates);
            let netlist = synthesize(&spec).expect("rent spec is valid");
            let model =
                CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, 0.3);
            let kernel = SoaKernel::new(&model);
            let (w_lo, w_hi) = model.technology().w_range;

            let vdd = rng.range(1.0, 3.3);
            let mut design = Design::uniform(&netlist, vdd, rng.range(0.2, 0.6), 4.0);
            let n = design.width.len();
            for _batch in 0..4 {
                for _ in 0..rng.below(64) {
                    let g = rng.below(n);
                    design.width[g] = rng.range(w_lo, w_hi);
                    if rng.below(4) == 0 {
                        design.vt[g] = rng.range(0.2, 0.6);
                    }
                }
                assert_dense_passes_match(&model, &kernel, &design, case);
            }
        }
    }
}
