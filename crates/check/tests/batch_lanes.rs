//! Lane triangulation for the row multiplier. Solo and batch calls run
//! one lane-generic body, so the checks here triangulate what can
//! still differ:
//!
//! * **backends** — every lane of a bit-sliced
//!   [`RowMultiplier::run_batch_in`] batch is checked against the
//!   software gold multiplier and against a one-lane run with that
//!   lane's operands on the packed backend (itself checked against the
//!   `cim-check` oracle by the differential suite): product, cycles,
//!   per-cell state and wear. A mutant test cross-wires two lanes to
//!   prove the harness catches lane bleed, and a lane-isolation suite
//!   injects one adversarial lane into a full 64-lane batch;
//! * **body dispatch** — a stuck scratch cell routes `run_batch_in`
//!   to the live-read reference shift-add, whose run must equal the
//!   fault-free word-level one (the bodies themselves are compared
//!   cell for cell in the cim-logic unit tests).

use cim_bigint::mul::schoolbook;
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_check::{BatchGen, LaneBatch};
use cim_crossbar::{Crossbar, EnduranceReport, ExecConfig, Executor, Fault, TraceEntry};
use cim_logic::multpim::{RowMultStats, RowMultiplier};
use proptest::prelude::*;

/// Converts a generated batch into multiplier operand pairs.
fn to_pairs(batch: &LaneBatch) -> Vec<(Uint, Uint)> {
    batch
        .lanes
        .iter()
        .map(|(a, b)| (Uint::from_bits(a), Uint::from_bits(b)))
        .collect()
}

/// One-lane run of one operand pair on a fresh packed array.
/// Returns the product, the run stats and the final array (for state
/// and wear comparison).
fn solo_run(width: usize, a: &Uint, b: &Uint) -> (Uint, RowMultStats, Crossbar) {
    let mult = RowMultiplier::new(width);
    let mut array = Crossbar::new(1, mult.required_cols()).unwrap();
    let (product, stats) = mult.run_in(&mut array, 0, 0, a, b).unwrap();
    (product, stats, array)
}

/// Triangulates every lane of `batch`: batch product vs gold, and
/// batch product/cycles/state/wear vs a packed solo run. `bleed`
/// optionally
/// cross-wires two lanes' sensed products first — simulating the lane
/// bleed bug this harness exists to catch.
///
/// Returns `Err` naming the first divergent lane instead of
/// panicking, so the mutant test can assert the harness fires.
fn triangulate(batch: &LaneBatch, bleed: Option<(usize, usize)>) -> Result<(), String> {
    let width = batch.width;
    let mult = RowMultiplier::new(width);
    let cols = mult.required_cols();
    let pairs = to_pairs(batch);
    let mut sliced =
        Crossbar::new_sliced(1, cols, pairs.len()).map_err(|e| format!("sliced array: {e}"))?;
    let (mut products, stats) = mult
        .run_batch_in(&mut sliced, 0, 0, &pairs)
        .map_err(|e| format!("batch run: {e}"))?;
    if let Some((i, j)) = bleed {
        products.swap(i, j);
    }
    for (lane, (a, b)) in pairs.iter().enumerate() {
        let gold = schoolbook::mul(a, b);
        if products[lane] != gold {
            return Err(format!("lane {lane}: batch product diverged from gold"));
        }
        let (solo_product, solo_stats, solo_array) = solo_run(width, a, b);
        if products[lane] != solo_product {
            return Err(format!("lane {lane}: batch product diverged from solo run"));
        }
        if stats != solo_stats {
            return Err(format!(
                "lane {lane}: batch stats {stats:?} != solo {solo_stats:?}"
            ));
        }
        // Per-lane final state and wear, cell for cell: lane `lane` of
        // the batch array must be indistinguishable from the solo
        // array's cells (value, write count, fault).
        for c in 0..cols {
            let lane_cell = sliced
                .lane_cell(lane, 0, c)
                .map_err(|e| format!("lane {lane}: lane_cell({c}): {e}"))?;
            let solo_cell = solo_array.cell(0, c).unwrap();
            if lane_cell != solo_cell {
                return Err(format!(
                    "lane {lane}: cell {c} diverged: batch {lane_cell:?} vs solo {solo_cell:?}"
                ));
            }
        }
        if EnduranceReport::from_lane(&sliced, lane) != EnduranceReport::from_array(&solo_array) {
            return Err(format!("lane {lane}: endurance report diverged from solo"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed batches (random lane count 1..=64, ragged widths within
    /// the bucket, adversarial extremes mixed in) triangulate clean on
    /// every lane.
    #[test]
    fn every_lane_triangulates_against_solo_and_gold(seed in any::<u64>()) {
        let batch = BatchGen::new(seed).next_batch(10);
        if let Err(err) = triangulate(&batch, None) {
            prop_assert!(false, "seed {}: {}", seed, err);
        }
    }

    /// Lane isolation: one adversarial lane (all-ones, all-zeros, or
    /// max-width operands) injected into a full 64-lane batch leaves
    /// every other lane's product, cycles, state and wear
    /// bit-identical to a solo run. The harness compares *every* lane
    /// to its own solo reference, so a clean pass is exactly the
    /// isolation property.
    #[test]
    fn adversarial_lane_cannot_disturb_its_neighbours(
        operands in proptest::collection::vec(any::<u16>(), 64),
        adv_lane in 0usize..64,
        shape in 0usize..3,
    ) {
        let width = 8;
        let bits = |v: u16| (0..width).map(|i| v >> i & 1 == 1).collect::<Vec<bool>>();
        let mut lanes: Vec<(Vec<bool>, Vec<bool>)> = operands
            .iter()
            .map(|&v| (bits(v & 0xff), bits(v >> 8)))
            .collect();
        lanes[adv_lane] = match shape {
            0 => (vec![true; width], vec![true; width]),   // all-ones
            1 => (vec![false; width], vec![false; width]), // all-zeros
            // max-width: top bit forced on both operands
            _ => (bits(operands[adv_lane] | 0x80), bits(operands[adv_lane] >> 8 | 0x80)),
        };
        let batch = LaneBatch { width, lanes };
        if let Err(err) = triangulate(&batch, None) {
            prop_assert!(false, "adv lane {} shape {}: {}", adv_lane, shape, err);
        }
    }
}

/// Pinned seeds so harness failures replay without the proptest
/// shrinker.
#[test]
fn pinned_batches_triangulate() {
    for seed in [0u64, 1, 0xdead_beef, 0x5eed] {
        let batch = BatchGen::new(seed).next_batch(12);
        triangulate(&batch, None)
            .unwrap_or_else(|err| panic!("pinned seed {seed:#x}: {err}"));
    }
}

/// Mutant: cross-wiring two lanes' products (the observable effect of
/// a lane-bleed bug in the sliced backend) must trip the harness —
/// evidence the triangulation actually discriminates lanes rather
/// than comparing aggregates.
#[test]
fn lane_bleed_mutant_is_caught() {
    let mut gen = BatchGen::new(0xb1eed);
    loop {
        let batch = gen.next_batch(8);
        if batch.lanes.len() < 2 {
            continue;
        }
        let pairs = to_pairs(&batch);
        // Find two lanes whose expected products differ, so the swap
        // is observable.
        let golds: Vec<Uint> = pairs.iter().map(|(a, b)| schoolbook::mul(a, b)).collect();
        let Some(j) = (1..golds.len()).find(|&j| golds[j] != golds[0]) else {
            continue;
        };
        triangulate(&batch, None).expect("unmutated batch must triangulate clean");
        let err = triangulate(&batch, Some((0, j)))
            .expect_err("cross-wired lanes must fail triangulation");
        assert!(
            err.contains("diverged"),
            "error must name a divergence, got: {err}"
        );
        return;
    }
}

/// A full batch's operand-loading program on a sliced array is
/// trace-identical to a one-lane load on a packed array: same op
/// count, same trace records (`Write {{ row, bits }}` events whatever
/// the lane count), same cycle cost.
#[test]
fn batch_load_trace_matches_solo_load_trace() {
    let width = 8;
    let mult = RowMultiplier::new(width);
    let cols = mult.required_cols();
    let pairs: Vec<(Uint, Uint)> = (0..5u64)
        .map(|l| (Uint::from_u64(0xa5 ^ l), Uint::from_u64(0x3c ^ l)))
        .collect();

    let run = |array: &mut Crossbar, program: &[cim_crossbar::MicroOp]| -> (u64, Vec<TraceEntry>) {
        let mut exec = Executor::with_config(
            array,
            ExecConfig {
                strict_init: true,
                record_trace: true,
            },
        );
        for op in program {
            exec.step(op).expect("load program must execute");
        }
        (exec.stats().cycles, exec.trace().to_vec())
    };

    let mut sliced = Crossbar::new_sliced(1, cols, pairs.len()).unwrap();
    let batch_prog = mult.load_batch_program(0, 0, &pairs);
    let (batch_cycles, batch_trace) = run(&mut sliced, &batch_prog);

    let mut solo = Crossbar::new(1, cols).unwrap();
    let solo_prog = mult.load_program(0, 0, &pairs[0].0, &pairs[0].1);
    let (solo_cycles, solo_trace) = run(&mut solo, &solo_prog);

    assert_eq!(batch_prog.len(), solo_prog.len(), "same op count");
    assert_eq!(batch_cycles, solo_cycles, "same cycle cost");
    assert_eq!(batch_trace, solo_trace, "same trace records");
}

/// Body dispatch through the public API: a stuck-at-0 on one scratch
/// cell (scratch is only ever reset to 0, so no computed value
/// changes) makes `run_batch_in` take the live-read reference body,
/// and the result must equal the fault-free run's word-level fast
/// body in every lane's products, endurance and cells — the forced
/// cell's fault flag aside. The bodies themselves are compared cell
/// for cell across backends, lane counts and faults by the cim-logic
/// unit test `fast_shift_add_matches_reference_cell_for_cell`.
#[test]
fn stuck_scratch_cell_forces_an_identical_reference_run() {
    let mut rng = UintRng::seeded(0xfa57);
    let (width, lanes) = (9, 64);
    let mult = RowMultiplier::new(width);
    let cols = mult.required_cols();
    let mut fast = Crossbar::new_sliced(1, cols, lanes).unwrap();
    let mut reference = Crossbar::new_sliced(1, cols, lanes).unwrap();
    let forced = 5 * width; // first scratch cell
    reference
        .inject_fault(0, forced, Some(Fault::StuckAt0))
        .unwrap();
    let pairs: Vec<(Uint, Uint)> = (0..lanes)
        .map(|_| (rng.uniform(width), rng.uniform(width)))
        .collect();
    let (products, stats) = mult.run_batch_in(&mut fast, 0, 0, &pairs).unwrap();
    assert_eq!(
        mult.run_batch_in(&mut reference, 0, 0, &pairs).unwrap(),
        (products.clone(), stats)
    );
    for ((a, b), p) in pairs.iter().zip(&products) {
        assert_eq!(*p, schoolbook::mul(a, b));
    }
    assert_eq!(
        EnduranceReport::per_lane(&fast),
        EnduranceReport::per_lane(&reference)
    );
    for lane in 0..lanes {
        for c in 0..cols {
            let f = fast.lane_cell(lane, 0, c).unwrap();
            let r = reference.lane_cell(lane, 0, c).unwrap();
            if c == forced {
                assert_eq!(r.fault(), Some(Fault::StuckAt0));
                assert_eq!((f.read(), f.writes()), (r.read(), r.writes()));
            } else {
                assert_eq!(f, r, "lane {lane}, cell {c}");
            }
        }
    }
}

/// A one-pair `multiply_batch` runs the packed backend, like
/// `multiply`, and must report the same product, stage cycles and
/// per-stage endurance — at O0 and at the maximum opt level.
#[test]
fn one_pair_batch_equals_multiply() {
    use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
    let mut rng = UintRng::seeded(0x1a4e);
    for opt in [cim_mir::OptLevel::O0, cim_mir::OptLevel::MAX] {
        for n in [16usize, 64, 256] {
            let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).unwrap();
            let (a, b) = (rng.uniform(n), rng.uniform(n));
            let solo = mult.multiply(&a, &b).unwrap();
            let batch = mult.multiply_batch(&[(a.clone(), b.clone())]).unwrap();
            assert_eq!(batch.products, vec![solo.product], "n {n}, {opt:?}");
            assert_eq!(
                batch.stage_cycles, solo.report.stage_cycles,
                "n {n}, {opt:?}"
            );
            assert_eq!(
                batch.total_latency, solo.report.total_latency,
                "n {n}, {opt:?}"
            );
            let lane: Vec<EnduranceReport> = batch
                .lane_endurance
                .iter()
                .map(|stage| {
                    assert_eq!(stage.len(), 1, "one lane per stage");
                    stage[0].clone()
                })
                .collect();
            assert_eq!(lane, solo.report.endurance.to_vec(), "n {n}, {opt:?}");
        }
    }
}
