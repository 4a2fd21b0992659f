//! Differential fuzzing: random verified programs executed on the
//! cycle-accurate [`Executor`] — once per crossbar backend (bit-packed
//! and 1-lane bit-sliced) — and on the reference [`GoldMatrix`] oracle
//! must agree on every observable effect: sensed reads, cycle counts,
//! and every cell's stored value, wear count and fault. Each backend's
//! measured wear must also equal the verifier's statically-predicted
//! write pressure, cell for cell. A seeded fault case injects and
//! clears stuck-at faults on both sides between ops.
//!
//! Every program also runs as a [`CheckedProgram`] through
//! [`Executor::run_checked`], split into op ranges at the fault
//! events: fault-free ranges take the fused init/NOR path, faulty ones
//! the per-op fallback. Its final state must equal the oracle's and
//! its cycle statistics and trace the raw run's.

use cim_check::{verify, GoldMatrix, ProgramGen, VerifyConfig};
use cim_crossbar::{
    Cell, CheckedProgram, Crossbar, CycleStats, ExecConfig, Executor, Fault, MicroOp, TraceEntry,
};
use proptest::prelude::*;

/// A stuck-at fault injected (or cleared, with `None`) just before
/// op `at` runs; `at == program.len()` means after the last op.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    at: usize,
    row: usize,
    col: usize,
    fault: Option<Fault>,
}

fn traced(array: &mut Crossbar, strict_init: bool) -> Executor<'_> {
    Executor::with_config(
        array,
        ExecConfig {
            strict_init,
            record_trace: true,
        },
    )
}

/// Sensed reads, statistics and trace of one executor run of
/// `program`, applying `faults` between ops. Panics if the executor
/// rejects an op or its trace misses one.
fn run_exec(
    array: &mut Crossbar,
    program: &[MicroOp],
    faults: &[FaultEvent],
    strict_init: bool,
    label: &str,
) -> (Vec<Vec<bool>>, CycleStats, Vec<TraceEntry>) {
    let kind = array.backend_kind();
    let mut exec = traced(array, strict_init);
    let mut reads: Vec<Vec<bool>> = Vec::new();
    for at in 0..=program.len() {
        for e in faults.iter().filter(|e| e.at == at) {
            exec.array_mut()
                .inject_fault(e.row, e.col, e.fault)
                .unwrap();
        }
        let Some(op) = program.get(at) else { break };
        exec.step(op)
            .unwrap_or_else(|e| panic!("{label}: {kind:?} executor rejected op {op:?}: {e}"));
        if matches!(op, MicroOp::ReadRow { .. }) {
            reads.push(exec.read_buffer().to_vec());
        }
    }
    assert_eq!(
        exec.trace().len(),
        program.len(),
        "{label}: trace must record every op"
    );
    (reads, *exec.stats(), exec.trace().to_vec())
}

/// [`run_exec`] through [`Executor::run_checked`]: one op range
/// between consecutive fault events.
fn run_checked_exec(
    array: &mut Crossbar,
    program: &CheckedProgram,
    faults: &[FaultEvent],
    strict_init: bool,
    label: &str,
) -> (CycleStats, Vec<TraceEntry>) {
    let kind = array.backend_kind();
    let mut exec = traced(array, strict_init);
    let mut from = 0;
    for at in 0..=program.len() {
        let events = faults.iter().filter(|e| e.at == at);
        if events.clone().next().is_none() && at < program.len() {
            continue;
        }
        exec.run_checked(program, from..at).unwrap_or_else(|e| {
            panic!("{label}: {kind:?} checked run rejected ops {from}..{at}: {e}")
        });
        from = at;
        for e in events {
            exec.array_mut()
                .inject_fault(e.row, e.col, e.fault)
                .unwrap();
        }
    }
    (*exec.stats(), exec.trace().to_vec())
}

/// Asserts that every cell of `array` equals the oracle's.
fn assert_cells_match(array: &Crossbar, gold: &GoldMatrix, what: &str) {
    for r in 0..gold.rows() {
        for c in 0..gold.cols() {
            assert_eq!(
                array.cell(r, c).unwrap(),
                gold.cell(r, c),
                "{what}: cell ({r}, {c}) diverged (value, wear, fault)"
            );
        }
    }
}

/// The oracle side of [`run_exec`]: reads, cycles and final state.
fn run_gold(
    rows: usize,
    cols: usize,
    program: &[MicroOp],
    faults: &[FaultEvent],
) -> (Vec<Vec<bool>>, GoldMatrix) {
    let mut gold = GoldMatrix::new(rows, cols);
    let mut reads = Vec::new();
    for at in 0..=program.len() {
        for e in faults.iter().filter(|e| e.at == at) {
            gold.inject_fault(e.row, e.col, e.fault);
        }
        let Some(op) = program.get(at) else { break };
        reads.extend(gold.apply(op));
    }
    (reads, gold)
}

/// Runs `program` on a packed and a 1-lane sliced array and on the
/// oracle, asserting that each backend matches the oracle on sensed
/// reads, cycles, and every cell's sensed bit, stored bit, wear and
/// fault — once op by op and once as a [`CheckedProgram`], whose
/// statistics and trace must also equal the op-by-op run's. Returns
/// the oracle, which both backends now equal, and the number of init
/// rows the checked program fused.
fn check_against_oracle(
    rows: usize,
    cols: usize,
    program: &[MicroOp],
    faults: &[FaultEvent],
    strict_init: bool,
    label: &str,
) -> (GoldMatrix, usize) {
    let (gold_reads, gold) = run_gold(rows, cols, program, faults);
    let checked = CheckedProgram::new(program.to_vec())
        .unwrap_or_else(|e| panic!("{label}: checked program rejected: {e}"));
    let make = |lanes: Option<usize>| match lanes {
        None => Crossbar::new(rows, cols).unwrap(),
        Some(lanes) => Crossbar::new_sliced(rows, cols, lanes).unwrap(),
    };
    for lanes in [None, Some(1)] {
        let mut array = make(lanes);
        let (reads, stats, trace) = run_exec(&mut array, program, faults, strict_init, label);
        let kind = array.backend_kind();
        assert_eq!(reads, gold_reads, "{label}: {kind:?} sensed reads diverged");
        assert_eq!(
            stats.cycles,
            gold.cycles(),
            "{label}: {kind:?} cycle count diverged"
        );
        for r in 0..rows {
            assert_eq!(
                array.read_row_bits(r, 0..cols).unwrap(),
                gold.row_bits(r, 0..cols),
                "{label}: {kind:?} final sensed state of row {r} diverged"
            );
        }
        assert_cells_match(&array, &gold, &format!("{label}: {kind:?}"));

        let mut array = make(lanes);
        let (checked_stats, checked_trace) =
            run_checked_exec(&mut array, &checked, faults, strict_init, label);
        assert_cells_match(&array, &gold, &format!("{label}: {kind:?} checked"));
        assert_eq!(checked_stats, stats, "{label}: {kind:?} checked stats diverged");
        assert_eq!(checked_trace, trace, "{label}: {kind:?} checked trace diverged");
    }
    (gold, checked.fused_pairs())
}

/// Runs one seeded differential case on a generated program with the
/// given fault schedule; panics (via assert) on any divergence.
/// Returns (ops, cycles, fused init rows) for meta-assertions.
fn run_case(
    rows: usize,
    cols: usize,
    min_len: usize,
    seed: u64,
    faults: impl FnOnce(usize) -> Vec<FaultEvent>,
) -> (usize, u64, usize) {
    let mut gen = ProgramGen::new(rows, cols, seed);
    let program = gen.generate(min_len);
    // The generator's programs must pass the static verifier.
    let report = verify(&program, &VerifyConfig::new(rows, cols))
        .unwrap_or_else(|err| panic!("seed {seed}: generated program failed verify:\n{err}"));
    let faults = faults(program.len());
    // A stuck-at-0 output fails strict init, so fault runs are lenient.
    let strict_init = faults.is_empty();
    let label = format!("seed {seed}");
    let (gold, fused) = check_against_oracle(rows, cols, &program, &faults, strict_init, &label);
    assert_eq!(
        gold.cycles(),
        report.cycles,
        "{label}: verifier cycle estimate diverged"
    );
    // Both backends equal the oracle cell for cell, so checking the
    // oracle's wear checks theirs. Faults never change how often a
    // cell is pulsed, so the static prediction holds with them too.
    for r in 0..rows {
        for c in 0..cols {
            assert_eq!(
                gold.cell(r, c).writes(),
                report.pressure.writes_at(r, c),
                "{label}: wear prediction diverged at ({r}, {c})"
            );
        }
    }
    (program.len(), gold.cycles(), fused)
}

fn no_faults(_: usize) -> Vec<FaultEvent> {
    Vec::new()
}

/// splitmix64 step, for deterministic fault schedules.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded schedule of 1..=8 fault events at random ops and cells:
/// stuck-at-0, stuck-at-1, or a clear (which also exercises clearing
/// a healthy cell).
fn random_faults(seed: u64, rows: usize, cols: usize, len: usize) -> Vec<FaultEvent> {
    let mut rng = seed ^ 0xfa17_5eed;
    let mut below = |n: usize| (splitmix(&mut rng) % n as u64) as usize;
    let count = 1 + below(8);
    (0..count)
        .map(|_| FaultEvent {
            at: below(len + 1),
            row: below(rows),
            col: below(cols),
            fault: [None, Some(Fault::StuckAt0), Some(Fault::StuckAt1)][below(3)],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// ≥256 random programs (geometry and seed both fuzzed) agree
    /// between both backends and the oracle.
    #[test]
    fn executor_matches_gold_model(
        rows in 2usize..=8,
        cols in 2usize..=130,
        min_len in 4usize..=48,
        seed in any::<u64>(),
    ) {
        let (ops, cycles, _) = run_case(rows, cols, min_len, seed, no_faults);
        prop_assert!(ops >= min_len);
        prop_assert!(cycles >= ops as u64, "every op costs at least one cycle");
    }

    /// Random stuck-at faults injected and cleared between ops of
    /// random programs: both backends still match the oracle on
    /// reads, state, faults and wear.
    #[test]
    fn executor_matches_gold_model_under_faults(
        rows in 2usize..=8,
        cols in 2usize..=130,
        min_len in 4usize..=48,
        seed in any::<u64>(),
    ) {
        run_case(rows, cols, min_len, seed, |len| random_faults(seed, rows, cols, len));
    }
}

/// A pinned regression case so failures in the proptest harness can
/// be bisected against a stable program.
#[test]
fn pinned_seed_is_stable() {
    let (ops, cycles, _) = run_case(4, 8, 32, 0xdead_beef, no_faults);
    assert!(ops >= 32);
    assert!(cycles >= ops as u64);
}

/// The generator's init repairs give the checked runs real init/NOR
/// pairs to fuse, with and without faults.
#[test]
fn generated_programs_exercise_init_fusion() {
    let fused: usize = (0..16).map(|seed| run_case(4, 70, 32, seed, no_faults).2).sum();
    assert!(fused >= 16, "only {fused} fused init rows in 16 programs");
    let fused: usize = (0..16)
        .map(|seed| run_case(4, 70, 32, seed, |len| random_faults(seed, 4, 70, len)).2)
        .sum();
    assert!(fused >= 16, "only {fused} fused init rows in 16 fault programs");
}

/// Pinned fault schedules, so fault-semantics failures replay without
/// the proptest harness.
#[test]
fn pinned_fault_seeds_agree() {
    for seed in 0..32 {
        run_case(4, 8, 32, seed, |len| random_faults(seed, 4, 8, len));
    }
    assert!(random_faults(0, 4, 8, 32).iter().any(|e| e.fault.is_some()));
}

/// Degenerate geometries (single row / single column) still agree.
#[test]
fn degenerate_geometries_agree() {
    for seed in 0..16 {
        run_case(1, 4, 12, seed, no_faults);
        run_case(4, 1, 12, seed, no_faults);
        run_case(2, 2, 8, seed, no_faults);
    }
}

/// Spans that cross `u64` word boundaries in the packed planes.
#[test]
fn word_boundary_geometries_agree() {
    for (seed, cols) in [(1, 63), (2, 64), (3, 65), (4, 130)] {
        run_case(3, cols, 24, seed, no_faults);
        run_case(3, cols, 24, seed, |len| random_faults(seed, 3, cols, len));
    }
}

/// An init row sensed between its wave and a NOR into it over the
/// same columns is not fused: the read and the NOR that takes the row
/// as input see the ones.
#[test]
fn init_rows_read_before_their_nor_keep_their_fill() {
    let pattern: Vec<bool> = (0..70).map(|i| i % 5 < 2).collect();
    let program = vec![
        MicroOp::write_row(0, &pattern),
        MicroOp::init_rows(&[1, 2], 0..70),
        MicroOp::read_row(1, 0..70),
        MicroOp::not_row(1, 2, 0..70),
        MicroOp::not_row(0, 1, 0..70),
    ];
    let (gold, fused) = check_against_oracle(3, 70, &program, &[], true, "read before NOR");
    assert_eq!(fused, 1, "only row 2 fuses");
    assert_eq!(gold.row_bits(2, 0..70), vec![false; 70]);
}

/// Hand-written op soup across word boundaries, including MAGIC on
/// outputs that were never initialized (lenient physical semantics).
#[test]
fn backends_match_oracle_on_mixed_ops() {
    let pattern: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
    let program = vec![
        MicroOp::write_row(0, &pattern),
        MicroOp::write_row_at(1, 5, &pattern[..100]),
        MicroOp::init_rows(&[2, 3], 0..130),
        MicroOp::nor_rows(&[0, 1], 2, 3..120),
        MicroOp::shift(2, 0..130, 7),
        MicroOp::shift_to(2, 3, 10..80, -3, true),
        MicroOp::nor_cols(&[0, 64, 129], 65, 0..4),
        MicroOp::reset_region(0..1, 60..70),
        MicroOp::read_row(3, 0..130),
    ];
    let (_, fused) = check_against_oracle(4, 130, &program, &[], false, "mixed ops");
    // Neither init row meets a NOR over its own span: nothing fuses.
    assert_eq!(fused, 0);
}

/// Faults injected before a program and one cleared after it: a
/// stuck-at-1 input pulls its NOR column to 0, and a stuck-at-0
/// output stays 0 but still wears.
#[test]
fn backends_match_oracle_under_faults() {
    let faults = [
        (0, 0, 66, Some(Fault::StuckAt1)),
        (0, 2, 3, Some(Fault::StuckAt0)),
        (3, 0, 66, None),
    ]
    .map(|(at, row, col, fault)| FaultEvent {
        at,
        row,
        col,
        fault,
    });
    let program = vec![
        MicroOp::write_row(0, &[false; 80]),
        MicroOp::init_rows(&[2], 0..80),
        MicroOp::nor_rows(&[0], 2, 0..80),
    ];
    let (gold, _) = check_against_oracle(3, 80, &program, &faults, false, "faults");
    assert_eq!(gold.row_bits(2, 64..67), vec![true, true, false]);
    assert_eq!(
        gold.cell(2, 3),
        Cell::from_parts(false, 2, Some(Fault::StuckAt0))
    );
}
