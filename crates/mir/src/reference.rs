//! The per-cell liveness pass, the pairwise region-list dependence
//! test and the scheduler built on them, kept as test oracles: the
//! word- and span-level passes must produce the same keep masks,
//! predecessor lists and packed programs on every program below.

use super::*;
use cim_bigint::Uint;
use cim_check::ProgramGen;
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_logic::multpim::RowMultiplier;
use karatsuba_cim::precompute::{self, PrecomputeStage};

/// Column counts on both sides of the 64-bit word boundaries.
const COLS: [usize; 5] = [63, 64, 65, 129, 3073];

fn effective_reads(op: &MicroOp, fp: &OpFootprint) -> Vec<Region> {
    let mut reads = fp.reads.clone();
    if op.is_magic() {
        reads.extend(fp.writes.iter().cloned());
    }
    reads
}

fn regions_intersect(a: &[Region], b: &[Region]) -> bool {
    a.iter().any(|ra| b.iter().any(|rb| ra.intersects(rb)))
}

fn dependence_preds(ops: &[MicroOp]) -> Vec<Vec<usize>> {
    let fps: Vec<OpFootprint> = ops.iter().map(MicroOp::footprint).collect();
    let reads: Vec<Vec<Region>> = ops
        .iter()
        .zip(&fps)
        .map(|(op, fp)| effective_reads(op, fp))
        .collect();
    let mut deps = vec![Vec::new(); ops.len()];
    for j in 0..ops.len() {
        for i in 0..j {
            let raw_or_waw = regions_intersect(&fps[i].writes, &reads[j])
                || regions_intersect(&fps[i].writes, &fps[j].writes);
            let war = regions_intersect(&reads[i], &fps[j].writes);
            if raw_or_waw || war {
                deps[j].push(i);
            }
        }
    }
    deps
}

fn dead_write_mask(prog: &MirProgram) -> Vec<bool> {
    let cell = |r: usize, c: usize| r * prog.cols + c;
    let mut needed = vec![false; prog.rows * prog.cols];
    let mark = |needed: &mut Vec<bool>, region: &Region, value: bool| {
        for r in region.rows.clone() {
            for c in region.cols.clone() {
                if r < prog.rows && c < prog.cols {
                    needed[cell(r, c)] = value;
                }
            }
        }
    };
    for region in &prog.live_out {
        mark(&mut needed, region, true);
    }
    let mut keep = vec![true; prog.insts.len()];
    for (i, op) in prog.insts.iter().enumerate().rev() {
        let fp = op.footprint();
        let removable = !matches!(op, MicroOp::ReadRow { .. } | MicroOp::Parallel(_));
        let any_needed = fp.writes.iter().any(|w| {
            w.rows.clone().any(|r| {
                w.cols
                    .clone()
                    .any(|c| r < prog.rows && c < prog.cols && needed[cell(r, c)])
            })
        });
        if removable && !fp.writes.is_empty() && !any_needed {
            keep[i] = false;
            continue;
        }
        for w in &fp.writes {
            mark(&mut needed, w, false);
        }
        for u in effective_reads(op, &fp) {
            mark(&mut needed, &u, true);
        }
    }
    keep
}

fn parallel_pack(prog: &MirProgram, limits: &TileLimits) -> Vec<MicroOp> {
    let deps = dependence_preds(&prog.insts);
    let mut slots: Vec<Vec<MicroOp>> = Vec::new();
    let mut slot_of = vec![0usize; prog.insts.len()];
    for (i, op) in prog.insts.iter().enumerate() {
        let earliest = deps[i].iter().map(|&p| slot_of[p] + 1).max().unwrap_or(0);
        let mut chosen = None;
        if op.can_co_issue() {
            for (s, slot) in slots.iter().enumerate().skip(earliest) {
                if slot.len() < limits.partitions && slot.iter().all(MicroOp::can_co_issue) {
                    let mut candidate = slot.clone();
                    candidate.push(op.clone());
                    if MicroOp::bundle_conflict(&candidate).is_none() {
                        chosen = Some(s);
                        break;
                    }
                }
            }
        }
        let s = chosen.unwrap_or_else(|| {
            slots.push(Vec::new());
            slots.len() - 1
        });
        slots[s].push(op.clone());
        slot_of[i] = s;
    }
    slots
        .into_iter()
        .map(|mut slot| {
            if slot.len() == 1 {
                slot.pop().expect("non-empty slot")
            } else {
                MicroOp::parallel(slot)
            }
        })
        .collect()
}

/// Both forms of every pass agree on `prog`, at the default partition
/// budget and a narrow one.
fn assert_passes_agree(prog: &MirProgram, what: &str) {
    assert_eq!(
        super::dead_write_mask(prog),
        dead_write_mask(prog),
        "{what}: keep mask"
    );
    assert_eq!(
        super::dependence_preds(prog.ops()),
        dependence_preds(prog.ops()),
        "{what}: predecessor lists"
    );
    for partitions in [TileLimits::DEFAULT_PARTITIONS, 2] {
        let limits = TileLimits {
            rows: prog.rows,
            cols: prog.cols,
            partitions,
        };
        assert_eq!(
            super::parallel_pack(prog, &limits),
            parallel_pack(prog, &limits),
            "{what}: packed program, {partitions} partitions"
        );
    }
}

/// Random verified programs, with live-out row bands, on arrays at
/// every column count — and, over more than 64 rows, where the row
/// prefilter folds rows together. A geometry one column and one row
/// short of the program checks the clipping. Programs are cut at 300
/// ops: on wide arrays the generator's repairs of a partitioned NOR
/// can emit thousands of one-cell writes, and the pairwise oracle is
/// quadratic.
#[test]
fn generated_programs_agree() {
    for (k, &cols) in COLS.iter().enumerate() {
        for rows in [5usize, 70] {
            for seed in 0..4u64 {
                let mut ops = ProgramGen::new(rows, cols, seed * 31 + k as u64).generate(120);
                ops.truncate(300);
                let band = (seed as usize % rows)..rows.min(seed as usize % rows + 3);
                let live_out = vec![
                    Region::new(band, 0..cols),
                    Region::new(0..rows, cols / 2..cols / 2 + 1),
                ];
                let what = format!("gen {rows}x{cols} seed {seed}");
                let prog = MirProgram::from_ops(rows, cols, ops.clone(), live_out.clone());
                assert_passes_agree(&prog, &what);
                let clipped = MirProgram::from_ops(rows - 1, cols - 1, ops, live_out);
                assert_passes_agree(&clipped, &format!("{what}, clipped"));
            }
        }
    }
}

/// Kogge–Stone adder bodies whose column span is each column count.
#[test]
fn adder_programs_agree() {
    for cols in COLS {
        let adder = KoggeStoneAdder::new(cols - 1);
        for op in [AddOp::Add, AddOp::Sub] {
            let lib = adder.mir_program(op);
            let (rows, cols) = lib.geometry();
            let prog =
                MirProgram::from_ops(rows, cols, lib.ops().to_vec(), lib.live_out().to_vec());
            assert_passes_agree(&prog, &format!("adder {cols} cols {op:?}"));
        }
    }
}

/// Whole paper-exact precompute programs (chunk writes plus the ten
/// or five tree additions) with the result and scratch rows live-out,
/// on stages whose arrays have each column count.
#[test]
fn precompute_programs_agree() {
    for cols in COLS {
        let n = 4 * (cols - 2);
        let stage = PrecomputeStage::new(n).expect("multiple of 4");
        let a = Uint::pow2(n).sub(&Uint::one());
        let b = Uint::from_u64(0x9e37_79b9_7f4a_7c15).low_bits(n);
        let live_out = vec![Region::new(8..precompute::ROWS, 0..cols)];
        for (name, ops) in [
            ("multiply", stage.program(&a, &b)),
            ("square", stage.square_program(&a)),
        ] {
            let prog = MirProgram::from_ops(precompute::ROWS, cols, ops, live_out.clone());
            assert_passes_agree(&prog, &format!("precompute {cols} cols {name}"));
        }
    }
}

/// Row-multiplier load prologues placed so the array ends at each
/// column count.
#[test]
fn row_multiplier_programs_agree() {
    for cols in COLS {
        let width = (cols - 1) / 12;
        let mult = RowMultiplier::new(width);
        let col_base = cols - mult.required_cols();
        for row in [0usize, 2] {
            let a = Uint::pow2(width).sub(&Uint::one());
            let ops = mult.load_program(row, col_base, &a, &Uint::from_u64(5));
            let live_out = vec![Region::new(row..row + 1, col_base..cols)];
            let prog = MirProgram::from_ops(3, cols, ops, live_out);
            assert_passes_agree(&prog, &format!("row multiplier {cols} cols row {row}"));
        }
    }
}
