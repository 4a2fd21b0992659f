//! The per-cell form of the verifier's lattice, kept as a test oracle:
//! the bitplane [`AbstractState`](crate::verify) must report the same
//! violations (and the same write pressure on success) on every
//! program below, including the [`MAX_VIOLATIONS`] truncation.

use crate::gen::ProgramGen;
use crate::pressure::PressureLog;
use crate::verify::{verify, VerifyConfig, VerifyError, VerifyReport, Violation, MAX_VIOLATIONS};
use cim_bigint::Uint;
use cim_crossbar::{Axis, MicroOp};
use cim_logic::kogge_stone::{AddOp, KoggeStoneAdder};
use cim_logic::multpim::RowMultiplier;
use cim_mir::OptLevel;
use karatsuba_cim::precompute::{self, PrecomputeStage};

/// Column counts on both sides of the 64-bit word boundaries.
const COLS: [usize; 5] = [63, 64, 65, 129, 3073];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Uninit,
    One,
    Defined,
}

struct CellLattice {
    rows: usize,
    cols: usize,
    cells: Vec<CellState>,
}

impl CellLattice {
    fn get(&self, row: usize, col: usize) -> CellState {
        self.cells[row * self.cols + col]
    }

    fn write(&mut self, row: usize, col: usize, s: CellState, pressure: &mut PressureLog) {
        self.cells[row * self.cols + col] = s;
        pressure.record_span(row, col..col + 1);
    }

    fn apply(
        &mut self,
        index: usize,
        op: &MicroOp,
        out: &mut Vec<Violation>,
        p: &mut PressureLog,
    ) {
        if let MicroOp::Parallel(inner) = op {
            if inner.is_empty() {
                out.push(Violation::BundleConflict {
                    op: index,
                    detail: "bundle is empty".to_string(),
                });
                return;
            }
            for (i, o) in inner.iter().enumerate() {
                if matches!(o, MicroOp::Parallel(_)) {
                    out.push(Violation::BundleConflict {
                        op: index,
                        detail: format!("inner op {i} is a nested bundle"),
                    });
                    return;
                }
                if !o.can_co_issue() {
                    out.push(Violation::BundleConflict {
                        op: index,
                        detail: format!("inner op {i} occupies the serial periphery"),
                    });
                    return;
                }
            }
            let fps: Vec<_> = inner.iter().map(MicroOp::footprint).collect();
            for (i, a) in fps.iter().enumerate() {
                for (j, b) in fps.iter().enumerate() {
                    let collides = i != j
                        && a.writes.iter().any(|w| {
                            b.writes
                                .iter()
                                .chain(b.reads.iter())
                                .any(|r| w.intersects(r))
                        });
                    if collides {
                        out.push(Violation::BundleConflict {
                            op: index,
                            detail: format!("inner ops {i} and {j} collide"),
                        });
                        return;
                    }
                }
            }
            for inner_op in inner {
                self.apply(index, inner_op, out, p);
            }
            return;
        }
        if let MicroOp::NorColsPartitioned {
            cols,
            part_width,
            in_offsets,
            out_offset,
            ..
        } = op
        {
            let pw = *part_width;
            if pw == 0 || cols.len() % pw != 0 {
                out.push(Violation::PartitionConflict {
                    op: index,
                    detail: format!(
                        "span of {} columns is not a multiple of partition width {pw}",
                        cols.len()
                    ),
                });
                return;
            }
            if let Some(&off) = in_offsets
                .iter()
                .chain(std::iter::once(out_offset))
                .find(|&&off| off >= pw)
            {
                out.push(Violation::PartitionConflict {
                    op: index,
                    detail: format!("offset {off} outside partition width {pw}"),
                });
                return;
            }
        }
        let fp = op.footprint();
        if fp.row_bound() > self.rows {
            out.push(Violation::RowOutOfRange {
                op: index,
                row: fp.row_bound() - 1,
                rows: self.rows,
            });
            return;
        }
        if fp.col_bound() > self.cols {
            out.push(Violation::ColOutOfRange {
                op: index,
                col: fp.col_bound() - 1,
                cols: self.cols,
            });
            return;
        }
        let overlap = match op {
            MicroOp::NorRows { inputs, out, .. } if inputs.contains(out) => Some((Axis::Row, *out)),
            MicroOp::NorCols {
                in_cols, out_col, ..
            } if in_cols.contains(out_col) => Some((Axis::Col, *out_col)),
            MicroOp::NorColsPartitioned {
                in_offsets,
                out_offset,
                ..
            } if in_offsets.contains(out_offset) => Some((Axis::Col, *out_offset)),
            _ => None,
        };
        if let Some((axis, idx)) = overlap {
            out.push(Violation::InOutOverlap {
                op: index,
                axis,
                index: idx,
            });
            return;
        }
        let mut read_reported = false;
        for region in &fp.reads {
            for r in region.rows.clone() {
                for c in region.cols.clone() {
                    if !read_reported && self.get(r, c) == CellState::Uninit {
                        out.push(Violation::ReadBeforeInit {
                            op: index,
                            row: r,
                            col: c,
                        });
                        read_reported = true;
                    }
                }
            }
        }
        let mut init_reported = false;
        let mut magic_out = |state: &mut Self, r: usize, c: usize, p: &mut PressureLog| {
            if !init_reported && state.get(r, c) != CellState::One {
                out.push(Violation::OutputNotInitialized {
                    op: index,
                    row: r,
                    col: c,
                });
                init_reported = true;
            }
            state.write(r, c, CellState::Defined, p);
        };
        match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                for (i, &b) in bits.iter().enumerate() {
                    let s = if b {
                        CellState::One
                    } else {
                        CellState::Defined
                    };
                    self.write(*row, col_offset + i, s, p);
                }
            }
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                len,
                lanes,
            } => {
                let full = lanes.len() == cim_crossbar::MAX_BATCH_LANES;
                for i in 0..*len {
                    let all_one = full
                        && lanes
                            .iter()
                            .all(|l| l.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1));
                    let s = if all_one {
                        CellState::One
                    } else {
                        CellState::Defined
                    };
                    self.write(*row, col_offset + i, s, p);
                }
            }
            MicroOp::ReadRow { .. } => {}
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, CellState::One, p);
                    }
                }
            }
            MicroOp::ResetRegion(region) => {
                for r in region.rows.clone() {
                    for c in region.cols.clone() {
                        self.write(r, c, CellState::Defined, p);
                    }
                }
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, CellState::Defined, p);
                    }
                }
            }
            MicroOp::NorRows { out, cols, .. } => {
                for c in cols.clone() {
                    magic_out(self, *out, c, p);
                }
            }
            MicroOp::NorCols { out_col, rows, .. } => {
                for r in rows.clone() {
                    magic_out(self, r, *out_col, p);
                }
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                out_offset,
                ..
            } => {
                for r in rows.clone() {
                    for base in (cols.start..cols.end).step_by(*part_width) {
                        magic_out(self, r, base + out_offset, p);
                    }
                }
            }
            MicroOp::Shift { dst, cols, .. } => {
                for c in cols.clone() {
                    self.write(*dst, c, CellState::Defined, p);
                }
            }
            MicroOp::Parallel(_) => unreachable!("bundles are handled above"),
        }
    }
}

/// [`verify`] over the per-cell lattice.
fn reference_verify(
    program: &[MicroOp],
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    let (rows, cols) = (config.rows(), config.cols());
    let mut state = CellLattice {
        rows,
        cols,
        cells: vec![CellState::Uninit; rows * cols],
    };
    for region in &config.preloaded {
        for r in region.rows.clone() {
            for c in region.cols.clone() {
                if r < rows && c < cols {
                    state.cells[r * cols + c] = CellState::Defined;
                }
            }
        }
    }
    let mut pressure = PressureLog::new(rows, cols);
    let mut violations = Vec::new();
    let mut cycles = 0;
    for (index, op) in program.iter().enumerate() {
        if violations.len() >= MAX_VIOLATIONS {
            break;
        }
        state.apply(index, op, &mut violations, &mut pressure);
        cycles += op.cycles();
    }
    if violations.is_empty() {
        Ok(VerifyReport {
            ops: program.len(),
            cycles,
            pressure: pressure.finish(),
        })
    } else {
        Err(VerifyError { violations })
    }
}

/// Both lattices give the same verdict on `program`, returning the
/// number of violations.
fn assert_lattices_agree(program: &[MicroOp], config: &VerifyConfig, what: &str) -> usize {
    match (verify(program, config), reference_verify(program, config)) {
        (Ok(ours), Ok(oracle)) => {
            assert_eq!(
                (ours.ops, ours.cycles),
                (oracle.ops, oracle.cycles),
                "{what}: report"
            );
            assert!(ours.pressure == oracle.pressure, "{what}: write pressure");
            0
        }
        (Err(ours), Err(oracle)) => {
            assert_eq!(ours.violations, oracle.violations, "{what}: violations");
            ours.violations.len()
        }
        (ours, oracle) => panic!(
            "{what}: verdicts differ: bitplanes {:?}, per cell {:?}",
            ours.err(),
            oracle.err()
        ),
    }
}

/// Broken variants of a clean program: every third op dropped (stale
/// outputs, uninitialized reads), every set wave and data write
/// dropped (far more violations than [`MAX_VIOLATIONS`]), each NOR's
/// output moved to the next row (aliasing and stale outputs), and the
/// whole program on an array one row and one column short (bounds).
fn mutants(
    program: &[MicroOp],
    config: &VerifyConfig,
) -> Vec<(String, Vec<MicroOp>, VerifyConfig)> {
    let (rows, cols) = (config.rows(), config.cols());
    let thinned = program
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 1)
        .map(|(_, op)| op.clone())
        .collect();
    let undefined = program
        .iter()
        .filter(|op| {
            !matches!(
                op,
                MicroOp::InitRows { .. } | MicroOp::WriteRow { .. } | MicroOp::WriteRowLanes { .. }
            )
        })
        .cloned()
        .collect();
    let moved = program
        .iter()
        .map(|op| match op {
            MicroOp::NorRows { inputs, out, cols } => {
                MicroOp::nor_rows(inputs, (out + 1) % rows, cols.clone())
            }
            other => other.clone(),
        })
        .collect();
    let mut short = VerifyConfig::new(rows.saturating_sub(1), cols - 1);
    for region in &config.preloaded {
        short = short.with_preloaded(region.clone());
    }
    vec![
        ("thinned".to_string(), thinned, config.clone()),
        ("undefined".to_string(), undefined, config.clone()),
        ("moved".to_string(), moved, config.clone()),
        ("short".to_string(), program.to_vec(), short),
    ]
}

/// A program, then each of its mutants; checks the clean program is
/// clean and returns how many violations the mutants drew.
fn assert_program_and_mutants_agree(
    program: &[MicroOp],
    config: &VerifyConfig,
    what: &str,
) -> usize {
    assert_eq!(
        assert_lattices_agree(program, config, what),
        0,
        "{what}: clean program"
    );
    mutants(program, config)
        .into_iter()
        .map(|(name, mutant, config)| {
            assert_lattices_agree(&mutant, &config, &format!("{what}, {name}"))
        })
        .sum()
}

/// Random verified programs at every column count, on 5 and 70 rows.
/// Programs are cut at 400 ops (wide arrays make the generator emit
/// long runs of one-cell repair writes).
#[test]
fn generated_programs_agree() {
    let (mut rejected, mut truncated) = (0, false);
    for (k, &cols) in COLS.iter().enumerate() {
        for rows in [5usize, 70] {
            for seed in 0..3u64 {
                let mut program = ProgramGen::new(rows, cols, seed * 17 + k as u64).generate(150);
                program.truncate(400);
                let config = VerifyConfig::new(rows, cols);
                let what = format!("gen {rows}x{cols} seed {seed}");
                rejected += assert_program_and_mutants_agree(&program, &config, &what);
                let (_, undefined, _) = mutants(&program, &config).swap_remove(1);
                truncated |= assert_lattices_agree(&undefined, &config, &what) == MAX_VIOLATIONS;
            }
        }
    }
    assert!(rejected > 0, "no mutant was rejected");
    assert!(truncated, "no program reached the violation cap");
}

/// Kogge–Stone adder bodies whose column span is each column count, at
/// every opt level.
#[test]
fn adder_programs_agree() {
    for cols in COLS {
        let adder = KoggeStoneAdder::new(cols - 1);
        let config = VerifyConfig::new(adder.required_rows(), adder.required_cols())
            .with_preloaded_rows(&[0, 1], 0..cols);
        for op in [AddOp::Add, AddOp::Sub] {
            for opt in OptLevel::ALL {
                let program = adder.program_opt(op, opt);
                let what = format!("adder {cols} cols {op:?} {opt}");
                let rejected = assert_program_and_mutants_agree(&program, &config, &what);
                assert!(rejected > 0, "{what}: no mutant was rejected");
            }
        }
    }
}

/// Whole precompute programs (multiply and square) on stages whose
/// arrays have each column count, at every opt level.
#[test]
fn precompute_programs_agree() {
    for cols in COLS {
        let n = 4 * (cols - 2);
        let a = Uint::pow2(n).sub(&Uint::one());
        let b = Uint::from_u64(0x9e37_79b9_7f4a_7c15).low_bits(n);
        let config = VerifyConfig::new(precompute::ROWS, cols);
        for opt in OptLevel::ALL {
            let stage = PrecomputeStage::with_opt_level(n, opt).expect("multiple of 4");
            for (name, program) in [
                ("multiply", stage.program(&a, &b)),
                ("square", stage.square_program(&a)),
            ] {
                let what = format!("precompute {cols} cols {name} {opt}");
                let rejected = assert_program_and_mutants_agree(&program, &config, &what);
                assert!(rejected > 0, "{what}: no mutant was rejected");
            }
        }
    }
}

/// Row-multiplier load prologues, solo and 64-lane, placed so the
/// array ends at each column count, followed by a NOR that drives the
/// loaded multiplicand span: legal only where every lane wrote 1.
#[test]
fn row_multiplier_programs_agree() {
    for cols in COLS {
        let width = (cols - 1) / 12;
        let mult = RowMultiplier::new(width);
        let col_base = cols - mult.required_cols();
        let ones = Uint::pow2(width).sub(&Uint::one());
        let some = Uint::from_u64(0b1011).low_bits(width);
        let config = VerifyConfig::new(2, cols).with_preloaded_rows(&[1], 0..cols);
        for (name, pairs) in [
            ("solo", vec![(ones.clone(), some.clone())]),
            ("64 lanes of ones", vec![(ones.clone(), some.clone()); 64]),
            (
                "64 mixed lanes",
                (0..64)
                    .map(|l| {
                        (
                            if l == 7 { some.clone() } else { ones.clone() },
                            ones.clone(),
                        )
                    })
                    .collect(),
            ),
        ] {
            let mut program = mult.load_batch_program(0, col_base, &pairs);
            let MicroOp::WriteRowLanes {
                col_offset, len, ..
            } = program[0]
            else {
                panic!("the prologue starts with the multiplicand write");
            };
            let what = format!("row multiplier {cols} cols {name}");
            assert_program_and_mutants_agree(&program, &config, &what);
            program.push(MicroOp::nor_rows(&[1], 0, col_offset..col_offset + len));
            let violations = assert_lattices_agree(&program, &config, &format!("{what} + NOR"));
            assert_eq!(violations == 0, name == "64 lanes of ones", "{what} + NOR");
        }
    }
}
