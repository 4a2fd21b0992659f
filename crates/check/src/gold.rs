//! The reference oracle for the MAGIC ISA: a plain per-cell model.
//!
//! [`GoldMatrix`] executes a micro-op program over one stored bit, one
//! write counter and one optional stuck-at fault per cell, written as
//! directly as the ISA reads — no bit planes, lazy wear or lane words.
//! It is the independent side of every differential test: the
//! cycle-accurate [`Executor`](cim_crossbar::Executor) on each crossbar
//! backend must leave the same sensed reads, cycle count, stored
//! values, per-cell wear and faults.
//!
//! Device semantics:
//!
//! * every write pulse — row write, init/reset wave, shift write-back,
//!   MAGIC drive — wears the cell once, whether or not its value
//!   changes;
//! * a MAGIC output can only be pulled down: it keeps its value iff
//!   the gate result is 1, so on a verified program (every output
//!   pre-set to 1) the result is exactly the ideal NOR;
//! * a stuck-at cell senses its stuck value, ignores new values and
//!   still wears; clearing the fault exposes the value it held before.
//!
//! The oracle does not police MAGIC output initialization — that is
//! [`verify`](crate::verify)'s job — so it matches an executor running
//! with `strict_init: false`, and one running strict on any program
//! that passes `verify`.

use cim_crossbar::{Cell, Fault, MicroOp};

/// A per-cell reference crossbar: stored bit, write count and fault.
///
/// All methods panic on out-of-bounds access instead of returning
/// errors — run [`verify`](crate::verify) first; the oracle is only
/// meaningful for programs whose geometry is valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
    writes: Vec<u64>,
    faults: Vec<Option<Fault>>,
    cycles: u64,
}

impl GoldMatrix {
    /// Creates an all-zero, unworn, fault-free matrix of the given
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "gold matrix must be non-empty");
        GoldMatrix {
            rows,
            cols,
            bits: vec![false; rows * cols],
            writes: vec![0; rows * cols],
            faults: vec![None; rows * cols],
            cycles: 0,
        }
    }

    /// Word lines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit lines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cycles accumulated so far (same per-op costs as the executor).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        row * self.cols + col
    }

    /// Snapshot of one cell: stored bit, write count and fault — the
    /// same view [`Crossbar::cell`](cim_crossbar::Crossbar::cell)
    /// gives, so the two compare with `==`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> Cell {
        let i = self.idx(row, col);
        Cell::from_parts(self.bits[i], self.writes[i], self.faults[i])
    }

    /// Injects a stuck-at fault at a cell, or clears it with `None`.
    /// The stored bit is kept and shows again once the fault clears.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    pub fn inject_fault(&mut self, row: usize, col: usize, fault: Option<Fault>) {
        let i = self.idx(row, col);
        self.faults[i] = fault;
    }

    /// The sensed bit of one cell: the stuck value of a faulty cell,
    /// the stored bit otherwise.
    fn sense(&self, row: usize, col: usize) -> bool {
        let i = self.idx(row, col);
        match self.faults[i] {
            Some(Fault::StuckAt0) => false,
            Some(Fault::StuckAt1) => true,
            None => self.bits[i],
        }
    }

    /// One write pulse: wears the cell; a healthy cell takes `v`.
    fn write(&mut self, row: usize, col: usize, v: bool) {
        let i = self.idx(row, col);
        self.writes[i] += 1;
        if self.faults[i].is_none() {
            self.bits[i] = v;
        }
    }

    /// One MAGIC drive: wears the output cell; a healthy cell is
    /// pulled down unless the gate result is 1.
    fn drive(&mut self, row: usize, col: usize, gate: bool) {
        let i = self.idx(row, col);
        self.writes[i] += 1;
        if self.faults[i].is_none() {
            self.bits[i] &= gate;
        }
    }

    /// A row span as sensed bits.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds.
    pub fn row_bits(&self, row: usize, cols: std::ops::Range<usize>) -> Vec<bool> {
        cols.map(|c| self.sense(row, c)).collect()
    }

    /// Applies one op. Returns the sensed bits
    /// for a [`MicroOp::ReadRow`], `None` for every other op.
    ///
    /// # Panics
    ///
    /// Panics if the op addresses cells outside the matrix or has
    /// inconsistent partition geometry — verify the program first.
    pub fn apply(&mut self, op: &MicroOp) -> Option<Vec<bool>> {
        // A co-issue bundle applies every inner op but charges only
        // the bundle maximum — mirror the executor by charging the
        // bundle here and the inner ops nothing.
        if let MicroOp::Parallel(inner) = op {
            self.cycles += op.cycles();
            let rewind = self.cycles;
            for o in inner {
                self.apply(o);
                self.cycles = rewind;
            }
            return None;
        }
        self.cycles += op.cycles();
        match op {
            MicroOp::WriteRow {
                row,
                col_offset,
                bits,
            } => {
                for (i, &b) in bits.iter().enumerate() {
                    self.write(*row, col_offset + i, b);
                }
                None
            }
            // The gold matrix models a single instance, i.e. lane 0 of
            // a batch: a lane-staged write applies the lane-0 bits.
            MicroOp::WriteRowLanes {
                row,
                col_offset,
                len,
                lanes,
            } => {
                let lane0 = lanes.first().map_or(&[][..], Vec::as_slice);
                for i in 0..*len {
                    let bit = lane0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
                    self.write(*row, col_offset + i, bit);
                }
                None
            }
            MicroOp::ReadRow { row, cols } => Some(self.row_bits(*row, cols.clone())),
            MicroOp::InitRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, true);
                    }
                }
                None
            }
            MicroOp::ResetRegion(region) => {
                for r in region.rows.clone() {
                    for c in region.cols.clone() {
                        self.write(r, c, false);
                    }
                }
                None
            }
            MicroOp::ResetRows { rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        self.write(r, c, false);
                    }
                }
                None
            }
            MicroOp::NorRows { inputs, out, cols } => {
                for c in cols.clone() {
                    let any = inputs.iter().any(|&r| self.sense(r, c));
                    self.drive(*out, c, !any);
                }
                None
            }
            MicroOp::NorCols {
                in_cols,
                out_col,
                rows,
            } => {
                for r in rows.clone() {
                    let any = in_cols.iter().any(|&c| self.sense(r, c));
                    self.drive(r, *out_col, !any);
                }
                None
            }
            MicroOp::NorColsPartitioned {
                rows,
                cols,
                part_width,
                in_offsets,
                out_offset,
            } => {
                assert!(
                    *part_width > 0 && cols.len() % part_width == 0,
                    "inconsistent partition geometry — verify the program first"
                );
                for r in rows.clone() {
                    for base in (cols.start..cols.end).step_by(*part_width) {
                        let any = in_offsets.iter().any(|&off| self.sense(r, base + off));
                        self.drive(r, base + out_offset, !any);
                    }
                }
                None
            }
            MicroOp::Shift {
                src,
                dst,
                cols,
                offset,
                fill,
            } => {
                // Same window semantics as `Crossbar::shift_row_to`:
                // the periphery senses the span, bits leaving it are
                // lost, vacated positions take the fill bit, and every
                // destination cell takes one write pulse.
                let bits = self.row_bits(*src, cols.clone());
                let w = bits.len();
                let mut shifted = vec![*fill; w];
                for (i, &b) in bits.iter().enumerate() {
                    let j = i as isize + offset;
                    if (0..w as isize).contains(&j) {
                        shifted[j as usize] = b;
                    }
                }
                for (i, &b) in shifted.iter().enumerate() {
                    self.write(*dst, cols.start + i, b);
                }
                None
            }
            MicroOp::Parallel(_) => unreachable!("bundles are intercepted above"),
        }
    }

    /// Runs a whole program, returning every [`MicroOp::ReadRow`]
    /// result in program order.
    ///
    /// # Panics
    ///
    /// Panics as [`GoldMatrix::apply`] does on unverified programs.
    pub fn run(&mut self, program: &[MicroOp]) -> Vec<Vec<bool>> {
        program.iter().filter_map(|op| self.apply(op)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_nor_is_not_any() {
        let mut m = GoldMatrix::new(3, 4);
        m.apply(&MicroOp::write_row(0, &[true, false, true, false]));
        m.apply(&MicroOp::write_row(1, &[true, true, false, false]));
        m.apply(&MicroOp::init_rows(&[2], 0..4));
        m.apply(&MicroOp::nor_rows(&[0, 1], 2, 0..4));
        assert_eq!(m.row_bits(2, 0..4), vec![false, false, false, true]);
    }

    #[test]
    fn read_row_returns_sensed_bits() {
        let mut m = GoldMatrix::new(1, 3);
        m.apply(&MicroOp::write_row(0, &[true, false, true]));
        let reads = m.run(&[MicroOp::read_row(0, 1..3)]);
        assert_eq!(reads, vec![vec![false, true]]);
    }

    #[test]
    fn shift_matches_window_semantics() {
        let mut m = GoldMatrix::new(2, 6);
        m.apply(&MicroOp::write_row(0, &[true, true, false, false, true, true]));
        // Shift window 1..5 by +2 into row 1 with fill=true.
        m.apply(&MicroOp::shift_to(0, 1, 1..5, 2, true));
        // Window was [t,f,f,t]; shifted +2 → [fill,fill,t,f].
        assert_eq!(m.row_bits(1, 1..5), vec![true, true, true, false]);
        // Outside the window row 1 is untouched.
        assert_eq!(m.cell(1, 0), Cell::default());
        assert_eq!(m.cell(1, 5), Cell::default());
        assert_eq!(m.cell(1, 1).writes(), 1, "shift write-back wears once");
        assert_eq!(m.cycles(), 3); // write(1) + shift(2)
    }

    #[test]
    fn partitioned_nor_applies_per_partition() {
        let mut m = GoldMatrix::new(1, 6);
        m.apply(&MicroOp::write_row(0, &[true, false, true, false, false, true]));
        m.apply(&MicroOp::nor_cols_partitioned(0..1, 0..6, 3, &[0, 1], 2));
        // Partition 0: NOR(t,f)=f at col 2; partition 1: NOR(f,f)=t at col 5.
        assert!(!m.cell(0, 2).read());
        assert!(m.cell(0, 5).read());
    }

    #[test]
    fn bundle_applies_all_inner_ops_at_max_cost() {
        let mut m = GoldMatrix::new(4, 3);
        m.apply(&MicroOp::write_row(0, &[true, false, true]));
        m.apply(&MicroOp::parallel(vec![
            MicroOp::init_rows(&[1], 0..3),
            MicroOp::init_rows(&[2], 0..3),
        ]));
        m.apply(&MicroOp::parallel(vec![
            MicroOp::not_row(0, 1, 0..3),
            MicroOp::nor_rows(&[0], 2, 0..3),
        ]));
        assert_eq!(m.row_bits(1, 0..3), vec![false, true, false]);
        assert_eq!(m.row_bits(2, 0..3), vec![false, true, false]);
        assert_eq!(m.cycles(), 3, "write + two 1-cycle bundles");
    }

    // ---- device semantics: wear and stuck-at faults ----

    #[test]
    fn fresh_matrix_reads_zero_with_no_wear() {
        let m = GoldMatrix::new(2, 2);
        assert_eq!(m.cell(1, 1), Cell::default());
        assert_eq!(m.row_bits(0, 0..2), vec![false, false]);
    }

    #[test]
    fn every_write_pulse_wears_even_without_a_value_change() {
        let mut m = GoldMatrix::new(1, 2);
        m.apply(&MicroOp::write_row(0, &[true, false]));
        assert_eq!(m.cell(0, 0), Cell::from_parts(true, 1, None));
        m.apply(&MicroOp::write_row(0, &[true, false]));
        assert_eq!(m.cell(0, 0).writes(), 2, "same value still wears");
        m.apply(&MicroOp::reset_rows(&[0], 0..2));
        assert_eq!(m.cell(0, 0), Cell::from_parts(false, 3, None));
        m.apply(&MicroOp::read_row(0, 0..2));
        assert_eq!(m.cell(0, 0).writes(), 3, "sensing never wears");
    }

    #[test]
    fn magic_drive_only_pulls_down() {
        let mut m = GoldMatrix::new(2, 1);
        m.apply(&MicroOp::init_rows(&[1], 0..1));
        m.apply(&MicroOp::nor_rows(&[0], 1, 0..1));
        assert!(m.cell(1, 0).read(), "result 1 keeps the initialized 1");
        m.apply(&MicroOp::write_row(0, &[true]));
        m.apply(&MicroOp::nor_rows(&[0], 1, 0..1));
        assert!(!m.cell(1, 0).read(), "result 0 pulls the cell down");
        m.apply(&MicroOp::write_row(0, &[false]));
        m.apply(&MicroOp::nor_rows(&[0], 1, 0..1));
        assert!(!m.cell(1, 0).read(), "MAGIC can never pull a cell back up");
        assert_eq!(m.cell(1, 0).writes(), 4, "init + three drives");
    }

    #[test]
    fn stuck_at_faults_dominate_reads() {
        let mut m = GoldMatrix::new(1, 1);
        m.apply(&MicroOp::write_row(0, &[true]));
        m.inject_fault(0, 0, Some(Fault::StuckAt0));
        assert_eq!(m.row_bits(0, 0..1), vec![false]);
        m.apply(&MicroOp::write_row(0, &[false]));
        m.inject_fault(0, 0, Some(Fault::StuckAt1));
        assert!(m.cell(0, 0).read());
        m.inject_fault(0, 0, None);
        assert_eq!(
            m.cell(0, 0),
            Cell::from_parts(true, 2, None),
            "a faulty cell wears but keeps its stored value"
        );
    }

    #[test]
    fn faulty_cells_feed_their_stuck_value_into_gates_and_shifts() {
        let mut m = GoldMatrix::new(3, 2);
        m.inject_fault(0, 1, Some(Fault::StuckAt1));
        m.inject_fault(2, 0, Some(Fault::StuckAt0));
        m.apply(&MicroOp::write_row(0, &[false, false]));
        m.apply(&MicroOp::init_rows(&[2], 0..2));
        m.apply(&MicroOp::nor_rows(&[0], 2, 0..2));
        // Column 0: healthy input 0 but stuck-at-0 output; column 1:
        // stuck-at-1 input pulls the healthy output down.
        assert_eq!(m.row_bits(2, 0..2), vec![false, false]);
        assert_eq!(
            m.cell(2, 0),
            Cell::from_parts(false, 2, Some(Fault::StuckAt0))
        );
        m.apply(&MicroOp::shift_to(0, 1, 0..2, -1, false));
        assert_eq!(
            m.row_bits(1, 0..2),
            vec![true, false],
            "shift senses the stuck 1"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics() {
        let mut m = GoldMatrix::new(2, 2);
        m.apply(&MicroOp::write_row(5, &[true]));
    }
}
