//! Checked programs: co-issue rules validated once, MAGIC init waves
//! fused into the NORs that consume them.
//!
//! [`crate::Executor::step`] validates every [`MicroOp::Parallel`]
//! bundle on every issue. A program that runs many times (a cached
//! adder body, say) pays that check once here instead, and
//! [`crate::Executor::run_checked`] issues its bundles without it.
//!
//! Construction also plans *init fusion*. MAGIC needs every output
//! cell driven to logic 1 before a NOR pulls it down, so compiled
//! programs write each output row twice: an `InitRows` wave, then the
//! `NorRows` into it. When the next op that touches an initialized row
//! is a row NOR with that row as output over the same columns (and not
//! also as an input), nothing can observe the row in between, and on a
//! fault-free array the pair leaves the row holding exactly
//! `!(a | b | …)` with two wear pulses. The fused path issues the init
//! as wear only and the NOR as one store of that value; cycles, wear,
//! traces and values stay those of the unfused run.

use crate::error::CrossbarError;
use crate::geometry::ColRange;
use crate::isa::MicroOp;

/// Init waves on rows at or above this keep their fill: the plan's
/// per-row table stays small whatever row a program names.
const PLANNED_ROWS: usize = 1 << 16;

/// How the fused path issues one op of a checked program (bundles
/// flattened in order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fuse {
    /// As [`crate::Executor::step`] would.
    Plain,
    /// An `InitRows` whose rows at the set bit positions (of the
    /// first 64) are consumed by a later paired NOR: those rows only
    /// wear, and their fill is deferred.
    WearOnly(u64),
    /// A `NorRows` consuming a deferred fill: one store of the NOR
    /// result, no strict-init scan.
    OntoOnes,
}

/// A micro-op program whose co-issue bundles passed the executor's
/// [`MicroOp::bundle_conflict`] rule once, at construction, plus the
/// program's extent and its init-fusion plan. Run it with
/// [`crate::Executor::run_checked`]; it reads as its op slice.
///
/// ```
/// use cim_crossbar::{CheckedProgram, Crossbar, Executor, MicroOp};
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let program = CheckedProgram::new(vec![
///     MicroOp::write_row(0, &[true, false, true]),
///     MicroOp::init_rows(&[1], 0..3),
///     MicroOp::not_row(0, 1, 0..3),
/// ])?;
/// assert_eq!(program.extent(), (2, 3));
/// assert_eq!(program.fused_pairs(), 1);
/// let mut xbar = Crossbar::new(2, 3)?;
/// let mut exec = Executor::new(&mut xbar);
/// exec.run_checked(&program, ..)?;
/// assert_eq!(exec.array().read_row_bits(1, 0..3)?, vec![false, true, false]);
/// assert_eq!(exec.array().cell(1, 0)?.writes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedProgram {
    ops: Vec<MicroOp>,
    rows: usize,
    cols: usize,
    /// Fusion plan per flattened op.
    plan: Vec<Fuse>,
    /// Index into `plan` of each op's first entry, plus a final
    /// `plan.len()`.
    starts: Vec<usize>,
}

impl CheckedProgram {
    /// Checks every bundle of `ops` and plans init fusion in one
    /// forward pass.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidBundle`] with the detail
    /// [`crate::Executor::step`] would report for the first invalid
    /// bundle.
    pub fn new(ops: Vec<MicroOp>) -> Result<Self, CrossbarError> {
        let mut plan = Vec::with_capacity(ops.len());
        let mut starts = Vec::with_capacity(ops.len() + 1);
        let (mut rows, mut cols) = (0, 0);
        // Per row: (plan index, position in its `InitRows`, columns) of
        // the latest init wave on that row that no later op touched.
        let mut open: Vec<Option<(usize, usize, ColRange)>> = Vec::new();
        for op in &ops {
            let flat = match op {
                MicroOp::Parallel(inner) => {
                    if let Some(detail) = MicroOp::bundle_conflict(inner) {
                        return Err(CrossbarError::InvalidBundle { detail });
                    }
                    inner.as_slice()
                }
                op => std::slice::from_ref(op),
            };
            starts.push(plan.len());
            for op in flat {
                let at = plan.len();
                plan.push(Fuse::Plain);
                if let MicroOp::NorRows {
                    inputs,
                    out,
                    cols: span,
                } = op
                {
                    if let Some((init, k, init_cols)) = open.get_mut(*out).and_then(Option::take) {
                        if init_cols == *span && !inputs.contains(out) {
                            plan[at] = Fuse::OntoOnes;
                            plan[init] = match plan[init] {
                                Fuse::WearOnly(mask) => Fuse::WearOnly(mask | 1 << k),
                                _ => Fuse::WearOnly(1 << k),
                            };
                        }
                    }
                }
                // Any other touch of an initialized row keeps its fill.
                let fp = op.footprint();
                rows = rows.max(fp.row_bound());
                cols = cols.max(fp.col_bound());
                for region in fp.reads.iter().chain(&fp.writes) {
                    let end = region.rows.end.min(open.len());
                    open[region.rows.start.min(end)..end].fill(None);
                }
                if let MicroOp::InitRows {
                    rows: init_rows,
                    cols: span,
                } = op
                {
                    let tracked = init_rows.iter().enumerate().take(64);
                    for (k, &r) in tracked.filter(|&(_, &r)| r < PLANNED_ROWS) {
                        if open.len() <= r {
                            open.resize(r + 1, None);
                        }
                        open[r] = Some((at, k, span.clone()));
                    }
                }
            }
        }
        starts.push(plan.len());
        Ok(CheckedProgram {
            ops,
            rows,
            cols,
            plan,
            starts,
        })
    }

    /// `(rows, cols)`: one past the highest row and column any op
    /// touches — the smallest array the program runs on.
    pub fn extent(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Init rows the plan fuses into the NOR that consumes them.
    pub fn fused_pairs(&self) -> usize {
        self.plan
            .iter()
            .filter(|f| matches!(f, Fuse::OntoOnes))
            .count()
    }

    /// The plan entries of op `i`: one per inner op of a bundle, one
    /// otherwise.
    pub(crate) fn plan_of(&self, i: usize) -> &[Fuse] {
        &self.plan[self.starts[i]..self.starts[i + 1]]
    }
}

impl std::ops::Deref for CheckedProgram {
    type Target = [MicroOp];

    fn deref(&self) -> &[MicroOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_init_rows_with_the_nor_that_consumes_them() {
        let program = CheckedProgram::new(vec![
            MicroOp::write_row(0, &[true; 4]),
            MicroOp::init_rows(&[1, 2, 3], 0..4),
            MicroOp::parallel(vec![
                MicroOp::not_row(0, 1, 0..4),
                // Narrower span than the init: keeps its fill.
                MicroOp::not_row(0, 2, 0..3),
            ]),
            // Row 3 is read before any NOR drives it.
            MicroOp::read_row(3, 0..4),
            MicroOp::not_row(0, 3, 0..4),
        ])
        .unwrap();
        assert_eq!(program.plan_of(1), &[Fuse::WearOnly(0b001)]);
        assert_eq!(program.plan_of(2), &[Fuse::OntoOnes, Fuse::Plain]);
        assert_eq!(program.plan_of(4), &[Fuse::Plain]);
        assert_eq!(program.fused_pairs(), 1);
        assert_eq!(program.extent(), (4, 4));
        assert_eq!(program.len(), 5);
    }

    #[test]
    fn aliased_or_reinitialized_outputs_are_not_fused() {
        let program = CheckedProgram::new(vec![
            MicroOp::init_rows(&[1], 0..4),
            // Row 1 is both input and output: the NOR must fail as
            // unfused.
            MicroOp::nor_rows(&[0, 1], 1, 0..4),
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::not_row(0, 2, 0..4),
        ])
        .unwrap();
        assert_eq!(program.plan_of(0), &[Fuse::Plain]);
        assert_eq!(program.plan_of(1), &[Fuse::Plain]);
        // Only the second wave on row 2 is the NOR's partner.
        assert_eq!(program.plan_of(2), &[Fuse::Plain]);
        assert_eq!(program.plan_of(3), &[Fuse::WearOnly(1)]);
        assert_eq!(program.plan_of(4), &[Fuse::OntoOnes]);
    }

    #[test]
    fn reversed_ranges_plan_as_touching_nothing() {
        let (hi, lo) = (3, 1);
        let program = CheckedProgram::new(vec![
            MicroOp::init_rows(&[1], 0..4),
            MicroOp::reset_region(hi..lo, 0..4),
            MicroOp::nor_cols(&[0], 2, hi..lo),
            MicroOp::not_row(0, 1, 0..4),
        ])
        .unwrap();
        assert_eq!(program.plan_of(0), &[Fuse::WearOnly(1)]);
        assert_eq!(program.plan_of(3), &[Fuse::OntoOnes]);
    }

    #[test]
    fn huge_rows_are_not_planned() {
        let program = CheckedProgram::new(vec![
            MicroOp::init_rows(&[usize::MAX - 1], 0..4),
            MicroOp::not_row(0, usize::MAX - 1, 0..4),
        ])
        .unwrap();
        assert_eq!(program.fused_pairs(), 0);
        assert_eq!(program.extent(), (usize::MAX, 4));
    }

    #[test]
    fn invalid_bundles_are_rejected_with_the_step_detail() {
        let bad = MicroOp::parallel(vec![
            MicroOp::init_rows(&[2], 0..4),
            MicroOp::reset_rows(&[2], 0..4),
        ]);
        let MicroOp::Parallel(inner) = &bad else {
            unreachable!()
        };
        let detail = MicroOp::bundle_conflict(inner).unwrap();
        assert_eq!(
            CheckedProgram::new(vec![MicroOp::write_row(0, &[true]), bad]).unwrap_err(),
            CrossbarError::InvalidBundle { detail }
        );
    }
}
