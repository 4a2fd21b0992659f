//! Stage 1 — precomputation (paper Sec. IV-C).
//!
//! Performs the 10 chunk additions of the L = 2 unrolled Karatsuba
//! tree on a single shared `n/4+1`-bit Kogge-Stone adder. The stage
//! array is `(8 + 10 + 12) × (n/4 + 2)`:
//!
//! * rows 0–7: the eight input chunks `a_0…a_3`, `b_0…b_3`;
//! * rows 8–17: the ten addition results;
//! * rows 18–29: the adder's 12-row scratch region.
//!
//! Latency (exact, verified by tests):
//!
//! ```text
//! 8 + 10·(17 + 11·⌈log2(n/4+1)⌉) + 1   clock cycles
//! ```
//!
//! (8 input-row writes, 10 sequential additions, 1 reset wave.)

use crate::chunks::{decompose_operand, OperandDecomposition, LEAVES};
use crate::progcache::SuffixProgram;
use cim_bigint::Uint;
use cim_crossbar::{Crossbar, CrossbarError, CycleStats, EnduranceReport, Executor, MicroOp, Region};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder, SCRATCH_ROWS};
use cim_mir::{MirProgram, OptLevel, TileLimits};
use cim_trace::{TrackId, Tracer};

/// Output of one precomputation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecomputeOutput {
    /// The nine `a`-side multiplication operands (leaf order).
    pub a_leaves: [Uint; LEAVES],
    /// The nine `b`-side multiplication operands (leaf order).
    pub b_leaves: [Uint; LEAVES],
    /// Exact cycle statistics of the stage.
    pub stats: CycleStats,
    /// Endurance report of the stage array after the run.
    pub endurance: EnduranceReport,
}

/// Output of one batch precomputation run: one leaf set per lane, one
/// shared cycle count (the batch runs the *same* micro-op program a
/// single instance runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPrecomputeOutput {
    /// Per-lane `a`-side leaf operands.
    pub a_leaves: Vec<[Uint; LEAVES]>,
    /// Per-lane `b`-side leaf operands.
    pub b_leaves: Vec<[Uint; LEAVES]>,
    /// Cycle statistics — identical to a solo run.
    pub stats: CycleStats,
    /// Per-lane endurance reports of the stage array.
    pub endurance: Vec<EnduranceReport>,
}

/// The precomputation stage for `n`-bit multiplications.
///
/// ```
/// use cim_bigint::Uint;
/// use karatsuba_cim::precompute::PrecomputeStage;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let stage = PrecomputeStage::new(64)?;
/// let out = stage.run(&Uint::from_u64(123), &Uint::from_u64(456))?;
/// assert_eq!(out.stats.cycles, stage.latency());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PrecomputeStage {
    n: usize,
    opt: OptLevel,
}

// Row map.
const INPUT_BASE: usize = 0; // a0 a1 a2 a3 b0 b1 b2 b3
const RESULT_BASE: usize = 8; // a10 a32 a20 a31 a3210 b10 b32 b20 b31 b3210
const SCRATCH_BASE: usize = 18;
/// Total rows: 8 inputs + 10 results + 12 scratch.
pub const ROWS: usize = 8 + 10 + SCRATCH_ROWS;

/// The ten additions: (x row, y row, result row), in execution order.
/// Rows 10–11 (a20/a31) must precede row 12 (a3210); same for b.
const ADDITIONS: [(usize, usize, usize); 10] = [
    (1, 0, 8),   // a10 = a1 + a0
    (3, 2, 9),   // a32 = a3 + a2
    (2, 0, 10),  // a20 = a2 + a0
    (3, 1, 11),  // a31 = a3 + a1
    (10, 11, 12), // a3210 = a20 + a31
    (5, 4, 13),  // b10
    (7, 6, 14),  // b32
    (6, 4, 15),  // b20
    (7, 5, 16),  // b31
    (15, 16, 17), // b3210
];

/// A squaring runs only the first five (`a`-side) additions.
const SQUARE_ADDITIONS: usize = 5;

/// Leaf order → stage row holding that operand (a side; b side = +? see
/// [`PrecomputeStage::leaf_rows`]).
const A_LEAF_ROWS: [usize; LEAVES] = [0, 1, 8, 2, 3, 9, 10, 11, 12];
const B_LEAF_ROWS: [usize; LEAVES] = [4, 5, 13, 6, 7, 14, 15, 16, 17];

/// Span names of [`ADDITIONS`], in execution order.
const ADDITION_NAMES: [&str; 10] = [
    "add a10", "add a32", "add a20", "add a31", "add a3210", "add b10", "add b32", "add b20",
    "add b31", "add b3210",
];

impl PrecomputeStage {
    /// Creates the stage for `n`-bit multiplications.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface stability with
    /// the other stages.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn new(n: usize) -> Result<Self, CrossbarError> {
        Self::with_opt_level(n, OptLevel::O0)
    }

    /// Creates the stage with its addition suffix lowered at `opt`
    /// through the `cim-mir` pass pipeline: above `O0`, dead writes
    /// are eliminated *across* addition boundaries (the inter-addition
    /// scratch resets fall to the next addition's init wave) and, at
    /// `O2`+, each addition is re-packed into co-issue bundles. The
    /// optimized suffix is verifier-gated and cached per
    /// `(width, count, opt)`.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for interface stability.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 4.
    pub fn with_opt_level(n: usize, opt: OptLevel) -> Result<Self, CrossbarError> {
        assert!(n > 0 && n.is_multiple_of(4), "operand width must be a multiple of 4");
        Ok(PrecomputeStage { n, opt })
    }

    /// The optimization level this stage lowers its programs at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// Adder operand width: `n/4 + 1` bits.
    pub fn adder_width(&self) -> usize {
        self.n / 4 + 1
    }

    /// Columns of the stage array: `n/4 + 2`.
    pub fn cols(&self) -> usize {
        self.n / 4 + 2
    }

    /// Stage area in cells: `30 × (n/4 + 2)` (paper: 1,980 for n=256).
    pub fn area_cells(&self) -> u64 {
        (ROWS * self.cols()) as u64
    }

    /// Analytic latency. At `O0` this is the paper's
    /// `8 + 10·(17 + 11·⌈log2(n/4+1)⌉) + 1`; at higher levels the
    /// optimized suffix's exact cycle count replaces the `10·adder`
    /// term.
    pub fn latency(&self) -> u64 {
        if self.opt == OptLevel::O0 {
            let adder = KoggeStoneAdder::new(self.adder_width());
            8 + 10 * adder.latency() + 1
        } else {
            8 + cim_mir::program_cycles(&self.addition_suffix(ADDITIONS.len()).ops) + 1
        }
    }

    /// Rows of the stage array holding the 18 leaf operands after a
    /// run, `(a_rows, b_rows)` in leaf order — the multiplication
    /// stage's handoff reads these.
    pub fn leaf_rows(&self) -> ([usize; LEAVES], [usize; LEAVES]) {
        (A_LEAF_ROWS, B_LEAF_ROWS)
    }

    /// Latency of the squaring variant (`a = b`): only the five
    /// `a`-side additions run — `8 + 5·(17 + 11·⌈log2(n/4+1)⌉) + 1`
    /// at `O0`, the optimized five-addition suffix's count otherwise.
    pub fn square_latency(&self) -> u64 {
        if self.opt == OptLevel::O0 {
            let adder = KoggeStoneAdder::new(self.adder_width());
            8 + SQUARE_ADDITIONS as u64 * adder.latency() + 1
        } else {
            8 + cim_mir::program_cycles(&self.addition_suffix(SQUARE_ADDITIONS).ops) + 1
        }
    }

    /// The layout of the addition with result row `sum` on the stage's
    /// shared adder.
    fn adder_for(&self, x: usize, y: usize, sum: usize) -> KoggeStoneAdder {
        let scratch: [usize; SCRATCH_ROWS] = std::array::from_fn(|i| SCRATCH_BASE + i);
        KoggeStoneAdder::with_layout(
            self.adder_width(),
            AdderLayout {
                x_row: x,
                y_row: y,
                sum_row: sum,
                scratch,
                col_base: 0,
            },
        )
    }

    /// Both operands of every lane split into their chunks and leaves.
    fn decompose(
        &self,
        operands: &[(&Uint, &Uint)],
    ) -> Vec<(OperandDecomposition, OperandDecomposition)> {
        operands
            .iter()
            .map(|(a, b)| (decompose_operand(a, self.n), decompose_operand(b, self.n)))
            .collect()
    }

    /// The operand-dependent program prefix: one lane-staged write per
    /// chunk row — row `i` holds chunk `i` of every lane, so any lane
    /// count loads in the same 8 cycles. Always rebuilt — it embeds
    /// data bits.
    fn chunk_writes(
        &self,
        decomps: &[(OperandDecomposition, OperandDecomposition)],
    ) -> Vec<MicroOp> {
        (0..8)
            .map(|i| {
                let lanes: Vec<&[u64]> = decomps
                    .iter()
                    .map(|(da, db)| {
                        if i < 4 {
                            da.chunks[i].limbs()
                        } else {
                            db.chunks[i - 4].limbs()
                        }
                    })
                    .collect();
                MicroOp::write_row_lanes(INPUT_BASE + i, 0, self.cols(), &lanes)
            })
            .collect()
    }

    /// Runs the stage for one multiplication per lane — lane `l`
    /// computes the leaf operands of `pairs[l]` — in the cycle count
    /// of [`PrecomputeStage::latency`] regardless of the lane count.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` does not hold 1..=[`cim_crossbar::MAX_BATCH_LANES`]
    /// entries or an operand does not fit in `n` bits.
    pub fn run_batch(&self, pairs: &[(Uint, Uint)]) -> Result<BatchPrecomputeOutput, CrossbarError> {
        let operands: Vec<(&Uint, &Uint)> = pairs.iter().map(|(a, b)| (a, b)).collect();
        self.run_lanes(&operands, false, &Tracer::disabled(), TrackId(0), 0)
    }

    /// The operand-independent addition suffix covering the first
    /// `additions` entries of [`ADDITIONS`], compiled once per
    /// `(adder width, count, opt)` and shared via [`crate::progcache`].
    /// The row map and layouts are constants, so the key captures
    /// everything the suffix depends on.
    ///
    /// Above `O0` the suffix is optimized as a *whole* (cross-stage
    /// program fusion): dead-write elimination runs over the
    /// concatenation with the result and scratch rows as live-out, so
    /// each addition's trailing scratch reset — overwritten unread by
    /// the next addition's init wave — is eliminated for all but the
    /// last addition, along with the per-adder dead ops. At `O2`+ each
    /// addition is then re-packed into co-issue bundles individually
    /// (bundles never straddle addition boundaries, preserving
    /// per-addition trace attribution). The returned bounds locate
    /// each addition's ops in the fused program. An optimized suffix
    /// is gated on the static verifier (in every build), as
    /// `cim_mir::verified_lower` gates the adder bodies.
    pub(crate) fn addition_suffix(&self, additions: usize) -> SuffixProgram {
        let opt = self.opt;
        let cols = self.cols();
        crate::progcache::precompute_suffix(self.adder_width(), additions, opt, || {
            let parts: Vec<_> = ADDITIONS[..additions]
                .iter()
                .map(|&(x, y, sum)| {
                    crate::progcache::adder_program(&self.adder_for(x, y, sum), AddOp::Add)
                })
                .collect();
            if opt == OptLevel::O0 {
                let mut ops = Vec::new();
                let mut bounds = Vec::with_capacity(additions);
                for part in &parts {
                    ops.extend_from_slice(part);
                    bounds.push(ops.len());
                }
                return SuffixProgram {
                    ops: crate::progcache::checked(ops),
                    bounds: bounds.into(),
                };
            }
            // Tag every op with its addition, fuse, and eliminate dead
            // writes across the whole suffix. Live-out: the ten result
            // rows plus the scratch region (which the stage contract
            // requires reset — keeping exactly the final reset alive).
            let mut tags = Vec::new();
            let mut fused = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                tags.extend(std::iter::repeat_n(i, part.len()));
                fused.extend_from_slice(part);
            }
            let mut live_out = vec![Region::new(
                RESULT_BASE..RESULT_BASE + 10,
                0..cols,
            )];
            live_out.push(Region::new(
                SCRATCH_BASE..SCRATCH_BASE + SCRATCH_ROWS,
                0..cols,
            ));
            let whole = MirProgram::from_ops(ROWS, cols, fused, live_out);
            let keep = cim_mir::dead_write_mask(&whole);
            let limits = TileLimits::for_array(ROWS, cols);
            let mut ops: Vec<MicroOp> = Vec::new();
            let mut bounds = Vec::with_capacity(additions);
            for i in 0..additions {
                let kept: Vec<MicroOp> = (0..whole.len())
                    .filter(|&j| keep[j] && tags[j] == i)
                    .map(|j| whole.ops()[j].clone())
                    .collect();
                if opt >= OptLevel::O2 {
                    let frag = MirProgram::from_ops(ROWS, cols, kept, Vec::new());
                    ops.extend(cim_mir::parallel_pack(&frag, &limits));
                } else {
                    ops.extend(kept);
                }
                bounds.push(ops.len());
            }
            verify_suffix(&ops, cols, opt);
            SuffixProgram {
                ops: crate::progcache::checked(ops),
                bounds: bounds.into(),
            }
        })
    }

    /// Composes the chunk writes and the given additions into one
    /// program and statically verifies it (debug/test builds). The
    /// composed program needs no preload declarations: the chunk
    /// writes define every operand the additions consume.
    fn compose_program(&self, operands: &[(&Uint, &Uint)], additions: usize) -> Vec<MicroOp> {
        let mut prog = self.chunk_writes(&self.decompose(operands));
        prog.extend_from_slice(&self.addition_suffix(additions).ops);
        cim_check::debug_assert_verified(
            &prog,
            &cim_check::VerifyConfig::new(ROWS, self.cols()),
            "PrecomputeStage::program",
        );
        prog
    }

    /// The full stage as one verified micro-op program: 8 chunk writes
    /// followed by the 10 tree additions. The closing reset wave is a
    /// separate step because the leaf handoff reads precede it.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits, or (debug/test
    /// builds) if the composed program fails static verification.
    pub fn program(&self, a: &Uint, b: &Uint) -> Vec<MicroOp> {
        self.compose_program(&[(a, b)], ADDITIONS.len())
    }

    /// The squaring variant of [`PrecomputeStage::program`]: both
    /// operand banks hold `a`'s chunks and only the five `a`-side
    /// additions run.
    ///
    /// # Panics
    ///
    /// Panics as [`PrecomputeStage::program`] does.
    pub fn square_program(&self, a: &Uint) -> Vec<MicroOp> {
        self.compose_program(&[(a, a)], SQUARE_ADDITIONS)
    }

    /// Runs the stage for a squaring: the `b`-side sums equal the
    /// `a`-side sums, so only five additions execute and the controller
    /// mirrors the results — the stage runs in
    /// [`PrecomputeStage::square_latency`] cycles. The same four chunks
    /// go into *both* operand banks (the paper's write circuit can
    /// drive two word lines with the same word, so this still charges
    /// 8 write cycles — kept identical to the general case for a
    /// conservative count).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if the operand does not fit in `n` bits.
    pub fn run_square(&self, a: &Uint) -> Result<PrecomputeOutput, CrossbarError> {
        self.run_lanes(&[(a, a)], true, &Tracer::disabled(), TrackId(0), 0)
            .map(BatchPrecomputeOutput::into_single)
    }

    /// Runs the stage on a fresh array.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn run(&self, a: &Uint, b: &Uint) -> Result<PrecomputeOutput, CrossbarError> {
        self.run_traced(a, b, &Tracer::disabled(), TrackId(0), 0)
    }

    /// [`PrecomputeStage::run`] with tracing: the stage is wrapped in a
    /// `precompute` span on `track` starting at `start_cycle`, with the
    /// 8 chunk writes and each of the 10 tree additions as child spans;
    /// the executor's per-op events nest under them.
    ///
    /// The micro-op sequence is identical to the untraced path, so
    /// cycle statistics, wear counts, and results do not change.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `n` bits.
    pub fn run_traced(
        &self,
        a: &Uint,
        b: &Uint,
        tracer: &Tracer,
        track: TrackId,
        start_cycle: u64,
    ) -> Result<PrecomputeOutput, CrossbarError> {
        self.run_lanes(&[(a, b)], false, tracer, track, start_cycle)
            .map(BatchPrecomputeOutput::into_single)
    }

    /// The stage body, for one operand pair per lane: the chunk writes,
    /// the tree additions (all ten, or with `square` — `a = b` in every
    /// lane — the five `a`-side ones, the `b`-side leaves mirroring the
    /// `a`-side ones), the leaf handoff reads and the reset wave.
    pub(crate) fn run_lanes(
        &self,
        operands: &[(&Uint, &Uint)],
        square: bool,
        tracer: &Tracer,
        track: TrackId,
        start_cycle: u64,
    ) -> Result<BatchPrecomputeOutput, CrossbarError> {
        let additions = if square {
            SQUARE_ADDITIONS
        } else {
            ADDITIONS.len()
        };
        let cols = self.cols();
        let lanes = operands.len();
        let mut array = crate::lane_array(ROWS, cols, lanes)?;
        let mut exec = Executor::new(&mut array);
        exec.attach_tracer_at(tracer, track, start_cycle);
        let stage = tracer.span_at(track, "precompute", start_cycle);

        // (i)+(ii) The 8 chunk writes and the tree additions —
        // 8 + additions·adder cc. The operand writes are rebuilt per
        // call; the addition suffix is a checked program from the
        // program cache, executed in per-addition op ranges so each
        // addition's op events nest under its own span. The op
        // sequence is that of [`PrecomputeStage::compose_program`],
        // checked by the same static verification.
        let decomps = self.decompose(operands);
        let writes_prog = self.chunk_writes(&decomps);
        let suffix = self.addition_suffix(additions);
        if cfg!(debug_assertions) {
            let mut full = writes_prog.clone();
            full.extend_from_slice(&suffix.ops);
            cim_check::debug_assert_verified(
                &full,
                &cim_check::VerifyConfig::new(ROWS, cols),
                "PrecomputeStage::program",
            );
        }
        let writes = tracer.span_at(track, "write chunks", start_cycle);
        exec.run(&writes_prog)?;
        writes.end(start_cycle + exec.stats().cycles);
        // Per-addition slices come from the suffix's bounds — after
        // optimization the additions are no longer uniform in length.
        let mut slice_start = 0;
        for (i, name) in ADDITION_NAMES[..additions].iter().enumerate() {
            let from = start_cycle + exec.stats().cycles;
            let span = tracer.span_at(track, *name, from);
            exec.run_checked(&suffix.ops, slice_start..suffix.bounds[i])?;
            slice_start = suffix.bounds[i];
            span.end(start_cycle + exec.stats().cycles);
        }

        // Read the 18 leaves (handoff — charged at the pipeline level).
        let a_leaves = read_leaves(exec.array(), &A_LEAF_ROWS, cols, lanes)?;
        let b_leaves = if square {
            a_leaves.clone()
        } else {
            read_leaves(exec.array(), &B_LEAF_ROWS, cols, lanes)?
        };

        // (iii) Reset the input/result region for the next
        // multiplication — 1 cc.
        exec.step(&MicroOp::reset_region(0..RESULT_BASE + 10, 0..cols))?;
        stage.end(start_cycle + exec.stats().cycles);

        let stats = *exec.stats();
        let endurance = EnduranceReport::per_lane(&array);
        // Sanity: the stage must agree with the software decomposition.
        for (l, (da, db)) in decomps.iter().enumerate() {
            debug_assert_eq!(a_leaves[l], da.leaves, "lane {l}");
            debug_assert_eq!(b_leaves[l], db.leaves, "lane {l}");
        }
        Ok(BatchPrecomputeOutput {
            a_leaves,
            b_leaves,
            stats,
            endurance,
        })
    }
}

impl BatchPrecomputeOutput {
    fn into_single(self) -> PrecomputeOutput {
        PrecomputeOutput {
            a_leaves: crate::single(self.a_leaves),
            b_leaves: crate::single(self.b_leaves),
            stats: self.stats,
            endurance: crate::single(self.endurance),
        }
    }
}

/// Statically verifies an optimized addition suffix for a `cols`-wide
/// stage array. The chunk writes define exactly the eight input rows
/// before the suffix runs, so those are its only preloads.
///
/// # Panics
///
/// Panics if the suffix fails verification (a pass bug, never a
/// data-dependent condition).
fn verify_suffix(ops: &[MicroOp], cols: usize, opt: OptLevel) {
    let config = cim_check::VerifyConfig::new(ROWS, cols)
        .with_preloaded(Region::new(INPUT_BASE..INPUT_BASE + 8, 0..cols));
    if let Err(err) = cim_check::verify(ops, &config) {
        panic!("PrecomputeStage::addition_suffix: {opt} suffix failed pass-validity verification:\n{err}");
    }
}

/// Reads the nine leaf rows `rows` of every lane, in leaf order.
fn read_leaves(
    array: &Crossbar,
    rows: &[usize; LEAVES],
    cols: usize,
    lanes: usize,
) -> Result<Vec<[Uint; LEAVES]>, CrossbarError> {
    let per_row = rows
        .iter()
        .map(|&row| array.read_row_lanes(row, 0..cols, lanes))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((0..lanes)
        .map(|l| std::array::from_fn(|i| Uint::from_limbs(per_row[i][l].clone())))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::UintRng;

    #[test]
    fn leaves_match_software_decomposition() {
        let mut rng = UintRng::seeded(9);
        for n in [16usize, 64, 128] {
            let stage = PrecomputeStage::new(n).unwrap();
            let a = rng.uniform(n);
            let b = rng.uniform(n);
            let out = stage.run(&a, &b).unwrap();
            let da = decompose_operand(&a, n);
            let db = decompose_operand(&b, n);
            assert_eq!(out.a_leaves, da.leaves, "n = {n}");
            assert_eq!(out.b_leaves, db.leaves, "n = {n}");
        }
    }

    #[test]
    fn measured_cycles_equal_paper_formula() {
        for n in [16usize, 64, 128, 256, 384] {
            let stage = PrecomputeStage::new(n).unwrap();
            let a = Uint::pow2(n).sub(&Uint::one());
            let out = stage.run(&a, &a).unwrap();
            assert_eq!(out.stats.cycles, stage.latency(), "n = {n}");
            // Cross-check against the closed form.
            let q = n / 4;
            let levels = (usize::BITS - (q + 1 - 1).leading_zeros()) as u64;
            assert_eq!(stage.latency(), 8 + 10 * (17 + 11 * levels) + 1, "n = {n}");
        }
    }

    #[test]
    fn batch_leaves_match_solo_runs_at_solo_cycle_cost() {
        let mut rng = UintRng::seeded(41);
        for (n, lanes) in [(16usize, 5usize), (64, 64)] {
            let stage = PrecomputeStage::new(n).unwrap();
            let pairs: Vec<(Uint, Uint)> =
                (0..lanes).map(|_| (rng.uniform(n), rng.uniform(n))).collect();
            let batch = stage.run_batch(&pairs).unwrap();
            assert_eq!(batch.stats.cycles, stage.latency(), "n = {n}");
            assert_eq!(batch.endurance.len(), lanes);
            for (lane, (a, b)) in pairs.iter().enumerate() {
                let solo = stage.run(a, b).unwrap();
                assert_eq!(batch.a_leaves[lane], solo.a_leaves, "lane {lane}, n = {n}");
                assert_eq!(batch.b_leaves[lane], solo.b_leaves, "lane {lane}, n = {n}");
                assert_eq!(batch.stats, solo.stats, "lane {lane}, n = {n}");
                // The stage program is lane-oblivious after the chunk
                // writes, so per-lane wear equals the solo array's.
                assert_eq!(
                    batch.endurance[lane], solo.endurance,
                    "lane {lane}, n = {n}"
                );
            }
        }
    }

    /// The optimized suffixes the program cache hands out, multiply
    /// and square, pass the verifier on their own; run under
    /// `cargo test --release` too, where the stage's debug checks of
    /// the composed program compile out.
    #[test]
    fn cached_optimized_suffixes_verify() {
        for n in [16usize, 64, 512] {
            for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                let stage = PrecomputeStage::with_opt_level(n, opt).unwrap();
                for additions in [ADDITIONS.len(), SQUARE_ADDITIONS] {
                    verify_suffix(&stage.addition_suffix(additions).ops, stage.cols(), opt);
                }
            }
        }
    }

    /// The gate rejects a suffix that lost its first op (the first
    /// addition's set wave).
    #[test]
    #[should_panic(expected = "O3 suffix failed pass-validity verification")]
    fn suffix_gate_rejects_a_broken_suffix() {
        let stage = PrecomputeStage::with_opt_level(64, OptLevel::O3).unwrap();
        let ops = &stage.addition_suffix(ADDITIONS.len()).ops[1..];
        verify_suffix(ops, stage.cols(), OptLevel::O3);
    }

    #[test]
    fn area_matches_paper_example() {
        // n = 256: 30 × 66 = 1,980 memristors (paper Sec. IV-C).
        assert_eq!(PrecomputeStage::new(256).unwrap().area_cells(), 1980);
    }

    #[test]
    fn array_is_clean_after_run() {
        let stage = PrecomputeStage::new(32).unwrap();
        // The result region reset is part of the program; verify by
        // running twice — a dirty array would corrupt MAGIC init checks.
        let a = Uint::from_u64(0xDEADBEEF);
        let out1 = stage.run(&a, &a).unwrap();
        let out2 = stage.run(&a, &a).unwrap();
        assert_eq!(out1.a_leaves, out2.a_leaves);
    }

    #[test]
    fn zero_operands() {
        let stage = PrecomputeStage::new(16).unwrap();
        let out = stage.run(&Uint::zero(), &Uint::zero()).unwrap();
        for leaf in &out.a_leaves {
            assert!(leaf.is_zero());
        }
    }
}
