//! Single-row serial multiplier, adopted from MultPIM \[9\] for the
//! paper's multiplication stage (Sec. IV-D).
//!
//! Each multiplication lives entirely in **one memory row**, so `k`
//! independent multiplications run in `k` rows simultaneously — exactly
//! how the paper parallelizes the 9 partial products of the unrolled
//! Karatsuba tree. The paper further optimizes the original MultPIM row
//! from ~14·w to **12·w cells** for `w`-bit operands by sharing memory
//! between input and output operands; we use that optimized layout.
//!
//! Latency of one `w`-bit multiplication (all rows in parallel):
//!
//! ```text
//! w · (⌈log2 w⌉ + 14) + 3   clock cycles
//! ```
//!
//! (`w` shift-add iterations, each performing a partition-parallel
//! carry-lookahead addition in `⌈log2 w⌉ + 14` cycles, plus 3 cycles of
//! finalization.)
//!
//! ### Fidelity note
//!
//! The original MultPIM NOR-level microcode is not published in enough
//! detail to reconstruct cycle-exactly, and the paper itself uses it as
//! a black box with the latency formula above. This implementation is
//! *functionally* executed in the row — operands, per-iteration
//! partial sums and carries are real cells with real wear — while
//! cycles are charged by the formula (see DESIGN.md §1/§4).

use cim_bigint::Uint;
use cim_crossbar::lanes::lane_mask;
use cim_crossbar::{
    Crossbar, CrossbarError, EnduranceReport, Executor, MicroOp, Region, MAX_BATCH_LANES,
};

/// Little-endian word-vector helpers for the word-level shift-add
/// fast path. All vectors are LSB-aligned `u64` words with an explicit
/// bit length; bits past the length are kept zero.
mod wordvec {
    pub(super) fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    pub(super) fn bit(words: &[u64], i: usize) -> bool {
        words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    pub(super) fn set_bit(words: &mut [u64], i: usize, v: bool) {
        if v {
            words[i / 64] |= 1 << (i % 64);
        } else {
            words[i / 64] &= !(1 << (i % 64));
        }
    }

    pub(super) fn mask_tail(words: &mut [u64], bits: usize) {
        let tail = bits % 64;
        if tail != 0 {
            if let Some(last) = words.get_mut(bits / 64) {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// `a ^ b ^ c` over `bits` bits — for a ripple sum `s = x + y`,
    /// `s ^ x ^ y` is exactly the vector of carries *into* each bit.
    pub(super) fn xor3(a: &[u64], b: &[u64], c: &[u64], bits: usize) -> Vec<u64> {
        let n = words_for(bits);
        let mut out = vec![0u64; n];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = a.get(k).copied().unwrap_or(0)
                ^ b.get(k).copied().unwrap_or(0)
                ^ c.get(k).copied().unwrap_or(0);
        }
        mask_tail(&mut out, bits);
        out
    }

    /// Logical right shift by one bit.
    pub(super) fn shr1(words: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; words.len()];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = (words[k] >> 1) | words.get(k + 1).map_or(0, |&w| w << 63);
        }
        out
    }
}

/// Cells per row required for one `w`-bit in-row multiplier
/// (paper: `12·(n/4+2)` for the stage's `w = n/4+2`-bit operands).
pub const CELLS_PER_BIT: usize = 12;

/// Row-internal layout offsets (in multiples of `w`).
const A_OFF: usize = 0; // operand a: [0, w)
const B_OFF: usize = 1; // operand b: [w, 2w)
const P_OFF: usize = 2; // product accumulator: [2w, 4w) (shared with output)
const C_OFF: usize = 4; // carry staging: [4w, 5w)
const S_OFF: usize = 5; // partition scratch: [5w, 12w)

/// Statistics of one in-row multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMultStats {
    /// Clock cycles (analytic, per the MultPIM formula).
    pub cycles: u64,
    /// Shift-add iterations executed (= operand width).
    pub iterations: usize,
}

/// A `w`-bit multiplier occupying a single crossbar row of `12·w`
/// cells.
///
/// ```
/// use cim_bigint::Uint;
/// use cim_logic::multpim::RowMultiplier;
///
/// # fn main() -> Result<(), cim_crossbar::CrossbarError> {
/// let mult = RowMultiplier::new(16);
/// let (product, stats) = mult.multiply(&Uint::from_u64(60000), &Uint::from_u64(60001))?;
/// assert_eq!(product, Uint::from_u128(60000 * 60001));
/// assert_eq!(stats.cycles, mult.latency());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMultiplier {
    width: usize,
    opt: cim_mir::OptLevel,
}

impl RowMultiplier {
    /// Creates a `width`-bit in-row multiplier with the paper-exact
    /// (O0) iteration schedule.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        Self::with_opt_level(width, cim_mir::OptLevel::O0)
    }

    /// Creates a multiplier whose iterations are scheduled at `opt`:
    /// at O2+ the per-iteration micro-step DAG (`cim-mir::rowmul`) is
    /// re-packed into co-issue bundles, shrinking the per-iteration
    /// depth from `⌈log₂w⌉ + 14` to `⌈log₂w⌉ + 9`. Functional state
    /// and wear are unchanged — the iteration performs the same gate
    /// set either way; only the issue schedule (and thus latency)
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_opt_level(width: usize, opt: cim_mir::OptLevel) -> Self {
        assert!(width > 0, "multiplier width must be positive");
        RowMultiplier { width, opt }
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The optimization level the iteration schedule uses.
    pub fn opt_level(&self) -> cim_mir::OptLevel {
        self.opt
    }

    /// Row length in cells: `12·w` (the paper's optimized layout;
    /// the original MultPIM needs ~14·w, e.g. 5,369 cells for 384-bit).
    pub fn required_cols(&self) -> usize {
        CELLS_PER_BIT * self.width
    }

    /// Analytic latency at this multiplier's opt level:
    /// `w·(⌈log2 w⌉ + 14) + 3` cc at O0/O1, `w·depth + 3` with the
    /// re-packed iteration depth at O2+.
    pub fn latency(&self) -> u64 {
        self.latency_at(self.opt)
    }

    /// Latency the iteration schedule would have at `opt`.
    pub fn latency_at(&self, opt: cim_mir::OptLevel) -> u64 {
        cim_mir::rowmul::latency(self.width, opt, cim_mir::TileLimits::DEFAULT_PARTITIONS)
    }

    /// The operand-loading prologue as a verified micro-op program:
    /// both operands written into the row plus a reset wave over the
    /// shared product region — the one-lane
    /// [`RowMultiplier::load_batch_program`]. Statically checked
    /// (`cim-check`) in debug and test builds.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn load_program(&self, row: usize, col_base: usize, a: &Uint, b: &Uint) -> Vec<MicroOp> {
        self.load_batch_program(row, col_base, &[(a.clone(), b.clone())])
    }

    /// The operand-loading prologue for one `(a, b)` pair per lane:
    /// each operand write stages every lane's bits in one
    /// [`MicroOp::write_row_lanes`], so the same three micro-ops load
    /// one instance or a full batch — identical cycle cost, identical
    /// trace shape, identical per-cell wear.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits or `pairs` does not
    /// hold 1..=[`MAX_BATCH_LANES`] lanes.
    pub fn load_batch_program(
        &self,
        row: usize,
        col_base: usize,
        pairs: &[(Uint, Uint)],
    ) -> Vec<MicroOp> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        assert!(
            (1..=MAX_BATCH_LANES).contains(&pairs.len()),
            "batch must hold 1..={MAX_BATCH_LANES} lanes"
        );
        let a: Vec<&[u64]> = pairs.iter().map(|(a, _)| a.limbs()).collect();
        let b: Vec<&[u64]> = pairs.iter().map(|(_, b)| b.limbs()).collect();
        let prog = vec![
            MicroOp::write_row_lanes(row, at(A_OFF), w, &a),
            MicroOp::write_row_lanes(row, at(B_OFF), w, &b),
            MicroOp::reset_region(row..row + 1, at(P_OFF)..at(P_OFF) + 2 * w),
        ];
        cim_check::debug_assert_verified(
            &prog,
            &cim_check::VerifyConfig::new(row + 1, col_base + self.required_cols()),
            "RowMultiplier::load_program",
        );
        prog
    }

    /// Runs one multiplication inside row `row` of `array`, columns
    /// `col_base..col_base + 12·w` — the one-lane
    /// [`RowMultiplier::run_batch_in`].
    ///
    /// # Errors
    ///
    /// Returns an error if the region does not fit in the array.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn run_in(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        a: &Uint,
        b: &Uint,
    ) -> Result<(Uint, RowMultStats), CrossbarError> {
        let (mut products, stats) =
            self.run_batch_in(array, row, col_base, &[(a.clone(), b.clone())])?;
        Ok((products.pop().expect("one lane in, one product out"), stats))
    }

    /// Runs one independent multiplication per lane in row `row` of
    /// `array`, columns `col_base..col_base + 12·w` — lane `l`
    /// computes `pairs[l].0 · pairs[l].1`. Operands are loaded via
    /// [`RowMultiplier::load_batch_program`], the shift-add iterations
    /// update accumulator/carry/scratch cells in place, and each lane's
    /// `2w`-bit product is read back from the shared product region.
    /// The analytic latency (and the trace shape) does not depend on
    /// the lane count; per lane, the final cell values and per-cell
    /// wear are those of a one-lane run with the same operands.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::LaneOutOfRange`] if more pairs are
    /// given than the array has lanes, and propagates geometry errors.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or an operand exceeds `width` bits.
    pub fn run_batch_in(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        pairs: &[(Uint, Uint)],
    ) -> Result<(Vec<Uint>, RowMultStats), CrossbarError> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        if pairs.len() > array.lanes() {
            return Err(CrossbarError::LaneOutOfRange {
                lane: pairs.len() - 1,
                lanes: array.lanes(),
            });
        }
        // Load operands and clear the accumulator via the verified
        // prologue program (cycles are charged by the formula, so the
        // temporary executor's stats are discarded).
        let mut loader = Executor::new(&mut *array);
        loader.run(&self.load_batch_program(row, col_base, pairs))?;

        // The word-level fast path computes final values in the
        // controller, which is only valid while no cell in the row
        // region can pin a read; with faults present, fall back to the
        // live-read reference loop (identical final state and wear).
        let region = col_base..col_base + self.required_cols();
        if array.row_region_fault_free(row, region)? {
            self.shift_add_fast(array, row, col_base, pairs.len())?;
        } else {
            self.shift_add_reference(array, row, col_base, pairs.len())?;
        }

        let products = array
            .read_row_lanes(row, at(P_OFF)..at(P_OFF) + 2 * w, pairs.len())?
            .into_iter()
            .map(Uint::from_limbs)
            .collect();
        Ok((
            products,
            RowMultStats {
                cycles: self.latency(),
                iterations: w,
            },
        ))
    }

    /// Word-level shift-add, observationally identical to
    /// [`RowMultiplier::shift_add_reference`] on a fault-free region,
    /// with each write split into its wear half and its value half
    /// (see [`Crossbar::store_row_lanes`]).
    ///
    /// Wear is accounted pulse for pulse: the scratch reset pulses
    /// every iteration, and each iteration whose multiplier bit is set
    /// in a lane pulses that lane's product window `[i, i + w + 1)`
    /// once, its carry cells `C[1..w)` once and `C[0]` twice (at
    /// `j = 0` and `j = w`). The windows are recorded iteration by
    /// iteration; the carry pulses as per-lane totals, one masked
    /// record per bit of a lane's active-iteration count. Values,
    /// however, are data-oblivious to *when* they were written — a
    /// cell's final value is the last write it took — so they are
    /// stored once, per lane, in closed form: the product region takes
    /// `a·b`, and the carry-staging cells take the ripple carries of
    /// the lane's last executed iteration, recovered in one shot as
    /// `s ^ a ^ window` (carry *into* bit `k` is bit `k` of that xor).
    /// Lanes whose multiplier is zero never write, so their `C` cells
    /// keep their prior values and their product region stays at the
    /// prologue's reset zeros (= their product). Reads carry no wear
    /// or cycle cost, so reading operands once instead of per
    /// iteration is unobservable.
    fn shift_add_fast(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        lanes: usize,
    ) -> Result<(), CrossbarError> {
        use cim_bigint::mul::schoolbook;
        use wordvec as wv;
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        let active = lane_mask(lanes);
        let a_lanes = array.read_row_lanes(row, at(A_OFF)..at(A_OFF) + w, lanes)?;
        let b_lanes = array.read_row_lanes(row, at(B_OFF)..at(B_OFF) + w, lanes)?;
        let active_iterations: Vec<u32> = b_lanes
            .iter()
            .map(|b| b.iter().map(|limb| limb.count_ones()).sum())
            .collect();
        let lanes_where = |keep: &dyn Fn(u32) -> bool| {
            (0..lanes)
                .filter(|&l| keep(active_iterations[l]))
                .fold(0u64, |m, l| m | 1 << l)
        };

        let scratch = Region::new(row..row + 1, at(S_OFF)..at(S_OFF) + w);
        array.reset_region(&scratch)?;
        array.wear_region(&scratch, w as u64 - 1)?;
        for i in 0..w {
            let m = array.read_cell_lanes(row, at(B_OFF) + i)? & active;
            array.wear_row_lanes_masked(row, at(P_OFF) + i..at(P_OFF) + i + w + 1, m, 1)?;
        }
        for bit in 0..u32::BITS - (w as u32).leading_zeros() {
            let m = lanes_where(&|n| n >> bit & 1 == 1);
            array.wear_row_lanes_masked(row, at(C_OFF)..at(C_OFF) + 1, m, 1 << bit)?;
            array.wear_row_lanes_masked(row, at(C_OFF)..at(C_OFF) + w, m, 1 << bit)?;
        }

        // Final values, lane by lane in the controller.
        let written = lanes_where(&|n| n > 0);
        let mut p_lanes = vec![Vec::new(); lanes];
        let mut c_lanes = vec![Vec::new(); lanes];
        for l in (0..lanes).filter(|l| written >> l & 1 == 1) {
            let a = Uint::from_limbs(a_lanes[l].clone());
            let b = Uint::from_limbs(b_lanes[l].clone());
            let p = schoolbook::mul(&a, &b);
            // The lane's last executed iteration is its top multiplier
            // bit `i_last`: it added `a` into the accumulator window
            // `[i_last, i_last + w + 1)`, which held `s - a` before and
            // `s = p >> i_last` after (the lower bits are final by
            // then, and `a · (b mod 2^i_last) < 2^(w + i_last)`).
            let i_last = b.bit_len() - 1;
            let s = p.shr(i_last);
            let carries = wv::xor3(s.limbs(), &a_lanes[l], s.sub(&a).limbs(), w + 2);
            p_lanes[l] = p.limbs().to_vec();
            // Reference C layout: C[k] ← carry out of bit k for
            // k = 1..w, with j = w wrapping its carry onto C[0].
            let mut c_words = wv::shr1(&carries);
            wv::set_bit(&mut c_words, 0, wv::bit(&carries, w + 1));
            c_lanes[l] = c_words;
        }
        array.store_row_lanes(row, at(P_OFF), 2 * w, &p_lanes, active)?;
        array.store_row_lanes(row, at(C_OFF), w, &c_lanes, written)?;
        Ok(())
    }

    /// Reference shift-add: iteration i adds (a·b_i) << i into the
    /// accumulator cell by cell, in every lane at once, so
    /// accumulator, carry and scratch cells see realistic traffic.
    /// This is the behavioural gold the fast path must match
    /// write-for-write. Reads are live and fault-adjusted with
    /// immediate masked write-back; within an iteration no cell is
    /// read after it is written (A/B are read-only, `P[i+j]` is read
    /// and written at step j, C is write-only), so pinned bits feed
    /// back into later iterations exactly as they would in hardware.
    fn shift_add_reference(
        &self,
        array: &mut Crossbar,
        row: usize,
        col_base: usize,
        lanes: usize,
    ) -> Result<(), CrossbarError> {
        let w = self.width;
        let at = |off: usize| col_base + off * w;
        let active = lane_mask(lanes);
        for i in 0..w {
            let m = array.read_cell_lanes(row, at(B_OFF) + i)? & active;
            // Partition-parallel p/g staging writes (scratch region is
            // reused every iteration — this is what bounds MultPIM's
            // per-cell wear at O(w)).
            let scratch_cols = at(S_OFF)..at(S_OFF) + w;
            array.reset_region(&Region::new(row..row + 1, scratch_cols))?;
            if m == 0 {
                continue;
            }
            let mut carry = 0u64;
            for j in 0..=w {
                let p_col = at(P_OFF) + i + j;
                let a = if j < w {
                    array.read_cell_lanes(row, at(A_OFF) + j)?
                } else {
                    0
                };
                let p = array.read_cell_lanes(row, p_col)?;
                let t = a ^ p;
                let sum = t ^ carry;
                carry = (a & p) | (t & carry);
                // Carry staging cell then accumulator write-back.
                array.write_cell_lanes(row, at(C_OFF) + j % w, carry, m)?;
                array.write_cell_lanes(row, p_col, sum, m)?;
            }
        }
        Ok(())
    }

    /// Convenience: standalone multiplication on a fresh 1-row array.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds `width` bits.
    pub fn multiply(&self, a: &Uint, b: &Uint) -> Result<(Uint, RowMultStats), CrossbarError> {
        let mut array = Crossbar::new(1, self.required_cols())?;
        self.run_in(&mut array, 0, 0, a, b)
    }

    /// Standalone multiplication that also returns the endurance
    /// report of the row (for the write-count comparisons of Table I).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarError`] from execution.
    pub fn multiply_with_endurance(
        &self,
        a: &Uint,
        b: &Uint,
    ) -> Result<(Uint, RowMultStats, EnduranceReport), CrossbarError> {
        let mut array = Crossbar::new(1, self.required_cols())?;
        let (product, stats) = self.run_in(&mut array, 0, 0, a, b)?;
        Ok((product, stats, EnduranceReport::from_array(&array)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bigint::rng::{corner_cases, UintRng};

    #[test]
    fn exhaustive_4_bit() {
        let m = RowMultiplier::new(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let (p, _) = m.multiply(&Uint::from_u64(a), &Uint::from_u64(b)).unwrap();
                assert_eq!(p, Uint::from_u64(a * b), "{a}·{b}");
            }
        }
    }

    #[test]
    fn random_wide_products() {
        let mut rng = UintRng::seeded(77);
        for w in [8usize, 17, 32, 66, 98] {
            let m = RowMultiplier::new(w);
            let a = rng.uniform(w);
            let b = rng.uniform(w);
            let (p, stats) = m.multiply(&a, &b).unwrap();
            assert_eq!(p, cim_bigint::mul::schoolbook::mul(&a, &b), "w = {w}");
            assert_eq!(stats.cycles, m.latency());
        }
    }

    #[test]
    fn corner_operands() {
        let m = RowMultiplier::new(16);
        for a in corner_cases(16) {
            for b in corner_cases(16) {
                let (p, _) = m.multiply(&a, &b).unwrap();
                assert_eq!(p, cim_bigint::mul::schoolbook::mul(&a, &b));
            }
        }
    }

    #[test]
    fn latency_formula_examples() {
        // Paper stage 2 for n=256: w = 66 → 66·(7+14)+3 = 1389 cc.
        assert_eq!(RowMultiplier::new(66).latency(), 1389);
        // n=64: w = 18 → 18·(5+14)+3 = 345 cc.
        assert_eq!(RowMultiplier::new(18).latency(), 345);
    }

    #[test]
    fn opt_level_shrinks_iteration_depth_without_touching_state() {
        use cim_mir::OptLevel;
        let base = RowMultiplier::new(66);
        let opt = RowMultiplier::with_opt_level(66, OptLevel::O3);
        // Packed iterations: 66·(7+9)+3 = 1059 vs the paper's 1389.
        assert_eq!(opt.latency(), 1059);
        assert_eq!(base.latency_at(OptLevel::O3), opt.latency());
        assert_eq!(opt.latency_at(OptLevel::O0), base.latency());
        assert!(opt.latency() < base.latency());
        // Same gates, same state and wear — only the schedule differs.
        let a = Uint::from_u64(0x1234_5678);
        let b = Uint::from_u64(0x9abc_def0);
        let m0 = RowMultiplier::new(33);
        let m3 = RowMultiplier::with_opt_level(33, OptLevel::O3);
        let mut x0 = Crossbar::new(1, m0.required_cols()).unwrap();
        let mut x3 = Crossbar::new(1, m3.required_cols()).unwrap();
        let (p0, s0) = m0.run_in(&mut x0, 0, 0, &a, &b).unwrap();
        let (p3, s3) = m3.run_in(&mut x3, 0, 0, &a, &b).unwrap();
        assert_eq!(p0, p3);
        assert_eq!(x0, x3);
        assert_eq!(s0.iterations, s3.iterations);
        assert!(s3.cycles < s0.cycles);
    }

    #[test]
    fn area_is_12_cells_per_bit() {
        assert_eq!(RowMultiplier::new(66).required_cols(), 792);
        // vs the original MultPIM's ~14·n: 5,369 cells for n=384.
        assert!(RowMultiplier::new(384).required_cols() < 5369);
    }

    #[test]
    fn per_cell_writes_scale_linearly_with_width() {
        let m = RowMultiplier::new(16);
        let ones = Uint::from_u64(0xFFFF);
        let (_, _, report) = m.multiply_with_endurance(&ones, &ones).unwrap();
        // Worst case: every iteration active; accumulator cells sit in
        // up to w sliding windows and the carry cells are reused every
        // iteration → O(w) per-cell writes, matching MultPIM's 4n scaling.
        assert!(report.max_writes <= 4 * 16 + 8, "max {}", report.max_writes);
        assert!(report.max_writes >= 16, "max {}", report.max_writes);
    }

    /// The word-level fast path must leave exactly the state and wear
    /// the live-read reference loop leaves — every lane, every cell
    /// (value, wear, fault) — on the packed backend and on sliced
    /// arrays of 1, 2 and 64 lanes. Runs fault-free and with random
    /// per-lane stuck-at faults wherever the fast path is still valid:
    /// on the operand cells (read, never written), the scratch cells
    /// (reset only), a neighbouring row and the columns around the
    /// multiplier.
    #[test]
    fn fast_shift_add_matches_reference_cell_for_cell() {
        use cim_crossbar::Fault;
        let mut rng = UintRng::seeded(991);
        for (sliced, lanes) in [(false, 1usize), (true, 1), (true, 2), (true, 64)] {
            // The reference leaves a masked wear entry per carry write,
            // so per-lane cell walks are quadratic in w: keep the full
            // batch narrow.
            let widths: &[usize] = if lanes == 64 {
                &[8, 17]
            } else {
                &[4, 8, 17, 63, 64, 65, 70]
            };
            for &w in widths {
                for faulty in [false, true] {
                    let m = RowMultiplier::new(w);
                    let base = 3;
                    let cols = base + m.required_cols() + 2;
                    let make = || {
                        if sliced {
                            Crossbar::new_sliced(2, cols, lanes).unwrap()
                        } else {
                            Crossbar::new(2, cols).unwrap()
                        }
                    };
                    let (mut fast, mut gold) = (make(), make());
                    for _ in 0..if faulty { 4 * lanes } else { 0 } {
                        let lane = rng.range(0, lanes);
                        let (row, col) = match rng.range(0, 4) {
                            0 => (0, base + rng.range(0, 2 * w)),         // A, B
                            1 => (0, base + S_OFF * w + rng.range(0, w)), // scratch
                            2 => (1, rng.range(0, cols)),
                            _ => (0, [0, 1, 2, cols - 2, cols - 1][rng.range(0, 5)]),
                        };
                        let fault = Some(if rng.range(0, 2) == 0 {
                            Fault::StuckAt0
                        } else {
                            Fault::StuckAt1
                        });
                        for x in [&mut fast, &mut gold] {
                            x.inject_fault_lane(lane, row, col, fault).unwrap();
                        }
                    }
                    let pairs: Vec<(Uint, Uint)> = (0..lanes)
                        .map(|_| (rng.uniform(w), rng.uniform(w)))
                        .collect();
                    let load = m.load_batch_program(0, base, &pairs);
                    Executor::new(&mut fast).run(&load).unwrap();
                    Executor::new(&mut gold).run(&load).unwrap();
                    m.shift_add_fast(&mut fast, 0, base, lanes).unwrap();
                    m.shift_add_reference(&mut gold, 0, base, lanes).unwrap();
                    let case = format!("sliced {sliced}, lanes {lanes}, w {w}, faults {faulty}");
                    assert_eq!(
                        EnduranceReport::per_lane(&fast),
                        EnduranceReport::per_lane(&gold),
                        "{case}"
                    );
                    for lane in 0..lanes {
                        for row in 0..2 {
                            for c in 0..cols {
                                assert_eq!(
                                    fast.lane_cell(lane, row, c).unwrap(),
                                    gold.lane_cell(lane, row, c).unwrap(),
                                    "{case}: lane {lane}, cell ({row}, {c})"
                                );
                            }
                        }
                    }
                    if !faulty {
                        let p = base + P_OFF * w..base + P_OFF * w + 2 * w;
                        let products = fast.read_row_lanes(0, p, lanes).unwrap();
                        for ((a, b), limbs) in pairs.iter().zip(products) {
                            let want = cim_bigint::mul::schoolbook::mul(a, b);
                            assert_eq!(Uint::from_limbs(limbs), want, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_region_falls_back_to_reference() {
        use cim_crossbar::Fault;
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new(1, m.required_cols()).unwrap();
        // Pin an accumulator cell to 1: the product must reflect the
        // pinned read feeding back through the shift-add.
        array
            .inject_fault(0, 2 * 8 + 3, Some(Fault::StuckAt1))
            .unwrap();
        let (p, _) = m
            .run_in(&mut array, 0, 0, &Uint::from_u64(0), &Uint::from_u64(0))
            .unwrap();
        assert_eq!(p, Uint::from_u64(8), "stuck-at-1 bit 3 shows in 0·0");
    }

    /// Every lane of a batch run must leave exactly the per-lane cell
    /// state and wear a solo run with the same operands leaves — the
    /// lane-isolation contract the whole batching layer rests on.
    #[test]
    fn batch_lanes_match_solo_state_wear_and_products() {
        let mut rng = UintRng::seeded(4242);
        for (w, lanes) in [(4usize, 3usize), (8, 64), (17, 7), (33, 12)] {
            let m = RowMultiplier::new(w);
            let pairs: Vec<(Uint, Uint)> =
                (0..lanes).map(|_| (rng.uniform(w), rng.uniform(w))).collect();
            let mut batch = Crossbar::new_sliced(1, m.required_cols(), lanes).unwrap();
            let (products, stats) = m.run_batch_in(&mut batch, 0, 0, &pairs).unwrap();
            assert_eq!(stats.cycles, m.latency());
            for (lane, (a, b)) in pairs.iter().enumerate() {
                let mut solo = Crossbar::new(1, m.required_cols()).unwrap();
                let (p, solo_stats) = m.run_in(&mut solo, 0, 0, a, b).unwrap();
                assert_eq!(products[lane], p, "lane {lane}, w = {w}");
                assert_eq!(
                    products[lane],
                    cim_bigint::mul::schoolbook::mul(a, b),
                    "lane {lane}, w = {w}"
                );
                assert_eq!(stats, solo_stats);
                for c in 0..m.required_cols() {
                    assert_eq!(
                        batch.lane_cell(lane, 0, c).unwrap(),
                        solo.cell(0, c).unwrap(),
                        "cell {c}, lane {lane}, w = {w}"
                    );
                }
            }
        }
    }

    /// A lane-local stuck-at fault must feed back into that lane's
    /// product only, through the live-read fallback path.
    #[test]
    fn batch_lane_fault_feeds_back_into_that_lane_only() {
        use cim_crossbar::Fault;
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new_sliced(1, m.required_cols(), 3).unwrap();
        // Pin accumulator bit 3 of lane 1 to 1.
        array
            .inject_fault_lane(1, 0, 2 * 8 + 3, Some(Fault::StuckAt1))
            .unwrap();
        let zero = Uint::from_u64(0);
        let pairs = vec![
            (Uint::from_u64(5), Uint::from_u64(7)),
            (zero.clone(), zero.clone()),
            (zero.clone(), zero),
        ];
        let (products, _) = m.run_batch_in(&mut array, 0, 0, &pairs).unwrap();
        assert_eq!(products[0], Uint::from_u64(35), "healthy lane unaffected");
        assert_eq!(products[1], Uint::from_u64(8), "stuck-at-1 bit 3 shows in 0·0");
        assert_eq!(products[2], Uint::from_u64(0), "healthy lane unaffected");
    }

    #[test]
    fn batch_rejects_more_pairs_than_lanes() {
        let m = RowMultiplier::new(4);
        let mut array = Crossbar::new_sliced(1, m.required_cols(), 2).unwrap();
        let one = Uint::from_u64(1);
        let pairs = vec![(one.clone(), one.clone()); 3];
        assert!(m.run_batch_in(&mut array, 0, 0, &pairs).is_err());
    }

    #[test]
    fn multiple_rows_host_independent_multiplications() {
        // Two multipliers in two rows of one array (how the paper's
        // stage 2 runs 9 in parallel).
        let m = RowMultiplier::new(8);
        let mut array = Crossbar::new(2, m.required_cols()).unwrap();
        let (p0, _) = m
            .run_in(&mut array, 0, 0, &Uint::from_u64(200), &Uint::from_u64(100))
            .unwrap();
        let (p1, _) = m
            .run_in(&mut array, 1, 0, &Uint::from_u64(255), &Uint::from_u64(255))
            .unwrap();
        assert_eq!(p0, Uint::from_u64(20000));
        assert_eq!(p1, Uint::from_u64(255 * 255));
    }
}
