//! A word-packed cell bitmap for the static analyses.
//!
//! The verifier's lattice and `cim-mir`'s liveness sets are both
//! "one bit per cell" over a `rows × cols` array, and every op touches
//! rectangles of it (a row span, a column of a row range). Holding the
//! bits as `u64` words per row turns each rectangle into a few masked
//! word operations instead of a per-cell loop.

use std::ops::Range;

/// A `rows × cols` bitmap, one run of `u64` words per row (column `c`
/// is bit `c % 64` of word `c / 64`). Rectangles passed to its methods
/// are clipped to the grid, and bits past `cols` are never set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitGrid {
    rows: usize,
    cols: usize,
    stride: usize,
    words: Vec<u64>,
}

/// The words of one row a column span covers, as `(word, mask)` pairs
/// in column order. `cols` must already be clipped and non-empty.
fn word_masks(cols: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (cols.start / 64, (cols.end - 1) / 64);
    (first..=last).map(move |w| {
        let mut mask = u64::MAX;
        if w == first {
            mask &= u64::MAX << (cols.start % 64);
        }
        if w == last {
            mask &= u64::MAX >> (63 - (cols.end - 1) % 64);
        }
        (w, mask)
    })
}

impl BitGrid {
    /// An all-zero grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitGrid {
            rows,
            cols,
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// Rows and columns of the rectangle that lie inside the grid, or
    /// `None` when that part is empty.
    fn clip(
        &self,
        rows: &Range<usize>,
        cols: &Range<usize>,
    ) -> Option<(Range<usize>, Range<usize>)> {
        let rows = rows.start..rows.end.min(self.rows);
        let cols = cols.start..cols.end.min(self.cols);
        (!rows.is_empty() && !cols.is_empty()).then_some((rows, cols))
    }

    /// Applies `f` to every `(word, mask)` of the clipped rectangle.
    fn for_words(&mut self, rows: Range<usize>, cols: Range<usize>, f: impl Fn(&mut u64, u64)) {
        if let Some((rows, cols)) = self.clip(&rows, &cols) {
            for r in rows {
                let row = &mut self.words[r * self.stride..(r + 1) * self.stride];
                for (w, mask) in word_masks(cols.clone()) {
                    f(&mut row[w], mask);
                }
            }
        }
    }

    /// Whether cell `(row, col)` is set (cells outside the grid read 0).
    pub fn get(&self, row: usize, col: usize) -> bool {
        row < self.rows
            && col < self.cols
            && self.words[row * self.stride + col / 64] >> (col % 64) & 1 == 1
    }

    /// Sets every cell of `rows × cols` inside the grid.
    pub fn set(&mut self, rows: Range<usize>, cols: Range<usize>) {
        self.for_words(rows, cols, |word, mask| *word |= mask);
    }

    /// Clears every cell of `rows × cols` inside the grid.
    pub fn clear(&mut self, rows: Range<usize>, cols: Range<usize>) {
        self.for_words(rows, cols, |word, mask| *word &= !mask);
    }

    /// Whether any cell of `rows × cols` inside the grid is set.
    pub fn any(&self, rows: Range<usize>, cols: Range<usize>) -> bool {
        let Some((rows, cols)) = self.clip(&rows, &cols) else {
            return false;
        };
        rows.into_iter().any(|r| {
            let row = &self.words[r * self.stride..(r + 1) * self.stride];
            word_masks(cols.clone()).any(|(w, mask)| row[w] & mask != 0)
        })
    }

    /// The first clear cell of `rows × cols` inside the grid, in
    /// row-major order (rows ascending, then columns ascending).
    pub fn first_clear(&self, rows: Range<usize>, cols: Range<usize>) -> Option<(usize, usize)> {
        let (rows, cols) = self.clip(&rows, &cols)?;
        rows.into_iter().find_map(|r| {
            let row = &self.words[r * self.stride..(r + 1) * self.stride];
            word_masks(cols.clone()).find_map(|(w, mask)| {
                let clear = !row[w] & mask;
                (clear != 0).then(|| (r, w * 64 + clear.trailing_zeros() as usize))
            })
        })
    }

    /// Stores `len` bits of `src` (bit `i` of the little-endian word
    /// slice, missing words reading 0) into `row` from column `col`
    /// on, clipped to the grid.
    pub fn store(&mut self, row: usize, col: usize, len: usize, src: &[u64]) {
        let Some((_, cols)) = self.clip(&(row..row + 1), &(col..col + len)) else {
            return;
        };
        let row = &mut self.words[row * self.stride..(row + 1) * self.stride];
        for (w, mask) in word_masks(cols) {
            // Source bit index of this word's bit 0 (may be negative
            // when the span starts mid-word).
            let base = (w * 64) as isize - col as isize;
            let bits = if base >= 0 {
                let (q, s) = (base as usize / 64, base as usize % 64);
                let lo = src.get(q).copied().unwrap_or(0) >> s;
                let hi = match s {
                    0 => 0,
                    _ => src.get(q + 1).copied().unwrap_or(0) << (64 - s),
                };
                lo | hi
            } else {
                // Only the first word of the span: source starts at
                // bit `-base` of this word.
                src.first().copied().unwrap_or(0) << (-base) as usize
            };
            row[w] = (row[w] & !mask) | (bits & mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell model the grid must agree with.
    fn cells(g: &BitGrid) -> Vec<bool> {
        (0..g.rows)
            .flat_map(|r| (0..g.cols).map(move |c| (r, c)))
            .map(|(r, c)| g.get(r, c))
            .collect()
    }

    #[test]
    fn rectangles_match_a_per_cell_model_across_word_boundaries() {
        for cols in [1usize, 63, 64, 65, 129] {
            let mut g = BitGrid::new(3, cols);
            let mut model = vec![false; 3 * cols];
            let spans = [
                (0, cols),
                (1, cols.min(64)),
                (cols / 2, cols),
                (63.min(cols - 1), (65).min(cols)),
            ];
            for (k, &(c0, c1)) in spans.iter().enumerate() {
                let rows = k % 3..3;
                if k % 2 == 0 {
                    g.set(rows.clone(), c0..c1 + 5);
                } else {
                    g.clear(rows.clone(), c0..c1);
                }
                for r in rows {
                    for c in c0..c1.min(cols) {
                        model[r * cols + c] = k % 2 == 0;
                    }
                    if k % 2 == 0 {
                        for c in c1..(c1 + 5).min(cols) {
                            model[r * cols + c] = true;
                        }
                    }
                }
                assert_eq!(cells(&g), model, "cols {cols} step {k}");
                for (r0, c0, c1) in [(0, 0, cols), (2, cols - 1, cols), (1, 0, 1)] {
                    let want = (r0..3)
                        .flat_map(|r| (c0..c1).map(move |c| (r, c)))
                        .find(|&(r, c)| !model[r * cols + c]);
                    assert_eq!(g.first_clear(r0..3, c0..c1), want);
                    let any = (r0..3).any(|r| (c0..c1).any(|c| model[r * cols + c]));
                    assert_eq!(g.any(r0..3, c0..c1), any);
                }
            }
        }
    }

    #[test]
    fn out_of_grid_parts_are_clipped() {
        let mut g = BitGrid::new(2, 70);
        g.set(1..9, 60..200);
        assert!(g.get(1, 69) && !g.get(1, 59) && !g.get(0, 65));
        assert!(!g.get(1, 70) && !g.get(5, 0));
        assert!(!g.any(2..4, 0..70) && !g.any(0..2, 70..90));
        assert_eq!(g.first_clear(1..2, 60..500), None);
        g.clear(0..9, 65..1000);
        assert!(g.get(1, 64) && !g.get(1, 65));
    }

    #[test]
    fn store_copies_bits_at_any_offset() {
        let src = [0xdead_beef_0123_4567u64, 0x0f0f_0f0f_f0f0_f0f0, 0x5];
        let bit = |i: usize| src.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
        for (col, len) in [(0usize, 130usize), (3, 64), (61, 7), (64, 129), (100, 60)] {
            let mut g = BitGrid::new(1, 200);
            g.set(0..1, 0..200);
            g.store(0, col, len, &src);
            for c in 0..200 {
                let want = if (col..col + len).contains(&c) {
                    bit(c - col)
                } else {
                    true
                };
                assert_eq!(g.get(0, c), want, "col {col} len {len} cell {c}");
            }
        }
    }
}
