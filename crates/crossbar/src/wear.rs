//! Lazily materialized per-cell wear plane for the packed backend.
//!
//! A per-cell model pays one counter increment per cell per write
//! pulse. The packed backend instead records *column-range increments*
//! — one `(start, end, delta)` entry per operation and row — and only
//! materializes per-cell counters when an entry buffer grows past a
//! threshold (or when a per-cell query forces a read through the
//! pending entries). A MAGIC NOR over 3,000 columns therefore costs
//! one range push instead of 3,000 increments, while every per-cell
//! count stays exactly equal to a per-cell model's.

use std::ops::Range;

/// Pending entries per row before they are folded into the dense
/// per-cell base plane. Bounds both the memory of the pending buffer
/// and the cost of a per-cell query (`O(threshold)`).
pub(crate) const COMPACT_THRESHOLD: usize = 192;

/// One row's wear state: an optional dense base plane plus pending
/// range increments not yet folded in.
#[derive(Debug, Clone, Default)]
struct RowWear {
    /// Dense per-cell counters; empty until the first compaction.
    base: Vec<u64>,
    /// Range increments `(start, end, delta)` applied after `base`.
    pending: Vec<(u32, u32, u64)>,
}

/// Per-row wear counters stored as lazy range increments.
#[derive(Debug, Clone)]
pub(crate) struct WearPlane {
    cols: usize,
    rows: Vec<RowWear>,
}

impl WearPlane {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        WearPlane {
            cols,
            rows: vec![RowWear::default(); rows],
        }
    }

    /// Records `delta` write pulses for every cell of `row` in `cols`.
    pub(crate) fn add(&mut self, row: usize, cols: Range<usize>, delta: u64) {
        if cols.start >= cols.end || delta == 0 {
            return;
        }
        let rw = &mut self.rows[row];
        let entry = (cols.start as u32, cols.end as u32, delta);
        // Coalesce immediate repeats over the same span (common for
        // staging cells rewritten op after op).
        if let Some(last) = rw.pending.last_mut() {
            if last.0 == entry.0 && last.1 == entry.1 {
                last.2 += delta;
                return;
            }
        }
        rw.pending.push(entry);
        if rw.pending.len() > COMPACT_THRESHOLD {
            Self::compact(rw, self.cols);
        }
    }

    /// Folds a row's pending entries into its dense base plane using a
    /// difference array: `O(cols + pending)`.
    fn compact(rw: &mut RowWear, cols: usize) {
        if rw.base.is_empty() {
            rw.base = vec![0; cols];
        }
        let mut diff = vec![0i64; cols + 1];
        for &(s, e, d) in &rw.pending {
            diff[s as usize] += d as i64;
            diff[e as usize] -= d as i64;
        }
        rw.pending.clear();
        let mut running = 0i64;
        for (cell, d) in rw.base.iter_mut().zip(&diff) {
            running += d;
            *cell += running as u64;
        }
    }

    /// Exact write count of one cell — reads through the pending
    /// entries without materializing anything (`O(threshold)`).
    pub(crate) fn writes_at(&self, row: usize, col: usize) -> u64 {
        let rw = &self.rows[row];
        let base = rw.base.get(col).copied().unwrap_or(0);
        let col = col as u32;
        base + rw
            .pending
            .iter()
            .filter(|&&(s, e, _)| s <= col && col < e)
            .map(|&(_, _, d)| d)
            .sum::<u64>()
    }

    /// Visits disjoint segments of constant wear covering all columns
    /// of `row` as `(writes, cell_count)` pairs. When the base plane is
    /// unmaterialized this is a sweep over the pending boundaries
    /// (`O(pending log pending)`); otherwise one `O(cols)` walk —
    /// never a forced compaction, so `&self` suffices on hot paths.
    pub(crate) fn for_each_segment<F: FnMut(u64, usize)>(&self, row: usize, mut f: F) {
        let rw = &self.rows[row];
        if rw.base.is_empty() {
            // Sweep-line over range boundaries; gaps are zero-wear.
            let mut events: Vec<(u32, i64)> = Vec::with_capacity(rw.pending.len() * 2);
            for &(s, e, d) in &rw.pending {
                events.push((s, d as i64));
                events.push((e, -(d as i64)));
            }
            events.sort_unstable();
            let mut prev = 0u32;
            let mut level = 0i64;
            for (pos, d) in events {
                if pos > prev {
                    f(level as u64, (pos - prev) as usize);
                }
                level += d;
                prev = pos.max(prev);
            }
            if (prev as usize) < self.cols {
                f(0, self.cols - prev as usize);
            }
        } else {
            let mut diff = vec![0i64; self.cols + 1];
            for &(s, e, d) in &rw.pending {
                diff[s as usize] += d as i64;
                diff[e as usize] -= d as i64;
            }
            let mut running = 0i64;
            for (cell, d) in rw.base.iter().zip(&diff) {
                running += d;
                f(cell + running as u64, 1);
            }
        }
    }

    /// Clears all counters (both planes).
    pub(crate) fn reset(&mut self) {
        for rw in &mut self.rows {
            rw.base.clear();
            rw.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn materialize(plane: &WearPlane, row: usize) -> Vec<u64> {
        let mut out = Vec::new();
        plane.for_each_segment(row, |w, n| out.extend(std::iter::repeat_n(w, n)));
        out
    }

    #[test]
    fn range_increments_accumulate() {
        let mut p = WearPlane::new(2, 8);
        p.add(0, 0..4, 1);
        p.add(0, 2..6, 2);
        p.add(1, 7..8, 5);
        assert_eq!(materialize(&p, 0), vec![1, 1, 3, 3, 2, 2, 0, 0]);
        assert_eq!(materialize(&p, 1), vec![0, 0, 0, 0, 0, 0, 0, 5]);
        assert_eq!(p.writes_at(0, 3), 3);
        assert_eq!(p.writes_at(0, 6), 0);
    }

    #[test]
    fn coalesces_repeated_spans() {
        let mut p = WearPlane::new(1, 4);
        for _ in 0..10 {
            p.add(0, 1..3, 1);
        }
        assert_eq!(p.rows[0].pending.len(), 1, "identical spans coalesce");
        assert_eq!(p.writes_at(0, 1), 10);
    }

    #[test]
    fn compaction_preserves_counts() {
        let mut p = WearPlane::new(1, 16);
        let mut expect = vec![0u64; 16];
        // Alternate spans so coalescing never fires and compaction does.
        for i in 0..3 * COMPACT_THRESHOLD {
            let s = i % 13;
            let e = s + 1 + (i % 3);
            let e = e.min(16);
            p.add(0, s..e, 1);
            for w in &mut expect[s..e] {
                *w += 1;
            }
        }
        assert!(!p.rows[0].base.is_empty(), "compaction must have fired");
        assert_eq!(materialize(&p, 0), expect);
        for (c, &w) in expect.iter().enumerate() {
            assert_eq!(p.writes_at(0, c), w, "cell {c}");
        }
    }

    #[test]
    fn segments_cover_all_columns() {
        let mut p = WearPlane::new(1, 10);
        p.add(0, 3..5, 2);
        let mut cells = 0;
        p.for_each_segment(0, |_, n| cells += n);
        assert_eq!(cells, 10);
    }

    #[test]
    fn reset_clears_both_planes() {
        let mut p = WearPlane::new(1, 8);
        for i in 0..COMPACT_THRESHOLD + 10 {
            p.add(0, i % 7..i % 7 + 1, 1);
        }
        p.reset();
        assert_eq!(materialize(&p, 0), vec![0; 8]);
        assert_eq!(p.writes_at(0, 0), 0);
    }

    #[test]
    fn zero_width_and_zero_delta_are_no_ops() {
        let mut p = WearPlane::new(1, 4);
        p.add(0, 2..2, 1);
        p.add(0, 0..4, 0);
        assert!(p.rows[0].pending.is_empty());
    }
}
