//! Per-cell write-pressure accounting for verified programs.
//!
//! ReRAM cells endure a finite number of SET/RESET transitions, so a
//! program that hammers one cell ages the array far faster than its
//! total op count suggests. The verifier accumulates exactly one unit
//! of pressure per physical cell drive — the same accounting the
//! simulator's endurance counters use — which makes the static report
//! directly comparable to measured wear.

use cim_crossbar::CELL_ENDURANCE_WRITES;

/// A cell flagged by the hotspot report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot {
    /// Word line of the cell.
    pub row: usize,
    /// Bit line of the cell.
    pub col: usize,
    /// Writes the program applies to it.
    pub writes: u64,
}

/// Write pressure while a program is being walked: one difference
/// array over the row-major cells, so recording a driven row span costs
/// two updates however wide it is. [`PressureLog::finish`] turns it
/// into the per-cell counts in place.
#[derive(Debug, Clone)]
pub(crate) struct PressureLog {
    rows: usize,
    cols: usize,
    /// Cell `i`'s count minus cell `i − 1`'s, wrapping: a span adds 1
    /// at its first cell and takes 1 back one past its last, and the
    /// prefix sums are the counts. One extra slot past the last cell.
    delta: Vec<u64>,
}

impl PressureLog {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        PressureLog {
            rows,
            cols,
            delta: vec![0; rows * cols + 1],
        }
    }

    /// One drive of every cell of `row` in `cols` (inside the array).
    pub(crate) fn record_span(&mut self, row: usize, cols: std::ops::Range<usize>) {
        let base = row * self.cols;
        self.delta[base + cols.start] = self.delta[base + cols.start].wrapping_add(1);
        self.delta[base + cols.end] = self.delta[base + cols.end].wrapping_sub(1);
    }

    /// The per-cell counts: one prefix sum over the difference array.
    pub(crate) fn finish(self) -> WritePressure {
        let PressureLog {
            rows,
            cols,
            mut delta,
        } = self;
        let mut running = 0u64;
        for d in &mut delta {
            running = running.wrapping_add(*d);
            *d = running;
        }
        delta.pop();
        WritePressure {
            rows,
            cols,
            writes: delta,
        }
    }
}

/// Per-cell write counts accumulated by a single program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePressure {
    rows: usize,
    cols: usize,
    writes: Vec<u64>,
}

impl WritePressure {

    /// Writes the program applies to the given cell.
    pub fn writes_at(&self, row: usize, col: usize) -> u64 {
        self.writes[row * self.cols + col]
    }

    /// Highest per-cell write count in the program.
    pub fn max_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Total cell drives across the whole array.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Number of cells the program writes at least once.
    pub fn touched_cells(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
    }

    /// Mean writes over *touched* cells (0.0 if nothing is written) —
    /// the denominator excludes untouched cells so the figure reflects
    /// the working set, not the array size.
    pub fn mean_writes(&self) -> f64 {
        let touched = self.touched_cells();
        if touched == 0 {
            0.0
        } else {
            self.total_writes() as f64 / touched as f64
        }
    }

    /// Every cell whose write count is at least `threshold`, sorted
    /// hottest-first (ties broken by row, then column, so the order is
    /// deterministic).
    pub fn hotspots(&self, threshold: u64) -> Vec<Hotspot> {
        let mut spots: Vec<Hotspot> = self
            .writes
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w >= threshold && w > 0)
            .map(|(i, &w)| Hotspot {
                row: i / self.cols,
                col: i % self.cols,
                writes: w,
            })
            .collect();
        spots.sort_by(|a, b| {
            b.writes
                .cmp(&a.writes)
                .then(a.row.cmp(&b.row))
                .then(a.col.cmp(&b.col))
        });
        spots
    }

    /// The `k` hottest cells (fewer if the program touches fewer).
    pub fn hottest(&self, k: usize) -> Vec<Hotspot> {
        let mut spots = self.hotspots(1);
        spots.truncate(k);
        spots
    }

    /// How many times the program could run before its hottest cell
    /// reaches the nominal cell endurance ([`CELL_ENDURANCE_WRITES`]).
    /// `None` if the program writes nothing (unlimited).
    pub fn endurance_lifetime_runs(&self) -> Option<u64> {
        CELL_ENDURANCE_WRITES.checked_div(self.max_writes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ranks_hotspots() {
        let mut log = PressureLog::new(2, 3);
        for _ in 0..5 {
            log.record_span(1, 2..3);
        }
        log.record_span(0, 0..1);
        log.record_span(0, 0..1);
        log.record_span(1, 0..1);
        let p = log.finish();
        assert_eq!(p.writes_at(1, 2), 5);
        assert_eq!(p.max_writes(), 5);
        assert_eq!(p.total_writes(), 8);
        assert_eq!(p.touched_cells(), 3);
        assert!((p.mean_writes() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            p.hotspots(2),
            vec![
                Hotspot { row: 1, col: 2, writes: 5 },
                Hotspot { row: 0, col: 0, writes: 2 },
            ]
        );
        assert_eq!(p.hottest(1).len(), 1);
        assert_eq!(p.hottest(10).len(), 3);
    }

    #[test]
    fn overlapping_spans_sum_per_cell() {
        let mut log = PressureLog::new(2, 70);
        log.record_span(0, 0..70);
        log.record_span(0, 60..65);
        log.record_span(1, 0..1);
        log.record_span(1, 69..70);
        let p = log.finish();
        for c in 0..70 {
            let want = 1 + u64::from((60..65).contains(&c));
            assert_eq!(p.writes_at(0, c), want, "row 0 col {c}");
            assert_eq!(p.writes_at(1, c), u64::from(c == 0 || c == 69), "row 1 col {c}");
        }
        assert_eq!(p.total_writes(), 70 + 5 + 2);
    }

    #[test]
    fn lifetime_divides_endurance_by_peak() {
        let mut log = PressureLog::new(1, 1);
        assert_eq!(log.clone().finish().endurance_lifetime_runs(), None);
        for _ in 0..4 {
            log.record_span(0, 0..1);
        }
        assert_eq!(log.finish().endurance_lifetime_runs(), Some(CELL_ENDURANCE_WRITES / 4));
    }

    #[test]
    fn empty_pressure_is_quiet() {
        let p = PressureLog::new(4, 4).finish();
        assert_eq!(p.max_writes(), 0);
        assert_eq!(p.mean_writes(), 0.0);
        assert!(p.hotspots(0).is_empty());
    }
}
