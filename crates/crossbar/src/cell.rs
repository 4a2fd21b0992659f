//! A single memristor cell snapshot: stored bit, wear counter, optional
//! fault.

/// A stuck-at fault of a memristor cell.
///
/// Real ReRAM cells whose oxide filament degrades end up permanently
/// stuck in the low- or high-resistance state; the fault-injection API
/// ([`crate::Crossbar::inject_fault`]) models this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Cell always reads logic 0 (stuck in high resistance).
    StuckAt0,
    /// Cell always reads logic 1 (stuck in low resistance).
    StuckAt1,
}

/// A read-only snapshot of one memristor: the stored bit, the write
/// pulses it has received and its injected fault, if any.
///
/// Backends synthesize these from their bit planes
/// ([`crate::Crossbar::cell`]); two snapshots are equal iff the raw
/// value, wear count and fault all match, which is what cross-backend
/// and oracle comparisons assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    value: bool,
    writes: u64,
    fault: Option<Fault>,
}

impl Cell {
    /// Assembles a snapshot from its raw stored bit, write count and
    /// fault.
    pub fn from_parts(value: bool, writes: u64, fault: Option<Fault>) -> Cell {
        Cell {
            value,
            writes,
            fault,
        }
    }

    /// The sensed bit: the stored bit, or the stuck value of a faulty
    /// cell.
    pub fn read(&self) -> bool {
        match self.fault {
            Some(Fault::StuckAt0) => false,
            Some(Fault::StuckAt1) => true,
            None => self.value,
        }
    }

    /// Number of write pulses this cell has received.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The injected fault, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_reads_zero() {
        assert!(!Cell::default().read());
        assert_eq!(Cell::default().writes(), 0);
    }

    #[test]
    fn stuck_at_faults_dominate_reads() {
        assert!(Cell::from_parts(false, 0, Some(Fault::StuckAt1)).read());
        assert!(!Cell::from_parts(true, 0, Some(Fault::StuckAt0)).read());
        assert!(Cell::from_parts(true, 3, None).read());
    }
}
