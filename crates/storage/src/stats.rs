//! I/O accounting and the simulated-disk cost model.
//!
//! The paper's experiments ran Minibase on a raw disk of a Pentium III era
//! machine, so elapsed times are dominated by page I/O. We make that regime
//! reproducible on any hardware by *counting* page transfers, classifying
//! them sequential vs. random, and charging a deterministic cost per
//! transfer. Experiments report this simulated time in its own column,
//! beside (never added to) the measured CPU time and the raw counters.

/// Cost charged per page transfer, in nanoseconds.
///
/// Defaults model a year-2000 commodity disk: ~10 ms for a random access
/// (seek + rotational latency) and ~0.2 ms to stream a 4 KiB page at
/// ~20 MB/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of a sequential page read or write (follows the previous access
    /// to the same file at the preceding page number).
    pub seq_ns: u64,
    /// Cost of a random page read or write.
    pub rand_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_ns: 200_000,     // 0.2 ms
            rand_ns: 10_000_000, // 10 ms
        }
    }
}

impl CostModel {
    /// A model that only counts pages (zero simulated time), for tests.
    pub fn free() -> Self {
        CostModel {
            seq_ns: 0,
            rand_ns: 0,
        }
    }

    /// Simulated cost of transferring `bytes` of one page: the model
    /// decomposes into a streaming term (`seq_ns` buys one full page at
    /// the disk's transfer rate, so partial pages cost proportionally
    /// less) plus, for random transfers, a positioning surcharge of
    /// `rand_ns - seq_ns` (seek + rotational latency, independent of the
    /// transfer size). A full-page transfer therefore costs exactly
    /// `seq_ns` or `rand_ns` as before; only short transfers — packed
    /// pages, which ship `header + payload` bytes — cost less.
    pub fn transfer_ns(&self, seq: bool, bytes: usize) -> u64 {
        let stream = (self.seq_ns * bytes as u64) / crate::page::PAGE_SIZE as u64;
        if seq {
            stream
        } else {
            stream + self.rand_ns.saturating_sub(self.seq_ns)
        }
    }
}

/// Activity counters of a [`crate::wal::Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Log frames appended: one per operation, and one more wherever an
    /// operation continues on the next log page.
    pub frames: u64,
    /// Bytes those frames occupy in the log (headers, records, checksums;
    /// not end-of-page padding) — what a mutation costs in log space.
    pub bytes: u64,
    /// Logical operations committed.
    pub commits: u64,
    /// Log pages written to disk (appends plus tail rewrites).
    pub page_writes: u64,
    /// Flushes forced by the pool's LSN gate — dirty-page write-backs that
    /// had to make the log durable first.
    pub gate_flushes: u64,
}

/// Cumulative I/O counters of a [`crate::disk::Disk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read, sequential (page n follows page n-1 of the same file).
    pub seq_reads: u64,
    /// Pages read at a non-sequential position.
    pub rand_reads: u64,
    /// Pages written sequentially.
    pub seq_writes: u64,
    /// Pages written at a non-sequential position.
    pub rand_writes: u64,
    /// Simulated time accrued, in nanoseconds, per the [`CostModel`].
    pub sim_ns: u64,
}

impl IoStats {
    /// Total pages read.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Total pages written.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.seq_writes + self.rand_writes
    }

    /// Total page transfers.
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Simulated I/O time in seconds.
    #[inline]
    pub fn sim_secs(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// Counter-wise difference `self - earlier`; panics on underflow, which
    /// would indicate mismatched snapshots.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            seq_writes: self.seq_writes - earlier.seq_writes,
            rand_writes: self.rand_writes - earlier.rand_writes,
            sim_ns: self.sim_ns - earlier.sim_ns,
        }
    }
}

/// Lock-free cumulative I/O counters, shared between the [`crate::disk::Disk`]
/// (which increments them under its own lock) and the buffer pool (which
/// snapshots them without taking the disk lock — experiment measurement
/// must not serialize against worker I/O).
///
/// Increments happen while the disk mutex is held, so the counters are
/// exactly-once per page transfer; `Relaxed` ordering suffices because a
/// snapshot is only compared against another snapshot from the same
/// thread of control (before/after an operator run).
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    seq_reads: std::sync::atomic::AtomicU64,
    rand_reads: std::sync::atomic::AtomicU64,
    seq_writes: std::sync::atomic::AtomicU64,
    rand_writes: std::sync::atomic::AtomicU64,
    sim_ns: std::sync::atomic::AtomicU64,
}

impl AtomicIoStats {
    /// Records one transfer of the given kind, charging `ns` of simulated
    /// time. Called exactly once per page transfer by the disk layer.
    pub fn record(&self, is_read: bool, seq: bool, ns: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.sim_ns.fetch_add(ns, Relaxed);
        match (is_read, seq) {
            (true, true) => &self.seq_reads,
            (true, false) => &self.rand_reads,
            (false, true) => &self.seq_writes,
            (false, false) => &self.rand_writes,
        }
        .fetch_add(1, Relaxed);
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; cross-counter skew is possible only while workers are
    /// actively transferring pages).
    pub fn snapshot(&self) -> IoStats {
        use std::sync::atomic::Ordering::Relaxed;
        IoStats {
            seq_reads: self.seq_reads.load(Relaxed),
            rand_reads: self.rand_reads.load(Relaxed),
            seq_writes: self.seq_writes.load(Relaxed),
            rand_writes: self.rand_writes.load(Relaxed),
            sim_ns: self.sim_ns.load(Relaxed),
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} (seq {} / rand {}), writes={} (seq {} / rand {}), sim={:.3}s",
            self.reads(),
            self.seq_reads,
            self.rand_reads,
            self.writes(),
            self.seq_writes,
            self.rand_writes,
            self.sim_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_diff() {
        let a = IoStats {
            seq_reads: 10,
            rand_reads: 2,
            seq_writes: 5,
            rand_writes: 1,
            sim_ns: 1_000,
        };
        assert_eq!(a.reads(), 12);
        assert_eq!(a.writes(), 6);
        assert_eq!(a.total(), 18);
        let b = IoStats {
            seq_reads: 15,
            rand_reads: 4,
            seq_writes: 6,
            rand_writes: 3,
            sim_ns: 3_000,
        };
        let d = b.since(&a);
        assert_eq!(d.seq_reads, 5);
        assert_eq!(d.rand_reads, 2);
        assert_eq!(d.sim_ns, 2_000);
    }

    #[test]
    fn default_cost_model_orders_random_above_sequential() {
        let m = CostModel::default();
        assert!(m.rand_ns > m.seq_ns);
        assert_eq!(CostModel::free().seq_ns, 0);
    }

    #[test]
    fn transfer_cost_is_per_byte_with_full_pages_unchanged() {
        use crate::page::PAGE_SIZE;
        let m = CostModel::default();
        // Full-page transfers cost exactly the classic per-page figures.
        assert_eq!(m.transfer_ns(true, PAGE_SIZE), m.seq_ns);
        assert_eq!(m.transfer_ns(false, PAGE_SIZE), m.rand_ns);
        // Short transfers stream proportionally fewer bytes...
        assert_eq!(m.transfer_ns(true, PAGE_SIZE / 4), m.seq_ns / 4);
        // ...but a random transfer still pays the full positioning cost.
        assert!(m.transfer_ns(false, 64) >= m.rand_ns - m.seq_ns);
        assert!(m.transfer_ns(false, 64) < m.rand_ns);
        assert_eq!(CostModel::free().transfer_ns(false, PAGE_SIZE), 0);
    }
}
