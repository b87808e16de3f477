//! # pbitree-storage — a Minibase-style paged storage engine
//!
//! The ICDE 2003 PBiTree paper runs its evaluation on Minibase: a storage
//! manager operating on raw disk, a buffer manager with a bounded frame
//! budget, and heap files of fixed-width tuples. This crate reimplements
//! that substrate in Rust:
//!
//! * [`disk`] — pluggable disk backends behind [`disk::DiskBackend`]:
//!   an in-memory backend, a shared handle to one, and a fault-injecting
//!   wrapper ([`fault`]). Every page transfer is
//!   classified sequential vs. random and charged against a configurable
//!   [`stats::CostModel`], so experiments report deterministic simulated
//!   I/O time next to raw page counts (the paper's numbers are I/O-bound;
//!   see `DESIGN.md`, substitution 1).
//! * [`buffer`] — a clock-replacement buffer pool with pin/unpin guards and
//!   a hard frame budget `b`, the paper's `NumBufferPages`; a scan larger
//!   than the pool recycles a small ring of its own frames instead.
//! * [`heap`] — unordered files of fixed-width records
//!   ([`record::FixedRecord`]) with append writers and sequential scanners.
//! * [`sort`] — external multiway merge sort (run formation + k-way merge)
//!   operating entirely through the buffer pool, used by the "sort on the
//!   fly" baselines (StackTree/ADB+/INLJN over unsorted inputs).
//! * [`util::hash`] — an FxHash-style integer hasher for the join hash
//!   tables, which are keyed by 8-byte codes (SipHash would dominate CPU
//!   cost). A height-`h` code ends in `h` zero bits and std's tables pick
//!   buckets from the low bits, so `finish` mixes every bit into every
//!   other (`fmix64`); tables are sized at the `n` entries they will hold.
//!
//! The buffer pool is thread-safe (`Send + Sync`): one mutex guards the
//! page table, frame metadata sits behind per-frame mutexes, each frame's
//! bytes behind a std `RwLock`, and counters are atomic, so the query
//! service's concurrent queries share one frame budget. Page guards hold
//! the std lock guards and stay on their thread. A single caller sees
//! exactly the classic sequential pool, and stays deterministic.

#![forbid(unsafe_code)]

pub mod access;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod freelist;
pub mod heap;
pub mod page;
pub mod record;
pub mod shard;
pub mod sort;
pub mod stats;
pub mod util;
pub mod wal;
pub mod zone;

pub use access::{AccessPattern, ScanOptions, DEFAULT_IO_DEPTH};
pub use buffer::{
    BufferPool, LsnGate, PageMut, PageRef, PoolError, PoolStats, StatsSnapshot, TempFile,
};
pub use codec::records_per_page;
pub use disk::{BatchError, Disk, DiskBackend, IoError, IoErrorKind, MemBackend, SharedBackend};
pub use fault::{FaultBackend, FaultConfig, FaultHandle};
pub use freelist::FreeList;
pub use heap::{HeapFile, HeapScan, HeapWriter, ScanPos};
pub use page::{FileId, PageBuf, PageId, PAGE_SIZE};
pub use record::{FixedRecord, RecordParts};
pub use shard::ShardPlan;
pub use sort::{external_sort, external_sort_with};
pub use stats::{CostModel, IoStats, WalStats};
pub use wal::{recover, RecoveryReport, Wal, WalOp};
pub use zone::{FileZones, ScanFilter, ZoneEntry};
