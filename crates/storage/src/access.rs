//! Access-pattern declarations: how a caller intends to touch a file.
//!
//! Scans, sorts, bulk loads and partition writers know their own access
//! shape; the storage layer does not. [`ScanOptions`] carries that intent
//! down to the buffer pool and heap writers, which turn it into read-ahead
//! prefetching ([`AccessPattern::Sequential`]) or coalesced multi-page
//! appends ([`AccessPattern::WriteOnce`]). The declared depth is a *hint*:
//! the pool prefetches best-effort and never past what the frame budget can
//! absorb, and callers sharing a budget across several streams shrink their
//! depth with [`ScanOptions::shared`] so concurrent streams do not evict
//! each other's read-ahead.

use crate::zone::ScanFilter;

/// How a file is about to be accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Point lookups with no useful locality: no read-ahead, no batching.
    Random,
    /// A front-to-back scan. On a miss the pool reads the missed page plus
    /// up to `readahead - 1` following pages in one vectored transfer
    /// (1 disables read-ahead).
    Sequential {
        /// Total pages per fetch batch, the missed page included.
        readahead: usize,
    },
    /// Output written once, front to back, and only read later. Writers
    /// buffer `batch` page images and append them with one vectored
    /// transfer (1 writes page-at-a-time).
    WriteOnce {
        /// Page images coalesced per append batch.
        batch: usize,
    },
}

/// Default transfer-batch depth (pages) for sequential and write-once
/// access when the caller does not say otherwise.
pub const DEFAULT_IO_DEPTH: usize = 8;

/// Per-operation I/O options: the declared access pattern plus an optional
/// pushdown [`ScanFilter`] evaluated against zone maps by heap scans.
///
/// The default is `Sequential { readahead: DEFAULT_IO_DEPTH }` with no
/// filter: heap files in this engine are overwhelmingly scanned front to
/// back, so plain [`crate::HeapFile::scan`] gets read-ahead unless a
/// caller opts out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// The declared access pattern.
    pub pattern: AccessPattern,
    /// Pushdown predicate for filtered scans ([`ScanFilter::All`] reads
    /// everything). Ignored by writers and raw page reads; consumed by
    /// [`crate::heap::HeapScan`], which skips pages whose zone cannot
    /// satisfy it.
    pub filter: ScanFilter,
    /// Whether heap writers should pack pages of
    /// [packable](crate::record::FixedRecord::PACKABLE) records with the
    /// delta/varint codec ([`crate::codec`]). Scans ignore it — the page
    /// header, not the option, selects the decode path, so compressed and
    /// raw files are always readable. Off in every constructor; callers
    /// opt in with [`ScanOptions::with_compress`].
    pub compress: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions::sequential(DEFAULT_IO_DEPTH)
    }
}

impl ScanOptions {
    /// Point-lookup access: no read-ahead, no write batching.
    pub fn random() -> Self {
        ScanOptions {
            pattern: AccessPattern::Random,
            filter: ScanFilter::All,
            compress: false,
        }
    }

    /// Sequential access with the given fetch-batch depth (clamped to at
    /// least 1; 1 means no read-ahead).
    pub fn sequential(readahead: usize) -> Self {
        ScanOptions {
            pattern: AccessPattern::Sequential {
                readahead: readahead.max(1),
            },
            filter: ScanFilter::All,
            compress: false,
        }
    }

    /// Write-once output with the given append-batch depth (clamped to at
    /// least 1; 1 means page-at-a-time writes).
    pub fn write_once(batch: usize) -> Self {
        ScanOptions {
            pattern: AccessPattern::WriteOnce {
                batch: batch.max(1),
            },
            filter: ScanFilter::All,
            compress: false,
        }
    }

    /// The same options with `filter` conjoined onto any existing filter
    /// (see [`ScanFilter::and`]).
    pub fn with_filter(self, filter: ScanFilter) -> Self {
        ScanOptions {
            filter: self.filter.and(filter),
            ..self
        }
    }

    /// The same options with page compression switched on or off —
    /// the knob [`crate::heap::HeapWriter`] consults for packable record
    /// types.
    pub fn with_compress(self, compress: bool) -> Self {
        ScanOptions { compress, ..self }
    }

    /// The transfer-batch depth the pattern implies: `readahead` for
    /// sequential access, `batch` for write-once output, 1 for random.
    pub fn depth(&self) -> usize {
        match self.pattern {
            AccessPattern::Random => 1,
            AccessPattern::Sequential { readahead } => readahead,
            AccessPattern::WriteOnce { batch } => batch,
        }
    }

    /// Caps the depth so one stream's read-ahead can occupy at most half of
    /// `budget` frames — the sizing rule that keeps prefetch from evicting
    /// the pages an operator is actually working on. Random access is
    /// unaffected.
    pub fn clamped(self, budget: usize) -> Self {
        self.with_depth(self.depth().min((budget / 2).max(1)))
    }

    /// Splits the depth across `streams` concurrent read streams of one
    /// budget (interleaved sort-merge inputs, a merge join's two sides), so
    /// their combined read-ahead stays within the single-stream depth of
    /// pool frames.
    pub fn shared(self, streams: usize) -> Self {
        self.with_depth(self.depth() / streams.max(1))
    }

    /// Same pattern with a new depth (clamped to at least 1). The filter
    /// and compression flag are preserved.
    pub fn with_depth(self, depth: usize) -> Self {
        let depth = depth.max(1);
        ScanOptions {
            pattern: match self.pattern {
                AccessPattern::Random => AccessPattern::Random,
                AccessPattern::Sequential { .. } => AccessPattern::Sequential { readahead: depth },
                AccessPattern::WriteOnce { .. } => AccessPattern::WriteOnce { batch: depth },
            },
            ..self
        }
    }

    /// The write-once counterpart of this option set: same depth, batching
    /// appends instead of prefetching reads. Any read filter is dropped —
    /// writers filter nothing — but the compression flag survives, so
    /// operators handing their read options to an output writer (sort runs,
    /// partition files) compress exactly when their context says to.
    pub fn as_write(self) -> Self {
        ScanOptions {
            compress: self.compress,
            ..ScanOptions::write_once(self.depth())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_is_off_until_asked_for() {
        assert!(!ScanOptions::default().compress);
        assert!(!ScanOptions::random().compress);
        assert!(!ScanOptions::write_once(4).compress);
        let packed = ScanOptions::sequential(4).with_compress(true);
        assert!(packed.as_write().compress && packed.with_depth(2).compress);
    }

    #[test]
    fn default_is_sequential_at_default_depth() {
        assert_eq!(
            ScanOptions::default().pattern,
            AccessPattern::Sequential {
                readahead: DEFAULT_IO_DEPTH
            }
        );
    }

    #[test]
    fn depth_floors_at_one() {
        assert_eq!(ScanOptions::sequential(0).depth(), 1);
        assert_eq!(ScanOptions::write_once(0).depth(), 1);
        assert_eq!(ScanOptions::random().depth(), 1);
    }

    #[test]
    fn clamped_to_half_budget() {
        let o = ScanOptions::sequential(16);
        assert_eq!(o.clamped(8).depth(), 4);
        assert_eq!(o.clamped(64).depth(), 16);
        assert_eq!(o.clamped(3).depth(), 1);
        assert_eq!(
            ScanOptions::random().clamped(2).pattern,
            AccessPattern::Random
        );
    }

    #[test]
    fn shared_divides_depth() {
        let o = ScanOptions::sequential(8);
        assert_eq!(o.shared(2).depth(), 4);
        assert_eq!(o.shared(100).depth(), 1);
        assert_eq!(o.shared(0).depth(), 8);
    }

    #[test]
    fn filter_survives_depth_adjustments() {
        let f = ScanFilter::RegionOverlap { start: 3, end: 9 };
        let o = ScanOptions::sequential(8).with_filter(f);
        assert_eq!(o.filter, f);
        assert_eq!(o.clamped(8).filter, f);
        assert_eq!(o.shared(2).filter, f);
        assert_eq!(o.with_depth(2).filter, f);
        // Writers never filter.
        assert_eq!(o.as_write().filter, ScanFilter::All);
        // Conjunction, not replacement.
        let both = o.with_filter(ScanFilter::HeightRange { min: 1, max: 2 });
        assert!(matches!(
            both.filter,
            ScanFilter::RegionAndHeight {
                start: 3,
                end: 9,
                min: 1,
                max: 2
            }
        ));
    }

    #[test]
    fn compress_survives_every_combinator() {
        let o = ScanOptions::sequential(8).with_compress(true);
        assert!(o.compress);
        assert!(o.clamped(8).compress);
        assert!(o.shared(2).compress);
        assert!(o.with_depth(2).compress);
        assert!(
            o.with_filter(ScanFilter::HeightRange { min: 0, max: 1 })
                .compress
        );
        // Writers inherit the flag: that is where it takes effect.
        assert!(o.as_write().compress);
        assert!(!o.with_compress(false).as_write().compress);
    }

    #[test]
    fn as_write_keeps_depth() {
        assert_eq!(
            ScanOptions::sequential(6).as_write().pattern,
            AccessPattern::WriteOnce { batch: 6 }
        );
    }
}
