//! The tuple type flowing through every join: a PBiTree code plus a small
//! payload (the interned tag id), 12 bytes on disk.

use pbitree_core::Code;
use pbitree_storage::{BufferPool, FixedRecord, HeapFile, PoolError, RecordParts, ScanOptions};

/// One element of an ancestor or descendant set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Element {
    /// The node's PBiTree code — everything structural derives from it.
    pub code: Code,
    /// Caller payload carried through joins (tag id, document id, ...).
    pub tag: u32,
}

impl Element {
    /// Convenience constructor from a raw code value.
    pub fn new(code: u64, tag: u32) -> Self {
        Element {
            code: Code::new(code).expect("element code must be non-zero"),
            tag,
        }
    }

    /// The element's region start (Lemma 3).
    #[inline]
    pub fn start(&self) -> u64 {
        self.code.region_start()
    }

    /// The element's region end (Lemma 3).
    #[inline]
    pub fn end(&self) -> u64 {
        self.code.region_end()
    }

    /// Document-order sort key: `(start asc, end desc)`.
    #[inline]
    pub fn doc_key(&self) -> u128 {
        self.code.doc_order_key()
    }
}

impl FixedRecord for Element {
    const SIZE: usize = 12;

    /// Elements decompose losslessly into `(region start, height, tag)` —
    /// the code is `start + 2^height - 1` (Lemma 3) — so heap writers may
    /// pack element pages with the delta/varint codec when compression is
    /// on. Document-ordered files yield tiny start deltas (~3 bytes per
    /// element instead of 12), roughly tripling records per page.
    const PACKABLE: bool = true;

    #[inline]
    fn write(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.code.get().to_le_bytes());
        out[8..12].copy_from_slice(&self.tag.to_le_bytes());
    }

    #[inline]
    fn read(buf: &[u8]) -> Self {
        Element {
            code: Code::from_raw_unchecked(u64::from_le_bytes(buf[..8].try_into().unwrap())),
            tag: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
        }
    }

    /// Elements report their region (Lemma 3), giving every element heap
    /// file free `(min start, max end)` catalog bounds.
    #[inline]
    fn bounds_hint(&self) -> Option<(u64, u64)> {
        Some(self.code.region())
    }

    /// Elements report their node height; together with
    /// [`bounds_hint`](FixedRecord::bounds_hint) this gives element heap
    /// pages complete zone-map entries, so pushdown filters can prune
    /// pages by region window *and* height range.
    #[inline]
    fn height_hint(&self) -> Option<u32> {
        Some(self.code.height())
    }

    /// A zero code encodes "no node" and can only appear on a corrupted
    /// page; rejecting it here (before [`read`](FixedRecord::read)) turns
    /// such pages into [`pbitree_storage::PoolError::Corrupt`] on every
    /// operator scan path instead of decoding an invalid [`Code`].
    #[inline]
    fn validate(buf: &[u8]) -> Result<(), &'static str> {
        if buf[..8] == [0u8; 8] {
            Err("element code is zero")
        } else {
            Ok(())
        }
    }

    #[inline]
    fn to_parts(&self) -> Option<RecordParts> {
        Some(RecordParts {
            start: self.start(),
            height: self.code.height(),
            tag: self.tag,
        })
    }

    /// Reassembles the code as `start + 2^height - 1` and validates it the
    /// way [`validate`](FixedRecord::validate) guards the raw layout:
    /// overflow, a zero code, or a code whose trailing-zero count disagrees
    /// with the stored height all reject the page as corrupt.
    fn from_parts(p: RecordParts) -> Result<Self, &'static str> {
        if p.height > 63 {
            return Err("element height exceeds 63");
        }
        let raw = p
            .start
            .checked_add((1u64 << p.height) - 1)
            .ok_or("element start out of range for its height")?;
        let code = Code::new(raw).map_err(|_| "element code is zero")?;
        if code.height() != p.height {
            return Err("element start inconsistent with height");
        }
        Ok(Element { code, tag: p.tag })
    }
}

/// Builds an element heap file from `(raw code, tag)` pairs.
pub fn element_file<I>(pool: &BufferPool, items: I) -> Result<HeapFile<Element>, PoolError>
where
    I: IntoIterator<Item = (u64, u32)>,
{
    HeapFile::from_iter(pool, items.into_iter().map(|(c, t)| Element::new(c, t)))
}

/// [`element_file`] under explicit [`ScanOptions`] — the way experiment
/// harnesses build inputs that honor a context's compression setting.
pub fn element_file_with<I>(
    pool: &BufferPool,
    opts: ScanOptions,
    items: I,
) -> Result<HeapFile<Element>, PoolError>
where
    I: IntoIterator<Item = (u64, u32)>,
{
    HeapFile::from_iter_with(
        pool,
        opts,
        items.into_iter().map(|(c, t)| Element::new(c, t)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let e = Element::new(0x1234_5678_9ABC, 77);
        let mut buf = [0u8; 12];
        e.write(&mut buf);
        assert_eq!(Element::read(&buf), e);
    }

    #[test]
    fn region_accessors() {
        let e = Element::new(16, 0); // height 4
        assert_eq!((e.start(), e.end()), (1, 31));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_code_panics() {
        let _ = Element::new(0, 0);
    }

    #[test]
    fn parts_round_trip_extremes() {
        // The full-height root (region [1, u64::MAX]), leaves, and interior
        // nodes all survive the parts decomposition exactly.
        for raw in [1u64 << 63, 1, 3, 16, 31, (1 << 40) | (1 << 20), u64::MAX] {
            let e = Element::new(raw, 77);
            let p = e.to_parts().unwrap();
            assert_eq!(Element::from_parts(p), Ok(e), "code {raw:#x}");
        }
        let root = Element::new(1u64 << 63, 0);
        assert_eq!((root.start(), root.end()), (1, u64::MAX));
        let p = root.to_parts().unwrap();
        assert_eq!((p.start, p.height), (1, 63));
    }

    #[test]
    fn inconsistent_parts_are_rejected() {
        use pbitree_storage::RecordParts;
        // height 64 has no code.
        assert!(Element::from_parts(RecordParts {
            start: 1,
            height: 64,
            tag: 0
        })
        .is_err());
        // start 2 at height 1 gives code 3, whose height is 0 — mismatch.
        assert!(Element::from_parts(RecordParts {
            start: 2,
            height: 1,
            tag: 0
        })
        .is_err());
        // start + 2^height - 1 overflows.
        assert!(Element::from_parts(RecordParts {
            start: u64::MAX,
            height: 1,
            tag: 0
        })
        .is_err());
        // start 0 at height 0 reassembles code zero.
        assert!(Element::from_parts(RecordParts {
            start: 0,
            height: 0,
            tag: 0
        })
        .is_err());
    }

    #[test]
    fn seed_loop_parts_round_trip() {
        // Vendored xorshift property loop over random valid codes.
        let mut x = 0xBEEF_CAFE_1234_5678u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let raw = x | 1; // any odd value is a leaf code; vary heights too
            let shifted = raw << (x % 8);
            for c in [raw, if shifted == 0 { raw } else { shifted }] {
                let e = Element::new(c, (x % 1000) as u32);
                assert_eq!(Element::from_parts(e.to_parts().unwrap()), Ok(e));
            }
        }
    }
}
