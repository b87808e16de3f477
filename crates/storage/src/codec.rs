//! Heap page layout — the one definition of how a heap page holds its
//! records — and the packed page codec: frame-of-reference + delta +
//! varint coding for records that decompose into `(start, height, tag)`
//! parts ([`crate::record::FixedRecord::to_parts`]).
//!
//! PBiTree elements are ideal for this: files are overwhelmingly written in
//! document order, so consecutive region starts differ by small amounts; the
//! region *end* is fully determined by `(start, height)` (Lemma 3), so it is
//! never stored; heights fit in 6 bits; tags are small interned ids. A page
//! that stores 12-byte elements raw typically packs them into ~3 bytes each,
//! tripling the records per page — and every operator's `page_reads` drop
//! proportionally at identical join results.
//!
//! # On-disk layout of a heap page
//!
//! Every page opens with a little-endian **count dword**. Its high bit,
//! [`PACKED_FLAG`], selects the layout: raw counts are bounded by
//! [`records_per_page`], so they never set it, and raw pages stay
//! byte-identical to the uncompressed format. `Layout::parse` is the one
//! reader of the header on both layouts, `Layout::decode` the one record
//! decoder behind every heap scan, open and logged mutation.
//!
//! A **raw page** holds `n ≤ records_per_page::<R>()` fixed-width slots
//! (`S = R::SIZE`, the bytes of [`crate::record::FixedRecord::write`]):
//!
//! ```text
//! [0..4)                      u32 LE  n
//! [4 + i·S .. 4 + (i+1)·S)            slot i, for i < n
//! [4 + n·S .. PAGE_SIZE)              stale tail
//! ```
//!
//! The bulk writer fills one reused page buffer and writes only the count
//! and the slots it filled, so a partial raw page inherits the tail of
//! whichever page (raw or packed) the writer sealed before it. No reader
//! looks past slot `n`, but the bytes are part of the file and
//! `tests/golden_layout.rs` hashes every one of them: the writer must keep
//! reusing its buffer, never zero or reallocate it between pages.
//!
//! A **packed page** carries a [`PACKED_HEADER`]-byte header table, then
//! the payload, then zeros:
//!
//! ```text
//! [0..4)    u32 LE  PACKED_FLAG | n        (record count, high bit set)
//! [4..8)    u32 LE  payload length P
//! [8..12)   u32 LE  checksum over (n, base, payload)
//! [12..20)  u64 LE  base — the first record's start
//! [20..24)  u32 LE  D — length of the delta section within the payload
//! [24..24+P)        payload:
//!     [0..D)        n-1 zigzag varints: start[i] - start[i-1] (wrapping)
//!     [D..D+H)      6-bit packed heights, H = ceil(6n / 8)
//!     [D+H..P)      n varint tags
//! [24+P..PAGE_SIZE) zero
//! ```
//!
//! # Validation
//!
//! Decoding trusts nothing: the raw count against the page's capacity, the
//! packed record count, section lengths, every varint terminator, the
//! height range, the checksum, and the reassembled records themselves
//! ([`crate::record::FixedRecord::validate`] for raw slots,
//! [`crate::record::FixedRecord::from_parts`] for packed ones) are all
//! checked, and any inconsistency surfaces as [`PoolError::Corrupt`] naming
//! the page — a torn or bit-flipped page can never decode to silently
//! wrong records. The checksum mixes in `n` and `base` so header and
//! payload corruption are both caught.

use std::ops::Range;

use crate::buffer::PoolError;
use crate::page::{PageId, PAGE_SIZE};
use crate::record::{FixedRecord, RecordParts};
use crate::util::fnv1a32;

/// High bit of the count dword: set on packed pages, never on raw pages.
pub const PACKED_FLAG: u32 = 0x8000_0000;

/// Bytes of packed-page header preceding the payload.
pub const PACKED_HEADER: usize = 24;

/// Bytes of the count dword every page opens with.
pub(crate) const COUNT: usize = 4;

/// Records of type `R` that fit in one raw page.
pub const fn records_per_page<R: FixedRecord>() -> usize {
    (PAGE_SIZE - COUNT) / R::SIZE
}

/// Byte range of slot `i` on a raw page of `R` records.
#[inline]
pub(crate) fn raw_slot<R: FixedRecord>(i: usize) -> Range<usize> {
    let off = COUNT + i * R::SIZE;
    off..off + R::SIZE
}

/// The count dword of a raw page holding `n` records (page offset 0).
#[inline]
pub(crate) fn raw_count(n: usize) -> [u8; COUNT] {
    (n as u32).to_le_bytes()
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bytes a LEB128 varint of `v` occupies (1..=10).
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one varint from `buf` at `*at`, advancing it. `None` on a
/// truncated or over-long (> 10 byte) encoding.
#[inline]
fn get_varint(buf: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*at)?;
        *at += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// FNV-1a over `(n, base, payload)` ([`fnv1a32`]). It exists to turn torn
/// writes and stray bit flips into [`PoolError::Corrupt`] instead of
/// plausible-looking records.
fn checksum(n: u32, base: u64, payload: &[u8]) -> u32 {
    fnv1a32(&[&n.to_le_bytes(), &base.to_le_bytes(), payload])
}

#[inline]
pub(crate) fn corrupt(pid: PageId, reason: &'static str) -> PoolError {
    PoolError::Corrupt { pid, reason }
}

/// The bytes a page image actually occupies on the wire: header plus
/// payload for a structurally plausible packed page, the full
/// [`PAGE_SIZE`] otherwise. This feeds the disk layer's per-byte
/// transfer cost — a packed page streams only its sealed bytes, which is
/// how compression shows up in simulated *time* and not just page
/// counts. Infallible by design: cost accounting must never reject a
/// page (corruption is the buffer pool's business to diagnose), so a
/// flagged header whose sizes do not hold together simply charges the
/// full page.
pub fn transfer_bytes(page: &[u8]) -> usize {
    if page.len() < PACKED_HEADER {
        return page.len();
    }
    let hdr = PackedHeader::read(page);
    let payload = hdr.payload as usize;
    if hdr.count & PACKED_FLAG == 0 || hdr.n() == 0 || payload > PAGE_SIZE - PACKED_HEADER {
        return PAGE_SIZE;
    }
    PACKED_HEADER + payload
}

/// The header table of a packed page, field for field as stored. Its
/// `read`/`write` pair is the only code that knows the table's offsets,
/// and `read` is the only decoder of the count dword — raw pages' too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedHeader {
    /// The count dword: `PACKED_FLAG | n` on a packed page, `n` on a raw one.
    count: u32,
    /// Payload length `P`.
    payload: u32,
    /// Checksum over `(n, base, payload)`.
    checksum: u32,
    /// The first record's start.
    base: u64,
    /// Length `D` of the delta section within the payload.
    deltas: u32,
}

const _: () = assert!(std::mem::size_of::<PackedHeader>() == PACKED_HEADER);

impl PackedHeader {
    fn read(page: &[u8]) -> Self {
        let dword = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        PackedHeader {
            count: dword(0),
            payload: dword(4),
            checksum: dword(8),
            base: u64::from_le_bytes(page[12..20].try_into().expect("8 bytes")),
            deltas: dword(20),
        }
    }

    fn write(&self, page: &mut [u8]) {
        page[0..4].copy_from_slice(&self.count.to_le_bytes());
        page[4..8].copy_from_slice(&self.payload.to_le_bytes());
        page[8..12].copy_from_slice(&self.checksum.to_le_bytes());
        page[12..20].copy_from_slice(&self.base.to_le_bytes());
        page[20..24].copy_from_slice(&self.deltas.to_le_bytes());
    }

    /// The record count, flag stripped.
    #[inline]
    fn n(&self) -> usize {
        (self.count & !PACKED_FLAG) as usize
    }
}

/// How one heap page holds its records, as its header says.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// `n` fixed-width slots after the count dword.
    Raw { n: usize },
    /// A structurally valid, checksum-verified packed header.
    Packed(PackedHeader),
}

impl Layout {
    /// Parses a page's header for records of type `R`: the one header
    /// check of every heap reader and writer. A raw count beyond
    /// [`records_per_page`] (a bound only raw pages obey — packed pages
    /// legitimately hold more), or a flagged header whose sizes, sections
    /// or checksum do not hold together, is [`PoolError::Corrupt`] naming
    /// `pid`.
    pub fn parse<R: FixedRecord>(page: &[u8], pid: PageId) -> Result<Layout, PoolError> {
        let hdr = PackedHeader::read(page);
        if hdr.count & PACKED_FLAG == 0 {
            let n = hdr.count as usize;
            if n > records_per_page::<R>() {
                return Err(corrupt(
                    pid,
                    "page header record count exceeds page capacity",
                ));
            }
            return Ok(Layout::Raw { n });
        }
        let (n, payload) = (hdr.n(), hdr.payload as usize);
        if n == 0 {
            return Err(corrupt(pid, "packed page holds no records"));
        }
        if payload > PAGE_SIZE - PACKED_HEADER {
            return Err(corrupt(pid, "packed payload exceeds page size"));
        }
        // Every record costs at least one tag byte and 6 height bits; records
        // after the first cost at least one delta byte. Anything claiming more
        // records than the payload can hold is corrupt without reading further.
        let min_payload = (n - 1) + (6 * n).div_ceil(8) + n;
        if min_payload > payload {
            return Err(corrupt(pid, "packed record count exceeds payload capacity"));
        }
        if hdr.deltas as usize > payload {
            return Err(corrupt(pid, "packed delta section exceeds payload"));
        }
        let body = &page[PACKED_HEADER..PACKED_HEADER + payload];
        if hdr.checksum != checksum(n as u32, hdr.base, body) {
            return Err(corrupt(pid, "packed page checksum mismatch"));
        }
        Ok(Layout::Packed(hdr))
    }

    /// Records on the page.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Layout::Raw { n } => *n,
            Layout::Packed(hdr) => hdr.n(),
        }
    }

    /// Streams records `skip..len()` of the page this layout was parsed
    /// from through `f`, checking each on the way: a raw slot must pass
    /// [`FixedRecord::validate`]; a packed record is reassembled from its
    /// `(start, height, tag)` parts via [`FixedRecord::from_parts`], with
    /// no intermediate allocation, and the three payload sections must
    /// hold together. Packed records before `skip` are decoded (the deltas
    /// chain) but not handed out. The first failure is
    /// [`PoolError::Corrupt`] naming `pid`; the records before it have
    /// already reached `f`.
    pub fn decode<R: FixedRecord>(
        &self,
        page: &[u8],
        pid: PageId,
        skip: usize,
        mut f: impl FnMut(R),
    ) -> Result<(), PoolError> {
        let hdr = match self {
            Layout::Raw { n } => {
                for i in skip..*n {
                    let bytes = &page[raw_slot::<R>(i)];
                    R::validate(bytes).map_err(|reason| corrupt(pid, reason))?;
                    f(R::read(bytes));
                }
                return Ok(());
            }
            Layout::Packed(hdr) => hdr,
        };
        let (n, plen, deltas) = (hdr.n(), hdr.payload as usize, hdr.deltas as usize);
        let payload = &page[PACKED_HEADER..PACKED_HEADER + plen];
        let hbytes = (6 * n).div_ceil(8);
        if deltas + hbytes > plen {
            return Err(corrupt(pid, "packed height section exceeds payload"));
        }
        let heights = &payload[deltas..deltas + hbytes];
        let mut dcur = 0usize; // cursor in the delta section
        let mut tcur = deltas + hbytes; // cursor in the tag section
        let mut start = hdr.base;
        for i in 0..n {
            if i > 0 {
                let raw = get_varint(&payload[..deltas], &mut dcur)
                    .ok_or_else(|| corrupt(pid, "packed start delta truncated"))?;
                start = start.wrapping_add(unzigzag(raw) as u64);
            }
            let bit = 6 * i;
            let (byte, shift) = (bit / 8, bit % 8);
            let mut v = u16::from(heights[byte]) >> shift;
            if shift > 2 {
                v |= u16::from(heights[byte + 1]) << (8 - shift);
            }
            let height = u32::from(v & 0x3F);
            let tag64 = get_varint(payload, &mut tcur)
                .ok_or_else(|| corrupt(pid, "packed tag truncated"))?;
            let tag =
                u32::try_from(tag64).map_err(|_| corrupt(pid, "packed tag exceeds 32 bits"))?;
            let r = R::from_parts(RecordParts { start, height, tag })
                .map_err(|reason| corrupt(pid, reason))?;
            if i >= skip {
                f(r);
            }
        }
        if dcur != deltas {
            return Err(corrupt(pid, "packed delta section has trailing bytes"));
        }
        if tcur != plen {
            return Err(corrupt(pid, "packed tag section has trailing bytes"));
        }
        Ok(())
    }
}

/// Incremental encoder for one packed page: buffers record parts and tracks
/// the exact encoded size, so the writer can seal the page the moment the
/// next record would no longer fit.
#[derive(Debug, Default)]
pub(crate) struct PackedPageBuilder {
    parts: Vec<RecordParts>,
    delta_bytes: usize,
    tag_bytes: usize,
}

impl PackedPageBuilder {
    /// Records currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Exact on-page size (header + payload) if sealed now.
    fn size(&self) -> usize {
        let n = self.parts.len();
        PACKED_HEADER + self.delta_bytes + (6 * n).div_ceil(8) + self.tag_bytes
    }

    /// Whether appending `p` keeps the page within [`PAGE_SIZE`]. A single
    /// record always fits an empty page (`PACKED_HEADER + MAX_RECORD_PACKED
    /// << PAGE_SIZE`).
    pub fn fits(&self, p: &RecordParts) -> bool {
        let delta = match self.parts.last() {
            None => 0,
            Some(prev) => varint_len(zigzag((p.start.wrapping_sub(prev.start)) as i64)),
        };
        let n = self.parts.len() + 1;
        let size = PACKED_HEADER
            + self.delta_bytes
            + delta
            + (6 * n).div_ceil(8)
            + self.tag_bytes
            + varint_len(u64::from(p.tag));
        size <= PAGE_SIZE
    }

    /// Appends one record's parts. The caller checks [`fits`] first.
    ///
    /// [`fits`]: PackedPageBuilder::fits
    pub fn push(&mut self, p: RecordParts) {
        if let Some(prev) = self.parts.last() {
            self.delta_bytes += varint_len(zigzag((p.start.wrapping_sub(prev.start)) as i64));
        }
        self.tag_bytes += varint_len(u64::from(p.tag));
        self.parts.push(p);
        debug_assert!(self.size() <= PAGE_SIZE);
    }

    /// Serializes the buffered records into `page` (a full page image) and
    /// resets the builder. Returns `(n, bytes_used)`; the builder must be
    /// non-empty.
    pub fn seal_into(&mut self, page: &mut [u8]) -> (usize, usize) {
        let n = self.parts.len();
        debug_assert!(n >= 1, "sealing an empty packed page");
        let base = self.parts[0].start;
        let mut payload = Vec::with_capacity(self.size() - PACKED_HEADER);
        for w in self.parts.windows(2) {
            put_varint(
                &mut payload,
                zigzag((w[1].start.wrapping_sub(w[0].start)) as i64),
            );
        }
        let d = payload.len();
        debug_assert_eq!(d, self.delta_bytes);
        // 6-bit heights, little-endian within a u64 bit cursor.
        let hbytes = (6 * n).div_ceil(8);
        let hoff = payload.len();
        payload.resize(hoff + hbytes, 0);
        for (i, p) in self.parts.iter().enumerate() {
            debug_assert!(p.height <= 63);
            let bit = 6 * i;
            let (byte, shift) = (bit / 8, bit % 8);
            let v = (p.height as u16 & 0x3F) << shift;
            payload[hoff + byte] |= (v & 0xFF) as u8;
            if shift > 2 {
                payload[hoff + byte + 1] |= (v >> 8) as u8;
            }
        }
        for p in &self.parts {
            put_varint(&mut payload, u64::from(p.tag));
        }
        let plen = payload.len();
        debug_assert_eq!(PACKED_HEADER + plen, self.size());
        PackedHeader {
            count: PACKED_FLAG | n as u32,
            payload: plen as u32,
            checksum: checksum(n as u32, base, &payload),
            base,
            deltas: d as u32,
        }
        .write(page);
        page[PACKED_HEADER..PACKED_HEADER + plen].copy_from_slice(&payload);
        page[PACKED_HEADER + plen..].fill(0);
        self.parts.clear();
        self.delta_bytes = 0;
        self.tag_bytes = 0;
        (n, PACKED_HEADER + plen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Part {
        start: u64,
        height: u32,
        tag: u32,
    }

    impl FixedRecord for Part {
        const SIZE: usize = 16;
        const PACKABLE: bool = true;
        fn write(&self, out: &mut [u8]) {
            out[..8].copy_from_slice(&self.start.to_le_bytes());
            out[8..12].copy_from_slice(&self.height.to_le_bytes());
            out[12..16].copy_from_slice(&self.tag.to_le_bytes());
        }
        fn read(buf: &[u8]) -> Self {
            Part {
                start: u64::from_le_bytes(buf[..8].try_into().unwrap()),
                height: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
                tag: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            }
        }
        fn to_parts(&self) -> Option<RecordParts> {
            (self.height <= 63).then_some(RecordParts {
                start: self.start,
                height: self.height,
                tag: self.tag,
            })
        }
        fn from_parts(p: RecordParts) -> Result<Self, &'static str> {
            Ok(Part {
                start: p.start,
                height: p.height,
                tag: p.tag,
            })
        }
    }

    fn pid() -> PageId {
        PageId::new(crate::page::FileId(7), 3)
    }

    fn round_trip(parts: &[Part]) {
        let mut b = PackedPageBuilder::default();
        for p in parts {
            assert!(b.fits(&p.to_parts().unwrap()));
            b.push(p.to_parts().unwrap());
        }
        let mut page = [0u8; PAGE_SIZE];
        let (n, used) = b.seal_into(&mut page);
        assert_eq!(n, parts.len());
        assert!(used <= PAGE_SIZE);
        let layout = Layout::parse::<Part>(&page, pid()).unwrap();
        assert!(matches!(layout, Layout::Packed(_)));
        assert_eq!(layout.len(), parts.len());
        let mut got = Vec::new();
        layout
            .decode::<Part>(&page, pid(), 0, |r| got.push(r))
            .unwrap();
        assert_eq!(got, parts);
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 1 << 40] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut at = 0;
            assert_eq!(get_varint(&buf, &mut at), Some(v));
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn extremes_round_trip() {
        // Root-like region start 0 at the maximum height, leaves, and
        // maximum-width start deltas in both directions.
        round_trip(&[Part {
            start: 0,
            height: 63,
            tag: u32::MAX,
        }]);
        round_trip(&[
            Part {
                start: u64::MAX - 1,
                height: 0,
                tag: 0,
            },
            Part {
                start: 0,
                height: 63,
                tag: 1,
            },
            Part {
                start: u64::MAX,
                height: 31,
                tag: u32::MAX,
            },
        ]);
        round_trip(
            &(0..200u64)
                .map(|i| Part {
                    start: i * 2 + 1,
                    height: (i % 64) as u32,
                    tag: (i % 5) as u32,
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn seed_loop_random_round_trips() {
        // Vendored xorshift-style property loop: many random part vectors,
        // including unsorted starts (wrapping deltas must hold).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..200 {
            let n = (rng() % 300 + 1) as usize;
            let parts: Vec<Part> = (0..n)
                .map(|_| Part {
                    start: rng(),
                    height: (rng() % 64) as u32,
                    tag: (rng() % 1000) as u32,
                })
                .collect();
            // Only pack as many as fit one page.
            let mut b = PackedPageBuilder::default();
            let mut kept = Vec::new();
            for p in &parts {
                if !b.fits(&p.to_parts().unwrap()) {
                    break;
                }
                b.push(p.to_parts().unwrap());
                kept.push(*p);
            }
            assert!(!kept.is_empty(), "case {case}: nothing fit");
            let mut page = [0u8; PAGE_SIZE];
            b.seal_into(&mut page);
            let mut got = Vec::new();
            Layout::parse::<Part>(&page, pid())
                .and_then(|l| l.decode::<Part>(&page, pid(), 0, |r| got.push(r)))
                .unwrap();
            assert_eq!(got, kept, "case {case}");
        }
    }

    #[test]
    fn raw_counts_are_not_packed() {
        let mut page = [0u8; PAGE_SIZE];
        page[..COUNT].copy_from_slice(&raw_count(200));
        assert!(matches!(
            Layout::parse::<Part>(&page, pid()),
            Ok(Layout::Raw { n: 200 })
        ));
    }

    #[test]
    fn transfer_bytes_is_sealed_size_for_packed_and_full_page_otherwise() {
        // A raw page ships whole.
        let mut raw = [0u8; PAGE_SIZE];
        raw[..4].copy_from_slice(&341u32.to_le_bytes());
        assert_eq!(transfer_bytes(&raw), PAGE_SIZE);
        // A sealed packed page ships exactly header + payload.
        let mut b = PackedPageBuilder::default();
        for i in 0..50u64 {
            b.push(RecordParts {
                start: 1000 + i * 3,
                height: (i % 7) as u32,
                tag: i as u32,
            });
        }
        let mut page = [0u8; PAGE_SIZE];
        let (_, used) = b.seal_into(&mut page);
        assert!(used < PAGE_SIZE);
        assert_eq!(transfer_bytes(&page), used);
        // Flagged garbage (absurd payload length) charges the full page —
        // the sniff never trusts an implausible header.
        assert_eq!(transfer_bytes(&[0xFF; PAGE_SIZE]), PAGE_SIZE);
        assert_eq!(transfer_bytes(&[0u8; 4]), 4);
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let parts: Vec<Part> = (0..100)
            .map(|i| Part {
                start: 1000 + i * 3,
                height: (i % 7) as u32,
                tag: i as u32,
            })
            .collect();
        let mut b = PackedPageBuilder::default();
        for p in &parts {
            b.push(p.to_parts().unwrap());
        }
        let mut page = [0u8; PAGE_SIZE];
        let (_, used) = b.seal_into(&mut page);
        // Flip one bit anywhere in header or payload: always Corrupt.
        for byte in [1usize, 5, 9, 13, 21, PACKED_HEADER, used - 1] {
            let mut bad = page;
            bad[byte] ^= 0x40;
            let r = Layout::parse::<Part>(&bad, pid())
                .and_then(|l| l.decode::<Part>(&bad, pid(), 0, |_| {}));
            assert!(
                matches!(r, Err(PoolError::Corrupt { .. })),
                "bit flip at {byte} went undetected"
            );
        }
        // A torn write (only a prefix of the page made it to disk).
        let mut torn = page;
        torn[used / 2..].fill(0);
        let r = Layout::parse::<Part>(&torn, pid())
            .and_then(|l| l.decode::<Part>(&torn, pid(), 0, |_| {}));
        assert!(matches!(r, Err(PoolError::Corrupt { .. })));
    }

    #[test]
    fn bogus_flagged_header_is_corrupt() {
        // The corrupt-header scenario heap tests exercise: u32::MAX in the
        // count dword has the packed flag set and an absurd record count.
        let mut page = [0u8; PAGE_SIZE];
        page[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Layout::parse::<Part>(&page, pid()),
            Err(PoolError::Corrupt { .. })
        ));
        // Zero records under the flag is equally corrupt.
        page[..4].copy_from_slice(&PACKED_FLAG.to_le_bytes());
        assert!(matches!(
            Layout::parse::<Part>(&page, pid()),
            Err(PoolError::Corrupt { .. })
        ));
    }
}
