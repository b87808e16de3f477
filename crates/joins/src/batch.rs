//! Columnar element batches for the sort-merge operators.
//!
//! [`ElementBatch`] refills from a [`HeapScan`] one page at a time
//! ([`HeapScan::next_batch`] is page-aligned), decoding each page **once**
//! and splitting every element's Lemma-3 region into struct-of-arrays
//! `starts` / `ends` columns. The doc-ordered merge reads both sides
//! through a `BatchCursor` — Stack-Tree-Desc with skips off, ADB+ with
//! skips on — and advances by *galloping* over the sorted `starts` column
//! instead of branching per record. The shared scan tests containment with
//! a branch-free mask over the columns
//! ([`ElementBatch::for_each_contained`]).
//!
//! A batch records the page it was decoded from ([`ElementBatch::page`]),
//! which tells a seeking cursor where it stands. The page is read back
//! from the scan after the refill, so it is right for filtered scans too:
//! a scan whose pushdown filter skips pages (the shared scan's union
//! envelope) lands on a later page, and the batch says which.

use std::sync::Arc;

use pbitree_core::PBiTreeShape;
use pbitree_storage::{BufferPool, FileZones, HeapFile, HeapScan, PoolError, ScanOptions, ScanPos};

use crate::element::Element;
use crate::sink::PairSink;

/// How a boundary search advances through a batch: step linearly, or
/// gallop (exponential probe + binary search).
///
/// Galloping is `O(log distance)` but pays probe overhead per call; a
/// linear merge touches every element once but amortizes to nothing when
/// almost every element is a boundary. The crossover is the **density
/// ratio** — batch elements per boundary search: below
/// [`GALLOP_DENSITY`] the expected skip distance is too short for
/// galloping to win, so dense probe sets merge and sparse ones gallop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvanceMode {
    /// Linear scan from the cursor — dense probes (short skips).
    Merge,
    /// Exponential probe + binary search — sparse probes (long skips).
    Gallop,
}

/// Density ratio (batch elements per probe) at which boundary searches
/// switch from merging to galloping.
pub const GALLOP_DENSITY: usize = 8;

impl AdvanceMode {
    /// Picks the advance mode for `probes` boundary searches over a batch
    /// of `len` elements: gallop when the expected skip `len / probes`
    /// reaches [`GALLOP_DENSITY`], merge when probes are dense.
    #[inline]
    pub fn for_density(probes: usize, len: usize) -> AdvanceMode {
        if probes == 0 || len / probes >= GALLOP_DENSITY {
            AdvanceMode::Gallop
        } else {
            AdvanceMode::Merge
        }
    }
}

/// One page worth of elements in struct-of-arrays layout.
pub struct ElementBatch {
    elems: Vec<Element>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    page: u32,
}

impl Default for ElementBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl ElementBatch {
    /// An empty batch; [`refill`](ElementBatch::refill) it from a scan.
    pub fn new() -> Self {
        ElementBatch {
            elems: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            page: 0,
        }
    }

    /// Replaces the batch contents with the next page of the scan.
    /// Returns `false` (leaving the batch empty) at end of file.
    ///
    /// The decode is single-pass and columnar: each record streams out of
    /// [`HeapScan::next_batch_each`] straight into the SoA columns, so a
    /// compressed page goes packed-bytes → columns with no intermediate
    /// record vector.
    pub fn refill(&mut self, scan: &mut HeapScan<'_, Element>) -> Result<bool, PoolError> {
        self.elems.clear();
        self.starts.clear();
        self.ends.clear();
        let (elems, starts, ends) = (&mut self.elems, &mut self.starts, &mut self.ends);
        let n = scan.next_batch_each(|e| {
            let (s, t) = e.code.region();
            elems.push(e);
            starts.push(s);
            ends.push(t);
        })?;
        if n == 0 {
            return Ok(false);
        }
        // A batch is the rest of one page, so the scan now sits at the
        // start of the page after it. UFCS: through a `&mut` receiver,
        // plain `.position()` resolves to `Iterator::position`.
        self.page = HeapScan::position(scan).page() - 1;
        Ok(true)
    }

    /// Number of elements in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the batch holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The `i`-th element (copied out — elements are 12 bytes).
    #[inline]
    pub fn get(&self, i: usize) -> Element {
        self.elems[i]
    }

    /// The `i`-th element's region start.
    #[inline]
    pub fn start(&self, i: usize) -> u64 {
        self.starts[i]
    }

    /// The heap-file page the batch was decoded from.
    #[inline]
    pub fn page(&self) -> u32 {
        self.page
    }

    /// First index in `[from, len)` whose region start is `> target`.
    /// Requires document order (starts non-decreasing); galloping search,
    /// O(log distance).
    pub fn upper_bound_start(&self, from: usize, target: u64) -> usize {
        gallop(self.starts.len(), from, |i| self.starts[i] > target)
    }

    /// First index in `[from, len)` whose document-order key is `>= key`.
    pub fn gallop_key_ge(&self, from: usize, key: u128) -> usize {
        gallop(self.elems.len(), from, |i| self.elems[i].doc_key() >= key)
    }

    /// First index in `[from, len)` whose region start is `>= target`,
    /// under an explicit [`AdvanceMode`] — the shared multi-query scan
    /// picks the mode once per batch from its probe density.
    pub fn lower_bound_start_in(&self, mode: AdvanceMode, from: usize, target: u64) -> usize {
        advance(mode, self.starts.len(), from, |i| self.starts[i] >= target)
    }

    /// [`upper_bound_start`](ElementBatch::upper_bound_start) under an
    /// explicit [`AdvanceMode`].
    pub fn upper_bound_start_in(&self, mode: AdvanceMode, from: usize, target: u64) -> usize {
        advance(mode, self.starts.len(), from, |i| self.starts[i] > target)
    }

    /// Calls `f` for every element of `[lo, hi)` strictly contained in
    /// `anc`'s region, returning how many there were. The containment test
    /// (`start >= anc.start && end <= anc.end && code != anc.code` — by
    /// region laminarity exactly Lemma 1's strict ancestorship) runs
    /// branch-free over the columns in 64-wide mask chunks; only the
    /// surviving bits pay a call.
    pub fn for_each_contained(
        &self,
        lo: usize,
        hi: usize,
        anc: &Element,
        mut f: impl FnMut(Element),
    ) -> u64 {
        let (a_start, a_end) = (anc.start(), anc.end());
        let a_code = anc.code;
        let mut count = 0u64;
        let mut i = lo;
        while i < hi {
            let n = (hi - i).min(64);
            let mut mask = 0u64;
            for j in 0..n {
                let k = i + j;
                let hit = (self.starts[k] >= a_start) as u64
                    & (self.ends[k] <= a_end) as u64
                    & (self.elems[k].code != a_code) as u64;
                mask |= hit << j;
            }
            count += u64::from(mask.count_ones());
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                f(self.elems[i + j]);
            }
            i += n;
        }
        count
    }
}

/// Collects the distinct proper-ancestor codes of `elems` into `out`,
/// sorted ascending. This is the batched probe set for index nested
/// loops: one page of descendants shares most of its high ancestors, so
/// probing the deduplicated sorted set once beats record-at-a-time
/// enumeration both in probe count and in B+-tree leaf locality.
pub(crate) fn ancestor_candidates(shape: PBiTreeShape, elems: &[Element], out: &mut Vec<u64>) {
    out.clear();
    for e in elems {
        out.extend(shape.ancestors(e.code).map(|c| c.get()));
    }
    out.sort_unstable();
    out.dedup();
}

/// The page a seek to doc keys `>= lb` may open at in a doc-ordered file:
/// the last page whose first region start is `<= lb`'s start, stepped back
/// once on a tie — elements sharing one region start are a chain of at
/// most 64 ancestors, so a tied run never begins more than one page
/// earlier. In a doc-ordered file page `p`'s zone `lo` is its first
/// element's start, non-decreasing across pages, so the zone map is a
/// sparse clustered index and the search is a binary search over it.
/// `None` when a page has no zone entry (the order is then unknown).
fn seek_page(zones: &FileZones, lb: u128) -> Option<u32> {
    let s_lb = (lb >> 8) as u64;
    let (mut lo, mut hi) = (0u32, zones.len() as u32);
    // Largest page whose zone lo is <= s_lb (first page if none).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match zones.page(mid) {
            Some(z) if z.lo <= s_lb => lo = mid,
            Some(_) => hi = mid,
            None => return None, // a hintless page breaks the order
        }
    }
    Some(match zones.page(lo) {
        Some(z) if z.lo == s_lb => lo.saturating_sub(1),
        _ => lo,
    })
}

/// A forward-only cursor over a doc-order-sorted element heap file; the
/// doc-ordered merge (`stacktree::merge`) reads `A` and `D` through one
/// each. It opens at the page [`seek_page`] finds for a doc key (the
/// envelope rule's `d_seek`), or at page 0. With skips on it keeps the
/// file's zone map and a [`seek`](BatchCursor::seek) binary-searches the
/// map's page `lo`s, jumps the scan to the chosen page and gallops within
/// the decoded batch; with skips off it gallops through successive
/// batches, reading every page. A target behind the cursor leaves it in
/// place (see `adb::skip_ancestor_cursor`).
pub(crate) struct BatchCursor<'a> {
    pool: &'a BufferPool,
    file: &'a HeapFile<Element>,
    zones: Option<Arc<FileZones>>,
    opts: ScanOptions,
    scan: HeapScan<'a, Element>,
    batch: ElementBatch,
    i: usize,
    cur: Option<Element>,
}

impl<'a> BatchCursor<'a> {
    pub(crate) fn open(
        pool: &'a BufferPool,
        file: &'a HeapFile<Element>,
        lb: Option<u128>,
        skips: bool,
        opts: ScanOptions,
    ) -> Result<Self, PoolError> {
        let zones = pool.file_zones(file.file_id());
        let page = match (lb, &zones) {
            (Some(lb), Some(z)) => seek_page(z, lb).unwrap_or(0),
            _ => 0,
        };
        let mut c = BatchCursor {
            pool,
            file,
            zones: zones.filter(|_| skips),
            opts,
            scan: file.scan_at_with(pool, ScanPos::at(page, 0), opts),
            batch: ElementBatch::new(),
            i: 0,
            cur: None,
        };
        c.settle()?;
        Ok(c)
    }

    /// The element under the cursor; `None` once the file is exhausted.
    #[inline]
    pub(crate) fn cur(&self) -> Option<Element> {
        self.cur
    }

    /// Restores the `cur` invariant after `i` moved: refills forward until
    /// `i` indexes a batch element, or the file ends (`cur = None`).
    fn settle(&mut self) -> Result<(), PoolError> {
        while self.i >= self.batch.len() {
            if !self.batch.refill(&mut self.scan)? {
                self.cur = None;
                return Ok(());
            }
            self.i = 0;
        }
        self.land();
        Ok(())
    }

    /// Makes batch element `i` current. Doc keys never decrease along the
    /// cursor, so an unsorted input under `AssumeSorted` trips the check.
    fn land(&mut self) -> Option<Element> {
        let next = self.batch.get(self.i);
        debug_assert!(
            self.cur.is_none_or(|c| c.doc_key() <= next.doc_key()),
            "input not in document order: {:?} after {:?}",
            next.code,
            self.cur.map(|c| c.code)
        );
        self.cur = Some(next);
        self.cur
    }

    pub(crate) fn advance(&mut self) -> Result<(), PoolError> {
        self.i += 1;
        self.settle()
    }

    /// Emits `(s, d)` for every entry `s` of the open-ancestor `stack` and
    /// every descendant `d` of the run at the cursor, in descendant order;
    /// returns the pairs emitted. The run stays inside the stack top's
    /// region (entries below the top are its ancestors, so each entry
    /// contains each `d` but itself) and ends before the first doc key
    /// `>= limit` (the next pending ancestor) or at the batch end. Leaves
    /// the cursor on the first element after the run.
    pub(crate) fn drain_contained(
        &mut self,
        stack: &[Element],
        limit: Option<u128>,
        sink: &mut dyn PairSink,
    ) -> Result<u64, PoolError> {
        let top = stack.last().expect("a run drains against an open ancestor");
        let mut hi = self.batch.upper_bound_start(self.i, top.end());
        if let Some(k) = limit {
            hi = hi.min(self.batch.gallop_key_ge(self.i, k));
        }
        let mut pairs = 0u64;
        for i in self.i..hi {
            let d = self.batch.get(i);
            for s in stack {
                if s.code != d.code {
                    pairs += 1;
                    sink.emit(*s, d);
                }
            }
        }
        self.i = hi;
        self.settle()?;
        Ok(pairs)
    }

    /// Repositions to the first element with doc key `>= lb` (forward
    /// only). Returns the element found (also the new [`cur`](Self::cur)).
    pub(crate) fn seek(&mut self, lb: u128) -> Result<Option<Element>, PoolError> {
        let jump = self.zones.as_ref().and_then(|z| seek_page(z, lb));
        if let Some(target) = jump.filter(|&t| self.cur.is_some() && t > self.batch.page()) {
            self.scan = self
                .file
                .scan_at_with(self.pool, ScanPos::at(target, 0), self.opts);
            self.i = self.batch.len(); // the next settle refills from the target
        }
        while self.cur.is_some() {
            self.i = self.batch.gallop_key_ge(self.i, lb);
            if self.i < self.batch.len() {
                return Ok(self.land());
            }
            self.settle()?;
        }
        Ok(None)
    }
}

fn advance(mode: AdvanceMode, len: usize, from: usize, pred: impl Fn(usize) -> bool) -> usize {
    match mode {
        AdvanceMode::Gallop => gallop(len, from, pred),
        AdvanceMode::Merge => {
            let mut i = from.min(len);
            while i < len && !pred(i) {
                i += 1;
            }
            i
        }
    }
}

fn gallop(len: usize, from: usize, pred: impl Fn(usize) -> bool) -> usize {
    if from >= len || pred(from) {
        return from.min(len);
    }
    // Invariant: pred(lo) is false; answer in (lo, hi].
    let mut lo = from;
    let mut step = 1usize;
    let mut hi = loop {
        let probe = lo + step;
        if probe >= len {
            break len;
        }
        if pred(probe) {
            break probe;
        }
        lo = probe;
        step <<= 1;
    };
    // Binary search (lo, hi): pred false at lo, true at hi (or hi == len).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::JoinCtx;
    use crate::element::{element_file, element_file_with};
    use pbitree_core::PBiTreeShape;
    use pbitree_storage::records_per_page;

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(18).unwrap(), b)
    }

    #[test]
    fn gallop_matches_linear_scan() {
        let starts: Vec<u64> = vec![1, 1, 3, 7, 7, 7, 9, 20, 20, 31];
        let len = starts.len();
        for from in 0..=len {
            for target in 0..35u64 {
                let expect_ge = (from..len).find(|&i| starts[i] >= target).unwrap_or(len);
                let got = gallop(len, from, |i| starts[i] >= target);
                assert_eq!(got, expect_ge, "from={from} target={target}");
            }
        }
    }

    #[test]
    fn advance_modes_agree() {
        let starts: Vec<u64> = vec![1, 1, 3, 7, 7, 7, 9, 20, 20, 31];
        let len = starts.len();
        for from in 0..=len {
            for target in 0..35u64 {
                let g = advance(AdvanceMode::Gallop, len, from, |i| starts[i] >= target);
                let m = advance(AdvanceMode::Merge, len, from, |i| starts[i] >= target);
                assert_eq!(g, m, "from={from} target={target}");
            }
        }
    }

    #[test]
    fn advance_mode_tracks_density() {
        // Dense probes (one per few elements) merge; sparse ones gallop.
        assert_eq!(AdvanceMode::for_density(100, 340), AdvanceMode::Merge);
        assert_eq!(AdvanceMode::for_density(10, 340), AdvanceMode::Gallop);
        // Degenerate cases: no probes, or an empty batch.
        assert_eq!(AdvanceMode::for_density(0, 340), AdvanceMode::Gallop);
        assert_eq!(AdvanceMode::for_density(4, 0), AdvanceMode::Merge);
    }

    #[test]
    fn mode_aware_bounds_match_plain_ones() {
        let c = ctx(8);
        let codes: Vec<u64> = (0..500u64).map(|i| (i << 1) | 1).collect();
        let f = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        let mut s = f.scan(&c.pool);
        let mut b = ElementBatch::new();
        while b.refill(&mut s).unwrap() {
            for from in [0, b.len() / 3, b.len()] {
                for target in [0u64, 5, 333, 1 << 18] {
                    let first_ge = (from..b.len()).find(|&i| b.start(i) >= target);
                    for mode in [AdvanceMode::Merge, AdvanceMode::Gallop] {
                        assert_eq!(
                            b.lower_bound_start_in(mode, from, target),
                            first_ge.unwrap_or(b.len())
                        );
                        assert_eq!(
                            b.upper_bound_start_in(mode, from, target),
                            b.upper_bound_start(from, target)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ancestor_candidates_are_sorted_distinct_and_complete() {
        let c = ctx(8);
        let shape = c.shape;
        let mut codes: Vec<u64> = (0..300u64).map(|i| (i << 1) | 1).collect();
        codes.extend((0..80u64).map(|i| (1 + 2 * i) << 2));
        codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        let f = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        let mut s = f.scan(&c.pool);
        let mut b = Vec::new();
        let mut cands = Vec::new();
        while s.next_batch(&mut b).unwrap() > 0 {
            ancestor_candidates(shape, &b, &mut cands);
            assert!(cands.windows(2).all(|w| w[0] < w[1]));
            let mut expect = std::collections::BTreeSet::new();
            for e in &b {
                expect.extend(shape.ancestors(e.code).map(|a| a.get()));
            }
            assert_eq!(cands, expect.into_iter().collect::<Vec<_>>());
            // Deduplication is the point: per-record enumeration visits
            // far more (mostly repeated) ancestors.
            let raw: usize = b.iter().map(|e| shape.ancestors(e.code).count()).sum();
            assert!(cands.len() < raw);
            b.clear();
        }
    }

    #[test]
    fn batched_read_matches_record_at_a_time() {
        let c = ctx(8);
        let codes: Vec<u64> = (0..3000u64).map(|i| (i << 1) | 1).collect();
        let f = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        let mut scalar = Vec::new();
        let mut s = f.scan(&c.pool);
        while let Some(e) = s.next_record().unwrap() {
            scalar.push(e);
        }
        let mut batched = Vec::new();
        let mut s = f.scan(&c.pool);
        let mut b = ElementBatch::new();
        while b.refill(&mut s).unwrap() {
            for i in 0..b.len() {
                assert_eq!((b.start(i), b.get(i).end()), b.get(i).code.region());
                batched.push(b.get(i));
            }
        }
        assert_eq!(batched, scalar);
    }

    #[test]
    fn compressed_batched_read_matches_raw() {
        use pbitree_storage::ScanOptions;
        let c = ctx(8);
        // Mixed heights exercise the bit-packed height column, not just
        // the start deltas.
        let mut codes: Vec<u64> = (0..2000u64).map(|i| (i << 1) | 1).collect();
        codes.extend((0..500u64).map(|i| (1 + 2 * i) << 1));
        codes.extend((0..100u64).map(|i| (1 + 2 * i) << 3));
        codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        let raw = element_file_with(
            &c.pool,
            ScanOptions::default().with_compress(false),
            codes.iter().map(|&v| (v, 0)),
        )
        .unwrap();
        let packed = element_file_with(
            &c.pool,
            ScanOptions::default().with_compress(true),
            codes.iter().map(|&v| (v, 0)),
        )
        .unwrap();
        assert!(packed.pages() < raw.pages(), "packing must shrink the file");
        let collect = |f: &pbitree_storage::HeapFile<Element>| {
            let mut out = Vec::new();
            let mut s = f.scan(&c.pool);
            let mut b = ElementBatch::new();
            while b.refill(&mut s).unwrap() {
                for i in 0..b.len() {
                    assert_eq!((b.start(i), b.get(i).end()), b.get(i).code.region());
                    out.push(b.get(i));
                }
            }
            out
        };
        assert_eq!(collect(&packed), collect(&raw));
    }

    #[test]
    fn batch_page_names_the_page_it_was_decoded_from() {
        use pbitree_storage::{ScanFilter, ScanOptions};
        let c = ctx(8);
        let per_page = records_per_page::<Element>();
        let n = per_page * 3 + 7; // several pages plus a partial tail
        let codes: Vec<u64> = (0..n as u64).map(|i| (i << 1) | 1).collect();
        // The page-count math above assumes fixed-width raw records.
        let f = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        // Mark an element in the middle of the second page via its batch
        // index, then resume there and check the stream lines up.
        let mut s = f.scan(&c.pool);
        let mut b = ElementBatch::new();
        assert!(b.refill(&mut s).unwrap());
        assert_eq!(b.page(), 0);
        assert!(b.refill(&mut s).unwrap());
        assert_eq!(b.page(), 1);
        let i = b.len() / 2;
        let mark = ScanPos::at(b.page(), i);
        let mut resumed = f.scan_at_with(&c.pool, mark, ScanOptions::default());
        assert_eq!(resumed.next_record().unwrap(), Some(b.get(i)));
        // A filter whose window starts on page 2 skips pages 0 and 1
        // unread: the first batch comes from page 2.
        let start = codes[2 * per_page];
        let window = ScanFilter::RegionOverlap { start, end: start };
        let mut s = f.scan_with(&c.pool, ScanOptions::default().with_filter(window));
        assert!(b.refill(&mut s).unwrap());
        assert_eq!((b.page(), b.get(0).code.get()), (2, start));
    }

    #[test]
    fn for_each_contained_matches_scalar_filter() {
        let c = ctx(8);
        // Mixed heights so the batch holds ancestors of the probe anchor,
        // descendants, and disjoint regions.
        let mut codes: Vec<u64> = (0..200u64).map(|i| (i << 1) | 1).collect();
        codes.extend((0..100u64).map(|i| (1 + 2 * i) << 1));
        codes.extend((0..50u64).map(|i| (1 + 2 * i) << 2));
        codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        let f = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        let anc = Element::new(1u64 << 5, 0); // region [1, 63]
        let mut s = f.scan(&c.pool);
        let mut b = ElementBatch::new();
        while b.refill(&mut s).unwrap() {
            let mut got = Vec::new();
            let n = b.for_each_contained(0, b.len(), &anc, |e| got.push(e));
            assert_eq!(n as usize, got.len());
            let expect: Vec<Element> = (0..b.len())
                .map(|i| b.get(i))
                .filter(|e| e.code != anc.code && anc.code.is_ancestor_of(e.code))
                .collect();
            assert_eq!(got, expect);
        }
    }
}
