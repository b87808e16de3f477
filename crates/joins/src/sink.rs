//! Result sinks: where join output pairs go.
//!
//! Operators emit `(ancestor, descendant)` pairs into a [`PairSink`];
//! experiments count ([`CountSink`]), tests collect ([`CollectSink`]),
//! path queries keep only the distinct descendants
//! ([`DistinctDescendants`]), pipelines materialize to a heap file
//! ([`HeapSink`]), and the shared
//! multi-query scan routes each query's matches to its own sink through
//! [`MultiSink`]. Sinks compose: any sink gains a pair counter via
//! [`SinkExt::counted`], and `&mut S` is itself a sink, so one sink can
//! be lent to several operator runs in sequence.

use crate::element::Element;
use pbitree_storage::{BufferPool, FixedRecord, HeapFile, HeapWriter, PoolError, ScanOptions};

/// Consumer of join result pairs.
pub trait PairSink {
    /// Called once per result pair.
    fn emit(&mut self, a: Element, d: Element);
}

/// A mutable borrow of a sink is a sink: operators take `&mut dyn
/// PairSink`, and this blanket lets callers keep ownership while lending
/// the same sink to several runs (the shared scan lends each per-query
/// sink to the demux this way).
impl<S: PairSink + ?Sized> PairSink for &mut S {
    #[inline]
    fn emit(&mut self, a: Element, d: Element) {
        (**self).emit(a, d);
    }
}

/// Extension adapters every sink gets for free.
pub trait SinkExt: PairSink + Sized {
    /// Wraps the sink with a pair counter — the unification of the ad-hoc
    /// counting wrappers tests used to hand-roll around collecting sinks.
    fn counted(self) -> Counted<Self> {
        Counted {
            inner: self,
            count: 0,
        }
    }
}

impl<S: PairSink + Sized> SinkExt for S {}

/// A sink wrapper that counts pairs on their way through (see
/// [`SinkExt::counted`]).
#[derive(Debug, Default)]
pub struct Counted<S> {
    /// The wrapped sink; every pair is forwarded to it.
    pub inner: S,
    /// Number of pairs seen.
    pub count: u64,
}

impl<S: PairSink> PairSink for Counted<S> {
    #[inline]
    fn emit(&mut self, a: Element, d: Element) {
        self.count += 1;
        self.inner.emit(a, d);
    }
}

/// The demux layer of the shared multi-query scan: one borrowed sink per
/// query, addressed by index. [`MultiSink`] is deliberately *not* a
/// [`PairSink`] itself — a routed pair always names its query via
/// [`emit_to`](MultiSink::emit_to), so no match can leak across queries.
#[derive(Default)]
pub struct MultiSink<'a> {
    sinks: Vec<&'a mut dyn PairSink>,
}

impl<'a> MultiSink<'a> {
    /// An empty router.
    pub fn new() -> Self {
        MultiSink { sinks: Vec::new() }
    }

    /// Registers the next query's sink, returning its route index.
    pub fn push(&mut self, sink: &'a mut dyn PairSink) -> usize {
        self.sinks.push(sink);
        self.sinks.len() - 1
    }

    /// Number of registered routes.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no routes are registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Routes one pair to query `q`'s sink.
    #[inline]
    pub fn emit_to(&mut self, q: usize, a: Element, d: Element) {
        self.sinks[q].emit(a, d);
    }
}

/// Counts pairs without storing them (the experiment default: the paper
/// measures join time, not materialization).
#[derive(Debug, Default)]
pub struct CountSink {
    /// Number of pairs seen.
    pub count: u64,
}

impl PairSink for CountSink {
    #[inline]
    fn emit(&mut self, _a: Element, _d: Element) {
        self.count += 1;
    }
}

/// Collects pairs into a vector (tests and small queries).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected pairs.
    pub pairs: Vec<(Element, Element)>,
}

impl CollectSink {
    /// The pairs as `(ancestor code, descendant code)` raw values, sorted —
    /// a canonical form for cross-algorithm comparison.
    pub fn canonical(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .pairs
            .iter()
            .map(|(a, d)| (a.code.get(), d.code.get()))
            .collect();
        v.sort_unstable();
        v
    }
}

impl PairSink for CollectSink {
    #[inline]
    fn emit(&mut self, a: Element, d: Element) {
        self.pairs.push((a, d));
    }
}

/// Codes [`DistinctDescendants`] may hold before its first compaction.
const DISTINCT_INITIAL_CAPACITY: usize = 1024;

/// Keeps the distinct descendant codes of a join — the semi-join a path
/// step asks for — without materializing a pair.
///
/// A code equal to the last one kept is dropped on arrival, so an
/// operator that emits every ancestor of one descendant back to back
/// (Stack-Tree-Desc, the shared scan) stores each descendant once, and
/// one that emits descendants in ascending code order (those operators
/// again, on a non-nesting descendant tag, where document order is code
/// order) leaves nothing to sort. Out-of-order input is sort-deduplicated
/// in place whenever the buffer reaches twice its length after the last
/// such compaction, so the sink never holds more than
/// `2 × max(distinct codes, 1024)` codes, whatever the pair count.
#[derive(Debug)]
pub struct DistinctDescendants {
    codes: Vec<u64>,
    /// Whether `codes` is strictly ascending: the stream stayed ascending
    /// since the last compaction.
    ascending: bool,
    /// Length at which an out-of-order buffer compacts next.
    limit: usize,
}

impl Default for DistinctDescendants {
    fn default() -> Self {
        DistinctDescendants {
            codes: Vec::with_capacity(DISTINCT_INITIAL_CAPACITY),
            ascending: true,
            limit: 2 * DISTINCT_INITIAL_CAPACITY,
        }
    }
}

impl DistinctDescendants {
    fn compact(&mut self) {
        self.codes.sort_unstable();
        self.codes.dedup();
        self.ascending = true;
        self.limit = 2 * self.codes.len().max(DISTINCT_INITIAL_CAPACITY);
        // Pushes up to the next compaction never reallocate.
        self.codes.reserve_exact(self.limit - self.codes.len());
    }

    /// The distinct descendant codes, ascending. Sorts only when the
    /// stream arrived out of order.
    pub fn finish(mut self) -> Vec<u64> {
        if !self.ascending {
            self.codes.sort_unstable();
            self.codes.dedup();
        }
        self.codes
    }
}

impl PairSink for DistinctDescendants {
    #[inline]
    fn emit(&mut self, _a: Element, d: Element) {
        let c = d.code.get();
        if !self.ascending && self.codes.len() >= self.limit {
            self.compact();
        }
        if let Some(&last) = self.codes.last() {
            if c == last {
                return;
            }
            self.ascending &= c > last;
        }
        self.codes.push(c);
    }
}

/// One materialized join result: ancestor then descendant, 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultPair {
    /// The ancestor element.
    pub a: Element,
    /// The descendant element.
    pub d: Element,
}

impl FixedRecord for ResultPair {
    const SIZE: usize = 2 * Element::SIZE;

    #[inline]
    fn write(&self, out: &mut [u8]) {
        self.a.write(&mut out[..Element::SIZE]);
        self.d.write(&mut out[Element::SIZE..]);
    }

    #[inline]
    fn read(buf: &[u8]) -> Self {
        ResultPair {
            a: Element::read(&buf[..Element::SIZE]),
            d: Element::read(&buf[Element::SIZE..]),
        }
    }

    #[inline]
    fn validate(buf: &[u8]) -> Result<(), &'static str> {
        Element::validate(&buf[..Element::SIZE])?;
        Element::validate(&buf[Element::SIZE..])
    }
}

/// Materializes result pairs into a heap file (write-once batched), for
/// pipelines that feed one join's output into another operator.
///
/// [`PairSink::emit`] is infallible by contract, so a write error is
/// latched on first occurrence — later pairs are counted but dropped —
/// and surfaced by [`finish`](HeapSink::finish).
pub struct HeapSink<'a> {
    writer: Option<HeapWriter<'a, ResultPair>>,
    error: Option<PoolError>,
    /// Number of pairs emitted (including any dropped after an error).
    pub count: u64,
}

impl<'a> HeapSink<'a> {
    /// Starts a sink writing to a fresh heap file under explicit
    /// [`ScanOptions`] — pass the operator's write options (e.g.
    /// `ctx.write_opts()`) so the materialized output batches at the
    /// declared depth.
    pub fn create_with(pool: &'a BufferPool, opts: ScanOptions) -> Result<Self, PoolError> {
        Ok(HeapSink {
            writer: Some(HeapWriter::create_with(pool, opts)?),
            error: None,
            count: 0,
        })
    }

    /// Seals the output file, surfacing any write error latched by
    /// [`emit`](PairSink::emit).
    pub fn finish(mut self) -> Result<HeapFile<ResultPair>, PoolError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.take().expect("finish called once").finish()
    }
}

impl PairSink for HeapSink<'_> {
    #[inline]
    fn emit(&mut self, a: Element, d: Element) {
        self.count += 1;
        if self.error.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.push(ResultPair { a, d }) {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_collect() {
        let a = Element::new(16, 0);
        let d = Element::new(18, 1);
        let mut c = CountSink::default();
        c.emit(a, d);
        c.emit(a, d);
        assert_eq!(c.count, 2);
        let mut v = CollectSink::default();
        v.emit(a, d);
        v.emit(d, a);
        assert_eq!(v.canonical(), vec![(16, 18), (18, 16)]);
    }

    #[test]
    fn counted_adapter_and_borrowed_sinks() {
        let a = Element::new(16, 0);
        let d = Element::new(18, 1);
        let mut c = CollectSink::default().counted();
        c.emit(a, d);
        // A `&mut` borrow of a sink is a sink too: lend it to a helper
        // that takes ownership of its sink argument.
        fn feed(mut s: impl PairSink, a: Element, d: Element) {
            s.emit(a, d);
        }
        feed(&mut c, d, a);
        assert_eq!(c.count, 2);
        assert_eq!(c.inner.canonical(), vec![(16, 18), (18, 16)]);
    }

    #[test]
    fn multi_sink_routes_by_query() {
        let a = Element::new(16, 0);
        let d = Element::new(18, 1);
        let mut s0 = CountSink::default();
        let mut s1 = CollectSink::default();
        {
            let mut m = MultiSink::new();
            assert!(m.is_empty());
            let q0 = m.push(&mut s0);
            let q1 = m.push(&mut s1);
            assert_eq!((q0, q1, m.len()), (0, 1, 2));
            m.emit_to(q0, a, d);
            m.emit_to(q1, d, a);
            m.emit_to(q1, a, d);
        }
        assert_eq!(s0.count, 1);
        assert_eq!(s1.canonical(), vec![(16, 18), (18, 16)]);
    }

    fn feed(sink: &mut impl PairSink, codes: impl IntoIterator<Item = u64>) {
        let a = Element::new(1 << 20, 0);
        for c in codes {
            sink.emit(a, Element::new(c, 1));
        }
    }

    #[test]
    fn distinct_descendants_skips_the_sort_on_ascending_input() {
        let mut s = DistinctDescendants::default();
        feed(&mut s, [3, 3, 3, 5, 9, 9, 12, 12, 12, 12, 40]);
        assert!(s.ascending);
        assert_eq!(s.codes, vec![3, 5, 9, 12, 40], "adjacent repeats dropped");
        assert_eq!(s.finish(), vec![3, 5, 9, 12, 40]);
    }

    #[test]
    fn distinct_descendants_sorts_out_of_order_input() {
        let mut x = 0x5EEDu64;
        let stream: Vec<u64> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + x % 700
            })
            .collect();
        let mut s = DistinctDescendants::default();
        let mut pairs = CollectSink::default();
        feed(&mut s, stream.iter().copied());
        feed(&mut pairs, stream.iter().copied());
        assert!(!s.ascending);
        let mut want: Vec<u64> = pairs.canonical().into_iter().map(|(_, d)| d).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(s.finish(), want);
    }

    #[test]
    fn distinct_descendants_memory_tracks_distinct_codes_not_pairs() {
        let distinct = 10u64;
        let bound = 2 * (distinct as usize).max(DISTINCT_INITIAL_CAPACITY);
        let a = Element::new(1 << 20, 0);
        let mut s = DistinctDescendants::default();
        let (mut held, mut allocated) = (0, 0);
        for i in 0..1_000_000u64 {
            // 7 is coprime to 10: every code recurs, never adjacently.
            s.emit(a, Element::new(1 + (i * 7) % distinct, 1));
            held = held.max(s.codes.len());
            allocated = allocated.max(s.codes.capacity());
        }
        assert!(held <= bound, "held {held} codes, bound {bound}");
        assert!(
            allocated <= bound,
            "allocated {allocated} codes, bound {bound}"
        );
        assert_eq!(s.finish(), (1..=distinct).collect::<Vec<_>>());
    }

    #[test]
    fn result_pair_record_round_trips() {
        let p = ResultPair {
            a: Element::new(16, 3),
            d: Element::new(18, 7),
        };
        let mut buf = [0u8; ResultPair::SIZE];
        p.write(&mut buf);
        assert!(ResultPair::validate(&buf).is_ok());
        assert_eq!(ResultPair::read(&buf), p);
        // A zeroed half is a corrupt record, same as for Element.
        buf[..Element::SIZE].fill(0);
        assert!(ResultPair::validate(&buf).is_err());
    }

    /// A real join materialized through `HeapSink` scans back exactly the
    /// pairs a `CollectSink` saw — including across the page boundary of
    /// the 24-byte record and through write batching.
    #[test]
    fn heap_sink_round_trips_join_output() {
        use crate::element::element_file;
        use crate::JoinCtx;
        use pbitree_core::PBiTreeShape;

        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(12).unwrap(), 8);
        let codes_a: Vec<(u64, u32)> = (0..32u64).map(|i| ((1 + 2 * i) << 4, 0)).collect();
        let codes_d: Vec<(u64, u32)> = (1..1u64 << 11).map(|c| (c, 1)).collect();
        let a = element_file(&ctx.pool, codes_a).unwrap();
        let d = element_file(&ctx.pool, codes_d).unwrap();

        let mut expect = CollectSink::default();
        crate::naive::block_nested_loop(&ctx, &a, &d, &mut expect).unwrap();

        let mut sink = HeapSink::create_with(&ctx.pool, ctx.write_opts()).unwrap();
        crate::naive::block_nested_loop(&ctx, &a, &d, &mut sink).unwrap();
        assert_eq!(sink.count, expect.pairs.len() as u64);
        let file = sink.finish().unwrap();
        assert_eq!(file.records(), sink_len(&expect));

        let mut got = Vec::new();
        let mut scan = file.scan(&ctx.pool);
        while let Some(p) = scan.next_record().unwrap() {
            got.push((p.a.code.get(), p.d.code.get()));
        }
        got.sort_unstable();
        assert_eq!(got, expect.canonical());
        file.drop_file(&ctx.pool);
    }

    fn sink_len(c: &CollectSink) -> u64 {
        c.pairs.len() as u64
    }
}
