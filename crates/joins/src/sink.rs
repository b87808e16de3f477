//! Result sinks: where join output pairs go.
//!
//! Operators emit `(ancestor, descendant)` pairs into a [`PairSink`];
//! experiments count ([`CountSink`]), tests collect ([`CollectSink`]),
//! path queries keep only the distinct descendants
//! ([`DistinctDescendants`]), and the shared multi-query scan routes each
//! query's matches to its own sink through [`MultiSink`]. `&mut S` is
//! itself a sink, so one sink can be lent to several operator runs in
//! sequence.

use crate::element::Element;

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
    fn borrowed_sinks_are_sinks() {
        let a = Element::new(16, 0);
        let d = Element::new(18, 1);
        let mut c = CollectSink::default();
        c.emit(a, d);
        // A `&mut` borrow of a sink is a sink too: lend it to a helper
        // that takes ownership of its sink argument.
        fn feed(mut s: impl PairSink, a: Element, d: Element) {
            s.emit(a, d);
        }
        feed(&mut c, d, a);
        assert_eq!(c.canonical(), vec![(16, 18), (18, 16)]);
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
}
