//! Shared multi-query scans: one pass over the document side answers a
//! whole batch of containment queries.
//!
//! The service's workload is many B1–B10-style queries against the same
//! hot corpus; run serially, `N` queries make `N` passes over largely
//! identical pages. [`QueryBatch`] amortizes the scan: each query
//! contributes its in-memory ancestor set and a [`ScanFilter`] envelope,
//! the envelopes compose into **one union pushdown predicate**
//! ([`ScanFilter::union`] — a page is read iff *some* query could match
//! it), and a single [`ElementBatch`] pass over the shared descendant
//! file demultiplexes matches to per-query sinks through [`MultiSink`].
//!
//! Per batch page, the active-ancestor window of every query advances
//! merge-style (ancestors and descendants are both in document order),
//! and each active ancestor locates its descendant run with the
//! [`AdvanceMode`] the batch's probe density selects — dense batches
//! walk, sparse ones gallop — before the 64-wide branch-free containment
//! mask ([`ElementBatch::for_each_contained`]) emits the run.
//!
//! Results are **byte-identical to running each query alone**: every
//! admitted pair passes the same exact Lemma-1 containment test the
//! serial operators use, and pruning (per query or unioned) is a
//! necessary-condition envelope that never changes results, only cost.

use pbitree_storage::{HeapFile, ScanFilter};

use crate::batch::{AdvanceMode, ElementBatch};
use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::MultiSink;

/// One query's share of the batch: its ancestor set, in document order,
/// plus the scan-filter envelope derived from it.
struct BatchQuery {
    ancs: Vec<Element>,
    filter: ScanFilter,
}

/// A batch of containment queries answered from one shared scan of the
/// document side. Each query is an ancestor set (`//a` step results, held
/// in memory); [`execute`](QueryBatch::execute) joins all of them against
/// one doc-ordered descendant file in a single pass and routes each
/// query's `(ancestor, descendant)` pairs to its own sink.
#[derive(Default)]
pub struct QueryBatch {
    queries: Vec<BatchQuery>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch {
            queries: Vec::new(),
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Adds a query by its ancestor set (any order; sorted into document
    /// order here). Returns the query's index — its route in the
    /// [`MultiSink`] handed to [`execute`](QueryBatch::execute).
    pub fn add(&mut self, mut ancs: Vec<Element>) -> usize {
        ancs.sort_by_key(|e| e.doc_key());
        let filter = match (ancs.first(), ancs.iter().map(|e| e.end()).max()) {
            (Some(first), Some(hi)) => ScanFilter::RegionOverlap {
                start: first.start(),
                end: hi,
            },
            // An empty ancestor set matches nothing: an inverted window
            // is the empty-set filter, which `union` treats as identity.
            _ => ScanFilter::RegionOverlap { start: 1, end: 0 },
        };
        self.queries.push(BatchQuery { ancs, filter });
        self.queries.len() - 1
    }

    /// Adds a query by reading its ancestor file into memory (the caller
    /// budgets for this; see [`JoinCtx::elements_per_pages`]).
    pub fn add_file(&mut self, ctx: &JoinCtx, a: &HeapFile<Element>) -> Result<usize, JoinError> {
        Ok(self.add(a.read_all_with(&ctx.pool, ctx.read_opts())?))
    }

    /// The union pushdown predicate: the envelope of every query's filter.
    /// A page the union rejects provably matches no query in the batch.
    pub fn union_filter(&self) -> ScanFilter {
        self.queries
            .iter()
            .fold(ScanFilter::RegionOverlap { start: 1, end: 0 }, |acc, q| {
                acc.union(q.filter)
            })
    }

    /// Runs every query in the batch against the doc-ordered descendant
    /// file `d` in **one shared scan**, routing query `i`'s pairs to
    /// `sinks` route `i` (one registered sink per added query, in add
    /// order). Reported [`JoinStats::pairs`] is the total across queries.
    ///
    /// `d` must be sorted by [`Element::doc_key`] — the per-query active
    /// windows advance merge-style and never look back.
    pub fn execute(
        &self,
        ctx: &JoinCtx,
        d: &HeapFile<Element>,
        sinks: &mut MultiSink<'_>,
    ) -> Result<JoinStats, JoinError> {
        assert_eq!(
            sinks.len(),
            self.queries.len(),
            "one sink per batched query"
        );
        ctx.measure_op("shared_scan", || {
            let mut scan = d.scan_with(&ctx.pool, ctx.pruned(self.union_filter()));
            let mut batch = ElementBatch::new();
            // Per query: the index of its next unopened ancestor, and the
            // indices of its open ones (activated, region not yet closed).
            // Both advance monotonically — document order on both sides.
            let mut next: Vec<usize> = vec![0; self.queries.len()];
            let mut open: Vec<Vec<usize>> = vec![Vec::new(); self.queries.len()];
            let mut pairs = 0u64;
            while batch.refill(&mut scan)? {
                let bmin = batch.start(0);
                let bmax = batch.start(batch.len() - 1);
                let mut probes = 0usize;
                for (q, query) in self.queries.iter().enumerate() {
                    // Activate ancestors whose region can reach this page;
                    // retire those whose region closed before it. Starts
                    // are non-decreasing across batches, so a retired
                    // ancestor never matches again.
                    while next[q] < query.ancs.len() && query.ancs[next[q]].start() <= bmax {
                        open[q].push(next[q]);
                        next[q] += 1;
                    }
                    open[q].retain(|&i| query.ancs[i].end() >= bmin);
                    probes += open[q].len();
                }
                // One mode per batch, keyed on its probe density: every
                // open ancestor pays two boundary searches.
                let mode = AdvanceMode::for_density(probes, batch.len());
                for (q, query) in self.queries.iter().enumerate() {
                    // Open ancestors are in document order, so their run
                    // starts are non-decreasing: each search resumes where
                    // the previous ancestor's began.
                    let mut from = 0usize;
                    for &i in &open[q] {
                        let a = query.ancs[i];
                        let lo = batch.lower_bound_start_in(mode, from, a.start());
                        from = lo;
                        let hi = batch.upper_bound_start_in(mode, lo, a.end());
                        pairs += batch.for_each_contained(lo, hi, &a, |de| {
                            sinks.emit_to(q, a, de);
                        });
                    }
                }
            }
            Ok((pairs, 0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{element_file, element_file_with};
    use crate::sink::CollectSink;
    use crate::stacktree::{stack_tree_desc, SortPolicy};
    use pbitree_core::{Code, PBiTreeShape};

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(18).unwrap(), b)
    }

    fn mixed_codes(n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        let mut out = std::collections::BTreeSet::new();
        while out.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let h = heights[(x % heights.len() as u64) as usize];
            let positions = 1u64 << (18 - h - 1);
            let alpha = (x >> 8) % positions;
            out.insert((1 + 2 * alpha) << h);
        }
        out.into_iter().collect()
    }

    fn doc_sorted(mut codes: Vec<u64>) -> Vec<u64> {
        codes.sort_by_key(|&v| Code::new(v).unwrap().doc_order_key());
        codes
    }

    /// k windowed ancestor sets over one full-span descendant file; the
    /// batch's pairs must equal each query's serial Stack-Tree run.
    fn check_against_serial(compress: bool) {
        let c = ctx(64);
        let d_codes = doc_sorted(mixed_codes(4000, &[0, 1, 2], 0xD5));
        let d = element_file_with(
            &c.pool,
            c.read_opts().with_compress(compress),
            d_codes.iter().map(|&v| (v, 1)),
        )
        .unwrap();
        let span = 1u64 << 18;
        let mut qb = QueryBatch::new();
        let mut a_files = Vec::new();
        for q in 0..6u64 {
            let lo = q * span / 8;
            let codes: Vec<u64> = mixed_codes(150, &[3, 5, 8], 0xA0 + q)
                .into_iter()
                .filter(|&v| v >= lo.max(1) && v < lo + span / 4)
                .collect();
            let af = element_file(&c.pool, codes.iter().map(|&v| (v, 0))).unwrap();
            qb.add(af.read_all(&c.pool).unwrap());
            a_files.push(af);
        }
        let mut got: Vec<CollectSink> = (0..qb.len()).map(|_| CollectSink::default()).collect();
        {
            let mut sinks = MultiSink::new();
            for s in &mut got {
                sinks.push(s);
            }
            let stats = qb.execute(&c, &d, &mut sinks).unwrap();
            assert!(stats.pairs > 0, "workload must produce matches");
        }
        for (q, af) in a_files.iter().enumerate() {
            let mut expect = CollectSink::default();
            stack_tree_desc(&c, af, &d, SortPolicy::SortOnTheFly, &mut expect).unwrap();
            assert_eq!(
                got[q].canonical(),
                expect.canonical(),
                "query {q} diverged from its serial run"
            );
        }
    }

    #[test]
    fn batch_matches_serial_per_query() {
        check_against_serial(false);
    }

    #[test]
    fn batch_matches_serial_per_query_compressed() {
        check_against_serial(true);
    }

    /// One narrow ancestor in the middle of the leaves: the union
    /// envelope skips the pages before its region, so the shared scan's
    /// first batch comes from a later page than the scan started on.
    #[test]
    fn narrow_query_skips_leading_pages() {
        let c = ctx(8);
        let d = element_file(&c.pool, (0..3000u64).map(|i| ((i << 1) | 1, 1))).unwrap();
        let a = element_file(&c.pool, [(3u64 << 11, 0)]).unwrap();
        let mut qb = QueryBatch::new();
        qb.add_file(&c, &a).unwrap();
        let mut got = CollectSink::default();
        {
            let mut sinks = MultiSink::new();
            sinks.push(&mut got);
            qb.execute(&c, &d, &mut sinks).unwrap();
        }
        let mut expect = CollectSink::default();
        stack_tree_desc(&c, &a, &d, SortPolicy::AssumeSorted, &mut expect).unwrap();
        assert!(!expect.pairs.is_empty());
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn union_filter_envelopes_all_queries() {
        let mut qb = QueryBatch::new();
        qb.add(vec![Element::new(1u64 << 4, 0)]); // region [1, 31]
        qb.add(vec![Element::new((1 + 2 * 200) << 4, 0)]);
        let f = qb.union_filter();
        match f {
            ScanFilter::RegionOverlap { start, end } => {
                assert_eq!(start, 1);
                assert_eq!(end, (1 + 2 * 200 + 1) * 16 - 1);
            }
            other => panic!("expected a window union, got {other:?}"),
        }
    }

    #[test]
    fn empty_queries_and_empty_batch() {
        let c = ctx(8);
        let d = element_file(&c.pool, [(3u64, 1), (5u64, 1)]).unwrap();
        // A batch holding only an empty query matches nothing.
        let mut qb = QueryBatch::new();
        qb.add(Vec::new());
        let mut s = CollectSink::default();
        {
            let mut sinks = MultiSink::new();
            sinks.push(&mut s);
            let stats = qb.execute(&c, &d, &mut sinks).unwrap();
            assert_eq!(stats.pairs, 0);
        }
        assert!(s.pairs.is_empty());
        // An empty batch is a no-op scan.
        let qb = QueryBatch::new();
        assert!(qb.is_empty());
        let mut sinks = MultiSink::new();
        let stats = qb.execute(&c, &d, &mut sinks).unwrap();
        assert_eq!(stats.pairs, 0);
    }

    #[test]
    fn duplicate_queries_get_identical_results() {
        let c = ctx(8);
        let d_codes = doc_sorted(mixed_codes(800, &[0, 1], 0xE7));
        let d = element_file(&c.pool, d_codes.iter().map(|&v| (v, 1))).unwrap();
        let ancs: Vec<Element> = mixed_codes(60, &[4, 6], 0xB1)
            .into_iter()
            .map(|v| Element::new(v, 0))
            .collect();
        let mut qb = QueryBatch::new();
        qb.add(ancs.clone());
        qb.add(ancs);
        let (mut s0, mut s1) = (CollectSink::default(), CollectSink::default());
        {
            let mut sinks = MultiSink::new();
            sinks.push(&mut s0);
            sinks.push(&mut s1);
            qb.execute(&c, &d, &mut sinks).unwrap();
        }
        assert!(!s0.pairs.is_empty());
        assert_eq!(s0.canonical(), s1.canonical());
    }
}
