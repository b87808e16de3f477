//! Stack-Tree-Desc (Al-Khalifa et al. \[1\]), adapted to PBiTree codes.
//!
//! The optimal sort-merge structural join: both inputs in document order
//! `(start asc, end desc)`, a stack of currently-open ancestors, output in
//! descendant order. PBiTree adaptation per §3.1: the `(start, end)`
//! region of every element is computed on the fly from its code (Lemma 3),
//! and the document-order sort key is one `u128` ([`Element::doc_key`]).
//!
//! When the inputs are not already sorted — the paper's §4 scenario — the
//! operator sorts them with the external merge sort first and its cost is
//! charged to the join, exactly like the MIN_RGN baselines in the paper.

use pbitree_storage::{external_sort_with, HeapFile, ScanPos, TempFile};

use crate::batch::{seek_page, ElementBatch};
use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::PairSink;

/// Whether an operator may assume its inputs are already in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortPolicy {
    /// Inputs are already sorted by [`Element::doc_key`]; skip the sort.
    AssumeSorted,
    /// Sort on the fly and charge the cost to this operator (the paper's
    /// "naive algorithms" setting for unsorted, unindexed inputs).
    SortOnTheFly,
}

/// A document-ordered copy of an input, deleted when dropped.
pub(crate) type Sorted<'a> = TempFile<'a, HeapFile<Element>>;

/// Sorts an element file into document order.
pub(crate) fn sort_doc_order<'a>(
    ctx: &'a JoinCtx,
    f: &HeapFile<Element>,
) -> Result<Sorted<'a>, JoinError> {
    let budget = ctx.budget().saturating_sub(2).max(3);
    let sorted = external_sort_with(&ctx.pool, f, budget, ctx.read_opts(), |e| e.doc_key())?;
    Ok(ctx.temp(sorted))
}

/// The `"sort"` phase every sort-merge operator opens with: under
/// [`SortPolicy::SortOnTheFly`] both inputs are sorted into operator-owned
/// copies (the cost lands in the calling operator's run); under
/// [`SortPolicy::AssumeSorted`] there is nothing to do and the caller
/// merges `a` and `d` themselves.
pub(crate) fn sorted_inputs<'a>(
    ctx: &'a JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    policy: SortPolicy,
) -> Result<Option<(Sorted<'a>, Sorted<'a>)>, JoinError> {
    ctx.phase("sort", || match policy {
        SortPolicy::AssumeSorted => Ok(None),
        SortPolicy::SortOnTheFly => Ok(Some((sort_doc_order(ctx, a)?, sort_doc_order(ctx, d)?))),
    })
}

/// Stack-Tree-Desc: merge the two document-ordered streams with a stack of
/// open ancestors; output in descendant order.
pub fn stack_tree_desc(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    policy: SortPolicy,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("stack_tree_desc", || {
        let Some(clip) = ctx.clip(a, d) else {
            return Ok((0, 0));
        };
        let sorted = sorted_inputs(ctx, a, d, policy)?;
        let (sa, sd) = sorted.as_ref().map_or((a, d), |(sa, sd)| (sa, sd));
        ctx.phase_counted("merge", || {
            merge_with_stack(ctx, sa, sd, clip.d_seek, sink).map(|p| (p, 0))
        })
    })
}

/// The merge. `d_seek` is the envelope rule for a doc-ordered stream: no
/// descendant before A's first start can pair, so `D` opens at the page
/// [`seek_page`] finds for that key instead of filtering; the merge
/// gallops over the page's earlier records like any unmatched run. Past
/// A's envelope it stops on its own, once `A` is exhausted and the stack
/// is empty.
fn merge_with_stack(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    d_seek: Option<u128>,
    sink: &mut dyn PairSink,
) -> Result<u64, JoinError> {
    // Two concurrent merge streams: split the read-ahead depth so they do
    // not evict each other's prefetched frames.
    let opts = ctx.read_opts().shared(2);
    let mut sa = a.scan_with(&ctx.pool, opts);
    let d_page = d_seek
        .and_then(|lb| seek_page(&*ctx.pool.file_zones(d.file_id())?, lb))
        .unwrap_or(0);
    let mut sd = d.scan_at_with(&ctx.pool, ScanPos::at(d_page, 0), opts);
    // Both streams decode page-at-a-time into columnar batches; merge
    // decisions gallop over the batch columns instead of branching per
    // record.
    let mut ab = ElementBatch::new();
    let mut db = ElementBatch::new();
    ab.refill(&mut sa)?;
    db.refill(&mut sd)?;
    let (mut ai, mut di) = (0usize, 0usize);
    // The stack holds the ancestors whose regions contain the current scan
    // position; its depth is bounded by the PBiTree height (<= 63).
    let mut stack: Vec<Element> = Vec::with_capacity(ctx.shape.height() as usize);
    let mut pairs = 0u64;

    loop {
        if di == db.len() {
            di = 0;
            if !db.refill(&mut sd)? {
                break; // no more descendants: nothing left to emit
            }
        }
        if ai == ab.len() {
            ai = 0;
            ab.refill(&mut sa)?; // stays empty once A is exhausted
        }
        let d_el = db.get(di);
        let a_key = (ai < ab.len()).then(|| ab.get(ai).doc_key());
        if a_key.is_some_and(|k| k <= d_el.doc_key()) {
            let a_el = ab.get(ai);
            while stack.last().is_some_and(|t| t.end() < a_el.start()) {
                stack.pop();
            }
            stack.push(a_el);
            ai += 1;
            continue;
        }
        while stack.last().is_some_and(|t| t.end() < d_el.start()) {
            stack.pop();
        }
        let Some(top) = stack.last() else {
            match a_key {
                // Open ancestors: none. Pending ancestors: none. Every
                // remaining descendant is unmatched — stop without reading
                // the tail of D.
                None => break,
                // Descendants that precede the next ancestor match nothing
                // while the stack is empty: gallop over the whole run.
                Some(k) => {
                    di = db.gallop_key_ge(di, k);
                    continue;
                }
            }
        };
        // The stack is stable for every descendant before the next
        // ancestor (doc key < k) that stays inside the top of the stack
        // (start <= top.end — entries below the top are its ancestors, so
        // no pops either): emit the whole run against the same stack.
        let mut hi = db.upper_bound_start(di, top.end());
        if let Some(k) = a_key {
            hi = hi.min(db.gallop_key_ge(di, k));
        }
        for i in di..hi {
            let de = db.get(i);
            for s in &stack {
                if s.code != de.code {
                    pairs += 1;
                    sink.emit(*s, de);
                }
            }
        }
        di = hi;
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::element_file;
    use crate::naive::block_nested_loop;
    use crate::sink::{CollectSink, CountSink};
    use pbitree_core::PBiTreeShape;

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(18).unwrap(), b)
    }

    fn mixed_codes(n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
        let cap: u64 = heights.iter().map(|&h| 1u64 << (18 - h - 1)).sum();
        assert!(
            (n as u64) <= cap * 4 / 5,
            "test asks for {n} codes, capacity {cap}"
        );
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

    #[test]
    fn matches_naive_with_sort_on_the_fly() {
        let c = ctx(8);
        let a = element_file(
            &c.pool,
            mixed_codes(600, &[3, 6, 9, 12], 141)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(1800, &[0, 1, 2, 5], 143)
                .into_iter()
                .map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let stats = stack_tree_desc(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(stats.pairs > 0);
    }

    #[test]
    fn output_is_in_descendant_order() {
        let c = ctx(8);
        let a = element_file(
            &c.pool,
            mixed_codes(200, &[5, 8], 151).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(600, &[0, 1], 153).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        stack_tree_desc(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        assert!(got
            .pairs
            .windows(2)
            .all(|w| w[0].1.doc_key() <= w[1].1.doc_key()));
    }

    #[test]
    fn presorted_skips_the_sort() {
        let c = JoinCtx::in_memory(PBiTreeShape::new(18).unwrap(), 8);
        let mut acodes = mixed_codes(3000, &[5, 8], 161);
        let mut dcodes = mixed_codes(3000, &[0, 1], 163);
        acodes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        dcodes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        let a = element_file(&c.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        c.pool.flush_all().unwrap();
        let mut sink = CountSink::default();
        let stats = stack_tree_desc(&c, &a, &d, SortPolicy::AssumeSorted, &mut sink).unwrap();
        // One sequential pass over each input, no writes.
        assert_eq!(stats.io.writes(), 0);
        assert!(stats.io.reads() <= (a.pages() + d.pages()) as u64);
    }

    #[test]
    fn nested_ancestors_all_reported() {
        // Chain: 2^12 contains 2^8 contains 2^4 contains leaf 1... build a
        // nesting chain by left-descending.
        let c = ctx(8);
        let chain = [1u64 << 12, 1 << 8, 1 << 4, 1 << 2];
        let a = element_file(&c.pool, chain.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, [(1u64, 1), (3u64, 1)]).unwrap();
        let mut got = CollectSink::default();
        let stats = stack_tree_desc(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        // Leaf 1 (start 1) is inside all four; leaf 3 inside all four too
        // (regions [1,2^13-1], [1,511], [1,31], [1,7] all contain 3).
        assert_eq!(stats.pairs, 8);
    }

    #[test]
    fn shared_element_not_paired_with_itself() {
        let c = ctx(8);
        let a = element_file(&c.pool, [(20u64, 0), (24u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(20u64, 1)]).unwrap();
        let mut got = CollectSink::default();
        let stats = stack_tree_desc(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        // 24 contains 20; 20 does not contain itself.
        assert_eq!(stats.pairs, 1);
        assert_eq!(got.canonical(), vec![(24, 20)]);
    }

    #[test]
    fn empty_inputs() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(5u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(
            stack_tree_desc(&c, &a, &d, SortPolicy::SortOnTheFly, &mut sink)
                .unwrap()
                .pairs,
            0
        );
    }

    #[test]
    fn sorted_descendants_seek_past_pages_before_the_ancestors() {
        // D: 3000 leaves in document order. A: one height-11 ancestor,
        // region [4097, 8191], so D's leaves below 4097 fill pages that
        // end before A's envelope.
        let per_page = pbitree_storage::records_per_page::<Element>();
        let leaves: Vec<u64> = (0..3000u64).map(|i| 2 * i + 1).collect();
        let anc = 3u64 << 11;
        let k = leaves
            .chunks(per_page)
            .filter(|p| p[p.len() - 1] < 4097)
            .count() as u64;
        assert!(k >= 2, "fixture must put whole pages before A");
        for prune in [true, false] {
            let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(18).unwrap(), 8)
                .prune(prune)
                .build();
            let a = element_file(&c.pool, [(anc, 0)]).unwrap();
            let d = element_file(&c.pool, leaves.iter().map(|&v| (v, 1))).unwrap();
            let before = c.pool.pool_stats();
            let mut got = CollectSink::default();
            stack_tree_desc(&c, &a, &d, SortPolicy::AssumeSorted, &mut got).unwrap();
            let d_reads = c.pool.pool_stats().since(&before).requests() - a.pages() as u64;
            let mut expect = CollectSink::default();
            block_nested_loop(&c, &a, &d, &mut expect).unwrap();
            assert_eq!(got.canonical(), expect.canonical(), "prune={prune}");
            if prune {
                assert!(
                    d_reads <= d.pages() as u64 - k + 1,
                    "read {d_reads} D pages"
                );
            } else {
                assert_eq!(d_reads, d.pages() as u64);
            }
        }
    }
}
