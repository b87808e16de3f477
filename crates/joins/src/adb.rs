//! Anc_Des_B+ (Chien et al. \[4\]), adapted to PBiTree codes.
//!
//! Stack-Tree-Desc with *skipping* cursors: whenever the stack is empty
//! the merge **skips** instead of stepping:
//!
//! * the descendant cursor jumps to the first `d` with
//!   `d.start >= a.start` — descendants before the current ancestor
//!   cannot have any matches left;
//! * the ancestor cursor jumps past every `a` with `a.end < d.start`.
//!   A region-code system cannot find "first `a` with `end >= d.start`"
//!   through a start-keyed index; with PBiTree codes the ancestors of `d`
//!   are enumerable (`F(d, h)`), so the jump target is found by probing
//!   `d`'s ancestor codes from the highest down — each probe either lands
//!   on an ancestor of `d` present in `A`, proves a region empty, or
//!   falls through to the first `a` with `a.start >= d.start`. Because
//!   regions from one PBiTree form a laminar family, any skipped element
//!   provably had `end < d.start` (no lost matches).
//!
//! Only the *ancestor* side needs an index (its skips are point probes by
//! enumerated code). The descendant side's skips are one-directional
//! lower-bound seeks over a doc-ordered stream, and a sorted heap file
//! already supports those: `BatchCursor` reads the sorted `D` file
//! through columnar [`ElementBatch`]es and seeks by binary-searching the
//! file's zone map (page-first starts are non-decreasing in a doc-ordered
//! file), then galloping within the batch. That drops the `D`-side
//! B+-tree build — the bulk of the old setup cost — entirely, and packed
//! pages decode straight into the batch columns.
//!
//! Index construction for `A` (external sort + bulk load) is charged to
//! the join when the inputs arrive unsorted/unindexed, per §4.

use pbitree_index::{bptree::RangeIter, BPlusTree};
use pbitree_storage::{FileZones, HeapFile, HeapScan, ScanPos, TempFile};

use std::sync::Arc;

use crate::batch::ElementBatch;
use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::PairSink;
use crate::stacktree::{sorted_inputs, SortPolicy};

/// A cursor over a doc-order B+-tree that can be repositioned by probes.
struct IndexCursor<'a> {
    tree: &'a BPlusTree<u128, u32>,
    iter: RangeIter<'a, u128, u32>,
    cur: Option<Element>,
}

impl<'a> IndexCursor<'a> {
    /// Decodes one index entry; a key that does not name a tree node
    /// (corrupted leaf page) surfaces as [`JoinError::Corrupt`].
    fn decode(entry: Option<(u128, u32)>) -> Result<Option<Element>, JoinError> {
        entry
            .map(|(k, t)| Element::try_from_doc_key(k, t).map_err(JoinError::corrupt))
            .transpose()
    }

    fn start(ctx: &'a JoinCtx, tree: &'a BPlusTree<u128, u32>) -> Result<Self, JoinError> {
        let mut iter = tree.iter(&ctx.pool)?;
        let cur = Self::decode(iter.next_entry()?)?;
        Ok(IndexCursor { tree, iter, cur })
    }

    fn advance(&mut self) -> Result<(), JoinError> {
        self.cur = Self::decode(self.iter.next_entry()?)?;
        Ok(())
    }

    /// Repositions to the first entry with key `>= lb`. Returns the probed
    /// first entry (also stored in `cur`).
    fn seek(&mut self, ctx: &'a JoinCtx, lb: u128) -> Result<Option<Element>, JoinError> {
        self.iter = self.tree.range_from(&ctx.pool, &lb)?;
        self.cur = Self::decode(self.iter.next_entry()?)?;
        Ok(self.cur)
    }
}

/// A forward-only cursor over a doc-order-sorted element heap file,
/// reading through columnar batches and seeking via the file's zone map.
///
/// Seeks only ever move forward (the merge's skip targets are monotone),
/// so a seek binary-searches the per-page `lo` bounds — in a doc-ordered
/// file, page `p`'s `lo` is its first element's region start, and those
/// are non-decreasing — jumps the scan to the chosen page, and gallops
/// within the decoded batch. Pages between the old and new position are
/// never fetched. When the file has no zone map the seek degrades to
/// galloping through successive batches (still forward-only).
struct BatchCursor<'a> {
    ctx: &'a JoinCtx,
    file: &'a HeapFile<Element>,
    zones: Option<Arc<FileZones>>,
    scan: HeapScan<'a, Element>,
    batch: ElementBatch,
    i: usize,
    cur: Option<Element>,
}

impl<'a> BatchCursor<'a> {
    fn start(ctx: &'a JoinCtx, file: &'a HeapFile<Element>) -> Result<Self, JoinError> {
        let mut c = BatchCursor {
            ctx,
            file,
            zones: ctx.pool.file_zones(file.file_id()),
            scan: file.scan_with(&ctx.pool, ctx.read_opts()),
            batch: ElementBatch::new(),
            i: 0,
            cur: None,
        };
        c.settle()?;
        Ok(c)
    }

    /// Restores the `cur` invariant after `i` moved: refills forward until
    /// `i` indexes a batch element, or the file ends (`cur = None`).
    fn settle(&mut self) -> Result<(), JoinError> {
        while self.i >= self.batch.len() {
            if !self.batch.refill(&mut self.scan)? {
                self.cur = None;
                return Ok(());
            }
            self.i = 0;
        }
        self.cur = Some(self.batch.get(self.i));
        Ok(())
    }

    fn advance(&mut self) -> Result<(), JoinError> {
        self.i += 1;
        self.settle()
    }

    /// The page the current batch was decoded from (`None` before the
    /// first refill or after exhaustion).
    fn page(&self) -> Option<u32> {
        (!self.batch.is_empty()).then(|| self.batch.pos_of(0).page())
    }

    /// The page a seek to doc keys `>= lb` may restart from: the last page
    /// whose first start is `<= lb`'s start, stepped back once on a tie —
    /// elements sharing one region start are a chain of at most 64
    /// ancestors, so a tied run never begins more than one page earlier.
    fn seek_page(&self, lb: u128) -> Option<u32> {
        let zones = self.zones.as_ref()?;
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

    /// Bulk-drains the run of descendants covered by the open ancestor
    /// `stack`: emits every `(stack entry, d)` pair for descendants from
    /// the cursor up to the first doc key `>= limit` (the next pending
    /// ancestor), popping entries as their regions close. One 64-wide
    /// [`ElementBatch::for_each_contained`] mask pass per stack entry per
    /// sub-run replaces the scalar per-record stack walk. Returns the
    /// pairs emitted, leaving the cursor on the first undrained element —
    /// the run ends when the limit is reached, the stack empties, or `D`
    /// is exhausted.
    fn drain_contained(
        &mut self,
        stack: &mut Vec<Element>,
        limit: Option<u128>,
        sink: &mut dyn PairSink,
    ) -> Result<u64, JoinError> {
        let mut pairs = 0u64;
        while self.cur.is_some() {
            let Some(top) = stack.last().copied() else {
                break;
            };
            // The sub-run: descendants before the next pending ancestor
            // that stay inside the stack top's region (entries below the
            // top are its ancestors, so no pops inside the sub-run).
            let mut hi = match limit {
                Some(k) => self.batch.gallop_key_ge(self.i, k),
                None => self.batch.len(),
            };
            hi = hi.min(self.batch.upper_bound_start(self.i, top.end()));
            if hi > self.i {
                for s in stack.iter() {
                    pairs += self
                        .batch
                        .for_each_contained(self.i, hi, s, |d| sink.emit(*s, d));
                }
                self.i = hi;
                self.settle()?; // may roll into the next page mid-run
                continue;
            }
            // The run stopped inside the batch: on the pending ancestor's
            // key (the caller takes over) or on the top's region closing
            // (pop it and keep draining against the rest of the stack).
            if limit.is_some_and(|k| self.batch.get(self.i).doc_key() >= k) {
                break;
            }
            stack.pop();
        }
        Ok(pairs)
    }

    /// Repositions to the first element with doc key `>= lb` (forward
    /// only). Returns the element found (also stored in `cur`).
    fn seek(&mut self, lb: u128) -> Result<Option<Element>, JoinError> {
        if self.cur.is_none() {
            return Ok(None);
        }
        if let (Some(target), Some(here)) = (self.seek_page(lb), self.page()) {
            if target > here {
                self.scan = self.file.scan_at_with(
                    &self.ctx.pool,
                    ScanPos::at(target, 0),
                    self.ctx.read_opts(),
                );
                self.batch = ElementBatch::new();
                self.i = 0;
                if !self.batch.refill(&mut self.scan)? {
                    self.cur = None;
                    return Ok(None);
                }
            }
        }
        loop {
            self.i = self.batch.gallop_key_ge(self.i, lb);
            if self.i < self.batch.len() {
                self.cur = Some(self.batch.get(self.i));
                return Ok(self.cur);
            }
            if !self.batch.refill(&mut self.scan)? {
                self.cur = None;
                return Ok(None);
            }
            self.i = 0;
        }
    }
}

/// Anc_Des_B+ join. With `SortPolicy::SortOnTheFly` the inputs are sorted
/// and the ancestor index bulk-loaded inside the measured operator; the
/// descendant side merges straight off its sorted heap file.
pub fn anc_des_bplus(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    policy: SortPolicy,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("adb", || {
        if a.is_empty() || d.is_empty() {
            return Ok((0, 0));
        }
        let sorted = sorted_inputs(ctx, a, d, policy)?;
        let (sa, sd) = sorted.as_ref().map_or((a, d), |(sa, sd)| (sa, sd));
        let a_tree = ctx.phase("build", || {
            let tree = BPlusTree::bulk_load_fallible_with(
                &ctx.pool,
                sa.scan_with(&ctx.pool, ctx.read_opts())
                    .results()
                    .map(|r| r.map(|e| (e.doc_key(), e.tag))),
                ctx.write_opts(),
            )?;
            Ok(TempFile::new(&ctx.pool, tree.file_id(), tree))
        })?;
        ctx.phase_counted("merge", || {
            merge_with_skips(ctx, &a_tree, sd, sink).map(|p| (p, 0))
        })
    })
}

fn merge_with_skips(
    ctx: &JoinCtx,
    a_tree: &BPlusTree<u128, u32>,
    d_file: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<u64, JoinError> {
    let mut ac = IndexCursor::start(ctx, a_tree)?;
    let mut dc = BatchCursor::start(ctx, d_file)?;
    let mut stack: Vec<Element> = Vec::with_capacity(ctx.shape.height() as usize);
    let mut pairs = 0u64;

    while let Some(d_el) = dc.cur {
        // Skip rules apply only with an empty stack (per the paper).
        if stack.is_empty() {
            match ac.cur {
                None => break, // no ancestor can open anymore
                Some(a_el) if d_el.start() < a_el.start() => {
                    // This d (and all before a.start) is matchless: jump.
                    dc.seek((a_el.start() as u128) << 8)?;
                    continue;
                }
                Some(a_el) if a_el.end() < d_el.start() => {
                    skip_ancestor_cursor(ctx, &mut ac, a_el, d_el)?;
                    continue;
                }
                _ => {}
            }
        }
        if let Some(a_el) = ac.cur.filter(|a_el| a_el.doc_key() <= d_el.doc_key()) {
            while stack.last().is_some_and(|t| t.end() < a_el.start()) {
                stack.pop();
            }
            stack.push(a_el);
            ac.advance()?;
        } else {
            while stack.last().is_some_and(|t| t.end() < d_el.start()) {
                stack.pop();
            }
            if stack.is_empty() {
                // Nothing open for this d; the next loop turn applies the
                // skip rules to it.
                dc.advance()?;
            } else {
                // Batched drain: every descendant up to the next pending
                // ancestor meets the same (shrinking) stack.
                let limit = ac.cur.map(|a| a.doc_key());
                pairs += dc.drain_contained(&mut stack, limit, sink)?;
            }
        }
    }
    Ok(pairs)
}

/// The PBiTree-adapted ancestor skip: move `ac` to the first element at or
/// after `dead` that can still matter for `d_el` or anything later —
/// an ancestor of `d_el` present in `A`, or the first element with
/// `start >= d_el.start()`.
fn skip_ancestor_cursor<'a>(
    ctx: &'a JoinCtx,
    ac: &mut IndexCursor<'a>,
    dead: Element,
    d_el: Element,
) -> Result<(), JoinError> {
    let cur_key = dead.doc_key();
    // Candidate ancestors of d, highest (smallest start) first.
    let hd = d_el.code.height();
    for h in (hd + 1..ctx.shape.height()).rev() {
        let cand = d_el.code.ancestor_at_height(h);
        let cand_key = cand.doc_order_key();
        if cand_key <= cur_key {
            continue; // already behind the cursor
        }
        match ac.seek(ctx, cand_key)? {
            None => return Ok(()), // A exhausted; cur = None ends the merge
            Some(found) => {
                if found.code == cand || found.end() >= d_el.start() {
                    // Either the candidate itself, or (laminar family) an
                    // ancestor of d / an element starting at or after d.
                    return Ok(());
                }
                // `found` is dead too; everything up to the next candidate
                // above `found` is dead as well — try the next one.
            }
        }
    }
    // No enumerated ancestor is present: jump to the first a starting at
    // or after d.
    ac.seek(ctx, (d_el.start() as u128) << 8)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::element_file;
    use crate::naive::block_nested_loop;
    use crate::sink::{CollectSink, CountSink};
    use crate::stacktree::sort_doc_order;
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
    fn matches_naive() {
        let c = ctx(8);
        let a = element_file(
            &c.pool,
            mixed_codes(500, &[4, 7, 10], 181)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(1500, &[0, 1, 3], 183)
                .into_iter()
                .map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let stats = anc_des_bplus(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(stats.pairs > 0);
    }

    #[test]
    fn matches_naive_with_disjoint_clusters() {
        // A and D interleave in disjoint clusters: the skip machinery gets
        // exercised hard (long matchless gaps on both sides).
        let c = ctx(8);
        let mut acodes = Vec::new();
        let mut dcodes = Vec::new();
        // Cluster i occupies the subtree of the i-th node at height 12.
        for i in 0..32u64 {
            let root = (1 + 2 * i) << 12;
            if i % 3 == 0 {
                acodes.push(root);
            }
            if i % 3 == 1 {
                // descendants with no enclosing A cluster
                dcodes.push(root - (1 << 12) + 1);
            }
            if i % 5 == 0 {
                dcodes.push(root - (1 << 12) + 3);
            }
        }
        let a = element_file(&c.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CollectSink::default();
        anc_des_bplus(&c, &a, &d, SortPolicy::SortOnTheFly, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn skips_save_leaf_reads_on_sparse_matches() {
        // A huge descendant set of which only a tiny prefix region matches:
        // ADB+ must not read every leaf of D's index.
        let c = JoinCtx::in_memory_free(PBiTreeShape::new(22).unwrap(), 16);
        // One ancestor near the start of the code space.
        let a = element_file(&c.pool, [((1u64 << 8), 0)]).unwrap();
        // 50k descendants spread over the whole space (mostly > a.end).
        let d = element_file(&c.pool, (0..50_000u64).map(|i| ((i << 6) | 1, 1))).unwrap();
        let mut sink = CountSink::default();
        let stats = anc_des_bplus(&c, &a, &d, SortPolicy::SortOnTheFly, &mut sink).unwrap();
        // Matches: descendants with code in [1, 511]: i<<6|1 <= 511 => i < 8.
        assert_eq!(stats.pairs, 8);
        // After A is exhausted the merge stops: I/O must be far below a
        // full leaf scan of D's index on top of the build cost. The build
        // (sort + bulk load) dominates; the merge adds O(height) pages.
        let build_only = {
            let c2 = JoinCtx::in_memory_free(PBiTreeShape::new(22).unwrap(), 16);
            let d2 = element_file(&c2.pool, (0..50_000u64).map(|i| ((i << 6) | 1, 1))).unwrap();
            let before = c2.pool.io_stats();
            let s = sort_doc_order(&c2, &d2).unwrap();
            let t = BPlusTree::bulk_load(
                &c2.pool,
                s.scan(&c2.pool).map(|e: Element| (e.doc_key(), e.tag)),
            )
            .unwrap();
            let _ = t;
            c2.pool.io_stats().since(&before).total()
        };
        assert!(
            stats.io.total() < build_only + 200,
            "merge phase should be skip-cheap: {} vs build {}",
            stats.io.total(),
            build_only
        );
    }

    #[test]
    fn presorted_inputs_still_correct() {
        let c = ctx(8);
        let mut acodes = mixed_codes(300, &[5, 9], 191);
        let mut dcodes = mixed_codes(900, &[0, 2], 193);
        acodes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        dcodes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        let a = element_file(&c.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CollectSink::default();
        anc_des_bplus(&c, &a, &d, SortPolicy::AssumeSorted, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn empty_inputs() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(9u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(
            anc_des_bplus(&c, &a, &d, SortPolicy::SortOnTheFly, &mut sink)
                .unwrap()
                .pairs,
            0
        );
    }
}
