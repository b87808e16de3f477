//! INLJN — index nested loop join, adapted to PBiTree codes (\[20\], §3.1).
//!
//! The smaller input iterates; the larger one is probed through a B+-tree
//! built on the fly (external sort + bulk load, charged to the join):
//!
//! * probing **descendants with an ancestor** keys the index by code:
//!   `a`'s subtree is the contiguous code range `[start, end]` (Lemma 3),
//!   one range scan per outer ancestor;
//! * probing **ancestors with a descendant** is where region codes need an
//!   interval structure (the paper proposes a disk-based interval tree
//!   \[7\]); with PBiTree codes the ancestors of `d` are *enumerable* —
//!   `F(d, h)` for each height — so `<= H - height(d)` point probes on a
//!   code-keyed B+-tree do the job. This is the "adapted for PBiTree"
//!   footnote of Table 1 made concrete.

use pbitree_index::BPlusTree;
use pbitree_storage::{external_sort_with, HeapFile, ScanOptions, TempFile};

use crate::batch::ancestor_candidates;
use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::PairSink;

/// INLJN with the outer/inner choice made by the paper's heuristic
/// (outer = smaller set, to minimize random index probes).
pub fn inljn(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    if a.pages() <= d.pages() {
        inljn_probe_descendants(ctx, a, d, sink)
    } else {
        inljn_probe_ancestors(ctx, a, d, sink)
    }
}

/// Builds a code-keyed B+-tree over an element file (sort + bulk load),
/// reading it through `opts` (the envelope clip, so the index holds only
/// records the outer side can meet); the index file is deleted when the
/// returned guard drops.
fn build_code_index<'a>(
    ctx: &'a JoinCtx,
    f: &HeapFile<Element>,
    opts: ScanOptions,
) -> Result<TempFile<'a, BPlusTree<u64, u32>>, JoinError> {
    let budget = ctx.budget().saturating_sub(2).max(3);
    let sorted = ctx.temp(external_sort_with(&ctx.pool, f, budget, opts, |e| {
        e.code.get()
    })?);
    // Stream the sorted file straight into the bulk loader: one scan frame
    // plus the loader's output frame — no staging in memory.
    let tree = BPlusTree::bulk_load_fallible_with(
        &ctx.pool,
        sorted
            .scan_with(&ctx.pool, ctx.read_opts())
            .results()
            .map(|r| r.map(|e| (e.code.get(), e.tag))),
        ctx.write_opts(),
    )?;
    drop(sorted);
    Ok(TempFile::new(&ctx.pool, tree.file_id(), tree))
}

/// Outer = A: for each ancestor, one range scan over the descendant index.
pub fn inljn_probe_descendants(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("inljn", || {
        let Some(clip) = ctx.clip(a, d) else {
            return Ok((0, 0));
        };
        let index = ctx.phase("build", || build_code_index(ctx, d, clip.d))?;
        ctx.phase_counted("probe", || {
            let mut pairs = 0u64;
            // Index range scans interleave with the outer scan: halve the
            // outer read-ahead so index leaves are not evicted mid-probe.
            // The outer side is clipped by D's envelope and decodes one
            // page per call instead of one record.
            let mut scan = a.scan_with(&ctx.pool, clip.a.shared(2));
            let mut batch: Vec<Element> = Vec::new();
            while scan.next_batch(&mut batch)? > 0 {
                for ae in batch.drain(..) {
                    let (start, end) = ae.code.region();
                    let mut it = index.range_from(&ctx.pool, &start)?;
                    while let Some((code, tag)) = it.next_entry()? {
                        if code > end {
                            break;
                        }
                        if code != ae.code.get() {
                            pairs += 1;
                            sink.emit(ae, Element::new(code, tag));
                        }
                    }
                }
            }
            Ok((pairs, 0))
        })
    })
}

/// Outer = D: for each descendant, point-probe its enumerated ancestor
/// codes against the ancestor index.
pub fn inljn_probe_ancestors(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("inljn", || {
        let Some(clip) = ctx.clip(a, d) else {
            return Ok((0, 0));
        };
        let index = ctx.phase("build", || build_code_index(ctx, a, clip.a))?;
        ctx.phase_counted("probe", || {
            let mut pairs = 0u64;
            let mut scan = d.scan_with(&ctx.pool, clip.d.shared(2));
            let mut batch: Vec<Element> = Vec::new();
            // Batched enumeration: one page of descendants shares most of
            // its high ancestors, so probe the page's deduplicated sorted
            // candidate set once (ascending keys walk B+-tree leaves in
            // order) and answer the per-record enumeration from the hit
            // list. Emission order per record is unchanged.
            let mut cands: Vec<u64> = Vec::new();
            let mut hits: Vec<(u64, u32)> = Vec::new();
            while scan.next_batch(&mut batch)? > 0 {
                ancestor_candidates(ctx.shape, &batch, &mut cands);
                hits.clear();
                for &c in &cands {
                    if let Some(tag) = index.get(&ctx.pool, &c)? {
                        hits.push((c, tag));
                    }
                }
                for de in batch.drain(..) {
                    for anc in ctx.shape.ancestors(de.code) {
                        if let Ok(j) = hits.binary_search_by_key(&anc.get(), |&(c, _)| c) {
                            pairs += 1;
                            sink.emit(
                                Element {
                                    code: anc,
                                    tag: hits[j].1,
                                },
                                de,
                            );
                        }
                    }
                }
            }
            Ok((pairs, 0))
        })
    })
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

    fn fixture(c: &JoinCtx) -> (HeapFile<Element>, HeapFile<Element>, Vec<(u64, u64)>) {
        let a = element_file(
            &c.pool,
            mixed_codes(250, &[4, 7, 10], 171)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(800, &[0, 1, 3], 173)
                .into_iter()
                .map(|v| (v, 1)),
        )
        .unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(c, &a, &d, &mut expect).unwrap();
        (a, d, expect.canonical())
    }

    #[test]
    fn probe_descendants_matches_naive() {
        let c = ctx(8);
        let (a, d, expect) = fixture(&c);
        let mut got = CollectSink::default();
        inljn_probe_descendants(&c, &a, &d, &mut got).unwrap();
        assert_eq!(got.canonical(), expect);
    }

    #[test]
    fn probe_ancestors_matches_naive() {
        let c = ctx(8);
        let (a, d, expect) = fixture(&c);
        let mut got = CollectSink::default();
        inljn_probe_ancestors(&c, &a, &d, &mut got).unwrap();
        assert_eq!(got.canonical(), expect);
    }

    #[test]
    fn heuristic_picks_smaller_outer() {
        let c = ctx(8);
        let (a, d, expect) = fixture(&c); // |A| < |D|: outer = A
        let mut got = CollectSink::default();
        inljn(&c, &a, &d, &mut got).unwrap();
        assert_eq!(got.canonical(), expect);
        // And the flipped case: make A the big side.
        let c2 = ctx(8);
        let a2 = element_file(
            &c2.pool,
            mixed_codes(800, &[4, 7, 10], 171)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d2 = element_file(
            &c2.pool,
            mixed_codes(100, &[0, 1], 173).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let mut expect2 = CollectSink::default();
        block_nested_loop(&c2, &a2, &d2, &mut expect2).unwrap();
        inljn(&c2, &a2, &d2, &mut got).unwrap();
        assert_eq!(got.canonical(), expect2.canonical());
    }

    #[test]
    fn self_code_excluded_in_range_probe() {
        let c = ctx(8);
        let a = element_file(&c.pool, [(16u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(16u64, 1), (20u64, 1)]).unwrap();
        let mut got = CollectSink::default();
        inljn_probe_descendants(&c, &a, &d, &mut got).unwrap();
        assert_eq!(got.canonical(), vec![(16, 20)]);
    }

    #[test]
    fn empty_sides() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(3u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(inljn(&c, &a, &d, &mut sink).unwrap().pairs, 0);
        assert_eq!(inljn(&c, &d, &a, &mut sink).unwrap().pairs, 0);
    }
}
