//! Anc_Des_B+ (Chien et al. \[4\]), adapted to PBiTree codes.
//!
//! Stack-Tree-Desc's merge with skips on (`stacktree::sort_merge`, one
//! body for both operators, so both emit the same pairs in the same
//! descendant order): whenever the stack is empty the merge **skips**
//! instead of stepping:
//!
//! * the descendant cursor jumps to the current ancestor's doc key
//!   through the zone map — descendants before it cannot have any matches
//!   left (Stack-Tree gallops there, reading every page);
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
//! Neither side needs an index. Both cursors' skips are forward seeks over
//! a doc-ordered stream (the ancestor probes ascend, see
//! `skip_ancestor_cursor`), and a sorted heap file's zone map is a sparse
//! clustered index on that order: page `p`'s `lo` is its first element's
//! region start, non-decreasing across pages. `BatchCursor` reads each
//! sorted file through columnar batches and, with skips on, seeks by
//! binary search over the zone map, so skipped pages are never fetched
//! and, on sorted inputs, the operator writes nothing. Unsorted inputs are
//! sorted first, and the sort is charged to the join, per §4.

use pbitree_storage::HeapFile;

use crate::batch::BatchCursor;
use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::PairSink;
use crate::stacktree::{sort_merge, SortPolicy};

/// Anc_Des_B+ join: Stack-Tree-Desc's merge with skips on. With
/// `SortPolicy::SortOnTheFly` the inputs are sorted inside the measured
/// operator; either way both sides merge straight off their sorted heap
/// files.
pub fn anc_des_bplus(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    policy: SortPolicy,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("adb", || sort_merge(ctx, a, d, policy, true, sink))
}

/// The PBiTree-adapted ancestor skip: move `ac` to the first element at or
/// after `dead` that can still matter for `d_el` or anything later —
/// an ancestor of `d_el` present in `A`, or the first element with
/// `start >= d_el.start()`.
///
/// Candidate keys ascend, so every probe is a forward seek. A candidate
/// may still lie behind the cursor when the previous probe landed on a
/// dead element nested inside its region; that probe proved `A` holds
/// nothing in `[cand_key, found_key)`, so staying put is the lower bound.
pub(crate) fn skip_ancestor_cursor(
    ctx: &JoinCtx,
    ac: &mut BatchCursor<'_>,
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
        match ac.seek(cand_key)? {
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
    ac.seek((d_el.start() as u128) << 8)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{element_file, element_file_with};
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

    fn sorted_codes(n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
        let mut codes = mixed_codes(n, heights, seed);
        codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
        codes
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
        // ADB+ must not read every page of the sorted D.
        let c = JoinCtx::in_memory_free(PBiTreeShape::new(22).unwrap(), 16);
        // One ancestor near the start of the code space.
        let a = element_file(&c.pool, [((1u64 << 8), 0)]).unwrap();
        // 50k descendants spread over the whole space (mostly > a.end).
        let d = element_file(&c.pool, (0..50_000u64).map(|i| ((i << 6) | 1, 1))).unwrap();
        let mut sink = CountSink::default();
        let stats = anc_des_bplus(&c, &a, &d, SortPolicy::SortOnTheFly, &mut sink).unwrap();
        // Matches: descendants with code in [1, 511]: i<<6|1 <= 511 => i < 8.
        assert_eq!(stats.pairs, 8);
        // After A is exhausted the merge stops: the two sorts are the
        // whole cost, and the merge reads at most one read-ahead window of
        // each sorted file on top of them.
        let sort_only = {
            let c2 = JoinCtx::in_memory_free(PBiTreeShape::new(22).unwrap(), 16);
            let a2 = element_file(&c2.pool, [((1u64 << 8), 0)]).unwrap();
            let d2 = element_file(&c2.pool, (0..50_000u64).map(|i| ((i << 6) | 1, 1))).unwrap();
            let before = c2.pool.io_stats();
            drop((sort_doc_order(&c2, &a2), sort_doc_order(&c2, &d2)));
            c2.pool.io_stats().since(&before).total()
        };
        assert!(
            stats.io.total() <= sort_only + 2 * c.read_opts().depth() as u64,
            "merge phase should be skip-cheap: {} vs sort {}",
            stats.io.total(),
            sort_only
        );
    }

    #[test]
    fn presorted_inputs_still_correct() {
        let (ac, dc) = (
            sorted_codes(300, &[5, 9], 191),
            sorted_codes(900, &[0, 2], 193),
        );
        assert!(check_sorted(&ac, &dc) > 0);
    }

    #[test]
    fn sorted_inputs_build_nothing() {
        let c = JoinCtx::in_memory(PBiTreeShape::new(18).unwrap(), 8);
        let (ac, dc) = (
            sorted_codes(3000, &[5, 8], 161),
            sorted_codes(3000, &[0, 1], 163),
        );
        let a = element_file(&c.pool, ac.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dc.iter().map(|&v| (v, 1))).unwrap();
        c.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let stats = anc_des_bplus(&c, &a, &d, SortPolicy::AssumeSorted, &mut sink).unwrap();
        assert!(stats.pairs > 0);
        // No index, no temp file: at most one pass over each input.
        assert_eq!(stats.io.writes(), 0);
        assert!(stats.io.reads() <= (a.pages() + d.pages()) as u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not in document order")]
    fn unsorted_input_under_assume_sorted_trips_the_order_check() {
        let c = ctx(8);
        // Region [8193, 16383] stored before region [1, 7].
        let a = element_file(&c.pool, [(3u64 << 12, 0), (4, 0)]).unwrap();
        let d = element_file(&c.pool, [(9001u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        let _ = anc_des_bplus(&c, &a, &d, SortPolicy::AssumeSorted, &mut sink);
    }

    /// Runs ADB+ on doc-ordered `acodes`/`dcodes` over raw and packed
    /// pages, checks it against the naive join, and returns the pairs.
    fn check_sorted(acodes: &[u64], dcodes: &[u64]) -> u64 {
        let mut pairs = 0;
        for compress in [false, true] {
            let c = ctx(8);
            let opts = c.read_opts().with_compress(compress);
            let a = element_file_with(&c.pool, opts, acodes.iter().map(|&v| (v, 0))).unwrap();
            let d = element_file_with(&c.pool, opts, dcodes.iter().map(|&v| (v, 1))).unwrap();
            let mut got = CollectSink::default();
            pairs = anc_des_bplus(&c, &a, &d, SortPolicy::AssumeSorted, &mut got)
                .unwrap()
                .pairs;
            let mut expect = CollectSink::default();
            block_nested_loop(&c, &a, &d, &mut expect).unwrap();
            assert_eq!(got.canonical(), expect.canonical(), "compress={compress}");
        }
        pairs
    }

    #[test]
    fn ancestor_probe_behind_cursor() {
        // d = leaf 18177. Its ancestors at heights 13..9 start at 16385
        // (h13..h10) and 17409 (h9, code 17920); h8 is 18176, region
        // [17921, 18431]. The skip starts on the dead leaf 11 and probes
        // h13, landing on the dead leaf 17409 — nested inside the regions
        // of h12..h9, whose keys therefore lie behind the cursor. The
        // h8 probe then moves forward again. Filler leaves spread A over
        // several pages so the probes seek through the zone map.
        let filler = (13..16_384u64).step_by(2);
        let head = [2u64, 11];
        let mut acodes: Vec<u64> = head.into_iter().chain(filler).collect();
        acodes.push(17_409);
        let dcodes = [1u64, 9, 18_177, 18_179];
        // Case 1: the h8 probe finds an ancestor of d that starts before
        // d, so jumping straight to `d.start` would lose it.
        let mut with_h8 = acodes.clone();
        with_h8.push(18_176);
        assert_eq!(check_sorted(&with_h8, &dcodes), 3);
        // Case 2: A runs out at the h8 probe, mid-skip.
        assert_eq!(check_sorted(&acodes, &dcodes), 1);
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
