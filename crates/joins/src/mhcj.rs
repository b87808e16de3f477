//! MHCJ — Multiple Height Containment Join (Algorithm 3).
//!
//! General ancestor sets are horizontally partitioned by height:
//! `A ⊲ D = ⋃_i (A_{h_i} ⊲ D)` with the partitions disjoint, so the union
//! is a plain append. Each partition runs SHCJ's equijoin against the
//! *full* `D` — which is why the cost grows as `5‖A‖ + 3k‖D‖` with `k`
//! height partitions, and why [`crate::rollup`] exists to shrink `k`.
//!
//! MHCJ is MHCJ+Rollup with every height of A's zone span an anchor
//! (`rollup::anchored_join`): nothing rolls, so Lemma 1 rejects nothing
//! and A is read clipped.

use pbitree_storage::HeapFile;

use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::rollup::{anchored_join, Anchors};
use crate::sink::PairSink;

/// MHCJ: horizontal (height) partitioning, then one equijoin task per
/// occupied height in ascending order (a single height is Algorithm 3's
/// line 2: SHCJ's equijoin over A in place).
pub fn mhcj(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("mhcj", || anchored_join(ctx, a, d, Anchors::Every, sink))
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

    /// Deterministic mixed-height element sets inside the H=18 space.
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
    fn matches_naive_multi_height() {
        let c = ctx(16);
        let a = element_file(
            &c.pool,
            mixed_codes(500, &[4, 6, 9], 11).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(1500, &[0, 1, 2], 13)
                .into_iter()
                .map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let stats = mhcj(&c, &a, &d, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(stats.pairs > 0);
        // Every height is an anchor: nothing rolls, so nothing is a false hit.
        assert_eq!(stats.false_hits, 0);
    }

    #[test]
    fn nested_ancestors_hit_multiple_partitions() {
        // a1 contains a2 contains d: d must match both.
        let c = ctx(8);
        // In H=18: root-ish node at height 10 and its descendant at height 5.
        let a1 = 1u64 << 10;
        let a2 = pbitree_core::Code::new(a1).unwrap();
        let a2 = {
            // descend left 5 times from a1: a node at height 5 inside a1
            let mut n = a2;
            for _ in 0..5 {
                let (l, _) = PBiTreeShape::new(18).unwrap().children(n).unwrap();
                n = l;
            }
            n.get()
        };
        let d = 1u64; // leftmost leaf, inside both
        let af = element_file(&c.pool, [(a1, 0), (a2, 0)]).unwrap();
        let df = element_file(&c.pool, [(d, 1)]).unwrap();
        let mut sink = CollectSink::default();
        let stats = mhcj(&c, &af, &df, &mut sink).unwrap();
        assert_eq!(stats.pairs, 2);
        let mut expect = vec![(a1, d), (a2, d)];
        expect.sort_unstable();
        assert_eq!(sink.canonical(), expect);
    }

    #[test]
    fn single_height_routes_to_shcj() {
        let c = ctx(8);
        let a = element_file(&c.pool, [(1u64 << 4, 0)]).unwrap();
        let d = element_file(&c.pool, [(1u64, 1), (3u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        let stats = mhcj(&c, &a, &d, &mut sink).unwrap();
        assert_eq!(stats.pairs, 2);
        // One anchor joins A in place: no partition is written.
        assert_eq!(stats.io.writes(), 0);
    }

    #[test]
    fn height_writers_share_the_resident_pages() {
        // Costed disk, b = 64: A holds heights 1 and 2 only, so its two
        // height writers split the 62 resident pages, 31 each. D's leaves
        // fit in memory: the partition pass is MHCJ's only writer. D's
        // envelope spans the tree, so the clip keeps every record of A.
        let c = JoinCtx::in_memory(PBiTreeShape::new(18).unwrap(), 64);
        let a = mixed_codes(40_000, &[1, 2], 15);
        let mut d = mixed_codes(5_000, &[0], 17);
        d.extend([1, (1 << 18) - 1]);
        d.sort_unstable();
        d.dedup();
        let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
        c.pool.flush_all().unwrap();
        c.pool.evict_all().unwrap();
        let per_page = pbitree_storage::records_per_page::<Element>();
        let pages: Vec<u64> = [1, 2]
            .map(|h| a.iter().filter(|&&v| v.trailing_zeros() == h).count())
            .map(|n| n.div_ceil(per_page) as u64)
            .into();
        let mut sink = CollectSink::default();
        let stats = mhcj(&c, &af, &df, &mut sink).unwrap();
        assert_eq!(stats.io.writes(), pages.iter().sum::<u64>());
        let batches: u64 = pages.iter().map(|p| p.div_ceil(31)).sum();
        assert!(
            stats.io.rand_writes <= batches,
            "{} seeking writes for {pages:?} pages in 31-page batches",
            stats.io.rand_writes
        );
        // Partitions still run in ascending height.
        let heights: Vec<u32> = sink.pairs.iter().map(|(a, _)| a.code.height()).collect();
        assert!(heights.windows(2).all(|w| w[0] <= w[1]), "{heights:?}");
        assert_eq!(heights.first().zip(heights.last()), Some((&1, &2)));
    }

    #[test]
    fn empty_inputs_ok() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(1u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(mhcj(&c, &a, &d, &mut sink).unwrap().pairs, 0);
    }
}
