//! MHCJ+Rollup (Algorithm 4): fewer height partitions, filtered false hits.
//!
//! MHCJ scans `D` once per ancestor height. Rollup trades those scans for
//! CPU: ancestors below a chosen anchor height are treated as their
//! ancestor at the anchor — the equijoin key becomes `F(a, anchor)` on one
//! side and `F(d, anchor)` on the other — so several heights share one
//! equijoin, SHCJ's own body (`shcj::anchored_equijoin`) with the
//! ancestor side unclipped. A rolled match only proves `d` is under the
//! *anchor ancestor* of `a`, not under `a` itself, so every candidate is
//! re-checked with Lemma 1; rejects are the **false hits** of Table 2(f).
//!
//! Because `F` is two shift operations, the rolled key is computed **on
//! the fly** during hashing — nothing is materialized for the default
//! single-anchor strategy, and the join builds its hash table on the
//! smaller side. Cost is therefore exactly SHCJ's (`‖A‖ + ‖D‖` in memory,
//! `3(‖A‖ + ‖D‖)` Grace) plus one histogram scan of `A` to find the
//! anchor — the `3(‖A‖+‖D‖)` the paper quotes for roll-up to the top.
//!
//! `target_partitions > 1` keeps the top `k` heights as anchors (fewer
//! false hits, one extra equijoin per anchor); partitions are then
//! materialized once, as plain elements, by the partitioning joins' one
//! scatter pass (`context::scatter`, which also runs the histogram with no
//! slot), and each anchor's equijoin is one task of the task loop
//! (`trace::for_each_task`) that still computes keys on the fly. The
//! ablation bench sweeps this knob.

use pbitree_storage::HeapFile;

use crate::context::{scatter, JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::shcj::anchored_equijoin;
use crate::sink::PairSink;
use crate::trace::for_each_task;

/// Tuning knobs for [`mhcj_rollup`]. `Default` is the paper's strategy:
/// roll everything up to the single topmost occupied height.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupOptions {
    /// Anchor heights kept (at least 1). With `k` anchors the highest `k`
    /// occupied heights stay; every other ancestor rolls up to the nearest
    /// anchor above it. More anchors mean fewer false hits but one extra
    /// equijoin per anchor — the knob the ablation bench sweeps.
    pub target_partitions: usize,
}

impl Default for RollupOptions {
    fn default() -> Self {
        RollupOptions {
            target_partitions: 1,
        }
    }
}

impl RollupOptions {
    /// Options keeping at most `target_partitions` anchor heights.
    pub fn partitions(target_partitions: usize) -> Self {
        RollupOptions { target_partitions }
    }
}

/// MHCJ+Rollup (the canonical entry point; strategy via [`RollupOptions`]).
pub fn mhcj_rollup(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    opts: RollupOptions,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    assert!(opts.target_partitions >= 1);
    ctx.measure_op("mhcj_rollup", || {
        let Some(clip) = ctx.clip(a, d) else {
            return Ok((0, 0));
        };
        // Pass 1: occupied-height histogram (one read of A, no slot).
        let heights = ctx.phase("plan", || {
            let mut occupied = [false; 64];
            scatter(ctx, a, ctx.read_opts(), 0, |e| {
                occupied[e.code.height() as usize] = true;
                Ok(None)
            })?;
            Ok((0..64u32)
                .filter(|&h| occupied[h as usize])
                .collect::<Vec<u32>>())
        })?;
        let k = opts.target_partitions.min(heights.len());
        let anchors: Vec<u32> = heights[heights.len() - k..].to_vec();

        if let [anchor] = anchors.as_slice() {
            // Default strategy: one equijoin, keys on the fly, no
            // materialization at all.
            return ctx.phase_counted("probe", || {
                let (counts, _) =
                    anchored_equijoin(ctx, a, d, &clip, *anchor, ctx.read_opts(), sink)?;
                Ok(counts)
            });
        }

        // Several anchors: one partition pass over A (plain elements), one
        // equijoin task per anchor. Every anchor is an occupied height, so
        // every slot gets a writer; the histogram pass saw every height,
        // so a height above every anchor, or an anchor left without a
        // partition, means the file changed between the two passes.
        let parts = ctx.phase("partition", || {
            let parts = scatter(ctx, a, ctx.read_opts(), anchors.len(), |e| {
                let h = e.code.height();
                let slot = anchors.iter().position(|&anchor| anchor >= h);
                slot.map(Some)
                    .ok_or_else(|| JoinError::corrupt("ancestor height above every anchor"))
            })?;
            parts
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| JoinError::corrupt("anchor height without ancestors"))
        })?;

        ctx.phase_counted("probe", || {
            let (mut pairs, mut false_hits) = (0u64, 0u64);
            let tasks = anchors.iter().zip(&parts).map(|task| (ctx, task));
            for_each_task(tasks, |ctx, (&anchor, part)| {
                let Some(clip) = ctx.clip(part, d) else {
                    return Ok(0);
                };
                let ((p, f), _) =
                    anchored_equijoin(ctx, part, d, &clip, anchor, ctx.read_opts(), sink)?;
                pairs += p;
                false_hits += f;
                Ok(p)
            })?;
            Ok((pairs, false_hits))
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
    fn paper_figure4_false_hit() {
        // Figure 4's situation: an ancestor at height 1 (code 10) rolls up
        // to its height-2 anchor (code 12) because another ancestor (code
        // 4) occupies height 2. Descendant 13 lies under 12 but not under
        // 10 — the equijoin surfaces it and the Lemma-1 filter kills it.
        // Zone-map pruning is pinned off: 13's region misses the anchored
        // partition's envelope, so pushdown would drop the candidate before
        // it ever surfaces as a false hit.
        let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(18).unwrap(), 8)
            .prune(false)
            .build();
        let a = element_file(&c.pool, [(10u64, 0), (4u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(9u64, 1), (13u64, 1)]).unwrap();
        let mut sink = CollectSink::default();
        let stats = mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut sink).unwrap();
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.false_hits, 1);
        assert_eq!(sink.canonical(), vec![(10, 9)]);

        // With pruning on, the pairs are unchanged and the false hit is
        // filtered out by the zone map instead of the Lemma-1 check.
        let c = ctx(8);
        let a = element_file(&c.pool, [(10u64, 0), (4u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(9u64, 1), (13u64, 1)]).unwrap();
        let mut sink = CollectSink::default();
        let stats = mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut sink).unwrap();
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.false_hits, 0);
        assert_eq!(sink.canonical(), vec![(10, 9)]);
    }

    #[test]
    fn matches_naive_and_counts_false_hits() {
        let c = ctx(16);
        let a = element_file(
            &c.pool,
            mixed_codes(400, &[3, 5, 8, 10], 21)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(1200, &[0, 1], 23).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let stats = mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(
            stats.false_hits > 0,
            "rollup to top should produce false hits"
        );
    }

    #[test]
    fn every_target_partition_count_is_correct() {
        let c = ctx(16);
        let acodes = mixed_codes(300, &[2, 4, 6, 9], 31);
        let dcodes = mixed_codes(900, &[0, 1], 37);
        let a = element_file(&c.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        let mut last_false_hits = u64::MAX;
        for k in 1..=5 {
            let mut got = CollectSink::default();
            let stats = mhcj_rollup(&c, &a, &d, RollupOptions::partitions(k), &mut got).unwrap();
            assert_eq!(got.canonical(), expect.canonical(), "k={k}");
            // More anchors => rolling distance shrinks => false hits cannot
            // grow (equal when an extra anchor absorbs nothing).
            assert!(stats.false_hits <= last_false_hits, "k={k}");
            last_false_hits = stats.false_hits;
        }
        // With one anchor per occupied height there is no rolling at all.
        let mut got = CollectSink::default();
        let stats = mhcj_rollup(&c, &a, &d, RollupOptions::partitions(4), &mut got).unwrap();
        assert_eq!(stats.false_hits, 0);
    }

    #[test]
    fn grace_path_matches() {
        let c = ctx(4);
        let acodes = mixed_codes(5000, &[4, 7], 41);
        let dcodes = mixed_codes(8000, &[0, 1, 2], 43);
        let a = element_file(&c.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CollectSink::default();
        mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut got).unwrap();

        let big = ctx(64);
        let a2 = element_file(&big.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d2 = element_file(&big.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&big, &a2, &d2, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn empty_sets() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(1u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(
            mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut sink)
                .unwrap()
                .pairs,
            0
        );
    }
}
