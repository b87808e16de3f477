//! MHCJ+Rollup (Algorithm 4), and MHCJ (Algorithm 3) as its other end.
//!
//! MHCJ scans `D` once per ancestor height. Rollup trades those scans for
//! CPU: ancestors below a chosen anchor height are treated as their
//! ancestor at the anchor — the equijoin key becomes `F(a, anchor)` on one
//! side and `F(d, anchor)` on the other — so several heights share one
//! equijoin, SHCJ's own body (`shcj::anchored_equijoin`). A rolled match
//! only proves `d` is under the *anchor ancestor* of `a`, so every
//! candidate is re-checked with Lemma 1; rejects are the **false hits**
//! of Table 2(f).
//!
//! Both algorithms are `anchored_join` over a set of anchor heights, and
//! the paper's cost formulas are the two ends of that set. With every
//! height of A's zone span an anchor (MHCJ) nothing rolls: `5‖A‖ +
//! 3k‖D‖`, A read clipped. With the top `k` occupied heights of a
//! histogram scan (Rollup) A stays unclipped, so the false hits stay; at
//! the default `k = 1` the cost is SHCJ's plus that scan, the `3(‖A‖ +
//! ‖D‖)` the paper quotes for roll-up to the top. One anchor joins A in
//! place, keys computed on the fly (MHCJ on a single-height A is
//! Algorithm 3's line 2). Several anchors materialize A once, as plain
//! elements, by the one scatter pass (`context::scatter`, which also runs
//! the histogram with no slot), and each occupied anchor's equijoin is one
//! task of the task loop (`trace::for_each_task`), in ascending order.

use pbitree_storage::HeapFile;

use crate::context::{scatter, Clipped, JoinCtx, JoinError, JoinStats};
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
        anchored_join(ctx, a, d, Anchors::Top(opts.target_partitions), sink)
    })
}

/// The anchor heights of [`anchored_join`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Anchors {
    /// Every height in A's zone span (MHCJ): nothing rolls.
    Every,
    /// The top `k` occupied heights (MHCJ+Rollup); lower ones roll up.
    Top(usize),
}

/// The one body of MHCJ and MHCJ+Rollup, unmeasured: `(pairs,
/// false_hits)`. Phases: `plan` (`Top` only), `partition` (several
/// anchors only) and `probe`.
pub(crate) fn anchored_join(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    anchors: Anchors,
    sink: &mut dyn PairSink,
) -> Result<(u64, u64), JoinError> {
    let Some(clip) = ctx.clip(a, d) else {
        return Ok((0, 0));
    };
    // How A is read: with nothing rolled, clipping cannot drop a false
    // hit; a rolled ancestor missing D's envelope still meets them.
    let a_opts = |clip: &Clipped| match anchors {
        Anchors::Every => clip.a,
        Anchors::Top(_) => ctx.read_opts(),
    };
    let heights: Vec<u32> = match anchors {
        Anchors::Every => {
            let Some(zone) = a.zone() else {
                return Ok((0, 0));
            };
            (zone.min_h..=zone.max_h).collect()
        }
        Anchors::Top(k) => {
            // Occupied-height histogram: one read of A, no slot.
            let mut seen = [false; 64];
            ctx.phase("plan", || {
                scatter(ctx, a, ctx.read_opts(), 0, |e| {
                    seen[e.code.height() as usize] = true;
                    Ok(None)
                })
            })?;
            let occupied: Vec<u32> = (0..64).filter(|&h| seen[h as usize]).collect();
            occupied[occupied.len() - k.min(occupied.len())..].to_vec()
        }
    };

    if let [anchor] = heights[..] {
        // One anchor: one equijoin over A in place, keys on the fly.
        return ctx.phase_counted("probe", || {
            let (counts, _) = anchored_equijoin(ctx, a, d, &clip, anchor, a_opts(&clip), sink)?;
            Ok(counts)
        });
    }

    // Several anchors: an ancestor goes to the lowest anchor at or above
    // its height. The zone or the histogram saw every height, so a height
    // above every anchor, or a `Top` anchor (an occupied height) left
    // without ancestors, means the file changed under the join. Under
    // `Every` an empty slot is a height A skips.
    let parts = ctx.phase("partition", || {
        scatter(ctx, a, a_opts(&clip), heights.len(), |e| {
            let slot = heights.partition_point(|&anchor| anchor < e.code.height());
            if slot < heights.len() {
                Ok(Some(slot))
            } else {
                Err(JoinError::corrupt("ancestor height above every anchor"))
            }
        })
    })?;
    if matches!(anchors, Anchors::Top(_)) && parts.iter().any(Option::is_none) {
        return Err(JoinError::corrupt("anchor height without ancestors"));
    }

    ctx.phase_counted("probe", || {
        let (mut pairs, mut false_hits) = (0u64, 0u64);
        let tasks = heights.iter().zip(&parts);
        let tasks = tasks.filter_map(|(&anchor, part)| Some((ctx, (anchor, part.as_ref()?))));
        for_each_task(tasks, |ctx, (anchor, part)| {
            // The partition's own envelope clips the shared D scan to the
            // pages that can hold its descendants.
            let Some(clip) = ctx.clip(part, d) else {
                return Ok(0);
            };
            let ((p, f), _) = anchored_equijoin(ctx, part, d, &clip, anchor, a_opts(&clip), sink)?;
            pairs += p;
            false_hits += f;
            Ok(p)
        })?;
        Ok((pairs, false_hits))
    })
    // `parts` drop here, after the last task, on success and error.
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
