//! SHCJ — Single Height Containment Join (Algorithm 2).
//!
//! When every ancestor sits at one PBiTree height `h`, the containment join
//! `A ⊲ D` **is** the equijoin `A ⋈_{A.Code = F(D.Code, h)} D`: a
//! descendant's unique ancestor at height `h` is a pure bit-operation on
//! its code, so the join key of `D` is computed on the fly at zero I/O.
//!
//! One correction to the paper's formulation: `F(d, h)` only names an
//! *ancestor* when `height(d) < h`; for `height(d) >= h` it names a node
//! inside `d`'s own subtree, which may well be in `A` and must not match.
//! The probe key is therefore `None` (tuple skipped) for such descendants —
//! the `shallow_descendants_do_not_match` test pins this down.
//!
//! The equijoin is `anchored_equijoin`, the one F-equijoin body of the
//! partitioning joins: SHCJ runs it at its peeked height, and MHCJ and
//! MHCJ+Rollup at each anchor of their one body (`rollup::anchored_join`)
//! — every height an anchor in MHCJ, lower ancestors rolled up to the
//! top ones in Rollup. Its Lemma-1 check rejects nothing here, and the
//! first ancestor height other than `h` it reports becomes
//! [`JoinError::NotSingleHeight`].

use pbitree_storage::{HeapFile, ScanFilter, ScanOptions};

use crate::context::{Clipped, JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::hashjoin::hash_equijoin_with;
use crate::sink::PairSink;

/// The ancestor height of a single-height set, by inspecting the first
/// record `opts`' filter admits. SHCJ passes its clip, so the peek reads a
/// page its build or probe scan reads anyway. Returns `None` when no
/// record is admitted.
fn single_height_of(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    opts: ScanOptions,
) -> Result<Option<u32>, JoinError> {
    // A one-record peek: declare random access so no read-ahead fires.
    let mut scan = a.scan_with(&ctx.pool, ScanOptions::random().with_filter(opts.filter));
    Ok(scan.next_record()?.map(|e| e.code.height()))
}

/// SHCJ: containment join with a single-height ancestor set.
///
/// Fails with [`JoinError::NotSingleHeight`] if the ancestors its clipped
/// scan reads span several heights (validated during the build scan — no
/// extra pass). Ancestors the envelope rule skips pair with nothing, so
/// their heights cannot change a result.
///
/// Phases: `plan` (the height peek) and `probe` (the F-equijoin at the
/// peeked height, including any Grace partitioning it decides to do).
/// Both scans follow the envelope rule (`JoinCtx::clip`): `A` is
/// clipped by `D`'s envelope, and `D` by `A`'s with the `below_height`
/// window conjoined.
pub fn shcj(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("shcj", || {
        let Some(clip) = ctx.clip(a, d) else {
            return Ok((0, 0));
        };
        let Some(h) = ctx.phase("plan", || single_height_of(ctx, a, clip.a))? else {
            return Ok((0, 0));
        };
        ctx.phase_counted("probe", || {
            match anchored_equijoin(ctx, a, d, &clip, h, clip.a, sink)? {
                (counts, None) => Ok(counts),
                (_, Some(found)) => Err(JoinError::NotSingleHeight { expected: h, found }),
            }
        })
    })
}

/// The height half of the descendant side's pushdown: a matching
/// descendant sits strictly *below* height `h` (the `d_key` guard), so the
/// window `[0, h - 1]` is a necessary condition and pruning by it cannot
/// lose a pair. The F-equijoin conjoins it onto the envelope clip
/// ([`JoinCtx::clip`]). At `h = 0` the window degenerates to `[0, 0]`,
/// over-admitting height-0 descendants; they produce no pairs anyway
/// (`d_key` yields `None`).
pub(crate) fn below_height(h: u32) -> ScanFilter {
    ScanFilter::HeightRange {
        min: 0,
        max: h.saturating_sub(1),
    }
}

/// The F-equijoin of the partitioning joins, `A.code = F(D.code, anchor)`:
/// both sides are keyed on their ancestor at height `anchor`, the hash
/// join builds on the smaller side, and every candidate passes Lemma 1's
/// check before it is emitted. Returns `(pairs, false_hits)` and the first
/// ancestor height other than `anchor` the A scan met.
///
/// `A` is read through `a_opts` and `D` through `clip.d` with the
/// [`below_height`] window conjoined. SHCJ passes `clip.a` at its peeked
/// height, where every candidate is a pair and any other height is an
/// error; so does MHCJ, whose anchors are every height. MHCJ+Rollup
/// rolls lower ancestors up to `anchor` and passes `ctx.read_opts()`: a
/// rolled ancestor whose own region misses `D`'s envelope still meets
/// candidates that Lemma 1 rejects, and those are the false hits
/// Table 2(f) counts, so its A side stays unclipped.
/// Pruning `D` can drop a page holding such candidates, so pruning can
/// lower the false-hit count, never the pair count.
pub(crate) fn anchored_equijoin(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    clip: &Clipped,
    anchor: u32,
    a_opts: ScanOptions,
    sink: &mut dyn PairSink,
) -> Result<((u64, u64), Option<u32>), JoinError> {
    let d_opts = clip.d_and(below_height(anchor));
    // `Cell`: the A-key closure is `Fn` (shared by partitioning and build
    // passes) but must record the first off-anchor height it meets.
    let off_anchor = std::cell::Cell::new(None::<u32>);
    let a_key = |e: &Element| {
        if e.code.height() != anchor && off_anchor.get().is_none() {
            off_anchor.set(Some(e.code.height()));
        }
        Some(e.code.ancestor_at_height(anchor).get())
    };
    let d_key = |e: &Element| descendant_key(e, anchor);
    let mut counts = (0u64, 0u64);
    let mut check = |anc: &Element, desc: &Element| check_candidate(anc, desc, &mut counts, sink);
    // Build on the smaller side: the equijoin is symmetric, and the build
    // side is what must fit in memory (or gets Grace-partitioned).
    if a.records() <= d.records() {
        hash_equijoin_with(ctx, a, d, a_opts, d_opts, a_key, d_key, |b, p| check(b, p))?;
    } else {
        hash_equijoin_with(ctx, d, a, d_opts, a_opts, d_key, a_key, |b, p| check(p, b))?;
    }
    Ok((counts, off_anchor.get()))
}

/// The F-equijoin's descendant key: `F(d, anchor)`, `d`'s ancestor at
/// height `anchor`, for a `d` strictly below it; `None` otherwise (see the
/// module doc's correction to the paper).
pub(crate) fn descendant_key(d: &Element, anchor: u32) -> Option<u64> {
    (d.code.height() < anchor).then(|| d.code.ancestor_at_height(anchor).get())
}

/// Lemma 1's check on an F-equijoin candidate: emits `(anc, desc)` and
/// counts a pair into `counts.0` when `anc` contains `desc`, else counts a
/// false hit into `counts.1`.
pub(crate) fn check_candidate(
    anc: &Element,
    desc: &Element,
    counts: &mut (u64, u64),
    sink: &mut dyn PairSink,
) {
    if anc.code.is_ancestor_of(desc.code) {
        counts.0 += 1;
        sink.emit(*anc, *desc);
    } else {
        counts.1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::element_file;
    use crate::naive::block_nested_loop;
    use crate::sink::{CollectSink, CountSink};
    use pbitree_core::PBiTreeShape;

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(20).unwrap(), b)
    }

    /// Pseudo-random codes at a fixed height within the H=20 space.
    fn codes_at_height(h: u32, n: usize, seed: u64) -> Vec<u64> {
        let positions = 1u64 << (20 - h - 1);
        assert!(
            (n as u64) <= positions * 4 / 5,
            "test wants {n} codes, only {positions} slots"
        );
        let mut x = seed | 1;
        let mut out = std::collections::BTreeSet::new();
        while out.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let alpha = x % positions;
            out.insert((1 + 2 * alpha) << h);
        }
        out.into_iter().collect()
    }

    #[test]
    fn matches_naive_in_memory_path() {
        let c = ctx(32);
        let a = element_file(
            &c.pool,
            codes_at_height(6, 300, 5).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            codes_at_height(2, 800, 9).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let stats = shcj(&c, &a, &d, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert_eq!(stats.pairs as usize, got.pairs.len());
        assert!(stats.pairs > 0, "workload should produce matches");
    }

    #[test]
    fn matches_naive_grace_path() {
        let c = ctx(4); // force Grace
        let a = element_file(
            &c.pool,
            codes_at_height(5, 4000, 3).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            codes_at_height(0, 9000, 7).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        shcj(&c, &a, &d, &mut got).unwrap();
        let big = ctx(64);
        // Naive needs the same files; rebuild in its own context.
        let a2 = element_file(
            &big.pool,
            codes_at_height(5, 4000, 3).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d2 = element_file(
            &big.pool,
            codes_at_height(0, 9000, 7).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&big, &a2, &d2, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    /// SHCJ and Rollup run one F-equijoin body: on a single-height A the
    /// default Rollup's one anchor is SHCJ's height, so both emit one pair
    /// sequence and Lemma 1 rejects nothing, in memory and through Grace.
    #[test]
    fn shcj_and_rollup_emit_the_same_sequence() {
        use crate::rollup::{mhcj_rollup, RollupOptions};
        let a_codes = codes_at_height(5, 4000, 3);
        let d_codes = codes_at_height(0, 9000, 7);
        for b in [64usize, 4] {
            let c = ctx(b);
            let a = element_file(&c.pool, a_codes.iter().map(|&v| (v, 0))).unwrap();
            let d = element_file(&c.pool, d_codes.iter().map(|&v| (v, 1))).unwrap();
            let grace = a.pages().min(d.pages()) as usize > c.resident_pages();
            assert_eq!(grace, b == 4, "b = {b}: A {} pages", a.pages());
            let (mut by_shcj, mut by_rollup) = (CollectSink::default(), CollectSink::default());
            let s = shcj(&c, &a, &d, &mut by_shcj).unwrap();
            let r = mhcj_rollup(&c, &a, &d, RollupOptions::default(), &mut by_rollup).unwrap();
            assert!(s.pairs > 0, "b = {b}: the workload should join");
            assert_eq!(by_shcj.pairs, by_rollup.pairs, "b = {b}");
            assert_eq!((s.pairs, s.false_hits), (r.pairs, 0), "b = {b}");
            assert_eq!(r.false_hits, 0, "b = {b}");
        }
    }

    #[test]
    fn shallow_descendants_do_not_match() {
        // D contains a node *above* (shallower than) the A height whose
        // height-h "ancestor" via F is actually its own descendant in A.
        // Naively applying the paper's equijoin would emit a wrong pair.
        let c = ctx(8);
        // A = {20} (height 2). D = {16} (height 4, the root region of H=5).
        // F(16, 2) = 20, so the raw equijoin key of d=16 equals 20 — but 20
        // is *inside* 16, not an ancestor.
        let a = element_file(&c.pool, [(20u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(16u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        let stats = shcj(&c, &a, &d, &mut sink).unwrap();
        assert_eq!(stats.pairs, 0);
    }

    #[test]
    fn self_pair_excluded() {
        // The same node in both sets: containment is strict.
        let c = ctx(8);
        let a = element_file(&c.pool, [(20u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(20u64, 1), (18u64, 1)]).unwrap();
        let mut sink = CollectSink::default();
        let stats = shcj(&c, &a, &d, &mut sink).unwrap();
        assert_eq!(stats.pairs, 1);
        assert_eq!(sink.canonical(), vec![(20, 18)]);
    }

    #[test]
    fn multi_height_ancestors_rejected() {
        let c = ctx(8);
        let a = element_file(&c.pool, [(20u64, 0), (24u64, 0)]).unwrap(); // heights 2, 3
        let d = element_file(&c.pool, [(18u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        let err = shcj(&c, &a, &d, &mut sink).unwrap_err();
        assert!(matches!(err, JoinError::NotSingleHeight { .. }));
    }

    #[test]
    fn empty_ancestor_set() {
        let c = ctx(4);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(18u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(shcj(&c, &a, &d, &mut sink).unwrap().pairs, 0);
    }
}
