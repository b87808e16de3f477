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

use pbitree_storage::{HeapFile, ScanFilter, ScanOptions};

use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::hashjoin::hash_equijoin_with;
use crate::sink::PairSink;

/// The ancestor height of a single-height set, by inspecting the first
/// record `opts`' filter admits. SHCJ passes its clip, so the peek reads a
/// page its build or probe scan reads anyway. Returns `None` when no
/// record is admitted.
pub fn single_height_of(
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
pub fn shcj(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("shcj", || shcj_inner(ctx, a, d, sink))
}

/// The height half of the descendant side's pushdown: a matching
/// descendant sits strictly *below* height `h` (the `d_key` guard), so the
/// window `[0, h - 1]` is a necessary condition and pruning by it cannot
/// lose a pair. SHCJ and MHCJ+Rollup conjoin it onto the envelope clip
/// ([`JoinCtx::clip`]). At `h = 0` the window degenerates to `[0, 0]`,
/// over-admitting height-0 descendants; they produce no pairs anyway
/// (`d_key` yields `None`).
pub(crate) fn below_height(h: u32) -> ScanFilter {
    ScanFilter::HeightRange {
        min: 0,
        max: h.saturating_sub(1),
    }
}

/// The un-measured body, reused by MHCJ per height partition. Phases:
/// `plan` (height inspection) and `probe` (the hash equijoin, including
/// any Grace partitioning it decides to do).
///
/// Both scans follow the envelope rule ([`JoinCtx::clip`]): `A` is
/// clipped by `D`'s envelope, and `D` by `A`'s with the [`below_height`]
/// window conjoined. When `A` is one height partition of a larger set —
/// the MHCJ case — the partition's zone clips the shared `D` scan to the
/// pages that can contain its descendants, a semi-join-style pruning at
/// zero I/O per skipped page.
pub(crate) fn shcj_inner(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<(u64, u64), JoinError> {
    let Some(clip) = ctx.clip(a, d) else {
        return Ok((0, 0));
    };
    let Some(h) = ctx.phase("plan", || single_height_of(ctx, a, clip.a))? else {
        return Ok((0, 0));
    };
    let d_opts = clip.d_and(below_height(h));
    let a_opts = clip.a;
    // `Cell`: the A-key closure is `Fn` (shared by partitioning and build
    // passes) but must record a violation it encounters.
    let height_violation = std::cell::Cell::new(None::<u32>);
    let a_key = |b: &Element| {
        if b.code.height() != h && height_violation.get().is_none() {
            height_violation.set(Some(b.code.height()));
        }
        Some(b.code.get())
    };
    let d_key = |p: &Element| {
        if p.code.height() < h {
            Some(p.code.ancestor_at_height(h).get())
        } else {
            None
        }
    };
    ctx.phase_counted("probe", || {
        let mut pairs = 0u64;
        // Build on the smaller side: the equijoin is symmetric, and the
        // build side is what must fit in memory (or gets
        // Grace-partitioned).
        if a.records() <= d.records() {
            hash_equijoin_with(ctx, a, d, a_opts, d_opts, a_key, d_key, |b, p| {
                pairs += 1;
                sink.emit(*b, *p);
            })?;
        } else {
            hash_equijoin_with(ctx, d, a, d_opts, a_opts, d_key, a_key, |b, p| {
                pairs += 1;
                sink.emit(*p, *b);
            })?;
        }
        if let Some(found) = height_violation.get() {
            return Err(JoinError::NotSingleHeight { expected: h, found });
        }
        Ok((pairs, 0))
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
