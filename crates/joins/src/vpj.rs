//! VPJ — Vertical-Partitioning Join (Algorithm 5).
//!
//! Divide and conquer on the *tree*: pick a PBiTree level `l`, let every
//! node at that level define a partition, and split both inputs so that
//! each partition pair can be joined with the I/O-optimal
//! [`crate::memjoin`] (cost `‖A_i‖ + ‖D_i‖`). A node *below* level `l`
//! falls in exactly one partition (its level-`l` ancestor's); a node *at or
//! above* the level spans a contiguous range of partitions.
//!
//! **Replication discipline (the correctness core).** The paper replicates
//! spanning nodes and claims `UNION ALL` needs no duplicate elimination.
//! That only works if at most one side is replicated: we replicate
//! *ancestor-side* spanning nodes to their whole partition range, and
//! assign *descendant-side* spanning nodes to the **leftmost** partition of
//! their range only. Any `(a, d)` pair then meets in exactly one
//! partition: `d`'s home partition, which `a`'s range must cover (an
//! ancestor's range contains its descendant's). The
//! `replication_produces_no_duplicates` test and the cross-algorithm
//! verification suite pin this down. Both sides split in the partitioning
//! joins' one scatter pass (`context::scatter`): an ancestor routes to its
//! replica range, a descendant to its home slot or, outside the smaller
//! side's span, nowhere.
//!
//! **The base case.** The page-cost rule (`JoinCtx::resident_side`)
//! decides whether an input pair is partitioned at all: a side that
//! needs `k` memory loads of `b − 2` pages is joined by the memory join
//! ([`crate::memjoin`]) in `k` chunks when that reads fewer pages than a
//! partition pass, `R + k·T < 3(R + T)` — every `k ≤ 3`. The whole input
//! and every recursing partition meet the rule first, so a partition
//! only slightly too large is chunked, not rewritten.
//!
//! **Merging and purging (skew adaptation).** Partitions where either side
//! is empty are discarded outright. Surviving partitions are greedily
//! merged into groups that fit one memory load: one side within
//! `JoinCtx::resident_pages` (`b − 2`). Groups keep that strict fit
//! rather than the chunk rule: a merged group that chunked would re-read
//! partitions that separate groups read once. A group is joined by the
//! memory join, its member files as the two sides; replicated ancestors
//! that would appear in several members are deduplicated at read time by
//! its `keep` predicate (a replica is kept only in the first group member
//! at or after its range start). A lone partition too dense for one load
//! recurses: the base case above chunks it or partitions it at a
//! strictly deeper level; if the level bottoms out (same-subtree skew),
//! MHCJ+Rollup — which has no memory precondition — finishes the job.
//!
//! **Tasks.** A partitioning level never joins its groups itself: it
//! returns them as `VpjTask`s, and the task loop
//! (`trace::for_each_task`) runs them in order, each under its task span.
//! A recursing task runs its own level's tasks through the same loop.

use pbitree_storage::HeapFile;

use crate::context::{scatter, Footprint, JoinCtx, JoinError, JoinStats, Part};
use crate::element::Element;
use crate::memjoin::mem_join_inner;
use crate::rollup::{anchored_join, Anchors};
use crate::sink::PairSink;
use crate::trace::for_each_task;

/// Diagnostics of one VPJ run (the paper's §3.3 discussion: replication is
/// "usually negligible" — this makes that measurable).
#[derive(Debug, Clone, Copy, Default)]
pub struct VpjReport {
    /// Ancestor tuples written beyond their first partition.
    pub replicated_tuples: u64,
    /// Partitions produced across all partitioning passes.
    pub partitions: u64,
    /// Partitions discarded because one side was empty.
    pub purged: u64,
    /// Groups joined by the memory join.
    pub groups: u64,
    /// Recursive partitioning invocations.
    pub recursions: u64,
    /// Dense fallbacks to MHCJ+Rollup.
    pub fallbacks: u64,
}

/// One unit of work a partitioning level leaves behind, in the order the
/// plan executes them. Tasks own their files: a task that ran, failed or
/// never ran deletes them all the same.
enum VpjTask<'a> {
    /// A merged group satisfying the memory-join precondition.
    Group {
        /// Partitioning level the group was formed at.
        l: u32,
        /// Member partition indices, ascending.
        members: Vec<u64>,
        /// Ancestor-side files, parallel to `members`.
        ga: Vec<Part<'a, Element>>,
        /// Descendant-side files, parallel to `members`.
        gd: Vec<Part<'a, Element>>,
    },
    /// A lone dense partition: recurse one level deeper, confined to the
    /// partition's subtree code range `window`.
    Recurse {
        a: Part<'a, Element>,
        d: Part<'a, Element>,
        window: (u64, u64),
        min_level: u32,
        depth: u32,
    },
}

/// Executes one task, emitting into `sink`. Returns `(pairs, false_hits)`.
fn execute_task(
    ctx: &JoinCtx,
    task: VpjTask<'_>,
    sink: &mut dyn PairSink,
    report: &mut VpjReport,
) -> Result<(u64, u64), JoinError> {
    match task {
        VpjTask::Group { l, members, ga, gd } => {
            report.groups += 1;
            // A replica in member `i` is kept only when the previous
            // member lies below its range start.
            let h = ctx.shape.height();
            let keep =
                |i: usize, e: &Element| i == 0 || partition_range(e.code, h, l).0 > members[i - 1];
            mem_join_inner(ctx, &ga, &gd, keep, sink)
        }
        VpjTask::Recurse {
            a,
            d,
            window,
            min_level,
            depth,
        } => {
            let (base, tasks) = vpj_rec(ctx, &a, &d, window, min_level, depth, sink, report)?;
            // The partition is spent once its own partitions exist.
            drop((a, d));
            run_tasks(ctx, base, tasks, sink, report)
        }
    }
}

/// Runs one level's tasks in order, adding their counts to the level's
/// inline `base` counts.
fn run_tasks(
    ctx: &JoinCtx,
    base: (u64, u64),
    tasks: Vec<VpjTask<'_>>,
    sink: &mut dyn PairSink,
    report: &mut VpjReport,
) -> Result<(u64, u64), JoinError> {
    let (p, f) = ctx.phase_counted("probe", || {
        let (mut p, mut f) = (0u64, 0u64);
        for_each_task(tasks.into_iter().map(|task| (ctx, task)), |ctx, task| {
            let (tp, tf) = execute_task(ctx, task, sink, report)?;
            p += tp;
            f += tf;
            Ok(tp)
        })?;
        Ok((p, f))
    })?;
    Ok((base.0 + p, base.1 + f))
}

/// VPJ: vertical partitioning with purge/merge/recurse, returning its
/// [`VpjReport`] alongside the stats (discard with `.map(|(s, _)| s)`).
pub fn vpj(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<(JoinStats, VpjReport), JoinError> {
    let mut report = VpjReport::default();
    let stats = ctx.measure_op("vpj", || {
        let window = (1u64, ctx.shape.node_count());
        let (base, tasks) = vpj_rec(ctx, a, d, window, 0, 0, sink, &mut report)?;
        run_tasks(ctx, base, tasks, sink, &mut report)
    })?;
    Ok((stats, report))
}

/// Headroom on the smaller side when sizing the level slots, as a
/// fraction `(num, den)`: the slots are the fewest whose expected
/// partition of 5/4 × the smaller side fits `b − 2`. Partitions are never
/// even — a side of exactly `k × (b − 2)` pages split `k` ways overflows
/// on any imbalance, and DBLP's D10 at b = 125 splits 65 : 35 — and an
/// overflowing partition recurses, rewriting both its sides. D10 needs
/// more than 1.21; `raw_join`'s sides at b = 500 keep 8 slots up to ≈ 1.3.
const SLOT_HEADROOM: (usize, usize) = (5, 4);

/// `(lo, hi)` global partition-index range of `code` at tree level `l`.
#[inline]
fn partition_range(code: pbitree_core::Code, shape_h: u32, l: u32) -> (u64, u64) {
    let hl = shape_h - 1 - l; // height of the partitioning level
    let shift = hl + 1;
    if code.height() <= hl {
        let idx = code.get() >> shift;
        (idx, idx)
    } else {
        let (s, e) = code.region();
        (s >> shift, e >> shift)
    }
}

/// One partitioning level over `a ⊲ d`. Base cases (a zone-map proof of
/// emptiness, a chunked memory join, the rollup fallback) join inline into
/// `sink` and return their `(pairs, false_hits)` with no tasks; otherwise
/// both inputs are partitioned at a level below `min_level` and the
/// surviving partitions come back as tasks. Never deletes `a` or `d`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn vpj_rec<'a>(
    ctx: &'a JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    window: (u64, u64),
    min_level: u32,
    depth: u32,
    sink: &mut dyn PairSink,
    report: &mut VpjReport,
) -> Result<((u64, u64), Vec<VpjTask<'a>>), JoinError> {
    let budget = ctx.resident_pages();
    // The group fit: one side within one memory load.
    let fits = |pa: u32, pd: u32| (pa as usize) <= budget || (pd as usize) <= budget;
    // The envelope rule: disjoint envelopes prove the whole pairing
    // empty — no scan, no partitioning pass. Counted as a purge (it is
    // one, at subtree granularity).
    let Some(clip) = ctx.clip(a, d) else {
        report.purged += 1;
        return Ok(((0, 0), Vec::new()));
    };
    // Base case (a): the page-cost rule holds one side in memory, in as
    // many chunks as it needs, for fewer pages than a partition pass. Its
    // own `load`/`probe` phases double as this operator's.
    if ctx
        .resident_side(Footprint::of([a]), Footprint::of([d]))
        .is_some()
    {
        report.groups += 1;
        let counts = mem_join_inner(ctx, &[a], &[d], |_, _| true, sink)?;
        return Ok((counts, Vec::new()));
    }
    // A dense partition the rule will not chunk is rewritten one level
    // deeper (or, below, handed to the fallback).
    if depth > 0 {
        report.recursions += 1;
    }

    let h = ctx.shape.height();
    // Real documents concentrate their elements deep inside the code
    // space (a flat DBLP tree puts every record ~20 levels below the
    // root), so partitioning just below `min_level` would put everything
    // into one partition and recurse once per level. The smaller side's
    // catalog envelope (free: element files fold their region bounds as
    // they are written) names the deepest subtree containing all its
    // data, and the partitioning level starts below *that*, collapsing
    // O(depth) recursion passes into one. A file without bounds never
    // held an element: nothing joins.
    let smaller = if a.pages() <= d.pages() { a } else { d };
    let Some((lo, hi)) = smaller.bounds() else {
        return Ok(((0, 0), Vec::new()));
    };
    // The subtree at height h holds the codes that agree above bit h, so
    // the deepest one containing [lo, hi] sits at height
    // h* = bit length of (lo ^ hi) - 1; its level is H - 1 - h*.
    let hstar = (64 - (lo ^ hi).leading_zeros()).saturating_sub(1);
    let lca_level = h.saturating_sub(1).saturating_sub(hstar).max(min_level);
    // Partitioning level: the fewest slots whose expected partition of the
    // smaller side fits the resident pages, with `SLOT_HEADROOM`, bounded
    // by the writer budget and the tree. The slots' writers share the
    // resident pages, so every extra slot shortens each write batch.
    let min_pages = a.pages().min(d.pages()) as usize;
    let k0 = (min_pages * SLOT_HEADROOM.0).div_ceil(budget * SLOT_HEADROOM.1);
    let wanted_delta = (k0 as u64).next_power_of_two().trailing_zeros();
    let max_delta = (budget.max(2) as u64).next_power_of_two().trailing_zeros();
    let delta = wanted_delta.min(max_delta);
    let l = (lca_level + delta)
        .max(min_level + 1)
        .min(h.saturating_sub(1));
    if l <= min_level || depth >= 32 {
        // The subtree cannot be split further (or pathological recursion):
        // MHCJ+Rollup has no memory precondition.
        report.fallbacks += 1;
        let counts = ctx.phase_counted("fallback", || {
            anchored_join(ctx, a, d, Anchors::Top(1), sink)
        })?;
        return Ok((counts, Vec::new()));
    }

    // Partition slots: the smaller side's index span at level l, inside
    // this subtree's window. A partition outside it has an empty smaller
    // side and would be purged, so neither side writes one. The span's
    // bounds are the envelope `lca_level` was derived from, so it holds at
    // most 2^delta <= next_power_of_two(b - 2) slots however wide the
    // larger side is.
    let shift = h - l; // hl + 1
    let (wlo, whi) = (window.0 >> shift, window.1 >> shift);
    let span = ((lo >> shift).max(wlo), (hi >> shift).min(whi));
    debug_assert!(
        span.1.saturating_add(1).saturating_sub(span.0) <= 1u64 << delta,
        "slot span {span:?} exceeds 2^{delta}"
    );

    // Each side's partitioning scan is clipped by the *other* side's
    // envelope, so pages the zone map proves irrelevant are never read
    // and their records never partitioned (or replicated) at all. An
    // ancestor replicates over its range clipped to `span`; a descendant
    // goes to its home slot, or nowhere when that lies outside `span` —
    // either way only records of partitions the smaller side leaves
    // empty, which the purge would discard.
    let slots = span.1.saturating_add(1).saturating_sub(span.0) as usize;
    let slot_range = |e: &Element| {
        let (lo, hi) = partition_range(e.code, h, l);
        // Clip spanning nodes to this subtree's index window: replicas
        // outside it would pair only with descendants that live in sibling
        // subtrees, which the parent level already handles. A recursion
        // only ever sees elements inside its own subtree, so an empty
        // clipped range means the file changed under us.
        let (lo, hi) = (lo.max(wlo), hi.min(whi));
        if lo > hi {
            return Err(JoinError::corrupt("element outside its subtree window"));
        }
        Ok((lo, hi))
    };
    let parts_a = ctx.phase("partition", || {
        scatter(ctx, a, clip.a, slots, |e| {
            let (lo, hi) = slot_range(e)?;
            let replicas = (lo.max(span.0) - span.0) as usize
                ..(hi.min(span.1) + 1).saturating_sub(span.0) as usize;
            report.replicated_tuples += replicas.len().saturating_sub(1) as u64;
            Ok(replicas)
        })
    })?;
    let parts_d = ctx.phase("partition", || {
        scatter(ctx, d, clip.d, slots, |e| {
            let (home, _) = slot_range(e)?;
            let inside = (span.0..=span.1).contains(&home);
            Ok(inside.then(|| (home - span.0) as usize))
        })
    })?;
    report.partitions += parts_a.iter().chain(&parts_d).flatten().count() as u64;

    // Purge, then greedily merge into groups that fit one memory load. A
    // partition survives only where both sides are
    // non-empty — and, with pruning on, where the two sides' catalog
    // envelopes overlap (an ancestor partition whose regions all end
    // before the descendant partition's begin provably joins to nothing).
    // A survivor joins the open group while the group still fits; one too
    // dense to fit even alone recurses alone (and is chunked there, where
    // the page-cost rule says so).
    let mut tasks: Vec<VpjTask<'a>> = Vec::new();
    let (mut sum_a, mut sum_d) = (0u32, 0u32); // pages of the open group
    for (idx, slot) in (span.0..).zip(parts_a.into_iter().zip(parts_d)) {
        let (fa, fd) = match slot {
            (Some(fa), Some(fd)) if ctx.clip(&fa, &fd).is_some() => (fa, fd),
            (None, None) => continue,
            _ => {
                report.purged += 1;
                continue;
            }
        };
        let (pa, pd) = (fa.pages(), fd.pages());
        if !fits(pa, pd) {
            tasks.push(VpjTask::Recurse {
                a: fa,
                d: fd,
                window: (
                    ((idx << shift) + 1).max(window.0),
                    (((idx + 1) << shift) - 1).min(window.1),
                ),
                min_level: l,
                depth: depth + 1,
            });
            continue;
        }
        match tasks.last_mut() {
            Some(VpjTask::Group {
                members, ga, gd, ..
            }) if fits(sum_a + pa, sum_d + pd) => {
                members.push(idx);
                ga.push(fa);
                gd.push(fd);
                sum_a += pa;
                sum_d += pd;
            }
            _ => {
                tasks.push(VpjTask::Group {
                    l,
                    members: vec![idx],
                    ga: vec![fa],
                    gd: vec![fd],
                });
                (sum_a, sum_d) = (pa, pd);
            }
        }
    }
    Ok(((0, 0), tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Resident;
    use crate::element::{element_file, element_file_with};
    use crate::naive::block_nested_loop;
    use crate::sink::{CollectSink, CountSink};
    use crate::JoinCtxBuilder;
    use pbitree_core::{Code, PBiTreeShape};

    fn ctx(h: u32, b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(h).unwrap(), b)
    }

    fn size(f: &HeapFile<Element>) -> Footprint {
        Footprint::of([f])
    }

    fn mixed_codes(h_tree: u32, n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
        let cap: u64 = heights.iter().map(|&h| 1u64 << (h_tree - h - 1)).sum();
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
            let positions = 1u64 << (h_tree - h - 1);
            let alpha = (x >> 8) % positions;
            out.insert((1 + 2 * alpha) << h);
        }
        out.into_iter().collect()
    }

    #[test]
    fn partition_range_deep_and_shallow() {
        // H = 5, l = 2 => hl = 2, shift 3. Node 18 (height 1): 18>>3 = 2.
        let c = Code::new(18).unwrap();
        assert_eq!(partition_range(c, 5, 2), (2, 2));
        // Node 16 (height 4, root): region [1,31] => (0, 3): spans all.
        let c = Code::new(16).unwrap();
        assert_eq!(partition_range(c, 5, 2), (0, 3));
        // Node 20 (height 2, at the partition level): its own index.
        let c = Code::new(20).unwrap();
        assert_eq!(partition_range(c, 5, 2), (2, 2));
        // Node 24 (height 3): region [17,31] => (2,3).
        let c = Code::new(24).unwrap();
        assert_eq!(partition_range(c, 5, 2), (2, 3));
    }

    #[test]
    fn matches_naive_small() {
        let c = ctx(16, 8);
        let a = element_file(
            &c.pool,
            mixed_codes(16, 400, &[3, 5, 8, 11], 91)
                .into_iter()
                .map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(16, 1200, &[0, 1, 2], 93)
                .into_iter()
                .map(|v| (v, 1)),
        )
        .unwrap();
        let mut got = CollectSink::default();
        let (stats, _) = vpj(&c, &a, &d, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(stats.pairs > 0);
    }

    #[test]
    fn replication_produces_no_duplicates() {
        // Ancestors high in the tree (heavily replicated) with descendants
        // spread across partitions; both sides also share spanning nodes.
        // Tiny budget forces real partitioning: A needs 6 loads of b − 2
        // pages, too many to chunk.
        let c = ctx(18, 4);
        // The root and its children sit at/above any partition level, so
        // they are guaranteed to span partitions and be replicated.
        let mut high: Vec<u64> = vec![1 << 17, 1 << 16, 3 << 16];
        high.extend(mixed_codes(18, 40, &[11, 13, 14], 101));
        let mid: Vec<u64> = mixed_codes(18, 5000, &[4, 6], 103);
        let low: Vec<u64> = mixed_codes(18, 6000, &[0, 1, 2], 105);
        // A: high + mid nodes; D: mid + low nodes (overlap heights too).
        let a: Vec<u64> = high.iter().chain(mid.iter().take(3500)).copied().collect();
        let d: Vec<u64> = mid.iter().skip(3500).chain(low.iter()).copied().collect();
        let af = element_file_with(&c.pool, c.read_opts(), a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file_with(&c.pool, c.read_opts(), d.iter().map(|&v| (v, 1))).unwrap();
        assert_eq!(c.resident_side(size(&af), size(&df)), None);
        let mut got = CollectSink::default();
        let (stats, report) = vpj(&c, &af, &df, &mut got).unwrap();
        // No duplicates: the multiset of emitted pairs is a set.
        let mut pairs = got.canonical();
        let n = pairs.len();
        pairs.dedup();
        assert_eq!(pairs.len(), n, "duplicate pairs emitted");
        assert!(report.replicated_tuples > 0, "workload should replicate");
        // And it matches ground truth.
        let big = ctx(18, 256);
        let af2 = element_file(&big.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df2 = element_file(&big.pool, d.iter().map(|&v| (v, 1))).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&big, &af2, &df2, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert_eq!(stats.pairs as usize, n);
    }

    #[test]
    fn partition_slots_stay_within_the_smaller_side() {
        // H = 20; the smaller side lives in the level-4 subtree covering
        // codes [2·2^16, 3·2^16), the larger side spans the whole tree,
        // its highest nodes included (spanning replicas on the A side,
        // spanning descendants on the D side). The smaller side needs 4
        // loads of b − 2 pages at b = 8 and the larger one is over twice
        // its size, so the page-cost rule partitions at both budgets.
        let shape = PBiTreeShape::new(20).unwrap();
        let dense = |heights: &[u32], seed| -> Vec<u64> {
            let base = 2u64 << 16;
            let codes = mixed_codes(16, 8000, heights, seed);
            codes.into_iter().map(|v| base + v).collect()
        };
        let wide = |heights: &[u32], seed| -> Vec<u64> {
            let mut codes = vec![1 << 19, 1 << 18, 3 << 18, 5 << 17];
            codes.extend(mixed_codes(20, 20_000, heights, seed));
            codes
        };
        let cases = [
            ("smaller A", dense(&[2, 4], 141), wide(&[0, 1], 143)),
            ("smaller D", wide(&[2, 4], 145), dense(&[0, 1], 147)),
        ];
        for (name, a, d) in &cases {
            let big = ctx(20, 256);
            let af = element_file(&big.pool, a.iter().map(|&v| (v, 0))).unwrap();
            let df = element_file(&big.pool, d.iter().map(|&v| (v, 1))).unwrap();
            let mut expect = CollectSink::default();
            block_nested_loop(&big, &af, &df, &mut expect).unwrap();
            let expect = expect.canonical();
            assert!(!expect.is_empty(), "{name}: workload should join");
            for b in [4usize, 8] {
                for prune in [true, false] {
                    let c = JoinCtxBuilder::in_memory_free(shape, b)
                        .prune(prune)
                        .build();
                    let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
                    let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
                    let at = format!("{name}, b = {b}, prune = {prune}");
                    assert_eq!(c.resident_side(size(&af), size(&df)), None, "{at}");
                    let mut got = CollectSink::default();
                    let (_, report) = vpj(&c, &af, &df, &mut got).unwrap();
                    assert_eq!(got.canonical(), expect, "{at}");
                    // One partitioning pass per level: the top one plus one
                    // per recursion, each writing at most one file per slot
                    // and side.
                    let slots = (c.resident_pages() as u64).next_power_of_two();
                    let passes = 1 + report.recursions;
                    assert!(report.partitions > 0, "{at}: no partitioning pass");
                    assert!(
                        report.partitions <= 2 * slots * passes,
                        "{at}: {} partitions over {passes} passes of {slots} slots",
                        report.partitions
                    );
                }
            }
        }
    }

    /// VPJ on a costed disk at b = 64, H = 22, over uniform single-height
    /// sets spread over the codes below `2^span_h`: A (height 3, the
    /// smaller side) of exactly `a_pages` full pages, D (leaves) three
    /// times as large. Returns the run's stats and report. From 4 loads
    /// of A (`a_pages > 3 × 62`) the page-cost rule partitions: D streamed
    /// 4 times reads more than a partition pass once `D ≥ 2A`.
    fn uniform_run(a_pages: usize, span_h: u32) -> (JoinStats, VpjReport) {
        let c = JoinCtx::in_memory(PBiTreeShape::new(22).unwrap(), 64);
        let n = a_pages * pbitree_storage::records_per_page::<Element>();
        let a = mixed_codes(span_h, n, &[3], 151);
        let d = mixed_codes(span_h, 3 * n, &[0], 153);
        let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
        assert_eq!(af.pages() as usize, a_pages);
        assert_eq!(c.resident_side(size(&af), size(&df)), None);
        c.pool.flush_all().unwrap();
        c.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let (stats, report) = vpj(&c, &af, &df, &mut sink).unwrap();
        // Every partition is read back once: a group of partitions is
        // never chunked (the group merge keeps the one-load fit).
        let inputs = u64::from(af.pages() + df.pages());
        assert!(
            stats.io.reads() <= inputs + stats.io.writes(),
            "{} reads of {inputs} input and {} written pages",
            stats.io.reads(),
            stats.io.writes()
        );
        (stats, report)
    }

    #[test]
    fn slots_are_the_fewest_that_fit() {
        // A's 190 pages need ⌈190 × 5/4 / 62⌉ = 4 partitions of b − 2 =
        // 62 pages: 4 level slots per side, whose writers batch 62 / 4 =
        // 15 pages each. Twice the slots would batch at the 8-page floor.
        let (stats, report) = uniform_run(190, 22);
        let slots = 4u64;
        assert_eq!(report.partitions, 2 * slots, "{report:?}");
        assert_eq!((report.recursions, report.fallbacks), (0, 0), "{report:?}");
        // Every write is a partition write; each partition's last batch
        // may be short.
        let batches = stats.io.writes().div_ceil(62 / slots) + report.partitions;
        assert!(
            stats.io.rand_writes <= batches,
            "{} seeking writes for {} pages in 15-page batches",
            stats.io.rand_writes,
            stats.io.writes()
        );
    }

    #[test]
    fn slots_cover_the_subtree_the_smaller_side_fills() {
        // Both sides fill the root's left subtree (codes below 2^21): the
        // level is counted from that subtree, so A's 190 pages still
        // spread over 4 slots. Counted from the root, 2 of the 4 would
        // be empty and the other 2 overflow.
        let (_, report) = uniform_run(190, 21);
        assert_eq!(report.partitions, 2 * 4, "{report:?}");
        assert_eq!((report.recursions, report.fallbacks), (0, 0), "{report:?}");
    }

    #[test]
    fn a_smaller_side_at_the_slot_edge_does_not_recurse() {
        // Exactly k × (b − 2) pages: k slots would fill every partition to
        // the last record, and any imbalance overflows one of them.
        for k in [4, 8] {
            let (_, report) = uniform_run(k * 62, 22);
            let at = format!("k = {k}: {report:?}");
            assert_eq!((report.recursions, report.fallbacks), (0, 0), "{at}");
            assert_eq!(report.partitions, 2 * 2 * k as u64, "{at}");
        }
    }

    #[test]
    fn dense_partition_recurses() {
        // All data concentrated under one level-1 subtree: the first
        // partitioning is useless, recursion must go deeper (on raw pages:
        // packed partitions would fit the budget without recursing). A
        // half of A needs 5 loads of b − 2 pages and D's halves are twice
        // A's, so halves are partitioned again, not chunked.
        let c = ctx(18, 4);
        // Confine everything to the leftmost quarter of the code space.
        let a: Vec<u64> = mixed_codes(16, 5500, &[2, 4], 111); // codes < 2^16
        let d: Vec<u64> = mixed_codes(16, 12_000, &[0, 1], 113);
        let af = element_file_with(&c.pool, c.read_opts(), a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file_with(&c.pool, c.read_opts(), d.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CollectSink::default();
        let (_, report) = vpj(&c, &af, &df, &mut got).unwrap();
        assert!(report.recursions > 0 || report.fallbacks > 0);
        let big = ctx(18, 256);
        let af2 = element_file(&big.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df2 = element_file(&big.pool, d.iter().map(|&v| (v, 1))).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&big, &af2, &df2, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn purging_drops_empty_pairings() {
        let c = ctx(16, 4);
        // A in the left half, D in the right half: everything purges.
        let a: Vec<u64> = mixed_codes(14, 2000, &[1], 121); // < 2^14 (left)
        let d: Vec<u64> = mixed_codes(14, 2000, &[0], 123)
            .into_iter()
            .map(|v| v + (3u64 << 14)) // shift into the right quarter
            .collect();
        let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CountSink::default();
        let (stats, report) = vpj(&c, &af, &df, &mut got).unwrap();
        assert_eq!(stats.pairs, 0);
        assert!(report.purged > 0);
    }

    #[test]
    fn small_inputs_go_straight_to_memory_join() {
        let c = ctx(16, 64);
        let a = element_file(&c.pool, [(1u64 << 8, 0)]).unwrap();
        let d = element_file(&c.pool, [(1u64, 1), (3u64, 1), (255u64, 1)]).unwrap();
        let mut got = CollectSink::default();
        let (stats, report) = vpj(&c, &a, &d, &mut got).unwrap();
        assert_eq!(report.partitions, 0, "no partitioning pass expected");
        // 256's region is [1, 511]: contains 1, 3, 255.
        assert_eq!(stats.pairs, 3);
    }

    #[test]
    fn empty_inputs_ok() {
        let c = ctx(16, 8);
        let a = element_file(&c.pool, std::iter::empty()).unwrap();
        let d = element_file(&c.pool, [(1u64, 1), (3u64, 1)]).unwrap();
        let mut sink = CountSink::default();
        assert_eq!(vpj(&c, &a, &d, &mut sink).unwrap().0.pairs, 0);
    }

    /// Containment-join bugs hide in empty and single-element partitions:
    /// an empty height partition and a one-element vertical group go
    /// through the task loop like any other task.
    #[test]
    fn empty_and_single_element_partitions_are_ordinary_tasks() {
        use pbitree_storage::TempFile;
        let c = ctx(12, 16);
        let d = element_file(&c.pool, (1u64..=63).map(|v| (v, 1))).unwrap();
        // Height partitions of A: one empty, one holding node 16 (height
        // 4, region [1, 31]).
        let parts = [
            element_file(&c.pool, std::iter::empty()).unwrap(),
            element_file(&c.pool, [(16u64, 0)]).unwrap(),
        ];
        let mut sink = CollectSink::default();
        let mut pairs = 0;
        for_each_task(parts.iter().map(|part| (&c, part)), |c, part| {
            let (p, _) = anchored_join(c, part, &d, Anchors::Every, &mut sink)?;
            pairs += p;
            Ok(p)
        })
        .unwrap();
        assert_eq!(pairs, 30, "16 contains 1..=31 minus itself");
        assert_eq!(sink.pairs.len(), 30);

        // A vertical group of one ancestor and one descendant.
        let temp = |code, tag| {
            let f = element_file(&c.pool, [(code, tag)]).unwrap();
            TempFile::new(&c.pool, f.file_id(), f)
        };
        let live = c.pool.live_files().len();
        let group = VpjTask::Group {
            l: 1,
            members: vec![0],
            ga: vec![temp(16, 0)],
            gd: vec![temp(3, 1)],
        };
        let mut sink = CollectSink::default();
        let mut report = VpjReport::default();
        run_tasks(&c, (0, 0), vec![group], &mut sink, &mut report).unwrap();
        assert_eq!(sink.canonical(), [(16, 3)]);
        assert_eq!(report.groups, 1);
        assert_eq!(c.pool.live_files().len(), live, "group files are freed");
    }

    /// A merged group whose ancestor members hold replicas of spanning
    /// ancestors, joined once with A resident (b = 6: D's 6 pages exceed
    /// `b − 2`, A's 3 do not) and once with D resident (b = 64). Either
    /// way each replica must pair exactly once.
    #[test]
    fn group_replicas_pair_once_with_either_side_resident() {
        use pbitree_storage::TempFile;
        // H = 12, level 2: partition index = code >> 10, members 0..=2.
        // 2048 spans every partition, 1024 spans 0..=1, 3072 spans 2..=3;
        // 512, 1536 and 2560 sit inside one partition each.
        let ancestors: [&[u64]; 3] = [&[2048, 1024, 512], &[2048, 1024, 1536], &[2048, 3072, 2560]];
        let leaves = |p: u64| (0..500u64).map(move |i| (p << 10) + 2 * i + 1);
        for (b, a_resident) in [(6usize, true), (64, false)] {
            let c = ctx(12, b);
            let temp = |codes: Vec<(u64, u32)>| {
                let f = element_file(&c.pool, codes).unwrap();
                TempFile::new(&c.pool, f.file_id(), f)
            };
            let ga: Vec<_> = ancestors
                .iter()
                .map(|codes| temp(codes.iter().map(|&v| (v, 0)).collect()))
                .collect();
            let gd: Vec<_> = (0..3)
                .map(|p| temp(leaves(p).map(|v| (v, 1)).collect()))
                .collect();
            let (pa, pd): (u32, u32) = (
                ga.iter().map(|f| f.pages()).sum(),
                gd.iter().map(|f| f.pages()).sum(),
            );
            assert_eq!(
                (
                    pd as usize > c.resident_pages(),
                    pa as usize <= c.resident_pages()
                ),
                (a_resident, true),
                "b = {b}: A {pa} pages, D {pd} pages"
            );
            let group = VpjTask::Group {
                l: 2,
                members: vec![0, 1, 2],
                ga,
                gd,
            };
            let mut got = CollectSink::default();
            let mut report = VpjReport::default();
            let (pairs, false_hits) =
                run_tasks(&c, (0, 0), vec![group], &mut got, &mut report).unwrap();
            assert_eq!(false_hits > 0, a_resident, "b = {b}: the rolled side is A");
            let af = element_file(
                &c.pool,
                [2048u64, 1024, 512, 1536, 3072, 2560].map(|v| (v, 0)),
            )
            .unwrap();
            let df = element_file(&c.pool, (0..3).flat_map(leaves).map(|v| (v, 1))).unwrap();
            let mut expect = CollectSink::default();
            block_nested_loop(&c, &af, &df, &mut expect).unwrap();
            assert_eq!(got.canonical(), expect.canonical(), "b = {b}");
            assert_eq!(pairs as usize, expect.pairs.len());
        }
    }

    /// VPJ at b = 8 (a load holds 6 pages) over a cold pool: A of
    /// `a_pages` (heights 3 and 5) and D of `d_pages` (leaves), both
    /// spread over the whole tree so the clip skips no page. Checks the
    /// pairs against the naive join; returns the stats, the report and
    /// the page-cost rule's plan.
    fn cold_run(a_pages: usize, d_pages: usize) -> (JoinStats, VpjReport, Option<(Resident, u64)>) {
        let c = ctx(20, 8);
        let per_page = pbitree_storage::records_per_page::<Element>();
        let a = mixed_codes(20, a_pages * per_page, &[3, 5], 161);
        let d = mixed_codes(20, d_pages * per_page, &[0], 163);
        let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
        assert_eq!(
            (af.pages() as usize, df.pages() as usize),
            (a_pages, d_pages)
        );
        let plan = c.resident_side(size(&af), size(&df));
        c.pool.flush_all().unwrap();
        c.pool.evict_all().unwrap();
        let mut got = CollectSink::default();
        let (stats, report) = vpj(&c, &af, &df, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &af, &df, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert!(stats.pairs > 0);
        (stats, report, plan)
    }

    #[test]
    fn a_side_of_two_loads_is_chunked_not_partitioned() {
        // D's 10 pages take 2 loads of 6; A's 25 pages stream past each
        // chunk: 10 + 2 × 25 pages read (less than 3 × 35 for a partition
        // pass), nothing written, no partition.
        let (stats, report, plan) = cold_run(25, 10);
        assert_eq!(plan, Some((Resident::D, 2)));
        assert_eq!(stats.io.writes(), 0);
        assert_eq!(stats.io.reads(), 10 + 2 * 25);
        assert_eq!((report.partitions, report.groups), (0, 1), "{report:?}");
    }

    #[test]
    fn sides_of_five_loads_still_partition() {
        // A's 25 pages take 5 loads and D's 40 take 7: streaming the other
        // side that often reads more than a partition pass.
        let (stats, report, plan) = cold_run(25, 40);
        assert_eq!(plan, None);
        assert!(report.partitions > 0, "{report:?}");
        assert!(stats.io.writes() > 0);
    }

    #[test]
    fn packed_groups_of_several_loads_still_join() {
        // Packed pages of dense, sorted codes hold about 3 raw pages'
        // worth of records each. VPJ partitions these sides at b = 4, and
        // a group whose A side fits one load by pages (b − 2 = 2) can hold
        // 4 loads of records, where the page-cost rule would partition:
        // the group's memory join must still run, in chunks.
        let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(20).unwrap(), 4)
            .compression(true)
            .build();
        let a: Vec<u64> = (0..3000).map(|i| (1 + 2 * i) << 2).collect();
        let d: Vec<u64> = (0..20_000).map(|i| 1 + 2 * i).collect();
        let af = element_file_with(&c.pool, c.write_opts(), a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file_with(&c.pool, c.write_opts(), d.iter().map(|&v| (v, 1))).unwrap();
        let mut got = CollectSink::default();
        let (_, report) = vpj(&c, &af, &df, &mut got).unwrap();
        assert!(report.partitions > 0, "{report:?}");
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &af, &df, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
    }

    #[test]
    fn io_is_about_three_passes() {
        let c = JoinCtx::in_memory(PBiTreeShape::new(18).unwrap(), 8);
        let a: Vec<u64> = mixed_codes(18, 12_000, &[2, 4], 131);
        let d: Vec<u64> = mixed_codes(18, 12_000, &[0, 1], 133);
        let af = element_file(&c.pool, a.iter().map(|&v| (v, 0))).unwrap();
        let df = element_file(&c.pool, d.iter().map(|&v| (v, 1))).unwrap();
        c.pool.flush_all().unwrap();
        let mut sink = CountSink::default();
        let (stats, report) = vpj(&c, &af, &df, &mut sink).unwrap();
        let total = (af.pages() + df.pages()) as u64;
        let slack = report.replicated_tuples / 300 + 64; // replicas + metadata
        assert!(
            stats.io.total() <= 3 * total + 2 * slack,
            "VPJ I/O {} vs 3x{} (+slack {slack})",
            stats.io.total(),
            total
        );
    }
}
