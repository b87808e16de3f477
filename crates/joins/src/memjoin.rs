//! Memory-Containment-Join (Algorithm 6), in as many memory loads as the
//! resident side needs.
//!
//! The I/O-optimal base case VPJ reduces everything to (cost `‖A‖ + ‖D‖`),
//! and the crate's one in-memory containment join: VPJ's base case, each
//! of VPJ's merged partition groups and [`memory_containment_join`] run
//! the same body. Each side is a list of member files (a lone file is the
//! one-member case). The page-cost rule (`JoinCtx::chunk_plan`) picks
//! the resident side and its `k` memory loads of `b − 2` pages' worth of
//! records: the side is read in `k` chunks (`hashjoin::Chunks`, the one
//! chunk reader), and the other side streams past each, `R + k·T` pages.
//! `k = 1` is Algorithm 6's fit, `D` resident first; the public
//! [`memory_containment_join`] accepts nothing else. Whether a memory
//! join beats a partition pass is the caller's choice (VPJ's base case
//! asks `JoinCtx::resident_side`); given the join, it always runs.
//!
//! * **`D` resident** — load and sort a chunk of descendants by code;
//!   each ancestor's subtree is the contiguous code range `[start, end]`
//!   (Lemma 3), so one binary search per scanned ancestor yields its
//!   matches in the chunk.
//! * **`A` resident** — per the paper, run MHCJ+Rollup with the ancestor
//!   side resident: that is the F-equijoin `A.Code = F(D.Code, h)` at the
//!   chunk's topmost occupied height `h`, so each of its ancestors is
//!   rolled up to `h` in the hash join's table (`hashjoin::EquiTable`),
//!   `D` streams through it, and `shcj::check_candidate` filters false
//!   hits with Lemma 1.
//!
//! VPJ replicates a spanning ancestor into every partition of its range,
//! so a group's ancestor members can hold copies of one element; the
//! caller's `keep` predicate admits exactly one of them (see
//! [`crate::vpj`]).

use std::ops::Deref;

use pbitree_storage::{HeapFile, ScanOptions};

use crate::context::{Extent, Footprint, JoinCtx, JoinError, JoinStats, Resident};
use crate::element::Element;
use crate::hashjoin::{Chunks, EquiTable};
use crate::shcj::{check_candidate, descendant_key};
use crate::sink::PairSink;

/// Descendants resident in memory, sorted by code for range probing.
///
/// A binary search over a million-element array misses cache at nearly
/// every level, so probes first look up a directory over the codes' top
/// bits: `dir[k]` is the first position whose `code >> shift` is at least
/// `k`, and the search runs inside one bucket. `shift` leaves at most
/// `n / 4` buckets, so `dir` costs at most about `n` bytes.
struct SortedDescendants {
    sorted: Vec<Element>,
    dir: Vec<u32>,
    shift: u32,
}

impl SortedDescendants {
    /// Takes ownership of the loaded descendant tuples.
    fn new(mut v: Vec<Element>) -> Self {
        v.sort_unstable_by_key(|e| e.code);
        let max = v.last().map_or(0, |e| e.code.get());
        let shift = (64 - max.leading_zeros())
            .saturating_sub((v.len() / 4).max(1).ilog2())
            .min(63);
        let mut dir = Vec::with_capacity((max >> shift) as usize + 2);
        let mut i = 0usize;
        for k in 0..=(max >> shift) + 1 {
            while i < v.len() && v[i].code.get() >> shift < k {
                i += 1;
            }
            dir.push(i as u32);
        }
        SortedDescendants {
            sorted: v,
            dir,
            shift,
        }
    }

    /// Emits all descendants of `a`; returns the pair count.
    fn probe(&self, a: Element, sink: &mut dyn PairSink) -> u64 {
        let (start, end) = a.code.region();
        let k = (start >> self.shift) as usize;
        let lo = match self.dir.get(k..k + 2) {
            Some(&[first, end_of_bucket]) => {
                let bucket = &self.sorted[first as usize..end_of_bucket as usize];
                first as usize + bucket.partition_point(|e| e.code.get() < start)
            }
            _ => self.sorted.len(),
        };
        let mut n = 0u64;
        for e in &self.sorted[lo..] {
            if e.code.get() > end {
                break;
            }
            if e.code != a.code {
                n += 1;
                sink.emit(a, *e);
            }
        }
        n
    }
}

/// Algorithm 6 over heap files. Errors with
/// [`JoinError::NeitherSideFits`] when neither side fits one memory load
/// (the page-cost rule's `k = 1`); it never chunks.
pub fn memory_containment_join(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    ctx.measure_op("memjoin", || {
        match ctx.chunk_plan(Footprint::of([a]), Footprint::of([d])) {
            (_, 1) => mem_join_inner(ctx, &[a], &[d], |_, _| true, sink),
            _ if ctx.clip(a, d).is_none() => Ok((0, 0)),
            _ => Err(JoinError::NeitherSideFits {
                a_pages: a.pages(),
                d_pages: d.pages(),
                budget: ctx.resident_pages(),
            }),
        }
    })
}

/// The un-measured body. Each side is a list of member files, read in
/// order; `keep(i, e)` says whether ancestor `e` of member `a[i]` takes
/// part (VPJ's replica dedup, `|_, _| true` elsewhere). The page-cost
/// rule ([`JoinCtx::chunk_plan`]) picks the resident side and its chunk
/// count `k`; each chunk, at most [`JoinCtx::chunk_len`] records, is read
/// into its in-memory structure (phase `load`) and the other side streams
/// past it (phase `probe`), `k` times in all. It runs whatever a
/// partition pass would cost: a VPJ group fits one load by pages, and
/// its packed pages may hold several loads of records.
pub(crate) fn mem_join_inner<F: Deref<Target = HeapFile<Element>>>(
    ctx: &JoinCtx,
    a: &[F],
    d: &[F],
    keep: impl Fn(usize, &Element) -> bool,
    sink: &mut dyn PairSink,
) -> Result<(u64, u64), JoinError> {
    // The envelope rule: an empty side reads nothing, and both the
    // resident load and the streamed probe are clipped by the *other*
    // side's envelope, so zone maps skip
    // pages no pair can come from and pruned records never enter the
    // in-memory structures. (Filtering can only shrink the resident
    // side, so the rule's load count is an upper bound.) A replica
    // the filter drops is dropped from every member alike, so `keep`
    // still admits each surviving ancestor exactly once.
    let Some(clip) = ctx.clip_envelopes(extent(a), extent(d)) else {
        return Ok((0, 0));
    };
    let (a_opts, d_opts) = (clip.a, clip.d);
    let footprint = |side: &[F]| Footprint::of(side.iter().map(|f| &**f));
    let (a_size, d_size) = (footprint(a), footprint(d));
    let (side, loads) = ctx.chunk_plan(a_size, d_size);
    let all = |_: usize, _: &Element| true;
    match side {
        Resident::D => {
            // An A no larger than a D of one load fits one as well (its
            // records within one load too, on packed pages). When the
            // clip filters it, read it first: an A the clip leaves empty
            // ends the join before D is read.
            let fits =
                a_size.pages <= d_size.pages && a_size.records <= ctx.chunk_len::<Element>() as u64;
            let a_first = if loads == 1 && fits && !a_opts.filter.is_all() {
                Some(ctx.phase("load", || load_members(ctx, a, a_opts, &keep))?)
            } else {
                None
            };
            if a_first.as_ref().is_some_and(Vec::is_empty) {
                return Ok((0, 0));
            }
            join_chunks(ctx, d, d_opts, &all, SortedDescendants::new, |dd| {
                let mut pairs = 0u64;
                match &a_first {
                    Some(resident) => resident.iter().for_each(|&ae| pairs += dd.probe(ae, sink)),
                    None => scan_members(ctx, a, a_opts, &keep, |ae| pairs += dd.probe(ae, sink))?,
                }
                Ok((pairs, 0))
            })
        }
        // MHCJ+Rollup with A resident: the F-equijoin at the chunk's
        // topmost height, each of its ancestors rolled up to it in the
        // hash join's table. A pair's ancestor at that height is an
        // ancestor of its descendant too, so every chunk finds its own
        // pairs whatever the other chunks' heights.
        Resident::A => join_chunks(ctx, a, a_opts, &keep, roll_up, |(anchor, aa)| {
            let mut counts = (0u64, 0u64);
            scan_members(ctx, d, d_opts, &all, |de| {
                if let Some(k) = descendant_key(&de, *anchor) {
                    aa.for_each(k, |ae| check_candidate(ae, &de, &mut counts, sink));
                }
            })?;
            Ok(counts)
        }),
    }
}

/// The chunk loop of [`mem_join_inner`]: reads `side` in chunks of at
/// most [`JoinCtx::chunk_len`] records, builds the records `keep` admits
/// into a chunk's in-memory structure with `build` (phase `load`),
/// streams the other side past it with `probe` (phase `probe`), and sums
/// the `(pairs, false_hits)` each probe counts.
fn join_chunks<F: Deref<Target = HeapFile<Element>>, T>(
    ctx: &JoinCtx,
    side: &[F],
    opts: ScanOptions,
    keep: &impl Fn(usize, &Element) -> bool,
    build: impl Fn(Vec<Element>) -> T,
    mut probe: impl FnMut(&T) -> Result<(u64, u64), JoinError>,
) -> Result<(u64, u64), JoinError> {
    let len = ctx.chunk_len::<Element>();
    let records = side.iter().map(|f| f.records()).sum::<u64>();
    let mut chunks = Chunks::new(ctx, side, opts);
    let mut counts = (0u64, 0u64);
    loop {
        let resident = ctx.phase("load", || {
            let mut v = Vec::with_capacity(len.min(records as usize));
            chunks.next_chunk(len, |i, e| {
                if keep(i, e) {
                    v.push(*e)
                }
            })?;
            Ok(build(v))
        })?;
        let (pairs, false_hits) = ctx.phase_counted("probe", || probe(&resident))?;
        counts = (counts.0 + pairs, counts.1 + false_hits);
        if !chunks.remain()? {
            return Ok(counts);
        }
    }
}

/// A chunk of ancestors rolled up to its topmost height, in the hash
/// join's table: that height and the table.
fn roll_up(chunk: Vec<Element>) -> (u32, EquiTable<Element>) {
    let anchor = chunk.iter().map(|e| e.code.height()).max().unwrap_or(0);
    let mut table = EquiTable::with_capacity(chunk.len());
    for e in chunk {
        table.insert(e.code.ancestor_at_height(anchor).get(), e);
    }
    (anchor, table)
}

/// A side's extent: its members' record count and the fold of their
/// bounds, `None` (unknown) when any member has none.
fn extent<F: Deref<Target = HeapFile<Element>>>(side: &[F]) -> Extent {
    let records = side.iter().map(|f| f.records()).sum();
    let envelope = side.iter().map(|f| f.bounds()).reduce(|acc, b| {
        let ((lo, hi), (b_lo, b_hi)) = (acc?, b?);
        Some((lo.min(b_lo), hi.max(b_hi)))
    });
    (records, envelope.flatten())
}

/// Reads every record of `side` that `opts` and `keep` admit into memory.
fn load_members<F: Deref<Target = HeapFile<Element>>>(
    ctx: &JoinCtx,
    side: &[F],
    opts: ScanOptions,
    keep: &impl Fn(usize, &Element) -> bool,
) -> Result<Vec<Element>, JoinError> {
    let mut v = Vec::with_capacity(side.iter().map(|f| f.records() as usize).sum());
    scan_members(ctx, side, opts, keep, |e| v.push(e))?;
    Ok(v)
}

/// Streams every record of `side`'s members that `opts` and `keep`
/// admit through `f`, member by member, one decoded page at a time.
fn scan_members<F: Deref<Target = HeapFile<Element>>>(
    ctx: &JoinCtx,
    side: &[F],
    opts: ScanOptions,
    keep: &impl Fn(usize, &Element) -> bool,
    mut f: impl FnMut(Element),
) -> Result<(), JoinError> {
    for (i, file) in side.iter().enumerate() {
        let mut scan = file.scan_with(&ctx.pool, opts);
        while scan.next_batch_each(|e| {
            if keep(i, &e) {
                f(e)
            }
        })? > 0
        {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{element_file, element_file_with};
    use crate::naive::block_nested_loop;
    use crate::rollup::{mhcj_rollup, RollupOptions};
    use crate::sink::{CollectSink, CountSink};
    use pbitree_core::{Code, PBiTreeShape};

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(16).unwrap(), b)
    }

    fn mixed_codes(n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
        let cap: u64 = heights.iter().map(|&h| 1u64 << (16 - h - 1)).sum();
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
            let positions = 1u64 << (16 - h - 1);
            let alpha = (x >> 8) % positions;
            out.insert((1 + 2 * alpha) << h);
        }
        out.into_iter().collect()
    }

    fn fixture(c: &JoinCtx) -> (HeapFile<Element>, HeapFile<Element>, Vec<(u64, u64)>) {
        let a = element_file(
            &c.pool,
            mixed_codes(300, &[3, 5, 7], 51).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(900, &[0, 1, 4], 53).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(c, &a, &d, &mut expect).unwrap();
        (a, d, expect.canonical())
    }

    #[test]
    fn directory_probe_matches_a_scan() {
        // Empty, single, duplicated and dense code sets; every ancestor
        // region is checked against a linear scan of the same set.
        let sets: [Vec<u64>; 4] = [
            vec![],
            vec![1 << 15],
            vec![6; 40],
            mixed_codes(3000, &[0, 1, 2, 5], 41),
        ];
        for codes in sets {
            let dd = SortedDescendants::new(codes.iter().map(|&c| Element::new(c, 1)).collect());
            for a in mixed_codes(500, &[1, 3, 6, 9, 12], 43)
                .into_iter()
                .chain([1 << 15])
            {
                let a = Element::new(a, 0);
                let (s, e) = a.code.region();
                let want = codes
                    .iter()
                    .filter(|&&c| (s..=e).contains(&c) && c != a.code.get())
                    .count() as u64;
                assert_eq!(dd.probe(a, &mut CountSink::default()), want, "{a:?}");
            }
        }
    }

    #[test]
    fn d_in_memory_path() {
        let c = ctx(32); // D (3 pages) fits
        let (a, d, expect) = fixture(&c);
        let mut got = CollectSink::default();
        let stats = memory_containment_join(&c, &a, &d, &mut got).unwrap();
        assert_eq!(got.canonical(), expect);
        assert_eq!(stats.false_hits, 0, "sorted-D path has no false hits");
    }

    #[test]
    fn a_in_memory_path() {
        // Budget fits A (1 page) but not D: force the rollup branch by
        // making D larger than the pool. The branch choice depends on raw
        // page geometry (packed D would fit the pool). The second input,
        // with pruning off, puts D records at A's top height above lower A
        // records: only D strictly below that height may probe, so the
        // branch's false hits equal the default MHCJ+Rollup's and a count
        // of the rolled candidates Lemma 1 rejects.
        for (d_heights, prune) in [(&[0, 1][..], true), (&[0, 1, 6][..], false)] {
            let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(16).unwrap(), 3)
                .prune(prune)
                .build();
            let a_items = || mixed_codes(100, &[4, 6], 61).into_iter().map(|v| (v, 0));
            let d_items = || mixed_codes(4000, d_heights, 63).into_iter().map(|v| (v, 1));
            let a = element_file_with(&c.pool, c.read_opts(), a_items()).unwrap();
            let d = element_file_with(&c.pool, c.read_opts(), d_items()).unwrap();
            assert!(d.pages() as usize > c.budget());
            let mut got = CollectSink::default();
            let stats = memory_containment_join(&c, &a, &d, &mut got).unwrap();

            let big = ctx(64);
            let a2 = element_file(&big.pool, a_items()).unwrap();
            let d2 = element_file(&big.pool, d_items()).unwrap();
            let mut expect = CollectSink::default();
            block_nested_loop(&big, &a2, &d2, &mut expect).unwrap();
            assert_eq!(
                got.canonical(),
                expect.canonical(),
                "D heights {d_heights:?}"
            );
            if !prune {
                let rollup = mhcj_rollup(
                    &c,
                    &a,
                    &d,
                    RollupOptions::default(),
                    &mut CountSink::default(),
                )
                .unwrap();
                let top = |e: &Element| e.code.ancestor_at_height(6);
                let d_all: Vec<Element> = d_items().map(|(v, t)| Element::new(v, t)).collect();
                let false_hits: usize = a_items()
                    .map(|(v, t)| {
                        let ae = Element::new(v, t);
                        d_all
                            .iter()
                            .filter(|de| de.code.height() < 6 && top(de) == top(&ae))
                            .filter(|de| !ae.code.is_ancestor_of(de.code))
                            .count()
                    })
                    .sum();
                assert!(false_hits > 0, "the input should meet false hits");
                assert_eq!(
                    (stats.pairs, stats.false_hits),
                    (rollup.pairs, false_hits as u64)
                );
                assert_eq!(rollup.false_hits, false_hits as u64);
            }
        }
    }

    #[test]
    fn a_resident_chunks_roll_to_their_own_anchor() {
        // b = 8: a load holds 6 pages (2,046 records). A is 10 pages in
        // file order: a load's worth and 54 more at height 2, then 1,000
        // at height 4; D (leaves and height 1) is 59 pages, so A stays
        // resident in 2 chunks. The first chunk's anchor is height 2 and
        // it rolls nothing; the second's is 4, and its height-2
        // ancestors meet false hits there.
        let c = ctx(8);
        let len = c.chunk_len::<Element>();
        let low = mixed_codes(len + 54, &[2], 91);
        let high = mixed_codes(1000, &[4], 93);
        let a_codes: Vec<u64> = low.iter().chain(&high).copied().collect();
        let d_codes = mixed_codes(20_000, &[0, 1], 95);
        let a = element_file(&c.pool, a_codes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&c.pool, d_codes.iter().map(|&v| (v, 1))).unwrap();
        let plan = c.resident_side(Footprint::of([&a]), Footprint::of([&d]));
        assert_eq!(
            plan,
            Some((Resident::A, 2)),
            "A {} D {}",
            a.pages(),
            d.pages()
        );
        let mut got = CollectSink::default();
        let (pairs, false_hits) = mem_join_inner(&c, &[&a], &[&d], |_, _| true, &mut got).unwrap();
        let mut expect = CollectSink::default();
        block_nested_loop(&c, &a, &d, &mut expect).unwrap();
        assert_eq!(got.canonical(), expect.canonical());
        assert_eq!(pairs as usize, expect.pairs.len());
        // Rolled to height 4, only the second chunk's height-2 ancestors.
        let top = |v: u64| Code::new(v).unwrap().ancestor_at_height(4);
        let rolled = &low[len..];
        let want: usize = rolled
            .iter()
            .map(|&av| {
                let anc = Code::new(av).unwrap();
                let d_below = d_codes.iter().filter(|&&dv| top(dv) == top(av));
                d_below
                    .filter(|&&dv| !anc.is_ancestor_of(Code::new(dv).unwrap()))
                    .count()
            })
            .sum();
        assert!(want > 0, "the second chunk should meet false hits");
        assert_eq!(false_hits, want as u64);
    }

    #[test]
    fn neither_fits_is_an_error() {
        let c = ctx(2);
        let a = element_file(
            &c.pool,
            mixed_codes(2000, &[2], 71).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(2000, &[0], 73).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        let mut sink = CountSink::default();
        assert!(matches!(
            memory_containment_join(&c, &a, &d, &mut sink),
            Err(JoinError::NeitherSideFits { .. })
        ));
    }

    #[test]
    fn io_cost_is_one_read_of_each_side() {
        let c = JoinCtx::in_memory(PBiTreeShape::new(16).unwrap(), 32);
        let a = element_file(
            &c.pool,
            mixed_codes(3000, &[2], 81).into_iter().map(|v| (v, 0)),
        )
        .unwrap();
        let d = element_file(
            &c.pool,
            mixed_codes(3000, &[0], 83).into_iter().map(|v| (v, 1)),
        )
        .unwrap();
        c.pool.flush_all().unwrap();
        let mut sink = CountSink::default();
        let stats = memory_containment_join(&c, &a, &d, &mut sink).unwrap();
        let total = (a.pages() + d.pages()) as u64;
        assert!(
            stats.io.reads() <= total,
            "memory join should read each page once: {} vs {}",
            stats.io.reads(),
            total
        );
        assert_eq!(stats.io.writes(), 0);
    }

    #[test]
    fn ancestors_the_clip_empties_end_the_join_before_d_is_read() {
        // A's envelope [1, 65535] holds D's leaf, but neither A leaf
        // overlaps D's envelope [1001, 1001]: the clip empties A.
        for prune in [true, false] {
            let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(16).unwrap(), 8)
                .prune(prune)
                .build();
            let a = element_file(&c.pool, [(1u64, 0), (65535u64, 0)]).unwrap();
            let d = element_file(&c.pool, [(1001u64, 1)]).unwrap();
            let before = c.pool.pool_stats();
            let mut sink = CountSink::default();
            let stats = memory_containment_join(&c, &a, &d, &mut sink).unwrap();
            assert_eq!(stats.pairs, 0);
            let requests = c.pool.pool_stats().since(&before).requests();
            assert_eq!(requests, if prune { 1 } else { 2 }, "prune={prune}");
        }
    }
}
