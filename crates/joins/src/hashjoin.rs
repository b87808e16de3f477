//! The hash-equijoin engine behind the F-equijoin of SHCJ, MHCJ and
//! MHCJ+Rollup (`shcj::anchored_equijoin`).
//!
//! The partitioning joins' core idea (§3.2) is that PBiTree codes turn the
//! containment θ-join into an **equijoin** — `A.Code = F(D.Code, h)` — so
//! mature equijoin machinery applies. This module is that machinery. With
//! `k` the memory loads the build side needs (`JoinCtx::chunk_len`
//! records each), the page-cost rule (`JoinCtx::loads`) picks the cheaper
//! of:
//!
//! * an in-memory hash join in `k` chunks, the probe side streamed once
//!   per chunk: I/O = `‖B‖ + k‖P‖`; a build side that fits (`k = 1`) is
//!   the classic `‖B‖ + ‖P‖`, and every `k ≤ 3` beats a partition pass;
//! * a Grace hash join: both sides are hash-partitioned on the join key
//!   into `p` buckets by the partitioning joins' one scatter pass
//!   (`context::scatter`; a bucket no key lands in makes no file), then
//!   each bucket pair is joined by the same rule, I/O = `3(‖B‖ + ‖P‖)` —
//!   the constant the paper's cost formulas use;
//! * past the Grace depth bound (a pathologically skewed bucket that no
//!   hash splits) the bucket is chunked whatever it costs, so the join
//!   never fails, it just degrades.
//!
//! Every in-memory case is one loop, `join_in_chunks`, whose build side
//! is cut by the one chunk reader (`Chunks`, which the memory join's
//! chunks share). The build table is a multimap (`EquiTable`):
//! MHCJ+Rollup maps several original ancestors onto one rolled-up code,
//! and the memory join's `A`-resident branch builds the same table.

use std::hash::{BuildHasher, Hash};
use std::ops::Deref;

use pbitree_storage::util::FxBuildHasher;
use pbitree_storage::util::FxHashMap;
use pbitree_storage::{records_per_page, FixedRecord, HeapFile, HeapScan, ScanOptions};

use crate::context::{scatter, Footprint, JoinCtx, JoinError};

/// Hash-equijoin `build ⋈ probe` on u64 keys.
///
/// Either key extractor returning `None` drops its tuple (SHCJ uses this
/// to skip descendants at or above the ancestor height, whichever side
/// they are on). `on_match` receives every `(build, probe)` pair with
/// equal keys.
///
/// The per-side [`ScanOptions`] carry pushdown
/// [`pbitree_storage::ScanFilter`]s (SHCJ passes both sides of the
/// envelope clip, `JoinCtx::clip`; pass `ctx.read_opts()` for none).
/// The filters must be
/// *necessary conditions* for the key extractors producing a match — the
/// join assumes a record its side's filter rejects cannot pair with
/// anything. They apply to the initial scans, including the first Grace
/// partitioning pass; partition files contain only qualifying records, so
/// recursion levels scan them unfiltered.
#[allow(clippy::too_many_arguments)]
pub fn hash_equijoin_with<B, P, KB, KP, M>(
    ctx: &JoinCtx,
    build: &HeapFile<B>,
    probe: &HeapFile<P>,
    build_opts: ScanOptions,
    probe_opts: ScanOptions,
    build_key: KB,
    probe_key: KP,
    mut on_match: M,
) -> Result<(), JoinError>
where
    B: FixedRecord,
    P: FixedRecord,
    KB: Fn(&B) -> Option<u64>,
    KP: Fn(&P) -> Option<u64>,
    M: FnMut(&B, &P),
{
    if build.is_empty() || probe.is_empty() {
        return Ok(());
    }
    equijoin_rec(
        ctx,
        build,
        probe,
        build_opts,
        probe_opts,
        &build_key,
        &probe_key,
        &mut on_match,
        0,
    )
}

/// Recursion driver: the build side is held in memory, in as many chunks
/// as it needs, while the page-cost rule ([`JoinCtx::loads`]) says that
/// reads fewer pages than a Grace level; otherwise one Grace partitioning
/// level (phase `partition`) and recurse per bucket (with a fresh hash
/// seed per level so repartitioning actually splits).
#[allow(clippy::too_many_arguments)]
fn equijoin_rec<B, P, KB, KP, M>(
    ctx: &JoinCtx,
    build: &HeapFile<B>,
    probe: &HeapFile<P>,
    build_opts: ScanOptions,
    probe_opts: ScanOptions,
    build_key: &KB,
    probe_key: &KP,
    on_match: &mut M,
    depth: u32,
) -> Result<(), JoinError>
where
    B: FixedRecord,
    P: FixedRecord,
    KB: Fn(&B) -> Option<u64>,
    KP: Fn(&P) -> Option<u64>,
    M: FnMut(&B, &P),
{
    // Past the depth bound, same-key skew cannot be split by any hash:
    // degrade gracefully to chunks whatever they cost.
    let chunked = ctx.loads::<B>(Footprint::of([build]), u64::from(probe.pages()));
    if chunked.is_some() || depth >= MAX_GRACE_DEPTH {
        join_in_chunks(
            ctx, build, probe, build_opts, probe_opts, build_key, probe_key, on_match,
        )
    } else {
        let parts = partition_count(ctx, build.pages());
        let (build_parts, probe_parts) = ctx.phase("partition", || {
            let build_parts = scatter(ctx, build, build_opts, parts, |r| {
                Ok(build_key(r).map(|k| bucket(k, depth, parts)))
            })?;
            let probe_parts = scatter(ctx, probe, probe_opts, parts, |r| {
                Ok(probe_key(r).map(|k| bucket(k, depth, parts)))
            })?;
            Ok((build_parts, probe_parts))
        })?;
        for pair in build_parts.iter().zip(&probe_parts) {
            let (Some(bp), Some(pp)) = pair else {
                continue;
            };
            // No progress (everything hashed into one bucket) forces the
            // chunked fallback via the depth limit.
            let next_depth = if bp.records() == build.records() {
                MAX_GRACE_DEPTH
            } else {
                depth + 1
            };
            // Filtered records never entered the partitions, so recursion
            // scans them unfiltered.
            equijoin_rec(
                ctx,
                bp,
                pp,
                ctx.read_opts(),
                ctx.read_opts(),
                build_key,
                probe_key,
                on_match,
                next_depth,
            )?;
        }
        // The bucket files die in the phase that wrote them.
        ctx.phase("partition", || {
            drop((build_parts, probe_parts));
            Ok(())
        })
    }
}

/// Grace recursion bound; beyond it the build side is chunked instead.
const MAX_GRACE_DEPTH: u32 = 8;

/// Number of Grace partitions: enough that a bucket of the build side is
/// likely to fit, bounded by the writer buffers we can afford (`b - 1`,
/// as in the textbook Grace join).
fn partition_count(ctx: &JoinCtx, build_pages: u32) -> usize {
    let want = (build_pages as usize).div_ceil(ctx.resident_pages()) + 1;
    want.clamp(2, (ctx.budget().saturating_sub(1)).max(2))
}

/// The Grace bucket of key `k` among `parts` at recursion level `level`.
/// Salted by level so recursive repartitioning uses an independent split;
/// `% parts` reads the low bits, which the hasher's finalizer fills even
/// for codes with many trailing zeros.
fn bucket(k: u64, level: u32, parts: usize) -> usize {
    let mut h = FxBuildHasher::default().build_hasher();
    (k ^ ((level as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))).hash(&mut h);
    (std::hash::Hasher::finish(&h) as usize) % parts
}

/// The in-memory side of every equal-key probe in the crate: a multimap
/// from join key to build records. The hash join builds one per chunk,
/// and the memory join's `A`-resident branch rolls its ancestors into one
/// (`crate::memjoin`).
pub(crate) struct EquiTable<B>(FxHashMap<u64, SmallGroup<B>>);

impl<B: Copy> EquiTable<B> {
    /// A table sized for `n` records (the map applies its own load factor).
    pub(crate) fn with_capacity(n: usize) -> Self {
        EquiTable(FxHashMap::with_capacity_and_hasher(n, Default::default()))
    }

    /// Adds `b` under key `k`.
    pub(crate) fn insert(&mut self, k: u64, b: B) {
        self.0.entry(k).or_default().push(b);
    }

    /// Calls `f` on every record under key `k`.
    pub(crate) fn for_each(&self, k: u64, f: impl FnMut(&B)) {
        if let Some(group) = self.0.get(&k) {
            group.for_each(f);
        }
    }
}

/// The one in-memory equijoin: builds at most
/// [`JoinCtx::chunk_len`] build records into an [`EquiTable`] (phase
/// `load`, the table's allocation and free included), streams `probe` through it a page batch at a time (phase
/// `probe`), and repeats only while build records remain. A build side
/// that fits is one chunk, so `probe` is read once; a side the page-cost
/// rule chunks, or a skewed Grace bucket, is several, each a rescan of
/// `probe`. The build is cut by [`Chunks`], so no build page stays
/// pinned while the probe streams.
#[allow(clippy::too_many_arguments)]
fn join_in_chunks<B, P, KB, KP, M>(
    ctx: &JoinCtx,
    build: &HeapFile<B>,
    probe: &HeapFile<P>,
    build_opts: ScanOptions,
    probe_opts: ScanOptions,
    build_key: &KB,
    probe_key: &KP,
    on_match: &mut M,
) -> Result<(), JoinError>
where
    B: FixedRecord,
    P: FixedRecord,
    KB: Fn(&B) -> Option<u64>,
    KP: Fn(&P) -> Option<u64>,
    M: FnMut(&B, &P),
{
    let chunk_len = ctx.chunk_len::<B>();
    let mut table = ctx.phase("load", || {
        Ok(EquiTable::with_capacity(
            chunk_len.min(build.records() as usize),
        ))
    })?;
    let members = [build];
    let mut chunks = Chunks::new(ctx, &members, build_opts);
    let mut batch: Vec<P> = Vec::with_capacity(records_per_page::<P>());
    loop {
        ctx.phase("load", || {
            chunks.next_chunk(chunk_len, |_, r| {
                if let Some(k) = build_key(r) {
                    table.insert(k, *r);
                }
            })
        })?;
        // Each probe page decodes once into `batch` and is unpinned
        // before any matching runs.
        ctx.phase("probe", || {
            let mut probe_scan = probe.scan_with(&ctx.pool, probe_opts);
            while probe_scan.next_batch(&mut batch)? > 0 {
                for p in &batch {
                    if let Some(k) = probe_key(p) {
                        table.for_each(k, |b| on_match(b, p));
                    }
                }
                batch.clear();
            }
            Ok(())
        })?;
        if !chunks.remain()? {
            return ctx.phase("load", || {
                drop(table);
                Ok(())
            });
        }
        table.0.clear();
    }
}

/// The record-granular chunk reader of every chunked join: reads one
/// side's member files in order, a page batch at a time, and hands out
/// chunks of at most a given number of records. A chunk is cut at a
/// record: the rest of the last page read waits in a buffer for the next
/// chunk, so no page of the side stays pinned between chunks.
pub(crate) struct Chunks<'a, R: FixedRecord, F> {
    ctx: &'a JoinCtx,
    members: &'a [F],
    opts: ScanOptions,
    /// The member being read, and its scan once opened.
    member: usize,
    scan: Option<HeapScan<'a, R>>,
    /// The last page read; records from `taken` on are not handed out.
    page: Vec<R>,
    taken: usize,
}

impl<'a, R: FixedRecord, F: Deref<Target = HeapFile<R>>> Chunks<'a, R, F> {
    /// A reader over `members`, each scanned through `opts`.
    pub(crate) fn new(ctx: &'a JoinCtx, members: &'a [F], opts: ScanOptions) -> Self {
        Chunks {
            ctx,
            members,
            opts,
            member: 0,
            scan: None,
            page: Vec::with_capacity(records_per_page::<R>()),
            taken: 0,
        }
    }

    /// Whether records remain, reading the next page (of the next member,
    /// at a member's end) when the buffered one is spent.
    pub(crate) fn remain(&mut self) -> Result<bool, JoinError> {
        while self.taken == self.page.len() {
            let Some(file) = self.members.get(self.member) else {
                return Ok(false);
            };
            let (pool, opts) = (&self.ctx.pool, self.opts);
            let scan = self.scan.get_or_insert_with(|| file.scan_with(pool, opts));
            self.page.clear();
            self.taken = 0;
            if scan.next_batch(&mut self.page)? == 0 {
                self.scan = None;
                self.member += 1;
            }
        }
        Ok(true)
    }

    /// Hands the next at most `len` records to `f`, each with its
    /// member's index; returns how many it handed out (0: none remain).
    pub(crate) fn next_chunk(
        &mut self,
        len: usize,
        mut f: impl FnMut(usize, &R),
    ) -> Result<usize, JoinError> {
        debug_assert!(len > 0, "a chunk holds at least one record");
        let mut n = 0;
        while n < len && self.remain()? {
            let end = self.page.len().min(self.taken + len - n);
            for r in &self.page[self.taken..end] {
                f(self.member, r);
            }
            n += end - self.taken;
            self.taken = end;
        }
        Ok(n)
    }
}

/// A tiny inline-first multimap group: one entry inline (the common case —
/// build keys are unique for SHCJ), spilling to a `Vec` only for rollup
/// fan-in.
#[derive(Debug, Default)]
enum SmallGroup<B> {
    #[default]
    Empty,
    One(B),
    Many(Vec<B>),
}

impl<B: Copy> SmallGroup<B> {
    fn push(&mut self, b: B) {
        match std::mem::replace(self, SmallGroup::Empty) {
            SmallGroup::Empty => *self = SmallGroup::One(b),
            SmallGroup::One(a) => *self = SmallGroup::Many(vec![a, b]),
            SmallGroup::Many(mut v) => {
                v.push(b);
                *self = SmallGroup::Many(v);
            }
        }
    }

    fn for_each<F: FnMut(&B)>(&self, mut f: F) {
        match self {
            SmallGroup::Empty => {}
            SmallGroup::One(b) => f(b),
            SmallGroup::Many(v) => v.iter().for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{element_file_with, Element};
    use pbitree_core::PBiTreeShape;

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(30).unwrap(), b)
    }

    fn run_join(ctx: &JoinCtx, build: &[u64], probe: &[u64]) -> Vec<(u64, u64)> {
        let bf = HeapFile::from_iter(&ctx.pool, build.iter().copied()).unwrap();
        let pf = HeapFile::from_iter(&ctx.pool, probe.iter().copied()).unwrap();
        let mut out = Vec::new();
        hash_equijoin_with(
            ctx,
            &bf,
            &pf,
            ctx.read_opts(),
            ctx.read_opts(),
            |b| Some(*b % 1000),
            |p| Some(*p % 1000),
            |b, p| out.push((*b, *p)),
        )
        .unwrap();
        out.sort_unstable();
        out
    }

    fn expected(build: &[u64], probe: &[u64]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for &b in build {
            for &p in probe {
                if b % 1000 == p % 1000 {
                    out.push((b, p));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn in_memory_path() {
        // A build side that fits is one chunk: the probe side is read once
        // and nothing is partitioned. The second input is the exact fit,
        // as many build records as one chunk holds.
        let probe: Vec<u64> = (0..2000).collect();
        let fit = ctx(4);
        let exact = fit.elements_per_pages_of::<u64>(fit.resident_pages());
        for (c, n) in [(ctx(16), 500), (fit, exact)] {
            let build: Vec<u64> = (0..n as u64).collect();
            let bf = HeapFile::from_iter(&c.pool, build.iter().copied()).unwrap();
            let pf = HeapFile::from_iter(&c.pool, probe.iter().copied()).unwrap();
            let (mut got, probed) = traced_join(&c, &bf, &pf, |k| *k % 1000);
            got.sort_unstable();
            assert_eq!(got, expected(&build, &probe));
            assert_eq!(probed, probe.len());
        }
    }

    #[test]
    fn grace_path() {
        let c = ctx(4); // 2 usable pages => build of 40 pages goes Grace
        let build: Vec<u64> = (0..20_000).collect();
        let probe: Vec<u64> = (5_000..25_000).collect();
        assert_eq!(run_join(&c, &build, &probe), expected(&build, &probe));
    }

    /// Runs the join on `key` and returns its pairs in emission order and
    /// how many probe records its scans read (the probe key's calls, Grace
    /// passes included). Every match must be emitted with no page pinned.
    fn traced_join<R: FixedRecord>(
        c: &JoinCtx,
        bf: &HeapFile<R>,
        pf: &HeapFile<R>,
        key: impl Fn(&R) -> u64,
    ) -> (Vec<(R, R)>, usize) {
        let probed = std::cell::Cell::new(0);
        let mut out = Vec::new();
        hash_equijoin_with(
            c,
            bf,
            pf,
            c.read_opts(),
            c.read_opts(),
            |b| Some(key(b)),
            |p| {
                probed.set(probed.get() + 1);
                Some(key(p))
            },
            |b, p| {
                assert_eq!(c.pool.pinned_frames(), 0, "a page stays pinned");
                out.push((*b, *p));
            },
        )
        .unwrap();
        (out, probed.get())
    }

    #[test]
    fn skewed_bucket_falls_back_to_chunks() {
        // All build keys identical: one bucket gets everything, and the
        // level-0 split makes no progress, so the bucket is joined in
        // chunks. Each chunk holds `chunk_len` records (the last the rest)
        // and reads the probe side once more. Raw u64 pages end chunks at
        // a page boundary; packed Element pages hold more records than
        // the raw-page sizing assumes, so there chunks end mid-page and
        // the rest of the page carries over to the next chunk. The probe
        // side is large enough that the page-cost rule runs Grace first.
        fn check<R: FixedRecord + PartialEq>(
            c: &JoinCtx,
            bf: &HeapFile<R>,
            pf: &HeapFile<R>,
            key: impl Fn(&R) -> u64,
        ) {
            let probe_pages = u64::from(pf.pages());
            assert_eq!(c.loads::<R>(Footprint::of([bf]), probe_pages), None);
            let chunk_len = c.elements_per_pages_of::<R>(c.resident_pages());
            let (got, probed) = traced_join(c, bf, pf, key);
            assert_eq!(got.len() as u64, 2 * bf.records());
            // A chunk's matches for the first probe record are one run.
            let first = got[0].1;
            let chunks: Vec<usize> = got
                .chunk_by(|x, y| x.1 == y.1)
                .filter(|run| run[0].1 == first)
                .map(<[_]>::len)
                .collect();
            let (last, full) = chunks.split_last().unwrap();
            assert!(
                full.iter().all(|&n| n == chunk_len),
                "{chunks:?} by {chunk_len}"
            );
            assert!(*last <= chunk_len && (full.len() * chunk_len + last) as u64 == bf.records());
            // One scatter pass over the probe side, then one scan per
            // chunk of its key-0 bucket (two records).
            assert_eq!(probed, pf.records() as usize + 2 * chunks.len());
        }
        // Every build key is 0. Two probe records match it; the rest
        // share key 17, whose bucket is not key 0's.
        let keys = || (1..=30_000u64).map(|i| i * 1000);
        let probe: Vec<u64> = [1000u64, 2000]
            .into_iter()
            .chain((0..3000).map(|i| i * 1000 + 17))
            .collect();
        let c = ctx(4);
        let bf = HeapFile::from_iter(&c.pool, keys()).unwrap();
        let pf = HeapFile::from_iter(&c.pool, probe.iter().copied()).unwrap();
        let parts = partition_count(&c, bf.pages());
        assert_ne!(bucket(0, 0, parts), bucket(17, 0, parts));
        check(&c, &bf, &pf, |k| *k % 1000);
        let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(30).unwrap(), 4)
            .compression(true)
            .build();
        let elements = |codes: &mut dyn Iterator<Item = u64>| {
            element_file_with(&c.pool, c.write_opts(), codes.map(|k| (k, 0))).unwrap()
        };
        let (bf, pf) = (elements(&mut keys()), elements(&mut probe.into_iter()));
        assert_eq!(partition_count(&c, bf.pages()), parts);
        check(&c, &bf, &pf, |e| e.code.get() % 1000);
    }

    #[test]
    fn chunks_hold_at_most_one_load() {
        // Three members (one empty) read as one side: every chunk but the
        // last holds exactly one load of `resident_pages()` worth, cut
        // mid-page and across members, and the records come out in order
        // with their member's index. Packed pages hold more records than
        // a raw page, so there a load ends mid-page too.
        for compress in [false, true] {
            let c = crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(30).unwrap(), 4)
                .compression(compress)
                .build();
            let len = c.chunk_len::<Element>();
            assert_eq!(len, c.elements_per_pages(c.resident_pages()));
            let sizes = [1000u64, 0, 1500];
            let members: Vec<HeapFile<Element>> = (0u64..)
                .zip(sizes)
                .map(|(m, n)| {
                    let codes = (0..n).map(|i| (2 * (m * 10_000 + i) + 1, 0));
                    element_file_with(&c.pool, c.write_opts(), codes).unwrap()
                })
                .collect();
            let members: Vec<&HeapFile<Element>> = members.iter().collect();
            let mut chunks = Chunks::new(&c, &members, c.read_opts());
            let (mut seen, mut lens) = (Vec::new(), Vec::new());
            loop {
                let n = chunks.next_chunk(len, |m, e| seen.push((m, e.code.get())));
                let n = n.unwrap();
                lens.push(n);
                assert_eq!(c.pool.pinned_frames(), 0, "a page stays pinned");
                if !chunks.remain().unwrap() {
                    break;
                }
            }
            let total = sizes.iter().sum::<u64>() as usize;
            assert!(lens.iter().all(|&n| n <= len), "{lens:?} by {len}");
            assert_eq!(lens.len(), total.div_ceil(len), "{lens:?}");
            assert_eq!(lens.iter().sum::<usize>(), total);
            let want: Vec<(usize, u64)> = (0..)
                .zip(sizes)
                .flat_map(|(m, n)| (0..n).map(move |i| (m, 2 * (m as u64 * 10_000 + i) + 1)))
                .collect();
            assert_eq!(seen, want, "compress = {compress}");
        }
    }

    #[test]
    fn probe_key_none_skips() {
        let c = ctx(8);
        let bf = HeapFile::from_iter(&c.pool, 0u64..100).unwrap();
        let pf = HeapFile::from_iter(&c.pool, 0u64..100).unwrap();
        let mut n = 0u64;
        hash_equijoin_with(
            &c,
            &bf,
            &pf,
            c.read_opts(),
            c.read_opts(),
            |b| Some(*b),
            |p| if *p % 2 == 0 { Some(*p) } else { None },
            |_, _| n += 1,
        )
        .unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn empty_sides() {
        let c = ctx(4);
        assert!(run_join(&c, &[], &[1, 2, 3]).is_empty());
        assert!(run_join(&c, &[1, 2, 3], &[]).is_empty());
    }

    /// The join's level-0 Grace split of `f` into `parts` buckets,
    /// replayed through the same scatter pass the join runs.
    fn grace_split<'a>(
        c: &'a JoinCtx,
        f: &HeapFile<u64>,
        parts: usize,
    ) -> Vec<Option<crate::context::Part<'a, u64>>> {
        scatter(c, f, c.read_opts(), parts, |k| {
            Ok(Some(bucket(*k, 0, parts)))
        })
        .unwrap()
    }

    #[test]
    fn grace_io_is_three_passes_with_one_seek_per_write_batch() {
        // Costed disk, one head: the fan-out writers interleave, so each
        // partition's write batch (not each spilled page) moves the head.
        // The parts split the resident pages, a deeper batch than the
        // context's write depth at this budget.
        let c = JoinCtx::in_memory(PBiTreeShape::new(30).unwrap(), 128);
        let keys: Vec<u64> = (0..200_000).collect();
        let bf = HeapFile::from_iter(&c.pool, keys.iter().copied()).unwrap();
        let pf = HeapFile::from_iter(&c.pool, keys.iter().copied()).unwrap();
        let (opts, key) = (c.read_opts(), |k: &u64| Some(*k));
        let parts = partition_count(&c, bf.pages());
        assert!(parts >= 4, "only {parts} Grace partitions");
        // Replay the join's level-0 split to learn each partition's size.
        let depth = c.fan_out_write_opts(parts).depth() as u64;
        assert!(
            depth > c.write_opts().depth() as u64,
            "share {depth} of {parts} parts"
        );
        let mut batches = 0u64;
        for f in [&bf, &pf] {
            for part in grace_split(&c, f, parts).iter().flatten() {
                batches += (part.pages() as u64).div_ceil(depth);
            }
        }
        c.pool.flush_all().unwrap();
        let before = c.pool.io_stats();
        let mut n = 0u64;
        hash_equijoin_with(&c, &bf, &pf, opts, opts, key, key, |_, _| n += 1).unwrap();
        let delta = c.pool.io_stats().since(&before);
        assert_eq!(n, 200_000);
        assert!(
            delta.rand_writes <= batches,
            "{} seeking writes for {batches} write batches ({} pages written)",
            delta.rand_writes,
            delta.writes()
        );
        let total_pages = (bf.pages() + pf.pages()) as u64;
        // 3 passes (read, write partitions, read partitions) plus slack.
        assert!(
            delta.total() <= 3 * total_pages + 64,
            "Grace I/O {} vs 3x{total_pages}",
            delta.total()
        );
        assert!(delta.total() >= 2 * total_pages, "suspiciously little I/O");
    }

    #[test]
    fn grace_partitions_single_height_codes_evenly() {
        // Height-h codes `(2i+1) << h` share h trailing zero bits. Grace's
        // `hash % parts` must still split them evenly over a power-of-two
        // fan-out, or one bucket takes the chunked fallback and rescans
        // the probe side once per chunk.
        let c = JoinCtx::in_memory(PBiTreeShape::new(30).unwrap(), 16);
        let (opts, key) = (c.read_opts(), |k: &u64| Some(*k));
        for h in [1u32, 5, 21] {
            let keys: Vec<u64> = (0..45_000u64).map(|i| (2 * i + 1) << h).collect();
            let bf = HeapFile::from_iter(&c.pool, keys.iter().copied()).unwrap();
            let pf = HeapFile::from_iter(&c.pool, keys.iter().rev().copied()).unwrap();
            let parts = partition_count(&c, bf.pages());
            assert_eq!(parts, 8, "height {h}: want a power-of-two fan-out");
            let fair = bf.records().div_ceil(parts as u64);
            for (i, part) in grace_split(&c, &bf, parts).iter().enumerate() {
                let records = part.as_ref().map_or(0, |p| p.records());
                assert!(
                    records <= 2 * fair,
                    "height {h}: partition {i} holds {records} of {} records ({parts} parts)",
                    bf.records()
                );
            }
            c.pool.flush_all().unwrap();
            let before = c.pool.io_stats();
            let mut n = 0u64;
            hash_equijoin_with(&c, &bf, &pf, opts, opts, key, key, |_, _| n += 1).unwrap();
            let delta = c.pool.io_stats().since(&before);
            assert_eq!(n, keys.len() as u64);
            let total_pages = (bf.pages() + pf.pages()) as u64;
            assert!(
                delta.total() <= 3 * total_pages + 64,
                "height {h}: Grace I/O {} vs 3x{total_pages}",
                delta.total()
            );
        }
    }
}
