//! Execution context, statistics, and errors shared by all join operators.

use std::fmt;
use std::sync::Arc;

use pbitree_core::PBiTreeShape;
use pbitree_storage::{
    records_per_page, BufferPool, FixedRecord, HeapFile, HeapScan, HeapWriter, IoStats, PoolError,
    PoolStats, ScanFilter, ScanOptions, TempFile,
};

use crate::element::Element;
use crate::trace::Tracer;

/// Errors surfaced by join operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// Buffer pool exhaustion — an operator exceeded its frame budget.
    Pool(PoolError),
    /// The operator read data that violates a structural invariant — a
    /// record that fails validation, or partition bookkeeping contradicted
    /// by what a later pass observes. Surfaces like PR 2's device faults
    /// (an `Err` unwinding cleanly through the scheduler), not a panic.
    Corrupt {
        /// The page the corruption was detected on, when the decode layer
        /// can name one (bookkeeping inconsistencies cannot).
        pid: Option<pbitree_storage::PageId>,
        /// What the check found.
        reason: &'static str,
    },
    /// SHCJ was invoked on an ancestor set spanning several heights.
    NotSingleHeight {
        /// First height observed.
        expected: u32,
        /// The differing height encountered.
        found: u32,
    },
    /// Memory-Containment-Join was invoked although neither input fits in
    /// the memory budget.
    NeitherSideFits {
        /// Pages of the ancestor set.
        a_pages: u32,
        /// Pages of the descendant set.
        d_pages: u32,
        /// The budget in pages.
        budget: usize,
    },
}

impl JoinError {
    /// The page a device fault or corruption was detected on, when the
    /// error wraps an injected or real I/O failure (see
    /// `pbitree_storage::fault`) or a decode-layer validation failure.
    pub fn failing_page(&self) -> Option<pbitree_storage::PageId> {
        match self {
            JoinError::Pool(e) => e.failing_page(),
            JoinError::Corrupt { pid, .. } => *pid,
            _ => None,
        }
    }

    /// A bookkeeping-corruption error with no associated page.
    pub(crate) fn corrupt(reason: &'static str) -> Self {
        JoinError::Corrupt { pid: None, reason }
    }
}

impl From<PoolError> for JoinError {
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::Corrupt { pid, reason } => JoinError::Corrupt {
                pid: Some(pid),
                reason,
            },
            other => JoinError::Pool(other),
        }
    }
}

/// Streams every record `scan` admits through a fallible `f`, one decoded
/// page at a time ([`HeapScan::next_batch_each`]: the page stays pinned
/// while `f` runs, as it does under `next_record`). The first error `f`
/// returns skips the rest of its page and ends the scan.
pub(crate) fn try_for_each<R: FixedRecord>(
    scan: &mut HeapScan<'_, R>,
    mut f: impl FnMut(R) -> Result<(), JoinError>,
) -> Result<(), JoinError> {
    let mut failed = Ok(());
    while scan.next_batch_each(|r| {
        if failed.is_ok() {
            failed = f(r);
        }
    })? > 0
    {
        std::mem::replace(&mut failed, Ok(()))?;
    }
    Ok(())
}

/// A partition file: deleted when its owner — a partition map, a task, or
/// an error unwinding past either — drops it.
pub(crate) type Part<'a, R> = TempFile<'a, HeapFile<R>>;

/// The one scatter pass of the partitioning joins: streams every record
/// `opts` admits from `input` into the slots `route` names (none, one, or
/// a range), of `slots` slots. A slot's writer opens at its first record
/// and writes through [`JoinCtx::fan_out_write_opts`], so the slots share
/// the resident pages as the paper's partition buffers share `b`; an
/// empty slot costs no I/O and no file. Returns the slots in order,
/// `None` where no record landed. The first `Err` from `route` or a
/// writer ends the pass, and every file it wrote is deleted, as is each
/// returned file when dropped.
///
/// MHCJ routes by height, Rollup's histogram routes nowhere and its anchor
/// pass to the nearest anchor above, VPJ routes an ancestor to its
/// replica range and a descendant to its home slot, and the Grace hash
/// join routes by key bucket.
pub(crate) fn scatter<'a, R, S>(
    ctx: &'a JoinCtx,
    input: &HeapFile<R>,
    opts: ScanOptions,
    slots: usize,
    mut route: impl FnMut(&R) -> Result<S, JoinError>,
) -> Result<Vec<Option<Part<'a, R>>>, JoinError>
where
    R: FixedRecord,
    S: IntoIterator<Item = usize>,
{
    let mut writers: Vec<Option<HeapWriter<'_, R>>> = (0..slots).map(|_| None).collect();
    let wopts = ctx.fan_out_write_opts(slots);
    let mut scan = input.scan_with(&ctx.pool, opts);
    try_for_each(&mut scan, |r| {
        for i in route(&r)? {
            let w = match &mut writers[i] {
                Some(w) => w,
                w @ None => w.insert(HeapWriter::create_with(&ctx.pool, wopts)?),
            };
            w.push(r)?;
        }
        Ok(())
    })?;
    writers
        .into_iter()
        .map(|w| w.map(|w| Ok(ctx.temp(w.finish()?))).transpose())
        .collect()
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Pool(e) => write!(f, "buffer pool: {e}"),
            JoinError::Corrupt {
                pid: Some(pid),
                reason,
            } => write!(f, "corrupt data on page {pid}: {reason}"),
            JoinError::Corrupt { pid: None, reason } => {
                write!(f, "corrupt data: {reason}")
            }
            JoinError::NotSingleHeight { expected, found } => write!(
                f,
                "SHCJ requires a single-height ancestor set (saw heights {expected} and {found})"
            ),
            JoinError::NeitherSideFits {
                a_pages,
                d_pages,
                budget,
            } => write!(
                f,
                "memory join needs one side within {budget} pages (A={a_pages}, D={d_pages})"
            ),
        }
    }
}

impl std::error::Error for JoinError {}

/// One entry of a [`JoinStats`] phase breakdown: the aggregated cost of
/// every tiled span of that name within the run (see [`crate::trace`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`"partition"`, `"sort"`, `"build"`, `"probe"`,
    /// `"merge"`, ... and the synthetic remainder `"other"`).
    pub name: &'static str,
    /// Pairs emitted within the phase, where the operator reported them.
    pub pairs: u64,
    /// Rollup false hits counted within the phase.
    pub false_hits: u64,
    /// Wall-clock nanoseconds of the phase on the run's thread.
    pub cpu_ns: u64,
    /// Disk-transfer delta over the phase.
    pub io: IoStats,
    /// Pool hit/miss delta over the phase.
    pub pool: PoolStats,
}

/// What a join run cost and produced.
#[derive(Debug, Clone, Default)]
pub struct JoinStats {
    /// Result pairs emitted.
    pub pairs: u64,
    /// Rollup candidates rejected by the `F`-function check (Table 2(f)).
    pub false_hits: u64,
    /// Page-I/O delta over the whole operator, including any on-the-fly
    /// sorting or index building.
    pub io: IoStats,
    /// Measured wall-clock time of the operator, nanoseconds. Its tasks
    /// run inside this interval; the trace breaks it down per task (see
    /// [`crate::trace`]).
    pub cpu_ns: u64,
    /// Per-phase breakdown, filled on every run, traced or not; empty
    /// only when the operator marked no phase. The phases tile the run:
    /// their I/O and CPU deltas sum exactly to [`io`](JoinStats::io) and
    /// [`cpu_ns`](JoinStats::cpu_ns) (a synthetic `"other"` entry holds
    /// whatever the named phases did not cover).
    pub phases: Vec<PhaseStat>,
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `IoStats` prints the simulated disk clock (`sim=`); the measured
        // one follows it, never added to it.
        write!(
            f,
            "pairs={} false_hits={} {}, cpu={:.3}s",
            self.pairs,
            self.false_hits,
            self.io,
            self.cpu_ns as f64 / 1e9
        )
    }
}

/// The execution context: a buffer pool (whose capacity is the paper's `b`)
/// and the PBiTree shape all codes come from.
///
/// The pool is shared (`Arc`) so concurrent queries can run over one frame
/// arena, each in a [`worker`](JoinCtx::worker) view whose
/// [`budget`](JoinCtx::budget) is its admission grant: the sum of all
/// queries' in-flight pins stays within the global `b`.
pub struct JoinCtx {
    /// The buffer pool; its capacity is the global page budget.
    pub pool: Arc<BufferPool>,
    /// Shape (height `H`) of the PBiTree behind the element codes.
    pub shape: PBiTreeShape,
    /// Effective frame budget operators size against. Equals the pool
    /// capacity except in worker views and under
    /// [`JoinCtxBuilder::budget`].
    budget: usize,
    /// Span collector, when phase tracing is enabled. `None` (the
    /// default) records no span; every run still reports its phases.
    tracer: Option<Arc<Tracer>>,
    /// Declared I/O access options: the read-ahead / write-batch depth
    /// operators thread into every scan and writer they open. Defaults to
    /// sequential access at [`pbitree_storage::DEFAULT_IO_DEPTH`].
    io_opts: ScanOptions,
    /// Whether operators may push zone-map pruning filters into their
    /// scans (on by default). Pruning never changes results — the knob
    /// exists so ablations can measure its I/O savings.
    prune: bool,
    /// Region-range sharding declared for this context, if any. Plain
    /// operators ignore it; [`crate::sharded::ShardedStore::from_ctx`]
    /// reads it to size its per-shard pools, and the planner's sharded
    /// entry points require it.
    sharding: Option<crate::sharded::Sharding>,
}

impl JoinCtx {
    /// Creates a context over `pool` using its full capacity as the budget.
    pub fn new(pool: BufferPool, shape: PBiTreeShape) -> Self {
        let budget = pool.capacity();
        JoinCtx {
            pool: Arc::new(pool),
            shape,
            budget,
            tracer: None,
            io_opts: ScanOptions::default(),
            prune: true,
            sharding: None,
        }
    }

    /// Creates a context over an in-memory simulated disk with `b` buffer
    /// pages and the default cost model.
    pub fn in_memory(shape: PBiTreeShape, b: usize) -> Self {
        JoinCtx::new(
            BufferPool::new(pbitree_storage::Disk::in_memory(), b),
            shape,
        )
    }

    /// Like [`in_memory`](JoinCtx::in_memory) but with zero simulated I/O
    /// cost (tests that only care about counters).
    pub fn in_memory_free(shape: PBiTreeShape, b: usize) -> Self {
        JoinCtx::new(
            BufferPool::new(pbitree_storage::Disk::in_memory_free(), b),
            shape,
        )
    }

    /// Starts a [`JoinCtxBuilder`] over `pool` — the one construction path
    /// for a configured context:
    /// `JoinCtx::builder(pool, shape).budget(64).prune(false).build()`.
    pub fn builder(pool: BufferPool, shape: PBiTreeShape) -> JoinCtxBuilder {
        JoinCtxBuilder {
            ctx: JoinCtx::new(pool, shape),
        }
    }

    /// Attaches a span tracer; every operator run through this context
    /// (and its worker views) records phase spans into it.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Whether zone-map pruning is enabled.
    #[inline]
    pub fn prune(&self) -> bool {
        self.prune
    }

    /// Whether packed element pages ([`pbitree_storage::codec`]) are
    /// enabled for files this context's operators write — partition
    /// files, sort runs, rescan spools. The flag lives on the context's
    /// [`ScanOptions`], so it reaches writers through
    /// [`write_opts`](JoinCtx::write_opts) and into worker views;
    /// reading is always layout-agnostic (the page header selects the
    /// decode), so flipping it never changes results, only page counts.
    /// Off by default; set it per context with
    /// [`JoinCtxBuilder::compression`].
    #[inline]
    pub fn compression(&self) -> bool {
        self.io_opts.compress
    }

    /// The context's read options with `filter` pushed down — or without
    /// it when pruning is disabled. The single gate every operator routes
    /// its derived filters through.
    #[inline]
    pub fn pruned(&self, filter: ScanFilter) -> ScanOptions {
        if self.prune {
            self.read_opts().with_filter(filter)
        } else {
            self.read_opts()
        }
    }

    /// The envelope rule, the first call of every join operator. By
    /// Lemma 3 an ancestor's subtree is the code range `[start, end]`, so
    /// a pair's descendant lies inside the ancestor side's catalog
    /// envelope `(min start, max end)` and its ancestor overlaps the
    /// descendant side's. Returns `None` when no pair can exist, and the
    /// operator then reads nothing: when either side holds no record
    /// (whatever the pruning knob says), or when pruning is on and the two
    /// envelopes are disjoint. Otherwise each side's read options carry a
    /// `RegionOverlap` filter on the *other* side's envelope.
    ///
    /// Two consumers take less than the filters. The doc-ordered merge
    /// (Stack-Tree, ADB+) opens its descendant side at
    /// [`Clipped::d_seek`] instead of filtering it. MHCJ+Rollup keeps
    /// its ancestor side unclipped: its false hits are rolled candidates
    /// the clip would drop, and Table 2(f) counts them as the paper does.
    ///
    /// With pruning off nothing is clipped, and only an empty side
    /// short-circuits.
    pub(crate) fn clip(&self, a: &HeapFile<Element>, d: &HeapFile<Element>) -> Option<Clipped> {
        self.clip_envelopes((a.records(), a.bounds()), (d.records(), d.bounds()))
    }

    /// [`clip`](JoinCtx::clip) over extents already in hand — the memory
    /// join's folds over its member files. A `None` envelope means
    /// "unknown" (never disjoint, nothing pushed down).
    pub(crate) fn clip_envelopes(&self, a: Extent, d: Extent) -> Option<Clipped> {
        let ((a_records, a), (d_records, d)) = (a, d);
        if a_records == 0 || d_records == 0 || (self.prune && envelopes_disjoint(a, d)) {
            return None;
        }
        let overlap = |env: Option<(u64, u64)>| match env {
            Some((start, end)) => self.pruned(ScanFilter::RegionOverlap { start, end }),
            None => self.read_opts(),
        };
        Some(Clipped {
            a: overlap(d),
            d: overlap(a),
            d_seek: a.filter(|_| self.prune).map(|(lo, _)| (lo as u128) << 8),
            prune: self.prune,
        })
    }

    /// The context's declared I/O options, clamped to its frame budget:
    /// what operators pass to the scans they open. A worker view clamps
    /// against its own (smaller) budget, so a query's read-ahead never
    /// outgrows its grant.
    #[inline]
    pub fn read_opts(&self) -> ScanOptions {
        self.io_opts.clamped(self.budget)
    }

    /// Write-side options for a lone output writer — a sink, a spool, a
    /// sort run: the budget-clamped depth as a write-once pattern. The
    /// writers of one partition fan-out batch their share of the resident
    /// pages instead, with this depth as their floor. A write batch lives
    /// in writer-private memory ([`pbitree_storage::HeapWriter`]), not in
    /// pool frames (DESIGN.md "Substitutions", item 6, bounds that
    /// memory).
    #[inline]
    pub fn write_opts(&self) -> ScanOptions {
        self.read_opts().as_write()
    }

    /// Write options for each of the `slots` writers of one scatter pass:
    /// the writers split the resident pages (`b − 2`), as the paper's `k`
    /// partition buffers split `b`, so a spill moves the head once per
    /// `(b − 2) / slots` pages rather than once per
    /// [`write_opts`](JoinCtx::write_opts) batch. That depth stays the
    /// floor: a fan-out wider than `(b − 2) / depth` slots keeps it, and
    /// together the writers hold at most `max(b − 2, slots × depth)`
    /// pages. The batch depth decides only how many head movements a
    /// spill costs, never which pages are written.
    #[inline]
    pub(crate) fn fan_out_write_opts(&self, slots: usize) -> ScanOptions {
        let w = self.write_opts();
        w.with_depth(w.depth().max(self.resident_pages() / slots.max(1)))
    }

    /// The attached tracer, if phase tracing is enabled.
    #[inline]
    pub(crate) fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// A worker view of this context: same pool, shape, tracer and knobs,
    /// with the given frame budget (at least 3 pages — the floor any
    /// operator needs for an input scan plus reserve). The query service
    /// runs each admitted query in one sized to its grant.
    pub fn worker(&self, budget: usize) -> JoinCtx {
        JoinCtx {
            pool: Arc::clone(&self.pool),
            shape: self.shape,
            budget: budget.max(3),
            tracer: self.tracer.clone(),
            io_opts: self.io_opts,
            prune: self.prune,
            sharding: self.sharding,
        }
    }

    /// [`worker`](JoinCtx::worker); the thread count is ignored, since
    /// every operator runs its tasks on the calling thread.
    #[doc(hidden)]
    #[deprecated(note = "operators run their tasks on the calling thread; use `worker`")]
    pub fn worker_with_threads(&self, budget: usize, _threads: usize) -> JoinCtx {
        self.worker(budget)
    }

    /// A context over a *different* pool inheriting every knob of `self`
    /// except sharding: same shape, tracer, I/O options and pruning, with
    /// the new pool's full capacity as the budget. This is how
    /// [`crate::sharded::ShardedStore`] derives one per-shard context per
    /// independent pool/disk pair.
    pub fn for_pool(&self, pool: BufferPool) -> JoinCtx {
        let budget = pool.capacity();
        JoinCtx {
            pool: Arc::new(pool),
            shape: self.shape,
            budget,
            tracer: self.tracer.clone(),
            io_opts: self.io_opts,
            prune: self.prune,
            sharding: None,
        }
    }

    /// The declared region-range sharding, if any (see
    /// [`JoinCtxBuilder::sharding`]).
    #[inline]
    pub fn sharding(&self) -> Option<crate::sharded::Sharding> {
        self.sharding
    }

    /// The frame budget `b` operators size hash tables, sort fan-in and
    /// partition counts against. The pool capacity, except in worker views
    /// and under [`JoinCtxBuilder::budget`].
    #[inline]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The residency rule: how many pages of one side an operator may hold
    /// in memory, `b − 2` (at least 1), leaving a frame for the scan that
    /// streams past it and one for output. Algorithm 6's side choice,
    /// VPJ's fit test and partition fan-out, and the hash join's build
    /// limit all read it.
    #[inline]
    pub(crate) fn resident_pages(&self) -> usize {
        self.budget.saturating_sub(2).max(1)
    }

    /// How many [`Element`]s fit in `pages` buffer pages — the sizing rule
    /// for every in-memory hash table or sorted array an operator builds.
    #[inline]
    pub fn elements_per_pages(&self, pages: usize) -> usize {
        self.elements_per_pages_of::<Element>(pages)
    }

    /// [`elements_per_pages`](JoinCtx::elements_per_pages) for an arbitrary
    /// record type (rollup tuples are wider than plain elements).
    #[inline]
    pub fn elements_per_pages_of<R: FixedRecord>(&self, pages: usize) -> usize {
        pages * records_per_page::<R>()
    }

    /// Takes ownership of an operator-private file: it is deleted from
    /// the pool when the returned guard drops (see [`TempFile`]).
    pub(crate) fn temp<R: FixedRecord>(&self, f: HeapFile<R>) -> TempFile<'_, HeapFile<R>> {
        TempFile::new(&self.pool, f.file_id(), f)
    }
}

/// Whether two catalog region envelopes provably hold no (ancestor,
/// descendant) pair: containment implies overlap, so disjoint envelopes
/// prove the join empty. An unknown envelope (a file without bounds,
/// never the case for a non-empty element file) counts as overlapping.
pub(crate) fn envelopes_disjoint(a: Option<(u64, u64)>, d: Option<(u64, u64)>) -> bool {
    match (a, d) {
        (Some((alo, ahi)), Some((dlo, dhi))) => alo > dhi || ahi < dlo,
        _ => false,
    }
}

/// One side as the envelope rule sees it: its record count and its
/// catalog envelope (`None`: unknown).
pub(crate) type Extent = (u64, Option<(u64, u64)>);

/// Both sides' scan inputs under the envelope rule (see
/// [`JoinCtx::clip`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clipped {
    /// Ancestor-side read options, the descendant envelope pushed down.
    pub a: ScanOptions,
    /// Descendant-side read options, the ancestor envelope pushed down.
    pub d: ScanOptions,
    /// The least doc key a pair's descendant can have, `min start(A) <<
    /// 8`: where a doc-ordered descendant stream may open. `None` with
    /// pruning off or no ancestor bounds.
    pub d_seek: Option<u128>,
    prune: bool,
}

impl Clipped {
    /// The descendant options with `filter` conjoined, when pruning is
    /// on — how SHCJ and MHCJ+Rollup add their height window to the clip.
    pub(crate) fn d_and(&self, filter: ScanFilter) -> ScanOptions {
        if self.prune {
            self.d.with_filter(filter)
        } else {
            self.d
        }
    }
}

/// Fluent constructor for [`JoinCtx`], replacing the accreted
/// `with_*` chain-of-setters: every knob is set before the context is
/// handed to an operator, so a built context never mutates.
///
/// ```
/// # use pbitree_joins::{JoinCtx, JoinCtxBuilder};
/// # use pbitree_core::PBiTreeShape;
/// let shape = PBiTreeShape::new(18).unwrap();
/// let ctx = JoinCtxBuilder::in_memory(shape, 64)
///     .budget(32)
///     .compression(false)
///     .build();
/// assert_eq!(ctx.budget(), 32);
/// ```
pub struct JoinCtxBuilder {
    ctx: JoinCtx,
}

impl JoinCtxBuilder {
    /// Builder over an in-memory simulated disk with `b` buffer pages and
    /// the default cost model (see [`JoinCtx::in_memory`]).
    pub fn in_memory(shape: PBiTreeShape, b: usize) -> Self {
        JoinCtxBuilder {
            ctx: JoinCtx::in_memory(shape, b),
        }
    }

    /// Builder over a zero-I/O-cost in-memory disk (see
    /// [`JoinCtx::in_memory_free`]).
    pub fn in_memory_free(shape: PBiTreeShape, b: usize) -> Self {
        JoinCtxBuilder {
            ctx: JoinCtx::in_memory_free(shape, b),
        }
    }

    /// Sizing budget `b` independent of the pool capacity, clamped to
    /// `3..=capacity` — a pool larger than `b` models spare page cache.
    pub fn budget(mut self, budget: usize) -> Self {
        self.ctx.budget = budget.min(self.ctx.pool.capacity()).max(3);
        self
    }

    /// Attaches a span tracer; every operator run through the built
    /// context (and its worker views) records phase spans into it.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.ctx.tracer = Some(tracer);
        self
    }

    /// Declared I/O access options (read-ahead / write-batch depth).
    pub fn io(mut self, opts: ScanOptions) -> Self {
        self.ctx.io_opts = opts;
        self
    }

    /// Zone-map scan pruning (on by default); the ablation baseline turns
    /// it off to measure pruning's I/O savings.
    pub fn prune(mut self, prune: bool) -> Self {
        self.ctx.prune = prune;
        self
    }

    /// Packed element pages for every file the context's operators write
    /// (off by default).
    pub fn compression(mut self, compress: bool) -> Self {
        self.ctx.io_opts = self.ctx.io_opts.with_compress(compress);
        self
    }

    /// Declares region-range sharding for the context. Plain operators
    /// ignore the knob; [`crate::sharded::ShardedStore::from_ctx`] sizes
    /// its per-shard pools from it.
    pub fn sharding(mut self, sharding: crate::sharded::Sharding) -> Self {
        self.ctx.sharding = Some(sharding);
        self
    }

    /// Finalizes the context.
    pub fn build(self) -> JoinCtx {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_captures_io_and_pairs() {
        let ctx = JoinCtx::in_memory(PBiTreeShape::new(10).unwrap(), 4);
        let stats = ctx
            .measure_op("scan", || {
                let f = crate::element::element_file(&ctx.pool, (1u64..=2000).map(|c| (c, 0)))?;
                let n = f.scan(&ctx.pool).count() as u64;
                Ok((n, 0))
            })
            .unwrap();
        assert_eq!(stats.pairs, 2000);
        assert!(stats.io.total() > 0);
        assert!(stats.io.sim_secs() > 0.0);
        assert!(stats.cpu_ns > 0);
    }

    #[test]
    fn scatter_routes_each_record_to_its_slots() {
        let c = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8);
        // Heights 3, 2, 1, 1, in file order.
        let a = crate::element::element_file(&c.pool, [(8u64, 0), (4, 0), (6, 0), (2, 0)]).unwrap();
        let live = c.pool.live_files();
        let codes = |parts: &[Option<Part<'_, Element>>]| -> Vec<Option<Vec<u64>>> {
            let codes = |f: &HeapFile<Element>| {
                let elems = f.read_all(&c.pool).unwrap();
                elems.iter().map(|e| e.code.get()).collect()
            };
            parts.iter().map(|p| p.as_ref().map(|f| codes(f))).collect()
        };
        // One slot per record, in scan order; unrouted slots stay `None`.
        let by_height = scatter(&c, &a, c.read_opts(), 5, |e| {
            Ok(Some(e.code.height() as usize))
        });
        let by_height = by_height.unwrap();
        let want = [None, Some(vec![6, 2]), Some(vec![4]), Some(vec![8]), None];
        assert_eq!(codes(&by_height), want);
        // Replica ranges: height h goes to slots 1..h, so height 3 lands
        // twice and height 1 is dropped.
        let replicas = scatter(
            &c,
            &a,
            c.read_opts(),
            4,
            |e| Ok(1..e.code.height() as usize),
        );
        let replicas = replicas.unwrap();
        assert_eq!(
            codes(&replicas),
            [None, Some(vec![8, 4]), Some(vec![8]), None]
        );
        // No slot at all (Rollup's histogram): every record is seen, no
        // file is made and nothing is written.
        let (mut seen, writes) = (Vec::new(), c.pool.io_stats().writes());
        let none = scatter(&c, &a, c.read_opts(), 0, |e| {
            seen.push(e.code.height());
            Ok(None)
        });
        assert!(none.unwrap().is_empty());
        assert_eq!(
            (seen, c.pool.io_stats().writes()),
            (vec![3, 2, 1, 1], writes)
        );
        drop((by_height, replicas));
        assert_eq!(c.pool.live_files(), live, "partitions are freed on drop");
        // A route error ends the pass and deletes what it wrote.
        let failed = scatter(&c, &a, c.read_opts(), 1, |e| match e.code.get() {
            6 => Err(JoinError::corrupt("route")),
            _ => Ok(Some(0)),
        });
        assert_eq!(failed.err(), Some(JoinError::corrupt("route")));
        assert_eq!(c.pool.live_files(), live, "a failed pass frees its files");
    }

    #[test]
    fn scatter_writers_share_the_resident_pages() {
        // Costed disk, one head: the input scan and the slot writers
        // interleave, so every write batch moves the head once. At b = 64
        // the writers split 62 resident pages; the context's depth of 8
        // is the floor.
        let c = JoinCtx::in_memory(PBiTreeShape::new(10).unwrap(), 64);
        assert_eq!(c.write_opts().depth(), 8);
        let per_page = records_per_page::<u64>() as u64;
        // (slots, batch depth): 2 slots share 31 pages each; 16 slots
        // would get 3, below the floor, so they keep 8.
        for (slots, depth) in [(2usize, 31u64), (16, 8)] {
            // Round-robin over whole pages: every slot gets 40 full pages,
            // so the pass writes exactly the input's pages.
            let n = slots as u64 * 40 * per_page;
            let input = HeapFile::from_iter(&c.pool, 0..n).unwrap();
            c.pool.evict_all().unwrap();
            let before = c.pool.io_stats();
            let parts = scatter(&c, &input, c.read_opts(), slots, |k| {
                Ok(Some((k % slots as u64) as usize))
            })
            .unwrap();
            let io = c.pool.io_stats().since(&before);
            let pages: Vec<u64> = parts.iter().flatten().map(|p| p.pages() as u64).collect();
            assert_eq!(pages.len(), slots);
            assert_eq!(io.writes(), pages.iter().sum::<u64>());
            assert_eq!(io.writes(), input.pages() as u64, "{slots} slots");
            let batches: u64 = pages.iter().map(|p| p.div_ceil(depth)).sum();
            if depth > 8 {
                assert!(
                    io.rand_writes <= batches,
                    "{slots} slots: {} seeking writes for {batches} batches of {depth}",
                    io.rand_writes
                );
            } else {
                assert_eq!(io.rand_writes, batches, "{slots} slots at the floor");
            }
        }
    }

    #[test]
    fn builder_sets_every_knob() {
        let shape = PBiTreeShape::new(10).unwrap();
        let ctx = JoinCtxBuilder::in_memory_free(shape, 16)
            .budget(8)
            .prune(false)
            .compression(true)
            .io(ScanOptions::sequential(2))
            .build();
        assert_eq!(ctx.budget(), 8);
        assert!(!ctx.prune());
        // `.io(..)` replaces the options wholesale, like `with_io` did —
        // a compression choice made before it reverts to the fresh
        // options' setting (off).
        assert!(!ctx.compression());
        let ctx = JoinCtxBuilder::in_memory_free(shape, 16)
            .io(ScanOptions::sequential(2))
            .compression(true)
            .build();
        assert!(ctx.compression());
        // Budget clamps to the pool capacity, as `with_budget` did.
        let ctx = JoinCtxBuilder::in_memory_free(shape, 16).budget(99).build();
        assert_eq!(ctx.budget(), 16);
    }

    #[test]
    fn errors_display() {
        let e = JoinError::NotSingleHeight {
            expected: 3,
            found: 5,
        };
        assert!(e.to_string().contains("single-height"));
        let e = JoinError::NeitherSideFits {
            a_pages: 10,
            d_pages: 10,
            budget: 4,
        };
        assert!(e.to_string().contains("within 4 pages"));
    }
}
