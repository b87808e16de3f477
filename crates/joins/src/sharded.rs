//! Region-range sharding: independent buffer pools, one join task per
//! shard.
//!
//! [`ShardedStore`] range-partitions element heap files (and their zone
//! maps) by PBiTree region start across `N`
//! independent [`BufferPool`]s — each over its **own simulated disk with
//! its own cost-model clock** — so the simulated time of a sharded join
//! is the *max* over shards, not the sum: the model of `N` spindles (or
//! machines) working side by side. The shards execute one after another;
//! the clocks, not the schedule, model the spindles.
//!
//! The placement discipline mirrors VPJ's one-sided replication:
//!
//! * **descendants** are stored exactly once, at the shard owning their
//!   region start ([`ShardPlan::shard_of`]);
//! * **ancestors** are replicated to every shard their region overlaps
//!   ([`ShardPlan::overlapping`]).
//!
//! An ancestor's region covers each matching descendant's region, so the
//! ancestor is present wherever such a descendant is owned — and because
//! the descendant is owned by exactly one shard, every result pair
//! materializes in **exactly one** shard. The merge therefore needs no
//! dedup: a sharded join runs one task per shard in ascending shard
//! order, each in its shard's own context and emitting straight into the
//! caller's sink — the task loop MHCJ and VPJ use, with its
//! first-error-wins rule — and the merged pair *set* is byte-identical to
//! the single-pool plan. With one shard it *is* the single-pool plan.
//!
//! Sharding is declared with [`Sharding`] through
//! [`crate::JoinCtxBuilder::sharding`]; [`ShardedStore::from_ctx`] builds
//! the per-shard pools from that prototype context (inheriting its I/O
//! options, pruning, compression and tracer), and the planner's
//! [`crate::planner::plan_and_execute_sharded`] consults Table 1 per
//! shard.

use pbitree_storage::{
    BufferPool, Disk, HeapFile, MemBackend, PoolError, ShardPlan, StatsSnapshot, TempFile,
};

use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::planner::Algorithm;
use crate::sink::{MultiSink, PairSink};
use crate::stacktree::SortPolicy;
use crate::trace::for_each_task;

/// Declarative sharding config, threaded through
/// [`crate::JoinCtxBuilder::sharding`] to [`ShardedStore::from_ctx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharding {
    /// Number of shards (clamped to ≥ 1).
    pub shards: usize,
    /// Buffer frames per shard pool; `0` (the default) splits the
    /// prototype context's budget evenly, so the *total* frame count is
    /// held constant across shard counts — the fair scaling comparison.
    pub frames_per_shard: usize,
}

impl Sharding {
    /// Sharding into `shards` ranges with the budget split evenly.
    pub fn new(shards: usize) -> Self {
        Sharding {
            shards: shards.max(1),
            frames_per_shard: 0,
        }
    }

    /// Overrides the per-shard frame count (clamped to ≥ 3 at build).
    pub fn frames_per_shard(mut self, frames: usize) -> Self {
        self.frames_per_shard = frames;
        self
    }
}

/// Which side of a containment join a [`ShardedFile`] holds — the knob
/// selecting the placement discipline at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// Replicated to every shard the element's region overlaps.
    Ancestor,
    /// Stored once, at the shard owning the element's region start.
    Descendant,
}

/// One element set partitioned across the shards of a [`ShardedStore`].
pub struct ShardedFile {
    files: Vec<HeapFile<Element>>,
    role: ShardRole,
    /// Logical records (before replication).
    records: u64,
    /// Extra copies written by ancestor replication.
    replicated: u64,
}

impl ShardedFile {
    /// Shard `i`'s heap file.
    #[inline]
    pub fn file(&self, i: usize) -> &HeapFile<Element> {
        &self.files[i]
    }

    /// The placement role the file was loaded under.
    #[inline]
    pub fn role(&self) -> ShardRole {
        self.role
    }

    /// Logical records across all shards, not counting replicas.
    #[inline]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Extra copies written by boundary replication (always 0 for
    /// [`ShardRole::Descendant`] files).
    #[inline]
    pub fn replicated(&self) -> u64 {
        self.replicated
    }
}

/// What a sharded join cost and produced: per-shard [`JoinStats`] (each
/// measured against that shard's independent pool and disk clock) plus
/// the merged totals.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Per-shard operator stats, in shard order.
    pub per_shard: Vec<JoinStats>,
    /// The algorithm each shard ran, in shard order.
    pub algos: Vec<Algorithm>,
    /// Result pairs across all shards (each pair comes from exactly one).
    pub pairs: u64,
    /// Rollup false hits across all shards.
    pub false_hits: u64,
}

impl ShardedStats {
    /// Appends the next shard's outcome (shards report in ascending order).
    fn push(&mut self, algo: Algorithm, shard: JoinStats) {
        self.pairs += shard.pairs;
        self.false_hits += shard.false_hits;
        self.per_shard.push(shard);
        self.algos.push(algo);
    }

    /// Simulated disk time of the sharded run: the **max** over the
    /// shards' independent disk clocks — the completion time of `N`
    /// spindles working side by side.
    pub fn sim_disk_max_secs(&self) -> f64 {
        self.per_shard
            .iter()
            .map(|s| s.io.sim_secs())
            .fold(0.0, f64::max)
    }

    /// Total pages read across all shards.
    pub fn reads(&self) -> u64 {
        self.per_shard.iter().map(|s| s.io.reads()).sum()
    }

    /// Total pages written across all shards.
    pub fn writes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.io.writes()).sum()
    }
}

/// `N` independent buffer pools (one per region range) plus the per-shard
/// execution contexts derived from one prototype [`JoinCtx`].
pub struct ShardedStore {
    plan: ShardPlan,
    /// One context per shard: own pool over its own disk/clock, same
    /// shape / I/O options / pruning / tracer as the prototype.
    ctxs: Vec<JoinCtx>,
}

impl ShardedStore {
    /// Builds the store from a prototype context: the shard count and
    /// per-shard frames come from the context's [`Sharding`] declaration
    /// (one shard if none), each shard gets a fresh in-memory simulated
    /// disk charging the prototype pool's cost model, and every other
    /// knob is inherited via [`JoinCtx::for_pool`].
    pub fn from_ctx(proto: &JoinCtx) -> Self {
        let sharding = proto.sharding().unwrap_or_else(|| Sharding::new(1));
        let cost = proto.pool.cost_model();
        let disks = (0..sharding.shards)
            .map(|_| Disk::new(Box::new(MemBackend::new()), cost))
            .collect();
        Self::with_disks(proto, disks)
    }

    /// [`from_ctx`](ShardedStore::from_ctx) over caller-supplied disks —
    /// one shard per disk (the fault harness wires a `FaultBackend` into
    /// a single shard this way). Per-shard frames follow the prototype's
    /// [`Sharding::frames_per_shard`] (its budget split evenly when 0).
    pub fn with_disks(proto: &JoinCtx, disks: Vec<Disk>) -> Self {
        assert!(!disks.is_empty(), "a sharded store needs at least one disk");
        let shards = disks.len();
        let frames = match proto.sharding().map(|s| s.frames_per_shard) {
            Some(f) if f > 0 => f,
            _ => proto.budget() / shards,
        }
        .max(3);
        let plan = ShardPlan::even(shards, proto.shape.node_count());
        let ctxs = disks
            .into_iter()
            .map(|d| proto.for_pool(BufferPool::new(d, frames)))
            .collect();
        ShardedStore { plan, ctxs }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.ctxs.len()
    }

    /// The region-range partitioning.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Shard `i`'s execution context (its pool is the shard's pool).
    #[inline]
    pub fn ctx(&self, i: usize) -> &JoinCtx {
        &self.ctxs[i]
    }

    /// Per-shard pool/disk counter snapshots, in shard order — what the
    /// server's `STATS` report and the bench panel read.
    pub fn snapshots(&self) -> Vec<StatsSnapshot> {
        self.ctxs.iter().map(|c| c.pool.stats_snapshot()).collect()
    }

    /// Evicts every shard pool (the cold-run reset between measured runs).
    pub fn evict_all(&self) -> Result<(), PoolError> {
        for c in &self.ctxs {
            c.pool.evict_all()?;
        }
        Ok(())
    }

    /// Total pinned frames across all shard pools (0 when quiescent —
    /// the no-pin-leak invariant the fault sweep asserts per shard).
    pub fn pinned_frames(&self) -> usize {
        self.ctxs.iter().map(|c| c.pool.pinned_frames()).sum()
    }

    /// Partitions `items` across the shards under `role`'s placement
    /// discipline and writes one heap file per shard (each through its
    /// own pool, honoring the contexts' compression setting; zone maps
    /// register per shard as a side effect). Input order is preserved
    /// within each shard, so a doc-ordered input yields doc-ordered
    /// shard files — the shared scan's precondition.
    pub fn load<I>(&self, role: ShardRole, items: I) -> Result<ShardedFile, JoinError>
    where
        I: IntoIterator<Item = Element>,
    {
        let n = self.shards();
        let mut buckets: Vec<Vec<Element>> = (0..n).map(|_| Vec::new()).collect();
        let mut records = 0u64;
        let mut replicated = 0u64;
        for e in items {
            records += 1;
            match role {
                ShardRole::Descendant => buckets[self.plan.shard_of(e.start())].push(e),
                ShardRole::Ancestor => {
                    let (lo, hi) = self.plan.overlapping(e.start(), e.end());
                    replicated += (hi - lo) as u64;
                    for b in &mut buckets[lo..=hi] {
                        b.push(e);
                    }
                }
            }
        }
        // Guarded until every shard's file exists: a later shard's write
        // error deletes the earlier shards' files.
        let mut files = Vec::with_capacity(n);
        for (c, bucket) in self.ctxs.iter().zip(buckets) {
            files.push(c.temp(HeapFile::from_iter_with(&c.pool, c.write_opts(), bucket)?));
        }
        Ok(ShardedFile {
            files: files.into_iter().map(TempFile::keep).collect(),
            role,
            records,
            replicated,
        })
    }

    /// Runs one containment join across the shards: shard `i` executes
    /// `algo` over its slice of `a` and `d` through its own pool, in
    /// ascending shard order, emitting into `sink`; the first failing
    /// shard's error is returned and later shards do not run. The merged
    /// pair set is identical to running `algo` unsharded.
    pub fn join(
        &self,
        algo: Algorithm,
        a: &ShardedFile,
        d: &ShardedFile,
        sink: &mut dyn PairSink,
    ) -> Result<ShardedStats, JoinError> {
        self.join_with(a, d, sink, |_, _, _, _| (algo, SortPolicy::SortOnTheFly))
    }

    /// [`join`](ShardedStore::join) with a per-shard algorithm choice —
    /// the planner's sharded entry points pick per shard (shard inputs
    /// may differ in size enough to flip a Table-1 row; the result set
    /// is the same under any choice).
    pub fn join_with<C>(
        &self,
        a: &ShardedFile,
        d: &ShardedFile,
        sink: &mut dyn PairSink,
        choose: C,
    ) -> Result<ShardedStats, JoinError>
    where
        C: Fn(&JoinCtx, usize, &HeapFile<Element>, &HeapFile<Element>) -> (Algorithm, SortPolicy),
    {
        assert_eq!(a.files.len(), self.shards(), "file sharded elsewhere");
        assert_eq!(d.files.len(), self.shards(), "file sharded elsewhere");
        let mut stats = ShardedStats::default();
        for_each_task(self.ctxs.iter().zip(0..), |ctx, i| {
            let (af, df) = (&a.files[i], &d.files[i]);
            let (algo, policy) = choose(ctx, i, af, df);
            let shard = crate::planner::execute(ctx, algo, af, df, policy, sink)?;
            let pairs = shard.pairs;
            stats.push(algo, shard);
            Ok(pairs)
        })?;
        Ok(stats)
    }

    /// Runs a [`crate::QueryBatch`]-style shared multi-query scan across
    /// the shards: each shard builds a batch from the queries' ancestors
    /// clipped to its region range and makes **one** pass over its shard
    /// of the (doc-ordered, descendant-role) file `d`, emitting into
    /// `sinks` in ascending shard order. Every query's pair set is
    /// identical to the unsharded batch (and to its serial run).
    pub fn shared_scan(
        &self,
        queries: &[Vec<Element>],
        d: &ShardedFile,
        sinks: &mut MultiSink<'_>,
    ) -> Result<ShardedStats, JoinError> {
        assert_eq!(sinks.len(), queries.len(), "one sink per batched query");
        assert_eq!(d.files.len(), self.shards(), "file sharded elsewhere");
        let mut stats = ShardedStats::default();
        for_each_task(self.ctxs.iter().zip(0..), |ctx, i| {
            let (lo, hi) = self.plan.range(i);
            let mut qb = crate::QueryBatch::new();
            for q in queries {
                // Clip each ancestor set to the shard's envelope — the
                // in-memory equivalent of ancestor replication.
                qb.add(
                    q.iter()
                        .filter(|e| e.end() >= lo && e.start() <= hi)
                        .copied()
                        .collect(),
                );
            }
            let shard = qb.execute(ctx, &d.files[i], sinks)?;
            let pairs = shard.pairs;
            stats.push(Algorithm::SharedScan, shard);
            Ok(pairs)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{execute, plan_and_execute_sharded, InputState};
    use crate::sink::CollectSink;
    use crate::JoinCtxBuilder;
    use pbitree_core::PBiTreeShape;

    const H: u32 = 18;

    fn shape() -> PBiTreeShape {
        PBiTreeShape::new(H).unwrap()
    }

    /// Uniform mixed-height codes over the full span.
    fn uniform_codes(n: usize, heights: &[u32], seed: u64) -> Vec<Element> {
        let mut x = seed | 1;
        let mut out = std::collections::BTreeSet::new();
        while out.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let h = heights[(x % heights.len() as u64) as usize];
            let positions = 1u64 << (H - h - 1);
            let alpha = (x >> 8) % positions;
            out.insert((1 + 2 * alpha) << h);
        }
        out.into_iter().map(|c| Element::new(c, 0)).collect()
    }

    fn doc_sorted(mut v: Vec<Element>) -> Vec<Element> {
        v.sort_by_key(|e| e.doc_key());
        v
    }

    fn proto(shards: usize, b: usize) -> JoinCtx {
        JoinCtxBuilder::in_memory_free(shape(), b)
            .sharding(Sharding::new(shards))
            .build()
    }

    /// The reference run: the algorithm unsharded on one 64-frame pool.
    /// Returns the emitted pair sequence and the pool's I/O counters.
    fn unsharded(
        algo: Algorithm,
        ancs: &[Element],
        descs: &[Element],
    ) -> (CollectSink, pbitree_storage::IoStats) {
        let ctx = JoinCtxBuilder::in_memory_free(shape(), 64).build();
        let load = |items: &[Element]| {
            HeapFile::from_iter_with(&ctx.pool, ctx.write_opts(), items.iter().copied()).unwrap()
        };
        let (a, d) = (load(ancs), load(descs));
        let mut sink = CollectSink::default();
        execute(&ctx, algo, &a, &d, SortPolicy::SortOnTheFly, &mut sink).unwrap();
        (sink, ctx.pool.io_stats())
    }

    #[test]
    fn sharded_joins_match_single_pool_at_every_shard_count() {
        let ancs = uniform_codes(300, &[4, 6, 9], 0xA11CE);
        let descs = doc_sorted(uniform_codes(3000, &[0, 1, 2], 0xD0C5));
        for algo in [Algorithm::MhcjRollup, Algorithm::Vpj, Algorithm::StackTree] {
            let (reference, reference_io) = unsharded(algo, &ancs, &descs);
            let expect = reference.canonical();
            assert!(!expect.is_empty(), "workload must produce matches");
            for shards in [1usize, 2, 4, 8] {
                let store = ShardedStore::from_ctx(&proto(shards, 64));
                let a = store
                    .load(ShardRole::Ancestor, ancs.iter().copied())
                    .unwrap();
                let d = store
                    .load(ShardRole::Descendant, descs.iter().copied())
                    .unwrap();
                let mut sink = CollectSink::default();
                let stats = store.join(algo, &a, &d, &mut sink).unwrap();
                assert_eq!(
                    sink.canonical(),
                    expect,
                    "{algo} diverged at {shards} shards"
                );
                assert_eq!(stats.pairs as usize, expect.len());
                assert_eq!(stats.per_shard.len(), shards);
                assert_eq!(store.pinned_frames(), 0);
                if shards == 1 {
                    // One shard *is* the single-pool plan: same emission
                    // order, same page I/O.
                    assert_eq!(sink.pairs, reference.pairs, "{algo}: 1-shard pair order");
                    assert_eq!(
                        store.ctx(0).pool.io_stats(),
                        reference_io,
                        "{algo}: 1-shard I/O counters"
                    );
                }
            }
        }
    }

    /// The `N`-spindle model on the default cost model: with the total
    /// frame count held constant, 4 shards finish the join's disk work —
    /// the max over the shards' independent clocks — in at most half the
    /// single-shard time, packed pages off and on.
    #[test]
    fn four_shards_at_most_halve_simulated_disk_time() {
        // Every shard pays two first-page seeks (20 ms); the descendant
        // scan must dwarf that even packed, hence H = 20 and 400k leaves
        // spread evenly over the span, under 2000 ancestors at heights 3-7.
        let shape = PBiTreeShape::new(20).unwrap();
        let (leaves, n) = (1u64 << 19, 400_000u64);
        let descs: Vec<Element> = (0..n)
            .map(|i| Element::new(2 * (i * leaves / n) + 1, 1))
            .collect();
        let ancs: Vec<Element> = (3..8u32)
            .flat_map(|h| {
                let slots = 1u64 << (19 - h);
                (0..400).map(move |j| Element::new((2 * (j * slots / 400) + 1) << h, 0))
            })
            .collect();
        for compress in [false, true] {
            let load = |shards| {
                let store = ShardedStore::from_ctx(
                    &JoinCtxBuilder::in_memory(shape, 256)
                        .compression(compress)
                        .sharding(Sharding::new(shards))
                        .build(),
                );
                let a = store.load(ShardRole::Ancestor, ancs.iter().copied());
                let d = store.load(ShardRole::Descendant, descs.iter().copied());
                (store, a.unwrap(), d.unwrap())
            };
            let (one, four) = (load(1), load(4));
            for algo in [Algorithm::MhcjRollup, Algorithm::Vpj] {
                let sim = |(store, a, d): &(ShardedStore, ShardedFile, ShardedFile)| {
                    store.evict_all().unwrap();
                    let mut sink = crate::sink::CountSink::default();
                    let stats = store.join(algo, a, d, &mut sink).unwrap();
                    stats.sim_disk_max_secs()
                };
                let (one, four) = (sim(&one), sim(&four));
                assert!(
                    four <= 0.5 * one,
                    "{algo} compress={compress}: 4-shard sim {four:.4}s > 0.5x the 1-shard {one:.4}s"
                );
            }
        }
    }

    #[test]
    fn descendants_are_stored_once_ancestors_replicate_on_overlap() {
        let store = ShardedStore::from_ctx(&proto(4, 64));
        let descs = doc_sorted(uniform_codes(2000, &[0, 1], 0xBEE));
        let d = store
            .load(ShardRole::Descendant, descs.iter().copied())
            .unwrap();
        let stored: u64 = (0..4).map(|i| d.file(i).records()).sum();
        assert_eq!(stored, d.records());
        assert_eq!(d.replicated(), 0);
        for (i, e) in descs.iter().map(|e| (store.plan().shard_of(e.start()), e)) {
            let (lo, hi) = store.plan().range(i);
            assert!(lo <= e.start() && e.start() <= hi);
        }
        // The root's region overlaps every shard: 4 copies, 3 replicas.
        let a = store
            .load(ShardRole::Ancestor, [Element::new(shape().root().get(), 0)])
            .unwrap();
        assert_eq!((0..4).map(|i| a.file(i).records()).sum::<u64>(), 4);
        assert_eq!(a.replicated(), 3);
    }

    #[test]
    fn planner_plans_per_shard_and_matches() {
        let ancs = uniform_codes(200, &[5, 7], 0xFACE);
        let descs = doc_sorted(uniform_codes(1500, &[0, 1], 0xF00D));
        let expect = unsharded(Algorithm::MhcjRollup, &ancs, &descs)
            .0
            .canonical();
        let store = ShardedStore::from_ctx(&proto(4, 64));
        let a = store
            .load(ShardRole::Ancestor, ancs.iter().copied())
            .unwrap();
        let d = store
            .load(ShardRole::Descendant, descs.iter().copied())
            .unwrap();
        let mut sink = CollectSink::default();
        let stats = plan_and_execute_sharded(
            &store,
            InputState::raw(),
            InputState::raw(),
            &a,
            &d,
            false,
            &mut sink,
        )
        .unwrap();
        assert_eq!(stats.algos.len(), 4);
        assert_eq!(sink.canonical(), expect);
    }

    #[test]
    fn shared_scan_matches_unsharded_batch_per_query() {
        let descs = doc_sorted(uniform_codes(2500, &[0, 1, 2], 0xD00D));
        let queries: Vec<Vec<Element>> = (0..5u64)
            .map(|q| doc_sorted(uniform_codes(80, &[4, 7], 0xAB + q)))
            .collect();
        // Reference: the unsharded QueryBatch.
        let ctx = JoinCtxBuilder::in_memory_free(shape(), 64).build();
        let d1 = HeapFile::from_iter(&ctx.pool, descs.iter().copied()).unwrap();
        let mut qb = crate::QueryBatch::new();
        for q in &queries {
            qb.add(q.clone());
        }
        let mut expect: Vec<CollectSink> =
            (0..queries.len()).map(|_| CollectSink::default()).collect();
        {
            let mut ms = MultiSink::new();
            for s in &mut expect {
                ms.push(s);
            }
            qb.execute(&ctx, &d1, &mut ms).unwrap();
        }
        for shards in [2usize, 4] {
            let store = ShardedStore::from_ctx(&proto(shards, 64));
            let d = store
                .load(ShardRole::Descendant, descs.iter().copied())
                .unwrap();
            let mut got: Vec<CollectSink> =
                (0..queries.len()).map(|_| CollectSink::default()).collect();
            let stats = {
                let mut ms = MultiSink::new();
                for s in &mut got {
                    ms.push(s);
                }
                store.shared_scan(&queries, &d, &mut ms).unwrap()
            };
            assert!(stats.pairs > 0);
            for (q, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
                assert_eq!(
                    g.canonical(),
                    e.canonical(),
                    "query {q} diverged at {shards} shards"
                );
            }
        }
    }
}
