//! Fault-sweep property tests: every I/O index of a join workload is a
//! clean failure point.
//!
//! For each join algorithm the harness first measures a fault-free run of
//! a fixed workload (counting read and write attempts through a
//! [`FaultHandle`]), then re-runs the workload once per I/O index with a
//! non-transient fault armed exactly there. Every faulted run must:
//!
//! * return `Err` (never panic or abort) whenever a fault was actually
//!   injected, with the failing [`PageId`] attached,
//! * leave the pool with **zero pinned frames** (error unwinds release
//!   every guard) and **no files but the two inputs** (operator-private
//!   partitions, runs and indexes are deleted on every exit), and
//! * leave the fault-free I/O statistics untouched — a subsequent
//!   fault-free rerun on a fresh pool reproduces the baseline counters
//!   and the baseline result exactly.
//!
//! Seeds: the workload is fixed, but the sweep also runs a probabilistic
//! fault plan whose seed comes from `FAULT_SWEEP_SEED` (default 42); CI
//! runs a pinned seed plus one randomized seed, printing it on failure.

use pbitree_containment::joins::element::{element_file, element_file_with};
use pbitree_containment::joins::sink::CollectSink;
use pbitree_containment::joins::stacktree::{stack_tree_desc, SortPolicy};
use pbitree_containment::joins::{mhcj, rollup, shcj, vpj, JoinCtx, JoinError, JoinStats};
use pbitree_containment::storage::{
    BufferPool, CostModel, Disk, FaultBackend, FaultConfig, FaultHandle, HeapFile, IoStats,
    MemBackend, ScanOptions,
};
use pbitree_core::PBiTreeShape;
use pbitree_joins::element::Element;
use pbitree_joins::sink::PairSink;

const H: u32 = 16;
const BUDGET: usize = 8;

type JoinFn = fn(
    &JoinCtx,
    &HeapFile<Element>,
    &HeapFile<Element>,
    &mut dyn PairSink,
) -> Result<JoinStats, JoinError>;

/// The algorithms under sweep. SHCJ needs a single-height ancestor set, so
/// its workload differs (see `ancestors`).
const ALGORITHMS: &[(&str, JoinFn)] = &[
    ("shcj", |c, a, d, s| shcj::shcj(c, a, d, s)),
    ("mhcj", |c, a, d, s| mhcj::mhcj(c, a, d, s)),
    ("vpj", |c, a, d, s| vpj::vpj(c, a, d, s).map(|(st, _)| st)),
    ("rollup", |c, a, d, s| {
        rollup::mhcj_rollup(c, a, d, rollup::RollupOptions::default(), s)
    }),
    ("stacktree", |c, a, d, s| {
        stack_tree_desc(c, a, d, SortPolicy::SortOnTheFly, s)
    }),
];

/// Read-ahead disabled: every disk read the join issues is one it needs,
/// so an injected fault is always observed and must surface as `Err`.
fn strict_io() -> ScanOptions {
    ScanOptions::sequential(1)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Deterministic workload codes: `single_height` pins every ancestor to
/// one height (SHCJ's contract); otherwise heights mix freely.
fn ancestors(single_height: bool) -> Vec<u64> {
    let mut x = 0xA5A5_5A5Au64;
    let mut out = std::collections::BTreeSet::new();
    if single_height {
        // Ancestors all at height 4: clear the low 5 bits of a random
        // code and set bit 4 (the paper's F(n, 4)), so height() == 4.
        for _ in 0..4000 {
            let leaf = 1 + xorshift(&mut x) % ((1u64 << H) - 1);
            out.insert(((leaf >> 5) << 5) | (1 << 4));
        }
    } else {
        for _ in 0..4000 {
            out.insert(1 + xorshift(&mut x) % ((1 << H) - 1));
        }
    }
    out.into_iter().collect()
}

fn descendants() -> Vec<u64> {
    let mut x = 0x1234_5678u64;
    let mut out = std::collections::BTreeSet::new();
    for _ in 0..8000 {
        out.insert(1 + xorshift(&mut x) % ((1 << H) - 1));
    }
    out.into_iter().collect()
}

/// Builds a fresh fault-instrumented context and the workload files. The
/// fault plan starts disarmed and the handle's counters are reset after
/// setup, so armed indices address join-time I/O only.
fn build(
    name: &str,
    io: ScanOptions,
) -> (JoinCtx, HeapFile<Element>, HeapFile<Element>, FaultHandle) {
    let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
    let handle = backend.handle();
    let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), BUDGET);
    let ctx = JoinCtx::builder(pool, PBiTreeShape::new(H).unwrap())
        .io(io)
        .build();
    let a = element_file(
        &ctx.pool,
        ancestors(name == "shcj").into_iter().map(|c| (c, 0)),
    )
    .unwrap();
    let d = element_file(&ctx.pool, descendants().into_iter().map(|c| (c, 1))).unwrap();
    // Cold start: join-time reads hit the (fault-instrumented) disk.
    ctx.pool.evict_all().unwrap();
    handle.reset();
    (ctx, a, d, handle)
}

/// What one run under a fault plan yields: the join result, the
/// canonicalized pairs (when Ok), the I/O stats and the injected-fault
/// count.
type RunOutcome = (Result<JoinStats, JoinError>, Vec<(u64, u64)>, IoStats, u64);

/// One run under `cfg`.
fn run_once(name: &str, join: JoinFn, cfg: FaultConfig, io: ScanOptions) -> RunOutcome {
    let (ctx, a, d, handle) = build(name, io);
    handle.set_config(cfg);
    let mut sink = CollectSink::default();
    let res = join(&ctx, &a, &d, &mut sink);
    handle.set_config(FaultConfig::none());
    assert_clean(&ctx, &a, &d, &format!("{name} after {res:?}"));
    (res, sink.canonical(), ctx.pool.io_stats(), handle.faults())
}

/// What every run — faulted or not — must leave behind: no pinned frame
/// (error unwinds release every guard) and no file but the two inputs
/// (operator-private files are deleted on every exit).
fn assert_clean(ctx: &JoinCtx, a: &HeapFile<Element>, d: &HeapFile<Element>, what: &str) {
    assert_eq!(ctx.pool.pinned_frames(), 0, "{what}: leaked pins");
    assert_eq!(
        ctx.pool.live_files(),
        [a.file_id(), d.file_id()],
        "{what}: leaked temp files"
    );
}

/// Fault-free baseline: result pairs, I/O stats, and attempt counts.
fn baseline(name: &str, join: JoinFn, io: ScanOptions) -> (Vec<(u64, u64)>, IoStats, u64, u64) {
    let (ctx, a, d, handle) = build(name, io);
    let mut sink = CollectSink::default();
    join(&ctx, &a, &d, &mut sink).unwrap_or_else(|e| panic!("{name} baseline failed: {e}"));
    assert_eq!(ctx.pool.pinned_frames(), 0);
    (
        sink.canonical(),
        ctx.pool.io_stats(),
        handle.reads(),
        handle.writes(),
    )
}

#[test]
fn fault_sweep_sequential() {
    for &(name, join) in ALGORITHMS {
        let (pairs0, io0, reads, writes) = baseline(name, join, strict_io());
        assert!(reads > 0, "{name}: workload did no reads");
        assert!(
            !pairs0.is_empty(),
            "{name}: workload produced no pairs — sweep would be vacuous"
        );

        for idx in 0..reads {
            let (res, _, _, faults) = run_once(name, join, FaultConfig::read_at(idx), strict_io());
            check_fault_outcome(name, "read", idx, res, faults);
        }
        for idx in 0..writes {
            let (res, _, _, faults) = run_once(name, join, FaultConfig::write_at(idx), strict_io());
            check_fault_outcome(name, "write", idx, res, faults);
        }

        // Exactly-once stats: a fresh fault-free run reproduces the
        // baseline counters and pairs bit for bit.
        let (res, pairs, io, faults) = run_once(name, join, FaultConfig::none(), strict_io());
        res.unwrap_or_else(|e| panic!("{name}: fault-free rerun failed: {e}"));
        assert_eq!(faults, 0);
        assert_eq!(pairs, pairs0, "{name}: fault-free result drifted");
        assert_eq!(io, io0, "{name}: fault-free I/O stats drifted");
    }
}

fn check_fault_outcome(
    name: &str,
    kind: &str,
    idx: u64,
    res: Result<JoinStats, JoinError>,
    faults: u64,
) {
    assert!(faults > 0, "{name}: {kind} fault at {idx} never fired");
    let err = match res {
        Err(e) => e,
        Ok(s) => panic!("{name}: {kind} fault at {idx} was swallowed ({s})"),
    };
    assert!(
        err.failing_page().is_some(),
        "{name}: {kind} fault at {idx} lost its page: {err}"
    );
}

/// Probabilistic plan at the CI-provided seed: whatever indices fault, the
/// run must fail cleanly or succeed cleanly — never panic, never leak.
#[test]
fn fault_sweep_probabilistic_seed() {
    let seed: u64 = std::env::var("FAULT_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("fault_sweep_probabilistic_seed: FAULT_SWEEP_SEED={seed}");
    for &(name, join) in ALGORITHMS {
        let cfg = FaultConfig {
            seed,
            read_fault_prob: 0.05,
            write_fault_prob: 0.05,
            ..FaultConfig::default()
        };
        let (res, _, _, faults) = run_once(name, join, cfg, strict_io());
        if faults > 0 {
            let err = res.expect_err("faults injected but run succeeded");
            assert!(err.failing_page().is_some(), "{name}: {err}");
        } else {
            res.unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
        }
    }
}

/// Transient faults under the disk's retry budget are invisible: identical
/// pairs and identical success, with only the attempt counters showing the
/// recovered blips.
#[test]
fn transient_faults_recover_invisibly() {
    for &(name, join) in ALGORITHMS {
        let (pairs0, io0, reads, _) = baseline(name, join, strict_io());
        // A transient window of 2 at an arbitrary mid-workload read index:
        // the disk retries past it ("recover after 2").
        let idx = reads / 2;
        let cfg = FaultConfig::read_at(idx).transient().lasting(2);
        let (res, pairs, io, faults) = run_once(name, join, cfg, strict_io());
        res.unwrap_or_else(|e| panic!("{name}: transient fault surfaced: {e}"));
        assert_eq!(faults, 2, "{name}: expected both window attempts to fault");
        assert_eq!(pairs, pairs0, "{name}: transient recovery changed result");
        assert_eq!(io, io0, "{name}: retries must not be charged to stats");
    }
}

/// Every-index sweep with read-ahead and write batching *enabled*. The
/// prefetcher speculatively reads pages the join may never consume, so a
/// fault can land on a speculative read and be swallowed by design — such
/// a run must then succeed with the exact baseline result. Runs that do
/// fail must still carry the failing page, and no run may panic or leak a
/// pinned frame (asserted inside `run_once`).
#[test]
fn fault_sweep_with_readahead() {
    let io = ScanOptions::default();
    for &(name, join) in ALGORITHMS {
        let (pairs0, io0, reads, writes) = baseline(name, join, io);
        assert!(reads > 0, "{name}: readahead workload did no reads");
        // SHCJ writes nothing but its Grace spills. Multi-page batches
        // (depth 4 at this budget) mean some write index below lands
        // inside a spill batch, tearing it after a written prefix.
        if name == "shcj" {
            assert!(
                io0.seq_writes > 0,
                "shcj: Grace spills wrote no multi-page batch ({io0:?})"
            );
        }
        for idx in 0..reads {
            let (res, pairs, _, _) = run_once(name, join, FaultConfig::read_at(idx), io);
            check_readahead_outcome(name, "read", idx, res, pairs, &pairs0);
        }
        for idx in 0..writes {
            let (res, pairs, _, _) = run_once(name, join, FaultConfig::write_at(idx), io);
            check_readahead_outcome(name, "write", idx, res, pairs, &pairs0);
        }
    }
}

fn check_readahead_outcome(
    name: &str,
    kind: &str,
    idx: u64,
    res: Result<JoinStats, JoinError>,
    pairs: Vec<(u64, u64)>,
    pairs0: &[(u64, u64)],
) {
    match res {
        Err(e) => assert!(
            e.failing_page().is_some(),
            "{name}: {kind} fault at {idx} lost its page: {e}"
        ),
        // The fault was absorbed by a speculative transfer: acceptable
        // only if the answer is byte-identical to the fault-free run.
        Ok(_) => assert_eq!(
            pairs, pairs0,
            "{name}: {kind} fault at {idx} swallowed AND changed the result"
        ),
    }
}

/// Ancestors confined to the bottom quarter of the code space: their
/// region envelope ends well below the top half, so descendant pages past
/// it are provably irrelevant and zone-map pushdown skips them unread.
fn skewed_ancestors() -> Vec<u64> {
    let mut x = 0xBEEF_CAFEu64;
    let mut out = std::collections::BTreeSet::new();
    for _ in 0..4000 {
        out.insert(1 + xorshift(&mut x) % ((1u64 << (H - 2)) - 1));
    }
    out.into_iter().collect()
}

/// [`build`] for the pruning satellite: skewed ancestors and an explicit
/// pruning switch on the context.
fn build_skewed(prune: bool) -> (JoinCtx, HeapFile<Element>, HeapFile<Element>, FaultHandle) {
    let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
    let handle = backend.handle();
    let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), BUDGET);
    let ctx = JoinCtx::builder(pool, PBiTreeShape::new(H).unwrap())
        .io(strict_io())
        .prune(prune)
        .build();
    let a = element_file(&ctx.pool, skewed_ancestors().into_iter().map(|c| (c, 0))).unwrap();
    let d = element_file(&ctx.pool, descendants().into_iter().map(|c| (c, 1))).unwrap();
    ctx.pool.evict_all().unwrap();
    handle.reset();
    (ctx, a, d, handle)
}

fn run_skewed(join: JoinFn, prune: bool, cfg: FaultConfig) -> RunOutcome {
    let (ctx, a, d, handle) = build_skewed(prune);
    handle.set_config(cfg);
    let mut sink = CollectSink::default();
    let res = join(&ctx, &a, &d, &mut sink);
    handle.set_config(FaultConfig::none());
    assert_clean(&ctx, &a, &d, "pruned run");
    (res, sink.canonical(), ctx.pool.io_stats(), handle.reads())
}

/// Zone-map pruning satellite: pages the pushdown skips are never
/// requested from the disk, so faults living on them are *invisible* —
/// the pruned run issues strictly fewer read attempts than the unpruned
/// baseline, returns the byte-identical result, and a fault armed at any
/// read index only the unpruned run reaches can never fire.
#[test]
fn faults_on_pruned_pages_are_invisible() {
    for &(name, join) in ALGORITHMS {
        if name == "shcj" || name == "stacktree" {
            // SHCJ needs a single-height A (the skewed set is mixed);
            // Stack-Tree pushes no zone filter into its scans.
            continue;
        }
        let (res0, pairs0, _, reads0) = run_skewed(join, false, FaultConfig::none());
        res0.unwrap_or_else(|e| panic!("{name}: unpruned baseline failed: {e}"));
        let (res1, pairs1, _, reads1) = run_skewed(join, true, FaultConfig::none());
        res1.unwrap_or_else(|e| panic!("{name}: pruned run failed: {e}"));
        assert_eq!(pairs1, pairs0, "{name}: pruning changed the result");
        assert!(
            reads1 < reads0,
            "{name}: pruning skipped nothing ({reads1} vs {reads0} reads)"
        );
        // Arm a permanent read fault at every attempt index beyond the
        // pruned run's last: each lands on I/O only the unpruned plan
        // performs, so the pruned run must sail through untouched.
        for idx in reads1..reads0 {
            let (res, pairs, _, _) = run_skewed(join, true, FaultConfig::read_at(idx));
            let stats =
                res.unwrap_or_else(|e| panic!("{name}: fault at pruned-away index {idx}: {e}"));
            assert_eq!(
                pairs, pairs0,
                "{name}: invisible fault at {idx} changed the result ({stats})"
            );
        }
    }
}

/// Prints sweep sizes (run with --nocapture); guards against the workload
/// shrinking below real I/O pressure in future edits.
#[test]
fn workload_generates_real_io() {
    // Packed element pages hold roughly 3x the records, so the same
    // workload legitimately transfers fewer pages when the environment
    // enables compression — the floor scales with the mode.
    let floor = if ScanOptions::default().compress {
        4
    } else {
        10
    };
    for &(name, join) in ALGORITHMS {
        let (_, io, reads, writes) = baseline(name, join, strict_io());
        println!("{name}: reads={reads} writes={writes} io={io}");
        assert!(
            reads >= floor,
            "{name}: only {reads} reads — workload too small"
        );
    }
}

/// Builds the mixed-height workload with the page layout pinned
/// explicitly (independent of the `PBITREE_COMPRESS` environment):
/// inputs written packed or raw, context compression matching so
/// join-side spill files (partitions, sort runs) follow suit.
fn build_mode(compress: bool) -> (JoinCtx, HeapFile<Element>, HeapFile<Element>, FaultHandle) {
    let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
    let handle = backend.handle();
    let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), BUDGET);
    let ctx = JoinCtx::builder(pool, PBiTreeShape::new(H).unwrap())
        .io(strict_io())
        .compression(compress)
        .build();
    let opts = strict_io().with_compress(compress);
    let a = element_file_with(
        &ctx.pool,
        opts,
        ancestors(false).into_iter().map(|c| (c, 0)),
    )
    .unwrap();
    let d = element_file_with(&ctx.pool, opts, descendants().into_iter().map(|c| (c, 1))).unwrap();
    ctx.pool.evict_all().unwrap();
    handle.reset();
    (ctx, a, d, handle)
}

fn run_mode(join: JoinFn, compress: bool, cfg: FaultConfig) -> RunOutcome {
    let (ctx, a, d, handle) = build_mode(compress);
    handle.set_config(cfg);
    let mut sink = CollectSink::default();
    let res = join(&ctx, &a, &d, &mut sink);
    handle.set_config(FaultConfig::none());
    assert_clean(&ctx, &a, &d, &format!("packed run after {res:?}"));
    (res, sink.canonical(), ctx.pool.io_stats(), handle.faults())
}

/// Compressed-pages satellite: with packed element files forced on, every
/// read and write index of the MHCJ workload is still a clean failure
/// point — including write faults that *tear* the page, leaving half a
/// packed image on disk. The packed baseline must produce the exact raw
/// baseline's pairs over strictly fewer page reads, and every injected
/// fault surfaces as `Err` with the failing page attached.
#[test]
fn fault_sweep_packed_pages() {
    let (name, join) = ("mhcj", ALGORITHMS[1].1);
    let (res_raw, pairs_raw, _, _) = run_mode(join, false, FaultConfig::none());
    res_raw.unwrap_or_else(|e| panic!("raw baseline failed: {e}"));
    let (res0, pairs0, _, _) = run_mode(join, true, FaultConfig::none());
    res0.unwrap_or_else(|e| panic!("packed baseline failed: {e}"));
    assert_eq!(pairs0, pairs_raw, "packing changed the join result");
    // Attempt counts for the sweep bounds, from instrumented reruns.
    let count_io = |compress| {
        let (ctx, a, d, handle) = build_mode(compress);
        let mut sink = CollectSink::default();
        join(&ctx, &a, &d, &mut sink).unwrap();
        (handle.reads(), handle.writes())
    };
    let (reads_raw, _) = count_io(false);
    let (reads, writes) = count_io(true);
    assert!(
        reads < reads_raw,
        "packed workload should read fewer pages ({reads} vs {reads_raw})"
    );
    for idx in 0..reads {
        let (res, _, _, faults) = run_mode(join, true, FaultConfig::read_at(idx));
        check_fault_outcome(name, "packed-read", idx, res, faults);
    }
    for idx in 0..writes {
        let mut cfg = FaultConfig::write_at(idx);
        cfg.torn_writes = true;
        let (res, _, _, faults) = run_mode(join, true, cfg);
        check_fault_outcome(name, "packed-torn-write", idx, res, faults);
    }
    // Exactly-once: a fresh fault-free packed run reproduces the pairs.
    let (res, pairs, _, faults) = run_mode(join, true, FaultConfig::none());
    res.unwrap_or_else(|e| panic!("packed fault-free rerun failed: {e}"));
    assert_eq!(faults, 0);
    assert_eq!(pairs, pairs0, "packed fault-free result drifted");
}

// ---- Sharded leg ------------------------------------------------------
//
// Region-range sharding spreads the workload across independent pools,
// each over its own (fault-instrumented) disk. A fault on one shard's
// disk must surface as one clean `Err` from the sharded join — carrying
// the failing page, from the *lowest* faulting shard, whose error stops
// the shard loop — while every shard's pool ends the run with zero pinned
// frames, and a fresh fault-free rerun reproduces the single-pool result
// byte for byte.

use pbitree_containment::storage::{IoErrorKind, PoolError};
use pbitree_joins::{Algorithm, ShardRole, ShardedFile, ShardedStats, ShardedStore, Sharding};

const SHARDS: usize = 4;

/// A sharded store over `SHARDS` fault-instrumented in-memory disks,
/// loaded with the sweep's mixed-height workload (ancestors replicated on
/// overlap, descendants stored once) and reset to a cold start. Shard
/// pools are squeezed to 4 frames so every shard's slice exceeds its pool
/// and the join both reads and spills — write faults need write attempts.
/// Compression is pinned off so the spill guarantee survives a
/// `PBITREE_COMPRESS=1` run (packed slices would fit the 4 frames; the
/// packed fault path is covered by `fault_sweep_packed_pages`).
fn sharded_build() -> (ShardedStore, ShardedFile, ShardedFile, Vec<FaultHandle>) {
    let proto = JoinCtx::builder(
        BufferPool::new(
            Disk::new(Box::new(MemBackend::new()), CostModel::free()),
            SHARDS * BUDGET,
        ),
        PBiTreeShape::new(H).unwrap(),
    )
    .io(strict_io())
    .compression(false)
    .sharding(Sharding::new(SHARDS).frames_per_shard(4))
    .build();
    let mut handles = Vec::with_capacity(SHARDS);
    let disks = (0..SHARDS)
        .map(|_| {
            let fb = FaultBackend::new(MemBackend::new(), FaultConfig::none());
            handles.push(fb.handle());
            Disk::new(Box::new(fb), CostModel::free())
        })
        .collect();
    let store = ShardedStore::with_disks(&proto, disks);
    let a = store
        .load(
            ShardRole::Ancestor,
            ancestors(false).into_iter().map(|c| Element::new(c, 0)),
        )
        .unwrap();
    let d = store
        .load(
            ShardRole::Descendant,
            descendants().into_iter().map(|c| Element::new(c, 1)),
        )
        .unwrap();
    store.evict_all().unwrap();
    for h in &handles {
        h.reset();
    }
    (store, a, d, handles)
}

/// One sharded run with the given per-shard fault plans armed.
/// Returns the result, canonical pairs, per-shard injected-fault counts,
/// per-shard join-time write attempts, and total pinned frames.
type ShardedOutcome = (
    Result<ShardedStats, JoinError>,
    Vec<(u64, u64)>,
    Vec<u64>,
    Vec<u64>,
    usize,
);

fn sharded_run(arm: &[(usize, FaultConfig)]) -> ShardedOutcome {
    let (store, a, d, handles) = sharded_build();
    for &(s, cfg) in arm {
        handles[s].set_config(cfg);
    }
    let mut sink = CollectSink::default();
    let res = store.join(Algorithm::Vpj, &a, &d, &mut sink);
    for h in &handles {
        h.set_config(FaultConfig::none());
    }
    let faults = handles.iter().map(|h| h.faults()).collect();
    let writes = handles.iter().map(|h| h.writes()).collect();
    let pinned = store.pinned_frames();
    for i in 0..SHARDS {
        assert_eq!(
            store.ctx(i).pool.live_files(),
            [a.file(i).file_id(), d.file(i).file_id()],
            "shard {i} leaked temp files after {res:?}"
        );
    }
    (res, sink.canonical(), faults, writes, pinned)
}

/// The transfer kind of an injected-fault error, when the error is one.
fn io_kind(err: &JoinError) -> Option<IoErrorKind> {
    match err {
        JoinError::Pool(PoolError::Io(e)) => Some(e.kind),
        _ => None,
    }
}

#[test]
fn fault_sweep_sharded_fork_join() {
    // Fault-free baseline: the sharded result must equal the single-pool
    // run of the same algorithm on the same workload.
    let (pairs_ref, _, _, _) = baseline("vpj", ALGORITHMS[2].1, strict_io());
    let (res0, pairs0, faults0, writes0, pinned0) = sharded_run(&[]);
    let stats0 = res0.expect("fault-free sharded baseline failed");
    assert_eq!(stats0.per_shard.len(), SHARDS);
    assert_eq!(pinned0, 0);
    assert!(faults0.iter().all(|&f| f == 0));
    assert_eq!(pairs0, pairs_ref, "sharded result diverged from one pool");
    assert!(
        writes0.iter().all(|&w| w > 0),
        "every shard should spill during the join ({writes0:?})"
    );

    // A permanent read fault on each single shard in turn: clean `Err`
    // with the failing page, fault confined to that shard's disk, and no
    // pinned frame left on *any* shard's pool.
    for shard in 0..SHARDS {
        let (res, _, faults, _, pinned) = sharded_run(&[(shard, FaultConfig::read_at(0))]);
        assert!(faults[shard] > 0, "shard {shard}: read fault never fired");
        assert!(
            faults
                .iter()
                .enumerate()
                .all(|(i, &f)| i == shard || f == 0),
            "fault leaked across disks: {faults:?}"
        );
        let err = res.expect_err("faulted shard's error was swallowed");
        assert!(
            err.failing_page().is_some(),
            "shard {shard}: error lost its page: {err}"
        );
        assert_eq!(pinned, 0, "shard {shard} fault leaked pins: {pinned}");
    }

    // Two shards fault with distinguishable kinds: the surfaced error is
    // the *lowest* faulting shard's, and the loop stops there, so the
    // second armed shard never runs.
    let first_only = |faults: &[u64]| faults[1] > 0 && faults[3] == 0;
    let (res, _, faults, _, _) =
        sharded_run(&[(1, FaultConfig::read_at(0)), (3, FaultConfig::write_at(0))]);
    assert!(first_only(&faults), "fired {faults:?}");
    assert_eq!(
        io_kind(&res.expect_err("two-shard fault swallowed")),
        Some(IoErrorKind::Read),
        "lowest shard's (read) error must win"
    );
    let (res, _, faults, _, _) =
        sharded_run(&[(1, FaultConfig::write_at(0)), (3, FaultConfig::read_at(0))]);
    assert!(first_only(&faults), "fired {faults:?}");
    assert_eq!(
        io_kind(&res.expect_err("two-shard fault swallowed")),
        Some(IoErrorKind::Write),
        "lowest shard's (write) error must win"
    );

    // Exactly-once: a fresh fault-free rerun is byte-identical.
    let (res, pairs, faults, _, pinned) = sharded_run(&[]);
    res.expect("fault-free sharded rerun failed");
    assert!(faults.iter().all(|&f| f == 0));
    assert_eq!(pairs, pairs0, "fault-free sharded rerun drifted");
    assert_eq!(pinned, 0);
}

// ---- WAL leg ----------------------------------------------------------
//
// The durable write path adds a new I/O population: write-ahead-log pages
// (append + tail rewrites) interleaved with gated data-page write-backs.
// Every read index and every *torn* write index of a logged-update
// workload must be a clean `Err` — never a panic, never silent
// corruption — and recovery over a fault-free run's disk image must be
// deterministic: recovering twice from the same image yields byte-
// identical disks.

use pbitree_containment::storage::{recover, DiskBackend, PageBuf, SharedBackend, Wal};

type WalBackend = SharedBackend<FaultBackend<MemBackend>>;

fn wal_build() -> (WalBackend, FaultHandle, BufferPool) {
    let fb = FaultBackend::new(MemBackend::new(), FaultConfig::none());
    let handle = fb.handle();
    let backend = SharedBackend::new(fb);
    let pool = BufferPool::new(
        Disk::new(Box::new(backend.clone()), CostModel::free()),
        BUDGET,
    );
    (backend, handle, pool)
}

/// A deterministic logged-update workload: bulk base, then logged
/// inserts and deletes with periodic WAL flushes and one checkpoint.
/// Every error propagates (the sweep asserts it is clean).
fn wal_workload(
    pool: &BufferPool,
) -> Result<(Wal, HeapFile<Element>), pbitree_containment::storage::PoolError> {
    let base: Vec<u64> = ancestors(false).into_iter().take(600).collect();
    let mut heap = element_file_with(pool, strict_io(), base.iter().copied().map(|c| (c, 0)))?;
    pool.flush_all()?;
    let wal = Wal::create(pool);
    let mut x = 0x00DD_BA11_u64;
    for i in 0..160u32 {
        let c = 1 + xorshift(&mut x) % ((1u64 << H) - 1);
        heap.insert_logged(pool, &wal, Element::new(c, 100 + i))?;
        if i % 5 == 0 {
            let victim = Element::new(base[(i as usize * 7) % base.len()], 0);
            heap.delete_logged(pool, &wal, &victim)?;
        }
        if i % 16 == 0 {
            wal.flush(pool)?;
        }
        if i % 64 == 32 {
            pool.flush_all()?;
        }
    }
    wal.flush(pool)?;
    Ok((wal, heap))
}

/// Snapshot of every live file's pages, straight off the backend.
fn disk_image(backend: &WalBackend) -> Vec<(u32, Vec<Vec<u8>>)> {
    backend.with_inner(|b| {
        let mut files = b.live_files();
        files.sort_by_key(|f| f.0);
        files
            .into_iter()
            .map(|f| {
                let pages = (0..b.num_pages(f))
                    .map(|p| {
                        let mut buf: PageBuf = [0u8; pbitree_containment::storage::PAGE_SIZE];
                        b.read_page(pbitree_containment::storage::PageId::new(f, p), &mut buf)
                            .unwrap();
                        buf.to_vec()
                    })
                    .collect();
                (f.0, pages)
            })
            .collect()
    })
}

/// Every read index and every torn-write index of the logged-update
/// workload is a clean failure point: `Err` with the failing page, no
/// panic, no leaked pins.
#[test]
fn fault_sweep_wal_writes() {
    let (_backend, handle, pool) = wal_build();
    handle.reset();
    wal_workload(&pool).expect("fault-free WAL workload");
    let (reads, writes) = (handle.reads(), handle.writes());
    assert!(writes > 10, "WAL workload only wrote {writes} pages");

    let sweep_one = |cfg: FaultConfig, kind: &str, idx: u64| {
        let (_backend, handle, pool) = wal_build();
        handle.reset();
        handle.set_config(cfg);
        let res = wal_workload(&pool).map(drop);
        handle.set_config(FaultConfig::none());
        assert_eq!(
            pool.pinned_frames(),
            0,
            "WAL {kind} fault at {idx}: leaked pins after {res:?}"
        );
        if handle.faults() > 0 {
            let err = match res {
                Err(e) => e,
                Ok(_) => panic!("WAL {kind} fault at {idx} was swallowed"),
            };
            assert!(
                err.failing_page().is_some(),
                "WAL {kind} fault at {idx} lost its page: {err}"
            );
        }
    };
    for idx in 0..reads {
        sweep_one(FaultConfig::read_at(idx), "read", idx);
    }
    for idx in 0..writes {
        let mut cfg = FaultConfig::write_at(idx);
        cfg.torn_writes = true;
        sweep_one(cfg, "torn-write", idx);
    }
}

/// Recovery determinism: recovering the same fault-free disk image twice
/// (fresh pool each time, as after a restart) produces byte-identical
/// disks, and the second recovery finds an already-clean log (no torn
/// tail, same committed prefix).
#[test]
fn wal_recovery_is_byte_identical() {
    let (backend, handle, pool) = wal_build();
    handle.reset();
    let (wal, heap) = wal_workload(&pool).expect("fault-free WAL workload");
    let wal_file = wal.file();
    let expect: u64 = heap.records();
    // Crash without checkpointing the tail of the run: recovery must
    // redo whatever the data files are missing.
    drop((wal, heap, pool));

    let recover_once = || {
        let pool = BufferPool::new(
            Disk::new(Box::new(backend.clone()), CostModel::free()),
            BUDGET,
        );
        let (_wal, report) = recover(&pool, wal_file).expect("recovery failed");
        pool.flush_all().expect("post-recovery flush");
        report
    };
    let r1 = recover_once();
    let img1 = disk_image(&backend);
    let r2 = recover_once();
    let img2 = disk_image(&backend);
    assert_eq!(r1.ops_applied, r2.ops_applied, "recovery lost operations");
    assert!(!r2.torn_tail, "second recovery saw a torn tail");
    assert_eq!(img1, img2, "repeated recovery diverged byte-for-byte");
    // The recovered heap holds every committed record.
    let pool = BufferPool::new(
        Disk::new(Box::new(backend.clone()), CostModel::free()),
        BUDGET,
    );
    let heap = HeapFile::<Element>::open(&pool, pbitree_containment::storage::FileId(0))
        .expect("recovered heap reopens");
    assert_eq!(heap.records(), expect, "recovered record count drifted");
}
