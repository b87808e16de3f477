//! Fault legs outside the join lattice (`tests/lattice.rs` sweeps every
//! operator's read and torn-write indices on both page layouts):
//!
//! * zone-map pruning: faults on pages the pushdown skips are invisible;
//! * region sharding: a fault on one shard's disk is one clean `Err`;
//! * the WAL'd update path: every read and torn-write index of a logged
//!   workload is a clean failure point, and recovery is deterministic.
//!
//! Every faulted run must leave the pool with zero pinned frames and no
//! file but its inputs.

use pbitree_containment::joins::element::{element_file, element_file_with};
use pbitree_containment::joins::sink::CollectSink;
use pbitree_containment::joins::{execute, Algorithm, JoinCtx, JoinError, JoinStats, SortPolicy};
use pbitree_containment::storage::{
    BufferPool, CostModel, Disk, FaultBackend, FaultConfig, FaultHandle, HeapFile, MemBackend,
    ScanOptions,
};
use pbitree_core::PBiTreeShape;
use pbitree_joins::element::Element;

const H: u32 = 16;
const BUDGET: usize = 8;

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

/// Deterministic mixed-height ancestor codes.
fn ancestors() -> Vec<u64> {
    let mut x = 0xA5A5_5A5Au64;
    let mut out = std::collections::BTreeSet::new();
    for _ in 0..4000 {
        out.insert(1 + xorshift(&mut x) % ((1 << H) - 1));
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

/// A cold fault-instrumented context holding skewed ancestors and the
/// descendants, with an explicit pruning switch.
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

/// One pruned-leg run of `algo` under `cfg`: the result, its pairs and
/// the join's read attempts.
fn run_skewed(
    algo: Algorithm,
    prune: bool,
    cfg: FaultConfig,
) -> (Result<JoinStats, JoinError>, Vec<(u64, u64)>, u64) {
    let (ctx, a, d, handle) = build_skewed(prune);
    handle.set_config(cfg);
    let mut sink = CollectSink::default();
    let res = execute(&ctx, algo, &a, &d, SortPolicy::SortOnTheFly, &mut sink);
    handle.set_config(FaultConfig::none());
    assert_clean(&ctx, &a, &d, "pruned run");
    (res, sink.canonical(), handle.reads())
}

/// Zone-map pruning satellite: pages the pushdown skips are never
/// requested from the disk, so faults living on them are *invisible* —
/// the pruned run issues strictly fewer read attempts than the unpruned
/// baseline, returns the byte-identical result, and a fault armed at any
/// read index only the unpruned run reaches can never fire.
#[test]
fn faults_on_pruned_pages_are_invisible() {
    // The operators that push zone filters into their scans.
    for algo in [Algorithm::Mhcj, Algorithm::Vpj, Algorithm::MhcjRollup] {
        let (res0, pairs0, reads0) = run_skewed(algo, false, FaultConfig::none());
        res0.unwrap_or_else(|e| panic!("{algo}: unpruned baseline failed: {e}"));
        let (res1, pairs1, reads1) = run_skewed(algo, true, FaultConfig::none());
        res1.unwrap_or_else(|e| panic!("{algo}: pruned run failed: {e}"));
        assert_eq!(pairs1, pairs0, "{algo}: pruning changed the result");
        assert!(
            reads1 < reads0,
            "{algo}: pruning skipped nothing ({reads1} vs {reads0} reads)"
        );
        // Arm a permanent read fault at every attempt index beyond the
        // pruned run's last: each lands on I/O only the unpruned plan
        // performs, so the pruned run must sail through untouched.
        for idx in reads1..reads0 {
            let (res, pairs, _) = run_skewed(algo, true, FaultConfig::read_at(idx));
            let stats =
                res.unwrap_or_else(|e| panic!("{algo}: fault at pruned-away index {idx}: {e}"));
            assert_eq!(
                pairs, pairs0,
                "{algo}: invisible fault at {idx} changed the result ({stats})"
            );
        }
    }
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
use pbitree_joins::{ShardRole, ShardedFile, ShardedStats, ShardedStore, Sharding};

const SHARDS: usize = 4;

/// A sharded store over `SHARDS` fault-instrumented in-memory disks,
/// loaded with the sweep's mixed-height workload (ancestors replicated on
/// overlap, descendants stored once) and reset to a cold start. Shard
/// pools are squeezed to 4 frames so every shard's slice exceeds its pool
/// and the join both reads and spills — write faults need write attempts
/// (on raw pages: packed slices would fit the 4 frames).
fn sharded_build() -> (ShardedStore, ShardedFile, ShardedFile, Vec<FaultHandle>) {
    let proto = JoinCtx::builder(
        BufferPool::new(
            Disk::new(Box::new(MemBackend::new()), CostModel::free()),
            SHARDS * BUDGET,
        ),
        PBiTreeShape::new(H).unwrap(),
    )
    .io(strict_io())
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
            ancestors().into_iter().map(|c| Element::new(c, 0)),
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
    let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(H).unwrap(), BUDGET);
    let a = element_file(&ctx.pool, ancestors().into_iter().map(|c| (c, 0))).unwrap();
    let d = element_file(&ctx.pool, descendants().into_iter().map(|c| (c, 1))).unwrap();
    let mut sink = CollectSink::default();
    execute(
        &ctx,
        Algorithm::Vpj,
        &a,
        &d,
        SortPolicy::SortOnTheFly,
        &mut sink,
    )
    .unwrap();
    let pairs_ref = sink.canonical();
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
    let base: Vec<u64> = ancestors().into_iter().take(600).collect();
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

/// Recovery itself crashes: every write index of one recovery of the
/// logged workload's image, torn writes on, is a clean `Err` with no
/// pinned frame, and a second recovery from the image that survived is
/// byte-identical to one uninterrupted recovery. Recovery runs on three
/// frames, so redo flushes after every page (`capacity − 2`) and the
/// faulted images hold partially redone, partially torn pages.
#[test]
fn crashed_recovery_recovers_byte_identically() {
    const RECOVERY_FRAMES: usize = 3;
    // The crashed workload's image: the log is durable, the dirty frames
    // vanished. Rebuilt for every sweep point (the workload is
    // deterministic), with the fault counters reset after it.
    let crashed = || {
        let (backend, handle, pool) = wal_build();
        let (wal, heap) = wal_workload(&pool).expect("fault-free WAL workload");
        let wal_file = wal.file();
        drop((wal, heap, pool));
        handle.reset();
        (backend, handle, wal_file)
    };
    let recover_on = |backend: &WalBackend, wal_file| {
        let pool = BufferPool::new(
            Disk::new(Box::new(backend.clone()), CostModel::free()),
            RECOVERY_FRAMES,
        );
        let res = recover(&pool, wal_file).map(drop);
        (res, pool.pinned_frames())
    };

    let (backend, handle, wal_file) = crashed();
    recover_on(&backend, wal_file)
        .0
        .expect("uninterrupted recovery");
    let writes = handle.writes();
    let want = disk_image(&backend);
    assert!(
        writes > 2,
        "recovery wrote {writes} pages: too few flushes to interrupt"
    );

    for idx in 0..writes {
        let (backend, handle, wal_file) = crashed();
        let mut cfg = FaultConfig::write_at(idx);
        cfg.torn_writes = true;
        handle.set_config(cfg);
        let (res, pinned) = recover_on(&backend, wal_file);
        handle.set_config(FaultConfig::none());
        assert_eq!(handle.faults(), 1, "recovery write {idx} never faulted");
        let err = res.expect_err("faulted recovery reported success");
        assert!(
            err.failing_page().is_some(),
            "recovery write {idx} lost its page: {err}"
        );
        assert_eq!(pinned, 0, "recovery write {idx}: leaked pins");
        recover_on(&backend, wal_file)
            .0
            .expect("recovery after a crashed recovery");
        assert!(
            disk_image(&backend) == want,
            "recovery write {idx}: second recovery diverged from an uninterrupted one"
        );
    }
}
