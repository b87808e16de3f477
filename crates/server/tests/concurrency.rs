//! Concurrent-correctness and admission-control integration tests.
//!
//! The service's acceptance bar: any number of concurrent queries — even
//! racing a logged writer that is churning its own element store on the
//! *same* buffer pool — must produce results identical to a serial run,
//! and over-budget queries must queue (FIFO) rather than fail or
//! deadlock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pbitree_core::Code;
use pbitree_joins::ElementStore;
use pbitree_server::{QueryService, ServiceConfig};
use pbitree_storage::{CostModel, Wal};

/// A small query mix covering both planner rows, multi-step chains, and a
/// predicate step.
const MIX: &[(&str, bool)] = &[
    ("//person//creditcard", false),
    ("//person//creditcard", true),
    ("//item//keyword", false),
    ("//item//keyword", true),
    ("//site//open_auction//bidder", false),
    ("//listitem//text", true),
    ("//person[name=p]//emailaddress", false),
];

fn service(compression: bool, buffer_pages: usize, default_budget: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        sf: 0.002,
        buffer_pages,
        reserve_frames: 16,
        default_budget,
        cost: CostModel::free(),
        compression,
        ..ServiceConfig::default()
    })
    .unwrap()
}

fn expected(svc: &QueryService) -> Vec<Vec<u64>> {
    MIX.iter()
        .map(|&(path, raw)| svc.execute(path, raw, None).unwrap().codes)
        .collect()
}

/// Runs `threads` query threads, each replaying the whole mix `rounds`
/// times, asserting every result equals the serial baseline.
fn hammer(svc: &Arc<QueryService>, want: &Arc<Vec<Vec<u64>>>, threads: usize, rounds: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let (svc, want) = (Arc::clone(svc), Arc::clone(want));
            s.spawn(move || {
                for r in 0..rounds {
                    // Stagger the order per thread so different queries
                    // overlap in time.
                    for k in 0..MIX.len() {
                        let i = (k + t + r) % MIX.len();
                        let (path, raw) = MIX[i];
                        let got = svc.execute(path, raw, None).unwrap();
                        assert_eq!(got.codes, want[i], "{path} raw={raw} (thread {t})");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_queries_match_serial_with_writer_churn() {
    // threads in {1, 4} x compression {off, on}: identical results, with a
    // logged ElementStore writer mutating its own heap file on the shared
    // pool the whole time.
    for compression in [false, true] {
        let svc = Arc::new(service(compression, 128, 24));
        let want = Arc::new(expected(&svc));

        let stop = Arc::new(AtomicBool::new(false));
        // The writer signals its first committed operation; the queries
        // start only then, so they always race a live writer.
        let (tx, committed) = mpsc::channel();
        let writer = {
            let (svc, stop) = (Arc::clone(&svc), Arc::clone(&stop));
            let mut first_commit = Some(tx);
            std::thread::spawn(move || {
                let pool = svc.pool().clone();
                let wal = Wal::create(&pool);
                let mut store = ElementStore::create(&pool, svc.shape());
                let root = svc.shape().root();
                let mut live: Vec<Code> = Vec::new();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match store.insert_under(&pool, &wal, root, 7) {
                        Ok(c) => {
                            live.push(c);
                            ops += 1;
                        }
                        Err(pbitree_joins::StoreError::Update(_)) => {}
                        Err(e) => panic!("writer insert failed: {e:?}"),
                    }
                    if live.len() > 64 {
                        let c = live.remove(ops as usize % live.len());
                        assert!(store.remove(&pool, &wal, c, 7).unwrap());
                        ops += 1;
                    }
                    if ops > 0 {
                        if let Some(tx) = first_commit.take() {
                            tx.send(()).unwrap();
                        }
                    }
                }
                ops
            })
        };
        committed
            .recv_timeout(Duration::from_secs(60))
            .expect("writer never committed an operation");

        for threads in [1usize, 4] {
            hammer(&svc, &want, threads, 3);
        }

        stop.store(true, Ordering::Relaxed);
        let ops = writer.join().unwrap();
        assert!(ops > 0, "writer never committed an operation");

        let stats = svc.admission().stats();
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.waiting, 0);
        assert_eq!(stats.rejected, 0);
    }
}

#[test]
fn over_budget_queries_queue_and_all_complete() {
    // Grantable capacity equals one query's budget, so at most one query
    // holds frames at a time; 8 threads' worth must queue behind it and
    // every one must finish with the right answer.
    let svc = Arc::new(service(false, 40, 24)); // grantable = 40 - 16 = 24
    assert_eq!(svc.admission().capacity(), 24);
    let want = Arc::new(expected(&svc));

    // Deterministic queue buildup: hold the whole capacity, let 8 query
    // threads pile up behind it, then release and let the FIFO drain.
    let gate = svc.admission().admit(24).unwrap();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let (svc, want) = (Arc::clone(&svc), Arc::clone(&want));
            s.spawn(move || {
                let (path, raw) = MIX[t % MIX.len()];
                let got = svc.execute(path, raw, None).unwrap();
                assert_eq!(got.codes, want[t % MIX.len()], "{path}");
            });
        }
        let t0 = std::time::Instant::now();
        while svc.admission().stats().waiting < 8 {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(30),
                "threads never queued behind the held grant"
            );
            std::thread::yield_now();
        }
        drop(gate);
    });

    // And a free-for-all on top: everything still completes and matches.
    hammer(&svc, &want, 8, 2);

    let stats = svc.admission().stats();
    assert_eq!(stats.in_use, 0);
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.rejected, 0);
    assert!(stats.peak_waiting >= 8);
    // Serial baseline (7) + queued batch (8) + hammer admissions.
    assert!(stats.admitted >= 7 + 8 + 8 * 2 * MIX.len() as u64);
}

#[test]
fn draining_grants_unblock_the_queue_rather_than_deadlock() {
    // A query holding the whole capacity plus a stream of waiters: when
    // the holder finishes, the FIFO drains. Guarded by a watchdog so a
    // regression fails fast instead of hanging the suite.
    let svc = Arc::new(service(false, 40, 24));
    let done = Arc::new(AtomicBool::new(false));
    {
        let (svc, done) = (Arc::clone(&svc), Arc::clone(&done));
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..6 {
                    let svc = &svc;
                    s.spawn(move || {
                        // budget=24 == full capacity: strictly serialized.
                        svc.execute("//person//creditcard", false, Some(24))
                            .unwrap();
                    });
                }
            });
            done.store(true, Ordering::Relaxed);
        });
    }
    let t0 = std::time::Instant::now();
    while !done.load(Ordering::Relaxed) {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "admission queue deadlocked"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
