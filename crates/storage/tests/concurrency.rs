//! Multi-threaded stress tests for the shared buffer pool: N threads
//! hammering overlapping page sets under a tight frame budget must never
//! lose a write, never exceed the frame budget, and keep hit/miss and
//! transfer accounting exactly-once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use pbitree_storage::{BufferPool, Disk, FileId, PageBuf, PageId, PoolError, ScanOptions};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A `frames`-frame pool over one file of `pages` zeroed pages, all on
/// disk and none resident.
fn cold_pool(frames: usize, pages: u32) -> (BufferPool, FileId) {
    let pool = BufferPool::new(Disk::in_memory_free(), frames);
    let file = pool.create_file();
    for _ in 0..pages {
        let (_, _g) = pool.new_page(file).unwrap();
    }
    pool.evict_all().unwrap();
    (pool, file)
}

/// The counter a test keeps in a page's first 8 bytes.
fn counter(page: &PageBuf) -> u64 {
    u64::from_le_bytes(page[..8].try_into().unwrap())
}

/// Increments `pid`'s counter under its write latch, then records it.
fn bump(pool: &BufferPool, pid: PageId, applied: &AtomicU64) {
    let mut g = pool.write_page(pid).unwrap();
    let v = counter(&g);
    g[..8].copy_from_slice(&(v + 1).to_le_bytes());
    drop(g);
    applied.fetch_add(1, Ordering::SeqCst);
}

/// Every page's counter, read back from disk, equals the increments
/// recorded for it — a lost write (torn eviction, stale reload,
/// double-mapped frame, a flush that cleaned an unwritten frame) breaks
/// the equality.
fn assert_no_lost_writes(pool: &BufferPool, file: FileId, applied: &[AtomicU64]) {
    pool.evict_all().unwrap();
    for (page, n) in applied.iter().enumerate() {
        let g = pool.read_page(PageId::new(file, page as u32)).unwrap();
        let n = n.load(Ordering::SeqCst);
        assert_eq!(counter(&g), n, "page {page} lost writes");
    }
}

/// Each of 8 pages carries a per-page counter; threads repeatedly pick a
/// page and either read it or [`bump`] it.
#[test]
fn no_lost_writes_under_tight_budget() {
    const THREADS: usize = 8;
    const PAGES: u32 = 8;
    const OPS: usize = 2_000;
    // 4 frames for 8 hot pages: constant eviction + reload traffic.
    let (pool, file) = cold_pool(4, PAGES);
    let applied: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            let applied = &applied;
            let barrier = &barrier;
            s.spawn(move || {
                let mut rng = 0x5DEECE66D ^ (t as u64 + 1);
                barrier.wait();
                for _ in 0..OPS {
                    let page = (xorshift(&mut rng) % PAGES as u64) as u32;
                    let pid = PageId::new(file, page);
                    if xorshift(&mut rng).is_multiple_of(4) {
                        // Read path: the counter must never exceed the
                        // increments applied so far (reads of stale data
                        // would also show up in the final totals).
                        let g = pool.read_page(pid).unwrap();
                        let v = counter(&g);
                        assert!(v <= applied[page as usize].load(Ordering::SeqCst) + OPS as u64);
                    } else {
                        bump(pool, pid, &applied[page as usize]);
                    }
                }
            });
        }
    });
    assert_no_lost_writes(&pool, file, &applied);
}

/// Read-ahead and flushes interleave: sequential scans stage prefetch
/// batches (claims holding their frames' write latches, dirty victims
/// written back) while another thread loops `flush_all` (shared latches
/// over page-contiguous runs) and writers keep re-dirtying pages. No write
/// may be lost, every request counts once, and no pin outlives its guard.
#[test]
fn read_ahead_races_flushes_without_losing_writes() {
    const PAGES: u32 = 24;
    // Per thread: 100 sequential scans, or as many counter bumps.
    const OPS: u64 = 100 * PAGES as u64;
    let (pool, file) = cold_pool(8, PAGES);
    let base = pool.pool_stats();
    let applied: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (pool, applied, stop) = (&pool, &applied, &stop);
        let flusher = s.spawn(move || {
            let mut flushes = 0;
            while !stop.load(Ordering::SeqCst) {
                pool.flush_all().unwrap();
                flushes += 1;
            }
            flushes
        });
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = 0x9E37_79B9 ^ (t + 1);
                    for i in 0..OPS {
                        if t % 2 == 0 {
                            let pid = PageId::new(file, (i % u64::from(PAGES)) as u32);
                            let g = pool.read_page_with(pid, ScanOptions::sequential(8), None);
                            std::hint::black_box(g.unwrap()[0]);
                        } else {
                            let page = (xorshift(&mut rng) % u64::from(PAGES)) as u32;
                            bump(pool, PageId::new(file, page), &applied[page as usize]);
                        }
                    }
                })
            })
            .collect();
        // Stop the flusher before a worker's panic resurfaces, or the scope
        // would wait on it forever.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::SeqCst);
        joined.into_iter().for_each(|w| w.unwrap());
        assert!(flusher.join().unwrap() > 0);
    });
    assert_eq!(pool.pool_stats().since(&base).requests(), 4 * OPS);
    assert_eq!(pool.pinned_frames(), 0);
    assert!(pool.prefetched() > 0, "the scans read ahead");
    assert_no_lost_writes(&pool, file, &applied);
}

/// Accounting stays exactly-once under concurrency: every request is one
/// hit or one miss (never both, never neither), and every miss on a cold
/// page is at most one disk read even when threads race on the same page.
#[test]
fn accounting_is_exactly_once() {
    const THREADS: usize = 6;
    const PAGES: u32 = 16;
    const OPS: usize = 1_500;
    let (pool, file) = cold_pool(8, PAGES);
    let base_io = pool.io_stats();
    let base_pool = pool.pool_stats();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            let barrier = &barrier;
            s.spawn(move || {
                let mut rng = 0xA076_1D64 ^ (t as u64 + 1);
                barrier.wait();
                for _ in 0..OPS {
                    let page = (xorshift(&mut rng) % PAGES as u64) as u32;
                    let g = pool.read_page(PageId::new(file, page)).unwrap();
                    std::hint::black_box(g[0]);
                }
            });
        }
    });

    let stats = pool.pool_stats();
    let requests = stats.hits - base_pool.hits + (stats.misses - base_pool.misses);
    assert_eq!(
        requests,
        (THREADS * OPS) as u64,
        "each request counted exactly once"
    );
    // Pages are clean, so the only transfers are miss reads — and a race
    // loser never re-reads: reads <= misses (a loser's speculative read is
    // possible but it then counts a hit, so reads never exceed misses).
    let io = pool.io_stats().since(&base_io);
    assert_eq!(io.writes(), 0);
    assert!(
        io.reads() <= stats.misses - base_pool.misses,
        "reads {} > misses {}",
        io.reads(),
        stats.misses - base_pool.misses
    );
}

/// The frame budget is a hard bound even under concurrency: with `b`
/// frames and `b` pages pinned simultaneously across threads, the next pin
/// must fail with `NoFreeFrames` — total pinned frames never exceed `b`.
#[test]
fn budget_bounds_total_pins_across_threads() {
    const B: usize = 6;
    let (pool, file) = cold_pool(B, B as u32 + 2);

    // Pin B distinct pages from several threads, holding all guards alive
    // at a rendezvous, then ask for one more.
    let pinned = Barrier::new(B + 1);
    let release = Barrier::new(B + 1);
    std::thread::scope(|s| {
        let pinned = &pinned;
        let release = &release;
        let pool = &pool;
        for i in 0..B {
            s.spawn(move || {
                let g = pool.read_page(PageId::new(file, i as u32)).unwrap();
                pinned.wait(); // all B frames pinned now
                release.wait(); // hold the pin until the main assert ran
                drop(g);
            });
        }
        pinned.wait();
        // Every worker holds its pin and is parked at `release`.
        let err = pool
            .read_page(PageId::new(file, B as u32))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, PoolError::NoFreeFrames { capacity: B });
        release.wait();
    });
}

/// A miss that finds every frame pinned by another thread waits for an
/// unpin instead of failing: the holder lets go of its `B` pins 50 ms
/// after both threads are ready, and the miss gets its frame.
#[test]
fn miss_waits_for_pins_another_thread_releases() {
    const B: usize = 4;
    let (pool, file) = cold_pool(B, B as u32 + 1);
    let pinned = Barrier::new(2);
    let released = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (pool, pinned, released) = (&pool, &pinned, &released);
        s.spawn(move || {
            let guards: Vec<_> = (0..B as u32)
                .map(|p| pool.read_page(PageId::new(file, p)).unwrap())
                .collect();
            pinned.wait();
            std::thread::sleep(std::time::Duration::from_millis(50));
            released.store(true, Ordering::SeqCst);
            drop(guards);
        });
        pinned.wait();
        let g = pool.read_page(PageId::new(file, B as u32)).unwrap();
        assert!(released.load(Ordering::SeqCst), "a frame was free");
        assert_eq!(counter(&g), 0);
    });
    assert_eq!(pool.pinned_frames(), 0);
}

/// Heap files written from multiple worker threads into distinct files
/// round-trip correctly through one shared pool.
#[test]
fn parallel_heap_files_round_trip() {
    use pbitree_storage::HeapFile;
    const THREADS: usize = 4;
    let pool = BufferPool::new(Disk::in_memory_free(), 12);
    std::thread::scope(|s| {
        let pool = &pool;
        for t in 0..THREADS {
            s.spawn(move || {
                let data: Vec<u64> = (0..5_000u64).map(|i| i * (t as u64 + 1)).collect();
                let hf = HeapFile::from_iter(pool, data.iter().copied()).unwrap();
                assert_eq!(hf.read_all(pool).unwrap(), data, "thread {t}");
                hf.drop_file(pool);
            });
        }
    });
}
