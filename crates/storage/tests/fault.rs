//! Crash-consistency tests for the storage stack under injected faults.
//!
//! The centerpiece is the external merge-sort spill: a write fault in the
//! middle of run formation or merging must surface as a clean `Err`
//! carrying the failing page, delete every temporary file the sort
//! created, and leave the input file and the pool intact.

use pbitree_storage::{
    external_sort, BufferPool, CostModel, Disk, FaultBackend, FaultConfig, FaultHandle, HeapFile,
    MemBackend, PoolError,
};

fn fault_pool(frames: usize) -> (BufferPool, FaultHandle) {
    let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
    let handle = backend.handle();
    (
        BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), frames),
        handle,
    )
}

/// Deterministic pseudo-random u64 stream.
fn rng_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

#[test]
fn sort_spill_write_fault_cleans_up_temp_files() {
    // 3-frame budget over a multi-page input: run formation spills many
    // runs and the merge tree has several passes, so write indices cover
    // every spill phase. Sweep them all.
    let (pool, handle) = fault_pool(3);
    let data = rng_stream(11, 30_000);
    let input = HeapFile::from_iter(&pool, data.iter().copied()).unwrap();
    let files_before = pool.live_files();

    // Baseline: count the sort's writes, then drop its output.
    handle.reset();
    let sorted = external_sort(&pool, &input, 3, |r| *r).unwrap();
    let writes = handle.writes();
    assert!(writes > 20, "workload too small: {writes} writes");
    sorted.drop_file(&pool);
    assert_eq!(pool.live_files(), files_before);

    for idx in 0..writes {
        handle.reset();
        handle.set_config(FaultConfig::write_at(idx));
        let err = external_sort(&pool, &input, 3, |r| *r)
            .map(|f| f.pages())
            .expect_err("sort must fail under an injected write fault");
        handle.set_config(FaultConfig::none());
        // The error names the failing page...
        let pid = match &err {
            PoolError::Io(e) => e.pid,
            other => panic!("write fault surfaced as {other}"),
        };
        assert_eq!(err.failing_page(), Some(pid));
        // ...every temp file is gone...
        assert_eq!(
            pool.live_files(),
            files_before,
            "temp files leaked after write fault at index {idx}"
        );
        // ...no frame is left pinned, and the input still reads back.
        assert_eq!(pool.pinned_frames(), 0);
    }
    assert_eq!(input.read_all(&pool).unwrap(), data);
}

#[test]
fn sort_read_fault_cleans_up_too() {
    let (pool, handle) = fault_pool(3);
    let data = rng_stream(13, 20_000);
    let input = HeapFile::from_iter(&pool, data.iter().copied()).unwrap();
    pool.evict_all().unwrap();
    let files_before = pool.live_files();

    handle.reset();
    let sorted = external_sort(&pool, &input, 3, |r| *r).unwrap();
    let reads = handle.reads();
    sorted.drop_file(&pool);

    // Sample read indices across the whole sort (first, mid-run-formation,
    // merge phase, last).
    for idx in [0, reads / 4, reads / 2, 3 * reads / 4, reads - 1] {
        pool.evict_all().unwrap();
        handle.reset();
        handle.set_config(FaultConfig::read_at(idx));
        let err = external_sort(&pool, &input, 3, |r| *r)
            .map(|f| f.pages())
            .expect_err("sort must fail under an injected read fault");
        handle.set_config(FaultConfig::none());
        assert!(err.failing_page().is_some(), "{err}");
        assert_eq!(
            pool.live_files(),
            files_before,
            "temp files leaked after read fault at index {idx}"
        );
        assert_eq!(pool.pinned_frames(), 0);
    }
}

#[test]
fn transient_spill_fault_is_invisible() {
    let (pool, handle) = fault_pool(3);
    let data = rng_stream(17, 20_000);
    let input = HeapFile::from_iter(&pool, data.iter().copied()).unwrap();

    handle.reset();
    let expect = external_sort(&pool, &input, 3, |r| *r).unwrap();
    let baseline_writes = handle.writes();
    let expect_data = expect.read_all(&pool).unwrap();
    expect.drop_file(&pool);

    handle.reset();
    handle.set_config(
        FaultConfig::write_at(baseline_writes / 2)
            .transient()
            .lasting(2),
    );
    let sorted = external_sort(&pool, &input, 3, |r| *r).expect("transient fault must recover");
    handle.set_config(FaultConfig::none());
    assert_eq!(handle.write_faults(), 2, "window attempts both faulted");
    assert_eq!(sorted.read_all(&pool).unwrap(), expect_data);
}

#[test]
fn heap_writer_fault_reports_failing_page() {
    // A write-through append fault surfaces from HeapFile::from_iter with
    // the page it failed on.
    let (pool, handle) = fault_pool(4);
    handle.set_config(FaultConfig::write_at(2));
    let err = HeapFile::<u64>::from_iter(&pool, 0..10_000u64)
        .map(|f| f.pages())
        .expect_err("append fault must surface");
    let pid = err.failing_page().expect("page attached");
    assert_eq!(pid.page, 2, "third appended page faulted");
    assert_eq!(pool.pinned_frames(), 0);
}

#[test]
fn eviction_write_back_fault_keeps_page_resident_and_dirty() {
    use pbitree_storage::PageId;
    // 1-frame pool: writing page 0 dirty, then touching page 1 forces an
    // eviction write-back, which we fault. The fetch must fail cleanly and
    // page 0's data must still be readable (it stayed resident + dirty).
    let (pool, handle) = fault_pool(1);
    let f = pool.create_file();
    let (_, mut g) = pool.new_page(f).unwrap();
    g[0] = 0xEE;
    drop(g);
    let (_, g1) = pool.new_page(f).unwrap(); // page 1 allocated...
    drop(g1);
    // ...but the pool has 1 frame, so page 1's claim evicted page 0 by
    // writing it back. Reset and make page 0 dirty again via a write guard.
    let mut g0 = pool.write_page(PageId::new(f, 0)).unwrap();
    g0[0] = 0xAF;
    drop(g0);
    handle.reset();
    handle.set_config(FaultConfig::write_at(0));
    let err = pool.read_page(PageId::new(f, 1)).map(|_| ()).unwrap_err();
    assert_eq!(err.failing_page(), Some(PageId::new(f, 0)), "{err}");
    handle.set_config(FaultConfig::none());
    // The dirty page survived the failed eviction.
    let g0 = pool.read_page(PageId::new(f, 0)).unwrap();
    assert_eq!(g0[0], 0xAF);
    drop(g0);
    assert_eq!(pool.pinned_frames(), 0);
}

#[test]
fn load_fault_leaves_no_stale_mapping() {
    use pbitree_storage::PageId;
    let (pool, handle) = fault_pool(2);
    let f = pool.create_file();
    for _ in 0..2 {
        let (_, _g) = pool.new_page(f).unwrap();
    }
    pool.evict_all().unwrap();
    handle.reset();
    // First read faults; the retry after disarming must succeed (a stale
    // page-table mapping from the failed load would satisfy the second
    // read from garbage instead of disk).
    handle.set_config(FaultConfig::read_at(0));
    assert!(pool.read_page(PageId::new(f, 0)).is_err());
    handle.set_config(FaultConfig::none());
    let misses_before = pool.pool_stats().misses;
    let _g = pool.read_page(PageId::new(f, 0)).unwrap();
    assert_eq!(
        pool.pool_stats().misses,
        misses_before + 1,
        "retry must re-read from disk, not hit a stale frame"
    );
}

/// A flush that faults partway through a contiguous run cleans only the
/// pages the device took: the failing page and the rest of the run stay
/// dirty, so the next flush writes exactly those.
#[test]
fn partial_flush_fault_keeps_the_unwritten_run_dirty() {
    use pbitree_storage::{PageId, PAGE_SIZE};
    let (pool, handle) = fault_pool(8);
    let f = pool.create_file();
    for i in 0..4u8 {
        pool.new_page(f).unwrap().1[0] = i + 1;
    }
    // One vectored run of four pages; the device fails the second.
    handle.reset();
    handle.set_config(FaultConfig::write_at(1));
    let err = pool.flush_all().unwrap_err();
    assert_eq!(err.failing_page(), Some(PageId::new(f, 1)), "{err}");
    handle.set_config(FaultConfig::none());
    let before = pool.io_stats().writes();
    pool.flush_all().unwrap();
    assert_eq!(
        pool.io_stats().writes() - before,
        3,
        "pages 1..4 stayed dirty"
    );
    let mut img = [0u8; PAGE_SIZE];
    for i in 0..4u8 {
        pool.read_page_through(PageId::new(f, u32::from(i)), &mut img)
            .unwrap();
        assert_eq!(img[0], i + 1, "page {i} on disk");
    }
}
