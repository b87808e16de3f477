//! External multiway merge sort over heap files.
//!
//! Classic two-phase sort, the "sort on the fly" cost the paper charges the
//! region-code baselines (§3.4): run formation reads `budget` pages at a
//! time, sorts them in memory and writes sorted runs; merge passes combine
//! up to `budget - 1` runs until one remains. Total I/O is
//! `2·‖R‖·(1 + ⌈log_{b-1}(runs)⌉)` pages, matching the
//! `‖R‖·2·log_b ‖R‖` term in the paper's analysis.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::access::ScanOptions;
use crate::buffer::{BufferPool, PoolError, TempFile};
use crate::codec::records_per_page;
use crate::heap::{HeapFile, HeapScan, HeapWriter};
use crate::record::FixedRecord;

/// A sorted run the sort owns: deleted when merged away — or when an error
/// unwinds past it, so a failed sort leaks no disk space.
type Run<'a, R> = TempFile<'a, HeapFile<R>>;

fn finish_run<'a, R: FixedRecord>(
    pool: &'a BufferPool,
    w: HeapWriter<'a, R>,
) -> Result<Run<'a, R>, PoolError> {
    let f = w.finish()?;
    Ok(TempFile::new(pool, f.file_id(), f))
}

/// Sorts `input` by `key`, using at most `budget` pages of working memory,
/// and returns a new heap file with the sorted records. The input file is
/// left untouched.
///
/// `budget` must be at least 3 (one input frame, one output frame, and one
/// spare for the merge); smaller budgets are clamped up to 3.
///
/// On error (pool exhaustion or an I/O fault — the latter carries the
/// failing page in [`PoolError::failing_page`]) every temporary file the
/// sort created is deleted before the error is returned.
pub fn external_sort<R, K, F>(
    pool: &BufferPool,
    input: &HeapFile<R>,
    budget: usize,
    key: F,
) -> Result<HeapFile<R>, PoolError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K,
{
    external_sort_with(pool, input, budget, ScanOptions::default(), key)
}

/// [`external_sort`] with explicit [`ScanOptions`]. The declared depth is
/// clamped to the sort's own `budget` and *shared* across the merge fan-in
/// (each of `k` merge inputs prefetches at most `depth / k` pages), so
/// read-ahead never exceeds the memory the sort was promised — unshared,
/// `k` streams would evict each other's read-ahead and thrash.
pub fn external_sort_with<R, K, F>(
    pool: &BufferPool,
    input: &HeapFile<R>,
    budget: usize,
    opts: ScanOptions,
    key: F,
) -> Result<HeapFile<R>, PoolError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K,
{
    let budget = budget.max(3);
    let run_capacity = budget * records_per_page::<R>();
    // Read-ahead may use at most half the sort's own page budget.
    let read = opts.clamped(budget);

    // Phase 1: run formation.
    let mut runs: Vec<Run<'_, R>> = Vec::new();
    {
        let mut scan = input.scan_with(pool, read);
        let mut chunk: Vec<R> = Vec::with_capacity(run_capacity.min(1 << 20));
        loop {
            let item = scan.next_record()?;
            if let Some(r) = item {
                chunk.push(r);
            }
            if chunk.len() == run_capacity || (item.is_none() && !chunk.is_empty()) {
                chunk.sort_by_key(&key);
                let mut w = HeapWriter::create_with(pool, read.as_write())?;
                for r in chunk.drain(..) {
                    w.push(r)?;
                }
                runs.push(finish_run(pool, w)?);
            }
            if item.is_none() {
                break;
            }
        }
    }

    if runs.is_empty() {
        return HeapFile::from_iter(pool, std::iter::empty());
    }

    // Phase 2: merge passes of fan-in (budget - 1).
    let fan_in = (budget - 1).max(2);
    while runs.len() > 1 {
        let mut next: Vec<Run<'_, R>> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            next.push(merge_runs(pool, group, read, &key)?);
        }
        runs = next;
    }
    Ok(runs.pop().expect("at least one run").keep())
}

/// Merges a group of sorted runs into one sorted heap file. `opts` is the
/// budget-clamped option set; each input stream gets a `1/k` share of its
/// depth so the group's combined read-ahead stays within it.
fn merge_runs<'a, R, K, F>(
    pool: &'a BufferPool,
    runs: &[Run<'a, R>],
    opts: ScanOptions,
    key: &F,
) -> Result<Run<'a, R>, PoolError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K,
{
    if runs.len() == 1 {
        // Copy-through keeps ownership discipline simple (caller drops all
        // inputs); single-run groups are rare (only the last group).
        let mut w = HeapWriter::create_with(pool, opts.as_write())?;
        let mut s = runs[0].scan_with(pool, opts);
        while let Some(r) = s.next_record()? {
            w.push(r)?;
        }
        return finish_run(pool, w);
    }
    let per_stream = opts.shared(runs.len());
    let mut scans: Vec<HeapScan<'_, R>> =
        runs.iter().map(|r| r.scan_with(pool, per_stream)).collect();
    // Heap entries: (key, run index, record). Run index breaks ties
    // deterministically (stability across equal keys is not required).
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(scans.len());
    let mut heads: Vec<Option<R>> = Vec::with_capacity(scans.len());
    for (i, s) in scans.iter_mut().enumerate() {
        let head = s.next_record()?;
        if let Some(r) = &head {
            heap.push(Reverse((key(r), i)));
        }
        heads.push(head);
    }
    let mut out = HeapWriter::create_with(pool, opts.as_write())?;
    while let Some(Reverse((_, i))) = heap.pop() {
        let r = heads[i].take().expect("head present for heap entry");
        out.push(r)?;
        if let Some(nxt) = scans[i].next_record()? {
            heap.push(Reverse((key(&nxt), i)));
            heads[i] = Some(nxt);
        }
    }
    finish_run(pool, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::in_memory_free(), frames)
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
    fn sorts_single_run() {
        let p = pool(8);
        let data = rng_stream(42, 1000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let sorted = external_sort(&p, &hf, 8, |r| *r).unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(sorted.read_all(&p).unwrap(), expect);
    }

    #[test]
    fn sorts_with_many_merge_passes() {
        // 100k records, 3-page budget => hundreds of runs, multiple passes.
        let p = pool(8);
        let data = rng_stream(7, 100_000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let sorted = external_sort(&p, &hf, 3, |r| *r).unwrap();
        let out = sorted.read_all(&p).unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out, expect);
        assert_eq!(sorted.records(), 100_000);
    }

    #[test]
    fn sorts_by_custom_key_descending() {
        let p = pool(8);
        let data = rng_stream(9, 5000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let sorted = external_sort(&p, &hf, 4, |r| Reverse(*r)).unwrap();
        let out = sorted.read_all(&p).unwrap();
        let mut expect = data;
        expect.sort_unstable_by_key(|r| Reverse(*r));
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input() {
        let p = pool(4);
        let hf = HeapFile::<u64>::from_iter(&p, std::iter::empty()).unwrap();
        let sorted = external_sort(&p, &hf, 4, |r| *r).unwrap();
        assert!(sorted.is_empty());
    }

    #[test]
    fn preserves_duplicates() {
        let p = pool(4);
        let data: Vec<u64> = (0..10_000).map(|i| i % 17).collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let sorted = external_sort(&p, &hf, 3, |r| *r).unwrap();
        let out = sorted.read_all(&p).unwrap();
        assert_eq!(out.len(), 10_000);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        for v in 0..17u64 {
            assert_eq!(
                out.iter().filter(|&&x| x == v).count(),
                data.iter().filter(|&&x| x == v).count()
            );
        }
    }

    #[test]
    fn io_cost_is_linearithmic() {
        // With a generous budget (single merge pass), I/O should be about
        // 4x the file size: read + write runs, read runs + write output.
        let p = pool(64);
        let data = rng_stream(3, 200_000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        p.flush_all().unwrap();
        let before = p.io_stats();
        let sorted = external_sort(&p, &hf, 32, |r| *r).unwrap();
        p.flush_all().unwrap();
        let delta = p.io_stats().since(&before);
        let pages = hf.pages() as u64;
        assert!(
            delta.total() <= 4 * pages + 16,
            "sort I/O {} > 4 * {pages} + slack",
            delta.total()
        );
        assert_eq!(sorted.records(), hf.records());
    }

    #[test]
    fn input_file_unchanged() {
        let p = pool(4);
        let data = rng_stream(5, 3000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let _sorted = external_sort(&p, &hf, 3, |r| *r).unwrap();
        assert_eq!(hf.read_all(&p).unwrap(), data);
    }
}
