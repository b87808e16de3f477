//! Deterministic fault injection for the storage stack.
//!
//! [`FaultBackend`] wraps any [`DiskBackend`] and injects [`IoError`]s at
//! configurable points in the stream of page transfers. Faults fire either
//! at an exact I/O index (the n-th read or n-th write since the counters
//! were last reset — fully deterministic, used by the sweep harness to hit
//! *every* transfer of a workload) or with a seed-driven probability per
//! transfer (the [`crate::util::rng`] xoshiro stream, so a given seed
//! always faults the same transfers).
//!
//! The wrapper counts every attempt, including failed ones. That is what
//! makes transient faults recover under the [`crate::disk::Disk`] retry
//! loop without any extra bookkeeping: an armed window of
//! `fail_attempts = N` faults attempt indices `[at, at+N)`, and the N+1-th
//! attempt — the retry — falls past the window and succeeds
//! ("recover-after-N").
//!
//! A [`FaultHandle`] is a cheap clone that lets a test reconfigure the
//! fault plan mid-run and read the attempt/fault counters afterwards, even
//! while the backend itself is owned by a `Disk` inside a buffer pool.

use std::sync::{Arc, Mutex};

use crate::disk::{BatchError, DiskBackend, IoError, IoErrorKind};
use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::util::rng::Rng;

/// A fault plan. Index-triggered and probability-triggered faults can be
/// combined; an attempt faults if *either* trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the probability triggers' RNG stream.
    pub seed: u64,
    /// Fault the read attempts with indices `[n, n + fail_attempts)`.
    pub read_fault_at: Option<u64>,
    /// Fault the write attempts with indices `[n, n + fail_attempts)`.
    pub write_fault_at: Option<u64>,
    /// Fault each read attempt independently with this probability.
    pub read_fault_prob: f64,
    /// Fault each write attempt independently with this probability.
    pub write_fault_prob: f64,
    /// Width of the index-triggered fault window. With `transient` faults
    /// this is "recover after N attempts": the disk's retry loop succeeds
    /// once the window is exhausted.
    pub fail_attempts: u64,
    /// Mark injected errors transient (the disk layer retries those).
    pub transient: bool,
    /// Injected write faults tear the page: the first half of the new
    /// image reaches the backend, the rest keeps its old contents.
    pub torn_writes: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_fault_at: None,
            write_fault_at: None,
            read_fault_prob: 0.0,
            write_fault_prob: 0.0,
            fail_attempts: 1,
            transient: false,
            torn_writes: false,
        }
    }
}

impl FaultConfig {
    /// A plan that never faults (counters still track every transfer).
    pub fn none() -> Self {
        Self::default()
    }

    /// Fault the single read attempt with index `n`.
    pub fn read_at(n: u64) -> Self {
        FaultConfig {
            read_fault_at: Some(n),
            ..Self::default()
        }
    }

    /// Fault the single write attempt with index `n`.
    pub fn write_at(n: u64) -> Self {
        FaultConfig {
            write_fault_at: Some(n),
            ..Self::default()
        }
    }

    /// Marks the plan's faults transient (recoverable on retry).
    pub fn transient(mut self) -> Self {
        self.transient = true;
        self
    }

    /// Widens the index-triggered window to `n` consecutive attempts.
    pub fn lasting(mut self, n: u64) -> Self {
        self.fail_attempts = n;
        self
    }
}

#[derive(Debug)]
struct FaultInner {
    config: FaultConfig,
    rng: Rng,
    reads: u64,
    writes: u64,
    read_faults: u64,
    write_faults: u64,
}

impl FaultInner {
    fn new(config: FaultConfig) -> Self {
        FaultInner {
            rng: Rng::seed_from_u64(config.seed),
            config,
            reads: 0,
            writes: 0,
            read_faults: 0,
            write_faults: 0,
        }
    }

    /// Registers one attempt and decides whether it faults.
    fn attempt(&mut self, is_read: bool) -> Option<IoError> {
        let cfg = self.config;
        let (ctr, at, prob) = if is_read {
            (&mut self.reads, cfg.read_fault_at, cfg.read_fault_prob)
        } else {
            (&mut self.writes, cfg.write_fault_at, cfg.write_fault_prob)
        };
        let idx = *ctr;
        *ctr += 1;
        let armed = at.is_some_and(|a| idx >= a && idx - a < cfg.fail_attempts);
        let rolled = prob > 0.0 && self.rng.gen_bool(prob);
        if !(armed || rolled) {
            return None;
        }
        if is_read {
            self.read_faults += 1;
        } else {
            self.write_faults += 1;
        }
        // pid and (for writes) the torn-write kind are filled in by the
        // caller, which knows the transfer target.
        Some(IoError {
            pid: PageId::new(FileId(0), 0),
            kind: if is_read {
                IoErrorKind::Read
            } else {
                IoErrorKind::Write
            },
            transient: cfg.transient,
        })
    }
}

/// Shared view of a [`FaultBackend`]'s plan and counters. Clones are
/// handles to the same state.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    inner: Arc<Mutex<FaultInner>>,
}

impl FaultHandle {
    /// Replaces the fault plan and reseeds the RNG. Counters keep running:
    /// index triggers in the new plan are still measured from the last
    /// [`FaultHandle::reset`] (or construction).
    pub fn set_config(&self, config: FaultConfig) {
        let mut g = self.inner.lock().unwrap();
        g.rng = Rng::seed_from_u64(config.seed);
        g.config = config;
    }

    /// The current fault plan.
    pub fn config(&self) -> FaultConfig {
        self.inner.lock().unwrap().config
    }

    /// Zeroes the attempt/fault counters and reseeds the RNG, so index
    /// triggers count from the next transfer.
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        let cfg = g.config;
        *g = FaultInner::new(cfg);
    }

    /// Read attempts since the last reset (successful or faulted).
    pub fn reads(&self) -> u64 {
        self.inner.lock().unwrap().reads
    }

    /// Write attempts since the last reset (successful or faulted).
    pub fn writes(&self) -> u64 {
        self.inner.lock().unwrap().writes
    }

    /// Read faults injected since the last reset.
    pub fn read_faults(&self) -> u64 {
        self.inner.lock().unwrap().read_faults
    }

    /// Write faults injected since the last reset.
    pub fn write_faults(&self) -> u64 {
        self.inner.lock().unwrap().write_faults
    }

    /// Total faults injected since the last reset.
    pub fn faults(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        g.read_faults + g.write_faults
    }
}

/// A [`DiskBackend`] decorator that injects faults per a [`FaultConfig`].
/// Metadata operations (create/delete/num_pages/live_files) pass through
/// untouched; only page transfers fault.
pub struct FaultBackend<B: DiskBackend> {
    backend: B,
    inner: Arc<Mutex<FaultInner>>,
}

impl<B: DiskBackend> FaultBackend<B> {
    /// Wraps `backend` with the given fault plan.
    pub fn new(backend: B, config: FaultConfig) -> Self {
        FaultBackend {
            backend,
            inner: Arc::new(Mutex::new(FaultInner::new(config))),
        }
    }

    /// A handle for reconfiguring the plan and reading counters after the
    /// backend has been moved into a [`crate::disk::Disk`].
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: DiskBackend> DiskBackend for FaultBackend<B> {
    fn create_file(&mut self) -> FileId {
        self.backend.create_file()
    }

    fn delete_file(&mut self, file: FileId) {
        self.backend.delete_file(file)
    }

    fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError> {
        self.backend.allocate_page(file)
    }

    fn num_pages(&self, file: FileId) -> u32 {
        self.backend.num_pages(file)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.backend.live_files()
    }

    /// Each page consumes one read attempt, in order, and the batch stops
    /// at the first injected fault — attempt indices past the failing page
    /// are *not* consumed, so an armed index always names one
    /// concrete page whether it is reached page-at-a-time or mid-batch.
    fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError> {
        for (i, buf) in bufs.iter_mut().enumerate() {
            let pid = PageId::new(file, start + i as u32);
            if let Some(mut e) = self.inner.lock().unwrap().attempt(true) {
                e.pid = pid;
                return Err(BatchError { done: i, error: e });
            }
            self.backend
                .read_page(pid, buf)
                .map_err(|error| BatchError { done: i, error })?;
        }
        Ok(())
    }

    /// See [`read_pages`](FaultBackend::read_pages) for the attempt
    /// discipline. An injected fault tears the *batch* at the failing page
    /// (its prefix reached the device); with [`FaultConfig::torn_writes`]
    /// the failing page itself is also torn: the first half of the new
    /// image lands, the rest keeps whatever the backend held before.
    fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError> {
        for (i, buf) in bufs.iter().enumerate() {
            let pid = PageId::new(file, start + i as u32);
            let (fault, torn) = {
                let mut g = self.inner.lock().unwrap();
                let torn = g.config.torn_writes;
                (g.attempt(false), torn)
            };
            if let Some(mut e) = fault {
                e.pid = pid;
                if torn {
                    let mut img: PageBuf = [0u8; PAGE_SIZE];
                    self.backend
                        .read_page(pid, &mut img)
                        .map_err(|error| BatchError { done: i, error })?;
                    img[..PAGE_SIZE / 2].copy_from_slice(&buf[..PAGE_SIZE / 2]);
                    self.backend
                        .write_page(pid, &img)
                        .map_err(|error| BatchError { done: i, error })?;
                    e.kind = IoErrorKind::TornWrite;
                }
                return Err(BatchError { done: i, error: e });
            }
            self.backend
                .write_page(pid, buf)
                .map_err(|error| BatchError { done: i, error })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, MemBackend};
    use crate::stats::CostModel;

    fn disk_with(config: FaultConfig) -> (Disk, FaultHandle) {
        let fb = FaultBackend::new(MemBackend::new(), config);
        let h = fb.handle();
        (Disk::new(Box::new(fb), CostModel::free()), h)
    }

    #[test]
    fn read_fault_fires_at_exact_index() {
        let (mut disk, h) = disk_with(FaultConfig::read_at(2));
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap(); // idx 0
        disk.read_page(PageId::new(f, 1), &mut buf).unwrap(); // idx 1
        let e = disk.read_page(PageId::new(f, 2), &mut buf).unwrap_err();
        assert_eq!(e.pid, PageId::new(f, 2));
        assert_eq!(e.kind, IoErrorKind::Read);
        assert!(!e.transient);
        disk.read_page(PageId::new(f, 3), &mut buf).unwrap(); // idx 3: past window
        assert_eq!(h.reads(), 4);
        assert_eq!(h.read_faults(), 1);
        // Failed attempts are not charged to the stats.
        assert_eq!(disk.stats().reads(), 3);
    }

    #[test]
    fn transient_fault_recovers_through_disk_retry() {
        // Window of 2 transient faults; retry limit 3 absorbs them.
        let (mut disk, h) = disk_with(FaultConfig::write_at(0).transient().lasting(2));
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let buf = [7u8; PAGE_SIZE];
        disk.write_page(PageId::new(f, 0), &buf).unwrap();
        assert_eq!(h.writes(), 3, "two faulted attempts + one success");
        assert_eq!(h.write_faults(), 2);
        assert_eq!(disk.stats().writes(), 1, "stats charge the success only");
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn transient_fault_beyond_retry_limit_surfaces() {
        let (mut disk, _h) = disk_with(FaultConfig::write_at(0).transient().lasting(10));
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let e = disk
            .write_page(PageId::new(f, 0), &[1u8; PAGE_SIZE])
            .unwrap_err();
        assert!(e.transient);
    }

    #[test]
    fn torn_write_leaves_half_old_half_new() {
        let mut cfg = FaultConfig::write_at(1);
        cfg.torn_writes = true;
        let (mut disk, h) = disk_with(cfg);
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let pid = PageId::new(f, 0);
        disk.write_page(pid, &[0xAAu8; PAGE_SIZE]).unwrap(); // idx 0: ok
        let e = disk.write_page(pid, &[0xBBu8; PAGE_SIZE]).unwrap_err(); // idx 1: torn
        assert_eq!(e.kind, IoErrorKind::TornWrite);
        assert_eq!(h.write_faults(), 1);
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut out).unwrap();
        assert!(
            out[..PAGE_SIZE / 2].iter().all(|&b| b == 0xBB),
            "new prefix"
        );
        assert!(
            out[PAGE_SIZE / 2..].iter().all(|&b| b == 0xAA),
            "stale suffix"
        );
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let (mut disk, h) = disk_with(FaultConfig {
                seed,
                read_fault_prob: 0.3,
                ..FaultConfig::default()
            });
            let f = disk.create_file();
            disk.allocate_page(f).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            let outcomes: Vec<bool> = (0..64)
                .map(|_| disk.read_page(PageId::new(f, 0), &mut buf).is_ok())
                .collect();
            (outcomes, h.read_faults())
        };
        let (a, fa) = run(42);
        let (b, fb) = run(42);
        let (c, _) = run(43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed, different fault pattern");
        assert!(fa > 0, "p=0.3 over 64 attempts should fault");
        assert_eq!(fa, fb);
    }

    #[test]
    fn batch_read_fault_lands_mid_batch() {
        // Arm read index 2; a 4-page batch tears there: 2 pages done and
        // charged, the attempt index past the fault not consumed.
        let (mut disk, h) = disk_with(FaultConfig::read_at(2));
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut bufs = [[0u8; PAGE_SIZE]; 4];
        let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
        let e = disk.read_pages(f, 0, &mut refs).unwrap_err();
        assert_eq!(e.done, 2);
        assert_eq!(e.error.pid, PageId::new(f, 2));
        assert_eq!(h.reads(), 3, "attempts past the failing page untouched");
        assert_eq!(disk.stats().reads(), 2, "only the torn prefix is charged");
    }

    #[test]
    fn transient_mid_batch_fault_resumes_with_identical_charging() {
        let (mut disk, h) = disk_with(FaultConfig::read_at(2).transient());
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut bufs = [[0u8; PAGE_SIZE]; 4];
        let mut refs: Vec<&mut PageBuf> = bufs.iter_mut().collect();
        disk.read_pages(f, 0, &mut refs).unwrap();
        assert_eq!(h.read_faults(), 1);
        assert_eq!(h.reads(), 5, "4 pages + 1 faulted attempt");
        // Resume continues the run: charging matches a fault-free batch.
        let s = disk.stats();
        assert_eq!((s.rand_reads, s.seq_reads), (1, 3));
    }

    #[test]
    fn batch_write_fault_tears_the_batch() {
        let (mut disk, h) = disk_with(FaultConfig::write_at(1));
        let f = disk.create_file();
        for _ in 0..3 {
            disk.allocate_page(f).unwrap();
        }
        let imgs = [
            [0xAAu8; PAGE_SIZE],
            [0xBBu8; PAGE_SIZE],
            [0xCCu8; PAGE_SIZE],
        ];
        let refs: Vec<&PageBuf> = imgs.iter().collect();
        let e = disk.write_pages(f, 0, &refs).unwrap_err();
        assert_eq!(e.done, 1);
        assert_eq!(e.error.pid, PageId::new(f, 1));
        assert_eq!(h.writes(), 2);
        assert_eq!(disk.stats().writes(), 1);
        // The prefix reached the device; the failing page and the rest
        // kept their old (zeroed) contents.
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xAA));
        disk.read_page(PageId::new(f, 1), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn torn_write_inside_batch_tears_the_failing_page() {
        let mut cfg = FaultConfig::write_at(1);
        cfg.torn_writes = true;
        let (mut disk, _h) = disk_with(cfg);
        let f = disk.create_file();
        for _ in 0..2 {
            disk.allocate_page(f).unwrap();
        }
        let imgs = [[0xAAu8; PAGE_SIZE], [0xBBu8; PAGE_SIZE]];
        let refs: Vec<&PageBuf> = imgs.iter().collect();
        let e = disk.write_pages(f, 0, &refs).unwrap_err();
        assert_eq!(e.error.kind, IoErrorKind::TornWrite);
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 1), &mut out).unwrap();
        assert!(out[..PAGE_SIZE / 2].iter().all(|&b| b == 0xBB));
        assert!(out[PAGE_SIZE / 2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn reconfigure_and_reset_through_handle() {
        let (mut disk, h) = disk_with(FaultConfig::none());
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap();
        assert_eq!(h.reads(), 1);
        h.reset();
        assert_eq!(h.reads(), 0);
        h.set_config(FaultConfig::read_at(0));
        assert!(disk.read_page(PageId::new(f, 0), &mut buf).is_err());
        h.set_config(FaultConfig::none());
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap();
        assert_eq!(h.reads(), 2, "counters restart at the reset");
        assert_eq!(h.read_faults(), 1);
    }
}
