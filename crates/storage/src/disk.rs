//! Disk backends and the accounting [`Disk`] wrapper.
//!
//! A [`DiskBackend`] is a dumb page store: create/delete files, allocate
//! pages, read and write whole pages. [`Disk`] wraps a backend and is the
//! only thing the buffer pool talks to; it classifies every transfer as
//! sequential or random (relative to the disk's one head, the last page
//! transferred in any file — switching files seeks) and charges the
//! [`CostModel`].
//!
//! # Vectored transfers
//!
//! There is one transfer primitive per direction, end to end:
//! [`DiskBackend::read_pages`] / [`DiskBackend::write_pages`] move a run of
//! consecutive pages of one file, and a single-page transfer is the run of
//! length one. The fault backend injects faults *inside* batches (a torn
//! batch is a partial success: [`BatchError::done`] pages transferred, the
//! rest untouched). [`Disk`] charges a successful batch as one head
//! movement plus `N - 1` sequential transfers — each page is still counted
//! exactly once.
//!
//! # Error model
//!
//! Page transfers are fallible: the transfer ops and `allocate_page`
//! return [`IoError`] (inside a [`BatchError`] for runs) carrying the failing [`PageId`] and a fault kind.
//! Errors flagged [`IoError::transient`] model a device that recovers on
//! retry; [`Disk`] retries those up to [`DEFAULT_RETRY_LIMIT`] before giving up,
//! so short transient blips never surface to the engine. Accessing a file
//! that was never created (or a page that was never allocated) is a caller
//! logic error and still panics — only *device* failure is an error value.
//! The [`crate::fault`] module provides a backend wrapper that injects
//! deterministic faults for testing.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::stats::{AtomicIoStats, CostModel, IoStats};

/// What failed during a page transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// A page read failed; the destination buffer contents are undefined.
    Read,
    /// A page write failed; the on-disk page is unchanged.
    Write,
    /// A page write failed part-way: the on-disk page holds a torn image
    /// (a prefix of the new data, the rest stale or zeroed).
    TornWrite,
    /// Extending a file with a fresh page failed.
    Allocate,
}

impl fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoErrorKind::Read => write!(f, "read"),
            IoErrorKind::Write => write!(f, "write"),
            IoErrorKind::TornWrite => write!(f, "torn write"),
            IoErrorKind::Allocate => write!(f, "allocate"),
        }
    }
}

/// A failed page transfer, carrying the page it failed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    /// The page the transfer targeted.
    pub pid: PageId,
    /// What kind of transfer failed.
    pub kind: IoErrorKind,
    /// Whether a retry may succeed ([`Disk`] retries these automatically).
    pub transient: bool,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} of page {} failed",
            if self.transient { "transient " } else { "" },
            self.kind,
            self.pid
        )
    }
}

impl std::error::Error for IoError {}

/// A vectored transfer that failed part-way: the first [`done`] pages of
/// the batch transferred successfully (and, at the [`Disk`] layer, were
/// charged), the failing page is named by [`error`], and every page after
/// it was not attempted.
///
/// [`done`]: BatchError::done
/// [`error`]: BatchError::error
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchError {
    /// Pages at the front of the batch that transferred successfully.
    pub done: usize,
    /// The failure that stopped the batch.
    pub error: IoError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {} pages of the batch", self.error, self.done)
    }
}

impl std::error::Error for BatchError {}

/// A page-granular storage device. Backends must be [`Send`]: the buffer
/// pool wraps the disk in a mutex, and the pool is shared by concurrent
/// queries.
///
/// Transfers return [`IoError`] on device failure. Addressing a file that
/// was never created, or a page that was never allocated, is a *caller*
/// logic error and panics — the engine only ever hands out ids it minted.
pub trait DiskBackend: Send {
    /// Creates a new, empty file and returns its id.
    fn create_file(&mut self) -> FileId;
    /// Deletes a file and releases its space. Deleting an unknown file is a
    /// no-op.
    fn delete_file(&mut self, file: FileId);
    /// Appends a zeroed page to `file`, returning its page number.
    fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError>;
    /// Number of pages currently allocated to `file`.
    fn num_pages(&self, file: FileId) -> u32;
    /// Files currently live (created and not deleted), ascending.
    fn live_files(&self) -> Vec<FileId>;
    /// Reads `bufs.len()` consecutive pages of `file` starting at `start`,
    /// one page per buffer. On failure the prefix [`BatchError::done`] is
    /// valid and pages past the failing one were not attempted.
    fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError>;

    /// Writes `bufs.len()` consecutive pages of `file` starting at `start`.
    /// On failure the prefix [`BatchError::done`] reached the device and
    /// pages past the failing one were not attempted (a *torn batch*).
    fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError>;

    /// Reads page `pid` into `buf`: the one-page [`read_pages`](Self::read_pages).
    fn read_page(&mut self, pid: PageId, buf: &mut PageBuf) -> Result<(), IoError> {
        self.read_pages(pid.file, pid.page, &mut [buf])
            .map_err(|e| e.error)
    }

    /// Writes `buf` to page `pid`: the one-page [`write_pages`](Self::write_pages).
    fn write_page(&mut self, pid: PageId, buf: &PageBuf) -> Result<(), IoError> {
        self.write_pages(pid.file, pid.page, &[buf])
            .map_err(|e| e.error)
    }
}

/// In-memory backend: pages live in `Vec`s. The default for experiments —
/// all I/O cost comes from the deterministic [`CostModel`], so runs are
/// machine-independent. Never fails on its own; wrap it in
/// [`crate::fault::FaultBackend`] to inject failures.
#[derive(Default)]
pub struct MemBackend {
    files: Vec<Option<Vec<Box<PageBuf>>>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn file(&self, f: FileId) -> &Vec<Box<PageBuf>> {
        self.files
            .get(f.0 as usize)
            .and_then(|o| o.as_ref())
            .expect("unknown or deleted file")
    }

    fn file_mut(&mut self, f: FileId) -> &mut Vec<Box<PageBuf>> {
        self.files
            .get_mut(f.0 as usize)
            .and_then(|o| o.as_mut())
            .expect("unknown or deleted file")
    }
}

impl DiskBackend for MemBackend {
    fn create_file(&mut self) -> FileId {
        self.files.push(Some(Vec::new()));
        FileId((self.files.len() - 1) as u32)
    }

    fn delete_file(&mut self, file: FileId) {
        if let Some(slot) = self.files.get_mut(file.0 as usize) {
            *slot = None;
        }
    }

    fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError> {
        let f = self.file_mut(file);
        f.push(Box::new([0u8; PAGE_SIZE]));
        Ok((f.len() - 1) as u32)
    }

    fn num_pages(&self, file: FileId) -> u32 {
        self.files
            .get(file.0 as usize)
            .and_then(|o| o.as_ref())
            .map_or(0, |f| f.len() as u32)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| FileId(i as u32))
            .collect()
    }

    fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError> {
        let pages = &self.file(file)[start as usize..start as usize + bufs.len()];
        for (buf, page) in bufs.iter_mut().zip(pages) {
            buf.copy_from_slice(&page[..]);
        }
        Ok(())
    }

    fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError> {
        let pages = &mut self.file_mut(file)[start as usize..start as usize + bufs.len()];
        for (buf, page) in bufs.iter().zip(pages) {
            page.copy_from_slice(&buf[..]);
        }
        Ok(())
    }
}

/// A handle that shares one backend between owners: the crash-recovery
/// harness "restarts the machine" by dropping a buffer pool (losing every
/// cached frame) while a second [`SharedBackend`] over the same inner
/// backend keeps the surviving disk image for the next pool. All calls
/// delegate through a mutex; cloning shares, never copies.
pub struct SharedBackend<B: DiskBackend> {
    inner: Arc<Mutex<B>>,
}

impl<B: DiskBackend> SharedBackend<B> {
    /// Wraps `backend` for sharing.
    pub fn new(backend: B) -> Self {
        SharedBackend {
            inner: Arc::new(Mutex::new(backend)),
        }
    }

    /// Runs `f` against the inner backend (test hooks, e.g. flipping a
    /// [`crate::fault::FaultHandle`] between incarnations).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        f(&mut self.inner.lock().unwrap())
    }
}

impl<B: DiskBackend> Clone for SharedBackend<B> {
    fn clone(&self) -> Self {
        SharedBackend {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: DiskBackend> DiskBackend for SharedBackend<B> {
    fn create_file(&mut self) -> FileId {
        self.inner.lock().unwrap().create_file()
    }

    fn delete_file(&mut self, file: FileId) {
        self.inner.lock().unwrap().delete_file(file)
    }

    fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError> {
        self.inner.lock().unwrap().allocate_page(file)
    }

    fn num_pages(&self, file: FileId) -> u32 {
        self.inner.lock().unwrap().num_pages(file)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.inner.lock().unwrap().live_files()
    }

    fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError> {
        self.inner.lock().unwrap().read_pages(file, start, bufs)
    }

    fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError> {
        self.inner.lock().unwrap().write_pages(file, start, bufs)
    }
}

/// How many times [`Disk`] re-attempts a transfer whose error is flagged
/// transient before giving up. Three attempts after the first failure
/// absorb any single-blip fault while keeping a persistently failing
/// "transient" device from hanging the engine.
pub const DEFAULT_RETRY_LIMIT: u32 = 3;

/// The accounting layer every page transfer goes through.
///
/// Stats discipline: a transfer is charged to the [`CostModel`] and the
/// [`IoStats`] counters **exactly once, when it succeeds**. Failed
/// attempts (including transient attempts that are later retried
/// successfully) are never charged, so fault-free reruns of a workload
/// report identical counters whether or not transient faults occurred.
pub struct Disk {
    backend: Box<dyn DiskBackend>,
    cost: CostModel,
    stats: Arc<AtomicIoStats>,
    /// The single head position: the last page transferred, across *all*
    /// files — one disk arm. A transfer is sequential only when it targets
    /// the same file at the head page or the one right after it; switching
    /// files always seeks. This is what makes batching matter: interleaved
    /// per-page streams (a scan racing a spill, partition fan-out writers)
    /// pay a seek per page, while a vectored batch pays one seek and then
    /// `N - 1` sequential transfers.
    head: Option<PageId>,
}

/// The buffers of one vectored transfer, either direction.
enum Run<'a, 'b> {
    Read(&'a mut [&'b mut PageBuf]),
    Write(&'a [&'b PageBuf]),
}

impl Run<'_, '_> {
    fn len(&self) -> usize {
        match self {
            Run::Read(bufs) => bufs.len(),
            Run::Write(bufs) => bufs.len(),
        }
    }

    /// Wire bytes of the run's `i`-th page (valid once it transferred).
    fn bytes(&self, i: usize) -> usize {
        match self {
            Run::Read(bufs) => crate::codec::transfer_bytes(&bufs[i][..]),
            Run::Write(bufs) => crate::codec::transfer_bytes(&bufs[i][..]),
        }
    }
}

impl Disk {
    /// Wraps a backend with the given cost model.
    pub fn new(backend: Box<dyn DiskBackend>, cost: CostModel) -> Self {
        Disk {
            backend,
            cost,
            stats: Arc::new(AtomicIoStats::default()),
            head: None,
        }
    }

    /// An in-memory disk with the default (year-2000 HDD) cost model.
    pub fn in_memory() -> Self {
        Disk::new(Box::new(MemBackend::new()), CostModel::default())
    }

    /// An in-memory disk that only counts pages (no simulated time).
    pub fn in_memory_free() -> Self {
        Disk::new(Box::new(MemBackend::new()), CostModel::free())
    }

    /// Current cumulative counters.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// A handle to the live counters, readable without holding any lock on
    /// the disk itself.
    #[inline]
    pub fn stats_handle(&self) -> Arc<AtomicIoStats> {
        Arc::clone(&self.stats)
    }

    /// The cost model in effect.
    #[inline]
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Charges one transferred page of `bytes` wire bytes (a packed
    /// page's sealed size, [`PAGE_SIZE`] for raw pages — see
    /// [`crate::codec::transfer_bytes`]) per
    /// [`CostModel::transfer_ns`].
    ///
    /// [`PAGE_SIZE`]: crate::page::PAGE_SIZE
    fn charge(&mut self, pid: PageId, is_read: bool, bytes: usize) {
        let seq = self
            .head
            .is_some_and(|h| h.file == pid.file && (pid.page == h.page + 1 || pid.page == h.page));
        self.head = Some(pid);
        self.stats
            .record(is_read, seq, self.cost.transfer_ns(seq, bytes));
    }

    /// See [`DiskBackend::create_file`].
    pub fn create_file(&mut self) -> FileId {
        self.backend.create_file()
    }

    /// See [`DiskBackend::delete_file`].
    pub fn delete_file(&mut self, file: FileId) {
        if self.head.is_some_and(|h| h.file == file) {
            self.head = None;
        }
        self.backend.delete_file(file);
    }

    /// See [`DiskBackend::allocate_page`]. Allocation itself is free; the
    /// subsequent write of the page is what gets charged.
    pub fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError> {
        self.backend.allocate_page(file)
    }

    /// See [`DiskBackend::num_pages`].
    pub fn num_pages(&self, file: FileId) -> u32 {
        self.backend.num_pages(file)
    }

    /// See [`DiskBackend::live_files`].
    pub fn live_files(&self) -> Vec<FileId> {
        self.backend.live_files()
    }

    /// The one transfer loop: moves `run` between the backend and the
    /// run's buffers, charging the cost model exactly once per transferred
    /// page — the first page of each backend call is classified against
    /// the head, the rest are sequential by construction.
    ///
    /// A transient fault resumes the run at the failing page (transferred
    /// prefix pages are charged and kept — they are *done*), up to
    /// [`DEFAULT_RETRY_LIMIT`] attempts per page; a persistent fault
    /// returns a [`BatchError`] whose [`done`](BatchError::done) prefix was
    /// transferred and charged, so accounting stays accurate for torn
    /// batches.
    fn transfer(
        &mut self,
        file: FileId,
        start: u32,
        mut run: Run<'_, '_>,
    ) -> Result<(), BatchError> {
        let is_read = matches!(run, Run::Read(_));
        let mut done = 0usize;
        let mut attempts = 0u32;
        while done < run.len() {
            let s = start + done as u32;
            let res = match &mut run {
                Run::Read(bufs) => self.backend.read_pages(file, s, &mut bufs[done..]),
                Run::Write(bufs) => self.backend.write_pages(file, s, &bufs[done..]),
            };
            let moved = match &res {
                Ok(()) => run.len() - done,
                Err(e) => e.done,
            };
            for i in done..done + moved {
                self.charge(PageId::new(file, start + i as u32), is_read, run.bytes(i));
            }
            done += moved;
            match res {
                Ok(()) => break,
                Err(BatchError { error, .. }) => {
                    if moved > 0 {
                        attempts = 0;
                    }
                    if error.transient && attempts < DEFAULT_RETRY_LIMIT {
                        attempts += 1;
                    } else {
                        return Err(BatchError { done, error });
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads a run of consecutive pages: one head movement (random unless
    /// the head already sits at `start`) plus sequential transfers.
    pub fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError> {
        self.transfer(file, start, Run::Read(bufs))
    }

    /// Writes a run of consecutive pages; the charging, resume and
    /// torn-batch rules of [`read_pages`](Disk::read_pages) apply.
    pub fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError> {
        self.transfer(file, start, Run::Write(bufs))
    }

    /// Reads one page: the one-page [`read_pages`](Disk::read_pages).
    pub fn read_page(&mut self, pid: PageId, buf: &mut PageBuf) -> Result<(), IoError> {
        self.read_pages(pid.file, pid.page, &mut [buf])
            .map_err(|e| e.error)
    }

    /// Writes one page: the one-page [`write_pages`](Disk::write_pages).
    pub fn write_page(&mut self, pid: PageId, buf: &PageBuf) -> Result<(), IoError> {
        self.write_pages(pid.file, pid.page, &[buf])
            .map_err(|e| e.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: Box<dyn DiskBackend>) {
        let mut disk = Disk::new(backend, CostModel::free());
        let f = disk.create_file();
        let p0 = disk.allocate_page(f).unwrap();
        let p1 = disk.allocate_page(f).unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(disk.num_pages(f), 2);
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(PageId::new(f, 1), &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 1), &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        disk.read_page(PageId::new(f, 0), &mut out).unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(Box::new(MemBackend::new()));
    }

    #[test]
    fn sequential_vs_random_classification() {
        let mut disk = Disk::in_memory();
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap(); // first access: random
        disk.read_page(PageId::new(f, 1), &mut buf).unwrap(); // sequential
        disk.read_page(PageId::new(f, 2), &mut buf).unwrap(); // sequential
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap(); // random (jump back)
        let s = disk.stats();
        assert_eq!(s.seq_reads, 2);
        assert_eq!(s.rand_reads, 2);
        assert_eq!(
            s.sim_ns,
            2 * CostModel::default().seq_ns + 2 * CostModel::default().rand_ns
        );
    }

    #[test]
    fn rereading_same_page_counts_sequential() {
        // Re-reading the page under the head costs no seek.
        let mut disk = Disk::in_memory();
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap();
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap();
        assert_eq!(disk.stats().seq_reads, 1);
        assert_eq!(disk.stats().rand_reads, 1);
    }

    #[test]
    fn head_is_global_across_files() {
        // One disk arm: interleaved per-page access to two files seeks on
        // every transfer, even though each file's pages ascend.
        let mut disk = Disk::in_memory();
        let f1 = disk.create_file();
        let f2 = disk.create_file();
        for _ in 0..3 {
            disk.allocate_page(f1).unwrap();
            disk.allocate_page(f2).unwrap();
        }
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f1, 0), &mut buf).unwrap();
        disk.read_page(PageId::new(f2, 0), &mut buf).unwrap();
        disk.read_page(PageId::new(f1, 1), &mut buf).unwrap();
        disk.read_page(PageId::new(f2, 1), &mut buf).unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 4);
        assert_eq!(s.seq_reads, 0);
    }

    #[test]
    fn batched_reads_charge_one_seek_per_run() {
        // The same interleaved workload, batched: each run pays one seek
        // plus sequential transfers.
        let mut disk = Disk::in_memory();
        let f1 = disk.create_file();
        let f2 = disk.create_file();
        for _ in 0..3 {
            disk.allocate_page(f1).unwrap();
            disk.allocate_page(f2).unwrap();
        }
        let mut a = [0u8; PAGE_SIZE];
        let mut b = [0u8; PAGE_SIZE];
        let mut c = [0u8; PAGE_SIZE];
        disk.read_pages(f1, 0, &mut [&mut a, &mut b, &mut c])
            .unwrap();
        disk.read_pages(f2, 0, &mut [&mut a, &mut b, &mut c])
            .unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 2, "one head movement per batch");
        assert_eq!(s.seq_reads, 4);
        assert_eq!(
            s.sim_ns,
            2 * CostModel::default().rand_ns + 4 * CostModel::default().seq_ns
        );
    }

    #[test]
    fn packed_pages_charge_their_sealed_bytes_not_the_full_page() {
        use crate::record::RecordParts;
        let mut disk = Disk::in_memory();
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        let mut packed = [0u8; PAGE_SIZE];
        let mut b = crate::codec::PackedPageBuilder::default();
        for i in 0..40u64 {
            b.push(RecordParts {
                start: 500 + 2 * i,
                height: 1,
                tag: 3,
            });
        }
        let (_, used) = b.seal_into(&mut packed);
        disk.write_page(PageId::new(f, 0), &packed).unwrap();
        let model = CostModel::default();
        let after_write = disk.stats().sim_ns;
        assert_eq!(after_write, model.transfer_ns(false, used));
        assert!(after_write < model.rand_ns, "compression credited in time");
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId::new(f, 0), &mut buf).unwrap();
        // The re-read is sequential (head parked on the page): pure
        // streaming of the sealed bytes.
        assert_eq!(
            disk.stats().sim_ns - after_write,
            model.seq_ns * used as u64 / PAGE_SIZE as u64
        );
    }

    #[test]
    fn batched_write_roundtrip_and_charging() {
        let mut disk = Disk::in_memory();
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut imgs = [[0u8; PAGE_SIZE]; 3];
        for (i, img) in imgs.iter_mut().enumerate() {
            img[0] = i as u8 + 1;
        }
        let refs: Vec<&PageBuf> = imgs.iter().collect();
        disk.write_pages(f, 1, &refs).unwrap();
        let s = disk.stats();
        assert_eq!((s.rand_writes, s.seq_writes), (1, 2));
        let mut out = [0u8; PAGE_SIZE];
        for i in 0..3u32 {
            disk.read_page(PageId::new(f, i + 1), &mut out).unwrap();
            assert_eq!(out[0], i as u8 + 1);
        }
        // Page 1 re-read after the batch left the head at page 3: random.
        // (Pages 2 and 3 followed sequentially above.)
        assert_eq!(disk.stats().rand_reads, 1);
        assert_eq!(disk.stats().seq_reads, 2);
    }

    #[test]
    fn batch_resumes_head_after_batched_run() {
        // A single-page read right after a batch continues the run.
        let mut disk = Disk::in_memory();
        let f = disk.create_file();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut a = [0u8; PAGE_SIZE];
        let mut b = [0u8; PAGE_SIZE];
        disk.read_pages(f, 0, &mut [&mut a, &mut b]).unwrap();
        disk.read_page(PageId::new(f, 2), &mut a).unwrap();
        assert_eq!(disk.stats().seq_reads, 2);
        assert_eq!(disk.stats().rand_reads, 1);
    }

    #[test]
    fn delete_file_frees_slot() {
        let mut disk = Disk::in_memory_free();
        let f = disk.create_file();
        disk.allocate_page(f).unwrap();
        assert_eq!(disk.live_files(), vec![f]);
        disk.delete_file(f);
        assert_eq!(disk.num_pages(f), 0);
        assert!(disk.live_files().is_empty());
        // Deleting twice is a no-op.
        disk.delete_file(f);
    }

    #[test]
    fn io_error_display_names_the_page() {
        let e = IoError {
            pid: PageId::new(FileId(3), 7),
            kind: IoErrorKind::Write,
            transient: false,
        };
        let s = e.to_string();
        assert!(s.contains("write"), "{s}");
        assert!(s.contains("3") && s.contains("7"), "{s}");
        let t = IoError {
            transient: true,
            ..e
        }
        .to_string();
        assert!(t.contains("transient"), "{t}");
    }
}
