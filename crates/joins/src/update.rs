//! Durable incremental element updates: [`CodeAllocator`] wired to the
//! write-ahead-logged heap path.
//!
//! The paper's §2.3.2 observes that virtual nodes make PBiTree codes
//! *durable*: inserting an element under a parent only claims a free
//! virtual slot, never renumbering existing codes. [`ElementStore`]
//! carries that property down to disk. Each mutation is one atomic
//! [`WalOp`](pbitree_storage::WalOp) commit:
//!
//! 1. the allocator hands out (or releases) a code in memory;
//! 2. the heap file logs and applies the page writes
//!    ([`HeapFile::insert_logged`] / [`HeapFile::delete_logged`]), with
//!    the zone map widened (insert) or recomputed (delete) so scan
//!    pushdown stays exact — and so the next delete can find its page
//!    from the map instead of scanning for it;
//! 3. on an I/O error the in-memory reservation is rolled back, so the
//!    allocator never leaks slots the disk state does not hold.
//!
//! After a crash, [`pbitree_storage::recover`] replays the committed
//! operations and [`ElementStore::open`] rebuilds both the heap handle
//! and the allocator from the surviving elements — every join over the
//! recovered store sees exactly the committed prefix of the update
//! history.

use pbitree_core::{Code, CodeAllocator, PBiTreeShape, UpdateError};
use pbitree_storage::{BufferPool, FileId, HeapFile, PoolError, Wal};

use crate::element::Element;

/// An updatable element set: an element heap file plus the code
/// allocator tracking its occupied PBiTree slots.
pub struct ElementStore {
    heap: HeapFile<Element>,
    alloc: CodeAllocator,
}

/// Why an [`ElementStore`] mutation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The code space under the anchor is exhausted (or the anchor is a
    /// leaf); the document needs re-embedding into a taller tree.
    Update(UpdateError),
    /// The storage layer failed; the store must be recovered before
    /// further use.
    Pool(PoolError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Update(e) => write!(f, "code allocation failed: {e}"),
            StoreError::Pool(e) => write!(f, "storage failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Update(e) => Some(e),
            StoreError::Pool(e) => Some(e),
        }
    }
}

impl From<UpdateError> for StoreError {
    fn from(e: UpdateError) -> Self {
        StoreError::Update(e)
    }
}

impl From<PoolError> for StoreError {
    fn from(e: PoolError) -> Self {
        StoreError::Pool(e)
    }
}

impl ElementStore {
    /// Creates an empty store over a fresh heap file.
    pub fn create(pool: &BufferPool, shape: PBiTreeShape) -> Self {
        ElementStore {
            heap: HeapFile::create(pool),
            alloc: CodeAllocator::from_codes(shape, []),
        }
    }

    /// Wraps an existing element heap file (e.g. a bulk-loaded document),
    /// scanning it once to seed the allocator with its occupied codes.
    pub fn from_heap(
        pool: &BufferPool,
        heap: HeapFile<Element>,
        shape: PBiTreeShape,
    ) -> Result<Self, PoolError> {
        let mut codes = Vec::with_capacity(heap.records() as usize);
        for r in heap.scan(pool).results() {
            codes.push(r?.code);
        }
        Ok(ElementStore {
            heap,
            alloc: CodeAllocator::from_codes(shape, codes),
        })
    }

    /// Reopens a store after a crash: rebuilds the heap handle (pages,
    /// record count, zone map) and the allocator from the recovered file,
    /// in one scan of it.
    pub fn open(pool: &BufferPool, file: FileId, shape: PBiTreeShape) -> Result<Self, PoolError> {
        let mut codes = Vec::new();
        let heap = HeapFile::<Element>::open_each(pool, file, |page| {
            codes.extend(page.iter().map(|e| e.code))
        })?;
        Ok(ElementStore {
            heap,
            alloc: CodeAllocator::from_codes(shape, codes),
        })
    }

    /// The underlying heap file — join operators take it by reference.
    pub fn heap(&self) -> &HeapFile<Element> {
        &self.heap
    }

    /// The code allocator's shape.
    pub fn shape(&self) -> PBiTreeShape {
        self.alloc.shape()
    }

    /// Number of stored elements.
    pub fn len(&self) -> u64 {
        self.heap.records()
    }

    /// Whether the store holds no elements.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether a code is occupied.
    pub fn contains(&self, code: Code) -> bool {
        self.alloc.contains(code)
    }

    /// Inserts a new element in a free virtual slot strictly below
    /// `parent`, committing the heap append through `wal`. Returns the
    /// allocated code.
    pub fn insert_under(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        parent: Code,
        tag: u32,
    ) -> Result<Code, StoreError> {
        let code = self.alloc.insert_child(parent)?;
        self.commit_insert(pool, wal, code, tag)
    }

    /// Inserts a new element in the nearest free slot right of `node` at
    /// its height (falling back to any slot under `parent`), committing
    /// through `wal`.
    pub fn insert_sibling_after(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        parent: Code,
        node: Code,
        tag: u32,
    ) -> Result<Code, StoreError> {
        let code = self.alloc.insert_sibling_after(parent, node)?;
        self.commit_insert(pool, wal, code, tag)
    }

    fn commit_insert(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        code: Code,
        tag: u32,
    ) -> Result<Code, StoreError> {
        let elem = Element { code, tag };
        if let Err(e) = self.heap.insert_logged(pool, wal, elem) {
            // The slot was reserved in memory only; release it so the
            // allocator mirrors the (unchanged) durable state.
            self.alloc.remove(code);
            return Err(e.into());
        }
        Ok(code)
    }

    /// Deletes the element stored as exactly `(code, tag)`, committing the
    /// heap mutation through `wal`; a stored element with this code but
    /// another tag does not match and nothing is removed. The slot becomes
    /// allocatable again. The heap locates the element's page through the
    /// file's zone map ([`HeapFile::delete_logged`]), so a remove reads the
    /// pages that can hold the code, not the file. Returns whether an
    /// element was removed.
    pub fn remove(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        code: Code,
        tag: u32,
    ) -> Result<bool, StoreError> {
        if !self.alloc.contains(code) {
            return Ok(false);
        }
        let removed = self.heap.delete_logged(pool, wal, &Element { code, tag })?;
        if removed {
            self.alloc.remove(code);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::JoinCtx;
    use crate::naive::block_nested_loop;
    use crate::sink::CountSink;
    use pbitree_storage::{recover, BufferPool, CostModel, Disk, MemBackend, SharedBackend};

    fn shared_pool() -> (SharedBackend<MemBackend>, BufferPool) {
        let backend = SharedBackend::new(MemBackend::default());
        let pool = BufferPool::new(Disk::new(Box::new(backend.clone()), CostModel::free()), 64);
        (backend, pool)
    }

    #[test]
    fn insert_remove_round_trip_with_zone_maps() {
        let (_b, pool) = shared_pool();
        let wal = Wal::create(&pool);
        let shape = PBiTreeShape::new(20).unwrap();
        let mut store = ElementStore::create(&pool, shape);
        let root = shape.root();
        let mut codes = Vec::new();
        for i in 0..500u32 {
            codes.push(store.insert_under(&pool, &wal, root, i).unwrap());
        }
        assert_eq!(store.len(), 500);
        // All codes distinct, all under the root.
        let mut raw: Vec<u64> = codes.iter().map(|c| c.get()).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 500);
        // Zone map reflects the inserts: file bounds cover every region.
        let (lo, hi) = store.heap().bounds().unwrap();
        for c in &codes {
            assert!(lo <= c.region_start() && c.region_end() <= hi);
        }
        // Remove half; their slots become allocatable again.
        for (i, c) in codes.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            assert!(store.remove(&pool, &wal, *c, i as u32).unwrap());
        }
        assert_eq!(store.len(), 250);
        assert!(!store.remove(&pool, &wal, codes[0], 0).unwrap());
        let refill = store.insert_under(&pool, &wal, root, 9999).unwrap();
        assert!(shape.contains(refill));
        assert_eq!(store.len(), 251);
    }

    #[test]
    fn recovered_store_answers_joins_like_never_crashed() {
        let (backend, pool) = shared_pool();
        let wal = Wal::create(&pool);
        let wal_file = wal.file();
        let shape = PBiTreeShape::new(16).unwrap();
        let mut store = ElementStore::create(&pool, shape);
        let root = shape.root();
        let mut anchors = Vec::new();
        for i in 0..40u32 {
            anchors.push(store.insert_under(&pool, &wal, root, i).unwrap());
        }
        for (i, &a) in anchors.iter().enumerate() {
            if a.height() > 0 {
                for j in 0..5u32 {
                    store.insert_under(&pool, &wal, a, 1000 + j).unwrap();
                }
            }
            if i % 3 == 0 {
                store.remove(&pool, &wal, a, i as u32).unwrap();
            }
        }
        let heap_file = store.heap().file_id();
        let expect: Vec<Element> = {
            let mut v = store.heap().read_all(&pool).unwrap();
            v.sort();
            v
        };
        wal.flush(&pool).unwrap();
        // Crash: the pool (and its dirty pages) vanish; the log survives.
        drop(store);
        drop(wal);
        drop(pool);
        let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), 64);
        let (wal, report) = recover(&pool, wal_file).unwrap();
        assert!(report.ops_applied > 0);
        let store = ElementStore::open(&pool, heap_file, shape).unwrap();
        let got: Vec<Element> = {
            let mut v = store.heap().read_all(&pool).unwrap();
            v.sort();
            v
        };
        assert_eq!(got, expect);
        // The recovered store joins identically to its pre-crash state:
        // the self containment join equals the model computation.
        let mut model = 0u64;
        for a in &expect {
            for d in &expect {
                if a.code.is_ancestor_of(d.code) {
                    model += 1;
                }
            }
        }
        let ctx = JoinCtx::new(pool, shape);
        let mut sink = CountSink::default();
        let stats = block_nested_loop(&ctx, store.heap(), store.heap(), &mut sink).unwrap();
        assert_eq!(stats.pairs, model);
        // And it keeps accepting durable updates.
        let mut store = store;
        store.insert_under(&ctx.pool, &wal, root, 7).unwrap();
        assert_eq!(store.len(), expect.len() as u64 + 1);
    }

    /// Recomputes the exact per-page zones from page contents and checks
    /// the registered zone map covers them (page zones may be wider than
    /// exact after inserts — widen-only — but must never exclude a
    /// stored record, or pushdown scans would silently drop results).
    fn assert_zones_cover(pool: &BufferPool, store: &ElementStore) {
        let zones = pool
            .file_zones(store.heap().file_id())
            .expect("element files keep zone maps");
        let mut scan = store.heap().scan(pool);
        while let Some(e) = scan.next_record().unwrap() {
            // Once a record is out, the scan's position is on its page.
            let page = scan.position().page();
            let z = zones
                .page(page)
                .unwrap_or_else(|| panic!("page {page} lost its zone entry"));
            let (lo, hi) = (e.code.region_start(), e.code.region_end());
            assert!(
                z.covers(lo, hi, e.code.height()),
                "zone {z:?} of page {page} excludes record [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn zone_map_stays_correct_after_every_insert_and_delete() {
        let (_b, pool) = shared_pool();
        let wal = Wal::create(&pool);
        let shape = PBiTreeShape::new(18).unwrap();
        let mut store = ElementStore::create(&pool, shape);
        let root = shape.root();
        let mut codes = Vec::new();
        for i in 0..400u32 {
            let c = store.insert_under(&pool, &wal, root, i).unwrap();
            codes.push((c, i));
            if i % 37 == 0 {
                assert_zones_cover(&pool, &store);
            }
        }
        assert_zones_cover(&pool, &store);
        for (i, &(c, tag)) in codes.iter().enumerate() {
            if i % 3 != 0 {
                continue;
            }
            assert!(store.remove(&pool, &wal, c, tag).unwrap());
            if i % 39 == 0 {
                // Deletes rebuild the page's zone exactly.
                assert_zones_cover(&pool, &store);
            }
        }
        assert_zones_cover(&pool, &store);
    }

    #[test]
    fn failed_allocation_leaves_store_unchanged() {
        let (_b, pool) = shared_pool();
        let wal = Wal::create(&pool);
        // Height-3 tree: the root's subtree has 6 proper slots.
        let shape = PBiTreeShape::new(3).unwrap();
        let mut store = ElementStore::create(&pool, shape);
        let root = shape.root();
        for i in 0..6u32 {
            store.insert_under(&pool, &wal, root, i).unwrap();
        }
        let err = store.insert_under(&pool, &wal, root, 6).unwrap_err();
        assert!(matches!(err, StoreError::Update(_)));
        assert_eq!(store.len(), 6);
    }
}
