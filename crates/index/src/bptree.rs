//! A paged B+-tree over the buffer pool.
//!
//! Node layout (within one 4 KiB page):
//!
//! ```text
//! leaf:     [kind: u8 = 0][pad: u8][count: u16][next_leaf: u32] (K V)*
//! internal: [kind: u8 = 1][pad: u8][count: u16][child0: u32]    (K child:u32)*
//! ```
//!
//! An internal node with `count` keys has `count + 1` children; key `i`
//! separates child `i` from child `i+1` (keys in child `i+1` are `>= key i`,
//! keys in child `i` are `< key i` for bulk-loaded trees; duplicate keys are
//! permitted and preserved on insert). The private `node` module is the
//! only code that knows these byte offsets.
//!
//! A tree is one of two species, fixed at construction:
//!
//! * **bulk-loaded** ([`BPlusTree::bulk_load`]) — built bottom-up from
//!   sorted input, read-only afterwards (the index INLJN builds on the fly
//!   and drops after the join);
//! * **logged** ([`BPlusTree::new_logged`] / [`BPlusTree::open_logged`]) —
//!   page 0 is a metadata record and every mutation commits through the
//!   write-ahead log as one atomic operation.
//!
//! Probes go through the pool, so every descent charges realistic random
//! I/O — the effect the paper's INLJN heuristic (outer = smaller set) is
//! designed around.

use std::marker::PhantomData;

use pbitree_storage::util::fnv1a32;
use pbitree_storage::{
    BufferPool, FileId, FixedRecord, PageBuf, PageId, PoolError, ScanOptions, TempFile, Wal, WalOp,
    PAGE_SIZE,
};

use node::{Node, NIL};

/// Page number of a logged tree's metadata page (root / height / len —
/// the handle state that must survive a crash).
const META_PAGE: u32 = 0;
/// Magic dword opening a logged tree's metadata page.
const META_MAGIC: u32 = 0x5042_5431; // "PBT1"
/// Bytes of meta payload covered by the trailing checksum.
const META_LEN: usize = 24;

#[inline]
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
}

#[inline]
fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// The node codec: the one place that knows the page layout in the module
/// docs. Reads go through [`Node`], a borrowed view decoding header fields
/// and entries in place; writes go through [`encode_leaf`] /
/// [`encode_internal`] into a page image.
mod node {
    use super::{get_u16, get_u32, FixedRecord, PhantomData, PAGE_SIZE};

    const HDR: usize = 8;
    const KIND_LEAF: u8 = 0;
    const KIND_INTERNAL: u8 = 1;
    const COUNT_OFF: usize = 2;
    /// `next_leaf` in a leaf, `child0` in an internal node.
    const LINK_OFF: usize = 4;
    /// "No page" sentinel for leaf chaining.
    pub const NIL: u32 = u32::MAX;

    /// Max `(K, P)` entries in one node page. An internal node's `child0`
    /// lives in the header, so its capacity counts keys (children - 1).
    pub const fn capacity<K: FixedRecord, P: FixedRecord>() -> usize {
        (PAGE_SIZE - HDR) / (K::SIZE + P::SIZE)
    }

    #[inline]
    pub fn is_leaf(page: &[u8]) -> bool {
        page[0] == KIND_LEAF
    }

    /// Read view over one node page: `count` fixed-width `(key, payload)`
    /// entries behind the header. A leaf is a `Node<K, V>` (payload =
    /// value), an internal node a `Node<K, u32>` (payload `i` = child
    /// `i + 1`).
    pub struct Node<'a, K, P> {
        page: &'a [u8],
        _marker: PhantomData<(K, P)>,
    }

    impl<'a, K: FixedRecord + Ord, P: FixedRecord> Node<'a, K, P> {
        const ESZ: usize = K::SIZE + P::SIZE;

        #[inline]
        fn view(page: &'a [u8], kind: u8) -> Self {
            debug_assert_eq!(page[0], kind, "node kind mismatch");
            Node {
                page,
                _marker: PhantomData,
            }
        }

        #[inline]
        pub fn leaf(page: &'a [u8]) -> Self {
            Self::view(page, KIND_LEAF)
        }

        #[inline]
        pub fn count(&self) -> usize {
            get_u16(self.page, COUNT_OFF) as usize
        }

        /// The next leaf in key order, [`NIL`] at the end of the chain.
        #[inline]
        pub fn next(&self) -> u32 {
            get_u32(self.page, LINK_OFF)
        }

        #[inline]
        pub fn key(&self, i: usize) -> K {
            let off = HDR + i * Self::ESZ;
            K::read(&self.page[off..off + K::SIZE])
        }

        #[inline]
        pub fn value(&self, i: usize) -> P {
            let off = HDR + i * Self::ESZ + K::SIZE;
            P::read(&self.page[off..off + P::SIZE])
        }

        /// All entries, for the write paths that rebuild a node.
        pub fn entries(&self) -> Vec<(K, P)> {
            (0..self.count())
                .map(|i| (self.key(i), self.value(i)))
                .collect()
        }

        /// First index whose key is `>= key` (`count` if none).
        pub fn lower_bound(&self, key: &K) -> usize {
            self.partition_point(|k| k < key)
        }

        /// First index whose key is `> key` (`count` if none).
        pub fn upper_bound(&self, key: &K) -> usize {
            self.partition_point(|k| k <= key)
        }

        fn partition_point(&self, pred: impl Fn(&K) -> bool) -> usize {
            let (mut lo, mut hi) = (0, self.count());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if pred(&self.key(mid)) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        }
    }

    impl<'a, K: FixedRecord + Ord> Node<'a, K, u32> {
        #[inline]
        pub fn internal(page: &'a [u8]) -> Self {
            Self::view(page, KIND_INTERNAL)
        }

        #[inline]
        pub fn child0(&self) -> u32 {
            get_u32(self.page, LINK_OFF)
        }

        /// The child at `branch`: `child0` for branch 0, entry
        /// `branch - 1`'s child after that.
        #[inline]
        pub fn child(&self, branch: usize) -> u32 {
            if branch == 0 {
                self.child0()
            } else {
                self.value(branch - 1)
            }
        }
    }

    fn encode<K: FixedRecord, P: FixedRecord>(
        kind: u8,
        link: u32,
        entries: &[(K, P)],
        img: &mut [u8],
    ) -> usize {
        let esz = K::SIZE + P::SIZE;
        img[0] = kind;
        img[COUNT_OFF..COUNT_OFF + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        img[LINK_OFF..LINK_OFF + 4].copy_from_slice(&link.to_le_bytes());
        for (i, (k, p)) in entries.iter().enumerate() {
            let off = HDR + i * esz;
            k.write(&mut img[off..off + K::SIZE]);
            p.write(&mut img[off + K::SIZE..off + esz]);
        }
        HDR + entries.len() * esz
    }

    /// Writes a leaf into `img` and returns the bytes used. Only that
    /// prefix is meaningful: the count bounds every read, so whatever
    /// follows is unreachable.
    pub fn encode_leaf<K: FixedRecord, V: FixedRecord>(
        next: u32,
        entries: &[(K, V)],
        img: &mut [u8],
    ) -> usize {
        encode(KIND_LEAF, next, entries, img)
    }

    /// Writes an internal node into `img` (used prefix as [`encode_leaf`]).
    pub fn encode_internal<K: FixedRecord>(
        child0: u32,
        entries: &[(K, u32)],
        img: &mut [u8],
    ) -> usize {
        encode(KIND_INTERNAL, child0, entries, img)
    }

    /// The `(offset, bytes)` of a logged page write that repoints a
    /// leaf's chain pointer.
    #[inline]
    pub fn next_patch(next: u32) -> (usize, [u8; 4]) {
        (LINK_OFF, next.to_le_bytes())
    }

    /// A one-slot edit of a node as the page edits that make it, applied
    /// and logged in this order: `shift` moves the entries behind the
    /// edited slot, `entry` writes the inserted entry into its slot, and
    /// `header` replaces the node header.
    pub struct Splice {
        /// `(from, to, len)`: the entries behind the slot move from `from`
        /// to `to` (`len` 0 when there are none).
        pub shift: (usize, usize, usize),
        /// The inserted entry's offset and bytes.
        pub entry: Option<(usize, Vec<u8>)>,
        /// The new header: the new count and `link`.
        pub header: [u8; HDR],
    }

    /// A one-slot edit of the node in `page`: `insert`, if any, goes into
    /// slot `pos` after the `remove` entries there are dropped, and the
    /// entries behind shift to make room or close the gap. Nothing is
    /// decoded, entries before `pos` keep their bytes, and the shifted
    /// ones are a move, not bytes, so the edit's size does not grow with
    /// the node.
    pub fn splice<K: FixedRecord, P: FixedRecord>(
        page: &[u8],
        link: u32,
        pos: usize,
        remove: usize,
        insert: Option<(&K, &P)>,
    ) -> Splice {
        let esz = K::SIZE + P::SIZE;
        let count = get_u16(page, COUNT_OFF) as usize;
        let added = usize::from(insert.is_some());
        let mut header = [0u8; HDR];
        header.copy_from_slice(&page[..HDR]);
        let new_count = (count - remove + added) as u16;
        header[COUNT_OFF..COUNT_OFF + 2].copy_from_slice(&new_count.to_le_bytes());
        header[LINK_OFF..LINK_OFF + 4].copy_from_slice(&link.to_le_bytes());
        let from = HDR + (pos + remove) * esz;
        let shift = (from, HDR + (pos + added) * esz, HDR + count * esz - from);
        let entry = insert.map(|(k, p)| {
            let mut bytes = vec![0u8; esz];
            k.write(&mut bytes[..K::SIZE]);
            p.write(&mut bytes[K::SIZE..]);
            (HDR + pos * esz, bytes)
        });
        Splice {
            shift,
            entry,
            header,
        }
    }
}

/// A B+-tree keyed by `K` with values `V`, both fixed-width records.
/// Keys sort by their `Ord`; duplicates are allowed.
pub struct BPlusTree<K: FixedRecord + Ord, V: FixedRecord> {
    file: FileId,
    root: u32,
    height: u32,
    len: u64,
    /// Whether page 0 is this tree's meta record, i.e. the tree came from
    /// [`new_logged`](Self::new_logged) / [`open_logged`](Self::open_logged)
    /// and may be mutated. A bulk-loaded tree keeps a node on page 0.
    logged: bool,
    _marker: PhantomData<(K, V)>,
}

/// Bulk-load staging: finished node images queue here and reach the file
/// through one vectored write-through append per `batch_cap` pages (one
/// head movement per batch instead of per page). Pages get consecutive
/// numbers in push order, so a node's page number is known when pushed.
struct Appender<'p, K> {
    pool: &'p BufferPool,
    file: FileId,
    batch_cap: usize,
    ready: Vec<(K, Box<PageBuf>)>,
    /// `(first key, page)` of every node appended since the level began.
    level: Vec<(K, u32)>,
    /// Images pushed so far = the page number the next push receives.
    pushed: u32,
}

impl<K: Copy> Appender<'_, K> {
    fn push(&mut self, first_key: K, img: Box<PageBuf>) -> Result<(), PoolError> {
        self.ready.push((first_key, img));
        self.pushed += 1;
        if self.ready.len() >= self.batch_cap {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), PoolError> {
        if self.ready.is_empty() {
            return Ok(());
        }
        let bufs: Vec<&PageBuf> = self.ready.iter().map(|(_, img)| &**img).collect();
        let start = self.pool.append_pages_through(self.file, &bufs)?;
        debug_assert_eq!(start, self.pushed - self.ready.len() as u32);
        let pages = start..;
        self.level
            .extend(self.ready.drain(..).zip(pages).map(|((fk, _), p)| (fk, p)));
        Ok(())
    }
}

impl<K: FixedRecord + Ord, V: FixedRecord> BPlusTree<K, V> {
    /// Bulk-loads a tree from entries that are **already sorted by key**.
    /// Leaves are packed to capacity; one sequential pass per level. The
    /// result is read-only.
    ///
    /// # Panics
    /// Debug-asserts the input ordering.
    pub fn bulk_load<I>(pool: &BufferPool, entries: I) -> Result<Self, PoolError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let entries = entries.into_iter().map(Ok);
        Self::bulk_load_fallible_with(pool, entries, ScanOptions::default())
    }

    /// [`bulk_load`](Self::bulk_load) over a fallible entry stream — a
    /// producer reading through the pool (e.g. a heap scan under fault
    /// injection) propagates its I/O errors instead of panicking — with
    /// explicit [`ScanOptions`]: node images are staged in loader-private
    /// memory and appended with one vectored write-through per
    /// `opts.as_write()` batch.
    pub fn bulk_load_fallible_with<I>(
        pool: &BufferPool,
        entries: I,
        opts: ScanOptions,
    ) -> Result<Self, PoolError>
    where
        I: IntoIterator<Item = Result<(K, V), PoolError>>,
    {
        let file = pool.create_file();
        // A load that fails part-way deletes its half-built file.
        let guard = TempFile::new(pool, file, ());
        let lcap = node::capacity::<K, V>();
        let mut out = Appender {
            pool,
            file,
            batch_cap: opts.as_write().depth().max(1),
            ready: Vec::new(),
            level: Vec::new(),
            pushed: 0,
        };
        // Leaf level, written *through* the pool (sequential bulk output,
        // no frame pollution). A full leaf is held back until its successor
        // is full too (or the input ends): only then is it known whether
        // its chain pointer is its own page number plus one or NIL, so the
        // chain never points past the file.
        let leaf = |entries: &[(K, V)], next: u32, out: &mut Appender<'_, K>| {
            let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
            node::encode_leaf(next, entries, &mut img[..]);
            out.push(entries[0].0, img)
        };
        let mut held: Option<Vec<(K, V)>> = None;
        let mut pending: Vec<(K, V)> = Vec::with_capacity(lcap);
        let mut len = 0u64;
        let mut entries = entries.into_iter();
        loop {
            let entry = entries.next().transpose()?;
            if let Some((k, v)) = entry {
                debug_assert!(
                    pending.last().is_none_or(|(pk, _)| *pk <= k),
                    "bulk_load input must be sorted"
                );
                pending.push((k, v));
                len += 1;
            }
            if pending.len() == lcap || (entry.is_none() && !pending.is_empty()) {
                let full = std::mem::replace(&mut pending, Vec::with_capacity(lcap));
                if let Some(prev) = held.replace(full) {
                    leaf(&prev, out.pushed + 1, &mut out)?;
                }
            }
            if entry.is_none() {
                break;
            }
        }
        let Some(last) = held else {
            // Empty input: a single empty root leaf.
            let (root, mut page) = pool.new_page(file)?;
            node::encode_leaf::<K, V>(NIL, &[], &mut page[..]);
            guard.keep();
            return Ok(Self::handle(file, root, 1, 0, false));
        };
        leaf(&last, NIL, &mut out)?;
        out.flush()?;

        // Internal levels until a single root remains, batched the same way.
        let icap = node::capacity::<K, u32>();
        let mut height = 1;
        while out.level.len() > 1 {
            height += 1;
            // Each internal node takes up to icap+1 children.
            for group in std::mem::take(&mut out.level).chunks(icap + 1) {
                let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
                node::encode_internal(group[0].1, &group[1..], &mut img[..]);
                out.push(group[0].0, img)?;
            }
            out.flush()?;
        }
        guard.keep();
        Ok(Self::handle(file, out.level[0].1, height, len, false))
    }

    fn handle(file: FileId, root: u32, height: u32, len: u64, logged: bool) -> Self {
        BPlusTree {
            file,
            root,
            height,
            len,
            logged,
            _marker: PhantomData,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = root is a leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The underlying file.
    #[inline]
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Releases the tree's disk space.
    pub fn drop_file(self, pool: &BufferPool) {
        pool.delete_file(self.file);
    }

    #[inline]
    fn pid(&self, pno: u32) -> PageId {
        PageId::new(self.file, pno)
    }

    /// Descends from node `pno` to a leaf, taking the branch `branch_of`
    /// picks at each internal node and reporting `(node, branch)` to
    /// `visit`. Returns the leaf's page number.
    fn descend(
        &self,
        pool: &BufferPool,
        mut pno: u32,
        branch_of: impl Fn(&Node<'_, K, u32>) -> usize,
        mut visit: impl FnMut(u32, usize),
    ) -> Result<u32, PoolError> {
        loop {
            let page = pool.read_page(self.pid(pno))?;
            if node::is_leaf(&page[..]) {
                return Ok(pno);
            }
            let n = Node::<K, u32>::internal(&page[..]);
            let branch = branch_of(&n);
            visit(pno, branch);
            pno = n.child(branch);
        }
    }

    /// Returns the value of the **first** entry with the given key, if any.
    pub fn get(&self, pool: &BufferPool, key: &K) -> Result<Option<V>, PoolError> {
        let mut iter = self.range_from(pool, key)?;
        match iter.next_entry()? {
            Some((k, v)) if k == *key => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// Iterates entries with keys `>= key`, in key order, across leaves.
    pub fn range_from<'a>(
        &self,
        pool: &'a BufferPool,
        key: &K,
    ) -> Result<RangeIter<'a, K, V>, PoolError> {
        // Lower bound at every level: with duplicate keys the descent
        // lands on the *leftmost* leaf that can hold `key`; the forward
        // leaf chain covers duplicates that spilled rightward.
        let leaf = self.descend(pool, self.root, |n| n.lower_bound(key), |_, _| ())?;
        let page = pool.read_page(self.pid(leaf))?;
        let idx = Node::<K, V>::leaf(&page[..]).lower_bound(key);
        drop(page);
        Ok(RangeIter {
            pool,
            file: self.file,
            leaf,
            idx,
            _marker: PhantomData,
        })
    }

    /// Iterates all entries in key order.
    pub fn iter<'a>(&self, pool: &'a BufferPool) -> Result<RangeIter<'a, K, V>, PoolError> {
        Ok(RangeIter {
            pool,
            file: self.file,
            leaf: self.descend(pool, self.root, |_| 0, |_, _| ())?,
            idx: 0,
            _marker: PhantomData,
        })
    }

    // ----- logged trees ------------------------------------------------
    //
    // Every structural change — slot edits of leaves and internal nodes,
    // splits, root growth, the meta update — goes through one atomic
    // [`WalOp`]. Every node page is logged whole once when it is made (a
    // new tree's root leaf, both halves of a split, a new root) as a page
    // image of its occupied prefix, which zero-fills the rest of the page.
    // A node that keeps its page logs only what the edit does
    // ([`node::splice`]): a move of the entries behind the slot, the
    // inserted entry and the 8-byte header, whatever the node holds. A
    // move is not idempotent on its own; `wal::recover` rebuilds each page
    // from its last logged image and redoes only the records after it, so
    // recovery lands every page in the same state however often it runs.
    // After a crash it replays the committed operations and `open_logged`
    // reconstructs the handle from the meta page; un-committed operations
    // never happened.

    /// Creates an empty *logged* tree: meta page plus an empty root leaf,
    /// committed as one operation through `wal`.
    pub fn new_logged(pool: &BufferPool, wal: &Wal) -> Result<Self, PoolError> {
        let file = pool.create_file();
        let mut op = WalOp::new();
        let meta = pool.allocate_page(file)?;
        debug_assert_eq!(meta, META_PAGE, "meta page claims page 0");
        op.alloc(PageId::new(file, meta));
        let root = pool.allocate_page(file)?;
        op.alloc(PageId::new(file, root));
        log_leaf::<K, V>(&mut op, PageId::new(file, root), NIL, &[]);
        let mut tree = Self::handle(file, root, 1, 0, true);
        tree.commit(pool, wal, op, root, 1, 0)?;
        Ok(tree)
    }

    /// Reconstructs the handle of a logged tree from its meta page — the
    /// post-crash path, after [`pbitree_storage::wal::recover`] has
    /// replayed the file's pages.
    pub fn open_logged(pool: &BufferPool, file: FileId) -> Result<Self, PoolError> {
        let pid = PageId::new(file, META_PAGE);
        let page = pool.read_page(pid)?;
        let corrupt = |reason: &'static str| PoolError::Corrupt { pid, reason };
        if get_u32(&page[..], 0) != META_MAGIC {
            return Err(corrupt("logged-tree meta page magic mismatch"));
        }
        if get_u32(&page[..], META_LEN) != fnv1a32(&[&page[..META_LEN]]) {
            return Err(corrupt("logged-tree meta page checksum mismatch"));
        }
        if get_u16(&page[..], 20) as usize != K::SIZE || get_u16(&page[..], 22) as usize != V::SIZE
        {
            return Err(corrupt("logged-tree meta key/value sizes mismatch"));
        }
        let root = get_u32(&page[..], 4);
        if root >= pool.num_pages(file) {
            return Err(corrupt("logged-tree meta root beyond file"));
        }
        let len = u64::from_le_bytes(page[12..20].try_into().unwrap());
        Ok(Self::handle(file, root, get_u32(&page[..], 8), len, true))
    }

    /// Adds the meta record for the new handle state to `op`, commits it,
    /// and only then moves the handle: a failed commit leaves it as it was.
    fn commit(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        mut op: WalOp,
        root: u32,
        height: u32,
        len: u64,
    ) -> Result<(), PoolError> {
        let meta = meta_record::<K, V>(root, height, len);
        op.page_write(self.pid(META_PAGE), 0, &meta);
        wal.commit(pool, op)?;
        (self.root, self.height, self.len) = (root, height, len);
        Ok(())
    }

    /// Mutations commit a meta record to page 0, which only a logged tree
    /// reserves; on a bulk-loaded tree that page is a live node.
    fn require_logged(&self) -> Result<(), PoolError> {
        if self.logged {
            return Ok(());
        }
        Err(PoolError::Corrupt {
            pid: self.pid(META_PAGE),
            reason: "bulk-loaded tree is read-only: it has no meta page to log against",
        })
    }

    /// Inserts an entry through the write-ahead log, splitting nodes as
    /// needed; a duplicate key goes after its equals. Every page the
    /// insert rewrites (leaf, split siblings, ancestors, a grown root)
    /// plus the meta page commits as one atomic [`WalOp`]. On an I/O
    /// error the tree must be considered failed and recovered before
    /// further use. A bulk-loaded tree refuses with an error.
    pub fn insert_logged(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        key: K,
        value: V,
    ) -> Result<(), PoolError> {
        self.require_logged()?;
        let mut op = WalOp::new();
        let mut root = self.root;
        let mut height = self.height;
        if let Some((sep, right)) = self.insert_rec(pool, wal, &mut op, self.root, &key, &value)? {
            let pno = alloc_tree_page(pool, wal, &mut op, self.file)?;
            log_internal(&mut op, self.pid(pno), self.root, &[(sep, right)]);
            root = pno;
            height += 1;
        }
        self.commit(pool, wal, op, root, height, self.len + 1)
    }

    /// Stages the insert below node `pno` into `op`. Returns the
    /// `(separator, new right sibling)` the parent must absorb when `pno`
    /// split.
    fn insert_rec(
        &self,
        pool: &BufferPool,
        wal: &Wal,
        op: &mut WalOp,
        pno: u32,
        key: &K,
        value: &V,
    ) -> Result<Option<(K, u32)>, PoolError> {
        let (child, branch) = {
            let page = pool.read_page(self.pid(pno))?;
            if node::is_leaf(&page[..]) {
                let leaf = Node::<K, V>::leaf(&page[..]);
                // Upper bound: after existing duplicates.
                let (next, pos) = (leaf.next(), leaf.upper_bound(key));
                if leaf.count() < node::capacity::<K, V>() {
                    let edit = node::splice(&page[..], next, pos, 0, Some((key, value)));
                    log_splice(op, self.pid(pno), edit);
                    return Ok(None);
                }
                let mut entries = leaf.entries();
                drop(page);
                entries.insert(pos, (*key, *value));
                let (left, right) = entries.split_at(entries.len() / 2);
                let rpno = alloc_tree_page(pool, wal, op, self.file)?;
                log_leaf(op, self.pid(pno), rpno, left);
                log_leaf(op, self.pid(rpno), next, right);
                return Ok(Some((right[0].0, rpno)));
            }
            let n = Node::<K, u32>::internal(&page[..]);
            let branch = n.lower_bound(key);
            (n.child(branch), branch)
        };
        let Some((sep, right)) = self.insert_rec(pool, wal, op, child, key, value)? else {
            return Ok(None);
        };
        // Absorb the child split.
        let page = pool.read_page(self.pid(pno))?;
        let n = Node::<K, u32>::internal(&page[..]);
        let child0 = n.child0();
        if n.count() < node::capacity::<K, u32>() {
            let edit = node::splice(&page[..], child0, branch, 0, Some((&sep, &right)));
            log_splice(op, self.pid(pno), edit);
            return Ok(None);
        }
        // Split: left keeps half the keys, the middle key moves up.
        let mut entries = n.entries();
        drop(page);
        entries.insert(branch, (sep, right));
        let mid = entries.len() / 2;
        let (up_key, up_child) = entries[mid];
        log_internal(op, self.pid(pno), child0, &entries[..mid]);
        let rpno = alloc_tree_page(pool, wal, op, self.file)?;
        log_internal(op, self.pid(rpno), up_child, &entries[mid + 1..]);
        Ok(Some((up_key, rpno)))
    }

    /// Deletes the **first** entry with the given key, through the
    /// write-ahead log. A leaf emptied by the delete does not stay
    /// chained: it is unlinked from the leaf chain, removed from its
    /// parent, and freed to `wal`'s free list (internal nodes left
    /// childless go with it, and the root collapses while it has a
    /// single child) — all staged into the same atomic [`WalOp`] as the
    /// delete itself, so churn-heavy workloads recycle their pages
    /// through [`Wal::acquire_free_page`] instead of growing the file
    /// with dead leaves. No merging of *underfull* (non-empty) nodes
    /// occurs — the PBiTree workload deletes are sparse ejections from a
    /// code index, not bulk retractions. Returns whether an entry was
    /// removed. A bulk-loaded tree refuses with an error.
    pub fn delete_logged(
        &mut self,
        pool: &BufferPool,
        wal: &Wal,
        key: &K,
    ) -> Result<bool, PoolError> {
        self.require_logged()?;
        // Descend as `range_from` does, recording the parent path —
        // `(internal page, branch taken)` per level — so an emptied leaf
        // knows its parent and its chain predecessor.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let record = |p, b| path.push((p, b));
        let mut pno = self.descend(pool, self.root, |n| n.lower_bound(key), record)?;
        loop {
            let page = pool.read_page(self.pid(pno))?;
            let leaf = Node::<K, V>::leaf(&page[..]);
            let (count, next, pos) = (leaf.count(), leaf.next(), leaf.lower_bound(key));
            if pos < count && leaf.key(pos) == *key {
                let mut op = WalOp::new();
                let (root, height) = if count == 1 && pno != self.root {
                    drop(page);
                    self.unlink_empty_leaf(pool, &mut op, pno, next, &path)?
                } else {
                    // The root leaf may sit empty — an empty tree keeps
                    // its root — and a non-empty leaf just closes the gap.
                    let edit = node::splice::<K, V>(&page[..], next, pos, 1, None);
                    drop(page);
                    log_splice(&mut op, self.pid(pno), edit);
                    (self.root, self.height)
                };
                self.commit(pool, wal, op, root, height, self.len - 1)?;
                return Ok(true);
            }
            drop(page);
            // Duplicates of a key can spill into following leaves; stop
            // once a larger key (or the end of the chain) proves absence.
            if pos < count || next == NIL {
                return Ok(false);
            }
            // Step the recorded path one leaf to the right alongside the
            // chain pointer; tree order and chain order agree.
            let stepped = self.advance_right(pool, &mut path)?;
            debug_assert_eq!(stepped, Some(next), "leaf chain diverged from tree order");
            pno = stepped.ok_or(PoolError::Corrupt {
                pid: self.pid(pno),
                reason: "leaf chain points past the tree's last leaf",
            })?;
        }
    }

    /// Advances a recorded descent path to the next leaf in tree order:
    /// pops exhausted ancestors, takes the next branch, and descends
    /// leftmost back to leaf level. `None` past the last leaf.
    fn advance_right(
        &self,
        pool: &BufferPool,
        path: &mut Vec<(u32, usize)>,
    ) -> Result<Option<u32>, PoolError> {
        while let Some((pno, branch)) = path.pop() {
            let child = {
                let page = pool.read_page(self.pid(pno))?;
                let n = Node::<K, u32>::internal(&page[..]);
                (branch < n.count()).then(|| n.child(branch + 1))
            };
            if let Some(child) = child {
                path.push((pno, branch + 1));
                let leaf = self.descend(pool, child, |_| 0, |p, b| path.push((p, b)))?;
                return Ok(Some(leaf));
            }
        }
        Ok(None)
    }

    /// The leaf immediately left of the leaf the descent `path` leads
    /// to: the rightmost leaf under the closest left sibling branch.
    /// `None` when the path leads to the leftmost leaf.
    fn left_neighbor_leaf(
        &self,
        pool: &BufferPool,
        path: &[(u32, usize)],
    ) -> Result<Option<u32>, PoolError> {
        let Some(&(pno, branch)) = path.iter().rev().find(|&&(_, branch)| branch > 0) else {
            return Ok(None);
        };
        let sibling = {
            let page = pool.read_page(self.pid(pno))?;
            Node::<K, u32>::internal(&page[..]).child(branch - 1)
        };
        self.descend(pool, sibling, |n| n.count(), |_, _| ())
            .map(Some)
    }

    /// Stages the structural removal of the emptied non-root leaf `pno`
    /// into `op`: the chain predecessor's next pointer is patched past
    /// it, its parent entry is removed (ancestors left childless are
    /// removed recursively), every removed page is logged `Free`, and
    /// the root collapses while it is an internal node with a single
    /// child. All reads here see pre-`op` state — the staged writes and
    /// the in-memory walk never touch the same page twice. Returns the
    /// `(root, height)` the meta record must commit.
    fn unlink_empty_leaf(
        &self,
        pool: &BufferPool,
        op: &mut WalOp,
        pno: u32,
        next: u32,
        path: &[(u32, usize)],
    ) -> Result<(u32, u32), PoolError> {
        if let Some(pred) = self.left_neighbor_leaf(pool, path)? {
            let (off, bytes) = node::next_patch(next);
            op.page_write(self.pid(pred), off, &bytes);
        }
        op.free(self.pid(pno));
        for (i, &(parent, branch)) in path.iter().enumerate().rev() {
            let page = pool.read_page(self.pid(parent))?;
            let n = Node::<K, u32>::internal(&page[..]);
            if n.count() == 0 {
                // A single-child node loses its only child: it goes too,
                // and its own parent sheds an entry in turn.
                debug_assert_eq!(branch, 0);
                op.free(self.pid(parent));
                continue;
            }
            // When `child0` goes, the first entry's child is promoted: its
            // key range absorbs the emptied child's (empty) range.
            let (child0, slot) = match branch {
                0 => (n.value(0), 0),
                _ => (n.child0(), branch - 1),
            };
            if i == 0 && n.count() == 1 && self.height > 1 {
                drop(page);
                return self.collapse_root(pool, op, parent, child0);
            }
            let edit = node::splice::<K, u32>(&page[..], child0, slot, 1, None);
            log_splice(op, self.pid(parent), edit);
            return Ok((self.root, self.height));
        }
        // Every ancestor up to the root was single-child. The root
        // invariant (collapsed after every delete) makes this unreachable
        // in a well-formed tree.
        Err(PoolError::Corrupt {
            pid: self.pid(self.root),
            reason: "logged-tree root lost its last child",
        })
    }

    /// Stages the root collapse: the old root (internal, down to one
    /// child) is freed and `child` becomes the root — repeatedly, while
    /// the new root is itself a single-child internal node.
    fn collapse_root(
        &self,
        pool: &BufferPool,
        op: &mut WalOp,
        old_root: u32,
        child: u32,
    ) -> Result<(u32, u32), PoolError> {
        op.free(self.pid(old_root));
        let mut root = child;
        let mut height = self.height - 1;
        loop {
            let page = pool.read_page(self.pid(root))?;
            if node::is_leaf(&page[..]) {
                return Ok((root, height));
            }
            let n = Node::<K, u32>::internal(&page[..]);
            if n.count() != 0 {
                return Ok((root, height));
            }
            op.free(self.pid(root));
            root = n.child0();
            height -= 1;
        }
    }
}

/// The meta page's payload: magic, root, height, len, key/value sizes,
/// checksum — everything [`BPlusTree::open_logged`] needs.
fn meta_record<K: FixedRecord, V: FixedRecord>(root: u32, height: u32, len: u64) -> [u8; 28] {
    let mut b = [0u8; 28];
    b[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
    b[4..8].copy_from_slice(&root.to_le_bytes());
    b[8..12].copy_from_slice(&height.to_le_bytes());
    b[12..20].copy_from_slice(&len.to_le_bytes());
    b[20..22].copy_from_slice(&(K::SIZE as u16).to_le_bytes());
    b[22..24].copy_from_slice(&(V::SIZE as u16).to_le_bytes());
    let sum = fnv1a32(&[&b[..META_LEN]]);
    b[24..28].copy_from_slice(&sum.to_le_bytes());
    b
}

/// Takes a page for a growing logged tree: the file's free list first
/// (logged `alloc` reclaims it on replay), a fresh page otherwise.
fn alloc_tree_page(
    pool: &BufferPool,
    wal: &Wal,
    op: &mut WalOp,
    file: FileId,
) -> Result<u32, PoolError> {
    let pg = match wal.acquire_free_page(file) {
        Some(pg) => pg,
        None => pool.allocate_page(file)?,
    };
    op.alloc(PageId::new(file, pg));
    Ok(pg)
}

/// Logs a one-slot node edit ([`node::splice`]): the shift as a move, then
/// the inserted entry and the header as writes.
fn log_splice(op: &mut WalOp, pid: PageId, edit: node::Splice) {
    let (from, to, len) = edit.shift;
    op.page_move(pid, from, to, len);
    if let Some((off, bytes)) = edit.entry {
        op.page_write(pid, off, &bytes);
    }
    op.page_write(pid, 0, &edit.header);
}

/// Logs a whole leaf, for a page a split (or a new tree) creates, as a
/// page image of its occupied prefix: the rest of the page becomes zeros.
fn log_leaf<K: FixedRecord, V: FixedRecord>(
    op: &mut WalOp,
    pid: PageId,
    next: u32,
    entries: &[(K, V)],
) {
    let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
    let used = node::encode_leaf(next, entries, &mut img[..]);
    op.page_image(pid, &img[..used]);
}

/// Logs a whole internal node, for a page a split or a new root creates
/// (an image of its occupied prefix, as [`log_leaf`]).
fn log_internal<K: FixedRecord>(op: &mut WalOp, pid: PageId, child0: u32, entries: &[(K, u32)]) {
    let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
    let used = node::encode_internal(child0, entries, &mut img[..]);
    op.page_image(pid, &img[..used]);
}

/// Forward iterator over leaf entries starting at a lower bound.
pub struct RangeIter<'a, K: FixedRecord + Ord, V: FixedRecord> {
    pool: &'a BufferPool,
    file: FileId,
    leaf: u32,
    idx: usize,
    _marker: PhantomData<(K, V)>,
}

impl<K: FixedRecord + Ord, V: FixedRecord> RangeIter<'_, K, V> {
    /// Next entry in key order, or `None` past the last leaf.
    pub fn next_entry(&mut self) -> Result<Option<(K, V)>, PoolError> {
        while self.leaf != NIL {
            let page = self.pool.read_page(PageId::new(self.file, self.leaf))?;
            let leaf = Node::<K, V>::leaf(&page[..]);
            if self.idx < leaf.count() {
                self.idx += 1;
                return Ok(Some((leaf.key(self.idx - 1), leaf.value(self.idx - 1))));
            }
            self.leaf = leaf.next();
            self.idx = 0;
        }
        Ok(None)
    }
}

impl<K: FixedRecord + Ord, V: FixedRecord> Iterator for RangeIter<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        self.next_entry().expect("range scan lost its frame budget")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbitree_storage::Disk;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::in_memory_free(), frames)
    }

    #[test]
    fn bulk_load_and_point_lookups() {
        let p = pool(16);
        let entries: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 2, i)).collect();
        let t = BPlusTree::bulk_load(&p, entries.iter().copied()).unwrap();
        assert_eq!(t.len(), 10_000);
        assert!(t.height() >= 2);
        for probe in [0u64, 2, 9998, 19_998] {
            assert_eq!(t.get(&p, &probe).unwrap(), Some(probe / 2));
        }
        // Absent keys (odd values).
        for probe in [1u64, 777, 19_997] {
            assert_eq!(t.get(&p, &probe).unwrap(), None);
        }
    }

    #[test]
    fn empty_tree() {
        let p = pool(4);
        let t = BPlusTree::<u64, u64>::bulk_load(&p, std::iter::empty()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(&p, &5).unwrap(), None);
        assert_eq!(t.iter(&p).unwrap().count(), 0);
    }

    #[test]
    fn range_scan_from_lower_bound() {
        let p = pool(16);
        let t = BPlusTree::bulk_load(&p, (0u64..1000).map(|i| (i * 3, i))).unwrap();
        // First key >= 100 is 102.
        let got: Vec<u64> = t
            .range_from(&p, &100)
            .unwrap()
            .map(|(k, _)| k)
            .take_while(|&k| k < 130)
            .collect();
        assert_eq!(got, vec![102, 105, 108, 111, 114, 117, 120, 123, 126, 129]);
    }

    #[test]
    fn full_iteration_in_order() {
        let p = pool(16);
        let n = 25_000u64;
        let t = BPlusTree::bulk_load(&p, (0..n).map(|i| (i, i + 1))).unwrap();
        let all: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(all[0], (0, 1));
        assert_eq!(all[n as usize - 1], (n - 1, n));
    }

    #[test]
    fn duplicates_are_preserved() {
        let p = pool(16);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        for i in 0..500 {
            t.insert_logged(&p, &wal, 7, i).unwrap();
            t.insert_logged(&p, &wal, 9, i).unwrap();
        }
        let sevens: Vec<u64> = t
            .range_from(&p, &7)
            .unwrap()
            .take_while(|(k, _)| *k == 7)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(sevens.len(), 500);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn bulk_loaded_tree_rejects_logged_mutation() {
        // Page 0 of a bulk-loaded tree is its first leaf, not a meta
        // record: a logged mutation would overwrite it.
        let p = pool(32);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::bulk_load(&p, (0u64..5000).map(|i| (i, i))).unwrap();
        assert!(t.insert_logged(&p, &wal, 5000, 5000).is_err());
        assert!(t.delete_logged(&p, &wal, &17).is_err());
        assert_eq!(t.len(), 5000);
        assert_eq!(t.get(&p, &0).unwrap(), Some(0));
        assert_eq!(t.get(&p, &17).unwrap(), Some(17));
        assert_eq!(t.iter(&p).unwrap().count(), 5000);
    }

    #[test]
    fn probe_io_is_logarithmic() {
        let p = pool(8); // tiny pool: probes mostly miss
        let t = BPlusTree::bulk_load(&p, (0u64..200_000).map(|i| (i, i))).unwrap();
        p.flush_all().unwrap();
        let h = t.height() as u64;
        let before = p.io_stats();
        for probe in (0..200_000u64).step_by(20_011) {
            assert_eq!(t.get(&p, &probe).unwrap(), Some(probe));
        }
        let probes = 200_000u64.div_ceil(20_011);
        let delta = p.io_stats().since(&before);
        assert!(
            delta.reads() <= probes * (h + 1),
            "probe reads {} exceed {} probes x height {}",
            delta.reads(),
            probes,
            h
        );
    }

    #[test]
    fn u128_keys_work() {
        // Document-order keys are u128; make sure the tree is generic.
        let p = pool(16);
        let t = BPlusTree::bulk_load(&p, (0u64..3000).map(|i| ((i as u128) << 8, i))).unwrap();
        assert_eq!(t.get(&p, &(1500u128 << 8)).unwrap(), Some(1500));
        assert_eq!(t.get(&p, &1).unwrap(), None);
    }

    #[test]
    fn logged_inserts_match_btreemap_model_across_splits() {
        // Log bytes of a frame around its records, of a write record around
        // its bytes (with its page id, or on the page of the record before
        // it), of a move record, and of a page id (`storage::wal` frame
        // format).
        const FRAME: u64 = 17;
        const WRITE: u64 = 13;
        const SAME_PAGE_WRITE: u64 = 5;
        const MOVE: u64 = 15;
        const PID: u64 = 8;
        let p = pool(64);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        // Key -> its values, kept sorted: a duplicate lands after its
        // equals in the leftmost leaf that can hold the key, so a chain
        // spanning leaves is ordered by key only.
        let mut model = std::collections::BTreeMap::<u64, Vec<u64>>::new();
        let check = |t: &BPlusTree<u64, u64>, model: &std::collections::BTreeMap<u64, Vec<u64>>| {
            let mut all: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
            assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
            all.sort_unstable();
            let want: Vec<(u64, u64)> = model
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                .collect();
            assert_eq!(all, want);
            assert_eq!(t.len(), want.len() as u64);
        };
        let mut x = 0x1234_5678u64;
        let mut unsplit = 0u64;
        for i in 0..8_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Every 4th op lands on one of two hot keys, whose duplicate
            // chains outgrow a leaf.
            let k = if i % 4 == 0 {
                5_000 * (1 + x % 2)
            } else {
                x % 20_000
            };
            if i % 5 == 4 {
                // The delete takes the first entry with the key — the one
                // `get` returns.
                let first = t.get(&p, &k).unwrap();
                assert_eq!(t.delete_logged(&p, &wal, &k).unwrap(), first.is_some());
                if let Some(v) = first {
                    let vs = model.get_mut(&k).expect("tree held a key the model lacks");
                    vs.remove(vs.binary_search(&v).expect("value of another key"));
                    if vs.is_empty() {
                        model.remove(&k);
                    }
                }
            } else {
                // Where the insert will land, read the way it descends.
                let leaf = t.descend(&p, t.root, |n| n.lower_bound(&k), |_, _| ());
                let (count, pos) = {
                    let page = p.read_page(t.pid(leaf.unwrap())).unwrap();
                    let leaf = Node::<u64, u64>::leaf(&page[..]);
                    (leaf.count(), leaf.upper_bound(&k))
                };
                let before = wal.stats();
                t.insert_logged(&p, &wal, k, i).unwrap();
                model.entry(k).or_default().push(i);
                if count < node::capacity::<u64, u64>() {
                    // No split: one COMMIT frame holds a move of the entries
                    // behind the slot (none when it is the last), the new
                    // entry and the node header on the leaf's page, then
                    // the meta record — the same few bytes wherever the
                    // slot is. An op that crosses a log page continues in
                    // a second frame, whose first record spells out its
                    // page id.
                    let entry = if pos < count {
                        MOVE + SAME_PAGE_WRITE + 16
                    } else {
                        WRITE + 16
                    };
                    let one_frame = FRAME + entry + SAME_PAGE_WRITE + 8 + WRITE + 28;
                    let after = wal.stats();
                    let (logged, frames) =
                        (after.bytes - before.bytes, after.frames - before.frames);
                    if frames == 1 {
                        assert_eq!(logged, one_frame, "insert {i} at slot {pos} of {count}");
                    } else {
                        assert_eq!(frames, 2, "insert {i}");
                        assert!(logged <= one_frame + FRAME + PID, "insert {i}: {logged} B");
                    }
                    unsplit += 1;
                }
            }
            if i % 1_000 == 999 {
                check(&t, &model);
            }
        }
        assert!(t.height() >= 2, "splits must have grown the tree");
        assert!(unsplit > 6_000, "most inserts do not split ({unsplit})");
        assert!(
            model
                .values()
                .any(|vs| vs.len() > node::capacity::<u64, u64>()),
            "a duplicate chain must span leaves"
        );
        check(&t, &model);
        for k in (0..20_000).step_by(83) {
            let found = t.get(&p, &k).unwrap();
            assert_eq!(found.is_some(), model.contains_key(&k), "key {k}");
            assert!(found.is_none_or(|v| model[&k].contains(&v)), "key {k}");
        }
        // Drain the hot keys: their chains empty leaf by leaf.
        for k in [5_000u64, 10_000] {
            for _ in 0..model.remove(&k).map_or(0, |vs| vs.len()) {
                assert!(t.delete_logged(&p, &wal, &k).unwrap());
            }
            assert!(!t.delete_logged(&p, &wal, &k).unwrap());
        }
        check(&t, &model);
    }

    #[test]
    fn logged_tree_reopens_from_meta_page() {
        let p = pool(32);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        for i in 0..3_000u64 {
            t.insert_logged(&p, &wal, i * 7 % 4096, i).unwrap();
        }
        let reopened = BPlusTree::<u64, u64>::open_logged(&p, t.file_id()).unwrap();
        assert_eq!(reopened.len(), t.len());
        assert_eq!(reopened.height(), t.height());
        let a: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
        let b: Vec<(u64, u64)> = reopened.iter(&p).unwrap().collect();
        assert_eq!(a, b);
        // The meta record's FNV-1a checksum is part of the on-disk format.
        let meta = meta_record::<u64, u64>(7, 2, 3_000);
        assert_eq!(
            u32::from_le_bytes(meta[24..28].try_into().unwrap()),
            2_239_869_253
        );
    }

    #[test]
    fn open_logged_rejects_wrong_record_sizes_and_garbage() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        // Value type of a different width must be refused.
        assert!(BPlusTree::<u64, u32>::open_logged(&p, t.file_id()).is_err());
        // A file that never held a logged tree must be refused.
        let plain = BPlusTree::<u64, u64>::bulk_load(&p, std::iter::empty()).unwrap();
        assert!(BPlusTree::<u64, u64>::open_logged(&p, plain.file_id()).is_err());
    }

    #[test]
    fn logged_delete_removes_one_instance_and_walks_duplicate_chains() {
        let p = pool(32);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        // Enough duplicates of one key to spill over several leaves.
        for i in 0..900u64 {
            t.insert_logged(&p, &wal, 42, i).unwrap();
        }
        for i in 0..100u64 {
            t.insert_logged(&p, &wal, 1000 + i, i).unwrap();
        }
        assert_eq!(t.len(), 1000);
        for expect_left in (0..900).rev() {
            assert!(t.delete_logged(&p, &wal, &42).unwrap());
            let left = t
                .range_from(&p, &42)
                .unwrap()
                .take_while(|(k, _)| *k == 42)
                .count();
            if expect_left % 123 == 0 {
                assert_eq!(left, expect_left);
            }
        }
        assert!(!t.delete_logged(&p, &wal, &42).unwrap());
        assert!(!t.delete_logged(&p, &wal, &999).unwrap());
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&p, &1050).unwrap(), Some(50));
    }

    #[test]
    fn logged_delete_frees_emptied_leaves_and_reuses_them() {
        let p = pool(64);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        let n = 2000u64;
        for k in 0..n {
            t.insert_logged(&p, &wal, k, k * 7).unwrap();
        }
        let pages_full = p.num_pages(t.file_id());
        assert!(t.height() >= 2);
        // Carve out the middle: the leaves it occupied must be unlinked
        // from the chain and handed to the free list, not left chained
        // with zero entries.
        for k in 200..1800u64 {
            assert!(t.delete_logged(&p, &wal, &k).unwrap());
        }
        let freed = wal.freelist_len();
        assert!(
            freed > 5,
            "emptied leaves reach the free list (got {freed})"
        );
        // Queries over the churned tree match the model exactly.
        for k in 0..n {
            let expect = (!(200..1800).contains(&k)).then_some(k * 7);
            assert_eq!(t.get(&p, &k).unwrap(), expect, "key {k}");
        }
        let keys: Vec<u64> = t.iter(&p).unwrap().map(|(k, _)| k).collect();
        let model: Vec<u64> = (0..200).chain(1800..n).collect();
        assert_eq!(keys, model);
        // Regrowth recycles: while the free list has pages, inserts must
        // not extend the file.
        for k in 200..1800u64 {
            if wal.freelist_len() == 0 {
                break;
            }
            t.insert_logged(&p, &wal, k, k * 7).unwrap();
            assert_eq!(
                p.num_pages(t.file_id()),
                pages_full,
                "allocation bypassed the free list at key {k}"
            );
        }
        assert!(wal.freelist_len() < freed, "regrowth consumed freed pages");
    }

    #[test]
    fn logged_delete_collapses_the_root_when_the_tree_drains() {
        let p = pool(64);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        // Interleave two key ranges so deletion empties leaves in a
        // non-sequential pattern, then drain the tree completely.
        for k in 0..1500u64 {
            t.insert_logged(&p, &wal, (k * 37) % 1500, k).unwrap();
        }
        assert!(t.height() >= 2);
        for k in 0..1500u64 {
            assert!(t.delete_logged(&p, &wal, &k).unwrap(), "key {k}");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1, "drained tree collapses to a root leaf");
        assert_eq!(t.iter(&p).unwrap().count(), 0);
        assert_eq!(t.get(&p, &700).unwrap(), None);
        // The handle round-trips through its meta page in the collapsed
        // state, and the tree grows again from the free list.
        let reopened = BPlusTree::<u64, u64>::open_logged(&p, t.file_id()).unwrap();
        assert_eq!(reopened.height(), 1);
        assert_eq!(reopened.len(), 0);
        let before = p.num_pages(t.file_id());
        for k in 0..300u64 {
            t.insert_logged(&p, &wal, k, k).unwrap();
        }
        assert_eq!(
            p.num_pages(t.file_id()),
            before,
            "regrowth after a full drain reuses freed pages"
        );
        let again: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
        assert_eq!(again, (0..300u64).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn logged_delete_unlinks_mid_chain_duplicate_leaves() {
        let p = pool(32);
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        // A duplicate run long enough to own several leaves, fenced by
        // live keys on both sides so unlinking happens mid-chain.
        for i in 0..40u64 {
            t.insert_logged(&p, &wal, i, i).unwrap();
        }
        for i in 0..900u64 {
            t.insert_logged(&p, &wal, 500_000, i).unwrap();
        }
        for i in 0..40u64 {
            t.insert_logged(&p, &wal, 1_000_000 + i, i).unwrap();
        }
        for _ in 0..900u64 {
            assert!(t.delete_logged(&p, &wal, &500_000).unwrap());
        }
        assert!(!t.delete_logged(&p, &wal, &500_000).unwrap());
        assert!(wal.freelist_len() > 0, "duplicate leaves were freed");
        // The chain over the excision stays sound end to end.
        let keys: Vec<u64> = t.iter(&p).unwrap().map(|(k, _)| k).collect();
        let expect: Vec<u64> = (0..40).chain((0..40).map(|i| 1_000_000 + i)).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn logged_tree_survives_crash_recovery() {
        use pbitree_storage::{recover, CostModel, MemBackend, SharedBackend};
        let backend = SharedBackend::new(MemBackend::default());
        let p = BufferPool::new(Disk::new(Box::new(backend.clone()), CostModel::free()), 32);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        for i in 0..2_500u64 {
            t.insert_logged(&p, &wal, i.rotate_left(17) % 10_000, i)
                .unwrap();
        }
        for k in (0..10_000u64).step_by(5) {
            let _ = t.delete_logged(&p, &wal, &k).unwrap();
        }
        let expect: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
        let file = t.file_id();
        wal.flush(&p).unwrap();
        // "Crash": drop the pool without flushing data pages; only the
        // durable log (and whatever the gate forced out) survives.
        let _ = t;
        drop(wal);
        drop(p);
        let p2 = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), 32);
        let (_wal2, report) = recover(&p2, wal_file).unwrap();
        assert!(report.ops_applied > 0);
        let t2 = BPlusTree::<u64, u64>::open_logged(&p2, file).unwrap();
        let got: Vec<(u64, u64)> = t2.iter(&p2).unwrap().collect();
        assert_eq!(got, expect);
    }
}
