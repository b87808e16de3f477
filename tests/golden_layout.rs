//! Golden-layout regression: the WAL-less bulk-load path must produce
//! byte-identical heap files across refactors of the write path. The
//! hashes below were captured before the durable write path (WAL / free
//! list / incremental updates) landed; any drift in `HeapWriter`,
//! `BufferPool::append_pages_through`, or the packed codec shows up here
//! as a hash mismatch long before it corrupts a join.

use pbitree_joins::element::element_file_with;
use pbitree_storage::{BufferPool, CostModel, Disk, FileId, MemBackend, PageId, ScanOptions};

/// FNV-1a over every byte of every page of `file`, in page order.
fn file_digest(pool: &BufferPool, file: FileId) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for p in 0..pool.num_pages(file) {
        let page = pool
            .read_page(PageId::new(file, p))
            .expect("golden file readable");
        for &b in page.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Deterministic document-order element stream: increasing starts with
/// varied heights and tags, exercising both the raw and packed encoders.
fn deterministic_elements(n: u64) -> impl Iterator<Item = (u64, u32)> {
    (0..n).map(|i| {
        let h = i % 5;
        let raw = i * 64 + 1 + (1u64 << h) - 1;
        (raw, (i % 97) as u32)
    })
}

fn build(compress: bool) -> (u64, u32) {
    let disk = Disk::new(Box::new(MemBackend::new()), CostModel::free());
    let pool = BufferPool::new(disk, 16);
    let opts = ScanOptions::write_once(4).with_compress(compress);
    let hf = element_file_with(&pool, opts, deterministic_elements(2000)).expect("bulk load");
    pool.flush_all().expect("flush");
    (file_digest(&pool, hf.file_id()), hf.pages())
}

#[test]
fn bulk_load_layout_is_pinned_raw() {
    let (digest, pages) = build(false);
    assert_eq!(pages, GOLDEN_RAW_PAGES, "raw page count drifted");
    assert_eq!(
        digest, GOLDEN_RAW_DIGEST,
        "raw bulk-load bytes drifted from the pre-WAL layout (got {digest:#018x})"
    );
}

#[test]
fn bulk_load_layout_is_pinned_packed() {
    let (digest, pages) = build(true);
    assert_eq!(pages, GOLDEN_PACKED_PAGES, "packed page count drifted");
    assert_eq!(
        digest, GOLDEN_PACKED_DIGEST,
        "packed bulk-load bytes drifted from the pre-WAL layout (got {digest:#018x})"
    );
}

#[test]
fn bulk_load_is_deterministic_and_encodings_differ() {
    // Both encoders are pinned explicitly above; each is deterministic,
    // and they must not coincide.
    assert_eq!(build(false), build(false));
    assert_eq!(build(true), build(true));
    assert_ne!(build(false).0, build(true).0, "encodings must differ");
}

// Captured from the pre-PR tree (seed commit e6a40e5). Do not update
// without understanding why the storage layout changed.
const GOLDEN_RAW_PAGES: u32 = 6;
const GOLDEN_RAW_DIGEST: u64 = 0xC7C6_CB7E_467C_7701;
const GOLDEN_PACKED_PAGES: u32 = 2;
const GOLDEN_PACKED_DIGEST: u64 = 0x1204_2F62_73CD_362A;
