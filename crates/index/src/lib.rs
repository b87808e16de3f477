//! # pbitree-index — the access method of the containment-join framework
//!
//! [`bptree`] is a paged B+-tree over the storage engine's buffer pool,
//! backing the "indexed" rows of the paper's Table 1. It comes in two
//! species: *bulk-loaded* (built by INLJN on the fly after an external
//! sort, read-only, probed by point and range) and *logged*
//! (grown and shrunk incrementally, every mutation one atomic WAL
//! operation). Keys and values are fixed-width records, so the same tree
//! serves `code -> payload` and `start-order` layouts alike.

#![forbid(unsafe_code)]

pub mod bptree;

pub use bptree::BPlusTree;
