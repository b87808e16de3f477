//! # pbitree-containment
//!
//! Umbrella crate for the reproduction of *"PBiTree Coding and Efficient
//! Processing of Containment Joins"* (ICDE 2003). It re-exports every
//! workspace crate under one roof so examples and downstream users can
//! depend on a single package:
//!
//! * [`core`] — the PBiTree coding scheme (codes, `F`/`G`, binarization).
//! * [`storage`] — paged storage engine: disk backends with I/O accounting,
//!   clock buffer pool, heap files, external merge sort.
//! * [`index`] — paged B+-tree and an in-memory interval tree.
//! * [`xml`] — hand-written XML parser, document trees, PBiTree encoding of
//!   documents, `//a//b` containment-query decomposition.
//! * [`datagen`] — the paper's synthetic datasets plus XMark-like and
//!   DBLP-like document generators.
//! * [`joins`] — the seven containment-join algorithms of the evaluation
//!   (SHCJ, MHCJ, MHCJ+Rollup, VPJ, INLJN, StackTree, Anc_Des_B+), a naive
//!   baseline, and the Table-1 planner.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

#![forbid(unsafe_code)]

pub use pbitree_core as core;
pub use pbitree_datagen as datagen;
pub use pbitree_index as index;
pub use pbitree_joins as joins;
pub use pbitree_storage as storage;
pub use pbitree_xml as xml;
