//! # pbitree-datagen — the paper's workloads
//!
//! Three generator families reproduce §4's inputs:
//!
//! * [`synthetic`] — the 16 synthetic datasets of Tables 2(a)/2(b)
//!   (single/multi-height × large/small × high/low selectivity), generated
//!   directly in PBiTree code space with the published cardinalities and
//!   result counts as targets, plus the parameterized sets behind the
//!   buffer-size and scalability figures;
//! * [`xmark`] — an XMark-like auction-site document generator (the
//!   BENCHMARK data \[18\]) with the B1–B10 containment joins;
//! * [`dblp`] — a DBLP-like bibliography generator with the D1–D10 joins.
//!
//! The real DBLP snapshot and XMark's `xmlgen` are not available offline;
//! these generators emit documents with the same schema shape, element
//! populations and height distributions (see DESIGN.md, substitution 3).
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]

pub mod dblp;
pub mod queries;
pub mod rng;
pub mod synthetic;
pub mod xmark;

pub use queries::{extract_query_sets, QuerySpec};
pub use synthetic::{SyntheticDataset, SyntheticSpec};
