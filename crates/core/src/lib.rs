//! # pbitree-core — the PBiTree coding scheme
//!
//! This crate implements the coding scheme from *"PBiTree Coding and
//! Efficient Processing of Containment Joins"* (ICDE 2003).
//!
//! A **PBiTree** is a perfect binary tree whose nodes are tagged with their
//! in-order traversal number (1-based). An arbitrary data tree (for example
//! an XML document tree) is *embedded* into a PBiTree by the
//! [`binarize`] module; every data-tree node then carries a
//! single integer [`Code`] with these properties:
//!
//! * the code of the ancestor of a node at any height is computable from the
//!   node's code alone with a couple of shift/mask operations
//!   ([`Code::ancestor_at_height`], the paper's `F` function — Property 1);
//! * the height of a node is the index of the lowest set bit of its code
//!   ([`Code::height`] — Property 2);
//! * ancestor/descendant (= XML containment) tests are O(1) on the two codes
//!   alone ([`Code::is_ancestor_of`] — Lemma 1);
//! * a code converts to a classic *region code* `(start, end)` in O(1)
//!   ([`Code::region`] — Lemma 3) and to a *prefix code* ([`Code::prefix`]
//!   — Lemma 4), so every region-code join algorithm still applies.
//!
//! The embedding itself ([`binarize::binarize_tree`]) runs in O(n) over the
//! data tree and assigns each node a *top-down* code `(level, alpha)` that is
//! equivalent to the PBiTree code (Lemma 2, [`topdown`]).
//!
//! ```
//! use pbitree_core::{PBiTreeShape, Code};
//!
//! // The height-5 PBiTree from Figure 2 of the paper.
//! let shape = PBiTreeShape::new(5).unwrap();
//! let n = Code::new(18).unwrap();
//! assert_eq!(n.height(), 1);
//! assert_eq!(shape.level_of(n), 3);
//! assert_eq!(n.ancestor_at_height(2).get(), 20);
//! assert_eq!(n.ancestor_at_height(3).get(), 24);
//! assert_eq!(n.ancestor_at_height(4).get(), 16);
//! assert!(Code::new(20).unwrap().is_ancestor_of(n));
//! assert_eq!(n.region(), (17, 19));
//! ```

#![forbid(unsafe_code)]

pub mod binarize;
pub mod code;
pub mod error;
pub mod topdown;
pub mod tree;
pub mod update;

pub use binarize::{binarize_tree, required_height, EncodedTree};
pub use code::{Code, PBiTreeShape};
pub use error::CodeError;
pub use topdown::TopDownCode;
pub use tree::{DataTree, NodeId};
pub use update::{CodeAllocator, UpdateError};
