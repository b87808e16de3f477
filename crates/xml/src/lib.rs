//! # pbitree-xml — XML documents as PBiTree-coded trees
//!
//! The paper's data model (Figure 1): an XML document is a tree whose
//! internal nodes are elements and whose leaves are text; containment
//! queries (`//Section//Figure`) decompose into containment joins between
//! element sets. This crate provides the full path from bytes to join
//! inputs:
//!
//! * [`parser`] — a hand-written, zero-dependency XML parser (elements,
//!   attributes, text, CDATA, comments, processing instructions, the five
//!   predefined entities and numeric character references);
//! * [`document`] — the parsed [`document::Document`]: a
//!   [`pbitree_core::DataTree`] with interned tag names, `@attr` and
//!   `#text` pseudo-tags, and per-node text content;
//! * [`encode`] — binarization of a document into an
//!   [`encode::EncodedDocument`], with element-set extraction by tag name
//!   (the `A` and `D` inputs of a containment join);
//! * [`query`] — `//a//b//c` descendant-axis paths and their decomposition
//!   into a chain of containment joins, plus a naive in-memory evaluator
//!   used as ground truth by the join tests.

#![forbid(unsafe_code)]

pub mod document;
pub mod encode;
pub mod parser;
pub mod query;
pub mod serialize;

pub use document::{Document, TagId};
pub use encode::EncodedDocument;
pub use parser::{parse, XmlError};
pub use query::DescendantPath;
pub use serialize::serialize;
