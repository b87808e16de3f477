//! # pbitree-server — a concurrent multi-tenant containment-join service
//!
//! The other crates run one experiment at a time; this crate runs *many
//! queries at once* against one shared engine, which is where the frame
//! budget stops being a per-run constant and becomes a resource to
//! schedule:
//!
//! * [`admission`] — FIFO frame-budget admission control. Each query's
//!   entire budget, a slice of the shared pool, is granted up front (no
//!   hold-and-wait, so no budget deadlock), over-budget arrivals queue in
//!   FIFO order, and impossible or queue-overflowing requests are
//!   rejected.
//! * [`service`] — the query engine: an XMark corpus bulk-loaded into
//!   per-tag element heap files on one shared [`BufferPool`], descendant
//!   paths parsed by `pbitree_xml` and decomposed into containment-join
//!   chains planned through `pbitree_joins::planner`.
//! * [`proto`] — the newline-framed wire protocol, with responses designed
//!   to be byte-comparable against a serial baseline.
//! * [`server`] — the TCP accept loop (thread per connection) and a
//!   blocking [`Client`].
//! * [`report`] — the B1–B10 workload mix and the p50/p95/p99 latency
//!   report the `pbitree-loadgen` binary emits.
//!
//! Everything is `std`-only, like the rest of the workspace.
//!
//! [`BufferPool`]: pbitree_storage::BufferPool

#![forbid(unsafe_code)]

pub mod admission;
pub mod proto;
pub mod report;
pub mod server;
pub mod service;

pub use admission::{AdmissionController, AdmissionError, AdmissionStats, Grant, MIN_QUERY_FRAMES};
pub use pbitree_joins::Algorithm;
pub use proto::{Request, Response};
pub use report::{xmark_workload, LatencyBucket, RunReport, WorkItem};
pub use server::{spawn, Client, ServerHandle};
pub use service::{QueryOutcome, QueryService, ServiceConfig, ServiceError};
