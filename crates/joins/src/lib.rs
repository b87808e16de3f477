//! # pbitree-joins — containment-join algorithms over PBiTree codes
//!
//! The complete algorithm framework of the paper's §3, operating on heap
//! files of [`Element`]s ( `(code, tag)` pairs) through a bounded buffer
//! pool:
//!
//! | module | algorithm | paper | requires |
//! |---|---|---|---|
//! | [`naive`] | block nested loop | baseline | nothing |
//! | [`shcj`] | single-height containment join (hash equijoin on `F(d,h)`) | Alg. 2 | single-height `A` |
//! | [`mhcj`] | multiple-height containment join: every height an anchor, `5‖A‖ + 3k‖D‖` | Alg. 3 | nothing |
//! | [`rollup`] | MHCJ + Rollup: the top `k` heights anchors, false hits filtered; `3(‖A‖ + ‖D‖)` at `k = 1` | Alg. 4 | nothing |
//! | [`vpj`] | vertical-partitioning join | Alg. 5 | nothing |
//! | [`memjoin`] | Memory-Containment-Join | Alg. 6 | one side fits in memory |
//! | [`inljn`] | index nested loop (B+-tree, built on the fly) | \[20\] adapted | index (built) |
//! | [`stacktree`] | Stack-Tree-Desc (sorted on the fly) | \[1\] adapted | sorted inputs |
//! | [`adb`] | Anc_Des_B+: Stack-Tree's merge with skips on | \[4\] adapted | sorted + indexed |
//! | [`planner`] | the Table-1 algorithm-selection framework | Table 1 | — |
//! | [`sharded`] | one join task per region-range shard, each over its own pool | — | — |
//!
//! The partitioning joins are two ideas: split the inputs, then join each
//! part as the equijoin `A.code = F(D.code, h)`. Every split is one
//! scatter pass (by anchor height in MHCJ and MHCJ+Rollup, by tree level
//! in VPJ, by hash bucket in the Grace hash join). MHCJ and MHCJ+Rollup
//! are one body over a set of anchor heights (`rollup::anchored_join`:
//! every height in MHCJ, the top `k` in Rollup), and SHCJ and each of
//! their anchors run one F-equijoin body (`shcj::anchored_equijoin`).
//! Multi-height [`mhcj::mhcj`], multi-anchor
//! [`rollup::mhcj_rollup`], [`vpj::vpj`] and sharded joins are unions of
//! independent sub-joins. They run them as tasks of one loop: in index
//! order on the calling thread, each under a task span ([`trace`]),
//! emitting straight into the caller's sink.
//!
//! Every algorithm reports [`JoinStats`]: result pairs, rollup false hits,
//! and the I/O delta (page counts + simulated disk time) measured across
//! the *whole* operator — including any on-the-fly sorting or index
//! building, exactly as the paper charges the baselines in §4. Attach a
//! [`trace::Tracer`] ([`JoinCtx::with_tracer`]) and every operator also
//! records named phase spans (partition / sort / build / probe / merge)
//! whose I/O deltas tile the run exactly — see [`trace`].
//!
//! Correctness of all algorithms is cross-checked against the naive join
//! and against each other by the test suite (`verify` module).

#![forbid(unsafe_code)]

pub mod adb;
pub mod batch;
pub mod context;
pub mod element;
pub mod hashjoin;
pub mod inljn;
pub mod memjoin;
pub mod mhcj;
pub mod naive;
pub mod planner;
pub mod rollup;
pub mod sharded;
pub mod shared;
pub mod shcj;
pub mod sink;
pub mod stacktree;
pub mod trace;
pub mod update;
pub mod verify;
pub mod vpj;

pub use context::{JoinCtx, JoinCtxBuilder, JoinError, JoinStats, PhaseStat};
pub use element::Element;
pub use planner::{
    choose_algorithm, execute, plan_and_execute, plan_and_execute_sharded, Algorithm, InputState,
};
pub use sharded::{ShardRole, ShardedFile, ShardedStats, ShardedStore, Sharding};
pub use shared::QueryBatch;
pub use sink::{CollectSink, CountSink, DistinctDescendants, MultiSink, PairSink};
pub use stacktree::SortPolicy;
pub use update::{ElementStore, StoreError};
