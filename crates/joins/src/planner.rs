//! The Table-1 framework: pick a containment-join algorithm from the
//! inputs' physical state.
//!
//! | indexed | sorted | choice |
//! |---|---|---|
//! | yes | no  | INLJN |
//! | no  | yes | Stack-Tree |
//! | yes | yes | Anc_Des_B+ |
//! | no  | no  | **SHCJ or VPJ** (the paper's new row) |
//!
//! In the neither/neither row the planner picks SHCJ when the ancestor set
//! is single-height and VPJ otherwise. The paper's multi-height choice is
//! "MHCJ+Rollup or VPJ"; VPJ covers both: when one side fits the budget,
//! its base case *is* Algorithm 6's memory join (the `‖A‖ + ‖D‖` pages
//! Rollup would read), and when neither fits it partitions where Rollup
//! rescans. `ablation --study regret` measures the rule against every
//! operator.

use pbitree_storage::HeapFile;

use crate::context::{JoinCtx, JoinError, JoinStats};
use crate::element::Element;
use crate::sink::PairSink;
use crate::stacktree::SortPolicy;

/// Physical state of a join input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputState {
    /// A suitable index exists (or is worth assuming).
    pub indexed: bool,
    /// The input is in document order.
    pub sorted: bool,
}

impl InputState {
    /// Neither sorted nor indexed — intermediate results, fresh extractions.
    pub fn raw() -> Self {
        InputState::default()
    }

    /// Sorted but not indexed.
    pub fn sorted() -> Self {
        InputState {
            indexed: false,
            sorted: true,
        }
    }

    /// Indexed but not sorted.
    pub fn indexed() -> Self {
        InputState {
            indexed: true,
            sorted: false,
        }
    }

    /// Both sorted and indexed.
    pub fn sorted_and_indexed() -> Self {
        InputState {
            indexed: true,
            sorted: true,
        }
    }
}

/// The algorithms the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Index nested loop join (\[20\]).
    InlJn,
    /// Stack-Tree-Desc (\[1\]).
    StackTree,
    /// Anc_Des_B+ (\[4\]).
    AncDesBPlus,
    /// Single-height containment join (Algorithm 2).
    Shcj,
    /// Plain MHCJ (Algorithm 3). Never chosen by Table 1 — rollup
    /// dominates it — but experiments measure it.
    Mhcj,
    /// MHCJ with rollup (Algorithm 4). Never chosen by Table 1 — VPJ does
    /// its I/O when a side fits and less when none does — but the figures
    /// measure it, and VPJ falls back to it on an unsplittable subtree.
    MhcjRollup,
    /// Vertical-partitioning join (Algorithm 5).
    Vpj,
    /// One-query degenerate case of the shared multi-query scan
    /// ([`QueryBatch`](crate::shared::QueryBatch)): ancestors in memory,
    /// one filtered pass over the sorted descendant side. Never chosen by
    /// Table 1 — the batched query path selects it explicitly, so batch
    /// outcomes report the operator that actually ran.
    SharedScan,
}

impl Algorithm {
    /// The seven stand-alone join operators: everything [`execute`] runs
    /// on arbitrary inputs under [`SortPolicy::SortOnTheFly`] (SHCJ
    /// additionally needs a single-height ancestor set). `SharedScan` is
    /// not listed: it presumes a document-ordered descendant side.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::InlJn,
        Algorithm::StackTree,
        Algorithm::AncDesBPlus,
        Algorithm::Shcj,
        Algorithm::Mhcj,
        Algorithm::MhcjRollup,
        Algorithm::Vpj,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Algorithm::InlJn => "INLJN",
            Algorithm::StackTree => "STACKTREE",
            Algorithm::AncDesBPlus => "ADB+",
            Algorithm::Shcj => "SHCJ",
            Algorithm::Mhcj => "MHCJ",
            Algorithm::MhcjRollup => "MHCJ+Rollup",
            Algorithm::Vpj => "VPJ",
            Algorithm::SharedScan => "SHARED",
        };
        f.write_str(s)
    }
}

/// Table 1: the row is the weaker of the two inputs' states, and the
/// neither-sorted-nor-indexed row picks SHCJ when the ancestor set is
/// known to occupy one height (`single_height_a`, catalog knowledge:
/// [`HeapFile::single_height`] of A is `Some`) and VPJ otherwise,
/// whatever the sizes. `_ctx`, `_a` and `_d` are not consulted; they
/// stay because `perf/` calls this signature, and can go when it no
/// longer does.
pub fn choose_algorithm(
    _ctx: &JoinCtx,
    a_state: InputState,
    d_state: InputState,
    _a: &HeapFile<Element>,
    _d: &HeapFile<Element>,
    single_height_a: bool,
) -> Algorithm {
    let indexed = a_state.indexed && d_state.indexed;
    let sorted = a_state.sorted && d_state.sorted;
    match (indexed, sorted) {
        (true, true) => Algorithm::AncDesBPlus,
        (true, false) => Algorithm::InlJn,
        (false, true) => Algorithm::StackTree,
        (false, false) if single_height_a => Algorithm::Shcj,
        (false, false) => Algorithm::Vpj,
    }
}

/// Runs the chosen algorithm. The `policy` applies to the sort-based
/// baselines (`StackTree`/`AncDesBPlus`): [`SortPolicy::SortOnTheFly`]
/// builds/sorts on the fly with the cost charged, matching how the paper
/// evaluates baselines on raw inputs.
pub fn execute(
    ctx: &JoinCtx,
    algo: Algorithm,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    policy: SortPolicy,
    sink: &mut dyn PairSink,
) -> Result<JoinStats, JoinError> {
    match algo {
        Algorithm::InlJn => crate::inljn::inljn(ctx, a, d, sink),
        Algorithm::StackTree => crate::stacktree::stack_tree_desc(ctx, a, d, policy, sink),
        Algorithm::AncDesBPlus => crate::adb::anc_des_bplus(ctx, a, d, policy, sink),
        Algorithm::Shcj => crate::shcj::shcj(ctx, a, d, sink),
        Algorithm::Mhcj => crate::mhcj::mhcj(ctx, a, d, sink),
        Algorithm::MhcjRollup => {
            crate::rollup::mhcj_rollup(ctx, a, d, crate::rollup::RollupOptions::default(), sink)
        }
        Algorithm::Vpj => crate::vpj::vpj(ctx, a, d, sink).map(|(s, _)| s),
        Algorithm::SharedScan => {
            let mut qb = crate::shared::QueryBatch::new();
            qb.add_file(ctx, a)?;
            let mut sinks = crate::sink::MultiSink::new();
            sinks.push(sink);
            qb.execute(ctx, d, &mut sinks)
        }
    }
}

/// [`plan_and_execute`] per shard: each shard consults Table 1 with its
/// *own* slice sizes and pool budget, so shards may legitimately run
/// different algorithms (the chosen row per shard is reported in
/// [`ShardedStats::algos`](crate::sharded::ShardedStats::algos)); the
/// result set is the same under any choice.
pub fn plan_and_execute_sharded(
    store: &crate::sharded::ShardedStore,
    a_state: InputState,
    d_state: InputState,
    a: &crate::sharded::ShardedFile,
    d: &crate::sharded::ShardedFile,
    single_height_a: bool,
    sink: &mut dyn PairSink,
) -> Result<crate::sharded::ShardedStats, JoinError> {
    let policy = if a_state.sorted && d_state.sorted {
        SortPolicy::AssumeSorted
    } else {
        SortPolicy::SortOnTheFly
    };
    store.join_with(a, d, sink, |ctx, _i, af, df| {
        (
            choose_algorithm(ctx, a_state, d_state, af, df, single_height_a),
            policy,
        )
    })
}

/// One-call convenience: choose per Table 1, then run.
pub fn plan_and_execute(
    ctx: &JoinCtx,
    a_state: InputState,
    d_state: InputState,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    single_height_a: bool,
    sink: &mut dyn PairSink,
) -> Result<(Algorithm, JoinStats), JoinError> {
    let algo = choose_algorithm(ctx, a_state, d_state, a, d, single_height_a);
    let policy = if a_state.sorted && d_state.sorted {
        SortPolicy::AssumeSorted
    } else {
        SortPolicy::SortOnTheFly
    };
    let stats = execute(ctx, algo, a, d, policy, sink)?;
    Ok((algo, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::element_file;
    use pbitree_core::PBiTreeShape;

    fn ctx(b: usize) -> JoinCtx {
        JoinCtx::in_memory_free(PBiTreeShape::new(18).unwrap(), b)
    }

    #[test]
    fn table1_rows() {
        let c = ctx(4);
        let small = element_file(&c.pool, [(4u64, 0)]).unwrap();
        let big = element_file(&c.pool, (0u64..20_000).map(|i| ((i << 1) | 1, 1))).unwrap();

        let raw = InputState::raw();
        let sorted = InputState::sorted();
        let indexed = InputState::indexed();
        let both = InputState::sorted_and_indexed();

        assert_eq!(
            choose_algorithm(&c, both, both, &small, &big, false),
            Algorithm::AncDesBPlus
        );
        assert_eq!(
            choose_algorithm(&c, indexed, indexed, &small, &big, false),
            Algorithm::InlJn
        );
        assert_eq!(
            choose_algorithm(&c, sorted, sorted, &small, &big, false),
            Algorithm::StackTree
        );
        // Neither: single height => SHCJ, multi-height => VPJ at any size.
        assert_eq!(
            choose_algorithm(&c, raw, raw, &small, &big, false),
            Algorithm::Vpj
        );
        assert_eq!(
            choose_algorithm(&c, raw, raw, &small, &big, true),
            Algorithm::Shcj
        );
        assert_eq!(
            choose_algorithm(&c, raw, raw, &big, &big, false),
            Algorithm::Vpj
        );
        // Mixed states fall back to the weaker row.
        assert_eq!(
            choose_algorithm(&c, both, raw, &big, &big, false),
            Algorithm::Vpj
        );
    }

    #[test]
    fn plan_and_execute_runs_the_choice() {
        let c = ctx(8);
        let a = element_file(&c.pool, [(16u64, 0)]).unwrap();
        let d = element_file(&c.pool, [(20u64, 1), (18u64, 1)]).unwrap();
        let mut sink = crate::sink::CountSink::default();
        let (algo, stats) = plan_and_execute(
            &c,
            InputState::raw(),
            InputState::raw(),
            &a,
            &d,
            true,
            &mut sink,
        )
        .unwrap();
        assert_eq!(algo, Algorithm::Shcj);
        assert_eq!(stats.pairs, 2);
    }

    #[test]
    fn all_algorithms_execute() {
        for algo in [
            Algorithm::InlJn,
            Algorithm::StackTree,
            Algorithm::AncDesBPlus,
            Algorithm::MhcjRollup,
            Algorithm::Vpj,
            Algorithm::SharedScan,
        ] {
            let c = ctx(8);
            let a = element_file(&c.pool, [(16u64, 0), (24u64, 0)]).unwrap();
            let d = element_file(&c.pool, [(20u64, 1), (18u64, 1), (26u64, 1)]).unwrap();
            let mut sink = crate::sink::CollectSink::default();
            let stats = execute(&c, algo, &a, &d, SortPolicy::SortOnTheFly, &mut sink).unwrap();
            // 16 contains all three; 24 contains 20? no — 24's region is
            // [17,31]: contains 20, 18? 18 yes (17<=18<=31), 26 yes.
            assert_eq!(stats.pairs, 6, "{algo}");
        }
    }

    #[test]
    fn disjoint_envelopes_read_nothing() {
        // A: single-height ancestors in the left half of the H = 18 code
        // space; D: leaves in the right half. Several pages a side, so
        // every operator has real scans to skip. Then each side alone is
        // emptied: an empty side reads nothing whatever `prune` says.
        let left = |i: u64| (1 + 2 * i) << 3; // height 3, codes < 2^17
        let right = |i: u64| (1u64 << 17) + 2 * i + 1; // leaves > 2^17
        let cases = [
            ("disjoint", 1500, 3000),
            ("empty A", 0, 3000),
            ("empty D", 1500, 0),
        ];
        for (case, a_len, d_len) in cases {
            for prune in [true, false] {
                let ops = Algorithm::ALL.map(|algo| {
                    let op: Box<JoinOp> = Box::new(move |c, a, d, sink| {
                        execute(c, algo, a, d, SortPolicy::SortOnTheFly, sink)
                    });
                    (algo.to_string(), op)
                });
                let memjoin: Box<JoinOp> = Box::new(crate::memjoin::memory_containment_join);
                for (name, op) in ops.into_iter().chain([("memjoin".to_string(), memjoin)]) {
                    let c = crate::JoinCtxBuilder::in_memory(PBiTreeShape::new(18).unwrap(), 8)
                        .prune(prune)
                        .build();
                    let a = element_file(&c.pool, (0..a_len).map(|i| (left(i), 0))).unwrap();
                    let d = element_file(&c.pool, (0..d_len).map(|i| (right(i), 1))).unwrap();
                    c.pool.flush_all().unwrap();
                    let before = c.pool.pool_stats();
                    let mut sink = crate::sink::CountSink::default();
                    let at = format!("{name} {case} prune={prune}");
                    let result = op(&c, &a, &d, &mut sink);
                    let requests = c.pool.pool_stats().since(&before).requests();
                    let stats = result.unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(stats.pairs, 0, "{at}");
                    if prune || case != "disjoint" {
                        assert_eq!(stats.io.total(), 0, "{at}: read or wrote pages");
                        assert_eq!(requests, 0, "{at}: asked the pool for pages");
                    } else {
                        assert!(requests > 0, "{at}: skipped its scans with pruning off");
                    }
                }
            }
        }
    }

    /// An operator as the test drives it.
    type JoinOp = dyn Fn(
        &JoinCtx,
        &HeapFile<Element>,
        &HeapFile<Element>,
        &mut dyn PairSink,
    ) -> Result<JoinStats, JoinError>;
}
