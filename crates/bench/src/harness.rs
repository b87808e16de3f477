//! Shared experiment machinery: cold-start algorithm runs over generated
//! element sets.

use std::path::Path;
use std::sync::Arc;

use pbitree_core::PBiTreeShape;
use pbitree_joins::element::element_file_with;
use pbitree_joins::planner::execute;
use pbitree_joins::stacktree::SortPolicy;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{Algorithm, CountSink, JoinCtx, JoinStats};
use pbitree_storage::{BufferPool, CostModel, Disk, MemBackend};

/// The three region-code baselines behind `MIN_RGN`.
pub const RGN_BASELINES: [Algorithm; 3] = [
    Algorithm::InlJn,
    Algorithm::StackTree,
    Algorithm::AncDesBPlus,
];

/// Experiment configuration: everything a measured run's context is built
/// from ([`ExpConfig::ctx`]).
#[derive(Clone)]
pub struct ExpConfig {
    /// Buffer pool pages, the paper's `b` (500 in all experiments except
    /// the buffer sweep).
    pub buffer_pages: usize,
    /// Disk cost model (defaults to the year-2000 HDD).
    pub cost: CostModel,
    /// Declared access pattern for operator scans — `sequential(1)`
    /// disables read-ahead and write batching (the ablation baseline).
    /// Its `compress` flag (off by default) packs the loaded inputs *and*
    /// every file the operators spill.
    pub io: pbitree_storage::ScanOptions,
    /// Whether operators may push zone-map filters into their scans
    /// (on by default; the prune ablation turns it off for a baseline).
    pub prune: bool,
    /// Span collector every context from [`ExpConfig::ctx`] records into
    /// (`--trace`); `None` keeps tracing off.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            buffer_pages: 500,
            cost: CostModel::default(),
            io: pbitree_storage::ScanOptions::default(),
            prune: true,
            tracer: None,
        }
    }
}

impl ExpConfig {
    /// A context over a fresh in-memory disk: `buffer_pages` frames, the
    /// cost model, I/O options, pruning and tracer of this configuration.
    /// The one way the experiment binaries build a [`JoinCtx`].
    pub fn ctx(&self, shape: PBiTreeShape) -> JoinCtx {
        let pool = BufferPool::new(
            Disk::new(Box::new(MemBackend::new()), self.cost),
            self.buffer_pages,
        );
        let mut builder = JoinCtx::builder(pool, shape).io(self.io).prune(self.prune);
        if let Some(t) = &self.tracer {
            builder = builder.tracer(Arc::clone(t));
        }
        builder.build()
    }

    /// Writes the collected spans as JSONL to `path`, if tracing. Call
    /// once at binary exit.
    pub fn finish_trace(&self, path: Option<&Path>) {
        if let (Some(p), Some(t)) = (path, &self.tracer) {
            match t.save(p) {
                Ok(()) => eprintln!("trace: {} spans -> {}", t.span_count(), p.display()),
                Err(e) => {
                    eprintln!("error: cannot write trace {}: {e}", p.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

/// One measured algorithm run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which algorithm ran.
    pub algo: Algorithm,
    /// Its stats: pairs, false hits, pages and the simulated disk clock
    /// (`io`), and the measured CPU clock (`cpu_ns`).
    pub stats: JoinStats,
    /// Buffer-pool delta over the run (hits/misses and the zone-map
    /// pushdown counters `pages_skipped` / `records_filtered`).
    pub pool: pbitree_storage::PoolStats,
    /// Buffer-pool delta over the *input load* that precedes the measured
    /// run — where the packing counters for the base A/D files land.
    pub load: pbitree_storage::PoolStats,
}

/// Runs one algorithm cold: fresh pool, data loaded to "disk", cache
/// dropped, then the measured operator.
pub fn run_algo(
    shape: PBiTreeShape,
    a: &[(u64, u32)],
    d: &[(u64, u32)],
    cfg: &ExpConfig,
    algo: Algorithm,
) -> Measured {
    let ctx = cfg.ctx(shape);
    let load0 = ctx.pool.pool_stats();
    let af = element_file_with(&ctx.pool, cfg.io, a.iter().copied()).expect("load A");
    let df = element_file_with(&ctx.pool, cfg.io, d.iter().copied()).expect("load D");
    let load = ctx.pool.pool_stats().since(&load0);
    ctx.pool.evict_all().unwrap();
    let pool0 = ctx.pool.pool_stats();
    let mut sink = CountSink::default();
    let stats = execute(&ctx, algo, &af, &df, SortPolicy::SortOnTheFly, &mut sink)
        .expect("join run failed");
    debug_assert_eq!(stats.pairs, sink.count);
    let pool = ctx.pool.pool_stats().since(&pool0);
    Measured {
        algo,
        stats,
        pool,
        load,
    }
}

/// Runs a list of algorithms cold, in order.
pub fn run_competitors(
    shape: PBiTreeShape,
    a: &[(u64, u32)],
    d: &[(u64, u32)],
    cfg: &ExpConfig,
    algos: &[Algorithm],
) -> Vec<Measured> {
    algos
        .iter()
        .map(|&algo| run_algo(shape, a, d, cfg, algo))
        .collect()
}

/// The paper's `MIN_RGN` composite: the region-code baseline in `runs`
/// with the least simulated disk time (the first on a tie).
pub fn min_rgn(runs: &[Measured]) -> Option<&Measured> {
    runs.iter()
        .filter(|m| RGN_BASELINES.contains(&m.algo))
        .min_by(|x, y| x.stats.io.sim_secs().total_cmp(&y.stats.io.sim_secs()))
}

/// `MIN_RGN`'s simulated disk seconds.
pub fn min_rgn_secs(runs: &[Measured]) -> Option<f64> {
    min_rgn(runs).map(|m| m.stats.io.sim_secs())
}

/// The paper's improvement ratio `(T_ref - T_x) / T_ref`.
pub fn improvement_ratio(t_ref: f64, t_x: f64) -> f64 {
    if t_ref <= 0.0 {
        0.0
    } else {
        (t_ref - t_x) / t_ref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbitree_datagen::synthetic;

    #[test]
    fn cold_runs_agree_on_pair_counts() {
        let spec = synthetic::paper_single_height()[3].scaled(0.02); // SSSH tiny
        let ds = synthetic::generate(&spec);
        let cfg = ExpConfig {
            buffer_pages: 16,
            cost: CostModel::free(),
            ..ExpConfig::default()
        };
        let algos = [
            Algorithm::InlJn,
            Algorithm::StackTree,
            Algorithm::AncDesBPlus,
            Algorithm::Shcj,
            Algorithm::MhcjRollup,
            Algorithm::Vpj,
        ];
        let runs = run_competitors(ds.shape, &ds.a, &ds.d, &cfg, &algos);
        let pairs: Vec<u64> = runs.iter().map(|m| m.stats.pairs).collect();
        assert!(pairs.windows(2).all(|w| w[0] == w[1]), "{pairs:?}");
        assert_eq!(pairs[0], spec.matches as u64);
        assert!(min_rgn_secs(&runs).is_some());
    }

    /// Zone-map pushdown never drops a Rollup false-hit candidate on the
    /// paper's multi-height sets, so Table 2(f) counts what the paper
    /// counts with pruning on: pairs and false hits match pruning off on
    /// every row (as they do at full scale).
    #[test]
    fn pruning_keeps_rollup_pairs_and_false_hits() {
        let mut false_hits = 0;
        for w in crate::workloads::synthetic_multi(0.02) {
            let run = |prune| {
                let cfg = ExpConfig {
                    buffer_pages: 16,
                    cost: CostModel::free(),
                    prune,
                    ..ExpConfig::default()
                };
                run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::MhcjRollup).stats
            };
            let (off, on) = (run(false), run(true));
            assert_eq!(
                (on.pairs, on.false_hits),
                (off.pairs, off.false_hits),
                "{}: pruning changed (pairs, false hits)",
                w.name
            );
            false_hits += off.false_hits;
        }
        assert!(false_hits > 0, "no row produced a false hit to compare");
    }

    #[test]
    fn improvement_ratio_formula() {
        assert_eq!(improvement_ratio(10.0, 5.0), 0.5);
        assert!(improvement_ratio(0.0, 1.0) == 0.0);
        assert!(improvement_ratio(10.0, 12.0) < 0.0);
    }
}
