//! Shared experiment machinery: cold-start algorithm runs over generated
//! element sets.

use std::sync::{Arc, OnceLock};

use pbitree_core::PBiTreeShape;
use pbitree_joins::element::element_file_with;
use pbitree_joins::planner::execute;
use pbitree_joins::stacktree::SortPolicy;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{Algorithm, CountSink, JoinCtx, JoinStats};
use pbitree_storage::CostModel;

/// Process-global tracer, installed once when a binary gets `--trace`;
/// every subsequent [`run_algo`] context attaches to it automatically.
static TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();

/// Installs (or returns) the process-global tracer.
pub fn install_tracer() -> Arc<Tracer> {
    TRACER.get_or_init(|| Arc::new(Tracer::default())).clone()
}

/// The global tracer, if one was installed.
pub fn tracer() -> Option<Arc<Tracer>> {
    TRACER.get().cloned()
}

/// Installs the global tracer when `--trace <path>` was given. Call once
/// at binary startup, before any measured run.
pub fn init_trace(path: &Option<std::path::PathBuf>) {
    if path.is_some() {
        install_tracer();
    }
}

/// Writes the collected spans as JSONL to the `--trace` path, if tracing.
/// Call once at binary exit.
pub fn finish_trace(path: &Option<std::path::PathBuf>) {
    if let (Some(p), Some(t)) = (path, tracer()) {
        match t.save(p) {
            Ok(()) => eprintln!("trace: {} spans -> {}", t.span_count(), p.display()),
            Err(e) => {
                eprintln!("error: cannot write trace {}: {e}", p.display());
                std::process::exit(1);
            }
        }
    }
}

/// The three region-code baselines behind `MIN_RGN`.
pub const RGN_BASELINES: [Algorithm; 3] = [
    Algorithm::InlJn,
    Algorithm::StackTree,
    Algorithm::AncDesBPlus,
];

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
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
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            buffer_pages: 500,
            cost: CostModel::default(),
            io: pbitree_storage::ScanOptions::default(),
            prune: true,
        }
    }
}

/// One measured algorithm run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which algorithm ran.
    pub algo: Algorithm,
    /// Its stats (pairs, false hits, I/O, time).
    pub stats: JoinStats,
    /// Buffer-pool delta over the run (hits/misses and the zone-map
    /// pushdown counters `pages_skipped` / `records_filtered`).
    pub pool: pbitree_storage::PoolStats,
    /// Buffer-pool delta over the *input load* that precedes the measured
    /// run — where the packing counters for the base A/D files land.
    pub load: pbitree_storage::PoolStats,
}

impl Measured {
    /// Headline seconds.
    pub fn secs(&self) -> f64 {
        self.stats.elapsed_secs()
    }
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
    let mut builder = JoinCtx::builder(
        pbitree_storage::BufferPool::new(
            pbitree_storage::Disk::new(Box::new(pbitree_storage::MemBackend::new()), cfg.cost),
            cfg.buffer_pages,
        ),
        shape,
    )
    .io(cfg.io)
    .prune(cfg.prune);
    if let Some(t) = tracer() {
        builder = builder.tracer(t);
    }
    let ctx = builder.build();
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

/// Runs a list of algorithms cold and returns them with the `MIN_RGN`
/// composite (minimum elapsed time among the region baselines) when all
/// three baselines are present.
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

/// The minimum elapsed time among the region-code baselines in `runs`.
pub fn min_rgn_secs(runs: &[Measured]) -> Option<f64> {
    runs.iter()
        .filter(|m| RGN_BASELINES.contains(&m.algo))
        .map(|m| m.secs())
        .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.min(s))))
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
            cost: pbitree_storage::CostModel::free(),
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

    #[test]
    fn improvement_ratio_formula() {
        assert_eq!(improvement_ratio(10.0, 5.0), 0.5);
        assert!(improvement_ratio(0.0, 1.0) == 0.0);
        assert!(improvement_ratio(10.0, 12.0) < 0.0);
    }
}
