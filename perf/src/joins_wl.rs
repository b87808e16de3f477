//! `raw_join` and `sorted_indexed`: the paper's synthetic datasets pushed
//! through `planner::plan_and_execute`, one op per (dataset, input state)
//! class, five equal-count classes per pass.
//!
//! The two workloads share this driver and differ only in their
//! [`JoinSpec`]: `raw_join` is data ≫ cache, unsorted raw pages, cold per
//! op (Table 1 bottom row — partitioning joins, spills, pool miss path);
//! `sorted_indexed` is resident packed pages in document order (Table 1
//! upper rows — codec decode, batch kernels, pool hit path, B+-tree).

use std::sync::Arc;
use std::time::Instant;

use pbitree_core::PBiTreeShape;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{
    plan_and_execute, Algorithm, CountSink, Element, InputState, JoinCtx, JoinStats,
};
use pbitree_storage::{HeapFile, ScanOptions, StatsSnapshot};

use crate::data::{self, Dataset};
use crate::harness::{self, min_of, timed_op, LatencyLog, PassSum, Report, RunCfg};
use crate::metrics::{end_to_end, per_layer, Values};
use crate::probes;
use crate::spans::Spans;

/// One op class: a dataset joined under a declared input state.
pub struct JoinClass {
    pub name: &'static str,
    pub dataset: &'static str,
    pub state: InputState,
}

const fn class(name: &'static str, dataset: &'static str, state: InputState) -> JoinClass {
    JoinClass {
        name,
        dataset,
        state,
    }
}

pub struct JoinSpec {
    pub name: &'static str,
    /// Buffer pool frames, the paper's `b`.
    pub frames: usize,
    /// Inputs sorted to document order and written packed (`true`), or
    /// loaded as generated on raw 12-byte pages (`false`).
    pub sorted_packed: bool,
    /// `pool.evict_all()` before every op, as the paper measures.
    pub cold: bool,
    pub classes: &'static [JoinClass],
    pub warmup: usize,
    /// Wall seconds of one pass on the reference box (see README).
    pub nominal_pass_s: f64,
}

pub fn raw_join() -> JoinSpec {
    const RAW: InputState = InputState {
        indexed: false,
        sorted: false,
    };
    const CLASSES: &[JoinClass] = &[
        class("MSLH", "MSLH", RAW),
        class("SLLL", "SLLL", RAW),
        class("MLLL", "MLLL", RAW),
        class("MLLH", "MLLH", RAW),
        class("MLSH", "MLSH", RAW),
    ];
    JoinSpec {
        name: "raw_join",
        frames: 500,
        sorted_packed: false,
        cold: true,
        classes: CLASSES,
        warmup: 1,
        nominal_pass_s: 1.7,
    }
}

pub fn sorted_indexed() -> JoinSpec {
    const SORTED: InputState = InputState {
        indexed: false,
        sorted: true,
    };
    const BOTH: InputState = InputState {
        indexed: true,
        sorted: true,
    };
    const INDEXED: InputState = InputState {
        indexed: true,
        sorted: false,
    };
    const CLASSES: &[JoinClass] = &[
        class("stacktree/MLLL", "MLLL", SORTED),
        class("stacktree/MLLH", "MLLH", SORTED),
        class("adb/MLLH", "MLLH", BOTH),
        class("adb/MLLL", "MLLL", BOTH),
        class("inljn/MSLH", "MSLH", INDEXED),
    ];
    JoinSpec {
        name: "sorted_indexed",
        frames: 8192,
        sorted_packed: true,
        cold: false,
        classes: CLASSES,
        warmup: 2,
        nominal_pass_s: 1.0,
    }
}

/// The program-side state one set-up builds: pool, context, loaded files.
pub struct Env {
    pub ctx: JoinCtx,
    /// `(A, D)` heap files per distinct dataset, in `datasets` order.
    pub files: Vec<(HeapFile<Element>, HeapFile<Element>)>,
    pub elements: u64,
}

impl JoinSpec {
    fn dataset_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for c in self.classes {
            if !names.contains(&c.dataset) {
                names.push(c.dataset);
            }
        }
        names
    }

    fn load_opts(&self) -> ScanOptions {
        ScanOptions::default().with_compress(self.sorted_packed)
    }

    /// Pool + context + every input loaded: what `setup_s` times.
    pub fn build_env(&self, shape: PBiTreeShape, datasets: &[Dataset]) -> Env {
        let ctx = data::mem_ctx(self.frames, shape, self.sorted_packed);
        let mut elements = 0u64;
        let files = datasets
            .iter()
            .map(|ds| {
                elements += (ds.w.a.len() + ds.w.d.len()) as u64;
                let side = |items: &[(u64, u32)]| {
                    if self.sorted_packed {
                        data::load(&ctx.pool, self.load_opts(), &data::doc_ordered(items))
                    } else {
                        data::load(&ctx.pool, self.load_opts(), items)
                    }
                    .expect("input load")
                };
                (side(&ds.w.a), side(&ds.w.d))
            })
            .collect();
        Env {
            ctx,
            files,
            elements,
        }
    }
}

/// The `phase.*_ms` metric a program-tracer phase of this name counts
/// towards (load, plan, fallback and the synthetic remainder are "other").
pub fn phase_metric(phase: &str) -> &'static str {
    match phase {
        "partition" => "phase.partition_ms",
        "build" => "phase.build_ms",
        "probe" => "phase.probe_ms",
        "merge" => "phase.merge_ms",
        "sort" => "phase.sort_ms",
        _ => "phase.other_ms",
    }
}

/// Sums a traced op's phase tiling into the `phase.*_ms` metrics.
pub fn add_phases(values: &mut Values, stats: &JoinStats) {
    for p in &stats.phases {
        values.add(phase_metric(p.name), p.cpu_ns as f64 / 1e6);
    }
}

/// The counters every traced workload reports from its own passes.
pub fn generic_layers(values: &mut Values, delta: &StatsSnapshot, prefetched: u64) {
    let reqs = delta.pool.requests();
    if reqs > 0 {
        values.set("buffer.hit_rate", delta.pool.hits as f64 / reqs as f64);
    }
    let seen = delta.pool.pages_skipped + reqs;
    if seen > 0 {
        values.set(
            "zone.skip_rate",
            delta.pool.pages_skipped as f64 / seen as f64,
        );
    }
    values.set("zone.records_filtered", delta.pool.records_filtered as f64);
    values.set("disk.seq_reads", delta.io.seq_reads as f64);
    values.set("disk.rand_reads", delta.io.rand_reads as f64);
    values.set("disk.seq_writes", delta.io.seq_writes as f64);
    values.set("disk.rand_writes", delta.io.rand_writes as f64);
    values.set("disk.prefetched", prefetched as f64);
}

pub fn run(spec: &JoinSpec, cfg: &RunCfg, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let mut values = Values::default();

    // Inputs and oracles, once.
    let t_gen = Instant::now();
    let names = spec.dataset_names();
    let datasets: Vec<Dataset> = names
        .iter()
        .map(|n| data::dataset(n, cfg.scale(), cfg.seed))
        .collect();
    let shape = datasets[0].w.shape;
    report.note(format!(
        "gen_s {:.3} (datagen + oracles, not in setup_s)",
        t_gen.elapsed().as_secs_f64()
    ));

    // Program-side set-up, repeated for the median.
    let mut setup = Vec::new();
    let mut env = None;
    for _ in 0..cfg.setup_reps() {
        drop(env.take());
        let t = Instant::now();
        env = Some(spans.layer("setup", || spec.build_env(shape, &datasets)));
        setup.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let pool = &env.ctx.pool;
    let data_pages: u32 = env.files.iter().map(|(a, d)| a.pages() + d.pages()).sum();
    report.note(format!(
        "sizes: {} elements, {} data pages, pool {} frames (data/cache {:.2})",
        env.elements,
        data_pages,
        spec.frames,
        f64::from(data_pages) / spec.frames as f64
    ));

    let tracer = Arc::new(Tracer::new());
    let traced_ctx = env.ctx.worker(env.ctx.budget()).with_tracer(tracer);
    let class_names: Vec<&'static str> = spec.classes.iter().map(|c| c.name).collect();
    let mut log = LatencyLog::new(&class_names);
    let (warmup, n) = cfg.passes(spec.warmup, spec.nominal_pass_s, 10);
    let mut algos: Vec<Option<Algorithm>> = vec![None; spec.classes.len()];
    let mut sums = [PassSum::default(), PassSum::default()];
    let workload_span = spans.begin(spec.name);
    for pass in 0..warmup + n {
        let measuring = pass >= warmup;
        let k = pass.saturating_sub(warmup);
        let tracing = measuring && cfg.traced_pass(k);
        spans.pause(!tracing);
        let ctx = if tracing { &traced_ctx } else { &env.ctx };
        let (snap0, prefetched0, cpu0) = (
            pool.stats_snapshot(),
            pool.prefetched(),
            harness::proc_cpu_s(),
        );
        let pass_span = spans.begin("pass");
        let t_pass = Instant::now();
        for (ci, class) in spec.classes.iter().enumerate() {
            let di = data::index_of(&datasets, class.dataset);
            let (af, df) = &env.files[di];
            let ds = &datasets[di];
            let mut sink = CountSink::default();
            let slot = measuring.then_some((&mut log, k, ci, ci));
            let out = timed_op(spans, slot, class.name, |spans| {
                if spec.cold {
                    spans
                        .layer("buffer.evict_all", || pool.evict_all())
                        .expect("evict_all");
                }
                spans.layer("planner.plan_and_execute", || {
                    plan_and_execute(
                        ctx,
                        class.state,
                        class.state,
                        af,
                        df,
                        ds.single_height_a,
                        &mut sink,
                    )
                })
            });
            let ok = match &out {
                Ok((algo, stats)) => {
                    algos[ci] = Some(*algo);
                    if tracing {
                        add_phases(&mut values, stats);
                    }
                    stats.pairs == ds.expected && sink.count == ds.expected
                }
                Err(e) => {
                    report.note(format!("op {} failed: {e}", class.name));
                    false
                }
            };
            report.check(measuring, ok);
        }
        let secs = t_pass.elapsed().as_secs_f64();
        spans.end(pass_span);
        if measuring {
            let sum = &mut sums[usize::from(tracing)];
            sum.add(
                &pool.stats_snapshot().since(&snap0),
                pool.prefetched() - prefetched0,
            );
            sum.cpu_s += harness::proc_cpu_s() - cpu0;
            sum.rates.push(spec.classes.len() as f64 / secs);
        }
    }
    spans.end(workload_span);
    spans.pause(false);

    report.notes.extend(PassSum::lines(&sums));
    report.note(format!(
        "planner: {}",
        spec.classes
            .iter()
            .zip(&algos)
            .map(|(c, a)| format!("{}→{}", c.name, a.map_or("-".into(), |a| a.to_string())))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    log.report_ranks(cfg, &mut report);

    if cfg.trace {
        generic_layers(&mut values, &sums[1].snap, sums[1].prefetched);
        harness::trace_run_metrics(&mut values, &sums, spans);
        probes::join_probes(spec, cfg, &env, &datasets, spans, &mut values, &mut report);
        values.emit(per_layer(), &mut report);
    } else {
        let io = sums[0].snap.io;
        values.set("setup_s", min_of(&setup));
        values.set("ops_per_s", log.quiet_rate());
        values.set("p50_ms", log.quiet_percentile_ms(50.0));
        values.set("tail_ms", log.quiet_percentile_ms(log.tail_percentile()));
        values.set("sim_disk_s", io.sim_secs());
        values.set("pages_io", io.total() as f64);
        values.set(
            "stored_bytes_per_elem",
            harness::stored_bytes(pool) as f64 / env.elements as f64,
        );
        values.set("peak_rss_mb", harness::peak_rss_mb());
        values.emit(end_to_end(), &mut report);
    }
    report
}
