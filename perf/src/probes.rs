//! Microprobes of the traced run: public functions of one layer timed
//! directly on the workload's own data. They run only under `--trace 1`,
//! each inside a span named after its layer, so the per-layer self times
//! of a trace say how much probe work a workload gave each layer — and a
//! workload that bypasses a layer (no codec on `raw_join`, no partition
//! spill on `sorted_indexed`) reports 0 for it.

use std::hint::black_box;
use std::time::Instant;

use pbitree_core::Code;
use pbitree_index::BPlusTree;
use pbitree_joins::batch::{AdvanceMode, ElementBatch};
use pbitree_joins::planner::{choose_algorithm, execute};
use pbitree_joins::{
    plan_and_execute_sharded, Algorithm, CountSink, Element, InputState, JoinCtx, JoinStats,
    ShardRole, ShardedStore, Sharding, SortPolicy,
};
use pbitree_storage::util::rng::Rng;
use pbitree_storage::{external_sort_with, HeapFile, HeapWriter, PageId, ScanOptions};

use crate::data::{self, Dataset};
use crate::harness::{Report, RunCfg};
use crate::joins_wl::{Env, JoinSpec};
use crate::metrics::Values;
use crate::spans::Spans;

fn ns_per(t: Instant, n: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

pub fn join_probes(
    spec: &JoinSpec,
    cfg: &RunCfg,
    env: &Env,
    datasets: &[Dataset],
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let probe_span = spans.begin("probes");
    if spec.cold {
        raw_join_probes(cfg, env, datasets, spans, values, report);
    } else {
        sorted_indexed_probes(cfg, env, datasets, spans, values, report);
    }
    spans.end(probe_span);
}

/// One cold run of `algo` through `planner::execute` (plain MHCJ, which
/// the planner never picks, through its own entry point).
fn cold_op(
    ctx: &JoinCtx,
    algo: Option<Algorithm>,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
    expected: u64,
    report: &mut Report,
) -> JoinStats {
    ctx.pool.evict_all().expect("evict_all");
    let mut sink = CountSink::default();
    let stats = match algo {
        Some(algo) => execute(ctx, algo, a, d, SortPolicy::SortOnTheFly, &mut sink),
        None => pbitree_joins::mhcj::mhcj(ctx, a, d, &mut sink),
    }
    .expect("operator probe");
    if stats.pairs != expected || sink.count != expected {
        report.note(format!(
            "operator probe {algo:?}: {} pairs, oracle {expected}",
            stats.pairs
        ));
        report.failed += 1;
    }
    stats
}

fn set_op(values: &mut Values, cpu: &'static str, pages: &'static str, stats: &JoinStats) {
    values.set(cpu, stats.cpu_ns as f64 / 1e6);
    values.set(pages, stats.io.total() as f64);
}

fn raw_join_probes(
    cfg: &RunCfg,
    env: &Env,
    datasets: &[Dataset],
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let ctx = &env.ctx;
    let pool = &ctx.pool;
    let at = |name: &str| data::index_of(datasets, name);
    let mlll = &datasets[at("MLLL")];
    let (mlll_a, mlll_d) = &env.files[at("MLLL")];

    // core: the two code operations every partitioning join is made of.
    spans.layer("core.ancestor", || {
        let h = Code::from_raw_unchecked(mlll.w.a[0].0).height();
        let t = Instant::now();
        let mut hits = 0u64;
        for &(c, _) in &mlll.w.d {
            let d = Code::from_raw_unchecked(c);
            let a = d.ancestor_at_height(h);
            hits += u64::from(a.is_ancestor_of(d));
        }
        black_box(hits);
        values.set("core.ancestor_ns", ns_per(t, mlll.w.d.len() as u64));
    });

    // storage::buffer miss path: a file ≈ 6 × the pool, read cold page by
    // page with read-ahead off, so every request loads and (past the
    // first `b`) evicts.
    spans.layer("buffer.miss", || {
        pool.evict_all().expect("evict_all");
        let t = Instant::now();
        for pg in 0..mlll_d.pages() {
            black_box(
                pool.read_page(PageId::new(mlll_d.file_id(), pg))
                    .expect("read_page")[0],
            );
        }
        values.set("buffer.miss_ns", ns_per(t, u64::from(mlll_d.pages())));
    });

    // storage::heap: raw writer and batch scan over 1 M elements.
    spans.layer("heap.write_scan", || {
        let raw = ScanOptions::default().with_compress(false);
        let t = Instant::now();
        let mut w = HeapWriter::create_with(pool, raw).expect("writer");
        for &(c, tag) in &mlll.w.d {
            w.push(Element::new(c, tag)).expect("push");
        }
        let f = w.finish().expect("finish");
        values.set("heap.write_ns_per_elem", ns_per(t, f.records()));
        let mut buf = Vec::new();
        let mut scan = f.scan_with(pool, raw);
        let t = Instant::now();
        let mut n = 0u64;
        loop {
            buf.clear();
            let k = scan.next_batch(&mut buf).expect("next_batch");
            if k == 0 {
                break;
            }
            n += k as u64;
        }
        values.set("heap.scan_ns_per_elem", ns_per(t, n));
        drop(scan);
        f.drop_file(pool);
    });

    // One row per partitioning algorithm: cold, b = 500, paper datasets.
    let slll = at("SLLL");
    let mlsh = at("MLSH");
    let s = spans.layer("op.shcj", || {
        cold_op(
            ctx,
            Some(Algorithm::Shcj),
            &env.files[slll].0,
            &env.files[slll].1,
            datasets[slll].expected,
            report,
        )
    });
    set_op(values, "op.shcj.cpu_ms", "op.shcj.pages_io", &s);
    let s = spans.layer("op.mhcj", || {
        cold_op(ctx, None, mlll_a, mlll_d, mlll.expected, report)
    });
    set_op(values, "op.mhcj.cpu_ms", "op.mhcj.pages_io", &s);
    let s = spans.layer("op.mhcj_rollup", || {
        cold_op(
            ctx,
            Some(Algorithm::MhcjRollup),
            &env.files[mlsh].0,
            &env.files[mlsh].1,
            datasets[mlsh].expected,
            report,
        )
    });
    set_op(
        values,
        "op.mhcj_rollup.cpu_ms",
        "op.mhcj_rollup.pages_io",
        &s,
    );
    values.set(
        "rollup.false_hit_rate",
        s.false_hits as f64 / (s.pairs + s.false_hits).max(1) as f64,
    );
    let t1 = Instant::now();
    let s = spans.layer("op.vpj", || {
        cold_op(
            ctx,
            Some(Algorithm::Vpj),
            mlll_a,
            mlll_d,
            mlll.expected,
            report,
        )
    });
    let t1 = t1.elapsed().as_secs_f64();
    set_op(values, "op.vpj.cpu_ms", "op.vpj.pages_io", &s);

    // joins::parallel headroom: the same VPJ with the thread knob at 2.
    spans.layer("parallel.vpj_t2", || {
        let ctx2 = ctx.worker_with_threads(ctx.budget(), 2);
        let t2 = Instant::now();
        cold_op(
            &ctx2,
            Some(Algorithm::Vpj),
            mlll_a,
            mlll_d,
            mlll.expected,
            report,
        );
        values.set("parallel.speedup_t2", t1 / t2.elapsed().as_secs_f64());
    });

    // planner: Table 1 consulted on the five raw datasets.
    spans.layer("planner.choose", || {
        let reps = if cfg.smoke { 1_000 } else { 100_000 };
        let t = Instant::now();
        for i in 0..reps {
            let k = i % env.files.len();
            let (a, d) = &env.files[k];
            black_box(choose_algorithm(
                ctx,
                InputState::raw(),
                InputState::raw(),
                a,
                d,
                datasets[k].single_height_a,
            ));
        }
        values.set("planner.choose_ns", ns_per(t, reps as u64));
    });

    // joins::sharded headroom: 2 shards against 1 at the same total
    // frames, each shard on its own simulated disk.
    spans.layer("sharded.join", || {
        let mut sim = |shards: usize| {
            let proto = JoinCtx::builder(data::mem_pool(ctx.budget()), ctx.shape)
                .compression(false)
                .sharding(Sharding::new(shards))
                .build();
            let store = ShardedStore::from_ctx(&proto);
            let elems = |v: &[(u64, u32)]| {
                v.iter()
                    .map(|&(c, t)| Element::new(c, t))
                    .collect::<Vec<_>>()
            };
            let a = store
                .load(ShardRole::Ancestor, elems(&mlll.w.a))
                .expect("load A");
            let d = store
                .load(ShardRole::Descendant, elems(&mlll.w.d))
                .expect("load D");
            store.evict_all().expect("evict_all");
            let mut sink = CountSink::default();
            let st = plan_and_execute_sharded(
                &store,
                InputState::raw(),
                InputState::raw(),
                &a,
                &d,
                false,
                &mut sink,
            )
            .expect("sharded join");
            if sink.count != mlll.expected {
                report.note(format!(
                    "sharded probe: {} pairs, oracle {}",
                    sink.count, mlll.expected
                ));
                report.failed += 1;
            }
            (st.sim_disk_max_secs(), a.replicated())
        };
        let (s1, _) = sim(1);
        let (s2, replicated) = sim(2);
        values.set("sharded.sim_ratio_s2", s2 / s1);
        values.set("sharded.replicated", replicated as f64);
    });
}

fn sorted_indexed_probes(
    cfg: &RunCfg,
    env: &Env,
    datasets: &[Dataset],
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let ctx = &env.ctx;
    let pool = &ctx.pool;
    let mlll = &datasets[data::index_of(datasets, "MLLL")];
    let sorted_d = data::doc_ordered(&mlll.w.d);
    let sorted_a = data::doc_ordered(&mlll.w.a);
    let n = sorted_d.len() as u64;
    let packed = ScanOptions::default().with_compress(true);

    // storage::codec: encode through the packing writer, decode through
    // the columnar batch visitor on the then-resident file.
    let file = spans.layer("codec.encode", || {
        let before = pool.pool_stats();
        let t = Instant::now();
        let mut w = HeapWriter::create_with(pool, packed).expect("writer");
        for &(c, tag) in &sorted_d {
            w.push(Element::new(c, tag)).expect("push");
        }
        let f = w.finish().expect("finish");
        values.set("codec.encode_ns_per_elem", ns_per(t, n));
        let delta = pool.pool_stats().since(&before);
        values.set(
            "codec.bytes_per_elem",
            delta.packed_post_bytes as f64 / n as f64,
        );
        f
    });
    let scan_all = |f: &HeapFile<Element>| {
        let mut scan = f.scan_with(pool, packed);
        let mut seen = 0u64;
        loop {
            let k = scan
                .next_batch_each(|e| {
                    black_box(e);
                })
                .expect("next_batch_each");
            if k == 0 {
                break seen;
            }
            seen += k as u64;
        }
    };
    scan_all(&file); // make it resident
    spans.layer("codec.decode", || {
        let t = Instant::now();
        let seen = scan_all(&file);
        values.set("codec.decode_ns_per_elem", ns_per(t, seen));
    });

    // storage::buffer hit path: every page of the resident file, pinned
    // and released.
    spans.layer("buffer.hit", || {
        let rounds = 20u32;
        let t = Instant::now();
        for _ in 0..rounds {
            for pg in 0..file.pages() {
                black_box(
                    pool.read_page(PageId::new(file.file_id(), pg))
                        .expect("read_page")[0],
                );
            }
        }
        values.set(
            "buffer.hit_ns",
            ns_per(t, u64::from(rounds) * u64::from(file.pages())),
        );
    });

    // joins::batch: SoA refill, the 64-wide containment kernel, and the
    // start-column bound search.
    spans.layer("batch.kernels", || {
        let anc = Element::new(sorted_a[sorted_a.len() / 2].0, 0);
        let mut batch = ElementBatch::new();
        let (mut refill_ns, mut contained_ns, mut bound_ns) = (0u128, 0u128, 0u128);
        let (mut elems, mut bounds, mut sink) = (0u64, 0u64, 0u64);
        let mut scan = file.scan_with(pool, packed);
        loop {
            let t = Instant::now();
            let more = batch.refill(&mut scan).expect("refill");
            refill_ns += t.elapsed().as_nanos();
            if !more {
                break;
            }
            elems += batch.len() as u64;
            let t = Instant::now();
            sink += batch.for_each_contained(0, batch.len(), &anc, |e| {
                black_box(e);
            });
            contained_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            for i in (0..batch.len()).step_by(16) {
                let mode = AdvanceMode::for_density(1, batch.len());
                sink += batch.lower_bound_start_in(mode, 0, batch.start(i)) as u64;
                bounds += 1;
            }
            bound_ns += t.elapsed().as_nanos();
        }
        black_box(sink);
        values.set(
            "batch.refill_ns_per_elem",
            refill_ns as f64 / elems.max(1) as f64,
        );
        values.set(
            "batch.contained_ns_per_elem",
            contained_ns as f64 / elems.max(1) as f64,
        );
        values.set("batch.bound_ns", bound_ns as f64 / bounds.max(1) as f64);
    });
    file.drop_file(pool);

    // index::bptree: bulk load of 1 M sorted keys, seeded point gets, one
    // full leaf-chain walk.
    spans.layer("bptree.probes", || {
        let mut keys: Vec<(u64, u32)> = mlll.w.d.clone();
        keys.sort_unstable();
        let t = Instant::now();
        let tree = BPlusTree::<u64, u32>::bulk_load(pool, keys.iter().copied()).expect("bulk_load");
        values.set("bptree.bulk_load_ns_per_key", ns_per(t, n));
        let gets = if cfg.smoke { 10_000 } else { 200_000 };
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xB7EE);
        let picks: Vec<u64> = (0..gets)
            .map(|_| keys[rng.gen_range(0..keys.len())].0)
            .collect();
        for k in &picks {
            black_box(tree.get(pool, k).expect("get")); // warm
        }
        let before = pool.pool_stats();
        let t = Instant::now();
        let mut found = 0u64;
        for k in &picks {
            found += u64::from(tree.get(pool, k).expect("get").is_some());
        }
        values.set("bptree.get_ns", ns_per(t, gets as u64));
        values.set(
            "bptree.pages_per_get",
            pool.pool_stats().since(&before).requests() as f64 / gets as f64,
        );
        if found != gets as u64 {
            report.note(format!("bptree probe: {found} of {gets} keys found"));
            report.failed += 1;
        }
        let t = Instant::now();
        let mut it = tree.range_from(pool, &0).expect("range_from");
        let mut walked = 0u64;
        while let Some(kv) = it.next_entry().expect("next_entry") {
            black_box(kv);
            walked += 1;
        }
        values.set("bptree.range_ns_per_entry", ns_per(t, walked));
        if walked != n {
            report.note(format!("bptree probe: walked {walked} of {n} entries"));
            report.failed += 1;
        }
        tree.drop_file(pool);
    });

    // storage::sort and the three sort/index baselines: the paper's
    // regime (raw unsorted MLLL, b = 500, sorted/indexed on the fly), in
    // a pool of their own so the resident workload files stay resident.
    let small = data::mem_ctx(500, ctx.shape, false);
    let raw = ScanOptions::default().with_compress(false);
    let a = data::load(&small.pool, raw, &mlll.w.a).expect("load A");
    let d = data::load(&small.pool, raw, &mlll.w.d).expect("load D");
    spans.layer("sort.external", || {
        small.pool.evict_all().expect("evict_all");
        let before = small.pool.io_stats();
        let t = Instant::now();
        let sorted = external_sort_with(&small.pool, &d, 498, small.read_opts(), |e: &Element| {
            e.doc_key()
        })
        .expect("external_sort_with");
        values.set("sort.ns_per_elem", ns_per(t, n));
        values.set(
            "sort.pages_io",
            small.pool.io_stats().since(&before).total() as f64,
        );
        sorted.drop_file(&small.pool);
    });
    for (algo, span, cpu, pages) in [
        (
            Algorithm::StackTree,
            "op.stacktree",
            "op.stacktree.cpu_ms",
            "op.stacktree.pages_io",
        ),
        (
            Algorithm::AncDesBPlus,
            "op.adb",
            "op.adb.cpu_ms",
            "op.adb.pages_io",
        ),
        (
            Algorithm::InlJn,
            "op.inljn",
            "op.inljn.cpu_ms",
            "op.inljn.pages_io",
        ),
    ] {
        let s = spans.layer(span, || {
            cold_op(&small, Some(algo), &a, &d, mlll.expected, report)
        });
        set_op(values, cpu, pages, &s);
    }
}
