//! `update_recover`: logged writes beside reads on the same heap, pool and
//! zone-map code the joins scan, with one crash + recover per pass.
//!
//! A 200 k-element sorted base (587 raw pages) sits in a 128-frame pool
//! over a shared in-memory disk; one `Wal`; an `ElementStore` plus a
//! logged `BPlusTree` code index over the elements the script inserts,
//! kept in step. A pass starts from a freshly set-up image (so every pass
//! is the same work), runs a fixed seeded script of 4000 inserts, sibling
//! inserts, index gets and removes with 8 read-joins spread through it,
//! and ends by acknowledging (`Wal::flush`), then **crashing**: store,
//! index, log handle and pool are dropped with every unflushed frame,
//! a fresh pool opens on the surviving disk image, `wal::recover` replays
//! the log, and the recovered store and index must equal the driver's
//! in-memory model element for element. Single-threaded, so every count
//! is exact.
//!
//! The base is not in the index: a logged tree can only be grown by
//! `insert_logged`, and 200 k logged inserts would put ≈ 400 MB of node
//! images into the log before the first measured op.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use pbitree_core::{Code, PBiTreeShape};
use pbitree_index::BPlusTree;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{plan_and_execute, CountSink, Element, ElementStore, InputState, JoinCtx};
use pbitree_storage::util::rng::Rng;
use pbitree_storage::{
    recover, BufferPool, CostModel, Disk, FileId, HeapFile, MemBackend, PageId, ScanOptions,
    SharedBackend, Wal, WalOp, PAGE_SIZE,
};

use crate::data;
use crate::harness::{self, median, min_of, timed_op, LatencyLog, PassSum, Report, RunCfg};
use crate::joins_wl::{add_phases, generic_layers};
use crate::metrics::{end_to_end, per_layer, Values};
use crate::spans::Spans;

const H: u32 = 26;
const FRAMES: usize = 128;
const BASE_ELEMS: usize = 200_000;
const OPS_PER_PASS: usize = 4000;
const JOINS_PER_PASS: usize = 8;
/// Elements inserted (store + index) during set-up, so gets and sibling
/// inserts have targets from the first scripted op.
const SEED_INSERTS: usize = 2000;
/// Base elements at or above this height serve as insert anchors: 62
/// free slots below each, never removed.
const ANCHOR_HEIGHT: u32 = 6;
const JOIN_ANCESTORS: usize = 2000;
/// Wall seconds of one pass on the reference box.
const NOMINAL_PASS_S: f64 = 0.7;

/// Cost classes, cheapest first. The two insert flavours cost the same
/// (one heap slot write + one index insert) and count as one class.
const CLASSES: [&str; 5] = [
    "index_get",
    "insert",
    "remove",
    "read_join",
    "crash_recover",
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Get,
    Insert,
    Sibling,
    Remove,
    Join,
}

impl Kind {
    fn class(self) -> usize {
        match self {
            Kind::Get => 0,
            Kind::Insert | Kind::Sibling => 1,
            Kind::Remove => 2,
            Kind::Join => 3,
        }
    }
}

/// The seeded script of one pass: exact class counts (35 % insert, 10 %
/// sibling insert, 20 % get, 35 % remove), shuffled once, with the
/// read-joins at fixed even spacing. The selectors are drawn up front and
/// reduced against the *current* candidate count when the op runs.
fn script(seed: u64, ops: usize) -> Vec<(Kind, u64)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0DD5);
    let mut kinds = Vec::with_capacity(ops);
    for (kind, pct) in [
        (Kind::Insert, 35),
        (Kind::Sibling, 10),
        (Kind::Get, 20),
        (Kind::Remove, 35),
    ] {
        kinds.extend(std::iter::repeat_n(kind, ops * pct / 100));
    }
    rng.shuffle(&mut kinds);
    let gap = kinds.len() / JOINS_PER_PASS;
    let mut out = Vec::with_capacity(kinds.len() + JOINS_PER_PASS);
    for (i, k) in kinds.into_iter().enumerate() {
        if i % gap == gap / 2 {
            out.push((Kind::Join, 0));
        }
        out.push((k, rng.next_u64()));
    }
    out
}

/// The generated inputs: base elements in document order, the anchors
/// among them, and the fixed ancestor set of the read-join.
struct Inputs {
    shape: PBiTreeShape,
    base: Vec<(u64, u32)>,
    anchors: Vec<u64>,
    join_a: Vec<(u64, u32)>,
}

fn inputs(cfg: &RunCfg) -> Inputs {
    let n = ((BASE_ELEMS as f64 * cfg.scale()) as usize).max(1000);
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xBA5E);
    let mut codes = HashSet::with_capacity(n * 2);
    let mut base = Vec::with_capacity(n);
    while base.len() < n {
        let c = rng.gen_range(1u64..(1 << H));
        if codes.insert(c) {
            base.push((c, base.len() as u32));
        }
    }
    let base = data::doc_ordered(&base);
    let anchors: Vec<u64> = base
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| Code::from_raw_unchecked(c).height() >= ANCHOR_HEIGHT)
        .collect();
    let join_a = anchors
        .iter()
        .take(JOIN_ANCESTORS)
        .map(|&c| (c, 0))
        .collect();
    Inputs {
        shape: PBiTreeShape::new(H).expect("shape"),
        base,
        anchors,
        join_a,
    }
}

/// The driver's mirror of what the store must hold.
struct Model {
    /// Removable base elements (anchors stay for the whole run).
    base: Vec<(u64, u32)>,
    /// Script-inserted elements — exactly what the index holds — with
    /// the anchor each was inserted under.
    ins: Vec<(u64, u32, u64)>,
    anchors: Vec<(u64, u32)>,
    /// Codes of the read-join's ancestor set, and the join's exact
    /// cardinality over the current store, maintained per insert/remove.
    join_a: HashSet<u64>,
    join_pairs: u64,
    next_tag: u32,
}

impl Model {
    fn pairs_of(&self, shape: PBiTreeShape, code: u64) -> u64 {
        shape
            .ancestors(Code::from_raw_unchecked(code))
            .filter(|a| self.join_a.contains(&a.get()))
            .count() as u64
    }

    fn len(&self) -> usize {
        self.base.len() + self.ins.len() + self.anchors.len()
    }

    /// Every element, sorted by `(code, tag)`.
    fn elements(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .base
            .iter()
            .chain(&self.anchors)
            .copied()
            .chain(self.ins.iter().map(|&(c, t, _)| (c, t)))
            .collect();
        v.sort_unstable();
        v
    }
}

/// One incarnation of the program-side state (lost at every crash).
struct Live {
    ctx: JoinCtx,
    wal: Wal,
    store: ElementStore,
    index: BPlusTree<u64, u32>,
}

/// What survives a crash: the disk image and the file ids on it.
struct Durable {
    backend: SharedBackend<MemBackend>,
    wal_file: FileId,
    heap_file: FileId,
    index_file: FileId,
    join_a: HeapFile<Element>,
}

fn ctx_over(
    backend: &SharedBackend<MemBackend>,
    shape: PBiTreeShape,
    tracer: Option<&Arc<Tracer>>,
) -> JoinCtx {
    let pool = BufferPool::new(
        Disk::new(Box::new(backend.clone()), CostModel::default()),
        FRAMES,
    );
    let b = JoinCtx::builder(pool, shape).compression(false);
    match tracer {
        Some(t) => b.tracer(t.clone()).build(),
        None => b.build(),
    }
}

/// Bulk load + checkpoint + log + store + index + seed inserts: what
/// `setup_s` times.
fn setup(inp: &Inputs, tracer: Option<&Arc<Tracer>>) -> (Live, Durable, Model) {
    let backend = SharedBackend::new(MemBackend::new());
    let ctx = ctx_over(&backend, inp.shape, tracer);
    let raw = ScanOptions::default().with_compress(false);
    let base = data::load(&ctx.pool, raw, &inp.base).expect("base load");
    let join_a = data::load(&ctx.pool, raw, &inp.join_a).expect("join A load");
    // Checkpoint: bulk-loaded pages are durable before logging starts.
    ctx.pool.flush_all().expect("checkpoint");
    let wal = Wal::create(&ctx.pool);
    let store = ElementStore::from_heap(&ctx.pool, base, inp.shape).expect("store");
    let index = BPlusTree::<u64, u32>::new_logged(&ctx.pool, &wal).expect("index");
    let anchor_set: HashSet<u64> = inp.anchors.iter().copied().collect();
    let mut model = Model {
        base: inp
            .base
            .iter()
            .copied()
            .filter(|(c, _)| !anchor_set.contains(c))
            .collect(),
        ins: Vec::new(),
        anchors: inp
            .base
            .iter()
            .copied()
            .filter(|(c, _)| anchor_set.contains(c))
            .collect(),
        join_a: inp.join_a.iter().map(|&(c, _)| c).collect(),
        join_pairs: 0,
        next_tag: 1_000_000,
    };
    model.join_pairs = inp
        .base
        .iter()
        .map(|&(c, _)| model.pairs_of(inp.shape, c))
        .sum();
    let durable = Durable {
        backend,
        wal_file: wal.file(),
        heap_file: store.heap().file_id(),
        index_file: index.file_id(),
        join_a,
    };
    let mut live = Live {
        ctx,
        wal,
        store,
        index,
    };
    let seeds = (SEED_INSERTS * inp.base.len() / BASE_ELEMS).max(20);
    let mut no_spans = Spans::new(false, Instant::now());
    for i in 0..seeds {
        let anchor = inp.anchors[i % inp.anchors.len()];
        assert!(
            insert(
                &mut live,
                &mut model,
                inp.shape,
                anchor,
                None,
                &mut no_spans
            ),
            "seed insert {i} refused"
        );
    }
    live.wal.flush(&live.ctx.pool).expect("wal flush");
    (live, durable, model)
}

/// One insert (under an anchor, or right of `sibling` under it) into the
/// store and the index, mirrored in the model. False on any refusal.
fn insert(
    live: &mut Live,
    model: &mut Model,
    shape: PBiTreeShape,
    anchor: u64,
    sibling: Option<u64>,
    spans: &mut Spans,
) -> bool {
    let tag = model.next_tag;
    let parent = Code::from_raw_unchecked(anchor);
    let pool = &live.ctx.pool;
    let placed = match sibling {
        None => spans.layer("update.insert_under", || {
            live.store.insert_under(pool, &live.wal, parent, tag)
        }),
        Some(node) => spans.layer("update.insert_sibling_after", || {
            live.store.insert_sibling_after(
                pool,
                &live.wal,
                parent,
                Code::from_raw_unchecked(node),
                tag,
            )
        }),
    };
    let Ok(code) = placed else { return false };
    let indexed = spans.layer("bptree.insert_logged", || {
        live.index.insert_logged(pool, &live.wal, code.get(), tag)
    });
    model.next_tag += 1;
    model.join_pairs += model.pairs_of(shape, code.get());
    model.ins.push((code.get(), tag, anchor));
    indexed.is_ok()
}

/// Log activity summed over the measured passes of one kind, beside the
/// [`PassSum`] counters.
#[derive(Default)]
struct LogSum {
    gate_flushes: u64,
    log_pages: u64,
}

pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let mut values = Values::default();
    let t_gen = Instant::now();
    let inp = inputs(cfg);
    report.note(format!(
        "gen_s {:.3} (base codes, not in setup_s)",
        t_gen.elapsed().as_secs_f64()
    ));
    let ops = (OPS_PER_PASS as f64 * cfg.scale()) as usize;
    let script = script(cfg.seed, ops);

    let tracer = Arc::new(Tracer::new());
    let mut log = LatencyLog::new(&CLASSES);
    let (warmup, n) = cfg.passes(1, NOMINAL_PASS_S, 10);
    let mut setup_s = Vec::new();
    let mut sums = [PassSum::default(), PassSum::default()];
    let mut logs = [LogSum::default(), LogSum::default()];
    let mut traced_mutations = 0u64;
    let mut traced_ops = 0u64;
    let (mut remove_requests, mut removes) = (0u64, 0u64);
    let (mut recover_s, mut recover_ops) = (Vec::new(), 0u64);
    let mut last = None;

    let workload_span = spans.begin("update_recover");
    for pass in 0..warmup + n {
        let measuring = pass >= warmup;
        let k = pass.saturating_sub(warmup);
        let tracing = measuring && cfg.traced_pass(k);
        spans.pause(!tracing);

        // Every pass starts from a freshly set-up image, so every pass is
        // the same work (and `setup_s` gets one sample per pass for free).
        drop(last.take());
        let t = Instant::now();
        let (mut live, durable, mut model) =
            spans.layer("setup", || setup(&inp, tracing.then_some(&tracer)));
        setup_s.push(t.elapsed().as_secs_f64());
        if pass == 0 {
            let heap_pages = live.store.heap().pages();
            report.note(format!(
                "sizes: {} base elements, {heap_pages} heap pages, pool {FRAMES} frames (data/cache {:.2}), {} anchors, script {} ops/pass",
                inp.base.len(),
                f64::from(heap_pages) / FRAMES as f64,
                inp.anchors.len(),
                script.len() + 1
            ));
        }

        let cpu0 = harness::proc_cpu_s();
        let base_snap = live.ctx.pool.stats_snapshot();
        let base_prefetched = live.ctx.pool.prefetched();
        let log_pages0 = u64::from(live.ctx.pool.num_pages(durable.wal_file));
        let pass_span = spans.begin("pass");
        let mut pass_ns = 0u64;
        for (pos, &(kind, sel)) in script.iter().enumerate() {
            let slot = measuring.then_some((&mut log, k, pos, kind.class()));
            let t = Instant::now();
            let ok = match kind {
                Kind::Get => {
                    let (code, tag, _) = model.ins[(sel % model.ins.len() as u64) as usize];
                    timed_op(spans, slot, "index_get", |spans| {
                        spans.layer("bptree.get", || live.index.get(&live.ctx.pool, &code))
                    }) == Ok(Some(tag))
                }
                Kind::Insert => {
                    let anchor = inp.anchors[(sel % inp.anchors.len() as u64) as usize];
                    timed_op(spans, slot, "insert_under", |spans| {
                        insert(&mut live, &mut model, inp.shape, anchor, None, spans)
                    })
                }
                Kind::Sibling => {
                    let (node, _, anchor) = model.ins[(sel % model.ins.len() as u64) as usize];
                    timed_op(spans, slot, "insert_sibling", |spans| {
                        insert(&mut live, &mut model, inp.shape, anchor, Some(node), spans)
                    })
                }
                Kind::Remove => {
                    let r = (sel % (model.base.len() + model.ins.len()) as u64) as usize;
                    let (code, tag, indexed) = if r < model.base.len() {
                        let (c, t) = model.base.swap_remove(r);
                        (c, t, false)
                    } else {
                        let (c, t, _) = model.ins.swap_remove(r - model.base.len());
                        (c, t, true)
                    };
                    model.join_pairs -= model.pairs_of(inp.shape, code);
                    let req0 = live.ctx.pool.pool_stats().requests();
                    let ok = timed_op(spans, slot, "remove", |spans| {
                        let pool = &live.ctx.pool;
                        let gone = spans.layer("update.remove", || {
                            live.store
                                .remove(pool, &live.wal, Code::from_raw_unchecked(code), tag)
                        });
                        let unindexed = !indexed
                            || spans.layer("bptree.delete_logged", || {
                                live.index.delete_logged(pool, &live.wal, &code)
                            }) == Ok(true);
                        matches!(gone, Ok(true)) && unindexed
                    });
                    if tracing {
                        remove_requests += live.ctx.pool.pool_stats().requests() - req0;
                        removes += 1;
                    }
                    ok
                }
                Kind::Join => {
                    let mut sink = CountSink::default();
                    let out = timed_op(spans, slot, "read_join", |spans| {
                        spans.layer("planner.plan_and_execute", || {
                            plan_and_execute(
                                &live.ctx,
                                InputState::raw(),
                                InputState::raw(),
                                &durable.join_a,
                                live.store.heap(),
                                false,
                                &mut sink,
                            )
                        })
                    });
                    match out {
                        Ok((_, stats)) => {
                            if tracing {
                                add_phases(&mut values, &stats);
                            }
                            stats.pairs == model.join_pairs && sink.count == model.join_pairs
                        }
                        Err(_) => false,
                    }
                }
            };
            pass_ns += t.elapsed().as_nanos() as u64;
            report.check(measuring, ok);
        }

        // The pass's last op: acknowledge, crash, recover.
        let wal_stats = live.wal.stats();
        let t = Instant::now();
        let slot = measuring.then_some((&mut log, k, script.len(), 4));
        let (reborn, recovered) = timed_op(spans, slot, "crash_recover", |spans| {
            let Live {
                ctx,
                wal,
                store,
                index,
            } = live;
            spans
                .layer("wal.flush", || wal.flush(&ctx.pool))
                .expect("wal flush");
            // Counters of the dying incarnation, read before it goes.
            let mut delta = ctx.pool.stats_snapshot().since(&base_snap);
            let prefetched = ctx.pool.prefetched() - base_prefetched;
            let log_pages = u64::from(ctx.pool.num_pages(durable.wal_file)) - log_pages0;
            // Crash: nothing is flushed — every dirty frame vanishes.
            drop((store, index, wal, ctx));
            let ctx = spans.layer("buffer.new_pool", || {
                ctx_over(&durable.backend, inp.shape, None)
            });
            let t_rec = Instant::now();
            let (wal, rep) = spans
                .layer("wal.recover", || recover(&ctx.pool, durable.wal_file))
                .expect("recover");
            let rec_s = t_rec.elapsed().as_secs_f64();
            let store = spans
                .layer("update.open", || {
                    ElementStore::open(&ctx.pool, durable.heap_file, inp.shape)
                })
                .expect("store open");
            let index = spans
                .layer("bptree.open_logged", || {
                    BPlusTree::<u64, u32>::open_logged(&ctx.pool, durable.index_file)
                })
                .expect("index open");
            // The new pool's clock started at zero: all of it is recovery.
            harness::add_snapshot(&mut delta, &ctx.pool.stats_snapshot());
            (
                Live {
                    ctx,
                    wal,
                    store,
                    index,
                },
                (delta, prefetched, log_pages, rec_s, rep.ops_applied),
            )
        });
        pass_ns += t.elapsed().as_nanos() as u64;
        spans.end(pass_span);
        let (delta, prefetched, log_pages, rec_s, rec_ops) = recovered;

        // Oracle (untimed): the recovered store and index equal the model.
        let ok = recovered_equals_model(&reborn, &model);
        report.check(measuring, ok);
        if !ok {
            report.note(format!(
                "pass {pass}: recovered state differs from the model"
            ));
        }
        if measuring {
            let kind = usize::from(tracing);
            sums[kind].add(&delta, prefetched);
            sums[kind].cpu_s += harness::proc_cpu_s() - cpu0;
            sums[kind]
                .rates
                .push((script.len() + 1) as f64 / (pass_ns as f64 / 1e9));
            logs[kind].gate_flushes += wal_stats.gate_flushes;
            logs[kind].log_pages += log_pages;
            if tracing {
                traced_ops += script.len() as u64 + 1;
                traced_mutations += script
                    .iter()
                    .filter(|(k, _)| !matches!(k, Kind::Get | Kind::Join))
                    .count() as u64;
                recover_s.push(rec_s);
                recover_ops += rec_ops;
            }
        }
        last = Some((reborn, durable, model));
    }
    spans.end(workload_span);
    spans.pause(false);
    let (live, _durable, model) = last.expect("at least one pass");

    report.notes.extend(PassSum::lines(&sums));
    log.report_ranks(cfg, &mut report);

    if cfg.trace {
        generic_layers(&mut values, &sums[1].snap, sums[1].prefetched);
        let mean_us = |name: &str| {
            let (mut ns, mut k) = (0u64, 0u64);
            for s in spans.named(name) {
                ns += s.end_ns - s.start_ns;
                k += 1;
            }
            ns as f64 / k.max(1) as f64 / 1e3
        };
        values.set("update.insert_us", mean_us("update.insert_under"));
        values.set("update.remove_us", mean_us("update.remove"));
        values.set("bptree.insert_logged_us", mean_us("bptree.insert_logged"));
        values.set("bptree.delete_logged_us", mean_us("bptree.delete_logged"));
        values.set("bptree.get_ns", mean_us("bptree.get") * 1e3);
        values.set(
            "heap.delete_pages_per_op",
            remove_requests as f64 / removes.max(1) as f64,
        );
        values.set("wal.recover_ms", median(&recover_s) * 1e3);
        values.set(
            "wal.recover_ops_per_s",
            recover_ops as f64 / recover_s.iter().sum::<f64>(),
        );
        values.set(
            "wal.log_bytes_per_user_byte",
            (logs[1].log_pages * PAGE_SIZE as u64) as f64 / (traced_mutations * 12) as f64,
        );
        values.set(
            "wal.gate_flushes_per_kop",
            logs[1].gate_flushes as f64 * 1e3 / traced_ops as f64,
        );
        harness::trace_run_metrics(&mut values, &sums, spans);
        let probe_span = spans.begin("probes");
        probes(cfg, &live, spans, &mut values, &mut report);
        spans.end(probe_span);
        values.emit(per_layer(), &mut report);
    } else {
        values.set("setup_s", min_of(&setup_s));
        values.set("ops_per_s", log.quiet_rate());
        values.set("p50_ms", log.quiet_percentile_ms(50.0));
        values.set("tail_ms", log.quiet_percentile_ms(log.tail_percentile()));
        values.set("sim_disk_s", sums[0].snap.io.sim_secs());
        values.set("pages_io", sums[0].snap.io.total() as f64);
        values.set(
            "stored_bytes_per_elem",
            harness::stored_bytes(&live.ctx.pool) as f64 / model.len() as f64,
        );
        values.set("peak_rss_mb", harness::peak_rss_mb());
        values.emit(end_to_end(), &mut report);
    }
    report
}

fn recovered_equals_model(live: &Live, model: &Model) -> bool {
    let pool = &live.ctx.pool;
    let Ok(stored) = live.store.heap().read_all(pool) else {
        return false;
    };
    let mut stored: Vec<(u64, u32)> = stored.into_iter().map(|e| (e.code.get(), e.tag)).collect();
    stored.sort_unstable();
    if stored != model.elements() || live.store.len() != model.len() as u64 {
        return false;
    }
    let mut want: Vec<(u64, u32)> = model.ins.iter().map(|&(c, t, _)| (c, t)).collect();
    want.sort_unstable();
    let Ok(mut it) = live.index.iter(pool) else {
        return false;
    };
    let mut got = Vec::with_capacity(want.len());
    loop {
        match it.next_entry() {
            Ok(Some(kv)) => got.push(kv),
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    got == want && live.index.len() == want.len() as u64
}

/// `heap.*_logged` and `wal.commit` timed directly, on a scratch file in
/// the workload's own pool and log.
fn probes(cfg: &RunCfg, live: &Live, spans: &mut Spans, values: &mut Values, report: &mut Report) {
    let pool = &live.ctx.pool;
    let n = if cfg.smoke { 2_000 } else { 20_000 };
    spans.layer("heap.logged", || {
        let mut heap = HeapFile::<Element>::create(pool);
        let elems: Vec<Element> = (0..n as u64)
            .map(|i| Element::new((i << 1) | 1, i as u32))
            .collect();
        let t = Instant::now();
        for e in &elems {
            heap.insert_logged(pool, &live.wal, *e)
                .expect("insert_logged");
        }
        values.set(
            "heap.insert_logged_ns",
            t.elapsed().as_nanos() as f64 / n as f64,
        );
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xDE1);
        let mut picks = elems.clone();
        rng.shuffle(&mut picks);
        picks.truncate(n / 20);
        let t = Instant::now();
        let mut gone = 0usize;
        for e in &picks {
            gone += usize::from(
                heap.delete_logged(pool, &live.wal, e)
                    .expect("delete_logged"),
            );
        }
        values.set(
            "heap.delete_logged_us",
            t.elapsed().as_nanos() as f64 / picks.len() as f64 / 1e3,
        );
        if gone != picks.len() {
            report.note(format!(
                "heap probe: {gone} of {} deletes found their record",
                picks.len()
            ));
            report.failed += 1;
        }
    });
    spans.layer("wal.commit", || {
        let file = pool.create_file();
        let page = pool.allocate_page(file).expect("allocate_page");
        let pid = PageId::new(file, page);
        let t = Instant::now();
        for i in 0..n as u64 {
            let mut op = WalOp::new();
            op.page_write(pid, 0, &i.to_le_bytes());
            live.wal.commit(pool, op).expect("commit");
        }
        values.set("wal.commit_ns", t.elapsed().as_nanos() as f64 / n as f64);
    });
}
