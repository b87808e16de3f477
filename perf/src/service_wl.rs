//! `service`: the embedded `QueryService` behind `server::spawn` on
//! loopback TCP, driven through `server::Client`.
//!
//! The only workload where `server::{proto, admission, service, server}`,
//! `xml::query` and `joins::shared` do work. Latency and every count come
//! from **Phase A** (one client, so page I/O repeats exactly); throughput
//! comes from **Phase B** (two clients — the only place a shared lock can
//! give back more than its self-time share).

use std::sync::Arc;
use std::time::Instant;

use pbitree_joins::trace::{SpanKind, Tracer};
use pbitree_server::proto::{self, Response};
use pbitree_server::{
    spawn, xmark_workload, AdmissionController, Client, QueryService, Request, ServerHandle,
    ServiceConfig,
};
use pbitree_storage::util::rng::Rng;
use pbitree_storage::CostModel;
use pbitree_xml::DescendantPath;

use crate::harness::{self, median, min_of, timed_op, LatencyLog, PassSum, Report, RunCfg};
use crate::joins_wl::{generic_layers, phase_metric};
use crate::metrics::{end_to_end, per_layer, Values};
use crate::spans::Spans;

/// Wall seconds of one Phase A pass (one traversal of the weighted
/// script) plus its share of Phase B on the reference box.
const NOMINAL_PASS_S: f64 = 1.35;

/// Frames a `QUERYBATCH` asks for: its 16 ancestor sets must be held in
/// memory at once, which the default 64-frame grant cannot.
const BATCH_BUDGET: usize = 256;

/// What a script op sends.
enum Kind {
    Query { path: String, raw: bool },
    Batch { paths: Vec<String> },
}

/// One distinct script op: an op class of its own (its cost is a function
/// of its path), issued `weight` times per pass.
struct Item {
    name: &'static str,
    kind: Kind,
    weight: usize,
    /// The byte-exact response(s) of the in-process baseline.
    expect: Vec<Vec<u8>>,
}

/// Sixteen ancestor tags sharing one descendant tag: one shareable group,
/// so the service's `HashMap` of groups has a single entry and the I/O
/// order of a batch cannot depend on the process's hash seed.
const BATCH_ANCESTORS: [&str; 16] = [
    "item",
    "category",
    "open_auction",
    "closed_auction",
    "annotation",
    "description",
    "parlist",
    "listitem",
    "mail",
    "mailbox",
    "regions",
    "categories",
    "open_auctions",
    "closed_auctions",
    "europe",
    "namerica",
];

/// Ops of each class per 100-op pass. Sorted by cost the pass reads:
/// 17 cheap classes × 2 (ranks 1–34), the median class × 30 (35–64),
/// 5 dearer classes × 4 (65–84), two raw partition joins × 1 (85–86),
/// the tail class × 12 (87–98), the two batches (99–100). The corpus
/// queries are dense in cost, so the two classes that carry the ranks
/// were picked at the two widest gaps: the p50 rank (50) sits mid-block
/// in the sorted-input join of the two largest tag files (a 2 × gap below
/// it), the p90 rank (90) inside the raw query that spills the most
/// (1.6 × below it, 1.9 × above).
fn weight_of(name: &str) -> usize {
    match name {
        "//listitem//text" => 30,
        "//listitem//keyword/raw" => 12,
        "//person//creditcard/raw"
        | "//open_auction//#text/raw"
        | "//person//interest/raw"
        | "//listitem//text/raw"
        | "//people//person//interest/raw" => 4,
        "//listitem//bold/raw" | "//parlist//keyword/raw" => 1,
        "batch16//keyword" | "batch16//text" => 1,
        _ => 2,
    }
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn script_items() -> Vec<Item> {
    let mut items = Vec::new();
    let mut push = |name: &'static str, kind: Kind| {
        items.push(Item {
            name,
            kind,
            weight: weight_of(name),
            expect: Vec::new(),
        })
    };
    // Paths shared by several B-specs would be indistinguishable classes;
    // the mix names them by path and flavour instead.
    let mut seen = Vec::new();
    for w in xmark_workload() {
        let name = format!("{}{}", w.path, if w.raw { "/raw" } else { "" });
        if seen.contains(&name) {
            continue;
        }
        seen.push(name.clone());
        push(
            leak(name),
            Kind::Query {
                path: w.path,
                raw: w.raw,
            },
        );
    }
    for (path, raw) in [
        ("//item//parlist//keyword", false),
        ("//open_auction//annotation//text", false),
        ("//categories//category//listitem", true),
        ("//people//person//interest", true),
    ] {
        let name = format!("{path}{}", if raw { "/raw" } else { "" });
        push(
            leak(name),
            Kind::Query {
                path: path.into(),
                raw,
            },
        );
    }
    for (name, dtag) in [("batch16//keyword", "keyword"), ("batch16//text", "text")] {
        let paths = BATCH_ANCESTORS
            .iter()
            .map(|a| format!("//{a}//{dtag}"))
            .collect();
        push(name, Kind::Batch { paths });
    }
    items
}

/// A running server plus the pieces the driver reads counts from.
struct Env {
    handle: ServerHandle,
    service: Arc<QueryService>,
}

impl Env {
    fn start(cfg: ServiceConfig, tracer: Option<Arc<Tracer>>) -> Env {
        let mut service = QueryService::new(cfg).expect("corpus load");
        if let Some(t) = tracer {
            service = service.with_tracer(t);
        }
        let service = Arc::new(service);
        let handle = spawn(service.clone(), "127.0.0.1:0").expect("bind loopback");
        Env { handle, service }
    }

    fn connect(&self) -> Client {
        Client::connect(self.handle.addr()).expect("connect")
    }

    /// Stops the server and waits for every handler thread. Every client
    /// must be dropped first: handlers exit when their peer closes.
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join().expect("server join");
    }
}

/// Client `c`'s fixed walk of the script in the two-client phases.
fn client_order(script: &[usize], c: u64) -> Vec<usize> {
    let mut order = script.to_vec();
    Rng::seed_from_u64(0xC11E + c).shuffle(&mut order);
    order
}

/// Sends one script op and byte-compares every response it yields.
fn issue(client: &mut Client, item: &Item) -> bool {
    match &item.kind {
        Kind::Query { path, raw } => match client.query(path, *raw, None) {
            Ok(Response::Ok { bytes, .. }) => bytes == item.expect[0],
            _ => false,
        },
        Kind::Batch { paths } => {
            let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
            match client.query_batch(&refs, false, Some(BATCH_BUDGET)) {
                Ok(resps) => {
                    resps.len() == item.expect.len()
                        && resps.iter().zip(&item.expect).all(
                            |(r, want)| matches!(r, Response::Ok { bytes, .. } if bytes == want),
                        )
                }
                Err(_) => false,
            }
        }
    }
}

/// The response bytes `QueryService::execute` yields in process, rendered
/// the way the server renders them.
fn baseline_of(service: &QueryService, kind: &Kind) -> Result<Vec<Vec<u8>>, String> {
    let render = |codes: &[u64]| {
        let mut out = Vec::new();
        proto::write_ok(&mut out, codes).expect("write to Vec");
        out
    };
    match kind {
        Kind::Query { path, raw } => service
            .execute(path, *raw, None)
            .map(|o| vec![render(&o.codes)])
            .map_err(|e| e.to_string()),
        Kind::Batch { paths } => paths
            .iter()
            .map(|p| {
                service
                    .execute(p, false, None)
                    .map(|o| render(&o.codes))
                    .map_err(|e| e.to_string())
            })
            .collect(),
    }
}

fn service_config(cfg: &RunCfg) -> ServiceConfig {
    ServiceConfig {
        sf: if cfg.smoke { 0.02 } else { 0.3 },
        seed: 0xE0 ^ cfg.seed,
        buffer_pages: 500,
        default_budget: 64,
        cost: CostModel::default(),
        // Pinned so `PBITREE_COMPRESS` cannot change what is measured.
        compression: false,
        threads: 1,
        shards: 1,
        ..ServiceConfig::default()
    }
}

pub fn run(cfg: &RunCfg, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let mut values = Values::default();
    let scfg = service_config(cfg);

    // Program-side set-up: corpus generate + encode + load, listener,
    // first connection. Repeated for the median.
    let tracer = Arc::new(Tracer::new());
    let mut setup = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..cfg.setup_reps() {
        if let Some(e) = env.take() {
            e.stop();
        }
        let t = Instant::now();
        let e = spans.layer("setup", || Env::start(scfg, None));
        drop(e.connect());
        setup.push(t.elapsed().as_secs_f64());
        env = Some(e);
    }
    let env = env.expect("at least one set-up");

    // Oracles: in-process baseline bytes for every script op, and the
    // naive in-memory evaluator for a sample of them.
    let t_oracle = Instant::now();
    let mut items = script_items();
    for it in &mut items {
        match baseline_of(&env.service, &it.kind) {
            Ok(bytes) => it.expect = bytes,
            Err(e) => {
                report.note(format!("baseline of {} failed: {e}", it.name));
                report.failed += 1;
                it.expect = vec![Vec::new()];
            }
        }
    }
    let sample: &[&str] = &[
        "//person//creditcard",
        "//category//name",
        "//item//mail",
        "//closed_auction//price",
    ];
    let mut naive_checked = 0;
    for it in &items {
        let Kind::Query { path, .. } = &it.kind else {
            continue;
        };
        if !(cfg.smoke || sample.contains(&path.as_str())) {
            continue;
        }
        let parsed = DescendantPath::parse(path).expect("script path parses");
        let codes: Vec<u64> = parsed
            .evaluate_naive(env.service.document())
            .into_iter()
            .map(|c| c.get())
            .collect();
        let mut want = Vec::new();
        proto::write_ok(&mut want, &codes).expect("write to Vec");
        naive_checked += 1;
        if want != it.expect[0] {
            report.note(format!("{} differs from evaluate_naive", it.name));
            report.failed += 1;
        }
    }
    report.note(format!(
        "oracle_s {:.3} ({} ops baselined in process, {naive_checked} checked against evaluate_naive)",
        t_oracle.elapsed().as_secs_f64(),
        items.len()
    ));

    // The weighted script in one fixed shuffled order, the same every pass
    // and every run. The seed drives the corpus, not the order: with data
    // 2.9 × the pool, which pages an op finds resident depends on the ops
    // before it, and reshuffling alone moved `pages_io` by ± 12 %.
    let mut script: Vec<usize> = items
        .iter()
        .enumerate()
        .flat_map(|(i, it)| std::iter::repeat_n(i, it.weight))
        .collect();
    Rng::seed_from_u64(0x5C21).shuffle(&mut script);
    let corpus_elems = env.service.document().all_coded_nodes().count() as u64;
    let data_pages: u64 =
        harness::stored_bytes(env.service.pool()) / pbitree_storage::PAGE_SIZE as u64;
    report.note(format!(
        "sizes: {corpus_elems} corpus elements, {data_pages} data pages, pool 500 frames (data/cache {:.2}), script {} ops/pass over {} classes",
        data_pages as f64 / 500.0,
        script.len(),
        items.len()
    ));

    let class_names: Vec<&'static str> = items.iter().map(|i| i.name).collect();
    let mut log = LatencyLog::new(&class_names);
    let (warmup, n) = cfg.passes(1, NOMINAL_PASS_S, 10);

    // ---- Phase A: one client ------------------------------------------
    // A traced run alternates its passes between this server and a second
    // one built with the program's tracer (`QueryService::with_tracer`
    // cannot be undone), each driven by its own single client.
    let traced_env = cfg.trace.then(|| Env::start(scfg, Some(tracer.clone())));
    let mut sums = [PassSum::default(), PassSum::default()];
    let workload_span = spans.begin("service");
    {
        let mut lanes: Vec<(&Env, Client)> = std::iter::once(&env)
            .chain(&traced_env)
            .map(|e| (e, e.connect()))
            .collect();
        for pass in 0..warmup + n {
            let measuring = pass >= warmup;
            let k = pass.saturating_sub(warmup);
            let tracing = measuring && cfg.traced_pass(k);
            // Warm-up passes go to every server; measured ones to their lane.
            let lane_ids = if measuring {
                usize::from(tracing)..usize::from(tracing) + 1
            } else {
                0..lanes.len()
            };
            for (lane_env, client) in &mut lanes[lane_ids] {
                spans.pause(!tracing);
                let pool = lane_env.service.pool();
                let (snap0, prefetched0, cpu0) = (
                    pool.stats_snapshot(),
                    pool.prefetched(),
                    harness::proc_cpu_s(),
                );
                let pass_span = spans.begin("pass");
                let t_pass = Instant::now();
                for (pos, &i) in script.iter().enumerate() {
                    let it = &items[i];
                    let slot = measuring.then_some((&mut log, k, pos, i));
                    let ok = timed_op(spans, slot, it.name, |spans| {
                        spans.layer("server.roundtrip", || issue(client, it))
                    });
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
                    sum.rates.push(script.len() as f64 / secs);
                }
            }
        }
    }
    spans.end(workload_span);
    spans.pause(false);
    if let Some(e) = traced_env {
        e.stop();
    }

    report.notes.extend(PassSum::lines(&sums));
    log.report_ranks(cfg, &mut report);

    if cfg.trace {
        generic_layers(&mut values, &sums[1].snap, sums[1].prefetched);
        for s in tracer.spans() {
            if s.kind == SpanKind::Phase && s.tiled {
                values.add(phase_metric(s.name), s.cpu_ns as f64 / 1e6);
            }
        }
        harness::trace_run_metrics(&mut values, &sums, spans);
        let probe_span = spans.begin("probes");
        probes(cfg, &env, &items, &script, spans, &mut values, &mut report);
        spans.end(probe_span);
        env.stop();
        values.emit(per_layer(), &mut report);
        return report;
    }

    // ---- Phase B: two clients, throughput -----------------------------
    // `n` passes; in each, both clients leave a barrier together and walk
    // the script once, each in its own fixed order. The quiet pass is
    // taken per client (minimum latency per script position over the
    // passes, as everywhere); throughput is the two scripts' ops over the
    // slower client's quiet pass. Whole-pass wall times do not repeat here:
    // which ops of the two clients coincide differs from pass to pass, and
    // with it what each finds resident in the shared pool.
    let b_passes = if cfg.smoke || cfg.counts_only { 1 } else { n };
    let stored = harness::stored_bytes(env.service.pool());
    let barrier = std::sync::Barrier::new(2);
    let results: Vec<(LatencyLog, Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let (env, items, script, barrier, class_names) =
                    (&env, &items, &script, &barrier, &class_names);
                s.spawn(move || {
                    let order = client_order(script, c);
                    let mut client = env.connect();
                    let mut log = LatencyLog::new(class_names);
                    let mut pass_s = Vec::with_capacity(b_passes);
                    let mut bad = 0u64;
                    for k in 0..b_passes {
                        barrier.wait();
                        let t_pass = Instant::now();
                        for (pos, &i) in order.iter().enumerate() {
                            let t = Instant::now();
                            bad += u64::from(!issue(&mut client, &items[i]));
                            log.push(k, pos, i, t.elapsed().as_nanos() as u64);
                        }
                        pass_s.push(t_pass.elapsed().as_secs_f64());
                    }
                    (log, pass_s, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let both = 2.0 * script.len() as f64;
    let b_rates: Vec<f64> = (0..b_passes)
        .map(|k| both / results[0].1[k].max(results[1].1[k]))
        .collect();
    report.attempted += 2 * (b_passes * script.len()) as u64;
    report.failed += results[0].2 + results[1].2;
    report.note(format!(
        "phase B: 2 clients x {b_passes} passes, whole-pass ops/s: {}",
        b_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Each client's quiet rate covers its own 100 ops; the pair completes
    // 200 in the time the slower one needs.
    let ops_per_s = 2.0 * results[0].0.quiet_rate().min(results[1].0.quiet_rate());

    values.set("setup_s", min_of(&setup));
    values.set("ops_per_s", ops_per_s);
    values.set("p50_ms", log.quiet_percentile_ms(50.0));
    values.set("tail_ms", log.quiet_percentile_ms(log.tail_percentile()));
    values.set("sim_disk_s", sums[0].snap.io.sim_secs());
    values.set("pages_io", sums[0].snap.io.total() as f64);
    // Space at the end of the single-client phase (Phase B's chain
    // queries leak intermediate files in an order two clients race on).
    values.set("stored_bytes_per_elem", stored as f64 / corpus_elems as f64);
    env.stop();
    values.set("peak_rss_mb", harness::peak_rss_mb());
    values.emit(end_to_end(), &mut report);
    report
}

/// `server.*`, `xml.*` and `shared.*`: each public function timed on the
/// workload's own script and corpus.
fn probes(
    cfg: &RunCfg,
    env: &Env,
    items: &[Item],
    script: &[usize],
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    use std::hint::black_box;
    let queries: Vec<(&str, bool)> = items
        .iter()
        .filter_map(|it| match &it.kind {
            Kind::Query { path, raw } => Some((path.as_str(), *raw)),
            Kind::Batch { .. } => None,
        })
        .collect();
    let reps = if cfg.smoke { 200 } else { 20_000 };
    let per = |t: Instant, n: usize| t.elapsed().as_nanos() as f64 / n as f64;

    spans.layer("xml.path_parse", || {
        let t = Instant::now();
        for k in 0..reps {
            black_box(DescendantPath::parse(queries[k % queries.len()].0).expect("parse"));
        }
        values.set("xml.path_parse_ns", per(t, reps));
    });
    spans.layer("xml.encode", || {
        let scfg = service_config(cfg);
        let t = Instant::now();
        let doc = pbitree_xml::EncodedDocument::encode(pbitree_datagen::xmark::generate(
            pbitree_datagen::xmark::XMarkSpec {
                sf: scfg.sf,
                seed: scfg.seed,
            },
        ))
        .expect("encode");
        black_box(doc.height());
        values.set("xml.encode_s", t.elapsed().as_secs_f64());
    });
    spans.layer("server.parse", || {
        let lines: Vec<String> = queries
            .iter()
            .map(|(p, raw)| {
                Request::Query {
                    path: (*p).into(),
                    raw: *raw,
                    budget: None,
                }
                .encode()
            })
            .collect();
        let t = Instant::now();
        for k in 0..reps {
            black_box(Request::parse(&lines[k % lines.len()]).expect("parse"));
        }
        values.set("server.parse_ns", per(t, reps));
    });
    spans.layer("server.admit", || {
        let ac = AdmissionController::new(484, 4096);
        let t = Instant::now();
        for _ in 0..reps {
            drop(black_box(ac.admit(64).expect("admit")));
        }
        values.set("server.admit_ns", per(t, reps));
    });
    spans.layer("server.render", || {
        let codes: Vec<u64> = (1..=100_000u64).map(|c| c * 7919).collect();
        let rounds = if cfg.smoke { 2 } else { 20 };
        let mut out = Vec::with_capacity(1 << 21);
        let t = Instant::now();
        for _ in 0..rounds {
            out.clear();
            proto::write_ok(&mut out, &codes).expect("write to Vec");
            black_box(out.len());
        }
        values.set("server.render_ns_per_code", per(t, rounds * codes.len()));
    });

    // One pass of the script's single queries in process and one over the
    // wire: the difference of the two medians is what the transport costs.
    let mut client = env.connect();
    let (mut exec_ms, mut wire_ms) = (Vec::new(), Vec::new());
    spans.layer("server.execute", || {
        for &i in script {
            if let Kind::Query { path, raw } = &items[i].kind {
                let t = Instant::now();
                let ok = env.service.execute(path, *raw, None).is_ok();
                exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !ok {
                    report.failed += 1;
                }
            }
        }
    });
    spans.layer("server.transport", || {
        for &i in script {
            if matches!(items[i].kind, Kind::Query { .. }) {
                let t = Instant::now();
                let ok = issue(&mut client, &items[i]);
                wire_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !ok {
                    report.failed += 1;
                }
            }
        }
    });
    values.set("server.execute_ms", median(&exec_ms));
    values.set("server.transport_ms", median(&wire_ms) - median(&exec_ms));
    spans.layer("server.ping", || {
        let pings = if cfg.smoke { 100 } else { 5_000 };
        let t = Instant::now();
        for _ in 0..pings {
            if !client.ping().unwrap_or(false) {
                report.failed += 1;
            }
        }
        values.set("server.ping_us", per(t, pings) / 1e3);
    });
    spans.layer("server.batch", || {
        let batch = items
            .iter()
            .find(|it| matches!(it.kind, Kind::Batch { .. }))
            .expect("a batch op");
        let mut ms = Vec::new();
        for _ in 0..if cfg.smoke { 2 } else { 15 } {
            let t = Instant::now();
            if !issue(&mut client, batch) {
                report.failed += 1;
            }
            ms.push(t.elapsed().as_secs_f64() * 1e3 / 16.0);
        }
        values.set("server.batch_ms_per_query_k16", median(&ms));
    });

    // Admission queue depth under two clients, read the way an operator
    // would: from `STATS`.
    spans.layer("server.stats", || {
        std::thread::scope(|s| {
            for c in 0..2u64 {
                let (env, items, script) = (env, items, script);
                s.spawn(move || {
                    let order = client_order(script, c);
                    let mut client = env.connect();
                    for &i in &order {
                        issue(&mut client, &items[i]);
                    }
                });
            }
        });
        let stats = client.stats().unwrap_or_default();
        let peak = stats
            .split("\"peak_waiting\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<f64>().ok());
        match peak {
            Some(p) => values.set("server.peak_waiting", p),
            None => {
                report.note(format!("STATS carried no peak_waiting: {stats}"));
                report.failed += 1;
            }
        }
    });
    drop(client);

    // joins::shared: one scan answering the 16 `//x//keyword` queries.
    spans.layer("shared.scan", || {
        use pbitree_joins::{CountSink, Element, MultiSink, QueryBatch};
        let doc = env.service.document();
        let ctx = crate::data::mem_ctx(500, env.service.shape(), false);
        let sorted = |tag: &str| {
            let mut v: Vec<(u64, u32)> =
                doc.element_set(tag).iter().map(|c| (c.get(), 0)).collect();
            v.sort_unstable_by_key(|&(c, _)| {
                pbitree_core::Code::from_raw_unchecked(c).doc_order_key()
            });
            v
        };
        let dfile =
            crate::data::load(&ctx.pool, ctx.read_opts(), &sorted("keyword")).expect("load D");
        let mut qb = QueryBatch::new();
        for a in BATCH_ANCESTORS {
            qb.add(sorted(a).iter().map(|&(c, t)| Element::new(c, t)).collect());
        }
        ctx.pool.evict_all().expect("evict_all");
        let mut counts: Vec<CountSink> = (0..qb.len()).map(|_| CountSink::default()).collect();
        let mut sinks = MultiSink::new();
        for c in &mut counts {
            sinks.push(c);
        }
        let stats = qb.execute(&ctx, &dfile, &mut sinks).expect("shared scan");
        values.set("shared.pages_per_query_k16", stats.io.total() as f64 / 16.0);
    });
}
