//! Tracing invariants across every instrumented operator:
//!
//! * the JSONL schema matches the checked-in golden file and every
//!   emitted line keeps the schema-v1 key order;
//! * the tiled per-phase I/O / pool deltas of a run sum *exactly* to the
//!   run's totals;
//! * the run's `cpu_ns` is the operator's wall-clock and per-task times
//!   appear only as (untiled) task spans, one per task, accounting for
//!   every pair;
//! * a corrupt page surfaces as `JoinError::Corrupt` through whole
//!   operators, including out of an operator's task.

use std::sync::Arc;

use pbitree_core::PBiTreeShape;
use pbitree_joins::element::{element_file, element_file_with};
use pbitree_joins::stacktree::SortPolicy;
use pbitree_joins::trace::{SpanKind, SpanRecord, Tracer};
use pbitree_joins::{CountSink, JoinCtx, JoinCtxBuilder, JoinError, JoinStats};
use pbitree_storage::{IoStats, PageId, PoolStats, ScanOptions};

const H: u32 = 18;

type JoinFn = fn(
    &JoinCtx,
    &pbitree_storage::HeapFile<pbitree_joins::Element>,
    &pbitree_storage::HeapFile<pbitree_joins::Element>,
    &mut dyn pbitree_joins::PairSink,
) -> Result<JoinStats, JoinError>;

/// Deterministic element codes inside the `H`-space (xorshift stream).
fn mixed_codes(n: usize, heights: &[u32], seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let mut out = std::collections::BTreeSet::new();
    while out.len() < n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let h = heights[(x % heights.len() as u64) as usize];
        let positions = 1u64 << (H - h - 1);
        let alpha = (x >> 8) % positions;
        out.insert((1 + 2 * alpha) << h);
    }
    out.into_iter().collect()
}

/// Runs one operator under a fresh tracer with the given I/O options and
/// returns its stats, every span the tracer captured, and the pool's
/// speculative-read counter so callers can assert prefetch really ran.
fn run_traced_io(
    f: JoinFn,
    a: &[u64],
    d: &[u64],
    buffer: usize,
    io: ScanOptions,
) -> (JoinStats, Vec<SpanRecord>, u64) {
    let tracer = Arc::new(Tracer::new());
    let ctx = JoinCtxBuilder::in_memory_free(PBiTreeShape::new(H).unwrap(), buffer)
        .io(io)
        .tracer(Arc::clone(&tracer))
        .build();
    // Inputs are built under the run's own options, so the page layout
    // it names governs the whole run.
    let af = element_file_with(&ctx.pool, ctx.read_opts(), a.iter().map(|&v| (v, 0))).unwrap();
    let df = element_file_with(&ctx.pool, ctx.read_opts(), d.iter().map(|&v| (v, 1))).unwrap();
    let mut sink = CountSink::default();
    let stats = f(&ctx, &af, &df, &mut sink).unwrap();
    (stats, tracer.spans(), ctx.pool.prefetched())
}

/// The top-level run span (the only one without a parent).
fn top_run(spans: &[SpanRecord]) -> &SpanRecord {
    let mut it = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Run && s.parent.is_none());
    let run = it.next().expect("no top-level run span");
    assert!(it.next().is_none(), "more than one top-level run");
    run
}

fn add_io(a: IoStats, b: &IoStats) -> IoStats {
    IoStats {
        seq_reads: a.seq_reads + b.seq_reads,
        rand_reads: a.rand_reads + b.rand_reads,
        seq_writes: a.seq_writes + b.seq_writes,
        rand_writes: a.rand_writes + b.rand_writes,
        sim_ns: a.sim_ns + b.sim_ns,
    }
}

/// Every operator the suite exercises, with the workload shape it needs.
/// SHCJ requires a single-height ancestor set; the rest take mixed
/// heights over small (fits-nowhere) buffers so partitioning happens.
fn operators() -> Vec<(&'static str, JoinFn, &'static [u32])> {
    vec![
        (
            "shcj",
            (|c, a, d, s| pbitree_joins::shcj::shcj(c, a, d, s)) as JoinFn,
            &[4][..],
        ),
        (
            "mhcj",
            |c, a, d, s| pbitree_joins::mhcj::mhcj(c, a, d, s),
            &[3, 5, 8],
        ),
        (
            "mhcj_rollup",
            |c, a, d, s| {
                pbitree_joins::rollup::mhcj_rollup(
                    c,
                    a,
                    d,
                    pbitree_joins::rollup::RollupOptions::default(),
                    s,
                )
            },
            &[3, 5, 8],
        ),
        (
            "vpj",
            |c, a, d, s| pbitree_joins::vpj::vpj(c, a, d, s).map(|(st, _)| st),
            &[3, 5, 8],
        ),
        (
            "memjoin",
            |c, a, d, s| pbitree_joins::memjoin::memory_containment_join(c, a, d, s),
            &[3, 5, 8],
        ),
        (
            "inljn",
            |c, a, d, s| pbitree_joins::inljn::inljn(c, a, d, s),
            &[3, 5, 8],
        ),
        (
            "stack_tree_desc",
            |c, a, d, s| {
                pbitree_joins::stacktree::stack_tree_desc(c, a, d, SortPolicy::SortOnTheFly, s)
            },
            &[3, 5, 8],
        ),
        (
            "adb",
            |c, a, d, s| pbitree_joins::adb::anc_des_bplus(c, a, d, SortPolicy::SortOnTheFly, s),
            &[3, 5, 8],
        ),
    ]
}

/// Asserts the core tiling invariant for one traced run: at least two
/// named phases, and the field-wise sum of the tiled phase deltas equals
/// the run's total delta exactly.
fn assert_tiles_exactly(op: &str, stats: &JoinStats, spans: &[SpanRecord]) {
    let run = top_run(spans);
    assert_eq!(run.cpu_ns, stats.cpu_ns, "{op}: run cpu_ns");
    assert_eq!(run.io, stats.io, "{op}: run io");
    assert_eq!(run.pairs, stats.pairs, "{op}: run pairs");
    let named: Vec<_> = stats
        .phases
        .iter()
        .filter(|p| p.name != "other")
        .map(|p| p.name)
        .collect();
    assert!(
        named.len() >= 2,
        "{op}: expected >=2 named phases, got {named:?}"
    );
    let mut io = IoStats::default();
    let mut pool = PoolStats::default();
    let mut cpu = 0u64;
    for p in &stats.phases {
        io = add_io(io, &p.io);
        pool.absorb(&p.pool);
        cpu += p.cpu_ns;
    }
    assert_eq!(io, stats.io, "{op}: phase io must tile the run");
    // Field-wise over *all* pool counters, the packed-page ones included.
    assert_eq!(pool, run.pool, "{op}: phase pool deltas must tile the run");
    // The synthetic "other" phase absorbs total - covered, so the
    // breakdown accounts for the whole run's clock as well.
    assert_eq!(cpu, stats.cpu_ns, "{op}: phase cpu_ns");
    // Phases recorded as tiled in the trace are exactly the breakdown's
    // source: none may carry a task id.
    for s in spans.iter().filter(|s| s.tiled) {
        assert_eq!(s.kind, SpanKind::Phase, "{op}: tiled non-phase span");
        assert!(s.task.is_none(), "{op}: tiled phase inside a task");
    }
}

#[test]
fn golden_jsonl_schema() {
    let golden = include_str!("golden/trace_schema.jsonl");
    let spans = [
        SpanRecord {
            seq: 0,
            kind: SpanKind::Phase,
            run: 1,
            parent: None,
            task: None,
            tiled: true,
            name: "partition",
            pairs: 0,
            false_hits: 0,
            cpu_ns: 1200,
            io: IoStats {
                seq_reads: 8,
                rand_reads: 1,
                seq_writes: 4,
                rand_writes: 0,
                sim_ns: 180000,
            },
            pool: PoolStats {
                hits: 3,
                misses: 9,
                pages_skipped: 5,
                records_filtered: 21,
                pages_packed: 2,
                packed_pre_bytes: 8184,
                packed_post_bytes: 2600,
                packed_decodes: 0,
            },
        },
        SpanRecord {
            seq: 1,
            kind: SpanKind::Task,
            run: 1,
            parent: None,
            task: Some(2),
            tiled: false,
            name: "task",
            pairs: 17,
            false_hits: 0,
            cpu_ns: 3400,
            io: IoStats::default(),
            pool: PoolStats {
                hits: 12,
                misses: 0,
                pages_skipped: 0,
                records_filtered: 0,
                pages_packed: 0,
                packed_pre_bytes: 0,
                packed_post_bytes: 0,
                packed_decodes: 3,
            },
        },
        SpanRecord {
            seq: 2,
            kind: SpanKind::Run,
            run: 1,
            parent: Some(7),
            task: None,
            tiled: false,
            name: "mhcj",
            pairs: 42,
            false_hits: 1,
            cpu_ns: 56000,
            io: IoStats {
                seq_reads: 1,
                rand_reads: 2,
                seq_writes: 3,
                rand_writes: 4,
                sim_ns: 5,
            },
            pool: PoolStats {
                hits: 6,
                misses: 7,
                pages_skipped: 1,
                records_filtered: 2,
                pages_packed: 8,
                packed_pre_bytes: 9,
                packed_post_bytes: 10,
                packed_decodes: 11,
            },
        },
    ];
    let rendered: String = spans.iter().map(|s| s.to_json() + "\n").collect();
    assert_eq!(rendered, golden, "schema drift — bump SCHEMA_VERSION");
}

/// Every line a real traced run emits keeps the schema-v1 key order, so
/// line-oriented consumers (cut/sed/jq-less scripts) can rely on it.
#[test]
fn emitted_lines_keep_key_order() {
    let ops = operators();
    let (_, _, heights) = &ops[1]; // mhcj, mixed heights
    let a = mixed_codes(300, heights, 17);
    let d = mixed_codes(900, &[0, 1], 19);
    let tracer = Arc::new(Tracer::new());
    let ctx =
        JoinCtx::in_memory_free(PBiTreeShape::new(H).unwrap(), 16).with_tracer(Arc::clone(&tracer));
    let af = element_file(&ctx.pool, a.iter().map(|&v| (v, 0))).unwrap();
    let df = element_file(&ctx.pool, d.iter().map(|&v| (v, 1))).unwrap();
    let mut sink = CountSink::default();
    pbitree_joins::mhcj::mhcj(&ctx, &af, &df, &mut sink).unwrap();
    let mut out = Vec::new();
    tracer.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(!text.is_empty());
    let keys = [
        "{\"v\":1,\"kind\":\"",
        "\"seq\":",
        "\"run\":",
        "\"parent\":",
        "\"task\":",
        "\"tiled\":",
        "\"name\":\"",
        "\"pairs\":",
        "\"false_hits\":",
        "\"cpu_ns\":",
        "\"io\":{\"seq_reads\":",
        "\"rand_reads\":",
        "\"seq_writes\":",
        "\"rand_writes\":",
        "\"sim_ns\":",
        "\"pool\":{\"hits\":",
        "\"misses\":",
        "\"skipped\":",
        "\"filtered\":",
        "\"packed\":",
        "\"packed_pre\":",
        "\"packed_post\":",
        "\"decodes\":",
    ];
    for line in text.lines() {
        let mut pos = 0;
        for key in keys {
            let at = line[pos..]
                .find(key)
                .unwrap_or_else(|| panic!("key {key:?} out of order in {line}"));
            pos += at + key.len();
        }
    }
}

/// Raw and packed pages alike: the packed-page pool counters (pages
/// packed, decodes, bytes) must tile the run like every other field.
#[test]
fn every_operator_tiles_exactly_sequential() {
    for compress in [false, true] {
        for (op, f, heights) in operators() {
            let a = mixed_codes(400, heights, 23);
            let d = mixed_codes(1200, &[0, 1], 29);
            // memjoin needs one side within the budget; everyone else gets a
            // buffer small enough to force real partitioning/spill phases.
            let buffer = if op == "memjoin" { 256 } else { 12 };
            let io = ScanOptions::default().with_compress(compress);
            let (stats, spans, _) = run_traced_io(f, &a, &d, buffer, io);
            assert_tiles_exactly(&format!("{op} compress={compress}"), &stats, &spans);
        }
    }
}

#[test]
fn partitioned_runs_tile_exactly_with_task_spans() {
    // MHCJ+Rollup with two anchors: one equijoin task per anchor.
    let rollup2: JoinFn = |c, a, d, s| {
        let opts = pbitree_joins::rollup::RollupOptions::partitions(2);
        pbitree_joins::rollup::mhcj_rollup(c, a, d, opts, s)
    };
    let cases = operators()
        .into_iter()
        .filter(|(op, _, _)| matches!(*op, "mhcj" | "vpj"))
        .chain([("mhcj_rollup k=2", rollup2, &[3, 5, 8][..])]);
    for (op, f, heights) in cases {
        // MHCJ leaves one task per occupied height; VPJ leaves its vertical groups
        // as tasks only when neither input fits the budget, so it gets
        // bigger inputs over a tiny buffer.
        let (a, d, buffer) = if op == "vpj" {
            (
                mixed_codes(1500, &[2, 4], 61),
                mixed_codes(3000, &[0, 1], 63),
                4,
            )
        } else {
            (
                mixed_codes(700, heights, 41),
                mixed_codes(2500, &[0, 1, 2], 43),
                16,
            )
        };
        let (stats, spans, _) = run_traced_io(f, &a, &d, buffer, ScanOptions::default());
        assert_tiles_exactly(op, &stats, &spans);
        let run = top_run(&spans);
        let tasks: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Task && s.run == run.run)
            .collect();
        assert!(!tasks.is_empty(), "{op}: no task spans");
        for t in &tasks {
            assert!(!t.tiled, "{op}: task spans never tile");
        }
        // Per-task times live only in task spans; the run's cpu_ns is the
        // operator's wall-clock, not their sum (checked above against
        // stats.cpu_ns). The run's tasks are numbered 0..n in run order
        // and account for every pair.
        let idx: Vec<u64> = tasks.iter().map(|t| t.task.unwrap()).collect();
        assert_eq!(idx, (0..tasks.len() as u64).collect::<Vec<_>>(), "{op}");
        let in_tasks: u64 = tasks.iter().map(|t| t.pairs).sum();
        assert_eq!(in_tasks, stats.pairs, "{op}: task pairs");
        if op == "mhcj" {
            // Every height is an anchor: no histogram pass, and one task
            // per occupied height (3, 5, 8) of the zone span 3..=8.
            assert_eq!(tasks.len(), 3, "{op}: one task per occupied height");
            let named: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
            assert_eq!(named, ["partition", "probe", "other"], "{op}");
        }
        if op == "mhcj_rollup k=2" {
            // The anchors are heights 5 and 8; tasks change no phase.
            assert_eq!(tasks.len(), 2, "{op}: one task per anchor");
            let named: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
            assert_eq!(named, ["plan", "partition", "probe", "other"], "{op}");
        }
    }
}

/// Satellite of the vectored-I/O change: with read-ahead enabled (and at
/// a depth past the default), phase deltas must still tile the run
/// exactly. Speculative reads are charged to whichever
/// phase issued them and the `prefetched` counter lives *outside*
/// `PoolStats`, so `hits + misses == requests` and the field-wise tiling
/// identity both survive prefetching.
#[test]
fn readahead_runs_tile_exactly() {
    for (op, f, heights) in operators()
        .into_iter()
        .filter(|(op, _, _)| matches!(*op, "mhcj" | "vpj" | "stack_tree_desc"))
    {
        let a = mixed_codes(700, heights, 41);
        let d = mixed_codes(2500, &[0, 1], 43);
        let (stats, spans, prefetched) = run_traced_io(f, &a, &d, 64, ScanOptions::sequential(16));
        assert!(prefetched > 0, "{op}: depth-16 run never prefetched");
        assert_tiles_exactly(op, &stats, &spans);

        // Prefetch must not change the answer: the same workload with
        // read-ahead pinned off yields identical pairs.
        let (base, _, off_prefetched) = run_traced_io(f, &a, &d, 64, ScanOptions::sequential(1));
        assert_eq!(off_prefetched, 0, "{op}: depth-1 run prefetched");
        assert_eq!(
            base.pairs, stats.pairs,
            "{op}: read-ahead changed the result"
        );
    }
}

#[test]
fn corrupt_page_fails_shcj_with_page_id() {
    let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(H).unwrap(), 12);
    let a = mixed_codes(300, &[4], 47);
    let d = mixed_codes(2000, &[0], 53);
    let af = element_file(&ctx.pool, a.iter().map(|&v| (v, 0))).unwrap();
    let df = element_file(&ctx.pool, d.iter().map(|&v| (v, 1))).unwrap();
    let pid = PageId::new(df.file_id(), 1);
    {
        let mut page = ctx.pool.write_page(pid).unwrap();
        // A count beyond page capacity would index past the page.
        page[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    let mut sink = CountSink::default();
    let err = pbitree_joins::shcj::shcj(&ctx, &af, &df, &mut sink).unwrap_err();
    assert!(matches!(err, JoinError::Corrupt { .. }), "{err}");
    assert_eq!(err.failing_page(), Some(pid));
}

#[test]
fn corrupt_page_fails_mhcj_task() {
    let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(H).unwrap(), 16);
    let a = mixed_codes(700, &[3, 5, 8], 59);
    let d = mixed_codes(2000, &[0, 1], 61);
    let af = element_file(&ctx.pool, a.iter().map(|&v| (v, 0))).unwrap();
    let df = element_file(&ctx.pool, d.iter().map(|&v| (v, 1))).unwrap();
    // The last page exists in any layout (packed files hold fewer pages);
    // a flagged-and-oversized count dword is invalid in both formats (raw:
    // count past capacity; packed: checksum mixes in the count).
    let pid = PageId::new(df.file_id(), df.pages() - 1);
    {
        let mut page = ctx.pool.write_page(pid).unwrap();
        page[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    // The error unwinds out of a height-partition task, not a panic.
    let mut sink = CountSink::default();
    let err = pbitree_joins::mhcj::mhcj(&ctx, &af, &df, &mut sink).unwrap_err();
    assert!(matches!(err, JoinError::Corrupt { .. }), "{err}");
    assert_eq!(err.failing_page(), Some(pid));
}
