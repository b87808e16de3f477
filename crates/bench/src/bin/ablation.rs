//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * `rollup`  — anchor count `k` sweep: false hits vs. extra `D` scans;
//! * `shcj`    — in-memory vs. Grace crossover as |A| grows past the
//!   buffer budget;
//! * `vpj`     — replication/purge/merge/recursion report across dataset
//!   shapes, and on Fig. 6(d)'s skewed DBLP D4, D9 and D10 at b = 125;
//! * `io`      — read-ahead depth against simulated disk time;
//! * `prune`   — zone-map scan pushdown off vs on: identical pairs,
//!   strictly fewer page reads for the partition joins;
//! * `compress` — packed element pages off vs on (prune on in both):
//!   identical pairs, strictly fewer page reads, smaller on-disk bytes;
//! * `wal`     — durable inserts and deletes through the write-ahead log
//!   (heap + logged code index), base file packed off vs on: pool requests
//!   per delete and log bytes per index insert bounded in-binary, with a
//!   crash-shaped recovery check;
//! * `shared`  — the batched-query scan: k serial Stack-Tree passes over
//!   the same document side vs one `QueryBatch` pass answering all k —
//!   identical pairs, page reads near-flat in k instead of linear;
//! * `regret`  — the Table-1 planner against every operator: chosen ÷ best
//!   on pages, simulated seconds and wall, over the `raw_join` datasets,
//!   XMark B1–B10 and DBLP D1–D10, cold and resident, with the chosen
//!   operator's wall split into its load, probe and partition phases;
//!   multi-height rows and the synthetic single-height row assert their
//!   regret in-binary.
//!
//! ```text
//! cargo run -p pbitree-bench --release --bin ablation -- --study rollup
//! ```

#![forbid(unsafe_code)]

use pbitree_bench::args::{io_options, CommonArgs};
use pbitree_bench::harness::{run_algo, ExpConfig};
use pbitree_bench::report::{clock_cells, fmt_secs, Table, CLOCK_COLS};
use pbitree_bench::workloads::{
    dblp_workloads, synthetic_by_name, synthetic_multi, xmark_workloads,
};
use pbitree_joins::element::{element_file, element_file_with};
use pbitree_joins::rollup::RollupOptions;
use pbitree_joins::stacktree::{stack_tree_desc, SortPolicy};
use pbitree_joins::{Algorithm, InputState, JoinStats};
use pbitree_joins::{CollectSink, CountSink, Element, MultiSink, QueryBatch};
use pbitree_storage::{
    BatchError, BufferPool, Disk, DiskBackend, FileId, IoError, MemBackend, PageBuf, PageId,
    SharedBackend, Wal,
};

/// `keys`, then [`CLOCK_COLS`], then `more`.
fn header<'a>(keys: &[&'a str], more: &[&'a str]) -> Vec<&'a str> {
    [keys, &CLOCK_COLS, more].concat()
}

fn rollup_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: rollup anchor count (k) vs false hits and time",
        &header(&["dataset", "k", "false_hits", "pairs"], &[]),
    );
    for w in synthetic_multi(args.scale) {
        for k in [1usize, 2, 3, 5, 9] {
            let ctx = cfg.ctx(w.shape);
            let af = element_file(&ctx.pool, w.a.iter().copied()).unwrap();
            let df = element_file(&ctx.pool, w.d.iter().copied()).unwrap();
            ctx.pool.evict_all().unwrap();
            let mut sink = CountSink::default();
            let stats = pbitree_joins::rollup::mhcj_rollup(
                &ctx,
                &af,
                &df,
                RollupOptions::partitions(k),
                &mut sink,
            )
            .unwrap();
            let mut row = vec![
                w.name.clone(),
                k.to_string(),
                stats.false_hits.to_string(),
                stats.pairs.to_string(),
            ];
            row.extend(clock_cells(&stats));
            t.row(row);
        }
    }
    t.emit(&args.results_dir, "ablation_rollup");
}

fn shcj_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: SHCJ in-memory vs Grace crossover (|A| vs buffer)",
        &header(&["|A|", "|D|", "buffer_pages"], &[]),
    );
    let base = synthetic_by_name("SLLL", args.scale * 0.2).unwrap();
    for frac in [0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        // Subsample A by stride to vary the build side only.
        let a: Vec<(u64, u32)> = if frac <= 1.0 {
            base.a
                .iter()
                .step_by((1.0 / frac) as usize)
                .copied()
                .collect()
        } else {
            base.a.clone()
        };
        let buffer = if frac > 1.0 {
            (cfg.buffer_pages as f64 / frac) as usize
        } else {
            cfg.buffer_pages
        }
        .max(8);
        let ctx = ExpConfig {
            buffer_pages: buffer,
            ..cfg.clone()
        }
        .ctx(base.shape);
        let af = element_file(&ctx.pool, a.iter().copied()).unwrap();
        let df = element_file(&ctx.pool, base.d.iter().copied()).unwrap();
        ctx.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let stats = pbitree_joins::shcj::shcj(&ctx, &af, &df, &mut sink).unwrap();
        let mut row = vec![
            a.len().to_string(),
            base.d.len().to_string(),
            buffer.to_string(),
        ];
        row.extend(clock_cells(&stats));
        t.row(row);
    }
    t.emit(&args.results_dir, "ablation_shcj");
}

fn vpj_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: VPJ partitioning behaviour",
        &header(
            &[
                "dataset",
                "buffer",
                "partitions",
                "purged",
                "groups",
                "recursions",
                "fallbacks",
                "replicated",
            ],
            &[],
        ),
    );
    let synthetic = ["SLLL", "SLSL", "MLLL", "MSLL", "MLSL"]
        .into_iter()
        .filter_map(|name| synthetic_by_name(name, args.scale))
        .map(|w| (w, cfg.buffer_pages));
    // Fig. 6(d)'s DBLP sets at its b = 125: skewed documents recurse
    // where the synthetic sets fit in one level.
    let dblp = dblp_workloads(args.sf, 0xD0)
        .into_iter()
        .filter(|w| matches!(w.name.as_str(), "D4" | "D9" | "D10"))
        .map(|w| (w, 125));
    for (w, buffer) in synthetic.chain(dblp) {
        let ctx = ExpConfig {
            buffer_pages: buffer,
            ..cfg.clone()
        }
        .ctx(w.shape);
        let af = element_file(&ctx.pool, w.a.iter().copied()).unwrap();
        let df = element_file(&ctx.pool, w.d.iter().copied()).unwrap();
        ctx.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let (stats, report) = pbitree_joins::vpj::vpj(&ctx, &af, &df, &mut sink).unwrap();
        let mut row = vec![
            w.name.clone(),
            buffer.to_string(),
            report.partitions.to_string(),
            report.purged.to_string(),
            report.groups.to_string(),
            report.recursions.to_string(),
            report.fallbacks.to_string(),
            report.replicated_tuples.to_string(),
        ];
        row.extend(clock_cells(&stats));
        t.row(row);
    }
    t.emit(&args.results_dir, "ablation_vpj");
}

/// The vectored-I/O ablation panel: prefetch off (depth 1) against a
/// sweep of read-ahead depths on scan-heavy workloads. Result counts must
/// be identical — read-ahead is a pure I/O-schedule change — and the
/// simulated disk time must not grow with the depth, as seeks amortize
/// into sequential transfers. Both are asserted per (dataset, algo).
fn io_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: vectored I/O (read-ahead depth vs simulated disk time)",
        &header(
            &["dataset", "algo", "readahead", "pairs"],
            &["seq_reads", "rand_reads", "seq_writes", "rand_writes"],
        ),
    );
    for name in ["SLLL", "MLLL"] {
        let Some(w) = synthetic_by_name(name, args.scale) else {
            continue;
        };
        for algo in [Algorithm::StackTree, Algorithm::MhcjRollup] {
            let mut base_pairs: Option<u64> = None;
            let mut last_sim_ns = u64::MAX;
            for depth in [1usize, 2, 4, 8, 16] {
                let cfg = ExpConfig {
                    io: io_options(depth),
                    ..cfg.clone()
                };
                let m = run_algo(w.shape, &w.a, &w.d, &cfg, algo);
                match base_pairs {
                    None => base_pairs = Some(m.stats.pairs),
                    Some(p) => assert_eq!(
                        p, m.stats.pairs,
                        "{name}/{}: read-ahead depth {depth} changed the result",
                        algo
                    ),
                }
                let io = m.stats.io;
                assert!(
                    io.sim_ns <= last_sim_ns,
                    "{name}/{algo}: read-ahead depth {depth} raised the simulated disk time \
                     ({} ns after {last_sim_ns} ns)",
                    io.sim_ns
                );
                last_sim_ns = io.sim_ns;
                let mut row = vec![
                    w.name.clone(),
                    algo.to_string(),
                    depth.to_string(),
                    m.stats.pairs.to_string(),
                ];
                row.extend(clock_cells(&m.stats));
                row.extend(
                    [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes]
                        .map(|n| n.to_string()),
                );
                t.row(row);
            }
        }
    }
    t.emit(&args.results_dir, "ablation_io");
}

/// Deterministic xorshift64 for the skewed pruning workload.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Skewed-height workload for the pruning panel: ancestors confined to
/// the bottom quarter of the code space (their region envelope ends well
/// below the top), descendant leaves spread over the whole span — so the
/// zone maps can prove most descendant pages irrelevant to every A-side
/// probe and the pushdown filters skip them unread.
type SkewedWorkload = (pbitree_core::PBiTreeShape, Vec<(u64, u32)>, Vec<(u64, u32)>);

fn skewed_workload(scale: f64) -> SkewedWorkload {
    use std::collections::BTreeSet;
    let h = 18u32;
    let shape = pbitree_core::PBiTreeShape::new(h).unwrap();
    let n_a = ((6_000.0 * scale) as usize).max(500);
    let n_d = ((40_000.0 * scale) as usize).max(4_000);
    let mut x = 0xBEEF_CAFEu64;
    let mut a = BTreeSet::new();
    while a.len() < n_a {
        a.insert(1 + xorshift(&mut x) % ((1u64 << (h - 2)) - 1));
    }
    let span = (1u64 << h) - 1;
    let mut d = BTreeSet::new();
    while d.len() < n_d {
        d.insert((xorshift(&mut x) % span) | 1);
    }
    (
        shape,
        a.into_iter().map(|c| (c, 0)).collect(),
        d.into_iter().map(|c| (c, 1)).collect(),
    )
}

/// The zone-map pruning panel: prune off (baseline) against prune on,
/// across the partition joins. Pair counts must be identical — the
/// pushdown filters are necessary conditions only — while page reads
/// drop strictly: MHCJ/Rollup clip their `D` scans by each
/// A-partition's zone, and VPJ clips both partitioning passes by the
/// opposite side's envelope.
fn prune_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: zone-map scan pushdown (prune off vs on)",
        &header(
            &[
                "algo",
                "prune",
                "pairs",
                "reads",
                "pages_skipped",
                "records_filtered",
            ],
            &[],
        ),
    );
    let (shape, a, d) = skewed_workload(args.scale);
    for algo in [Algorithm::Mhcj, Algorithm::MhcjRollup, Algorithm::Vpj] {
        let mut baseline: Option<(u64, u64)> = None;
        for prune in [false, true] {
            let cfg = ExpConfig {
                prune,
                ..cfg.clone()
            };
            let m = run_algo(shape, &a, &d, &cfg, algo);
            let reads = m.stats.io.reads();
            match baseline {
                None => baseline = Some((m.stats.pairs, reads)),
                Some((pairs0, reads0)) => {
                    assert_eq!(pairs0, m.stats.pairs, "{algo}: pruning changed the result");
                    assert!(
                        reads < reads0,
                        "{algo}: pruning saved no reads ({reads} vs {reads0})"
                    );
                }
            }
            let mut row = vec![
                algo.to_string(),
                prune.to_string(),
                m.stats.pairs.to_string(),
                reads.to_string(),
                m.pool.pages_skipped.to_string(),
                m.pool.records_filtered.to_string(),
            ];
            row.extend(clock_cells(&m.stats));
            t.row(row);
        }
    }
    t.emit(&args.results_dir, "ablation_prune");
}

/// The compressed-pages panel: packed element pages off (baseline)
/// against on, across the partition joins, composed with pruning
/// (both runs prune — compression must stack with the
/// pushdown, not replace it). Pair counts must be identical — packing is
/// a pure layout change validated at decode — while page reads drop
/// strictly (roughly 3x the records per page) and the on-disk footprint
/// shrinks (`post_bytes < pre_bytes`).
fn compress_study(args: &CommonArgs, cfg: &ExpConfig) {
    let mut t = Table::new(
        "Ablation: compressed element pages (packed off vs on, prune on)",
        &header(
            &[
                "algo",
                "compress",
                "pairs",
                "reads",
                "pages_packed",
                "pre_bytes",
                "post_bytes",
                "decodes",
            ],
            &[],
        ),
    );
    let (shape, a, d) = skewed_workload(args.scale);
    for algo in [Algorithm::Mhcj, Algorithm::MhcjRollup, Algorithm::Vpj] {
        let mut baseline: Option<(u64, u64)> = None;
        for compression in [false, true] {
            let cfg = ExpConfig {
                io: cfg.io.with_compress(compression),
                prune: true,
                ..cfg.clone()
            };
            let m = run_algo(shape, &a, &d, &cfg, algo);
            let reads = m.stats.io.reads();
            // Packing counters over input load *and* join-time spills.
            let mut packed = m.load;
            packed.absorb(&m.pool);
            match baseline {
                None => baseline = Some((m.stats.pairs, reads)),
                Some((pairs0, reads0)) => {
                    assert_eq!(
                        pairs0, m.stats.pairs,
                        "{algo}: compression changed the result"
                    );
                    assert!(
                        reads < reads0,
                        "{algo}: compression saved no reads ({reads} vs {reads0})"
                    );
                    assert!(
                        packed.packed_post_bytes < packed.packed_pre_bytes,
                        "{algo}: packing did not shrink bytes"
                    );
                }
            }
            let mut row = vec![
                algo.to_string(),
                compression.to_string(),
                m.stats.pairs.to_string(),
                reads.to_string(),
                packed.pages_packed.to_string(),
                packed.packed_pre_bytes.to_string(),
                packed.packed_post_bytes.to_string(),
                packed.packed_decodes.to_string(),
            ];
            row.extend(clock_cells(&m.stats));
            t.row(row);
        }
    }
    t.emit(&args.results_dir, "ablation_compress");
}

fn wal_study(args: &CommonArgs, cfg: &ExpConfig) {
    use pbitree_index::BPlusTree;
    use pbitree_storage::HeapFile;
    let mut t = Table::new(
        "Ablation: durable update cost (WAL'd heap + logged code index, base packed off vs on)",
        &[
            "compress",
            "base",
            "inserts",
            "deletes",
            "wall_s",
            "inserts_per_s",
            "requests_per_delete",
            "log_bytes_per_heap_insert",
            "log_bytes_per_index_insert",
            "wal_frames",
            "wal_commits",
            "log_page_writes",
            "gate_flushes",
            "recovered_ops",
            "recover_sim_s",
            "recover_reads",
            "recover_writes",
            "scans",
            "scan_own_writes",
            "scan_other_writes",
        ],
    );
    // Floors keep the two asserted costs meaningful at `--fast`: the base
    // must span enough pages that a delete scanning for its record could
    // not stay under the request bound, and the index must fill its leaves
    // far enough that logging the leaf from the slot on could not stay
    // under the byte bound.
    let base_n = ((20_000.0 * args.scale) as usize).max(20_000);
    // The restart's pool: smaller than the pages recovery redoes.
    const RECOVERY_FRAMES: usize = 16;
    // Delete batches, each followed by a scan, on the restarted pool.
    const SCAN_BATCHES: usize = 8;
    let inserts = ((4_000.0 * args.scale) as usize).max(2_000);
    let h = 24u32;
    for compress in [false, true] {
        let backend = SharedBackend::new(MemBackend::new());
        let pool = BufferPool::new(
            Disk::new(Box::new(backend.clone()), cfg.cost),
            cfg.buffer_pages,
        );
        let opts = cfg.io.with_compress(compress);
        // Deterministic base codes in document order (packs well).
        let mut rng = pbitree_storage::util::rng::Rng::seed_from_u64(42);
        let mut base = std::collections::BTreeSet::new();
        while base.len() < base_n {
            base.insert(rng.gen_range(1u64..(1 << h)));
        }
        let mut heap =
            HeapFile::from_iter_with(&pool, opts, base.iter().map(|&c| Element::new(c, 0)))
                .unwrap();
        pool.flush_all().unwrap();
        let wal = Wal::create(&pool);
        let mut index = BPlusTree::<u64, u32>::new_logged(&pool, &wal).unwrap();
        // Insert leg: every new element goes into the heap and the code
        // index. A heap insert logs its slot and the page's record count
        // (plus an alloc on a new page). An index insert that splits
        // nothing, and so leaves the index's page count alone, logs a move
        // of the entries behind the slot, the entry, the node header and
        // the meta record; a split adds an alloc and two node images. Each
        // op is one frame (two where it crosses a log page), and its
        // records on one page leave out their page id. These byte counts
        // are what that frame format and logging the move rather than the
        // moved bytes bound.
        let added: Vec<Element> = (0..inserts)
            .map(|i| Element::new(1 + rng.gen_range(0u64..(1 << h) - 1), i as u32))
            .collect();
        let (mut unsplit, mut unsplit_bytes, mut heap_bytes) = (0u64, 0u64, 0u64);
        let start = std::time::Instant::now();
        for e in &added {
            let before = wal.stats();
            heap.insert_logged(&pool, &wal, *e).unwrap();
            let (mid, pages) = (wal.stats(), pool.num_pages(index.file_id()));
            index
                .insert_logged(&pool, &wal, e.code.get(), e.tag)
                .unwrap();
            let after = wal.stats();
            heap_bytes += mid.bytes - before.bytes;
            if pool.num_pages(index.file_id()) == pages {
                unsplit += 1;
                unsplit_bytes += after.bytes - mid.bytes;
            }
        }
        wal.flush(&pool).unwrap();
        let wall = start.elapsed().as_secs_f64();
        // Delete leg: every other inserted element (out of document order,
        // on the tail pages) and as many base elements (in order, on the
        // bulk pages); the pool requests of the heap delete alone.
        let victims: Vec<Element> = (added.iter().copied().step_by(2))
            .chain((base.iter().step_by(2 * base_n / inserts)).map(|&c| Element::new(c, 0)))
            .collect();
        let mut requests = 0u64;
        for e in &victims {
            let before = pool.pool_stats().requests();
            assert!(heap.delete_logged(&pool, &wal, e).unwrap(), "{e:?} stored");
            requests += pool.pool_stats().requests() - before;
        }
        for e in added.iter().step_by(2) {
            assert!(index.delete_logged(&pool, &wal, &e.code.get()).unwrap());
        }
        wal.flush(&pool).unwrap();
        let requests_per_delete = requests as f64 / victims.len() as f64;
        let bytes_per_insert = unsplit_bytes as f64 / unsplit.max(1) as f64;
        let bytes_per_heap_insert = heap_bytes as f64 / inserts as f64;
        assert!(
            requests_per_delete <= 8.0,
            "compress {compress}: {requests_per_delete:.1} pool requests per delete \
             — the zone map no longer locates the record's page"
        );
        assert!(
            unsplit > 0 && bytes_per_insert <= 120.0,
            "compress {compress}: {bytes_per_insert:.0} log bytes per non-splitting index \
             insert (103 measured) — leaf updates are logging the entries they move, or \
             the frame format grew"
        );
        assert!(
            bytes_per_heap_insert <= 60.0,
            "compress {compress}: {bytes_per_heap_insert:.1} log bytes per heap insert \
             (51 measured) — the frame format grew"
        );
        let ws = wal.stats();
        let expect = (heap.records(), index.len());
        let wal_file = wal.file();
        let (heap_file, index_file) = (heap.file_id(), index.file_id());
        // Crash-shaped restart: recovery at bench scale must reproduce
        // every committed insert and delete, in the heap and in the index.
        // It restarts on fewer frames than the pages it redoes, and its
        // page-ordered redo must still read each logged page once and
        // write each redone page once (plus the log's tail page).
        drop((heap, index, wal, pool));
        let written = WriteLog::default();
        let pool = BufferPool::new(
            Disk::new(Box::new(written.over(backend)), cfg.cost),
            RECOVERY_FRAMES,
        );
        let log_pages = u64::from(pool.num_pages(wal_file));
        let (wal, report) = pbitree_storage::recover(&pool, wal_file).unwrap();
        let rio = pool.io_stats();
        let data_pages =
            u64::from(pool.num_pages(heap_file)) + u64::from(pool.num_pages(index_file));
        assert!(
            data_pages > RECOVERY_FRAMES as u64,
            "compress {compress}: {data_pages} heap + index pages fit the recovery pool"
        );
        assert!(
            rio.reads() <= log_pages + data_pages,
            "compress {compress}: recovery read {} pages, over {log_pages} log + \
             {data_pages} heap and index pages — redo re-reads evicted pages",
            rio.reads()
        );
        assert!(
            rio.writes() <= data_pages + 1,
            "compress {compress}: recovery wrote {} pages, over {data_pages} heap and \
             index pages + the log tail — redo writes pages back more than once",
            rio.writes()
        );
        let reopened = HeapFile::<Element>::open(&pool, heap_file).unwrap();
        let reindexed = BPlusTree::<u64, u32>::open_logged(&pool, index_file).unwrap();
        assert_eq!(
            (reopened.records(), reindexed.len()),
            expect,
            "compress {compress}: recovery lost updates"
        );
        assert_eq!(
            reindexed.iter(&pool).unwrap().count() as u64,
            expect.1,
            "compress {compress}: recovered index chain disagrees with its meta record"
        );
        // Scan leg, on the restarted pool: batches of deletes through the
        // recovered log, each acknowledged and then followed by a full scan
        // of the heap, which outgrows the pool. The scan recycles its own
        // frames and writes back the heap's dirty pages as it meets them:
        // it must write none of its own pages twice, and no other file's
        // page — the index's dirty pages stay resident — except on its
        // first load, if the pool then holds no clean frame.
        let (mut heap, mut index) = (reopened, reindexed);
        assert!(
            heap.pages() as usize > RECOVERY_FRAMES,
            "compress {compress}: the heap fits the recovery pool"
        );
        let remaining: Vec<Element> = added.iter().copied().skip(1).step_by(2).collect();
        let (mut scans, mut own_writes, mut other_writes) = (0, 0, 0);
        for batch in remaining.chunks(remaining.len().div_ceil(SCAN_BATCHES)) {
            for e in batch {
                assert!(heap.delete_logged(&pool, &wal, e).unwrap(), "{e:?} stored");
                assert!(index.delete_logged(&pool, &wal, &e.code.get()).unwrap());
            }
            wal.flush(&pool).unwrap();
            written.take();
            let seen = heap.scan_with(&pool, opts).count() as u64;
            assert_eq!(
                seen,
                heap.records(),
                "compress {compress}: the scan lost records"
            );
            let (own, other): (Vec<PageId>, Vec<PageId>) = written
                .take()
                .into_iter()
                .partition(|p| p.file == heap_file);
            let mut distinct = own.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() == own.len() && other.len() <= 1,
                "compress {compress}: a scan of the heap wrote its own pages {own:?} \
                 and other files' {other:?} — one of its own twice, or others' past its \
                 first load"
            );
            scans += 1;
            own_writes += own.len();
            other_writes += other.len();
        }
        t.row(vec![
            compress.to_string(),
            base_n.to_string(),
            inserts.to_string(),
            victims.len().to_string(),
            fmt_secs(wall),
            format!("{:.0}", inserts as f64 / wall.max(1e-9)),
            format!("{requests_per_delete:.2}"),
            format!("{bytes_per_heap_insert:.1}"),
            format!("{bytes_per_insert:.0}"),
            ws.frames.to_string(),
            ws.commits.to_string(),
            ws.page_writes.to_string(),
            ws.gate_flushes.to_string(),
            report.ops_applied.to_string(),
            format!("{:.3}", rio.sim_ns as f64 / 1e9),
            rio.reads().to_string(),
            rio.writes().to_string(),
            scans.to_string(),
            own_writes.to_string(),
            other_writes.to_string(),
        ]);
    }
    t.emit(&args.results_dir, "ablation_wal");
}

/// A disk backend that logs the pages writes reach, for the wal study's
/// scan leg to check whose pages a scan wrote back.
#[derive(Clone, Default)]
struct WriteLog(std::sync::Arc<std::sync::Mutex<Vec<PageId>>>);

impl WriteLog {
    /// `backend`, with its writes logged here.
    fn over<B: DiskBackend>(&self, backend: B) -> Logged<B> {
        Logged(backend, self.clone())
    }

    /// The pages written since the last call, in write order.
    fn take(&self) -> Vec<PageId> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

/// A backend whose writes go to a [`WriteLog`].
struct Logged<B>(B, WriteLog);

impl<B: DiskBackend> DiskBackend for Logged<B> {
    fn create_file(&mut self) -> FileId {
        self.0.create_file()
    }

    fn delete_file(&mut self, file: FileId) {
        self.0.delete_file(file)
    }

    fn allocate_page(&mut self, file: FileId) -> Result<u32, IoError> {
        self.0.allocate_page(file)
    }

    fn num_pages(&self, file: FileId) -> u32 {
        self.0.num_pages(file)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.0.live_files()
    }

    fn read_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &mut [&mut PageBuf],
    ) -> Result<(), BatchError> {
        self.0.read_pages(file, start, bufs)
    }

    fn write_pages(
        &mut self,
        file: FileId,
        start: u32,
        bufs: &[&PageBuf],
    ) -> Result<(), BatchError> {
        let res = self.0.write_pages(file, start, bufs);
        let done = res.as_ref().map_or_else(|e| e.done, |()| bufs.len());
        let mut log = (self.1).0.lock().unwrap();
        log.extend((start..).take(done).map(|page| PageId::new(file, page)));
        res
    }
}

/// The shared-scan panel: `k` windowed queries against one document-side
/// file, run as `k` independent Stack-Tree passes (the serial QUERY path)
/// and as one [`QueryBatch`] pass (the QUERYBATCH path). Each query's
/// ancestor window spans half the code space, staggered so the batch's
/// union envelope covers the whole file: serially the document side is
/// read ~`k/2` times over, batched it is read about once. The panel
/// asserts the batch returns identical pairs per query and, at `k = 16`,
/// at least 4x fewer page reads than the serial runs.
fn shared_study(args: &CommonArgs, cfg: &ExpConfig) {
    use std::collections::BTreeSet;
    let mut t = Table::new(
        "Ablation: shared multi-query scan (k serial passes vs one batch)",
        &header(&["batch_k", "mode", "pairs", "reads"], &[]),
    );
    let h = 18u32;
    let shape = pbitree_core::PBiTreeShape::new(h).unwrap();
    let span = 1u64 << h;
    let n_d = ((20_000.0 * args.scale) as usize).max(10_000);
    // The panel measures the regime the batch API exists for: a document
    // side larger than the buffer pool, so each serial pass re-reads it.
    // With a pool big enough to cache the file, every mode reads it once
    // and there is nothing to share.
    let cfg = ExpConfig {
        buffer_pages: cfg.buffer_pages.min(16),
        ..cfg.clone()
    };

    // Document side: low nodes over the whole span, in document order.
    let mut x = 0x0D0C_5EED_u64;
    let mut dset = BTreeSet::new();
    while dset.len() < n_d {
        let r = xorshift(&mut x);
        let hh = (r % 2) as u32;
        let alpha = (r >> 8) % (1u64 << (h - hh - 1));
        dset.insert((1 + 2 * alpha) << hh);
    }
    let mut d_codes: Vec<u64> = dset.into_iter().collect();
    d_codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());

    // 16 ancestor sets, each one page's worth of mid-height nodes inside
    // a half-span window; window q starts at q * span/32.
    let queries: Vec<Vec<(u64, u32)>> = (0..16u64)
        .map(|q| {
            let lo = (q * span / 32).max(1);
            let hi = q * span / 32 + span / 2;
            let mut y = 0xA11CE ^ (q << 32);
            let mut set = BTreeSet::new();
            while set.len() < 200 {
                let r = xorshift(&mut y);
                let hh = 4 + (r % 3) as u32;
                let alpha = (r >> 8) % (1u64 << (h - hh - 1));
                let c = (1 + 2 * alpha) << hh;
                if c >= lo && c < hi {
                    set.insert(c);
                }
            }
            let mut codes: Vec<u64> = set.into_iter().collect();
            codes.sort_by_key(|&v| pbitree_core::Code::new(v).unwrap().doc_order_key());
            codes.into_iter().map(|c| (c, 0)).collect()
        })
        .collect();

    for k in [1usize, 4, 16] {
        // Serial leg: k independent Stack-Tree passes, cold pool.
        let ctx = cfg.ctx(shape);
        let df = element_file(&ctx.pool, d_codes.iter().map(|&c| (c, 1))).unwrap();
        let afs: Vec<_> = queries[..k]
            .iter()
            .map(|qc| element_file(&ctx.pool, qc.iter().copied()).unwrap())
            .collect();
        ctx.pool.evict_all().unwrap();
        let mut want: Vec<Vec<(u64, u64)>> = Vec::with_capacity(k);
        let io0 = ctx.pool.io_stats();
        let mut serial = JoinStats::default();
        for af in &afs {
            let mut sink = CollectSink::default();
            let stats =
                stack_tree_desc(&ctx, af, &df, SortPolicy::AssumeSorted, &mut sink).unwrap();
            serial.pairs += stats.pairs;
            serial.cpu_ns += stats.cpu_ns;
            want.push(sink.canonical());
        }
        serial.io = ctx.pool.io_stats().since(&io0);
        let s_reads = serial.io.reads();
        let mut row = vec![
            k.to_string(),
            "serial".into(),
            serial.pairs.to_string(),
            s_reads.to_string(),
        ];
        row.extend(clock_cells(&serial));
        t.row(row);

        // Batched leg: the same k queries from one shared pass, cold pool.
        let ctx = cfg.ctx(shape);
        let df = element_file(&ctx.pool, d_codes.iter().map(|&c| (c, 1))).unwrap();
        let mut qb = QueryBatch::new();
        for qc in &queries[..k] {
            qb.add(qc.iter().map(|&(c, tag)| Element::new(c, tag)).collect());
        }
        ctx.pool.evict_all().unwrap();
        let mut collect: Vec<CollectSink> = (0..k).map(|_| CollectSink::default()).collect();
        let stats = {
            let mut sinks = MultiSink::new();
            for snk in &mut collect {
                sinks.push(snk);
            }
            qb.execute(&ctx, &df, &mut sinks).unwrap()
        };
        for (q, got) in collect.iter().enumerate() {
            assert_eq!(
                got.canonical(),
                want[q],
                "shared: k={k} query {q} diverged from its serial run"
            );
        }
        let b_reads = stats.io.reads();
        let mut row = vec![
            k.to_string(),
            "shared".into(),
            stats.pairs.to_string(),
            b_reads.to_string(),
        ];
        row.extend(clock_cells(&stats));
        t.row(row);
        if k == 16 {
            assert!(
                b_reads * 4 <= s_reads,
                "shared: batch of 16 should read >= 4x fewer pages \
                 (shared {b_reads} vs serial {s_reads})"
            );
        }
    }
    t.emit(&args.results_dir, "ablation_shared");
}

/// `chosen / best`, with `0 / 0` a tie.
fn regret(chosen: f64, best: f64) -> f64 {
    if best > 0.0 {
        chosen / best
    } else if chosen > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// The planner-regret panel: every operator of `Algorithm::ALL` (SHCJ
/// only where A's catalog reads one height, `HeapFile::single_height`,
/// which also feeds `choose_algorithm`) on the `raw_join` datasets, XMark
/// B1–B10 and DBLP D1–D10 as raw inputs, each loaded once per leg and run
/// cold (pool evicted before every run). The *cold* leg uses
/// `b = 500 × --scale` (floor 8, `--buffer` is ignored), so the large
/// synthetic sides never fit at `--fast`; the *resident* leg sizes `b` to
/// hold both sides. Per row it prints what `choose_algorithm` picks, the
/// best operator per metric, and chosen ÷ best on pages, simulated seconds
/// and wall (the minimum of 3 runs). Every operator must return the same
/// pairs. Every row asserts pages regret ≤ 1.25: with both sides clipped
/// by the envelope rule, SHCJ on a single-height row reads what VPJ
/// reads. Multi-height rows also assert simulated-seconds regret ≤ 1.25,
/// and wall regret ≤ 1.5 where the best wall is ≥ 5 ms (below that,
/// noise decides). The synthetic single-height row (SLLL) asserts
/// simulated-seconds regret ≤ 1.25 too — the paper's SHCJ ≈ VPJ on
/// single-height inputs; the XMark/DBLP single-height rows' seconds and
/// wall are printed, not asserted. The `chosen_*_ms` columns say where
/// the chosen operator's fastest run spent its wall: in total and in its
/// top-level `load`, `probe` and `partition` phases (`JoinStats::phases`;
/// a phase the operator does not run at top level reads 0, so VPJ's
/// per-group memory joins count under `probe`). The `rollup_*` columns price
/// MHCJ+Rollup, the paper's other pick for the multi-height bottom row,
/// the same way.
fn regret_study(args: &CommonArgs, cfg: &ExpConfig) {
    const REPS: usize = 3;
    const SYNTHETIC: [&str; 5] = ["MSLH", "SLLL", "MLLL", "MLLH", "MLSH"];
    /// The phases whose wall the chosen operator's columns break out.
    const PHASES: [&str; 3] = ["load", "probe", "partition"];
    struct Run {
        algo: Algorithm,
        pages: f64,
        sim: f64,
        wall: f64,
        /// Wall seconds of each of `PHASES` in the fastest run.
        phases: [f64; 3],
    }
    let mut t = Table::new(
        "Ablation: planner regret, chosen / best; wall = min of 3 runs",
        &[
            "dataset",
            "leg",
            "b",
            "h_a",
            "a_pages",
            "d_pages",
            "pairs",
            "chosen",
            "best_pages",
            "pages_regret",
            "best_sim",
            "sim_regret",
            "best_wall",
            "best_wall_ms",
            "wall_regret",
            "chosen_wall_ms",
            "chosen_load_ms",
            "chosen_probe_ms",
            "chosen_partition_ms",
            "rollup_pages_regret",
            "rollup_wall_regret",
        ],
    );
    let sets = SYNTHETIC
        .iter()
        .filter_map(|n| synthetic_by_name(n, args.scale))
        .chain(xmark_workloads(args.sf, 0xE0))
        .chain(dblp_workloads(args.sf, 0xD0));
    let cold_b = ((500.0 * args.scale).round() as usize).max(8);
    let raw = InputState::raw();
    let mut failures = Vec::new();
    for w in sets {
        let (h_a, expected) = (w.h_a(), w.exact_results());
        let mut b = cold_b;
        for leg in ["cold", "resident"] {
            let ctx = ExpConfig {
                buffer_pages: b,
                ..cfg.clone()
            }
            .ctx(w.shape);
            let load = |items: &[(u64, u32)]| {
                element_file_with(&ctx.pool, ctx.read_opts(), items.iter().copied()).unwrap()
            };
            let (af, df) = (load(&w.a), load(&w.d));
            let one_height = af.single_height().is_some();
            let algos: Vec<Algorithm> = Algorithm::ALL
                .into_iter()
                .filter(|&a| a != Algorithm::Shcj || one_height)
                .collect();
            let chosen = pbitree_joins::choose_algorithm(&ctx, raw, raw, &af, &df, one_height);
            let runs: Vec<Run> = algos
                .iter()
                .map(|&algo| {
                    let (mut wall, mut phases) = (f64::INFINITY, [0.0; 3]);
                    let mut first = None;
                    for _ in 0..REPS {
                        ctx.pool.evict_all().unwrap();
                        let mut sink = CountSink::default();
                        let stats = pbitree_joins::execute(
                            &ctx,
                            algo,
                            &af,
                            &df,
                            SortPolicy::SortOnTheFly,
                            &mut sink,
                        )
                        .unwrap();
                        assert_eq!(
                            stats.pairs, expected,
                            "{}/{leg}: {algo} returned the wrong pairs",
                            w.name
                        );
                        let secs = |ns: u64| ns as f64 / 1e9;
                        if secs(stats.cpu_ns) < wall {
                            wall = secs(stats.cpu_ns);
                            phases = PHASES.map(|name| {
                                let of_name = stats.phases.iter().filter(|p| p.name == name);
                                secs(of_name.map(|p| p.cpu_ns).sum())
                            });
                        }
                        first.get_or_insert(stats.io);
                    }
                    let io = first.unwrap();
                    Run {
                        algo,
                        pages: io.total() as f64,
                        sim: io.sim_secs(),
                        wall,
                        phases,
                    }
                })
                .collect();
            let of = |algo: Algorithm| runs.iter().find(|r| r.algo == algo).unwrap();
            // A tie goes to the chosen operator.
            let best = |key: fn(&Run) -> f64| {
                runs.iter()
                    .min_by(|x, y| {
                        (key(x).total_cmp(&key(y)))
                            .then((x.algo != chosen).cmp(&(y.algo != chosen)))
                    })
                    .unwrap()
            };
            let (c, rollup) = (of(chosen), of(Algorithm::MhcjRollup));
            let (bp, bs, bw) = (best(|r| r.pages), best(|r| r.sim), best(|r| r.wall));
            let (pages_regret, wall_regret) = (regret(c.pages, bp.pages), regret(c.wall, bw.wall));
            let sim_regret = regret(c.sim, bs.sim);
            if (h_a > 1 || SYNTHETIC.contains(&w.name.as_str())) && sim_regret > 1.25 {
                failures.push(format!(
                    "{}/{leg}: {chosen} spends {:.2} simulated s, {} {:.2} ({sim_regret:.2}x)",
                    w.name, c.sim, bs.algo, bs.sim
                ));
            }
            if pages_regret > 1.25 {
                failures.push(format!(
                    "{}/{leg}: {chosen} moves {} pages, {} {} ({pages_regret:.2}x)",
                    w.name, c.pages, bp.algo, bp.pages
                ));
            }
            if h_a > 1 && bw.wall >= 0.005 && wall_regret > 1.5 {
                failures.push(format!(
                    "{}/{leg}: {chosen} takes {:.1} ms, {} {:.1} ms ({wall_regret:.2}x)",
                    w.name,
                    c.wall * 1e3,
                    bw.algo,
                    bw.wall * 1e3
                ));
            }
            let mut row = vec![
                w.name.clone(),
                leg.into(),
                b.to_string(),
                h_a.to_string(),
                af.pages().to_string(),
                df.pages().to_string(),
                expected.to_string(),
                chosen.to_string(),
                bp.algo.to_string(),
                format!("{pages_regret:.2}"),
                bs.algo.to_string(),
                format!("{sim_regret:.2}"),
                bw.algo.to_string(),
                format!("{:.2}", bw.wall * 1e3),
                format!("{wall_regret:.2}"),
                format!("{:.2}", c.wall * 1e3),
            ];
            row.extend(c.phases.iter().map(|s| format!("{:.2}", s * 1e3)));
            row.extend([
                format!("{:.2}", regret(rollup.pages, bp.pages)),
                format!("{:.2}", regret(rollup.wall, bw.wall)),
            ]);
            t.row(row);
            // Resident: every operator's working set fits beside both inputs.
            b = (af.pages() + df.pages()) as usize + 8;
        }
    }
    t.emit(&args.results_dir, "ablation_regret");
    assert!(
        failures.is_empty(),
        "planner regret over bound:\n{}",
        failures.join("\n")
    );
}

fn main() {
    let args = CommonArgs::parse("--study");
    let cfg = args.config();
    type Study = fn(&CommonArgs, &ExpConfig);
    let studies: [(&str, Study); 9] = [
        ("rollup", rollup_study),
        ("shcj", shcj_study),
        ("vpj", vpj_study),
        ("io", io_study),
        ("prune", prune_study),
        ("compress", compress_study),
        ("wal", wal_study),
        ("shared", shared_study),
        ("regret", regret_study),
    ];
    for (name, study) in studies {
        if args.selected(name) {
            study(&args, &cfg);
        }
    }
    cfg.finish_trace(args.trace.as_deref());
}
