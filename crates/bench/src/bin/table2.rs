//! Regenerates Table 2 of the paper: dataset statistics (a–d), simulated
//! disk time (with CPU time and pages beside it) for the single-height
//! synthetic datasets (e), and MHCJ+Rollup false hits (f).
//!
//! ```text
//! cargo run -p pbitree-bench --release --bin table2 -- --part a
//! cargo run -p pbitree-bench --release --bin table2 -- --fast
//! ```

#![forbid(unsafe_code)]

use pbitree_bench::args::CommonArgs;
use pbitree_bench::harness::{min_rgn, run_algo, run_competitors, RGN_BASELINES};
use pbitree_bench::report::{clock_header, clock_row, Table};
use pbitree_bench::workloads::{dblp_workloads, synthetic_multi, synthetic_single, Workload};
use pbitree_joins::Algorithm;

fn stats_table(title: &str, file: &str, sets: &[Workload], args: &CommonArgs) {
    let mut t = Table::new(
        title,
        &["dataset", "|A|", "H_A", "|D|", "H_D", "#results", "paper"],
    );
    for w in sets {
        t.row(vec![
            w.name.clone(),
            w.a.len().to_string(),
            w.h_a().to_string(),
            w.d.len().to_string(),
            w.h_d().to_string(),
            w.exact_results().to_string(),
            w.paper_results.map_or("-".into(), |r| r.to_string()),
        ]);
    }
    t.emit(&args.results_dir, file);
}

fn main() {
    let args = CommonArgs::parse("--part");
    let cfg = args.config();

    if args.selected("a") {
        let sets = synthetic_single(args.scale);
        stats_table(
            "Table 2(a): single-height synthetic datasets",
            "table2a",
            &sets,
            &args,
        );
    }
    if args.selected("b") {
        let sets = synthetic_multi(args.scale);
        stats_table(
            "Table 2(b): multi-height synthetic datasets",
            "table2b",
            &sets,
            &args,
        );
    }
    if args.selected("c") {
        let sets = pbitree_bench::workloads::xmark_workloads(args.sf, 0xE0);
        stats_table("Table 2(c): BENCHMARK datasets", "table2c", &sets, &args);
    }
    if args.selected("d") {
        let sets = dblp_workloads(args.sf, 0xD0);
        stats_table("Table 2(d): DBLP datasets", "table2d", &sets, &args);
    }
    if args.selected("e") {
        let sets = synthetic_single(args.scale);
        let mut t = Table::new(
            "Table 2(e): simulated disk time sim_s (s), single-height synthetic datasets; \
             MIN_RGN is the region baseline with the least sim_s",
            &clock_header(&["dataset"], &["MIN_RGN", "SHCJ", "VPJ"]),
        );
        let mut apart = Vec::new();
        for w in &sets {
            let base = run_competitors(w.shape, &w.a, &w.d, &cfg, &RGN_BASELINES);
            let shcj = run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::Shcj);
            let vpj = run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::Vpj);
            let rgn = min_rgn(&base).unwrap();
            t.row(clock_row(
                w.name.clone(),
                &[&rgn.stats, &shcj.stats, &vpj.stats],
            ));
            let ratio = vpj.stats.io.sim_secs() / shcj.stats.io.sim_secs();
            if ratio > 1.10 {
                apart.push(format!("{}: VPJ/SHCJ sim_s {ratio:.2}", w.name));
            }
        }
        t.emit(&args.results_dir, "table2e");
        // §4: "SHCJ and VPJ perform similarly".
        assert!(
            apart.is_empty(),
            "SHCJ and VPJ apart by more than 1.10x:\n{}",
            apart.join("\n")
        );
    }
    if args.selected("f") {
        let sets = synthetic_multi(args.scale);
        let mut t = Table::new(
            "Table 2(f): false hits for MHCJ+Rollup, multi-height datasets",
            &["dataset", "#false hits", "#results"],
        );
        for w in &sets {
            let m = run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::MhcjRollup);
            t.row(vec![
                w.name.clone(),
                m.stats.false_hits.to_string(),
                m.stats.pairs.to_string(),
            ]);
        }
        t.emit(&args.results_dir, "table2f");
    }
    cfg.finish_trace(args.trace.as_deref());
}
