//! Regenerates Figure 6 of the paper, panel by panel:
//!
//! * (a)/(b) improvement ratios of the partitioning joins over MIN_RGN on
//!   the single/multi-height synthetic datasets;
//! * (c)/(d) the same on the BENCHMARK (XMark-like) and DBLP workloads;
//! * (e)/(f) elapsed time vs. relative buffer size `P` on SLLL and MLLL;
//! * (g)/(h) scalability with dataset size (single/multi-height).
//!
//! ```text
//! cargo run -p pbitree-bench --release --bin fig6 -- --panel a
//! cargo run -p pbitree-bench --release --bin fig6 -- --fast
//! ```

#![forbid(unsafe_code)]

use pbitree_bench::args::CommonArgs;
use pbitree_bench::harness::{
    improvement_ratio, min_rgn_secs, run_algo, run_competitors, ExpConfig, RGN_BASELINES,
};
use pbitree_bench::report::{fmt_pct, fmt_secs, Table};
use pbitree_bench::workloads::{
    dblp_workloads, scalability, synthetic_by_name, synthetic_multi, synthetic_single,
    xmark_workloads, Workload,
};
use pbitree_joins::Algorithm;

/// Improvement-ratio panel: `pbitree_algo` vs MIN_RGN per workload.
fn ratio_panel(
    title: &str,
    file: &str,
    sets: &[Workload],
    first: Algorithm,
    args: &CommonArgs,
    cfg: &ExpConfig,
) {
    // Phase columns only carry data under --trace; "-" otherwise.
    let mut t = Table::new(
        title,
        &[
            "dataset",
            "MIN_RGN(s)",
            &format!("{first}(s)"),
            "VPJ(s)",
            &format!("impr {first}"),
            "impr VPJ",
            &format!("phases {first}"),
            "phases VPJ",
        ],
    );
    for w in sets {
        let base = run_competitors(w.shape, &w.a, &w.d, cfg, &RGN_BASELINES);
        let min_rgn = min_rgn_secs(&base).unwrap();
        let x = run_algo(w.shape, &w.a, &w.d, cfg, first);
        let v = run_algo(w.shape, &w.a, &w.d, cfg, Algorithm::Vpj);
        t.row(vec![
            w.name.clone(),
            fmt_secs(min_rgn),
            fmt_secs(x.secs()),
            fmt_secs(v.secs()),
            fmt_pct(improvement_ratio(min_rgn, x.secs())),
            fmt_pct(improvement_ratio(min_rgn, v.secs())),
            x.stats.phase_summary(),
            v.stats.phase_summary(),
        ]);
    }
    t.emit(&args.results_dir, file);
}

/// Buffer sweep panel (e)/(f): elapsed time at P% of the smaller set.
fn buffer_panel(name: &str, file: &str, first: Algorithm, args: &CommonArgs) {
    let Some(w) = synthetic_by_name(name, args.scale) else {
        eprintln!("unknown dataset {name}");
        return;
    };
    // Smaller side in pages (12-byte elements, 4 KiB pages, 341/page).
    let min_pages = (w.a.len().min(w.d.len()) as f64 / 341.0).ceil();
    let mut t = Table::new(
        &format!("Figure 6 buffer sweep: {name} (elapsed seconds)"),
        &["P%", "buffer_pages", "MIN_RGN", &first.to_string(), "VPJ"],
    );
    for p in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let pages = ((min_pages * p / 100.0).round() as usize).max(3);
        let cfg = ExpConfig {
            buffer_pages: pages,
            ..ExpConfig::default()
        };
        let base = run_competitors(w.shape, &w.a, &w.d, &cfg, &RGN_BASELINES);
        let min_rgn = min_rgn_secs(&base).unwrap();
        let x = run_algo(w.shape, &w.a, &w.d, &cfg, first);
        let v = run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::Vpj);
        t.row(vec![
            format!("{p}"),
            pages.to_string(),
            fmt_secs(min_rgn),
            fmt_secs(x.secs()),
            fmt_secs(v.secs()),
        ]);
    }
    t.emit(&args.results_dir, file);
}

/// Scalability panel (g)/(h): time per algorithm vs dataset size.
fn scalability_panel(multi: bool, file: &str, args: &CommonArgs, cfg: &ExpConfig) {
    let first = if multi {
        Algorithm::MhcjRollup
    } else {
        Algorithm::Shcj
    };
    let mut t = Table::new(
        &format!(
            "Figure 6 scalability ({}-height): elapsed seconds",
            if multi { "multi" } else { "single" }
        ),
        &[
            "size",
            "INLJN",
            "STACKTREE",
            "ADB+",
            &first.to_string(),
            "VPJ",
        ],
    );
    for (size, w) in scalability(multi, args.scale) {
        let algos = [
            Algorithm::InlJn,
            Algorithm::StackTree,
            Algorithm::AncDesBPlus,
            first,
            Algorithm::Vpj,
        ];
        let runs = run_competitors(w.shape, &w.a, &w.d, cfg, &algos);
        let mut row = vec![size.to_string()];
        row.extend(runs.iter().map(|m| fmt_secs(m.secs())));
        t.row(row);
    }
    t.emit(&args.results_dir, file);
}

fn main() {
    let args = CommonArgs::parse("--panel");
    pbitree_bench::harness::init_trace(&args.trace);
    let cfg = args.config();

    if args.selected("a") {
        ratio_panel(
            "Figure 6(a): improvement over MIN_RGN, single-height synthetic",
            "fig6a",
            &synthetic_single(args.scale),
            Algorithm::Shcj,
            &args,
            &cfg,
        );
    }
    if args.selected("b") {
        ratio_panel(
            "Figure 6(b): improvement over MIN_RGN, multi-height synthetic",
            "fig6b",
            &synthetic_multi(args.scale),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("c") {
        ratio_panel(
            "Figure 6(c): improvement over MIN_RGN, BENCHMARK B1-B10",
            "fig6c",
            &xmark_workloads(args.sf, 0xE0),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("d") {
        ratio_panel(
            "Figure 6(d): improvement over MIN_RGN, DBLP D1-D10",
            "fig6d",
            &dblp_workloads(args.sf, 0xD0),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("e") {
        buffer_panel("SLLL", "fig6e", Algorithm::Shcj, &args);
    }
    if args.selected("f") {
        buffer_panel("MLLL", "fig6f", Algorithm::MhcjRollup, &args);
    }
    if args.selected("g") {
        scalability_panel(false, "fig6g", &args, &cfg);
    }
    if args.selected("h") {
        scalability_panel(true, "fig6h", &args, &cfg);
    }
    pbitree_bench::harness::finish_trace(&args.trace);
}
