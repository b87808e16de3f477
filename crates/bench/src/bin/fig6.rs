//! Regenerates Figure 6 of the paper, panel by panel:
//!
//! * (a)/(b) improvement ratios of the partitioning joins over MIN_RGN on
//!   the single/multi-height synthetic datasets;
//! * (c)/(d) the same on the BENCHMARK (XMark-like) and DBLP workloads;
//! * (e)/(f) simulated disk time vs. relative buffer size `P` on SLLL and
//!   MLLL;
//! * (g)/(h) scalability with dataset size (single/multi-height).
//!
//! Every run prints `sim_s`, `cpu_s` and pages; `MIN_RGN` and the
//! improvement ratios are computed on `sim_s`.
//!
//! ```text
//! cargo run -p pbitree-bench --release --bin fig6 -- --panel a
//! cargo run -p pbitree-bench --release --bin fig6 -- --fast
//! ```

#![forbid(unsafe_code)]

use pbitree_bench::args::CommonArgs;
use pbitree_bench::harness::{
    improvement_ratio, min_rgn, run_algo, run_competitors, ExpConfig, Measured, RGN_BASELINES,
};
use pbitree_bench::report::{clock_header, clock_row, fmt_pct, Table};
use pbitree_bench::workloads::{
    dblp_workloads, scalability, synthetic_by_name, synthetic_multi, synthetic_single,
    xmark_workloads, Workload,
};
use pbitree_joins::Algorithm;

/// Improvement-ratio panel: `first` and VPJ vs MIN_RGN per workload.
fn ratio_panel(
    title: &str,
    file: &str,
    sets: &[Workload],
    first: Algorithm,
    args: &CommonArgs,
    cfg: &ExpConfig,
) {
    let mut header = clock_header(&["dataset"], &["MIN_RGN", &first.to_string(), "VPJ"]);
    header.extend([format!("impr {first}"), "impr VPJ".into()]);
    let mut t = Table::new(title, &header);
    for w in sets {
        let base = run_competitors(w.shape, &w.a, &w.d, cfg, &RGN_BASELINES);
        let rgn = min_rgn(&base).unwrap();
        let x = run_algo(w.shape, &w.a, &w.d, cfg, first);
        let v = run_algo(w.shape, &w.a, &w.d, cfg, Algorithm::Vpj);
        let impr = |m: &Measured| {
            fmt_pct(improvement_ratio(
                rgn.stats.io.sim_secs(),
                m.stats.io.sim_secs(),
            ))
        };
        let mut row = clock_row(w.name.clone(), &[&rgn.stats, &x.stats, &v.stats]);
        row.extend([impr(&x), impr(&v)]);
        t.row(row);
    }
    t.emit(&args.results_dir, file);
}

/// Buffer sweep panel (e)/(f): the runs at P% of the smaller set, every
/// other knob from `cfg`.
fn buffer_panel(name: &str, file: &str, first: Algorithm, args: &CommonArgs, cfg: &ExpConfig) {
    let Some(w) = synthetic_by_name(name, args.scale) else {
        eprintln!("unknown dataset {name}");
        return;
    };
    // Smaller side in pages (12-byte elements, 4 KiB pages, 341/page).
    let min_pages = (w.a.len().min(w.d.len()) as f64 / 341.0).ceil();
    let mut t = Table::new(
        &format!(
            "Figure 6 buffer sweep: {name}; MIN_RGN is the region baseline with the least sim_s"
        ),
        &clock_header(
            &["P%", "buffer_pages"],
            &["MIN_RGN", &first.to_string(), "VPJ"],
        ),
    );
    for p in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let pages = ((min_pages * p / 100.0).round() as usize).max(3);
        let cfg = ExpConfig {
            buffer_pages: pages,
            ..cfg.clone()
        };
        let base = run_competitors(w.shape, &w.a, &w.d, &cfg, &RGN_BASELINES);
        let x = run_algo(w.shape, &w.a, &w.d, &cfg, first);
        let v = run_algo(w.shape, &w.a, &w.d, &cfg, Algorithm::Vpj);
        let rgn = min_rgn(&base).unwrap();
        let mut row = clock_row(format!("{p}"), &[&rgn.stats, &x.stats, &v.stats]);
        row.insert(1, pages.to_string());
        t.row(row);
    }
    t.emit(&args.results_dir, file);
}

/// Scalability panel (g)/(h): every algorithm's runs vs dataset size.
fn scalability_panel(multi: bool, file: &str, args: &CommonArgs, cfg: &ExpConfig) {
    let first = if multi {
        Algorithm::MhcjRollup
    } else {
        Algorithm::Shcj
    };
    let algos = [
        Algorithm::InlJn,
        Algorithm::StackTree,
        Algorithm::AncDesBPlus,
        first,
        Algorithm::Vpj,
    ];
    let mut t = Table::new(
        &format!(
            "Figure 6 scalability ({}-height)",
            if multi { "multi" } else { "single" }
        ),
        &clock_header(&["size"], &algos),
    );
    for (size, w) in scalability(multi, args.scale) {
        let runs = run_competitors(w.shape, &w.a, &w.d, cfg, &algos);
        let stats: Vec<_> = runs.iter().map(|m| &m.stats).collect();
        t.row(clock_row(size.to_string(), &stats));
    }
    t.emit(&args.results_dir, file);
}

fn main() {
    let args = CommonArgs::parse("--panel");
    let cfg = args.config();

    if args.selected("a") {
        ratio_panel(
            "Figure 6(a): improvement over MIN_RGN on sim_s, single-height synthetic",
            "fig6a",
            &synthetic_single(args.scale),
            Algorithm::Shcj,
            &args,
            &cfg,
        );
    }
    if args.selected("b") {
        ratio_panel(
            "Figure 6(b): improvement over MIN_RGN on sim_s, multi-height synthetic",
            "fig6b",
            &synthetic_multi(args.scale),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("c") {
        ratio_panel(
            "Figure 6(c): improvement over MIN_RGN on sim_s, BENCHMARK B1-B10",
            "fig6c",
            &xmark_workloads(args.sf, 0xE0),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("d") {
        ratio_panel(
            "Figure 6(d): improvement over MIN_RGN on sim_s, DBLP D1-D10",
            "fig6d",
            &dblp_workloads(args.sf, 0xD0),
            Algorithm::MhcjRollup,
            &args,
            &cfg,
        );
    }
    if args.selected("e") {
        buffer_panel("SLLL", "fig6e", Algorithm::Shcj, &args, &cfg);
    }
    if args.selected("f") {
        buffer_panel("MLLL", "fig6f", Algorithm::MhcjRollup, &args, &cfg);
    }
    if args.selected("g") {
        scalability_panel(false, "fig6g", &args, &cfg);
    }
    if args.selected("h") {
        scalability_panel(true, "fig6h", &args, &cfg);
    }
    cfg.finish_trace(args.trace.as_deref());
}
