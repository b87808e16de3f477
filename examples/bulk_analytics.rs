//! A mini version of the paper's §4.1 experiment: generate the synthetic
//! datasets (scaled down), run the partitioning joins against the best
//! region-code baseline, and print improvement ratios on simulated disk
//! time (`sim_s`) — Figure 6(a)/(b) at example scale.
//!
//! ```text
//! cargo run --release --example bulk_analytics
//! cargo run --release --example bulk_analytics -- 0.2   # bigger scale
//! ```

use pbitree_containment::datagen::synthetic;
use pbitree_containment::joins::element::element_file;
use pbitree_containment::joins::stacktree::SortPolicy;
use pbitree_containment::joins::{CountSink, JoinCtx, JoinStats};
use pbitree_containment::storage::{BufferPool, CostModel, Disk, MemBackend};

fn run_cold(
    ds: &synthetic::SyntheticDataset,
    buffer: usize,
    f: impl Fn(
        &JoinCtx,
        &pbitree_containment::storage::HeapFile<pbitree_containment::joins::Element>,
        &pbitree_containment::storage::HeapFile<pbitree_containment::joins::Element>,
        &mut dyn pbitree_containment::joins::PairSink,
    ) -> Result<JoinStats, pbitree_containment::joins::JoinError>,
) -> JoinStats {
    let ctx = JoinCtx::new(
        BufferPool::new(
            Disk::new(Box::new(MemBackend::new()), CostModel::default()),
            buffer,
        ),
        ds.shape,
    );
    let a = element_file(&ctx.pool, ds.a.iter().copied()).unwrap();
    let d = element_file(&ctx.pool, ds.d.iter().copied()).unwrap();
    ctx.pool.evict_all().unwrap();
    let mut sink = CountSink::default();
    f(&ctx, &a, &d, &mut sink).expect("join")
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("numeric scale"))
        .unwrap_or(0.05);
    let buffer = 64;
    println!("synthetic tour at scale {scale} (paper sizes x scale), b = {buffer} pages\n");

    use pbitree_containment::joins as j;
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11} {:>9}",
        "set", "|A|", "|D|", "#results", "MIN_RGN sim", "PBi sim", "VPJ sim", "impr"
    );
    for spec in synthetic::paper_single_height()
        .iter()
        .chain(&synthetic::paper_multi_height())
    {
        let spec = spec.scaled(scale);
        let ds = synthetic::generate(&spec);
        let single = spec.a_heights == 1;

        // Best of the three adapted region-code baselines (sort/build
        // charged).
        let stack = run_cold(&ds, buffer, |c, a, d, s| {
            j::stacktree::stack_tree_desc(c, a, d, SortPolicy::SortOnTheFly, s)
        });
        let inl = run_cold(&ds, buffer, |c, a, d, s| j::inljn::inljn(c, a, d, s));
        let adb = run_cold(&ds, buffer, |c, a, d, s| {
            j::adb::anc_des_bplus(c, a, d, SortPolicy::SortOnTheFly, s)
        });
        let min_rgn = stack
            .io
            .sim_secs()
            .min(inl.io.sim_secs())
            .min(adb.io.sim_secs());

        // The paper's partitioning join for this dataset class.
        let pbi = if single {
            run_cold(&ds, buffer, |c, a, d, s| j::shcj::shcj(c, a, d, s))
        } else {
            run_cold(&ds, buffer, |c, a, d, s| {
                j::rollup::mhcj_rollup(c, a, d, j::rollup::RollupOptions::default(), s)
            })
        };
        let vpj = run_cold(&ds, buffer, |c, a, d, s| {
            j::vpj::vpj(c, a, d, s).map(|(st, _)| st)
        });

        let best = pbi.io.sim_secs().min(vpj.io.sim_secs());
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>11.3} {:>11.3} {:>11.3} {:>8.1}%",
            spec.name,
            ds.a.len(),
            ds.d.len(),
            pbi.pairs,
            min_rgn,
            pbi.io.sim_secs(),
            vpj.io.sim_secs(),
            (min_rgn - best) / min_rgn * 100.0
        );
    }
    println!("\n'PBi' = SHCJ on single-height sets, MHCJ+Rollup on multi-height sets.");
}
