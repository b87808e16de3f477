//! Integration tests of the Table-1 framework and the experiment harness:
//! planner choices execute correctly at scale, and the harness machinery
//! (cold runs, MIN_RGN, workload assembly) is coherent end to end.

use pbitree_bench::harness::{min_rgn_secs, run_algo, run_competitors, ExpConfig, RGN_BASELINES};
use pbitree_bench::workloads::{synthetic_by_name, synthetic_single};
use pbitree_containment::joins::element::element_file;
use pbitree_containment::joins::{
    plan_and_execute, Algorithm, CountSink, InputState, JoinCtx, SortPolicy,
};
use pbitree_core::PBiTreeShape;
use pbitree_storage::CostModel;

fn cfg(b: usize) -> ExpConfig {
    ExpConfig {
        buffer_pages: b,
        cost: CostModel::free(),
        ..ExpConfig::default()
    }
}

#[test]
fn planner_prefers_vpj_for_two_large_raw_inputs() {
    let w = synthetic_by_name("SLLL", 0.05).unwrap();
    let ctx = JoinCtx::in_memory_free(w.shape, 8);
    let a = element_file(&ctx.pool, w.a.iter().copied()).unwrap();
    let d = element_file(&ctx.pool, w.d.iter().copied()).unwrap();
    let mut sink = CountSink::default();
    let (algo, stats) = plan_and_execute(
        &ctx,
        InputState::raw(),
        InputState::raw(),
        &a,
        &d,
        false,
        &mut sink,
    )
    .unwrap();
    assert_eq!(algo, Algorithm::Vpj);
    assert_eq!(stats.pairs, w.exact_results());
}

#[test]
fn multi_height_bottom_row_is_vpj_in_both_size_regimes() {
    // MLLL at 2 %: 20 k multi-height ancestors, 20 k descendants. At
    // b = 256 both sides fit; at b = 8 neither does.
    let w = synthetic_by_name("MLLL", 0.02).unwrap();
    assert!(w.h_a() > 1);
    for b in [256, 8] {
        let ctx = JoinCtx::in_memory_free(w.shape, b);
        let a = element_file(&ctx.pool, w.a.iter().copied()).unwrap();
        let d = element_file(&ctx.pool, w.d.iter().copied()).unwrap();
        let small = a.pages().min(d.pages()) as usize;
        assert_eq!(small + 2 <= b, b == 256, "b = {b}: {small} pages");
        let mut sink = CountSink::default();
        let (algo, stats) = plan_and_execute(
            &ctx,
            InputState::raw(),
            InputState::raw(),
            &a,
            &d,
            false,
            &mut sink,
        )
        .unwrap();
        assert_eq!(algo, Algorithm::Vpj, "b = {b}");
        assert_eq!(stats.pairs, w.exact_results(), "b = {b}");
    }
}

#[test]
fn vpj_reads_each_input_once_when_one_side_fits() {
    // The premise of the multi-height bottom row: with one side inside
    // the budget, cold VPJ is Algorithm 6's memory join — it reads A and
    // D once each and writes nothing, exactly MHCJ+Rollup's I/O.
    let w = synthetic_by_name("MSLH", 0.05).unwrap();
    let ctx = JoinCtx::in_memory_free(w.shape, 16);
    let a = element_file(&ctx.pool, w.a.iter().copied()).unwrap();
    let d = element_file(&ctx.pool, w.d.iter().copied()).unwrap();
    assert!(
        a.pages() + 2 <= 16 && d.pages() > 16,
        "{} / {}",
        a.pages(),
        d.pages()
    );
    for algo in [Algorithm::Vpj, Algorithm::MhcjRollup] {
        ctx.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let stats = pbitree_containment::joins::execute(
            &ctx,
            algo,
            &a,
            &d,
            SortPolicy::SortOnTheFly,
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            (stats.io.reads(), stats.io.writes()),
            (u64::from(a.pages() + d.pages()), 0),
            "{algo}"
        );
        assert_eq!(stats.pairs, w.exact_results(), "{algo}");
    }
}

#[test]
fn harness_cold_runs_are_reproducible_in_io() {
    let w = synthetic_by_name("SSSL", 0.3).unwrap();
    let c = cfg(16);
    let x = run_algo(w.shape, &w.a, &w.d, &c, Algorithm::Vpj);
    let y = run_algo(w.shape, &w.a, &w.d, &c, Algorithm::Vpj);
    // I/O counters are deterministic; wall time of course is not.
    assert_eq!(x.stats.io.total(), y.stats.io.total());
    assert_eq!(x.stats.pairs, y.stats.pairs);
}

#[test]
fn min_rgn_takes_the_best_baseline() {
    let w = synthetic_by_name("SSSH", 0.2).unwrap();
    let c = cfg(8);
    let runs = run_competitors(w.shape, &w.a, &w.d, &c, &RGN_BASELINES);
    let min = min_rgn_secs(&runs).unwrap();
    for m in &runs {
        assert!(min <= m.stats.io.sim_secs());
    }
}

#[test]
fn partitioning_joins_beat_min_rgn_on_asymmetric_large_sets() {
    // The paper's headline case (SLSH/SSLH shape): one large, one small,
    // neither sorted nor indexed. With a simulated disk, SHCJ/VPJ must
    // beat the sort/build-on-the-fly baselines by a wide margin.
    let w = synthetic_by_name("SSLH", 0.3).unwrap(); // |A|=3k, |D|=300k
    let c = ExpConfig {
        buffer_pages: 150,
        cost: CostModel::default(),
        ..ExpConfig::default()
    };
    let base = run_competitors(w.shape, &w.a, &w.d, &c, &RGN_BASELINES);
    let min_rgn = min_rgn_secs(&base).unwrap();
    let shcj = run_algo(w.shape, &w.a, &w.d, &c, Algorithm::Shcj);
    let vpj = run_algo(w.shape, &w.a, &w.d, &c, Algorithm::Vpj);
    let (shcj_s, vpj_s) = (shcj.stats.io.sim_secs(), vpj.stats.io.sim_secs());
    assert!(
        shcj_s < min_rgn && vpj_s < min_rgn,
        "simulated disk: SHCJ {shcj_s:.3}s / VPJ {vpj_s:.3}s vs MIN_RGN {min_rgn:.3}s"
    );
    // And the result counts agree with the generator's ground truth.
    assert_eq!(shcj.stats.pairs, w.exact_results());
    assert_eq!(vpj.stats.pairs, w.exact_results());
}

#[test]
fn single_height_workloads_run_shcj_without_error() {
    for w in synthetic_single(0.01) {
        let c = cfg(8);
        let m = run_algo(w.shape, &w.a, &w.d, &c, Algorithm::Shcj);
        assert_eq!(m.stats.pairs, w.exact_results(), "{}", w.name);
    }
}

#[test]
fn shape_of_table1_is_total() {
    // Every (indexed, sorted) combination yields a runnable algorithm.
    let shape = PBiTreeShape::new(10).unwrap();
    let ctx = JoinCtx::in_memory_free(shape, 4);
    let a = element_file(&ctx.pool, [(16u64, 0)]).unwrap();
    let d = element_file(&ctx.pool, [(18u64, 1)]).unwrap();
    for ia in [false, true] {
        for sa in [false, true] {
            let st = InputState {
                indexed: ia,
                sorted: sa,
            };
            let algo = pbitree_containment::joins::choose_algorithm(&ctx, st, st, &a, &d, false);
            let mut sink = CountSink::default();
            let stats = pbitree_containment::joins::execute(
                &ctx,
                algo,
                &a,
                &d,
                SortPolicy::SortOnTheFly,
                &mut sink,
            )
            .unwrap();
            assert_eq!(stats.pairs, 1, "{algo}");
        }
    }
}
