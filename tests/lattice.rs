//! The configuration lattice: one seeded input generator, one driver, one
//! oracle, for every containment join under every configuration.
//!
//! * A [`Case`] comes from a seed: tree height, shape (uniform, skewed
//!   into one subtree, single-height A, an empty side, a single element,
//!   A == D), size and physical order (document order or a seeded
//!   shuffle). The shapes lean toward skew and toward empty or
//!   single-element partitions, where partitioning joins break first.
//! * A [`Config`] is one point of `compress × prune × readahead × budget`,
//!   the budget going down to the pool floor of 3 frames.
//! * The oracle, at every point: [`check_all_agree`] (every operator
//!   against the naive join, pairs and distinct descendants), a clean pool
//!   afterwards (no pinned frame, no file but the two inputs), and the
//!   planner under every [`InputState`] the case's order allows, with and
//!   without `single_height_a` where A really is single-height; the
//!   catalog's `HeapFile::single_height` must say the same of A.
//! * The fault axis sweeps every read index and every torn-write index of
//!   every operator in [`Algorithm::ALL`], on raw and packed pages: each
//!   must be one clean `Err` naming its page, a fault-free rerun must
//!   repeat the baseline's pairs and [`IoStats`] exactly, and transient
//!   faults under the disk's retry budget must be invisible.
//!
//! A failing point panics with one line: seed, case, config, algorithm.
//! `FAULT_SWEEP_SEED` (default 42) seeds the probabilistic leg.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pbitree_containment::joins::element::{element_file_with, Element};
use pbitree_containment::joins::verify::check_all_agree;
use pbitree_containment::joins::SortPolicy::SortOnTheFly;
use pbitree_containment::joins::{
    execute, plan_and_execute, Algorithm, CollectSink, InputState, JoinCtx, JoinError, JoinStats,
};
use pbitree_containment::storage::{
    BufferPool, CostModel, Disk, FaultBackend, FaultConfig, FaultHandle, HeapFile, IoStats,
    MemBackend, ScanOptions,
};
use pbitree_core::{Code, PBiTreeShape};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// How a case's codes are spread over the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Uniform,
    /// Every code inside the leftmost 1/16th subtree: deep partitions
    /// on one side, empty ones everywhere else.
    Skewed,
    SingleHeightA,
    /// One side is empty (A for even seeds, D for odd).
    EmptySide,
    /// One side holds a single element.
    Single,
    /// The same codes on both sides.
    Identical,
}

use Shape::*;
const SHAPES: [Shape; 6] = [Uniform, Skewed, SingleHeightA, EmptySide, Single, Identical];

/// One generated input pair, stored in the order it is loaded, and the
/// label a repro line prints for it.
struct Case {
    h: u32,
    sorted: bool,
    label: String,
    a: Vec<u64>,
    d: Vec<u64>,
}

impl Case {
    /// The lattice's case for `seed`: the shape cycles with the seed so
    /// every shape appears, and every fifth seed is large (several pages
    /// a side) so the partitioning joins partition.
    fn generate(seed: u64, sorted: bool) -> Case {
        let large = seed % 5 == 4;
        let h = if large { 14 } else { 10 } + (seed % 3) as u32;
        Case::new(seed, h, SHAPES[(seed % 6) as usize], sorted, large)
    }

    fn new(seed: u64, h: u32, shape: Shape, sorted: bool, large: bool) -> Case {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |n: u64| xorshift(&mut x) % n.max(1);
        // Large cases hold 1-2 k ancestors and 2-4 k descendants: several
        // pages a side, raw or packed.
        let (na, nd) = if large {
            (1000 + rnd(1000), 2000 + rnd(2000))
        } else {
            (1 + rnd(120), 1 + rnd(200))
        };
        // Skewed cases live under the first 2^(h-4) codes, the rest span
        // the whole tree. A code of height `ht` below 2^span is
        // (2·α + 1)·2^ht with α < 2^(span - ht - 1). Heights default to
        // the trailing zeros of a random word: the distribution of a
        // uniformly drawn code.
        let span = if shape == Skewed { h - 4 } else { h };
        let a_height = |r: u64| match shape {
            Skewed => (2 + r % 6).min(u64::from(span) - 1) as u32,
            SingleHeightA => 1 + (seed % u64::from(h - 2)) as u32,
            _ => r.trailing_zeros().min(h - 1),
        };
        let d_height = |r: u64| match shape {
            Skewed => (r % 2).min(u64::from(span) - 1) as u32,
            _ => r.trailing_zeros().min(h - 1),
        };
        let mut draw = |n: u64, height: &dyn Fn(u64) -> u32| {
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                let ht = height(rnd(u64::MAX));
                set.insert((2 * rnd(1u64 << (span - ht - 1)) + 1) << ht);
            }
            set.into_iter().collect::<Vec<u64>>()
        };
        let (mut a, mut d) = (draw(na, &a_height), draw(nd, &d_height));
        match shape {
            EmptySide if seed.is_multiple_of(2) => a.clear(),
            EmptySide => d.clear(),
            // The tallest ancestor, so the lone element has descendants.
            Single if seed.is_multiple_of(2) => {
                let top = a.iter().max_by_key(|&&c| c.trailing_zeros());
                a = top.into_iter().copied().collect();
            }
            Single => d.truncate(1),
            Identical => d = a.clone(),
            _ => {}
        }
        for v in [&mut a, &mut d] {
            if sorted {
                v.sort_unstable_by_key(|&c| Code::from_raw_unchecked(c).doc_order_key());
            } else {
                for i in (1..v.len()).rev() {
                    v.swap(i, rnd(i as u64 + 1) as usize);
                }
            }
        }
        let order = if sorted { "doc" } else { "shuffled" };
        let (na, nd) = (a.len(), d.len());
        let label = format!("seed={seed} h={h} shape={shape:?} order={order} |A|={na} |D|={nd}");
        Case {
            h,
            sorted,
            label,
            a,
            d,
        }
    }

    fn single_height_a(&self) -> bool {
        let mut heights = self.a.iter().map(|&c| Code::from_raw_unchecked(c).height());
        heights.next().is_some_and(|h0| heights.all(|h| h == h0))
    }
}

/// One configuration point; a repro line prints it with `{:?}`.
#[derive(Debug, Clone, Copy)]
struct Config {
    compress: bool,
    prune: bool,
    readahead: usize,
    budget: usize,
}

impl Config {
    /// Every `compress × prune × readahead` point at one budget.
    fn all(budget: usize) -> impl Iterator<Item = Config> {
        (0..8).map(move |i| Config {
            compress: i & 1 != 0,
            prune: i & 2 != 0,
            readahead: if i & 4 != 0 { 8 } else { 1 },
            budget,
        })
    }

    fn io(&self) -> ScanOptions {
        ScanOptions::sequential(self.readahead).with_compress(self.compress)
    }
}

/// A context over a fault-instrumented in-memory disk with `case` loaded
/// under `cfg` and the pool cold. The fault plan starts disarmed and the
/// handle's counters are reset after loading, so armed indices address
/// join-time I/O only.
struct Run {
    ctx: JoinCtx,
    a: HeapFile<Element>,
    d: HeapFile<Element>,
    faults: FaultHandle,
}

impl Run {
    fn new(case: &Case, cfg: Config) -> Run {
        let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
        let faults = backend.handle();
        let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), cfg.budget);
        let ctx = JoinCtx::builder(pool, PBiTreeShape::new(case.h).unwrap())
            .io(cfg.io())
            .prune(cfg.prune)
            .build();
        let load = |codes: &[u64], tag| {
            element_file_with(&ctx.pool, cfg.io(), codes.iter().map(|&c| (c, tag))).unwrap()
        };
        let (a, d) = (load(&case.a, 0), load(&case.d, 1));
        ctx.pool.evict_all().unwrap();
        faults.reset();
        Run { ctx, a, d, faults }
    }

    /// Runs `algo` with `plan` armed; returns the result and its pairs,
    /// after asserting the pool is clean whatever the outcome.
    fn join(&self, algo: Algorithm, plan: FaultConfig, at: &str) -> Outcome {
        self.faults.set_config(plan);
        let mut sink = CollectSink::default();
        let res = execute(&self.ctx, algo, &self.a, &self.d, SortOnTheFly, &mut sink);
        self.faults.set_config(FaultConfig::none());
        self.assert_clean(at);
        (res, sink.canonical())
    }

    /// What every run, faulted or not, must leave behind: no pinned frame
    /// (error unwinds release every guard) and no file but the two inputs
    /// (operator-private files are deleted on every exit).
    fn assert_clean(&self, at: &str) {
        let (pinned, files) = (self.ctx.pool.pinned_frames(), self.ctx.pool.live_files());
        assert!(pinned == 0, "{at}: {pinned} pinned frames leaked");
        let inputs = [self.a.file_id(), self.d.file_id()];
        assert!(
            files == inputs,
            "{at}: live files {files:?}, not just the inputs"
        );
    }
}

type Outcome = (Result<JoinStats, JoinError>, Vec<(u64, u64)>);

/// The oracle at one point: every operator agrees with the naive join,
/// the pool is clean, and Table 1 returns the same pairs under every
/// input state the case can truthfully declare.
fn check_point(case: &Case, cfg: Config) {
    let at = format!("lattice {} {cfg:?}", case.label);
    let run = Run::new(case, cfg);
    assert_eq!(
        run.a.single_height().is_some(),
        case.single_height_a(),
        "{at}: the catalog's one height"
    );
    let expect = match catch_unwind(AssertUnwindSafe(|| {
        check_all_agree(&run.ctx, &run.a, &run.d)
    })) {
        Ok(Ok(pairs)) => pairs,
        Ok(Err(e)) => panic!("{at}: {e}"),
        // The first line names the algorithm; the pair dumps after it
        // would bury the repro.
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .and_then(|m| m.lines().next());
            panic!("{at}: {}", msg.unwrap_or("panicked"))
        }
    };
    run.assert_clean(&at);

    let states = [
        InputState::raw(),
        InputState::indexed(),
        InputState::sorted(),
        InputState::sorted_and_indexed(),
    ];
    // A shuffled input is never declared sorted, nor a mixed A single-height.
    for state in states.into_iter().filter(|s| case.sorted || !s.sorted) {
        for single_height_a in [false, true]
            .into_iter()
            .filter(|&s| !s || case.single_height_a())
        {
            let what = format!("{at} planner state={state:?} single_height_a={single_height_a}");
            let mut sink = CollectSink::default();
            let (algo, _) = plan_and_execute(
                &run.ctx,
                state,
                state,
                &run.a,
                &run.d,
                single_height_a,
                &mut sink,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(
                sink.canonical() == expect,
                "{what} algo={algo}: pairs differ from the oracle"
            );
            run.assert_clean(&what);
        }
    }
}

/// 40 seeds × every `compress × prune × readahead` point, at a per-seed
/// budget of 3 to 9 frames.
fn oracle_lattice(sorted: bool) {
    for seed in 0..40 {
        let case = Case::generate(seed, sorted);
        for cfg in Config::all(3 + seed as usize % 7) {
            check_point(&case, cfg);
        }
    }
}

#[test]
fn every_point_agrees_with_the_oracle_in_document_order() {
    oracle_lattice(true);
}

#[test]
fn every_point_agrees_with_the_oracle_shuffled() {
    oracle_lattice(false);
}

// ---- Fault axis ----------------------------------------------------------

/// The fault workload for `algo`: a large shuffled case, with a
/// single-height A for SHCJ.
fn fault_case(algo: Algorithm) -> Case {
    let shape = if algo == Algorithm::Shcj {
        SingleHeightA
    } else {
        Uniform
    };
    Case::new(0xFA17, 16, shape, false, true)
}

/// Operators that spill partitions or rescan files at join time.
fn spills(algo: Algorithm) -> bool {
    matches!(
        algo,
        Algorithm::Shcj | Algorithm::Mhcj | Algorithm::MhcjRollup | Algorithm::Vpj
    )
}

/// The fault axis's point for `algo`. At 4 frames SHCJ, MHCJ, Rollup and
/// VPJ all write at join time on both layouts. The sort and index
/// baselines write their runs and trees at any budget, and at 4 frames
/// INLJN's probes thrash the pool (over 1,100 reads a run), so they get 8.
fn fault_config(algo: Algorithm, compress: bool, readahead: usize) -> Config {
    Config {
        compress,
        prune: true,
        readahead,
        budget: if spills(algo) { 4 } else { 8 },
    }
}

/// Fault-free baseline of one `(algo, cfg)` point: pairs, pool I/O stats
/// and join-time read/write attempts.
struct Baseline {
    pairs: Vec<(u64, u64)>,
    io: IoStats,
    reads: u64,
    writes: u64,
}

fn baseline(case: &Case, cfg: Config, algo: Algorithm, at: &str) -> Baseline {
    let run = Run::new(case, cfg);
    let (res, pairs) = run.join(algo, FaultConfig::none(), at);
    res.unwrap_or_else(|e| panic!("{at}: fault-free run failed: {e}"));
    Baseline {
        pairs,
        io: run.ctx.pool.io_stats(),
        reads: run.faults.reads(),
        writes: run.faults.writes(),
    }
}

/// A run whose fault fired must fail cleanly, with an `Err` naming its
/// page; any other run must return the baseline's pairs. With read-ahead
/// on, a fault may also land on a speculative read nobody consumes.
fn check_outcome(at: &str, cfg: Config, outcome: Outcome, fired: bool, base: &Baseline) {
    match outcome {
        (Err(e), _) => assert!(fired && e.failing_page().is_some(), "{at}: {e}"),
        (Ok(_), pairs) => assert!(
            (!fired || cfg.readahead > 1) && pairs == base.pairs,
            "{at}: fault swallowed (fired: {fired}) or result changed"
        ),
    }
}

/// Sweeps `algo` at `cfg`: a permanent fault at every read index and
/// every torn-write index fails cleanly, a transient window at every
/// read index and a probabilistic transient plan are invisible, and a
/// fault-free rerun repeats the baseline's pairs and I/O stats exactly.
fn sweep(algo: Algorithm, cfg: Config) -> Baseline {
    let case = fault_case(algo);
    let at = format!("faults {} {cfg:?} algo={algo}", case.label);
    let base = baseline(&case, cfg, algo, &at);
    assert!(!base.pairs.is_empty(), "{at}: vacuous workload");
    if spills(algo) {
        assert!(base.writes > 0, "{at}: no join-time writes to fault");
    }
    let faulted = |plan: FaultConfig, what: String| {
        let what = format!("{at} {what}");
        let run = Run::new(&case, cfg);
        let outcome = run.join(algo, plan, &what);
        assert!(run.faults.faults() > 0, "{what}: fault never fired");
        if plan.transient {
            // Under the retry budget: invisible, and charged nothing.
            let io = run.ctx.pool.io_stats();
            let ok = outcome.0.is_ok() && outcome.1 == base.pairs && io == base.io;
            assert!(ok, "{what}: transient fault was visible ({:?})", outcome.0);
        } else {
            check_outcome(&what, cfg, outcome, true, &base);
        }
    };
    for i in 0..base.reads {
        faulted(FaultConfig::read_at(i), format!("read {i}"));
        let window = FaultConfig::read_at(i).transient().lasting(2);
        faulted(window, format!("transient read {i}"));
    }
    for i in 0..base.writes {
        let torn = FaultConfig {
            torn_writes: true,
            ..FaultConfig::write_at(i)
        };
        faulted(torn, format!("torn write {i}"));
    }
    let blips = FaultConfig {
        seed: 0xB11B,
        read_fault_prob: 0.2,
        write_fault_prob: 0.2,
        transient: true,
        ..FaultConfig::default()
    };
    faulted(blips, "transient p=0.2".into());

    let again = baseline(&case, cfg, algo, &at);
    assert!(again.pairs == base.pairs, "{at}: fault-free rerun drifted");
    assert_eq!(again.io, base.io, "{at}: fault-free I/O stats drifted");
    base
}

/// Both layouts of `algos` at both read-ahead depths; packed pages must
/// read strictly fewer pages than raw ones.
fn sweep_layouts(algos: &[Algorithm]) {
    for &algo in algos {
        for readahead in [1, 8] {
            let raw = sweep(algo, fault_config(algo, false, readahead));
            let packed = sweep(algo, fault_config(algo, true, readahead));
            let at = format!("faults algo={algo} readahead={readahead}");
            assert!(raw.pairs == packed.pairs, "{at}: layouts disagree");
            assert!(
                packed.reads < raw.reads,
                "{at}: packed read {} pages, raw {}",
                packed.reads,
                raw.reads
            );
        }
    }
}

#[test]
fn every_fault_index_fails_cleanly_in_partitioning_joins() {
    sweep_layouts(&[
        Algorithm::Shcj,
        Algorithm::Mhcj,
        Algorithm::MhcjRollup,
        Algorithm::Vpj,
    ]);
}

#[test]
fn every_fault_index_fails_cleanly_in_sort_and_index_baselines() {
    sweep_layouts(&[
        Algorithm::StackTree,
        Algorithm::InlJn,
        Algorithm::AncDesBPlus,
    ]);
}

/// The fault workloads themselves agree with the oracle at every
/// `compress × prune × readahead` point of the fault budgets.
#[test]
fn fault_workloads_agree_with_the_oracle() {
    for algo in [Algorithm::Shcj, Algorithm::InlJn] {
        for cfg in Config::all(fault_config(algo, false, 1).budget) {
            check_point(&fault_case(algo), cfg);
        }
    }
}

/// `FAULT_SWEEP_SEED` (default 42) seeds a probabilistic permanent-fault
/// plan over every operator, layout and read-ahead depth, and picks one
/// more oracle case in both orders. Whatever fires, each run fails
/// cleanly or succeeds with the baseline's pairs.
#[test]
fn probabilistic_faults_fail_cleanly() {
    let seed: u64 = std::env::var("FAULT_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("probabilistic_faults_fail_cleanly: FAULT_SWEEP_SEED={seed}");
    let plan = FaultConfig {
        seed,
        read_fault_prob: 0.05,
        write_fault_prob: 0.05,
        torn_writes: true,
        ..FaultConfig::default()
    };
    for algo in Algorithm::ALL {
        for (compress, readahead) in [(false, 1), (false, 8), (true, 1), (true, 8)] {
            let (case, cfg) = (fault_case(algo), fault_config(algo, compress, readahead));
            let at = format!(
                "faults {} {cfg:?} algo={algo} FAULT_SWEEP_SEED={seed}",
                case.label
            );
            let base = baseline(&case, cfg, algo, &at);
            let run = Run::new(&case, cfg);
            let outcome = run.join(algo, plan, &at);
            check_outcome(&at, cfg, outcome, run.faults.faults() > 0, &base);
        }
    }
    for sorted in [true, false] {
        let case = Case::generate(seed, sorted);
        for cfg in Config::all(3 + (seed % 7) as usize) {
            check_point(&case, cfg);
        }
    }
}
