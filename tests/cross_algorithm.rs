//! Property-style cross-validation: on arbitrary element sets, every
//! containment-join algorithm must produce exactly the naive join's result
//! set, under arbitrary (tiny) buffer budgets. Cases come from a
//! deterministic xorshift stream, so every failure is reproducible by
//! seed and no external property-testing crate is needed.

use pbitree_containment::joins::element::element_file;
use pbitree_containment::joins::verify::check_all_agree;
use pbitree_containment::joins::JoinCtx;
use pbitree_core::{Code, PBiTreeShape};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Arbitrary element sets in an H-height code space: distinct codes split
/// into ancestors and descendants (sides may overlap in height ranges and
/// share structure).
fn arb_sets(h: u32, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let max = (1u64 << h) - 1;
    let mut x = seed | 1;
    let na = (xorshift(&mut x) % 120) as usize;
    let nd = (xorshift(&mut x) % 200) as usize;
    let mut a = std::collections::BTreeSet::new();
    let mut d = std::collections::BTreeSet::new();
    for _ in 0..na {
        a.insert(1 + xorshift(&mut x) % max);
    }
    for _ in 0..nd {
        d.insert(1 + xorshift(&mut x) % max);
    }
    (a.into_iter().collect(), d.into_iter().collect())
}

/// Every algorithm, on inputs stored in document order ("sorted") and in
/// a seeded shuffle ("raw"): the order decides the order pairs are emitted
/// in, so both the pair set and the distinct-descendant set
/// `check_all_agree` compares are checked under both.
#[test]
fn all_algorithms_agree() {
    for seed in 0..40u64 {
        let (mut a, mut d) = arb_sets(12, seed.wrapping_mul(0x9E3779B97F4A7C15) + 1);
        let b = 3 + (seed as usize) % 7;
        let shape = PBiTreeShape::new(12).unwrap();
        let ctx = JoinCtx::in_memory_free(shape, b);
        for sorted in [true, false] {
            if sorted {
                for v in [&mut a, &mut d] {
                    v.sort_unstable_by_key(|&c| Code::from_raw_unchecked(c).doc_order_key());
                }
            } else {
                let mut x = seed | 1;
                for v in [&mut a, &mut d] {
                    for i in (1..v.len()).rev() {
                        v.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
                    }
                }
            }
            let af = element_file(&ctx.pool, a.iter().map(|&c| (c, 0))).unwrap();
            let df = element_file(&ctx.pool, d.iter().map(|&c| (c, 1))).unwrap();
            check_all_agree(&ctx, &af, &df)
                .unwrap_or_else(|e| panic!("seed {seed} b {b} sorted {sorted}: {e:?}"));
        }
    }
}

/// Deep, skewed trees (everything in one subtree) still agree — the
/// regime that forces VPJ recursion and rollup fallbacks.
#[test]
fn skewed_sets_agree() {
    for seed in 0..25u64 {
        let b = 3 + (seed as usize) % 3;
        let shape = PBiTreeShape::new(16).unwrap();
        let mut x = (seed * 40) | 1;
        let mut step = move || xorshift(&mut x);
        // Confine all codes to the leftmost 1/64th of the space.
        let mut a = std::collections::BTreeSet::new();
        let mut d = std::collections::BTreeSet::new();
        for _ in 0..150 {
            let h = (step() % 6) as u32 + 2;
            a.insert(((step() % (1 << (10 - 1))) * 2 + 1) << h);
        }
        for _ in 0..300 {
            let h = (step() % 2) as u32;
            d.insert(((step() % (1 << (10 - h - 1))) * 2 + 1) << h);
        }
        let ctx = JoinCtx::in_memory_free(shape, b);
        let af = element_file(&ctx.pool, a.iter().map(|&c| (c, 0))).unwrap();
        let df = element_file(&ctx.pool, d.iter().map(|&c| (c, 1))).unwrap();
        check_all_agree(&ctx, &af, &df).unwrap_or_else(|e| panic!("seed {seed} b {b}: {e:?}"));
    }
}

/// Transient device faults under the disk's retry budget are invisible to
/// MHCJ and VPJ: a run with recover-after-N faults armed must produce
/// results byte-identical to a fault-free run. Sweeps a transient window
/// over every read index of the workload, then runs a seeded
/// probabilistic transient plan.
#[test]
fn transient_faults_match_fault_free_run() {
    use pbitree_containment::joins::{mhcj::mhcj, vpj::vpj, CollectSink, JoinStats};
    use pbitree_containment::storage::{
        BufferPool, CostModel, Disk, FaultBackend, FaultConfig, MemBackend,
    };
    use pbitree_joins::element::Element;
    use pbitree_joins::sink::PairSink;
    use pbitree_joins::JoinError;
    use pbitree_storage::HeapFile;

    type JoinFn = fn(
        &JoinCtx,
        &HeapFile<Element>,
        &HeapFile<Element>,
        &mut dyn PairSink,
    ) -> Result<JoinStats, JoinError>;
    let algos: &[(&str, JoinFn)] = &[
        ("mhcj", |c, a, d, s| mhcj(c, a, d, s)),
        ("vpj", |c, a, d, s| vpj(c, a, d, s).map(|(st, _)| st)),
    ];

    // One faulted run: fresh fault-instrumented context, cold pool, `cfg`
    // armed for the join itself. Returns canonical pairs and the handle.
    let run = |join: JoinFn, a: &[u64], d: &[u64], cfg: FaultConfig| {
        let backend = FaultBackend::new(MemBackend::new(), FaultConfig::none());
        let handle = backend.handle();
        let pool = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), 8);
        let ctx = JoinCtx::new(pool, PBiTreeShape::new(12).unwrap());
        let af = element_file(&ctx.pool, a.iter().map(|&c| (c, 0))).unwrap();
        let df = element_file(&ctx.pool, d.iter().map(|&c| (c, 1))).unwrap();
        ctx.pool.evict_all().unwrap();
        handle.reset();
        handle.set_config(cfg);
        let mut sink = CollectSink::default();
        join(&ctx, &af, &df, &mut sink)
            .unwrap_or_else(|e| panic!("transient fault must be invisible, got: {e}"));
        handle.set_config(FaultConfig::none());
        assert_eq!(ctx.pool.pinned_frames(), 0);
        (sink.canonical(), handle)
    };

    let mut prob_faults_fired = 0u64;
    for seed in 0..4u64 {
        let (a, d) = arb_sets(12, seed.wrapping_mul(0x2545F4914F6CDD1D) + 7);
        if a.is_empty() || d.is_empty() {
            continue;
        }
        for &(name, join) in algos {
            // Fault-free baseline, and its read-attempt count.
            let (expect, handle) = run(join, &a, &d, FaultConfig::none());
            let reads = handle.reads();
            assert!(reads > 0, "{name} seed {seed}: no reads to fault");

            // Transient recover-after-2 window at every read index.
            for idx in 0..reads {
                let cfg = FaultConfig::read_at(idx).transient().lasting(2);
                let (pairs, h) = run(join, &a, &d, cfg);
                assert_eq!(
                    pairs, expect,
                    "{name} seed {seed}: transient read fault at {idx} changed the result"
                );
                // The window fires on both attempts and is retried
                // through, never surfaced.
                assert_eq!(h.faults(), 2, "{name}: read {idx} window did not fire");
            }

            // Seeded probabilistic transient faults across the whole run.
            let cfg = FaultConfig {
                seed: 0xFA17 + seed,
                read_fault_prob: 0.2,
                write_fault_prob: 0.2,
                transient: true,
                ..FaultConfig::default()
            };
            let (pairs, h) = run(join, &a, &d, cfg);
            assert_eq!(
                pairs, expect,
                "{name} seed {seed}: probabilistic transient faults changed the result"
            );
            prob_faults_fired += h.faults();
        }
    }
    // Tiny workloads do few I/Os, so any single plan may roll no faults;
    // across all seeds and algorithms the plans must have fired, though.
    assert!(prob_faults_fired > 0, "no probabilistic fault ever fired");
}

#[test]
fn identical_sets_self_join() {
    // A == D: strict containment must exclude every self pair.
    let shape = PBiTreeShape::new(8).unwrap();
    let ctx = JoinCtx::in_memory_free(shape, 4);
    let codes: Vec<u64> = (1..=255).collect();
    let af = element_file(&ctx.pool, codes.iter().map(|&c| (c, 0))).unwrap();
    let df = element_file(&ctx.pool, codes.iter().map(|&c| (c, 1))).unwrap();
    let pairs = check_all_agree(&ctx, &af, &df).unwrap();
    // Full-tree self-join: a node at height h has 2^(h+1) - 2 proper
    // descendants, and the H = 8 tree has 2^(7-h) nodes at height h.
    let mut expect = 0usize;
    for h in 1..8u32 {
        let nodes = 1usize << (7 - h);
        expect += nodes * ((1usize << (h + 1)) - 2);
    }
    assert_eq!(pairs.len(), expect);
    assert!(pairs.iter().all(|&(a, d)| a != d));
}
