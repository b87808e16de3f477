//! Cross-algorithm verification: every algorithm must produce the same
//! result set. Used by the test suites and exposed so downstream users can
//! sanity-check an installation on their own data.

use pbitree_storage::HeapFile;

use crate::context::{JoinCtx, JoinError};
use crate::element::Element;
use crate::planner::{execute, Algorithm};
use crate::sink::{CollectSink, DistinctDescendants};
use crate::stacktree::SortPolicy;

/// Runs every applicable algorithm of [`Algorithm::ALL`] on `(a, d)` and
/// returns the canonical result set after asserting they all agree with
/// the naive join — pair for pair through a [`CollectSink`], and as the
/// distinct descendant set through a [`DistinctDescendants`] the operator
/// emits into directly. SHCJ applies only to single-height ancestor sets
/// and is skipped when it says so.
///
/// # Panics
/// Panics (with the offending algorithm named) on any disagreement —
/// this is a verification tool, disagreement is a bug.
pub fn check_all_agree(
    ctx: &JoinCtx,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
) -> Result<Vec<(u64, u64)>, JoinError> {
    let mut reference = CollectSink::default();
    crate::naive::block_nested_loop(ctx, a, d, &mut reference)?;
    let expect = reference.canonical();
    let mut expect_desc: Vec<u64> = expect.iter().map(|&(_, d)| d).collect();
    expect_desc.sort_unstable();
    expect_desc.dedup();
    for algo in Algorithm::ALL {
        let mut sink = CollectSink::default();
        match execute(ctx, algo, a, d, SortPolicy::SortOnTheFly, &mut sink) {
            Err(JoinError::NotSingleHeight { .. }) if algo == Algorithm::Shcj => continue,
            res => res?,
        };
        assert_eq!(sink.canonical(), expect, "{algo} disagrees with naive join");
        let mut desc = DistinctDescendants::default();
        execute(ctx, algo, a, d, SortPolicy::SortOnTheFly, &mut desc)?;
        assert_eq!(
            desc.finish(),
            expect_desc,
            "{algo}'s distinct descendants disagree with naive join"
        );
    }
    Ok(expect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::element_file;
    use pbitree_core::PBiTreeShape;

    #[test]
    fn all_algorithms_agree_on_a_mixed_workload() {
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(16).unwrap(), 6);
        let mut x = 777u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut acodes = std::collections::BTreeSet::new();
        let mut dcodes = std::collections::BTreeSet::new();
        for _ in 0..800 {
            let h = 3 + (step() % 8) as u32;
            let alpha = (step() >> 8) % (1u64 << (16 - h - 1));
            acodes.insert((1 + 2 * alpha) << h);
        }
        for _ in 0..2000 {
            let h = (step() % 4) as u32;
            let alpha = (step() >> 8) % (1u64 << (16 - h - 1));
            dcodes.insert((1 + 2 * alpha) << h);
        }
        let a = element_file(&ctx.pool, acodes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&ctx.pool, dcodes.iter().map(|&v| (v, 1))).unwrap();
        let pairs = check_all_agree(&ctx, &a, &d).unwrap();
        assert!(!pairs.is_empty());
    }

    #[test]
    fn agreement_on_overlapping_sets() {
        // A and D share elements (self-containment exclusion everywhere).
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 6);
        let codes: Vec<u64> = (1..=1023).step_by(7).collect();
        let a = element_file(&ctx.pool, codes.iter().map(|&v| (v, 0))).unwrap();
        let d = element_file(&ctx.pool, codes.iter().map(|&v| (v, 1))).unwrap();
        check_all_agree(&ctx, &a, &d).unwrap();
    }
}
