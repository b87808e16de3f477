//! A closed-form cross-check: a full tree joined with itself. Generated
//! inputs under every configuration are `tests/lattice.rs`'s job; this
//! case pins the exact pair count the lattice's oracle cannot state.

use pbitree_containment::joins::element::element_file;
use pbitree_containment::joins::verify::check_all_agree;
use pbitree_containment::joins::JoinCtx;
use pbitree_core::PBiTreeShape;

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
