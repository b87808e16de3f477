//! The disabled-tracing overhead contract: a context without a tracer
//! records nothing. `trace::spans_recorded()` is process-global, so this
//! file holds exactly one test — nothing else in its process may attach a
//! tracer before the zero check.

use std::sync::Arc;

use pbitree_core::PBiTreeShape;
use pbitree_joins::trace::{spans_recorded, Tracer};
use pbitree_joins::{
    element::element_file, execute, Algorithm, CountSink, JoinCtxBuilder, SortPolicy,
};

const H: u32 = 16;

#[test]
fn untraced_joins_record_no_spans() {
    let run = |tracer: Option<Arc<Tracer>>| {
        let mut b = JoinCtxBuilder::in_memory_free(PBiTreeShape::new(H).unwrap(), 12);
        if let Some(t) = tracer {
            b = b.tracer(t);
        }
        let c = b.build();
        // The first 250 nodes at heights 4 and 7 over the first 4000 leaves.
        let a = (0u64..500).map(|i| (((2 * (i % 250) + 1) << (4 + 3 * (i / 250))), 0));
        let d = (0u64..4000).map(|i| (2 * i + 1, 1));
        let af = element_file(&c.pool, a).unwrap();
        let df = element_file(&c.pool, d).unwrap();
        for algo in [
            Algorithm::MhcjRollup,
            Algorithm::Vpj,
            Algorithm::StackTree,
            Algorithm::InlJn,
            Algorithm::AncDesBPlus,
        ] {
            let mut sink = CountSink::default();
            let stats = execute(&c, algo, &af, &df, SortPolicy::SortOnTheFly, &mut sink).unwrap();
            assert!(stats.pairs > 0, "{algo} must do real work");
        }
    };
    run(None);
    assert_eq!(spans_recorded(), 0, "untraced runs recorded trace spans");
    // The counter is live: the same joins with a tracer attached move it.
    run(Some(Arc::new(Tracer::new())));
    assert!(spans_recorded() > 0);
}
