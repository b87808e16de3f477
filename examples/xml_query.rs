//! Run one containment query through **every** algorithm of the framework
//! and compare their costs — Table 1 in action on a real document.
//!
//! Generates an XMark-like auction document (serialization-free), extracts
//! the element sets of `//listitem//keyword`, and runs SHCJ-family,
//! VPJ and the three adapted region-code baselines over a simulated disk,
//! printing pairs, page I/O, simulated disk time and CPU time for each.
//!
//! ```text
//! cargo run --release --example xml_query
//! ```

use pbitree_containment::datagen::xmark::{self, XMarkSpec};
use pbitree_containment::joins::element::element_file;
use pbitree_containment::joins::stacktree::SortPolicy;
use pbitree_containment::joins::{CountSink, JoinCtx};
use pbitree_containment::storage::{BufferPool, CostModel, Disk, MemBackend};
use pbitree_containment::xml::EncodedDocument;

fn main() {
    // An auction site at 40% scale: ~8700 items, ~600k nodes.
    let doc = xmark::generate(XMarkSpec { sf: 0.4, seed: 42 });
    println!(
        "generated XMark-like document: {} nodes, {} items, {} listitems",
        doc.len(),
        doc.nodes_with_tag("item").len(),
        doc.nodes_with_tag("listitem").len()
    );
    let enc = EncodedDocument::encode(doc).expect("encode");
    println!("PBiTree height: {}", enc.height());

    // //listitem//keyword : listitems nest, so A spans several heights.
    let a: Vec<(u64, u32)> = enc
        .element_set("listitem")
        .iter()
        .map(|c| (c.get(), 0))
        .collect();
    let d: Vec<(u64, u32)> = enc
        .element_set("keyword")
        .iter()
        .map(|c| (c.get(), 1))
        .collect();
    println!("|A| = {} listitems, |D| = {} keywords\n", a.len(), d.len());

    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12}",
        "algorithm", "pairs", "io pages", "sim_s", "cpu_s"
    );
    type ElementsFile = pbitree_containment::storage::HeapFile<pbitree_containment::joins::Element>;
    type JoinFn<'x> = &'x dyn Fn(
        &JoinCtx,
        &ElementsFile,
        &ElementsFile,
        &mut dyn pbitree_containment::joins::PairSink,
    ) -> Result<
        pbitree_containment::joins::JoinStats,
        pbitree_containment::joins::JoinError,
    >;
    let run = |name: &str, f: JoinFn<'_>| {
        // Fresh pool per run: everyone starts cold with b = 64 pages.
        let ctx = JoinCtx::new(
            BufferPool::new(
                Disk::new(Box::new(MemBackend::new()), CostModel::default()),
                64,
            ),
            enc.encoding().shape(),
        );
        let af = element_file(&ctx.pool, a.iter().copied()).unwrap();
        let df = element_file(&ctx.pool, d.iter().copied()).unwrap();
        ctx.pool.evict_all().unwrap();
        let mut sink = CountSink::default();
        let stats = f(&ctx, &af, &df, &mut sink).expect(name);
        println!(
            "{:<14} {:>10} {:>10} {:>12.3} {:>12.3}",
            name,
            stats.pairs,
            stats.io.total(),
            stats.io.sim_secs(),
            stats.cpu_ns as f64 / 1e9
        );
    };

    use pbitree_containment::joins as j;
    run("MHCJ", &|c, a, d, s| j::mhcj::mhcj(c, a, d, s));
    run("MHCJ+Rollup", &|c, a, d, s| {
        j::rollup::mhcj_rollup(c, a, d, j::rollup::RollupOptions::default(), s)
    });
    run("VPJ", &|c, a, d, s| {
        j::vpj::vpj(c, a, d, s).map(|(st, _)| st)
    });
    run("INLJN", &|c, a, d, s| j::inljn::inljn(c, a, d, s));
    run("STACKTREE", &|c, a, d, s| {
        j::stacktree::stack_tree_desc(c, a, d, SortPolicy::SortOnTheFly, s)
    });
    run("ADB+", &|c, a, d, s| {
        j::adb::anc_des_bplus(c, a, d, SortPolicy::SortOnTheFly, s)
    });
    run("naive BNL", &|c, a, d, s| {
        j::naive::block_nested_loop(c, a, d, s)
    });

    println!("\n(sort/index-build cost is charged to the baselines, as in the paper's §4)");
}
