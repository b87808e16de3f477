//! The paper's synthetic datasets (Table 2(a)/(b)) with their oracles,
//! shared by `raw_join`, `sorted_indexed` and the operator probes.

use pbitree_bench::Workload;
use pbitree_core::{Code, PBiTreeShape};
use pbitree_datagen::synthetic;
use pbitree_joins::element::element_file_with;
use pbitree_joins::{Element, JoinCtx};
use pbitree_storage::{BufferPool, CostModel, Disk, HeapFile, MemBackend, PoolError, ScanOptions};

/// One generated dataset plus the exact join cardinality every op on it
/// must report.
pub struct Dataset {
    pub w: Workload,
    /// `Workload::exact_results()`, computed once in setup.
    pub expected: u64,
    /// Whether the ancestor set occupies one height (catalog knowledge the
    /// planner takes as an argument).
    pub single_height_a: bool,
}

/// Generates the named paper dataset at `scale`, its datagen seed XOR-ed
/// with the run seed.
pub fn dataset(name: &str, scale: f64, seed: u64) -> Dataset {
    let spec = synthetic::paper_single_height()
        .into_iter()
        .chain(synthetic::paper_multi_height())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown paper dataset {name}"));
    let mut spec = spec.scaled(scale);
    spec.seed ^= seed;
    let ds = synthetic::generate(&spec);
    let w = Workload {
        name: name.to_owned(),
        shape: ds.shape,
        a: ds.a,
        d: ds.d,
        paper_results: None,
    };
    let expected = w.exact_results();
    let single_height_a = w.h_a() == 1;
    Dataset {
        w,
        expected,
        single_height_a,
    }
}

/// Position of the named dataset in `datasets`.
pub fn index_of(datasets: &[Dataset], name: &str) -> usize {
    datasets
        .iter()
        .position(|d| d.w.name == name)
        .unwrap_or_else(|| panic!("dataset {name} is not loaded"))
}

/// `(code, tag)` pairs in document order — the order `sorted` inputs are
/// stored in.
pub fn doc_ordered(items: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut v = items.to_vec();
    v.sort_unstable_by_key(|&(c, _)| Code::from_raw_unchecked(c).doc_order_key());
    v
}

/// Loads one side as an element heap file through the public writer.
pub fn load(
    pool: &BufferPool,
    opts: ScanOptions,
    items: &[(u64, u32)],
) -> Result<HeapFile<Element>, PoolError> {
    element_file_with(pool, opts, items.iter().copied())
}

/// A pool of `frames` frames over a fresh in-memory simulated disk charging
/// `CostModel::default()` — the storage every workload and probe runs on.
pub fn mem_pool(frames: usize) -> BufferPool {
    BufferPool::new(
        Disk::new(Box::new(MemBackend::new()), CostModel::default()),
        frames,
    )
}

/// A context over [`mem_pool`] with the library's defaults (threads 1,
/// prune on, default read-ahead); only the page layout is pinned, so
/// `PBITREE_COMPRESS` cannot change what is measured.
pub fn mem_ctx(frames: usize, shape: PBiTreeShape, packed: bool) -> JoinCtx {
    JoinCtx::builder(mem_pool(frames), shape)
        .compression(packed)
        .build()
}
