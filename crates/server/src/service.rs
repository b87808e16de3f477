//! The query service: one shared buffer pool, many concurrent queries.
//!
//! A [`QueryService`] owns an XMark corpus (generated at construction,
//! encoded, and bulk-loaded into per-tag element heap files on one shared
//! [`BufferPool`]) and executes `//a//b`-style descendant paths
//! against it through the planner framework. Concurrency control is the
//! admission layer: each query asks the [`AdmissionController`] for its
//! whole frame budget up front, runs on a [`JoinCtx::worker`] sized to
//! exactly that grant, and releases the frames when its result is out
//! (see `crates/server/src/admission.rs` for the deadlock-freedom
//! argument).
//!
//! Multi-step paths decompose into a chain of containment joins exactly as
//! `DescendantPath::evaluate_naive` does in memory: the distinct
//! descendants of step *i* become the ancestor set of step *i + 1*. Every
//! input the service feeds a join is in document order (`doc_key` sort at
//! corpus build and between steps), so queries run the planner's
//! sorted-inputs row by default; a query flagged `raw` declares its inputs
//! unsorted and exercises the Table-1 bottom row instead. Either way the
//! result is the same sorted, deduplicated code list, which is what makes
//! concurrent responses byte-comparable to a serial baseline.
//!
//! [`BufferPool`]: pbitree_storage::BufferPool

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbitree_core::Code;
use pbitree_datagen::xmark::{self, XMarkSpec};
use pbitree_joins::element::element_file_with;
use pbitree_joins::{
    plan_and_execute, Algorithm, DistinctDescendants, Element, InputState, JoinCtx, JoinError,
    MultiSink, QueryBatch, ShardRole, ShardedFile, ShardedStore, Sharding,
};
use pbitree_storage::{
    BufferPool, CostModel, Disk, HeapFile, MemBackend, PoolError, ScanOptions, TempFile,
};
use pbitree_xml::{DescendantPath, EncodedDocument};

use crate::admission::{AdmissionController, AdmissionError, Grant, MIN_QUERY_FRAMES};

/// Service construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// XMark scale factor for the corpus.
    pub sf: f64,
    /// Corpus generator seed.
    pub seed: u64,
    /// Buffer-pool frames (the paper's `b`).
    pub buffer_pages: usize,
    /// Frames withheld from query admission — headroom for non-query pool
    /// users (corpus loading, logged writers sharing the pool).
    pub reserve_frames: usize,
    /// Frames granted to a query that does not ask for a specific budget.
    pub default_budget: usize,
    /// Admission wait-queue bound; waiters beyond it are rejected.
    pub max_queue: usize,
    /// Simulated disk cost model.
    pub cost: CostModel,
    /// Whether element pages are written packed (off by default).
    pub compression: bool,
    /// Ignored: every query runs its operators on the thread that serves
    /// it. Kept so struct literals that still name the field compile.
    #[doc(hidden)]
    #[deprecated(note = "ignored: queries run their operators on the serving thread")]
    pub threads: usize,
    /// Region-range shards for the shared-scan path: above 1, the corpus
    /// tag files are additionally partitioned across this many
    /// independent pools (each with its own simulated disk clock) and
    /// shareable batch groups run one shared-scan task per shard. `STATS`
    /// then reports per-shard pool counters.
    pub shards: usize,
}

// The one place allowed to name the deprecated `threads` field.
#[allow(deprecated)]
impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sf: 0.01,
            seed: 0xE0,
            buffer_pages: 500,
            reserve_frames: 16,
            default_budget: 64,
            max_queue: 4096,
            cost: CostModel::default(),
            compression: false,
            threads: 1,
            shards: 1,
        }
    }
}

/// Service-side errors, rendered as `ERR` protocol responses.
#[derive(Debug)]
pub enum ServiceError {
    /// The path did not parse.
    Parse(String),
    /// Admission refused the query.
    Admission(AdmissionError),
    /// A join operator failed.
    Join(JoinError),
    /// Building an intermediate input failed.
    Pool(PoolError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(e) => write!(f, "parse: {e}"),
            ServiceError::Admission(e) => write!(f, "admission: {e}"),
            ServiceError::Join(e) => write!(f, "join: {e:?}"),
            ServiceError::Pool(e) => write!(f, "pool: {e:?}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<AdmissionError> for ServiceError {
    fn from(e: AdmissionError) -> Self {
        ServiceError::Admission(e)
    }
}

impl From<JoinError> for ServiceError {
    fn from(e: JoinError) -> Self {
        ServiceError::Join(e)
    }
}

impl From<PoolError> for ServiceError {
    fn from(e: PoolError) -> Self {
        ServiceError::Pool(e)
    }
}

/// One resolved query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Final-step result codes, ascending, deduplicated.
    pub codes: Vec<u64>,
    /// The algorithm the planner chose for each join step.
    pub algorithms: Vec<Algorithm>,
    /// Frames the query ran with.
    pub budget: usize,
}

/// One join input in the step chain: a shared corpus tag file or a
/// query-private intermediate/predicate file.
enum StepInput<'a> {
    Corpus(&'a HeapFile<Element>),
    /// Deleted from the pool when the query lets go of it — on success
    /// and on every error exit alike.
    Owned(TempFile<'a, HeapFile<Element>>),
    Empty,
}

impl StepInput<'_> {
    fn file(&self) -> Option<&HeapFile<Element>> {
        match self {
            StepInput::Corpus(file) => Some(file),
            StepInput::Owned(file) => Some(file),
            StepInput::Empty => None,
        }
    }
}

/// One position of a batch: answered, or parsed and still to run.
enum BatchSlot {
    Done(Result<QueryOutcome, ServiceError>),
    Pending(DescendantPath),
}

/// The corpus range-partitioned across `shards` independent pools: the
/// [`ShardedStore`] plus one descendant-role [`ShardedFile`] per tag.
/// Present only when [`ServiceConfig::shards`] > 1; shareable batch
/// groups then run their shared scan shard by shard.
struct ShardedCorpus {
    store: ShardedStore,
    tags: HashMap<String, ShardedFile>,
}

/// The shared query service. `Arc` it and hand clones to every connection
/// handler; all methods take `&self`.
pub struct QueryService {
    ctx: JoinCtx,
    doc: EncodedDocument,
    tags: HashMap<String, HeapFile<Element>>,
    sharded: Option<ShardedCorpus>,
    admission: Arc<AdmissionController>,
    default_budget: usize,
    load_opts: ScanOptions,
    queries: AtomicU64,
}

/// Sorts `(code, tag)` pairs into document order — the order every join
/// input the service builds is stored in.
fn sort_doc_order(items: &mut [(u64, u32)]) {
    items.sort_unstable_by_key(|&(c, _)| Code::from_raw_unchecked(c).doc_order_key());
}

impl QueryService {
    /// Generates and loads the corpus, then stands the service up. The
    /// pool is fresh and in-memory; every tag population in the document
    /// becomes one element heap file, stored in document order.
    pub fn new(cfg: ServiceConfig) -> Result<Self, PoolError> {
        let doc = EncodedDocument::encode(xmark::generate(XMarkSpec {
            sf: cfg.sf,
            seed: cfg.seed,
        }))
        .expect("XMark corpus encodes");
        let shape = doc.encoding().shape();
        let ctx = JoinCtx::builder(
            BufferPool::new(
                Disk::new(Box::new(MemBackend::new()), cfg.cost),
                cfg.buffer_pages.max(MIN_QUERY_FRAMES + 1),
            ),
            shape,
        )
        .compression(cfg.compression)
        .sharding(Sharding::new(cfg.shards))
        .build();
        let load_opts = ScanOptions::default().with_compress(cfg.compression);

        // Group the coded nodes by tag, then bulk-load one file per tag in
        // tag-id order: a `HashMap` here loaded them in a per-process random
        // order, so file ids and the heap layout (peak RSS ± 15 %) differed
        // from one run of the same corpus to the next.
        let mut by_tag: BTreeMap<u32, Vec<(u64, u32)>> = BTreeMap::new();
        for (code, tag) in doc.all_coded_nodes() {
            by_tag.entry(tag).or_default().push((code.get(), tag));
        }
        let mut tags = HashMap::new();
        let mut sharded = if cfg.shards > 1 {
            Some(ShardedCorpus {
                store: ShardedStore::from_ctx(&ctx),
                tags: HashMap::new(),
            })
        } else {
            None
        };
        for (tag, mut items) in by_tag {
            sort_doc_order(&mut items);
            let file = element_file_with(&ctx.pool, load_opts, items.iter().copied())?;
            let name = doc.document().tag_name(tag).to_owned();
            if let Some(sc) = &mut sharded {
                // Doc order is preserved within each shard, so every
                // shard file satisfies the shared scan's precondition.
                let sf = sc
                    .store
                    .load(
                        ShardRole::Descendant,
                        items.iter().map(|&(c, t)| Element::new(c, t)),
                    )
                    .map_err(|e| match e {
                        JoinError::Pool(p) => p,
                        other => panic!("sharded corpus load: {other:?}"),
                    })?;
                sc.tags.insert(name.clone(), sf);
            }
            tags.insert(name, file);
        }

        let grantable = cfg
            .buffer_pages
            .saturating_sub(cfg.reserve_frames)
            .max(MIN_QUERY_FRAMES);
        let admission = AdmissionController::new(grantable, cfg.max_queue);
        let default_budget = cfg.default_budget.clamp(MIN_QUERY_FRAMES, grantable);
        Ok(QueryService {
            ctx,
            doc,
            tags,
            sharded,
            admission,
            default_budget,
            load_opts,
            queries: AtomicU64::new(0),
        })
    }

    /// The shared pool (logged writers in tests attach here).
    pub fn pool(&self) -> &Arc<pbitree_storage::BufferPool> {
        &self.ctx.pool
    }

    /// The corpus tree shape.
    pub fn shape(&self) -> pbitree_core::PBiTreeShape {
        self.ctx.shape
    }

    /// The encoded corpus document — the in-memory ground truth
    /// (`DescendantPath::evaluate_naive`) queries are verified against.
    pub fn document(&self) -> &EncodedDocument {
        &self.doc
    }

    /// The admission controller (exposed for stats and tests).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Queries completed successfully since startup.
    pub fn queries_served(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Attaches a span tracer: every operator run by every subsequent
    /// query records schema-v1 phase spans into it.
    pub fn with_tracer(mut self, tracer: Arc<pbitree_joins::trace::Tracer>) -> Self {
        self.ctx = self.ctx.with_tracer(tracer);
        self
    }

    /// Refuses new queries and wakes every admission waiter. In-flight
    /// queries finish normally.
    pub fn close(&self) {
        self.admission.close();
    }

    /// Runs one query end to end: admission, then the join chain on a
    /// worker context sized to the grant.
    ///
    /// `raw` declares the inputs neither sorted nor indexed (Table 1
    /// bottom row); `budget` requests an explicit frame budget, refused
    /// outright if it exceeds what admission owns.
    pub fn execute(
        &self,
        path: &str,
        raw: bool,
        budget: Option<usize>,
    ) -> Result<QueryOutcome, ServiceError> {
        let path = DescendantPath::parse(path).map_err(|e| ServiceError::Parse(e.to_string()))?;
        let want = budget.unwrap_or(self.default_budget);
        let grant = self.admission.admit(want)?;
        let out = self.run_chain(&path, raw, &grant)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Runs a whole batch of queries from **one admission grant**,
    /// answering position `i` of the result for path `i` of the input.
    ///
    /// Sorted two-step predicate-free paths over known corpus tags are
    /// *shareable*: their whole join is an in-memory ancestor set against
    /// a shared descendant tag file, so the batch groups them by that
    /// file and answers each group with one [`QueryBatch`] scan —
    /// `k` queries over the same hot tag read its pages once, not `k`
    /// times. Everything else (predicates, longer chains, `raw`, unknown
    /// tags) runs the ordinary serial chain under the same grant.
    ///
    /// Every per-query result — codes and errors alike — is exactly what
    /// [`execute`](QueryService::execute) would have produced for that
    /// path alone; only admission (once per batch) and I/O (shared)
    /// differ. The outer error is admission refusing the batch.
    pub fn execute_batch(
        &self,
        paths: &[String],
        raw: bool,
        budget: Option<usize>,
    ) -> Result<Vec<Result<QueryOutcome, ServiceError>>, ServiceError> {
        let want = budget.unwrap_or(self.default_budget);
        let grant = self.admission.admit(want)?;
        let ctx = self.ctx.worker(grant.frames());
        let mut slots: Vec<BatchSlot> = paths
            .iter()
            .map(|p| match DescendantPath::parse(p) {
                Ok(path) => BatchSlot::Pending(path),
                Err(e) => BatchSlot::Done(Err(ServiceError::Parse(e.to_string()))),
            })
            .collect();

        // Group the shareable queries by their descendant tag file, in
        // first-appearance order: groups share the pool, so the order they
        // run in decides which pages are still resident for the next one.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if let BatchSlot::Pending(path) = slot {
                if self.shareable(path, raw) {
                    let dtag = &path.steps[1].tag;
                    match groups.iter_mut().find(|(t, _)| t == dtag) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((dtag.clone(), vec![i])),
                    }
                }
            }
        }
        for (dtag, members) in groups {
            self.run_shared_group(&ctx, &dtag, &members, &mut slots);
        }

        // Serial fallback under the same grant: non-shareable queries,
        // plus any shareable ones the group pass left unanswered.
        let outcomes: Vec<Result<QueryOutcome, ServiceError>> = slots
            .into_iter()
            .map(|slot| match slot {
                BatchSlot::Done(outcome) => outcome,
                BatchSlot::Pending(path) => self.run_chain(&path, raw, &grant),
            })
            .collect();
        let served = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        self.queries.fetch_add(served, Ordering::Relaxed);
        Ok(outcomes)
    }

    /// Whether a parsed path can join a shared scan: sorted inputs, two
    /// predicate-free steps, both tags present in the corpus.
    fn shareable(&self, path: &DescendantPath, raw: bool) -> bool {
        !raw && path.steps.len() == 2
            && path.steps.iter().all(|s| s.predicate.is_none())
            && path.steps.iter().all(|s| self.tags.contains_key(&s.tag))
    }

    /// Answers one shareable group with a single shared scan of the
    /// group's descendant tag file: one [`QueryBatch`] pass through the
    /// shared pool, or — with a sharded corpus — one
    /// [`ShardedStore::shared_scan`], where every shard makes one pass
    /// over *its* slice through its own pool, so the group's simulated
    /// disk time is the max over shards. Per-query results are identical
    /// either way. Best-effort: a query whose ancestor set cannot be held
    /// within the grant — or the whole group, if the scan itself fails —
    /// is simply left pending for the serial fallback, which reports any
    /// real error per query.
    fn run_shared_group(
        &self,
        ctx: &JoinCtx,
        dtag: &str,
        members: &[usize],
        slots: &mut [BatchSlot],
    ) {
        // The grant must hold every batched ancestor set at once, with a
        // margin for the scan and the operator's working frame.
        let cap = ctx.elements_per_pages(ctx.budget().saturating_sub(2).max(1));
        let mut held = 0usize;
        let mut queries: Vec<Vec<Element>> = Vec::with_capacity(members.len());
        let mut routed: Vec<usize> = Vec::with_capacity(members.len());
        for &i in members {
            let BatchSlot::Pending(path) = &slots[i] else {
                continue;
            };
            let afile = &self.tags[&path.steps[0].tag];
            let n = afile.records() as usize;
            if held + n > cap {
                continue; // falls back to the serial chain
            }
            let Ok(ancs) = afile.read_all_with(&ctx.pool, ctx.read_opts()) else {
                continue;
            };
            held += n;
            queries.push(ancs);
            routed.push(i);
        }
        let mut distinct: Vec<DistinctDescendants> = (0..routed.len())
            .map(|_| DistinctDescendants::default())
            .collect();
        {
            let mut sinks = MultiSink::new();
            for s in &mut distinct {
                sinks.push(s);
            }
            let scanned = match &self.sharded {
                Some(sc) => sc
                    .store
                    .shared_scan(&queries, &sc.tags[dtag], &mut sinks)
                    .is_ok(),
                None => {
                    let mut qb = QueryBatch::new();
                    for ancs in queries {
                        qb.add(ancs);
                    }
                    qb.execute(ctx, &self.tags[dtag], &mut sinks).is_ok()
                }
            };
            if !scanned {
                return; // whole group falls back to the serial chain
            }
        }
        for (sink, &i) in distinct.into_iter().zip(&routed) {
            slots[i] = BatchSlot::Done(Ok(QueryOutcome {
                codes: sink.finish(),
                algorithms: vec![Algorithm::SharedScan],
                budget: ctx.budget(),
            }));
        }
    }

    /// The containment-join chain over the parsed path. Each step's join
    /// emits into a [`DistinctDescendants`]: the next step needs only the
    /// distinct descendants, never the pairs.
    fn run_chain(
        &self,
        path: &DescendantPath,
        raw: bool,
        grant: &Grant,
    ) -> Result<QueryOutcome, ServiceError> {
        let ctx = self.ctx.worker(grant.frames());
        let state = if raw {
            InputState::raw()
        } else {
            InputState::sorted()
        };
        let mut algorithms = Vec::with_capacity(path.steps.len().saturating_sub(1));
        let mut current = self.step_input(&ctx, path, 0)?;
        for i in 1..path.steps.len() {
            let next = self.step_input(&ctx, path, i)?;
            let (Some(af), Some(df)) = (current.file(), next.file()) else {
                current = StepInput::Empty;
                continue;
            };
            let mut sink = DistinctDescendants::default();
            let (algo, _stats) = plan_and_execute(
                &ctx,
                state,
                state,
                af,
                df,
                af.single_height().is_some(),
                &mut sink,
            )?;
            algorithms.push(algo);
            let codes = sink.finish();
            current = if codes.is_empty() {
                StepInput::Empty
            } else if i + 1 < path.steps.len() {
                // Materialize the distinct descendants as the next step's
                // ancestor input.
                self.owned_input(&ctx, codes)?
            } else {
                return Ok(QueryOutcome {
                    codes,
                    algorithms,
                    budget: grant.frames(),
                });
            };
        }
        // Single-step path, or a chain that drained to empty: the result
        // is whatever `current` holds.
        let codes = match current.file() {
            None => Vec::new(),
            Some(file) => file_codes(&self.ctx.pool, file)?,
        };
        Ok(QueryOutcome {
            codes,
            algorithms,
            budget: grant.frames(),
        })
    }

    /// The join input for step `i`: the shared tag file when the step has
    /// no predicate, a query-private extraction otherwise.
    fn step_input<'a>(
        &'a self,
        ctx: &JoinCtx,
        path: &DescendantPath,
        i: usize,
    ) -> Result<StepInput<'a>, ServiceError> {
        if path.steps[i].predicate.is_none() {
            return Ok(match self.tags.get(&path.steps[i].tag) {
                Some(file) => StepInput::Corpus(file),
                None => StepInput::Empty,
            });
        }
        let codes = path.step_set(&self.doc, i);
        if codes.is_empty() {
            return Ok(StepInput::Empty);
        }
        self.owned_input(ctx, codes.iter().map(|c| c.get()).collect())
    }

    /// Writes `codes` as a query-private join input, in document order
    /// like every corpus file. The file lives as long as the input does.
    fn owned_input(&self, ctx: &JoinCtx, codes: Vec<u64>) -> Result<StepInput<'_>, ServiceError> {
        let mut items: Vec<(u64, u32)> = codes.into_iter().map(|c| (c, 0)).collect();
        sort_doc_order(&mut items);
        let file = element_file_with(&ctx.pool, self.load_opts, items.iter().copied())?;
        Ok(StepInput::Owned(TempFile::new(
            &self.ctx.pool,
            file.file_id(),
            file,
        )))
    }

    /// The service's counters as one JSON line (the `STATS` response).
    /// A sharded service appends a `"shards"` array: one object per
    /// region-range shard with its own pool hit/miss counters, page I/O,
    /// and independent simulated disk clock.
    pub fn stats_json(&self) -> String {
        let a = self.admission.stats();
        let mut s = format!(
            "{{\"queries\":{},\"capacity\":{},\"in_use\":{},\"waiting\":{},\
             \"peak_waiting\":{},\"admitted\":{},\"rejected\":{}",
            self.queries_served(),
            self.admission.capacity(),
            a.in_use,
            a.waiting,
            a.peak_waiting,
            a.admitted,
            a.rejected,
        );
        if let Some(sc) = &self.sharded {
            s.push_str(",\"shards\":[");
            for (i, snap) in sc.store.snapshots().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"hits\":{},\"misses\":{},\"reads\":{},\"writes\":{},\"sim_s\":{:.6}}}",
                    snap.pool.hits,
                    snap.pool.misses,
                    snap.io.reads(),
                    snap.io.writes(),
                    snap.io.sim_secs(),
                ));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

/// Ascending, deduplicated codes of a whole element file (single-step
/// paths return a full tag population).
fn file_codes(
    pool: &pbitree_storage::BufferPool,
    file: &HeapFile<Element>,
) -> Result<Vec<u64>, ServiceError> {
    let mut codes: Vec<u64> = file
        .read_all(pool)
        .map_err(ServiceError::Pool)?
        .into_iter()
        .map(|e| e.code.get())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QueryService {
        QueryService::new(ServiceConfig {
            sf: 0.002,
            buffer_pages: 64,
            reserve_frames: 8,
            default_budget: 16,
            cost: CostModel::free(),
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn queries_match_the_naive_evaluator() {
        let svc = tiny();
        for (path, raw) in [
            ("//person//creditcard", false),
            ("//person//creditcard", true),
            ("//item//keyword", false),
            ("//item//keyword", true),
            ("//site//open_auction//bidder", false),
            ("//listitem//text", true),
        ] {
            let got = svc.execute(path, raw, None).unwrap();
            let want: Vec<u64> = DescendantPath::parse(path)
                .unwrap()
                .evaluate_naive(svc.document())
                .into_iter()
                .map(|c| c.get())
                .collect();
            assert_eq!(got.codes, want, "{path} raw={raw}");
            assert!(!got.algorithms.is_empty(), "{path}");
        }
    }

    #[test]
    fn raw_and_sorted_hints_pick_different_planner_rows() {
        let svc = tiny();
        let sorted = svc.execute("//item//keyword", false, None).unwrap();
        let raw = svc.execute("//item//keyword", true, None).unwrap();
        assert_eq!(sorted.algorithms, vec![Algorithm::StackTree]);
        assert!(
            !raw.algorithms.contains(&Algorithm::StackTree),
            "{:?}",
            raw.algorithms
        );
        assert_eq!(sorted.codes, raw.codes);
        // The raw row picks SHCJ exactly where a step's ancestors share one
        // height, counted here by the in-memory evaluator, not the
        // catalog: corpus tags, an owned intermediate, a predicate step.
        let doc = svc.document();
        for (q, want) in [
            ("//person//creditcard", vec![Algorithm::Shcj]),
            ("//item//keyword", vec![Algorithm::Vpj]),
            ("//site//open_auction//bidder", vec![Algorithm::Shcj; 2]),
            ("//person[name=p]//emailaddress", vec![Algorithm::Shcj]),
        ] {
            let path = DescendantPath::parse(q).unwrap();
            let by_heights: Vec<Algorithm> = (1..path.steps.len())
                .map(|i| {
                    let steps = path.steps[..i].to_vec();
                    let ancestors = DescendantPath { steps }.evaluate_naive(doc);
                    let h = ancestors[0].height();
                    if ancestors.iter().all(|c| c.height() == h) {
                        Algorithm::Shcj
                    } else {
                        Algorithm::Vpj
                    }
                })
                .collect();
            assert_eq!(by_heights, want, "{q}: ancestor heights");
            assert_eq!(svc.execute(q, true, None).unwrap().algorithms, want, "{q}");
        }
    }

    #[test]
    fn single_step_and_unknown_tags() {
        let svc = tiny();
        let people = svc.execute("//person", false, None).unwrap();
        assert_eq!(
            people.codes.len(),
            svc.document().element_set("person").len()
        );
        assert!(people.algorithms.is_empty());
        let none = svc.execute("//no_such_tag//person", false, None).unwrap();
        assert!(none.codes.is_empty());
    }

    #[test]
    fn oversized_budget_is_refused() {
        let svc = tiny();
        let err = svc.execute("//person//creditcard", false, Some(10_000));
        assert!(matches!(
            err,
            Err(ServiceError::Admission(AdmissionError::TooLarge { .. }))
        ));
    }

    #[test]
    fn queries_leave_no_files_behind() {
        // Multi-step chains materialize intermediates and predicate steps
        // extract private inputs; none may outlive its query, whether the
        // query succeeds, drains to empty mid-chain, or is refused.
        let svc = tiny();
        let before = svc.pool().live_files();
        let paths = [
            "//site//open_auction//bidder",
            "//person[name=p]//emailaddress",
            "//site//person[name=p]//emailaddress",
            "//site//people//person//emailaddress",
            "//site//no_such_tag//bidder",
            "//person[name=nobody]//emailaddress",
            "//site//person[name=nobody]//emailaddress",
        ];
        let mut errors = 0;
        for round in 0..50 {
            let path = paths[round % paths.len()];
            let raw = round % 2 == 1;
            svc.execute(path, raw, None).unwrap();
            errors += svc.execute(path, raw, Some(10_000)).is_err() as usize;
            errors += svc.execute("//person[name", raw, None).is_err() as usize;
            let batch = [path.to_string(), "//[".to_string(), paths[0].to_string()];
            let outcomes = svc.execute_batch(&batch, raw, None).unwrap();
            errors += outcomes.iter().filter(|o| o.is_err()).count();
            assert_eq!(svc.pool().live_files(), before, "round {round}: {path}");
        }
        assert_eq!(errors, 150, "the erroring queries really errored");
    }

    #[test]
    fn sharded_service_answers_batches_identically() {
        let base = ServiceConfig {
            sf: 0.002,
            buffer_pages: 64,
            reserve_frames: 8,
            default_budget: 32,
            cost: CostModel::free(),
            ..ServiceConfig::default()
        };
        let flat = QueryService::new(base).unwrap();
        let sharded = QueryService::new(ServiceConfig { shards: 4, ..base }).unwrap();
        assert!(sharded.sharded.is_some());
        let paths: Vec<String> = [
            "//person//creditcard",
            "//item//keyword",
            "//person//emailaddress",
            "//open_auction//bidder",
            "//no_such_tag//person",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = flat.execute_batch(&paths, false, None).unwrap();
        let b = sharded.execute_batch(&paths, false, None).unwrap();
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.codes, y.codes, "{}", paths[i]);
        }
        // The known-tag two-step paths took the shared scan on both sides.
        for (i, o) in b.iter().enumerate().take(4) {
            assert_eq!(
                o.as_ref().unwrap().algorithms,
                vec![Algorithm::SharedScan],
                "{}",
                paths[i]
            );
        }
    }

    #[test]
    fn sharded_stats_report_per_shard_counters() {
        let svc = QueryService::new(ServiceConfig {
            sf: 0.002,
            buffer_pages: 64,
            reserve_frames: 8,
            default_budget: 32,
            cost: CostModel::free(),
            shards: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        svc.execute_batch(&["//person//creditcard".to_string()], false, None)
            .unwrap();
        let stats = svc.stats_json();
        assert!(stats.contains("\"shards\":[{"), "{stats}");
        assert_eq!(stats.matches("\"sim_s\"").count(), 2, "{stats}");
        // Unsharded services keep the flat schema.
        assert!(!tiny().stats_json().contains("shards"));
    }

    #[test]
    fn predicate_steps_run_through_the_joins() {
        // Every generated person carries <name>p</name> and an
        // emailaddress, so the predicate step is guaranteed non-empty.
        let svc = tiny();
        let q = "//person[name=p]//emailaddress";
        let got = svc.execute(q, false, None).unwrap();
        let want: Vec<u64> = DescendantPath::parse(q)
            .unwrap()
            .evaluate_naive(svc.document())
            .into_iter()
            .map(|c| c.get())
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got.codes, want);
    }
}
