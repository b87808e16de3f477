//! Span-based phase instrumentation for join operators.
//!
//! The paper's evaluation attributes elapsed time to the *phases* of each
//! algorithm — partitioning, sorting, building, probing, merging — not just
//! to whole runs. This module adds that attribution without any external
//! dependency: operators wrap their phases in [`JoinCtx::phase`] /
//! [`JoinCtx::phase_counted`], every run returns its phase breakdown in
//! [`JoinStats::phases`], and a [`Tracer`], when one is attached, records
//! each run, phase and task (the task loop behind MHCJ, VPJ and sharded
//! joins) as a [`SpanRecord`].
//!
//! # Span model
//!
//! Three kinds of span, all flat records tied together by a run id:
//!
//! * **run** — one operator invocation ([`JoinCtx::measure_op`]). Carries
//!   the operator name, its total I/O / pool / CPU deltas, and the id of
//!   the enclosing run when one `measure_op` runs inside another (no
//!   operator runs another as a sub-operator: VPJ's fallback runs
//!   MHCJ+Rollup's body inside its own `fallback` phase).
//! * **phase** — a named section of a run. Phases recorded directly under
//!   the run (not inside a task, not nested in another phase) are
//!   **tiled**: they are consecutive intervals of the run, and
//!   `measure_op` closes the run with a synthetic `"other"` phase holding
//!   the remainder, so the per-phase I/O deltas of a run's tiled phases
//!   sum *exactly* to the run's total I/O delta, because all snapshots
//!   diff the same monotone counters on the run's thread.
//! * **task** — one task of an operator's task loop (`for_each_task`):
//!   an MHCJ height partition, a Rollup anchor, a VPJ group or
//!   recursion, one shard of a sharded join. Carries the task's CPU time and the pairs it emitted.
//!   Tasks run inside their operator's `probe` phase, so task spans are
//!   never tiled and never enter a [`JoinStats`] phase breakdown; they
//!   break that phase down per task. A task loop nested inside a task
//!   (VPJ's recursion) records no spans of its own: its work is part of
//!   the enclosing task's span.
//!
//! # Overhead
//!
//! Every run, phase and task costs two counter snapshots (a handful of
//! relaxed atomic loads) and one `Instant` read pair, traced or not: the
//! breakdown is measured on every run. Only a tracer takes a mutex: once
//! per run for its id and one short push per span. A context without one
//! records nothing: [`spans_recorded`] stays at zero, which the bench
//! harness asserts.
//!
//! # JSONL schema (version 1)
//!
//! [`Tracer::write_jsonl`] emits one JSON object per line, spans in close
//! order (a run's phases and tasks precede the run record itself). Every
//! line carries the same keys in the same order:
//!
//! ```json
//! {"v":1,"kind":"phase","seq":0,"run":1,"parent":null,"task":null,
//!  "tiled":true,"name":"partition","pairs":0,"false_hits":0,
//!  "cpu_ns":12345,"io":{"seq_reads":8,"rand_reads":1,"seq_writes":0,
//!  "rand_writes":0,"sim_ns":1800000},
//!  "pool":{"hits":3,"misses":9,"skipped":0,"filtered":0,
//!  "packed":0,"packed_pre":0,"packed_post":0,"decodes":0}}
//! ```
//!
//! `parent` is the enclosing run id (runs only), `task` the partition task
//! index (task spans and phases recorded inside one). The schema is
//! append-only: consumers must ignore unknown keys, and `v` is bumped on
//! any incompatible change.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pbitree_storage::{IoStats, PoolStats};

use crate::context::{JoinCtx, JoinError, JoinStats, PhaseStat};

/// Version stamped into every JSONL line as `"v"`.
pub const SCHEMA_VERSION: u32 = 1;

/// Process-wide count of spans ever recorded, across all tracers. The
/// disabled-overhead check: a process that never attaches a tracer must
/// observe zero here no matter how many joins it runs.
static SPANS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// The process-wide count of spans ever recorded (see
/// `SPANS_RECORDED` above).
pub fn spans_recorded() -> u64 {
    SPANS_RECORDED.load(Ordering::Relaxed)
}

/// What a [`SpanRecord`] describes. See the module docs for the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One operator invocation.
    Run,
    /// A named section of a run.
    Phase,
    /// One task of an operator's task loop.
    Task,
}

impl SpanKind {
    /// The `"kind"` string in the JSONL schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Phase => "phase",
            SpanKind::Task => "task",
        }
    }
}

/// One recorded span. Field meanings per kind are in the module docs.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Record sequence number (close order), unique within a tracer.
    pub seq: u64,
    /// What this span describes.
    pub kind: SpanKind,
    /// The run this span belongs to (its own id for `Run` spans).
    pub run: u64,
    /// Enclosing run id, for nested `Run` spans.
    pub parent: Option<u64>,
    /// Partition task index, for `Task` spans and phases inside a task.
    pub task: Option<u64>,
    /// Whether this phase participates in its run's exact phase tiling.
    pub tiled: bool,
    /// Operator name (`Run`), phase name (`Phase`), `"task"` (`Task`).
    pub name: &'static str,
    /// Pairs emitted within the span, where the caller reported them.
    pub pairs: u64,
    /// Rollup false hits counted within the span.
    pub false_hits: u64,
    /// Wall-clock nanoseconds of the span on its recording thread.
    pub cpu_ns: u64,
    /// Disk-transfer delta over the span (global counters).
    pub io: IoStats,
    /// Pool hit/miss delta over the span — "pages touched" through the
    /// pool, including hits that cost no transfer.
    pub pool: PoolStats,
}

impl SpanRecord {
    /// Renders the span as one schema-v1 JSON line (no trailing newline).
    /// Names are compile-time identifiers, so no string escaping is
    /// needed.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |x| x.to_string())
        }
        let mut s = String::with_capacity(256);
        write!(
            s,
            "{{\"v\":{},\"kind\":\"{}\",\"seq\":{},\"run\":{},\"parent\":{},\"task\":{},\
             \"tiled\":{},\"name\":\"{}\",\"pairs\":{},\"false_hits\":{},\"cpu_ns\":{},\
             \"io\":{{\"seq_reads\":{},\"rand_reads\":{},\"seq_writes\":{},\"rand_writes\":{},\
             \"sim_ns\":{}}},\"pool\":{{\"hits\":{},\"misses\":{},\"skipped\":{},\
             \"filtered\":{},\"packed\":{},\"packed_pre\":{},\"packed_post\":{},\
             \"decodes\":{}}}}}",
            SCHEMA_VERSION,
            self.kind.as_str(),
            self.seq,
            self.run,
            opt(self.parent),
            opt(self.task),
            self.tiled,
            self.name,
            self.pairs,
            self.false_hits,
            self.cpu_ns,
            self.io.seq_reads,
            self.io.rand_reads,
            self.io.seq_writes,
            self.io.rand_writes,
            self.io.sim_ns,
            self.pool.hits,
            self.pool.misses,
            self.pool.pages_skipped,
            self.pool.records_filtered,
            self.pool.pages_packed,
            self.pool.packed_pre_bytes,
            self.pool.packed_post_bytes,
            self.pool.packed_decodes,
        )
        .expect("writing to a String cannot fail");
        s
    }
}

#[derive(Default)]
struct State {
    next_run: u64,
    spans: Vec<SpanRecord>,
}

/// Collects spans from every context it is attached to (via
/// [`JoinCtx::with_tracer`]). Thread-safe; share it with `Arc`.
#[derive(Default)]
pub struct Tracer {
    state: Mutex<State>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Allocates a fresh run id (1-based).
    fn begin_run(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.next_run += 1;
        st.next_run
    }

    /// Number of spans recorded so far (also the next `seq`).
    pub fn span_count(&self) -> usize {
        self.state.lock().unwrap().spans.len()
    }

    fn record(&self, mut span: SpanRecord) {
        let mut st = self.state.lock().unwrap();
        span.seq = st.spans.len() as u64;
        st.spans.push(span);
        SPANS_RECORDED.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.lock().unwrap().spans.clone()
    }

    /// Writes every span as one JSON line. See the module docs for the
    /// schema.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let st = self.state.lock().unwrap();
        for s in &st.spans {
            writeln!(w, "{}", s.to_json())?;
        }
        Ok(())
    }

    /// Writes the JSONL trace to `path`, creating or truncating it.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut f)?;
        f.flush()
    }
}

/// Adds `s`'s counts, clock and deltas into `into` (names untouched).
fn absorb(into: &mut PhaseStat, s: &PhaseStat) {
    into.pairs += s.pairs;
    into.false_hits += s.false_hits;
    into.cpu_ns += s.cpu_ns;
    into.io.seq_reads += s.io.seq_reads;
    into.io.rand_reads += s.io.rand_reads;
    into.io.seq_writes += s.io.seq_writes;
    into.io.rand_writes += s.io.rand_writes;
    into.io.sim_ns += s.io.sim_ns;
    into.pool.absorb(&s.pool);
}

/// One level of the per-thread run/task nesting.
struct Frame {
    /// The run's tracer id; 0 on an untraced context, where no span
    /// carries it.
    run: u64,
    task: Option<u64>,
    /// Open phases on this frame; a phase inside a phase is untiled.
    phase_depth: u32,
    /// The frame's tiled phases so far, by name in first-appearance
    /// order: the run's breakdown before its `"other"` remainder.
    tiled: Vec<PhaseStat>,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The run the current thread is inside, if any.
fn current_run() -> Option<u64> {
    FRAMES.with(|f| f.borrow().last().map(|fr| fr.run))
}

/// The run a task loop attaches its task spans to: the current run,
/// unless the loop itself runs inside a task (a nested loop is part of
/// that task's span).
fn task_parent() -> Option<u64> {
    FRAMES.with(|f| {
        let frames = f.borrow();
        frames
            .last()
            .filter(|fr| fr.task.is_none())
            .map(|fr| fr.run)
    })
}

/// Runs `f` inside a new innermost frame and returns its output with the
/// tiled phases recorded directly under that frame.
fn in_frame<T>(run: u64, task: Option<u64>, f: impl FnOnce() -> T) -> (T, Vec<PhaseStat>) {
    FRAMES.with(|fr| {
        fr.borrow_mut().push(Frame {
            run,
            task,
            phase_depth: 0,
            tiled: Vec::new(),
        })
    });
    let out = f();
    let frame = FRAMES.with(|fr| fr.borrow_mut().pop().expect("unbalanced trace frame pop"));
    (out, frame.tiled)
}

/// Enters a phase on the innermost frame: returns `(run, task)`, or
/// `None` when the thread is outside any run.
fn enter_phase() -> Option<(u64, Option<u64>)> {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let fr = frames.last_mut()?;
        fr.phase_depth += 1;
        Some((fr.run, fr.task))
    })
}

/// Leaves the innermost frame's open phase `stat`. A top-level phase
/// outside any task tiles the run: it is folded into the frame's
/// breakdown by name. Returns whether it was.
fn exit_phase(stat: &PhaseStat) -> bool {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let fr = frames.last_mut().expect("phase exit outside any frame");
        fr.phase_depth -= 1;
        let tiled = fr.task.is_none() && fr.phase_depth == 0;
        if tiled {
            match fr.tiled.iter_mut().find(|p| p.name == stat.name) {
                Some(p) => absorb(p, stat),
                None => fr.tiled.push(stat.clone()),
            }
        }
        tiled
    })
}

/// Runs `f`, measuring the stats delta and wall-clock it takes on this
/// thread into a [`PhaseStat`] named `name` (counts left at 0).
fn timed<T>(ctx: &JoinCtx, name: &'static str, f: impl FnOnce() -> T) -> (T, PhaseStat) {
    let before = ctx.pool.stats_snapshot();
    let t0 = Instant::now();
    let out = f();
    let cpu_ns = t0.elapsed().as_nanos() as u64;
    let delta = ctx.pool.stats_snapshot().since(&before);
    let stat = PhaseStat {
        name,
        cpu_ns,
        io: delta.io,
        pool: delta.pool,
        ..PhaseStat::default()
    };
    (out, stat)
}

/// A fresh run id from `ctx`'s tracer (1-based per tracer), or 0.
fn run_id(ctx: &JoinCtx) -> u64 {
    ctx.tracer().map_or(0, |t| t.begin_run())
}

/// Passes one measured span to `ctx`'s tracer, when one is attached —
/// the only step a traced run adds to an untraced one.
fn record(
    ctx: &JoinCtx,
    kind: SpanKind,
    (run, task): (u64, Option<u64>),
    parent: Option<u64>,
    tiled: bool,
    s: &PhaseStat,
) {
    if let Some(tracer) = ctx.tracer() {
        tracer.record(SpanRecord {
            seq: 0,
            kind,
            run,
            parent,
            task,
            tiled,
            name: s.name,
            pairs: s.pairs,
            false_hits: s.false_hits,
            cpu_ns: s.cpu_ns,
            io: s.io,
            pool: s.pool,
        });
    }
}

impl JoinCtx {
    /// Runs `op` as a named operator run: measures its I/O delta and
    /// wall time into a [`JoinStats`] (the pairs and false hits are the
    /// operator's), collects the tiled phases recorded inside into
    /// [`JoinStats::phases`], and adds a synthetic `"other"` phase for
    /// whatever the named phases did not cover, so the breakdown tiles
    /// the run exactly. An attached tracer records the run and its
    /// phases as spans.
    ///
    /// `cpu_ns` of the result is the wall-clock of this call. The
    /// operator's tasks run inside that interval; their task spans break
    /// it down and are never added to it.
    pub fn measure_op<F>(&self, op: &'static str, body: F) -> Result<JoinStats, JoinError>
    where
        F: FnOnce() -> Result<(u64, u64), JoinError>,
    {
        let run = run_id(self);
        let parent = current_run();
        let ((result, mut total), mut phases) = in_frame(run, None, || timed(self, op, body));
        (total.pairs, total.false_hits) = result?;
        if !phases.is_empty() {
            // Tiled phases are disjoint sub-intervals of the run on this
            // thread and all counters are monotone, so each remainder is
            // non-negative and `since` cannot underflow.
            let mut covered = PhaseStat::default();
            for p in &phases {
                absorb(&mut covered, p);
            }
            let other = PhaseStat {
                name: "other",
                cpu_ns: total.cpu_ns.saturating_sub(covered.cpu_ns),
                io: total.io.since(&covered.io),
                pool: total.pool.since(&covered.pool),
                ..PhaseStat::default()
            };
            record(self, SpanKind::Phase, (run, None), None, true, &other);
            phases.push(other);
        }
        record(self, SpanKind::Run, (run, None), parent, false, &total);
        Ok(JoinStats {
            pairs: total.pairs,
            false_hits: total.false_hits,
            io: total.io,
            cpu_ns: total.cpu_ns,
            phases,
        })
    }

    /// Wraps a section of the current run in a named phase, measured on
    /// every run. Outside any run this is exactly `f()`.
    pub fn phase<T, F>(&self, name: &'static str, f: F) -> Result<T, JoinError>
    where
        F: FnOnce() -> Result<T, JoinError>,
    {
        self.phase_impl(name, f, |_| (0, 0))
    }

    /// [`phase`](JoinCtx::phase) for sections that produce `(pairs,
    /// false_hits)`, recording both counts on the phase.
    pub fn phase_counted<F>(&self, name: &'static str, f: F) -> Result<(u64, u64), JoinError>
    where
        F: FnOnce() -> Result<(u64, u64), JoinError>,
    {
        self.phase_impl(name, f, |&(pairs, false_hits)| (pairs, false_hits))
    }

    fn phase_impl<T, F, P>(&self, name: &'static str, f: F, counts: P) -> Result<T, JoinError>
    where
        F: FnOnce() -> Result<T, JoinError>,
        P: FnOnce(&T) -> (u64, u64),
    {
        let Some(frame) = enter_phase() else {
            return f();
        };
        let (out, mut stat) = timed(self, name, f);
        (stat.pairs, stat.false_hits) = out.as_ref().ok().map(counts).unwrap_or((0, 0));
        let tiled = exit_phase(&stat);
        record(self, SpanKind::Phase, frame, None, tiled, &stat);
        out
    }
}

/// Runs `tasks` in index order on the calling thread: each runs
/// `run(ctx, task)` under its task span, emits into whatever sink `run`
/// captured, and returns the pairs it emitted. The first error stops the
/// loop and is returned; tasks before it have delivered their pairs, and
/// the tasks after it are dropped (with their files) unrun. MHCJ's height
/// partitions, Rollup's anchors, VPJ's groups and a sharded store's
/// shards all run here.
pub(crate) fn for_each_task<'c, T>(
    tasks: impl IntoIterator<Item = (&'c JoinCtx, T)>,
    mut run: impl FnMut(&'c JoinCtx, T) -> Result<u64, JoinError>,
) -> Result<(), JoinError> {
    let parent = task_parent();
    for (i, (ctx, task)) in tasks.into_iter().enumerate() {
        in_task(ctx, parent, i as u64, || run(ctx, task))?;
    }
    Ok(())
}

/// Runs one task body in its own frame under `parent` (see
/// [`task_parent`]), so phases inside the task never tile the run, and
/// measures it as a task span with the pair count the body returned.
/// With no parent run (a sharded store's shard loop) this is exactly
/// `f()`.
fn in_task(
    ctx: &JoinCtx,
    parent: Option<u64>,
    task: u64,
    f: impl FnOnce() -> Result<u64, JoinError>,
) -> Result<u64, JoinError> {
    let Some(run) = parent else {
        return f();
    };
    let ((out, mut stat), _) = in_frame(run, Some(task), || timed(ctx, "task", f));
    stat.pairs = *out.as_ref().unwrap_or(&0);
    record(ctx, SpanKind::Task, (run, Some(task)), None, false, &stat);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbitree_core::PBiTreeShape;
    use std::sync::Arc;

    #[test]
    fn span_json_shape() {
        let s = SpanRecord {
            seq: 7,
            kind: SpanKind::Phase,
            run: 2,
            parent: None,
            task: Some(3),
            tiled: false,
            name: "probe",
            pairs: 11,
            false_hits: 1,
            cpu_ns: 99,
            io: IoStats::default(),
            pool: PoolStats {
                hits: 5,
                misses: 2,
                pages_skipped: 4,
                records_filtered: 17,
                pages_packed: 3,
                packed_pre_bytes: 4092,
                packed_post_bytes: 1300,
                packed_decodes: 6,
            },
        };
        let j = s.to_json();
        assert!(j.starts_with("{\"v\":1,\"kind\":\"phase\",\"seq\":7,"));
        assert!(j.contains("\"task\":3"));
        assert!(j.contains("\"parent\":null"));
        assert!(j.contains(
            "\"pool\":{\"hits\":5,\"misses\":2,\"skipped\":4,\"filtered\":17,\
             \"packed\":3,\"packed_pre\":4092,\"packed_post\":1300,\"decodes\":6}"
        ));
    }

    /// The breakdown needs no tracer. That an untraced run records no
    /// span is `tests/untraced_spans.rs`'s check: the span counter is
    /// process-global, and this binary's traced tests run beside this one.
    #[test]
    fn untraced_context_reports_phases() {
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8);
        let stats = ctx
            .measure_op("noop", || {
                ctx.phase("a", || Ok(()))?;
                Ok((1, 0))
            })
            .unwrap();
        let names: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["a", "other"]);
        assert_eq!(stats.pairs, 1);
    }

    /// A phase entered twice is one breakdown entry, at its first place,
    /// holding both sections' counts.
    #[test]
    fn repeated_phases_fold_by_name() {
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8);
        let stats = ctx
            .measure_op("demo", || {
                let a = ctx.phase_counted("a", || Ok((2, 1)))?;
                ctx.phase("b", || Ok(()))?;
                let b = ctx.phase_counted("a", || Ok((3, 0)))?;
                Ok((a.0 + b.0, a.1 + b.1))
            })
            .unwrap();
        let names: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["a", "b", "other"]);
        assert_eq!((stats.phases[0].pairs, stats.phases[0].false_hits), (5, 1));
    }

    #[test]
    fn phases_tile_the_run() {
        let tracer = Arc::new(Tracer::new());
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8)
            .with_tracer(Arc::clone(&tracer));
        let stats = ctx
            .measure_op("demo", || {
                let f = ctx.phase("write", || {
                    Ok(crate::element::element_file(
                        &ctx.pool,
                        (1u64..=5000).map(|c| (c, 0)),
                    )?)
                })?;
                let n = ctx.phase("read", || {
                    let mut n = 0u64;
                    let mut s = f.scan(&ctx.pool);
                    while s.next_record()?.is_some() {
                        n += 1;
                    }
                    Ok(n)
                })?;
                Ok((n, 0))
            })
            .unwrap();
        assert_eq!(stats.pairs, 5000);
        let names: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["write", "read", "other"]);
        let mut sum = PhaseStat::default();
        for p in &stats.phases {
            absorb(&mut sum, p);
        }
        assert_eq!(sum.io, stats.io);
        let run = tracer
            .spans()
            .into_iter()
            .find(|s| s.kind == SpanKind::Run)
            .unwrap();
        assert_eq!(run.name, "demo");
        assert_eq!(run.cpu_ns, stats.cpu_ns);
    }

    #[test]
    fn nested_runs_attach_to_parent() {
        let tracer = Arc::new(Tracer::new());
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8)
            .with_tracer(Arc::clone(&tracer));
        ctx.measure_op("outer", || {
            let inner = ctx.measure_op("inner", || Ok((3, 0)))?;
            Ok((inner.pairs, 0))
        })
        .unwrap();
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.run));
        assert_ne!(inner.run, outer.run);
    }

    /// The degenerate schedules are inputs of the same loop: 0 tasks, 1
    /// task, several, and an error mid-list — one delivered-prefix rule.
    #[test]
    fn every_schedule_delivers_the_same_ordered_prefix() {
        use crate::element::Element;
        use crate::sink::{CollectSink, PairSink};
        let c = JoinCtx::in_memory_free(PBiTreeShape::new(12).unwrap(), 16);
        // Runs `n` tasks that each emit their index; tasks at `fail_from`
        // and beyond fail with their index. Returns the emitted indices,
        // how many task bodies ran, and the loop's result.
        let schedule = |n: u64, fail_from: u64| {
            let mut sink = CollectSink::default();
            let mut ran = 0u64;
            let res = for_each_task((0..n).map(|i| (&c, i)), |_, i| {
                ran += 1;
                if i >= fail_from {
                    return Err(JoinError::NotSingleHeight {
                        expected: 0,
                        found: i as u32,
                    });
                }
                sink.emit(Element::new(2 * i + 16, 0), Element::new(1, 1));
                Ok(1)
            });
            let emitted = sink.pairs.iter().map(|(a, _)| (a.code.get() - 16) / 2);
            (emitted.collect::<Vec<_>>(), ran, res)
        };
        for n in [0u64, 1, 3, 8] {
            let (emitted, ran, res) = schedule(n, u64::MAX);
            assert_eq!(res, Ok(()), "n={n}");
            assert_eq!(emitted, (0..n).collect::<Vec<_>>(), "n={n}: sink order");
            assert_eq!(ran, n);
        }
        // Tasks 3.. fail: 0..3 are delivered, task 3's error is returned,
        // and the tasks after it never run.
        let (emitted, ran, res) = schedule(6, 3);
        assert_eq!(emitted, [0, 1, 2]);
        assert_eq!(ran, 4);
        assert_eq!(
            res,
            Err(JoinError::NotSingleHeight {
                expected: 0,
                found: 3
            })
        );
    }

    #[test]
    fn nested_phase_is_untiled() {
        let tracer = Arc::new(Tracer::new());
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8)
            .with_tracer(Arc::clone(&tracer));
        let stats = ctx
            .measure_op("demo", || {
                ctx.phase("outer", || {
                    ctx.phase("inner", || Ok(()))?;
                    Ok(())
                })?;
                Ok((0, 0))
            })
            .unwrap();
        let names: Vec<_> = stats.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["outer", "other"]);
        let inner = tracer
            .spans()
            .into_iter()
            .find(|s| s.name == "inner")
            .unwrap();
        assert!(!inner.tiled);
    }
}
