//! Span-based phase instrumentation for join operators.
//!
//! The paper's evaluation attributes elapsed time to the *phases* of each
//! algorithm — partitioning, sorting, building, probing, merging — not just
//! to whole runs. This module adds that attribution without any external
//! dependency: a [`Tracer`] collects [`SpanRecord`]s, operators wrap their
//! phases in [`JoinCtx::phase`] / [`JoinCtx::phase_counted`], and the task
//! loop behind MHCJ, VPJ and sharded joins records one span per task.
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
//! A context without a tracer takes one `Option` check per instrumentation
//! point and records nothing — [`spans_recorded`] stays at zero, which the
//! bench harness asserts. With a tracer attached, each span costs two
//! counter snapshots (a handful of relaxed atomic loads), one `Instant`
//! read pair, and one short mutex push.
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

use pbitree_storage::{IoStats, PoolStats, StatsSnapshot};

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

    /// The tiled phases of `run` recorded at index `from` onward,
    /// aggregated by name in first-appearance order.
    fn tiled_phases(&self, run: u64, from: usize) -> Vec<PhaseStat> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<PhaseStat> = Vec::new();
        for s in &st.spans[from..] {
            if s.run != run || s.kind != SpanKind::Phase || !s.tiled {
                continue;
            }
            match out.iter_mut().find(|p| p.name == s.name) {
                Some(p) => {
                    p.pairs += s.pairs;
                    p.false_hits += s.false_hits;
                    p.cpu_ns += s.cpu_ns;
                    p.io = add_io(&p.io, &s.io);
                    p.pool.absorb(&s.pool);
                }
                None => out.push(PhaseStat {
                    name: s.name,
                    pairs: s.pairs,
                    false_hits: s.false_hits,
                    cpu_ns: s.cpu_ns,
                    io: s.io,
                    pool: s.pool,
                }),
            }
        }
        out
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

fn add_io(a: &IoStats, b: &IoStats) -> IoStats {
    IoStats {
        seq_reads: a.seq_reads + b.seq_reads,
        rand_reads: a.rand_reads + b.rand_reads,
        seq_writes: a.seq_writes + b.seq_writes,
        rand_writes: a.rand_writes + b.rand_writes,
        sim_ns: a.sim_ns + b.sim_ns,
    }
}

/// One level of the per-thread run/task nesting.
struct Frame {
    run: u64,
    task: Option<u64>,
    /// Open phases on this frame; a phase inside a phase records untiled.
    phase_depth: u32,
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

fn push_frame(run: u64, task: Option<u64>) {
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            run,
            task,
            phase_depth: 0,
        })
    });
}

fn pop_frame() {
    FRAMES.with(|f| {
        f.borrow_mut().pop().expect("unbalanced trace frame pop");
    });
}

/// Enters a phase on the innermost frame: returns `(run, task, was_depth)`
/// or `None` when the thread is outside any run.
fn enter_phase() -> Option<(u64, Option<u64>, u32)> {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let fr = frames.last_mut()?;
        let depth = fr.phase_depth;
        fr.phase_depth += 1;
        Some((fr.run, fr.task, depth))
    })
}

fn exit_phase() {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let fr = frames.last_mut().expect("phase exit outside any frame");
        fr.phase_depth -= 1;
    });
}

impl JoinCtx {
    /// Runs `op` as a named operator span: like [`JoinCtx::measure`], plus
    /// — when a tracer is attached — a run record, collection of the tiled
    /// phases recorded inside into [`JoinStats::phases`], and a synthetic
    /// `"other"` phase for whatever the named phases did not cover, so the
    /// breakdown tiles the run exactly.
    ///
    /// `cpu_ns` of the result is the wall-clock of this call. The
    /// operator's tasks run inside that interval; their task spans break
    /// it down and are never added to it.
    pub fn measure_op<F>(&self, op: &'static str, body: F) -> Result<JoinStats, JoinError>
    where
        F: FnOnce() -> Result<(u64, u64), JoinError>,
    {
        let Some(tracer) = self.tracer() else {
            // Untraced fast path: identical to the historical `measure`.
            let io_before = self.pool.io_stats();
            let t0 = Instant::now();
            let (pairs, false_hits) = body()?;
            let cpu_ns = t0.elapsed().as_nanos() as u64;
            let io = self.pool.io_stats().since(&io_before);
            return Ok(JoinStats {
                pairs,
                false_hits,
                io,
                cpu_ns,
                phases: Vec::new(),
            });
        };
        let run = tracer.begin_run();
        let parent = current_run();
        let from = tracer.span_count();
        push_frame(run, None);
        let before = self.pool.stats_snapshot();
        let t0 = Instant::now();
        let result = body();
        let cpu_ns = t0.elapsed().as_nanos() as u64;
        let delta = self.pool.stats_snapshot().since(&before);
        pop_frame();
        let (pairs, false_hits) = result?;
        let mut phases = tracer.tiled_phases(run, from);
        if !phases.is_empty() {
            // Tiled phases are disjoint sub-intervals of [t0, now] on this
            // thread and all counters are monotone, so each remainder is
            // non-negative and `since` cannot underflow.
            let mut covered = StatsSnapshot::default();
            let mut covered_cpu = 0u64;
            for p in &phases {
                covered.io = add_io(&covered.io, &p.io);
                covered.pool.absorb(&p.pool);
                covered_cpu += p.cpu_ns;
            }
            let rest = delta.since(&covered);
            let other = PhaseStat {
                name: "other",
                pairs: 0,
                false_hits: 0,
                cpu_ns: cpu_ns.saturating_sub(covered_cpu),
                io: rest.io,
                pool: rest.pool,
            };
            tracer.record(SpanRecord {
                seq: 0,
                kind: SpanKind::Phase,
                run,
                parent: None,
                task: None,
                tiled: true,
                name: other.name,
                pairs: other.pairs,
                false_hits: other.false_hits,
                cpu_ns: other.cpu_ns,
                io: other.io,
                pool: other.pool,
            });
            phases.push(other);
        }
        tracer.record(SpanRecord {
            seq: 0,
            kind: SpanKind::Run,
            run,
            parent,
            task: None,
            tiled: false,
            name: op,
            pairs,
            false_hits,
            cpu_ns,
            io: delta.io,
            pool: delta.pool,
        });
        Ok(JoinStats {
            pairs,
            false_hits,
            io: delta.io,
            cpu_ns,
            phases,
        })
    }

    /// Wraps a section of the current run in a named phase span. Without a
    /// tracer (or outside any run) this is exactly `f()`.
    pub fn phase<T, F>(&self, name: &'static str, f: F) -> Result<T, JoinError>
    where
        F: FnOnce() -> Result<T, JoinError>,
    {
        self.phase_impl(name, f, |_| (0, 0))
    }

    /// [`phase`](JoinCtx::phase) for sections that produce `(pairs,
    /// false_hits)`, recording both counts on the span.
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
        let Some(tracer) = self.tracer() else {
            return f();
        };
        let Some((run, task, depth)) = enter_phase() else {
            return f();
        };
        let before = self.pool.stats_snapshot();
        let t0 = Instant::now();
        let out = f();
        let cpu_ns = t0.elapsed().as_nanos() as u64;
        let delta = self.pool.stats_snapshot().since(&before);
        exit_phase();
        let (pairs, false_hits) = out.as_ref().ok().map(counts).unwrap_or((0, 0));
        tracer.record(SpanRecord {
            seq: 0,
            kind: SpanKind::Phase,
            run,
            parent: None,
            task,
            // Only top-level phases outside any task tile the run; see
            // the module docs.
            tiled: task.is_none() && depth == 0,
            name,
            pairs,
            false_hits,
            cpu_ns,
            io: delta.io,
            pool: delta.pool,
        });
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

/// Runs one task body under a task span attached to `parent` (see
/// [`task_parent`]). Establishes the frame so spans recorded inside the
/// task nest correctly, then records the task span with its time and the
/// pair count the body returned. Untraced (or with no parent run) this is
/// exactly `f()`.
fn in_task(
    ctx: &JoinCtx,
    parent: Option<u64>,
    task: u64,
    f: impl FnOnce() -> Result<u64, JoinError>,
) -> Result<u64, JoinError> {
    let (Some(tracer), Some(run)) = (ctx.tracer(), parent) else {
        return f();
    };
    push_frame(run, Some(task));
    let before = ctx.pool.stats_snapshot();
    let t0 = Instant::now();
    let out = f();
    let cpu_ns = t0.elapsed().as_nanos() as u64;
    let delta = ctx.pool.stats_snapshot().since(&before);
    pop_frame();
    tracer.record(SpanRecord {
        seq: 0,
        kind: SpanKind::Task,
        run,
        parent: None,
        task: Some(task),
        tiled: false,
        name: "task",
        pairs: *out.as_ref().unwrap_or(&0),
        false_hits: 0,
        cpu_ns,
        io: delta.io,
        pool: delta.pool,
    });
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

    #[test]
    fn untraced_context_records_nothing() {
        let ctx = JoinCtx::in_memory_free(PBiTreeShape::new(10).unwrap(), 8);
        let stats = ctx
            .measure_op("noop", || {
                ctx.phase("a", || Ok(()))?;
                Ok((1, 0))
            })
            .unwrap();
        assert!(stats.phases.is_empty());
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
        let mut sum = IoStats::default();
        for p in &stats.phases {
            sum = add_io(&sum, &p.io);
        }
        assert_eq!(sum, stats.io);
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
