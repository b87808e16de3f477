//! The fork-join scheduler: one primitive, `fork_join`, runs a list of
//! independent tasks and merges their output deterministically.
//!
//! MHCJ's height partitions (`A_{h_i} ⊲ D` for each height `h_i`), VPJ's
//! vertical groups and a sharded store's per-shard joins are unions of
//! independent sub-joins: tasks only *read* shared inputs and write their
//! own temporary files, and the pool (see `pbitree-storage`) is
//! thread-safe. A sequential run is the one-worker schedule of the same
//! task list, not a second operator body:
//!
//! * **One worker** (`threads = 1`, or a single task): tasks run in index
//!   order on the calling thread, in the context `ctx_of` names, emitting
//!   **straight into the caller's sink**. No thread, no buffer, no context
//!   clone — the I/O sequence is the plain loop's.
//! * **Several workers**: `min(threads, tasks)` scoped threads claim task
//!   indices from an atomic counter (no channels, no external crates);
//!   every task emits into a private buffer, and the buffers are replayed
//!   into the sink in ascending task order, so the result *sequence* is
//!   independent of thread scheduling and the result *set* equals the
//!   one-worker schedule's (carved budgets may flip per-task strategy
//!   choices, which permutes emission order within a task but never its
//!   pair set).
//! * **Budgets** are the caller's business, through `ctx_of`: tasks that
//!   share one pool run in a `fork_join_carved` view reporting
//!   `max(b / workers, 3)` frames, so hash tables and partition fan-out
//!   are sized against the worker's share and the workers' in-flight pins
//!   stay within `b` (which the pool enforces as a hard bound regardless —
//!   [`PoolError::NoFreeFrames`]); shard tasks each run in their shard's
//!   own context at its full budget.
//!
//! **Errors**, at any worker count: outputs of tasks before the first
//! failing task are delivered, later outputs are discarded, and the first
//! (lowest-index) error is returned. This covers injected device faults
//! ([`PoolError::Io`]) the same as budget exhaustion: a task that hits a
//! fault unwinds via `?`, dropping its page guards and temporary files,
//! and tasks that never ran drop theirs with the task list.
//!
//! [`PoolError::Io`]: pbitree_storage::PoolError::Io
//! [`PoolError::NoFreeFrames`]: pbitree_storage::PoolError::NoFreeFrames

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::context::{JoinCtx, JoinError};
use crate::sink::{CollectSink, PairSink};
use crate::trace::{in_task, task_parent};

/// Runs `tasks` on up to `threads` workers (never more workers than
/// tasks): task `i` executes `run` in context `ctx_of(i)`, its pairs reach
/// `sink` and its result reaches `fold`, both in ascending task order.
/// Returns the lowest-index task error, after delivering everything before
/// it. See the module docs for the one-worker schedule. Panics in task
/// bodies propagate via the thread scope.
pub(crate) fn fork_join<'c, T: Send, R: Send>(
    threads: usize,
    tasks: Vec<T>,
    ctx_of: impl Fn(usize) -> &'c JoinCtx + Sync,
    sink: &mut dyn PairSink,
    run: impl Fn(&JoinCtx, T, &mut dyn PairSink) -> Result<R, JoinError> + Sync,
    mut fold: impl FnMut(R),
) -> Result<(), JoinError> {
    let n = tasks.len();
    let workers = threads.min(n);
    // Thread-locals do not cross into workers: capture the run the task
    // spans attach to here, on the scheduling thread.
    let parent = task_parent();
    if workers <= 1 {
        for (i, task) in tasks.into_iter().enumerate() {
            let wctx = ctx_of(i);
            fold(in_task(wctx, parent, i as u64, sink, |out| {
                run(wctx, task, out)
            })?);
        }
        return Ok(());
    }
    type Slot<R> = Mutex<Option<Result<(CollectSink, R), JoinError>>>;
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i].lock().unwrap().take().expect("task claimed twice");
                let wctx = ctx_of(i);
                let mut buf = CollectSink::default();
                let out = in_task(wctx, parent, i as u64, &mut buf, |out| run(wctx, task, out));
                *results[i].lock().unwrap() = Some(out.map(|r| (buf, r)));
            });
        }
    });
    for slot in results {
        let (buf, r) = slot
            .into_inner()
            .unwrap()
            .expect("every task index was claimed")?;
        for (a, d) in buf.pairs {
            sink.emit(a, d);
        }
        fold(r);
    }
    Ok(())
}

/// [`fork_join`] over tasks that all share `ctx`'s pool: one worker runs
/// them in `ctx` itself; several each get a sequential view of it with the
/// budget carved evenly (floored at 3 frames by [`JoinCtx::worker`]).
pub(crate) fn fork_join_carved<T: Send, R: Send>(
    ctx: &JoinCtx,
    threads: usize,
    tasks: Vec<T>,
    sink: &mut dyn PairSink,
    run: impl Fn(&JoinCtx, T, &mut dyn PairSink) -> Result<R, JoinError> + Sync,
    fold: impl FnMut(R),
) -> Result<(), JoinError> {
    let workers = threads.min(tasks.len());
    let carved = (workers > 1).then(|| ctx.worker(ctx.budget() / workers));
    let wctx = carved.as_ref().unwrap_or(ctx);
    fork_join(threads, tasks, |_| wctx, sink, run, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{element_file, Element};
    use pbitree_core::PBiTreeShape;

    fn ctx(threads: usize) -> JoinCtx {
        crate::JoinCtxBuilder::in_memory_free(PBiTreeShape::new(12).unwrap(), 16)
            .threads(threads)
            .build()
    }

    /// Runs `n` tasks that each emit their index and return it; tasks at
    /// index `fail_from` and beyond fail with their index. Returns what
    /// reached the sink, what reached `fold`, and the call's result.
    fn schedule(
        threads: usize,
        n: u64,
        fail_from: u64,
    ) -> (Vec<u64>, Vec<u64>, Result<(), JoinError>) {
        let c = ctx(threads);
        let mut sink = CollectSink::default();
        let mut folded = Vec::new();
        let res = fork_join_carved(
            &c,
            c.threads,
            (0..n).collect(),
            &mut sink,
            |_wctx, i: u64, out| {
                if i >= fail_from {
                    return Err(JoinError::NotSingleHeight {
                        expected: 0,
                        found: i as u32,
                    });
                }
                out.emit(Element::new(2 * i + 16, 0), Element::new(1, 1));
                Ok(i)
            },
            |i| folded.push(i),
        );
        let emitted = sink.pairs.iter().map(|(a, _)| (a.code.get() - 16) / 2);
        (emitted.collect(), folded, res)
    }

    /// The degenerate schedules are inputs of the same scheduler: 0 tasks,
    /// 1 task, fewer tasks than workers, more tasks than workers, and an
    /// error mid-list — all with one delivered-prefix rule at 1 and 4
    /// workers.
    #[test]
    fn every_schedule_delivers_the_same_ordered_prefix() {
        for threads in [1usize, 4] {
            for n in [0u64, 1, 3, 8] {
                let (emitted, folded, res) = schedule(threads, n, u64::MAX);
                let all: Vec<u64> = (0..n).collect();
                assert_eq!(res, Ok(()), "t={threads} n={n}");
                assert_eq!(emitted, all, "t={threads} n={n}: sink order");
                assert_eq!(folded, all, "t={threads} n={n}: fold order");
            }
            // Tasks 3.. fail: 0..3 are delivered, the lowest error wins.
            let (emitted, folded, res) = schedule(threads, 6, 3);
            assert_eq!(emitted, [0, 1, 2], "t={threads}");
            assert_eq!(folded, [0, 1, 2], "t={threads}");
            assert_eq!(
                res,
                Err(JoinError::NotSingleHeight {
                    expected: 0,
                    found: 3
                }),
                "t={threads}"
            );
        }
    }

    #[test]
    fn budgets_are_carved_only_across_several_workers() {
        let budgets = |threads: usize, n: u32| {
            let c = ctx(threads);
            let mut got = Vec::new();
            fork_join_carved(
                &c,
                c.threads,
                (0..n).collect(),
                &mut CollectSink::default(),
                |wctx, _i: u32, _out| Ok(wctx.budget()),
                |b| got.push(b),
            )
            .unwrap();
            got
        };
        assert_eq!(budgets(4, 4), [4; 4]); // 16 frames / 4 workers
        assert_eq!(budgets(4, 2), [8; 2]); // never more workers than tasks
        assert_eq!(budgets(4, 1), [16]); // one task: the caller's context
        assert_eq!(budgets(1, 4), [16; 4]); // one worker: uncarved
    }

    /// Containment-join bugs hide in empty and single-element partitions:
    /// an empty height partition and a one-element vertical group go
    /// through the scheduler like any other task, at 1 and 4 workers.
    #[test]
    fn empty_and_single_element_partitions_are_ordinary_tasks() {
        use crate::vpj::{execute_task, VpjReport, VpjTask};
        use pbitree_storage::TempFile;
        for threads in [1usize, 4] {
            let c = ctx(threads);
            let d = element_file(&c.pool, (1u64..=63).map(|v| (v, 1))).unwrap();
            // Height partitions of A: one empty, one holding node 16
            // (height 4, region [1, 31]).
            let parts = vec![
                element_file(&c.pool, std::iter::empty()).unwrap(),
                element_file(&c.pool, [(16u64, 0)]).unwrap(),
            ];
            let mut sink = CollectSink::default();
            let mut pairs = 0;
            fork_join_carved(
                &c,
                c.threads,
                parts,
                &mut sink,
                |wctx, part, out| crate::shcj::shcj_inner(wctx, &part, &d, out).map(|(p, _)| p),
                |p| pairs += p,
            )
            .unwrap();
            assert_eq!(pairs, 30, "t={threads}: 16 contains 1..=31 minus itself");
            assert_eq!(sink.pairs.len(), 30);

            // A vertical group of one ancestor and one descendant.
            let temp = |code, tag| {
                let f = element_file(&c.pool, [(code, tag)]).unwrap();
                TempFile::new(&c.pool, f.file_id(), f)
            };
            let live = c.pool.live_files().len();
            let tasks = vec![VpjTask::Group {
                l: 1,
                members: vec![0],
                ga: vec![temp(16, 0)],
                gd: vec![temp(3, 1)],
            }];
            let mut sink = CollectSink::default();
            fork_join_carved(
                &c,
                c.threads,
                tasks,
                &mut sink,
                |wctx, task, out| execute_task(wctx, task, out, &mut VpjReport::default()),
                |_| {},
            )
            .unwrap();
            assert_eq!(sink.canonical(), [(16, 3)], "t={threads}");
            assert_eq!(c.pool.live_files().len(), live, "group files are freed");
        }
    }
}
