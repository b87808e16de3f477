//! Frame-budget admission control for concurrent queries.
//!
//! The query service shares one buffer pool across *whole queries*: every
//! admitted query receives a private slice of the pool's frames and sizes
//! all of its operator state against that slice (via [`JoinCtx::worker`]).
//!
//! The controller's one structural guarantee is deadlock freedom, and it
//! comes from the grant discipline rather than from timeouts: a query
//! acquires its **entire** budget in one call before touching the pool and
//! never asks for more while holding frames. With no incremental
//! acquisition there is no hold-and-wait, so the classic budget deadlock
//! (two queries each holding half their frames, each waiting for the
//! other's) cannot be constructed. Waiters are served strictly FIFO — a
//! released budget always goes to the oldest waiter first, so a large
//! request at the head of the queue cannot be starved by a stream of small
//! ones barging past it.
//!
//! Requests that could *never* be satisfied (more frames than the
//! controller owns) and requests arriving when the wait queue is full are
//! rejected immediately instead of queued — the two admission outcomes the
//! protocol surfaces as errors rather than latency.
//!
//! [`JoinCtx::worker`]: pbitree_joins::JoinCtx::worker

use std::sync::{Arc, Condvar, Mutex};

/// The smallest budget any query runs with — the same floor
/// [`JoinCtxBuilder::budget`](pbitree_joins::JoinCtxBuilder::budget) and
/// [`JoinCtx::worker`](pbitree_joins::JoinCtx::worker) apply (one page per
/// input stream plus one for output).
pub const MIN_QUERY_FRAMES: usize = 3;

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request exceeds the controller's total capacity: it could never
    /// be granted, not even alone on an idle pool.
    TooLarge {
        /// Frames requested.
        want: usize,
        /// Total grantable frames.
        capacity: usize,
    },
    /// The wait queue is at its configured bound; admitting one more
    /// waiter would let queue depth (and thus tail latency) grow without
    /// limit.
    Overloaded {
        /// Waiters already queued.
        queued: usize,
    },
    /// The controller was closed (service shutting down).
    Shutdown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TooLarge { want, capacity } => {
                write!(f, "budget {want} exceeds pool capacity {capacity}")
            }
            AdmissionError::Overloaded { queued } => {
                write!(f, "admission queue full ({queued} waiting)")
            }
            AdmissionError::Shutdown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Counters exposed through the `STATS` protocol command and asserted by
/// the admission tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Frames currently granted out.
    pub in_use: usize,
    /// Requests currently waiting.
    pub waiting: usize,
    /// High-water mark of the wait queue.
    pub peak_waiting: usize,
    /// Requests granted since startup.
    pub admitted: u64,
    /// Requests rejected (too large or overloaded) since startup.
    pub rejected: u64,
}

#[derive(Default)]
struct Inner {
    in_use: usize,
    /// Next ticket to hand to a waiter.
    next_ticket: u64,
    /// The ticket currently at the head of the FIFO.
    serving: u64,
    waiting: usize,
    peak_waiting: usize,
    admitted: u64,
    rejected: u64,
    closed: bool,
}

/// FIFO frame-budget gate over one shared buffer pool. Shared via `Arc`;
/// grants are RAII ([`Grant`]) and release on drop.
pub struct AdmissionController {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
    max_queue: usize,
}

/// An admitted query's frame budget. Dropping it returns the frames and
/// wakes the queue.
pub struct Grant {
    ctl: Arc<AdmissionController>,
    frames: usize,
}

impl std::fmt::Debug for Grant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grant")
            .field("frames", &self.frames)
            .finish()
    }
}

impl Grant {
    /// The number of frames this grant holds — what the query's worker
    /// context is sized with.
    pub fn frames(&self) -> usize {
        self.frames
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        let mut st = self.ctl.inner.lock().unwrap();
        st.in_use -= self.frames;
        drop(st);
        self.ctl.cv.notify_all();
    }
}

impl AdmissionController {
    /// A controller owning `capacity` grantable frames, queueing at most
    /// `max_queue` waiters (0 = never queue, reject on contention).
    pub fn new(capacity: usize, max_queue: usize) -> Arc<Self> {
        Arc::new(AdmissionController {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(MIN_QUERY_FRAMES),
            max_queue,
        })
    }

    /// Total grantable frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks until `want` frames can be granted (FIFO order), or rejects:
    /// immediately when the request can never fit or the queue is full,
    /// and on wakeup when the controller closes.
    pub fn admit(self: &Arc<Self>, want: usize) -> Result<Grant, AdmissionError> {
        let want = want.max(MIN_QUERY_FRAMES);
        let mut st = self.inner.lock().unwrap();
        if st.closed {
            return Err(AdmissionError::Shutdown);
        }
        if want > self.capacity {
            st.rejected += 1;
            return Err(AdmissionError::TooLarge {
                want,
                capacity: self.capacity,
            });
        }
        // Admit on the spot only when nobody is already waiting — arrivals
        // never barge past the FIFO.
        if st.waiting > 0 || st.in_use + want > self.capacity {
            if st.waiting >= self.max_queue {
                st.rejected += 1;
                return Err(AdmissionError::Overloaded { queued: st.waiting });
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.waiting += 1;
            st.peak_waiting = st.peak_waiting.max(st.waiting);
            loop {
                st = self.cv.wait(st).unwrap();
                if st.closed {
                    st.waiting -= 1;
                    if ticket == st.serving {
                        st.serving += 1;
                    }
                    drop(st);
                    self.cv.notify_all();
                    return Err(AdmissionError::Shutdown);
                }
                if ticket == st.serving && st.in_use + want <= self.capacity {
                    break;
                }
            }
            st.waiting -= 1;
            st.serving += 1;
        }
        st.in_use += want;
        st.admitted += 1;
        drop(st);
        // The head moved: wake the next waiter so it can check its turn.
        self.cv.notify_all();
        Ok(Grant {
            ctl: Arc::clone(self),
            frames: want,
        })
    }

    /// Closes the controller: waiters wake with
    /// [`AdmissionError::Shutdown`] and future requests are refused.
    /// Outstanding grants stay valid until dropped.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.inner.lock().unwrap();
        AdmissionStats {
            in_use: st.in_use,
            waiting: st.waiting,
            peak_waiting: st.peak_waiting,
            admitted: st.admitted,
            rejected: st.rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn whole_budget_grants_never_oversubscribe() {
        // 8 clients each take 10 of 16 frames: at most one grant can be
        // out at a time, and a tracked high-water mark proves it.
        let ctl = AdmissionController::new(16, 64);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let (ctl, in_flight, peak) = (ctl.clone(), in_flight.clone(), peak.clone());
            joins.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let g = ctl.admit(10).unwrap();
                    let now = in_flight.fetch_add(g.frames(), Ordering::SeqCst) + g.frames();
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                    in_flight.fetch_sub(g.frames(), Ordering::SeqCst);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 16);
        let st = ctl.stats();
        assert_eq!(st.admitted, 80);
        assert_eq!(st.in_use, 0);
        assert_eq!(st.waiting, 0);
    }

    #[test]
    fn impossible_requests_are_rejected_not_queued() {
        let ctl = AdmissionController::new(10, 4);
        assert_eq!(
            ctl.admit(11).unwrap_err(),
            AdmissionError::TooLarge {
                want: 11,
                capacity: 10
            }
        );
        assert_eq!(ctl.stats().rejected, 1);
        // Exactly capacity is fine.
        assert!(ctl.admit(10).is_ok());
    }

    #[test]
    fn full_queue_rejects_overloaded() {
        let ctl = AdmissionController::new(4, 0);
        let g = ctl.admit(4).unwrap();
        assert_eq!(
            ctl.admit(4).unwrap_err(),
            AdmissionError::Overloaded { queued: 0 }
        );
        drop(g);
        assert!(ctl.admit(4).is_ok());
    }

    #[test]
    fn close_wakes_every_waiter() {
        let ctl = AdmissionController::new(4, 16);
        let g = ctl.admit(4).unwrap();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let ctl = ctl.clone();
            joins.push(std::thread::spawn(move || ctl.admit(4)));
        }
        while ctl.stats().waiting < 4 {
            std::thread::yield_now();
        }
        ctl.close();
        for j in joins {
            assert_eq!(j.join().unwrap().unwrap_err(), AdmissionError::Shutdown);
        }
        drop(g);
        assert_eq!(ctl.admit(1).unwrap_err(), AdmissionError::Shutdown);
    }

    #[test]
    fn fifo_head_is_not_starved_by_small_requests() {
        // A big request queues first; a stream of small ones after it. The
        // big one must be served before any later small one.
        let ctl = AdmissionController::new(8, 64);
        let g = ctl.admit(8).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));

        let big = {
            let (ctl, order) = (ctl.clone(), order.clone());
            std::thread::spawn(move || {
                let _g = ctl.admit(8).unwrap();
                order.lock().unwrap().push("big");
            })
        };
        while ctl.stats().waiting < 1 {
            std::thread::yield_now();
        }
        let mut smalls = Vec::new();
        for _ in 0..4 {
            let (ctl, order) = (ctl.clone(), order.clone());
            smalls.push(std::thread::spawn(move || {
                let _g = ctl.admit(3).unwrap();
                order.lock().unwrap().push("small");
            }));
        }
        while ctl.stats().waiting < 5 {
            std::thread::yield_now();
        }
        drop(g);
        big.join().unwrap();
        for s in smalls {
            s.join().unwrap();
        }
        assert_eq!(order.lock().unwrap()[0], "big");
        assert_eq!(ctl.stats().peak_waiting, 5);
    }

    #[test]
    fn floor_is_applied() {
        let ctl = AdmissionController::new(64, 4);
        let g = ctl.admit(0).unwrap();
        assert_eq!(g.frames(), MIN_QUERY_FRAMES);
    }
}
