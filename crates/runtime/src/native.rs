//! The native-threads engine ([`crate::RuntimeBackend::Native`]).
//!
//! Program closures run on real `std::thread`s through the same
//! [`crate::ThreadCtx`] operations as under the model engine: one op layer
//! over the shared book (lock owners, condition queues, semaphore permits,
//! barrier arrivals, thread statuses, events, noise, assertions), mutated
//! under one `parking_lot` mutex. This module holds only the native side of
//! the engine hooks:
//!
//! * **Storage.** Shared variables live in real memory — volatile
//!   variables in `SeqCst` atomics, non-volatile ones in
//!   [`mtt_race::RaceCell`]s, accessed *off* the book lock. Torn-read
//!   detection is the engine's race oracle (there is no serialized event
//!   stream to run a lockset or vector-clock detector over; a torn read is
//!   *physical* evidence that an unsynchronized access really happened).
//!   Torn reads are reported as synthetic [`crate::AssertFailure`]s
//!   labelled `race:torn-read:<var>`, so `Outcome::ok()` and every
//!   downstream oracle treat a physically manifested race exactly like a
//!   failed executable assertion.
//! * **Blocking.** A blocked thread publishes its `Blocked` status and
//!   polls its wake predicate on a condition variable, so the watchdog can
//!   compute the same waits-for diagnostics as the model engine.
//! * **Time.** `Event::time` is microseconds since the run started;
//!   `ctx.sleep(ticks)` and noise [`crate::NoiseDecision::Sleep`] wait
//!   `ticks × 100µs`; [`crate::NoiseDecision::Yield`] is
//!   `thread::yield_now`.
//! * **Teardown.** Runs can genuinely hang, so a wall-clock **watchdog**
//!   enforces [`crate::ExecutionOptions::wall_budget`] (default 10s) and
//!   maps exhaustion to [`crate::OutcomeKind::StepLimit`] — the model's
//!   "hang" analogue. It also detects deadlocks by checking, under the book
//!   lock, that every live thread is blocked on a condition nothing can
//!   satisfy.
//!
//! There is no scheduler: the OS schedules, and the configured
//! [`crate::Scheduler`] is never consulted (`scheduler_faults` and
//! `context_switches` stay 0). Spurious-wakeup injection is a model feature
//! and is not emulated; the real platform supplies its own nondeterminism.

use crate::exec::{Guard, Rt};
use crate::outcome::OutcomeKind;
use crate::program::Program;
use crate::state::{BlockReason, Status};
use mtt_instrument::{ThreadId, VarId};
use mtt_race::RaceCell;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// One model tick, in wall-clock microseconds: `ctx.sleep(1)` sleeps this
/// long.
pub(crate) const NATIVE_TICK_US: u64 = 100;
/// Wall budget when the caller did not set one. Native runs can hang, so
/// there is always *some* watchdog deadline.
const DEFAULT_NATIVE_BUDGET: Duration = Duration::from_secs(10);
/// Watchdog poll / blocked-thread re-check interval.
const POLL: Duration = Duration::from_millis(20);
/// How long teardown waits for live threads after completion or abort
/// before detaching the stragglers.
const TEARDOWN_GRACE: Duration = Duration::from_secs(2);

/// Physical storage for one shared variable.
enum NativeVar {
    /// Volatile variables are sequentially consistent, like the model's.
    Volatile(AtomicI64),
    /// Non-volatile variables get torn-read detection instead of the
    /// model's weak-visibility cache.
    Plain(RaceCell),
}

/// The native engine's own state: the physical variable store and the
/// wall clock.
pub(crate) struct NativeEngine {
    /// Indexed by `VarId`.
    vars: Vec<NativeVar>,
    start: Instant,
    /// Serializes read-modify-write operations against each other (the
    /// native analogue of `AtomicInteger`); plain writes still race with
    /// it, which is exactly what the torn-read oracle observes.
    rmw_lock: Mutex<()>,
}

impl NativeEngine {
    pub(crate) fn new(program: &Program, start: Instant) -> Self {
        let vars = program
            .vars()
            .iter()
            .map(|v| {
                if v.volatile {
                    NativeVar::Volatile(AtomicI64::new(v.init))
                } else {
                    NativeVar::Plain(RaceCell::new(v.init))
                }
            })
            .collect();
        NativeEngine {
            vars,
            start,
            rmw_lock: Mutex::new(()),
        }
    }

    pub(crate) fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Load `var`; returns the value and whether the read tore.
    pub(crate) fn load(&self, var: VarId) -> (i64, bool) {
        match &self.vars[var.index()] {
            NativeVar::Volatile(a) => (a.load(Ordering::SeqCst), false),
            NativeVar::Plain(c) => {
                let r = c.get();
                (r.value(), r.is_torn())
            }
        }
    }

    pub(crate) fn store(&self, var: VarId, value: i64) {
        match &self.vars[var.index()] {
            NativeVar::Volatile(a) => a.store(value, Ordering::SeqCst),
            NativeVar::Plain(c) => c.set(value),
        }
    }

    /// Replace `var` by `f(old)` atomically with respect to other
    /// read-modify-writes; returns `(old, new, torn)`.
    pub(crate) fn rmw(&self, var: VarId, f: impl FnOnce(i64) -> i64) -> (i64, i64, bool) {
        let _atomic = self.rmw_lock.lock();
        let (old, torn) = self.load(var);
        let new = f(old);
        self.store(var, new);
        (old, new, torn)
    }

    /// Final values, read with synchronization.
    pub(crate) fn values(&self) -> Vec<i64> {
        self.vars
            .iter()
            .map(|v| match v {
                NativeVar::Volatile(a) => a.load(Ordering::SeqCst),
                NativeVar::Plain(c) => c.load_synced(),
            })
            .collect()
    }

    /// Wait on `cv` (releasing the book) until what `st` waits for holds or
    /// its wake time passes, publishing `st` meanwhile so the watchdog can
    /// prove deadlocks. The wake predicate is the one the watchdog
    /// evaluates, so the two always agree. Unwinds on abort.
    pub(crate) fn block(&self, cv: &Condvar, g: &mut Guard<'_>, me: ThreadId, st: Status) {
        loop {
            g.check_abort();
            let now = self.now_micros();
            g.model.threads[me.index()].status = st;
            let woke = matches!(st, Status::Blocked(r) if g.model.unblocked(me, r))
                || g.model.wake_if_due(me, now);
            if woke {
                g.model.threads[me.index()].status = Status::Running;
                return;
            }
            let wait = match st {
                Status::Sleeping(at) | Status::Blocked(BlockReason::CondTimed(_, _, at)) => {
                    Duration::from_micros(at - now).min(POLL)
                }
                _ => POLL,
            };
            let _ = cv.wait_for(g, wait);
        }
    }

    /// The watchdog, run on the calling thread once the main thread is
    /// registered: enforce the wall budget, poll for provable deadlocks,
    /// then wait for live threads to drain and join them. Threads stuck in
    /// uninstrumented compute loops cannot be interrupted and are detached
    /// after a grace period (their next instrumented operation unwinds).
    pub(crate) fn watch(&self, rt: &Rt, mut g: Guard<'_>) {
        let budget = g.opts.wall_budget.unwrap_or(DEFAULT_NATIVE_BUDGET);
        while !(g.completed || g.abort.is_some()) {
            if self.start.elapsed() >= budget {
                rt.raise_abort(&mut g, OutcomeKind::StepLimit);
            } else if deadlocked(&g) {
                let info = g.model.deadlock_info();
                rt.raise_abort(&mut g, OutcomeKind::Deadlock(info));
            } else {
                let _ = rt.cv.wait_for(&mut g, POLL);
            }
        }
        rt.cv.notify_all();
        let grace_deadline = Instant::now() + TEARDOWN_GRACE;
        while g.live > 0 && Instant::now() < grace_deadline {
            let _ = rt.cv.wait_for(&mut g, POLL);
        }
        let handles = std::mem::take(&mut g.os_handles);
        let all_exited = g.live == 0;
        drop(g);
        if all_exited {
            for h in handles {
                let _ = h.join();
            }
        } // else dropping the handles detaches the stragglers
    }
}

/// Is every live thread provably stuck? Evaluated under the book lock, so
/// the snapshot is consistent; each blocked thread's wake condition is the
/// same predicate its `block` call polls, which makes this check exact: if
/// it holds, no thread can ever run again (only a running thread could
/// satisfy any of the conditions, and timed waits — the one self-waking
/// reason — are excluded).
fn deadlocked(b: &crate::exec::Book) -> bool {
    let mut any_blocked = false;
    for (i, t) in b.model.threads.iter().enumerate() {
        match t.status {
            Status::Finished => {}
            Status::Blocked(BlockReason::CondTimed(..)) => return false,
            Status::Blocked(r) if !b.model.unblocked(ThreadId(i as u32), r) => any_blocked = true,
            // Ready (spawned, not yet started), Running, Sleeping, or about
            // to see its condition hold: progress is still possible.
            _ => return false,
        }
    }
    any_blocked
}
