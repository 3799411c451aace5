//! [`ThreadCtx`]: the API model programs are written against.
//!
//! Every method that touches shared state is a *scheduling point*: it emits
//! an event, lets the noise maker interfere, and lets the scheduler move the
//! execution token. Methods are annotated `#[track_caller]`, so the source
//! location of the call in the benchmark program becomes the event's
//! [`Loc`] — the automatic equivalent of a bytecode instrumentor recording
//! "the location in the program from which it was called".
//!
//! The context is the **backend seam** (see [`crate::backend`]): the same
//! program closure runs unchanged under the deterministic model engine or
//! on real OS threads. Each method below is the only implementation of its
//! operation under both engines — the misuse check, the transition of the
//! shared model tables and the events it emits. What differs per engine
//! (blocking, what follows an event, waking waiters, the variable store and
//! the clock) goes through the hooks on [`crate::exec::Rt`].
//!
//! Misusing the model (unlocking a lock you don't hold, waiting on a
//! condition without its lock, recursive locking, joining yourself) aborts
//! the execution with [`crate::OutcomeKind::ThreadPanic`] under **both**
//! backends; such misuse is itself a bug class benchmark programs may
//! exhibit.

use crate::exec::{ModelMisuse, Rt};
use crate::state::{BlockReason, Status};
use crate::OutcomeKind;
use mtt_instrument::{BarrierId, CondId, Loc, LockId, Op, SemId, ThreadId, VarId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::panic_any;
use std::sync::Arc;

/// Capture the caller's source location as a [`Loc`].
#[track_caller]
fn caller_loc() -> Loc {
    let c = std::panic::Location::caller();
    Loc {
        file: c.file(),
        line: c.line(),
    }
}

fn misuse(msg: String) -> ! {
    panic_any(ModelMisuse(msg))
}

/// Handle through which a model thread performs all shared-memory and
/// synchronization operations.
pub struct ThreadCtx {
    rt: Arc<Rt>,
    me: ThreadId,
    rng: ChaCha8Rng,
}

impl ThreadCtx {
    /// The per-thread RNG is seeded from the program seed and the thread
    /// id alone, so program logic driven by [`Self::random`] is
    /// backend-independent.
    pub(crate) fn new(rt: Arc<Rt>, me: ThreadId, program_seed: u64) -> Self {
        let seed = program_seed ^ (u64::from(me.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ThreadCtx {
            rt,
            me,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.me
    }

    // ------------------------------------------------------------------
    // Shared variables
    // ------------------------------------------------------------------

    /// Read a shared variable. Non-volatile variables may return a stale,
    /// thread-cached value (see [`crate::ProgramBuilder::var_nonvolatile`])
    /// under the model backend; natively they are plain racy loads with
    /// torn-read detection.
    #[track_caller]
    pub fn read(&mut self, var: VarId) -> i64 {
        self.read_at(var, caller_loc())
    }

    /// [`Self::read`] with an explicit site (used by code generators such
    /// as the MiniProg interpreter).
    pub fn read_at(&mut self, var: VarId, loc: Loc) -> i64 {
        let (g, value) = self.rt.load(self.me, var, loc);
        self.rt.finish(g, self.me, loc, Op::VarRead { var, value });
        value
    }

    /// Write a shared variable.
    #[track_caller]
    pub fn write(&mut self, var: VarId, value: i64) {
        self.write_at(var, value, caller_loc())
    }

    /// [`Self::write`] with an explicit site.
    pub fn write_at(&mut self, var: VarId, value: i64, loc: Loc) {
        let g = self.rt.store(self.me, var, value);
        self.rt.finish(g, self.me, loc, Op::VarWrite { var, value });
    }

    /// Atomic read-modify-write: applies `f` to the *shared-store* value
    /// with no scheduling point in between (the model analogue of an
    /// `AtomicInteger` operation). Emits a read event and a write event at
    /// a single scheduling point; returns the old value.
    #[track_caller]
    pub fn rmw<F: FnOnce(i64) -> i64>(&mut self, var: VarId, f: F) -> i64 {
        let loc = caller_loc();
        let (g, old, new) = self.rt.rmw(self.me, var, loc, f);
        self.rt
            .finish(g, self.me, loc, Op::VarRmw { var, old, new });
        old
    }

    // ------------------------------------------------------------------
    // Mutexes
    // ------------------------------------------------------------------

    /// Acquire a mutex, blocking while another thread owns it.
    #[track_caller]
    pub fn lock(&mut self, lock: LockId) {
        self.lock_at(lock, caller_loc())
    }

    /// [`Self::lock`] with an explicit site.
    pub fn lock_at(&mut self, lock: LockId, loc: Loc) {
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        match g.model.lock_owner[lock.index()] {
            Some(owner) if owner == me => misuse(format!(
                "thread {me} locked {lock:?} recursively (model mutexes are non-reentrant)"
            )),
            Some(_) => {
                let _ = rt.emit(&mut g, me, loc, Op::LockRequest { lock });
                rt.block(&mut g, me, Status::Blocked(BlockReason::Lock(lock)));
            }
            None => {}
        }
        g.model.acquire_lock(me, lock);
        rt.finish(g, me, loc, Op::LockAcquire { lock });
    }

    /// Try to acquire a mutex without blocking. Returns whether it was
    /// acquired.
    #[track_caller]
    pub fn try_lock(&mut self, lock: LockId) -> bool {
        let loc = caller_loc();
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        match g.model.lock_owner[lock.index()] {
            None => {
                g.model.acquire_lock(me, lock);
                rt.finish(g, me, loc, Op::LockAcquire { lock });
                true
            }
            Some(owner) if owner == me => misuse(format!("thread {me} try_lock on lock it holds")),
            Some(_) => {
                rt.finish(g, me, loc, Op::LockTryFail { lock });
                false
            }
        }
    }

    /// Release a mutex this thread owns.
    #[track_caller]
    pub fn unlock(&mut self, lock: LockId) {
        self.unlock_at(lock, caller_loc())
    }

    /// [`Self::unlock`] with an explicit site.
    pub fn unlock_at(&mut self, lock: LockId, loc: Loc) {
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        if !g.model.release_lock(me, lock) {
            misuse(format!(
                "thread {me} released {lock:?} which it does not hold"
            ));
        }
        rt.wake_waiters();
        rt.finish(g, me, loc, Op::LockRelease { lock });
    }

    /// Run `f` with `lock` held (the model analogue of a `synchronized`
    /// block).
    #[track_caller]
    pub fn with_lock<R>(&mut self, lock: LockId, f: impl FnOnce(&mut Self) -> R) -> R {
        self.lock(lock);
        let r = f(self);
        self.unlock(lock);
        r
    }

    // ------------------------------------------------------------------
    // Condition variables
    // ------------------------------------------------------------------

    /// Wait on `cond`, atomically releasing `lock` (which must be held);
    /// re-acquires `lock` before returning.
    #[track_caller]
    pub fn wait(&mut self, cond: CondId, lock: LockId) {
        self.wait_at(cond, lock, caller_loc())
    }

    /// [`Self::wait`] with an explicit site.
    pub fn wait_at(&mut self, cond: CondId, lock: LockId, loc: Loc) {
        self.wait_inner(cond, lock, None, loc);
    }

    /// Like [`Self::wait`] but gives up after `ticks` units of virtual time
    /// (model) or `ticks × 100µs` of wall time (native).
    /// Returns `true` when notified, `false` on timeout.
    #[track_caller]
    pub fn timed_wait(&mut self, cond: CondId, lock: LockId, ticks: u32) -> bool {
        self.wait_inner(cond, lock, Some(ticks), caller_loc())
    }

    fn wait_inner(&mut self, cond: CondId, lock: LockId, ticks: Option<u32>, loc: Loc) -> bool {
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        if g.model.lock_owner[lock.index()] != Some(me) {
            misuse(format!(
                "thread {me} waits on {cond:?} without holding {lock:?}"
            ));
        }
        let _ = rt.emit(&mut g, me, loc, Op::CondWait { cond, lock });
        assert!(g.model.release_lock(me, lock));
        rt.wake_waiters();
        g.model.cond_queues[cond.index()].push(me);
        g.model.threads[me.index()].timed_out = false;
        // Notify removes the waiter from the queue; absence is the wake
        // condition.
        let reason = match ticks {
            Some(t) => BlockReason::CondTimed(cond, lock, rt.ticks_from_now(&g, t)),
            None => BlockReason::Cond(cond, lock),
        };
        rt.block(&mut g, me, Status::Blocked(reason));
        let timed_out = g.model.threads[me.index()].timed_out;
        // Re-acquire the lock, competing with everyone else.
        if g.model.lock_owner[lock.index()].is_some() {
            rt.block(&mut g, me, Status::Blocked(BlockReason::Lock(lock)));
        }
        g.model.acquire_lock(me, lock);
        rt.finish(g, me, loc, Op::CondWake { cond, lock });
        !timed_out
    }

    /// Wake the longest-waiting thread on `cond` (no-op — a potential *lost
    /// notification* — when nobody waits).
    #[track_caller]
    pub fn notify(&mut self, cond: CondId) {
        self.notify_at(cond, caller_loc())
    }

    /// [`Self::notify`] with an explicit site.
    pub fn notify_at(&mut self, cond: CondId, loc: Loc) {
        self.notify_inner(cond, false, loc);
    }

    /// Wake every thread waiting on `cond`.
    #[track_caller]
    pub fn notify_all(&mut self, cond: CondId) {
        self.notify_all_at(cond, caller_loc())
    }

    /// [`Self::notify_all`] with an explicit site.
    pub fn notify_all_at(&mut self, cond: CondId, loc: Loc) {
        self.notify_inner(cond, true, loc);
    }

    fn notify_inner(&mut self, cond: CondId, all: bool, loc: Loc) {
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        let model = &mut g.model;
        let queue = &mut model.cond_queues[cond.index()];
        let n = if all { queue.len() } else { queue.len().min(1) };
        for t in queue.drain(..n) {
            let t = &mut model.threads[t.index()];
            t.status = Status::Ready;
            t.timed_out = false;
        }
        rt.wake_waiters();
        rt.finish(g, me, loc, Op::CondNotify { cond, all });
    }

    // ------------------------------------------------------------------
    // Semaphores & barriers
    // ------------------------------------------------------------------

    /// Acquire one permit, blocking while none is available.
    #[track_caller]
    pub fn sem_acquire(&mut self, sem: SemId) {
        let loc = caller_loc();
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        if g.model.sem_permits[sem.index()] == 0 {
            let _ = rt.emit(&mut g, me, loc, Op::SemRequest { sem });
            rt.block(&mut g, me, Status::Blocked(BlockReason::Sem(sem)));
        }
        g.model.sem_permits[sem.index()] -= 1;
        g.model.threads[me.index()].flush_cache();
        rt.finish(g, me, loc, Op::SemAcquire { sem });
    }

    /// Release one permit and wake blocked acquirers.
    #[track_caller]
    pub fn sem_release(&mut self, sem: SemId) {
        let loc = caller_loc();
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        g.model.sem_permits[sem.index()] += 1;
        for t in g.model.threads.iter_mut() {
            if t.status == Status::Blocked(BlockReason::Sem(sem)) {
                t.status = Status::Ready;
            }
        }
        g.model.threads[me.index()].flush_cache();
        rt.wake_waiters();
        rt.finish(g, me, loc, Op::SemRelease { sem });
    }

    /// Arrive at a cyclic barrier and block until all parties have arrived.
    #[track_caller]
    pub fn barrier_wait(&mut self, barrier: BarrierId) {
        let loc = caller_loc();
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        g.model.barrier_arrived[barrier.index()].push(me);
        let _ = rt.emit(&mut g, me, loc, Op::BarrierArrive { barrier });
        let full = g.model.barrier_arrived[barrier.index()].len() as u32
            == g.model.barrier_parties[barrier.index()];
        if full {
            // Departure = removal from the arrival list; waiters pass when
            // they no longer find themselves in it.
            let model = &mut g.model;
            for t in model.barrier_arrived[barrier.index()].drain(..) {
                if t != me {
                    model.threads[t.index()].status = Status::Ready;
                }
            }
            rt.wake_waiters();
        } else {
            rt.block(&mut g, me, Status::Blocked(BlockReason::Barrier(barrier)));
        }
        g.model.threads[me.index()].flush_cache();
        rt.finish(g, me, loc, Op::BarrierPass { barrier });
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Spawn a child model thread running `body`. Returns its id.
    #[track_caller]
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> ThreadId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        let loc = caller_loc();
        let (rt, me) = (&self.rt, self.me);
        let mut g = rt.mx.lock();
        if g.model.threads.len() as u32 >= g.opts.max_threads {
            misuse(format!(
                "thread limit ({}) exceeded — runaway spawn loop?",
                g.opts.max_threads
            ));
        }
        let child = rt.start_thread(&mut g, name.into(), Box::new(body));
        rt.finish(g, me, loc, Op::Spawn { child });
        child
    }

    /// Block until `target` finishes.
    #[track_caller]
    pub fn join(&mut self, target: ThreadId) {
        let loc = caller_loc();
        let (rt, me) = (&*self.rt, self.me);
        if target == me {
            misuse(format!("thread {me} joining itself"));
        }
        let mut g = rt.mx.lock();
        if target.index() >= g.model.threads.len() {
            misuse(format!("join on unknown thread {target}"));
        }
        if g.model.threads[target.index()].status != Status::Finished {
            let _ = rt.emit(&mut g, me, loc, Op::JoinRequest { target });
            rt.block(&mut g, me, Status::Blocked(BlockReason::Join(target)));
        }
        g.model.threads[me.index()].flush_cache();
        rt.finish(g, me, loc, Op::Join { target });
    }

    // ------------------------------------------------------------------
    // Delays, markers, assertions
    // ------------------------------------------------------------------

    /// Voluntary scheduling point.
    #[track_caller]
    pub fn yield_now(&mut self) {
        self.yield_at(caller_loc())
    }

    /// [`Self::yield_now`] with an explicit site.
    pub fn yield_at(&mut self, loc: Loc) {
        let g = self.rt.mx.lock();
        self.rt.finish(g, self.me, loc, Op::Yield);
        self.rt.os_yield();
    }

    /// Sleep for `ticks` units of virtual time (model) or `ticks × 100µs`
    /// of wall time (native).
    #[track_caller]
    pub fn sleep(&mut self, ticks: u32) {
        self.sleep_at(ticks, caller_loc())
    }

    /// [`Self::sleep`] with an explicit site.
    pub fn sleep_at(&mut self, ticks: u32, loc: Loc) {
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        let wake = rt.ticks_from_now(&g, ticks);
        let _ = rt.emit(&mut g, me, loc, Op::Sleep { ticks });
        rt.block(&mut g, me, Status::Sleeping(wake));
    }

    /// Pure instrumentation marker: emits a [`Op::Point`] event carrying
    /// `label` and creates a scheduling point, with no semantic effect.
    #[track_caller]
    pub fn point(&mut self, label: &str) {
        let loc = caller_loc();
        let mut g = self.rt.mx.lock();
        let li = g.intern_label(label);
        self.rt.finish(g, self.me, loc, Op::Point { label: li });
    }

    /// Executable assertion. A failure is recorded in the outcome (and, if
    /// the execution was configured with `stop_on_assert`, aborts it). A
    /// passing assertion costs nothing and is not a scheduling point.
    #[track_caller]
    pub fn check(&mut self, cond: bool, label: &str) {
        self.check_at(cond, label, caller_loc())
    }

    /// [`Self::check`] with an explicit site.
    pub fn check_at(&mut self, cond: bool, label: &str, loc: Loc) {
        if cond {
            return;
        }
        let (rt, me) = (&*self.rt, self.me);
        let mut g = rt.mx.lock();
        let li = g.record_failure(me, label, loc);
        let nd = rt.emit(&mut g, me, loc, Op::AssertFail { label: li });
        if g.opts.stop_on_assert {
            rt.raise_abort(&mut g, OutcomeKind::AssertStop);
        }
        rt.step(g, me, nd);
    }

    /// Deterministic pseudo-randomness for program logic: uniform in
    /// `0..bound`. Seeded from the execution's `program_seed` and this
    /// thread's id, so it is independent of the interleaving — replay-safe
    /// and identical under both backends.
    pub fn random(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random bound must be positive");
        self.rng.gen_range(0..bound)
    }
}
