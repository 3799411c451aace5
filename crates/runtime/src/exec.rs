//! The execution engine: the shared book, the per-engine hooks, thread
//! lifecycle, the abort protocol and the [`Execution`] builder.
//!
//! ## How control flows
//!
//! Every [`ThreadCtx`] operation locks the execution's [`Book`], checks for
//! misuse, applies its transition to the model tables, emits its events
//! and hands over to the engine through a handful of hooks on [`Rt`]:
//! blocking until a wait condition holds, what follows an op's final
//! event, waking waiters, the variable store, and the clock.
//!
//! Under the **model** engine each program thread runs on a pooled OS
//! worker (see `pool.rs`) and has its own wait slot, a condition variable
//! used with the book mutex. Exactly one thread holds the *execution
//! token* (`ModelState::current`); at the end of each operation it applies
//! the noise decision and asks the scheduler to pick the next token
//! holder. If the pick is itself, it carries on without waking anyone;
//! otherwise it wakes the new holder's slot alone and parks on its own
//! until the token comes back. The harness thread waits on [`Rt::cv`] and
//! is woken only when the run completes or aborts. Because the mutex
//! serializes all of this and only the token holder executes program code,
//! an execution is a deterministic function of (program, scheduler
//! decisions, noise decisions) — the foundation for replay and systematic
//! exploration. The **native** engine runs the same operations on
//! free-running OS threads (see [`crate::native`]).
//!
//! ## Abort protocol
//!
//! Deadlock, step-limit exhaustion, `stop_on_assert` and program panics
//! all *abort* the execution: the cause is stored, the harness and every
//! registered thread are woken, each thread unwinds with a private
//! `AbortToken` panic payload (whose printing is suppressed by a
//! process-wide hook), and the harness thread collects the [`Outcome`].

use crate::ctx::ThreadCtx;
use crate::native::{NativeEngine, NATIVE_TICK_US};
use crate::noise::{NoNoise, NoiseDecision, NoiseMaker, NoiseView};
use crate::outcome::{AssertFailure, ExecStats, Outcome, OutcomeKind};
use crate::pool::{self, Done};
use crate::program::Program;
use crate::scheduler::{FifoScheduler, SchedView, Scheduler};
use crate::state::{BlockReason, ModelState, Status, ThreadState};
use mtt_instrument::{
    Event, EventSink, InstrumentationPlan, Loc, Op, ResolvedFilter, ThreadId, VarId, VarTable,
};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Instant;

/// Panic payload used to unwind threads when an execution aborts.
pub(crate) struct AbortToken;

/// Panic payload for model-API misuse by program code (e.g. releasing a
/// lock the thread does not hold). Recorded as [`OutcomeKind::ThreadPanic`].
pub(crate) struct ModelMisuse(pub String);

static HOOK_INSTALL: Once = Once::new();

/// Install (once per process) a panic hook that stays silent for the
/// runtime's internal control-flow panics and defers to the previous hook
/// for everything else.
pub(crate) fn install_quiet_hook() {
    HOOK_INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortToken>() || info.payload().is::<ModelMisuse>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Tunables of one execution.
#[derive(Clone, Debug)]
pub struct ExecutionOptions {
    /// Maximum scheduling points before the run is declared hung
    /// ([`OutcomeKind::StepLimit`]).
    pub max_steps: u64,
    /// Abort the execution at the first failed assertion.
    pub stop_on_assert: bool,
    /// Seed for the per-thread deterministic RNG available to program code
    /// via [`ThreadCtx::random`].
    pub program_seed: u64,
    /// Hard cap on model threads (guards against runaway spawn loops).
    pub max_threads: u32,
    /// When set, at each scheduling point one condition-variable waiter is
    /// woken *spuriously* with this probability — the POSIX/JVM liberty
    /// most schedulers never exercise. Programs that wait without a
    /// predicate loop break under it, which makes spurious injection a
    /// bug-finding technique of its own (exercised by experiment E1's
    /// suite and the runtime tests).
    ///
    /// Model-engine feature: the native backend relies on the real
    /// platform's nondeterminism instead and ignores this option.
    pub spurious_wakeups: Option<f64>,
    /// Which execution engine runs the program (default:
    /// [`RuntimeBackend::Model`]). See [`crate::backend`].
    pub backend: crate::RuntimeBackend,
    /// Wall-clock budget enforced by the native engine's watchdog;
    /// exhaustion maps to [`OutcomeKind::StepLimit`], the model's "hang"
    /// analogue. `None` means the native default (10s). The model engine
    /// never blocks on wall time and ignores this.
    pub wall_budget: Option<std::time::Duration>,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            max_steps: 1_000_000,
            stop_on_assert: false,
            program_seed: 0,
            max_threads: 512,
            spurious_wakeups: None,
            backend: crate::RuntimeBackend::Model,
            wall_budget: None,
        }
    }
}

/// Everything behind the execution's mutex, shared by both engines: the
/// model tables, the event plumbing (scheduler hook, sinks, noise,
/// labels), the abort cause and the outcome's ingredients.
pub(crate) struct Book {
    pub model: ModelState,
    /// Consulted by the model engine only; a native run holds a
    /// [`FifoScheduler`] placeholder here.
    scheduler: Box<dyn Scheduler>,
    noise: Box<dyn NoiseMaker>,
    sinks: Vec<Box<dyn EventSink>>,
    sink_filter: ResolvedFilter,
    noise_filter: ResolvedFilter,
    pub opts: ExecutionOptions,
    pub stats: ExecStats,
    pub abort: Option<OutcomeKind>,
    pub completed: bool,
    /// Threads started and not yet returned from [`thread_main`]; the
    /// native teardown waits for this to drain.
    pub live: u32,
    pub os_handles: Vec<Done>,
    seq: u64,
    labels: Vec<String>,
    label_idx: HashMap<String, u32>,
    assert_failures: Vec<AssertFailure>,
    /// First torn read per variable id (native only: model loads never
    /// tear), ordered so the synthetic failures are deterministic.
    torn: BTreeMap<u32, (ThreadId, Loc)>,
    scratch_runnable: Vec<ThreadId>,
    /// RNG driving spurious wakeups (None when the feature is off).
    spurious_rng: Option<ChaCha8Rng>,
    /// Model engine: one wait slot per registered thread, indexed by id and
    /// allocated as threads register (empty natively).
    slots: Vec<Arc<Condvar>>,
}

impl Book {
    /// Intern a label string, returning its dense index.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&i) = self.label_idx.get(label) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_idx.insert(label.to_string(), i);
        i
    }

    /// Record a failed assertion; returns its interned label.
    pub fn record_failure(&mut self, me: ThreadId, label: &str, loc: Loc) -> u32 {
        if self.stats.first_failure_step.is_none() {
            self.stats.first_failure_step = Some(self.stats.sched_points);
        }
        self.assert_failures.push(AssertFailure {
            thread: me,
            label: label.to_string(),
            loc,
        });
        self.intern_label(label)
    }

    /// Record a torn read of `var` (only the first one per variable is
    /// reported).
    fn record_torn(&mut self, me: ThreadId, var: VarId, loc: Loc) {
        self.torn.entry(var.0).or_insert((me, loc));
    }

    /// Record an abort cause (first one wins). Failure aborts (anything but
    /// step-limit exhaustion, which is a budget artifact) stamp
    /// `first_failure_step` if no assertion failed earlier.
    pub fn do_abort(&mut self, kind: OutcomeKind) {
        if self.abort.is_none() {
            if !matches!(kind, OutcomeKind::StepLimit) && self.stats.first_failure_step.is_none() {
                self.stats.first_failure_step = Some(self.stats.sched_points);
            }
            self.abort = Some(kind);
        }
    }

    /// Unwind the calling thread if the execution is aborting.
    pub fn check_abort(&self) {
        if self.abort.is_some() {
            panic::panic_any(AbortToken);
        }
    }

    /// Dispatch one event stamped `time` to the scheduler's observation
    /// hook, the sinks (subject to the sink plan) and the noise maker
    /// (subject to the noise plan). Returns the noise decision.
    fn dispatch(&mut self, me: ThreadId, loc: Loc, op: Op, time: u64) -> NoiseDecision {
        self.stats.events += 1;
        let ev = Event {
            seq: self.seq,
            time,
            thread: me,
            loc,
            op,
            locks_held: Arc::clone(&self.model.threads[me.index()].held_snapshot),
        };
        self.seq += 1;
        self.scheduler.on_event(&ev);
        if self.sink_filter.selects(&ev) {
            for s in &mut self.sinks {
                s.on_event(&ev);
            }
        }
        if self.noise_filter.selects(&ev) {
            self.model.collect_runnable(&mut self.scratch_runnable);
            let view = NoiseView {
                runnable: self.scratch_runnable.len(),
                step: self.stats.sched_points,
                time,
            };
            self.noise.decide(&ev, &view)
        } else {
            NoiseDecision::None
        }
    }

    /// With the configured probability, wake one condition waiter without
    /// a notify — a spurious wakeup. The woken thread re-acquires its lock
    /// and returns from `wait` as if notified; correct code re-checks its
    /// predicate, buggy code proceeds on a false assumption.
    fn maybe_spurious_wakeup(&mut self) {
        use rand::Rng;
        let Some(rng) = self.spurious_rng.as_mut() else {
            return;
        };
        let p = self.opts.spurious_wakeups.unwrap_or(0.0);
        if p <= 0.0 || !rng.gen_bool(p) {
            return;
        }
        // Collect cond waiters deterministically (id order).
        let waiters: Vec<usize> = self
            .model
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(
                    t.status,
                    Status::Blocked(BlockReason::Cond(_, _))
                        | Status::Blocked(BlockReason::CondTimed(_, _, _))
                )
            })
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        let victim = waiters[rng.gen_range(0..waiters.len())];
        let tid = ThreadId(victim as u32);
        if let Status::Blocked(BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _)) =
            self.model.threads[victim].status
        {
            self.model.cond_queues[c.index()].retain(|q| *q != tid);
            self.model.threads[victim].timed_out = false;
            self.model.threads[victim].status = Status::Ready;
            self.stats.spurious_wakeups += 1;
        }
    }

    /// Model engine's scheduling step: find the runnable set (advancing
    /// virtual time if everyone is asleep), detect termination and
    /// deadlock, and hand the token to the scheduler's pick.
    ///
    /// `prev` is the thread whose operation triggered this point; its status
    /// must already reflect the operation's effect (Ready / Blocked /
    /// Sleeping / Finished).
    fn schedule_next(&mut self, prev: Option<ThreadId>, forced_yield: bool) {
        self.stats.sched_points += 1;
        if self.stats.sched_points > self.opts.max_steps {
            self.do_abort(OutcomeKind::StepLimit);
            return;
        }
        self.model.current = None;
        // Virtual time advances one tick per scheduling point, so sleepers
        // and timed waits make progress even while other threads stay busy;
        // the loop below additionally fast-forwards when everyone is asleep.
        let now = self.model.time + 1;
        self.model.advance_time_to(now);
        self.maybe_spurious_wakeup();
        loop {
            self.model.collect_runnable(&mut self.scratch_runnable);
            if !self.scratch_runnable.is_empty() {
                break;
            }
            if self.model.all_finished() {
                self.completed = true;
                return;
            }
            if let Some(wake) = self.model.next_wake_time() {
                self.model.advance_time_to(wake);
                continue;
            }
            let info = self.model.deadlock_info();
            self.do_abort(OutcomeKind::Deadlock(info));
            return;
        }
        let view = SchedView {
            runnable: &self.scratch_runnable,
            prev,
            forced_yield,
            step: self.stats.sched_points,
            time: self.model.time,
        };
        let mut pick = self.scheduler.pick(&view);
        if self.scratch_runnable.binary_search(&pick).is_err() {
            self.stats.scheduler_faults += 1;
            pick = self.scratch_runnable[0];
        }
        if prev.is_some() && prev != Some(pick) {
            self.stats.context_switches += 1;
        }
        self.model.threads[pick.index()].status = Status::Running;
        self.model.current = Some(pick);
    }
}

/// The part of an execution that differs between engines. The hooks on
/// [`Rt`] match on it; the operations in [`ThreadCtx`] never do.
pub(crate) enum Engine {
    /// Token passing: exactly one thread runs between scheduling points,
    /// parked on its own wait slot otherwise; virtual time.
    Model,
    /// Real OS threads over a physical variable store; wall-clock time.
    Native(NativeEngine),
}

/// One execution: the shared book behind its mutex, the condition
/// variable the harness waits on (and, natively, every blocked thread),
/// and the engine. Model threads park on their own slots in the book.
pub(crate) struct Rt {
    pub mx: Mutex<Book>,
    pub cv: Condvar,
    pub engine: Engine,
}

pub(crate) type Guard<'a> = MutexGuard<'a, Book>;

impl Rt {
    /// The engine's clock: virtual ticks (model) or microseconds since
    /// the run started (native).
    pub fn now(&self, g: &Book) -> u64 {
        match &self.engine {
            Engine::Model => g.model.time,
            Engine::Native(n) => n.now_micros(),
        }
    }

    /// The clock reading `ticks` (at least one) ticks from now.
    pub fn ticks_from_now(&self, g: &Book, ticks: u32) -> u64 {
        let tick = match self.engine {
            Engine::Model => 1,
            Engine::Native(_) => NATIVE_TICK_US,
        };
        self.now(g) + u64::from(ticks.max(1)) * tick
    }

    /// Emit one event and return its noise decision, which only an op's
    /// final event (and `ThreadStart`) applies, through [`Self::step`].
    /// Natively every event is a scheduling point counted against
    /// `max_steps`; the model counts points when it schedules.
    pub fn emit(&self, g: &mut Book, me: ThreadId, loc: Loc, op: Op) -> NoiseDecision {
        if let Engine::Native(_) = self.engine {
            g.check_abort();
            g.stats.sched_points += 1;
            if g.stats.sched_points > g.opts.max_steps {
                self.raise_abort(g, OutcomeKind::StepLimit);
                g.check_abort();
            }
        }
        let time = self.now(g);
        g.dispatch(me, loc, op, time)
    }

    /// Emit an operation's final event and apply its noise decision.
    pub fn finish(&self, mut g: Guard<'_>, me: ThreadId, loc: Loc, op: Op) {
        let nd = self.emit(&mut g, me, loc, op);
        self.step(g, me, nd);
    }

    /// What follows an operation's final event: count and apply the noise
    /// decision, then move on — the model schedules and parks until the
    /// token returns; a native thread releases the book and keeps running.
    pub fn step(&self, mut g: Guard<'_>, me: ThreadId, nd: NoiseDecision) {
        match nd {
            NoiseDecision::None => {}
            NoiseDecision::Yield => {
                g.stats.noise_injections += 1;
                g.stats.forced_yields += 1;
            }
            NoiseDecision::Sleep(ticks) => {
                g.stats.noise_injections += 1;
                let wake = self.ticks_from_now(&g, ticks);
                return self.block(&mut g, me, Status::Sleeping(wake));
            }
        }
        match &self.engine {
            Engine::Model => {
                let t = &mut g.model.threads[me.index()];
                if t.status == Status::Running {
                    t.status = Status::Ready;
                }
                self.pass_token(&mut g, me, nd == NoiseDecision::Yield);
            }
            Engine::Native(_) => {
                g.check_abort();
                drop(g);
                if nd == NoiseDecision::Yield {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Block `me` until what `st` waits for holds (a `Blocked` status) or
    /// its wake time passes (`Sleeping`, timed waits). Returns with `me`
    /// running again; unwinds on abort.
    pub fn block(&self, g: &mut Guard<'_>, me: ThreadId, st: Status) {
        match &self.engine {
            Engine::Model => loop {
                g.model.threads[me.index()].status = st;
                self.pass_token(g, me, false);
                // Every wake path makes the condition true before it marks
                // the thread Ready, but another thread may take a released
                // lock or permit before this one runs again.
                match st {
                    Status::Blocked(r) if !g.model.unblocked(me, r) => {}
                    _ => return,
                }
            },
            Engine::Native(n) => n.block(&self.cv, g, me, st),
        }
    }

    /// Model engine: run one scheduling step, wake whom it concerns and
    /// park until the token returns to `me`.
    fn pass_token(&self, g: &mut Guard<'_>, me: ThreadId, forced_yield: bool) {
        g.schedule_next(Some(me), forced_yield);
        self.wake_after_step(g, Some(me));
        self.park(g, me);
    }

    /// Model engine: the wake rule after a scheduling step triggered by
    /// `prev`. An abort wakes the harness and every registered thread so
    /// they unwind; completion wakes the harness; a token that moved wakes
    /// its new holder's slot; a token that stayed with `prev` wakes no one.
    fn wake_after_step(&self, g: &mut Book, prev: Option<ThreadId>) {
        g.model.check_invariants();
        if g.abort.is_some() {
            self.wake_all(g);
        } else if g.completed {
            self.cv.notify_one();
        } else if let Some(next) = g.model.current.filter(|&t| Some(t) != prev) {
            g.stats.token_wakes += 1;
            g.slots[next.index()].notify_one();
        }
    }

    /// Wake the harness and every waiting thread.
    fn wake_all(&self, g: &mut Book) {
        self.cv.notify_all();
        for slot in &g.slots {
            slot.notify_one();
        }
        g.stats.token_wakes += g.slots.len() as u64;
    }

    /// Model engine: wait on `me`'s slot until `me` holds the token (or has
    /// finished). Must be called with the guard held; returns with the
    /// guard held.
    fn park(&self, g: &mut Guard<'_>, me: ThreadId) {
        let mut slot = None;
        loop {
            g.check_abort();
            let st = g.model.threads[me.index()].status;
            if st == Status::Finished || (g.model.current == Some(me) && st == Status::Running) {
                return;
            }
            slot.get_or_insert_with(|| Arc::clone(&g.slots[me.index()]))
                .wait(g);
        }
    }

    /// The caller just made some blocked thread's wait condition true.
    /// Model wake paths already marked it Ready; native waiters re-check.
    pub fn wake_waiters(&self) {
        if let Engine::Native(_) = self.engine {
            self.cv.notify_all();
        }
    }

    /// A voluntary yield also yields the OS thread natively; under the
    /// model the scheduling point is the yield.
    pub fn os_yield(&self) {
        if let Engine::Native(_) = self.engine {
            std::thread::yield_now();
        }
    }

    /// Record an abort (first cause wins) and wake the harness and every
    /// waiting thread so it unwinds.
    pub fn raise_abort(&self, g: &mut Book, kind: OutcomeKind) {
        g.do_abort(kind);
        self.wake_all(g);
    }

    /// Read `var` as `me` and lock the book. The model honours the thread's
    /// weak-visibility cache; a native load happens off the book lock, so
    /// racing plain accesses can tear.
    pub fn load(&self, me: ThreadId, var: VarId, loc: Loc) -> (Guard<'_>, i64) {
        match &self.engine {
            Engine::Model => {
                let mut g = self.mx.lock();
                let value = g.model.read_var(me, var);
                (g, value)
            }
            Engine::Native(n) => {
                let (value, torn) = n.load(var);
                (self.lock_noting(torn, me, var, loc), value)
            }
        }
    }

    /// Write `var` as `me` and lock the book.
    pub fn store(&self, me: ThreadId, var: VarId, value: i64) -> Guard<'_> {
        match &self.engine {
            Engine::Model => {
                let mut g = self.mx.lock();
                g.model.write_var(me, var, value);
                g
            }
            Engine::Native(n) => {
                n.store(var, value);
                self.mx.lock()
            }
        }
    }

    /// Atomically replace `var` by `f(old)` and lock the book; returns
    /// `(old, new)`. Atomics behave as volatile accesses.
    pub fn rmw(
        &self,
        me: ThreadId,
        var: VarId,
        loc: Loc,
        f: impl FnOnce(i64) -> i64,
    ) -> (Guard<'_>, i64, i64) {
        match &self.engine {
            Engine::Model => {
                let mut g = self.mx.lock();
                let old = g.model.vars[var.index()];
                let new = f(old);
                g.model.vars[var.index()] = new;
                g.model.threads[me.index()].cache.insert(var, new);
                (g, old, new)
            }
            Engine::Native(n) => {
                let (old, new, torn) = n.rmw(var, f);
                (self.lock_noting(torn, me, var, loc), old, new)
            }
        }
    }

    fn lock_noting(&self, torn: bool, me: ThreadId, var: VarId, loc: Loc) -> Guard<'_> {
        let mut g = self.mx.lock();
        if torn {
            g.record_torn(me, var, loc);
        }
        g
    }

    /// Register a thread running `body` and start it on a pooled worker.
    pub fn start_thread(
        self: &Arc<Self>,
        g: &mut Book,
        name: String,
        body: Box<dyn FnOnce(&mut ThreadCtx) + Send>,
    ) -> ThreadId {
        let me = ThreadId(g.model.threads.len() as u32);
        g.model.threads.push(ThreadState::new(name));
        g.stats.threads += 1;
        g.live += 1;
        if let Engine::Model = self.engine {
            g.slots.push(Arc::new(Condvar::new()));
        }
        let rt = Arc::clone(self);
        let done = pool::run(Box::new(move || thread_main(rt, me, body)));
        g.stats.os_spawns += u32::from(done.spawned());
        g.os_handles.push(done);
        me
    }

    /// `me`'s body returned: announce the exit, mark it finished, wake its
    /// joiners and detect completion; the model hands the token on, or
    /// wakes the harness when `me` was the last thread.
    fn exit_thread(&self, g: &mut Guard<'_>, me: ThreadId) {
        if g.abort.is_none() {
            // A native step-limit abort may fire here; the exit stands.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                self.emit(g, me, Loc::SYNTHETIC, Op::ThreadExit)
            }));
        }
        g.model.threads[me.index()].status = Status::Finished;
        g.model.finish_order.push(me);
        for t in g.model.threads.iter_mut() {
            if t.status == Status::Blocked(BlockReason::Join(me)) {
                t.status = Status::Ready;
            }
        }
        g.completed = g.model.all_finished();
        if let Engine::Model = self.engine {
            if !g.completed {
                g.schedule_next(Some(me), false);
            }
            self.wake_after_step(g, Some(me));
        }
    }

    /// Run the registered main thread to the end: the model hands out the
    /// first token and waits; the native engine runs its watchdog.
    fn run_to_end(&self, mut g: Guard<'_>) {
        match &self.engine {
            Engine::Model => {
                g.schedule_next(None, false);
                self.wake_after_step(&mut g, None);
                while !(g.completed || g.abort.is_some()) {
                    self.cv.wait(&mut g);
                }
                let handles = std::mem::take(&mut g.os_handles);
                drop(g);
                for h in handles {
                    h.wait();
                }
            }
            Engine::Native(n) => n.watch(self, g),
        }
    }

    /// Assemble the outcome once every thread has returned or been
    /// detached.
    fn outcome(&self, var_table: VarTable, started: Instant) -> Outcome {
        let mut g = self.mx.lock();
        for s in &mut g.sinks {
            s.finish();
        }
        let kind = g.abort.take().unwrap_or(OutcomeKind::Completed);
        let mut assert_failures = g.assert_failures.clone();
        for (var, &(thread, loc)) in &g.torn {
            assert_failures.push(AssertFailure {
                thread,
                label: format!("race:torn-read:{}", var_table.name(VarId(*var))),
                loc,
            });
        }
        g.stats.virtual_time = self.now(&g);
        g.stats.wall = started.elapsed();
        let final_vars = match &self.engine {
            Engine::Model => g.model.vars.clone(),
            Engine::Native(n) => n.values(),
        };
        Outcome {
            program: g.model.program_name.clone(),
            kind,
            final_vars,
            var_table,
            finish_order: g.model.finish_order.clone(),
            thread_names: g.model.threads.iter().map(|t| t.name.clone()).collect(),
            assert_failures,
            stats: g.stats.clone(),
        }
    }
}

/// The message of a program panic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(m) = payload.downcast_ref::<ModelMisuse>() {
        m.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Body run by each thread's pooled worker, under either engine.
fn thread_main(rt: Arc<Rt>, me: ThreadId, body: Box<dyn FnOnce(&mut ThreadCtx) + Send>) {
    // Wait to be started (the model's first token), then announce
    // ThreadStart; an abort before that unwinds here.
    let started = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut g = rt.mx.lock();
        match rt.engine {
            Engine::Model => rt.park(&mut g, me),
            Engine::Native(_) => {
                g.check_abort();
                g.model.threads[me.index()].status = Status::Running;
            }
        }
        g.model.threads[me.index()].flush_cache(); // start = sync point
        let seed = g.opts.program_seed;
        let nd = rt.emit(&mut g, me, Loc::SYNTHETIC, Op::ThreadStart);
        rt.step(g, me, nd);
        seed
    }));
    let result = started.and_then(|seed| {
        let mut ctx = ThreadCtx::new(Arc::clone(&rt), me, seed);
        panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
    });
    let mut g = rt.mx.lock();
    match result {
        Ok(()) => rt.exit_thread(&mut g, me),
        Err(payload) if payload.is::<AbortToken>() => {} // cooperative teardown
        Err(payload) => {
            let message = panic_message(&*payload);
            rt.raise_abort(
                &mut g,
                OutcomeKind::ThreadPanic {
                    thread: me,
                    message,
                },
            );
        }
    }
    g.live -= 1;
    // The native watchdog waits for live threads to drain; the model woke
    // whom this thread's exit concerned in `exit_thread` or `raise_abort`.
    if let Engine::Native(_) = rt.engine {
        rt.cv.notify_all();
    }
}

/// Builder-style handle for running one execution of a [`Program`].
///
/// Defaults: [`FifoScheduler`] (the deterministic "unit test" scheduler),
/// no noise, no sinks, full instrumentation, 1M-step budget.
pub struct Execution<'p> {
    program: &'p Program,
    scheduler: Box<dyn Scheduler>,
    noise: Box<dyn NoiseMaker>,
    sinks: Vec<Box<dyn EventSink>>,
    sink_plan: Option<InstrumentationPlan>,
    noise_plan: Option<InstrumentationPlan>,
    opts: ExecutionOptions,
}

impl<'p> Execution<'p> {
    /// Prepare an execution of `program` with default settings.
    pub fn new(program: &'p Program) -> Self {
        Execution {
            program,
            scheduler: Box::new(FifoScheduler),
            noise: Box::new(NoNoise),
            sinks: Vec::new(),
            sink_plan: None,
            noise_plan: None,
            opts: ExecutionOptions::default(),
        }
    }

    /// Use this scheduler.
    pub fn scheduler(mut self, s: Box<dyn Scheduler>) -> Self {
        self.scheduler = s;
        self
    }

    /// Use this noise maker.
    pub fn noise(mut self, n: Box<dyn NoiseMaker>) -> Self {
        self.noise = n;
        self
    }

    /// Attach an event sink (may be called repeatedly; sinks see events in
    /// attachment order).
    pub fn sink(mut self, s: Box<dyn EventSink>) -> Self {
        self.sinks.push(s);
        self
    }

    /// Instrumentation plan governing what the sinks see (default: all).
    pub fn plan(mut self, p: InstrumentationPlan) -> Self {
        self.sink_plan = Some(p);
        self
    }

    /// Instrumentation plan governing where the noise maker is consulted
    /// (default: all) — the paper's "where calls to the heuristic should be
    /// embedded" research knob.
    pub fn noise_plan(mut self, p: InstrumentationPlan) -> Self {
        self.noise_plan = Some(p);
        self
    }

    /// Replace all options at once.
    pub fn options(mut self, opts: ExecutionOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the scheduling-point budget.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.opts.max_steps = n;
        self
    }

    /// Abort at the first failed assertion.
    pub fn stop_on_assert(mut self, yes: bool) -> Self {
        self.opts.stop_on_assert = yes;
        self
    }

    /// Seed for program-visible randomness ([`ThreadCtx::random`]).
    pub fn program_seed(mut self, seed: u64) -> Self {
        self.opts.program_seed = seed;
        self
    }

    /// Enable spurious condition-variable wakeups with the given per-point
    /// probability (see [`ExecutionOptions::spurious_wakeups`]).
    pub fn spurious_wakeups(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability required");
        self.opts.spurious_wakeups = Some(p);
        self
    }

    /// Choose the execution engine (see [`crate::backend`]). The native
    /// engine ignores the configured scheduler — the OS schedules.
    pub fn backend(mut self, b: crate::RuntimeBackend) -> Self {
        self.opts.backend = b;
        self
    }

    /// Wall-clock budget for the native engine's watchdog (see
    /// [`ExecutionOptions::wall_budget`]).
    pub fn wall_budget(mut self, d: std::time::Duration) -> Self {
        self.opts.wall_budget = Some(d);
        self
    }

    /// Run the program to completion (or deadlock / step limit / panic) and
    /// return the outcome.
    pub fn run(self) -> Outcome {
        install_quiet_hook();
        let started = Instant::now();
        let var_table = self.program.var_table();
        let sink_filter = self
            .sink_plan
            .map_or_else(ResolvedFilter::pass_all, |p| p.resolve(&var_table));
        let noise_filter = self
            .noise_plan
            .map_or_else(ResolvedFilter::pass_all, |p| p.resolve(&var_table));
        let (engine, scheduler): (_, Box<dyn Scheduler>) = if self.opts.backend.is_native() {
            let engine = NativeEngine::new(self.program, started);
            (Engine::Native(engine), Box::new(FifoScheduler))
        } else {
            (Engine::Model, self.scheduler)
        };
        let spurious_rng = self
            .opts
            .spurious_wakeups
            .map(|_| ChaCha8Rng::seed_from_u64(self.opts.program_seed ^ 0x5973_7075_7269_6f75));
        let book = Book {
            model: ModelState::for_program(self.program),
            scheduler,
            noise: self.noise,
            sinks: self.sinks,
            sink_filter,
            noise_filter,
            opts: self.opts,
            stats: ExecStats::default(),
            abort: None,
            completed: false,
            live: 0,
            os_handles: Vec::new(),
            seq: 0,
            labels: Vec::new(),
            label_idx: HashMap::new(),
            assert_failures: Vec::new(),
            torn: BTreeMap::new(),
            scratch_runnable: Vec::new(),
            spurious_rng,
            slots: Vec::new(),
        };
        let rt = Arc::new(Rt {
            mx: Mutex::new(book),
            cv: Condvar::new(),
            engine,
        });
        let mut g = rt.mx.lock();
        let entry = self.program.entry();
        rt.start_thread(&mut g, "main".to_string(), Box::new(move |ctx| entry(ctx)));
        rt.run_to_end(g);
        rt.outcome(var_table, started)
    }
}
