//! Crate-private model state: variables, locks, condition variables,
//! semaphores, barriers and thread records.
//!
//! All mutation happens under the execution's mutex in `exec.rs`, under
//! either engine; nothing here synchronizes on its own. The model is deliberately simple — it is a
//! *specification-level* shared memory, not an efficient one — because every
//! operation is already serialized by the token-passing controller.

use crate::outcome::{DeadlockInfo, WaitEdge};
use crate::program::{Program, VarSpec};
use mtt_instrument::{BarrierId, CondId, LockId, ThreadId, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a thread cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting to acquire a mutex.
    Lock(LockId),
    /// Waiting for a notify; the lock to re-acquire afterwards.
    Cond(CondId, LockId),
    /// Timed wait: like `Cond` plus a virtual-time deadline.
    CondTimed(CondId, LockId, u64),
    /// Waiting for a semaphore permit.
    Sem(SemIdAlias),
    /// Waiting at a barrier.
    Barrier(BarrierId),
    /// Waiting for a thread to finish.
    Join(ThreadId),
}

// `SemId` spelled via alias to keep the enum arms visually aligned.
pub(crate) type SemIdAlias = mtt_instrument::SemId;

/// Scheduling status of one model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Eligible to be picked.
    Ready,
    /// Holds the execution token right now.
    Running,
    /// Cannot run until some model action unblocks it.
    Blocked(BlockReason),
    /// Asleep until the given virtual time.
    Sleeping(u64),
    /// Terminated.
    Finished,
}

/// Per-thread record.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub name: String,
    pub status: Status,
    /// Locks held, in acquisition order.
    pub held: Vec<LockId>,
    /// Immutable snapshot of `held`, shared into events (pointer clone per
    /// event instead of a vector clone — the hot path optimization).
    pub held_snapshot: Arc<[LockId]>,
    /// Weak-visibility cache for non-volatile variables: value this thread
    /// last observed/wrote, possibly stale w.r.t. the shared store. Cleared
    /// at every synchronization operation.
    pub cache: HashMap<VarId, i64>,
    /// Set when the thread's timed wait ended by timeout rather than notify.
    pub timed_out: bool,
}

impl ThreadState {
    pub fn new(name: String) -> Self {
        ThreadState {
            name,
            status: Status::Ready,
            held: Vec::new(),
            held_snapshot: Arc::from(Vec::new()),
            cache: HashMap::new(),
            timed_out: false,
        }
    }

    fn refresh_snapshot(&mut self) {
        self.held_snapshot = Arc::from(self.held.clone());
    }

    /// Drop the weak-visibility cache: the thread just performed a
    /// synchronization action, so it must observe fresh values.
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }
}

/// The whole shared-model state of one execution.
#[derive(Debug)]
pub(crate) struct ModelState {
    pub program_name: String,
    pub var_specs: Vec<VarSpec>,
    pub vars: Vec<i64>,
    pub lock_names: Vec<String>,
    pub lock_owner: Vec<Option<ThreadId>>,
    pub cond_names: Vec<String>,
    /// FIFO wait queue per condition variable.
    pub cond_queues: Vec<Vec<ThreadId>>,
    pub sem_names: Vec<String>,
    pub sem_permits: Vec<u32>,
    pub barrier_names: Vec<String>,
    pub barrier_parties: Vec<u32>,
    pub barrier_arrived: Vec<Vec<ThreadId>>,
    pub threads: Vec<ThreadState>,
    pub finish_order: Vec<ThreadId>,
    /// Holder of the execution token.
    pub current: Option<ThreadId>,
    /// Virtual time.
    pub time: u64,
}

impl ModelState {
    pub fn for_program(program: &Program) -> Self {
        ModelState {
            program_name: program.name().to_string(),
            var_specs: program.vars().to_vec(),
            vars: program.vars().iter().map(|v| v.init).collect(),
            lock_names: program.locks().to_vec(),
            lock_owner: vec![None; program.locks().len()],
            cond_names: program.conds().to_vec(),
            cond_queues: vec![Vec::new(); program.conds().len()],
            sem_names: program.sems().iter().map(|s| s.name.clone()).collect(),
            sem_permits: program.sems().iter().map(|s| s.permits).collect(),
            barrier_names: program.barriers().iter().map(|b| b.name.clone()).collect(),
            barrier_parties: program.barriers().iter().map(|b| b.parties).collect(),
            barrier_arrived: vec![Vec::new(); program.barriers().len()],
            threads: Vec::new(),
            finish_order: Vec::new(),
            current: None,
            time: 0,
        }
    }

    pub fn thread(&mut self, t: ThreadId) -> &mut ThreadState {
        &mut self.threads[t.index()]
    }

    /// Read `var` as seen by `reader`, honouring the weak-visibility model.
    pub fn read_var(&mut self, reader: ThreadId, var: VarId) -> i64 {
        let fresh = self.vars[var.index()];
        if self.var_specs[var.index()].volatile {
            return fresh;
        }
        let cache = &mut self.threads[reader.index()].cache;
        *cache.entry(var).or_insert(fresh)
    }

    /// Write `var` (always hits the shared store; the writer's own cache is
    /// updated so it observes its own program order).
    pub fn write_var(&mut self, writer: ThreadId, var: VarId, value: i64) {
        self.vars[var.index()] = value;
        if !self.var_specs[var.index()].volatile {
            self.threads[writer.index()].cache.insert(var, value);
        }
    }

    /// Grant `lock` to `owner` (caller checked it is free) and flush the
    /// owner's cache (acquire semantics).
    pub fn acquire_lock(&mut self, owner: ThreadId, lock: LockId) {
        debug_assert!(self.lock_owner[lock.index()].is_none());
        self.lock_owner[lock.index()] = Some(owner);
        let t = self.thread(owner);
        t.held.push(lock);
        t.refresh_snapshot();
        t.flush_cache();
    }

    /// Release `lock` and wake every thread blocked on it (barging: they
    /// re-compete when scheduled). Returns `false` on misuse (not owner).
    pub fn release_lock(&mut self, owner: ThreadId, lock: LockId) -> bool {
        if self.lock_owner[lock.index()] != Some(owner) {
            return false;
        }
        self.lock_owner[lock.index()] = None;
        {
            let t = self.thread(owner);
            t.held.retain(|l| *l != lock);
            t.refresh_snapshot();
            t.flush_cache(); // release is also a sync action
        }
        for ts in self.threads.iter_mut() {
            if ts.status == Status::Blocked(BlockReason::Lock(lock)) {
                ts.status = Status::Ready;
            }
        }
        true
    }

    /// Threads currently able to run (Ready or Running), ascending.
    pub fn collect_runnable(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        for (i, t) in self.threads.iter().enumerate() {
            if matches!(t.status, Status::Ready | Status::Running) {
                out.push(ThreadId(i as u32));
            }
        }
    }

    /// Earliest virtual time at which some sleeper/timed-waiter wakes.
    pub fn next_wake_time(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.status {
                Status::Sleeping(at) => Some(at),
                Status::Blocked(BlockReason::CondTimed(_, _, at)) => Some(at),
                _ => None,
            })
            .min()
    }

    /// Advance virtual time to `now`, waking due sleepers and timing out due
    /// timed waits. Returns how many threads woke.
    pub fn advance_time_to(&mut self, now: u64) -> usize {
        self.time = self.time.max(now);
        (0..self.threads.len())
            .filter(|&i| self.wake_if_due(ThreadId(i as u32), now))
            .count()
    }

    /// Wake `tid` if it sleeps, or waits with a deadline, until `now` or
    /// earlier; a timed-out wait leaves its condition queue. Returns
    /// whether it woke.
    pub fn wake_if_due(&mut self, tid: ThreadId, now: u64) -> bool {
        let t = &mut self.threads[tid.index()];
        match t.status {
            Status::Sleeping(at) if at <= now => {}
            Status::Blocked(BlockReason::CondTimed(c, _, at)) if at <= now => {
                t.timed_out = true;
                self.cond_queues[c.index()].retain(|q| *q != tid);
            }
            _ => return false,
        }
        self.threads[tid.index()].status = Status::Ready;
        true
    }

    /// The wake condition of `me`, blocked for `reason`. Every model wake
    /// path makes it true before it marks the thread Ready; the native
    /// engine polls it, and its watchdog proves deadlocks with it.
    pub fn unblocked(&self, me: ThreadId, reason: BlockReason) -> bool {
        match reason {
            BlockReason::Lock(l) => self.lock_owner[l.index()].is_none(),
            BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _) => {
                !self.cond_queues[c.index()].contains(&me)
            }
            BlockReason::Sem(s) => self.sem_permits[s.index()] > 0,
            BlockReason::Barrier(b) => !self.barrier_arrived[b.index()].contains(&me),
            BlockReason::Join(t) => self.threads[t.index()].status == Status::Finished,
        }
    }

    /// True when every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    /// Build the deadlock diagnostic for the current all-blocked state.
    pub fn deadlock_info(&self) -> DeadlockInfo {
        let mut waiting = Vec::new();
        // thread -> thread edges where the waited-for resource has a unique
        // owner (locks, joins); used for cycle detection.
        let mut edge: HashMap<ThreadId, ThreadId> = HashMap::new();
        for (i, t) in self.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let reason = match t.status {
                Status::Blocked(r) => r,
                _ => continue,
            };
            let w = match reason {
                BlockReason::Lock(l) => {
                    let owner = self.lock_owner[l.index()];
                    if let Some(o) = owner {
                        edge.insert(tid, o);
                    }
                    WaitEdge::Lock {
                        lock: self.lock_names[l.index()].clone(),
                        owner,
                    }
                }
                BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _) => WaitEdge::Cond {
                    cond: self.cond_names[c.index()].clone(),
                },
                BlockReason::Sem(s) => WaitEdge::Sem {
                    sem: self.sem_names[s.index()].clone(),
                },
                BlockReason::Barrier(b) => WaitEdge::Barrier {
                    barrier: self.barrier_names[b.index()].clone(),
                },
                BlockReason::Join(target) => {
                    if self.threads[target.index()].status != Status::Finished {
                        edge.insert(tid, target);
                    }
                    WaitEdge::Join { target }
                }
            };
            waiting.push((tid, w));
        }
        // Find a cycle in the single-successor graph by walking from each
        // node with a visited map (graph is tiny; O(n²) worst case is fine).
        let mut cycle = Vec::new();
        'outer: for start in edge.keys().copied() {
            let mut path = vec![start];
            let mut cur = start;
            while let Some(&next) = edge.get(&cur) {
                if let Some(pos) = path.iter().position(|p| *p == next) {
                    cycle = path[pos..].to_vec();
                    break 'outer;
                }
                path.push(next);
                cur = next;
                if path.len() > self.threads.len() {
                    break;
                }
            }
        }
        DeadlockInfo { waiting, cycle }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn model_with(vars: &[(&str, i64, bool)], locks: &[&str]) -> ModelState {
        let mut b = ProgramBuilder::new("m");
        for (n, init, vol) in vars {
            if *vol {
                b.var(*n, *init);
            } else {
                b.var_nonvolatile(*n, *init);
            }
        }
        for l in locks {
            b.lock(*l);
        }
        b.entry(|_| {});
        let p = b.build();
        let mut m = ModelState::for_program(&p);
        m.threads.push(ThreadState::new("t0".into()));
        m.threads.push(ThreadState::new("t1".into()));
        m
    }

    #[test]
    fn volatile_reads_always_fresh() {
        let mut m = model_with(&[("v", 0, true)], &[]);
        m.write_var(ThreadId(0), VarId(0), 5);
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 5);
    }

    #[test]
    fn nonvolatile_reads_can_be_stale_until_flush() {
        let mut m = model_with(&[("nv", 0, false)], &[]);
        // t1 caches the initial value.
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 0);
        // t0 writes; t1 still sees its cached 0.
        m.write_var(ThreadId(0), VarId(0), 9);
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 0);
        // t0 sees its own write (program order).
        assert_eq!(m.read_var(ThreadId(0), VarId(0)), 9);
        // After a sync action t1 observes the fresh value.
        m.thread(ThreadId(1)).flush_cache();
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 9);
    }

    #[test]
    fn lock_acquire_release_and_wakeup() {
        let mut m = model_with(&[], &["l"]);
        let l = LockId(0);
        m.acquire_lock(ThreadId(0), l);
        assert_eq!(m.lock_owner[0], Some(ThreadId(0)));
        assert_eq!(&*m.thread(ThreadId(0)).held_snapshot, &[l]);
        // t1 blocks on l.
        m.thread(ThreadId(1)).status = Status::Blocked(BlockReason::Lock(l));
        assert!(m.release_lock(ThreadId(0), l));
        assert_eq!(m.thread(ThreadId(1)).status, Status::Ready);
        assert!(m.thread(ThreadId(0)).held.is_empty());
        // misuse: releasing again fails.
        assert!(!m.release_lock(ThreadId(0), l));
    }

    #[test]
    fn runnable_collection_and_all_finished() {
        let mut m = model_with(&[], &[]);
        let mut out = Vec::new();
        m.collect_runnable(&mut out);
        assert_eq!(out, vec![ThreadId(0), ThreadId(1)]);
        m.thread(ThreadId(0)).status = Status::Finished;
        m.thread(ThreadId(1)).status = Status::Sleeping(10);
        m.collect_runnable(&mut out);
        assert!(out.is_empty());
        assert!(!m.all_finished());
        m.thread(ThreadId(1)).status = Status::Finished;
        assert!(m.all_finished());
    }

    #[test]
    fn time_advance_wakes_sleepers_and_timed_waits() {
        let mut m = model_with(&[], &["l"]);
        let mut b = ProgramBuilder::new("x");
        b.cond("c");
        // Manually extend the model with one condition.
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(1)]);
        m.thread(ThreadId(0)).status = Status::Sleeping(5);
        m.thread(ThreadId(1)).status =
            Status::Blocked(BlockReason::CondTimed(CondId(0), LockId(0), 8));
        assert_eq!(m.next_wake_time(), Some(5));
        assert_eq!(m.advance_time_to(5), 1);
        assert_eq!(m.thread(ThreadId(0)).status, Status::Ready);
        assert_eq!(m.next_wake_time(), Some(8));
        assert_eq!(m.advance_time_to(8), 1);
        assert!(m.thread(ThreadId(1)).timed_out);
        assert!(m.cond_queues[0].is_empty());
        assert_eq!(m.time, 8);
    }

    #[test]
    fn deadlock_cycle_detection_ab_ba() {
        let mut m = model_with(&[], &["a", "b"]);
        m.acquire_lock(ThreadId(0), LockId(0));
        m.acquire_lock(ThreadId(1), LockId(1));
        m.thread(ThreadId(0)).status = Status::Blocked(BlockReason::Lock(LockId(1)));
        m.thread(ThreadId(1)).status = Status::Blocked(BlockReason::Lock(LockId(0)));
        let info = m.deadlock_info();
        assert!(info.is_cyclic());
        assert_eq!(info.waiting.len(), 2);
        let mut cyc = info.cycle.clone();
        cyc.sort();
        assert_eq!(cyc, vec![ThreadId(0), ThreadId(1)]);
    }

    #[test]
    fn orphaned_cond_wait_is_noncyclic_deadlock() {
        let mut m = model_with(&[], &["l"]);
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(0), ThreadId(1)]);
        m.thread(ThreadId(0)).status = Status::Blocked(BlockReason::Cond(CondId(0), LockId(0)));
        m.thread(ThreadId(1)).status = Status::Blocked(BlockReason::Cond(CondId(0), LockId(0)));
        let info = m.deadlock_info();
        assert!(!info.is_cyclic());
        assert_eq!(info.waiting.len(), 2);
        assert!(matches!(info.waiting[0].1, WaitEdge::Cond { .. }));
    }
}
