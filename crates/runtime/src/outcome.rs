//! Execution outcomes: everything a testing tool may want to know about one
//! run of a model program.

use mtt_instrument::{Loc, ThreadId, VarTable};
use mtt_json::{Json, ToJson};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Why a blocked thread is blocked, as reported in deadlock diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitEdge {
    /// Waiting for a mutex currently owned by `owner`.
    Lock {
        /// Lock name.
        lock: String,
        /// Current owner, if any (a lock abandoned by a finished thread has
        /// an owner that will never release it).
        owner: Option<ThreadId>,
    },
    /// Waiting for a notify on a condition variable.
    Cond {
        /// Condition name.
        cond: String,
    },
    /// Waiting for a semaphore permit.
    Sem {
        /// Semaphore name.
        sem: String,
    },
    /// Waiting at a barrier that never filled.
    Barrier {
        /// Barrier name.
        barrier: String,
    },
    /// Waiting for another thread to finish.
    Join {
        /// The joined thread.
        target: ThreadId,
    },
}

mtt_json::json_enum!(WaitEdge {
    Lock { lock, owner },
    Cond { cond },
    Sem { sem },
    Barrier { barrier },
    Join { target },
});

/// Diagnostic attached to a deadlocked execution.
#[derive(Clone, Debug)]
pub struct DeadlockInfo {
    /// Every blocked thread and what it waits for, at the moment the
    /// runtime found no runnable or sleeping thread.
    pub waiting: Vec<(ThreadId, WaitEdge)>,
    /// Thread ids that form a mutual-wait cycle (empty when the deadlock is
    /// an orphaned wait, e.g. everyone waiting on a condition nobody can
    /// signal).
    pub cycle: Vec<ThreadId>,
}

mtt_json::json_struct!(DeadlockInfo { waiting, cycle });

impl DeadlockInfo {
    /// True when the deadlock is a classic cyclic lock wait.
    pub fn is_cyclic(&self) -> bool {
        !self.cycle.is_empty()
    }
}

/// How an execution ended.
#[derive(Clone, Debug)]
pub enum OutcomeKind {
    /// Every thread ran to completion.
    Completed,
    /// No thread could ever run again.
    Deadlock(DeadlockInfo),
    /// The execution exceeded the configured scheduling-point budget —
    /// the model analogue of a hang / livelock.
    StepLimit,
    /// A model thread panicked in program code (a program bug or misuse of
    /// the model API, e.g. unlocking a lock it does not hold).
    ThreadPanic {
        /// The panicking thread.
        thread: ThreadId,
        /// Rendered panic message.
        message: String,
    },
    /// The execution was stopped early because an assertion failed and the
    /// execution was configured with `stop_on_assert`.
    AssertStop,
}

mtt_json::json_enum!(OutcomeKind {
    Completed,
    Deadlock(info),
    StepLimit,
    ThreadPanic { thread, message },
    AssertStop,
});

impl OutcomeKind {
    /// Short stable tag used in fingerprints and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Deadlock(_) => "deadlock",
            OutcomeKind::StepLimit => "step-limit",
            OutcomeKind::ThreadPanic { .. } => "panic",
            OutcomeKind::AssertStop => "assert-stop",
        }
    }
}

/// One failed executable assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssertFailure {
    /// The thread whose assertion failed.
    pub thread: ThreadId,
    /// The assertion's label.
    pub label: String,
    /// Where the assertion is in the program.
    pub loc: Loc,
}

mtt_json::json_struct!(AssertFailure { thread, label, loc });

/// Cheap counters describing the execution.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Events emitted (before plan filtering).
    pub events: u64,
    /// Scheduling points (== scheduler `pick` calls).
    pub sched_points: u64,
    /// Scheduling points at which the token moved to a different thread
    /// than the one that triggered the point.
    pub context_switches: u64,
    /// Threads created, including main.
    pub threads: u32,
    /// Final virtual time.
    pub virtual_time: u64,
    /// Times the scheduler returned a non-runnable thread and the runtime
    /// fell back (replay divergence indicator).
    pub scheduler_faults: u64,
    /// Noise decisions that disturbed the schedule (yields + sleeps).
    pub noise_injections: u64,
    /// Noise decisions that forced a yield (subset of `noise_injections`).
    pub forced_yields: u64,
    /// Spurious condition-variable wakeups actually injected.
    pub spurious_wakeups: u64,
    /// Scheduling point of the first observed failure — a failed assertion
    /// or an abnormal termination (deadlock, panic, assert-stop). `None`
    /// when the run stayed clean; step-limit exhaustion is a budget
    /// artifact, not a failure, and does not set it.
    pub first_failure_step: Option<u64>,
    /// Times the model engine woke a thread's wait slot: once per token
    /// handoff (the first one plus one per context switch) and once per
    /// registered thread in each abort broadcast. Always 0 natively. Not
    /// serialized, like `wall`: it describes the engine, not the schedule.
    pub token_wakes: u64,
    /// OS threads this run had to create: threads that found no idle
    /// pooled worker (see `pool.rs`). 0 when every thread reused one. Not
    /// serialized, like `token_wakes`: it depends on what ran before in
    /// the same process, not on the schedule.
    pub os_spawns: u32,
    /// Wall-clock duration of the run. Not serialized: wall time is not a
    /// property of the schedule and would break fingerprint stability.
    pub wall: Duration,
}

impl ToJson for ExecStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("events".to_string(), self.events.to_json()),
            ("sched_points".to_string(), self.sched_points.to_json()),
            (
                "context_switches".to_string(),
                self.context_switches.to_json(),
            ),
            ("threads".to_string(), self.threads.to_json()),
            ("virtual_time".to_string(), self.virtual_time.to_json()),
            (
                "scheduler_faults".to_string(),
                self.scheduler_faults.to_json(),
            ),
            (
                "noise_injections".to_string(),
                self.noise_injections.to_json(),
            ),
            ("forced_yields".to_string(), self.forced_yields.to_json()),
            (
                "spurious_wakeups".to_string(),
                self.spurious_wakeups.to_json(),
            ),
            (
                "first_failure_step".to_string(),
                self.first_failure_step.to_json(),
            ),
        ])
    }
}

/// The result of one execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Program name.
    pub program: String,
    /// How the execution ended.
    pub kind: OutcomeKind,
    /// Final values of every registered variable, in id order.
    pub final_vars: Vec<i64>,
    /// Variable-name table (for `var`).
    pub var_table: VarTable,
    /// Order in which threads finished (the §4.4 multiout observable).
    pub finish_order: Vec<ThreadId>,
    /// Name of every thread, indexed by id.
    pub thread_names: Vec<String>,
    /// All failed assertions (there can be several when the execution is
    /// not configured to stop at the first).
    pub assert_failures: Vec<AssertFailure>,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl Outcome {
    /// Final value of the variable named `name`.
    pub fn var(&self, name: &str) -> Option<i64> {
        let id = self.var_table.id(name)?;
        self.final_vars.get(id.index()).copied()
    }

    /// Did the execution complete with no assertion failures?
    pub fn ok(&self) -> bool {
        matches!(self.kind, OutcomeKind::Completed) && self.assert_failures.is_empty()
    }

    /// Did the execution deadlock?
    pub fn deadlocked(&self) -> bool {
        matches!(self.kind, OutcomeKind::Deadlock(_))
    }

    /// Did the execution hit the step limit (model hang)?
    pub fn hung(&self) -> bool {
        matches!(self.kind, OutcomeKind::StepLimit)
    }

    /// A stable-within-process fingerprint of the *observable result*:
    /// outcome tag, final variable values, thread finish order, and failed
    /// assertion labels. Two executions with equal fingerprints produced
    /// the same observable behaviour; the §4.4 experiment compares tools by
    /// the distribution of these fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.kind.tag().hash(&mut h);
        self.final_vars.hash(&mut h);
        for t in &self.finish_order {
            t.0.hash(&mut h);
        }
        for a in &self.assert_failures {
            a.label.hash(&mut h);
        }
        h.finish()
    }

    /// Human-oriented one-line summary.
    pub fn summary(&self) -> String {
        let vars: Vec<String> = self
            .var_table
            .iter()
            .map(|(id, name)| format!("{name}={}", self.final_vars[id.index()]))
            .collect();
        format!(
            "[{}] {} vars: {{{}}} finish-order: {:?} asserts-failed: {}",
            self.kind.tag(),
            self.program,
            vars.join(", "),
            self.finish_order.iter().map(|t| t.0).collect::<Vec<_>>(),
            self.assert_failures.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(kind: OutcomeKind, vars: Vec<i64>, order: Vec<u32>) -> Outcome {
        Outcome {
            program: "p".into(),
            kind,
            final_vars: vars,
            var_table: VarTable::new(vec!["x".into(), "y".into()]),
            finish_order: order.into_iter().map(ThreadId).collect(),
            thread_names: vec!["main".into()],
            assert_failures: vec![],
            stats: ExecStats::default(),
        }
    }

    #[test]
    fn var_lookup() {
        let o = outcome(OutcomeKind::Completed, vec![4, 9], vec![0]);
        assert_eq!(o.var("x"), Some(4));
        assert_eq!(o.var("y"), Some(9));
        assert_eq!(o.var("z"), None);
        assert!(o.ok());
    }

    #[test]
    fn fingerprints_distinguish_results() {
        let a = outcome(OutcomeKind::Completed, vec![1, 2], vec![0, 1]);
        let b = outcome(OutcomeKind::Completed, vec![1, 3], vec![0, 1]);
        let c = outcome(OutcomeKind::Completed, vec![1, 2], vec![1, 0]);
        let d = outcome(OutcomeKind::StepLimit, vec![1, 2], vec![0, 1]);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint(), "values differ");
        assert_ne!(a.fingerprint(), c.fingerprint(), "finish order differs");
        assert_ne!(a.fingerprint(), d.fingerprint(), "kind differs");
    }

    #[test]
    fn failed_assert_breaks_ok_and_fingerprint() {
        let mut o = outcome(OutcomeKind::Completed, vec![0, 0], vec![0]);
        let clean = o.fingerprint();
        o.assert_failures.push(AssertFailure {
            thread: ThreadId(0),
            label: "inv".into(),
            loc: Loc::new("p", 1),
        });
        assert!(!o.ok());
        assert_ne!(o.fingerprint(), clean);
    }

    #[test]
    fn deadlock_predicates() {
        let info = DeadlockInfo {
            waiting: vec![(
                ThreadId(1),
                WaitEdge::Lock {
                    lock: "l".into(),
                    owner: Some(ThreadId(2)),
                },
            )],
            cycle: vec![ThreadId(1), ThreadId(2)],
        };
        assert!(info.is_cyclic());
        let o = outcome(OutcomeKind::Deadlock(info), vec![0, 0], vec![]);
        assert!(o.deadlocked());
        assert!(!o.ok());
        assert!(!o.hung());
        assert_eq!(o.kind.tag(), "deadlock");
    }

    #[test]
    fn summary_mentions_key_fields() {
        let o = outcome(OutcomeKind::Completed, vec![7, 8], vec![0]);
        let s = o.summary();
        assert!(s.contains("x=7"));
        assert!(s.contains("completed"));
    }
}
