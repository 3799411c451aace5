//! The OS workers that program threads run on, shared by every execution
//! in the process and by both engines.
//!
//! Spawning and joining an OS thread per program thread would cost more
//! than a whole run of a few dozen events. Instead [`run`] hands the
//! thread's job to an idle worker, creating a worker only when none is
//! idle, and [`Done::wait`] stands in for `join`. A worker whose job has
//! ended parks on its own mutex and condition variable until [`run`] hands
//! it the next job, so back-to-back executions on one harness thread reuse
//! the same workers, and the number of idle workers never exceeds the peak
//! number of jobs that ran at once.
//!
//! The contract the engines rely on:
//!
//! * a worker runs its job under `catch_unwind`, so no panic of the job can
//!   end the worker or leave its [`Done`] unsignalled;
//! * the job closure is dropped before [`Done`] is signalled, so once every
//!   [`Done::wait`] of an execution has returned, no worker still holds
//!   anything the job owned (the execution's `Arc`s in particular);
//! * a worker is back on the idle stack before it signals [`Done`], so
//!   the next execution on the same harness thread finds it;
//! * dropping a [`Done`] detaches the job, like dropping a `JoinHandle`:
//!   the worker returns to the pool when the job ends.

use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// The work a worker runs: one program thread's whole life.
type Job = Box<dyn FnOnce() + Send>;

/// Workers with no job, parked in [`Worker::serve`].
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// One OS worker's mailbox: the next job and the signal for its end.
struct Worker {
    next: Mutex<Option<(Job, Arc<Signal>)>>,
    cv: Condvar,
}

/// Set once, when a job has ended and been dropped.
#[derive(Default)]
struct Signal {
    done: Mutex<bool>,
    cv: Condvar,
}

/// The end of one job handed to [`run`]; the pool's `JoinHandle`.
pub(crate) struct Done {
    signal: Arc<Signal>,
    spawned: bool,
}

impl Done {
    /// Block until the job has ended and its closure has been dropped.
    pub(crate) fn wait(self) {
        let mut done = self.signal.done.lock();
        while !*done {
            self.signal.cv.wait(&mut done);
        }
    }

    /// Whether [`run`] had to create an OS thread for this job.
    pub(crate) fn spawned(&self) -> bool {
        self.spawned
    }
}

/// Run `job` on an idle worker, or on a new one when none is idle.
pub(crate) fn run(job: Job) -> Done {
    let signal = Arc::new(Signal::default());
    let next = (job, Arc::clone(&signal));
    let idle = IDLE.lock().pop();
    let spawned = match idle {
        Some(worker) => {
            *worker.next.lock() = Some(next);
            worker.cv.notify_one();
            false
        }
        None => {
            let worker = Arc::new(Worker {
                next: Mutex::new(None),
                cv: Condvar::new(),
            });
            std::thread::Builder::new()
                .name("mtt-worker".to_string())
                .spawn(move || worker.serve(next))
                .expect("failed to spawn a worker thread");
            true
        }
    };
    Done { signal, spawned }
}

impl Worker {
    /// Run `next`, then every job handed to this worker after it.
    fn serve(self: Arc<Self>, mut next: (Job, Arc<Signal>)) {
        loop {
            let (job, signal) = next;
            // The job is consumed by the call, so it is dropped by the time
            // `catch_unwind` returns, whether it returned or unwound.
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
            IDLE.lock().push(Arc::clone(&self));
            *signal.done.lock() = true;
            signal.cv.notify_one();
            let mut slot = self.next.lock();
            next = loop {
                if let Some(n) = slot.take() {
                    break n;
                }
                self.cv.wait(&mut slot);
            };
        }
    }
}
