//! Integration tests for the native-threads backend.
//!
//! Native runs are genuinely nondeterministic, so these tests assert
//! *properties with tolerances* (outcome kinds, invariant final values,
//! bounded wall time), never byte-identical run output — that discipline
//! belongs to the model backend alone.

use mtt_instrument::{shared, CountingSink, VecSink};
use mtt_runtime::{
    CondId, Execution, ExecutionOptions, LockId, NoiseDecision, OutcomeKind, Program,
    ProgramBuilder, RuntimeBackend, ThreadCtx, ThreadId,
};
use std::time::{Duration, Instant};

fn native(program: &Program) -> Execution<'_> {
    Execution::new(program)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(5))
}

/// Two threads increment a mutex-protected counter: must always total
/// exactly 2 × N under real threads, and never report a torn read.
#[test]
fn native_mutex_protects_critical_section() {
    let mut b = ProgramBuilder::new("native_guarded");
    let x = b.var_nonvolatile("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("inc{i}"), move |ctx| {
                for _ in 0..50 {
                    ctx.lock(l);
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                    ctx.unlock(l);
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "guarded counter must complete cleanly: {o:?}");
    assert_eq!(o.var("x"), Some(100));
    assert!(
        o.assert_failures.is_empty(),
        "synchronized accesses must never be flagged torn"
    );
}

/// The unguarded counter may or may not lose updates natively, but the
/// result must stay within the only physically possible range and the
/// outcome must be a completion.
#[test]
fn native_racy_counter_stays_in_range() {
    let mut b = ProgramBuilder::new("native_racy");
    let x = b.var_nonvolatile("x", 0);
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("inc{i}"), move |ctx| {
                for _ in 0..100 {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert_eq!(o.kind.tag(), "completed");
    let x = o.var("x").unwrap();
    assert!((1..=200).contains(&x), "impossible final value {x}");
    // Any recorded failures must be torn-read reports, never asserts.
    for f in &o.assert_failures {
        assert!(f.label.starts_with("race:torn-read:"), "{}", f.label);
    }
}

/// The same event stream flows to sinks under both backends: same ops from
/// the same sites, global sequence strictly increasing.
#[test]
fn native_event_stream_reaches_sinks() {
    let mut b = ProgramBuilder::new("native_events");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        ctx.lock(l);
        ctx.write(x, 7);
        ctx.unlock(l);
        let v = ctx.read(x);
        ctx.check(v == 7, "x-is-7");
        ctx.point("done");
    });
    let p = b.build();
    let (events, events_handle) = shared(VecSink::new());
    let (counter, counter_handle) = shared(CountingSink::new());
    let o = native(&p)
        .sink(Box::new(events))
        .sink(Box::new(counter))
        .run();
    assert!(o.ok());
    let evs = events_handle.lock().unwrap().events.clone();
    assert!(evs.len() >= 7, "start/lock/write/unlock/read/point/exit");
    for w in evs.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq must be strictly increasing");
    }
    let held_during_write = evs
        .iter()
        .find(|e| matches!(e.op, mtt_instrument::Op::VarWrite { .. }))
        .unwrap();
    assert_eq!(held_during_write.locks_held.len(), 1);
    assert_eq!(counter_handle.lock().unwrap().total, evs.len() as u64);
}

/// AB-BA lock ordering under real threads: the watchdog must end the run —
/// either Deadlock (the interleaving wedged and was diagnosed) or
/// Completed (one thread won both locks first). Nothing may hang past the
/// budget.
#[test]
fn native_ab_ba_never_hangs() {
    let mut b = ProgramBuilder::new("native_ab_ba");
    let a = b.lock("a");
    let l2 = b.lock("b");
    b.entry(move |ctx| {
        let t1 = ctx.spawn("ab", move |ctx| {
            ctx.lock(a);
            ctx.sleep(5);
            ctx.lock(l2);
            ctx.unlock(l2);
            ctx.unlock(a);
        });
        let t2 = ctx.spawn("ba", move |ctx| {
            ctx.lock(l2);
            ctx.sleep(5);
            ctx.lock(a);
            ctx.unlock(a);
            ctx.unlock(l2);
        });
        ctx.join(t1);
        ctx.join(t2);
    });
    let p = b.build();
    let started = Instant::now();
    let o = Execution::new(&p)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(3))
        .run();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "run must end within budget + grace"
    );
    assert!(
        matches!(o.kind.tag(), "deadlock" | "completed"),
        "unexpected outcome {:?}",
        o.kind
    );
    if o.deadlocked() {
        // The diagnostic must carry the same waits-for structure the model
        // engine reports.
        if let mtt_runtime::OutcomeKind::Deadlock(info) = &o.kind {
            assert!(info.is_cyclic(), "AB-BA wedge is a cyclic deadlock");
        }
    }
}

/// Watchdog regression: a native thread sleeping far past the wall budget
/// is killed, the run reports StepLimit (the hang analogue) and returns
/// promptly — it does not wait out the sleep.
#[test]
fn native_watchdog_kills_hung_run() {
    let mut b = ProgramBuilder::new("native_hang");
    b.entry(move |ctx| {
        ctx.sleep(10_000_000); // 1000s of wall time at 100µs/tick
    });
    let p = b.build();
    let started = Instant::now();
    let o = Execution::new(&p)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_millis(200))
        .run();
    assert!(o.hung(), "budget exhaustion must map to StepLimit: {o:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "watchdog must interrupt the sleep, took {:?}",
        started.elapsed()
    );
}

/// Cond wait/notify across real threads, including the FIFO queue
/// bookkeeping shared with the model engine.
#[test]
fn native_cond_wait_notify_roundtrip() {
    let mut b = ProgramBuilder::new("native_cond");
    let ready = b.var("ready", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let w = ctx.spawn("waiter", move |ctx| {
            ctx.lock(l);
            while ctx.read(ready) == 0 {
                ctx.wait(c, l);
            }
            ctx.unlock(l);
        });
        ctx.lock(l);
        ctx.write(ready, 1);
        ctx.notify(c);
        ctx.unlock(l);
        ctx.join(w);
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
}

/// Timed wait gives up on its own when nobody notifies.
#[test]
fn native_timed_wait_times_out() {
    let mut b = ProgramBuilder::new("native_timed");
    let notified = b.var("notified", -1);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        ctx.lock(l);
        let got = ctx.timed_wait(c, l, 50); // 5ms of wall time
        ctx.unlock(l);
        ctx.write(notified, i64::from(got));
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
    assert_eq!(o.var("notified"), Some(0));
}

/// Semaphores and barriers coordinate real threads.
#[test]
fn native_sem_and_barrier() {
    let mut b = ProgramBuilder::new("native_sem_barrier");
    let total = b.var("total", 0);
    let s = b.sem("s", 1);
    let bar = b.barrier("bar", 3);
    b.entry(move |ctx| {
        let mut kids = Vec::new();
        for i in 0..2 {
            kids.push(ctx.spawn(format!("w{i}"), move |ctx| {
                ctx.barrier_wait(bar);
                for _ in 0..10 {
                    ctx.sem_acquire(s);
                    let v = ctx.read(total);
                    ctx.write(total, v + 1);
                    ctx.sem_release(s);
                }
            }));
        }
        ctx.barrier_wait(bar);
        for k in kids {
            ctx.join(k);
        }
    });
    let p = b.build();
    let o = native(&p).run();
    assert!(o.ok(), "{o:?}");
    assert_eq!(o.var("total"), Some(20), "semaphore must serialize updates");
}

/// Model-API misuse is the same `ThreadPanic`, with the same message, under
/// both engines: one table of misuse programs, each run on each backend.
#[test]
fn misuse_is_the_same_thread_panic_on_both_backends() {
    type Body = fn(&mut ThreadCtx, LockId, CondId);
    let cases: [(&str, Body, u32, &str); 7] = [
        (
            "recursive lock",
            |ctx, l, _| {
                ctx.lock(l);
                ctx.lock(l);
            },
            512,
            "thread 0 locked LockId(0) recursively (model mutexes are non-reentrant)",
        ),
        (
            "unlock not held",
            |ctx, l, _| ctx.unlock(l),
            512,
            "thread 0 released LockId(0) which it does not hold",
        ),
        (
            "try_lock on held lock",
            |ctx, l, _| {
                ctx.lock(l);
                ctx.try_lock(l);
            },
            512,
            "thread 0 try_lock on lock it holds",
        ),
        (
            "wait without the lock",
            |ctx, l, c| ctx.wait(c, l),
            512,
            "thread 0 waits on CondId(0) without holding LockId(0)",
        ),
        (
            "join self",
            |ctx, _, _| ctx.join(ctx.id()),
            512,
            "thread 0 joining itself",
        ),
        (
            "join unknown thread",
            |ctx, _, _| ctx.join(ThreadId(7)),
            512,
            "join on unknown thread 7",
        ),
        (
            "max_threads exceeded",
            |ctx, _, _| {
                ctx.spawn("child", |_| {});
            },
            1,
            "thread limit (1) exceeded — runaway spawn loop?",
        ),
    ];
    for (case, body, max_threads, expected) in cases {
        let mut b = ProgramBuilder::new("misuse");
        let l = b.lock("l");
        let c = b.cond("c");
        b.entry(move |ctx| body(ctx, l, c));
        let p = b.build();
        for backend in [RuntimeBackend::Model, RuntimeBackend::Native] {
            let opts = ExecutionOptions {
                max_threads,
                backend,
                wall_budget: Some(Duration::from_secs(5)),
                ..ExecutionOptions::default()
            };
            let o = Execution::new(&p).options(opts).run();
            match &o.kind {
                OutcomeKind::ThreadPanic { thread, message } => {
                    assert_eq!(*thread, ThreadId::MAIN, "{case} on {backend}");
                    assert_eq!(message, expected, "{case} on {backend}");
                }
                k => panic!("{case} on {backend}: expected ThreadPanic, got {k:?}"),
            }
        }
    }
}

/// Both engines apply, and count, a noise decision at the same events:
/// `ThreadStart` and each operation's final event — never at a lock or
/// join request, a cond wait, or a thread exit. With a noise maker that
/// always yields, `forced_yields` is then equal under both backends for a
/// program whose operation sequence does not depend on the interleaving.
#[test]
fn noise_is_counted_at_the_same_events_on_both_backends() {
    let mut b = ProgramBuilder::new("noise_parity");
    let flag = b.var("flag", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        ctx.lock(l);
        // The child cannot take `l` until this thread waits, so it always
        // contends for the lock and this thread always waits exactly once.
        let child = ctx.spawn("notifier", move |ctx| {
            ctx.lock(l);
            ctx.write(flag, 1);
            ctx.notify(c);
            ctx.unlock(l);
        });
        while ctx.read(flag) == 0 {
            ctx.wait(c, l);
        }
        ctx.unlock(l);
        ctx.join(child);
    });
    let p = b.build();
    let always_yield = || Box::new(|_: &mtt_instrument::Event, _: &_| NoiseDecision::Yield);
    let model = Execution::new(&p).noise(always_yield()).run();
    let nat = native(&p).noise(always_yield()).run();
    assert!(model.ok() && nat.ok(), "{model:?} {nat:?}");
    assert_eq!(model.stats.forced_yields, 13);
    assert_eq!(nat.stats.forced_yields, model.stats.forced_yields);
    assert_eq!(nat.stats.noise_injections, model.stats.noise_injections);
}

/// Noise makers run natively (yields and real sleeps); the run still
/// completes and the injection counters tick.
#[test]
fn native_noise_maker_is_applied() {
    let mut b = ProgramBuilder::new("native_noise");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        for i in 0..20 {
            ctx.write(x, i);
        }
    });
    let p = b.build();
    let o = native(&p)
        .noise(Box::new(|ev: &mtt_instrument::Event, _: &_| {
            if ev.seq.is_multiple_of(2) {
                NoiseDecision::Sleep(1)
            } else {
                NoiseDecision::Yield
            }
        }))
        .run();
    assert!(o.ok(), "{o:?}");
    assert!(o.stats.noise_injections > 0);
    assert!(o.stats.forced_yields > 0);
}

/// `ctx.random` must be interleaving- and backend-independent: the same
/// seed yields the same draws under model and native.
#[test]
fn native_program_randomness_matches_model() {
    fn program() -> Program {
        let mut b = ProgramBuilder::new("native_rng");
        let draw = b.var("draw", 0);
        b.entry(move |ctx| {
            let mut acc = 0i64;
            for _ in 0..8 {
                acc = acc * 10 + ctx.random(10) as i64;
            }
            ctx.write(draw, acc);
        });
        b.build()
    }
    let pm = program();
    let pn = program();
    let model = Execution::new(&pm).program_seed(42).run();
    let nat = Execution::new(&pn)
        .backend(RuntimeBackend::Native)
        .wall_budget(Duration::from_secs(5))
        .program_seed(42)
        .run();
    assert!(model.ok() && nat.ok());
    assert_eq!(model.var("draw"), nat.var("draw"));
}
