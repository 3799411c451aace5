//! Executions reuse the pooled OS workers their threads run on, and the
//! reuse changes no outcome.
//!
//! One test in a binary of its own: a test running in parallel would take
//! idle workers from the pool and break the spawn bound checked here.

use mtt_runtime::{
    Execution, LockId, Outcome, OutcomeKind, Program, ProgramBuilder, RandomScheduler,
    RuntimeBackend, ThreadCtx, ThreadId,
};
use std::time::Duration;

/// Model executions in the sequence; [`run_case`] maps each index to a
/// program and a seed.
const CASES: usize = 200;

/// `kids` unsynchronized incrementers; with `check`, main asserts that no
/// update was lost.
fn lost_update(kids: u32, check: bool) -> Program {
    let mut b = ProgramBuilder::new(if check {
        "checked_update"
    } else {
        "lost_update"
    });
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let ids: Vec<ThreadId> = (0..kids)
            .map(|i| {
                ctx.spawn(format!("inc{i}"), move |ctx| {
                    let v = ctx.read(x);
                    ctx.write(x, v + 1);
                })
            })
            .collect();
        for k in ids {
            ctx.join(k);
        }
        if check {
            let v = ctx.read(x);
            ctx.check(v == i64::from(kids), "no-lost-update");
        }
    });
    b.build()
}

/// Two threads take two locks in opposite orders.
fn ab_ba() -> Program {
    let mut b = ProgramBuilder::new("ab_ba");
    let a = b.lock("a");
    let l_b = b.lock("b");
    b.entry(move |ctx| {
        let both = |first: LockId, second: LockId| {
            move |ctx: &mut ThreadCtx| {
                ctx.lock(first);
                ctx.lock(second);
                ctx.unlock(second);
                ctx.unlock(first);
            }
        };
        let t1 = ctx.spawn("t1", both(a, l_b));
        let t2 = ctx.spawn("t2", both(l_b, a));
        ctx.join(t1);
        ctx.join(t2);
    });
    b.build()
}

/// One thread panics while the others are parked mid-run.
fn panicker() -> Program {
    let mut b = ProgramBuilder::new("panicker");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let w = ctx.spawn("w", move |ctx| {
            for _ in 0..3 {
                let v = ctx.read(x);
                ctx.write(x, v + 1);
            }
        });
        let boom = ctx.spawn("boom", move |ctx| {
            let v = ctx.read(x);
            ctx.write(x, v + 10);
            panic!("boom after x={v}");
        });
        ctx.join(w);
        ctx.join(boom);
    });
    b.build()
}

/// Two threads yield until a flag nobody sets: only the step limit ends it.
fn spinners() -> Program {
    let mut b = ProgramBuilder::new("spinners");
    let flag = b.var("flag", 0);
    b.entry(move |ctx| {
        let ids: Vec<ThreadId> = (0..2)
            .map(|i| {
                ctx.spawn(format!("s{i}"), move |ctx| {
                    while ctx.read(flag) == 0 {
                        ctx.yield_now();
                    }
                })
            })
            .collect();
        for k in ids {
            ctx.join(k);
        }
    });
    b.build()
}

/// Model execution `i`: five programs in turn, each with the seed `i / 5`.
/// Thread counts vary from run to run (2 to 6).
fn run_case(i: usize) -> Outcome {
    let seed = (i / 5) as u64;
    let random = Box::new(RandomScheduler::new(seed));
    match i % 5 {
        0 => Execution::new(&lost_update(1 + (seed % 5) as u32, false))
            .scheduler(random)
            .run(),
        1 => Execution::new(&ab_ba())
            .scheduler(Box::new(RandomScheduler::sticky(seed, 0.5)))
            .run(),
        2 => Execution::new(&panicker()).scheduler(random).run(),
        3 => Execution::new(&spinners())
            .scheduler(random)
            .max_steps(30 + seed)
            .run(),
        _ => Execution::new(&lost_update(2, true))
            .scheduler(random)
            .stop_on_assert(true)
            .run(),
    }
}

/// Everything an outcome records except wall time and `os_spawns`, which
/// depend on the process the run happened in, and assertion sites, which
/// depend on where this file's lines fall.
fn signature(o: &Outcome) -> String {
    let s = &o.stats;
    let failures: Vec<_> = o
        .assert_failures
        .iter()
        .map(|f| (f.thread, &f.label))
        .collect();
    format!(
        "{} {:?} vars={:?} order={:?} names={:?} failures={:?} events={} points={} \
         switches={} threads={} time={} faults={} noise={} yields={} spurious={} \
         first_failure={:?} wakes={}",
        o.program,
        o.kind,
        o.final_vars,
        o.finish_order,
        o.thread_names,
        failures,
        s.events,
        s.sched_points,
        s.context_switches,
        s.threads,
        s.virtual_time,
        s.scheduler_faults,
        s.noise_injections,
        s.forced_yields,
        s.spurious_wakeups,
        s.first_failure_step,
        s.token_wakes
    )
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// For each program (`i % 5`), the FNV-1a digest of its 40 signatures, one
/// per line in case order. Each signature was recorded by running its case
/// alone in a fresh process, with an engine that spawned and joined one OS
/// thread per program thread.
const FRESH_DIGESTS: [u64; 5] = [
    4693547342246993016,
    10402571055288722497,
    1403197770895844748,
    8805483720798825560,
    5493049054752661612,
];

/// A native run and the outcome it must have: native schedules vary, so
/// only programs whose outcome does not depend on them are used.
type NativeCase = (Program, fn(&Outcome) -> bool);

fn native_cases() -> Vec<NativeCase> {
    let counter = {
        let mut b = ProgramBuilder::new("locked_counter");
        let x = b.var("x", 0);
        let l = b.lock("l");
        b.entry(move |ctx| {
            let ids: Vec<ThreadId> = (0..3)
                .map(|i| {
                    ctx.spawn(format!("inc{i}"), move |ctx| {
                        for _ in 0..5 {
                            ctx.with_lock(l, |ctx| {
                                let v = ctx.read(x);
                                ctx.write(x, v + 1);
                            });
                        }
                    })
                })
                .collect();
            for k in ids {
                ctx.join(k);
            }
        });
        b.build()
    };
    let join_holding_lock = {
        let mut b = ProgramBuilder::new("join_holding_lock");
        let l = b.lock("l");
        b.entry(move |ctx| {
            ctx.lock(l);
            let t = ctx.spawn("t", move |ctx| ctx.lock(l));
            ctx.join(t);
        });
        b.build()
    };
    let panics = {
        let mut b = ProgramBuilder::new("native_panic");
        b.entry(|ctx| {
            let t = ctx.spawn("t", |_| panic!("native boom"));
            ctx.join(t);
        });
        b.build()
    };
    vec![
        (counter, |o| o.ok() && o.var("x") == Some(15)),
        (join_holding_lock, Outcome::deadlocked),
        (panics, |o| {
            matches!(&o.kind, OutcomeKind::ThreadPanic { thread, message }
                if *thread == ThreadId(1) && message == "native boom")
        }),
    ]
}

#[test]
fn workers_are_reused_without_changing_outcomes() {
    let mut spawns = 0;
    let mut most_threads = 0;
    let mut tally = |o: &Outcome| {
        spawns += o.stats.os_spawns;
        most_threads = most_threads.max(o.stats.threads);
    };

    let mut lines = vec![String::new(); 5];
    let mut kinds = std::collections::BTreeSet::new();
    for i in 0..CASES {
        let o = run_case(i);
        tally(&o);
        kinds.insert(o.kind.tag());
        lines[i % 5] += &(signature(&o) + "\n");
    }
    assert_eq!(
        kinds.len(),
        5,
        "every outcome kind must occur, got {kinds:?}"
    );
    let digests: Vec<u64> = lines.iter().map(|l| fnv1a(l.as_bytes())).collect();
    assert_eq!(
        digests,
        FRESH_DIGESTS,
        "outcomes differ from fresh-process runs:\n{}",
        lines.concat()
    );

    for (p, expected) in native_cases() {
        for _ in 0..2 {
            let o = Execution::new(&p)
                .backend(RuntimeBackend::Native)
                .wall_budget(Duration::from_secs(5))
                .run();
            assert!(expected(&o), "{}: {}", p.name(), o.summary());
            tally(&o);
        }
    }
    assert!(spawns > 0, "the first run must create its workers");
    assert!(
        spawns <= most_threads,
        "{spawns} OS threads created, but no run had more than {most_threads} threads"
    );
}
