//! Host-speed probe of the mtt benchmark.
//!
//! `host-probe` does a fixed amount of work shaped like an mtt campaign at
//! `--jobs 2`, using no mtt code: two pairs of OS threads run at once, and
//! each pair passes a token back and forth through a `Mutex` and a
//! `Condvar`, with a little arithmetic per turn. Every pass parks one
//! thread and wakes the other, so most of its CPU time is spent in the
//! kernel on futex waits and wake-ups, as in mtt's model engine.
//!
//! The benchmark runs it before and after every timed `mtt` invocation and
//! reads its CPU time from `wait4`. On a shared host, other tenants slow
//! wake-ups and context switches for minutes at a time, for the probe and
//! mtt alike, so mtt's CPU time divided by the probe's is steadier than
//! mtt's alone. Because the probe runs no mtt code, a change to mtt does
//! not move it.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Pairs run at once, as `--jobs 2` runs two cells at once.
const PAIRS: usize = 2;
/// Token passes per pair.
const TURNS: u64 = 150_000;
/// Xorshift steps per turn: the user-space share of the work.
const STEPS: u32 = 300;

struct Token {
    holder: usize,
    left: u64,
}

fn pair() {
    let shared = Arc::new((
        Mutex::new(Token {
            holder: 0,
            left: TURNS,
        }),
        Condvar::new(),
    ));
    let threads: Vec<_> = (0..2)
        .map(|me| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (mx, cv) = &*shared;
                let mut x = me as u64 + 1;
                let mut token = mx.lock().unwrap();
                loop {
                    while token.holder != me && token.left > 0 {
                        token = cv.wait(token).unwrap();
                    }
                    if token.left == 0 {
                        cv.notify_one();
                        return;
                    }
                    for _ in 0..STEPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    black_box(x);
                    token.left -= 1;
                    token.holder = 1 - me;
                    cv.notify_one();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

fn main() {
    let pairs: Vec<_> = (0..PAIRS).map(|_| thread::spawn(pair)).collect();
    for p in pairs {
        p.join().unwrap();
    }
}
