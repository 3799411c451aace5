//! Tracer of the mtt benchmark.
//!
//! `mtt-perftrace --workload W --seed S --work DIR` calls each crate's
//! public functions on the same programs, tool specs and seeds as
//! benchmark workload `W`, times every call, and prints the per-layer
//! metrics as one JSON object on its last line of standard output. The
//! benchmark seed `S` picks which cells' event streams are replayed.
//!
//! See `perfbench/README.md` for what each metric means.

use mtt_core::causal::Fingerprinter;
use mtt_core::deadlock::{LockOrderGraph, WaitsForMonitor};
use mtt_core::experiment::campaign::Campaign;
use mtt_core::experiment::gen_eval::{run_gen_eval_on, GenEvalOptions};
use mtt_core::experiment::jobpool::{JobPool, PoolStats};
use mtt_core::experiment::scoreboard::{dynamic_roster, sink_class};
use mtt_core::instrument::{shared, Event, EventSink, Tee, VecSink};
use mtt_core::obs::{parse_journal, JournalRecord, JournalSink, StatusSummary};
use mtt_core::race::{EraserLockset, VectorClockDetector};
use mtt_core::runtime::{ExecStats, Execution, NoiseView, Program, ProgramBuilder};
use mtt_core::telemetry::{RunLogWriter, SpanSet, TelemetrySink};
use mtt_core::tools::{SinkKind, ToolConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Families the `detectors` workload draws (`mtt e10 --families 80`).
const FAMILIES: u64 = 80;
/// Generator seed of the `detectors` workload (`mtt e10 --seed 42`).
const GEN_SEED: u64 = 42;
/// Seeded runs per dynamic tool per member (`GenEvalOptions::default().runs`).
const E10_RUNS: u64 = 4;
/// Step budget `gen_eval` hands to every dynamic run.
const E10_MAX_STEPS: u64 = 20_000;
/// First seed of the E10/E11 dynamic seed ladder (`scoreboard::dynamic_warned`).
const E10_BASE_SEED: u64 = 40;
/// Workers of every campaign pass, as in the timed `--jobs 2` commands.
const JOBS: usize = 2;
/// Target number of cells whose event streams are recorded for replay.
const STREAM_CELLS: usize = 1000;
/// Repeats of each replay and micro measurement; the median is reported.
const REPS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).cloned()
    };
    let seed: u64 = flag("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let work = PathBuf::from(flag("--work").unwrap_or_else(|| usage()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    println!("{}", trace(&workload, seed, &work));
}

fn usage() -> ! {
    eprintln!(
        "usage: mtt-perftrace --workload <short_runs|long_runs|detectors|recorded> \
         --seed <n> --work <dir>"
    );
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Workload cells
// ---------------------------------------------------------------------

/// Which sinks a workload's command attaches to every run.
#[derive(Clone, Copy)]
enum Sinks {
    /// `mtt e1` / `e1-detail` without recording: no sinks.
    Bare,
    /// `mtt --journal --metrics e1`: a `Tee` of shared telemetry and
    /// fingerprint halves, as `Campaign::one_run` composes it.
    Recorded,
    /// `mtt e10`: the tool's detector sink, as `scoreboard::dynamic_warned`
    /// attaches it.
    Detector,
}

/// Consecutive runs of one program under one tool. E10 stops a group at
/// the first run whose detector warned; campaign groups hold one seed.
struct Group {
    program: usize,
    tool: usize,
    seeds: std::ops::Range<u64>,
    max_steps: u64,
    stop_on_warn: bool,
}

struct Load {
    programs: Vec<Program>,
    tools: Vec<ToolConfig>,
    groups: Vec<Group>,
    sinks: Sinks,
}

impl Load {
    /// The cells of `Campaign::standard(programs, runs)` in its canonical
    /// (program, tool, run) order.
    fn campaign(programs: Vec<Program>, runs: u64, sinks: Sinks) -> Load {
        let c = Campaign::standard(Vec::new(), runs);
        let tools = c.tools;
        let mut groups = Vec::new();
        for p in 0..programs.len() {
            for t in 0..tools.len() {
                for r in 0..runs {
                    groups.push(Group {
                        program: p,
                        tool: t,
                        seeds: c.base_seed + r..c.base_seed + r + 1,
                        max_steps: c.max_steps,
                        stop_on_warn: false,
                    });
                }
            }
        }
        Load {
            programs,
            tools,
            groups,
            sinks,
        }
    }

    /// The dynamic half of `gen_eval::run_gen_eval_on`: every member under
    /// every detector tool, up to `E10_RUNS` seeds, stopping at a warning.
    fn detectors(pop: &Population) -> Load {
        let tools: Vec<ToolConfig> = dynamic_roster()
            .into_iter()
            .filter(|cfg| sink_class(cfg).is_some())
            .collect();
        let mut groups = Vec::new();
        for p in 0..pop.programs.len() {
            for t in 0..tools.len() {
                groups.push(Group {
                    program: p,
                    tool: t,
                    seeds: E10_BASE_SEED..E10_BASE_SEED + E10_RUNS,
                    max_steps: E10_MAX_STEPS,
                    stop_on_warn: true,
                });
            }
        }
        Load {
            programs: pop.programs.clone(),
            tools,
            groups,
            sinks: Sinks::Detector,
        }
    }

    /// The execution one cell runs, configured the way the workload's
    /// command configures it.
    fn configure(&self, g: &Group, cfg: &ToolConfig, seed: u64) -> Execution<'_> {
        let program = &self.programs[g.program];
        match self.sinks {
            Sinks::Detector => Execution::new(program)
                .scheduler((cfg.scheduler)(seed))
                .noise((cfg.noise)(seed ^ 0x9e37_79b9))
                .max_steps(g.max_steps),
            Sinks::Bare | Sinks::Recorded => {
                cfg.configure(Execution::new(program), seed, g.max_steps)
            }
        }
    }
}

fn quick_set() -> Vec<Program> {
    mtt_core::suite::quick_set()
        .into_iter()
        .map(|p| p.program)
        .collect()
}

fn workload_load(workload: &str, pop: &Population) -> Load {
    match workload {
        "short_runs" => Load::campaign(quick_set(), 60, Sinks::Bare),
        "long_runs" => {
            let p = mtt_core::suite::by_name("pipeline_etl").expect("suite has pipeline_etl");
            Load::campaign(vec![p.program], 240, Sinks::Bare)
        }
        "recorded" => Load::campaign(quick_set(), 60, Sinks::Recorded),
        "detectors" => Load::detectors(pop),
        other => {
            eprintln!("unknown workload `{other}`");
            usage()
        }
    }
}

// ---------------------------------------------------------------------
// Serial passes over the cells
// ---------------------------------------------------------------------

/// Exact `ExecStats` totals over a pass; two passes must agree.
#[derive(Clone, Copy, Default)]
struct Counts {
    runs: u64,
    events: u64,
    sched_points: u64,
    context_switches: u64,
    threads: u64,
    noise_injections: u64,
}

impl Counts {
    fn add(&mut self, s: &ExecStats) {
        self.runs += 1;
        self.events += s.events;
        self.sched_points += s.sched_points;
        self.context_switches += s.context_switches;
        self.threads += u64::from(s.threads);
        self.noise_injections += s.noise_injections;
    }

    fn json(&self) -> String {
        format!(
            "{{\"runs\":{},\"events\":{},\"sched_points\":{},\"context_switches\":{},\"threads\":{},\"noise_injections\":{}}}",
            self.runs, self.events, self.sched_points, self.context_switches, self.threads, self.noise_injections
        )
    }
}

struct Pass {
    wall: Duration,
    user: f64,
    sys: f64,
    counts: Counts,
    /// Per-run `Execution::run` time in µs (timed pass only).
    run_us: Vec<f64>,
    run_total: Duration,
    configure_total: Duration,
    /// (group, seed) of every executed cell, in execution order.
    visited: Vec<(usize, u64)>,
}

/// One serial pass over the workload's cells. With `clock` on, the spec
/// resolve + configure step and `Execution::run` of every cell are timed.
fn pass(load: &Load, clock: bool) -> Pass {
    let (u0, s0) = cpu_self();
    let started = Instant::now();
    let mut p = Pass {
        wall: Duration::ZERO,
        user: 0.0,
        sys: 0.0,
        counts: Counts::default(),
        run_us: Vec::new(),
        run_total: Duration::ZERO,
        configure_total: Duration::ZERO,
        visited: Vec::new(),
    };
    for (gi, g) in load.groups.iter().enumerate() {
        for seed in g.seeds.clone() {
            let t0 = clock.then(Instant::now);
            let cfg = load.tools[g.tool]
                .spec
                .resolve()
                .expect("roster specs resolve");
            let exec = load.configure(g, &cfg, seed);
            let t1 = clock.then(Instant::now);
            let (stats, warned, run) = run_with_sinks(load.sinks, &cfg, exec, clock);
            if let (Some(t0), Some(t1), Some(run)) = (t0, t1, run) {
                p.configure_total += t1 - t0;
                p.run_total += run;
                p.run_us.push(run.as_secs_f64() * 1e6);
            }
            p.counts.add(&stats);
            p.visited.push((gi, seed));
            if g.stop_on_warn && warned {
                break;
            }
        }
    }
    p.wall = started.elapsed();
    let (u1, s1) = cpu_self();
    p.user = u1 - u0;
    p.sys = s1 - s0;
    p
}

/// `Execution::run`, timed when `clock` is on.
fn run_timed(exec: Execution<'_>, clock: bool) -> (mtt_core::runtime::Outcome, Option<Duration>) {
    let t = clock.then(Instant::now);
    let outcome = exec.run();
    (outcome, t.map(|t| t.elapsed()))
}

/// Attach the workload's sinks, run, and read the sinks back the way the
/// workload's command does. Returns the run's stats, whether a detector
/// warned, and the time `Execution::run` took when `clock` is on.
fn run_with_sinks(
    sinks: Sinks,
    cfg: &ToolConfig,
    mut exec: Execution<'_>,
    clock: bool,
) -> (ExecStats, bool, Option<Duration>) {
    match sinks {
        Sinks::Bare => {
            let (outcome, run) = run_timed(exec, clock);
            (outcome.stats, false, run)
        }
        Sinks::Recorded => {
            let mut tee = Tee::new();
            let (telemetry, th) = shared(TelemetrySink::new());
            let (fingerprint, fh) = shared(Fingerprinter::default());
            tee.push(Box::new(telemetry));
            tee.push(Box::new(fingerprint));
            let (outcome, run) = run_timed(exec.sink(Box::new(tee)), clock);
            let mut m = th.lock().expect("telemetry sink").metrics().clone();
            m.absorb_stats(&outcome.stats);
            black_box((
                m,
                fh.lock().expect("fingerprint sink").fingerprint().to_hex(),
            ));
            (outcome.stats, false, run)
        }
        Sinks::Detector => {
            let mut checks: Vec<Box<dyn Fn() -> bool>> = Vec::new();
            for (kind, c) in &cfg.spec.sinks {
                match (kind, c.id.as_str()) {
                    (SinkKind::Race, "lockset") => {
                        let (s, h) = shared(EraserLockset::new());
                        exec = exec.sink(Box::new(s));
                        checks.push(Box::new(move || {
                            !h.lock().expect("lockset").warnings.is_empty()
                        }));
                    }
                    (SinkKind::Race, "hb") => {
                        let (s, h) = shared(VectorClockDetector::new());
                        exec = exec.sink(Box::new(s));
                        checks.push(Box::new(move || !h.lock().expect("hb").warnings.is_empty()));
                    }
                    (SinkKind::Deadlock, "lockorder") => {
                        let (s, h) = shared(LockOrderGraph::new());
                        exec = exec.sink(Box::new(s));
                        checks.push(Box::new(move || {
                            !h.lock().expect("lockorder").potentials().is_empty()
                        }));
                    }
                    (SinkKind::Deadlock, "waitsfor") => {
                        let (s, h) = shared(WaitsForMonitor::new());
                        exec = exec.sink(Box::new(s));
                        checks.push(Box::new(move || {
                            !h.lock().expect("waitsfor").occurrences.is_empty()
                        }));
                    }
                    _ => {}
                }
            }
            let (outcome, run) = run_timed(exec, clock);
            (outcome.stats, checks.iter().any(|c| c()), run)
        }
    }
}

// ---------------------------------------------------------------------
// Replayed event streams
// ---------------------------------------------------------------------

struct Stream {
    tool: usize,
    seed: u64,
    events: Vec<Event>,
}

/// Re-run about `STREAM_CELLS` evenly spaced cells of the pass, starting
/// at an offset drawn from `seed`, with a recorder attached and keep their
/// event streams.
fn record_streams(load: &Load, visited: &[(usize, u64)], seed: u64) -> Vec<Stream> {
    let stride = (visited.len() / STREAM_CELLS).max(1);
    visited
        .iter()
        .skip((seed % stride as u64) as usize)
        .step_by(stride)
        .map(|&(gi, seed)| {
            let g = &load.groups[gi];
            let cfg = &load.tools[g.tool];
            let (rec, handle) = shared(VecSink::new());
            load.configure(g, cfg, seed).sink(Box::new(rec)).run();
            let events = std::mem::take(&mut handle.lock().expect("recorder").events);
            Stream {
                tool: g.tool,
                seed,
                events,
            }
        })
        .collect()
}

fn stream_events(streams: &[Stream]) -> usize {
    streams.iter().map(|s| s.events.len()).sum::<usize>().max(1)
}

/// Median ns per event of feeding every stream through a fresh sink.
fn replay_ns<S: EventSink>(streams: &[Stream], fresh: impl Fn() -> S) -> f64 {
    let events = stream_events(streams) as f64;
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for s in streams {
                    let mut sink = fresh();
                    for ev in &s.events {
                        sink.on_event(ev);
                    }
                    sink.finish();
                    black_box(&sink);
                }
                t.elapsed().as_nanos() as f64 / events
            })
            .collect(),
    )
}

/// The recorded workload's two sinks called directly, without the `Tee`
/// and the `Shared` mutexes: the baseline of `instrument.tee_ns_per_event`.
#[derive(Default)]
struct Direct(TelemetrySink, Fingerprinter);

impl EventSink for Direct {
    fn on_event(&mut self, ev: &Event) {
        self.0.on_event(ev);
        self.1.on_event(ev);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

fn recorded_tee() -> Tee {
    let mut tee = Tee::new();
    tee.push(Box::new(shared(TelemetrySink::new()).0));
    tee.push(Box::new(shared(Fingerprinter::default()).0));
    tee
}

/// Median ns per `NoiseMaker::decide` call, replaying each stream through
/// a fresh noise maker of the tool and seed that produced it.
fn noise_decide_ns(load: &Load, streams: &[Stream]) -> f64 {
    let events = stream_events(streams) as f64;
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for s in streams {
                    let mut noise = (load.tools[s.tool].noise)(s.seed ^ 0x9e37_79b9);
                    for (i, ev) in s.events.iter().enumerate() {
                        let view = NoiseView {
                            runnable: 2,
                            step: i as u64,
                            time: ev.time,
                        };
                        black_box(noise.decide(ev, &view));
                    }
                }
                t.elapsed().as_nanos() as f64 / events
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Runtime micro programs
// ---------------------------------------------------------------------

/// `k` worker threads, each taking lock `l` and incrementing `x` `iters`
/// times; main spawns and joins them.
fn lock_increment(k: usize, iters: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("lock_increment_t{k}"));
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let workers: Vec<_> = (0..k)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    for _ in 0..iters {
                        ctx.with_lock(l, |ctx| {
                            let v = ctx.read(x);
                            ctx.write(x, v + 1);
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            ctx.join(w);
        }
    });
    b.build()
}

/// Main spawns `k` threads that do nothing and joins them.
fn idle_threads(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("idle_t{k}"));
    b.entry(move |ctx| {
        let ts: Vec<_> = (0..k).map(|i| ctx.spawn(format!("t{i}"), |_| {})).collect();
        for t in ts {
            ctx.join(t);
        }
    });
    b.build()
}

/// Median over `REPS` runs of `per(stats)` for `program` under `spec`.
fn micro(program: &Program, spec: &str, per: impl Fn(&ExecStats) -> f64) -> f64 {
    let cfg = ToolConfig::from_spec_str(spec).expect("micro spec is valid");
    median(
        (0..REPS as u64)
            .map(|seed| {
                per(&cfg
                    .configure(Execution::new(program), seed, 10_000_000)
                    .run()
                    .stats)
            })
            .collect(),
    )
}

fn ns_per_event(s: &ExecStats) -> f64 {
    s.wall.as_nanos() as f64 / s.events.max(1) as f64
}

// ---------------------------------------------------------------------
// Generation and static analysis
// ---------------------------------------------------------------------

/// The `detectors` population: 80 generated families under one seed,
/// parsed, analysed and compiled member by member, each call timed.
struct Population {
    programs: Vec<Program>,
    family_us: f64,
    parse_us: f64,
    analyze_us: f64,
    compile_us: f64,
}

impl Population {
    fn generate(seed: u64) -> Population {
        let (mut fam, mut parse, mut analyze, mut compile) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let mut programs = Vec::new();
        for i in 0..FAMILIES {
            let t = Instant::now();
            let family = mtt_core::gen::family(seed, i);
            fam += t.elapsed();
            for m in &family.members {
                let t = Instant::now();
                let ast = mtt_core::statik::parse(&m.src).expect("generated members parse");
                parse += t.elapsed();
                let t = Instant::now();
                black_box(mtt_core::statik::analyze(&ast));
                analyze += t.elapsed();
                let t = Instant::now();
                programs.push(mtt_core::statik::compile(&ast));
                compile += t.elapsed();
            }
        }
        let members = programs.len().max(1) as f64;
        Population {
            family_us: us(fam) / FAMILIES as f64,
            parse_us: us(parse) / members,
            analyze_us: us(analyze) / members,
            compile_us: us(compile) / members,
            programs,
        }
    }
}

// ---------------------------------------------------------------------
// Campaign passes at --jobs 2
// ---------------------------------------------------------------------

/// Wall time and summed worker busy time of one parallel pass.
struct PoolPass {
    wall: Duration,
    busy: Duration,
}

impl From<&PoolStats> for PoolPass {
    fn from(stats: &PoolStats) -> Self {
        PoolPass {
            wall: stats.wall,
            busy: stats.workers.iter().map(|w| w.busy).sum(),
        }
    }
}

fn campaign_pass(programs: Vec<mtt_core::suite::SuiteProgram>, runs: u64) -> PoolPass {
    let c = Campaign::standard(programs, runs).with_jobs(JOBS);
    PoolPass::from(&c.run_full(&JobPool::new(JOBS)).pool_stats)
}

fn detectors_pass() -> PoolPass {
    let spans = SpanSet::new();
    let opts = GenEvalOptions {
        seed: GEN_SEED,
        families: FAMILIES,
        runs: E10_RUNS,
    };
    black_box(run_gen_eval_on(
        &opts,
        &JobPool::new(JOBS).with_spans(spans.clone()),
    ));
    let t = spans.timings();
    PoolPass {
        wall: t.total("pool.run"),
        busy: t.total("pool.worker"),
    }
}

/// What the recording layers cost on the `recorded` workload's campaign.
struct Recording {
    pool: PoolPass,
    runlog_write_us: f64,
    runlog_bytes_per_run: f64,
    journal_append_us: f64,
    journal_bytes_per_cell: f64,
    status_fold_ms: f64,
}

/// Run `mtt --journal DIR --metrics FILE e1` in process: the campaign
/// with a file journal and telemetry, then the run log written record by
/// record, then the journal replayed into a fresh sink and folded.
fn recording_pass(work: &Path) -> Recording {
    let journal = work.join("e1.ndjson");
    let sink = Arc::new(JournalSink::to_file(&journal, false).expect("open journal"));
    let mut c = Campaign::standard(mtt_core::suite::quick_set(), 60).with_jobs(JOBS);
    c.label = "e1".into();
    c.telemetry = true;
    c.journal = Some(Arc::clone(&sink));
    let run = c.run_full(&JobPool::new(JOBS));
    assert!(
        sink.error().is_none(),
        "journal write failed: {:?}",
        sink.error()
    );
    let cells = run.run_log.len().max(1) as f64;

    let runlog = work.join("metrics.ndjson");
    let mut w = RunLogWriter::new(std::fs::File::create(&runlog).expect("create run log"));
    let mut write = Duration::ZERO;
    for rec in &run.run_log {
        let t = Instant::now();
        w.write_record(rec).expect("write run log");
        write += t.elapsed();
    }
    w.flush().expect("flush run log");

    let text = std::fs::read_to_string(&journal).expect("read journal");
    let parsed = parse_journal(&text).expect("journal parses");
    let replay =
        JournalSink::to_file(&work.join("append.ndjson"), false).expect("open replay journal");
    let (mut appended, mut append) = (0u64, Duration::ZERO);
    for rec in parsed.records {
        let t = Instant::now();
        match rec {
            JournalRecord::Start(s) => replay.start(s),
            JournalRecord::Done(d) => replay.done(d),
            _ => continue,
        }
        append += t.elapsed();
        appended += 1;
    }
    assert!(replay.error().is_none(), "journal replay failed");

    let fold_ms = median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let text = std::fs::read_to_string(&journal).expect("read journal");
                let parsed = parse_journal(&text).expect("journal parses");
                black_box(StatusSummary::from_journal(&parsed));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    Recording {
        pool: PoolPass::from(&run.pool_stats),
        runlog_write_us: us(write) / cells,
        runlog_bytes_per_run: file_len(&runlog) / cells,
        journal_append_us: us(append) / appended.max(1) as f64,
        journal_bytes_per_cell: file_len(&journal) / cells,
        status_fold_ms: fold_ms,
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn trace(workload: &str, seed: u64, work: &Path) -> String {
    let pop = Population::generate(GEN_SEED);
    let load = workload_load(workload, &pop);

    let timed = pass(&load, true);
    let untimed = pass(&load, false);
    let streams = record_streams(&load, &timed.visited, seed);
    let recording = recording_pass(work);
    let pool = match workload {
        "short_runs" => campaign_pass(mtt_core::suite::quick_set(), 60),
        "long_runs" => campaign_pass(
            vec![mtt_core::suite::by_name("pipeline_etl").expect("suite has pipeline_etl")],
            240,
        ),
        "detectors" => detectors_pass(),
        _ => recording.pool,
    };

    let c = timed.counts;
    let runs = c.runs.max(1) as f64;
    let events = c.events.max(1) as f64;
    let mut run_us = timed.run_us.clone();
    run_us.sort_by(f64::total_cmp);
    let untimed_cpu = untimed.user + untimed.sys;
    let wall = untimed.wall.as_secs_f64();
    let lock2 = lock_increment(2, 400);
    let lock8 = lock_increment(8, 100);
    let idle = idle_threads(8);

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("runtime.run_us.p50", quantile(&run_us, 0.50));
    m.insert("runtime.run_us.p99", quantile(&run_us, 0.99));
    m.insert(
        "runtime.event_ns",
        timed.run_total.as_nanos() as f64 / events,
    );
    m.insert("runtime.stay_ns.t2", micro(&lock2, "fifo", ns_per_event));
    m.insert("runtime.stay_ns.t8", micro(&lock8, "fifo", ns_per_event));
    m.insert("runtime.switch_ns.t2", micro(&lock2, "rr", ns_per_event));
    m.insert("runtime.switch_ns.t8", micro(&lock8, "rr", ns_per_event));
    m.insert(
        "runtime.spawn_join_us",
        micro(&idle, "fifo", |s| {
            s.wall.as_secs_f64() * 1e6 / f64::from(s.threads.max(1))
        }),
    );
    m.insert("runtime.wait_share", (wall - untimed_cpu) / wall);
    m.insert("runtime.sys_share", untimed.sys / untimed_cpu.max(1e-9));
    m.insert("runtime.events_per_run", c.events as f64 / runs);
    m.insert("runtime.sched_points_per_run", c.sched_points as f64 / runs);
    m.insert(
        "runtime.switches_per_event",
        c.context_switches as f64 / events,
    );
    m.insert("runtime.threads_per_run", c.threads as f64 / runs);
    m.insert(
        "runtime.noise_per_event",
        c.noise_injections as f64 / events,
    );
    m.insert("tools.configure_us", us(timed.configure_total) / runs);
    m.insert("noise.decide_ns", noise_decide_ns(&load, &streams));
    m.insert(
        "instrument.tee_ns_per_event",
        replay_ns(&streams, recorded_tee) - replay_ns(&streams, Direct::default),
    );
    m.insert(
        "race.lockset_ns_per_event",
        replay_ns(&streams, EraserLockset::new),
    );
    m.insert(
        "race.hb_ns_per_event",
        replay_ns(&streams, VectorClockDetector::new),
    );
    m.insert(
        "deadlock.lockorder_ns_per_event",
        replay_ns(&streams, LockOrderGraph::new),
    );
    m.insert(
        "deadlock.waitsfor_ns_per_event",
        replay_ns(&streams, WaitsForMonitor::new),
    );
    m.insert(
        "causal.fingerprint_ns_per_event",
        replay_ns(&streams, Fingerprinter::default),
    );
    m.insert(
        "telemetry.sink_ns_per_event",
        replay_ns(&streams, TelemetrySink::new),
    );
    m.insert("telemetry.runlog_write_us", recording.runlog_write_us);
    m.insert(
        "telemetry.runlog_bytes_per_run",
        recording.runlog_bytes_per_run,
    );
    m.insert("obs.journal_append_us", recording.journal_append_us);
    m.insert(
        "obs.journal_bytes_per_cell",
        recording.journal_bytes_per_cell,
    );
    m.insert("obs.status_fold_ms", recording.status_fold_ms);
    m.insert("gen.family_us", pop.family_us);
    m.insert("statik.parse_us", pop.parse_us);
    m.insert("statik.analyze_us", pop.analyze_us);
    m.insert("statik.compile_us", pop.compile_us);
    m.insert(
        "experiment.cell_overhead_us",
        (pool.wall.as_secs_f64() * JOBS as f64 - timed.run_total.as_secs_f64()) * 1e6 / runs,
    );
    m.insert(
        "experiment.pool_busy_share",
        pool.busy.as_secs_f64() / (pool.wall.as_secs_f64() * JOBS as f64).max(1e-9),
    );
    m.insert("trace.timed_pass_s", timed.wall.as_secs_f64());
    m.insert("trace.untimed_pass_s", wall);

    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            assert!(v.is_finite(), "metric {k} is not finite: {v}");
            format!("\"{k}\":{v}")
        })
        .collect();
    format!(
        "{{\"metrics\":{{{}}},\"counts_timed\":{},\"counts_untimed\":{},\"stream_cells\":{},\"stream_events\":{}}}",
        metrics.join(","),
        timed.counts.json(),
        untimed.counts.json(),
        streams.len(),
        stream_events(&streams)
    )
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const _: () = assert!(
    std::mem::size_of::<usize>() == 8,
    "Rusage assumes a 64-bit target"
);

/// User and system CPU seconds of this process so far (`RUSAGE_SELF`),
/// which includes every joined model thread.
fn cpu_self() -> (f64, f64) {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of a 64-bit Linux target, and 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (secs(ru.utime), secs(ru.stime))
}
