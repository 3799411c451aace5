//! The experiment registry: one row per prepared experiment.
//!
//! [`EXPERIMENTS`] is the only list of experiments. The `mtt` binary
//! dispatches through it, `mtt all` runs the rows that name `all`
//! arguments, `mtt help` and the per-flag command lists are generated from
//! it, and the CLI and differential tests iterate it. A row does no work
//! until its `run` is called; every row returns a [`Report`], whose one
//! renderer serves text, `--csv` and `--json`.

use crate::campaign::{Campaign, CampaignReport};
use crate::cli_spec::{self, GLOBAL_FLAGS};
use crate::jobpool::JobPool;
use crate::report::{Format, Report};
use crate::{
    cloning, coverage_eval, detector_eval, differential_eval, explore_eval, gen_eval,
    multiout_eval, replay_eval, saturation_eval, scoreboard, static_eval,
};
use mtt_obs::{JournalSink, ResumeCache};
use mtt_runtime::RuntimeBackend;
use mtt_telemetry::{RunLogRecord, RunLogWriter};
use mtt_tools::{ToolConfig, ToolSpec};
use std::cell::OnceCell;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A global flag that only some experiments read. `--jobs` and `--quiet`
/// are read by every command and are not listed; every other flag given
/// to an experiment that does not read it is a usage error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--budget-ms N`
    Budget,
    /// `--metrics FILE`
    Metrics,
    /// `--tools SPECS` or `--tools-file FILE`
    Tools,
    /// `--journal DIR`
    Journal,
    /// `--resume`
    Resume,
    /// `--backend model|native`
    Backend,
}

impl Flag {
    /// Every flag, in help order.
    pub const ALL: [Flag; 6] = [
        Flag::Budget,
        Flag::Metrics,
        Flag::Tools,
        Flag::Journal,
        Flag::Resume,
        Flag::Backend,
    ];

    /// The flag as typed, for error messages: the spellings of its
    /// [`GLOBAL_FLAGS`] entries, e.g. `--tools/--tools-file`.
    pub fn spelling(self) -> String {
        let spellings: Vec<&str> = GLOBAL_FLAGS
            .iter()
            .filter(|f| f.flag == Some(self))
            .filter_map(|f| f.flags.split(' ').next())
            .collect();
        spellings.join("/")
    }
}

/// One prepared experiment.
pub struct Experiment {
    /// Subcommand name as typed.
    pub name: &'static str,
    /// Argument synopsis for the help.
    pub args: &'static str,
    /// One-line description for the help.
    pub summary: &'static str,
    /// The global flags `run` reads.
    pub flags: &'static [Flag],
    /// The report views besides text that the row offers; `--csv` or
    /// `--json` for a view not listed here exits 2 before any work.
    pub views: &'static [Format],
    /// The arguments `mtt all` passes, or `None` to leave the row out.
    pub all_args: Option<&'static [&'static str]>,
    /// Run the experiment on its own arguments (`--csv`/`--json` already
    /// removed).
    pub run: fn(&[String], &Ctx) -> Result<Report, String>,
}

impl Experiment {
    /// Does this row read `flag`?
    pub fn reads(&self, flag: Flag) -> bool {
        self.flags.contains(&flag)
    }
}

/// The flags of the campaign-shaped rows: all of them.
const CAMPAIGN: &[Flag] = &Flag::ALL;

/// The views of a row whose report is tables.
const CSV: &[Format] = &[Format::Csv];

/// The views of a row whose report is tables plus a JSON view.
const CSV_JSON: &[Format] = &[Format::Csv, Format::Json];

/// Every prepared experiment, in help and `mtt all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        args: "[runs]",
        summary: "noise-heuristic comparison",
        flags: CAMPAIGN,
        views: CSV,
        all_args: Some(&["40"]),
        run: e1,
    },
    Experiment {
        name: "e1-detail",
        args: "<program> [runs]",
        summary: "per-bug find probability for one program",
        flags: CAMPAIGN,
        views: CSV,
        all_args: None,
        run: e1_detail,
    },
    Experiment {
        name: "cloning",
        args: "[runs]",
        summary: "§2.3 cloning/load-test driver",
        flags: &[Flag::Tools, Flag::Journal],
        views: &[],
        all_args: None,
        run: cloning,
    },
    Experiment {
        name: "e2",
        args: "[traces]",
        summary: "race detectors on annotated traces",
        flags: &[Flag::Journal],
        views: CSV,
        all_args: Some(&["8"]),
        run: e2,
    },
    Experiment {
        name: "e3",
        args: "[attempts]",
        summary: "replay success vs drift",
        flags: &[Flag::Journal],
        views: CSV,
        all_args: Some(&["15"]),
        run: e3,
    },
    Experiment {
        name: "e4",
        args: "<program> [runs]",
        summary: "coverage growth + run-count advice",
        flags: &[Flag::Journal],
        views: CSV,
        all_args: Some(&["web_sessions", "15"]),
        run: e4,
    },
    Experiment {
        name: "e5",
        args: "[runs]",
        summary: "multiout outcome distributions",
        flags: &[Flag::Tools, Flag::Journal],
        views: CSV,
        all_args: Some(&["80"]),
        run: e5,
    },
    Experiment {
        name: "e6",
        args: "[budget]",
        summary: "exploration vs random testing",
        flags: &[Flag::Journal],
        views: CSV,
        all_args: Some(&["2000"]),
        run: e6,
    },
    Experiment {
        name: "e7",
        args: "[runs]",
        summary: "static advice: reduction + preservation",
        flags: &[Flag::Journal],
        views: CSV,
        all_args: Some(&["30"]),
        run: e7,
    },
    Experiment {
        name: "e8",
        args: "[seed]",
        summary: "online/offline trade-off (always serial: it measures wall-clock time)",
        flags: &[],
        views: CSV,
        all_args: Some(&["7"]),
        run: e8,
    },
    Experiment {
        name: "e10",
        args: "[--seed S] [--families N] [--runs R]",
        summary: "precision/recall + robust detection over generated variant families",
        flags: &[Flag::Journal],
        views: CSV_JSON,
        all_args: Some(&["--families", "8", "--runs", "2"]),
        run: e10,
    },
    Experiment {
        name: "e11",
        args: "[runs]",
        summary: "static vs dynamic scoreboard: per-class precision/recall",
        flags: &[Flag::Journal],
        views: CSV_JSON,
        all_args: Some(&["12"]),
        run: e11,
    },
    Experiment {
        name: "e12",
        args: "[runs]",
        summary: "schedule-space saturation: distinct trace classes, curve AUC, unseen mass",
        flags: &[Flag::Journal],
        views: CSV_JSON,
        all_args: Some(&["12"]),
        run: e12,
    },
    Experiment {
        name: "e13",
        args: "[runs] [--model-csv]",
        summary:
            "model vs native differential: find probability, outcome distributions, TV distance",
        flags: &[Flag::Journal],
        views: CSV_JSON,
        all_args: Some(&["6"]),
        run: e13,
    },
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The global flags as parsed from the command line.
#[derive(Clone, Default)]
pub struct Flags {
    /// `--jobs N` (0 = available parallelism).
    pub jobs: usize,
    /// `--budget-ms N`.
    pub budget: Option<Duration>,
    /// `--quiet`.
    pub quiet: bool,
    /// `--metrics FILE`.
    pub metrics: Option<String>,
    /// `--tools SPECS` or `--tools-file FILE`.
    pub tools: Option<Vec<ToolSpec>>,
    /// `--journal DIR`.
    pub journal: Option<String>,
    /// `--resume`.
    pub resume: bool,
    /// `--backend model|native`.
    pub backend: Option<RuntimeBackend>,
}

impl Flags {
    /// Was `flag` given?
    fn given(&self, flag: Flag) -> bool {
        match flag {
            Flag::Budget => self.budget.is_some(),
            Flag::Metrics => self.metrics.is_some(),
            Flag::Tools => self.tools.is_some(),
            Flag::Journal => self.journal.is_some(),
            Flag::Resume => self.resume,
            Flag::Backend => self.backend.is_some(),
        }
    }

    /// Exit 2 before any work if a flag the command `cmd` does not read
    /// (see [`cli_spec::reads`]) was given.
    pub fn check(&self, cmd: &str) -> Result<(), String> {
        match Flag::ALL
            .into_iter()
            .find(|&f| self.given(f) && !cli_spec::reads(cmd, f))
        {
            Some(flag) => Err(format!(
                "{} is not supported by `{cmd}` (see `mtt help`)",
                flag.spelling()
            )),
            None => Ok(()),
        }
    }

    /// A pool for the command `label`, honoring `--jobs`/`--quiet`.
    pub fn pool(&self, label: &str) -> JobPool {
        let pool = JobPool::new(self.jobs);
        if self.quiet {
            pool
        } else {
            pool.with_progress(label)
        }
    }

    /// Open `--journal DIR/<label>.ndjson` if journaling was requested.
    /// With `--resume` the existing journal is tail-repaired, parsed
    /// (corruption is exit 2) and turned into a [`ResumeCache`]; the sink
    /// then appends. Without `--resume` the file is truncated.
    pub fn open_journal(
        &self,
        label: &str,
    ) -> Result<(Option<Arc<JournalSink>>, Option<ResumeCache>), String> {
        let Some(dir) = &self.journal else {
            if self.resume {
                return Err(
                    "--resume needs --journal DIR (there is no journal to resume from)".to_string(),
                );
            }
            return Ok((None, None));
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--journal: cannot create directory {dir}: {e}"))?;
        let path = Path::new(dir).join(format!("{label}.ndjson"));
        let mut cache = None;
        if self.resume && path.exists() {
            // A crash can only ever truncate the final line; cut that
            // fragment off so appended records start on a line boundary.
            mtt_obs::truncate_partial_tail(&path)
                .map_err(|e| format!("--resume: cannot repair {}: {e}", path.display()))?;
            let parsed = mtt_obs::load_journal(&path)?;
            cache = Some(ResumeCache::from_records(&parsed.records));
        }
        let sink = JournalSink::to_file(&path, self.resume)
            .map_err(|e| format!("--journal: cannot open {}: {e}", path.display()))?;
        Ok((Some(Arc::new(sink)), cache))
    }
}

/// What a row's `run` gets besides its arguments. A flag the row does not
/// read is unset here, because the dispatcher rejects it before the row
/// runs.
pub struct Ctx {
    /// The pool, honoring `--jobs`/`--quiet`, without a journal.
    pool: JobPool,
    /// The global flags.
    flags: Flags,
    /// The row's name, which labels its journal.
    label: &'static str,
    /// The `--journal` sink once a row opened it.
    journal: OnceCell<Arc<JournalSink>>,
    journaled: OnceCell<JobPool>,
}

impl Ctx {
    /// A context for the row `label` on `pool`.
    pub fn new(pool: JobPool, flags: Flags, label: &'static str) -> Self {
        Ctx {
            pool,
            flags,
            label,
            journal: OnceCell::new(),
            journaled: OnceCell::new(),
        }
    }

    /// The row's pool, journaling its jobs as generic `job` records under
    /// `--journal`. The journal opens on the first call, after the row
    /// has parsed its arguments, so a usage error never truncates an
    /// existing journal.
    pub fn journaled_pool(&self) -> Result<&JobPool, String> {
        if let Some(pool) = self.journaled.get() {
            return Ok(pool);
        }
        let (sink, _) = self.flags.open_journal(self.label)?;
        let mut pool = self.pool.clone();
        if let Some(sink) = sink {
            pool = pool.with_journal(Arc::clone(&sink), self.label);
            let _ = self.journal.set(sink);
        }
        Ok(self.journaled.get_or_init(|| pool))
    }

    /// Check, after the row ran, that every journal record reached disk:
    /// a latched write error (disk full, deleted directory) is exit 2
    /// instead of a silently incomplete journal.
    pub fn finish(&self) -> Result<(), String> {
        match self.journal.get().and_then(|s| s.error()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The `--tools` roster, resolved, or `default` without the flag.
    fn tools_or(&self, default: Vec<ToolConfig>) -> Result<Vec<ToolConfig>, String> {
        match &self.flags.tools {
            None => Ok(default),
            Some(specs) => specs.iter().map(|s| s.resolve()).collect(),
        }
    }

    /// Run `campaign` under every campaign flag: the tool roster with
    /// `--backend` applied, `--budget-ms`, `--journal`/`--resume`, and the
    /// `--metrics` run log written once the grid is done.
    fn run_campaign(&self, mut campaign: Campaign) -> Result<CampaignReport, String> {
        campaign.tools = self.tools_or(campaign.tools)?;
        if let Some(b) = self.flags.backend {
            // Rewrite the provenance spec too, so canonical spec strings,
            // journal content addresses, and run-log records all name the
            // engine that actually ran.
            for cfg in &mut campaign.tools {
                cfg.backend = b;
                cfg.spec.backend = b;
            }
        }
        campaign.run_budget = self.flags.budget;
        campaign.jobs = self.flags.jobs;
        campaign.label = self.label.into();
        campaign.telemetry = self.flags.metrics.is_some();
        (campaign.journal, campaign.resume) = self.flags.open_journal(self.label)?;
        if let Some(sink) = &campaign.journal {
            let _ = self.journal.set(Arc::clone(sink));
        }
        let run = campaign.run_full(&self.pool);
        if let Some(path) = &self.flags.metrics {
            write_run_log(path, &run.run_log)?;
        }
        Ok(run.report)
    }
}

/// Write `records` as NDJSON to `path` (the `--metrics` run log).
pub fn write_run_log(path: &str, records: &[RunLogRecord]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = RunLogWriter::new(file);
    for rec in records {
        w.write_record(rec)
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("flush {path}: {e}"))
}

/// Parse the positional argument at `idx` as a number; the default applies
/// only when the argument is absent — a malformed value is an error, not a
/// silent fallback.
pub fn arg_u64(args: &[String], idx: usize, default: u64) -> Result<u64, String> {
    match args.get(idx) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("argument `{s}` is not a number")),
    }
}

/// The number after the flag `flag` in `it`; a missing or malformed
/// value is a usage error that names the flag.
pub fn num_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a number"))
}

/// The suite program named by argument `idx`, `web_sessions` by default.
fn program_arg(args: &[String], idx: usize) -> Result<mtt_suite::SuiteProgram, String> {
    let name = args.get(idx).map_or("web_sessions", String::as_str);
    mtt_suite::by_name(name).ok_or_else(|| format!("unknown program `{name}`"))
}

fn e1(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 60)?;
    let report = ctx.run_campaign(Campaign::standard(mtt_suite::quick_set(), runs))?;
    let mut tail = String::from("ranking (mean find-rate across programs):\n");
    for (tool, rate) in report.ranking() {
        tail.push_str(&format!("  {tool:<14} {rate:.3}\n"));
    }
    Ok(Report::new(vec![report.table()]).with_tail(tail))
}

fn e1_detail(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let p = program_arg(args, 0)?;
    let runs = arg_u64(args, 1, 60)?;
    let name = p.name;
    let report = ctx.run_campaign(Campaign::standard(vec![p], runs))?;
    Ok(Report::new(vec![report.per_bug_table(name)]))
}

fn cloning(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 60)?;
    // Without --tools: the historical comparison, bare cloning vs sleep
    // noise on top.
    let specs = match &ctx.flags.tools {
        Some(specs) => specs.clone(),
        None => vec![
            ToolSpec::parse("sticky:0.9+noise=sleep:0.3:15+name=sleep noise")
                .expect("default spec is valid"),
        ],
    };
    let mut out = String::from("§2.3 cloning driver: P(cloned test fails)\n\n");
    let pool = ctx.journaled_pool()?;
    for clones in [1u32, 2, 4, 8] {
        let plain = cloning::run_cloning_on(clones, runs, None, pool);
        out.push_str(&format!(
            "  {clones} clone(s):  plain {}",
            plain.fail.render()
        ));
        for spec in &specs {
            let r = cloning::run_cloning_on(clones, runs, Some(spec), pool);
            out.push_str(&format!("   + {} {}", spec.display_name(), r.fail.render()));
        }
        out.push('\n');
    }
    Ok(Report::default().with_tail(out))
}

fn e2(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let traces = arg_u64(args, 0, 10)?;
    let programs = mtt_suite::quick_set();
    let report = detector_eval::run_detector_eval_on(&programs, traces, ctx.journaled_pool()?);
    Ok(Report::new(vec![report.table()]))
}

fn e3(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let attempts = arg_u64(args, 0, 20)?;
    let rows = replay_eval::run_replay_eval_on(attempts, &[0, 1, 4, 16], ctx.journaled_pool()?);
    Ok(Report::new(vec![replay_eval::replay_table(&rows)]))
}

fn e4(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let p = program_arg(args, 0)?;
    let runs = arg_u64(args, 1, 20)?;
    let curves = coverage_eval::run_coverage_eval_on(&p, runs, 0, ctx.journaled_pool()?);
    Ok(Report::new(vec![coverage_eval::coverage_table(
        p.name, &curves,
    )]))
}

fn e5(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 120)?;
    let tools = ctx.tools_or(multiout_eval::standard_configs())?;
    let rows = multiout_eval::run_multiout_eval_on(runs, 0, tools, ctx.journaled_pool()?);
    Ok(Report::new(vec![multiout_eval::multiout_table(&rows)]))
}

fn e6(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let budget = arg_u64(args, 0, 3000)?;
    let programs = vec![
        mtt_suite::small::lost_update(2, 1),
        mtt_suite::small::ab_ba(),
        mtt_suite::small::check_then_act(),
    ];
    let rows = explore_eval::run_explore_eval_on(&programs, budget, ctx.journaled_pool()?);
    Ok(Report::new(vec![explore_eval::explore_table(&rows)]))
}

fn e7(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 40)?;
    let rows = static_eval::run_static_eval_on(runs, ctx.journaled_pool()?);
    Ok(Report::new(vec![
        static_eval::static_table(&rows),
        static_eval::class_table(&rows),
    ]))
}

fn e8(args: &[String], _: &Ctx) -> Result<Report, String> {
    // E8 measures online vs offline *wall-clock* overhead: concurrent runs
    // would contend with each other and poison the measurement, so it
    // runs serially whatever --jobs says.
    let seed = arg_u64(args, 0, 7)?;
    let rows = detector_eval::run_tradeoff_eval(&mtt_suite::quick_set(), seed);
    Ok(Report::new(vec![detector_eval::tradeoff_table(&rows)]))
}

fn e10(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let mut opts = gen_eval::GenEvalOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let field = match a.as_str() {
            "--seed" => &mut opts.seed,
            "--families" => &mut opts.families,
            "--runs" => &mut opts.runs,
            other => return Err(format!("e10: unknown argument `{other}`")),
        };
        *field = num_value(&mut it, a)?;
    }
    let rows = gen_eval::run_gen_eval_on(&opts, ctx.journaled_pool()?);
    let tables = vec![
        gen_eval::scoreboard_table(&rows),
        gen_eval::population_table(&rows),
    ];
    Ok(Report::new(tables).with_json(move || gen_eval::gen_eval_json(&opts, &rows)))
}

fn e11(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 20)?;
    let rows = scoreboard::run_scoreboard_on(runs, ctx.journaled_pool()?);
    let tables = vec![
        scoreboard::scoreboard_table(&rows),
        scoreboard::class_table(&rows),
    ];
    Ok(Report::new(tables).with_json(move || scoreboard::scoreboard_json(&rows)))
}

fn e12(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let runs = arg_u64(args, 0, 40)?;
    let cells = saturation_eval::run_saturation_on(runs, ctx.journaled_pool()?);
    let tables = vec![saturation_eval::saturation_table(&cells)];
    Ok(Report::new(tables).with_json(move || saturation_eval::saturation_json(&cells)))
}

fn e13(args: &[String], ctx: &Ctx) -> Result<Report, String> {
    let model_only = args.iter().any(|a| a == "--model-csv");
    let positional: Vec<String> = args
        .iter()
        .filter(|a| *a != "--model-csv")
        .cloned()
        .collect();
    let runs = arg_u64(&positional, 0, 12)?;
    let cells = differential_eval::run_differential_on(runs, ctx.journaled_pool()?);
    // `--model-csv` replaces the text and CSV views; `--json` still wins.
    let report = if model_only {
        Report::default().with_tail(differential_eval::model_csv(&cells))
    } else {
        Report::new(vec![differential_eval::differential_table(&cells)])
    };
    Ok(report.with_json(move || differential_eval::differential_json(&cells)))
}
