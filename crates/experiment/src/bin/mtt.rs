//! `mtt` — the push-button prepared experiments.
//!
//! "All the machinery will be in place so that with the push of a button,
//! it can be evaluated and compared to alternative approaches" (§4).
//!
//! `mtt help` lists every command and global flag; the listing is
//! generated from `mtt_experiment::cli_spec` and the experiment registry
//! (`mtt_experiment::registry`), which this binary dispatches through.

use mtt_experiment::registry::{
    self, arg_u64, num_value, write_run_log, Ctx, Experiment, Flags, EXPERIMENTS,
};
use mtt_experiment::{cli_spec, explain, profile, tracegen, Format};
use mtt_obs::StatusSummary;
use mtt_runtime::{Execution, RandomScheduler, RuntimeBackend};
use mtt_telemetry::check_run_log_line;
use mtt_tools::ToolSpec;
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Run one registry row whose flags were checked: pick the view
/// `--csv`/`--json` ask for (a view the row lacks exits 2 before any
/// work), run the row (it opens its journal), and print its report.
fn run_experiment(row: &Experiment, g: &Flags, args: &[impl AsRef<str>]) -> Result<(), String> {
    let mut format = Format::Text;
    let mut rest = Vec::new();
    for a in args.iter().map(AsRef::as_ref) {
        let Some(&view) = [Format::Csv, Format::Json].iter().find(|v| v.flag() == a) else {
            rest.push(a.to_string());
            continue;
        };
        if !row.views.contains(&view) {
            return Err(format!("{a} is not supported by `{}`", row.name));
        }
        // `--json` wins over `--csv`, whatever their order.
        if format != Format::Json {
            format = view;
        }
    }
    let ctx = Ctx::new(g.pool(row.name), g.clone(), row.name);
    let report = (row.run)(&rest, &ctx)?;
    ctx.finish()?;
    let text = report.render(format).ok_or_else(|| {
        format!(
            "`{}` has no {} view of this report",
            row.name,
            format.flag()
        )
    })?;
    print!("{text}");
    Ok(())
}

/// `mtt all`: every row with `all` arguments, in registry order.
fn run_all(g: &Flags, args: &[String]) -> Result<(), String> {
    if let Some(extra) = args.first() {
        return Err(format!("all: unexpected argument `{extra}`"));
    }
    for row in EXPERIMENTS {
        if let Some(all_args) = row.all_args {
            run_experiment(row, g, all_args)?;
        }
    }
    Ok(())
}

/// The argument of a path-taking flag. Rejecting flag-shaped values here
/// is what keeps a typo like `mtt e1 --metrics --journal DIR` from
/// silently writing a run log to a file literally named `--journal`.
fn path_value(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with('-') => Ok(v.clone()),
        Some(v) => Err(format!(
            "{flag} needs {what}, but the next argument is `{v}` — a flag, not a path"
        )),
        None => Err(format!("{flag} needs {what}")),
    }
}

/// Split `--jobs/-j/--budget-ms/--quiet/-q` out of the raw argument list;
/// everything else stays positional (subcommand flags like `--json` pass
/// through). Returns an error message for malformed global flags.
fn parse_global(raw: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut g = Flags::default();
    let mut rest = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => g.jobs = num_value(&mut it, "--jobs")?,
            "--budget-ms" => {
                g.budget = Some(Duration::from_millis(num_value(&mut it, a)?));
            }
            "--quiet" | "-q" => g.quiet = true,
            "--metrics" => {
                g.metrics = Some(path_value(&mut it, "--metrics", "a file path")?);
            }
            "--tools" => {
                let v = it
                    .next()
                    .ok_or("--tools needs a comma-separated spec list")?;
                let specs = ToolSpec::parse_list(v)
                    .map_err(|e| format!("--tools: invalid spec\n{}", e.render()))?;
                if specs.is_empty() {
                    return Err("--tools: empty spec list".into());
                }
                g.tools = Some(specs);
            }
            "--journal" => {
                g.journal = Some(path_value(&mut it, "--journal", "a directory")?);
            }
            "--resume" => g.resume = true,
            "--backend" => {
                let v = it
                    .next()
                    .ok_or("--backend needs a value (model or native)")?;
                g.backend = Some(RuntimeBackend::parse(v).ok_or_else(|| {
                    format!("--backend: unknown backend `{v}` (known: model, native)")
                })?);
            }
            "--tools-file" => {
                let path = it.next().ok_or("--tools-file needs a file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("--tools-file: read {path}: {e}"))?;
                let specs = ToolSpec::parse_file(&text)
                    .map_err(|e| format!("--tools-file {path}: invalid spec\n{}", e.render()))?;
                if specs.is_empty() {
                    return Err(format!("--tools-file: no specs in {path}"));
                }
                g.tools = Some(specs);
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok((g, rest))
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let (global, args) = match parse_global(&raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("mtt: {msg}");
            return ExitCode::from(2);
        }
    };
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let run = || -> Result<ExitCode, String> {
        let known = cli_spec::SUBCOMMANDS.iter().any(|c| c.name == cmd);
        if known || registry::find(cmd).is_some() {
            global.check(cmd)?;
        }
        match cmd {
            "list" => Ok(list()),
            "lint" => lint(&args[1..]),
            "run" => run_one(&args[1..]),
            "trace" => trace(&args[1..]),
            "explain" => explain_cmd(&args[1..], &global),
            "gen" => gen_cmd(&args[1..]),
            "profile" => profile_cmd(&args[1..], &global),
            "status" => status_cmd(&args[1..]),
            "watch" => watch_cmd(&args[1..]),
            "tools" => tools_cmd(&args[1..]),
            "metrics-check" => metrics_check(&args[1..]),
            "trace-check" => trace_check(&args[1..]),
            "journal-check" => journal_check(&args[1..]),
            "all" => run_all(&global, &args[1..]).map(|()| ExitCode::SUCCESS),
            "help" | "--help" | "-h" => {
                println!("{}", cli_spec::usage());
                Ok(ExitCode::SUCCESS)
            }
            "" => {
                eprintln!("{}", cli_spec::usage());
                Ok(ExitCode::from(2))
            }
            name => match registry::find(name) {
                Some(row) => run_experiment(row, &global, &args[1..]).map(|()| ExitCode::SUCCESS),
                None => {
                    eprintln!("mtt: unknown subcommand `{name}`\n{}", cli_spec::usage());
                    Ok(ExitCode::from(2))
                }
            },
        }
    };
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mtt: {msg}");
            ExitCode::from(2)
        }
    }
}

fn list() -> ExitCode {
    println!(
        "benchmark repository ({} programs):\n",
        mtt_suite::all().len()
    );
    for p in mtt_suite::all() {
        println!("  {:<22} [{:?}]", p.name, p.size);
        for b in &p.bugs {
            println!("      {:<24} {:?}: {}", b.tag, b.class, b.description);
        }
    }
    ExitCode::SUCCESS
}

/// Parse a `--deny`/`--allow` value: `all` or a comma-separated code list.
/// `None` means "every code" (the `all` sentinel).
fn parse_code_list(value: &str) -> Option<Vec<String>> {
    if value == "all" {
        None
    } else {
        Some(
            value
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect(),
        )
    }
}

/// Does `codes` (None = all) cover diagnostic code `code`?
fn code_matches(codes: &Option<Vec<String>>, code: &str) -> bool {
    match codes {
        None => true,
        Some(list) => list.iter().any(|c| c == code),
    }
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut target = None;
    let mut deny: Option<Option<Vec<String>>> = None;
    let mut allow: Option<Option<Vec<String>>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--deny" => {
                let v = it.next().ok_or("--deny needs a code list (or `all`)")?;
                deny = Some(parse_code_list(v));
            }
            "--allow" => {
                let v = it.next().ok_or("--allow needs a code list (or `all`)")?;
                allow = Some(parse_code_list(v));
            }
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let Some(target) = target else {
        let samples: String = mtt_static::samples::catalog()
            .iter()
            .map(|s| format!("\n  {}", s.name))
            .collect();
        return Err(format!(
            "usage: mtt lint <sample-name|file.mp> [--json] [--deny IDS] [--allow IDS]\nsamples:{samples}"
        ));
    };

    // A known sample name wins; anything else is read as a source file.
    let (label, src) = match mtt_static::samples::by_name(&target) {
        Some(s) => (format!("<sample {}>", s.name), s.src.to_string()),
        None => (
            target.clone(),
            std::fs::read_to_string(&target).map_err(|e| {
                format!("`{target}` is neither a sample name nor a readable file: {e}")
            })?,
        ),
    };
    let ast = match mtt_static::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{label}: parse error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let result = mtt_static::analyze(&ast);
    // `--allow` suppresses matching diagnostics entirely; `--deny` marks
    // the remaining matches as gate failures (exit 3, for CI).
    let diagnostics: Vec<_> = result
        .diagnostics
        .iter()
        .filter(|d| match &allow {
            Some(codes) => !code_matches(codes, &d.code),
            None => true,
        })
        .cloned()
        .collect();
    let denied = diagnostics
        .iter()
        .filter(|d| match &deny {
            Some(codes) => code_matches(codes, &d.code),
            None => false,
        })
        .count();
    if json {
        println!("{}", mtt_json::to_string(&diagnostics));
    } else if diagnostics.is_empty() {
        println!("{label}: no findings");
    } else {
        for d in &diagnostics {
            println!("{}", d.render());
        }
        println!(
            "{label}: {} finding(s) across {} pass(es)",
            diagnostics.len(),
            diagnostics
                .iter()
                .map(|d| d.code.clone())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }
    Ok(if denied > 0 {
        eprintln!("{label}: {denied} denied finding(s)");
        ExitCode::from(3)
    } else if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("usage: mtt run <program> [seed]")?;
    let p = mtt_suite::by_name(name)
        .ok_or_else(|| format!("unknown program `{name}` — try `mtt list`"))?;
    let seed = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0u64);
    let o = Execution::new(&p.program)
        .scheduler(Box::new(RandomScheduler::new(seed)))
        .max_steps(100_000)
        .run();
    println!("{}", o.summary());
    let v = p.judge(&o);
    if v.failed() {
        println!("manifested bugs: {:?}", v.manifested);
    } else {
        println!("no documented bug manifested in this run");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace(args: &[String]) -> Result<ExitCode, String> {
    let (Some(name), Some(n), Some(dir)) = (args.first(), args.get(1), args.get(2)) else {
        return Err("usage: mtt trace <program> <count> <dir>".into());
    };
    let p = mtt_suite::by_name(name).ok_or_else(|| format!("unknown program `{name}`"))?;
    let count: u64 = n.parse().unwrap_or(1);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let traces = tracegen::generate_many(&p, &tracegen::TraceGenOptions::default(), count);
    for (i, t) in traces.iter().enumerate() {
        let path = format!("{dir}/{name}-{i}.jsonl");
        if let Err(e) = mtt_trace::json::save(t, &path) {
            eprintln!("write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "{path}: {} records, manifested: {:?}",
            t.len(),
            t.meta.manifested_bugs
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn explain_cmd(args: &[String], g: &Flags) -> Result<ExitCode, String> {
    let mut opts = explain::ExplainOptions::default();
    let mut timeline = false;
    let mut diff = false;
    let mut csv = false;
    let mut annotate: Option<String> = None;
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed-fail" => opts.seed_fail = Some(num_value(&mut it, a)?),
            "--seed-pass" => opts.seed_pass = Some(num_value(&mut it, a)?),
            "--scan" => opts.scan = num_value(&mut it, a)?,
            "--annotate" => {
                let v = it.next().ok_or("--annotate needs a file path")?;
                annotate = Some(v.clone());
            }
            "--tool" => {
                let v = it.next().ok_or("--tool needs a spec")?;
                opts.tool = Some(
                    ToolSpec::parse(v)
                        .map_err(|e| format!("--tool: invalid spec\n{}", e.render()))?,
                );
            }
            "--timeline" => timeline = true,
            "--diff" => diff = true,
            "--csv" => csv = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("explain: unexpected argument `{other}`")),
        }
    }
    let Some(name) = name else {
        return Err(
            "usage: mtt explain <program> [--seed-fail N] [--seed-pass N] \
             [--timeline] [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]"
                .into(),
        );
    };
    let Some(p) = mtt_suite::by_name(&name) else {
        return Err(format!("unknown program `{name}` — try `mtt list`"));
    };
    let ctx = Ctx::new(g.pool("explain"), g.clone(), "explain");
    let e = explain::explain_on(&p, &opts, ctx.journaled_pool()?)?;
    ctx.finish()?;
    print!("{}", e.render_summary());
    if timeline || (!diff && !csv) {
        println!();
        if csv {
            print!("{}", e.timeline_csv());
        } else {
            print!("{}", e.render_timeline());
        }
    }
    if diff {
        let rendered = if csv { e.diff_csv() } else { e.render_diff() };
        match rendered {
            Some(text) => {
                println!();
                print!("{text}");
            }
            None => eprintln!("mtt: no passing run to diff against (see --seed-pass / --scan)"),
        }
    }
    if let Some(path) = annotate {
        std::fs::write(&path, e.annotated_ndjson())
            .map_err(|err| format!("write {path}: {err}"))?;
        println!("annotated trace written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_check(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("usage: mtt trace-check <file.ndjson>")?;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mtt: read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    Ok(match mtt_causal::check_annotated(&text) {
        Ok(n) => {
            println!("{path}: annotated trace conforms to the schema ({n} record(s))");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    })
}

fn profile_cmd(args: &[String], g: &Flags) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut timing = false;
    let mut annotate_dir = None;
    let mut chrome_path: Option<String> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--timing" => timing = true,
            "--annotate" => {
                let v = it.next().ok_or("--annotate needs a directory")?;
                annotate_dir = Some(v.clone());
            }
            "--chrome-trace" => {
                let v = it.next().ok_or("--chrome-trace needs a file path")?;
                chrome_path = Some(v.clone());
            }
            other => positional.push(other.to_string()),
        }
    }
    let Some(key) = positional.first() else {
        return Err(format!(
            "usage: mtt profile <{}|all> [runs] [--csv] [--timing] [--annotate DIR] \
             [--chrome-trace FILE]",
            profile::PROFILE_KEYS.join("|")
        ));
    };
    let runs = arg_u64(&positional, 1, 20)?;
    let keys: Vec<&str> = if key == "all" {
        profile::PROFILE_KEYS.to_vec()
    } else {
        vec![key.as_str()]
    };
    if chrome_path.is_some() && keys.len() > 1 {
        return Err("--chrome-trace needs a single profile key, not `all`".into());
    }
    let mut all_records = Vec::new();
    for key in keys {
        let (sink, _) = g.open_journal(&format!("profile-{key}"))?;
        let opts = profile::ProfileOptions {
            runs,
            jobs: g.jobs,
            top_k: 10,
            progress: !g.quiet,
            annotate_dir: annotate_dir.clone(),
            tools: g.tools.clone(),
            chrome: chrome_path.is_some(),
            journal: sink.clone(),
        };
        let report = profile::run_profile(key, &opts)?;
        // A latched journal write error is exit 2, not a short journal.
        if let Some(e) = sink.and_then(|s| s.error()) {
            return Err(e);
        }
        if csv {
            print!("{}", report.to_csv());
        } else {
            print!("{}", report.render());
        }
        if timing {
            print!("{}", report.render_timing());
        }
        for path in &report.annotated {
            println!("annotated trace written to {path}");
        }
        if let Some(path) = &chrome_path {
            let trace = report.chrome_trace();
            std::fs::write(path, trace.dump())
                .map_err(|e| format!("--chrome-trace: write {path}: {e}"))?;
            println!(
                "chrome trace written to {path} ({} event(s); load via chrome://tracing)",
                trace.len()
            );
        }
        all_records.extend(report.run_log);
    }
    if let Some(path) = &g.metrics {
        write_run_log(path, &all_records)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Resolve a `status`/`watch`/`journal-check` target: a directory becomes
/// its sorted `*.ndjson` files, a file is itself. No journals is an error —
/// a typo'd path should not look like a healthy empty campaign.
fn journal_files(target: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(target);
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {target}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().map(|x| x == "ndjson").unwrap_or(false))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.ndjson journals in {target}"));
        }
        Ok(files)
    } else if path.is_file() {
        Ok(vec![path.to_path_buf()])
    } else {
        Err(format!("{target}: no such file or directory"))
    }
}

/// Fold the journals under `target` into per-campaign summaries, in file
/// order. Read-only: a half-written final record is tolerated (and flagged
/// in the summary), never repaired on disk — the writing process may still
/// be mid-append.
fn load_summaries(target: &str) -> Result<Vec<(PathBuf, StatusSummary)>, String> {
    journal_files(target)?
        .into_iter()
        .map(|path| {
            let parsed = mtt_obs::load_journal(&path)?;
            let summary = StatusSummary::from_journal(&parsed);
            Ok((path, summary))
        })
        .collect()
}

fn status_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(target) = args.first() else {
        return Err("usage: mtt status <dir|file.ndjson>".into());
    };
    for (path, summary) in load_summaries(target)? {
        print!("{}: {}", path.display(), summary.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn watch_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut interval_ms: u64 = 1000;
    let mut max_polls: u64 = u64::MAX;
    let mut target: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => interval_ms = num_value(&mut it, a)?,
            "--max-polls" => max_polls = num_value(&mut it, a)?,
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => return Err(format!("watch: unexpected argument `{other}`")),
        }
    }
    let Some(target) = target else {
        return Err("usage: mtt watch <dir|file.ndjson> [--interval-ms N] [--max-polls N]".into());
    };
    for poll in 0..max_polls {
        if poll > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let summaries = load_summaries(&target)?;
        for (path, summary) in &summaries {
            print!("{}: {}", path.display(), summary.render());
        }
        if summaries.iter().all(|(_, s)| s.complete) {
            println!("all campaigns complete");
            return Ok(ExitCode::SUCCESS);
        }
        println!("---");
    }
    eprintln!("mtt watch: campaigns still running after {max_polls} poll(s)");
    Ok(ExitCode::FAILURE)
}

fn journal_check(args: &[String]) -> Result<ExitCode, String> {
    let Some(target) = args.first() else {
        return Err("usage: mtt journal-check <dir|file.ndjson>".into());
    };
    for path in journal_files(target)? {
        let parsed = mtt_obs::load_journal(&path)?;
        if parsed.tail_discarded {
            return Err(format!(
                "{}: truncated final record (crash mid-write); `--resume` \
                 discards it, but a strict check does not pass",
                path.display()
            ));
        }
        println!(
            "{}: {} record(s) conform to journal schema v{}",
            path.display(),
            parsed.records.len(),
            mtt_obs::JOURNAL_VERSION
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `mtt tools` — the component registry surface: list the catalog, print
/// the standard roster's canonical specs, describe one spec, or validate
/// specs (from arguments or a file). Validation failures exit 2 with a
/// column-pointing error, mirroring how the global `--tools` flag fails.
fn tools_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut file: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--file" => {
                let v = it.next().ok_or("tools: --file needs a path")?;
                file = Some(v.clone());
            }
            other => rest.push(other.to_string()),
        }
    }
    let verb = rest.first().map(String::as_str).unwrap_or("list");
    match verb {
        "list" => {
            if json {
                println!("{}", mtt_tools::catalog_json().dump());
            } else {
                println!(
                    "component registry ({} components):\n",
                    mtt_tools::catalog().len()
                );
                let mut kind = "";
                for c in mtt_tools::catalog() {
                    if c.kind.label() != kind {
                        kind = c.kind.label();
                        println!("{kind}:");
                    }
                    let params = c
                        .params
                        .iter()
                        .map(|p| format!("{}={}", p.name, p.default))
                        .collect::<Vec<_>>()
                        .join(":");
                    let head = if params.is_empty() {
                        c.id.to_string()
                    } else {
                        format!("{}  [{params}]", c.id)
                    };
                    println!("  {head:<38} {}", c.summary);
                }
                println!("\nspec grammar: scheduler[:p...][+noise=id[:p...]][+place=id][+race=id][+deadlock=id][+cov=id][+spurious=p][+name=label]");
                println!("standard roster: `mtt tools specs`");
            }
            Ok(ExitCode::SUCCESS)
        }
        "specs" => {
            for s in mtt_tools::STANDARD_ROSTER_SPECS {
                let spec = ToolSpec::parse(s).expect("standard roster specs are valid");
                println!("{}", spec.canonical());
            }
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            let Some(text) = rest.get(1) else {
                return Err("usage: mtt tools describe <spec>".into());
            };
            let spec = match ToolSpec::parse(text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{}", e.render());
                    return Ok(ExitCode::from(2));
                }
            };
            let cfg = spec.resolve()?;
            println!("spec:      {}", spec.canonical());
            println!("name:      {}", cfg.name);
            let describe = |kind, c: &mtt_tools::ComponentSpec| {
                let info = mtt_tools::registry::lookup(kind, &c.id).expect("validated");
                let params = info
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| format!("{}={}", p.name, mtt_tools::registry::param(info, c, i)))
                    .collect::<Vec<_>>()
                    .join(", ");
                if params.is_empty() {
                    format!("{} — {}", c.id, info.summary)
                } else {
                    format!("{} ({params}) — {}", c.id, info.summary)
                }
            };
            println!(
                "scheduler: {}",
                describe(mtt_tools::ComponentKind::Scheduler, &spec.scheduler)
            );
            println!(
                "noise:     {}",
                describe(mtt_tools::ComponentKind::Noise, &spec.noise)
            );
            if let Some(place) = &spec.place {
                println!(
                    "placement: {}",
                    describe(mtt_tools::ComponentKind::Placement, place)
                );
            }
            for (kind, sink) in &spec.sinks {
                println!(
                    "{:<9}  {}",
                    format!("{}:", kind.key()),
                    describe(mtt_tools::ComponentKind::of_sink(*kind), sink)
                );
            }
            if let Some(p) = spec.spurious {
                println!("spurious:  wakeup probability {p}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            if let Some(path) = &file {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("tools validate: read {path}: {e}"))?;
                return match ToolSpec::parse_file(&text) {
                    Ok(specs) => {
                        for s in &specs {
                            println!("{}", s.canonical());
                        }
                        println!("{path}: {} spec(s) valid", specs.len());
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(e) => {
                        eprintln!("{path}: {}", e.render());
                        Ok(ExitCode::from(2))
                    }
                };
            }
            if rest.len() < 2 {
                return Err("usage: mtt tools validate <spec...> | --file FILE".into());
            }
            for text in &rest[1..] {
                match ToolSpec::parse(text) {
                    Ok(spec) => println!("{}", spec.canonical()),
                    Err(e) => {
                        eprintln!("{}", e.render());
                        return Ok(ExitCode::from(2));
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "tools: unknown verb `{other}` (expected list, specs, describe, or validate)"
        )),
    }
}

fn metrics_check(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .ok_or("usage: mtt metrics-check <file.ndjson>")?;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mtt: read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut checked = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(msg) = check_run_log_line(line) {
            eprintln!("{path}:{}: {msg}", i + 1);
            return Ok(ExitCode::FAILURE);
        }
        checked += 1;
    }
    if checked == 0 {
        eprintln!("{path}: no run-log lines found");
        return Ok(ExitCode::FAILURE);
    }
    println!("{path}: {checked} run-log line(s) conform to the schema");
    Ok(ExitCode::SUCCESS)
}

/// `mtt gen list|describe|dump`: inspect the generated population
/// without scoring it. Generation is fast and serial, so no job pool.
fn gen_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = mtt_gen::GenOptions::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => opts.seed = num_value(&mut it, a)?,
            "--families" => opts.families = num_value(&mut it, a)?,
            other => positional.push(other.to_string()),
        }
    }
    let verb = positional.first().map(String::as_str).unwrap_or("list");
    match verb {
        "list" => {
            let mut t = mtt_experiment::Table::new(
                format!("generated families (seed {}, {})", opts.seed, opts.families),
                &["family", "pattern", "class", "members", "buggy", "benign"],
            );
            for f in mtt_gen::generate_families(&opts) {
                t.row(&[
                    f.id.clone(),
                    f.pattern.key().to_string(),
                    format!("{:?}", f.pattern.class()),
                    f.members.len().to_string(),
                    f.buggy().count().to_string(),
                    f.benign().count().to_string(),
                ]);
            }
            print!("{}", t.render());
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            let id = positional
                .get(1)
                .ok_or("gen describe needs a family id (see `mtt gen list`)")?;
            let fam = mtt_gen::family_by_id(&opts, id)
                .ok_or_else(|| format!("no family `{id}` in the first {} draws", opts.families))?;
            print!("{}", fam.describe());
            Ok(ExitCode::SUCCESS)
        }
        "dump" => {
            let id = positional
                .get(1)
                .ok_or("gen dump needs a family or member name")?;
            for f in mtt_gen::generate_families(&opts) {
                if f.id == *id {
                    for m in &f.members {
                        print!("{}", m.src);
                    }
                    return Ok(ExitCode::SUCCESS);
                }
                if let Some(m) = f.members.iter().find(|m| m.name == *id) {
                    print!("{}", m.src);
                    return Ok(ExitCode::SUCCESS);
                }
            }
            Err(format!(
                "no family or member `{id}` in the first {} draws",
                opts.families
            ))
        }
        other => Err(format!("gen: unknown verb `{other}`")),
    }
}
