//! The push-button CLI, pushed: spawn the real `mtt` binary and check the
//! paper-facing surfaces (repository listing, single runs, trace
//! generation) behave.

use mtt_experiment::registry::{Flag, EXPERIMENTS};
use std::process::Command;

fn mtt(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = mtt_code(args);
    (stdout, stderr, code == 0)
}

/// Like [`mtt`] but returning the exact exit code (for the exit-convention
/// tests: 2 = usage error, 1 = failure).
fn mtt_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtt"))
        .args(args)
        .output()
        .expect("mtt binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by a signal"),
    )
}

#[test]
fn list_prints_the_whole_repository() {
    let (stdout, _, ok) = mtt(&["list"]);
    assert!(ok);
    for name in [
        "lost_update",
        "dining_philosophers",
        "web_sessions",
        "pipeline_etl",
        "bounded_queue",
    ] {
        assert!(stdout.contains(name), "missing {name} in listing");
    }
    assert!(stdout.contains("DataRace"), "bug classes shown");
    assert!(stdout.contains("lost-update"), "bug tags shown");
}

#[test]
fn run_reports_outcome_and_verdict() {
    let (stdout, _, ok) = mtt(&["run", "lost_update", "3"]);
    assert!(ok);
    assert!(stdout.contains("lost_update"));
    assert!(
        stdout.contains("manifested bugs") || stdout.contains("no documented bug"),
        "verdict line missing: {stdout}"
    );
}

#[test]
fn unknown_program_fails_cleanly() {
    let (_, stderr, ok) = mtt(&["run", "no_such_program"]);
    assert!(!ok);
    assert!(stderr.contains("unknown program"));
}

#[test]
fn unknown_command_prints_usage() {
    let (_, stderr, ok) = mtt(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn help_prints_the_generated_usage() {
    // `mtt help` prints `cli_spec::usage()`; the `cli_spec` unit tests
    // check that it covers every command, experiment and global flag.
    let (stdout, _, ok) = mtt(&["help"]);
    assert!(ok, "`mtt help` must exit 0");
    assert_eq!(stdout, format!("{}\n", mtt_experiment::cli_spec::usage()));
}

#[test]
fn readme_documents_every_subcommand() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("workspace README exists");
    let commands = mtt_experiment::cli_spec::SUBCOMMANDS.iter().map(|c| c.name);
    for name in commands.chain(EXPERIMENTS.iter().map(|e| e.name)) {
        assert!(
            readme.contains(&format!("mtt {name}")) || readme.contains(&format!("`{name}`")),
            "README command table missing `mtt {name}`"
        );
    }
    assert!(
        readme.contains("--timing"),
        "README must document profile's --timing flag"
    );
}

#[test]
fn unwritable_metrics_path_is_a_usage_error() {
    // --metrics pointing into a nonexistent directory must exit 2 with a
    // clean message, not panic and not exit 1.
    let (_, stderr, code) = mtt_code(&[
        "e1",
        "2",
        "--quiet",
        "--metrics",
        "/nonexistent-dir-mtt/run.ndjson",
    ]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("create"), "stderr: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");
}

#[test]
fn no_arguments_fails_with_usage() {
    let (_, stderr, ok) = mtt(&[]);
    assert!(!ok, "bare `mtt` must exit non-zero");
    assert!(stderr.contains("usage"));
}

#[test]
fn malformed_numeric_argument_fails_cleanly() {
    let (_, stderr, ok) = mtt(&["e1", "bogus"]);
    assert!(
        !ok,
        "`mtt e1 bogus` must exit non-zero, not fall back to a default"
    );
    assert!(stderr.contains("not a number"), "stderr: {stderr}");
}

#[test]
fn jobs_flag_rejects_missing_and_malformed_values() {
    let (_, stderr, ok) = mtt(&["e5", "4", "--jobs"]);
    assert!(!ok, "`--jobs` with no value must exit non-zero");
    assert!(stderr.contains("--jobs"), "stderr: {stderr}");
    let (_, stderr, ok) = mtt(&["e5", "4", "--jobs", "many"]);
    assert!(!ok, "`--jobs many` must exit non-zero");
    assert!(stderr.contains("--jobs"), "stderr: {stderr}");
}

#[test]
fn experiment_stdout_is_identical_across_job_counts() {
    // The end-to-end determinism claim, at the process boundary: the same
    // experiment through the real binary, byte for byte at every --jobs.
    let cases: [&[&str]; 3] = [
        &["e5", "6"],
        &["e10", "--families", "4", "--runs", "2"],
        &["e12", "8", "--json"],
    ];
    for args in cases {
        let run = |jobs| {
            let (stdout, stderr, ok) = mtt(&[args, &["--quiet", "--jobs", jobs]].concat());
            assert!(ok, "stderr: {stderr}");
            stdout
        };
        let serial = run("1");
        for jobs in ["2", "4", "8"] {
            assert_eq!(
                serial,
                run(jobs),
                "`mtt {}` diverged at --jobs {jobs}",
                args.join(" ")
            );
        }
    }
}

#[test]
fn explain_output_is_identical_across_job_counts() {
    // The causal post-mortem at the process boundary: timeline + diff on
    // the real binary must not depend on the seed-scan worker count.
    let args = |jobs: &'static str| {
        [
            "explain",
            "lost_update",
            "--timeline",
            "--diff",
            "--scan",
            "64",
            "--quiet",
            "--jobs",
            jobs,
        ]
    };
    let (serial, _, ok) = mtt(&args("1"));
    assert!(ok);
    let (par, _, ok) = mtt(&args("4"));
    assert!(ok);
    assert_eq!(serial, par, "mtt explain diverged between --jobs 1 and 4");
    assert!(serial.contains("first failure"), "{serial}");
    assert!(serial.contains("divergence at index"), "{serial}");
    assert!(serial.contains("schedule timeline"), "{serial}");
}

#[test]
fn explain_annotate_roundtrips_through_trace_check() {
    let dir = std::env::temp_dir().join(format!("mtt-explain-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lost_update.ndjson");
    let path_s = path.to_string_lossy().into_owned();
    let (stdout, stderr, ok) = mtt(&[
        "explain",
        "lost_update",
        "--scan",
        "64",
        "--quiet",
        "--annotate",
        &path_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("annotated trace written"), "{stdout}");
    let (stdout, stderr, ok) = mtt(&["trace-check", &path_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("conforms to the schema"), "{stdout}");
    // A corrupted line must be rejected with a line-numbered message.
    let text = std::fs::read_to_string(&path).unwrap();
    let corrupted = text.replacen("\"clock\":[", "\"clock\":[-1,", 1);
    std::fs::write(&path, corrupted).unwrap();
    let (_, stderr, code) = mtt_code(&["trace-check", &path_s]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("line"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_unknown_program_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["explain", "no_such_program"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown program"), "stderr: {stderr}");
}

#[test]
fn tools_lists_the_component_catalog() {
    let (stdout, _, ok) = mtt(&["tools"]);
    assert!(ok);
    for id in ["sticky", "pct", "fifo", "mixed", "lockset", "lockorder"] {
        assert!(stdout.contains(id), "catalog missing `{id}`: {stdout}");
    }
    let (json, _, ok) = mtt(&["tools", "list", "--json"]);
    assert!(ok);
    assert!(json.contains("\"schema\":\"mtt-tools-catalog\""), "{json}");
}

#[test]
fn tools_specs_prints_the_standard_roster() {
    let (stdout, _, ok) = mtt(&["tools", "specs"]);
    assert!(ok);
    for spec in mtt_tools::STANDARD_ROSTER_SPECS {
        assert!(
            stdout.lines().any(|l| l == *spec),
            "roster spec `{spec}` missing from:\n{stdout}"
        );
    }
}

#[test]
fn tools_describe_explains_each_component() {
    let (stdout, _, ok) = mtt(&[
        "tools",
        "describe",
        "pct:3:150+noise=mixed:0.2:20+race=lockset",
    ]);
    assert!(ok);
    for needle in ["scheduler", "pct", "mixed", "lockset"] {
        assert!(
            stdout.contains(needle),
            "describe missing `{needle}`: {stdout}"
        );
    }
}

#[test]
fn tools_validate_rejects_malformed_specs_with_a_caret() {
    let (stdout, _, code) = mtt_code(&["tools", "validate", "sticky:0.9"]);
    assert_eq!(code, 0, "valid spec must pass: {stdout}");
    let (_, stderr, code) = mtt_code(&["tools", "validate", "sticky:0.9+noise=slep:0.3"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("column 18"), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.trim_end() == format!("{}^", " ".repeat(17))),
        "caret must point at the bad component: {stderr}"
    );
    assert!(stderr.contains("slep"), "stderr: {stderr}");
}

#[test]
fn tools_flag_with_bad_spec_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--tools", "sticky:7"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("column"), "stderr: {stderr}");
}

#[test]
fn tools_file_errors_carry_the_line_number() {
    let dir = std::env::temp_dir().join(format!("mtt-tools-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roster.txt");
    std::fs::write(&path, "# ok\nfifo\nsticky:9\n").unwrap();
    let path_s = path.to_string_lossy().into_owned();
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--tools-file", &path_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    let (_, stderr, code) = mtt_code(&["tools", "validate", "--file", &path_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_command_writes_annotated_jsonl() {
    let dir = std::env::temp_dir().join(format!("mtt-cli-test-{}", std::process::id()));
    let dir_s = dir.to_string_lossy().into_owned();
    let (stdout, stderr, ok) = mtt(&["trace", "bank_transfer", "2", &dir_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("records"));
    let t0 = dir.join("bank_transfer-0.jsonl");
    let trace = mtt_trace::json::load(&t0).expect("trace file parses");
    assert_eq!(trace.meta.program, "bank_transfer");
    assert!(!trace.is_empty());
    assert!(trace
        .meta
        .known_bugs
        .contains(&"transfer-atomicity".to_string()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_deny_gates_with_exit_3() {
    // A denied lint that fires exits 3 (distinct from 1 = ungated findings
    // and 2 = usage), so CI can assert "these samples must trip the gate".
    let (_, stderr, code) = mtt_code(&["lint", "mp_abba", "--deny", "all"]);
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(stderr.contains("denied finding"), "stderr: {stderr}");

    // A clean sample passes the same gate with exit 0.
    let (_, stderr, code) = mtt_code(&["lint", "mp_branch_release", "--deny", "all"]);
    assert_eq!(code, 0, "stderr: {stderr}");

    // --allow strips the findings before the gate sees them.
    let (stdout, _, code) = mtt_code(&["lint", "mp_abba", "--deny", "all", "--allow", "all"]);
    assert_eq!(code, 0, "stdout: {stdout}");

    // Denying a code the sample never emits leaves only exit 1 (findings).
    let (_, _, code) = mtt_code(&["lint", "mp_abba", "--deny", "L001"]);
    assert_eq!(code, 1);

    // A missing flag value is a usage error.
    let (_, _, code) = mtt_code(&["lint", "mp_abba", "--deny"]);
    assert_eq!(code, 2);
}

#[test]
fn e10_rejects_malformed_seed_and_families_with_exit_2() {
    // The usage-error convention on the generator flags: a value that does
    // not parse as a number is exit 2 with a clean message, never a panic
    // and never a silent fallback to the default.
    let (_, stderr, code) = mtt_code(&["e10", "--families", "bogus"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--families"), "stderr: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");

    let (_, stderr, code) = mtt_code(&["e10", "--seed", "-3"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--seed"), "stderr: {stderr}");

    // A flag with no value at all is the same usage error.
    let (_, stderr, code) = mtt_code(&["e10", "--families"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--families"), "stderr: {stderr}");
}

#[test]
fn e10_json_is_schema_stamped() {
    let (stdout, stderr, ok) = mtt(&["e10", "--families", "4", "--runs", "2", "--quiet", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\"schema\":\"mtt-e10-scoreboard\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"family_outcomes\""), "{stdout}");
}

#[test]
fn gen_lists_describes_and_dumps_families() {
    let (stdout, stderr, ok) = mtt(&["gen", "list", "--families", "4"]);
    assert!(ok, "stderr: {stderr}");
    for pat in ["race", "dlock", "notif", "atom"] {
        assert!(stdout.contains(pat), "gen list missing `{pat}`: {stdout}");
    }

    let (stdout, stderr, ok) = mtt(&["gen", "describe", "g42_f000_race"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mutations:"), "{stdout}");
    assert!(stdout.contains("manifest_lines:"), "{stdout}");

    // Dumping a member prints a parseable MiniProg source.
    let (stdout, stderr, ok) = mtt(&["gen", "dump", "g42_f000_race_v0_bug"]);
    assert!(ok, "stderr: {stderr}");
    mtt_static::parse(&stdout).expect("dumped member source parses");
}

#[test]
fn gen_unknown_family_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["gen", "describe", "no_such_family"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("no_such_family"), "stderr: {stderr}");

    let (_, stderr, code) = mtt_code(&["gen", "frobnicate"]);
    assert_eq!(code, 2, "stderr: {stderr}");
}

#[test]
fn e12_prints_saturation_scoreboard_in_all_formats() {
    let (stdout, stderr, ok) = mtt(&["e12", "6", "--quiet"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("E12"), "{stdout}");
    assert!(stdout.contains("unseen mass"), "{stdout}");
    assert!(stdout.contains("fifo"), "{stdout}");

    let (csv, stderr, ok) = mtt(&["e12", "6", "--quiet", "--csv"]);
    assert!(ok, "stderr: {stderr}");
    assert!(csv.contains("program,tool,runs,distinct"), "{csv}");

    let (json, stderr, ok) = mtt(&["e12", "6", "--quiet", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(json.contains("\"schema\":\"mtt-e12-saturation\""), "{json}");
    assert!(json.contains("\"curve\""), "{json}");
}

#[test]
fn e13_view_precedence_is_json_then_model_csv_then_csv() {
    let (model, stderr, ok) = mtt(&["e13", "1", "--quiet", "--model-csv"]);
    assert!(ok, "stderr: {stderr}");
    let (csv, stderr, ok) = mtt(&["e13", "1", "--quiet", "--model-csv", "--csv"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(model, csv, "--model-csv wins over --csv");
    let (json, stderr, ok) = mtt(&["e13", "1", "--quiet", "--json", "--model-csv"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        json.starts_with("{\"schema\":\"mtt-e13-differential\""),
        "{json}"
    );
}

#[test]
fn path_flags_reject_flag_shaped_arguments() {
    // Regression: `--journal` (or `--metrics`) swallowing the next flag
    // used to create a file literally named `--journal` in the cwd.
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--journal", "--csv"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("--journal needs a directory"),
        "pointed message expected: {stderr}"
    );
    assert!(
        stderr.contains("--csv"),
        "names the offending flag: {stderr}"
    );

    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--journal"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--journal needs a directory"), "{stderr}");

    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--metrics", "--journal"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--metrics needs a file path"), "{stderr}");
    assert!(!std::path::Path::new("--journal").exists());
}

#[test]
fn experiments_reject_global_flags_they_do_not_read() {
    // Every (row, flag it does not read) pair exits 2 before any work, so
    // no flag is accepted and then silently dropped.
    let dir = std::env::temp_dir().join(format!("mtt-unread-flags-{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (journal, metrics) = (path("journal"), path("run.ndjson"));
    let value = |flag: Flag| -> Vec<&str> {
        match flag {
            Flag::Budget => vec!["--budget-ms", "100"],
            Flag::Metrics => vec!["--metrics", &metrics],
            Flag::Tools => vec!["--tools", "fifo"],
            Flag::Journal => vec!["--journal", &journal],
            Flag::Resume => vec!["--resume"],
            Flag::Backend => vec!["--backend", "native"],
        }
    };
    for row in EXPERIMENTS {
        for flag in Flag::ALL.into_iter().filter(|&f| !row.reads(f)) {
            let mut args = vec![row.name, "--quiet"];
            args.extend(value(flag));
            let (_, stderr, code) = mtt_code(&args);
            assert_eq!(code, 2, "`mtt {}` accepted: {stderr}", args.join(" "));
            assert!(
                stderr.contains(&flag.spelling()) && stderr.contains(&format!("`{}`", row.name)),
                "message must name the flag and the command: {stderr}"
            );
        }
    }
    // `all` takes only what every row it runs reads; e8 reads no journal.
    let (_, stderr, code) = mtt_code(&["all", "--quiet", "--journal", &journal]);
    assert_eq!(code, 2, "stderr: {stderr}");
    // Among the pairs above: `mtt e8 --journal DIR` must not create DIR.
    assert!(
        !dir.join("journal").exists(),
        "a rejected --journal created its directory"
    );
    assert!(!dir.join("run.ndjson").exists());
    // A view a row lacks is rejected before the row opens its journal.
    for args in [["e2", "--json"], ["cloning", "--csv"]] {
        let (_, stderr, code) =
            mtt_code(&[args[0], "2", args[1], "--quiet", "--journal", &journal]);
        assert_eq!(code, 2, "`mtt {}` accepted: {stderr}", args.join(" "));
        assert!(stderr.contains(args[1]), "{stderr}");
        assert!(
            !dir.join("journal").exists(),
            "`mtt {}` opened its journal",
            args.join(" ")
        );
    }
    // Non-experiment commands reject what they do not read as well.
    let (_, stderr, code) = mtt_code(&["explain", "lost_update", "--quiet", "--metrics", &metrics]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("not supported by `explain`"), "{stderr}");
    assert!(!dir.join("run.ndjson").exists());
}
