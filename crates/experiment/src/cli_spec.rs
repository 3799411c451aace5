//! The single source of truth for the `mtt` command-line surface.
//!
//! The binary's `help` text is generated from these tables and from the
//! experiment registry ([`EXPERIMENTS`]), and the CLI tests assert that
//! both the generated help and the README's command table cover every
//! entry — so a new subcommand or flag that is added here (and only here)
//! cannot silently drift out of the documentation.

use crate::registry::{self, Flag, EXPERIMENTS};
use crate::report::Format;

/// One `mtt` subcommand.
pub struct CommandSpec {
    /// Subcommand name as typed.
    pub name: &'static str,
    /// Argument synopsis (may be empty).
    pub args: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The global flags besides `--jobs`/`--quiet` the command reads; any
    /// other exits 2 before any work. `all` ignores this list: it reads
    /// what every row it runs reads (see [`reads`]).
    pub flags: &'static [Flag],
}

/// One global flag (accepted before or after any subcommand).
pub struct FlagSpec {
    /// Flag spelling(s), e.g. `--jobs N | -j N`.
    pub flags: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The flag, for one only some commands read; `None` for `--jobs`
    /// and `--quiet`, which every command accepts.
    pub flag: Option<Flag>,
}

/// Every `mtt` subcommand that is not an experiment, in help order.
pub const SUBCOMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "list",
        args: "",
        summary: "list benchmark programs and their bugs",
        flags: &[],
    },
    CommandSpec {
        name: "lint",
        args: "<sample|file> [--json] [--deny IDS] [--allow IDS]",
        summary: "static diagnostics for a MiniProg program (--deny gates CI via exit 3)",
        flags: &[],
    },
    CommandSpec {
        name: "run",
        args: "<program> [seed]",
        summary: "run one program once and print the outcome",
        flags: &[],
    },
    CommandSpec {
        name: "trace",
        args: "<program> <n> <dir>",
        summary: "generate n annotated traces into dir",
        flags: &[],
    },
    CommandSpec {
        name: "explain",
        args: "<program> [--seed-fail N] [--seed-pass N] [--timeline] [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]",
        summary: "causal post-mortem: HB timeline + failing-vs-passing schedule diff",
        // Explain journals generic `job` records; `--resume`, a cache over
        // campaign cells, has nothing to skip here.
        flags: &[Flag::Journal],
    },
    CommandSpec {
        name: "gen",
        args: "<list|describe <family>|dump <family|member>> [--seed S] [--families N]",
        summary: "inspect generated variant families: ids, mutations, ground truth, source",
        flags: &[],
    },
    CommandSpec {
        name: "profile",
        args: "<e1..e8|all> [runs] [--csv] [--timing] [--annotate DIR] [--chrome-trace FILE]",
        summary: "contention / hot-site / overhead profile (+ chrome://tracing timeline)",
        // No `--resume`: a profile needs full hot-site maps, which the
        // journal's metric summary cannot reconstruct.
        flags: &[Flag::Metrics, Flag::Tools, Flag::Journal],
    },
    CommandSpec {
        name: "status",
        args: "<dir|file.ndjson>",
        summary: "one-shot progress/ETA/utilization view of campaign journals",
        flags: &[],
    },
    CommandSpec {
        name: "watch",
        args: "<dir|file.ndjson> [--interval-ms N] [--max-polls N]",
        summary: "poll campaign journals until every campaign completes",
        flags: &[],
    },
    CommandSpec {
        name: "tools",
        args: "[list|specs|describe <spec>|validate <spec...|--file F>] [--json]",
        summary: "the component registry: list, describe, and validate tool specs",
        flags: &[],
    },
    CommandSpec {
        name: "metrics-check",
        args: "<file.ndjson>",
        summary: "validate an NDJSON run log against the schema",
        flags: &[],
    },
    CommandSpec {
        name: "trace-check",
        args: "<file.ndjson>",
        summary: "validate an annotated trace against the schema",
        flags: &[],
    },
    CommandSpec {
        name: "journal-check",
        args: "<dir|file.ndjson>",
        summary: "strictly validate campaign journals against schema v3 (v1/v2 accepted; exit 2 on corruption)",
        flags: &[],
    },
    CommandSpec {
        name: "all",
        args: "",
        summary: "every experiment with small defaults",
        flags: &[],
    },
    CommandSpec {
        name: "help",
        args: "",
        summary: "this listing",
        flags: &[],
    },
];

/// Every global flag, in help order.
pub const GLOBAL_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        flags: "--jobs N | -j N",
        summary: "worker threads (default: all cores; output is byte-identical for every N)",
        flag: None,
    },
    FlagSpec {
        flags: "--budget-ms N",
        summary: "per-run wall-clock budget (over-budget runs land in the timeouts column)",
        flag: Some(Flag::Budget),
    },
    FlagSpec {
        flags: "--quiet | -q",
        summary: "no progress line, no campaign summary",
        flag: None,
    },
    FlagSpec {
        flags: "--metrics FILE",
        summary: "write an NDJSON run log",
        flag: Some(Flag::Metrics),
    },
    FlagSpec {
        flags: "--tools SPEC[,SPEC...]",
        summary: "replace the tool roster with parsed specs",
        flag: Some(Flag::Tools),
    },
    FlagSpec {
        flags: "--tools-file FILE",
        summary: "like --tools, one spec per line (# comments allowed)",
        flag: Some(Flag::Tools),
    },
    FlagSpec {
        flags: "--journal DIR",
        summary: "append a durable NDJSON flight-recorder journal to DIR/<label>.ndjson",
        flag: Some(Flag::Journal),
    },
    FlagSpec {
        flags: "--resume",
        summary: "with --journal: skip cells a previous journal completed (byte-identical output)",
        flag: Some(Flag::Resume),
    },
    FlagSpec {
        flags: "--backend model|native",
        summary: "execution engine: deterministic model (default) or real std::thread",
        flag: Some(Flag::Backend),
    },
];

/// Does the command `cmd` read the global `flag`? Every command reads
/// `--jobs` and `--quiet`; an unknown command reads nothing else.
pub fn reads(cmd: &str, flag: Flag) -> bool {
    if cmd == "all" {
        return EXPERIMENTS
            .iter()
            .filter(|e| e.all_args.is_some())
            .all(|e| e.reads(flag));
    }
    match registry::find(cmd) {
        Some(row) => row.reads(flag),
        None => SUBCOMMANDS
            .iter()
            .any(|c| c.name == cmd && c.flags.contains(&flag)),
    }
}

/// The `mtt help` text, generated from the tables above and the registry.
pub fn usage() -> String {
    let commands = SUBCOMMANDS
        .iter()
        .map(|c| (c.name, c.args.to_string(), c.summary));
    let experiments = EXPERIMENTS.iter().map(|e| {
        let json = e.views.contains(&Format::Json);
        let args = if json {
            format!("{} [--json]", e.args)
        } else {
            e.args.to_string()
        };
        (e.name, args, e.summary)
    });
    let head = |name: &str, args: &str| {
        if args.is_empty() {
            name.to_string()
        } else {
            format!("{name} {args}")
        }
    };
    let width = commands
        .clone()
        .chain(experiments.clone())
        .map(|(name, args, _)| head(name, &args).len())
        .max()
        .unwrap_or(0)
        .min(34);
    let mut out = String::from("usage: mtt <command> [args] [global flags]\n\ncommands:\n");
    for (i, (name, args, summary)) in commands.chain(experiments).enumerate() {
        if i == SUBCOMMANDS.len() {
            out.push_str("\nexperiments (--csv prints any experiment's tables as CSV):\n");
        }
        let head = head(name, &args);
        if head.len() > width {
            out.push_str(&format!("  mtt {head}\n  {:width$}      {summary}\n", ""));
        } else {
            out.push_str(&format!("  mtt {head:width$}  {summary}\n"));
        }
    }
    out.push_str("\nglobal flags:\n");
    let fwidth = GLOBAL_FLAGS
        .iter()
        .map(|f| f.flags.len())
        .max()
        .unwrap_or(0);
    let names = SUBCOMMANDS
        .iter()
        .map(|c| c.name)
        .chain(EXPERIMENTS.iter().map(|e| e.name));
    for f in GLOBAL_FLAGS {
        out.push_str(&format!("  {:fwidth$}  {}", f.flags, f.summary));
        if let Some(flag) = f.flag {
            let readers: Vec<&str> = names.clone().filter(|&cmd| reads(cmd, flag)).collect();
            out.push_str(&format!(" ({})", readers.join(", ")));
        }
        out.push('\n');
    }
    out.push_str("\nsee the crate docs (`cargo doc -p mtt-experiment`) for per-command details");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_covers_every_command_and_flag() {
        let text = usage();
        let commands = SUBCOMMANDS.iter().map(|c| (c.name, c.summary));
        for (name, summary) in commands.chain(EXPERIMENTS.iter().map(|e| (e.name, e.summary))) {
            assert!(text.contains(name), "help missing `{name}`");
            assert!(text.contains(summary), "help missing summary of `{name}`");
        }
        for f in GLOBAL_FLAGS {
            assert!(text.contains(f.flags), "help missing `{}`", f.flags);
        }
        // The regression that motivated this module: profile's --timing flag
        // existed in the binary but not in the help text.
        assert!(text.contains("--timing"));
        assert!(text.contains("--annotate"));
    }

    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<_> = SUBCOMMANDS.iter().map(|c| c.name).collect();
        names.extend(EXPERIMENTS.iter().map(|e| e.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
