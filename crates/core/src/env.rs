//! The runtime's environment variables: one table, one parser, one reader.
//!
//! Every other crate takes configuration by value. [`RuntimeEnv::process`]
//! is the only code that reads the process environment (the test and bench
//! harnesses read their own three knobs), and `MsSystem::boot` is the only
//! code that applies the result: a *set* variable overrides the
//! corresponding value for that boot. README.md § Configuration is written
//! from [`VARIABLES`]; a unit test below keeps the two from drifting.

use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

use mst_interp::SupervisorPolicy;
use mst_vkernel::fault::ChaosConfig;
use mst_vkernel::WatchdogPolicy;

const BOOL: &str = "1|true|on / 0|false|off";
const PATH: &str = "<path>";

/// Every runtime variable: `(name, grammar, what a set value does)`. One
/// rule sits above the grammars: an empty value is an unset variable.
#[rustfmt::skip] // a table: one row per variable
pub const VARIABLES: [(&str, &str, &str); 8] = [
    ("MST_TRACE", BOOL, "switches trace-event recording on for the process"),
    ("MST_TIMELINE", BOOL, "switches per-processor state timelines on for the process"),
    ("MST_CHAOS", "<seed>:<rate 0..=1>[:<site,...>]", "arms fault injection for the process"),
    ("MST_WATCHDOG_MS", "<u64 milliseconds> (0 disables)", "safepoint watchdog deadline"),
    ("MST_WATCHDOG_POLICY", "log|panic", "what a stop_world leader does after the watchdog dump"),
    ("MST_WATCHDOG_DUMP", PATH, "file the watchdog report goes to (default watchdog-dump.txt)"),
    ("MST_SUPERVISOR_POLICY", "restart|degrade|panic", "overrides MsConfig.supervisor"),
    ("MST_GC_THREADS", "<usize> (0 means 1)", "overrides MemoryConfig.gc_helpers"),
];

/// A variable whose value does not fit its grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending variable.
    pub variable: &'static str,
    /// Its value, as found.
    pub value: String,
    /// The grammar it should have matched.
    pub grammar: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (variable, value, grammar) = (self.variable, &self.value, self.grammar);
        write!(f, "{variable}={value:?} is malformed: expected {grammar}")
    }
}

impl std::error::Error for EnvError {}

/// The parsed runtime environment. The two switches are `false` and every
/// other field `None` when the variable is unset or empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeEnv {
    /// `MST_TRACE`.
    pub trace: bool,
    /// `MST_TIMELINE`.
    pub timeline: bool,
    /// `MST_CHAOS`.
    pub chaos: Option<ChaosConfig>,
    /// `MST_WATCHDOG_MS`.
    pub watchdog_ms: Option<u64>,
    /// `MST_WATCHDOG_POLICY`.
    pub watchdog_policy: Option<WatchdogPolicy>,
    /// `MST_WATCHDOG_DUMP`.
    pub watchdog_dump: Option<PathBuf>,
    /// `MST_SUPERVISOR_POLICY`.
    pub supervisor_policy: Option<SupervisorPolicy>,
    /// `MST_GC_THREADS`.
    pub gc_threads: Option<usize>,
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

impl RuntimeEnv {
    /// Parses the variables `lookup` knows. Pure: the caller supplies the
    /// environment. Values are trimmed before they meet their grammar.
    ///
    /// # Errors
    ///
    /// The first variable (in [`VARIABLES`] order) whose value is malformed.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<RuntimeEnv, EnvError> {
        fn var<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            variable: &'static str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<Option<T>, EnvError> {
            let Some(value) = lookup(variable).filter(|v| !v.trim().is_empty()) else {
                return Ok(None);
            };
            parse(value.trim()).map(Some).ok_or_else(|| EnvError {
                variable,
                grammar: VARIABLES
                    .iter()
                    .find(|v| v.0 == variable)
                    .expect("every parsed variable is in the table")
                    .1,
                value,
            })
        }
        let l = &lookup;
        Ok(RuntimeEnv {
            trace: var(l, "MST_TRACE", parse_bool)?.unwrap_or(false),
            timeline: var(l, "MST_TIMELINE", parse_bool)?.unwrap_or(false),
            chaos: var(l, "MST_CHAOS", ChaosConfig::parse)?,
            watchdog_ms: var(l, "MST_WATCHDOG_MS", |s| s.parse().ok())?,
            watchdog_policy: var(l, "MST_WATCHDOG_POLICY", |s| match s {
                "log" => Some(WatchdogPolicy::Log),
                "panic" => Some(WatchdogPolicy::Panic),
                _ => None,
            })?,
            watchdog_dump: var(l, "MST_WATCHDOG_DUMP", |s| Some(s.into()))?,
            supervisor_policy: var(l, "MST_SUPERVISOR_POLICY", |s| s.parse().ok())?,
            gc_threads: var(l, "MST_GC_THREADS", |s| {
                s.parse().ok().map(|n: usize| n.max(1))
            })?,
        })
    }

    /// The process environment, read and parsed on first use and never
    /// again; that first use also arms the process-global switches the
    /// variables name (trace, timeline, chaos), exactly once.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its grammar, when a variable is
    /// malformed: a misspelt operator toggle must not boot a system that
    /// silently ignores it.
    pub fn process() -> &'static RuntimeEnv {
        static ENV: OnceLock<RuntimeEnv> = OnceLock::new();
        ENV.get_or_init(|| {
            let lookup =
                |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
            let env = RuntimeEnv::parse(lookup).unwrap_or_else(|e| panic!("{e}"));
            arm(env.trace, env.chaos);
            if env.timeline {
                mst_telemetry::timeline::set_enabled(true);
            }
            env
        })
    }
}

/// Switches process-global tracing and fault injection on. Never off:
/// systems run concurrently in one process, so one asking for a trace must
/// not silence another's. Called for the environment once per process and
/// for `MsConfig.trace`/`.chaos` at every boot.
pub(crate) fn arm(trace: bool, chaos: Option<ChaosConfig>) {
    if trace {
        mst_telemetry::set_enabled(true);
    }
    if let Some(chaos) = chaos {
        mst_vkernel::fault::install(chaos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(variable: &str, value: &str) -> Result<RuntimeEnv, EnvError> {
        RuntimeEnv::parse(|name| (name == variable).then(|| value.to_string()))
    }

    #[test]
    fn absent_or_empty_variables_parse_to_the_default_and_every_table_entry_is_read() {
        let asked = std::cell::RefCell::new(Vec::new());
        let env = RuntimeEnv::parse(|name| {
            asked.borrow_mut().push(name.to_string());
            None
        });
        assert_eq!(env, Ok(RuntimeEnv::default()));
        for empty in ["", "  "] {
            let env = RuntimeEnv::parse(|_| Some(empty.to_string()));
            assert_eq!(env, Ok(RuntimeEnv::default()), "{empty:?}");
        }
        let table: Vec<_> = VARIABLES.iter().map(|v| v.0.to_string()).collect();
        assert_eq!(asked.into_inner(), table);
    }

    #[test]
    fn every_accepted_form_parses() {
        type Set = fn(&mut RuntimeEnv);
        let cases: [(&str, &str, Set); 24] = [
            // One boolean grammar for both switches.
            ("MST_TRACE", "1", |e| e.trace = true),
            ("MST_TRACE", "true", |e| e.trace = true),
            ("MST_TRACE", "on", |e| e.trace = true),
            ("MST_TRACE", "0", |_| {}),
            ("MST_TRACE", "false", |_| {}),
            ("MST_TRACE", "off", |_| {}),
            ("MST_TIMELINE", "1", |e| e.timeline = true),
            ("MST_TIMELINE", "true", |e| e.timeline = true),
            ("MST_TIMELINE", "on", |e| e.timeline = true),
            ("MST_TIMELINE", "0", |_| {}),
            ("MST_TIMELINE", "false", |_| {}),
            ("MST_TIMELINE", "off", |_| {}),
            ("MST_CHAOS", "42:0.001", |e| {
                e.chaos = Some(ChaosConfig::new(42, 0.001));
            }),
            ("MST_CHAOS", "7:0.5:thread.panic", |e| {
                e.chaos = ChaosConfig::parse("7:0.5:thread.panic");
            }),
            ("MST_WATCHDOG_MS", " 250 ", |e| e.watchdog_ms = Some(250)),
            ("MST_WATCHDOG_MS", "0", |e| e.watchdog_ms = Some(0)),
            ("MST_WATCHDOG_POLICY", "log", |e| {
                e.watchdog_policy = Some(WatchdogPolicy::Log);
            }),
            ("MST_WATCHDOG_POLICY", "panic", |e| {
                e.watchdog_policy = Some(WatchdogPolicy::Panic);
            }),
            ("MST_WATCHDOG_DUMP", "/tmp/dump.txt", |e| {
                e.watchdog_dump = Some("/tmp/dump.txt".into());
            }),
            ("MST_SUPERVISOR_POLICY", "restart", |e| {
                e.supervisor_policy = Some(SupervisorPolicy::Restart);
            }),
            ("MST_SUPERVISOR_POLICY", "degrade", |e| {
                e.supervisor_policy = Some(SupervisorPolicy::Degrade);
            }),
            ("MST_SUPERVISOR_POLICY", "panic", |e| {
                e.supervisor_policy = Some(SupervisorPolicy::Panic);
            }),
            ("MST_GC_THREADS", "4", |e| e.gc_threads = Some(4)),
            ("MST_GC_THREADS", "0", |e| e.gc_threads = Some(1)),
        ];
        for (variable, value, set) in cases {
            let mut expected = RuntimeEnv::default();
            set(&mut expected);
            assert_eq!(
                parse_one(variable, value),
                Ok(expected),
                "{variable}={value:?}"
            );
        }
    }

    #[test]
    fn a_malformed_value_names_its_variable_and_grammar() {
        let malformed = [
            ("MST_TRACE", "yes"),
            ("MST_TIMELINE", "2"),
            ("MST_CHAOS", "42"),
            ("MST_WATCHDOG_MS", "10s"),
            ("MST_WATCHDOG_POLICY", "abort"),
            ("MST_SUPERVISOR_POLICY", "bogus"),
            ("MST_GC_THREADS", "-1"),
        ];
        for (variable, value) in malformed {
            let err = parse_one(variable, value).expect_err(variable);
            let grammar = VARIABLES.iter().find(|v| v.0 == variable).unwrap().1;
            assert_eq!((err.variable, err.grammar), (variable, grammar));
            let msg = err.to_string();
            assert!(
                msg.contains(variable) && msg.contains(grammar) && msg.contains(value),
                "{msg}"
            );
        }
        // Paths have no malformed form: every other variable does.
        let paths = VARIABLES.iter().filter(|v| v.1 == PATH).count();
        assert_eq!(malformed.len() + paths, VARIABLES.len());
    }

    /// Every `MST_[A-Z_]+` token in `text`.
    fn mst_tokens(text: &str) -> Vec<&str> {
        text.match_indices("MST_")
            .map(|(at, _)| {
                let rest = &text[at..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    /// Variables read by the test and bench harnesses, each in one function
    /// of its own (`mst_core::testing`, `mst_bench::harness`); not runtime
    /// configuration.
    const HARNESS_VARIABLES: [&str; 3] = ["MST_PROP_SEED", "MST_PROP_CASES", "MST_MICRO_MS"];

    #[test]
    fn the_docs_name_only_variables_that_exist_and_readme_names_them_all() {
        let readme = include_str!("../../../README.md");
        let docs = [
            ("README.md", readme),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ];
        let known: Vec<&str> = VARIABLES
            .iter()
            .map(|v| v.0)
            .chain(HARNESS_VARIABLES)
            .collect();
        for (file, text) in docs {
            for token in mst_tokens(text) {
                assert!(known.contains(&token), "{file} names unknown {token}");
            }
        }
        for (variable, grammar, _) in VARIABLES {
            let row = readme
                .lines()
                .find(|l| l.starts_with(&format!("| `{variable}`")))
                .unwrap_or_else(|| panic!("README's Configuration table lacks {variable}"));
            assert!(
                row.contains(&grammar.replace('|', "\\|")),
                "README row for {variable} does not show its grammar {grammar:?}"
            );
        }
        for variable in HARNESS_VARIABLES {
            assert!(readme.contains(variable), "README lacks {variable}");
        }
        // And it counts them: one table row each, and the number in words.
        let rows = readme.lines().filter(|l| l.starts_with("| `MST_")).count();
        assert_eq!(rows, VARIABLES.len() + HARNESS_VARIABLES.len());
        let count = match VARIABLES.len() {
            8 => "eight",
            n => panic!("spell {n} here, as the README does"),
        };
        assert!(
            readme.contains(&format!("runtime also reads {count}")),
            "README does not say the runtime reads {count} variables"
        );
    }
}
