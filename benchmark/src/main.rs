//! `mst-benchmark run|aa|compare` — see `README.md`.

use std::path::Path;
use std::process::exit;

use mst_benchmark::run::{run_one, RunArgs};
use mst_benchmark::spec::Workload;
use mst_benchmark::suite::{aa, compare, suite, SuiteArgs};
use mst_benchmark::workloads::Expected;

const USAGE: &str = "usage:
  mst-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--runs N] [--smoke]
  mst-benchmark aa [--sets 2] [--runs 3] [--seed N] [--seconds S] [--smoke]
  mst-benchmark compare A.json B.json
With --workload, `run` does one run and prints its result as the last line;
without, it runs all five workloads untraced then traced and writes
benchmark/out/results.json. Workloads: macro_solo macro_contended gc_churn
serve_steady serve_checkpoint.";

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1988;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    exit(2);
}

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            fail(&format!("{flag} needs a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Some(
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: bad value {v:?}"))),
        )
    }

    fn present(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Vec<String> {
        if let Some(stray) = self.0.iter().find(|a| a.starts_with("--")) {
            fail(&format!("unknown flag {stray}"));
        }
        self.0
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| fail("no command"));
    let mut flags = Flags(argv.collect());
    let seed = flags.value("--seed").unwrap_or(DEFAULT_SEED);
    let seconds: Option<f64> = flags.value("--seconds");
    if seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        fail("--seconds must be in (0, 600]");
    }
    let smoke = flags.present("--smoke");
    let runs = flags.value("--runs");
    let code = match command.as_str() {
        "run" => {
            let workload: Option<String> = flags.value("--workload");
            let trace: Option<u8> = flags.value("--trace");
            let traced = flags.present("--traced") || trace == Some(1);
            flags.done();
            match workload {
                Some(name) => {
                    let workload = Workload::from_name(&name)
                        .unwrap_or_else(|| fail(&format!("unknown workload {name:?}")));
                    let args = RunArgs {
                        workload,
                        seed,
                        seconds: if smoke { 1.0 } else { seconds.unwrap_or(20.0) },
                        traced,
                        smoke,
                    };
                    let outcome = run_one(&args, &Expected::committed());
                    outcome.print(&args);
                    println!("{}", outcome.json_line());
                    Ok(outcome.exit_code())
                }
                None => suite(&SuiteArgs {
                    seed,
                    seconds,
                    smoke,
                    runs: runs.unwrap_or(1),
                }),
            }
        }
        "aa" => {
            let sets = flags.value("--sets").unwrap_or(2);
            flags.done();
            if sets < 2 {
                fail("--sets must be at least 2");
            }
            aa(
                &SuiteArgs {
                    seed,
                    seconds,
                    smoke,
                    runs: runs.unwrap_or(3),
                },
                sets,
            )
        }
        "compare" => match flags.done().as_slice() {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => fail("compare takes two result files"),
        },
        other => fail(&format!("unknown command {other:?}")),
    };
    match code {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
