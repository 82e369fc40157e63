//! `mcs-benchmark`: the repo benchmark, measured from outside.
//!
//! ```text
//! mcs-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload, one pass; the last line of stdout is the result JSON
//! mcs-benchmark [--seed N] [--seconds S] [--runs R] [--smoke] [--bless]
//!     every workload, both passes; writes out/result.json
//! mcs-benchmark compare A.json B.json
//!     verdict per end-to-end metric x workload against BENCHMARK.json
//! ```
//!
//! `benchmark/run.sh` builds the `mcs` binary and this harness, then runs it
//! from the checkout root.

mod child;
mod e2e;
mod json;
mod layers;
mod report;
mod serve_load;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::{Options, Paths};
use json::Json;
use stats::Summary;
use workload::{Workload, DEFAULT_SEED};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Median, quartiles and count of the samples behind `value`, for a
    /// metric taken over repetitions within the run.
    pub samples: Option<Summary>,
}

impl Metric {
    /// A single measurement, with no repetitions behind it.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: None,
        }
    }
}

/// What one pass over one workload produced.
#[derive(Debug)]
pub struct PassResult {
    pub workload: String,
    /// Every output check passed.
    pub correct: bool,
    /// Children run plus submissions sent.
    pub attempted: usize,
    /// Children that exited non-zero or failed their output check, plus
    /// rejected, errored or payload-mismatched submissions.
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    /// Ungated context: repetitions, tails, readiness.
    pub info: Vec<(String, Json)>,
}

impl PassResult {
    /// The line the benchmark contract asks for.
    fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    fn print(&self, pass: &str) {
        println!("== {} ({pass} pass)", self.workload);
        for (name, value) in &self.info {
            println!("  ({name}: {})", value.compact());
        }
        for m in &self.metrics {
            match &m.samples {
                Some(s) => println!(
                    "  {:<40} {:>16.6} {:<6} (median {:.6}, q1 {:.6}, q3 {:.6}, n {})",
                    m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
                ),
                None => println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "  {:<40} {:>16.6} share ({} of {})",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, ok) in &self.checks {
            println!("  [{}] {name}", if *ok { "ok" } else { "FAILED" });
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    runs: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                    [--runs R] [--smoke] [--bless]\n\
         \x20      mcs-benchmark compare A.json B.json\n\
         workloads: {}",
        workload::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = parse_seed(it.next()?)?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--runs" => args.runs = it.next()?.parse().ok().filter(|r| *r >= 1)?,
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            _ => return None,
        }
    }
    Some(args)
}

/// `benchmark/` of the checkout this harness was built in.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `mcs` binary cargo built for this checkout: in `$CARGO_TARGET_DIR`
/// when the caller names one, in the root workspace's `target/` otherwise.
fn mcs_bin() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => bench_dir().join("..").join("target"),
    };
    target.join("release").join("mcs")
}

fn run_pass(
    w: &Workload,
    trace: bool,
    opts: &Options,
    paths: &Paths,
) -> Result<PassResult, String> {
    if trace {
        layers::run(w, opts, paths)
    } else {
        e2e::run(w, opts, paths)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("setup-probe") => {
            return match argv.get(1).map(|p| e2e::setup_probe(p.as_ref())) {
                Some(Ok(seconds)) => {
                    println!("{seconds:.9}");
                    ExitCode::SUCCESS
                }
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
                None => usage(),
            };
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return usage();
            };
            return match report::compare(a.as_ref(), b.as_ref(), &bench_dir()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if args.bless && (args.smoke || args.seed != DEFAULT_SEED) {
        eprintln!("error: --bless pins the full workloads at the default seed only");
        return ExitCode::from(2);
    }
    let paths = Paths {
        bench_dir: bench_dir(),
        mcs_bin: mcs_bin(),
        self_exe: match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: cannot find this executable: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if let Err(e) = report::check_binary_is_fresh(&paths) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        bless: args.bless,
    };

    // The smoke variants stand in for the workloads everywhere below.
    let workloads: Vec<Workload> = workload::all()
        .into_iter()
        .map(|w| if args.smoke { w.smoke() } else { w })
        .collect();
    let outcome = match &args.workload {
        Some(name) => {
            let Some(w) = workloads.iter().find(|w| w.name == name) else {
                eprintln!("error: unknown workload \"{name}\"");
                return usage();
            };
            run_pass(w, args.trace, &opts, &paths).map(|result| {
                result.print(if args.trace { "traced" } else { "untraced" });
                println!("{}", result.contract_line());
                result.correct && result.failed == 0
            })
        }
        None => report::run_all(&workloads, &opts, args.runs, &paths),
    };
    match outcome {
        // A failed check is in the printed result; the exit code says the
        // benchmark itself ran.
        Ok(_) if args.workload.is_some() => ExitCode::SUCCESS,
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
