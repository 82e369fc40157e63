//! The untraced pass: what a user of `mcs run` and `mcs serve` sees.
//!
//! Everything is measured from outside the program under test: children
//! are timed from spawn to exit, the server over its socket. The only
//! harness code in a timing is the set-up probe, which is the two public
//! calls `mcs run` makes before transport starts, in a fresh process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::time::Instant;

use mcs::core::engine::Algorithm;
use mcs::serve::Client;

use crate::child::{self, KillOnDrop, RssPoller};
use crate::json::Json;
use crate::serve_load::{self, Phase, SessionResult};
use crate::stats::{self, Summary};
use crate::workload::{Workload, DEFAULT_SEED};
use crate::{Metric, PassResult};

/// Where the harness finds the program under test and keeps its files.
#[derive(Debug, Clone)]
pub struct Paths {
    /// `benchmark/` in the checkout.
    pub bench_dir: PathBuf,
    /// The `mcs` binary built from the checkout.
    pub mcs_bin: PathBuf,
    /// This harness, for the fresh set-up probe child.
    pub self_exe: PathBuf,
}

impl Paths {
    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    pub fn expected_file(&self, w: &Workload) -> PathBuf {
        self.bench_dir
            .join("workloads")
            .join(format!("{}.expected", w.name))
    }

    pub fn committed_plan(&self, w: &Workload, algorithm: Algorithm) -> PathBuf {
        self.bench_dir
            .join("workloads")
            .join(format!("{}.{}.toml", w.name, algorithm.keyword()))
    }
}

/// The server flags of every session: two workers for the two cores, a
/// queue that holds a whole pipelined phase, the default cache.
const SERVE_ARGS: [&str; 9] = [
    "serve",
    "--addr",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--queue-cap",
    "256",
    "--cache-cap",
    "1024",
];

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Rewrite the committed plan files and the `.expected` pin.
    pub bless: bool,
}

struct Tally {
    attempted: usize,
    failed: usize,
    checks: Vec<(String, bool)>,
}

impl Tally {
    fn child(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

pub fn run(w: &Workload, opts: &Options, paths: &Paths) -> Result<PassResult, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let plans_dir = paths.out_dir().join("plans");
    std::fs::create_dir_all(&plans_dir).map_err(|e| io("create out/plans", e))?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };
    let measure_start = Instant::now();

    // The generated inputs: two plan files and the serve plan list.
    let mut plan_files = Vec::new();
    for algorithm in [Algorithm::History, Algorithm::EventBanking] {
        let text = w.run_plan(algorithm, opts.seed).to_toml();
        let file = plans_dir.join(format!("{}.{}.toml", w.name, algorithm.keyword()));
        std::fs::write(&file, &text).map_err(|e| io("write plan", e))?;
        if opts.bless {
            std::fs::write(paths.committed_plan(w, algorithm), &text)
                .map_err(|e| io("bless plan", e))?;
        }
        plan_files.push(file);
    }
    let plan_arg = |i: usize| plan_files[i].to_str().expect("plan paths are utf-8");
    let session = w.serve_session(opts.seed);
    std::fs::write(
        paths.out_dir().join(format!("serve_plans.{}.txt", w.name)),
        serve_load::request_lines(&session),
    )
    .map_err(|e| io("write serve plan list", e))?;

    // One discarded warm-up: the binary and its libraries are in the page
    // cache before anything is timed.
    child::run_to_exit(&paths.mcs_bin, &["models"]).map_err(|e| io("warm-up child", e))?;

    // Set-up: plan TOML text to a built problem, in a fresh process.
    let mut setup = Vec::new();
    for _ in 0..w.setup_reps {
        child::prefault(w.prefault_mb);
        let probe = child::run_to_exit(&paths.self_exe, &["setup-probe", plan_arg(0)])
            .map_err(|e| io("set-up probe", e))?;
        let seconds = probe.stdout.trim().parse::<f64>().ok();
        tally.child(probe.success && seconds.is_some());
        setup.extend(seconds);
    }

    // `mcs run --plan`, history then event, until the share of --seconds
    // given to children is spent.
    let deadline = opts.seconds * w.cli_share;
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut signatures: Vec<String> = Vec::new();
    let mut run_rss_mb = 0.0f64;
    let mut rep = 0;
    while rep < w.min_reps || measure_start.elapsed().as_secs_f64() < deadline {
        for (i, wall) in walls.iter_mut().enumerate() {
            child::prefault(w.prefault_mb);
            let run = child::run_to_exit(&paths.mcs_bin, &["run", "--plan", plan_arg(i)])
                .map_err(|e| io("mcs run child", e))?;
            let signature = child::run_signature(&run.stdout);
            let ok = run.success && signature.contains("k-effective");
            tally.child(ok);
            run_rss_mb = run_rss_mb.max(run.peak_rss_mb);
            if ok {
                wall.push(run.wall_s);
            }
            signatures.push(signature);
        }
        rep += 1;
    }
    let first = signatures.first().cloned().unwrap_or_default();
    tally.check(
        "run: history and event print identical k and tallies on every repetition",
        !first.is_empty() && signatures.iter().all(|s| *s == first),
    );
    if opts.bless {
        std::fs::write(paths.expected_file(w), &first).map_err(|e| io("bless pin", e))?;
    }
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        let pinned = std::fs::read_to_string(paths.expected_file(w)).unwrap_or_default();
        tally.check(
            "run: output equals the pinned default-seed values",
            pinned == first,
        );
    }

    // The serve session against a real `mcs serve` child.
    child::prefault(w.prefault_mb);
    let spawned = Instant::now();
    let mut server = KillOnDrop(
        Command::new(&paths.mcs_bin)
            .args(SERVE_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io("spawn mcs serve", e))?,
    );
    let poller = RssPoller::start(server.0.id());
    // The pipe stays open for the server's lifetime: a closed stdout would
    // fail any later print.
    let (addr, _banner_pipe) = read_listen_addr(&mut server)?;
    Client::connect(addr)
        .map_err(|e| io("connect to mcs serve", e))?
        .stats()
        .map_err(|e| format!("first stats: {e}"))?;
    let ready_s = spawned.elapsed().as_secs_f64();
    let served = serve_load::run_session(addr, &session);
    let server_rss_mb = poller.finish();
    drop(server);
    let served = served?;
    tally.attempted += 1 + served.samples.len();
    tally.failed += served.failed();
    for (name, ok) in served.checks() {
        tally.check(name, ok);
    }

    for (what, samples) in [
        ("set-up probe", &setup),
        ("history child", &walls[0]),
        ("event child", &walls[1]),
    ] {
        if samples.is_empty() {
            return Err(format!("{}: no {what} succeeded", w.name));
        }
    }
    let timed = |name: &str, unit: &'static str, samples: &[f64], value: f64| Metric {
        samples: Some(Summary::of(samples)),
        ..Metric::new(name, unit, value)
    };
    // A child's wall time is its fastest repetition. Interference on this
    // host only ever adds time, in spells of a few seconds that catch one or
    // two of the three or four 2 s children a run has room for: over sets of
    // four `geom_smr` history children the minimum repeated within 0.4 %,
    // the median within 4 %. Median and quartiles are reported beside it.
    let fastest = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let cold = served.latencies_ms(Phase::Cold);
    let warm = served.latencies_ms(Phase::Warm);
    let metrics = vec![
        timed("setup_s", "s", &setup, stats::median(&setup)),
        timed("history_run_s", "s", &walls[0], fastest(&walls[0])),
        timed("event_run_s", "s", &walls[1], fastest(&walls[1])),
        Metric::new("peak_rss_mb", "MB", run_rss_mb.max(server_rss_mb)),
        timed("serve_cold_p50_ms", "ms", &cold, stats::median(&cold)),
        timed("serve_warm_p50_ms", "ms", &warm, stats::median(&warm)),
        Metric::new("serve_plans_per_s", "1/s", served.plans_per_s()),
    ];
    let correct = tally.checks.iter().all(|(_, ok)| *ok);
    Ok(PassResult {
        workload: w.name.to_string(),
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        checks: tally.checks,
        info: info(&served, ready_s, [run_rss_mb, server_rss_mb], rep),
    })
}

/// Numbers worth keeping that are not gated: the tail the sample count
/// supports, the server's readiness time, and how much was measured.
fn info(
    served: &SessionResult,
    ready_s: f64,
    [run_rss_mb, server_rss_mb]: [f64; 2],
    reps: usize,
) -> Vec<(String, Json)> {
    let mut out = vec![
        ("repetitions".to_string(), Json::Num(reps as f64)),
        ("serve_ready_s".to_string(), Json::Num(ready_s)),
        ("run_child_rss_mb".to_string(), Json::Num(run_rss_mb)),
        ("serve_child_rss_mb".to_string(), Json::Num(server_rss_mb)),
    ];
    for (name, phase) in [("serve_cold", Phase::Cold), ("serve_warm", Phase::Warm)] {
        let latencies = served.latencies_ms(phase);
        let p = stats::highest_supported_percentile(latencies.len());
        out.push((
            format!("{name}_tail"),
            Json::obj([
                ("percentile", Json::Num(p)),
                ("ms", Json::Num(stats::percentile(&latencies, p))),
                ("samples", Json::Num(latencies.len() as f64)),
            ]),
        ));
    }
    out
}

/// `mcs serve` announces `mcs-serve listening on <addr> (...)` once bound.
fn read_listen_addr(
    server: &mut KillOnDrop,
) -> Result<(SocketAddr, BufReader<ChildStdout>), String> {
    let mut pipe = BufReader::new(server.0.stdout.take().expect("stdout was piped"));
    let mut line = String::new();
    pipe.read_line(&mut line)
        .map_err(|e| format!("read mcs serve banner: {e}"))?;
    let addr = line
        .split_whitespace()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected mcs serve banner: {line:?}"))?;
    Ok((addr, pipe))
}

/// The set-up probe body, run in a fresh harness child: plan TOML text to
/// `RunPlan::from_toml` to `build_problem()` returned, in seconds.
pub fn setup_probe(plan_file: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(plan_file)
        .map_err(|e| format!("read {}: {e}", plan_file.display()))?;
    let t0 = Instant::now();
    let plan = mcs::core::engine::RunPlan::from_toml(&text).map_err(|e| e.to_string())?;
    let problem = plan.build_problem();
    let seconds = t0.elapsed().as_secs_f64();
    std::hint::black_box(&problem);
    Ok(seconds)
}
