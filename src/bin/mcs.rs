//! `mcs` — command-line driver for the unified transport engine.
//!
//! ```text
//! mcs run    --plan FILE.toml [--dry-run]
//! mcs run    [--model NAME] [--particles N] [--inactive I]
//!            [--active A] [--mode history|event] [--survival]
//!            [--traversal flattened|nested]
//!            [--assemblies N] [--enrichment F] [--rods PATTERN]
//!            [--half-height CM]
//!            [--mesh NX,NY,NZ] [--spectrum FILE.csv]
//!            [--policy serial|threaded:N|distributed:N]
//!            [--statepoint FILE] [--resume FILE]
//! mcs models
//! mcs devices
//! mcs info   [--model NAME]
//! mcs plot   [--model NAME] [--width N] [--z Z]
//! mcs fixed  [--model NAME] [--particles N]
//! mcs serve  [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N]
//! ```
//!
//! `NAME` is a model-catalog entry (`mcs models` lists them); `mcs
//! devices` lists the device catalog the analytic machine models price
//! kernels on. Every run is a [`RunPlan`] executed by
//! `mcs_core::engine::run` under an execution policy; the flag form
//! builds the plan on the fly, the `--plan` form loads a TOML plan file
//! and replays it bit-identically.
//!
//! Examples:
//!
//! ```sh
//! mcs run --model small --particles 5000 --inactive 5 --active 10
//! mcs run --model smr --rods checkerboard --enrichment 1.1
//! mcs run --model test --mode event --survival --mesh 17,17,4
//! mcs run --model shield --traversal nested
//! mcs run --plan plan.toml --dry-run         # resolve + print, no transport
//! mcs run --model test --statepoint cp.bin   # save after the run plan
//! mcs run --model test --resume cp.bin       # continue bit-exactly
//! ```

use std::process::ExitCode;

use mcs::cluster::DistributedPolicy;
use mcs::core::engine::{
    self, Algorithm, BatchObserver, BatchProgress, ExecutionPolicy, PolicySpec, RunMode, RunOutput,
    RunPlan, RunReport,
};
use mcs::core::statepoint::Statepoint;
use mcs::core::{catalog, Problem, RodPattern, TraversalKind};
use mcs::device::catalog as devices;
use mcs::serve::scheduler::ServeConfig;

struct Args {
    command: String,
    /// The plan the flag form describes: `RunPlan::default()` under the
    /// ambient-pool threaded policy, with each flag written into it.
    flags: RunPlan,
    spectrum: Option<String>,
    statepoint: Option<String>,
    resume: Option<String>,
    plan: Option<String>,
    dry_run: bool,
    width: usize,
    z: f64,
    addr: String,
    serve: ServeConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: mcs run --plan FILE.toml [--dry-run]\n\
         \x20      mcs <run|info|plot|fixed> [--model NAME] [--particles N]\n\
         \x20          [--inactive I] [--active A] [--mode history|event]\n\
         \x20          [--survival] [--traversal flattened|nested]\n\
         \x20          [--assemblies N] [--enrichment F]\n\
         \x20          [--rods none|center|checkerboard] [--half-height CM]\n\
         \x20          [--mesh NX,NY,NZ] [--spectrum FILE.csv]\n\
         \x20          [--policy serial|threaded:N|distributed:N]\n\
         \x20          [--statepoint FILE] [--resume FILE]\n\
         \x20      mcs models\n\
         \x20      mcs serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N]\n\
         model catalog: {}",
        catalog::names_joined()
    );
    std::process::exit(2);
}

fn parse_policy(raw: &str) -> PolicySpec {
    match raw.split_once(':') {
        None => match raw {
            "serial" => PolicySpec::Serial,
            "threaded" => PolicySpec::Threaded { threads: 0 },
            _ => usage(),
        },
        Some((kind, n)) => {
            let n: usize = n.parse().unwrap_or_else(|_| usage());
            match kind {
                "threaded" => PolicySpec::Threaded { threads: n },
                "distributed" => PolicySpec::Distributed { ranks: n },
                _ => usage(),
            }
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        flags: RunPlan {
            policy: PolicySpec::Threaded { threads: 0 },
            ..RunPlan::default()
        },
        spectrum: None,
        statepoint: None,
        resume: None,
        plan: None,
        dry_run: false,
        width: 80,
        z: 0.0,
        addr: "127.0.0.1:7171".into(),
        serve: ServeConfig::default(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    args.command = argv[0].clone();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--model" => args.flags.model.name = value(&mut i),
            "--traversal" => {
                args.flags.traversal =
                    TraversalKind::from_name(&value(&mut i)).unwrap_or_else(|| usage())
            }
            "--assemblies" => {
                args.flags.model.overrides.assemblies =
                    Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--enrichment" => {
                args.flags.model.overrides.enrichment =
                    Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--rods" => {
                args.flags.model.overrides.rods =
                    Some(RodPattern::from_name(&value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--half-height" => {
                args.flags.model.overrides.half_height =
                    Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--particles" => {
                args.flags.particles = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--inactive" => args.flags.inactive = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--active" => args.flags.active = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                args.flags.algorithm = match value(&mut i).as_str() {
                    "history" => Algorithm::History,
                    "event" => Algorithm::EventBanking,
                    _ => usage(),
                }
            }
            "--survival" => args.flags.survival = true,
            "--mesh" => {
                let v = value(&mut i);
                let parts: Vec<usize> = v
                    .split(',')
                    .map(|p| p.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if parts.len() != 3 {
                    usage();
                }
                args.flags.mesh_tally = Some((parts[0], parts[1], parts[2]));
            }
            "--spectrum" => {
                args.flags.spectrum = true;
                args.spectrum = Some(value(&mut i));
            }
            "--statepoint" => args.statepoint = Some(value(&mut i)),
            "--resume" => args.resume = Some(value(&mut i)),
            "--policy" => args.flags.policy = parse_policy(&value(&mut i)),
            "--plan" => args.plan = Some(value(&mut i)),
            "--addr" => args.addr = value(&mut i),
            "--workers" => args.serve.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => {
                args.serve.queue_cap = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--cache-cap" => {
                args.serve.cache_cap = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--dry-run" => args.dry_run = true,
            "--width" => args.width = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--z" => args.z = value(&mut i).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// The plan the flag form of `mcs run`/`mcs fixed` describes, with the
/// model name and override values validated against the catalog up front.
fn plan_from_args(args: &Args, mode: RunMode) -> RunPlan {
    if let Err(e) = catalog::config_for(&args.flags.model) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    RunPlan {
        mode,
        ..args.flags.clone()
    }
}

/// Refuse, before any transport, a plan its policy cannot run: exit 2
/// with one `error:` line naming the policy and the feature.
fn refuse_unsupported(plan: &RunPlan) {
    if let PolicySpec::Distributed { .. } = plan.policy {
        if let Err(what) = DistributedPolicy::check_plan(plan) {
            eprintln!(
                "error: policy {} cannot run {what}; use serial or threaded:N",
                plan.policy.describe()
            );
            std::process::exit(2);
        }
    }
}

/// Instantiate the execution policy a spec describes. The CLI links
/// `mcs-cluster`, so unlike `engine::policy_for` it can also build the
/// distributed policy.
fn build_policy(spec: PolicySpec) -> Box<dyn ExecutionPolicy> {
    match spec {
        PolicySpec::Distributed { ranks } => Box::new(DistributedPolicy::new(ranks)),
        other => engine::policy_for(other),
    }
}

/// List the model catalog: names, descriptions, libraries.
fn cmd_models() {
    println!("model catalog ({} entries):", catalog::NAMES.len());
    for (name, desc) in catalog::NAMES.iter().zip(catalog::DESCRIPTIONS.iter()) {
        println!("  {name:<8} {desc}");
    }
    println!(
        "\noverride flags: --assemblies N, --enrichment F, --rods none|center|checkerboard,\n\
         \x20               --half-height CM; lookup treatment: --traversal flattened|nested"
    );
}

/// List the device catalog: per-entry structure plus the modeled rate
/// on the reference workload under the entry's default transport, with
/// the calibration ratio against the published rate for fitted entries.
fn cmd_devices() {
    println!("device catalog ({} entries):", devices::NAMES.len());
    println!(
        "  {:<14} {:<11} {:>5} {:>6} {:>8} {:>12}  calibration",
        "name", "class", "cores", "GHz", "GB/s", "rate(n/s)"
    );
    for dev in devices::all() {
        let rate = dev.modeled_native_rate(dev.default_transport());
        let calib = match dev.calibration_ratio() {
            Some(r) => format!("{r:.2}x published"),
            None => "paper-exact".to_string(),
        };
        println!(
            "  {:<14} {:<11} {:>5} {:>6.2} {:>8.0} {:>12.0}  {calib}",
            dev.id,
            dev.class.name(),
            dev.machine.cores,
            dev.machine.clock_ghz,
            dev.machine.dram_gb_s,
            rate
        );
    }
    println!();
    for dev in devices::all() {
        println!("  {:<14} {}", dev.id, dev.description);
    }
}

fn cmd_info(args: &Args) {
    let plan = plan_from_args(args, RunMode::Eigenvalue);
    let problem = plan.build_problem();
    println!("model:          {}", plan.model.spec_string());
    println!("traversal:      {}", plan.traversal.name());
    println!(
        "nuclides:       {} ({} fuel)",
        problem.xs.lib().len(),
        problem.xs.lib().n_fuel
    );
    println!(
        "grid points:    {} ({})",
        problem.xs.search_points(),
        problem.xs.backend_kind().name()
    );
    println!(
        "grid size:      {:.1} MB index + {:.1} MB pointwise",
        problem.xs.index_bytes() as f64 / 1e6,
        problem.xs.data_bytes() as f64 / 1e6
    );
    println!(
        "geometry:       {} cells, {} surfaces, {} lattices",
        problem.geometry.cells.len(),
        problem.geometry.surfaces.len(),
        problem.geometry.lattices.len()
    );
    let (lo, hi) = problem.geometry.bounds;
    println!(
        "bounds:         [{:.1},{:.1}] x [{:.1},{:.1}] x [{:.1},{:.1}] cm",
        lo.x, hi.x, lo.y, hi.y, lo.z, hi.z
    );
    println!(
        "physics:        sab={} urr={} free_gas={} treatment={:?}",
        problem.physics.sab.is_some(),
        !problem.physics.urr.is_empty(),
        problem.physics.free_gas,
        problem.treatment
    );
}

/// Streams the per-batch table as batches complete, through the
/// engine's [`BatchObserver`] seam — the run is visible while it
/// executes instead of being replayed from the finished report.
#[derive(Default)]
struct LiveBatchPrinter {
    header_printed: bool,
}

impl BatchObserver for LiveBatchPrinter {
    fn on_batch(&mut self, progress: BatchProgress<'_>) {
        if !self.header_printed {
            self.header_printed = true;
            println!(
                "{:>6} {:>9} {:>10} {:>9} {:>10}",
                "batch", "kind", "k_track", "entropy", "rate(n/s)"
            );
        }
        let b = progress.batch;
        println!(
            "{:>6} {:>9} {:>10.5} {:>9.3} {:>10.0}",
            b.index,
            if b.active { "active" } else { "inactive" },
            b.k_track,
            b.entropy,
            b.rate
        );
    }

    fn on_checkpoint(&mut self, statepoint: &Statepoint) {
        println!(
            "{:>6} {:>9} checkpoint after batch {}",
            "", "", statepoint.completed_batches
        );
    }
}

/// Post-run summary (the batch table already streamed live).
fn print_report(report: &RunReport, spectrum_path: Option<&str>) {
    let result = &report.result;
    println!("\nk-effective = {:.5} ± {:.5}", result.k_mean, result.k_std);
    let t = &result.tallies;
    println!(
        "tallies: {} segments, {} collisions, {} absorptions, {} fissions, {} leaks",
        t.segments, t.collisions, t.absorptions, t.fissions, t.leaks
    );

    if let Some(stats) = &result.mesh_stats {
        let floor = stats.means().iter().sum::<f64>() / stats.spec.n_cells() as f64 * 0.1;
        println!(
            "mesh tally: {} cells, max relative error {:.2}% (cells above 10% of mean)",
            stats.spec.n_cells(),
            stats.max_relative_error(floor) * 100.0
        );
    }

    if !report.completed {
        println!(
            "RUN INCOMPLETE: {}",
            report.halt_reason.as_deref().unwrap_or("policy halt")
        );
    }

    if let Some(spectrum) = &report.spectrum {
        match spectrum_path {
            Some(path) => {
                let mut out = String::from("energy_mev,flux_per_lethargy\n");
                for (c, v) in spectrum.bin_centers().iter().zip(spectrum.per_lethargy()) {
                    out.push_str(&format!("{c:.6e},{v:.6e}\n"));
                }
                std::fs::write(path, out).expect("write spectrum csv");
                println!("wrote spectrum to {path}");
            }
            None => println!(
                "spectrum pass: {} bins, total weighted track {:.4e}",
                spectrum.bins.len(),
                spectrum.total()
            ),
        }
    }
}

fn print_fixed(r: &mcs::core::fixed_source::FixedSourceResult) {
    let t = &r.tallies;
    println!(
        "histories: {} source + {} progeny = {} total",
        r.source_particles, r.progeny, t.n_particles
    );
    println!("net multiplication M = {:.4}", r.multiplication());
    println!(
        "implied k = 1 - 1/M = {:.4}",
        1.0 - 1.0 / r.multiplication()
    );
    println!(
        "tallies: {} collisions, {} absorptions, {} fissions, {} leaks",
        t.collisions, t.absorptions, t.fissions, t.leaks
    );
    if r.truncated_chains > 0 {
        println!(
            "WARNING: {} chains hit the generation cap (system near or above critical)",
            r.truncated_chains
        );
    }
}

/// Execute a plan (from a file or from flags) and print the outcome.
fn execute_plan(plan: &RunPlan, args: &Args) {
    let problem = plan.build_problem();
    let mut policy = build_policy(plan.policy);

    if let Some(path) = &args.resume {
        let sp = Statepoint::load(path).unwrap_or_else(|e| {
            eprintln!("error: cannot load statepoint {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "resuming from {path} (after batch {})",
            sp.completed_batches
        );
        let mut printer = LiveBatchPrinter::default();
        let report = engine::resume_with_problem_observed(
            &problem,
            plan,
            policy.as_mut(),
            &sp,
            &mut printer,
        );
        print_report(&report, args.spectrum.as_deref());
        return;
    }

    let mut printer = LiveBatchPrinter::default();
    match engine::run_with_problem_observed(&problem, plan, policy.as_mut(), &mut printer) {
        RunOutput::Eigenvalue(report) => {
            if let Some(path) = &args.statepoint {
                report.statepoint.save(path).expect("write statepoint");
                println!(
                    "wrote statepoint to {path} (after batch {})",
                    report.statepoint.completed_batches
                );
            }
            print_report(&report, args.spectrum.as_deref());
        }
        RunOutput::FixedSource(r) => print_fixed(&r),
    }
}

fn cmd_run(args: &Args) {
    let plan = match &args.plan {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read plan {path}: {e}");
                std::process::exit(1);
            });
            RunPlan::from_toml(&text).unwrap_or_else(|e| {
                eprintln!("error: invalid plan {path}: {e}");
                std::process::exit(1);
            })
        }
        None => plan_from_args(args, RunMode::Eigenvalue),
    };

    if args.dry_run {
        // Summary to stderr, plan TOML alone to stdout, so
        // `mcs run ... --dry-run > plan.toml` writes a loadable plan.
        eprint!("{}", plan.describe());
        print!("{}", plan.to_toml());
        return;
    }
    refuse_unsupported(&plan);
    execute_plan(&plan, args);
}

/// ASCII material map of a z-slice through the geometry (OpenMC's `plot`
/// in spirit): `.` water, `#` fuel, `:` clad, space = outside.
fn cmd_plot(args: &Args) {
    let problem: Problem = plan_from_args(args, RunMode::Eigenvalue).build_problem();
    let (lo, hi) = problem.geometry.bounds;
    let w = args.width.max(10);
    let aspect = (hi.y - lo.y) / (hi.x - lo.x);
    let h = ((w as f64 * aspect) / 2.0).round() as usize; // terminal cells ~1:2
    println!(
        "z = {} slice, {:.1} x {:.1} cm ({}x{} chars):",
        args.z,
        hi.x - lo.x,
        hi.y - lo.y,
        w,
        h
    );
    for row in 0..h {
        let y = hi.y - (row as f64 + 0.5) / h as f64 * (hi.y - lo.y);
        let mut line = String::with_capacity(w);
        for col in 0..w {
            let x = lo.x + (col as f64 + 0.5) / w as f64 * (hi.x - lo.x);
            let ch = match problem
                .find(mcs::geom::Vec3::new(x, y, args.z))
                .map(|c| problem.materials[c.material as usize].name.as_str())
            {
                Some("fuel") => '#',
                Some("clad") => ':',
                Some("water") => '.',
                Some("absorber") => 'X',
                Some(_) => '?',
                None => ' ',
            };
            line.push(ch);
        }
        println!("{line}");
    }
    println!("legend: '#' fuel, ':' clad, '.' water, 'X' absorber");
}

/// Fixed-source run: external Watt source in fuel, full fission chains.
fn cmd_fixed(args: &Args) {
    let plan = plan_from_args(args, RunMode::FixedSource);
    refuse_unsupported(&plan);
    println!(
        "fixed-source run: {} source particles, full fission chains...",
        plan.particles
    );
    execute_plan(&plan, args);
}

/// Long-running plan-execution service (see `mcs::serve`): hash-keyed
/// result cache, in-flight dedupe, bounded prioritized scheduling.
fn cmd_serve(args: &Args) {
    if let Err(e) = mcs::serve::server::serve_forever(args.addr.as_str(), args.serve) {
        eprintln!("error: cannot serve on {}: {e}", args.addr);
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "models" => cmd_models(),
        "devices" => cmd_devices(),
        "info" => cmd_info(&args),
        "plot" => cmd_plot(&args),
        "fixed" => cmd_fixed(&args),
        "serve" => cmd_serve(&args),
        _ => usage(),
    }
    ExitCode::SUCCESS
}
