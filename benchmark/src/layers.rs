//! The traced pass: per-layer numbers, taken in-process in the harness.
//!
//! Spans are recorded around calls into public functions of the program,
//! never inside it; the program is not modified. Probe inputs are seeded:
//! energies log-uniform over the library range, points uniform in the
//! model bounds, directions isotropic.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use mcs::core::catalog;
use mcs::core::eigenvalue::{resample_source, shannon_entropy};
use mcs::core::engine::{
    self, Algorithm, BatchObserver, BatchProgress, BatchRequest, ExecutionPolicy, RunPlan,
    RunReport, Serial, Threaded,
};
use mcs::core::event::EventStats;
use mcs::core::history::batch_streams;
use mcs::core::{MeshSpec, Problem, Statepoint, Tallies};
use mcs::geom::{GeomTraversal, Vec3};
use mcs::prof::{Counters, ThreadProfiler};
use mcs::rng::batch::lcg_fill_uniform;
use mcs::serve::scheduler::ServeConfig;
use mcs::serve::{
    plan_hash, Client, Priority, Request, Response, Scheduler, ServedResult, Server, Source,
    Subscriber,
};
use mcs::simd::math::vln_slice;
use mcs::xs::{MacroXs, NuclideLibrary, XsContext, E_MAX, E_MIN};

use crate::child;
use crate::e2e::{Options, Paths};
use crate::json::Json;
use crate::serve_load::{self, Phase};
use crate::span::{SpanId, Trace};
use crate::stats;
use crate::workload::{derive, SplitMix64, Workload};
use crate::{Metric, PassResult};

/// Operations per timing of the scalar probes.
const PROBE_OPS: usize = 20_000;
/// Timings per probe; the median is reported.
const PROBE_REPS: usize = 9;
/// The mesh of the tally-overhead probe (the `bank_small` plan's mesh).
const PROBE_MESH: (usize, usize, usize) = (17, 17, 4);
/// Seconds the tracing-overhead estimate may spend on extra run pairs.
const OVERHEAD_BUDGET_S: f64 = 3.0;
/// Closure a run tree must reach for the pass to count as correct.
const CLOSURE_TOLERANCE: f64 = 0.05;

/// Seconds one call of `f` takes.
fn time_s<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median over [`PROBE_REPS`] timings of `f`, in seconds.
fn median_s<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (s, out) = time_s(&mut f);
            black_box(out);
            s
        })
        .collect();
    stats::median(&samples)
}

/// Median nanoseconds per operation of an `f` that performs `ops` of them.
fn ns_per_op<R>(ops: usize, f: impl FnMut() -> R) -> f64 {
    median_s(f) * 1e9 / ops.max(1) as f64
}

/// Records one span per batch from the engine's progress seam.
struct BatchSpans<'t> {
    trace: &'t mut Trace,
    run: SpanId,
    batch_start: f64,
    transport_s: f64,
    batch_s: f64,
}

impl BatchObserver for BatchSpans<'_> {
    fn on_batch(&mut self, progress: BatchProgress<'_>) {
        let now = self.trace.now();
        let wall = progress.batch.wall.as_secs_f64();
        let batch = self.trace.record(
            &format!("batch[{}]", progress.batch.index),
            self.batch_start,
            now,
            Some(self.run),
        );
        // The engine reports how long transport took, not when it began:
        // the span's length is exact, its offset inside the batch nominal.
        let split = (self.batch_start + wall).min(now);
        self.trace
            .record("transport", self.batch_start, split, Some(batch));
        self.trace.record("between", split, now, Some(batch));
        self.transport_s += wall;
        self.batch_s += now - self.batch_start;
        self.batch_start = now;
    }
}

/// One traced in-process run of `plan`.
struct TracedRun {
    root: SpanId,
    report: RunReport,
    /// From the engine call to its return.
    engine_s: f64,
    transport_s: f64,
    batch_s: f64,
}

/// Run `plan` on `problem` under the open span `root` and close it:
/// batches from the observer, then the report as the service assembles it.
fn traced_run(trace: &mut Trace, root: SpanId, problem: &Problem, plan: &RunPlan) -> TracedRun {
    let engine_start = trace.now();
    let mut spans = BatchSpans {
        trace: &mut *trace,
        run: root,
        batch_start: engine_start,
        transport_s: 0.0,
        batch_s: 0.0,
    };
    let report = engine::run_with_problem_observed(problem, plan, &mut Serial::new(), &mut spans)
        .into_eigenvalue();
    let (transport_s, batch_s) = (spans.transport_s, spans.batch_s);
    let engine_s = trace.now() - engine_start;
    trace.time("report", Some(root), || {
        black_box(ServedResult::from_report(plan_hash(plan), &report).to_json())
    });
    trace.close(root);
    TracedRun {
        root,
        report,
        engine_s,
        transport_s,
        batch_s,
    }
}

/// Wall time of one untraced in-process run under `policy`.
fn untraced_run_s(problem: &Problem, plan: &RunPlan, policy: &mut dyn ExecutionPolicy) -> f64 {
    time_s(|| black_box(engine::run_with_problem(problem, plan, policy))).0
}

struct Layers {
    metrics: Vec<Metric>,
}

impl Layers {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }
}

pub fn run(w: &Workload, opts: &Options, paths: &Paths) -> Result<PassResult, String> {
    let mut trace = Trace::new(derive(opts.seed, &format!("{}/trace", w.name)));
    let mut m = Layers {
        metrics: Vec::new(),
    };
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut rng = SplitMix64::new(derive(opts.seed, &format!("{}/probe", w.name)));

    let event_plan = w.run_plan(Algorithm::EventBanking, opts.seed);
    let history_plan = w.run_plan(Algorithm::History, opts.seed);
    let histories = (w.particles * event_plan.total_batches()) as f64;

    // ---- run tree: setup, batches, report --------------------------------
    child::prefault(w.prefault_mb);
    let toml = event_plan.to_toml();
    let run = trace.open("run", None);
    let setup = trace.open("setup", Some(run));
    let parsed = trace
        .time("plan.parse", Some(setup), || RunPlan::from_toml(&toml))
        .map_err(|e| format!("generated plan does not parse: {e}"))?;
    let problem = trace.time("problem.build", Some(setup), || parsed.build_problem());
    trace.close(setup);
    let build_s = trace.spans().last().map_or(0.0, |s| s.duration());
    m.push("core.problem.build_s", "s", build_s);

    problem.xs.reset_counters();
    problem.traversal.reset_counters();
    let event = traced_run(&mut trace, run, &problem, &parsed);
    attempted += 1;
    // Exact counts of the event run, before any probe touches the counters.
    let mut counters = Counters::new();
    problem.xs.export_counters(&mut counters);
    problem.traversal.export_counters(&mut counters);
    let gather_span_mean = problem.xs.mean_gather_span_bytes();

    let history_root = trace.open("run[history]", None);
    let history = traced_run(&mut trace, history_root, &problem, &history_plan);
    attempted += 1;
    let same_result = event.report.k_history.len() == history.report.k_history.len()
        && event
            .report
            .k_history
            .iter()
            .zip(&history.report.k_history)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && integer_tallies(&event.report.result.tallies)
            == integer_tallies(&history.report.result.tallies);
    failed += usize::from(!same_result);
    checks.push((
        "trace: history and event runs agree bit for bit".to_string(),
        same_result,
    ));

    let closure = trace
        .unattributed_share(event.root)
        .max(trace.unattributed_share(history.root));
    m.push("core.closure.unattributed_share", "share", closure);
    checks.push((
        format!("trace: run children sum to run within {CLOSURE_TOLERANCE}"),
        closure <= CLOSURE_TOLERANCE,
    ));

    // Tracing overhead: traced against untraced in-process runs of the
    // event plan, as the median over as many pairs as a few seconds hold.
    let untraced_event_s = untraced_run_s(&problem, &parsed, &mut Serial::new());
    attempted += 1;
    let mut overheads = vec![(event.engine_s - untraced_event_s) / untraced_event_s];
    let extra_pairs = ((OVERHEAD_BUDGET_S / (2.0 * untraced_event_s)) as usize).min(6);
    for _ in 0..extra_pairs {
        let mut scratch = Trace::new(0);
        let root = scratch.open("run", None);
        let traced = traced_run(&mut scratch, root, &problem, &parsed).engine_s;
        let untraced = untraced_run_s(&problem, &parsed, &mut Serial::new());
        overheads.push((traced - untraced) / untraced);
        attempted += 2;
    }
    m.push("trace_overhead_share", "share", stats::median(&overheads));
    m.push(
        "core.engine.history_rate",
        "1/s",
        histories / history.engine_s,
    );
    m.push("core.engine.event_rate", "1/s", histories / event.engine_s);
    m.push(
        "core.engine.between_share",
        "share",
        (event.batch_s - event.transport_s) / event.batch_s,
    );
    let t2_history = untraced_run_s(&problem, &history_plan, &mut Threaded::new(2));
    let t2_event = untraced_run_s(&problem, &parsed, &mut Threaded::new(2));
    attempted += 2;
    m.push(
        "core.policy.t2_speedup_history",
        "ratio",
        history.engine_s / t2_history,
    );
    m.push(
        "core.policy.t2_speedup_event",
        "ratio",
        untraced_event_s / t2_event,
    );

    // ---- exact counts ----------------------------------------------------
    let per = |name: &str, over: f64| counters.get(name) as f64 / over.max(1.0);
    m.push(
        "xs.lookups_per_history",
        "count",
        per("xs.lookups", histories),
    );
    m.push("xs.gather_span_bytes_mean", "B", gather_span_mean);
    m.push(
        "geom.find_steps_per_find",
        "count",
        per("geom.find_steps", counters.get("geom.finds") as f64),
    );
    m.push(
        "geom.surface_tests_per_boundary",
        "count",
        per(
            "geom.surface_tests",
            counters.get("geom.boundary_calls") as f64,
        ),
    );
    m.push(
        "geom.finds_per_history",
        "count",
        per("geom.finds", histories),
    );
    m.push(
        "geom.boundary_calls_per_history",
        "count",
        per("geom.boundary_calls", histories),
    );
    let event_stats = event
        .report
        .result
        .event_stats
        .expect("the event algorithm reports its stats");
    m.push(
        "core.event.iterations",
        "count",
        event_stats.iterations as f64,
    );
    m.push("core.event.lookups", "count", event_stats.lookups as f64);
    m.push(
        "core.event.peak_bank",
        "count",
        event_stats.peak_bank as f64,
    );

    // ---- one bank through each algorithm ---------------------------------
    let n = w.particles;
    let (source_s, sources) = time_s(|| problem.sample_initial_source(n, 0));
    m.push("core.source.initial_us", "us", source_s * 1e6);
    let streams = batch_streams(problem.seed, 0, n);
    let bank = |trace: &mut Trace, name: &str, req: &BatchRequest<'_>| {
        let start = trace.now();
        let out = engine::transport_batch(&problem, &sources, &streams, req, &mut Serial::new());
        let id = trace.record(name, start, trace.now(), None);
        (id, out)
    };
    let (history_bank, history_out) = bank(&mut trace, "history.batch", &BatchRequest::default());
    m.push(
        "core.history.batch_s",
        "s",
        trace.span(history_bank).duration(),
    );
    let event_req = BatchRequest {
        algorithm: Algorithm::EventBanking,
        ..BatchRequest::default()
    };
    let (event_bank, event_out) = bank(&mut trace, "event.batch", &event_req);
    let event_bank_s = trace.span(event_bank).duration();
    m.push("core.event.batch_s", "s", event_bank_s);
    let stage_s = event_out.event_stats.map_or([0.0; 6], |s| s.stage_seconds);
    // Stage spans are laid end to end inside the bank's span: lengths are
    // the engine's own stage clocks, the order is nominal.
    let mut cursor = trace.span(event_bank).start;
    for (name, seconds) in EventStats::STAGE_NAMES.iter().zip(stage_s) {
        trace.record(
            &format!("stage.{name}"),
            cursor,
            cursor + seconds,
            Some(event_bank),
        );
        cursor += seconds;
        m.push(&format!("core.event.stage.{name}_s"), "s", seconds);
    }
    let unattributed = event_bank_s - stage_s.iter().sum::<f64>();
    m.push("core.event.unattributed_s", "s", unattributed);
    checks.push((
        "trace: event stages plus unattributed equal the bank's wall time".to_string(),
        (trace.self_time(event_bank) - unattributed.max(0.0)).abs() <= 1e-9 * event_bank_s.max(1.0),
    ));

    // History regions through the engine's profiler seam.
    let profiler = ThreadProfiler::new();
    engine::transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest {
            profiler: Some(&profiler),
            ..BatchRequest::default()
        },
        &mut Serial::new(),
    );
    let profile = profiler.finish();
    let inclusive = |name: &str| profile.get(name).map_or(0.0, |r| r.inclusive.as_secs_f64());
    let total = inclusive("transport_total").max(f64::MIN_POSITIVE);
    for region in ["calculate_xs", "distance_to_boundary", "sample_reaction"] {
        m.push(
            &format!("core.history.region.{region}_share"),
            "share",
            inclusive(region) / total,
        );
    }

    // Mesh tally overhead on one history bank.
    let (lo, hi) = problem.geometry.bounds;
    let (nx, ny, nz) = PROBE_MESH;
    let mesh_req = BatchRequest {
        mesh: Some(MeshSpec::covering((lo, hi), nx, ny, nz)),
        ..BatchRequest::default()
    };
    let plain_s = time_s(|| bank(&mut trace, "history.batch[plain]", &BatchRequest::default())).0;
    let mesh_s = time_s(|| bank(&mut trace, "history.batch[mesh]", &mesh_req)).0;
    m.push(
        "core.tally.mesh_overhead_share",
        "share",
        (mesh_s - plain_s) / plain_s,
    );

    // Between-batch work on that bank's fission sites.
    let sites = &history_out.outcome.sites;
    m.push(
        "core.between.entropy_us",
        "us",
        median_s(|| shannon_entropy(sites, (lo, hi), parsed.entropy_mesh)) * 1e6,
    );
    m.push(
        "core.between.resample_us",
        "us",
        median_s(|| resample_source(sites, n, problem.seed)) * 1e6,
    );
    let statepoint = Statepoint {
        seed: problem.seed,
        completed_batches: 1,
        source: resample_source(sites, n, problem.seed),
        k_history: vec![1.0; parsed.total_batches()],
        tallies: history_out.outcome.tallies,
    };
    let mut bytes = Vec::new();
    m.push(
        "core.statepoint.write_us",
        "us",
        median_s(|| {
            bytes.clear();
            statepoint.write_to(&mut bytes).expect("write to memory")
        }) * 1e6,
    );
    m.push(
        "core.statepoint.read_us",
        "us",
        median_s(|| Statepoint::read_from(&mut bytes.as_slice()).expect("read back")) * 1e6,
    );
    m.push("core.statepoint.bytes", "B", bytes.len() as f64);
    m.push(
        "core.plan.parse_us",
        "us",
        median_s(|| RunPlan::from_toml(&toml)) * 1e6,
    );

    // ---- rng, simd -------------------------------------------------------
    let mut draw_streams = streams.clone();
    let mut uniforms = vec![0.0f64; n];
    m.push(
        "rng.lcg_fill_ns_per_draw",
        "ns",
        ns_per_op(n, || lcg_fill_uniform(&mut draw_streams, &mut uniforms)),
    );
    m.push(
        "rng.batch_streams_us",
        "us",
        median_s(|| batch_streams(problem.seed, 1, n)) * 1e6,
    );
    let xs_f32: Vec<f32> = (0..n).map(|_| (1.0 - rng.uniform()) as f32).collect();
    let mut logs = vec![0.0f32; n];
    m.push(
        "simd.vln_ns_per_elem",
        "ns",
        ns_per_op(n, || vln_slice(black_box(&xs_f32), &mut logs)),
    );

    // ---- xs --------------------------------------------------------------
    let log_span = (E_MAX / E_MIN).ln();
    let energy = |rng: &mut SplitMix64| E_MIN * (rng.uniform() * log_span).exp();
    let energies: Vec<f64> = (0..PROBE_OPS).map(|_| energy(&mut rng)).collect();
    let mut lcg = mcs::rng::Lcg63::new(derive(opts.seed, "probe/lcg"));
    m.push(
        "xs.lookup_scalar_ns",
        "ns",
        ns_per_op(PROBE_OPS, || {
            for &e in &energies {
                black_box(problem.macro_xs_vector(0, e, &mut lcg));
            }
        }),
    );
    let bank_energies: Vec<f64> = (0..n).map(|_| energy(&mut rng)).collect();
    let indices: Vec<u32> = (0..n as u32).collect();
    let mut out = vec![MacroXs::default(); n];
    let fuel = &problem.materials[0];
    m.push(
        "xs.lookup_banked_ns",
        "ns",
        ns_per_op(n, || {
            problem
                .xs
                .batch_macro_xs_simd_indexed(fuel, &bank_energies, &indices, &mut out)
        }),
    );
    let index_bytes = problem.xs.index_bytes() as f64;
    let data_bytes = problem.xs.data_bytes() as f64;
    m.push("xs.index_mb", "MB", index_bytes / 1e6);
    m.push("xs.data_mb", "MB", data_bytes / 1e6);
    // Computed from array sizes, not measured: the fuel's share of one
    // index row, plus two grid points of energy and five reactions for
    // each of its nuclides.
    let index_row = index_bytes / problem.xs.search_points().max(1) as f64;
    let fuel_share = fuel.nuclides.len() as f64 / problem.xs.n_nuclides().max(1) as f64;
    m.push(
        "xs.computed_bytes_per_lookup",
        "B",
        index_row * fuel_share + fuel.nuclides.len() as f64 * 2.0 * 6.0 * 8.0,
    );

    // ---- geom ------------------------------------------------------------
    let span = hi - lo;
    let points: Vec<Vec3> = (0..PROBE_OPS)
        .map(|_| {
            Vec3::new(
                lo.x + span.x * rng.uniform(),
                lo.y + span.y * rng.uniform(),
                lo.z + span.z * rng.uniform(),
            )
        })
        .collect();
    m.push(
        "geom.find_ns",
        "ns",
        ns_per_op(PROBE_OPS, || {
            for &p in &points {
                black_box(problem.find(p));
            }
        }),
    );
    let rays: Vec<(Vec3, Vec3)> = points
        .iter()
        .filter(|&&p| problem.find(p).is_some())
        .map(|&p| {
            let mu = 2.0 * rng.uniform() - 1.0;
            let phi = std::f64::consts::TAU * rng.uniform();
            let s = (1.0 - mu * mu).sqrt();
            (p, Vec3::new(s * phi.cos(), s * phi.sin(), mu))
        })
        .collect();
    m.push(
        "geom.boundary_ns",
        "ns",
        ns_per_op(rays.len(), || {
            for &(p, dir) in &rays {
                black_box(problem.distance_to_boundary(p, dir));
            }
        }),
    );

    // ---- uncached builds -------------------------------------------------
    let cfg = parsed.default_config();
    m.push(
        "geom.build_s",
        "s",
        time_s(|| {
            let model = cfg.core.build();
            black_box(GeomTraversal::new(parsed.traversal, &model.geometry));
            black_box(model)
        })
        .0,
    );
    let lib_spec = catalog::library_for(w.model)?
        .with_grid_density(cfg.grid_density)
        .with_fuel_temperature(cfg.fuel_temperature_k);
    child::prefault(w.prefault_mb);
    m.push(
        "xs.context_build_s",
        "s",
        time_s(|| {
            black_box(XsContext::new(
                NuclideLibrary::build(&lib_spec),
                cfg.grid_backend,
            ))
        })
        .0,
    );
    drop(problem);

    // ---- serve -----------------------------------------------------------
    let session = w.serve_session(opts.seed);
    let serve_plan = session.plans[0].clone();
    m.push(
        "serve.hash.plan_hash_us",
        "us",
        median_s(|| plan_hash(black_box(&serve_plan))) * 1e6,
    );
    let request = Request::Submit {
        plan: Box::new(serve_plan.clone()),
        priority: Priority::Normal,
        progress: false,
    };
    let request_line = request.to_line();
    m.push(
        "serve.protocol.request_encode_us",
        "us",
        median_s(|| request.to_line()) * 1e6,
    );
    m.push(
        "serve.protocol.request_parse_us",
        "us",
        median_s(|| Request::parse(&request_line).expect("own request parses")) * 1e6,
    );

    // The scheduler without a socket: one cold submission, then hits.
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let mut submit_and_wait = || {
        let sub = Subscriber {
            id: 0,
            progress: false,
            tx: tx.clone(),
        };
        scheduler.submit(serve_plan.clone(), Priority::Normal, sub);
        loop {
            match rx.recv().expect("scheduler keeps the channel open") {
                Response::Result { result, .. } => return result,
                Response::Rejected { reason, .. } => panic!("probe plan rejected: {reason}"),
                _ => {}
            }
        }
    };
    let (cold_s, served) = time_s(&mut submit_and_wait);
    m.push("serve.scheduler.cold_ms", "ms", cold_s * 1e3);
    let hit_us = median_s(&mut submit_and_wait) * 1e6;
    m.push("serve.scheduler.hit_us", "us", hit_us);
    scheduler.shutdown();
    attempted += 1 + PROBE_REPS;
    let serve_problem = serve_plan.build_problem();
    let engine_s = untraced_run_s(&serve_problem, &serve_plan, &mut Serial::new());
    drop(serve_problem);
    m.push("serve.engine.cold_share", "share", engine_s / cold_s);

    let response = Response::Result {
        id: 0,
        source: Source::Cache,
        result: served,
    };
    let response_line = response.to_line();
    m.push(
        "serve.protocol.response_encode_us",
        "us",
        median_s(|| response.to_line()) * 1e6,
    );
    m.push(
        "serve.protocol.response_parse_us",
        "us",
        median_s(|| Response::parse(&response_line).expect("own response parses")) * 1e6,
    );
    m.push(
        "serve.protocol.result_bytes",
        "B",
        response_line.len() as f64,
    );

    // The session over loopback against an in-process server, one span
    // per submission.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_cap: 256,
            cache_cap: 1024,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind in-process server: {e}"))?;
    let session_span = trace.open("serve.session", None);
    let served = serve_load::run_session(server.local_addr(), &session);
    trace.close(session_span);
    let rtt = Client::connect(server.local_addr())
        .map_err(|e| format!("connect for rtt: {e}"))
        .map(|mut c| median_s(|| c.stats().expect("stats round trip")));
    server.shutdown();
    let served = served?;
    m.push("serve.socket.rtt_us", "us", rtt? * 1e6);
    attempted += served.samples.len();
    failed += served.failed();
    for (name, ok) in served.checks() {
        checks.push((name.to_string(), ok));
    }
    for phase in [Phase::Cold, Phase::Warm, Phase::Pipelined] {
        let of_phase = || served.samples.iter().filter(|s| s.phase == phase);
        let start = of_phase()
            .map(|s| trace.at(s.submitted))
            .fold(f64::MAX, f64::min);
        let end = of_phase().map(|s| trace.at(s.answered)).fold(0.0, f64::max);
        let span = trace.record(
            &format!("phase.{}", phase.label()),
            start,
            end,
            Some(session_span),
        );
        for s in of_phase() {
            let (a, b) = (trace.at(s.submitted), trace.at(s.answered));
            trace.record(
                &format!("submit[c{} plan {}]", s.client, s.plan),
                a,
                b,
                Some(span),
            );
        }
    }
    let warm = served.latencies_ms(Phase::Warm);
    let cold = served.latencies_ms(Phase::Cold);
    // Derived: what the socket, the protocol and the client add to a hit.
    m.push(
        "serve.socket.warm_overhead_ms",
        "ms",
        stats::median(&warm) - hit_us / 1e3,
    );
    for (name, latencies) in [("cold", &cold), ("warm", &warm)] {
        let p = stats::highest_supported_percentile(latencies.len());
        m.push(
            &format!("serve.session.{name}_tail_ms"),
            "ms",
            stats::percentile(latencies, p),
        );
    }
    for (name, value) in [
        ("cache_hits", served.end.cache_hits),
        ("coalesced", served.end.coalesced),
        ("cold_runs", served.end.cold_runs),
        ("rejected", served.end.rejected),
        ("xs_lookups", served.end.xs_lookups),
    ] {
        m.push(&format!("serve.stats.{name}"), "count", value as f64);
    }

    let out = paths.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let trace_file = out.join(format!("trace.{}.json", w.name));
    std::fs::write(&trace_file, trace.to_json(w.name).compact())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let correct = checks.iter().all(|(_, ok)| *ok);
    Ok(PassResult {
        workload: w.name.to_string(),
        correct,
        attempted,
        failed,
        metrics: m.metrics,
        checks,
        info: vec![("spans".to_string(), Json::Num(trace.spans().len() as f64))],
    })
}

/// The integer part of a tally set, which both algorithms must reproduce.
fn integer_tallies(t: &Tallies) -> [u64; 5] {
    [t.segments, t.collisions, t.absorptions, t.fissions, t.leaks]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use mcs::prof::JsonValue;
    use std::path::PathBuf;

    /// `BENCHMARK.json` names the harness's workloads, and the traced pass
    /// reports exactly its per-layer metrics, with its units.
    #[test]
    fn a_smoke_traced_pass_reports_the_contract_metrics() {
        let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let contract = std::fs::read_to_string(bench_dir.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
        let contract = JsonValue::parse(&contract).expect("BENCHMARK.json parses");
        let mut expected: Vec<(String, String)> = contract
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();

        let names = |key: &str| -> Vec<String> {
            let list = contract.get(key).and_then(JsonValue::as_array).unwrap();
            list.iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);

        let paths = Paths {
            mcs_bin: PathBuf::new(),
            self_exe: PathBuf::new(),
            bench_dir,
        };
        let opts = Options {
            seed: workload::DEFAULT_SEED,
            seconds: 1.0,
            smoke: true,
            bless: false,
        };
        let w = workload::by_name("bank_small").unwrap().smoke();
        let result = run(&w, &opts, &paths).expect("traced smoke pass runs");
        for (name, ok) in &result.checks {
            assert!(ok, "{name}");
        }
        assert_eq!(result.failed, 0);
        let mut reported: Vec<(String, String)> = result
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        expected.sort();
        reported.sort();
        assert_eq!(reported, expected);

        // Counts labelled exact repeat exactly for a seed.
        let again = run(&w, &opts, &paths).expect("second pass runs");
        for (a, b) in result.metrics.iter().zip(&again.metrics) {
            if a.unit == "count" {
                assert_eq!(a.value, b.value, "{} is not exact", a.name);
            }
        }
    }
}
