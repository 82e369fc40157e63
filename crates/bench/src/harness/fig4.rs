//! Fig. 4: TAU-style profile comparison between the host CPU execution
//! and the MIC in native mode (H.M. Large, full physics).
//!
//! The host column is MEASURED: a real instrumented transport run through
//! `mcs-prof`. The MIC column is MODELED from the same run's instrumented
//! counts. The features to reproduce: the top routine is the XS lookup on
//! both machines, the MIC beats the CPU on exactly those bottleneck
//! routines, and the total is ≈1.5–1.6× faster on the MIC.

use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};
use mcs_prof::{Profile, ThreadProfiler};

use super::{check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig4",
    title: "Fig. 4: profile comparison, host CPU vs MIC native (H.M. Large)",
    tables: &["fig4_profile_compare"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// Typed result of the Fig. 4 harness.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Histories in the instrumented run.
    pub histories: usize,
    /// MEASURED host profile (real instrumentation on this machine).
    pub host_profile: Profile,
    /// MODELED per-routine comparison `(routine, cpu_s, mic_s)`, in the
    /// native model's bottleneck-first order.
    pub modeled: Vec<(String, f64, f64)>,
    /// MODELED total time on the E5-2687W.
    pub total_cpu: f64,
    /// MODELED total time on the Phi 7120A.
    pub total_mic: f64,
    /// The `fig4_profile_compare` table.
    pub table: Table,
}

impl Fig4Result {
    /// Total MIC speedup over the CPU (paper: 96 min / 65 min = 1.48×).
    pub fn speedup(&self) -> f64 {
        self.total_cpu / self.total_mic
    }
}

/// Fig. 4 — per-routine profile comparison.
pub fn score(r: &Fig4Result) -> Vec<CheckOutcome> {
    let bottleneck_tops = r.modeled[0].1 >= r.modeled[1].1 && r.modeled[0].1 >= r.modeled[2].1;
    vec![
        check(
            "F4.bottleneck_is_xs",
            "calculate_xs tops the modeled CPU profile",
            holds(bottleneck_tops),
            Band::Holds,
        ),
        check(
            "F4.mic_wins_bottleneck",
            "the MIC beats the CPU on the bottleneck routine",
            r.modeled[0].1 / r.modeled[0].2,
            Band::AtLeast(1.0),
        ),
        check(
            "F4.total_speedup",
            "total MIC/CPU speedup (paper: 96 min / 65 min = 1.48x)",
            r.speedup(),
            Band::Range { lo: 1.2, hi: 2.2 },
        ),
    ]
}

/// Run the Fig. 4 instrumented comparison at `scale`.
pub fn run(scale: f64, verbose: bool) -> Fig4Result {
    let problem = Problem::hm(HmModel::Large, &ProblemConfig::default());
    let n = scaled_by(2_000, scale);
    let sources = problem.sample_initial_source(n, 0);
    let streams = batch_streams(problem.seed, 0, n);

    // MEASURED host profile (single-threaded instrumented run).
    let prof = ThreadProfiler::new();
    let out = transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest {
            profiler: Some(&prof),
            ..BatchRequest::default()
        },
        &mut Threaded::ambient(),
    )
    .outcome;
    let host_profile = prof.finish();
    vprintln!(verbose, "\nMEASURED host profile ({} histories):\n", n);
    if verbose {
        println!("{}", host_profile.render("host (this machine)"));
    }

    // MODELED comparison: price the instrumented counts on both machines.
    let shape = shape_of(&problem);
    let host_model = NativeModel::new(catalog::machine("host-e5-2687w"), Algorithm::History);
    let mic_model = NativeModel::new(catalog::machine("knc-7120a"), Algorithm::History);
    let host_prof = host_model.profile_breakdown(&shape, &out.tallies);
    let mic_prof = mic_model.profile_breakdown(&shape, &out.tallies);

    // MODELED per-routine comparison (E5-2687W vs Phi 7120A).
    let mut table = Table::new(
        "fig4_profile_compare",
        vec![
            Column::key("routine"),
            Column::modeled("cpu_s", 0.02, Fmt::Fixed(6)),
            Column::modeled("mic_s", 0.02, Fmt::Fixed(6)),
        ],
    );
    let mut modeled = Vec::new();
    let mut tot_cpu = 0.0;
    let mut tot_mic = 0.0;
    for ((name, t_cpu), (_, t_mic)) in host_prof.iter().zip(mic_prof.iter()) {
        table.push(vec![name.as_str().into(), (*t_cpu).into(), (*t_mic).into()]);
        modeled.push((name.clone(), *t_cpu, *t_mic));
        tot_cpu += t_cpu;
        tot_mic += t_mic;
    }
    table.push(vec!["TOTAL".into(), tot_cpu.into(), tot_mic.into()]);
    vprintln!(
        verbose,
        "\nCPU/MIC total speedup: {:.2}x  (paper: 96 min / 65 min = 1.48x)",
        tot_cpu / tot_mic
    );

    Fig4Result {
        histories: n,
        host_profile,
        modeled,
        total_cpu: tot_cpu,
        total_mic: tot_mic,
        table,
    }
}
