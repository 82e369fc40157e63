//! Fig. 8: execution time for RSBench implementations — original
//! (variable poles per window) vs vectorized (fixed poles per window).
//!
//! The host columns are MEASURED: both multipole kernels really run here,
//! over identical physical pole data (the fixed layout pads windows with
//! zero-residue poles, so the checksums agree). The MIC columns are
//! MODELED by pricing the per-pole operation mix on the Phi: the
//! original's variable trip count keeps the Faddeeva evaluation scalar
//! (call-heavy — the MIC's weakness), the vectorized layout turns it into
//! lane work (the MIC's strength).

use mcs_device::catalog;
use mcs_device::{KernelCounts, MachineSpec};
use mcs_multipole::{rsbench_driver, MultipoleLibrary, MultipoleSpec};

use super::{
    check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Kind, Table,
    Value,
};
use crate::{scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig8",
    title: "Fig. 8: RSBench, original vs vectorized multipole lookups",
    tables: &["fig8_rsbench"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r, scale), vec![r.table])
    },
};

/// Typed result of the Fig. 8 harness.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Lookups in the measured run (scaled).
    pub n_lookups: usize,
    /// MEASURED original-kernel time on this host (s).
    pub t_orig: f64,
    /// MEASURED vectorized-kernel time on this host (s).
    pub t_vec: f64,
    /// |orig − vec| / orig checksum disagreement between the kernels.
    pub checksum_rel_err: f64,
    /// MODELED paper-scale vectorization speedup on the E5-2687W.
    pub cpu_modeled_speedup: f64,
    /// MODELED paper-scale vectorization speedup on the Phi 7120A.
    pub mic_modeled_speedup: f64,
    /// On-the-fly Doppler series `(T kelvin, σ_t at the first pole's
    /// peak)` — peaks must flatten as T rises.
    pub doppler: Vec<(f64, f64)>,
    /// The `fig8_rsbench` table.
    pub table: Table,
}

impl Fig8Result {
    /// Measured host vectorization speedup.
    pub fn measured_speedup(&self) -> f64 {
        self.t_orig / self.t_vec
    }
}

/// Fig. 8 — RSBench original vs vectorized multipole lookups. The
/// MEASURED host speedup only holds once the workload amortizes its
/// fixed overheads, so it is scored at `scale >= 1` only; at reduced
/// scale the MODELED invariants carry the claim.
pub fn score(r: &Fig8Result, scale: f64) -> Vec<CheckOutcome> {
    let mut out = vec![
        check(
            "F8.checksum",
            "original and vectorized multipole kernels agree",
            r.checksum_rel_err,
            Band::AtMost(1e-9),
        ),
        check(
            "F8.mic_gains_more",
            "vectorization helps the MIC more than the CPU (modeled)",
            r.mic_modeled_speedup / r.cpu_modeled_speedup,
            Band::AtLeast(1.0),
        ),
        check(
            "F8.doppler_flattens",
            "Doppler: resonance peak flattens monotonically with temperature",
            holds(
                r.doppler
                    .windows(2)
                    .all(|w| w[1].1.abs() < w[0].1.abs() * 1.001),
            ),
            Band::Holds,
        ),
    ];
    if scale >= 1.0 {
        out.push(check(
            "F8.measured_speedup",
            "vectorized kernel beats the original on this host (full scale only)",
            r.measured_speedup(),
            Band::AtLeast(1.0),
        ));
    }
    out
}

/// Run the Fig. 8 RSBench comparison at `scale`.
pub fn run(scale: f64, verbose: bool) -> Fig8Result {
    let spec = MultipoleSpec::rsbench_like();
    let var_lib = MultipoleLibrary::build(&spec);
    let max_poles = var_lib
        .nuclides
        .iter()
        .map(|n| n.max_poles_per_window())
        .max()
        .unwrap();
    let fix_lib = MultipoleLibrary::build(&spec.clone().with_fixed_poles(max_poles));
    vprintln!(
        verbose,
        "\nlibrary: {} nuclides × {} windows; {} poles variable, {} fixed ({} per window)\n",
        spec.n_nuclides,
        spec.n_windows,
        var_lib.total_poles(),
        fix_lib.total_poles(),
        max_poles
    );

    let n_lookups = scaled_by(300_000, scale);
    let (sum_orig, t_orig) = time_it(|| rsbench_driver(&var_lib, n_lookups, 42, false));
    let (sum_vec, t_vec) = time_it(|| rsbench_driver(&fix_lib, n_lookups, 42, true));
    let checksum_rel_err = ((sum_orig - sum_vec) / sum_orig).abs();

    // MODELED: per-pole op mixes on each machine.
    let mean_poles_var = var_lib.total_poles() as f64 / (spec.n_nuclides * spec.n_windows) as f64;
    let poles_per_lookup_var = mean_poles_var;
    let poles_per_lookup_fix = max_poles as f64;
    // Original: every pole costs a complex exponential (exp+sin+cos via
    // libm) and scalar complex bookkeeping, behind a call.
    let per_pole_orig = KernelCounts {
        calls: 1.0,
        libm: 3.0,
        scalar: 80.0,
        ..Default::default()
    };
    // Vectorized: the W series becomes lane work; the hoisted exponential
    // leaves one scalar libm trio per *window*, amortized over its poles.
    let per_pole_vec = KernelCounts {
        vector_lanes: 100.0,
        scalar: 10.0,
        libm: 3.0 / poles_per_lookup_fix,
        ..Default::default()
    };
    let lookups = 1e8; // paper-scale lookup count
    let cpu = catalog::machine("host-e5-2687w");
    let mic = catalog::machine("knc-7120a");
    let t = |spec: &MachineSpec, c: &KernelCounts, poles: f64| {
        spec.kernel_time(&c.scale(lookups * poles))
    };
    // One MEASURED host row (`n_lookups` lookups), then each machine
    // MODELED at paper scale (1e8 lookups); all in seconds.
    let mut table = Table::new(
        "fig8_rsbench",
        vec![
            Column::key("row"),
            Column::measured("original_s", Fmt::Fixed(4)),
            Column::measured("vectorized_s", Fmt::Fixed(4)),
            Column::measured("speedup", Fmt::Fixed(3)),
        ],
    );
    table.push(vec![
        "host_measured".into(),
        t_orig.into(),
        t_vec.into(),
        (t_orig / t_vec).into(),
    ]);
    let mut modeled_speedups = [0.0f64; 2];
    for (i, (label, m)) in [("CPU", &cpu), ("MIC", &mic)].iter().enumerate() {
        let a = t(m, &per_pole_orig, poles_per_lookup_var);
        let b = t(m, &per_pole_vec, poles_per_lookup_fix);
        modeled_speedups[i] = a / b;
        table.push_as(
            Kind::Modeled(0.02),
            vec![
                format!("{label}_modeled").into(),
                Value::Fixed(a, 2),
                Value::Fixed(b, 2),
                (a / b).into(),
            ],
        );
    }
    vprintln!(
        verbose,
        "paper shape: vectorization ≈ 2-3x; the MIC gains far more than the CPU"
    );

    // Bonus: the multipole method's motivation — on-the-fly temperature
    // dependence (§IV-B). One pole, re-broadened across temperatures.
    vprintln!(verbose, "\nDoppler broadening on the fly (no new tables):");
    let nuc = &var_lib.nuclides[0];
    let pole = nuc.poles[0];
    let e_peak = pole.position.re * pole.position.re;
    vprintln!(verbose, "{:>8} {:>16}", "T (K)", "sigma_t at peak");
    let mut doppler = Vec::new();
    for t_k in [293.6, 600.0, 1200.0, 2400.0] {
        let hot = nuc.at_temperature(t_k);
        let sig = mcs_multipole::lookup_original(&hot, e_peak).total;
        vprintln!(verbose, "{:>8.1} {:>16.1}", t_k, sig);
        doppler.push((t_k, sig));
    }
    vprintln!(
        verbose,
        "(peaks flatten as T rises — the ψ/χ broadening the paper cites)"
    );

    Fig8Result {
        n_lookups,
        t_orig,
        t_vec,
        checksum_rel_err,
        cpu_modeled_speedup: modeled_speedups[0],
        mic_modeled_speedup: modeled_speedups[1],
        doppler,
        table,
    }
}
