//! §V — the paper's future-work directions, implemented and quantified:
//!
//! 1. **Runtime-adaptive α** ("α can be determined at runtime... using the
//!    measured calculation rates"): batch-by-batch rebalancing vs the
//!    static Eq. 3 split, in the knee regime where static balancing fails.
//! 2. **Knights Landing projection** ("out-of-order execution... possible
//!    automatic ~3x single thread speedup", no PCIe hop): native-mode
//!    rates on the projected socketed successor.
//! 3. **Energy expenditure** ("analyzing energy expenditures... excellent
//!    performance per watt"): neutrons-per-joule for the Table III
//!    hardware combinations.

use mcs_cluster::adaptive::{simulate_adaptive, static_alpha_wall};
use mcs_cluster::Rank;
use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};
use mcs_device::power::batch_energy;

use super::{check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "futurework",
    title: "§V: future-work projections — adaptive alpha, KNL, energy",
    tables: &["futurework_adaptive", "futurework_energy"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), r.tables)
    },
};

/// One energy-analysis row.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Hardware configuration label.
    pub label: String,
    /// Wall time for the 10⁵-particle batch, seconds.
    pub wall_s: f64,
    /// Energy for the batch, joules.
    pub energy_j: f64,
    /// Figure of merit: neutrons per joule.
    pub neutrons_per_joule: f64,
}

/// Typed result of the §V future-work harness.
#[derive(Debug, Clone)]
pub struct FutureworkResult {
    /// Modeled CPU rank rate, n/s.
    pub r_cpu: f64,
    /// Modeled KNC (Phi 7120A) rank rate, n/s.
    pub r_mic: f64,
    /// Projected KNL native history rate, n/s.
    pub r_knl: f64,
    /// Projected KNL rate with the banked (event) kernels, n/s.
    pub r_knl_banked: f64,
    /// Static Eq.-3 batch wall time in the knee regime, seconds.
    pub static_wall: f64,
    /// Adaptive batch wall times, one per batch.
    pub adaptive_walls: Vec<f64>,
    /// Converged adaptive gain over the static split.
    pub adaptive_gain: f64,
    /// Energy rows for the Table III hardware combinations.
    pub energy: Vec<EnergyRow>,
    /// The `futurework_adaptive` and `futurework_energy` tables.
    pub tables: Vec<Table>,
}

/// §V — future-work projections.
pub fn score(r: &FutureworkResult) -> Vec<CheckOutcome> {
    let mic_only = r
        .energy
        .iter()
        .find(|m| m.label.contains("MIC only"))
        .map_or(f64::INFINITY, |m| m.neutrons_per_joule);
    vec![
        check(
            "FW.adaptive_gain",
            "adaptive alpha beats the static Eq.-3 split in the knee regime",
            r.adaptive_gain,
            Band::AtLeast(1.001),
        ),
        check(
            "FW.knl_over_knc",
            "projected KNL clearly outruns the KNC",
            r.r_knl / r.r_mic,
            Band::AtLeast(1.5),
        ),
        check(
            "FW.energy_mic_wins",
            "MIC-only is the most energy-efficient configuration (n/J)",
            holds(r.energy.iter().all(|e| e.neutrons_per_joule <= mic_only)),
            Band::Holds,
        ),
    ]
}

/// Run the §V projections at `scale`.
pub fn run(scale: f64, verbose: bool) -> FutureworkResult {
    // Measured per-particle structure at production batch size.
    let problem = Problem::hm(HmModel::Large, &ProblemConfig::default());
    let shape = shape_of(&problem);
    let n_probe = scaled_by(2_000, scale);
    let sources = problem.sample_initial_source(n_probe, 0);
    let streams = batch_streams(problem.seed, 0, n_probe);
    let out = transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest::default(),
        &mut Threaded::ambient(),
    )
    .outcome;
    let t = out.tallies.scaled_to(100_000);

    let cpu = NativeModel::new(catalog::machine("host-e5-2687w"), Algorithm::History);
    let mic = NativeModel::new(catalog::machine("knc-7120a"), Algorithm::History);
    let r_cpu = cpu.calc_rate(&shape, &t);
    let r_mic = mic.calc_rate(&shape, &t);

    // --- 1. runtime-adaptive α ----------------------------------------
    vprintln!(
        verbose,
        "\n[1] runtime-adaptive load balancing (knee regime, 9,800 particles/node):"
    );
    let ranks = vec![Rank::cpu("cpu", r_cpu), Rank::mic("mic", r_mic)];
    let n_small = 9_800;
    let static_wall = static_alpha_wall(&ranks, n_small);
    let walls = simulate_adaptive(&ranks, n_small, 6);
    let gain = static_wall / walls.last().unwrap();
    vprintln!(verbose, "  converged adaptive vs static: {gain:.3}x");
    let mut adaptive = Table::new(
        "futurework_adaptive",
        vec![
            Column::key("batch"),
            Column::modeled("adaptive_wall_s", 0.02, Fmt::Fixed(6)),
            Column::modeled("static_wall_s", 0.02, Fmt::Fixed(6)),
        ],
    );
    for (i, &w) in walls.iter().enumerate() {
        adaptive.push(vec![i.into(), w.into(), static_wall.into()]);
    }

    // --- 2. Knights Landing projection --------------------------------
    vprintln!(
        verbose,
        "\n[2] Knights Landing projection (socketed, OOO, MCDRAM):"
    );
    let knl = NativeModel::new(catalog::machine("knl-projection"), Algorithm::History);
    let knl_banked = NativeModel::new(catalog::machine("knl-projection"), Algorithm::EventBanking);
    let r_knl = knl.calc_rate(&shape, &t);
    let r_knl_banked = knl_banked.calc_rate(&shape, &t);
    vprintln!(verbose, "  KNC native rate:            {r_mic:>10.0} n/s");
    vprintln!(
        verbose,
        "  KNL native rate (proj.):    {r_knl:>10.0} n/s  ({:.1}x KNC)",
        r_knl / r_mic
    );
    vprintln!(
        verbose,
        "  KNL + banked kernels:       {r_knl_banked:>10.0} n/s  ({:.1}x KNC)",
        r_knl_banked / r_mic
    );
    vprintln!(
        verbose,
        "  (and no PCIe hop: the Table II transfer column disappears)"
    );

    // --- 3. energy analysis --------------------------------------------
    vprintln!(
        verbose,
        "\n[3] energy expenditure (per 1e5-particle batch):"
    );
    let host_p = catalog::device("host-e5-2687w")
        .expect("default host")
        .power_spec();
    let mic_p = catalog::device("knc-7120a")
        .expect("knc entry")
        .power_spec();
    let n = 100_000u64;
    let combos = [
        ("CPU only", vec![(host_p, n as f64 / r_cpu)]),
        ("MIC only", vec![(mic_p, n as f64 / r_mic)]),
        (
            "CPU + 2 MIC (balanced)",
            vec![
                (host_p, n as f64 / (r_cpu + 2.0 * r_mic)),
                (mic_p, n as f64 / (r_cpu + 2.0 * r_mic)),
                (mic_p, n as f64 / (r_cpu + 2.0 * r_mic)),
            ],
        ),
    ];
    let mut energy = Vec::new();
    let mut energy_table = Table::new(
        "futurework_energy",
        vec![
            Column::key("configuration"),
            Column::modeled("wall_s", 0.02, Fmt::Fixed(3)),
            Column::modeled("energy_j", 0.02, Fmt::Fixed(1)),
            Column::modeled("neutrons_per_joule", 0.02, Fmt::Fixed(2)),
        ],
    );
    for (label, units) in &combos {
        let rep = batch_energy(label, units, n);
        energy_table.push(vec![
            rep.label.as_str().into(),
            rep.wall_s.into(),
            rep.energy_j.into(),
            rep.neutrons_per_joule().into(),
        ]);
        energy.push(EnergyRow {
            label: rep.label.clone(),
            wall_s: rep.wall_s,
            energy_j: rep.energy_j,
            neutrons_per_joule: rep.neutrons_per_joule(),
        });
    }

    FutureworkResult {
        r_cpu,
        r_mic,
        r_knl,
        r_knl_banked,
        static_wall,
        adaptive_walls: walls,
        adaptive_gain: gain,
        energy,
        tables: vec![adaptive, energy_table],
    }
}
