//! Geometry ablation: nested vs flattened lattice lookup over the model
//! catalog — model × traversal treatment × bank size.
//!
//! The traversal seam ([`mcs_geom::GeomTraversal`]) offers two
//! treatments of the same CSG tree: `nested` walks the pin → assembly →
//! core universe hierarchy on every query (the classic recursive
//! search); `flattened` pre-inlines universe indirections into per-level
//! cell lists and skips wrapper universes entirely. The treatments are
//! **bitwise-equivalent by contract** — same cells, bit-identical
//! boundary distances — so the only things that may move are throughput
//! and the traversal-work counters:
//!
//! * **rate** — MEASURED particles/s through one history batch;
//! * **`geom.find_steps`** — cells visited per `find`; the flattened
//!   treatment exists to shrink this (wrapper universes become
//!   pass-throughs, universe fills are pre-inlined);
//! * **`geom.surface_tests`** — half-space evaluations, the unit of
//!   actual floating-point geometry work.
//!
//! The bitwise contract is re-verified across the sweep: each
//! (model, bank) cell must produce one identical per-batch k bit
//! pattern across both treatments (`GM.treatment_bitwise`).

use mcs_core::catalog;
use mcs_core::engine::{transport_batch, BatchRequest, ModelSpec, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::Problem;
use mcs_geom::TraversalKind;

use super::{check, holds, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::{scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "geometry",
    title: "BENCH geometry: model-catalog traversal ablation, nested vs flattened lattice lookup",
    tables: &["BENCH_geometry"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        let invariants = score(&r);
        HarnessRun {
            counters: r.counters,
            ..HarnessRun::new(invariants, vec![r.table])
        }
    },
};

/// Catalog entries the sweep covers: the unit-scale entry plus the two
/// new scenario shapes. (`small`/`large` share their geometry with the
/// historic figures; re-timing them here buys nothing.)
pub const MODELS: [&str; 3] = ["test", "smr", "shield"];

/// One model × treatment × bank-size sample.
#[derive(Debug, Clone)]
pub struct GeometryRow {
    /// Catalog model name.
    pub model: &'static str,
    /// Traversal treatment.
    pub treatment: TraversalKind,
    /// Bank size (scaled).
    pub bank: usize,
    /// MEASURED history-batch throughput (particles/s).
    pub particles_per_s: f64,
    /// `geom.finds` over the batch (deterministic).
    pub finds: u64,
    /// `geom.find_steps`: cells visited across all finds (deterministic).
    pub find_steps: u64,
    /// `geom.surface_tests`: half-space evaluations (deterministic).
    pub surface_tests: u64,
    /// `geom.boundary_calls` over the batch (deterministic).
    pub boundary_calls: u64,
    /// Bit pattern of the batch's track-length k (determinism anchor).
    pub k_bits: u64,
}

impl GeometryRow {
    /// Cells visited per transported particle — the paper-shape metric.
    pub fn find_steps_per_particle(&self) -> f64 {
        self.find_steps as f64 / self.bank as f64
    }
}

/// Typed result of the geometry harness.
#[derive(Debug, Clone)]
pub struct GeometryResult {
    /// Rows in (model, bank, treatment) order.
    pub rows: Vec<GeometryRow>,
    /// `geom.*` counters of the flattened run of the last model at the
    /// largest bank, as exported by `GeomTraversal::export_counters`.
    pub counters: Vec<(String, u64)>,
    /// The `BENCH_geometry` table.
    pub table: Table,
}

impl GeometryResult {
    /// True iff every (model, bank) cell produced identical k bits
    /// across both traversal treatments.
    pub fn treatment_bitwise(&self) -> bool {
        let mut by_cell: Vec<(&str, usize, u64)> = Vec::new();
        for r in &self.rows {
            match by_cell
                .iter()
                .find(|(m, b, _)| *m == r.model && *b == r.bank)
            {
                Some(&(_, _, bits)) => {
                    if bits != r.k_bits {
                        return false;
                    }
                }
                None => by_cell.push((r.model, r.bank, r.k_bits)),
            }
        }
        true
    }

    /// True iff every configuration reported a positive, finite rate.
    pub fn rates_positive(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.particles_per_s > 0.0 && r.particles_per_s.is_finite())
    }

    /// Summed `find_steps`, flattened over nested, for one model — the
    /// structural claim is that this is `< 1` everywhere (the flattened
    /// treatment never visits *more* cells).
    pub fn flatten_step_ratio(&self, model: &str) -> f64 {
        let steps = |t: TraversalKind| -> u64 {
            self.rows
                .iter()
                .filter(|r| r.model == model && r.treatment == t)
                .map(|r| r.find_steps)
                .sum()
        };
        steps(TraversalKind::Flattened) as f64 / steps(TraversalKind::Nested).max(1) as f64
    }

    /// The per-model k bit patterns at the largest bank (model, bits) —
    /// the eigenvalue anchors mcs-check bands against.
    pub fn k_by_model(&self) -> Vec<(&'static str, f64)> {
        MODELS
            .iter()
            .map(|&m| {
                let r = self
                    .rows
                    .iter()
                    .filter(|r| r.model == m)
                    .max_by_key(|r| r.bank)
                    .expect("model present in sweep");
                (m, f64::from_bits(r.k_bits))
            })
            .collect()
    }
}

fn sample(problem: &Problem, model: &'static str, bank: usize) -> GeometryRow {
    let sources = problem.sample_initial_source(bank, 0);
    let streams = batch_streams(problem.seed, 0, bank);
    let req = BatchRequest::default();
    problem.traversal.reset_counters();
    let (out, secs) =
        time_it(|| transport_batch(problem, &sources, &streams, &req, &mut Threaded::ambient()));
    let mut c = mcs_prof::Counters::new();
    problem.traversal.export_counters(&mut c);
    GeometryRow {
        model,
        treatment: problem.traversal.kind(),
        bank,
        particles_per_s: bank as f64 / secs.max(1e-12),
        finds: c.get("geom.finds"),
        find_steps: c.get("geom.find_steps"),
        surface_tests: c.get("geom.surface_tests"),
        boundary_calls: c.get("geom.boundary_calls"),
        k_bits: out.outcome.tallies.k_track_estimate().to_bits(),
    }
}

/// The flattened/nested bitwise contract, per-model k-eff plausibility
/// bands, and the flattening payoff.
///
/// The k bands are wide on purpose: a single-batch k_track at the
/// sweep's bank size moves with `MCS_SCALE`, so the band must admit
/// both the CI scale and full scale. The *bitwise* agreement across
/// treatments is the sharp check; the bands only catch a model whose
/// physics went off the rails (an absorber that stopped absorbing, a
/// zoning that doubled the fissile inventory).
pub fn score(r: &GeometryResult) -> Vec<CheckOutcome> {
    let mut out = vec![
        check(
            "GM.treatment_bitwise",
            "per-batch k-eff is bit-identical between flattened and nested traversal on every model",
            holds(r.treatment_bitwise()),
            Band::Holds,
        ),
        check(
            "GM.rates_positive",
            "every model x treatment x bank sample produced a positive particle rate",
            holds(r.rates_positive()),
            Band::Holds,
        ),
        check(
            "GM.flatten_no_more_steps",
            "find_steps, flattened over nested, worst model (<= 1 = flattening never adds visits)",
            MODELS
                .iter()
                .map(|&m| r.flatten_step_ratio(m))
                .fold(0.0, f64::max),
            Band::AtMost(1.0),
        ),
    ];
    for (model, k) in r.k_by_model() {
        let (id, lo, hi) = match model {
            // Single unreflected assembly, tiny 7-nuclide library:
            // leakage-dominated, deeply subcritical on a batch-0
            // uniform source (observed ~0.51-0.55 across banks).
            "test" => ("GM.keff_test", 0.3, 0.8),
            // 37-assembly SMR with a rodded centre: near critical
            // (observed ~1.08).
            "smr" => ("GM.keff_smr", 0.8, 1.3),
            // One assembly mid-tank: the deep water reflector returns
            // thermalized neutrons, so the assembly itself runs
            // slightly supercritical (observed ~1.09-1.11).
            "shield" => ("GM.keff_shield", 0.8, 1.35),
            _ => ("GM.keff_other", 0.1, 2.0),
        };
        out.push(check(
            id,
            "largest-bank single-batch k_track sits in the model's plausibility band",
            k,
            Band::Range { lo, hi },
        ));
    }
    out
}

/// Run the model × treatment × bank-size sweep at `scale`.
pub fn run(scale: f64, verbose: bool) -> GeometryResult {
    let banks = [
        scaled_by(2_000, scale).max(400),
        scaled_by(10_000, scale).max(800),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "BENCH_geometry",
        vec![
            Column::key("model"),
            Column::key("treatment"),
            Column::key("bank_size").prefixed("b"),
            Column::measured("particles_measured_per_s", Fmt::Fixed(1)).trended(),
            Column::counter("finds").trended(),
            Column::counter("find_steps").trended(),
            Column::counter("surface_tests").trended(),
            Column::counter("boundary_calls"),
            Column::modeled("find_steps_per_particle", 0.02, Fmt::Fixed(4)),
            // A deterministic float reduction.
            Column::modeled("k_track", 1e-9, Fmt::Sci(9)),
        ],
    )
    .trended("geom");
    let mut counters: Vec<(String, u64)> = Vec::new();
    for &model in MODELS.iter() {
        for &bank in &banks {
            for treatment in TraversalKind::ALL {
                let problem = catalog::build(&ModelSpec::named(model), treatment)
                    .expect("catalog model builds");
                let row = sample(&problem, model, bank);
                if treatment == TraversalKind::Flattened && bank == banks[banks.len() - 1] {
                    let mut c = mcs_prof::Counters::new();
                    problem.traversal.export_counters(&mut c);
                    counters = c.iter().map(|(k, v)| (k.to_string(), v)).collect();
                }
                table.push(vec![
                    row.model.into(),
                    row.treatment.name().into(),
                    row.bank.into(),
                    row.particles_per_s.into(),
                    row.finds.into(),
                    row.find_steps.into(),
                    row.surface_tests.into(),
                    row.boundary_calls.into(),
                    row.find_steps_per_particle().into(),
                    f64::from_bits(row.k_bits).into(),
                ]);
                rows.push(row);
            }
        }
    }

    let result = GeometryResult {
        rows,
        counters,
        table,
    };
    if verbose {
        println!(
            "\nk bit-identical across treatments: {}",
            if result.treatment_bitwise() {
                "yes"
            } else {
                "NO"
            }
        );
        for &m in MODELS.iter() {
            println!(
                "{m}: flattened/nested find_steps ratio {:.3}",
                result.flatten_step_ratio(m)
            );
        }
    }
    result
}
