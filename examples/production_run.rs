//! Production-workflow scenario: survival biasing, a flux mesh tally,
//! checkpoint/restart, and the distributed (executed-MPI) runtime — the
//! features a downstream user reaches for once the physics works.
//!
//! Every section drives the same unified engine (`mcs::core::engine`):
//! the only thing that changes between a laptop run and the simulated
//! MPI run is the [`ExecutionPolicy`] handed to it.
//!
//! ```sh
//! cargo run --release --example production_run
//! ```

use mcs::cluster::DistributedPolicy;
use mcs::core::engine::{
    resume_with_problem, run_batches, run_with_problem, PolicySpec, RunPlan, Threaded,
};
use mcs::core::physics::AbsorptionTreatment;
use mcs::core::statepoint::Statepoint;
use mcs::core::Problem;

fn main() {
    let mut problem = Problem::test_small();
    // Variance reduction: implicit capture + Russian roulette.
    problem.treatment = AbsorptionTreatment::survival_default();

    let plan = RunPlan {
        particles: 3_000,
        inactive: 3,
        active: 5,
        survival: true,
        entropy_mesh: (8, 8, 4),
        // A user-defined flux mesh over the assembly, scored in active
        // batches only.
        mesh_tally: Some((17, 17, 4)),
        ..RunPlan::default()
    };

    // --- 1. straight-through run with survival biasing + mesh ----------
    println!("[1] survival-biased run with a 17x17x4 flux mesh:");
    let result = run_with_problem(&problem, &plan, &mut Threaded::ambient())
        .into_eigenvalue()
        .result;
    println!(
        "    k = {:.5} ± {:.5}   ({:.1} segments/history — biased histories live long)",
        result.k_mean,
        result.k_std,
        result.tallies.segments as f64 / result.tallies.n_particles as f64
    );
    let mesh = result.mesh.as_ref().unwrap();
    let (i, j, k, v) = mesh.peak();
    println!(
        "    mesh: {:.3e} cm tracked; hottest cell ({i},{j},{k}) with {v:.3e} cm",
        mesh.total()
    );
    // Pin-power-style view: collapse the axial dimension, print one row.
    let row_j = j;
    let mut row = Vec::new();
    for ii in 0..17 {
        let mut s = 0.0;
        for kk in 0..4 {
            s += mesh.bins[(kk * 17 + row_j) * 17 + ii];
        }
        row.push(s);
    }
    let row_max = row.iter().cloned().fold(0.0f64, f64::max);
    let profile: String = row
        .iter()
        .map(|&x| {
            let t = (x / row_max * 9.0) as usize;
            char::from_digit(t as u32, 10).unwrap()
        })
        .collect();
    println!("    radial flux profile through the hot row: {profile}");

    // --- 2. checkpoint and bit-exact restart ---------------------------
    println!("\n[2] checkpoint/restart:");
    // Run the first 4 batches only; the report's statepoint captures the
    // source bank and k history at the stop point.
    let partial = run_batches(&problem, &plan, &mut Threaded::ambient(), 0, 4, None);
    let sp = partial.statepoint;
    let path = std::env::temp_dir().join("mcs_production_example.statepoint");
    sp.save(&path).expect("write statepoint");
    println!(
        "    wrote {} after batch {} ({} source sites)",
        path.display(),
        sp.completed_batches,
        sp.source.len()
    );
    let sp = Statepoint::load(&path).expect("read statepoint");
    let resumed = resume_with_problem(&problem, &plan, &mut Threaded::ambient(), &sp).result;
    println!(
        "    resumed k = {:.5} (straight-through k = {:.5}) — bit-exact: {}",
        resumed.k_mean,
        result.k_mean,
        resumed.k_mean == result.k_mean
    );
    assert_eq!(resumed.k_mean, result.k_mean);
    let _ = std::fs::remove_file(path);

    // --- 3. the distributed runtime -------------------------------------
    println!("\n[3] executed MPI-style runtime (4 rank threads, adaptive balancing):");
    let problem = Problem::test_small(); // analog for this one
    let plan = RunPlan {
        particles: 3_000,
        inactive: 2,
        active: 3,
        entropy_mesh: (8, 8, 4),
        policy: PolicySpec::Distributed { ranks: 4 },
        ..RunPlan::default()
    };
    let mut policy = DistributedPolicy::new(4).with_adaptive(true);
    let report = run_with_problem(&problem, &plan, &mut policy).into_eigenvalue();
    for (b, d) in report.result.batches.iter().zip(policy.details()) {
        println!(
            "    batch {} assignments {:?}  k = {:.5}",
            b.index, d.assignments, b.k_track
        );
    }
    println!("    distributed k = {:.5}", report.result.k_mean);
}
