//! Cross-crate integration: machine models driven by real measured
//! transport counts reproduce the paper's headline ratios.

use mcs::cluster::{strong_scaling, weak_scaling, CommModel, NodeSpec};
use mcs::core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs::core::history::batch_streams;
use mcs::core::problem::Problem;
use mcs::core::tally::Tallies;
use mcs::device::native::{shape_of, NativeModel};
use mcs::device::workload::ProblemShape;
use mcs::device::{MachineSpec, SymmetricModel};

fn measured_counts(scale: f64) -> Tallies {
    let problem = Problem::test_small();
    let n = 400;
    let sources = problem.sample_initial_source(n, 0);
    let streams = batch_streams(problem.seed, 0, n);
    let out = transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest::default(),
        &mut Threaded::ambient(),
    )
    .outcome;
    let mut t = out.tallies;
    t.n_particles = (t.n_particles as f64 * scale) as u64;
    t.segments = (t.segments as f64 * scale) as u64;
    t.collisions = (t.collisions as f64 * scale) as u64;
    for i in 0..8 {
        t.segments_by_material[i] = (t.segments_by_material[i] as f64 * scale) as u64;
        t.collisions_by_material[i] = (t.collisions_by_material[i] as f64 * scale) as u64;
    }
    t
}

fn hm_large_shape() -> ProblemShape {
    ProblemShape {
        nuclides_per_material: vec![325, 1, 3],
        union_points: 130_000,
        full_physics: true,
    }
}

#[test]
fn alpha_and_symmetric_pipeline_reproduce_table3_shape() {
    let t = measured_counts(250.0); // ~1e5 particles
    let shape = hm_large_shape();
    let cpu = NativeModel::new(MachineSpec::host_e5_2687w(), Algorithm::History);
    let mic = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::History);
    let r_cpu = cpu.calc_rate(&shape, &t);
    let r_mic = mic.calc_rate(&shape, &t);
    let alpha = r_cpu / r_mic;
    assert!((0.5..0.8).contains(&alpha), "alpha = {alpha:.3}");

    // Table III: balanced CPU+2MIC ≈ 4× CPU-only.
    let m = SymmetricModel::new(&[("cpu", r_cpu), ("mic0", r_mic), ("mic1", r_mic)]);
    let headline = m.balanced_rate(100_000) / r_cpu;
    assert!((3.0..5.5).contains(&headline), "headline = {headline:.2}");
    // Balanced ≥ original, ≤ ideal.
    assert!(m.balanced_rate(100_000) >= m.original_rate(100_000));
    assert!(m.balanced_rate(100_000) <= m.ideal() * (1.0 + 1e-9));
}

#[test]
fn measured_rates_feed_cluster_scaling_with_paper_shapes() {
    let t = measured_counts(250.0);
    let shape = hm_large_shape();
    let r_cpu =
        NativeModel::new(MachineSpec::host_e5_2680(), Algorithm::History).calc_rate(&shape, &t);
    let r_mic =
        NativeModel::new(MachineSpec::mic_se10p(), Algorithm::History).calc_rate(&shape, &t);
    let comm = CommModel::fdr_infiniband();
    let node = NodeSpec::with_one_mic(r_cpu, r_mic);

    let strong = strong_scaling(&node, &[4, 128, 1024], 10_000_000, &comm);
    assert!(
        strong[1].efficiency > 0.90,
        "128-node eff {}",
        strong[1].efficiency
    );
    assert!(
        strong[2].efficiency < strong[1].efficiency,
        "tail must appear"
    );

    let weak = weak_scaling(&node, &[1, 16, 128, 1024], 1_000_000, &comm);
    for p in &weak {
        assert!(
            p.efficiency > 0.93,
            "weak eff {} at {}",
            p.efficiency,
            p.nodes
        );
    }
}

#[test]
fn banked_kind_beats_scalar_kind_on_wide_machines_only_sometimes() {
    // On the MIC, the banked lookups win big; on the narrow host, the win
    // is modest — both directions of the paper's trade-off.
    let t = measured_counts(250.0);
    let shape = ProblemShape {
        full_physics: false,
        ..hm_large_shape()
    };
    let mic_scalar = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::History);
    let mic_banked = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::EventBanking);
    let host_scalar = NativeModel::new(MachineSpec::host_e5_2687w(), Algorithm::History);
    let host_banked = NativeModel::new(MachineSpec::host_e5_2687w(), Algorithm::EventBanking);

    let mic_gain = mic_scalar.batch_time(&shape, &t) / mic_banked.batch_time(&shape, &t);
    let host_gain = host_scalar.batch_time(&shape, &t) / host_banked.batch_time(&shape, &t);
    assert!(mic_gain > 2.0, "mic gain {mic_gain:.2}");
    assert!(host_gain > 1.0, "host gain {host_gain:.2}");
    assert!(
        mic_gain > host_gain,
        "vector width should matter more on the MIC"
    );
}

#[test]
fn offload_breakdown_consistent_with_real_problem_bytes() {
    use mcs::device::OffloadModel;
    let problem = Problem::test_small();
    let shape = shape_of(&problem);
    let model = OffloadModel::jlse();
    let grid_bytes = (problem.xs.index_bytes() + problem.xs.data_bytes()) as f64;
    let b = model.breakdown(&shape, 10_000, grid_bytes);
    assert!(b.bank_bytes > 0.0);
    assert!(b.transfer_bank_s > b.banking_host_s);
    assert!(b.transfer_grid_s > 0.0);
    assert!(b.compute_device_s > 0.0 && b.compute_host_s > 0.0);
}
