//! Ablation: AoS vs SoA nuclide-data layout for the banked lookup — the
//! paper's "most important" MIC optimization (§III-A1).

use criterion::{criterion_group, criterion_main, Criterion};
use mcs_bench::log_energies;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_xs::AosLibrary;

fn bench(c: &mut Criterion) {
    let cfg = ProblemConfig {
        enable_sab: false,
        enable_urr: false,
        ..Default::default()
    };
    let problem = Problem::hm(HmModel::Small, &cfg);
    let fuel = &problem.materials[0];
    let aos = AosLibrary::build(problem.xs.lib());
    let energies = log_energies(256, 11);

    let mut g = c.benchmark_group("data_layout");
    g.sample_size(20);
    g.bench_function("aos_scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &e in &energies {
                acc += problem.xs.macro_xs_aos(&aos, fuel, e).total;
            }
            acc
        })
    });
    g.bench_function("soa_scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &e in &energies {
                acc += problem.xs.macro_xs(fuel, e).total;
            }
            acc
        })
    });
    g.bench_function("soa_simd", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &e in &energies {
                acc += problem.xs.macro_xs_simd(fuel, e).total;
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
