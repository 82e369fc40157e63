//! Table I: average times for the distance-sampling micro-benchmark.
//!
//! Paper configuration: `iters = 10⁴`, `N = 10⁷` (10¹¹ total samples);
//! this harness runs a scaled-down measured version on the host (CPU
//! column) and prices the full paper configuration on both machine models
//! (the MODELED table), so the shape — naive ≫ optimized, MIC worst on
//! naive, MIC best on optimized — can be checked at both scales.

use mcs_core::distance::{sample_distances_naive, sample_distances_opt1, sample_distances_opt2};
use mcs_device::catalog;
use mcs_device::workload::{
    distance_naive_per_element, distance_opt1_per_element, distance_opt2_per_element,
};
use mcs_device::MachineSpec;
use mcs_rng::StreamPartition;
use mcs_simd::AVec32;

use super::{
    check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Kind, Table, Value,
};
use crate::{scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "table1",
    title: "Table I: distance-sampling micro-benchmark (d = -ln(r)/Sigma)",
    tables: &["table1_distance_sampling"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r, scale), vec![r.table])
    },
};

/// Typed result of the Table I harness.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Elements per iteration in the measured run (scaled).
    pub n: usize,
    /// Iterations in the measured run (scaled).
    pub iters: usize,
    /// MEASURED naive time on this host (s).
    pub t_naive: f64,
    /// MEASURED optimized-1 time on this host (s).
    pub t_opt1: f64,
    /// MEASURED optimized-2 time on this host (s).
    pub t_opt2: f64,
    /// MODELED paper-scale times on the E5-2687W `[naive, opt1, opt2]`.
    pub cpu_modeled: [f64; 3],
    /// MODELED paper-scale times on the Phi 7120A `[naive, opt1, opt2]`.
    pub mic_modeled: [f64; 3],
    /// The `table1_distance_sampling` table.
    pub table: Table,
}

impl Table1Result {
    /// Measured host speedup of optimized-2 over naive (paper: 1.9×
    /// on 32 CPU threads — here single-core, same shape).
    pub fn opt2_speedup(&self) -> f64 {
        self.t_naive / self.t_opt2
    }

    /// Modeled naive-kernel MIC/CPU slowdown (paper: 20×).
    pub fn naive_mic_over_cpu(&self) -> f64 {
        self.mic_modeled[0] / self.cpu_modeled[0]
    }

    /// Modeled optimized-2 CPU/MIC speedup (paper: 1.9×).
    pub fn opt2_cpu_over_mic(&self) -> f64 {
        self.cpu_modeled[2] / self.mic_modeled[2]
    }
}

/// Table I — distance-sampling kernel optimization. The MEASURED 1.9x
/// only holds once the workload amortizes its fixed overheads, so it is
/// scored at `scale >= 1` only.
pub fn score(r: &Table1Result, scale: f64) -> Vec<CheckOutcome> {
    let mut out = vec![
        check(
            "T1.naive_mic_over_cpu",
            "naive kernel is far slower on the MIC (paper: ~20x, modeled)",
            r.naive_mic_over_cpu(),
            Band::Range { lo: 5.0, hi: 30.0 },
        ),
        check(
            "T1.opt2_cpu_over_mic",
            "optimized-2 kernel flips the ratio: CPU/MIC (paper: 1.9x, modeled)",
            r.opt2_cpu_over_mic(),
            Band::Range { lo: 1.2, hi: 4.0 },
        ),
    ];
    if scale >= 1.0 {
        out.push(check(
            "T1.measured_opt2_speedup",
            "optimized-2 beats naive on this host (full scale only; paper: 1.9x)",
            r.opt2_speedup(),
            Band::AtLeast(1.1),
        ));
    }
    out
}

/// Run the Table I micro-benchmark at `scale`.
pub fn run(scale: f64, verbose: bool) -> Table1Result {
    // ---- measured on this host (scaled) ------------------------------
    let n = scaled_by(1_000_000, scale);
    let iters = scaled_by(20, scale);
    let xs: AVec32 = AVec32::from_slice(
        &(0..n)
            .map(|i| 0.1 + 1.9 * ((i * 37 % n) as f32 / n as f32))
            .collect::<Vec<f32>>(),
    );
    vprintln!(
        verbose,
        "\nMEASURED on this host: N = {n}, iters = {iters}\n"
    );

    let mut out = vec![0.0f32; n];
    let (_, t_naive) = time_it(|| {
        for it in 0..iters {
            sample_distances_naive(xs.as_slice(), &mut out, 1 + it as u32);
        }
    });

    let mut r = vec![0.0f32; n];
    let mut part = StreamPartition::new(7, 8);
    let (_, t_opt1) = time_it(|| {
        for _ in 0..iters {
            sample_distances_opt1(xs.as_slice(), &mut r, &mut out, &mut part);
        }
    });

    let mut r2 = AVec32::zeros(n);
    let mut out2 = AVec32::zeros(n);
    let mut part2 = StreamPartition::new(7, 8);
    let (_, t_opt2) = time_it(|| {
        for _ in 0..iters {
            sample_distances_opt2(&xs, &mut r2, &mut out2, &mut part2);
        }
    });

    // ---- modeled at paper scale --------------------------------------
    let elems = 1e7 * 1e4; // N × iters
    let cpu = catalog::machine("host-e5-2687w");
    let mic = catalog::machine("knc-7120a");
    let price = |spec: &MachineSpec, c: &mcs_device::KernelCounts| {
        spec.kernel_time_ext(&c.scale(elems), true)
    };
    let naive = distance_naive_per_element();
    let opt1 = distance_opt1_per_element();
    let opt2 = distance_opt2_per_element();

    let cpu_row = [price(&cpu, &naive), price(&cpu, &opt1), price(&cpu, &opt2)];
    let mic_row = [price(&mic, &naive), price(&mic, &opt1), price(&mic, &opt2)];
    vprintln!(
        verbose,
        "paper measured, seconds: CPU 412 / 40.6 / 36.6, MIC 8,243 / 21.0 / 18.9"
    );

    // One MEASURED host row, then both machines MODELED at paper scale
    // (N = 1e7, iters = 1e4); all in seconds.
    let mut table = Table::new(
        "table1_distance_sampling",
        vec![
            Column::key("row"),
            Column::measured("naive_s", Fmt::Fixed(4)),
            Column::measured("opt1_s", Fmt::Fixed(4)),
            Column::measured("opt2_s", Fmt::Fixed(4)),
        ],
    );
    table.push(vec![
        "host_measured".into(),
        t_naive.into(),
        t_opt1.into(),
        t_opt2.into(),
    ]);
    for (label, row) in [
        ("cpu_modeled_paper_scale", &cpu_row),
        ("mic_modeled_paper_scale", &mic_row),
    ] {
        let mut cells = vec![label.into()];
        cells.extend(row.iter().map(|&t| Value::Fixed(t, 1)));
        table.push_as(Kind::Modeled(0.02), cells);
    }

    Table1Result {
        n,
        iters,
        t_naive,
        t_opt1,
        t_opt2,
        cpu_modeled: cpu_row,
        mic_modeled: mic_row,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_invariants_gate_on_full_scale() {
        let r = Table1Result {
            n: 100,
            iters: 10,
            t_naive: 1.0,
            t_opt1: 0.9,
            t_opt2: 2.0, // inverted: typical at tiny workloads
            cpu_modeled: [236.2, 33.3, 33.3],
            mic_modeled: [2662.9, 11.8, 11.8],
            table: Table::new("table1_distance_sampling", vec![]),
        };
        let reduced = score(&r, 0.1);
        assert!(reduced.iter().all(|c| c.id != "T1.measured_opt2_speedup"));
        assert!(reduced.iter().all(|c| c.passed));
        let full = score(&r, 1.0);
        let m = full
            .iter()
            .find(|c| c.id == "T1.measured_opt2_speedup")
            .unwrap();
        assert!(
            !m.passed,
            "inverted measured speedup must fail at full scale"
        );
    }
}
