//! Kernel micro-benchmarks: the paper's side-by-side kernel timings
//! that no other harness has as rows.
//!
//! One group per ablation, one row per variant:
//!
//! * `layout` — AoS vs SoA nuclide data, scalar vs SIMD nuclide loop
//!   ("the most important optimisation", §III-A1);
//! * `axis` — vectorizing the inner (nuclide) loop vs the outer
//!   (particle) loop of the banked lookup (§III-A1: the inner loop wins);
//! * `rng` — per-call `rand_r` / LCG vs batched counter-based fills
//!   (Table I's first optimization, in isolation);
//! * `transcendental` — libm `ln` vs the slice `vln` / `vexp` kernels;
//! * `representation` — pointwise union-grid lookup vs multipole
//!   evaluation (§IV-B: memory-bound traded for compute-bound);
//! * `tally` — one history batch with no tally, a mesh tally, an energy
//!   spectrum (§III-B1: α differs between inactive and active batches).
//!
//! Every column is MEASURED on this host except `checksum`: the `layout`
//! and `axis` variants evaluate the same function on the same inputs, so
//! their result sums must agree (`KN.checksums`) and are goldened.
//!
//! Timing follows Fig. 2: after one warm-up pass the variants of a group
//! run interleaved five times and each reports its median, so the ratio
//! invariants compare kernels that sampled the same epochs of machine
//! state.

use mcs_core::engine::{transport_batch, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::mesh::MeshSpec;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_multipole::{rsbench_driver, MultipoleLibrary, MultipoleSpec};
use mcs_rng::{Lcg63, NaiveRandR, StreamPartition};
use mcs_simd::math::{vexp_slice, vln_slice};
use mcs_xs::{AosLibrary, MacroXs};

use super::{
    check, check_warn, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table, Value,
};
use crate::{log_energies, scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "kernels",
    title: "Kernel micro-benchmarks: layout, axis, rng, transcendental, representation, tally",
    tables: &["kernels_micro"],
    run: |scale, _verbose| {
        let r = run(scale);
        HarnessRun::new(score(&r, crate::host_threads()), vec![r.table])
    },
};

/// One timed kernel variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRow {
    /// Ablation the variant belongs to.
    pub group: &'static str,
    /// Variant label, unique within its group.
    pub variant: &'static str,
    /// Elements (lookups, samples, particles) one timed pass processes.
    pub elems: usize,
    /// MEASURED median seconds per pass.
    pub seconds: f64,
    /// Sum of the results, for the groups whose variants must agree.
    pub checksum: Option<f64>,
}

impl KernelRow {
    /// MEASURED elements per second.
    pub fn rate(&self) -> f64 {
        self.elems as f64 / self.seconds
    }
}

/// Typed result of the kernels harness.
#[derive(Debug, Clone)]
pub struct KernelsResult {
    /// Rows in group, then variant, declaration order.
    pub rows: Vec<KernelRow>,
    /// The `kernels_micro` table.
    pub table: Table,
}

impl KernelsResult {
    /// Rate of `fast` over rate of `slow`, both variants of `group`.
    fn ratio(&self, group: &str, fast: &str, slow: &str) -> f64 {
        let rate = |variant: &str| {
            self.rows
                .iter()
                .find(|r| r.group == group && r.variant == variant)
                .map_or(f64::NAN, KernelRow::rate)
        };
        rate(fast) / rate(slow)
    }

    /// Worst relative disagreement of a checksum with the first one of
    /// its group.
    fn worst_checksum_rel_err(&self) -> f64 {
        let mut worst = 0.0f64;
        for (i, row) in self.rows.iter().enumerate() {
            let reference = self.rows[..i]
                .iter()
                .find(|r| r.group == row.group)
                .and_then(|r| r.checksum);
            if let (Some(a), Some(b)) = (reference, row.checksum) {
                worst = worst.max(((a - b) / a).abs());
            }
        }
        worst
    }
}

/// What the kernel timings must satisfy on any host. The paper's three
/// MIC orderings (SoA+SIMD over AoS, inner over outer loop, batched RNG
/// over `rand_r`) are *rows* here, not invariants: an out-of-order x86
/// host inverts all three (EXPERIMENTS.md, "Kernel micro-benchmarks").
/// What does hold, and is scored, is that vectorizing never loses to the
/// scalar loop over the same data. Like `F2.banked_ge_history_host`, the
/// two ratios gate only where the trend gate would
/// ([`crate::trend::rate_gate_warn_only`]) and are reported on the warn
/// band elsewhere.
pub fn score(r: &KernelsResult, host_threads: usize) -> Vec<CheckOutcome> {
    let host_ratio = if crate::trend::rate_gate_warn_only(host_threads) {
        check_warn
    } else {
        check
    };
    vec![
        check(
            "KN.checksums",
            "variants of one lookup group agree (worst relative error)",
            r.worst_checksum_rel_err(),
            Band::AtMost(1e-10),
        ),
        host_ratio(
            "KN.soa_simd_ge_scalar",
            "on SoA data the SIMD nuclide loop at least matches the scalar one",
            r.ratio("layout", "soa_simd", "soa_scalar"),
            Band::AtLeast(0.95),
        ),
        host_ratio(
            "KN.simd_axes_ge_scalar",
            "the slower of inner- and outer-loop SIMD at least matches the scalar bank loop",
            r.ratio("axis", "inner_simd", "scalar")
                .min(r.ratio("axis", "outer_simd", "scalar")),
            Band::AtLeast(0.95),
        ),
    ]
}

/// One variant of a group: its label and the kernel, which works in
/// the group's shared scratch buffer and returns the sum (or any
/// element) of what it computed.
type Variant<'a, S> = (&'static str, &'a mut dyn FnMut(&mut S) -> f64);

/// Time the variants of one group: one warm-up pass, then five
/// interleaved passes, median per variant. The last returned value is
/// kept as the row's checksum when `checked`.
fn measure<S>(
    rows: &mut Vec<KernelRow>,
    group: &'static str,
    elems: usize,
    checked: bool,
    scratch: &mut S,
    variants: &mut [Variant<'_, S>],
) {
    const REPS: usize = 5;
    let mut sums = vec![0.0; variants.len()];
    let mut times = vec![Vec::with_capacity(REPS); variants.len()];
    for rep in 0..=REPS {
        for (k, (_, kernel)) in variants.iter_mut().enumerate() {
            let (sum, t) = time_it(|| std::hint::black_box(kernel(scratch)));
            sums[k] = sum;
            if rep > 0 {
                times[k].push(t);
            }
        }
    }
    for (k, (variant, _)) in variants.iter().enumerate() {
        times[k].sort_by(f64::total_cmp);
        rows.push(KernelRow {
            group,
            variant,
            elems,
            seconds: times[k][REPS / 2],
            checksum: checked.then_some(sums[k]),
        });
    }
}

/// Run every kernel group at `scale`.
pub fn run(scale: f64) -> KernelsResult {
    let mut rows = Vec::new();

    // S(α,β)/URR removed, as in the paper's lookup micro-benchmark.
    let cfg = ProblemConfig {
        enable_sab: false,
        enable_urr: false,
        ..Default::default()
    };
    let problem = Problem::hm(HmModel::Small, &cfg);
    let xs = &problem.xs;
    let fuel = &problem.materials[0];

    let n = scaled_by(100_000, scale);
    let energies = log_energies(n, 0xAB1A);
    let aos = AosLibrary::build(xs.lib());
    measure(
        &mut rows,
        "layout",
        n,
        true,
        &mut (),
        &mut [
            ("aos_scalar", &mut |_| {
                let lookup = |&e| xs.macro_xs_aos(&aos, fuel, e).total;
                energies.iter().map(lookup).sum()
            }),
            ("soa_scalar", &mut |_| {
                energies.iter().map(|&e| xs.macro_xs(fuel, e).total).sum()
            }),
            ("soa_simd", &mut |_| {
                let lookup = |&e| xs.macro_xs_simd(fuel, e).total;
                energies.iter().map(lookup).sum()
            }),
        ],
    );

    let total = |out: &[MacroXs]| out.iter().map(|x| x.total).sum::<f64>();
    measure(
        &mut rows,
        "axis",
        n,
        true,
        &mut vec![MacroXs::default(); n],
        &mut [
            ("scalar", &mut |out| {
                xs.batch_macro_xs_seq(fuel, &energies, out);
                total(out)
            }),
            ("inner_simd", &mut |out| {
                xs.batch_macro_xs_simd(fuel, &energies, out);
                total(out)
            }),
            ("outer_simd", &mut |out| {
                xs.batch_macro_xs_outer_simd(fuel, &energies, out);
                total(out)
            }),
        ],
    );

    // The two multipole layouts hold the same physical poles (the fixed
    // one pads windows with zero-residue poles), as in Fig. 8.
    let spec = MultipoleSpec::rsbench_like();
    let mp_var = MultipoleLibrary::build(&spec);
    let max_poles = mp_var
        .nuclides
        .iter()
        .map(|nuc| nuc.max_poles_per_window())
        .max()
        .expect("the rsbench-like library has nuclides");
    let mp_fix = MultipoleLibrary::build(&spec.with_fixed_poles(max_poles));
    measure(
        &mut rows,
        "representation",
        n,
        false,
        &mut (),
        &mut [
            ("pointwise_union", &mut |_| {
                energies.iter().map(|&e| xs.macro_xs(fuel, e).total).sum()
            }),
            ("multipole_original", &mut |_| {
                rsbench_driver(&mp_var, n, 42, false)
            }),
            ("multipole_vectorized", &mut |_| {
                rsbench_driver(&mp_fix, n, 42, true)
            }),
        ],
    );

    let n = scaled_by(1_000_000, scale);
    let mut rand_r = NaiveRandR::new(1);
    let mut lcg = Lcg63::new(1);
    let mut philox_1 = StreamPartition::new(1, 1);
    let mut philox_8 = StreamPartition::new(1, 8);
    let mut buf = vec![0.0f32; n];
    measure(
        &mut rows,
        "rng",
        n,
        false,
        &mut buf,
        &mut [
            ("rand_r", &mut |buf| {
                buf.iter_mut().for_each(|v| *v = rand_r.next_uniform_f32());
                buf[n - 1].into()
            }),
            ("lcg63", &mut |buf| {
                buf.iter_mut().for_each(|v| *v = lcg.next_uniform() as f32);
                buf[n - 1].into()
            }),
            ("philox_1", &mut |buf| {
                philox_1.fill_f32(buf);
                buf[n - 1].into()
            }),
            ("philox_8", &mut |buf| {
                philox_8.fill_f32(buf);
                buf[n - 1].into()
            }),
        ],
    );

    let input: Vec<f32> = (0..n).map(|i| 1e-4 + (i % 4093) as f32 / 4093.0).collect();
    measure(
        &mut rows,
        "transcendental",
        n,
        false,
        &mut buf,
        &mut [
            ("libm_ln", &mut |buf| {
                for (o, &x) in buf.iter_mut().zip(&input) {
                    *o = x.ln();
                }
                buf[n - 1].into()
            }),
            ("vln_slice", &mut |buf| {
                vln_slice(&input, buf);
                buf[n - 1].into()
            }),
            ("vexp_slice", &mut |buf| {
                vexp_slice(&input, buf);
                buf[n - 1].into()
            }),
        ],
    );

    let n = scaled_by(1_000, scale);
    let test = Problem::test_small();
    let sources = test.sample_initial_source(n, 0);
    let streams = batch_streams(test.seed, 0, n);
    let mesh = MeshSpec::covering(test.geometry.bounds, 17, 17, 8);
    let batch = |mesh: Option<MeshSpec>, spectrum: bool| {
        let req = BatchRequest {
            mesh,
            spectrum,
            ..BatchRequest::default()
        };
        let out = transport_batch(&test, &sources, &streams, &req, &mut Threaded::ambient());
        out.outcome.tallies.collisions as f64
    };
    measure(
        &mut rows,
        "tally",
        n,
        false,
        &mut (),
        &mut [
            ("none", &mut |_| batch(None, false)),
            ("mesh", &mut |_| batch(Some(mesh), false)),
            ("spectrum", &mut |_| batch(None, true)),
        ],
    );

    let mut table = Table::new(
        "kernels_micro",
        vec![
            Column::key("group"),
            Column::key("variant"),
            Column::exact("elems", Fmt::Plain),
            Column::measured("ns_per_elem", Fmt::Fixed(3)),
            Column::measured("elems_measured_per_s", Fmt::Fixed(1)).trended(),
            Column::modeled("checksum", 1e-9, Fmt::Sci(12)),
        ],
    )
    .trended("kernels");
    for row in &rows {
        table.push(vec![
            row.group.into(),
            row.variant.into(),
            row.elems.into(),
            (1e9 * row.seconds / row.elems as f64).into(),
            row.rate().into(),
            row.checksum.map_or("N/A".into(), Value::from),
        ]);
    }
    KernelsResult { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(group: &'static str, variant: &'static str, seconds: f64, sum: f64) -> KernelRow {
        KernelRow {
            group,
            variant,
            elems: 1_000,
            seconds,
            checksum: Some(sum),
        }
    }

    fn healthy() -> KernelsResult {
        KernelsResult {
            rows: vec![
                row("layout", "aos_scalar", 0.7, 5.0),
                row("layout", "soa_scalar", 1.0, 5.0),
                row("layout", "soa_simd", 0.9, 5.0),
                row("axis", "scalar", 1.0, 7.0),
                row("axis", "inner_simd", 0.9, 7.0),
                row("axis", "outer_simd", 0.7, 7.0),
            ],
            table: Table::new("kernels_micro", vec![]),
        }
    }

    fn failed(r: &KernelsResult, host_threads: usize) -> Vec<&'static str> {
        score(r, host_threads)
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.id)
            .collect()
    }

    #[test]
    fn each_invariant_can_fail() {
        assert!(failed(&healthy(), 4).is_empty());

        // One variant of a lookup group drifts by 1e-6 relative.
        let mut r = healthy();
        r.rows[2].checksum = Some(5.0 * (1.0 + 1e-6));
        assert_eq!(failed(&r, 4), ["KN.checksums"]);

        // The SIMD nuclide loop falls 20 % behind the scalar one.
        let mut r = healthy();
        r.rows[2].seconds = 1.25;
        assert_eq!(failed(&r, 4), ["KN.soa_simd_ge_scalar"]);

        // Either vectorization axis falling behind the scalar bank loop
        // fails the slower-of-both ratio.
        for slow in [4, 5] {
            let mut r = healthy();
            r.rows[slow].seconds = 1.25;
            assert_eq!(failed(&r, 4), ["KN.simd_axes_ge_scalar"]);
        }

        // A missing variant is a NaN ratio, which no band admits.
        let mut r = healthy();
        r.rows.remove(2);
        assert_eq!(failed(&r, 4), ["KN.soa_simd_ge_scalar"]);
    }

    #[test]
    fn ratios_warn_on_a_single_threaded_host_and_checksums_still_gate() {
        let mut r = healthy();
        r.rows[2].seconds = 1.25;
        r.rows[4].checksum = Some(8.0);
        let outcomes = score(&r, 1);
        let gating: Vec<_> = outcomes
            .iter()
            .filter(|c| !c.passed && !c.warn)
            .map(|c| c.id)
            .collect();
        assert_eq!(gating, ["KN.checksums"]);
        assert!(outcomes
            .iter()
            .any(|c| c.id == "KN.soa_simd_ge_scalar" && !c.passed && c.warn));
    }
}
