//! The benchmark harnesses and their shared plumbing.
//!
//! Every entry of [`harness::HARNESSES`] regenerates one evaluation
//! artifact of the paper or one ablation sweep. Conventions:
//!
//! * results are typed tables, printed and written as CSV plus one
//!   `BENCH_<name>.json` under [`results_dir`];
//! * every run is headed by hardware provenance (the host's real SIMD
//!   features) and every column is declared MEASURED or MODELED —
//!   measured numbers come from real kernel executions on this host,
//!   modeled numbers from the calibrated machine model in `mcs-device`;
//! * `MCS_SCALE` (a positive float, default 1) scales particle/lookup
//!   counts, so `MCS_SCALE=10 mcs-bench run fig5` approaches paper
//!   scale on a beefier machine.

#![warn(missing_docs)]

pub mod harness;
pub mod trend;

use std::path::{Path, PathBuf};
use std::time::Instant;

use mcs_simd::feature::SimdFeatures;

/// Where result files go: `MCS_RESULTS_DIR`, else `results/` at the
/// workspace root (whatever the CWD — `cargo test` runs in the package
/// directory).
pub fn results_dir() -> PathBuf {
    match std::env::var_os("MCS_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => workspace_root().join("results"),
    }
}

/// The workspace root this crate was built in.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Workload scale factor from `MCS_SCALE`, or `default` when unset.
/// A value that is not a positive finite number is an error naming the
/// variable, never a silent fallback.
pub fn scale_from_env(default: f64) -> Result<f64, String> {
    let Ok(text) = std::env::var("MCS_SCALE") else {
        return Ok(default);
    };
    match text.trim().parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(format!(
            "MCS_SCALE={text:?} is not a positive number (e.g. MCS_SCALE=0.1)"
        )),
    }
}

/// Hardware threads available to this process (1 if unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scale a nominal count by `scale`, with a floor of 1.
pub fn scaled_by(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

/// Print the standard experiment header.
pub fn header(title: &str, scale: f64) {
    println!("==============================================================");
    println!("{title}");
    println!("host: {}", SimdFeatures::detect().summary());
    println!("scale factor: {scale}");
    println!("==============================================================");
}

/// Time a closure, returning (result, seconds).
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// Log-spaced probe energies over the data range, for lookup workloads.
pub fn log_energies(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = mcs_rng::Philox4x32::new(seed);
    let lo = mcs_xs::E_MIN.ln();
    let hi = mcs_xs::E_MAX.ln();
    (0..n)
        .map(|_| (lo + (hi - lo) * rng.next_uniform()).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_has_floor() {
        assert_eq!(scaled_by(1, 0.001), 1);
    }

    #[test]
    fn log_energies_in_range() {
        let es = log_energies(100, 1);
        assert_eq!(es.len(), 100);
        assert!(es
            .iter()
            .all(|&e| (mcs_xs::E_MIN..=mcs_xs::E_MAX).contains(&e)));
    }

    #[test]
    fn fmt_secs_units() {
        assert!(fmt_secs(2.0).ends_with(" s"));
        assert!(fmt_secs(2e-3).ends_with(" ms"));
        assert!(fmt_secs(2e-6).ends_with(" µs"));
    }
}
