//! Bandwidth-roofline estimates per benchmark cell.
//!
//! Absolute rates in the trend history are host-specific; the roofline
//! column makes them interpretable across hosts by normalizing each
//! cell against a bandwidth ceiling: the deterministic gather-traffic
//! counters (`xs.gather_span_bytes` per lookup/particle) priced against
//! the [`MachineSpec`] DRAM bandwidth parameter. A cell reporting 4% of
//! roofline on one machine and 4% on another is behaving the same even
//! if the raw rates differ 10×.
//!
//! The traffic model is the *span-priced* gather distance, an upper
//! bound on the DRAM lines a perfectly cold cache would move — so
//! percent-of-roofline can exceed 100 when the cache absorbs the spans
//! (that is a finding, not an error: it means the working set fits).
//! Cells with zero priced traffic (the per-nuclide binary backend keeps
//! no index) have no bandwidth ceiling and are skipped.

use mcs_device::MachineSpec;
use mcs_prof::JsonValue;

use super::ingest::Ingested;

/// One benchmark cell's percent-of-roofline estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineCell {
    /// Which benchmark the cell belongs to.
    pub benchmark: &'static str,
    /// Stable cell ID (matches the rate metric key).
    pub cell: String,
    /// Unit of the measured rate.
    pub unit: &'static str,
    /// Measured throughput of the cell.
    pub measured_rate: f64,
    /// Estimated DRAM traffic per operation (span-priced bytes).
    pub bytes_per_op: f64,
    /// Bandwidth ceiling: ops/s if the kernel were purely memory-bound.
    pub roofline_rate: f64,
    /// `100 × measured / roofline` (may exceed 100 when caches absorb
    /// the priced spans).
    pub pct_of_roofline: f64,
}

fn cell(
    benchmark: &'static str,
    id: String,
    unit: &'static str,
    rate: f64,
    bytes_per_op: f64,
    spec: &MachineSpec,
) -> Option<RooflineCell> {
    if bytes_per_op <= 0.0 || !bytes_per_op.is_finite() || rate <= 0.0 {
        return None;
    }
    let roofline = spec.roofline_ops_per_s(bytes_per_op);
    Some(RooflineCell {
        benchmark,
        cell: id,
        unit,
        measured_rate: rate,
        bytes_per_op,
        roofline_rate: roofline,
        pct_of_roofline: rate / roofline * 100.0,
    })
}

/// One `BENCH_event_queueing` row, as far as the estimate needs it.
struct EqCell<'a> {
    backend: &'a str,
    mode: &'a str,
    bank: u64,
    rate: f64,
    lookups: u64,
    gather_span_bytes: u64,
}

fn eq_cells(ing: &Ingested) -> Vec<EqCell<'_>> {
    let rows = ing.tables.get("BENCH_event_queueing");
    rows.into_iter()
        .flatten()
        .filter_map(|r| {
            Some(EqCell {
                backend: r.get("backend")?.as_str()?,
                mode: r.get("mode")?.as_str()?,
                bank: r.get("bank_size")?.as_u64()?,
                rate: r.get("particles_measured_per_s")?.as_f64()?,
                lookups: r.get("lookups")?.as_u64()?,
                gather_span_bytes: r.get("gather_span_bytes")?.as_u64()?,
            })
        })
        .collect()
}

/// Estimate percent-of-roofline for every cell with priced traffic.
///
/// Event-queueing cells carry their own span counters. Grid-backend
/// cells reuse the per-lookup traffic of the *same backend's*
/// unqueued (`off`) event-queueing cell at the largest bank — the
/// closest deterministic measurement of what one lookup of that
/// backend moves.
pub fn estimate(ing: &Ingested, spec: &MachineSpec) -> Vec<RooflineCell> {
    let mut out = Vec::new();
    let eq = eq_cells(ing);

    // Event-queueing: bytes per particle, directly from the cell.
    for c in &eq {
        let bytes_per_particle = c.gather_span_bytes as f64 / (c.bank as f64).max(1.0);
        out.extend(cell(
            "event_queueing",
            format!("eq.{}.{}.b{}", c.backend, c.mode, c.bank),
            "particles/s",
            c.rate,
            bytes_per_particle,
            spec,
        ));
    }

    // Grid-backend: bytes per lookup, borrowed from the same backend's
    // unqueued event-queueing cell at the largest bank.
    for g in ing.tables.get("BENCH_grid_backend").into_iter().flatten() {
        let backend = g.get("backend").and_then(JsonValue::as_str);
        let bank = g.get("bank_size").and_then(JsonValue::as_u64);
        let rate = g.get("lookups_measured_per_s").and_then(JsonValue::as_f64);
        let (Some(backend), Some(bank), Some(rate)) = (backend, bank, rate) else {
            continue;
        };
        let donor = eq
            .iter()
            .filter(|c| c.backend == backend && c.mode == "off" && c.lookups > 0)
            .max_by_key(|c| c.bank);
        let Some(donor) = donor else { continue };
        let bytes_per_lookup = donor.gather_span_bytes as f64 / donor.lookups as f64;
        out.extend(cell(
            "grid_backend",
            format!("grid.{backend}.b{bank}"),
            "lookups/s",
            rate,
            bytes_per_lookup,
            spec,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(members: &[(&str, JsonValue)]) -> JsonValue {
        JsonValue::object(members.iter().cloned())
    }

    fn eq_row(backend: &str, lookups: f64, span_bytes: f64) -> JsonValue {
        row(&[
            ("backend", JsonValue::Str(backend.into())),
            ("mode", JsonValue::Str("off".into())),
            ("bank_size", JsonValue::Num(10_000.0)),
            ("particles_measured_per_s", JsonValue::Num(27_532.0)),
            ("lookups", JsonValue::Num(lookups)),
            ("gather_span_bytes", JsonValue::Num(span_bytes)),
        ])
    }

    fn grid_row(backend: &str, rate: f64) -> JsonValue {
        row(&[
            ("backend", JsonValue::Str(backend.into())),
            ("bank_size", JsonValue::Num(100_000.0)),
            ("lookups_measured_per_s", JsonValue::Num(rate)),
        ])
    }

    fn ing() -> Ingested {
        let mut ing = Ingested {
            mcs_scale: 1.0,
            host_threads: 4,
            ..Default::default()
        };
        ing.tables.insert(
            "BENCH_event_queueing".into(),
            vec![
                eq_row("hash", 585_733.0, 11_600_000.0),
                // no index ⇒ no priced traffic
                eq_row("binary", 585_733.0, 0.0),
            ],
        );
        ing.tables.insert(
            "BENCH_grid_backend".into(),
            vec![grid_row("hash", 896_429.9), grid_row("binary", 486_363.1)],
        );
        ing
    }

    #[test]
    fn prices_cells_against_bandwidth() {
        let spec = MachineSpec::trend_reference_host();
        let cells = estimate(&ing(), &spec);
        // Both the eq hash cell and the grid hash cell appear; the
        // binary cells (zero priced traffic) are skipped.
        let eq = cells
            .iter()
            .find(|c| c.cell == "eq.hash.off.b10000")
            .expect("eq hash cell");
        assert_eq!(eq.benchmark, "event_queueing");
        // 11.6 MB / 10k particles = 1160 B/particle; 20 GB/s / 1160 B
        // ≈ 1.724e7 particles/s ceiling.
        assert!((eq.bytes_per_op - 1160.0).abs() < 1e-9);
        assert!((eq.roofline_rate - 20e9 / 1160.0).abs() < 1.0);
        assert!(eq.pct_of_roofline > 0.0 && eq.pct_of_roofline < 100.0);

        let grid = cells
            .iter()
            .find(|c| c.cell == "grid.hash.b100000")
            .expect("grid hash cell");
        // Donor traffic: 11.6e6 / 585733 ≈ 19.8 B/lookup.
        assert!((grid.bytes_per_op - 11_600_000.0 / 585_733.0).abs() < 1e-9);
        assert!(grid.pct_of_roofline > 0.0);

        assert!(!cells.iter().any(|c| c.cell.contains("binary")));
    }

    #[test]
    fn bandwidth_override_scales_percent() {
        let mut fast = MachineSpec::trend_reference_host();
        fast.dram_gb_s *= 2.0;
        let slow_cells = estimate(&ing(), &MachineSpec::trend_reference_host());
        let fast_cells = estimate(&ing(), &fast);
        // Doubling the ceiling halves percent-of-roofline.
        let ratio = slow_cells[0].pct_of_roofline / fast_cells[0].pct_of_roofline;
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
