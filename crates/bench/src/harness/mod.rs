//! The harness registry: every benchmark of the workspace, declared once.
//!
//! A harness is one module: its result [`Table`]s (columns with a
//! [`Kind`] and a print format), a typed `run(scale, verbose)`, a
//! `score` turning the paper's claims into [`CheckOutcome`]s, and a
//! `HARNESS` entry listed in [`HARNESSES`]. Every consumer iterates that
//! list instead of naming harnesses:
//!
//! * `mcs-bench run <name> | --all` runs at `MCS_SCALE`, prints the
//!   report and writes the CSVs and `BENCH_<name>.json` under
//!   [`crate::results_dir`], exiting non-zero on a failed invariant;
//! * `mcs-check` runs everything at a reduced deterministic scale,
//!   gathers the invariants and diffs each table against its golden CSV
//!   with the policy its column kinds imply;
//! * `mcs-bench trend` ingests the `BENCH_*.json` files, whose trend
//!   keys, rates and counters come from the tables' declarations.
//!
//! DESIGN.md ("How to add a benchmark") walks through a new entry.

pub mod device_catalog;
pub mod eigenvalue;
pub mod event_parallel;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod futurework;
pub mod geometry;
pub mod grid_backend;
pub mod invariant;
pub mod kernels;
pub mod serve_load;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table3;

use std::collections::BTreeMap;
use std::path::Path;
use std::{fs, io};

use mcs_prof::{JsonValue, JsonWriteError};

pub use invariant::{check, check_warn, holds, Band, CheckOutcome};
pub use table::{Column, Fmt, Kind, Table, Value};

/// One registered benchmark: everything `mcs-bench run`, `mcs-check`,
/// the trend gate and CI need to know about it.
#[derive(Debug)]
pub struct Harness {
    /// Registry name: `mcs-bench run <name>`, the `bench` tag and
    /// basename of `BENCH_<name>.json`.
    pub name: &'static str,
    /// One-line description, printed as the run header.
    pub title: &'static str,
    /// Names of the tables a run returns — each has a golden
    /// `results/golden/<table>.csv`.
    pub tables: &'static [&'static str],
    /// Run at `scale`; `verbose` prints progress notes. Computes and
    /// scores, never asserts.
    pub run: fn(scale: f64, verbose: bool) -> HarnessRun,
}

/// Every harness, in figure/table order — the only list of benchmarks
/// in the workspace.
pub static HARNESSES: &[Harness] = &[
    fig1::HARNESS,
    fig2::HARNESS,
    fig3::HARNESS,
    fig4::HARNESS,
    fig5::HARNESS,
    fig6::HARNESS,
    fig7::HARNESS,
    fig8::HARNESS,
    table1::HARNESS,
    table2::HARNESS,
    table3::HARNESS,
    futurework::HARNESS,
    eigenvalue::HARNESS,
    grid_backend::HARNESS,
    geometry::HARNESS,
    serve_load::HARNESS,
    device_catalog::HARNESS,
    event_parallel::HARNESS,
    kernels::HARNESS,
];

/// What one harness run produced.
#[derive(Debug, Clone, Default)]
pub struct HarnessRun {
    /// Registry name of the harness (stamped by [`Harness::execute`]).
    pub harness: &'static str,
    /// Scale the harness ran at (stamped by [`Harness::execute`]).
    pub scale: f64,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Scored invariants.
    pub invariants: Vec<CheckOutcome>,
    /// Instrumentation counters the run exports (`xs.*`, `geom.*`), as
    /// `(name, count)`; the trend gate follows them.
    pub counters: Vec<(String, u64)>,
}

impl Harness {
    /// Run the harness and stamp the outcome with its name and scale;
    /// `verbose` also prints the header and the tables.
    pub fn execute(&self, scale: f64, verbose: bool) -> HarnessRun {
        if verbose {
            crate::header(self.title, scale);
        }
        let mut out = (self.run)(scale, verbose);
        out.harness = self.name;
        out.scale = scale;
        for c in &mut out.invariants {
            c.harness = self.name;
        }
        let produced: Vec<&str> = out.tables.iter().map(|t| t.name).collect();
        assert_eq!(
            produced, self.tables,
            "harness {} returned other tables than it declares",
            self.name
        );
        if verbose {
            out.tables.iter().for_each(|t| println!("\n{t}"));
        }
        out
    }
}

impl HarnessRun {
    /// A run's scored invariants and its tables, no exported counters.
    pub fn new(invariants: Vec<CheckOutcome>, tables: Vec<Table>) -> HarnessRun {
        HarnessRun {
            tables,
            invariants,
            ..Default::default()
        }
    }

    /// Invariants out of band, not counting the warn band.
    pub fn failures(&self) -> impl Iterator<Item = &CheckOutcome> {
        self.invariants.iter().filter(|c| !c.passed && !c.warn)
    }

    /// The `BENCH_<harness>.json` document: provenance stamps, the
    /// exported counters, the tables and their trend view.
    pub fn bench_json(&self) -> Result<JsonValue, JsonWriteError> {
        let uints = |pairs: &mut dyn Iterator<Item = (String, u64)>| {
            pairs
                .map(|(k, v)| Ok((k, JsonValue::uint(v.into())?)))
                .collect::<Result<BTreeMap<_, _>, JsonWriteError>>()
                .map(JsonValue::Object)
        };
        let mut rates = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let mut tables = Vec::with_capacity(self.tables.len());
        for t in &self.tables {
            let (r, c) = t.trend_metrics();
            rates.extend(r.into_iter().map(|(k, v)| (k, JsonValue::Num(v))));
            counters.extend(c);
            tables.push(t.to_json()?);
        }
        Ok(JsonValue::object([
            ("bench", JsonValue::Str(self.harness.to_string())),
            ("mcs_scale", JsonValue::Num(self.scale)),
            (
                "host_threads",
                JsonValue::uint(crate::host_threads() as u128)?,
            ),
            ("counters", uints(&mut self.counters.iter().cloned())?),
            (
                "trend",
                JsonValue::object([
                    ("rates", JsonValue::Object(rates)),
                    ("counters", uints(&mut counters.into_iter())?),
                ]),
            ),
            ("tables", JsonValue::Array(tables)),
        ]))
    }

    /// Write `<table>.csv` per table and `BENCH_<harness>.json` under
    /// `dir` (created on demand).
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let json = self
            .bench_json()
            .and_then(|doc| doc.write_pretty())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::create_dir_all(dir)?;
        for t in &self.tables {
            fs::write(dir.join(format!("{}.csv", t.name)), t.to_csv())?;
        }
        fs::write(dir.join(format!("BENCH_{}.json", self.harness)), json)
    }
}

/// `println!` gated on the harness's `verbose` flag.
macro_rules! vprintln {
    ($v:expr, $($t:tt)*) => {
        if $v {
            println!($($t)*);
        }
    };
}
pub(crate) use vprintln;
