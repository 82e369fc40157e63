//! The one result table every harness emits.
//!
//! A [`Table`] declares, per column, what the values *are* ([`Kind`])
//! and how they print ([`Fmt`]); rows hold typed [`Value`]s. Everything
//! that used to be restated per consumer is a view of that declaration:
//!
//! * [`Table::to_csv`] — `results/<name>.csv`, byte-stable;
//! * its `Display` — the verbose console table;
//! * [`Table::to_json`] — the `tables[]` entry of `BENCH_<harness>.json`;
//! * [`Table::kind_at`] — what the golden comparison in `mcs-check`
//!   turns into an exact / positive / relative-tolerance policy;
//! * [`Table::trend_metrics`] — the `mcs-bench trend` cell keys, rates
//!   and counters.

use std::collections::BTreeMap;

use mcs_prof::{JsonValue, JsonWriteError};

/// Golden tolerance of a [`Kind::Counter`] column. The counts are
/// deterministic per ISA leg, but the scalar CI leg (no
/// `-C target-cpu=native`) may contract floating point differently and
/// shift a transport branch, perturbing them well under 1 %.
pub const COUNTER_TOL: f64 = 0.02;

/// What a column's values are — which fixes how a fresh value is judged
/// against its golden and whether it can be trended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Row identity (bank size, backend, label): byte-exact, and one
    /// segment of the row's trend cell key.
    Key,
    /// Wall-clock measurement on this host: only positivity is stable.
    Measured,
    /// Machine-model pricing or a deterministic float reduction:
    /// agrees with the golden to this relative tolerance.
    Modeled(f64),
    /// Deterministic integer work count: agrees to [`COUNTER_TOL`].
    Counter,
    /// Labels, flags and pure counting with no floating point behind
    /// it: byte-exact.
    Exact,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Key => "key",
            Kind::Measured => "measured",
            Kind::Modeled(_) => "modeled",
            Kind::Counter => "counter",
            Kind::Exact => "exact",
        }
    }
}

/// How a column prints its floats (text and integers print as they are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// `Display`.
    Plain,
    /// `{:.N}`.
    Fixed(usize),
    /// `{:.Ne}`.
    Sci(usize),
}

/// One column declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// CSV header.
    pub name: &'static str,
    /// What the values are.
    pub kind: Kind,
    /// How floats print.
    pub fmt: Fmt,
    /// Key columns: prefix of this column's trend-key segment
    /// (`"b"` turns bank 1000 into `b1000`).
    pub segment: &'static str,
    /// `Some(suffix)` if the column is trended: the metric key is the
    /// row's cell key plus `.suffix` (the bare cell key when empty).
    pub trend: Option<&'static str>,
}

impl Column {
    fn new(name: &'static str, kind: Kind, fmt: Fmt) -> Column {
        Column {
            name,
            kind,
            fmt,
            segment: "",
            trend: None,
        }
    }

    /// A row-identity column.
    pub fn key(name: &'static str) -> Column {
        Column::new(name, Kind::Key, Fmt::Plain)
    }

    /// A host wall-clock measurement.
    pub fn measured(name: &'static str, fmt: Fmt) -> Column {
        Column::new(name, Kind::Measured, fmt)
    }

    /// A modeled value compared at relative tolerance `tol`.
    pub fn modeled(name: &'static str, tol: f64, fmt: Fmt) -> Column {
        Column::new(name, Kind::Modeled(tol), fmt)
    }

    /// A deterministic integer work count.
    pub fn counter(name: &'static str) -> Column {
        Column::new(name, Kind::Counter, Fmt::Plain)
    }

    /// A byte-exact data column.
    pub fn exact(name: &'static str, fmt: Fmt) -> Column {
        Column::new(name, Kind::Exact, fmt)
    }

    /// Prefix this key column's trend-key segment.
    pub fn prefixed(mut self, prefix: &'static str) -> Column {
        self.segment = prefix;
        self
    }

    /// Trend this column: a rate (measured / modeled) under the row's
    /// bare cell key, a count (counter / exact) under `key.<name>`.
    pub fn trended(self) -> Column {
        let suffix = match self.kind {
            Kind::Measured | Kind::Modeled(_) => "",
            _ => self.name,
        };
        self.trended_as(suffix)
    }

    /// Trend this column under `key.<suffix>`.
    pub fn trended_as(mut self, suffix: &'static str) -> Column {
        self.trend = Some(suffix);
        self
    }
}

/// One typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label, a quantity with its unit (`"386.712 ms"`), or a
    /// sentinel (`"N/A"`).
    Text(String),
    /// An integer count or size.
    Int(u64),
    /// A float printed with the column's [`Fmt`].
    Float(f64),
    /// A float printed `{:.N}` whatever the column says (the mixed
    /// tables' rows differ in precision).
    Fixed(f64, usize),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl Value {
    fn render(&self, fmt: Fmt) -> String {
        match (self, fmt) {
            (Value::Text(s), _) => s.clone(),
            (Value::Int(n), _) => n.to_string(),
            (&Value::Fixed(x, d), _) | (&Value::Float(x), Fmt::Fixed(d)) => format!("{x:.d$}"),
            (Value::Float(x), Fmt::Sci(d)) => format!("{x:.d$e}"),
            (Value::Float(x), Fmt::Plain) => x.to_string(),
        }
    }

    fn to_json(&self) -> Result<JsonValue, JsonWriteError> {
        match self {
            Value::Text(s) => Ok(JsonValue::Str(s.clone())),
            Value::Int(n) => JsonValue::uint((*n).into()),
            Value::Float(x) | Value::Fixed(x, _) => Ok(JsonValue::Num(*x)),
        }
    }
}

/// One data row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Kind of this row's non-key cells where it differs from the
    /// columns' (the mixed measured/modeled tables).
    pub kind: Option<Kind>,
    /// One value per column.
    pub cells: Vec<Value>,
}

/// A harness result table — the in-memory form of `results/<name>.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Basename of the CSV (no extension).
    pub name: &'static str,
    /// Trend metric prefix (`"grid"` → `grid.hash.b1000`); `None` for
    /// tables the trend gate does not follow.
    pub trend: Option<&'static str>,
    /// Column declarations.
    pub columns: Vec<Column>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table.
    pub fn new(name: &'static str, columns: Vec<Column>) -> Table {
        Table {
            name,
            trend: None,
            columns,
            rows: Vec::new(),
        }
    }

    /// Follow this table's trended columns under `prefix`.
    pub fn trended(mut self, prefix: &'static str) -> Table {
        self.trend = Some(prefix);
        self
    }

    /// Append a row whose cells have their columns' kinds.
    pub fn push(&mut self, cells: Vec<Value>) {
        self.push_row(None, cells);
    }

    /// Append a row whose non-key cells all have `kind`.
    pub fn push_as(&mut self, kind: Kind, cells: Vec<Value>) {
        self.push_row(Some(kind), cells);
    }

    fn push_row(&mut self, kind: Option<Kind>, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "{}: row width does not match the declared columns",
            self.name
        );
        self.rows.push(Row { kind, cells });
    }

    /// Index of a named column, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The kind the cell at (`row`, `col`) is judged by.
    pub fn kind_at(&self, row: usize, col: usize) -> Kind {
        match (self.columns[col].kind, self.rows[row].kind) {
            (Kind::Key, _) | (_, None) => self.columns[col].kind,
            (_, Some(kind)) => kind,
        }
    }

    /// The printed form of the cell at (`row`, `col`).
    pub fn cell_text(&self, row: usize, col: usize) -> String {
        self.rows[row].cells[col].render(self.columns[col].fmt)
    }

    fn texts(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        (0..self.rows.len()).map(move |r| {
            (0..self.columns.len())
                .map(|c| self.cell_text(r, c))
                .collect()
        })
    }

    fn header(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.name).collect()
    }

    /// The CSV file contents: header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut s = self.header().join(",");
        s.push('\n');
        for row in self.texts() {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }

    /// The trend view: `(rates, counters)` keyed by stable cell IDs.
    /// Empty unless the table is [`Table::trended`].
    pub fn trend_metrics(&self) -> (BTreeMap<String, f64>, BTreeMap<String, u64>) {
        let mut rates = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let Some(prefix) = self.trend else {
            return (rates, counters);
        };
        for (r, row) in self.rows.iter().enumerate() {
            let mut cell_key = prefix.to_string();
            for (c, col) in self.columns.iter().enumerate() {
                if col.kind == Kind::Key {
                    cell_key.push('.');
                    cell_key.push_str(col.segment);
                    cell_key.push_str(&self.cell_text(r, c));
                }
            }
            for (col, value) in self.columns.iter().zip(&row.cells) {
                let Some(suffix) = col.trend else { continue };
                let key = if suffix.is_empty() {
                    cell_key.clone()
                } else {
                    format!("{cell_key}.{suffix}")
                };
                match *value {
                    Value::Int(n) => {
                        counters.insert(key, n);
                    }
                    Value::Float(x) | Value::Fixed(x, _) => {
                        rates.insert(key, x);
                    }
                    Value::Text(_) => {}
                }
            }
        }
        (rates, counters)
    }

    /// The `tables[]` entry of `BENCH_<harness>.json`: the column
    /// declarations and every row as an object keyed by column name.
    pub fn to_json(&self) -> Result<JsonValue, JsonWriteError> {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                JsonValue::object([
                    ("name", JsonValue::Str(c.name.to_string())),
                    ("kind", JsonValue::Str(c.kind.name().to_string())),
                ])
            })
            .collect();
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut cells = BTreeMap::new();
            for (col, value) in self.columns.iter().zip(&row.cells) {
                cells.insert(col.name.to_string(), value.to_json()?);
            }
            rows.push(JsonValue::Object(cells));
        }
        Ok(JsonValue::object([
            ("name", JsonValue::Str(self.name.to_string())),
            ("columns", JsonValue::Array(columns)),
            ("rows", JsonValue::Array(rows)),
        ]))
    }
}

/// The console view: the name, then the columns right-aligned; a long
/// series shows its head and tail only.
impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const HEAD: usize = 16;
        const TAIL: usize = 4;
        let mut rows: Vec<Vec<String>> = self.texts().collect();
        let elided = rows.len().saturating_sub(HEAD + TAIL);
        if elided > 0 {
            rows.drain(HEAD..HEAD + elided);
        }
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                rows.iter()
                    .map(|r| r[c].chars().count())
                    .chain([self.columns[c].name.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let padded: Vec<String> = cells
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            padded.join("  ")
        };
        writeln!(f, "{}:", self.name)?;
        writeln!(f, "{}", line(&mut self.header().into_iter()))?;
        for (i, row) in rows.iter().enumerate() {
            if elided > 0 && i == HEAD {
                writeln!(f, "... {elided} rows ...")?;
            }
            writeln!(f, "{}", line(&mut row.iter().map(String::as_str)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(
            "BENCH_toy",
            vec![
                Column::key("backend"),
                Column::key("bank_size").prefixed("b"),
                Column::measured("rate_measured_per_s", Fmt::Fixed(1)).trended(),
                Column::counter("lookups").trended(),
                Column::modeled("k_track", 1e-9, Fmt::Sci(9)),
                Column::measured("p50_measured_ms", Fmt::Fixed(3)).trended_as("p50_ms"),
            ],
        )
        .trended("toy");
        t.push(vec![
            "hash".into(),
            1000usize.into(),
            332_879.46.into(),
            23_960u64.into(),
            218.626_675.into(),
            Value::Fixed(44.0, 1),
        ]);
        t
    }

    #[test]
    fn csv_uses_the_declared_formats() {
        assert_eq!(
            table().to_csv(),
            "backend,bank_size,rate_measured_per_s,lookups,k_track,p50_measured_ms\n\
             hash,1000,332879.5,23960,2.186266750e2,44.0\n"
        );
    }

    #[test]
    fn trend_keys_join_the_key_columns() {
        let (rates, counters) = table().trend_metrics();
        assert_eq!(rates.get("toy.hash.b1000"), Some(&332_879.46));
        assert_eq!(rates.get("toy.hash.b1000.p50_ms"), Some(&44.0));
        assert_eq!(rates.len(), 2);
        assert_eq!(counters.get("toy.hash.b1000.lookups"), Some(&23_960));
        assert_eq!(counters.len(), 1);

        let mut untrended = table();
        untrended.trend = None;
        assert!(untrended.trend_metrics().0.is_empty());
    }

    #[test]
    fn row_kind_overrides_data_columns_only() {
        let mut t = table();
        let cells = t.rows[0].cells.clone();
        t.push_as(Kind::Modeled(0.02), cells);
        assert_eq!(t.kind_at(0, 2), Kind::Measured);
        assert_eq!(t.kind_at(1, 2), Kind::Modeled(0.02));
        assert_eq!(t.kind_at(1, 0), Kind::Key);
    }

    #[test]
    fn json_rows_are_typed() {
        let v = table().to_json().unwrap();
        let row = &v.get("rows").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(row.get("backend").and_then(JsonValue::as_str), Some("hash"));
        assert_eq!(row.get("lookups").and_then(JsonValue::as_u64), Some(23_960));
        assert_eq!(
            row.get("k_track").and_then(JsonValue::as_f64),
            Some(218.626_675)
        );
        // A NaN cell has no JSON form: the document refuses to write.
        let mut bad = table();
        bad.rows[0].cells[2] = f64::NAN.into();
        assert_eq!(
            bad.to_json().unwrap().write(),
            Err(JsonWriteError::NonFinite)
        );
        bad.rows[0].cells[3] = u64::MAX.into();
        assert_eq!(
            bad.to_json(),
            Err(JsonWriteError::IntegerTooLarge(u64::MAX.into()))
        );
    }
}
