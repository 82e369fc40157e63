//! Scored invariants: the paper's quantitative claims as values
//! checked against allowed bands.
//!
//! Each harness module scores its own typed result with a `check`
//! function returning [`CheckOutcome`]s. Scoring never asserts or
//! panics on a violation — turning a failed outcome into an exit code
//! is the runners' job (`mcs-bench run`, `mcs-check`), and the tests'
//! way of proving a deliberate perturbation flips it.
//!
//! Invariant IDs are stable (`F2.mic_over_e5`, `T3.headline`, ...);
//! EXPERIMENTS.md's "continuously verified" column cites them.

/// Allowed band for a scalar invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `lo <= value <= hi`.
    Range {
        /// Lower bound, inclusive.
        lo: f64,
        /// Upper bound, inclusive.
        hi: f64,
    },
    /// `value >= lo`.
    AtLeast(f64),
    /// `value <= hi`.
    AtMost(f64),
    /// Boolean predicate; `value` is 1.0 (holds) or 0.0 (violated).
    Holds,
}

impl Band {
    /// Whether `v` lies in the band (never true for NaN).
    pub fn admits(&self, v: f64) -> bool {
        match *self {
            Band::Range { lo, hi } => v >= lo && v <= hi,
            Band::AtLeast(lo) => v >= lo,
            Band::AtMost(hi) => v <= hi,
            Band::Holds => v == 1.0,
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Band::Range { lo, hi } => write!(f, "[{lo}, {hi}]"),
            Band::AtLeast(lo) => write!(f, ">= {lo}"),
            Band::AtMost(hi) => write!(f, "<= {hi}"),
            Band::Holds => write!(f, "holds"),
        }
    }
}

/// One checked invariant: the measured value against its allowed band.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Stable invariant ID, e.g. `F2.mic_over_e5` (also the key
    /// EXPERIMENTS.md's "continuously verified" column cites).
    pub id: &'static str,
    /// Registry name of the harness that produced the value; stamped
    /// by [`Harness::execute`](super::Harness::execute).
    pub harness: &'static str,
    /// Human-readable claim being checked.
    pub description: &'static str,
    /// Measured/derived value.
    pub value: f64,
    /// Allowed band.
    pub band: Band,
    /// `band.admits(value)`.
    pub passed: bool,
    /// Warn-band outcome: a violation is *reported* but does not gate
    /// the run (used where the measurement is known-unstable, e.g. the
    /// F2 host kernel ratio on a single-core runner).
    pub warn: bool,
}

/// One report line: verdict, id, value and band, plus the claim and its
/// harness when it does not hold.
impl std::fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match (self.passed, self.warn) {
            (true, _) => "PASS",
            (false, true) => "WARN",
            (false, false) => "FAIL",
        };
        write!(
            f,
            "{verdict} {:<28} value {:<12.6} band {}",
            self.id, self.value, self.band
        )?;
        if !self.passed {
            write!(f, "\n       {}: {}", self.harness, self.description)?;
        }
        Ok(())
    }
}

/// Build an outcome, evaluating the band.
pub fn check(id: &'static str, description: &'static str, value: f64, band: Band) -> CheckOutcome {
    CheckOutcome {
        id,
        harness: "",
        description,
        value,
        band,
        passed: band.admits(value),
        warn: false,
    }
}

/// Build an outcome on the warn band: scored and reported exactly like
/// [`check`], but a violation does not fail the run (the runners print
/// `WARN` instead of `FAIL`).
pub fn check_warn(
    id: &'static str,
    description: &'static str,
    value: f64,
    band: Band,
) -> CheckOutcome {
    CheckOutcome {
        warn: true,
        ..check(id, description, value, band)
    }
}

/// 1.0 if `p` holds, else 0.0 — the value of a [`Band::Holds`] invariant.
pub fn holds(p: bool) -> f64 {
    if p {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_admit_and_reject() {
        assert!(Band::Range { lo: 8.0, hi: 12.0 }.admits(9.6));
        assert!(!Band::Range { lo: 8.0, hi: 12.0 }.admits(13.0));
        assert!(Band::AtLeast(0.94).admits(0.97));
        assert!(!Band::AtLeast(0.94).admits(0.5));
        assert!(Band::AtMost(1e-9).admits(0.0));
        assert!(!Band::AtMost(1e-9).admits(1e-3));
        assert!(Band::Holds.admits(1.0));
        assert!(!Band::Holds.admits(0.0));
    }
}
