//! TAU-like instrumentation for the transport engine.
//!
//! The paper attributes time to routines (`calculate_xs()` and friends)
//! with the TAU parallel performance system, then compares host and MIC
//! profiles side by side (Fig. 4). This crate provides the same mechanics:
//!
//! * [`ThreadProfiler`] — a per-thread timer with a region stack, so both
//!   *inclusive* and *exclusive* times are attributed correctly when
//!   regions nest (e.g. `calculate_xs` inside `transport_history`).
//! * [`Profile`] — merged statistics across threads, sorted reports.
//!
//! Instrumentation is intentionally coarse-grained (whole routines, not
//! inner loops); a start/stop pair costs two `Instant::now()` calls.

//! ```
//! use mcs_prof::ThreadProfiler;
//!
//! let prof = ThreadProfiler::new();
//! {
//!     let _outer = prof.enter("transport");
//!     let _inner = prof.enter("calculate_xs");
//! }
//! let profile = prof.finish();
//! assert_eq!(profile.get("calculate_xs").unwrap().calls, 1);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod report;
pub mod timer;
pub mod value;

pub use counters::Counters;
pub use report::{Profile, RegionStats};
pub use timer::{RegionGuard, ThreadProfiler};
pub use value::{JsonValue, JsonWriteError};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_regions_attribute_exclusive_time() {
        let tp = ThreadProfiler::new();
        {
            let _outer = tp.enter("outer");
            std::thread::sleep(Duration::from_millis(20));
            {
                let _inner = tp.enter("inner");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let p = tp.finish();
        let outer = p.get("outer").unwrap();
        let inner = p.get("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.inclusive >= inner.inclusive);
        // Outer's exclusive time should be ~20ms, roughly half its
        // inclusive time; allow broad scheduling slack.
        assert!(outer.exclusive < outer.inclusive);
        assert!(outer.exclusive.as_millis() >= 10);
    }

    #[test]
    fn merged_profiles_sum_calls() {
        let a = ThreadProfiler::new();
        {
            let _g = a.enter("xs");
        }
        let b = ThreadProfiler::new();
        {
            let _g = b.enter("xs");
        }
        {
            let _g = b.enter("xs");
        }
        let mut p = a.finish();
        p.merge(&b.finish());
        assert_eq!(p.get("xs").unwrap().calls, 3);
    }
}
