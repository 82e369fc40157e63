//! Per-thread scoped timers with a region stack.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::report::{Profile, RegionStats};

struct Frame {
    name: &'static str,
    start: Instant,
    /// Total inclusive time of direct children, subtracted to get this
    /// frame's exclusive time.
    child_time: Duration,
}

struct Inner {
    stack: Vec<Frame>,
    stats: HashMap<&'static str, RegionStats>,
}

/// A per-thread profiler. Create one per worker, instrument with
/// [`ThreadProfiler::enter`], and [`ThreadProfiler::finish`] into a
/// [`Profile`] to merge with other threads.
pub struct ThreadProfiler {
    inner: RefCell<Inner>,
}

impl Default for ThreadProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadProfiler {
    /// Fresh profiler with no recorded regions.
    pub fn new() -> Self {
        Self {
            inner: RefCell::new(Inner {
                stack: Vec::with_capacity(8),
                stats: HashMap::new(),
            }),
        }
    }

    /// Enter a named region; the region ends when the returned guard drops.
    ///
    /// Regions may nest. Direct recursion is attributed like TAU's default:
    /// each activation adds its full inclusive time, so a recursive
    /// region's inclusive time can exceed wall time.
    #[inline]
    pub fn enter(&self, name: &'static str) -> RegionGuard<'_> {
        self.inner.borrow_mut().stack.push(Frame {
            name,
            start: Instant::now(),
            child_time: Duration::ZERO,
        });
        RegionGuard { profiler: self }
    }

    fn exit(&self) {
        let now = Instant::now();
        let mut inner = self.inner.borrow_mut();
        let frame = inner
            .stack
            .pop()
            .expect("RegionGuard dropped with empty stack");
        let elapsed = now.duration_since(frame.start);
        let exclusive = elapsed.saturating_sub(frame.child_time);
        let entry = inner.stats.entry(frame.name).or_default();
        entry.calls += 1;
        entry.inclusive += elapsed;
        entry.exclusive += exclusive;
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_time += elapsed;
        }
    }

    /// Consume the profiler, producing its merged [`Profile`].
    ///
    /// Panics if any region guard is still alive.
    pub fn finish(self) -> Profile {
        let inner = self.inner.into_inner();
        assert!(
            inner.stack.is_empty(),
            "ThreadProfiler::finish called with {} open region(s)",
            inner.stack.len()
        );
        Profile::from_stats(inner.stats)
    }
}

/// RAII guard for an open region; closing happens on drop.
pub struct RegionGuard<'p> {
    profiler: &'p ThreadProfiler,
}

impl Drop for RegionGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.profiler.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profiler_finishes_empty() {
        let p = ThreadProfiler::new().finish();
        assert_eq!(p, Profile::default());
    }

    #[test]
    fn sequential_regions_accumulate_calls() {
        let tp = ThreadProfiler::new();
        for _ in 0..5 {
            let _g = tp.enter("r");
        }
        let p = tp.finish();
        assert_eq!(p.get("r").unwrap().calls, 5);
    }

    #[test]
    fn exclusive_never_exceeds_inclusive() {
        let tp = ThreadProfiler::new();
        {
            let _a = tp.enter("a");
            {
                let _b = tp.enter("b");
                {
                    let _c = tp.enter("c");
                }
            }
        }
        let p = tp.finish();
        for (_, s) in p.sorted_by_exclusive() {
            assert!(s.exclusive <= s.inclusive);
        }
    }

    #[test]
    #[should_panic(expected = "open region")]
    fn finish_with_open_region_panics() {
        let tp = ThreadProfiler::new();
        let g = tp.enter("oops");
        // Leak the guard so it never closes, then finish.
        std::mem::forget(g);
        let _ = tp.finish();
    }
}
