//! Merged profiles and report formatting.

use std::collections::HashMap;
use std::time::Duration;

/// Accumulated statistics for one named region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Number of times the region was entered.
    pub calls: u64,
    /// Wall time including children.
    pub inclusive: Duration,
    /// Wall time excluding children.
    pub exclusive: Duration,
}

/// A merged, thread-summed profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    stats: HashMap<&'static str, RegionStats>,
}

impl Profile {
    pub(crate) fn from_stats(stats: HashMap<&'static str, RegionStats>) -> Self {
        Self { stats }
    }

    /// Statistics for one region, if recorded.
    pub fn get(&self, name: &str) -> Option<&RegionStats> {
        self.stats.get(name)
    }

    /// Fold another profile (e.g. another thread's) into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (name, s) in &other.stats {
            let e = self.stats.entry(name).or_default();
            e.calls += s.calls;
            e.inclusive += s.inclusive;
            e.exclusive += s.exclusive;
        }
    }

    /// Regions sorted by descending exclusive time (TAU's default view).
    pub fn sorted_by_exclusive(&self) -> Vec<(&'static str, RegionStats)> {
        let mut v: Vec<_> = self.stats.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by_key(|(_, s)| std::cmp::Reverse(s.exclusive));
        v
    }

    /// Render a TAU-style flat profile table.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== profile: {title} ===\n"));
        out.push_str(&format!(
            "{:<32} {:>10} {:>14} {:>14}\n",
            "region", "calls", "excl (ms)", "incl (ms)"
        ));
        for (name, s) in self.sorted_by_exclusive() {
            out.push_str(&format!(
                "{:<32} {:>10} {:>14.3} {:>14.3}\n",
                name,
                s.calls,
                s.exclusive.as_secs_f64() * 1e3,
                s.inclusive.as_secs_f64() * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(entries: &[(&'static str, u64, u64)]) -> Profile {
        // (name, exclusive_ms, inclusive_ms)
        let mut m = HashMap::new();
        for &(n, e, i) in entries {
            m.insert(
                n,
                RegionStats {
                    calls: 1,
                    exclusive: Duration::from_millis(e),
                    inclusive: Duration::from_millis(i),
                },
            );
        }
        Profile::from_stats(m)
    }

    #[test]
    fn sort_by_exclusive_descends() {
        let p = profile_with(&[("a", 5, 5), ("b", 50, 50), ("c", 1, 1)]);
        let v = p.sorted_by_exclusive();
        assert_eq!(v[0].0, "b");
        assert_eq!(v[2].0, "c");
    }

    #[test]
    fn merge_sums_fields() {
        let mut p = profile_with(&[("a", 5, 10)]);
        p.merge(&profile_with(&[("a", 7, 14), ("b", 1, 1)]));
        let a = p.get("a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.exclusive, Duration::from_millis(12));
        assert_eq!(a.inclusive, Duration::from_millis(24));
        assert!(p.get("b").is_some());
    }

    #[test]
    fn merge_is_associative() {
        let a = profile_with(&[("xs", 5, 10), ("tally", 1, 1)]);
        let b = profile_with(&[("xs", 7, 14), ("geom", 2, 3)]);
        let c = profile_with(&[("geom", 4, 4), ("rng", 9, 9)]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right);
        assert_eq!(left.get("geom").unwrap().calls, 2);
        assert_eq!(left.get("xs").unwrap().exclusive, Duration::from_millis(12));
    }

    #[test]
    fn merge_identity_is_empty_profile() {
        let a = profile_with(&[("xs", 5, 10)]);
        let mut merged = a.clone();
        merged.merge(&Profile::default());
        assert_eq!(merged, a);
    }

    #[test]
    fn sorted_by_exclusive_is_total_descending_order() {
        let p = profile_with(&[("a", 3, 3), ("b", 50, 50), ("c", 1, 1), ("d", 17, 17)]);
        let v = p.sorted_by_exclusive();
        assert_eq!(v.len(), 4);
        for w in v.windows(2) {
            assert!(
                w[0].1.exclusive >= w[1].1.exclusive,
                "{} before {} but {:?} < {:?}",
                w[0].0,
                w[1].0,
                w[0].1.exclusive,
                w[1].1.exclusive
            );
        }
        assert_eq!(v[0].0, "b");
        assert_eq!(v[3].0, "c");
    }

    #[test]
    fn render_contains_regions() {
        let p = profile_with(&[("calculate_xs", 10, 10)]);
        let s = p.render("host");
        assert!(s.contains("calculate_xs"));
        assert!(s.contains("host"));
    }
}
