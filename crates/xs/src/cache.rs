//! Process-wide cache of constructed [`XsContext`] data.
//!
//! Grid-index construction (unionized index maps in particular) dominates
//! setup time for the H.M. models, and both mcs-check and the bench
//! harnesses build the *same* library + backend combination many times per
//! process — once per invariant step, once per ablation cell. This module
//! memoizes the fully assembled context keyed by `(model hash, backend
//! kind)` so identical indices are built exactly once.
//!
//! Callers receive a *clone* of the cached context: [`XsContext`]'s
//! `Clone` shares the heavyweight data (library, layouts, grid index)
//! behind one inner `Arc` and resets the instrumentation atomics, so the
//! clone is O(1), a process holds one copy of each index, and every
//! problem still keeps independent counters.
//!
//! The cache is bounded: a small FIFO of recently built models. Eviction
//! only drops the cache's own handle; outstanding clones are unaffected.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::context::{GridBackendKind, XsContext};
use crate::library::{LibrarySpec, NuclideLibrary};

/// Cache capacity: distinct `(model, backend)` cells kept alive. The full
/// ablation sweep uses 2 models × 3 backends = 6 cells.
const CAPACITY: usize = 6;

struct ContextCache {
    map: HashMap<(u64, GridBackendKind), XsContext>,
    /// Insertion order for FIFO eviction.
    order: Vec<(u64, GridBackendKind)>,
}

fn cache() -> &'static Mutex<ContextCache> {
    static CACHE: OnceLock<Mutex<ContextCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(ContextCache {
            map: HashMap::new(),
            order: Vec::new(),
        })
    })
}

impl LibrarySpec {
    /// Stable hash of every field that determines the built library (and
    /// hence the grid indices). Floats hash via `to_bits`, so two specs
    /// collide iff [`NuclideLibrary::build`] would produce identical data.
    pub fn cache_key(&self) -> u64 {
        // FNV-1a over the field bits: no_std-simple, stable across runs.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.n_fuel_nuclides as u64);
        mix(self.grid_density.to_bits());
        mix(self.fuel_temperature_k.to_bits());
        mix(self.seed);
        h
    }
}

/// Fetch (or build and cache) the context for `(key, kind)`, returning a
/// counter-fresh clone. `build` runs only on a miss, outside the cache
/// lock, so concurrent misses on *different* cells build in parallel.
/// (Concurrent misses on the same cell may race to build; the first insert
/// wins and the loser's work is dropped — correctness is unaffected
/// because builds are deterministic in the key.)
pub fn context_for(
    key: u64,
    kind: GridBackendKind,
    build: impl FnOnce() -> NuclideLibrary,
) -> XsContext {
    if let Some(hit) = cache().lock().unwrap().map.get(&(key, kind)) {
        return hit.clone();
    }
    let built = XsContext::new(build(), kind);
    let out = built.clone();
    let mut c = cache().lock().unwrap();
    if !c.map.contains_key(&(key, kind)) {
        if c.order.len() >= CAPACITY {
            let oldest = c.order.remove(0);
            c.map.remove(&oldest);
        }
        c.order.push((key, kind));
        c.map.insert((key, kind), built);
    }
    out
}

/// Fetch (or build and cache) the context for a [`LibrarySpec`] — the
/// common entry point: key derivation and library construction both come
/// from the spec.
pub fn context_for_spec(spec: &LibrarySpec, kind: GridBackendKind) -> XsContext {
    context_for(spec.cache_key(), kind, || NuclideLibrary::build(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;

    #[test]
    fn cache_key_separates_specs_and_is_stable() {
        let a = LibrarySpec::tiny();
        assert_eq!(a.cache_key(), LibrarySpec::tiny().cache_key());
        assert_ne!(a.cache_key(), LibrarySpec::hm_small().cache_key());
        assert_ne!(
            a.cache_key(),
            LibrarySpec::tiny().with_grid_density(2.0).cache_key()
        );
        assert_ne!(
            a.cache_key(),
            LibrarySpec::tiny().with_fuel_temperature(900.0).cache_key()
        );
        let reseeded = LibrarySpec {
            seed: 43,
            ..LibrarySpec::tiny()
        };
        assert_ne!(a.cache_key(), reseeded.cache_key());
    }

    #[test]
    fn cached_contexts_share_data_but_not_counters() {
        let spec = LibrarySpec::tiny();
        let a = context_for_spec(&spec, GridBackendKind::HashBinned);
        let fuel = Material::hm_fuel(a.lib());
        a.macro_xs(&fuel, 1.0e-3);
        assert!(a.lookups() > 0);
        // A second fetch is a cache hit with fresh counters and
        // bit-identical data.
        let b = context_for_spec(&spec, GridBackendKind::HashBinned);
        assert!(
            b.shares_data_with(&a),
            "a cache hit must not copy the index"
        );
        assert_eq!(b.lookups(), 0);
        let xa = a.macro_xs(&fuel, 2.0e-6);
        let xb = b.macro_xs(&fuel, 2.0e-6);
        assert_eq!(xa.total.to_bits(), xb.total.to_bits());
    }

    #[test]
    fn distinct_backends_occupy_distinct_cells() {
        let spec = LibrarySpec::tiny();
        let u = context_for_spec(&spec, GridBackendKind::Unionized);
        let h = context_for_spec(&spec, GridBackendKind::HashBinned);
        assert_ne!(u.backend_kind(), h.backend_kind());
    }
}
