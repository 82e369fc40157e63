//! Monte Carlo neutron transport engine: history-based and event-based
//! (banking) algorithms over the same physics.
//!
//! This is the OpenMC-equivalent at the heart of the reproduction. The two
//! transport algorithms the paper contrasts are implemented over *shared*
//! physics routines and *per-particle* RNG streams, so they produce
//! identical particle trajectories (verified by tests) while exercising
//! completely different control flow and memory-access structure:
//!
//! * [`history`] — MIMD-style: each particle is tracked birth→death by one
//!   task; parallelism across particles ([`rayon`] stands in for OpenMP).
//! * [`event`] — SIMD-style: all live particles advance together through
//!   staged kernels (XS lookup over the bank, distance sampling over the
//!   bank, movement, collisions), with bank compaction between
//!   generations of events. This is the *full* banking implementation the
//!   paper lists as future work; its XS stage is the vectorized kernel
//!   measured in Fig. 2.
//!
//! Shared infrastructure: [`problem`] assembles cross sections, geometry,
//! materials and optional S(α,β)/URR physics into a [`problem::Problem`];
//! [`eigenvalue`] drives k-effective batch iterations (inactive + active,
//! fission-bank resampling, Shannon entropy); [`tally`] holds the default
//! global tallies (collision, absorption, track-length — the same set the
//! paper tallies); [`balance`] implements the α load-balancing formulas
//! (Eq. 2–3); [`distance`] contains the three Table-I distance-sampling
//! micro-kernels (naive, batch-RNG, batch-RNG + SIMD intrinsics).

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod balance;
pub mod catalog;
pub mod distance;
pub mod eigenvalue;
pub mod engine;
pub mod event;
pub mod fixed_source;
pub mod history;
pub mod mesh;
pub mod particle;
pub mod physics;
pub mod problem;
pub mod spectrum;
pub mod statepoint;
pub mod tally;

pub use eigenvalue::EigenvalueResult;
pub use engine::{
    Algorithm, BatchObserver, BatchProgress, ExecutionPolicy, ModelOverrides, ModelSpec,
    NoProgress, PlanError, PolicySpec, RunMode, RunOutput, RunPlan, RunReport, Serial, Threaded,
};
pub use fixed_source::{FixedSourceResult, FixedSourceSettings, SourceDef};
pub use mcs_geom::{CoreSpec, MaterialRole, RodPattern, TraversalKind};
pub use mesh::{MeshSpec, MeshTally};
pub use particle::{Particle, ParticleBank, Site, SourceSite};
pub use problem::{HmModel, Problem};
pub use spectrum::SpectrumTally;
pub use statepoint::Statepoint;
pub use tally::Tallies;

/// Energy floor (MeV): particles thermalizing below this are terminated
/// (counted as captures).
pub const E_FLOOR: f64 = 1.0e-11;
