//! `mcs-serve`: a deterministic plan-execution service.
//!
//! The repo's signature contract — every [`RunPlan`] yields a
//! `to_bits`-identical result under any execution policy — turns a
//! canonical plan hash into a *perfect* memoization key. This crate
//! exploits that end to end:
//!
//! - [`hash`]: the canonical, policy-excluded plan digest.
//! - [`result`]: [`ServedResult`], the bit-exact (all-integer) cached
//!   result record; `PartialEq` on it *is* the determinism contract.
//! - [`cache`]: the bounded hash-keyed result cache.
//! - [`scheduler`]: in-flight dedupe (identical concurrent plans run
//!   once, every subscriber gets the result), two priority classes,
//!   admission control with typed rejects, per-batch progress fanout,
//!   pause/drain control, and `Arc<Problem>`/`XsContext` sharing
//!   across jobs.
//! - [`protocol`]: the newline-delimited JSON line protocol; malformed
//!   frames decode to typed errors, never panics, and both ends read
//!   lines through one UTF-8-checking [`protocol::read_frame`], capped
//!   on the server's request reads.
//! - [`server`] / [`client`]: the `std::net` TCP front end and the
//!   blocking client used by the tests, the load harness, and the
//!   README example.
//!
//! ```no_run
//! use mcs_core::engine::RunPlan;
//! use mcs_serve::client::Client;
//! use mcs_serve::protocol::Priority;
//! use mcs_serve::scheduler::ServeConfig;
//! use mcs_serve::server::Server;
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let (source, result) = client.run(&RunPlan::default(), Priority::Normal).unwrap();
//! println!("k = {:.5} (served from {})", result.k_mean(), source.keyword());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod protocol;
pub mod result;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError};
pub use hash::{hash_hex, plan_hash};
pub use protocol::{Priority, ProtoError, RejectReason, Request, Response, Source, StatsSnapshot};
pub use result::ServedResult;
pub use scheduler::{Scheduler, ServeConfig, Submission, Subscriber};
pub use server::Server;

#[allow(unused_imports)]
use mcs_core::engine::RunPlan; // rustdoc link target
