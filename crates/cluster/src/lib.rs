//! Distributed-memory execution model — the Stampede stand-in.
//!
//! Reproduces the paper's §III-B scaling studies (Fig. 6 strong scaling,
//! Fig. 7 weak scaling) with a model whose inputs are *measured*
//! single-rank calculation rates:
//!
//! * [`rank::Rank`] — a host CPU or MIC rank with an affine batch-time
//!   law `t(n) = (n + knee) / nominal_rate`. The `knee` captures Fig. 5's
//!   left side: calculation rates collapse below ~10⁴ particles per rank
//!   because fixed per-batch costs stop amortizing. This single term
//!   produces both the ≈5% strong-scaling loss at 128 nodes and the
//!   1-MIC curve's tail at 1,024 nodes (where Eq. 3 assigns the MIC only
//!   ~6,600 particles and its effective rate — hence α — drifts).
//! * [`comm::CommModel`] — per-batch synchronization: a log-tree latency
//!   term plus fission-bank exchange bandwidth.
//! * [`scaling`] — the strong/weak scaling drivers and efficiency
//!   accounting.

//! ```
//! use mcs_cluster::{strong_scaling, CommModel, NodeSpec};
//!
//! let node = NodeSpec::with_one_mic(3_200.0, 5_900.0);
//! let pts = strong_scaling(&node, &[4, 128], 10_000_000, &CommModel::fdr_infiniband());
//! assert!(pts[1].efficiency > 0.9); // near-perfect to 128 nodes
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod adaptive;
pub mod comm;
pub mod mpi;
pub mod node;
pub mod policy;
pub mod rank;
pub mod scaling;

pub use adaptive::AdaptiveBalancer;
pub use comm::CommModel;
pub use node::NodeSpec;
pub use policy::{DistributedPolicy, RankBatchDetail};
pub use rank::Rank;
pub use scaling::{batch_time_mixed, min_efficiency, strong_scaling, weak_scaling, ScalingPoint};
