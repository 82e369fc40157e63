//! Accelerator machine models — a calibrated multi-device catalog.
//!
//! No Knights Corner hardware exists anymore (and no GPU is attached),
//! so every device "runs" as an analytic timing model driven by *real*
//! instrumented counts from actual kernel executions on the host (the
//! physics always really runs; only the reported device time is
//! modeled). The model is a roofline:
//!
//! ```text
//! t = max( Σ_class counts_class / rate_class(machine),  bytes / bandwidth )
//! ```
//!
//! Rates derive from structural machine parameters (cores, clock, SIMD
//! lanes, issue model, memory bandwidth) plus a small number of
//! *calibrated* constants (per-gather effective costs, in-order penalties
//! on opaque library calls) whose values — and the paper measurements they
//! are calibrated against — are documented on [`spec::MachineSpec`] and in
//! EXPERIMENTS.md.
//!
//! Modules:
//!
//! * [`spec`] — machine descriptions and the op-class timing model.
//! * [`catalog`] — the named device catalog: legacy entries wrapping
//!   the historic constructors bit-identically, plus calibrated
//!   GPU-class entries fitted against published transport rates.
//! * [`pcie`] — the PCIe transfer model (Table II's costs).
//! * [`workload`] — kernel count builders: XS lookups (scalar/banked),
//!   distance-sampling variants, whole-transport segments, particle
//!   banking, and the OpenMC-style bank-size model.
//! * [`native`] — native-mode execution: modeled full-physics calculation
//!   rates for host and device (Fig. 4, Fig. 5, α).
//! * [`offload`] — offload-mode pipeline: bank → transfer → compute →
//!   return (Table II, Fig. 3).
//! * [`symmetric`] — symmetric-mode MPI-style execution with static or
//!   α-balanced particle splits (Table III).

//! ```
//! use mcs_device::{KernelCounts, MachineSpec};
//!
//! // Price 1e9 prefetched vector gathers on the Phi vs the host.
//! let counts = KernelCounts { gather_vector: 1e9, ..Default::default() };
//! let t_mic = MachineSpec::mic_7120a().kernel_time(&counts);
//! let t_host = MachineSpec::host_e5_2687w().kernel_time(&counts);
//! assert!(t_mic < t_host); // bandwidth + vgather favour the coprocessor
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod native;
pub mod offload;
pub mod pcie;
pub mod power;
pub mod spec;
pub mod symmetric;
pub mod workload;

pub use catalog::{Calibration, DeviceClass, DeviceSpec, PowerParams};
pub use native::NativeModel;
pub use offload::{OffloadBreakdown, OffloadModel};
pub use pcie::{PcieBus, TransferError, TransferKind, TransferReport};
pub use power::{EnergyReport, PowerSpec};
pub use spec::{KernelCounts, MachineSpec};
pub use symmetric::SymmetricModel;
