//! A many-core architectural simulator for computational sprinting.
//!
//! This crate implements the simulation methodology of *Computational
//! Sprinting* (Raghavan et al., HPCA 2012, Section 8.1): in-order cores
//! with a CPI of one plus cache miss penalties, private 32 KB 8-way L1
//! caches, a shared 4 MB 16-way LLC with 20-cycle hits and a co-located
//! full-map directory (invalidation-based coherence), and a dual-channel
//! memory interface (4 GB/s per channel, 60 ns uncontended round trip).
//! A McPAT-derived per-instruction energy model attributes ≈ 1 nJ/cycle to
//! an active 1 GHz core; PAUSE puts a core to sleep for 1000 cycles at 10%
//! of active power.
//!
//! Workloads are *trace-emitting kernels* (see [`program::Kernel`]): real
//! algorithm implementations that compute natively while emitting the
//! instruction/address stream the timing model consumes.
//!
//! # Quick start
//!
//! ```
//! use sprint_archsim::config::MachineConfig;
//! use sprint_archsim::machine::Machine;
//! use sprint_archsim::program::SyntheticKernel;
//!
//! let mut machine = Machine::new(MachineConfig::hpca().with_cores(4));
//! for t in 0..4u64 {
//!     machine.spawn(Box::new(SyntheticKernel::new(8, 1_000, (t + 1) << 24, 64)));
//! }
//! let report = machine.run_to_completion(1_000_000, 100_000);
//! assert!(report.all_done);
//! println!("energy: {:.3} mJ", machine.stats().dynamic_energy_j * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dvfs;
pub mod energy;
pub mod isa;
pub mod llc;
pub mod machine;
pub mod memctl;
pub mod memmap;
pub mod program;
pub mod stats;
pub mod sync;

pub use config::{CacheConfig, MachineConfig, MemoryConfig};
pub use dvfs::OperatingPoint;
pub use energy::EnergyModel;
pub use isa::{Op, OpClass};
pub use machine::{Machine, WindowReport};
pub use memmap::{AddressSpace, Region};
pub use program::{FnKernel, Inbox, Kernel, KernelStatus, SyntheticKernel, TaskFetch, ThreadId};
pub use stats::Stats;
