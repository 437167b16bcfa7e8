//! Command-level DRAM timing and energy simulator with the Piccolo-FIM extension.
//!
//! This crate is the off-chip half of the Piccolo reproduction. It plays the role that
//! Ramulator plays in the paper's evaluation, extended with:
//!
//! * **Piccolo-FIM** (Section IV/VI): in-bank random scatter/gather driven by per-bank
//!   offset/data buffers, commanded through virtual rows so only standard DDR commands
//!   appear on the bus, with the internal operation hidden under the
//!   `tWR + tRP + tRCD` gap;
//! * an **NMP** memory-side model (rank-level scatter/gather in a buffer chip) and a
//!   **PIM** model (near-bank Process/Reduce/Apply) used by the paper's baselines;
//! * per-command **energy accounting** and a **timing-legality checker** standing in for
//!   the paper's FPGA protocol validation.
//!
//! # Example
//!
//! ```
//! use piccolo_dram::{DramConfig, MemorySystem, MemRequest, Region};
//!
//! let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16().with_fim());
//! let batch = mem.service_batch((0..64u64).map(|i| MemRequest::read(i * 64, Region::Other)));
//! assert!(batch.elapsed_clocks() > 0);
//! assert_eq!(mem.stats().read_transactions, 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod config;
pub mod energy;
pub mod request;
pub mod stats;
pub mod system;
pub mod verify;

pub use address::{AddressMapper, Location, RowId};
pub use config::{DramConfig, FimConfig, MemoryKind, Organization, Timing};
pub use energy::{dram_energy, DramEnergy, EnergyParams};
pub use request::{MemRequest, Region};
pub use stats::MemStats;
pub use system::{BatchResult, CommandKind, CommandRecord, MemorySystem};
pub use verify::{check_trace, Violation};

#[cfg(test)]
mod send_audit {
    //! Parallel sweeps (`piccolo::sweep`) own one `MemorySystem` per run and ship it to
    //! a worker thread. These assertions fail to compile if the DRAM model grows shared
    //! mutability (`Rc`, `RefCell`, raw pointers) instead of per-run ownership.
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn memory_system_state_is_send() {
        assert_send::<MemorySystem>();
        assert_send::<DramConfig>();
        assert_send::<MemStats>();
        assert_send::<BatchResult>();
        assert_send::<Vec<MemRequest>>();
        assert_sync::<DramConfig>();
        assert_sync::<AddressMapper>();
    }
}
