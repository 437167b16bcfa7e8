//! `piccolo-serve`: networked campaigns for the Piccolo reproduction.
//!
//! A campaign's unit grid is a deterministic function of (scale, figure set)
//! — that is what makes `results.json` byte-reproducible, and it is also what
//! makes the grid trivially distributable: any worker that rebuilds the same
//! plan can execute any unit and produce the same canonical bytes. This crate
//! adds the network layer on top of that invariant:
//!
//! - [`protocol`] — the length-prefixed, checksummed TCP frame codec and
//!   message vocabulary shared by both sides;
//! - [`coordinator`] — the daemon ([`Coordinator`]): leases the grid to
//!   workers with heartbeat-based fault tolerance, streams every completed
//!   unit into a resumable journal (an ordinary run journal, which
//!   `repro --merge` reads), evaluates the finished grid, and serves results
//!   over HTTP;
//! - [`worker`] — the execution side ([`run_worker`]): rebuilds the plan from
//!   the coordinator's wire options, verifies the hash, and streams unit
//!   results back as they complete.
//!
//! The binaries (`piccolo-serve`, `piccolo-worker`) are thin drivers over
//! these modules and share their flag surface with `repro`/`bench`/`graphtool`
//! via [`piccolo_bench::cli`].
//!
//! End to end, a networked campaign with any number of workers — including
//! workers that die mid-lease — produces `results.json` byte-identical to a
//! local `repro --jobs 1` run, and a restarted coordinator resumes from its
//! journal without re-executing a single completed unit.

#![forbid(unsafe_code)]

pub mod coordinator;
mod http;
pub mod protocol;
pub mod worker;

pub use coordinator::{CampaignOutcome, Coordinator, CoordinatorConfig};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};
