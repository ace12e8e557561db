//! The repository benchmark (see `main.rs` for the command line).
//!
//! Four workloads drive the public API the way a user or the service
//! calls it; a separate traced run times the calls into each layer and
//! prints them as a ledger, each layer next to the one beneath it.

pub mod check;
pub mod domain;
pub mod host;
pub mod ledger;
pub mod oocwl;
pub mod planwl;
pub mod report;
pub mod rng;
pub mod servewl;
pub mod stats;
pub mod workloads;
