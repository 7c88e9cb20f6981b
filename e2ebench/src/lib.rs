//! End-to-end and per-layer benchmark of the allocation service
//! (`mvrobust serve`) and the parallel executor (`mvsim::par`).
//!
//! Every workload runs the same pipeline: a durable server is loaded
//! and driven over one closed-loop binary connection, crashed and
//! recovered, its served levels are checked against the offline
//! optimum, and `ParEngine` then executes a job list at exactly those
//! levels. The workload decides where the run's time goes. See
//! `README.md` for the workloads and metrics.

pub mod exec;
pub mod gen;
pub mod layers;
pub mod run;
pub mod serve;
pub mod stats;
pub mod svc;
