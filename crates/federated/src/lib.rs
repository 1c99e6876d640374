//! The federated-learning substrate of the FedOMD reproduction.
//!
//! Provides the in-process federation simulator — per-party [`ClientData`]
//! built by the Louvain cut, byte-accounted [`CommsLog`], the shared
//! round-loop machinery ([`engine`]) — plus the seven baselines the paper
//! compares against (its Table 4/5): FedMLP, FedProx, SCAFFOLD, LocGCN,
//! FedGCN, FedSage+, and FedLIT. FedOMD itself lives in `fedomd-core`,
//! built on the same machinery.
//!
//! Clients train in parallel on rayon workers inside every communication
//! round; all randomness is derived from the run seed, so a full federated
//! run is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod baselines;
pub mod client;
pub mod comms;
pub mod config;
pub mod engine;
pub mod helpers;
pub mod heterogeneity;
pub mod secure_agg;

pub use client::{
    client_shard, setup_federation, setup_federation_planted, ClientData, FederationConfig,
};
pub use comms::{CommsLog, Direction, TrafficClass};
pub use config::{CohortConfig, CohortConfigError, RoundStats, RunResult, TrainConfig};
pub use engine::{
    run_generic_observed, run_generic_resumable, CheckpointSink, DriverState, GenericOpts,
    ModelKind, Persistence, ResumeState, StatsCache,
};
pub use helpers::UpdateAccumulator;
pub use secure_agg::{
    aggregate_masked, secure_weighted_sum, secure_weighted_sum_frames, MaskingContext,
};
