//! The federated-learning substrate of the FedOMD reproduction, and the
//! one in-process round every algorithm runs on.
//!
//! Provides the in-process federation simulator — per-party [`ClientData`]
//! built by the Louvain cut, byte-accounted [`CommsLog`] — and Algorithm 1
//! as I/O-free state ([`session`]: a [`ClientSession`] per party and a
//! [`ServerRound`], with the 2-round statistics exchange in [`protocol`]).
//! [`engine::run`] sweeps them in lockstep for every [`Strategy`]: FedOMD,
//! the paper's contribution, and all seven baselines of its Table 4
//! ([`baselines`]: FedMLP, SCAFFOLD, FedProx, LocGCN, FedGCN, FedLIT,
//! FedSage+).
//! `fedomd-core` adds the TCP deployment, run checkpoint files and the
//! `FedRun` builder.
//!
//! Inside every communication round the clients' forward passes, local
//! steps and evaluations run on the machine's cores
//! ([`fedomd_tensor::par`]); all randomness is derived from the run seed
//! and every fold consumes senders in ascending id, so a full federated
//! run is reproducible bit-for-bit at any worker count.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// Tests may match loosely; the library must name every variant it handles.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod baselines;
pub mod client;
pub mod comms;
pub mod config;
pub mod engine;
pub mod helpers;
pub mod protocol;
pub mod session;

pub use baselines::Baseline;
pub use client::{
    client_shard, setup_federation, setup_federation_planted, ClientData, FederationConfig,
};
pub use comms::CommsLog;
pub use config::{
    CohortConfig, CohortConfigError, FedOmdConfig, Flags, RoundStats, RunResult, RunSpec,
    SpecMismatch, TrainConfig,
};
pub use engine::{
    build_fedomd_model, run, CheckpointSink, DriverState, ModelKind, OptimState, Persistence,
    ResumeState, Strategy,
};
pub use helpers::UpdateAccumulator;
pub use session::{ClientSession, EvalCounts, Rejected, ServerRound, StepLosses};
