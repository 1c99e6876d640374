//! **FedOMD** — the paper's contribution: graph federated learning with
//! center moment constraints (ICPP Workshops '24).
//!
//! Each client trains an orthogonal GCN ([`fedomd_nn::OrthoGcn`], the
//! paper's Table 1) whose objective (Eq. 12) combines
//!
//! * the local cross-entropy,
//! * `α ·` the orthogonality penalty `Σ_k ‖W_k W_kᵀ − I‖_F` (Eq. 6), and
//! * `β ·` the CMD distance (Eq. 11) between the client's hidden feature
//!   distribution and the global i.i.d. distribution the server assembles,
//!
//! where the global distribution is obtained *implicitly* through the
//! 2-round statistics exchange of Algorithm 1 ([`protocol`]): round one
//! ships per-layer activation means, round two ships central moments of
//! orders 2..=5 computed about the returned global mean. Weights are then
//! aggregated with FedAvg.
//!
//! The algorithm itself — the session halves, the statistics protocol and
//! the in-process round — lives in `fedomd-federated`, where the seven
//! baselines run on the same round; this crate re-exports it and adds what
//! only FedOMD runs: the TCP server and client drivers, the run-checkpoint
//! file and the [`FedRun`] builder.
//!
//! ```no_run
//! use fedomd_core::{FedRun, RunConfig};
//! use fedomd_data::{generate, spec, DatasetName};
//! use fedomd_federated::{setup_federation, FederationConfig};
//!
//! let ds = generate(&spec(DatasetName::CoraMini), 0);
//! let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
//! let result = FedRun::new(&clients, ds.n_classes)
//!     .config(RunConfig::mini(0))
//!     .run();
//! println!("test accuracy: {:.2}%", 100.0 * result.test_acc);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// Tests may match loosely; the library must name every variant it handles.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod client_loop;
pub mod run;
pub mod run_checkpoint;
pub mod server;

// Algorithm 1's session halves, the statistics protocol and FedOMD's
// configuration live in `fedomd-federated`, next to the one in-process
// round; their `fedomd_core::` paths stay.
pub use fedomd_federated::{config, protocol, session};

pub use client_loop::{run_fedomd_client_rounds, ClientOutcome};
pub use fedomd_federated::protocol::{
    build_targets, client_means, client_moments_about, GlobalStats, MeanAccumulator,
    MomentAccumulator,
};
pub use fedomd_federated::{
    build_fedomd_model, helpers::AGG_LANES, ClientSession, EvalCounts, FedOmdConfig, Rejected,
    ServerRound, StepLosses,
};
pub use run::{FedRun, RunConfig};
pub use run_checkpoint::{CheckpointError, FileCheckpointer, RunCheckpoint};
pub use server::{drive_phase_fold, run_fedomd_server};
