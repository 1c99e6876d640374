//! `fedomd-net`: the real multi-process deployment of FedOMD.
//!
//! Everything below the algorithm is `std::net` TCP plus the existing
//! `fedomd-transport` frame codec — no async runtime, one OS thread per
//! connection:
//!
//! * [`stream`] — length-prefixed frame I/O over a byte stream (the
//!   prefix is capped by [`fedomd_transport::check_frame_len`] before any
//!   allocation) and the join handshake (protocol version, client id,
//!   the run spec's key/value pairs).
//! * [`server_chan`] / [`client_chan`] — the two halves of the
//!   [`fedomd_transport::Channel`] trait over TCP. Both route every
//!   admit/drop decision through the shared
//!   [`fedomd_transport::admit_by_deadline`] helper, so disconnects and
//!   stragglers degrade a round to partial aggregation exactly as the
//!   in-process fault simulator does.
//! * [`deploy`] — the process entry points: [`serve`] hosts the round
//!   driver (with periodic checkpoints and `--resume`), [`run_client`]
//!   trains one shard and reconnects with backoff when the server is
//!   lost.
//!
//! The `fedomd-server` / `fedomd-client` binaries are thin CLI shells
//! over [`deploy`]; `tests/net_golden.rs` (workspace root) pins that a
//! 3-client loopback run reproduces the in-process accuracy and history.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// Tests may match loosely; the library must name every variant it handles.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod client_chan;
pub mod deploy;
pub mod error;
pub mod server_chan;
pub mod stream;

pub use client_chan::TcpClientChannel;
pub use deploy::{run_client, serve, serve_on, ClientOpts, ClientReport, NetConfig, ServeOpts};
pub use error::NetError;
pub use server_chan::TcpServerChannel;
pub use stream::{read_frame, write_frame, Hello, Welcome, PROTOCOL_VERSION};
