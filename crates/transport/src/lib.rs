//! `fedomd-transport`: the wire protocol and channel layer that federated
//! rounds run over.
//!
//! Three layers, bottom up:
//!
//! * [`wire`] — little-endian primitive codec ([`wire::ByteWriter`],
//!   [`wire::ByteReader`]) and the CRC-32 checksum.
//! * [`frame`] — the message layer: [`frame::Envelope`] (round + sender +
//!   [`frame::Payload`]) and its checksummed frame encoding. Payloads
//!   cover the whole FedOMD round vocabulary: `WeightUpdate`,
//!   `StatsRound1`, `StatsRound2`, `GlobalModel`, `GlobalStats`, and
//!   `Control`.
//! * [`channel`] — the [`Channel`] trait moving envelopes between server
//!   and clients, with two implementations that move envelopes without
//!   encoding them: [`InProcChannel`] (plain queues, fault-free,
//!   bit-identical to direct calls) and
//!   [`SimNetChannel`] (virtual-time fault simulation: drops, latency,
//!   jitter, stragglers, retry with exponential backoff, and a per-round
//!   deadline that degrades rounds to partial aggregation).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// Tests may match loosely; the library must name every variant it handles.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod channel;
pub mod frame;
pub mod inproc;
pub mod simnet;
pub mod wire;

pub use channel::{admit_by_deadline, Channel, LostFrame};
pub use frame::{
    check_frame_len, from_tensors, to_tensors, Control, Envelope, Payload, Tensor,
    DEFAULT_MAX_FRAME_BYTES, SERVER_SENDER,
};
pub use inproc::InProcChannel;
pub use simnet::{FaultConfig, SimNetChannel};
pub use wire::WireError;
