//! The [`Channel`] abstraction: how envelopes move between the federated
//! server and its clients.
//!
//! The training loops are lockstep simulations (all clients advance one
//! round per iteration), so the channel API mirrors that shape: clients
//! [`upload`](Channel::upload), the server
//! [`server_collect`](Channel::server_collect)s whatever actually arrived,
//! the server [`download`](Channel::download)s, and each client
//! [`client_collect`](Channel::client_collect)s. A channel moves
//! [`Envelope`]s; only one that writes to a socket turns them into frame
//! bytes. Every byte count — what the drivers report sent, what a
//! transport lists lost — is [`Envelope::encoded_len`], the exact size of
//! the frame [`Envelope::encode`] would write, so the accounting is the
//! same whether or not the frame is ever materialised. Faults surface as
//! *missing envelopes*, each also listed once by [`Channel::drain_lost`],
//! never as panics, so the round logic can degrade to partial aggregation.

use crate::frame::Envelope;

/// A frame a transport discarded: its payload kind and encoded size.
pub type LostFrame = (&'static str, u64);

/// A bidirectional star topology between one server and `n` clients.
pub trait Channel {
    /// Client `env.sender` uploads to the server.
    fn upload(&mut self, env: Envelope);

    /// Server gathers this round's uploads. Under faults a subset of
    /// clients may be missing; the result is sorted by sender id so
    /// downstream aggregation order is deterministic.
    fn server_collect(&mut self, round: u64) -> Vec<Envelope>;

    /// The blocking half of a server phase: the caller (the round
    /// driver's collector, which owns the *when does a phase close*
    /// rule) names the senders it is still `missing`, and the transport
    /// returns as soon as at least one round-`round` upload is in hand —
    /// from anyone, named or not; sorting frames into phases is the
    /// caller's job. An empty batch ends the wait: none of the `missing`
    /// senders is live for the round any more, or the transport's
    /// deadline passed. Lockstep in-process channels have neither
    /// liveness nor a clock, so the default is the plain collect —
    /// everything queued, and empty once drained.
    fn server_await(&mut self, round: u64, missing: &[u32]) -> Vec<Envelope> {
        let _ = missing;
        self.server_collect(round)
    }

    /// Server sends `env` to client `to`.
    fn download(&mut self, to: u32, env: Envelope);

    /// Server sends the same `env` to every client in `to`, in the given
    /// order. The default clones through [`Channel::download`]; a
    /// transport that writes to sockets overrides it to encode the frame
    /// once per broadcast instead of once per peer, which matters when the
    /// payload is a multi-megabyte global model.
    fn download_many(&mut self, to: &[u32], env: Envelope) {
        for &id in to {
            self.download(id, env.clone());
        }
    }

    /// Client `id` gathers the frames addressed to it for `round`; empty
    /// when everything addressed to it was dropped.
    fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope>;

    /// The frames this transport discarded since the last call, in the
    /// order it gave up on them: every retry lost, past the deadline, a
    /// stale connection's, or written to a peer that is gone. A driver
    /// reports each as one `FrameDropped`, right after the collect that
    /// answered for it. The default is empty: a lockstep in-process
    /// channel never loses a frame.
    fn drain_lost(&mut self) -> Vec<LostFrame> {
        Vec::new()
    }
}

/// Splits arrival-stamped items at a phase deadline: in-time items are
/// delivered, late ones are appended to `lost` (as `frame_of` describes
/// them) and discarded — the single code path that turns stragglers into
/// partial aggregation.
///
/// Both the virtual-time [`crate::SimNetChannel`] and the wall-clock TCP
/// channels (`fedomd-net`) route every admit/drop decision through here, so
/// "a frame that misses its phase deadline is dropped, and reported lost"
/// means exactly the same thing on both transports. `arrival_ms` is
/// milliseconds since the phase opened (virtual or real); `f64::INFINITY`
/// marks a frame known to be late regardless of the deadline (e.g. one
/// that surfaced after its round already closed).
pub fn admit_by_deadline<T>(
    pending: Vec<(f64, T)>,
    deadline_ms: f64,
    lost: &mut Vec<LostFrame>,
    frame_of: impl Fn(&T) -> LostFrame,
) -> Vec<T> {
    let mut in_time = Vec::new();
    for (arrival, item) in pending {
        if arrival <= deadline_ms {
            in_time.push(item);
        } else {
            lost.push(frame_of(&item));
        }
    }
    in_time
}

/// Keeps the envelopes stamped with `round`, sorted by sender (stable, so
/// one sender's frames keep their send order).
pub(crate) fn of_round(envs: impl IntoIterator<Item = Envelope>, round: u64) -> Vec<Envelope> {
    let mut out: Vec<Envelope> = envs.into_iter().filter(|env| env.round == round).collect();
    out.sort_by_key(|env| env.sender);
    out
}
