//! [`ObservedChannel`]: a transparent [`Channel`] wrapper that turns
//! wire activity into [`RoundEvent`]s.
//!
//! The wrapper delegates every call unchanged — byte counts, envelope
//! contents, and fault behaviour are exactly the inner channel's, which is
//! what keeps telemetry-on runs bit-identical to telemetry-off runs — and
//! buffers the events it derives instead of holding the observer itself,
//! so the run loop keeps a single `&mut` to its observer and drains the
//! buffer at phase boundaries with [`ObservedChannel::flush_into`].
//!
//! Drop detection is positional: an upload whose sender is missing from
//! the next `server_collect`, or a download whose addressee collects fewer
//! frames than were sent to it, is reported as [`RoundEvent::FrameDropped`]
//! with the *sent* frame's kind and size. This works for any `Channel`
//! impl (in-process or simulated) without the transport layer knowing
//! telemetry exists.

use fedomd_transport::{Channel, ChannelState, Envelope, NetStats};

use crate::event::RoundEvent;
use crate::observer::RoundObserver;

/// A `Channel` adapter emitting `FrameSent` / `FrameDropped` events.
pub struct ObservedChannel<'a> {
    inner: &'a mut dyn Channel,
    events: Vec<RoundEvent>,
    /// Uploads not yet matched against a `server_collect`: (sender, kind,
    /// frame bytes).
    pending_up: Vec<(u32, &'static str, u64)>,
    /// Downloads not yet matched against a `client_collect`: (addressee,
    /// kind, frame bytes).
    pending_down: Vec<(u32, &'static str, u64)>,
}

impl<'a> ObservedChannel<'a> {
    /// Wraps `inner`; events accumulate until flushed.
    pub fn new(inner: &'a mut dyn Channel) -> Self {
        Self {
            inner,
            events: Vec::new(),
            pending_up: Vec::new(),
            pending_down: Vec::new(),
        }
    }

    /// Drains the buffered events into `obs`, in wire order.
    pub fn flush_into(&mut self, obs: &mut dyn RoundObserver) {
        for ev in self.events.drain(..) {
            obs.on_event(&ev);
        }
    }

    /// Buffered events not yet flushed (test hook).
    pub fn pending_events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// Reports every pending upload whose sender is absent from `envs`
    /// (the collect answering for it) as dropped.
    fn match_uploads(&mut self, envs: &[Envelope]) {
        for (sender, kind, bytes) in self.pending_up.drain(..) {
            if !envs.iter().any(|e| e.sender == sender) {
                self.events.push(RoundEvent::FrameDropped { kind, bytes });
            }
        }
    }
}

impl Channel for ObservedChannel<'_> {
    fn upload(&mut self, env: Envelope) -> usize {
        let kind = env.payload.kind();
        let sender = env.sender;
        let bytes = self.inner.upload(env);
        self.events.push(RoundEvent::FrameSent {
            kind,
            bytes: bytes as u64,
        });
        self.pending_up.push((sender, kind, bytes as u64));
        bytes
    }

    fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
        let envs = self.inner.server_collect(round);
        self.match_uploads(&envs);
        envs
    }

    fn server_await(&mut self, round: u64, missing: &[u32]) -> Vec<Envelope> {
        let envs = self.inner.server_await(round, missing);
        // Same positional matching as `server_collect`: in-process round
        // loops pair every upload with an immediate collect, and the TCP
        // server never uploads through its own channel, so `pending_up`
        // holds at most the frames this very call is answering for.
        self.match_uploads(&envs);
        envs
    }

    fn download(&mut self, to: u32, env: Envelope) -> usize {
        let kind = env.payload.kind();
        let bytes = self.inner.download(to, env);
        self.events.push(RoundEvent::FrameSent {
            kind,
            bytes: bytes as u64,
        });
        self.pending_down.push((to, kind, bytes as u64));
        bytes
    }

    fn download_many(&mut self, to: &[u32], env: Envelope) -> usize {
        let kind = env.payload.kind();
        let bytes = self.inner.download_many(to, env);
        // Same event stream a per-peer download loop would produce: one
        // `FrameSent` per addressee, in broadcast order.
        for &id in to {
            self.events.push(RoundEvent::FrameSent {
                kind,
                bytes: bytes as u64,
            });
            self.pending_down.push((id, kind, bytes as u64));
        }
        bytes
    }

    fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope> {
        let envs = self.inner.client_collect(id, round);
        let mut mine = Vec::new();
        self.pending_down.retain(|&(to, kind, bytes)| {
            if to == id {
                mine.push((kind, bytes));
                false
            } else {
                true
            }
        });
        // Fewer arrivals than sends to this client ⇒ the tail went missing.
        for &(kind, bytes) in mine.iter().skip(envs.len()) {
            self.events.push(RoundEvent::FrameDropped { kind, bytes });
        }
        envs
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    // Checkpoint state belongs to the wrapped transport: forwarding (rather
    // than taking the trait defaults) is what keeps a lossy channel's fault
    // stream resumable when the run is observed.
    fn export_state(&self) -> ChannelState {
        self.inner.export_state()
    }

    fn restore_state(&mut self, state: &ChannelState) {
        self.inner.restore_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::MemoryObserver;
    use fedomd_transport::{InProcChannel, Payload, SERVER_SENDER};

    fn weight_env(round: u64, sender: u32) -> Envelope {
        Envelope {
            round,
            sender,
            payload: Payload::WeightUpdate { params: Vec::new() },
        }
    }

    #[test]
    fn faultless_channel_reports_sends_and_no_drops() {
        let mut inner = InProcChannel::new();
        let mut chan = ObservedChannel::new(&mut inner);
        let b0 = chan.upload(weight_env(0, 0));
        let b1 = chan.upload(weight_env(0, 1));
        let got = chan.server_collect(0);
        assert_eq!(got.len(), 2);
        chan.download(0, weight_env(0, SERVER_SENDER));
        assert_eq!(chan.client_collect(0, 0).len(), 1);

        let mut mem = MemoryObserver::new();
        chan.flush_into(&mut mem);
        assert_eq!(mem.count("frame_sent"), 3);
        assert_eq!(mem.count("frame_dropped"), 0);
        assert_eq!(
            mem.events[0],
            RoundEvent::FrameSent {
                kind: "WeightUpdate",
                bytes: b0 as u64
            }
        );
        assert_eq!(
            mem.events[1],
            RoundEvent::FrameSent {
                kind: "WeightUpdate",
                bytes: b1 as u64
            }
        );
    }

    #[test]
    fn missing_sender_becomes_a_dropped_frame_event() {
        // A collect for round 1 won't see the round-0 upload: positionally
        // that upload is lost as far as this exchange is concerned.
        let mut inner = InProcChannel::new();
        let mut chan = ObservedChannel::new(&mut inner);
        let bytes = chan.upload(weight_env(0, 3));
        let got = chan.server_collect(1);
        assert!(got.is_empty());
        let mut mem = MemoryObserver::new();
        chan.flush_into(&mut mem);
        assert_eq!(mem.count("frame_dropped"), 1);
        assert!(mem.events.contains(&RoundEvent::FrameDropped {
            kind: "WeightUpdate",
            bytes: bytes as u64
        }));
    }

    #[test]
    fn byte_counts_pass_through_unchanged() {
        let mut plain = InProcChannel::new();
        let direct = plain.upload(weight_env(0, 0));
        let mut inner = InProcChannel::new();
        let mut chan = ObservedChannel::new(&mut inner);
        let wrapped = chan.upload(weight_env(0, 0));
        assert_eq!(direct, wrapped);
    }

    #[test]
    fn flush_empties_the_buffer() {
        let mut inner = InProcChannel::new();
        let mut chan = ObservedChannel::new(&mut inner);
        chan.upload(weight_env(0, 0));
        let mut mem = MemoryObserver::new();
        chan.flush_into(&mut mem);
        assert_eq!(mem.events.len(), 1);
        chan.flush_into(&mut mem);
        assert_eq!(mem.events.len(), 1, "second flush must be a no-op");
        assert!(chan.pending_events().is_empty());
    }
}
