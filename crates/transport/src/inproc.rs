//! [`InProcChannel`]: the default, fault-free transport.
//!
//! Envelopes move by value through plain queues — one uplink queue shared
//! by all clients, one downlink queue per client — and are never
//! serialised: nothing here meets a socket, and the frame's size, which
//! the drivers report, is [`Envelope::encoded_len`] without the frame.
//! The channel is driven single-threaded through `&mut self` (the
//! `Channel` trait's contract), so there is nothing to synchronise: queues
//! are just memory and sends cannot fail. Because
//! [`server_collect`](crate::Channel::server_collect) returns envelopes in
//! sender order (the order the lockstep loop uploaded them in), a training
//! run over this channel is bit-identical to one passing values by direct
//! function call — and, the `f32` wire format being bit-exact, to one
//! whose frames cross a socket. Nothing is ever dropped, reordered, or
//! delayed.

use crate::channel::{of_round, Channel};
use crate::frame::Envelope;

/// Fault-free in-process channel over plain envelope queues.
pub struct InProcChannel {
    up: Vec<Envelope>,
    /// Downlink queue per client, grown on first use.
    down: Vec<Vec<Envelope>>,
}

impl InProcChannel {
    /// Creates a channel; client queues are allocated lazily.
    pub fn new() -> Self {
        Self {
            up: Vec::new(),
            down: Vec::new(),
        }
    }
}

impl Default for InProcChannel {
    fn default() -> Self {
        Self::new()
    }
}

impl Channel for InProcChannel {
    fn upload(&mut self, env: Envelope) {
        self.up.push(env);
    }

    fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
        of_round(self.up.drain(..), round)
    }

    fn download(&mut self, to: u32, env: Envelope) {
        let idx = to as usize;
        if self.down.len() <= idx {
            self.down.resize_with(idx + 1, Vec::new);
        }
        self.down[idx].push(env);
    }

    fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope> {
        match self.down.get_mut(id as usize) {
            Some(q) => of_round(q.drain(..), round),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Control, Payload, Tensor, SERVER_SENDER};

    fn weight_env(round: u64, sender: u32, v: f32) -> Envelope {
        Envelope {
            round,
            sender,
            payload: Payload::WeightUpdate {
                params: vec![Tensor {
                    rows: 1,
                    cols: 2,
                    data: vec![v, -v],
                }],
            },
        }
    }

    #[test]
    fn uploads_arrive_sender_sorted_and_intact() {
        let mut ch = InProcChannel::new();
        // Upload out of order; collection must sort by sender.
        for &s in &[2u32, 0, 1] {
            ch.upload(weight_env(4, s, s as f32 + 0.5));
        }
        let got = ch.server_collect(4);
        assert_eq!(got.len(), 3);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.sender, i as u32);
            assert_eq!(env.round, 4);
            match &env.payload {
                Payload::WeightUpdate { params } => {
                    assert_eq!(params[0].data[0], i as f32 + 0.5);
                }
                other => panic!("unexpected {}", other.kind()),
            }
        }
        // Queue drained: a second collect sees nothing.
        assert!(ch.server_collect(4).is_empty());
    }

    #[test]
    fn downlinks_are_per_client() {
        let mut ch = InProcChannel::new();
        ch.download(0, weight_env(1, SERVER_SENDER, 1.0));
        ch.download(2, weight_env(1, SERVER_SENDER, 3.0));
        assert_eq!(ch.client_collect(0, 1).len(), 1);
        assert!(ch.client_collect(1, 1).is_empty());
        assert_eq!(ch.client_collect(2, 1).len(), 1);
    }

    #[test]
    fn envelopes_arrive_unchanged_and_nothing_is_lost() {
        let mut ch = InProcChannel::new();
        let env = weight_env(0, 0, 1.0);
        ch.upload(env.clone());
        let ack = Envelope {
            payload: Payload::Control(Control::Ack),
            ..env.clone()
        };
        ch.download(0, ack.clone());
        assert_eq!(ch.server_collect(0), [env]);
        assert_eq!(ch.client_collect(0, 0), [ack]);
        assert!(ch.drain_lost().is_empty());
    }

    #[test]
    fn collect_for_unknown_client_is_empty() {
        let mut ch = InProcChannel::new();
        assert!(ch.client_collect(9, 0).is_empty());
        assert!(ch.server_collect(0).is_empty());
    }
}
