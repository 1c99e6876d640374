//! The client's half of the [`Channel`] trait over TCP.
//!
//! One background thread owns the read half of the connection and decodes
//! frames into a bounded queue; the training thread consumes the queue
//! through [`TcpClientChannel::client_collect`] and writes uploads
//! directly. When the connection dies the reader thread exits, the queue
//! disconnects, and every subsequent collect returns empty immediately —
//! which the round loop reads as "the server is gone" and turns into
//! [`fedomd_core::ClientOutcome::ServerLost`], the reconnect trigger.

use std::cmp::Ordering;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use fedomd_transport::{admit_by_deadline, Channel, Envelope, LostFrame};

use crate::stream::{read_frame, write_prefixed};

/// Slots in the downlink queue. Bounded: if the training loop stalls, the
/// reader parks on a full queue (TCP backpressure) instead of buffering
/// frames without limit; 256 covers many phases of server traffic.
const READER_QUEUE_SLOTS: usize = 256;

/// [`Channel`] adapter between one client's round loop and its server
/// connection.
pub struct TcpClientChannel {
    writer: TcpStream,
    rx: Receiver<Envelope>,
    carry: Vec<Envelope>,
    /// Frames discarded since the last [`Channel::drain_lost`]: late
    /// downlinks, and uploads the connection refused.
    lost: Vec<LostFrame>,
    phase_timeout: Duration,
    dead: bool,
}

impl TcpClientChannel {
    /// Wraps an already-handshaken connection: spawns the reader thread
    /// (frames above `max_frame_bytes` kill the connection) and waits at
    /// most `phase_timeout` per collect.
    pub fn new(
        stream: TcpStream,
        max_frame_bytes: u32,
        phase_timeout: Duration,
    ) -> std::io::Result<Self> {
        let mut read_half = stream.try_clone()?;
        let (tx, rx) = sync_channel(READER_QUEUE_SLOTS);
        #[expect(
            clippy::disallowed_methods,
            reason = "reader with no handle to keep: it exits on EOF or error once \
                      `Drop` shuts the socket down, and joining it from `Drop` could \
                      block a dying client on the peer"
        )]
        std::thread::spawn(move || {
            // Exits (dropping `tx`, disconnecting the queue) on EOF, any
            // I/O error, or a frame that fails the codec.
            while let Ok((env, _)) = read_frame(&mut read_half, max_frame_bytes) {
                if tx.send(env).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            writer: stream,
            rx,
            carry: Vec::new(),
            lost: Vec::new(),
            phase_timeout,
            dead: false,
        })
    }

    /// Whether the connection is known dead (a collect observed the
    /// reader thread gone).
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

impl Drop for TcpClientChannel {
    fn drop(&mut self) {
        // Unblocks the reader thread so it exits with the channel.
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

impl Channel for TcpClientChannel {
    fn upload(&mut self, env: Envelope) {
        let frame = env.encode();
        // Once handed to the OS, a server-side deadline miss is the
        // server's loss to report, not ours.
        if write_prefixed(&mut self.writer, &frame).is_err() {
            self.lost.push((env.payload.kind(), frame.len() as u64));
            self.dead = true;
        }
    }

    /// The client never serves; empty so the trait is total.
    fn server_collect(&mut self, _round: u64) -> Vec<Envelope> {
        Vec::new()
    }

    /// The client never downloads; a no-op so the trait is total.
    fn download(&mut self, _to: u32, _env: Envelope) {}

    fn client_collect(&mut self, _id: u32, round: u64) -> Vec<Envelope> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the phase deadline over a real network is necessarily wall time; \
                      every admit/drop decision it feeds still goes through the shared \
                      `admit_by_deadline` helper"
        )]
        let phase_start = Instant::now();
        let deadline_ms = self.phase_timeout.as_secs_f64() * 1e3;

        let mut batch: Vec<(f64, Envelope)> = Vec::new();
        let mut have_current = false;
        let mut route =
            |arrival: f64, env: Envelope, carry: &mut Vec<Envelope>, have_current: &mut bool| {
                match env.round.cmp(&round) {
                    Ordering::Equal => {
                        *have_current = true;
                        batch.push((arrival, env));
                    }
                    Ordering::Greater => carry.push(env),
                    Ordering::Less => batch.push((f64::INFINITY, env)),
                }
            };
        for env in std::mem::take(&mut self.carry) {
            route(0.0, env, &mut self.carry, &mut have_current);
        }

        // Block until the first frame of this round (the round loop asks
        // for exactly one downlink kind per collect), then drain whatever
        // else is already queued without blocking again.
        loop {
            if have_current {
                match self.rx.try_recv() {
                    Ok(env) => {
                        let ms = phase_start.elapsed().as_secs_f64() * 1e3;
                        route(ms, env, &mut self.carry, &mut have_current);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.dead = true;
                        break;
                    }
                }
            } else {
                if self.dead {
                    break;
                }
                let Some(left) = self.phase_timeout.checked_sub(phase_start.elapsed()) else {
                    break;
                };
                match self.rx.recv_timeout(left) {
                    Ok(env) => {
                        let ms = phase_start.elapsed().as_secs_f64() * 1e3;
                        route(ms, env, &mut self.carry, &mut have_current);
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        self.dead = true;
                        break;
                    }
                }
            }
        }

        let mut envs = admit_by_deadline(batch, deadline_ms, &mut self.lost, |env| {
            (env.payload.kind(), env.encoded_len() as u64)
        });
        envs.sort_by_key(|e| e.sender);
        envs
    }

    fn drain_lost(&mut self) -> Vec<LostFrame> {
        std::mem::take(&mut self.lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_transport::{Payload, DEFAULT_MAX_FRAME_BYTES, SERVER_SENDER};
    use std::net::TcpListener;

    fn env(round: u64) -> Envelope {
        Envelope {
            round,
            sender: SERVER_SENDER,
            payload: Payload::Control(fedomd_transport::Control::Ack),
        }
    }

    /// A connected (client stream, server stream) pair on loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let c = TcpStream::connect(addr).expect("connect");
        let (s, _) = listener.accept().expect("accept");
        (c, s)
    }

    #[test]
    fn uploads_reach_the_far_end_and_downlinks_collect() {
        let (c, mut s) = pair();
        let mut chan = TcpClientChannel::new(c, DEFAULT_MAX_FRAME_BYTES, Duration::from_secs(5))
            .expect("chan");
        let up = Envelope {
            round: 3,
            sender: 1,
            payload: Payload::Control(fedomd_transport::Control::BeginRound),
        };
        chan.upload(up.clone());
        let (got, len) = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("server read");
        assert_eq!(len, up.encoded_len());
        assert_eq!(got, up);
        assert!(chan.drain_lost().is_empty());

        // Server pushes this round's frame and a future one: the collect
        // returns the first and carries the second.
        write_prefixed(&mut s, &env(3).encode()).expect("write");
        write_prefixed(&mut s, &env(4).encode()).expect("write");
        let got = chan.client_collect(1, 3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].round, 3);
        let got = chan.client_collect(1, 4);
        assert_eq!(got.len(), 1, "carried frame, no new traffic needed");
        assert_eq!(got[0].round, 4);
    }

    #[test]
    fn a_closed_server_turns_collects_empty_not_hung() {
        let (c, s) = pair();
        let mut chan = TcpClientChannel::new(c, DEFAULT_MAX_FRAME_BYTES, Duration::from_secs(60))
            .expect("chan");
        drop(s); // the server process dies
                 // Despite the 60 s phase deadline this returns promptly: the
                 // reader thread saw EOF and disconnected the queue.
        let got = chan.client_collect(1, 0);
        assert!(got.is_empty());
        assert!(chan.is_dead());
    }

    #[test]
    fn stale_downlinks_are_counted_dropped() {
        let (c, mut s) = pair();
        let mut chan = TcpClientChannel::new(c, DEFAULT_MAX_FRAME_BYTES, Duration::from_secs(5))
            .expect("chan");
        write_prefixed(&mut s, &env(0).encode()).expect("write");
        write_prefixed(&mut s, &env(2).encode()).expect("write");
        let got = chan.client_collect(1, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].round, 2);
        let late = env(0).encoded_len() as u64;
        assert_eq!(
            chan.drain_lost(),
            [("Control", late)],
            "the round-0 leftover"
        );
    }
}
