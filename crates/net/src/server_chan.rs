//! The server's half of the [`Channel`] trait over TCP.
//!
//! Connection handling lives in [`crate::deploy`]: an acceptor thread
//! performs the handshake and spawns one reader thread per client, and
//! everything those threads learn funnels into a single bounded queue
//! of [`Inbound`] events. [`TcpServerChannel`] consumes that queue on the
//! round driver's thread, so the driver itself stays single-threaded and
//! free of socket code.
//!
//! `server_await` is the only place the server waits. The round driver's
//! collector names the senders a phase is still missing; the channel
//! blocks until a frame for the round lands, until none of the named
//! senders is connected any more (a `Left` wakes it), or until the phase
//! deadline passes, then routes the arrivals through
//! [`admit_by_deadline`] — the same admit/drop rule the in-process fault
//! simulator uses — so a straggler or disconnect degrades the
//! round to partial aggregation instead of wedging it. The channel knows
//! nothing about phases: it answers liveness per sender and blocks.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fedomd_transport::{admit_by_deadline, Channel, Envelope, LostFrame, Payload};

use crate::stream::write_prefixed;

/// Slots in the inbound queue. Bounded so slow server-side folding parks
/// the per-connection readers (TCP backpressure) instead of buffering
/// without limit; 1024 in-flight frames covers a full phase from every
/// client.
const INBOUND_QUEUE_SLOTS: usize = 1024;

/// The queue the acceptor and reader threads feed [`TcpServerChannel`].
pub(crate) fn inbound_queue() -> (SyncSender<Inbound>, Receiver<Inbound>) {
    sync_channel(INBOUND_QUEUE_SLOTS)
}

/// One event from the acceptor or a per-connection reader thread.
///
/// Every event carries the *generation* the acceptor stamped on its
/// connection at handshake time. A client id can be re-used across
/// reconnects, and on a fast reconnect the dying connection's threads
/// race the new connection's: the generation is what lets the channel
/// tell "client 3's current connection" from "client 3's abandoned one",
/// so a stale `Left` cannot evict a freshly rejoined peer and a stale
/// frame cannot impersonate the new connection.
#[derive(Debug)]
pub enum Inbound {
    /// A client passed the handshake. `writer` is the connection's write
    /// half; `active_from` is the first round the federation should wait
    /// for this client (later than the current round for a mid-run
    /// rejoin, so an in-flight phase is not held up by a newcomer that
    /// cannot contribute to it).
    Joined {
        /// Client id from the handshake.
        id: u32,
        /// This connection's generation token.
        gen: u64,
        /// Write half of the connection.
        writer: TcpStream,
        /// First round this client participates in.
        active_from: u64,
    },
    /// A decoded frame arrived from a connected client. A frame that
    /// decodes re-encodes to the identical bytes, so its size is the
    /// envelope's [`Envelope::encoded_len`].
    Frame {
        /// Sending client.
        id: u32,
        /// Generation of the connection it arrived on.
        gen: u64,
        /// The decoded envelope.
        env: Envelope,
    },
    /// The client's connection ended (EOF, I/O error, a frame that
    /// failed the codec, or eviction by a newer connection for the same
    /// id). The federation stops waiting for it — unless a newer
    /// generation already took the id over.
    Left {
        /// Departed client.
        id: u32,
        /// Generation of the connection that ended.
        gen: u64,
    },
}

/// State the round thread shares with the acceptor and the reader
/// threads: where the federation currently is, for a client joining
/// mid-run, and which connection holds each client id.
///
/// This is the server's only lock. Every method takes it for a few field
/// updates and releases it before returning, so it is never held across
/// a blocking call and no lock order exists to get wrong.
pub struct SyncShared {
    inner: Mutex<SyncState>,
}

#[derive(Default)]
struct SyncState {
    /// Round the server is currently collecting (valid once `started`).
    round: u64,
    /// Whether the round loop has started collecting.
    started: bool,
    /// The round joining clients should enter while the loop has not
    /// started yet (0 fresh, the checkpoint round after `--resume`).
    initial_round: u64,
    /// Encoded `GlobalModel` frame of the latest aggregation (or the
    /// resumed checkpoint), handed to joining clients so they start from
    /// the federation's current weights.
    model_frame: Option<Vec<u8>>,
    /// Generation stamped on the most recently admitted connection.
    last_gen: u64,
    /// The connection currently holding each client id.
    live: BTreeMap<u32, LiveConn>,
}

struct LiveConn {
    gen: u64,
    /// Clone of the connection's stream, held only so an eviction can
    /// shut the old socket down and release its reader thread.
    stream: TcpStream,
}

impl SyncShared {
    /// Fresh shared state for a run entering at `initial_round`.
    pub fn new(initial_round: u64) -> Self {
        Self {
            inner: Mutex::new(SyncState {
                round: initial_round,
                initial_round,
                ..SyncState::default()
            }),
        }
    }

    /// The guarded state. A panic elsewhere cannot leave it half-updated
    /// (every writer sets whole fields), so a poisoned lock is still good.
    fn state(&self) -> MutexGuard<'_, SyncState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Called by the channel at the top of every collect.
    fn begin_round(&self, round: u64) {
        let mut s = self.state();
        s.round = round;
        s.started = true;
    }

    /// Stores the latest encoded `GlobalModel` frame.
    fn set_model(&self, frame: Vec<u8>) {
        self.state().model_frame = Some(frame);
    }

    /// Seeds the model frame before the run starts (checkpoint resume).
    pub fn preload_model(&self, frame: Vec<u8>) {
        self.set_model(frame);
    }

    /// The round a client joining *now* should enter: the initial round
    /// while the loop has not started, otherwise the round after the one
    /// in flight (whose uplink phases it already missed).
    pub fn join_round(&self) -> u64 {
        let s = self.state();
        if s.started {
            s.round + 1
        } else {
            s.initial_round
        }
    }

    /// Latest global-model frame, if any aggregation completed yet.
    pub fn model_frame(&self) -> Option<Vec<u8>> {
        self.state().model_frame.clone()
    }

    /// Registers a connection for `id` and returns its generation token.
    ///
    /// A handshake for an id that is still registered does **not** reject
    /// the newcomer: the old connection may be half-open (a client that
    /// died without a FIN, a NAT reset) and would otherwise hold the id
    /// hostage forever. Instead the newest connection wins, and the stale
    /// entry's socket is shut down so its blocked reader unblocks and exits.
    pub(crate) fn register(&self, id: u32, stream: TcpStream) -> u64 {
        let mut s = self.state();
        s.last_gen += 1;
        let gen = s.last_gen;
        if let Some(old) = s.live.insert(id, LiveConn { gen, stream }) {
            let _ = old.stream.shutdown(Shutdown::Both);
        }
        gen
    }

    /// Removes `id` only if `gen` is still its registered connection.
    pub(crate) fn deregister(&self, id: u32, gen: u64) {
        let mut s = self.state();
        if s.live.get(&id).map(|c| c.gen) == Some(gen) {
            s.live.remove(&id);
        }
    }
}

struct Peer {
    writer: TcpStream,
    active_from: u64,
    /// Generation of the connection backing this entry; events stamped
    /// with an older generation are ignored.
    gen: u64,
}

/// [`Channel`] adapter between the round driver and the socket threads.
pub struct TcpServerChannel {
    rx: Receiver<Inbound>,
    peers: BTreeMap<u32, Peer>,
    carry: Vec<Envelope>,
    /// Frames discarded since the last [`Channel::drain_lost`]: stale,
    /// late, or written to a peer that is gone.
    lost: Vec<LostFrame>,
    phase_timeout: Duration,
    shared: Arc<SyncShared>,
}

impl TcpServerChannel {
    /// A channel draining `rx`, waiting at most `phase_timeout` per
    /// collect before degrading to whatever arrived.
    pub fn new(rx: Receiver<Inbound>, phase_timeout: Duration, shared: Arc<SyncShared>) -> Self {
        Self {
            rx,
            peers: BTreeMap::new(),
            carry: Vec::new(),
            lost: Vec::new(),
            phase_timeout,
            shared,
        }
    }

    /// Number of currently connected clients.
    pub fn n_peers(&self) -> usize {
        self.peers.len()
    }

    /// Startup barrier: processes inbound events until `n` clients are
    /// connected or `timeout` passes. Returns the connected count.
    pub fn wait_for_peers(&mut self, n: usize, timeout: Duration) -> usize {
        #[expect(
            clippy::disallowed_methods,
            reason = "startup barrier over real sockets; the round math never sees this clock"
        )]
        let start = Instant::now();
        while self.peers.len() < n {
            let Some(left) = timeout.checked_sub(start.elapsed()) else {
                break;
            };
            match self.rx.recv_timeout(left) {
                Ok(ev) => self.apply(ev, None),
                Err(_) => break,
            }
        }
        self.peers.len()
    }

    /// Applies one event. When `collecting` names the round in flight,
    /// frames are routed into its batch/carry; otherwise frames are
    /// carried for the next collect.
    fn apply(&mut self, ev: Inbound, collecting: Option<&mut CollectState>) {
        match ev {
            Inbound::Joined {
                id,
                gen,
                writer,
                active_from,
            } => {
                // Latest wins: the acceptor only admits with a fresh
                // (strictly larger) generation, so an insert for a mapped
                // id is a reconnect superseding the old connection.
                self.peers.insert(
                    id,
                    Peer {
                        writer,
                        active_from,
                        gen,
                    },
                );
            }
            Inbound::Left { id, gen } => {
                // An abandoned connection's departure notice can be
                // queued behind the replacement's `Joined`; it must not
                // evict the rejoined peer.
                if self.peers.get(&id).map(|p| p.gen) == Some(gen) {
                    self.peers.remove(&id);
                }
            }
            Inbound::Frame { id, gen, env } => {
                if self.peers.get(&id).map(|p| p.gen) != Some(gen) {
                    // Raced out of a connection that was since evicted:
                    // the client already moved on, the frame is stale.
                    self.lost
                        .push((env.payload.kind(), env.encoded_len() as u64));
                    return;
                }
                match collecting {
                    Some(c) => c.take(env, &mut self.carry),
                    None => self.carry.push(env),
                }
            }
        }
    }
}

/// The in-flight bookkeeping of one `server_await` call.
struct CollectState {
    round: u64,
    /// Milliseconds since the call began (the arrival stamps).
    elapsed_ms: f64,
    /// `(arrival_ms, envelope)`, the [`admit_by_deadline`] input shape.
    batch: Vec<(f64, Envelope)>,
    /// Whether a frame for `round` is in the batch — what the caller is
    /// blocked on.
    landed: bool,
}

impl CollectState {
    fn take(&mut self, env: Envelope, carry: &mut Vec<Envelope>) {
        match env.round.cmp(&self.round) {
            Ordering::Equal => {
                self.landed = true;
                self.batch.push((self.elapsed_ms, env));
            }
            Ordering::Greater => carry.push(env),
            // A frame of an already-closed round: known late whatever the
            // deadline, so it flows to the admit helper as unreachable.
            Ordering::Less => self.batch.push((f64::INFINITY, env)),
        }
    }
}

impl Channel for TcpServerChannel {
    /// The server never uploads; a no-op so the trait is total.
    fn upload(&mut self, _env: Envelope) {}

    /// With no collector to name senders, awaits every connected peer.
    fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
        let connected: Vec<u32> = self.peers.keys().copied().collect();
        self.server_await(round, &connected)
    }

    fn server_await(&mut self, round: u64, missing: &[u32]) -> Vec<Envelope> {
        self.shared.begin_round(round);
        #[expect(
            clippy::disallowed_methods,
            reason = "the phase deadline over a real network is necessarily wall time; \
                      every admit/drop decision it feeds still goes through the shared \
                      `admit_by_deadline` helper"
        )]
        let start = Instant::now();
        let deadline_ms = self.phase_timeout.as_secs_f64() * 1e3;

        let mut c = CollectState {
            round,
            elapsed_ms: 0.0,
            batch: Vec::new(),
            landed: false,
        };
        // Frames carried over from earlier collects count as instant.
        for env in std::mem::take(&mut self.carry) {
            c.take(env, &mut self.carry);
        }
        // Drain whatever is already queued — join/leave notices and
        // frames that raced ahead of this call — before deciding whether
        // anyone is still worth waiting for.
        while let Ok(ev) = self.rx.try_recv() {
            self.apply(ev, Some(&mut c));
        }

        // Block while the caller has nothing to work with and a sender it
        // named could still deliver. Liveness is re-read after every
        // event, so the `Left` of the last named sender ends the wait.
        while !c.landed
            && missing
                .iter()
                .any(|id| self.peers.get(id).is_some_and(|p| p.active_from <= round))
        {
            let Some(left) = self.phase_timeout.checked_sub(start.elapsed()) else {
                break;
            };
            match self.rx.recv_timeout(left) {
                Ok(ev) => {
                    c.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                    self.apply(ev, Some(&mut c));
                }
                Err(RecvTimeoutError::Timeout) => break,
                // All producer threads are gone (shutdown): whatever is
                // batched is all there will ever be.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        let mut envs = admit_by_deadline(c.batch, deadline_ms, &mut self.lost, |env| {
            (env.payload.kind(), env.encoded_len() as u64)
        });
        envs.sort_by_key(|e| e.sender);
        envs
    }

    fn download(&mut self, to: u32, env: Envelope) {
        let frame = env.encode();
        let gone = (env.payload.kind(), frame.len() as u64);
        if matches!(env.payload, Payload::GlobalModel { .. }) {
            // Snooped for the handshake: a client joining later starts
            // from this aggregation.
            self.shared.set_model(frame.clone());
        }
        match self.peers.get_mut(&to) {
            Some(peer) => {
                if write_prefixed(&mut peer.writer, &frame).is_err() {
                    // A dead connection; the reader thread's `Left` will
                    // follow, but stop writing to it right away.
                    self.lost.push(gone);
                    self.peers.remove(&to);
                }
            }
            None => self.lost.push(gone),
        }
    }

    /// Broadcast override: one `encode()` (checksum included) for the
    /// whole cohort, then the frame is scattered to every live peer in
    /// socket-buffer-sized slices, round-robin. Encoding once drops the
    /// per-peer work from O(frame encode) to O(frame memcpy); the
    /// round-robin scatter means that while one peer's kernel buffer is
    /// full the server streams into the others' instead of blocking on a
    /// serial `write_all` per peer — at multi-megabyte models that
    /// peer-by-peer drain ping-pong, not the copies, dominated the
    /// downlink tail. Each peer still observes plain `write_prefixed`
    /// bytes, in order.
    fn download_many(&mut self, to: &[u32], env: Envelope) {
        /// Stay under default socket buffers so a slice to a draining
        /// peer usually fits without blocking.
        const SLICE: usize = 128 * 1024;
        let frame = env.encode();
        let n = frame.len();
        let gone = (env.payload.kind(), n as u64);
        if matches!(env.payload, Payload::GlobalModel { .. }) {
            // Snooped for the handshake: a client joining later starts
            // from this aggregation.
            self.shared.set_model(frame.clone());
        }
        let mut live: Vec<u32> = Vec::with_capacity(to.len());
        for &id in to {
            match self.peers.get_mut(&id) {
                // The length prefix first, so every later slice is pure
                // frame payload at the same offset for every peer.
                Some(peer) => match peer.writer.write_all(&(n as u32).to_le_bytes()) {
                    Ok(()) => live.push(id),
                    Err(_) => {
                        // A dead connection; the reader thread's `Left`
                        // will follow, but stop writing to it right away.
                        self.lost.push(gone);
                        self.peers.remove(&id);
                    }
                },
                None => self.lost.push(gone),
            }
        }
        for start in (0..n).step_by(SLICE) {
            let slice = &frame[start..(start + SLICE).min(n)];
            live.retain(|&id| {
                let Some(peer) = self.peers.get_mut(&id) else {
                    self.lost.push(gone);
                    return false;
                };
                match peer.writer.write_all(slice) {
                    Ok(()) => true,
                    Err(_) => {
                        self.lost.push(gone);
                        self.peers.remove(&id);
                        false
                    }
                }
            });
        }
        for &id in &live {
            if let Some(peer) = self.peers.get_mut(&id) {
                if peer.writer.flush().is_err() {
                    self.lost.push(gone);
                    self.peers.remove(&id);
                }
            }
        }
    }

    /// The server never collects downlink; empty so the trait is total.
    fn client_collect(&mut self, _id: u32, _round: u64) -> Vec<Envelope> {
        Vec::new()
    }

    fn drain_lost(&mut self) -> Vec<LostFrame> {
        std::mem::take(&mut self.lost)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests bound wall time")]
mod tests {
    use super::*;
    use fedomd_transport::Tensor;
    use std::net::TcpListener;
    use std::sync::mpsc::TrySendError;

    fn sock_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    fn env(round: u64, sender: u32) -> Envelope {
        Envelope {
            round,
            sender,
            payload: Payload::Metrics {
                train_loss: 1.0,
                val_correct: 0,
                val_total: 1,
                test_correct: 0,
                test_total: 1,
            },
        }
    }

    fn frame_ev(round: u64, sender: u32) -> Inbound {
        frame_ev_gen(round, sender, 1)
    }

    fn frame_ev_gen(round: u64, sender: u32, gen: u64) -> Inbound {
        Inbound::Frame {
            id: sender,
            gen,
            env: env(round, sender),
        }
    }

    #[test]
    fn collect_drains_the_queue_and_sorts() {
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let mut chan = TcpServerChannel::new(rx, Duration::from_secs(5), shared);
        let (w0, _k0) = sock_pair();
        let (w1, _k1) = sock_pair();
        tx.send(Inbound::Joined {
            id: 0,
            gen: 1,
            writer: w0,
            active_from: 0,
        })
        .unwrap();
        tx.send(Inbound::Joined {
            id: 1,
            gen: 1,
            writer: w1,
            active_from: 0,
        })
        .unwrap();
        // Out of sender order on the wire; sorted on collect.
        tx.send(frame_ev(0, 1)).unwrap();
        tx.send(frame_ev(0, 0)).unwrap();
        let got = chan.server_collect(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sender, 0);
        assert_eq!(got[1].sender, 1);
        assert!(chan.drain_lost().is_empty());
    }

    /// A channel with `ids` joined (all active from round 0), a 5 s phase
    /// deadline the blocking-contract tests must never get near, and the
    /// far socket halves that keep the connections open.
    fn joined(ids: &[u32]) -> (SyncSender<Inbound>, TcpServerChannel, Vec<TcpStream>) {
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let chan = TcpServerChannel::new(rx, Duration::from_secs(5), shared);
        let mut keep = Vec::new();
        for &id in ids {
            let (writer, far) = sock_pair();
            keep.push(far);
            tx.send(Inbound::Joined {
                id,
                gen: 1,
                writer,
                active_from: 0,
            })
            .unwrap();
        }
        (tx, chan, keep)
    }

    #[test]
    fn await_returns_the_first_frame_without_waiting_for_stragglers() {
        let (tx, mut chan, _keep) = joined(&[0, 1]);
        tx.send(frame_ev(0, 1)).unwrap();
        let t = Instant::now();
        let got = chan.server_await(0, &[0, 1]);
        assert_eq!(got.len(), 1, "one landed frame is enough to return");
        assert_eq!(got[0].sender, 1);
        // The straggler's frame satisfies the next call.
        tx.send(frame_ev(0, 0)).unwrap();
        let got = chan.server_await(0, &[0]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sender, 0);
        assert!(chan.drain_lost().is_empty());
        assert!(t.elapsed() < Duration::from_secs(1), "must not wait");
    }

    #[test]
    fn await_returns_at_once_when_every_named_sender_has_departed() {
        let (tx, mut chan, _keep) = joined(&[0, 1]);
        tx.send(Inbound::Left { id: 0, gen: 1 }).unwrap();
        tx.send(Inbound::Left { id: 1, gen: 1 }).unwrap();
        // Empty batch = "nobody you named can still deliver": the signal
        // the collector closes the phase on. It must not cost the deadline.
        let t = Instant::now();
        assert!(chan.server_await(0, &[0, 1]).is_empty());
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_left_for_the_last_awaited_sender_wakes_a_blocked_await() {
        let (tx, mut chan, _keep) = joined(&[0, 1]);
        let leaver = std::thread::spawn(move || {
            // Long enough that the await below is blocked in `recv_timeout`
            // when the notice lands (if it is not, the drain path sees it —
            // the assertion holds either way).
            std::thread::sleep(Duration::from_millis(100));
            tx.send(Inbound::Left { id: 1, gen: 1 }).unwrap();
            tx
        });
        let t = Instant::now();
        assert!(chan.server_await(0, &[1]).is_empty());
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "the Left must wake it"
        );
        assert_eq!(chan.n_peers(), 1);
        let _tx = leaver.join().expect("leaver thread");
    }

    #[test]
    fn live_but_silent_peers_that_are_not_named_do_not_hold_the_await() {
        let (tx, mut chan, mut keep) = joined(&[0, 1]);
        // Client 2 joined mid-run and only participates from round 3.
        let (w2, k2) = sock_pair();
        keep.push(k2);
        tx.send(Inbound::Joined {
            id: 2,
            gen: 1,
            writer: w2,
            active_from: 3,
        })
        .unwrap();
        tx.send(Inbound::Left { id: 1, gen: 1 }).unwrap();
        // Peer 0 is connected and silent, but the caller is not missing
        // it (it already reported in an earlier call); the departed peer
        // and the not-yet-active one cannot deliver. Nothing to wait for.
        let t = Instant::now();
        assert!(chan.server_await(0, &[1, 2]).is_empty());
        assert!(t.elapsed() < Duration::from_secs(1));
        assert_eq!(chan.n_peers(), 2);
    }

    #[test]
    fn future_frames_carry_and_stale_frames_drop() {
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let mut chan = TcpServerChannel::new(rx, Duration::from_millis(50), shared);
        let (w0, _k0) = sock_pair();
        tx.send(Inbound::Joined {
            id: 0,
            gen: 1,
            writer: w0,
            active_from: 0,
        })
        .unwrap();
        tx.send(frame_ev(1, 0)).unwrap(); // a fast client's next round
        tx.send(frame_ev(0, 0)).unwrap();
        let got = chan.server_collect(0);
        assert_eq!(got.len(), 1, "only the round-0 frame");
        assert_eq!(got[0].round, 0);
        // The carried round-1 frame satisfies the next collect instantly.
        let got = chan.server_collect(1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].round, 1);
        // A round-0 straggler arriving during round 2 is listed lost.
        tx.send(frame_ev(0, 0)).unwrap();
        tx.send(frame_ev(2, 0)).unwrap();
        let got = chan.server_collect(2);
        assert_eq!(got.len(), 1);
        let late = env(0, 0).encoded_len() as u64;
        assert_eq!(chan.drain_lost(), [("Metrics", late)]);
    }

    #[test]
    fn download_snoops_the_model_and_counts_unknown_peers_dropped() {
        let (_tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let mut chan = TcpServerChannel::new(rx, Duration::from_millis(10), Arc::clone(&shared));
        let model = Envelope {
            round: 0,
            sender: u32::MAX,
            payload: Payload::GlobalModel {
                params: vec![Tensor {
                    rows: 1,
                    cols: 1,
                    data: vec![0.5],
                }],
            },
        };
        assert!(shared.model_frame().is_none());
        chan.download(9, model.clone());
        assert_eq!(
            chan.drain_lost(),
            [("GlobalModel", model.encoded_len() as u64)],
            "no such peer"
        );
        // ... but the model frame is still remembered for joiners.
        assert_eq!(shared.model_frame(), Some(model.encode()));
    }

    #[test]
    fn download_many_encodes_once_and_delivers_to_every_live_peer() {
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let mut chan = TcpServerChannel::new(rx, Duration::from_millis(50), Arc::clone(&shared));
        let (w0, mut far0) = sock_pair();
        let (w1, mut far1) = sock_pair();
        for (id, writer) in [(0, w0), (1, w1)] {
            tx.send(Inbound::Joined {
                id,
                gen: 1,
                writer,
                active_from: 0,
            })
            .unwrap();
        }
        chan.server_collect(0); // drain the joins
        let model = Envelope {
            round: 0,
            sender: u32::MAX,
            payload: Payload::GlobalModel {
                params: vec![Tensor {
                    rows: 1,
                    cols: 2,
                    data: vec![0.25, -0.5],
                }],
            },
        };
        // Peer 7 never joined: listed lost, the rest still delivered.
        chan.download_many(&[0, 1, 7], model.clone());
        let n = model.encoded_len() as u64;
        assert_eq!(chan.drain_lost(), [("GlobalModel", n)]);
        // Both live peers got the identical encoded frame...
        for far in [&mut far0, &mut far1] {
            let body = crate::stream::read_prefixed(far, fedomd_transport::DEFAULT_MAX_FRAME_BYTES)
                .expect("frame");
            assert_eq!(body, model.encode());
        }
        // ...and the broadcast snooped the model for future joiners.
        assert_eq!(shared.model_frame(), Some(model.encode()));
    }

    #[test]
    fn a_stale_left_does_not_evict_a_rejoined_peer() {
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));
        let mut chan = TcpServerChannel::new(rx, Duration::from_millis(50), shared);
        let (w1, _k1) = sock_pair();
        let (w2, _k2) = sock_pair();
        tx.send(Inbound::Joined {
            id: 0,
            gen: 1,
            writer: w1,
            active_from: 0,
        })
        .unwrap();
        // Fast reconnect: the replacement joins before the abandoned
        // connection's reader gets around to reporting its departure.
        tx.send(Inbound::Joined {
            id: 0,
            gen: 2,
            writer: w2,
            active_from: 0,
        })
        .unwrap();
        tx.send(Inbound::Left { id: 0, gen: 1 }).unwrap();
        // A frame raced out of the dead connection: stale, dropped.
        tx.send(frame_ev_gen(0, 0, 1)).unwrap();
        // The live connection's frame is the one that counts.
        tx.send(frame_ev_gen(0, 0, 2)).unwrap();
        let got = chan.server_collect(0);
        assert_eq!(chan.n_peers(), 1, "the rejoined peer must survive");
        assert_eq!(got.len(), 1);
        let stale = env(0, 0).encoded_len() as u64;
        assert_eq!(
            chan.drain_lost(),
            [("Metrics", stale)],
            "the stale-gen frame"
        );
        // The *matching* Left still evicts.
        tx.send(Inbound::Left { id: 0, gen: 2 }).unwrap();
        let _ = chan.server_collect(1);
        assert_eq!(chan.n_peers(), 0);
    }

    #[test]
    fn a_full_inbound_queue_pushes_back_on_its_producers() {
        let (tx, _rx) = inbound_queue();
        for gen in 0..INBOUND_QUEUE_SLOTS as u64 {
            tx.try_send(Inbound::Left { id: 0, gen })
                .expect("a free slot");
        }
        assert!(matches!(
            tx.try_send(Inbound::Left { id: 0, gen: 0 }),
            Err(TrySendError::Full(_))
        ));
    }

    #[test]
    fn join_round_tracks_the_run() {
        let shared = SyncShared::new(7);
        assert_eq!(shared.join_round(), 7, "before the loop: the start round");
        shared.begin_round(7);
        assert_eq!(
            shared.join_round(),
            8,
            "mid-run: the round in flight is missed"
        );
    }
}
