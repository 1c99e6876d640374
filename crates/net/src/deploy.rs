//! Process entry points: [`serve`] hosts the FedOMD round driver behind a
//! TCP listener, [`run_client`] trains one shard against it and reconnects
//! with backoff when the server is lost. The `fedomd-server` and
//! `fedomd-client` binaries are thin CLI shells over these two functions,
//! and the loopback golden tests call them directly from threads.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Duration;

use fedomd_core::{
    run_fedomd_client_rounds, run_fedomd_server, ClientOutcome, ClientSession, FileCheckpointer,
    RunCheckpoint, RunConfig,
};
use fedomd_data::DatasetName;
use fedomd_federated::helpers::UpdateShapeError;
use fedomd_federated::{ClientData, Flags, Persistence, ResumeState, RunResult, RunSpec, Strategy};
use fedomd_telemetry::RoundObserver;
use fedomd_transport::{to_tensors, Envelope, Payload, SERVER_SENDER};

use crate::client_chan::TcpClientChannel;
use crate::error::NetError;
use crate::server_chan::{inbound_queue, Inbound, SyncShared, TcpServerChannel};
use crate::stream::{read_frame, write_prefixed, Hello, Welcome, PROTOCOL_VERSION};

/// Transport knobs shared by both processes.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Frame-size cap enforced before allocation on every read.
    pub max_frame_bytes: u32,
    /// How long either side waits in one collect before degrading the
    /// phase to whatever arrived (the partial-aggregation deadline).
    pub phase_timeout: Duration,
    /// Connection attempts before a client gives up on the server.
    pub connect_attempts: u32,
    /// Pause between connection attempts.
    pub connect_backoff: Duration,
    /// How long the server waits for the initial quorum before starting
    /// the rounds with whoever showed up.
    pub join_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: fedomd_transport::DEFAULT_MAX_FRAME_BYTES,
            phase_timeout: Duration::from_secs(30),
            connect_attempts: 50,
            connect_backoff: Duration::from_millis(200),
            join_timeout: Duration::from_secs(120),
        }
    }
}

/// Server-process options beyond the run configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Number of federated parties.
    pub n_clients: usize,
    /// Crash-injection hook for the resume tests (see
    /// [`fedomd_core::run_fedomd_server`]'s `halt_after`).
    pub halt_after: Option<usize>,
    /// Checkpoint file and period in rounds (`0` disables saving).
    pub checkpoint: Option<(PathBuf, usize)>,
    /// Checkpoint file to restore from before the first round.
    pub resume: Option<PathBuf>,
    /// Transport knobs.
    pub net: NetConfig,
}

impl ServeOpts {
    /// A plain full run for `n_clients` parties.
    pub fn new(n_clients: usize) -> Self {
        Self {
            n_clients,
            halt_after: None,
            checkpoint: None,
            resume: None,
            net: NetConfig::default(),
        }
    }
}

/// Client-process options beyond the run configuration.
#[derive(Clone, Debug)]
pub struct ClientOpts {
    /// Server address, e.g. `127.0.0.1:7447`.
    pub addr: String,
    /// This party's id (`0..n_clients`).
    pub id: u32,
    /// Transport knobs.
    pub net: NetConfig,
}

/// What a client process did, for logging and the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientReport {
    /// How the final round loop ended.
    pub outcome: ClientOutcome,
    /// Times the server was lost and the connection re-established.
    pub reconnects: u32,
}

/// Binds `addr` and hosts the run; see [`serve_on`].
pub fn serve(
    addr: &str,
    opts: &ServeOpts,
    run: &RunConfig,
    dataset: &str,
    obs: &mut dyn RoundObserver,
) -> Result<RunResult, NetError> {
    let listener = TcpListener::bind(addr)?;
    serve_on(listener, opts, run, dataset, obs)
}

/// Hosts one FedOMD run on an already-bound listener.
///
/// Taking the listener (rather than an address) lets a restarted server
/// reuse the exact socket its clients are retrying — the kill-and-resume
/// test hands the same bound port to the second `serve_on` so no
/// rebinding race exists.
///
/// The acceptor thread admits clients that present the right protocol
/// version, an id in range, and this server's run spec (`rounds` and
/// `patience` aside); a rejection names the first key that differs. Each
/// admitted connection gets a reader thread and the
/// round driver runs single-threaded over the merged event queue. It
/// blocks in `accept`, so a client joins as soon as it connects; at
/// shutdown one throwaway connection, closed at once, wakes it. The
/// run starts once `opts.n_clients` are connected or the join timeout
/// passes (late clients can still join mid-run and participate from the
/// next round).
///
/// An invalid run configuration (e.g. a NaN cohort `sample_frac`) is
/// [`NetError::Config`] before the listener accepts anything — a config
/// the server would refuse to run must never be handed to clients as
/// something to match. A resume checkpoint whose spec differs from this
/// run's is [`NetError::Checkpoint`], naming the key.
pub fn serve_on(
    listener: TcpListener,
    opts: &ServeOpts,
    run: &RunConfig,
    dataset: &str,
    obs: &mut dyn RoundObserver,
) -> Result<RunResult, NetError> {
    run.train.validate(opts.n_clients)?;
    let spec = deployed_spec(run, dataset, opts.n_clients);
    let flags = spec.flags();

    let mut resume_state: Option<ResumeState> = None;
    if let Some(path) = &opts.resume {
        let ckpt = RunCheckpoint::load(path).map_err(|e| NetError::Checkpoint(e.to_string()))?;
        if let Some(m) = flags.mismatch(&ckpt.spec) {
            return Err(NetError::Checkpoint(format!(
                "{path:?} is another run's: {m} (this server vs the checkpoint)"
            )));
        }
        resume_state = Some(ckpt.state);
    }
    let start_round = resume_state.as_ref().map_or(0, |s| s.next_round);
    let shared = Arc::new(SyncShared::new(start_round as u64));
    if let Some(global) = resume_state.as_ref().and_then(|s| s.global.as_ref()) {
        // Hand reconnecting clients the checkpointed aggregation so they
        // resume from the federation's weights, not their own init.
        let env = Envelope {
            round: start_round as u64,
            sender: SERVER_SENDER,
            payload: Payload::GlobalModel {
                params: to_tensors(global),
            },
        };
        shared.preload_model(env.encode());
    }

    let (tx, rx) = inbound_queue();
    let stop = Arc::new(AtomicBool::new(false));
    let wake = wake_addr(&listener)?;
    #[expect(
        clippy::disallowed_methods,
        reason = "joined once the rounds are done, below"
    )]
    let acceptor = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let n_clients = opts.n_clients;
        let max_frame = opts.net.max_frame_bytes;
        let flags = flags.clone();
        std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if stop.load(Ordering::Acquire) {
                break;
            }
            let Ok((stream, _)) = accepted else { break };
            // A failed handshake just drops the connection; the client
            // retries or gives up on its own.
            let _ = admit(stream, &flags, n_clients, max_frame, &tx, &shared);
        })
    };

    let mut chan = TcpServerChannel::new(rx, opts.net.phase_timeout, Arc::clone(&shared));
    chan.wait_for_peers(opts.n_clients, opts.net.join_timeout);

    let mut sink = opts
        .checkpoint
        .as_ref()
        .filter(|(_, every)| *every > 0)
        .map(|(path, every)| FileCheckpointer::new(path, *every, flags));
    let persist = Persistence {
        resume: resume_state,
        sink: sink.as_mut().map(|s| s as _),
    };
    let result = run_fedomd_server(&spec, opts.halt_after, &mut chan, obs, persist);

    // Closing the inbound queue first wakes an acceptor blocked on it.
    drop(chan);
    stop.store(true, Ordering::Release);
    // Wake the acceptor out of `accept`; it sees `stop` and exits. The
    // connection closes at once, so a later server on the same socket
    // that accepts it instead reads EOF in its handshake, not a stall.
    drop(TcpStream::connect(wake));
    let _ = acceptor.join();
    Ok(result)
}

/// The spec both processes of a deployment present: FedOMD on `dataset`
/// cut into `parties`. A registry name is written in its canonical
/// spelling, as [`RunSpec::read`] writes it; any other name (a caller's
/// own variant of a dataset) as given.
fn deployed_spec(run: &RunConfig, dataset: &str, parties: usize) -> RunSpec {
    let canonical = DatasetName::parse(dataset).map(|d| fedomd_data::spec(d).name);
    RunSpec {
        strategy: Strategy::FedOmd(run.omd),
        parties,
        dataset: Some(canonical.unwrap_or_else(|| dataset.into())),
        train: run.train.clone(),
    }
}

/// The address a connection to `listener` reaches it at: its own, on
/// loopback when it is bound to every interface.
fn wake_addr(listener: &TcpListener) -> io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    Ok(addr)
}

/// Handshakes one fresh connection and, if admitted, hands it to the
/// round driver as a peer with its own reader thread.
fn admit(
    mut stream: TcpStream,
    spec: &Flags,
    n_clients: usize,
    max_frame: u32,
    tx: &SyncSender<Inbound>,
    shared: &Arc<SyncShared>,
) -> Result<(), NetError> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    // Bound the handshake so a connect-and-stall peer cannot wedge the
    // acceptor; cleared before the reader thread takes over.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let hello = Hello::read_from(&mut stream)?;
    let reason = if hello.version != PROTOCOL_VERSION {
        Some(format!(
            "protocol version {} != {PROTOCOL_VERSION}",
            hello.version
        ))
    } else if hello.client_id as usize >= n_clients {
        Some(format!(
            "client id {} out of range for {n_clients} parties",
            hello.client_id
        ))
    } else {
        let m = spec.mismatch(&hello.spec);
        m.map(|m| format!("run spec mismatch: {m} (server vs client)"))
    };
    if let Some(reason) = reason {
        Welcome::reject(reason).write_to(&mut stream)?;
        return Ok(());
    }
    let id = hello.client_id;
    // A re-handshake for a registered id is a reconnect, not an error:
    // latest wins, the stale connection is shut down (see
    // [`SyncShared::register`]).
    let shutdown_handle = stream.try_clone()?;
    let gen = shared.register(id, shutdown_handle);
    let active_from = shared.join_round();
    let model = shared.model_frame();
    let ok = (|| -> Result<(), NetError> {
        Welcome {
            accept: true,
            reason: String::new(),
            resume_round: active_from,
            has_model: model.is_some(),
        }
        .write_to(&mut stream)?;
        if let Some(frame) = model {
            write_prefixed(&mut stream, &frame)?;
        }
        stream.set_read_timeout(None)?;
        let writer = stream.try_clone()?;
        tx.send(Inbound::Joined {
            id,
            gen,
            writer,
            active_from,
        })
        .map_err(|_| NetError::Protocol("round driver gone".into()))?;
        Ok(())
    })();
    if ok.is_err() {
        shared.deregister(id, gen);
        return ok;
    }
    let tx = tx.clone();
    let shared = Arc::clone(shared);
    #[expect(
        clippy::disallowed_methods,
        reason = "per-connection reader with no handle to keep: it exits on \
                  EOF/error/eviction shutdown of its own socket and announces \
                  the departure itself via `Inbound::Left`; the acceptor that \
                  spawned it must not block on departed peers"
    )]
    std::thread::spawn(move || {
        // Exits on EOF, I/O error, an invalid frame, or an eviction's
        // shutdown — all the same to the federation: this connection is
        // done, and the client is gone until it re-handshakes.
        while let Ok((env, _)) = read_frame(&mut stream, max_frame) {
            if tx.send(Inbound::Frame { id, gen, env }).is_err() {
                break;
            }
        }
        shared.deregister(id, gen);
        let _ = tx.send(Inbound::Left { id, gen });
    });
    Ok(())
}

/// Runs one client process: connect (with backoff), handshake, train the
/// rounds the server assigns, and reconnect whenever the server is lost
/// mid-run. Returns once the round budget completes, the server's
/// verdict stops the run, or the server stays unreachable through a full
/// backoff schedule. An invalid run configuration is [`NetError::Config`]
/// before the first connection attempt, mirroring [`serve_on`].
pub fn run_client(
    opts: &ClientOpts,
    run: &RunConfig,
    dataset: &str,
    n_clients: usize,
    client: &ClientData,
    n_classes: usize,
    obs: &mut dyn RoundObserver,
) -> Result<ClientReport, NetError> {
    run.train.validate(n_clients)?;
    let spec = deployed_spec(run, dataset, n_clients).flags();
    let mut session = ClientSession::new(&run.train, &run.omd, client, n_classes);
    let mut reconnects = 0u32;
    loop {
        let mut stream = connect_with_backoff(&opts.addr, &opts.net)?;
        Hello {
            version: PROTOCOL_VERSION,
            client_id: opts.id,
            spec: spec.clone(),
        }
        .write_to(&mut stream)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let welcome = Welcome::read_from(&mut stream)?;
        if !welcome.accept {
            return Err(NetError::Rejected(welcome.reason));
        }
        if welcome.has_model {
            let (env, _) = read_frame(&mut stream, opts.net.max_frame_bytes)?;
            #[expect(
                clippy::wildcard_enum_match_arm,
                reason = "the handshake slot admits exactly one frame type; anything else \
                          is a typed protocol error naming the offending kind, not a drop"
            )]
            match env.payload {
                Payload::GlobalModel { params } => session.install(params).map_err(refused)?,
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected the handshake model frame, got {}",
                        other.kind()
                    )));
                }
            }
        }
        stream.set_read_timeout(None)?;
        let start_round = welcome.resume_round as usize;
        if start_round >= run.train.rounds {
            // Nothing left to train (e.g. rejoined after the final round).
            return Ok(ClientReport {
                outcome: ClientOutcome::Finished,
                reconnects,
            });
        }
        let mut chan =
            TcpClientChannel::new(stream, opts.net.max_frame_bytes, opts.net.phase_timeout)?;
        match run_fedomd_client_rounds(
            opts.id,
            client,
            &run.train,
            &run.omd,
            &mut session,
            start_round,
            &mut chan,
            obs,
        )
        .map_err(refused)?
        {
            ClientOutcome::ServerLost { .. } => {
                reconnects += 1;
                // The loop re-handshakes; the server's Welcome, not the
                // local round counter, decides where training resumes.
            }
            outcome @ (ClientOutcome::Finished | ClientOutcome::Stopped) => {
                return Ok(ClientReport {
                    outcome,
                    reconnects,
                })
            }
        }
    }
}

/// A global model that does not fit this client's model: the server is
/// serving another configuration (e.g. resumed from a checkpoint taken
/// under a different hidden width).
fn refused(e: UpdateShapeError) -> NetError {
    NetError::Protocol(format!("global model refused: {e}"))
}

/// Tries `connect_attempts` times, `connect_backoff` apart.
fn connect_with_backoff(addr: &str, net: &NetConfig) -> Result<TcpStream, NetError> {
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..net.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(net.connect_backoff);
        }
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(NetError::Io(last.unwrap_or_else(|| {
        std::io::Error::other("no connection attempt made")
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_chan::TcpServerChannel;
    use std::io::Read;

    /// A dataset alias presents the same spec as its canonical name; a
    /// name the registry does not know goes into the spec as given.
    #[test]
    fn a_deployed_spec_names_its_dataset_canonically() {
        let run = RunConfig::mini(0);
        let dataset = |d: &str| deployed_spec(&run, d, 3).flags();
        assert_eq!(dataset("Computers"), dataset("computer"));
        assert_eq!(dataset("CS-mini"), dataset("coauthor-cs-mini"));
        let own = dataset("cora-mini-sparse");
        assert_eq!(
            own.mismatch(&dataset("cora-mini"))
                .map(|m| m.key)
                .as_deref(),
            Some("dataset")
        );
        assert_eq!(
            own.0
                .iter()
                .find(|(k, _)| k == "dataset")
                .map(|(_, v)| v.as_str()),
            Some("cora-mini-sparse")
        );
    }

    /// A half-open or still-draining connection must not hold a client id
    /// hostage: a re-handshake for the same id is admitted (latest wins)
    /// and the stale connection is shut down, instead of the rejoin being
    /// rejected as "already connected" forever.
    #[test]
    fn a_reconnect_evicts_the_stale_connection_instead_of_rejecting() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let spec = Flags(vec![("algo".into(), "FedOMD".into())]);
        let (tx, rx) = inbound_queue();
        let shared = Arc::new(SyncShared::new(0));

        let handshake = || -> TcpStream {
            let mut client = TcpStream::connect(addr).expect("connect");
            Hello {
                version: PROTOCOL_VERSION,
                client_id: 0,
                spec: spec.clone(),
            }
            .write_to(&mut client)
            .expect("hello");
            let (server_side, _) = listener.accept().expect("accept");
            admit(server_side, &spec, 1, 1024, &tx, &shared).expect("admit");
            client
        };

        let mut first = handshake();
        assert!(Welcome::read_from(&mut first).expect("welcome 1").accept);

        // The same id connects again while the first connection is still
        // open — exactly what the server sees after a client dies without
        // a FIN and comes back.
        let mut second = handshake();
        let welcome = Welcome::read_from(&mut second).expect("welcome 2");
        assert!(welcome.accept, "latest must win, got {:?}", welcome.reason);

        // The eviction shut the first connection down: its next read ends
        // (EOF or reset) instead of hanging.
        first
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        match first.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("the evicted connection is still being served"),
        }

        // The round driver ends up with exactly one peer for the id — the
        // second connection's generation — whatever order the abandoned
        // reader's departure notice arrives in.
        let mut chan = TcpServerChannel::new(rx, Duration::from_millis(50), shared);
        let n = chan.wait_for_peers(2, Duration::from_millis(500));
        assert_eq!(n, 1, "one live peer, not zero (evicted) or two (dup)");
    }
}
