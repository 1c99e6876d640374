//! The seven workloads and the end-to-end path that runs them.
//!
//! API-surface rule: this file imports only the run-level surface a user
//! of the system calls — dataset generation, federation set-up, `FedRun`,
//! `run_baseline_observed`, `serve_on`/`run_client`, and the observer
//! trait. Kernel-level imports live in `probes.rs`, so an internal API
//! change can break the probes but not the end-to-end numbers. The configs
//! are written as struct-updates over the `mini`/`paper` presets so that
//! fields a later PR deletes never have to be named here.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fedomd_core::{FedRun, RunConfig};
use fedomd_data::{generate, spec, DatasetName, SynthParams};
use fedomd_federated::baselines::{run_baseline_observed, Baseline};
use fedomd_federated::{
    setup_federation, setup_federation_planted, ClientData, CohortConfig, FederationConfig,
    RunResult, TrainConfig,
};
use fedomd_net::{run_client, serve_on, ClientOpts, NetConfig, ServeOpts};
use fedomd_telemetry::{NullObserver, RoundObserver};

use crate::stats::Fnv1a;
use crate::trace::Recorder;

/// How a workload's rounds are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `FedRun` over the default in-process channel.
    InProc,
    /// `serve_on` on the calling thread plus one `run_client` thread per
    /// party, over TCP loopback.
    Tcp,
    /// `run_baseline_observed(Baseline::FedGcn, …)`: the generic engine.
    Baseline,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Data {
    Spec(DatasetName),
    /// 600 nodes × 8192 features: a ~1 MB weight frame on a small graph.
    Wide,
    /// `SynthParams::many_party(5000)`, cut along the planted communities.
    ManyParty,
    /// `spec(CoraMini)` with 4 instead of 8 non-zero features per node.
    /// At 8, S·X is 24–29 % dense — astride the GEMM dispatcher's 25 %
    /// zero-skip threshold — so the kernel, and with it the round time by
    /// 40 %, flipped with the seed. At 4 every seed stays on the zero-skip
    /// side, as the real Cora (1.3 % dense) does.
    SparseCoraMini,
}

/// One benchmark workload. `rounds` is the length of one repetition; a
/// measurement repeats whole runs (set-up included) until its time is up.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rounds: usize,
    pub transport: Transport,
    data: Data,
    parties: usize,
    /// `RunConfig::paper` + `FederationConfig::paper` (else the `mini` pair).
    paper: bool,
    /// Share of the parties sampled per round (1.0: everyone).
    cohort_frac: f64,
    /// `result_digest` of one repetition at seeds 0 and 1, as first
    /// recorded. A run prints MATCH or CHANGED against them; CHANGED is
    /// not an error (a change may alter arithmetic on purpose), but a PR
    /// that says "arithmetic untouched" can be held to MATCH.
    digests: [u64; 2],
}

const COHORT_PARTIES: usize = 5000;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "cora_paper",
        why: "paper headline setting: GEMM on sparse features, autograd, CMD and per-round eval dominate; transport is a rounding error",
        rounds: 40,
        transport: Transport::InProc,
        data: Data::Spec(DatasetName::Cora),
        parties: 3,
        paper: true,
        cohort_frac: 1.0,
        digests: [0x8191_ffeb_dc5f_664f, 0x629a_8810_708b_ebed],
    },
    Workload {
        name: "computer_paper",
        why: "only workload where SpMM and the Louvain cut are large: a GEMM-only gain moves cora_paper more, an SpMM gain this one",
        rounds: 10,
        transport: Transport::InProc,
        data: Data::Spec(DatasetName::Computer),
        parties: 5,
        paper: true,
        cohort_frac: 1.0,
        digests: [0x9e32_8d63_0759_1c39, 0x3a6a_4e4b_c634_145f],
    },
    Workload {
        name: "wide_tcp",
        why: "model-size-bound: ~1 MB weight frames through Adam, encode/CRC/decode, the socket and the fold (bandwidth-bound use of net+transport)",
        rounds: 60,
        transport: Transport::Tcp,
        data: Data::Wide,
        parties: 2,
        paper: false,
        cohort_frac: 1.0,
        digests: [0xfeca_5d55_8cb8_c6c9, 0x51b7_9158_6e97_58c4],
    },
    Workload {
        name: "mini_tcp",
        why: "latency-bound use of the same net+transport layers: tiny frames, ~8 hand-offs a round, so syscalls, wake-ups and tape overhead set the time",
        rounds: 500,
        transport: Transport::Tcp,
        data: Data::SparseCoraMini,
        parties: 2,
        paper: false,
        cohort_frac: 1.0,
        digests: [0xdc50_e064_3b61_6969, 0x83cf_a2af_7e59_4ee8],
    },
    Workload {
        name: "cohort_sampled",
        why: "100 of 5000 parties train: nearly all of a round is spectator cost (broadcast, pooled eval); set-up and RSS carry the per-party replicas",
        rounds: 10,
        transport: Transport::InProc,
        data: Data::ManyParty,
        parties: COHORT_PARTIES,
        paper: false,
        cohort_frac: 0.02,
        digests: [0xfc23_fc86_c9f9_f04b, 0x52a9_aac1_bf10_4bf5],
    },
    Workload {
        name: "cohort_full",
        why: "same federation, all 5000 upload: fold-bound, so a change that frees spectators at the participants' cost shows here",
        rounds: 3,
        transport: Transport::InProc,
        data: Data::ManyParty,
        parties: COHORT_PARTIES,
        paper: false,
        cohort_frac: 1.0,
        digests: [0xb2be_9fdf_ae69_03aa, 0x4604_801f_2b50_15ef],
    },
    Workload {
        name: "fedavg_mini",
        why: "bypass workload: generic engine with a plain GCN, no statistics protocol, CMD or ortho step; a core/CMD gain predicts no change here",
        rounds: 500,
        transport: Transport::Baseline,
        data: Data::Spec(DatasetName::ComputerMini),
        parties: 9,
        paper: false,
        cohort_frac: 1.0,
        digests: [0x0966_649b_1987_7322, 0x378e_fb5b_d6f0_8681],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated dataset cut into parties, with what set-up cost.
pub struct Prepared {
    pub dataset: String,
    pub n_classes: usize,
    pub clients: Vec<ClientData>,
    pub generate: Duration,
    pub partition: Duration,
}

/// What one run gave back.
pub struct Executed {
    /// Epoch time at which the run's entry point was called (for TCP:
    /// just before the listener is bound).
    pub entry: Duration,
    pub result: Result<RunResult, String>,
    /// Client 0's own event stream (TCP workloads, traced pass only).
    pub client0: Option<Recorder>,
}

impl Workload {
    fn dataset_params(&self) -> SynthParams {
        match self.data {
            Data::Spec(name) => spec(name),
            Data::Wide => SynthParams {
                name: "wide".into(),
                n_nodes: 600,
                n_edges: 1800,
                n_classes: 4,
                n_features: 8192,
                n_communities: 12,
                nnz_per_node: 16,
                class_signature_dims: 40,
                intra_ratio: 0.9,
                label_purity: 0.8,
            },
            Data::ManyParty => SynthParams::many_party(self.parties),
            Data::SparseCoraMini => SynthParams {
                name: "cora-mini-sparse".into(),
                nnz_per_node: 4,
                ..spec(DatasetName::CoraMini)
            },
        }
    }

    /// The cohort the run samples each round.
    pub fn cohort(&self, seed: u64) -> CohortConfig {
        if self.cohort_frac < 1.0 {
            CohortConfig::fraction(self.cohort_frac, seed)
        } else {
            CohortConfig::full()
        }
    }

    /// Participants every phase of a healthy round reports.
    pub fn cohort_size(&self, seed: u64) -> usize {
        self.cohort(seed).cohort_size(self.parties)
    }

    pub fn parties(&self) -> usize {
        self.parties
    }

    /// The digest recorded for `seed`, if one was.
    pub fn recorded_digest(&self, seed: u64) -> Option<u64> {
        self.digests.get(seed as usize).copied()
    }

    /// The run configuration: the preset, `rounds` rounds, evaluation every
    /// round (so rounds are alike) and no early stop (so the digest covers
    /// a fixed number of rounds).
    pub fn run_config(&self, seed: u64, rounds: usize) -> RunConfig {
        let base = if self.paper {
            TrainConfig::paper(seed)
        } else {
            TrainConfig::mini(seed)
        };
        let train = TrainConfig {
            rounds,
            patience: rounds,
            eval_every: 1,
            cohort: self.cohort(seed),
            ..base
        };
        RunConfig::paper(seed).with_train(train)
    }

    /// Generates the dataset and cuts it into parties, timing both.
    pub fn prepare(&self, seed: u64) -> Prepared {
        let t = Instant::now();
        let ds = generate(&self.dataset_params(), seed);
        let generated = t.elapsed();
        let fed = if self.paper {
            FederationConfig::paper(self.parties, seed)
        } else {
            FederationConfig::mini(self.parties, seed)
        };
        let clients = if self.data == Data::ManyParty {
            setup_federation_planted(&ds, &fed)
        } else {
            setup_federation(&ds, &fed)
        };
        Prepared {
            dataset: ds.name.clone(),
            n_classes: ds.n_classes,
            clients,
            generate: generated,
            partition: t.elapsed() - generated,
        }
    }

    /// Runs `rounds` rounds over `prepared`, reporting to `obs` (the
    /// server's observer on TCP). With `trace_client0`, client 0 of a TCP
    /// run records its own stream against the same `epoch`.
    pub fn execute(
        &self,
        prepared: &Prepared,
        seed: u64,
        rounds: usize,
        epoch: Instant,
        obs: &mut dyn RoundObserver,
        trace_client0: bool,
    ) -> Executed {
        let run = self.run_config(seed, rounds);
        let entry = epoch.elapsed();
        match self.transport {
            Transport::InProc => Executed {
                entry,
                result: Ok(inproc(prepared, run, obs)),
                client0: None,
            },
            Transport::Baseline => Executed {
                entry,
                result: Ok(run_baseline_observed(
                    Baseline::FedGcn,
                    &prepared.clients,
                    prepared.n_classes,
                    &run.train,
                    obs,
                )),
                client0: None,
            },
            Transport::Tcp => {
                let (result, client0) = tcp(prepared, &run, epoch, obs, trace_client0);
                Executed {
                    entry,
                    result,
                    client0,
                }
            }
        }
    }

    /// The same configuration over the default in-process channel — the
    /// twin a TCP workload's digest is checked against.
    pub fn execute_inproc_twin(
        &self,
        prepared: &Prepared,
        seed: u64,
        rounds: usize,
        obs: &mut dyn RoundObserver,
    ) -> RunResult {
        inproc(prepared, self.run_config(seed, rounds), obs)
    }
}

fn inproc(prepared: &Prepared, run: RunConfig, obs: &mut dyn RoundObserver) -> RunResult {
    FedRun::new(&prepared.clients, prepared.n_classes)
        .config(run)
        .observer(obs)
        .run()
}

/// Loopback deployment knobs, as in `benches/net_round.rs`: a phase that
/// waits 10 s is a failure the benchmark wants to see, not ride out.
fn loopback_net() -> NetConfig {
    NetConfig {
        phase_timeout: Duration::from_secs(10),
        connect_attempts: 100,
        connect_backoff: Duration::from_millis(10),
        join_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    }
}

fn tcp(
    prepared: &Prepared,
    run: &RunConfig,
    epoch: Instant,
    obs: &mut dyn RoundObserver,
    trace_client0: bool,
) -> (Result<RunResult, String>, Option<Recorder>) {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => return (Err(format!("bind loopback: {e}")), None),
    };
    let addr = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return (Err(format!("local addr: {e}")), None),
    };
    let net = loopback_net();
    let n = prepared.clients.len();
    let name = prepared.dataset.as_str();
    // The client threads are the deployment's own thread-per-client
    // threads, not load generators; the server runs on this thread.
    std::thread::scope(|s| {
        let workers: Vec<_> = prepared
            .clients
            .iter()
            .enumerate()
            .map(|(id, shard)| {
                let opts = ClientOpts {
                    addr: addr.clone(),
                    id: id as u32,
                    net,
                };
                s.spawn(move || {
                    let mut rec = (trace_client0 && id == 0).then(|| Recorder::new(epoch, 0));
                    let obs: &mut dyn RoundObserver = match rec.as_mut() {
                        Some(r) => r,
                        None => &mut NullObserver,
                    };
                    let report = run_client(&opts, run, name, n, shard, prepared.n_classes, obs);
                    (report.map_err(|e| e.to_string()), rec)
                })
            })
            .collect();
        let opts = ServeOpts {
            net,
            ..ServeOpts::new(n)
        };
        let mut result = serve_on(listener, &opts, run, name, obs).map_err(|e| e.to_string());
        let mut client0 = None;
        for (id, w) in workers.into_iter().enumerate() {
            match w.join() {
                Ok((Ok(report), rec)) => {
                    if report.reconnects > 0 && result.is_ok() {
                        result = Err(format!("client {id} lost the server and reconnected"));
                    }
                    client0 = client0.or(rec);
                }
                Ok((Err(e), _)) => result = Err(format!("client {id}: {e}")),
                Err(_) => result = Err(format!("client {id} panicked")),
            }
        }
        (result, client0)
    })
}

/// FNV-1a over the bits of everything a run reports about its learning:
/// final accuracies, best round and every history entry.
pub fn result_digest(r: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.f64(r.test_acc);
    h.f64(r.val_acc);
    h.u64(r.best_round as u64);
    for s in &r.history {
        h.u64(s.round as u64);
        h.f64(s.train_loss);
        h.f64(s.val_acc);
        h.f64(s.test_acc);
    }
    h.finish()
}

/// Test accuracy of predicting, on each party, the majority class of its
/// own training nodes (as `fedomd_run` reports it).
pub fn local_majority_floor(clients: &[ClientData], n_classes: usize) -> f64 {
    let (mut correct, mut total) = (0usize, 0usize);
    for c in clients {
        let mut counts = vec![0usize; n_classes];
        for &i in &c.splits.train {
            counts[c.labels[i]] += 1;
        }
        // First maximum, like `argmax_row`.
        let majority = (0..n_classes).rev().max_by_key(|&k| counts[k]).unwrap_or(0);
        correct += c
            .splits
            .test
            .iter()
            .filter(|&&i| c.labels[i] == majority)
            .count();
        total += c.splits.test.len();
    }
    correct as f64 / total.max(1) as f64
}
