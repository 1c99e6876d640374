//! Per-layer probes: one client's local step and the server's per-upload
//! path, replayed through the layers' public functions on the workload's
//! own shapes (shard 0's features, adjacency, model and encoded frame).
//!
//! This is the only file allowed to import kernel-level APIs; when an
//! internal signature changes, the probes break and the end-to-end path
//! in `workloads.rs` does not. Every iteration of every probe is a span.

use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use fedomd_autograd::cmd::{cmd_grad_weighted, cmd_value_weighted};
use fedomd_autograd::{CmdTargets, Tape, Var, Workspace};
use fedomd_core::{
    build_fedomd_model, build_targets, client_means, client_moments_about, GlobalStats,
    MeanAccumulator, MomentAccumulator, RunConfig,
};
use fedomd_federated::engine::{build_model, ModelKind};
use fedomd_federated::helpers::{count_correct, predict};
use fedomd_federated::{ClientData, CohortConfig, UpdateAccumulator};
use fedomd_net::{read_frame, write_frame};
use fedomd_nn::{Adam, Model, Optimizer};
use fedomd_sparse::normalized_adjacency;
use fedomd_tensor::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedomd_tensor::stats::central_moments_upto;
use fedomd_tensor::Matrix;
use fedomd_transport::wire::crc32;
use fedomd_transport::{
    to_tensors, Channel, Control, Envelope, InProcChannel, Payload, DEFAULT_MAX_FRAME_BYTES,
};

use crate::stats::median;
use crate::trace::{us, Spans};

/// What the probes need to know about the workload.
pub struct ProbeInput<'a> {
    pub shard: &'a ClientData,
    pub n_classes: usize,
    pub run: &'a RunConfig,
    /// FedOMD objective and model (else the generic engine's plain GCN).
    pub fedomd: bool,
    /// The run crosses a real socket.
    pub tcp: bool,
    pub parties: usize,
    pub cohort: CohortConfig,
    /// Timed iterations per probe (after `warmup` untimed ones).
    pub iters: usize,
    pub warmup: usize,
}

/// `(metric name, value)`; a metric whose layer the workload does not run
/// is simply not in the list.
pub type ProbeValues = Vec<(&'static str, f64)>;

pub struct ProbeOutcome {
    pub values: ProbeValues,
    /// One client's share of a local step — forward, backward, Adam,
    /// post-step and the parameter copy — for `proc.probe_coverage`.
    pub client_step_ms: f64,
}

struct Prober<'a> {
    epoch: Instant,
    spans: &'a mut Spans,
    root: usize,
    iters: usize,
    warmup: usize,
    out: ProbeValues,
}

impl Prober<'_> {
    /// Times `body` on a fresh `setup()` value per iteration and returns
    /// the median in milliseconds; each timed iteration becomes a span
    /// named after the metric.
    fn time<T>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut() -> T,
        mut body: impl FnMut(T),
    ) -> f64 {
        let mut samples = Vec::with_capacity(self.iters);
        for i in 0..self.warmup + self.iters {
            let input = setup();
            let start = self.epoch.elapsed();
            body(input);
            let end = self.epoch.elapsed();
            if i >= self.warmup {
                self.span(name, us(start), us(end));
                samples.push((end - start).as_secs_f64() * 1e3);
            }
        }
        median(&samples).unwrap_or(0.0)
    }

    fn span(&mut self, name: &str, start_us: f64, end_us: f64) {
        self.spans.push(Some(self.root), name, start_us, end_us);
    }

    /// [`Self::time`] recorded under `name` in milliseconds.
    fn ms<T>(&mut self, name: &'static str, setup: impl FnMut() -> T, body: impl FnMut(T)) -> f64 {
        let v = self.time(name, setup, body);
        self.out.push((name, v));
        v
    }

    /// [`Self::time`] recorded under `name` in microseconds.
    fn us<T>(&mut self, name: &'static str, setup: impl FnMut() -> T, body: impl FnMut(T)) {
        let v = self.time(name, setup, body) * 1e3;
        self.out.push((name, v));
    }
}

fn gflops(flops: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        flops / (ms * 1e6)
    } else {
        0.0
    }
}

/// Sums `make(v)` over `vars` on the tape, as the trainer does.
fn sum_terms(
    tape: &mut Tape,
    vars: &[Var],
    mut make: impl FnMut(&mut Tape, usize, Var) -> Var,
) -> Option<Var> {
    let mut acc: Option<Var> = None;
    for (i, &v) in vars.iter().enumerate() {
        let term = make(tape, i, v);
        acc = Some(match acc {
            None => term,
            Some(a) => tape.add(a, term),
        });
    }
    acc
}

/// Runs every probe; spans go under a new `probes` root in `spans`.
pub fn run(input: &ProbeInput<'_>, epoch: Instant, spans: &mut Spans) -> ProbeOutcome {
    let start = us(epoch.elapsed());
    let root = spans.push(None, "probes", start, start);
    let mut p = Prober {
        epoch,
        spans,
        root,
        iters: input.iters,
        warmup: input.warmup,
        out: Vec::new(),
    };
    let shard = input.shard;
    let (train, omd) = (&input.run.train, &input.run.omd);
    let mut model: Box<dyn Model> = if input.fedomd {
        build_fedomd_model(train, omd, shard.input.n_features(), input.n_classes)
    } else {
        build_model(
            ModelKind::Gcn,
            shard,
            input.n_classes,
            train.hidden_dim,
            train.seed,
        )
    };
    let params = model.params();
    let n = shard.n_nodes();
    let (f, h) = params[0].shape();

    // The hidden activations of shard 0 under the initial model: the
    // operand every hidden-width probe below works on.
    let hidden: Vec<Matrix> = {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &shard.input);
        out.hidden.iter().map(|&v| tape.value(v).clone()).collect()
    };
    let hidden_refs: Vec<&Matrix> = hidden.iter().collect();
    let z = &hidden[0];

    // sparse
    p.ms(
        "sparse.normalize_ms",
        || (),
        |()| {
            std::hint::black_box(normalized_adjacency(n, &shard.edges));
        },
    );
    let s = &shard.input.s;
    let mut sz = Matrix::zeros(n, h);
    let spmm_ms = p.ms(
        "sparse.spmm_ms",
        || (),
        |()| s.spmm_into(std::hint::black_box(z), &mut sz),
    );
    p.out.push(("sparse.spmm_nnz", s.nnz() as f64));
    p.out.push((
        "sparse.spmm_gflops",
        gflops(2.0 * s.nnz() as f64 * h as f64, spmm_ms),
    ));

    // tensor: the three GEMM shapes of a step. The hidden activation
    // stands in for the hidden-width gradient (same shape, same ReLU zero
    // pattern, which the zero-skip dispatcher looks at).
    let sx = &shard.input.sx;
    let mut xw = Matrix::zeros(n, h);
    let fwd_ms = p.ms(
        "tensor.gemm_fwd_ms",
        || (),
        |()| matmul_into(std::hint::black_box(sx), &params[0], &mut xw),
    );
    let mut wgrad = Matrix::zeros(f, h);
    let wgrad_ms = p.ms(
        "tensor.gemm_wgrad_ms",
        || (),
        |()| matmul_tn_into(std::hint::black_box(sx), z, &mut wgrad),
    );
    let hh = Matrix::from_fn(h, h, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5);
    let mut igrad = Matrix::zeros(n, h);
    let igrad_ms = p.ms(
        "tensor.gemm_igrad_ms",
        || (),
        |()| matmul_nt_into(std::hint::black_box(z), &hh, &mut igrad),
    );
    p.out.push((
        "tensor.gemm_gflops",
        gflops(2.0 * n as f64 * f as f64 * h as f64, fwd_ms),
    ));

    // core statistics protocol + the CMD kernels (FedOMD only).
    let mut targets: Vec<CmdTargets> = Vec::new();
    let mut cmd_ms = 0.0;
    if input.fedomd && omd.use_cmd {
        let center = fedomd_tensor::column_means(z);
        p.ms(
            "tensor.moments_ms",
            || (),
            |()| {
                std::hint::black_box(central_moments_upto(z, &center, omd.max_moment));
            },
        );
        let means = client_means(&hidden_refs);
        p.ms(
            "core.stats.means_ms",
            || (),
            |()| {
                std::hint::black_box(client_means(&hidden_refs));
            },
        );
        let moments = client_moments_about(&hidden_refs, &means, omd.max_moment);
        p.ms(
            "core.stats.moments_ms",
            || (),
            |()| {
                std::hint::black_box(client_moments_about(&hidden_refs, &means, omd.max_moment));
            },
        );
        let (mut mean_acc, mut moment_acc) = (MeanAccumulator::new(), MomentAccumulator::new());
        p.ms(
            "core.stats.fold_ms",
            || (),
            |()| {
                mean_acc.push(&means, n).expect("same shape every push");
                moment_acc.push(&moments, n).expect("same shape every push");
            },
        );
        let stats = GlobalStats { means, moments };
        p.ms(
            "core.stats.targets_ms",
            || (),
            |()| {
                std::hint::black_box(build_targets(&stats));
            },
        );
        targets = build_targets(&stats);
        let value_ms = p.ms(
            "autograd.cmd_value_ms",
            || (),
            |()| {
                std::hint::black_box(cmd_value_weighted(
                    z,
                    &targets[0],
                    omd.width,
                    omd.cmd_mean_scale,
                ));
            },
        );
        let grad_ms = p.ms(
            "autograd.cmd_grad_ms",
            || (),
            |()| {
                std::hint::black_box(cmd_grad_weighted(
                    z,
                    &targets[0],
                    omd.width,
                    1.0,
                    omd.cmd_mean_scale,
                ));
            },
        );
        let constrained = if omd.cmd_first_layer_only {
            1
        } else {
            hidden.len()
        };
        cmd_ms = constrained as f64 * (value_ms + grad_ms);
    }

    // autograd: forward (model + objective on a tape with a reused
    // workspace) and backward, timed in the same iteration.
    let mut ws = Workspace::new();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let mut tape_nodes = 0;
    let mut grads: Vec<Matrix> = Vec::new();
    for i in 0..p.warmup + p.iters {
        let mut tape = Tape::with_workspace(std::mem::take(&mut ws));
        let t0 = p.epoch.elapsed();
        let out = model.forward(&mut tape, &shard.input);
        let mut loss = tape.softmax_cross_entropy(out.logits, &shard.labels, &shard.splits.train);
        if input.fedomd && omd.use_ortho {
            if let Some(pen) = sum_terms(&mut tape, &out.ortho_weight_vars, |t, _, w| {
                t.ortho_penalty(w)
            }) {
                let scaled = tape.scale(pen, omd.alpha);
                loss = tape.add(loss, scaled);
            }
        }
        if !targets.is_empty() {
            let k = if omd.cmd_first_layer_only {
                1
            } else {
                out.hidden.len()
            };
            if let Some(cmd) = sum_terms(&mut tape, &out.hidden[..k], |t, i, hv| {
                t.cmd_loss_weighted(hv, &targets[i], omd.width, omd.cmd_mean_scale)
            }) {
                let scaled = tape.scale(cmd, omd.beta);
                loss = tape.add(loss, scaled);
            }
        }
        let t1 = p.epoch.elapsed();
        tape.backward(loss);
        let t2 = p.epoch.elapsed();
        tape_nodes = tape.len();
        if i >= p.warmup {
            p.span("autograd.forward_ms", us(t0), us(t1));
            p.span("autograd.backward_ms", us(t1), us(t2));
            fwd.push((t1 - t0).as_secs_f64() * 1e3);
            bwd.push((t2 - t1).as_secs_f64() * 1e3);
        }
        if grads.is_empty() {
            grads = out
                .param_vars
                .iter()
                .map(|&v| tape.grad_or_zeros(v))
                .collect();
        }
        ws = tape.recycle();
    }
    let forward_ms = median(&fwd).unwrap_or(0.0);
    let backward_ms = median(&bwd).unwrap_or(0.0);
    p.out.push(("autograd.forward_ms", forward_ms));
    p.out.push(("autograd.backward_ms", backward_ms));
    p.out.push(("autograd.tape_nodes", tape_nodes as f64));
    // The kernels a step contains, by the probes above: the input-layer
    // product and its weight gradient, and per further hidden layer two
    // hidden-width products (forward and input gradient) and two SpMMs.
    // What is left is the output layer, activations, losses, buffer
    // copies and tape bookkeeping.
    let extra_layers = (hidden.len() - 1) as f64;
    let kernels = fwd_ms + wgrad_ms + extra_layers * 2.0 * (igrad_ms + spmm_ms) + cmd_ms;
    p.out
        .push(("autograd.overhead_ms", forward_ms + backward_ms - kernels));

    // nn
    let mut opt = Adam::new(train.lr, train.weight_decay);
    let adam_ms = p.ms(
        "nn.adam_step_ms",
        || params.clone(),
        |mut ps| opt.step(&mut ps, &grads),
    );
    // Newton–Schulz runs every tenth step: time ten calls, report one.
    const NS_CADENCE: usize = 10;
    let post10 = p.time(
        "nn.post_step_ms",
        || (),
        |()| {
            for _ in 0..NS_CADENCE {
                model.post_step();
            }
        },
    );
    let post_ms = post10 / NS_CADENCE as f64;
    p.out.push(("nn.post_step_ms", post_ms));
    let copy_ms = p.ms(
        "nn.params_copy_ms",
        || (),
        |()| {
            let ps = model.params();
            model.set_params(&ps);
        },
    );
    p.out.push(("nn.model_scalars", model.n_scalars() as f64));

    // federated
    let mut acc = UpdateAccumulator::new();
    acc.push(&params, 1.0);
    p.ms("federated.fold_ms", || (), |()| acc.push(&params, 1.0));
    p.ms(
        "federated.fold_finish_ms",
        || acc.clone(),
        |a| {
            std::hint::black_box(a.finish());
        },
    );
    let mut round = 0u64;
    p.us(
        "federated.cohort_sample_us",
        || (),
        |()| {
            round += 1;
            std::hint::black_box(input.cohort.sample(round, input.parties));
        },
    );
    p.ms(
        "federated.eval_ms",
        || (),
        |()| {
            let logits = predict(model.as_ref(), shard);
            std::hint::black_box((
                count_correct(&logits, &shard.labels, &shard.splits.val),
                count_correct(&logits, &shard.labels, &shard.splits.test),
            ));
        },
    );

    // transport: the weight frame this workload uploads.
    let env = Envelope {
        round: 0,
        sender: 0,
        payload: Payload::WeightUpdate {
            params: to_tensors(&params),
        },
    };
    let frame = env.encode();
    p.out.push(("transport.frame_bytes", frame.len() as f64));
    p.ms(
        "transport.encode_ms",
        || (),
        |()| {
            std::hint::black_box(env.encode());
        },
    );
    p.ms(
        "transport.decode_ms",
        || (),
        |()| {
            std::hint::black_box(Envelope::decode(&frame).expect("own frame decodes"));
        },
    );
    let crc_ms = p.time(
        "transport.crc_mb_per_s",
        || (),
        |()| {
            std::hint::black_box(crc32(std::hint::black_box(&frame)));
        },
    );
    if crc_ms > 0.0 {
        p.out
            .push(("transport.crc_mb_per_s", frame.len() as f64 / 1e3 / crc_ms));
    }
    let mut chan = InProcChannel::new();
    p.us(
        "transport.inproc_roundtrip_us",
        || env.clone(),
        |e| {
            chan.upload(e);
            std::hint::black_box(chan.server_collect(0));
        },
    );

    // net: the same frame, and a control-sized one, echoed across a
    // loopback socket pair.
    if input.tcp {
        net_probes(&mut p, &env);
    }

    p.spans.0[root].end_us = us(epoch.elapsed());
    ProbeOutcome {
        values: p.out,
        client_step_ms: forward_ms + backward_ms + adam_ms + post_ms + copy_ms,
    }
}

fn net_probes(p: &mut Prober<'_>, weights: &Envelope) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback for the echo probe");
    let addr = listener.local_addr().expect("echo address");
    std::thread::scope(|s| {
        // Echo peer: decodes every frame and writes it back, until the
        // probe side closes the connection.
        let echo = s.spawn(move || {
            let (mut sock, _) = listener.accept().expect("echo accept");
            sock.set_nodelay(true).expect("nodelay");
            while let Ok((env, _)) = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES) {
                if write_frame(&mut sock, &env).is_err() {
                    break;
                }
            }
        });
        let mut sock = TcpStream::connect(addr).expect("echo connect");
        sock.set_nodelay(true).expect("nodelay");
        let rtt = |env: &Envelope, sock: &mut TcpStream| {
            write_frame(sock, env).expect("echo write");
            std::hint::black_box(read_frame(sock, DEFAULT_MAX_FRAME_BYTES).expect("echo read"));
        };
        p.ms("net.frame_rtt_ms", || (), |()| rtt(weights, &mut sock));
        let small = Envelope {
            round: 0,
            sender: 0,
            payload: Payload::Control(Control::Ack),
        };
        p.us("net.small_frame_rtt_us", || (), |()| rtt(&small, &mut sock));
        drop(sock);
        echo.join().expect("echo thread");
    });
}
