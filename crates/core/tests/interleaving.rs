//! Exhaustive interleaving checks for the server's phase collector.
//!
//! `Collector::fold` (driven here through `drive_phase_fold`) promises
//! fold-on-arrival with a scheduling-independent result: whatever order
//! the transport surfaces uploads in — one frame per wait, any
//! permutation, any straggler subset — the payloads fold in ascending
//! sender order, bit-identical to the oracle (sort the arrivals by
//! sender, fold sequentially). These tests walk the whole small-model
//! state space: every arrival permutation of every arrival subset for
//! n ≤ 5, under both ways a phase can close (the stragglers departed; the
//! stragglers are live and the deadline passes), with n = 6 behind
//! `--ignored`. A third sweep interleaves out-of-phase metrics frames
//! between the weight uploads to exercise the admission filter, and a
//! fourth replays the stall that motivated the set-based close rule: a
//! late weight update from outside the cohort landing among the metrics
//! frames.
//!
//! The fold accumulator is order-sensitive (`s = s * 0.75 + x` with
//! repeating-fraction inputs), so a wrong fold order changes the bits.

use std::collections::{BTreeSet, VecDeque};

use fedomd_core::drive_phase_fold;
use fedomd_transport::{Channel, Envelope, Payload, Tensor};

/// A server-side transport mock that surfaces exactly one pre-loaded
/// frame per `server_await` — the finest-grained interleaving a transport
/// can produce — and answers liveness per sender. With the queue empty, a
/// real transport blocks while any sender the collector named is live;
/// the mock records that as a stall (a wait that runs into the phase
/// deadline) and returns the empty batch the deadline would.
struct Trickle {
    frames: VecDeque<Envelope>,
    live: BTreeSet<u32>,
    /// The `missing` list of every `server_await`, in call order.
    awaited: Vec<Vec<u32>>,
    stalls: usize,
}

impl Trickle {
    fn new(frames: Vec<Envelope>, live: impl IntoIterator<Item = u32>) -> Self {
        Self {
            frames: frames.into(),
            live: live.into_iter().collect(),
            awaited: Vec::new(),
            stalls: 0,
        }
    }
}

impl Channel for Trickle {
    fn upload(&mut self, env: Envelope) {
        self.frames.push_back(env);
    }

    fn server_collect(&mut self, _round: u64) -> Vec<Envelope> {
        self.frames.drain(..).collect()
    }

    fn server_await(&mut self, _round: u64, missing: &[u32]) -> Vec<Envelope> {
        self.awaited.push(missing.to_vec());
        if let Some(env) = self.frames.pop_front() {
            return vec![env];
        }
        if missing.iter().any(|id| self.live.contains(id)) {
            self.stalls += 1;
        }
        Vec::new()
    }

    fn download(&mut self, _to: u32, _env: Envelope) {}

    fn client_collect(&mut self, _id: u32, _round: u64) -> Vec<Envelope> {
        Vec::new()
    }
}

const ROUND: u64 = 3;

fn val(id: u32) -> f32 {
    (id as f32 + 1.0) / 3.0
}

fn weight_env(sender: u32) -> Envelope {
    Envelope {
        round: ROUND,
        sender,
        payload: Payload::WeightUpdate {
            params: vec![Tensor {
                rows: 1,
                cols: 1,
                data: vec![val(sender)],
            }],
        },
    }
}

fn metrics_env(sender: u32) -> Envelope {
    Envelope {
        round: ROUND,
        sender,
        payload: Payload::Metrics {
            train_loss: val(sender),
            val_correct: 0,
            val_total: 1,
            test_correct: 0,
            test_total: 1,
        },
    }
}

fn is_weight(env: &Envelope) -> bool {
    matches!(env.payload, Payload::WeightUpdate { .. })
}

fn is_metrics(env: &Envelope) -> bool {
    matches!(env.payload, Payload::Metrics { .. })
}

/// The order-sensitive fold both the collector runs and the oracle share.
fn fold_into(acc: &mut (f32, Vec<u32>), sender: u32) {
    acc.0 = acc.0 * 0.75 + val(sender);
    acc.1.push(sender);
}

/// All permutations of `items` (Heap's algorithm).
fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    fn heap(k: usize, a: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            if k.is_multiple_of(2) {
                a.swap(i, k - 1);
            } else {
                a.swap(0, k - 1);
            }
        }
    }
    let mut a = items.to_vec();
    let mut out = Vec::new();
    let n = a.len();
    heap(n, &mut a, &mut out);
    out
}

/// Every subset of `0..n`, as ascending id lists.
fn subsets(n: u32) -> Vec<Vec<u32>> {
    (0u32..1 << n)
        .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
        .collect()
}

/// The oracle: sort the arrivals by sender, fold sequentially.
fn oracle(arrived: &[u32]) -> (f32, Vec<u32>) {
    let mut sorted = arrived.to_vec();
    sorted.sort_unstable();
    let mut acc = (0.0f32, Vec::new());
    for id in sorted {
        fold_into(&mut acc, id);
    }
    acc
}

/// Folds the weight phase over `chan` for candidates `0..n`.
fn fold_weights(n: u32, chan: &mut Trickle) -> (f32, Vec<u32>) {
    let candidates: Vec<u32> = (0..n).collect();
    let mut acc = (0.0f32, Vec::new());
    drive_phase_fold(chan, ROUND, &candidates, is_weight, |env| {
        assert!(
            is_weight(&env),
            "admission filter leaked {}",
            env.payload.kind()
        );
        fold_into(&mut acc, env.sender)
    });
    acc
}

fn sweep(n: u32) {
    for arrived in subsets(n) {
        let (want_acc, want_order) = oracle(&arrived);
        let stragglers = arrived.len() < n as usize;
        for perm in permutations(&arrived) {
            let frames: Vec<Envelope> = perm.iter().map(|&id| weight_env(id)).collect();
            // Departure close (the stragglers left: nobody to wait for)
            // and deadline close (the stragglers are live and silent: one
            // wait, ended by the deadline).
            for (live, want_stalls) in [
                (arrived.clone(), 0),
                ((0..n).collect(), usize::from(stragglers)),
            ] {
                let mut chan = Trickle::new(frames.clone(), live.clone());
                let (acc, order) = fold_weights(n, &mut chan);
                let ctx = format!("n={n} perm {perm:?} live {live:?}");
                assert_eq!(
                    acc.to_bits(),
                    want_acc.to_bits(),
                    "{ctx}: fold-on-arrival diverged from the oracle"
                );
                assert_eq!(order, want_order, "{ctx}: fold order not ascending");
                assert_eq!(chan.stalls, want_stalls, "{ctx}: deadline waits");
            }
        }
    }
}

#[test]
fn all_arrival_orders_and_subsets_match_the_oracle_up_to_5() {
    for n in 1..=5 {
        sweep(n);
    }
}

#[test]
#[ignore = "3914 collector runs; nightly budget"]
fn all_arrival_orders_and_subsets_match_the_oracle_at_6() {
    sweep(6);
}

/// Out-of-phase frames interleaved at every position: metrics frames are
/// not admitted by the weight phase's filter and never perturb the fold,
/// wherever they land in the arrival order.
#[test]
fn out_of_phase_frames_never_perturb_the_fold() {
    let n = 3u32;
    let ids: Vec<u32> = (0..n).collect();
    let (want_acc, want_order) = oracle(&ids);
    // Permute the mixed sequence of 3 weight + 3 metrics frames by frame
    // index: 6! = 720 arrival orders.
    let index: Vec<u32> = (0..2 * n).collect();
    for perm in permutations(&index) {
        let frames: Vec<Envelope> = perm
            .iter()
            .map(|&k| {
                if k < n {
                    weight_env(k)
                } else {
                    metrics_env(k - n)
                }
            })
            .collect();
        let mut chan = Trickle::new(frames, 0..n);
        let (acc, order) = fold_weights(n, &mut chan);
        assert_eq!(acc.to_bits(), want_acc.to_bits(), "perm {perm:?}");
        assert_eq!(order, want_order, "perm {perm:?}");
        assert_eq!(chan.stalls, 0, "perm {perm:?}");
    }
}

/// The stall behind the set-based close rule. With cohort sampling over
/// TCP every client uploads its weights but the weight phase closes on
/// the sampled senders, so the unsampled sender's `WeightUpdate` lands
/// late — during the metrics phase. A transport that closes its wait on
/// "every live peer sent *something* this call" lets that stray frame
/// stand in for its sender's metrics, and the next wait then sits out the
/// whole deadline for peers with nothing left to send. Here the stray is
/// interleaved at every position among the three metrics frames (4! = 24
/// orders): the collector must name exactly the senders whose metrics are
/// still missing on every wait, never wait with nobody missing, and
/// close the phase without a single stall.
#[test]
fn a_late_out_of_cohort_weight_update_never_stalls_the_metrics_phase() {
    let n = 3u32;
    let candidates: Vec<u32> = (0..n).collect();
    let (want_acc, want_order) = oracle(&candidates);
    // Frame index 3 is the stray: sender 2's out-of-cohort weight update.
    let index: Vec<u32> = (0..=n).collect();
    for perm in permutations(&index) {
        let frames: Vec<Envelope> = perm
            .iter()
            .map(|&k| if k < n { metrics_env(k) } else { weight_env(2) })
            .collect();
        // Everyone is connected throughout: liveness cannot end the wait,
        // only the collector's own bookkeeping can.
        let mut chan = Trickle::new(frames, 0..n);
        let mut acc = (0.0f32, Vec::new());
        drive_phase_fold(&mut chan, ROUND, &candidates, is_metrics, |env| {
            fold_into(&mut acc, env.sender)
        });
        assert_eq!(acc.0.to_bits(), want_acc.to_bits(), "perm {perm:?}");
        assert_eq!(acc.1, want_order, "perm {perm:?}");
        assert_eq!(chan.stalls, 0, "perm {perm:?}: waited on a phantom");

        // Replay the arrival order: wait k must have named exactly the
        // senders whose metrics had not been delivered by then.
        let mut delivered: BTreeSet<u32> = BTreeSet::new();
        for (k, missing) in chan.awaited.iter().enumerate() {
            let want: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|id| !delivered.contains(id))
                .collect();
            assert!(
                !want.is_empty(),
                "perm {perm:?}: wait {k} had nobody missing"
            );
            assert_eq!(missing, &want, "perm {perm:?}: wait {k}");
            if perm[k] < n {
                delivered.insert(perm[k]);
            }
        }
    }
}
