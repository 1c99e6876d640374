//! The round-event taxonomy: everything a federated run can tell an
//! observer, as plain data.
//!
//! Events are deliberately coarse — one per *milestone*, not one per
//! tensor — so emitting them costs nanoseconds against round bodies that
//! cost milliseconds. The [`RoundEvent::to_json`] encoding is the JSONL
//! wire format consumed by `fedomd_run --telemetry` (see DESIGN.md §10
//! for the sink contract and overhead budget).

use fedomd_jsonio::{obj, Json};

/// The wall-clock phases a communication round decomposes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Client-side forward/backward/step work.
    LocalTrain,
    /// Frame encode/transmit/collect time (both directions).
    Comms,
    /// Server-side aggregation (FedAvg, statistics reduction).
    Aggregation,
    /// Validation/test evaluation.
    Eval,
    /// The TCP server's weight phase: remote clients train while the
    /// server folds the uploads that already landed (covers both, since
    /// they share the wall-clock interval).
    FoldOverlap,
}

impl Phase {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            Phase::LocalTrain => "local_train",
            Phase::Comms => "comms",
            Phase::Aggregation => "aggregation",
            Phase::Eval => "eval",
            Phase::FoldOverlap => "fold_overlap",
        }
    }
}

/// One structured milestone of a federated run.
///
/// A well-formed run emits `RunStarted`, then per round `RoundStarted`
/// followed by any number of `LocalStepDone` / frame / stats / phase
/// events and a closing `RoundFinished`, then (optionally) `EarlyStopped`,
/// and finally exactly one `RunFinished`.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundEvent {
    /// A run began.
    RunStarted {
        /// The run's spec, `(key, value)` pairs in order: the algorithm,
        /// the party count, the dataset where the entry point knows it,
        /// the training schedule and FedOMD's objective (the flags that
        /// would launch it, `fedomd_federated::RunSpec`).
        spec: Vec<(String, String)>,
    },
    /// A communication round began.
    RoundStarted {
        /// 0-based round index.
        round: u64,
    },
    /// One client finished one local optimisation step.
    LocalStepDone {
        /// Client index.
        client: u32,
        /// Local epoch within the round (0-based).
        epoch: u32,
        /// Total training loss (CE + α·ortho + β·CMD where applicable).
        loss: f64,
        /// Cross-entropy component.
        ce: f64,
        /// Scaled orthogonality component (0 when the term is off).
        ortho: f64,
        /// Scaled CMD component (0 when the term is off or the client
        /// missed the global statistics).
        cmd: f64,
    },
    /// An encoded frame crossed the wire, reported once by the run's
    /// driver: at send on the in-process round and the TCP client, at
    /// admission (uplink) and broadcast (downlink) on the TCP server. The
    /// run's byte ledger is the fold of these events, sorted by `kind`.
    FrameSent {
        /// Payload kind (`"WeightUpdate"`, `"StatsRound1"`, ...).
        kind: &'static str,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// A frame never reached its destination (dropped, past its deadline,
    /// or written to a peer that is gone), reported once by the driver of
    /// the transport that discarded it.
    FrameDropped {
        /// Payload kind of the lost frame.
        kind: &'static str,
        /// Encoded size of the lost frame.
        bytes: u64,
    },
    /// The first statistics round (means up, global means down) finished.
    StatsRound1Done {
        /// Clients whose means actually reached the server.
        participants: usize,
    },
    /// The second statistics round (central moments) finished.
    StatsRound2Done {
        /// Clients whose moments actually reached the server.
        participants: usize,
    },
    /// The server aggregated this round's weight updates.
    AggregationDone {
        /// Clients whose updates arrived (≤ party count under faults).
        participants: usize,
    },
    /// A wall-clock phase segment completed. A round may emit several
    /// segments for the same phase; consumers sum them.
    PhaseDone {
        /// Which phase.
        phase: Phase,
        /// Elapsed wall-clock microseconds.
        micros: u64,
    },
    /// An evaluation-schedule round was scored.
    EvalDone {
        /// Round index that was evaluated.
        round: u64,
        /// Test-size-weighted validation accuracy.
        val_acc: f64,
        /// Test-size-weighted test accuracy.
        test_acc: f64,
    },
    /// Early stopping triggered (the run ends after this round).
    EarlyStopped {
        /// Round at which patience ran out.
        round: u64,
    },
    /// A run checkpoint was durably written (atomic rename completed).
    CheckpointSaved {
        /// Last round covered by the snapshot (a resume re-enters at
        /// `round + 1`).
        round: u64,
        /// Destination path of the checkpoint file.
        path: String,
        /// Size of the serialised checkpoint in bytes.
        bytes: u64,
    },
    /// The run resumed from a checkpoint instead of starting fresh.
    Resumed {
        /// First round the resumed run will execute.
        round: u64,
    },
    /// A communication round finished; counters are cumulative.
    RoundFinished {
        /// 0-based round index.
        round: u64,
        /// Cumulative client → server bytes.
        uplink_bytes: u64,
        /// Cumulative server → client bytes.
        downlink_bytes: u64,
        /// Cumulative messages lost in transit.
        dropped_messages: u64,
    },
    /// The run completed.
    RunFinished {
        /// Algorithm name.
        algorithm: String,
        /// Test accuracy at the best-validation round.
        test_acc: f64,
        /// Best validation accuracy.
        val_acc: f64,
        /// Round of the best validation accuracy.
        best_round: u64,
        /// Communication rounds actually run.
        rounds: u64,
    },
}

impl RoundEvent {
    /// Stable event-kind tag (the `"event"` field of the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            RoundEvent::RunStarted { .. } => "run_started",
            RoundEvent::RoundStarted { .. } => "round_started",
            RoundEvent::LocalStepDone { .. } => "local_step_done",
            RoundEvent::FrameSent { .. } => "frame_sent",
            RoundEvent::FrameDropped { .. } => "frame_dropped",
            RoundEvent::StatsRound1Done { .. } => "stats_round1_done",
            RoundEvent::StatsRound2Done { .. } => "stats_round2_done",
            RoundEvent::AggregationDone { .. } => "aggregation_done",
            RoundEvent::PhaseDone { .. } => "phase_done",
            RoundEvent::EvalDone { .. } => "eval_done",
            RoundEvent::EarlyStopped { .. } => "early_stopped",
            RoundEvent::CheckpointSaved { .. } => "checkpoint_saved",
            RoundEvent::Resumed { .. } => "resumed",
            RoundEvent::RoundFinished { .. } => "round_finished",
            RoundEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// Encodes the event as one flat JSON object (field order fixed, the
    /// `"event"` tag first).
    pub fn to_json(&self) -> Json {
        let tag = ("event", Json::from(self.kind()));
        match self {
            RoundEvent::RunStarted { spec } => {
                let pairs = spec.iter().map(|(k, v)| (k.clone(), v.as_str().into()));
                obj([tag, ("spec", Json::Obj(pairs.collect()))])
            }
            RoundEvent::RoundStarted { round } => obj([tag, ("round", (*round).into())]),
            RoundEvent::LocalStepDone {
                client,
                epoch,
                loss,
                ce,
                ortho,
                cmd,
            } => obj([
                tag,
                ("client", (*client as u64).into()),
                ("epoch", (*epoch as u64).into()),
                ("loss", Json::Num(*loss)),
                ("ce", Json::Num(*ce)),
                ("ortho", Json::Num(*ortho)),
                ("cmd", Json::Num(*cmd)),
            ]),
            RoundEvent::FrameSent { kind, bytes } => {
                obj([tag, ("kind", (*kind).into()), ("bytes", (*bytes).into())])
            }
            RoundEvent::FrameDropped { kind, bytes } => {
                obj([tag, ("kind", (*kind).into()), ("bytes", (*bytes).into())])
            }
            RoundEvent::StatsRound1Done { participants } => {
                obj([tag, ("participants", (*participants).into())])
            }
            RoundEvent::StatsRound2Done { participants } => {
                obj([tag, ("participants", (*participants).into())])
            }
            RoundEvent::AggregationDone { participants } => {
                obj([tag, ("participants", (*participants).into())])
            }
            RoundEvent::PhaseDone { phase, micros } => obj([
                tag,
                ("phase", phase.name().into()),
                ("micros", (*micros).into()),
            ]),
            RoundEvent::EvalDone {
                round,
                val_acc,
                test_acc,
            } => obj([
                tag,
                ("round", (*round).into()),
                ("val_acc", Json::Num(*val_acc)),
                ("test_acc", Json::Num(*test_acc)),
            ]),
            RoundEvent::EarlyStopped { round } => obj([tag, ("round", (*round).into())]),
            RoundEvent::CheckpointSaved { round, path, bytes } => obj([
                tag,
                ("round", (*round).into()),
                ("path", path.as_str().into()),
                ("bytes", (*bytes).into()),
            ]),
            RoundEvent::Resumed { round } => obj([tag, ("round", (*round).into())]),
            RoundEvent::RoundFinished {
                round,
                uplink_bytes,
                downlink_bytes,
                dropped_messages,
            } => obj([
                tag,
                ("round", (*round).into()),
                ("uplink_bytes", (*uplink_bytes).into()),
                ("downlink_bytes", (*downlink_bytes).into()),
                ("dropped_messages", (*dropped_messages).into()),
            ]),
            RoundEvent::RunFinished {
                algorithm,
                test_acc,
                val_acc,
                best_round,
                rounds,
            } => obj([
                tag,
                ("algorithm", algorithm.as_str().into()),
                ("test_acc", Json::Num(*test_acc)),
                ("val_acc", Json::Num(*val_acc)),
                ("best_round", (*best_round).into()),
                ("rounds", (*rounds).into()),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::LocalTrain.name(), "local_train");
        assert_eq!(Phase::Comms.name(), "comms");
        assert_eq!(Phase::Aggregation.name(), "aggregation");
        assert_eq!(Phase::Eval.name(), "eval");
        assert_eq!(Phase::FoldOverlap.name(), "fold_overlap");
    }

    #[test]
    fn json_encoding_leads_with_the_event_tag() {
        let ev = RoundEvent::EvalDone {
            round: 3,
            val_acc: 0.5,
            test_acc: 0.25,
        };
        let json = ev.to_json();
        assert_eq!(
            json.get("event").and_then(|j| j.as_str()),
            Some("eval_done")
        );
        assert_eq!(json.get("round").and_then(|j| j.as_u64()), Some(3));
        assert_eq!(json.get("val_acc").and_then(|j| j.as_f64()), Some(0.5));
        // The tag must be the first field so `grep '"event":"eval_done"'`
        // style stream filters work on prefixes.
        assert!(json.to_string().starts_with("{\"event\":"));
    }

    #[test]
    fn every_variant_roundtrips_through_jsonio() {
        let events = vec![
            RoundEvent::RunStarted {
                spec: vec![("algo".into(), "FedOMD".into())],
            },
            RoundEvent::RoundStarted { round: 0 },
            RoundEvent::LocalStepDone {
                client: 1,
                epoch: 0,
                loss: 1.25,
                ce: 1.0,
                ortho: 0.05,
                cmd: 0.2,
            },
            RoundEvent::FrameSent {
                kind: "WeightUpdate",
                bytes: 426,
            },
            RoundEvent::FrameDropped {
                kind: "StatsRound1",
                bytes: 66,
            },
            RoundEvent::StatsRound1Done { participants: 3 },
            RoundEvent::StatsRound2Done { participants: 2 },
            RoundEvent::AggregationDone { participants: 3 },
            RoundEvent::PhaseDone {
                phase: Phase::Comms,
                micros: 1234,
            },
            RoundEvent::PhaseDone {
                phase: Phase::FoldOverlap,
                micros: 56,
            },
            RoundEvent::EvalDone {
                round: 0,
                val_acc: 0.5,
                test_acc: 0.5,
            },
            RoundEvent::EarlyStopped { round: 7 },
            RoundEvent::CheckpointSaved {
                round: 4,
                path: "run.ckpt".into(),
                bytes: 2048,
            },
            RoundEvent::Resumed { round: 5 },
            RoundEvent::RoundFinished {
                round: 0,
                uplink_bytes: 100,
                downlink_bytes: 200,
                dropped_messages: 1,
            },
            RoundEvent::RunFinished {
                algorithm: "FedOMD".into(),
                test_acc: 0.5,
                val_acc: 0.6,
                best_round: 4,
                rounds: 8,
            },
        ];
        for ev in events {
            let line = ev.to_json().to_string();
            let parsed = Json::parse(&line).expect("event line must be valid JSON");
            assert_eq!(
                parsed.get("event").and_then(|j| j.as_str()),
                Some(ev.kind()),
                "{line}"
            );
        }
    }
}
