//! Run-level checkpointing: the [`RunCheckpoint`] file format and the
//! [`FileCheckpointer`] sink that writes it.
//!
//! A run checkpoint is everything the paper's multi-hundred-round
//! experiments need to survive a crash: the next round index, every
//! client's model parameters and Adam moments, the driver's history and
//! early-stopping state, the comms accounting, the transport's
//! fault-stream cursor, and (for FedOMD) the last aggregated global model
//! and global statistics. A run killed at round `k` and resumed from its
//! latest snapshot replays the remaining rounds **bit-identically** to the
//! uninterrupted run — golden-tested in `tests/checkpoint_golden.rs`.
//!
//! Snapshots are written atomically ([`fedomd_jsonio::write_atomic`]:
//! tmp-file, fsync, rename), so a crash mid-save leaves the previous valid
//! snapshot in place; a file truncated by some other failure is rejected
//! on load with [`CheckpointError::Parse`], never silently half-restored.

use std::path::{Path, PathBuf};

use fedomd_federated::{
    CheckpointSink, CommsLog, DriverState, ResumeState, RoundStats, StatsCache,
};
use fedomd_jsonio::{obj, Json};
use fedomd_nn::{AdamState, CheckpointError};
use fedomd_telemetry::{RoundEvent, RoundObserver};
use fedomd_tensor::Matrix;
use fedomd_transport::{ChannelState, NetStats};

/// Magic tag identifying a run-checkpoint document.
const FORMAT: &str = "fedomd-run-checkpoint";
/// Current format version; bumped on incompatible schema changes.
const VERSION: u64 = 1;

/// One durable snapshot of a federated run at a round boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// Schema version (currently 1).
    pub version: u64,
    /// Algorithm name (`"FedOMD"`, `"FedGCN"`, ...); checked on resume so
    /// a snapshot never restores into a different algorithm's run.
    pub algorithm: String,
    /// Run seed; checked on resume for the same reason.
    pub seed: u64,
    /// The actual resume payload.
    pub state: ResumeState,
}

fn parse_err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Parse(msg.into())
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    doc.get(key)
        .ok_or_else(|| parse_err(format!("missing field `{key}`")))
}

/// An optional field: `None` when the value is `null`.
fn non_null<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a Json>, CheckpointError> {
    let v = field(doc, key)?;
    Ok(if let Json::Null = v { None } else { Some(v) })
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| parse_err(format!("field `{key}`: expected unsigned integer")))
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, CheckpointError> {
    Ok(get_u64(doc, key)? as usize)
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, CheckpointError> {
    field(doc, key)?
        .as_bool()
        .ok_or_else(|| parse_err(format!("field `{key}`: expected boolean")))
}

fn get_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| parse_err(format!("field `{key}`: expected array")))
}

/// JSON has no `-inf` (the printer would emit a lossy `null`), but
/// `DriverState::best_val` starts at `f64::NEG_INFINITY` — non-finite
/// values ride as sentinel strings instead.
fn f64_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v == f64::NEG_INFINITY {
        Json::Str("-inf".into())
    } else if v == f64::INFINITY {
        Json::Str("inf".into())
    } else {
        Json::Str("nan".into())
    }
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, CheckpointError> {
    match field(doc, key)? {
        Json::Num(v) => Ok(*v),
        Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Json::Str(s) if s == "nan" => Ok(f64::NAN),
        Json::Null | Json::Bool(_) | Json::Str(_) | Json::Arr(_) | Json::Obj(_) => {
            Err(parse_err(format!("field `{key}`: expected number")))
        }
    }
}

fn vec_f32_to_json(v: &[f32]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn vec_f32_from_json(v: &Json, what: &str) -> Result<Vec<f32>, CheckpointError> {
    v.as_array()
        .ok_or_else(|| parse_err(format!("{what}: expected array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| parse_err(format!("{what}: expected number")))
        })
        .collect()
}

fn matrices_to_json(ms: &[Matrix]) -> Json {
    Json::Arr(ms.iter().map(Matrix::to_json).collect())
}

fn matrices_from_json(v: &Json, what: &str) -> Result<Vec<Matrix>, CheckpointError> {
    v.as_array()
        .ok_or_else(|| parse_err(format!("{what}: expected array")))?
        .iter()
        .map(|m| Matrix::from_json(m).map_err(CheckpointError::Parse))
        .collect()
}

fn adam_to_json(s: &AdamState) -> Json {
    obj([
        ("t", s.t.into()),
        ("m", matrices_to_json(&s.m)),
        ("v", matrices_to_json(&s.v)),
    ])
}

fn adam_from_json(doc: &Json) -> Result<AdamState, CheckpointError> {
    Ok(AdamState {
        t: get_u64(doc, "t")?,
        m: matrices_from_json(field(doc, "m")?, "optim.m")?,
        v: matrices_from_json(field(doc, "v")?, "optim.v")?,
    })
}

fn net_stats_to_json(s: &NetStats) -> Json {
    obj([
        ("sent_frames", s.sent_frames.into()),
        ("sent_bytes", s.sent_bytes.into()),
        ("delivered_frames", s.delivered_frames.into()),
        ("delivered_bytes", s.delivered_bytes.into()),
        ("dropped_frames", s.dropped_frames.into()),
        ("retries", s.retries.into()),
    ])
}

fn net_stats_from_json(doc: &Json) -> Result<NetStats, CheckpointError> {
    Ok(NetStats {
        sent_frames: get_u64(doc, "sent_frames")?,
        sent_bytes: get_u64(doc, "sent_bytes")?,
        delivered_frames: get_u64(doc, "delivered_frames")?,
        delivered_bytes: get_u64(doc, "delivered_bytes")?,
        dropped_frames: get_u64(doc, "dropped_frames")?,
        retries: get_u64(doc, "retries")?,
    })
}

fn channel_to_json(s: &ChannelState) -> Json {
    obj([
        ("seq", s.seq.into()),
        ("stats", net_stats_to_json(&s.stats)),
    ])
}

fn channel_from_json(doc: &Json) -> Result<ChannelState, CheckpointError> {
    Ok(ChannelState {
        seq: get_u64(doc, "seq")?,
        stats: net_stats_from_json(field(doc, "stats")?)?,
    })
}

fn comms_to_json(c: &CommsLog) -> Json {
    obj([
        ("uplink_bytes", c.uplink_bytes.into()),
        ("downlink_bytes", c.downlink_bytes.into()),
        ("stats_uplink_bytes", c.stats_uplink_bytes.into()),
        ("rounds", c.rounds.into()),
        ("dropped_messages", c.dropped_messages.into()),
    ])
}

fn comms_from_json(doc: &Json) -> Result<CommsLog, CheckpointError> {
    Ok(CommsLog {
        uplink_bytes: get_u64(doc, "uplink_bytes")?,
        downlink_bytes: get_u64(doc, "downlink_bytes")?,
        stats_uplink_bytes: get_u64(doc, "stats_uplink_bytes")?,
        rounds: get_u64(doc, "rounds")?,
        dropped_messages: get_u64(doc, "dropped_messages")?,
    })
}

fn round_stats_to_json(r: &RoundStats) -> Json {
    obj([
        ("round", r.round.into()),
        ("train_loss", f64_to_json(r.train_loss)),
        ("val_acc", f64_to_json(r.val_acc)),
        ("test_acc", f64_to_json(r.test_acc)),
    ])
}

fn round_stats_from_json(doc: &Json) -> Result<RoundStats, CheckpointError> {
    Ok(RoundStats {
        round: get_usize(doc, "round")?,
        train_loss: get_f64(doc, "train_loss")?,
        val_acc: get_f64(doc, "val_acc")?,
        test_acc: get_f64(doc, "test_acc")?,
    })
}

fn driver_to_json(d: &DriverState) -> Json {
    obj([
        (
            "history",
            Json::Arr(d.history.iter().map(round_stats_to_json).collect()),
        ),
        ("best_val", f64_to_json(d.best_val)),
        ("best_test", f64_to_json(d.best_test)),
        ("best_round", d.best_round.into()),
        ("rounds_since_improve", d.rounds_since_improve.into()),
        ("stopped", d.stopped.into()),
        ("comms", comms_to_json(&d.comms)),
    ])
}

fn driver_from_json(doc: &Json) -> Result<DriverState, CheckpointError> {
    Ok(DriverState {
        history: get_arr(doc, "history")?
            .iter()
            .map(round_stats_from_json)
            .collect::<Result<_, _>>()?,
        best_val: get_f64(doc, "best_val")?,
        best_test: get_f64(doc, "best_test")?,
        best_round: get_usize(doc, "best_round")?,
        rounds_since_improve: get_usize(doc, "rounds_since_improve")?,
        stopped: get_bool(doc, "stopped")?,
        comms: comms_from_json(field(doc, "comms")?)?,
    })
}

fn stats_to_json(s: &StatsCache) -> Json {
    obj([
        (
            "means",
            Json::Arr(s.means.iter().map(|m| vec_f32_to_json(m)).collect()),
        ),
        (
            "moments",
            Json::Arr(
                s.moments
                    .iter()
                    .map(|layer| Json::Arr(layer.iter().map(|o| vec_f32_to_json(o)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn stats_from_json(doc: &Json) -> Result<StatsCache, CheckpointError> {
    let means = get_arr(doc, "means")?
        .iter()
        .map(|m| vec_f32_from_json(m, "stats.means"))
        .collect::<Result<_, _>>()?;
    let moments = get_arr(doc, "moments")?
        .iter()
        .map(|layer| {
            layer
                .as_array()
                .ok_or_else(|| parse_err("stats.moments: expected array"))?
                .iter()
                .map(|o| vec_f32_from_json(o, "stats.moments"))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    Ok(StatsCache { means, moments })
}

impl RunCheckpoint {
    /// Wraps a [`ResumeState`] with run identity metadata at the current
    /// format version.
    pub fn new(algorithm: impl Into<String>, seed: u64, state: ResumeState) -> Self {
        Self {
            version: VERSION,
            algorithm: algorithm.into(),
            seed,
            state,
        }
    }

    /// The JSON document form.
    pub fn to_json(&self) -> Json {
        let s = &self.state;
        obj([
            ("format", FORMAT.into()),
            ("version", self.version.into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("seed", self.seed.into()),
            ("next_round", s.next_round.into()),
            (
                "params",
                Json::Arr(s.params.iter().map(|p| matrices_to_json(p)).collect()),
            ),
            (
                "optim",
                Json::Arr(s.optim.iter().map(adam_to_json).collect()),
            ),
            (
                "model_steps",
                Json::Arr(s.model_steps.iter().map(|&v| v.into()).collect()),
            ),
            ("driver", driver_to_json(&s.driver)),
            ("channel", channel_to_json(&s.channel)),
            (
                "global",
                s.global.as_deref().map_or(Json::Null, matrices_to_json),
            ),
            ("stats", s.stats.as_ref().map_or(Json::Null, stats_to_json)),
        ])
    }

    /// Parses the JSON document form, rejecting unknown formats/versions.
    pub fn from_json(doc: &Json) -> Result<Self, CheckpointError> {
        let format = field(doc, "format")?
            .as_str()
            .ok_or_else(|| parse_err("field `format`: expected string"))?;
        if format != FORMAT {
            return Err(CheckpointError::Mismatch {
                what: "format".into(),
                found: format.into(),
                expected: FORMAT.into(),
            });
        }
        let version = get_u64(doc, "version")?;
        if version != VERSION {
            return Err(CheckpointError::Mismatch {
                what: "version".into(),
                found: version.to_string(),
                expected: VERSION.to_string(),
            });
        }
        let algorithm = field(doc, "algorithm")?
            .as_str()
            .ok_or_else(|| parse_err("field `algorithm`: expected string"))?
            .to_string();
        let seed = get_u64(doc, "seed")?;
        let params = get_arr(doc, "params")?
            .iter()
            .map(|p| matrices_from_json(p, "params"))
            .collect::<Result<Vec<_>, _>>()?;
        let optim = get_arr(doc, "optim")?
            .iter()
            .map(adam_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if params.len() != optim.len() {
            return Err(parse_err(format!(
                "params/optim arity mismatch: {} vs {}",
                params.len(),
                optim.len()
            )));
        }
        let model_steps = get_arr(doc, "model_steps")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| parse_err("model_steps: expected unsigned integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if model_steps.len() != params.len() {
            return Err(parse_err(format!(
                "params/model_steps arity mismatch: {} vs {}",
                params.len(),
                model_steps.len()
            )));
        }
        let global = non_null(doc, "global")?
            .map(|v| matrices_from_json(v, "global"))
            .transpose()?;
        let stats = non_null(doc, "stats")?.map(stats_from_json).transpose()?;
        Ok(Self {
            version,
            algorithm,
            seed,
            state: ResumeState {
                next_round: get_usize(doc, "next_round")?,
                params,
                optim,
                model_steps,
                driver: driver_from_json(field(doc, "driver")?)?,
                channel: channel_from_json(field(doc, "channel")?)?,
                global,
                stats,
            },
        })
    }

    /// Writes the checkpoint to `path` atomically (tmp + fsync + rename).
    /// Returns the serialised size in bytes.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, CheckpointError> {
        let path = path.as_ref();
        fedomd_jsonio::write_atomic(path, &self.to_json().to_compact())
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }

    /// Loads a checkpoint from `path`. A missing file is
    /// [`CheckpointError::Io`]; a truncated or corrupt one is
    /// [`CheckpointError::Parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        let doc = Json::parse(&text).map_err(CheckpointError::Parse)?;
        Self::from_json(&doc)
    }
}

/// The [`CheckpointSink`] that run loops hand their snapshots to: wraps
/// each [`ResumeState`] in a [`RunCheckpoint`] and writes it over the same
/// file, emitting [`RoundEvent::CheckpointSaved`] once durable.
pub struct FileCheckpointer {
    path: PathBuf,
    every: usize,
    algorithm: String,
    seed: u64,
}

impl FileCheckpointer {
    /// A checkpointer saving to `path` every `every` rounds, stamping the
    /// snapshots with the run's identity.
    pub fn new(
        path: impl Into<PathBuf>,
        every: usize,
        algorithm: impl Into<String>,
        seed: u64,
    ) -> Self {
        Self {
            path: path.into(),
            every,
            algorithm: algorithm.into(),
            seed,
        }
    }
}

impl CheckpointSink for FileCheckpointer {
    fn every(&self) -> usize {
        self.every
    }

    /// # Panics
    /// Panics when the write fails: losing snapshots silently would defeat
    /// the crash-safety the caller asked for.
    fn save(&mut self, state: ResumeState, obs: &mut dyn RoundObserver) {
        let round = state.next_round.saturating_sub(1) as u64;
        let ckpt = RunCheckpoint::new(self.algorithm.clone(), self.seed, state);
        #[expect(
            clippy::panic,
            reason = "documented contract (see `# Panics`): silently losing snapshots \
                      would defeat the crash-safety the caller asked for, and \
                      `CheckpointSink::save` has no error channel by design — round \
                      loops stay ignorant of I/O"
        )]
        let bytes = ckpt
            .save(&self.path)
            .unwrap_or_else(|e| panic!("run checkpoint save failed: {e}"));
        obs.on_event(&RoundEvent::CheckpointSaved {
            round,
            path: self.path.display().to_string(),
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_telemetry::MemoryObserver;

    fn sample_state() -> ResumeState {
        let m = |v: f32| Matrix::from_vec(2, 2, vec![v, v + 0.5, -v, 0.0]);
        ResumeState {
            next_round: 4,
            params: vec![vec![m(1.0), m(2.0)], vec![m(3.0), m(4.0)]],
            optim: vec![
                AdamState {
                    t: 4,
                    m: vec![m(0.1), m(0.2)],
                    v: vec![m(0.3), m(0.4)],
                },
                AdamState {
                    t: 4,
                    m: vec![m(0.5), m(0.6)],
                    v: vec![m(0.7), m(0.8)],
                },
            ],
            model_steps: vec![4, 4],
            driver: DriverState {
                history: vec![RoundStats {
                    round: 0,
                    train_loss: 1.25,
                    val_acc: 0.5,
                    test_acc: 0.5,
                }],
                best_val: 0.5,
                best_test: 0.5,
                best_round: 0,
                rounds_since_improve: 3,
                stopped: false,
                comms: CommsLog {
                    uplink_bytes: 1000,
                    downlink_bytes: 900,
                    stats_uplink_bytes: 50,
                    rounds: 4,
                    dropped_messages: 2,
                },
            },
            channel: ChannelState {
                seq: 42,
                stats: NetStats {
                    sent_frames: 40,
                    sent_bytes: 2000,
                    delivered_frames: 38,
                    delivered_bytes: 1900,
                    dropped_frames: 2,
                    retries: 1,
                },
            },
            global: Some(vec![m(9.0)]),
            stats: Some(StatsCache {
                means: vec![vec![0.25, -0.5]],
                moments: vec![vec![vec![0.1, 0.2], vec![0.3, 0.4]]],
            }),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let ckpt = RunCheckpoint::new("FedOMD", 7, sample_state());
        let doc = Json::parse(&ckpt.to_json().to_compact()).expect("valid json");
        let back = RunCheckpoint::from_json(&doc).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn serialization_is_byte_identical_across_runs() {
        // Determinism regression guard: two independent serializations of
        // equal checkpoints must produce the exact same bytes. Field order
        // is fixed by construction (ordered `obj` tuples, never map
        // iteration order), so any unordered container sneaking into the
        // emission path shows up here as byte drift.
        let a = RunCheckpoint::new("FedOMD", 7, sample_state())
            .to_json()
            .to_compact();
        let b = RunCheckpoint::new("FedOMD", 7, sample_state())
            .to_json()
            .to_compact();
        assert_eq!(a.as_bytes(), b.as_bytes());

        // A decode → re-encode cycle must also reproduce the bytes.
        let re = RunCheckpoint::from_json(&Json::parse(&a).expect("valid json"))
            .expect("decode")
            .to_json()
            .to_compact();
        assert_eq!(re.as_bytes(), a.as_bytes());
    }

    #[test]
    fn neg_infinity_best_val_survives_the_sentinel_encoding() {
        // A checkpoint taken before the first eval carries -inf.
        let mut state = sample_state();
        state.driver.best_val = f64::NEG_INFINITY;
        state.driver.history.clear();
        let ckpt = RunCheckpoint::new("FedGCN", 1, state);
        let doc = Json::parse(&ckpt.to_json().to_compact()).unwrap();
        let back = RunCheckpoint::from_json(&doc).expect("decode");
        assert_eq!(back.state.driver.best_val, f64::NEG_INFINITY);
    }

    #[test]
    fn none_global_and_stats_roundtrip_as_null() {
        let mut state = sample_state();
        state.global = None;
        state.stats = None;
        let ckpt = RunCheckpoint::new("FedMLP", 0, state);
        let doc = Json::parse(&ckpt.to_json().to_compact()).unwrap();
        let back = RunCheckpoint::from_json(&doc).expect("decode");
        assert_eq!(back.state.global, None);
        assert_eq!(back.state.stats, None);
    }

    /// Per-process scratch dir: concurrent `cargo test` invocations must
    /// not race each other on a shared fixed path.
    fn scratch_dir() -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fedomd-run-ckpt-test-{}", std::process::id()))
    }

    #[test]
    fn file_roundtrip_and_overwrite() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt.json");
        let a = RunCheckpoint::new("FedOMD", 7, sample_state());
        a.save(&path).expect("save");
        let mut later = sample_state();
        later.next_round = 8;
        let b = RunCheckpoint::new("FedOMD", 7, later);
        b.save(&path).expect("overwrite");
        let back = RunCheckpoint::load(&path).expect("load");
        assert_eq!(back, b);
        assert!(!dir.join("run.ckpt.json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_a_typed_parse_error() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("truncated.ckpt.json");
        let text = RunCheckpoint::new("FedOMD", 7, sample_state())
            .to_json()
            .to_compact();
        std::fs::write(&path, &text[..text.len() / 2]).expect("write");
        let err = RunCheckpoint::load(&path).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = RunCheckpoint::load("/nonexistent/fedomd/run.ckpt.json").expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn wrong_format_and_version_are_mismatches() {
        let ckpt = RunCheckpoint::new("FedOMD", 7, sample_state());
        let mut doc = ckpt.to_json().to_compact();
        doc = doc.replacen(FORMAT, "something-else", 1);
        let err = RunCheckpoint::from_json(&Json::parse(&doc).unwrap()).expect_err("format");
        assert!(
            matches!(err, CheckpointError::Mismatch { ref what, .. } if what == "format"),
            "{err}"
        );

        let mut bad = ckpt.clone();
        bad.version = VERSION + 1;
        let err = RunCheckpoint::from_json(&Json::parse(&bad.to_json().to_compact()).unwrap())
            .expect_err("version");
        assert!(
            matches!(err, CheckpointError::Mismatch { ref what, .. } if what == "version"),
            "{err}"
        );
    }

    #[test]
    fn file_checkpointer_emits_checkpoint_saved() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sink.ckpt.json");
        let mut sink = FileCheckpointer::new(&path, 2, "FedOMD", 7);
        assert_eq!(sink.every(), 2);
        let mut mem = MemoryObserver::new();
        sink.save(sample_state(), &mut mem);
        assert_eq!(mem.count("checkpoint_saved"), 1);
        match &mem.events[0] {
            RoundEvent::CheckpointSaved {
                round,
                path: p,
                bytes,
            } => {
                assert_eq!(*round, 3, "next_round 4 covers rounds 0..=3");
                assert!(p.ends_with("sink.ckpt.json"));
                assert_eq!(*bytes, std::fs::metadata(&path).unwrap().len());
            }
            other => panic!("expected CheckpointSaved, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
