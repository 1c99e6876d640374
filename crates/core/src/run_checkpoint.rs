//! Run-level checkpointing: the [`RunCheckpoint`] record and the
//! [`FileCheckpointer`] sink that writes it.
//!
//! A run checkpoint is everything the paper's multi-hundred-round
//! experiments need to survive a crash: the next round index, every
//! client's model parameters and optimiser state (Adam moments, or
//! SCAFFOLD's SGD velocity and control variates), the driver's history and
//! early-stopping state, the byte ledger, and (for FedOMD) the last
//! aggregated global model and global statistics. A run killed at round
//! `k` and resumed from its latest snapshot replays the remaining rounds
//! **bit-identically** to the uninterrupted run — golden-tested in
//! `tests/checkpoint_golden.rs`. The transport has nothing to save: a
//! simulated network keys each frame's faults by the frame itself.
//!
//! The file is one binary record, little-endian, written with the wire
//! codec (`fedomd_transport::{wire, frame}`), so an `f32` tensor has the
//! same bytes at rest as in a frame and every value — `-0.0`, NaN
//! payloads, infinities, subnormals — reloads bit for bit:
//!
//! ```text
//! magic "FOMDCKPT" · u32 version · spec · u64 next_round
//! u32 clients × (tensors params · optimiser · u64 model_steps)
//!   optimiser: u8 0 · u64 adam.t · tensors adam.m · tensors adam.v
//!            | u8 1 · tensors sgd.velocity · tensors c_i · tensors c
//! u32 history × (u64 round · f64 train_loss · f64 val_acc · f64 test_acc)
//! f64 best_val · f64 best_test · u64 best_round · u64 rounds_since_improve · u8 stopped
//! 5 × u64 comms
//! u8 has_global [· tensors global] · u8 has_stats [· layers means · moments]
//! u32 crc32 of every preceding byte
//! ```
//!
//! `spec` is the run's [`Flags`] (`u32` count, then per pair `str key ·
//! str value`), which a resume compares key by key before restoring.
//! `tensors` is the frame codec's parameter list (`u32` count, then per
//! tensor `u32 rows · u32 cols · rows·cols × f32`); an `f64` is its
//! `to_bits`. Snapshots are written atomically (tmp file, fsync, rename),
//! so a crash mid-save leaves the previous valid snapshot in place. On
//! load the checksum is verified before anything is decoded, and every
//! count and tensor is bounded by the bytes actually present, so a torn or
//! corrupt file is [`CheckpointError::Parse`], never a panic, a huge
//! allocation or a silently half-restored run.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

use fedomd_federated::protocol::GlobalStats;
use fedomd_federated::{
    CheckpointSink, CommsLog, DriverState, Flags, OptimState, ResumeState, RoundStats,
};
use fedomd_nn::AdamState;
use fedomd_telemetry::{RoundEvent, RoundObserver};
use fedomd_tensor::Matrix;
use fedomd_transport::frame::{
    decode_layers, decode_moments, decode_tensors, encode_layers, encode_moments, encode_tensors,
};
use fedomd_transport::wire::{crc32, ByteReader, ByteWriter};
use fedomd_transport::{from_tensors, to_tensors, WireError};

/// First bytes of every run checkpoint.
const MAGIC: &[u8; 8] = b"FOMDCKPT";
/// Current format version; bumped on incompatible layout changes.
const VERSION: u64 = 6;
/// Bytes of the trailing checksum.
const CRC_BYTES: usize = 4;

/// Why a run checkpoint could not be saved or loaded.
///
/// The variants partition the failure space along the axis a caller acts
/// on: [`Io`](CheckpointError::Io) is environmental,
/// [`Parse`](CheckpointError::Parse) means the bytes are not a valid
/// snapshot (e.g. a file torn by a crash mid-write), and
/// [`Mismatch`](CheckpointError::Mismatch) means a valid record of another
/// format or version.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure: open, create, read, write, or rename.
    Io(String),
    /// The bytes are not a valid checkpoint: truncated, failing the
    /// checksum, or structurally malformed.
    Parse(String),
    /// A checksummed record whose format tag or version differs.
    Mismatch {
        /// Which tag disagreed (`"format"` or `"version"`).
        what: String,
        /// Value carried by the checkpoint.
        found: String,
        /// Value this build expects.
        expected: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint io: {msg}"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint parse: {msg}"),
            CheckpointError::Mismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {what} mismatch: found {found:?}, expected {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Parse(e.to_string())
    }
}

/// One durable snapshot of a federated run at a round boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// Format version (currently 6).
    pub version: u64,
    /// The run's spec ([`fedomd_federated::RunSpec::flags`]); a resume
    /// compares it with its own so a snapshot never restores into another
    /// run.
    pub spec: Flags,
    /// The actual resume payload.
    pub state: ResumeState,
}

fn put_matrices(w: &mut ByteWriter, ms: &[Matrix]) {
    encode_tensors(w, &to_tensors(ms));
}

fn get_matrices(r: &mut ByteReader<'_>) -> Result<Vec<Matrix>, WireError> {
    Ok(from_tensors(decode_tensors(r)?))
}

fn put_f64(w: &mut ByteWriter, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64(r: &mut ByteReader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.get_u64()?))
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, WireError> {
    Ok(r.get_u64()? as usize)
}

/// A `u32` count of items at least `min_bytes` long each, refused when the
/// remaining bytes cannot hold that many, so a corrupt count never sizes
/// an allocation beyond the file.
fn get_count(r: &mut ByteReader<'_>, min_bytes: usize) -> Result<usize, WireError> {
    let n = r.get_u32()? as usize;
    let needed = n.saturating_mul(min_bytes);
    if needed > r.remaining() {
        return Err(WireError::Truncated {
            needed,
            available: r.remaining(),
        });
    }
    Ok(n)
}

fn put_state(w: &mut ByteWriter, s: &ResumeState) {
    w.put_u64(s.next_round as u64);
    // `params`, `optim` and `model_steps` are aligned per client.
    w.put_u32(s.params.len() as u32);
    for ((params, optim), &steps) in s.params.iter().zip(&s.optim).zip(&s.model_steps) {
        put_matrices(w, params);
        match optim {
            OptimState::Adam(adam) => {
                w.put_u8(0);
                w.put_u64(adam.t);
                put_matrices(w, &adam.m);
                put_matrices(w, &adam.v);
            }
            OptimState::Scaffold {
                velocity,
                local,
                global,
            } => {
                w.put_u8(1);
                put_matrices(w, velocity);
                put_matrices(w, local);
                put_matrices(w, global);
            }
        }
        w.put_u64(steps);
    }
    let d = &s.driver;
    w.put_u32(d.history.len() as u32);
    for h in &d.history {
        w.put_u64(h.round as u64);
        put_f64(w, h.train_loss);
        put_f64(w, h.val_acc);
        put_f64(w, h.test_acc);
    }
    put_f64(w, d.best_val);
    put_f64(w, d.best_test);
    w.put_u64(d.best_round as u64);
    w.put_u64(d.rounds_since_improve as u64);
    w.put_u8(u8::from(d.stopped));
    let c = &d.comms;
    for v in [
        c.uplink_bytes,
        c.downlink_bytes,
        c.stats_uplink_bytes,
        c.rounds,
        c.dropped_messages,
    ] {
        w.put_u64(v);
    }
    w.put_u8(u8::from(s.global.is_some()));
    if let Some(global) = &s.global {
        put_matrices(w, global);
    }
    w.put_u8(u8::from(s.stats.is_some()));
    if let Some(stats) = &s.stats {
        encode_layers(w, &stats.means);
        encode_moments(w, &stats.moments);
    }
}

fn get_state(r: &mut ByteReader<'_>) -> Result<ResumeState, WireError> {
    let next_round = get_usize(r)?;
    // Smallest client: four empty tensor lists, the optimiser tag and the
    // step counter.
    let n = get_count(r, 4 * 4 + 1 + 8)?;
    let mut params = Vec::with_capacity(n);
    let mut optim = Vec::with_capacity(n);
    let mut model_steps = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(get_matrices(r)?);
        // The optimiser tag: 0 is Adam, 1 is SCAFFOLD.
        optim.push(if r.get_flag()? {
            OptimState::Scaffold {
                velocity: get_matrices(r)?,
                local: get_matrices(r)?,
                global: get_matrices(r)?,
            }
        } else {
            OptimState::Adam(AdamState {
                t: r.get_u64()?,
                m: get_matrices(r)?,
                v: get_matrices(r)?,
            })
        });
        model_steps.push(r.get_u64()?);
    }
    let n = get_count(r, 4 * 8)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(RoundStats {
            round: get_usize(r)?,
            train_loss: get_f64(r)?,
            val_acc: get_f64(r)?,
            test_acc: get_f64(r)?,
        });
    }
    let driver = DriverState {
        history,
        best_val: get_f64(r)?,
        best_test: get_f64(r)?,
        best_round: get_usize(r)?,
        rounds_since_improve: get_usize(r)?,
        stopped: r.get_flag()?,
        comms: CommsLog {
            uplink_bytes: r.get_u64()?,
            downlink_bytes: r.get_u64()?,
            stats_uplink_bytes: r.get_u64()?,
            rounds: r.get_u64()?,
            dropped_messages: r.get_u64()?,
        },
    };
    let global = if r.get_flag()? {
        Some(get_matrices(r)?)
    } else {
        None
    };
    let stats = if r.get_flag()? {
        Some(GlobalStats {
            means: decode_layers(r)?,
            moments: decode_moments(r)?,
        })
    } else {
        None
    };
    Ok(ResumeState {
        next_round,
        params,
        optim,
        model_steps,
        driver,
        global,
        stats,
    })
}

impl RunCheckpoint {
    /// Wraps a [`ResumeState`] with its run's spec at the current format
    /// version.
    pub fn new(spec: Flags, state: ResumeState) -> Self {
        Self {
            version: VERSION,
            spec,
            state,
        }
    }

    /// The checksummed binary record (layout in the module docs).
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        // A version no `u32` can hold is written as one no build reads.
        w.put_u32(u32::try_from(self.version).unwrap_or(u32::MAX));
        self.spec.encode(&mut w);
        put_state(&mut w, &self.state);
        let crc = crc32(w.as_slice());
        w.put_u32(crc);
        w.into_bytes()
    }

    /// Decodes a record written by [`Self::to_bytes`]. The checksum is
    /// verified first, so any corruption is [`CheckpointError::Parse`]; a
    /// checksummed record of another format or version is
    /// [`CheckpointError::Mismatch`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let body_len = bytes.len().saturating_sub(CRC_BYTES);
        let (body, trailer) = bytes.split_at(body_len);
        let stored = ByteReader::new(trailer).get_u32()?;
        let computed = crc32(body);
        if stored != computed {
            return Err(WireError::BadChecksum { stored, computed }.into());
        }
        let mut r = ByteReader::new(body);
        let magic = r.get_raw(MAGIC.len())?;
        if magic != MAGIC {
            return Err(CheckpointError::Mismatch {
                what: "format".into(),
                found: String::from_utf8_lossy(magic).into_owned(),
                expected: String::from_utf8_lossy(MAGIC).into_owned(),
            });
        }
        let version = u64::from(r.get_u32()?);
        if version != VERSION {
            return Err(CheckpointError::Mismatch {
                what: "version".into(),
                found: version.to_string(),
                expected: VERSION.to_string(),
            });
        }
        let spec = Flags::decode(&mut r)?;
        let state = get_state(&mut r)?;
        r.expect_end()?;
        Ok(Self {
            version,
            spec,
            state,
        })
    }

    /// Writes the checkpoint to `path` atomically (tmp + fsync + rename).
    /// Returns the record's size in bytes.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, CheckpointError> {
        let path = path.as_ref();
        write_atomic(path, &self.to_bytes())
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }

    /// Loads a checkpoint from `path`. A missing file is
    /// [`CheckpointError::Io`]; a truncated or corrupt one is
    /// [`CheckpointError::Parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        Self::from_bytes(&bytes)
    }
}

/// Writes `bytes` to `path` atomically: they go to a `.tmp` sibling, are
/// synced to disk, and only then renamed over `path`. A crash at any point
/// leaves either the previous file or the complete new one, never a torn
/// hybrid. Returns the number of bytes written.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<u64> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    // The data must be durable before the rename publishes it; otherwise a
    // power cut could leave a fully-renamed but empty file.
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the directory entry is.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(bytes.len() as u64)
}

/// The [`CheckpointSink`] that run loops hand their snapshots to: wraps
/// each [`ResumeState`] in a [`RunCheckpoint`] and writes it over the same
/// file, emitting [`RoundEvent::CheckpointSaved`] once durable.
pub struct FileCheckpointer {
    path: PathBuf,
    every: usize,
    spec: Flags,
}

impl FileCheckpointer {
    /// A checkpointer saving to `path` every `every` rounds, stamping the
    /// snapshots with the run's spec.
    pub fn new(path: impl Into<PathBuf>, every: usize, spec: Flags) -> Self {
        Self {
            path: path.into(),
            every,
            spec,
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
        let ckpt = RunCheckpoint::new(self.spec.clone(), state);
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
    use fedomd_federated::{FedOmdConfig, RunSpec, Strategy, TrainConfig};
    use fedomd_telemetry::MemoryObserver;

    fn spec() -> Flags {
        RunSpec {
            strategy: Strategy::FedOmd(FedOmdConfig::paper()),
            parties: 2,
            dataset: None,
            train: TrainConfig::mini(7),
        }
        .flags()
    }

    /// Encoded bytes of the spec.
    fn spec_len() -> usize {
        4 + spec()
            .0
            .iter()
            .map(|(k, v)| 8 + k.len() + v.len())
            .sum::<usize>()
    }

    fn sample_state() -> ResumeState {
        let m = |v: f32| Matrix::from_vec(2, 2, vec![v, v + 0.5, -v, 0.0]);
        ResumeState {
            next_round: 4,
            params: vec![vec![m(1.0), m(2.0)], vec![m(3.0), m(4.0)]],
            optim: vec![
                OptimState::Adam(AdamState {
                    t: 4,
                    m: vec![m(0.1), m(0.2)],
                    v: vec![m(0.3), m(0.4)],
                }),
                OptimState::Scaffold {
                    velocity: vec![m(0.5), m(0.6)],
                    local: vec![m(0.7), m(0.8)],
                    global: vec![m(0.9), m(1.1)],
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
            global: Some(vec![m(9.0)]),
            stats: Some(GlobalStats {
                means: vec![vec![0.25, -0.5]],
                moments: vec![vec![vec![0.1, 0.2], vec![0.3, 0.4]]],
            }),
        }
    }

    /// Every tensor of one client's optimiser state, in record order.
    fn optim_tensors(o: &OptimState) -> Vec<Matrix> {
        match o {
            OptimState::Adam(a) => a.m.iter().chain(&a.v).cloned().collect(),
            OptimState::Scaffold {
                velocity,
                local,
                global,
            } => velocity
                .iter()
                .chain(local)
                .chain(global)
                .cloned()
                .collect(),
        }
    }

    /// Encoded bytes of every tensor in a parameter list.
    fn tensors_len(ms: &[Matrix]) -> usize {
        4 + ms.iter().map(|m| 8 + 4 * m.len()).sum::<usize>()
    }

    fn bits(ms: &[Matrix]) -> Vec<u32> {
        ms.iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Recomputes the trailing checksum after a deliberate edit.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - CRC_BYTES;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn is_parse(r: Result<RunCheckpoint, CheckpointError>) -> bool {
        matches!(r, Err(CheckpointError::Parse(_)))
    }

    #[test]
    fn bytes_roundtrip_is_exact() {
        let ckpt = RunCheckpoint::new(spec(), sample_state());
        let back = RunCheckpoint::from_bytes(&ckpt.to_bytes()).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn special_values_reload_bit_for_bit() {
        let odd = [
            -0.0,
            f32::NAN,
            f32::from_bits(0x7fc0_0001), // NaN with a non-canonical payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1), // smallest subnormal
        ];
        let m = Matrix::from_vec(2, 3, odd.to_vec());
        let mut state = sample_state();
        state.params[0][1] = m.clone();
        state.optim = vec![
            OptimState::Adam(AdamState {
                t: 4,
                m: vec![m.clone()],
                v: vec![m.clone()],
            }),
            OptimState::Scaffold {
                velocity: vec![m.clone()],
                local: vec![m.clone()],
                global: vec![m.clone()],
            },
        ];
        state.global = Some(vec![m.clone()]);
        state.stats = Some(GlobalStats {
            means: vec![odd.to_vec()],
            moments: vec![vec![odd.to_vec(), odd[..2].to_vec()]],
        });
        state.driver.history[0].train_loss = f64::NAN;
        state.driver.history[0].val_acc = -0.0;
        state.driver.history[0].test_acc = f64::NEG_INFINITY;
        state.driver.best_val = f64::NEG_INFINITY;
        state.driver.best_test = f64::from_bits(0x7ff8_0000_0000_0001);
        let ckpt = RunCheckpoint::new(spec(), state);

        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("special.ckpt");
        ckpt.save(&path).expect("a non-finite run still saves");
        let back = RunCheckpoint::load(&path).expect("and loads");
        let _ = std::fs::remove_file(&path);

        let (a, b) = (&ckpt.state, &back.state);
        for (x, y) in a.params.iter().zip(&b.params) {
            assert_eq!(bits(x), bits(y), "params");
        }
        for (x, y) in a.optim.iter().zip(&b.optim) {
            assert_eq!(
                bits(&optim_tensors(x)),
                bits(&optim_tensors(y)),
                "optimiser"
            );
        }
        assert_eq!(
            bits(a.global.as_deref().unwrap_or_default()),
            bits(b.global.as_deref().unwrap_or_default()),
            "global"
        );
        let stat_bits = |s: &Option<GlobalStats>| -> Vec<u32> {
            let s = s.as_ref().expect("stats");
            s.means
                .iter()
                .chain(s.moments.iter().flatten())
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(stat_bits(&a.stats), stat_bits(&b.stats), "stats");
        let f64_bits = |d: &DriverState| -> Vec<u64> {
            d.history
                .iter()
                .flat_map(|h| [h.train_loss, h.val_acc, h.test_acc])
                .chain([d.best_val, d.best_test])
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(f64_bits(&a.driver), f64_bits(&b.driver), "driver f64s");
    }

    #[test]
    fn serialization_is_byte_identical_across_runs() {
        // Determinism regression guard: two independent encodings of equal
        // checkpoints, and a decode → re-encode cycle, produce the same
        // bytes.
        let a = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        let b = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        assert_eq!(a, b);
        let re = RunCheckpoint::from_bytes(&a).expect("decode").to_bytes();
        assert_eq!(re, a);
    }

    #[test]
    fn encoded_size_is_closed_form() {
        let s = sample_state();
        let ckpt = RunCheckpoint::new(spec(), s.clone());
        let header = MAGIC.len() + 4 + spec_len() + 8;
        let clients: usize = s
            .params
            .iter()
            .zip(&s.optim)
            .map(|(p, o)| {
                let optim = match o {
                    OptimState::Adam(a) => 8 + tensors_len(&a.m) + tensors_len(&a.v),
                    OptimState::Scaffold {
                        velocity,
                        local,
                        global,
                    } => tensors_len(velocity) + tensors_len(local) + tensors_len(global),
                };
                tensors_len(p) + 1 + optim + 8
            })
            .sum();
        let driver = 4 + 32 * s.driver.history.len() + 8 + 8 + 8 + 8 + 1 + 5 * 8;
        let global = 1 + s.global.as_deref().map_or(0, tensors_len);
        let stats = 1 + s.stats.as_ref().map_or(0, |st| {
            let layers = |ls: &[Vec<f32>]| 4 + ls.iter().map(|l| 4 + 4 * l.len()).sum::<usize>();
            layers(&st.means) + 4 + st.moments.iter().map(|l| layers(l)).sum::<usize>()
        });
        let expected = header + 4 + clients + driver + global + stats + CRC_BYTES;
        assert_eq!(ckpt.to_bytes().len(), expected);
    }

    #[test]
    fn every_truncation_and_byte_flip_is_a_parse_error() {
        // Two clients (one per optimiser) and one-element tensors keep the
        // 255 flips of every byte quick in a debug build; every section is
        // still present.
        let one = || vec![Matrix::from_vec(1, 1, vec![0.5])];
        let mut s = sample_state();
        s.params = vec![one(), one()];
        s.optim = vec![
            OptimState::Adam(AdamState {
                t: 4,
                m: one(),
                v: one(),
            }),
            OptimState::Scaffold {
                velocity: one(),
                local: one(),
                global: one(),
            },
        ];
        s.model_steps = vec![4, 4];
        s.global = Some(one());
        s.stats = Some(GlobalStats {
            means: vec![vec![0.25]],
            moments: vec![vec![vec![0.1]]],
        });
        let good = RunCheckpoint::new(spec(), s).to_bytes();
        assert!(good.len() <= 4096, "{} bytes", good.len());
        for len in 0..good.len() {
            assert!(
                is_parse(RunCheckpoint::from_bytes(&good[..len])),
                "truncation to {len} bytes"
            );
        }
        let mut bad = good.clone();
        for i in 0..good.len() {
            for mask in 1..=255u8 {
                bad[i] = good[i] ^ mask;
                assert!(
                    is_parse(RunCheckpoint::from_bytes(&bad)),
                    "byte {i} ^ {mask:#04x}"
                );
            }
            bad[i] = good[i];
        }
    }

    #[test]
    fn an_overflowing_tensor_header_is_refused_without_allocating() {
        // A checksummed record whose first client tensor claims 2³¹ × 2³¹
        // elements: `rows * cols * 4` wraps to 0 in 64 bits, so only a
        // bound against the bytes present keeps this from a
        // capacity-overflow panic.
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u32(VERSION as u32);
        spec().encode(&mut w);
        w.put_u64(1); // next_round
        w.put_u32(1); // one client
        w.put_u32(1); // one parameter tensor
        w.put_u32(1 << 31);
        w.put_u32(1 << 31);
        w.put_u32(0); // room for the checksum
        let bytes = reseal(w.into_bytes());
        assert!(is_parse(RunCheckpoint::from_bytes(&bytes)));

        // A client count no file this size could hold is refused the same
        // way, before any per-client vector is sized.
        let mut bytes = bytes;
        let count_at = MAGIC.len() + 4 + spec_len() + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_parse(RunCheckpoint::from_bytes(&reseal(bytes))));
    }

    #[test]
    fn a_lying_spec_header_is_refused_without_allocating() {
        // Resealed, so only the spec decoder's own bounds stand between a
        // lie and an allocation: a pair count of u32::MAX, then a 4 GiB
        // first key.
        let good = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        let count_at = MAGIC.len() + 4;
        for at in [count_at, count_at + 4] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(is_parse(RunCheckpoint::from_bytes(&reseal(bad))), "at {at}");
        }
        // A byte added before the checksum is refused, resealed or not.
        let mut long = good.clone();
        long.insert(good.len() - CRC_BYTES, 0);
        assert!(is_parse(RunCheckpoint::from_bytes(&long)));
        assert!(is_parse(RunCheckpoint::from_bytes(&reseal(long))));
    }

    #[test]
    fn none_global_and_stats_roundtrip() {
        let mut state = sample_state();
        state.global = None;
        state.stats = None;
        let ckpt = RunCheckpoint::new(Flags::default(), state);
        let back = RunCheckpoint::from_bytes(&ckpt.to_bytes()).expect("decode");
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
        let path = dir.join("run.ckpt");
        let a = RunCheckpoint::new(spec(), sample_state());
        assert_eq!(a.save(&path).expect("save"), a.to_bytes().len() as u64);
        let mut later = sample_state();
        later.next_round = 8;
        let b = RunCheckpoint::new(spec(), later);
        b.save(&path).expect("overwrite");
        let back = RunCheckpoint::load(&path).expect("load");
        assert_eq!(back, b);
        assert!(!dir.join("run.ckpt.tmp").exists(), "tmp file renamed away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_a_typed_parse_error() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("truncated.ckpt");
        let bytes = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        let err = RunCheckpoint::load(&path).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = RunCheckpoint::load("/nonexistent/fedomd/run.ckpt").expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn wrong_format_and_version_are_mismatches() {
        let good = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        let mut bad = good.clone();
        bad[..MAGIC.len()].copy_from_slice(b"NOTACKPT");
        let err = RunCheckpoint::from_bytes(&reseal(bad)).expect_err("format");
        assert!(
            matches!(err, CheckpointError::Mismatch { ref what, .. } if what == "format"),
            "{err}"
        );

        // A newer record, a version-5 one (algorithm and seed where the
        // spec is), a version-4 one (a SimNet cursor after the ledger), a
        // version-3 one (a second counter set after that cursor) and a
        // version-2 one (no optimiser tag, so no SCAFFOLD state) are all
        // refused by version.
        for version in [VERSION + 1, 5, 4, 3, 2] {
            let mut other = RunCheckpoint::new(spec(), sample_state());
            other.version = version;
            let err = RunCheckpoint::from_bytes(&other.to_bytes()).expect_err("version");
            assert!(
                matches!(err, CheckpointError::Mismatch { ref what, .. } if what == "version"),
                "{err}"
            );
        }
    }

    #[test]
    fn an_unknown_optimiser_tag_is_a_parse_error() {
        let mut bytes = RunCheckpoint::new(spec(), sample_state()).to_bytes();
        let params = &sample_state().params[0];
        let tag_at = MAGIC.len() + 4 + spec_len() + 8 + 4 + tensors_len(params);
        assert_eq!(bytes[tag_at], 0, "client 0 runs Adam");
        bytes[tag_at] = 2;
        assert!(is_parse(RunCheckpoint::from_bytes(&reseal(bytes))));
    }

    #[test]
    fn file_checkpointer_emits_checkpoint_saved() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sink.ckpt");
        let mut sink = FileCheckpointer::new(&path, 2, spec());
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
                assert!(p.ends_with("sink.ckpt"));
                assert_eq!(*bytes, std::fs::metadata(&path).unwrap().len());
            }
            other => panic!("expected CheckpointSaved, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
