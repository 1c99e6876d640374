//! The FedOMD frame format: what one federated message looks like as bytes.
//!
//! ```text
//! ┌───────┬─────────┬──────────┬────────┬───────┬─────────────┬─────────┬───────┐
//! │ magic │ version │ msg_type │ sender │ round │ payload_len │ payload │ crc32 │
//! │  u32  │   u8    │    u8    │  u32   │  u64  │     u32     │  bytes  │  u32  │
//! └───────┴─────────┴──────────┴────────┴───────┴─────────────┴─────────┴───────┘
//! ```
//!
//! All integers and floats are little-endian ([`crate::wire`]). The
//! checksum covers every preceding byte (header *and* payload), so any
//! single-byte corruption anywhere in the frame is rejected at decode.
//! `f32` tensors travel as raw IEEE-754 bits, so an encode → decode cycle
//! is bit-exact — the property that makes a run whose frames cross sockets
//! bit-identical to one whose envelopes stay in process. A frame's size is
//! [`Envelope::encoded_len`], in closed form, without encoding. The tensor
//! and layer encoders are public because run checkpoints store `f32` state
//! with them too, so there is one byte form of a tensor, at rest and in
//! flight.

use crate::wire::{crc32, ByteReader, ByteWriter, WireError};
use fedomd_tensor::Matrix;

/// First four bytes of every frame (`"FOMD"` read as a LE `u32`).
pub const MAGIC: u32 = 0x444D_4F46;

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// `sender` value used by the server (clients use their index).
pub const SERVER_SENDER: u32 = u32::MAX;

/// Fixed bytes before the payload (magic + version + msg_type + sender +
/// round + payload_len).
pub const HEADER_BYTES: usize = 4 + 1 + 1 + 4 + 8 + 4;

/// Fixed bytes after the payload (the checksum).
pub const TRAILER_BYTES: usize = 4;

/// Default cap a receiver places on one frame's declared length (64 MiB).
///
/// A real FedOMD frame is bounded by the model size (a few MiB at the
/// paper's scale), so anything near this cap is corruption or hostility,
/// not a legitimate message.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Validates a length prefix read from an untrusted peer **before**
/// allocating a receive buffer for it.
///
/// Returns the length as a `usize` when it is within `(0, max]`; a zero
/// length is rejected too, since no valid frame is smaller than its fixed
/// header + trailer.
pub fn check_frame_len(declared: u32, max: u32) -> Result<usize, WireError> {
    if declared as usize > max as usize {
        return Err(WireError::FrameTooLarge {
            declared: declared as u64,
            max: max as u64,
        });
    }
    if (declared as usize) < HEADER_BYTES + TRAILER_BYTES {
        return Err(WireError::Truncated {
            needed: HEADER_BYTES + TRAILER_BYTES,
            available: declared as usize,
        });
    }
    Ok(declared as usize)
}

/// A dense tensor on the wire: shape plus row-major `f32` data.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    /// Row-major elements; `data.len() == rows * cols`.
    pub data: Vec<f32>,
}

impl From<&Matrix> for Tensor {
    fn from(m: &Matrix) -> Self {
        Self {
            rows: m.rows() as u32,
            cols: m.cols() as u32,
            data: m.as_slice().to_vec(),
        }
    }
}

impl Tensor {
    /// Converts back to a [`Matrix`].
    pub fn into_matrix(self) -> Matrix {
        Matrix::from_vec(self.rows as usize, self.cols as usize, self.data)
    }

    /// Bytes [`Tensor::encode`] writes.
    fn encoded_len(&self) -> usize {
        8 + 4 * self.data.len()
    }

    /// Writes `rows`, `cols` and the row-major elements as raw
    /// little-endian bits: `8 + 4·rows·cols` bytes.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.rows);
        w.put_u32(self.cols);
        for &v in &self.data {
            w.put_f32(v);
        }
    }

    /// Reads one tensor written by [`Tensor::encode`], refusing dims the
    /// remaining bytes cannot hold before allocating anything.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let rows = r.get_u32()?;
        let cols = r.get_u32()?;
        // Untrusted dims: count elements in u64 (u32 × u32 cannot
        // overflow it) and compare against the bytes actually present —
        // never against `n * 4`, which wraps for dims like 2³¹ × 2³¹ and
        // would wave a hostile header through to a capacity-overflow
        // panic in `Vec::with_capacity`.
        let n = rows as u64 * cols as u64;
        if n > (r.remaining() / 4) as u64 {
            return Err(WireError::Truncated {
                needed: usize::try_from(n.saturating_mul(4)).unwrap_or(usize::MAX),
                available: r.remaining(),
            });
        }
        // `n` is now bounded by the frame size, which the receive path
        // capped before allocating the frame itself.
        let n = n as usize;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.get_f32()?);
        }
        Ok(Self { rows, cols, data })
    }
}

/// Converts a model's parameter list to wire tensors.
pub fn to_tensors(params: &[Matrix]) -> Vec<Tensor> {
    params.iter().map(Tensor::from).collect()
}

/// Converts wire tensors back to matrices.
pub fn from_tensors(tensors: Vec<Tensor>) -> Vec<Matrix> {
    tensors.into_iter().map(Tensor::into_matrix).collect()
}

/// Control signals that carry no model data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Server announces a round is starting.
    BeginRound,
    /// Server announces a round is complete.
    EndRound,
    /// Generic acknowledgement.
    Ack,
    /// Abort with a reason.
    Abort(String),
}

/// Every message kind a federated round can put on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Client → server: locally-trained (possibly masked) parameters.
    WeightUpdate {
        /// Parameter matrices in aggregation order.
        params: Vec<Tensor>,
    },
    /// Client → server, stats round 1: per-layer activation means and the
    /// local sample count (Algorithm 1 line 4).
    StatsRound1 {
        /// `means[layer][dim]`.
        means: Vec<Vec<f32>>,
        /// Rows of this client's activation matrix (`n_i`).
        n_samples: u64,
    },
    /// Client → server, stats round 2: per-layer central moments about the
    /// global mean (Algorithm 1 lines 12–13).
    StatsRound2 {
        /// `moments[layer][order - 2][dim]`.
        moments: Vec<Vec<Vec<f32>>>,
    },
    /// Server → client: the aggregated global model.
    GlobalModel {
        /// Parameter matrices in aggregation order.
        params: Vec<Tensor>,
    },
    /// Server → client: global statistics (means after round 1; means and
    /// moments after round 2).
    GlobalStats {
        /// `means[layer][dim]`.
        means: Vec<Vec<f32>>,
        /// `moments[layer][order - 2][dim]`; empty after round 1.
        moments: Vec<Vec<Vec<f32>>>,
    },
    /// Round orchestration signal.
    Control(Control),
    /// Client → server: the round's local outcome, so a server that does
    /// not own the clients (multi-process deployment) can reproduce the
    /// in-process driver's loss averaging, pooled evaluation, and early
    /// stopping. Counts are raw integers because pooled accuracy is a
    /// ratio of integer sums — order-free and therefore exact across
    /// transports.
    Metrics {
        /// This client's total training loss for the round.
        train_loss: f32,
        /// Correct validation predictions (0 when not an eval round).
        val_correct: u64,
        /// Validation nodes evaluated (0 when not an eval round).
        val_total: u64,
        /// Correct test predictions (0 when not an eval round).
        test_correct: u64,
        /// Test nodes evaluated (0 when not an eval round).
        test_total: u64,
    },
}

impl Payload {
    /// Wire discriminant.
    pub(crate) fn msg_type(&self) -> u8 {
        match self {
            Payload::WeightUpdate { .. } => 1,
            Payload::StatsRound1 { .. } => 2,
            Payload::StatsRound2 { .. } => 3,
            Payload::GlobalModel { .. } => 4,
            Payload::GlobalStats { .. } => 5,
            Payload::Control(_) => 6,
            Payload::Metrics { .. } => 7,
        }
    }

    /// Human-readable kind (for logs and assertions).
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::WeightUpdate { .. } => "WeightUpdate",
            Payload::StatsRound1 { .. } => "StatsRound1",
            Payload::StatsRound2 { .. } => "StatsRound2",
            Payload::GlobalModel { .. } => "GlobalModel",
            Payload::GlobalStats { .. } => "GlobalStats",
            Payload::Control(_) => "Control",
            Payload::Metrics { .. } => "Metrics",
        }
    }

    /// Whether a frame of `kind` (a [`Payload::kind`]) travels client →
    /// server. With [`Payload::carries_weights`] this is the one table the
    /// byte ledger sorts traffic by.
    pub fn travels_up(kind: &str) -> bool {
        matches!(
            kind,
            "WeightUpdate" | "StatsRound1" | "StatsRound2" | "Metrics"
        )
    }

    /// Whether a frame of `kind` carries model weights; every other kind
    /// counts as statistics (the split the paper's Table 3 is about).
    pub fn carries_weights(kind: &str) -> bool {
        matches!(kind, "WeightUpdate" | "GlobalModel")
    }

    /// Bytes [`Payload::encode`] writes, summed from the payload's shape.
    fn encoded_len(&self) -> usize {
        match self {
            Payload::WeightUpdate { params } | Payload::GlobalModel { params } => {
                4 + params.iter().map(Tensor::encoded_len).sum::<usize>()
            }
            Payload::StatsRound1 { means, .. } => layers_len(means) + 8,
            Payload::StatsRound2 { moments } => moments_len(moments),
            Payload::GlobalStats { means, moments } => layers_len(means) + moments_len(moments),
            Payload::Metrics { .. } => 4 + 4 * 8,
            Payload::Control(Control::Abort(reason)) => 1 + 4 + reason.len(),
            Payload::Control(Control::BeginRound | Control::EndRound | Control::Ack) => 1,
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Payload::WeightUpdate { params } | Payload::GlobalModel { params } => {
                encode_tensors(w, params);
            }
            Payload::StatsRound1 { means, n_samples } => {
                encode_layers(w, means);
                w.put_u64(*n_samples);
            }
            Payload::StatsRound2 { moments } => encode_moments(w, moments),
            Payload::GlobalStats { means, moments } => {
                encode_layers(w, means);
                encode_moments(w, moments);
            }
            Payload::Metrics {
                train_loss,
                val_correct,
                val_total,
                test_correct,
                test_total,
            } => {
                w.put_f32(*train_loss);
                w.put_u64(*val_correct);
                w.put_u64(*val_total);
                w.put_u64(*test_correct);
                w.put_u64(*test_total);
            }
            Payload::Control(c) => match c {
                Control::BeginRound => w.put_u8(0),
                Control::EndRound => w.put_u8(1),
                Control::Ack => w.put_u8(2),
                Control::Abort(reason) => {
                    w.put_u8(3);
                    w.put_str(reason);
                }
            },
        }
    }

    fn decode(msg_type: u8, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match msg_type {
            1 | 4 => {
                let params = decode_tensors(r)?;
                Ok(if msg_type == 1 {
                    Payload::WeightUpdate { params }
                } else {
                    Payload::GlobalModel { params }
                })
            }
            2 => {
                let means = decode_layers(r)?;
                let n_samples = r.get_u64()?;
                Ok(Payload::StatsRound1 { means, n_samples })
            }
            3 => Ok(Payload::StatsRound2 {
                moments: decode_moments(r)?,
            }),
            5 => {
                let means = decode_layers(r)?;
                let moments = decode_moments(r)?;
                Ok(Payload::GlobalStats { means, moments })
            }
            6 => {
                let code = r.get_u8()?;
                Ok(Payload::Control(match code {
                    0 => Control::BeginRound,
                    1 => Control::EndRound,
                    2 => Control::Ack,
                    3 => Control::Abort(r.get_str()?),
                    other => {
                        return Err(WireError::Malformed(format!("control code {other}")));
                    }
                }))
            }
            7 => Ok(Payload::Metrics {
                train_loss: r.get_f32()?,
                val_correct: r.get_u64()?,
                val_total: r.get_u64()?,
                test_correct: r.get_u64()?,
                test_total: r.get_u64()?,
            }),
            // The catch-all is the loud failure: an unknown tag becomes a
            // typed `UnknownMsgType` error, never a silently dropped frame.
            other => Err(WireError::UnknownMsgType(other)),
        }
    }
}

/// Writes a `u32`-counted list of tensors (a parameter list).
pub fn encode_tensors(w: &mut ByteWriter, tensors: &[Tensor]) {
    w.put_u32(tensors.len() as u32);
    for t in tensors {
        t.encode(w);
    }
}

/// Reads a list written by [`encode_tensors`].
pub fn decode_tensors(r: &mut ByteReader<'_>) -> Result<Vec<Tensor>, WireError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(Tensor::decode(r)?);
    }
    Ok(out)
}

/// Bytes [`encode_layers`] writes.
fn layers_len(layers: &[Vec<f32>]) -> usize {
    4 + layers.iter().map(|l| 4 + 4 * l.len()).sum::<usize>()
}

/// Bytes [`encode_moments`] writes.
fn moments_len(moments: &[Vec<Vec<f32>>]) -> usize {
    4 + moments.iter().map(|l| layers_len(l)).sum::<usize>()
}

/// Writes a `u32`-counted list of `u32`-counted `f32` runs (per-layer
/// means).
pub fn encode_layers(w: &mut ByteWriter, layers: &[Vec<f32>]) {
    w.put_u32(layers.len() as u32);
    for layer in layers {
        w.put_f32_slice(layer);
    }
}

/// Reads a list written by [`encode_layers`].
pub fn decode_layers(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f32>>, WireError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.get_f32_vec()?);
    }
    Ok(out)
}

/// Writes per-layer, per-order moments: a `u32`-counted list of
/// [`encode_layers`] lists.
pub fn encode_moments(w: &mut ByteWriter, moments: &[Vec<Vec<f32>>]) {
    w.put_u32(moments.len() as u32);
    for layer in moments {
        encode_layers(w, layer);
    }
}

/// Reads a list written by [`encode_moments`].
pub fn decode_moments(r: &mut ByteReader<'_>) -> Result<Vec<Vec<Vec<f32>>>, WireError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_layers(r)?);
    }
    Ok(out)
}

/// One addressed, round-stamped message.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Communication round this message belongs to.
    pub round: u64,
    /// Originator: a client index, or [`SERVER_SENDER`].
    pub sender: u32,
    /// The message body.
    pub payload: Payload,
}

impl Envelope {
    /// Serialises to a complete checksummed frame, written once into a
    /// buffer of exactly [`Envelope::encoded_len`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.payload.encoded_len();
        let mut w = ByteWriter::with_capacity(HEADER_BYTES + payload_len + TRAILER_BYTES);
        w.put_u32(MAGIC);
        w.put_u8(VERSION);
        w.put_u8(self.payload.msg_type());
        w.put_u32(self.sender);
        w.put_u64(self.round);
        w.put_u32(payload_len as u32);
        self.payload.encode(&mut w);
        debug_assert_eq!(
            w.len(),
            HEADER_BYTES + payload_len,
            "payload length drifted"
        );
        let crc = crc32(w.as_slice());
        w.put_u32(crc);
        w.into_bytes()
    }

    /// Parses a complete frame, verifying magic, version, declared payload
    /// length, and checksum; rejects trailing bytes.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(frame);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let msg_type = r.get_u8()?;
        let sender = r.get_u32()?;
        let round = r.get_u64()?;
        let payload_len = r.get_u32()? as usize;
        if r.remaining() != payload_len + TRAILER_BYTES {
            return Err(WireError::Malformed(format!(
                "declared payload length {payload_len} disagrees with frame size {}",
                frame.len()
            )));
        }
        // Verify the checksum before trusting any payload structure.
        let checksummed = frame.len() - TRAILER_BYTES;
        let stored = match <[u8; TRAILER_BYTES]>::try_from(&frame[checksummed..]) {
            Ok(bytes) => u32::from_le_bytes(bytes),
            // Unreachable given the length check above, but a typed error
            // keeps the decode path panic-free on arbitrary input.
            Err(_) => {
                return Err(WireError::Truncated {
                    needed: TRAILER_BYTES,
                    available: frame.len() - checksummed,
                })
            }
        };
        let computed = crc32(&frame[..checksummed]);
        if stored != computed {
            return Err(WireError::BadChecksum { stored, computed });
        }
        // The payload reader ends where the checksum starts, so a payload
        // that claims more than its declared length is truncated, never
        // read on into the trailer.
        let mut body = ByteReader::new(&frame[r.position()..checksummed]);
        let payload = Payload::decode(msg_type, &mut body)?;
        if body.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} payload bytes left undecoded",
                body.remaining()
            )));
        }
        Ok(Self {
            round,
            sender,
            payload,
        })
    }

    /// Size in bytes of the frame [`Envelope::encode`] writes, summed in
    /// closed form from the header, the payload's shape and the trailer,
    /// without encoding or allocating. Every byte count the round drivers
    /// and transports report is this number.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.payload.encoded_len() + TRAILER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelopes() -> Vec<Envelope> {
        vec![
            Envelope {
                round: 3,
                sender: 1,
                payload: Payload::WeightUpdate {
                    params: vec![
                        Tensor {
                            rows: 2,
                            cols: 3,
                            data: vec![1.0, -2.5, 0.0, 1e-7, 3.5, -0.125],
                        },
                        Tensor {
                            rows: 1,
                            cols: 1,
                            data: vec![42.0],
                        },
                    ],
                },
            },
            Envelope {
                round: 0,
                sender: 0,
                payload: Payload::StatsRound1 {
                    means: vec![vec![0.5, -0.5], vec![1.5]],
                    n_samples: 37,
                },
            },
            Envelope {
                round: 9,
                sender: 2,
                payload: Payload::StatsRound2 {
                    moments: vec![vec![vec![0.1, 0.2], vec![0.3, 0.4]], vec![vec![-1.0]]],
                },
            },
            Envelope {
                round: 5,
                sender: SERVER_SENDER,
                payload: Payload::GlobalModel {
                    params: vec![Tensor {
                        rows: 0,
                        cols: 4,
                        data: vec![],
                    }],
                },
            },
            Envelope {
                round: 5,
                sender: SERVER_SENDER,
                payload: Payload::GlobalStats {
                    means: vec![vec![2.0]],
                    moments: vec![vec![vec![0.25, 0.75]]],
                },
            },
            Envelope {
                round: 1,
                sender: 0,
                payload: Payload::Control(Control::BeginRound),
            },
            Envelope {
                round: 7,
                sender: 3,
                payload: Payload::Metrics {
                    train_loss: 0.8125,
                    val_correct: 31,
                    val_total: 40,
                    test_correct: 77,
                    test_total: 100,
                },
            },
            Envelope {
                round: 1,
                sender: 4,
                payload: Payload::Control(Control::Abort("client lost".into())),
            },
        ]
    }

    #[test]
    fn every_payload_kind_has_one_direction_and_class() {
        let table: Vec<(&str, bool, bool)> = sample_envelopes()
            .iter()
            .map(|env| {
                let kind = env.payload.kind();
                (
                    kind,
                    Payload::travels_up(kind),
                    Payload::carries_weights(kind),
                )
            })
            .collect();
        // (kind, uplink, weights) for all seven kinds, Control twice.
        assert_eq!(
            table,
            [
                ("WeightUpdate", true, true),
                ("StatsRound1", true, false),
                ("StatsRound2", true, false),
                ("GlobalModel", false, true),
                ("GlobalStats", false, false),
                ("Control", false, false),
                ("Metrics", true, false),
                ("Control", false, false),
            ]
        );
    }

    #[test]
    fn every_payload_kind_roundtrips() {
        for env in sample_envelopes() {
            let bytes = env.encode();
            assert_eq!(env.encoded_len(), bytes.len(), "{}", env.payload.kind());
            let back = Envelope::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e:?}", env.payload.kind()));
            assert_eq!(back, env);
        }
    }

    #[test]
    fn floats_survive_bit_exactly() {
        let weird = vec![
            f32::MIN_POSITIVE,
            -0.0,
            1.0e38,
            f32::EPSILON,
            -std::f32::consts::PI,
        ];
        let env = Envelope {
            round: 0,
            sender: 0,
            payload: Payload::WeightUpdate {
                params: vec![Tensor {
                    rows: 1,
                    cols: 5,
                    data: weird.clone(),
                }],
            },
        };
        let back = Envelope::decode(&env.encode()).unwrap();
        match back.payload {
            Payload::WeightUpdate { params } => {
                for (a, b) in params[0].data.iter().zip(&weird) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong payload {}", other.kind()),
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_rejected() {
        let env = sample_envelopes().remove(0);
        let good = env.encode();

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Envelope::decode(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = VERSION + 1;
        assert!(matches!(
            Envelope::decode(&bad),
            Err(WireError::BadVersion(_))
        ));

        let mut bad = good.clone();
        let mid = good.len() / 2;
        bad[mid] ^= 0x01;
        // A mid-frame flip lands in header or payload; either way the frame
        // must not decode to a different envelope.
        match Envelope::decode(&bad) {
            Err(_) => {}
            Ok(e) => panic!("corrupted frame decoded as {:?}", e.payload.kind()),
        }
    }

    #[test]
    fn truncated_and_padded_frames_rejected() {
        let good = sample_envelopes().remove(0).encode();
        assert!(Envelope::decode(&good[..good.len() - 1]).is_err());
        let mut padded = good.clone();
        padded.push(0);
        assert!(Envelope::decode(&padded).is_err());
        assert!(Envelope::decode(&[]).is_err());
    }

    #[test]
    fn adversarial_length_prefix_is_rejected_before_allocation() {
        // A hostile peer announces a 4 GiB frame: the cap rejects the
        // prefix itself, so no buffer of that size is ever allocated.
        assert_eq!(
            check_frame_len(u32::MAX, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::FrameTooLarge {
                declared: u32::MAX as u64,
                max: DEFAULT_MAX_FRAME_BYTES as u64,
            })
        );
        // One byte over a custom cap is over.
        assert!(matches!(
            check_frame_len(1025, 1024),
            Err(WireError::FrameTooLarge {
                declared: 1025,
                max: 1024
            })
        ));
        // Shorter than any syntactically possible frame: also rejected.
        assert!(matches!(
            check_frame_len(3, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Truncated { .. })
        ));
        // Every real frame passes under the default cap.
        for env in sample_envelopes() {
            let n = env.encode().len() as u32;
            assert_eq!(check_frame_len(n, DEFAULT_MAX_FRAME_BYTES), Ok(n as usize));
        }
    }

    #[test]
    fn overflowing_tensor_dims_are_rejected_not_panicked_on() {
        // A hostile but checksummed frame: one WeightUpdate tensor
        // claiming 2³¹ × 2³¹ elements and no data. `rows * cols * 4` is
        // exactly 2⁶⁴, so wrapping arithmetic would size-check it as 0
        // bytes and then panic allocating 2⁶² elements; the decoder must
        // return a typed error instead.
        let mut body = ByteWriter::new();
        body.put_u32(1); // one tensor
        body.put_u32(1 << 31); // rows
        body.put_u32(1 << 31); // cols
        let body = body.into_bytes();

        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u8(VERSION);
        w.put_u8(1); // WeightUpdate
        w.put_u32(0); // sender
        w.put_u64(0); // round
        w.put_u32(body.len() as u32);
        w.put_raw(&body);
        let crc = crc32(w.as_slice());
        w.put_u32(crc);
        let frame = w.into_bytes();

        assert!(matches!(
            Envelope::decode(&frame),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn tensor_matrix_conversion_roundtrips() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 7 + c) as f32 * 0.5);
        let t = Tensor::from(&m);
        assert_eq!(t.into_matrix(), m);
    }

    #[test]
    fn encoding_is_byte_identical_across_calls() {
        // Determinism regression guard: the wire format carries no
        // unordered containers, so encoding the same envelope twice — or
        // re-encoding after a decode — must reproduce the exact bytes.
        for env in sample_envelopes() {
            let a = env.encode();
            assert_eq!(env.encode(), a);
            let re = Envelope::decode(&a).expect("decode").encode();
            assert_eq!(
                re,
                a,
                "decode → re-encode drifted for {}",
                env.payload.kind()
            );
        }
    }

    #[test]
    fn encoded_len_matches_closed_form() {
        // A WeightUpdate's size must be exactly predictable from its shape:
        // header + n_params prefix + per-tensor (rows + cols + data) + crc.
        let env = Envelope {
            round: 2,
            sender: 1,
            payload: Payload::WeightUpdate {
                params: vec![Tensor {
                    rows: 4,
                    cols: 6,
                    data: vec![0.0; 24],
                }],
            },
        };
        let expected = HEADER_BYTES + 4 + (4 + 4 + 24 * 4) + TRAILER_BYTES;
        assert_eq!(env.encode().len(), expected);
        assert_eq!(env.encoded_len(), expected);
    }
}
