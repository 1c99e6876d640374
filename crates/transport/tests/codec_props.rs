//! Property tests for the frame codec: every well-formed envelope
//! roundtrips bit-exactly at exactly its closed-form length, every frame
//! the decoder accepts is the one `encode` writes for what it decoded, and
//! no corrupted frame ever decodes — the CRC-32 (which detects all
//! single-byte errors) makes the last property exact rather than
//! probabilistic.

use fedomd_transport::frame::{
    Control, Envelope, Payload, Tensor, HEADER_BYTES, MAGIC, TRAILER_BYTES, VERSION,
};
use fedomd_transport::wire::{crc32, ByteWriter};
use proptest::collection::vec;
use proptest::prelude::*;

/// Deterministically builds one of the seven payload kinds (`kind` in
/// `0..7`), every `Control` variant included, from generated raw material
/// (`data` is chunked into layers for the stats shapes).
fn build_payload(kind: u8, data: Vec<f32>, layers: usize, n: u64, text: String) -> Payload {
    let chunk = (data.len() / layers.max(1)).max(1);
    let split: Vec<Vec<f32>> = data.chunks(chunk).map(|c| c.to_vec()).collect();
    match kind {
        0 => Payload::WeightUpdate {
            params: vec![Tensor {
                rows: data.len() as u32,
                cols: 1,
                data,
            }],
        },
        1 => Payload::StatsRound1 {
            means: split,
            n_samples: n,
        },
        2 => Payload::StatsRound2 {
            moments: vec![split],
        },
        3 => Payload::GlobalModel {
            params: vec![Tensor {
                rows: 1,
                cols: data.len() as u32,
                data,
            }],
        },
        4 => Payload::GlobalStats {
            means: split.clone(),
            moments: vec![split],
        },
        5 => Payload::Control(match n % 4 {
            0 => Control::BeginRound,
            1 => Control::EndRound,
            2 => Control::Ack,
            _ => Control::Abort(text),
        }),
        _ => Payload::Metrics {
            train_loss: data.first().copied().unwrap_or(0.5),
            val_correct: n,
            val_total: n.saturating_mul(2),
            test_correct: n / 3,
            test_total: u64::MAX - n,
        },
    }
}

/// `payload` behind a valid header (magic, version, `msg_type`, ids and
/// the payload length) and followed by its CRC — the layout
/// `Envelope::encode` writes, around bytes it may never have written.
fn wrap(msg_type: u8, sender: u32, round: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(MAGIC);
    w.put_u8(VERSION);
    w.put_u8(msg_type);
    w.put_u32(sender);
    w.put_u64(round);
    w.put_u32(payload.len() as u32);
    w.put_raw(payload);
    let crc = crc32(w.as_slice());
    w.put_u32(crc);
    w.into_bytes()
}

proptest! {
    #[test]
    fn encode_decode_roundtrips_exactly(
        kind in 0u8..7,
        round in 0u64..=u64::MAX,
        sender in 0u32..=u32::MAX,
        data in vec(-1.0e6f32..1.0e6, 0..32),
        layers in 1usize..4,
        n in 0u64..1_000_000,
        text_chars in vec(0usize..6, 0..12),
    ) {
        // One-, two- and three-byte UTF-8: a length counts bytes, not chars.
        let alphabet = ['a', 'Z', ' ', 'é', 'ß', '字'];
        let text: String = text_chars.into_iter().map(|i| alphabet[i]).collect();
        let env = Envelope { round, sender, payload: build_payload(kind, data, layers, n, text) };
        let bytes = env.encode();
        prop_assert_eq!(env.encoded_len(), bytes.len());
        let back = Envelope::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), env);
    }

    /// Canonical frames: whatever bytes sit between a valid header and CRC,
    /// for every message type (unknown ones too), a frame the decoder
    /// accepts is exactly the frame `encode` writes for the envelope it
    /// decoded. So a received frame's size is the decoded envelope's
    /// `encoded_len`, from an honest peer or a hostile one. The payloads
    /// are real encodings, under their own type or any other, with a few
    /// bytes overwritten, or raw random bytes.
    #[test]
    fn every_accepted_frame_is_the_one_encode_writes(
        msg_type in 0u8..9,
        retype in 0u8..2,
        kind in 0u8..7,
        data in vec(-1.0e6f32..1.0e6, 0..12),
        n in 0u64..1_000_000,
        edits in vec((0usize..=usize::MAX, 0u8..=255, 0u8..2), 0..4),
        raw in vec(0u8..=255, 0..48),
        from_raw in 0u8..4,
    ) {
        let (msg_type, payload) = if from_raw == 0 {
            (msg_type, raw)
        } else {
            let env = Envelope {
                round: 0,
                sender: 0,
                payload: build_payload(kind, data, 2, n, "ok".into()),
            };
            let bytes = env.encode();
            // Byte 5 of the header is the payload's own type.
            let msg_type = if retype == 0 { bytes[5] } else { msg_type };
            let mut payload = bytes[HEADER_BYTES..bytes.len() - TRAILER_BYTES].to_vec();
            for (pos, value, small) in edits {
                if !payload.is_empty() {
                    let at = pos % payload.len();
                    // Small values keep counts plausible and hit every
                    // control code, the four valid ones and a few past them.
                    payload[at] = if small == 1 { value % 8 } else { value };
                }
            }
            (msg_type, payload)
        };
        let frame = wrap(msg_type, 7, 3, &payload);
        if let Ok(env) = Envelope::decode(&frame) {
            prop_assert_eq!(env.encoded_len(), frame.len());
            prop_assert_eq!(env.encode(), frame);
        }
    }

    #[test]
    fn single_byte_corruption_is_always_rejected(
        kind in 0u8..7,
        data in vec(-100.0f32..100.0, 1..24),
        layers in 1usize..3,
        pos in 0usize..=usize::MAX,
        mask in 1u8..=255,
    ) {
        let env = Envelope {
            round: 11,
            sender: 3,
            payload: build_payload(kind, data, layers, 9, "x".into()),
        };
        let mut bytes = env.encode();
        let idx = pos % bytes.len();
        bytes[idx] ^= mask;
        // A flipped byte may land in magic, version, type, ids, lengths,
        // payload, or the checksum itself; in every case the frame must be
        // rejected — never silently mis-decoded.
        let got = Envelope::decode(&bytes);
        prop_assert!(
            got.is_err(),
            "byte {} of {} flipped by {:#04x} still decoded as {:?}",
            idx, bytes.len(), mask, got.unwrap().payload.kind()
        );
    }

    #[test]
    fn truncated_frames_are_always_rejected(
        data in vec(-10.0f32..10.0, 1..16),
        cut in 0usize..=usize::MAX,
    ) {
        let env = Envelope {
            round: 2,
            sender: 1,
            payload: Payload::WeightUpdate {
                params: vec![Tensor { rows: data.len() as u32, cols: 1, data }],
            },
        };
        let bytes = env.encode();
        let keep = cut % bytes.len(); // strictly shorter than the frame
        prop_assert!(Envelope::decode(&bytes[..keep]).is_err());
    }
}
