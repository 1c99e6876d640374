//! Length-prefixed frame I/O over a byte stream, plus the join handshake.
//!
//! Every message between FedOMD processes is a little-endian `u32` length
//! prefix followed by that many bytes. For envelope traffic the bytes are
//! a complete `fedomd-transport` frame (magic, header, payload, CRC) and
//! the declared length runs through
//! [`fedomd_transport::check_frame_len`] **before any allocation**, so an
//! adversarial or corrupted prefix cannot make the receiver reserve
//! gigabytes. Handshake messages use the same prefix with their own tiny
//! codec below.
//!
//! The handshake is one round trip at connect time:
//!
//! * client → server [`Hello`]: protocol version, client id, and the
//!   client's run spec ([`fedomd_federated::RunSpec::flags`]), which the
//!   server compares with its own key by key;
//! * server → client [`Welcome`]: accept/reject with a reason, the round
//!   the client should enter, and optionally the latest aggregated global
//!   model (an encoded `GlobalModel` frame) so a rejoining or resumed
//!   client starts from the federation's current weights.

use std::io::{Read, Write};

use fedomd_federated::Flags;
use fedomd_transport::wire::{ByteReader, ByteWriter};
use fedomd_transport::{check_frame_len, Envelope};

use crate::error::NetError;

/// Version of the process-to-process join protocol (independent of the
/// frame codec's own version byte).
pub const PROTOCOL_VERSION: u8 = 2;

/// Magic prefix of a `Hello` handshake message.
const HELLO_MAGIC: u32 = 0x464A_4F49; // "FJOI"
/// Magic prefix of a `Welcome` handshake message.
const WELCOME_MAGIC: u32 = 0x4657_454C; // "FWEL"

/// Handshake messages stay far below this (a `Hello` with the largest
/// preset's spec is under half of it); anything bigger is garbage. The
/// optional model sync rides as a separate envelope frame under the
/// transport cap, not inside the `Welcome`.
pub const MAX_HANDSHAKE_BYTES: u32 = 4096;

/// Writes one length-prefixed message and flushes.
pub fn write_prefixed(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed message, allocating only after the declared
/// length passes the `max` cap.
pub fn read_prefixed(r: &mut impl Read, max: u32) -> Result<Vec<u8>, NetError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let declared = u32::from_le_bytes(len);
    if declared > max {
        return Err(NetError::Protocol(format!(
            "declared message length {declared} exceeds the cap {max}"
        )));
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one envelope as a length-prefixed transport frame.
pub fn write_frame(w: &mut impl Write, env: &Envelope) -> std::io::Result<usize> {
    let frame = env.encode();
    write_prefixed(w, &frame)?;
    Ok(frame.len())
}

/// Reads one length-prefixed transport frame; the declared length is
/// validated by [`check_frame_len`] (cap *and* minimum) before the
/// allocation, the frame content by [`Envelope::decode`] after it.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<(Envelope, usize), NetError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let declared = u32::from_le_bytes(len);
    let n = check_frame_len(declared, max)?;
    let mut frame = vec![0u8; n];
    r.read_exact(&mut frame)?;
    let env = Envelope::decode(&frame)?;
    Ok((env, n))
}

/// The client's half of the join handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Join-protocol version ([`PROTOCOL_VERSION`]).
    pub version: u8,
    /// The client's party id (`0..n_parties`).
    pub client_id: u32,
    /// The client's run spec; the server refuses one that differs from
    /// its own in any key but `rounds` and `patience`, naming the key.
    pub spec: Flags,
}

impl Hello {
    /// Serialises and sends as one prefixed message.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut b = ByteWriter::new();
        b.put_u32(HELLO_MAGIC);
        b.put_u8(self.version);
        b.put_u32(self.client_id);
        self.spec.encode(&mut b);
        write_prefixed(w, &b.into_bytes())
    }

    /// Reads and parses one prefixed `Hello`.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let body = read_prefixed(r, MAX_HANDSHAKE_BYTES)?;
        let mut b = ByteReader::new(&body);
        if b.get_u32()? != HELLO_MAGIC {
            return Err(NetError::Protocol("hello: bad magic".into()));
        }
        let hello = Hello {
            version: b.get_u8()?,
            client_id: b.get_u32()?,
            spec: Flags::decode(&mut b)?,
        };
        b.expect_end()?;
        Ok(hello)
    }
}

/// The server's verdict on a [`Hello`].
#[derive(Clone, Debug, PartialEq)]
pub struct Welcome {
    /// Whether the client is admitted.
    pub accept: bool,
    /// Reject reason (empty on accept).
    pub reason: String,
    /// The first round the client should run. 0 for a fresh federation;
    /// the checkpoint's next round after `--resume`; the round after the
    /// current one for a mid-run rejoin.
    pub resume_round: u64,
    /// Whether a `GlobalModel` frame follows this message, carrying the
    /// weights the client must install before its first round.
    pub has_model: bool,
}

impl Welcome {
    /// A rejection with a reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        Welcome {
            accept: false,
            reason: reason.into(),
            resume_round: 0,
            has_model: false,
        }
    }

    /// Serialises and sends as one prefixed message.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut b = ByteWriter::new();
        b.put_u32(WELCOME_MAGIC);
        b.put_u8(self.accept as u8);
        b.put_str(&self.reason);
        b.put_u64(self.resume_round);
        b.put_u8(self.has_model as u8);
        write_prefixed(w, &b.into_bytes())
    }

    /// Reads and parses one prefixed `Welcome`.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let body = read_prefixed(r, MAX_HANDSHAKE_BYTES)?;
        let mut b = ByteReader::new(&body);
        if b.get_u32()? != WELCOME_MAGIC {
            return Err(NetError::Protocol("welcome: bad magic".into()));
        }
        let w = Welcome {
            accept: b.get_flag()?,
            reason: b.get_str()?,
            resume_round: b.get_u64()?,
            has_model: b.get_flag()?,
        };
        b.expect_end()?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_federated::{FedOmdConfig, RunSpec, Strategy, TrainConfig};
    use fedomd_transport::{Payload, WireError, DEFAULT_MAX_FRAME_BYTES};

    fn hello(spec: Flags) -> Hello {
        Hello {
            version: PROTOCOL_VERSION,
            client_id: 7,
            spec,
        }
    }

    /// The spec of every preset combination, longest dataset name, a
    /// 5000-party cohort and seeds of the most digits: the largest `Hello`
    /// a launched run presents.
    fn largest_spec() -> Flags {
        let trains = [TrainConfig::paper(u64::MAX), TrainConfig::mini(u64::MAX)];
        let omds = [
            FedOmdConfig::paper(),
            FedOmdConfig::strict_paper(),
            FedOmdConfig::ortho_only(),
            FedOmdConfig::cmd_only(),
        ];
        let specs = trains.iter().flat_map(|train| {
            omds.iter().map(move |&omd| {
                let mut train = train.clone();
                train.cohort = fedomd_federated::CohortConfig::fraction(0.02, u64::MAX);
                RunSpec {
                    strategy: Strategy::FedOmd(omd),
                    parties: 5000,
                    dataset: Some("coauthor-cs-mini".into()),
                    train,
                }
                .flags()
            })
        });
        let len = |f: &Flags| f.0.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
        specs.max_by_key(len).expect("presets")
    }

    /// A message's body as its write puts it on the wire, without the
    /// length prefix.
    fn body_of(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf).expect("write");
        buf.split_off(4)
    }

    /// Decodes `body` behind a length prefix that states its true size.
    fn read_body<T>(
        body: &[u8],
        read: fn(&mut &[u8]) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(body);
        read(&mut framed.as_slice())
    }

    /// Every truncation and every one-byte extension of `good` is refused;
    /// every one-byte flip is refused or decodes to the message whose
    /// encoding is exactly the flipped bytes. None of it panics.
    fn hostile_bytes_are_typed_errors<T>(
        good: &[u8],
        read: fn(&mut &[u8]) -> Result<T, NetError>,
        write: fn(&T, &mut Vec<u8>) -> std::io::Result<()>,
    ) {
        for len in 0..good.len() {
            assert!(
                read_body(&good[..len], read).is_err(),
                "truncation to {len}"
            );
        }
        for extra in [0u8, 1, 0xFF] {
            let mut long = good.to_vec();
            long.push(extra);
            assert!(read_body(&long, read).is_err(), "extended by {extra:#04x}");
        }
        let mut bad = good.to_vec();
        for i in 0..good.len() {
            for mask in 1..=255u8 {
                bad[i] = good[i] ^ mask;
                if let Ok(msg) = read_body(&bad, read) {
                    assert_eq!(body_of(|w| write(&msg, w)), bad, "byte {i} ^ {mask:#04x}");
                }
            }
            bad[i] = good[i];
        }
    }

    #[test]
    fn hostile_hellos_and_welcomes_are_typed_errors() {
        let good = body_of(|w| hello(largest_spec()).write_to(w));
        hostile_bytes_are_typed_errors(&good, |r| Hello::read_from(r), |h, w| h.write_to(w));
        let welcome = Welcome::reject("run spec mismatch: `lr` differs: 0.03 vs 0.05");
        let good = body_of(|w| welcome.write_to(w));
        hostile_bytes_are_typed_errors(&good, |r| Welcome::read_from(r), |m, w| m.write_to(w));
    }

    #[test]
    fn a_lying_count_or_length_is_refused_before_allocating() {
        // The pair count sits after magic, version and client id; the
        // first key's length right after it. A count of u32::MAX pairs or
        // a 4 GiB key is refused by its bound against the bytes present,
        // not by an allocation that fails.
        let good = body_of(|w| hello(largest_spec()).write_to(w));
        for at in [4 + 1 + 4, 4 + 1 + 4 + 4] {
            let mut lie = good.clone();
            lie[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            match read_body(&lie, |r| Hello::read_from(r)) {
                Err(NetError::Wire(WireError::Truncated { needed, available })) => {
                    assert!(needed > available && available < good.len(), "at {at}");
                }
                other => panic!("at {at}: expected Truncated, got {other:?}"),
            }
        }
        // The same for the reason string of a Welcome.
        let mut lie = body_of(|w| Welcome::reject("no").write_to(w));
        lie[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_body(&lie, |r| Welcome::read_from(r)),
            Err(NetError::Wire(WireError::Truncated { .. }))
        ));
        // And a declared message length past the cap is refused from the
        // prefix alone.
        let mut framed = (MAX_HANDSHAKE_BYTES + 1).to_le_bytes().to_vec();
        framed.extend_from_slice(&good);
        assert!(matches!(
            Hello::read_from(&mut framed.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn the_largest_preset_fits_a_hello_twice_over() {
        let body = body_of(|w| hello(largest_spec()).write_to(w));
        assert!(
            2 * body.len() <= MAX_HANDSHAKE_BYTES as usize,
            "a {}-byte Hello leaves less than 2x headroom under {MAX_HANDSHAKE_BYTES}",
            body.len()
        );
    }

    #[test]
    fn handshake_messages_round_trip() {
        let mut buf = Vec::new();
        let hello = hello(largest_spec());
        hello.write_to(&mut buf).expect("write");
        let got = Hello::read_from(&mut buf.as_slice()).expect("read");
        assert_eq!(got, hello);

        let mut buf = Vec::new();
        let welcome = Welcome {
            accept: true,
            reason: String::new(),
            resume_round: 42,
            has_model: true,
        };
        welcome.write_to(&mut buf).expect("write");
        assert_eq!(
            Welcome::read_from(&mut buf.as_slice()).expect("read"),
            welcome
        );

        let mut buf = Vec::new();
        let nope = Welcome::reject("run spec mismatch");
        nope.write_to(&mut buf).expect("write");
        let got = Welcome::read_from(&mut buf.as_slice()).expect("read");
        assert!(!got.accept);
        assert_eq!(got.reason, "run spec mismatch");
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let env = Envelope {
            round: 9,
            sender: 3,
            payload: Payload::Metrics {
                train_loss: 0.75,
                val_correct: 1,
                val_total: 2,
                test_correct: 3,
                test_total: 4,
            },
        };
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, &env).expect("write");
        assert_eq!(buf.len(), n + 4, "prefix + frame");
        let (got, len) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("read");
        assert_eq!(len, n);
        assert_eq!(got.round, 9);
        assert_eq!(got.sender, 3);
        assert_eq!(got.payload, env.payload);
    }

    #[test]
    fn adversarial_prefix_is_rejected_before_allocation() {
        // A hostile peer declares a 4 GiB frame: the reader must refuse
        // from the 4 prefix bytes alone.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(NetError::Wire(WireError::FrameTooLarge { declared, max })) => {
                assert_eq!(declared, u32::MAX as u64);
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Same for handshake messages with their much tighter cap.
        let err = read_prefixed(&mut bytes.as_slice(), 4096);
        assert!(matches!(err, Err(NetError::Protocol(_))));
    }
}
