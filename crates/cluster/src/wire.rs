//! The TCMP wire format: length-prefixed binary framing for the TCP
//! cluster backend.
//!
//! Every frame — data envelopes and control messages alike — starts with a
//! fixed 48-byte little-endian header followed by `payload_len` payload
//! bytes. The byte-level layout is specified in
//! [`docs/wire-protocol.md`](../../../../docs/wire-protocol.md); the
//! constants below are the single source of truth and the doc-test in this
//! module plus `tests/wire_format.rs` keep the document honest.
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"TCMP"
//!      4     2  version        u16, currently 1
//!      6     2  kind           u16, FrameKind discriminant
//!      8     4  src_rank       u32, sender's rank
//!     12     4  payload_len    u32, payload bytes after the header
//!     16     8  tag            i64, MPI-style message tag
//!     24     8  seq            u64, per-link sequence number
//!     32     8  ready_at       f64 bit pattern, virtual arrival time
//!     40     8  nominal_bytes  u64, modelled message size
//!     48     …  payload
//! ```
//!
//! Data payloads are the envelope's `f64` values as consecutive 8-byte
//! little-endian bit patterns, so values survive the wire **bitwise** and a
//! TCP run reproduces the threaded engine's results exactly. Control
//! payloads (rendezvous, results, errors) are defined by their senders;
//! the codec only bounds and transports them.
//!
//! The layout doc-test — the encoder must agree with the documented
//! offsets:
//!
//! ```
//! use tilecc_cluster::wire::*;
//! use tilecc_cluster::Envelope;
//!
//! assert_eq!(HEADER_LEN, 48);
//! assert_eq!((OFF_MAGIC, OFF_VERSION, OFF_KIND, OFF_SRC_RANK), (0, 4, 6, 8));
//! assert_eq!(
//!     (OFF_PAYLOAD_LEN, OFF_TAG, OFF_SEQ, OFF_READY_AT, OFF_NOMINAL_BYTES),
//!     (12, 16, 24, 32, 40)
//! );
//!
//! let env = Envelope { payload: vec![1.5], tag: -2, ready_at: 0.25, seq: 7, bytes: 24 };
//! let bytes = encode_envelope(3, &env);
//! assert_eq!(bytes.len(), HEADER_LEN + 8);
//! assert_eq!(&bytes[OFF_MAGIC..OFF_MAGIC + 4], b"TCMP");
//! let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
//! let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
//! let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
//! assert_eq!(u16_at(OFF_VERSION), VERSION);
//! assert_eq!(u16_at(OFF_KIND), FrameKind::Data as u16);
//! assert_eq!(u32_at(OFF_SRC_RANK), 3);
//! assert_eq!(u32_at(OFF_PAYLOAD_LEN), 8);
//! assert_eq!(i64::from_le_bytes(bytes[OFF_TAG..OFF_TAG + 8].try_into().unwrap()), -2);
//! assert_eq!(u64_at(OFF_SEQ), 7);
//! assert_eq!(u64_at(OFF_READY_AT), 0.25f64.to_bits());
//! assert_eq!(u64_at(OFF_NOMINAL_BYTES), 24);
//! assert_eq!(u64_at(HEADER_LEN), 1.5f64.to_bits());
//! ```

use crate::comm::Envelope;
use std::io::{Read, Write};

/// Frame magic, the first four bytes of every frame: `b"TCMP"`.
pub const MAGIC: [u8; 4] = *b"TCMP";
/// Current protocol version. Peers speaking a different version are
/// rejected with [`WireError::BadVersion`] — there is no downgrade path.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes; the payload follows immediately.
pub const HEADER_LEN: usize = 48;
/// Upper bound on `payload_len`. Anything larger is treated as stream
/// corruption ([`WireError::Oversize`]) rather than an allocation request.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Byte offset of the magic within the header.
pub const OFF_MAGIC: usize = 0;
/// Byte offset of the `u16` protocol version.
pub const OFF_VERSION: usize = 4;
/// Byte offset of the `u16` frame kind.
pub const OFF_KIND: usize = 6;
/// Byte offset of the `u32` sender rank.
pub const OFF_SRC_RANK: usize = 8;
/// Byte offset of the `u32` payload length in bytes.
pub const OFF_PAYLOAD_LEN: usize = 12;
/// Byte offset of the `i64` message tag.
pub const OFF_TAG: usize = 16;
/// Byte offset of the `u64` per-link sequence number.
pub const OFF_SEQ: usize = 24;
/// Byte offset of the `f64` (bit pattern) virtual arrival time.
pub const OFF_READY_AT: usize = 32;
/// Byte offset of the `u64` nominal (modelled) message size.
pub const OFF_NOMINAL_BYTES: usize = 40;

/// What a frame carries. Discriminants are the on-wire `u16` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum FrameKind {
    /// An [`Envelope`] between ranks: payload is `f64` bit patterns.
    Data = 1,
    /// Worker → rendezvous: "rank `src_rank` listens at `payload`
    /// (UTF-8 `host:port`)"; `seq` carries the world size for validation.
    Hello = 2,
    /// Rendezvous → worker: newline-separated `host:port` listener
    /// addresses of all ranks, in rank order.
    Addrs = 3,
    /// Mesh handshake, written once by the dialing (higher-ranked) side so
    /// the accepting side learns which rank owns the socket.
    Peer = 4,
    /// Worker → driver: the rank finished; `ready_at` is its final virtual
    /// clock, the payload is caller-defined (stats + gathered data).
    Result = 5,
    /// Worker → driver: the rank failed; `seq` is the failure class
    /// (1 panic, 2 comm), `tag`/`nominal_bytes` encode a typed
    /// [`CommError`](crate::CommError), the payload is the message text.
    Error = 6,
    /// Worker → driver heartbeat: `seq` is the local progress counter,
    /// `nominal_bytes` is 0 when running, `from + 1` when blocked on rank
    /// `from` (with `tag` the awaited tag), `u64::MAX` when done.
    Progress = 7,
    /// Driver → worker: all results are in, the worker may exit. Workers
    /// hold their process open until this arrives so no socket carrying
    /// undelivered frames is reset early.
    Bye = 8,
    /// Peer → peer checkpoint acknowledgement: "my latest checkpoint covers
    /// every envelope from you with sequence number below `seq`" — the
    /// receiving sender trims its replay log for that link below `seq`.
    CkptAck = 9,
    /// Peer → peer after a restart-the-world recovery: "I resumed from a
    /// checkpoint whose receive frontier for your link is `seq`; replay
    /// your logged envelopes from `seq` on and skip regenerating anything
    /// below it". Workers barrier on one `Resume` per peer before rerunning.
    Resume = 10,
    /// A replayed [`FrameKind::Data`] envelope, resent from the sender's
    /// replay log in response to a [`FrameKind::Resume`]. Identical layout
    /// to `Data`; the distinct kind keeps recovered streams self-describing.
    Replay = 11,
    /// Worker → driver telemetry: an encoded
    /// [`StatsSnapshot`](crate::obs::StatsSnapshot) of the rank's metrics,
    /// piggybacked on the heartbeat cadence and sent once more before
    /// `Result`. `seq` is the snapshot counter (`u64::MAX` for the final
    /// snapshot); every payload is self-contained.
    Stats = 12,
}

impl FrameKind {
    /// Decode the on-wire discriminant.
    pub fn from_u16(v: u16) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Data,
            2 => FrameKind::Hello,
            3 => FrameKind::Addrs,
            4 => FrameKind::Peer,
            5 => FrameKind::Result,
            6 => FrameKind::Error,
            7 => FrameKind::Progress,
            8 => FrameKind::Bye,
            9 => FrameKind::CkptAck,
            10 => FrameKind::Resume,
            11 => FrameKind::Replay,
            12 => FrameKind::Stats,
            _ => return None,
        })
    }
}

/// A decoded frame: header fields plus raw payload bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender's rank.
    pub src: u32,
    /// Message tag (0 for most control frames).
    pub tag: i64,
    /// Per-link sequence number, or kind-specific scalar for control frames.
    pub seq: u64,
    /// Virtual arrival time (or final clock for [`FrameKind::Result`]).
    pub ready_at: f64,
    /// Nominal modelled size, or kind-specific scalar for control frames.
    pub nominal: u64,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A header-only control frame with all scalar fields zeroed.
    pub fn control(kind: FrameKind, src: u32) -> Frame {
        Frame {
            kind,
            src,
            tag: 0,
            seq: 0,
            ready_at: 0.0,
            nominal: 0,
            payload: Vec::new(),
        }
    }

    /// Serialize to the on-wire byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.kind as u16).to_le_bytes());
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.ready_at.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.nominal.to_le_bytes());
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Decode one frame from the start of `buf`, returning it and the
    /// number of bytes consumed. Rejects bad magic, foreign versions,
    /// unknown kinds, oversize payloads, and buffers shorter than the
    /// frame they announce ([`WireError::Truncated`]).
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let (header, rest) = buf.split_at(HEADER_LEN);
        let frame_rest = decode_header(header.try_into().expect("split size"))?;
        let len = frame_rest.1 as usize;
        if rest.len() < len {
            return Err(WireError::Truncated {
                needed: HEADER_LEN + len,
                got: buf.len(),
            });
        }
        let mut frame = frame_rest.0;
        frame.payload = rest[..len].to_vec();
        Ok((frame, HEADER_LEN + len))
    }
}

/// Validate and decode a header, returning the payload-less frame and the
/// announced payload length.
fn decode_header(h: &[u8; HEADER_LEN]) -> Result<(Frame, u32), WireError> {
    let u16_at = |o: usize| u16::from_le_bytes([h[o], h[o + 1]]);
    let u32_at = |o: usize| u32::from_le_bytes(h[o..o + 4].try_into().expect("slice size"));
    let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().expect("slice size"));
    if h[OFF_MAGIC..OFF_MAGIC + 4] != MAGIC {
        return Err(WireError::BadMagic(
            h[OFF_MAGIC..OFF_MAGIC + 4].try_into().expect("slice size"),
        ));
    }
    let version = u16_at(OFF_VERSION);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind_raw = u16_at(OFF_KIND);
    let kind = FrameKind::from_u16(kind_raw).ok_or(WireError::UnknownKind(kind_raw))?;
    let payload_len = u32_at(OFF_PAYLOAD_LEN);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize(payload_len));
    }
    Ok((
        Frame {
            kind,
            src: u32_at(OFF_SRC_RANK),
            tag: i64::from_le_bytes(h[OFF_TAG..OFF_TAG + 8].try_into().expect("slice size")),
            seq: u64_at(OFF_SEQ),
            ready_at: f64::from_bits(u64_at(OFF_READY_AT)),
            nominal: u64_at(OFF_NOMINAL_BYTES),
            payload: Vec::new(),
        },
        payload_len,
    ))
}

/// Blocking read of exactly one frame from `r`.
///
/// A clean end-of-stream *before the first header byte* is reported as
/// [`WireError::Closed`] (the peer hung up between frames); end-of-stream
/// inside a frame is [`WireError::Truncated`] (the peer died mid-write).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated {
                        needed: HEADER_LEN,
                        got: filled,
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    let (mut frame, payload_len) = decode_header(&header)?;
    let len = payload_len as usize;
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                needed: HEADER_LEN + len,
                got: HEADER_LEN,
            }
        } else {
            WireError::Io(e.kind())
        });
    }
    frame.payload = payload;
    Ok(frame)
}

/// Write one frame to `w` (a single `write_all` of the encoded bytes).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Encode an [`Envelope`] as a [`FrameKind::Data`] frame from rank `src`.
/// Payload values travel as `f64` bit patterns, so decoding reproduces
/// them bitwise.
pub fn encode_envelope(src: u32, env: &Envelope) -> Vec<u8> {
    let mut payload = Vec::with_capacity(env.payload.len() * 8);
    for v in &env.payload {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    Frame {
        kind: FrameKind::Data,
        src,
        tag: env.tag,
        seq: env.seq,
        ready_at: env.ready_at,
        nominal: env.bytes as u64,
        payload,
    }
    .encode()
}

/// Encode an [`Envelope`] as a [`FrameKind::Replay`] frame from rank
/// `src`: byte-for-byte the [`encode_envelope`] layout with the `Replay`
/// kind, used when resending logged envelopes after a recovery.
pub fn encode_replay(src: u32, env: &Envelope) -> Vec<u8> {
    let mut bytes = encode_envelope(src, env);
    bytes[OFF_KIND..OFF_KIND + 2].copy_from_slice(&(FrameKind::Replay as u16).to_le_bytes());
    bytes
}

/// Decode a [`FrameKind::Data`] (or [`FrameKind::Replay`] — same layout)
/// frame back into an [`Envelope`]. The payload must be a whole number of
/// 8-byte values ([`WireError::Misaligned`] otherwise) and the frame must
/// actually carry an envelope ([`WireError::UnknownKind`] otherwise).
pub fn decode_envelope(frame: &Frame) -> Result<Envelope, WireError> {
    if frame.kind != FrameKind::Data && frame.kind != FrameKind::Replay {
        return Err(WireError::UnknownKind(frame.kind as u16));
    }
    if !frame.payload.len().is_multiple_of(8) {
        return Err(WireError::Misaligned(frame.payload.len() as u32));
    }
    let payload = frame
        .payload
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk size"))))
        .collect();
    Ok(Envelope {
        payload,
        tag: frame.tag,
        ready_at: frame.ready_at,
        seq: frame.seq,
        bytes: frame.nominal as usize,
    })
}

/// A bounds-checked little-endian cursor over a byte buffer — the reader
/// behind the backend's checkpoint files. Every read checks its end offset
/// with `checked_add`, so a corrupt length field of any size is an error
/// naming `what` and the offset, never a panic.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`; `what` names the buffer in errors
    /// (e.g. `"checkpoint file"` → "truncated checkpoint file at byte 22").
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated {} at byte {}", self.what, self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("slice size"))
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        self.array().map(i64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    /// Fail unless every byte was consumed.
    pub fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the {}", self.what)),
        }
    }
}

/// A malformed or interrupted wire stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// Unrecognized frame-kind discriminant.
    UnknownKind(u16),
    /// The buffer or stream ended inside a frame: `needed` bytes were
    /// announced, only `got` were available.
    Truncated {
        /// Bytes the frame announced.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// `payload_len` exceeded [`MAX_PAYLOAD`].
    Oversize(u32),
    /// A data payload was not a whole number of 8-byte values.
    Misaligned(u32),
    /// The stream ended cleanly between frames (peer hung up).
    Closed,
    /// An OS-level read/write error.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (this peer speaks {VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversize(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Misaligned(n) => {
                write!(f, "data payload of {n} bytes is not a whole number of f64s")
            }
            WireError::Closed => write!(f, "stream closed"),
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_frame_round_trips() {
        let mut f = Frame::control(FrameKind::Hello, 5);
        f.seq = 4;
        f.payload = b"127.0.0.1:4000".to_vec();
        let bytes = f.encode();
        let (g, consumed) = Frame::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(g, f);
    }

    #[test]
    fn envelope_round_trips_bitwise() {
        let env = Envelope {
            payload: vec![std::f64::consts::PI, -0.0, f64::MIN_POSITIVE, 1e300],
            tag: i64::MIN,
            ready_at: 1.0 + f64::EPSILON,
            seq: u64::MAX,
            bytes: 4096,
        };
        let bytes = encode_envelope(9, &env);
        let (frame, _) = Frame::decode(&bytes).unwrap();
        assert_eq!(frame.src, 9);
        let back = decode_envelope(&frame).unwrap();
        assert_eq!(back.tag, env.tag);
        assert_eq!(back.seq, env.seq);
        assert_eq!(back.bytes, env.bytes);
        assert_eq!(back.ready_at.to_bits(), env.ready_at.to_bits());
        for (a, b) in back.payload.iter().zip(&env.payload) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn replay_frames_share_the_data_layout() {
        let env = Envelope {
            payload: vec![2.5, -0.0],
            tag: 3,
            ready_at: 1.5,
            seq: 11,
            bytes: 16,
        };
        let bytes = encode_replay(4, &env);
        let (frame, _) = Frame::decode(&bytes).unwrap();
        assert_eq!(frame.kind, FrameKind::Replay);
        assert_eq!(frame.src, 4);
        let back = decode_envelope(&frame).unwrap();
        assert_eq!(back.seq, env.seq);
        assert_eq!(back.tag, env.tag);
        for (a, b) in back.payload.iter().zip(&env.payload) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let env = Envelope {
            payload: vec![1.0],
            tag: 0,
            ready_at: 0.0,
            seq: 0,
            bytes: 8,
        };
        let good = encode_envelope(0, &env);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[OFF_VERSION] = 0xFF;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(WireError::BadVersion(_))
        ));

        let mut bad_kind = good.clone();
        bad_kind[OFF_KIND] = 0x77;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(WireError::UnknownKind(_))
        ));

        assert!(matches!(
            Frame::decode(&good[..HEADER_LEN + 3]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Frame::decode(&good[..10]),
            Err(WireError::Truncated { .. })
        ));

        let mut oversize = good.clone();
        oversize[OFF_PAYLOAD_LEN..OFF_PAYLOAD_LEN + 4]
            .copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&oversize),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn read_frame_distinguishes_closed_from_truncated() {
        let env = Envelope {
            payload: vec![2.0, 3.0],
            tag: 1,
            ready_at: 0.5,
            seq: 2,
            bytes: 16,
        };
        let bytes = encode_envelope(1, &env);

        let mut cursor = std::io::Cursor::new(bytes.clone());
        let frame = read_frame(&mut cursor).unwrap();
        assert_eq!(decode_envelope(&frame).unwrap().payload, vec![2.0, 3.0]);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));

        let mut partial = std::io::Cursor::new(bytes[..bytes.len() - 4].to_vec());
        assert!(matches!(
            read_frame(&mut partial),
            Err(WireError::Truncated { .. })
        ));
    }
}
