//! The length-prefixed binary frame layer.
//!
//! Every frame on a daemon-to-daemon connection is:
//!
//! ```text
//! [u32 LE body_len][u16 LE magic 0x4E57 "NW"][u8 version = 1][u8 kind][body]
//! ```
//!
//! where `body_len` counts everything after the length word (so a frame
//! occupies `4 + body_len` bytes) and `kind` selects the body layout:
//!
//! - `0` **Hello** — `[u32 LE daemon]`: sent once per connection by the
//!   dialing daemon to identify itself.
//! - `1` **Data** — `[u64 LE seq][u32 LE from][u32 LE to][payload…]`: one
//!   protocol message from pid `from` to pid `to`. `seq` is the session's
//!   monotonic wire sequence number (starts at 1, increments by 1); the
//!   receiver rejects regressions, which would indicate a duplicated or
//!   reordered stream. The payload is the [`crate::wire::Wire`] encoding
//!   of the message type.
//!
//! Malformed input — truncated frames, bodies over [`MAX_FRAME_BODY`],
//! wrong magic/version, unknown kinds — yields [`CodecError`], never a
//! panic: these bytes come off a socket and are untrusted.

use std::fmt;

/// Magic bytes "NW" (little-endian u16) opening every frame body.
pub const MAGIC: u16 = 0x4E57;
/// Codec version; bumped on any layout change.
pub const VERSION: u8 = 2;
/// Maximum accepted body length (16 MiB). Larger claims are rejected
/// before any allocation, so a corrupt length word cannot OOM the daemon.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;

/// Why a frame (or a payload inside one) failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced length.
    Truncated,
    /// The length word claims more than [`MAX_FRAME_BODY`] bytes.
    Oversized(usize),
    /// The magic bytes were wrong — this is not a now-net stream.
    BadMagic(u16),
    /// The peer speaks a different codec version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// An enum tag inside a payload was out of range.
    BadTag(&'static str, u64),
    /// A payload decoded cleanly but left bytes over.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A decoded frame. `Data` payloads stay as raw bytes here; the caller
/// picks the message type to decode them with (the frame layer is
/// payload-agnostic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection preamble: the dialing daemon's index.
    Hello {
        /// Index of the daemon that opened the connection.
        daemon: u32,
    },
    /// One routed protocol message.
    Data {
        /// Per-session monotonic wire sequence number (from 1).
        seq: u64,
        /// Sending pid.
        from: u32,
        /// Destination pid.
        to: u32,
        /// `Wire`-encoded message bytes.
        payload: Vec<u8>,
    },
}

/// Appends the full encoding of `frame` (length word included) to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    match frame {
        Frame::Hello { daemon } => {
            out.push(KIND_HELLO);
            out.extend_from_slice(&daemon.to_le_bytes());
        }
        Frame::Data {
            seq,
            from,
            to,
            payload,
        } => {
            out.push(KIND_DATA);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&to.to_le_bytes());
            out.extend_from_slice(payload);
        }
    }
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Decodes one complete frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read more
/// bytes and retry), `Ok(Some((frame, consumed)))` on success, and an error
/// for anything structurally invalid.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, CodecError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(CodecError::Oversized(body_len));
    }
    if body_len < 4 {
        // Magic + version + kind alone take four bytes.
        return Err(CodecError::Truncated);
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    let body = &buf[4..4 + body_len];
    let magic = u16::from_le_bytes([body[0], body[1]]);
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    if body[2] != VERSION {
        return Err(CodecError::BadVersion(body[2]));
    }
    let kind = body[3];
    let rest = &body[4..];
    let frame = match kind {
        KIND_HELLO => {
            if rest.len() != 4 {
                return Err(CodecError::Truncated);
            }
            Frame::Hello {
                daemon: u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]),
            }
        }
        KIND_DATA => {
            if rest.len() < 16 {
                return Err(CodecError::Truncated);
            }
            let seq = u64::from_le_bytes([
                rest[0], rest[1], rest[2], rest[3], rest[4], rest[5], rest[6], rest[7],
            ]);
            let from = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
            let to = u32::from_le_bytes([rest[12], rest[13], rest[14], rest[15]]);
            Frame::Data {
                seq,
                from,
                to,
                payload: rest[16..].to_vec(),
            }
        }
        k => return Err(CodecError::BadKind(k)),
    };
    Ok(Some((frame, 4 + body_len)))
}

/// Accumulating frame reassembler for a byte stream: feed socket reads in,
/// pull complete frames out.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered. Errors are
    /// terminal for the stream: framing is lost, the connection must drop.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        match decode_frame(&self.buf[self.start..])? {
            Some((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, payload: &[u8]) -> Frame {
        Frame::Data {
            seq,
            from: 3,
            to: 9,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_hello_and_data() {
        let mut out = Vec::new();
        encode_frame(&Frame::Hello { daemon: 2 }, &mut out);
        encode_frame(&data(1, b"abc"), &mut out);
        let (f1, n1) = decode_frame(&out).expect("decode").expect("complete");
        assert_eq!(f1, Frame::Hello { daemon: 2 });
        let (f2, n2) = decode_frame(&out[n1..]).expect("decode").expect("complete");
        assert_eq!(f2, data(1, b"abc"));
        assert_eq!(n1 + n2, out.len());
    }

    #[test]
    fn partial_input_asks_for_more() {
        let mut out = Vec::new();
        encode_frame(&data(7, b"payload"), &mut out);
        for cut in 0..out.len() {
            assert_eq!(decode_frame(&out[..cut]).expect("prefix is not an error"), None);
        }
    }

    #[test]
    fn oversized_claim_rejected_without_allocating() {
        let mut bad = ((MAX_FRAME_BODY + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(matches!(decode_frame(&bad), Err(CodecError::Oversized(_))));
    }

    #[test]
    fn garbage_magic_and_version_rejected() {
        let mut out = Vec::new();
        encode_frame(&Frame::Hello { daemon: 0 }, &mut out);
        let mut bad_magic = out.clone();
        bad_magic[4] ^= 0xFF;
        assert!(matches!(decode_frame(&bad_magic), Err(CodecError::BadMagic(_))));
        for old in [1, 99] {
            let mut bad_version = out.clone();
            bad_version[6] = old;
            let rejected = decode_frame(&bad_version);
            assert!(matches!(rejected, Err(CodecError::BadVersion(v)) if v == old));
        }
        let mut bad_kind = out;
        bad_kind[7] = 42;
        assert!(matches!(decode_frame(&bad_kind), Err(CodecError::BadKind(42))));
    }

    #[test]
    fn frame_buf_reassembles_split_stream() {
        let mut out = Vec::new();
        for i in 0..5u64 {
            encode_frame(&data(i + 1, &[i as u8; 10]), &mut out);
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for chunk in out.chunks(3) {
            fb.extend(chunk);
            while let Some(f) = fb.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], data(5, &[4u8; 10]));
    }
}
