//! The `tgm_serve/v1` wire framing.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! tgm1 <len>\n<len bytes of JSON payload>
//! ```
//!
//! The header is ASCII (`tgm1`, one space, the payload length in decimal,
//! one `\n`), so a frame stream is inspectable with a pager, and the
//! payload stays the workspace's existing JSON vocabulary. Framing exists
//! because the protocol multiplexes *sessions* over long-lived
//! connections: responses must be delimited without sniffing JSON
//! boundaries.
//!
//! # Hostile-input posture
//!
//! [`read_frame`] is written to survive arbitrary bytes (proptested in
//! `tests/frame_fuzz.rs`):
//!
//! * the length prefix is validated against [`MAX_FRAME_LEN`] **before any
//!   payload allocation** — a `tgm1 99999999999…` header is rejected from
//!   its digits alone, mirroring the minijson depth-limit fix (an attacker
//!   must not pick our allocation sizes);
//! * headers are capped at [`MAX_HEADER_LEN`] bytes, so an unterminated
//!   header cannot buffer unboundedly;
//! * every malformed shape is a typed [`FrameError`], never a panic.

use std::io::{self, Read, Write};

/// Hard cap on one frame's payload, checked before allocation (16 MiB:
/// generous for event batches, far below anything that could distress the
/// host).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Magic + space + decimal u64 + newline can never legitimately exceed
/// this many bytes.
pub const MAX_HEADER_LEN: usize = 4 + 1 + 20 + 1;

const MAGIC: &[u8] = b"tgm1 ";

/// Why a frame could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The header does not start with `tgm1 ` or its length is not a
    /// plain decimal.
    BadHeader(String),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`]; detected
    /// before allocating.
    Oversize {
        /// The declared length.
        declared: u64,
    },
    /// The stream ended mid-frame (header or payload).
    Truncated,
    /// Reading from the transport failed.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader(msg) => write!(f, "bad frame header: {msg}"),
            FrameError::Oversize { declared } => write!(
                f,
                "frame length {declared} exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// Writes one frame (header + payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(MAGIC)?;
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload)?;
    w.flush()
}

fn parse_len(digits: &[u8]) -> Result<u64, FrameError> {
    if digits.is_empty() || digits.len() > 20 {
        return Err(FrameError::BadHeader("bad length field".to_string()));
    }
    let mut n: u64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(FrameError::BadHeader("bad length field".to_string()));
        }
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(u64::from(b - b'0')))
            .ok_or(FrameError::Oversize { declared: u64::MAX })?;
    }
    Ok(n)
}

/// Reads one frame from a blocking reader. `Ok(None)` on clean EOF at a
/// frame boundary; [`FrameError::Truncated`] on EOF mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    // Header, byte by byte (headers are tiny; the payload read below is
    // the bulk transfer).
    let mut header = Vec::with_capacity(MAX_HEADER_LEN);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte)? {
            0 => {
                if header.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::Truncated);
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                if header.len() >= MAX_HEADER_LEN {
                    return Err(FrameError::BadHeader("header too long".to_string()));
                }
                header.push(byte[0]);
            }
        }
    }
    if header.len() < MAGIC.len() || &header[..MAGIC.len()] != MAGIC {
        return Err(FrameError::BadHeader("missing `tgm1 ` magic".to_string()));
    }
    let len = parse_len(&header[MAGIC.len()..])?;
    if len > MAX_FRAME_LEN as u64 {
        // Declared size rejected before the allocation below.
        return Err(FrameError::Oversize { declared: len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.to_string())
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn incomplete_prefixes_are_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        assert_eq!(read_frame(&mut &buf[..0]), Ok(None), "empty stream");
        for cut in 1..buf.len() {
            assert_eq!(read_frame(&mut &buf[..cut]), Err(FrameError::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn oversize_rejected_from_digits_alone() {
        // No payload bytes present: the declared length alone must trip.
        let hdr = format!("tgm1 {}\n", MAX_FRAME_LEN + 1);
        assert!(matches!(
            read_frame(&mut hdr.as_bytes()),
            Err(FrameError::Oversize { .. })
        ));
        // Absurd 20-digit length overflowing through checked math.
        assert!(matches!(
            read_frame(&mut &b"tgm1 99999999999999999999\n"[..]),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn malformed_headers_are_typed_errors() {
        for bad in [
            &b"tgmX 5\nhello"[..],
            b"tgm1 5x\nhello",
            b"tgm1 \nhello",
            b"http/1.1 200 OK\n",
            b"tgm1\n",
        ] {
            let mut r = bad;
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::BadHeader(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn truncated_stream_reports_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
        let mut r = &b"tgm1 5"[..]; // EOF inside the header
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
    }
}
