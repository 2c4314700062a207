//! The length-prefixed frame layer.
//!
//! Every message travels as `[u32 big-endian body length][body]`. The
//! body length is bounded by [`MAX_FRAME`], so a hostile or corrupted
//! header can never make the receiver allocate unboundedly, and an empty
//! body is rejected outright (the first body byte is always a message
//! tag). [`FrameReader`] reassembles frames incrementally, so it is safe
//! to drive from a socket with a read timeout: a timeout mid-frame keeps
//! the partial bytes and resumes on the next poll instead of desyncing
//! the stream.

use crate::error::ServiceError;
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a frame body (8 MiB) — the codec-level guard against
/// unbounded allocation from a hostile length prefix. Sized so a
/// `ShutdownAck` carrying the final report of every session at
/// [`crate::MAX_SESSIONS`] (256 bytes budgeted per wire report, 4 MiB
/// total) fits one frame with headroom. The frame layout is unchanged —
/// this is a bound, not a wire-format field — so the protocol version
/// stays at v3.
pub const MAX_FRAME: usize = 8 << 20;

/// Bytes of the length prefix.
pub const HEADER_LEN: usize = 4;

/// The most body memory [`FrameReader`] commits before the bytes that
/// fill it arrive. The body buffer grows as the frame does — by the
/// bytes already held, at least this much — so a bare header announcing
/// [`MAX_FRAME`] buys 64 KiB, not 8 MiB, and a frame of up to 64 KiB
/// (every push the benchmarks send) still allocates exactly once.
const BODY_CHUNK: usize = 64 << 10;

/// Writes one frame (length prefix + body) and flushes.
///
/// # Errors
///
/// Returns [`ServiceError::FrameTooLarge`] for a body over [`MAX_FRAME`],
/// [`ServiceError::Protocol`] for an empty body, and
/// [`ServiceError::Io`] on transport failure.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), ServiceError> {
    if body.is_empty() {
        return Err(ServiceError::Protocol(
            "refusing to send an empty frame".into(),
        ));
    }
    if body.len() > MAX_FRAME {
        return Err(ServiceError::FrameTooLarge {
            len: body.len(),
            max: MAX_FRAME,
        });
    }
    writer.write_all(&(body.len() as u32).to_be_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;
    Ok(())
}

/// One [`FrameReader::poll`] outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum FramePoll {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The source is not ready (`WouldBlock` / read timeout); partial
    /// bytes are retained — poll again.
    Pending,
    /// The peer closed cleanly at a frame boundary.
    Closed,
}

/// Incremental frame reassembly; see the module docs.
///
/// After an `Err` (oversized/empty frame, mid-frame EOF, transport
/// fault) the byte stream can no longer be trusted — drop the
/// connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; HEADER_LEN],
    body: Vec<u8>,
    have: usize,
    /// `None` while reading the header, `Some(len)` while reading the body.
    body_len: Option<usize>,
}

/// One non-blocking-aware read into `dst`.
enum ReadStep {
    Read(usize),
    Eof,
    NotReady,
}

// analyze::hot_path
fn read_step(reader: &mut impl Read, dst: &mut [u8]) -> Result<ReadStep, ServiceError> {
    loop {
        match reader.read(dst) {
            Ok(0) => return Ok(ReadStep::Eof),
            Ok(n) => return Ok(ReadStep::Read(n)),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(ReadStep::NotReady)
            }
            Err(e) => return Err(e.into()),
        }
    }
}

impl FrameReader {
    /// Creates a reader with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances reassembly as far as the source allows.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::FrameTooLarge`] / [`ServiceError::Protocol`]
    /// for a header announcing an oversized or empty body,
    /// [`ServiceError::Truncated`] when the peer closes mid-frame, and
    /// [`ServiceError::Io`] on transport failure.
    // analyze::hot_path
    pub fn poll(&mut self, reader: &mut impl Read) -> Result<FramePoll, ServiceError> {
        loop {
            match self.body_len {
                None => {
                    if self.have < HEADER_LEN {
                        match read_step(reader, &mut self.header[self.have..])? {
                            ReadStep::Eof => {
                                return if self.have == 0 {
                                    Ok(FramePoll::Closed)
                                } else {
                                    Err(ServiceError::Truncated {
                                        expected: HEADER_LEN,
                                        got: self.have,
                                    })
                                };
                            }
                            ReadStep::NotReady => return Ok(FramePoll::Pending),
                            ReadStep::Read(n) => {
                                self.have += n;
                                continue;
                            }
                        }
                    }
                    let len = u32::from_be_bytes(self.header) as usize;
                    if len == 0 {
                        return Err(ServiceError::Protocol("empty frame".into()));
                    }
                    if len > MAX_FRAME {
                        return Err(ServiceError::FrameTooLarge {
                            len,
                            max: MAX_FRAME,
                        });
                    }
                    self.body.clear();
                    self.have = 0;
                    self.body_len = Some(len);
                }
                Some(len) => {
                    if self.have < len {
                        if self.have == self.body.len() {
                            let grow = (len - self.have).min(self.have.max(BODY_CHUNK));
                            self.body.resize(self.have + grow, 0);
                        }
                        match read_step(reader, &mut self.body[self.have..])? {
                            ReadStep::Eof => {
                                return Err(ServiceError::Truncated {
                                    expected: len,
                                    got: self.have,
                                })
                            }
                            ReadStep::NotReady => return Ok(FramePoll::Pending),
                            ReadStep::Read(n) => {
                                self.have += n;
                                continue;
                            }
                        }
                    }
                    self.have = 0;
                    self.body_len = None;
                    return Ok(FramePoll::Frame(std::mem::take(&mut self.body)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).expect("valid frame");
        out
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = framed(b"alpha");
        wire.extend(framed(b"b"));
        let mut cursor = Cursor::new(wire);
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut cursor).unwrap(),
            FramePoll::Frame(b"alpha".to_vec())
        );
        assert_eq!(
            reader.poll(&mut cursor).unwrap(),
            FramePoll::Frame(b"b".to_vec())
        );
        assert_eq!(reader.poll(&mut cursor).unwrap(), FramePoll::Closed);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        /// Yields one byte per read, mimicking a slow socket.
        struct Trickle(Cursor<Vec<u8>>);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = 1.min(buf.len());
                self.0.read(&mut buf[..n])
            }
        }
        let mut src = Trickle(Cursor::new(framed(b"steady")));
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut src).unwrap(),
            FramePoll::Frame(b"steady".to_vec())
        );
    }

    #[test]
    fn timeout_mid_frame_resumes_without_desync() {
        /// Replays a script of data chunks and `WouldBlock` timeouts.
        struct Script(std::collections::VecDeque<Option<Vec<u8>>>);
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.pop_front() {
                    Some(Some(mut chunk)) => {
                        let n = chunk.len().min(buf.len());
                        buf[..n].copy_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            self.0.push_front(Some(chunk.split_off(n)));
                        }
                        Ok(n)
                    }
                    Some(None) => Err(std::io::Error::new(ErrorKind::WouldBlock, "not yet")),
                    None => Ok(0),
                }
            }
        }
        let wire = framed(b"resume");
        // Split mid-header AND mid-body, with a timeout after each chunk.
        let mut src = Script(
            [
                Some(wire[..2].to_vec()),
                None,
                Some(wire[2..6].to_vec()),
                None,
                Some(wire[6..].to_vec()),
            ]
            .into_iter()
            .collect(),
        );
        let mut reader = FrameReader::new();
        assert_eq!(reader.poll(&mut src).unwrap(), FramePoll::Pending);
        assert_eq!(reader.poll(&mut src).unwrap(), FramePoll::Pending);
        // Third poll completes the same frame from the retained bytes.
        assert_eq!(
            reader.poll(&mut src).unwrap(),
            FramePoll::Frame(b"resume".to_vec())
        );
        assert_eq!(reader.poll(&mut src).unwrap(), FramePoll::Closed);
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut wire = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        wire.extend([0u8; 8]);
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut Cursor::new(wire)).unwrap_err(),
            ServiceError::FrameTooLarge {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            }
        );
    }

    #[test]
    fn header_alone_buys_one_chunk_not_the_announced_body() {
        let wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
        let mut reader = FrameReader::new();
        /// Delivers `wire`, then reports "not ready" forever.
        struct Stalled(Cursor<Vec<u8>>);
        impl Read for Stalled {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.read(buf)? {
                    0 => Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled")),
                    n => Ok(n),
                }
            }
        }
        let mut src = Stalled(Cursor::new(wire));
        assert_eq!(reader.poll(&mut src).unwrap(), FramePoll::Pending);
        assert_eq!(reader.body_len, Some(MAX_FRAME));
        assert!(
            reader.body.capacity() <= BODY_CHUNK,
            "header-only connection holds {} body bytes",
            reader.body.capacity()
        );
    }

    #[test]
    fn frames_up_to_one_chunk_allocate_once_and_larger_ones_reassemble() {
        let small = vec![7u8; BODY_CHUNK];
        let big: Vec<u8> = (0..3 * BODY_CHUNK + 5).map(|i| i as u8).collect();
        let mut wire = framed(&small);
        wire.extend(framed(&big));
        let mut cursor = Cursor::new(wire);
        let mut reader = FrameReader::new();
        match reader.poll(&mut cursor).unwrap() {
            FramePoll::Frame(body) => {
                assert_eq!(body, small);
                assert_eq!(body.capacity(), BODY_CHUNK, "one exact allocation");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert_eq!(reader.poll(&mut cursor).unwrap(), FramePoll::Frame(big));
        assert_eq!(reader.poll(&mut cursor).unwrap(), FramePoll::Closed);
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let wire = framed(b"chopped");
        let mut reader = FrameReader::new();
        let cut = &wire[..wire.len() - 3];
        assert_eq!(
            reader.poll(&mut Cursor::new(cut.to_vec())).unwrap_err(),
            ServiceError::Truncated {
                expected: 7,
                got: 4
            }
        );
        // A header cut short is equally typed.
        let mut reader = FrameReader::new();
        assert_eq!(
            reader
                .poll(&mut Cursor::new(wire[..2].to_vec()))
                .unwrap_err(),
            ServiceError::Truncated {
                expected: HEADER_LEN,
                got: 2
            }
        );
    }

    #[test]
    fn empty_frames_rejected_on_both_sides() {
        assert!(matches!(
            write_frame(&mut Vec::new(), b""),
            Err(ServiceError::Protocol(_))
        ));
        let wire = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            FrameReader::new().poll(&mut Cursor::new(wire)),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_write_rejected() {
        let body = vec![0u8; MAX_FRAME + 1];
        assert_eq!(
            write_frame(&mut Vec::new(), &body).unwrap_err(),
            ServiceError::FrameTooLarge {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            }
        );
    }
}
