//! The typed error surface of the gateway.
//!
//! Every failure a client or operator can observe — malformed frames,
//! admission rejections, backpressure, analysis-layer errors, transport
//! faults — is a [`ServiceError`] variant. The enum is wire-codable (it
//! travels in `Reply::Error` frames), and the [`From`] conversions make
//! `?` work across the socket/codec/analysis layers so nothing surfaces
//! as a panic or a silent drop.

use hrv_core::PsaError;
use std::fmt;

/// Errors produced (and transported) by the gateway and its clients.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// A frame header announced a body longer than the bounded maximum
    /// ([`crate::MAX_FRAME`]); the connection is not recoverable.
    FrameTooLarge {
        /// Announced body length.
        len: usize,
        /// The bound that rejected it.
        max: usize,
    },
    /// The byte stream ended in the middle of a frame.
    Truncated {
        /// Bytes the frame needed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// A malformed frame or message payload (bad tag, trailing bytes,
    /// length mismatch, unsupported version …).
    Protocol(String),
    /// The stream id is not (or no longer) open.
    UnknownStream(u64),
    /// The stream id is already open.
    DuplicateStream(u64),
    /// The session table is full; no new stream can be admitted.
    SessionLimit {
        /// The configured session cap.
        max: u32,
    },
    /// The push carries more samples than the gateway's per-push bound
    /// ([`crate::SessionConfig::queue_capacity`]) and was refused whole.
    /// No wait cures it — a retry of the same batch is refused again, so
    /// clients do not back off and retry: split the batch into pushes of
    /// at most `capacity` samples.
    Busy {
        /// The stream the batch was pushed to.
        stream: u64,
        /// The per-push bound in samples.
        capacity: u32,
    },
    /// A control target (quality / budget payload) was rejected at the
    /// gateway before reaching any controller: non-finite floats or
    /// out-of-range values (a NaN budget would otherwise poison every
    /// later comparison inside the governor).
    InvalidTarget(String),
    /// The gateway is draining for shutdown; no new work is accepted.
    ShuttingDown,
    /// An analysis-layer error, carried by message (the typed original is
    /// a [`PsaError`] on the server side).
    Psa(String),
    /// A transport (socket) failure, formatted from [`std::io::Error`].
    Io(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            ServiceError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame ({got} of {expected} bytes)")
            }
            ServiceError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
            ServiceError::UnknownStream(id) => write!(f, "unknown stream id {id}"),
            ServiceError::DuplicateStream(id) => write!(f, "stream id {id} is already open"),
            ServiceError::SessionLimit { max } => {
                write!(f, "session table full ({max} sessions)")
            }
            ServiceError::Busy { stream, capacity } => {
                write!(
                    f,
                    "stream {stream}: push exceeds the {capacity}-sample per-push bound; split it"
                )
            }
            ServiceError::InvalidTarget(reason) => {
                write!(f, "invalid control target: {reason}")
            }
            ServiceError::ShuttingDown => f.write_str("gateway is shutting down"),
            ServiceError::Psa(reason) => write!(f, "analysis error: {reason}"),
            ServiceError::Io(reason) => write!(f, "i/o failure: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(err: std::io::Error) -> Self {
        ServiceError::Io(err.to_string())
    }
}

impl From<PsaError> for ServiceError {
    fn from(err: PsaError) -> Self {
        match err {
            PsaError::Io(reason) => ServiceError::Io(reason),
            PsaError::UnknownStream(id) => ServiceError::UnknownStream(id),
            PsaError::DuplicateStream(id) => ServiceError::DuplicateStream(id),
            other => ServiceError::Psa(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let errs = [
            ServiceError::FrameTooLarge { len: 9, max: 4 },
            ServiceError::Truncated {
                expected: 10,
                got: 3,
            },
            ServiceError::Protocol("bad tag".into()),
            ServiceError::UnknownStream(4),
            ServiceError::DuplicateStream(4),
            ServiceError::SessionLimit { max: 8 },
            ServiceError::Busy {
                stream: 2,
                capacity: 64,
            },
            ServiceError::InvalidTarget("budget joules must be finite".into()),
            ServiceError::ShuttingDown,
            ServiceError::Psa("constant RR series".into()),
            ServiceError::Io("broken pipe".into()),
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn conversions_preserve_typed_variants() {
        assert_eq!(
            ServiceError::from(PsaError::UnknownStream(7)),
            ServiceError::UnknownStream(7)
        );
        assert_eq!(
            ServiceError::from(PsaError::DuplicateStream(7)),
            ServiceError::DuplicateStream(7)
        );
        assert_eq!(
            ServiceError::from(PsaError::Io("reset".into())),
            ServiceError::Io("reset".into())
        );
        let psa = ServiceError::from(PsaError::ConstantSignal);
        assert!(matches!(&psa, ServiceError::Psa(m) if m.contains("constant")));
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        assert!(matches!(ServiceError::from(io), ServiceError::Io(_)));
    }
}
