//! Runtime errors.

use hps_ir::{ComponentId, FragLabel};
use std::error::Error;
use std::fmt;

/// Whether a transport failure is worth retrying.
///
/// The reliability layer ([`crate::tcp`] retry/backoff, [`crate::fault`]
/// injection) only re-attempts faults classified [`FaultClass::Retryable`];
/// everything else — protocol violations, version mismatches, sequence
/// gaps — is [`FaultClass::Terminal`] and propagates immediately.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Transient I/O conditions: timeouts, resets, closed or refused
    /// connections, mid-frame EOF from a dying peer. A reconnect + replay
    /// may cure these without changing the logical call sequence.
    Retryable,
    /// Protocol or configuration failures a retry cannot fix.
    Terminal,
}

impl FaultClass {
    /// Classifies an I/O error: connection lifecycle and timing failures
    /// are retryable, everything else (permissions, invalid input…) is
    /// terminal.
    pub fn of_io(e: &std::io::Error) -> FaultClass {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionRefused
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof => FaultClass::Retryable,
            _ => FaultClass::Terminal,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Retryable => write!(f, "retryable"),
            FaultClass::Terminal => write!(f, "terminal"),
        }
    }
}

/// An error raised during execution of a program, a fragment, or the
/// open↔hidden channel.
#[derive(Clone, PartialEq, Debug)]
pub enum RuntimeError {
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// Attempted index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Read of an uninitialized array/object local.
    UninitializedValue,
    /// A value had the wrong type at runtime (indicates a front-end or
    /// transformation bug; the type checker should prevent this).
    TypeMismatch {
        /// What the operation expected.
        expected: &'static str,
        /// What it found.
        found: &'static str,
    },
    /// Call stack exceeded the configured limit.
    StackOverflow {
        /// The configured limit.
        limit: usize,
    },
    /// Step budget exceeded (guards against non-terminating programs).
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// Entry function not found.
    NoSuchFunction(String),
    /// Wrong number or types of arguments to the entry function.
    BadEntryArgs(String),
    /// The open component called a fragment the hidden side does not have.
    UnknownFragment {
        /// Component addressed.
        component: ComponentId,
        /// Fragment label addressed.
        label: FragLabel,
    },
    /// The open component addressed a component the hidden side does not
    /// have.
    UnknownComponent(ComponentId),
    /// A fragment body contained a construct fragments may not execute
    /// (calls, aggregates, returns).
    IllegalFragmentOp(&'static str),
    /// Protocol-level channel failure (malformed frames, remote execution
    /// errors, batch shape mismatches). Always terminal: retrying resends
    /// the same bytes and fails the same way.
    Channel(String),
    /// The server rejected a sequence number: the client skipped ahead,
    /// or rewound past the last committed unit. Terminal — the
    /// exactly-once guarantee cannot be re-established for this session,
    /// so retrying would only re-present the same out-of-window sequence.
    SequenceGap {
        /// The sequence number the client presented.
        got: u64,
        /// The sequence number the server expected.
        expected: u64,
    },
    /// I/O-level transport failure, classified retryable or terminal (see
    /// [`FaultClass`]). `op` names the failing operation (`connect`,
    /// `accept`, `read`, `write`…).
    Transport {
        /// Retry classification.
        class: FaultClass,
        /// The transport operation that failed.
        op: &'static str,
        /// Human-readable detail (peer address, OS error…).
        detail: String,
    },
    /// A hidden call was executed but no channel is attached (running an
    /// open component without its hidden half).
    NoChannel,
    /// The program cannot be lowered to bytecode: a function beyond the
    /// register, jump or index ranges of the VM, or IR no front end
    /// produces (an out-of-range local, a deferred call whose result is
    /// not a local).
    Unlowerable(&'static str),
    /// An [`Interp`](crate::Interp) was given a
    /// [`SplitMeta`](crate::SplitMeta) derived from a different open
    /// program; the metadata's code is never run.
    ForeignSplitMeta,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
            RuntimeError::UninitializedValue => {
                write!(f, "use of uninitialized array or object variable")
            }
            RuntimeError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "type mismatch at runtime: expected {expected}, found {found}"
                )
            }
            RuntimeError::StackOverflow { limit } => {
                write!(f, "call depth exceeded limit of {limit}")
            }
            RuntimeError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded step limit of {limit}")
            }
            RuntimeError::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            RuntimeError::BadEntryArgs(msg) => write!(f, "bad entry arguments: {msg}"),
            RuntimeError::UnknownFragment { component, label } => {
                write!(
                    f,
                    "hidden side has no fragment {label} in component {component}"
                )
            }
            RuntimeError::UnknownComponent(c) => {
                write!(f, "hidden side has no component {c}")
            }
            RuntimeError::IllegalFragmentOp(what) => {
                write!(f, "fragment attempted an illegal operation: {what}")
            }
            RuntimeError::Channel(msg) => write!(f, "channel failure: {msg}"),
            RuntimeError::SequenceGap { got, expected } => {
                write!(
                    f,
                    "sequence gap: got {got}, expected {expected} \
                     (terminal: the session's exactly-once window cannot resume)"
                )
            }
            RuntimeError::Transport { class, op, detail } => {
                write!(f, "transport failure ({class}) during {op}: {detail}")
            }
            RuntimeError::NoChannel => {
                write!(
                    f,
                    "open component made a hidden call but no channel is attached"
                )
            }
            RuntimeError::Unlowerable(what) => {
                write!(f, "program cannot be lowered to bytecode: {what}")
            }
            RuntimeError::ForeignSplitMeta => {
                write!(
                    f,
                    "split metadata was derived from a different open program"
                )
            }
        }
    }
}

impl RuntimeError {
    /// Builds a [`RuntimeError::Transport`] from a failing I/O operation,
    /// classifying it via [`FaultClass::of_io`].
    pub fn transport(op: &'static str, e: &std::io::Error) -> RuntimeError {
        RuntimeError::Transport {
            class: FaultClass::of_io(e),
            op,
            detail: e.to_string(),
        }
    }

    /// True when a retry (possibly after a reconnect) might cure this
    /// failure. Only [`RuntimeError::Transport`] faults classified
    /// [`FaultClass::Retryable`] qualify; protocol and execution errors are
    /// deterministic and never retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RuntimeError::Transport {
                class: FaultClass::Retryable,
                ..
            }
        )
    }

    /// Classifies a remote execution-error message into a structured
    /// error. The session server reports replay-window violations as
    /// `sequence gap: got N, expected M` (the dedicated terminal
    /// [`RuntimeError::SequenceGap`]) and unrecoverable fragment panics
    /// as `session poisoned: …` (a [`FaultClass::Terminal`] transport
    /// fault — retrying re-executes the same deterministic panic);
    /// everything else stays a generic [`RuntimeError::Channel`].
    pub fn from_remote(msg: &str) -> RuntimeError {
        if let Some(rest) = msg.strip_prefix("sequence gap: got ") {
            if let Some((got, expected)) = rest.split_once(", expected ") {
                if let (Ok(got), Ok(expected)) = (got.trim().parse(), expected.trim().parse()) {
                    return RuntimeError::SequenceGap { got, expected };
                }
            }
        }
        if msg.starts_with("session poisoned") {
            return RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "panic",
                detail: msg.to_string(),
            };
        }
        RuntimeError::Channel(format!("remote: {msg}"))
    }

    /// Prefixes the detail of a transport/channel error with the peer that
    /// caused it, so multi-client servers can attribute failures.
    #[must_use]
    pub fn with_peer(self, peer: std::net::SocketAddr) -> RuntimeError {
        match self {
            RuntimeError::Transport { class, op, detail } => RuntimeError::Transport {
                class,
                op,
                detail: format!("peer {peer}: {detail}"),
            },
            RuntimeError::Channel(msg) => RuntimeError::Channel(format!("peer {peer}: {msg}")),
            other => other,
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(RuntimeError::DivisionByZero.to_string(), "division by zero");
        let e = RuntimeError::IndexOutOfBounds { index: 5, len: 3 };
        assert!(e.to_string().contains("index 5"));
        let e = RuntimeError::UnknownFragment {
            component: ComponentId::new(1),
            label: FragLabel::new(2),
        };
        assert!(e.to_string().contains("L2"));
        assert!(e.to_string().contains("H1"));
    }

    #[test]
    fn retryable_classification() {
        use std::io::{Error as IoError, ErrorKind};
        let reset = RuntimeError::transport("read", &IoError::from(ErrorKind::ConnectionReset));
        assert!(reset.is_retryable());
        assert!(reset.to_string().contains("retryable"));
        assert!(reset.to_string().contains("read"));
        let denied = RuntimeError::transport("bind", &IoError::from(ErrorKind::PermissionDenied));
        assert!(!denied.is_retryable());
        // Protocol errors are never retryable.
        assert!(!RuntimeError::Channel("bad tag".into()).is_retryable());
        assert!(!RuntimeError::DivisionByZero.is_retryable());
    }

    #[test]
    fn sequence_gaps_are_dedicated_and_terminal() {
        // The satellite contract: a replay-window violation is its own
        // variant with a descriptive message, never a generic channel
        // error, and it is never retryable.
        let e = RuntimeError::from_remote("sequence gap: got 40, expected 2");
        assert_eq!(
            e,
            RuntimeError::SequenceGap {
                got: 40,
                expected: 2
            }
        );
        assert!(!e.is_retryable(), "a gap retransmits the same gap");
        let msg = e.to_string();
        assert!(msg.contains("got 40"));
        assert!(msg.contains("expected 2"));
        assert!(msg.contains("terminal"));
        // Anything else from the remote stays a channel error.
        let other = RuntimeError::from_remote("division by zero");
        assert!(matches!(&other, RuntimeError::Channel(m) if m.contains("remote:")));
        // A malformed gap message degrades gracefully too.
        let odd = RuntimeError::from_remote("sequence gap: got lots, expected few");
        assert!(matches!(odd, RuntimeError::Channel(_)));
        // Poisoned sessions are terminal transport faults, never retried.
        let p = RuntimeError::from_remote("session poisoned: fragment panicked: boom");
        assert!(matches!(
            &p,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "panic",
                ..
            }
        ));
        assert!(!p.is_retryable());
        assert!(p.to_string().contains("boom"));
    }

    #[test]
    fn with_peer_attributes_failures() {
        use std::io::{Error as IoError, ErrorKind};
        let peer: std::net::SocketAddr = "127.0.0.1:4321".parse().unwrap();
        let e =
            RuntimeError::transport("read", &IoError::from(ErrorKind::TimedOut)).with_peer(peer);
        assert!(e.to_string().contains("127.0.0.1:4321"));
        assert!(e.is_retryable(), "peer attribution keeps the class");
        // Non-transport errors pass through unchanged.
        let e = RuntimeError::DivisionByZero.with_peer(peer);
        assert_eq!(e, RuntimeError::DivisionByZero);
    }

    #[test]
    fn is_send_sync_error() {
        fn take(_: Box<dyn Error + Send + Sync>) {}
        take(Box::new(RuntimeError::NoChannel));
    }
}
