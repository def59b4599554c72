//! Shared error type for the workspace.

use std::fmt;

/// Errors surfaced by the simulator and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A machine configuration is internally inconsistent
    /// (e.g. a cache size not divisible by its line size).
    Config(String),
    /// A simulated program accessed an address outside any allocation.
    BadAddress(u64),
    /// An address was used with the wrong alignment for the operation.
    Misaligned {
        /// The offending address.
        addr: u64,
        /// The alignment the operation requires.
        required: u64,
    },
    /// The simulated heap is exhausted.
    OutOfMemory {
        /// Size of the failed request in bytes.
        requested: u64,
    },
    /// A simulation invariant was violated (a bug in a simulated program or
    /// in the simulator itself; always worth a panic in tests).
    Protocol(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Self::BadAddress(a) => write!(f, "access to unmapped SVA address {a:#x}"),
            Self::Misaligned { addr, required } => {
                write!(f, "address {addr:#x} not aligned to {required} bytes")
            }
            Self::OutOfMemory { requested } => {
                write!(f, "simulated heap exhausted allocating {requested} bytes")
            }
            Self::Protocol(msg) => write!(f, "protocol invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::Config("x".into())
            .to_string()
            .contains("configuration"));
        assert!(Error::BadAddress(0x1000).to_string().contains("0x1000"));
        assert!(Error::Misaligned {
            addr: 3,
            required: 8
        }
        .to_string()
        .contains("8"));
        assert!(Error::OutOfMemory { requested: 64 }
            .to_string()
            .contains("64"));
        assert!(Error::Protocol("p".into())
            .to_string()
            .contains("invariant"));
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(Error::BadAddress(1));
        assert!(e.source().is_none());
    }
}
