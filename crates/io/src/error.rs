//! Error type for reading and writing mapping artifacts.

use std::error::Error;
use std::fmt;

/// Errors produced by the I/O layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A text-format line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A JSON document failed to parse or serialize.
    Json(serde_json::Error),
    /// The parsed data violated a structural invariant (e.g. an edge
    /// referencing an undeclared cluster).
    Invalid {
        /// Description of the violation.
        message: String,
    },
    /// A binary document ended before a declared section was complete.
    Truncated {
        /// The section (magic, header, clusters, edges, checksum) that
        /// ran out of bytes.
        section: String,
    },
    /// A binary document's bytes are internally inconsistent: wrong
    /// magic/version, a section length that contradicts the header, a
    /// non-canonical CSR, or a checksum mismatch.
    Corrupt {
        /// Description of the inconsistency.
        message: String,
    },
    /// A document declares an earlier version of its format that this
    /// build recognizes but no longer reads (e.g. a
    /// `snnmap-checkpoint-v1` checkpoint, which carried a force table).
    UnsupportedVersion {
        /// The format tag the document declares.
        found: String,
        /// The version this build reads instead.
        supported: String,
    },
    /// A JSON object repeated a key. The underlying parser resolves
    /// duplicates last-write-wins, which would let a crafted document
    /// show one value to a validator and another to a consumer, so the
    /// JSON readers reject the document outright.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Invalid { message } => write!(f, "invalid document: {message}"),
            IoError::Truncated { section } => {
                write!(f, "truncated document: {section} section ends early")
            }
            IoError::Corrupt { message } => write!(f, "corrupt document: {message}"),
            IoError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported document version `{found}` (this build reads `{supported}`)")
            }
            IoError::DuplicateKey { key } => {
                write!(f, "invalid document: duplicate JSON key `{key}`")
            }
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = IoError::Parse { line: 3, message: "bad edge".into() };
        assert!(e.to_string().contains("line 3"));
        let e = IoError::Invalid { message: "unknown cluster".into() };
        assert!(e.to_string().contains("unknown cluster"));
        assert!(e.source().is_none());
    }
}
