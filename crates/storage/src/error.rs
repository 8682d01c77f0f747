//! Storage-layer errors.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying NF² model rejected an operation.
    Model(nf2_core::NfError),
    /// Stored bytes failed a check or could not be decoded.
    Corrupt(String),
    /// An I/O error during persistence.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Model(e) => write!(f, "model error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Model(e) => Some(e),
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nf2_core::NfError> for StorageError {
    fn from(e: nf2_core::NfError) -> Self {
        StorageError::Model(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(StorageError, &str)> = vec![
            (
                StorageError::Model(nf2_core::NfError::OverlappingTuples),
                "model error",
            ),
            (StorageError::Corrupt("y".into()), "corrupt"),
            (std::io::Error::other("boom").into(), "io error"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle));
        }
    }

    #[test]
    fn conversions() {
        let e: StorageError = nf2_core::NfError::DuplicateFlatTuple.into();
        assert!(matches!(e, StorageError::Model(_)));
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
