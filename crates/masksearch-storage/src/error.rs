//! Error types for the storage layer.

use masksearch_core::MaskId;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Convenience alias for storage results.
pub type StorageResult<T> = std::result::Result<T, StorageError>;

/// Errors produced by the storage layer.
#[derive(Debug, Clone)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// What the storage layer was doing when the error occurred.
        context: String,
        /// The underlying error (shared so the error type stays `Clone`).
        source: Arc<io::Error>,
    },
    /// A mask was requested that the store does not contain.
    MaskNotFound(MaskId),
    /// A file did not start with the expected magic bytes.
    BadMagic {
        /// File path (or store name) being decoded.
        path: String,
        /// Magic bytes found.
        found: [u8; 4],
    },
    /// The format version of a file is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u16,
        /// Highest version this build supports.
        supported: u16,
    },
    /// A file was shorter than its header claims.
    Truncated {
        /// What was being decoded.
        context: String,
        /// Bytes expected.
        expected: usize,
        /// Bytes available.
        available: usize,
    },
    /// A decoded value was structurally invalid (corrupt data).
    Corrupt {
        /// Description of the corruption.
        detail: String,
    },
    /// The mask payload failed core-model validation after decoding.
    InvalidMask {
        /// Mask being decoded.
        mask_id: Option<MaskId>,
        /// Underlying core error.
        source: masksearch_core::Error,
    },
    /// A mask with this id already exists and overwrite was not requested.
    AlreadyExists(MaskId),
    /// The store directory does not exist or is not a directory.
    InvalidStorePath(PathBuf),
}

impl StorageError {
    /// Wraps an [`io::Error`] with a human-readable context string.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StorageError::Io {
            context: context.into(),
            source: Arc::new(source),
        }
    }

    /// Builds a corruption error from a description.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, source } => {
                write!(f, "i/o error while {context}: {source}")
            }
            StorageError::MaskNotFound(id) => write!(f, "mask {id} not found in the store"),
            StorageError::BadMagic { path, found } => write!(
                f,
                "{path}: bad magic bytes {found:?} (not a MaskSearch file)"
            ),
            StorageError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build supports up to {supported})"
            ),
            StorageError::Truncated {
                context,
                expected,
                available,
            } => write!(
                f,
                "truncated {context}: expected {expected} bytes, only {available} available"
            ),
            StorageError::Corrupt { detail } => write!(f, "corrupt data: {detail}"),
            StorageError::InvalidMask { mask_id, source } => match mask_id {
                Some(id) => write!(f, "decoded mask {id} is invalid: {source}"),
                None => write!(f, "decoded mask is invalid: {source}"),
            },
            StorageError::AlreadyExists(id) => write!(f, "mask {id} already exists in the store"),
            StorageError::InvalidStorePath(path) => {
                write!(f, "store path {} is not usable", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source.as_ref()),
            StorageError::InvalidMask { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<masksearch_core::Error> for StorageError {
    fn from(source: masksearch_core::Error) -> Self {
        StorageError::InvalidMask {
            mask_id: None,
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = StorageError::io("reading mask 3", io::Error::other("boom"));
        assert!(e.to_string().contains("reading mask 3"));
        assert!(StorageError::MaskNotFound(MaskId::new(9))
            .to_string()
            .contains('9'));
        assert!(StorageError::corrupt("bin count overflow")
            .to_string()
            .contains("bin count"));
        let e = StorageError::Truncated {
            context: "mask payload".into(),
            expected: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn errors_are_cloneable() {
        let e = StorageError::io("x", io::Error::other("y"));
        let _ = e.clone();
        let e2 = StorageError::AlreadyExists(MaskId::new(1));
        assert!(matches!(e2.clone(), StorageError::AlreadyExists(_)));
    }

    #[test]
    fn core_error_converts() {
        let core_err = masksearch_core::Error::EmptyMask;
        let e: StorageError = core_err.into();
        assert!(matches!(e, StorageError::InvalidMask { .. }));
    }
}
