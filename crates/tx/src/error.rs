use std::fmt;

use crate::id::TxId;

/// Errors raised by the transaction substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// The action id is unknown: already committed or aborted, ended by
    /// the next `begin`, or foreign.
    UnknownAction(TxId),
    /// The log or a stored object failed to decode.
    Corrupt(flowscript_codec::CodecError),
    /// Underlying storage failed (file-backed logs only).
    Storage(String),
    /// Another node claimed this storage (a durable
    /// [`crate::LogRecord::Fence`] by a different claimant): this
    /// manager may never append again. Terminal by design — the fenced
    /// owner is a zombie and the claimant's adopted copies are the
    /// truth.
    Fenced {
        /// The claiming node.
        claimant: u32,
        /// Membership epoch stamped into the claim.
        epoch: u64,
    },
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::UnknownAction(tx) => write!(f, "unknown or terminated action {tx}"),
            TxError::Corrupt(err) => write!(f, "corrupt transactional state: {err}"),
            TxError::Storage(msg) => write!(f, "storage failure: {msg}"),
            TxError::Fenced { claimant, epoch } => write!(
                f,
                "storage fenced: claimed by node {claimant} at epoch {epoch}"
            ),
        }
    }
}

impl std::error::Error for TxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxError::Corrupt(err) => Some(err),
            _ => None,
        }
    }
}

impl From<flowscript_codec::CodecError> for TxError {
    fn from(err: flowscript_codec::CodecError) -> Self {
        TxError::Corrupt(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(TxError::UnknownAction(TxId::new(0, 2))
            .to_string()
            .contains("unknown"));
        assert!(TxError::Storage("disk".into()).to_string().contains("disk"));
    }

    #[test]
    fn codec_error_converts_with_source() {
        use std::error::Error as _;
        let err: TxError = flowscript_codec::CodecError::InvalidUtf8.into();
        assert!(err.source().is_some());
    }
}
