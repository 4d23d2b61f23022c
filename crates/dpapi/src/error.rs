//! Error type shared by all DPAPI implementations.

use std::fmt;

use crate::id::{Pnode, Version};

/// Result alias used throughout the DPAPI and its implementors.
pub type Result<T> = std::result::Result<T, DpapiError>;

/// Errors a DPAPI call can produce.
///
/// Implementations at every layer (libpass, the kernel observer,
/// Lasagna, the PA-NFS client and server) share this type so errors
/// propagate across layers unchanged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DpapiError {
    /// The handle does not name an open object at this layer.
    InvalidHandle,
    /// No object with this pnode exists (e.g. `pass_reviveobj` of a
    /// never-allocated pnode).
    UnknownPnode(Pnode),
    /// The requested version of the object does not exist.
    UnknownVersion(Pnode, Version),
    /// The target object lives on a volume that is not
    /// provenance-aware, so provenance cannot be stored with it.
    NotPassVolume,
    /// An I/O error in the underlying storage or network substrate.
    Io(String),
    /// The provenance log or database detected a consistency violation
    /// (e.g. a data digest mismatch during recovery).
    Inconsistent(String),
    /// A provenance transaction was aborted or its id is unknown.
    BadTransaction(u64),
    /// The operation is not supported by this layer.
    Unsupported(&'static str),
    /// A malformed record or bundle was presented.
    Malformed(String),
    /// A disclosure transaction was aborted: the operation at index
    /// `failed_op` of the committed [`crate::Txn`] failed with
    /// `cause`. Within each layer's atomicity domain (a single volume,
    /// one PA-NFS export, one log) none of the transaction's effects
    /// were applied; see [`crate::txn`] for the exact contract,
    /// including the multi-volume caveat.
    TxnAborted {
        /// Zero-based index of the failing operation within the
        /// transaction's op vector.
        failed_op: usize,
        /// Why that operation failed.
        cause: Box<DpapiError>,
    },
    /// A bounded front door (the sluice) refused the submission before
    /// any of its operations ran, because the transaction is larger
    /// than the whole queue budget. Unlike [`DpapiError::TxnAborted`],
    /// a rejection means the transaction was never enqueued: nothing
    /// was validated, logged or applied. Retrying it verbatim against
    /// the same budget fails the same way.
    Rejected(RejectReason),
}

/// Which queue budget a refused submission could never fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The transaction holds more operations than the queue's budget.
    QueueFullOps {
        /// Operations currently queued or in flight.
        queued: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The transaction holds more payload bytes than the queue's
    /// budget.
    QueueFullBytes {
        /// Payload bytes currently queued or in flight.
        queued: usize,
        /// The configured ceiling.
        limit: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFullOps { queued, limit } => {
                write!(f, "queue full: {queued} ops in flight, limit {limit}")
            }
            RejectReason::QueueFullBytes { queued, limit } => {
                write!(f, "queue full: {queued} bytes in flight, limit {limit}")
            }
        }
    }
}

impl DpapiError {
    /// Wraps `cause` as a transaction abort at operation `failed_op`.
    pub fn aborted_at(failed_op: usize, cause: DpapiError) -> DpapiError {
        DpapiError::TxnAborted {
            failed_op,
            cause: Box::new(cause),
        }
    }

    /// Unwraps a single-op transaction abort back into its cause, so
    /// the one-op default methods of [`crate::Dpapi`] surface the same
    /// error a direct call would. Multi-op aborts pass through.
    pub fn into_single_op_cause(self) -> DpapiError {
        match self {
            DpapiError::TxnAborted {
                failed_op: 0,
                cause,
            } => *cause,
            other => other,
        }
    }
}

impl fmt::Display for DpapiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpapiError::InvalidHandle => write!(f, "invalid object handle"),
            DpapiError::UnknownPnode(p) => write!(f, "unknown pnode {p}"),
            DpapiError::UnknownVersion(p, v) => write!(f, "unknown version {v} of {p}"),
            DpapiError::NotPassVolume => write!(f, "volume is not provenance-aware"),
            DpapiError::Io(m) => write!(f, "i/o error: {m}"),
            DpapiError::Inconsistent(m) => write!(f, "provenance inconsistency: {m}"),
            DpapiError::BadTransaction(id) => write!(f, "bad provenance transaction {id}"),
            DpapiError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            DpapiError::Malformed(m) => write!(f, "malformed provenance: {m}"),
            DpapiError::TxnAborted { failed_op, cause } => {
                write!(
                    f,
                    "disclosure transaction aborted at op {failed_op}: {cause}"
                )
            }
            DpapiError::Rejected(reason) => {
                write!(f, "submission rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for DpapiError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::VolumeId;

    #[test]
    fn display_messages_are_specific() {
        let p = Pnode::new(VolumeId(2), 7);
        assert_eq!(
            DpapiError::UnknownPnode(p).to_string(),
            "unknown pnode vol2:p7"
        );
        assert_eq!(
            DpapiError::UnknownVersion(p, Version(3)).to_string(),
            "unknown version v3 of vol2:p7"
        );
        assert_eq!(
            DpapiError::BadTransaction(9).to_string(),
            "bad provenance transaction 9"
        );
        assert_eq!(
            DpapiError::aborted_at(3, DpapiError::InvalidHandle).to_string(),
            "disclosure transaction aborted at op 3: invalid object handle"
        );
    }

    #[test]
    fn single_op_abort_unwraps_to_cause() {
        let e = DpapiError::aborted_at(0, DpapiError::NotPassVolume);
        assert_eq!(e.into_single_op_cause(), DpapiError::NotPassVolume);
        let multi = DpapiError::aborted_at(2, DpapiError::NotPassVolume);
        assert_eq!(multi.clone().into_single_op_cause(), multi);
        let plain = DpapiError::InvalidHandle;
        assert_eq!(plain.clone().into_single_op_cause(), plain);
    }

    #[test]
    fn rejection_displays_are_specific() {
        assert_eq!(
            DpapiError::Rejected(RejectReason::QueueFullOps {
                queued: 64,
                limit: 64
            })
            .to_string(),
            "submission rejected: queue full: 64 ops in flight, limit 64"
        );
        assert_eq!(
            DpapiError::Rejected(RejectReason::QueueFullBytes {
                queued: 0,
                limit: 4096
            })
            .to_string(),
            "submission rejected: queue full: 0 bytes in flight, limit 4096"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&DpapiError::InvalidHandle);
    }
}
