//! The Disclosed Provenance API (DPAPI).
//!
//! The DPAPI is the central interface of the PASSv2 layered provenance
//! architecture. It allows transfer of provenance both among the
//! components of a single system (observer → analyzer → distributor →
//! storage) and *between layers* (a provenance-aware application →
//! libpass → the kernel → a provenance-aware file system or NFS
//! client → an NFS server).
//!
//! The API consists of six calls — [`Dpapi::pass_read`],
//! [`Dpapi::pass_write`], [`Dpapi::pass_freeze`], [`Dpapi::pass_mkobj`],
//! [`Dpapi::pass_reviveobj`] and [`Dpapi::pass_sync`] — and two
//! concepts: the *pnode number* ([`Pnode`]), a never-recycled handle
//! for an object's provenance, and the *provenance record*
//! ([`ProvenanceRecord`]), a single attribute/value unit of provenance.
//!
//! # DPAPI v2: disclosure transactions
//!
//! Since v2 the five disclosing calls are sugar over one batched
//! entry point: [`Txn::new`] opens a [`Txn`], [`Txn::add`] queues
//! [`DpapiOp`]s, and [`Dpapi::pass_commit`] applies the whole vector
//! atomically, returning one [`OpResult`] per op. A batch crosses
//! every layer boundary as a unit — one syscall at the kernel, one
//! COMPOUND RPC in PA-NFS, one length-prefixed group record in the
//! Lasagna log, one group commit in Waldo — so per-event overhead is
//! amortized end to end and multi-record disclosures become atomic
//! (commit failure reports [`DpapiError::TxnAborted`] with the failing
//! op's index).
//!
//! Layers that act as a substrate to higher layers (an interpreter, an
//! NFS client, the OS itself) accept DPAPI calls from above and issue
//! DPAPI calls below, so an arbitrary number of provenance-aware layers
//! can stack.
//!
//! # Examples
//!
//! Constructing a bundle that discloses application provenance for a
//! file write:
//!
//! ```
//! use dpapi::{Attribute, Bundle, ProvenanceRecord, Value};
//!
//! let mut bundle = Bundle::new();
//! let h = dpapi::Handle::from_raw(7);
//! bundle.push(h, ProvenanceRecord::new(Attribute::Type, Value::str("SESSION")));
//! bundle.push(h, ProvenanceRecord::new(Attribute::VisitedUrl, Value::str("http://a.example/")));
//! assert_eq!(bundle.record_count(), 2);
//! ```

pub mod api;
pub mod error;
pub mod id;
pub mod record;
pub mod txn;
pub mod wire;

pub use api::{run_op_single_shot, Dpapi, Handle, ObjectKind, ReadResult, WriteResult};
pub use error::{DpapiError, RejectReason, Result};
pub use id::{IdHasher, IdMap, IdSet, ObjectRef, Pnode, PnodeAllocator, Version, VolumeId};
pub use record::{Attribute, Bundle, BundleEntry, ProvenanceRecord, Value};
pub use txn::{DpapiOp, OpResult, Txn};
