//! Waldo: the provenance database daemon.
//!
//! Waldo consumes the provenance logs [Lasagna](lasagna) rotates,
//! builds the indexed provenance database, and serves it to the query
//! engine ([PQL](pql)). It runs as an ordinary user-level process that
//! the PASS module exempts from observation.
//!
//! # Architecture
//!
//! The storage engine is layered (see `DESIGN.md` at the repository
//! root for the full data flow):
//!
//! * `shard` *(internal)* — N independent pnode-hash partitions,
//!   each owning its object table and secondary indexes (by name, by
//!   type, the generalized string-attribute index serving PQL
//!   predicate pushdown, and the reverse ancestry index);
//! * [`store::Store`] — the facade: stable shard routing, staged
//!   ingestion with **group commit** (one atomic apply per
//!   [`store::WaldoConfig::ingest_batch`] entries, with per-log-file
//!   replay marks for crash recovery), and fan-out queries;
//! * [`cache`] — the LRU cache of PQL reachability closures
//!   (`label*`/`label+` steps), validated at hit time against the
//!   pnodes each commit changed;
//! * [`daemon::Waldo`] — the polling process that drains rotated logs
//!   into the store and unlinks each log only once fully committed
//!   *and* covered by a checkpoint (when durably attached);
//! * [`wal`] — the length-prefixed, CRC-closed codec for the
//!   per-commit durability frames on the database WAL;
//! * [`checkpoint`] — durable per-shard segments (format v2 carries
//!   the attribute index, so indexed queries survive cold restart
//!   without a rebuild scan), atomically published manifests, WAL
//!   truncation and the cold-restart path
//!   ([`daemon::Waldo::restart`]);
//! * [`graph`] — the store as a [`pql::GraphSource`], with cached
//!   closures and index-backed predicate pushdown
//!   (`lookup_attr`), the fast path behind [`daemon::Waldo::query`];
//! * [`cluster`] — the multi-daemon fan-in tier: N daemons each
//!   consume their own distinct volumes (deterministic volume→member
//!   routing), consolidate via [`store::Store::merge`], and serve
//!   scatter-gather PQL through [`cluster::ClusterGraphSource`]
//!   without materializing the merge.
//!
//! # Example
//!
//! Ingest a small provenance stream and ask the two queries of the
//! paper's §3 — "where did this come from" and "what did this taint":
//!
//! ```
//! use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
//! use lasagna::LogEntry;
//! use pql::{EdgeLabel, GraphSource};
//! use waldo::{ProvDb, WaldoConfig};
//!
//! let node = |n: u64| ObjectRef::new(Pnode::new(VolumeId(1), n), Version(0));
//! let prov = |s, a, v| LogEntry::Prov {
//!     subject: s,
//!     record: ProvenanceRecord::new(a, v),
//! };
//!
//! // out.gif <- convert(proc) <- in.img
//! let mut db = ProvDb::with_config(WaldoConfig::default());
//! db.ingest(&[
//!     prov(node(1), Attribute::Name, Value::str("/out.gif")),
//!     prov(node(2), Attribute::Type, Value::str("PROC")),
//!     prov(node(3), Attribute::Name, Value::str("/in.img")),
//!     prov(node(1), Attribute::Input, Value::Xref(node(2))),
//!     prov(node(2), Attribute::Input, Value::Xref(node(3))),
//! ]);
//!
//! // Ancestry of the output reaches the input through the process.
//! let out = db.find_by_name("/out.gif")[0];
//! let ancestors = db.ancestors(ObjectRef::new(out, Version(0)));
//! assert!(ancestors.contains(&node(3)));
//!
//! // Everything tainted by the input (the malware-spread query).
//! let input = db.find_by_name("/in.img")[0];
//! let tainted = db.descendants(input);
//! assert!(tainted.contains(&node(1)));
//!
//! // Repeating a `label*` closure, as PQL's `input*` step runs it,
//! // hits the closure cache.
//! let start = ObjectRef::new(out, Version(0));
//! let first = db.closure(start, &EdgeLabel::Any, false);
//! assert_eq!(db.closure(start, &EdgeLabel::Any, false), first);
//! assert_eq!(db.closure_cache_stats().hits, 1);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod cluster;
pub mod daemon;
pub mod db;
pub(crate) mod delta;
pub mod graph;
pub(crate) mod manifest;
pub(crate) mod segment;
pub(crate) mod shard;
pub mod store;
pub mod wal;

pub use cache::CacheStats;
pub use checkpoint::{CheckpointCrash, CheckpointStats, RestartReport};
pub use cluster::{
    route_volume, Cluster, ClusterCheckpointError, ClusterGraphSource, ClusterMemberError,
    ClusterPollReport, ClusterRuntime, MemberTiming, VolumePoll,
};
pub use daemon::{QueryOps, RestartError, Waldo};
pub use db::{DbSize, IngestStats, ObjectEntry, ProvDb, VersionEntry};
pub use store::{ContentionStats, MergeError, Store, WaldoConfig};
