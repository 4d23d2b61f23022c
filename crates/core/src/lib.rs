//! PASSv2: the layered provenance architecture.
//!
//! This crate is the paper's primary contribution — a provenance
//! collection structure that integrates provenance across multiple
//! levels of abstraction. It provides:
//!
//! * the **interceptor/observer** ([`module::Pass`]): installed into
//!   the simulated kernel, it translates system-call events into
//!   provenance records and is the entry point for provenance-aware
//!   applications that disclose provenance via the DPAPI;
//! * the **analyzer** ([`analyzer`]): duplicate elimination plus the
//!   cycle-avoidance algorithm (with the PASSv1 global-graph
//!   cycle-merging algorithm as a comparison baseline);
//! * the **distributor** (inside [`module`]): caches provenance for
//!   objects that are not persistent — processes, pipes, non-PASS
//!   files, application objects — and materializes them onto a PASS
//!   volume when they join the ancestry of a persistent object or are
//!   explicitly `pass_sync`ed;
//! * **libpass** ([`libpass::LibPass`]): the user-level DPAPI;
//! * the **system assembly** ([`system::System`]): kernel + Lasagna
//!   volumes + module, i.e. Figure 2 as a runnable object.

pub mod analyzer;
pub mod libpass;
pub mod module;
pub mod system;

pub use analyzer::{AnalyzerStats, CycleAvoidance, DepOutcome, NodeId};
pub use libpass::LibPass;
pub use module::{ObjKey, Pass, PassStats};
pub use system::{ClusterRestartError, System, SystemBuilder};
