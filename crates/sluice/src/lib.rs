//! The sluice: an asynchronous pipelined disclosure front door.
//!
//! The DPAPI makes every disclosure a synchronous call on the
//! application's critical path — even a batched [`dpapi::Txn`] costs
//! one `pass_commit` round trip per batch, paid by the caller. The
//! sluice decouples submission from commit: applications
//! [`Sluice::submit`] a transaction into a bounded queue and get a
//! [`Ticket`] back immediately; a drainer coalesces queued
//! transactions into larger *group frames* and drives `pass_commit`
//! off the caller's critical path, delivering each transaction's
//! index-aligned [`OpResult`]s through the ticket ([`Sluice::poll`],
//! [`Sluice::take`] or [`Sluice::wait`]).
//!
//! # Queue model
//!
//! The queue is strict FIFO over whole transactions. A transaction is
//! never split across frames and never reordered: frame `k` holds a
//! consecutive run of submitted transactions, and commit order equals
//! submission order. That is the **determinism contract** — the byte
//! stream reaching the provenance log is identical to committing the
//! same transactions synchronously one by one, because group framing
//! only concatenates op vectors (PR 4's differential oracle proved
//! batch boundaries do not change store bytes). The standing oracle
//! (`tests/differential.rs`) asserts `Store::segment_images`
//! byte-equality between the pipelined and synchronous paths.
//!
//! # Backpressure and admission control
//!
//! Two independent gates protect the pipeline:
//!
//! * **Backpressure** bounds what the *queue as a whole* may hold
//!   ([`SluiceConfig::max_queued_ops`] / `max_queued_bytes`). A
//!   submission that would overflow either budget blocks
//!   ([`BackpressurePolicy::Block`]: the submitter drains frames
//!   inline until its transaction fits — bounded memory, unbounded
//!   latency) or is refused ([`BackpressurePolicy::Reject`]:
//!   [`DpapiError::Rejected`] with a
//!   [`RejectReason::QueueFullOps`]/[`RejectReason::QueueFullBytes`]
//!   — bounded latency, caller retries).
//! * **Admission control** bounds what each *client* may have in
//!   flight ([`Quota`]). Quota exhaustion always rejects (typed
//!   [`RejectReason::QuotaOps`]/[`RejectReason::QuotaBytes`]),
//!   regardless of policy: a client over its quota must not be able
//!   to stall other clients by blocking.
//!
//! A transaction bigger than the whole queue budget can never fit and
//! is rejected under both policies.
//!
//! # Abort fallback
//!
//! Coalescing must not entangle failure domains. If a merged frame
//! aborts, validate-all-first atomicity guarantees none of its
//! effects were applied, so the drainer falls back to committing each
//! constituent transaction individually, in order: innocent
//! transactions still succeed, and only the guilty ticket reports its
//! [`DpapiError::TxnAborted`]. (This also covers the handle-scope
//! rule — a queued transaction naming a handle minted by an *earlier
//! queued* transaction's mkobj would fail merged but succeeds split.)
//!
//! # Observability
//!
//! With a [`Scope`] attached, each frame commit runs inside a
//! `sluice/flush` span, so the substrate's `bind_trace` stamps it
//! into the batch's trace; ticket resolutions then rejoin that trace
//! tree via [`Scope::open_linked`], which is how an asynchronous
//! completion stays attributable to the group frame that carried it.
//! [`Sluice::export_metrics`] pours counters, queue gauges and the
//! submit→completion latency histogram into a provscope
//! [`Registry`].

use std::collections::{BTreeMap, VecDeque};

use dpapi::{Dpapi, DpapiError, DpapiOp, OpResult, RejectReason, Txn};
use provscope::{Histogram, MetricSource, Registry, Scope, TraceId};

/// Identifies one submitting client for admission control.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

/// How [`Sluice::submit`] behaves when the queue budget is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Drain frames inline until the submission fits. The caller pays
    /// commit latency but never sees an error; queue memory stays
    /// bounded.
    #[default]
    Block,
    /// Refuse with [`DpapiError::Rejected`]. The caller decides when
    /// to retry; submit latency stays bounded.
    Reject,
}

/// Per-client in-flight ceilings (ops and payload bytes submitted but
/// not yet committed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quota {
    /// Maximum operations the client may have in flight.
    pub max_ops: usize,
    /// Maximum payload bytes the client may have in flight.
    pub max_bytes: usize,
}

impl Quota {
    /// No per-client limit (the shared queue budget still applies).
    pub const UNLIMITED: Quota = Quota {
        max_ops: usize::MAX,
        max_bytes: usize::MAX,
    };
}

impl Default for Quota {
    fn default() -> Self {
        Quota::UNLIMITED
    }
}

/// Sluice tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SluiceConfig {
    /// Shared queue budget: operations queued but not yet committed.
    pub max_queued_ops: usize,
    /// Shared queue budget: payload bytes (the `data` of queued
    /// write ops) not yet committed.
    pub max_queued_bytes: usize,
    /// Coalescing ceiling: a frame stops absorbing the next queued
    /// transaction once it holds this many ops. A single transaction
    /// larger than the ceiling still commits as its own frame.
    pub coalesce_ops: usize,
    /// What submit does when the queue budget is exhausted.
    pub policy: BackpressurePolicy,
    /// Quota applied to clients without an explicit [`Sluice::set_quota`].
    pub default_quota: Quota,
}

impl Default for SluiceConfig {
    fn default() -> Self {
        SluiceConfig {
            max_queued_ops: 1024,
            max_queued_bytes: 1 << 20,
            coalesce_ops: 32,
            policy: BackpressurePolicy::Block,
            default_quota: Quota::UNLIMITED,
        }
    }
}

/// Completion ticket returned by [`Sluice::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's raw id (diagnostics).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Where a ticket's transaction currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TicketStatus {
    /// Still queued; a future drain will commit it.
    Pending,
    /// Committed successfully; [`Sluice::take`] yields the results.
    Done,
    /// Commit failed; [`Sluice::take`] yields the error.
    Failed,
}

/// Monotone counters describing sluice activity. Level metrics (queue
/// depth, peaks) are exported as gauges by [`Sluice::export_metrics`]
/// instead, so re-absorbing the stats never double-counts them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SluiceStats {
    /// Transactions presented to `submit` (including rejected ones).
    pub submitted: u64,
    /// Transactions admitted into the queue.
    pub admitted: u64,
    /// Tickets resolved successfully.
    pub completed: u64,
    /// Tickets resolved with an error.
    pub failed: u64,
    /// Rejections: shared op budget exhausted.
    pub rejected_queue_ops: u64,
    /// Rejections: shared byte budget exhausted.
    pub rejected_queue_bytes: u64,
    /// Rejections: per-client op quota exhausted.
    pub rejected_quota_ops: u64,
    /// Rejections: per-client byte quota exhausted.
    pub rejected_quota_bytes: u64,
    /// Group frames committed.
    pub frames: u64,
    /// Transactions carried by those frames.
    pub frame_txns: u64,
    /// Operations carried by those frames.
    pub frame_ops: u64,
    /// Payload bytes carried by those frames.
    pub frame_bytes: u64,
    /// Frames whose merged commit aborted (triggering the split
    /// fallback when the frame held more than one transaction).
    pub aborted_frames: u64,
    /// Individual commits performed by the split fallback.
    pub split_commits: u64,
    /// Submissions that had to drain inline under
    /// [`BackpressurePolicy::Block`].
    pub blocked_submits: u64,
}

impl MetricSource for SluiceStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("submitted", self.submitted);
        out("admitted", self.admitted);
        out("completed", self.completed);
        out("failed", self.failed);
        out("rejected_queue_ops", self.rejected_queue_ops);
        out("rejected_queue_bytes", self.rejected_queue_bytes);
        out("rejected_quota_ops", self.rejected_quota_ops);
        out("rejected_quota_bytes", self.rejected_quota_bytes);
        out("frames", self.frames);
        out("frame_txns", self.frame_txns);
        out("frame_ops", self.frame_ops);
        out("frame_bytes", self.frame_bytes);
        out("aborted_frames", self.aborted_frames);
        out("split_commits", self.split_commits);
        out("blocked_submits", self.blocked_submits);
    }
}

/// One queued transaction plus its accounting.
struct Pending {
    ticket: Ticket,
    client: ClientId,
    ops: usize,
    bytes: usize,
    submitted_at: u64,
    txn: Txn,
}

type Completion = dpapi::Result<Vec<OpResult>>;

/// The asynchronous disclosure pipeline. See the crate docs for the
/// queue model, backpressure policy and determinism contract.
///
/// The sluice is substrate-agnostic: it drives any `&mut dyn Dpapi` —
/// a `LibPass` over the simulated kernel, a PA-NFS client, or a raw
/// Lasagna volume — and the layer is passed per call rather than
/// owned, so one sluice can front whatever the caller currently
/// holds a borrow of.
#[derive(Default)]
pub struct Sluice {
    cfg: SluiceConfig,
    queue: VecDeque<Pending>,
    queued_ops: usize,
    queued_bytes: usize,
    inflight: BTreeMap<ClientId, (usize, usize)>,
    quotas: BTreeMap<ClientId, Quota>,
    next_ticket: u64,
    done: BTreeMap<Ticket, Completion>,
    stats: SluiceStats,
    peak_txns: u64,
    peak_ops: u64,
    peak_bytes: u64,
    latency: Histogram,
    now: Option<Box<dyn Fn() -> u64>>,
    scope: Scope,
}

impl Sluice {
    /// A sluice with the given configuration.
    pub fn new(cfg: SluiceConfig) -> Sluice {
        Sluice {
            cfg,
            ..Sluice::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SluiceConfig {
        &self.cfg
    }

    /// Attaches a tracing scope: frame commits run inside
    /// `sluice/flush` spans and ticket resolutions rejoin their
    /// frame's trace via `open_linked`.
    pub fn set_scope(&mut self, scope: Scope) {
        self.scope = scope;
    }

    /// Attaches a clock for the submit→completion latency histogram
    /// (virtual nanoseconds; without a clock no latency is recorded).
    pub fn set_now(&mut self, now: impl Fn() -> u64 + 'static) {
        self.now = Some(Box::new(now));
    }

    /// Sets `client`'s admission quota (overriding
    /// [`SluiceConfig::default_quota`]).
    pub fn set_quota(&mut self, client: ClientId, quota: Quota) {
        self.quotas.insert(client, quota);
    }

    /// Transactions currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Operations currently queued.
    pub fn queued_ops(&self) -> usize {
        self.queued_ops
    }

    /// Payload bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// `client`'s in-flight (ops, bytes).
    pub fn in_flight_of(&self, client: ClientId) -> (usize, usize) {
        self.inflight.get(&client).copied().unwrap_or((0, 0))
    }

    /// Activity counters.
    pub fn stats(&self) -> SluiceStats {
        self.stats
    }

    /// The submit→completion latency histogram (empty without
    /// [`Sluice::set_now`]).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    fn cost_of(txn: &Txn) -> (usize, usize) {
        let bytes = txn
            .ops()
            .iter()
            .map(|op| match op {
                DpapiOp::Write { data, .. } => data.len(),
                _ => 0,
            })
            .sum();
        (txn.len(), bytes)
    }

    fn quota_of(&self, client: ClientId) -> Quota {
        self.quotas
            .get(&client)
            .copied()
            .unwrap_or(self.cfg.default_quota)
    }

    /// Submits a transaction for asynchronous commit, returning a
    /// completion ticket to [`Sluice::poll`]/[`Sluice::take`]/
    /// [`Sluice::wait`] on.
    ///
    /// `layer` is the substrate a blocking submission drains into; a
    /// non-blocking submission does not touch it. Admission control
    /// and backpressure may refuse with [`DpapiError::Rejected`] (see
    /// the crate docs); a rejected transaction was never enqueued and
    /// may be retried verbatim. An empty transaction completes
    /// immediately (matching `pass_commit`'s no-op contract) without
    /// consuming queue budget.
    pub fn submit(
        &mut self,
        layer: &mut dyn Dpapi,
        client: ClientId,
        txn: Txn,
    ) -> dpapi::Result<Ticket> {
        self.stats.submitted += 1;
        let (ops, bytes) = Self::cost_of(&txn);

        // Admission control: per-client quotas reject regardless of
        // the backpressure policy — an over-quota client must not
        // stall others by blocking.
        let quota = self.quota_of(client);
        let (cl_ops, cl_bytes) = self.in_flight_of(client);
        if cl_ops.saturating_add(ops) > quota.max_ops {
            self.stats.rejected_quota_ops += 1;
            return Err(DpapiError::Rejected(RejectReason::QuotaOps {
                client: client.0,
                in_flight: cl_ops,
                limit: quota.max_ops,
            }));
        }
        if cl_bytes.saturating_add(bytes) > quota.max_bytes {
            self.stats.rejected_quota_bytes += 1;
            return Err(DpapiError::Rejected(RejectReason::QuotaBytes {
                client: client.0,
                in_flight: cl_bytes,
                limit: quota.max_bytes,
            }));
        }

        // Backpressure: the shared queue budget.
        let mut blocked = false;
        while self.queued_ops.saturating_add(ops) > self.cfg.max_queued_ops
            || self.queued_bytes.saturating_add(bytes) > self.cfg.max_queued_bytes
        {
            let over_ops = self.queued_ops.saturating_add(ops) > self.cfg.max_queued_ops;
            // A transaction bigger than the whole budget can never
            // fit; draining an empty queue would spin forever.
            let oversized = self.queue.is_empty();
            if oversized || self.cfg.policy == BackpressurePolicy::Reject {
                let reason = if over_ops {
                    self.stats.rejected_queue_ops += 1;
                    RejectReason::QueueFullOps {
                        queued: self.queued_ops,
                        limit: self.cfg.max_queued_ops,
                    }
                } else {
                    self.stats.rejected_queue_bytes += 1;
                    RejectReason::QueueFullBytes {
                        queued: self.queued_bytes,
                        limit: self.cfg.max_queued_bytes,
                    }
                };
                return Err(DpapiError::Rejected(reason));
            }
            if !blocked {
                blocked = true;
                self.stats.blocked_submits += 1;
            }
            self.drain_one(layer);
        }

        self.stats.admitted += 1;
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let submitted_at = self.now.as_ref().map(|f| f()).unwrap_or(0);

        if txn.is_empty() {
            // pass_commit of an empty txn is a no-op success; resolve
            // without consuming queue budget.
            self.resolve(ticket, client, 0, 0, submitted_at, Ok(Vec::new()), None);
            return Ok(ticket);
        }

        self.queued_ops += ops;
        self.queued_bytes += bytes;
        let fl = self.inflight.entry(client).or_insert((0, 0));
        fl.0 += ops;
        fl.1 += bytes;
        self.queue.push_back(Pending {
            ticket,
            client,
            ops,
            bytes,
            submitted_at,
            txn,
        });
        self.peak_txns = self.peak_txns.max(self.queue.len() as u64);
        self.peak_ops = self.peak_ops.max(self.queued_ops as u64);
        self.peak_bytes = self.peak_bytes.max(self.queued_bytes as u64);
        Ok(ticket)
    }

    /// Commits everything queued, one coalesced frame at a time.
    /// Returns the number of frames committed.
    pub fn drain(&mut self, layer: &mut dyn Dpapi) -> usize {
        let mut frames = 0;
        while self.drain_one(layer) {
            frames += 1;
        }
        frames
    }

    /// Commits one coalesced frame: the longest FIFO run of queued
    /// transactions whose combined op count stays within
    /// [`SluiceConfig::coalesce_ops`] (always at least one
    /// transaction). Returns false if the queue was empty.
    fn drain_one(&mut self, layer: &mut dyn Dpapi) -> bool {
        let Some(first) = self.queue.pop_front() else {
            return false;
        };
        let mut frame_ops = first.ops;
        let mut frame = vec![first];
        while let Some(next) = self.queue.front() {
            if frame_ops + next.ops > self.cfg.coalesce_ops {
                break;
            }
            frame_ops += next.ops;
            frame.push(self.queue.pop_front().expect("front just observed"));
        }
        for p in &frame {
            self.queued_ops -= p.ops;
            self.queued_bytes -= p.bytes;
        }
        self.stats.frames += 1;
        self.stats.frame_txns += frame.len() as u64;
        self.stats.frame_ops += frame_ops as u64;
        self.stats.frame_bytes += frame.iter().map(|p| p.bytes as u64).sum::<u64>();

        // Merge by cloning ops so the originals survive for the
        // split fallback; the clones die with the merged txn.
        let merged: Txn = frame
            .iter()
            .flat_map(|p| p.txn.ops().iter().cloned())
            .collect();
        let (outcome, trace) = self.commit_framed(layer, "flush", merged);
        match outcome {
            Ok(results) => {
                let mut off = 0;
                for p in frame {
                    let slice = results[off..off + p.ops].to_vec();
                    off += p.ops;
                    self.resolve(
                        p.ticket,
                        p.client,
                        p.ops,
                        p.bytes,
                        p.submitted_at,
                        Ok(slice),
                        trace,
                    );
                }
            }
            Err(err) if frame.len() == 1 => {
                self.stats.aborted_frames += 1;
                let p = frame.pop().expect("single-txn frame");
                self.resolve(
                    p.ticket,
                    p.client,
                    p.ops,
                    p.bytes,
                    p.submitted_at,
                    Err(err),
                    trace,
                );
            }
            Err(_) => {
                // The merged frame aborted before applying anything
                // (validate-all-first); re-commit each transaction on
                // its own so only the guilty one fails.
                self.stats.aborted_frames += 1;
                for p in frame {
                    self.stats.split_commits += 1;
                    let (outcome, trace) = self.commit_framed(layer, "flush-split", p.txn);
                    self.resolve(
                        p.ticket,
                        p.client,
                        p.ops,
                        p.bytes,
                        p.submitted_at,
                        outcome,
                        trace,
                    );
                }
            }
        }
        true
    }

    /// Runs one `pass_commit` inside a sluice span and captures the
    /// trace the substrate bound to it (Lasagna's `bind_trace` stamps
    /// the window during the commit).
    fn commit_framed(
        &mut self,
        layer: &mut dyn Dpapi,
        name: &str,
        txn: Txn,
    ) -> (Completion, Option<TraceId>) {
        let span = self.scope.open("sluice", name);
        let outcome = layer.pass_commit(txn);
        let trace = self.scope.current_ctx().and_then(|c| c.trace);
        self.scope.close(span);
        (outcome, trace)
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &mut self,
        ticket: Ticket,
        client: ClientId,
        ops: usize,
        bytes: usize,
        submitted_at: u64,
        outcome: Completion,
        trace: Option<TraceId>,
    ) {
        if let Some(fl) = self.inflight.get_mut(&client) {
            fl.0 -= ops;
            fl.1 -= bytes;
            if *fl == (0, 0) {
                self.inflight.remove(&client);
            }
        }
        match &outcome {
            Ok(_) => self.stats.completed += 1,
            Err(_) => self.stats.failed += 1,
        }
        if let Some(now) = &self.now {
            self.latency.observe(now().saturating_sub(submitted_at));
        }
        // The ticket's completion rejoins its frame's span tree: an
        // async resolution stays attributable to the group frame that
        // carried it.
        let span = match trace {
            Some(t) => self.scope.open_linked("sluice", "ticket", t),
            None => provscope::SpanHandle::NONE,
        };
        self.done.insert(ticket, outcome);
        self.scope.close(span);
    }

    /// Where `ticket` stands. `None` for a ticket this sluice never
    /// issued or already [`Sluice::take`]n.
    pub fn poll(&self, ticket: Ticket) -> Option<TicketStatus> {
        if self.queue.iter().any(|p| p.ticket == ticket) {
            return Some(TicketStatus::Pending);
        }
        self.done.get(&ticket).map(|c| match c {
            Ok(_) => TicketStatus::Done,
            Err(_) => TicketStatus::Failed,
        })
    }

    /// Removes and returns `ticket`'s completion, if resolved.
    pub fn take(&mut self, ticket: Ticket) -> Option<Completion> {
        self.done.remove(&ticket)
    }

    /// Drains until `ticket` resolves, then returns its completion —
    /// the synchronous escape hatch for a caller that needs its
    /// results *now*. Errors if the ticket is unknown.
    pub fn wait(&mut self, layer: &mut dyn Dpapi, ticket: Ticket) -> Completion {
        loop {
            if let Some(c) = self.take(ticket) {
                return c;
            }
            if !self.drain_one(layer) {
                return Err(DpapiError::Inconsistent(format!(
                    "sluice ticket {} is unknown (never issued or already taken)",
                    ticket.raw()
                )));
            }
        }
    }

    /// Pours counters (prefixed), queue gauges and the latency
    /// histogram into `reg`. Current levels use `set_gauge`; peaks
    /// use `gauge_max` so repeated exports and cross-member merges
    /// keep the high-water mark. The configured queue budgets ride
    /// along so health rules can compare each peak against its bound
    /// (`queue.peak_ops` vs `queue.budget_ops`) without reaching
    /// back into the sluice.
    pub fn export_metrics(&self, prefix: &str, reg: &mut Registry) {
        reg.absorb(prefix, &self.stats);
        reg.set_gauge(&format!("{prefix}queue.txns"), self.queue.len() as u64);
        reg.set_gauge(&format!("{prefix}queue.ops"), self.queued_ops as u64);
        reg.set_gauge(&format!("{prefix}queue.bytes"), self.queued_bytes as u64);
        reg.gauge_max(&format!("{prefix}queue.peak_txns"), self.peak_txns);
        reg.gauge_max(&format!("{prefix}queue.peak_ops"), self.peak_ops);
        reg.gauge_max(&format!("{prefix}queue.peak_bytes"), self.peak_bytes);
        reg.set_gauge(
            &format!("{prefix}queue.budget_ops"),
            self.cfg.max_queued_ops as u64,
        );
        reg.set_gauge(
            &format!("{prefix}queue.budget_bytes"),
            self.cfg.max_queued_bytes as u64,
        );
        if self.latency.count() > 0 {
            reg.absorb_histogram(&format!("{prefix}latency_ns"), &self.latency);
        }
    }
}

#[cfg(test)]
mod tests;
