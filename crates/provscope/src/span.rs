//! The span model: scopes, windows, trace binding, latency
//! attribution, and the bounded flight recorder.
//!
//! # Span model
//!
//! A [`Scope`] is a shared handle threaded through every layer of one
//! machine. Layers call [`Scope::open`]/[`Scope::close`] around their
//! work; because the whole commit path is synchronous, the open-span
//! *stack* gives each new span its parent for free.
//!
//! The complication is the trace id. A disclosure transaction's
//! natural identity is its volume-salted batch id — but Lasagna
//! allocates that id *deep inside* the call chain, after the kernel
//! and DPAPI spans have already opened. Spans are therefore born
//! **trace-pending**: they belong to the current *window* (the period
//! from the stack becoming non-empty to it emptying again) and wait
//! for [`Scope::bind_trace`], which Lasagna calls the moment it
//! frames a group. Binding retroactively stamps every pending span of
//! the window and registers the window's root so later, asynchronous
//! work (Waldo ingesting the group frame during a poll) can re-join
//! the tree via [`Scope::open_linked`] with nothing but the batch id
//! it finds in the log.
//!
//! Windows that never bind (single-op commits log plainly and
//! allocate no batch id; plain syscalls too) are stamped with a
//! *synthetic* trace id when the window closes — bit 62, disjoint
//! from the bit-63 batch-id space — so every span always ends up in
//! exactly one trace.
//!
//! # Flight recorder
//!
//! [`Scope::enabled`] retains every span forever — right for tests,
//! wrong for an always-on service. [`Scope::recording`] bounds span
//! memory with a [`RecorderConfig`]:
//!
//! * **Ring retention.** Completed trace trees (no open spans, no
//!   live window still bound to the trace) move into a ring. When a
//!   new span would push the live span count past `capacity`, whole
//!   completed trees are evicted oldest-first — a tree is dropped in
//!   its entirety or kept in its entirety, never torn. Spans of
//!   still-incomplete trees are never evicted; if *nothing* is
//!   evictable at capacity, the new span is **shed** (the caller gets
//!   [`SpanHandle::NONE`], its children parent to the grandparent, and
//!   `spans_shed` counts the loss). `spans_high_water ≤ capacity`
//!   therefore holds unconditionally.
//! * **Deterministic head sampling.** On completion a tree is kept
//!   iff `splitmix64(seed ^ trace_id) % 1_000_000 <
//!   sample_per_million`. The key is the volume-salted trace id and a
//!   configured seed — zero ambient entropy, so two same-seed runs
//!   retain byte-identical sampled trace sets.
//! * **Tail-based slow-trace retention.** A completed tree whose
//!   *root* span duration (on the injected virtual clock) reaches
//!   `slow_threshold_ns` is pinned into a separate slow ring
//!   regardless of the sampling verdict — a slow-batch log for free.
//!   The slow ring is bounded by `slow_capacity` spans (oldest slow
//!   trees evicted first, always keeping the newest).
//!
//! A completed tree that later gains linked spans (a Waldo poll
//! ingesting a group frame long after the commit window closed) is
//! *revived* out of its ring back into the live set, extended, and
//! re-completed — the sampling verdict is recomputed from the same
//! key, so determinism is unaffected. Eviction drops the trace's root
//! registration too: late joiners of a dropped trace start a fresh
//! (deterministically re-sampled) fragment tree.
//!
//! The recorder never advances the clock, never allocates ids in the
//! observed system, and never writes to any store — the provtorture
//! byte-equality oracle holds with the recorder on.
//!
//! # One owner
//!
//! A scope belongs to one machine and is used from one thread: its
//! clones share an `Rc<RefCell<_>>`, and it holds exactly one window.
//! One window suffices because a disclosure is one synchronous call
//! chain (application → DPAPI → kernel → PASS module → Lasagna), and
//! every daemon poll and cluster sweep runs on the kernel's thread
//! too. So the open-span stack always belongs to the chain that is
//! running, and the asynchronous half re-joins its tree through
//! [`Scope::open_linked`], which never touches the stack.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Virtual nanoseconds, as read from the injected now-function.
pub type Nanos = u64;

/// Identity of one trace (one causally-connected span tree).
///
/// For batched disclosure transactions this is the volume-salted
/// batch id (`lasagna::batch_txn_id`: tag bit 63 | volume << 28 |
/// 28-bit sequence). Windows that never produce a batch get a
/// synthetic id with [`TraceId::SYNTHETIC_BIT`] set instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Tag bit of synthetic (non-batch) trace ids. Disjoint from the
    /// batch-id space, whose tag is bit 63.
    pub const SYNTHETIC_BIT: u64 = 1 << 62;

    /// True for trace ids that are volume-salted batch ids (bit 63).
    pub fn is_batch(self) -> bool {
        self.0 & (1 << 63) != 0
    }

    /// True for synthetic ids assigned to windows without a batch.
    pub fn is_synthetic(self) -> bool {
        !self.is_batch() && self.0 & Self::SYNTHETIC_BIT != 0
    }
}

/// Identity of one span within a [`Scope`] (allocated sequentially
/// from 1; after flight-recorder eviction the *live* id set may be
/// sparse, but ids remain strictly increasing in open order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The trace context at a point of execution: which trace the current
/// window belongs to (if already bound), the innermost open span, and
/// its parent. This is what a disclosure transaction "carries" —
/// implicitly, via the synchronous stack, rather than as extra bytes
/// on the wire or in the log (which would break byte-equality of
/// traced and untraced runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The window's trace, once bound ([`Scope::bind_trace`]).
    pub trace: Option<TraceId>,
    /// The innermost open span.
    pub span: SpanId,
    /// Its parent span, if any.
    pub parent: Option<SpanId>,
}

/// One enter/exit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id (strictly increasing in open order).
    pub id: SpanId,
    /// Parent span within the same scope, if any.
    pub parent: Option<SpanId>,
    /// The trace this span belongs to. `None` only while the span's
    /// window is still open and unbound; every snapshot taken after
    /// the window closed has `Some`.
    pub trace: Option<TraceId>,
    /// The layer that recorded the span (`"kernel"`, `"dpapi"`,
    /// `"lasagna"`, `"pa-nfs"`, `"waldo"`, `"pql"`).
    pub layer: &'static str,
    /// Operation name within the layer (`"pass_commit"`, …).
    pub name: String,
    /// Virtual time at [`Scope::open`].
    pub start_ns: Nanos,
    /// Virtual time at [`Scope::close`]; `None` while open.
    pub end_ns: Option<Nanos>,
}

impl Span {
    /// Duration in virtual nanoseconds (0 while still open).
    pub fn duration_ns(&self) -> Nanos {
        self.end_ns.unwrap_or(self.start_ns) - self.start_ns
    }
}

/// Handle returned by [`Scope::open`]; pass it back to
/// [`Scope::close`]. A disabled scope hands out inert handles, so
/// instrumented code needs no `if enabled` branches. A recording
/// scope at capacity with nothing evictable also hands out inert
/// handles (span shedding) rather than growing without bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanHandle(Option<SpanId>);

impl SpanHandle {
    /// The inert handle (what a disabled scope returns).
    pub const NONE: SpanHandle = SpanHandle(None);

    /// The span id, when the scope was enabled.
    pub fn id(self) -> Option<SpanId> {
        self.0
    }
}

/// splitmix64 finalizer — the flight recorder's sampling hash. Kept
/// private and local (waldo depends on provscope, not vice versa).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Configuration of the bounded flight recorder
/// ([`Scope::recording`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Hard bound on live spans. Whole completed trees are evicted
    /// oldest-first to stay under it; incoming spans are shed when
    /// nothing is evictable. `provscope.spans_high_water ≤ capacity`
    /// always holds.
    pub capacity: usize,
    /// Head-sampling rate in parts per million: a completed tree is
    /// retained iff `splitmix64(seed ^ trace_id) % 1_000_000 <
    /// sample_per_million`. `1_000_000` (the default) keeps every
    /// tree; `0` keeps none (slow trees are still pinned).
    pub sample_per_million: u32,
    /// Salt for the sampling hash. Same seed ⇒ byte-identical sampled
    /// trace set across runs.
    pub seed: u64,
    /// Root-span duration (virtual ns) at or above which a completed
    /// tree is pinned into the slow ring regardless of sampling.
    /// `u64::MAX` (the default) disables tail retention.
    pub slow_threshold_ns: Nanos,
    /// Bound on total spans held by the slow ring; oldest slow trees
    /// are evicted first (the newest slow tree is always kept).
    pub slow_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 65_536,
            sample_per_million: 1_000_000,
            seed: 0,
            slow_threshold_ns: u64::MAX,
            slow_capacity: 16_384,
        }
    }
}

impl RecorderConfig {
    /// The deterministic head-sampling verdict for `trace`: a pure
    /// function of the trace id and the configured seed — no ambient
    /// entropy, no state.
    pub fn samples(&self, trace: TraceId) -> bool {
        if self.sample_per_million >= 1_000_000 {
            return true;
        }
        splitmix64(self.seed ^ trace.0) % 1_000_000 < u64::from(self.sample_per_million)
    }
}

/// Counters exposing the flight recorder's behavior (all zero on a
/// disabled scope; only the span-memory fields are live on an
/// unbounded [`Scope::enabled`] scope).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Spans currently held (live + retained rings).
    pub spans_live: u64,
    /// Maximum of `spans_live` ever observed.
    pub spans_high_water: u64,
    /// Completed trees evicted from a ring to make room.
    pub trees_evicted: u64,
    /// Completed trees dropped by the head-sampling verdict.
    pub trees_sampled_out: u64,
    /// Completed sampled trees currently in the main ring.
    pub trees_retained: u64,
    /// Slow trees currently pinned in the slow ring.
    pub slow_trees: u64,
    /// Spans refused at capacity because nothing was evictable
    /// (evictions-before-completion pressure).
    pub spans_shed: u64,
}

/// Digest of one tree pinned by tail-based slow-trace retention.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowTraceInfo {
    /// The tree's trace id.
    pub trace: TraceId,
    /// Layer of the root span (`"?"` if the root was shed).
    pub root_layer: &'static str,
    /// Name of the root span.
    pub root_name: String,
    /// Root-span duration in virtual nanoseconds.
    pub duration_ns: Nanos,
    /// Spans in the tree.
    pub spans: u64,
}

/// The synchronous window: the open-span stack and the spans waiting
/// for a trace binding.
#[derive(Default)]
struct Window {
    /// Open spans of the current synchronous window, outermost first.
    stack: Vec<SpanId>,
    /// Window spans not yet assigned a trace.
    pending: Vec<SpanId>,
    /// The current window's trace, once bound.
    trace: Option<TraceId>,
}

/// Bookkeeping for one not-yet-completed trace tree.
#[derive(Default)]
struct TreeState {
    /// Span ids of the tree, in add order.
    spans: Vec<u64>,
    /// Spans of the tree still open.
    open: usize,
    /// Live windows currently bound to the trace.
    windows: usize,
}

/// A slow tree pinned in the tail-retention ring.
struct SlowTree {
    trace: u64,
    root_layer: &'static str,
    root_name: String,
    duration_ns: Nanos,
    span_ids: Vec<u64>,
}

/// The bounded-retention state of a recording scope.
struct Recorder {
    cfg: RecorderConfig,
    /// Live (incomplete) trees, keyed by canonical trace id.
    trees: BTreeMap<u64, TreeState>,
    /// Completed sampled trees, oldest first.
    ring: VecDeque<(u64, Vec<u64>)>,
    /// Completed slow trees, oldest first.
    slow: VecDeque<SlowTree>,
    /// Total spans held by `slow`.
    slow_spans: usize,
    trees_evicted: u64,
    trees_sampled_out: u64,
    spans_shed: u64,
}

impl Recorder {
    fn new(cfg: RecorderConfig) -> Recorder {
        Recorder {
            cfg,
            trees: BTreeMap::new(),
            ring: VecDeque::new(),
            slow: VecDeque::new(),
            slow_spans: 0,
            trees_evicted: 0,
            trees_sampled_out: 0,
            spans_shed: 0,
        }
    }

    /// Moves a retained (completed) tree back into the live set so
    /// late linked spans can extend it instead of tearing it.
    fn revive(&mut self, t: u64) {
        if self.trees.contains_key(&t) {
            return;
        }
        let in_ring = self.ring.iter().position(|e| e.0 == t);
        let in_slow = self.slow.iter().position(|e| e.trace == t);
        let spans = if let Some((_, ids)) = in_ring.and_then(|pos| self.ring.remove(pos)) {
            ids
        } else if let Some(st) = in_slow.and_then(|pos| self.slow.remove(pos)) {
            self.slow_spans -= st.span_ids.len();
            st.span_ids
        } else {
            return;
        };
        self.trees.insert(
            t,
            TreeState {
                spans,
                open: 0,
                windows: 0,
            },
        );
    }

    /// Evicts the oldest retained tree (main ring first, then the
    /// slow ring), returning its span ids, or `None` if nothing is
    /// evictable.
    fn evict_oldest_retained(&mut self) -> Option<Vec<u64>> {
        if let Some((_, ids)) = self.ring.pop_front() {
            self.trees_evicted += 1;
            return Some(ids);
        }
        if let Some(st) = self.slow.pop_front() {
            self.slow_spans -= st.span_ids.len();
            self.trees_evicted += 1;
            return Some(st.span_ids);
        }
        None
    }

    /// Places a completed tree (slow ring, sampled ring, or dropped)
    /// and returns the span ids the caller must drop from storage.
    fn complete(
        &mut self,
        t: u64,
        dur: Nanos,
        span_ids: Vec<u64>,
        root_layer: &'static str,
        root_name: String,
    ) -> Vec<u64> {
        let mut drops = Vec::new();
        if dur >= self.cfg.slow_threshold_ns {
            self.slow_spans += span_ids.len();
            self.slow.push_back(SlowTree {
                trace: t,
                root_layer,
                root_name,
                duration_ns: dur,
                span_ids,
            });
            while self.slow_spans > self.cfg.slow_capacity.max(1) && self.slow.len() > 1 {
                let old = self.slow.pop_front().unwrap();
                self.slow_spans -= old.span_ids.len();
                self.trees_evicted += 1;
                drops.extend(old.span_ids);
            }
        } else if self.cfg.samples(TraceId(t)) {
            self.ring.push_back((t, span_ids));
        } else {
            self.trees_sampled_out += 1;
            drops = span_ids;
        }
        drops
    }
}

struct Inner {
    now: Box<dyn Fn() -> Nanos>,
    /// Span storage keyed by id — sparse once the recorder evicts.
    spans: BTreeMap<u64, Span>,
    /// Next span id to allocate (ids are never reused).
    next_id: u64,
    /// High-water mark of `spans.len()`.
    high_water: u64,
    /// The current window; empty between windows.
    window: Window,
    /// Trace id → the root span detached work should link under.
    roots: BTreeMap<u64, SpanId>,
    next_synthetic: u64,
    /// Bounded-retention state; `None` on unbounded scopes.
    recorder: Option<Recorder>,
}

impl Inner {
    fn span_mut(&mut self, id: SpanId) -> &mut Span {
        self.spans.get_mut(&id.0).expect("live span")
    }

    fn alloc_id(&mut self) -> SpanId {
        self.next_id += 1;
        SpanId(self.next_id)
    }

    fn insert_span(&mut self, s: Span) {
        self.spans.insert(s.id.0, s);
        self.high_water = self.high_water.max(self.spans.len() as u64);
    }

    /// Removes evicted/dropped spans and every root registration
    /// (including multi-bind aliases) that points at them.
    fn drop_spans(&mut self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        let set: BTreeSet<u64> = ids.iter().copied().collect();
        for id in ids {
            self.spans.remove(id);
        }
        self.roots.retain(|_, sid| !set.contains(&sid.0));
    }

    /// Makes room for one new span. Returns `false` (shed) when the
    /// recorder is at capacity with nothing evictable.
    fn reserve_slot(&mut self) -> bool {
        loop {
            let rec = match self.recorder.as_mut() {
                Some(r) if self.spans.len() >= r.cfg.capacity.max(1) => r,
                _ => return true,
            };
            match rec.evict_oldest_retained() {
                Some(ids) => self.drop_spans(&ids),
                None => {
                    rec.spans_shed += 1;
                    return false;
                }
            }
        }
    }

    /// Registers `id` with trace `t`'s live tree (reviving a retained
    /// tree if a late joiner arrives).
    fn tree_add(&mut self, t: u64, id: u64, open: bool) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        rec.revive(t);
        let ts = rec.trees.entry(t).or_default();
        ts.spans.push(id);
        if open {
            ts.open += 1;
        }
    }

    fn tree_close(&mut self, t: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            if let Some(ts) = rec.trees.get_mut(&t) {
                ts.open = ts.open.saturating_sub(1);
            }
        }
        self.maybe_complete(t);
    }

    fn tree_bind_window(&mut self, t: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.revive(t);
            rec.trees.entry(t).or_default().windows += 1;
        }
    }

    fn tree_unbind_window(&mut self, t: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            if let Some(ts) = rec.trees.get_mut(&t) {
                ts.windows = ts.windows.saturating_sub(1);
            }
        }
        self.maybe_complete(t);
    }

    /// Completes trace `t`'s tree (moves it into a ring or drops it)
    /// once no span of it is open and no window is bound to it.
    fn maybe_complete(&mut self, t: u64) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let tree = match rec.trees.entry(t) {
            Entry::Occupied(e) if e.get().open == 0 && e.get().windows == 0 => e.remove(),
            _ => return,
        };
        let (dur, layer, name) = match self.roots.get(&t).and_then(|sid| self.spans.get(&sid.0)) {
            Some(s) => (s.duration_ns(), s.layer, s.name.clone()),
            None => (0, "?", String::new()),
        };
        let drops = rec.complete(t, dur, tree.spans, layer, name);
        self.drop_spans(&drops);
    }

    /// Stamps an unbound window's spans with a synthetic trace when
    /// its stack empties, and resets the window.
    fn finish_window(&mut self) {
        let w = std::mem::take(&mut self.window);
        if let Some(trace) = w.trace {
            self.tree_unbind_window(trace.0);
        } else if !w.pending.is_empty() {
            self.next_synthetic += 1;
            let trace = TraceId(TraceId::SYNTHETIC_BIT | self.next_synthetic);
            self.roots.insert(trace.0, w.pending[0]);
            for &id in &w.pending {
                self.span_mut(id).trace = Some(trace);
            }
            for id in w.pending {
                let open = self.spans.get(&id.0).is_some_and(|s| s.end_ns.is_none());
                self.tree_add(trace.0, id.0, open);
            }
            self.maybe_complete(trace.0);
        }
    }
}

/// A tracing scope handle — cheap to clone, `Default`-disabled.
///
/// Every layer of one machine holds a clone of the same scope; see
/// the module docs for the window/binding model, the single owner and
/// the flight recorder. A disabled scope (the default) makes every
/// operation a no-op on an immediate `None`, so threading it through
/// hot paths costs one branch.
#[derive(Clone, Default)]
pub struct Scope(Option<Rc<RefCell<Inner>>>);

impl Scope {
    /// A disabled scope: records nothing, costs (almost) nothing.
    pub fn disabled() -> Scope {
        Scope(None)
    }

    /// An enabled scope reading time from `now` — inject the virtual
    /// clock (`move || clock.now()`), never a wall clock, or traces
    /// stop being deterministic. Retention is unbounded; production
    /// paths should prefer [`Scope::recording`].
    pub fn enabled(now: impl Fn() -> Nanos + 'static) -> Scope {
        Scope::build(now, None)
    }

    /// An enabled scope with the bounded flight recorder: whole-tree
    /// ring retention under `cfg.capacity`, deterministic head
    /// sampling, and tail-based slow-trace pinning. See the module
    /// docs for semantics.
    pub fn recording(now: impl Fn() -> Nanos + 'static, cfg: RecorderConfig) -> Scope {
        Scope::build(now, Some(Recorder::new(cfg)))
    }

    fn build(now: impl Fn() -> Nanos + 'static, recorder: Option<Recorder>) -> Scope {
        Scope(Some(Rc::new(RefCell::new(Inner {
            now: Box::new(now),
            spans: BTreeMap::new(),
            next_id: 0,
            high_water: 0,
            window: Window::default(),
            roots: BTreeMap::new(),
            next_synthetic: 0,
            recorder,
        }))))
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Flight-recorder counters (all zero when the scope is disabled;
    /// span-memory fields are live even without a recorder).
    pub fn recorder_stats(&self) -> RecorderStats {
        let Some(inner) = &self.0 else {
            return RecorderStats::default();
        };
        let g = inner.borrow();
        let mut st = RecorderStats {
            spans_live: g.spans.len() as u64,
            spans_high_water: g.high_water,
            ..RecorderStats::default()
        };
        if let Some(r) = &g.recorder {
            st.trees_evicted = r.trees_evicted;
            st.trees_sampled_out = r.trees_sampled_out;
            st.trees_retained = r.ring.len() as u64;
            st.slow_trees = r.slow.len() as u64;
            st.spans_shed = r.spans_shed;
        }
        st
    }

    /// Digests of the trees currently pinned by tail-based slow-trace
    /// retention, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowTraceInfo> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let g = inner.borrow();
        let Some(r) = &g.recorder else {
            return Vec::new();
        };
        r.slow
            .iter()
            .map(|s| SlowTraceInfo {
                trace: TraceId(s.trace),
                root_layer: s.root_layer,
                root_name: s.root_name.clone(),
                duration_ns: s.duration_ns,
                spans: s.span_ids.len() as u64,
            })
            .collect()
    }

    /// Publishes the scope's memory telemetry into `reg` as gauges
    /// (`provscope.spans_live`, `provscope.spans_high_water`,
    /// `provscope.trees_evicted`, …). No-op on a disabled scope.
    pub fn export_metrics(&self, reg: &mut crate::metrics::Registry) {
        if !self.is_enabled() {
            return;
        }
        let st = self.recorder_stats();
        reg.set_gauge("provscope.spans_live", st.spans_live);
        reg.gauge_max("provscope.spans_high_water", st.spans_high_water);
        reg.set_gauge("provscope.trees_evicted", st.trees_evicted);
        reg.set_gauge("provscope.trees_sampled_out", st.trees_sampled_out);
        reg.set_gauge("provscope.trees_retained", st.trees_retained);
        reg.set_gauge("provscope.slow_trees", st.slow_trees);
        reg.set_gauge("provscope.spans_shed", st.spans_shed);
    }

    /// Opens a span as a child of the innermost open span (or as a
    /// window root). Must be paired with [`Scope::close`]. Returns
    /// [`SpanHandle::NONE`] when the span was shed at capacity.
    pub fn open(&self, layer: &'static str, name: &str) -> SpanHandle {
        let Some(inner) = &self.0 else {
            return SpanHandle::NONE;
        };
        let mut g = inner.borrow_mut();
        if !g.reserve_slot() {
            return SpanHandle::NONE;
        }
        let now = (g.now)();
        let id = g.alloc_id();
        let w = &mut g.window;
        let parent = w.stack.last().copied();
        let trace = w.trace;
        if trace.is_none() {
            w.pending.push(id);
        }
        w.stack.push(id);
        g.insert_span(Span {
            id,
            parent,
            trace,
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: None,
        });
        if let Some(t) = trace {
            g.tree_add(t.0, id.0, true);
        }
        SpanHandle(Some(id))
    }

    /// Opens a *detached* span linked to `trace`'s registered root —
    /// how asynchronous work (Waldo ingesting a group frame found in
    /// a log) re-joins the tree of the synchronous commit that
    /// produced it. Detached spans never join the stack; if no root
    /// is registered for `trace` (e.g. the commit predates this
    /// scope, or the recorder already evicted the tree), the span
    /// becomes the root of a fresh (fragment) tree itself.
    pub fn open_linked(&self, layer: &'static str, name: &str, trace: TraceId) -> SpanHandle {
        let Some(inner) = &self.0 else {
            return SpanHandle::NONE;
        };
        let mut g = inner.borrow_mut();
        let (parent, t) = match g.roots.get(&trace.0).copied() {
            // Adopt the root's canonical trace: a multi-volume
            // transaction registers several batch ids onto one root,
            // and the tree must stay single-trace.
            Some(root) => (
                Some(root),
                g.spans.get(&root.0).and_then(|s| s.trace).unwrap_or(trace),
            ),
            None => (None, trace),
        };
        // Revive the target tree before making room, so the eviction
        // scan can't tear the tree this span is about to join.
        if let Some(rec) = g.recorder.as_mut() {
            rec.revive(t.0);
        }
        if !g.reserve_slot() {
            return SpanHandle::NONE;
        }
        let now = (g.now)();
        let id = g.alloc_id();
        g.insert_span(Span {
            id,
            parent,
            trace: Some(t),
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: None,
        });
        if parent.is_none() {
            g.roots.entry(trace.0).or_insert(id);
        }
        g.tree_add(t.0, id.0, true);
        SpanHandle(Some(id))
    }

    /// Closes a span (stack or linked). Closing the outermost span of
    /// the stack ends the window, stamping unbound spans
    /// synthetically. Completed trees move into the flight-recorder
    /// rings on a recording scope.
    pub fn close(&self, h: SpanHandle) {
        let Some(inner) = &self.0 else { return };
        let Some(id) = h.0 else { return };
        let mut g = inner.borrow_mut();
        let now = (g.now)();
        let span = g.span_mut(id);
        span.end_ns = Some(now);
        let trace = span.trace;
        let stack = &mut g.window.stack;
        if let Some(pos) = stack.iter().rposition(|s| *s == id) {
            stack.remove(pos);
        }
        if stack.is_empty() {
            g.finish_window();
        }
        if let Some(t) = trace {
            g.tree_close(t.0);
        }
    }

    /// Binds the current window to `trace` — called by the layer that
    /// *allocates* the transaction's identity (Lasagna, when it frames
    /// a group record). All pending spans of the window are stamped
    /// retroactively; spans opened later in the window inherit the
    /// binding at birth. A second bind in one window (a transaction
    /// spanning volumes allocates one batch id per volume) keeps the
    /// first trace for the tree but registers the extra id onto the
    /// same root, so each batch's asynchronous ingest still links
    /// into the one tree. Outside a window there is nothing to bind.
    pub fn bind_trace(&self, trace: TraceId) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.borrow_mut();
        let Some(&root) = g.window.stack.first() else {
            return;
        };
        if g.window.trace.is_none() {
            g.window.trace = Some(trace);
            let pending = std::mem::take(&mut g.window.pending);
            for &id in &pending {
                g.span_mut(id).trace = Some(trace);
            }
            g.tree_bind_window(trace.0);
            for id in pending {
                let open = g.spans.get(&id.0).is_some_and(|s| s.end_ns.is_none());
                g.tree_add(trace.0, id.0, open);
            }
        }
        g.roots.entry(trace.0).or_insert(root);
    }

    /// The trace context at the current point of execution, if any
    /// span is open.
    pub fn current_ctx(&self) -> Option<TraceCtx> {
        let g = self.0.as_ref()?.borrow();
        let &id = g.window.stack.last()?;
        let s = g.spans.get(&id.0)?;
        Some(TraceCtx {
            trace: s.trace.or(g.window.trace),
            span: id,
            parent: s.parent,
        })
    }

    /// A snapshot of every span currently held, in id order. On a
    /// recording scope this is the live spans plus the retained
    /// rings; evicted and sampled-out trees are absent (the id
    /// sequence may be sparse, but remains strictly increasing).
    pub fn snapshot(&self) -> Trace {
        Trace {
            spans: match &self.0 {
                Some(inner) => inner.borrow().spans.values().cloned().collect(),
                None => Vec::new(),
            },
        }
    }
}

/// Per-layer latency attribution over one [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerLatency {
    /// The layer.
    pub layer: &'static str,
    /// Spans recorded by the layer.
    pub spans: u64,
    /// Sum of span durations (inclusive of child layers).
    pub total_ns: Nanos,
    /// Sum of *self* times: each span's duration minus the durations
    /// of its direct children — where the layer itself spent virtual
    /// time, the number the attribution table is about.
    pub self_ns: Nanos,
}

/// An immutable snapshot of a scope's spans, with analysis helpers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// All spans, in open order (span id order; possibly sparse after
    /// flight-recorder eviction).
    pub spans: Vec<Span>,
}

impl Trace {
    fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans
            .binary_search_by_key(&id.0, |s| s.id.0)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Structural well-formedness: span ids strictly increasing,
    /// every span closed with `end >= start`, every span traced,
    /// every parent a held earlier span that started no later, and
    /// parent and child in the same trace. Returns the first
    /// violation. (Ids need not be dense: the flight recorder evicts
    /// whole trees, leaving gaps but never dangling parents.)
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.id.0 <= prev {
                return Err(format!(
                    "span #{i} id {} not increasing (prev {prev})",
                    s.id.0
                ));
            }
            prev = s.id.0;
            let Some(end) = s.end_ns else {
                return Err(format!(
                    "span {} ({}/{}) never closed",
                    s.id.0, s.layer, s.name
                ));
            };
            if end < s.start_ns {
                return Err(format!("span {} ends before it starts", s.id.0));
            }
            let Some(trace) = s.trace else {
                return Err(format!("span {} has no trace", s.id.0));
            };
            if let Some(p) = s.parent {
                let Some(parent) = self.get(p) else {
                    return Err(format!("span {} parent {} does not exist", s.id.0, p.0));
                };
                if p >= s.id {
                    return Err(format!("span {} parent {} is not earlier", s.id.0, p.0));
                }
                if parent.start_ns > s.start_ns {
                    return Err(format!("span {} starts before its parent {}", s.id.0, p.0));
                }
                if parent.trace != Some(trace) {
                    return Err(format!(
                        "span {} (trace {:#x}) and parent {} disagree on trace",
                        s.id.0, trace.0, p.0
                    ));
                }
            }
        }
        Ok(())
    }

    /// The distinct trace ids, ascending (synthetic ids sort below
    /// batch ids, whose tag bit is higher).
    pub fn traces(&self) -> Vec<TraceId> {
        let mut out: Vec<TraceId> = self.spans.iter().filter_map(|s| s.trace).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The batch traces only — one per multi-op disclosure
    /// transaction that reached a volume.
    pub fn batch_traces(&self) -> Vec<TraceId> {
        self.traces().into_iter().filter(|t| t.is_batch()).collect()
    }

    /// Spans of one trace, in span-id order.
    pub fn spans_of(&self, trace: TraceId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.trace == Some(trace))
            .collect()
    }

    /// The distinct layers that recorded spans in `trace`.
    pub fn layers_of(&self, trace: TraceId) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.spans_of(trace).iter().map(|s| s.layer).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when `trace`'s spans form exactly one connected tree:
    /// precisely one root, every other span reachable from it through
    /// parent links within the trace.
    pub fn is_connected_tree(&self, trace: TraceId) -> bool {
        let spans = self.spans_of(trace);
        let mut roots = spans.iter().filter(|s| s.parent.is_none());
        let (Some(root), None) = (roots.next(), roots.next()) else {
            return false;
        };
        // Parent ids are strictly smaller, so one pass in id order
        // proves reachability: a span is connected iff its parent is
        // the root or already proven connected.
        let mut connected = BTreeSet::new();
        connected.insert(root.id);
        for s in &spans {
            if let Some(p) = s.parent {
                if connected.contains(&p) {
                    connected.insert(s.id);
                }
            }
        }
        connected.len() == spans.len()
    }

    /// Per-layer latency attribution: total and *self* (exclusive)
    /// virtual time per layer, ordered by descending self time. This
    /// is the "where did this batch spend its time" table.
    pub fn layer_latency(&self) -> Vec<LayerLatency> {
        // Positional child-duration accumulation; parents are found
        // by binary search because ids may be sparse.
        let mut child_ns: Vec<Nanos> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Ok(i) = self.spans.binary_search_by_key(&p.0, |x| x.id.0) {
                    child_ns[i] += s.duration_ns();
                }
            }
        }
        let mut by_layer: BTreeMap<&'static str, LayerLatency> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_layer.entry(s.layer).or_insert(LayerLatency {
                layer: s.layer,
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.spans += 1;
            let d = s.duration_ns();
            e.total_ns += d;
            // Linked children (Waldo ingest) may outlive the parent
            // window; saturate rather than attribute negative time.
            e.self_ns += d.saturating_sub(child_ns[i]);
        }
        let mut out: Vec<LayerLatency> = by_layer.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(b.layer)));
        out
    }

    /// Renders [`Trace::layer_latency`] as an aligned text table.
    pub fn render_latency_table(&self) -> String {
        let rows = self.layer_latency();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>7} {:>14} {:>14} {:>8}\n",
            "layer", "spans", "total_us", "self_us", "self%"
        ));
        let grand_self: Nanos = rows.iter().map(|r| r.self_ns).sum();
        for r in &rows {
            let pct = if grand_self == 0 {
                0.0
            } else {
                r.self_ns as f64 / grand_self as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<10} {:>7} {:>14.3} {:>14.3} {:>7.1}%\n",
                r.layer,
                r.spans,
                r.total_ns as f64 / 1_000.0,
                r.self_ns as f64 / 1_000.0,
                pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A now-function that reads 0, 10, 20, … ns.
    fn ticking_clock() -> impl Fn() -> Nanos {
        let t = Cell::new(0);
        move || {
            let now = t.get();
            t.set(now + 10);
            now
        }
    }

    fn ticking() -> Scope {
        Scope::enabled(ticking_clock())
    }

    fn ticking_recorder(cfg: RecorderConfig) -> Scope {
        Scope::recording(ticking_clock(), cfg)
    }

    #[test]
    fn disabled_scope_is_inert() {
        let s = Scope::disabled();
        let h = s.open("kernel", "x");
        assert_eq!(h, SpanHandle::NONE);
        s.bind_trace(TraceId(1 << 63));
        s.close(h);
        assert!(s.snapshot().spans.is_empty());
        assert!(!s.is_enabled());
        assert_eq!(s.recorder_stats(), RecorderStats::default());
        assert!(s.slow_traces().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_binding_stamps_the_window() {
        let s = ticking();
        let a = s.open("kernel", "pass_commit");
        let b = s.open("dpapi", "dp_commit");
        let batch = TraceId((1 << 63) | 42);
        s.bind_trace(batch);
        let c = s.open("lasagna", "pass_commit");
        s.close(c);
        s.close(b);
        s.close(a);
        let t = s.snapshot();
        t.validate().unwrap();
        assert_eq!(t.traces(), vec![batch]);
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans[1].parent, Some(SpanId(1)));
        assert_eq!(t.spans[2].parent, Some(SpanId(2)));
        assert_eq!(t.layers_of(batch), vec!["dpapi", "kernel", "lasagna"]);
    }

    #[test]
    fn unbound_window_gets_a_synthetic_trace() {
        let s = ticking();
        let a = s.open("kernel", "read");
        s.close(a);
        let t = s.snapshot();
        t.validate().unwrap();
        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].is_synthetic());
        assert!(!traces[0].is_batch());
    }

    #[test]
    fn linked_spans_join_the_batch_tree() {
        let s = ticking();
        let batch = TraceId((1 << 63) | 7);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        // Later, asynchronously: Waldo ingests the group frame.
        let w = s.open_linked("waldo", "ingest_batch", batch);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans_of(batch).len(), 2);
        assert_eq!(t.spans[1].parent, Some(SpanId(1)));
    }

    #[test]
    fn linked_span_without_a_root_becomes_one() {
        let s = ticking();
        let batch = TraceId((1 << 63) | 9);
        let w = s.open_linked("waldo", "ingest_batch", batch);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
    }

    #[test]
    fn second_bind_in_one_window_aliases_onto_the_first_root() {
        let s = ticking();
        let b1 = TraceId((1 << 63) | 1);
        let b2 = TraceId((1 << 63) | 2);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(b1);
        s.bind_trace(b2); // second volume of the same transaction
        s.close(a);
        let w = s.open_linked("waldo", "ingest_batch", b2);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        // One tree under b1; the b2 ingest adopted the canonical trace.
        assert_eq!(t.traces(), vec![b1]);
        assert!(t.is_connected_tree(b1));
    }

    #[test]
    fn current_ctx_reports_the_open_stack() {
        let s = ticking();
        assert!(s.current_ctx().is_none());
        let a = s.open("kernel", "pass_commit");
        let ctx = s.current_ctx().unwrap();
        assert_eq!(ctx.span, SpanId(1));
        assert_eq!(ctx.parent, None);
        assert_eq!(ctx.trace, None);
        let batch = TraceId((1 << 63) | 3);
        s.bind_trace(batch);
        let b = s.open("dpapi", "dp_commit");
        let ctx = s.current_ctx().unwrap();
        assert_eq!(ctx.span, SpanId(2));
        assert_eq!(ctx.parent, Some(SpanId(1)));
        assert_eq!(ctx.trace, Some(batch));
        s.close(b);
        s.close(a);
        assert!(s.current_ctx().is_none());
    }

    #[test]
    fn layer_latency_attributes_self_time() {
        // kernel [0,100); dpapi [10,90) nested → kernel self 20,
        // dpapi self 80.
        let t = Rc::new(Cell::new(0));
        let t2 = t.clone();
        let s = Scope::enabled(move || t2.get());
        let a = s.open("kernel", "pass_commit");
        t.set(10);
        let b = s.open("dpapi", "dp_commit");
        t.set(90);
        s.close(b);
        t.set(100);
        s.close(a);
        let lat = s.snapshot().layer_latency();
        let kernel = lat.iter().find(|l| l.layer == "kernel").unwrap();
        let dpapi = lat.iter().find(|l| l.layer == "dpapi").unwrap();
        assert_eq!(kernel.total_ns, 100);
        assert_eq!(kernel.self_ns, 20);
        assert_eq!(dpapi.self_ns, 80);
        // The table renders and mentions both layers.
        let table = s.snapshot().render_latency_table();
        assert!(table.contains("kernel") && table.contains("dpapi"));
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let s = ticking();
        let a = s.open("kernel", "x");
        s.close(a);
        let mut t = s.snapshot();
        t.spans[0].parent = Some(SpanId(5));
        assert!(t.validate().is_err());
        let mut t2 = s.snapshot();
        t2.spans[0].end_ns = None;
        assert!(t2.validate().is_err());
    }

    // ------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------

    #[test]
    fn ring_evicts_whole_completed_trees_oldest_first() {
        let s = ticking_recorder(RecorderConfig {
            capacity: 6,
            ..RecorderConfig::default()
        });
        // Five 2-span synthetic trees; capacity holds three.
        for _ in 0..5 {
            let a = s.open("kernel", "outer");
            let b = s.open("dpapi", "inner");
            s.close(b);
            s.close(a);
        }
        let st = s.recorder_stats();
        assert_eq!(st.trees_evicted, 2);
        assert_eq!(st.trees_retained, 3);
        assert_eq!(st.spans_live, 6);
        assert!(st.spans_high_water <= 6);
        assert_eq!(st.spans_shed, 0);
        let t = s.snapshot();
        t.validate().unwrap();
        // The three *newest* trees survive (synthetic ids 3, 4, 5);
        // evicted traces have no spans left at all.
        let traces = t.traces();
        assert_eq!(traces.len(), 3);
        for (i, tr) in traces.iter().enumerate() {
            assert_eq!(tr.0, TraceId::SYNTHETIC_BIT | (3 + i as u64));
            assert!(t.is_connected_tree(*tr));
            assert_eq!(t.spans_of(*tr).len(), 2);
        }
        assert!(t.spans_of(TraceId(TraceId::SYNTHETIC_BIT | 1)).is_empty());
        // Sparse ids still attribute latency and render.
        assert!(!t.layer_latency().is_empty());
        assert!(!t.render_latency_table().is_empty());
    }

    #[test]
    fn live_spans_never_torn_but_shed_at_capacity() {
        let s = ticking_recorder(RecorderConfig {
            capacity: 2,
            ..RecorderConfig::default()
        });
        let a = s.open("kernel", "outer");
        let b = s.open("dpapi", "mid");
        // Both live spans belong to an incomplete tree: nothing is
        // evictable, so the third open sheds instead of tearing.
        let c = s.open("lasagna", "inner");
        assert_eq!(c, SpanHandle::NONE);
        assert_eq!(s.recorder_stats().spans_shed, 1);
        s.close(c);
        s.close(b);
        s.close(a);
        let st = s.recorder_stats();
        assert_eq!(st.spans_live, 2);
        assert!(st.spans_high_water <= 2);
        let t = s.snapshot();
        t.validate().unwrap();
        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        assert!(t.is_connected_tree(traces[0]));
    }

    #[test]
    fn head_sampling_is_deterministic_on_the_trace_id() {
        let cfg = RecorderConfig {
            sample_per_million: 500_000,
            seed: 7,
            ..RecorderConfig::default()
        };
        let run = || {
            let s = ticking_recorder(cfg);
            for i in 0..32u64 {
                let a = s.open("kernel", "pass_commit");
                s.bind_trace(TraceId((1 << 63) | i));
                s.close(a);
            }
            s.snapshot().traces()
        };
        let kept1 = run();
        let kept2 = run();
        assert_eq!(kept1, kept2, "same seed must keep the same trace set");
        assert!(!kept1.is_empty() && kept1.len() < 32, "sampling must bite");
        for i in 0..32u64 {
            let t = TraceId((1 << 63) | i);
            assert_eq!(kept1.contains(&t), cfg.samples(t));
        }
        // A different seed keeps a different (still deterministic) set.
        let other = RecorderConfig { seed: 8, ..cfg };
        assert!((0..32u64).any(|i| {
            let t = TraceId((1 << 63) | i);
            cfg.samples(t) != other.samples(t)
        }));
    }

    #[test]
    fn slow_trees_are_pinned_regardless_of_sampling() {
        let s = ticking_recorder(RecorderConfig {
            sample_per_million: 0,
            slow_threshold_ns: 25,
            ..RecorderConfig::default()
        });
        // Tree 1: root spans ticks 0..30 → duration 30 ≥ 25 → slow.
        let a = s.open("kernel", "pass_commit");
        let b = s.open("dpapi", "dp_commit");
        s.close(b);
        s.close(a);
        // Tree 2: single span, duration 10 → sampled out (rate 0).
        let c = s.open("kernel", "read");
        s.close(c);
        let st = s.recorder_stats();
        assert_eq!(st.slow_trees, 1);
        assert_eq!(st.trees_retained, 0);
        assert_eq!(st.trees_sampled_out, 1);
        assert_eq!(st.spans_live, 2);
        let slow = s.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].root_layer, "kernel");
        assert_eq!(slow[0].root_name, "pass_commit");
        assert_eq!(slow[0].duration_ns, 30);
        assert_eq!(slow[0].spans, 2);
        let t = s.snapshot();
        t.validate().unwrap();
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn completed_tree_revives_on_linked_rejoin() {
        let s = ticking_recorder(RecorderConfig {
            capacity: 16,
            ..RecorderConfig::default()
        });
        let batch = TraceId((1 << 63) | 5);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        assert_eq!(s.recorder_stats().trees_retained, 1);
        // The asynchronous ingest revives the completed tree…
        let w = s.open_linked("waldo", "ingest_batch", batch);
        let st = s.recorder_stats();
        assert_eq!(st.trees_retained, 0);
        assert_eq!(st.spans_live, 2);
        // …and completion re-retains it, one tree, still connected.
        s.close(w);
        assert_eq!(s.recorder_stats().trees_retained, 1);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans_of(batch).len(), 2);
    }

    #[test]
    fn recorder_metrics_export_as_gauges() {
        let s = ticking_recorder(RecorderConfig {
            capacity: 2,
            ..RecorderConfig::default()
        });
        for _ in 0..3 {
            let a = s.open("kernel", "x");
            s.close(a);
        }
        let mut reg = crate::metrics::Registry::new();
        s.export_metrics(&mut reg);
        assert_eq!(reg.gauge("provscope.spans_live"), 2);
        let hw = reg.gauge("provscope.spans_high_water");
        assert!(hw > 0 && hw <= 2);
        assert_eq!(reg.gauge("provscope.trees_evicted"), 1);
    }
}
