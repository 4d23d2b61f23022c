//! Wall-clock tracing from outside the stack.
//!
//! The stack's own provscope spans run on the virtual clock, so the
//! benchmark measures layers through their seams instead: shims that
//! implement a layer's public trait, time the call, and forward it
//! unchanged ([`FsShim`] for `sim_os::fs::FileSystem` + `DpapiVolume`,
//! [`DpapiShim`] for `dpapi::Dpapi`, [`GraphShim`] for
//! `pql::GraphSource`), plus [`Probe::span`] around direct calls. A
//! layer's *self time* is the time inside its spans minus the time
//! inside the spans beneath them, accumulated as spans close; the
//! first [`MAX_EXPORTED_SPANS`] spans are also kept and written out as
//! a Chrome trace through provscope's exporter.
//!
//! Shims observe and never participate: the traced pass must leave a
//! store byte-equal to the untraced one (checked by every workload).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use dpapi::{
    Bundle, Dpapi, Handle, ObjectRef, OpResult, Pnode, ReadResult, Txn, Value, Version, VolumeId,
    WriteResult,
};
use pql::{AttrLookup, AttrPredicate, EdgeLabel, GraphSource};
use sim_os::fs::{DirEntry, DpapiVolume, FileAttr, FileSystem, FsResult, FsUsage, Ino};

/// Spans kept for the Chrome export; self times cover every span.
pub const MAX_EXPORTED_SPANS: usize = 1 << 16;

/// The layers wall time is attributed to. Names are crate / module
/// names; `core` is `crates/core` (kernel syscall entry + PASS
/// module, inseparable from outside).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The benchmark itself: generation, bookkeeping, checks.
    Ledger,
    Dpapi,
    Sluice,
    Core,
    PaNfs,
    Lasagna,
    SimOs,
    Daemon,
    Graph,
    /// `pql::plan::execute`, minus the store beneath it.
    Pql,
    /// `pql::parse`.
    PqlParse,
}

pub const LAYERS: [Layer; 11] = [
    Layer::Ledger,
    Layer::Dpapi,
    Layer::Sluice,
    Layer::Core,
    Layer::PaNfs,
    Layer::Lasagna,
    Layer::SimOs,
    Layer::Daemon,
    Layer::Graph,
    Layer::Pql,
    Layer::PqlParse,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ledger => "ledger",
            Layer::Dpapi => "dpapi",
            Layer::Sluice => "sluice",
            Layer::Core => "core",
            Layer::PaNfs => "pa-nfs",
            Layer::Lasagna => "lasagna",
            Layer::SimOs => "sim-os",
            Layer::Daemon => "waldo.daemon",
            Layer::Graph => "waldo.graph",
            Layer::Pql => "pql",
            Layer::PqlParse => "pql.parse",
        }
    }
}

struct Frame {
    layer: Layer,
    start: u64,
    child_ns: u64,
    /// Index into `spans` when this span is kept for export.
    kept: Option<u32>,
}

struct RawSpan {
    layer: Layer,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    batch: u32,
}

struct State {
    /// Spans are recorded only inside a timed stage: set-up, reference
    /// reads and answer checks go through the same shims and must not
    /// count towards any layer.
    live: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    self_ns: [u64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
    spans: Vec<RawSpan>,
    batch: u32,
}

/// The in-memory span recorder of one traced pass.
pub struct Tracer(RefCell<State>);

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer(RefCell::new(State {
            live: false,
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            self_ns: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            spans: Vec::new(),
            batch: 0,
        })))
    }

    pub fn enter(&self, layer: Layer, name: &'static str) {
        let mut st = self.0.borrow_mut();
        if !st.live {
            return;
        }
        let start = st.epoch.elapsed().as_nanos() as u64;
        let kept = (st.spans.len() < MAX_EXPORTED_SPANS).then(|| {
            let parent = st.stack.iter().rev().find_map(|f| f.kept);
            let batch = st.batch;
            st.spans.push(RawSpan {
                layer,
                name,
                start,
                end: start,
                parent,
                batch,
            });
            (st.spans.len() - 1) as u32
        });
        st.stack.push(Frame {
            layer,
            start,
            child_ns: 0,
            kept,
        });
    }

    pub fn exit(&self) {
        let mut st = self.0.borrow_mut();
        if !st.live {
            return;
        }
        let end = st.epoch.elapsed().as_nanos() as u64;
        let f = st.stack.pop().expect("exit without enter");
        let dur = end - f.start;
        st.self_ns[f.layer as usize] += dur.saturating_sub(f.child_ns);
        st.calls[f.layer as usize] += 1;
        if let Some(i) = f.kept {
            st.spans[i as usize].end = end;
        }
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Opens or closes a timed stage. Stages begin and end outside any
    /// span, so enters and exits stay paired.
    fn set_live(&self, live: bool) {
        let mut st = self.0.borrow_mut();
        assert!(st.stack.is_empty(), "a stage boundary inside an open span");
        st.live = live;
    }

    /// Tags the spans that follow with the round (batch) they serve.
    pub fn set_batch(&self, batch: u32) {
        self.0.borrow_mut().batch = batch;
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.0.borrow().self_ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.0.borrow().calls[layer as usize]
    }

    /// The kept spans as a provscope trace: one trace per batch id,
    /// so its self-time table and Chrome exporter apply as they are.
    pub fn to_trace(&self) -> provscope::Trace {
        let st = self.0.borrow();
        let spans = st
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| provscope::Span {
                id: provscope::SpanId(i as u64 + 1),
                parent: s.parent.map(|p| provscope::SpanId(p as u64 + 1)),
                trace: Some(provscope::TraceId(
                    provscope::TraceId::SYNTHETIC_BIT | s.batch as u64,
                )),
                layer: s.layer.name(),
                name: s.name.to_string(),
                start_ns: s.start,
                end_ns: Some(s.end),
            })
            .collect();
        provscope::Trace { spans }
    }
}

/// What the workloads hold: a tracer when the pass is traced, nothing
/// otherwise. Untraced passes pay one branch per probe point and run
/// on the bare stack — no shim is installed at all.
#[derive(Clone, Default)]
pub struct Probe(Option<Rc<Tracer>>);

impl Probe {
    pub fn off() -> Probe {
        Probe(None)
    }

    pub fn on() -> Probe {
        Probe(Some(Tracer::new()))
    }

    pub fn tracer(&self) -> Option<&Rc<Tracer>> {
        self.0.as_ref()
    }

    /// Runs `f` as a timed stage: the stopwatch of every pass, and on a
    /// traced pass the only time spans are recorded. Returns `f`'s
    /// result and the elapsed seconds.
    pub fn stage<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        if let Some(t) = &self.0 {
            t.set_live(true);
        }
        let started = Instant::now();
        let out = f();
        let s = started.elapsed().as_secs_f64();
        if let Some(t) = &self.0 {
            t.set_live(false);
        }
        (out, s)
    }

    pub fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(t) => {
                t.enter(layer, name);
                let out = f();
                t.exit();
                out
            }
        }
    }

    pub fn set_batch(&self, batch: u32) {
        if let Some(t) = &self.0 {
            t.set_batch(batch);
        }
    }

    /// Mounts `fs` as it is, or behind a timing shim when traced. The
    /// tap reaches the wrapped layer's own counters after it has been
    /// boxed away into a kernel or a server.
    pub fn wrap_fs<T: FileSystem + 'static>(
        &self,
        layer: Layer,
        fs: T,
    ) -> (Box<dyn FileSystem>, Option<Tap<T>>) {
        match &self.0 {
            None => (Box::new(fs), None),
            Some(t) => {
                let tap = Tap {
                    fs: Rc::new(RefCell::new(fs)),
                    fsyncs: Rc::default(),
                };
                let shim = FsShim {
                    inner: tap.fs.clone(),
                    fsyncs: tap.fsyncs.clone(),
                    layer,
                    tracer: t.clone(),
                };
                (Box::new(shim), Some(tap))
            }
        }
    }
}

/// What stays outside when a file system goes behind a shim: the file
/// system itself, and how often it was asked to `fsync`.
pub struct Tap<T> {
    pub fs: Rc<RefCell<T>>,
    pub fsyncs: Rc<Cell<u64>>,
}

/// Times every `FileSystem` / `DpapiVolume` / `Dpapi` call into the
/// wrapped file system and forwards it unchanged. Every method —
/// provided ones too — forwards to the wrapped implementation, so a
/// layer's own overrides (Lasagna's zero-copy `pass_write`) still run.
pub struct FsShim<T: FileSystem> {
    inner: Rc<RefCell<T>>,
    fsyncs: Rc<Cell<u64>>,
    layer: Layer,
    tracer: Rc<Tracer>,
}

impl<T: FileSystem> FsShim<T> {
    fn timed<R>(&self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        self.tracer.enter(self.layer, name);
        let out = f(&mut self.inner.borrow_mut());
        self.tracer.exit();
        out
    }

    fn timed_vol<R>(&self, name: &'static str, f: impl FnOnce(&mut dyn DpapiVolume) -> R) -> R {
        self.timed(name, |fs| {
            f(fs.as_dpapi()
                .expect("DPAPI call on a volume that exported none"))
        })
    }
}

impl<T: FileSystem> FileSystem for FsShim<T> {
    fn root(&self) -> Ino {
        self.inner.borrow().root()
    }
    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.timed("lookup", |fs| fs.lookup(dir, name))
    }
    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.timed("create", |fs| fs.create(dir, name))
    }
    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.timed("mkdir", |fs| fs.mkdir(dir, name))
    }
    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        self.timed("unlink", |fs| fs.unlink(dir, name))
    }
    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        self.timed("rename", |fs| fs.rename(from, name, to, to_name))
    }
    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.timed("read", |fs| fs.read(ino, offset, len))
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.timed("write", |fs| fs.write(ino, offset, data))
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.timed("truncate", |fs| fs.truncate(ino, size))
    }
    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        self.timed("getattr", |fs| fs.getattr(ino))
    }
    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        self.timed("readdir", |fs| fs.readdir(dir))
    }
    fn sync(&mut self) -> FsResult<()> {
        self.timed("sync", |fs| fs.sync())
    }
    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        self.fsyncs.set(self.fsyncs.get() + 1);
        self.timed("fsync", |fs| fs.fsync(ino))
    }
    fn close_hint(&mut self, ino: Ino) -> FsResult<()> {
        self.timed("close_hint", |fs| fs.close_hint(ino))
    }
    fn usage(&self) -> FsUsage {
        self.inner.borrow().usage()
    }
    fn as_dpapi(&mut self) -> Option<&mut dyn DpapiVolume> {
        let exports = self.inner.borrow_mut().as_dpapi().is_some();
        if exports {
            Some(self)
        } else {
            None
        }
    }
}

impl<T: FileSystem> Dpapi for FsShim<T> {
    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        self.timed_vol("pass_read", |v| v.pass_read(h, offset, len))
    }
    fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        self.timed_vol("pass_commit", |v| v.pass_commit(txn))
    }
    fn pass_write(
        &mut self,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> dpapi::Result<WriteResult> {
        self.timed_vol("pass_write", |v| v.pass_write(h, offset, data, bundle))
    }
    fn pass_freeze(&mut self, h: Handle) -> dpapi::Result<Version> {
        self.timed_vol("pass_freeze", |v| v.pass_freeze(h))
    }
    fn pass_mkobj(&mut self, volume_hint: Option<VolumeId>) -> dpapi::Result<Handle> {
        self.timed_vol("pass_mkobj", |v| v.pass_mkobj(volume_hint))
    }
    fn pass_reviveobj(&mut self, pnode: Pnode, version: Version) -> dpapi::Result<Handle> {
        self.timed_vol("pass_reviveobj", |v| v.pass_reviveobj(pnode, version))
    }
    fn pass_sync(&mut self, h: Handle) -> dpapi::Result<()> {
        self.timed_vol("pass_sync", |v| v.pass_sync(h))
    }
    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        self.timed_vol("pass_close", |v| v.pass_close(h))
    }
}

impl<T: FileSystem> DpapiVolume for FsShim<T> {
    fn volume(&self) -> VolumeId {
        self.inner
            .borrow_mut()
            .as_dpapi()
            .expect("volume id of a volume that exported no DPAPI")
            .volume()
    }
    fn handle_for_ino(&mut self, ino: Ino) -> dpapi::Result<Handle> {
        self.timed_vol("handle_for_ino", |v| v.handle_for_ino(ino))
    }
    fn identity_of_ino(&mut self, ino: Ino) -> dpapi::Result<ObjectRef> {
        self.timed_vol("identity_of_ino", |v| v.identity_of_ino(ino))
    }
    fn disclose(&mut self, h: Handle, bundle: Bundle) -> dpapi::Result<WriteResult> {
        self.timed_vol("disclose", |v| v.disclose(h, bundle))
    }
    fn take_log_rotations(&mut self) -> Vec<String> {
        self.timed_vol("take_log_rotations", |v| v.take_log_rotations())
    }
    fn force_log_rotation(&mut self) {
        self.timed_vol("force_log_rotation", |v| v.force_log_rotation())
    }
    fn set_scope(&mut self, scope: provscope::Scope) {
        self.timed_vol("set_scope", |v| v.set_scope(scope))
    }
}

/// Times the `Dpapi` seam between the sluice and libpass.
pub struct DpapiShim<'a, D: Dpapi> {
    pub inner: D,
    pub tracer: &'a Tracer,
}

impl<D: Dpapi> DpapiShim<'_, D> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        self.tracer.enter(Layer::Core, name);
        let out = f(&mut self.inner);
        self.tracer.exit();
        out
    }
}

impl<D: Dpapi> Dpapi for DpapiShim<'_, D> {
    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        self.timed("pass_read", |d| d.pass_read(h, offset, len))
    }
    fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        self.timed("pass_commit", |d| d.pass_commit(txn))
    }
    fn pass_write(
        &mut self,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> dpapi::Result<WriteResult> {
        self.timed("pass_write", |d| d.pass_write(h, offset, data, bundle))
    }
    fn pass_freeze(&mut self, h: Handle) -> dpapi::Result<Version> {
        self.timed("pass_freeze", |d| d.pass_freeze(h))
    }
    fn pass_mkobj(&mut self, volume_hint: Option<VolumeId>) -> dpapi::Result<Handle> {
        self.timed("pass_mkobj", |d| d.pass_mkobj(volume_hint))
    }
    fn pass_reviveobj(&mut self, pnode: Pnode, version: Version) -> dpapi::Result<Handle> {
        self.timed("pass_reviveobj", |d| d.pass_reviveobj(pnode, version))
    }
    fn pass_sync(&mut self, h: Handle) -> dpapi::Result<()> {
        self.timed("pass_sync", |d| d.pass_sync(h))
    }
    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        self.timed("pass_close", |d| d.pass_close(h))
    }
}

/// Times the `GraphSource` seam between the PQL executor and the
/// store. Forwards the overridable methods too, so the store's cached
/// closure and index-backed lookup keep serving the query.
pub struct GraphShim<'a> {
    pub inner: &'a dyn GraphSource,
    pub tracer: &'a Tracer,
}

impl GraphShim<'_> {
    fn timed<R>(&self, name: &'static str, f: impl FnOnce(&dyn GraphSource) -> R) -> R {
        self.tracer.enter(Layer::Graph, name);
        let out = f(self.inner);
        self.tracer.exit();
        out
    }
}

impl GraphSource for GraphShim<'_> {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        self.timed("class_members", |g| g.class_members(class))
    }
    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        self.timed("attr", |g| g.attr(node, name))
    }
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.timed("out_edges", |g| g.out_edges(node, label))
    }
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.timed("in_edges", |g| g.in_edges(node, label))
    }
    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        self.timed("closure", |g| g.closure(node, label, inverse))
    }
    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        self.timed("lookup_attr", |g| g.lookup_attr(class, attr, pred))
    }
    fn class_size(&self, class: &str) -> Option<usize> {
        self.timed("class_size", |g| g.class_size(class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_agrees_with_provscope() {
        let probe = Probe::on();
        probe.span(Layer::Sluice, "set-up", || spin(1_000));
        probe.stage(|| {
            probe.span(Layer::Sluice, "outer", || {
                spin(200_000);
                probe.span(Layer::Core, "inner", || spin(300_000));
            })
        });
        let t = probe.tracer().unwrap();
        let (outer, inner) = (t.self_ns(Layer::Sluice), t.self_ns(Layer::Core));
        assert!(inner >= 300_000 && outer >= 200_000, "{outer} {inner}");
        assert!(
            outer < 300_000 + 200_000,
            "child time leaked into the parent: {outer}"
        );
        // The exported trace carries the same attribution through
        // provscope's own self-time table.
        let trace = t.to_trace();
        trace.validate().unwrap();
        for l in trace.layer_latency() {
            let layer = LAYERS.iter().find(|x| x.name() == l.layer).unwrap();
            assert_eq!(l.self_ns, t.self_ns(*layer));
        }
        let json = provscope::chrome_trace_json(&trace);
        assert_eq!(provscope::parse_chrome_trace(&json).unwrap().len(), 2);
    }

    #[test]
    fn an_untraced_probe_installs_no_shim() {
        let probe = Probe::off();
        let clock = sim_os::clock::Clock::new();
        let base = sim_os::fs::basefs::BaseFs::new(clock, sim_os::cost::CostModel::default());
        let (_, handle) = probe.wrap_fs(Layer::SimOs, base);
        assert!(handle.is_none());
        assert_eq!(probe.span(Layer::Ledger, "x", || 7), 7);
    }
}
