//! Unit tests against a counting stub substrate. The real-substrate
//! coverage (byte-equality to the synchronous path, backpressure over
//! a live system) lives in `tests/`.

use super::*;
use dpapi::{Bundle, Handle, ObjectRef, Pnode, ReadResult, Version, VolumeId, WriteResult};

/// A substrate that counts commits and can be poisoned: a commit
/// whose op vector names the poison handle aborts at that op's index
/// (validate-all-first, like the real layers).
#[derive(Default)]
struct StubLayer {
    commits: usize,
    committed_ops: usize,
    poison: Option<Handle>,
}

impl StubLayer {
    fn op_handle(op: &DpapiOp) -> Option<Handle> {
        match op {
            DpapiOp::Write { handle, .. }
            | DpapiOp::Freeze { handle }
            | DpapiOp::Sync { handle } => Some(*handle),
            _ => None,
        }
    }
}

impl Dpapi for StubLayer {
    fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        self.commits += 1;
        let ops = txn.into_ops();
        if let Some(poison) = self.poison {
            if let Some(i) = ops
                .iter()
                .position(|op| Self::op_handle(op) == Some(poison))
            {
                return Err(DpapiError::aborted_at(i, DpapiError::InvalidHandle));
            }
        }
        self.committed_ops += ops.len();
        Ok(ops
            .into_iter()
            .map(|op| match op {
                DpapiOp::Write { handle, data, .. } => OpResult::Written(WriteResult {
                    written: data.len(),
                    identity: ObjectRef::new(Pnode::new(VolumeId(1), handle.raw()), Version(0)),
                }),
                DpapiOp::Mkobj { .. } => OpResult::Made(Handle::from_raw(99)),
                DpapiOp::Freeze { .. } => OpResult::Frozen(Version(1)),
                DpapiOp::Revive { .. } => OpResult::Revived(Handle::from_raw(98)),
                DpapiOp::Sync { .. } => OpResult::Synced,
            })
            .collect())
    }

    fn pass_read(&mut self, _h: Handle, _o: u64, _l: usize) -> dpapi::Result<ReadResult> {
        Err(DpapiError::Unsupported("stub read"))
    }

    fn pass_close(&mut self, _h: Handle) -> dpapi::Result<()> {
        Ok(())
    }
}

fn write_txn(h: u64, nbytes: usize) -> Txn {
    let mut txn = Txn::new();
    txn.write(Handle::from_raw(h), 0, vec![0xab; nbytes], Bundle::new());
    txn
}

const C: ClientId = ClientId(7);

#[test]
fn coalescing_amortizes_commits_and_slices_results() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig {
        coalesce_ops: 32,
        ..SluiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| s.submit(&mut layer, C, write_txn(i, 4)).unwrap())
        .collect();
    assert_eq!(s.queue_depth(), 8);
    assert_eq!(layer.commits, 0, "submit must stay off the commit path");
    assert!(tickets
        .iter()
        .all(|t| s.poll(*t) == Some(TicketStatus::Pending)));

    let frames = s.drain(&mut layer);
    assert_eq!(frames, 1, "8 one-op txns coalesce into one frame");
    assert_eq!(layer.commits, 1);
    assert_eq!(layer.committed_ops, 8);
    for t in &tickets {
        assert_eq!(s.poll(*t), Some(TicketStatus::Done));
        let results = s.take(*t).unwrap().unwrap();
        assert_eq!(results.len(), 1, "each ticket gets exactly its own ops");
        assert_eq!(results[0].as_written().unwrap().written, 4);
        assert_eq!(s.poll(*t), None, "take consumes the completion");
    }
    let st = s.stats();
    assert_eq!((st.frames, st.frame_txns, st.frame_ops), (1, 8, 8));
    assert_eq!(st.completed, 8);
}

#[test]
fn coalesce_ceiling_splits_frames_without_splitting_txns() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig {
        coalesce_ops: 4,
        ..SluiceConfig::default()
    });
    // Three 3-op txns: frames must be [txn0], [txn1], [txn2] — a
    // 4-op ceiling fits one 3-op txn but not two, and txns never split.
    for i in 0..3 {
        let mut txn = Txn::new();
        for j in 0..3 {
            txn.sync(Handle::from_raw(i * 3 + j));
        }
        s.submit(&mut layer, C, txn).unwrap();
    }
    assert_eq!(s.drain(&mut layer), 3);
    assert_eq!(layer.commits, 3);
    assert_eq!(layer.committed_ops, 9);

    // A single txn larger than the ceiling still commits whole.
    let mut big = Txn::new();
    for j in 0..6 {
        big.sync(Handle::from_raw(100 + j));
    }
    let t = s.submit(&mut layer, C, big).unwrap();
    assert_eq!(s.drain(&mut layer), 1);
    assert_eq!(s.take(t).unwrap().unwrap().len(), 6);
}

#[test]
fn block_policy_drains_inline_and_never_errors() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig {
        max_queued_ops: 2,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let t1 = s.submit(&mut layer, C, write_txn(1, 1)).unwrap();
    let t2 = s.submit(&mut layer, C, write_txn(2, 1)).unwrap();
    // Queue full: this submission drains inline to make room.
    let t3 = s.submit(&mut layer, C, write_txn(3, 1)).unwrap();
    assert!(layer.commits >= 1, "blocked submit paid for a drain");
    assert_eq!(s.poll(t1), Some(TicketStatus::Done));
    assert_eq!(s.poll(t2), Some(TicketStatus::Done));
    assert_eq!(s.poll(t3), Some(TicketStatus::Pending));
    assert_eq!(s.stats().blocked_submits, 1);
    s.drain(&mut layer);
    assert!(s.take(t3).unwrap().is_ok());
}

/// A transaction with more ops than the whole budget is refused, not
/// blocked on. (The name predates `Block` becoming the only policy.)
#[test]
fn oversized_txn_is_rejected_under_both_policies() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig {
        max_queued_ops: 2,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let mut txn = Txn::new();
    for j in 0..3 {
        txn.sync(Handle::from_raw(j));
    }
    let err = s.submit(&mut layer, C, txn).unwrap_err();
    assert_eq!(
        err,
        DpapiError::Rejected(RejectReason::QueueFullOps {
            queued: 0,
            limit: 2
        }),
        "a txn that can never fit must not block forever"
    );
    assert_eq!(layer.commits, 0);
}

#[test]
fn aborted_frame_splits_so_innocent_txns_still_commit() {
    let mut layer = StubLayer {
        poison: Some(Handle::from_raw(666)),
        ..StubLayer::default()
    };
    let mut s = Sluice::new(SluiceConfig::default());
    let good1 = s.submit(&mut layer, C, write_txn(1, 4)).unwrap();
    let bad = s.submit(&mut layer, C, write_txn(666, 4)).unwrap();
    let good2 = s.submit(&mut layer, C, write_txn(2, 4)).unwrap();
    s.drain(&mut layer);
    // Merged commit aborted; fallback committed each txn individually.
    assert_eq!(layer.commits, 1 + 3);
    assert!(s.take(good1).unwrap().is_ok());
    assert!(s.take(good2).unwrap().is_ok());
    let err = s.take(bad).unwrap().unwrap_err();
    assert_eq!(err, DpapiError::aborted_at(0, DpapiError::InvalidHandle));
    let st = s.stats();
    assert_eq!((st.aborted_frames, st.split_commits), (1, 3));
    assert_eq!((st.completed, st.failed), (2, 1));
}

#[test]
fn single_txn_frame_abort_fails_directly_without_split() {
    let mut layer = StubLayer {
        poison: Some(Handle::from_raw(666)),
        ..StubLayer::default()
    };
    let mut s = Sluice::new(SluiceConfig::default());
    let bad = s.submit(&mut layer, C, write_txn(666, 4)).unwrap();
    s.drain(&mut layer);
    assert_eq!(layer.commits, 1);
    assert_eq!(s.poll(bad), Some(TicketStatus::Failed));
    assert!(s.take(bad).unwrap().is_err());
    assert_eq!(s.stats().split_commits, 0);
}

#[test]
fn empty_txn_completes_immediately() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig::default());
    let t = s.submit(&mut layer, C, Txn::new()).unwrap();
    assert_eq!(s.poll(t), Some(TicketStatus::Done));
    assert_eq!(s.take(t).unwrap().unwrap(), Vec::<OpResult>::new());
    assert_eq!(s.queue_depth(), 0);
    assert_eq!(layer.commits, 0);
}

#[test]
fn wait_drains_to_the_ticket_and_unknown_tickets_error() {
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig::default());
    let t = s.submit(&mut layer, C, write_txn(1, 4)).unwrap();
    let results = s.wait(&mut layer, t).unwrap();
    assert_eq!(results.len(), 1);
    // Taken by wait; waiting again is an error, not a hang.
    assert!(matches!(
        s.wait(&mut layer, t),
        Err(DpapiError::Inconsistent(_))
    ));
}

#[test]
fn fifo_order_is_preserved_across_frames() {
    // Ops arrive at the substrate in submission order even when the
    // coalesce ceiling forces multiple frames.
    #[derive(Default)]
    struct OrderLayer {
        handles: Vec<u64>,
    }
    impl Dpapi for OrderLayer {
        fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
            let ops = txn.into_ops();
            let mut out = Vec::new();
            for op in ops {
                if let DpapiOp::Sync { handle } = op {
                    self.handles.push(handle.raw());
                }
                out.push(OpResult::Synced);
            }
            Ok(out)
        }
        fn pass_read(&mut self, _h: Handle, _o: u64, _l: usize) -> dpapi::Result<ReadResult> {
            Err(DpapiError::Unsupported("stub read"))
        }
        fn pass_close(&mut self, _h: Handle) -> dpapi::Result<()> {
            Ok(())
        }
    }
    let mut layer = OrderLayer::default();
    let mut s = Sluice::new(SluiceConfig {
        coalesce_ops: 3,
        ..SluiceConfig::default()
    });
    for i in 0..10 {
        let mut txn = Txn::new();
        txn.sync(Handle::from_raw(i));
        s.submit(&mut layer, C, txn).unwrap();
    }
    s.drain(&mut layer);
    assert_eq!(layer.handles, (0..10).collect::<Vec<u64>>());
}

#[test]
fn metrics_export_counters_gauges_and_latency() {
    use std::cell::Cell;
    use std::rc::Rc;
    let mut layer = StubLayer::default();
    let mut s = Sluice::new(SluiceConfig::default());
    let clock = Rc::new(Cell::new(100u64));
    let c = Rc::clone(&clock);
    s.set_now(move || c.get());
    s.submit(&mut layer, C, write_txn(1, 16)).unwrap();
    s.submit(&mut layer, C, write_txn(2, 16)).unwrap();
    let mut reg = Registry::new();
    s.export_metrics("sluice.", &mut reg);
    assert_eq!(reg.gauge("sluice.queue.txns"), 2);
    assert_eq!(reg.gauge("sluice.queue.ops"), 2);
    assert_eq!(reg.gauge("sluice.queue.bytes"), 32);
    assert_eq!(reg.counter("sluice.admitted"), 2);

    clock.set(400);
    s.drain(&mut layer);
    assert_eq!(s.latency().count(), 2);
    assert_eq!(s.latency().sum(), 600, "two completions, 300ns each");
    let mut reg = Registry::new();
    s.export_metrics("sluice.", &mut reg);
    assert_eq!(reg.gauge("sluice.queue.txns"), 0);
    assert_eq!(
        reg.gauge("sluice.queue.peak_txns"),
        2,
        "peak survives the drain"
    );
    assert_eq!(reg.counter("sluice.frames"), 1);
    assert_eq!(reg.histogram("sluice.latency_ns").unwrap().count(), 2);
}

#[test]
fn tracing_scope_binds_flush_spans_and_links_tickets() {
    use std::cell::Cell;

    /// A substrate that, like Lasagna, binds a batch trace while
    /// committing.
    struct BindingLayer {
        scope: Scope,
        next_batch: Cell<u64>,
    }
    impl Dpapi for BindingLayer {
        fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
            let b = self.next_batch.get();
            self.next_batch.set(b + 1);
            self.scope.bind_trace(TraceId(b | (1 << 63)));
            Ok(txn.into_ops().iter().map(|_| OpResult::Synced).collect())
        }
        fn pass_read(&mut self, _h: Handle, _o: u64, _l: usize) -> dpapi::Result<ReadResult> {
            Err(DpapiError::Unsupported("stub read"))
        }
        fn pass_close(&mut self, _h: Handle) -> dpapi::Result<()> {
            Ok(())
        }
    }

    let now = Cell::new(0);
    let scope = Scope::enabled(move || {
        now.set(now.get() + 1);
        now.get()
    });
    let mut layer = BindingLayer {
        scope: scope.clone(),
        next_batch: Cell::new(1),
    };
    let mut s = Sluice::new(SluiceConfig::default());
    s.set_scope(scope.clone());
    let mut txn = Txn::new();
    txn.sync(Handle::from_raw(1));
    s.submit(&mut layer, C, txn).unwrap();
    s.drain(&mut layer);

    let trace = scope.snapshot();
    trace.validate().expect("span tree is well-formed");
    let batch = TraceId(1 | (1 << 63));
    let layers = trace.layers_of(batch);
    assert!(
        layers.contains(&"sluice"),
        "flush span joined the batch trace"
    );
    // The ticket span rejoined the same trace via open_linked.
    let names: Vec<&str> = trace
        .spans_of(batch)
        .iter()
        .map(|sp| sp.name.as_str())
        .collect();
    assert!(names.contains(&"flush"));
    assert!(names.contains(&"ticket"));
    assert!(trace.is_connected_tree(batch));
}
