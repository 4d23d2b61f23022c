//! Backpressure over a **live machine**: the sluice's unit tests
//! exercise it against a mock layer; these drive it through `libpass`
//! into a real PASS volume, so inline drains really commit and refused
//! submissions really leave no trace in the store.
//!
//! Everything here is deterministic — the typed [`RejectReason`]
//! payloads are asserted exactly, not pattern-matched loosely.

use dpapi::{Attribute, Bundle, DpapiError, Handle, ProvenanceRecord, RejectReason, Value};
use passv2::{LibPass, System};
use sim_os::proc::Pid;
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig};

struct Fixture {
    sys: System,
    pid: Pid,
    app: Handle,
}

fn fixture() -> Fixture {
    let mut sys = System::single_volume();
    let pid = sys.spawn("app");
    let app = sys.kernel.pass_mkobj(pid, None).unwrap();
    Fixture { sys, pid, app }
}

/// One single-op disclosure transaction carrying `bytes` of payload
/// via a write-op record (payload bytes are what the byte budgets
/// meter).
fn one_op_txn(app: Handle, bytes: usize) -> dpapi::Txn {
    let mut txn = dpapi::Txn::new();
    if bytes == 0 {
        txn.disclose(
            app,
            Bundle::single(
                app,
                ProvenanceRecord::new(Attribute::Other("TICK".into()), Value::Int(1)),
            ),
        );
    } else {
        txn.write(app, 0, vec![b'x'; bytes], Bundle::new());
    }
    txn
}

/// Block policy: submissions past the budget never error — they drain
/// frames inline into the live volume, keeping queue memory bounded,
/// and every ticket still resolves.
#[test]
fn block_policy_drains_inline_and_loses_nothing() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 2,
        coalesce_ops: 100,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let client = ClientId(3);
    let mut tickets = Vec::new();
    for _ in 0..5 {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        tickets.push(
            pipe.submit(&mut layer, client, one_op_txn(fx.app, 0))
                .unwrap(),
        );
        assert!(pipe.queue_depth() <= 2, "budget held while blocking");
    }
    let stats = pipe.stats();
    assert_eq!(stats.admitted, 5);
    assert!(
        stats.blocked_submits > 0,
        "submissions past the budget drained inline: {stats:?}"
    );
    let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
    pipe.drain(&mut layer);
    for t in tickets {
        let results = pipe.take(t).expect("resolved").expect("committed");
        assert_eq!(results.len(), 1);
    }
}

/// A transaction larger than the whole queue budget can never fit:
/// refused under Block, instead of blocking forever — for the op
/// budget and for the byte budget, each with its exact payload.
#[test]
fn oversized_txn_is_rejected_under_block() {
    let mut fx = fixture();
    let mut big_ops = dpapi::Txn::new();
    for _ in 0..3 {
        big_ops.disclose(
            fx.app,
            Bundle::single(
                fx.app,
                ProvenanceRecord::new(Attribute::Other("BIG".into()), Value::Int(0)),
            ),
        );
    }
    let cases = [
        (
            SluiceConfig {
                max_queued_ops: 2,
                ..SluiceConfig::default()
            },
            big_ops,
            RejectReason::QueueFullOps {
                queued: 0,
                limit: 2,
            },
        ),
        (
            SluiceConfig {
                max_queued_bytes: 100,
                ..SluiceConfig::default()
            },
            one_op_txn(fx.app, 101),
            RejectReason::QueueFullBytes {
                queued: 0,
                limit: 100,
            },
        ),
    ];
    for (cfg, txn, reason) in cases {
        let mut pipe = Sluice::new(SluiceConfig {
            policy: BackpressurePolicy::Block,
            ..cfg
        });
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        let err = pipe.submit(&mut layer, ClientId(0), txn).unwrap_err();
        assert_eq!(err, DpapiError::Rejected(reason));
        assert_eq!(pipe.queue_depth(), 0, "a refused txn is never enqueued");
    }
}
