//! The sluice's standing differential oracle over a live machine:
//! committing a script of disclosure transactions synchronously
//! (`pass_commit` per transaction) and pipelining the same script
//! through a [`Sluice`] over libpass — with aggressive coalescing —
//! produce **byte-identical** provenance stores.
//!
//! Checked twice per case: single-daemon ingest, and a 2-member
//! cluster ingest of a two-volume machine (the fan-in tier
//! must see the same logs no matter how the front door framed them).

use dpapi::{Attribute, Bundle, DpapiOp, Handle, ProvenanceRecord, Value, VolumeId};
use passv2::{LibPass, System, SystemBuilder};
use proptest::prelude::*;
use sim_os::cost::CostModel;
use sim_os::proc::Pid;
use sim_os::syscall::OpenFlags;
use sluice::{ClientId, Sluice, SluiceConfig};
use waldo::WaldoConfig;

const FILES: usize = 4;

#[derive(Clone, Debug)]
enum OpSpec {
    FileWrite {
        file: usize,
        data_len: usize,
        nrecs: usize,
        tag: u8,
    },
    AppDisclose {
        tag: u8,
    },
    FreezeFile {
        file: usize,
    },
    SyncApp,
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (0..FILES, 0usize..48, 0usize..3, any::<u8>()).prop_map(|(file, data_len, nrecs, tag)| {
            OpSpec::FileWrite {
                file,
                data_len,
                nrecs,
                tag,
            }
        }),
        any::<u8>().prop_map(|tag| OpSpec::AppDisclose { tag }),
        (0..FILES).prop_map(|file| OpSpec::FreezeFile { file }),
        Just(OpSpec::SyncApp),
    ]
}

/// A script: each element is one submitted transaction (1..=3 ops).
fn arb_script() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..10)
}

struct Fixture {
    sys: System,
    pid: Pid,
    files: Vec<Handle>,
    app: Handle,
}

/// Two calls build byte-identical machines. With `volumes == 2` the
/// files alternate between `/v1` and `/v2`, so transactions span
/// volumes and the cluster's routing is exercised.
fn fixture(volumes: u32) -> Fixture {
    let mut b = SystemBuilder::new(CostModel::default()).waldo_config(WaldoConfig {
        ingest_batch: 1 << 20,
        ..WaldoConfig::default()
    });
    if volumes == 1 {
        b = b.pass_volume("/", VolumeId(1));
    } else {
        for v in 1..=volumes {
            b = b.pass_volume(&format!("/v{v}"), VolumeId(v));
        }
    }
    let mut sys = b.build();
    let pid = sys.spawn("app");
    let mut files = Vec::new();
    for i in 0..FILES {
        let path = if volumes == 1 {
            format!("/f{i}")
        } else {
            format!("/v{}/f{i}", (i as u32 % volumes) + 1)
        };
        sys.kernel.write_file(pid, &path, b"seed").unwrap();
        let fd = sys.kernel.open(pid, &path, OpenFlags::RDWR_CREATE).unwrap();
        files.push(sys.kernel.pass_handle_for_fd(pid, fd).unwrap());
    }
    let app = sys.kernel.pass_mkobj(pid, None).unwrap();
    Fixture {
        sys,
        pid,
        files,
        app,
    }
}

fn build_txn(fx: &Fixture, specs: &[OpSpec]) -> dpapi::Txn {
    let mut txn = dpapi::Txn::new();
    for spec in specs {
        match spec {
            OpSpec::FileWrite {
                file,
                data_len,
                nrecs,
                tag,
            } => {
                let h = fx.files[*file];
                let data = vec![b'a' + (*tag % 26); *data_len];
                let mut bundle = Bundle::new();
                for j in 0..*nrecs {
                    bundle.push(
                        h,
                        ProvenanceRecord::new(
                            Attribute::Other(format!("K{j}")),
                            Value::str(format!("v{tag}")),
                        ),
                    );
                }
                txn.add(DpapiOp::Write {
                    handle: h,
                    offset: 0,
                    data,
                    bundle,
                });
            }
            OpSpec::AppDisclose { tag } => {
                txn.disclose(
                    fx.app,
                    Bundle::single(
                        fx.app,
                        ProvenanceRecord::new(
                            Attribute::Other("PHASE".into()),
                            Value::str(format!("p{tag}")),
                        ),
                    ),
                );
            }
            OpSpec::FreezeFile { file } => {
                txn.freeze(fx.files[*file]);
            }
            OpSpec::SyncApp => {
                txn.sync(fx.app);
            }
        }
    }
    txn
}

/// Single-daemon ingest of everything pending.
fn daemon_images(fx: &mut Fixture) -> Vec<Vec<u8>> {
    let mut waldo = fx.sys.spawn_waldo();
    for (_, logs) in fx.sys.rotate_all_logs() {
        for log in logs {
            waldo.ingest_log_file(&mut fx.sys.kernel, &log);
        }
    }
    waldo.db.segment_images()
}

/// 2-member cluster ingest; returns the merged store images.
fn cluster_images(fx: &mut Fixture) -> Vec<Vec<u8>> {
    fx.sys.rotate_all_logs();
    let mut cluster = fx.sys.spawn_cluster(2);
    let volumes = fx.sys.volumes.clone();
    cluster.poll_volumes(&mut fx.sys.kernel, &volumes);
    cluster.merged_store().segment_images()
}

fn run_sync(script: &[Vec<OpSpec>], volumes: u32) -> Fixture {
    let mut fx = fixture(volumes);
    for specs in script {
        let txn = build_txn(&fx, specs);
        fx.sys.kernel.pass_commit(fx.pid, txn).unwrap();
    }
    fx
}

fn run_pipelined(script: &[Vec<OpSpec>], volumes: u32) -> (Fixture, sluice::SluiceStats) {
    let mut fx = fixture(volumes);
    let mut pipe = Sluice::new(SluiceConfig {
        coalesce_ops: 8,
        ..SluiceConfig::default()
    });
    let mut tickets = Vec::new();
    for specs in script {
        let txn = build_txn(&fx, specs);
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        tickets.push(pipe.submit(&mut layer, ClientId(1), txn).unwrap());
    }
    {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.drain(&mut layer);
    }
    // Every ticket resolved successfully with one result per op.
    for (t, specs) in tickets.into_iter().zip(script) {
        let results = pipe.take(t).expect("resolved").expect("committed");
        assert_eq!(results.len(), specs.len());
    }
    let stats = pipe.stats();
    (fx, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-daemon oracle: the pipelined store is byte-equal to the
    /// synchronous store, while committing in fewer frames.
    #[test]
    fn pipelined_equals_sync_single_daemon(script in arb_script()) {
        let mut sync_fx = run_sync(&script, 1);
        let (mut pipe_fx, stats) = run_pipelined(&script, 1);
        prop_assert_eq!(daemon_images(&mut sync_fx), daemon_images(&mut pipe_fx));
        prop_assert_eq!(stats.admitted, script.len() as u64);
        prop_assert!(stats.frames <= stats.frame_txns);
    }

    /// Cluster oracle: same equality when a 2-member cluster ingests a
    /// two-volume machine.
    #[test]
    fn pipelined_equals_sync_cluster(script in arb_script()) {
        let mut sync_fx = run_sync(&script, 2);
        let (mut pipe_fx, _) = run_pipelined(&script, 2);
        prop_assert_eq!(cluster_images(&mut sync_fx), cluster_images(&mut pipe_fx));
    }
}

/// The fixed sequence kept as a plain test so a regression names
/// itself without proptest shrinking.
#[test]
fn canonical_script_pipelined_equals_sync() {
    let script = vec![
        vec![
            OpSpec::FileWrite {
                file: 0,
                data_len: 16,
                nrecs: 2,
                tag: 3,
            },
            OpSpec::AppDisclose { tag: 7 },
        ],
        vec![OpSpec::FreezeFile { file: 0 }],
        vec![
            OpSpec::FileWrite {
                file: 1,
                data_len: 8,
                nrecs: 0,
                tag: 9,
            },
            OpSpec::SyncApp,
        ],
        vec![OpSpec::FileWrite {
            file: 2,
            data_len: 1,
            nrecs: 1,
            tag: 1,
        }],
    ];
    let mut sync_fx = run_sync(&script, 1);
    let (mut pipe_fx, stats) = run_pipelined(&script, 1);
    assert_eq!(daemon_images(&mut sync_fx), daemon_images(&mut pipe_fx));
    // 7 ops over a coalesce window of 8 and 4 txns: fewer frames than
    // transactions, i.e. the pipeline actually amortized commits.
    assert!(
        stats.frames < stats.frame_txns,
        "expected coalescing: {stats:?}"
    );
}
