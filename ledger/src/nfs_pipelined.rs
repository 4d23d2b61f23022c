//! `nfs_pipelined`: disclosure transactions through the whole front
//! door of the PA-NFS machine — `Sluice` → `LibPass` →
//! `Kernel::pass_commit` → PASS module → `NfsClient` → `NfsServer` →
//! `Lasagna` — then, once per round, the server drains its logs into a
//! memory-only Waldo and four ancestry queries are answered and verified.
//!
//! The front door does most of the work here: the daemon never
//! checkpoints and PQL answers four small queries per round, so a sluice,
//! pa-nfs or lasagna-encode change shows on this workload and on no
//! other.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

use dpapi::{Attribute, Bundle, Handle, ObjectRef, ProvenanceRecord, Txn, Value};
use passv2::LibPass;
use sim_os::proc::Pid;
use sim_os::syscall::OpenFlags;
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig, Ticket};
use waldo::WaldoConfig;

use crate::measure::{ask, ingest_call, Asked, Measured, QueryClass, Scale};
use crate::rig::{nfs_machine, Machine};
use crate::rng::{Digest, Rng};
use crate::trace::{DpapiShim, Layer, Probe};

/// Transactions per round.
const BATCH: usize = 256;
/// Journal files single-record events are disclosed against.
const JOURNALS: usize = 16;
/// Lineage epochs: objects of round `r` draw inputs from earlier
/// rounds of the same epoch only, which bounds every ancestry answer
/// (PQL stays a small share of the round).
const EPOCH_ROUNDS: usize = 8;
/// Ancestry questions asked (and verified) per round.
const QUESTIONS: usize = 4;
/// Rounds per second of budget (bench-host calibration).
const ROUNDS_PER_SECOND: f64 = 200.0;

pub enum TxnSpec {
    /// One record about a journal file: the per-event shape the
    /// pipeline amortizes across the wire.
    Event {
        journal: usize,
        kind: usize,
        payload: String,
    },
    /// A new application object: identity records, `inputs` xrefs to
    /// objects of earlier rounds, parameters, and a sync so the
    /// disclosure reaches the log. 4 ops with one input, 16 with
    /// thirteen.
    Object {
        id: usize,
        inputs: Vec<usize>,
        params: String,
        ops: usize,
    },
}

pub struct Plan {
    pub rounds: Vec<Vec<TxnSpec>>,
    /// Per round: the objects asked about (the last few minted) and the
    /// names each one's ancestry must return.
    pub questions: Vec<Vec<(usize, BTreeSet<String>)>>,
    pub digest: u64,
}

fn name_of(id: usize) -> String {
    format!("op-{id}")
}

pub fn plan(seed: u64, scale: Scale) -> Plan {
    let rounds_n = scale.units(ROUNDS_PER_SECOND, 20);
    let mut rng = Rng::new(seed).fork(1);
    let mut digest = Digest::default();
    let mut rounds = Vec::with_capacity(rounds_n);
    let mut questions = Vec::with_capacity(rounds_n);
    // Ancestor closures of this epoch's objects, by object id.
    let mut closure: Vec<BTreeSet<usize>> = Vec::new();
    let mut epoch_start = 0usize;
    let mut minted: Vec<usize> = Vec::new();
    for r in 0..rounds_n {
        if r % EPOCH_ROUNDS == 0 {
            epoch_start = closure.len();
        }
        let round_start = closure.len();
        let mut txns = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let roll = rng.below(100);
            if roll < 70 {
                let spec = TxnSpec::Event {
                    journal: rng.below(JOURNALS),
                    kind: rng.below(7),
                    payload: format!("event payload {:016x} of some length", rng.next_u64()),
                };
                if let TxnSpec::Event {
                    journal,
                    kind,
                    payload,
                } = &spec
                {
                    digest.u64((*journal * 7 + *kind) as u64);
                    digest.str(payload);
                }
                txns.push(spec);
            } else {
                let ops = if roll < 95 { 4 } else { 16 };
                let id = closure.len();
                // Inputs come from earlier rounds of this epoch, so
                // their handles and identities exist at submit time.
                let pool = round_start - epoch_start;
                let want = if pool == 0 { 0 } else { ops - 3 };
                let mut inputs = BTreeSet::new();
                for _ in 0..want {
                    inputs.insert(epoch_start + rng.below(pool));
                }
                let mut anc: BTreeSet<usize> = inputs.clone();
                for i in &inputs {
                    anc.extend(closure[*i].iter().copied());
                }
                closure.push(anc);
                digest.u64(id as u64);
                for i in &inputs {
                    digest.u64(*i as u64);
                }
                txns.push(TxnSpec::Object {
                    id,
                    inputs: inputs.into_iter().collect(),
                    params: format!("threshold={}", rng.below(1000)),
                    ops,
                });
                minted.push(id);
            }
        }
        assert!(
            minted.len() >= QUESTIONS,
            "a 70/30 mix mints objects in every round"
        );
        questions.push(
            minted[minted.len() - QUESTIONS..]
                .iter()
                .map(|target| {
                    let mut expected: BTreeSet<String> =
                        closure[*target].iter().map(|i| name_of(*i)).collect();
                    expected.insert(name_of(*target));
                    (*target, expected)
                })
                .collect(),
        );
        rounds.push(txns);
    }
    Plan {
        rounds,
        questions,
        digest: digest.0,
    }
}

/// Builds one spec's transaction. Called inside the capture stage —
/// this is the application's own cost of using the DPAPI.
fn build_txn(
    spec: &TxnSpec,
    journals: &[Handle],
    objects: &[(Handle, ObjectRef)],
    handle: Option<Handle>,
) -> Txn {
    let mut txn = Txn::new();
    match spec {
        TxnSpec::Event {
            journal,
            kind,
            payload,
        } => {
            let h = journals[*journal];
            txn.disclose(
                h,
                Bundle::single(
                    h,
                    ProvenanceRecord::new(
                        Attribute::Other(format!("EVENT{kind}")),
                        Value::str(payload.clone()),
                    ),
                ),
            );
        }
        TxnSpec::Object {
            id,
            inputs,
            params,
            ops,
        } => {
            let h = handle.expect("object transactions mint their handle first");
            let mut ident = Bundle::new();
            ident.push(h, ProvenanceRecord::new(Attribute::Type, Value::str("OP")));
            ident.push(
                h,
                ProvenanceRecord::new(Attribute::Name, Value::str(name_of(*id))),
            );
            txn.disclose(h, ident);
            for i in inputs {
                txn.disclose(h, Bundle::single(h, ProvenanceRecord::input(objects[*i].1)));
            }
            // Pad to the spec's op count where the pool was too small
            // for distinct inputs (round 0 of an epoch has none).
            for k in 0..(*ops - 3).saturating_sub(inputs.len()) {
                txn.disclose(
                    h,
                    Bundle::single(
                        h,
                        ProvenanceRecord::new(
                            Attribute::Other(format!("NOTE{k}")),
                            Value::str("no earlier object to cite"),
                        ),
                    ),
                );
            }
            txn.disclose(
                h,
                Bundle::single(
                    h,
                    ProvenanceRecord::new(Attribute::Params, Value::str(params.clone())),
                ),
            );
            txn.sync(h);
        }
    }
    txn
}

pub struct Rig {
    plan: Plan,
    mach: Machine,
    app: Pid,
    journals: Vec<Handle>,
    waldo: waldo::Waldo,
}

pub fn setup(seed: u64, scale: Scale, probe: &Probe) -> Rig {
    let plan = plan(seed, scale);
    let mut mach = nfs_machine(probe, 5);
    let app = mach.kernel.spawn_init("/bin/app");
    let mut journals = Vec::with_capacity(JOURNALS);
    for j in 0..JOURNALS {
        let fd = mach
            .kernel
            .open(app, &format!("/journal-{j}"), OpenFlags::WRONLY_CREATE)
            .expect("creating a journal file on the export");
        journals.push(
            mach.kernel
                .pass_handle_for_fd(app, fd)
                .expect("a DPAPI handle for an open journal"),
        );
    }
    let waldo = mach.spawn_waldo(WaldoConfig::default());
    Rig {
        plan,
        mach,
        app,
        journals,
        waldo,
    }
}

pub fn run(rig: Rig, probe: &Probe) -> Measured {
    let Rig {
        plan,
        mut mach,
        app,
        journals,
        mut waldo,
    } = rig;
    let mut m = Measured {
        digest: plan.digest,
        ..Measured::default()
    };
    let mut pipe = Sluice::new(SluiceConfig {
        coalesce_ops: 8,
        max_queued_ops: 64,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    // The injected wall clock: the sluice reads it once per admitted
    // submission and once per resolved ticket, in FIFO order, which is
    // enough to pair them up outside (see `settle`).
    let epoch = Instant::now();
    let stamps: Rc<RefCell<Vec<u64>>> = Rc::default();
    let sink = stamps.clone();
    pipe.set_now(move || {
        let t = epoch.elapsed().as_nanos() as u64;
        sink.borrow_mut().push(t);
        t
    });

    let server = mach.server.clone().expect("the nfs machine has a server");
    let mut objects: Vec<(Handle, ObjectRef)> = Vec::new();
    let mut submitted: VecDeque<u64> = VecDeque::new();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(BATCH);
    let client = ClientId(1);

    for (r, txns) in plan.rounds.iter().enumerate() {
        probe.set_batch(r as u32);
        // --- capture: the application's front door -------------------
        let ((), mut round_s) = probe.stage(|| {
            for spec in txns {
                // Handles are minted synchronously, as the apps do: a
                // one-op mkobj transaction committed directly.
                let handle = match spec {
                    TxnSpec::Object { .. } => {
                        let minted = probe.span(Layer::Core, "mkobj", || {
                            let mut mk = Txn::new();
                            mk.mkobj(None);
                            let h = mach.kernel.pass_commit(app, mk).ok()?[0].as_handle()?;
                            let id = mach.kernel.pass_read(app, h, 0, 0).ok()?.identity;
                            Some((h, id))
                        });
                        let Some(minted) = minted else {
                            m.check(false);
                            continue;
                        };
                        objects.push(minted);
                        Some(minted.0)
                    }
                    TxnSpec::Event { .. } => None,
                };
                let txn = probe.span(Layer::Dpapi, "txn_build", || {
                    build_txn(spec, &journals, &objects, handle)
                });
                let mut lib = LibPass::new(&mut mach.kernel, app);
                let ticket = probe.span(Layer::Sluice, "submit", || match probe.tracer() {
                    None => pipe.submit(&mut lib, client, txn),
                    Some(t) => pipe.submit(
                        &mut DpapiShim {
                            inner: lib,
                            tracer: t,
                        },
                        client,
                        txn,
                    ),
                });
                settle(&stamps, &mut submitted, &mut m.txn_us, ticket.is_ok());
                match ticket {
                    Ok(t) => tickets.push(t),
                    Err(_) => m.check(false),
                }
            }
            let mut lib = LibPass::new(&mut mach.kernel, app);
            probe.span(Layer::Sluice, "drain", || match probe.tracer() {
                None => pipe.drain(&mut lib),
                Some(t) => pipe.drain(&mut DpapiShim {
                    inner: lib,
                    tracer: t,
                }),
            });
            settle(&stamps, &mut submitted, &mut m.txn_us, false);
            probe.span(Layer::Sluice, "take", || {
                for t in tickets.drain(..) {
                    m.check(matches!(pipe.take(t), Some(Ok(_))));
                }
            });
        });
        m.capture_s += round_s;
        m.txns += txns.len() as u64;

        // --- store: the server drains its logs into the daemon -------
        let (images, s) = probe.stage(|| {
            probe.span(Layer::PaNfs, "drain_provenance_logs", || {
                server.borrow_mut().drain_provenance_logs()
            })
        });
        let mut ingest_s = s;
        for image in &images {
            ingest_s += ingest_call(&mut m, probe, &mut mach.kernel, |k| {
                waldo.ingest_log_image(k, image)
            });
        }
        round_s += ingest_s;

        // --- query: verified ancestry answers --------------------------
        for (target, expected) in &plan.questions[r] {
            let text = format!(
                "select A.name from Provenance.op as X X.input* as A where X.name = '{}'",
                name_of(*target)
            );
            let (answer, s) = ask(
                &mut m,
                probe,
                QueryClass::Shallow,
                &text,
                Asked::Daemon(&mut waldo),
            );
            round_s += s;
            let ops_named: BTreeSet<String> = answer
                .into_iter()
                .filter(|n| n.starts_with("op-"))
                .collect();
            m.check(ops_named == *expected);
        }
        m.end_round(round_s, ingest_s);
    }
    m.ops = m.txns;

    let s = pipe.stats();
    m.set(
        "sluice.txns_per_frame",
        s.frame_txns as f64 / s.frames.max(1) as f64,
    );
    m.set("sluice.blocked_submits", s.blocked_submits as f64);
    m.set("sluice.split_commits", s.split_commits as f64);
    if let Some(c) = &mach.taps.client {
        let c = c.borrow().stats();
        m.set("pa-nfs.rpcs", c.rpcs as f64);
        m.set(
            "pa-nfs.wire_bytes",
            (c.bytes_sent + c.bytes_received) as f64,
        );
    }
    crate::layers::record_capture_counts(&mut m, &mach);
    m.images = waldo.db.segment_images();
    m
}

/// Pairs the clock readings the sluice took during one call into
/// per-transaction latencies. Resolutions come first (a blocking
/// submit drains before it admits) and in FIFO order; an admitted
/// submission reads the clock last.
fn settle(
    stamps: &RefCell<Vec<u64>>,
    submitted: &mut VecDeque<u64>,
    txn_us: &mut Vec<f64>,
    admitted: bool,
) {
    let mut stamps = stamps.borrow_mut();
    let resolved = stamps.len() - usize::from(admitted);
    for t in &stamps[..resolved] {
        let at = submitted
            .pop_front()
            .expect("a resolution without a submission");
        txn_us.push((*t - at) as f64 / 1e3);
    }
    if admitted {
        submitted.push_back(stamps[resolved]);
    }
    stamps.clear();
}
