//! The fixed capture script `capture_golden` and `capture_allocs` play.
//!
//! A workflow engine forks tool processes that exec, read inputs and
//! write an output (fork / exec / read / write), keeps a journal it
//! reads before it appends (so the analyzer must freeze), and — per
//! job — mints an operator object and describes it with one two-op
//! `pass_commit`. A churn process creates, appends to, reads, renames
//! and unlinks scratch files beside them. Everything is a function of
//! the round number: no seed, no clock, no `HashMap` order.
//!
//! The same script plays on a local PASS volume (describing commits
//! are synchronous) and over PA-NFS (they go through a depth-8
//! sluice, drained when the round ends). Both volumes use a small log
//! buffer and a small log, so size-triggered flushes and rotations
//! happen mid-round.

#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use dpapi::{Attribute, Bundle, ObjectRef, ProvenanceRecord, Txn, Value, VolumeId};
use lasagna::{Lasagna, LasagnaConfig, PASS_DIR};
use pa_nfs::NfsServer;
use passv2::{LibPass, Pass};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::proc::{MountId, Pid};
use sim_os::syscall::{Kernel, OpenFlags};
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig, Ticket};

pub const JOBS: usize = 8;
const INPUTS: usize = 8;

const INPUT_BODY: [u8; 1024] = [b'i'; 1024];
const OUT_HEAD: [u8; 700] = [b'o'; 700];
const OUT_TAIL: [u8; 900] = [b'p'; 900];
const SCRATCH_BODY: [u8; 600] = [b'c'; 600];
const APPEND_BODY: [u8; 300] = [b'a'; 300];

/// Every path and argument vector a round needs, built before the
/// round runs so that `capture_allocs` counts the stack's allocations
/// and not the script's `format!`s.
pub struct Round {
    r: usize,
    argv: Vec<String>,
    env: Vec<String>,
    jobs: Vec<Job>,
    scratch: String,
    moved: String,
}

struct Job {
    name: String,
    inputs: Vec<String>,
    out: String,
}

pub fn round(r: usize) -> Round {
    let jobs = (0..JOBS)
        .map(|j| {
            let id = r * JOBS + j;
            let mut inputs = vec![format!("/data/in/i-{}", id % INPUTS)];
            if j % 2 == 1 {
                inputs.push(format!("/data/in/i-{}", (id + 3) % INPUTS));
            }
            if r > 0 {
                // An output of the round before: ancestry chains.
                inputs.push(format!("/data/out/o-{}", id - JOBS));
            }
            Job {
                name: format!("job-{id}"),
                inputs,
                out: format!("/data/out/o-{id}"),
            }
        })
        .collect();
    Round {
        r,
        argv: vec!["tool".to_string(), "--fast".to_string()],
        env: match r % 2 {
            0 => Vec::new(),
            _ => vec![format!("ROUND={r}")],
        },
        jobs,
        scratch: format!("/data/tmp/t-{r}"),
        moved: format!("/data/tmp/m-{r}"),
    }
}

pub struct Machine {
    pub kernel: Kernel,
    pass: Rc<Pass>,
    mount: MountId,
    /// The PA-NFS server and the sluice in front of it; `None` on the
    /// local topology.
    remote: Option<(Rc<RefCell<NfsServer>>, Sluice, Vec<Ticket>)>,
    engine: Pid,
    churn: Pid,
    pub daemon: Pid,
}

fn volume(clock: &Clock, model: CostModel, id: u32) -> Lasagna {
    let mut cfg = LasagnaConfig::new(VolumeId(id));
    cfg.log_buf_bytes = 512;
    cfg.log_max_bytes = 4 << 10;
    Lasagna::new(
        Box::new(BaseFs::new(clock.clone(), model)),
        clock.clone(),
        model,
        cfg,
    )
    .expect("a fresh lasagna volume")
}

impl Machine {
    /// A local PASSv2 machine: Lasagna over base at `/`.
    pub fn local() -> Machine {
        let (clock, model) = (Clock::new(), CostModel::default());
        let mut kernel = Kernel::new(clock.clone(), model);
        let mount = kernel.mount("/", Box::new(volume(&clock, model, 1)));
        Machine::boot(kernel, mount, None)
    }

    /// A PA-NFS client machine over a Lasagna-backed export, with a
    /// depth-8 sluice for the describing commits.
    pub fn nfs() -> Machine {
        let (clock, model) = (Clock::new(), CostModel::default());
        let mut kernel = Kernel::new(clock.clone(), model);
        let server = Rc::new(RefCell::new(NfsServer::new(Box::new(volume(
            &clock, model, 5,
        )))));
        let client = pa_nfs::client(&server, clock, model);
        let mount = kernel.mount("/", Box::new(client));
        let pipe = Sluice::new(SluiceConfig {
            coalesce_ops: 8,
            max_queued_ops: 64,
            policy: BackpressurePolicy::Block,
            ..SluiceConfig::default()
        });
        Machine::boot(kernel, mount, Some((server, pipe, Vec::new())))
    }

    fn boot(
        mut kernel: Kernel,
        mount: MountId,
        remote: Option<(Rc<RefCell<NfsServer>>, Sluice, Vec<Ticket>)>,
    ) -> Machine {
        let pass = Pass::new_shared();
        kernel.install_module(pass.clone());
        let seeder = kernel.spawn_init("/bin/seed");
        for dir in ["/bin", "/data/in", "/data/out", "/data/tmp"] {
            kernel.mkdir_p(seeder, dir).expect("laying out the volume");
        }
        kernel
            .write_file(seeder, "/bin/tool", &[0x7F; 512])
            .expect("installing the tool");
        for i in 0..INPUTS {
            kernel
                .write_file(seeder, &format!("/data/in/i-{i}"), &INPUT_BODY)
                .expect("seeding an input");
        }
        kernel
            .write_file(seeder, "/data/out/journal", b"journal\n")
            .expect("seeding the journal");
        kernel.exit(seeder);
        let engine = kernel.spawn_init("/sbin/engine");
        let churn = kernel.spawn_init("/bin/postmark");
        let daemon = kernel.spawn_init("waldo");
        pass.exempt(daemon);
        Machine {
            kernel,
            pass,
            mount,
            remote,
            engine,
            churn,
            daemon,
        }
    }

    /// Plays one round. Panics on any failed call: the script is valid
    /// on both topologies.
    pub fn play(&mut self, round: &Round) {
        let k = &mut self.kernel;
        let engine = self.engine;
        // The engine reads its journal, then appends to it: a write to
        // an observed version, which cycle avoidance must freeze.
        let fd = k
            .open(engine, "/data/out/journal", OpenFlags::RDWR_CREATE)
            .expect("open journal");
        k.read(engine, fd, 64).expect("read journal");
        k.write(engine, fd, b"round\n").expect("append journal");
        k.close(engine, fd).expect("close journal");

        for job in &round.jobs {
            let pid = k.fork(engine).expect("fork");
            k.execve(pid, "/bin/tool", &round.argv, &round.env)
                .expect("execve");
            let mut read_ids: Vec<ObjectRef> = Vec::with_capacity(job.inputs.len());
            for input in &job.inputs {
                let fd = k.open(pid, input, OpenFlags::RDONLY).expect("open input");
                k.read(pid, fd, INPUT_BODY.len()).expect("read input");
                let h = k.pass_handle_for_fd(pid, fd).expect("input handle");
                read_ids.push(k.pass_read(pid, h, 0, 0).expect("input identity").identity);
                k.close(pid, fd).expect("close input");
            }
            let fd = k
                .open(pid, &job.out, OpenFlags::WRONLY_CREATE)
                .expect("open output");
            k.write(pid, fd, &OUT_HEAD).expect("write head");
            k.write(pid, fd, &OUT_TAIL).expect("write tail");
            let out_h = k.pass_handle_for_fd(pid, fd).expect("output handle");

            // The engine mints the operator object, then describes it
            // and hangs the output beneath it in one transaction.
            let mut mk = Txn::new();
            mk.mkobj(None);
            let op = k.pass_commit(engine, mk).expect("mint")[0]
                .as_handle()
                .expect("a minted handle");
            let op_id = k.pass_read(engine, op, 0, 0).expect("op identity").identity;
            let mut ident = Bundle::new();
            ident.push(
                op,
                ProvenanceRecord::new(Attribute::Type, Value::str("OPERATOR")),
            );
            ident.push(
                op,
                ProvenanceRecord::new(Attribute::Name, Value::str(job.name.as_str())),
            );
            for id in &read_ids {
                ident.push(op, ProvenanceRecord::input(*id));
            }
            let mut txn = Txn::new();
            txn.disclose(op, ident);
            txn.disclose(out_h, Bundle::single(out_h, ProvenanceRecord::input(op_id)));
            match &mut self.remote {
                None => {
                    k.pass_commit(engine, txn).expect("describe");
                }
                Some((_, pipe, tickets)) => {
                    let mut lib = LibPass::new(k, engine);
                    tickets.push(pipe.submit(&mut lib, ClientId(1), txn).expect("submit"));
                }
            }
            k.close(pid, fd).expect("close output");
            k.exit(pid);
        }

        let churn = self.churn;
        k.write_file(churn, &round.scratch, &SCRATCH_BODY)
            .expect("create scratch");
        for _ in 0..2 {
            let fd = k
                .open(churn, &round.scratch, OpenFlags::APPEND_CREATE)
                .expect("open for append");
            k.write(churn, fd, &APPEND_BODY).expect("append");
            k.close(churn, fd).expect("close appended");
        }
        k.read_file(churn, &round.scratch).expect("read scratch");
        k.rename(churn, &round.scratch, &round.moved)
            .expect("rename");
        if round.r % 2 == 1 {
            k.unlink(churn, &round.moved).expect("unlink");
        }

        if let Some((_, pipe, tickets)) = &mut self.remote {
            let mut lib = LibPass::new(k, engine);
            pipe.drain(&mut lib);
            for t in tickets.drain(..) {
                assert!(matches!(pipe.take(t), Some(Ok(_))), "a describe failed");
            }
        }
    }

    /// Seals the volume's log: rotates, leaving the closed logs queued
    /// for [`Machine::seal`].
    pub fn rotate(&mut self) {
        match &self.remote {
            None => self
                .kernel
                .dpapi_at(self.mount)
                .expect("a PASS volume")
                .force_log_rotation(),
            Some((server, ..)) => server
                .borrow_mut()
                .fs_mut()
                .as_dpapi()
                .expect("a PASS export")
                .force_log_rotation(),
        }
    }

    /// Seals the volume's log and returns every log image closed since
    /// the last call, oldest first.
    pub fn seal(&mut self) -> Vec<Vec<u8>> {
        self.rotate();
        if let Some((server, ..)) = &self.remote {
            return server.borrow_mut().drain_provenance_logs();
        }
        let d = self.kernel.dpapi_at(self.mount).expect("a PASS volume");
        let rotated = d.take_log_rotations();
        rotated
            .into_iter()
            .map(|rel| {
                debug_assert!(rel.starts_with(PASS_DIR));
                self.kernel
                    .read_file(self.daemon, &format!("/{rel}"))
                    .expect("reading a rotated log")
            })
            .collect()
    }
}

/// FNV-1a, 64 bit, over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest over a list of images: each image's length, then its
/// bytes, so that moving a byte between two images changes it.
pub fn digest_images(images: &[Vec<u8>]) -> u64 {
    images.iter().fold(FNV_OFFSET, |h, image| {
        fnv1a(fnv1a(h, &(image.len() as u64).to_le_bytes()), image)
    })
}
