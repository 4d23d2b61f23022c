//! `local_layered`: application provenance layered on observed
//! provenance, on a local PASSv2 volume.
//!
//! Seeded workflow jobs fork and exec a tool, read inputs, write an
//! output (all observed by the PASS module) and disclose — through one
//! *synchronous* `Kernel::pass_commit` — an operator object standing
//! between the inputs and the output. A Postmark-style churn process
//! creates, appends, reads and unlinks scratch files beside them, which
//! is where the analyzer's duplicate elimination and cycle-avoidance
//! freezes earn their keep. Each round's logs are rotated and polled by
//! a durable daemon, and "which inputs fed output X" is answered and
//! checked against the generator's dependency map.
//!
//! Kernel, PASS module and Lasagna's observer path dominate; the sluice
//! and PA-NFS do nothing, and disclosure is the depth-1 synchronous
//! path — a pipelining change that taxes synchronous callers shows
//! here. The same script generator, at a larger scale, writes the logs
//! `ingest_durable` ingests.

use std::collections::BTreeSet;
use std::time::Instant;

use dpapi::{Attribute, Bundle, ObjectRef, ProvenanceRecord, Txn, Value};
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};
use waldo::WaldoConfig;

use crate::measure::{ask, ingest_call, Asked, Measured, QueryClass, Scale};
use crate::rig::{ext3_machine, local_machine, Machine, DB_ROOT};
use crate::rng::{Digest, Rng};
use crate::trace::{Layer, Probe};

/// Pre-seeded input files.
const INPUTS: usize = 64;
const INPUT_BYTES: usize = 4096;
/// Jobs and churn operations per round.
pub const JOBS: usize = 8;
pub const CHURN: usize = 48;
/// Scratch files the churn process cycles through.
const SCRATCH: usize = 24;
/// Jobs draw earlier *outputs* as inputs only from rounds of their own
/// epoch, which bounds every ancestry answer.
const EPOCH_ROUNDS: usize = 8;
/// Rounds per second of budget (bench-host calibration).
const ROUNDS_PER_SECOND: f64 = 190.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileRef {
    In(usize),
    Out(usize),
}

impl FileRef {
    /// The file's path on the volume mounted at `root` (`""` for `/`).
    pub fn path(self, root: &str) -> String {
        match self {
            FileRef::In(i) => format!("{root}/data/in/i-{i}"),
            FileRef::Out(i) => format!("{root}/data/out/o-{i}"),
        }
    }
}

pub struct Job {
    pub id: usize,
    pub inputs: Vec<FileRef>,
    pub out_bytes: usize,
}

#[derive(Clone, Copy)]
pub enum Churn {
    Create(usize),
    Append(usize),
    Read(usize),
    Unlink(usize),
}

pub struct Round {
    pub jobs: Vec<Job>,
    pub churn: Vec<Churn>,
    /// The outputs asked about (half the round's jobs), each with the
    /// data files and the operator objects its ancestry must name.
    pub questions: Vec<Question>,
}

pub struct Script {
    /// Mount point of the volume the script plays on (`""` for `/`).
    pub root: String,
    pub rounds: Vec<Round>,
    pub digest: u64,
}

fn job_name(id: usize) -> String {
    format!("job-{id}")
}

/// Generates `rounds_n` rounds of `jobs` jobs and `churn_ops` churn
/// operations for the volume at `root`. The dependency map is built
/// alongside: each output's ancestors are its job's inputs and theirs.
pub fn script(seed: u64, rounds_n: usize, root: &str, jobs_n: usize, churn_ops: usize) -> Script {
    let mut rng = Rng::new(seed).fork(2);
    let mut digest = Digest::default();
    let mut rounds = Vec::with_capacity(rounds_n);
    // Per output: (ancestor files, ancestor jobs).
    let mut closure: Vec<(BTreeSet<FileRef>, BTreeSet<usize>)> = Vec::new();
    let mut live = [false; SCRATCH];
    let mut epoch_start = 0;
    for r in 0..rounds_n {
        if r % EPOCH_ROUNDS == 0 {
            epoch_start = closure.len();
        }
        let round_start = closure.len();
        let mut jobs = Vec::with_capacity(jobs_n);
        for _ in 0..jobs_n {
            let id = closure.len();
            let mut inputs = BTreeSet::new();
            for _ in 0..1 + rng.below(3) {
                let earlier = round_start - epoch_start;
                if earlier > 0 && rng.below(100) < 40 {
                    inputs.insert(FileRef::Out(epoch_start + rng.below(earlier)));
                } else {
                    inputs.insert(FileRef::In(rng.below(INPUTS)));
                }
            }
            let mut files = inputs.clone();
            let mut made_by = BTreeSet::from([id]);
            for i in &inputs {
                if let FileRef::Out(o) = i {
                    files.extend(closure[*o].0.iter().copied());
                    made_by.extend(closure[*o].1.iter().copied());
                }
            }
            closure.push((files, made_by));
            digest.u64(id as u64);
            for i in &inputs {
                digest.str(&i.path(root));
            }
            jobs.push(Job {
                id,
                inputs: inputs.into_iter().collect(),
                out_bytes: 512 + rng.below(3584),
            });
        }
        let mut churn = Vec::with_capacity(churn_ops);
        for _ in 0..churn_ops {
            let f = rng.below(SCRATCH);
            let op = if !live[f] {
                live[f] = true;
                Churn::Create(f)
            } else {
                match rng.below(10) {
                    0..=4 => Churn::Append(f),
                    5..=7 => Churn::Read(f),
                    _ => {
                        live[f] = false;
                        Churn::Unlink(f)
                    }
                }
            };
            digest.u64(match op {
                Churn::Create(f) => f as u64,
                Churn::Append(f) => 100 + f as u64,
                Churn::Read(f) => 200 + f as u64,
                Churn::Unlink(f) => 300 + f as u64,
            });
            churn.push(op);
        }
        let first = rng.below(jobs_n);
        let questions = (0..(jobs_n / 2).max(1))
            .map(|k| {
                let asked = round_start + (first + k) % jobs_n;
                let mut files: BTreeSet<String> =
                    closure[asked].0.iter().map(|f| f.path(root)).collect();
                files.insert(FileRef::Out(asked).path(root));
                let made_by = closure[asked].1.iter().map(|j| job_name(*j)).collect();
                (asked, files, made_by)
            })
            .collect();
        rounds.push(Round {
            jobs,
            churn,
            questions,
        });
    }
    Script {
        root: root.to_string(),
        rounds,
        digest: digest.0,
    }
}

/// The processes a script runs as.
pub struct Actors {
    root: String,
    /// Forks the jobs; never touches a data file itself, so no job
    /// inherits ancestry through it.
    launcher: Pid,
    churn: Pid,
}

/// Lays out the directories, the tool binary and the input files of
/// the volume mounted at `root`.
pub fn seed_volume(kernel: &mut Kernel, root: &str) -> Actors {
    let seeder = kernel.spawn_init("/bin/seed");
    for dir in ["/bin", "/data/in", "/data/out", "/data/tmp"] {
        kernel
            .mkdir_p(seeder, &format!("{root}{dir}"))
            .expect("laying out a fresh volume");
    }
    kernel
        .write_file(seeder, &format!("{root}/bin/tool"), &[0x7F; 2048])
        .expect("installing the tool binary");
    let body = vec![b'i'; INPUT_BYTES];
    for i in 0..INPUTS {
        kernel
            .write_file(seeder, &FileRef::In(i).path(root), &body)
            .expect("seeding an input file");
    }
    kernel.exit(seeder);
    Actors {
        root: root.to_string(),
        launcher: kernel.spawn_init("/sbin/launcher"),
        churn: kernel.spawn_init("/bin/postmark"),
    }
}

/// Plays one round's syscall script. With `disclose` (which collects
/// the describing commit's latency), each job also discloses its
/// operator object: two `pass_commit`s, mint then describe. Without —
/// the Ext3 baseline, which has no module — the script is the syscalls
/// alone. Returns (operations attempted, failed).
pub fn play_round(
    kernel: &mut Kernel,
    actors: &Actors,
    round: &Round,
    probe: &Probe,
    mut disclose: Option<&mut Vec<f64>>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let argv = ["tool".to_string(), "--fast".to_string()];
    let root = actors.root.as_str();
    let tool = format!("{root}/bin/tool");
    // Churn is spread between the jobs, as a busy machine would have it.
    let mut churn = round
        .churn
        .chunks(round.churn.len().div_ceil(round.jobs.len()).max(1));
    for job in &round.jobs {
        let run = |kernel: &mut Kernel, disclose: &mut Option<&mut Vec<f64>>| -> Option<()> {
            let pid = kernel.fork(actors.launcher).ok()?;
            kernel.execve(pid, &tool, &argv, &[]).ok()?;
            let mut read_ids: Vec<ObjectRef> = Vec::new();
            for input in &job.inputs {
                let fd = kernel
                    .open(pid, &input.path(root), OpenFlags::RDONLY)
                    .ok()?;
                kernel.read(pid, fd, INPUT_BYTES).ok()?;
                if disclose.is_some() {
                    let h = kernel.pass_handle_for_fd(pid, fd).ok()?;
                    read_ids.push(kernel.pass_read(pid, h, 0, 0).ok()?.identity);
                }
                kernel.close(pid, fd).ok()?;
            }
            let out = FileRef::Out(job.id).path(root);
            let fd = kernel.open(pid, &out, OpenFlags::WRONLY_CREATE).ok()?;
            let body = vec![b'o'; job.out_bytes];
            let (head, tail) = body.split_at(job.out_bytes / 2);
            kernel.write(pid, fd, head).ok()?;
            kernel.write(pid, fd, tail).ok()?;
            if let Some(txn_us) = disclose.as_mut() {
                // Mint the operator object, then describe it and hang
                // the output beneath it, atomically.
                let mut mk = Txn::new();
                mk.mkobj(None);
                let op = kernel.pass_commit(pid, mk).ok()?[0].as_handle()?;
                let op_id = kernel.pass_read(pid, op, 0, 0).ok()?.identity;
                let out_h = kernel.pass_handle_for_fd(pid, fd).ok()?;
                let txn = probe.span(Layer::Dpapi, "txn_build", || {
                    let mut ident = Bundle::new();
                    ident.push(
                        op,
                        ProvenanceRecord::new(Attribute::Type, Value::str("OPERATOR")),
                    );
                    ident.push(
                        op,
                        ProvenanceRecord::new(Attribute::Name, Value::str(job_name(job.id))),
                    );
                    for id in &read_ids {
                        ident.push(op, ProvenanceRecord::input(*id));
                    }
                    let mut txn = Txn::new();
                    txn.disclose(op, ident);
                    txn.disclose(out_h, Bundle::single(out_h, ProvenanceRecord::input(op_id)));
                    txn
                });
                let t = Instant::now();
                let committed = kernel.pass_commit(pid, txn);
                txn_us.push(t.elapsed().as_secs_f64() * 1e6);
                committed.ok()?;
            }
            kernel.close(pid, fd).ok()?;
            kernel.exit(pid);
            Some(())
        };
        let ok = probe.span(Layer::Core, "job", || run(kernel, &mut disclose));
        tally(ok.is_some());
        for op in churn.next().unwrap_or(&[]) {
            let step = |kernel: &mut Kernel| -> Option<()> {
                let pid = actors.churn;
                match *op {
                    Churn::Create(f) => kernel
                        .write_file(pid, &format!("{root}/data/tmp/t-{f}"), &[b'c'; 700])
                        .ok(),
                    Churn::Append(f) => {
                        let fd = kernel
                            .open(
                                pid,
                                &format!("{root}/data/tmp/t-{f}"),
                                OpenFlags::APPEND_CREATE,
                            )
                            .ok()?;
                        kernel.write(pid, fd, &[b'a'; 300]).ok()?;
                        kernel.close(pid, fd).ok()
                    }
                    Churn::Read(f) => kernel
                        .read_file(pid, &format!("{root}/data/tmp/t-{f}"))
                        .ok()
                        .map(|_| ()),
                    Churn::Unlink(f) => kernel.unlink(pid, &format!("{root}/data/tmp/t-{f}")).ok(),
                }
            };
            let ok = probe.span(Layer::Core, "churn", || step(kernel));
            tally(ok.is_some());
        }
    }
    (attempted, failed)
}

/// One of a round's ancestry questions.
pub type Question = (usize, BTreeSet<String>, BTreeSet<String>);

pub fn question_text(question: &Question, root: &str) -> String {
    format!(
        "select A.name from Provenance.file as F F.input* as A where F.name = '{}'",
        FileRef::Out(question.0).path(root)
    )
}

/// Whether `answer` is exactly what the generator's dependency map
/// says: the same data files, the same operator objects.
pub fn answer_is_right(question: &Question, answer: &BTreeSet<String>) -> bool {
    let files: BTreeSet<String> = answer
        .iter()
        .filter(|n| n.contains("/data/in/") || n.contains("/data/out/"))
        .cloned()
        .collect();
    let jobs: BTreeSet<String> = answer
        .iter()
        .filter(|n| n.starts_with("job-"))
        .cloned()
        .collect();
    files == question.1 && jobs == question.2
}

pub struct Rig {
    script: Script,
    mach: Machine,
    actors: Actors,
    waldo: waldo::Waldo,
}

pub fn setup(seed: u64, scale: Scale, probe: &Probe) -> Rig {
    let script = script(seed, scale.units(ROUNDS_PER_SECOND, 20), "", JOBS, CHURN);
    let mut mach = local_machine(probe, &[("/", 1)]);
    let actors = seed_volume(&mut mach.kernel, "");
    let waldo = mach.spawn_waldo_durable(WaldoConfig::default(), &format!("{DB_ROOT}/db"));
    Rig {
        script,
        mach,
        actors,
        waldo,
    }
}

pub fn run(rig: Rig, probe: &Probe) -> Measured {
    let Rig {
        script,
        mut mach,
        actors,
        mut waldo,
    } = rig;
    let mut m = Measured {
        digest: script.digest,
        ..Measured::default()
    };
    let (_, mount, _) = mach.volumes[0].clone();
    for (r, round) in script.rounds.iter().enumerate() {
        probe.set_batch(r as u32);
        let before = mach.kernel.stats().syscalls;
        let ((attempted, failed), mut round_s) = probe.stage(|| {
            let counts = play_round(&mut mach.kernel, &actors, round, probe, Some(&mut m.txn_us));
            // Sealing the log is the end of the application's part.
            probe.span(Layer::Core, "rotate", || mach.rotate_logs());
            counts
        });
        m.capture_s += round_s;
        m.syscalls += mach.kernel.stats().syscalls - before;
        m.attempted += attempted;
        m.failed += failed;
        m.txns += 2 * round.jobs.len() as u64;

        let ingest_s = ingest_call(&mut m, probe, &mut mach.kernel, |k| {
            waldo.poll_volume(k, mount, "/")
        });
        round_s += ingest_s;

        for question in &round.questions {
            let (answer, s) = ask(
                &mut m,
                probe,
                QueryClass::Shallow,
                &question_text(question, ""),
                Asked::Daemon(&mut waldo),
            );
            round_s += s;
            m.check(answer_is_right(question, &answer));
        }
        m.end_round(round_s, ingest_s);
    }
    m.ops = m.syscalls;
    m.stored_bytes = mach.db_stored_bytes();
    crate::layers::record_capture_counts(&mut m, &mach);
    crate::layers::record_daemon_counts(&mut m, &mach, &[&waldo]);
    m.images = waldo.db.segment_images();
    m
}

/// The same syscall script on the Ext3 baseline (no module, so no
/// disclosure): the denominator of Table 2's overhead, in wall time.
pub fn ext3_capture_s(seed: u64, scale: Scale) -> f64 {
    let script = script(seed, scale.units(ROUNDS_PER_SECOND, 20), "", JOBS, CHURN);
    let mut kernel = ext3_machine();
    let actors = seed_volume(&mut kernel, "");
    let t = Instant::now();
    for round in &script.rounds {
        let (_, failed) = play_round(&mut kernel, &actors, round, &Probe::off(), None);
        assert_eq!(failed, 0, "the syscall script fails on plain Ext3");
    }
    t.elapsed().as_secs_f64()
}
