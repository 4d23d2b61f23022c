//! Machine assembly: Figure 2 built by hand from the stack's public
//! constructors, so that a traced pass can slide a timing shim into
//! every seam (`SystemBuilder` builds its volumes itself and offers
//! none). One assembly path serves both kinds of pass; untraced, the
//! layers are mounted bare.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dpapi::VolumeId;
use lasagna::{Lasagna, LasagnaConfig};
use pa_nfs::{NfsClient, NfsServer};
use passv2::Pass;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::proc::{MountId, Pid};
use sim_os::syscall::Kernel;
use waldo::{Waldo, WaldoConfig};

use crate::trace::{Layer, Probe};

/// Where the plain volume holding Waldo's durable homes is mounted.
/// Keeping it apart from the PASS volumes makes "bytes the daemon
/// stores" the usage of one file system.
pub const DB_ROOT: &str = "/waldo";

/// The wrapped layers of a traced machine, reachable for their own
/// `stats()` after they were boxed into the kernel or the server.
#[derive(Default)]
pub struct Taps {
    pub lasagna: Vec<Rc<RefCell<Lasagna>>>,
    pub client: Option<Rc<RefCell<NfsClient>>>,
    /// `fsync`s on the volume holding Waldo's durable homes: one per
    /// persisted commit frame.
    pub db_fsyncs: Option<Rc<Cell<u64>>>,
}

pub struct Machine {
    pub kernel: Kernel,
    pub pass: Rc<Pass>,
    /// Mounted PASS volumes, in the shape `Cluster::poll_volumes_report`
    /// takes them.
    pub volumes: Vec<(String, MountId, VolumeId)>,
    pub db_mount: MountId,
    /// The PA-NFS server, on the network configuration.
    pub server: Option<Rc<RefCell<NfsServer>>>,
    pub taps: Taps,
}

fn lasagna_volume(
    probe: &Probe,
    clock: &Clock,
    model: CostModel,
    volume: VolumeId,
    taps: &mut Taps,
) -> Box<dyn sim_os::fs::FileSystem> {
    let (base, _) = probe.wrap_fs(Layer::SimOs, BaseFs::new(clock.clone(), model));
    let fs = Lasagna::new(base, clock.clone(), model, LasagnaConfig::new(volume))
        .expect("lasagna volume creation cannot fail on a fresh base fs");
    let (fs, tap) = probe.wrap_fs(Layer::Lasagna, fs);
    taps.lasagna.extend(tap.map(|t| t.fs));
    fs
}

fn finish(
    mut kernel: Kernel,
    probe: &Probe,
    clock: &Clock,
    model: CostModel,
    volumes: Vec<(String, MountId, VolumeId)>,
    server: Option<Rc<RefCell<NfsServer>>>,
    mut taps: Taps,
) -> Machine {
    let (db, tap) = probe.wrap_fs(Layer::SimOs, BaseFs::new(clock.clone(), model));
    taps.db_fsyncs = tap.map(|t| t.fsyncs);
    let db_mount = kernel.mount(DB_ROOT, db);
    let pass = Pass::new_shared();
    kernel.install_module(pass.clone());
    Machine {
        kernel,
        pass,
        volumes,
        db_mount,
        server,
        taps,
    }
}

/// A local PASSv2 machine: one Lasagna-over-base volume per entry of
/// `volumes`, the PASS module installed.
pub fn local_machine(probe: &Probe, volumes: &[(&str, u32)]) -> Machine {
    let model = CostModel::default();
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), model);
    let mut taps = Taps::default();
    let mut mounted = Vec::new();
    for (path, v) in volumes {
        let fs = lasagna_volume(probe, &clock, model, VolumeId(*v), &mut taps);
        let m = kernel.mount(path, fs);
        mounted.push((path.to_string(), m, VolumeId(*v)));
    }
    finish(kernel, probe, &clock, model, mounted, None, taps)
}

/// The Ext3 baseline of Table 2: a plain volume, no module.
pub fn ext3_machine() -> Kernel {
    let model = CostModel::default();
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), model);
    kernel.mount("/", Box::new(BaseFs::new(clock, model)));
    kernel
}

/// The PA-NFS machine: a client kernel with the PASS module over a
/// provenance-aware export (Lasagna over base on the server).
pub fn nfs_machine(probe: &Probe, volume: u32) -> Machine {
    let model = CostModel::default();
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), model);
    let mut taps = Taps::default();
    let export = lasagna_volume(probe, &clock, model, VolumeId(volume), &mut taps);
    let server = Rc::new(RefCell::new(NfsServer::new(export)));
    let client = pa_nfs::client(&server, clock.clone(), model);
    let (client, tap) = probe.wrap_fs(Layer::PaNfs, client);
    taps.client = tap.map(|t| t.fs);
    let m = kernel.mount("/", client);
    let volumes = vec![("/".to_string(), m, VolumeId(volume))];
    finish(kernel, probe, &clock, model, volumes, Some(server), taps)
}

impl Machine {
    /// Spawns an observation-exempt daemon process.
    pub fn daemon_pid(&mut self) -> Pid {
        let pid = self.kernel.spawn_init("waldo");
        self.pass.exempt(pid);
        pid
    }

    /// A memory-only daemon.
    pub fn spawn_waldo(&mut self, cfg: WaldoConfig) -> Waldo {
        Waldo::with_config(self.daemon_pid(), cfg)
    }

    /// A daemon with its durable home (WAL + checkpoints) at `db_dir`.
    pub fn spawn_waldo_durable(&mut self, cfg: WaldoConfig, db_dir: &str) -> Waldo {
        let mut w = self.spawn_waldo(cfg);
        w.attach_db_dir(&mut self.kernel, db_dir)
            .expect("attaching a database directory on a fresh volume");
        w
    }

    /// Seals every PASS volume's log (after landing any deferred
    /// observer burst), leaving the rotations queued for the next poll.
    pub fn rotate_logs(&mut self) {
        self.kernel.barrier();
        for (_, m, _) in &self.volumes {
            if let Some(d) = self.kernel.dpapi_at(*m) {
                d.force_log_rotation();
            }
        }
    }

    /// Bytes at rest in Waldo's durable homes (WAL, segments,
    /// manifests, directory metadata).
    pub fn db_stored_bytes(&self) -> u64 {
        let u = self.kernel.usage_at(self.db_mount);
        u.data_bytes + u.meta_bytes
    }
}

/// The bytes of every *closed* provenance log under `mount_path` not
/// returned before, oldest first. The highest-numbered `log.N` is the
/// one Lasagna is still appending to and is left alone. Read as `pid`
/// (an exempt daemon), outside any timed stage: this feeds the
/// memory-only reference store the durable one is compared with.
pub fn closed_logs(
    kernel: &mut Kernel,
    pid: Pid,
    mount_path: &str,
    seen: &mut std::collections::BTreeSet<String>,
) -> Vec<Vec<u8>> {
    let dir = format!("{}/{}", mount_path.trim_end_matches('/'), lasagna::PASS_DIR);
    let mut logs: Vec<(u64, String)> = kernel
        .readdir(pid, &dir)
        .unwrap_or_default()
        .into_iter()
        .filter_map(|e| {
            let n = e.name.strip_prefix("log.")?.parse().ok()?;
            Some((n, format!("{dir}/{}", e.name)))
        })
        .collect();
    logs.sort();
    logs.pop();
    logs.into_iter()
        .filter(|(_, path)| seen.insert(path.clone()))
        .filter_map(|(_, path)| kernel.read_file(pid, &path).ok())
        .collect()
}

/// Bytes written through the kernel by whatever `f` runs. Around a
/// daemon call this is what the daemon wrote to its durable home: it
/// writes nowhere else, and nothing else runs meanwhile.
pub fn bytes_written_by<T>(kernel: &mut Kernel, f: impl FnOnce(&mut Kernel) -> T) -> (T, u64) {
    let before = kernel.stats().bytes_written;
    let out = f(kernel);
    (out, kernel.stats().bytes_written - before)
}
