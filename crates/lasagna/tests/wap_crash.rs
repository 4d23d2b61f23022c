//! Write-ahead provenance (paper §5.6) under machine crashes: the
//! log reaches the disk before the data it describes, at every op a
//! crash can follow.

use dpapi::{Attribute, Bundle, Dpapi, ProvenanceRecord, Value, VolumeId};
use lasagna::{md5, parse_log, Lasagna, LasagnaConfig, LogEntry, PASS_DIR};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::{DpapiVolume, FaultFs, FileSystem};

/// Write-ahead provenance at every crash point (§5.6). A script of
/// data writes, with log-buffer flushes and rotations among them,
/// runs on a disk that freezes after its k-th mutating op, for
/// every k the uncrashed script reaches. On the disk each crash
/// leaves, every data write that landed has its `DataWrite` frame
/// in a log. Each write lands on fresh bytes of its own, so the
/// file says unambiguously which writes landed.
#[test]
fn every_landed_write_has_its_frame_on_disk_after_any_crash() {
    const WRITES: usize = 12;
    const LEN: usize = 16;
    let data = |i: usize| [i as u8 + 1; LEN];
    // The script on a fresh volume whose disk crashes after `crash`
    // more mutating ops: the volume, its faults, the file written
    // and the mutating ops the script made.
    let run = |crash: Option<u64>| {
        let clock = Clock::new();
        let model = CostModel::default();
        let (lower, faults) = FaultFs::new(Box::new(BaseFs::new(clock.clone(), model)));
        let cfg = LasagnaConfig {
            log_max_bytes: 512,
            log_buf_bytes: 128,
            ..LasagnaConfig::new(VolumeId(1))
        };
        let mut v = Lasagna::new(Box::new(lower), clock, model, cfg).unwrap();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let start = faults.mutations();
        if let Some(k) = crash {
            faults.crash_after(k);
        }
        for i in 0..WRITES {
            let step = ProvenanceRecord::new(Attribute::Other("STEP".into()), Value::Int(i as i64));
            let at = (i * LEN) as u64;
            let _ = v.pass_write(h, at, &data(i), Bundle::single(h, step));
        }
        let ops = faults.mutations() - start;
        (v, faults, ino, ops)
    };
    let (v, _, _, ops) = run(None);
    assert!(v.stats().rotations >= 2, "the script must rotate");
    for k in 0..=ops {
        let (mut v, faults, ino, _) = run(Some(k));
        faults.heal();
        let lower = v.lower_mut();
        let file = lower.read(ino, 0, WRITES * LEN).unwrap();
        let root = lower.root();
        let dir = lower.lookup(root, PASS_DIR).unwrap();
        let mut logged = Vec::new();
        for log in lower.readdir(dir).unwrap() {
            let size = lower.getattr(log.ino).unwrap().size as usize;
            let (entries, _) = parse_log(&lower.read(log.ino, 0, size).unwrap());
            logged.extend(entries.into_iter().filter_map(|e| match e {
                LogEntry::DataWrite { digest, .. } => Some(digest),
                _ => None,
            }));
        }
        let landed: Vec<usize> = (0..WRITES)
            .filter(|&i| file.get(i * LEN..(i + 1) * LEN) == Some(&data(i)[..]))
            .collect();
        for &i in &landed {
            assert!(
                logged.contains(&md5(&data(i))),
                "crash after op {k}: write {i} is on disk without its frame"
            );
        }
        if k == ops {
            assert_eq!(landed.len(), WRITES, "the last k crashes after the script");
        }
    }
}
