//! Layer-stacking tests: the DPAPI is the universal interface, so an
//! arbitrary number of provenance-aware layers can stack (paper §5.2
//! claims a five-layer example: PA app → PA library → PA interpreter
//! → PA-NFS → PASSv2).

use dpapi::VolumeId;
use pa_python::Interp;
use passv2::Pass;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::syscall::Kernel;

/// Pythonette (PA app + wrapped routine = two app layers) running on
/// a PASSv2 kernel whose volume is PA-NFS: four provenance-aware
/// layers on one object graph.
#[test]
fn four_layer_stack_produces_one_connected_graph() {
    let clock = Clock::new();
    let model = CostModel::default();
    let mut kernel = Kernel::new(clock.clone(), model);
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(40));
    kernel.mount("/", Box::new(pa_nfs::client(&server, clock.clone(), model)));
    kernel.install_module(Pass::new_shared());

    let pid = kernel.spawn_init("pythonette");
    kernel.write_file(pid, "/input.xml", b"<v>41</v>").unwrap();

    let mut interp = Interp::new(pid);
    interp.wrap("refine"); // the PA "library" layer
    interp
        .run(
            &mut kernel,
            r#"
            def refine(doc) { return xml_field(doc, "v"); }
            let d = read_file("/input.xml");
            write_file("/result.out", refine(d));
            "#,
        )
        .unwrap();
    kernel.exit(pid);

    // Everything landed in ONE provenance database at the server.
    let mut db = waldo::ProvDb::new();
    for image in server.borrow_mut().drain_provenance_logs() {
        let (entries, _) = lasagna::parse_log(&image);
        db.ingest(&entries);
    }

    use pql::GraphSource;
    let files = db.find_by_type("FILE");
    let result = *db
        .find_by_name("/result.out")
        .iter()
        .find(|p| files.contains(p))
        .expect("output file recorded at the server");
    let obj = db.object(result).unwrap();
    let v = dpapi::Version(obj.current);
    let anc = db.ancestors(dpapi::ObjectRef::new(result, v));

    // The ancestry crosses all layers: the wrapped invocation
    // (app/library layer), the interpreter process (OS layer), and
    // the input file (storage layer) — all with server pnodes.
    let types: Vec<String> = anc
        .iter()
        .filter_map(|r| db.object(r.pnode))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Type).cloned())
        .map(|t| t.to_string())
        .collect();
    assert!(types.iter().any(|t| t.contains("FUNCTION")), "{types:?}");
    assert!(types.iter().any(|t| t.contains("PROC")), "{types:?}");
    assert!(
        anc.iter().any(|r| {
            db.object(r.pnode)
                .and_then(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
                .map(|n| n.to_string().contains("input.xml"))
                .unwrap_or(false)
        }),
        "input file reachable"
    );
    // Every object in the graph lives on the server volume.
    assert!(anc.iter().all(|r| r.pnode.volume == VolumeId(40)));
    let _ = db.class_members("obj");
}

/// The distributor routes provenance across two PASS volumes: a file
/// written on volume B depends on a file read from volume A, through
/// a process materialized on one of them.
#[test]
fn cross_volume_ancestry_via_distributor() {
    let mut sys = passv2::SystemBuilder::new(CostModel::default())
        .pass_volume("/a", VolumeId(1))
        .pass_volume("/b", VolumeId(2))
        .build();
    let pid = sys.kernel.spawn_init("mover");
    sys.kernel
        .write_file(pid, "/a/src.dat", b"payload")
        .unwrap();
    let data = sys.kernel.read_file(pid, "/a/src.dat").unwrap();
    sys.kernel.write_file(pid, "/b/dst.dat", &data).unwrap();
    sys.kernel.exit(pid);

    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (m, logs) in sys.rotate_all_logs() {
        let path = if m.0 == 0 { "/a" } else { "/b" };
        let _ = path;
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }

    let dst = w.db.find_by_name("/b/dst.dat");
    assert_eq!(dst.len(), 1);
    assert_eq!(dst[0].volume, VolumeId(2));
    let obj = w.db.object(dst[0]).unwrap();
    let v = dpapi::Version(obj.current);
    let anc = w.db.ancestors(dpapi::ObjectRef::new(dst[0], v));
    // The cross-volume reference reaches the source file on volume 1.
    let src = w.db.find_by_name("/a/src.dat");
    assert_eq!(src.len(), 1);
    assert_eq!(src[0].volume, VolumeId(1));
    assert!(
        anc.iter().any(|r| r.pnode == src[0]),
        "dst on vol2 must depend on src on vol1: {anc:?}"
    );
}

/// Pipes are non-persistent first-class objects: provenance flows
/// through a shell-style pipeline and the pipe objects appear in the
/// ancestry chain once materialized.
#[test]
fn pipeline_provenance_through_pipes() {
    let mut sys = passv2::System::single_volume();
    let producer = sys.kernel.spawn_init("producer");
    sys.kernel
        .write_file(producer, "/input.txt", b"pipe payload")
        .unwrap();
    let (rfd, wfd) = sys.kernel.pipe(producer).unwrap();
    let consumer = sys.kernel.fork(producer).unwrap();

    // producer: reads the input, writes into the pipe.
    let data = sys.kernel.read_file(producer, "/input.txt").unwrap();
    sys.kernel.write(producer, wfd, &data).unwrap();
    // consumer: reads the pipe, writes the output file.
    let got = sys.kernel.read(consumer, rfd, 100).unwrap();
    sys.kernel
        .write_file(consumer, "/output.txt", &got)
        .unwrap();
    sys.kernel.exit(consumer);
    sys.kernel.exit(producer);

    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let out = w.db.find_by_name("/output.txt");
    assert_eq!(out.len(), 1);
    let obj = w.db.object(out[0]).unwrap();
    let v = dpapi::Version(obj.current);
    let anc = w.db.ancestors(dpapi::ObjectRef::new(out[0], v));
    // The chain: output ← consumer ← pipe ← producer ← input.
    let types: Vec<String> = anc
        .iter()
        .filter_map(|r| w.db.object(r.pnode))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Type).cloned())
        .map(|t| t.to_string())
        .collect();
    assert!(types.iter().any(|t| t.contains("PIPE")), "{types:?}");
    let names: Vec<String> = anc
        .iter()
        .filter_map(|r| w.db.object(r.pnode))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
        .map(|n| n.to_string())
        .collect();
    assert!(names.iter().any(|n| n.contains("input.txt")), "{names:?}");
}

/// Processes with no persistent descendants leave no trace (§5.5).
#[test]
fn transient_processes_are_not_materialized() {
    let mut sys = passv2::System::single_volume();
    let pid = sys.kernel.spawn_init("idler");
    sys.kernel
        .execve(pid, "/bin/idler", &["idler".into()], &[])
        .ok();
    // Reads but never writes: no persistent descendant.
    sys.kernel.write_file(pid, "/seen.txt", b"x").unwrap();
    let lurker = sys.kernel.spawn_init("lurker");
    let _ = sys.kernel.read_file(lurker, "/seen.txt").unwrap();
    sys.kernel.exit(lurker);
    sys.kernel.exit(pid);

    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let procs = w.db.find_by_type("PROC");
    let names: Vec<String> = procs
        .iter()
        .filter_map(|p| w.db.object(*p))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
        .map(|n| n.to_string())
        .collect();
    // The idler wrote a file, so it is materialized; the lurker only
    // read and must not appear.
    assert!(
        !names.iter().any(|n| n.contains("lurker")),
        "read-only process must not persist: {names:?}"
    );
}

/// A dependency the system observed must be in the recorded ancestry:
/// a process that is already materialized (it wrote `/a`) and then
/// reads `/b` still holds that input in the module's cache when it
/// exits, and `exit` must disclose it, not drop it. The paper's rule
/// (§5.5: a transient object with no persistent descendant leaves no
/// trace) still holds for the *un*materialized branch, which
/// `transient_processes_are_not_materialized` above pins.
#[test]
fn materialized_process_discloses_its_trailing_reads_at_exit() {
    let mut sys = passv2::System::single_volume();
    let setup = sys.spawn("setup");
    sys.kernel.write_file(setup, "/b", b"late input").unwrap();
    let pid = sys.spawn("worker");
    sys.kernel.write_file(pid, "/a", b"early output").unwrap();
    let _ = sys.kernel.read_file(pid, "/b").unwrap();
    sys.kernel.exit(pid);

    let mut w = sys.spawn_waldo();
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let b = w.db.find_by_name("/b");
    assert_eq!(b.len(), 1);
    let descendants = w.db.descendants(b[0]);
    // `setup` is an ancestor of /b, not a descendant, so a PROC among
    // /b's descendants is the worker.
    let procs = w.db.find_by_type("PROC");
    assert!(
        procs
            .iter()
            .any(|p| descendants.iter().any(|r| r.pnode == *p)),
        "the worker read /b before it exited, so it descends from /b: {descendants:?}"
    );
}

/// A multi-op disclosure transaction committed at user level must
/// surface in Waldo as a committed transaction: the batch boundary
/// flows intact from `pass_commit` through the Lasagna group frame
/// into the store's group commit. Non-zero batch-path op counters in
/// kernel, module and daemon — otherwise the stack has silently
/// regressed to per-record disclosure.
#[test]
fn user_pass_commit_reaches_waldo_as_one_committed_transaction() {
    use dpapi::{Attribute, Bundle, ProvenanceRecord, Value};

    let mut sys = passv2::System::single_volume();
    let pid = sys.spawn("app");
    let app = sys.kernel.pass_mkobj(pid, None).unwrap();
    let mut txn = dpapi::Txn::new();
    for i in 0..8 {
        txn.disclose(
            app,
            Bundle::single(
                app,
                ProvenanceRecord::new(Attribute::Other(format!("STEP{i}")), Value::str("batched")),
            ),
        );
    }
    txn.sync(app);
    sys.kernel.pass_commit(pid, txn).unwrap();
    let kstats = sys.kernel.stats();
    assert!(
        kstats.dpapi_txns >= 1 && kstats.dpapi_txn_ops >= 9,
        "kernel batch counters must be non-zero: {kstats:?}"
    );
    let pstats = sys.pass.stats();
    assert!(
        pstats.txn_commits >= 1 && pstats.txn_ops >= 9,
        "module batch counters must be non-zero: {pstats:?}"
    );
    let mut waldo = sys.spawn_waldo();
    let mut total = waldo::IngestStats::default();
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            total += waldo.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    assert!(
        total.txns_committed >= 1,
        "the batch boundary must reach Waldo's group commit as a \
         transaction: {total:?}"
    );
}
