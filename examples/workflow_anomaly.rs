//! The Figure 1 scenario: finding the source of an anomaly across
//! three provenance layers.
//!
//! A Kepler workflow runs on a workstation, reading inputs from one
//! PA-NFS server and writing outputs to another, with intermediates
//! on the local disk. Between two runs, a colleague silently modifies
//! one input on the first server. Neither Kepler's provenance nor the
//! file-system provenance alone can explain the changed output; the
//! integrated provenance can (paper §3.1).
//!
//! ```text
//! cargo run --example workflow_anomaly
//! ```

use dpapi::VolumeId;
use kepler::{fmri_workflow, populate_inputs, ChallengePaths, DpapiRecorder};
use passv2::Pass;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::syscall::Kernel;

fn main() {
    let clock = Clock::new();
    let model = CostModel::default();

    // The workstation, with two PA-NFS mounts and a local disk.
    let mut kernel = Kernel::new(clock.clone(), model);
    let server1 = pa_nfs::pa_server(clock.clone(), model, VolumeId(11));
    let server2 = pa_nfs::pa_server(clock.clone(), model, VolumeId(12));
    kernel.mount("/", Box::new(BaseFs::new(clock.clone(), model)));
    kernel.mount(
        "/mnt/inputs",
        Box::new(pa_nfs::client(&server1, clock.clone(), model)),
    );
    kernel.mount(
        "/mnt/outputs",
        Box::new(pa_nfs::client(&server2, clock.clone(), model)),
    );
    let pass = Pass::new_shared();
    kernel.install_module(pass.clone());

    let paths = ChallengePaths {
        input_dir: "/mnt/inputs".into(),
        work_dir: "/work".into(),
        output_dir: "/mnt/outputs".into(),
    };

    let setup = kernel.spawn_init("setup");
    kernel.mkdir_p(setup, "/work").unwrap();
    populate_inputs(&mut kernel, setup, &paths, 0).unwrap();
    kernel.exit(setup);

    // Monday: run the workflow.
    let monday_pid = kernel.spawn_init("kepler");
    let wf = fmri_workflow(&paths);
    let mut rec = DpapiRecorder::new();
    kepler::run(&wf, &mut kernel, monday_pid, &mut rec).unwrap();
    kernel.exit(monday_pid);
    let monday_atlas = {
        let p = kernel.spawn_init("cat");
        let out = kernel.read_file(p, &paths.atlas_gif("x")).unwrap();
        kernel.exit(p);
        out
    };

    // Tuesday: a colleague silently modifies anatomy2.img on server 1.
    let colleague = kernel.spawn_init("colleague");
    kernel
        .write_file(colleague, &paths.anatomy(2), &vec![0x5au8; 2048])
        .unwrap();
    kernel.exit(colleague);

    // Wednesday: run again; the output differs.
    let wednesday_pid = kernel.spawn_init("kepler");
    let wf = fmri_workflow(&paths);
    let mut rec = DpapiRecorder::new();
    kepler::run(&wf, &mut kernel, wednesday_pid, &mut rec).unwrap();
    kernel.exit(wednesday_pid);
    let wednesday_atlas = {
        let p = kernel.spawn_init("cat");
        let out = kernel.read_file(p, &paths.atlas_gif("x")).unwrap();
        kernel.exit(p);
        out
    };
    assert_ne!(monday_atlas, wednesday_atlas, "the anomaly must manifest");
    println!("outputs differ between Monday and Wednesday runs — why?");

    // Ingest provenance from BOTH servers into one database (the
    // query spans layers and machines).
    let mut db = waldo::ProvDb::new();
    for server in [&server1, &server2] {
        for image in server.borrow_mut().drain_provenance_logs() {
            let (entries, _) = lasagna::parse_log(&image);
            db.ingest(&entries);
        }
    }

    // The paper's query: all ancestors of the changed output. This
    // machine assembles its kernel by hand (no `System`), so it calls
    // the planned pipeline directly — `query_with_stats` is what
    // `System::query` wraps. The name predicate resolves through the
    // store's attribute index; no volume scan.
    let out = pql::query_with_stats(
        &format!(
            r#"select Ancestor
               from Provenance.file as Atlas
                    Atlas.input* as Ancestor
               where Atlas.name = "{}""#,
            paths.atlas_gif("x")
        ),
        &db,
    )
    .expect("query");
    println!(
        "planner: {} index hit(s), {} row(s) pruned at the root, {} closure walk(s) saved",
        out.stats.index_hits, out.stats.rows_pruned, out.stats.closure_calls_saved
    );
    assert_eq!(out.stats.scan_bindings, 0, "indexed, not scanned");
    let result = out.result;

    // The ancestry must span: output file (server 2), Kepler operators
    // (disclosed via DPAPI), and both versions of the modified input
    // (server 1) — the integrated view no single layer has.
    let mut found_operator = false;
    let mut input_versions = Vec::new();
    for node in result.nodes() {
        if let Some(obj) = db.object(node.pnode) {
            let ty = obj.first_attr(&dpapi::Attribute::Type).cloned();
            let name = obj.first_attr(&dpapi::Attribute::Name).cloned();
            if ty == Some(dpapi::Value::str("OPERATOR")) {
                found_operator = true;
            }
            if let Some(dpapi::Value::Str(n)) = &name {
                if n.contains("anatomy2.img") {
                    input_versions.push(node);
                }
            }
        }
    }
    assert!(found_operator, "Kepler operators appear in the ancestry");
    assert!(
        !input_versions.is_empty(),
        "the modified input appears in the ancestry"
    );
    println!(
        "ancestry spans {} objects across two NFS servers and the workflow engine",
        result.len()
    );
    println!(
        "the modified input anatomy2.img appears at versions {:?}",
        input_versions
            .iter()
            .map(|r| r.version.0)
            .collect::<Vec<_>>()
    );
    println!("anomaly explained: Wednesday's atlas descends from the modified input");
}
