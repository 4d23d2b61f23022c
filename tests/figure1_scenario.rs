//! The paper's Figure 1 / §3.1 use case as an integration test:
//! three provenance layers (workflow engine, local FS, two PA-NFS
//! servers), a silent input modification, and the cross-layer query
//! that explains the anomaly.

use dpapi::VolumeId;
use kepler::{fmri_workflow, populate_inputs, ChallengePaths, DpapiRecorder};
use passv2::Pass;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::syscall::Kernel;

struct Rig {
    kernel: Kernel,
    server1: std::rc::Rc<std::cell::RefCell<pa_nfs::NfsServer>>,
    server2: std::rc::Rc<std::cell::RefCell<pa_nfs::NfsServer>>,
    paths: ChallengePaths,
}

fn build_rig() -> Rig {
    let clock = Clock::new();
    let model = CostModel::default();
    let mut kernel = Kernel::new(clock.clone(), model);
    let server1 = pa_nfs::pa_server(clock.clone(), model, VolumeId(21));
    let server2 = pa_nfs::pa_server(clock.clone(), model, VolumeId(22));
    kernel.mount("/", Box::new(BaseFs::new(clock.clone(), model)));
    kernel.mount(
        "/mnt/in",
        Box::new(pa_nfs::client(&server1, clock.clone(), model)),
    );
    kernel.mount(
        "/mnt/out",
        Box::new(pa_nfs::client(&server2, clock.clone(), model)),
    );
    kernel.install_module(Pass::new_shared());
    let paths = ChallengePaths {
        input_dir: "/mnt/in".into(),
        work_dir: "/work".into(),
        output_dir: "/mnt/out".into(),
    };
    let setup = kernel.spawn_init("setup");
    kernel.mkdir_p(setup, "/work").unwrap();
    populate_inputs(&mut kernel, setup, &paths, 0).unwrap();
    kernel.exit(setup);
    Rig {
        kernel,
        server1,
        server2,
        paths,
    }
}

fn run_workflow(rig: &mut Rig) -> Vec<u8> {
    let pid = rig.kernel.spawn_init("kepler");
    let wf = fmri_workflow(&rig.paths);
    let mut rec = DpapiRecorder::new();
    kepler::run(&wf, &mut rig.kernel, pid, &mut rec).unwrap();
    rig.kernel.exit(pid);
    let p = rig.kernel.spawn_init("cat");
    let out = rig.kernel.read_file(p, &rig.paths.atlas_gif("x")).unwrap();
    rig.kernel.exit(p);
    out
}

fn build_db(rig: &mut Rig) -> waldo::ProvDb {
    let mut db = waldo::ProvDb::new();
    for server in [&rig.server1, &rig.server2] {
        for image in server.borrow_mut().drain_provenance_logs() {
            let (entries, _) = lasagna::parse_log(&image);
            db.ingest(&entries);
        }
    }
    // Two PA-NFS servers' analyzers and the workflow's disclosures:
    // the stored union must be acyclic.
    assert_eq!(db.input_cycle(), None, "a cycle in the stored ancestry");
    db
}

#[test]
fn modified_input_is_found_in_cross_layer_ancestry() {
    let mut rig = build_rig();
    let monday = run_workflow(&mut rig);

    // A colleague silently modifies one input on server 1.
    let colleague = rig.kernel.spawn_init("colleague");
    rig.kernel
        .write_file(colleague, &rig.paths.anatomy(2), &vec![0x77u8; 2048])
        .unwrap();
    rig.kernel.exit(colleague);

    let wednesday = run_workflow(&mut rig);
    assert_ne!(monday, wednesday, "the modification must change the output");

    let db = build_db(&mut rig);
    let rs = pql::query(
        &format!(
            "select Ancestor from Provenance.file as Atlas \
             Atlas.input* as Ancestor where Atlas.name = '{}'",
            rig.paths.atlas_gif("x")
        ),
        &db,
    )
    .unwrap();

    // The ancestry spans both NFS volumes...
    let volumes: std::collections::HashSet<u32> =
        rs.nodes().iter().map(|n| n.pnode.volume.0).collect();
    assert!(volumes.contains(&21), "input server objects in ancestry");
    assert!(volumes.contains(&22), "output server objects in ancestry");

    // ...includes Kepler operators (the workflow layer)...
    let has_operator = rs.nodes().iter().any(|n| {
        db.object(n.pnode)
            .and_then(|o| o.first_attr(&dpapi::Attribute::Type).cloned())
            == Some(dpapi::Value::str("OPERATOR"))
    });
    assert!(has_operator, "workflow-layer objects in ancestry");

    // ...and reaches the modified input file.
    let has_modified_input = rs.nodes().iter().any(|n| {
        db.object(n.pnode)
            .and_then(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
            .map(|v| v.to_string().contains("anatomy2.img"))
            .unwrap_or(false)
    });
    assert!(has_modified_input, "the culprit input is identified");
}

#[test]
fn identical_reruns_produce_identical_outputs() {
    let mut rig = build_rig();
    let first = run_workflow(&mut rig);
    let second = run_workflow(&mut rig);
    assert_eq!(first, second);
}

#[test]
fn kepler_only_view_cannot_see_the_modification() {
    // Run twice with a modification in between; the workflow-layer
    // provenance (operator names, parameters, wiring) is identical
    // for both runs — only the integrated view differs.
    let mut rig = build_rig();
    let wf1 = fmri_workflow(&rig.paths);
    let names1: Vec<String> = wf1.operators.iter().map(|o| o.name.clone()).collect();
    run_workflow(&mut rig);
    let colleague = rig.kernel.spawn_init("colleague");
    rig.kernel
        .write_file(colleague, &rig.paths.anatomy(2), &vec![1u8; 2048])
        .unwrap();
    rig.kernel.exit(colleague);
    run_workflow(&mut rig);
    let wf2 = fmri_workflow(&rig.paths);
    let names2: Vec<String> = wf2.operators.iter().map(|o| o.name.clone()).collect();
    assert_eq!(
        names1, names2,
        "the workflow engine sees two identical executions"
    );
}
