//! The PA-Python use cases of §3.3 as integration tests: data origin
//! (which XML files fed the plot) and process validation (which
//! outputs were produced by the buggy routine from the upgraded
//! library).

use pa_python::Interp;
use passv2::System;

/// The ancestry cycle `Store::input_cycle` reports, as `(pnode number,
/// version)` pairs on volume 1. Each of these stores holds at least
/// one, an open capture finding (see `tests/acyclic.rs`): the
/// interpreter process reads a file it wrote, the analyzer freezes the
/// process, and the PASS module logs the read against the process's
/// version 0.
fn cycle(w: &waldo::Waldo) -> Option<Vec<(u64, u32)>> {
    let cycle = w.db.input_cycle()?;
    Some(
        cycle
            .iter()
            .map(|r| (r.pnode.number, r.version.0))
            .collect(),
    )
}

fn ingest(sys: &mut System) -> waldo::Waldo {
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    w
}

#[test]
fn data_origin_reads_all_uses_some() {
    let mut sys = System::single_volume();
    let pid = sys.spawn("pythonette");
    sys.kernel.mkdir_p(pid, "/xml").unwrap();
    for i in 0..6 {
        let class = if i < 2 { "classA" } else { "classB" };
        sys.kernel
            .write_file(
                pid,
                &format!("/xml/e{i}.xml"),
                format!("<c>{class}</c><heat>{i}</heat>").as_bytes(),
            )
            .unwrap();
    }
    let mut interp = Interp::new(pid);
    interp.wrap("crack_heat");
    interp
        .run(
            &mut sys.kernel,
            r#"
            def crack_heat(doc) { return xml_field(doc, "heat"); }
            let out = "";
            for p in list_dir("/xml") {
                let d = read_file(p);
                if contains(d, "classA") {
                    out = out + crack_heat(d);
                }
            }
            write_file("/plot.dat", out);
            "#,
        )
        .unwrap();
    // Two class-A docs used out of six read.
    assert_eq!(interp.invocations.len(), 2);
    let w = ingest(&mut sys);
    assert_eq!(cycle(&w), Some(vec![(2, 0), (7, 0)]));
    assert_eq!(w.db.find_by_type("FUNCTION").len(), 2);
}

#[test]
fn process_validation_library_upgrade() {
    // "They upgraded the Python libraries ... introducing bugs in a
    // calculation routine. The group ... wanted to identify the
    // results that were affected by the erroneous routine." The
    // layered query is: descendants of the NEW library version that
    // also descend from a calc_heat invocation.
    let mut sys = System::single_volume();
    let pid = sys.spawn("pythonette");
    sys.kernel.mkdir_p(pid, "/lib").unwrap();

    // The library is itself a file the interpreter reads.
    sys.kernel
        .write_file(pid, "/lib/calc.py", b"def calc_heat... v1")
        .unwrap();

    let analysis = r#"
        def calc_heat(doc) { return xml_field(doc, "t"); }
        def unrelated(doc) { return "x"; }
        let lib = read_file("/lib/calc.py");   # loads the library
        let d1 = read_file("/data1.xml");
        let d2 = read_file("/data2.xml");
        write_file(out1, calc_heat(d1));       # uses the routine
        write_file(out2, unrelated(d2));       # does not
    "#;

    sys.kernel
        .write_file(pid, "/data1.xml", b"<t>97</t>")
        .unwrap();
    sys.kernel
        .write_file(pid, "/data2.xml", b"<t>82</t>")
        .unwrap();

    // Run 1 with the old library.
    let mut i1 = Interp::new(pid);
    i1.wrap("calc_heat");
    i1.run(
        &mut sys.kernel,
        &format!("let out1 = \"/r1-heat.out\"; let out2 = \"/r1-other.out\";{analysis}"),
    )
    .unwrap();

    // The upgrade: a new library version (the file is rewritten).
    sys.kernel
        .write_file(pid, "/lib/calc.py", b"def calc_heat... v2 BUGGY")
        .unwrap();

    // Run 2 with the new library, in a fresh process.
    let pid2 = sys.kernel.spawn_init("pythonette");
    let mut i2 = Interp::new(pid2);
    i2.wrap("calc_heat");
    i2.run(
        &mut sys.kernel,
        &format!("let out1 = \"/r2-heat.out\"; let out2 = \"/r2-other.out\";{analysis}"),
    )
    .unwrap();

    let w = ingest(&mut sys);
    assert_eq!(cycle(&w), Some(vec![(2, 0), (4, 0)]));

    // The library file object.
    let files = w.db.find_by_type("FILE");
    let lib = *w
        .db
        .find_by_name("/lib/calc.py")
        .iter()
        .find(|p| files.contains(p))
        .expect("library file recorded");

    // Outputs affected by the bug: descend from BOTH the library (at
    // its new version — the process read it after the rewrite) AND a
    // calc_heat invocation.
    let calc_invocations: Vec<dpapi::Pnode> =
        w.db.find_by_type("FUNCTION")
            .into_iter()
            .filter(|p| {
                w.db.object(*p)
                    .and_then(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
                    == Some(dpapi::Value::str("calc_heat"))
            })
            .collect();
    assert_eq!(calc_invocations.len(), 2, "one calc invocation per run");

    let affected: Vec<String> = [
        "/r1-heat.out",
        "/r1-other.out",
        "/r2-heat.out",
        "/r2-other.out",
    ]
    .iter()
    .filter_map(|name| {
        let p = *w.db.find_by_name(name).iter().find(|p| files.contains(p))?;
        let obj = w.db.object(p)?;
        let v = dpapi::Version(obj.current);
        let anc = w.db.ancestors(dpapi::ObjectRef::new(p, v));
        // Descends from the library's POST-UPGRADE version?
        let lib_obj = w.db.object(lib)?;
        let new_lib_version = dpapi::Version(lib_obj.current);
        let from_new_lib = anc
            .iter()
            .any(|r| r.pnode == lib && r.version == new_lib_version);
        // Descends from a calc_heat invocation?
        let from_calc = anc.iter().any(|r| calc_invocations.contains(&r.pnode));
        (from_new_lib && from_calc).then(|| name.to_string())
    })
    .collect();

    assert_eq!(
        affected,
        vec!["/r2-heat.out".to_string()],
        "exactly the post-upgrade calc output is implicated"
    );
}

#[test]
fn wrapper_blind_spot_is_layer_visible() {
    // PASS still sees what the wrappers miss: even though `+` drops
    // the value origin, the file-level dependency (process read the
    // input, wrote the output) survives at the OS layer.
    let mut sys = System::single_volume();
    let pid = sys.spawn("pythonette");
    sys.kernel.write_file(pid, "/in.txt", b"abc").unwrap();
    let mut interp = Interp::new(pid);
    interp
        .run(
            &mut sys.kernel,
            r#"
            let d = read_file("/in.txt");
            let mangled = d + d + "!";    # origins lost here
            write_file("/out.txt", mangled);
            "#,
        )
        .unwrap();
    let w = ingest(&mut sys);
    assert_eq!(cycle(&w), Some(vec![(1, 0), (2, 0)]));
    let files = w.db.find_by_type("FILE");
    let out = *w
        .db
        .find_by_name("/out.txt")
        .iter()
        .find(|p| files.contains(p))
        .unwrap();
    let obj = w.db.object(out).unwrap();
    let v = dpapi::Version(obj.current);
    let anc = w.db.ancestors(dpapi::ObjectRef::new(out, v));
    let ins = w.db.find_by_name("/in.txt");
    assert!(
        anc.iter().any(|r| ins.contains(&r.pnode)),
        "the OS layer preserves the file dependency the wrappers lost"
    );
}
