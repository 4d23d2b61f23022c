//! Regenerates Table 1: the provenance record types each
//! provenance-aware application collects.
//!
//! Each application runs a small scenario on a fresh PASSv2 machine;
//! the distinct record attributes it disclosed are then read back out
//! of the provenance database.
//!
//! ```text
//! cargo run -p bench --bin table1
//! ```

use std::collections::BTreeSet;

use dpapi::VolumeId;
use links::{demo_web, Session};
use pa_python::Interp;
use passv2::System;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;

/// Runs Waldo over a system's logs and returns every attribute name
/// recorded for objects of `subject_type`, plus (optionally) the
/// attributes on files they produced.
fn record_types(sys: &mut System, subject_types: &[&str]) -> BTreeSet<String> {
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let mut out = BTreeSet::new();
    for ty in subject_types {
        for p in w.db.find_by_type(ty) {
            w.db.with_object(p, |obj| {
                for v in obj.versions.values() {
                    for (a, _) in &v.attrs {
                        out.insert(a.as_str().to_string());
                    }
                    for (a, _) in &v.inputs {
                        out.insert(a.as_str().to_string());
                    }
                }
            });
        }
    }
    out
}

fn pa_links_types() -> BTreeSet<String> {
    let mut sys = System::single_volume();
    let pid = sys.spawn("links");
    sys.kernel.mkdir_p(pid, "/home").unwrap();
    let web = demo_web();
    let mut s = Session::open(&mut sys.kernel, pid).unwrap();
    s.visit(&mut sys.kernel, &web, "http://uni.example/")
        .unwrap();
    s.download(
        &mut sys.kernel,
        &web,
        "http://uni.example/graphs/speedup.gif",
        "/home/graph.gif",
    )
    .unwrap();
    // Collect from both the session object and the downloaded file
    // (FILE_URL / CURRENT_URL / INPUT live on the file).
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let mut subjects = w.db.find_by_type("SESSION");
    subjects.extend(w.db.find_by_name("/home/graph.gif"));
    let mut out = BTreeSet::new();
    for p in subjects {
        w.db.with_object(p, |obj| {
            for v in obj.versions.values() {
                for (a, _) in &v.attrs {
                    out.insert(a.as_str().to_string());
                }
                for (a, _) in &v.inputs {
                    out.insert(a.as_str().to_string());
                }
            }
        });
    }
    out
}

fn pa_kepler_types() -> BTreeSet<String> {
    let mut sys = System::single_volume();
    let driver = sys.spawn("kepler");
    let wl = workloads::PaKepler {
        rows: 50,
        cpu_per_stage: 10,
        provenance_aware: true,
    };
    workloads::Workload::run(&wl, &mut sys.kernel, driver, "/").unwrap();
    record_types(&mut sys, &["OPERATOR"])
}

fn pa_python_types() -> BTreeSet<String> {
    let mut sys = System::single_volume();
    let pid = sys.spawn("pythonette");
    sys.kernel
        .write_file(pid, "/exp.xml", b"<heat>12</heat>")
        .unwrap();
    let mut interp = Interp::new(pid);
    interp.wrap("crack_heat");
    interp
        .run(
            &mut sys.kernel,
            r#"
            def crack_heat(doc) { return xml_field(doc, "heat"); }
            let d = read_file("/exp.xml");
            write_file("/plot.dat", crack_heat(d));
            "#,
        )
        .unwrap();
    record_types(&mut sys, &["FUNCTION"])
}

fn pa_nfs_types() -> BTreeSet<String> {
    // Drive a chunked provenance transaction through a PA-NFS pair
    // and report the transaction-level record types plus FREEZE.
    use dpapi::{Attribute, Bundle, Dpapi, ProvenanceRecord, Value};
    use sim_os::fs::{DpapiVolume, FileSystem};
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(3));
    let mut client = pa_nfs::client(&server, clock.clone(), model);
    let root = client.root();
    let ino = client.create(root, "big").unwrap();
    let h = client.handle_for_ino(ino).unwrap();
    client.pass_freeze(h).unwrap();
    // An oversized bundle forces BEGINTXN / ENDTXN.
    let mut bundle = Bundle::new();
    for i in 0..3000 {
        bundle.push(
            h,
            ProvenanceRecord::new(
                Attribute::Other("NOTE".into()),
                Value::str(format!("chunked provenance record number {i}")),
            ),
        );
    }
    client.pass_write(h, 0, b"data", bundle).unwrap();
    let mut types = BTreeSet::new();
    for image in server.borrow_mut().drain_provenance_logs() {
        let (entries, _) = lasagna::parse_log(&image);
        for e in entries {
            match e {
                lasagna::LogEntry::TxnBegin { .. } => {
                    types.insert("BEGINTXN".to_string());
                }
                lasagna::LogEntry::TxnEnd { .. } => {
                    types.insert("ENDTXN".to_string());
                }
                lasagna::LogEntry::Prov { record, .. } => {
                    if record.attribute == Attribute::Freeze {
                        types.insert("FREEZE".to_string());
                    }
                }
                lasagna::LogEntry::DataWrite { .. } => {}
            }
        }
    }
    types
}

fn print_section(app: &str, types: &BTreeSet<String>, expected: &[&str]) {
    println!("{app}");
    for t in types {
        let marker = if expected.contains(&t.as_str()) {
            " (Table 1)"
        } else {
            ""
        };
        println!("  {t}{marker}");
    }
    println!();
}

fn main() {
    println!("Table 1: Provenance records collected by each PA application\n");
    print_section("PA-NFS", &pa_nfs_types(), &["BEGINTXN", "ENDTXN", "FREEZE"]);
    print_section(
        "PA-Kepler",
        &pa_kepler_types(),
        &["TYPE", "NAME", "PARAMS", "INPUT"],
    );
    print_section(
        "PA-links",
        &pa_links_types(),
        &["TYPE", "VISITED_URL", "FILE_URL", "CURRENT_URL", "INPUT"],
    );
    print_section("PA-Python", &pa_python_types(), &["TYPE", "NAME", "INPUT"]);
}
