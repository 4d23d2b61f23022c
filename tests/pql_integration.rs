//! PQL over a real provenance database built by the full stack:
//! the paper's sample query, descendant queries, aggregates and
//! sub-queries.

use passv2::System;

/// Builds a database from a small shell-pipeline-like scenario:
/// `gen` writes raw.dat; `filter` reads raw.dat and writes out.dat;
/// `report` reads out.dat and writes report.txt.
fn scenario_db() -> (waldo::Waldo, System) {
    let mut sys = System::single_volume();
    for (exe, input, output) in [
        ("/bin/gen", None, Some("/raw.dat")),
        ("/bin/filter", Some("/raw.dat"), Some("/out.dat")),
        ("/bin/report", Some("/out.dat"), Some("/report.txt")),
    ] {
        let pid = sys.kernel.spawn_init(exe);
        sys.kernel.execve(pid, exe, &[exe.to_string()], &[]).ok();
        let data = match input {
            Some(path) => sys.kernel.read_file(pid, path).unwrap(),
            None => b"seed".to_vec(),
        };
        if let Some(path) = output {
            let mut out = data.clone();
            out.extend_from_slice(exe.as_bytes());
            sys.kernel.write_file(pid, path, &out).unwrap();
        }
        sys.kernel.exit(pid);
    }
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut w = waldo::Waldo::new(waldo_pid);
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    (w, sys)
}

#[test]
fn paper_query_shape_over_real_data() {
    let (w, _sys) = scenario_db();
    let rs = pql::query(
        r#"select Ancestor
           from Provenance.file as F
                F.input* as Ancestor
           where F.name = "/report.txt""#,
        &w.db,
    )
    .unwrap();
    // Ancestry reaches back through both processes to the seed file.
    let names: Vec<String> = rs
        .nodes()
        .iter()
        .filter_map(|n| w.db.object(n.pnode))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
        .map(|v| v.to_string())
        .collect();
    assert!(names.iter().any(|n| n.contains("/out.dat")));
    assert!(names.iter().any(|n| n.contains("/raw.dat")));
    assert!(names.iter().any(|n| n.contains("/bin/filter")));
    assert!(names.iter().any(|n| n.contains("/bin/gen")));
}

#[test]
fn descendant_query_finds_taint() {
    let (w, _sys) = scenario_db();
    let rs = pql::query(
        "select D from Provenance.file as F F.input~* as D \
         where F.name = '/raw.dat'",
        &w.db,
    )
    .unwrap();
    let names: Vec<String> = rs
        .nodes()
        .iter()
        .filter_map(|n| w.db.object(n.pnode))
        .filter_map(|o| o.first_attr(&dpapi::Attribute::Name).cloned())
        .map(|v| v.to_string())
        .collect();
    assert!(names.iter().any(|n| n.contains("/out.dat")));
    assert!(names.iter().any(|n| n.contains("/report.txt")));
}

#[test]
fn aggregates_and_filters() {
    let (w, _sys) = scenario_db();
    let rs = pql::query(
        "select count(A) as n from Provenance.file as F F.input+ as A \
         where F.name = '/report.txt'",
        &w.db,
    )
    .unwrap();
    let n = rs.rows[0][0].as_int().unwrap();
    assert!(n >= 4, "at least files+procs in the closure, got {n}");

    // A like-filter over names.
    let rs = pql::query(
        "select F.name from Provenance.file as F where F.name like '/*.dat'",
        &w.db,
    )
    .unwrap();
    assert_eq!(rs.len(), 2, "raw.dat and out.dat");
}

#[test]
fn subquery_connects_layers() {
    let (w, _sys) = scenario_db();
    // Which processes are a *direct* input of some file? (membership
    // subquery; PQL subqueries are uncorrelated, as in Lorel)
    let rs = pql::query(
        "select P.name from Provenance.proc as P \
         where P in (select Src from Provenance.file as F F.input as Src)",
        &w.db,
    )
    .unwrap();
    let names: Vec<&str> = rs.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert!(names.contains(&"/bin/gen"));
    assert!(names.contains(&"/bin/filter"));
    assert!(names.contains(&"/bin/report"));
}

/// The paper's §5.7 ancestry query with a `name` equality predicate
/// resolves its root binding through the store's attribute index —
/// no full `class_members` scan — and the planner reports it: one
/// index hit, zero scan bindings, candidates pruned, closure walks
/// saved. Served through `System::query`, so the counters also
/// accumulate on the daemon.
#[test]
fn paper_query_pushes_name_predicate_into_the_index() {
    let (mut w, sys) = scenario_db();
    let out = sys
        .query(
            &mut w,
            r#"select Ancestor
               from Provenance.file as Atlas
                    Atlas.input* as Ancestor
               where Atlas.name = "/report.txt""#,
        )
        .unwrap();
    assert!(!out.result.is_empty());
    assert_eq!(out.stats.index_hits, 1, "{:?}", out.stats);
    assert_eq!(
        out.stats.scan_bindings, 0,
        "the root binding must not scan: {:?}",
        out.stats
    );
    assert_eq!(out.stats.predicates_pushed, 1);
    assert!(
        out.stats.rows_pruned >= 2,
        "the other files must be pruned at the root: {:?}",
        out.stats
    );
    assert!(
        out.stats.closure_calls_saved >= 2,
        "each pruned root saves one input* walk: {:?}",
        out.stats
    );
    assert_eq!(out.stats.naive_fallbacks, 0);

    // Identical rows to the naive evaluator.
    let q = pql::parse(
        "select Ancestor from Provenance.file as Atlas Atlas.input* as Ancestor \
         where Atlas.name = '/report.txt'",
    )
    .unwrap();
    let naive = pql::execute_naive(&q, &w.db).unwrap();
    assert_eq!(out.result.rows, naive.rows);

    // The daemon accumulated the counters.
    let ops = w.query_ops();
    assert_eq!(ops.queries, 1);
    assert_eq!(ops.planner.index_hits, 1);
}

/// Prefix-`like` predicates push down too (range scan over the
/// ordered name index).
#[test]
fn prefix_like_pushes_down() {
    let (mut w, _sys) = scenario_db();
    let out = w
        .query("select F.name from Provenance.file as F where F.name like '/out*'")
        .unwrap();
    assert_eq!(out.result.len(), 1);
    assert_eq!(out.stats.index_hits, 1, "{:?}", out.stats);
    assert_eq!(out.stats.scan_bindings, 0);

    // A non-prefix pattern cannot use the index: scan + post-filter,
    // but the same rows.
    let scan = w
        .query("select F.name from Provenance.file as F where F.name like '*.dat'")
        .unwrap();
    assert_eq!(scan.stats.index_hits, 0);
    assert_eq!(scan.stats.scan_bindings, 1);
    assert_eq!(scan.result.len(), 2);
}

#[test]
fn queries_are_deterministic() {
    let (w, _sys) = scenario_db();
    let q = "select A from Provenance.file as F F.input* as A where F.name = '/report.txt'";
    let a = pql::query(q, &w.db).unwrap();
    let b = pql::query(q, &w.db).unwrap();
    assert_eq!(a.rows, b.rows);
}

/// A deep closure and its inverse, against what the scenario's
/// generator knows the answer to be. A 60-stage pipeline: stage `i`
/// reads stage `i - 1`'s file and writes its own. Beside it, a
/// journal written by `/bin/writer-a` from `/secret-a`, read by
/// `/bin/peek`, then overwritten by `/bin/writer-b` from `/secret-b` —
/// a new version, since the old one has a reader — and read by the
/// middle stage. `/secret-a` reaches the pipeline only across the
/// journal's implicit version edge. The ancestry of the last file is
/// every file and process of the chain plus both writers' sides (over
/// 120 rows) but not the peeker; the descendants of `/secret-a` are
/// its writer, the journal, the peeker and the chain from the middle
/// stage on — not `/bin/writer-b`, and nothing upstream.
#[test]
fn deep_closures_match_the_generated_pipeline() {
    use std::collections::BTreeSet;
    const STAGES: usize = 60;
    const MID: usize = STAGES / 2;
    let mut sys = System::single_volume();
    let run = |sys: &mut System, exe: &str, reads: &[String], writes: &str| {
        let pid = sys.kernel.spawn_init(exe);
        sys.kernel.execve(pid, exe, &[exe.to_string()], &[]).ok();
        let mut data = exe.as_bytes().to_vec();
        for path in reads {
            data.extend(sys.kernel.read_file(pid, path).unwrap());
        }
        data.truncate(256);
        sys.kernel.write_file(pid, writes, &data).unwrap();
        sys.kernel.exit(pid);
    };
    run(&mut sys, "/bin/mk-a", &[], "/secret-a");
    run(&mut sys, "/bin/mk-b", &[], "/secret-b");
    run(&mut sys, "/bin/writer-a", &["/secret-a".into()], "/journal");
    run(&mut sys, "/bin/peek", &["/journal".into()], "/peeked");
    run(&mut sys, "/bin/writer-b", &["/secret-b".into()], "/journal");
    for i in 0..STAGES {
        let mut reads = Vec::new();
        if i > 0 {
            reads.push(format!("/chain{}", i - 1));
        }
        if i == MID {
            reads.push("/journal".into());
        }
        run(
            &mut sys,
            &format!("/bin/stage{i}"),
            &reads,
            &format!("/chain{i}"),
        );
    }
    let mut w = sys.spawn_waldo();
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            w.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let mut ask = |text: String| -> BTreeSet<String> {
        let out = w.query(&text).unwrap();
        assert_eq!(out.stats.index_hits, 1, "{:?}", out.stats);
        let names = out
            .result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string());
        names.collect()
    };
    let set =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
    let stages = |range: std::ops::Range<usize>| -> BTreeSet<String> {
        range
            .flat_map(|i| [format!("/chain{i}"), format!("/bin/stage{i}")])
            .collect()
    };

    let ancestry = format!(
        "select A.name from Provenance.file as F F.input* as A where F.name = '/chain{}'",
        STAGES - 1
    );
    let mut upstream = stages(0..STAGES);
    upstream.extend(set(&[
        "/journal",
        "/bin/writer-a",
        "/bin/writer-b",
        "/secret-a",
        "/secret-b",
        "/bin/mk-a",
        "/bin/mk-b",
    ]));
    let answer = ask(ancestry.clone());
    assert!(answer.len() >= 100, "a deep closure: {} rows", answer.len());
    assert_eq!(answer, upstream);

    let mut downstream = stages(MID..STAGES);
    downstream.extend(set(&[
        "/secret-a",
        "/bin/writer-a",
        "/journal",
        "/bin/peek",
        "/peeked",
    ]));
    let taint = "select D.name from Provenance.file as F F.input~* as D where F.name = '/secret-a'";
    assert_eq!(ask(taint.to_string()), downstream);

    // Asked again, the answer comes from the closure cache, unchanged.
    assert_eq!(ask(ancestry), upstream);
}
