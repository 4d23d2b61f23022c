//! Kepler's provenance recording interface.
//!
//! Kepler records provenance for all communication between workflow
//! operators, "recording these events either in a text file or
//! relational database"; the paper adds a third option that transmits
//! the provenance into PASSv2 via the DPAPI (§6.2). All three
//! recorders are implemented here.

use dpapi::{Attribute, Bundle, Handle, ProvenanceRecord, Value};
use sim_os::proc::{Fd, Pid};
use sim_os::syscall::Kernel;

use crate::engine::Workflow;

/// The recording interface the director notifies.
pub trait Recorder {
    /// The workflow is about to execute.
    fn workflow_started(&mut self, kernel: &mut Kernel, pid: Pid, wf: &Workflow) {
        let _ = (kernel, pid, wf);
    }

    /// Operator `from` delivered a result to operator `to`.
    fn message(&mut self, kernel: &mut Kernel, pid: Pid, from: usize, to: usize) {
        let _ = (kernel, pid, from, to);
    }

    /// A source operator read `path` (fd still open).
    fn file_read(&mut self, kernel: &mut Kernel, pid: Pid, op: usize, fd: Fd, path: &str) {
        let _ = (kernel, pid, op, fd, path);
    }

    /// A sink operator wrote `path` (fd still open).
    fn file_written(&mut self, kernel: &mut Kernel, pid: Pid, op: usize, fd: Fd, path: &str) {
        let _ = (kernel, pid, op, fd, path);
    }

    /// The workflow completed.
    fn workflow_finished(&mut self, kernel: &mut Kernel, pid: Pid, wf: &Workflow) {
        let _ = (kernel, pid, wf);
    }
}

/// Discards all events.
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Kepler's classic text-file recorder.
#[derive(Default)]
pub struct TextRecorder {
    /// The recorded lines.
    pub lines: Vec<String>,
    /// Where to write the log at workflow end (optional).
    pub output_path: Option<String>,
}

impl Recorder for TextRecorder {
    fn workflow_started(&mut self, _k: &mut Kernel, _pid: Pid, wf: &Workflow) {
        self.lines
            .push(format!("workflow start: {} operators", wf.operators.len()));
    }

    fn message(&mut self, _k: &mut Kernel, _pid: Pid, from: usize, to: usize) {
        self.lines.push(format!("message {from} -> {to}"));
    }

    fn file_read(&mut self, _k: &mut Kernel, _pid: Pid, op: usize, _fd: Fd, path: &str) {
        self.lines.push(format!("op {op} read {path}"));
    }

    fn file_written(&mut self, _k: &mut Kernel, _pid: Pid, op: usize, _fd: Fd, path: &str) {
        self.lines.push(format!("op {op} wrote {path}"));
    }

    fn workflow_finished(&mut self, kernel: &mut Kernel, pid: Pid, _wf: &Workflow) {
        self.lines.push("workflow end".to_string());
        if let Some(path) = self.output_path.clone() {
            let body = self.lines.join("\n");
            let _ = kernel.write_file(pid, &path, body.as_bytes());
        }
    }
}

/// Kepler's relational recorder: rows in an in-memory table.
#[derive(Default)]
pub struct RelationalRecorder {
    /// (event, subject, object) rows.
    pub rows: Vec<(String, String, String)>,
}

impl Recorder for RelationalRecorder {
    fn message(&mut self, _k: &mut Kernel, _pid: Pid, from: usize, to: usize) {
        self.rows
            .push(("message".into(), from.to_string(), to.to_string()));
    }

    fn file_read(&mut self, _k: &mut Kernel, _pid: Pid, op: usize, _fd: Fd, path: &str) {
        self.rows
            .push(("read".into(), op.to_string(), path.to_string()));
    }

    fn file_written(&mut self, _k: &mut Kernel, _pid: Pid, op: usize, _fd: Fd, path: &str) {
        self.rows
            .push(("write".into(), op.to_string(), path.to_string()));
    }
}

/// The PASSv2 recorder: translates Kepler's provenance events into
/// explicit ancestor-descendant relationships through the DPAPI.
///
/// Every operator gets a PASS object (`pass_mkobj`) carrying `NAME`,
/// `TYPE=OPERATOR` and `PARAMS` records; message events become INPUT
/// edges between operator objects; source/sink file events link
/// Kepler's provenance to the files in PASSv2.
#[derive(Default)]
pub struct DpapiRecorder {
    handles: Vec<Handle>,
    /// Identities of the operator objects (exposed for tests).
    pub identities: Vec<dpapi::ObjectRef>,
}

impl DpapiRecorder {
    /// Creates an empty recorder; objects are created at
    /// `workflow_started`.
    pub fn new() -> Self {
        DpapiRecorder::default()
    }

    fn identity(&self, op: usize) -> Option<dpapi::ObjectRef> {
        self.identities.get(op).copied()
    }
}

impl Recorder for DpapiRecorder {
    fn workflow_started(&mut self, kernel: &mut Kernel, pid: Pid, wf: &Workflow) {
        // DPAPI v2: the whole workflow's operator objects come from
        // one mkobj transaction, and their TYPE/NAME/PARAMS records
        // commit in a second — two syscalls for the workflow instead
        // of two per operator, and an operator set that discloses
        // atomically or not at all. (Two commits, not one, because a
        // transaction's ops may only reference pre-existing handles.)
        let mut mk = dpapi::Txn::new();
        for _ in &wf.operators {
            mk.mkobj(None);
        }
        let Ok(made) = kernel.pass_commit(pid, mk) else {
            return;
        };
        let handles: Vec<Handle> = made.iter().filter_map(dpapi::OpResult::as_handle).collect();
        let mut disclose = dpapi::Txn::new();
        for (op, &h) in wf.operators.iter().zip(&handles) {
            let params = op
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let mut bundle = Bundle::new();
            bundle.push(
                h,
                ProvenanceRecord::new(Attribute::Type, Value::str("OPERATOR")),
            );
            bundle.push(
                h,
                ProvenanceRecord::new(Attribute::Name, Value::str(&op.name)),
            );
            if !params.is_empty() {
                bundle.push(
                    h,
                    ProvenanceRecord::new(Attribute::Params, Value::str(params)),
                );
            }
            disclose.disclose(h, bundle);
        }
        let _ = kernel.pass_commit(pid, disclose);
        for &h in &handles {
            let identity = kernel
                .pass_read(pid, h, 0, 0)
                .map(|r| r.identity)
                .unwrap_or(dpapi::ObjectRef::new(dpapi::Pnode::NULL, dpapi::Version(0)));
            self.handles.push(h);
            self.identities.push(identity);
        }
    }

    fn message(&mut self, kernel: &mut Kernel, pid: Pid, from: usize, to: usize) {
        // "Upon receipt of the event, we add an ancestry relationship
        // between this operator and every recipient of the message."
        let (Some(&to_h), Some(from_id)) = (self.handles.get(to), self.identity(from)) else {
            return;
        };
        let bundle = Bundle::single(to_h, ProvenanceRecord::input(from_id));
        let _ = kernel.pass_write(pid, to_h, 0, &[], bundle);
    }

    fn file_read(&mut self, kernel: &mut Kernel, pid: Pid, op: usize, fd: Fd, _path: &str) {
        // The operator depends on the file it read.
        let Some(&op_h) = self.handles.get(op) else {
            return;
        };
        let Ok(file_h) = kernel.pass_handle_for_fd(pid, fd) else {
            return;
        };
        let Ok(r) = kernel.pass_read(pid, file_h, 0, 0) else {
            return;
        };
        let bundle = Bundle::single(op_h, ProvenanceRecord::input(r.identity));
        let _ = kernel.pass_write(pid, op_h, 0, &[], bundle);
    }

    fn file_written(&mut self, kernel: &mut Kernel, pid: Pid, op: usize, fd: Fd, _path: &str) {
        // The file depends on the operator that wrote it: this is the
        // record that stitches Kepler's provenance into PASSv2's.
        let Some(op_id) = self.identity(op) else {
            return;
        };
        let Ok(file_h) = kernel.pass_handle_for_fd(pid, fd) else {
            return;
        };
        let bundle = Bundle::single(file_h, ProvenanceRecord::input(op_id));
        let _ = kernel.pass_write(pid, file_h, 0, &[], bundle);
    }

    fn workflow_finished(&mut self, kernel: &mut Kernel, pid: Pid, _wf: &Workflow) {
        // Make operator provenance durable even if an operator has no
        // persistent descendant (e.g. a sink failed): one transaction
        // of syncs, one syscall for the whole workflow.
        let mut txn = dpapi::Txn::new();
        for &h in &self.handles {
            txn.sync(h);
        }
        let _ = kernel.pass_commit(pid, txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{mix, run, OpKind, Workflow};
    use std::rc::Rc;

    #[test]
    fn text_recorder_logs_messages_and_io() {
        let mut sys = passv2::System::baseline();
        let pid = sys.spawn("kepler");
        sys.kernel.write_file(pid, "/in", b"x").unwrap();
        let mut wf = Workflow::new();
        let s = wf.add("src", OpKind::FileSource { path: "/in".into() });
        let t = wf.add(
            "t",
            OpKind::Transform {
                f: Rc::new(|ins| mix("t", ins)),
                cpu_units: 1,
            },
        );
        let k = wf.add(
            "sink",
            OpKind::FileSink {
                path: "/out".into(),
            },
        );
        wf.connect(s, t);
        wf.connect(t, k);
        let mut rec = TextRecorder {
            output_path: Some("/kepler.log".into()),
            ..Default::default()
        };
        run(&wf, &mut sys.kernel, pid, &mut rec).unwrap();
        let log = sys.kernel.read_file(pid, "/kepler.log").unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("message 0 -> 1"));
        assert!(text.contains("op 0 read /in"));
        assert!(text.contains("op 2 wrote /out"));
    }

    #[test]
    fn dpapi_recorder_creates_operator_objects() {
        let mut sys = passv2::System::single_volume();
        let pid = sys.spawn("kepler");
        sys.kernel.write_file(pid, "/in", b"x").unwrap();
        let mut wf = Workflow::new();
        let s = wf.add("reader", OpKind::FileSource { path: "/in".into() });
        let sink = wf.add_with_params(
            "writer",
            &[("fileName", "/out"), ("confirmOverwrite", "true")],
            OpKind::FileSink {
                path: "/out".into(),
            },
        );
        wf.connect(s, sink);
        let mut rec = DpapiRecorder::new();
        run(&wf, &mut sys.kernel, pid, &mut rec).unwrap();
        assert_eq!(rec.identities.len(), 2);
        assert!(rec.identities.iter().all(|i| !i.pnode.is_null()));

        // Ingest and check the operator objects are in the database
        // with NAME/TYPE/PARAMS, and that /out descends from the
        // writer operator.
        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut waldo = waldo::Waldo::new(waldo_pid);
        for (_, logs) in sys.rotate_all_logs() {
            for log in logs {
                waldo.ingest_log_file(&mut sys.kernel, &log);
            }
        }
        let ops = waldo.db.find_by_type("OPERATOR");
        assert_eq!(ops.len(), 2);
        let writer = ops
            .iter()
            .find(|p| {
                waldo
                    .db
                    .object(**p)
                    .and_then(|o| o.first_attr(&Attribute::Name).cloned())
                    == Some(Value::str("writer"))
            })
            .expect("writer operator recorded");
        let params = waldo
            .db
            .object(*writer)
            .and_then(|o| o.first_attr(&Attribute::Params).cloned())
            .expect("PARAMS recorded");
        assert_eq!(params, Value::str("fileName=/out,confirmOverwrite=true"));
        // /out has the writer operator among its ancestors.
        let outs = waldo.db.find_by_name("/out");
        assert_eq!(outs.len(), 1);
        let out_obj = waldo.db.object(outs[0]).unwrap();
        let v = dpapi::Version(out_obj.current);
        let anc = waldo.db.ancestors(dpapi::ObjectRef::new(outs[0], v));
        assert!(
            anc.iter().any(|r| r.pnode == *writer),
            "output must descend from the writer operator: {anc:?}"
        );
        // And transitively from the reader operator via the message
        // edge.
        let reader = ops.iter().find(|p| *p != writer).unwrap();
        assert!(
            anc.iter().any(|r| r.pnode == *reader),
            "output must descend from the reader through message edges"
        );
    }
}
