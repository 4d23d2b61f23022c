//! The Pythonette interpreter and its provenance wrappers.
//!
//! The wrapper layer reproduces the PA-Python design of paper §6.4:
//! wrapped functions become PASS objects (`TYPE=FUNCTION`, `NAME`)
//! created with `pass_mkobj`; every invocation records `INPUT`
//! dependencies between each input and the invocation, and between
//! the invocation and each of its outputs. Values carry an optional
//! *origin* (the provenance identity of the object they came from) —
//! and, exactly as the paper observed, origins are *lost across
//! built-in operators*: wrapping functions makes an application
//! provenance-aware, not the interpreter itself (§6.5).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use dpapi::{Attribute, Bundle, ObjectRef, ProvenanceRecord, Value as DValue};
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};

use crate::syntax::{parse, Expr, Stmt, SyntaxError};

/// Runtime errors.
#[derive(Debug)]
pub enum PyError {
    /// A parse failure.
    Syntax(SyntaxError),
    /// A runtime failure.
    Runtime(String),
}

impl std::fmt::Display for PyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PyError::Syntax(e) => write!(f, "{e}"),
            PyError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for PyError {}

impl From<SyntaxError> for PyError {
    fn from(e: SyntaxError) -> Self {
        PyError::Syntax(e)
    }
}

fn rt(msg: impl Into<String>) -> PyError {
    PyError::Runtime(msg.into())
}

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Val {
    /// Integer.
    Int(i64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// `none`.
    None,
    /// A list (reference semantics, as in Python).
    List(Rc<RefCell<Vec<PValue>>>),
}

impl PartialEq for Val {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => a == b,
            (Val::Str(a), Val::Str(b)) => a == b,
            (Val::Bool(a), Val::Bool(b)) => a == b,
            (Val::None, Val::None) => true,
            (Val::List(a), Val::List(b)) => {
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.v == y.v)
            }
            _ => false,
        }
    }
}

/// A value with its provenance origin.
#[derive(Clone, Debug, PartialEq)]
pub struct PValue {
    /// The value.
    pub v: Val,
    /// Where it came from, if tracked.
    pub origin: Option<ObjectRef>,
}

impl PValue {
    /// An origin-less value.
    pub fn plain(v: Val) -> PValue {
        PValue { v, origin: None }
    }

    /// `none`.
    pub fn none() -> PValue {
        PValue::plain(Val::None)
    }

    fn truthy(&self) -> bool {
        match &self.v {
            Val::Bool(b) => *b,
            Val::Int(i) => *i != 0,
            Val::Str(s) => !s.is_empty(),
            Val::None => false,
            Val::List(l) => !l.borrow().is_empty(),
        }
    }
}

enum Flow {
    Normal(#[allow(dead_code)] PValue),
    Return(PValue),
}

/// One recorded wrapped invocation (for tests and reports).
#[derive(Clone, Debug)]
pub struct Invocation {
    /// The function name.
    pub name: String,
    /// The invocation object's identity.
    pub identity: ObjectRef,
    /// Origins of the inputs that carried provenance.
    pub inputs: Vec<ObjectRef>,
}

/// The interpreter.
pub struct Interp {
    pid: Pid,
    funcs: HashMap<String, (Vec<String>, Vec<Stmt>)>,
    globals: HashMap<String, PValue>,
    wrapped: HashSet<String>,
    step_limit: u64,
    steps: u64,
    /// Wrapped invocations performed, in order.
    pub invocations: Vec<Invocation>,
}

impl Interp {
    /// Creates an interpreter running as `pid`.
    pub fn new(pid: Pid) -> Interp {
        Interp {
            pid,
            funcs: HashMap::new(),
            globals: HashMap::new(),
            wrapped: HashSet::new(),
            step_limit: 10_000_000,
            steps: 0,
            invocations: Vec::new(),
        }
    }

    /// Wraps a function: its invocations become provenance objects.
    /// "By wrapping a few modules and objects we record the
    /// information flow pertaining to those objects."
    pub fn wrap(&mut self, name: &str) {
        self.wrapped.insert(name.to_string());
    }

    /// Runs a program, returning the value of `main()` if defined, or
    /// `none`.
    pub fn run(&mut self, kernel: &mut Kernel, src: &str) -> Result<PValue, PyError> {
        let prog = parse(src)?;
        let mut scope = HashMap::new();
        for stmt in &prog {
            if let Flow::Return(v) = self.exec(kernel, stmt, &mut scope)? {
                return Ok(v);
            }
        }
        self.globals.extend(scope);
        Ok(PValue::none())
    }

    fn tick(&mut self) -> Result<(), PyError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(rt("step limit exceeded (infinite loop?)"));
        }
        Ok(())
    }

    fn exec(
        &mut self,
        kernel: &mut Kernel,
        stmt: &Stmt,
        scope: &mut HashMap<String, PValue>,
    ) -> Result<Flow, PyError> {
        self.tick()?;
        match stmt {
            Stmt::Def(name, params, body) => {
                self.funcs
                    .insert(name.clone(), (params.clone(), body.clone()));
                Ok(Flow::Normal(PValue::none()))
            }
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                let v = self.eval(kernel, e, scope)?;
                scope.insert(name.clone(), v);
                Ok(Flow::Normal(PValue::none()))
            }
            Stmt::Expr(e) => {
                let v = self.eval(kernel, e, scope)?;
                Ok(Flow::Normal(v))
            }
            Stmt::If(cond, then, els) => {
                let c = self.eval(kernel, cond, scope)?;
                let body = if c.truthy() { then } else { els };
                for s in body {
                    if let Flow::Return(v) = self.exec(kernel, s, scope)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal(PValue::none()))
            }
            Stmt::For(var, iter, body) => {
                let it = self.eval(kernel, iter, scope)?;
                let items: Vec<PValue> = match &it.v {
                    Val::List(l) => l.borrow().clone(),
                    other => return Err(rt(format!("cannot iterate over {other:?}"))),
                };
                for item in items {
                    scope.insert(var.clone(), item);
                    for s in body {
                        if let Flow::Return(v) = self.exec(kernel, s, scope)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Ok(Flow::Normal(PValue::none()))
            }
            Stmt::While(cond, body) => {
                while self.eval(kernel, cond, scope)?.truthy() {
                    self.tick()?;
                    for s in body {
                        if let Flow::Return(v) = self.exec(kernel, s, scope)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Ok(Flow::Normal(PValue::none()))
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(kernel, e, scope)?,
                    None => PValue::none(),
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn eval(
        &mut self,
        kernel: &mut Kernel,
        expr: &Expr,
        scope: &mut HashMap<String, PValue>,
    ) -> Result<PValue, PyError> {
        self.tick()?;
        match expr {
            Expr::Int(n) => Ok(PValue::plain(Val::Int(*n))),
            Expr::Str(s) => Ok(PValue::plain(Val::Str(s.clone()))),
            Expr::Bool(b) => Ok(PValue::plain(Val::Bool(*b))),
            Expr::None => Ok(PValue::none()),
            Expr::List(items) => {
                let vals: Result<Vec<PValue>, PyError> =
                    items.iter().map(|e| self.eval(kernel, e, scope)).collect();
                Ok(PValue::plain(Val::List(Rc::new(RefCell::new(vals?)))))
            }
            Expr::Var(name) => scope
                .get(name)
                .or_else(|| self.globals.get(name))
                .cloned()
                .ok_or_else(|| rt(format!("undefined variable `{name}`"))),
            Expr::Unary(op, e) => {
                let v = self.eval(kernel, e, scope)?;
                match (*op, &v.v) {
                    ("-", Val::Int(i)) => Ok(PValue::plain(Val::Int(-i))),
                    ("not", _) => Ok(PValue::plain(Val::Bool(!v.truthy()))),
                    (op, other) => Err(rt(format!("bad operand for `{op}`: {other:?}"))),
                }
            }
            Expr::Binary(op, a, b) => {
                let lhs = self.eval(kernel, a, scope)?;
                if *op == "and" {
                    if !lhs.truthy() {
                        return Ok(PValue::plain(Val::Bool(false)));
                    }
                    let rhs = self.eval(kernel, b, scope)?;
                    return Ok(PValue::plain(Val::Bool(rhs.truthy())));
                }
                if *op == "or" {
                    if lhs.truthy() {
                        return Ok(PValue::plain(Val::Bool(true)));
                    }
                    let rhs = self.eval(kernel, b, scope)?;
                    return Ok(PValue::plain(Val::Bool(rhs.truthy())));
                }
                let rhs = self.eval(kernel, b, scope)?;
                // NOTE: built-in operators produce origin-less values;
                // this is the wrapper blind spot the paper documents.
                let v = match (*op, &lhs.v, &rhs.v) {
                    ("+", Val::Int(x), Val::Int(y)) => Val::Int(x + y),
                    ("+", Val::Str(x), Val::Str(y)) => Val::Str(format!("{x}{y}")),
                    ("-", Val::Int(x), Val::Int(y)) => Val::Int(x - y),
                    ("*", Val::Int(x), Val::Int(y)) => Val::Int(x * y),
                    ("/", Val::Int(x), Val::Int(y)) => {
                        if *y == 0 {
                            return Err(rt("division by zero"));
                        }
                        Val::Int(x / y)
                    }
                    ("%", Val::Int(x), Val::Int(y)) => {
                        if *y == 0 {
                            return Err(rt("modulo by zero"));
                        }
                        Val::Int(x % y)
                    }
                    ("==", _, _) => Val::Bool(lhs.v == rhs.v),
                    ("!=", _, _) => Val::Bool(lhs.v != rhs.v),
                    ("<", Val::Int(x), Val::Int(y)) => Val::Bool(x < y),
                    ("<=", Val::Int(x), Val::Int(y)) => Val::Bool(x <= y),
                    (">", Val::Int(x), Val::Int(y)) => Val::Bool(x > y),
                    (">=", Val::Int(x), Val::Int(y)) => Val::Bool(x >= y),
                    ("<", Val::Str(x), Val::Str(y)) => Val::Bool(x < y),
                    (">", Val::Str(x), Val::Str(y)) => Val::Bool(x > y),
                    (op, x, y) => {
                        return Err(rt(format!("bad operands for `{op}`: {x:?}, {y:?}")));
                    }
                };
                Ok(PValue::plain(v))
            }
            Expr::Index(e, idx) => {
                let v = self.eval(kernel, e, scope)?;
                let i = self.eval(kernel, idx, scope)?;
                match (&v.v, &i.v) {
                    (Val::List(l), Val::Int(n)) => {
                        let l = l.borrow();
                        let idx = *n as usize;
                        l.get(idx)
                            .cloned()
                            .ok_or_else(|| rt(format!("index {n} out of range")))
                    }
                    (x, y) => Err(rt(format!("cannot index {x:?} with {y:?}"))),
                }
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(kernel, a, scope)?);
                }
                self.call(kernel, name, vals)
            }
        }
    }

    fn call(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        args: Vec<PValue>,
    ) -> Result<PValue, PyError> {
        if let Some(v) = self.builtin(kernel, name, &args)? {
            return Ok(v);
        }
        let (params, body) = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| rt(format!("undefined function `{name}`")))?;
        if params.len() != args.len() {
            return Err(rt(format!(
                "`{name}` takes {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        let wrapped = self.wrapped.contains(name);
        let invocation = if wrapped {
            self.begin_invocation(kernel, name, &args)
        } else {
            None
        };
        let mut scope: HashMap<String, PValue> = params.into_iter().zip(args).collect();
        let mut result = PValue::none();
        for s in &body {
            if let Flow::Return(v) = self.exec(kernel, s, &mut scope)? {
                result = v;
                break;
            }
        }
        if let Some(inv) = invocation {
            result = self.end_invocation(kernel, inv, result);
        }
        Ok(result)
    }

    /// Creates the invocation object and records input dependencies.
    fn begin_invocation(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        args: &[PValue],
    ) -> Option<Invocation> {
        let h = kernel.pass_mkobj(self.pid, None).ok()?;
        let mut bundle = Bundle::new();
        bundle.push(
            h,
            ProvenanceRecord::new(Attribute::Type, DValue::str("FUNCTION")),
        );
        bundle.push(h, ProvenanceRecord::new(Attribute::Name, DValue::str(name)));
        let mut inputs = Vec::new();
        for a in args {
            for origin in collect_origins(a) {
                bundle.push(h, ProvenanceRecord::input(origin));
                inputs.push(origin);
            }
        }
        // One disclosure transaction for the invocation: its records
        // and the durability sync commit atomically (and cost one
        // syscall instead of two).
        let mut txn = dpapi::Txn::new();
        txn.disclose(h, bundle).sync(h);
        kernel.pass_commit(self.pid, txn).ok()?;
        let identity = kernel.pass_read(self.pid, h, 0, 0).ok()?.identity;
        let inv = Invocation {
            name: name.to_string(),
            identity,
            inputs,
        };
        self.invocations.push(inv.clone());
        Some(inv)
    }

    /// Records output dependencies and tags the result's origin.
    fn end_invocation(
        &mut self,
        kernel: &mut Kernel,
        inv: Invocation,
        mut result: PValue,
    ) -> PValue {
        match result.origin {
            Some(out) if out != inv.identity && !inv.inputs.contains(&out) => {
                // The result is a genuinely new object (e.g. a file
                // the function wrote): record invocation → output. A
                // passed-through *input* origin must not take this
                // path — that would invert the edge and make the
                // input look like a product of the call.
                if let Ok(h) = kernel.pass_reviveobj(self.pid, out.pnode, out.version) {
                    let bundle = Bundle::single(h, ProvenanceRecord::input(inv.identity));
                    let _ = kernel.pass_write(self.pid, h, 0, &[], bundle);
                    let _ = kernel.pass_close(self.pid, h);
                }
            }
            _ => {
                // A computed value (or a value derived from an
                // input): its origin is the invocation.
                result.origin = Some(inv.identity);
            }
        }
        result
    }

    /// Builtin functions; returns `Ok(None)` if `name` is not one.
    fn builtin(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        args: &[PValue],
    ) -> Result<Option<PValue>, PyError> {
        let v = match (name, args) {
            ("len", [a]) => {
                let n = match &a.v {
                    Val::Str(s) => s.len() as i64,
                    Val::List(l) => l.borrow().len() as i64,
                    other => return Err(rt(format!("len of {other:?}"))),
                };
                PValue::plain(Val::Int(n))
            }
            ("push", [list, item]) => {
                let Val::List(l) = &list.v else {
                    return Err(rt("push on non-list"));
                };
                l.borrow_mut().push(item.clone());
                PValue::none()
            }
            ("range", [a]) => {
                let Val::Int(n) = a.v else {
                    return Err(rt("range of non-int"));
                };
                let items: Vec<PValue> = (0..n).map(|i| PValue::plain(Val::Int(i))).collect();
                PValue::plain(Val::List(Rc::new(RefCell::new(items))))
            }
            ("contains", [hay, needle]) => match (&hay.v, &needle.v) {
                (Val::Str(h), Val::Str(n)) => PValue::plain(Val::Bool(h.contains(n.as_str()))),
                (Val::List(l), _) => {
                    PValue::plain(Val::Bool(l.borrow().iter().any(|x| x.v == needle.v)))
                }
                (x, y) => return Err(rt(format!("contains({x:?}, {y:?})"))),
            },
            ("str", [a]) => PValue::plain(Val::Str(display(&a.v))),
            ("xml_field", [doc, field]) => {
                let (Val::Str(d), Val::Str(f)) = (&doc.v, &field.v) else {
                    return Err(rt("xml_field wants strings"));
                };
                let open = format!("<{f}>");
                let close = format!("</{f}>");
                let value = d
                    .find(&open)
                    .and_then(|s| {
                        let rest = &d[s + open.len()..];
                        rest.find(&close).map(|e| rest[..e].to_string())
                    })
                    .unwrap_or_default();
                PValue {
                    v: Val::Str(value),
                    // Substring extraction is a *wrapped helper*, so
                    // it preserves the document's origin.
                    origin: doc.origin,
                }
            }
            ("read_file", [path]) => {
                let Val::Str(p) = &path.v else {
                    return Err(rt("read_file wants a path string"));
                };
                return Ok(Some(self.read_file(kernel, p)?));
            }
            ("write_file", [path, data]) => {
                let Val::Str(p) = &path.v else {
                    return Err(rt("write_file wants a path string"));
                };
                let body = display(&data.v);
                return Ok(Some(self.write_file(kernel, p, body.as_bytes(), data)?));
            }
            ("list_dir", [path]) => {
                let Val::Str(p) = &path.v else {
                    return Err(rt("list_dir wants a path string"));
                };
                let entries = kernel.readdir(self.pid, p).map_err(|e| rt(e.to_string()))?;
                let prefix = if p == "/" { String::new() } else { p.clone() };
                let items: Vec<PValue> = entries
                    .into_iter()
                    .map(|e| PValue::plain(Val::Str(format!("{prefix}/{}", e.name))))
                    .collect();
                PValue::plain(Val::List(Rc::new(RefCell::new(items))))
            }
            ("compute", [a]) => {
                let Val::Int(units) = a.v else {
                    return Err(rt("compute wants an int"));
                };
                kernel.compute(units.max(0) as u64);
                PValue::none()
            }
            _ => return Ok(None),
        };
        Ok(Some(v))
    }

    fn read_file(&mut self, kernel: &mut Kernel, path: &str) -> Result<PValue, PyError> {
        let fd = kernel
            .open(self.pid, path, OpenFlags::RDONLY)
            .map_err(|e| rt(e.to_string()))?;
        let size = kernel
            .stat(self.pid, path)
            .map_err(|e| rt(e.to_string()))?
            .size as usize;
        // Read through the DPAPI when available so the exact identity
        // of what was read is captured.
        let (data, origin) = match kernel.pass_handle_for_fd(self.pid, fd) {
            Ok(h) => match kernel.pass_read(self.pid, h, 0, size) {
                Ok(r) => (r.data, Some(r.identity)),
                Err(_) => (
                    kernel
                        .read(self.pid, fd, size)
                        .map_err(|e| rt(e.to_string()))?,
                    None,
                ),
            },
            Err(_) => (
                kernel
                    .read(self.pid, fd, size)
                    .map_err(|e| rt(e.to_string()))?,
                None,
            ),
        };
        kernel.close(self.pid, fd).map_err(|e| rt(e.to_string()))?;
        Ok(PValue {
            v: Val::Str(String::from_utf8_lossy(&data).into_owned()),
            origin,
        })
    }

    fn write_file(
        &mut self,
        kernel: &mut Kernel,
        path: &str,
        body: &[u8],
        data: &PValue,
    ) -> Result<PValue, PyError> {
        let fd = kernel
            .open(self.pid, path, OpenFlags::WRONLY_CREATE)
            .map_err(|e| rt(e.to_string()))?;
        let identity = match kernel.pass_handle_for_fd(self.pid, fd) {
            Ok(h) => {
                let mut bundle = Bundle::new();
                for origin in collect_origins(data) {
                    bundle.push(h, ProvenanceRecord::input(origin));
                }
                let w = kernel
                    .pass_write(self.pid, h, 0, body, bundle)
                    .map_err(|e| rt(e.to_string()))?;
                Some(w.identity)
            }
            Err(_) => {
                kernel
                    .write(self.pid, fd, body)
                    .map_err(|e| rt(e.to_string()))?;
                None
            }
        };
        kernel.close(self.pid, fd).map_err(|e| rt(e.to_string()))?;
        Ok(PValue {
            v: Val::Str(path.to_string()),
            origin: identity,
        })
    }
}

/// Collects every origin reachable in a value (lists are walked).
fn collect_origins(v: &PValue) -> Vec<ObjectRef> {
    let mut out = Vec::new();
    fn walk(v: &PValue, out: &mut Vec<ObjectRef>) {
        if let Some(o) = v.origin {
            if !out.contains(&o) {
                out.push(o);
            }
        }
        if let Val::List(l) = &v.v {
            for item in l.borrow().iter() {
                walk(item, out);
            }
        }
    }
    walk(v, &mut out);
    out
}

fn display(v: &Val) -> String {
    match v {
        Val::Int(i) => i.to_string(),
        Val::Str(s) => s.clone(),
        Val::Bool(b) => b.to_string(),
        Val::None => "none".to_string(),
        Val::List(l) => {
            let items: Vec<String> = l.borrow().iter().map(|x| display(&x.v)).collect();
            format!("[{}]", items.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use passv2::System;

    fn plain_kernel() -> (Kernel, Pid) {
        let mut sys = System::baseline();
        let pid = sys.spawn("pythonette");
        (sys.kernel, pid)
    }

    fn run_plain(src: &str) -> PValue {
        let (mut k, pid) = plain_kernel();
        let mut interp = Interp::new(pid);
        interp.run(&mut k, src).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let v = run_plain(
            r#"
            def fib(n) {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            return fib(10);
            "#,
        );
        assert_eq!(v.v, Val::Int(55));
    }

    #[test]
    fn lists_have_reference_semantics() {
        let v = run_plain(
            r#"
            let xs = [];
            def fill(l) {
                push(l, 1);
                push(l, 2);
            }
            fill(xs);
            return len(xs);
            "#,
        );
        assert_eq!(v.v, Val::Int(2));
    }

    #[test]
    fn while_and_range() {
        let v = run_plain(
            r#"
            let total = 0;
            for i in range(5) { total = total + i; }
            let j = 0;
            while j < 3 { total = total + 10; j = j + 1; }
            return total;
            "#,
        );
        assert_eq!(v.v, Val::Int(40));
    }

    #[test]
    fn string_ops_and_xml_field() {
        let v = run_plain(
            r#"
            let doc = "<exp><heat>42</heat><class>classA</class></exp>";
            if contains(doc, "classA") {
                return xml_field(doc, "heat");
            }
            return "no";
            "#,
        );
        assert_eq!(v.v, Val::Str("42".into()));
    }

    #[test]
    fn file_io_round_trip() {
        let (mut k, pid) = plain_kernel();
        k.write_file(pid, "/data.txt", b"payload").unwrap();
        let mut interp = Interp::new(pid);
        let v = interp
            .run(
                &mut k,
                r#"
                let d = read_file("/data.txt");
                write_file("/copy.txt", d + "!");
                return read_file("/copy.txt");
                "#,
            )
            .unwrap();
        assert_eq!(v.v, Val::Str("payload!".into()));
    }

    #[test]
    fn infinite_loops_are_bounded() {
        let (mut k, pid) = plain_kernel();
        let mut interp = Interp::new(pid);
        interp.step_limit = 10_000;
        let err = interp.run(&mut k, "while true { let x = 1; }").unwrap_err();
        assert!(matches!(err, PyError::Runtime(_)));
    }

    #[test]
    fn runtime_errors_are_reported() {
        let (mut k, pid) = plain_kernel();
        let mut interp = Interp::new(pid);
        assert!(interp.run(&mut k, "return 1 / 0;").is_err());
        assert!(interp.run(&mut k, "return nope();").is_err());
        assert!(interp.run(&mut k, "return undefined_var;").is_err());
        assert!(interp.run(&mut k, "return [1][5];").is_err());
    }

    #[test]
    fn wrapped_function_creates_invocation_objects() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("pythonette");
        sys.kernel
            .write_file(pid, "/in.xml", b"<heat>7</heat>")
            .unwrap();
        let mut interp = Interp::new(pid);
        interp.wrap("crack_heat");
        interp
            .run(
                &mut sys.kernel,
                r#"
                def crack_heat(doc) {
                    return xml_field(doc, "heat");
                }
                let d = read_file("/in.xml");
                let h = crack_heat(d);
                write_file("/plot.out", h);
                "#,
            )
            .unwrap();
        assert_eq!(interp.invocations.len(), 1);
        let inv = &interp.invocations[0];
        assert_eq!(inv.name, "crack_heat");
        assert_eq!(inv.inputs.len(), 1, "the XML doc origin is an input");
        // The result of the wrapped call carried the invocation's
        // provenance into the output file: check the graph.
        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut w = waldo::Waldo::new(waldo_pid);
        for (_, logs) in sys.rotate_all_logs() {
            for log in logs {
                w.ingest_log_file(&mut sys.kernel, &log);
            }
        }
        let funcs = w.db.find_by_type("FUNCTION");
        assert_eq!(funcs.len(), 1);
        let plots = w.db.find_by_name("/plot.out");
        assert_eq!(plots.len(), 1);
        let obj = w.db.object(plots[0]).unwrap();
        let v = dpapi::Version(obj.current);
        let anc = w.db.ancestors(dpapi::ObjectRef::new(plots[0], v));
        assert!(
            anc.iter().any(|r| r.pnode == funcs[0]),
            "plot must descend from the crack_heat invocation: {anc:?}"
        );
    }

    #[test]
    fn builtin_operators_lose_provenance() {
        // The §6.5 lesson: "while we could wrap functions, we lost
        // provenance across built-in operators."
        let mut sys = System::single_volume();
        let pid = sys.spawn("pythonette");
        sys.kernel.write_file(pid, "/a.txt", b"aaa").unwrap();
        let mut interp = Interp::new(pid);
        interp
            .run(
                &mut sys.kernel,
                r#"
                let a = read_file("/a.txt");
                let joined = a + "suffix";
                "#,
            )
            .unwrap();
        // `a` had an origin; `joined` does not.
        let a = interp.globals.get("a").unwrap();
        let joined = interp.globals.get("joined").unwrap();
        assert!(a.origin.is_some());
        assert!(joined.origin.is_none());
        // xml_field (a wrapped helper) preserves it by contrast.
        interp
            .run(
                &mut sys.kernel,
                r#"let f = xml_field(read_file("/a.txt"), "x");"#,
            )
            .unwrap();
        assert!(interp.globals.get("f").unwrap().origin.is_some());
    }
}
