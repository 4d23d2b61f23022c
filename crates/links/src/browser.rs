//! The provenance-aware `links` browser.
//!
//! A PA-browser captures semantic information invisible to PASS
//! (paper §6.3): the URL of any downloaded file, the page the user
//! was examining when she initiated the download, the sequence of
//! pages visited before it, and the grouping of activity into
//! *sessions*. Sessions are PASS objects created with `pass_mkobj`;
//! each visit generates a `VISITED_URL` record; each download
//! replaces the browser's plain `write` with a `pass_write` carrying
//! three records — `INPUT` (file ← session), `FILE_URL` and
//! `CURRENT_URL` — together with the data.

use dpapi::{Attribute, Bundle, Handle, ObjectRef, ProvenanceRecord, Value};
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};

use crate::web::{Fetched, SimWeb};

/// Errors the browser can hit.
#[derive(Debug)]
pub enum BrowserError {
    /// The URL did not resolve.
    NotFound(String),
    /// Redirect loop.
    RedirectLoop(String),
    /// A kernel or provenance failure.
    Sys(String),
}

impl std::fmt::Display for BrowserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowserError::NotFound(u) => write!(f, "404: {u}"),
            BrowserError::RedirectLoop(u) => write!(f, "redirect loop at {u}"),
            BrowserError::Sys(m) => write!(f, "browser system error: {m}"),
        }
    }
}

impl std::error::Error for BrowserError {}

fn sys<E: std::fmt::Display>(e: E) -> BrowserError {
    BrowserError::Sys(e.to_string())
}

/// One browsing session of the PA-browser.
pub struct Session {
    pid: Pid,
    handle: Handle,
    identity: ObjectRef,
    current_url: Option<String>,
    history: Vec<String>,
}

impl Session {
    /// Opens a new session: creates the session PASS object and
    /// records its TYPE.
    pub fn open(kernel: &mut Kernel, pid: Pid) -> Result<Session, BrowserError> {
        let handle = kernel.pass_mkobj(pid, None).map_err(sys)?;
        let bundle = Bundle::single(
            handle,
            ProvenanceRecord::new(Attribute::Type, Value::str("SESSION")),
        );
        kernel
            .pass_write(pid, handle, 0, &[], bundle)
            .map_err(sys)?;
        let identity = kernel.pass_read(pid, handle, 0, 0).map_err(sys)?.identity;
        Ok(Session {
            pid,
            handle,
            identity,
            current_url: None,
            history: Vec::new(),
        })
    }

    /// Revives a session saved by [`Session::save`] — the Firefox
    /// scenario that motivated adding `pass_reviveobj` to the DPAPI
    /// (§6.5).
    pub fn restore(kernel: &mut Kernel, pid: Pid, path: &str) -> Result<Session, BrowserError> {
        let saved = kernel.read_file(pid, path).map_err(sys)?;
        let text = String::from_utf8(saved).map_err(sys)?;
        let mut parts = text.split_whitespace();
        let volume = parts
            .next()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| BrowserError::Sys("bad session file".into()))?;
        let number = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| BrowserError::Sys("bad session file".into()))?;
        let version = parts
            .next()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| BrowserError::Sys("bad session file".into()))?;
        let pnode = dpapi::Pnode::new(dpapi::VolumeId(volume), number);
        let handle = kernel
            .pass_reviveobj(pid, pnode, dpapi::Version(version))
            .map_err(sys)?;
        let identity = kernel.pass_read(pid, handle, 0, 0).map_err(sys)?.identity;
        Ok(Session {
            pid,
            handle,
            identity,
            current_url: None,
            history: Vec::new(),
        })
    }

    /// Persists the session identity so a restarted browser can
    /// revive it.
    pub fn save(&self, kernel: &mut Kernel, path: &str) -> Result<(), BrowserError> {
        let body = format!(
            "{} {} {}",
            self.identity.pnode.volume.0, self.identity.pnode.number, self.identity.version.0
        );
        kernel
            .write_file(self.pid, path, body.as_bytes())
            .map_err(sys)
    }

    /// The session's provenance identity.
    pub fn identity(&self) -> ObjectRef {
        self.identity
    }

    /// URLs visited so far, in order.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Visits a URL (following redirects), recording a `VISITED_URL`
    /// dependency between the session and every URL on the redirect
    /// chain. Returns the final URL.
    pub fn visit(
        &mut self,
        kernel: &mut Kernel,
        web: &SimWeb,
        url: &str,
    ) -> Result<String, BrowserError> {
        match web.fetch(url) {
            Fetched::NotFound => Err(BrowserError::NotFound(url.into())),
            Fetched::TooManyRedirects => Err(BrowserError::RedirectLoop(url.into())),
            Fetched::Ok {
                url: fin, chain, ..
            } => {
                let mut bundle = Bundle::new();
                for u in &chain {
                    bundle.push(
                        self.handle,
                        ProvenanceRecord::new(Attribute::VisitedUrl, Value::str(u)),
                    );
                    self.history.push(u.clone());
                }
                kernel
                    .pass_write(self.pid, self.handle, 0, &[], bundle)
                    .map_err(sys)?;
                self.current_url = Some(fin.clone());
                Ok(fin)
            }
        }
    }

    /// Downloads `url` to `dest` as **one disclosure transaction**:
    /// the session's redirect-chain visits, the data write and the
    /// three download records (`INPUT`, `FILE_URL`, `CURRENT_URL`)
    /// commit atomically — all of it reaches the provenance log, or
    /// none of it does — and cost one `pass_commit` syscall instead of
    /// two `pass_write`s.
    pub fn download(
        &mut self,
        kernel: &mut Kernel,
        web: &SimWeb,
        url: &str,
        dest: &str,
    ) -> Result<ObjectRef, BrowserError> {
        let fetched = web.fetch(url);
        let Fetched::Ok {
            url: final_url,
            content,
            chain,
        } = fetched
        else {
            return Err(BrowserError::NotFound(url.into()));
        };
        let fd = kernel
            .open(self.pid, dest, OpenFlags::WRONLY_CREATE)
            .map_err(sys)?;
        let file_h = kernel.pass_handle_for_fd(self.pid, fd).map_err(sys)?;
        let mut txn = dpapi::Txn::new();
        // The redirect chain is part of the session history too.
        let mut visits = Bundle::new();
        for u in &chain {
            visits.push(
                self.handle,
                ProvenanceRecord::new(Attribute::VisitedUrl, Value::str(u)),
            );
        }
        if !visits.is_empty() {
            txn.disclose(self.handle, visits);
        }
        let mut bundle = Bundle::new();
        // INPUT: dependency between the file and the session.
        bundle.push(file_h, ProvenanceRecord::input(self.identity));
        // FILE_URL: the URL of the file itself.
        bundle.push(
            file_h,
            ProvenanceRecord::new(Attribute::FileUrl, Value::str(&final_url)),
        );
        // CURRENT_URL: the page the user was viewing when she decided
        // to download.
        if let Some(cur) = &self.current_url {
            bundle.push(
                file_h,
                ProvenanceRecord::new(Attribute::CurrentUrl, Value::str(cur)),
            );
        }
        txn.write(file_h, 0, content, bundle);
        let results = kernel.pass_commit(self.pid, txn).map_err(sys)?;
        // Only record history once the commit has succeeded, so the
        // in-memory session mirrors the disclosed provenance.
        self.history.extend(chain);
        kernel.close(self.pid, fd).map_err(sys)?;
        let w = results
            .last()
            .and_then(dpapi::OpResult::as_written)
            .copied()
            .ok_or_else(|| BrowserError::Sys("mismatched commit results".into()))?;
        Ok(w.identity)
    }

    /// Ensures the session's provenance is durable even if nothing
    /// was downloaded (e.g. browsing-only sessions).
    pub fn sync(&self, kernel: &mut Kernel) -> Result<(), BrowserError> {
        kernel.pass_sync(self.pid, self.handle).map_err(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::demo_web;
    use passv2::System;

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
    fn session_records_visits_and_download_records() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("links");
        let web = demo_web();
        sys.kernel.mkdir_p(pid, "/home").unwrap();
        let mut s = Session::open(&mut sys.kernel, pid).unwrap();
        s.visit(&mut sys.kernel, &web, "http://uni.example/")
            .unwrap();
        s.download(
            &mut sys.kernel,
            &web,
            "http://uni.example/graphs/speedup.gif",
            "/home/speedup.gif",
        )
        .unwrap();
        let w = ingest(&mut sys);

        // The session is a typed object with VISITED_URL records.
        let sessions = w.db.find_by_type("SESSION");
        assert_eq!(sessions.len(), 1);
        let sess = w.db.object(sessions[0]).unwrap();
        let visited: Vec<&dpapi::Value> = sess
            .versions
            .values()
            .flat_map(|v| v.attrs.iter())
            .filter(|(a, _)| *a == Attribute::VisitedUrl)
            .map(|(_, v)| v)
            .collect();
        assert!(visited.contains(&&Value::str("http://uni.example/")));

        // The downloaded file carries FILE_URL and CURRENT_URL and
        // descends from the session.
        let files = w.db.find_by_name("/home/speedup.gif");
        assert_eq!(files.len(), 1);
        let f = w.db.object(files[0]).unwrap();
        assert_eq!(
            f.first_attr(&Attribute::FileUrl),
            Some(&Value::str("http://uni.example/graphs/speedup.gif"))
        );
        assert_eq!(
            f.first_attr(&Attribute::CurrentUrl),
            Some(&Value::str("http://uni.example/"))
        );
        let v = dpapi::Version(f.current);
        let anc = w.db.ancestors(dpapi::ObjectRef::new(files[0], v));
        assert!(anc.iter().any(|r| r.pnode == sessions[0]));
    }

    #[test]
    fn attribution_survives_rename() {
        // §3.2: "if the user moves, renames, or copies the file, the
        // browser loses the connection" — but PASSv2 does not.
        let mut sys = System::single_volume();
        let pid = sys.spawn("links");
        let web = demo_web();
        sys.kernel.mkdir_p(pid, "/downloads").unwrap();
        let mut s = Session::open(&mut sys.kernel, pid).unwrap();
        s.visit(&mut sys.kernel, &web, "http://uni.example/")
            .unwrap();
        s.download(
            &mut sys.kernel,
            &web,
            "http://uni.example/quotes/knuth.txt",
            "/downloads/quote.txt",
        )
        .unwrap();
        sys.kernel.mkdir_p(pid, "/talk").unwrap();
        sys.kernel
            .rename(pid, "/downloads/quote.txt", "/talk/quote.txt")
            .unwrap();
        let w = ingest(&mut sys);
        // Query by the *new* name, find the original URL.
        let files = w.db.find_by_name("/talk/quote.txt");
        assert_eq!(files.len(), 1, "renamed file must be findable by new name");
        let f = w.db.object(files[0]).unwrap();
        assert_eq!(
            f.first_attr(&Attribute::FileUrl),
            Some(&Value::str("http://uni.example/quotes/knuth.txt"))
        );
    }

    #[test]
    fn session_save_and_revive_keeps_identity() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("links");
        let web = demo_web();
        sys.kernel.mkdir_p(pid, "/home").unwrap();
        let id = {
            let mut s = Session::open(&mut sys.kernel, pid).unwrap();
            s.visit(&mut sys.kernel, &web, "http://portal.example/")
                .unwrap();
            s.sync(&mut sys.kernel).unwrap();
            s.save(&mut sys.kernel, "/home/session.dat").unwrap();
            s.identity()
        };
        // "Restart" the browser.
        let pid2 = sys.kernel.spawn_init("links");
        let mut revived = Session::restore(&mut sys.kernel, pid2, "/home/session.dat").unwrap();
        assert_eq!(revived.identity().pnode, id.pnode);
        // Further visits accrue to the same object.
        revived
            .visit(&mut sys.kernel, &web, "http://uni.example/")
            .unwrap();
        revived.sync(&mut sys.kernel).unwrap();
        let w = ingest(&mut sys);
        let sess = w.db.object(id.pnode).unwrap();
        let visited: Vec<&dpapi::Value> = sess
            .versions
            .values()
            .flat_map(|v| v.attrs.iter())
            .filter(|(a, _)| *a == Attribute::VisitedUrl)
            .map(|(_, v)| v)
            .collect();
        assert!(visited.contains(&&Value::str("http://portal.example/")));
        assert!(visited.contains(&&Value::str("http://uni.example/")));
    }

    #[test]
    fn redirect_chains_are_fully_recorded() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("links");
        let web = demo_web();
        let mut s = Session::open(&mut sys.kernel, pid).unwrap();
        let fin = s
            .visit(&mut sys.kernel, &web, "http://portal.example/codec")
            .unwrap();
        assert_eq!(fin, "http://codecs.example/best-codec");
        assert_eq!(
            s.history(),
            &[
                "http://portal.example/codec".to_string(),
                "http://codecs.example/best-codec".to_string(),
            ]
        );
    }
}
