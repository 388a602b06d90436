//! The Unix-domain-socket daemon wrapping a [`Service`].
//!
//! One listener thread accepts connections; each connection gets its
//! own handler thread reading newline-delimited requests and writing
//! newline-delimited response events (see [`crate::protocol`]). The
//! [`Service`]'s admission gate — not the thread count — bounds how
//! much work executes concurrently, so a burst of connections degrades
//! into `busy` errors rather than unbounded queueing.
//!
//! # Stale sockets
//!
//! A daemon that dies without cleanup leaves its socket file behind,
//! and a fresh `bind` then fails with `AddrInUse`. [`Daemon::bind`]
//! distinguishes the two cases by probing with a `connect`: a live
//! daemon accepts (→ hard error, never steal a running server's
//! socket), a dead one refuses (→ remove the stale file and rebind).
//!
//! # Shutdown
//!
//! A `shutdown` request answers `bye`, raises the shared stop flag and
//! self-connects to the socket so the blocked `accept` wakes and
//! observes the flag. [`DaemonHandle::stop`] does the same from the
//! owning process.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::protocol::{self, Request};
use crate::service::{self, Service, ServiceConfig};

/// Longest request line a connection may send. A handler buffers one
/// line at a time, so this bounds its memory against a client that
/// never sends the newline.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A bound-but-not-yet-serving daemon.
pub struct Daemon {
    listener: UnixListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    path: PathBuf,
}

/// Control handle for a daemon serving on a background thread.
pub struct DaemonHandle {
    /// The socket path the daemon is serving on.
    pub path: PathBuf,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Bind `path`, recovering a stale socket file if its previous
    /// owner is dead (see the module docs). Fails with `AddrInUse`
    /// when a live daemon already serves there.
    pub fn bind(path: &Path, cfg: ServiceConfig) -> std::io::Result<Daemon> {
        let listener = match UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) if e.kind() == ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("a daemon is already serving on {}", path.display()),
                    ));
                }
                std::fs::remove_file(path)?;
                UnixListener::bind(path)?
            }
            Err(e) => return Err(e),
        };
        Ok(Daemon {
            listener,
            service: Arc::new(Service::new(cfg)),
            shutdown: Arc::new(AtomicBool::new(false)),
            path: path.to_path_buf(),
        })
    }

    /// The service behind this daemon (for in-process inspection).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serve until a `shutdown` request arrives, then remove the
    /// socket file. Blocks the calling thread; use [`Daemon::spawn`]
    /// to serve in the background.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // An accept error must not kill the daemon: count it,
            // leave a flight diag, back off briefly so a persistent
            // fault (EMFILE, say) doesn't spin, and keep serving.
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    self.service.io_error("accept", &e);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&self.shutdown);
            let path = self.path.clone();
            std::thread::spawn(move || handle_connection(stream, &service, &shutdown, &path));
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }

    /// Bind and serve on a background thread, returning a control
    /// handle. This is how the tests and `serve-bench` run a daemon
    /// in-process.
    pub fn spawn(path: &Path, cfg: ServiceConfig) -> std::io::Result<DaemonHandle> {
        let daemon = Daemon::bind(path, cfg)?;
        let service = Arc::clone(&daemon.service);
        let shutdown = Arc::clone(&daemon.shutdown);
        let out_path = daemon.path.clone();
        let join = std::thread::spawn(move || daemon.run());
        Ok(DaemonHandle {
            path: out_path,
            service,
            shutdown,
            join: Some(join),
        })
    }
}

impl DaemonHandle {
    /// The service behind the running daemon.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stop the daemon and join its listener thread.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocked accept; ignore failure (already stopping).
        let _ = UnixStream::connect(&self.path);
        match self.join.take() {
            Some(join) => join.join().unwrap_or_else(|_| {
                Err(std::io::Error::other("daemon listener thread panicked"))
            }),
            None => Ok(()),
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = UnixStream::connect(&self.path);
            let _ = join.join();
        }
    }
}

fn handle_connection(
    stream: UnixStream,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    path: &Path,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap, so a line of exactly the cap plus its
        // newline still fits.
        let mut bounded = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) => return,
            Err(e) => {
                // A torn read (client reset mid-line) ends this
                // connection, but gets counted rather than vanishing.
                service.io_error("read", &e);
                return;
            }
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
            let msg = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
            service.io_error("read", &msg);
            let _ = write_line(&mut writer, &protocol::render_error("bad-request", &msg));
            return;
        }
        // The line is whole, so a bad one costs the client an error
        // reply, not the connection.
        let request = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => continue,
            Ok(text) => protocol::parse_request(text),
            Err(e) => Err(format!("request line is not UTF-8: {e}")),
        };
        let reply_done = match request {
            Err(e) => write_line(&mut writer, &protocol::render_error("bad-request", &e)),
            Ok(Request::Ping) => {
                service.note_verb("ping");
                write_line(&mut writer, &service.stats().render_pong())
            }
            Ok(Request::Stats) => {
                service.note_verb("stats");
                write_line(&mut writer, &service.stats_line())
            }
            Ok(Request::Dump) => {
                // Note the verb first so the dump's own span is the
                // last event it replays.
                service.note_verb("dump");
                write_line(&mut writer, &service.dump_line())
            }
            Ok(Request::Shutdown) => {
                service.note_verb("shutdown");
                // Drain before acking: any request racing the
                // shutdown is shed with reason `shutdown` instead of
                // starting work the daemon won't finish.
                service.drain();
                let _ = write_line(&mut writer, &protocol::render_bye());
                shutdown.store(true, Ordering::SeqCst);
                let _ = UnixStream::connect(path);
                return;
            }
            Ok(Request::Run(req)) => match service.run(&req) {
                Ok(out) => {
                    let mut ok = true;
                    if req.diag {
                        ok = write_line(&mut writer, &service::diag_line(&out)).is_ok();
                    }
                    if ok {
                        write_line(&mut writer, &service::result_line(&out))
                    } else {
                        Err(std::io::Error::other("client went away"))
                    }
                }
                Err(e) => write_line(&mut writer, &service::error_line(&e)),
            },
        };
        if let Err(e) = reply_done {
            service.io_error("write", &e);
            return;
        }
    }
}

fn write_line(w: &mut UnixStream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}
