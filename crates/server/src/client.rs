//! A small blocking client for the daemon's wire protocol.
//!
//! Used by the `syncplace-serve` CLI subcommands (`ping`, `stop`,
//! `req`), by the `serve-bench` experiment's telemetry-cost pair, by
//! `benchmark/`'s `serve-mixed` load generator and by the end-to-end
//! tests. One [`Client`] holds one connection; requests on it are
//! sequential (the protocol is strictly request → response-stream).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use syncplace::obs::json::{self, Value};

use crate::protocol::is_terminal;

/// One open connection to a daemon.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connect to the daemon serving on `path`.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Send one request line and collect the response events up to and
    /// including the terminal one. Each event is returned parsed.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<Value>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut events = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            let v = json::parse(buf.trim()).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad response line: {e}"),
                )
            })?;
            let terminal = v
                .get("event")
                .and_then(Value::as_str)
                .is_some_and(is_terminal);
            events.push(v);
            if terminal {
                return Ok(events);
            }
        }
    }
}
