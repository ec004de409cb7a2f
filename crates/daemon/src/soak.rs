//! The scrape soak: Prometheus scrape loops and held streaming-JSON
//! connections against a daemon for a wall-clock window.
//!
//! `daemon-loadgen` is a command line over [`soak`] for a daemon running
//! elsewhere; [`Service::soak`] drives an in-process service on
//! ephemeral ports, the way `tests/serve.rs` does and `vap-bench`'s
//! `profile` records it.

use crate::clock::{Deadline, Stopwatch};
use crate::{DaemonError, DaemonSummary, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use vap_obs::json::{ObjectWriter, ToJson};
use vap_obs::Histogram;

/// How hard and how long to soak.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent `/metrics` scrape loops.
    pub prom_clients: usize,
    /// Concurrent held streaming-JSON connections.
    pub json_clients: usize,
    /// Wall-clock length of the soak in seconds.
    pub seconds: f64,
}

/// What one soak saw.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Wall-clock length of the soak in seconds.
    pub wall_s: f64,
    /// Well-formed `/metrics` responses.
    pub scrapes: u64,
    /// Bytes across those responses.
    pub bytes: u64,
    /// Well-formed JSON snapshot lines.
    pub json_lines: u64,
    /// Failed connects, malformed responses and broken streams.
    pub errors: u64,
    /// Whole-round-trip scrape latency (connect + GET + read to EOF) in
    /// milliseconds, log-linear bucketed.
    pub scrape_ms: Histogram,
}

impl SoakReport {
    /// The pass condition: every client class configured did useful
    /// work and no client saw an error.
    pub fn passed(&self, cfg: &SoakConfig) -> bool {
        let prom_ok = cfg.prom_clients == 0 || self.scrapes > 0;
        let json_ok = cfg.json_clients == 0 || self.json_lines > 0;
        self.errors == 0 && prom_ok && json_ok
    }
}

impl ToJson for SoakReport {
    fn write_json(&self, out: &mut String) {
        let q = |p| self.scrape_ms.quantile(p).unwrap_or(0.0);
        let mut o = ObjectWriter::new(out);
        o.field("wall_s", &self.wall_s)
            .field("prom_scrapes", &self.scrapes)
            .field("prom_bytes", &self.bytes)
            .field("prom_scrapes_per_s", &(self.scrapes as f64 / self.wall_s.max(1e-9)))
            .field("prom_scrape_p50_ms", &q(0.50))
            .field("prom_scrape_p95_ms", &q(0.95))
            .field("prom_scrape_p99_ms", &q(0.99))
            .field("json_lines", &self.json_lines)
            .field("errors", &self.errors);
        o.end();
    }
}

/// Shared soak counters, bumped by every client thread.
#[derive(Default)]
struct Counters {
    scrapes: AtomicU64,
    bytes: AtomicU64,
    json_lines: AtomicU64,
    errors: AtomicU64,
    /// A mutex is fine here: one lock per whole HTTP round trip, off the
    /// daemon's path.
    scrape_ms: Mutex<Histogram>,
}

/// One Prometheus scrape: connect, GET /metrics, read to EOF.
fn scrape_once(addr: &str) -> Result<u64, ()> {
    let mut stream = TcpStream::connect(addr).map_err(|_| ())?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).map_err(|_| ())?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").map_err(|_| ())?;
    let mut body = String::new();
    stream.read_to_string(&mut body).map_err(|_| ())?;
    let well_formed = body.starts_with("HTTP/1.1 200 OK\r\n")
        && body.contains("# TYPE vap_cluster_power_watts gauge");
    if well_formed {
        Ok(body.len() as u64)
    } else {
        Err(())
    }
}

/// Scrape `/metrics` in a tight loop until the deadline.
fn prom_client(addr: &str, deadline: Deadline, counters: &Counters) {
    while !deadline.expired() {
        let watch = Stopwatch::start();
        match scrape_once(addr) {
            Ok(bytes) => {
                counters.scrapes.fetch_add(1, Ordering::Relaxed);
                counters.bytes.fetch_add(bytes, Ordering::Relaxed);
                if let Ok(mut hist) = counters.scrape_ms.lock() {
                    hist.observe(watch.elapsed_s() * 1e3);
                }
            }
            Err(()) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Hold one streaming JSON connection, counting lines until the deadline.
fn json_client(addr: &str, deadline: Deadline, counters: &Counters) {
    let Ok(stream) = TcpStream::connect(addr) else {
        counters.errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if stream.set_read_timeout(Some(Duration::from_millis(500))).is_err() {
        counters.errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !deadline.expired() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // daemon closed the stream
            Ok(_) => {
                if line.starts_with("{\"epoch\":") && line.trim_end().ends_with('}') {
                    counters.json_lines.fetch_add(1, Ordering::Relaxed);
                } else {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            // timeouts just mean no new epoch inside the read window
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Soak the Prometheus endpoint at `prom` and the JSON stream at `json`
/// for `cfg.seconds`, one thread per client.
pub fn soak(prom: &str, json: &str, cfg: &SoakConfig) -> SoakReport {
    let counters = Counters::default();
    let watch = Stopwatch::start();
    let deadline = Deadline::start(cfg.seconds);
    std::thread::scope(|scope| {
        for _ in 0..cfg.prom_clients {
            scope.spawn(|| prom_client(prom, deadline, &counters));
        }
        for _ in 0..cfg.json_clients {
            scope.spawn(|| json_client(json, deadline, &counters));
        }
    });
    SoakReport {
        wall_s: watch.elapsed_s(),
        scrapes: counters.scrapes.into_inner(),
        bytes: counters.bytes.into_inner(),
        json_lines: counters.json_lines.into_inner(),
        errors: counters.errors.into_inner(),
        scrape_ms: counters.scrape_ms.into_inner().unwrap_or_default(),
    }
}

impl Service {
    /// Run this service while [`soak`] drives both of its endpoints,
    /// then stop it and return what the soak saw and what the service
    /// did.
    pub fn soak(self, cfg: &SoakConfig) -> Result<(SoakReport, DaemonSummary), DaemonError> {
        let prom = self.prom_addr()?.to_string();
        let json = self.json_addr()?.to_string();
        let stop = self.stop_flag();
        std::thread::scope(|scope| {
            let run = scope.spawn(move || self.run());
            let report = soak(&prom, &json, cfg);
            stop.raise();
            let summary = run.join().map_err(|_| DaemonError::msg("service thread panicked"))??;
            Ok((report, summary))
        })
    }
}
