//! Streaming JSON exporter: raw TCP, one line of JSON per published
//! snapshot (newline-delimited JSON, "ndjson"). A client connects and
//! receives the current snapshot immediately, then every subsequent
//! epoch change as its own line — `nc 127.0.0.1 9501 | head` is a
//! perfectly good consumer.

use crate::http;
use crate::signal::ShutdownFlag;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use vap_obs::SnapshotRegistry;

/// Stream snapshots to one client until it hangs up, stops reading, or
/// the registry closes.
fn stream_snapshots(mut stream: TcpStream, registry: &SnapshotRegistry) {
    let mut snap = registry.read();
    loop {
        let mut line = snap.to_json_line();
        line.push('\n');
        // A write failure means the client left or stalled past the
        // write timeout: end this stream.
        if stream.write_all(line.as_bytes()).is_err() {
            return;
        }
        match registry.wait_newer(snap.epoch) {
            Some(next) => snap = next,
            None => return,
        }
    }
}

/// Serve line-delimited JSON snapshots on `listener` until `stop` is
/// raised and the accept loop is woken: each client gets the current
/// snapshot at once, then the newest one after every publish.
pub fn serve_json(listener: &TcpListener, registry: &SnapshotRegistry, stop: &ShutdownFlag) {
    http::accept_loop(listener, stop, |stream| stream_snapshots(stream, registry));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use vap_obs::TelemetrySnapshot;

    #[test]
    fn streams_each_epoch_once() {
        let registry = SnapshotRegistry::new();
        registry.publish(TelemetrySnapshot { sim_time_s: 1.0, ..TelemetrySnapshot::default() });
        let stop = ShutdownFlag::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_json(&listener, &registry, &stop));
            let stream = TcpStream::connect(addr).unwrap();
            let mut lines = BufReader::new(stream).lines();
            let first = lines.next().unwrap().unwrap();
            assert!(first.contains("\"epoch\":1"), "{first}");
            assert!(first.contains("\"sim_time_s\":1"), "{first}");
            // publish two more epochs; the stream must deliver each once
            registry.publish(TelemetrySnapshot { sim_time_s: 2.0, ..TelemetrySnapshot::default() });
            let second = lines.next().unwrap().unwrap();
            assert!(second.contains("\"epoch\":2"), "{second}");
            registry.publish(TelemetrySnapshot { sim_time_s: 3.0, ..TelemetrySnapshot::default() });
            let third = lines.next().unwrap().unwrap();
            assert!(third.contains("\"epoch\":3"), "{third}");
            stop.raise();
            registry.close();
            http::wake(&listener);
            // the server ends the stream and the iterator drains
            assert!(lines.next().is_none());
            server.join().unwrap();
        });
    }
}
