//! Clients that misbehave on purpose: mangled, oversized or trickled
//! request heads on the Prometheus endpoint, and a JSON-stream client
//! that never reads. Each must get an answer or a close in bounded time,
//! nothing may panic, and none may keep `Service::run` from returning.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};
use vap_daemon::{DaemonConfig, DaemonSummary, Service};
use vap_model::rng::{check, SplitMix64};
use vap_report::RunOptions;

/// How long any client may wait for its answer or close: the server's
/// 0.5 s head deadline plus slack for a loaded host.
const ANSWER_BOUND: Duration = Duration::from_secs(3);

/// Mutated requests per run; each takes one round trip, or one head
/// deadline when the mutation left the head unterminated.
const CASES: usize = 48;

/// A sweep over `modules` on ephemeral ports; `ticks == 0` runs until
/// stopped.
fn service(modules: usize, ticks: u64, accel: f64) -> Service {
    let opts = RunOptions { modules: Some(modules), threads: Some(1), ..RunOptions::default() };
    let cfg = DaemonConfig { prom_port: 0, json_port: 0, ticks, accel, ..DaemonConfig::default() };
    Service::bind(&opts, &cfg).expect("bind on ephemeral ports")
}

/// Read until the server closes. `Ok` holds the bytes (possibly none)
/// when it answered or hung up, reset included; `Err` means the client
/// was left waiting past [`ANSWER_BOUND`].
fn answer_or_close(stream: &mut TcpStream) -> Result<Vec<u8>, String> {
    stream.set_read_timeout(Some(ANSWER_BOUND)).expect("set a read timeout");
    let mut out = Vec::new();
    match stream.read_to_end(&mut out) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(format!("no answer or close within {ANSWER_BOUND:?}"))
        }
        _ => Ok(out),
    }
}

const REQUESTS: [&str; 3] = [
    "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:9500\r\nUser-Agent: Prometheus/2.45\r\nAccept: text/plain\r\n\r\n",
    "GET /alerts HTTP/1.1\r\nHost: x\r\n\r\n",
    "HEAD / HTTP/1.0\r\n\r\n",
];

/// Flip, drop, duplicate, insert or blow up bytes of a valid request.
fn mutate(rng: &mut SplitMix64, request: &str) -> Vec<u8> {
    let mut bytes = request.as_bytes().to_vec();
    for _ in 0..1 + rng.next_index(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.next_index(bytes.len());
        match rng.next_index(6) {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << rng.next_index(8),
            2 => {
                let end = (at + 1 + rng.next_index(64)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            3 => {
                bytes.remove(at);
            }
            4 => bytes.insert(at, [b'\r', b'\n', b' ', b':', 0, 0xff][rng.next_index(6)]),
            // past the 8 KiB head cap
            _ => {
                let filler =
                    vec![[b'a', b' ', b'\r'][rng.next_index(3)]; 9000 + rng.next_index(8000)];
                bytes.splice(at..at, filler);
            }
        }
    }
    bytes
}

/// Run `body` against a live service, then stop it, also when `body`
/// fails; the run must end cleanly (a panic on any serving thread would
/// make it an error).
fn with_service(body: impl FnOnce(SocketAddr)) -> DaemonSummary {
    let service = service(4, 0, 20.0);
    let prom = service.prom_addr().expect("prometheus address");
    let stop = service.stop_flag();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| service.run());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(prom)));
        stop.raise();
        if let Err(failure) = outcome {
            std::panic::resume_unwind(failure);
        }
        run.join().expect("service thread").expect("the service ends cleanly")
    })
}

#[test]
fn mutated_request_heads_get_an_answer_or_a_close_in_bounded_time() {
    let summary = with_service(|prom| {
        check("mutated_request_heads", 15, CASES, |rng| {
            let pick = rng.next_index(REQUESTS.len());
            let request = mutate(rng, REQUESTS[pick]);
            let mut stream = TcpStream::connect(prom).expect("connect");
            // a write can fail once the server has answered a capped head
            let _ = stream.write_all(&request);
            // half the clients say they are done; the rest leave the
            // server to its head deadline
            if rng.next_index(2) == 0 {
                let _ = stream.shutdown(Shutdown::Write);
            }
            let reply = answer_or_close(&mut stream).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                reply.is_empty() || reply.starts_with(b"HTTP/1.1 "),
                "not an HTTP response: {:?}",
                String::from_utf8_lossy(&reply[..reply.len().min(64)])
            );
        });
        // the server still serves a well-formed scrape afterwards
        let mut stream = TcpStream::connect(prom).expect("connect");
        stream.write_all(REQUESTS[0].as_bytes()).expect("send");
        let reply = answer_or_close(&mut stream).expect("answered");
        assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"));
    });
    assert!(summary.published > 0);
}

/// One byte every 50 ms never trips a per-read timeout; the whole-head
/// deadline cuts it off.
#[test]
fn a_trickled_request_head_is_cut_off_at_the_deadline() {
    with_service(|prom| {
        let mut stream = TcpStream::connect(prom).expect("connect");
        stream.write_all(b"GET /metrics HTTP/1.1\r\nX-Slow: ").expect("send");
        // each 50 ms read timeout paces the next byte
        stream.set_read_timeout(Some(Duration::from_millis(50))).expect("set a read timeout");
        let started = Instant::now();
        let mut reply = Vec::new();
        while stream.write_all(b"a").is_ok() {
            match stream.read_to_end(&mut reply) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                _ => break,
            }
            assert!(started.elapsed() < ANSWER_BOUND, "a trickled head held its thread");
        }
        assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.1 400"), "{reply:?}");
    });
}

/// A client that holds a JSON stream open and never reads fills the
/// socket buffers within a few large snapshot lines; the write timeout
/// must drop it so the bounded run still returns.
#[test]
fn a_json_client_that_never_reads_cannot_hold_up_shutdown() {
    let service = service(2000, 150, 0.0);
    let json = service.json_addr().expect("json address");
    let stalled = TcpStream::connect(json).expect("connect the stalled client");
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let summary = service.run();
        let _ = done.send(());
        summary
    });
    // a run that never returns fails here, leaving its thread behind
    let bound = Duration::from_secs(60);
    if finished.recv_timeout(bound) == Err(RecvTimeoutError::Timeout) {
        panic!("Service::run still blocked after {bound:?} by a client that never reads");
    }
    let summary = run.join().expect("the service thread").expect("the run ends cleanly");
    assert_eq!(summary.published, 150);
    drop(stalled);
}
