//! A deliberately small HTTP/1.1 server over `std::net::TcpListener`,
//! and the daemon's one accept loop, which both listeners use. The loop
//! blocks in `accept`, so raising the [`ShutdownFlag`] does not end it
//! by itself: the owner raises the flag, then calls [`wake`]. Each
//! connection runs on a scoped thread, so handlers can borrow the
//! snapshot registry without `Arc` plumbing. [`serve`] adds just enough
//! protocol for a metrics endpoint: read a request head bounded in size
//! and time, call a handler, write one `Connection: close` response.

use crate::clock::Deadline;
use crate::signal::ShutdownFlag;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Longest request head (request line plus headers) the server reads;
/// a scraper's GET is a few hundred bytes.
const MAX_HEAD: u64 = 8 * 1024;

/// Wall seconds a client has to deliver its whole request head, however
/// it paces the bytes.
const HEAD_DEADLINE_S: f64 = 0.5;

/// How long one write may block on a client that stopped reading before
/// its connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause after a failed `accept` (out of descriptors, say), so a
/// persistent failure cannot become a busy spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// A parsed request line (headers are drained and ignored — a metrics
/// endpoint needs none of them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `HEAD`, …
    pub method: String,
    /// Path component, e.g. `/metrics`.
    pub path: String,
}

/// A response the handler wants on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Response { status: 200, content_type, body }
    }

    /// A `404 Not Found` response naming the path.
    pub fn not_found(path: &str) -> Self {
        Response { status: 404, content_type: "text/plain", body: format!("no route: {path}\n") }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Internal Server Error",
    }
}

/// Reads a connection against one deadline for the whole request head:
/// each read may block only for the time that is left.
struct HeadReader<'a> {
    stream: &'a TcpStream,
    deadline: Deadline,
}

impl Read for HeadReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.remaining();
        if left.is_zero() {
            return Err(std::io::Error::new(ErrorKind::TimedOut, "request head deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Read the request line and drain headers until the blank line. A head
/// that runs into [`MAX_HEAD`] before its blank line is an error; one
/// cut short by the client hanging up is not.
fn read_request(stream: &TcpStream) -> std::io::Result<Request> {
    let head = HeadReader { stream, deadline: Deadline::start(HEAD_DEADLINE_S) };
    let mut reader = BufReader::new(head.take(MAX_HEAD));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "bad request line"));
    }
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "request head too long"));
    }
    Ok(Request { method, path })
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())
}

fn handle_connection(mut stream: TcpStream, handler: &(impl Fn(&Request) -> Response + Sync)) {
    let response = match read_request(&stream) {
        Ok(request) => handler(&request),
        Err(_) => {
            Response { status: 400, content_type: "text/plain", body: "bad request\n".to_string() }
        }
    };
    // A scraper that hung up early is its problem, not ours.
    let _ = write_response(&mut stream, &response);
}

/// Accept connections on `listener` until `stop` is raised, running
/// `handle` for each on its own scoped thread; returns once every
/// in-flight connection is done. Every connection gets a write timeout,
/// so a client that stops reading frees its thread.
///
/// The loop blocks in `accept`: after raising `stop`, call [`wake`].
pub fn accept_loop(listener: &TcpListener, stop: &ShutdownFlag, handle: impl Fn(TcpStream) + Sync) {
    std::thread::scope(|scope| loop {
        let accepted = listener.accept();
        if stop.raised() {
            return;
        }
        match accepted {
            Ok((stream, _addr)) => {
                if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok() {
                    let handle = &handle;
                    scope.spawn(move || handle(stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    });
}

/// Unblock the [`accept_loop`] on `listener` once its stop flag is
/// raised: one connection of our own, which the loop drops as it returns.
pub fn wake(listener: &TcpListener) {
    // Connecting to our own loopback listener fails only when the process
    // is out of descriptors; the loop then returns on the next client.
    if let Ok(addr) = listener.local_addr() {
        let _ = TcpStream::connect(addr);
    }
}

/// Serve `handler` over HTTP on `listener` until `stop` is raised and
/// the loop is [`wake`]d.
pub fn serve(
    listener: &TcpListener,
    stop: &ShutdownFlag,
    handler: impl Fn(&Request) -> Response + Sync,
) {
    accept_loop(listener, stop, |stream| handle_connection(stream, &handler));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_stops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = ShutdownFlag::new();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve(&listener, &stop, |req| match req.path.as_str() {
                    "/hello" => Response::ok("text/plain", format!("{} says hi\n", req.method)),
                    other => Response::not_found(other),
                })
            });
            let ok = get(addr, "/hello");
            assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
            assert!(ok.contains("Connection: close"));
            assert!(ok.ends_with("GET says hi\n"));
            let missing = get(addr, "/nope");
            assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"), "{missing}");
            stop.raise();
            wake(&listener);
            server.join().unwrap();
        });
    }

    #[test]
    fn malformed_request_gets_400() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = ShutdownFlag::new();
        std::thread::scope(|scope| {
            let server = scope
                .spawn(|| serve(&listener, &stop, |_| Response::ok("text/plain", "ok".into())));
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"\r\n\r\n").unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 400"), "{out}");
            stop.raise();
            wake(&listener);
            server.join().unwrap();
        });
    }
}
