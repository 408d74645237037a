//! `LoopbackShardServer`: a minimal HTTP/1.1 file server over a store
//! directory, for tests, benches, and examples.
//!
//! The server binds `127.0.0.1:0`, serves `GET` (with `Range:`
//! support) for files directly inside its directory, and keeps
//! connections alive between requests. A [`FaultPlan`] injects the
//! failure modes the client's retry path must survive: 503 responses,
//! dropped connections, truncated bodies, and per-request latency.
//!
//! It exists so the network tier is exercisable in a fully offline
//! build — nothing here is a production server.

use crate::acceptor::{Acceptor, ShutdownLatch};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Failure injection for the loopback server, counted down per plan —
/// the first `fail_first + drop_first + truncate_first` requests
/// misbehave (in that order), then the server serves normally. All
/// counters are shared across connections.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Serve this many requests normally before the fault counters
    /// start claiming (e.g. `1` lets a manifest fetch through so the
    /// faults land on shard reads).
    pub spare_first: u32,
    /// Answer this many requests with `503 Service Unavailable`.
    pub fail_first: u32,
    /// Close this many connections without any response.
    pub drop_first: u32,
    /// Answer this many requests with the full `Content-Length` but
    /// only half the body, then close the connection.
    pub truncate_first: u32,
    /// Sleep this long before answering every request (models network
    /// latency; applies to well-served requests too).
    pub latency: Duration,
}

/// What one request should do, decided under the fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Behavior {
    Serve,
    Fail503,
    Drop,
    Truncate,
}

#[derive(Debug)]
struct ServerState {
    dir: PathBuf,
    latency: Duration,
    spare_first: AtomicU32,
    fail_first: AtomicU32,
    drop_first: AtomicU32,
    truncate_first: AtomicU32,
    requests: AtomicUsize,
    bytes_served: AtomicUsize,
}

impl ServerState {
    /// Claim the next fault (if any) for an incoming request.
    fn next_behavior(&self) -> Behavior {
        if self
            .spare_first
            // ORDERING: fault budgets are independent counters claimed by
            // CAS; no other memory is published through them.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return Behavior::Serve;
        }
        for (counter, behavior) in [
            (&self.fail_first, Behavior::Fail503),
            (&self.drop_first, Behavior::Drop),
            (&self.truncate_first, Behavior::Truncate),
        ] {
            if counter
                // ORDERING: same independent-counter argument as above.
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return behavior;
            }
        }
        Behavior::Serve
    }
}

/// Largest body one request may ask the loopback server to buffer —
/// the check-before-allocate guard on the (wire-derived) range length.
const MAX_SERVE_BYTES: u64 = 1 << 30;

/// A running loopback server; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop.
#[derive(Debug)]
pub struct LoopbackShardServer {
    state: Arc<ServerState>,
    acceptor: Acceptor,
}

impl LoopbackShardServer {
    /// Serve the files directly inside `dir` with no injected faults.
    pub fn serve(dir: impl Into<PathBuf>) -> std::io::Result<LoopbackShardServer> {
        Self::serve_with_faults(dir, FaultPlan::default())
    }

    /// Serve the files directly inside `dir`, misbehaving per `faults`.
    pub fn serve_with_faults(
        dir: impl Into<PathBuf>,
        faults: FaultPlan,
    ) -> std::io::Result<LoopbackShardServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let state = Arc::new(ServerState {
            dir: dir.into(),
            latency: faults.latency,
            spare_first: AtomicU32::new(faults.spare_first),
            fail_first: AtomicU32::new(faults.fail_first),
            drop_first: AtomicU32::new(faults.drop_first),
            truncate_first: AtomicU32::new(faults.truncate_first),
            requests: AtomicUsize::new(0),
            bytes_served: AtomicUsize::new(0),
        });
        let conn_state = Arc::clone(&state);
        let acceptor = Acceptor::spawn(listener, move |stream, shutdown| {
            serve_connection(stream, &conn_state, shutdown)
        })?;
        Ok(LoopbackShardServer { state, acceptor })
    }

    /// The server's base URL, e.g. `http://127.0.0.1:41373`.
    pub fn url(&self) -> String {
        format!("http://{}", self.acceptor.addr())
    }

    /// Requests received so far (faulted ones included).
    pub fn requests(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.state.requests.load(Ordering::Relaxed)
    }

    /// Body bytes actually written to clients.
    pub fn bytes_served(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.state.bytes_served.load(Ordering::Relaxed)
    }

    /// Stop accepting connections. In-flight requests finish; idle
    /// keep-alive connections are closed at their next request.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// Serve keep-alive requests on one connection until it closes, a
/// fault drops it, or shutdown is flagged.
fn serve_connection(stream: TcpStream, state: &ServerState, shutdown: &ShutdownLatch) {
    // An idle keep-alive connection must not pin the thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        if shutdown.is_set() {
            return;
        }
        let Some(request) = read_request(&mut reader) else {
            return;
        };
        // ORDERING: statistics counter, guards nothing.
        state.requests.fetch_add(1, Ordering::Relaxed);
        if !state.latency.is_zero() {
            std::thread::sleep(state.latency);
        }
        match state.next_behavior() {
            Behavior::Drop => return,
            Behavior::Fail503 => {
                if respond(&mut stream, 503, "Service Unavailable", b"unavailable").is_err() {
                    return;
                }
            }
            behavior => {
                let truncate = behavior == Behavior::Truncate;
                let served = serve_file(&mut stream, state, &request, truncate);
                match served {
                    // A truncated body desynchronizes the connection on
                    // purpose; close it like a crashed server would.
                    Ok(_) if truncate => return,
                    Ok(n) => {
                        // ORDERING: statistics counter, guards nothing.
                        state.bytes_served.fetch_add(n, Ordering::Relaxed);
                    }
                    Err(_) => return,
                }
            }
        }
    }
}

/// One parsed request: the GET target and optional byte range.
#[derive(Debug)]
struct Request {
    path: String,
    /// `Range: bytes=a-b` as an inclusive pair.
    range: Option<(u64, u64)>,
}

/// Read one request (start line + headers) off the connection; `None`
/// when the client closed it or sent garbage.
fn read_request(reader: &mut BufReader<TcpStream>) -> Option<Request> {
    let mut start_line = String::new();
    if reader.read_line(&mut start_line).ok()? == 0 {
        return None;
    }
    let mut parts = start_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?.to_string();
    if method != "GET" {
        return None;
    }
    let mut range = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("range") {
                range = parse_range(value.trim());
            }
        }
    }
    Some(Request { path, range })
}

/// Parse `bytes=a-b` (both bounds required — the only form the client
/// sends). Anything else is ignored, falling back to a full-file 200.
fn parse_range(value: &str) -> Option<(u64, u64)> {
    let spec = value.strip_prefix("bytes=")?;
    let (a, b) = spec.split_once('-')?;
    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
    (a <= b).then_some((a, b))
}

/// Serve the requested file (or range of it); returns body bytes sent.
fn serve_file(
    stream: &mut TcpStream,
    state: &ServerState,
    request: &Request,
    truncate: bool,
) -> std::io::Result<usize> {
    // Only plain names directly inside the store directory: a path
    // with separators or `..` is not a shard name.
    let name = request.path.trim_start_matches('/');
    if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
        respond(stream, 404, "Not Found", b"no such file")?;
        return Ok(0);
    }
    let mut file = match std::fs::File::open(state.dir.join(name)) {
        Ok(f) => f,
        Err(_) => {
            respond(stream, 404, "Not Found", b"no such file")?;
            return Ok(0);
        }
    };
    let file_len = file.metadata()?.len();
    let (status, start, len) = match request.range {
        Some((a, b)) if a < file_len => {
            let end = b.min(file_len - 1);
            (206, a, end - a + 1)
        }
        Some(_) => {
            respond(stream, 416, "Range Not Satisfiable", b"range past end")?;
            return Ok(0);
        }
        None => (200, 0, file_len),
    };
    if len > MAX_SERVE_BYTES {
        respond(stream, 413, "Payload Too Large", b"range too large")?;
        return Ok(0);
    }
    file.seek(SeekFrom::Start(start))?;
    let mut body = vec![0u8; len as usize];
    file.read_exact(&mut body)?;

    let mut head = String::new();
    let reason = if status == 206 {
        "Partial Content"
    } else {
        "OK"
    };
    head.push_str(&format!("HTTP/1.1 {status} {reason}\r\n"));
    head.push_str(&format!("Content-Length: {len}\r\n"));
    if status == 206 {
        head.push_str(&format!(
            "Content-Range: bytes {start}-{}/{file_len}\r\n",
            start + len - 1
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    let send = if truncate { body.len() / 2 } else { body.len() };
    // lint:allow(L3): in-bounds by arithmetic — `send` is `body.len()` or
    // half of it.
    stream.write_all(&body[..send])?;
    stream.flush()?;
    Ok(send)
}

/// Write a small fixed response (errors and 503s).
fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &[u8]) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, HttpClient, RetryPolicy};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpmdr-netstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn serves_whole_files_and_ranges_over_keep_alive() {
        let dir = temp_dir("serve");
        let payload: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(dir.join("c0.shard"), &payload).unwrap();

        let server = LoopbackShardServer::serve(&dir).unwrap();
        let client = HttpClient::with_defaults();
        let url = format!("{}/c0.shard", server.url());

        assert_eq!(client.get(&url).unwrap(), payload);
        assert_eq!(client.get_range(&url, 0, 16).unwrap(), &payload[..16]);
        assert_eq!(
            client.get_range(&url, 123, 457).unwrap(),
            &payload[123..580]
        );
        // Three requests on one keep-alive connection.
        assert_eq!(client.requests(), 3);
        assert_eq!(server.requests(), 3);
        assert_eq!(client.retries(), 0);

        let missing = format!("{}/nope.shard", server.url());
        let err = client.get(&missing).unwrap_err();
        assert_eq!(err.status(), Some(404));

        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_are_survived_within_the_retry_budget() {
        let dir = temp_dir("faults");
        let payload = vec![7u8; 4096];
        std::fs::write(dir.join("c0.shard"), &payload).unwrap();

        let server = LoopbackShardServer::serve_with_faults(
            &dir,
            FaultPlan {
                fail_first: 1,
                drop_first: 1,
                truncate_first: 1,
                ..FaultPlan::default()
            },
        )
        .unwrap();
        let client = HttpClient::new(ClientConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
            ..ClientConfig::default()
        });
        let url = format!("{}/c0.shard", server.url());
        // 503, dropped connection, truncated body — then success.
        assert_eq!(client.get_range(&url, 0, 4096).unwrap(), payload);
        assert_eq!(client.retries(), 3);

        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_faults_exhaust_retries_with_a_typed_error() {
        let dir = temp_dir("exhaust");
        std::fs::write(dir.join("c0.shard"), vec![1u8; 64]).unwrap();

        let server = LoopbackShardServer::serve_with_faults(
            &dir,
            FaultPlan {
                fail_first: 100,
                ..FaultPlan::default()
            },
        )
        .unwrap();
        let client = HttpClient::new(ClientConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..ClientConfig::default()
        });
        let url = format!("{}/c0.shard", server.url());
        let err = client.get(&url).unwrap_err();
        match err {
            crate::HttpError::RetriesExhausted { attempts, ref last } => {
                assert_eq!(attempts, 3);
                assert_eq!(last.status(), Some(503));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }

        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
