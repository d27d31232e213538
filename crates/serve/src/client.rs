//! A minimal deadline-bounded HTTP/1.1 client for peer-to-peer hops.
//!
//! The peer tier of the resolver chain speaks the service's own
//! `POST /points` wire format, so the client here is the mirror image of
//! [`crate::http`]: one request per connection, `Content-Length` framing,
//! `Connection: close`.  Every phase — connect, write, read — is charged
//! against **one overall deadline** (the same re-armed-timeout machinery as
//! [`crate::http::read_request_timeout`]): a stalled, slow-dripping or
//! half-dead peer costs at most the deadline, never a worker thread.

use crate::http::read_before_deadline;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Cap on a peer response body (mirrors the server's `MAX_BODY_BYTES`).
const MAX_RESPONSE_BYTES: usize = 4 * 1024 * 1024;

/// One parsed peer response.
#[derive(Debug)]
pub struct ClientReply {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientReply {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }
}

/// Why a peer hop failed.  Every variant is retryable from the chain's
/// point of view — the distinction exists for counters and messages.
#[derive(Debug)]
pub enum ClientError {
    /// The peer could not be reached (refused, unroutable, bad address).
    Connect(String),
    /// The overall deadline expired (connect, write or read phase).
    Deadline,
    /// The connection died or misbehaved mid-exchange.
    Io(String),
    /// The response could not be parsed as HTTP (garbage, truncation).
    Malformed(String),
    /// The peer answered with a non-200 status.
    Status(u16),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(message) => write!(f, "connect: {message}"),
            ClientError::Deadline => write!(f, "deadline exceeded"),
            ClientError::Io(message) => write!(f, "io: {message}"),
            ClientError::Malformed(message) => write!(f, "malformed response: {message}"),
            ClientError::Status(status) => write!(f, "peer answered {status}"),
        }
    }
}

fn io_error(error: std::io::Error) -> ClientError {
    match error.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ClientError::Deadline,
        _ => ClientError::Io(error.to_string()),
    }
}

/// Resolve `addr` ("host:port") to its first socket address.
fn resolve(addr: &str) -> Result<SocketAddr, ClientError> {
    addr.to_socket_addrs()
        .map_err(|error| ClientError::Connect(format!("cannot resolve '{addr}': {error}")))?
        .next()
        .ok_or_else(|| ClientError::Connect(format!("'{addr}' resolves to no address")))
}

/// `POST` a JSON body to `addr` under one overall `deadline`, sending the
/// remaining budget to the peer as `X-Deadline-Ms` so it can shed work it
/// cannot finish in time.
pub fn post_json(
    addr: &str,
    path: &str,
    body: &str,
    deadline: Duration,
) -> Result<ClientReply, ClientError> {
    let expires = Instant::now() + deadline;
    let socket_addr = resolve(addr)?;
    let remaining = expires.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ClientError::Deadline);
    }
    let mut stream = TcpStream::connect_timeout(&socket_addr, remaining).map_err(|error| {
        if error.kind() == std::io::ErrorKind::TimedOut {
            ClientError::Deadline
        } else {
            ClientError::Connect(error.to_string())
        }
    })?;
    let _ = stream.set_nodelay(true);

    let remaining = expires.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ClientError::Deadline);
    }
    let _ = stream.set_write_timeout(Some(remaining));
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nX-Deadline-Ms: {}\r\nConnection: close\r\n\r\n",
        body.len(),
        remaining.as_millis()
    );
    stream.write_all(head.as_bytes()).map_err(io_error)?;
    stream.write_all(body.as_bytes()).map_err(io_error)?;
    stream.flush().map_err(io_error)?;

    read_response(&mut stream, expires)
}

/// Read and parse one `Connection: close` response before `expires`.
fn read_response(stream: &mut TcpStream, expires: Instant) -> Result<ClientReply, ClientError> {
    let mut buffer: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];

    // Head: accumulate until the blank line.
    let head_end = loop {
        if let Some(position) = buffer.windows(4).position(|window| window == b"\r\n\r\n") {
            break position;
        }
        if buffer.len() > MAX_RESPONSE_BYTES {
            return Err(ClientError::Malformed(
                "response head too large".to_string(),
            ));
        }
        match read_before_deadline(stream, &mut chunk, expires).map_err(read_error)? {
            0 => {
                return Err(ClientError::Malformed(
                    "connection closed before the response head ended".to_string(),
                ))
            }
            read => buffer.extend_from_slice(&chunk[..read]),
        }
    };

    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| ClientError::Malformed("response head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| ClientError::Malformed("empty response".to_string()))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ClientError::Malformed(format!("bad status line '{status_line}'")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();

    let content_length: usize = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, value)| value.parse().ok())
        .ok_or_else(|| ClientError::Malformed("missing Content-Length".to_string()))?;
    if content_length > MAX_RESPONSE_BYTES {
        return Err(ClientError::Malformed(format!(
            "response body claims {content_length} bytes"
        )));
    }

    let mut body: Vec<u8> = buffer[head_end + 4..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        match read_before_deadline(stream, &mut chunk[..want], expires).map_err(read_error)? {
            0 => {
                // The peer closed before delivering what Content-Length
                // promised — a truncated body, not a short response.
                return Err(ClientError::Malformed(format!(
                    "body truncated at {} of {content_length} bytes",
                    body.len()
                )));
            }
            read => body.extend_from_slice(&chunk[..read]),
        }
    }

    let body = String::from_utf8(body)
        .map_err(|_| ClientError::Malformed("response body is not UTF-8".to_string()))?;
    if status != 200 {
        return Err(ClientError::Status(status));
    }
    Ok(ClientReply {
        status,
        headers,
        body,
    })
}

fn read_error(error: crate::http::ReadError) -> ClientError {
    match error {
        crate::http::ReadError::Io(io) => io_error(io),
        crate::http::ReadError::BadRequest(message) | crate::http::ReadError::TooLarge(message) => {
            ClientError::Malformed(message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot server thread answering with fixed raw bytes.  It reads
    /// the whole request (head and body) first: closing a socket with unread
    /// bytes makes the kernel answer with RST, which would race the client's
    /// read of the canned reply.
    fn one_shot(raw: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let _ = crate::http::read_request(&mut stream);
                let _ = stream.write_all(raw);
            }
        });
        addr
    }

    #[test]
    fn parses_a_well_formed_response() {
        let addr = one_shot(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Tag: yes\r\n\r\nok");
        let reply = post_json(&addr.to_string(), "/x", "{}", Duration::from_secs(2)).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, "ok");
        assert_eq!(reply.header("x-tag"), Some("yes"));
    }

    #[test]
    fn non_200_is_a_status_error() {
        let addr = one_shot(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n");
        match post_json(&addr.to_string(), "/x", "{}", Duration::from_secs(2)) {
            Err(ClientError::Status(500)) => {}
            other => panic!("expected Status(500), got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_malformed() {
        let addr = one_shot(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort");
        match post_json(&addr.to_string(), "/x", "{}", Duration::from_secs(2)) {
            Err(ClientError::Malformed(message)) => {
                assert!(message.contains("truncated"), "{message}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed() {
        let addr = one_shot(b"\x00\xffnot http at all\r\n\r\n");
        match post_json(&addr.to_string(), "/x", "{}", Duration::from_secs(2)) {
            Err(ClientError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn refused_connection_is_a_connect_error() {
        // Bind-then-drop: the port is very unlikely to be rebound between
        // drop and connect.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        match post_json(&addr.to_string(), "/x", "{}", Duration::from_millis(500)) {
            Err(ClientError::Connect(_)) | Err(ClientError::Deadline) => {}
            other => panic!("expected Connect/Deadline, got {other:?}"),
        }
    }

    #[test]
    fn stalled_peer_hits_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                // Hold the socket open without answering.
                std::thread::sleep(Duration::from_millis(600));
                drop(stream);
            }
        });
        let start = Instant::now();
        match post_json(&addr.to_string(), "/x", "{}", Duration::from_millis(150)) {
            Err(ClientError::Deadline) => {}
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "the deadline must bound the stall"
        );
    }
}
