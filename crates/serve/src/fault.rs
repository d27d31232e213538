//! Deterministic fault injection: a `std`-only TCP proxy that sits between
//! a resolver chain and an upstream serve node and misbehaves **on
//! schedule**.
//!
//! Chaos testing is only convincing when it is reproducible: a fault that
//! fires "sometimes" proves nothing when the test passes.  The proxy
//! therefore draws each connection's fault from a [`FaultSchedule`] that is
//! a pure function of (spec, connection index) — a cyclic script or a
//! seeded pick — so a fixed spec yields the exact same fault sequence on
//! every run, and tests can assert *specific* breaker transitions instead
//! of sleeping and hoping.
//!
//! The fault menu covers every way a peer has ever ruined someone's day:
//!
//! | fault        | what the client sees                                   |
//! |--------------|--------------------------------------------------------|
//! | `pass`       | the upstream's bytes, verbatim                          |
//! | `refuse`     | connection accepted, then closed before any bytes      |
//! | `stall`      | an open socket that never answers                      |
//! | `drop`       | the first half of the raw response, then EOF           |
//! | `http500`    | a fabricated `500` (upstream never contacted)          |
//! | `truncate`   | a correct head whose body stops halfway                |
//! | `garbage`    | correct HTTP framing around an unparseable JSON body   |
//! | `slowdrip`   | the response at one byte per interval                  |
//!
//! Everything is bounded: stalls and drips give up after [`FAULT_CAP`] or
//! on proxy shutdown, so a wedged test run cannot outlive its harness.

use crate::backoff::XorShift64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on how long a stall or slow-drip holds a connection.
pub const FAULT_CAP: Duration = Duration::from_secs(30);

/// Poll interval of the accept loop and of shutdown-aware sleeps.
const POLL: Duration = Duration::from_millis(10);

/// Milliseconds between slow-drip bytes.
const DRIP_INTERVAL: Duration = Duration::from_millis(50);

/// One way to misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully (the control arm of every chaos experiment).
    Pass,
    /// Accept, then close before reading or writing anything.
    Refuse,
    /// Read the request, then hold the socket open without answering.
    Stall,
    /// Forward the request, relay only the first half of the raw response
    /// bytes, then close (may cut mid-head or mid-body).
    DropMidBody,
    /// Answer a fabricated `500` without contacting the upstream.
    Http500,
    /// Relay the full response head (with its original `Content-Length`)
    /// but stop the body halfway — a lying length.
    TruncatedJson,
    /// Correct HTTP framing around a body that is not valid JSON.
    GarbageJson,
    /// Relay the full response at one byte per interval until the client
    /// gives up (its deadline) or [`FAULT_CAP`] expires.
    SlowDrip,
}

/// Every fault name, in [`Fault::ALL`] order, for CLI errors.
pub const FAULT_NAMES: [&str; 8] = [
    "pass", "refuse", "stall", "drop", "http500", "truncate", "garbage", "slowdrip",
];

impl Fault {
    /// Every fault kind, in the order of [`FAULT_NAMES`].
    pub const ALL: [Fault; 8] = [
        Fault::Pass,
        Fault::Refuse,
        Fault::Stall,
        Fault::DropMidBody,
        Fault::Http500,
        Fault::TruncatedJson,
        Fault::GarbageJson,
        Fault::SlowDrip,
    ];

    /// The fault's stable name.
    pub fn name(self) -> &'static str {
        FAULT_NAMES[self.index()]
    }

    /// The fault's index in [`Fault::ALL`] (counter slot).
    pub fn index(self) -> usize {
        Fault::ALL
            .iter()
            .position(|f| *f == self)
            .expect("every fault is in ALL")
    }

    /// Parse one fault name.
    pub fn parse(name: &str) -> Result<Fault, String> {
        FAULT_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| Fault::ALL[i])
            .ok_or_else(|| format!("unknown fault '{name}' (known: {})", FAULT_NAMES.join(" ")))
    }
}

/// Which fault each connection gets — a pure function of the connection
/// index, so a given spec misbehaves identically on every run.
#[derive(Debug, Clone)]
pub enum FaultSchedule {
    /// Connection `i` gets `script[i % len]`.
    Script(Vec<Fault>),
    /// Connection `i` gets a seeded pseudo-random pick from the menu
    /// (deterministic per index — concurrent connections cannot reorder
    /// the draws).
    Seeded {
        /// PRNG seed.
        seed: u64,
        /// Faults to pick among.
        menu: Vec<Fault>,
    },
}

impl FaultSchedule {
    /// Parse a schedule spec:
    ///
    /// * `"refuse,pass,stall"` — a cyclic script;
    /// * `"seed:42:refuse,stall,drop"` — seeded picks from a menu;
    /// * `"seed:42"` — seeded picks from the full menu.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parse_list = |list: &str| -> Result<Vec<Fault>, String> {
            let faults: Result<Vec<Fault>, String> = list
                .split(',')
                .map(|name| Fault::parse(name.trim()))
                .collect();
            let faults = faults?;
            if faults.is_empty() {
                return Err("empty fault list".to_string());
            }
            Ok(faults)
        };
        if let Some(rest) = spec.strip_prefix("seed:") {
            let (seed, menu) = match rest.split_once(':') {
                Some((seed, list)) => (seed, parse_list(list)?),
                None => (rest, Fault::ALL.to_vec()),
            };
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| format!("invalid seed '{seed}'"))?;
            Ok(FaultSchedule::Seeded { seed, menu })
        } else {
            Ok(FaultSchedule::Script(parse_list(spec)?))
        }
    }

    /// The fault for connection number `connection` (0-based).
    pub fn pick(&self, connection: u64) -> Fault {
        match self {
            FaultSchedule::Script(script) => script[(connection as usize) % script.len()],
            FaultSchedule::Seeded { seed, menu } => {
                // Mix the index through the full PRNG so neighbouring
                // connections draw independently.
                let mut rng =
                    XorShift64::new(seed ^ (connection.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                menu[rng.below(menu.len() as u64) as usize]
            }
        }
    }
}

/// A running fault proxy: listener address, per-fault counters, shutdown.
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    counts: Arc<[AtomicU64; 8]>,
    handle: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral local port, forwarding to `upstream`
    /// under `schedule`.
    pub fn start(upstream: String, schedule: FaultSchedule) -> std::io::Result<FaultProxy> {
        Self::start_on("127.0.0.1:0", upstream, schedule)
    }

    /// Start a proxy on an explicit listen address.
    pub fn start_on(
        listen: &str,
        upstream: String,
        schedule: FaultSchedule,
    ) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let counts: Arc<[AtomicU64; 8]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));

        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let counts = Arc::clone(&counts);
            std::thread::spawn(move || {
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let index = connections.fetch_add(1, Ordering::SeqCst);
                            let fault = schedule.pick(index);
                            counts[fault.index()].fetch_add(1, Ordering::Relaxed);
                            let upstream = upstream.clone();
                            let shutdown = Arc::clone(&shutdown);
                            workers.push(std::thread::spawn(move || {
                                serve_faulty(stream, &upstream, fault, &shutdown);
                            }));
                        }
                        Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => break,
                    }
                    workers.retain(|w| !w.is_finished());
                }
                for worker in workers {
                    let _ = worker.join();
                }
            })
        };

        Ok(FaultProxy {
            addr,
            shutdown,
            connections,
            counts,
            handle: Some(handle),
        })
    }

    /// The proxy's listen address (point `--peer` here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Per-fault connection counts, `(name, count)` in [`Fault::ALL`] order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        Fault::ALL
            .iter()
            .map(|fault| {
                (
                    fault.name(),
                    self.counts[fault.index()].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Stop accepting and join every in-flight fault worker (stalls and
    /// drips observe the shutdown flag and exit promptly).
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Sleep in poll-sized steps until `total` elapses or shutdown is raised.
fn interruptible_sleep(total: Duration, shutdown: &AtomicBool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(POLL.min(deadline.saturating_duration_since(Instant::now())));
    }
}

/// Read one `Connection: close` HTTP request (head + `Content-Length`
/// body) from the client.  Returns the raw bytes, or `None` on EOF /
/// error / malformed input — the proxy then just closes, which is itself
/// a fine fault from the client's point of view.
fn read_raw_request(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buffer = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(position) = buffer.windows(4).position(|w| w == b"\r\n\r\n") {
            break position;
        }
        if buffer.len() > 64 * 1024 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(read) => buffer.extend_from_slice(&chunk[..read]),
        }
    };
    let content_length = std::str::from_utf8(&buffer[..head_end])
        .ok()?
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let total = head_end + 4 + content_length.min(8 * 1024 * 1024);
    while buffer.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(read) => buffer.extend_from_slice(&chunk[..read]),
        }
    }
    Some(buffer)
}

/// Forward `request` to the upstream and read its whole response
/// (`Connection: close` ⇒ EOF-delimited).
fn fetch_upstream(upstream: &str, request: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(upstream).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
    stream.write_all(request).ok()?;
    let _ = stream.flush();
    let mut response = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => response.extend_from_slice(&chunk[..read]),
            Err(_) => return None,
        }
    }
    Some(response)
}

/// Handle one proxied connection under its assigned fault.
fn serve_faulty(mut client: TcpStream, upstream: &str, fault: Fault, shutdown: &AtomicBool) {
    let _ = client.set_nodelay(true);
    match fault {
        Fault::Refuse => {
            // Close before reading anything: the client sees an
            // immediate EOF/reset where a response head should be.
        }
        Fault::Stall => {
            let _ = read_raw_request(&mut client);
            interruptible_sleep(FAULT_CAP, shutdown);
        }
        Fault::Http500 => {
            let _ = read_raw_request(&mut client);
            let body = r#"{"error":"injected fault"}"#;
            let head = format!(
                "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            let _ = client.write_all(head.as_bytes());
            let _ = client.write_all(body.as_bytes());
        }
        Fault::GarbageJson => {
            let _ = read_raw_request(&mut client);
            let body = r#"{"results":[{"point":@@@ not json @@@"#;
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            let _ = client.write_all(head.as_bytes());
            let _ = client.write_all(body.as_bytes());
        }
        Fault::Pass | Fault::DropMidBody | Fault::TruncatedJson | Fault::SlowDrip => {
            let Some(request) = read_raw_request(&mut client) else {
                return;
            };
            let Some(response) = fetch_upstream(upstream, &request) else {
                return; // upstream gone: closing is fault enough
            };
            match fault {
                Fault::Pass => {
                    let _ = client.write_all(&response);
                }
                Fault::DropMidBody => {
                    let _ = client.write_all(&response[..response.len() / 2]);
                }
                Fault::TruncatedJson => {
                    // Full head (its Content-Length now lies), half body.
                    let head_end = response
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map(|p| p + 4)
                        .unwrap_or(0);
                    let body_len = response.len() - head_end;
                    let keep = head_end + body_len / 2;
                    let _ = client.write_all(&response[..keep]);
                }
                Fault::SlowDrip => {
                    let deadline = Instant::now() + FAULT_CAP;
                    for byte in &response {
                        if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                            break;
                        }
                        if client.write_all(std::slice::from_ref(byte)).is_err() {
                            break;
                        }
                        let _ = client.flush();
                        interruptible_sleep(DRIP_INTERVAL, shutdown);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    let _ = client.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_names_round_trip() {
        for fault in Fault::ALL {
            assert_eq!(Fault::parse(fault.name()).unwrap(), fault);
        }
        let error = Fault::parse("gremlins").unwrap_err();
        for name in FAULT_NAMES {
            assert!(error.contains(name), "{error}");
        }
    }

    #[test]
    fn script_schedule_cycles() {
        let schedule = FaultSchedule::parse("refuse,pass").unwrap();
        assert_eq!(schedule.pick(0), Fault::Refuse);
        assert_eq!(schedule.pick(1), Fault::Pass);
        assert_eq!(schedule.pick(2), Fault::Refuse);
        assert_eq!(schedule.pick(101), Fault::Pass);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_menu_bound() {
        let a = FaultSchedule::parse("seed:42:refuse,stall,drop").unwrap();
        let b = FaultSchedule::parse("seed:42:refuse,stall,drop").unwrap();
        let menu = [Fault::Refuse, Fault::Stall, Fault::DropMidBody];
        for connection in 0..64 {
            let fault = a.pick(connection);
            assert_eq!(fault, b.pick(connection), "same seed, same draw");
            assert!(menu.contains(&fault));
        }
        // A bare seed uses the full menu.
        let full = FaultSchedule::parse("seed:7").unwrap();
        let _ = full.pick(0);
        // Different seeds diverge somewhere in the first few draws.
        let other = FaultSchedule::parse("seed:43:refuse,stall,drop").unwrap();
        assert!(
            (0..64).any(|i| a.pick(i) != other.pick(i)),
            "different seeds should diverge"
        );
    }

    #[test]
    fn schedule_parse_rejects_bad_specs() {
        assert!(FaultSchedule::parse("").is_err());
        assert!(FaultSchedule::parse("refuse,bogus").is_err());
        assert!(FaultSchedule::parse("seed:notanumber:pass").is_err());
    }

    #[test]
    fn pass_fault_relays_verbatim_and_counts() {
        // A tiny upstream answering a fixed response once it has read the
        // whole request (closing on unread bytes would send RST).
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = upstream.accept() {
                let _ = crate::http::read_request(&mut stream);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody");
            }
        });
        let proxy = FaultProxy::start(
            upstream_addr.to_string(),
            FaultSchedule::Script(vec![Fault::Pass]),
        )
        .unwrap();
        let reply = crate::client::post_json(
            &proxy.addr().to_string(),
            "/x",
            "{}",
            Duration::from_secs(2),
        )
        .unwrap();
        assert_eq!(reply.body, "body");
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.counts()[0], ("pass", 1));
        proxy.stop();
    }

    #[test]
    fn refuse_and_500_faults_fail_the_client() {
        let proxy = FaultProxy::start(
            "127.0.0.1:1".to_string(), // never contacted by these faults
            FaultSchedule::Script(vec![Fault::Refuse, Fault::Http500]),
        )
        .unwrap();
        let addr = proxy.addr().to_string();
        match crate::client::post_json(&addr, "/x", "{}", Duration::from_secs(2)) {
            Err(crate::client::ClientError::Malformed(_))
            | Err(crate::client::ClientError::Io(_)) => {}
            other => panic!("refuse: expected Malformed/Io, got {other:?}"),
        }
        match crate::client::post_json(&addr, "/x", "{}", Duration::from_secs(2)) {
            Err(crate::client::ClientError::Status(500)) => {}
            other => panic!("http500: expected Status(500), got {other:?}"),
        }
        proxy.stop();
    }
}
