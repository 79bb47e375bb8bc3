//! Connection-sweep load harness: many persistent keep-alive
//! connections driving interleaved `/v1/rate` + `/v1/group` +
//! `/v1/stats` traffic, with latency percentiles and consistency
//! checks.
//!
//! Shared by the `tests/load.rs` sweeps, the `conn_sweep` bench and the
//! `conn_sweep` example so all three measure exactly the same workload.
//! The harness is deliberately a *lockstep* client per connection (one
//! request in flight each): concurrency comes from the number of open
//! connections, which is the axis the transport work targets — 100 →
//! 1k → 10k persistent connections — not from per-connection
//! pipelining.
//!
//! Consistency is checked while the load runs: every response carrying
//! a `"version"` field must be monotone per connection (snapshot
//! versions never move backwards), and every `/v1/rate` acknowledgment
//! is counted so callers can reconcile the ledger against
//! `/v1/stats.rates_accepted` afterwards — the "zero lost updates"
//! criterion.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sweep point: how many connections, how much traffic.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Persistent keep-alive connections held open for the whole run.
    pub connections: usize,
    /// Requests issued per connection (interleaved mix).
    pub requests_per_conn: usize,
    /// Driver threads the connections are sharded across (0 = auto).
    pub threads: usize,
    /// User-id space for `/v1/group/{user}` and `/v1/rate` traffic.
    pub users: u32,
    /// Item-id space for `/v1/rate` traffic.
    pub items: u32,
}

/// What one sweep measured.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Connections actually opened.
    pub connections: usize,
    /// Total requests answered (any status).
    pub requests: u64,
    /// Responses with an unexpected status (not 200/202/409).
    pub errors: u64,
    /// `/v1/rate` requests acknowledged with 202.
    pub rates_accepted: u64,
    /// Wall-clock for the request phase (connections already open).
    pub elapsed: Duration,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Requests per second over the request phase.
    pub rps: f64,
    /// Highest snapshot version observed in any response.
    pub max_version: u64,
}

/// Soft open-file limit of this process (connection budget for
/// in-process sweeps); falls back to 1024 when `/proc` is unreadable.
pub fn fd_budget() -> usize {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// One persistent keep-alive connection with its consistency state.
struct SweepConn {
    stream: TcpStream,
    /// Last snapshot version seen on this connection; responses must
    /// never report an older one.
    last_version: u64,
    /// Reused response buffer.
    buf: Vec<u8>,
}

/// Reads one HTTP/1.1 response off `stream` into `buf`; returns
/// `(status, body_start, body_len)`. The caller owns keep-alive.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, usize, usize)> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_double_crlf(buf) {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 header"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
        })?;
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((status, body_start, content_length))
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Pulls `"version":N` out of a JSON body without a full parse (the
/// bodies are server-generated, so the cheap scan is reliable).
fn scan_version(body: &str) -> Option<u64> {
    let at = body.find("\"version\":")?;
    let digits: String = body[at + "\"version\":".len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Errors a sweep can fail with beyond plain I/O.
#[derive(Debug)]
pub enum SweepError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A response reported an older snapshot version than one already
    /// seen on the same connection.
    VersionRegressed {
        /// Version previously observed on the connection.
        seen: u64,
        /// The older version the offending response reported.
        got: u64,
    },
}

impl From<std::io::Error> for SweepError {
    fn from(err: std::io::Error) -> SweepError {
        SweepError::Io(err)
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(err) => write!(f, "sweep i/o error: {err}"),
            SweepError::VersionRegressed { seen, got } => {
                write!(f, "snapshot version regressed: saw {seen}, then {got}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Issues one request on `conn` and validates the response. Returns
/// `(status, version_seen, latency)`.
fn one_request(
    conn: &mut SweepConn,
    seq: u64,
    users: u32,
    items: u32,
) -> Result<(u16, Option<u64>, Duration), SweepError> {
    // Interleave the three endpoint families, weighted toward reads the
    // way a serving tier sees them: group lookups, stats polls, rates.
    let wire = match seq % 4 {
        0 => {
            let body = format!(
                "{{\"user\":{},\"item\":{},\"rating\":{}}}",
                seq % u64::from(users.max(1)),
                seq % u64::from(items.max(1)),
                1 + (seq % 5),
            );
            format!(
                "POST /v1/rate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
                body.len(),
                body
            )
        }
        1 => format!(
            "GET /v1/group/{} HTTP/1.1\r\n\r\n",
            seq % u64::from(users.max(1))
        ),
        _ => "GET /v1/stats HTTP/1.1\r\n\r\n".to_string(),
    };
    let started = Instant::now();
    conn.stream.write_all(wire.as_bytes())?;
    let mut buf = std::mem::take(&mut conn.buf);
    let result = read_response(&mut conn.stream, &mut buf);
    conn.buf = buf;
    let (status, body_start, body_len) = result?;
    let latency = started.elapsed();
    let body = std::str::from_utf8(&conn.buf[body_start..body_start + body_len]).unwrap_or("");
    let version = scan_version(body);
    if let Some(v) = version {
        if v < conn.last_version {
            return Err(SweepError::VersionRegressed {
                seen: conn.last_version,
                got: v,
            });
        }
        conn.last_version = v;
    }
    Ok((status, version, latency))
}

/// Opens `cfg.connections` persistent connections to `addr`, drives the
/// interleaved workload over all of them, and reports percentiles and
/// throughput. Fails fast on any transport error or version regression.
pub fn run_sweep(addr: SocketAddr, cfg: &SweepConfig) -> Result<SweepReport, SweepError> {
    let threads = gf_core::resolve_threads(cfg.threads, cfg.connections.max(1));
    let mut conns: Vec<Vec<SweepConn>> = (0..threads).map(|_| Vec::new()).collect();
    for i in 0..cfg.connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        conns[i % threads].push(SweepConn {
            stream,
            last_version: 0,
            buf: Vec::new(),
        });
    }
    let rates_accepted = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let max_version = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut joins = Vec::new();
    for (t, mut shard) in conns.into_iter().enumerate() {
        let rates_accepted = Arc::clone(&rates_accepted);
        let errors = Arc::clone(&errors);
        let max_version = Arc::clone(&max_version);
        let cfg = cfg.clone();
        joins.push(std::thread::spawn(move || {
            let mut latencies: Vec<u64> = Vec::new();
            let mut requests = 0u64;
            for round in 0..cfg.requests_per_conn {
                for (c, conn) in shard.iter_mut().enumerate() {
                    // Decorrelate the endpoint mix across connections so
                    // every round exercises all three families at once.
                    let seq = (t + c + round * 7) as u64;
                    let (status, version, latency) = one_request(conn, seq, cfg.users, cfg.items)?;
                    requests += 1;
                    latencies.push(latency.as_micros() as u64);
                    match status {
                        202 => {
                            if seq.is_multiple_of(4) {
                                rates_accepted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        200 | 409 => {}
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(v) = version {
                        max_version.fetch_max(v, Ordering::Relaxed);
                    }
                }
            }
            Ok::<(Vec<u64>, u64), SweepError>((latencies, requests))
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut requests = 0u64;
    for join in joins {
        let (shard_latencies, shard_requests) =
            join.join().expect("sweep driver thread panicked")?;
        latencies.extend(shard_latencies);
        requests += shard_requests;
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[rank]
    };
    Ok(SweepReport {
        connections: cfg.connections,
        requests,
        errors: errors.load(Ordering::Relaxed),
        rates_accepted: rates_accepted.load(Ordering::Relaxed),
        elapsed,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        rps: if elapsed.as_secs_f64() > 0.0 {
            requests as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        max_version: max_version.load(Ordering::Relaxed),
    })
}

impl SweepReport {
    /// One-line summary, the format EXPERIMENTS.md tables quote.
    pub fn summary(&self) -> String {
        format!(
            "conns={} reqs={} errors={} p50={}us p99={}us rps={:.0} max_version={}",
            self.connections,
            self.requests,
            self.errors,
            self.p50_us,
            self.p99_us,
            self.rps,
            self.max_version
        )
    }
}
