//! The load generator: pipelined HTTP/1.1 over keep-alive connections.
//!
//! Two threads drive any number of connections: one sends, one reads
//! every connection through an epoll instance. In the open loop a
//! request is sent when it falls due, whether or not earlier replies have
//! arrived, and its latency is timed from the due time: a server stall is
//! charged to every request that fell due during it. In the closed loop
//! each connection keeps a fixed number of requests outstanding, and the
//! reading thread sends each replacement.

use gf_netpoll::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which endpoint a request hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/group/...`
    Group,
    /// `GET /v1/recommend/...`
    Recommend,
    /// `POST /v1/rate`
    Rate,
    /// `POST /v1/feedback`
    Feedback,
}

impl Route {
    /// Reads are the group and recommend lookups.
    pub fn is_read(self) -> bool {
        matches!(self, Route::Group | Route::Recommend)
    }
}

/// One request, ready to send.
#[derive(Debug, Clone)]
pub struct Req {
    /// Endpoint.
    pub route: Route,
    /// Method (`GET`/`POST`).
    pub method: &'static str,
    /// Path with query.
    pub target: String,
    /// Body (empty for GET).
    pub body: String,
    /// The `(user, item, rating)` a write carries.
    pub write: Option<(u32, u32, f64)>,
}

impl Req {
    /// A `GET` of `target`.
    pub fn get(route: Route, target: String) -> Req {
        Req {
            route,
            method: "GET",
            target,
            body: String::new(),
            write: None,
        }
    }

    /// A `POST` of `body` to `target`.
    pub fn post(route: Route, target: &str, body: String, write: Option<(u32, u32, f64)>) -> Req {
        Req {
            route,
            method: "POST",
            target: target.to_string(),
            body,
            write,
        }
    }

    /// Serializes the request for a keep-alive connection.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            format!(
                "{} {} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{}",
                self.method,
                self.target,
                self.body.len(),
                self.body
            )
            .as_bytes(),
        );
    }
}

/// One answered request. Times are µs since the run's origin.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Endpoint.
    pub route: Route,
    /// When it was due (open loop) or sent (closed loop).
    pub due: f64,
    /// When its response was complete.
    pub recv: f64,
    /// HTTP status.
    pub status: u16,
    /// Snapshot `version` carried by the body.
    pub version: Option<u64>,
    /// `pending` carried by a 202 body.
    pub pending: Option<u64>,
    /// The write the request carried.
    pub write: Option<(u32, u32, f64)>,
}

impl Reply {
    /// Latency in µs, from due (or send) time to the complete response.
    pub fn latency(&self) -> f64 {
        self.recv - self.due
    }

    /// 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// What one connection saw during one phase.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Answered requests, in send order.
    pub replies: Vec<Reply>,
    /// How late each send was against its due time (µs; open loop).
    pub late: Vec<f64>,
    /// Requests sent.
    pub sent: usize,
    /// Requests still unanswered when the phase ended.
    pub unanswered: usize,
    /// A transport error, if the connection broke.
    pub error: Option<String>,
}

/// Whether snapshot versions never decrease along `replies`.
pub fn versions_monotone(replies: &[&Reply]) -> bool {
    let versions: Vec<u64> = replies.iter().filter_map(|r| r.version).collect();
    versions.windows(2).all(|w| w[0] <= w[1])
}

/// Value of a numeric field `"key":N` in a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Incremental HTTP/1.1 response framing.
#[derive(Default)]
struct Responses {
    buf: Vec<u8>,
}

impl Responses {
    /// The next complete `(status, body)`, if buffered.
    fn next(&mut self) -> Result<Option<(u16, String)>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0);
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok(Some((status, body)))
    }
}

fn micros(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64() * 1e6
}

/// Requests sent on one connection and not yet answered, oldest first:
/// `(route, due µs, write)`.
type Pending = Mutex<VecDeque<(Route, f64, Option<(u32, u32, f64)>)>>;

/// `write_all` on a non-blocking socket.
fn send(mut stream: &TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads every connection through one epoll instance, so a reply is
/// timed when it arrives rather than at the next timer tick.
struct Reader<'a> {
    streams: &'a [TcpStream],
    pending: &'a [Pending],
    origin: Instant,
    poller: Poller,
    events: Vec<Event>,
    framing: Vec<Responses>,
    logs: Vec<ConnLog>,
}

impl<'a> Reader<'a> {
    fn new(streams: &'a [TcpStream], pending: &'a [Pending], origin: Instant) -> Self {
        let poller = Poller::new().expect("epoll instance");
        for (i, s) in streams.iter().enumerate() {
            s.set_nonblocking(true).expect("non-blocking socket");
            poller.add(s, i as u64, Interest::READ).expect("epoll add");
        }
        Reader {
            streams,
            pending,
            origin,
            poller,
            events: Vec::new(),
            framing: streams.iter().map(|_| Responses::default()).collect(),
            logs: streams.iter().map(|_| ConnLog::default()).collect(),
        }
    }

    fn broken(&mut self, c: usize, why: String) {
        self.logs[c].error = Some(why);
        let _ = self.poller.delete(&self.streams[c]);
    }

    /// Waits up to `wait` for replies and records each complete one.
    /// Returns how many replies each connection got.
    fn poll(&mut self, wait: Duration) -> Vec<usize> {
        let mut got = vec![0; self.streams.len()];
        if self.poller.wait(&mut self.events, Some(wait)).is_err() {
            return got;
        }
        let ready: Vec<usize> = self.events.iter().map(|e| e.token as usize).collect();
        let mut chunk = [0u8; 64 * 1024];
        for c in ready {
            loop {
                match (&self.streams[c]).read(&mut chunk) {
                    Ok(0) => {
                        self.broken(c, "server closed the connection".into());
                        break;
                    }
                    Ok(n) => self.framing[c].buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.broken(c, format!("read: {e}"));
                        break;
                    }
                }
            }
            let recv = micros(self.origin);
            loop {
                match self.framing[c].next() {
                    Ok(Some((status, body))) => {
                        let popped = self.pending[c].lock().expect("pending lock").pop_front();
                        let Some((route, due, write)) = popped else {
                            self.broken(c, "response without a request".into());
                            break;
                        };
                        got[c] += 1;
                        self.logs[c].replies.push(Reply {
                            route,
                            due,
                            recv,
                            status,
                            version: json_u64(&body, "version"),
                            pending: json_u64(&body, "pending"),
                            write,
                        });
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.broken(c, e);
                        break;
                    }
                }
            }
        }
        got
    }

    /// Whether every live connection has all its replies.
    fn idle(&self) -> bool {
        self.pending
            .iter()
            .zip(&self.logs)
            .all(|(p, l)| l.error.is_some() || p.lock().expect("pending lock").is_empty())
    }

    fn finish(mut self) -> Vec<ConnLog> {
        for (log, p) in self.logs.iter_mut().zip(self.pending) {
            log.unanswered = p.lock().expect("pending lock").len();
        }
        self.logs
    }
}

/// Encodes `req`, records it as outstanding on connection `c`, and
/// appends it to that connection's send batch.
fn enqueue(pending: &Pending, batch: &mut Vec<u8>, req: &Req, due: f64) {
    req.encode(batch);
    pending
        .lock()
        .expect("pending lock")
        .push_back((req.route, due, req.write));
}

/// Open loop over `streams`: the calling thread sends each
/// `(due µs, connection, request)` when due, pipelined, never waiting for
/// replies, while one reader thread times the replies. After the last
/// send it waits for the remaining replies until `deadline_us`. Latency
/// counts from the due time.
pub fn run_open(
    streams: &[TcpStream],
    origin: Instant,
    plan: &[(f64, usize, &Req)],
    deadline_us: f64,
) -> Vec<ConnLog> {
    let pending: Vec<Pending> = streams.iter().map(|_| Mutex::default()).collect();
    let done = AtomicBool::new(false);
    let reader = Reader::new(streams, &pending, origin);
    let n = streams.len();
    let mut late = vec![Vec::new(); n];
    let mut sent = vec![0; n];
    let mut errors = vec![None; n];
    let mut logs = std::thread::scope(|s| {
        let done = &done;
        let handle = s.spawn(move || {
            let mut reader = reader;
            loop {
                reader.poll(Duration::from_millis(20));
                let finished = done.load(Ordering::SeqCst) && reader.idle();
                if finished || micros(origin) >= deadline_us {
                    return reader.finish();
                }
            }
        });
        let mut batches = vec![Vec::new(); n];
        let mut next = 0;
        while next < plan.len() {
            let wait = plan[next].0 - micros(origin);
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait / 1e6));
            }
            let now = micros(origin);
            while next < plan.len() && plan[next].0 <= now {
                let (due, c, req) = plan[next];
                enqueue(&pending[c], &mut batches[c], req, due);
                late[c].push(now - due);
                sent[c] += 1;
                next += 1;
            }
            for (c, batch) in batches.iter_mut().enumerate() {
                if !batch.is_empty() && errors[c].is_none() {
                    if let Err(e) = send(&streams[c], batch) {
                        errors[c] = Some(format!("write: {e}"));
                    }
                }
                batch.clear();
            }
        }
        done.store(true, Ordering::SeqCst);
        handle.join().expect("reader thread panicked")
    });
    for (c, log) in logs.iter_mut().enumerate() {
        log.late = std::mem::take(&mut late[c]);
        log.sent = sent[c];
        if log.error.is_none() {
            log.error = errors[c].take();
        }
    }
    logs
}

/// Closed loop over `streams`, on the calling thread: from `start_us` to
/// `end_us` each connection keeps `depth` requests outstanding, taking
/// each new request from `next_req(connection)`; then it waits for the
/// remaining replies until `deadline_us`. Latency counts from send.
pub fn run_closed(
    streams: &[TcpStream],
    origin: Instant,
    (start_us, end_us, deadline_us): (f64, f64, f64),
    depth: usize,
    mut next_req: impl FnMut(usize) -> Req,
) -> Vec<ConnLog> {
    let pending: Vec<Pending> = streams.iter().map(|_| Mutex::default()).collect();
    let mut reader = Reader::new(streams, &pending, origin);
    let mut sent = vec![0; streams.len()];
    let wait = start_us - micros(origin);
    if wait > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(wait / 1e6));
    }
    let mut want = vec![depth; streams.len()];
    let mut batch = Vec::new();
    loop {
        let now = micros(origin);
        if now < end_us {
            for (c, n) in want.iter_mut().enumerate() {
                if reader.logs[c].error.is_some() {
                    continue;
                }
                batch.clear();
                for _ in 0..*n {
                    enqueue(&pending[c], &mut batch, &next_req(c), now);
                }
                sent[c] += *n;
                if let Err(e) = send(&streams[c], &batch) {
                    reader.broken(c, format!("write: {e}"));
                }
            }
        } else if reader.idle() || now >= deadline_us {
            break;
        }
        want = reader.poll(Duration::from_millis(5));
    }
    let mut logs = reader.finish();
    for (log, n) in logs.iter_mut().zip(sent) {
        log.sent = n;
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn get(target: &str) -> Req {
        Req::get(Route::Group, target.into())
    }

    #[test]
    fn json_fields_match_whole_keys_only() {
        let body = r#"{"grouping_version":7,"pending":3,"version":12}"#;
        assert_eq!(json_u64(body, "version"), Some(12));
        assert_eq!(json_u64(body, "pending"), Some(3));
        assert_eq!(json_u64(body, "missing"), None);
    }

    #[test]
    fn responses_are_framed_across_reads() {
        let mut r = Responses::default();
        r.buf
            .extend_from_slice(b"HTTP/1.1 202 Accepted\r\ncontent-length: 13\r\n\r\n{\"version\":");
        assert_eq!(r.next().unwrap(), None);
        r.buf
            .extend_from_slice(b"4}HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}");
        assert_eq!(r.next().unwrap(), Some((202, "{\"version\":4}".into())));
        assert_eq!(r.next().unwrap(), Some((404, "{}".into())));
        assert_eq!(r.next().unwrap(), None);
    }

    /// A stub server that answers every request with `{"version":1}`,
    /// except that it stalls once, for `stall`, on the first request it
    /// reads after `stall_at`. Returns the stall's bounds (µs since
    /// `origin`).
    fn stub(listener: TcpListener, origin: Instant, stall_at: f64, stall: Duration) -> (f64, f64) {
        let (conn, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut bounds = (0.0, 0.0);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                return bounds;
            }
            if line != "\r\n" {
                continue; // request line or header
            }
            if bounds == (0.0, 0.0) && micros(origin) >= stall_at {
                let from = micros(origin);
                std::thread::sleep(stall);
                bounds = (from, micros(origin));
            }
            let body = "{\"version\":1}";
            let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
            writer.write_all(head.as_bytes()).unwrap();
            writer.write_all(body.as_bytes()).unwrap();
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let origin = Instant::now();
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            tx.send(stub(listener, origin, 60_000.0, Duration::from_millis(120)))
                .unwrap()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // 300 requests, one per millisecond, starting 10 ms in.
        let req = get("/v1/group/1");
        let plan: Vec<(f64, usize, &Req)> = (0..300)
            .map(|i| (10_000.0 + 1_000.0 * i as f64, 0, &req))
            .collect();
        let streams = [stream];
        let log = run_open(&streams, origin, &plan, 2_000_000.0).remove(0);
        drop(streams);
        let (stall_from, stall_to) = rx.recv().unwrap();
        server.join().unwrap();

        assert!(log.error.is_none(), "{:?}", log.error);
        assert_eq!((log.sent, log.replies.len(), log.unanswered), (300, 300, 0));
        assert!(stall_to - stall_from >= 120_000.0);
        // The generator kept its schedule through the stall.
        let mut late = log.late.clone();
        late.sort_by(f64::total_cmp);
        assert!(
            late[late.len() * 9 / 10] < 5_000.0,
            "generator ran late: {late:?}"
        );
        // Every request due during the stall waited for its end.
        let during: Vec<&Reply> = log
            .replies
            .iter()
            .filter(|r| r.due > stall_from && r.due < stall_to)
            .collect();
        assert!(
            during.len() >= 100,
            "only {} requests fell in the stall",
            during.len()
        );
        for r in &during {
            assert!(
                r.latency() >= (stall_to - r.due) - 1.0,
                "request due at {} answered at {} before the stall ended at {stall_to}",
                r.due,
                r.recv
            );
        }
        // Requests well clear of the stall were not charged for it.
        let before: Vec<f64> = log
            .replies
            .iter()
            .filter(|r| r.due + 20_000.0 < stall_from)
            .map(Reply::latency)
            .collect();
        assert!(!before.is_empty());
        assert!(crate::summary::median(&before) < 10_000.0);
        assert!(versions_monotone(&log.replies.iter().collect::<Vec<_>>()));
    }

    #[test]
    fn closed_loop_keeps_depth_outstanding() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let origin = Instant::now();
        let server = std::thread::spawn(move || stub(listener, origin, f64::MAX, Duration::ZERO));
        let streams = [TcpStream::connect(addr).unwrap()];
        let now = micros(origin);
        let log = run_closed(
            &streams,
            origin,
            (now, now + 50_000.0, now + 1_000_000.0),
            4,
            |_| get("/v1/group/2"),
        )
        .remove(0);
        drop(streams);
        server.join().unwrap();
        assert!(log.error.is_none(), "{:?}", log.error);
        assert!(log.sent >= 4);
        assert_eq!((log.replies.len(), log.unanswered), (log.sent, 0));
    }
}
