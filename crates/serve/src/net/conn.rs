//! Per-connection state machine shared by both transports.
//!
//! A [`Conn`] owns the two byte buffers of one TCP connection and all of
//! the protocol policy — pipelined request parsing, response encoding,
//! keep-alive/close decisions, the error envelopes for malformed and
//! oversized input, and write-side backpressure. Transports only move
//! bytes: they [`ingest`](Conn::ingest) what the socket produced, call
//! [`step`](Conn::step) until it reports [`Step::Idle`], flush
//! [`pending_write`](Conn::pending_write), and close when
//! [`done`](Conn::done). Because every protocol decision lives here,
//! the blocking fallback and the epoll loop cannot drift apart.
//!
//! Buffers are reused across requests on the same connection: both are
//! logically drained by advancing offsets and physically compacted only
//! when empty (or when the parsed prefix grows past a threshold), so a
//! busy keep-alive connection settles into zero-allocation steady state.

use crate::http::{error_body, route_full, status_text, HttpRequest, RouteOutcome};
use crate::json::Json;
use crate::net::parser::{parse_request, ParseError, ParseStep};
use crate::state::ServeState;

/// Write-side backpressure: once this many bytes are queued unflushed,
/// [`Conn::step`] stops parsing further pipelined requests (and the
/// epoll transport drops `EPOLLIN` interest) until the peer drains the
/// socket. Bounds per-connection memory against a client that pipelines
/// requests but never reads responses.
pub(crate) const HIGH_WATER: usize = 64 * 1024;

/// Read-buffer compaction threshold: the parsed prefix is shifted out
/// once it exceeds this, keeping the buffer small without memmoving
/// after every request.
const COMPACT_AT: usize = 16 * 1024;

/// What one [`Conn::step`] call did.
#[derive(Debug)]
pub(crate) enum Step {
    /// A response (or error envelope) was appended to the write buffer;
    /// step again — more pipelined requests may be buffered.
    Responded,
    /// Nothing to do until more bytes, drained writes, or an offload
    /// completion arrive.
    Idle,
    /// A slow route must run off-loop (epoll transport only). The
    /// connection is now paused: no further requests are parsed until
    /// [`Conn::complete_offload`] delivers the outcome, which preserves
    /// pipelined response order.
    Offload(HttpRequest),
}

/// One connection's buffers and protocol state.
#[derive(Debug)]
pub(crate) struct Conn {
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already consumed by the parser.
    rpos: usize,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// An offloaded request is in flight; parsing is suspended.
    paused: bool,
    /// Stop after the write buffer drains (explicit close, protocol
    /// error, or EOF with no parseable request left).
    close_after_flush: bool,
    /// The peer half-closed its write side; no more bytes will arrive.
    saw_eof: bool,
    /// `keep_alive` of the request currently offloaded.
    offload_keep_alive: bool,
    /// Whether slow routes are routed through [`Step::Offload`] (epoll)
    /// or handled inline (blocking, where the thread may sleep).
    offload_slow: bool,
}

/// Batch-triggering routes sleep out the batching window inside the
/// handler — milliseconds of wall-clock the epoll loop cannot afford.
fn is_slow_route(req: &HttpRequest) -> bool {
    req.method == "POST" && (req.path == "/v1/form" || req.path == "/v1/grouping")
}

impl Conn {
    pub(crate) fn new(offload_slow: bool) -> Conn {
        Conn {
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            paused: false,
            close_after_flush: false,
            saw_eof: false,
            offload_keep_alive: false,
            offload_slow,
        }
    }

    /// Appends bytes read off the socket.
    pub(crate) fn ingest(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Records that the peer will send no more bytes. Requests already
    /// buffered are still answered; a trailing partial request is
    /// silently dropped, exactly like the blocking reader did.
    pub(crate) fn mark_eof(&mut self) {
        self.saw_eof = true;
    }

    /// Unflushed response bytes.
    pub(crate) fn pending_write(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    pub(crate) fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Marks `n` bytes of [`pending_write`](Conn::pending_write) as
    /// written; reclaims the buffer (keeping capacity) once empty.
    pub(crate) fn consume_written(&mut self, n: usize) {
        self.wpos += n;
        debug_assert!(self.wpos <= self.wbuf.len());
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// The connection is finished: everything owed has been flushed and
    /// no further request will be accepted.
    pub(crate) fn done(&self) -> bool {
        self.close_after_flush && !self.paused && !self.has_pending_write()
    }

    /// Whether the transport should keep watching for readable bytes.
    /// False while an offload is in flight (responses must stay in
    /// order), after a close decision, and under write backpressure.
    pub(crate) fn wants_read(&self) -> bool {
        !self.paused
            && !self.close_after_flush
            && !self.saw_eof
            && self.pending_write().len() < HIGH_WATER
    }

    /// Parses and answers at most one buffered request.
    pub(crate) fn step(&mut self, state: &ServeState) -> Step {
        if self.paused || self.close_after_flush {
            return Step::Idle;
        }
        if self.pending_write().len() >= HIGH_WATER {
            return Step::Idle; // backpressure: let the peer drain first
        }
        match parse_request(&self.rbuf[self.rpos..]) {
            Ok(ParseStep::Incomplete) => {
                if self.saw_eof {
                    // EOF between requests: clean close. EOF mid-request:
                    // the truncated tail is dropped, never dispatched.
                    self.close_after_flush = true;
                }
                Step::Idle
            }
            Ok(ParseStep::Request(req, used)) => {
                self.consume_parsed(used);
                if self.offload_slow && is_slow_route(&req) {
                    self.paused = true;
                    self.offload_keep_alive = req.keep_alive;
                    Step::Offload(req)
                } else {
                    let keep_alive = req.keep_alive;
                    let out = route_full(state, &req);
                    self.finish_request(keep_alive, &out);
                    Step::Responded
                }
            }
            Err(ParseError::Malformed(message)) => {
                self.respond_error(400, "bad_request", &message);
                Step::Responded
            }
            Err(ParseError::TooLarge(message)) => {
                self.respond_error(413, "payload_too_large", &message);
                Step::Responded
            }
        }
    }

    /// Delivers the outcome of an offloaded request and resumes parsing.
    pub(crate) fn complete_offload(&mut self, out: &RouteOutcome) {
        debug_assert!(self.paused);
        self.paused = false;
        let keep_alive = self.offload_keep_alive;
        self.finish_request(keep_alive, out);
    }

    fn finish_request(&mut self, keep_alive: bool, out: &RouteOutcome) {
        let keep = keep_alive && out.status < 500;
        self.encode_response(out.status, &out.body, keep);
        if !keep {
            self.close_after_flush = true;
        }
    }

    fn respond_error(&mut self, status: u16, code: &'static str, message: &str) {
        let body = error_body(code, message);
        self.encode_response(status, &body, false);
        self.close_after_flush = true;
        // Whatever follows the rejected prefix is untrusted; drop it.
        self.rbuf.clear();
        self.rpos = 0;
    }

    fn consume_parsed(&mut self, used: usize) {
        self.rpos += used;
        debug_assert!(self.rpos <= self.rbuf.len());
        if self.rpos >= self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= COMPACT_AT {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Serializes one response into the write buffer — same wire format
    /// the blocking `write_response` produced, byte for byte.
    fn encode_response(&mut self, status: u16, body: &Json, keep_alive: bool) {
        let payload = body.to_string();
        let head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            status_text(status),
            payload.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        self.wbuf.extend_from_slice(head.as_bytes());
        self.wbuf.extend_from_slice(payload.as_bytes());
    }
}
