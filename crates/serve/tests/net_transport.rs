//! Transport-level regression tests, run against **both** transports
//! (`epoll` where the platform has it, `blocking` everywhere): request
//! segmentation across arbitrary TCP boundaries, pipelining, oversized
//! bodies (413), stalled-client deadlines, the blocking thread cap, and
//! byte-identical responses across transports.
//!
//! Everything here talks over real sockets; the routing layer is
//! byte-for-byte shared, so any divergence is a transport bug.

use gf_core::{Aggregation, FormationConfig, RatingMatrix, RatingScale, Semantics};
use gf_serve::{NetMode, NetOptions, ServeConfig, ServeState, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn modes() -> Vec<NetMode> {
    if cfg!(target_os = "linux") {
        vec![NetMode::Epoll, NetMode::Blocking]
    } else {
        vec![NetMode::Blocking]
    }
}

fn test_state() -> Arc<ServeState> {
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|u| {
            (0..6)
                .map(|i| 1.0 + ((u * 5 + i * 3 + u * i) % 5) as f64)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let matrix = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
    let cfg = ServeConfig::new(FormationConfig::new(
        Semantics::LeastMisery,
        Aggregation::Min,
        2,
        4,
    ))
    .with_batch_window(Duration::from_millis(1));
    ServeState::new(matrix, cfg).unwrap()
}

fn start(mode: NetMode, tweak: impl FnOnce(&mut NetOptions)) -> ServerHandle {
    let mut net = NetOptions {
        mode,
        ..NetOptions::default()
    };
    tweak(&mut net);
    Server::bind_with("127.0.0.1:0", test_state(), net)
        .unwrap()
        .spawn()
        .unwrap()
}

/// Reads one HTTP response (headers + content-length body) off `stream`.
/// `carry` holds bytes read past the end of this response — pipelined
/// responses often share a TCP segment, so callers reading several
/// responses off one connection must pass the same carry buffer.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String) {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a full response arrived");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..header_end].to_vec()).unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().unwrap())
        })
        .expect("every response carries content-length");
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec()).unwrap();
    *carry = buf.split_off(body_start + content_length);
    (status, body)
}

/// `read_response` for call sites that only ever read one response per
/// connection (no pipelining, so nothing can trail the response).
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    read_response(stream, &mut Vec::new())
}

#[test]
fn two_pipelined_requests_in_one_write_answer_in_order() {
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Two requests in a single TCP segment; answers must come back
        // in order on the same connection.
        let wire = "GET /v1/health HTTP/1.1\r\n\r\nGET /v1/group/0 HTTP/1.1\r\n\r\n";
        stream.write_all(wire.as_bytes()).unwrap();
        let mut carry = Vec::new();
        let (s1, b1) = read_response(&mut stream, &mut carry);
        let (s2, b2) = read_response(&mut stream, &mut carry);
        assert_eq!(s1, 200, "{mode:?}: health status");
        assert!(b1.contains("\"status\":\"ok\""), "{mode:?}: health body");
        assert_eq!(s2, 200, "{mode:?}: group status");
        assert!(b2.contains("\"user\":0"), "{mode:?}: group body: {b2}");
        server.stop();
    }
}

#[test]
fn one_request_split_across_five_reads_still_parses() {
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "{\"user\":0,\"item\":2,\"rating\":4}";
        let wire = format!(
            "POST /v1/rate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        // Five deliberately awkward fragments: mid-method, mid-header
        // name, between header block and body, and mid-body.
        let cuts = [4, 17, 30, wire.len() - 9, wire.len() - 3, wire.len()];
        let mut at = 0;
        for cut in cuts {
            stream.write_all(&wire.as_bytes()[at..cut]).unwrap();
            stream.flush().unwrap();
            at = cut;
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 202, "{mode:?}: fragmented rate: {body}");
        assert!(body.contains("\"accepted\":true"), "{mode:?}: {body}");
        server.stop();
    }
}

#[test]
fn header_and_body_straddling_one_boundary_parses() {
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "{\"user\":1,\"item\":0,\"rating\":5}";
        let wire = format!(
            "POST /v1/rate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        // One boundary, placed so the blank line and the body head land
        // in different segments.
        let cut = wire.find("\r\n\r\n").unwrap() + 2;
        stream.write_all(&wire.as_bytes()[..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        stream.write_all(&wire.as_bytes()[cut..]).unwrap();
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 202, "{mode:?}: straddled rate: {body}");
        server.stop();
    }
}

#[test]
fn oversized_content_length_is_413_with_shared_envelope() {
    let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/error_payload_too_large.json");
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Declared 1 byte over MAX_BODY; the reject must come *without*
        // the client ever sending the body.
        stream
            .write_all(b"POST /v1/rate HTTP/1.1\r\ncontent-length: 1048577\r\n\r\n")
            .unwrap();
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 413, "{mode:?}: oversized body status: {body}");
        assert!(
            body.contains("\"code\":\"payload_too_large\""),
            "{mode:?}: envelope code: {body}"
        );
        if std::env::var("GF_UPDATE_GOLDEN").is_ok() {
            std::fs::write(&fixture, format!("{body}\n")).unwrap();
        } else {
            let committed = std::fs::read_to_string(&fixture)
                .expect("golden fixture error_payload_too_large.json is committed");
            assert_eq!(body, committed.trim_end(), "{mode:?}: 413 envelope drifted");
        }
        // The connection closes after a protocol error.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{mode:?}: server kept talking after 413");
        server.stop();
    }
}

#[test]
fn at_limit_content_length_is_still_accepted() {
    // The boundary itself (exactly MAX_BODY) must not be rejected: a
    // 1MiB body is a 400 (bad json) from routing, not a 413.
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "x".repeat(1024 * 1024);
        let wire = format!(
            "POST /v1/rate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(wire.as_bytes()).unwrap();
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 400, "{mode:?}: at-limit body reaches routing");
        assert!(body.contains("\"bad_request\""), "{mode:?}: {body}");
        server.stop();
    }
}

#[test]
fn stalled_client_is_disconnected_at_the_deadline() {
    for mode in modes() {
        let server = start(mode, |net| {
            net.conn_timeout = Some(Duration::from_millis(300));
        });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A slowloris: half a request line, then silence.
        stream.write_all(b"GET /v1/hea").unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("server must close, not hang");
        assert_eq!(n, 0, "{mode:?}: stalled client got bytes: {buf:?}");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "{mode:?}: deadline took {:?}",
            started.elapsed()
        );
        // The reap is visible in stats.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let timed_out = server
                .state()
                .stats
                .conns_timed_out
                .load(std::sync::atomic::Ordering::Relaxed);
            if timed_out >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{mode:?}: conns_timed_out never incremented"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.stop();
    }
}

#[test]
fn responsive_connection_survives_the_idle_deadline() {
    // Activity must push the deadline out: a keep-alive connection
    // issuing a request every ~150ms across 4 windows of a 300ms
    // timeout stays connected.
    for mode in modes() {
        let server = start(mode, |net| {
            net.conn_timeout = Some(Duration::from_millis(300));
        });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..8 {
            stream
                .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
                .unwrap();
            let (status, _) = read_one_response(&mut stream);
            assert_eq!(status, 200, "{mode:?}: keep-alive request failed");
            std::thread::sleep(Duration::from_millis(150));
        }
        server.stop();
    }
}

#[test]
fn blocking_thread_cap_queues_instead_of_refusing() {
    // With the handler-thread cap at 2, six concurrent clients must all
    // eventually be answered (the extras wait in the kernel backlog).
    let server = start(NetMode::Blocking, |net| {
        net.max_conn_threads = 2;
    });
    let addr = server.addr();
    let joins: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .write_all(b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n")
                    .unwrap();
                let (status, _) = read_one_response(&mut stream);
                status
            })
        })
        .collect();
    for join in joins {
        assert_eq!(join.join().unwrap(), 200);
    }
    server.stop();
}

#[test]
fn transports_answer_byte_identically() {
    if !cfg!(target_os = "linux") {
        return; // only one transport to compare
    }
    let requests: &[&str] = &[
        "GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n",
        "GET /v1/group/0 HTTP/1.1\r\nconnection: close\r\n\r\n",
        "GET /v1/recommend/0 HTTP/1.1\r\nconnection: close\r\n\r\n",
        "GET /v1/nope HTTP/1.1\r\nconnection: close\r\n\r\n",
        "NONSENSE\r\n\r\n",
        "POST /v1/rate HTTP/1.1\r\ncontent-length: 3\r\n\r\n{]x",
    ];
    let collect = |mode: NetMode| -> Vec<(u16, String)> {
        let server = start(mode, |_| {});
        let outcomes = requests
            .iter()
            .map(|wire| {
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                stream.write_all(wire.as_bytes()).unwrap();
                read_one_response(&mut stream)
            })
            .collect();
        server.stop();
        outcomes
    };
    let epoll = collect(NetMode::Epoll);
    let blocking = collect(NetMode::Blocking);
    assert_eq!(epoll, blocking, "transports disagreed on a response");
}

#[test]
fn slow_route_pipelined_behind_fast_one_keeps_response_order() {
    // `POST /v1/form` is offloaded on the epoll path; a health check
    // pipelined *behind* it must still be answered second.
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let wire = "POST /v1/form HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}\
                    GET /v1/health HTTP/1.1\r\n\r\n";
        stream.write_all(wire.as_bytes()).unwrap();
        let mut carry = Vec::new();
        let (s1, b1) = read_response(&mut stream, &mut carry);
        let (s2, b2) = read_response(&mut stream, &mut carry);
        assert_eq!(s1, 200, "{mode:?}: form answered first: {b1}");
        assert!(b1.contains("\"objective\""), "{mode:?}: form body: {b1}");
        assert_eq!(s2, 200, "{mode:?}: health answered second: {b2}");
        assert!(b2.contains("\"status\":\"ok\""), "{mode:?}: {b2}");
        server.stop();
    }
}

#[test]
fn eof_mid_request_is_dropped_without_dispatch() {
    for mode in modes() {
        let server = start(mode, |_| {});
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A form request cut off before the body: must never dispatch.
        stream
            .write_all(b"POST /v1/form HTTP/1.1\r\ncontent-length: 2\r\n\r\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "{mode:?}: truncated request was answered: {rest:?}"
        );
        let runs = server
            .state()
            .stats
            .form_runs
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(runs, 0, "{mode:?}: truncated form request dispatched");
        server.stop();
    }
}

#[test]
fn conns_accepted_counter_tracks_connections() {
    for mode in modes() {
        let server = start(mode, |_| {});
        for _ in 0..3 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
            let (status, _) = read_one_response(&mut stream);
            assert_eq!(status, 200);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let accepted = server
                .state()
                .stats
                .conns_accepted
                .load(std::sync::atomic::Ordering::Relaxed);
            if accepted >= 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{mode:?}: conns_accepted stuck below 3 ({accepted})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }
}
