//! End-to-end HTTP tests: a real `Server` on an OS-assigned port, driven
//! through raw `TcpStream`s exactly like an external client would.

use gf_core::{Aggregation, FormationConfig, RatingMatrix, RatingScale, Semantics};
use gf_serve::{Json, ServeConfig, ServeState, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start_server() -> gf_serve::ServerHandle {
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
    let state = ServeState::new(matrix, cfg).unwrap();
    Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap()
}

/// Sends one raw HTTP/1.1 request and returns `(status, body)`.
fn send(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    parse_response(&response)
}

fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn full_request_cycle_over_tcp() {
    let server = start_server();
    let addr = server.addr();

    let (status, body) = get(addr, "/v1/health");
    assert_eq!(status, 200);
    let health = Json::parse(&body).expect("health is valid JSON");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("users").and_then(Json::as_u64), Some(16));

    let (status, body) = get(addr, "/v1/group/7");
    assert_eq!(status, 200);
    let group = Json::parse(&body).unwrap();
    assert!(group
        .get("members")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .any(|m| m.as_u64() == Some(7)));

    // Pagination survives the wire: the query string reaches the router.
    let (status, body) = get(addr, "/v1/group/7?limit=1&offset=0");
    assert_eq!(status, 200);
    let paged = Json::parse(&body).unwrap();
    assert_eq!(
        paged.get("members").and_then(Json::as_arr).map(<[_]>::len),
        Some(1)
    );
    assert_eq!(
        paged.get("members_total").and_then(Json::as_u64),
        group.get("members_total").and_then(Json::as_u64)
    );
    let (status, _) = get(addr, "/v1/group/7?limit=bogus");
    assert_eq!(status, 400);

    let (status, body) = post(addr, "/v1/rate", r#"{"user":7,"item":2,"rating":5}"#);
    assert_eq!(status, 202);
    assert_eq!(
        Json::parse(&body).unwrap().get("accepted"),
        Some(&Json::Bool(true))
    );

    // The background worker picks the rating up without any flush call.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.state().snapshot().matrix.get(7, 2) != Some(5.0) {
        assert!(std::time::Instant::now() < deadline, "rating never applied");
        std::thread::sleep(Duration::from_millis(2));
    }

    let (status, body) = post(
        addr,
        "/v1/form",
        r#"{"semantics":"av","aggregation":"sum","ell":3}"#,
    );
    assert_eq!(status, 200);
    let formed = Json::parse(&body).unwrap();
    assert_eq!(
        formed.get("algorithm").and_then(Json::as_str),
        Some("GRD-AV-SUM")
    );

    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    assert_eq!(stats.get("rates_applied").and_then(Json::as_u64), Some(1));

    // Error paths speak JSON too.
    let (status, body) = get(addr, "/v1/group/9999");
    assert_eq!(status, 404);
    assert!(Json::parse(&body).unwrap().get("error").is_some());
    let (status, _) = post(addr, "/v1/rate", "{broken");
    assert_eq!(status, 400);

    server.stop();
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Two requests on one connection; responses are length-delimited.
    for _ in 0..2 {
        stream
            .write_all(b"GET /v1/health HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let mut header = Vec::new();
        let mut byte = [0u8; 1];
        while !header.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            header.push(byte[0]);
        }
        let head = String::from_utf8(header).unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .and_then(|v| v.parse().ok())
            .expect("content-length present");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    }
    server.stop();
}

#[test]
fn malformed_requests_get_400_not_a_hang() {
    let server = start_server();
    let (status, _) = send(server.addr(), "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = send(
        server.addr(),
        "GET /v1/health HTTP/1.1\r\ncontent-length: bogus\r\n\r\n",
    );
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn truncated_request_is_dropped_not_dispatched() {
    let server = start_server();
    // Request line but no end-of-headers: the client dies mid-request.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"POST /v1/form HTTP/1.1\r\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.is_empty(),
        "truncated request must get no response, got {response:?}"
    );
    // And, crucially, it must not have triggered a formation run.
    assert_eq!(
        server
            .state()
            .stats
            .form_runs
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    server.stop();
}
