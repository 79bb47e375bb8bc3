//! Route-table synchronization: the three places the HTTP surface is
//! written down — [`gf_serve::ROUTE_TABLE`], the endpoint table in
//! `src/http.rs`'s module docs, and the endpoint table in the repository
//! `README.md` — must list exactly the same `(method, /v1 path)` rows,
//! every row must dispatch to a real handler, and nothing outside `/v1`
//! may. The same goes for the `/v1/stats` keys and the OPERATIONS.md
//! "Reading /stats" table. Documentation drifting from the implementation
//! fails here, not in a user's terminal.

use gf_core::{Aggregation, FormationConfig, RatingMatrix, RatingScale, Semantics};
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, ServeConfig, ServeState, ROUTE_TABLE};
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `(METHOD, /v1/path)` pairs from backticked cells of a
/// markdown table, query strings stripped — the normal form all three
/// sources are compared in.
fn extract_routes(markdown_rows: &[&str]) -> Vec<(String, String)> {
    let mut routes = Vec::new();
    for row in markdown_rows {
        for cell in row.split('`') {
            let mut words = cell.split_whitespace();
            let (Some(method), Some(target)) = (words.next(), words.next()) else {
                continue;
            };
            if !matches!(method, "GET" | "POST" | "PUT" | "DELETE") {
                continue;
            }
            let path = target.split('?').next().unwrap();
            if path.starts_with("/v1/") {
                routes.push((method.to_string(), path.to_string()));
            }
        }
    }
    routes.sort();
    routes.dedup();
    routes
}

/// The markdown table rows of `text` between `start_marker` and the end
/// of that table (first subsequent line that is not a `|` row).
fn table_rows<'a>(text: &'a str, start_marker: &str, source: &str) -> Vec<&'a str> {
    let start = text
        .find(start_marker)
        .unwrap_or_else(|| panic!("{source}: marker {start_marker:?} not found"));
    text[start..]
        .lines()
        .skip(1) // the header row itself
        .take_while(|l| l.trim_start().starts_with('|') || l.trim_start().starts_with("//! |"))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn live_routes() -> Vec<(String, String)> {
    let mut routes: Vec<(String, String)> = ROUTE_TABLE
        .iter()
        .map(|(m, p)| (m.to_string(), p.to_string()))
        .collect();
    routes.sort();
    routes
}

#[test]
fn http_module_docs_match_the_live_route_table() {
    let source = read(&manifest_dir().join("src/http.rs"));
    let rows = table_rows(&source, "//! | method & path |", "src/http.rs");
    assert_eq!(
        extract_routes(&rows),
        live_routes(),
        "the endpoint table in src/http.rs module docs drifted from ROUTE_TABLE"
    );
}

#[test]
fn readme_endpoint_table_matches_the_live_route_table() {
    let readme = read(&manifest_dir().join("../../README.md"));
    let rows = table_rows(&readme, "| endpoint | behaviour |", "README.md");
    assert_eq!(
        extract_routes(&rows),
        live_routes(),
        "the README endpoint table drifted from ROUTE_TABLE"
    );
}

fn small_state() -> std::sync::Arc<ServeState> {
    let matrix = RatingMatrix::from_dense(
        &[
            &[1.0, 4.0, 3.0][..],
            &[2.0, 3.0, 5.0],
            &[2.0, 5.0, 1.0],
            &[3.0, 1.0, 1.0],
        ],
        RatingScale::one_to_five(),
    )
    .unwrap();
    let cfg = ServeConfig::new(FormationConfig::new(
        Semantics::LeastMisery,
        Aggregation::Min,
        2,
        2,
    ));
    ServeState::new(matrix, cfg).unwrap()
}

fn empty_request(method: &str, path: &str) -> HttpRequest {
    HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        body: String::new(),
        keep_alive: false,
    }
}

#[test]
fn stats_keys_match_the_operations_table() {
    let ops = read(&manifest_dir().join("../../docs/OPERATIONS.md"));
    let mut documented: Vec<&str> = table_rows(&ops, "| field | meaning |", "docs/OPERATIONS.md")
        .iter()
        .filter_map(|row| {
            let cell = row.trim().trim_start_matches('|').split('|').next()?.trim();
            cell.strip_prefix('`')?.strip_suffix('`')
        })
        .collect();
    documented.sort_unstable();
    let out = route_full(&small_state(), &empty_request("GET", "/v1/stats"));
    assert_eq!(out.status, 200);
    let gf_serve::Json::Obj(fields) = &out.body else {
        panic!("/v1/stats body is not an object: {:?}", out.body);
    };
    let mut live: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    live.sort_unstable();
    assert_eq!(
        documented, live,
        "the OPERATIONS.md /stats table drifted from the live /v1/stats keys"
    );
}

#[test]
fn every_documented_route_reaches_a_handler_only_under_v1() {
    let state = small_state();
    let error_code = |method: &str, path: &str| {
        let out = route_full(&state, &empty_request(method, path));
        let code = out
            .body
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(gf_serve::Json::as_str)
            .map(str::to_string);
        (out.status, code)
    };
    for (method, pattern) in ROUTE_TABLE {
        let concrete = pattern
            .replace("{name}", "default")
            .replace("{user}", "0")
            .replace("{group}", "0");
        // The canonical path resolves past routing: any status except 404
        // unknown_endpoint / 405 proves a handler ran (POSTs answer 400 to
        // the empty body).
        let (status, code) = error_code(method, &concrete);
        assert_ne!(status, 405, "{method} {concrete} hit the wrong-method arm");
        assert_ne!(
            code.as_deref(),
            Some("unknown_endpoint"),
            "{method} {concrete} fell through routing"
        );
        // The same path without `/v1` is not an endpoint.
        let bare = &concrete["/v1".len()..];
        assert_eq!(
            error_code(method, bare),
            (404, Some("unknown_endpoint".to_string())),
            "{method} {bare} must answer 404 unknown_endpoint"
        );
    }
}
