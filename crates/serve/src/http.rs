//! Request routing and response shaping — the transport-agnostic half
//! of the HTTP server.
//!
//! The environment is offline, so the protocol is hand-rolled the same
//! way the `vendor/` stubs stand in for crates: just enough HTTP/1.1
//! for `curl`, load generators and browsers — request line, headers,
//! `Content-Length` bodies, keep-alive with explicit lengths on every
//! response. No chunked encoding, no TLS, no HTTP/2. The byte-level
//! codec and both transports (the epoll readiness loop and the blocking
//! fallback) live in [`crate::net`]; everything there funnels into
//! [`route_full`] here, so routing behavior is transport-independent by
//! construction.
//!
//! ## Endpoints (`/v1`)
//!
//! The surface lives under the versioned `/v1/` namespace; any other
//! path answers 404 `unknown_endpoint`.
//!
//! | method & path | body | answer |
//! |---------------|------|--------|
//! | `GET /v1/health` | — | liveness + snapshot version/shape |
//! | `GET /v1/stats` | — | serving counters, the per-grouping registry and the per-grouping online `quality` block |
//! | `GET /v1/digest` | — | FNV-1a fingerprint of the full serving state plus one digest per grouping (crash-harness oracle) |
//! | `GET /v1/group/{user}?limit=&offset=` | — | the user's group under the `default` grouping |
//! | `GET /v1/group/{name}/{user}?limit=&offset=` | — | the user's group under the named grouping |
//! | `GET /v1/recommend/{group}?top_k=&exclude_rated=&limit=&offset=` | — | a group's recommendation list under the `default` grouping; `exclude_rated` (default on) drops items any member already rated |
//! | `GET /v1/recommend/{name}/{group}?top_k=&exclude_rated=&limit=&offset=` | — | the same under the named grouping |
//! | `POST /v1/form?name=` | optional config overrides | re-forms one existing grouping (default: `default`), batched per grouping |
//! | `POST /v1/grouping` | `{"name":..., ...overrides}` | registers (or reconfigures) a named grouping over the shared matrix |
//! | `POST /v1/rate` | `{"user":u,"item":i,"rating":r}` | enqueues an incremental update refreshing *every* grouping (202); under [`gf_core::GrowthPolicy::Grow`] a never-seen user/item is admitted (409 once a cap is exhausted) |
//! | `POST /v1/feedback` | `{"user":u,"item":i,"grouping":name?}` | journals one observed consumption (202) feeding the online quality metrics; never admits |
//!
//! ## Errors
//!
//! Every error answers with one envelope, `{"error":{"code":...,
//! "message":...}}`: a stable machine-readable `code` (see the README's
//! error-code table) and a human-readable `message`.

use crate::json::{obj, Json};
use crate::state::{ServeState, Snapshot};
use gf_core::{Aggregation, FormationConfig, GfError, Semantics};
use std::sync::atomic::Ordering;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`; empty when absent).
    pub query: String,
    /// Raw request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Status line text for every status the server can answer with.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// The one error envelope every failure answers with: a stable
/// machine-readable `code` plus a human-readable `message`.
pub(crate) fn error_body(code: &'static str, message: impl std::fmt::Display) -> Json {
    obj([(
        "error",
        obj([
            ("code", Json::from(code)),
            ("message", Json::from(message.to_string())),
        ]),
    )])
}

/// Maps a state-layer error to its HTTP status and envelope code.
fn gf_error_response(err: &GfError) -> (u16, Json) {
    let (status, code) = match err {
        GfError::UserOutOfRange { .. } => (404, "unknown_user"),
        GfError::ItemOutOfRange { .. } => (404, "unknown_item"),
        // A growth cap refusing an admission is neither a malformed
        // request (400) nor an unknown id the client should retry (404):
        // the universe is full until the operator raises the cap.
        GfError::GrowthExhausted { .. } => (409, "growth_exhausted"),
        // A journaling failure is the server's disk, not the client's
        // request; surface it as a 500 so retries/alerts fire correctly.
        GfError::Persist(_) => (500, "persist_error"),
        GfError::InvalidGrouping(_) => (400, "invalid_grouping"),
        _ => (400, "bad_request"),
    };
    (status, error_body(code, err))
}

/// The `/v1` route table — one `(method, path pattern)` row per
/// endpoint. Dispatch is the `match` in [`route_full`]; this table is
/// the declarative mirror that `tests/routes.rs` checks against the
/// module-doc and README endpoint tables, so the three can never drift
/// apart silently.
pub const ROUTE_TABLE: &[(&str, &str)] = &[
    ("GET", "/v1/health"),
    ("GET", "/v1/stats"),
    ("GET", "/v1/digest"),
    ("GET", "/v1/group/{user}"),
    ("GET", "/v1/group/{name}/{user}"),
    ("GET", "/v1/recommend/{group}"),
    ("GET", "/v1/recommend/{name}/{group}"),
    ("POST", "/v1/form"),
    ("POST", "/v1/grouping"),
    ("POST", "/v1/rate"),
    ("POST", "/v1/feedback"),
];

/// A fully resolved response: status and JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: Json,
}

/// Routes one request. Pure apart from the state it queries/mutates —
/// exercised directly by unit tests, no socket required.
///
/// Every endpoint lives under `/v1/...`; any other path answers 404
/// `unknown_endpoint` (405 `method_not_allowed` for a method no route
/// takes).
pub fn route_full(state: &ServeState, req: &HttpRequest) -> RouteOutcome {
    let path = match req.path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => rest,
        // No route matches "", so this reaches the 404/405 arms.
        _ => "",
    };
    let (status, body) = dispatch(state, req, path);
    RouteOutcome { status, body }
}

fn dispatch(state: &ServeState, req: &HttpRequest, path: &str) -> (u16, Json) {
    match (req.method.as_str(), path) {
        ("GET", "/health") => {
            let snap = state.snapshot();
            let default = snap.default_grouping();
            (
                200,
                obj([
                    ("status", Json::from("ok")),
                    ("version", Json::from(snap.version)),
                    ("users", Json::from(snap.matrix.n_users())),
                    ("items", Json::from(snap.matrix.n_items())),
                    ("groups", Json::from(default.formation.grouping.len())),
                    ("objective", Json::from(default.formation.objective)),
                    ("groupings", Json::from(snap.groupings.len())),
                    ("pending", Json::from(state.pending_len())),
                ]),
            )
        }
        ("GET", "/stats") => {
            let s = &state.stats;
            let snap = state.snapshot();
            (
                200,
                obj([
                    (
                        "rates_accepted",
                        Json::from(s.rates_accepted.load(Ordering::Relaxed)),
                    ),
                    ("rates_applied", Json::from(snap.progress.applied)),
                    (
                        "refresh_passes",
                        Json::from(s.refresh_passes.load(Ordering::Relaxed)),
                    ),
                    (
                        "refresh_incremental",
                        Json::from(s.refresh_incremental.load(Ordering::Relaxed)),
                    ),
                    (
                        "refresh_cold",
                        Json::from(s.refresh_cold.load(Ordering::Relaxed)),
                    ),
                    (
                        "refresh_mode",
                        Json::from(snap.default_grouping().config.refresh.tag()),
                    ),
                    ("groupings", groupings_json(&snap)),
                    ("n_users", Json::from(snap.matrix.n_users())),
                    ("n_items", Json::from(snap.matrix.n_items())),
                    ("users_admitted", Json::from(snap.progress.users_admitted)),
                    ("items_admitted", Json::from(snap.progress.items_admitted)),
                    (
                        "form_requests",
                        Json::from(s.form_requests.load(Ordering::Relaxed)),
                    ),
                    ("form_runs", Json::from(s.form_runs.load(Ordering::Relaxed))),
                    ("pending", Json::from(state.pending_len())),
                    ("version", Json::from(snap.version)),
                    (
                        "wal_records",
                        Json::from(s.wal_records.load(Ordering::Relaxed)),
                    ),
                    ("wal_seq", Json::from(snap.progress.wal_seq)),
                    (
                        "checkpoint_version",
                        Json::from(s.checkpoint_version.load(Ordering::Relaxed)),
                    ),
                    (
                        "checkpoints_written",
                        Json::from(s.checkpoints_written.load(Ordering::Relaxed)),
                    ),
                    (
                        "recovery_replayed",
                        Json::from(s.recovery_replayed.load(Ordering::Relaxed)),
                    ),
                    (
                        "recovery_dropped_bytes",
                        Json::from(s.recovery_dropped_bytes.load(Ordering::Relaxed)),
                    ),
                    (
                        "conns_accepted",
                        Json::from(s.conns_accepted.load(Ordering::Relaxed)),
                    ),
                    (
                        "conns_timed_out",
                        Json::from(s.conns_timed_out.load(Ordering::Relaxed)),
                    ),
                    (
                        "feedback_accepted",
                        Json::from(s.feedback_accepted.load(Ordering::Relaxed)),
                    ),
                    (
                        "feedback_applied",
                        Json::from(snap.feedback.observed_total()),
                    ),
                    ("feedback_window_events", Json::from(snap.feedback.len())),
                    ("quality", quality_json(&snap)),
                ]),
            )
        }
        ("GET", "/digest") => {
            let snap = state.snapshot();
            let digest = state.digest();
            let per_grouping = Json::Obj(
                snap.groupings
                    .keys()
                    .filter_map(|name| {
                        state
                            .grouping_digest(name)
                            .map(|d| (name.clone(), Json::from(format!("{d:016x}"))))
                    })
                    .collect(),
            );
            (
                200,
                obj([
                    ("digest", Json::from(format!("{digest:016x}"))),
                    ("version", Json::from(snap.version)),
                    ("wal_seq", Json::from(snap.progress.wal_seq)),
                    ("applied", Json::from(snap.progress.applied)),
                    ("users_admitted", Json::from(snap.progress.users_admitted)),
                    ("items_admitted", Json::from(snap.progress.items_admitted)),
                    ("groupings", per_grouping),
                ]),
            )
        }
        ("GET", path) if path.starts_with("/group/") => {
            let (name, id) = split_scoped(&path["/group/".len()..]);
            match (id.parse(), parse_page(&req.query)) {
                (Ok(user), Ok(page)) => group_of(state, name, user, page),
                (Err(_), _) => (
                    400,
                    error_body("bad_request", "user id must be a non-negative integer"),
                ),
                (_, Err(message)) => (400, error_body("bad_request", message)),
            }
        }
        ("GET", path) if path.starts_with("/recommend/") => {
            let (name, id) = split_scoped(&path["/recommend/".len()..]);
            match (id.parse(), parse_recommend_params(&req.query)) {
                (Ok(group), Ok(params)) => recommend(state, name, group, params),
                (Err(_), _) => (
                    400,
                    error_body("bad_request", "group id must be a non-negative integer"),
                ),
                (_, Err(message)) => (400, error_body("bad_request", message)),
            }
        }
        ("POST", "/form") => form(state, &req.query, &req.body),
        ("POST", "/grouping") => create_grouping(state, &req.body),
        ("POST", "/rate") => rate(state, &req.body),
        ("POST", "/feedback") => feedback(state, &req.body),
        ("GET" | "POST", _) => (
            404,
            error_body(
                "unknown_endpoint",
                format!("no such endpoint: {}", req.path),
            ),
        ),
        _ => (
            405,
            error_body(
                "method_not_allowed",
                format!("method {} not allowed", req.method),
            ),
        ),
    }
}

fn top_k_json(top_k: &[(u32, f64)]) -> Json {
    Json::Arr(
        top_k
            .iter()
            .map(|&(item, score)| obj([("item", Json::from(item)), ("score", Json::from(score))]))
            .collect(),
    )
}

/// Default cap on rendered member lists: at serving scale the biggest
/// group dominates response size (and the ~157 µs 50k-user lookup), so
/// clients page through `?limit=`/`?offset=` instead; `members_total`
/// always carries the full size.
pub const DEFAULT_MEMBER_LIMIT: usize = 256;

/// A `?limit=&offset=` window over a group's member list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Page {
    offset: usize,
    limit: usize,
}

/// Parses `limit`/`offset` from a raw query string; unknown parameters
/// are ignored, malformed values are errors.
fn parse_page(query: &str) -> std::result::Result<Page, String> {
    let mut page = Page {
        offset: 0,
        limit: DEFAULT_MEMBER_LIMIT,
    };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "limit" => {
                page.limit = value
                    .parse()
                    .map_err(|_| "limit must be a non-negative integer".to_string())?;
            }
            "offset" => {
                page.offset = value
                    .parse()
                    .map_err(|_| "offset must be a non-negative integer".to_string())?;
            }
            _ => {}
        }
    }
    Ok(page)
}

/// Splits the tail of a `/group/…` or `/recommend/…` path: one segment
/// addresses the `default` grouping, two (`name/id`) name one explicitly.
fn split_scoped(rest: &str) -> (&str, &str) {
    match rest.split_once('/') {
        Some((name, id)) => (name, id),
        None => (Snapshot::DEFAULT_GROUPING, rest),
    }
}

/// Query parameters of `/recommend`: the shared `limit`/`offset` window
/// plus `top_k` (how much of the stored list to recommend, clamped to
/// its length) and `exclude_rated` (filter to candidate items, on by
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecommendParams {
    page: Page,
    top_k: Option<usize>,
    exclude_rated: bool,
}

fn parse_recommend_params(query: &str) -> std::result::Result<RecommendParams, String> {
    let mut params = RecommendParams {
        page: parse_page(query)?,
        top_k: None,
        exclude_rated: true,
    };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "top_k" => {
                params.top_k = Some(
                    value
                        .parse()
                        .map_err(|_| "top_k must be a non-negative integer".to_string())?,
                );
            }
            "exclude_rated" => {
                params.exclude_rated = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    _ => return Err("exclude_rated must be true or false".to_string()),
                };
            }
            _ => {}
        }
    }
    Ok(params)
}

/// The `/v1/stats` quality block: per grouping, the online
/// precision/recall/NDCG of its groups' recommendation lists against
/// the feedback window, at the grouping's own `k`.
fn quality_json(snap: &Snapshot) -> Json {
    Json::Obj(
        snap.groupings
            .iter()
            .map(|(name, g)| {
                let group_items: Vec<Vec<u32>> = g
                    .formation
                    .grouping
                    .groups
                    .iter()
                    .map(|grp| grp.top_k.iter().map(|&(item, _)| item).collect())
                    .collect();
                let q = snap
                    .feedback
                    .evaluate(name, g.assignment(), &group_items, g.config.k);
                (
                    name.clone(),
                    obj([
                        ("k", Json::from(q.k)),
                        ("window_events", Json::from(q.window_events)),
                        ("groups_evaluated", Json::from(q.groups_evaluated)),
                        ("precision", Json::from(q.precision)),
                        ("recall", Json::from(q.recall)),
                        ("ndcg", Json::from(q.ndcg)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The `/stats` registry listing: every named grouping with its version,
/// shape and algorithm — the operator's view of the whole registry.
fn groupings_json(snap: &Snapshot) -> Json {
    Json::Obj(
        snap.groupings
            .iter()
            .map(|(name, g)| {
                (
                    name.clone(),
                    obj([
                        ("version", Json::from(g.version)),
                        ("groups", Json::from(g.formation.grouping.len())),
                        ("objective", Json::from(g.formation.objective)),
                        ("algorithm", Json::from(g.config.grd_name())),
                    ]),
                )
            })
            .collect(),
    )
}

fn group_body(
    snap: &Snapshot,
    name: &str,
    g: &crate::state::GroupingState,
    gi: usize,
    page: Page,
) -> Json {
    let grp = &g.formation.grouping.groups[gi];
    let lo = page.offset.min(grp.members.len());
    let hi = lo.saturating_add(page.limit).min(grp.members.len());
    obj([
        ("grouping", Json::from(name)),
        ("group", Json::from(gi)),
        ("members_total", Json::from(grp.len())),
        ("members_offset", Json::from(lo)),
        (
            "members",
            Json::Arr(grp.members[lo..hi].iter().map(|&u| Json::from(u)).collect()),
        ),
        ("top_k", top_k_json(&grp.top_k)),
        ("satisfaction", Json::from(grp.satisfaction)),
        ("version", Json::from(snap.version)),
        ("grouping_version", Json::from(g.version)),
    ])
}

fn group_of(state: &ServeState, name: &str, user: u32, page: Page) -> (u16, Json) {
    let snap = state.snapshot();
    let Some(g) = snap.grouping(name) else {
        return (
            404,
            error_body("unknown_grouping", format!("no grouping named {name:?}")),
        );
    };
    match g.group_of(user) {
        Some(gi) => {
            let mut body = group_body(&snap, name, g, gi, page);
            if let Json::Obj(fields) = &mut body {
                fields.insert(0, ("user".to_string(), Json::from(user)));
            }
            (200, body)
        }
        None => (
            404,
            error_body("unknown_user", format!("user {user} is not assigned")),
        ),
    }
}

fn recommend(state: &ServeState, name: &str, group: usize, params: RecommendParams) -> (u16, Json) {
    let snap = state.snapshot();
    let Some(g) = snap.grouping(name) else {
        return (
            404,
            error_body("unknown_grouping", format!("no grouping named {name:?}")),
        );
    };
    if group >= g.formation.grouping.len() {
        return (
            404,
            error_body("unknown_group", format!("no group {group}")),
        );
    }
    let grp = &g.formation.grouping.groups[group];
    // `exclude_rated` keeps only candidate items — items **no** member
    // has rated — from the stored list, preserving score order. The
    // candidate set comes from the per-grouping cache, so steady-state
    // queries pay one sorted-membership probe per recommended item.
    let mut items: Vec<(u32, f64)> = if params.exclude_rated {
        let candidates = state
            .candidate_items(&snap, name, group)
            .expect("grouping and group index checked above");
        grp.top_k
            .iter()
            .copied()
            .filter(|(item, _)| candidates.binary_search(item).is_ok())
            .collect()
    } else {
        grp.top_k.clone()
    };
    if let Some(top_k) = params.top_k {
        // The stored list is precomputed at the grouping's configured
        // `k`, so a larger request clamps to what exists.
        items.truncate(top_k);
    }
    let total = items.len();
    let lo = params.page.offset.min(total);
    let hi = lo.saturating_add(params.page.limit).min(total);
    (
        200,
        obj([
            ("grouping", Json::from(name)),
            ("group", Json::from(group)),
            ("items_total", Json::from(total)),
            ("items_offset", Json::from(lo)),
            ("top_k", top_k_json(&items[lo..hi])),
            ("excluded_rated", Json::from(params.exclude_rated)),
            ("satisfaction", Json::from(grp.satisfaction)),
            ("version", Json::from(snap.version)),
            ("grouping_version", Json::from(g.version)),
        ]),
    )
}

/// Default disagreement penalty when `"cons"` is requested without an
/// explicit `lambda`.
pub const DEFAULT_CONSENSUS_LAMBDA: f64 = 0.5;

/// Parses a semantics name as used by `/form`/`/grouping` bodies and the
/// CLI. `"cons"` starts from [`DEFAULT_CONSENSUS_LAMBDA`]; callers may
/// override the penalty afterwards (the `"lambda"` body key, `lambda=` in
/// `--grouping` specs).
pub fn parse_semantics(text: &str) -> Option<Semantics> {
    match text.to_ascii_lowercase().as_str() {
        "lm" | "least-misery" | "leastmisery" => Some(Semantics::LeastMisery),
        "av" | "aggregate-voting" | "aggregatevoting" => Some(Semantics::AggregateVoting),
        "cons" | "consensus" => Some(Semantics::Consensus {
            lambda: DEFAULT_CONSENSUS_LAMBDA,
        }),
        "ldr" | "leader" | "leader-weighted" | "leaderweighted" => Some(Semantics::LeaderWeighted),
        _ => None,
    }
}

/// Parses an aggregation name as used by `/form` bodies and the CLI.
pub fn parse_aggregation(text: &str) -> Option<Aggregation> {
    match text.to_ascii_lowercase().as_str() {
        "min" => Some(Aggregation::Min),
        "max" => Some(Aggregation::Max),
        "sum" => Some(Aggregation::Sum),
        _ => None,
    }
}

/// Applies `/form`/`/grouping` body overrides on top of a base
/// configuration; unknown names and non-positive sizes are errors.
fn apply_overrides(mut cfg: FormationConfig, parsed: &Json) -> Result<FormationConfig, String> {
    if let Some(v) = parsed.get("semantics") {
        cfg.semantics = v
            .as_str()
            .and_then(parse_semantics)
            .ok_or("semantics must be \"lm\", \"av\", \"cons\" or \"ldr\"")?;
    }
    if let Some(v) = parsed.get("lambda") {
        let lambda = v
            .as_f64()
            .filter(|l| l.is_finite() && *l >= 0.0)
            .ok_or("lambda must be a finite non-negative number")?;
        match cfg.semantics {
            Semantics::Consensus { .. } => cfg.semantics = Semantics::Consensus { lambda },
            _ => return Err("lambda only applies to \"cons\" semantics".to_string()),
        }
    }
    if let Some(v) = parsed.get("aggregation") {
        cfg.aggregation = v
            .as_str()
            .and_then(parse_aggregation)
            .ok_or("aggregation must be \"min\", \"max\" or \"sum\"")?;
    }
    if let Some(v) = parsed.get("k") {
        cfg.k = v.as_u64().filter(|&k| k >= 1).ok_or("k must be >= 1")? as usize;
    }
    if let Some(v) = parsed.get("ell") {
        cfg.ell = v.as_u64().filter(|&l| l >= 1).ok_or("ell must be >= 1")? as usize;
    }
    Ok(cfg)
}

/// The `name=` parameter of `POST /form`; absent means `default`.
fn parse_form_name(query: &str) -> String {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == "name")
        .map(|(_, v)| v.to_string())
        .unwrap_or_else(|| Snapshot::DEFAULT_GROUPING.to_string())
}

/// The shared `/form` + `/grouping` success body.
fn formed_body(outcome: &crate::batch::BatchOutcome, name: &str) -> Json {
    let g = outcome
        .snapshot
        .grouping(name)
        .expect("formed grouping present in installed snapshot");
    obj([
        ("grouping", Json::from(name)),
        ("version", Json::from(outcome.snapshot.version)),
        ("grouping_version", Json::from(g.version)),
        ("groups", Json::from(g.formation.grouping.len())),
        ("objective", Json::from(g.formation.objective)),
        ("algorithm", Json::from(g.config.grd_name())),
        ("batch_size", Json::from(outcome.batch_size)),
        ("coalesced", Json::from(!outcome.leader)),
    ])
}

/// `POST /form?name=`: re-forms one *existing* grouping with optional
/// overrides on top of its current configuration. Unknown names are 404 —
/// creation is `POST /grouping`'s job, so a typo cannot silently mint a
/// new registry entry.
fn form(state: &ServeState, query: &str, body: &str) -> (u16, Json) {
    let name = parse_form_name(query);
    let snap = state.snapshot();
    let Some(g) = snap.grouping(&name) else {
        return (
            404,
            error_body(
                "unknown_grouping",
                format!("no grouping named {name:?}; create it with POST /v1/grouping"),
            ),
        );
    };
    let cfg = if body.trim().is_empty() {
        g.config
    } else {
        let parsed = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return (400, error_body("bad_request", e)),
        };
        match apply_overrides(g.config, &parsed) {
            Ok(cfg) => cfg,
            Err(message) => return (400, error_body("bad_request", message)),
        }
    };
    drop(snap);
    match state.form_named(&name, cfg) {
        Ok(outcome) => (200, formed_body(&outcome, &name)),
        Err(err) => gf_error_response(&err),
    }
}

/// `POST /grouping`: registers a new named grouping (or reconfigures an
/// existing one) over the shared matrix. The base configuration is the
/// grouping's own when it exists, the `default` grouping's otherwise.
fn create_grouping(state: &ServeState, body: &str) -> (u16, Json) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_request", e)),
    };
    let Some(name) = parsed
        .get("name")
        .and_then(Json::as_str)
        .map(str::to_string)
    else {
        return (
            400,
            error_body("bad_request", "body must carry a \"name\" for the grouping"),
        );
    };
    let snap = state.snapshot();
    let base = snap
        .grouping(&name)
        .unwrap_or_else(|| snap.default_grouping())
        .config;
    let cfg = match apply_overrides(base, &parsed) {
        Ok(cfg) => cfg,
        Err(message) => return (400, error_body("bad_request", message)),
    };
    drop(snap);
    match state.form_named(&name, cfg) {
        Ok(outcome) => (200, formed_body(&outcome, &name)),
        Err(err) => gf_error_response(&err),
    }
}

fn rate(state: &ServeState, body: &str) -> (u16, Json) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_request", e)),
    };
    let (Some(user), Some(item), Some(rating)) = (
        parsed.get("user").and_then(Json::as_u64),
        parsed.get("item").and_then(Json::as_u64),
        parsed.get("rating").and_then(Json::as_f64),
    ) else {
        return (
            400,
            error_body(
                "bad_request",
                "body must be {\"user\":u,\"item\":i,\"rating\":r}",
            ),
        );
    };
    // Raw-id mode forwards the full u64 ids through the remap layer;
    // dense mode requires them to be in-range matrix indices.
    let accepted = if state.raw_ids().is_some() {
        state.rate_raw(user, item, rating)
    } else if user > u32::MAX as u64 || item > u32::MAX as u64 {
        return (400, error_body("bad_request", "user/item out of u32 range"));
    } else {
        state.rate(user as u32, item as u32, rating)
    };
    match accepted {
        Ok(pending) => (
            202,
            obj([
                ("accepted", Json::from(true)),
                ("pending", Json::from(pending)),
                ("version", Json::from(state.snapshot().version)),
            ]),
        ),
        Err(err) => gf_error_response(&err),
    }
}

/// `POST /v1/feedback`: journals one observed consumption — "`user`
/// actually consumed `item`" — optionally scoped to one grouping via
/// `"grouping"`. Durably WAL-journaled before the 202 like a rating;
/// background passes fold it into the online quality window that powers
/// the `quality` block of `/v1/stats`. Feedback never admits new ids.
fn feedback(state: &ServeState, body: &str) -> (u16, Json) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_request", e)),
    };
    let (Some(user), Some(item)) = (
        parsed.get("user").and_then(Json::as_u64),
        parsed.get("item").and_then(Json::as_u64),
    ) else {
        return (
            400,
            error_body(
                "bad_request",
                "body must be {\"user\":u,\"item\":i} with an optional \"grouping\"",
            ),
        );
    };
    let scope = match parsed.get("grouping") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_str() {
            Some(name) => Some(name.to_string()),
            None => {
                return (
                    400,
                    error_body("bad_request", "\"grouping\" must be a string"),
                )
            }
        },
    };
    // An unknown scope is the same class of miss as an unknown grouping
    // in a path: 404, not 400 — the name may exist after a `/grouping`.
    if let Some(name) = scope.as_deref() {
        if state.snapshot().grouping(name).is_none() {
            return (
                404,
                error_body("unknown_grouping", format!("no grouping named {name:?}")),
            );
        }
    }
    let accepted = if state.raw_ids().is_some() {
        state.feedback_raw(user, item, scope.as_deref())
    } else if user > u32::MAX as u64 || item > u32::MAX as u64 {
        return (400, error_body("bad_request", "user/item out of u32 range"));
    } else {
        state.feedback(user as u32, item as u32, scope.as_deref())
    };
    match accepted {
        Ok(pending) => (
            202,
            obj([
                ("accepted", Json::from(true)),
                ("pending", Json::from(pending)),
                ("version", Json::from(state.snapshot().version)),
            ]),
        ),
        Err(err) => gf_error_response(&err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;
    use gf_core::{RatingMatrix, RatingScale};
    use std::sync::Arc;
    use std::time::Duration;

    fn test_state() -> Arc<ServeState> {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|u| {
                (0..5)
                    .map(|i| 1.0 + ((u * 3 + i * 2 + u * i) % 5) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let matrix = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            3,
        ))
        .with_batch_window(Duration::ZERO);
        ServeState::new(matrix, cfg).unwrap()
    }

    fn send(state: &ServeState, method: &str, path: &str, query: &str, body: &str) -> (u16, Json) {
        let out = route_full(
            state,
            &HttpRequest {
                method: method.into(),
                path: path.into(),
                query: query.into(),
                body: body.into(),
                keep_alive: true,
            },
        );
        (out.status, out.body)
    }

    fn get(state: &ServeState, path: &str) -> (u16, Json) {
        send(state, "GET", path, "", "")
    }

    fn get_query(state: &ServeState, path: &str, query: &str) -> (u16, Json) {
        send(state, "GET", path, query, "")
    }

    fn post(state: &ServeState, path: &str, body: &str) -> (u16, Json) {
        send(state, "POST", path, "", body)
    }

    #[test]
    fn health_reports_shape() {
        let s = test_state();
        let (status, body) = get(&s, "/v1/health");
        assert_eq!(status, 200);
        assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(body.get("users").and_then(Json::as_u64), Some(9));
        assert_eq!(body.get("version").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn group_lookup_round_trips_assignment() {
        let s = test_state();
        for u in 0..9u32 {
            let (status, body) = get(&s, &format!("/v1/group/{u}"));
            assert_eq!(status, 200, "user {u}");
            let gi = body.get("group").and_then(Json::as_u64).unwrap() as usize;
            let members = body.get("members").and_then(Json::as_arr).unwrap();
            assert!(members.iter().any(|m| m.as_u64() == Some(u as u64)));
            let (rs, rbody) = get_query(&s, &format!("/v1/recommend/{gi}"), "exclude_rated=false");
            assert_eq!(rs, 200);
            assert_eq!(rbody.get("top_k"), body.get("top_k"));
        }
    }

    #[test]
    fn group_members_are_paged() {
        // ell = 1 merges all 9 users into one group.
        let rows: Vec<Vec<f64>> = (0..9).map(|u| vec![1.0 + (u % 5) as f64; 3]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let matrix = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            1,
        ));
        let s = ServeState::new(matrix, cfg).unwrap();
        let (status, body) = get_query(&s, "/v1/group/0", "limit=3&offset=4");
        assert_eq!(status, 200);
        assert_eq!(body.get("members_total").and_then(Json::as_u64), Some(9));
        assert_eq!(body.get("members_offset").and_then(Json::as_u64), Some(4));
        let members: Vec<u64> = body
            .get("members")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(members, vec![4, 5, 6]);
        // Out-of-range offsets clamp to an empty page, never an error.
        let (status, body) = get_query(&s, "/v1/group/0", "offset=99");
        assert_eq!(status, 200);
        assert!(body
            .get("members")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        // Same window semantics on the recommendation endpoint.
        let (status, body) = get_query(&s, "/v1/recommend/0", "exclude_rated=false&limit=1");
        assert_eq!(status, 200);
        assert_eq!(
            body.get("top_k").and_then(Json::as_arr).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(body.get("items_total").and_then(Json::as_u64), Some(2));
        // Malformed paging parameters are a 400, unknown ones are ignored.
        assert_eq!(get_query(&s, "/v1/group/0", "limit=abc").0, 400);
        assert_eq!(get_query(&s, "/v1/group/0", "offset=-1").0, 400);
        assert_eq!(get_query(&s, "/v1/group/0", "foo=1").0, 200);
    }

    #[test]
    fn default_member_cap_truncates_large_groups() {
        assert_eq!(parse_page("").unwrap().limit, DEFAULT_MEMBER_LIMIT);
        assert_eq!(
            parse_page("limit=10&offset=3").unwrap(),
            Page {
                offset: 3,
                limit: 10
            }
        );
        assert!(parse_page("limit=").is_err());
    }

    #[test]
    fn stats_reports_refresh_paths() {
        let s = test_state();
        assert_eq!(
            post(&s, "/v1/rate", r#"{"user":1,"item":2,"rating":5}"#).0,
            202
        );
        s.flush().unwrap();
        let (status, body) = get(&s, "/v1/stats");
        assert_eq!(status, 200);
        assert_eq!(
            body.get("refresh_incremental").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(body.get("refresh_cold").and_then(Json::as_u64), Some(0));
        assert_eq!(
            body.get("refresh_mode").and_then(Json::as_str),
            Some("auto")
        );
    }

    #[test]
    fn unknown_user_group_and_path_are_404() {
        let s = test_state();
        assert_eq!(get(&s, "/v1/group/99").0, 404);
        assert_eq!(get(&s, "/v1/recommend/99").0, 404);
        assert_eq!(get(&s, "/v1/nope").0, 404);
        assert_eq!(get(&s, "/v1/group/abc").0, 400);
    }

    #[test]
    fn wrong_method_is_405() {
        let s = test_state();
        assert_eq!(send(&s, "DELETE", "/v1/health", "", "").0, 405);
    }

    #[test]
    fn rate_endpoint_accepts_and_rejects() {
        let s = test_state();
        let (status, body) = post(&s, "/v1/rate", r#"{"user":1,"item":2,"rating":5}"#);
        assert_eq!(status, 202);
        assert_eq!(body.get("pending").and_then(Json::as_u64), Some(1));
        assert_eq!(
            post(&s, "/v1/rate", r#"{"user":99,"item":0,"rating":5}"#).0,
            404
        );
        assert_eq!(
            post(&s, "/v1/rate", r#"{"user":0,"item":0,"rating":99}"#).0,
            400
        );
        assert_eq!(post(&s, "/v1/rate", "not json").0, 400);
        assert_eq!(post(&s, "/v1/rate", r#"{"user":0}"#).0, 400);
    }

    #[test]
    fn raw_id_rate_rejects_ids_a_double_would_round() {
        use gf_datasets::IdRemapper;
        let s = test_state();
        // Raw user 2^53 is user 8; 2^53 + 1 would round onto it.
        let users = IdRemapper::from_ids((0..8).chain([1u64 << 53]).collect());
        let items = IdRemapper::from_ids((0..5).collect());
        s.attach_raw_ids(crate::RawIdLayer::new(users, items));
        for body in [
            r#"{"user":9007199254740993,"item":0,"rating":5}"#,
            r#"{"user":18446744073709551616,"item":0,"rating":5}"#,
        ] {
            let (status, err) = post(&s, "/v1/rate", body);
            assert_eq!(status, 400, "{body}");
            assert_eq!(
                err.get("error").and_then(|e| e.get("code")),
                Some(&Json::from("bad_request"))
            );
        }
        assert_eq!(s.pending_len(), 0);
        let (status, _) = post(
            &s,
            "/v1/rate",
            r#"{"user":9007199254740992,"item":0,"rating":5}"#,
        );
        assert_eq!(status, 202);
    }

    #[test]
    fn form_endpoint_overrides_config() {
        let s = test_state();
        let (status, body) = post(
            &s,
            "/v1/form",
            r#"{"semantics":"av","aggregation":"sum","ell":2}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(
            body.get("algorithm").and_then(Json::as_str),
            Some("GRD-AV-SUM")
        );
        assert!(body.get("groups").and_then(Json::as_u64).unwrap() <= 2);
        assert_eq!(post(&s, "/v1/form", r#"{"semantics":"bogus"}"#).0, 400);
        assert_eq!(post(&s, "/v1/form", r#"{"k":0}"#).0, 400);
        // Empty body re-forms under the current config.
        assert_eq!(post(&s, "/v1/form", "").0, 200);
    }

    #[test]
    fn errors_share_one_envelope() {
        let s = test_state();
        let code = |(status, body): (u16, Json)| {
            let err = body.get("error").cloned().expect("error envelope");
            assert!(err.get("message").and_then(Json::as_str).is_some());
            (
                status,
                err.get("code").and_then(Json::as_str).unwrap().to_string(),
            )
        };
        assert_eq!(code(get(&s, "/v1/group/99")), (404, "unknown_user".into()));
        assert_eq!(
            code(get(&s, "/v1/recommend/99")),
            (404, "unknown_group".into())
        );
        assert_eq!(
            code(get(&s, "/v1/recommend/nope/0")),
            (404, "unknown_grouping".into())
        );
        assert_eq!(code(get(&s, "/v1/nope")), (404, "unknown_endpoint".into()));
        // "/v1" without a following slash is not the namespace.
        assert_eq!(code(get(&s, "/v1health")), (404, "unknown_endpoint".into()));
        assert_eq!(code(get(&s, "/v1/group/abc")), (400, "bad_request".into()));
        assert_eq!(
            code(post(&s, "/v1/rate", "not json")),
            (400, "bad_request".into())
        );
        assert_eq!(
            code(post(&s, "/v1/rate", r#"{"user":99,"item":0,"rating":5}"#)),
            (404, "unknown_user".into())
        );
        assert_eq!(send(&s, "DELETE", "/v1/health", "", "").0, 405);
    }

    #[test]
    fn feedback_endpoint_journals_and_surfaces_quality() {
        let s = test_state();
        let (status, body) = post(&s, "/v1/feedback", r#"{"user":1,"item":2}"#);
        assert_eq!(status, 202);
        assert_eq!(body.get("accepted").and_then(Json::as_bool), Some(true));
        assert_eq!(post(&s, "/v1/feedback", r#"{"user":99,"item":0}"#).0, 404);
        assert_eq!(
            post(
                &s,
                "/v1/feedback",
                r#"{"user":0,"item":0,"grouping":"nope"}"#
            )
            .0,
            404
        );
        assert_eq!(post(&s, "/v1/feedback", r#"{"user":0}"#).0, 400);
        s.flush().unwrap();
        let (status, stats) = get(&s, "/v1/stats");
        assert_eq!(status, 200);
        assert_eq!(
            stats.get("feedback_applied").and_then(Json::as_u64),
            Some(1)
        );
        let q = stats
            .get("quality")
            .and_then(|q| q.get("default"))
            .expect("per-grouping quality block");
        assert_eq!(q.get("window_events").and_then(Json::as_u64), Some(1));
        assert!(q.get("ndcg").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn v1_recommend_filters_rated_items_by_default() {
        let s = test_state();
        // The 9x5 fixture matrix is dense: every item is rated by every
        // member, so the filtered list is empty under /v1 defaults...
        let (status, body) = get(&s, "/v1/recommend/0");
        assert_eq!(status, 200);
        assert_eq!(body.get("items_total").and_then(Json::as_u64), Some(0));
        assert_eq!(
            body.get("excluded_rated").and_then(Json::as_bool),
            Some(true)
        );
        // ...while an explicit opt-out still sees the stored list.
        let (_, opt_out) = get_query(&s, "/v1/recommend/0", "exclude_rated=false");
        assert_eq!(
            opt_out.get("excluded_rated").and_then(Json::as_bool),
            Some(false)
        );
        assert!(opt_out.get("items_total").and_then(Json::as_u64).unwrap() > 0);
        // top_k clamps to the stored list length.
        let (_, clamped) = get_query(&s, "/v1/recommend/0", "exclude_rated=false&top_k=1");
        assert_eq!(clamped.get("items_total").and_then(Json::as_u64), Some(1));
        let (_, large) = get_query(&s, "/v1/recommend/0", "exclude_rated=false&top_k=999");
        assert_eq!(large.get("top_k"), opt_out.get("top_k"));
        assert_eq!(
            get_query(&s, "/v1/recommend/0", "exclude_rated=maybe").0,
            400
        );
        assert_eq!(get_query(&s, "/v1/recommend/0", "top_k=x").0, 400);
    }

    #[test]
    fn route_table_rows_all_dispatch() {
        let s = test_state();
        for (method, pattern) in ROUTE_TABLE {
            let path = pattern
                .replace("{name}", "default")
                .replace("{user}", "0")
                .replace("{group}", "0")
                .replace("{item}", "0");
            let (status, _) = send(&s, method, &path, "", "");
            // Anything but unknown_endpoint/method_not_allowed proves the
            // row reaches a real handler (POSTs 400 on the empty body).
            assert!(
                status != 405 && (status != 404 || *method == "GET"),
                "{method} {pattern} -> {status}"
            );
        }
    }

    #[test]
    fn name_parsers() {
        assert_eq!(parse_semantics("LM"), Some(Semantics::LeastMisery));
        assert_eq!(
            parse_semantics("aggregate-voting"),
            Some(Semantics::AggregateVoting)
        );
        assert_eq!(parse_semantics("x"), None);
        assert_eq!(parse_aggregation("Sum"), Some(Aggregation::Sum));
        assert_eq!(parse_aggregation("median"), None);
    }
}
