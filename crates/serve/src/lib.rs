//! # gf-serve — a batched, incrementally-updating group-formation server
//!
//! The paper's end goal is *serving*: groups are formed so that
//! precomputed group recommendations can be handed to users as they
//! arrive (Roy, Lakshmanan, Liu — SIGMOD 2015, §1/§6). This crate is that
//! online component: every grouping it serves is formed, and kept
//! current, by one standing [`gf_core::IncrementalFormer`]:
//!
//! * **A versioned API surface** — every endpoint lives under `/v1/...`
//!   with one shared error envelope (`{"error":{"code","message"}}`) and
//!   uniform `top_k`/`limit`/`offset` parameters; any other path is a
//!   404 ([`http`] module docs hold the route table, mirrored by
//!   [`http::ROUTE_TABLE`]).
//! * **Snapshot serving** — queries (`GET /v1/group/{user}`,
//!   `GET /v1/recommend/{group}`, `GET /v1/health`) read an immutable,
//!   `Arc`-shared [`Snapshot`] and are lock-free after one brief
//!   read-lock to clone the `Arc`.
//! * **A closed quality loop** — `GET /v1/recommend/...` filters the
//!   stored top-`k` list down to *candidate* items no group member has
//!   rated (`exclude_rated=true` is the `/v1` default, computed by
//!   [`gf_core::CandidateEngine`] and cached per grouping version);
//!   `POST /v1/feedback` journals which recommendations users accepted
//!   — WAL-durable before the `202`, exactly like ratings — and folds
//!   them into a sliding [`gf_core::OnlineEval`] window whose per-group
//!   precision/recall/NDCG\@k surface under `quality` in `/v1/stats`.
//! * **A named-grouping registry** — one process serves many independent
//!   formations (per-tenant `k`/`ℓ`/semantics) over **one** shared rating
//!   matrix: the snapshot maps grouping names to [`state::GroupingState`]
//!   entries that share the matrix/prefs `Arc`s, `POST /v1/grouping`
//!   registers new ones at runtime, and `GET /v1/group/{name}/{user}`
//!   queries each by name ([`state`] module docs).
//! * **Request batching** — concurrent `POST /v1/form` requests for the
//!   same grouping and configuration arriving within a small window
//!   coalesce into a single formation run ([`batch`]).
//! * **Incremental updates** — `POST /v1/rate` enqueues a rating; a bounded
//!   background pass builds the successor matrix
//!   ([`gf_core::RatingMatrix::with_upserts_under`]) and re-sorts only the
//!   affected users' preference lists ([`gf_core::PrefIndex::patched`]),
//!   re-forms, and atomically swaps the snapshot. The incremental path converges to exactly what a cold
//!   rebuild over the same ratings produces — property-tested in
//!   `tests/serve_props.rs`.
//! * **Population growth** — under
//!   [`gf_core::GrowthPolicy::Grow`] a `POST /v1/rate` naming a never-seen
//!   user or item *admits* it (up to the caps): the journal entry carries
//!   the grown id, the background pass extends matrix, preference index
//!   and standing formation, and `GET /v1/group/{new_user}` resolves after
//!   the refresh — no restart. `/v1/stats` reports
//!   `users_admitted`/`items_admitted`.
//! * **Durability** — with `--data-dir`, every accepted `POST /v1/rate` is
//!   journaled to an fsync'd write-ahead log *before* acknowledgment, a
//!   background thread checkpoints the immutable snapshot without pausing
//!   serving, and a restart warm-loads the newest checkpoint and replays
//!   the WAL tail — bit-for-bit equal to the server that never crashed
//!   ([`persist`], formats in `gf-persist`, runbook in
//!   `docs/OPERATIONS.md`).
//! * **No new dependencies** — the HTTP/1.1 codec ([`http`]) and the JSON
//!   codec ([`json`]) are hand-rolled on `std::net`, the same offline
//!   philosophy as the `vendor/` stubs.
//!
//! ## In-process quickstart
//!
//! ```
//! use gf_core::{Aggregation, FormationConfig, RatingMatrix, RatingScale, Semantics};
//! use gf_serve::{ServeConfig, ServeState};
//!
//! let matrix = RatingMatrix::from_dense(
//!     &[
//!         &[1.0, 4.0, 3.0][..],
//!         &[2.0, 3.0, 5.0],
//!         &[2.0, 5.0, 1.0],
//!         &[3.0, 1.0, 1.0],
//!     ],
//!     RatingScale::one_to_five(),
//! )
//! .unwrap();
//! let cfg = ServeConfig::new(FormationConfig::new(
//!     Semantics::LeastMisery,
//!     Aggregation::Min,
//!     2,
//!     2,
//! ));
//! let state = ServeState::new(matrix, cfg).unwrap();
//!
//! // A rating arrives; queries keep seeing the old snapshot until the
//! // background pass (here: a synchronous flush) installs the next one.
//! state.rate(0, 2, 5.0).unwrap();
//! assert_eq!(state.snapshot().version, 1);
//! state.flush().unwrap();
//! let snap = state.snapshot();
//! assert_eq!(snap.version, 2);
//! assert_eq!(snap.matrix.get(0, 2), Some(5.0));
//! # assert!((0..snap.matrix.n_users()).all(|u| snap.default_grouping().group_of(u).is_some()));
//! ```
//!
//! To serve over TCP, wrap the state in a [`net::Server`] (or run the
//! `gf-serve` binary, which loads a dataset and does exactly that). The
//! transport defaults to an epoll readiness loop on Linux and falls
//! back to hardened thread-per-connection elsewhere; `--net` selects
//! explicitly ([`net`] module docs).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod net;
pub mod persist;
pub mod remap;
pub mod state;

pub use batch::BatchOutcome;
pub use http::{parse_aggregation, parse_semantics, HttpRequest, RouteOutcome, ROUTE_TABLE};
pub use json::Json;
pub use net::{NetMode, NetOptions, Server, ServerHandle};
pub use persist::{boot, spawn_checkpointer, Checkpointer, DurabilityOptions, RecoveryReport};
pub use remap::RawIdLayer;
pub use state::{
    validate_grouping_name, GroupingState, Progress, ServeConfig, ServeState, Snapshot,
};
