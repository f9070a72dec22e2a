//! # ncc-serve — resident scenario coordinator
//!
//! The batch entrypoints (`ncc-cli run`, the experiment binaries) pay the
//! full scenario build — graph generation, edge weights — on every
//! invocation. This crate keeps that work *resident*: a daemon accepts
//! [`ScenarioSpec`](ncc_runner::ScenarioSpec) requests as newline-delimited
//! JSON over stdio or a local TCP socket, serves scenario artifacts out of
//! a content-addressed [`BuildCache`] keyed by the spec's canonical hash
//! ([`ncc_runner::spec_hash`]), and executes requests on a bounded
//! [`WorkerPool`] that shares one global thread budget.
//!
//! The contract that makes residency trustworthy is **byte-identity**: a
//! record served from a warm cache (and a reset resident engine) is
//! byte-for-byte the record a cold batch run would have produced — for any
//! worker count and any engine thread count. That is property-tested in
//! `tests/serve_determinism.rs`; the cache and the engine-residency layer
//! are not allowed to become observable in results, only in latency.
//!
//! ```text
//!            ┌───────────────┐   lines    ┌─────────────┐
//!  clients ─▶│ stdio / TCP   │──────────▶│ bounded queue│
//!            │ fronts        │            └──────┬──────┘
//!            └───────────────┘                   │ jobs
//!                                        ┌───────▼────────┐
//!                                        │ worker pool    │  per-worker
//!                                        │ (N threads)    │  EngineSlots
//!                                        └───────┬────────┘
//!                                                │ get_or_build
//!                                        ┌───────▼────────┐
//!                                        │ BuildCache     │  spec_hash →
//!                                        │ (LRU, counters)│  Arc<Scenario>
//!                                        └────────────────┘
//! ```
//!
//! Entry points: `ncc-cli serve` for the daemon, [`Server::spawn`] for in-process embedding (the
//! `exp21_serve_load` load generator and the integration tests), and
//! [`Coordinator::handle_line`] for direct single-threaded use.

pub mod cache;
pub mod protocol;
pub mod server;

pub use cache::{BuildCache, CacheStats};
pub use protocol::{parse_request, Request, Response, ServeStats};
pub use server::{
    serve_stdio, Coordinator, EngineSlots, Job, ResponseSink, ServeConfig, Server, WorkerPool,
};
