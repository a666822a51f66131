//! `ent-serve`: a multi-tenant resident daemon for the ENT language.
//!
//! Every entry point before this crate was a one-shot CLI or batch run.
//! The ROADMAP's north star — a production-scale service — needs a
//! server that stays correct and responsive while sensors fail, tenants
//! misbehave, and load spikes. This crate is that server, and its design
//! lifts the paper's core idea (proactively adapt program behavior to
//! energy state) to the service level:
//!
//! * **Wire protocol** ([`proto`]): newline-delimited JSON
//!   (`ent-serve-proto/1`) over `std::net::TcpListener` ([`tcp`]) — no
//!   dependencies, one request line in, one reply line out, one thread
//!   per connection.
//! * **Admission control** ([`admission`]): per-tenant token buckets and
//!   energy budgets; a tenant over budget gets a typed reply, not a slow
//!   server.
//! * **System modes** ([`modes`]): a four-state controller
//!   (`normal < degraded < energy_saver < fallback_only`) driven by
//!   failure-rate, queue-depth, and sensor-fault EWMAs, with hysteresis:
//!   fast to degrade, slow (one level per clean streak) to recover —
//!   modeled on the GMU `ENFORCE_ADAPTIVE_GUARD` TLA+ spec.
//! * **Quarantine** ([`quarantine`]): repeatedly-failing programs (keyed
//!   by source fingerprint) are shed, with decay-based strikes and
//!   parole probes for release.
//! * **One control plane** (`gates`): the gates, the completion
//!   bookkeeping and the counters as one plain value, which the server
//!   holds under the same lock as its permits.
//! * **Isolation** ([`server`]): each admitted job runs on the thread
//!   that read it, under one of a fixed number of permits; the jobs
//!   waiting for one are a bounded queue with backpressure. Jobs reuse
//!   the batch engine's `catch_unwind` / retry machinery and its
//!   compile-once program cache.
//! * **Soak harness** ([`soak`]): a deterministic in-process chaos soak
//!   (faults + panics + overload) that asserts zero daemon crashes,
//!   byte-identical replies vs. one-shot `ent run`, and the hysteresis
//!   invariants — and feeds `BENCH_serve.json`.
//!
//! Modes and admission only ever decide *whether* a job runs, never
//! *how*: an admitted job's `RuntimeConfig` is exactly its one-shot
//! equivalent's, which is why byte-identity holds at any permit count by
//! construction.

pub mod admission;
mod gates;
pub mod modes;
pub mod proto;
pub mod quarantine;
pub mod server;
pub mod soak;
pub mod tcp;

pub use admission::{Admission, AdmissionConfig, AdmissionShed};
/// The request parser: `ent-runtime`'s JSON reader.
pub use ent_runtime::json;
pub use modes::{check_hysteresis, ModeConfig, ModeController, Observation, SystemMode};
pub use proto::{parse_request, ErrorKind, Op, Reply, Request, PROTO_SCHEMA, STATS_SCHEMA};
pub use quarantine::{Quarantine, QuarantineConfig, Verdict};
pub use server::{ChaosPlan, CounterSnapshot, Server, ServerConfig, Submission};
pub use soak::{run_soak, SoakConfig, SoakReport};
