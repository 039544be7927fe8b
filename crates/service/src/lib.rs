//! # avf-service
//!
//! The wire-native campaign service: everything needed to run
//! fault-injection campaigns *somewhere else*.
//!
//! The campaign driver in `avf-inject` speaks the [`CampaignBackend`]
//! protocol — open a job, submit trial batches, drain a stream of
//! per-trial outcomes. This crate carries that protocol across a
//! socket:
//!
//! * [`frame`] — length-prefixed framing with an allocation-bounding
//!   size limit, plus a count/time-window [`frame::FrameBatcher`] so
//!   the event hot path does not pay one syscall per 16-byte frame;
//! * [`protocol`] — the session schema (job setup → store handshake →
//!   batches → streamed events), every payload wrapped in the
//!   `avf_isa::wire` magic + version envelope so stale or foreign
//!   peers fail typed;
//! * [`cache`] — the one bounded worker-side LRU, in two instances:
//!   checkpoint stores keyed by content hash ([`StoreCache`], behind
//!   the `HAVE`/`NEED` handshake that keeps identical stores from ever
//!   being re-shipped) and GA fitness scores keyed by genome
//!   ([`EvalCache`]);
//! * [`serve`] / [`spawn_local`] — the long-running job server
//!   (`avf-stressmark serve`): one session loop serves trial batches
//!   and genome batches alike, a thin wire adapter over the same
//!   `LocalBackend` the in-process path uses — including worker-side
//!   golden runs, so N workers warm a campaign up in parallel while
//!   the driver simulates nothing;
//! * [`fleet`] — the one supervised worker fleet, carrying both job
//!   kinds of the methodology: campaign *trial batches* and GA *genome
//!   batches*. It shards each batch over the live workers, drains every
//!   shard on its own thread (each index acknowledged exactly once),
//!   and **re-dispatches** the unacknowledged items of any worker whose
//!   connection dies mid-batch onto the survivors;
//! * [`RemoteBackend`] — the campaign client: a parallel setup
//!   handshake with golden-run cross-check, then trial batches on the
//!   fleet; [`RemoteEvaluator`] — the search client: genome batches on
//!   the fleet behind the GA's evaluator trait;
//! * [`auth`] — keyed-hash (SipHash-2-4) frame authentication under a
//!   shared `--auth-key-file` key: per-connection, per-direction
//!   sequence-numbered tags reject tampered, replayed, reflected, and
//!   unauthenticated frames with a typed error, closing the
//!   trusted-peers gap recorded since PR 3;
//! * [`metrics`] — a plaintext `GET /metrics` + `GET /healthz`
//!   endpoint (workers expose their session counters and the stats
//!   of both caches; the broker in `avf-broker` exposes queue depths
//!   and worker liveness), scrapable with `curl`/`nc`.
//!
//! Determinism is the design invariant: with a fixed seed, a campaign
//! over `RemoteBackend` produces a [`CampaignReport`] identical to the
//! local run — same outcome counts, intervals, batch trajectory, and
//! stop reason — because samples are derived purely from `(seed,
//! batch, index)` and aggregation commutes. That also makes worker
//! failure recoverable without bias: a re-executed trial yields the
//! identical outcome wherever it runs, so a campaign that lost a
//! worker mid-batch still reports bit-identically to the fault-free
//! run. The loopback and resilience test suites assert exactly that,
//! and everything here is plain `std::net` (no async runtime), keeping
//! the fully-offline vendored build intact.
//!
//! [`CampaignBackend`]: avf_inject::CampaignBackend
//! [`CampaignReport`]: avf_inject::CampaignReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod eval;
pub mod fleet;
pub mod frame;
pub mod metrics;
pub mod protocol;
mod remote;
mod server;

pub use auth::{AuthKey, ConnectionAuth};
pub use cache::{CacheStats, EvalCache, StoreCache};
pub use eval::{
    evaluate_genome, genome_key, target_params, EvalBatch, EvalContext, EvalScore, EvalVenue,
    RemoteEvaluator, VenueEvaluator,
};
pub use fleet::Fleet;
pub use metrics::{spawn_metrics, ServeStats};
pub use remote::RemoteBackend;
pub use server::{serve, spawn_local, ServeOptions};
