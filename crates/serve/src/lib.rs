//! # clgemm-serve — a batching, multi-device GEMM serving subsystem
//!
//! The paper tunes one kernel per `(device, precision)` and measures it
//! in isolation. A production BLAS sits behind *callers*: many
//! concurrent GEMM requests of assorted shapes, precisions and
//! transpose types, racing for a handful of devices. This crate layers
//! that serving story over the reproduction's simulated platform:
//!
//! * [`GemmServer`] accepts [`GemmRequest`]s (any of the four GEMM
//!   types, either precision, optional deadline, priority and tenant)
//!   behind *admission control*: completion is projected from a cost
//!   estimate plus the queued backlog, requests whose deadline slack is
//!   already negative are shed at submit, and Low-priority work is shed
//!   once the queue passes a high watermark.
//! * Admitted work lands in a per-tenant weighted-fair queue
//!   ([`FairQueue`]): deficit-round-robin across tenant lanes divides
//!   *work* (flops, not request counts) by configured weight, and
//!   per-lane capacity shares stop one tenant squatting the queue.
//! * Identical concurrent requests are *idempotently coalesced*: a
//!   content-addressed key over shape, type, scalars and input bytes
//!   lets duplicates share one execution, and a bounded LRU
//!   [`ResultCache`] replays recent results across drains.
//! * A shape-bucketed kernel cache ([`KernelCache`]): requests whose
//!   padded shapes fall in the same bucket share one tuned parameter
//!   set, LRU over `(device, precision, bucket)`. A miss resolves
//!   through the on-disk tuning database, then the analytical predictor
//!   (`clgemm::predict`, zero search — a background refiner re-derives
//!   the bucket with a real search and persists it), then an optional
//!   synchronous smoke-tune, then the
//!   [`KernelRepo`](clgemm::repo::KernelRepo), then the paper's Table II
//!   winners; every cached entry carries its [`Provenance`].
//! * A batcher coalesces same-bucket requests into grouped launches on
//!   one virtual command queue, amortising launch overhead exactly the
//!   way real serving stacks amortise kernel dispatch.
//! * A multi-device scheduler places each batch on the least-loaded
//!   [`SimDevice`](clgemm_sim::SimDevice), using the analytic cost
//!   model (`clgemm_device::estimate`) for placement and per-device
//!   virtual clocks for load tracking, with work stealing when queues
//!   go skew.
//! * [`ServerStats`] counts everything observable: enqueued, batched,
//!   cache hits/misses, rejections, per-device busy time. Every drained
//!   request leaves a drain through one exit (executed, shed by the
//!   in-batch deadline guard, replayed from the result cache, or
//!   following its coalesce leader). That exit records its queue wait,
//!   its counters, one terminal trace event and its response, so each
//!   drained request adds exactly one to `completed` or
//!   `rejected_deadline_late`.
//!
//! Execution stays bit-exact: every request is served by the same
//! `TunedGemm` routine layer the rest of the workspace uses, so a
//! served result is bit-for-bit identical to a sequential call with
//! the same kernel parameters — a property the integration suite
//! checks over random interleavings.

pub mod batch;
pub mod batched;
pub mod cache;
pub mod inflight;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod stats;

pub use batch::{coalesce, Batch, BatchKey};
pub use batched::{BatchedPayload, BatchedRequest, BatchedResponse};
pub use cache::{CacheKey, KernelCache, Provenance};
pub use inflight::{content_key, CachedC, CachedResult, ContentKey, ResultCache};
pub use queue::{BoundedQueue, FairQueue};
pub use request::{
    GemmPayload, GemmRequest, GemmResponse, Outcome, Priority, RequestId, ShapeBucket, TenantId,
    DEFAULT_TENANT,
};
pub use scheduler::{Placement, Scheduler};
pub use server::{GemmServer, RejectReason, ServeConfig, Submitter};
pub use stats::{DeviceStat, ServerStats, StatsSnapshot, TenantStat};
