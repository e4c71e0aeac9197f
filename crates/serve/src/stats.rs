//! Serving counters, latency distributions, and model-drift tracking.
//!
//! Scalar totals are atomics so any number of submitter threads can
//! bump them through `&self`; latency-shaped quantities (queue wait,
//! batch size, deadline slack, modelled-vs-wall drift) are
//! `clgemm-trace` histograms registered in the server's [`Registry`],
//! so one registry snapshot exports them next to the routine, tuner,
//! and VM metrics in both Prometheus text and JSON form.
//!
//! # Snapshot coherence
//!
//! [`ServerStats::snapshot`] must not observe a batch "half recorded"
//! (e.g. `batches` bumped but its device row still missing). To that
//! end every *batch-scoped* total — `completed`, `batches`,
//! `batched_requests`, `max_batch`, `tile_substitutions` — is updated
//! inside [`ServerStats::record_batch`] **while holding the per-device
//! lock**, and `snapshot` reads everything under one acquisition of
//! the same lock. The lock, not the per-field `Ordering::Relaxed`,
//! provides the cross-field happens-before: within a critical section
//! each atomic is just a convenient interior-mutable integer.
//!
//! The remaining counters (`enqueued`, `rejected_queue_full`) are
//! bumped by submitter threads that never take the lock; each is an
//! independent monotone total through which no other memory is
//! published, so `Relaxed` is sufficient for them individually and a
//! snapshot may run slightly ahead/behind the submit stream — the only
//! permitted incoherence, and it is called out on the fields below.

use crate::cache::Provenance;
use clgemm_trace::{Counter, HistSummary, Histogram, Registry};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Live counters; read a coherent copy via [`ServerStats::snapshot`].
#[derive(Debug)]
pub struct ServerStats {
    /// Accepted submissions. Submit-side: bumped outside the per-device
    /// lock (Relaxed, monotone, independent), so it may lead the
    /// batch-scoped totals in a snapshot taken mid-drain.
    pub enqueued: AtomicU64,
    /// Requests served to completion. Batch-scoped: only written inside
    /// [`ServerStats::record_batch`] under the per-device lock, so a
    /// snapshot always sees it equal to the per-device `requests` sum.
    pub completed: AtomicU64,
    /// Grouped launches issued. Batch-scoped (see `completed`).
    pub batches: AtomicU64,
    /// Requests that shared a batch with at least one other request.
    /// Batch-scoped (see `completed`).
    pub batched_requests: AtomicU64,
    /// Largest batch issued so far. Batch-scoped (see `completed`).
    pub max_batch: AtomicU64,
    /// Submissions bounced by queue backpressure. Submit-side: see
    /// `enqueued`.
    pub rejected_queue_full: AtomicU64,
    /// Requests shed at submit because admission control projected
    /// their deadline already unmeetable. Submit-side: see `enqueued`.
    pub rejected_deadline_admit: AtomicU64,
    /// Requests shed inside batch execution — the last-resort guard for
    /// deadlines that looked meetable at admission but were overtaken
    /// by the batch they landed in. Written only by the drain thread
    /// (Relaxed, monotone).
    pub rejected_deadline_late: AtomicU64,
    /// Low-priority requests shed by the high-watermark load-shedding
    /// policy (queue fill over the watermark sheds bulk work first).
    /// Submit-side: see `enqueued`.
    pub shed_low_priority: AtomicU64,
    /// Requests answered from a coalesced execution: in-flight
    /// duplicates fanned out from one representative, plus result-cache
    /// hits. Batch-scoped (see `completed`) — recorded under the
    /// per-device lock via [`ServerStats::record_coalesced`].
    pub coalesce_hits: AtomicU64,
    /// Batches moved off their greedily chosen device by work stealing.
    /// Written only by the drain thread (Relaxed, monotone).
    pub steals: AtomicU64,
    /// Requests whose host register tile differed from the tuned
    /// blocking (the substitutions the old silent clamp hid).
    /// Batch-scoped (see `completed`).
    pub tile_substitutions: AtomicU64,
    /// Strided-batched calls served through the bypass API. Written
    /// only inside [`ServerStats::record_batched`] under the per-device
    /// lock (same coherence contract as the batch-scoped totals).
    pub batched_calls: AtomicU64,
    /// Total matrix entries across those strided-batched calls.
    pub batched_entries: AtomicU64,
    /// Shape buckets cold-started from the analytical predictor with
    /// zero search. Written only by the drain thread (Relaxed,
    /// monotone).
    pub predict_cold_starts: AtomicU64,
    /// Tuning-database lookups that served a launchable entry.
    /// Drain-thread only (see `predict_cold_starts`).
    pub db_hits: AtomicU64,
    /// Tuning-database lookups that found nothing for the key.
    pub db_misses: AtomicU64,
    /// Tuning-database entries found but unlaunchable for the bucket
    /// (e.g. written by a different calibration and since gone bad).
    pub db_stale: AtomicU64,
    /// Background refinements absorbed into the cache so far. Written
    /// only by the drain thread when it absorbs refiner results.
    pub refines: AtomicU64,
    per_device: Mutex<BTreeMap<String, DeviceStat>>,
    per_tenant: Mutex<BTreeMap<String, TenantStat>>,
    registry: Registry,
    queue_wait: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    batched_size: Arc<Histogram>,
    deadline_slack: Arc<Histogram>,
    deadline_lateness: Arc<Histogram>,
    drift_abs: Arc<Histogram>,
    refine_seconds: Arc<Histogram>,
    cold_start_total: Arc<Counter>,
    db_hit_total: Arc<Counter>,
    db_miss_total: Arc<Counter>,
    db_stale_total: Arc<Counter>,
    coalesce_hit_total: Arc<Counter>,
}

/// Per-tenant serving totals (fair-queueing accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStat {
    /// Requests this tenant got admitted past admission control.
    pub admitted: u64,
    /// Requests shed at submit (any reason: unmeetable deadline,
    /// low-priority watermark, queue or lane full).
    pub shed: u64,
    /// Admitted requests answered (executed, coalesced, or cached).
    pub completed: u64,
    /// Sum of queue-wait seconds over this tenant's completed requests
    /// (divide by `completed` for the mean).
    pub wait_seconds_sum: f64,
}

/// Per-device serving totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStat {
    /// Requests served on this device.
    pub requests: u64,
    /// Grouped launches placed on this device.
    pub batches: u64,
    /// Modelled busy seconds accumulated on this device's queue — what
    /// the scheduler believed the work would cost.
    pub busy_seconds: f64,
    /// Measured wall seconds the host actually spent executing this
    /// device's batches.
    pub wall_seconds: f64,
    /// Requests in this device's batches that executed with a register
    /// tile substituted for the tuned blocking.
    pub tile_substitutions: u64,
    /// Matrix entries served on this device through strided-batched
    /// calls (bypass API; not counted in `requests`).
    pub batched_entries: u64,
    /// Modelled seconds of strided-batched work on this device.
    pub batched_busy_seconds: f64,
    /// Measured wall seconds of strided-batched work on this device.
    pub batched_wall_seconds: f64,
}

impl DeviceStat {
    /// Modelled minus measured seconds: positive when the cost model
    /// overestimates this device, negative when real execution is
    /// slower than the model believes (and the scheduler is silently
    /// under-provisioning it).
    #[must_use]
    pub fn drift(&self) -> f64 {
        self.busy_seconds - self.wall_seconds
    }

    /// Modelled minus measured seconds for strided-batched calls —
    /// tracked separately from [`DeviceStat::drift`] because the
    /// batched model amortises launch overhead across entries and its
    /// skew would otherwise hide inside the per-request drift.
    #[must_use]
    pub fn batched_drift(&self) -> f64 {
        self.batched_busy_seconds - self.batched_wall_seconds
    }
}

impl ServerStats {
    /// Stats recording into `registry` (the server passes
    /// [`Registry::global`] unless configured otherwise; tests pass
    /// [`Registry::new`] for isolation).
    #[must_use]
    pub fn new(registry: Registry) -> ServerStats {
        let queue_wait = registry.histogram("serve_queue_wait_seconds", 1e-9);
        let batch_size = registry.histogram("serve_batch_size_requests", 1.0);
        let batched_size = registry.histogram("serve_batched_entries", 1.0);
        let deadline_slack = registry.histogram("serve_deadline_slack_seconds", 1e-9);
        let deadline_lateness = registry.histogram("serve_deadline_lateness_seconds", 1e-9);
        let drift_abs = registry.histogram("serve_model_drift_abs_seconds", 1e-9);
        let refine_seconds = registry.histogram("tuner_background_refine_seconds", 1e-9);
        let cold_start_total = registry.counter("predict_cold_start_total");
        let db_hit_total = registry.counter("tuning_db_hit_total");
        let db_miss_total = registry.counter("tuning_db_miss_total");
        let db_stale_total = registry.counter("tuning_db_stale_total");
        let coalesce_hit_total = registry.counter("serve_coalesce_hits_total");
        ServerStats {
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline_admit: AtomicU64::new(0),
            rejected_deadline_late: AtomicU64::new(0),
            shed_low_priority: AtomicU64::new(0),
            coalesce_hits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            tile_substitutions: AtomicU64::new(0),
            batched_calls: AtomicU64::new(0),
            batched_entries: AtomicU64::new(0),
            predict_cold_starts: AtomicU64::new(0),
            db_hits: AtomicU64::new(0),
            db_misses: AtomicU64::new(0),
            db_stale: AtomicU64::new(0),
            refines: AtomicU64::new(0),
            per_device: Mutex::new(BTreeMap::new()),
            per_tenant: Mutex::new(BTreeMap::new()),
            registry,
            queue_wait,
            batch_size,
            batched_size,
            deadline_slack,
            deadline_lateness,
            drift_abs,
            refine_seconds,
            cold_start_total,
            db_hit_total,
            db_miss_total,
            db_stale_total,
            coalesce_hit_total,
        }
    }

    /// Record a shape bucket cold-started from the predictor with no
    /// synchronous search.
    pub fn note_predict_cold_start(&self) {
        self.predict_cold_starts.fetch_add(1, Ordering::Relaxed);
        self.cold_start_total.inc();
    }

    /// Record a tuning-database lookup that served a launchable entry.
    pub fn note_db_hit(&self) {
        self.db_hits.fetch_add(1, Ordering::Relaxed);
        self.db_hit_total.inc();
    }

    /// Record a tuning-database lookup that found nothing.
    pub fn note_db_miss(&self) {
        self.db_misses.fetch_add(1, Ordering::Relaxed);
        self.db_miss_total.inc();
    }

    /// Record a tuning-database entry rejected as unlaunchable.
    pub fn note_db_stale(&self) {
        self.db_stale.fetch_add(1, Ordering::Relaxed);
        self.db_stale_total.inc();
    }

    /// Record one absorbed background refinement: how long the search
    /// took, and how close the predictor's forecast came to the refined
    /// result (exported per device as the
    /// `predict_vs_tuned_gflops_ratio` gauge — a ratio near 1.0 means
    /// cold starts were served near-optimally).
    pub fn note_refine(
        &self,
        device: &str,
        seconds: f64,
        predicted_gflops: f64,
        tuned_gflops: f64,
    ) {
        self.refines.fetch_add(1, Ordering::Relaxed);
        self.refine_seconds.observe_value(seconds);
        if tuned_gflops > 0.0 {
            self.registry
                .gauge_labeled("predict_vs_tuned_gflops_ratio", &[("device", device)])
                .set(predicted_gflops / tuned_gflops);
        }
    }

    /// The registry this server's histograms and gauges live in.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Record how long a request sat queued before its batch executed.
    pub fn observe_queue_wait(&self, seconds: f64) {
        self.queue_wait.observe_value(seconds);
    }

    /// Record a deadline'd request's signed slack (deadline minus
    /// projected completion). Positive slack lands in
    /// `serve_deadline_slack_seconds`; negative slack lands — as its
    /// magnitude, i.e. *how late* the request would be — in
    /// `serve_deadline_lateness_seconds`. The old behaviour clamped
    /// negatives to 0 in the slack histogram, which erased exactly the
    /// signal admission control sheds on.
    pub fn observe_deadline_slack(&self, seconds: f64) {
        if seconds >= 0.0 {
            self.deadline_slack.observe_value(seconds);
        } else {
            self.deadline_lateness.observe_value(-seconds);
        }
    }

    /// Record requests answered from a coalesced execution on `device`
    /// (in-flight duplicates fanned out, or result-cache hits credited
    /// to the device that served the original). Updates `completed` and
    /// the per-device row under the per-device lock, preserving the
    /// snapshot invariant `completed == Σ per-device requests`.
    pub fn record_coalesced(&self, device: &str, requests: u64) {
        if requests == 0 {
            return;
        }
        let mut map = self.per_device.lock().expect("stats poisoned");
        self.completed.fetch_add(requests, Ordering::Relaxed);
        self.coalesce_hits.fetch_add(requests, Ordering::Relaxed);
        map.entry(device.to_string()).or_default().requests += requests;
        drop(map);
        self.coalesce_hit_total.add(requests);
    }

    /// Record a request admitted past admission control for `tenant`.
    pub fn note_admitted(&self, tenant: &str) {
        self.per_tenant
            .lock()
            .expect("stats poisoned")
            .entry(tenant.to_string())
            .or_default()
            .admitted += 1;
        self.registry
            .counter_labeled("serve_admitted_total", &[("tenant", tenant)])
            .inc();
    }

    /// Record a request shed at submit for `tenant`, tagged with the
    /// shed `reason` (`deadline`, `low_priority`, `queue_full`).
    pub fn note_shed(&self, tenant: &str, reason: &str) {
        self.per_tenant
            .lock()
            .expect("stats poisoned")
            .entry(tenant.to_string())
            .or_default()
            .shed += 1;
        self.registry
            .counter_labeled("serve_shed_total", &[("reason", reason)])
            .inc();
    }

    /// Record one of `tenant`'s admitted requests answered after
    /// sitting `wait_seconds` in the queue.
    pub fn note_tenant_completed(&self, tenant: &str, wait_seconds: f64) {
        let mut map = self.per_tenant.lock().expect("stats poisoned");
        let entry = map.entry(tenant.to_string()).or_default();
        entry.completed += 1;
        entry.wait_seconds_sum += wait_seconds.max(0.0);
    }

    /// Record one grouped launch on a device: `requests` completed
    /// members, `busy_seconds` of modelled device time, `wall_seconds`
    /// of measured host execution, and the number of members whose host
    /// register tile differed from the tuned blocking.
    ///
    /// Every batch-scoped atomic is bumped while the per-device lock is
    /// held — see the module docs for the coherence contract with
    /// [`ServerStats::snapshot`].
    pub fn record_batch(
        &self,
        device: &str,
        requests: u64,
        busy_seconds: f64,
        wall_seconds: f64,
        tile_substitutions: u64,
    ) {
        let mut map = self.per_device.lock().expect("stats poisoned");
        // Relaxed suffices inside the critical section: the lock
        // orders these writes against any snapshot.
        self.completed.fetch_add(requests, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if requests > 1 {
            self.batched_requests.fetch_add(requests, Ordering::Relaxed);
        }
        self.max_batch.fetch_max(requests, Ordering::Relaxed);
        self.tile_substitutions
            .fetch_add(tile_substitutions, Ordering::Relaxed);
        let entry = map.entry(device.to_string()).or_default();
        entry.requests += requests;
        entry.batches += 1;
        entry.busy_seconds += busy_seconds;
        entry.wall_seconds += wall_seconds;
        entry.tile_substitutions += tile_substitutions;
        self.batch_size.observe(requests);
        self.drift_abs
            .observe_value((busy_seconds - wall_seconds).abs());
        // Cumulative signed drift per device, exported as a gauge so
        // model skew is visible fleet-wide (satellite: the scheduler
        // places by `estimate_seconds`; if this diverges the fleet is
        // silently mis-balanced).
        self.registry
            .gauge_labeled("serve_model_drift_seconds", &[("device", device)])
            .set(entry.drift());
    }

    /// Record one strided-batched call served on a device: `entries`
    /// matrices in the batch, `busy_seconds` of modelled device time,
    /// `wall_seconds` of measured host execution. Updates the
    /// per-device `serve_batched_model_drift_seconds` gauge with the
    /// cumulative signed drift of the batched performance model — the
    /// scheduler places whole slabs by `predict_batch`/
    /// `predict_batch_direct`, so skew here silently mis-balances the
    /// fleet exactly as per-request drift would.
    pub fn record_batched(&self, device: &str, entries: u64, busy_seconds: f64, wall_seconds: f64) {
        let mut map = self.per_device.lock().expect("stats poisoned");
        self.batched_calls.fetch_add(1, Ordering::Relaxed);
        self.batched_entries.fetch_add(entries, Ordering::Relaxed);
        let entry = map.entry(device.to_string()).or_default();
        entry.batched_entries += entries;
        entry.batched_busy_seconds += busy_seconds;
        entry.batched_wall_seconds += wall_seconds;
        self.batched_size.observe(entries);
        self.registry
            .gauge_labeled("serve_batched_model_drift_seconds", &[("device", device)])
            .set(entry.batched_drift());
    }

    /// A coherent copy of every counter.
    ///
    /// The per-device lock is taken first and held across all reads:
    /// [`ServerStats::record_batch`] writes the batch-scoped totals
    /// under the same lock, so `completed`, `batches`,
    /// `batched_requests`, `max_batch`, `tile_substitutions`, and the
    /// per-device rows are mutually consistent in the returned value
    /// (in particular `completed` equals the per-device `requests`
    /// sum). Submit-side counters may run ahead, as documented on the
    /// fields. The kernel-cache counters stay zero here: the cache
    /// belongs to the server, and `GemmServer::stats` fills them in.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_device = self.per_device.lock().expect("stats poisoned");
        let per_tenant = self.per_tenant.lock().expect("stats poisoned").clone();
        StatsSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline_admit: self.rejected_deadline_admit.load(Ordering::Relaxed),
            rejected_deadline_late: self.rejected_deadline_late.load(Ordering::Relaxed),
            shed_low_priority: self.shed_low_priority.load(Ordering::Relaxed),
            coalesce_hits: self.coalesce_hits.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            tile_substitutions: self.tile_substitutions.load(Ordering::Relaxed),
            batched_calls: self.batched_calls.load(Ordering::Relaxed),
            batched_entries: self.batched_entries.load(Ordering::Relaxed),
            predict_cold_starts: self.predict_cold_starts.load(Ordering::Relaxed),
            db_hits: self.db_hits.load(Ordering::Relaxed),
            db_misses: self.db_misses.load(Ordering::Relaxed),
            db_stale: self.db_stale.load(Ordering::Relaxed),
            refines: self.refines.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.summary(),
            batch_size: self.batch_size.summary(),
            batched_size: self.batched_size.summary(),
            deadline_slack: self.deadline_slack.summary(),
            deadline_lateness: self.deadline_lateness.summary(),
            model_drift_abs: self.drift_abs.summary(),
            per_device: per_device.clone(),
            per_tenant,
            ..StatsSnapshot::default()
        }
    }
}

impl Default for ServerStats {
    /// An isolated instance (fresh registry) — what unit tests want.
    /// `GemmServer` wires the process-global registry explicitly.
    fn default() -> ServerStats {
        ServerStats::new(Registry::new())
    }
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    pub enqueued: u64,
    pub completed: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub max_batch: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub rejected_queue_full: u64,
    /// Shed at submit: projected completion already missed the deadline.
    pub rejected_deadline_admit: u64,
    /// Shed inside batch execution: the last-resort deadline guard.
    pub rejected_deadline_late: u64,
    /// Low-priority requests shed by the high-watermark policy.
    pub shed_low_priority: u64,
    /// Requests answered from a coalesced execution (in-flight fan-out
    /// or result-cache hit) instead of their own device launch.
    pub coalesce_hits: u64,
    pub steals: u64,
    pub tile_substitutions: u64,
    /// Strided-batched calls served through the bypass API.
    pub batched_calls: u64,
    /// Total matrix entries across those strided-batched calls.
    pub batched_entries: u64,
    /// Shape buckets cold-started from the analytical predictor.
    pub predict_cold_starts: u64,
    /// Tuning-database lookups that served a launchable entry.
    pub db_hits: u64,
    /// Tuning-database lookups that found nothing.
    pub db_misses: u64,
    /// Tuning-database entries rejected as unlaunchable.
    pub db_stale: u64,
    /// Background refinements absorbed into the cache.
    pub refines: u64,
    /// Cache hits by entry provenance ([`Provenance::index`] order:
    /// predicted, refined, persisted).
    pub hits_by_provenance: [u64; 3],
    /// Seconds requests sat queued before their batch executed.
    pub queue_wait: HistSummary,
    /// Completed requests per grouped launch.
    pub batch_size: HistSummary,
    /// Entries per strided-batched call.
    pub batched_size: HistSummary,
    /// Positive slack (deadline − projected completion) of deadline'd
    /// requests that looked meetable when projected.
    pub deadline_slack: HistSummary,
    /// Magnitude of *negative* slack — how late shed requests would
    /// have been. The admission policy's shedding signal.
    pub deadline_lateness: HistSummary,
    /// |modelled busy − measured wall| seconds per batch.
    pub model_drift_abs: HistSummary,
    pub per_device: BTreeMap<String, DeviceStat>,
    /// Per-tenant admitted/shed/completed/wait totals.
    pub per_tenant: BTreeMap<String, TenantStat>,
}

impl StatsSnapshot {
    /// Devices that served at least one request.
    #[must_use]
    pub fn devices_used(&self) -> usize {
        self.per_device.values().filter(|d| d.requests > 0).count()
    }

    /// Cache hits on entries of one [`Provenance`].
    #[must_use]
    pub fn hits_with(&self, provenance: Provenance) -> u64 {
        self.hits_by_provenance[provenance.index()]
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} enqueued, {} completed",
            self.enqueued, self.completed
        )?;
        writeln!(
            f,
            "batches:  {} issued, {} requests coalesced, largest {}",
            self.batches, self.batched_requests, self.max_batch
        )?;
        writeln!(
            f,
            "cache:    {} hits, {} misses, {} evictions",
            self.cache_hits, self.cache_misses, self.cache_evictions
        )?;
        writeln!(
            f,
            "rejected: {} queue-full, {} deadline-at-admit, {} deadline-late, {} low-priority; steals: {}",
            self.rejected_queue_full,
            self.rejected_deadline_admit,
            self.rejected_deadline_late,
            self.shed_low_priority,
            self.steals
        )?;
        if self.coalesce_hits > 0 {
            writeln!(
                f,
                "coalesce: {} requests shared an execution",
                self.coalesce_hits
            )?;
        }
        writeln!(f, "tiles:    {} substituted", self.tile_substitutions)?;
        if self.predict_cold_starts + self.db_hits + self.db_misses + self.db_stale + self.refines
            > 0
        {
            writeln!(
                f,
                "predict:  {} cold starts, {} refined; db: {} hits, {} misses, {} stale",
                self.predict_cold_starts, self.refines, self.db_hits, self.db_misses, self.db_stale
            )?;
            writeln!(
                f,
                "hits by provenance: {} predicted, {} refined, {} persisted",
                self.hits_with(Provenance::Predicted),
                self.hits_with(Provenance::Refined),
                self.hits_with(Provenance::Persisted)
            )?;
        }
        if self.batched_calls > 0 {
            writeln!(
                f,
                "strided:  {} batched calls, {} entries, largest {:.0}",
                self.batched_calls, self.batched_entries, self.batched_size.max
            )?;
        }
        let ms = |s: f64| s * 1e3;
        writeln!(
            f,
            "queue-wait ms: p50 {:.3} p95 {:.3} p99 {:.3} max {:.3} (n={})",
            ms(self.queue_wait.p50),
            ms(self.queue_wait.p95),
            ms(self.queue_wait.p99),
            ms(self.queue_wait.max),
            self.queue_wait.count
        )?;
        writeln!(
            f,
            "batch-size:    p50 {:.1} p95 {:.1} max {:.0}",
            self.batch_size.p50, self.batch_size.p95, self.batch_size.max
        )?;
        if self.deadline_slack.count > 0 {
            writeln!(
                f,
                "deadline-slack ms: p50 {:.3} p99 {:.3} max {:.3} (n={})",
                ms(self.deadline_slack.p50),
                ms(self.deadline_slack.p99),
                ms(self.deadline_slack.max),
                self.deadline_slack.count
            )?;
        }
        if self.deadline_lateness.count > 0 {
            writeln!(
                f,
                "deadline-lateness ms: p50 {:.3} p99 {:.3} max {:.3} (n={})",
                ms(self.deadline_lateness.p50),
                ms(self.deadline_lateness.p99),
                ms(self.deadline_lateness.max),
                self.deadline_lateness.count
            )?;
        }
        for (tenant, t) in &self.per_tenant {
            writeln!(
                f,
                "tenant {tenant}: {} admitted, {} shed, {} completed, mean wait {:.3} ms",
                t.admitted,
                t.shed,
                t.completed,
                if t.completed > 0 {
                    t.wait_seconds_sum / t.completed as f64 * 1e3
                } else {
                    0.0
                }
            )?;
        }
        for (name, d) in &self.per_device {
            writeln!(
                f,
                "device {name}: {} requests in {} batches, busy {:.3} ms, wall {:.3} ms, drift {:+.3} ms",
                d.requests,
                d.batches,
                d.busy_seconds * 1e3,
                d.wall_seconds * 1e3,
                d.drift() * 1e3
            )?;
            if d.batched_entries > 0 {
                writeln!(
                    f,
                    "device {name}: {} strided entries, batched drift {:+.3} ms",
                    d.batched_entries,
                    d.batched_drift() * 1e3
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_aggregates_per_device() {
        let stats = ServerStats::default();
        stats.record_batch("Tahiti", 3, 0.5, 0.4, 2);
        stats.record_batch("Tahiti", 1, 0.25, 0.3, 0);
        stats.record_batch("Fermi", 2, 0.1, 0.1, 1);
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(
            snap.batched_requests, 5,
            "singleton batches are not 'batched'"
        );
        assert_eq!(snap.max_batch, 3);
        assert_eq!(snap.devices_used(), 2);
        assert_eq!(snap.tile_substitutions, 3);
        let tahiti = &snap.per_device["Tahiti"];
        assert_eq!((tahiti.requests, tahiti.batches), (4, 2));
        assert_eq!(tahiti.tile_substitutions, 2);
        assert!((tahiti.busy_seconds - 0.75).abs() < 1e-12);
        assert!((tahiti.wall_seconds - 0.7).abs() < 1e-12);
        assert!((tahiti.drift() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn completed_stays_consistent_with_per_device_totals() {
        let stats = ServerStats::default();
        stats.record_batch("Tahiti", 3, 0.5, 0.5, 0);
        stats.record_batch("Fermi", 2, 0.1, 0.1, 0);
        let snap = stats.snapshot();
        let per_device: u64 = snap.per_device.values().map(|d| d.requests).sum();
        assert_eq!(
            snap.completed, per_device,
            "record_batch updates both under one lock"
        );
    }

    #[test]
    fn histograms_fold_into_the_snapshot() {
        let stats = ServerStats::default();
        stats.observe_queue_wait(1e-3);
        stats.observe_queue_wait(2e-3);
        stats.observe_deadline_slack(5e-3);
        stats.observe_deadline_slack(-1.0); // shed: recorded as lateness
        stats.record_batch("Tahiti", 4, 0.5, 0.4, 0);
        let snap = stats.snapshot();
        assert_eq!(snap.queue_wait.count, 2);
        assert!((snap.queue_wait.max - 2e-3).abs() < 1e-9);
        assert_eq!(
            snap.deadline_slack.count, 1,
            "negative slack must not pollute the positive histogram"
        );
        assert!((snap.deadline_slack.max - 5e-3).abs() < 1e-9);
        assert_eq!(snap.batch_size.count, 1);
        assert_eq!(snap.batch_size.max, 4.0);
        assert_eq!(snap.model_drift_abs.count, 1);
        assert!((snap.model_drift_abs.max - 0.1).abs() < 1e-6);
    }

    #[test]
    fn negative_slack_lands_in_the_lateness_histogram_with_magnitude() {
        // The old clamp recorded shed requests as 0 slack, erasing how
        // late they were — the signal admission control sheds on.
        let stats = ServerStats::default();
        stats.observe_deadline_slack(-0.25);
        stats.observe_deadline_slack(-1.5);
        stats.observe_deadline_slack(3e-3);
        let snap = stats.snapshot();
        assert_eq!(snap.deadline_lateness.count, 2);
        assert!(
            (snap.deadline_lateness.max - 1.5).abs() < 0.1,
            "lateness keeps the magnitude, got {}",
            snap.deadline_lateness.max
        );
        assert_eq!(snap.deadline_slack.count, 1);
        let reg = stats.registry().snapshot();
        let hist = reg
            .hist("serve_deadline_lateness_seconds")
            .expect("lateness histogram registered");
        assert_eq!(hist.count, 2);
        let text = snap.to_string();
        assert!(text.contains("deadline-lateness ms"));
    }

    #[test]
    fn coalesced_completions_keep_the_per_device_invariant() {
        let stats = ServerStats::default();
        stats.record_batch("Tahiti", 2, 0.5, 0.5, 0);
        stats.record_coalesced("Tahiti", 3);
        stats.record_coalesced("Tahiti", 0); // no-op
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.coalesce_hits, 3);
        let per_device: u64 = snap.per_device.values().map(|d| d.requests).sum();
        assert_eq!(snap.completed, per_device);
        let reg = stats.registry().snapshot();
        assert_eq!(reg.counter("serve_coalesce_hits_total"), Some(3));
    }

    #[test]
    fn tenant_notes_aggregate_and_export_labeled_counters() {
        let stats = ServerStats::default();
        stats.note_admitted("alpha");
        stats.note_admitted("alpha");
        stats.note_admitted("beta");
        stats.note_shed("beta", "deadline");
        stats.note_shed("beta", "queue_full");
        stats.note_tenant_completed("alpha", 2e-3);
        stats.note_tenant_completed("alpha", 4e-3);
        let snap = stats.snapshot();
        let alpha = &snap.per_tenant["alpha"];
        assert_eq!((alpha.admitted, alpha.shed, alpha.completed), (2, 0, 2));
        assert!((alpha.wait_seconds_sum - 6e-3).abs() < 1e-12);
        let beta = &snap.per_tenant["beta"];
        assert_eq!((beta.admitted, beta.shed), (1, 2));
        let reg = stats.registry().snapshot();
        assert_eq!(
            reg.counter("serve_admitted_total{tenant=\"alpha\"}"),
            Some(2)
        );
        assert_eq!(
            reg.counter("serve_shed_total{reason=\"deadline\"}"),
            Some(1)
        );
        assert_eq!(
            reg.counter("serve_shed_total{reason=\"queue_full\"}"),
            Some(1)
        );
        let text = snap.to_string();
        assert!(text.contains("tenant alpha: 2 admitted"));
    }

    #[test]
    fn drift_gauge_is_exported_per_device() {
        let stats = ServerStats::default();
        stats.record_batch("Tahiti", 1, 0.5, 0.2, 0);
        stats.record_batch("Tahiti", 1, 0.5, 0.2, 0);
        let snap = stats.registry().snapshot();
        let drift = snap
            .gauge("serve_model_drift_seconds{device=\"Tahiti\"}")
            .expect("drift gauge registered");
        assert!((drift - 0.6).abs() < 1e-12, "cumulative signed drift");
        // And the registry carries the serving histograms too.
        assert!(snap.hist("serve_batch_size_requests").is_some());
        let text = snap.to_prometheus();
        assert!(text.contains("serve_model_drift_seconds{device=\"Tahiti\"} 0.6"));
    }

    #[test]
    fn batched_calls_record_their_own_drift_gauge() {
        let stats = ServerStats::default();
        stats.record_batched("Tahiti", 64, 0.4, 0.1);
        stats.record_batched("Tahiti", 8, 0.2, 0.1);
        let snap = stats.snapshot();
        assert_eq!(snap.batched_calls, 2);
        assert_eq!(snap.batched_entries, 72);
        assert_eq!(snap.batched_size.count, 2);
        assert_eq!(snap.batched_size.max, 64.0);
        let d = &snap.per_device["Tahiti"];
        assert_eq!(d.batched_entries, 72);
        assert!((d.batched_drift() - 0.4).abs() < 1e-12, "cumulative drift");
        assert_eq!(d.requests, 0, "bypass calls are not queued requests");
        let reg = stats.registry().snapshot();
        let drift = reg
            .gauge("serve_batched_model_drift_seconds{device=\"Tahiti\"}")
            .expect("batched drift gauge registered");
        assert!((drift - 0.4).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("strided:  2 batched calls, 72 entries"));
        assert!(text.contains("batched drift"));
    }

    #[test]
    fn predictor_notes_feed_counters_histogram_and_gauge() {
        let stats = ServerStats::default();
        stats.note_predict_cold_start();
        stats.note_db_miss();
        stats.note_db_stale();
        stats.note_db_hit();
        stats.note_db_hit();
        stats.note_refine("Tahiti", 0.25, 90.0, 100.0);
        let snap = stats.snapshot();
        assert_eq!(snap.predict_cold_starts, 1);
        assert_eq!((snap.db_hits, snap.db_misses, snap.db_stale), (2, 1, 1));
        assert_eq!(snap.refines, 1);
        let reg = stats.registry().snapshot();
        assert_eq!(reg.counter("predict_cold_start_total"), Some(1));
        assert_eq!(reg.counter("tuning_db_hit_total"), Some(2));
        assert_eq!(reg.counter("tuning_db_miss_total"), Some(1));
        assert_eq!(reg.counter("tuning_db_stale_total"), Some(1));
        let hist = reg
            .hist("tuner_background_refine_seconds")
            .expect("refine histogram registered");
        assert_eq!(hist.count, 1);
        assert!((hist.max - 0.25).abs() < 1e-9);
        let ratio = reg
            .gauge("predict_vs_tuned_gflops_ratio{device=\"Tahiti\"}")
            .expect("ratio gauge set");
        assert!((ratio - 0.9).abs() < 1e-12);
        let text = stats.snapshot().to_string();
        assert!(text.contains("predict:  1 cold starts"));
        assert!(text.contains("hits by provenance"));
    }

    #[test]
    fn snapshot_renders_human_readably() {
        let stats = ServerStats::default();
        stats.enqueued.fetch_add(5, Ordering::Relaxed);
        stats.record_batch("Cayman", 2, 0.001, 0.002, 1);
        stats.observe_queue_wait(1e-3);
        let text = stats.snapshot().to_string();
        assert!(text.contains("5 enqueued"));
        assert!(text.contains("device Cayman: 2 requests"));
        assert!(text.contains("1 substituted"));
        assert!(text.contains("queue-wait ms"));
        assert!(text.contains("drift"));
    }
}
