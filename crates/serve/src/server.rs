//! The GEMM server: admission → fair queue → batcher → cache →
//! scheduler → execution, with idempotent coalescing on the side.

use crate::batch::{coalesce, Batch, BatchKey};
use crate::batched::{BatchedPayload, BatchedRequest, BatchedResponse};
use crate::cache::{CacheKey, KernelCache, Provenance};
use crate::inflight::{content_key, CachedC, CachedResult, ContentKey, ResultCache};
use crate::queue::FairQueue;
use crate::request::{
    GemmPayload, GemmRequest, GemmResponse, Outcome, PendingRequest, Priority, RequestId,
    ShapeBucket,
};
use crate::scheduler::Scheduler;
use crate::stats::{ServerStats, StatsSnapshot};
use clgemm::batched::{BatchOptions, BatchRun};
use clgemm::params::{small_test_params, KernelParams};
use clgemm::predict::predict_best;
use clgemm::profile::launch_profile;
use clgemm::repo::KernelRepo;
use clgemm::routine::{GemmOptions, GemmRun, TunedGemm};
use clgemm::tuner::{tune, Measurement, SearchOpts, SearchSpace};
use clgemm::tuning_db::{DbKey, TuningDb, DB_ENV};
use clgemm_blas::layout::round_up;
use clgemm_blas::scalar::Precision;
use clgemm_blas::workspace::{BatchWorkspace, Workspace};
use clgemm_blas::{BatchError, GemmBatch, GemmType};
use clgemm_device::{estimate_seconds, DeviceSpec};
use clgemm_sim::DeviceWorker;
use clgemm_trace::Registry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Tunables of the serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound of the submission queue; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// Largest grouped launch the batcher will form.
    pub max_batch: usize,
    /// Kernel-cache entries across all `(device, precision, bucket)`.
    pub cache_capacity: usize,
    /// On a cache+repo miss, run a (smoke-sized) tuning search for the
    /// device instead of falling straight back to the paper's winners.
    /// Only consulted when the predictor did not already serve the miss
    /// (see [`ServeConfig::predict`]) — the synchronous search is the
    /// legacy cold-start path.
    pub tune_misses: bool,
    /// Serve cache misses from the analytical predictor
    /// (`clgemm::predict`) instantly, with no synchronous search.
    /// Defaults to [`clgemm::predict::predict_enabled`], i.e. on unless
    /// `CLGEMM_PREDICT=off`.
    pub predict: bool,
    /// Refine predictor cold starts with a budgeted background tuning
    /// search on a separate thread; results are absorbed at the start
    /// of later drains (and committed to the tuning database).
    pub background_refine: bool,
    /// Path of the persistent tuning database; `None` falls back to
    /// the `CLGEMM_TUNING_DB` environment variable, and an in-memory
    /// database when that is unset too.
    pub tuning_db: Option<PathBuf>,
    /// Registry the server's histograms and gauges are registered in;
    /// `None` uses the process-global registry (what production wants —
    /// one snapshot covers every layer). Tests pass an isolated
    /// `Registry::new()` so concurrent tests do not observe each
    /// other's traffic.
    pub registry: Option<Registry>,
    /// Queue-fill fraction above which the load-shedding policy starts
    /// rejecting `Priority::Low` submissions outright, preserving the
    /// remaining headroom for interactive work.
    pub high_watermark: f64,
    /// Most requests one [`GemmServer::drain`] pulls off the fair queue
    /// (`usize::MAX` empties it). A finite quota makes each drain a
    /// bounded service round, so overload turns into queueing — and
    /// then shedding — instead of one unboundedly long drain.
    pub drain_quota: usize,
    /// Fair-queueing weights per tenant name; tenants not listed weigh
    /// 1. Weights divide device *work* (request flops), not counts.
    pub tenant_weights: Vec<(String, u32)>,
    /// Coalesce content-identical requests: duplicates in one drain
    /// share a single execution, and repeats of recently served inputs
    /// are answered from the result cache.
    pub coalesce_idempotent: bool,
    /// Entries in the bounded LRU result cache backing coalescing.
    pub result_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 8,
            cache_capacity: 32,
            tune_misses: false,
            predict: clgemm::predict::predict_enabled(),
            background_refine: true,
            tuning_db: std::env::var_os(DB_ENV).map(PathBuf::from),
            registry: None,
            high_watermark: 0.75,
            drain_quota: usize::MAX,
            tenant_weights: Vec::new(),
            coalesce_idempotent: true,
            result_cache_capacity: 32,
        }
    }
}

/// Why a submission bounced.
#[derive(Debug)]
pub enum RejectReason {
    /// Backpressure: the bounded queue (or the tenant's weighted share
    /// of it) is full. The request is handed back (boxed, to keep the
    /// `Err` variant small) so the caller can retry, shed or block.
    QueueFull(Box<GemmRequest>),
    /// Admission control projected completion past the deadline: even
    /// if accepted right now, the request would finish `lateness`
    /// seconds too late given the queued backlog. Shedding at submit
    /// costs the caller nothing but the projection; the old behaviour
    /// queued the request and shed it after it had already waited.
    DeadlineUnmeetable {
        req: Box<GemmRequest>,
        /// Projected seconds past the deadline.
        lateness: f64,
    },
    /// Load shedding: the queue is over the high watermark and the
    /// request is `Priority::Low` — bulk work is shed first so the
    /// remaining headroom serves interactive traffic.
    Overloaded(Box<GemmRequest>),
}

/// Bits of an `f64` in an `AtomicU64` — the submit path is lock-free,
/// so the admission state must be readable without a mutex.
fn f64_load(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

fn f64_store(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

/// CAS-add `delta`, clamping the result at zero (credits may race with
/// charges; the backlog must never go negative).
fn f64_add_clamped(a: &AtomicU64, delta: f64) {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).max(0.0);
        match a.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Admission control state: enough of the serving picture, readable
/// lock-free from any submitter thread, to project a new request's
/// completion time before accepting it.
///
/// The projection is deliberately simple:
/// `earliest-free device clock + (queued backlog + this request) /
/// workers`. It uses a single fleet-wide seconds-per-flop estimate (an
/// EWMA the drain thread feeds from modelled batch costs, seeded from
/// the device cost model so it is never cold) — admission needs the
/// right order of magnitude, not the scheduler's per-device precision;
/// the in-batch guard still catches the residual error.
#[derive(Debug)]
struct Admission {
    /// EWMA of modelled seconds per flop across recent batches (f64
    /// bits).
    secs_per_flop: AtomicU64,
    /// Modelled seconds of admitted-but-not-yet-drained work (f64
    /// bits). Charged at submit, credited when the drain picks the
    /// request up.
    backlog_seconds: AtomicU64,
    /// Earliest `busy_until` across device workers, published by the
    /// drain thread (f64 bits).
    min_busy: AtomicU64,
    n_workers: usize,
}

impl Admission {
    /// EWMA weight of each new seconds-per-flop observation.
    const ALPHA: f64 = 0.3;

    fn new(seed_secs_per_flop: f64, n_workers: usize) -> Admission {
        Admission {
            secs_per_flop: AtomicU64::new(seed_secs_per_flop.to_bits()),
            backlog_seconds: AtomicU64::new(0.0_f64.to_bits()),
            min_busy: AtomicU64::new(0.0_f64.to_bits()),
            n_workers: n_workers.max(1),
        }
    }

    /// Modelled seconds one request of `flops` work will cost.
    fn estimate_seconds(&self, flops: f64) -> f64 {
        flops * f64_load(&self.secs_per_flop)
    }

    /// Virtual time at which a request costing `est` seconds, admitted
    /// now, is projected to complete.
    fn projected_end(&self, est: f64) -> f64 {
        f64_load(&self.min_busy) + (f64_load(&self.backlog_seconds) + est) / self.n_workers as f64
    }

    /// Charge an admitted request's modelled cost to the backlog.
    fn charge(&self, est: f64) {
        f64_add_clamped(&self.backlog_seconds, est);
    }

    /// Credit a drained request's cost back out of the backlog.
    fn credit(&self, est: f64) {
        f64_add_clamped(&self.backlog_seconds, -est);
    }

    /// Fold an observed seconds-per-flop sample into the EWMA (drain
    /// thread only, but raced safely against submit-side reads).
    fn observe_secs_per_flop(&self, sample: f64) {
        if !sample.is_finite() || sample <= 0.0 {
            return;
        }
        let cur = f64_load(&self.secs_per_flop);
        f64_store(&self.secs_per_flop, cur + Self::ALPHA * (sample - cur));
    }

    /// Publish the earliest-free device clock (drain thread only).
    fn publish_min_busy(&self, v: f64) {
        if v.is_finite() {
            f64_store(&self.min_busy, v);
        }
    }
}

#[derive(Debug)]
struct Shared {
    queue: FairQueue,
    stats: ServerStats,
    admission: Admission,
    high_watermark: f64,
    next_id: AtomicU64,
}

impl Shared {
    fn submit(&self, req: GemmRequest) -> Result<RequestId, RejectReason> {
        // --- admission control: shed before queueing, not after -------
        let est = self.admission.estimate_seconds(req.payload.flops(req.ty));
        if let Some(deadline) = req.deadline {
            let slack = deadline - self.admission.projected_end(est);
            // Signed: positive slack → slack histogram, negative →
            // lateness histogram (how late the shed request would be).
            self.stats.observe_deadline_slack(slack);
            if slack < 0.0 {
                self.stats
                    .rejected_deadline_admit
                    .fetch_add(1, Ordering::Relaxed);
                self.stats.note_shed(&req.tenant, "deadline");
                return Err(RejectReason::DeadlineUnmeetable {
                    req: Box::new(req),
                    lateness: -slack,
                });
            }
        }
        // High-watermark policy: past the watermark, bulk work is shed
        // outright so the remaining queue headroom serves urgent work.
        let fill = self.queue.len() as f64 / self.queue.capacity() as f64;
        if req.priority == Priority::Low && fill >= self.high_watermark {
            self.stats.shed_low_priority.fetch_add(1, Ordering::Relaxed);
            self.stats.note_shed(&req.tenant, "low_priority");
            return Err(RejectReason::Overloaded(Box::new(req)));
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = req.tenant.clone();
        let pending = PendingRequest {
            id,
            enqueued_ns: clgemm_trace::now_ns(),
            admit_cost: est,
            req,
        };
        match self.queue.try_push(pending) {
            Ok(()) => {
                self.stats.enqueued.fetch_add(1, Ordering::Relaxed);
                self.admission.charge(est);
                self.stats.note_admitted(&tenant);
                clgemm_trace::event!("serve.request.enqueue", id);
                Ok(id)
            }
            Err(pending) => {
                self.stats
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                self.stats.note_shed(&tenant, "queue_full");
                Err(RejectReason::QueueFull(Box::new(pending.req)))
            }
        }
    }
}

/// One bucket's refinement order: re-derive the predictor-served
/// parameters with a real (budgeted) search.
#[derive(Debug)]
struct RefineJob {
    spec: DeviceSpec,
    precision: Precision,
    bucket: ShapeBucket,
    /// The predictor's forecast, carried through so the absorbed result
    /// can report predicted-vs-tuned accuracy.
    predicted_gflops: f64,
}

/// A finished refinement, ready to be absorbed into cache + database.
#[derive(Debug)]
struct RefineOutcome {
    device: String,
    fingerprint: String,
    precision: Precision,
    bucket: ShapeBucket,
    best: Measurement,
    predicted_gflops: f64,
    seconds: f64,
}

/// The background refiner: one worker thread running budgeted smoke
/// searches (with predictor pruning) off the serving path. Dropping it
/// closes the job channel and joins the worker.
#[derive(Debug)]
struct Refiner {
    jobs: Option<mpsc::Sender<RefineJob>>,
    results: mpsc::Receiver<RefineOutcome>,
    pending: usize,
    cancel: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Refiner {
    fn spawn() -> Refiner {
        let (jobs_tx, jobs_rx) = mpsc::channel::<RefineJob>();
        let (results_tx, results_rx) = mpsc::channel();
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cancelled = Arc::clone(&cancel);
        let handle = thread::spawn(move || {
            for job in jobs_rx {
                // A dropped server only waits for the job in flight;
                // everything still queued is skipped, not searched.
                if cancelled.load(Ordering::Relaxed) {
                    continue;
                }
                let t0 = Instant::now();
                let space = SearchSpace::smoke(&job.spec);
                let opts = SearchOpts {
                    top_k: 4,
                    max_sweep_points: 4,
                    verify_winner: false,
                    predictor_prune: true,
                    ..Default::default()
                };
                let result = tune(&job.spec, job.precision, &space, &opts);
                let sent = results_tx.send(RefineOutcome {
                    device: job.spec.code_name.clone(),
                    fingerprint: job.spec.fingerprint(),
                    precision: job.precision,
                    bucket: job.bucket,
                    best: result.best,
                    predicted_gflops: job.predicted_gflops,
                    seconds: t0.elapsed().as_secs_f64(),
                });
                if sent.is_err() {
                    break; // server gone; no one left to absorb
                }
            }
        });
        Refiner {
            jobs: Some(jobs_tx),
            results: results_rx,
            pending: 0,
            cancel,
            handle: Some(handle),
        }
    }

    fn enqueue(&mut self, job: RefineJob) {
        if let Some(tx) = &self.jobs {
            if tx.send(job).is_ok() {
                self.pending += 1;
            }
        }
    }

    /// Everything finished so far, without blocking.
    fn try_drain(&mut self) -> Vec<RefineOutcome> {
        let mut out = Vec::new();
        while let Ok(o) = self.results.try_recv() {
            self.pending -= 1;
            out.push(o);
        }
        out
    }

    /// Block until every enqueued job has finished.
    fn wait(&mut self) -> Vec<RefineOutcome> {
        let mut out = Vec::new();
        while self.pending > 0 {
            match self.results.recv() {
                Ok(o) => {
                    self.pending -= 1;
                    out.push(o);
                }
                Err(_) => break, // worker died; pending jobs are lost
            }
        }
        out
    }
}

impl Drop for Refiner {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.jobs.take(); // close the channel so the worker's loop ends
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A cloneable submission handle usable from any thread while the
/// server drains on another.
#[derive(Debug, Clone)]
pub struct Submitter {
    shared: Arc<Shared>,
}

impl Submitter {
    /// Enqueue a request; rejected with the request handed back when
    /// the queue is full.
    pub fn submit(&self, req: GemmRequest) -> Result<RequestId, RejectReason> {
        self.shared.submit(req)
    }
}

/// A batching, multi-device GEMM server over simulated devices.
#[derive(Debug)]
pub struct GemmServer {
    cfg: ServeConfig,
    shared: Arc<Shared>,
    scheduler: Scheduler,
    cache: KernelCache,
    repo: KernelRepo,
    /// Persistent tuning results keyed by (device fingerprint, shape
    /// bucket, gemm type, storage type); refinements commit here so a
    /// restarted server warms from disk instead of re-predicting.
    db: TuningDb,
    refiner: Option<Refiner>,
    /// Content-addressed results of recently completed requests — the
    /// cross-drain half of idempotent coalescing.
    result_cache: ResultCache,
    next_batch: u64,
    responses: Vec<GemmResponse>,
    /// One grow-only staging workspace per device worker: repeated
    /// traffic in the same shape bucket performs zero staging
    /// allocations after warm-up (the routine bench gates this).
    workspaces: Vec<Workspace>,
    /// One batched workspace (shared slab + per-thread worker pools)
    /// per device worker, for strided-batched bypass calls — same
    /// zero-steady-state-allocation contract as `workspaces`.
    batch_workspaces: Vec<BatchWorkspace>,
}

impl GemmServer {
    /// A server over one worker per device, with an empty kernel repo.
    ///
    /// # Panics
    /// Panics if `devices` is empty or a capacity is zero.
    #[must_use]
    pub fn new(devices: Vec<DeviceSpec>, cfg: ServeConfig) -> GemmServer {
        GemmServer::with_repo(devices, cfg, KernelRepo::new())
    }

    /// A server whose cache misses consult pre-tuned results in `repo`.
    #[must_use]
    pub fn with_repo(devices: Vec<DeviceSpec>, cfg: ServeConfig, repo: KernelRepo) -> GemmServer {
        let registry = cfg
            .registry
            .clone()
            .unwrap_or_else(|| Registry::global().clone());
        let shared = Arc::new(Shared {
            queue: FairQueue::new(
                cfg.queue_capacity,
                cfg.tenant_weights
                    .iter()
                    .map(|(t, w)| (t.clone(), *w))
                    .collect(),
            ),
            stats: ServerStats::new(registry),
            admission: Admission::new(seed_secs_per_flop(&repo, &devices), devices.len()),
            high_watermark: cfg.high_watermark,
            next_id: AtomicU64::new(0),
        });
        let workspaces = vec![Workspace::new(); devices.len()];
        let batch_workspaces = (0..devices.len()).map(|_| BatchWorkspace::new()).collect();
        // A database the server cannot open (version from the future,
        // unreadable path) must not stop serving: degrade to in-memory.
        let db = match &cfg.tuning_db {
            Some(path) => TuningDb::open(path).unwrap_or_else(|_| TuningDb::in_memory()),
            None => TuningDb::from_env(),
        };
        let refiner = cfg.background_refine.then(Refiner::spawn);
        GemmServer {
            scheduler: Scheduler::new(devices),
            cache: KernelCache::new(cfg.cache_capacity),
            repo,
            db,
            refiner,
            result_cache: ResultCache::new(cfg.result_cache_capacity),
            cfg,
            shared,
            next_batch: 0,
            responses: Vec::new(),
            workspaces,
            batch_workspaces,
        }
    }

    /// Enqueue a request on the calling thread.
    pub fn submit(&self, req: GemmRequest) -> Result<RequestId, RejectReason> {
        self.shared.submit(req)
    }

    /// A handle other threads can submit through.
    #[must_use]
    pub fn submitter(&self) -> Submitter {
        Submitter {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The device workers (virtual clocks, event logs).
    #[must_use]
    pub fn workers(&self) -> &[DeviceWorker] {
        self.scheduler.workers()
    }

    /// The kernel repository backing the cache.
    #[must_use]
    pub fn repo(&self) -> &KernelRepo {
        &self.repo
    }

    /// The persistent tuning database backing cold starts.
    #[must_use]
    pub fn tuning_db(&self) -> &TuningDb {
        &self.db
    }

    /// Absorb finished background refinements without blocking:
    /// upgrade their cache entries to [`Provenance::Refined`], commit
    /// them to the tuning database, and record their stats. Called
    /// automatically at the start of every [`GemmServer::drain`] and
    /// [`GemmServer::run_batched`]. Returns how many were absorbed.
    pub fn absorb_refines(&mut self) -> usize {
        let outcomes = match &mut self.refiner {
            Some(r) => r.try_drain(),
            None => Vec::new(),
        };
        self.apply_refines(outcomes)
    }

    /// Block until every in-flight background refinement has finished,
    /// then absorb them all (tests and orderly shutdown).
    pub fn wait_refines(&mut self) -> usize {
        let outcomes = match &mut self.refiner {
            Some(r) => r.wait(),
            None => Vec::new(),
        };
        self.apply_refines(outcomes)
    }

    fn apply_refines(&mut self, outcomes: Vec<RefineOutcome>) -> usize {
        let n = outcomes.len();
        for o in outcomes {
            let ckey = CacheKey {
                device: o.device.clone(),
                precision: o.precision,
                bucket: o.bucket,
            };
            self.cache.insert(ckey, o.best.params, Provenance::Refined);
            // Commit failures (read-only disk, in-memory db) only cost
            // persistence across restarts, never serving.
            let _ = self.db.commit(
                DbKey {
                    fingerprint: o.fingerprint,
                    m: o.bucket.m,
                    n: o.bucket.n,
                    k: o.bucket.k,
                    gemm: SERVE_GEMM_KEY.to_string(),
                    storage: o.precision.to_string(),
                },
                o.best.clone(),
            );
            self.shared
                .stats
                .note_refine(&o.device, o.seconds, o.predicted_gflops, o.best.gflops);
        }
        n
    }

    /// A coherent copy of the serving counters. The cache counters are
    /// read from the kernel cache itself, which only the drain thread
    /// (the owner of `self`) updates.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let (cache_hits, cache_misses, cache_evictions) = self.cache.counters();
        StatsSnapshot {
            cache_hits,
            cache_misses,
            cache_evictions,
            hits_by_provenance: self.cache.provenance_hits(),
            ..self.shared.stats.snapshot()
        }
    }

    /// Total staging-buffer growth events across all workers. A
    /// steady-state workload (repeated shape buckets) must leave this
    /// constant between drains — the bench smoke gate asserts it.
    #[must_use]
    pub fn workspace_grows(&self) -> u64 {
        self.workspaces.iter().map(Workspace::grows).sum()
    }

    /// Total bytes of staging storage currently held across workers.
    #[must_use]
    pub fn workspace_bytes(&self) -> usize {
        self.workspaces.iter().map(Workspace::held_bytes).sum()
    }

    /// Growth events across the strided-batched workspaces. Repeated
    /// same-shape batched calls must leave this constant (the batched
    /// bench smoke gate asserts it).
    #[must_use]
    pub fn batched_workspace_grows(&self) -> u64 {
        self.batch_workspaces
            .iter()
            .map(BatchWorkspace::grows)
            .sum()
    }

    /// Serve one strided-batched GEMM through the bypass path: cost the
    /// whole slab on every device with the batched performance model,
    /// place it on the least-loaded worker, execute it in one routine
    /// call, and charge the modelled seconds to that worker's virtual
    /// queue. The kernel cache is consulted (and populated) exactly as
    /// for queued requests, so batched and per-request traffic in the
    /// same shape bucket share one tuned parameter set.
    ///
    /// # Errors
    /// Returns the routine layer's [`BatchError`] when the descriptor
    /// and slab lengths disagree; the payload is consumed either way.
    pub fn run_batched(&mut self, req: BatchedRequest) -> Result<BatchedResponse, BatchError> {
        let _span = clgemm_trace::span!("serve.batched.execute");
        self.absorb_refines();
        let desc = req.desc;
        let precision = req.payload.precision();
        let key = BatchKey {
            precision,
            bucket: ShapeBucket::of(desc.m.max(1), desc.n.max(1), desc.k.max(1)),
        };
        let n_workers = self.scheduler.workers().len();
        let row: Vec<f64> = (0..n_workers)
            .map(|w| {
                let spec = self.scheduler.workers()[w].spec();
                batched_cost(spec, &desc, precision, self.resolve_quiet(spec, key))
            })
            .collect();
        let placement = self.scheduler.place(&[row]).pop().expect("one batch");
        let worker = placement.worker;
        let spec = self.scheduler.workers()[worker].spec().clone();
        let params = self.cached_params(&spec, key);
        let tuned = tuned_for(&spec, precision, params);

        let wall_start = Instant::now();
        let mut payload = req.payload;
        let run = execute_batched(
            &tuned,
            &desc,
            &mut payload,
            &mut self.batch_workspaces[worker],
        )?;
        let wall = wall_start.elapsed().as_secs_f64();

        let mut done_at = self.scheduler.workers()[worker].busy_until();
        if run.total > 0.0 {
            let w = self.scheduler.worker_mut(worker);
            w.submit(&format!("strided:{precision}:{desc}"), run.total);
            done_at = w.busy_until();
        }
        self.publish_admission_clock();
        self.shared
            .stats
            .record_batched(&spec.code_name, desc.batch as u64, run.total, wall);
        Ok(BatchedResponse {
            device: spec.code_name.clone(),
            params,
            desc,
            payload,
            run,
            done_at,
        })
    }

    /// Served responses accumulated so far (completed *and* rejected),
    /// in execution order.
    pub fn take_responses(&mut self) -> Vec<GemmResponse> {
        std::mem::take(&mut self.responses)
    }

    /// Process queued requests (up to the configured drain quota) in
    /// weighted-fair order: credit the admission backlog, coalesce
    /// (answer repeats from the result cache, elect one leader per
    /// identical in-flight request), then execute (batch, place and run
    /// the leaders, and fan their results out). Every drained request
    /// leaves through one private exit, `finish`. Returns the number of
    /// requests answered in this drain (executed, coalesced, or cached).
    pub fn drain(&mut self) -> usize {
        let _drain_span = clgemm_trace::span!("serve.drain");
        self.absorb_refines();
        let pending = self.shared.queue.drain_fair(self.cfg.drain_quota);
        if pending.is_empty() {
            return 0;
        }
        // The drained work is no longer queued backlog.
        for p in &pending {
            self.shared.admission.credit(p.admit_cost);
        }
        let (drained, first, ended) = (pending.len(), self.responses.len(), self.ended());
        let (leaders, parked) = self.coalesce_drained(pending);
        if !leaders.is_empty() {
            self.execute_leaders(leaders, parked);
        }
        self.publish_admission_clock();
        let answered = &self.responses[first..];
        debug_assert_eq!(answered.len(), drained, "one response per drained request");
        debug_assert_eq!(
            self.ended() - ended,
            drained as u64,
            "one unit of completed + rejected_deadline_late per drained request"
        );
        answered
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .count()
    }

    /// Drained requests ended so far: `completed` plus
    /// `rejected_deadline_late`.
    fn ended(&self) -> u64 {
        let stats = &self.shared.stats;
        stats.completed.load(Ordering::Relaxed)
            + stats.rejected_deadline_late.load(Ordering::Relaxed)
    }

    /// The coalesce step of a drain. Repeats of inputs served in an
    /// earlier drain are answered from the result cache without
    /// queueing any work at all. Of the rest, one leader per content
    /// key executes; its duplicates ("followers") park until the
    /// leader's result can be fanned out to them.
    fn coalesce_drained(&mut self, pending: Vec<PendingRequest>) -> (Vec<PendingRequest>, Parked) {
        if !self.cfg.coalesce_idempotent {
            return (pending, Parked::new());
        }
        let mut leaders: Vec<PendingRequest> = Vec::new();
        // Each leader's content key and followers, by leader index.
        let mut groups: Vec<(ContentKey, Vec<PendingRequest>)> = Vec::new();
        let mut leader_at: HashMap<ContentKey, usize> = HashMap::new();
        for mut p in pending {
            let key = content_key(&p.req);
            if let Some(cached) = self.result_cache.get(&key) {
                // Same device, parameters, and result bits as the
                // original execution.
                let now = clgemm_trace::now_ns();
                cached.c.write_into(&mut p.req.payload);
                let served = Served {
                    batch: cached.batch,
                    device: cached.device.clone(),
                    params: cached.params,
                    run: cached.run,
                    done_at: cached.done_at,
                    outcome: Outcome::Completed,
                };
                self.finish(p, now, Exit::Replayed, &served);
                continue;
            }
            let Some(&i) = leader_at.get(&key) else {
                leader_at.insert(key, leaders.len());
                leaders.push(p);
                groups.push((key, Vec::new()));
                continue;
            };
            // The member with the most permissive deadline leads: if
            // the guard sheds the leader, every follower (tighter or
            // equal deadline) would have been shed too, so fanning the
            // outcome out stays truthful.
            if more_permissive(p.req.deadline, leaders[i].req.deadline) {
                p = std::mem::replace(&mut leaders[i], p);
            }
            groups[i].1.push(p);
        }
        let parked = leaders.iter().map(|l| l.id).zip(groups).collect();
        (leaders, parked)
    }

    /// The execute step of a drain: batch the leaders, cost every batch
    /// on every device, place them, run each batch, then fan each
    /// leader's outcome out to its parked followers.
    fn execute_leaders(&mut self, leaders: Vec<PendingRequest>, mut parked: Parked) {
        let batches = {
            let _g = clgemm_trace::span!("serve.batch");
            coalesce(leaders, self.cfg.max_batch, self.next_batch)
        };
        self.next_batch += batches.len() as u64;

        let _sched_span = clgemm_trace::span!("serve.schedule");
        // --- cost every batch on every device (no cache-stat churn) ----
        let n_workers = self.scheduler.workers().len();
        let mut costs: Vec<Vec<f64>> = Vec::with_capacity(batches.len());
        for batch in &batches {
            let row = (0..n_workers)
                .map(|w| {
                    let spec = self.scheduler.workers()[w].spec();
                    let params = self.resolve_quiet(spec, batch.key);
                    batch_cost(spec, batch, params)
                })
                .collect();
            costs.push(row);
        }

        // --- least-loaded placement + work stealing ---------------------
        let placements = self.scheduler.place(&costs);
        drop(_sched_span);

        // --- execute, batch by batch, then fan results out --------------
        let mut modelled_seconds = 0.0;
        let mut modelled_flops = 0.0;
        for (batch, placement) in batches.into_iter().zip(placements) {
            if placement.stolen {
                self.shared.stats.steals.fetch_add(1, Ordering::Relaxed);
            }
            let first = self.responses.len();
            self.run_batch(batch, placement.worker);
            // Feed the admission EWMA, fan each leader's outcome out to
            // its followers, and remember completed results for future
            // repeats. Indices, not iterators: fan-out appends.
            for i in first..self.responses.len() {
                let r = &self.responses[i];
                if r.outcome == Outcome::Completed {
                    modelled_seconds += r.run.total;
                    modelled_flops += r.payload.flops(r.ty);
                }
                let Some((key, followers)) = parked.remove(&r.id) else {
                    continue;
                };
                let served = Served {
                    batch: r.batch,
                    device: r.device.clone(),
                    params: r.params,
                    run: r.run,
                    done_at: r.done_at,
                    outcome: r.outcome,
                };
                // Captured once: the same copy answers the followers
                // and then goes into the result cache. A shed leader
                // sheds its followers too (it had the loosest deadline,
                // so they would all have missed).
                let c = (r.outcome == Outcome::Completed).then(|| CachedC::capture(&r.payload));
                for mut f in followers {
                    let now = clgemm_trace::now_ns();
                    if let Some(c) = &c {
                        // Bit-identical: the leader's C is copied, not
                        // recomputed, so duplicates can never diverge.
                        c.write_into(&mut f.req.payload);
                    }
                    self.finish(f, now, Exit::Followed, &served);
                }
                if let Some(c) = c {
                    let result = CachedResult {
                        device: served.device,
                        params: served.params,
                        run: served.run,
                        done_at: served.done_at,
                        batch: served.batch,
                        c,
                    };
                    self.result_cache.insert(key, result);
                }
            }
        }
        if modelled_flops > 0.0 {
            self.shared
                .admission
                .observe_secs_per_flop(modelled_seconds / modelled_flops);
        }
    }

    /// Publish the earliest-free device clock so submit-side admission
    /// projections start from where the fleet actually is.
    fn publish_admission_clock(&self) {
        let min_busy = self
            .scheduler
            .workers()
            .iter()
            .map(DeviceWorker::busy_until)
            .fold(f64::INFINITY, f64::min);
        self.shared.admission.publish_min_busy(min_busy);
    }

    /// The one exit of every drained request. Records its queue wait,
    /// which ended at `waited_until`, in the histogram and the trace
    /// ring; applies the counters its `exit` and outcome call for;
    /// emits exactly one terminal trace event; and pushes the response
    /// built from the request and `served`. An executed request counts
    /// as `completed` through its batch's `record_batch`.
    fn finish(&mut self, p: PendingRequest, waited_until: u64, exit: Exit, served: &Served) {
        let stats = &self.shared.stats;
        let wait_ns = waited_until.saturating_sub(p.enqueued_ns);
        let wait = wait_ns as f64 * 1e-9;
        stats.observe_queue_wait(wait);
        clgemm_trace::ring::record("serve.request.queue_wait", p.id, p.enqueued_ns, wait_ns);
        let completed = served.outcome == Outcome::Completed;
        if completed {
            stats.note_tenant_completed(&p.req.tenant, wait);
        } else {
            stats.rejected_deadline_late.fetch_add(1, Ordering::Relaxed);
        }
        if completed && matches!(exit, Exit::Replayed | Exit::Followed) {
            stats.record_coalesced(&served.device, 1);
        }
        let event = match exit {
            Exit::Executed => "serve.request.complete",
            Exit::Shed(slack) => {
                // Admission's signed slack was already recorded at
                // submit; only the guard's lateness is news here.
                stats.observe_deadline_slack(slack);
                "serve.request.shed"
            }
            Exit::Replayed => "serve.request.coalesce_hit",
            Exit::Followed => "serve.request.coalesce_fanout",
        };
        clgemm_trace::event!(event, p.id);
        self.responses.push(GemmResponse {
            id: p.id,
            batch: served.batch,
            device: served.device.clone(),
            params: served.params,
            ty: p.req.ty,
            payload: p.req.payload,
            run: served.run,
            done_at: served.done_at,
            outcome: served.outcome,
        });
    }

    /// Execute one batch on one worker. Each member leaves through
    /// [`GemmServer::finish`]; the launch (device clock, `done_at`,
    /// `record_batch`) is accounted once for the whole batch.
    fn run_batch(&mut self, batch: Batch, worker: usize) {
        let _batch_span = clgemm_trace::span!("serve.batch.execute", batch.id);
        let spec = self.scheduler.workers()[worker].spec().clone();
        let key = batch.key;
        let params = self.cached_params(&spec, key);
        let tuned = tuned_for(&spec, key.precision, params);

        // Last-resort deadline guard. Admission already projected (and
        // shed on) the deadline at submit; this check re-projects with
        // what admission could not know — the actual batch this request
        // landed in and the actual device clock — and sheds the
        // residual misses. (A shed member only shortens the batch, so
        // survivors can only finish earlier than projected — never
        // later.)
        let start = self.scheduler.workers()[worker].busy_until();
        let projected_end = start + batch_cost(&spec, &batch, params);

        let wall_start = Instant::now();
        let first = self.responses.len();
        let mut total_seconds = 0.0;
        // Executed members' `done_at` is patched below, once the batch
        // end is known.
        let mut served = Served {
            batch: batch.id,
            device: spec.code_name.clone(),
            params,
            run: GemmRun::empty(),
            done_at: start,
            outcome: Outcome::Completed,
        };
        for mut p in batch.requests {
            // The request's queue wait ends now, when its batch starts
            // on a device queue.
            let waited_until = clgemm_trace::now_ns();
            let exit = match p.req.deadline.filter(|&d| d < projected_end) {
                Some(deadline) => {
                    let dp = key.precision == Precision::F64;
                    let (m, n, k) = p.req.payload.dims(p.req.ty);
                    served.run = tuned.predict(dp, p.req.ty, m.max(1), n.max(1), k.max(1));
                    served.outcome = Outcome::MissedDeadline;
                    Exit::Shed(deadline - projected_end)
                }
                None => {
                    let _g = clgemm_trace::span!("serve.request.execute", p.id);
                    let ws = &mut self.workspaces[worker];
                    served.run = execute(&tuned, p.req.ty, &mut p.req.payload, ws);
                    total_seconds += served.run.total;
                    served.outcome = Outcome::Completed;
                    Exit::Executed
                }
            };
            self.finish(p, waited_until, exit, &served);
        }

        let members = &self.responses[first..];
        let completed = members
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .count();
        // Substitutions the clamp used to hide: completed requests whose
        // host register tile differed from the tuned blocking.
        let tile_subs = members
            .iter()
            .filter(|r| {
                r.outcome == Outcome::Completed && r.run.tile.is_some_and(|d| d.substituted())
            })
            .count();
        if completed > 0 {
            let name = format!("batch{}:{}{}", batch.id, key.precision, key.bucket);
            let w = self.scheduler.worker_mut(worker);
            w.submit(&name, total_seconds);
            let done_at = w.busy_until();
            for r in &mut self.responses[first..] {
                if r.outcome == Outcome::Completed {
                    r.done_at = done_at;
                }
            }
            // `completed` is folded into `record_batch` (under the
            // per-device lock) so snapshots see the two consistently.
            self.shared.stats.record_batch(
                &spec.code_name,
                completed as u64,
                total_seconds,
                wall_start.elapsed().as_secs_f64(),
                tile_subs as u64,
            );
        }
    }

    /// Parameters a batch *would* use on a device, without touching
    /// cache order, counters, or the tuner (used for placement costs).
    fn resolve_quiet(&self, spec: &DeviceSpec, key: BatchKey) -> KernelParams {
        match self.cache.peek(&cache_key(spec, key)) {
            Some(p) => *p,
            None => fallback_params(&self.repo, spec, key),
        }
    }

    /// Parameters a batch uses on a device: the kernel cache's entry,
    /// or the miss path's answer, which is cached for the next batch.
    fn cached_params(&mut self, spec: &DeviceSpec, key: BatchKey) -> KernelParams {
        let ckey = cache_key(spec, key);
        if let Some((p, _)) = self.cache.get(&ckey) {
            return p;
        }
        let (p, provenance) = self.resolve_miss(spec, key);
        self.cache.insert(ckey, p, provenance);
        p
    }

    /// Miss path, in resolution order: the persistent tuning database
    /// (a restarted server warms from disk), then the analytical
    /// predictor (instant, zero search, refined in the background),
    /// then the legacy chain — synchronous tuning when configured,
    /// repo, the paper's winners, the conservative test kernel.
    fn resolve_miss(&mut self, spec: &DeviceSpec, key: BatchKey) -> (KernelParams, Provenance) {
        let dbkey = serve_db_key(spec, key);
        match self.db.get(&dbkey) {
            Some(m) if launchable(spec, m.params, key) => {
                self.shared.stats.note_db_hit();
                return (m.params, Provenance::Persisted);
            }
            Some(_) => self.shared.stats.note_db_stale(),
            None => self.shared.stats.note_db_miss(),
        }
        if self.cfg.predict {
            if let Some(pred) = predict_best(spec, key.precision) {
                if launchable(spec, pred.params, key) {
                    self.shared.stats.note_predict_cold_start();
                    if let Some(refiner) = &mut self.refiner {
                        refiner.enqueue(RefineJob {
                            spec: spec.clone(),
                            precision: key.precision,
                            bucket: key.bucket,
                            predicted_gflops: pred.gflops,
                        });
                    }
                    return (pred.params, Provenance::Predicted);
                }
            }
        }
        if self.cfg.tune_misses && self.repo.get(&spec.code_name, key.precision).is_none() {
            let space = SearchSpace::smoke(spec);
            let opts = SearchOpts {
                top_k: 4,
                max_sweep_points: 4,
                verify_winner: false,
                ..Default::default()
            };
            let best = self
                .repo
                .get_or_tune(spec, key.precision, &space, &opts)
                .best
                .clone();
            if launchable(spec, best.params, key) {
                // A synchronous search is a refinement too: persist it
                // so the next process start skips straight to it.
                let params = best.params;
                let _ = self.db.commit(dbkey, best);
                return (params, Provenance::Refined);
            }
        }
        (
            fallback_params(&self.repo, spec, key),
            Provenance::Persisted,
        )
    }
}

/// How a drained request leaves the server; decides what
/// [`GemmServer::finish`] counts for it.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Executed in its batch.
    Executed,
    /// Shed by the in-batch deadline guard, with its (negative) slack.
    Shed(f64),
    /// Answered from the result cache.
    Replayed,
    /// Given its coalesce leader's outcome and, if it completed, `C`.
    Followed,
}

/// The six response fields a drained request does not supply itself.
#[derive(Debug)]
struct Served {
    batch: u64,
    device: String,
    params: KernelParams,
    run: GemmRun,
    done_at: f64,
    outcome: Outcome,
}

/// What the coalesce step of a drain hands the execute step besides the
/// leaders: each leader's content key and parked followers, by its id.
type Parked = HashMap<RequestId, (ContentKey, Vec<PendingRequest>)>;

/// The kernel-cache key of one (device, precision, bucket) slot.
fn cache_key(spec: &DeviceSpec, key: BatchKey) -> CacheKey {
    CacheKey {
        device: spec.code_name.clone(),
        precision: key.precision,
        bucket: key.bucket,
    }
}

/// Is deadline `a` at least as easy to meet as deadline `b`?
/// (`None` = no deadline = infinitely permissive.)
fn more_permissive(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, Some(_)) => true,
        (Some(a), Some(b)) => a > b,
        (_, None) => false,
    }
}

/// Seed the admission controller's seconds-per-flop estimate from the
/// device cost model: the best (smallest) modelled rate across the
/// fleet for a reference 128³ double-precision GEMM. An optimistic
/// seed under-sheds on the first drain and the EWMA corrects within a
/// few batches — the safe failure mode (the pessimistic direction
/// would shed meetable requests while cold).
fn seed_secs_per_flop(repo: &KernelRepo, devices: &[DeviceSpec]) -> f64 {
    let reference = 128usize;
    let key = BatchKey {
        precision: Precision::F64,
        bucket: ShapeBucket::of(reference, reference, reference),
    };
    let flops = 2.0 * (reference as f64).powi(3);
    devices
        .iter()
        .map(|spec| {
            let params = fallback_params(repo, spec, key);
            let tuned = tuned_for(spec, Precision::F64, params);
            tuned
                .predict(true, GemmType::NN, reference, reference, reference)
                .total
                / flops
        })
        .filter(|s| s.is_finite() && *s > 0.0)
        .fold(f64::INFINITY, f64::min)
        .min(1e-6) // ceiling: never seed slower than 1 MFlop/s
}

/// GEMM-type slot of the serving layer's database keys: the cache is
/// bucketed by shape alone (all four GEMM types share one entry), so
/// the persisted key uses a wildcard rather than a specific type.
const SERVE_GEMM_KEY: &str = "*";

/// The tuning-database key for one (device, precision, bucket) slot.
fn serve_db_key(spec: &DeviceSpec, key: BatchKey) -> DbKey {
    DbKey {
        fingerprint: spec.fingerprint(),
        m: key.bucket.m,
        n: key.bucket.n,
        k: key.bucket.k,
        gemm: SERVE_GEMM_KEY.to_string(),
        storage: key.precision.to_string(),
    }
}

/// Repo → paper Table II → small test kernel, first launchable wins.
fn fallback_params(repo: &KernelRepo, spec: &DeviceSpec, key: BatchKey) -> KernelParams {
    let chain = [
        repo.get(&spec.code_name, key.precision)
            .map(|r| r.best.params),
        paper_winner(spec, key.precision),
        Some(small_test_params(key.precision)),
    ];
    for p in chain.into_iter().flatten() {
        if launchable(spec, p, key) {
            return p;
        }
    }
    small_test_params(key.precision)
}

/// The paper's Table II winner for this device/precision, if the device
/// is one of the paper's six.
fn paper_winner(spec: &DeviceSpec, precision: Precision) -> Option<KernelParams> {
    clgemm::paper_params::all_winners()
        .into_iter()
        .find(|e| e.params.precision == precision && e.device.spec().code_name == spec.code_name)
        .map(|e| e.params)
}

/// Can `params` launch a bucket-sized problem on this device at all?
fn launchable(spec: &DeviceSpec, params: KernelParams, key: BatchKey) -> bool {
    let m = round_up(key.bucket.m, params.mwg);
    let n = round_up(key.bucket.n, params.nwg);
    let k = round_up(key.bucket.k, params.k_multiple());
    let prof = launch_profile(&params, spec, m, n, k);
    estimate_seconds(spec, &prof).is_some()
}

/// Modelled cost of running every member of `batch` with `params` on
/// `spec` (infinite when the kernel cannot launch there).
fn batch_cost(spec: &DeviceSpec, batch: &Batch, params: KernelParams) -> f64 {
    let tuned = tuned_for(spec, batch.key.precision, params);
    let dp = batch.key.precision == Precision::F64;
    batch
        .requests
        .iter()
        .map(|p| {
            let (m, n, k) = p.req.payload.dims(p.req.ty);
            tuned
                .predict(dp, p.req.ty, m.max(1), n.max(1), k.max(1))
                .total
        })
        .sum()
}

/// Modelled cost of one strided-batched call with `params` on `spec`
/// through the path the call will take (infinite when the kernel cannot
/// launch there).
fn batched_cost(
    spec: &DeviceSpec,
    desc: &GemmBatch,
    precision: Precision,
    params: KernelParams,
) -> f64 {
    let tuned = tuned_for(spec, precision, params);
    tuned
        .route_batch(precision, desc, &BatchOptions::default())
        .1
}

/// Run the strided batch in place through the routine layer's batched
/// entry point, staging through the worker's reusable batch workspace.
fn execute_batched(
    tuned: &TunedGemm,
    desc: &GemmBatch,
    payload: &mut BatchedPayload,
    ws: &mut BatchWorkspace,
) -> Result<BatchRun, BatchError> {
    match payload {
        BatchedPayload::F64 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_batch(desc, *alpha, a, b, *beta, c, ws),
        BatchedPayload::F32 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_batch(desc, *alpha, a, b, *beta, c, ws),
        BatchedPayload::F16 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_batch(desc, *alpha, a, b, *beta, c, ws),
        BatchedPayload::Bf16 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_batch(desc, *alpha, a, b, *beta, c, ws),
    }
}

/// Bundle one precision's params with a conservative kernel for the
/// other precision (a `TunedGemm` always carries both).
fn tuned_for(spec: &DeviceSpec, precision: Precision, params: KernelParams) -> TunedGemm {
    match precision {
        Precision::F64 => TunedGemm::new(spec.clone(), params, small_test_params(Precision::F32)),
        Precision::F32 => TunedGemm::new(spec.clone(), small_test_params(Precision::F64), params),
    }
}

/// Run the request's GEMM in place through the routine layer, staging
/// through the worker's reusable workspace.
fn execute(
    tuned: &TunedGemm,
    ty: GemmType,
    payload: &mut GemmPayload,
    ws: &mut Workspace,
) -> GemmRun {
    let opts = GemmOptions::default();
    match payload {
        GemmPayload::F64 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_with(ty, *alpha, a, b, *beta, c, ws, &opts),
        GemmPayload::F32 {
            alpha,
            a,
            b,
            beta,
            c,
        } => tuned.gemm_with(ty, *alpha, a, b, *beta, c, ws, &opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use clgemm_blas::matrix::{Matrix, StorageOrder};
    use clgemm_device::DeviceId;

    fn request(n: usize, seed: u64) -> GemmRequest {
        GemmRequest::new(
            GemmType::NN,
            GemmPayload::F64 {
                alpha: 1.0,
                a: Matrix::test_pattern(n, n, StorageOrder::ColMajor, seed),
                b: Matrix::test_pattern(n, n, StorageOrder::ColMajor, seed + 1),
                beta: 0.5,
                c: Matrix::test_pattern(n, n, StorageOrder::ColMajor, seed + 2),
            },
        )
    }

    fn two_device_server(cfg: ServeConfig) -> GemmServer {
        GemmServer::new(vec![DeviceId::Tahiti.spec(), DeviceId::Cayman.spec()], cfg)
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        let server = two_device_server(ServeConfig {
            queue_capacity: 2,
            ..Default::default()
        });
        assert!(server.submit(request(32, 1)).is_ok());
        assert!(server.submit(request(32, 2)).is_ok());
        match server.submit(request(32, 3)) {
            Err(RejectReason::QueueFull(req)) => {
                // The rejected request comes back intact.
                assert_eq!(req.payload.dims(GemmType::NN), (32, 32, 32));
            }
            _ => panic!("third submit must bounce with QueueFull"),
        }
        assert_eq!(server.stats().rejected_queue_full, 1);
        assert_eq!(server.stats().enqueued, 2);
    }

    #[test]
    fn drain_serves_everything_and_counts_cache_hits() {
        let mut server = two_device_server(ServeConfig::default());
        for seed in 0..6 {
            server.submit(request(48, seed * 10)).unwrap();
        }
        assert_eq!(server.drain(), 6);
        let stats = server.stats();
        assert_eq!(stats.completed, 6);
        assert!(stats.batches >= 1);
        assert!(stats.max_batch > 1, "same-bucket requests must coalesce");
        // 6 same-bucket requests on at most 2 devices: at most 2 misses.
        assert!(stats.cache_misses <= 2);
        let responses = server.take_responses();
        assert_eq!(responses.len(), 6);
        assert!(responses.iter().all(|r| r.outcome == Outcome::Completed));
        assert!(responses
            .iter()
            .all(|r| r.run.total > 0.0 && r.done_at > 0.0));
    }

    #[test]
    fn second_drain_of_same_bucket_hits_the_cache() {
        let mut server = two_device_server(ServeConfig::default());
        server.submit(request(64, 1)).unwrap();
        server.drain();
        let misses_before = server.stats().cache_misses;
        server.submit(request(80, 2)).unwrap(); // same 128-bucket? no: 64 vs 128
        server.submit(request(64, 3)).unwrap();
        server.drain();
        let stats = server.stats();
        assert!(
            stats.cache_hits >= 1,
            "repeat bucket on the same device must hit"
        );
        assert!(stats.cache_misses >= misses_before);
    }

    #[test]
    fn deadlines_in_the_past_are_shed_at_admission() {
        let mut server = two_device_server(ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        });
        // A deadline of 0.0 can never be met: projected completion is
        // strictly positive, so admission sheds it at submit.
        match server.submit(request(48, 1).with_deadline(0.0)) {
            Err(RejectReason::DeadlineUnmeetable { req, lateness }) => {
                assert!(lateness > 0.0, "lateness must be the positive magnitude");
                // The shed request comes back with C untouched.
                match &req.payload {
                    GemmPayload::F64 { c, .. } => {
                        let expect = Matrix::test_pattern(48, 48, StorageOrder::ColMajor, 3);
                        assert_eq!(c, &expect);
                    }
                    GemmPayload::F32 { .. } => panic!("wrong precision"),
                }
            }
            _ => panic!("an unmeetable deadline must be rejected at admission"),
        }
        server.submit(request(48, 2)).unwrap();
        assert_eq!(server.drain(), 1);
        let stats = server.stats();
        assert_eq!(stats.rejected_deadline_admit, 1);
        assert_eq!(stats.rejected_deadline_late, 0);
        assert_eq!(stats.completed, 1);
        assert_eq!(
            stats.deadline_lateness.count, 1,
            "the shed request's lateness lands in the lateness histogram"
        );
        assert_eq!(stats.enqueued, 1, "shed requests are never enqueued");
    }

    #[test]
    fn the_batch_guard_sheds_deadlines_missed_after_admission() {
        let mut server = two_device_server(ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        });
        // Make admission maximally optimistic (zero cost estimate) so a
        // tiny positive deadline is admitted — then the in-batch guard,
        // which sees the real modelled completion time, must catch it.
        f64_store(&server.shared.admission.secs_per_flop, 0.0);
        server.submit(request(48, 1).with_deadline(1e-12)).unwrap();
        server.submit(request(48, 2)).unwrap();
        assert_eq!(server.drain(), 1);
        let stats = server.stats();
        assert_eq!(stats.rejected_deadline_admit, 0);
        assert_eq!(stats.rejected_deadline_late, 1);
        assert_eq!(stats.completed, 1);
        let responses = server.take_responses();
        let shed = responses
            .iter()
            .find(|r| r.outcome == Outcome::MissedDeadline)
            .unwrap();
        // The shed request's C is untouched.
        match &shed.payload {
            GemmPayload::F64 { c, .. } => {
                let expect = Matrix::test_pattern(48, 48, StorageOrder::ColMajor, 3);
                assert_eq!(c, &expect);
            }
            GemmPayload::F32 { .. } => panic!("wrong precision"),
        }
    }

    #[test]
    fn every_exit_answers_once_and_is_traced_once() {
        clgemm_trace::set_enabled(true);
        let t0 = clgemm_trace::now_ns();
        // Other tests serve the same small ids at the same time, so the
        // ring is read for this thread only, found by a marker event.
        clgemm_trace::event!("serve.test.every_exit");
        let mut server = two_device_server(ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        });
        server.submit(request(48, 1)).unwrap();
        assert_eq!(server.drain(), 1);
        server.take_responses();
        let before = server.stats();

        // Optimistic admission (zero cost estimate) admits deadlines a
        // picosecond past the published device clock; the batch guard,
        // which sees the batch's modelled cost, sheds them.
        f64_store(&server.shared.admission.secs_per_flop, 0.0);
        let tight = f64_load(&server.shared.admission.min_busy) + 1e-12;
        let submit = |req: GemmRequest| server.submit(req).unwrap();
        let exits = [
            ("serve.request.coalesce_hit", submit(request(48, 1))),
            ("serve.request.complete", submit(request(48, 2))),
            ("serve.request.coalesce_fanout", submit(request(48, 2))),
            (
                "serve.request.shed",
                submit(request(48, 3).with_deadline(tight)),
            ),
            (
                "serve.request.coalesce_fanout",
                submit(request(48, 3).with_deadline(tight)),
            ),
            ("serve.request.complete", submit(request(48, 4))),
        ];
        assert_eq!(server.drain(), 4);
        let after = server.stats();
        assert_eq!(after.completed - before.completed, 4);
        assert_eq!(after.coalesce_hits - before.coalesce_hits, 2);
        assert_eq!(
            after.rejected_deadline_late - before.rejected_deadline_late,
            2
        );

        let responses = server.take_responses();
        assert_eq!(responses.len(), exits.len());
        let events = clgemm_trace::ring::events_since(t0);
        let me = events
            .iter()
            .find(|e| e.name == "serve.test.every_exit")
            .expect("marker event")
            .thread;
        let terminal = [
            "serve.request.complete",
            "serve.request.shed",
            "serve.request.coalesce_hit",
            "serve.request.coalesce_fanout",
        ];
        for (event, id) in exits {
            let answers = responses.iter().filter(|r| r.id == id).count();
            assert_eq!(answers, 1, "request {id}: one response");
            let mine = || events.iter().filter(|e| e.thread == me && e.tag == id);
            let waits = mine()
                .filter(|e| e.name == "serve.request.queue_wait")
                .count();
            assert_eq!(waits, 1, "request {id}: one queue-wait record");
            let ends: Vec<_> = mine()
                .filter(|e| terminal.contains(&e.name))
                .map(|e| e.name)
                .collect();
            assert_eq!(ends, [event], "request {id}: one terminal event");
        }
    }

    #[test]
    fn low_priority_is_shed_past_the_high_watermark() {
        let server = two_device_server(ServeConfig {
            queue_capacity: 4,
            high_watermark: 0.5,
            ..Default::default()
        });
        server.submit(request(32, 1)).unwrap();
        server.submit(request(32, 2)).unwrap();
        // Fill is at the watermark: bulk work sheds, urgent work lands.
        let shed = server.submit(request(32, 3).with_priority(Priority::Low));
        assert!(matches!(shed, Err(RejectReason::Overloaded(_))));
        server.submit(request(32, 4)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.shed_low_priority, 1);
        assert_eq!(stats.enqueued, 3);
    }

    #[test]
    fn identical_concurrent_requests_share_one_execution() {
        let mut server = two_device_server(ServeConfig::default());
        server.submit(request(48, 7)).unwrap();
        server.submit(request(48, 7)).unwrap(); // bit-identical duplicate
        server.submit(request(48, 8)).unwrap(); // same bucket, different bits
        assert_eq!(server.drain(), 3);
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.coalesce_hits, 1, "the duplicate must coalesce");
        let responses = server.take_responses();
        assert!(responses.iter().all(|r| r.outcome == Outcome::Completed));
        let dupes: Vec<_> = responses.iter().filter(|r| r.id <= 1).collect();
        assert_eq!(dupes.len(), 2);
        let bits = |r: &GemmResponse| match &r.payload {
            GemmPayload::F64 { c, .. } => {
                c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            }
            GemmPayload::F32 { .. } => panic!("wrong precision"),
        };
        assert_eq!(
            bits(dupes[0]),
            bits(dupes[1]),
            "coalesced duplicates must be bit-identical"
        );
        assert_eq!(dupes[0].device, dupes[1].device);
        assert_eq!(dupes[0].params, dupes[1].params);
    }

    #[test]
    fn repeats_across_drains_hit_the_result_cache() {
        let mut server = two_device_server(ServeConfig::default());
        server.submit(request(48, 7)).unwrap();
        server.drain();
        let first = server.take_responses().pop().unwrap();
        server.submit(request(48, 7)).unwrap();
        assert_eq!(server.drain(), 1);
        let stats = server.stats();
        assert_eq!(stats.coalesce_hits, 1, "the repeat must replay");
        assert_eq!(stats.completed, 2);
        let replay = server.take_responses().pop().unwrap();
        // Same device, parameters, and result bits as the original.
        assert_eq!(replay.device, first.device);
        assert_eq!(replay.params, first.params);
        match (&first.payload, &replay.payload) {
            (GemmPayload::F64 { c: a, .. }, GemmPayload::F64 { c: b, .. }) => {
                assert_eq!(a, b, "a replayed result must be bit-identical");
            }
            _ => panic!("wrong precision"),
        }
    }

    #[test]
    fn followers_and_replays_keep_their_own_c() {
        // The same logical request, with C stored at ld 29 and NaN in
        // every gap.
        let padded = || {
            let mut req = request(24, 7);
            if let GemmPayload::F64 { c, .. } = &mut req.payload {
                let mut loose = Matrix::zeros_with_ld(24, 24, 29, StorageOrder::ColMajor);
                loose.as_mut_slice().fill(f64::NAN);
                for (d, s) in loose.lines_mut().zip(c.lines()) {
                    d.copy_from_slice(s);
                }
                *c = loose;
            }
            req
        };
        let c_of = |r: &GemmResponse| match &r.payload {
            GemmPayload::F64 { c, .. } => c.clone(),
            GemmPayload::F32 { .. } => panic!("wrong precision"),
        };
        let check = |got: &Matrix<f64>, want: &Matrix<f64>, what: &str| {
            assert_eq!(got.ld(), 29, "{what}: the request's own ld");
            let bits = |m: &Matrix<f64>| -> Vec<u64> {
                m.lines().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: logical elements");
            let gaps = got.as_slice().iter().filter(|v| v.is_nan()).count();
            assert_eq!(gaps, 29 * 24 - 24 * 24, "{what}: ld gaps untouched");
        };

        let mut alone = two_device_server(ServeConfig {
            coalesce_idempotent: false,
            ..Default::default()
        });
        alone.submit(padded()).unwrap();
        alone.drain();
        let want = c_of(&alone.take_responses()[0]);
        check(&want, &want, "executed alone");

        let mut server = two_device_server(ServeConfig::default());
        server.submit(request(24, 7)).unwrap();
        let follower = server.submit(padded()).unwrap();
        assert_eq!(server.drain(), 2);
        assert_eq!(server.stats().coalesce_hits, 1, "the padded copy follows");
        let responses = server.take_responses();
        let r = responses
            .iter()
            .find(|r| r.id == follower)
            .expect("answered");
        check(&c_of(r), &want, "in-drain follower");

        let replayed = server.submit(padded()).unwrap();
        assert_eq!(server.drain(), 1);
        assert_eq!(server.stats().coalesce_hits, 2, "the repeat replays");
        let r = server.take_responses().pop().expect("answered");
        assert_eq!(r.id, replayed);
        check(&c_of(&r), &want, "cross-drain replay");
    }

    #[test]
    fn coalescing_can_be_disabled() {
        let mut server = two_device_server(ServeConfig {
            coalesce_idempotent: false,
            ..Default::default()
        });
        server.submit(request(48, 7)).unwrap();
        server.submit(request(48, 7)).unwrap();
        assert_eq!(server.drain(), 2);
        let stats = server.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn tenants_are_accounted_separately() {
        let mut server = two_device_server(ServeConfig {
            tenant_weights: vec![("bulk".into(), 4)],
            ..Default::default()
        });
        server.submit(request(48, 1).with_tenant("inter")).unwrap();
        server.submit(request(48, 2).with_tenant("bulk")).unwrap();
        server.drain();
        let stats = server.stats();
        let inter = &stats.per_tenant["inter"];
        assert_eq!((inter.admitted, inter.completed, inter.shed), (1, 1, 0));
        let bulk = &stats.per_tenant["bulk"];
        assert_eq!((bulk.admitted, bulk.completed), (1, 1));
    }

    #[test]
    fn multiple_buckets_spread_across_devices() {
        let mut server = two_device_server(ServeConfig::default());
        for i in 0..4 {
            server.submit(request(40, i)).unwrap(); // bucket 64³
            server.submit(request(100, i + 50)).unwrap(); // bucket 128³
        }
        assert_eq!(server.drain(), 8);
        let stats = server.stats();
        assert_eq!(
            stats.devices_used(),
            2,
            "two buckets must use both devices:\n{stats}"
        );
    }

    #[test]
    fn priorities_schedule_high_before_low() {
        let mut server = two_device_server(ServeConfig::default());
        server
            .submit(request(32, 1).with_priority(Priority::Low))
            .unwrap();
        server
            .submit(request(200, 2).with_priority(Priority::High))
            .unwrap();
        server.drain();
        let responses = server.take_responses();
        // Execution order follows batch order: the high-priority bucket
        // was formed (and run) first.
        assert_eq!(responses[0].id, 1);
        assert_eq!(responses[1].id, 0);
    }

    #[test]
    fn steady_state_drains_stop_growing_workspaces() {
        let mut server = two_device_server(ServeConfig::default());
        // Warm-up: least-loaded placement alternates workers between
        // drains, so two rounds size every worker's staging buffers.
        for round in 0..2 {
            for seed in 0..4 {
                server.submit(request(48, round * 10 + seed)).unwrap();
            }
            server.drain();
        }
        let grows = server.workspace_grows();
        assert!(grows > 0, "warm-up must allocate staging buffers");
        assert!(server.workspace_bytes() > 0);
        // Steady state: same shape bucket, repeatedly. No new growth.
        for round in 0..3 {
            for seed in 0..4 {
                server.submit(request(48, 100 + round * 10 + seed)).unwrap();
            }
            server.drain();
        }
        assert_eq!(
            server.workspace_grows(),
            grows,
            "steady-state serving must not reallocate staging buffers"
        );
    }

    #[test]
    fn tile_substitutions_are_counted_against_the_responses() {
        let mut server = two_device_server(ServeConfig::default());
        for seed in 0..4 {
            server.submit(request(48, seed)).unwrap();
        }
        server.drain();
        let responses = server.take_responses();
        let completed: Vec<_> = responses
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .collect();
        assert!(!completed.is_empty());
        // Every completed request reports its tile decision; the server
        // counter is exactly the substituted ones (whatever the host's
        // SIMD width makes of the tuned blocking).
        assert!(completed.iter().all(|r| r.run.tile.is_some()));
        let expected = completed
            .iter()
            .filter(|r| r.run.tile.is_some_and(|d| d.substituted()))
            .count() as u64;
        let stats = server.stats();
        assert_eq!(stats.tile_substitutions, expected);
        let per_device: u64 = stats
            .per_device
            .values()
            .map(|d| d.tile_substitutions)
            .sum();
        assert_eq!(per_device, expected);
    }

    #[test]
    fn strided_batched_calls_bypass_the_queue() {
        let mut server = two_device_server(ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        });
        let desc = GemmBatch::packed(GemmType::NN, 8, 32, 32, 32);
        let len = 8 * 32 * 32;
        let a: Vec<f32> = (0..len).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        let b: Vec<f32> = (0..len).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect();
        let c = vec![0.5f32; len];
        let req = BatchedRequest::new(
            desc,
            BatchedPayload::F32 {
                alpha: 1.0,
                a,
                b,
                beta: 0.0,
                c,
            },
        );
        let resp = server.run_batched(req).unwrap();
        assert_eq!(resp.run.path, clgemm::batched::BatchPath::Direct);
        assert_eq!(resp.run.batch, 8);
        assert!(resp.run.total > 0.0 && resp.done_at > 0.0);
        match &resp.payload {
            BatchedPayload::F32 { c, .. } => {
                assert!(c.iter().any(|&v| v != 0.5), "C must be written in place");
            }
            _ => panic!("payload type must round-trip"),
        }
        let stats = server.stats();
        assert_eq!(stats.batched_calls, 1);
        assert_eq!(stats.batched_entries, 8);
        assert_eq!(stats.enqueued, 0, "bypass calls never touch the queue");
        assert_eq!(
            stats
                .per_device
                .values()
                .filter(|d| d.batched_entries > 0)
                .count(),
            1
        );
    }

    #[test]
    fn stats_report_the_kernel_caches_own_counters() {
        // One device, so repeats of a bucket land where they hit.
        let cfg = ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        };
        let mut server = GemmServer::new(vec![DeviceId::Tahiti.spec()], cfg);
        let check = |server: &GemmServer| {
            let stats = server.stats();
            let counters = (stats.cache_hits, stats.cache_misses, stats.cache_evictions);
            assert_eq!(counters, server.cache.counters());
            assert_eq!(stats.hits_by_provenance, server.cache.provenance_hits());
        };
        for seed in 0..2 {
            server.submit(request(64, seed)).unwrap();
            server.drain();
            check(&server);
        }
        let desc = GemmBatch::packed(GemmType::NN, 2, 24, 24, 24);
        for _ in 0..2 {
            let payload = BatchedPayload::F64 {
                alpha: 1.0,
                a: vec![0.5; 2 * 24 * 24],
                b: vec![0.25; 2 * 24 * 24],
                beta: 0.0,
                c: vec![0.0; 2 * 24 * 24],
            };
            server
                .run_batched(BatchedRequest::new(desc, payload))
                .unwrap();
            check(&server);
        }
        let stats = server.stats();
        assert!(stats.cache_hits >= 2 && stats.cache_misses >= 2, "{stats}");
    }

    #[test]
    fn repeated_batched_calls_reach_workspace_steady_state() {
        let mut server = two_device_server(ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        });
        // Past the direct crossover in one dimension: the packed path
        // runs and must stage through the per-worker batch workspace.
        let desc = GemmBatch::packed(GemmType::NN, 2, 288, 24, 24);
        let mk = |seed: usize, n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i + seed) % 9) as f64 * 0.5 - 2.0)
                .collect()
        };
        let req = || {
            BatchedRequest::new(
                desc,
                BatchedPayload::F64 {
                    alpha: 1.0,
                    a: mk(1, 2 * 288 * 24),
                    b: mk(2, 2 * 24 * 24),
                    beta: 0.5,
                    c: mk(3, 2 * 288 * 24),
                },
            )
        };
        let resp = server.run_batched(req()).unwrap();
        assert_eq!(resp.run.path, clgemm::batched::BatchPath::Packed);
        // Least-loaded placement may alternate devices; warm both.
        server.run_batched(req()).unwrap();
        let grows = server.batched_workspace_grows();
        assert!(grows > 0, "the packed path must allocate staging");
        for _ in 0..3 {
            server.run_batched(req()).unwrap();
        }
        assert_eq!(
            server.batched_workspace_grows(),
            grows,
            "steady-state batched serving must not reallocate"
        );
        // Both batched calls and queued requests share the stats view.
        let stats = server.stats();
        assert_eq!(stats.batched_calls, 5);
        assert_eq!(stats.batched_entries, 10);
        assert!(stats.batched_size.max >= 2.0);
    }

    #[test]
    fn tune_misses_populates_the_repo() {
        // The legacy synchronous path: predictor off, so a miss falls
        // through to the on-demand search.
        let mut server = GemmServer::new(
            vec![DeviceId::Tahiti.spec()],
            ServeConfig {
                tune_misses: true,
                predict: false,
                background_refine: false,
                tuning_db: None,
                ..Default::default()
            },
        );
        assert!(server.repo().is_empty());
        server.submit(request(64, 1)).unwrap();
        server.drain();
        assert_eq!(
            server.repo().len(),
            1,
            "the miss must have tuned and cached"
        );
        assert!(server.repo().get("Tahiti", Precision::F64).is_some());
        // The synchronous result was persisted to the (in-memory) db
        // and the entry is tagged as search-refined.
        assert_eq!(server.tuning_db().len(), 1);
        server.submit(request(64, 2)).unwrap();
        server.drain();
        assert_eq!(server.stats().hits_with(Provenance::Refined), 1);
    }

    /// A per-test tuning-database path under the system temp dir.
    fn db_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push("clgemm-serve-db-tests");
        std::fs::create_dir_all(&p).expect("temp dir");
        p.push(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn predicted_cold_start_skips_the_synchronous_tuner() {
        let mut server = GemmServer::new(
            vec![DeviceId::Tahiti.spec()],
            ServeConfig {
                tune_misses: true,
                predict: true,
                background_refine: false,
                tuning_db: None,
                registry: Some(Registry::new()),
                ..Default::default()
            },
        );
        server.submit(request(64, 1)).unwrap();
        assert_eq!(server.drain(), 1);
        assert!(
            server.repo().is_empty(),
            "the predictor must preempt the synchronous tuner"
        );
        let stats = server.stats();
        assert_eq!(stats.predict_cold_starts, 1);
        assert_eq!(stats.db_misses, 1);
        // A repeat in the same bucket hits the predicted entry.
        server.submit(request(64, 2)).unwrap();
        server.drain();
        assert_eq!(server.stats().hits_with(Provenance::Predicted), 1);
    }

    #[test]
    fn background_refines_upgrade_the_cache_and_persist_across_restart() {
        let path = db_path("refine");
        let cfg = ServeConfig {
            predict: true,
            background_refine: true,
            tuning_db: Some(path.clone()),
            registry: Some(Registry::new()),
            ..Default::default()
        };
        let mut server = GemmServer::new(vec![DeviceId::Tahiti.spec()], cfg.clone());
        server.submit(request(64, 1)).unwrap();
        server.drain();
        assert_eq!(server.stats().predict_cold_starts, 1);
        assert_eq!(server.wait_refines(), 1, "one refinement was enqueued");
        assert_eq!(server.stats().refines, 1);
        assert_eq!(server.tuning_db().len(), 1, "the refinement is committed");
        // The refined parameters now serve the bucket.
        server.submit(request(64, 2)).unwrap();
        server.drain();
        assert_eq!(server.stats().hits_with(Provenance::Refined), 1);
        drop(server);

        // Restart: a fresh server on the same path warms from disk —
        // no search, no prediction, just the persisted winner.
        let mut restarted = GemmServer::new(
            vec![DeviceId::Tahiti.spec()],
            ServeConfig {
                registry: Some(Registry::new()),
                ..cfg
            },
        );
        restarted.submit(request(64, 3)).unwrap();
        assert_eq!(restarted.drain(), 1);
        let stats = restarted.stats();
        assert_eq!(stats.db_hits, 1, "restart must warm from the database");
        assert_eq!(stats.predict_cold_starts, 0);
        restarted.submit(request(64, 4)).unwrap();
        restarted.drain();
        assert_eq!(restarted.stats().hits_with(Provenance::Persisted), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Valid parameters whose LDS footprint exceeds every built-in
    /// device's local memory — committable, loadable, never launchable.
    fn unlaunchable_params() -> KernelParams {
        use clgemm::params::{Algorithm, StrideMode};
        use clgemm_blas::layout::BlockLayout;
        let p = KernelParams {
            mwg: 128,
            nwg: 128,
            kwg: 64,
            mdimc: 16,
            ndimc: 16,
            kwi: 2,
            mdima: 16,
            ndimb: 16,
            vw: 2,
            stride_m: StrideMode::Unit,
            stride_n: StrideMode::Unit,
            local_a: true,
            local_b: true,
            layout_a: BlockLayout::Cbl,
            layout_b: BlockLayout::Cbl,
            algorithm: Algorithm::Ba,
            precision: Precision::F64,
        };
        p.validate().expect("poison params are structurally valid");
        p
    }

    #[test]
    fn stale_db_entries_fall_through_to_the_predictor() {
        let path = db_path("stale");
        let spec = DeviceId::Tahiti.spec();
        {
            let mut db = TuningDb::open(&path).expect("fresh db");
            let key = serve_db_key(
                &spec,
                BatchKey {
                    precision: Precision::F64,
                    bucket: ShapeBucket::of(64, 64, 64),
                },
            );
            db.commit(
                key,
                Measurement {
                    params: unlaunchable_params(),
                    n: 64,
                    gflops: 1.0,
                },
            )
            .expect("poison entry commits");
        }
        let mut server = GemmServer::new(
            vec![spec],
            ServeConfig {
                predict: true,
                background_refine: false,
                tuning_db: Some(path.clone()),
                registry: Some(Registry::new()),
                ..Default::default()
            },
        );
        server.submit(request(64, 1)).unwrap();
        assert_eq!(server.drain(), 1, "stale entry must not block serving");
        let stats = server.stats();
        assert_eq!(stats.db_stale, 1);
        assert_eq!(stats.db_hits, 0);
        assert_eq!(stats.predict_cold_starts, 1);
        let _ = std::fs::remove_file(&path);
    }
}
