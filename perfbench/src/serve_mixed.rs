//! `serve-mixed`: a closed loop through `clgemm-serve`, driven by one
//! thread that keeps a fixed window of requests outstanding and pumps
//! `submit` → `drain` → `take_responses` itself, the way GEMM callers
//! that block on their result do. Strided-batched calls go through
//! `run_batched` between windows.
//!
//! Serve's own work (admission, the fair queue, content keys, result
//! capture, fan-out, scheduling) and the small-GEMM pack/stage/merge
//! path are what this workload stresses; the large-kernel path, the
//! tuner and clc do nothing in the timed phase.
//!
//! The work is identical from run to run for a seed:
//! * both devices are the same model, so one cache entry per
//!   (precision, bucket) serves either device and placement can never
//!   land a bucket on a device it was not warmed for;
//! * set-up cold-starts every bucket in one drain (and the batched
//!   bucket in one call) and waits for the background refinements
//!   before anything else runs, so no refinement is absorbed at a
//!   wall-clock-dependent moment;
//! * deadlines are virtual (device-model) times, so admission sheds the
//!   same requests every run.

use crate::harness::Phase;
use crate::inputs::{check_samples, random_matrix, sample_c, scalars, stored};
use crate::layers::{RoutineCall, ServeTally};
use crate::spans::Tracer;
use crate::Workload;
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::{Bf16, GemmBatch, GemmType, Trans, F16};
use clgemm_device::DeviceId;
use clgemm_serve::{
    BatchedPayload, BatchedRequest, GemmPayload, GemmRequest, GemmServer, Outcome, ServeConfig,
    StatsSnapshot,
};
use clgemm_shim::Rng;
use std::collections::HashMap;

/// Fresh requests of every window, as (precision, bucket edges): each
/// edge is drawn from its power-of-two bucket, clipped to
/// `EDGES`, so a class maps to exactly one cache entry.
const FRESH: [(Precision, [usize; 3]); 14] = [
    (Precision::F32, [128, 128, 128]),
    (Precision::F64, [128, 128, 128]),
    (Precision::F32, [256, 256, 256]),
    (Precision::F32, [256, 256, 256]),
    (Precision::F64, [256, 256, 256]),
    (Precision::F64, [256, 256, 256]),
    (Precision::F32, [512, 256, 256]),
    (Precision::F64, [256, 512, 256]),
    (Precision::F32, [256, 256, 512]),
    (Precision::F64, [512, 256, 512]),
    (Precision::F32, [512, 512, 256]),
    (Precision::F64, [256, 512, 512]),
    (Precision::F32, [512, 512, 512]),
    (Precision::F64, [512, 512, 512]),
];
/// The edge range requests draw from.
const EDGES: (usize, usize) = (97, 384);
/// Repeats of a recent input per window: 2 of 16, one in eight.
const REPEATS: usize = 2;
/// Classes of `FRESH` whose requests carry a virtual deadline.
const DEADLINED: [usize; 4] = [0, 3, 6, 9];
/// Windows per round; one `run_batched` call follows every window.
const WINDOWS: usize = 8;
/// Entries and edge range of the strided-batched calls (all one
/// 64³ bucket, so the direct path runs them).
const BATCH_ENTRIES: usize = 8;
const BATCH_EDGE: (usize, usize) = (33, 65);
/// Elements of `C` per completed request recomputed for the check.
const SAMPLES: usize = 8;

const TENANTS: [(&str, u32); 2] = [("alpha", 4), ("beta", 1)];

pub struct ServeMixed;

pub struct State {
    server: GemmServer,
    /// Virtual seconds one window advances the device clocks by,
    /// measured in set-up; deadlines are drawn in units of it.
    window_v: f64,
}

/// A request's identity: regenerated bit-identically from it, which is
/// how a repeat reproduces an earlier input.
#[derive(Clone, Copy)]
struct Origin {
    class: usize,
    /// Window slot of the round; with the class it fixes the request's
    /// shape and GEMM type, so every round sends the same shapes and a
    /// slot's median time over the rounds is meaningful.
    slot: usize,
    /// Seeds the operands and scalars.
    seed: u64,
}

fn make_request(o: Origin) -> GemmRequest {
    let mut shape = Rng::new((o.slot * FRESH.len() + o.class) as u64);
    let (prec, bucket) = FRESH[o.class];
    let [m, n, k] = bucket.map(|b| shape.range((b / 2 + 1).max(EDGES.0), b.min(EDGES.1) + 1));
    let ty = GemmType::ALL[shape.range(0, 4)];
    let mut rng = Rng::new(o.seed);
    let payload = match prec {
        Precision::F32 => payload_typed::<f32>(ty, m, n, k, &mut rng, |alpha, a, b, beta, c| {
            GemmPayload::F32 {
                alpha,
                a,
                b,
                beta,
                c,
            }
        }),
        Precision::F64 => payload_typed::<f64>(ty, m, n, k, &mut rng, |alpha, a, b, beta, c| {
            GemmPayload::F64 {
                alpha,
                a,
                b,
                beta,
                c,
            }
        }),
    };
    GemmRequest::new(ty, payload)
}

type Mat<T> = clgemm_blas::matrix::Matrix<T>;

fn payload_typed<T: Scalar>(
    ty: GemmType,
    m: usize,
    n: usize,
    k: usize,
    rng: &mut Rng,
    wrap: impl FnOnce(T, Mat<T>, Mat<T>, T, Mat<T>) -> GemmPayload,
) -> GemmPayload {
    let (ar, ac) = stored(ty.ta, m, k);
    let (br, bc) = stored(ty.tb, k, n);
    let a = random_matrix::<T>(ar, ac, rng);
    let b = random_matrix::<T>(br, bc, rng);
    let c = random_matrix::<T>(m, n, rng);
    let (alpha, beta) = scalars::<T>(rng);
    wrap(alpha, a, b, beta, c)
}

/// Earliest-free virtual device clock — the time admission projects
/// from.
fn virtual_now(server: &GemmServer) -> f64 {
    server
        .workers()
        .iter()
        .map(clgemm_sim::DeviceWorker::busy_until)
        .fold(f64::INFINITY, f64::min)
}

/// Sampled elements of `C` before the call, per precision.
enum Samples {
    F32(Vec<(usize, usize, f32)>),
    F64(Vec<(usize, usize, f64)>),
}

fn take_samples(p: &GemmPayload, rng: &mut Rng) -> Samples {
    match p {
        GemmPayload::F32 { c, .. } => Samples::F32(sample_c(c, SAMPLES, rng)),
        GemmPayload::F64 { c, .. } => Samples::F64(sample_c(c, SAMPLES, rng)),
    }
}

/// Check a completed response against the FMA chain; returns a hash of
/// its `C` bits for the duplicate check.
fn check_response(ty: GemmType, p: &GemmPayload, s: &Samples) -> (Option<String>, u64) {
    match (p, s) {
        (
            GemmPayload::F32 {
                alpha,
                a,
                b,
                beta,
                c,
            },
            Samples::F32(s),
        ) => (
            check_samples(ty, *alpha, a, b, *beta, s, c),
            hash_bits(c.as_slice().iter().map(|v| u64::from(v.to_bits()))),
        ),
        (
            GemmPayload::F64 {
                alpha,
                a,
                b,
                beta,
                c,
            },
            Samples::F64(s),
        ) => (
            check_samples(ty, *alpha, a, b, *beta, s, c),
            hash_bits(c.as_slice().iter().map(|v| v.to_bits())),
        ),
        _ => (
            Some("response precision differs from the request".into()),
            0,
        ),
    }
}

fn hash_bits(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A submitted request awaiting its answer.
struct InFlight {
    origin: Origin,
    submitted_at: f64,
    samples: Samples,
    repeat: bool,
}

struct Loop<'a> {
    server: &'a mut GemmServer,
    phase: &'a mut Phase,
    rng: Rng,
    in_flight: HashMap<u64, InFlight>,
    /// Fresh requests of the previous and current window.
    recent: Vec<Origin>,
    /// `C` hash of every completed request, by origin seed.
    results: HashMap<u64, u64>,
    next_seed: u64,
    window_v: f64,
    deadlines: bool,
    repeats_checked: u64,
    /// Submissions refused at admission, and admitted requests shed
    /// before execution.
    rejected: u64,
    missed: u64,
}

impl Loop<'_> {
    /// One window of window slot `slot`, then one batched call; timed
    /// together as one unit.
    fn window(&mut self, slot: usize) {
        let mark = self.phase.mark();
        let mut classes: Vec<usize> = (0..FRESH.len()).collect();
        self.rng.shuffle(&mut classes);
        let fresh: Vec<Origin> = classes
            .iter()
            .map(|&class| {
                self.next_seed = self.next_seed.wrapping_add(1);
                Origin {
                    class,
                    slot,
                    seed: self.next_seed,
                }
            })
            .collect();
        if self.recent.len() > FRESH.len() {
            self.recent.drain(..self.recent.len() - FRESH.len());
        }
        self.recent.extend(&fresh);
        let mut batch: Vec<(Origin, bool)> = fresh.into_iter().map(|o| (o, false)).collect();
        for _ in 0..REPEATS {
            let o = self.recent[self.rng.range(0, self.recent.len())];
            let at = self.rng.range(0, batch.len() + 1);
            batch.insert(at, (o, true));
        }
        let v_now = virtual_now(self.server);
        for (pos, (origin, repeat)) in batch.into_iter().enumerate() {
            let mut req = make_request(origin).with_tenant(TENANTS[pos % 2].0);
            if self.deadlines && !repeat && DEADLINED.contains(&origin.class) {
                req = req.with_deadline(v_now + self.window_v * (0.25 + 2.0 * self.rng.f64()));
            }
            let samples = take_samples(&req.payload, &mut self.rng);
            self.phase.attempted += 1;
            let submitted_at = self.phase.clock.now();
            let server = &*self.server;
            let res = self.phase.clock.time(|| {
                let _s = clgemm_trace::span!("bench.submit");
                server.submit(req)
            });
            match res {
                Ok(id) => {
                    self.in_flight.insert(
                        id,
                        InFlight {
                            origin,
                            submitted_at,
                            samples,
                            repeat,
                        },
                    );
                }
                Err(_) => {
                    self.phase.failed += 1;
                    self.rejected += 1;
                }
            }
        }
        let server = &mut *self.server;
        let responses = self.phase.clock.time(|| {
            {
                let _s = clgemm_trace::span!("bench.drain");
                server.drain();
            }
            let _s = clgemm_trace::span!("bench.take_responses");
            server.take_responses()
        });
        let answered_at = self.phase.clock.now();
        let group = self.phase.group();
        for r in responses {
            let f = self
                .in_flight
                .remove(&r.id)
                .expect("every response answers a submitted request");
            if r.outcome != Outcome::Completed {
                self.phase.failed += 1;
                self.missed += 1;
                continue;
            }
            self.phase.ops += 1;
            self.phase
                .latencies
                .push(((answered_at - f.submitted_at) * 1e3, group));
            let (m, n, k) = r.payload.dims(r.ty);
            self.phase.flops += 2.0 * (m * n * k) as f64;
            self.phase.model_gflops.push(r.run.kernel_gflops);
            self.phase.request_model_s.insert(r.id, r.run.total);
            self.phase.routine_calls.insert(
                ("serve.request.execute", r.id),
                RoutineCall {
                    m,
                    n,
                    k,
                    precision: r.payload.precision(),
                    params: r.params,
                },
            );
            let (bad, hash) = check_response(r.ty, &r.payload, &f.samples);
            if let Some(bad) = bad {
                self.phase
                    .check_failures
                    .push(format!("request {}: {bad}", r.id));
            }
            match self.results.get(&f.origin.seed) {
                Some(&h) if h != hash => self.phase.check_failures.push(format!(
                    "request {} repeats an earlier input but its C differs",
                    r.id
                )),
                Some(_) => self.repeats_checked += u64::from(f.repeat),
                None => {
                    self.results.insert(f.origin.seed, hash);
                }
            }
        }
        assert!(
            self.in_flight.is_empty(),
            "a drain answers every queued request"
        );
        self.batched(slot);
        self.phase.end_unit(slot, mark);
    }

    /// One strided-batched call; slot `slot` fixes its shape and storage
    /// type (f32, f16 and bf16 in turn).
    fn batched(&mut self, slot: usize) {
        let mut shape = Rng::new(0xba7c_4ed0 + slot as u64);
        let ty = GemmType::ALL[shape.range(0, 4)];
        let [m, n, k] = [0; 3].map(|_| shape.range(BATCH_EDGE.0, BATCH_EDGE.1));
        let desc = GemmBatch::packed(ty, BATCH_ENTRIES, m, n, k);
        let rng = &mut self.rng;
        let payload = match slot % 3 {
            0 => {
                let (alpha, a, b, beta, c) = slabs::<f32>(&desc, rng);
                BatchedPayload::F32 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                }
            }
            1 => {
                let (alpha, a, b, beta, c) = slabs::<F16>(&desc, rng);
                BatchedPayload::F16 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                }
            }
            _ => {
                let (alpha, a, b, beta, c) = slabs::<Bf16>(&desc, rng);
                BatchedPayload::Bf16 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                }
            }
        };
        let picks: Vec<[usize; 3]> = (0..SAMPLES)
            .map(|_| [rng.range(0, desc.batch), rng.range(0, m), rng.range(0, n)])
            .collect();
        let input = payload.clone();
        self.phase.attempted += 1;
        let server = &mut *self.server;
        let t0 = self.phase.clock.now();
        let res = self.phase.clock.time(|| {
            let _s = clgemm_trace::span!("bench.run_batched");
            server.run_batched(BatchedRequest::new(desc, payload))
        });
        let resp = match res {
            Ok(r) => r,
            Err(e) => {
                self.phase.failed += 1;
                self.phase
                    .check_failures
                    .push(format!("run_batched rejected {desc}: {e}"));
                return;
            }
        };
        self.phase.latency((self.phase.clock.now() - t0) * 1e3);
        self.phase.ops += 1;
        self.phase.flops += desc.flops();
        self.phase.model_gflops.push(resp.run.gflops);
        self.phase.batched_calls += 1;
        self.phase.batched_entries += desc.batch as u64;
        self.phase.batched_direct += u64::from(resp.run.path == clgemm::batched::BatchPath::Direct);
        self.phase.id("batched_path", resp.run.path.tag());
        let bad = match (&input, &resp.payload) {
            (
                BatchedPayload::F32 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                },
                BatchedPayload::F32 { c: out, .. },
            ) => check_entries(&desc, *alpha, a, b, *beta, c, out, &picks),
            (
                BatchedPayload::F16 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                },
                BatchedPayload::F16 { c: out, .. },
            ) => check_entries(&desc, *alpha, a, b, *beta, c, out, &picks),
            (
                BatchedPayload::Bf16 {
                    alpha,
                    a,
                    b,
                    beta,
                    c,
                },
                BatchedPayload::Bf16 { c: out, .. },
            ) => check_entries(&desc, *alpha, a, b, *beta, c, out, &picks),
            _ => Some("the answer's storage type differs from the request's".into()),
        };
        if let Some(bad) = bad {
            self.phase
                .check_failures
                .push(format!("run_batched {desc}: {bad}"));
        }
    }
}

/// `(alpha, a, b, beta, c)` of one batched call.
type Slabs<S> = (
    <S as StorageScalar>::Acc,
    Vec<S>,
    Vec<S>,
    <S as StorageScalar>::Acc,
    Vec<S>,
);

/// Seeded slabs and scalars for one batched call.
fn slabs<S: StorageScalar>(d: &GemmBatch, rng: &mut Rng) -> Slabs<S> {
    let mut slab = |len: usize| -> Vec<S> {
        (0..len)
            .map(|_| S::from_f64(2.0 * rng.f64() - 1.0))
            .collect()
    };
    let (a, b, c) = (
        slab(d.batch * d.stride_a),
        slab(d.batch * d.stride_b),
        slab(d.c_required()),
    );
    let (alpha, beta) = scalars::<S::Acc>(rng);
    (alpha, a, b, beta, c)
}

/// Recompute sampled `(entry, i, j)` elements of a batched answer: one
/// ascending-`p` FMA chain on widened operands, then `mad(α, acc, β·old)`
/// narrowed to the storage type, compared bit for bit.
#[allow(clippy::too_many_arguments)]
fn check_entries<S: StorageScalar>(
    d: &GemmBatch,
    alpha: S::Acc,
    a: &[S],
    b: &[S],
    beta: S::Acc,
    c_old: &[S],
    c_out: &[S],
    picks: &[[usize; 3]],
) -> Option<String> {
    picks.iter().find_map(|&[e, i, j]| {
        let (ao, bo) = (d.a_offset(e), d.b_offset(e));
        let mut acc = <S::Acc as Scalar>::ZERO;
        for p in 0..d.k {
            let av = match d.ty.ta {
                Trans::No => a[ao + p * d.lda + i],
                Trans::Yes => a[ao + i * d.lda + p],
            };
            let bv = match d.ty.tb {
                Trans::No => b[bo + j * d.ldb + p],
                Trans::Yes => b[bo + p * d.ldb + j],
            };
            acc = av.widen().mul_add(bv.widen(), acc);
        }
        let idx = d.c_offset(e) + j * d.ldc + i;
        let want = S::narrow(alpha.mul_add(acc, beta * c_old[idx].widen()));
        (want != c_out[idx]).then(|| {
            format!(
                "entry {e} C({i},{j}) = {} but the FMA chain gives {want}",
                c_out[idx]
            )
        })
    })
}

impl ServeMixed {
    fn new_loop<'a>(
        &self,
        st: &'a mut State,
        phase: &'a mut Phase,
        seed: u64,
        deadlines: bool,
    ) -> Loop<'a> {
        let window_v = st.window_v;
        Loop {
            server: &mut st.server,
            phase,
            rng: Rng::new(seed),
            in_flight: HashMap::new(),
            recent: Vec::new(),
            results: HashMap::new(),
            next_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            window_v,
            deadlines,
            repeats_checked: 0,
            rejected: 0,
            missed: 0,
        }
    }
}

impl Workload for ServeMixed {
    type State = State;

    fn describe(&self) -> Vec<String> {
        let entries: std::collections::BTreeSet<_> =
            FRESH.iter().map(|(p, b)| (p.bytes(), *b)).collect();
        vec![
            format!(
                "closed loop, one thread, window of {} requests ({} fresh + {REPEATS} repeats of a recent input) per drain, {WINDOWS} windows per round",
                FRESH.len() + REPEATS,
                FRESH.len()
            ),
            format!(
                "  edges {}-{} in the 128, 256 and 512 buckets, f32/f64, all four types; tenants alpha:beta weighted 4:1",
                EDGES.0, EDGES.1
            ),
            format!(
                "  {} of every {} fresh requests carry a virtual deadline; one run_batched call (f32, f16, bf16 in turn, {BATCH_ENTRIES} entries, edges {}-{}) per window",
                DEADLINED.len(),
                FRESH.len(),
                BATCH_EDGE.0,
                BATCH_EDGE.1 - 1
            ),
            format!(
                "  server: two Tahiti devices, default ServeConfig; {} distinct (device, precision, bucket) kernel-cache entries against a capacity of 32",
                entries.len() + 1
            ),
        ]
    }

    fn rounds(&self, seconds: u64) -> usize {
        // One round takes about 1.2 s on the reference host.
        ((seconds as f64 / 1.2).round() as usize).max(3)
    }

    fn setup(&self, seed: u64, checks: &mut Vec<String>) -> State {
        let cfg = ServeConfig {
            tenant_weights: TENANTS
                .iter()
                .map(|(t, w)| ((*t).to_string(), *w))
                .collect(),
            ..ServeConfig::default()
        };
        let tahiti = DeviceId::Tahiti.spec();
        let server = GemmServer::new(vec![tahiti.clone(), tahiti], cfg);
        assert!(
            server.tuning_db().path().is_none(),
            "the tuning database must be in memory"
        );
        let mut st = State {
            server,
            window_v: 0.0,
        };
        let mut cold = Phase::default();
        {
            // Cold pass: every bucket cold-starts exactly once, inside
            // one call, and every refinement is absorbed before the next.
            let mut lp = self.new_loop(&mut st, &mut cold, seed ^ 0xc01d, false);
            lp.batched(0);
            lp.server.wait_refines();
            for class in 0..FRESH.len() {
                let req = make_request(Origin {
                    class,
                    slot: 0,
                    seed: class as u64,
                });
                lp.server.submit(req).expect("an empty server admits");
            }
            lp.server.drain();
            lp.server.take_responses();
            lp.server.wait_refines();
        }
        checks.append(&mut cold.check_failures);
        // Warm passes: full untimed rounds until one cold-starts nothing.
        for pass in 1.. {
            let before = st.server.stats();
            let v0 = virtual_now(&st.server);
            let mut warm = Phase::default();
            let mut lp = self.new_loop(&mut st, &mut warm, seed ^ 0x3a73, false);
            for slot in 0..WINDOWS {
                lp.window(slot);
            }
            checks.append(&mut warm.check_failures);
            st.server.wait_refines();
            let after = st.server.stats();
            st.window_v = (virtual_now(&st.server) - v0) / WINDOWS as f64;
            if after.predict_cold_starts == before.predict_cold_starts {
                break;
            }
            if pass == 4 {
                checks.push("set-up still cold-starts buckets after 4 warm passes".into());
                break;
            }
        }
        st
    }

    fn run(&self, st: &mut State, seed: u64, rounds: usize, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let before = st.server.stats();
        let (repeats_checked, rejected, missed) = {
            let mut lp = self.new_loop(st, &mut phase, seed, true);
            for _ in 0..rounds {
                for slot in 0..WINDOWS {
                    lp.window(slot);
                    tracer.between_ops();
                }
            }
            (lp.repeats_checked, lp.rejected, lp.missed)
        };
        phase.id("repeats_bit_identical", repeats_checked);
        let after = st.server.stats();
        let tally = ServeTally::between(&before, &after);
        let submitted = phase.attempted - phase.batched_calls;
        let answered = phase.ops - phase.batched_calls;
        let sum = tally.completed + tally.coalesced + tally.shed_batch + tally.shed_admit;
        phase.check(submitted == sum, || {
            format!("attempted {submitted} != completed + coalesced + shed + rejected = {sum}")
        });
        phase.check(
            answered == tally.completed + tally.coalesced
                && missed == tally.shed_batch
                && rejected == tally.shed_admit,
            || {
                format!(
                    "answers seen ({answered} completed, {missed} shed, {rejected} rejected) differ from the server's counts {tally:?}"
                )
            },
        );
        phase.check(tally.cold_starts == 0 && tally.refines == 0, || {
            format!(
                "{} cold starts and {} refinements in the timed phase",
                tally.cold_starts, tally.refines
            )
        });
        for (name, v) in tally.identity() {
            phase.id(name, v);
        }
        phase.tile_substitutions = tally.tile_substitutions;
        phase.notes.push(format!(
            "repeats answered from a coalesced execution: {} of {} completed requests ({:.1}%)",
            tally.coalesced,
            tally.completed + tally.coalesced,
            100.0 * tally.coalesced as f64 / (tally.completed + tally.coalesced).max(1) as f64
        ));
        phase.serve = Some(tally);
        phase
    }
}

impl ServeTally {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> ServeTally {
        ServeTally {
            // The server counts coalesced answers as completed too.
            completed: (b.completed - a.completed) - (b.coalesce_hits - a.coalesce_hits),
            coalesced: b.coalesce_hits - a.coalesce_hits,
            shed_admit: (b.rejected_deadline_admit - a.rejected_deadline_admit)
                + (b.shed_low_priority - a.shed_low_priority)
                + (b.rejected_queue_full - a.rejected_queue_full),
            shed_batch: b.rejected_deadline_late - a.rejected_deadline_late,
            batches: b.batches - a.batches,
            steals: b.steals - a.steals,
            cache_hits: b.cache_hits - a.cache_hits,
            cache_misses: b.cache_misses - a.cache_misses,
            cold_starts: b.predict_cold_starts - a.predict_cold_starts,
            refines: b.refines - a.refines,
            tile_substitutions: b.tile_substitutions - a.tile_substitutions,
        }
    }
}
