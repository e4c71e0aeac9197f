//! Observability-layer integration: concurrent metric recording must
//! merge exactly (no lost updates, no double counting), and the serving
//! layer must emit a coherent per-request span lifecycle
//! (enqueue → queue-wait → execute → complete) that nests inside its
//! batch span.

use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::GemmType;
use clgemm_device::DeviceId;
use clgemm_serve::{GemmPayload, GemmRequest, GemmServer, ServeConfig};
use clgemm_shim::Rng;
use clgemm_trace::ring::{events_since, Event};
use clgemm_trace::{MetricValue, Registry};

/// What one worker thread did to the shared registry, tallied locally.
#[derive(Default, Clone, Copy)]
struct LocalTally {
    counter_adds: u64,
    observes: u64,
    observed_sum: u64,
    spans: u64,
}

/// Hammer one registry's counters, histograms and the span rings from
/// every available core with a seeded workload, then check the merged
/// snapshot against the sum of the per-thread tallies. The seqlock
/// rings and lock-free metric handles must lose nothing.
#[test]
fn concurrent_recording_merges_exactly() {
    clgemm_trace::set_enabled(true);
    const THREADS: usize = 8;
    const OPS: usize = 400;

    let reg = Registry::new();
    let counter = reg.counter("prop_hits_total");
    let hist = reg.histogram("prop_latency_seconds", 1e-9);
    let threads: Vec<u64> = (0..THREADS as u64).collect();

    let tallies: Vec<LocalTally> = clgemm_shim::par::par_map(&threads, |_, &t| {
        let mut rng = Rng::new(0x0B5E_ED00 + t);
        let mut tally = LocalTally::default();
        for i in 0..OPS {
            match rng.range(0, 3) {
                0 => {
                    let k = rng.range(1, 100) as u64;
                    counter.add(k);
                    tally.counter_adds += k;
                }
                1 => {
                    let v = rng.next_u64() % 1_000_000;
                    hist.observe(v);
                    tally.observes += 1;
                    tally.observed_sum += v;
                }
                _ => {
                    let _outer = clgemm_trace::span!("prop.span", (t << 32) | i as u64);
                    if rng.bool() {
                        let _inner = clgemm_trace::span!("prop.inner", (t << 32) | i as u64);
                    }
                    tally.spans += 1;
                }
            }
        }
        tally
    });

    let counter_total: u64 = tallies.iter().map(|t| t.counter_adds).sum();
    let observes: u64 = tallies.iter().map(|t| t.observes).sum();
    let observed_sum: u64 = tallies.iter().map(|t| t.observed_sum).sum();
    let spans: u64 = tallies.iter().map(|t| t.spans).sum();

    let snap = reg.snapshot();
    assert_eq!(snap.counter("prop_hits_total"), Some(counter_total));
    let h = snap.hist("prop_latency_seconds").expect("hist");
    assert_eq!(h.count, observes);
    // Count and sum are exact atomics; quantiles are bucketed estimates
    // bounded by the true extremes.
    assert!((h.sum - observed_sum as f64 * 1e-9).abs() < 1e-9);
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);

    // Every span landed in some thread's ring exactly once.
    let outer: Vec<Event> = clgemm_trace::ring::all_events()
        .into_iter()
        .filter(|e| e.name == "prop.span")
        .collect();
    assert_eq!(outer.len() as u64, spans, "span events lost or duplicated");
    // Inner spans report a deeper nesting level than their outer span
    // and stay inside its interval on the same thread.
    for inner in clgemm_trace::ring::all_events()
        .iter()
        .filter(|e| e.name == "prop.inner")
    {
        let parent = outer
            .iter()
            .find(|o| o.tag == inner.tag && o.thread == inner.thread)
            .expect("inner span without its outer span");
        assert!(parent.depth < inner.depth);
        assert!(parent.contains(inner), "inner span escaped its parent");
    }

    // The snapshot's typed accessors agree with the raw entry list.
    assert!(matches!(
        snap.get("prop_hits_total"),
        Some(MetricValue::Counter(v)) if *v == counter_total
    ));
}

fn request(m: usize, n: usize, k: usize) -> GemmRequest {
    GemmRequest::new(
        GemmType::NN,
        GemmPayload::F64 {
            alpha: 1.0,
            a: Matrix::test_pattern(m, k, StorageOrder::ColMajor, 1),
            b: Matrix::test_pattern(k, n, StorageOrder::ColMajor, 2),
            beta: 0.5,
            c: Matrix::test_pattern(m, n, StorageOrder::ColMajor, 3),
        },
    )
}

/// Serve a small workload and check each request's span lifecycle:
/// an enqueue event, a queue-wait span starting at admission, an
/// execute span nested inside a batch-execute span on the same thread,
/// and a completion event after execution — in that order.
#[test]
fn serving_emits_a_coherent_span_lifecycle_per_request() {
    clgemm_trace::set_enabled(true);
    let t0 = clgemm_trace::now_ns();

    let mut server = GemmServer::new(
        vec![DeviceId::Tahiti.spec(), DeviceId::Fermi.spec()],
        ServeConfig {
            registry: Some(Registry::new()),
            ..Default::default()
        },
    );
    let mut ids = Vec::new();
    for i in 0..6 {
        let sz = 24 + 8 * i;
        ids.push(server.submit(request(sz, sz, sz)).expect("queue has room"));
    }
    assert_eq!(server.drain(), ids.len());

    let events: Vec<Event> = events_since(t0);
    let find = |name: &str, tag: u64| -> Vec<&Event> {
        events
            .iter()
            .filter(|e| e.name == name && e.tag == tag)
            .collect()
    };
    let batches: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "serve.batch.execute")
        .collect();
    assert!(!batches.is_empty(), "no batch-execute span recorded");

    for &id in &ids {
        let enq = find("serve.request.enqueue", id);
        assert_eq!(enq.len(), 1, "request {id}: want one enqueue event");
        let wait = find("serve.request.queue_wait", id);
        assert_eq!(wait.len(), 1, "request {id}: want one queue-wait span");
        let exec = find("serve.request.execute", id);
        assert_eq!(exec.len(), 1, "request {id}: want one execute span");
        let done = find("serve.request.complete", id);
        assert_eq!(done.len(), 1, "request {id}: want one complete event");

        // Lifecycle order on the trace clock.
        assert!(enq[0].start_ns >= t0);
        // The wait span starts at the admission timestamp, which is
        // captured just before the enqueue event fires.
        assert!(
            wait[0].start_ns <= enq[0].start_ns,
            "request {id}: queue wait began after the enqueue event"
        );
        assert!(
            exec[0].start_ns >= wait[0].end_ns(),
            "request {id}: executed while still queued"
        );
        assert!(
            done[0].start_ns >= exec[0].end_ns(),
            "request {id}: completed before execution finished"
        );

        // The execute span nests inside exactly one batch span, on the
        // batch's thread, one level deeper.
        let parents: Vec<_> = batches
            .iter()
            .filter(|b| b.thread == exec[0].thread && b.contains(exec[0]))
            .collect();
        assert_eq!(
            parents.len(),
            1,
            "request {id}: execute span must nest in exactly one batch"
        );
        assert!(parents[0].depth < exec[0].depth);
    }

    // Batch spans carry the batch id as their tag and cover disjoint
    // request sets whose union is the whole workload.
    let covered: usize = batches
        .iter()
        .map(|b| {
            events
                .iter()
                .filter(|e| {
                    e.name == "serve.request.execute" && e.thread == b.thread && b.contains(e)
                })
                .count()
        })
        .sum();
    assert_eq!(covered, ids.len());
}

/// Parallel calls reuse the pool's threads, so repeated calls leave at
/// most one span ring per pool worker instead of registering (and
/// never freeing) a fresh ring per spawned thread per call.
#[test]
fn repeated_parallel_calls_record_on_the_pool_threads() {
    clgemm_trace::set_enabled(true);
    let t0 = clgemm_trace::now_ns();
    clgemm_trace::event!("pool_reuse.caller", 0);
    let items: Vec<u64> = (0..4).collect();
    for call in 0..100u64 {
        clgemm_shim::par::par_map(&items, |_, &i| {
            let _g = clgemm_trace::span!("pool_reuse.item", (call << 32) | i);
        });
    }
    let events = events_since(t0);
    let caller = events
        .iter()
        .find(|e| e.name == "pool_reuse.caller")
        .expect("the caller's event")
        .thread;
    let items: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "pool_reuse.item")
        .collect();
    assert_eq!(items.len(), 400, "one span per item");
    let others: std::collections::HashSet<u32> = items
        .iter()
        .map(|e| e.thread)
        .filter(|&t| t != caller)
        .collect();
    let workers = clgemm_shim::par::worker_count(usize::MAX);
    assert!(
        others.len() <= workers,
        "{} threads besides the caller, pool size {workers}",
        others.len()
    );
}
