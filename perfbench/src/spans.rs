//! Span collection for the traced run, and the interval arithmetic the
//! per-layer metrics are computed with.
//!
//! The program records spans into fixed-size per-thread rings that
//! overwrite their oldest events when they wrap. The collector drains
//! the rings between ops, so no unread event is overwritten, and counts
//! the events that were pushed but never read (`events_lost`). The
//! program's own `dropped_events()` cannot answer that: it also counts
//! overwrites of events that were already collected.

use clgemm_trace::ring::{self, Event};
use clgemm_trace::{now_ns, set_enabled};
use std::collections::HashMap;

/// Collects spans while enabled; inert otherwise.
pub struct Tracer {
    on: bool,
    events: Vec<Event>,
    /// `now_ns()` at the previous collection.
    since_ns: u64,
    /// Events held plus events overwritten, at the previous collection.
    pushed: u64,
    lost: u64,
}

fn pushed_total(held: usize) -> u64 {
    held as u64 + ring::dropped_events()
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            events: Vec::new(),
            since_ns: 0,
            pushed: 0,
            lost: 0,
        }
    }

    /// Turn span recording on and start collecting.
    pub fn start() -> Tracer {
        let since_ns = now_ns();
        let pushed = pushed_total(ring::all_events().len());
        set_enabled(true);
        Tracer {
            on: true,
            events: Vec::new(),
            since_ns,
            pushed,
            lost: 0,
        }
    }

    /// Drain the rings. Called between ops, when no span is open and no
    /// other thread records, so every event pushed since the previous
    /// collection ended after it.
    pub fn between_ops(&mut self) {
        if !self.on {
            return;
        }
        let since = self.since_ns;
        self.since_ns = now_ns();
        let held = ring::all_events();
        let pushed = pushed_total(held.len());
        let before = self.events.len();
        self.events
            .extend(held.into_iter().filter(|e| e.end_ns() > since));
        let fresh = (self.events.len() - before) as u64;
        self.lost += (pushed - self.pushed).saturating_sub(fresh);
        self.pushed = pushed;
    }

    /// Final collection; turns span recording off.
    pub fn finish(mut self) -> Trace {
        self.between_ops();
        set_enabled(false);
        Trace::new(self.events, self.lost)
    }
}

/// The spans of one traced phase, indexed by name.
pub struct Trace {
    /// Sorted by thread, then start, then depth: a parent precedes the
    /// spans it contains.
    events: Vec<Event>,
    by_name: HashMap<&'static str, Vec<usize>>,
    pub lost: u64,
}

const NS: f64 = 1e-9;

impl Trace {
    fn new(mut events: Vec<Event>, lost: u64) -> Trace {
        events.sort_by_key(|e| (e.thread, e.start_ns, e.depth));
        let mut by_name: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            by_name.entry(e.name).or_default().push(i);
        }
        Trace {
            events,
            by_name,
            lost,
        }
    }

    pub fn all(&self, name: &str) -> impl Iterator<Item = &Event> {
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(|&i| &self.events[i])
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.len() as u64)
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.all(name).map(|e| e.dur_ns as f64 * NS).sum()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.all(name).map(|e| e.dur_ns as f64 * NS).collect()
    }

    /// Spans on the parent's thread that lie inside it and whose name is
    /// in `names`.
    fn inside(&self, parent: usize, names: &[&str]) -> Vec<&Event> {
        let p = self.events[parent];
        self.events[parent + 1..]
            .iter()
            .take_while(|e| e.thread == p.thread && e.start_ns < p.end_ns())
            .filter(|e| p.contains(e) && names.contains(&e.name))
            .collect()
    }

    /// Self time of every span called `parent`: its duration minus the
    /// part of it that spans named in `children` cover, in seconds.
    pub fn self_s(&self, parent: &str, children: &[&str]) -> f64 {
        let Some(idx) = self.by_name.get(parent) else {
            return 0.0;
        };
        idx.iter()
            .map(|&i| {
                let p = self.events[i];
                let mut spans: Vec<(u64, u64)> = self
                    .inside(i, children)
                    .into_iter()
                    .map(|e| (e.start_ns, e.end_ns()))
                    .collect();
                spans.sort_unstable();
                let mut covered = 0u64;
                let mut reach = p.start_ns;
                for (s, e) in spans {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                p.dur_ns.saturating_sub(covered) as f64 * NS
            })
            .sum()
    }

    /// Every span called `parent`, with the spans called `child` inside it.
    pub fn children(&self, parent: &str, child: &str) -> Vec<(&Event, Vec<&Event>)> {
        self.by_name
            .get(parent)
            .into_iter()
            .flatten()
            .map(|&i| (&self.events[i], self.inside(i, &[child])))
            .collect()
    }

    /// Every span called `child`, paired with the innermost span named
    /// in `parents` that contains it (if any).
    pub fn with_parent<'a>(
        &'a self,
        child: &str,
        parents: &'a [&str],
    ) -> impl Iterator<Item = (&'a Event, Option<&'a Event>)> + 'a {
        self.by_name
            .get(child)
            .into_iter()
            .flatten()
            .map(move |&i| {
                let c = &self.events[i];
                // Top-level spans on one thread do not overlap, so the
                // search ends at the first one that does not contain `c`.
                let parent = self.events[..i]
                    .iter()
                    .rev()
                    .take_while(|e| e.thread == c.thread && (e.depth > 0 || e.contains(c)))
                    .find(|e| parents.contains(&e.name) && e.contains(c) && e.depth < c.depth);
                (c, parent)
            })
    }
}
