//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the program's public functions,
//! so each span's name starts with the layer it enters (`serve.request`,
//! `ingest.run`, `query.run`, …). Spans stay in memory until the run
//! ends; [`chrome_trace_json`] writes them out and
//! [`self_time_by_layer`] turns them into per-layer self time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the run (1-based).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Small per-thread number for the trace viewer.
    pub tid: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer the span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// A span recorder; the disabled recorder records nothing and costs a
/// branch per span.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Option<Arc<Inner>>,
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    inner: Option<Arc<Inner>>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // racecheck: a unique id per thread; it publishes no other data.
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn enabled() -> Spans {
        Spans {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                done: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Spans {
        Spans::default()
    }

    /// Opens span `name` caused by span `parent` (0 for none).
    pub fn open(&self, name: &'static str, parent: u64) -> Guard {
        let (id, start_ns) = match &self.inner {
            // racecheck: span ids only need to be unique.
            Some(inner) => (
                inner.next_id.fetch_add(1, Ordering::Relaxed),
                inner.origin.elapsed().as_nanos() as u64,
            ),
            None => (0, 0),
        };
        Guard {
            inner: self.inner.clone(),
            id,
            parent,
            name,
            start_ns,
        }
    }

    /// Every span finished so far, in finishing order.
    pub fn finished(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.done.lock().expect("span list lock poisoned").clone(),
            None => Vec::new(),
        }
    }
}

impl Guard {
    /// This span's id, to pass as the parent of spans it causes (0 when
    /// the recorder is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else { return };
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tid: thread_number(),
            start_ns: self.start_ns,
            end_ns: inner.origin.elapsed().as_nanos() as u64,
        };
        if let Ok(mut done) = inner.done.lock() {
            done.push(span);
        }
    }
}

/// Spans as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
/// complete (`"ph": "X"`) event per span, with the span and parent ids
/// in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                mssg_obs::json::escape(s.name),
                mssg_obs::json::escape(s.layer()),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
}

/// Self time per layer, nanoseconds: each span's duration minus the part
/// of its interval that its children cover (children may overlap one
/// another, so their union is subtracted), summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        *out.entry(s.layer()).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.rep", 0, 100),
            span(2, 1, "serve.request", 10, 50),
            span(3, 1, "serve.request", 30, 70),
            span(4, 2, "epoch.pin", 20, 25),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 40); // 100 − [10, 70)
        assert_eq!(t["serve"], 35 + 40); // (40 − 5) + 40
        assert_eq!(t["epoch"], 5);
    }

    #[test]
    fn recorder_keeps_parents_and_writes_parseable_json() {
        let spans = Spans::enabled();
        {
            let root = spans.open("bench.rep", 0);
            let _child = spans.open("query.run", root.id());
        }
        let done = spans.finished();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].name, "query.run");
        assert_eq!(done[0].parent, done[1].id);
        let json = mssg_obs::json::parse(&chrome_trace_json(&done)).unwrap();
        assert_eq!(
            json.get("traceEvents").unwrap().as_array().unwrap().len(),
            2
        );
        assert!(Spans::disabled().open("x.y", 0).id() == 0);
    }
}
