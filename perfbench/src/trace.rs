//! In-memory spans recorded around calls into the crates' public
//! functions, and the waterfall built from them.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! id of the request it belongs to. Spans stay in memory until the pass
//! ends. A span's self time is its duration minus the part of it that its
//! children cover; the self time of a request's root span is the part of
//! the client-visible time that no layer span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's end is known.
    pub fn reserve(&self) -> u32 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Records a finished span under a reserved id. Ends taken on another
    /// thread can precede the start by a hair; such a span records as empty.
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(end);
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start).min(end_ns),
            end_ns,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record_as(id, name, request, parent, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, request, parent, start, Instant::now());
        out
    }

    /// The instant a span time (ns since the tracer started) stands for.
    pub fn instant(&self, ns: u64) -> Instant {
        self.epoch + std::time::Duration::from_nanos(ns)
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Takes every recorded span, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The analysed spans of one pass.
pub struct Analysis {
    pub spans: Vec<Span>,
    /// Self time of each span, aligned with `spans`.
    pub self_ns: Vec<u64>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Analysis {
        let index: BTreeMap<u32, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(&p) = index.get(&s.parent) {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect();
        Analysis { spans, self_ns }
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Mean duration of the spans called `name`, in seconds (0 if none).
    pub fn mean_s(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_s(name))
    }

    /// Share of the root spans called `root` that no child span covers.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (s, &own_ns) in self.spans.iter().zip(&self.self_ns) {
            if s.name == root && s.parent == ROOT {
                own += own_ns;
                total += s.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// The waterfall of the requests whose root span is called `root`,
    /// grouped by `class_of(request id)`: per span path, the mean duration
    /// and mean self time per request of the class.
    pub fn waterfall(&self, root: &str, class_of: impl Fn(u64) -> Option<&'static str>) -> String {
        let index: BTreeMap<u32, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let path_of = |mut i: usize| {
            let mut names = vec![self.spans[i].name];
            while let Some(&p) = index.get(&self.spans[i].parent) {
                names.push(self.spans[p].name);
                i = p;
            }
            names.reverse();
            names
        };
        // class -> (requests, path -> (order, total ns, self ns))
        type Rows = BTreeMap<Vec<&'static str>, (usize, u64, u64)>;
        let mut classes: BTreeMap<&'static str, (u64, Rows)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let path = path_of(i);
            if path[0] != root {
                continue;
            }
            let Some(class) = class_of(s.request) else {
                continue;
            };
            let entry = classes.entry(class).or_default();
            if s.parent == ROOT {
                entry.0 += 1;
            }
            let order = entry.1.len();
            let row = entry.1.entry(path).or_insert((order, 0, 0));
            row.1 += s.duration_ns();
            row.2 += self.self_ns[i];
        }
        let mut out = String::new();
        for (class, (requests, rows)) in classes {
            let n = requests.max(1) as f64;
            out.push_str(&format!(
                "waterfall {root} / {class}: {requests} requests, mean per request\n"
            ));
            out.push_str(&format!(
                "  {:<44} {:>12} {:>12}\n",
                "span", "total_us", "self_us"
            ));
            let mut ordered: Vec<_> = rows.into_iter().collect();
            ordered.sort_by(|a, b| a.0.cmp(&b.0));
            for (path, (_, total, own)) in ordered {
                let label = format!("{}{}", "  ".repeat(path.len() - 1), path[path.len() - 1]);
                out.push_str(&format!(
                    "  {:<44} {:>12.2} {:>12.2}\n",
                    label,
                    total as f64 / n / 1e3,
                    own as f64 / n / 1e3
                ));
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(&self.self_ns) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end)` that the intervals cover.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let a = Analysis::new(vec![
            span(1, ROOT, "request", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 2, "c", 10, 20),
        ]);
        assert_eq!(a.self_ns, vec![50, 20, 30, 10]);
        assert!((a.unattributed_share("request") - 0.5).abs() < 1e-12);
        let text = a.waterfall("request", |_| Some("all"));
        assert!(text.contains("request / all: 1 requests"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 1, ROOT, |id| id + 5);
        assert_eq!(v, 5);
        assert!(t.take().is_empty());
        let on = Tracer::new(true);
        on.span("x", 1, ROOT, |id| on.span("y", 1, id, |_| ()));
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
    }
}
