//! Two-clock spans recorded from the benchmark's own code around each
//! call into a layer's public API.
//!
//! A span carries its name (`<layer>.<call>`), the request id it serves,
//! its parent span (or the closed-loop lane it belongs to when it is a
//! top-level call of a driver loop), and its start and end in both
//! virtual time (`rt.now()`) and host time (`Instant`). Spans stay in
//! memory until the run ends; [`Tracer::write_chrome`] then writes them
//! out as Chrome trace-event JSON.
//!
//! A disabled tracer ([`Tracer::off`]) records nothing and never touches
//! the simulation, so a traced and an untraced run of one seed produce
//! the same virtual-time metrics — the benchmark asserts that.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simkit::runtime::Runtime;

/// Handle of an open span, used as the parent of nested calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Where a new span hangs in the tree.
#[derive(Clone, Copy, Debug)]
pub enum At {
    /// A top-level call of closed-loop driver `lane`: the lane's
    /// top-level spans must tile its virtual-time region exactly.
    Lane(u32),
    /// A call made on behalf of an enclosing span.
    Child(Option<SpanId>),
    /// A top-level call outside any checked loop (for example inside a
    /// library-owned task such as the `dlio` producer).
    Free,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub lane: Option<u32>,
    pub vt: (u64, u64),
    pub host: (u64, u64),
}

impl Span {
    /// The layer a span belongs to: its name up to the last dot.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }

    pub fn vt_ns(&self) -> u64 {
        self.vt.1 - self.vt.0
    }

    pub fn host_ns(&self) -> u64 {
        self.host.1.saturating_sub(self.host.0)
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    /// Virtual-time region of each closed-loop lane.
    lanes: BTreeMap<u32, (u64, u64)>,
}

/// Shared span recorder; cheap to clone into simulated tasks.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Mutex<Inner>>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            lanes: BTreeMap::new(),
        }))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn inner(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.0
            .as_ref()
            .map(|m| m.lock().expect("tracer lock poisoned by a panicking task"))
    }

    /// Open a span; returns `None` when tracing is off.
    pub fn begin(&self, rt: &Runtime, name: &'static str, req: u64, at: At) -> Option<SpanId> {
        let mut g = self.inner()?;
        let (parent, lane) = match at {
            At::Lane(l) => (None, Some(l)),
            At::Child(p) => (p.map(|p| p.0), None),
            At::Free => (None, None),
        };
        let host = g.epoch.elapsed().as_nanos() as u64;
        let vt = rt.now().0;
        g.spans.push(Span {
            name,
            req,
            parent,
            lane,
            vt: (vt, vt),
            host: (host, host),
        });
        Some(SpanId(g.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, rt: &Runtime, id: Option<SpanId>) {
        let (Some(mut g), Some(id)) = (self.inner(), id) else {
            return;
        };
        let host = g.epoch.elapsed().as_nanos() as u64;
        let s = &mut g.spans[id.0];
        s.vt.1 = rt.now().0;
        s.host.1 = host;
    }

    /// Run `f` inside a span; `f` gets the span id to parent nested calls.
    pub fn span<T>(
        &self,
        rt: &Runtime,
        name: &'static str,
        req: u64,
        at: At,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.begin(rt, name, req, at);
        let out = f(id);
        self.end(rt, id);
        out
    }

    /// Record the virtual-time region a closed-loop lane ran over.
    pub fn lane_region(&self, lane: u32, vt0: u64, vt1: u64) {
        if let Some(mut g) = self.inner() {
            g.lanes.insert(lane, (vt0, vt1));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner().map(|g| g.spans.clone()).unwrap_or_default()
    }

    /// Check that every lane's top-level spans tile its virtual-time
    /// region exactly: the first starts at the region start, each starts
    /// where the previous ended, and the last ends at the region end.
    /// Returns one message per violation.
    pub fn coverage_errors(&self) -> Vec<String> {
        let Some(g) = self.inner() else {
            return Vec::new();
        };
        let mut errs = Vec::new();
        for (&lane, &(start, end)) in &g.lanes {
            let mut cursor = start;
            let mut n = 0usize;
            for s in g.spans.iter().filter(|s| s.lane == Some(lane)) {
                if s.vt.0 != cursor {
                    errs.push(format!(
                        "lane {lane}: span {} (req {}) starts at {} ns, previous ended at {} ns",
                        s.name, s.req, s.vt.0, cursor
                    ));
                }
                cursor = s.vt.1;
                n += 1;
            }
            if cursor != end {
                errs.push(format!(
                    "lane {lane}: {n} top-level spans end at {cursor} ns, region ends at {end} ns"
                ));
            }
        }
        errs
    }

    /// Per-layer self time in both clocks: each span's duration minus the
    /// part of its interval that its children cover. Returns
    /// `layer -> (spans, vt self ns, host self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let vt_cover = covered(s.vt, kids[i].iter().map(|&k| spans[k].vt));
            let host_cover = covered(s.host, kids[i].iter().map(|&k| spans[k].host));
            let e = out.entry(s.layer()).or_default();
            e.0 += 1;
            e.1 += s.vt_ns() - vt_cover;
            e.2 += s.host_ns().saturating_sub(host_cover);
        }
        out
    }

    /// Host time attributed to the top-level lane spans named `name`,
    /// when several lanes are open at once: every host-time instant is
    /// shared equally among the lane spans open at that instant (the
    /// scheduler runs one simulated task at a time, so overlapping wall
    /// intervals are not each a full cost). Returns `(spans, ns)`.
    pub fn shared_host_ns(&self, name: &str) -> (u64, u64) {
        let spans = self.spans();
        let mut edges: Vec<(u64, bool, bool)> = Vec::new();
        for s in spans.iter().filter(|s| s.lane.is_some()) {
            let mine = s.name == name;
            edges.push((s.host.0, true, mine));
            edges.push((s.host.1, false, mine));
        }
        // Close before open at the same instant, so a span is never
        // counted as overlapping its successor.
        edges.sort_by_key(|&(t, open, _)| (t, open));
        let (mut open_all, mut open_mine, mut last, mut acc) = (0u64, 0u64, 0u64, 0f64);
        for (t, open, mine) in edges {
            if open_all > 0 {
                acc += (t - last) as f64 * open_mine as f64 / open_all as f64;
            }
            last = t;
            let d = if open { 1i64 } else { -1 };
            open_all = (open_all as i64 + d) as u64;
            if mine {
                open_mine = (open_mine as i64 + d) as u64;
            }
        }
        let count = spans
            .iter()
            .filter(|s| s.lane.is_some() && s.name == name)
            .count();
        (count as u64, acc.round() as u64)
    }

    /// Write every span as a Chrome trace-event JSON file (`ts`/`dur` in
    /// virtual microseconds, host times in `args`), plus the per-layer
    /// self-time table and any extra `notes`.
    pub fn write_chrome(&self, path: &std::path::Path, notes: &[(&str, String)]) {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let tid = s.lane.map_or(0, |l| l + 1);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"req\":{},\"parent\":{},\
                 \"host_start_ns\":{},\"host_dur_ns\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer(),
                s.vt.0 as f64 / 1e3,
                s.vt_ns() as f64 / 1e3,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.host.0,
                s.host_ns(),
            );
        }
        out.push_str("\n],\"selfTime\":{");
        for (i, (layer, (n, vt, host))) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{layer}\":{{\"spans\":{n},\"vt_ns\":{vt},\"host_ns\":{host}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("},\"notes\":{");
        for (i, (k, v)) in notes.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":\"{v}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("}}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("perfbench: cannot write trace {}: {e}", path.display());
        }
    }
}

/// Length of the part of `span` covered by the union of `kids`.
fn covered(span: (u64, u64), kids: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .map(|(a, b)| (a.max(span.0), b.min(span.1)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut end) = (0u64, span.0);
    for (a, b) in iv {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(
            covered((10, 20), [(5, 12), (11, 15), (18, 30)].into_iter()),
            7
        );
        assert_eq!(covered((0, 10), std::iter::empty()), 0);
    }
}
