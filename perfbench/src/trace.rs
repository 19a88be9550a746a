//! The benchmark's own span recorder for the traced run.
//!
//! Each call the benchmark makes into a layer of the program can be
//! wrapped in a span: layer, call name, start, end, parent span and
//! the id of the request it serves. Spans live in memory and are
//! written out when the run ends. A layer's self time is its span time
//! minus the time its child spans cover. When tracing is off a span is
//! one branch around the call.

use crate::util::{json_str, median_u64};
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for the JSON file; aggregates count every span.
const KEPT_SPANS: usize = 200_000;

struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    req: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Span {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    workload: &'static str,
}

#[derive(Default, Clone, Copy)]
struct LayerAgg {
    spans: u64,
    total_ns: u64,
    self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    workload: &'static str,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    layers: BTreeMap<(&'static str, &'static str), LayerAgg>,
    /// Durations per (workload, call name), so that a figure taken in
    /// one workload's run holds only that run's calls.
    samples: BTreeMap<(&'static str, &'static str), Vec<u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            workload: "",
            next_id: 1,
            stack: Vec::new(),
            // Reserved up front so that growing it does not stall a run.
            kept: Vec::with_capacity(if on { KEPT_SPANS } else { 0 }),
            dropped: 0,
            layers: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Labels the spans that follow with the workload that makes them.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`; `name` also keys the call's
    /// duration samples.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        self.begin(layer, name, req);
        let out = f();
        self.end();
        out
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            layer,
            name,
            req,
            start_ns,
            child_ns: 0,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without begin");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.close(open, end_ns, dur);
    }

    fn close(&mut self, open: Open, end_ns: u64, dur: u64) {
        let agg = self.layers.entry((self.workload, open.layer)).or_default();
        agg.spans += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        self.samples
            .entry((self.workload, open.name))
            .or_insert_with(|| Vec::with_capacity(1 << 16))
            .push(dur);
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                name: open.name,
                req: open.req,
                start_ns: open.start_ns,
                end_ns,
                workload: self.workload,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Median duration, in ns, of the spans named `name` that the
    /// current workload made.
    pub fn median_ns(&self, name: &'static str) -> f64 {
        self.samples
            .get(&(self.workload, name))
            .map_or(0.0, |s| median_u64(s))
    }

    /// The per-layer self-time table, one line per (workload, layer).
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<16} {:<12} {:>10} {:>12} {:>12} {:>12}\n",
            "workload", "layer", "spans", "total_ms", "self_ms", "self_ns/span"
        );
        for ((workload, layer), agg) in &self.layers {
            out.push_str(&format!(
                "{:<16} {:<12} {:>10} {:>12.3} {:>12.3} {:>12.0}\n",
                workload,
                layer,
                agg.spans,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6,
                agg.self_ns as f64 / agg.spans.max(1) as f64
            ));
        }
        out
    }

    /// Writes the kept spans and the self-time table as one JSON file.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"dropped_spans\":{},\"layers\":[", self.dropped)?;
        for (i, ((workload, layer), agg)) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "{{\"workload\":{},\"layer\":{},\"spans\":{},\"total_ns\":{},\"self_ns\":{}}}",
                json_str(workload),
                json_str(layer),
                agg.spans,
                agg.total_ns,
                agg.self_ns
            )?;
        }
        write!(w, "],\"spans\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{},\"workload\":{},\"layer\":{},\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                json_str(s.workload),
                json_str(s.layer),
                json_str(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
