//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is opened just before a public call into a layer and closed
//! just after it. Spans live in memory and are written out when the
//! run ends. Layer spans are opened from outside the program and never
//! nest in one another (only in the per-operation span), so a layer's
//! self time is the sum of its spans' durations.

use std::io::Write;
use std::time::Instant;

use crate::util::{median, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One timed operation of the workload (the root of its spans).
    Op,
    OverlayStore,
    CoreGroups,
    CoreDataplane,
    Sim,
    SimDetector,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Op,
        Layer::OverlayStore,
        Layer::CoreGroups,
        Layer::CoreDataplane,
        Layer::Sim,
        Layer::SimDetector,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "bench.op",
            Layer::OverlayStore => "overlay.store",
            Layer::CoreGroups => "core.groups",
            Layer::CoreDataplane => "core.dataplane",
            Layer::Sim => "sim",
            Layer::SimDetector => "sim.detector",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Index of the operation this span belongs to.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Open-span token returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// In-memory span recorder. While switched off, `enter`/`exit` cost a
/// branch and record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    ops: u32,
}

/// Per-layer totals computed from the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Sum of span durations: the layer's self time.
    pub busy_s: f64,
    pub calls: usize,
    pub call_ms_p50: f64,
    pub call_ms: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// Switch only between operations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        if layer == Layer::Op {
            self.ops += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            op: self.ops,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let open = self.enter(layer);
        let r = f();
        self.exit(open);
        r
    }

    /// Busy time, call count and median call time per layer.
    pub fn layer_times(&self) -> Vec<(Layer, LayerTimes)> {
        Layer::ALL
            .iter()
            .map(|&layer| {
                let mut t = LayerTimes::default();
                for s in self.spans.iter().filter(|s| s.layer == layer) {
                    let dur = s.end_ns - s.start_ns;
                    t.busy_s += dur as f64 * 1e-9;
                    t.calls += 1;
                    t.call_ms.push(dur as f64 * 1e-6);
                }
                t.call_ms_p50 = median(&t.call_ms);
                (layer, t)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line
    /// (`id op layer start_ns end_ns`) plus a per-layer summary.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# layer\tcalls\tbusy_s\tcall_ms_p50\tcall_ms_p99")?;
        for (layer, t) in self.layer_times() {
            writeln!(
                out,
                "# {}\t{}\t{:.6}\t{:.6}\t{:.6}",
                layer.name(),
                t.calls,
                t.busy_s,
                t.call_ms_p50,
                quantile(&t.call_ms, 0.99)
            )?;
        }
        writeln!(out, "id\top\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
