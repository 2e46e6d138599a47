//! # `ppm-obs` — observability for the Parallel-PM runtime
//!
//! The paper's cost model (Blelloch, Gibbons, Gu, McGuffey and Shun,
//! SPAA 2018) is defined by counters — faultless work `W` vs. total work
//! `W_f`, maximum capsule work `C`, fault and restart counts — and the
//! runtime grew more (checkpoint skip/retry, shard adoption, lease
//! heartbeats, dirty-page flushing). This crate gives them one export
//! path:
//!
//! * [`MetricsRegistry`] — typed [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handles over relaxed atomics plus scrape-time collector closures,
//!   rendered in the Prometheus text exposition format (0.0.4).
//! * [`MetricsServer`] — a hand-rolled stdlib-`TcpListener` HTTP
//!   endpoint answering `GET /metrics` (the build is offline; no HTTP
//!   framework), with [`http_get`] as the matching one-shot client and
//!   [`inject_label`]/[`merge_scrapes`] so a sharded coordinator can
//!   aggregate per-worker scrapes under `shard` labels — keeping a dead
//!   worker's last-seen series visible through adoption.
//! * [`Tracer`] — a ring-buffered, sampled structured event trace
//!   (run/epoch/capsule/steal/adoption/checkpoint/recovery) flushed to a
//!   JSONL sidecar and summarized as [`TraceSummary`].
//! * [`SpanSink`] + [`profile`] — causal span tracing: every traced
//!   capsule execution streams a span record with a parent edge
//!   (propagated across processes through the persistent frame words),
//!   and the `ppm-trace` binary reconstructs the capsule DAG to measure
//!   the paper's W, D, parallelism, and fault-wasted work on real runs.
//!
//! [`Obs`] bundles one registry plus one tracer plus an optional span
//! sink; a machine owns exactly one `Arc<Obs>` and every subsystem
//! built over that machine registers into it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod metrics;
pub mod profile;
pub mod server;
pub mod span;
pub mod trace;

use std::sync::{Arc, Mutex};

pub use aggregate::{inject_label, merge_scrapes};
pub use metrics::{
    Counter, CounterSource, Gauge, GaugeSource, Histogram, HistogramCells, HistogramSource,
    MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use profile::{expand_manifest, folded_stacks, Analysis, SpanExec, TraceSet};
pub use server::{http_get, BodyFn, MetricsServer};
pub use span::SpanSink;
pub use trace::{
    shard_trace_path, TraceEvent, TraceKind, TraceSummary, Tracer, DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_SAMPLE,
};

/// Environment variable selecting the scrape port. Single-process runs
/// serve on exactly this port; a sharded coordinator serves the
/// aggregated view here and worker `s` serves on `port + 1 + s`.
pub const METRICS_PORT_ENV: &str = "PPM_METRICS_PORT";
/// Environment variable naming the JSONL trace sidecar file. Setting it
/// enables the tracer. Cluster workers write `<file>.shard<k>.jsonl`
/// (see [`shard_trace_path`]) and every process additionally streams
/// causal spans to `<file>.spans.jsonl` /
/// `<file>.shard<k>.spans.jsonl` (see [`SpanSink`]); the coordinator
/// writes a `<file>.manifest` naming the whole family for `ppm-trace`.
pub const TRACE_FILE_ENV: &str = "PPM_TRACE_FILE";
/// Environment variable overriding the trace sampling divisor for
/// high-rate kinds (default [`DEFAULT_TRACE_SAMPLE`]).
pub const TRACE_SAMPLE_ENV: &str = "PPM_TRACE_SAMPLE";

/// One machine's observability handle: a metrics registry plus an event
/// tracer plus an optional causal span sink, shared by every subsystem
/// built over that machine.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    span_sink: Mutex<Option<Arc<SpanSink>>>,
}

impl Obs {
    /// A fresh handle (tracer disabled, default capacity), honoring the
    /// `PPM_TRACE_FILE` / `PPM_TRACE_SAMPLE` environment knobs.
    pub fn new() -> Self {
        let obs = Obs {
            registry: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::new(DEFAULT_TRACE_CAPACITY)),
            span_sink: Mutex::new(None),
        };
        if std::env::var(TRACE_FILE_ENV).is_ok() {
            obs.tracer.enable();
        }
        if let Some(n) = std::env::var(TRACE_SAMPLE_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
        {
            obs.tracer.set_sample(n);
        }
        // Silent trace loss was invisible before this counter: the ring
        // overwrites its oldest events with no signal anywhere. Scrapes
        // now carry the running drop count.
        let tracer = obs.tracer.clone();
        obs.registry.counter_fn(
            "ppm_trace_dropped_total",
            "Trace events lost to ring-buffer capacity overwrites",
            &[],
            move || tracer.dropped(),
        );
        obs
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Installs the process-wide causal span sink. Every `ProcCtx`
    /// minted from the machine after this point emits span records
    /// into it (see [`SpanSink`]).
    pub fn set_span_sink(&self, sink: Arc<SpanSink>) {
        *self.span_sink.lock().unwrap() = Some(sink);
    }

    /// The installed span sink, if any.
    pub fn span_sink(&self) -> Option<Arc<SpanSink>> {
        self.span_sink.lock().unwrap().clone()
    }

    /// Port requested via `PPM_METRICS_PORT`, if any.
    pub fn metrics_port_from_env() -> Option<u16> {
        std::env::var(METRICS_PORT_ENV).ok()?.parse().ok()
    }

    /// Trace sidecar path requested via `PPM_TRACE_FILE`, if any.
    pub fn trace_file_from_env() -> Option<std::path::PathBuf> {
        std::env::var(TRACE_FILE_ENV).ok().map(Into::into)
    }

    /// Starts a [`MetricsServer`] on `port` rendering this handle's
    /// registry.
    pub fn serve(&self, port: u16) -> std::io::Result<MetricsServer> {
        let reg = self.registry.clone();
        MetricsServer::start(port, Arc::new(move || reg.render()))
    }
}
