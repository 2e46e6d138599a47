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
//! * [`SpanSink`] + [`profile`] — the trace stream: every traced
//!   capsule execution streams a span record with a parent edge
//!   (propagated across processes through the persistent frame words)
//!   and every runtime event ([`TraceKind`]: run/steal/adoption/
//!   shard-death/checkpoint/recovery/job) an event record, line-flushed
//!   into one file per process; the `ppm-trace` binary reconstructs the
//!   capsule DAG to measure the paper's W, D, parallelism, and
//!   fault-wasted work on real runs.
//!
//! [`Obs`] bundles one registry plus the process's trace stream, once
//! [`Obs::open_trace`] has opened it; a machine owns exactly one
//! `Arc<Obs>` and every subsystem built over that machine registers
//! into it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod metrics;
pub mod profile;
pub mod server;
pub mod span;

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

pub use aggregate::{inject_label, merge_scrapes};
pub use metrics::{
    Counter, CounterSource, Gauge, GaugeSource, Histogram, HistogramCells, HistogramSource,
    MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use profile::{
    expand_manifest, folded_stacks, write_manifest, Analysis, Event, SpanExec, TraceSet,
};
pub use server::{http_get, BodyFn, MetricsServer};
pub use span::{SpanSink, TraceKind};

/// Environment variable selecting the scrape port. Single-process runs
/// serve on exactly this port; a sharded coordinator serves the
/// aggregated view here and worker `s` serves on `port + 1 + s`.
pub const METRICS_PORT_ENV: &str = "PPM_METRICS_PORT";
/// Environment variable turning tracing on and naming the stream's
/// base path. A single-process run and a cluster coordinator write
/// `<file>.spans.jsonl`, cluster worker `k` writes
/// `<file>.shard<k>.spans.jsonl` (see [`SpanSink`]), and the coordinator
/// writes a `<file>.manifest` naming the whole family for `ppm-trace`.
pub const TRACE_FILE_ENV: &str = "PPM_TRACE_FILE";

/// One machine's observability handle: a metrics registry plus the
/// process's trace stream (absent until [`Obs::open_trace`] opens it),
/// shared by every subsystem built over that machine.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    sink: OnceLock<Arc<SpanSink>>,
}

impl Obs {
    /// A fresh handle: an empty registry, tracing off.
    pub fn new() -> Self {
        Obs::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Opens this process's trace stream when `PPM_TRACE_FILE` asks for
    /// one, and returns the base path it named. `origin` is 0 for a
    /// single-process run or a cluster coordinator and `shard + 1` for a
    /// cluster worker: it picks the file ([`SpanSink::path_for`] /
    /// [`SpanSink::shard_path_for`]) and, with `epoch`, the id bits of
    /// every span minted here. A recovery epoch (`epoch >= 2`) appends,
    /// so one file carries the whole multi-epoch story; a creating run
    /// truncates. The stream stays open for the life of the handle — a
    /// second call finds it open and changes nothing.
    pub fn open_trace(&self, origin: u32, epoch: u64) -> Option<PathBuf> {
        let base = Self::trace_file_from_env()?;
        if self.sink.get().is_none() {
            let path = match origin.checked_sub(1) {
                None => SpanSink::path_for(&base),
                Some(shard) => SpanSink::shard_path_for(&base, shard as usize),
            };
            let sink = SpanSink::create(&path, origin, epoch, epoch >= 2).ok()?;
            self.set_span_sink(Arc::new(sink));
        }
        Some(base)
    }

    /// Installs `sink` as the process's trace stream, unless one is
    /// already open. Every `ProcCtx` minted from the machine after this
    /// point emits span records into it.
    pub fn set_span_sink(&self, sink: Arc<SpanSink>) {
        let _ = self.sink.set(sink);
    }

    /// The open trace stream, if any.
    #[inline]
    pub fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.sink.get()
    }

    /// Writes an event record into the trace stream. With tracing off
    /// this is one load, and `detail` is never built.
    #[inline]
    pub fn event(
        &self,
        kind: TraceKind,
        shard: Option<u32>,
        proc: Option<u32>,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(sink) = self.sink.get() {
            sink.event(kind, shard, proc, &detail());
        }
    }

    /// Port requested via `PPM_METRICS_PORT`, if any.
    pub fn metrics_port_from_env() -> Option<u16> {
        std::env::var(METRICS_PORT_ENV).ok()?.parse().ok()
    }

    /// Trace base path requested via `PPM_TRACE_FILE`, if any.
    pub fn trace_file_from_env() -> Option<PathBuf> {
        std::env::var(TRACE_FILE_ENV).ok().map(Into::into)
    }

    /// Starts a [`MetricsServer`] on `port` rendering this handle's
    /// registry.
    pub fn serve(&self, port: u16) -> std::io::Result<MetricsServer> {
        let reg = self.registry.clone();
        MetricsServer::start(port, Arc::new(move || reg.render()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_with_tracing_off_never_builds_its_detail() {
        let obs = Obs::new();
        assert!(obs.span_sink().is_none());
        obs.event(TraceKind::Steal, None, Some(0), || {
            unreachable!("no stream is open")
        });
    }
}
