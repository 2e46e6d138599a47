//! The metrics registry: typed counter/gauge/histogram handles over
//! relaxed atomics, plus collector closures for values owned elsewhere,
//! rendered in the Prometheus text exposition format (version 0.0.4).
//!
//! Handles are cheap `Arc`-clones; recording is a single relaxed atomic
//! op, so instrumentation sits on hot paths (steal loops, capsule
//! boundaries) without perturbing the concurrency being measured.
//! Registration is **get-or-create** keyed on `(name, labels)`: recovery
//! paths rebuild scheduler objects against the same machine and must end
//! up sharing series, not duplicating them. Collector closures
//! (`counter_fn` / `gauge_fn`) instead **replace** an existing entry,
//! because a rebuilt object's closure captures the new object.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone event counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not (yet) attached to any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: upper bounds `2^0 .. 2^(N-2)` plus `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 23;

/// The cells of one histogram, usable inline (no `Arc`): a subsystem
/// keeping one histogram per processor embeds them in its per-processor
/// block and exports their sum via [`MetricsRegistry::histogram_fn`].
#[derive(Debug, Default)]
pub struct HistogramCells {
    /// Non-cumulative per-bucket counts (rendered cumulatively).
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCells {
    /// Index of the first bucket whose upper bound covers `v`.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            let lg = 64 - (v - 1).leading_zeros() as usize;
            lg.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// [`HistogramCells::observe`] for cells only the calling thread
    /// writes (a per-processor block): relaxed loads and stores, no
    /// locked read-modify-write. Concurrent readers see each cell
    /// monotone, as with `observe`.
    #[inline]
    pub fn observe_single_writer(&self, v: u64) {
        let add = |cell: &AtomicU64, n: u64| {
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        };
        add(&self.buckets[Self::bucket_of(v)], 1);
        add(&self.sum, v);
        add(&self.count, 1);
    }
}

/// Log₂-bucketed histogram of `u64` observations (latencies in µs, run
/// lengths in pages, capsule work in transfers). Fixed bucket layout
/// keeps `observe` allocation-free and merge-friendly.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// A histogram not (yet) attached to any registry.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }

    /// Adds every observation recorded in `cells` (merging per-processor
    /// cells into one series at scrape time).
    pub fn absorb(&self, cells: &HistogramCells) {
        let add = |to: &AtomicU64, from: &AtomicU64| {
            to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        };
        for (to, from) in self.0.buckets.iter().zip(&cells.buckets) {
            add(to, from);
        }
        add(&self.0.sum, &cells.sum);
        add(&self.0.count, &cells.count);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`), or `None` while the histogram is empty. Bucket
    /// granularity means the answer is the power-of-two ceiling of the
    /// true quantile — good enough to seed backoff windows and summarize
    /// tail latency.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for i in 0..HISTOGRAM_BUCKETS {
            acc += self.0.buckets[i].load(Ordering::Relaxed);
            if acc >= rank {
                return Some(if i == HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                });
            }
        }
        None
    }

    /// `(upper_bound, cumulative_count)` pairs; the last entry is `+Inf`
    /// (represented as `u64::MAX`).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0;
        (0..HISTOGRAM_BUCKETS)
            .map(|i| {
                acc += self.0.buckets[i].load(Ordering::Relaxed);
                let le = if i == HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                };
                (le, acc)
            })
            .collect()
    }
}

/// Collector closure producing a counter value on scrape.
pub type CounterSource = Arc<dyn Fn() -> u64 + Send + Sync>;
/// Collector closure producing a gauge value on scrape.
pub type GaugeSource = Arc<dyn Fn() -> f64 + Send + Sync>;
/// Collector closure producing a histogram's contents on scrape.
pub type HistogramSource = Arc<dyn Fn() -> Histogram + Send + Sync>;

enum MetricValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    CounterFn(CounterSource),
    GaugeFn(GaugeSource),
    HistogramFn(HistogramSource),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) | MetricValue::CounterFn(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::GaugeFn(_) => "gauge",
            MetricValue::Histogram(_) | MetricValue::HistogramFn(_) => "histogram",
        }
    }
}

struct MetricEntry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    value: MetricValue,
}

/// The process-wide registry one [`crate::Obs`] handle owns: every
/// subsystem registers its counters here and the exporter renders them
/// all on each scrape.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "MetricsRegistry({n} entries)")
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], value: MetricValue) {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.labels == labels)
        {
            e.help = help.to_string();
            e.value = value;
        } else {
            entries.push(MetricEntry {
                name: name.to_string(),
                help: help.to_string(),
                labels,
                value,
            });
        }
    }

    fn get_or_create<T: Clone>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        existing: impl Fn(&MetricValue) -> Option<T>,
        fresh: impl FnOnce() -> (T, MetricValue),
    ) -> T {
        let labels_owned = owned_labels(labels);
        let entries = self.entries.lock().unwrap();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels_owned)
        {
            if let Some(t) = existing(&e.value) {
                return t;
            }
        }
        drop(entries);
        let (t, value) = fresh();
        self.register(name, help, labels, value);
        t
    }

    /// Gets or creates a counter series.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Gets or creates a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_create(
            name,
            help,
            labels,
            |v| match v {
                MetricValue::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), MetricValue::Counter(c))
            },
        )
    }

    /// Gets or creates a gauge series.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Gets or creates a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_create(
            name,
            help,
            labels,
            |v| match v {
                MetricValue::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), MetricValue::Gauge(g))
            },
        )
    }

    /// Gets or creates a histogram series.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Gets or creates a labeled histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_create(
            name,
            help,
            labels,
            |v| match v {
                MetricValue::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), MetricValue::Histogram(h))
            },
        )
    }

    /// Registers (replacing any previous entry for the series) a counter
    /// whose value is read from `f` at scrape time — for monotone counts
    /// owned by other subsystems (e.g. `MemStats` atomics).
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, MetricValue::CounterFn(Arc::new(f)));
    }

    /// Registers (replacing any previous entry for the series) a gauge
    /// whose value is read from `f` at scrape time.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, MetricValue::GaugeFn(Arc::new(f)));
    }

    /// Registers (replacing any previous entry for the series) a
    /// histogram whose contents are built by `f` at scrape time — for
    /// distributions another subsystem keeps in several
    /// [`HistogramCells`] and exports as one series.
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> Histogram + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, MetricValue::HistogramFn(Arc::new(f)));
    }

    /// Renders every registered series in the Prometheus text exposition
    /// format: families grouped, `# HELP` / `# TYPE` once per family,
    /// histograms expanded into `_bucket{le=...}` / `_sum` / `_count`.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut order: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if !order.contains(&e.name.as_str()) {
                order.push(&e.name);
            }
        }
        let mut out = String::new();
        for name in order {
            let family: Vec<&MetricEntry> = entries.iter().filter(|e| e.name == name).collect();
            let first = family[0];
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&first.help)));
            out.push_str(&format!("# TYPE {name} {}\n", first.value.type_name()));
            for e in &family {
                render_entry(&mut out, e);
            }
        }
        out
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a label set (possibly with an extra pair appended) as
/// `{k="v",...}`, or the empty string when there are no labels.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Formats a gauge value; counters are integers already.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        // The exposition format has no NaN/Inf series worth emitting;
        // degrade to 0 rather than poisoning the parse.
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_entry(out: &mut String, e: &MetricEntry) {
    let name = &e.name;
    match &e.value {
        MetricValue::Counter(c) => {
            out.push_str(&format!(
                "{name}{} {}\n",
                label_block(&e.labels, None),
                c.get()
            ));
        }
        MetricValue::CounterFn(f) => {
            out.push_str(&format!("{name}{} {}\n", label_block(&e.labels, None), f()));
        }
        MetricValue::Gauge(g) => out.push_str(&format!(
            "{name}{} {}\n",
            label_block(&e.labels, None),
            fmt_value(g.get())
        )),
        MetricValue::GaugeFn(f) => out.push_str(&format!(
            "{name}{} {}\n",
            label_block(&e.labels, None),
            fmt_value(f())
        )),
        MetricValue::Histogram(h) => render_histogram(out, e, h),
        MetricValue::HistogramFn(f) => render_histogram(out, e, &f()),
    }
}

fn render_histogram(out: &mut String, e: &MetricEntry, h: &Histogram) {
    let name = &e.name;
    for (le, cum) in h.cumulative() {
        let le_str = if le == u64::MAX {
            "+Inf".to_string()
        } else {
            le.to_string()
        };
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_block(&e.labels, Some(("le", &le_str)))
        ));
    }
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        label_block(&e.labels, None),
        h.sum()
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        label_block(&e.labels, None),
        h.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ppm_events_total", "events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("ppm_depth", "depth");
        g.set(2.5);
        let text = reg.render();
        assert!(text.contains("# TYPE ppm_events_total counter"));
        assert!(text.contains("ppm_events_total 5"));
        assert!(text.contains("ppm_depth 2.5"));
    }

    #[test]
    fn registration_is_get_or_create() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("ppm_x_total", "x", &[("shard", "0")]);
        a.add(7);
        // A "rebuilt" subsystem re-registering the same series must share
        // the cell, not fork a duplicate.
        let b = reg.counter_with("ppm_x_total", "x", &[("shard", "0")]);
        assert_eq!(b.get(), 7);
        let other = reg.counter_with("ppm_x_total", "x", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
        let text = reg.render();
        assert_eq!(text.matches("ppm_x_total{").count(), 2);
        assert_eq!(text.matches("# TYPE ppm_x_total").count(), 1);
    }

    #[test]
    fn collector_fns_replace() {
        let reg = MetricsRegistry::new();
        reg.counter_fn("ppm_src_total", "src", &[], || 1);
        reg.counter_fn("ppm_src_total", "src", &[], || 2);
        let text = reg.render();
        assert!(text.contains("ppm_src_total 2"));
        let series = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(series, 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 5, 1000, u64::MAX] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum[0], (1, 2)); // 0 and 1
        assert_eq!(cum[1], (2, 3)); // + 2
        assert_eq!(cum[2], (4, 4)); // + 3
        assert_eq!(cum[3], (8, 5)); // + 5
        let (_, last) = cum[HISTOGRAM_BUCKETS - 1];
        assert_eq!(last, 7, "+Inf bucket covers everything");
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_quantiles_are_bucket_ceilings() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), None, "empty histogram has no quantile");
        for v in [1, 1, 2, 4, 8, 100] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.99), Some(128), "power-of-two ceiling of 100");
        assert_eq!(h.quantile(1.0), Some(128));
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX), "+Inf bucket");
    }

    #[test]
    fn histogram_renders_prometheus_shape() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("ppm_lat_us", "latency", &[("proc", "3")]);
        h.observe(10);
        let text = reg.render();
        assert!(text.contains("# TYPE ppm_lat_us histogram"));
        assert!(text.contains("ppm_lat_us_bucket{proc=\"3\",le=\"16\"} 1"));
        assert!(text.contains("ppm_lat_us_bucket{proc=\"3\",le=\"+Inf\"} 1"));
        assert!(text.contains("ppm_lat_us_sum{proc=\"3\"} 10"));
        assert!(text.contains("ppm_lat_us_count{proc=\"3\"} 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.gauge_with("ppm_g", "g", &[("path", "a\"b\\c")])
            .set(1.0);
        assert!(reg.render().contains("path=\"a\\\"b\\\\c\""));
    }
}
