//! Machine-readable experiment results: `BENCH_<name>.json`.
//!
//! Every `exp_*` binary emits, alongside its human-readable table, one
//! JSON file of named numeric metrics. CI uploads these as workflow
//! artifacts and gates merges on the `bench_check` comparator, which
//! compares the current metrics against the raw values checked in as
//! `bench/baseline.json`, each within the tolerance that file states
//! for it — so a change that silently moves a model-cost count fails
//! the build instead of landing unnoticed.
//!
//! The build environment is offline (no serde); the format is
//! deliberately a flat, restricted JSON subset written and parsed by
//! this module:
//!
//! ```json
//! {
//!   "name": "exp_example",
//!   "meta": {"n": "4096"},
//!   "metrics": {"run_ms": 12.5, "overhead_x": 1.42}
//! }
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable selecting the output directory for
/// `BENCH_*.json` files (default: the current directory).
pub const BENCH_DIR_ENV: &str = "PPM_BENCH_DIR";

/// A single experiment's machine-readable result set.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Experiment name (`exp_*`), also the output file stem.
    pub name: String,
    /// Named numeric results.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form context (problem sizes, processor counts, ...).
    pub meta: BTreeMap<String, String>,
}

impl BenchReport {
    /// An empty report for experiment `name`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            metrics: BTreeMap::new(),
            meta: BTreeMap::new(),
        }
    }

    /// Records metric `key = value` (last write wins).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.insert(key.into(), value);
        self
    }

    /// Records a duration metric in fractional milliseconds.
    pub fn metric_ms(&mut self, key: impl Into<String>, d: std::time::Duration) -> &mut Self {
        self.metric(key, d.as_secs_f64() * 1e3)
    }

    /// Records contextual metadata.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.meta.insert(key.into(), value.to_string());
        self
    }

    /// Serializes to the restricted JSON subset.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        s.push_str("  \"meta\": {");
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        s.push_str(&meta.join(", "));
        s.push_str("},\n  \"metrics\": {");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", escape(k), fmt_f64(*v)))
            .collect();
        s.push_str(&metrics.join(", "));
        s.push_str("}\n}\n");
        s
    }

    /// Embeds a Prometheus-format scrape (see [`ppm_obs::MetricsRegistry::render`])
    /// as metrics named `obs.<family>[.<label>_<value>...]` — the final
    /// observability snapshot rides along in `BENCH_<name>.json`, so a CI
    /// artifact carries the counters (steals, adoptions, checkpoint skips,
    /// faults) behind each wall-clock number. Label values are sanitized
    /// to `[A-Za-z0-9_]` so the restricted JSON subset round-trips; `#`
    /// comment lines and non-finite samples are skipped.
    pub fn embed_scrape(&mut self, scrape: &str) -> &mut Self {
        for line in scrape.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if !value.is_finite() {
                continue;
            }
            let mut key = String::from("obs.");
            match series.split_once('{') {
                None => key.push_str(series),
                Some((family, labels)) => {
                    key.push_str(family);
                    for lab in labels.trim_end_matches('}').split(',') {
                        let Some((k, v)) = lab.split_once('=') else {
                            continue;
                        };
                        key.push('.');
                        key.push_str(k.trim());
                        key.push('_');
                        for c in v.trim().trim_matches('"').chars() {
                            key.push(if c.is_ascii_alphanumeric() { c } else { '_' });
                        }
                    }
                }
            }
            self.metric(key, value);
        }
        self
    }

    /// Renders `registry` and embeds the snapshot via [`Self::embed_scrape`].
    pub fn embed_obs(&mut self, registry: &ppm_obs::MetricsRegistry) -> &mut Self {
        self.embed_scrape(&registry.render())
    }

    /// The output path this report writes to under `dir`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("BENCH_{}.json", self.name))
    }

    /// Writes `BENCH_<name>.json` into `dir`.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = self.path_in(dir);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the report into [`BENCH_DIR_ENV`] (or the current
    /// directory) and prints where it went. Failures are reported, not
    /// fatal — an experiment's table output stands on its own.
    pub fn emit(&self) {
        let dir = std::env::var_os(BENCH_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        match self.write_to(&dir) {
            Ok(path) => println!("\nbench report: {}", path.display()),
            Err(e) => eprintln!("\nbench report not written ({e})"),
        }
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    /// This is a parser for exactly that subset, not general JSON.
    pub fn parse(text: &str) -> Option<Self> {
        let name = extract_str(text, "name")?;
        let metrics_body = extract_obj(text, "metrics")?;
        let meta_body = extract_obj(text, "meta")?;
        let mut report = BenchReport::new(name);
        for (k, v) in pairs(&meta_body) {
            report.note(k, v.trim_matches('"'));
        }
        for (k, v) in pairs(&metrics_body) {
            let val = v.trim().parse::<f64>().ok()?;
            if !val.is_finite() {
                // A non-finite metric marks a broken measurement (see
                // `fmt_f64`); refuse the whole report.
                return None;
            }
            report.metric(k, val);
        }
        Some(report)
    }

    /// Loads every `BENCH_*.json` — and every `TRACE_*.json` written by
    /// `ppm-trace`, which uses the same restricted format so its W / D /
    /// parallelism / wasted-work numbers gate like any benchmark — in
    /// `dir`.
    pub fn load_dir(dir: &Path) -> io::Result<Vec<BenchReport>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if (stem.starts_with("BENCH_") || stem.starts_with("TRACE_")) && stem.ends_with(".json")
            {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    if let Some(rep) = BenchReport::parse(&text) {
                        out.push(rep);
                    }
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Enough digits to round-trip doubles we care about; no exponent
        // notation for the common magnitudes.
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        // A NaN/Inf metric is a broken measurement. Emit a literal the
        // parser rejects, so the whole report reads as invalid and the
        // regression gate fails with MISSING — the same way it fails
        // for an experiment that stopped emitting — instead of the
        // metric silently serializing as something that passes a
        // lower-is-better comparison.
        "NaN".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn extract_str(text: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_obj(text: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    let rest = text[at..].trim_start().strip_prefix('{')?;
    Some(rest[..rest.find('}')?].to_string())
}

/// Splits a flat `"k": v, "k2": v2` body into pairs (values may be bare
/// numbers or quoted strings; neither contains commas or braces by
/// construction).
fn pairs(body: &str) -> Vec<(String, String)> {
    body.split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = BenchReport::new("exp_demo");
        r.metric("run_ms", 12.5)
            .metric("overhead_x", 1.375)
            .note("n", 4096)
            .note("procs", 4);
        let parsed = BenchReport::parse(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn empty_sections_round_trip() {
        let r = BenchReport::new("exp_empty");
        let parsed = BenchReport::parse(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn write_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("ppm-bench-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = BenchReport::new("exp_a");
        a.metric("x_ms", 1.0);
        let mut b = BenchReport::new("exp_b");
        b.metric("y_ms", 2.0);
        a.write_to(&dir).unwrap();
        b.write_to(&dir).unwrap();
        std::fs::write(dir.join("not-a-report.txt"), "ignored").unwrap();
        let loaded = BenchReport::load_dir(&dir).unwrap();
        assert_eq!(loaded, vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durations_record_as_milliseconds() {
        let mut r = BenchReport::new("exp_t");
        r.metric_ms("flush_ms", std::time::Duration::from_micros(1500));
        assert!((r.metrics["flush_ms"] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn garbage_does_not_parse() {
        assert!(BenchReport::parse("not json").is_none());
        assert!(BenchReport::parse("{\"name\": \"x\"}").is_none());
    }

    #[test]
    fn embedded_scrape_round_trips() {
        let mut r = BenchReport::new("exp_obs");
        r.embed_scrape(
            "# HELP ppm_work_total faultless work\n\
             # TYPE ppm_work_total counter\n\
             ppm_work_total 42\n\
             ppm_reads_total{proc=\"0\"} 7\n\
             ppm_steal_latency_us_bucket{le=\"+Inf\"} 3\n\
             ppm_bad NaN\n",
        );
        assert_eq!(r.metrics["obs.ppm_work_total"], 42.0);
        assert_eq!(r.metrics["obs.ppm_reads_total.proc_0"], 7.0);
        assert_eq!(r.metrics["obs.ppm_steal_latency_us_bucket.le__Inf"], 3.0);
        assert!(!r.metrics.contains_key("obs.ppm_bad"));
        let parsed = BenchReport::parse(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn non_finite_metrics_poison_the_report() {
        let mut r = BenchReport::new("exp_nan");
        r.metric("bad_x", f64::NAN)
            .metric("also_bad_x", f64::INFINITY);
        // The serialized form must NOT parse back: the gate then reports
        // the experiment's metrics as MISSING instead of passing a bogus
        // zero through a lower-is-better comparison.
        assert!(BenchReport::parse(&r.to_json()).is_none());
    }
}
