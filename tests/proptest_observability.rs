//! Property-based and format-conformance tests for the observability
//! layer: concurrent `record_*` hammering against live snapshots, and a
//! hand-rolled Prometheus text-format parser over real exporter output.

use std::collections::HashMap;
use std::sync::Arc;

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, PComp};
use ppm::pm::{MemStats, PmConfig, Region};
use ppm::sched::{Runtime, SchedConfig, SimSched};
use proptest::prelude::*;

/// One thread's worth of recording work, generated by proptest.
#[derive(Debug, Clone)]
struct Plan {
    reads: u32,
    writes: u32,
    soft_faults: u32,
    capsule_runs: u32,
    completions: u32,
    capsule_work: u64,
}

/// Draws a [`Plan`] by sampling each field from its range.
#[derive(Debug, Clone, Copy)]
struct PlanStrategy;

impl Strategy for PlanStrategy {
    type Value = Plan;
    fn sample(&self, rng: &mut TestRng) -> Plan {
        Plan {
            reads: (0u32..400).sample(rng),
            writes: (0u32..400).sample(rng),
            soft_faults: (0u32..50).sample(rng),
            capsule_runs: (0u32..50).sample(rng),
            completions: (0u32..50).sample(rng),
            capsule_work: (1u64..64).sample(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// P recorder threads hammer `record_*` while the main thread
    /// snapshots concurrently. Every snapshot — including mid-flight
    /// ones — must satisfy the accounting identity
    /// `total_work == Σ per-proc (reads + writes)`, totals must be
    /// monotone across successive snapshots, and the final counts must
    /// be exact (no lost updates).
    #[test]
    fn stats_snapshots_are_consistent_under_contention(
        plans in prop::collection::vec(PlanStrategy, 2..5),
    ) {
        let procs = plans.len();
        let stats = Arc::new(MemStats::new(procs));
        let mut handles = Vec::new();
        for (p, plan) in plans.iter().cloned().enumerate() {
            let stats = stats.clone();
            handles.push(std::thread::spawn(move || {
                // Interleave kinds so a concurrent snapshot sees all
                // counters moving, not phases.
                let rounds = plan
                    .reads
                    .max(plan.writes)
                    .max(plan.soft_faults)
                    .max(plan.capsule_runs)
                    .max(plan.completions);
                for i in 0..rounds {
                    if i < plan.reads {
                        stats.record_read(p);
                    }
                    if i < plan.writes {
                        stats.record_write(p);
                    }
                    if i < plan.soft_faults {
                        stats.record_soft_fault(p);
                    }
                    if i < plan.capsule_runs {
                        stats.record_capsule_run(p);
                    }
                    if i < plan.completions {
                        stats.record_capsule_completion(p, plan.capsule_work);
                    }
                }
            }));
        }

        let mut prev = stats.snapshot();
        while handles.iter().any(|h| !h.is_finished()) {
            let snap = stats.snapshot();
            let per_proc: u64 = snap.per_proc.iter().map(|pp| pp.reads + pp.writes).sum();
            prop_assert_eq!(snap.total_work(), per_proc, "identity must hold mid-flight");
            prop_assert!(snap.total_reads >= prev.total_reads, "reads monotone");
            prop_assert!(snap.total_writes >= prev.total_writes, "writes monotone");
            prop_assert!(snap.soft_faults >= prev.soft_faults, "faults monotone");
            prop_assert!(snap.capsule_runs >= prev.capsule_runs, "runs monotone");
            prop_assert!(
                snap.capsule_completions >= prev.capsule_completions,
                "completions monotone"
            );
            prev = snap;
        }
        for h in handles {
            h.join().expect("recorder thread");
        }

        let fin = stats.snapshot();
        prop_assert_eq!(fin.total_reads, plans.iter().map(|p| p.reads as u64).sum::<u64>());
        prop_assert_eq!(fin.total_writes, plans.iter().map(|p| p.writes as u64).sum::<u64>());
        prop_assert_eq!(fin.soft_faults, plans.iter().map(|p| p.soft_faults as u64).sum::<u64>());
        prop_assert_eq!(
            fin.capsule_runs,
            plans.iter().map(|p| p.capsule_runs as u64).sum::<u64>()
        );
        prop_assert_eq!(
            fin.capsule_completions,
            plans.iter().map(|p| p.completions as u64).sum::<u64>()
        );
        let per_proc: u64 = fin.per_proc.iter().map(|pp| pp.reads + pp.writes).sum();
        prop_assert_eq!(fin.total_work(), per_proc);
        prop_assert_eq!(
            fin.max_capsule_work,
            plans
                .iter()
                .filter(|p| p.completions > 0)
                .map(|p| p.capsule_work)
                .max()
                .unwrap_or(0)
        );
    }
}

/// A hand-rolled validator for the Prometheus text exposition format
/// (version 0.0.4) — the contract `/metrics` consumers parse:
///
/// * every non-comment line is `name[{labels}] value`;
/// * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * every sample's family carries exactly one `# HELP` and one
///   `# TYPE` line, HELP first, before any sample;
/// * all samples of one family are contiguous;
/// * histogram `_bucket` series are cumulative in `le` order and end
///   with an `+Inf` bucket equal to `_count`.
fn validate_prometheus(text: &str) {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    /// Histogram/summary suffixes roll up to the declared family name.
    fn family_of(name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                return stripped;
            }
        }
        name
    }

    let mut helped: HashMap<String, String> = HashMap::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut finished: Vec<String> = Vec::new();
    let mut current: Option<String> = None;
    // family -> (bucket label name ordered samples) for cumulativity.
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();

    let enter = |fam: &str, current: &mut Option<String>, finished: &mut Vec<String>| {
        if current.as_deref() != Some(fam) {
            if let Some(prev) = current.take() {
                assert!(!finished.contains(&prev), "family {prev} split");
                finished.push(prev);
            }
            assert!(
                !finished.contains(&fam.to_string()),
                "family {fam} not contiguous"
            );
            *current = Some(fam.to_string());
        }
    };

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (fam, help) = rest.split_once(' ').expect("HELP needs text");
            assert!(valid_name(fam), "bad family name in HELP: {fam}");
            assert!(
                helped.insert(fam.to_string(), help.to_string()).is_none(),
                "duplicate HELP for {fam}"
            );
            enter(fam, &mut current, &mut finished);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (fam, ty) = rest.split_once(' ').expect("TYPE needs a type");
            assert!(
                matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "unknown TYPE {ty} for {fam}"
            );
            assert!(helped.contains_key(fam), "TYPE before HELP for {fam}");
            assert!(
                typed.insert(fam.to_string(), ty.to_string()).is_none(),
                "duplicate TYPE for {fam}"
            );
            enter(fam, &mut current, &mut finished);
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");

        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().unwrap_or_else(|_| panic!("bad value: {line}")),
        };
        let (name, labels) = match series.split_once('{') {
            None => (series, None),
            Some((n, l)) => (n, Some(l.strip_suffix('}').expect("unclosed labels"))),
        };
        assert!(valid_name(name), "bad metric name: {name}");
        if let Some(labels) = labels {
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').expect("label needs =");
                assert!(valid_name(k), "bad label name: {k}");
                assert!(
                    v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                    "label value must be quoted: {pair}"
                );
            }
        }
        let fam = family_of(name);
        assert!(helped.contains_key(fam), "sample before HELP: {name}");
        assert!(typed.contains_key(fam), "sample before TYPE: {name}");
        enter(fam, &mut current, &mut finished);

        if typed.get(fam).map(String::as_str) == Some("histogram") {
            if name.ends_with("_bucket") {
                let le = labels
                    .and_then(|l| {
                        l.split(',')
                            .find_map(|p| p.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')))
                    })
                    .expect("bucket needs le");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("numeric le")
                };
                buckets
                    .entry(fam.to_string())
                    .or_default()
                    .push((le, value));
            } else if name.ends_with("_count") {
                counts.insert(fam.to_string(), value);
            }
        } else {
            assert!(
                value.is_finite(),
                "non-histogram sample must be finite: {line}"
            );
        }
    }

    for (fam, series) in &buckets {
        let mut prev = (f64::NEG_INFINITY, 0.0);
        for (le, v) in series {
            assert!(*le > prev.0, "{fam}: le bounds must increase");
            assert!(*v >= prev.1, "{fam}: buckets must be cumulative");
            prev = (*le, *v);
        }
        assert_eq!(prev.0, f64::INFINITY, "{fam}: last bucket must be +Inf");
        assert_eq!(
            Some(&prev.1),
            counts.get(fam),
            "{fam}: +Inf bucket must equal _count"
        );
    }
}

/// A flat fan-out of `n` one-write leaves over a fresh region of `m`.
fn leaves(m: &Machine, n: usize) -> PComp {
    let out = m.alloc_region(n);
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("leaf", |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), 1)?;
            }
            Ok(Step::Jump(k))
        });
        let fan = set.map_grain("fan-out", 1, leaf);
        let all = Span {
            env: out,
            lo: 0,
            hi: n,
        };
        fan.setup(m, &all, K(finale)).0
    })
}

/// The live exporter output of a machine that actually ran work parses
/// as valid Prometheus text — families grouped, HELP/TYPE present,
/// histograms cumulative.
#[test]
fn exporter_output_is_valid_prometheus_text() {
    let m = Machine::new(PmConfig::parallel(4, 1 << 20));
    let comp = leaves(&m, 64);
    let rt = Runtime::new(m, SchedConfig::with_slots(1 << 10));
    let rep = rt.run_or_recover(&comp);
    assert!(rep.completed());

    let text = rt.machine().obs().registry().render();
    validate_prometheus(&text);

    // The families the scrape surface promises are actually present.
    for family in [
        "ppm_work_total",
        "ppm_reads_total",
        "ppm_writes_total",
        "ppm_steal_attempts_total",
        "ppm_steals_total",
        "ppm_steal_latency_us",
        "ppm_capsule_work",
        "ppm_epoch",
        "ppm_max_capsule_work",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family} in:\n{text}"
        );
    }
}

/// The unlabelled sample `name` in a rendered scrape.
fn sample(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    let value = line.unwrap_or_else(|| panic!("no sample {name} in:\n{text}"));
    value.parse().expect("integer sample")
}

/// Per-processor capsule statistics merge back into exactly what the one
/// shared set used to hold: `C` is the max over processors, and the
/// exported `ppm_capsule_work` histogram counts every completion and sums
/// every completed capsule's work — which, in a run without faults, is
/// all the work there is.
fn assert_capsule_statistics_merge(m: &Machine, procs: usize) {
    let snap = m.snapshot();
    assert_eq!(snap.per_proc.len(), procs);
    let busy = snap.per_proc.iter().filter(|p| p.capsule_completions > 0);
    assert!(busy.count() > 1, "work was not shared: {snap:?}");
    let per_proc_max = snap.per_proc.iter().map(|p| p.max_capsule_work).max();
    assert_eq!(Some(snap.max_capsule_work), per_proc_max);
    assert_eq!(
        snap.capsule_restarts(),
        0,
        "the run was meant to be faultless"
    );

    let text = m.obs().registry().render();
    validate_prometheus(&text);
    assert_eq!(sample(&text, "ppm_max_capsule_work"), snap.max_capsule_work);
    assert_eq!(
        sample(&text, "ppm_capsule_work_count"),
        snap.capsule_completions
    );
    assert_eq!(sample(&text, "ppm_capsule_work_sum"), snap.total_work());
    // Bucket layout unchanged: 2^0 .. 2^21, then +Inf, one series.
    let les: Vec<&str> = text
        .lines()
        .filter_map(|l| {
            l.strip_prefix("ppm_capsule_work_bucket{le=\"")?
                .split('"')
                .next()
        })
        .collect();
    let mut want: Vec<String> = (0..22).map(|i| (1u64 << i).to_string()).collect();
    want.push("+Inf".into());
    assert_eq!(les, want);
}

#[test]
fn merged_capsule_statistics_on_a_deterministic_p4_simulation() {
    let m = Machine::new(PmConfig::parallel(4, 1 << 20));
    let comp = leaves(&m, 64);
    let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(1 << 10));
    sim.run_seeded(11, 200_000);
    assert!(sim.finish().completed);
    assert_capsule_statistics_merge(&m, 4);
}

#[test]
fn merged_capsule_statistics_on_a_real_p2_run() {
    let m = Machine::new(PmConfig::parallel(2, 1 << 20));
    let comp = leaves(&m, 4096);
    let rt = Runtime::new(m, SchedConfig::with_slots(1 << 13));
    assert!(rt.run_or_recover(&comp).completed());
    assert_capsule_statistics_merge(rt.machine(), 2);
}

/// A scrape served over HTTP matches the in-process render modulo
/// samples that moved between the two reads, and also validates.
#[test]
fn served_scrape_is_valid_prometheus_text() {
    let m = Machine::new(PmConfig::parallel(2, 1 << 20));
    let obs = m.obs().clone();
    let server = obs.serve(0).expect("bind ephemeral port");
    let text = ppm::obs::http_get(
        server.addr(),
        "/metrics",
        std::time::Duration::from_millis(2000),
    )
    .expect("scrape");
    validate_prometheus(&text);
    assert!(text.contains("ppm_work_total"));
}
