//! Cost accounting for the PM model.
//!
//! The model charges unit cost for each external (persistent-memory) read or
//! write and zero for everything else. Two totals matter:
//!
//! * **faultless work `W`** — transfers assuming no faults. Measured by
//!   running the same seeded computation with `FaultConfig::none()`.
//! * **total work `W_f`** — transfers in an actual run including all
//!   repeated work due to restarts. This is what [`MemStats`] counts.
//!
//! The stats also track capsule-level quantities (the maximum capsule work
//! `C` appears in the scheduler bound `f ≤ 1/(2C)`), fault counts, capsule
//! restarts, and validation violations when running in `Record` mode.
//!
//! All counters are relaxed atomics: they are monotone event counts whose
//! exact interleaving does not matter, and contention on them must not
//! perturb the concurrency being measured. Everything recorded per access
//! or per capsule lives in the recording processor's own [`ProcStats`]
//! (one cache-line-aligned block each); machine-wide figures — `W_f`, the
//! empirical `C`, the capsule-work distribution — are merged when read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ppm_obs::{Histogram, HistogramCells, MetricsRegistry};

/// One processor's counters, padded to a cache line: at `P = 8`+ (and in
/// sharded runs, where every worker process hammers its own slice of the
/// shared `Vec`), false sharing between adjacent processors' counters is
/// measurable on the read/write hot path.
///
/// **Single writer.** A block is written only by the thread driving that
/// processor's `ProcCtx` (one per processor per run; readers snapshot from
/// anywhere), so the per-access and per-capsule counters advance with a
/// relaxed load and store (`bump`, `raise`) instead of a locked
/// read-modify-write.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ProcStats {
    /// External reads performed by this processor (including re-runs).
    pub reads: AtomicU64,
    /// External writes performed by this processor (including re-runs).
    pub writes: AtomicU64,
    /// Soft faults suffered.
    pub soft_faults: AtomicU64,
    /// Hard faults suffered (0 or 1).
    pub hard_faults: AtomicU64,
    /// Capsule executions started (first runs + restarts).
    pub capsule_runs: AtomicU64,
    /// Capsule executions that completed (installed a successor).
    pub capsule_completions: AtomicU64,
    /// Highest pool-allocation cursor this processor ever reached — the
    /// peak pool-word footprint (joins roll the *cursor* back, so the
    /// peak is what pool-sizing formulas must cover).
    pub pool_peak: AtomicU64,
    /// Words stored through the write-combining staging path
    /// (`ProcCtx::stage_write`) — the raw side of the coalescing ratio.
    pub staged_words: AtomicU64,
    /// Coalesced whole-block persists charged for staged words at capsule
    /// boundaries (`ProcCtx::flush_staged`) — the batched side. With block
    /// size `B` and perfectly sequential frames this approaches
    /// `staged_words / B`.
    pub staged_persists: AtomicU64,
    /// Maximum capsule work (external transfers in one successful capsule
    /// run) this processor completed; the maximum over processors is the
    /// empirical `C`.
    pub max_capsule_work: AtomicU64,
    /// Distribution of this processor's per-capsule work (external
    /// transfers per completed capsule run) — summed over processors, the
    /// shape behind the empirical `C`.
    pub capsule_work: HistogramCells,
}

/// Adds `n` to a counter of the calling processor's own [`ProcStats`].
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Raises a running maximum of the calling processor's own [`ProcStats`].
#[inline]
fn raise(max: &AtomicU64, v: u64) {
    if v > max.load(Ordering::Relaxed) {
        max.store(v, Ordering::Relaxed);
    }
}

/// Shared, thread-safe statistics for one machine instance.
#[derive(Debug)]
pub struct MemStats {
    per_proc: Vec<ProcStats>,
    /// Write-after-read conflicts observed (only counted in `Record` mode;
    /// `Strict` panics instead).
    war_conflicts: AtomicU64,
    /// Ephemeral well-formedness violations observed (`Record` mode).
    wellformed_violations: AtomicU64,
}

impl MemStats {
    /// Creates zeroed statistics for `procs` processors.
    pub fn new(procs: usize) -> Self {
        MemStats {
            per_proc: (0..procs).map(|_| ProcStats::default()).collect(),
            war_conflicts: AtomicU64::new(0),
            wellformed_violations: AtomicU64::new(0),
        }
    }

    /// Number of processors being tracked.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Records one external read by `proc`.
    #[inline]
    pub fn record_read(&self, proc: usize) {
        self.record_reads(proc, 1);
    }

    /// Records `n` external reads by `proc` (the blocks of one range).
    #[inline]
    pub fn record_reads(&self, proc: usize, n: u64) {
        bump(&self.per_proc[proc].reads, n);
    }

    /// Records one external write by `proc`.
    #[inline]
    pub fn record_write(&self, proc: usize) {
        self.record_writes(proc, 1);
    }

    /// Records `n` external writes by `proc` (the blocks of one range).
    #[inline]
    pub fn record_writes(&self, proc: usize, n: u64) {
        bump(&self.per_proc[proc].writes, n);
    }

    /// Records a soft fault on `proc`.
    #[inline]
    pub fn record_soft_fault(&self, proc: usize) {
        self.per_proc[proc]
            .soft_faults
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a hard fault on `proc`.
    #[inline]
    pub fn record_hard_fault(&self, proc: usize) {
        self.per_proc[proc]
            .hard_faults
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the start of a capsule execution (first run or restart).
    #[inline]
    pub fn record_capsule_run(&self, proc: usize) {
        bump(&self.per_proc[proc].capsule_runs, 1);
    }

    /// Records a completed capsule and its work; updates `proc`'s share
    /// of the empirical maximum capsule work `C` and of its distribution.
    #[inline]
    pub fn record_capsule_completion(&self, proc: usize, capsule_work: u64) {
        let p = &self.per_proc[proc];
        bump(&p.capsule_completions, 1);
        raise(&p.max_capsule_work, capsule_work);
        p.capsule_work.observe_single_writer(capsule_work);
    }

    /// The distribution of per-capsule work over all processors, merged
    /// now from the per-processor cells (what `ppm_capsule_work` exports).
    pub fn capsule_work(&self) -> Histogram {
        let merged = Histogram::new();
        for p in &self.per_proc {
            merged.absorb(&p.capsule_work);
        }
        merged
    }

    /// Records processor `proc`'s pool cursor after an allocation,
    /// keeping the running per-processor peak.
    #[inline]
    pub fn record_pool_cursor(&self, proc: usize, cursor: u64) {
        raise(&self.per_proc[proc].pool_peak, cursor);
    }

    /// Records `words` words stored through the write-combining staging
    /// path.
    #[inline]
    pub fn record_staged_words(&self, proc: usize, words: u64) {
        bump(&self.per_proc[proc].staged_words, words);
    }

    /// Records `n` coalesced block persists charged for staged words.
    #[inline]
    pub fn record_staged_persists(&self, proc: usize, n: u64) {
        bump(&self.per_proc[proc].staged_persists, n);
    }

    /// Records a write-after-read conflict (Record mode only).
    #[inline]
    pub fn record_war_conflict(&self) {
        self.war_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an ephemeral well-formedness violation (Record mode only).
    #[inline]
    pub fn record_wellformed_violation(&self) {
        self.wellformed_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters. (Counters are
    /// independently relaxed; snapshots taken while the machine is quiescent
    /// — the normal case, after a run completes — are exact.)
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            per_proc: Vec::with_capacity(self.per_proc.len()),
            ..StatsSnapshot::default()
        };
        for p in &self.per_proc {
            let ps = ProcSnapshot {
                reads: p.reads.load(Ordering::Relaxed),
                writes: p.writes.load(Ordering::Relaxed),
                soft_faults: p.soft_faults.load(Ordering::Relaxed),
                hard_faults: p.hard_faults.load(Ordering::Relaxed),
                capsule_runs: p.capsule_runs.load(Ordering::Relaxed),
                capsule_completions: p.capsule_completions.load(Ordering::Relaxed),
                pool_peak: p.pool_peak.load(Ordering::Relaxed),
                staged_words: p.staged_words.load(Ordering::Relaxed),
                staged_persists: p.staged_persists.load(Ordering::Relaxed),
                max_capsule_work: p.max_capsule_work.load(Ordering::Relaxed),
            };
            s.total_reads += ps.reads;
            s.total_writes += ps.writes;
            s.soft_faults += ps.soft_faults;
            s.hard_faults += ps.hard_faults;
            s.capsule_runs += ps.capsule_runs;
            s.capsule_completions += ps.capsule_completions;
            s.staged_words += ps.staged_words;
            s.staged_persists += ps.staged_persists;
            s.max_pool_peak = s.max_pool_peak.max(ps.pool_peak);
            s.max_capsule_work = s.max_capsule_work.max(ps.max_capsule_work);
            s.per_proc.push(ps);
        }
        s.war_conflicts = self.war_conflicts.load(Ordering::Relaxed);
        s.wellformed_violations = self.wellformed_violations.load(Ordering::Relaxed);
        s
    }

    /// Registers every counter into `reg` so the scrape surface exports
    /// the model's cost measures live: per-processor series under a
    /// `proc` label, the totals (`W_f` as `ppm_work_total`), the
    /// empirical `C` (`ppm_max_capsule_work`) and its distribution
    /// (`ppm_capsule_work` histogram). Collector closures read the same
    /// relaxed atomics [`MemStats::snapshot`] reads, so registration
    /// adds nothing to the record path.
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        type Row = (&'static str, fn(&ProcStats) -> &AtomicU64, &'static str);
        let per_proc: &[Row] = &[
            (
                "ppm_reads_total",
                |p| &p.reads,
                "external reads (includes re-runs)",
            ),
            (
                "ppm_writes_total",
                |p| &p.writes,
                "external writes (includes re-runs)",
            ),
            (
                "ppm_soft_faults_total",
                |p| &p.soft_faults,
                "soft faults suffered",
            ),
            (
                "ppm_hard_faults_total",
                |p| &p.hard_faults,
                "hard faults suffered",
            ),
            (
                "ppm_capsule_runs_total",
                |p| &p.capsule_runs,
                "capsule executions started (first runs + restarts)",
            ),
            (
                "ppm_capsule_completions_total",
                |p| &p.capsule_completions,
                "capsule executions that installed a successor",
            ),
            (
                "ppm_staged_words_total",
                |p| &p.staged_words,
                "words stored through the write-combining frame staging path",
            ),
            (
                "ppm_staged_persists_total",
                |p| &p.staged_persists,
                "coalesced block persists charged for staged frame words",
            ),
        ];
        for (name, field, help) in per_proc {
            for p in 0..self.per_proc.len() {
                let stats = self.clone();
                let field = *field;
                reg.counter_fn(name, help, &[("proc", &p.to_string())], move || {
                    field(&stats.per_proc[p]).load(Ordering::Relaxed)
                });
            }
        }
        for p in 0..self.per_proc.len() {
            let stats = self.clone();
            reg.gauge_fn(
                "ppm_pool_peak_words",
                "peak frame-pool allocation cursor (words)",
                &[("proc", &p.to_string())],
                move || stats.per_proc[p].pool_peak.load(Ordering::Relaxed) as f64,
            );
        }
        let stats = self.clone();
        reg.counter_fn(
            "ppm_work_total",
            "total external transfers: the model's total work W_f",
            &[],
            move || {
                stats
                    .per_proc
                    .iter()
                    .map(|p| p.reads.load(Ordering::Relaxed) + p.writes.load(Ordering::Relaxed))
                    .sum()
            },
        );
        let stats = self.clone();
        reg.gauge_fn(
            "ppm_frame_coalesce_ratio",
            "coalesced block persists over raw staged words (1.0 = no write combining, 1/B = perfect)",
            &[],
            move || {
                let (mut words, mut persists) = (0u64, 0u64);
                for p in &stats.per_proc {
                    words += p.staged_words.load(Ordering::Relaxed);
                    persists += p.staged_persists.load(Ordering::Relaxed);
                }
                if words == 0 {
                    0.0
                } else {
                    persists as f64 / words as f64
                }
            },
        );
        let stats = self.clone();
        reg.gauge_fn(
            "ppm_max_capsule_work",
            "empirical maximum capsule work C (transfers in one capsule run)",
            &[],
            move || stats.snapshot().max_capsule_work as f64,
        );
        let stats = self.clone();
        reg.counter_fn(
            "ppm_war_conflicts_total",
            "write-after-read conflicts observed (Record mode)",
            &[],
            move || stats.war_conflicts.load(Ordering::Relaxed),
        );
        let stats = self.clone();
        reg.counter_fn(
            "ppm_wellformed_violations_total",
            "ephemeral well-formedness violations observed (Record mode)",
            &[],
            move || stats.wellformed_violations.load(Ordering::Relaxed),
        );
        let stats = self.clone();
        reg.histogram_fn(
            "ppm_capsule_work",
            "distribution of external transfers per completed capsule run",
            &[],
            move || stats.capsule_work(),
        );
    }
}

/// Point-in-time copy of one processor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// External reads.
    pub reads: u64,
    /// External writes.
    pub writes: u64,
    /// Soft faults.
    pub soft_faults: u64,
    /// Hard faults.
    pub hard_faults: u64,
    /// Capsule runs started.
    pub capsule_runs: u64,
    /// Capsule runs completed.
    pub capsule_completions: u64,
    /// Peak pool-allocation cursor (words).
    pub pool_peak: u64,
    /// Words stored through the write-combining staging path.
    pub staged_words: u64,
    /// Coalesced block persists charged for staged words.
    pub staged_persists: u64,
    /// Largest capsule work this processor completed.
    pub max_capsule_work: u64,
}

/// Point-in-time copy of a machine's statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Per-processor counters.
    pub per_proc: Vec<ProcSnapshot>,
    /// Sum of reads over processors.
    pub total_reads: u64,
    /// Sum of writes over processors.
    pub total_writes: u64,
    /// Total soft faults.
    pub soft_faults: u64,
    /// Total hard faults.
    pub hard_faults: u64,
    /// Total capsule runs started (first runs + restarts).
    pub capsule_runs: u64,
    /// Total capsule runs completed.
    pub capsule_completions: u64,
    /// Total words stored through the write-combining staging path.
    pub staged_words: u64,
    /// Total coalesced block persists charged for staged words.
    pub staged_persists: u64,
    /// Empirical maximum capsule work `C`.
    pub max_capsule_work: u64,
    /// Peak pool-allocation cursor over all processors (words) — the
    /// per-processor pool size a re-run of this workload needs.
    pub max_pool_peak: u64,
    /// Write-after-read conflicts observed (Record mode).
    pub war_conflicts: u64,
    /// Well-formedness violations observed (Record mode).
    pub wellformed_violations: u64,
}

impl StatsSnapshot {
    /// Total external transfers: the model's total work `W_f` for this run.
    pub fn total_work(&self) -> u64 {
        self.total_reads + self.total_writes
    }

    /// Total work under the **Asymmetric PM model** of the paper's
    /// footnote 2: external writes cost `omega ≥ 1` times an external
    /// read (the NVM asymmetry the authors' prior work studies). With
    /// `omega = 1` this is [`StatsSnapshot::total_work`].
    pub fn asymmetric_work(&self, omega: u64) -> u64 {
        self.total_reads + omega * self.total_writes
    }

    /// Asymmetric-model time: maximum weighted work over processors.
    pub fn asymmetric_time(&self, omega: u64) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.reads + omega * p.writes)
            .max()
            .unwrap_or(0)
    }

    /// Capsule restarts (runs that did not complete because of a fault).
    pub fn capsule_restarts(&self) -> u64 {
        self.capsule_runs.saturating_sub(self.capsule_completions)
    }

    /// Coalesced block persists over raw staged frame words: 1.0 means the
    /// write-combining buffer achieved nothing, `1/B` is perfect
    /// coalescing. `None` when nothing was staged.
    pub fn frame_coalesce_ratio(&self) -> Option<f64> {
        (self.staged_words > 0).then(|| self.staged_persists as f64 / self.staged_words as f64)
    }

    /// The maximum work done by any one processor — the model's notion of
    /// (total) *time* `T_f` under the unit-cost-transfer accounting.
    pub fn time(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.reads + p.writes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_proc() {
        let s = MemStats::new(2);
        s.record_read(0);
        s.record_read(0);
        s.record_write(1);
        s.record_soft_fault(1);
        let snap = s.snapshot();
        assert_eq!(snap.per_proc[0].reads, 2);
        assert_eq!(snap.per_proc[1].writes, 1);
        assert_eq!(snap.per_proc[1].soft_faults, 1);
        assert_eq!(snap.total_work(), 3);
    }

    #[test]
    fn max_capsule_work_is_a_max() {
        let s = MemStats::new(1);
        s.record_capsule_completion(0, 5);
        s.record_capsule_completion(0, 3);
        s.record_capsule_completion(0, 9);
        assert_eq!(s.snapshot().max_capsule_work, 9);
    }

    #[test]
    fn capsule_statistics_merge_across_processors() {
        let s = MemStats::new(3);
        for (proc, work) in [(0, 5), (1, 40), (1, 2), (2, 9), (2, 0)] {
            s.record_capsule_completion(proc, work);
        }
        let snap = s.snapshot();
        let per_proc: Vec<u64> = snap.per_proc.iter().map(|p| p.max_capsule_work).collect();
        assert_eq!(per_proc, vec![5, 40, 9]);
        assert_eq!(snap.max_capsule_work, 40, "C is the max over processors");
        let merged = s.capsule_work();
        assert_eq!(merged.count(), snap.capsule_completions);
        assert_eq!(merged.sum(), 5 + 40 + 2 + 9);
        // One shared histogram fed the same observations reads the same.
        let shared = Histogram::new();
        for work in [5, 40, 2, 9, 0] {
            shared.observe(work);
        }
        assert_eq!(merged.cumulative(), shared.cumulative());
    }

    /// The exported families, by name and type: per-processor state must
    /// not leak into the scrape surface as new or renamed series (README's
    /// metric table, `tools/recording_rules.yml` and the dashboard key on
    /// these names).
    #[test]
    fn exported_families_match_the_golden_list() {
        let reg = MetricsRegistry::new();
        let stats = Arc::new(MemStats::new(2));
        stats.record_capsule_completion(1, 3);
        stats.register_into(&reg);
        let text = reg.render();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            families,
            [
                "ppm_reads_total counter",
                "ppm_writes_total counter",
                "ppm_soft_faults_total counter",
                "ppm_hard_faults_total counter",
                "ppm_capsule_runs_total counter",
                "ppm_capsule_completions_total counter",
                "ppm_staged_words_total counter",
                "ppm_staged_persists_total counter",
                "ppm_pool_peak_words gauge",
                "ppm_work_total counter",
                "ppm_frame_coalesce_ratio gauge",
                "ppm_max_capsule_work gauge",
                "ppm_war_conflicts_total counter",
                "ppm_wellformed_violations_total counter",
                "ppm_capsule_work histogram",
            ]
        );
        // One unlabelled capsule-work series, not one per processor.
        assert!(text.contains("\nppm_max_capsule_work 3\n"), "{text}");
        assert!(text.contains("\nppm_capsule_work_count 1\n"), "{text}");
        assert!(text.contains("\nppm_capsule_work_bucket{le=\"4\"} 1\n"));
        let buckets = text.matches("ppm_capsule_work_bucket{le=").count();
        assert_eq!(buckets, ppm_obs::HISTOGRAM_BUCKETS);
    }

    #[test]
    fn restarts_are_runs_minus_completions() {
        let s = MemStats::new(1);
        s.record_capsule_run(0);
        s.record_capsule_run(0);
        s.record_capsule_run(0);
        s.record_capsule_completion(0, 1);
        assert_eq!(s.snapshot().capsule_restarts(), 2);
    }

    #[test]
    fn asymmetric_work_weights_writes() {
        let s = MemStats::new(2);
        s.record_read(0);
        s.record_read(0);
        s.record_write(1);
        let snap = s.snapshot();
        assert_eq!(snap.asymmetric_work(1), snap.total_work());
        assert_eq!(snap.asymmetric_work(10), 2 + 10);
        assert_eq!(snap.asymmetric_time(10), 10); // proc 1: one write
    }

    #[test]
    fn time_is_max_over_processors() {
        let s = MemStats::new(3);
        s.record_read(0);
        s.record_read(1);
        s.record_read(1);
        s.record_write(1);
        s.record_write(2);
        let snap = s.snapshot();
        assert_eq!(snap.time(), 3); // proc 1 did 3 transfers
        assert_eq!(snap.total_work(), 5);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = std::sync::Arc::new(MemStats::new(4));
        let mut handles = Vec::new();
        for p in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.record_read(p);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().total_reads, 40_000);
    }
}
