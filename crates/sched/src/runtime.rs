//! `Runtime`: one session object for running and recovering computations.
//!
//! A [`Runtime`] owns the "did the previous process crash?" decision: it
//! wraps a [`Machine`] plus a [`SchedConfig`], and its one entry point,
//! [`Runtime::run_or_recover`], takes a registered persistent computation
//! and dispatches internally to
//!
//! * a **fresh run** when the machine has no crashed predecessor
//!   (volatile machines, or the creating run of a durable file), or
//! * the one **recovery** cluster files get too: nothing when the
//!   previous run finished, else §6's restart of every processor at its
//!   own restart pointer, else its newest checkpoint, else replay from
//!   the root ([`crate::FallbackReason`] says why),
//!
//! and always returns the same unified [`SessionReport`]. A session is a
//! one-worker cluster ([`crate::cluster`]): its root is the one job of a
//! one-slot injector ring, and every processor starts at `findWork`.
//!
//! ## Sessions and determinism
//!
//! A `Runtime` stands for one *session* against one machine. The
//! recovery contract of the underlying machinery is unchanged: the
//! process that calls [`Runtime::open`] must rebuild the computation
//! deterministically — same `alloc_region` calls in the same order, same
//! capsule names declared in the same order (see `ppm_core::dsl`), same
//! scheduler shape — before `run_or_recover` inspects the persisted
//! deques. The typed DSL makes that cheap: a `pcomp` closure carries the
//! whole construction.
//!
//! ```
//! use ppm_core::{dsl, Machine, PComp};
//! use ppm_pm::PmConfig;
//! use ppm_sched::{Runtime, RuntimeConfig};
//! use std::sync::Arc;
//!
//! let rt = Runtime::volatile(RuntimeConfig::new(PmConfig::parallel(2, 1 << 20)));
//! let out = rt.machine().alloc_region(16);
//! let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
//!     let mut set = dsl::CapsuleSet::new(m);
//!     let leaf = set.define("doc/mark", |st: &dsl::Span<ppm_pm::Region>, k, ctx| {
//!         for i in st.lo..st.hi {
//!             ctx.pwrite(st.env.at(i), i as u64 + 1)?;
//!         }
//!         Ok(dsl::Step::Jump(k))
//!     });
//!     let split = set.map_grain("doc/split", 4, leaf);
//!     split.setup(m, &dsl::Span { env: out, lo: 0, hi: 16 }, dsl::K(finale)).0
//! });
//! let report = rt.run_or_recover(&pcomp);
//! assert!(report.completed());
//! assert_eq!(rt.machine().mem().load(out.at(5)), 6);
//! ```

use ppm_core::Machine;
use ppm_pm::PmConfig;

use crate::capsules::SchedConfig;
use crate::driver::{
    fresh_session, recover, run_attached_seats, runtime_build, PComp, Seat, SessionMode,
    SessionReport,
};
use crate::service::ServiceConfig;

/// Configuration for a [`Runtime`] session: the machine shape plus the
/// scheduler shape.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Machine configuration (processors, memory size, fault adversary,
    /// validation mode). When a session is [`Runtime::open`]ed from an
    /// existing file, the shape fields come from the file's superblock
    /// and only the fault/validation fields of this value apply.
    pub pm: PmConfig,
    /// Scheduler configuration (deque slots, victim-selection seed,
    /// transition checking).
    pub sched: SchedConfig,
    /// Per-processor allocation-pool words; `None` uses the machine
    /// default sizing.
    pub pool_words: Option<usize>,
}

impl RuntimeConfig {
    /// A config over a machine shape, with default scheduler settings.
    pub fn new(pm: PmConfig) -> Self {
        RuntimeConfig {
            pm,
            sched: SchedConfig::default(),
            pool_words: None,
        }
    }

    /// Replaces the scheduler configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the deque size (shorthand for the common scheduler knob).
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.sched.deque_slots = slots;
        self
    }

    /// Sets the checkpoint policy (see [`crate::checkpoint`]): how often
    /// persistent runs quiesce to flush dirty pages, write a durable
    /// resume record, and reclaim dead frame-pool words. Defaults to
    /// every [`crate::checkpoint::DEFAULT_CHECKPOINT_CAPSULES`] capsules;
    /// pass [`crate::CheckpointPolicy::disabled`] to opt out.
    pub fn with_checkpoint(mut self, policy: crate::CheckpointPolicy) -> Self {
        self.sched.checkpoint = policy;
        self
    }

    /// Sets explicit per-processor pool sizing (needed by the
    /// scratch-hungry algorithms — see e.g.
    /// `ppm_algs::sort::samplesort_pool_words`).
    pub fn with_pool_words(mut self, words: usize) -> Self {
        self.pool_words = Some(words);
        self
    }
}

/// A session against one Parallel-PM machine: the single user-facing way
/// to run fork-join computations, durable or volatile, fresh or
/// recovering. See the [module docs](self) for the dispatch semantics.
#[derive(Debug)]
pub struct Runtime {
    machine: Machine,
    sched: SchedConfig,
}

impl Runtime {
    /// Wraps an already-constructed machine (volatile, durable-created,
    /// or reopened) in a session. The universal adapter: `create`,
    /// `open` and `volatile` are conveniences over this.
    pub fn new(machine: Machine, sched: SchedConfig) -> Self {
        Runtime { machine, sched }
    }

    /// A session on a fresh volatile machine (persistence spans the
    /// simulated fault adversary only — tests, benchmarks, experiments).
    pub fn volatile(cfg: RuntimeConfig) -> Self {
        let machine = match cfg.pool_words {
            Some(w) => Machine::with_pool_words(cfg.pm, w),
            None => Machine::new(cfg.pm),
        };
        Runtime {
            machine,
            sched: cfg.sched,
        }
    }

    /// Creates a session on a fresh durable machine file at `path`
    /// (truncating anything already there). The first
    /// [`Runtime::run_or_recover`] on this session is a fresh run whose
    /// every continuation persists in the file.
    #[cfg(unix)]
    pub fn create(path: impl AsRef<std::path::Path>, cfg: RuntimeConfig) -> std::io::Result<Self> {
        let machine = match cfg.pool_words {
            Some(w) => Machine::create_durable_with_pool_words(cfg.pm, w, path)?,
            None => Machine::create_durable(cfg.pm, path)?,
        };
        Ok(Runtime {
            machine,
            sched: cfg.sched,
        })
    }

    /// Opens a session on an existing durable machine file (typically
    /// after the creating process crashed). The machine shape comes from
    /// the file's superblock; `cfg.pm`'s fault adversary and validation
    /// mode apply to this run. [`Runtime::run_or_recover`] on this
    /// session resumes, replays, or reports the computation already
    /// complete.
    #[cfg(unix)]
    pub fn open(path: impl AsRef<std::path::Path>, cfg: RuntimeConfig) -> std::io::Result<Self> {
        let machine = Machine::reopen_with(path, cfg.pm.fault.clone(), cfg.pm.validate)?;
        Ok(Runtime {
            machine,
            sched: cfg.sched,
        })
    }

    /// The session's machine (region allocation, oracle reads, flushing).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Starts a Prometheus scrape endpoint for this session's machine on
    /// `port` (`GET /metrics`, text exposition format 0.0.4; `port` 0
    /// picks an ephemeral one — read it back from the handle). The
    /// server runs until the returned handle is dropped. Runs also
    /// auto-serve while `PPM_METRICS_PORT` is set.
    pub fn serve_metrics(&self, port: u16) -> std::io::Result<ppm_obs::MetricsServer> {
        self.machine.obs().serve(port)
    }

    /// The scrape endpoint for one driven run, when `PPM_METRICS_PORT`
    /// asks for it (held across the parallel section, dropped when the
    /// entry point returns).
    fn auto_metrics(&self) -> Option<ppm_obs::MetricsServer> {
        ppm_obs::Obs::metrics_port_from_env().and_then(|p| self.machine.obs().serve(p).ok())
    }

    /// The session's scheduler configuration.
    pub fn sched_config(&self) -> &SchedConfig {
        &self.sched
    }

    /// Whether this session is recovering a previous process's machine
    /// (reopened durable file) rather than running fresh.
    pub fn is_recovery(&self) -> bool {
        self.machine.epoch() >= 2
    }

    /// Runs a registered persistent computation — **the** entry point of
    /// the typed API. Dispatches internally:
    ///
    /// * fresh session → fresh run: the root published as ticket 1 of a
    ///   one-slot ring, every processor at `findWork`;
    /// * recovering session, completion flag set or the ring drained →
    ///   nothing re-runs ([`crate::SessionMode::AlreadyComplete`]);
    /// * recovering session whose deque entries and restart pointers
    ///   decode → every processor restarts at its own restart pointer
    ///   (§6; [`crate::SessionMode::Resumed`]);
    /// * recovering session whose crash state does not decode, but a
    ///   durable checkpoint record exists → resume from the newest
    ///   checkpoint
    ///   (still [`crate::SessionMode::Resumed`], with
    ///   [`crate::SessionReport::checkpoint_resume`] set; replay distance
    ///   is bounded by one checkpoint epoch — see [`crate::checkpoint`]);
    /// * recovering session otherwise → replay from the root with a
    ///   structured fallback reason ([`crate::SessionMode::Replayed`]).
    ///
    /// `pcomp` must follow the construction-determinism contract (see
    /// the [module docs](self)).
    pub fn run_or_recover(&self, pcomp: &PComp) -> SessionReport {
        let _metrics = self.auto_metrics();
        let obs = self.machine.obs();
        // Origin 0: the single-process stream, `<trace>.spans.jsonl`.
        obs.open_trace(0, self.machine.epoch());
        obs.event(ppm_obs::TraceKind::RunStart, None, None, || {
            format!(
                "persistent session, epoch {} ({})",
                self.machine.epoch(),
                if self.is_recovery() {
                    "recovering"
                } else {
                    "fresh"
                }
            )
        });
        let (machine, cfg) = (&self.machine, &self.sched);
        let report = match self.is_recovery() {
            true => {
                let build = runtime_build(pcomp);
                let recovered = recover(machine, 1, cfg, ServiceConfig::SESSION, &build);
                recovered.expect("recovering the session machine").1
            }
            false => {
                let session = fresh_session(machine, pcomp, cfg);
                let every = 0..machine.procs();
                let run =
                    run_attached_seats(machine, &session, every, |_| Seat::Fresh, &cfg.checkpoint);
                SessionReport::new(machine.epoch(), SessionMode::FreshRun, None, Some(run))
            }
        };
        let outcome = match report.completed() {
            true => "session complete",
            false => "session incomplete",
        };
        obs.event(ppm_obs::TraceKind::RunEnd, None, None, || outcome.into());
        report
    }

    /// Forces all stored words to stable storage (no-op for volatile
    /// sessions).
    pub fn flush(&self) -> std::io::Result<()> {
        self.machine.flush()
    }

    /// Flushes and records a clean shutdown in the durable superblock.
    pub fn mark_clean(&self) -> std::io::Result<()> {
        self.machine.mark_clean()
    }

    /// Unwraps the session back into its machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SessionMode;
    use ppm_core::dsl;
    use ppm_pm::{FaultConfig, Region};
    use std::sync::Arc;

    /// Task `i` CAMs marker `i` from unset to `i + 1`: a once-only effect.
    pub(crate) fn marker_comp(r: Region, n: usize) -> PComp {
        Arc::new(move |m: &Machine, finale| {
            let mut set = dsl::CapsuleSet::new(m);
            let leaf = set.define("mark", |st: &dsl::Span<Region>, k, ctx| {
                for i in st.lo..st.hi {
                    ctx.pcam(st.env.at(i), 0, i as u64 + 1)?;
                }
                Ok(dsl::Step::Jump(k))
            });
            let split = set.map_grain("mark/split", 1, leaf);
            let all = dsl::Span {
                env: r,
                lo: 0,
                hi: n,
            };
            split.setup(m, &all, dsl::K(finale)).0
        })
    }

    #[test]
    fn volatile_session_runs_fresh() {
        let rt = Runtime::volatile(
            RuntimeConfig::new(PmConfig::parallel(2, 1 << 18).with_fault(FaultConfig::none()))
                .with_slots(512),
        );
        assert!(!rt.is_recovery());
        let r = rt.machine().alloc_region(32);
        let rep = rt.run_or_recover(&marker_comp(r, 16));
        assert_eq!(rep.mode, SessionMode::FreshRun);
        assert!(rep.completed());
        assert_eq!(rep.epoch, 0);
        assert!(rep.fallback_reason.is_none());
        assert_eq!(
            rep.run_report().deque_dump.len(),
            2,
            "every processor is seated"
        );
        for i in 0..16 {
            assert_eq!(rt.machine().mem().load(r.at(i)), i as u64 + 1);
        }
    }

    /// A finished session leaves nothing holding its machine: the ring's
    /// scrape gauge must not keep the queue, the `Obs` and the memory
    /// alive in a cycle.
    #[test]
    fn a_finished_session_releases_its_machine() {
        let rt = Runtime::volatile(RuntimeConfig::new(PmConfig::parallel(2, 1 << 18)));
        let r = rt.machine().alloc_region(8);
        assert!(rt.run_or_recover(&marker_comp(r, 8)).completed());
        let mem = Arc::downgrade(rt.machine().mem());
        drop(rt);
        assert!(mem.upgrade().is_none(), "the machine's memory outlived it");
    }

    #[cfg(unix)]
    fn tmp(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppm-runtime-test-{}-{tag}.ppm", std::process::id()));
        p
    }

    #[cfg(unix)]
    #[test]
    fn create_then_open_dispatches_fresh_then_recover() {
        let path = tmp("dispatch");
        let _ = std::fs::remove_file(&path);
        let cfg = || {
            RuntimeConfig::new(
                PmConfig::parallel(1, 1 << 18)
                    .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, 60)),
            )
            .with_slots(512)
        };
        {
            let rt = Runtime::create(&path, cfg()).unwrap();
            assert!(!rt.is_recovery());
            let r = rt.machine().alloc_region(32);
            let rep = rt.run_or_recover(&marker_comp(r, 16));
            assert_eq!(rep.mode, SessionMode::FreshRun);
            assert!(!rep.completed(), "the scheduled hard fault kills the run");
        }
        let rt = Runtime::open(
            &path,
            RuntimeConfig::new(PmConfig::parallel(1, 1 << 18)).with_slots(512),
        )
        .unwrap();
        assert!(rt.is_recovery());
        let r = rt.machine().alloc_region(32);
        let rep = rt.run_or_recover(&marker_comp(r, 16));
        assert!(rep.completed());
        match rep.mode {
            SessionMode::Resumed => assert!(rep.resumed > 0 && rep.fallback_reason.is_none()),
            SessionMode::Replayed => assert!(rep.fallback_reason.is_some()),
            other => panic!("a crashed session must resume or replay, got {other:?}"),
        }
        for i in 0..16 {
            assert_eq!(rt.machine().mem().load(r.at(i)), i as u64 + 1);
        }
        rt.mark_clean().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// A process that dies before its session publishes the root leaves
    /// a ring with no header: recovery publishes it and runs the whole
    /// computation, rather than finding a "drained" ring complete.
    #[cfg(unix)]
    #[test]
    fn a_session_killed_before_its_publish_runs_from_the_root() {
        let path = tmp("unpublished");
        let _ = std::fs::remove_file(&path);
        let cfg = || RuntimeConfig::new(PmConfig::parallel(2, 1 << 18)).with_slots(512);
        drop(Runtime::create(&path, cfg()).unwrap());
        let rt = Runtime::open(&path, cfg()).unwrap();
        let r = rt.machine().alloc_region(16);
        let rep = rt.run_or_recover(&marker_comp(r, 16));
        assert!(rep.completed());
        assert_eq!(rep.mode, SessionMode::Replayed);
        for i in 0..16 {
            assert_eq!(rt.machine().mem().load(r.at(i)), i as u64 + 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn reopening_a_clean_session_reports_already_complete() {
        let path = tmp("clean");
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig::new(PmConfig::parallel(1, 1 << 18)).with_slots(512);
        {
            let rt = Runtime::create(&path, cfg.clone()).unwrap();
            let r = rt.machine().alloc_region(32);
            assert!(rt.run_or_recover(&marker_comp(r, 8)).completed());
            rt.mark_clean().unwrap();
        }
        let rt = Runtime::open(&path, cfg).unwrap();
        let r = rt.machine().alloc_region(32);
        let rep = rt.run_or_recover(&marker_comp(r, 8));
        assert_eq!(rep.mode, SessionMode::AlreadyComplete);
        assert!(rep.completed() && rep.already_complete());
        assert!(rep.run.is_none());
        assert_eq!(rep.elapsed(), std::time::Duration::ZERO);
        std::fs::remove_file(&path).unwrap();
    }
}
