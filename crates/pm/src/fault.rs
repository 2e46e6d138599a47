//! The fault adversary and the liveness oracle.
//!
//! The model allows each processor to fault between any two instructions,
//! with the probability of a fault between two consecutive *persistent*
//! accesses bounded by `f`, faults independent. [`FaultInjector`] implements
//! exactly that adversary: one injector per processor, consulted at every
//! costed access, drawing from a deterministic per-processor stream so runs
//! are replayable.
//!
//! Hard faults (the processor never restarts) can arise in two ways:
//! probabilistically, as a configured fraction of faults, or **scheduled**
//! — "processor 3 dies at its 1000th persistent access" — which the
//! hard-fault experiments use to place deaths adversarially.
//!
//! [`Liveness`] is the paper's oracle `isLive(procId)` (§2, §6): other
//! processors can detect that a processor has hard-faulted. The paper notes
//! the oracle "might be constructed by implementing a counter and a flag for
//! each process"; [`HeartbeatLiveness`] provides that concrete construction
//! as well.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{system_clock, SharedClock};
use crate::config::FaultConfig;
use crate::error::Fault;

/// Per-processor fault source. Owned by the processor's [`crate::ProcCtx`];
/// not shared between threads.
///
/// An access that cannot fault costs one add and one compare: `watch` is
/// the first access count at which one can — the scheduled death, or
/// never — while the processor is live and `fault_prob` is 0. With
/// `fault_prob > 0`, or once dead, `watch` is 0 and every access draws as
/// it always did, so the streams of faults replay bit for bit.
#[derive(Debug)]
pub struct FaultInjector {
    proc: usize,
    rng: StdRng,
    fault_prob: f64,
    hard_ratio: f64,
    /// Persistent accesses performed so far by this processor.
    accesses: u64,
    /// If set, die at exactly this access count.
    scheduled_death: Option<u64>,
    /// The lowest access count that may fault (struct docs).
    watch: u64,
    /// Once dead, the injector reports `Hard` forever.
    dead: bool,
}

impl FaultInjector {
    /// Creates the injector for processor `proc` from the machine's fault
    /// configuration. Each processor gets an independent stream derived
    /// from `(seed, proc)`.
    pub fn new(cfg: &FaultConfig, proc: usize) -> Self {
        // Mix the processor id into the seed with SplitMix64-style constants
        // so per-processor streams are decorrelated even for adjacent seeds.
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((proc as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            ^ 0x94D0_49BB_1331_11EB;
        let scheduled_death = cfg
            .scheduled_hard_faults
            .iter()
            .filter(|(p, _)| *p == proc)
            .map(|(_, at)| *at)
            .min();
        let watch = match cfg.fault_prob > 0.0 {
            true => 0,
            false => scheduled_death.unwrap_or(u64::MAX),
        };
        FaultInjector {
            proc,
            rng: StdRng::seed_from_u64(seed),
            fault_prob: cfg.fault_prob,
            hard_ratio: cfg.hard_fault_ratio,
            accesses: 0,
            scheduled_death,
            watch,
            dead: false,
        }
    }

    /// The processor id this injector belongs to.
    pub fn proc(&self) -> usize {
        self.proc
    }

    /// Total persistent accesses attempted so far (including the one a
    /// fault pre-empted).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Whether this processor has hard-faulted.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Consults the adversary at one persistent-memory access. Returns
    /// `Some(fault)` if the processor faults *before* performing the access,
    /// `None` if the access proceeds.
    #[inline]
    pub fn check(&mut self) -> Option<Fault> {
        self.check_run(1).1
    }

    /// Consults the adversary at `n` consecutive accesses, in order,
    /// stopping at the first that faults: the accesses that proceed and
    /// the fault, if any, that pre-empted the next one. The same draws,
    /// in the same order, as `n` calls of [`FaultInjector::check`].
    #[inline]
    pub fn check_run(&mut self, n: u64) -> (u64, Option<Fault>) {
        if self.accesses + n < self.watch {
            self.accesses += n;
            return (n, None);
        }
        self.check_each(n)
    }

    /// [`FaultInjector::check_run`] one access at a time.
    #[cold]
    fn check_each(&mut self, n: u64) -> (u64, Option<Fault>) {
        for done in 0..n {
            if let Some(fault) = self.draw() {
                return (done, Some(fault));
            }
        }
        (n, None)
    }

    /// One access's consultation.
    fn draw(&mut self) -> Option<Fault> {
        if self.dead {
            return Some(Fault::Hard);
        }
        self.accesses += 1;
        if let Some(at) = self.scheduled_death {
            if self.accesses >= at {
                return Some(self.die());
            }
        }
        if self.fault_prob > 0.0 && self.rng.gen_bool(self.fault_prob) {
            if self.hard_ratio > 0.0 && self.rng.gen_bool(self.hard_ratio) {
                return Some(self.die());
            }
            return Some(Fault::Soft);
        }
        None
    }

    /// Marks the processor dead: every later access faults `Hard`.
    fn die(&mut self) -> Fault {
        self.dead = true;
        self.watch = 0;
        Fault::Hard
    }
}

/// The liveness oracle `isLive(procId)`.
///
/// One flag per processor, flipped exactly once when the processor hard
/// faults. Conceptually this is a word in persistent memory; the paper makes
/// oracle queries free, so it is kept outside the costed address space.
#[derive(Debug)]
pub struct Liveness {
    flags: Vec<AtomicBool>,
}

impl Liveness {
    /// All `procs` processors start live.
    pub fn new(procs: usize) -> Self {
        Liveness {
            flags: (0..procs).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// The oracle query: is processor `proc` still live?
    #[inline]
    pub fn is_live(&self, proc: usize) -> bool {
        self.flags[proc].load(Ordering::SeqCst)
    }

    /// Marks `proc` dead. Called by the machine when a hard fault fires.
    pub fn mark_dead(&self, proc: usize) {
        self.flags[proc].store(false, Ordering::SeqCst);
    }

    /// Number of processors still live.
    pub fn live_count(&self) -> usize {
        self.flags
            .iter()
            .filter(|f| f.load(Ordering::SeqCst))
            .count()
    }

    /// Number of processors tracked.
    pub fn procs(&self) -> usize {
        self.flags.len()
    }
}

/// The §6.3 heartbeat construction of the liveness oracle: "each process
/// updates its counter after a constant number of steps...; if the time
/// since a counter has last updated passes some threshold, the process is
/// considered dead and its flag is set."
///
/// This implementation is provided to show the oracle needs no global clock
/// or tight synchronization; the deterministic tests use [`Liveness`]
/// directly so they do not depend on wall-clock timing.
#[derive(Debug)]
pub struct HeartbeatLiveness {
    counters: Vec<AtomicU64>,
    flags: Vec<AtomicBool>,
    observed: Vec<Mutex<(u64, u64)>>,
    threshold_ms: u64,
    clock: SharedClock,
}

impl HeartbeatLiveness {
    /// Creates the oracle for `procs` processors; a processor whose counter
    /// does not advance for `threshold` is declared dead. Staleness is
    /// measured on the system clock; tests that need a reproducible
    /// timeline use [`HeartbeatLiveness::with_clock`].
    pub fn new(procs: usize, threshold: Duration) -> Self {
        Self::with_clock(procs, threshold, system_clock())
    }

    /// Same oracle, with staleness measured on the supplied [`SharedClock`]
    /// (a [`crate::VirtualClock`] makes expiry deterministic).
    pub fn with_clock(procs: usize, threshold: Duration, clock: SharedClock) -> Self {
        let now = clock.now_ms();
        HeartbeatLiveness {
            counters: (0..procs).map(|_| AtomicU64::new(0)).collect(),
            flags: (0..procs).map(|_| AtomicBool::new(true)).collect(),
            observed: (0..procs).map(|_| Mutex::new((0, now))).collect(),
            threshold_ms: threshold.as_millis() as u64,
            clock,
        }
    }

    /// Called by processor `proc` every constant number of steps.
    #[inline]
    pub fn beat(&self, proc: usize) {
        self.counters[proc].fetch_add(1, Ordering::Relaxed);
    }

    /// Oracle query. Marks the flag if the counter has been stale for longer
    /// than the threshold. Once the flag is set it stays set, even if the
    /// process later restarts — per §6.3 a restarted process "can notice
    /// that it was marked as dead ... and enter the system with a new empty
    /// WS-Deque", i.e. as a logically fresh process.
    pub fn is_live(&self, proc: usize) -> bool {
        if !self.flags[proc].load(Ordering::SeqCst) {
            return false;
        }
        let current = self.counters[proc].load(Ordering::Relaxed);
        let mut obs = self.observed[proc].lock();
        let (last_value, last_seen_ms) = *obs;
        if current != last_value {
            *obs = (current, self.clock.now_ms());
            return true;
        }
        if self.clock.now_ms().saturating_sub(last_seen_ms) > self.threshold_ms {
            self.flags[proc].store(false, Ordering::SeqCst);
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_when_prob_zero() {
        let mut inj = FaultInjector::new(&FaultConfig::none(), 0);
        for _ in 0..10_000 {
            assert_eq!(inj.check(), None);
        }
        assert_eq!(inj.accesses(), 10_000);
    }

    #[test]
    fn fault_rate_close_to_configured() {
        let mut inj = FaultInjector::new(&FaultConfig::soft(0.1, 7), 0);
        let n = 100_000;
        let mut faults = 0u64;
        for _ in 0..n {
            if inj.check().is_some() {
                faults += 1;
            }
        }
        let rate = faults as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.01,
            "empirical fault rate {rate} too far from 0.1"
        );
    }

    #[test]
    fn streams_are_deterministic_and_per_proc() {
        let cfg = FaultConfig::soft(0.2, 99);
        let run = |proc: usize| -> Vec<bool> {
            let mut inj = FaultInjector::new(&cfg, proc);
            (0..1000).map(|_| inj.check().is_some()).collect()
        };
        assert_eq!(run(0), run(0), "same proc+seed must replay identically");
        assert_ne!(run(0), run(1), "different procs must get different streams");
    }

    #[test]
    fn scheduled_hard_fault_fires_exactly_at_access() {
        let cfg = FaultConfig::none().with_scheduled_hard_fault(0, 5);
        let mut inj = FaultInjector::new(&cfg, 0);
        for _ in 0..4 {
            assert_eq!(inj.check(), None);
        }
        assert_eq!(inj.check(), Some(Fault::Hard));
        assert!(inj.is_dead());
        // Dead forever after.
        assert_eq!(inj.check(), Some(Fault::Hard));
    }

    /// FNV-1a over every fault of `procs` injectors' first `n` accesses:
    /// its access index, its processor and its kind.
    fn fault_positions_hash(cfg: &FaultConfig, procs: usize, n: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for proc in 0..procs {
            let mut inj = FaultInjector::new(cfg, proc);
            for i in 0..n {
                let kind = match inj.check() {
                    None => continue,
                    Some(Fault::Soft) => 1,
                    Some(_) => 2,
                };
                for x in [i, proc as u64, kind] {
                    h = (h ^ x).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn random_faults_land_where_they_always_did() {
        // Pinned before the no-fault fast path existed: with
        // `fault_prob > 0` every access still draws, in the same order.
        // The mixed stream's processors die at accesses 627 to 1373.
        let soft = FaultConfig::soft(0.02, 2024);
        let mixed = FaultConfig::mixed(0.01, 0.05, 2024);
        assert_eq!(
            fault_positions_hash(&soft, 4, 10_000),
            0xa75c_62e4_0fbc_6288
        );
        assert_eq!(
            fault_positions_hash(&mixed, 4, 10_000),
            0xfdc6_d5db_1421_2c29
        );
    }

    #[test]
    fn a_run_draws_what_single_checks_draw() {
        for cfg in [
            FaultConfig::mixed(0.05, 0.1, 9),
            FaultConfig::none().with_scheduled_hard_fault(0, 700),
        ] {
            let mut single = FaultInjector::new(&cfg, 0);
            let mut runs = FaultInjector::new(&cfg, 0);
            for n in (0..400).map(|i| i % 7) {
                let (mut passed, mut fault) = (0, None);
                while passed < n && fault.is_none() {
                    fault = single.check();
                    passed += u64::from(fault.is_none());
                }
                assert_eq!(runs.check_run(n), (passed, fault));
                assert_eq!(runs.accesses(), single.accesses());
            }
            assert!(
                runs.is_dead(),
                "both configurations kill within 1200 accesses"
            );
        }
    }

    #[test]
    fn scheduled_fault_for_other_proc_ignored() {
        let cfg = FaultConfig::none().with_scheduled_hard_fault(1, 5);
        let mut inj = FaultInjector::new(&cfg, 0);
        for _ in 0..100 {
            assert_eq!(inj.check(), None);
        }
    }

    #[test]
    fn hard_ratio_one_makes_all_faults_hard() {
        let cfg = FaultConfig::mixed(0.5, 1.0, 3);
        let mut inj = FaultInjector::new(&cfg, 0);
        let first_fault = std::iter::repeat_with(|| inj.check())
            .take(1000)
            .flatten()
            .next();
        assert_eq!(first_fault, Some(Fault::Hard));
    }

    #[test]
    fn liveness_starts_live_and_death_is_sticky() {
        let l = Liveness::new(3);
        assert!(l.is_live(0) && l.is_live(1) && l.is_live(2));
        assert_eq!(l.live_count(), 3);
        l.mark_dead(1);
        assert!(!l.is_live(1));
        assert!(l.is_live(0) && l.is_live(2));
        assert_eq!(l.live_count(), 2);
    }

    #[test]
    fn heartbeat_marks_stale_processor_dead() {
        let clock = std::sync::Arc::new(crate::VirtualClock::starting_at(1_000));
        let hb = HeartbeatLiveness::with_clock(2, Duration::from_millis(10), clock.clone());
        hb.beat(0);
        assert!(hb.is_live(0));
        assert!(hb.is_live(1)); // first observation records baseline
        clock.advance(25);
        // Proc 0 keeps beating, proc 1 is silent.
        hb.beat(0);
        assert!(hb.is_live(0));
        assert!(!hb.is_live(1));
        // Death is sticky even if beats resume.
        hb.beat(1);
        assert!(!hb.is_live(1));
    }
}
