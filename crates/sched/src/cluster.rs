//! Multi-process sharded runtime: independent fault domains over one
//! `MAP_SHARED` machine file.
//!
//! The paper models `P` *individual processors* faulting independently —
//! one dies, the other `P − 1` keep the computation going by stealing its
//! deque entries and adopting its restart pointer (§6.3). Until this
//! module, the reproduction could only exercise that model *within* one
//! OS process (scheduled hard faults) or lose the whole machine at once
//! (`kill -9` + reopen + recover). A **cluster** restores the paper's
//! actual granularity at OS scale: `N` worker processes attach to one
//! durable machine file, each owning a contiguous *shard* of the model
//! processors (its fault domain — metadata blocks, frame pools, and
//! WS-deques all disjoint by the deterministic layout, see
//! [`ppm_pm::ShardMap`]). Killing one worker costs that shard's in-flight
//! work only; the survivors adopt its frontier and the run **keeps
//! going** instead of restarting.
//!
//! ## How adoption works
//!
//! The trick is that the whole steal protocol is already CAM on shared
//! persistent words, and `MAP_SHARED` makes those words coherent across
//! processes. A dead worker's processors are therefore *exactly* the
//! paper's hard-faulted processors, just observed from another process:
//!
//! 1. Every worker renews a [`ppm_pm::Lease`] in the control page (a
//!    few hundred milliseconds of validity, renewed at a quarter of
//!    that). The coordinator additionally tombstones the lease of any
//!    worker whose exit it reaps. This is the §6.3 heartbeat
//!    construction of `isLive`, made cross-process.
//! 2. Each worker's monitor thread folds expired or tombstoned leases
//!    into its local [`ppm_pm::Liveness`] oracle (marking the dead
//!    shard's processors dead) and its [`ShardDomain`] (so steals from
//!    the dead shard count as adoptions).
//! 3. From there the *unmodified* Figure 3 machinery does the work:
//!    `popTop` steals the dead shard's `job` entries (frame handles,
//!    rehydratable by any process), and the dead-owner local-steal path
//!    adopts running threads through their persisted restart pointers.
//!    A restart pointer is always words in the file — a frame while the
//!    thread ran user code, a scheduler record in the processor's
//!    metadata block while it was inside a steal, a push or a pop
//!    ([`crate::step`]) — so it makes no difference where the kill
//!    landed. Before committing the adoption CAM a thief checks that the
//!    frozen pointer decodes; a refusal means corrupt bytes, is counted
//!    as a blocked adoption instead of silently dropping the thread, and
//!    happens in no healthy run. Replay cost is bounded by the adopted
//!    shard's in-flight capsules — the same bound hard-fault adoption
//!    has in-process.
//!
//! Live shards steal from each other too — one uniform victim draw over
//! every processor, since the CAM protocol is safe across processes and
//! every pushed `job` is a frame any process rehydrates — and such steals
//! count as `ppm_live_steals_total`, not as adoptions.
//!
//! ## One way in, one way out: [`ClusterBuilder`]
//!
//! Every terminal (`init`, `observe`, `run`, `spawn`) prepares an open
//! injector ring ([`crate::service`]), the only way work reaches a
//! worker; `run` and `spawn` hand the fleet to the one
//! [`crate::supervisor::Supervisor`]. A **batch** run is a service run
//! with a fixed job set: the [`ShardBuild`] builds shard `s`'s sub-root
//! to continue at the done frame of ring slot `s`, and
//! [`ClusterObserver::publish_shard_jobs`] publishes it as ticket `s + 1`
//! and closes admission; a **service** run submits as it goes. A ticket
//! resolves exactly once, at its slot's done CAM, wherever its job
//! finished. A processor's first ring scan of each findWork entry starts
//! at its own shard's slot, so a shard's first pull prefers its own
//! sub-root; later attempts walk on around the ring. The cluster is complete
//! when the ring is closed (`Draining`) and no slot is published, claimed
//! or running (`InjectorQueue::settle`): the done check of the job that
//! drains a closed ring sets the done flag, so a batch cluster finishes
//! when its last job does, coordinator or not ([`crate::service`]). A
//! [`crate::Runtime`] session is this construction with one shard and a
//! one-slot ring.
//!
//! If every fault domain dies, [`recover`] runs the one recovery
//! `Runtime::run_or_recover` runs ([`crate::driver`]): it closes
//! admission and finishes the ring single-process, every processor
//! restarting at its own restart pointer (§6) — the deques and the ring
//! as the crash left them — or, when those words do not decode,
//! normalizing the ring and replaying it.
//!
//! ## Checkpoints need every seat
//!
//! A process can quiesce only the processors it seats, and a record is
//! sound only if the whole machine stood still, so the configured policy
//! applies iff the seats cover every processor. A worker seats only its
//! shard, and a cluster file configures no policy, so workers never
//! checkpoint and [`recover`] never finds a record; pools are sized as
//! for any session ([`ClusterBuilder::pool_words`]). A cross-process
//! round shipped once without a model, a mutant or a kill test and was
//! deleted; one proven for S shards with shard death at every step would
//! bring it back.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ppm_core::{DoneFlag, Machine};
use ppm_obs::{MetricsRegistry, MetricsServer, Obs, TraceKind};
use ppm_pm::{Lease, LeaseState, PersistentMemory, Region, ServiceState, ShardMap, Word};

use crate::capsules::{Sched, SchedConfig};
use crate::checkpoint::CheckpointPolicy;
use crate::driver::{
    restart_seats_or_find_work, run_attached_seats, ProcOutcome, RunReport, Seat, SessionMode,
    SessionReport,
};
use crate::service::{InjectorQueue, JobTicket, ServiceConfig, ServiceHandle};
use crate::supervisor::Supervisor;

/// Default lease validity window for worker heartbeats.
pub const DEFAULT_LEASE_MS: u64 = 1500;

/// Multiplier on the lease window granted to a worker that has not yet
/// written its first heartbeat (process spawn + attach + session build).
/// Public so tests driving the protocol on a [`ppm_pm::VirtualClock`]
/// can compute exactly when a never-started shard's seed lease expires.
pub const STARTUP_LEASE_FACTOR: u64 = 10;

/// Words per shard in the in-memory report block region.
const REPORT_WORDS: usize = 8;

/// Builds shard `s`'s sub-computation: given the machine and the frame
/// handle of the shard's continuation (the done frame of ring slot `s`),
/// register capsules, build the subtree's root frame, and return its
/// handle — the same contract as [`crate::PComp`], parameterized by
/// shard. Called for *every* shard in *every* attaching process
/// (construction determinism: all processes must replay identical
/// allocations), so builders must be pure setup: WAR-free rewrites of
/// identical values.
pub type ShardBuild = Arc<dyn Fn(&Machine, usize, Word) -> Word + Send + Sync>;

// ====================================================================
// Steal domain
// ====================================================================

/// One worker's view of the cluster: its own processor range, the set
/// of sibling shards the liveness oracle has declared dead (steals from
/// them are adoptions), and what crossed a shard boundary. Shared
/// between the worker's scheduler capsules and its lease-monitor thread.
#[derive(Debug)]
pub struct ShardDomain {
    map: ShardMap,
    shard: usize,
    /// Per-shard adoptable flags (set once, by the monitor, when the
    /// shard's lease expires or is tombstoned; never cleared — death is
    /// sticky, as in the model).
    adoptable: Vec<AtomicBool>,
    adopted_jobs: AtomicU64,
    adopted_locals: AtomicU64,
    blocked_adoptions: AtomicU64,
    /// Per-processor dedup for [`ShardDomain::note_blocked_adoption`].
    blocked_marked: Vec<AtomicBool>,
    live_steals: AtomicU64,
}

impl ShardDomain {
    /// A domain for `shard` of `map` with no dead siblings yet.
    pub fn new(map: ShardMap, shard: usize) -> Arc<Self> {
        assert!(shard < map.shards, "shard {shard} out of range");
        Arc::new(ShardDomain {
            map,
            shard,
            adoptable: (0..map.shards).map(|_| AtomicBool::new(false)).collect(),
            adopted_jobs: AtomicU64::new(0),
            adopted_locals: AtomicU64::new(0),
            blocked_adoptions: AtomicU64::new(0),
            blocked_marked: (0..map.procs()).map(|_| AtomicBool::new(false)).collect(),
            live_steals: AtomicU64::new(0),
        })
    }

    /// Successful steals of `job` entries from *live* sibling shards
    /// (cross-process load balancing, not adoption).
    pub fn live_steals(&self) -> u64 {
        self.live_steals.load(Ordering::Relaxed)
    }

    pub(crate) fn note_live_steal(&self) {
        self.live_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// The cluster's shard geometry.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// This worker's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// This worker's own processor range.
    pub fn own_procs(&self) -> std::ops::Range<usize> {
        self.map.procs_of(self.shard)
    }

    /// Whether `proc` belongs to another shard.
    pub fn is_remote(&self, proc: usize) -> bool {
        self.map.shard_of(proc) != self.shard
    }

    /// The shard owning processor `proc`.
    pub fn shard_of(&self, proc: usize) -> usize {
        self.map.shard_of(proc)
    }

    /// Declares sibling `shard` dead: steals from its processors count as
    /// adoptions from then on. Idempotent; marking the own shard is
    /// ignored.
    pub fn mark_adoptable(&self, shard: usize) {
        if shard != self.shard {
            self.adoptable[shard].store(true, Ordering::Release);
        }
    }

    /// Whether sibling `shard` has been declared dead.
    pub fn is_adoptable(&self, shard: usize) -> bool {
        self.adoptable[shard].load(Ordering::Acquire)
    }

    /// The shards currently declared dead, as a bitmask (diagnostics and
    /// the worker's report block).
    pub fn adoptable_mask(&self) -> u64 {
        (0..self.map.shards)
            .filter(|s| self.is_adoptable(*s))
            .fold(0u64, |m, s| m | (1 << s))
    }

    /// Successful steals of `job` entries from dead siblings' deques.
    pub fn adopted_jobs(&self) -> u64 {
        self.adopted_jobs.load(Ordering::Relaxed)
    }

    /// Successful adoptions of dead siblings' running threads (local
    /// entries + restart pointers).
    pub fn adopted_locals(&self) -> u64 {
        self.adopted_locals.load(Ordering::Relaxed)
    }

    /// Refused adoptions: dead remote processors whose running thread's
    /// frozen restart pointer was not a rehydratable frame (counted once
    /// per processor, not per probing steal attempt).
    pub fn blocked_adoptions(&self) -> u64 {
        self.blocked_adoptions.load(Ordering::Relaxed)
    }

    /// Registers the domain's adoption counters and dead-sibling mask as
    /// scrape-time collector closures. Replace semantics: recovery
    /// rebuilds the scheduler (and with it the domain) over the same
    /// machine, and the scrape must follow the live instance.
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        let d = self.clone();
        reg.counter_fn(
            "ppm_adopted_jobs_total",
            "job entries stolen from dead siblings' deques",
            &[],
            move || d.adopted_jobs(),
        );
        let d = self.clone();
        reg.counter_fn(
            "ppm_adopted_locals_total",
            "running threads adopted from dead siblings via restart pointers",
            &[],
            move || d.adopted_locals(),
        );
        let d = self.clone();
        reg.counter_fn(
            "ppm_blocked_adoptions_total",
            "adoptions refused because the dead owner's restart pointer did not decode (corrupt)",
            &[],
            move || d.blocked_adoptions(),
        );
        let d = self.clone();
        reg.gauge_fn(
            "ppm_shards_declared_dead_mask",
            "bitmask of sibling shards this worker's liveness oracle declared dead",
            &[],
            move || d.adoptable_mask() as f64,
        );
        let d = self.clone();
        reg.counter_fn(
            "ppm_live_steals_total",
            "job entries stolen from live sibling shards (cross-process load balancing)",
            &[],
            move || d.live_steals(),
        );
    }

    pub(crate) fn note_adopted_job(&self) {
        self.adopted_jobs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_adopted_local(&self) {
        self.adopted_locals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a refused adoption of `proc`'s thread. The refusing steal
    /// path re-probes the same frozen entry on every findWork spin, so
    /// the count is deduplicated per processor — the dead owner's words
    /// never change, one refusal is one lost-thread event.
    pub(crate) fn note_blocked_adoption(&self, proc: usize) {
        if !self.blocked_marked[proc].swap(true, Ordering::Relaxed) {
            self.blocked_adoptions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ====================================================================
// Builder — the one entry point
// ====================================================================

/// Builds every flavor of multi-process session over one machine file.
/// The pieces every attacher must agree on (shard count, deque slots,
/// victim seed, lease interval) are persisted in the machine
/// file's cluster header, so workers configure themselves from the file
/// alone. Configure, then pick a terminal; each prepares the same file,
/// with an open injector ring (`Accepting`, nothing published):
///
/// * [`ClusterBuilder::init`] — prepare the file, return nothing
///   (external supervisor launches the workers);
/// * [`ClusterBuilder::observe`] — prepare the file, return a
///   [`ClusterObserver`] (custom coordinators, fault harnesses);
/// * [`ClusterBuilder::run`] — batch: prepare, spawn workers, publish
///   the shard jobs, block to completion, return the [`SessionReport`];
/// * [`ClusterBuilder::spawn`] — service: prepare, spawn workers, return
///   a live [`crate::ServiceHandle`] to submit jobs against.
///
/// ```no_run
/// # use ppm_sched::cluster::{ClusterBuilder, ShardBuild};
/// # use std::sync::Arc;
/// # let build: ShardBuild = Arc::new(|_m, _s, done| done);
/// let report = ClusterBuilder::new("/tmp/run.ppm")
///     .machine(ppm_pm::PmConfig::parallel(8, 1 << 22))
///     .workers(4)
///     .lease_ms(500)
///     .run(&build, |shard| {
///         let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
///         cmd.arg("worker").arg(shard.to_string());
///         cmd
///     })?;
/// # std::io::Result::Ok(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    path: std::path::PathBuf,
    pm: Option<ppm_pm::PmConfig>,
    shards: usize,
    lease_ms: u64,
    deque_slots: usize,
    seed: u64,
    pool_words: Option<usize>,
    deadline: Duration,
    service_config: ServiceConfig,
}

impl ClusterBuilder {
    /// A builder over the machine file at `path` with one worker and
    /// defaults everywhere else. The machine shape
    /// ([`ClusterBuilder::machine`]) has no default — every terminal
    /// requires it.
    pub fn new(path: impl AsRef<std::path::Path>) -> Self {
        ClusterBuilder {
            path: path.as_ref().to_path_buf(),
            pm: None,
            shards: 1,
            lease_ms: DEFAULT_LEASE_MS,
            deque_slots: SchedConfig::default().deque_slots,
            seed: SchedConfig::default().seed,
            pool_words: None,
            deadline: Duration::from_secs(300),
            service_config: ServiceConfig::default(),
        }
    }

    /// Sets the machine shape (`pm.procs` is the *total* processor
    /// count, split evenly across workers). Required.
    pub fn machine(mut self, pm: ppm_pm::PmConfig) -> Self {
        self.pm = Some(pm);
        self
    }

    /// Sets the worker-process (fault-domain) count.
    pub fn workers(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the lease validity window in milliseconds.
    pub fn lease_ms(mut self, ms: u64) -> Self {
        self.lease_ms = ms;
        self
    }

    /// Sets the deque slots per processor.
    pub fn deque_slots(mut self, slots: usize) -> Self {
        self.deque_slots = slots;
        self
    }

    /// Sets the victim-selection seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets explicit per-processor pool sizing. Size for the shard's own
    /// work *plus* adoption headroom: a survivor may re-drive a dead
    /// sibling's frontier out of its own pools.
    pub fn pool_words(mut self, words: usize) -> Self {
        self.pool_words = Some(words);
        self
    }

    /// Sets the coordinator deadline of batch runs: past it, remaining
    /// workers are killed and the session reports incomplete (callers
    /// then finish via [`recover`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the injector-ring shape. A batch run needs one slot per
    /// shard at least.
    pub fn service_config(mut self, cfg: ServiceConfig) -> Self {
        self.service_config = cfg;
        self
    }

    /// The machine shape, or the error every terminal reports without one.
    fn pm(&self) -> io::Result<&ppm_pm::PmConfig> {
        self.pm.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "ClusterBuilder needs a machine shape: call .machine(PmConfig)",
            )
        })
    }

    /// The cluster header every attacher configures itself from.
    fn header(&self) -> ppm_pm::ClusterHeader {
        ppm_pm::ClusterHeader {
            shards: self.shards as u64,
            lease_ms: self.lease_ms,
            deque_slots: self.deque_slots as u64,
            seed: self.seed,
        }
    }

    /// Creates and fully prepares the machine file — superblock, cluster
    /// header, session frames, the open injector ring and its header,
    /// seeded leases — without spawning or publishing anything. For
    /// deployments whose workers are launched by an external supervisor,
    /// and tests.
    #[cfg(unix)]
    pub fn init(&self, build: &ShardBuild) -> io::Result<()> {
        self.observe(build).map(drop)
    }

    /// [`ClusterBuilder::init`] returning an observer handle: a custom
    /// coordinator (own spawn, kill, or progress logic — e.g. a
    /// fault-injection harness) keeps it to publish the shard jobs or
    /// submit its own, watch the completion flag, tombstone reaped
    /// workers, and assemble the final [`ClusterSummary`].
    #[cfg(unix)]
    pub fn observe(&self, build: &ShardBuild) -> io::Result<ClusterObserver> {
        observe_impl(self, build, ppm_pm::system_clock())
    }

    /// Batch terminal: prepares the file, spawns one worker process per
    /// shard via `spawn_worker` (receives the shard index; the command
    /// must end up calling [`run_worker`] for it — typically the current
    /// executable with a `worker` argument), publishes the shard jobs
    /// ([`ClusterObserver::publish_shard_jobs`]), and then *supervises*:
    /// reaping worker exits (tombstoning the leases of the dead so
    /// survivors adopt immediately), rescuing their claims, and enforcing
    /// the deadline.
    ///
    /// The returned [`SessionReport`] carries a [`ClusterSummary`]; its
    /// `run.completed` reflects the persisted completion flag. On an
    /// incomplete outcome (all workers dead, or deadline) the machine
    /// file is left crashed-in-run; [`recover`] finishes the computation
    /// single-process.
    #[cfg(unix)]
    pub fn run(
        &self,
        build: &ShardBuild,
        spawn_worker: impl FnMut(usize) -> std::process::Command,
    ) -> io::Result<SessionReport> {
        let mut sup = Supervisor::launch(self, build, spawn_worker, ppm_pm::system_clock())?;
        if let Err(e) = sup.observer().publish_shard_jobs() {
            sup.wait_exit(Duration::ZERO);
            return Err(e);
        }
        sup.wait_exit(self.deadline);
        sup.finish()
    }

    /// Service terminal: prepares the file, spawns the workers, and
    /// returns a live [`crate::ServiceHandle`] — submit jobs, await
    /// tickets, kill and heal workers, drain, shut down. With
    /// `PPM_METRICS_PORT` set, the handle also serves the aggregated
    /// scrape surface for the service's lifetime.
    #[cfg(unix)]
    pub fn spawn(
        &self,
        build: &ShardBuild,
        spawn_worker: impl FnMut(usize) -> std::process::Command,
    ) -> io::Result<ServiceHandle> {
        Supervisor::launch(self, build, spawn_worker, ppm_pm::system_clock())
            .map(ServiceHandle::new)
    }
}

// ====================================================================
// Session construction (identical in every attaching process)
// ====================================================================

/// The deterministic construction every session (cluster process or
/// [`crate::Runtime`]) replays: done flag, scheduler deques, report
/// blocks, the injector ring, and the per-shard sub-roots.
pub(crate) struct ClusterSession {
    /// The shard geometry the session was built for.
    map: ShardMap,
    pub(crate) done: DoneFlag,
    pub(crate) sched: Arc<Sched>,
    reports: Region,
    /// Shard `s`'s sub-root, continuing at the done frame of ring slot
    /// `s`.
    roots: Vec<Word>,
    /// The durable injector queue: the one way work enters.
    pub(crate) service: Arc<InjectorQueue>,
}

impl ClusterSession {
    /// Publishes the fixed job set of a batch run or a `Runtime` session —
    /// shard `s`'s sub-root as ticket `s + 1` in slot `s` — flushes, and
    /// closes admission (`Draining`). Fails `InvalidInput`, publishing
    /// nothing, on a ring with fewer slots than shards or not fresh.
    pub(crate) fn publish(&self, machine: &Machine) -> io::Result<Vec<JobTicket>> {
        let q = &self.service;
        let tickets = q.publish_fixed(&self.roots)?;
        machine.flush_dirty()?;
        q.close(self.done)?;
        Ok(tickets)
    }
}

/// The scheduler shape a cluster file's header gives every attacher; a
/// cluster file configures no checkpoint policy (see the module docs).
fn header_config(header: &ppm_pm::ClusterHeader) -> SchedConfig {
    SchedConfig {
        deque_slots: header.deque_slots as usize,
        seed: header.seed,
        check_transitions: false,
        checkpoint: CheckpointPolicy::disabled(),
    }
}

/// Builds (or, attaching or recovering, replays) the session of `shards`
/// shards over a ring shaped `service`. The ring comes before any frame
/// setup: every attacher replays the same `alloc_region` sequence and
/// registrations, so the ring, its workspace and the capsule ids written
/// into shared frames agree in every process (construction determinism).
pub(crate) fn build_session(
    machine: &Machine,
    shards: usize,
    cfg: &SchedConfig,
    service: ServiceConfig,
    domain: Option<Arc<ShardDomain>>,
    build: &ShardBuild,
) -> ClusterSession {
    let map = ShardMap::new(machine.procs(), shards);
    let done = DoneFlag::new(machine);
    let sched = Sched::with_domain(machine, done, cfg, domain);
    let reports = machine.alloc_region(map.shards * REPORT_WORDS);
    let ring = machine.alloc_region(ppm_pm::service::ring_words(service.slots));
    let workspace = machine.alloc_region(service.slots * service.job_words);
    let queue = InjectorQueue::install(machine, ring, workspace, service);
    sched.set_injector(queue.clone());
    let roots = (0..map.shards)
        .map(|s| build(machine, s, queue.done_frame(s)))
        .collect();

    ClusterSession {
        map,
        done,
        sched,
        reports,
        roots,
        service: queue,
    }
}

/// The cluster header of an existing sharded machine file.
fn read_header(machine: &Machine) -> io::Result<ppm_pm::ClusterHeader> {
    machine.mem().control().cluster_header().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "machine file has no cluster header (not a sharded run)",
        )
    })
}

/// What whoever drives shard `shard` builds over its attachment: the
/// cluster header, the shard's domain, and the replayed session whose
/// scheduler counts adoptions through it. `first_heartbeat` runs once
/// the header is known to contain the shard, *before* any session work.
pub(crate) fn shard_session(
    machine: &Machine,
    shard: usize,
    build: &ShardBuild,
    first_heartbeat: impl FnOnce(&ppm_pm::ClusterHeader),
) -> io::Result<(ppm_pm::ClusterHeader, Arc<ShardDomain>, ClusterSession)> {
    let header = read_header(machine)?;
    let map = ShardMap::new(machine.procs(), header.shards as usize);
    if shard >= map.shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard {shard} out of range ({} shards)", map.shards),
        ));
    }
    first_heartbeat(&header);
    let domain = ShardDomain::new(map, shard);
    let (ring, cfg) = (ring_config(machine)?, header_config(&header));
    let session = build_session(machine, map.shards, &cfg, ring, Some(domain.clone()), build);
    Ok((header, domain, session))
}

/// The ring shape of an existing cluster file, from its service header.
fn ring_config(machine: &Machine) -> io::Result<ServiceConfig> {
    let ring = machine.mem().control().service_header().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "cluster file has no service header (no injector ring)",
        )
    })?;
    Ok(ServiceConfig {
        slots: ring.slots as usize,
        job_words: ring.job_words as usize,
    })
}

// ====================================================================
// Reports
// ====================================================================

/// One shard's outcome, read from its persistent report block and lease.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The worker wrote its running-state marker (it attached and built
    /// the session).
    pub started: bool,
    /// The worker wrote its exit marker (it left the driver loop).
    pub exited: bool,
    /// The global completion flag was set when the worker exited.
    pub saw_completion: bool,
    /// Jobs this worker stole from dead siblings' deques.
    pub adopted_jobs: u64,
    /// Running threads this worker adopted from dead siblings.
    pub adopted_locals: u64,
    /// Adoptions this worker refused (unresumable remote restart
    /// pointer).
    pub blocked_adoptions: u64,
    /// Bitmask of shards this worker declared dead.
    pub declared_dead_mask: u64,
    /// Model-level hard faults among the worker's own processors.
    pub dead_procs: u64,
    /// Epoch-milliseconds horizon of the shard's last accepted heartbeat
    /// (the deadline of its last `Alive` renewal, preserved through the
    /// coordinator's tombstone). `None` when the worker never wrote a
    /// heartbeat — a worker tombstoned before its first renewal still
    /// gets a report row here (counters zeroed, `started: false`)
    /// instead of the shard being omitted from the summary.
    pub last_seen: Option<u64>,
    /// The shard's lease as last read (None: never readable).
    pub lease: Option<Lease>,
}

/// The cluster-wide outcome carried in [`SessionReport::cluster`].
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Shard count.
    pub shards: usize,
    /// Processors per shard.
    pub procs_per_shard: usize,
    /// Which role produced this summary.
    pub role: ClusterRole,
    /// Per-shard outcomes.
    pub shard_reports: Vec<ShardReport>,
    /// Shards that died, by the one rule every role reports by: the
    /// lease is tombstoned or expired on the reporter's clock (exactly how
    /// the workers' monitors judge, so a deployment that never tombstones
    /// still reports expiry-detected deaths), or the worker exited
    /// without seeing completion (own processors all hard-faulted).
    pub dead_shards: Vec<usize>,
}

/// Which cluster participant produced a [`ClusterSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRole {
    /// The coordinator process (created the file, spawned the workers).
    Coordinator,
    /// Worker process serving the given shard.
    Worker(usize),
    /// A post-mortem single-process recovery of a cluster file.
    Recovery,
}

impl ClusterSummary {
    /// Total frontier entries adopted from dead shards, across workers.
    pub fn adopted(&self) -> u64 {
        self.shard_reports
            .iter()
            .map(|r| r.adopted_jobs + r.adopted_locals)
            .sum()
    }

    /// Total refused adoptions across workers.
    pub fn blocked(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.blocked_adoptions).sum()
    }
}

const REPORT_STATE_RUNNING: Word = 1;
const REPORT_STATE_EXITED: Word = 2;

fn write_report(
    machine: &Machine,
    reports: Region,
    shard: usize,
    state: Word,
    saw_completion: bool,
    domain: &ShardDomain,
    dead_procs: u64,
) {
    let base = reports.at(shard * REPORT_WORDS);
    let mem = machine.mem();
    mem.store(base + 1, saw_completion as Word);
    mem.store(base + 2, domain.adopted_jobs());
    mem.store(base + 3, domain.adopted_locals());
    mem.store(base + 4, domain.blocked_adoptions());
    mem.store(base + 5, domain.adoptable_mask());
    mem.store(base + 6, dead_procs);
    // State word last: a report is only readable once its fields are.
    mem.store(base, state);
}

fn read_reports(machine: &Machine, session: &ClusterSession) -> Vec<ShardReport> {
    let mem = machine.mem();
    (0..session.map.shards)
        .map(|s| {
            let base = session.reports.at(s * REPORT_WORDS);
            let state = mem.load(base);
            let lease = mem.control().lease(s);
            // Worker heartbeats count from 1; the coordinator's seed
            // lease is seq 0 and a bare tombstone is seq u64::MAX, so
            // any other seq proves the worker renewed at least once.
            let last_seen =
                lease.and_then(|l| (l.seq >= 1 && l.seq < u64::MAX).then_some(l.deadline_ms));
            ShardReport {
                shard: s,
                started: state >= REPORT_STATE_RUNNING,
                exited: state >= REPORT_STATE_EXITED,
                saw_completion: mem.load(base + 1) != 0,
                adopted_jobs: mem.load(base + 2),
                adopted_locals: mem.load(base + 3),
                blocked_adoptions: mem.load(base + 4),
                declared_dead_mask: mem.load(base + 5),
                dead_procs: mem.load(base + 6),
                last_seen,
                lease,
            }
        })
        .collect()
}

/// The cluster outcome as currently persisted, as `role` sees it at
/// `now_ms` — the single place [`ClusterSummary::dead_shards`] is judged.
fn summarize(
    machine: &Machine,
    session: &ClusterSession,
    role: ClusterRole,
    now_ms: u64,
) -> ClusterSummary {
    let shard_reports = read_reports(machine, session);
    let dead_shards = shard_reports
        .iter()
        .filter(|r| {
            r.lease.is_some_and(|l| l.is_dead(now_ms))
                || (r.started && r.exited && !r.saw_completion)
        })
        .map(|r| r.shard)
        .collect();
    ClusterSummary {
        shards: session.map.shards,
        procs_per_shard: session.map.procs_per_shard,
        role,
        shard_reports,
        dead_shards,
    }
}

/// Tombstones shard `s`'s lease, preserving the sequence number and
/// deadline of a prior accepted heartbeat so the shard's
/// [`ShardReport::last_seen`] survives the reap. A worker that never
/// heartbeated (seed lease `seq == 0`, or no readable lease) gets the
/// bare tombstone and reports `last_seen: None`.
fn tombstone_lease(machine: &Machine, shard: usize) {
    let page = machine.mem().control();
    let (seq, deadline_ms) = match page.lease(shard) {
        Some(l) if l.state == LeaseState::Alive && l.seq >= 1 => (l.seq, l.deadline_ms),
        _ => (u64::MAX, 0),
    };
    let _ = page.write_lease(
        shard,
        &Lease {
            state: LeaseState::Dead,
            seq,
            deadline_ms,
        },
    );
}

// ====================================================================
// Aggregated scrape surface
// ====================================================================

/// Renders live lease telemetry for every shard, read from the shared
/// control page at scrape time: `ppm_lease_up` (1 while the lease is alive
/// and unexpired), `ppm_lease_seq` (renewal counter), and
/// `ppm_lease_age_ms` (milliseconds since the last accepted renewal —
/// which keeps growing after the worker dies, which is the point).
fn lease_metrics_text(mem: &PersistentMemory, shards: usize, lease_ms: u64) -> String {
    use std::fmt::Write as _;
    let now = ppm_pm::now_ms();
    let leases: Vec<Option<Lease>> = (0..shards).map(|s| mem.control().lease(s)).collect();
    let mut out = String::new();
    out.push_str("# HELP ppm_lease_up whether the shard's lease is alive and unexpired\n");
    out.push_str("# TYPE ppm_lease_up gauge\n");
    for (s, l) in leases.iter().enumerate() {
        let up = matches!(l, Some(l) if l.state == LeaseState::Alive && !l.is_dead(now));
        let _ = writeln!(out, "ppm_lease_up{{shard=\"{s}\"}} {}", up as u32);
    }
    out.push_str("# HELP ppm_lease_seq lease renewal counter of the shard\n");
    out.push_str("# TYPE ppm_lease_seq gauge\n");
    for (s, l) in leases.iter().enumerate() {
        if let Some(l) = l {
            if l.seq < u64::MAX {
                let _ = writeln!(out, "ppm_lease_seq{{shard=\"{s}\"}} {}", l.seq);
            }
        }
    }
    out.push_str(
        "# HELP ppm_lease_age_ms milliseconds since the shard's last accepted lease renewal\n",
    );
    out.push_str("# TYPE ppm_lease_age_ms gauge\n");
    for (s, l) in leases.iter().enumerate() {
        if let Some(l) = l {
            // Heartbeats only (seed and bare tombstones carry no renewal
            // time); a tombstone that preserved its heartbeat still ages.
            if l.seq >= 1 && l.seq < u64::MAX {
                let renewed = l.deadline_ms.saturating_sub(lease_ms);
                let _ = writeln!(
                    out,
                    "ppm_lease_age_ms{{shard=\"{s}\"}} {}",
                    now.saturating_sub(renewed)
                );
            }
        }
    }
    out
}

/// Starts the coordinator's aggregated Prometheus endpoint on `port`.
/// Each scrape merges (a) the coordinator machine's own registry, (b)
/// live lease telemetry from the shared control page, and (c) every
/// worker's scrape, fetched from `port + 1 + shard` at scrape time and
/// labeled `shard="<s>"`. A worker that stops answering keeps
/// contributing its **last-seen** scrape, so a dead shard's counters
/// stay visible (its lease age still growing) until adoption completes
/// and the run ends.
fn serve_aggregate(
    machine: &Machine,
    map: ShardMap,
    lease_ms: u64,
    port: u16,
) -> Option<MetricsServer> {
    let reg = machine.obs().registry().clone();
    let mem = machine.mem().clone();
    let cache: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(vec![None; map.shards]));
    let body: ppm_obs::BodyFn = Arc::new(move || {
        let mut parts = vec![reg.render(), lease_metrics_text(&mem, map.shards, lease_ms)];
        let mut cache = cache.lock().unwrap();
        for (s, slot) in cache.iter_mut().enumerate() {
            let worker_port = match port.checked_add(1 + s as u16) {
                Some(p) => p,
                None => continue,
            };
            if let Ok(text) = ppm_obs::http_get(
                (std::net::Ipv4Addr::LOCALHOST, worker_port),
                "/metrics",
                Duration::from_millis(200),
            ) {
                *slot = Some(text);
            }
            if let Some(text) = slot.as_deref() {
                parts.push(ppm_obs::inject_label(text, "shard", &s.to_string()));
            }
        }
        ppm_obs::merge_scrapes(&parts)
    });
    MetricsServer::start(port, body).ok()
}

// ====================================================================
// Worker
// ====================================================================

/// Serves one shard of a sharded run: attaches to the machine file
/// (shared run epoch, no superblock rewrite), replays the deterministic
/// session construction, then drives the shard's processors — idle at
/// first, pulling from the injector ring — while a monitor thread renews
/// this shard's lease, folds sibling deaths into the liveness oracle and
/// evaluates the completion rule. Returns when the global completion
/// flag is set (or every own processor hard-faulted).
///
/// The worker configures itself entirely from the file: machine shape
/// from the superblock, cluster geometry from the cluster header. `build`
/// must be the same [`ShardBuild`] the coordinator used.
#[cfg(unix)]
pub fn run_worker(
    path: impl AsRef<std::path::Path>,
    shard: usize,
    build: &ShardBuild,
) -> io::Result<SessionReport> {
    run_worker_with_clock(path, shard, build, ppm_pm::system_clock())
}

/// [`run_worker`] with an explicit [`ppm_pm::SharedClock`] driving every
/// lease-expiry judgment the worker makes (its own renewals and its
/// verdicts on sibling shards). Production uses the system clock; the
/// deterministic tests hand every worker one [`ppm_pm::VirtualClock`]
/// and advance it explicitly, so lease-expiry adoption is exercised
/// without racing real milliseconds.
#[cfg(unix)]
pub fn run_worker_with_clock(
    path: impl AsRef<std::path::Path>,
    shard: usize,
    build: &ShardBuild,
    clock: ppm_pm::SharedClock,
) -> io::Result<SessionReport> {
    let machine = Machine::attach(
        &path,
        ppm_pm::FaultConfig::none(),
        ppm_pm::ValidateMode::Strict,
    )?;
    // First heartbeat *before* any session work (seq 1; the monitor
    // continues from 2). Unconditional publication closes a service-mode
    // observability race: a worker killed between attach and its first
    // queue pull would otherwise still be on the coordinator's seed
    // lease, and its tombstone would report `last_seen: None` as if the
    // process never came up. The lease it overwrites may be a dead
    // incarnation's: the lone shard's replacement — no sibling exists to
    // adopt from the dead one — restarts its processors from their
    // restart pointers (§6), finishing their threads where they stopped.
    let mut restart = false;
    let (header, domain, session) = shard_session(&machine, shard, build, |header| {
        let (page, now) = (machine.mem().control(), clock.now_ms());
        let dead = page.lease(shard).is_some_and(|l| l.is_dead(now));
        restart = header.shards == 1 && dead;
        let _ = page.write_lease(shard, &Lease::alive_at(1, header.lease_ms, now));
    })?;
    write_report(
        &machine,
        session.reports,
        shard,
        REPORT_STATE_RUNNING,
        false,
        &domain,
        0,
    );
    let obs = machine.obs().clone();
    // Each worker streams to its own `<trace>.shard<k>.spans.jsonl` with
    // origin `shard + 1` baked into its span ids, so a capsule stolen or
    // adopted into this shard still links back to its forker's span in
    // another shard's file.
    obs.open_trace(shard as u32 + 1, machine.epoch());
    obs.event(TraceKind::RunStart, Some(shard as u32), None, || {
        format!("worker attached; own procs {:?}", domain.own_procs())
    });
    // Worker scrape endpoint on `PPM_METRICS_PORT + 1 + shard`; the
    // coordinator aggregates these under `shard` labels. Held to the end
    // of the session so a scraper can watch the shard's whole life.
    let metrics = Obs::metrics_port_from_env()
        .and_then(|p| p.checked_add(1 + shard as u16))
        .and_then(|p| obs.serve(p).ok());

    let stop = AtomicBool::new(false);
    let run = std::thread::scope(|scope| {
        let monitor = {
            let (machine, stop) = (&machine, &stop);
            let domain = domain.clone();
            let clock = clock.clone();
            scope.spawn(move || lease_monitor_loop(machine, &domain, header.lease_ms, stop, clock))
        };
        let policy = header_config(&header).checkpoint;
        // A processor's panic is re-raised only after the monitor stops,
        // so the worker dies (and its siblings adopt) instead of renewing
        // its lease forever from a scope that waits for the monitor.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let seats = match restart {
                true => restart_seats_or_find_work(&machine, &session.sched),
                false => Vec::new(),
            };
            let seat = |p: usize| seats.get(p).copied().unwrap_or(Seat::Fresh);
            run_attached_seats(&machine, &session, domain.own_procs(), seat, &policy)
        }));
        stop.store(true, Ordering::Release);
        // Cut the monitor's sleep short; a wake that lands before its
        // `stop` check costs one extra pass, never a missed stop.
        monitor.thread().unpark();
        monitor.join().expect("lease monitor panicked");
        run.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    });

    let completed = session.done.is_set(machine.mem());
    write_report(
        &machine,
        session.reports,
        shard,
        REPORT_STATE_EXITED,
        completed,
        &domain,
        run.dead_procs() as u64,
    );
    // Final lease: Done on a clean halt (siblings must not adopt a
    // completed shard), a self-tombstone when our own processors all
    // hard-faulted with the run unfinished (siblings should adopt *now*
    // rather than wait out the lease).
    let final_lease = Lease {
        state: match completed {
            true => LeaseState::Done,
            false => LeaseState::Dead,
        },
        seq: u64::MAX,
        deadline_ms: 0,
    };
    let _ = machine.mem().control().write_lease(shard, &final_lease);
    machine.flush()?;
    let outcome = match completed {
        true => "global completion flag set",
        false => "exiting incomplete (own processors dead)",
    };
    obs.event(TraceKind::RunEnd, Some(shard as u32), None, || {
        outcome.into()
    });

    let summary = summarize(
        &machine,
        &session,
        ClusterRole::Worker(shard),
        clock.now_ms(),
    );
    // A pull endpoint loses whatever its process counted after the last
    // scrape, and a batch worker's adoption counters move in its final
    // milliseconds. With an endpoint up, stay scrapeable for one more
    // heartbeat tick, so the aggregator's next pull takes final values.
    if metrics.is_some() {
        std::thread::sleep(heartbeat_tick(header.lease_ms));
    }
    let (epoch, mode) = (machine.epoch(), SessionMode::FreshRun);
    Ok(SessionReport::new(epoch, mode, Some(summary), Some(run)))
}

/// How often a worker renews its lease and looks at its siblings'.
fn heartbeat_tick(lease_ms: u64) -> Duration {
    Duration::from_millis((lease_ms / 4).max(10))
}

/// The worker's combined heartbeat and sibling monitor: renews this
/// shard's lease and folds dead siblings into the liveness oracle and the
/// domain. It never reads the ring: completion is decided by the done
/// check and by the close ([`InjectorQueue::settle`]). Runs until `stop`.
fn lease_monitor_loop(
    machine: &Machine,
    domain: &ShardDomain,
    lease_ms: u64,
    stop: &AtomicBool,
    clock: ppm_pm::SharedClock,
) {
    let page = machine.mem().control();
    let tick = heartbeat_tick(lease_ms);
    // Seq 1 was the worker's unconditional pre-session heartbeat.
    let mut seq = 2u64;
    while !stop.load(Ordering::Acquire) {
        let _ = page.write_lease(
            domain.shard(),
            &Lease::alive_at(seq, lease_ms, clock.now_ms()),
        );
        seq += 1;
        let now = clock.now_ms();
        for s in 0..domain.map().shards {
            if s == domain.shard() || domain.is_adoptable(s) {
                continue;
            }
            // A torn read (concurrent rewrite) keeps the previous view;
            // the next tick sees a consistent record.
            if let Some(lease) = page.lease(s) {
                if lease.is_dead(now) {
                    // Recorded before the verdict lands, so in this
                    // shard's stream it precedes every adoption it
                    // enables.
                    machine
                        .obs()
                        .event(TraceKind::ShardDead, Some(s as u32), None, || {
                            format!(
                                "shard {s} declared dead by shard {} (lease {:?}); procs {:?} adoptable",
                                domain.shard(),
                                lease.state,
                                domain.map().procs_of(s)
                            )
                        });
                    // The oracle's verdict: fold the dead shard into the
                    // model's isLive (its locals become stealable) and
                    // the domain. The Figure 3 protocol takes it from
                    // here.
                    for p in domain.map().procs_of(s) {
                        machine.liveness().mark_dead(p);
                    }
                    domain.mark_adoptable(s);
                }
            }
        }
        // Parked, not asleep: `run_worker` unparks this thread when it
        // sets `stop`. A spurious wake is one early heartbeat.
        std::thread::park_timeout(tick);
    }
}

// ====================================================================
// Coordinator
// ====================================================================

#[cfg(unix)]
pub(crate) fn observe_impl(
    builder: &ClusterBuilder,
    build: &ShardBuild,
    clock: ppm_pm::SharedClock,
) -> io::Result<ClusterObserver> {
    let (machine, session) = init_machine(builder, build, clock.now_ms())?;
    // The coordinator's own stream, and the manifest naming the stream
    // of every process this cluster can have — written now, so a killed
    // coordinator leaves it behind too.
    if let Some(base) = machine.obs().open_trace(0, machine.epoch()) {
        let _ = ppm_obs::write_manifest(&base, session.map.shards);
    }
    Ok(ClusterObserver {
        machine,
        session,
        lease_ms: builder.lease_ms,
        clock,
    })
}

/// A coordinator's handle on a running sharded machine: oracle reads of
/// the shared state (never a driver of any processor).
pub struct ClusterObserver {
    machine: Machine,
    session: ClusterSession,
    lease_ms: u64,
    /// Judges lease expiry in [`ClusterObserver::summary`] and drives the
    /// [`Supervisor`]; the system clock outside tests.
    clock: ppm_pm::SharedClock,
}

impl ClusterObserver {
    /// The observing machine attachment (progress reads, region oracle).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Whether the global completion flag is set.
    pub fn is_done(&self) -> bool {
        self.session.done.is_set(self.machine.mem())
    }

    /// Shard `s`'s current lease.
    pub fn lease(&self, shard: usize) -> Option<Lease> {
        self.machine.mem().control().lease(shard)
    }

    /// The cluster's shard geometry.
    pub fn map(&self) -> &ShardMap {
        &self.session.map
    }

    /// The coordinator clock's current reading.
    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Closes the ring's admission ([`InjectorQueue::close`]): a ring
    /// with nothing in flight completes at once.
    pub(crate) fn close_ring(&self) -> io::Result<bool> {
        self.session.service.close(self.session.done)
    }

    /// Sets the global completion flag (service shutdown: workers notice
    /// and exit their driver loops).
    pub(crate) fn set_done(&self) {
        self.machine.mem().store(self.session.done.addr(), 1);
        let _ = self.machine.flush();
    }

    /// The injector queue. This is the submit and status surface for
    /// coordinator-less deployments: an external supervisor that
    /// prepared the file with [`ClusterBuilder::observe`] publishes jobs
    /// through it while separately launched [`run_worker`] processes
    /// pull them.
    pub fn service_queue(&self) -> &Arc<InjectorQueue> {
        &self.session.service
    }

    /// The batch run's job set: publishes shard `s`'s sub-root into ring
    /// slot `s` at ticket `s + 1` (the persist-then-publish of
    /// [`InjectorQueue::submit`]), flushes, and closes admission — the
    /// header reads `Draining` — so the cluster is complete once every
    /// returned ticket is `Done`. Fails `InvalidInput`, publishing
    /// nothing, on a ring with fewer slots than shards or one that is not
    /// fresh.
    pub fn publish_shard_jobs(&self) -> io::Result<Vec<JobTicket>> {
        self.session.publish(&self.machine)
    }

    /// Tombstones shard `s`'s lease — the coordinator's reap step: call
    /// when the worker's death is known out-of-band (exit status), so
    /// survivors adopt immediately instead of waiting out the expiry.
    /// The worker's last heartbeat (if any) is preserved in the
    /// tombstone, so [`ShardReport::last_seen`] survives the reap.
    pub fn tombstone(&self, shard: usize) {
        tombstone_lease(&self.machine, shard);
        self.machine
            .obs()
            .event(TraceKind::ShardDead, Some(shard as u32), None, || {
                format!("coordinator tombstoned shard {shard}")
            });
    }

    /// Starts the aggregated Prometheus scrape endpoint on `port` (what
    /// [`Supervisor::launch`] does for `PPM_METRICS_PORT`): worker
    /// scrapes are fetched from `port + 1 + shard` and labeled, lease
    /// telemetry is read live from the shared control page, and a dead
    /// worker keeps contributing its last-seen series. `None` when the
    /// port cannot be bound.
    pub fn serve_metrics(&self, port: u16) -> Option<MetricsServer> {
        serve_aggregate(&self.machine, self.session.map, self.lease_ms, port)
    }

    /// The cluster outcome as currently persisted (see [`ClusterSummary`]
    /// for the dead-shard rule), judged on this observer's clock.
    pub fn summary(&self) -> ClusterSummary {
        summarize(
            &self.machine,
            &self.session,
            ClusterRole::Coordinator,
            self.clock.now_ms(),
        )
    }

    /// The coordinator's [`RunReport`]: completion is the persisted flag,
    /// a shard whose worker never saw it counts as a dead processor.
    pub(crate) fn run_report(&self, summary: &ClusterSummary, elapsed: Duration) -> RunReport {
        RunReport {
            completed: self.is_done(),
            outcomes: summary
                .shard_reports
                .iter()
                .map(|r| match r.saw_completion {
                    true => ProcOutcome::Halted,
                    false => ProcOutcome::Dead,
                })
                .collect(),
            stats: self.machine.stats().snapshot(),
            elapsed,
            deque_dump: self
                .session
                .sched
                .deques()
                .iter()
                .map(|d| crate::deque::render(self.machine.mem(), d))
                .collect(),
            checkpoints: Default::default(),
        }
    }

    /// Flushes, and records a clean shutdown when the run completed.
    pub fn finish(&self) -> io::Result<()> {
        self.machine.flush()?;
        if self.is_done() {
            self.machine.mark_clean()?;
        }
        Ok(())
    }
}

#[cfg(unix)]
fn init_machine(
    builder: &ClusterBuilder,
    build: &ShardBuild,
    now_ms: u64,
) -> io::Result<(Machine, ClusterSession)> {
    let pm = builder.pm()?.clone();
    let machine = match builder.pool_words {
        Some(w) => Machine::create_durable_with_pool_words(pm, w, &builder.path)?,
        None => Machine::create_durable(pm, &builder.path)?,
    };
    let (header, page) = (builder.header(), machine.mem().control());
    page.write_cluster_header(&header)?;
    let (shards, cfg) = (builder.shards, header_config(&header));
    let session = build_session(&machine, shards, &cfg, builder.service_config, None, build);
    // An open ring, nothing published: workers start idle and pull.
    page.write_service_header(&session.service.header(ServiceState::Accepting))?;
    let seed_lease = Lease::alive_at(0, builder.lease_ms * STARTUP_LEASE_FACTOR, now_ms);
    for s in 0..builder.shards {
        page.write_lease(s, &seed_lease)?;
    }
    // Everything a worker needs is durable before any worker exists.
    machine.flush()?;
    Ok((machine, session))
}

// ====================================================================
// Single-process recovery of a cluster file
// ====================================================================

/// Finishes a sharded run single-process, for when the cluster itself
/// could not complete (every fault domain died): reopens the file (epoch
/// bump — this *is* a recovery) and runs the one recovery
/// `Runtime::run_or_recover` runs ([`crate::driver`]'s `recover`), with
/// the scheduler shape from the cluster header and the ring shape from
/// the service header. Admission closes (no submitter outlives the
/// cluster) and the ring is finished under its one completion rule. The
/// report carries a [`ClusterRole::Recovery`] summary, taken once the run
/// is over so the shard rows reflect what recovery itself finished.
#[cfg(unix)]
pub fn recover(path: impl AsRef<std::path::Path>, build: &ShardBuild) -> io::Result<SessionReport> {
    let machine = Machine::reopen(&path)?;
    let header = read_header(&machine)?;
    let ring = ring_config(&machine)?;
    // Recovery appends to the coordinator's stream: the epoch bits in its
    // span ids keep them disjoint from the crashed epoch's, and
    // re-executed capsules resolve their parents from the persistent
    // frame words — the recovery-resume causal edge.
    machine.obs().open_trace(0, machine.epoch());
    let (shards, cfg) = (header.shards as usize, header_config(&header));
    let (session, report) = crate::driver::recover(&machine, shards, &cfg, ring, build)?;
    let summary = summarize(&machine, &session, ClusterRole::Recovery, ppm_pm::now_ms());
    Ok(SessionReport {
        cluster: Some(summary),
        ..report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::PmConfig;

    #[test]
    fn a_domain_declares_siblings_dead_but_never_its_own_shard() {
        let d = ShardDomain::new(ShardMap::new(8, 4), 1);
        d.mark_adoptable(3);
        d.mark_adoptable(1);
        assert!(d.is_adoptable(3) && !d.is_adoptable(1));
        assert_eq!(d.adoptable_mask(), 1 << 3);
    }

    /// A worker tombstoned before its first heartbeat must still get a
    /// report row (`last_seen: None`, counters intact) instead of being
    /// dropped, and a tombstone over a real heartbeat must preserve it.
    #[cfg(unix)]
    #[test]
    fn tombstone_before_first_heartbeat_keeps_report_row() {
        let path =
            std::env::temp_dir().join(format!("ppm-cluster-tombstone-{}.ppm", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // The sub-root IS the done frame: each shard's job completes the
        // moment it runs (no workers run here anyway).
        let build: ShardBuild = Arc::new(|_machine, _s, done| done);
        let observer = ClusterBuilder::new(&path)
            .machine(PmConfig::parallel(2, 1 << 20))
            .workers(2)
            .lease_ms(500)
            .observe(&build)
            .expect("init cluster file");

        // Shard 0 heartbeats once, then dies and is reaped.
        let hb = Lease::alive(7, 500);
        let _ = observer.machine().mem().control().write_lease(0, &hb);
        observer.tombstone(0);
        // Shard 1 is reaped before ever renewing its seed lease.
        observer.tombstone(1);

        let summary = observer.summary();
        assert_eq!(summary.shard_reports.len(), 2, "no shard row is dropped");
        let r0 = &summary.shard_reports[0];
        let r1 = &summary.shard_reports[1];
        assert_eq!(
            r0.last_seen,
            Some(hb.deadline_ms),
            "tombstone preserves the last heartbeat"
        );
        assert_eq!(r0.lease.unwrap().state, LeaseState::Dead);
        assert_eq!(
            r1.last_seen, None,
            "never-heartbeated shard: last_seen None"
        );
        assert!(!r1.started && r1.adopted_jobs == 0 && r1.blocked_adoptions == 0);
        assert_eq!(summary.dead_shards, vec![0, 1], "both tombstones count");

        let _ = std::fs::remove_file(&path);
    }

    /// The single dead-shard rule, judged on the observer's clock: a
    /// worker that attached (`RUNNING`) but has not exited is alive for as
    /// long as its lease is — judging by `started && !saw_completion`
    /// alone would call every still-running worker dead.
    #[cfg(unix)]
    #[test]
    fn running_shard_with_a_live_lease_is_not_reported_dead() {
        let file = ppm_pm::TempMachineFile::new("cluster-summary-rule");
        let build: ShardBuild = Arc::new(|_machine, _s, done| done);
        let clock = Arc::new(ppm_pm::VirtualClock::starting_at(10_000));
        let builder = ClusterBuilder::new(file.path())
            .machine(PmConfig::parallel(2, 1 << 20))
            .workers(2)
            .lease_ms(500);
        let observer = observe_impl(&builder, &build, clock.clone()).expect("init cluster file");

        // Shard 0 attached and heartbeats; shard 1 ran its processors to
        // death and left without seeing completion.
        let domain = ShardDomain::new(*observer.map(), 0);
        let reports = observer.session.reports;
        let page = observer.machine().mem().control();
        write_report(
            observer.machine(),
            reports,
            0,
            REPORT_STATE_RUNNING,
            false,
            &domain,
            0,
        );
        let _ = page.write_lease(0, &Lease::alive_at(3, 500, observer.now_ms()));
        write_report(
            observer.machine(),
            reports,
            1,
            REPORT_STATE_EXITED,
            false,
            &domain,
            1,
        );

        let summary = observer.summary();
        assert_eq!(summary.role, ClusterRole::Coordinator);
        let r0 = &summary.shard_reports[0];
        assert!(r0.started && !r0.exited && !r0.saw_completion);
        assert_eq!(
            summary.dead_shards,
            vec![1],
            "only the exited shard is dead"
        );

        // Same persisted state, later on the clock: the lease expired.
        clock.advance(501);
        assert_eq!(observer.summary().dead_shards, vec![0, 1]);
    }

    #[test]
    fn cluster_builder_header_round_trip() {
        let h = ClusterBuilder::new("unused.ppm")
            .machine(PmConfig::parallel(8, 1 << 20))
            .workers(4)
            .lease_ms(700)
            .deque_slots(1 << 12)
            .seed(0x1234)
            .header();
        assert_eq!(h.shards, 4);
        assert_eq!(h.lease_ms, 700);
        assert_eq!(h.deque_slots, 1 << 12);
        assert_eq!(h.seed, 0x1234);
    }
}
