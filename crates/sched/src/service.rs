//! The durable MPMC **injector queue** — the one way work enters a
//! cluster — plus the [`ServiceHandle`] API (`submit` / `await_job` /
//! `drain` / `shutdown`) over it.
//!
//! Every cluster file ([`crate::cluster`]) carries this ring of
//! persistent slots in the ordinary word array, described by the
//! [`ppm_pm::ServiceHeader`] in the control page. A batch run publishes
//! one job per shard and closes admission at once; a **service** run
//! keeps admission open. Every spinning processor's steal loop consults
//! the ring (an uncosted peek, like victim selection) before probing
//! victim deques, so a published job is pulled by whichever shard is idle
//! and fans out across live shards through ordinary deque stealing. A
//! [`crate::Runtime`] session is the same with one slot, its root.
//!
//! ## Completion is decided where it becomes true
//!
//! A ring is complete when admission is closed (`Draining`) and no slot
//! is published, claimed or running (`InjectorQueue::settle`). The rule
//! is evaluated by the two events that can make it true: the
//! `service/done/check` whose done CAM won, and `InjectorQueue::close`.
//! Two last finishers cannot both miss (each CAM precedes its own scan,
//! all `SeqCst`), nor can a close and the last done CAM (see `close`); a
//! processor dying in between leaves the check as its restart pointer.
//! No timer reads the ring.
//!
//! ## The two-phase submit
//!
//! A submitter that crashes mid-write must never leave a torn job:
//!
//! 1. **Persist**: win an `EMPTY → STAGING` slot (CAS, epoch bumped),
//!    write the job/entry/done frames into the slot's private workspace,
//!    write the slot's ticket, entry-handle, and checksum control words,
//!    then `flush_dirty` — everything a puller will read is durable.
//! 2. **Publish**: store the `PUBLISHED` state word. The state word is
//!    the *only* thing pullers dispatch on, so a crash before it leaves
//!    an invisible `STAGING` slot (reclaimed by quiescent
//!    [`InjectorQueue::scavenge`]), never a half-written job.
//!
//! ## The claim protocol (exactly-once completion)
//!
//! Pulling is the §5 CAM discipline, one CAM per capsule: read
//! (`PUBLISHED`, verify checksum, latch the puller as claimant) → seat
//! (`Local` at the bottom of the puller's deque) → claim CAM
//! (`PUBLISHED → CLAIMED⟨epoch, claimant⟩` — claimant-distinct payloads,
//! so racing pullers never issue identical CAMs) → check (won: the slot's
//! **entry frame**; lost: `sched/clearBottom` clears the seat). The
//! registered `service/entry` capsule moves the slot to `RUNNING` and
//! jumps to the job frame; the job's final continuation is the slot's
//! **done frame**, whose single winning `RUNNING → DONE` CAM is the job's
//! exactly-once completion point. Every adoption re-claim or reclaim
//! bumps the slot's 16-bit claim epoch.
//!
//! Job bodies follow the same rule every persistent computation here
//! follows: effects must be §5 atomically idempotent (racy-read /
//! racy-write / CAM capsules), because a crash–adoption window can run a
//! body's capsules more than once even though its *completion* (the done
//! CAM) is exactly-once.
//!
//! ## Crash coverage: one rescuer
//!
//! * Submitter dies before publish → invisible staging slot, scavenged.
//! * Puller dies before its seat → the slot is still `PUBLISHED`.
//! * Claimant dies at or after its seat → a survivor adopts its thread
//!   (Figure 3) and resumes the restart pointer: the pull's CAM or check
//!   (the record latches the claimant, so the adopter issues the same
//!   CAM and compare), the entry frame — whose dead-claimant arm
//!   re-claims the slot at epoch + 1 — or the job itself.
//! * Whole cluster dies → [`crate::cluster::recover`] closes admission
//!   and finishes the queued jobs single-process, every processor
//!   restarting at its own restart pointer (§6): a claim stays with its
//!   claimant's restarted thread, or its adopter's. Only a fallback that
//!   scrubs the deques has [`InjectorQueue::scavenge`] republish claims.
//!
//! Nothing else republishes a claimed slot. Exactly-once resolution is
//! the done CAM on the `RUNNING` word; a republish would fence nothing
//! from a claimant declared dead while still running (it keeps running
//! beside its adopter), only add a copy. That live twin is the lease
//! fence's problem (ROADMAP item 3); `service/entry/check` keeps its
//! losing arm as safety code for it.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_core::registry::frame_args;
use ppm_core::{CapsuleId, DoneFlag, Machine, Next};
use ppm_obs::{Counter, Obs, TraceKind};
use ppm_pm::service::{
    ring_words, slot_checksum, slot_claimant, slot_epoch, slot_phase, slot_state,
};
use ppm_pm::{
    is_frame_at, store_frame, PersistentMemory, Region, ServiceHeader, ServiceState, SlotPhase,
    Word,
};

use crate::capsules::go;
use crate::cluster::{ClusterObserver, ClusterSummary, ShardReport};
use crate::driver::SessionReport;
use crate::step::SchedStep;
use crate::supervisor::Supervisor;

/// Word offset of the entry frame inside a slot's workspace.
const WS_ENTRY_OFF: usize = 0;
/// Word offset of the done frame inside a slot's workspace.
const WS_DONE_OFF: usize = 8;
/// Word offset of the job frame inside a slot's workspace.
const WS_JOB_OFF: usize = 16;
/// Frame-header + fixed-arg words a job frame needs beyond its user args
/// (3 header words plus the appended done-frame continuation handle).
const JOB_FRAME_OVERHEAD: usize = 4;

/// Shape of a service run's injector queue. Persisted once in the
/// [`ppm_pm::ServiceHeader`]; every attaching process reads it back from
/// the machine file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Ring slots — the bound on concurrently in-flight (submitted but
    /// not yet awaited) jobs. A full ring makes `submit` return
    /// `WouldBlock`, never silently drop.
    pub slots: usize,
    /// Words of private frame workspace per slot. Bounds a job's argument
    /// count: `job_words - 16 - 4` user argument words (entry and done
    /// frames occupy the first 16 words; a job frame needs 3 header words
    /// plus the appended continuation handle).
    pub job_words: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            slots: 32,
            job_words: 64,
        }
    }
}

impl ServiceConfig {
    /// The ring of a [`crate::Runtime`] session: one slot, for the root,
    /// with the smallest workspace [`ServiceConfig::validate`] accepts.
    pub(crate) const SESSION: ServiceConfig = ServiceConfig {
        slots: 1,
        job_words: WS_JOB_OFF + JOB_FRAME_OVERHEAD,
    };

    /// Sets the ring slot count.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the per-slot workspace size in words.
    pub fn with_job_words(mut self, words: usize) -> Self {
        self.job_words = words;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.slots >= 1, "service ring needs at least one slot");
        assert!(self.slots <= 0x1000, "service ring slot count exceeds 4096");
        assert!(
            self.job_words >= Self::SESSION.job_words,
            "job_words must be at least {}",
            Self::SESSION.job_words
        );
    }
}

/// A submitted job's receipt: resolves through
/// [`ServiceHandle::await_job`] (or [`InjectorQueue::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTicket {
    /// Ring slot the job occupies until reclaimed.
    pub slot: usize,
    /// Globally unique (per machine file) submission number, from the
    /// ring's durable ticket counter. Guards the slot against reuse races
    /// (ABA): every status read verifies the slot still carries it.
    pub ticket: u64,
    /// The slot epoch this job was published at (each slot life bumps
    /// it). Adoption re-claims bump the slot epoch further; the gap
    /// between a resolution's epoch and this one counts the re-claims the
    /// job survived ([`JobReport::rescues`]).
    pub epoch: u64,
}

/// Where a ticket's job currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Still in the pipeline (published, claimed, or running).
    InFlight(SlotPhase),
    /// Completed exactly-once (the done CAM won).
    Done {
        /// Processor whose done CAM completed the job.
        claimant: usize,
        /// Slot epoch at completion. Exceeds the ticket's publish epoch
        /// ([`JobTicket::epoch`]) by the number of adoption re-claims the
        /// job survived.
        claim_epoch: u64,
    },
    /// The slot no longer carries this ticket — the job was completed,
    /// reclaimed, and the slot reused (double-await), or the ticket never
    /// published.
    Lost,
}

/// What [`ServiceHandle::await_job`] returns for a resolved ticket.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The resolved ticket.
    pub ticket: JobTicket,
    /// Processor whose done CAM completed the job.
    pub claimant: usize,
    /// Slot epoch at completion (see [`JobReport::rescues`]).
    pub claim_epoch: u64,
    /// Wall-clock time from the await call to resolution.
    pub elapsed: Duration,
    /// Cluster-wide state at resolution — the same nested shape batch
    /// [`SessionReport`]s carry, so per-job and per-session reporting
    /// share field names and accessors.
    pub cluster: Option<ClusterSummary>,
}

impl JobReport {
    /// Re-claims this job survived: how many times the slot epoch was
    /// bumped past the publish epoch because an adopter took over a dead
    /// claimant's thread (0 = first claimant finished it).
    pub fn rescues(&self) -> u64 {
        self.claim_epoch.saturating_sub(self.ticket.epoch)
    }

    /// Total frontier entries adopted from dead shards (cluster-wide).
    pub fn adopted(&self) -> u64 {
        self.cluster.as_ref().map(|c| c.adopted()).unwrap_or(0)
    }

    /// Total refused adoptions (cluster-wide).
    pub fn blocked(&self) -> u64 {
        self.cluster.as_ref().map(|c| c.blocked()).unwrap_or(0)
    }

    /// Per-shard outcome rows, empty without a cluster summary.
    pub fn shard_reports(&self) -> &[ShardReport] {
        self.cluster
            .as_ref()
            .map(|c| c.shard_reports.as_slice())
            .unwrap_or(&[])
    }
}

// ====================================================================
// The injector queue
// ====================================================================

/// The durable MPMC injector ring: submit-side (host code, CAS +
/// persist-then-publish) and pull-side (capsules, §5 CAM discipline)
/// views of the same persistent slots.
///
/// Constructed by the cluster session builder or
/// [`InjectorQueue::attach`]; installed into the scheduler so the steal
/// loop scans for published slots before probing victim deques.
pub struct InjectorQueue {
    mem: Arc<PersistentMemory>,
    obs: Arc<Obs>,
    /// Ticket counter word + per-slot control words.
    ring: Region,
    /// `slots × job_words` private frame workspaces.
    workspace: Region,
    slots: usize,
    job_words: usize,
    entry_id: CapsuleId,
    done_id: CapsuleId,
    jobs_submitted: Counter,
    jobs_claimed: Counter,
    jobs_completed: Counter,
}

impl std::fmt::Debug for InjectorQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InjectorQueue({} slots x {} words, depth {})",
            self.slots,
            self.job_words,
            self.depth()
        )
    }
}

impl InjectorQueue {
    /// Builds the queue over freshly allocated (or deterministically
    /// re-allocated) regions, registering the `service/entry` and
    /// `service/done` capsules and the queue metrics. Called from the
    /// cluster session construction, in the same spot in every attaching
    /// process, so the capsule ids written into shared frames agree.
    pub(crate) fn install(
        machine: &Machine,
        ring: Region,
        workspace: Region,
        cfg: ServiceConfig,
    ) -> Arc<Self> {
        cfg.validate();
        assert!(ring.len >= ring_words(cfg.slots), "ring region too small");
        assert!(
            workspace.len >= cfg.slots * cfg.job_words,
            "workspace region too small"
        );
        let registry = machine.registry();
        let obs = machine.obs().clone();
        let reg = obs.registry();
        let jobs_submitted = reg.counter(
            "ppm_service_jobs_submitted_total",
            "jobs published into the injector ring",
        );
        let jobs_claimed = reg.counter(
            "ppm_service_jobs_claimed_total",
            "injector claim CAMs won by this process's processors",
        );
        let jobs_completed = reg.counter(
            "ppm_service_jobs_completed_total",
            "job done CAMs won by this process's processors",
        );

        let entry_id = registry.allocate("service/entry");
        registry.register(
            entry_id,
            "service/entry",
            |args| frame_args::<4>("service/entry", args),
            |&[state_a, ticket_a, ticket, job], ctx| {
                let me = ctx.proc();
                // Ticket guard: if the slot was reclaimed and reused, a
                // stale resumed entry frame must do nothing.
                if ctx.pread(ticket_a as ppm_pm::Addr)? != ticket {
                    return Ok(Next::End);
                }
                let st = ctx.pread(state_a as ppm_pm::Addr)?;
                let claimant = slot_claimant(st);
                match slot_phase(st) {
                    // Our own claim: advance to RUNNING, then the job.
                    Some(SlotPhase::Claimed) if claimant == me => {
                        let new = slot_state(SlotPhase::Running, slot_epoch(st), me);
                        Ok(go(SchedStep::EntryCam(state_a, st, new, job)))
                    }
                    // We already advanced it and crashed before the jump:
                    // just run the job.
                    Some(SlotPhase::Running) if claimant == me => Ok(Next::JumpHandle(job)),
                    // Adoption: the claimant hard-faulted anywhere from its
                    // seat on and we inherited its thread. Re-claim at
                    // epoch + 1 (the bump counts the re-claim); the word
                    // names us, so the dead claimant's latched CAMs miss.
                    Some(SlotPhase::Claimed) | Some(SlotPhase::Running)
                        if !ctx.is_live(claimant) =>
                    {
                        let new = slot_state(SlotPhase::Running, slot_epoch(st) + 1, me);
                        Ok(go(SchedStep::EntryCam(state_a, st, new, job)))
                    }
                    // Someone else legitimately owns (or finished) the
                    // slot: nothing for this thread.
                    _ => Ok(Next::End),
                }
            },
            |args, out| {
                if let [state_a, ticket_a, _ticket, job] = args {
                    out.extent(*state_a as usize, 1);
                    out.extent(*ticket_a as usize, 1);
                    out.handle(*job);
                    true
                } else {
                    false
                }
            },
        );

        let done_id = registry.allocate("service/done");
        registry.register(
            done_id,
            "service/done",
            |args| frame_args::<3>("service/done", args),
            |&[state_a, ticket_a, ticket], ctx| {
                if ctx.pread(ticket_a as ppm_pm::Addr)? != ticket {
                    return Ok(Next::End);
                }
                let st = ctx.pread(state_a as ppm_pm::Addr)?;
                match slot_phase(st) {
                    Some(SlotPhase::Running) => {
                        let done_w = slot_state(SlotPhase::Done, slot_epoch(st), slot_claimant(st));
                        // The exactly-once `RUNNING → DONE` CAM, alone in
                        // its capsule, then its check.
                        Ok(go(SchedStep::DoneCam(state_a, st, done_w, ticket)))
                    }
                    // DONE already (a benign re-run), or the slot moved on
                    // (reclaimed and reused): nothing to complete.
                    _ => Ok(Next::End),
                }
            },
            |args, out| {
                if let [state_a, ticket_a, _ticket] = args {
                    out.extent(*state_a as usize, 1);
                    out.extent(*ticket_a as usize, 1);
                    true
                } else {
                    false
                }
            },
        );

        let q = Arc::new(InjectorQueue {
            mem: machine.mem().clone(),
            obs,
            ring,
            workspace,
            slots: cfg.slots,
            job_words: cfg.job_words,
            entry_id,
            done_id,
            jobs_submitted,
            jobs_claimed,
            jobs_completed,
        });
        // Weak: the queue holds the `Obs` owning this registry, so a strong
        // handle would keep both, and the mapping, alive past the session.
        let depth_q = Arc::downgrade(&q);
        q.obs.registry().gauge_fn(
            "ppm_service_queue_depth",
            "injector-ring slots currently published, claimed, or running",
            &[],
            move || depth_q.upgrade().map_or(0.0, |q| q.depth() as f64),
        );
        q
    }

    /// Attaches to an existing service machine from its persisted
    /// [`ServiceHeader`] alone. The caller must have replayed the same
    /// capsule registrations that preceded the queue's original
    /// construction (construction determinism — the ids stored in shared
    /// frames must agree), which the cluster session builder guarantees.
    pub fn attach(machine: &Machine) -> io::Result<Arc<Self>> {
        let header = machine.mem().control().service_header().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "machine file has no service header (not a service run)",
            )
        })?;
        let cfg = ServiceConfig {
            slots: header.slots as usize,
            job_words: header.job_words as usize,
        };
        let ring = Region {
            start: header.ring_base as usize,
            len: ring_words(cfg.slots),
        };
        let workspace = Region {
            start: header.workspace_base as usize,
            len: cfg.slots * cfg.job_words,
        };
        Ok(Self::install(machine, ring, workspace, cfg))
    }

    /// The ring's shape, as it would be persisted.
    pub fn header(&self, state: ServiceState) -> ServiceHeader {
        ServiceHeader {
            state,
            slots: self.slots as u64,
            job_words: self.job_words as u64,
            ring_base: self.ring.start as u64,
            workspace_base: self.workspace.start as u64,
        }
    }

    /// Ring slot count.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn counter_addr(&self) -> ppm_pm::Addr {
        self.ring.start
    }

    pub(crate) fn state_addr(&self, slot: usize) -> ppm_pm::Addr {
        self.ring.at(1 + slot * ppm_pm::service::SLOT_CTL_WORDS)
    }

    pub(crate) fn ticket_addr(&self, slot: usize) -> ppm_pm::Addr {
        self.state_addr(slot) + 1
    }

    pub(crate) fn entry_addr(&self, slot: usize) -> ppm_pm::Addr {
        self.state_addr(slot) + 2
    }

    pub(crate) fn check_addr(&self, slot: usize) -> ppm_pm::Addr {
        self.state_addr(slot) + 3
    }

    fn ws_addr(&self, slot: usize) -> ppm_pm::Addr {
        self.workspace.at(slot * self.job_words)
    }

    /// The handle of slot `slot`'s done frame, every job's continuation
    /// there (plain arithmetic: a slot past the ring is never published).
    pub(crate) fn done_frame(&self, slot: usize) -> Word {
        (self.workspace.start + slot * self.job_words + WS_DONE_OFF) as Word
    }

    /// Job completions this process's processors have won (exactly-once
    /// done CAMs; cluster-wide totals come from the aggregated scrape).
    pub fn completed_total(&self) -> u64 {
        self.jobs_completed.get()
    }

    /// Jobs currently published, claimed, or running (completed-but-
    /// unreclaimed slots do not count). An oracle read.
    pub fn depth(&self) -> usize {
        (0..self.slots)
            .filter(|s| {
                matches!(
                    slot_phase(self.mem.load(self.state_addr(*s))),
                    Some(SlotPhase::Published)
                        | Some(SlotPhase::Claimed)
                        | Some(SlotPhase::Running)
                )
            })
            .count()
    }

    /// Maximum user argument words a job submission may carry.
    pub fn max_args(&self) -> usize {
        self.job_words - WS_JOB_OFF - JOB_FRAME_OVERHEAD
    }

    /// Submits a job: the capsule `kind`'s frame is built in the won
    /// slot's workspace with `args` plus an appended continuation handle
    /// (the slot's done frame — `kind`'s body must treat its last
    /// argument as the frame handle to jump to on completion, the
    /// standard continuation-passing contract). Runs host-side (oracle
    /// writes + one durability flush), not as model capsules: crash
    /// atomicity comes from persist-then-publish, not from capsule
    /// idempotence.
    ///
    /// Fails `WouldBlock` when no slot is reclaimable (backpressure) and
    /// `InvalidInput` when `args` exceeds [`InjectorQueue::max_args`].
    pub fn submit(&self, kind: CapsuleId, args: &[Word]) -> io::Result<JobTicket> {
        if args.len() > self.max_args() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "job args ({}) exceed the slot workspace budget ({})",
                    args.len(),
                    self.max_args()
                ),
            ));
        }
        let ticket = self.mem.fetch_add(self.counter_addr(), 1) + 1;
        let Some((slot, epoch)) =
            (0..self.slots).find_map(|i| self.stage((ticket as usize + i) % self.slots))
        else {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injector ring full (await completed jobs to free slots)",
            ));
        };
        let ws = self.ws_addr(slot);
        let mut job_args = Vec::with_capacity(args.len() + 1);
        job_args.extend_from_slice(args);
        job_args.push(self.done_frame(slot));
        store_frame(&self.mem, ws + WS_JOB_OFF, kind, &job_args);
        self.persist(slot, ticket, (ws + WS_JOB_OFF) as Word);
        self.mem.flush_dirty()?;
        Ok(self.publish(slot, epoch, ticket))
    }

    /// Publishes a fixed job set into a fresh ring: `jobs[s]` — a frame
    /// handle whose continuation is [`InjectorQueue::done_frame`]`(s)` —
    /// goes into slot `s` at ticket `s + 1`, through the same two phases
    /// as [`InjectorQueue::submit`]: every slot persisted, one flush,
    /// then every slot published back to back, so each shard's first
    /// scan finds its own job already there. Fails `InvalidInput`,
    /// publishing nothing, when the ring has fewer slots than jobs or is
    /// not fresh (a ticket was issued).
    pub(crate) fn publish_fixed(&self, jobs: &[Word]) -> io::Result<Vec<JobTicket>> {
        let n = jobs.len();
        // host-CAS: the coordinator publishes once, before any submitter
        // can exist; a counter still at 0 proves no slot was ever staged.
        let counter = self.counter_addr();
        if n > self.slots || !self.mem.cas_unsafe_under_faults(counter, 0, n as Word) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{n} jobs need a fresh ring of at least {n} slots"),
            ));
        }
        let epochs: Vec<u64> = (0..n)
            .map(|s| {
                let (_, epoch) = self.stage(s).expect("a fresh slot stages");
                self.persist(s, s as u64 + 1, jobs[s]);
                epoch
            })
            .collect();
        self.mem.flush_dirty()?;
        Ok(epochs
            .into_iter()
            .enumerate()
            .map(|(s, epoch)| self.publish(s, epoch, s as u64 + 1))
            .collect())
    }

    /// Moves slot `s` from `EMPTY` to `STAGING`, bumping its epoch (which
    /// fences any stale CAM aimed at the slot's previous life). Returns
    /// the slot and its new epoch when this call won it.
    fn stage(&self, s: usize) -> Option<(usize, u64)> {
        let w = self.mem.load(self.state_addr(s));
        if slot_phase(w) != Some(SlotPhase::Empty) {
            return None;
        }
        let staging = slot_state(SlotPhase::Staging, slot_epoch(w) + 1, 0);
        // host-CAS: submitters are host threads outside the capsule
        // re-execution regime — a crashed submitter never re-runs this
        // CAS, and a torn staging slot is scavenged on recovery; the
        // two-phase publish is what makes the crash harmless.
        self.mem
            .cas_unsafe_under_faults(self.state_addr(s), w, staging)
            .then_some((s, slot_epoch(staging)))
    }

    /// Phase 1 of every publication into staged slot `slot`: the done and
    /// entry frames (the entry frame runs `job`) and the control words a
    /// puller reads. The caller flushes before [`InjectorQueue::publish`].
    fn persist(&self, slot: usize, ticket: u64, job: Word) {
        let ws = self.ws_addr(slot);
        let state_a = self.state_addr(slot) as Word;
        let ticket_a = self.ticket_addr(slot) as Word;
        let entry_at = (ws + WS_ENTRY_OFF) as Word;
        store_frame(
            &self.mem,
            ws + WS_DONE_OFF,
            self.done_id,
            &[state_a, ticket_a, ticket],
        );
        store_frame(
            &self.mem,
            ws + WS_ENTRY_OFF,
            self.entry_id,
            &[state_a, ticket_a, ticket, job],
        );
        self.mem.store(self.ticket_addr(slot), ticket);
        self.mem.store(self.entry_addr(slot), entry_at);
        self.mem
            .store(self.check_addr(slot), slot_checksum(ticket, entry_at));
    }

    /// Phase 2 of every publication, once phase 1 is flushed: the
    /// `PUBLISHED` state word, the single visibility point.
    fn publish(&self, slot: usize, epoch: u64, ticket: u64) -> JobTicket {
        self.mem.store(
            self.state_addr(slot),
            slot_state(SlotPhase::Published, epoch, 0),
        );
        self.jobs_submitted.inc();
        self.obs.event(TraceKind::JobSubmitted, None, None, || {
            format!("ticket {ticket} published in slot {slot} (epoch {epoch})")
        });
        JobTicket {
            slot,
            ticket,
            epoch,
        }
    }

    /// Ephemeral puller peek: the first [`claimable`] slot at or after
    /// `start` (wrapping). Uncosted, like victim selection — the costed
    /// claim is the capsule chain entered on the result.
    pub(crate) fn scan(&self, start: usize) -> Option<usize> {
        (0..self.slots)
            .map(|i| (start + i) % self.slots)
            .find(|s| claimable(self.mem.load(self.state_addr(*s))))
    }

    /// Where `ticket` currently stands. An oracle read, safe from any
    /// process attached to the machine.
    pub fn status(&self, t: JobTicket) -> JobStatus {
        if t.slot >= self.slots {
            return JobStatus::Lost;
        }
        let st = self.mem.load(self.state_addr(t.slot));
        if self.mem.load(self.ticket_addr(t.slot)) != t.ticket {
            return JobStatus::Lost;
        }
        match slot_phase(st) {
            Some(SlotPhase::Done) => JobStatus::Done {
                claimant: slot_claimant(st),
                claim_epoch: slot_epoch(st),
            },
            // Reclaimed after completion (double await): still resolved.
            Some(SlotPhase::Empty) => JobStatus::Done {
                claimant: slot_claimant(st),
                claim_epoch: slot_epoch(st),
            },
            Some(p) => JobStatus::InFlight(p),
            None => JobStatus::Lost,
        }
    }

    /// Frees a completed ticket's slot (`DONE → EMPTY`, epoch bumped).
    /// Returns whether this call performed the reclaim.
    pub fn reclaim(&self, t: JobTicket) -> bool {
        if t.slot >= self.slots || self.mem.load(self.ticket_addr(t.slot)) != t.ticket {
            return false;
        }
        let st = self.mem.load(self.state_addr(t.slot));
        if slot_phase(st) != Some(SlotPhase::Done) {
            return false;
        }
        let empty = slot_state(SlotPhase::Empty, slot_epoch(st) + 1, 0);
        // host-CAS: reclaim runs on the awaiting host thread, never
        // re-executed after a fault; losing the race just means another
        // reclaimer (or none) freed the slot.
        self.mem
            .cas_unsafe_under_faults(self.state_addr(t.slot), st, empty)
    }

    /// Quiescent recovery sweep (no live pullers or submitters): torn
    /// staging slots are reclaimed, a published slot whose control words
    /// fail their checksum is reclaimed rather than served, and claims no
    /// recovered thread holds (`held`) are republished at epoch + 1.
    /// Plain stores — the caller owns the machine exclusively.
    pub fn scavenge(&self, held: HeldClaims) -> usize {
        let mut touched = 0;
        for s in 0..self.slots {
            let w = self.mem.load(self.state_addr(s));
            let next = match slot_phase(w) {
                Some(SlotPhase::Staging) => Some(slot_state(SlotPhase::Empty, slot_epoch(w), 0)),
                Some(SlotPhase::Claimed) if held == HeldClaims::All => None,
                Some(SlotPhase::Running) if held != HeldClaims::Nothing => None,
                Some(SlotPhase::Claimed) | Some(SlotPhase::Running) => {
                    Some(slot_state(SlotPhase::Published, slot_epoch(w) + 1, 0))
                }
                Some(SlotPhase::Published) => {
                    let ticket = self.mem.load(self.ticket_addr(s));
                    let entry = self.mem.load(self.entry_addr(s));
                    let ok = self.mem.load(self.check_addr(s)) == slot_checksum(ticket, entry)
                        && is_frame_at(&self.mem, entry as usize);
                    if ok {
                        None
                    } else {
                        Some(slot_state(SlotPhase::Empty, slot_epoch(w) + 1, 0))
                    }
                }
                _ => None,
            };
            if let Some(next) = next {
                self.mem.store(self.state_addr(s), next);
                touched += 1;
            }
        }
        touched
    }

    /// Zeroes the ticket counter and every slot control word of a ring no
    /// processor has seen, so its job set can be published (again).
    pub(crate) fn clear(&self) {
        for a in self.ring.start..self.ring.end() {
            self.mem.store(a, 0);
        }
    }

    /// Closes admission (the `Draining` header) and evaluates the
    /// completion rule ([`InjectorQueue::settle`]), so a ring that drained
    /// before it closed completes here. Returns whether it did. Racing the
    /// last done CAM is safe: close stores the header then scans, the
    /// done check CAMs then reads the header, all `SeqCst`, so at least
    /// one sees the other (a header torn by the store was read before it,
    /// so the scan comes later still and sees `DONE`).
    pub(crate) fn close(&self, done: DoneFlag) -> io::Result<bool> {
        let page = self.mem.control();
        page.write_service_header(&self.header(ServiceState::Draining))?;
        Ok(self.settle(done))
    }

    /// The one completion rule of a ring: admission is closed (the header
    /// says `Draining`) and no slot is published, claimed or running.
    /// When it holds, sets `done` (idempotently) and returns true. The
    /// header is read first, so an open ring skips the depth scan.
    pub(crate) fn settle(&self, done: DoneFlag) -> bool {
        let header = self.mem.control().service_header();
        let drained =
            header.is_some_and(|h| h.state == ServiceState::Draining) && self.depth() == 0;
        if drained {
            self.mem.store(done.addr(), 1);
        }
        drained
    }

    pub(crate) fn note_claimed(&self, me: usize, slot: usize, ticket: u64) {
        self.jobs_claimed.inc();
        self.obs
            .event(TraceKind::JobClaimed, None, Some(me as u32), || {
                format!("ticket {ticket} claimed from slot {slot}")
            });
    }

    /// A done CAM won on processor `me`: count and trace the completion.
    pub(crate) fn note_completed(&self, me: usize, ticket: u64, done_w: Word) {
        self.jobs_completed.inc();
        self.obs
            .event(TraceKind::JobDone, None, Some(me as u32), || {
                format!("ticket {ticket} completed (epoch {})", slot_epoch(done_w))
            });
    }
}

/// Which of a ring's claims the threads a recovery seats still hold
/// ([`InjectorQueue::scavenge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeldClaims {
    /// Every `CLAIMED` and `RUNNING` slot: §6's restart, where each
    /// claimant or its adopter resumes at its own pull record, entry
    /// frame or job.
    All,
    /// `RUNNING` slots: a planted checkpoint frontier. A planted
    /// `service/entry` frame run by anyone but its claimant — all live
    /// after a reopen — ends without advancing a `CLAIMED` slot.
    Running,
    /// None: a replay from the root pulls every unfinished job again.
    Nothing,
}

/// Whether a puller may claim a slot whose state word is `w`: it is
/// `PUBLISHED`. A claimed slot always has a seated thread to finish it.
pub(crate) fn claimable(w: Word) -> bool {
    slot_phase(w) == Some(SlotPhase::Published)
}

// ====================================================================
// The service handle
// ====================================================================

/// How long [`ServiceHandle::shutdown`] waits for workers to observe the
/// done flag before killing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// The coordinator's handle on a running job service: submit jobs, await
/// their tickets, watch worker health (the [`Supervisor`] sweep, which
/// reaps and tombstones dead workers; survivors adopt their claimed
/// jobs), and wind the service down.
/// Created by [`crate::cluster::ClusterBuilder::spawn`].
pub struct ServiceHandle {
    sup: Supervisor,
    state: ServiceState,
}

impl ServiceHandle {
    pub(crate) fn new(sup: Supervisor) -> Self {
        ServiceHandle {
            sup,
            state: ServiceState::Accepting,
        }
    }

    /// The observer half (progress reads, lease table, metrics).
    pub fn observer(&self) -> &ClusterObserver {
        self.sup.observer()
    }

    /// The injector queue (direct submit/status access for tests and
    /// embedders that manage their own tickets).
    pub fn queue(&self) -> &Arc<InjectorQueue> {
        self.observer().service_queue()
    }

    /// Jobs currently in flight.
    pub fn depth(&self) -> usize {
        self.queue().depth()
    }

    /// Submits a job by registered capsule name (the name must have been
    /// registered by the session's [`crate::cluster::ShardBuild`] —
    /// construction determinism guarantees every worker can run it). The
    /// capsule's decode receives `args` plus an appended
    /// continuation frame handle it must jump to on completion.
    pub fn submit(&mut self, kind: &'static str, args: &[Word]) -> io::Result<JobTicket> {
        self.tick();
        if self.state != ServiceState::Accepting {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "service is draining or stopped",
            ));
        }
        let id = self
            .observer()
            .machine()
            .registry()
            .id_of(kind)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no registered capsule named {kind:?}"),
                )
            })?;
        self.queue().submit(id, args)
    }

    /// Blocks until `ticket` resolves (completing the exactly-once
    /// contract by reclaiming its slot) or `timeout` passes. Worker
    /// health is swept while waiting, so a killed worker is tombstoned at
    /// once and a survivor adopts and completes the ticket's job rather
    /// than waiting out the lease.
    pub fn await_job(&mut self, ticket: JobTicket, timeout: Duration) -> io::Result<JobReport> {
        let start = Instant::now();
        loop {
            self.tick();
            match self.queue().status(ticket) {
                JobStatus::Done {
                    claimant,
                    claim_epoch,
                } => {
                    self.queue().reclaim(ticket);
                    return Ok(JobReport {
                        ticket,
                        claimant,
                        claim_epoch,
                        elapsed: start.elapsed(),
                        cluster: Some(self.observer().summary()),
                    });
                }
                JobStatus::Lost => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!(
                            "ticket {} lost (slot reused or never published)",
                            ticket.ticket
                        ),
                    ));
                }
                JobStatus::InFlight(_) => {
                    if start.elapsed() > timeout {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("ticket {} still in flight", ticket.ticket),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// One health sweep: the [`Supervisor::tick`] (reap exited workers,
    /// tombstone their leases). It writes no ring word.
    pub fn tick(&mut self) {
        self.sup.tick();
    }

    /// Stops accepting submissions and waits (up to `timeout`) for the
    /// in-flight jobs to finish. A closed, empty ring is the cluster's
    /// completion rule (`InjectorQueue::settle`), so the workers end
    /// too: the last job's done check (or, for a ring already empty, the
    /// close itself — `InjectorQueue::close`) sets the done flag and
    /// every worker exits with a `Done` lease. Scrape or inspect anything
    /// the workers serve *before* draining; [`ServiceHandle::shutdown`]
    /// then reaps them and reports.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<()> {
        self.state = ServiceState::Draining;
        self.observer().close_ring()?;
        let start = Instant::now();
        while self.queue().depth() > 0 {
            self.tick();
            if start.elapsed() > timeout {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} jobs still in flight", self.queue().depth()),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Kills worker `shard` (SIGKILL) and tombstones its lease — the
    /// fault-injection hook service examples and tests use. Survivors
    /// adopt the jobs the shard had claimed.
    pub fn kill_worker(&mut self, shard: usize) -> io::Result<()> {
        self.sup.kill_worker(shard)
    }

    /// Stops the service: marks the header `Stopped`, sets the global
    /// done flag (workers halt at their next steal-loop poll), waits for
    /// worker exits (killing stragglers after a grace period), and
    /// returns the final session report.
    pub fn shutdown(mut self) -> io::Result<SessionReport> {
        let page = self.observer().machine().mem().control();
        let _ = page.write_service_header(&self.queue().header(ServiceState::Stopped));
        self.observer().set_done();
        self.sup.wait_exit(SHUTDOWN_GRACE);
        self.sup.finish()
    }
}
