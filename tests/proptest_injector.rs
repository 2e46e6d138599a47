//! Property tests for the durable injector queue: random job batches
//! are published host-side into a service machine file, every volatile
//! handle is dropped (the "crash" — only the `MmapBackend` file
//! survives), and the file is finished by [`cluster::recover`] through
//! a real reopen. The §5 exactly-once claim at the ticket level: every
//! submitted ticket resolves `Done` through exactly one done-CAM win,
//! every job effect lands, and the ring drains to empty.
//!
//! The submit side uses the external-supervisor deployment shape —
//! [`ClusterBuilder::observe`] + [`ClusterObserver::service_queue`] —
//! so these tests also pin that public surface.

#![cfg(unix)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use ppm::core::{dsl, CapsuleId, Machine, Persist};
use ppm::pm::{PmConfig, Region, TempMachineFile, Word};
use ppm::sched::cluster::{self, ClusterBuilder, ShardBuild};
use ppm::sched::{InjectorQueue, JobStatus, JobTicket, ServiceConfig, SessionMode};

const PROCS_PER_SHARD: usize = 2;
/// Words each job fills in the shared output region.
const JOB_SLICE: usize = 8;
/// Upper bound on jobs any strategy generates (sizes the output region).
const MAX_JOBS: usize = 8;

/// What the build closure records for the host side: the output region
/// and the job kind's capsule id. Construction determinism guarantees
/// every attaching session (submit-side observer, recovery) re-records
/// the same values.
#[derive(Clone, Copy, Default)]
struct JobKind {
    out: Option<Region>,
    split: Option<CapsuleId>,
}

/// Registers the job computation: `inj/split` fans a span out into
/// `inj/mark` leaves that fill `out[lo..hi]` with `i + 1`. The returned
/// root (required by the `ShardBuild` contract) is never published here
/// — the registrations and the region allocation are the point — so it
/// gets an empty span.
fn job_build(shared: Arc<Mutex<JobKind>>) -> ShardBuild {
    Arc::new(move |m: &Machine, _shard: usize, k: Word| {
        let out = m.alloc_region(MAX_JOBS * JOB_SLICE);
        let mut set = dsl::CapsuleSet::new(m);
        let leaf = set.define("inj/mark", |st: &dsl::Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as u64 + 1)?;
            }
            Ok(dsl::Step::Jump(k))
        });
        let split = set.map_grain("inj/split", 2, leaf);
        let mut shared = shared.lock().unwrap();
        shared.out = Some(out);
        shared.split = Some(split.id());
        split
            .setup(
                m,
                &dsl::Span {
                    env: out,
                    lo: 0,
                    hi: 0,
                },
                dsl::K(k),
            )
            .0
    })
}

/// Encoded `Span<Region>` argument words for job `j`'s slice.
fn span_args(out: Region, job: usize) -> Vec<Word> {
    let mut args = Vec::new();
    dsl::Span {
        env: out,
        lo: job * JOB_SLICE,
        hi: (job + 1) * JOB_SLICE,
    }
    .encode(&mut args);
    args
}

fn service_builder(path: &std::path::Path, slots: usize) -> ClusterBuilder {
    ClusterBuilder::new(path)
        .machine(PmConfig::parallel(PROCS_PER_SHARD, 1 << 21))
        .workers(1)
        .lease_ms(200)
        .deque_slots(1 << 10)
        .service_config(ServiceConfig::default().with_slots(slots))
}

/// Post-recovery oracle: reopen the file bare and check every ticket
/// and every job effect. Status reads only decode the durable slot
/// state/ticket words (never a capsule frame), so a bare
/// [`InjectorQueue::attach`] without the session's registration replay
/// is sound here — ids written into frames are never consulted.
fn assert_all_done(path: &std::path::Path, tickets: &[JobTicket], out: Region, jobs: usize) {
    let machine = Machine::reopen(path).unwrap();
    let queue = InjectorQueue::attach(&machine).unwrap();
    assert_eq!(queue.depth(), 0, "ring must drain completely");
    for t in tickets {
        assert!(
            matches!(queue.status(*t), JobStatus::Done { .. }),
            "ticket {t:?} must resolve Done, got {:?}",
            queue.status(*t)
        );
    }
    for i in 0..jobs * JOB_SLICE {
        assert_eq!(machine.mem().load(out.at(i)), i as u64 + 1, "job word {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Round-trip: submit a random batch, crash before any worker ever
    /// runs, recover. Every ticket survives the reopen and resolves
    /// `Done` exactly once; the second recover is a no-op.
    #[test]
    fn submitted_jobs_survive_a_crash_and_complete_exactly_once(
        n_jobs in 1usize..MAX_JOBS + 1,
        extra_slots in 0usize..4,
    ) {
        let file = TempMachineFile::new("proptest-injector");
        let shared = Arc::new(Mutex::new(JobKind::default()));
        let build = job_build(shared.clone());
        let builder = service_builder(file.path(), n_jobs + extra_slots);

        let tickets = {
            let observer = builder.observe(&build).unwrap();
            let queue = observer.service_queue();
            let kind = *shared.lock().unwrap();
            let (out, split) = (kind.out.unwrap(), kind.split.unwrap());
            let tickets: Vec<JobTicket> = (0..n_jobs)
                .map(|j| queue.submit(split, &span_args(out, j)).expect("ring has capacity"))
                .collect();
            prop_assert_eq!(queue.depth(), n_jobs, "every published slot visible");
            let slots: BTreeSet<usize> = tickets.iter().map(|t| t.slot).collect();
            prop_assert_eq!(slots.len(), n_jobs, "tickets occupy distinct slots");
            for t in &tickets {
                prop_assert!(
                    matches!(queue.status(*t), JobStatus::InFlight(_)),
                    "pre-crash status must be in flight"
                );
            }
            tickets
        }; // Drop the observer and queue: the crash.

        let rep = cluster::recover(file.path(), &build).unwrap();
        prop_assert!(rep.completed(), "recovery must drain the ring");
        prop_assert_eq!(
            rep.mode,
            SessionMode::Resumed,
            "no worker ran: every processor restarts at findWork and pulls the ring"
        );

        let again = cluster::recover(file.path(), &build).unwrap();
        prop_assert_eq!(again.mode, SessionMode::AlreadyComplete);

        let out = shared.lock().unwrap().out.unwrap();
        assert_all_done(file.path(), &tickets, out, n_jobs);
    }

    /// A full ring backpressures: `submit` returns `WouldBlock` rather
    /// than silently dropping, and the accepted prefix still completes.
    #[test]
    fn a_full_ring_backpressures_and_the_accepted_prefix_completes(
        slots in 2usize..5,
        over in 1usize..4,
    ) {
        let file = TempMachineFile::new("proptest-injector-full");
        let shared = Arc::new(Mutex::new(JobKind::default()));
        let build = job_build(shared.clone());
        let builder = service_builder(file.path(), slots);

        let tickets = {
            let observer = builder.observe(&build).unwrap();
            let queue = observer.service_queue();
            let kind = *shared.lock().unwrap();
            let (out, split) = (kind.out.unwrap(), kind.split.unwrap());
            let tickets: Vec<JobTicket> = (0..slots)
                .map(|j| queue.submit(split, &span_args(out, j)).expect("within capacity"))
                .collect();
            for j in 0..over {
                let err = queue
                    .submit(split, &span_args(out, slots + j))
                    .expect_err("full ring must refuse");
                prop_assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
            }
            prop_assert_eq!(queue.depth(), slots, "rejected submits left no residue");
            tickets
        };

        let rep = cluster::recover(file.path(), &build).unwrap();
        prop_assert!(rep.completed());
        let out = shared.lock().unwrap().out.unwrap();
        assert_all_done(file.path(), &tickets, out, slots);
    }

    /// Concurrent submitters race the publish CAM: every thread's
    /// tickets land in distinct slots, nothing is lost or double-
    /// published, and recovery completes all of them.
    #[test]
    fn concurrent_submitters_get_distinct_durable_slots(
        threads in 2usize..5,
        per_thread in 1usize..3,
    ) {
        let total = threads * per_thread;
        let file = TempMachineFile::new("proptest-injector-mpmc");
        let shared = Arc::new(Mutex::new(JobKind::default()));
        let build = job_build(shared.clone());
        let builder = service_builder(file.path(), total);

        let tickets = {
            let observer = builder.observe(&build).unwrap();
            let queue = observer.service_queue();
            let kind = *shared.lock().unwrap();
            let (out, split) = (kind.out.unwrap(), kind.split.unwrap());
            let tickets: Vec<JobTicket> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let queue = queue.clone();
                        scope.spawn(move || {
                            (0..per_thread)
                                .map(|i| {
                                    queue
                                        .submit(split, &span_args(out, t * per_thread + i))
                                        .expect("capacity == total submissions")
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            let slots: BTreeSet<usize> = tickets.iter().map(|t| t.slot).collect();
            prop_assert_eq!(slots.len(), total, "publish CAM must never double-grant a slot");
            let nums: BTreeSet<u64> = tickets.iter().map(|t| t.ticket).collect();
            prop_assert_eq!(nums.len(), total, "ticket numbers are unique");
            prop_assert_eq!(queue.depth(), total);
            tickets
        };

        let rep = cluster::recover(file.path(), &build).unwrap();
        prop_assert!(rep.completed());
        let out = shared.lock().unwrap().out.unwrap();
        assert_all_done(file.path(), &tickets, out, total);
    }
}
