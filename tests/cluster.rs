//! Multi-process sharded runtime, exercised in-process: several
//! `Machine::attach`-style attachments to one machine file inside one
//! test process (the `MAP_SHARED` mapping makes them exactly as coherent
//! as separate OS processes — what a real `kill -9` adds is exercised by
//! `examples/sharded_fault.rs`), plus one run with real worker processes
//! under `ClusterBuilder::run`.

#![cfg(unix)]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ppm::core::{dsl, Active, Machine, Persist, Scheduler};
use ppm::pm::{LeaseState, PmConfig, Region, ShardMap, TempMachineFile, Word};
use ppm::sched::cluster::{self, ClusterBuilder, ClusterRole, ShardBuild};
use ppm::sched::{
    kind_of, EntryKind, InjectorQueue, JobStatus, JobTicket, SessionMode, SimEvent, SimSched,
};

const PROCS_PER_SHARD: usize = 2;
const SLICE: usize = 96;
const GRAIN: usize = 8;

/// A sharded marker computation: shard `s` fills its own slice with
/// `i + 1`. The builder records each shard's slice region so the test
/// can verify the output (regions are deterministic across attachments,
/// so every re-invocation records the same addresses).
fn marker_build(slices: Arc<Mutex<Vec<Option<Region>>>>) -> ShardBuild {
    Arc::new(move |m: &Machine, shard: usize, k: Word| {
        let out = m.alloc_region(SLICE);
        slices.lock().unwrap()[shard] = Some(out);
        let mut set = dsl::CapsuleSet::new(m);
        let leaf = set.define("clt/mark", |st: &dsl::Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), i as u64 + 1)?;
            }
            Ok(dsl::Step::Jump(k))
        });
        let split = set.map_grain("clt/split", GRAIN, leaf);
        split
            .setup(
                m,
                &dsl::Span {
                    env: out,
                    lo: 0,
                    hi: SLICE,
                },
                dsl::K(k),
            )
            .0
    })
}

fn cluster_builder(path: &std::path::Path, shards: usize, lease_ms: u64) -> ClusterBuilder {
    ClusterBuilder::new(path)
        .machine(PmConfig::parallel(shards * PROCS_PER_SHARD, 1 << 21))
        .workers(shards)
        .lease_ms(lease_ms)
        .deque_slots(1 << 10)
}

fn assert_slices_filled(machine: &Machine, slices: &Mutex<Vec<Option<Region>>>) {
    for (s, slice) in slices.lock().unwrap().iter().enumerate() {
        let r = slice.expect("builder ran for every shard");
        for i in 0..SLICE {
            assert_eq!(
                machine.mem().load(r.at(i)),
                i as u64 + 1,
                "shard {s} word {i}"
            );
        }
    }
}

/// Shard `s`'s job as `publish_shard_jobs` publishes it: slot `s`,
/// ticket `s + 1`, the first life of a fresh slot.
fn shard_ticket(s: usize) -> JobTicket {
    JobTicket {
        slot: s,
        ticket: s as u64 + 1,
        epoch: 1,
    }
}

/// Every shard's ticket resolved `Done`, read through a bare attach of
/// the ring (status reads decode only slot words). Returns how many shard
/// jobs ran on their own shard, which the caller prints: locality is
/// measured, not asserted.
fn assert_shard_tickets_done(machine: &Machine, shards: usize) -> usize {
    let queue = InjectorQueue::attach(machine).unwrap();
    let map = ShardMap::new(machine.procs(), shards);
    (0..shards)
        .filter(|&s| match queue.status(shard_ticket(s)) {
            JobStatus::Done { claimant, .. } => map.shard_of(claimant) == s,
            other => panic!("shard {s}'s ticket must resolve Done, got {other:?}"),
        })
        .count()
}

#[test]
fn workers_complete_their_shards_independently() {
    let file = TempMachineFile::new("cluster-basic");
    let slices = Arc::new(Mutex::new(vec![None; 2]));
    let build = marker_build(slices.clone());
    let builder = cluster_builder(file.path(), 2, 1000);
    builder
        .observe(&build)
        .unwrap()
        .publish_shard_jobs()
        .unwrap();

    // Two "workers" as threads, each with its own attachment — the same
    // memory semantics as separate processes over the shared mapping.
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|s| {
                let build = build.clone();
                let path = file.path().to_path_buf();
                scope.spawn(move || cluster::run_worker(&path, s, &build).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (s, rep) in reports.iter().enumerate() {
        assert!(rep.completed(), "worker {s} must see the run complete");
        assert_eq!(rep.epoch, 1, "attachers share the creating run's epoch");
        let summary = rep.cluster.as_ref().unwrap();
        assert_eq!(summary.role, ClusterRole::Worker(s));
        assert_eq!(summary.shards, 2);
        assert!(
            summary.dead_shards.is_empty(),
            "no worker died; nothing to adopt"
        );
    }

    // Verify the output through a fresh attachment.
    let machine = Machine::attach(
        file.path(),
        ppm::pm::FaultConfig::none(),
        ppm::pm::ValidateMode::Strict,
    )
    .unwrap();
    assert_slices_filled(&machine, &slices);
    let local = assert_shard_tickets_done(&machine, 2);
    println!("shard jobs run on their own shard: {local} of 2");
}

#[test]
fn survivor_serves_a_shard_that_never_starts() {
    let file = TempMachineFile::new("cluster-adopt");
    let slices = Arc::new(Mutex::new(vec![None; 2]));
    let build = marker_build(slices.clone());
    // Shard 1 never attaches, standing in for a worker that was spawned
    // and immediately SIGKILLed. Its seed lease (10x the window, written
    // by init on the system clock) must expire before worker 0 declares
    // it dead; instead of sleeping those milliseconds away, hand worker 0
    // a virtual clock already past every possible seed deadline, so the
    // first monitor tick judges shard 1 dead deterministically.
    let lease_ms = 60;
    let observer = cluster_builder(file.path(), 2, lease_ms)
        .observe(&build)
        .unwrap();
    let tickets = observer.publish_shard_jobs().unwrap();
    let clock = Arc::new(ppm::pm::VirtualClock::starting_at(
        ppm::pm::now_ms() + lease_ms * cluster::STARTUP_LEASE_FACTOR + 1,
    ));

    let rep = cluster::run_worker_with_clock(file.path(), 0, &build, clock).unwrap();
    assert!(
        rep.completed(),
        "the lone survivor must finish the whole run"
    );
    let summary = rep.cluster.as_ref().unwrap();
    assert_eq!(summary.dead_shards, vec![1], "shard 1's lease expired");
    let queue = observer.service_queue();
    assert!(
        matches!(queue.status(tickets[0]), JobStatus::Done { .. }),
        "survivor's own job resolved"
    );
    match queue.status(tickets[1]) {
        JobStatus::Done { claimant, .. } => assert!(
            observer.map().procs_of(0).contains(&claimant),
            "the dead shard's job was served by shard 0 (claimant {claimant})"
        ),
        other => panic!("the dead shard's ticket must resolve Done, got {other:?}"),
    }
    assert!(
        !summary.shard_reports[1].started,
        "shard 1 never wrote its running marker"
    );

    let machine = Machine::attach(
        file.path(),
        ppm::pm::FaultConfig::none(),
        ppm::pm::ValidateMode::Strict,
    )
    .unwrap();
    assert_slices_filled(&machine, &slices);
}

/// The completion rule from a worker's side: on an open ring (nothing
/// published, admission open) a worker keeps serving through heartbeat
/// after heartbeat; once the coordinator publishes the shard jobs and
/// closes admission, the worker finishes them, sets the done flag itself
/// and leaves a `Done` lease.
#[test]
fn a_worker_on_an_open_ring_runs_until_its_jobs_are_published_and_done() {
    let file = TempMachineFile::new("cluster-open-ring");
    let slices = Arc::new(Mutex::new(vec![None; 1]));
    let build = marker_build(slices.clone());
    // A 40 ms lease is a 10 ms heartbeat tick.
    let observer = cluster_builder(file.path(), 1, 40).observe(&build).unwrap();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| cluster::run_worker(file.path(), 0, &build).unwrap());
        // Seq 1 is the pre-session heartbeat and seq 2 the monitor's
        // first; seq 4 means two more ticks have passed.
        let start = std::time::Instant::now();
        while !matches!(observer.lease(0), Some(l) if (4..u64::MAX).contains(&l.seq)) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "no heartbeats from the worker"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!worker.is_finished(), "an open ring never completes");
        assert!(!observer.is_done());

        let tickets = observer.publish_shard_jobs().unwrap();
        let rep = worker.join().unwrap();
        assert!(rep.completed(), "a closed, drained ring completes");
        assert_eq!(observer.lease(0).map(|l| l.state), Some(LeaseState::Done));
        for t in tickets {
            let status = observer.service_queue().status(t);
            assert!(matches!(status, JobStatus::Done { .. }), "{status:?}");
        }
    });
    assert_slices_filled(observer.machine(), &slices);
}

/// A worker killed *inside* scheduler code is adopted like any other: its
/// restart pointer is a scheduler record — words in its metadata block —
/// and a survivor in another attachment, with its own arena and its own
/// registry, decodes the capsule from them. (While scheduler capsules
/// were closures this restart pointer died with the worker, the survivor
/// refused the adoption, and the run hung until a deadline degraded it
/// to `recover`.)
#[test]
fn survivor_adopts_a_worker_killed_inside_pushbottom() {
    let file = TempMachineFile::new("cluster-midpush");
    let slices = Arc::new(Mutex::new(vec![None; 2]));
    let build = marker_build(slices.clone());
    // The coordinator: prepares the file and publishes the shard jobs,
    // then only watches.
    let coordinator = cluster_builder(file.path(), 2, 60).observe(&build).unwrap();
    let tickets = coordinator.publish_shard_jobs().unwrap();

    // Worker 0, stepped capsule by capsule on its own attachment until
    // its first processor — holding the shard's root thread (pulled from
    // the ring), a `Local` entry at the bottom of its deque — has
    // installed a pushBottom capsule. Then the attachment is dropped: a
    // SIGKILL at that boundary.
    {
        let attach = |path| {
            let fault = ppm::pm::FaultConfig::none();
            Machine::attach(path, fault, ppm::pm::ValidateMode::Strict).unwrap()
        };
        let machine = attach(file.path());
        let mut sim = SimSched::new_worker(&machine, 0, &build).unwrap();
        let mid_push = (0..200).any(|_| {
            matches!(sim.step(0), SimEvent::Ran { next, .. } if next.starts_with("sched/pushBottom"))
        });
        assert!(mid_push, "the root thread forks:\n{}", sim.render_trace());
        let sched = sim.sched();
        let restart_pointer = machine.active_handle(0);
        match machine.arena().try_resolve(restart_pointer) {
            Ok(Active::Sched(rec)) => {
                assert!(sched.name(&rec).starts_with("sched/pushBottom"))
            }
            _ => panic!("restart pointer {restart_pointer:#x} must be a scheduler record"),
        }
        let d0 = sched.deques()[0];
        let locals = (0..d0.slots)
            .filter(|i| kind_of(machine.mem().load(d0.entry(*i))) == EntryKind::Local)
            .count();
        assert_eq!(locals, 1, "the thread it was running");
    }
    // The coordinator's reap step.
    coordinator.tombstone(0);

    // Worker 1: a fresh attachment, real threads, a virtual clock that
    // never advances — the tombstone alone makes shard 0 adoptable.
    let clock = Arc::new(ppm::pm::VirtualClock::starting_at(ppm::pm::now_ms()));
    let rep = cluster::run_worker_with_clock(file.path(), 1, &build, clock).unwrap();
    assert!(rep.completed(), "the survivor finishes both subtrees");
    let summary = rep.cluster.as_ref().unwrap();
    assert_eq!(summary.dead_shards, vec![0]);
    let own = &summary.shard_reports[1];
    assert!(
        own.adopted_locals >= 1,
        "the thread parked in pushBottom is adopted through popTop's \
         local-steal path (adopted_locals = {})",
        own.adopted_locals
    );
    assert_eq!(own.blocked_adoptions, 0, "no restart pointer was refused");
    assert_eq!(rep.blocked(), 0);
    let status = coordinator.service_queue().status(tickets[0]);
    assert!(matches!(status, JobStatus::Done { .. }), "{status:?}");

    let machine = Machine::reopen(file.path()).unwrap();
    assert_slices_filled(&machine, &slices);
}

/// A worker killed while its shard job is `RUNNING` — the window where a
/// supervisor sweep used to republish the job beside its adopted thread —
/// is finished by adoption alone: no `Supervisor` runs, only the
/// coordinator's tombstone, and the surviving worker resumes the dead
/// claimant's own thread, so the ticket resolves under the dead
/// claimant's claim at its publish epoch (nothing re-claimed or re-ran
/// it).
#[test]
fn a_running_job_of_a_killed_worker_is_finished_by_adoption() {
    let file = TempMachineFile::new("cluster-running-adopt");
    let slices = Arc::new(Mutex::new(vec![None; 2]));
    let build = marker_build(slices.clone());
    let coordinator = cluster_builder(file.path(), 2, 60).observe(&build).unwrap();
    let tickets = coordinator.publish_shard_jobs().unwrap();

    // Worker 0's first processor pulls its shard's job and advances the
    // slot to `RUNNING`; then the attachment is dropped — a SIGKILL at
    // that boundary.
    {
        let attach = |path| {
            let fault = ppm::pm::FaultConfig::none();
            Machine::attach(path, fault, ppm::pm::ValidateMode::Strict).unwrap()
        };
        let machine = attach(file.path());
        let mut sim = SimSched::new_worker(&machine, 0, &build).unwrap();
        let running = (0..200).any(
            |_| matches!(sim.step(0), SimEvent::Ran { next, .. } if next == "service/entry/check"),
        );
        assert!(running, "the job reaches RUNNING:\n{}", sim.render_trace());
        let status = InjectorQueue::attach(&machine).unwrap().status(tickets[0]);
        assert!(
            matches!(status, JobStatus::InFlight(ppm::pm::SlotPhase::Running)),
            "{status:?}"
        );
    }
    coordinator.tombstone(0);

    let (tx, rx) = std::sync::mpsc::channel();
    let (path, survivor_build) = (file.path().to_path_buf(), build.clone());
    std::thread::spawn(move || {
        let clock = Arc::new(ppm::pm::VirtualClock::starting_at(ppm::pm::now_ms()));
        let _ = tx.send(cluster::run_worker_with_clock(&path, 1, &survivor_build, clock).unwrap());
    });
    let rep = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the survivor finishes within 30 s");
    assert!(rep.completed(), "the survivor finishes both shard jobs");
    let summary = rep.cluster.as_ref().unwrap();
    assert_eq!(summary.dead_shards, vec![0]);
    let own = &summary.shard_reports[1];
    assert!(
        own.adopted_locals >= 1,
        "the dead claimant's thread is adopted (adopted_locals = {})",
        own.adopted_locals
    );
    assert_eq!(rep.blocked(), 0);
    match coordinator.service_queue().status(tickets[0]) {
        JobStatus::Done {
            claimant,
            claim_epoch,
        } => {
            assert_eq!(claimant, 0, "the dead claimant's own claim completes");
            assert_eq!(claim_epoch, tickets[0].epoch, "nothing re-claimed the job");
        }
        other => panic!("shard 0's ticket must resolve Done, got {other:?}"),
    }
    let machine = Machine::reopen(file.path()).unwrap();
    assert_slices_filled(&machine, &slices);
}

#[test]
fn recover_finishes_an_abandoned_cluster_file() {
    let file = TempMachineFile::new("cluster-recover");
    let slices = Arc::new(Mutex::new(vec![None; 3]));
    let build = marker_build(slices.clone());
    // Three sub-roots published on the ring; no worker ever runs (the
    // "every fault domain died at once" outcome).
    let builder = cluster_builder(file.path(), 3, 500);
    builder
        .observe(&build)
        .unwrap()
        .publish_shard_jobs()
        .unwrap();

    let rep = cluster::recover(file.path(), &build).unwrap();
    assert!(rep.completed(), "recovery must finish the computation");
    assert_eq!(
        rep.mode,
        SessionMode::Resumed,
        "no worker ran: every processor restarts at findWork and pulls the published jobs"
    );
    assert_eq!(rep.epoch, 2, "recovery is a real reopen: epoch bumps");
    let summary = rep.cluster.as_ref().unwrap();
    assert_eq!(summary.role, ClusterRole::Recovery);
    assert!(summary.shard_reports.iter().all(|r| !r.started));

    let machine = Machine::reopen(file.path()).unwrap();
    assert_slices_filled(&machine, &slices);
    assert_shard_tickets_done(&machine, 3);

    // A second recover on the finished file is a no-op.
    let again = cluster::recover(file.path(), &build).unwrap();
    assert_eq!(again.mode, SessionMode::AlreadyComplete);
}

/// A whole-cluster kill between the last done CAM and its check: the
/// ring is closed and its one job `DONE`, but the done flag — set by
/// that check — is not. `cluster::recover` finds the drain rule holding
/// and runs nothing.
#[test]
fn recover_completes_a_drained_ring_whose_flag_was_never_set() {
    let file = TempMachineFile::new("cluster-recover-drained");
    let slices = Arc::new(Mutex::new(vec![None; 1]));
    let build = marker_build(slices.clone());
    let tickets = cluster_builder(file.path(), 1, 500)
        .observe(&build)
        .unwrap()
        .publish_shard_jobs()
        .unwrap();
    {
        let attach = |path| {
            let fault = ppm::pm::FaultConfig::none();
            Machine::attach(path, fault, ppm::pm::ValidateMode::Strict).unwrap()
        };
        let machine = attach(file.path());
        let mut sim = SimSched::new_worker(&machine, 0, &build).unwrap();
        let cam_won = (0..5_000).any(
            |_| matches!(sim.step(0), SimEvent::Ran { next, .. } if next == "service/done/check"),
        );
        assert!(
            cam_won,
            "the job reaches its done CAM:\n{}",
            sim.render_trace()
        );
        assert!(!sim.completed(), "the check has not run");
        let status = InjectorQueue::attach(&machine).unwrap().status(tickets[0]);
        assert!(matches!(status, JobStatus::Done { .. }), "{status:?}");
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let (path, recovery_build) = (file.path().to_path_buf(), build.clone());
    std::thread::spawn(move || {
        let _ = tx.send(cluster::recover(&path, &recovery_build).unwrap());
    });
    let rep = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("recovery returns within 30 s");
    assert_eq!(rep.mode, SessionMode::AlreadyComplete);
    assert!(rep.completed() && rep.run.is_none(), "nothing ran");
    let machine = Machine::reopen(file.path()).unwrap();
    assert_slices_filled(&machine, &slices);
    let again = cluster::recover(file.path(), &build).unwrap();
    assert_eq!(again.mode, SessionMode::AlreadyComplete, "the flag stuck");
}

/// A whole-cluster kill between a won claim and its job's start: the
/// puller has seated its `Local` entry and its restart pointer is the
/// slot's `service/entry` frame, with the slot still `CLAIMED`. Recovery
/// restarts the claimant at that entry frame (§6) and keeps its claim:
/// the frame finds its own claim, moves the slot to `RUNNING` and runs
/// the job, which resolves once at the claim's own epoch.
#[test]
fn recover_restarts_a_claimant_at_its_entry_frame() {
    let file = TempMachineFile::new("cluster-recover-claim");
    let slices = Arc::new(Mutex::new(vec![None; 1]));
    let build = marker_build(slices.clone());
    let ticket = {
        let observer = cluster_builder(file.path(), 1, 500)
            .observe(&build)
            .unwrap();
        let out = slices.lock().unwrap()[0].expect("builder ran");
        let split = observer.machine().registry().id_of("clt/split").unwrap();
        let mut args = Vec::new();
        dsl::Span {
            env: out,
            lo: 0,
            hi: SLICE,
        }
        .encode(&mut args);
        observer.service_queue().submit(split, &args).unwrap()
    };

    // Processor 1 pulls the job and stops on the entry frame.
    {
        let attach = |path| {
            let fault = ppm::pm::FaultConfig::none();
            Machine::attach(path, fault, ppm::pm::ValidateMode::Strict).unwrap()
        };
        let machine = attach(file.path());
        let mut sim = SimSched::new_worker(&machine, 0, &build).unwrap();
        let at_entry = (0..200)
            .any(|_| matches!(sim.step(1), SimEvent::Ran { next, .. } if next == "service/entry"));
        assert!(
            at_entry,
            "the puller enters the job:\n{}",
            sim.render_trace()
        );
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let (path, recovery_build) = (file.path().to_path_buf(), build.clone());
    std::thread::spawn(move || {
        let _ = tx.send(cluster::recover(&path, &recovery_build).unwrap());
    });
    let rep = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("recovery drains the ring within 30 s");
    assert!(rep.completed());
    assert_eq!(rep.mode, SessionMode::Resumed, "the claimant restarts");

    let machine = Machine::reopen(file.path()).unwrap();
    let status = InjectorQueue::attach(&machine).unwrap().status(ticket);
    assert!(
        matches!(status, JobStatus::Done { claimant: 1, claim_epoch, .. } if claim_epoch == ticket.epoch),
        "the claim resolves once, by its claimant, at its own epoch: {status:?}"
    );
    assert_slices_filled(&machine, &slices);
}

/// A worker whose processor panics dies with that panic: its siblings
/// halt, the lease monitor stops, and the panic leaves `run_worker`
/// instead of a worker that renews its lease forever.
#[test]
fn a_panicking_processor_ends_its_worker() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let file = TempMachineFile::new("cluster-panic");
    let build: ShardBuild = Arc::new(|m: &Machine, _, k: Word| {
        let out = m.alloc_region(SLICE);
        let mut set = dsl::CapsuleSet::new(m);
        let leaf = set.define("clt/boom", |_: &dsl::Span<Region>, _, _| {
            panic!("a leaf panicked")
        });
        let split = set.map_grain("clt/split", GRAIN, leaf);
        let all = dsl::Span {
            env: out,
            lo: 0,
            hi: SLICE,
        };
        split.setup(m, &all, dsl::K(k)).0
    });
    cluster_builder(file.path(), 1, 1000)
        .observe(&build)
        .unwrap()
        .publish_shard_jobs()
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let path = file.path().to_path_buf();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| cluster::run_worker(&path, 0, &build)));
        let _ = tx.send(outcome.map(|_| ()).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(msg)) => assert_eq!(msg, "a leaf panicked"),
        Ok(Ok(())) => panic!("a worker whose every leaf panics returned"),
        Err(_) => panic!("the worker hung after a processor panicked"),
    }
}

/// Prefix of the extra argument (`worker=<machine file>:<shard>`) that
/// [`builder_run_supervises_worker_processes_to_completion`] hands the
/// worker processes it spawns. To the test harness it is one more name
/// filter, matching nothing.
const WORKER_ARG: &str = "worker=";

/// The worker half of the test below: the test binary re-executes itself
/// with this test selected. In an ordinary test run it has nothing to do.
#[test]
fn worker_process_entry() {
    let Some(arg) = std::env::args().find(|a| a.starts_with(WORKER_ARG)) else {
        return;
    };
    let (path, shard) = arg[WORKER_ARG.len()..]
        .rsplit_once(':')
        .expect("<file>:<shard>");
    let build = marker_build(Arc::new(Mutex::new(vec![None; 2])));
    let rep = cluster::run_worker(path, shard.parse().unwrap(), &build).unwrap();
    assert!(rep.completed(), "worker {shard} must see the run complete");
}

#[test]
fn builder_run_supervises_worker_processes_to_completion() {
    let file = TempMachineFile::new("cluster-run");
    let slices = Arc::new(Mutex::new(vec![None; 2]));
    let build = marker_build(slices.clone());
    let exe = std::env::current_exe().unwrap();
    let rep = cluster_builder(file.path(), 2, 1000)
        .deadline(std::time::Duration::from_secs(60))
        .run(&build, |shard| {
            let mut cmd = std::process::Command::new(&exe);
            let spec = format!("{WORKER_ARG}{}:{shard}", file.path().display());
            cmd.args(["worker_process_entry", "--exact", &spec])
                .stdout(std::process::Stdio::null());
            cmd
        })
        .unwrap();

    assert!(rep.completed(), "the fleet finishes inside the deadline");
    assert_eq!(rep.mode, SessionMode::FreshRun);
    let run = rep.run_report();
    assert_eq!(run.dead_procs(), 0, "every shard saw completion");
    let summary = rep.cluster.as_ref().unwrap();
    assert_eq!(summary.role, ClusterRole::Coordinator);
    assert!(summary.dead_shards.is_empty(), "nobody died");
    for r in &summary.shard_reports {
        assert!(r.started && r.exited && r.saw_completion);
        assert_eq!(
            r.lease.map(|l| l.state),
            Some(ppm::pm::LeaseState::Done),
            "a worker that left a Done lease is not tombstoned by the reap"
        );
    }

    // `finish` recorded the clean shutdown: nothing is left to recover.
    let again = cluster::recover(file.path(), &build).unwrap();
    assert_eq!(again.mode, SessionMode::AlreadyComplete);
    let machine = Machine::reopen(file.path()).unwrap();
    assert_slices_filled(&machine, &slices);
    let local = assert_shard_tickets_done(&machine, 2);
    println!("shard jobs run on their own shard: {local} of 2");
}
