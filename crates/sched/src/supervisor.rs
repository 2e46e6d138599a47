//! The one supervisor of a multi-process session.
//!
//! The paper's asynchrony requirement (§6: a processor that faults must
//! never block the others) is, at OS scale, exactly one job: *reap the
//! dead worker, tombstone its lease, let the survivors adopt through
//! Figure 3*. [`Supervisor`] is the only code that does it — batch runs
//! ([`ClusterBuilder::run`]), the job service ([`crate::ServiceHandle`])
//! and fault harnesses (`examples/sharded_fault.rs`) all drive this one
//! loop, and `tools/lint_invariants.sh` rule 5 keeps it the only one.
//!
//! Every time-dependent decision (quiesce cadence, lease expiry, the
//! exit grace) reads the [`ppm_pm::SharedClock`] handed to
//! [`Supervisor::launch`], so the sweep is tickable on a
//! [`ppm_pm::VirtualClock`]; production passes [`ppm_pm::system_clock`].

use std::io;
use std::process::Child;
use std::time::Duration;

use ppm_obs::{MetricsServer, TraceKind};
use ppm_pm::service::{pack_quiesce_req, QUIESCE_REL_OFFSET, QUIESCE_REQ_OFFSET};
use ppm_pm::LeaseState;

use crate::cluster::{cluster_report, ClusterObserver};
use crate::driver::SessionReport;
#[cfg(unix)]
use {
    crate::cluster::{observe_impl, ClusterBuilder, ShardBuild},
    ppm_obs::Obs,
    ppm_pm::SharedClock,
    std::process::Command,
};

/// How often [`Supervisor::wait_exit`] sweeps while workers are alive.
const POLL: Duration = Duration::from_millis(10);

/// Owns a session's worker fleet: the observer on the machine file, one
/// child slot per shard (`None` once reaped), the aggregated scrape
/// endpoint, and the cross-process quiesce cadence.
pub struct Supervisor {
    observer: ClusterObserver,
    children: Vec<Option<Child>>,
    started_ms: u64,
    /// Cross-process checkpoint cadence in clock milliseconds.
    quiesce_every: Option<u64>,
    last_quiesce_ms: u64,
    quiesce_seq: u64,
    /// The aggregated scrape endpoint (`PPM_METRICS_PORT`), held so it
    /// answers for the whole session.
    _metrics: Option<MetricsServer>,
}

impl Supervisor {
    /// Prepares the machine file as `builder` describes and spawns one
    /// worker per shard via `spawn_worker`. If any spawn fails the
    /// partial fleet is killed and reaped before the error returns:
    /// leaking live workers past an `Err` would leave them running
    /// against a file the caller may immediately hand to
    /// [`crate::cluster::recover`], which scrubs deques under them.
    #[cfg(unix)]
    pub fn launch(
        builder: &ClusterBuilder,
        build: &ShardBuild,
        mut spawn_worker: impl FnMut(usize) -> Command,
        clock: SharedClock,
    ) -> io::Result<Self> {
        let observer = observe_impl(builder, build, clock)?;
        let map = *observer.map();
        observer
            .machine()
            .obs()
            .event(TraceKind::RunStart, None, None, || {
                format!(
                    "coordinator: {} shards x {} procs",
                    map.shards, map.procs_per_shard
                )
            });
        let metrics = Obs::metrics_port_from_env().and_then(|p| observer.serve_metrics(p));
        let now = observer.now_ms();
        let mut sup = Supervisor {
            observer,
            children: Vec::with_capacity(map.shards),
            started_ms: now,
            quiesce_every: builder.checkpoint_every.map(|d| d.as_millis() as u64),
            last_quiesce_ms: now,
            quiesce_seq: 0,
            _metrics: metrics,
        };
        for s in 0..map.shards {
            match spawn_worker(s).spawn() {
                Ok(child) => sup.children.push(Some(child)),
                Err(e) => {
                    sup.kill_all();
                    return Err(e);
                }
            }
        }
        Ok(sup)
    }

    /// The observer half (progress reads, lease table, summary).
    pub fn observer(&self) -> &ClusterObserver {
        &self.observer
    }

    /// Workers not yet reaped.
    pub fn live(&self) -> usize {
        self.children.iter().flatten().count()
    }

    /// One sweep: reap exited workers — tombstoning the lease of any that
    /// left without a `Done` lease, so survivors adopt immediately
    /// instead of waiting out the expiry — then pace the cross-process
    /// checkpoint quiesce. A `try_wait` error counts as an exit (the
    /// child is unobservable; lease expiry would catch it anyway).
    pub fn tick(&mut self) {
        for shard in 0..self.children.len() {
            let exited = self.children[shard]
                .as_mut()
                .is_some_and(|c| c.try_wait().map(|st| st.is_some()).unwrap_or(true));
            if exited {
                self.children[shard] = None;
                self.bury(shard);
            }
        }
        self.pace_quiesce();
    }

    /// Kills worker `shard` (SIGKILL), reaps it and tombstones its lease
    /// — the fault-injection hook. Jobs the shard had claimed are rescued
    /// on the service's next sweep.
    pub fn kill_worker(&mut self, shard: usize) -> io::Result<()> {
        let mut child = self
            .children
            .get_mut(shard)
            .and_then(Option::take)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no live worker for shard {shard}"),
                )
            })?;
        let _ = child.kill();
        let _ = child.wait();
        self.bury(shard);
        Ok(())
    }

    /// Sweeps until every worker has exited; whoever is still alive
    /// `grace` after the call is killed. Returns with every slot `None`.
    pub fn wait_exit(&mut self, grace: Duration) {
        let start = self.observer.now_ms();
        loop {
            self.tick();
            if self.live() == 0 {
                return;
            }
            if self.observer.now_ms().saturating_sub(start) >= grace.as_millis() as u64 {
                return self.kill_all();
            }
            std::thread::sleep(POLL);
        }
    }

    /// Ends the session once the workers are gone (see
    /// [`Supervisor::wait_exit`]): flushes, records a clean shutdown when
    /// the completion flag is set ([`ClusterObserver::finish`]) and
    /// reports. `run.completed` is the persisted completion flag; an
    /// incomplete file is left crashed-in-run for
    /// [`crate::cluster::recover`].
    pub fn finish(self) -> io::Result<SessionReport> {
        let observer = self.observer;
        let outcome = match observer.is_done() {
            true => "cluster run completed",
            false => "cluster run incomplete (recover to finish)",
        };
        let obs = observer.machine().obs();
        obs.event(TraceKind::RunEnd, None, None, || outcome.into());
        observer.finish()?;
        let summary = observer.summary();
        let elapsed = Duration::from_millis(observer.now_ms().saturating_sub(self.started_ms));
        let run = observer.run_report(&summary, elapsed);
        Ok(cluster_report(observer.machine(), summary, Some(run)))
    }

    /// Tombstones a reaped worker's lease unless it left `Done` behind
    /// (siblings must never adopt a completed shard).
    fn bury(&self, shard: usize) {
        let done = self
            .observer
            .lease(shard)
            .is_some_and(|l| l.state == LeaseState::Done);
        if !done {
            self.observer.tombstone(shard);
        }
    }

    /// SIGKILLs, reaps and buries every still-tracked worker.
    fn kill_all(&mut self) {
        for shard in 0..self.children.len() {
            // An already-empty slot is `NotFound`: nothing to kill.
            let _ = self.kill_worker(shard);
        }
    }

    /// Raises the superblock quiesce request when the cadence is due and
    /// the previous round has released (or timed out — a performer that
    /// died mid-round must not wedge the cadence forever). The performer
    /// is the lowest shard holding a live, unexpired lease; every live
    /// shard acks, only the performer checkpoints.
    fn pace_quiesce(&mut self) {
        let Some(every) = self.quiesce_every else {
            return;
        };
        let now = self.observer.now_ms();
        let waited = now.saturating_sub(self.last_quiesce_ms);
        if waited < every {
            return;
        }
        let backend = self.observer.machine().mem().backend();
        let released = backend.read_quiesce_word(QUIESCE_REL_OFFSET) >= self.quiesce_seq;
        if !released && waited < every.saturating_mul(3) {
            return;
        }
        self.last_quiesce_ms = now;
        let performer = (0..self.observer.map().shards).find(|s| {
            matches!(self.observer.lease(*s),
                     Some(l) if l.state == LeaseState::Alive && !l.is_dead(now))
        });
        let Some(performer) = performer else {
            return;
        };
        self.quiesce_seq += 1;
        let seq = self.quiesce_seq;
        backend.write_quiesce_word(QUIESCE_REQ_OFFSET, pack_quiesce_req(seq, performer));
        self.observer
            .machine()
            .obs()
            .event(TraceKind::Checkpoint, None, None, || {
                format!("cluster quiesce {seq} requested (performer shard {performer})")
            });
    }
}

// `/proc/<pid>` is how the tests see that a killed worker was also reaped.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use ppm_pm::service::unpack_quiesce_req;
    use ppm_pm::{Lease, PmConfig, TempMachineFile, VirtualClock};
    use std::sync::Arc;

    const T0: u64 = 10_000;
    const EVERY: u64 = 100;

    /// A supervisor over `workers` single-processor shards on a virtual
    /// clock reading `T0`, checkpoint cadence `EVERY`.
    fn launch(
        tag: &str,
        workers: usize,
        spawn_worker: impl FnMut(usize) -> Command,
    ) -> (TempMachineFile, Arc<VirtualClock>, io::Result<Supervisor>) {
        let file = TempMachineFile::new(tag);
        let clock = Arc::new(VirtualClock::starting_at(T0));
        let build: ShardBuild = Arc::new(|_machine, _shard, arrive| arrive);
        let builder = ClusterBuilder::new(file.path())
            .machine(PmConfig::parallel(workers, 1 << 20))
            .workers(workers)
            .lease_ms(500)
            .checkpoint_every(Duration::from_millis(EVERY));
        let sup = Supervisor::launch(&builder, &build, spawn_worker, clock.clone());
        (file, clock, sup)
    }

    /// Blocks until every worker has exited, leaving the reap to `tick`
    /// (`Child::wait` caches the status `try_wait` then returns).
    fn await_exits(sup: &mut Supervisor) {
        for child in sup.children.iter_mut().flatten() {
            child.wait().expect("wait for worker exit");
        }
    }

    fn write_lease(sup: &Supervisor, shard: usize, lease: Lease) {
        let backend = sup.observer.machine().mem().backend();
        backend.write_lease(shard, &lease).expect("write lease");
    }

    fn requested(sup: &Supervisor) -> (u64, usize) {
        let backend = sup.observer.machine().mem().backend();
        unpack_quiesce_req(backend.read_quiesce_word(QUIESCE_REQ_OFFSET))
    }

    fn process_gone(pid: u32) -> bool {
        !std::path::Path::new(&format!("/proc/{pid}")).exists()
    }

    const DONE: Lease = Lease {
        state: LeaseState::Done,
        seq: u64::MAX,
        deadline_ms: 0,
    };

    #[test]
    fn tick_tombstones_an_exited_worker_unless_it_left_done() {
        let (_file, _clock, sup) = launch("sup-reap", 2, |_| Command::new("true"));
        let mut sup = sup.expect("launch");
        let heartbeat = Lease::alive_at(7, 500, T0);
        write_lease(&sup, 0, heartbeat);
        write_lease(&sup, 1, DONE);
        await_exits(&mut sup);

        sup.tick();
        assert_eq!(sup.live(), 0, "both exits reaped in one sweep");
        assert_eq!(
            sup.observer.lease(0),
            Some(Lease {
                state: LeaseState::Dead,
                ..heartbeat
            }),
            "tombstone preserves the last heartbeat"
        );
        assert_eq!(sup.observer.lease(1), Some(DONE), "a Done lease stays Done");
        let summary = sup.observer.summary();
        assert_eq!(
            summary.shard_reports[0].last_seen,
            Some(heartbeat.deadline_ms)
        );
        assert_eq!(summary.dead_shards, vec![0]);
    }

    #[test]
    fn quiesce_requests_follow_the_clock_and_the_lease_table() {
        let (_file, clock, sup) = launch("sup-quiesce", 3, |_| Command::new("true"));
        let mut sup = sup.expect("launch");
        await_exits(&mut sup);
        sup.tick();
        // The fleet is reaped; from here the lease table is the test's.
        let alive = |now| Lease::alive_at(2, 1_000_000, now);
        write_lease(&sup, 0, Lease::alive_at(2, 10, T0)); // expires at T0 + 10
        write_lease(&sup, 1, alive(T0));
        write_lease(&sup, 2, alive(T0));

        clock.set(T0 + EVERY - 1);
        sup.tick();
        assert_eq!(requested(&sup), (0, 0), "nothing requested before `every`");

        clock.set(T0 + EVERY);
        sup.tick();
        assert_eq!(
            requested(&sup),
            (1, 1),
            "seq 1, lowest shard whose lease is alive and unexpired"
        );

        // The performer dies mid-round and REL is never written: the next
        // request waits out 3 x every, then re-elects past the tombstone.
        sup.observer.tombstone(1);
        let t1 = T0 + EVERY;
        clock.set(t1 + 3 * EVERY - 1);
        sup.tick();
        assert_eq!(
            requested(&sup),
            (1, 1),
            "unreleased round not yet timed out"
        );
        clock.set(t1 + 3 * EVERY);
        sup.tick();
        assert_eq!(
            requested(&sup),
            (2, 2),
            "timed out: seq bumped, performer re-elected"
        );

        // Round 2 releases, then nobody holds a live lease: nothing is
        // written, and the cadence re-arms instead of retrying every tick.
        let backend = sup.observer.machine().mem().backend();
        backend.write_quiesce_word(QUIESCE_REL_OFFSET, 2);
        sup.observer.tombstone(2);
        let t2 = t1 + 3 * EVERY;
        clock.set(t2 + EVERY);
        sup.tick();
        assert_eq!(requested(&sup), (2, 2), "no live lease: nothing written");
        write_lease(&sup, 0, alive(t2 + EVERY));
        sup.tick();
        assert_eq!(
            requested(&sup),
            (2, 2),
            "cadence re-armed at the empty round"
        );
        clock.set(t2 + 2 * EVERY);
        sup.tick();
        assert_eq!(requested(&sup), (3, 0));
    }

    #[test]
    fn wait_exit_kills_and_reaps_a_straggler() {
        let (_file, _clock, sup) = launch("sup-straggler", 2, |shard| {
            let mut cmd = Command::new(["true", "sleep"][shard]);
            cmd.args(["60"]);
            cmd
        });
        let mut sup = sup.expect("launch");
        let straggler = sup.children[1].as_ref().expect("spawned").id();

        sup.wait_exit(Duration::ZERO);
        assert!(
            sup.children.iter().all(Option::is_none),
            "every slot reaped"
        );
        assert!(process_gone(straggler), "straggler killed and reaped");
        let lease = sup.observer.lease(1).expect("lease readable");
        assert_eq!(
            lease.state,
            LeaseState::Dead,
            "a killed straggler is buried"
        );
    }

    #[test]
    fn launch_kills_the_partial_fleet_when_a_spawn_fails() {
        use std::io::BufRead;
        use std::os::fd::OwnedFd;
        use std::os::unix::net::UnixStream;

        // Worker 0 reports its pid over a socket; the spawn closure for
        // worker 1 reads it (worker 0 is then provably up) and names a
        // binary that does not exist.
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let mut theirs = Some(theirs);
        let mut first_pid = None;
        let (_file, _clock, sup) = launch("sup-partial", 2, |shard| {
            if shard == 0 {
                let mut cmd = Command::new("sh");
                cmd.args(["-c", "echo $$; exec sleep 60"])
                    .stdout(OwnedFd::from(theirs.take().expect("spawned once")));
                return cmd;
            }
            let mut line = String::new();
            std::io::BufReader::new(&ours)
                .read_line(&mut line)
                .expect("first worker reports its pid");
            first_pid = Some(line.trim().parse::<u32>().expect("pid line"));
            Command::new("/nonexistent/ppm-no-such-worker")
        });
        let err = sup.err().expect("second spawn fails");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(
            process_gone(first_pid.expect("second spawn attempted")),
            "first worker killed and reaped before launch returned"
        );
    }
}
