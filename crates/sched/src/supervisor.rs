//! The one supervisor of a multi-process session.
//!
//! The paper's asynchrony requirement (§6: a processor that faults must
//! never block the others) is, at OS scale, exactly one job: *reap the
//! dead worker, tombstone its lease, let the survivors adopt through
//! Figure 3*. Adoption alone finishes the jobs the dead worker had
//! claimed from the injector ring: a puller seats its `Local` entry
//! before its claim CAM, so every claim has a thread to adopt, and the
//! supervisor writes no ring word. [`Supervisor`] is the only code that
//! does it — batch runs ([`ClusterBuilder::run`]), the job service
//! ([`crate::ServiceHandle`]) and fault harnesses
//! (`examples/sharded_fault.rs`) all drive this one loop, and
//! `tools/lint_invariants.sh` rule 5 keeps it the only one.
//!
//! Every time-dependent decision (lease expiry, the exit grace) reads
//! the [`ppm_pm::SharedClock`] handed to [`Supervisor::launch`], so the
//! sweep is tickable on a [`ppm_pm::VirtualClock`]; production passes
//! [`ppm_pm::system_clock`].

use std::io;
use std::process::Child;
use std::time::Duration;

use ppm_obs::{MetricsServer, TraceKind};
use ppm_pm::LeaseState;

use crate::cluster::ClusterObserver;
use crate::driver::{SessionMode, SessionReport};
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
/// child slot per shard (`None` once reaped) and the aggregated scrape
/// endpoint.
pub struct Supervisor {
    observer: ClusterObserver,
    children: Vec<Option<Child>>,
    started_ms: u64,
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
        let mut sup = Supervisor {
            started_ms: observer.now_ms(),
            observer,
            children: Vec::with_capacity(map.shards),
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

    /// One sweep: reap exited workers, tombstoning the lease of any that
    /// left without a `Done` lease, so survivors adopt immediately
    /// instead of waiting out the expiry. A `try_wait` error counts as an
    /// exit (the child is unobservable; lease expiry would catch it
    /// anyway).
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
    }

    /// Kills worker `shard` (SIGKILL), reaps it and tombstones its lease
    /// — the fault-injection hook. Survivors adopt the shard's threads,
    /// the jobs it had claimed among them.
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
        let (epoch, mode) = (observer.machine().epoch(), SessionMode::FreshRun);
        Ok(SessionReport::new(epoch, mode, Some(summary), Some(run)))
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
}

// `/proc/<pid>` is how the tests see that a killed worker was also reaped.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use ppm_pm::{Lease, PmConfig, TempMachineFile, VirtualClock};
    use std::sync::Arc;

    const T0: u64 = 10_000;

    /// A supervisor over `workers` single-processor shards on a virtual
    /// clock reading `T0`.
    fn launch(
        tag: &str,
        workers: usize,
        spawn_worker: impl FnMut(usize) -> Command,
    ) -> (TempMachineFile, io::Result<Supervisor>) {
        let file = TempMachineFile::new(tag);
        let clock = Arc::new(VirtualClock::starting_at(T0));
        let build: ShardBuild = Arc::new(|_machine, _shard, done| done);
        let builder = ClusterBuilder::new(file.path())
            .machine(PmConfig::parallel(workers, 1 << 20))
            .workers(workers)
            .lease_ms(500);
        let sup = Supervisor::launch(&builder, &build, spawn_worker, clock);
        (file, sup)
    }

    /// Blocks until every worker has exited, leaving the reap to `tick`
    /// (`Child::wait` caches the status `try_wait` then returns).
    fn await_exits(sup: &mut Supervisor) {
        for child in sup.children.iter_mut().flatten() {
            child.wait().expect("wait for worker exit");
        }
    }

    fn write_lease(sup: &Supervisor, shard: usize, lease: Lease) {
        let page = sup.observer.machine().mem().control();
        page.write_lease(shard, &lease).expect("write lease");
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
        let (_file, sup) = launch("sup-reap", 2, |_| Command::new("true"));
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
    fn wait_exit_kills_and_reaps_a_straggler() {
        let (_file, sup) = launch("sup-straggler", 2, |shard| {
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
        let (_file, sup) = launch("sup-partial", 2, |shard| {
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
