//! The paper's actual fault model at OS scale: N worker *processes*
//! attach to one `MAP_SHARED` machine file as independent fault domains,
//! each samplesorting its own slice of the keys. The parent SIGKILLs one
//! worker once that worker's slice is ~25% written and one of its
//! processors is running a thread, tombstones its lease (the
//! coordinator's reap step — lease expiry covers coordinator-less
//! deployments), and the survivors **adopt** the dead shard's deque
//! frontier through the ordinary steal protocol: the run keeps going
//! instead of restarting.
//!
//! Work enters the way it enters every cluster: the parent publishes one
//! job per shard on the machine file's injector ring and closes
//! admission, each worker's first pull prefers its own shard's job, and
//! live shards steal from each other. Verified on every attempt: every
//! shard's output equals the sorted input slice, exactly once, and every
//! shard's ticket resolved `Done`. An attempt demonstrates *adoption*
//! when a survivor's report counts frontier entries taken from the dead
//! shard and the victim's ticket still resolved.
//! Wherever the kill lands — in user code or inside a steal or a push —
//! the dead worker's restart pointers are words in the machine file (a
//! frame, or a scheduler record in its metadata block), so adoption is
//! the ordinary path: with a survivor left, no attempt refuses one
//! (`blocked == 0`) and none falls back to `cluster::recover`. The
//! scenario retries only when an attempt shows nothing: the victim
//! finished before the kill, or — with tracing on — the kill landed
//! where no traced work was lost.
//!
//! `PPM_SHARD_WORKERS` selects the worker count (default 4; `1` makes
//! the kill leave no survivors, exercising the recover path instead —
//! the CI fault matrix runs both).
//!
//! With `PPM_METRICS_PORT` set, the parent serves the coordinator's
//! aggregated `/metrics` (per-worker scrapes merged under `shard`
//! labels, plus live lease telemetry) and, on a successful adoption
//! run, asserts the scrape shows it: the dead shard stays visible
//! (stale-labeled, `ppm_lease_up 0`) and a survivor's adoption counters
//! (`ppm_adopted_jobs_total` + `ppm_adopted_locals_total`) are nonzero.
//!
//! Run with `cargo run --release --example sharded_fault`.

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("worker") => scenario::worker(&args[2], args[3].parse().expect("shard index")),
        _ => scenario::parent(),
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("sharded_fault needs the unix durable backend (mmap); skipping");
}

#[cfg(unix)]
mod scenario {
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use ppm::algs::{samplesort_pool_words, SampleSort};
    use ppm::core::{Active, Machine};
    use ppm::pm::{PmConfig, Region, TempMachineFile, Word};
    use ppm::sched::cluster::{self, ClusterBuilder, ShardBuild};
    use ppm::sched::{JobStatus, SessionMode, Supervisor};

    const PROCS_PER_SHARD: usize = 2;
    const WORDS: usize = 1 << 23;
    /// Keys per shard slice.
    const N: usize = 3000;
    /// Small ephemeral memory deepens recursion: more capsules, a wider
    /// kill window.
    const M_EPH: usize = 256;
    const SLOTS: usize = 1 << 14;
    const LEASE_MS: u64 = 600;
    /// Kill the victim once this many of its output words are in place
    /// (and it runs a thread).
    const KILL_AT: usize = N / 4;
    const MAX_ATTEMPTS: usize = 12;

    fn workers() -> usize {
        std::env::var("PPM_SHARD_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|n| (1..=8).contains(n))
            .unwrap_or(4)
    }

    fn cluster_builder(path: &std::path::Path, shards: usize) -> ClusterBuilder {
        ClusterBuilder::new(path)
            .machine(
                PmConfig::parallel(shards * PROCS_PER_SHARD, WORDS).with_ephemeral_words(M_EPH),
            )
            .workers(shards)
            // Adoption headroom: a survivor may re-drive a dead sibling's
            // frontier out of its own pools.
            .pool_words(samplesort_pool_words(N) * 2)
            .deque_slots(SLOTS)
            .lease_ms(LEASE_MS)
            .deadline(Duration::from_secs(120))
    }

    fn input(shard: usize) -> Vec<Word> {
        (0..N as u64)
            .map(|i| {
                let x = (((shard as u64) << 32) | i)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1 + shard as u64);
                1 + (x ^ (x >> 29)) % 1_000_000
            })
            .collect()
    }

    /// The deterministic construction every process replays: shard `s`
    /// samplesorts its own slice, continuing at `k` (its ring slot's done
    /// frame) when done. Output regions are recorded for the parent's
    /// progress gate.
    fn build(outputs: Arc<Mutex<Vec<Option<Region>>>>) -> ShardBuild {
        Arc::new(move |m: &Machine, s: usize, k: Word| {
            let ss = SampleSort::new(m, N);
            ss.load_input(m, &input(s));
            outputs.lock().unwrap()[s] = Some(ss.output);
            ss.pcomp()(m, k)
        })
    }

    pub fn worker(path: &str, shard: usize) {
        let outputs = Arc::new(Mutex::new(vec![None; ppm::pm::MAX_SHARDS]));
        let rep = cluster::run_worker(path, shard, &build(outputs)).expect("worker session");
        if let Some(summary) = &rep.cluster {
            let own = &summary.shard_reports[shard];
            println!(
                "worker {shard}: completed={} adopted_jobs={} adopted_locals={} \
                 blocked={} declared_dead={:?}",
                rep.completed(),
                own.adopted_jobs,
                own.adopted_locals,
                own.blocked_adoptions,
                summary.dead_shards,
            );
        }
        std::process::exit(if rep.completed() { 0 } else { 1 });
    }

    pub fn parent() {
        let shards = workers();
        println!("sharded fault scenario: {shards} worker processes x {PROCS_PER_SHARD} procs");
        for attempt in 1..=MAX_ATTEMPTS {
            let outcome = run_scenario(attempt, shards);
            if shards == 1 {
                // A lone worker has no survivors: the scenario here is
                // the degraded path — SIGKILL, then a process-level
                // recovery resumes the crash frontier exactly-once.
                if outcome.recovered {
                    println!("single-shard leg: kill + recover demonstrated");
                    return;
                }
                println!("attempt {attempt}: child finished before the kill; retrying\n");
            } else if outcome.adopted {
                return;
            } else {
                println!("attempt {attempt}: no live adoption observed; retrying\n");
            }
        }
        panic!("no attempt out of {MAX_ATTEMPTS} demonstrated the scenario — statistically absurd");
    }

    struct Outcome {
        /// Survivors adopted the dead shard's frontier and completed.
        adopted: bool,
        /// The degraded single-process recovery path ran (and verified).
        recovered: bool,
    }

    fn count_written(machine: &Machine, out: Region) -> usize {
        // Values are >= 1, so nonzero means written; sample every 8th.
        (0..N)
            .step_by(8)
            .filter(|i| machine.mem().load(out.at(*i)) != 0)
            .count()
            * 8
    }

    fn run_scenario(attempt: usize, shards: usize) -> Outcome {
        let file = TempMachineFile::new(&format!("sharded-fault-{attempt}"));
        let outputs = Arc::new(Mutex::new(vec![None; ppm::pm::MAX_SHARDS]));
        let build = build(outputs.clone());
        // Each attempt is a fresh machine file: clear the previous
        // attempt's trace streams so a recovery-appended coordinator file
        // can't leak stale spans into this attempt's DAG.
        if let Some(base) = ppm::obs::Obs::trace_file_from_env() {
            let _ = std::fs::remove_file(ppm::obs::SpanSink::path_for(&base));
            for s in 0..shards {
                let _ = std::fs::remove_file(ppm::obs::SpanSink::shard_path_for(&base, s));
            }
        }

        let exe = std::env::current_exe().expect("current_exe");
        let mut sup = Supervisor::launch(
            &cluster_builder(file.path(), shards),
            &build,
            |s| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.arg("worker").arg(file.path()).arg(s.to_string());
                cmd
            },
            ppm::pm::system_clock(),
        )
        .expect("launch");
        let tickets = sup
            .observer()
            .publish_shard_jobs()
            .expect("publish the shard jobs");
        let metrics_port = ppm::obs::Obs::metrics_port_from_env();

        // Kill the last shard's worker once its own output is a quarter
        // full and it runs a thread.
        let victim = shards - 1;
        let victim_out = outputs.lock().unwrap()[victim].expect("builder ran");
        let killed = wait_and_kill(&mut sup, victim, victim_out);
        println!(
            "attempt {attempt}: victim shard {victim} {}",
            if killed {
                "SIGKILLed mid-sort; lease tombstoned"
            } else {
                "finished before the kill window"
            }
        );

        // Supervise the survivors (or, with one worker, nobody) until
        // the run completes. Survivors adopt whatever the victim was
        // doing, so the deadline is a watchdog, not a window: a fleet
        // still running past it is a bug.
        let deadline = Instant::now() + Duration::from_secs(45);
        let mut last_scrape = String::new();
        let mut next_scrape = Instant::now();
        let done = loop {
            sup.tick();
            let done = sup.observer().is_done();
            // Keep the aggregate exporter's per-worker cache warm: each
            // scrape pulls the live workers, so their last-seen counters
            // survive into post-mortem scrapes after they exit. The one
            // at completion catches the survivors (most likely) still
            // alive writing exit reports: final counter values.
            if let Some(port) = metrics_port {
                if done || Instant::now() >= next_scrape {
                    if let Ok(text) = scrape(port) {
                        last_scrape = text;
                    }
                    next_scrape = Instant::now() + Duration::from_millis(150);
                }
            }
            if done || sup.live() == 0 || Instant::now() >= deadline {
                break done;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        // Survivors halt as soon as they read the completion flag; let
        // them write their exit reports. A stalled fleet is killed now.
        sup.wait_exit(Duration::from_secs(if done { 10 } else { 0 }));
        // The processor whose done CAM resolved each shard's ticket (None:
        // still in flight).
        let claimants: Vec<Option<usize>> = tickets
            .iter()
            .map(|t| match sup.observer().service_queue().status(*t) {
                JobStatus::Done { claimant, .. } => Some(claimant),
                _ => None,
            })
            .collect();
        let report = sup.finish().expect("flush + mark clean");

        let mut outcome = if report.completed() {
            let summary = report.cluster.as_ref().expect("cluster summary");
            let adopted = summary.adopted();
            println!(
                "run complete: adopted={} blocked={} dead_shards={:?}",
                adopted,
                summary.blocked(),
                summary.dead_shards
            );
            assert_eq!(
                summary.blocked(),
                0,
                "a refused adoption means a corrupt restart pointer"
            );
            assert!(
                claimants.iter().all(Option::is_some),
                "every shard's ticket must resolve Done"
            );
            let local = (0..shards)
                .filter(|s| claimants[*s].is_some_and(|p| p / PROCS_PER_SHARD == *s))
                .count();
            println!("shard jobs run on their own shard: {local} of {shards}");
            if killed {
                assert!(
                    summary.dead_shards.contains(&victim),
                    "the killed worker must be reported dead"
                );
            }
            // Survivors adopted: the run never restarted, so any progress
            // on the dead worker's threads after the kill is adoption.
            let adoption_shown = killed && adopted > 0 && claimants[victim].is_some();
            if adoption_shown && metrics_port.is_some() {
                assert_adoption_scraped(&last_scrape, victim);
            }
            Outcome {
                adopted: adoption_shown,
                recovered: false,
            }
        } else {
            // No survivors (the 1-worker matrix leg): single-process
            // recovery — the run must still finish exactly-once.
            assert_eq!(
                shards, 1,
                "survivors stalled: with a worker left, adoption must finish the run"
            );
            println!("no survivors; finishing with cluster::recover");
            let rep = cluster::recover(file.path(), &build).expect("recover");
            assert!(rep.completed(), "recovery must finish the sort");
            println!(
                "recover mode: {:?} ({} resumed: restart points + jobs)",
                rep.mode, rep.resumed
            );
            assert_ne!(rep.mode, SessionMode::FreshRun);
            Outcome {
                adopted: false,
                recovered: killed,
            }
        };

        // Exactly-once output: every shard's slice is the sorted input.
        let machine = Machine::attach(
            file.path(),
            ppm::pm::FaultConfig::none(),
            ppm::pm::ValidateMode::Strict,
        )
        .expect("attach for verification");
        for s in 0..shards {
            let out = outputs.lock().unwrap()[s].expect("region recorded");
            let mut expect = input(s);
            expect.sort_unstable();
            let got: Vec<Word> = (0..N).map(|i| machine.mem().load(out.at(i))).collect();
            assert_eq!(got, expect, "shard {s} output must be its sorted slice");
        }
        println!("all {shards} slices sorted exactly-once");

        // Trace acceptance gate (active when PPM_TRACE_FILE is set): the
        // streams must reconstruct into a *complete* DAG — every stolen
        // or adopted capsule's parent resolves across the per-shard files
        // — their events must tell the kill's story in order, and the
        // analyzer must see the fault: a kill replays work (wasted ratio
        // > 0), a crash-free run wastes nothing. A kill can land with
        // both victim processors parked between traced capsules (nothing
        // measurably replayed); such an attempt proves nothing about
        // waste attribution, so it retries like a kill-before-adoption
        // does.
        if let Some(waste_shown) = verify_trace(shards, killed.then_some(victim), &outcome) {
            if !waste_shown {
                println!("kill landed between traced capsules (no measurable waste); retrying");
                outcome.adopted = false;
                outcome.recovered = false;
            }
        }
        outcome
    }

    /// Reconstructs the capsule DAG and the event timeline from every
    /// trace stream this run wrote and checks them end-to-end. `killed`
    /// is the SIGKILLed shard, if the kill landed. Returns `None` when
    /// tracing is off, otherwise whether fault waste matched expectation
    /// (killed runs must show waste; crash-free runs must show exactly
    /// zero — the latter is a hard assert, since no schedule can fake
    /// waste).
    fn verify_trace(shards: usize, killed: Option<usize>, outcome: &Outcome) -> Option<bool> {
        let base = ppm::obs::Obs::trace_file_from_env()?;
        let mut set = ppm::obs::TraceSet::default();
        let coord = ppm::obs::SpanSink::path_for(&base);
        if coord.exists() {
            set.ingest_file(&coord).expect("ingest coordinator stream");
        }
        for s in 0..shards {
            let p = ppm::obs::SpanSink::shard_path_for(&base, s);
            if p.exists() {
                set.ingest_file(&p).expect("ingest shard stream");
            }
        }
        let a = set.analyze();
        println!(
            "trace DAG: {} spans ({} interrupted), W={} D={} parallelism={:.2}x wasted={:.2}%",
            a.spans_total,
            a.interrupted,
            a.work,
            a.depth,
            a.parallelism,
            a.wasted_ratio * 100.0,
        );
        assert!(a.spans_total > 0, "trace streams must not be empty");
        assert_eq!(
            a.unresolved_parents, 0,
            "every stolen/adopted span must link to its forker across shard files"
        );
        assert!(a.depth > 0 && a.work >= a.depth);
        if let Some(victim) = killed {
            assert_kill_timeline(&set, victim as u32, outcome);
            Some(a.wasted_ratio > 0.0)
        } else {
            assert_eq!(a.wasted_ratio, 0.0, "crash-free run must waste nothing");
            Some(true)
        }
    }

    /// The kill must be legible from the streams alone, in wall-clock
    /// order across processes: the killed worker's own file still holds
    /// its `run_start` (nothing is buffered, so SIGKILL loses nothing);
    /// when survivors adopted, one of them declared the shard dead no
    /// later than the first adoption from it; when `recover` finished the
    /// run instead, the coordinator's file holds the `recovery` event.
    fn assert_kill_timeline(set: &ppm::obs::TraceSet, victim: u32, outcome: &Outcome) {
        use ppm::obs::Event;
        // Time of the earliest event of `kind` that `which` selects.
        let first = |kind: &str, which: &dyn Fn(&Event) -> bool| {
            set.events
                .iter()
                .filter(|e| e.kind == kind && which(e))
                .map(|e| e.t_us)
                .min()
        };
        let start = first("run_start", &|e| e.origin == victim + 1)
            .expect("the killed worker's stream must still hold its run_start");
        if outcome.adopted {
            // Origin 0 is the coordinator's tombstone; a survivor's
            // verdict is its own.
            let by_survivor = |e: &Event| e.origin != 0 && e.shard == Some(victim);
            let dead = first("shard_dead", &by_survivor).expect("a survivor saw the shard die");
            let adoption = first("adoption", &by_survivor).expect("a survivor adopted from it");
            assert!(
                start < dead && dead <= adoption,
                "timeline out of order: run_start {start}, shard_dead {dead}, adoption {adoption}"
            );
            println!(
                "trace timeline: shard {victim} declared dead {} us after it attached, \
                 first adoption {} us later",
                dead - start,
                adoption - dead
            );
        }
        if outcome.recovered {
            let recovery = first("recovery", &|e| e.origin == 0)
                .expect("the coordinator's stream must hold the recovery event");
            assert!(
                start < recovery,
                "timeline out of order: run_start {start}, recovery {recovery}"
            );
            println!(
                "trace timeline: recovery began {} us after shard {victim} attached",
                recovery - start
            );
        }
    }

    /// One scrape of the parent's aggregate exporter.
    fn scrape(port: u16) -> std::io::Result<String> {
        ppm::obs::http_get(
            (Ipv4Addr::LOCALHOST, port),
            "/metrics",
            Duration::from_secs(2),
        )
    }

    /// A live adoption must be legible from the scrape alone: the dead
    /// shard's lease gauge reads down (its series stayed visible after
    /// the kill), and some survivor's adoption counters — jobs plus
    /// running threads, what `ClusterSummary::adopted` sums — are
    /// nonzero. (Queued jobs alone rarely show: live shards steal from
    /// each other, so a dead worker's queued jobs mostly go as live
    /// steals before the survivors' liveness verdict; its running
    /// threads can only be adopted after it.)
    fn assert_adoption_scraped(scrape: &str, victim: usize) {
        assert!(!scrape.is_empty(), "aggregate exporter never answered");
        assert!(
            scrape.contains(&format!("ppm_lease_up{{shard=\"{victim}\"}} 0")),
            "dead shard {victim} must stay visible with its lease down; scrape:\n{scrape}"
        );
        let survivor_adopted: u64 = scrape
            .lines()
            .filter(|l| {
                l.starts_with("ppm_adopted_jobs_total{")
                    || l.starts_with("ppm_adopted_locals_total{")
            })
            .filter(|l| !l.contains(&format!("shard=\"{victim}\"")))
            .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
            .sum();
        assert!(
            survivor_adopted > 0,
            "some survivor's ppm_adopted_{{jobs,locals}}_total must be nonzero; scrape:\n{scrape}"
        );
        println!(
            "metrics scrape confirms adoption: shard {victim} lease down, \
             survivors adopted {survivor_adopted} entries"
        );
    }

    /// Waits until the victim's output region is ~¼ written and the
    /// victim runs a thread, then SIGKILLs it. Returns false if the run
    /// completes first.
    fn wait_and_kill(sup: &mut Supervisor, victim: usize, out: Region) -> bool {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "victim made no progress in 60s");
            sup.tick();
            let (observer, m) = (sup.observer(), sup.observer().machine());
            if observer.is_done() {
                return false;
            }
            // Live shards steal from each other, so progress on the
            // victim's slice says nothing about what the victim worker
            // holds: also wait until one of its processors runs a thread
            // (its restart pointer is a frame, not a scheduler record).
            let busy = observer.map().procs_of(victim).any(|p| {
                matches!(
                    m.arena().try_resolve(m.active_handle(p)),
                    Ok(Active::Frame(_))
                )
            });
            if busy && count_written(m, out) >= KILL_AT {
                return sup.kill_worker(victim).is_ok();
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    }
}
