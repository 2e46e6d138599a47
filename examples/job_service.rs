//! The persistent job service at OS scale: N worker *processes* attach
//! to one `MAP_SHARED` service machine file, pulling jobs from the
//! durable injector ring while the parent submits a continuous stream
//! through [`ppm::sched::ServiceHandle`]. The parent SIGKILLs one
//! worker mid-stream; the stream keeps flowing — survivors pull what
//! the dead worker would have, adopt the threads of the jobs it had
//! claimed (re-claiming a job whose entry had not run at a bumped claim
//! epoch), and every ticket still resolves `Done` exactly once (the §5
//! done-CAM guarantee).
//!
//! Verified on every attempt: all tickets resolve with unique ticket
//! numbers, every job's output slice is written, and the ring drains to
//! zero before shutdown. With at least two shards the attempt must also
//! demonstrate *live-shard stealing* — a pulled job's forked subtasks
//! crossing shard boundaries through the ordinary steal protocol — and,
//! when `PPM_METRICS_PORT` is set, prove it from the aggregated scrape
//! alone: some shard's `ppm_live_steals_total` is nonzero and every
//! `ppm_service_queue_depth` series reads 0 once every ticket resolved
//! (scraped before the drain, which ends the workers).
//!
//! `PPM_SHARD_WORKERS` selects the worker count (default 4). With `1`
//! the kill leaves no pullers at all: the parent heals the service by
//! spawning a replacement worker for the same shard, which republishes
//! the tombstoned lease and finishes the stream — the coverage the CI
//! fault matrix's single-worker leg wants.
//!
//! Run with `cargo run --release --example job_service`.

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
    eprintln!("job_service needs the unix durable backend (mmap); skipping");
}

#[cfg(unix)]
mod scenario {
    use std::collections::VecDeque;
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use ppm::core::{dsl, Machine, Persist};
    use ppm::pm::{PmConfig, Region, TempMachineFile, Word};
    use ppm::sched::cluster::{self, ClusterBuilder, ShardBuild};
    use ppm::sched::{JobReport, JobTicket, ServiceConfig};

    const PROCS_PER_SHARD: usize = 2;
    const WORDS: usize = 1 << 22;
    /// Jobs the parent streams through the service per attempt.
    const TOTAL_JOBS: usize = 48;
    /// Output words per job; grain 4 fans each job into ~128 stealable
    /// leaves, so pulled jobs overflow their claimant's shard.
    const JOB_SLICE: usize = 512;
    const GRAIN: usize = 4;
    /// Ring slots — smaller than the stream, so submission exercises the
    /// `WouldBlock` backpressure path too.
    const SLOTS: usize = 16;
    /// SIGKILL the victim after this many submissions ("mid-stream").
    const KILL_AFTER: usize = TOTAL_JOBS / 3;
    const AWAIT_TIMEOUT: Duration = Duration::from_secs(60);
    const MAX_ATTEMPTS: usize = 6;

    fn workers() -> usize {
        std::env::var("PPM_SHARD_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|n| (1..=8).contains(n))
            .unwrap_or(4)
    }

    /// The deterministic construction every process replays: one shared
    /// output region plus the job kind — `job/split` fans a span into
    /// `job/mark` leaves writing `i + 1`. A service never publishes the
    /// returned root; the registrations and the region are the point.
    fn build(out_slot: Arc<Mutex<Option<Region>>>) -> ShardBuild {
        Arc::new(move |m: &Machine, shard: usize, k: Word| {
            // One region for the whole stream, allocated only on the
            // first shard's build call (the closure runs once per shard
            // in every process; the alloc sequence must be identical).
            let out = if shard == 0 {
                let r = m.alloc_region(TOTAL_JOBS * JOB_SLICE);
                *out_slot.lock().unwrap() = Some(r);
                r
            } else {
                out_slot.lock().unwrap().expect("shard 0 builds first")
            };
            let mut set = dsl::CapsuleSet::new(m);
            let leaf = set.define("job/mark", |st: &dsl::Span<Region>, k, ctx| {
                for i in st.lo..st.hi {
                    ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                }
                Ok(dsl::Step::Jump(k))
            });
            let split = set.map_grain("job/split", GRAIN, leaf);
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

    pub fn worker(path: &str, shard: usize) {
        let rep = cluster::run_worker(path, shard, &build(Arc::new(Mutex::new(None))))
            .expect("worker session");
        if let Some(summary) = &rep.cluster {
            let own = &summary.shard_reports[shard];
            println!(
                "worker {shard}: completed={} adopted_jobs={} declared_dead={:?}",
                rep.completed(),
                own.adopted_jobs,
                summary.dead_shards,
            );
        }
        std::process::exit(if rep.completed() { 0 } else { 1 });
    }

    pub fn parent() {
        let shards = workers();
        println!("job service scenario: {shards} worker processes x {PROCS_PER_SHARD} procs");
        for attempt in 1..=MAX_ATTEMPTS {
            if run_scenario(attempt, shards) {
                return;
            }
            println!("attempt {attempt}: stream completed but no live steal observed; retrying\n");
        }
        panic!("no attempt out of {MAX_ATTEMPTS} showed a live-shard steal — statistically absurd");
    }

    /// One full service lifetime. Returns whether the attempt also
    /// demonstrated what it set out to show (always true for the
    /// single-worker heal leg; for multi-shard runs, a live steal).
    fn run_scenario(attempt: usize, shards: usize) -> bool {
        let file = TempMachineFile::new(&format!("job-service-{attempt}"));
        let out_slot = Arc::new(Mutex::new(None));
        let build = build(out_slot.clone());
        let exe = std::env::current_exe().expect("current_exe");
        let worker_cmd = |s: usize| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("worker").arg(file.path()).arg(s.to_string());
            cmd
        };

        let mut handle = ClusterBuilder::new(file.path())
            .machine(PmConfig::parallel(shards * PROCS_PER_SHARD, WORDS))
            .workers(shards)
            .lease_ms(600)
            .deque_slots(1 << 12)
            .service_config(ServiceConfig::default().with_slots(SLOTS))
            .spawn(&build, worker_cmd)
            .expect("spawn service");
        let out = out_slot.lock().unwrap().expect("builder recorded region");
        let metrics_port = ppm::obs::Obs::metrics_port_from_env();

        // Stream the jobs. The ring is smaller than the stream, so on
        // WouldBlock the oldest outstanding ticket is awaited (reclaiming
        // its slot) before retrying — backpressure, never a drop.
        let victim = shards - 1;
        let mut killed = false;
        let mut healer: Option<std::process::Child> = None;
        let mut pending: VecDeque<JobTicket> = VecDeque::new();
        let mut reports: Vec<JobReport> = Vec::new();
        let mut last_scrape = String::new();
        let mut next_scrape = Instant::now();
        for job in 0..TOTAL_JOBS {
            if job == KILL_AFTER {
                handle.kill_worker(victim).expect("victim is alive");
                killed = true;
                println!("attempt {attempt}: worker {victim} SIGKILLed mid-stream");
                if shards == 1 {
                    // No pullers left at all: heal the service by giving
                    // the shard a fresh worker. It republishes the
                    // tombstoned lease and resumes pulling.
                    healer = Some(worker_cmd(victim).spawn().expect("spawn replacement"));
                    println!("attempt {attempt}: replacement worker spawned for shard {victim}");
                }
            }
            let args = span_args(out, job);
            let ticket = loop {
                match handle.submit("job/split", &args) {
                    Ok(t) => break t,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        let oldest = pending.pop_front().expect("full ring implies pending");
                        reports.push(
                            handle
                                .await_job(oldest, AWAIT_TIMEOUT)
                                .expect("backpressured job resolves"),
                        );
                    }
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
            pending.push_back(ticket);
            // Keep the aggregate exporter's per-worker cache warm so the
            // victim's last-seen series survive into the final scrape.
            if let Some(port) = metrics_port {
                if Instant::now() >= next_scrape {
                    if let Ok(text) = scrape(port) {
                        last_scrape = text;
                    }
                    next_scrape = Instant::now() + Duration::from_millis(150);
                }
            }
        }
        while let Some(t) = pending.pop_front() {
            reports.push(
                handle
                    .await_job(t, AWAIT_TIMEOUT)
                    .expect("streamed job resolves"),
            );
        }
        assert!(killed, "the kill must land mid-stream");

        // Exactly-once at the ticket level: every submission resolved
        // `Done`, no ticket number twice, and the ring is empty.
        assert_eq!(reports.len(), TOTAL_JOBS, "every submitted job resolves");
        let mut nums: Vec<u64> = reports.iter().map(|r| r.ticket.ticket).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), TOTAL_JOBS, "ticket numbers are unique");
        let reclaimed = reports.iter().filter(|r| r.rescues() > 0).count();

        // Final scrape while the workers still serve — every ticket is
        // resolved, so the ring is already empty: the queue depth and the
        // cross-shard steal counters. The drain closes admission, and a
        // closed, empty ring ends the workers.
        if let Some(port) = metrics_port {
            if let Ok(text) = scrape(port) {
                last_scrape = text;
            }
        }
        handle
            .drain(Duration::from_secs(30))
            .expect("drain an already-empty ring");
        println!(
            "attempt {attempt}: {TOTAL_JOBS} tickets resolved exactly-once \
             ({reclaimed} re-claimed by adoption)"
        );

        let report = handle.shutdown().expect("service shutdown");
        if let Some(child) = healer.as_mut() {
            // The replacement worker halts on the same done flag the
            // shutdown set; reap it (killing a straggler).
            let grace = Instant::now() + Duration::from_secs(10);
            while Instant::now() < grace && child.try_wait().expect("try_wait").is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        let summary = report.cluster.as_ref().expect("cluster summary");
        if shards > 1 {
            assert!(
                summary.dead_shards.contains(&victim),
                "the killed worker must be reported dead"
            );
        }

        // Exactly-once at the effect level: every job's slice is filled.
        let machine = Machine::attach(
            file.path(),
            ppm::pm::FaultConfig::none(),
            ppm::pm::ValidateMode::Strict,
        )
        .expect("attach for verification");
        for i in 0..TOTAL_JOBS * JOB_SLICE {
            assert_eq!(
                machine.mem().load(out.at(i)),
                i as u64 + 1,
                "job output word {i}"
            );
        }
        println!("attempt {attempt}: all {TOTAL_JOBS} job slices written exactly-once");

        // Multi-shard runs must demonstrate live-shard stealing; with
        // the scrape surface on, it must be legible from metrics alone.
        if shards == 1 {
            println!("single-worker leg: kill + heal + completed stream demonstrated");
            return true;
        }
        match metrics_port {
            Some(_) => {
                let steals = scraped_live_steals(&last_scrape);
                assert_depth_drained(&last_scrape, victim);
                println!("metrics scrape: {steals} live-shard steals across survivors");
                steals > 0
            }
            // Without the scrape surface the counters live only inside
            // the worker processes; completion is all we can check here.
            None => true,
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

    /// Sum of `ppm_live_steals_total` over every shard series.
    fn scraped_live_steals(scrape: &str) -> u64 {
        assert!(!scrape.is_empty(), "aggregate exporter never answered");
        scrape
            .lines()
            .filter(|l| l.starts_with("ppm_live_steals_total"))
            .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
            .sum()
    }

    /// With every ticket resolved every `ppm_service_queue_depth` series
    /// must read zero — except the killed worker's, whose post-mortem
    /// series is
    /// the aggregate's cache of its last scrape before the SIGKILL and
    /// legitimately freezes at whatever depth it last saw.
    fn assert_depth_drained(scrape: &str, victim: usize) {
        let stale = format!("shard=\"{victim}\"");
        let mut seen = false;
        for line in scrape
            .lines()
            .filter(|l| l.starts_with("ppm_service_queue_depth") && !l.contains(&stale))
        {
            seen = true;
            let v: f64 = line
                .rsplit_once(' ')
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(f64::NAN);
            assert_eq!(v, 0.0, "drained ring must scrape as depth 0: {line}");
        }
        assert!(seen, "queue depth gauge missing from scrape:\n{scrape}");
    }
}
