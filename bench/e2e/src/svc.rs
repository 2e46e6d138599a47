//! `svc_stream`: the job service under load. One trial is one service
//! lifetime in a fresh process — spawn the workers, stream jobs through
//! the durable injector ring in closed-loop, serial and open-loop
//! segments, drain, shut down, verify every slice.
//!
//! The generator is this process's main thread and it spins: it submits
//! what is due, then polls `InjectorQueue::status` of every outstanding
//! ticket, so a job's latency ends at the first `Done` the poll loop sees
//! (`ServiceHandle::await_job` sleeps 5 ms per poll and would hide
//! everything below that).

use std::io::ErrorKind;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppm::core::dsl::{CapsuleSet, Span, Step, K};
use ppm::core::{Machine, Persist};
use ppm::pm::{LeaseState, PmConfig, Region, Word};
use ppm::sched::cluster::{self, ClusterBuilder, ShardBuild};
use ppm::sched::{InjectorQueue, JobStatus, JobTicket, ServiceConfig, ServiceHandle};

use crate::batch::timed;
use crate::json::Json;
use crate::spans::Recorder;
use crate::{gen, host, TrialSpec, Variant};

/// Words one job writes, and the grain of its `map_grain`: eight leaves,
/// seven forks — a small job, so the service path is most of its cost.
const SLICE_WORDS: usize = 64;
const GRAIN: usize = 8;
const RING_SLOTS: usize = 64;
/// Tickets the closed-loop segment keeps in flight.
const OUTSTANDING: usize = 32;
/// Jobs per segment of a full-size lifetime: short lifetimes, so that a
/// run holds a few dozen of them and its numbers rest on many samples.
const CLOSED_JOBS: usize = 2000;
const SERIAL_JOBS: usize = 600;
const OPEN_JOBS: usize = 1000;
/// Open-loop rates in jobs per second, frozen when this benchmark was
/// defined: about 25 %, 50 % and 75 % of the closed-loop rate the
/// reference host sustains in its slow phases (see README.md), so the
/// highest is still an open loop there. `job_latency_p50_ms` is taken at
/// `RATES[1]`.
pub const RATES: [f64; 3] = [2500.0, 5000.0, 7500.0];
/// What the rates are called in result fields and metric names.
pub const RATE_LABELS: [&str; 3] = ["r1", "r2", "r3"];
/// A rate is sustained when its p99 stays under this and the backlog
/// does not grow.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Pool words budgeted per job. Workers consume about 350 per job of this
/// shape and never give them back, and a worker that runs out panics, so
/// the pool holds twice the lifetime's need and the service is restarted
/// between lifetimes.
const POOL_WORDS_PER_JOB: usize = 700;
const JOB_TIMEOUT: Duration = Duration::from_secs(10);
const TICK_EVERY: Duration = Duration::from_millis(20);
const JOB_KIND: &str = "job/split";

/// Service workers: one processor each, and one core left for the
/// generator — idle workers spin in `findWork`, so a busy thread more
/// than the host has cores measures the OS scheduler.
pub fn workers() -> usize {
    host::p_par().saturating_sub(1).max(1)
}

struct Sizes {
    closed: usize,
    serial: usize,
    /// Indices into `RATES` of the open-loop segments, in order.
    open_rates: Vec<usize>,
    open: usize,
}

impl Sizes {
    fn new(spec: &TrialSpec) -> Self {
        let scale = |n: usize| (n / spec.div).max(16);
        Sizes {
            closed: scale(CLOSED_JOBS),
            serial: scale(SERIAL_JOBS),
            open_rates: match spec.variant {
                Variant::Sweep => vec![1, 0, 2],
                _ => vec![1],
            },
            open: scale(OPEN_JOBS),
        }
    }

    /// Every job of the lifetime, the first-job probe included.
    fn total_jobs(&self) -> usize {
        1 + self.closed + self.serial + self.open_rates.len() * self.open
    }
}

/// The construction every attached process replays: the output region
/// (allocated once, on the first shard's call) and the job kind.
fn shard_build(total_jobs: usize, salt: u64, out_slot: Arc<Mutex<Option<Region>>>) -> ShardBuild {
    Arc::new(move |m: &Machine, shard: usize, k: Word| {
        let mut slot = out_slot.lock().expect("region slot poisoned");
        let out = match *slot {
            Some(r) if shard > 0 => r,
            _ => *slot.insert(m.alloc_region(total_jobs * SLICE_WORDS)),
        };
        drop(slot);
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("job/mark", move |st: &Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), gen::mark(salt, i))?;
            }
            Ok(Step::Jump(k))
        });
        let split = set.map_grain(JOB_KIND, GRAIN, leaf);
        split
            .setup(
                m,
                &Span {
                    env: out,
                    lo: 0,
                    hi: 0,
                },
                K(k),
            )
            .word()
    })
}

/// Where worker `shard` of the coordinator with process id `coordinator`
/// leaves its peak resident set when it exits.
fn hwm_path(coordinator: u32, shard: usize) -> std::path::PathBuf {
    host::machine_dir().join(format!("e2e-svc-{coordinator}.hwm{shard}"))
}

/// The worker role: `ppm-e2e worker <file> <shard> <total jobs> <salt>`,
/// spawned by `ClusterBuilder::spawn` through the command below.
pub fn worker(args: &[String]) -> i32 {
    let parsed = (|| {
        Some((
            args.first()?.clone(),
            args.get(1)?.parse::<usize>().ok()?,
            args.get(2)?.parse::<usize>().ok()?,
            args.get(3)?.parse::<u64>().ok()?,
        ))
    })();
    let Some((path, shard, total_jobs, salt)) = parsed else {
        eprintln!("usage: ppm-e2e worker <machine file> <shard> <total jobs> <salt>");
        return 2;
    };
    // A worker whose coordinator is gone (killed on a timeout) must not
    // spin on: when this process is re-parented, leave.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
    let build = shard_build(total_jobs, salt, Arc::new(Mutex::new(None)));
    let completed = match cluster::run_worker(&path, shard, &build) {
        Ok(rep) => rep.completed(),
        Err(e) => {
            eprintln!("ppm-e2e worker {shard}: {e}");
            false
        }
    };
    // The coordinator adds this to its own peak for `peak_rss_mib`.
    let _ = std::fs::write(hwm_path(parent, shard), host::vm_hwm_kib().to_string());
    i32::from(!completed)
}

struct InFlight {
    ticket: JobTicket,
    due: Instant,
    submitted: Instant,
}

/// What one segment saw.
#[derive(Default)]
struct Segment {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    elapsed_s: f64,
    backlog_mid: usize,
    backlog_end: usize,
}

/// The generator's state over one service lifetime.
struct Stream<'a> {
    handle: &'a mut ServiceHandle,
    queue: Arc<InjectorQueue>,
    out: Region,
    workers: usize,
    in_flight: Vec<InFlight>,
    /// The most recent ticket (the traced run times `status` on it).
    last_ticket: Option<JobTicket>,
    tickets: Vec<u64>,
    submit_us: Vec<f64>,
    attempted: usize,
    failed: usize,
    would_block: u64,
    rescues: u64,
    /// Nanoseconds per `reclaim`, taken in the traced run only.
    reclaim_ns: Vec<f64>,
    last_tick: Instant,
    /// Set when a worker died or the stream stalled: the lifetime ends.
    broken: Option<String>,
}

impl Stream<'_> {
    fn job_args(&self, slice: usize) -> Vec<Word> {
        let mut args = Vec::new();
        Span {
            env: self.out,
            lo: slice * SLICE_WORDS,
            hi: (slice + 1) * SLICE_WORDS,
        }
        .encode(&mut args);
        args
    }

    /// Submits the job for `slice`, due at `due`. `false` on a full ring
    /// (the job stays due; its latency keeps counting).
    fn submit(&mut self, slice: usize, due: Instant, rec: &mut Recorder) -> bool {
        let args = self.job_args(slice);
        let start = Instant::now();
        match self.handle.submit(JOB_KIND, &args) {
            Ok(ticket) => {
                let end = Instant::now();
                self.last_tick = end; // `submit` sweeps worker health itself
                self.submit_us
                    .push(end.duration_since(start).as_secs_f64() * 1e6);
                rec.record("submit", ticket.ticket + 1, start, end);
                self.attempted += 1;
                self.tickets.push(ticket.ticket);
                self.last_ticket = Some(ticket);
                self.in_flight.push(InFlight {
                    ticket,
                    due,
                    submitted: end,
                });
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.would_block += 1;
                false
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.broken = Some(format!("submit: {e}"));
                false
            }
        }
    }

    /// One pass over the outstanding tickets: resolves those that are
    /// `Done` (latency from their due time to now), fails those lost or
    /// overdue, and sweeps worker health when a tick is due.
    fn poll(&mut self, latencies_ms: &mut Vec<f64>, rec: &mut Recorder) {
        let now = Instant::now();
        let (mut failed, mut rescues) = (0, 0);
        let (queue, reclaim_ns) = (&self.queue, &mut self.reclaim_ns);
        self.in_flight.retain(|job| match queue.status(job.ticket) {
            JobStatus::Done { claim_epoch, .. } => {
                let timer = rec.enabled().then(Instant::now);
                queue.reclaim(job.ticket);
                reclaim_ns.extend(timer.map(|t| t.elapsed().as_nanos() as f64));
                latencies_ms.push(now.duration_since(job.due).as_secs_f64() * 1e3);
                rescues += claim_epoch.saturating_sub(job.ticket.epoch);
                rec.record("job", job.ticket.ticket + 1, job.submitted, now);
                false
            }
            JobStatus::Lost => {
                failed += 1;
                false
            }
            JobStatus::InFlight(_) if now.duration_since(job.submitted) > JOB_TIMEOUT => {
                failed += 1;
                false
            }
            JobStatus::InFlight(_) => true,
        });
        self.failed += failed;
        self.rescues += rescues;
        if now.duration_since(self.last_tick) >= TICK_EVERY {
            self.last_tick = now;
            self.handle.tick();
            // `tick` reaps an exited worker and tombstones its lease.
            let dead = (0..self.workers).find(|s| {
                self.handle
                    .observer()
                    .lease(*s)
                    .is_some_and(|l| l.state == LeaseState::Dead)
            });
            if let Some(shard) = dead {
                self.broken = Some(format!("worker {shard} died"));
            }
        }
    }

    /// Fails whatever is still outstanding (the lifetime is over).
    fn abandon(&mut self) {
        self.failed += self.in_flight.len();
        self.in_flight.clear();
    }

    /// Closed loop: `cap` callers that each wait for their reply before
    /// sending the next job; `cap = 1` is one job at a time.
    fn closed_loop(&mut self, slices: &[usize], cap: usize, rec: &mut Recorder) -> Segment {
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut next = 0;
        while self.broken.is_none() && (next < slices.len() || !self.in_flight.is_empty()) {
            while next < slices.len() && self.in_flight.len() < cap {
                if !self.submit(slices[next], Instant::now(), rec) {
                    break;
                }
                next += 1;
            }
            self.poll(&mut seg.latencies_ms, rec);
        }
        seg.elapsed_s = start.elapsed().as_secs_f64();
        seg
    }

    /// Open loop: jobs fall due on a fixed schedule whether or not the
    /// service keeps up, and each is timed from when it was due.
    fn open_loop(&mut self, rate: f64, slices: &[usize], rec: &mut Recorder) -> Segment {
        let schedule = gen::open_loop_schedule(rate, slices);
        let mut seg = Segment::default();
        let start = Instant::now();
        let due_at = |i: usize| start + Duration::from_nanos(schedule[i].due_ns);
        let mut next = 0;
        while self.broken.is_none() && (next < schedule.len() || !self.in_flight.is_empty()) {
            let now = Instant::now();
            while next < schedule.len() && due_at(next) <= now {
                let started = Instant::now();
                if !self.submit(schedule[next].slice, due_at(next), rec) {
                    break;
                }
                seg.late_ms
                    .push(started.duration_since(due_at(next)).as_secs_f64() * 1e3);
                next += 1;
                // Backlog: jobs sent and not done, half-way through the
                // schedule and when its last job has been sent.
                if next == schedule.len() / 2 {
                    seg.backlog_mid = self.in_flight.len();
                }
                if next == schedule.len() {
                    seg.backlog_end = self.in_flight.len();
                }
            }
            self.poll(&mut seg.latencies_ms, rec);
        }
        seg.elapsed_s = start.elapsed().as_secs_f64();
        seg
    }
}

/// One service lifetime. Never panics with workers alive: every path
/// reaches `shutdown`, which reaps them.
pub fn run_lifetime(spec: &TrialSpec, rec: &mut Recorder) -> Json {
    rec.enter("trial");
    let sizes = Sizes::new(spec);
    let total_jobs = sizes.total_jobs();
    let workers = workers();
    let salt = gen::Rng::new(spec.seed).next_u64();
    let order = gen::permutation(spec.seed, total_jobs);
    let file = host::MachineFile::new("e2e-svc");
    let path = file.path().to_string_lossy().into_owned();
    let pool = total_jobs * POOL_WORDS_PER_JOB + (1 << 14);
    let words = workers * (pool + (1 << 14) + 64) + total_jobs * SLICE_WORDS + (1 << 16);

    let out_slot = Arc::new(Mutex::new(None));
    let build = shard_build(total_jobs, salt, out_slot.clone());
    let exe = std::env::current_exe().expect("current_exe");
    let setup_start = Instant::now();
    let (spawned, spawn_s) = timed(rec, "spawn", |_| {
        ClusterBuilder::new(file.path())
            .machine(PmConfig::parallel(workers, words))
            .workers(workers)
            .pool_words(pool)
            .service_config(ServiceConfig::default().with_slots(RING_SLOTS))
            .spawn(&build, |shard| {
                let mut cmd = Command::new(&exe);
                cmd.arg("worker")
                    .arg(&path)
                    .arg(shard.to_string())
                    .arg(total_jobs.to_string())
                    .arg(salt.to_string())
                    // The trial's stdout carries its result line.
                    .stdout(Stdio::null());
                cmd
            })
    });
    let failure = |note: String| {
        Json::obj([
            ("ok", Json::Bool(false)),
            ("note", Json::Str(note)),
            ("attempted", Json::Num(1.0)),
            ("failed", Json::Num(1.0)),
        ])
    };
    let mut handle = match spawned {
        Ok(h) => h,
        Err(e) => return failure(format!("spawn: {e}")),
    };
    let recorded = *out_slot.lock().expect("region slot poisoned");
    let Some(out) = recorded else {
        let _ = handle.shutdown();
        return failure("the builder never allocated the output region".into());
    };

    let queue = handle.queue().clone();
    let mut stream = Stream {
        handle: &mut handle,
        queue: queue.clone(),
        out,
        workers,
        in_flight: Vec::new(),
        last_ticket: None,
        tickets: Vec::new(),
        submit_us: Vec::new(),
        attempted: 0,
        failed: 0,
        would_block: 0,
        rescues: 0,
        reclaim_ns: Vec::new(),
        last_tick: Instant::now(),
        broken: None,
    };
    let mut cursor = 0;
    let mut take = |n: usize| {
        let s = &order[cursor..cursor + n];
        cursor += n;
        s
    };

    let (_, first_job_s) = timed(rec, "first_job", |rec| stream.closed_loop(take(1), 1, rec));
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut fields: Vec<(String, Json)> = Vec::new();
    let (closed, _) = timed(rec, "segment", |rec| {
        stream.closed_loop(take(sizes.closed), OUTSTANDING, rec)
    });
    let (serial, _) = timed(rec, "segment", |rec| {
        stream.closed_loop(take(sizes.serial), 1, rec)
    });
    for rate in &sizes.open_rates {
        let (seg, _) = timed(rec, "segment", |rec| {
            stream.open_loop(RATES[*rate], take(sizes.open), rec)
        });
        let label = RATE_LABELS[*rate];
        fields.extend([
            (format!("lat_ms_{label}"), Json::nums(&seg.latencies_ms)),
            (format!("late_ms_{label}"), Json::nums(&seg.late_ms)),
            (
                format!("backlog_mid_{label}"),
                Json::Num(seg.backlog_mid as f64),
            ),
            (
                format!("backlog_end_{label}"),
                Json::Num(seg.backlog_end as f64),
            ),
        ]);
    }
    stream.abandon();
    let Stream {
        last_ticket,
        tickets,
        submit_us,
        attempted,
        mut failed,
        would_block,
        rescues,
        reclaim_ns,
        broken,
        ..
    } = stream;

    // The traced run also times the coordinator's own calls: `status` of
    // a resolved ticket and one health sweep.
    if let (true, None, Some(ticket)) = (rec.enabled(), &broken, last_ticket) {
        let calls = 1 << 16;
        let start = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(queue.status(std::hint::black_box(ticket)));
        }
        let status_ns = start.elapsed().as_nanos() as f64 / calls as f64;
        let ticks: Vec<f64> = (0..256)
            .map(|_| {
                let t = Instant::now();
                handle.tick();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        fields.extend([
            ("status_ns".to_string(), Json::Num(status_ns)),
            (
                "reclaim_ns".to_string(),
                Json::Num(crate::stats::median(&reclaim_ns)),
            ),
            (
                "tick_us".to_string(),
                Json::Num(crate::stats::median(&ticks)),
            ),
        ]);
    }

    let (drained, _) = timed(rec, "drain", |_| handle.drain(Duration::from_secs(10)));
    let ring_empty = handle.depth() == 0;

    // Verified through the coordinator's own mapping of the file.
    let (unwritten, _) = timed(rec, "verify", |_| {
        let mem = handle.observer().machine().mem();
        order[..cursor]
            .iter()
            .filter(|slice| {
                let lo = **slice * SLICE_WORDS;
                (lo..lo + SLICE_WORDS).any(|i| mem.load(out.at(i)) != gen::mark(salt, i))
            })
            .count()
    });
    let mut unique = tickets.clone();
    unique.sort_unstable();
    unique.dedup();
    let duplicates = tickets.len() - unique.len();
    failed = failed.max(unwritten) + duplicates;

    let pool_used: usize = {
        let m = handle.observer().machine();
        (0..m.procs()).map(|p| m.pool_watermark(p)).sum()
    };
    let (shut, shutdown_s) = timed(rec, "shutdown", |_| handle.shutdown());
    let workers_hwm_kib: f64 = (0..workers)
        .map(|s| {
            let p = hwm_path(std::process::id(), s);
            let kib = std::fs::read_to_string(&p)
                .ok()
                .and_then(|t| t.trim().parse::<f64>().ok())
                .unwrap_or(0.0);
            let _ = std::fs::remove_file(&p);
            kib
        })
        .sum();
    rec.exit();

    let ok = broken.is_none()
        && failed == 0
        && drained.is_ok()
        && ring_empty
        && shut.is_ok()
        && cursor == total_jobs;
    let mut pairs: Vec<(String, Json)> = vec![
        ("ok".into(), Json::Bool(ok)),
        (
            "note".into(),
            Json::Str(format!(
                "broken={broken:?} failed={failed} unwritten={unwritten} duplicates={duplicates} \
                 drained={} ring_empty={ring_empty} shutdown={}",
                drained.is_ok(),
                shut.is_ok()
            )),
        ),
        ("attempted".into(), Json::Num(attempted.max(1) as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("setup_s".into(), Json::Num(setup_s)),
        ("spawn_s".into(), Json::Num(spawn_s)),
        ("first_job_s".into(), Json::Num(first_job_s)),
        ("shutdown_s".into(), Json::Num(shutdown_s)),
        (
            "closed_jobs_per_s".into(),
            Json::Num(sizes.closed as f64 / closed.elapsed_s),
        ),
        (
            "serial_jobs_per_s".into(),
            Json::Num(sizes.serial as f64 / serial.elapsed_s),
        ),
        ("submit_us".into(), Json::nums(&submit_us)),
        ("would_block".into(), Json::Num(would_block as f64)),
        ("rescues".into(), Json::Num(rescues as f64)),
        (
            "pool_words_per_job".into(),
            Json::Num(pool_used as f64 / attempted.max(1) as f64),
        ),
        ("workers_hwm_kib".into(), Json::Num(workers_hwm_kib)),
    ];
    pairs.extend(fields);
    Json::Obj(pairs)
}
