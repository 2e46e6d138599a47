//! Bounded replay from epoch checkpoints, against a real `kill -9`.
//!
//! A worker process runs a checkpointed prefix sum on a durable machine
//! file: every few hundred capsules it quiesces, flushes only its dirty
//! pages, and writes a [`ppm::pm::CheckpointRecord`] into the control
//! page. The parent watches the record slots, SIGKILLs the worker
//! *between* checkpoints, then smashes the persisted restart pointer —
//! simulating the narrow crash windows in which the exact crash frontier
//! is unresumable — and recovers in a fresh session.
//!
//! Verified on a successful attempt:
//!
//! * recovery runs in `Resumed` mode **from the checkpoint record**, not
//!   by replaying from the root;
//! * the resumed run re-drives at most the work after that checkpoint
//!   (replay distance ≤ one epoch), measured in capsules against a
//!   from-root reference run;
//! * the recovered output equals the sequential oracle.
//!
//! Run with `cargo run --release --example checkpointed_run`.

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("child") => scenario::child(&args[2]),
        _ => scenario::parent(),
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("checkpointed_run needs the unix durable backend (mmap); skipping");
}

#[cfg(unix)]
mod scenario {
    use std::path::Path;
    use std::time::{Duration, Instant};

    use ppm::algs::{prefix_sum_seq, PrefixSum};
    use ppm::pm::{CheckpointRecord, PageView, PmConfig, Word};
    use ppm::sched::{CheckpointPolicy, Runtime, RuntimeConfig, SessionMode};

    /// One model processor: the capsule schedule is deterministic, so the
    /// replay-distance bound is an exact inequality, not a statistical
    /// observation.
    const PROCS: usize = 1;
    const WORDS: usize = 1 << 22;
    const N: usize = 4096;
    const SLOTS: usize = 1 << 13;
    /// The checkpoint epoch: at most this many capsules are ever re-run.
    const EPOCH: u64 = 500;
    const MAX_ATTEMPTS: usize = 8;

    fn runtime_cfg() -> RuntimeConfig {
        RuntimeConfig::new(PmConfig::parallel(PROCS, WORDS))
            .with_slots(SLOTS)
            .with_checkpoint(CheckpointPolicy::every_capsules(EPOCH))
    }

    fn input() -> Vec<Word> {
        (0..N as u64)
            .map(|i| i.wrapping_mul(37) % 100_003)
            .collect()
    }

    pub fn child(path: &str) {
        let rt = Runtime::create(path, runtime_cfg()).expect("create durable session");
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        let rep = rt.run_or_recover(&ps.pcomp());
        rt.mark_clean().expect("flush completed run");
        std::process::exit(if rep.completed() { 0 } else { 1 });
    }

    /// Reads the newest valid checkpoint record straight off the file.
    fn newest_record(path: &Path) -> Option<CheckpointRecord> {
        PageView::read_file(path).ok()?.latest_checkpoint().cloned()
    }

    /// Capsules a complete from-root run completes (the replay cost a
    /// checkpoint resume must beat).
    fn full_run_capsules() -> u64 {
        let rt = Runtime::volatile(runtime_cfg());
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        let rep = rt.run_or_recover(&ps.pcomp());
        assert!(rep.completed());
        rep.stats().capsule_completions
    }

    pub fn parent() {
        let full = full_run_capsules();
        println!("reference from-root run: {full} capsules (epoch = {EPOCH})");
        for attempt in 1..=MAX_ATTEMPTS {
            if run_scenario(attempt, full) {
                return;
            }
            println!("attempt {attempt}: kill window missed; retrying\n");
        }
        panic!("no attempt out of {MAX_ATTEMPTS} caught the worker between checkpoints");
    }

    fn run_scenario(attempt: usize, full: u64) -> bool {
        // Guarded path: removed when the attempt ends, even on a panic.
        let file = ppm::pm::TempMachineFile::new(&format!("checkpointed-run-{attempt}"));
        let path = file.path();

        println!("spawning checkpointed worker on {}", path.display());
        let exe = std::env::current_exe().expect("current_exe");
        let mut worker = std::process::Command::new(exe)
            .arg("child")
            .arg(path)
            .spawn()
            .expect("spawn child worker");

        // SIGKILL between checkpoints: wait until at least two records
        // exist (the second proves the epoch cadence), then kill.
        let seen = wait_for_records(path, 2, &mut worker);
        worker.kill().expect("SIGKILL child");
        let status = worker.wait().expect("reap child");
        let Some(seen) = seen else {
            println!("child completed before two checkpoints (exit {status:?})");
            return false;
        };
        println!(
            "killed child after checkpoint seq {} (~{} capsules committed, exit {status:?})",
            seen.seq, seen.capsules
        );

        // --- the recovering process ---
        let rt = Runtime::open(path, runtime_cfg()).expect("open session");
        // Force the unresumable-crash-frontier case: point every restart
        // pointer at garbage (the checkpoint frontier's frames stay
        // intact) so recovery *must* use the checkpoint record.
        for p in 0..PROCS {
            if rt.machine().active_handle(p) != 0 {
                rt.machine()
                    .mem()
                    .store(rt.machine().proc_meta(p).active, 0xBAAD_F00D);
            }
        }
        let ps = PrefixSum::new(rt.machine(), N);
        ps.load_input(rt.machine(), &input());
        let rec = rt.run_or_recover(&ps.pcomp());
        assert!(rec.completed(), "recovery must finish the computation");
        assert_eq!(
            ps.read_output(rt.machine()),
            prefix_sum_seq(&input()),
            "recovered output must match the sequential oracle"
        );
        if rec.mode != SessionMode::Resumed {
            // A kill in the first epoch can leave nothing to resume.
            println!("no checkpoint resume this attempt (mode {:?})", rec.mode);
            return false;
        }
        let ckpt = rec
            .checkpoint_resume
            .as_ref()
            .expect("smashed frontier must resume via the checkpoint record");
        let recovered = rec.run.as_ref().unwrap().stats.capsule_completions;
        let budget = full - ckpt.capsules_at_checkpoint + 4 * rec.resumed as u64 + 64;
        println!(
            "resumed from checkpoint seq {} ({} capsules into the run): \
             recovery re-ran {recovered} capsules (budget {budget}, full replay {full})",
            ckpt.seq, ckpt.capsules_at_checkpoint
        );
        assert!(
            recovered <= budget,
            "replay distance must be bounded by one epoch: {recovered} > {budget}"
        );
        assert!(
            recovered < full,
            "checkpoint resume must beat a from-root replay"
        );
        rt.mark_clean().expect("record clean shutdown");
        println!(
            "bounded replay verified: at most one {EPOCH}-capsule epoch plus seed overhead re-ran"
        );
        true
    }

    /// Waits until the file holds a record with `seq >= min_seq`; `None`
    /// if the child exits first.
    fn wait_for_records(
        path: &Path,
        min_seq: u64,
        worker: &mut std::process::Child,
    ) -> Option<CheckpointRecord> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(
                Instant::now() < deadline,
                "child wrote no checkpoints in 120s"
            );
            if worker.try_wait().expect("try_wait").is_some() {
                return None;
            }
            if let Some(rec) = newest_record(path) {
                if rec.seq >= min_seq {
                    return Some(rec);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}
