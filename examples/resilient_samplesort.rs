//! The newly ported samplesort surviving `kill -9`: a worker process
//! sorts 12k keys with the registered persistent samplesort
//! (`SampleSort::pcomp` — row sorts, sampling, pivots, counts transpose,
//! prefix sums, bucket scatter, per-bucket recursion, all as typed
//! frames), the parent SIGKILLs it while the output array is filling in,
//! and a fresh `Runtime` session resumes the pipeline from its persisted
//! crash frontier instead of replaying from the root.
//!
//! Verified on every attempt: the recovered output equals `sort_unstable`
//! on the input. The scenario retries until one attempt demonstrates an
//! actual `Resumed`-mode recovery (a kill can land after the completion
//! flag, or in one of the narrow windows where recovery correctly falls
//! back to replay).
//!
//! Run with `cargo run --release --example resilient_samplesort`.

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
    eprintln!("resilient_samplesort needs the unix durable backend (mmap); skipping");
}

#[cfg(unix)]
mod scenario {
    use std::path::Path;
    use std::time::{Duration, Instant};

    use ppm::algs::{samplesort_pool_words, SampleSort};
    use ppm::core::Machine;
    use ppm::pm::{PmConfig, Region, Word, SUPERBLOCK_BYTES};
    use ppm::sched::{Runtime, RuntimeConfig, SessionMode};

    const PROCS: usize = 4;
    const WORDS: usize = 1 << 23;
    const N: usize = 12_000;
    /// Small ephemeral memory deepens the recursion (more capsules, a
    /// wider kill window).
    const M_EPH: usize = 256;
    const SLOTS: usize = 1 << 15;
    /// Kill once this many output words are in place (values are >= 1,
    /// so nonzero means written) — mid-way through the pipeline's final
    /// phases.
    const KILL_AT: usize = N / 20;
    const MAX_ATTEMPTS: usize = 8;

    fn runtime_cfg() -> RuntimeConfig {
        RuntimeConfig::new(PmConfig::parallel(PROCS, WORDS).with_ephemeral_words(M_EPH))
            .with_pool_words(samplesort_pool_words(N))
            .with_slots(SLOTS)
    }

    fn input() -> Vec<Word> {
        (0..N as u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(42);
                1 + (x ^ (x >> 29)) % 1_000_000
            })
            .collect()
    }

    /// The deterministic construction every process lifetime replays.
    fn build(machine: &Machine) -> SampleSort {
        let ss = SampleSort::new(machine, N);
        ss.load_input(machine, &input());
        ss
    }

    pub fn child(path: &str) {
        let rt = Runtime::create(path, runtime_cfg()).expect("create durable session");
        let ss = build(rt.machine());
        let rep = rt.run_or_recover(&ss.pcomp());
        rt.mark_clean().expect("flush completed run");
        std::process::exit(if rep.completed() { 0 } else { 1 });
    }

    fn count_written(file: &std::fs::File, output: Region) -> usize {
        use std::os::unix::fs::FileExt;
        // Sample every 16th word: cheap, and plenty for a progress gate.
        let mut buf = [0u8; 8];
        (0..N)
            .step_by(16)
            .filter(|i| {
                let off = (SUPERBLOCK_BYTES + output.at(*i) * 8) as u64;
                file.read_exact_at(&mut buf, off).is_ok() && u64::from_le_bytes(buf) != 0
            })
            .count()
            * 16
    }

    pub fn parent() {
        let mut expect = input();
        expect.sort_unstable();
        for attempt in 1..=MAX_ATTEMPTS {
            match run_scenario(attempt, &expect) {
                true => return,
                false => println!("attempt {attempt}: no resume observed; retrying\n"),
            }
        }
        panic!("no attempt out of {MAX_ATTEMPTS} observed a resume — statistically absurd");
    }

    fn run_scenario(attempt: usize, expect: &[Word]) -> bool {
        // Guarded path: removed when the attempt ends, even on a panic.
        let file = ppm::pm::TempMachineFile::new(&format!("resilient-ssort-{attempt}"));
        let path = file.path();

        // Probe the deterministic layout for the output region.
        let output = {
            let probe = Machine::with_pool_words(
                PmConfig::parallel(PROCS, WORDS).with_ephemeral_words(M_EPH),
                samplesort_pool_words(N),
            );
            let ss = SampleSort::new(&probe, N);
            ss.output
        };

        println!("spawning samplesort worker on {}", path.display());
        let exe = std::env::current_exe().expect("current_exe");
        let mut worker = std::process::Command::new(exe)
            .arg("child")
            .arg(path)
            .spawn()
            .expect("spawn child worker");

        let progress = wait_for_progress(path, output, &mut worker);
        worker.kill().expect("SIGKILL child");
        let status = worker.wait().expect("reap child");
        if progress.is_none() {
            // The child finished before the kill window opened.
            println!("child completed before the kill landed (exit {status:?})");
            return false;
        }
        println!(
            "killed child at ~{}/{N} output words (exit: {status:?})",
            progress.unwrap()
        );

        // --- the recovering process ---
        let rt = Runtime::open(path, runtime_cfg()).expect("open session");
        let ss = build(rt.machine());
        let rec = rt.run_or_recover(&ss.pcomp());
        assert!(rec.completed(), "recovery must finish the sort");
        println!(
            "session mode: {:?} — {} resumed, restart points + jobs ({} jobs, {} locals, \
             {} taken found)",
            rec.mode, rec.resumed, rec.found_jobs, rec.found_locals, rec.found_taken,
        );
        assert_eq!(
            ss.read_output(rt.machine()),
            expect,
            "recovered output must be the sorted input"
        );
        rt.mark_clean().expect("record clean shutdown");
        let resumed = rec.mode == SessionMode::Resumed;
        if resumed {
            println!(
                "samplesort survived kill -9: resumed {} in-flight threads and produced \
                 a correct sort of {N} keys",
                rec.resumed
            );
        } else if let Some(reason) = rec.fallback_reason {
            println!("correct, but fell back to replay: {reason}");
        }
        resumed
    }

    /// Waits until the output region is partially written; `None` if the
    /// child exits first.
    fn wait_for_progress(
        path: &Path,
        output: Region,
        worker: &mut std::process::Child,
    ) -> Option<usize> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "child made no progress in 120s");
            if worker.try_wait().expect("try_wait").is_some() {
                return None;
            }
            if let Ok(file) = std::fs::File::open(path) {
                let written = count_written(&file, output);
                if written >= KILL_AT {
                    return Some(written);
                }
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    }
}
