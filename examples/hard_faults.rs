//! Watching the scheduler survive hard faults.
//!
//! Builds a fork-join matrix multiply, kills two of four processors at
//! scheduled points, and prints each WS-deque after the run — showing the
//! `taken` entries (`T`) left behind by the steals that rescued the dead
//! processors' threads (§6.2's entry states, Figure 4).
//!
//! ```sh
//! cargo run --release --example hard_faults
//! ```

use ppm::algs::matmul::matmul_pool_words;
use ppm::algs::{matmul_seq, MatMul};
use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sched::{Runtime, SchedConfig};

fn main() {
    let n = 24;
    let m_eph = 256;
    let faults = FaultConfig::none()
        .with_scheduled_hard_fault(1, 800)
        .with_scheduled_hard_fault(3, 1_500);
    let machine = Machine::with_pool_words(
        PmConfig::parallel(4, 1 << 23)
            .with_ephemeral_words(m_eph)
            .with_fault(faults),
        matmul_pool_words(n, m_eph),
    );

    let mm = MatMul::new(&machine, n);
    let a: Vec<u64> = (0..(n * n) as u64).map(|i| i % 9).collect();
    let b: Vec<u64> = (0..(n * n) as u64).map(|i| (i * 7) % 11).collect();
    mm.load_inputs(&machine, &a, &b);

    println!("matrix multiply {n}x{n} on 4 procs; procs 1 and 3 will hard-fault\n");
    let rt = Runtime::new(machine, SchedConfig::with_slots(1 << 13));
    let report = rt.run_or_recover(&mm.pcomp());

    assert!(report.completed());
    assert_eq!(
        mm.read_output(rt.machine()),
        matmul_seq(&a, &b, n),
        "product must be correct despite the deaths"
    );

    println!("outcomes    : {:?}", report.run_report().outcomes);
    println!("hard faults : {}", report.stats().hard_faults);
    println!("total work  : {} transfers", report.stats().total_work());
    println!("result      : correct\n");

    println!("per-processor activity:");
    for (p, ps) in report.stats().per_proc.iter().enumerate() {
        println!(
            "  proc {p}: reads={:<8} writes={:<8} capsules={:<7} {}",
            ps.reads,
            ps.writes,
            ps.capsule_runs,
            if ps.hard_faults > 0 {
                "DIED"
            } else {
                "survived"
            }
        );
    }

    println!("\nfinal WS-deques (T taken, J job, L local; empty slots omitted):");
    for line in &report.run_report().deque_dump {
        match line.get(..120) {
            Some(head) if line.len() > 120 => println!("  {head}..."),
            _ => println!("  {line}"),
        }
    }
    println!("\nthe `T` runs on the dead processors' deques are the steals that");
    println!("rescued their threads — including local entries resumed from the");
    println!("dead processors' restart pointers (getActiveCapsule, Figure 3 line 60).");
}
