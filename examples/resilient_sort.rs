//! Sorting a large array while processors die.
//!
//! Runs the paper's samplesort (§7, Theorem 7.3) on a machine where three
//! of four processors hard-fault mid-run. The survivors steal the dead
//! processors' in-progress threads (including their *local* deque entries,
//! resumed from `getActiveCapsule`) and finish the sort.
//!
//! ```sh
//! cargo run --release --example resilient_sort
//! ```

use ppm::algs::sort::samplesort_pool_words;
use ppm::algs::SampleSort;
use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sched::{Runtime, SchedConfig};

fn main() {
    let n = 1 << 13;

    // Three scheduled assassinations: processors 1, 2, 3 die at their
    // 2_000th / 5_000th / 9_000th persistent access. Plus background soft
    // faults everywhere.
    let faults = FaultConfig::soft(0.001, 7)
        .with_scheduled_hard_fault(1, 2_000)
        .with_scheduled_hard_fault(2, 5_000)
        .with_scheduled_hard_fault(3, 9_000);

    let machine = Machine::with_pool_words(
        PmConfig::parallel(4, 1 << 24)
            .with_ephemeral_words(256)
            .with_fault(faults),
        samplesort_pool_words(n),
    );

    let sorter = SampleSort::new(&machine, n);
    let input: Vec<u64> = (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF;
            x % 1_000_000
        })
        .collect();
    sorter.load_input(&machine, &input);

    println!("sorting {n} keys on 4 processors; 3 will hard-fault mid-run...");
    let rt = Runtime::new(machine, SchedConfig::with_slots(1 << 14));
    let report = rt.run_or_recover(&sorter.pcomp());

    let mut expected = input.clone();
    expected.sort_unstable();
    let got = sorter.read_output(rt.machine());

    assert!(report.completed(), "the sort must complete");
    assert_eq!(got, expected, "and be correct");

    println!("\ncompleted     : {}", report.completed());
    println!(
        "dead procs    : {} of {}",
        report.dead_procs(),
        rt.machine().procs()
    );
    println!("outcome/proc  : {:?}", report.run_report().outcomes);
    println!("soft faults   : {}", report.stats().soft_faults);
    println!("hard faults   : {}", report.stats().hard_faults);
    println!("total work    : {} transfers", report.stats().total_work());
    println!("wall time     : {:?}", report.elapsed());
    println!("\nsorted correctly with one surviving processor.");
}
