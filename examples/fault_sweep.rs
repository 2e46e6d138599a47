//! The cost of fault tolerance: total work `W_f` versus fault rate `f`.
//!
//! Runs the same prefix-sum computation (§7, Theorem 7.1) at increasing
//! soft-fault probabilities and prints how the total work and restart
//! counts grow. Theorem 6.2 predicts the work term grows like
//! `W / (1 − C·f)` — a mild constant factor while `f ≤ 1/(2C)`.
//!
//! ```sh
//! cargo run --release --example fault_sweep
//! ```

use ppm::algs::{prefix_sum_seq, PrefixSum};
use ppm::core::Machine;
use ppm::pm::{FaultConfig, PmConfig};
use ppm::sched::{Runtime, SchedConfig};

fn main() {
    let n = 1 << 12;
    let input: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
    let expected = prefix_sum_seq(&input);

    println!("prefix sum, n = {n}, P = 2, sweeping soft-fault probability f\n");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12} {:>8}",
        "f", "W_f", "faults", "restarts", "C (max)", "W_f/W_0"
    );

    let mut w0 = 0u64;
    for (i, f) in [0.0, 0.001, 0.005, 0.01, 0.02, 0.05].iter().enumerate() {
        let cfg = if *f == 0.0 {
            FaultConfig::none()
        } else {
            FaultConfig::soft(*f, 42)
        };
        let machine = Machine::new(PmConfig::parallel(2, 1 << 22).with_fault(cfg));
        let ps = PrefixSum::new(&machine, n);
        ps.load_input(&machine, &input);
        let rt = Runtime::new(machine, SchedConfig::with_slots(1 << 13));
        let report = rt.run_or_recover(&ps.pcomp());
        assert!(report.completed());
        assert_eq!(ps.read_output(rt.machine()), expected, "f = {f}");

        let s = report.stats();
        if i == 0 {
            w0 = s.total_work();
        }
        println!(
            "{:>8} {:>12} {:>10} {:>10} {:>12} {:>8.3}",
            f,
            s.total_work(),
            s.soft_faults,
            s.capsule_restarts(),
            s.max_capsule_work,
            s.total_work() as f64 / w0 as f64,
        );
    }

    println!("\nevery run produced identical, correct output; the overhead of");
    println!("fault tolerance is the W_f/W_0 column — a small constant factor,");
    println!("exactly the O(t) expected-work shape of Theorems 3.2/6.2.");
}
