//! E11 — Figure 4: the entry state transition table, observed empirically.
//!
//! Installs a persistent-memory write observer over the scheduler's deque
//! regions, runs a faulty parallel computation (soft faults plus one hard
//! fault), and prints the observed transition matrix in the paper's
//! row/column layout. Every observed transition must be a ✓ cell of
//! Figure 4; `Taken` must be terminal.
//!
//! The table is only evidence if the run exercised it, so the run is
//! driven by [`SimSched::run_seeded`]: one capsule at a time on a
//! seed-chosen processor, which makes "a thief wins a `Job -> Taken`
//! steal" a property of the seed instead of a favour of the OS scheduler
//! — on any host, at any core count.

use std::sync::{Arc, Mutex};

use ppm_bench::{banner, fanout, BenchReport};
use ppm_core::Machine;
use ppm_pm::{FaultConfig, PmConfig};
use ppm_sched::{kind_of, EntryKind, SchedConfig, SimSched};

fn kind_index(k: EntryKind) -> usize {
    match k {
        EntryKind::Empty => 0,
        EntryKind::Local => 1,
        EntryKind::Job => 2,
        EntryKind::Taken => 3,
    }
}

/// The schedule's seed.
const SEED: u64 = 4;
/// Capsule-steps the schedule may take.
const MAX_STEPS: usize = 1 << 20;

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    banner(
        "E11 (Figure 4)",
        "WS-deque entry state transitions",
        "entries move only along: Empty->Local; Local->Empty/Job/Taken; Job->Local/Taken",
    );

    let machine = Machine::new(
        PmConfig::parallel(cli.procs(4), 1 << 22)
            .with_fault(FaultConfig::soft(0.01, 4).with_scheduled_hard_fault(2, 900)),
    );
    let n = cli.n(160);
    let r = machine.alloc_region(n);

    // Seat the computation first so the deque regions are known, then
    // attach the counting observer, then run the schedule.
    let cfg = SchedConfig::with_slots(1 << 12);
    let mut sim = SimSched::new_persistent(&machine, &fanout(r, n, 1), &cfg);
    let ranges: Vec<(usize, usize)> = sim
        .sched()
        .deques()
        .iter()
        .map(|d| (d.stack.start, d.stack.end()))
        .collect();
    let matrix = Arc::new(Mutex::new([[0u64; 4]; 4]));
    {
        let matrix = matrix.clone();
        machine
            .mem()
            .set_observer(Some(Arc::new(move |addr, prev, new| {
                if ranges.iter().any(|(s, e)| addr >= *s && addr < *e) {
                    matrix.lock().unwrap()[kind_index(kind_of(prev))][kind_index(kind_of(new))] +=
                        1;
                }
            })));
    }
    sim.run_seeded(SEED, MAX_STEPS);
    machine.mem().set_observer(None);
    let steps = sim.finish().steps;
    for i in 0..n {
        assert_eq!(machine.mem().load(r.at(i)), 1, "task {i}");
    }
    let soft_faults = machine.snapshot().soft_faults;

    let m = matrix.lock().unwrap();
    let names = ["Empty", "Local", "Job", "Taken"];
    assert!(
        m[2][3] >= 1,
        "seed {SEED} schedules no Job -> Taken steal: the experiment observed nothing"
    );
    println!(
        "run: P=4, f=0.01 soft + proc 2 hard-faulted; {soft_faults} soft faults in {steps} \
         scheduled steps (seed {SEED}), {} steals-ish\n",
        m[2][3]
    );
    println!("observed transitions (rows: old state, columns: new state):\n");
    print!("{:>18}", "");
    for t in names {
        print!("{t:>9}");
    }
    println!();
    for (i, from) in names.iter().enumerate() {
        print!("{:>10} {from:>7}", if i == 1 { "Old State" } else { "" });
        for j in 0..4 {
            if i == j {
                // Same-kind rewrites are tag refreshes (e.g. line 56
                // clearing an already-empty slot), not state transitions.
                print!("{:>9}", format!("({})", m[i][j]));
            } else {
                print!("{:>9}", m[i][j]);
            }
        }
        println!();
    }

    let mut illegal = 0u64;
    for i in 0..4 {
        for j in 0..4 {
            let from = EntryKind::from_bits(i as u64);
            let to = EntryKind::from_bits(j as u64);
            if i != j && m[i][j] > 0 && !from.can_transition_to(to) {
                illegal += m[i][j];
                println!("ILLEGAL: {from:?} -> {to:?} x{}", m[i][j]);
            }
        }
    }
    println!("\nillegal off-diagonal transitions observed: {illegal}");
    assert_eq!(illegal, 0, "Figure 4 must hold");
    let mut report = BenchReport::new("exp_fig4_transitions");
    report
        .metric("illegal_transitions", illegal as f64)
        .note("observed_steals", m[2][3])
        .note("steps", steps);
    report.embed_obs(machine.obs().registry());
    report.emit();
    println!("matches Figure 4: Empty->Local, Local->{{Empty,Job,Taken}}, Job->{{Local,Taken}},");
    println!("and Taken is terminal. Parenthesized diagonals are tag-only refreshes.");
}
