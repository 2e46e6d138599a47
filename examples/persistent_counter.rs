//! The §4 persistent-counter idiom, and why the naive version breaks.
//!
//! "Persistent counters can be implemented by placing a commit between
//! reading the old value and writing the new." This example runs both the
//! broken in-place counter (read x, write x+1 in one capsule — a
//! write-after-read conflict) and the paper's two-cell version under the
//! same fault storm, and shows the divergence. The broken version requires
//! turning the strict validator off; with the default strict mode it
//! panics at the first conflicting access instead.
//!
//! ```sh
//! cargo run --release --example persistent_counter
//! ```

use ppm::core::dsl::{CapsuleSet, Step, K};
use ppm::core::{run_chain, InstallCtx, Machine};
use ppm::pm::{FaultConfig, PmConfig, ValidateMode};

const INCREMENTS: usize = 200;
const F: f64 = 0.1;

fn main() {
    println!("{INCREMENTS} increments under soft-fault probability f = {F}\n");

    // --- broken: in-place read-modify-write in one capsule ---------------
    let broken = {
        let m = Machine::new(
            PmConfig::parallel(1, 1 << 18)
                .with_fault(FaultConfig::soft(F, 7))
                // Strict mode would panic on the WAR conflict; record it
                // instead so we can watch the value drift.
                .with_validate(ValidateMode::Record),
        );
        let x = m.alloc_region(1).start;
        let inc = CapsuleSet::new(&m).define("naive-inc", move |_: &(), _, ctx| {
            let v = ctx.pread(x)?; // exposed read...
            ctx.pwrite(x, v + 1)?; // ...then write to the same word
            Ok(Step::End)
        });
        let inc = inc.setup(&m, &(), K(0)).word();
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        for _ in 0..INCREMENTS {
            run_chain(&mut ctx, m.arena(), &mut install, inc).unwrap();
        }
        let snap = m.snapshot();
        (m.mem().load(x), snap.soft_faults, snap.war_conflicts)
    };

    // --- the paper's fix: commit between read and write ------------------
    let fixed = {
        let m = Machine::new(PmConfig::parallel(1, 1 << 18).with_fault(FaultConfig::soft(F, 7)));
        // Two cells, alternating: capsule 2k reads cell (k-1)%2, writes
        // cell k%2. Each capsule reads one word and writes the *other* —
        // conflict free, so strict validation stays on.
        let cells = m.alloc_region(2);
        let inc = CapsuleSet::new(&m).define("inc", move |&k: &usize, _, ctx| {
            let (src, dst) = (cells.at((k + 1) % 2), cells.at(k % 2));
            let v = if k == 0 { 0 } else { ctx.pread(src)? };
            ctx.pwrite(dst, v + 1)?;
            Ok(Step::End)
        });
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        for k in 0..INCREMENTS {
            let frame = inc.setup(&m, &k, K(0)).word();
            run_chain(&mut ctx, m.arena(), &mut install, frame).unwrap();
        }
        let snap = m.snapshot();
        (
            m.mem().load(cells.at((INCREMENTS + 1) % 2)),
            snap.soft_faults,
        )
    };

    println!(
        "naive in-place counter : {} (faults: {}, WAR conflicts recorded: {})",
        broken.0, broken.1, broken.2
    );
    println!("two-cell counter       : {} (faults: {})", fixed.0, fixed.1);
    println!("\nexpected value         : {INCREMENTS}");

    assert_eq!(fixed.0 as usize, INCREMENTS, "the paper's idiom is exact");
    assert!(
        broken.0 as usize > INCREMENTS,
        "the naive counter over-counts: every fault after its write re-runs \
         the increment against its own result"
    );
    println!("\nthe naive capsule re-reads its own write after each fault and");
    println!("over-counts by ~1 per restart; the commit between read and write");
    println!("(a capsule boundary) makes each increment exactly-once. This is");
    println!("§4's persistent counter, and why strict mode bans WAR conflicts.");
}
