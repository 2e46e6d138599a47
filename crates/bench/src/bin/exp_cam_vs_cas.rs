//! E12 — §5: CAS is unsafe under faults; CAM with a capsule-boundary
//! check is safe.
//!
//! The paper: "a CAS writes two locations ... the processor could fault
//! immediately before or after the CAS instruction. On restart the local
//! register is lost ... Looking at the shared location does not help."
//!
//! The experiment runs many test-and-set trials under soft faults:
//!
//! * **CAS protocol** (broken): one capsule does `won = CAS(x, 0, 1)` and,
//!   if `won`, records the claim. A fault between the CAS and the record
//!   loses the local result — on re-run the CAS fails (the location is
//!   already 1) and the claim is never recorded: the win is *lost*.
//! * **CAM protocol** (the paper's fix): capsule 1 CAMs `x: 0 → id`;
//!   capsule 2 *reads* `x` and claims iff it holds `id`. Success is
//!   observed from persistent memory, so restarts are harmless.

use ppm_bench::{banner, f2, header, row, s, BenchReport};
use ppm_core::dsl::{CapsuleSet, Step, K};
use ppm_core::{run_chain, InstallCtx, Machine};
use ppm_pm::{FaultConfig, PmConfig};

/// Default trials per configuration (override with `--trials=`).
const TRIALS: usize = 400;
const W: [usize; 5] = [9, 7, 9, 7, 11];

/// Runs `trials` single-contender test-and-set trials; returns
/// (claims recorded, wins actually taken, final metrics scrape).
fn run_protocol(trials: usize, f: f64, seed: u64, use_cas: bool) -> (u64, u64, String) {
    let machine = Machine::new(PmConfig::parallel(1, 1 << 20).with_fault(if f == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::soft(f, seed)
    }));
    let slots = machine.alloc_region(2 * trials);
    let mut set = CapsuleSet::new(&machine);
    // One capsule: CAS then act on its (ephemeral!) result.
    let cas = set.define("cas-protocol", |&(x, claim): &(usize, usize), _, ctx| {
        let won = ctx.pcas_baseline(x, 0, 1)?;
        if won {
            ctx.pwrite(claim, 1)?;
        }
        Ok(Step::End)
    });
    // CAM capsule, then a separate check capsule.
    let check = set.define("cam-check", |&(x, claim): &(usize, usize), _, ctx| {
        if ctx.pread(x)? == 1 {
            ctx.pwrite(claim, 1)?;
        }
        Ok(Step::End)
    });
    let cam = set.define("cam-protocol", |&x: &usize, check, ctx| {
        ctx.pcam(x, 0, 1)?;
        Ok(Step::Jump(check))
    });
    let mut ctx = machine.ctx(0);
    let mut install = InstallCtx::new(machine.mem(), machine.proc_meta(0));

    for t in 0..trials {
        let x = slots.at(2 * t);
        let claim = slots.at(2 * t + 1);
        let chain = if use_cas {
            cas.setup(&machine, &(x, claim), K(0))
        } else {
            let k = check.setup(&machine, &(x, claim), K(0));
            cam.setup(&machine, &x, k)
        };
        run_chain(&mut ctx, machine.arena(), &mut install, chain.word())
            .expect("soft-only config cannot kill the processor");
    }

    let mut claims = 0;
    let mut wins = 0;
    for t in 0..trials {
        wins += machine.mem().load(slots.at(2 * t));
        claims += machine.mem().load(slots.at(2 * t + 1));
    }
    let scrape = machine.obs().registry().render();
    (claims, wins, scrape)
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    let trials = cli.trials(TRIALS);
    let seed = cli.seed(1234);
    banner(
        "E12 (§5)",
        "CAS vs CAM under soft faults",
        "a faulting capsule cannot use a CAS result; CAM + read-in-next-capsule is safe",
    );
    header(&["protocol", "f", "wins", "claims", "lost wins"], &W);

    let mut report = BenchReport::new("exp_cam_vs_cas");
    report.note("trials", trials);
    let mut last_scrape = String::new();
    for f in [0.0, 0.01, 0.05, 0.1, 0.2] {
        for use_cas in [true, false] {
            let (claims, wins, scrape) = run_protocol(trials, f, seed, use_cas);
            last_scrape = scrape;
            if f == 0.2 {
                let key = if use_cas {
                    "cas_lost_wins"
                } else {
                    "cam_lost_wins"
                };
                report.metric(key, (wins - claims) as f64);
            }
            assert_eq!(wins, trials as u64, "the location always gets set");
            row(
                &[
                    s(if use_cas { "CAS" } else { "CAM" }),
                    s(f),
                    s(wins),
                    s(claims),
                    format!(
                        "{} ({}%)",
                        wins - claims,
                        f2(100.0 * (wins - claims) as f64 / wins as f64)
                    ),
                ],
                &W,
            );
            if !use_cas {
                assert_eq!(claims, wins, "CAM must never lose a win (f = {f})");
            }
        }
    }

    report.embed_scrape(&last_scrape);
    report.emit();

    println!("\nshape check: the CAS protocol silently drops wins at a rate that");
    println!("grows with f (the fault window between the CAS and using its result);");
    println!("the CAM protocol loses none at any fault rate — §5's claim, observed.");
}
