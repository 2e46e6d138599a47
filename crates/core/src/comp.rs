//! Composable fork-join computations in continuation-passing style.
//!
//! Writing algorithms directly as capsule graphs is verbose: every capsule
//! must carry its continuation, forks must allocate join cells, and joins
//! must follow the two-capsule CAM/check protocol. This module provides the
//! paper's §4 programming methodology as combinators.
//!
//! A [`Comp`] is a computation awaiting its continuation: a function from
//! "what to run afterwards" (a [`Cont`]) to the computation's entry capsule.
//! Combinators compose them:
//!
//! * [`comp_step`] — one capsule running a body (a "persistent call" whose
//!   boundaries are capsule boundaries);
//! * [`comp_seq`] / [`seq_all`] — sequential composition;
//! * [`comp_fork2`] / [`par_all`] — parallel composition: fork the right
//!   branch, run the left, join with the §5 CAM test-and-set protocol;
//! * [`comp_dyn`] — dynamic expansion: a capsule that *computes* the rest
//!   of the computation at run time, which is how recursive
//!   divide-and-conquer algorithms unfold without materializing their whole
//!   task tree up front.
//!
//! All combinators produce capsules that are write-after-read conflict free
//! by construction provided the user bodies are (checked dynamically in
//! strict mode).
//!
//! ## What the closure machine is for
//!
//! A [`Comp`] is made of process-local Rust closures: it is the *model's*
//! machine — the form the paper specifies the Figure 3 scheduler over —
//! and it dies with its process. It is the reference the scheduler
//! protocol tests (Figure 3 correctness, Figure 4 transitions,
//! Theorem 6.2), `SimSched::new_closure` scripts and the ABP baseline run
//! ad-hoc DAGs on, always as fresh in-process runs
//! (`ppm_sched::run_closure`). Nothing durable is built from it: the §7
//! algorithms and every session (`ppm_sched::Runtime`) use the registered
//! persistent capsules of [`crate::dsl`], which checkpoint, resume and
//! steal across processes; a `Runtime` does not accept a `Comp`.

use std::sync::Arc;

use ppm_pm::{PmResult, ProcCtx};

use crate::capsule::{capsule, Cont, Next};
use crate::join::{JoinCell, TOKEN_LEFT, TOKEN_RIGHT};

/// A computation awaiting its continuation.
pub type Comp = Arc<dyn Fn(Cont) -> Cont + Send + Sync>;

/// The empty computation: immediately continues.
pub fn comp_nop() -> Comp {
    Arc::new(|k| k)
}

/// A single capsule running `body`, then continuing. `body` must be
/// idempotent under re-runs (write-after-read conflict free).
pub fn comp_step<F>(name: &'static str, body: F) -> Comp
where
    F: Fn(&mut ProcCtx) -> PmResult<()> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    Arc::new(move |k: Cont| {
        let body = body.clone();
        capsule(name, move |ctx| {
            body(ctx)?;
            Ok(Next::Jump(k.clone()))
        })
    })
}

/// Sequential composition: `a` then `b`.
pub fn comp_seq(a: Comp, b: Comp) -> Comp {
    Arc::new(move |k| a(b(k)))
}

/// Sequential composition of many computations, in order.
pub fn seq_all(comps: Vec<Comp>) -> Comp {
    comps
        .into_iter()
        .rev()
        .fold(comp_nop(), |acc, c| comp_seq(c, acc))
}

/// Parallel composition: forks `right` as a new thread, runs `left` on the
/// current thread, and joins. Whichever branch finishes last continues;
/// the other thread ends and its processor returns to the scheduler.
///
/// The fork capsule allocates the join cell from the executing processor's
/// pool (restart-stable) and initializes it with a first-access write, then
/// returns [`Next::Fork`]; the engine registers the child closure and the
/// scheduler pushes it (§6.1).
pub fn comp_fork2(left: Comp, right: Comp) -> Comp {
    Arc::new(move |k: Cont| {
        let left = left.clone();
        let right = right.clone();
        capsule("fork2", move |ctx| {
            let cell = JoinCell::init(ctx)?;
            let lchain = left(cell.arrive(TOKEN_LEFT, k.clone()));
            let rchain = right(cell.arrive(TOKEN_RIGHT, k.clone()));
            Ok(Next::Fork {
                child: rchain,
                cont: lchain,
            })
        })
    })
}

/// Parallel composition of many computations as a balanced binary fork
/// tree (the model's DAG nodes have out-degree at most two).
pub fn par_all(mut comps: Vec<Comp>) -> Comp {
    match comps.len() {
        0 => comp_nop(),
        1 => comps.pop().expect("len checked"),
        _ => {
            let mid = comps.len() / 2;
            let right = comps.split_off(mid);
            comp_fork2(par_all(comps), par_all(right))
        }
    }
}

/// Dynamic expansion: a capsule whose body computes the remaining
/// computation. `f` runs at capsule granularity — it may read persistent
/// memory (costed) and must be deterministic and conflict free, since a
/// restart re-evaluates it.
pub fn comp_dyn<F>(name: &'static str, f: F) -> Comp
where
    F: Fn(&mut ProcCtx) -> PmResult<Comp> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    Arc::new(move |k: Cont| {
        let f = f.clone();
        let k = k.clone();
        capsule(name, move |ctx| {
            let rest = f(ctx)?;
            Ok(Next::Jump(rest(k.clone())))
        })
    })
}

/// Builds the root capsule of a computation whose final act is running
/// `finale` (typically setting a completion flag).
pub fn root(comp: &Comp, finale: Cont) -> Cont {
    comp(finale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::final_capsule;
    use crate::machine::Machine;
    use crate::runner::{run_chain, InstallCtx};
    use ppm_pm::{FaultConfig, PmConfig, Region};

    fn machine() -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16))
    }

    fn run(m: &Machine, comp: Comp, done: Region) {
        let finale = final_capsule("finale", move |ctx| ctx.pwrite(done.at(0), 1));
        let rootc = root(&comp, finale);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, rootc).unwrap();
        assert_eq!(m.mem().load(done.at(0)), 1, "finale must run");
    }

    #[test]
    fn seq_runs_in_order() {
        let m = machine();
        let r = m.alloc_region(8);
        let done = m.alloc_region(8);
        // Each step writes its sequence number into the next word; order is
        // observable because step i reads nothing and writes slot i.
        let steps: Vec<Comp> = (0..4)
            .map(|i| {
                comp_step("s", move |ctx: &mut ProcCtx| {
                    // Record arrival order: count previously-filled slots.
                    let mut order = 0;
                    for j in 0..4 {
                        if ctx.raw_mem().load(r.at(j)) != 0 {
                            order += 1;
                        }
                    }
                    ctx.pwrite(r.at(i), order + 1)
                })
            })
            .collect();
        run(&m, seq_all(steps), done);
        assert_eq!(m.mem().to_vec(r.start, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn comp_nop_continues() {
        let m = machine();
        let done = m.alloc_region(8);
        run(&m, comp_nop(), done);
    }

    #[test]
    fn comp_dyn_expands_at_runtime() {
        let m = machine();
        let r = m.alloc_region(8);
        let done = m.alloc_region(8);
        // Recursive countdown via dynamic expansion.
        fn countdown(r: Region, n: u64) -> Comp {
            comp_dyn("countdown", move |_ctx| {
                if n == 0 {
                    Ok(comp_nop())
                } else {
                    Ok(comp_seq(
                        comp_step("mark", move |ctx: &mut ProcCtx| {
                            ctx.pwrite(r.at(n as usize), n)
                        }),
                        countdown(r, n - 1),
                    ))
                }
            })
        }
        run(&m, countdown(r, 5), done);
        for i in 1..=5 {
            assert_eq!(m.mem().load(r.at(i)), i as u64);
        }
    }

    #[test]
    fn seq_under_soft_faults_runs_each_step_effectively_once() {
        for seed in 0..10 {
            let m = Machine::new(
                PmConfig::parallel(1, 1 << 16).with_fault(FaultConfig::soft(0.15, seed)),
            );
            let r = m.alloc_region(8);
            let done = m.alloc_region(8);
            // Persistent counter with a commit between read and write:
            // capsule i reads slot i-1 and writes slot i (conflict free).
            let steps: Vec<Comp> = (0..5)
                .map(|i| {
                    comp_step("inc", move |ctx: &mut ProcCtx| {
                        let prev = if i == 0 { 0 } else { ctx.pread(r.at(i - 1))? };
                        ctx.pwrite(r.at(i), prev + 1)
                    })
                })
                .collect();
            run(&m, seq_all(steps), done);
            assert_eq!(
                m.mem().load(r.at(4)),
                5,
                "seed {seed}: chained increments must each apply exactly once"
            );
        }
    }
}
