//! Join cells: synchronizing forked threads without a CAS.
//!
//! §5 of the paper: "a CAM can be used to implement a form of test-and-set
//! ... It can also be used at the join point of two threads in fork-join
//! parallelism to determine who got there last (the one whose CAM from
//! unset was unsuccessful) and hence needs to run the code after the join."
//!
//! A [`JoinCell`] is one persistent word, initially `UNSET` (0). Each of
//! the two arriving threads runs one capsule, the **arrival**: it CAMs the
//! cell from `UNSET` to the thread's token (1 for the left branch, 2 for
//! the right) — a non-reverting CAM, so the capsule is atomically
//! idempotent (Theorem 5.2) — then reads the cell. If the cell holds the
//! thread's own token the thread arrived *first* and ends (jumps to the
//! scheduler); otherwise it arrived last and continues with the code after
//! the join.
//!
//! The CAM and the read can share a capsule because the cell is set
//! once. A CAM's local result cannot survive a fault, so the arrival never
//! uses it; it reads the location instead (the paper's test-and-set idiom).
//! Once this arrival's own CAM has executed, the cell holds the first
//! arriver's token and can never change again, so the read is not racy and
//! every run of the capsule past its CAM reads the same word and decides
//! the same way. That covers a soft-fault restart (a re-run CAM cannot
//! change a set cell, and the read repeats) and a thief that adopts the
//! capsule after a hard fault between the CAM and the read (it re-runs
//! both). The
//! capsule's first access to the cell is the CAM, a write, so the read
//! that follows is not a write-after-read conflict (Theorem 3.1's check
//! passes). Exactly one thread continues, no matter how many soft faults
//! or which hard faults occur.
//!
//! The order is what makes it sound. An arrival that read the cell
//! *before* its CAM and ended when it saw `UNSET` would be right when
//! nothing faults, but a soft fault after its CAM re-runs the read, which
//! now sees the thread's own token, so the thread continues — and the
//! other branch, seeing that token too, continues as well: the code after
//! the join runs twice. The engine explorer (`ppm_sched::model::engine`)
//! crashes processors only at capsule boundaries, so it cannot tell the
//! two orders apart; the soft-fault tests in `tests/capsule_forms.rs` do.
//!
//! ## The last arrival frees the subtree
//!
//! A last arrival that continues with [`TOKEN_RIGHT`] asks its processor
//! to roll the pool back to the fork's mark ([`ProcCtx::join_reclaim`]):
//! when the fork was registered on this processor and nothing foreign
//! happened since, the whole subtree — the cell, both arrivals, both
//! branches and everything below them — ran here and is dead. A last
//! arrival with [`TOKEN_LEFT`] is a foreign event
//! ([`ProcCtx::note_foreign`]): the pushed branch arrived first somewhere
//! else, and that arriver may still sit between its CAM and its read of
//! the cell, or be dead there with its arrival frame as its restart
//! pointer, so no word of this fork may be handed out again before a
//! checkpoint has traced it dead.
//!
//! An arrival is one frame, `[cell, token, after]` under
//! [`CORE_ID_JOIN_CAM`], written by [`fork_join_frames`] and run on those
//! words. The decode refuses any token but 1 or 2, so an arrival that
//! could not join never runs. Id `0x02` once named a separate check
//! capsule; it stays reserved and unregistered, so a frame that names it
//! is an unknown capsule (see [`crate::registry`]).

use ppm_pm::{write_frame, Addr, PmResult, ProcCtx, Word};

use crate::capsule::Next;
use crate::persist::{FrameDecodeError, FrameDecodeKind, ValueError};
use crate::registry::{frame_args, CORE_ID_JOIN_CAM};

/// The unset value of a join cell.
pub const UNSET: Word = 0;
/// Token CAM'd by the left (continuing) branch of a fork.
pub const TOKEN_LEFT: Word = 1;
/// Token CAM'd by the right (forked child) branch.
pub const TOKEN_RIGHT: Word = 2;

/// A two-party join cell at a persistent address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCell {
    addr: Addr,
}

impl JoinCell {
    /// Allocates a cell from the processor's pool and writes `UNSET`.
    /// Restart-stable (same address and value on a capsule re-run); one
    /// external write. The write is first-access-write, so it cannot create
    /// a write-after-read conflict.
    pub fn init(ctx: &mut ProcCtx) -> PmResult<Self> {
        let addr = ctx.palloc(1)?;
        ctx.pwrite(addr, UNSET)?;
        Ok(JoinCell { addr })
    }

    /// The cell's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }
}

/// The decode of an arrival capsule: three words whose token is
/// [`TOKEN_LEFT`] or [`TOKEN_RIGHT`].
pub(crate) fn decode_arrival(args: &[Word]) -> Result<[Word; 3], FrameDecodeError> {
    let capsule = "join-cam";
    let words @ [_, token, _] = frame_args::<3>(capsule, args)?;
    match token {
        TOKEN_LEFT | TOKEN_RIGHT => Ok(words),
        word => Err(FrameDecodeError {
            capsule,
            kind: FrameDecodeKind::Value(ValueError {
                what: "join token (1 or 2)",
                word,
            }),
        }),
    }
}

/// A join arrival (the body of [`CORE_ID_JOIN_CAM`]): CAMs the cell
/// with `token`, then reads it; the first arriver ends its thread, the last
/// continues with the `after` frame. See the module docs for why the read
/// may follow the CAM in the same capsule.
pub(crate) fn arrive_cam(&[cell, token, after]: &[Word; 3], ctx: &mut ProcCtx) -> PmResult<Next> {
    ctx.pcam(cell as Addr, UNSET, token)?;
    if ctx.pread(cell as Addr)? == token {
        return Ok(Next::End);
    }
    match token {
        TOKEN_RIGHT => ctx.join_reclaim(cell as Addr),
        _ => ctx.note_foreign(),
    }
    Ok(Next::JumpHandle(after))
}

/// Initializes a join cell and writes the two arrival-CAM frames for a
/// fork whose post-join continuation is the frame `after`. Returns the
/// `(left, right)` arrival frame handles — the continuations of the
/// fork's two branches. One external write for the cell plus two frames;
/// restart-stable.
pub fn fork_join_frames(ctx: &mut ProcCtx, after: Word) -> PmResult<(Word, Word)> {
    join_frames(ctx, after).map(|(_, l, r)| (l, r))
}

/// [`fork_join_frames`] for the capsule that executes the fork it
/// allocates: the cell, its first word, becomes the fork's mark
/// ([`ProcCtx::mark_fork`]), so the join can free the subtree.
pub(crate) fn forking_join_frames(ctx: &mut ProcCtx, after: Word) -> PmResult<(Word, Word)> {
    let (cell, l, r) = join_frames(ctx, after)?;
    ctx.mark_fork(cell);
    Ok((l, r))
}

fn join_frames(ctx: &mut ProcCtx, after: Word) -> PmResult<(Addr, Word, Word)> {
    let cell = JoinCell::init(ctx)?;
    let l = write_frame(
        ctx,
        CORE_ID_JOIN_CAM,
        &[cell.addr() as Word, TOKEN_LEFT, after],
    )?;
    let r = write_frame(
        ctx,
        CORE_ID_JOIN_CAM,
        &[cell.addr() as Word, TOKEN_RIGHT, after],
    )?;
    Ok((cell.addr(), l as Word, r as Word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::registry::tests::raw_frame;
    use crate::runner::{run_chain, InstallCtx};
    use ppm_pm::{FaultConfig, PmConfig};

    fn machine(f: FaultConfig) -> Machine {
        Machine::new(PmConfig::parallel(1, 1 << 16).with_fault(f))
    }

    /// Runs both arrival chains on one fresh cell sequentially on one
    /// processor, in `order`; returns how many times the code after the
    /// join ran.
    fn run_both_arrivals(m: &Machine, order: [Word; 2]) -> u64 {
        let out = m.alloc_region(8);
        let cell = m.alloc_region(1).start as Word;
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        for token in order {
            // Each branch, if it continues past the join, writes its own
            // marker word (an idempotent, conflict-free record of "this
            // branch continued").
            let marker = out.at(token as usize) as Word;
            let after = raw_frame(m, "after", [marker], |&[at], ctx| {
                ctx.pwrite(at as Addr, 1)?;
                Ok(Next::End)
            });
            let arrival = m.setup_frame(CORE_ID_JOIN_CAM, &[cell, token, after]);
            run_chain(&mut ctx, m.arena(), &mut install, arrival).unwrap();
        }
        m.mem().load(out.at(1)) + m.mem().load(out.at(2))
    }

    #[test]
    fn exactly_one_arrival_continues_left_first() {
        let m = machine(FaultConfig::none());
        assert_eq!(run_both_arrivals(&m, [TOKEN_LEFT, TOKEN_RIGHT]), 1);
    }

    #[test]
    fn exactly_one_arrival_continues_right_first() {
        let m = machine(FaultConfig::none());
        assert_eq!(run_both_arrivals(&m, [TOKEN_RIGHT, TOKEN_LEFT]), 1);
    }

    #[test]
    fn join_survives_soft_faults() {
        for seed in 0..20 {
            let m = machine(FaultConfig::soft(0.2, seed));
            assert_eq!(
                run_both_arrivals(&m, [TOKEN_LEFT, TOKEN_RIGHT]),
                1,
                "seed {seed}: after-join code must run exactly once"
            );
        }
    }

    #[test]
    fn first_arriver_ends_thread() {
        let m = machine(FaultConfig::none());
        let marker = m.alloc_region(8).start;
        let cell = m.alloc_region(1).start;
        // Only the left branch arrives: its chain must End without running
        // the continuation.
        let after = raw_frame(&m, "after", [marker as Word], |&[at], ctx| {
            ctx.pwrite(at as Addr, 1)?;
            Ok(Next::End)
        });
        let arrival = m.setup_frame(CORE_ID_JOIN_CAM, &[cell as Word, TOKEN_LEFT, after]);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, arrival).unwrap();
        assert_eq!(m.mem().load(marker), 0, "after must not have run");
        assert_eq!(m.mem().load(cell), TOKEN_LEFT);
    }
}
