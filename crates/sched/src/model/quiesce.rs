//! The checkpoint quiesce/skip-and-retry barrier as a checkable state
//! machine.
//!
//! Mirrors the `checkpoint` module's protocol: processors run capsules
//! and visit persist boundaries; once a checkpoint is requested, each
//! processor parks at its next boundary; the last arriver runs the
//! checkpoint. The checkpoint harvests the frontier and **skips the
//! epoch** (rearming a retry) when any deque transfer is still in
//! flight — a steal caught between its CAM and its check, or a
//! `pushBottom` between its commit arms — because a frame in transfer is
//! referenced by no harvestable frontier entry, and tracing would miss
//! it. Only after a clean harvest does the checkpoint roll the pool
//! watermarks, which is what garbage-collects dead frames.
//!
//! The model gives each processor one live frame and a two-phase
//! operation (`StartOp`/`EndOp`) that detaches the frame into an
//! in-flight limbo between boundaries — the abstraction of a frame
//! handle riding a `Taken` entry or an uncommitted fork transfer.
//!
//! Invariant (mirrored by the `GCSafety` property sketched alongside the
//! TLA+ lease spec):
//!
//! * **NoLiveFrameReclaim** — watermark-rolling GC never reclaims a
//!   frame that a processor still dereferences after the checkpoint.
//!   The [`QuiesceModel::skip_busy_check`] mutation lets the checkpoint
//!   proceed over an in-flight transfer, and the explorer produces the
//!   minimal trace: start an op, park everyone, checkpoint, finish the
//!   op into a reclaimed frame.

use ppm_check::Model;

/// Processors in the model.
pub const NPROCS: usize = 2;
/// Capsule-boundary visits each processor makes before exiting.
pub const BUDGET: u8 = 3;

/// Where a processor's frame currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Frame {
    /// Referenced from the processor's frontier entry — harvestable.
    Live,
    /// Detached mid-transfer (riding a steal/fork window) — referenced
    /// by no frontier entry until the op completes.
    InFlight,
    /// Reclaimed by a checkpoint's watermark roll.
    Reclaimed,
}

/// One processor's state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcSt {
    /// Remaining boundary visits before this processor exits.
    pub budget: u8,
    /// Parked at the quiesce barrier.
    pub parked: bool,
    /// Exited (left the barrier's live set).
    pub exited: bool,
    /// The processor's frame.
    pub frame: Frame,
    /// The processor dereferenced its frame after it was reclaimed —
    /// the disaster `NoLiveFrameReclaim` rules out.
    pub used_reclaimed: bool,
}

/// The global protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QuiesceSt {
    /// Per-processor states.
    pub procs: [ProcSt; NPROCS],
    /// A checkpoint has been requested (due policy or manual trigger).
    pub requested: bool,
    /// Checkpoints completed (for bounding).
    pub epochs: u8,
    /// Checkpoints skipped busy (skip-and-retry path taken).
    pub skipped: u8,
}

/// One protocol transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuiesceAction {
    /// Processor `p` detaches its frame into a transfer window.
    StartOp(u8),
    /// Processor `p` completes the transfer, re-attaching its frame.
    EndOp(u8),
    /// Processor `p` reaches a persist boundary: parks if a checkpoint
    /// is requested, otherwise burns one budget step (exiting at zero).
    Boundary(u8),
    /// The checkpoint policy comes due.
    Request,
    /// The last arriver runs the checkpoint over the quiesced machine:
    /// harvest, skip-if-busy (or not, under mutation), trace, roll
    /// watermarks (reclaiming untraced frames), unpark everyone.
    RunCheckpoint,
}

/// The model: faithful by default; the mutation removes the busy check.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuiesceModel {
    /// Mutation: run the watermark roll even when a transfer is in
    /// flight, instead of skipping the epoch and rearming a retry.
    pub skip_busy_check: bool,
}

impl QuiesceModel {
    /// The mutated protocol (for counterexample demonstrations).
    pub fn mutated() -> Self {
        QuiesceModel {
            skip_busy_check: true,
        }
    }

    fn all_parked(s: &QuiesceSt) -> bool {
        s.procs.iter().all(|p| p.parked || p.exited) && s.procs.iter().any(|p| p.parked)
    }
}

impl Model for QuiesceModel {
    type State = QuiesceSt;
    type Action = QuiesceAction;

    fn initial(&self) -> Vec<QuiesceSt> {
        vec![QuiesceSt {
            procs: [ProcSt {
                budget: BUDGET,
                parked: false,
                exited: false,
                frame: Frame::Live,
                used_reclaimed: false,
            }; NPROCS],
            requested: false,
            epochs: 0,
            skipped: 0,
        }]
    }

    fn actions(&self, s: &QuiesceSt) -> Vec<QuiesceAction> {
        let mut acts = Vec::new();
        for i in 0..NPROCS as u8 {
            let p = &s.procs[i as usize];
            if p.exited || p.parked {
                continue;
            }
            acts.push(QuiesceAction::Boundary(i));
            match p.frame {
                Frame::Live => acts.push(QuiesceAction::StartOp(i)),
                // EndOp stays enabled on a Reclaimed frame: the transfer
                // completes regardless — that is exactly the disaster.
                Frame::InFlight | Frame::Reclaimed => acts.push(QuiesceAction::EndOp(i)),
            }
        }
        if !s.requested && s.epochs + s.skipped < 2 {
            acts.push(QuiesceAction::Request);
        }
        if s.requested && Self::all_parked(s) {
            acts.push(QuiesceAction::RunCheckpoint);
        }
        acts
    }

    fn step(&self, s: &QuiesceSt, a: &QuiesceAction) -> QuiesceSt {
        let mut n = *s;
        match *a {
            QuiesceAction::StartOp(i) => n.procs[i as usize].frame = Frame::InFlight,
            QuiesceAction::EndOp(i) => {
                let p = &mut n.procs[i as usize];
                if p.frame == Frame::Reclaimed {
                    // The op completes into a frame GC already took.
                    p.used_reclaimed = true;
                }
                p.frame = Frame::Live;
            }
            QuiesceAction::Boundary(i) => {
                let p = &mut n.procs[i as usize];
                if s.requested {
                    p.parked = true;
                } else if p.budget == 1 {
                    p.budget = 0;
                    p.exited = true;
                } else {
                    p.budget -= 1;
                }
            }
            QuiesceAction::Request => n.requested = true,
            QuiesceAction::RunCheckpoint => {
                let busy = s.procs.iter().any(|p| p.frame == Frame::InFlight);
                if busy && !self.skip_busy_check {
                    // The frontier capture failed: skip the epoch, rearm.
                    n.skipped += 1;
                } else {
                    // Trace reaches every Live frame; the watermark roll
                    // reclaims everything else — including any InFlight
                    // frame if the busy check was skipped.
                    for p in n.procs.iter_mut() {
                        if p.frame == Frame::InFlight {
                            p.frame = Frame::Reclaimed;
                        }
                    }
                    n.epochs += 1;
                }
                n.requested = false;
                for p in n.procs.iter_mut() {
                    p.parked = false;
                }
            }
        }
        n
    }

    fn invariant(&self, s: &QuiesceSt) -> Result<(), String> {
        for (i, p) in s.procs.iter().enumerate() {
            if p.used_reclaimed {
                return Err(format!(
                    "NoLiveFrameReclaim: processor {i} completed a transfer into a frame \
                     the checkpoint GC had reclaimed"
                ));
            }
        }
        Ok(())
    }

    fn on_terminal(&self, s: &QuiesceSt) -> Result<(), String> {
        // Terminal only when everyone exited (parked processors always
        // have RunCheckpoint ahead); a requested checkpoint with no live
        // processor left is simply dropped, as in the real ctl.
        if s.procs.iter().any(|p| !p.exited) && !s.requested {
            return Err("quiesce barrier wedged with live processors".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_check::{Explorer, ExplorerConfig};

    #[test]
    fn faithful_barrier_is_clean_and_exhaustible() {
        let report = Explorer::new(ExplorerConfig::depth(30)).run(&QuiesceModel::default());
        assert!(
            report.violation.is_none(),
            "unexpected violation:\n{}",
            report.violation.unwrap().render()
        );
        assert!(!report.truncated, "bounded model should be exhaustible");
        assert!(report.states > 100, "explored {} states", report.states);
    }

    #[test]
    fn skipping_the_busy_check_reclaims_a_live_frame() {
        let report = Explorer::new(ExplorerConfig::depth(30)).run(&QuiesceModel::mutated());
        let cex = report.violation.expect("mutation must be caught");
        assert!(
            cex.reason.contains("NoLiveFrameReclaim"),
            "unexpected reason: {}",
            cex.reason
        );
        // Minimal: StartOp, Request, park both, checkpoint, EndOp.
        assert!(cex.trace.len() <= 7, "trace: {:?}", cex.trace);
    }
}
