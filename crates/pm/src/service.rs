//! Service-mode persistent state: the durable injector-queue header and
//! the ring-slot state word.
//!
//! Every cluster file (`ppm-sched`'s `cluster::ClusterBuilder`) feeds its
//! worker shards through a durable MPMC **injector ring** in the
//! ordinary persistent word array: a batch run publishes one job per
//! shard and closes admission, a service run keeps submitting. The
//! [`ServiceHeader`] lives in the control page beside the lease table
//! ([`crate::control`] holds the layout and the codec), records where
//! the ring and its per-slot frame workspaces sit — so any attaching
//! process finds the queue from the machine file alone — and says
//! whether admission is open.
//!
//! ## The slot state word
//!
//! Each ring slot's first control word encodes the slot's lifecycle
//! phase, a 16-bit *claim epoch*, and the claimant processor:
//!
//! ```text
//!   bits 61..64  phase (EMPTY → STAGING → PUBLISHED → CLAIMED →
//!                RUNNING → DONE → EMPTY)
//!   bits 32..48  claim epoch (bumped by every re-claim/reclaim, so every
//!                transition CAM has a distinct expected value — the
//!                ABA guard of the claim protocol)
//!   bits  0..32  claimant processor (meaningful in CLAIMED/RUNNING)
//! ```
//!
//! A zero word is `⟨EMPTY, epoch 0⟩`, matching the zero-initialized
//! word array, so a fresh ring needs no formatting pass.

use crate::control::fnv1a;
use crate::word::Word;

/// Control words per injector-ring slot: `state, ticket, entry,
/// checksum` (checksum covers ticket and entry — the persist half of the
/// two-phase submit, verified by pullers before the claim CAM).
pub const SLOT_CTL_WORDS: usize = 4;

/// Words of the injector ring for `slots` slots: one ticket-counter word
/// plus the per-slot control words.
pub const fn ring_words(slots: usize) -> usize {
    1 + slots * SLOT_CTL_WORDS
}

// ====================================================================
// Slot state word
// ====================================================================

/// Lifecycle phase of an injector-ring slot (bits 61..64 of its state
/// word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SlotPhase {
    /// Free for a submitter to stage into.
    Empty = 0,
    /// A submitter won the slot and is writing the job (invisible to
    /// pullers; reclaimed only by quiescent service recovery if the
    /// submitter crashes mid-write).
    Staging = 1,
    /// Fully persisted and visible: pullers may claim.
    Published = 2,
    /// A puller's claim CAM won; the claimant installs the entry frame
    /// next. Rescuable (republished at epoch + 1) if the claimant dies
    /// before reaching `Running`.
    Claimed = 3,
    /// The claimant's entry chain started the job. Completion flows
    /// through the job's done frame; a dead claimant's chain is adopted
    /// through the ordinary Figure 3 steal protocol.
    Running = 4,
    /// The job completed exactly-once (the done frame's CAM). Awaiting
    /// the submitter's reclaim back to `Empty`.
    Done = 5,
}

impl SlotPhase {
    /// Decodes a phase code; `None` for the two unused encodings.
    pub fn from_code(code: u64) -> Option<SlotPhase> {
        match code {
            0 => Some(SlotPhase::Empty),
            1 => Some(SlotPhase::Staging),
            2 => Some(SlotPhase::Published),
            3 => Some(SlotPhase::Claimed),
            4 => Some(SlotPhase::Running),
            5 => Some(SlotPhase::Done),
            _ => None,
        }
    }
}

/// Packs a slot state word from phase, claim epoch, and claimant.
pub fn slot_state(phase: SlotPhase, epoch: u64, claimant: usize) -> Word {
    ((phase as u64) << 61) | ((epoch & 0xFFFF) << 32) | (claimant as u64 & 0xFFFF_FFFF)
}

/// The phase of a slot state word (`None` for corrupt codes).
pub fn slot_phase(w: Word) -> Option<SlotPhase> {
    SlotPhase::from_code(w >> 61)
}

/// The claim epoch of a slot state word.
pub fn slot_epoch(w: Word) -> u64 {
    (w >> 32) & 0xFFFF
}

/// The claimant processor of a slot state word.
pub fn slot_claimant(w: Word) -> usize {
    (w & 0xFFFF_FFFF) as usize
}

/// The checksum word guarding a slot's `(ticket, entry)` pair — the
/// persist half of the two-phase submit.
pub fn slot_checksum(ticket: Word, entry: Word) -> Word {
    fnv1a(&[ticket, entry])
}

// ====================================================================
// Service header
// ====================================================================

/// Accept-state of the service (the header's state word; written only by
/// the coordinator/service handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum ServiceState {
    /// Accepting submissions.
    Accepting = 1,
    /// Draining: no new submissions; in-flight jobs run to completion,
    /// and a drained ring completes the cluster.
    Draining = 2,
    /// Stopped: workers should exit once their deques empty.
    Stopped = 3,
}

impl ServiceState {
    pub(crate) fn from_word(w: u64) -> Option<ServiceState> {
        match w {
            1 => Some(ServiceState::Accepting),
            2 => Some(ServiceState::Draining),
            3 => Some(ServiceState::Stopped),
            _ => None,
        }
    }
}

/// The once-written description of a service run: where the injector
/// ring and the per-slot frame workspaces live in the word array, plus
/// the service's accept state. Presence of a valid header is what marks
/// a cluster file as a *service* — attaching workers switch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHeader {
    /// Accept-state of the service.
    pub state: ServiceState,
    /// Ring slots (concurrent in-flight job bound).
    pub slots: u64,
    /// Words per per-slot frame workspace (submitters build job frames
    /// there with slot-exclusive ownership).
    pub job_words: u64,
    /// Word address of the ring (ticket counter + slot control words).
    pub ring_base: u64,
    /// Word address of the first slot workspace.
    pub workspace_base: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_round_trips() {
        for phase in [
            SlotPhase::Empty,
            SlotPhase::Staging,
            SlotPhase::Published,
            SlotPhase::Claimed,
            SlotPhase::Running,
            SlotPhase::Done,
        ] {
            let w = slot_state(phase, 0x1234, 7);
            assert_eq!(slot_phase(w), Some(phase));
            assert_eq!(slot_epoch(w), 0x1234);
            assert_eq!(slot_claimant(w), 7);
        }
        // The zero word is a pristine EMPTY slot.
        assert_eq!(slot_phase(0), Some(SlotPhase::Empty));
        assert_eq!(slot_epoch(0), 0);
    }

    #[test]
    fn distinct_claimants_give_distinct_claim_words() {
        // The claim protocol's no-identical-CAM property: two pullers
        // racing for the same PUBLISHED slot propose different words.
        let a = slot_state(SlotPhase::Claimed, 3, 1);
        let b = slot_state(SlotPhase::Claimed, 3, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn slot_checksum_detects_torn_pairs() {
        let c = slot_checksum(7, 4096);
        assert_ne!(c, slot_checksum(8, 4096));
        assert_ne!(c, slot_checksum(7, 4097));
    }
}
