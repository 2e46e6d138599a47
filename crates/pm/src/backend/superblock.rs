//! The superblock and checkpoint-record types.
//!
//! A durable machine file opens with a [`Superblock`] describing the
//! machine stored after it: the [`crate::PmConfig`] dimensions and pool
//! sizing needed to rebuild the deterministic address-space layout, a
//! *run epoch* counting the process lifetimes that have attached to the
//! file, and a state word distinguishing a clean shutdown from a crash.
//! Where the two records sit in the file's first page, and how they are
//! encoded, checksummed and read back, is [`crate::control`]'s business
//! alone.

use crate::config::PmConfig;
use crate::control::{CKPT_MAX_PAYLOAD_WORDS, VERSION};

/// Largest word count a superblock may describe: 2^46 words (the model's
/// 46-bit handle space, 512 TiB of words). Bounding this keeps the
/// `words * 8 + SUPERBLOCK_BYTES` file-size arithmetic far from overflow,
/// so a crafted superblock with an absurd word count is rejected by the
/// codec instead of wrapping the size check and producing a bogus mapping.
pub const MAX_PERSISTENT_WORDS: u64 = 1 << 46;

/// State value: a run is (or was, if it crashed) attached to the file.
pub const STATE_IN_RUN: u64 = 1;

/// State value: the last attached run flushed and detached cleanly.
pub const STATE_CLEAN: u64 = 2;

/// Decoded superblock contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Format version of the file.
    pub version: u64,
    /// Number of process lifetimes that have attached to this file. The
    /// creating run is epoch 1; every reopen increments it.
    pub epoch: u64,
    /// [`STATE_IN_RUN`] or [`STATE_CLEAN`].
    pub state: u64,
    /// Processors `P` of the stored machine.
    pub procs: u64,
    /// Persistent capacity `M_p` in words.
    pub persistent_words: u64,
    /// Ephemeral capacity `M` in words (per processor).
    pub ephemeral_words: u64,
    /// Block size `B` in words.
    pub block_size: u64,
    /// Per-processor allocation-pool words, needed to replay the machine
    /// layout deterministically on reopen.
    pub pool_words: u64,
}

impl Superblock {
    /// Describes a fresh machine: epoch 1, in-run state.
    ///
    /// # Panics
    /// Panics if the configuration exceeds [`MAX_PERSISTENT_WORDS`] — a
    /// configuration error, mirroring the reject in the codec.
    pub fn describe(cfg: &PmConfig, pool_words: usize) -> Self {
        assert!(
            (cfg.persistent_words as u64) <= MAX_PERSISTENT_WORDS,
            "persistent_words {} exceeds the durable-file limit {MAX_PERSISTENT_WORDS}",
            cfg.persistent_words
        );
        Superblock {
            version: VERSION,
            epoch: 1,
            state: STATE_IN_RUN,
            procs: cfg.procs as u64,
            persistent_words: cfg.persistent_words as u64,
            ephemeral_words: cfg.ephemeral_words as u64,
            block_size: cfg.block_size as u64,
            pool_words: pool_words as u64,
        }
    }

    /// Reconstructs the machine configuration the file was created with.
    ///
    /// The fault adversary and validation mode are *run* properties, not
    /// *file* properties, so they come back at their defaults (no faults,
    /// strict validation); override with the [`PmConfig`] builders.
    pub fn to_config(&self) -> PmConfig {
        PmConfig {
            procs: self.procs as usize,
            persistent_words: self.persistent_words as usize,
            ephemeral_words: self.ephemeral_words as usize,
            block_size: self.block_size as usize,
            fault: crate::config::FaultConfig::none(),
            validate: crate::config::ValidateMode::default(),
        }
    }

    /// Whether the last attached run detached cleanly.
    pub fn clean(&self) -> bool {
        self.state == STATE_CLEAN
    }
}

// ====================================================================
// Checkpoint records
// ====================================================================

/// An epoch checkpoint: the durable resume point a quiesced run records
/// after reclaiming its frame pools.
///
/// The *meaning* of the fields is owed to the scheduler's checkpoint
/// protocol (`ppm-sched`'s `checkpoint` module): `watermarks[p]` is the
/// stable pool cursor of processor `p` — every live frame, join cell and
/// scratch word of the computation sits below it — and `frontier` is the
/// set of frame handles (deque jobs plus restart pointers) that, planted
/// on scrubbed deques with cursors at the watermarks, re-drive exactly
/// the computation's remaining work. A recovering session that cannot
/// rehydrate the crash frontier falls back to the newest valid record,
/// bounding replay distance to the work done since this checkpoint.
/// `region_cursor` pins the setup layout both arrays are relative to: a
/// recovering process whose construction carved its regions differently
/// refuses the record instead of resuming frames that are not there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Monotone checkpoint sequence number (1 for the first checkpoint of
    /// a file's lifetime).
    pub seq: u64,
    /// Run epoch that wrote the record.
    pub epoch: u64,
    /// Capsules the writing run had completed at the checkpoint (for
    /// replay-distance accounting).
    pub capsules: u64,
    /// The machine's region-allocation cursor after the writing run's
    /// construction: where its last setup region (deques, ring, root
    /// frames, user data) ended.
    pub region_cursor: u64,
    /// Stable pool-cursor watermark per processor.
    pub watermarks: Vec<u64>,
    /// Frame handles of the checkpoint frontier.
    pub frontier: Vec<u64>,
}

impl CheckpointRecord {
    /// Whether the record fits a slot ([`CKPT_MAX_PAYLOAD_WORDS`]).
    pub fn fits(&self) -> bool {
        self.watermarks.len() + self.frontier.len() <= CKPT_MAX_PAYLOAD_WORDS
    }

    /// Which of the two slots this record (by sequence parity) writes to.
    pub fn slot(&self) -> usize {
        (self.seq % 2) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_superblock() {
        let cfg = PmConfig::parallel(3, 1 << 18)
            .with_block_size(16)
            .with_ephemeral_words(512);
        let sb = Superblock::describe(&cfg, 4096);
        let back = sb.to_config();
        assert_eq!(back.procs, 3);
        assert_eq!(back.persistent_words, 1 << 18);
        assert_eq!(back.ephemeral_words, 512);
        assert_eq!(back.block_size, 16);
        assert_eq!(back.fault.fault_prob, 0.0);
    }

    #[test]
    fn checkpoint_slots_alternate_by_sequence() {
        let rec = |seq| CheckpointRecord {
            seq,
            epoch: 3,
            capsules: 12_345,
            region_cursor: 4096,
            watermarks: vec![100, 200, 300],
            frontier: vec![0x4000, 0x4010, 0x8020],
        };
        assert_eq!(rec(6).slot(), 0);
        assert_eq!(rec(7).slot(), 1);
    }
}
