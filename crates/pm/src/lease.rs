//! Cluster leases: the cross-process liveness oracle's persistent state.
//!
//! A sharded runtime (`ppm-sched`'s `cluster` module) attaches several
//! worker OS processes to one durable machine file, each driving a
//! disjoint group of model processors — an independent *fault domain*.
//! The paper's liveness oracle `isLive(procId)` (§2, §6.3) must then work
//! *across process boundaries*: a surviving worker has to detect that a
//! sibling process died (SIGKILL, OOM, machine partition) so it can adopt
//! the dead shard's deque frontier through the ordinary hard-fault steal
//! path.
//!
//! The oracle's persistent state lives in the control page of the
//! machine file ([`crate::control`] holds the layout and the codec):
//!
//! * a [`ClusterHeader`] (written once by the coordinator) recording the
//!   shard geometry and the scheduler shape every attacher must replay
//!   (deque slots, victim seed, lease interval), and
//! * one [`Lease`] slot per shard — exactly the §6.3 heartbeat
//!   construction ("each process updates its counter after a constant
//!   number of steps; if the time since a counter has last updated passes
//!   some threshold, the process is considered dead"), made durable and
//!   cross-process: the owning worker rewrites its slot with a bumped
//!   sequence number and a fresh deadline every few hundred
//!   milliseconds; any reader whose clock passes the deadline (or who
//!   finds a [`LeaseState::Dead`] tombstone written by the coordinator's
//!   `waitpid` observer) declares the shard dead.

use crate::word::Word;

/// Maximum worker shards a machine file can carry leases for: the slot
/// count of the control page's lease table ([`crate::control::LEASES`]).
pub const MAX_SHARDS: usize = 16;

/// Milliseconds since the unix epoch — the shared clock of the lease
/// protocol. All workers of a cluster run on one machine (they share a
/// `MAP_SHARED` mapping), so wall-clock comparisons across processes are
/// meaningful; skew between readers only widens or narrows the grace
/// period, never breaks safety (a false "dead" verdict makes survivors
/// adopt a live shard's entries through the same CAM-guarded steal path
/// the model already proves safe for hard-faulted processors).
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The once-written description of a sharded run: geometry plus the
/// scheduler shape every attaching process must rebuild identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterHeader {
    /// Number of worker shards (process groups).
    pub shards: u64,
    /// Lease validity window in milliseconds; the owning worker renews
    /// well inside it.
    pub lease_ms: u64,
    /// Deque slots per processor (determines the deque region layout, so
    /// it must be identical in every attacher).
    pub deque_slots: u64,
    /// Victim-selection seed of the schedulers.
    pub seed: u64,
}

/// A lease slot's state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// The worker is (or claims to be) running; dead once `deadline_ms`
    /// passes without a renewal.
    Alive = 1,
    /// The worker exited deliberately after the computation completed.
    Done = 2,
    /// Tombstone: an observer (typically the coordinator reaping the
    /// worker's exit status) recorded the worker as dead. Overrides any
    /// deadline — survivors adopt immediately instead of waiting out the
    /// lease.
    Dead = 3,
}

impl LeaseState {
    pub(crate) fn from_word(w: u64) -> Option<LeaseState> {
        match w {
            1 => Some(LeaseState::Alive),
            2 => Some(LeaseState::Done),
            3 => Some(LeaseState::Dead),
            _ => None,
        }
    }
}

/// One shard's heartbeat record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Liveness state of the owning worker.
    pub state: LeaseState,
    /// Renewal counter (monotone per shard; diagnostic).
    pub seq: u64,
    /// Epoch-milliseconds after which an [`LeaseState::Alive`] lease is
    /// expired.
    pub deadline_ms: u64,
}

impl Lease {
    /// A fresh alive lease valid until `now_ms() + validity_ms` on the
    /// system clock. Clock-threaded callers use [`Lease::alive_at`].
    pub fn alive(seq: u64, validity_ms: u64) -> Self {
        Self::alive_at(seq, validity_ms, now_ms())
    }

    /// A fresh alive lease valid until `now_ms + validity_ms`, with the
    /// current time supplied by the caller's [`crate::Clock`] so lease
    /// renewal is testable on a virtual timeline.
    pub fn alive_at(seq: u64, validity_ms: u64, now_ms: u64) -> Self {
        Lease {
            state: LeaseState::Alive,
            seq,
            deadline_ms: now_ms.saturating_add(validity_ms),
        }
    }

    /// Whether this lease currently certifies the worker dead: a
    /// tombstone, or an alive lease whose deadline has passed.
    pub fn is_dead(&self, now_ms: u64) -> bool {
        match self.state {
            LeaseState::Dead => true,
            LeaseState::Alive => now_ms > self.deadline_ms,
            LeaseState::Done => false,
        }
    }
}

/// The static partition of a machine's processors into per-process-group
/// arenas: shard `s` owns the contiguous processor range
/// `[s * procs_per_shard, (s + 1) * procs_per_shard)`, and with it every
/// per-processor region of the deterministic layout — metadata block,
/// frame pool, WS-deque. Carving by *processor* is what makes the address
/// space carve cleanly by *shard*: all shard-owned state is disjoint by
/// the layout's block alignment, so worker processes never contend on
/// machine-owned words outside the steal protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards.
    pub shards: usize,
    /// Processors per shard.
    pub procs_per_shard: usize,
}

impl ShardMap {
    /// Partitions `total_procs` processors into `shards` equal groups.
    ///
    /// # Panics
    /// Panics when the partition is degenerate: zero shards, more than
    /// [`MAX_SHARDS`], or a processor count not divisible by the shard
    /// count.
    pub fn new(total_procs: usize, shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
        assert!(
            total_procs.is_multiple_of(shards) && total_procs > 0,
            "{total_procs} processors do not split evenly into {shards} shards"
        );
        ShardMap {
            shards,
            procs_per_shard: total_procs / shards,
        }
    }

    /// Total processors across all shards.
    pub fn procs(&self) -> usize {
        self.shards * self.procs_per_shard
    }

    /// The shard owning processor `proc`.
    pub fn shard_of(&self, proc: usize) -> usize {
        assert!(proc < self.procs());
        proc / self.procs_per_shard
    }

    /// The processor range of shard `s`.
    pub fn procs_of(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.shards);
        s * self.procs_per_shard..(s + 1) * self.procs_per_shard
    }
}

/// A word as [`Word`] (re-export convenience so lease code reads
/// uniformly with the rest of the crate).
pub type LeaseWord = Word;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_and_tombstone_semantics() {
        let now = now_ms();
        let live = Lease::alive(1, 10_000);
        assert!(!live.is_dead(now));
        assert!(live.is_dead(live.deadline_ms + 1));
        let tomb = Lease {
            state: LeaseState::Dead,
            seq: 2,
            deadline_ms: u64::MAX,
        };
        assert!(tomb.is_dead(now), "tombstones override any deadline");
        let done = Lease {
            state: LeaseState::Done,
            seq: 3,
            deadline_ms: 0,
        };
        assert!(!done.is_dead(now), "a completed worker is not adoptable");
    }

    #[test]
    fn shard_map_partitions_procs() {
        let m = ShardMap::new(8, 4);
        assert_eq!(m.procs_per_shard, 2);
        assert_eq!(m.procs(), 8);
        assert_eq!(m.procs_of(0), 0..2);
        assert_eq!(m.procs_of(3), 6..8);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(5), 2);
        assert_eq!(m.shard_of(7), 3);
    }

    #[test]
    #[should_panic(expected = "do not split evenly")]
    fn uneven_partition_rejected() {
        let _ = ShardMap::new(7, 4);
    }
}
