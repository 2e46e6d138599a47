//! The in-process backend: heap-allocated atomics.

use std::sync::atomic::AtomicU64;

use super::MemBackend;
use crate::control::CONTROL_WORDS;

/// Word storage on the process heap. Survives simulated (model-level)
/// faults, which never actually kill the process; lost on process exit.
/// This is the backend of every machine built without a path.
///
/// Its control page is one more heap page, so everything written through
/// [`crate::control::ControlPage`] — a lease table, say — runs the same
/// codec in a single-process test as on a machine file.
pub struct VolatileBackend {
    words: Box<[AtomicU64]>,
    control: Box<[AtomicU64]>,
}

// What the cast below relies on besides size and bit validity, which
// `AtomicU64` documents.
const _: () = assert!(std::mem::align_of::<u64>() == std::mem::align_of::<AtomicU64>());

/// `len` zero words the allocator hands over without touching them
/// (`vec![0; len]` is `alloc_zeroed`: fresh pages arrive zero on demand),
/// so a machine pays for the memory it uses, not for the heap it could.
fn zeroed(len: usize) -> Box<[AtomicU64]> {
    let words = Box::into_raw(vec![0u64; len].into_boxed_slice());
    // SAFETY: `AtomicU64` has the size, alignment (asserted above) and bit
    // validity of `u64`, so the allocation's layout is unchanged and every
    // word is a valid value; the box just released is the only owner.
    unsafe { Box::from_raw(words as *mut [AtomicU64]) }
}

impl VolatileBackend {
    /// Allocates `len` zero-initialized words.
    pub fn new(len: usize) -> Self {
        VolatileBackend {
            words: zeroed(len),
            control: zeroed(CONTROL_WORDS),
        }
    }
}

impl std::fmt::Debug for VolatileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VolatileBackend({} words)", self.words.len())
    }
}

impl MemBackend for VolatileBackend {
    fn words(&self) -> &[AtomicU64] {
        &self.words
    }

    fn control(&self) -> &[AtomicU64] {
        &self.control
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPage;
    use crate::lease::{ClusterHeader, Lease, LeaseState};
    use std::sync::atomic::Ordering;

    #[test]
    fn zero_initialized_and_flushable() {
        let b = VolatileBackend::new(16);
        assert_eq!(b.words().len(), 16);
        assert!(b.words().iter().all(|w| w.load(Ordering::SeqCst) == 0));
        b.words()[3].store(7, Ordering::SeqCst);
        b.flush().unwrap();
        ControlPage::of(&b).mark_clean().unwrap();
        assert_eq!(b.words()[3].load(Ordering::SeqCst), 7);
        assert!(b.path().is_none());
        assert!(ControlPage::of(&b).superblock().is_none());
        assert_eq!(format!("{b:?}"), "VolatileBackend(16 words)");
    }

    #[test]
    fn words_and_control_slices_are_stable() {
        let b = VolatileBackend::new(4);
        assert_eq!(b.words().as_ptr(), b.words().as_ptr());
        assert_eq!(b.control().as_ptr(), b.control().as_ptr());
        assert_eq!(b.control().len(), CONTROL_WORDS);
    }

    #[test]
    fn cluster_state_round_trips_in_memory() {
        let b = VolatileBackend::new(4);
        let page = ControlPage::of(&b);
        assert!(page.cluster_header().is_none());
        assert!(page.lease(0).is_none());
        let h = ClusterHeader {
            shards: 2,
            lease_ms: 500,
            deque_slots: 64,
            seed: 9,
        };
        page.write_cluster_header(&h).unwrap();
        assert_eq!(page.cluster_header(), Some(h));
        let l = Lease {
            state: LeaseState::Alive,
            seq: 1,
            deadline_ms: 42,
        };
        page.write_lease(1, &l).unwrap();
        assert_eq!(page.lease(1), Some(l));
        assert!(page.lease(0).is_none());
    }
}
