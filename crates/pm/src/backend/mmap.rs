//! The durable backend: the word array mapped onto a file.
//!
//! A durable machine file is one control page ([`crate::control`])
//! followed by the word array, mapped `MAP_SHARED` with
//! `PROT_READ|PROT_WRITE`. Because the mapping is shared, every atomic
//! store lands in the kernel page cache the instant it retires — killing
//! the writing process (the `kill -9` hard-fault scenario) loses nothing
//! that was already stored. The explicit [`MemBackend::flush`] boundary
//! (`msync(MS_SYNC)`) extends the guarantee to machine/power failure.
//!
//! The environment vendors no FFI crates, so the three syscall wrappers
//! this module needs (`mmap`, `munmap`, `msync`) are declared directly
//! against the C library every Rust binary on unix already links.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

use super::superblock::{Superblock, STATE_IN_RUN};
use super::MemBackend;
use crate::control::{bad, ControlPage, PageView, CONTROL_WORDS, SUPERBLOCK_BYTES};
use crate::dirty::PageRun;

#[cfg(target_endian = "big")]
compile_error!(
    "the machine-file format is little-endian words read in place through a mapping; \
     the durable backend does not build on a big-endian target"
);

mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
        pub fn msync(addr: *mut c_void, length: usize, flags: i32) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MS_SYNC: i32 = 0x4;
}

/// File-backed word storage with crash persistence.
pub struct MmapBackend {
    /// Base of the shared mapping (control page included).
    base: *mut u8,
    /// Total mapping length in bytes.
    map_len: usize,
    /// Number of words after the control page.
    len_words: usize,
    /// Kept open so the file cannot disappear under the mapping.
    _file: File,
    path: PathBuf,
}

// SAFETY: the raw pointer is a shared file mapping that lives until Drop,
// and every access to it goes through the `&[AtomicU64]` views of
// `words()` and `control()` — in this process and in every sibling
// mapping the file — so moving or sharing the handle across threads
// cannot introduce a data race.
unsafe impl Send for MmapBackend {}
// SAFETY: see the Send justification above — all access is atomic.
unsafe impl Sync for MmapBackend {}

impl std::fmt::Debug for MmapBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MmapBackend({} words on {})",
            self.len_words,
            self.path.display()
        )
    }
}

fn file_bytes(words: usize) -> u64 {
    (SUPERBLOCK_BYTES + words * 8) as u64
}

impl MmapBackend {
    /// Creates (or truncates) a durable file holding `superblock` and a
    /// zeroed word array of `superblock.persistent_words` words, and maps
    /// it. The superblock is written and synced before this returns.
    pub fn create(path: impl AsRef<Path>, superblock: Superblock) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let words = superblock.persistent_words as usize;
        file.set_len(file_bytes(words))?;
        let backend = Self::map(file, path, words)?;
        ControlPage::of(&backend).write_superblock(&superblock)?;
        Ok(backend)
    }

    /// Opens an existing durable file, validates its superblock against
    /// the file's actual size, records a new run attaching to it (epoch
    /// increment, state ← in-run), and maps its words. Returns the
    /// superblock *as found* — `epoch` is the pre-increment value and
    /// `state` tells whether the previous run detached cleanly.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, Superblock)> {
        let (backend, found) = Self::attach(path)?;
        ControlPage::of(&backend).write_superblock(&Superblock {
            epoch: found.epoch + 1,
            state: STATE_IN_RUN,
            ..found
        })?;
        Ok((backend, found))
    }

    /// Opens an existing durable file as a **secondary attacher**: the
    /// superblock is validated and returned exactly as found, but — unlike
    /// [`MmapBackend::open`] — neither the run epoch nor the state word is
    /// touched. A sharded runtime's worker processes attach this way: the
    /// coordinator's `create` established the run epoch, and every worker
    /// shares it, so recovery semantics ("did the previous *run* crash?")
    /// stay a property of the run, not of how many processes served it.
    pub fn attach(path: impl AsRef<Path>) -> io::Result<(Self, Superblock)> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        // Validated from a plain read, before any of the file is mapped.
        let found = PageView::read_from(&mut &file)?
            .superblock?
            .ok_or_else(|| bad("not a ppm durable file (no superblock)".into()))?;
        let words = found.persistent_words as usize;
        let actual_len = file.metadata()?.len();
        if actual_len != file_bytes(words) {
            return Err(bad(format!(
                "file is {actual_len} bytes but the superblock describes {} (truncated?)",
                file_bytes(words)
            )));
        }
        Ok((Self::map(file, path, words)?, found))
    }

    fn map(file: File, path: PathBuf, words: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        let map_len = SUPERBLOCK_BYTES + words * 8;
        // SAFETY: plain FFI mmap of `map_len` bytes of an open fd we own;
        // a MAP_FAILED return is checked immediately below, and the fd is
        // kept alive in `_file` for the lifetime of the mapping.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapBackend {
            base: base as *mut u8,
            map_len,
            len_words: words,
            _file: file,
            path,
        })
    }

    fn msync_range(&self, offset: usize, len: usize) -> io::Result<()> {
        debug_assert_eq!(offset % SUPERBLOCK_BYTES, 0, "msync needs page alignment");
        // SAFETY: plain FFI msync over a sub-range of our own live mapping;
        // page alignment is asserted above and the return code is checked.
        let rc = unsafe {
            sys::msync(
                self.base.add(offset) as *mut std::ffi::c_void,
                len,
                sys::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl MemBackend for MmapBackend {
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the region after the control page is 8-byte aligned
        // (page alignment of `base` plus the 4096-byte offset), holds
        // exactly `len_words` words, and lives for `self` — the mapping is
        // only torn down in Drop. AtomicU64 access makes the MAP_SHARED
        // cross-process aliasing sound.
        unsafe {
            std::slice::from_raw_parts(
                self.base.add(SUPERBLOCK_BYTES) as *const AtomicU64,
                self.len_words,
            )
        }
    }

    fn control(&self) -> &[AtomicU64] {
        // SAFETY: `base` is page-aligned (mmap), the mapping is at least
        // SUPERBLOCK_BYTES long for the lifetime of `self`, and no other
        // view of those bytes exists anywhere: atomics make the in- and
        // cross-process sharing sound by construction.
        unsafe { std::slice::from_raw_parts(self.base as *const AtomicU64, CONTROL_WORDS) }
    }

    fn flush(&self) -> io::Result<()> {
        self.msync_range(0, self.map_len)
    }

    fn flush_dirty(&self, runs: &[PageRun]) -> io::Result<()> {
        for (start, len) in runs {
            // Word run → byte range past the control page. Runs are
            // page-aligned by construction (DirtyTracker::drain), so the
            // msync alignment requirement holds.
            self.msync_range(SUPERBLOCK_BYTES + start * 8, len * 8)?;
        }
        Ok(())
    }

    fn flush_control(&self) -> io::Result<()> {
        self.msync_range(0, SUPERBLOCK_BYTES)
    }

    fn wants_dirty_tracking(&self) -> bool {
        true
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.path)
    }
}

impl Drop for MmapBackend {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `map` established; `&mut self`
        // guarantees no outstanding borrows of the mapping remain.
        unsafe {
            sys::munmap(self.base as *mut std::ffi::c_void, self.map_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CheckpointRecord;
    use crate::config::PmConfig;
    use crate::control::CHECKPOINTS;
    use crate::lease::{ClusterHeader, Lease};
    use std::sync::atomic::Ordering;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppm-mmap-test-{}-{tag}.ppm", std::process::id()));
        p
    }

    fn sb(words: usize) -> Superblock {
        Superblock::describe(&PmConfig::parallel(2, words), 64)
    }

    fn superblock(b: &MmapBackend) -> Superblock {
        ControlPage::of(b).superblock().expect("mapped superblock")
    }

    #[test]
    fn create_store_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        {
            let b = MmapBackend::create(&path, sb(1024)).unwrap();
            b.words()[17].store(0xDEAD_BEEF, Ordering::SeqCst);
            b.words()[1023].store(42, Ordering::SeqCst);
            b.flush().unwrap();
        }
        {
            let (b, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 1);
            assert!(!found.clean(), "crashy drop leaves in-run state");
            assert_eq!(b.words()[17].load(Ordering::SeqCst), 0xDEAD_BEEF);
            assert_eq!(b.words()[1023].load(Ordering::SeqCst), 42);
            assert_eq!(b.words()[0].load(Ordering::SeqCst), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unflushed_stores_survive_backend_drop() {
        // MAP_SHARED: stores live in the page cache even without msync.
        let path = tmp_path("unflushed");
        {
            let b = MmapBackend::create(&path, sb(64)).unwrap();
            b.words()[5].store(99, Ordering::SeqCst);
            // no flush — simulates sudden process death
        }
        let (b, _) = MmapBackend::open(&path).unwrap();
        assert_eq!(b.words()[5].load(Ordering::SeqCst), 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn epoch_increments_per_attach_and_clean_is_recorded() {
        let path = tmp_path("epoch");
        {
            let b = MmapBackend::create(&path, sb(64)).unwrap();
            assert_eq!(superblock(&b).epoch, 1);
            ControlPage::of(&b).mark_clean().unwrap();
        }
        {
            let (b, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 1);
            assert!(found.clean());
            assert_eq!(superblock(&b).epoch, 2);
            assert!(!superblock(&b).clean());
        }
        {
            let (_, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 2);
            assert!(!found.clean(), "second run never marked clean");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp_path("truncated");
        {
            let _ = MmapBackend::create(&path, sb(1024)).unwrap();
        }
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(file_bytes(1024) - 512).unwrap();
        drop(f);
        let err = MmapBackend::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_dirty_syncs_runs_and_checkpoints_round_trip() {
        let path = tmp_path("ckpt");
        let rec = |seq: u64| CheckpointRecord {
            seq,
            epoch: 1,
            capsules: 40 * seq,
            region_cursor: 2048,
            watermarks: vec![64 * seq],
            frontier: vec![0x100 + seq],
        };
        {
            let b = MmapBackend::create(&path, sb(4096)).unwrap();
            let page = ControlPage::of(&b);
            b.words()[100].store(7, Ordering::SeqCst);
            b.flush_dirty(&[(0, 512), (3584, 512)]).unwrap();
            assert!(page.latest_checkpoint().is_none());
            assert!(page.write_checkpoint(&rec(1)).unwrap());
            assert!(page.write_checkpoint(&rec(2)).unwrap());
            assert_eq!(page.latest_checkpoint().unwrap().seq, 2);
        }
        {
            // Both records survive reopen; the newest wins.
            let (b, _) = MmapBackend::open(&path).unwrap();
            let page = ControlPage::of(&b);
            let latest = page.latest_checkpoint().unwrap();
            assert_eq!(latest, rec(2));
            // Tear the newest slot on disk: reopen must fall back to the
            // previous record, not error out.
            let epoch_word = CHECKPOINTS.slot_words(rec(2).slot()).start + 2;
            b.control()[epoch_word].fetch_xor(0xFF, Ordering::SeqCst);
            assert_eq!(page.latest_checkpoint().unwrap(), rec(1));
            page.clear_checkpoints().unwrap();
            assert!(page.latest_checkpoint().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attach_shares_words_without_bumping_the_epoch() {
        use crate::lease::{LeaseState, ShardMap};
        let path = tmp_path("attach");
        let creator = MmapBackend::create(&path, sb(1024)).unwrap();
        assert_eq!(superblock(&creator).epoch, 1);

        // A secondary attacher maps the same words, sees the same epoch,
        // and leaves the superblock untouched.
        let (worker, found) = MmapBackend::attach(&path).unwrap();
        assert_eq!(found.epoch, 1);
        assert_eq!(superblock(&worker).epoch, 1);
        creator.words()[9].store(1234, Ordering::SeqCst);
        assert_eq!(worker.words()[9].load(Ordering::SeqCst), 1234);
        worker.words()[10].store(4321, Ordering::SeqCst);
        assert_eq!(creator.words()[10].load(Ordering::SeqCst), 4321);

        // Cluster header and leases are visible across mappings (this is
        // the cross-process liveness oracle's transport).
        let header = ClusterHeader {
            shards: 2,
            lease_ms: 700,
            deque_slots: 4096,
            seed: 0xC0FFEE,
        };
        let (creator_page, worker_page) = (ControlPage::of(&creator), ControlPage::of(&worker));
        creator_page.write_cluster_header(&header).unwrap();
        assert_eq!(worker_page.cluster_header(), Some(header));
        let map = ShardMap::new(2, 2);
        assert_eq!(map.procs_per_shard, 1);
        let lease = Lease::alive(7, 10_000);
        worker_page.write_lease(1, &lease).unwrap();
        assert_eq!(creator_page.lease(1), Some(lease));
        assert!(creator_page.lease(0).is_none(), "blank slot stays blank");
        let tomb = Lease {
            state: LeaseState::Dead,
            seq: 8,
            deadline_ms: u64::MAX,
        };
        creator_page.write_lease(1, &tomb).unwrap();
        assert!(worker_page
            .lease(1)
            .unwrap()
            .is_dead(crate::lease::now_ms()));

        // A real `open` after both detach still bumps the epoch once.
        drop(worker);
        drop(creator);
        let (reopened, found) = MmapBackend::open(&path).unwrap();
        assert_eq!(found.epoch, 1, "attachers never advanced the epoch");
        assert_eq!(superblock(&reopened).epoch, 2);
        assert_eq!(
            ControlPage::of(&reopened).cluster_header(),
            Some(header),
            "cluster header survives reopen"
        );
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ppm_file_rejected() {
        let path = tmp_path("garbage");
        std::fs::write(&path, vec![0xAB; SUPERBLOCK_BYTES + 64]).unwrap();
        assert!(MmapBackend::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
