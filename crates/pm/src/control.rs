//! The control page: the first 4 KiB of a machine file, and the only
//! module that knows what is in it.
//!
//! In the Parallel-PM model the only thing a fault leaves behind is
//! persistent *words*, read and written atomically (§2), and recovery and
//! the heartbeat oracle (§6.3) trust nothing else. The page every
//! recovery reads first is held to the same rule: a backend hands out its
//! control page as 512 atomic words ([`MemBackend::control`] — the head
//! of the mapping for the durable backend, a heap page for the volatile
//! one) and every record in it is a run of little-endian words ending in
//! an FNV-1a checksum of the words before it.
//!
//! ## The page map
//!
//! [`PAGE_MAP`] is the layout; a compile-time assertion keeps its entries
//! sorted, disjoint, word-aligned and inside the page.
//!
//! ```text
//!   bytes        record                         synced on write
//!      0..  80   Superblock (10 words)          yes
//!    128.. 176   ClusterHeader (6 words)        yes
//!    256.. 768   Lease x MAX_SHARDS (4 words)   no (heartbeat traffic)
//!    768.. 832   ServiceHeader (8 words)        yes
//!    832.. 976   reserved, zero                 -
//!   1024..4096   CheckpointRecord x 2 (192 w)   yes
//! ```
//!
//! Bytes 832..976 carried the cross-process quiesce words of an earlier
//! format revision; nothing reads or writes them now.
//!
//! ## One writer per record
//!
//! No lock guards the page. Each record has one writing process at a
//! time, and that is what makes checksum-last stores enough:
//!
//! * **superblock** — the process that created or opened the file
//!   ([`crate::MmapBackend::create`] / [`crate::MmapBackend::open`], then
//!   [`ControlPage::mark_clean`]); never an attacher;
//! * **lease `s`** — shard `s`'s worker; the supervisor seeds it before
//!   the worker exists and tombstones it after reaping the worker;
//! * **cluster and service header** — the coordinator;
//! * **checkpoint slots** — the one process driving the machine's
//!   processors (the quiesce coordinator of a single-process session, or
//!   single-process recovery); sharded and service workers never
//!   checkpoint.
//!
//! ## Torn reads
//!
//! [`ControlPage`] writes a record word by word with `SeqCst` stores,
//! checksum last, and reads by copying the slot out and verifying the
//! copy. A reader racing a rewrite — or a crash mid-write — sees a
//! checksum mismatch and gets `Err`, never a mix of two records; a
//! zero-initialised slot is `Ok(None)`. Lease, header and superblock
//! readers keep their previous view on `Err`; a torn checkpoint slot
//! falls back to the other slot ([`ControlPage::latest_checkpoint`]).

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::superblock::{CheckpointRecord, Superblock, MAX_PERSISTENT_WORDS, STATE_CLEAN};
use crate::backend::MemBackend;
use crate::lease::{ClusterHeader, Lease, LeaseState, MAX_SHARDS};
use crate::service::{ServiceHeader, ServiceState};

/// Bytes of the control page at the head of a durable file. One 4 KiB
/// page: the word array after it stays page-aligned, and syncing the
/// control page touches exactly one page.
pub const SUPERBLOCK_BYTES: usize = 4096;

/// Words of the control page.
pub const CONTROL_WORDS: usize = SUPERBLOCK_BYTES / 8;

/// Current format version of the page (the superblock's version field).
pub const VERSION: u64 = 2;

/// One line of the page map: `slots` consecutive records of `words`
/// words each, starting at byte `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Record name, for diagnostics.
    pub name: &'static str,
    /// Byte offset of slot 0 inside the page.
    pub offset: usize,
    /// Words per slot, checksum included.
    pub words: usize,
    /// Number of consecutive slots.
    pub slots: usize,
    /// Whether a write is followed by [`MemBackend::flush_control`].
    pub synced: bool,
}

impl MapEntry {
    /// Byte offset of `slot` inside the page.
    ///
    /// # Panics
    /// Panics if `slot >= self.slots`.
    pub fn slot_offset(&self, slot: usize) -> usize {
        assert!(slot < self.slots, "{} slot {slot} out of range", self.name);
        self.offset + slot * self.words * 8
    }

    /// Word indices of `slot` inside the page.
    pub fn slot_words(&self, slot: usize) -> Range<usize> {
        let start = self.slot_offset(slot) / 8;
        start..start + self.words
    }
}

const fn entry(
    name: &'static str,
    offset: usize,
    words: usize,
    slots: usize,
    synced: bool,
) -> MapEntry {
    MapEntry {
        name,
        offset,
        words,
        slots,
        synced,
    }
}

/// The [`Superblock`]: machine shape, run epoch, clean/in-run state.
pub const SUPERBLOCK: MapEntry = entry("superblock", 0, 10, 1, true);

/// The [`ClusterHeader`] of a sharded run.
pub const CLUSTER_HEADER: MapEntry = entry("cluster header", 128, 6, 1, true);

/// One [`Lease`] per shard. Heartbeats need page-cache visibility across
/// the sharing processes, not durability, so they are never synced.
pub const LEASES: MapEntry = entry("lease", 256, 4, MAX_SHARDS, false);

/// The [`ServiceHeader`] of a job-service run.
pub const SERVICE_HEADER: MapEntry = entry("service header", 768, 8, 1, true);

/// Reserved, zero in every file this build creates (see the module docs).
pub const RESERVED: MapEntry = entry("reserved", 832, 18, 1, false);

/// The two alternating [`CheckpointRecord`] slots. A record goes to slot
/// `seq % 2`, so a crash mid-write tears at most the slot being written
/// and the previous record survives in the other.
pub const CHECKPOINTS: MapEntry = entry("checkpoint record", 1024, 192, 2, true);

/// The layout of the control page, in address order.
pub const PAGE_MAP: [MapEntry; 6] = [
    SUPERBLOCK,
    CLUSTER_HEADER,
    LEASES,
    SERVICE_HEADER,
    RESERVED,
    CHECKPOINTS,
];

const _: () = {
    let mut end = 0;
    let mut i = 0;
    while i < PAGE_MAP.len() {
        let e = &PAGE_MAP[i];
        assert!(
            e.offset.is_multiple_of(8),
            "page-map entry is not word-aligned"
        );
        assert!(e.offset >= end, "page-map entries overlap or are unsorted");
        end = e.offset + e.words * e.slots * 8;
        assert!(end <= SUPERBLOCK_BYTES, "page-map entry leaves the page");
        i += 1;
    }
};

/// FNV-1a over the little-endian bytes of `words`: the checksum of every
/// record in the page (and of an injector slot's `(ticket, entry)` pair).
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub(crate) fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A record of the control page: `[magic,] fields.., checksum`.
pub trait Record: Sized {
    /// Where the record lives.
    const AT: MapEntry;
    /// The record's first word, if it carries one.
    const MAGIC: Option<u64>;

    /// Appends the words between the magic and the checksum.
    fn fields(&self, out: &mut Vec<u64>);

    /// How many field words a slot whose fields start with `fields`
    /// claims. Fixed by the map for every record but the variable-length
    /// checkpoint record.
    fn field_count(_fields: &[u64]) -> io::Result<usize> {
        Ok(Self::AT.words - 1 - Self::MAGIC.is_some() as usize)
    }

    /// Rebuilds the record from checksum-verified field words.
    fn from_fields(fields: &[u64]) -> io::Result<Self>;
}

/// Encodes `rec` as `[magic,] fields.., checksum`.
///
/// # Panics
/// Panics if the record outgrows its slot (callers skip oversized
/// checkpoint records, see [`CheckpointRecord::fits`]).
pub fn encode<R: Record>(rec: &R) -> Vec<u64> {
    let mut words = Vec::with_capacity(R::AT.words);
    words.extend(R::MAGIC);
    rec.fields(&mut words);
    words.push(fnv1a(&words));
    assert!(
        words.len() <= R::AT.words,
        "{} exceeds slot capacity",
        R::AT.name
    );
    words
}

/// Decodes the plain-word copy of one slot: `Ok(None)` for a blank slot
/// (first word zero), `Err` for anything whose magic, claimed length,
/// checksum or field values do not hold, `Ok(Some)` otherwise. Nothing
/// outside the verified checksum is trusted.
pub fn decode<R: Record>(slot: &[u64]) -> io::Result<Option<R>> {
    let name = R::AT.name;
    match (slot.first(), R::MAGIC) {
        (None | Some(0), _) => return Ok(None),
        (Some(w), Some(magic)) if *w != magic => return Err(bad(format!("{name}: bad magic"))),
        _ => {}
    }
    let lead = R::MAGIC.is_some() as usize;
    let end = lead + R::field_count(&slot[lead..])?;
    let Some(checksum) = slot.get(end) else {
        return Err(bad(format!("{name}: slot too short for its payload")));
    };
    if *checksum != fnv1a(&slot[..end]) {
        return Err(bad(format!("{name}: checksum mismatch (torn or corrupt)")));
    }
    R::from_fields(&slot[lead..end]).map(Some)
}

impl Record for Superblock {
    const AT: MapEntry = SUPERBLOCK;
    const MAGIC: Option<u64> = Some(u64::from_le_bytes(*b"PPMDUR1\0"));

    fn fields(&self, out: &mut Vec<u64>) {
        out.extend([
            self.version,
            self.epoch,
            self.state,
            self.procs,
            self.persistent_words,
            self.ephemeral_words,
            self.block_size,
            self.pool_words,
        ]);
    }

    fn from_fields(f: &[u64]) -> io::Result<Self> {
        let sb = Superblock {
            version: f[0],
            epoch: f[1],
            state: f[2],
            procs: f[3],
            persistent_words: f[4],
            ephemeral_words: f[5],
            block_size: f[6],
            pool_words: f[7],
        };
        if sb.version != VERSION {
            return Err(bad(format!(
                "unsupported superblock version {} (this build reads {VERSION})",
                sb.version
            )));
        }
        if sb.block_size == 0 || sb.persistent_words == 0 || sb.procs == 0 {
            return Err(bad("superblock describes a degenerate machine".into()));
        }
        // Bounded before any file-size arithmetic: a crafted word count
        // must not wrap the size check into a bogus mapping.
        if sb.persistent_words > MAX_PERSISTENT_WORDS {
            return Err(bad(format!(
                "superblock claims {} persistent words (limit {MAX_PERSISTENT_WORDS})",
                sb.persistent_words
            )));
        }
        Ok(sb)
    }
}

impl Record for ClusterHeader {
    const AT: MapEntry = CLUSTER_HEADER;
    const MAGIC: Option<u64> = Some(u64::from_le_bytes(*b"PPMCLST1"));

    fn fields(&self, out: &mut Vec<u64>) {
        out.extend([self.shards, self.lease_ms, self.deque_slots, self.seed]);
    }

    fn from_fields(f: &[u64]) -> io::Result<Self> {
        Ok(ClusterHeader {
            shards: f[0],
            lease_ms: f[1],
            deque_slots: f[2],
            seed: f[3],
        })
    }
}

impl Record for Lease {
    const AT: MapEntry = LEASES;
    /// The state word leads; `0` is no [`LeaseState`], so a zeroed slot
    /// still reads as blank.
    const MAGIC: Option<u64> = None;

    fn fields(&self, out: &mut Vec<u64>) {
        out.extend([self.state as u64, self.seq, self.deadline_ms]);
    }

    fn from_fields(f: &[u64]) -> io::Result<Self> {
        Ok(Lease {
            state: LeaseState::from_word(f[0])
                .ok_or_else(|| bad(format!("lease: unknown state {}", f[0])))?,
            seq: f[1],
            deadline_ms: f[2],
        })
    }
}

impl Record for ServiceHeader {
    const AT: MapEntry = SERVICE_HEADER;
    const MAGIC: Option<u64> = Some(u64::from_le_bytes(*b"PPMSVC01"));

    fn fields(&self, out: &mut Vec<u64>) {
        out.extend([
            self.state as u64,
            self.slots,
            self.job_words,
            self.ring_base,
            self.workspace_base,
            0, // reserved
        ]);
    }

    fn from_fields(f: &[u64]) -> io::Result<Self> {
        Ok(ServiceHeader {
            state: ServiceState::from_word(f[0])
                .ok_or_else(|| bad(format!("service header: unknown state {}", f[0])))?,
            slots: f[1],
            job_words: f[2],
            ring_base: f[3],
            workspace_base: f[4],
        })
    }
}

/// Fixed field words of a checkpoint record ahead of its two arrays:
/// `seq, epoch, capsules, region_cursor, watermarks.len(),
/// frontier.len()`.
const CKPT_FIXED_FIELDS: usize = 6;

/// Largest `watermarks.len() + frontier.len()` a checkpoint slot holds.
pub const CKPT_MAX_PAYLOAD_WORDS: usize = CHECKPOINTS.words - 2 - CKPT_FIXED_FIELDS;

impl Record for CheckpointRecord {
    const AT: MapEntry = CHECKPOINTS;
    /// `PPMCKPT1` records carried no `region_cursor`; their magic no
    /// longer matches, so such a slot reads as absent, never misparsed.
    const MAGIC: Option<u64> = Some(u64::from_le_bytes(*b"PPMCKPT2"));

    fn fields(&self, out: &mut Vec<u64>) {
        out.extend([
            self.seq,
            self.epoch,
            self.capsules,
            self.region_cursor,
            self.watermarks.len() as u64,
            self.frontier.len() as u64,
        ]);
        out.extend(&self.watermarks);
        out.extend(&self.frontier);
    }

    fn field_count(fields: &[u64]) -> io::Result<usize> {
        let payload = match fields {
            [_, _, _, _, procs, frontier, ..] => procs.saturating_add(*frontier),
            _ => u64::MAX,
        };
        if payload > CKPT_MAX_PAYLOAD_WORDS as u64 {
            return Err(bad("checkpoint record claims an oversized payload".into()));
        }
        Ok(CKPT_FIXED_FIELDS + payload as usize)
    }

    fn from_fields(f: &[u64]) -> io::Result<Self> {
        let (watermarks, frontier) = f[CKPT_FIXED_FIELDS..].split_at(f[4] as usize);
        Ok(CheckpointRecord {
            seq: f[0],
            epoch: f[1],
            capsules: f[2],
            region_cursor: f[3],
            watermarks: watermarks.to_vec(),
            frontier: frontier.to_vec(),
        })
    }
}

/// Stores `words` into `slot` of `at` and zeroes the rest of the slot.
/// The tail goes first and the record in word order after it, so the
/// checksum is the last word to land.
fn store_words(page: &[AtomicU64], at: &MapEntry, slot: usize, words: &[u64]) {
    let cells = &page[at.slot_words(slot)];
    for cell in &cells[words.len()..] {
        cell.store(0, Ordering::SeqCst);
    }
    for (cell, w) in cells.iter().zip(words) {
        cell.store(*w, Ordering::SeqCst);
    }
}

/// Copies `slot` of the record's map entry out of `page` and decodes the
/// copy (see [`decode`]).
fn read_record<R: Record>(page: &[AtomicU64], slot: usize) -> io::Result<Option<R>> {
    let mut copy = [0u64; CHECKPOINTS.words];
    let copy = &mut copy[..R::AT.words];
    for (w, cell) in copy.iter_mut().zip(&page[R::AT.slot_words(slot)]) {
        *w = cell.load(Ordering::SeqCst);
    }
    decode(copy)
}

/// Typed access to a backend's control page
/// ([`crate::PersistentMemory::control`]). Reads return `None` for a
/// blank *or torn* record — callers keep their previous view; writes of
/// records the map marks synced return once the page is on stable
/// storage.
#[derive(Debug, Clone, Copy)]
pub struct ControlPage<'a> {
    backend: &'a dyn MemBackend,
}

impl<'a> ControlPage<'a> {
    /// The control page of `backend`.
    pub fn of(backend: &'a dyn MemBackend) -> Self {
        ControlPage { backend }
    }

    fn get<R: Record>(&self, slot: usize) -> Option<R> {
        read_record(self.backend.control(), slot).ok().flatten()
    }

    fn put<R: Record>(&self, slot: usize, rec: &R) -> io::Result<()> {
        store_words(self.backend.control(), &R::AT, slot, &encode(rec));
        self.sync(&R::AT)
    }

    fn sync(&self, at: &MapEntry) -> io::Result<()> {
        match at.synced {
            true => self.backend.flush_control(),
            false => Ok(()),
        }
    }

    /// The superblock (`None` on a volatile machine, which has none).
    pub fn superblock(&self) -> Option<Superblock> {
        self.get(0)
    }

    /// Rewrites the superblock and syncs it.
    pub fn write_superblock(&self, sb: &Superblock) -> io::Result<()> {
        self.put(0, sb)
    }

    /// Flushes every word, then records a clean shutdown in the
    /// superblock (if there is one), so a later open can tell this run
    /// did not crash.
    pub fn mark_clean(&self) -> io::Result<()> {
        self.backend.flush()?;
        match self.superblock() {
            Some(sb) => self.write_superblock(&Superblock {
                state: STATE_CLEAN,
                ..sb
            }),
            None => Ok(()),
        }
    }

    /// Durably writes a checkpoint record into slot `seq % 2`. Returns
    /// `false`, writing nothing, when the record does not
    /// [`CheckpointRecord::fits`].
    pub fn write_checkpoint(&self, record: &CheckpointRecord) -> io::Result<bool> {
        if !record.fits() {
            return Ok(false);
        }
        self.put(record.slot(), record).map(|()| true)
    }

    /// The newest valid checkpoint record. A torn slot is skipped, not
    /// fatal: the other slot holds the previous record.
    pub fn latest_checkpoint(&self) -> Option<CheckpointRecord> {
        (0..CHECKPOINTS.slots)
            .filter_map(|slot| self.get::<CheckpointRecord>(slot))
            .max_by_key(|r| r.seq)
    }

    /// Zeroes both checkpoint slots (a replay from the root resets the
    /// pool cursors the records' frontiers live above).
    pub fn clear_checkpoints(&self) -> io::Result<()> {
        for slot in 0..CHECKPOINTS.slots {
            store_words(self.backend.control(), &CHECKPOINTS, slot, &[]);
        }
        self.sync(&CHECKPOINTS)
    }

    /// The cluster header, if this is a sharded machine.
    pub fn cluster_header(&self) -> Option<ClusterHeader> {
        self.get(0)
    }

    /// Writes the cluster header — once, by the coordinator, before any
    /// worker exists — and syncs it, so a machine failure cannot orphan a
    /// sharded file without its geometry.
    pub fn write_cluster_header(&self, header: &ClusterHeader) -> io::Result<()> {
        self.put(0, header)
    }

    /// Shard `shard`'s lease.
    ///
    /// # Panics
    /// Panics if `shard >= MAX_SHARDS`.
    pub fn lease(&self, shard: usize) -> Option<Lease> {
        self.get(shard)
    }

    /// Rewrites shard `shard`'s lease: visible to every attached process
    /// at once, never synced.
    pub fn write_lease(&self, shard: usize, lease: &Lease) -> io::Result<()> {
        self.put(shard, lease)
    }

    /// The service header, if this is a job-service machine.
    pub fn service_header(&self) -> Option<ServiceHeader> {
        self.get(0)
    }

    /// Writes the service header (coordinator only) and syncs it.
    pub fn write_service_header(&self, header: &ServiceHeader) -> io::Result<()> {
        self.put(0, header)
    }
}

/// Every record of a control page, decoded from a plain copy of its
/// words — what an offline reader (a test, an example, an inspector) or
/// a backend validating a file before mapping it sees. Each field keeps
/// [`decode`]'s three-way answer: blank, torn (with the reason), valid.
#[derive(Debug)]
pub struct PageView {
    /// The superblock.
    pub superblock: io::Result<Option<Superblock>>,
    /// The cluster header.
    pub cluster: io::Result<Option<ClusterHeader>>,
    /// The lease table, one entry per possible shard.
    pub leases: Vec<io::Result<Option<Lease>>>,
    /// The service header.
    pub service: io::Result<Option<ServiceHeader>>,
    /// The two checkpoint slots.
    pub checkpoints: Vec<io::Result<Option<CheckpointRecord>>>,
}

impl PageView {
    /// Decodes every record of `page`. Pure, total: hostile words yield
    /// `Err` fields, never a panic.
    pub fn decode(page: &[u64; CONTROL_WORDS]) -> Self {
        fn slot<R: Record>(page: &[u64], slot: usize) -> io::Result<Option<R>> {
            decode(&page[R::AT.slot_words(slot)])
        }
        PageView {
            superblock: slot(page, 0),
            cluster: slot(page, 0),
            leases: (0..LEASES.slots).map(|s| slot(page, s)).collect(),
            service: slot(page, 0),
            checkpoints: (0..CHECKPOINTS.slots).map(|s| slot(page, s)).collect(),
        }
    }

    /// Reads and decodes the first page of `src`; `InvalidData` if it
    /// ends before a whole page.
    pub fn read_from(src: &mut impl io::Read) -> io::Result<Self> {
        let mut bytes = [0u8; SUPERBLOCK_BYTES];
        src.read_exact(&mut bytes).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => bad("file too short for a control page".into()),
            _ => e,
        })?;
        let mut page = [0u64; CONTROL_WORDS];
        for (w, b) in page.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        Ok(Self::decode(&page))
    }

    /// [`PageView::read_from`] the machine file at `path`.
    pub fn read_file(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::read_from(&mut std::fs::File::open(path)?)
    }

    /// The newest valid checkpoint record, as
    /// [`ControlPage::latest_checkpoint`] would pick it.
    pub fn latest_checkpoint(&self) -> Option<&CheckpointRecord> {
        self.checkpoints
            .iter()
            .filter_map(|slot| slot.as_ref().ok()?.as_ref())
            .max_by_key(|r| r.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VolatileBackend;
    use crate::config::PmConfig;
    use std::fmt::Debug;

    fn superblock() -> Superblock {
        Superblock::describe(&PmConfig::parallel(4, 1 << 20), 1 << 16)
    }

    fn checkpoint(seq: u64) -> CheckpointRecord {
        CheckpointRecord {
            seq,
            epoch: 3,
            capsules: 12_345,
            region_cursor: 4096,
            watermarks: vec![100, 200, 300],
            frontier: vec![0x4000, 0x4010, 0x8020],
        }
    }

    const LEASE: Lease = Lease {
        state: LeaseState::Alive,
        seq: 41,
        deadline_ms: 123_456,
    };

    /// `rec` padded to its slot, as a reader copies it out.
    fn slot_of<R: Record>(rec: &R) -> Vec<u64> {
        let mut slot = encode(rec);
        slot.resize(R::AT.words, 0);
        slot
    }

    /// The contract every record shares: it round-trips, a zeroed slot
    /// is blank, and a flipped bit anywhere under the checksum is an
    /// error — never a different record.
    fn round_trips_and_rejects_tears<R: Record + PartialEq + Debug>(rec: R) {
        let slot = slot_of(&rec);
        assert_eq!(decode::<R>(&slot).unwrap().as_ref(), Some(&rec));
        assert!(decode::<R>(&vec![0; R::AT.words]).unwrap().is_none());
        for i in 0..encode(&rec).len() {
            let mut torn = slot.clone();
            torn[i] ^= 0x10;
            let err = decode::<R>(&torn).expect_err("a torn record must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        assert!(decode::<R>(&slot[..2]).is_err(), "short slot");
    }

    #[test]
    fn every_record_round_trips_and_rejects_tears() {
        round_trips_and_rejects_tears(superblock());
        round_trips_and_rejects_tears(ClusterHeader {
            shards: 4,
            lease_ms: 800,
            deque_slots: 1 << 14,
            seed: 0x5EED,
        });
        round_trips_and_rejects_tears(LEASE);
        round_trips_and_rejects_tears(ServiceHeader {
            state: ServiceState::Accepting,
            slots: 32,
            job_words: 64,
            ring_base: 4096,
            workspace_base: 8192,
        });
        round_trips_and_rejects_tears(checkpoint(7));
    }

    /// A slot holding a record as the previous format wrote it — magic
    /// `PPMCKPT1`, no `region_cursor`, a valid checksum — reads as absent:
    /// its words are never taken for a record of this format.
    #[test]
    fn a_record_without_a_region_cursor_reads_as_absent() {
        let old = checkpoint(7);
        let mut words = vec![u64::from_le_bytes(*b"PPMCKPT1")];
        words.extend([old.seq, old.epoch, old.capsules, 3, 3]);
        words.extend(&old.watermarks);
        words.extend(&old.frontier);
        words.push(fnv1a(&words));
        words.resize(CHECKPOINTS.words, 0);
        assert!(decode::<CheckpointRecord>(&words).is_err());

        let backend = VolatileBackend::new(4);
        let page = ControlPage::of(&backend);
        for (cell, w) in backend.control()[CHECKPOINTS.slot_words(1)]
            .iter()
            .zip(&words)
        {
            cell.store(*w, Ordering::SeqCst);
        }
        assert!(page.latest_checkpoint().is_none());
        assert!(page.write_checkpoint(&checkpoint(6)).unwrap());
        assert_eq!(page.latest_checkpoint(), Some(checkpoint(6)));
    }

    #[test]
    fn torn_write_rejected_by_checksum() {
        let mut slot = slot_of(&superblock());
        slot[2] ^= 0x01; // flip one epoch bit
        let err = decode::<Superblock>(&slot).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let mut slot = slot_of(&checkpoint(9));
        slot[8] ^= 0x40; // flip a watermark bit
        let err = decode::<CheckpointRecord>(&slot).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn superblock_fields_are_validated_under_a_valid_checksum() {
        // A crafted file can carry any fields with a correct checksum;
        // the word-count bound must reject it before any size arithmetic.
        let absurd = Superblock {
            persistent_words: u64::MAX / 4,
            ..superblock()
        };
        let err = decode::<Superblock>(&slot_of(&absurd)).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
        let future = Superblock {
            version: VERSION + 1,
            ..superblock()
        };
        assert!(decode::<Superblock>(&slot_of(&future)).is_err());
        let degenerate = Superblock {
            procs: 0,
            ..superblock()
        };
        assert!(decode::<Superblock>(&slot_of(&degenerate)).is_err());
    }

    #[test]
    fn clean_state_round_trips() {
        let sb = superblock();
        assert!(!sb.clean());
        let clean = Superblock {
            state: STATE_CLEAN,
            ..sb
        };
        assert!(decode::<Superblock>(&slot_of(&clean))
            .unwrap()
            .unwrap()
            .clean());
    }

    #[test]
    fn oversized_checkpoint_payload_rejected() {
        let mut rec = checkpoint(1);
        rec.frontier = vec![1; CKPT_MAX_PAYLOAD_WORDS];
        assert!(!rec.fits());
        rec.frontier
            .truncate(CKPT_MAX_PAYLOAD_WORDS - rec.watermarks.len());
        assert!(rec.fits());
        assert_eq!(encode(&rec).len(), CHECKPOINTS.words, "a full slot");
        assert_eq!(decode(&slot_of(&rec)).unwrap(), Some(rec));
        // A crafted slot claiming an absurd payload is rejected before
        // any out-of-bounds word read.
        let mut slot = slot_of(&checkpoint(1));
        slot[5] = u64::MAX;
        assert!(decode::<CheckpointRecord>(&slot).is_err());
    }

    #[test]
    fn page_offsets_are_the_format() {
        assert_eq!(VERSION, 2);
        assert_eq!(SUPERBLOCK.slot_offset(0), 0);
        assert_eq!(CLUSTER_HEADER.slot_offset(0), 128);
        assert_eq!(LEASES.slot_offset(0), 256);
        assert_eq!(LEASES.slot_offset(MAX_SHARDS - 1), 256 + 32 * 15);
        assert_eq!(SERVICE_HEADER.slot_offset(0), 768);
        assert_eq!(CHECKPOINTS.slot_offset(0), 1024);
        assert_eq!(CHECKPOINTS.slot_offset(1), 2560);
        assert_eq!(CHECKPOINTS.words * 8, 1536);
    }

    #[test]
    fn typed_accessors_share_one_heap_page() {
        let backend = VolatileBackend::new(4);
        let page = ControlPage::of(&backend);
        assert!(page.superblock().is_none());
        assert!(page.cluster_header().is_none());
        assert!(page.service_header().is_none());
        assert!(page.latest_checkpoint().is_none());
        page.mark_clean().unwrap(); // no superblock: just the flush

        page.write_superblock(&superblock()).unwrap();
        page.write_lease(3, &LEASE).unwrap();
        assert!(page.write_checkpoint(&checkpoint(6)).unwrap());
        assert!(page.write_checkpoint(&checkpoint(7)).unwrap());
        page.mark_clean().unwrap();
        assert!(page.superblock().unwrap().clean());
        assert_eq!(page.lease(3), Some(LEASE));
        assert!(page.lease(2).is_none(), "blank slot stays blank");
        assert_eq!(page.latest_checkpoint(), Some(checkpoint(7)));

        // Tear the newest slot: the previous record is the fallback.
        let word = CHECKPOINTS.slot_words(1).start + 2;
        backend.control()[word].fetch_xor(0xFF, Ordering::SeqCst);
        assert_eq!(page.latest_checkpoint(), Some(checkpoint(6)));
        page.clear_checkpoints().unwrap();
        assert!(page.latest_checkpoint().is_none());

        // A shorter record over a longer one leaves no stale tail.
        let mut long = checkpoint(8);
        long.frontier = vec![9; 40];
        assert!(page.write_checkpoint(&long).unwrap());
        assert!(page.write_checkpoint(&checkpoint(10)).unwrap());
        let used = encode(&checkpoint(10)).len();
        let slot = CHECKPOINTS.slot_words(0);
        assert!(backend.control()[slot.start + used..slot.end]
            .iter()
            .all(|w| w.load(Ordering::SeqCst) == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lease_slot_past_the_table_panics() {
        let backend = VolatileBackend::new(4);
        ControlPage::of(&backend).lease(MAX_SHARDS);
    }

    #[test]
    fn short_file_is_invalid_data_not_a_panic() {
        let err = PageView::read_from(&mut &[0u8; 100][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
