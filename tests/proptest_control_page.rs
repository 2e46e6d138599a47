//! What one control-page codec buys (`ppm::pm::control`): the format is
//! pinned byte for byte against a page the previous, byte-slicing codec
//! wrote (its checkpoint slots against this format's own capture, since
//! the record grew a field); hostile bytes in the page yield a structured error or a sound
//! fallback, never a panic or a record whose checksum covers less than
//! it trusts; and no reader ever sees a mix of two writes, for any
//! record — checkpoint slots included, which used to be a byte copy
//! under an in-process lock.

#![cfg(unix)]

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use ppm::pm::control::{
    encode, ControlPage, PageView, Record, CHECKPOINTS, CLUSTER_HEADER, CONTROL_WORDS, LEASES,
    SERVICE_HEADER, SUPERBLOCK, VERSION,
};
use ppm::pm::{
    CheckpointRecord, ClusterHeader, Lease, LeaseState, MemBackend, MmapBackend, PmConfig,
    ServiceHeader, ServiceState, Superblock, TempMachineFile, VolatileBackend, SUPERBLOCK_BYTES,
};

// ====================================================================
// The fixed page
// ====================================================================

/// The non-zero runs `(byte offset, hex)` of one control page, captured
/// at commit f5aea0c with `Superblock::encode_into(&mut [u8])`,
/// `CheckpointRecord::encode_into(&mut [u8])` and the word codecs of
/// `lease.rs` / `pm/service.rs` — the last commit that had them. Every
/// byte not listed is zero. The values are [`fixed_page`]'s. Since then
/// the superblock's version word (and so its checksum) has moved: 1 → 2,
/// when the per-processor metadata block grew a scheduler-record journal
/// and every address behind it shifted. And the checkpoint record grew a
/// `region_cursor` field under a new magic ([`CHECKPOINTS_V2`]): the two
/// checkpoint runs below are the old format, which now reads as absent.
const PARENT_PAGE: &[(usize, &str)] = &[
    (0, "50504d445552310002000000000000000300000000000000010000000000000004000000000000000000100000000000000200000000000010000000000000000010000000000000e8ea7f75db07fbd8"),
    (128, "50504d434c5354311000000000000000bc020000000000000010000000000000eeffc00000000000caf9d2ca1b2a5082"),
    (256, "01000000000000002900000000000000404ae7cf8b010000c15862ac7e44f1b80200000000000000ffffffffffffffff00000000000000003fe5ea57e8747d4a"),
    (736, "03000000000000000900000000000000e76be5cf8b0100008540fb74d2fecb9850504d5356433031020000000000000020000000000000004000000000000000000001000000000000010100000000000000000000000000d862698a1b5ec837"),
    (1024, "50504d434b50543106000000000000000300000000000000701700000000000003000000000000000500000000000000800100000000000000030000000000008004000000000000064000000000000016400000000000002680000000000000368000000000000046c0000000000000f7febd3b7f1e86f2"),
    (2560, "50504d434b50543107000000000000000300000000000000581b00000000000003000000000000000500000000000000c00100000000000080030000000000004005000000000000074000000000000017400000000000002780000000000000378000000000000047c0000000000000a46eaec32c0e2036"),
];

/// The two checkpoint slots as this format writes [`fixed_page`]'s
/// records: magic `PPMCKPT2`, and `region_cursor` (0x2000) after
/// `capsules`. Everything else on the page is [`PARENT_PAGE`]'s.
const CHECKPOINTS_V2: [(usize, &str); 2] = [
    (1024, "50504d434b505432060000000000000003000000000000007017000000000000002000000000000003000000000000000500000000000000800100000000000000030000000000008004000000000000064000000000000016400000000000002680000000000000368000000000000046c000000000000002efb984337a058e"),
    (2560, "50504d434b50543207000000000000000300000000000000581b000000000000002000000000000003000000000000000500000000000000c00100000000000080030000000000004005000000000000074000000000000017400000000000002780000000000000378000000000000047c00000000000007d532678dbe79d9b"),
];

/// The superblock run of the page as version 1 wrote it.
const SUPERBLOCK_V1: (usize, &str) = (0, "50504d445552310001000000000000000300000000000000010000000000000004000000000000000000100000000000000200000000000010000000000000000010000000000000c7a2ca9680f0404d");

fn parent_page() -> Vec<u8> {
    page_of(PARENT_PAGE)
}

/// The page this codec writes for [`fixed_page`]: the parent's, but for
/// the checkpoint slots.
fn current_page() -> Vec<u8> {
    let slots = CHECKPOINTS_V2.map(|(at, _)| at);
    let kept = PARENT_PAGE.iter().filter(|(at, _)| !slots.contains(at));
    page_of(&kept.chain(&CHECKPOINTS_V2).copied().collect::<Vec<_>>())
}

fn page_of(runs: &[(usize, &str)]) -> Vec<u8> {
    let mut page = vec![0u8; SUPERBLOCK_BYTES];
    for (offset, hex) in runs {
        for (i, pair) in hex.as_bytes().chunks_exact(2).enumerate() {
            let pair = std::str::from_utf8(pair).unwrap();
            page[offset + i] = u8::from_str_radix(pair, 16).unwrap();
        }
    }
    page
}

/// Everything [`PARENT_PAGE`] holds, as values.
struct FixedPage {
    superblock: Superblock,
    checkpoints: [CheckpointRecord; 2],
    cluster: ClusterHeader,
    leases: [(usize, Lease); 3],
    service: ServiceHeader,
}

fn checkpoint(seq: u64, epoch: u64) -> CheckpointRecord {
    CheckpointRecord {
        seq,
        epoch,
        capsules: 1000 * seq,
        region_cursor: 0x2000,
        watermarks: vec![64 * seq, 128 * seq, 192 * seq],
        frontier: [0x4000, 0x4010, 0x8020, 0x8030, 0xC040]
            .iter()
            .map(|h| h + seq)
            .collect(),
    }
}

fn fixed_page() -> FixedPage {
    let cfg = PmConfig::parallel(4, 1 << 20)
        .with_block_size(16)
        .with_ephemeral_words(512);
    let lease = |state, seq, deadline_ms| Lease {
        state,
        seq,
        deadline_ms,
    };
    FixedPage {
        superblock: Superblock {
            epoch: 3,
            ..Superblock::describe(&cfg, 1 << 12)
        },
        checkpoints: [checkpoint(6, 3), checkpoint(7, 3)],
        cluster: ClusterHeader {
            shards: 16,
            lease_ms: 700,
            deque_slots: 4096,
            seed: 0xC0FFEE,
        },
        leases: [
            (0, lease(LeaseState::Alive, 41, 1_700_000_123_456)),
            (1, lease(LeaseState::Done, u64::MAX, 0)),
            (15, lease(LeaseState::Dead, 9, 1_700_000_000_999)),
        ],
        service: ServiceHeader {
            state: ServiceState::Draining,
            slots: 32,
            job_words: 64,
            ring_base: 0x1_0000,
            workspace_base: 0x1_0100,
        },
    }
}

/// Writes `fixed` through the typed accessors — the one write path.
fn write_fixed(page: ControlPage<'_>, fixed: &FixedPage) {
    page.write_superblock(&fixed.superblock).unwrap();
    for rec in &fixed.checkpoints {
        assert!(page.write_checkpoint(rec).unwrap());
    }
    page.write_cluster_header(&fixed.cluster).unwrap();
    for (shard, lease) in &fixed.leases {
        page.write_lease(*shard, lease).unwrap();
    }
    page.write_service_header(&fixed.service).unwrap();
}

fn words_of(bytes: &[u8]) -> [u64; CONTROL_WORDS] {
    let mut words = [0u64; CONTROL_WORDS];
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_le_bytes(b.try_into().unwrap());
    }
    words
}

/// A volatile backend whose heap control page holds `words`.
fn heap_page(words: &[u64; CONTROL_WORDS]) -> VolatileBackend {
    let backend = VolatileBackend::new(0);
    for (cell, w) in backend.control().iter().zip(words) {
        cell.store(*w, Ordering::SeqCst);
    }
    backend
}

fn valid<R>(found: &io::Result<Option<R>>) -> Option<&R> {
    found.as_ref().ok()?.as_ref()
}

// ====================================================================
// (a) Format stability
// ====================================================================

#[test]
fn the_word_codec_writes_the_bytes_the_byte_codec_wrote() {
    assert_eq!(VERSION, 2);
    let offsets = [
        SUPERBLOCK.slot_offset(0),
        CLUSTER_HEADER.slot_offset(0),
        LEASES.slot_offset(0),
        LEASES.slot_offset(1),
        SERVICE_HEADER.slot_offset(0),
        CHECKPOINTS.slot_offset(0),
        CHECKPOINTS.slot_offset(1),
    ];
    assert_eq!(offsets, [0, 128, 256, 288, 768, 1024, 2560]);
    assert_eq!(CHECKPOINTS.words * 8, 1536);

    let fixed = fixed_page();
    let backend = VolatileBackend::new(0);
    write_fixed(ControlPage::of(&backend), &fixed);
    let written: Vec<u8> = backend
        .control()
        .iter()
        .flat_map(|w| w.load(Ordering::SeqCst).to_le_bytes())
        .collect();
    // Every byte outside the checkpoint slots is still the parent's.
    let pinned = current_page();
    assert_eq!(written.len(), SUPERBLOCK_BYTES);
    if let Some(at) = (0..SUPERBLOCK_BYTES).find(|i| written[*i] != pinned[*i]) {
        panic!("control page differs from the pinned one at byte {at}");
    }
}

#[test]
fn a_page_the_parent_wrote_decodes_to_the_values_that_went_in() {
    let fixed = fixed_page();
    let view = PageView::decode(&words_of(&parent_page()));
    assert_eq!(valid(&view.superblock), Some(&fixed.superblock));
    assert_eq!(valid(&view.cluster), Some(&fixed.cluster));
    assert_eq!(valid(&view.service), Some(&fixed.service));
    // The parent's checkpoint records carry no region cursor: refused
    // by their magic, never read as records of this format.
    for found in &view.checkpoints {
        assert!(found.is_err(), "{found:?}");
    }
    assert_eq!(view.latest_checkpoint(), None);
    let current = PageView::decode(&words_of(&current_page()));
    for (slot, rec) in fixed.checkpoints.iter().enumerate() {
        assert_eq!(valid(&current.checkpoints[slot]), Some(rec));
    }
    assert_eq!(current.latest_checkpoint(), Some(&fixed.checkpoints[1]));
    for (shard, found) in view.leases.iter().enumerate() {
        let expected = fixed.leases.iter().find(|(s, _)| *s == shard);
        assert_eq!(valid(found), expected.map(|(_, l)| l), "lease {shard}");
        assert!(found.is_ok(), "a blank lease slot is blank, not torn");
    }
}

/// The fixed page at the head of a file sized for its superblock.
fn parent_file(tag: &str, page: &[u8]) -> (TempMachineFile, u64) {
    let file = TempMachineFile::new(tag);
    std::fs::write(file.path(), page).unwrap();
    let len = (SUPERBLOCK_BYTES as u64) + fixed_page().superblock.persistent_words * 8;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(file.path())
        .unwrap();
    f.set_len(len).unwrap();
    (file, len)
}

#[test]
fn a_file_the_parent_wrote_opens() {
    let fixed = fixed_page();
    let (file, len) = parent_file("control-parent-file", &parent_page());
    let (backend, found) = MmapBackend::open(file.path()).unwrap();
    assert_eq!(found, fixed.superblock);
    assert_eq!(
        (SUPERBLOCK_BYTES + backend.words().len() * 8) as u64,
        len,
        "the mapping covers the file"
    );
    let page = ControlPage::of(&backend);
    assert_eq!(page.superblock().unwrap().epoch, fixed.superblock.epoch + 1);
    assert_eq!(
        page.latest_checkpoint(),
        None,
        "the parent's records read as absent"
    );
    assert_eq!(page.cluster_header(), Some(fixed.cluster));
    assert_eq!(page.lease(15), Some(fixed.leases[2].1));
    assert_eq!(page.service_header(), Some(fixed.service));

    // The same file as version 1 laid it out is refused, not misread:
    // its metadata blocks are half the size this build expects.
    let (v1, _) = parent_file("control-v1-file", &page_of(&[SUPERBLOCK_V1]));
    let err = MmapBackend::open(v1.path()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("version 1") && msg.contains("reads 2"),
        "{msg}"
    );
}

// ====================================================================
// (b) Hostile bytes
// ====================================================================

/// A record the view reports valid re-encodes to exactly the words it
/// was read from: nothing it carries came from outside its checksum.
fn assert_reencodes<R: Record>(
    found: &io::Result<Option<R>>,
    slot: usize,
    words: &[u64; CONTROL_WORDS],
) {
    if let Some(rec) = valid(found) {
        let encoded = encode(rec);
        let start = R::AT.slot_words(slot).start;
        assert_eq!(
            encoded[..],
            words[start..start + encoded.len()],
            "{} slot {slot}",
            R::AT.name
        );
    }
}

proptest! {
    /// From the fixed page: random bit flips, zeroed ranges, and a
    /// checkpoint slot spliced in from a page of another epoch.
    #[test]
    fn hostile_bytes_never_panic_and_never_win(
        flips in prop::collection::vec(any::<u64>(), 0..6),
        zeroed in prop::collection::vec(any::<u64>(), 0..3),
        splice in any::<u64>(),
    ) {
        let fixed = fixed_page();
        let mut bytes = current_page();
        if splice & 1 == 1 {
            // Same file, later life: records 8 and 9 of epoch 9.
            let other = VolatileBackend::new(0);
            let page = ControlPage::of(&other);
            assert!(page.write_checkpoint(&checkpoint(8, 9)).unwrap());
            assert!(page.write_checkpoint(&checkpoint(9, 9)).unwrap());
            let (from, to) = ((splice >> 1) as usize & 1, (splice >> 2) as usize & 1);
            let words = &other.control()[CHECKPOINTS.slot_words(from)];
            let at = CHECKPOINTS.slot_offset(to);
            for (i, w) in words.iter().enumerate() {
                let w = w.load(Ordering::SeqCst).to_le_bytes();
                bytes[at + i * 8..at + i * 8 + 8].copy_from_slice(&w);
            }
        }
        for z in &zeroed {
            let start = (*z as usize) % SUPERBLOCK_BYTES;
            let len = (*z >> 16) as usize % 256;
            let end = (start + len).min(SUPERBLOCK_BYTES);
            bytes[start..end].fill(0);
        }
        for f in &flips {
            let bit = (*f as usize) % (SUPERBLOCK_BYTES * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }

        let words = words_of(&bytes);
        let view = PageView::decode(&words);
        assert_reencodes(&view.superblock, 0, &words);
        assert_reencodes(&view.cluster, 0, &words);
        assert_reencodes(&view.service, 0, &words);
        for (s, found) in view.leases.iter().enumerate() {
            assert_reencodes(found, s, &words);
        }
        for (s, found) in view.checkpoints.iter().enumerate() {
            assert_reencodes(found, s, &words);
        }

        // `latest` is the newest of the slots whose checksum held — a
        // failed slot falls back to the other — and the live page agrees
        // with the offline view.
        let newest = view.checkpoints.iter().filter_map(valid).max_by_key(|r| r.seq);
        prop_assert_eq!(view.latest_checkpoint(), newest);
        let live = heap_page(&words);
        prop_assert_eq!(ControlPage::of(&live).latest_checkpoint().as_ref(), newest);
        if valid(&view.checkpoints[1]).is_none() {
            prop_assert_eq!(newest, valid(&view.checkpoints[0]));
        }

        // The durable backend either refuses the file or maps exactly it.
        let (file, len) = parent_file("control-hostile", &bytes);
        match MmapBackend::open(file.path()) {
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
            Ok((backend, found)) => {
                prop_assert_eq!(found, fixed.superblock);
                prop_assert_eq!((SUPERBLOCK_BYTES + backend.words().len() * 8) as u64, len);
            }
        }
    }

    /// A file cut short of a whole page is refused, not sliced.
    #[test]
    fn truncated_page_is_invalid_data(keep in 0usize..SUPERBLOCK_BYTES) {
        let bytes = parent_page();
        let err = PageView::read_from(&mut &bytes[..keep]).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let file = TempMachineFile::new("control-truncated");
        std::fs::write(file.path(), &bytes[..keep]).unwrap();
        prop_assert_eq!(
            PageView::read_file(file.path()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let err = MmapBackend::open(file.path()).map(drop).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

// ====================================================================
// (c) Torn reads
// ====================================================================

#[test]
fn a_reader_racing_rewrites_sees_one_write_or_the_other_never_a_mix() {
    const REWRITES: usize = 100_000;
    let leases = [
        Lease {
            state: LeaseState::Alive,
            seq: 0x1111_1111_1111_1111,
            deadline_ms: 0x2222_2222_2222_2222,
        },
        Lease {
            state: LeaseState::Dead,
            seq: 0x3333_3333_3333_3333,
            deadline_ms: 0x4444_4444_4444_4444,
        },
    ];
    // Both odd: both land in slot 1. Different lengths, so a rewrite
    // also moves the checksum word.
    let records = [
        checkpoint(7, 3),
        CheckpointRecord {
            frontier: (0..40).map(|i| 0xF000 + i).collect(),
            ..checkpoint(9, 4)
        },
    ];
    let backend = VolatileBackend::new(0);
    let page = ControlPage::of(&backend);
    let done = AtomicBool::new(false);
    let (lease_reads, record_reads) = std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..REWRITES {
                page.write_lease(3, &leases[i % 2]).unwrap();
                assert!(page.write_checkpoint(&records[i % 2]).unwrap());
            }
            done.store(true, Ordering::Release);
        });
        let mut seen = (0usize, 0usize);
        while !done.load(Ordering::Acquire) {
            if let Some(lease) = page.lease(3) {
                assert!(leases.contains(&lease), "mixed lease {lease:?}");
                seen.0 += 1;
            }
            if let Some(record) = page.latest_checkpoint() {
                assert!(records.contains(&record), "mixed record {record:?}");
                seen.1 += 1;
            }
        }
        seen
    });
    assert_eq!(page.lease(3), Some(leases[1]));
    assert_eq!(page.latest_checkpoint().as_ref(), Some(&records[1]));
    assert!(lease_reads > 0 && record_reads > 0, "the reader never ran");
}
