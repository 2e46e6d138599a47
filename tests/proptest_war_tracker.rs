//! The write-after-read tracker is an open-addressed, generation-stamped
//! table of 64-word lines, two bit masks a line; the check it implements
//! is the one a plain word-by-word first-access map states. This file
//! drives both with the same operations and demands the same verdict at
//! every step, in every mode: same return value, same conflict count, same
//! `Strict` panic message.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ppm::pm::validate::WarTracker;
use ppm::pm::{MemStats, ValidateMode};
use proptest::prelude::*;

/// One tracker operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Reset,
    Read(usize),
    /// A store or a CAM: the tracker sees both as a word write.
    Write(usize),
    ReadBlock(usize, usize),
    WriteBlock(usize, usize),
}

/// What one operation did: the conflicts it reported (word writes return
/// theirs; block writes only count them) or the panic it raised.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Done { conflict: bool },
    Panicked(String),
}

/// The reference: the first access of the running capsule to each word,
/// in a `HashMap` (`true` = it was a write), cleared at every reset.
struct Model {
    mode: ValidateMode,
    first_was_write: HashMap<usize, bool>,
    name: String,
    conflicts: u64,
}

impl Model {
    fn new(mode: ValidateMode) -> Self {
        Model {
            mode,
            first_was_write: HashMap::new(),
            name: String::new(),
            conflicts: 0,
        }
    }

    fn write(&mut self, addr: usize) -> Result<bool, String> {
        match self.first_was_write.get(&addr) {
            Some(false) if self.mode == ValidateMode::Strict => Err(format!(
                "write-after-read conflict in capsule `{}` at word {}: \
                 the first access to this word was a read, and the capsule \
                 later wrote it — on restart the capsule would observe its \
                 own partial effects (violates Theorem 3.1's hypothesis)",
                self.name, addr
            )),
            Some(false) => {
                self.conflicts += 1;
                Ok(true)
            }
            Some(true) => Ok(false),
            None => {
                self.first_was_write.insert(addr, true);
                Ok(false)
            }
        }
    }

    fn apply(&mut self, op: Op, name: &str) -> Verdict {
        if self.mode == ValidateMode::Off {
            return Verdict::Done { conflict: false };
        }
        let mut conflict = false;
        match op {
            Op::Reset => {
                self.first_was_write.clear();
                self.name = name.to_string();
            }
            Op::Read(a) => {
                self.first_was_write.entry(a).or_insert(false);
            }
            Op::Write(a) => match self.write(a) {
                Ok(c) => conflict = c,
                Err(msg) => return Verdict::Panicked(msg),
            },
            Op::ReadBlock(start, len) => {
                for a in start..start + len {
                    self.first_was_write.entry(a).or_insert(false);
                }
            }
            Op::WriteBlock(start, len) => {
                for a in start..start + len {
                    if let Err(msg) = self.write(a) {
                        return Verdict::Panicked(msg);
                    }
                }
            }
        }
        Verdict::Done { conflict }
    }
}

fn apply_real(t: &mut WarTracker, stats: &MemStats, op: Op, name: &'static str) -> Verdict {
    let run = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Reset => {
            t.reset(name);
            false
        }
        Op::Read(a) => {
            t.on_read(a);
            false
        }
        Op::Write(a) => t.on_write(a, stats),
        Op::ReadBlock(start, len) => {
            t.on_read_block(start, len);
            false
        }
        Op::WriteBlock(start, len) => {
            t.on_write_block(start, len, stats);
            false
        }
    }));
    match run {
        Ok(conflict) => Verdict::Done { conflict },
        Err(payload) => Verdict::Panicked(
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into()),
        ),
    }
}

/// The expected `Strict` panics would otherwise print once per caught
/// conflict; every other panic (a failed assertion) still prints.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("write-after-read conflict"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// Runs `ops` through the tracker and the model in `mode`, comparing the
/// verdict of every step and the conflict count after each.
fn check(mode: ValidateMode, ops: impl IntoIterator<Item = Op>) {
    quiet_expected_panics();
    let mut real = WarTracker::new(mode);
    let stats = MemStats::new(1);
    let mut model = Model::new(mode);
    // A handful of distinct names, so the name copy is exercised too.
    let names = [
        "prefix/up",
        "ssort/scatter",
        "msort/merge",
        "popBottom",
        "t",
    ];
    let mut capsule = 0;
    // Both start inside a first capsule, as `ProcCtx::begin_capsule` does.
    for (step, op) in std::iter::once(Op::Reset).chain(ops).enumerate() {
        if matches!(op, Op::Reset) {
            capsule += 1;
        }
        let name = names[capsule % names.len()];
        let want = model.apply(op, name);
        let got = apply_real(&mut real, &stats, op, name);
        assert_eq!(got, want, "{mode:?} step {step}: {op:?}");
        assert_eq!(
            stats.snapshot().war_conflicts,
            model.conflicts,
            "{mode:?} conflict count after step {step}: {op:?}"
        );
    }
}

const MODES: [ValidateMode; 3] = [
    ValidateMode::Strict,
    ValidateMode::Record,
    ValidateMode::Off,
];

/// Decodes 64 generated bits into an operation on `addr_space` words.
/// Resets are one op in eight, so capsules average seven accesses but some
/// run to dozens — enough to double the 64-slot table mid-capsule.
fn decode(bits: u64, addr_space: usize, max_len: usize) -> Op {
    let addr = (bits >> 8) as usize % addr_space;
    let len = 1 + (bits >> 40) as usize % max_len;
    match bits % 8 {
        0 => Op::Reset,
        1 | 2 => Op::Read(addr),
        3 | 4 => Op::Write(addr),
        5 => Op::ReadBlock(addr, len),
        _ => Op::WriteBlock(addr, len),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense address space: most words are touched more than once per
    /// capsule, so every verdict (fresh, owned, exposed) occurs.
    #[test]
    fn random_sequences_dense(ops in prop::collection::vec(any::<u64>(), 1..400)) {
        for mode in MODES {
            check(mode, ops.iter().map(|&bits| decode(bits, 96, 16)));
        }
    }

    /// Sparse, block-strided and huge addresses: the hash sees the
    /// patterns frames and 8-word blocks produce.
    #[test]
    fn random_sequences_sparse(
        ops in prop::collection::vec(any::<u64>(), 1..300),
        high in any::<u32>(),
    ) {
        let base = (high as usize) << 24;
        let strided = |bits| match decode(bits, 1 << 17, 8) {
            Op::Reset => Op::Reset,
            Op::Read(a) => Op::Read(base + a * 8),
            Op::Write(a) => Op::Write(base + a * 8),
            Op::ReadBlock(a, l) => Op::ReadBlock(base + a * 8, l),
            Op::WriteBlock(a, l) => Op::WriteBlock(base + a * 8, l),
        };
        for mode in MODES {
            check(mode, ops.iter().map(|&bits| strided(bits)));
        }
    }

    /// Long ranges at arbitrary offsets: most straddle a 64-word line,
    /// many cover a whole line and both its neighbours (`len` up to 200),
    /// and they overlap each other and the word operations between them.
    #[test]
    fn random_sequences_long_ranges(ops in prop::collection::vec(any::<u64>(), 1..200)) {
        for mode in MODES {
            check(mode, ops.iter().map(|&bits| decode(bits, 640, 200)));
        }
    }

    /// Blocks whose size does not divide 64 (so aligned blocks straddle
    /// lines), at addresses of 2³² and far above.
    #[test]
    fn random_sequences_odd_blocks_high_addresses(
        ops in prop::collection::vec(any::<u64>(), 1..300),
        high in any::<u32>(),
        pick in any::<u8>(),
    ) {
        let block = [3usize, 12, 24, 48, 100][pick as usize % 5];
        let base = (1usize << 32) + ((high as usize) << 24);
        let blocked = |bits| match decode(bits, 64, block) {
            Op::Reset => Op::Reset,
            Op::Read(a) => Op::Read(base + a),
            Op::Write(a) => Op::Write(base + a),
            // A transfer inside one block, as `ProcCtx` bounds them.
            Op::ReadBlock(a, l) => Op::ReadBlock(base + a * block, l),
            Op::WriteBlock(a, l) => Op::WriteBlock(base + a * block, l),
        };
        for mode in MODES {
            check(mode, ops.iter().map(|&bits| blocked(bits)));
        }
    }
}

#[test]
fn growth_in_the_middle_of_a_capsule_keeps_every_first_access() {
    for mode in MODES {
        let mut ops = Vec::new();
        // Expose 3000 scattered words one by one (the table doubles six
        // times under them), own 500 others, then write all of them: the
        // exposed ones conflict, the owned ones do not.
        ops.extend((0..3000).map(|i| Op::Read(i * 7)));
        ops.extend((0..500).map(|i| Op::Write(100_000 + i * 3)));
        ops.extend((0..3000).map(|i| Op::Write(i * 7)));
        ops.extend((0..500).map(|i| Op::Write(100_000 + i * 3)));
        // A block write that doubles the table half-way through itself
        // (48 live slots is the first threshold), over a half-exposed range.
        ops.push(Op::Reset);
        ops.push(Op::ReadBlock(40, 8));
        ops.extend((0..36).map(|i| Op::Read(1000 + i)));
        ops.push(Op::WriteBlock(24, 24));
        check(mode, ops);
    }
}

/// Writes, word by word, `[start, start + len)`: the step-by-step verdicts
/// show what the tracker holds for each word of a range.
fn probe_words(start: usize, len: usize) -> impl Iterator<Item = Op> {
    (start..start + len).map(Op::Write)
}

#[test]
fn a_strict_panic_mid_range_records_exactly_the_words_below_it() {
    // Words 70 and 130 are exposed; a 100-word write over [60, 160) spans
    // three lines and conflicts in the second and third. `Strict` panics
    // at 70 having recorded 60..70 as written and nothing above; `Record`
    // counts two conflicts and owns the other 98 words. The capsule then
    // goes on: every later verdict depends on which it was.
    for mode in MODES {
        let mut ops = vec![Op::Read(70), Op::Read(130), Op::WriteBlock(60, 100)];
        ops.extend([Op::Read(65), Op::Write(65)]); // below the conflict: owned
        ops.extend([Op::Read(100), Op::Write(100)]); // above it: fresh in Strict
        ops.push(Op::WriteBlock(60, 100)); // the same panic again
        ops.push(Op::WriteBlock(128, 64)); // a range that starts on the line of 130
        ops.push(Op::ReadBlock(0, 256));
        ops.extend(probe_words(56, 112));
        // The lowest conflict on the range's *first* line, with the range
        // starting mid-line: nothing at all is recorded.
        ops.extend([Op::Reset, Op::Read(3), Op::WriteBlock(3, 200)]);
        ops.extend(probe_words(0, 210));
        check(mode, ops);
    }
}

#[test]
fn ranges_that_straddle_lines_touch_only_their_own_words() {
    for mode in MODES {
        let mut ops = Vec::new();
        // Every (offset, length) around one and two line boundaries,
        // written then read back word by word on both sides.
        for (start, len) in [
            (63, 2),
            (60, 8),
            (1, 63),
            (1, 64),
            (0, 65),
            (63, 130),
            (64, 64),
        ] {
            ops.push(Op::Reset);
            ops.push(Op::ReadBlock(start, len));
            ops.extend(probe_words(start.saturating_sub(2), len + 4));
            ops.push(Op::Reset);
            ops.push(Op::WriteBlock(start, len));
            ops.push(Op::ReadBlock(start.saturating_sub(2), len + 4));
            ops.extend(probe_words(start.saturating_sub(2), len + 4));
        }
        // Empty ranges, also at a line boundary, record nothing.
        ops.extend([Op::Reset, Op::ReadBlock(64, 0), Op::WriteBlock(128, 0)]);
        ops.extend([
            Op::Read(7),
            Op::WriteBlock(7, 0),
            Op::Write(64),
            Op::Write(128),
        ]);
        check(mode, ops);
    }
}

#[test]
fn growth_while_a_multi_line_range_is_being_recorded() {
    for mode in MODES {
        let mut ops = Vec::new();
        // 40 lines live (one exposed word each), then a read of 30 further
        // lines: the 64-slot table doubles at its 48th line, a third of
        // the way through the range.
        ops.extend((0..40).map(|i| Op::Read(100_000 + i * 64 + i)));
        ops.push(Op::ReadBlock(5, 30 * 64));
        // A write over both: it doubles the table again while it runs, and
        // in `Strict` panics at the first exposed word with growth behind it.
        ops.push(Op::WriteBlock(30 * 64 - 10, 140 * 64));
        ops.extend(probe_words(30 * 64 - 20, 40));
        ops.extend((0..40).map(|i| Op::Write(100_000 + i * 64 + i)));
        // The same with the write first, so `Strict` runs the growth too:
        // one 6400-word write through a table of 64 slots.
        ops.extend([Op::Reset, Op::Read(99), Op::WriteBlock(100, 6400)]);
        ops.extend([Op::ReadBlock(0, 6600), Op::WriteBlock(6500, 200)]);
        ops.extend(probe_words(90, 20));
        ops.extend(probe_words(6490, 30));
        check(mode, ops);
    }
}

#[test]
fn a_big_capsule_does_not_change_the_small_ones_after_it() {
    // The sticky-capacity case: one 4096-word block capsule sizes the
    // table for good; the 10 000 three-access capsules that follow must
    // still start empty, each of them.
    for mode in MODES {
        let mut ops = vec![Op::ReadBlock(0, 4096), Op::WriteBlock(4096, 4096)];
        for c in 0..10_000usize {
            let a = (c * 37) % 8192;
            ops.push(Op::Reset);
            ops.push(Op::Write(a)); // the big capsule read or wrote it: no matter
            ops.push(Op::Read((a + 1) % 8192));
            ops.push(Op::Write((a + 1) % 8192)); // exposed by this capsule
        }
        check(mode, ops);
    }
}

#[test]
fn exposure_never_leaks_across_many_generations() {
    // 2^17 + 5 resets: more than any 16-bit stamp could tell apart. Two
    // words swap roles every capsule: the one the previous capsule exposed
    // is written first (fresh again, so fine), the one it owned is read and
    // then written (exposed by *this* capsule, so a conflict).
    for mode in MODES {
        let ops = (0..(1usize << 17) + 5).flat_map(|c| {
            let (a, b) = (7 + c % 2, 8 - c % 2);
            [Op::Write(a), Op::Read(b), Op::Write(b), Op::Reset]
        });
        check(mode, ops);
    }
}
