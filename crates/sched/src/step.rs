//! Scheduler capsules as data: one `Copy` enum and one record codec.
//!
//! The paper keeps every closure in persistent memory (§4.1). A scheduler
//! capsule's closure is small — which capsule, and the handful of locals
//! that crossed the last `commit` — so it is a `SchedStep` variant here,
//! not a heap object: `Sched::run` (in [`crate::capsules`]) is the one
//! `match` over it, and `SchedStep::encode` / `SchedStep::decode` map it
//! to and from the [`SchedRecord`] the engine journals in the processor's
//! metadata block. Any process attached to the machine decodes the same
//! step from the same words, so a restart pointer parked on scheduler
//! code is as adoptable as one parked on a frame.
//!
//! ## The record
//!
//! ```text
//!   head   bits 0..5    kind (1..=25, but 4 and 16; 0 is "no record")
//!          bits 5..7    `then`: where a help capsule continues
//!          bits 7..15   `proc`: a processor — the deque owner / victim
//!          bit  15      zero
//!          bits 16..64  generation (the engine's)
//!   args   five words; each holds one 64-bit local (`at(k)`) or up to
//!          three small ones: `lo(k)` = bits 0..22 and `mid(k)` = bits
//!          22..44 (slot indices, a processor), `hi(k)` = bits 44..60 (a
//!          tag). Unused words and bits are zero.
//! ```
//!
//! The `steps!` table below *is* the packing table: one line per kind,
//! giving its number, its capsule name, whether the write-after-read
//! validator checks it, and where each local lives. Field names are
//! Figure 3's; `owner`/`v` index the scheduler's deques. The three help
//! capsules carry their continuation as the four-way `then` tag plus the
//! continuation's own locals `(i, new, f, n)`; a continuation into
//! `popTop/read` keeps its thief-side entry reference `(e_slot, thief, c)`
//! packed in the `new` word.
//!
//! The encoding is canonical: `decode` accepts exactly the words `encode`
//! produces, so hostile words are either rejected or denote the step they
//! would be re-encoded from.

use ppm_core::{SchedRecord, SCHED_ARG_WORDS};
use ppm_pm::Word;

const KIND_MASK: Word = 0x1F;
const IX_BITS: u32 = 22;

/// Where a local lives in a record: argument word `.0` (`HEAD` is the
/// head word), `.2` bits up from bit `.1`.
type Place = (usize, u32, u32);
const HEAD: usize = SCHED_ARG_WORDS;
const THEN: Place = (HEAD, 5, 2);
const PROC: Place = (HEAD, 7, 8);
const fn at(k: usize) -> Place {
    (k, 0, Word::BITS)
}
const fn lo(k: usize) -> Place {
    (k, 0, IX_BITS)
}
const fn mid(k: usize) -> Place {
    (k, IX_BITS, IX_BITS)
}
const fn hi(k: usize) -> Place {
    (k, 2 * IX_BITS, 16)
}

/// A record's six words, head last (the journal's order).
type Words = [Word; SchedRecord::WORDS];

fn put(ws: &mut Words, (k, shift, _): Place, v: Word) {
    ws[k] |= v << shift;
}

fn get(ws: &Words, (k, shift, bits): Place) -> Word {
    (ws[k] >> shift) & (Word::MAX >> (Word::BITS - bits))
}

/// Where `helpPopTop` continues once it has helped: Figure 3 calls it
/// from four places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Then {
    /// `popTop` proper, entered from a steal attempt.
    PopTopRead,
    /// Lines 41-42: a steal was in progress; having helped it, give up.
    Steal,
    /// The job-steal check (lines 48-49).
    CheckJob,
    /// The local-steal check (lines 59-60).
    CheckLocal,
}

impl Then {
    /// The continuation, on victim deque `v`, from the locals a help
    /// capsule carried for it.
    pub(crate) fn step(self, v: usize, i: usize, new: Word, f: Word, n: u64) -> SchedStep {
        match self {
            Then::PopTopRead => {
                let (thief, e_slot, c) = un_seat(new);
                SchedStep::PopTopRead(v, thief, e_slot, c, n)
            }
            Then::Steal => SchedStep::Steal(n),
            Then::CheckJob => SchedStep::PopTopCheck(v, i, new, f, n),
            Then::CheckLocal => SchedStep::PopTopCheckLocal(v, i, new, n),
        }
    }
}

impl TryFrom<Word> for Then {
    type Error = ();
    fn try_from(tag: Word) -> Result<Self, ()> {
        use Then::*;
        [PopTopRead, Steal, CheckJob, CheckLocal]
            .get(tag as usize)
            .copied()
            .ok_or(())
    }
}

/// A thief-side entry reference — the thief, its bottom slot, that slot's
/// tag — in one word, for a help capsule to carry to `popTop/read`: the
/// first argument word of the record it will turn into.
pub(crate) fn seat(thief: usize, e_slot: usize, c: u16) -> Word {
    SchedStep::PopTopRead(0, thief, e_slot, c, 0).encode().args[0]
}

fn un_seat(seat: Word) -> (usize, usize, u16) {
    let ws = [seat, 0, 0, 0, 0, 0];
    let part = |place| get(&ws, place);
    (
        part(mid(0)) as usize,
        part(lo(0)) as usize,
        part(hi(0)) as u16,
    )
}

/// A field of a step, passed through `steps!`'s `with_attempts`: the
/// attempt counter `n` is mapped, every other field kept.
macro_rules! attempts {
    (n $v:ident, $map:ident) => {
        $map($v)
    };
    ($other:ident $v:ident, $map:ident) => {
        $v
    };
}

/// From one table: the step enum (a tuple variant per kind, fields in
/// table order), its codec, and the per-kind name and validator policy.
macro_rules! steps {
    ($( $num:literal $name:ident $label:literal $war:ident
        ( $( $field:ident : $ty:ty = $place:expr ),* ) )*) => {
        /// One scheduler capsule: its kind and the locals its predecessor
        /// committed (see the `steps!` table for each variant's fields).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum SchedStep {
            $( #[doc = $label] $name($($ty),*), )*
        }

        impl SchedStep {
            /// The record denoting this step (generation unset: the
            /// engine stamps it at install).
            pub(crate) fn encode(self) -> SchedRecord {
                let mut ws = [0; SchedRecord::WORDS];
                match self {
                    $( SchedStep::$name($($field),*) => {
                        ws[HEAD] = $num;
                        $( put(&mut ws, $place, $field as Word); )*
                    } )*
                }
                SchedRecord::from_words(ws)
            }

            /// The step `rec` denotes, or `None` when its words are not
            /// exactly what `encode` writes for some step: a field that
            /// lost bits to its mask, a nonzero unused word or a stray
            /// head bit re-encodes differently. Never panics, whatever
            /// the words.
            pub(crate) fn decode(rec: &SchedRecord) -> Option<SchedStep> {
                let ws = rec.words(0);
                let step = match ws[HEAD] & KIND_MASK {
                    $( $num => SchedStep::$name($( <$ty>::try_from(get(&ws, $place)).ok()? ),*), )*
                    _ => return None,
                };
                (step.encode() == *rec).then_some(step)
            }

            /// This step with its steal-attempt counter `n`, if it
            /// carries one, mapped through `map_n`.
            pub(crate) fn with_attempts(self, map_n: impl Fn(u64) -> u64) -> SchedStep {
                match self {
                    $( SchedStep::$name($($field),*) =>
                        SchedStep::$name($( attempts!($field $field, map_n) ),*), )*
                }
            }
        }

        /// Diagnostic name of the capsule `rec` denotes.
        pub(crate) fn name(rec: &SchedRecord) -> &'static str {
            match rec.kind as Word & KIND_MASK {
                $( $num => $label, )*
                _ => "sched/?",
            }
        }

        /// Whether the write-after-read validator checks `rec`'s capsule.
        /// The two `unchecked` capsules read a deque entry and rewrite it
        /// in one capsule; their idempotence is the tag argument of
        /// Lemmas A.6/A.12, not Theorem 3.1. (`clearBottom` does too,
        /// but only in a prefix it exempts itself.)
        pub(crate) fn war_checked(rec: &SchedRecord) -> bool {
            const CHECKED: bool = true;
            const UNCHECKED: bool = false;
            match rec.kind as Word & KIND_MASK {
                $( $num => $war, )*
                _ => true,
            }
        }
    };
}

// Kinds 4 (`popBottom/check`, now the tail of `popBottom/cam`) and 16
// (`pushBottom/read`, now the tail of the forking capsule) are retired:
// a record of either decodes to nothing, and neither number is reused,
// so a file written before the fusion can never be misread as another
// step. `clearBottom` runs `popBottom/read`'s body and scopes its own
// write-after-read exemption (see `crate::capsules`).
steps! {
    1  ClearBottom      "sched/clearBottom"            CHECKED   ()
    2  PopBottomRead    "sched/popBottom/read"         CHECKED   ()
    3  PopBottomCam     "sched/popBottom/cam"          CHECKED   (owner: usize = PROC, b: usize = lo(2), old: Word = at(0), f: Word = at(1))
    5  Steal            "sched/steal"                  CHECKED   (n: u64 = at(0))
    6  HelpRead         "sched/help/read"              CHECKED   (v: usize = PROC, then: Then = THEN, i: usize = mid(4), new: Word = at(1), f: Word = at(2), n: u64 = at(3))
    7  HelpCamThief     "sched/help/camThief"          CHECKED   (v: usize = PROC, t: usize = lo(4), w: Word = at(0), then: Then = THEN, i: usize = mid(4), new: Word = at(1), f: Word = at(2), n: u64 = at(3))
    8  HelpCamTop       "sched/help/camTop"            CHECKED   (v: usize = PROC, t: usize = lo(4), then: Then = THEN, i: usize = mid(4), new: Word = at(1), f: Word = at(2), n: u64 = at(3))
    9  PopTopRead       "sched/popTop/read"            CHECKED   (v: usize = PROC, thief: usize = mid(0), e_slot: usize = lo(0), c: u16 = hi(0), n: u64 = at(1))
    10 PopTopCam        "sched/popTop/cam"             CHECKED   (v: usize = PROC, i: usize = lo(4), old: Word = at(0), new: Word = at(1), f: Word = at(2), n: u64 = at(3))
    11 PopTopCheck      "sched/popTop/check"           CHECKED   (v: usize = PROC, i: usize = lo(3), new: Word = at(0), f: Word = at(1), n: u64 = at(2))
    12 ClearAboveRead   "sched/popTop/clearAboveRead"  CHECKED   (v: usize = PROC, i: usize = lo(3), old: Word = at(0), new: Word = at(1), n: u64 = at(2))
    13 ClearAboveWrite  "sched/popTop/clearAboveWrite" CHECKED   (v: usize = PROC, i: usize = lo(3), old: Word = at(0), new: Word = at(1), above_tag: u16 = hi(3), n: u64 = at(2))
    14 PopTopCamLocal   "sched/popTop/camLocal"        CHECKED   (v: usize = PROC, i: usize = lo(3), old: Word = at(0), new: Word = at(1), n: u64 = at(2))
    15 PopTopCheckLocal "sched/popTop/checkLocal"      CHECKED   (v: usize = PROC, i: usize = lo(2), new: Word = at(0), n: u64 = at(1))
    17 PushBottomCommit "sched/pushBottom/commit"      UNCHECKED (owner: usize = PROC, b: usize = lo(2), t1: u16 = hi(2), t2: u16 = hi(3), f: Word = at(0), cont: Word = at(1))
    18 PullRead         "service/pull/read"            CHECKED   (slot: usize = lo(1), n: u64 = at(0))
    19 PullCam          "service/pull/cam"             CHECKED   (slot: usize = lo(3), claimant: usize = PROC, old: Word = at(0), entry: Word = at(1), ticket: Word = at(2))
    20 PullCheck        "service/pull/check"           CHECKED   (slot: usize = lo(3), claimed: Word = at(0), entry: Word = at(1), ticket: Word = at(2))
    21 PullSeat         "service/pull/seat"            UNCHECKED (slot: usize = lo(3), claimant: usize = PROC, old: Word = at(0), entry: Word = at(1), ticket: Word = at(2))
    22 EntryCam         "service/entry/cam"            CHECKED   (state_a: Word = at(0), old: Word = at(1), new: Word = at(2), job: Word = at(3))
    23 EntryCheck       "service/entry/check"          CHECKED   (state_a: Word = at(0), new: Word = at(1), job: Word = at(2))
    24 DoneCam          "service/done/cam"             CHECKED   (state_a: Word = at(0), old: Word = at(1), done_w: Word = at(2), ticket: Word = at(3))
    25 DoneCheck        "service/done/check"           CHECKED   (state_a: Word = at(0), done_w: Word = at(1), ticket: Word = at(2))
}

/// The processor field of `rec`'s head: the deque its step works on.
pub(crate) fn proc_of(rec: &SchedRecord) -> usize {
    get(&rec.words(0), PROC) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{MAX_HANDLE, MAX_PROCS, MAX_SLOTS};
    use proptest::prelude::*;

    /// Every kind (the help capsules under every `then`), built from one
    /// pool of field values.
    fn all_kinds(p: usize, s: usize, tag: u16, h: Word, w: [Word; 4]) -> Vec<SchedStep> {
        use SchedStep::*;
        let [old, new, n, x] = w;
        let q = MAX_PROCS - 1 - p;
        let mut steps = vec![
            ClearBottom(),
            PopBottomRead(),
            PopBottomCam(p, s, old, h),
            Steal(n),
            PopTopRead(p, q, s, tag, n),
            PopTopCam(p, s, old, new, h, n),
            PopTopCheck(p, s, new, h, n),
            ClearAboveRead(p, s, old, new, n),
            ClearAboveWrite(p, s, old, new, tag, n),
            PopTopCamLocal(p, s, old, new, n),
            PopTopCheckLocal(p, s, new, n),
            PushBottomCommit(p, s, tag, tag.wrapping_add(1), h, x),
            PullRead(s, n),
            PullCam(s, q, old, h, x),
            PullCheck(s, new, h, x),
            PullSeat(s, q, old, h, x),
            EntryCam(x, old, new, h),
            EntryCheck(x, new, h),
            DoneCam(x, old, new, n),
            DoneCheck(x, new, n),
        ];
        for then in [
            Then::PopTopRead,
            Then::Steal,
            Then::CheckJob,
            Then::CheckLocal,
        ] {
            steps.push(HelpRead(p, then, s, new, h, n));
            steps.push(HelpCamThief(p, s, old, then, MAX_SLOTS - 1 - s, new, h, n));
            steps.push(HelpCamTop(p, s, then, s, new, h, n));
        }
        steps
    }

    fn round_trips(steps: Vec<SchedStep>) {
        let mut seen = std::collections::BTreeSet::new();
        for step in steps {
            let rec = step.encode();
            assert_eq!(SchedStep::decode(&rec), Some(step), "{step:?} -> {rec:?}");
            assert_ne!(name(&rec), "sched/?");
            seen.insert(rec.kind & 0x1F);
        }
        assert_eq!(seen.len(), 23, "every kind exercised");
    }

    #[test]
    fn every_kind_round_trips_at_the_field_extremes() {
        for (p, s, tag, h) in [
            (0, 0, 0, 0),
            (MAX_PROCS - 1, MAX_SLOTS - 1, 0xFFFF, MAX_HANDLE),
        ] {
            round_trips(all_kinds(p, s, tag, h, [0; 4]));
            round_trips(all_kinds(p, s, tag, h, [Word::MAX; 4]));
        }
    }

    #[test]
    fn a_help_capsule_carries_its_continuation() {
        let (v, i, new, f, n) = (3, 9, 0xABCD, 0x4000, 77);
        assert_eq!(
            Then::PopTopRead.step(v, 0, seat(5, MAX_SLOTS - 1, 0xFFFF), 0, n),
            SchedStep::PopTopRead(v, 5, MAX_SLOTS - 1, 0xFFFF, n)
        );
        assert_eq!(Then::Steal.step(v, i, new, f, n), SchedStep::Steal(n));
        assert_eq!(
            Then::CheckJob.step(v, i, new, f, n),
            SchedStep::PopTopCheck(v, i, new, f, n)
        );
        assert_eq!(
            Then::CheckLocal.step(v, i, new, f, n),
            SchedStep::PopTopCheckLocal(v, i, new, n)
        );
    }

    /// The retired kinds decode to nothing, whatever their arguments:
    /// `popBottom/check`'s and `pushBottom/read`'s old field words included.
    #[test]
    fn the_retired_kinds_decode_to_nothing() {
        for kind in [4, 16] {
            for args in [[0; SCHED_ARG_WORDS], [7, 9, 3, 0, 0]] {
                let rec = SchedRecord { kind, args };
                assert_eq!(SchedStep::decode(&rec), None, "kind {kind}");
                assert_eq!(name(&rec), "sched/?");
            }
        }
    }

    #[test]
    fn the_two_tag_rewriting_capsules_are_the_unchecked_ones() {
        let unchecked: Vec<&str> = (0..32)
            .map(|kind| SchedRecord { kind, args: [0; 5] })
            .filter(|rec| !war_checked(rec))
            .map(|rec| name(&rec))
            .collect();
        assert_eq!(unchecked, ["sched/pushBottom/commit", "service/pull/seat"]);
    }

    /// `with_attempts` maps the attempt counter and nothing else: the
    /// steal loop's kinds carry `n`, every other kind is kept whole.
    #[test]
    fn with_attempts_maps_only_the_attempt_counter() {
        use SchedStep::*;
        let n = (1 << 32) + 5;
        for step in all_kinds(1, 3, 9, 11, [12, 13, n, 14]) {
            let carries_n = matches!(
                step,
                Steal(..)
                    | HelpRead(..)
                    | HelpCamThief(..)
                    | HelpCamTop(..)
                    | PopTopRead(..)
                    | PopTopCam(..)
                    | PopTopCheck(..)
                    | ClearAboveRead(..)
                    | ClearAboveWrite(..)
                    | PopTopCamLocal(..)
                    | PopTopCheckLocal(..)
                    | PullRead(..)
            );
            assert_eq!(step.with_attempts(|n| n % 4) != step, carries_n, "{step:?}");
            assert_eq!(step.with_attempts(|n| n), step, "{step:?}");
        }
        assert_eq!(Steal(n).with_attempts(|n| n % 4), Steal(1));
    }

    proptest! {
        #[test]
        fn every_kind_round_trips(
            p in 0..MAX_PROCS,
            s in 0..MAX_SLOTS,
            tag in any::<u16>(),
            h in 0..MAX_HANDLE + 1,
            old in any::<Word>(),
            new in any::<Word>(),
            n in any::<Word>(),
            x in any::<Word>(),
        ) {
            round_trips(all_kinds(p, s, tag, h, [old, new, n, x]));
        }

        /// Arbitrary words never panic the decoder, and whatever it
        /// accepts is the canonical encoding of the step it returns.
        #[test]
        fn hostile_words_decode_to_none_or_to_themselves(
            kind in any::<u16>(),
            args in prop::collection::vec(any::<Word>(), SCHED_ARG_WORDS..SCHED_ARG_WORDS + 1),
            zeroed in 0u8..32,
        ) {
            // Mostly-zero argument vectors reach the accepting paths far
            // more often than uniform noise does.
            let mut rec = SchedRecord { kind, args: [0; SCHED_ARG_WORDS] };
            for (i, a) in args.into_iter().enumerate() {
                if zeroed >> i & 1 == 0 {
                    rec.args[i] = a;
                }
            }
            if let Some(step) = SchedStep::decode(&rec) {
                prop_assert_eq!(step.encode(), rec);
            }
            let _ = (name(&rec), war_checked(&rec));
        }
    }
}
