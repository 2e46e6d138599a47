//! Typed encoding of capsule state into frame words.
//!
//! A persistent capsule frame ([`ppm_pm::frame`]) is untyped: a capsule id
//! followed by raw argument [`Word`]s. Hand-packing geometry into those
//! words — and hand-unpacking it in every capsule's decode — was
//! the single largest source of friction (and arity bugs) in writing
//! persistent algorithms. This module gives frames a typed surface:
//!
//! * [`Persist`] — a fixed-arity encode/decode between a Rust value and
//!   frame words. Implemented for the primitive word-shaped types
//!   (`u64`/`usize`/`u32`/`u16`/`u8`/`bool`), for [`ppm_pm::Region`], and
//!   structurally for tuples and arrays of `Persist` types.
//! * [`crate::persist_struct!`] — defines a plain named struct *and* its
//!   [`Persist`] impl in one go; the struct encodes as the concatenation
//!   of its fields. This is how algorithm capsule states are declared
//!   (see `ppm-algs`).
//! * [`FrameDecodeError`] — the structured error every decode failure
//!   reports: which capsule, and whether the arity or a value was wrong.
//!   It flows through [`crate::registry::RehydrateError`] into recovery's
//!   fallback reason, so a malformed frame names itself all the way up.
//!
//! Decoding is *strict*: the argument slice must have exactly the arity
//! the type declares ([`Persist::WORDS`]), and narrow types reject
//! out-of-range words. Encoding is infallible and deterministic — the
//! same value always produces the same words, which is part of the
//! construction-determinism contract that lets a recovering process
//! rehydrate a crashed run's frames.

use ppm_pm::{FrameBuf, Word};

/// Where [`Persist::encode`] appends words: a `Vec` (setup frames, job
/// arguments, tests) or the stack image of a frame being written from a
/// capsule ([`FrameBuf`] — the per-frame path allocates nothing).
pub trait WordSink {
    /// Appends one word.
    fn push(&mut self, w: Word);
}

impl WordSink for Vec<Word> {
    #[inline]
    fn push(&mut self, w: Word) {
        Vec::push(self, w);
    }
}

impl WordSink for FrameBuf {
    #[inline]
    fn push(&mut self, w: Word) {
        FrameBuf::push(self, w);
    }
}

/// A value with a fixed-width word encoding, usable as (part of) a
/// persistent capsule's frame state.
pub trait Persist: Sized {
    /// Exact number of words the encoding occupies.
    const WORDS: usize;

    /// Appends the encoding to `out` (exactly [`Persist::WORDS`] words).
    fn encode(&self, out: &mut impl WordSink);

    /// Decodes the value, consuming exactly [`Persist::WORDS`] words from
    /// the reader.
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError>;

    /// Reports every persistent-memory reference this value carries: frame
    /// handles ([`PoolRefs::handle`]) and word extents the capsule may
    /// still read or write ([`PoolRefs::extent`]). The checkpoint
    /// subsystem traces these from the quiesced frontier to find the
    /// highest live pool word before reclaiming everything above it, so an
    /// impl that *under-reports* lets live frames be reclaimed.
    /// [`ppm_pm::Region`] reports its full extent and
    /// [`crate::persist_struct!`] composes fields automatically; plain
    /// integers (indices, lengths, tokens) correctly report nothing. A
    /// hand-written impl holding raw addresses must override this.
    fn pool_refs(&self, out: &mut PoolRefs) {
        let _ = out;
    }
}

/// Collector for the persistent-memory references of a capsule state
/// (see [`Persist::pool_refs`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolRefs {
    /// Frame handles the state points at (continuations, children).
    pub handles: Vec<Word>,
    /// `(start, len)` word extents the state may still touch.
    pub extents: Vec<(usize, usize)>,
}

impl PoolRefs {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame handle (traced transitively).
    pub fn handle(&mut self, h: Word) {
        if h != 0 {
            self.handles.push(h);
        }
    }

    /// Records a word extent `[start, start + len)`.
    pub fn extent(&mut self, start: usize, len: usize) {
        if len > 0 {
            self.extents.push((start, len));
        }
    }
}

/// A field-level decode failure: the word does not denote a value of the
/// expected type (e.g. a `bool` word that is neither 0 nor 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueError {
    /// What the decoder expected (a type or field description).
    pub what: &'static str,
    /// The offending word.
    pub word: Word,
}

/// Why a frame's argument words failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecodeKind {
    /// The argument slice has the wrong length for the capsule's state
    /// type.
    Arity {
        /// Words the capsule's state type requires.
        expected: usize,
        /// Words the frame actually carries.
        got: usize,
    },
    /// An argument word is out of range for its field.
    Value(ValueError),
}

/// A structured frame-argument decode failure: which capsule rejected the
/// words and why. Carried by [`crate::registry::RehydrateError::BadArgs`]
/// and, from there, by a recovery fallback reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDecodeError {
    /// Name of the capsule whose decode rejected the arguments.
    pub capsule: &'static str,
    /// What went wrong.
    pub kind: FrameDecodeKind,
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FrameDecodeKind::Arity { expected, got } => write!(
                f,
                "capsule `{}` expects {expected} argument words, frame carries {got}",
                self.capsule
            ),
            FrameDecodeKind::Value(v) => write!(
                f,
                "capsule `{}`: word {:#x} is not a valid {}",
                self.capsule, v.word, v.what
            ),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

/// A cursor over a frame's argument words.
///
/// Created by [`decode_args`]; [`Persist::decode`] impls pull words from
/// it in field order.
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [Word],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Wraps a word slice.
    pub fn new(words: &'a [Word]) -> Self {
        WordReader { words, pos: 0 }
    }

    /// Takes the next word.
    ///
    /// # Panics
    /// Panics on overrun — arity is checked up front by [`decode_args`],
    /// so an overrun means a [`Persist`] impl whose `WORDS` disagrees
    /// with its `decode` (a programming bug, not a data error).
    pub fn word(&mut self) -> Word {
        let w = self.words.get(self.pos).copied().unwrap_or_else(|| {
            panic!(
                "Persist decode overran its declared arity ({} words)",
                self.words.len()
            )
        });
        self.pos += 1;
        w
    }

    /// Words consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
}

/// Encodes a value into a fresh word vector (exactly `T::WORDS` long).
pub fn encode_args<T: Persist>(value: &T) -> Vec<Word> {
    let mut out = Vec::with_capacity(T::WORDS);
    value.encode(&mut out);
    debug_assert_eq!(
        out.len(),
        T::WORDS,
        "Persist encode produced a different arity than it declared"
    );
    out
}

/// Decodes a frame's argument words as a `T`, on behalf of capsule
/// `capsule`. The registered decode of every typed capsule: wrong arity
/// and out-of-range words both report a [`FrameDecodeError`] naming the
/// capsule.
pub fn decode_args<T: Persist>(
    capsule: &'static str,
    args: &[Word],
) -> Result<T, FrameDecodeError> {
    if args.len() != T::WORDS {
        return Err(FrameDecodeError {
            capsule,
            kind: FrameDecodeKind::Arity {
                expected: T::WORDS,
                got: args.len(),
            },
        });
    }
    let mut r = WordReader::new(args);
    T::decode(&mut r).map_err(|v| FrameDecodeError {
        capsule,
        kind: FrameDecodeKind::Value(v),
    })
}

// ====================================================================
// Primitive impls
// ====================================================================

impl Persist for Word {
    const WORDS: usize = 1;
    fn encode(&self, out: &mut impl WordSink) {
        out.push(*self);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(r.word())
    }
}

impl Persist for usize {
    const WORDS: usize = 1;
    fn encode(&self, out: &mut impl WordSink) {
        out.push(*self as Word);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        let w = r.word();
        usize::try_from(w).map_err(|_| ValueError {
            what: "usize",
            word: w,
        })
    }
}

macro_rules! narrow_persist {
    ($($ty:ty => $what:literal),* $(,)?) => {$(
        impl Persist for $ty {
            const WORDS: usize = 1;
            fn encode(&self, out: &mut impl WordSink) {
                out.push(*self as Word);
            }
            fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
                let w = r.word();
                <$ty>::try_from(w).map_err(|_| ValueError { what: $what, word: w })
            }
        }
    )*};
}

narrow_persist!(u32 => "u32", u16 => "u16", u8 => "u8");

impl Persist for bool {
    const WORDS: usize = 1;
    fn encode(&self, out: &mut impl WordSink) {
        out.push(*self as Word);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        match r.word() {
            0 => Ok(false),
            1 => Ok(true),
            w => Err(ValueError {
                what: "bool (0 or 1)",
                word: w,
            }),
        }
    }
}

impl Persist for ppm_pm::Region {
    const WORDS: usize = 2;
    fn encode(&self, out: &mut impl WordSink) {
        out.push(self.start as Word);
        out.push(self.len as Word);
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        let start = usize::decode(r)?;
        let len = usize::decode(r)?;
        Ok(ppm_pm::Region { start, len })
    }
    fn pool_refs(&self, out: &mut PoolRefs) {
        out.extent(self.start, self.len);
    }
}

// ====================================================================
// Structural impls: tuples and arrays
// ====================================================================

impl Persist for () {
    const WORDS: usize = 0;
    fn encode(&self, _out: &mut impl WordSink) {}
    fn decode(_r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        Ok(())
    }
}

macro_rules! tuple_persist {
    ($($name:ident),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            const WORDS: usize = 0 $(+ $name::WORDS)+;
            fn encode(&self, out: &mut impl WordSink) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
                Ok(($($name::decode(r)?,)+))
            }
            fn pool_refs(&self, out: &mut PoolRefs) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.pool_refs(out);)+
            }
        }
    };
}

tuple_persist!(A);
tuple_persist!(A, B);
tuple_persist!(A, B, C);
tuple_persist!(A, B, C, D);

impl<T: Persist, const N: usize> Persist for [T; N] {
    const WORDS: usize = N * T::WORDS;
    fn encode(&self, out: &mut impl WordSink) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WordReader<'_>) -> Result<Self, ValueError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(r)?);
        }
        match items.try_into() {
            Ok(arr) => Ok(arr),
            Err(_) => unreachable!("exactly N items were pushed"),
        }
    }
    fn pool_refs(&self, out: &mut PoolRefs) {
        for v in self {
            v.pool_refs(out);
        }
    }
}

/// Defines a plain struct together with its [`Persist`] impl: the struct
/// encodes as the concatenation of its fields, in declaration order.
///
/// Every field type must itself implement [`Persist`]. The struct derives
/// `Debug`, `Clone`, `Copy`, `PartialEq` and `Eq` (capsule states are
/// small plain-old-data geometry descriptions, and capsule bodies need to
/// re-run them under restarts).
///
/// ```
/// use ppm_core::persist_struct;
/// use ppm_core::persist::{decode_args, encode_args};
/// use ppm_pm::Region;
///
/// persist_struct! {
///     /// A slice of an array plus a grain size.
///     pub struct Slice {
///         pub data: Region,
///         pub lo: usize,
///         pub hi: usize,
///     }
/// }
///
/// let s = Slice { data: Region { start: 64, len: 100 }, lo: 3, hi: 17 };
/// let words = encode_args(&s);
/// assert_eq!(words, vec![64, 100, 3, 17]);
/// assert_eq!(decode_args::<Slice>("slice", &words).unwrap(), s);
/// assert!(decode_args::<Slice>("slice", &words[..2]).is_err());
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::persist::Persist for $name {
            const WORDS: usize = 0 $(+ <$ty as $crate::persist::Persist>::WORDS)*;
            fn encode(&self, out: &mut impl $crate::persist::WordSink) {
                $($crate::persist::Persist::encode(&self.$field, out);)*
            }
            fn decode(
                r: &mut $crate::persist::WordReader<'_>,
            ) -> Result<Self, $crate::persist::ValueError> {
                Ok(Self {
                    $($field: <$ty as $crate::persist::Persist>::decode(r)?,)*
                })
            }
            fn pool_refs(&self, out: &mut $crate::persist::PoolRefs) {
                $($crate::persist::Persist::pool_refs(&self.$field, out);)*
                let _ = out;
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::Region;

    persist_struct! {
        struct Geometry {
            input: Region,
            n: usize,
            flagged: bool,
        }
    }

    #[test]
    fn primitives_round_trip() {
        let words = encode_args(&(7u64, 8usize, true, 300u32));
        assert_eq!(words, vec![7, 8, 1, 300]);
        let back: (u64, usize, bool, u32) = decode_args("t", &words).unwrap();
        assert_eq!(back, (7, 8, true, 300));
    }

    #[test]
    fn arrays_round_trip() {
        let v = [Region { start: 1, len: 2 }, Region { start: 3, len: 4 }];
        let words = encode_args(&v);
        assert_eq!(words, vec![1, 2, 3, 4]);
        assert_eq!(decode_args::<[Region; 2]>("t", &words).unwrap(), v);
    }

    #[test]
    fn struct_macro_round_trips() {
        let g = Geometry {
            input: Region { start: 10, len: 20 },
            n: 17,
            flagged: false,
        };
        assert_eq!(Geometry::WORDS, 4);
        let words = encode_args(&g);
        assert_eq!(decode_args::<Geometry>("geom", &words).unwrap(), g);
    }

    #[test]
    fn arity_mismatch_names_the_capsule() {
        let err = decode_args::<Geometry>("prefix/up", &[1, 2]).unwrap_err();
        assert_eq!(err.capsule, "prefix/up");
        assert_eq!(
            err.kind,
            FrameDecodeKind::Arity {
                expected: 4,
                got: 2
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("prefix/up"), "{msg}");
        assert!(msg.contains('4') && msg.contains('2'), "{msg}");
    }

    #[test]
    fn value_errors_carry_the_offending_word() {
        let err = decode_args::<Geometry>("geom", &[1, 2, 3, 9]).unwrap_err();
        match err.kind {
            FrameDecodeKind::Value(v) => {
                assert_eq!(v.word, 9);
                assert!(v.what.contains("bool"));
            }
            other => panic!("expected a value error, got {other:?}"),
        }
        let err = decode_args::<(u8,)>("narrow", &[4096]).unwrap_err();
        assert!(matches!(err.kind, FrameDecodeKind::Value(_)), "{err}");
    }

    #[test]
    fn bool_and_narrow_types_accept_their_range() {
        assert!(decode_args::<bool>("b", &[0]).is_ok());
        assert!(decode_args::<bool>("b", &[1]).is_ok());
        assert!(decode_args::<bool>("b", &[2]).is_err());
        assert_eq!(decode_args::<u16>("u", &[65535]).unwrap(), 65535);
        assert!(decode_args::<u16>("u", &[65536]).is_err());
    }

    #[test]
    fn unit_and_nested_tuples_have_zero_and_summed_arity() {
        assert_eq!(<() as Persist>::WORDS, 0);
        assert_eq!(<(Region, (usize, bool)) as Persist>::WORDS, 4);
    }

    #[test]
    fn pool_refs_compose_through_structs_tuples_and_arrays() {
        let g = Geometry {
            input: Region { start: 10, len: 20 },
            n: 17,
            flagged: false,
        };
        let mut refs = PoolRefs::new();
        g.pool_refs(&mut refs);
        assert_eq!(refs.extents, vec![(10, 20)]);
        assert!(refs.handles.is_empty(), "plain ints report nothing");

        let mut refs = PoolRefs::new();
        (
            Region { start: 1, len: 2 },
            [Region { start: 5, len: 1 }, Region { start: 9, len: 3 }],
        )
            .pool_refs(&mut refs);
        assert_eq!(refs.extents, vec![(1, 2), (5, 1), (9, 3)]);
        // Empty extents and null handles are dropped at the collector.
        let mut refs = PoolRefs::new();
        refs.extent(7, 0);
        refs.handle(0);
        assert_eq!(refs, PoolRefs::new());
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn overrun_is_a_loud_programming_bug() {
        let mut r = WordReader::new(&[1]);
        let _ = r.word();
        let _ = r.word();
    }
}
