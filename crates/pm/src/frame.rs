//! Persistent continuation frames: closures as words.
//!
//! The paper (§4.1) stores closures — "the start instruction, local state,
//! arguments and continuation" of a capsule — directly in persistent
//! memory and uses their addresses as restart pointers and deque entries.
//! This module defines the word-level *frame* format that makes a closure
//! denotable by a single persistent word (its frame address), so that a
//! process that died can be replaced by a fresh one that re-materializes
//! the closure from persistent words alone:
//!
//! ```text
//!   word 0   header   = (FRAME_MAGIC << 32) | arg_word_count
//!   word 1   capsule id (a stable u64 registered in ppm-core's
//!            CapsuleRegistry at computation-construction time)
//!   word 2   parent span id (causal-tracing provenance: the span of
//!            the capsule execution that wrote this frame, 0 when
//!            tracing is off or the frame is a setup-time root)
//!   word 3.. argument words (plain data: addresses, indices, and —
//!            crucially — the frame addresses of other continuations)
//! ```
//!
//! The parent-span word is what carries causality *across processes*: a
//! frame stolen or adopted by another shard — or replanted by recovery
//! in a later epoch — still names the span that forked it, so the
//! span-trace analyzer (`ppm-trace`) can stitch one capsule DAG out of
//! many per-process span files. It is provenance metadata, not program
//! state: capsule bodies never read it, and it costs one extra staged
//! word per frame (coalesced into the same block persist as its
//! neighbors).
//!
//! Arguments are plain 64-bit words; a continuation argument is *itself* a
//! frame address, which is what lets whole capsule DAGs round-trip through
//! a crash. Frames are immutable once published (their address escapes
//! into a deque entry or restart pointer only after every word is
//! written), and all frame traffic flows through the same
//! [`crate::mem::PersistentMemory`] words as everything else, so the
//! backend's [`crate::backend::MemBackend::flush`] boundary covers them.
//!
//! Encoding ([`write_frame`], or a [`FrameBuf`] filled word by word) is
//! costed (through the capsule-boundary write-combining flush) and
//! restart-stable: the frame address comes from the processor's §4.1 pool
//! allocator, so a capsule re-run rewrites the identical words at the
//! identical address. The image — `3 + argc` words — is assembled on the
//! stack and staged as **one range**: one write-after-read range check,
//! one counter add, one staging-buffer entry, one range store. Decoding
//! ([`read_frame`]) is strict: a word that does not carry the magic, an
//! oversized argument count, or an out-of-bounds frame is a
//! [`FrameError`], never a panic — recovery code downgrades to
//! replay-from-root on any malformed frame.

use crate::error::PmResult;
use crate::mem::PersistentMemory;
use crate::proc::ProcCtx;
use crate::word::{Addr, Word};

/// Magic tag in the upper 32 bits of a frame header word. Chosen so that
/// the legacy closure-marker word (`1`) and small scheduler generation
/// counters can never be mistaken for a frame.
pub const FRAME_MAGIC: u64 = 0xF7A3_C0DE;

/// Maximum argument words per frame. Closures are constant-size in the
/// model; this bound keeps a corrupted header from driving a huge decode.
/// Sized for the typed `ppm-core` DSL states, whose frames carry a whole
/// instance geometry (a dozen regions) plus per-node words and the
/// continuation handle.
pub const MAX_FRAME_ARGS: usize = 64;

/// Frame size in words for `argc` argument words (header + id + parent
/// span + args).
#[inline]
pub const fn frame_words(argc: usize) -> usize {
    3 + argc
}

/// Offset of the first argument word within a frame (after the header,
/// capsule-id, and parent-span words).
pub const FRAME_ARGS_AT: usize = 3;

/// Builds a frame header word for `argc` argument words.
#[inline]
pub fn frame_header(argc: usize) -> Word {
    assert!(argc <= MAX_FRAME_ARGS, "frame has too many arguments");
    (FRAME_MAGIC << 32) | argc as u64
}

/// Parses a header word: `Some(argc)` iff it carries the frame magic and a
/// sane argument count.
#[inline]
pub fn parse_header(w: Word) -> Option<usize> {
    if w >> 32 != FRAME_MAGIC {
        return None;
    }
    let argc = (w & 0xFFFF_FFFF) as usize;
    (argc <= MAX_FRAME_ARGS).then_some(argc)
}

/// Why a word range failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The word at the address does not carry [`FRAME_MAGIC`] (or claims
    /// more than [`MAX_FRAME_ARGS`] arguments).
    NotAFrame {
        /// The address that was probed.
        addr: Addr,
        /// The raw word found there.
        word: Word,
    },
    /// The frame's claimed extent runs past the end of persistent memory.
    OutOfBounds {
        /// The frame address.
        addr: Addr,
        /// The claimed argument count.
        argc: usize,
    },
    /// The frame decoded, but its capsule id is not registered (reported
    /// by `ppm-core`'s registry, carried here so both layers share one
    /// error type).
    UnknownCapsule {
        /// The frame address.
        addr: Addr,
        /// The unregistered capsule id.
        capsule_id: Word,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotAFrame { addr, word } => {
                write!(f, "word {word:#x} at address {addr} is not a capsule frame")
            }
            FrameError::OutOfBounds { addr, argc } => {
                write!(f, "frame at {addr} claims {argc} args past end of memory")
            }
            FrameError::UnknownCapsule { addr, capsule_id } => {
                write!(
                    f,
                    "frame at {addr} names unregistered capsule id {capsule_id:#x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Address the frame was decoded from (its handle).
    pub addr: Addr,
    /// The stable capsule id.
    pub capsule_id: Word,
    /// The span id of the capsule execution that wrote this frame
    /// (0 = untraced or setup-time root). See the module docs.
    pub parent_span: Word,
    /// The argument words.
    pub args: Vec<Word>,
}

impl Frame {
    /// Argument word `i`, if present.
    #[inline]
    pub fn arg(&self, i: usize) -> Option<Word> {
        self.args.get(i).copied()
    }

    /// The last argument word — by the `ppm-core` DSL convention, a
    /// frame's continuation handle.
    #[inline]
    pub fn cont(&self) -> Option<Word> {
        self.args.last().copied()
    }

    /// The argument words before the last one — by the DSL convention,
    /// the capsule's typed state words.
    #[inline]
    pub fn state_words(&self) -> &[Word] {
        match self.args.len() {
            0 => &self.args,
            n => &self.args[..n - 1],
        }
    }
}

/// Out-of-line [`FrameError::NotAFrame`] constructor: decode failures are
/// the recovery-forensics path, and keeping their construction `#[cold]`
/// keeps the hot decode loop's happy path branch-predictable and small.
#[cold]
fn not_a_frame(addr: Addr, word: Word) -> FrameError {
    FrameError::NotAFrame { addr, word }
}

/// Out-of-line [`FrameError::OutOfBounds`] constructor (see [`not_a_frame`]).
#[cold]
fn out_of_bounds(addr: Addr, argc: usize) -> FrameError {
    FrameError::OutOfBounds { addr, argc }
}

/// A frame being assembled on the stack: header, capsule id and parent
/// span, then up to [`MAX_FRAME_ARGS`] argument words pushed in order.
/// [`FrameBuf::write`] persists the whole image as one staged range, so
/// building a frame allocates nothing on the heap.
#[derive(Debug)]
pub struct FrameBuf {
    words: [Word; frame_words(MAX_FRAME_ARGS)],
    len: usize,
}

impl FrameBuf {
    /// Starts a frame for `capsule_id` written by the capsule execution
    /// `ctx` is running (its span id is the frame's provenance word —
    /// restart-stable, minted before any soft-fault retry).
    #[inline]
    pub fn new(ctx: &ProcCtx, capsule_id: Word) -> Self {
        let mut words = [0; frame_words(MAX_FRAME_ARGS)];
        words[1] = capsule_id;
        words[2] = ctx.cur_span();
        FrameBuf {
            words,
            len: FRAME_ARGS_AT,
        }
    }

    /// Appends one argument word.
    ///
    /// # Panics
    /// Panics past [`MAX_FRAME_ARGS`] arguments.
    #[inline]
    pub fn push(&mut self, w: Word) {
        assert!(self.len < self.words.len(), "frame has too many arguments");
        self.words[self.len] = w;
        self.len += 1;
    }

    /// Allocates the frame from the processor's restart-stable pool and
    /// fills it through the write-combining staging buffer
    /// ([`ProcCtx::stage_range`]). The words hit memory immediately — a
    /// frame is readable by its writer the instant this returns — but
    /// their transfer cost is charged at the capsule boundary, where the
    /// engine's [`ProcCtx::flush_staged`] coalesces every frame the
    /// capsule wrote into sequential whole-block persists (§4.1 bump
    /// allocation makes consecutive frames contiguous). Returns the frame
    /// address — the single persistent word that now denotes the
    /// continuation. Idempotent under capsule restart (same address, same
    /// words).
    ///
    /// Crash-safety is preserved by ordering: a frame handle only escapes
    /// through a costed install or deque write, and the engine flushes
    /// the staging buffer before performing any install.
    #[inline]
    pub fn write(mut self, ctx: &mut ProcCtx) -> PmResult<Addr> {
        self.words[0] = frame_header(self.len - FRAME_ARGS_AT);
        let addr = ctx.palloc(self.len)?;
        ctx.stage_range(addr, &self.words[..self.len]);
        Ok(addr)
    }
}

/// Writes a frame for `(capsule_id, args)` from within a capsule: a
/// [`FrameBuf`] over a ready-made argument slice (see
/// [`FrameBuf::write`] for cost, restart and crash-ordering rules).
#[inline]
pub fn write_frame(ctx: &mut ProcCtx, capsule_id: Word, args: &[Word]) -> PmResult<Addr> {
    let mut frame = FrameBuf::new(ctx, capsule_id);
    for a in args {
        frame.push(*a);
    }
    frame.write(ctx)
}

/// Stores a frame at a fixed address with uncosted setup writes (machine
/// construction only — e.g. a computation's root frame written before the
/// processors start). The region at `addr` must hold
/// [`frame_words`]`(args.len())` words.
pub fn store_frame(mem: &PersistentMemory, addr: Addr, capsule_id: Word, args: &[Word]) {
    mem.store(addr, frame_header(args.len()));
    mem.store(addr + 1, capsule_id);
    mem.store(addr + 2, 0); // setup-time frames are span roots
    for (i, a) in args.iter().enumerate() {
        mem.store(addr + FRAME_ARGS_AT + i, *a);
    }
}

/// Validates the header at `addr` and the frame's extent; returns its
/// argument count.
fn frame_argc(mem: &PersistentMemory, addr: Addr) -> Result<usize, FrameError> {
    if addr == 0 || addr >= mem.len() {
        return Err(not_a_frame(addr, 0));
    }
    let header = mem.load(addr);
    let argc = parse_header(header).ok_or_else(|| not_a_frame(addr, header))?;
    if addr + frame_words(argc) > mem.len() {
        return Err(out_of_bounds(addr, argc));
    }
    Ok(argc)
}

/// Decodes the frame at `addr` with uncosted oracle reads (recovery-time
/// and engine-internal rehydration; the model charges closure loading as
/// part of the constant restart/install overhead, which the engine already
/// accounts for).
pub fn read_frame(mem: &PersistentMemory, addr: Addr) -> Result<Frame, FrameError> {
    let argc = frame_argc(mem, addr)?;
    Ok(Frame {
        addr,
        capsule_id: mem.load(addr + 1),
        parent_span: mem.load(addr + 2),
        args: mem.to_vec(addr + FRAME_ARGS_AT, argc),
    })
}

/// Argument words the small stack image of [`with_frame_args`] holds: the
/// join arrivals, a `map_grain` span and the service frames all fit.
const SMALL_FRAME_ARGS: usize = 8;

/// [`read_frame`] without the heap — what running a frame costs: checks
/// the header and extent at `addr`, reads exactly the frame's argument
/// words into a stack image no larger than they need, and hands `f` the
/// capsule id and the words.
#[inline]
pub fn with_frame_args<R>(
    mem: &PersistentMemory,
    addr: Addr,
    f: impl FnOnce(Word, &[Word]) -> R,
) -> Result<R, FrameError> {
    let argc = frame_argc(mem, addr)?;
    let (id, at) = (mem.load(addr + 1), addr + FRAME_ARGS_AT);
    Ok(if argc <= SMALL_FRAME_ARGS {
        let mut args = [0; SMALL_FRAME_ARGS];
        mem.read_range(at, &mut args[..argc]);
        f(id, &args[..argc])
    } else {
        let mut args = [0; MAX_FRAME_ARGS];
        mem.read_range(at, &mut args[..argc]);
        f(id, &args[..argc])
    })
}

/// Whether the word at `addr` looks like a frame header (cheap probe used
/// by recovery forensics; [`read_frame`] remains the authoritative check).
#[inline]
pub fn is_frame_at(mem: &PersistentMemory, addr: Addr) -> bool {
    addr != 0 && addr < mem.len() && parse_header(mem.load(addr)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use crate::fault::Liveness;
    use crate::layout::Region;
    use crate::stats::MemStats;
    use std::sync::Arc;

    fn ctx_with_pool(mem: &Arc<PersistentMemory>) -> ProcCtx {
        let cfg = PmConfig::small_single();
        let stats = Arc::new(MemStats::new(1));
        let live = Arc::new(Liveness::new(1));
        let mut ctx = ProcCtx::new(&cfg, 0, mem.clone(), stats, live);
        ctx.set_alloc_pool(
            Region {
                start: 64,
                len: 512,
            },
            0,
        );
        ctx
    }

    #[test]
    fn header_round_trips() {
        for argc in [0usize, 1, 7, MAX_FRAME_ARGS] {
            assert_eq!(parse_header(frame_header(argc)), Some(argc));
        }
        assert_eq!(parse_header(0), None);
        assert_eq!(
            parse_header(1),
            None,
            "legacy closure marker is not a frame"
        );
        assert_eq!(
            parse_header((FRAME_MAGIC << 32) | (MAX_FRAME_ARGS as u64 + 1)),
            None,
            "oversized argc rejected"
        );
    }

    #[test]
    fn write_then_read_round_trips() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        let mut ctx = ctx_with_pool(&mem);
        ctx.begin_capsule("t");
        let addr = write_frame(&mut ctx, 0xABCD, &[1, 2, 3]).unwrap();
        let f = read_frame(&mem, addr).unwrap();
        assert_eq!(f.capsule_id, 0xABCD);
        assert_eq!(f.args, vec![1, 2, 3]);
        assert_eq!(f.addr, addr);
    }

    #[test]
    fn write_frame_is_restart_stable() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        let mut ctx = ctx_with_pool(&mem);
        ctx.begin_capsule("fork-like");
        let a1 = write_frame(&mut ctx, 7, &[9, 9]).unwrap();
        ctx.restart_capsule("fork-like");
        let a2 = write_frame(&mut ctx, 7, &[9, 9]).unwrap();
        assert_eq!(a1, a2, "restart must rewrite the same frame address");
        assert_eq!(read_frame(&mem, a1).unwrap().args, vec![9, 9]);
    }

    #[test]
    fn store_frame_matches_costed_encoding() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        store_frame(&mem, 40, 5, &[10, 20]);
        let mut ctx = ctx_with_pool(&mem);
        ctx.begin_capsule("t");
        let a = write_frame(&mut ctx, 5, &[10, 20]).unwrap();
        // Both paths have span 0 here (no sink attached), so the full
        // 5-word images — header, id, parent span, args — coincide.
        assert_eq!(mem.to_vec(40, 5), mem.to_vec(a, 5), "identical word images");
    }

    #[test]
    fn frames_carry_the_writers_span() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        let mut ctx = ctx_with_pool(&mem);
        ctx.begin_capsule("t");
        ctx.set_span_for_test(0xBEEF);
        let a = write_frame(&mut ctx, 5, &[10]).unwrap();
        let f = read_frame(&mem, a).unwrap();
        assert_eq!(f.parent_span, 0xBEEF);
        assert_eq!(f.args, vec![10]);
        store_frame(&mem, 40, 5, &[10]);
        assert_eq!(read_frame(&mem, 40).unwrap().parent_span, 0, "setup roots");
    }

    #[test]
    fn typed_read_helpers_follow_the_dsl_convention() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        store_frame(&mem, 40, 9, &[11, 22, 33]);
        let f = read_frame(&mem, 40).unwrap();
        assert_eq!(f.arg(0), Some(11));
        assert_eq!(f.arg(2), Some(33));
        assert_eq!(f.arg(3), None);
        assert_eq!(f.cont(), Some(33));
        assert_eq!(f.state_words(), &[11, 22]);
        store_frame(&mem, 80, 9, &[]);
        let empty = read_frame(&mem, 80).unwrap();
        assert_eq!(empty.cont(), None);
        assert!(empty.state_words().is_empty());
    }

    #[test]
    fn with_frame_args_hands_over_exactly_the_frames_words() {
        let mem = Arc::new(PersistentMemory::new(1024, 8));
        for argc in [0, 1, SMALL_FRAME_ARGS, SMALL_FRAME_ARGS + 1, MAX_FRAME_ARGS] {
            let args: Vec<Word> = (0..argc as Word).map(|i| 100 + i).collect();
            store_frame(&mem, 40, 9, &args);
            let seen = with_frame_args(&mem, 40, |id, words| (id, words.to_vec()));
            assert_eq!(seen, Ok((9, args)), "argc = {argc}");
        }
        let err = with_frame_args(&mem, 10, |_, _| ()).unwrap_err();
        assert!(matches!(err, FrameError::NotAFrame { .. }), "{err}");
    }

    #[test]
    fn non_frames_are_rejected_cleanly() {
        let mem = Arc::new(PersistentMemory::new(256, 8));
        mem.store(10, 1); // legacy marker
        mem.store(11, 42); // random word
        for addr in [0usize, 10, 11, 500] {
            let err = read_frame(&mem, addr).unwrap_err();
            assert!(matches!(err, FrameError::NotAFrame { .. }), "{addr}: {err}");
        }
        assert!(!is_frame_at(&mem, 10));
    }

    #[test]
    fn truncated_frame_is_out_of_bounds() {
        let mem = Arc::new(PersistentMemory::new(64, 8));
        mem.store(62, frame_header(8)); // claims 10 words at addr 62 of 64
        let err = read_frame(&mem, 62).unwrap_err();
        assert!(matches!(err, FrameError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn errors_display_without_panicking() {
        let msgs = [
            FrameError::NotAFrame { addr: 3, word: 9 }.to_string(),
            FrameError::OutOfBounds { addr: 3, argc: 8 }.to_string(),
            FrameError::UnknownCapsule {
                addr: 3,
                capsule_id: 0x55,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
