//! Fault signalling.
//!
//! A fault in the PM model is not an error in the program being run — it is
//! an event of the machine. The substrate models it as an `Err(Fault)`
//! propagated out of the running capsule body; the capsule engine in
//! `ppm-core` catches it and either re-runs the capsule from its beginning
//! (soft fault: all ephemeral state is discarded, exactly the model's
//! restart-from-restart-pointer semantics) or marks the processor dead
//! (hard fault).
//!
//! One error is not a machine event: a processor whose allocation pool
//! cannot hold an allocation ([`PmError::PoolExhausted`]). It travels out
//! of the capsule as [`Fault::Exhausted`], so that every body's `?`
//! carries it, and its details stay with the processor's context
//! ([`crate::ProcCtx::error`]).

use std::fmt;

/// A processor fault, injected between two persistent-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The processor loses all ephemeral memory and registers and restarts
    /// from the restart pointer (the beginning of the active capsule).
    Soft,
    /// The processor dies and never restarts. Other processors observe this
    /// through the liveness oracle and may steal its in-progress thread.
    Hard,
    /// Not a machine event: the processor's allocation pool cannot hold an
    /// allocation. The processor stops where it is, like after a hard
    /// fault, but stays live; its context holds the [`PmError`].
    Exhausted,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Soft => write!(f, "soft fault (processor restarts)"),
            Fault::Hard => write!(f, "hard fault (processor dead)"),
            Fault::Exhausted => write!(f, "allocation pool exhausted (processor stopped)"),
        }
    }
}

/// An error that ends a run: the program cannot go on, and no restart
/// would change that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmError {
    /// Processor `proc`'s allocation pool holds `pool` words, and an
    /// allocation of `words` at cursor `cursor` runs past its end.
    PoolExhausted {
        /// The processor whose pool ran out.
        proc: usize,
        /// Its allocation cursor (pool-relative) at the allocation.
        cursor: usize,
        /// Words the allocation asked for.
        words: usize,
        /// The pool's length in words.
        pool: usize,
    },
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::PoolExhausted {
                proc,
                cursor,
                words,
                pool,
            } => write!(
                f,
                "processor {proc} allocation pool exhausted ({cursor} + {words} > {pool})"
            ),
        }
    }
}

impl std::error::Error for PmError {}

/// Result of any costed persistent-memory operation: the operation either
/// completed, or the processor faulted before performing it.
pub type PmResult<T> = Result<T, Fault>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Fault::Soft.to_string().contains("soft"));
        assert!(Fault::Hard.to_string().contains("hard"));
        assert!(Fault::Exhausted.to_string().contains("exhausted"));
        let e = PmError::PoolExhausted {
            proc: 1,
            cursor: 60,
            words: 8,
            pool: 64,
        };
        assert_eq!(
            e.to_string(),
            "processor 1 allocation pool exhausted (60 + 8 > 64)"
        );
    }

    #[test]
    fn fault_is_small_and_copyable() {
        // Fault is threaded through every memory access; keep it tiny.
        assert_eq!(std::mem::size_of::<Fault>(), 1);
        let f = Fault::Soft;
        let g = f; // Copy
        assert_eq!(f, g);
    }
}
