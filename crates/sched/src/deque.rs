//! Per-processor WS-deque state in persistent memory.
//!
//! Each processor owns one deque (§6.2): an array of `⟨tag, entry⟩` words
//! plus `top` and `bot` pointers, all in persistent memory. The deque never
//! deletes entries — stolen slots stay `taken` forever — so a computation
//! with many steals needs a proportionally sized array ("a WS-Deque
//! containing enough empty entries to complete the computation", §6.3);
//! overflow is a configuration error detected with a panic.
//!
//! [`check_invariant`] verifies the structural lemma of §6.2: entries are
//! always ordered `taken* job* local{0,1,2} empty*` (two locals only
//! transiently during `pushBottom`).

use ppm_pm::{Addr, PersistentMemory, Region};

use crate::entry::{kind_of, unpack, EntryKind, EntryVal};

/// Addresses of one processor's deque.
#[derive(Debug, Clone, Copy)]
pub struct DequeAddrs {
    /// The entry array (one word per slot).
    pub stack: Region,
    /// Address of the `top` pointer word.
    pub top: Addr,
    /// Address of the `bot` pointer word.
    pub bot: Addr,
    /// The owning processor.
    pub owner: usize,
    /// Number of slots.
    pub slots: usize,
}

impl DequeAddrs {
    /// Address of slot `i`'s entry word.
    #[inline]
    pub fn entry(&self, i: usize) -> Addr {
        assert!(
            i < self.slots,
            "deque slot {i} out of range {} — the WS-deque never \
                 deletes entries; size it for the computation (SchedConfig::deque_slots)",
            self.slots
        );
        self.stack.at(i)
    }

    /// Slot index of an entry address (inverse of [`DequeAddrs::entry`]).
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> usize {
        addr - self.stack.start
    }
}

/// Carves deque state for `procs` processors with `slots` entries each.
pub fn build_deques(machine: &ppm_core::Machine, slots: usize) -> Vec<DequeAddrs> {
    let procs = machine.procs();
    (0..procs)
        .map(|p| {
            let stack = machine.alloc_region(slots);
            // top and bot each get their own block so owner bot-writes and
            // thief top-CAMs never share a block with entries.
            let top = machine.alloc_region(1).start;
            let bot = machine.alloc_region(1).start;
            DequeAddrs {
                stack,
                top,
                bot,
                owner: p,
                slots,
            }
        })
        .collect()
}

/// A decoded snapshot of a deque (oracle use: tests, experiments, debug).
#[derive(Debug, Clone)]
pub struct DequeSnapshot {
    /// Decoded `⟨tag, entry⟩` pairs, in slot order.
    pub entries: Vec<(u16, EntryVal)>,
    /// The `top` pointer.
    pub top: usize,
    /// The `bot` pointer.
    pub bot: usize,
}

/// Reads a deque's state (uncosted oracle read).
pub fn snapshot(mem: &PersistentMemory, d: &DequeAddrs) -> DequeSnapshot {
    DequeSnapshot {
        entries: (0..d.slots).map(|i| unpack(mem.load(d.entry(i)))).collect(),
        top: mem.load(d.top) as usize,
        bot: mem.load(d.bot) as usize,
    }
}

/// Checks the §6.2 structural invariant on a deque snapshot:
/// `taken* job* local{0,1,2} empty*`. Returns `Err` with a diagnostic if
/// violated.
pub fn check_invariant(mem: &PersistentMemory, d: &DequeAddrs) -> Result<(), String> {
    #[derive(PartialEq, PartialOrd, Debug)]
    enum Phase {
        Taken,
        Job,
        Local,
        Empty,
    }
    let mut phase = Phase::Taken;
    let mut locals = 0;
    for i in 0..d.slots {
        let kind = kind_of(mem.load(d.entry(i)));
        let needed = match kind {
            EntryKind::Taken => Phase::Taken,
            EntryKind::Job => Phase::Job,
            EntryKind::Local => Phase::Local,
            EntryKind::Empty => Phase::Empty,
        };
        if needed < phase {
            return Err(format!(
                "deque of proc {}: slot {i} is {kind:?} but an earlier slot was \
                 already in phase {phase:?} (violates taken* job* local* empty*)",
                d.owner
            ));
        }
        if kind == EntryKind::Local {
            locals += 1;
            if locals > 2 {
                return Err(format!(
                    "deque of proc {}: more than two local entries",
                    d.owner
                ));
            }
        }
        phase = needed;
    }
    Ok(())
}

/// Renders a deque compactly for diagnostics, e.g.
/// `proc 0 top=2 bot=3 [T T J L]`: one pass over its slots that ends at
/// the first empty one, after which §6.2's invariant leaves every slot
/// empty (a dump after every run costs the occupied slots, not the
/// array; [`check_invariant`] is what reads every slot).
pub fn render(mem: &PersistentMemory, d: &DequeAddrs) -> String {
    let mut body = String::new();
    for i in 0..d.slots {
        let tag = match kind_of(mem.load(d.entry(i))) {
            EntryKind::Empty => break,
            EntryKind::Local => "L",
            EntryKind::Job => "J",
            EntryKind::Taken => "T",
        };
        if !body.is_empty() {
            body.push(' ');
        }
        body.push_str(tag);
    }
    format!(
        "proc {} top={} bot={} [{body}]",
        d.owner,
        mem.load(d.top),
        mem.load(d.bot)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::pack;
    use ppm_core::Machine;
    use ppm_pm::PmConfig;

    fn setup() -> (Machine, Vec<DequeAddrs>) {
        let m = Machine::new(PmConfig::parallel(2, 1 << 18));
        let d = build_deques(&m, 16);
        (m, d)
    }

    #[test]
    fn fresh_deques_are_all_empty_and_valid() {
        let (m, ds) = setup();
        for d in &ds {
            let snap = snapshot(m.mem(), d);
            assert_eq!(snap.top, 0);
            assert_eq!(snap.bot, 0);
            assert!(snap
                .entries
                .iter()
                .all(|(t, v)| *t == 0 && *v == EntryVal::Empty));
            check_invariant(m.mem(), d).unwrap();
        }
    }

    #[test]
    fn invariant_accepts_legal_shapes() {
        let (m, ds) = setup();
        let d = &ds[0];
        // taken taken job job local empty...
        m.mem().store(
            d.entry(0),
            pack(
                3,
                EntryVal::Taken {
                    proc: 1,
                    slot: 0,
                    tag: 0,
                },
            ),
        );
        m.mem().store(
            d.entry(1),
            pack(
                2,
                EntryVal::Taken {
                    proc: 1,
                    slot: 1,
                    tag: 0,
                },
            ),
        );
        m.mem()
            .store(d.entry(2), pack(1, EntryVal::Job { handle: 64 }));
        m.mem()
            .store(d.entry(3), pack(1, EntryVal::Job { handle: 72 }));
        m.mem().store(d.entry(4), pack(1, EntryVal::Local));
        check_invariant(m.mem(), d).unwrap();
        // Two locals (transient pushBottom state) are allowed.
        m.mem().store(d.entry(5), pack(1, EntryVal::Local));
        check_invariant(m.mem(), d).unwrap();
    }

    #[test]
    fn invariant_rejects_job_after_local() {
        let (m, ds) = setup();
        let d = &ds[0];
        m.mem().store(d.entry(0), pack(1, EntryVal::Local));
        m.mem()
            .store(d.entry(1), pack(1, EntryVal::Job { handle: 64 }));
        let err = check_invariant(m.mem(), d).unwrap_err();
        assert!(err.contains("violates"), "{err}");
    }

    #[test]
    fn invariant_rejects_three_locals() {
        let (m, ds) = setup();
        let d = &ds[0];
        for i in 0..3 {
            m.mem().store(d.entry(i), pack(1, EntryVal::Local));
        }
        let err = check_invariant(m.mem(), d).unwrap_err();
        assert!(err.contains("two local"), "{err}");
    }

    #[test]
    fn invariant_rejects_taken_after_empty() {
        let (m, ds) = setup();
        let d = &ds[0];
        m.mem().store(
            d.entry(1),
            pack(
                1,
                EntryVal::Taken {
                    proc: 0,
                    slot: 0,
                    tag: 0,
                },
            ),
        );
        assert!(check_invariant(m.mem(), d).is_err());
    }

    #[test]
    fn render_is_compact() {
        let (m, ds) = setup();
        let d = &ds[0];
        m.mem()
            .store(d.entry(0), pack(1, EntryVal::Job { handle: 64 }));
        assert_eq!(render(m.mem(), d), "proc 0 top=0 bot=0 [J]");
        m.mem().store(d.entry(1), pack(1, EntryVal::Local));
        assert_eq!(render(m.mem(), d), "proc 0 top=0 bot=0 [J L]");
        assert_eq!(render(m.mem(), &ds[1]), "proc 1 top=0 bot=0 []");
    }

    #[test]
    fn deque_regions_are_disjoint_across_procs() {
        let (_m, ds) = setup();
        assert!(ds[0].stack.end() <= ds[1].stack.start || ds[1].stack.end() <= ds[0].stack.start);
        assert_ne!(ds[0].top, ds[1].top);
        assert_ne!(ds[0].bot, ds[1].bot);
    }
}
