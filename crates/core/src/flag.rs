//! Completion flags: detecting that a computation has finished.
//!
//! A multithreaded computation on the Parallel-PM finishes when its final
//! join's last arriver runs the root continuation: the `finale` frame
//! ([`crate::registry::CORE_ID_FINALE`], args `[flag]`), whose capsule sets
//! a persistent flag and ends the root thread. Scheduler loops poll it (a
//! racy read — atomically idempotent per §5's racy-read analysis, since
//! the flag only ever transitions `0 → 1`).

use ppm_pm::{Addr, PersistentMemory, PmResult, ProcCtx};

use crate::machine::Machine;

/// A one-shot persistent completion flag.
#[derive(Debug, Clone, Copy)]
pub struct DoneFlag {
    addr: Addr,
}

impl DoneFlag {
    /// Carves a flag out of the machine's address space (initially 0).
    pub fn new(machine: &Machine) -> Self {
        let r = machine.alloc_region(1);
        DoneFlag { addr: r.start }
    }

    /// Wraps an existing address.
    pub fn at(addr: Addr) -> Self {
        DoneFlag { addr }
    }

    /// The flag's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Uncosted oracle read (used by driver loops outside the model and by
    /// tests).
    pub fn is_set(&self, mem: &PersistentMemory) -> bool {
        mem.load(self.addr) != 0
    }

    /// Costed read from within a capsule (the scheduler's termination
    /// check).
    pub fn read(&self, ctx: &mut ProcCtx) -> PmResult<bool> {
        Ok(ctx.pread(self.addr)? != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CORE_ID_FINALE;
    use crate::runner::{run_chain, InstallCtx};
    use ppm_pm::{PmConfig, Word};

    #[test]
    fn finale_sets_flag() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 16));
        let flag = DoneFlag::new(&m);
        assert!(!flag.is_set(m.mem()));
        let finale = m.setup_frame(CORE_ID_FINALE, &[flag.addr() as Word]);
        let mut ctx = m.ctx(0);
        let mut install = InstallCtx::new(m.mem(), m.proc_meta(0));
        run_chain(&mut ctx, m.arena(), &mut install, finale).unwrap();
        assert!(flag.is_set(m.mem()));
    }

    #[test]
    fn costed_read_matches_oracle() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 16));
        let flag = DoneFlag::new(&m);
        let mut ctx = m.ctx(0);
        ctx.begin_capsule("t");
        assert!(!flag.read(&mut ctx).unwrap());
        m.mem().store(flag.addr(), 1);
        ctx.complete_capsule();
        ctx.begin_capsule("t2");
        assert!(flag.read(&mut ctx).unwrap());
    }
}
