//! Matrix multiplication (§7, Theorem 7.4).
//!
//! The standard 8-way recursive multiply. "Every pair of submatrix
//! multiplications shares the same output location. This leads to
//! write-after-read conflicts ... Therefore, the algorithm allocates two
//! copies of temporary space for the output in each recursive subtask,
//! which allows applying computation for the matrix multiplication in two
//! subtasks on different output spaces (with no conflicts), and eventually
//! adding computed values from the temporary space back to the original
//! output space."
//!
//! Recursion stops when a subproblem fits in the ephemeral memory (three
//! `size × size` tiles ≤ M), computed inside one capsule: maximum capsule
//! work O(M/B + √M) = O(M^{3/2})-bounded, matching the theorem's shape.
//! Temporaries come from the restart-stable pool allocator; the pool is
//! never freed (the paper's bump allocator, §4.1), so total temporary
//! space is O(n³/√M) rather than the paper's work-stealing-stack bound of
//! O(P^{1/3}·n²) — a space-only simplification: the transfers Theorem 7.4
//! counts (work, depth, capsule work) are the recursion's and do not
//! depend on where a temporary lives; only the pool a caller must size
//! ([`matmul_pool_words`]) is larger.

use std::sync::Arc;

use ppm_core::dsl::{fork_many, CapsuleDef, CapsuleSet, Span, Step, K};
use ppm_core::{persist_struct, Machine, PComp};
use ppm_pm::{ProcCtx, Region, Word};

use crate::util::{next_pow2, pread_range, pwrite_range};

persist_struct! {
    /// A square view into a row-major matrix stored in a region.
    struct MView {
        region: Region,
        row0: usize,
        col0: usize,
        stride: usize,
    }
}

impl MView {
    fn addr(&self, i: usize, j: usize) -> usize {
        self.region
            .at((self.row0 + i) * self.stride + self.col0 + j)
    }

    fn quadrant(&self, qi: usize, qj: usize, half: usize) -> MView {
        MView {
            region: self.region,
            row0: self.row0 + qi * half,
            col0: self.col0 + qj * half,
            stride: self.stride,
        }
    }
}

/// Reads a `size × size` view (blocked row reads).
fn read_view(ctx: &mut ProcCtx, v: MView, size: usize) -> ppm_pm::PmResult<Vec<Word>> {
    let mut out = Vec::with_capacity(size * size);
    for i in 0..size {
        out.extend(pread_range(ctx, v.addr(i, 0), size)?);
    }
    Ok(out)
}

/// Stores the row-major rows of `data`, `cols` words each, into `region`
/// at row stride `stride`: one bulk write per row (uncosted setup).
fn store_rows(machine: &Machine, region: Region, stride: usize, data: &[Word], cols: usize) {
    for (i, row) in data.chunks(cols).enumerate() {
        machine.mem().write_range(region.at(i * stride), row);
    }
}

/// Reads `rows × cols` row-major words out of `region` at row stride
/// `stride` (oracle).
fn load_rows(
    machine: &Machine,
    region: Region,
    stride: usize,
    rows: usize,
    cols: usize,
) -> Vec<Word> {
    let mut out = vec![0; rows * cols];
    for (i, row) in out.chunks_mut(cols).enumerate() {
        machine.mem().read_range(region.at(i * stride), row);
    }
    out
}

/// Writes a `size × size` view.
fn write_view(ctx: &mut ProcCtx, v: MView, size: usize, data: &[Word]) -> ppm_pm::PmResult<()> {
    for i in 0..size {
        pwrite_range(ctx, v.addr(i, 0), &data[i * size..(i + 1) * size])?;
    }
    Ok(())
}

/// Largest tile dimension whose three operand tiles fit the ephemeral
/// memory.
fn base_dim(m_eph: usize) -> usize {
    (((m_eph / 4) as f64).sqrt() as usize).max(1)
}

/// The base-case body: `c = a·b` for a tile that fits in ephemeral
/// memory, computed inside one capsule.
fn mult_base_body(
    ctx: &mut ProcCtx,
    a: MView,
    b: MView,
    c: MView,
    size: usize,
) -> ppm_pm::PmResult<()> {
    let av = read_view(ctx, a, size)?;
    let bv = read_view(ctx, b, size)?;
    let mut cv = vec![0u64; size * size];
    for i in 0..size {
        for k in 0..size {
            let aik = av[i * size + k];
            if aik == 0 {
                continue;
            }
            for j in 0..size {
                cv[i * size + j] =
                    cv[i * size + j].wrapping_add(aik.wrapping_mul(bv[k * size + j]));
            }
        }
    }
    write_view(ctx, c, size, &cv)
}

/// The elementwise-addition body for rows `[r0, r1)` of `c = t1 + t2`.
fn add_rows_body(
    ctx: &mut ProcCtx,
    t1: MView,
    t2: MView,
    c: MView,
    size: usize,
    r0: usize,
    r1: usize,
) -> ppm_pm::PmResult<()> {
    for i in r0..r1 {
        let x = pread_range(ctx, t1.addr(i, 0), size)?;
        let y = pread_range(ctx, t2.addr(i, 0), size)?;
        let sum: Vec<Word> = x.iter().zip(&y).map(|(p, q)| p.wrapping_add(*q)).collect();
        pwrite_range(ctx, c.addr(i, 0), &sum)?;
    }
    Ok(())
}

// ====================================================================
// The matrix-multiply capsule family (typed DSL)
// ====================================================================

persist_struct! {
    /// One recursive multiply task: `c = a·b` over `size × size` views
    /// (`size` is a power of two).
    struct MulState {
        a: MView,
        b: MView,
        c: MView,
        size: usize,
    }
}

persist_struct! {
    /// Environment of the addition phase: `c = t1 + t2`, row-parallel.
    struct AddEnv {
        t1: MView,
        t2: MView,
        c: MView,
        size: usize,
    }
}

/// The matrix-multiply capsule family on the typed DSL: one multiply
/// capsule whose eight recursive products fan out through `fork_many`,
/// joined into a row-parallel addition map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MmCapsules {
    mul: CapsuleDef<MulState>,
}

impl MmCapsules {
    /// Declares (idempotently) the matmul capsules on `machine`'s
    /// registry and installs their bodies.
    pub(crate) fn declare(machine: &Machine) -> MmCapsules {
        let mut set = CapsuleSet::new(machine);
        let mul = set.declare::<MulState>("matmul/mul");

        let add_leaf = set.define("matmul/add-rows", |st: &Span<AddEnv>, k, ctx| {
            let e = st.env;
            add_rows_body(ctx, e.t1, e.t2, e.c, e.size, st.lo, st.hi)?;
            Ok(Step::Jump(k))
        });
        let add_map = set.map_grain("matmul/add", 1, add_leaf);

        set.body(mul, move |st: &MulState, k, ctx| {
            let size = st.size;
            if size <= base_dim(ctx.ephemeral_words()) {
                mult_base_body(ctx, st.a, st.b, st.c, size)?;
                return Ok(Step::Jump(k));
            }
            let half = size / 2;
            // Two temporaries, each size×size, from the restart-stable
            // pool (the paper's copy-out trick against write-after-read
            // conflicts on the shared output).
            let view = |start: usize| MView {
                region: Region {
                    start,
                    len: size * size,
                },
                row0: 0,
                col0: 0,
                stride: size,
            };
            let t1 = view(ctx.palloc(size * size)?);
            let t2 = view(ctx.palloc(size * size)?);
            let add_entry = add_map.frame(
                ctx,
                &Span {
                    env: AddEnv {
                        t1,
                        t2,
                        c: st.c,
                        size,
                    },
                    lo: 0,
                    hi: size,
                },
                k,
            )?;
            // T1 ← first terms, T2 ← second terms of each C quadrant.
            let mut products = Vec::with_capacity(8);
            for qi in 0..2 {
                for qj in 0..2 {
                    products.push(MulState {
                        a: st.a.quadrant(qi, 0, half),
                        b: st.b.quadrant(0, qj, half),
                        c: t1.quadrant(qi, qj, half),
                        size: half,
                    });
                    products.push(MulState {
                        a: st.a.quadrant(qi, 1, half),
                        b: st.b.quadrant(1, qj, half),
                        c: t2.quadrant(qi, qj, half),
                        size: half,
                    });
                }
            }
            fork_many(ctx, mul, &products, add_entry)
        });

        MmCapsules { mul }
    }
}

/// Pool words one processor may need for multiplying padded dimension
/// `n_pad` with ephemeral memory `m_eph` (worst case: one processor
/// expands every node: 2·n³/base_dim temporary words, plus slack).
///
/// **Assumes checkpoint GC** (`ppm_sched::checkpoint`, on by default) —
/// see [`crate::sort::samplesort_pool_words`] for the caveat; a run with
/// checkpointing disabled that must survive crash resume or hard-fault
/// adoption should roughly double this budget (the pre-GC sizing).
pub fn matmul_pool_words(n: usize, m_eph: usize) -> usize {
    let np = next_pow2(n);
    let bd = base_dim(m_eph);
    if np <= bd {
        1 << 12
    } else {
        // Temporaries: sum over levels of 2·(nodes)·(size²) = 2n²(2^L − 1)
        // ≈ 2n³/bd, plus join cells (tens of words per node); 3·n³/bd
        // covers both with slack. Every node also writes typed frames for
        // the eight products, the fork-pair tree and the per-row add map
        // — ≈ 52·size words per node (frames grew a parent-span
        // provenance word), which sums to ≈ 52·n³/bd² and dominates at
        // small base dimensions. The pre-checkpoint sizing (PR 3)
        // doubled both terms because a
        // crash-resumed (or hard-fault-adopted) run re-allocated above
        // the dead run's watermark; checkpoint GC (`ppm_sched::checkpoint`,
        // on by default) now caps that re-allocation at one epoch's
        // churn, so the doubling is gone.
        let cube = np * np * (np / bd).max(1);
        3 * cube + 52 * cube / bd.max(1) + (1 << 15)
    }
}

/// A matrix-multiply instance: `c = a · b`, all `n × n` row-major.
#[derive(Debug, Clone, Copy)]
pub struct MatMul {
    /// Left operand.
    pub a: Region,
    /// Right operand.
    pub b: Region,
    /// Product.
    pub c: Region,
    n: usize,
    n_pad: usize,
}

impl MatMul {
    /// Carves regions for an `n × n` multiply (padded internally to the
    /// next power of two). Build the machine with
    /// [`matmul_pool_words`]-sized pools.
    pub fn new(machine: &Machine, n: usize) -> Self {
        assert!(n > 0);
        let n_pad = next_pow2(n);
        MatMul {
            a: machine.alloc_region(n_pad * n_pad),
            b: machine.alloc_region(n_pad * n_pad),
            c: machine.alloc_region(n_pad * n_pad),
            n,
            n_pad,
        }
    }

    /// Loads both operands (row-major, `n × n`; uncosted setup).
    pub fn load_inputs(&self, machine: &Machine, a: &[Word], b: &[Word]) {
        assert_eq!(a.len(), self.n * self.n);
        assert_eq!(b.len(), self.n * self.n);
        store_rows(machine, self.a, self.n_pad, a, self.n);
        store_rows(machine, self.b, self.n_pad, b, self.n);
    }

    /// Reads the product (row-major, `n × n`; oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        load_rows(machine, self.c, self.n_pad, self.n, self.n)
    }

    /// The multiplication computation as registered persistent capsules,
    /// for `ppm_sched::Runtime::run_or_recover`: every recursive product,
    /// fork-pair fan-out node, and addition row is a typed frame, so a
    /// killed run resumes mid-recursion.
    pub fn pcomp(&self) -> PComp {
        let s = *self;
        Arc::new(move |machine: &Machine, finale: Word| {
            let caps = MmCapsules::declare(machine);
            let v = |region: Region| MView {
                region,
                row0: 0,
                col0: 0,
                stride: s.n_pad,
            };
            caps.mul
                .setup(
                    machine,
                    &MulState {
                        a: v(s.a),
                        b: v(s.b),
                        c: v(s.c),
                        size: s.n_pad,
                    },
                    K(finale),
                )
                .word()
        })
    }
}

/// A rectangular multiply `c[m×n] = a[m×k] · b[k×n]` (§7's closing note:
/// "we can extend this result to non-square matrices using a similar
/// approach to \[31\]"). Implemented by embedding the operands in the
/// smallest enclosing power-of-two square (zero padding is absorbed by
/// the base case's zero-skip), which preserves the work bound up to the
/// aspect ratio — the dimension-splitting refinement of \[31\] would remove
/// that factor for extreme shapes.
#[derive(Debug, Clone, Copy)]
pub struct MatMulRect {
    inner: MatMul,
    m_rows: usize,
    k_inner: usize,
    n_cols: usize,
}

impl MatMulRect {
    /// Carves regions for `c[m×n] = a[m×k] · b[k×n]`.
    pub fn new(machine: &Machine, m_rows: usize, k_inner: usize, n_cols: usize) -> Self {
        assert!(m_rows > 0 && k_inner > 0 && n_cols > 0);
        let dim = m_rows.max(k_inner).max(n_cols);
        MatMulRect {
            inner: MatMul::new(machine, dim),
            m_rows,
            k_inner,
            n_cols,
        }
    }

    /// Pool words needed (delegates to the square bound on the enclosing
    /// dimension).
    pub fn pool_words(m_rows: usize, k_inner: usize, n_cols: usize, m_eph: usize) -> usize {
        matmul_pool_words(m_rows.max(k_inner).max(n_cols), m_eph)
    }

    /// Loads `a` (`m×k`, row-major) and `b` (`k×n`, row-major); the
    /// padding stays zero (uncosted setup).
    pub fn load_inputs(&self, machine: &Machine, a: &[Word], b: &[Word]) {
        assert_eq!(a.len(), self.m_rows * self.k_inner);
        assert_eq!(b.len(), self.k_inner * self.n_cols);
        let np = self.inner.n_pad;
        store_rows(machine, self.inner.a, np, a, self.k_inner);
        store_rows(machine, self.inner.b, np, b, self.n_cols);
    }

    /// Reads the `m×n` product (oracle).
    pub fn read_output(&self, machine: &Machine) -> Vec<Word> {
        let np = self.inner.n_pad;
        load_rows(machine, self.inner.c, np, self.m_rows, self.n_cols)
    }

    /// The multiplication computation (the enclosing square's
    /// [`MatMul::pcomp`]).
    pub fn pcomp(&self) -> PComp {
        self.inner.pcomp()
    }
}

/// Sequential rectangular oracle: `c[m×n] = a[m×k] · b[k×n]`.
pub fn matmul_rect_seq(a: &[Word], b: &[Word], m: usize, k: usize, n: usize) -> Vec<Word> {
    let mut c = vec![0u64; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[kk * n + j]));
            }
        }
    }
    c
}

/// Sequential oracle (wrapping arithmetic, row-major).
pub fn matmul_seq(a: &[Word], b: &[Word], n: usize) -> Vec<Word> {
    let mut c = vec![0u64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_pm::{FaultConfig, PmConfig};
    use ppm_sched::{Runtime, SchedConfig};

    fn data(seed: u64, n: usize) -> Vec<u64> {
        (0..(n * n) as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)) % 100)
            .collect()
    }

    fn runtime_for(n: usize, procs: usize, m_eph: usize, f: FaultConfig) -> Runtime {
        Runtime::new(
            Machine::with_pool_words(
                PmConfig::parallel(procs, 1 << 23)
                    .with_ephemeral_words(m_eph)
                    .with_fault(f),
                matmul_pool_words(n, m_eph),
            ),
            SchedConfig::with_slots(1 << 13),
        )
    }

    fn check_registered(n: usize, procs: usize, m_eph: usize, f: FaultConfig) {
        let rt = runtime_for(n, procs, m_eph, f);
        let mm = MatMul::new(rt.machine(), n);
        let (a, b) = (data(5, n), data(6, n));
        mm.load_inputs(rt.machine(), &a, &b);
        let rep = rt.run_or_recover(&mm.pcomp());
        assert!(rep.completed());
        assert_eq!(
            mm.read_output(rt.machine()),
            matmul_seq(&a, &b, n),
            "registered n={n}"
        );
    }

    #[test]
    fn registered_tiny_and_recursive() {
        check_registered(4, 1, 256, FaultConfig::none());
        check_registered(16, 2, 64, FaultConfig::none());
    }

    #[test]
    fn registered_medium_parallel() {
        check_registered(32, 4, 256, FaultConfig::none());
    }

    #[test]
    fn registered_with_soft_faults() {
        for seed in [3, 11] {
            check_registered(16, 2, 64, FaultConfig::soft(0.005, seed));
        }
    }

    #[test]
    fn registered_with_hard_fault() {
        check_registered(
            24,
            3,
            256,
            FaultConfig::none().with_scheduled_hard_fault(0, 300),
        );
    }

    #[test]
    fn non_power_of_two_dimension() {
        check_registered(6, 1, 256, FaultConfig::none());
        check_registered(12, 2, 256, FaultConfig::none());
    }

    #[test]
    fn identity_multiplication() {
        let n = 8;
        let m = Machine::new(PmConfig::parallel(1, 1 << 21).with_ephemeral_words(256));
        let mm = MatMul::new(&m, n);
        let mut eye = vec![0u64; n * n];
        for i in 0..n {
            eye[i * n + i] = 1;
        }
        let b = data(5, n);
        mm.load_inputs(&m, &eye, &b);
        let rt = Runtime::new(m, SchedConfig::with_slots(1 << 12));
        let rep = rt.run_or_recover(&mm.pcomp());
        assert!(rep.completed());
        assert_eq!(mm.read_output(rt.machine()), b);
    }

    #[test]
    fn rectangular_multiply_matches_oracle() {
        let (mr, kk, nc) = (5usize, 9usize, 3usize);
        let m = Machine::with_pool_words(
            PmConfig::parallel(2, 1 << 22).with_ephemeral_words(64),
            MatMulRect::pool_words(mr, kk, nc, 64),
        );
        let mm = MatMulRect::new(&m, mr, kk, nc);
        let a: Vec<u64> = (0..(mr * kk) as u64).map(|i| i % 7).collect();
        let b: Vec<u64> = (0..(kk * nc) as u64).map(|i| (i * 3) % 5).collect();
        mm.load_inputs(&m, &a, &b);
        let rt = Runtime::new(m, SchedConfig::with_slots(1 << 12));
        let rep = rt.run_or_recover(&mm.pcomp());
        assert!(rep.completed());
        assert_eq!(
            mm.read_output(rt.machine()),
            matmul_rect_seq(&a, &b, mr, kk, nc)
        );
    }

    #[test]
    fn rectangular_tall_and_wide_shapes() {
        for (mr, kk, nc) in [
            (1usize, 16usize, 16usize),
            (16, 1, 16),
            (16, 16, 1),
            (2, 20, 6),
        ] {
            let m = Machine::with_pool_words(
                PmConfig::parallel(1, 1 << 22).with_ephemeral_words(256),
                MatMulRect::pool_words(mr, kk, nc, 256),
            );
            let mm = MatMulRect::new(&m, mr, kk, nc);
            let a: Vec<u64> = (0..(mr * kk) as u64).map(|i| i % 11).collect();
            let b: Vec<u64> = (0..(kk * nc) as u64).map(|i| (i * 7) % 13).collect();
            mm.load_inputs(&m, &a, &b);
            let rt = Runtime::new(m, SchedConfig::with_slots(1 << 12));
            let rep = rt.run_or_recover(&mm.pcomp());
            assert!(rep.completed(), "{mr}x{kk}x{nc}");
            assert_eq!(
                mm.read_output(rt.machine()),
                matmul_rect_seq(&a, &b, mr, kk, nc),
                "{mr}x{kk}x{nc}"
            );
        }
    }

    #[test]
    fn work_scales_cubically_at_fixed_m() {
        let work = |n: usize| {
            let rt = crate::util::theorem_runtime(
                PmConfig::parallel(1, 1 << 23).with_ephemeral_words(64),
                matmul_pool_words(n, 64),
            );
            let mm = MatMul::new(rt.machine(), n);
            mm.load_inputs(rt.machine(), &data(1, n), &data(2, n));
            let rep = rt.run_or_recover(&mm.pcomp());
            assert!(rep.completed());
            rep.stats().total_work()
        };
        let (w1, w2) = (work(16), work(32));
        let ratio = w2 as f64 / w1 as f64;
        // Theorem 7.4: work O(n³/(B√M)): doubling n → ~8x transfers.
        assert!(
            (6.0..11.0).contains(&ratio),
            "2x dimension should be ~8x work, got {ratio} ({w1} -> {w2})"
        );
    }
}
