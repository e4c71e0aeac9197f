//! The compiled-trace execution loop behind
//! [`crate::vm::Engine::Compiled`].
//!
//! A bound trace executes one *group* at a time, block by block: every
//! [`BOp`] is decoded once and then runs a flat loop over all
//! work-items of the group (`n` cells), so per-op dispatch cost is
//! paid per group instead of per work-item step.
//!
//! Divergent control flow runs the way SIMT hardware runs it, on a
//! stack of (block, reconvergence block, active work-items) entries. A
//! branch on a varying condition that splits the active work-items
//! runs both sides, each under its own mask, and they reconverge at the
//! branch's immediate post-dominator; a loop with a varying exit
//! repeats while any work-item is still in it; a `return` retires only
//! the active work-items. When every active work-item agrees, the
//! branch is taken as a uniform one, so a group pays for masks only
//! where it actually diverges. Under a partial mask only the active
//! work-items execute memory ops (with their bounds checks and
//! race-table updates), integer `/` and `%`, clamps and block-argument
//! copies. Every other op runs on all work-items: slot allocation never
//! lets an op on one side overwrite a value live into the other side
//! (see `trace::shared_slots`), so the waiting work-items' values
//! survive, and a retired or waiting work-item's other cells may hold
//! anything.
//!
//! Parity with the reference interpreter:
//! - value arithmetic follows `vm::bin_op`/`un_op`/`convert` exactly
//!   (f32 arithmetic through f64 intermediates, wrapping integer ops,
//!   identical division-by-zero error strings);
//! - memory ops run per active work-item, in work-item order, with the
//!   same bounds checks and race-table updates as the reference;
//! - `DynStats` are charged from the frozen per-block [`Cost`]s once per
//!   active work-item, and each work-item's steps since the last
//!   barrier trip the step limit with the reference's error string (at
//!   block granularity — the limit is checked before a block runs).
//!
//! [`Cost`]: super::Cost
#![deny(clippy::undocumented_unsafe_blocks)]

use super::trace::{BOp, BSeed, BTerm, Bank, BoundTrace, TracePlan, EXIT, PK};
use crate::error::RuntimeError;
use crate::lower::CompiledKernel;
use crate::vm::{
    global_race_err, local_race_err, BufData, DynStats, ExecOptions, Geometry, GlobalRaceTables,
    LocalBuf, RaceTable, Value,
};

// ---- shared global buffers ------------------------------------------------

enum RawBuf {
    F32(*mut f32, usize),
    F64(*mut f64, usize),
    I32(*mut i32, usize),
}

/// Raw-pointer view of the launch's global buffers, shared across the
/// parallel group threads.
///
/// Concurrent unsynchronised writes through these pointers are only
/// sound because distinct work-groups of a generated kernel write
/// disjoint global cells. That discipline is *validated*, not assumed:
/// when `detect_races` is on, every access first consults
/// [`GlobalRaceTables`], whose write slots are claimed with a
/// compare-and-swap — a second group writing the same cell errors before
/// its payload store, so write/write overlap never reaches the buffer.
/// (A read racing a first write can still observe either value in the
/// narrow window before detection; the launch still fails.) With
/// `detect_races` off the caller asserts disjointness.
struct SharedBufs {
    bufs: Vec<RawBuf>,
}

// SAFETY: the pointers come from `&mut [BufData]` borrowed for the whole
// launch, so they stay valid on every worker thread; cross-thread access
// follows the disjoint-writes discipline documented on the type.
unsafe impl Send for SharedBufs {}
// SAFETY: as for `Send` — shared access only reads and writes elements
// through the checked-in-bounds accessors below.
unsafe impl Sync for SharedBufs {}

/// Typed element accessors: `$name(b, i)` reads (or `$name(b, i, v)`
/// writes) element `i` of buffer `b`, which must hold `$variant`.
macro_rules! raw_access {
    ($($ld:ident, $st:ident, $variant:ident, $t:ty;)+) => {$(
        /// # Safety
        /// `i` is below the buffer's length, and no other group writes
        /// element `i` concurrently.
        unsafe fn $ld(&self, b: usize, i: usize) -> $t {
            let RawBuf::$variant(p, len) = self.bufs[b] else {
                unreachable!("typed load on a buffer of another type");
            };
            debug_assert!(i < len, "global load {i} out of {len}");
            // SAFETY: `i < len` by the caller's bounds check, and `p`
            // points at `len` live elements for the whole launch.
            unsafe { *p.add(i) }
        }

        /// # Safety
        /// As for the load.
        unsafe fn $st(&self, b: usize, i: usize, v: $t) {
            let RawBuf::$variant(p, len) = self.bufs[b] else {
                unreachable!("typed store on a buffer of another type");
            };
            debug_assert!(i < len, "global store {i} out of {len}");
            // SAFETY: as for the load; no other group writes element `i`.
            unsafe { *p.add(i) = v }
        }
    )+};
}

impl SharedBufs {
    fn new(bufs: &mut [BufData]) -> SharedBufs {
        SharedBufs {
            bufs: bufs
                .iter_mut()
                .map(|b| match b {
                    BufData::F32(v) => RawBuf::F32(v.as_mut_ptr(), v.len()),
                    BufData::F64(v) => RawBuf::F64(v.as_mut_ptr(), v.len()),
                    BufData::I32(v) => RawBuf::I32(v.as_mut_ptr(), v.len()),
                })
                .collect(),
        }
    }

    fn len(&self, b: usize) -> usize {
        match self.bufs[b] {
            RawBuf::F32(_, n) | RawBuf::F64(_, n) | RawBuf::I32(_, n) => n,
        }
    }

    raw_access! {
        ld_f32, st_f32, F32, f32;
        ld_f64, st_f64, F64, f64;
        ld_i32, st_i32, I32, i32;
    }
}

#[cold]
fn global_oob(kernel: &CompiledKernel, buf: usize, index: i64, len: usize) -> RuntimeError {
    RuntimeError::GlobalOob {
        buffer: kernel.checked.buffer_params[buf].name.clone(),
        index,
        len,
    }
}

#[cold]
fn local_oob(kernel: &CompiledKernel, arr: usize, index: i64, len: usize) -> RuntimeError {
    RuntimeError::LocalOob {
        array: kernel.checked.local_arrays[arr].name.clone(),
        index,
        len,
    }
}

/// Record one global access in the inter-group race tables.
fn g_race(ctx: &Ctx<'_>, write: bool, buf: usize, i: usize, width: u8) -> Result<(), RuntimeError> {
    let Some(g) = ctx.grace else { return Ok(()) };
    let group = ctx.group_linear;
    let r = if write {
        g.on_write(buf, i, width, group)
    } else {
        g.on_read(buf, i, width, group)
    };
    r.map_err(|(k, other)| global_race_err(ctx.kernel, buf, k, group, other))
}

/// Record one local access of work-item `wi` in its array's race table.
#[allow(clippy::too_many_arguments)]
fn l_race(
    kernel: &CompiledKernel,
    races: &mut [RaceTable],
    write: bool,
    arr: usize,
    i: usize,
    width: u8,
    wi: u32,
    phase: u32,
) -> Result<(), RuntimeError> {
    let Some(rt) = races.get_mut(arr) else {
        return Ok(());
    };
    let r = if write {
        rt.on_write(i, width, wi, phase)
    } else {
        rt.on_read(i, width, wi, phase)
    };
    r.map_err(|(k, writer, other)| local_race_err(kernel, arr, k, writer, other))
}

// ---- per-group state ------------------------------------------------------

/// One divergence-stack entry: run `lanes` from block `pc` until they
/// reach block `rpc`, where the entry below resumes them.
struct Entry {
    pc: usize,
    rpc: usize,
    lanes: Vec<u32>,
}

/// Reusable per-worker execution state: one set of typed banks sized
/// for a whole group, the group's local buffers and race tables, and
/// the divergence stack.
#[derive(Default)]
struct CArena {
    ib: Vec<i64>,
    fb: Vec<f32>,
    db: Vec<f64>,
    locals: Vec<LocalBuf>,
    races: Vec<RaceTable>,
    stack: Vec<Entry>,
    /// Recycled lane lists.
    spare: Vec<Vec<u32>>,
    /// Per-work-item steps this phase run under partial masks.
    steps: Vec<u64>,
}

fn write_seed(a: &mut CArena, s: &BSeed) {
    let (flat, reps, lanes) = (s.flat as usize, s.reps as usize, s.lanes as usize);
    match (s.bank, s.val) {
        (Bank::I, Value::I(x)) => a.ib[flat..flat + reps].fill(x),
        (Bank::I, Value::B(x)) => a.ib[flat..flat + reps].fill(i64::from(x)),
        (Bank::F, Value::F32(x)) => a.fb[flat..flat + reps].fill(x),
        (Bank::D, Value::F64(x)) => a.db[flat..flat + reps].fill(x),
        (Bank::F, Value::V32(xs, w)) if usize::from(w) == lanes => {
            for r in 0..reps {
                a.fb[flat + r * lanes..flat + (r + 1) * lanes].copy_from_slice(&xs[..lanes]);
            }
        }
        (Bank::D, Value::V64(xs, w)) if usize::from(w) == lanes => {
            for r in 0..reps {
                a.db[flat + r * lanes..flat + (r + 1) * lanes].copy_from_slice(&xs[..lanes]);
            }
        }
        // Placeholder seeds for values of another storage class (the
        // banks are zero-filled and lowering writes before reads).
        _ => {}
    }
}

impl CArena {
    fn reset(
        &mut self,
        kernel: &CompiledKernel,
        bt: &BoundTrace,
        init_regs: &[Value],
        detect_races: bool,
    ) {
        self.ib.clear();
        self.ib.resize(bt.ni, 0);
        self.fb.clear();
        self.fb.resize(bt.nf, 0.0);
        self.db.clear();
        self.db.resize(bt.nd, 0.0);
        for s in &bt.seeds {
            write_seed(self, s);
        }
        for (s, reg) in &bt.entry_seeds {
            let mut s = s.clone();
            s.val = init_regs[*reg];
            write_seed(self, &s);
        }
        // Same locals / race-table reuse policy as the reference.
        let arrays = &kernel.checked.local_arrays;
        let locals_ok = self.locals.len() == arrays.len()
            && self
                .locals
                .iter()
                .zip(arrays)
                .all(|(l, a)| l.len() == a.len && l.base_matches(a));
        if locals_ok {
            for l in &mut self.locals {
                l.zero();
            }
        } else {
            self.locals = arrays.iter().map(LocalBuf::new).collect();
        }
        let want_races = if detect_races { arrays.len() } else { 0 };
        if self.races.len() == want_races
            && self.races.iter().zip(arrays).all(|(r, a)| r.len() == a.len)
        {
            for r in &mut self.races {
                r.clear();
            }
        } else if detect_races {
            self.races = arrays.iter().map(|a| RaceTable::new(a.len)).collect();
        } else {
            self.races.clear();
        }
    }

    fn lanes(&mut self) -> Vec<u32> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v
    }
}

/// Launch-wide immutable context for one group.
struct Ctx<'a> {
    kernel: &'a CompiledKernel,
    group: [usize; 2],
    group_linear: u32,
    geom: &'a Geometry,
    /// Work-items per group.
    nwi: usize,
    bufs: &'a SharedBufs,
    opts: &'a ExecOptions,
    grace: Option<&'a GlobalRaceTables>,
}

/// Run the whole NDRange on a compiled plan, groups in parallel:
/// contiguous group ranges per worker, a private arena per worker,
/// range-ordered stats merge.
pub(crate) fn launch(
    kernel: &CompiledKernel,
    plan: &TracePlan,
    geom: &Geometry,
    init_regs: &[Value],
    bufs: &mut [BufData],
    opts: &ExecOptions,
) -> Result<DynStats, RuntimeError> {
    let _span = clgemm_trace::span!("clc.trace_exec");
    let nwi = geom.local[0] * geom.local[1];
    let bt = plan.bind(nwi);
    let n_groups = geom.groups[0] * geom.groups[1];
    let grace = (opts.detect_races && n_groups > 1).then(|| GlobalRaceTables::new(bufs));
    let shared = SharedBufs::new(bufs);
    let results = clgemm_shim::par::par_range_map(n_groups, |range| {
        let mut arena = CArena::default();
        let mut acc = DynStats::default();
        for g in range {
            let ctx = Ctx {
                kernel,
                group: [g % geom.groups[0], g / geom.groups[0]],
                group_linear: g as u32,
                geom,
                nwi,
                bufs: &shared,
                opts,
                grace: grace.as_ref(),
            };
            acc.add(&run_group(&ctx, &bt, init_regs, &mut arena)?);
        }
        Ok(acc)
    });
    let mut stats = DynStats::default();
    for r in results {
        stats.add(&r?);
    }
    Ok(stats)
}

/// Run `ops` for the active work-items `lanes` (ascending): `masked`
/// ops under a partial mask touch only those work-items, everything
/// else runs on the whole group.
fn run_ops(
    ctx: &Ctx<'_>,
    arena: &mut CArena,
    ops: &[BOp],
    phase: u32,
    lanes: &[u32],
) -> Result<(), RuntimeError> {
    let partial = lanes.len() < ctx.nwi;
    for op in ops {
        if partial && op.masked {
            exec_masked(ctx, arena, op, phase, lanes)?;
        } else {
            exec_op(ctx, arena, op, phase)?;
        }
    }
    Ok(())
}

fn run_group(
    ctx: &Ctx<'_>,
    bt: &BoundTrace,
    init_regs: &[Value],
    arena: &mut CArena,
) -> Result<DynStats, RuntimeError> {
    let nwi = ctx.nwi;
    arena.reset(ctx.kernel, bt, init_regs, ctx.opts.detect_races);
    let mut stats = DynStats::default();
    let mut phase: u32 = 0;
    // Steps since the last barrier: every work-item ran `shared`, and
    // work-item `i` ran `arena.steps[i]` more under partial masks.
    let (mut shared, mut most) = (0u64, 0u64);
    arena.steps.clear();
    arena.steps.resize(nwi, 0);
    let mut all = arena.lanes();
    all.extend(0..nwi as u32);
    arena.stack.clear();
    // The running entry; the stack holds the waiting ones.
    let mut e = Entry {
        pc: 0,
        rpc: EXIT,
        lanes: all,
    };
    loop {
        if e.pc == e.rpc || e.pc == EXIT {
            // These work-items reached their join (or finished): resume
            // the next waiting entry.
            let Some(next) = arena.stack.pop() else { break };
            arena.spare.push(std::mem::replace(&mut e, next).lanes);
            continue;
        }
        let blk = &bt.blocks[e.pc];
        if e.lanes.len() == nwi {
            shared = shared.saturating_add(blk.cost.instrs);
        } else {
            for &l in &e.lanes {
                let s = &mut arena.steps[l as usize];
                *s = s.saturating_add(blk.cost.instrs);
                most = most.max(*s);
            }
        }
        if shared.saturating_add(most) > ctx.opts.step_limit {
            return Err(RuntimeError::Internal(format!(
                "work-item exceeded step limit {} (non-terminating kernel?)",
                ctx.opts.step_limit
            )));
        }
        let n = e.lanes.len() as u64;
        stats.instrs += blk.cost.instrs * n;
        stats.alu += blk.cost.alu * n;
        stats.mads += blk.cost.mads * n;
        stats.mem_global_instrs += blk.cost.mem_global_instrs * n;
        stats.mem_global_bytes += blk.cost.mem_global_bytes * n;
        stats.mem_local_instrs += blk.cost.mem_local_instrs * n;
        stats.mem_local_bytes += blk.cost.mem_local_bytes * n;
        run_ops(ctx, arena, &blk.ops, phase, &e.lanes)?;
        match &blk.term {
            BTerm::Br { to, copies } => {
                run_ops(ctx, arena, copies, phase, &e.lanes)?;
                e.pc = *to as usize;
            }
            BTerm::Barrier { to, copies } => {
                // Divergence regions never contain a barrier.
                debug_assert!(arena.stack.is_empty() && e.lanes.len() == nwi);
                run_ops(ctx, arena, copies, phase, &e.lanes)?;
                stats.barriers += 1;
                phase += 1;
                (shared, most) = (0, 0);
                arena.steps.fill(0);
                for rt in &mut arena.races {
                    rt.new_phase();
                }
                e.pc = *to as usize;
            }
            BTerm::Ret => e.pc = EXIT,
            BTerm::CondBr {
                cond,
                t,
                f,
                t_copies,
                f_copies,
                join,
            } => {
                let cond = *cond as usize;
                let (t, f) = (*t as usize, *f as usize);
                let Some(r) = *join else {
                    let (to, copies) = if arena.ib[cond] != 0 {
                        (t, t_copies)
                    } else {
                        (f, f_copies)
                    };
                    run_ops(ctx, arena, copies, phase, &e.lanes)?;
                    e.pc = to;
                    continue;
                };
                let (mut tl, mut fl) = (arena.lanes(), arena.lanes());
                for &l in &e.lanes {
                    if arena.ib[cond + l as usize] != 0 {
                        tl.push(l);
                    } else {
                        fl.push(l);
                    }
                }
                if tl.is_empty() || fl.is_empty() {
                    // Every active work-item agrees: a uniform branch.
                    let (to, copies) = if fl.is_empty() {
                        (t, t_copies)
                    } else {
                        (f, f_copies)
                    };
                    arena.spare.extend([tl, fl]);
                    run_ops(ctx, arena, copies, phase, &e.lanes)?;
                    e.pc = to;
                    continue;
                }
                run_ops(ctx, arena, t_copies, phase, &tl)?;
                run_ops(ctx, arena, f_copies, phase, &fl)?;
                // The side holding the lowest work-item runs first, as
                // in the reference's work-item order; `e` waits at the
                // join with all its lanes, unless that is where it ends
                // anyway (a loop's varying exit).
                let ((pc, lanes), (later, later_lanes)) = if tl[0] < fl[0] {
                    ((t, tl), (f, fl))
                } else {
                    ((f, fl), (t, tl))
                };
                let split = std::mem::replace(&mut e, Entry { pc, rpc: r, lanes });
                if split.rpc == r {
                    arena.spare.push(split.lanes);
                } else {
                    arena.stack.push(Entry { pc: r, ..split });
                }
                arena.stack.push(Entry {
                    pc: later,
                    rpc: r,
                    lanes: later_lanes,
                });
            }
        }
    }
    arena.spare.push(e.lanes);
    Ok(stats)
}

// ---- ops ------------------------------------------------------------------

/// `s[i]` without a bounds check.
///
/// # Safety
/// `i < s.len()`. Callers assert every range an op touches before its
/// loop; the `debug_assert!` re-checks each access in test builds.
#[inline(always)]
unsafe fn rd<T: Copy>(s: &[T], i: usize) -> T {
    debug_assert!(i < s.len(), "bank read {i} out of {}", s.len());
    // SAFETY: the caller guarantees `i < s.len()`.
    unsafe { *s.get_unchecked(i) }
}

/// `s[i] = v` without a bounds check.
///
/// # Safety
/// As for [`rd`].
#[inline(always)]
unsafe fn wr<T>(s: &mut [T], i: usize, v: T) {
    debug_assert!(i < s.len(), "bank write {i} out of {}", s.len());
    // SAFETY: the caller guarantees `i < s.len()`.
    unsafe { *s.get_unchecked_mut(i) = v }
}

/// Vectorised i64 helpers for the hottest address-arithmetic kinds.
/// The scalar loops cannot auto-vectorise: source and destination
/// ranges live in one bank, and LLVM cannot prove they don't partially
/// overlap. Slot allocation guarantees ranges are pairwise *equal or
/// disjoint*, so loading a whole chunk before storing it is exact.
///
/// Every function requires `x + n <= p.len()` for each of its range
/// starts `x`; the caller's `ck!` asserts it.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod vi {
    use super::{rd, wr};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_sll_epi64, _mm256_srl_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
        _mm_cvtsi32_si128,
    };

    /// `d[j] = a[j] + b[j]` (wrapping).
    pub fn add(p: &mut [i64], d: usize, a: usize, b: usize, n: usize) {
        assert!(d.max(a).max(b) + n <= p.len());
        let q = p.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            debug_assert!(d.max(a).max(b) + j + 4 <= p.len());
            // SAFETY: AVX2 is enabled at compile time (the module's
            // `cfg`), and `j + 4 <= n` keeps the chunk inside each range.
            unsafe {
                let x = _mm256_loadu_si256(q.add(a + j).cast());
                let y = _mm256_loadu_si256(q.add(b + j).cast());
                _mm256_storeu_si256(q.add(d + j).cast(), _mm256_add_epi64(x, y));
            }
            j += 4;
        }
        for j in j..n {
            // SAFETY: `j < n` and every range is in bounds (above).
            unsafe { wr(p, d + j, rd(p, a + j).wrapping_add(rd(p, b + j))) };
        }
    }

    /// `d[j] = a[j] << sh` (wrapping multiply by `2^sh`).
    pub fn shl(p: &mut [i64], d: usize, a: usize, sh: u32, n: usize) {
        assert!(d.max(a) + n <= p.len());
        let q = p.as_mut_ptr();
        let mut j = 0;
        // SAFETY: AVX2 is enabled at compile time (the module's `cfg`),
        // and `j + 4 <= n` keeps each 4-lane chunk inside both ranges.
        unsafe {
            let cnt = _mm_cvtsi32_si128(sh as i32);
            while j + 4 <= n {
                debug_assert!(d.max(a) + j + 4 <= p.len());
                let x = _mm256_loadu_si256(q.add(a + j).cast());
                _mm256_storeu_si256(q.add(d + j).cast(), _mm256_sll_epi64(x, cnt));
                j += 4;
            }
        }
        for j in j..n {
            // SAFETY: `j < n` and both ranges are in bounds (above).
            unsafe { wr(p, d + j, rd(p, a + j).wrapping_shl(sh)) };
        }
    }

    /// Truncating `t >> sh` — AVX2 has no 64-bit arithmetic shift, so
    /// emulate with a logical shift plus sign fill (`sll` by ≥ 64
    /// yields zero, which covers `sh == 0`).
    ///
    /// # Safety
    /// AVX2 must be available (the module's `cfg` guarantees it).
    #[inline]
    unsafe fn sra(t: __m256i, cnt: __m128i, cnt_inv: __m128i) -> __m256i {
        // SAFETY: register-only intrinsics; AVX2 per the contract.
        unsafe {
            let sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), t);
            _mm256_or_si256(_mm256_srl_epi64(t, cnt), _mm256_sll_epi64(sign, cnt_inv))
        }
    }

    /// `d[j] = a[j] / 2^sh` (`REM == false`) or `a[j] % 2^sh`, truncating
    /// like the reference's `DivI`/`RemI`.
    pub fn divrem_p2<const REM: bool>(p: &mut [i64], d: usize, a: usize, sh: u32, n: usize) {
        assert!(d.max(a) + n <= p.len());
        let q = p.as_mut_ptr();
        let mask = (1i64 << sh) - 1;
        let mut j = 0;
        // SAFETY: AVX2 is enabled at compile time (the module's `cfg`),
        // and `j + 4 <= n` keeps each 4-lane chunk inside both ranges.
        unsafe {
            let maskv = _mm256_set1_epi64x(mask);
            let cnt = _mm_cvtsi32_si128(sh as i32);
            let cnt_inv = _mm_cvtsi32_si128(64 - sh as i32);
            while j + 4 <= n {
                debug_assert!(d.max(a) + j + 4 <= p.len());
                let x = _mm256_loadu_si256(q.add(a + j).cast());
                // Round toward zero: bias negative operands by `2^sh - 1`.
                let bias = _mm256_and_si256(_mm256_cmpgt_epi64(_mm256_setzero_si256(), x), maskv);
                let quot = sra(_mm256_add_epi64(x, bias), cnt, cnt_inv);
                let r = if REM {
                    _mm256_sub_epi64(x, _mm256_sll_epi64(quot, cnt))
                } else {
                    quot
                };
                _mm256_storeu_si256(q.add(d + j).cast(), r);
                j += 4;
            }
        }
        for j in j..n {
            // SAFETY: `j < n` and both ranges are in bounds (above).
            let x = unsafe { rd(p, a + j) };
            let quot = x.wrapping_add((x >> 63) & mask) >> sh;
            let r = if REM {
                x.wrapping_sub(quot.wrapping_shl(sh))
            } else {
                quot
            };
            // SAFETY: as above.
            unsafe { wr(p, d + j, r) };
        }
    }
}

/// `MadBF` for the generator's ubiquitous `float2` shape: per rep,
/// `d[2r..2r+2] = a[2r + lane] * b[2r..2r+2] + c[2r..2r+2]`. Slot
/// allocation makes the four ranges pairwise equal or disjoint, so
/// loading a whole chunk before storing it preserves the scalar loop's
/// semantics. On x86 the per-pair lane broadcast is a single
/// `moveldup`/`movehdup`, and `fmadd` rounds once exactly like
/// `f32::mul_add`.
fn madbf_w2(fb: &mut [f32], [d, a, b, c]: [usize; 4], lane: usize, n: usize) {
    assert!(lane < 2 && d.max(a).max(b).max(c) + 2 * n <= fb.len());
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    let done = {
        use core::arch::x86_64::{
            _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_movehdup_ps, _mm256_moveldup_ps,
            _mm256_storeu_ps,
        };
        let p = fb.as_mut_ptr();
        let mut r = 0;
        while r + 4 <= n {
            debug_assert!(d.max(a).max(b).max(c) + 2 * r + 8 <= fb.len());
            // SAFETY: the assert above bounds `x + 2 * n` for each range,
            // and `r + 4 <= n` keeps these 8-float chunks inside it.
            unsafe {
                let va = _mm256_loadu_ps(p.add(a + 2 * r));
                let x = if lane == 0 {
                    _mm256_moveldup_ps(va)
                } else {
                    _mm256_movehdup_ps(va)
                };
                let vb = _mm256_loadu_ps(p.add(b + 2 * r));
                let vc = _mm256_loadu_ps(p.add(c + 2 * r));
                _mm256_storeu_ps(p.add(d + 2 * r), _mm256_fmadd_ps(x, vb, vc));
            }
            r += 4;
        }
        r
    };
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    let done = 0;
    for r in done..n {
        for k in 0..2 {
            // SAFETY: `r < n` and the assert above bounds every range.
            unsafe {
                let x = rd(fb, a + 2 * r + lane);
                wr(
                    fb,
                    d + 2 * r + k,
                    x.mul_add(rd(fb, b + 2 * r + k), rd(fb, c + 2 * r + k)),
                );
            }
        }
    }
}

/// Copy the active work-items' `w`-cell runs from slot `a` to slot `d`.
fn copy_lanes<T: Copy>(bank: &mut [T], [d, a]: [usize; 2], w: usize, lanes: &[u32]) {
    for &l in lanes {
        let o = l as usize * w;
        bank.copy_within(a + o..a + o + w, d + o);
    }
}

/// Execute one bound op against the group banks for every work-item.
#[allow(clippy::too_many_lines)]
fn exec_op(ctx: &Ctx<'_>, arena: &mut CArena, op: &BOp, phase: u32) -> Result<(), RuntimeError> {
    let CArena { ib, fb, db, .. } = arena;
    let (d, a, b, c) = (op.d as usize, op.a as usize, op.b as usize, op.c as usize);
    let n = op.n as usize;
    let w = op.w as usize;
    // One bounds assertion per range up front, then unchecked element
    // accesses inside the loops: the per-element checks LLVM cannot
    // hoist (three ranges into one bank may alias) are what keep these
    // loops from vectorising.
    macro_rules! ck {
        ($bank:ident: $($base:expr),+) => {
            $(assert!($base + n <= $bank.len());)+
        };
    }
    // Elementwise integer helper.
    macro_rules! bin_i {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(ib: d, a, b);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded each range by `n`.
                unsafe {
                    let ($x, $y) = (rd(ib, a + j), rd(ib, b + j));
                    wr(ib, d + j, $e);
                }
            }
        }};
    }
    // f32 arithmetic via f64 intermediates, as the reference does.
    macro_rules! bin_f {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(fb: d, a, b);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded each range by `n`.
                unsafe {
                    let ($x, $y) = (f64::from(rd(fb, a + j)), f64::from(rd(fb, b + j)));
                    wr(fb, d + j, ($e) as f32);
                }
            }
        }};
    }
    macro_rules! bin_d {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(db: d, a, b);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded each range by `n`.
                unsafe {
                    let ($x, $y) = (rd(db, a + j), rd(db, b + j));
                    wr(db, d + j, $e);
                }
            }
        }};
    }
    // Elementwise unary over one bank (`src` may equal `dst`).
    macro_rules! un_ew {
        ($src:ident -> $dst:ident, |$x:ident| $e:expr) => {{
            ck!($src: a);
            ck!($dst: d);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded both ranges by `n`.
                unsafe {
                    let $x = rd($src, a + j);
                    wr($dst, d + j, $e);
                }
            }
        }};
    }
    // `d[r*w + k] = f(src[at])` for every rep `r` and lane `k`, where
    // every `at` stays below `extent`.
    macro_rules! spread {
        ($src:ident -> $dst:ident, $extent:expr, |$r:ident, $k:ident| $at:expr, |$x:ident| $e:expr) => {{
            assert!($extent <= $src.len() && d + n * w <= $dst.len());
            for $r in 0..n {
                for $k in 0..w {
                    // SAFETY: `at < extent` for `r < n`, `k < w`, and the
                    // assert above bounds both ranges.
                    unsafe {
                        let $x = rd($src, $at);
                        wr($dst, d + $r * w + $k, $e);
                    }
                }
            }
        }};
    }
    // `d[j] = a[j] * b[j] + c[j]` with one rounding.
    macro_rules! mad {
        ($bank:ident) => {{
            ck!($bank: d, a, b, c);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded each range by `n`.
                unsafe {
                    let x = rd($bank, a + j).mul_add(rd($bank, b + j), rd($bank, c + j));
                    wr($bank, d + j, x);
                }
            }
        }};
    }
    // Lane-broadcast mad: `d[r*w + k] = a[r*ws + lane] * b[..] + c[..]`.
    macro_rules! mad_lane {
        ($bank:ident) => {{
            let ws = op.buf as usize;
            let lane = op.aux as usize;
            assert!(lane < ws && a + n * ws <= $bank.len());
            assert!(d.max(b).max(c) + n * w <= $bank.len());
            for r in 0..n {
                // SAFETY: `r < n`, `lane < ws`, and the asserts above
                // bound all four ranges.
                unsafe {
                    let x = rd($bank, a + r * ws + lane);
                    for k in 0..w {
                        let (y, z) = (rd($bank, b + r * w + k), rd($bank, c + r * w + k));
                        wr($bank, d + r * w + k, x.mul_add(y, z));
                    }
                }
            }
        }};
    }
    macro_rules! cmp_ew {
        ($bank:ident, $widen:expr) => {{
            let code = op.aux;
            ck!($bank: a, b);
            ck!(ib: d);
            for j in 0..n {
                // SAFETY: `j < n`, and `ck!` bounded each range by `n`.
                unsafe {
                    let (x, y) = ($widen(rd($bank, a + j)), $widen(rd($bank, b + j)));
                    wr(ib, d + j, i64::from(cmp(code, x, y)));
                }
            }
        }};
    }
    match op.k {
        PK::CpyI => ib.copy_within(a..a + n, d),
        PK::CpyF => fb.copy_within(a..a + n, d),
        PK::CpyD => db.copy_within(a..a + n, d),
        // A uniform value (all `w` lanes) repeated for every work-item.
        PK::SplatI => spread!(ib -> ib, a + w, |r, k| a + k, |x| x),
        PK::SplatF => spread!(fb -> fb, a + w, |r, k| a + k, |x| x),
        PK::SplatD => spread!(db -> db, a + w, |r, k| a + k, |x| x),
        PK::AddI => {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            vi::add(ib, d, a, b, n);
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            bin_i!(|x, y| x.wrapping_add(y));
        }
        PK::SubI => bin_i!(|x, y| x.wrapping_sub(y)),
        PK::MulI => bin_i!(|x, y| x.wrapping_mul(y)),
        PK::DivI | PK::RemI => {
            ck!(ib: d, a, b);
            divrem(ib, [d, a, b], op.k == PK::RemI, 0..n)?;
        }
        // Truncating div/rem by 2^aux: round toward zero by adding
        // `2^aux - 1` to negative operands before the arithmetic shift.
        PK::DivIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            vi::divrem_p2::<false>(ib, d, a, sh, n);
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            {
                let mask = (1i64 << sh) - 1;
                un_ew!(ib -> ib, |x| x.wrapping_add((x >> 63) & mask) >> sh);
            }
        }
        PK::RemIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            vi::divrem_p2::<true>(ib, d, a, sh, n);
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            {
                let mask = (1i64 << sh) - 1;
                un_ew!(ib -> ib, |x| {
                    let q = x.wrapping_add((x >> 63) & mask) >> sh;
                    x.wrapping_sub(q.wrapping_shl(sh))
                });
            }
        }
        PK::MulIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            vi::shl(ib, d, a, sh, n);
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            un_ew!(ib -> ib, |x| x.wrapping_shl(sh));
        }
        PK::AndI => bin_i!(|x, y| x & y),
        PK::OrI => bin_i!(|x, y| x | y),
        PK::XorI => bin_i!(|x, y| x ^ y),
        PK::ShlI => bin_i!(|x, y| x.wrapping_shl(y as u32)),
        PK::ShrI => bin_i!(|x, y| x.wrapping_shr(y as u32)),
        PK::LAndI => bin_i!(|x, y| i64::from(x != 0 && y != 0)),
        PK::LOrI => bin_i!(|x, y| i64::from(x != 0 || y != 0)),
        PK::CmpI => {
            let code = op.aux;
            bin_i!(|x, y| i64::from(cmp(code, x, y)));
        }
        PK::NegI => un_ew!(ib -> ib, |x| x.wrapping_neg()),
        PK::NotI => un_ew!(ib -> ib, |x| i64::from(x == 0)),
        PK::AddF => bin_f!(|x, y| x + y),
        PK::SubF => bin_f!(|x, y| x - y),
        PK::MulF => bin_f!(|x, y| x * y),
        PK::DivF => bin_f!(|x, y| x / y),
        PK::NegF => un_ew!(fb -> fb, |x| -x),
        PK::MadF => mad!(fb),
        PK::MadBF if op.buf == 2 && w == 2 => madbf_w2(fb, [d, a, b, c], op.aux as usize, n),
        PK::MadBF => mad_lane!(fb),
        PK::CmpF => cmp_ew!(fb, f64::from),
        PK::AddD => bin_d!(|x, y| x + y),
        PK::SubD => bin_d!(|x, y| x - y),
        PK::MulD => bin_d!(|x, y| x * y),
        PK::DivD => bin_d!(|x, y| x / y),
        PK::NegD => un_ew!(db -> db, |x| -x),
        PK::MadD => mad!(db),
        PK::MadBD => mad_lane!(db),
        PK::CmpD => cmp_ew!(db, f64::from),
        PK::SelI => {
            for j in 0..n {
                ib[d + j] = if ib[c + j] != 0 { ib[a + j] } else { ib[b + j] };
            }
        }
        PK::SelF => {
            for j in 0..n {
                fb[d + j] = if ib[c + j] != 0 { fb[a + j] } else { fb[b + j] };
            }
        }
        PK::SelD => {
            for j in 0..n {
                db[d + j] = if ib[c + j] != 0 { db[a + j] } else { db[b + j] };
            }
        }
        PK::SelVF => {
            for r in 0..n {
                let src = if ib[c + r] != 0 { a } else { b };
                fb.copy_within(src + r * w..src + (r + 1) * w, d + r * w);
            }
        }
        PK::SelVD => {
            for r in 0..n {
                let src = if ib[c + r] != 0 { a } else { b };
                db.copy_within(src + r * w..src + (r + 1) * w, d + r * w);
            }
        }
        PK::I2F => un_ew!(ib -> fb, |x| x as f32),
        PK::I2D => un_ew!(ib -> db, |x| x as f64),
        PK::I2B => un_ew!(ib -> ib, |x| i64::from(x != 0)),
        PK::F2I => un_ew!(fb -> ib, |x| x as i64),
        PK::F2D => un_ew!(fb -> db, |x| f64::from(x)),
        PK::D2I => un_ew!(db -> ib, |x| x as i64),
        PK::D2F => un_ew!(db -> fb, |x| x as f32),
        PK::VF2D => un_ew!(fb -> db, |x| f64::from(x)),
        PK::VD2F => un_ew!(db -> fb, |x| x as f32),
        PK::BcastF => spread!(fb -> fb, a + n, |r, k| a + r, |x| x),
        PK::BcastD => spread!(db -> db, a + n, |r, k| a + r, |x| x),
        // The reference broadcasts ints into a *double* vector.
        PK::BcastID => spread!(ib -> db, a + n, |r, k| a + r, |x| x as f64),
        PK::BuildF => {
            for r in 0..n {
                for (l, &p) in op.ex.iter().enumerate() {
                    fb[d + r * w + l] = fb[p as usize + r];
                }
            }
        }
        PK::BuildD => {
            for r in 0..n {
                for (l, &p) in op.ex.iter().enumerate() {
                    db[d + r * w + l] = db[p as usize + r];
                }
            }
        }
        PK::ExtrF => {
            let lane = op.aux as usize;
            for r in 0..n {
                fb[d + r] = fb[a + r * w + lane];
            }
        }
        PK::ExtrD => {
            let lane = op.aux as usize;
            for r in 0..n {
                db[d + r] = db[a + r * w + lane];
            }
        }
        PK::InsF => {
            let lane = op.aux as usize;
            for r in 0..n {
                fb.copy_within(a + r * w..a + (r + 1) * w, d + r * w);
                fb[d + r * w + lane] = fb[b + r];
            }
        }
        PK::InsD => {
            let lane = op.aux as usize;
            for r in 0..n {
                db.copy_within(a + r * w..a + (r + 1) * w, d + r * w);
                db[d + r * w + lane] = db[b + r];
            }
        }
        PK::MinI => bin_i!(|x, y| x.min(y)),
        PK::MaxI => bin_i!(|x, y| x.max(y)),
        PK::ClampI => clamp(ib, [d, a, b, c], 0..n),
        PK::MinF => bin_f!(|x, y| (x as f32).min(y as f32)),
        PK::MaxF => bin_f!(|x, y| (x as f32).max(y as f32)),
        PK::ClampF => clamp(fb, [d, a, b, c], 0..n),
        PK::MinD => bin_d!(|x, y| x.min(y)),
        PK::MaxD => bin_d!(|x, y| x.max(y)),
        PK::ClampD => clamp(db, [d, a, b, c], 0..n),
        PK::AbsF => un_ew!(fb -> fb, |x| x.abs()),
        PK::AbsD => un_ew!(db -> db, |x| x.abs()),
        PK::SqrtF => un_ew!(fb -> fb, |x| x.sqrt()),
        PK::SqrtD => un_ew!(db -> db, |x| x.sqrt()),
        PK::ExpF => un_ew!(fb -> fb, |x| x.exp()),
        PK::ExpD => un_ew!(db -> db, |x| x.exp()),
        PK::LogF => un_ew!(fb -> fb, |x| x.ln()),
        PK::LogD => un_ew!(db -> db, |x| x.ln()),
        PK::RecipF => un_ew!(fb -> fb, |x| 1.0 / x),
        PK::RecipD => un_ew!(db -> db, |x| 1.0 / x),
        PK::WiId => {
            let dim = (op.aux % 4) as usize;
            let local0 = ctx.geom.local[0];
            let base = ctx.group[dim] * ctx.geom.local[dim];
            for wi in 0..n {
                let lid = if dim == 0 { wi % local0 } else { wi / local0 };
                ib[d + wi] = if op.aux < 4 {
                    (base + lid) as i64 // GlobalId
                } else {
                    lid as i64 // LocalId
                };
            }
        }
        PK::WiUni => {
            let dim = (op.aux % 4) as usize;
            ib[d] = match op.aux / 4 {
                2 => ctx.group[dim] as i64,
                3 => ctx.geom.global[dim] as i64,
                4 => ctx.geom.local[dim] as i64,
                _ => ctx.geom.groups[dim] as i64,
            };
        }
        PK::LdG1F
        | PK::LdGVF
        | PK::LdG1D
        | PK::LdGVD
        | PK::LdG1I
        | PK::StG1F
        | PK::StGVF
        | PK::StG1D
        | PK::StGVD
        | PK::StG1I
        | PK::LdL1F
        | PK::LdLVF
        | PK::LdL1D
        | PK::LdLVD
        | PK::LdL1I
        | PK::StL1F
        | PK::StLVF
        | PK::StL1D
        | PK::StLVD
        | PK::StL1I => {
            exec_mem(ctx, arena, op, phase, 0..n)?;
        }
    }
    Ok(())
}

/// A memory op for the work-items `lanes`, in order: the bounds test
/// inlined (the cold path builds the exact reference error) and the
/// race-table call gated on whether detection is on at all.
fn exec_mem(
    ctx: &Ctx<'_>,
    arena: &mut CArena,
    op: &BOp,
    phase: u32,
    lanes: impl Iterator<Item = usize>,
) -> Result<(), RuntimeError> {
    let CArena {
        ib,
        fb,
        db,
        locals,
        races,
        ..
    } = arena;
    let (d, a, b) = (op.d as usize, op.a as usize, op.b as usize);
    let n = op.n as usize;
    let w = op.w as usize;
    // The bank-side accesses are covered by the up-front asserts (`wi <
    // nwi == n`); the buffer side by the bounds test.
    macro_rules! ld_g {
        ($bank:ident, $ld:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let bi = op.buf as usize;
            let wv: usize = $wv;
            let len = ctx.bufs.len(bi);
            assert!(a + n <= ib.len() && d + n * wv <= $bank.len());
            for wi in lanes {
                // SAFETY: `wi < n`; the assert above bounds the index range.
                let idx = unsafe { rd(ib, a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    return Err(global_oob(ctx.kernel, bi, idx, len));
                }
                let i = idx as usize;
                if ctx.grace.is_some() {
                    g_race(ctx, false, bi, i, wv as u8)?;
                }
                for k in 0..wv {
                    // SAFETY: `i + k < len` by the bounds test, and the
                    // destination range is asserted above.
                    unsafe {
                        let $x = ctx.bufs.$ld(bi, i + k);
                        wr($bank, d + wi * wv + k, $conv);
                    }
                }
            }
        }};
    }
    macro_rules! st_g {
        ($bank:ident, $st:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let bi = op.buf as usize;
            let wv: usize = $wv;
            let len = ctx.bufs.len(bi);
            assert!(a + n <= ib.len() && b + n * wv <= $bank.len());
            for wi in lanes {
                // SAFETY: `wi < n`; the assert above bounds the index range.
                let idx = unsafe { rd(ib, a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    return Err(global_oob(ctx.kernel, bi, idx, len));
                }
                let i = idx as usize;
                if ctx.grace.is_some() {
                    g_race(ctx, true, bi, i, wv as u8)?;
                }
                for k in 0..wv {
                    // SAFETY: `i + k < len` by the bounds test, the source
                    // range is asserted above, and the race tables (or the
                    // caller, with detection off) keep other groups off
                    // element `i + k`.
                    unsafe {
                        let $x = rd($bank, b + wi * wv + k);
                        ctx.bufs.$st(bi, i + k, $conv);
                    }
                }
            }
        }};
    }
    macro_rules! ld_l {
        ($variant:ident, $bank:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let arr = op.buf as usize;
            let wv: usize = $wv;
            let LocalBuf::$variant(v) = &locals[arr] else {
                unreachable!("typed local load");
            };
            let len = v.len();
            assert!(a + n <= ib.len() && d + n * wv <= $bank.len());
            for wi in lanes {
                // SAFETY: `wi < n`; the assert above bounds the index range.
                let idx = unsafe { rd(ib, a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    return Err(local_oob(ctx.kernel, arr, idx, len));
                }
                let i = idx as usize;
                if !races.is_empty() {
                    l_race(ctx.kernel, races, false, arr, i, wv as u8, wi as u32, phase)?;
                }
                for k in 0..wv {
                    // SAFETY: `i + k < len` by the bounds test, and the
                    // destination range is asserted above.
                    unsafe {
                        let $x = rd(v, i + k);
                        wr($bank, d + wi * wv + k, $conv);
                    }
                }
            }
        }};
    }
    macro_rules! st_l {
        ($variant:ident, $bank:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let arr = op.buf as usize;
            let wv: usize = $wv;
            let LocalBuf::$variant(v) = &mut locals[arr] else {
                unreachable!("typed local store");
            };
            let len = v.len();
            assert!(a + n <= ib.len() && b + n * wv <= $bank.len());
            for wi in lanes {
                // SAFETY: `wi < n`; the assert above bounds the index range.
                let idx = unsafe { rd(ib, a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    return Err(local_oob(ctx.kernel, arr, idx, len));
                }
                let i = idx as usize;
                if !races.is_empty() {
                    l_race(ctx.kernel, races, true, arr, i, wv as u8, wi as u32, phase)?;
                }
                for k in 0..wv {
                    // SAFETY: `i + k < len` by the bounds test, and the
                    // source range is asserted above.
                    unsafe {
                        let $x = rd($bank, b + wi * wv + k);
                        wr(v, i + k, $conv);
                    }
                }
            }
        }};
    }
    match op.k {
        PK::LdG1F => ld_g!(fb, ld_f32, 1, |x| x),
        PK::LdGVF => ld_g!(fb, ld_f32, w, |x| x),
        PK::LdG1D => ld_g!(db, ld_f64, 1, |x| x),
        PK::LdGVD => ld_g!(db, ld_f64, w, |x| x),
        PK::LdG1I => ld_g!(ib, ld_i32, 1, |x| i64::from(x)),
        PK::StG1F => st_g!(fb, st_f32, 1, |x| x),
        PK::StGVF => st_g!(fb, st_f32, w, |x| x),
        PK::StG1D => st_g!(db, st_f64, 1, |x| x),
        PK::StGVD => st_g!(db, st_f64, w, |x| x),
        PK::StG1I => st_g!(ib, st_i32, 1, |x| x as i32),
        PK::LdL1F => ld_l!(F32, fb, 1, |x| x),
        PK::LdLVF => ld_l!(F32, fb, w, |x| x),
        PK::LdL1D => ld_l!(F64, db, 1, |x| x),
        PK::LdLVD => ld_l!(F64, db, w, |x| x),
        PK::LdL1I => ld_l!(I32, ib, 1, |x| x),
        PK::StL1F => st_l!(F32, fb, 1, |x| x),
        PK::StLVF => st_l!(F32, fb, w, |x| x),
        PK::StL1D => st_l!(F64, db, 1, |x| x),
        PK::StLVD => st_l!(F64, db, w, |x| x),
        PK::StL1I => st_l!(I32, ib, 1, |x| x),
        _ => unreachable!("not a memory op"),
    }
    Ok(())
}

/// A `masked` op under a partial mask: only the active work-items
/// `lanes` run it. Per-item divisions and clamps could trap or panic
/// on a waiting work-item's stale cells.
fn exec_masked(
    ctx: &Ctx<'_>,
    arena: &mut CArena,
    op: &BOp,
    phase: u32,
    lanes: &[u32],
) -> Result<(), RuntimeError> {
    let (d, a, b, c) = (op.d as usize, op.a as usize, op.b as usize, op.c as usize);
    let w = op.w as usize;
    let cells = lanes.iter().map(|&l| l as usize);
    match op.k {
        PK::CpyI => copy_lanes(&mut arena.ib, [d, a], w, lanes),
        PK::CpyF => copy_lanes(&mut arena.fb, [d, a], w, lanes),
        PK::CpyD => copy_lanes(&mut arena.db, [d, a], w, lanes),
        PK::DivI | PK::RemI => divrem(&mut arena.ib, [d, a, b], op.k == PK::RemI, cells)?,
        PK::ClampI => clamp(&mut arena.ib, [d, a, b, c], cells),
        PK::ClampF => clamp(&mut arena.fb, [d, a, b, c], cells),
        PK::ClampD => clamp(&mut arena.db, [d, a, b, c], cells),
        _ => exec_mem(ctx, arena, op, phase, cells)?,
    }
    Ok(())
}

/// Truncating integer `/` (or `%`) of the given cells, failing like the
/// reference on a zero divisor.
fn divrem(
    ib: &mut [i64],
    [d, a, b]: [usize; 3],
    rem: bool,
    cells: impl Iterator<Item = usize>,
) -> Result<(), RuntimeError> {
    for j in cells {
        let (x, y) = (ib[a + j], ib[b + j]);
        if y == 0 {
            return Err(RuntimeError::Arithmetic(
                if rem {
                    "integer remainder by zero"
                } else {
                    "integer division by zero"
                }
                .into(),
            ));
        }
        ib[d + j] = if rem {
            x.wrapping_rem(y)
        } else {
            x.wrapping_div(y)
        };
    }
    Ok(())
}

/// `d = clamp(a, b, c)` on the given cells.
fn clamp<T: PartialOrd + Copy>(
    bank: &mut [T],
    [d, a, b, c]: [usize; 4],
    cells: impl Iterator<Item = usize>,
) {
    for j in cells {
        let (x, lo, hi) = (bank[a + j], bank[b + j], bank[c + j]);
        assert!(lo <= hi, "clamp bounds out of order");
        bank[d + j] = if x < lo {
            lo
        } else if x > hi {
            hi
        } else {
            x
        };
    }
}

/// Ordered comparison by code (Lt, Gt, Le, Ge, Eq, Ne) — matches the
/// reference's widened comparisons for both ints and floats.
fn cmp<T: PartialOrd>(code: u8, x: T, y: T) -> bool {
    match code {
        0 => x < y,
        1 => x > y,
        2 => x <= y,
        3 => x >= y,
        4 => x == y,
        _ => x != y,
    }
}

#[cfg(test)]
mod tests {
    use crate::error::RuntimeError;
    use crate::program::{Arg, NdRange, Program};
    use crate::vm::{BufData, DynStats, Engine, ExecOptions};

    type EngineRun = (Result<DynStats, RuntimeError>, Vec<BufData>);

    /// Launch on the compiled engine, then on the reference.
    fn run_both(
        src: &str,
        name: &str,
        nd: NdRange,
        args: &[Arg],
        bufs: &[BufData],
        opts: ExecOptions,
    ) -> (EngineRun, EngineRun) {
        let p = Program::compile(src).unwrap();
        let k = p.kernel(name).unwrap();
        let [compiled, reference] = [Engine::Compiled, Engine::Reference].map(|engine| {
            let mut b = bufs.to_vec();
            let r = k.launch(nd, args, &mut b, &ExecOptions { engine, ..opts });
            (r, b)
        });
        (compiled, reference)
    }

    #[test]
    fn compiled_and_reference_agree_on_gemm() {
        let src = r#"
            __kernel void gemm(__global const float* a, __global const float* b,
                               __global float* c, int n) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                float acc = 0.0f;
                for (int k = 0; k < n; k = k + 1) {
                    acc = acc + a[i*n + k] * b[k*n + j];
                }
                c[i*n + j] = acc;
            }
        "#;
        let n = 8usize;
        let bufs = vec![
            BufData::F32((0..n * n).map(|i| (i as f32) * 0.25 - 3.0).collect()),
            BufData::F32((0..n * n).map(|i| 1.0 / (i as f32 + 1.0)).collect()),
            BufData::F32(vec![0.0; n * n]),
        ];
        let args = [Arg::Buf(0), Arg::Buf(1), Arg::Buf(2), Arg::I32(n as i32)];
        let nd = NdRange::d2([n, n], [4, 2]);
        let ((c, cb), (r, rb)) = run_both(src, "gemm", nd, &args, &bufs, ExecOptions::default());
        assert_eq!(c.unwrap(), r.unwrap(), "DynStats must match");
        assert_eq!(cb, rb, "output buffers must be bit-identical");
    }

    #[test]
    fn compiled_and_reference_agree_with_locals_and_barriers() {
        let src = r#"
            __kernel void share(__global const double* x, __global double* y, double s) {
                __local double buf[4];
                int l = get_local_id(0);
                int g = get_global_id(0);
                buf[l] = x[g] * s;
                barrier(1);
                y[g] = buf[3 - l] + fabs(x[g]);
            }
        "#;
        let bufs = vec![
            BufData::F64(vec![-1.5, 2.0, 3.25, -4.0, 5.0, 6.5, -7.0, 8.0]),
            BufData::F64(vec![0.0; 8]),
        ];
        let args = [Arg::Buf(0), Arg::Buf(1), Arg::F64(1.75)];
        let nd = NdRange::d1(8, 4);
        let ((c, cb), (r, rb)) = run_both(src, "share", nd, &args, &bufs, ExecOptions::default());
        assert_eq!(c.unwrap(), r.unwrap());
        assert_eq!(cb, rb);
    }

    #[test]
    fn barrier_divergence_fails_identically() {
        let src = r#"
            __kernel void div(__global double* y) {
                int l = get_local_id(0);
                if (l == 0) { barrier(1); }
                y[get_global_id(0)] = (double)l;
            }
        "#;
        let bufs = vec![BufData::F64(vec![0.0; 4])];
        let nd = NdRange::d1(4, 4);
        let ((c, _), (r, _)) = run_both(src, "div", nd, &[Arg::Buf(0)], &bufs, Default::default());
        let (ce, re) = (c.unwrap_err(), r.unwrap_err());
        assert!(matches!(ce, RuntimeError::BarrierDivergence { .. }), "{ce}");
        assert_eq!(ce.to_string(), re.to_string());
    }

    #[test]
    fn step_limit_fails_identically() {
        // Uniform and per-work-item endless loops alike.
        for body in ["i = i * 0;", "i = i * (get_global_id(0) % 2);"] {
            let src = format!(
                "__kernel void spin(__global double* y) {{
                    int i = 0;
                    while (i < 10) {{ {body} }}
                    y[0] = (double)i;
                }}"
            );
            let opts = ExecOptions {
                step_limit: 1000,
                ..Default::default()
            };
            let bufs = vec![BufData::F64(vec![0.0])];
            let nd = NdRange::d1(2, 2);
            let ((c, _), (r, _)) = run_both(&src, "spin", nd, &[Arg::Buf(0)], &bufs, opts);
            let (ce, re) = (c.unwrap_err(), r.unwrap_err());
            assert!(ce.to_string().contains("step limit"), "{ce}");
            assert_eq!(ce.to_string(), re.to_string());
        }
    }

    #[test]
    fn inter_group_write_race_detected_on_both_engines() {
        let src = r#"
            __kernel void clash(__global double* y) {
                y[0] = (double)get_global_id(0);
            }
        "#;
        let bufs = vec![BufData::F64(vec![0.0])];
        let nd = NdRange::d1(4, 1);
        let ((c, _), (r, _)) =
            run_both(src, "clash", nd, &[Arg::Buf(0)], &bufs, Default::default());
        let (ce, re) = (c.unwrap_err(), r.unwrap_err());
        assert!(matches!(ce, RuntimeError::GlobalRace { .. }), "{ce}");
        assert!(matches!(re, RuntimeError::GlobalRace { .. }), "{re}");
    }

    #[test]
    fn vector_kernel_agrees_across_engines() {
        let src = r#"
            __kernel void vscale(__global const float* x, __global float* y, float s) {
                int i = get_global_id(0);
                float4 v = vload4(i, x);
                float4 w = v * s + v;
                vstore4(w, i, y);
            }
        "#;
        let x: Vec<f32> = (0..32).map(|i| (i as f32) * 0.5 - 4.0).collect();
        let bufs = vec![BufData::F32(x), BufData::F32(vec![0.0; 32])];
        let args = [Arg::Buf(0), Arg::Buf(1), Arg::F32(0.125)];
        let nd = NdRange::d1(8, 2);
        let ((c, cb), (r, rb)) = run_both(src, "vscale", nd, &args, &bufs, Default::default());
        assert_eq!(c.unwrap(), r.unwrap());
        assert_eq!(cb, rb);
    }
}
