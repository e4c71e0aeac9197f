//! The work-group virtual machine.
//!
//! Executes lowered kernels with real OpenCL work-group semantics:
//!
//! * work-items of a group run round-robin between barriers (each runs
//!   until it hits a [`Instr::Barrier`] or returns);
//! * all work-items must arrive at the *same* static barrier site —
//!   divergence is an error, as it is undefined behaviour on real
//!   devices;
//! * local memory is shared per group; optional race detection flags two
//!   work-items touching the same cell in the same barrier phase with at
//!   least one write;
//! * all buffer and local accesses are bounds-checked.
//!
//! Dynamic instruction counts are collected in [`DynStats`]; the
//! integration suite uses them to validate the code generator's
//! analytical cost model against what the kernel actually executes.
//!
//! This is the reference engine: every semantic question (rounding,
//! errors, race and divergence detection, stats) is defined here, and
//! the default compiled engine ([`crate::ir`]) is property-tested
//! against it bit for bit. Kernels the compiler declines run here.

use crate::ast::{Base, BinOp, UnOp};
use crate::check::LocalArray;
use crate::error::RuntimeError;
use crate::lower::{CompiledKernel, Instr, MathFunc, WiFunc};

/// A runtime value: scalar or vector, int/bool/float/double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I(i64),
    B(bool),
    F32(f32),
    F64(f64),
    /// Vector of `f32` with explicit width (lanes beyond width are zero).
    V32([f32; 16], u8),
    /// Vector of `f64` with explicit width.
    V64([f64; 16], u8),
}

impl Value {
    /// Build a float vector.
    #[must_use]
    pub fn v32(parts: &[f32]) -> Value {
        let mut a = [0.0f32; 16];
        a[..parts.len()].copy_from_slice(parts);
        Value::V32(a, parts.len() as u8)
    }

    /// Build a double vector.
    #[must_use]
    pub fn v64(parts: &[f64]) -> Value {
        let mut a = [0.0f64; 16];
        a[..parts.len()].copy_from_slice(parts);
        Value::V64(a, parts.len() as u8)
    }

    fn as_i(self) -> Result<i64, RuntimeError> {
        match self {
            Value::I(v) => Ok(v),
            Value::B(b) => Ok(b as i64),
            other => Err(RuntimeError::Internal(format!(
                "expected int, got {other:?}"
            ))),
        }
    }

    fn as_b(self) -> Result<bool, RuntimeError> {
        match self {
            Value::B(b) => Ok(b),
            Value::I(v) => Ok(v != 0),
            other => Err(RuntimeError::Internal(format!(
                "expected bool, got {other:?}"
            ))),
        }
    }
}

/// Shared local-memory storage for one work-group.
#[derive(Debug, Clone)]
pub enum LocalBuf {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i64>),
}

impl LocalBuf {
    pub(crate) fn new(info: &LocalArray) -> LocalBuf {
        match info.base {
            Base::Float => LocalBuf::F32(vec![0.0; info.len]),
            Base::Double => LocalBuf::F64(vec![0.0; info.len]),
            _ => LocalBuf::I32(vec![0; info.len]),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            LocalBuf::F32(v) => v.len(),
            LocalBuf::F64(v) => v.len(),
            LocalBuf::I32(v) => v.len(),
        }
    }

    /// Zero contents in place (group re-initialisation without realloc).
    pub(crate) fn zero(&mut self) {
        match self {
            LocalBuf::F32(v) => v.fill(0.0),
            LocalBuf::F64(v) => v.fill(0.0),
            LocalBuf::I32(v) => v.fill(0),
        }
    }

    /// Does the storage class match the declared array's base type?
    pub(crate) fn base_matches(&self, info: &LocalArray) -> bool {
        matches!(
            (self, info.base),
            (LocalBuf::F32(_), Base::Float)
                | (LocalBuf::F64(_), Base::Double)
                | (LocalBuf::I32(_), Base::Int | Base::Uint | Base::Bool)
        )
    }
}

/// Host-visible global buffer contents.
#[derive(Debug, Clone, PartialEq)]
pub enum BufData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
}

impl BufData {
    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BufData::F32(v) => v.len(),
            BufData::F64(v) => v.len(),
            BufData::I32(v) => v.len(),
        }
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element base type of the buffer.
    #[must_use]
    pub fn base(&self) -> Base {
        match self {
            BufData::F32(_) => Base::Float,
            BufData::F64(_) => Base::Double,
            BufData::I32(_) => Base::Int,
        }
    }
}

/// Dynamic (executed) instruction counts for one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynStats {
    /// Scalar multiply-adds (vector MADs count `width` each).
    pub mads: u64,
    /// Other executed ALU operations (scalar-equivalent).
    pub alu: u64,
    /// Global load/store instructions.
    pub mem_global_instrs: u64,
    /// Bytes moved to/from global memory.
    pub mem_global_bytes: u64,
    /// Local load/store instructions.
    pub mem_local_instrs: u64,
    /// Bytes moved to/from local memory.
    pub mem_local_bytes: u64,
    /// Barrier events (one per work-group arrival).
    pub barriers: u64,
    /// Total executed instructions.
    pub instrs: u64,
}

impl DynStats {
    pub(crate) fn add(&mut self, other: &DynStats) {
        self.mads += other.mads;
        self.alu += other.alu;
        self.mem_global_instrs += other.mem_global_instrs;
        self.mem_global_bytes += other.mem_global_bytes;
        self.mem_local_instrs += other.mem_local_instrs;
        self.mem_local_bytes += other.mem_local_bytes;
        self.barriers += other.barriers;
        self.instrs += other.instrs;
    }
}

/// NDRange geometry shared by every work-item of a launch.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub global: [usize; 2],
    pub local: [usize; 2],
    pub groups: [usize; 2],
}

/// Which interpreter executes a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Pre-scheduled trace code from the SSA compiler pipeline (see
    /// the `ir` module), work-groups in parallel: per-op dispatch is
    /// paid once per work-group instead of once per work-item step, and
    /// divergent branches run under per-work-item masks. Falls back to
    /// [`Engine::Reference`] for the kernels the compiler declines
    /// (e.g. a barrier under a divergent branch).
    #[default]
    Compiled,
    /// The original one-`Value`-at-a-time interpreter: the bit-for-bit
    /// oracle the compiled engine is property-tested against.
    Reference,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Detect same-phase local-memory races and (for multi-group
    /// launches) inter-group global races (slower; on by default in
    /// tests).
    pub detect_races: bool,
    /// Abort a work-item after this many executed instructions per
    /// barrier phase (guards against non-terminating kernels).
    pub step_limit: u64,
    /// Engine selection; [`Engine::Compiled`] by default.
    pub engine: Engine,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            detect_races: true,
            step_limit: 500_000_000,
            engine: Engine::Compiled,
        }
    }
}

impl ExecOptions {
    /// Default options, but forcing the reference interpreter — the
    /// escape hatch when the compiled engine is in doubt.
    #[must_use]
    pub fn reference() -> Self {
        ExecOptions {
            engine: Engine::Reference,
            ..Default::default()
        }
    }
}

pub(crate) enum WiStop {
    Barrier(u32),
    Done,
}

struct WiState {
    regs: Vec<Value>,
    pc: usize,
    done: bool,
}

pub(crate) struct RaceTable {
    write_phase: Vec<u32>,
    writer: Vec<u32>,
    read_phase: Vec<u32>,
    reader: Vec<u32>,
}

impl RaceTable {
    pub(crate) fn new(len: usize) -> RaceTable {
        RaceTable {
            write_phase: vec![u32::MAX; len],
            writer: vec![u32::MAX; len],
            read_phase: vec![u32::MAX; len],
            reader: vec![u32::MAX; len],
        }
    }

    /// Forget all recorded accesses (start of a new group).
    pub(crate) fn clear(&mut self) {
        self.write_phase.fill(u32::MAX);
        self.writer.fill(u32::MAX);
        self.read_phase.fill(u32::MAX);
        self.reader.fill(u32::MAX);
    }

    /// Number of elements covered by the table.
    pub(crate) fn len(&self) -> usize {
        self.writer.len()
    }

    /// A barrier orders earlier accesses: forget the phase marks.
    pub(crate) fn new_phase(&mut self) {
        self.write_phase.fill(u32::MAX);
        self.read_phase.fill(u32::MAX);
    }

    /// Record a read of `[i, i+width)` by work-item `wi` in `phase`;
    /// on a same-phase conflict returns `(index, writer, other)` with
    /// the error attribution the reference interpreter reports.
    pub(crate) fn on_read(
        &mut self,
        i: usize,
        width: u8,
        wi: u32,
        phase: u32,
    ) -> Result<(), (usize, u32, u32)> {
        for k in i..i + width as usize {
            if self.write_phase[k] == phase && self.writer[k] != wi {
                return Err((k, self.writer[k], wi));
            }
            self.read_phase[k] = phase;
            self.reader[k] = wi;
        }
        Ok(())
    }

    /// Record a write; same conflict contract as [`RaceTable::on_read`].
    pub(crate) fn on_write(
        &mut self,
        i: usize,
        width: u8,
        wi: u32,
        phase: u32,
    ) -> Result<(), (usize, u32, u32)> {
        for k in i..i + width as usize {
            if self.write_phase[k] == phase && self.writer[k] != wi {
                return Err((k, self.writer[k], wi));
            }
            if self.read_phase[k] == phase && self.reader[k] != wi {
                return Err((k, wi, self.reader[k]));
            }
            self.write_phase[k] = phase;
            self.writer[k] = wi;
        }
        Ok(())
    }
}

/// Inter-group race tables over the launch's global buffers, at element
/// granularity. Shared across the parallel group engine's threads, so
/// the slots are relaxed atomics; the detector is order-insensitive —
/// any overlapping write/anything pair from two distinct groups is
/// reported no matter which thread gets there first.
pub struct GlobalRaceTables {
    tables: Vec<GlobalTable>,
}

struct GlobalTable {
    writer: Vec<std::sync::atomic::AtomicU32>,
    reader: Vec<std::sync::atomic::AtomicU32>,
}

const NO_GROUP: u32 = u32::MAX;

impl GlobalRaceTables {
    /// Fresh tables sized to the launch's buffers.
    #[must_use]
    pub fn new(bufs: &[BufData]) -> GlobalRaceTables {
        use std::sync::atomic::AtomicU32;
        GlobalRaceTables {
            tables: bufs
                .iter()
                .map(|b| GlobalTable {
                    writer: (0..b.len()).map(|_| AtomicU32::new(NO_GROUP)).collect(),
                    reader: (0..b.len()).map(|_| AtomicU32::new(NO_GROUP)).collect(),
                })
                .collect(),
        }
    }

    /// Record a read of `[i, i+width)` by group `g`; returns
    /// `(index, other_group)` if a distinct group wrote the cell.
    pub(crate) fn on_read(
        &self,
        buf: usize,
        i: usize,
        width: u8,
        g: u32,
    ) -> Result<(), (usize, u32)> {
        use std::sync::atomic::Ordering::Relaxed;
        let t = &self.tables[buf];
        for k in i..i + width as usize {
            let w = t.writer[k].load(Relaxed);
            if w != NO_GROUP && w != g {
                return Err((k, w));
            }
            t.reader[k].store(g, Relaxed);
        }
        Ok(())
    }

    /// Record a write; conflicts with any access from a distinct group.
    pub(crate) fn on_write(
        &self,
        buf: usize,
        i: usize,
        width: u8,
        g: u32,
    ) -> Result<(), (usize, u32)> {
        use std::sync::atomic::Ordering::Relaxed;
        let t = &self.tables[buf];
        for k in i..i + width as usize {
            // Claim the writer slot with a CAS so that when two groups
            // race to write the same cell, exactly one wins and the
            // other errors *before* its payload store reaches the
            // buffer — a write/write race can never silently corrupt
            // the output even on the parallel engine.
            match t.writer[k].compare_exchange(NO_GROUP, g, Relaxed, Relaxed) {
                Ok(_) => {}
                Err(w) if w == g => {}
                Err(w) => return Err((k, w)),
            }
            let r = t.reader[k].load(Relaxed);
            if r != NO_GROUP && r != g {
                return Err((k, r));
            }
        }
        Ok(())
    }
}

/// Reusable per-thread execution state for the reference interpreter:
/// one register arena (shared across work-items of a group, re-seeded
/// between groups) plus the group's local buffers and race tables.
/// Allocated once per launch (per worker thread) instead of once per
/// work-item per group.
#[derive(Default)]
pub struct RefArena {
    states: Vec<WiState>,
    locals: Vec<LocalBuf>,
    races: Vec<RaceTable>,
}

impl RefArena {
    /// An empty arena; sized lazily on first group.
    #[must_use]
    pub fn new() -> RefArena {
        RefArena::default()
    }

    /// (Re-)seed for one group of `nwi` work-items.
    fn reset(
        &mut self,
        kernel: &CompiledKernel,
        nwi: usize,
        init_regs: &[Value],
        detect_races: bool,
    ) {
        let shape_ok = self.states.len() == nwi
            && self
                .states
                .first()
                .is_none_or(|s| s.regs.len() == kernel.n_regs);
        if !shape_ok {
            self.states = (0..nwi)
                .map(|_| WiState {
                    regs: vec![Value::I(0); kernel.n_regs],
                    pc: 0,
                    done: false,
                })
                .collect();
        }
        for st in &mut self.states {
            st.regs.fill(Value::I(0));
            st.regs[..init_regs.len()].copy_from_slice(init_regs);
            st.pc = 0;
            st.done = false;
        }
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
            && self
                .races
                .iter()
                .zip(arrays)
                .all(|(r, a)| r.writer.len() == a.len)
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
}

/// Run one work-group to completion.
///
/// `init_regs` seeds each work-item's register file (value parameters in
/// their slots). Returns dynamic stats for the group.
#[allow(clippy::too_many_arguments)]
pub fn run_group(
    kernel: &CompiledKernel,
    group: [usize; 2],
    geom: &Geometry,
    init_regs: &[Value],
    bufs: &mut [BufData],
    opts: &ExecOptions,
) -> Result<DynStats, RuntimeError> {
    let mut arena = RefArena::new();
    let linear = (group[1] * geom.groups[0] + group[0]) as u32;
    run_group_in(
        kernel, group, linear, geom, init_regs, bufs, opts, None, &mut arena,
    )
}

/// [`run_group`] with a caller-owned arena and optional inter-group race
/// tables — the form the launch loop uses so allocations amortise across
/// groups.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group_in(
    kernel: &CompiledKernel,
    group: [usize; 2],
    group_linear: u32,
    geom: &Geometry,
    init_regs: &[Value],
    bufs: &mut [BufData],
    opts: &ExecOptions,
    grace: Option<&GlobalRaceTables>,
    arena: &mut RefArena,
) -> Result<DynStats, RuntimeError> {
    let nwi = geom.local[0] * geom.local[1];
    arena.reset(kernel, nwi, init_regs, opts.detect_races);
    let RefArena {
        states,
        locals,
        races,
    } = arena;

    let mut stats = DynStats::default();
    let mut phase: u32 = 0;
    loop {
        let mut arrived: Option<u32> = None;
        let mut n_done = 0usize;
        let mut n_barrier = 0usize;
        #[allow(clippy::needless_range_loop)] // states[wi] is re-borrowed mutably below
        for wi in 0..nwi {
            if states[wi].done {
                n_done += 1;
                continue;
            }
            let lid = [wi % geom.local[0], wi / geom.local[0]];
            let stop = exec_until_stop(
                kernel,
                &mut states[wi],
                wi as u32,
                lid,
                group,
                group_linear,
                geom,
                locals,
                races,
                bufs,
                phase,
                opts,
                grace,
                &mut stats,
            )?;
            match stop {
                WiStop::Done => {
                    states[wi].done = true;
                    n_done += 1;
                }
                WiStop::Barrier(site) => {
                    n_barrier += 1;
                    match arrived {
                        None => arrived = Some(site),
                        Some(prev) if prev == site => {}
                        Some(prev) => {
                            return Err(RuntimeError::BarrierDivergence {
                                detail: format!(
                                "work-item {wi} reached barrier site {site}, others reached {prev}"
                            ),
                            })
                        }
                    }
                }
            }
        }
        if n_barrier > 0 {
            if n_done > 0 {
                return Err(RuntimeError::BarrierDivergence {
                    detail: format!(
                        "{n_barrier} work-item(s) waiting at a barrier while {n_done} returned"
                    ),
                });
            }
            stats.barriers += 1;
            phase += 1;
            for rt in races.iter_mut() {
                // New phase: previous accesses are now ordered by the
                // barrier; reset the tables.
                rt.new_phase();
            }
            continue;
        }
        debug_assert_eq!(n_done, nwi);
        break;
    }
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn exec_until_stop(
    kernel: &CompiledKernel,
    st: &mut WiState,
    wi: u32,
    lid: [usize; 2],
    group: [usize; 2],
    group_linear: u32,
    geom: &Geometry,
    locals: &mut [LocalBuf],
    races: &mut [RaceTable],
    bufs: &mut [BufData],
    phase: u32,
    opts: &ExecOptions,
    grace: Option<&GlobalRaceTables>,
    stats: &mut DynStats,
) -> Result<WiStop, RuntimeError> {
    let code = &kernel.code;
    let mut steps: u64 = 0;
    let mut local = DynStats::default();
    loop {
        steps += 1;
        if steps > opts.step_limit {
            return Err(RuntimeError::Internal(format!(
                "work-item exceeded step limit {} (non-terminating kernel?)",
                opts.step_limit
            )));
        }
        let instr = &code[st.pc];
        st.pc += 1;
        local.instrs += 1;
        match instr {
            Instr::Const { dst, val } => st.regs[*dst] = *val,
            Instr::Mov { dst, src } => st.regs[*dst] = st.regs[*src],
            Instr::Bin { op, dst, a, b } => {
                local.alu += 1;
                st.regs[*dst] = bin_op(*op, st.regs[*a], st.regs[*b])?;
            }
            Instr::Un { op, dst, a } => {
                local.alu += 1;
                st.regs[*dst] = un_op(*op, st.regs[*a])?;
            }
            Instr::Convert { dst, src, base } => st.regs[*dst] = convert(st.regs[*src], *base)?,
            Instr::Broadcast { dst, src, width } => {
                st.regs[*dst] = broadcast(st.regs[*src], *width)?
            }
            Instr::BuildVec { dst, base, parts } => {
                st.regs[*dst] = build_vec(*base, parts, &st.regs)?
            }
            Instr::Extract { dst, src, lane } => st.regs[*dst] = extract(st.regs[*src], *lane)?,
            Instr::InsertLane { vec, src, lane } => {
                let v = insert_lane(st.regs[*vec], st.regs[*src], *lane)?;
                st.regs[*vec] = v;
            }
            Instr::Mad { dst, a, b, c } => {
                let r = mad(st.regs[*a], st.regs[*b], st.regs[*c])?;
                local.mads += match r {
                    Value::V32(_, w) | Value::V64(_, w) => w as u64,
                    _ => 1,
                };
                st.regs[*dst] = r;
            }
            Instr::Math {
                f,
                dst,
                args,
                n_args,
            } => {
                local.alu += 1;
                st.regs[*dst] = math(
                    *f,
                    st.regs[args[0]],
                    st.regs[args[1]],
                    st.regs[args[2]],
                    *n_args,
                )?;
            }
            Instr::Wi { f, dst, dim } => {
                let d = st.regs[*dim].as_i()? as usize;
                if d > 2 {
                    return Err(RuntimeError::Internal(format!(
                        "dimension {d} out of range"
                    )));
                }
                let val = if d >= 2 {
                    match f {
                        WiFunc::GlobalSize | WiFunc::LocalSize | WiFunc::NumGroups => 1,
                        _ => 0,
                    }
                } else {
                    match f {
                        WiFunc::GlobalId => group[d] * geom.local[d] + lid[d],
                        WiFunc::LocalId => lid[d],
                        WiFunc::GroupId => group[d],
                        WiFunc::GlobalSize => geom.global[d],
                        WiFunc::LocalSize => geom.local[d],
                        WiFunc::NumGroups => geom.groups[d],
                    }
                };
                st.regs[*dst] = Value::I(val as i64);
            }
            Instr::LoadGlobal {
                dst,
                buf,
                idx,
                width,
            } => {
                let i = st.regs[*idx].as_i()?;
                st.regs[*dst] = load_global(kernel, bufs, *buf, i, *width, grace, group_linear)?;
                local.mem_global_instrs += 1;
                local.mem_global_bytes += global_bytes(&bufs[*buf], *width);
            }
            Instr::StoreGlobal {
                buf,
                idx,
                src,
                width,
            } => {
                let i = st.regs[*idx].as_i()?;
                store_global(
                    kernel,
                    bufs,
                    *buf,
                    i,
                    st.regs[*src],
                    *width,
                    grace,
                    group_linear,
                )?;
                local.mem_global_instrs += 1;
                local.mem_global_bytes += global_bytes(&bufs[*buf], *width);
            }
            Instr::LoadLocal {
                dst,
                arr,
                idx,
                width,
            } => {
                let i = st.regs[*idx].as_i()?;
                st.regs[*dst] = load_local(kernel, locals, races, *arr, i, *width, wi, phase)?;
                local.mem_local_instrs += 1;
                local.mem_local_bytes += local_bytes(&locals[*arr], *width);
            }
            Instr::StoreLocal {
                arr,
                idx,
                src,
                width,
            } => {
                let i = st.regs[*idx].as_i()?;
                store_local(
                    kernel,
                    locals,
                    races,
                    *arr,
                    i,
                    st.regs[*src],
                    *width,
                    wi,
                    phase,
                )?;
                local.mem_local_instrs += 1;
                local.mem_local_bytes += local_bytes(&locals[*arr], *width);
            }
            Instr::Jump { target } => st.pc = *target,
            Instr::JumpIfFalse { cond, target } => {
                if !st.regs[*cond].as_b()? {
                    st.pc = *target;
                }
            }
            Instr::Select { dst, cond, a, b } => {
                st.regs[*dst] = if st.regs[*cond].as_b()? {
                    st.regs[*a]
                } else {
                    st.regs[*b]
                };
            }
            Instr::Barrier { site } => {
                stats.add(&local);
                return Ok(WiStop::Barrier(*site));
            }
            Instr::Ret => {
                stats.add(&local);
                return Ok(WiStop::Done);
            }
        }
    }
}

fn global_bytes(buf: &BufData, width: u8) -> u64 {
    let elem = match buf {
        BufData::F32(_) | BufData::I32(_) => 4,
        BufData::F64(_) => 8,
    };
    elem * width as u64
}

fn local_bytes(buf: &LocalBuf, width: u8) -> u64 {
    let elem = match buf {
        LocalBuf::F32(_) => 4,
        LocalBuf::F64(_) | LocalBuf::I32(_) => 8,
    };
    elem * width as u64
}

fn check_bounds(
    kernel: &CompiledKernel,
    buf_idx: usize,
    idx: i64,
    width: u8,
    len: usize,
) -> Result<usize, RuntimeError> {
    if idx < 0 || (idx as usize) + width as usize > len {
        return Err(RuntimeError::GlobalOob {
            buffer: kernel.checked.buffer_params[buf_idx].name.clone(),
            index: idx,
            len,
        });
    }
    Ok(idx as usize)
}

#[allow(clippy::too_many_arguments)]
fn load_global(
    kernel: &CompiledKernel,
    bufs: &[BufData],
    buf: usize,
    idx: i64,
    width: u8,
    grace: Option<&GlobalRaceTables>,
    group: u32,
) -> Result<Value, RuntimeError> {
    let i = check_bounds(kernel, buf, idx, width, bufs[buf].len())?;
    if let Some(g) = grace {
        if let Err((k, other)) = g.on_read(buf, i, width, group) {
            return Err(global_race_err(kernel, buf, k, group, other));
        }
    }
    Ok(match (&bufs[buf], width) {
        (BufData::F32(v), 1) => Value::F32(v[i]),
        (BufData::F64(v), 1) => Value::F64(v[i]),
        (BufData::I32(v), 1) => Value::I(v[i] as i64),
        (BufData::F32(v), w) => Value::v32(&v[i..i + w as usize]),
        (BufData::F64(v), w) => Value::v64(&v[i..i + w as usize]),
        (BufData::I32(_), _) => {
            return Err(RuntimeError::Internal(
                "vector loads from int buffers unsupported".into(),
            ))
        }
    })
}

pub(crate) fn local_race_err(
    kernel: &CompiledKernel,
    arr: usize,
    index: usize,
    writer: u32,
    other: u32,
) -> RuntimeError {
    RuntimeError::LocalRace {
        array: kernel.checked.local_arrays[arr].name.clone(),
        index,
        writer: writer as usize,
        other: other as usize,
    }
}

pub(crate) fn global_race_err(
    kernel: &CompiledKernel,
    buf: usize,
    index: usize,
    group: u32,
    other: u32,
) -> RuntimeError {
    RuntimeError::GlobalRace {
        buffer: kernel.checked.buffer_params[buf].name.clone(),
        index,
        group: group as usize,
        other: other as usize,
    }
}

#[allow(clippy::too_many_arguments)]
fn store_global(
    kernel: &CompiledKernel,
    bufs: &mut [BufData],
    buf: usize,
    idx: i64,
    val: Value,
    width: u8,
    grace: Option<&GlobalRaceTables>,
    group: u32,
) -> Result<(), RuntimeError> {
    let i = check_bounds(kernel, buf, idx, width, bufs[buf].len())?;
    if let Some(g) = grace {
        if let Err((k, other)) = g.on_write(buf, i, width, group) {
            return Err(global_race_err(kernel, buf, k, group, other));
        }
    }
    match (&mut bufs[buf], val, width) {
        (BufData::F32(v), Value::F32(x), 1) => v[i] = x,
        (BufData::F64(v), Value::F64(x), 1) => v[i] = x,
        (BufData::I32(v), Value::I(x), 1) => v[i] = x as i32,
        (BufData::I32(v), Value::B(x), 1) => v[i] = x as i32,
        (BufData::F32(v), Value::V32(a, w), width) if w == width => {
            v[i..i + w as usize].copy_from_slice(&a[..w as usize])
        }
        (BufData::F64(v), Value::V64(a, w), width) if w == width => {
            v[i..i + w as usize].copy_from_slice(&a[..w as usize])
        }
        (b, v, w) => {
            return Err(RuntimeError::Internal(format!(
                "store type mismatch: {v:?} (width {w}) into {:?} buffer",
                b.base()
            )))
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn load_local(
    kernel: &CompiledKernel,
    locals: &[LocalBuf],
    races: &mut [RaceTable],
    arr: usize,
    idx: i64,
    width: u8,
    wi: u32,
    phase: u32,
) -> Result<Value, RuntimeError> {
    let len = locals[arr].len();
    if idx < 0 || (idx as usize) + width as usize > len {
        return Err(RuntimeError::LocalOob {
            array: kernel.checked.local_arrays[arr].name.clone(),
            index: idx,
            len,
        });
    }
    let i = idx as usize;
    if let Some(rt) = races.get_mut(arr) {
        if let Err((k, writer, other)) = rt.on_read(i, width, wi, phase) {
            return Err(local_race_err(kernel, arr, k, writer, other));
        }
    }
    Ok(match (&locals[arr], width) {
        (LocalBuf::F32(v), 1) => Value::F32(v[i]),
        (LocalBuf::F64(v), 1) => Value::F64(v[i]),
        (LocalBuf::I32(v), 1) => Value::I(v[i]),
        (LocalBuf::F32(v), w) => Value::v32(&v[i..i + w as usize]),
        (LocalBuf::F64(v), w) => Value::v64(&v[i..i + w as usize]),
        (LocalBuf::I32(_), _) => {
            return Err(RuntimeError::Internal(
                "vector loads from int local arrays unsupported".into(),
            ))
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn store_local(
    kernel: &CompiledKernel,
    locals: &mut [LocalBuf],
    races: &mut [RaceTable],
    arr: usize,
    idx: i64,
    val: Value,
    width: u8,
    wi: u32,
    phase: u32,
) -> Result<(), RuntimeError> {
    let len = locals[arr].len();
    if idx < 0 || (idx as usize) + width as usize > len {
        return Err(RuntimeError::LocalOob {
            array: kernel.checked.local_arrays[arr].name.clone(),
            index: idx,
            len,
        });
    }
    let i = idx as usize;
    if let Some(rt) = races.get_mut(arr) {
        if let Err((k, writer, other)) = rt.on_write(i, width, wi, phase) {
            return Err(local_race_err(kernel, arr, k, writer, other));
        }
    }
    match (&mut locals[arr], val, width) {
        (LocalBuf::F32(v), Value::F32(x), 1) => v[i] = x,
        (LocalBuf::F64(v), Value::F64(x), 1) => v[i] = x,
        (LocalBuf::I32(v), Value::I(x), 1) => v[i] = x,
        (LocalBuf::F32(v), Value::V32(a, w), width) if w == width => {
            v[i..i + w as usize].copy_from_slice(&a[..w as usize])
        }
        (LocalBuf::F64(v), Value::V64(a, w), width) if w == width => {
            v[i..i + w as usize].copy_from_slice(&a[..w as usize])
        }
        (_, v, w) => {
            return Err(RuntimeError::Internal(format!(
                "local store type mismatch: {v:?} width {w}"
            )))
        }
    }
    Ok(())
}

// ---- value operations ----------------------------------------------------

macro_rules! vec_zip {
    ($a:expr, $b:expr, $wa:expr, $f:expr) => {{
        let mut out = [Default::default(); 16];
        for k in 0..($wa as usize) {
            out[k] = $f($a[k], $b[k]);
        }
        (out, $wa)
    }};
}

pub(crate) fn bin_op(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    use Value::*;
    // Comparisons on scalars.
    if op.is_cmp() {
        let r = match (a, b) {
            (I(x), I(y)) => cmp_ord(op, x.cmp(&y)),
            (F32(x), F32(y)) => cmp_f(op, x as f64, y as f64),
            (F64(x), F64(y)) => cmp_f(op, x, y),
            (B(x), B(y)) => cmp_ord(op, x.cmp(&y)),
            _ => {
                return Err(RuntimeError::Internal(format!(
                    "bad comparison {a:?} {op:?} {b:?}"
                )))
            }
        };
        return Ok(B(r));
    }
    if op.is_logic() {
        let (x, y) = (a.as_b()?, b.as_b()?);
        return Ok(B(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            _ => unreachable!(),
        }));
    }
    Ok(match (a, b) {
        (I(x), I(y)) => I(match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(RuntimeError::Arithmetic("integer division by zero".into()));
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(RuntimeError::Arithmetic("integer remainder by zero".into()));
                }
                x.wrapping_rem(y)
            }
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            _ => return Err(RuntimeError::Internal(format!("bad int op {op:?}"))),
        }),
        (F32(x), F32(y)) => F32(f_arith(op, x as f64, y as f64)? as f32),
        (F64(x), F64(y)) => F64(f_arith(op, x, y)?),
        (V32(x, w), V32(y, w2)) if w == w2 => {
            let mut out = [0.0f32; 16];
            for k in 0..w as usize {
                out[k] = f_arith(op, x[k] as f64, y[k] as f64)? as f32;
            }
            V32(out, w)
        }
        (V64(x, w), V64(y, w2)) if w == w2 => {
            let (out, w) = {
                let mut out = [0.0f64; 16];
                for k in 0..w as usize {
                    out[k] = f_arith(op, x[k], y[k])?;
                }
                (out, w)
            };
            V64(out, w)
        }
        _ => {
            return Err(RuntimeError::Internal(format!(
                "operand mismatch {a:?} {op:?} {b:?}"
            )))
        }
    })
}

fn f_arith(op: BinOp, x: f64, y: f64) -> Result<f64, RuntimeError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        _ => return Err(RuntimeError::Internal(format!("bad float op {op:?}"))),
    })
}

fn cmp_ord(op: BinOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Lt => o == Less,
        BinOp::Gt => o == Greater,
        BinOp::Le => o != Greater,
        BinOp::Ge => o != Less,
        BinOp::Eq => o == Equal,
        BinOp::Ne => o != Equal,
        _ => unreachable!(),
    }
}

fn cmp_f(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Lt => x < y,
        BinOp::Gt => x > y,
        BinOp::Le => x <= y,
        BinOp::Ge => x >= y,
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        _ => unreachable!(),
    }
}

pub(crate) fn un_op(op: UnOp, a: Value) -> Result<Value, RuntimeError> {
    use Value::*;
    Ok(match (op, a) {
        (UnOp::Neg, I(x)) => I(-x),
        (UnOp::Neg, F32(x)) => F32(-x),
        (UnOp::Neg, F64(x)) => F64(-x),
        (UnOp::Neg, V32(x, w)) => {
            let (out, w) = vec_zip!(x, x, w, |v: f32, _| -v);
            V32(out, w)
        }
        (UnOp::Neg, V64(x, w)) => {
            let (out, w) = vec_zip!(x, x, w, |v: f64, _| -v);
            V64(out, w)
        }
        (UnOp::Not, v) => B(!v.as_b()?),
        (op, v) => return Err(RuntimeError::Internal(format!("bad unary {op:?} on {v:?}"))),
    })
}

pub(crate) fn convert(v: Value, base: Base) -> Result<Value, RuntimeError> {
    use Value::*;
    Ok(match (v, base) {
        (I(x), Base::Float) => F32(x as f32),
        (I(x), Base::Double) => F64(x as f64),
        (I(x), Base::Int | Base::Uint) => I(x),
        (I(x), Base::Bool) => B(x != 0),
        (B(x), Base::Int | Base::Uint) => I(x as i64),
        (B(x), Base::Float) => F32(x as u8 as f32),
        (B(x), Base::Double) => F64(x as u8 as f64),
        (F32(x), Base::Double) => F64(x as f64),
        (F32(x), Base::Float) => F32(x),
        (F32(x), Base::Int | Base::Uint) => I(x as i64),
        (F64(x), Base::Float) => F32(x as f32),
        (F64(x), Base::Double) => F64(x),
        (F64(x), Base::Int | Base::Uint) => I(x as i64),
        (V32(x, w), Base::Double) => {
            let mut out = [0.0f64; 16];
            for k in 0..w as usize {
                out[k] = x[k] as f64;
            }
            V64(out, w)
        }
        (V64(x, w), Base::Float) => {
            let mut out = [0.0f32; 16];
            for k in 0..w as usize {
                out[k] = x[k] as f32;
            }
            V32(out, w)
        }
        (V32(x, w), Base::Float) => V32(x, w),
        (V64(x, w), Base::Double) => V64(x, w),
        (v, b) => {
            return Err(RuntimeError::Internal(format!(
                "bad convert {v:?} to {b:?}"
            )))
        }
    })
}

pub(crate) fn broadcast(v: Value, width: u8) -> Result<Value, RuntimeError> {
    Ok(match v {
        Value::F32(x) => Value::V32([x; 16], width),
        Value::F64(x) => Value::V64([x; 16], width),
        Value::I(x) => Value::V64([x as f64; 16], width),
        other => {
            return Err(RuntimeError::Internal(format!(
                "cannot broadcast {other:?}"
            )))
        }
    })
}

fn build_vec(base: Base, parts: &[usize], regs: &[Value]) -> Result<Value, RuntimeError> {
    match base {
        Base::Float => {
            let mut out = [0.0f32; 16];
            for (k, r) in parts.iter().enumerate() {
                out[k] = match regs[*r] {
                    Value::F32(x) => x,
                    other => {
                        return Err(RuntimeError::Internal(format!("bad vector part {other:?}")))
                    }
                };
            }
            Ok(Value::V32(out, parts.len() as u8))
        }
        Base::Double => {
            let mut out = [0.0f64; 16];
            for (k, r) in parts.iter().enumerate() {
                out[k] = match regs[*r] {
                    Value::F64(x) => x,
                    other => {
                        return Err(RuntimeError::Internal(format!("bad vector part {other:?}")))
                    }
                };
            }
            Ok(Value::V64(out, parts.len() as u8))
        }
        other => Err(RuntimeError::Internal(format!(
            "vectors of {other:?} unsupported"
        ))),
    }
}

pub(crate) fn extract(v: Value, lane: u8) -> Result<Value, RuntimeError> {
    match v {
        Value::V32(x, w) if lane < w => Ok(Value::F32(x[lane as usize])),
        Value::V64(x, w) if lane < w => Ok(Value::F64(x[lane as usize])),
        other => Err(RuntimeError::Internal(format!(
            "bad extract lane {lane} from {other:?}"
        ))),
    }
}

pub(crate) fn insert_lane(vec: Value, src: Value, lane: u8) -> Result<Value, RuntimeError> {
    match (vec, src) {
        (Value::V32(mut x, w), Value::F32(s)) if lane < w => {
            x[lane as usize] = s;
            Ok(Value::V32(x, w))
        }
        (Value::V64(mut x, w), Value::F64(s)) if lane < w => {
            x[lane as usize] = s;
            Ok(Value::V64(x, w))
        }
        (v, s) => Err(RuntimeError::Internal(format!(
            "bad insert of {s:?} into {v:?}"
        ))),
    }
}

pub(crate) fn mad(a: Value, b: Value, c: Value) -> Result<Value, RuntimeError> {
    use Value::*;
    Ok(match (a, b, c) {
        (F32(x), F32(y), F32(z)) => F32(x.mul_add(y, z)),
        (F64(x), F64(y), F64(z)) => F64(x.mul_add(y, z)),
        (V32(x, w), V32(y, w2), V32(z, w3)) if w == w2 && w == w3 => {
            let mut out = [0.0f32; 16];
            for k in 0..w as usize {
                out[k] = x[k].mul_add(y[k], z[k]);
            }
            V32(out, w)
        }
        (V64(x, w), V64(y, w2), V64(z, w3)) if w == w2 && w == w3 => {
            let mut out = [0.0f64; 16];
            for k in 0..w as usize {
                out[k] = x[k].mul_add(y[k], z[k]);
            }
            V64(out, w)
        }
        (a, b, c) => return Err(RuntimeError::Internal(format!("bad mad {a:?} {b:?} {c:?}"))),
    })
}

pub(crate) fn math(
    f: MathFunc,
    a: Value,
    b: Value,
    c: Value,
    n_args: u8,
) -> Result<Value, RuntimeError> {
    use Value::*;
    if n_args == 3 {
        // clamp(x, lo, hi)
        return Ok(match (f, a, b, c) {
            (MathFunc::Clamp, I(x), I(lo), I(hi)) => I(x.clamp(lo, hi)),
            (MathFunc::Clamp, F32(x), F32(lo), F32(hi)) => F32(x.clamp(lo, hi)),
            (MathFunc::Clamp, F64(x), F64(lo), F64(hi)) => F64(x.clamp(lo, hi)),
            (f, a, b, c) => {
                return Err(RuntimeError::Internal(format!(
                    "bad math {f:?} {a:?} {b:?} {c:?}"
                )))
            }
        });
    }
    if n_args == 2 {
        return Ok(match (f, a, b) {
            (MathFunc::Min, I(x), I(y)) => I(x.min(y)),
            (MathFunc::Max, I(x), I(y)) => I(x.max(y)),
            (MathFunc::Min | MathFunc::Fmin, F32(x), F32(y)) => F32(x.min(y)),
            (MathFunc::Max | MathFunc::Fmax, F32(x), F32(y)) => F32(x.max(y)),
            (MathFunc::Min | MathFunc::Fmin, F64(x), F64(y)) => F64(x.min(y)),
            (MathFunc::Max | MathFunc::Fmax, F64(x), F64(y)) => F64(x.max(y)),
            (f, a, b) => {
                return Err(RuntimeError::Internal(format!(
                    "bad math {f:?} {a:?} {b:?}"
                )))
            }
        });
    }
    Ok(match (f, a) {
        (MathFunc::Fabs, F32(x)) => F32(x.abs()),
        (MathFunc::Fabs, F64(x)) => F64(x.abs()),
        (MathFunc::Sqrt, F32(x)) => F32(x.sqrt()),
        (MathFunc::Sqrt, F64(x)) => F64(x.sqrt()),
        (MathFunc::Exp, F32(x)) => F32(x.exp()),
        (MathFunc::Exp, F64(x)) => F64(x.exp()),
        (MathFunc::Log, F32(x)) => F32(x.ln()),
        (MathFunc::Log, F64(x)) => F64(x.ln()),
        (MathFunc::NativeRecip, F32(x)) => F32(1.0 / x),
        (MathFunc::NativeRecip, F64(x)) => F64(1.0 / x),
        (f, a) => return Err(RuntimeError::Internal(format!("bad math {f:?} {a:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_constructors() {
        assert_eq!(
            Value::v32(&[1.0, 2.0]),
            Value::V32(
                {
                    let mut a = [0.0; 16];
                    a[0] = 1.0;
                    a[1] = 2.0;
                    a
                },
                2
            )
        );
        assert!(matches!(Value::v64(&[1.0; 4]), Value::V64(_, 4)));
    }

    #[test]
    fn int_division_by_zero_is_caught() {
        assert!(matches!(
            bin_op(BinOp::Div, Value::I(1), Value::I(0)),
            Err(RuntimeError::Arithmetic(_))
        ));
    }

    #[test]
    fn float_ops_round_at_storage_precision() {
        // f32 arithmetic is done in f64 then rounded to f32, matching a
        // single-precision unit with correctly rounded results.
        let r = bin_op(BinOp::Add, Value::F32(1e8), Value::F32(1.0)).unwrap();
        assert_eq!(r, Value::F32(1e8)); // absorbed in f32
        let r = bin_op(BinOp::Add, Value::F64(1e8), Value::F64(1.0)).unwrap();
        assert_eq!(r, Value::F64(100000001.0));
    }

    #[test]
    fn vector_mad_counts_all_lanes() {
        let a = Value::v64(&[1.0, 2.0]);
        let r = mad(a, a, a).unwrap();
        assert_eq!(r, Value::v64(&[2.0, 6.0]));
    }

    #[test]
    fn conversions() {
        assert_eq!(convert(Value::I(3), Base::Double).unwrap(), Value::F64(3.0));
        assert_eq!(convert(Value::F64(2.9), Base::Int).unwrap(), Value::I(2));
        assert_eq!(
            convert(Value::F32(1.5), Base::Double).unwrap(),
            Value::F64(1.5)
        );
    }

    #[test]
    fn extract_and_insert() {
        let v = Value::v64(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(extract(v, 2).unwrap(), Value::F64(3.0));
        let v2 = insert_lane(v, Value::F64(9.0), 1).unwrap();
        assert_eq!(extract(v2, 1).unwrap(), Value::F64(9.0));
        assert!(extract(v, 4).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            bin_op(BinOp::Lt, Value::I(1), Value::I(2)).unwrap(),
            Value::B(true)
        );
        assert_eq!(
            bin_op(BinOp::Ge, Value::F64(2.0), Value::F64(2.0)).unwrap(),
            Value::B(true)
        );
        assert_eq!(
            bin_op(BinOp::Ne, Value::F32(1.0), Value::F32(1.0)).unwrap(),
            Value::B(false)
        );
    }
}
