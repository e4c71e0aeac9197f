//! The trace backend: uniformity analysis, splat insertion, linear-scan
//! slot allocation onto typed SoA banks, and emission of the
//! pre-scheduled [`TracePlan`] the compiled engine executes.
//!
//! A value is **uniform** when it is provably identical across every
//! work-item of a group (constants, value parameters, group ids,
//! sizes); everything derived from `get_global_id`/`get_local_id` or a
//! memory load is **varying**. Uniform ops execute once per group;
//! varying ops execute as one flat loop over all work-items of the
//! group — that loop is where the per-op dispatch cost of the
//! interpreters is amortised away.
//!
//! Varying ops take all-varying operands: a uniform operand is
//! **splatted** into a varying slot first (once, adjacent to its
//! definition; splats of constants and entry parameters cost nothing
//! at runtime — they become group-reset seeds). A branch on a varying
//! condition carries its reconvergence point (immediate
//! post-dominator), and the engine runs its sides under per-work-item
//! masks; the divergence analysis makes everything that can differ
//! between those sides varying (see `divergence`). Memory ops always
//! execute per work-item so bounds checks match the reference
//! interpreter access-for-access; race recording is skipped only for
//! the loads [`race_facts`] proves can never take part in a race.
//!
//! Slots live in three per-group banks (`i64`/`f32`/`f64`), grouped by
//! (storage shape, uniformity). A varying slot is `nwi × lanes`
//! contiguous cells (slot-major), so elementwise ops vectorise as flat
//! loops. Linear scan reuses slots of block-local values; anything
//! live across blocks (params, loop carriers) is pinned to a slot of
//! its own. Masked execution relies on that pinning: a value live into
//! either side of a divergent branch is never overwritten by the other
//! side, whose ops run on all work-items.

use super::passes::Konst;
use super::{CompileStats, Cost, Edge, Func, Op, OpKind, Term, Val};
use crate::ast::{Base, BinOp, UnOp};
use crate::lower::{CompiledKernel, MathFunc, Reg, RegClass, WiFunc};
use crate::vm::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Which typed bank a slot lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Bank {
    I,
    F,
    D,
}

/// A slot group: one storage shape within a bank. A slot of this group
/// occupies `lanes` cells (uniform) or `nwi × lanes` cells (varying).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupInfo {
    pub bank: Bank,
    pub lanes: u8,
    pub varying: bool,
    pub n_slots: u32,
}

/// A symbolic slot reference, resolved to a flat bank offset at bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    pub group: u16,
    pub slot: u32,
}

impl Slot {
    pub(crate) const NONE: Slot = Slot {
        group: u16::MAX,
        slot: 0,
    };
}

/// Fully-specialised trace op kinds. Each executes as one dispatch per
/// group (not per work-item): elementwise kinds run a flat loop over
/// the destination's cells, structured kinds loop `reps × lanes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PK {
    // copies (also used for block-argument moves) and splats
    CpyI,
    CpyF,
    CpyD,
    SplatI,
    SplatF,
    SplatD,
    // integer ALU (scalars; bools are 0/1 i64)
    AddI,
    SubI,
    MulI,
    DivI,
    RemI,
    /// Truncating division by a power of two (`aux` = shift): branchless
    /// and divider-free, exact for every operand including negatives.
    DivIP2,
    /// Truncating remainder by a power of two (`aux` = shift).
    RemIP2,
    AndI,
    OrI,
    XorI,
    ShlI,
    ShrI,
    LAndI,
    LOrI,
    CmpI,
    NegI,
    NotI,
    // f32 (scalar and vector — the flat count covers the lanes);
    // arithmetic via f64 intermediates, mirroring the reference
    AddF,
    SubF,
    MulF,
    DivF,
    /// `d = a << aux` — multiplication by the power of two `2^aux`.
    MulIP2,
    NegF,
    MadF,
    /// Fused lane-broadcast mad: `d = v[aux] * b + c` per work-item,
    /// where `aux` is the source lane and `buf` carries the source
    /// vector's lane count (its stride through the bank).
    MadBF,
    CmpF,
    // f64
    AddD,
    SubD,
    MulD,
    DivD,
    NegD,
    MadD,
    /// f64 twin of [`PK::MadBF`].
    MadBD,
    CmpD,
    // select
    SelI,
    SelF,
    SelD,
    SelVF,
    SelVD,
    // scalar converts
    I2F,
    I2D,
    I2B,
    F2I,
    F2D,
    D2I,
    D2F,
    // vector converts
    VF2D,
    VD2F,
    // vector assembly/disassembly
    BcastF,
    BcastD,
    BcastID,
    BuildF,
    BuildD,
    ExtrF,
    ExtrD,
    InsF,
    InsD,
    // math builtins (scalars)
    MinI,
    MaxI,
    ClampI,
    MinF,
    MaxF,
    ClampF,
    MinD,
    MaxD,
    ClampD,
    AbsF,
    AbsD,
    SqrtF,
    SqrtD,
    ExpF,
    ExpD,
    LogF,
    LogD,
    RecipF,
    RecipD,
    // work-item queries: aux packs (func, dim)
    WiId,
    WiUni,
    // global memory (always per work-item; aux = access width)
    LdG1F,
    LdGVF,
    LdG1D,
    LdGVD,
    LdG1I,
    StG1F,
    StGVF,
    StG1D,
    StGVD,
    StG1I,
    // local memory
    LdL1F,
    LdLVF,
    LdL1D,
    LdLVD,
    LdL1I,
    StL1F,
    StLVF,
    StL1D,
    StLVD,
    StL1I,
}

/// A planned op: kind + symbolic slots + immediates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct POp {
    pub k: PK,
    pub d: Slot,
    pub a: Slot,
    pub b: Slot,
    pub c: Slot,
    /// Lane index, cmp code, packed Wi (func, dim), or access width.
    pub aux: u8,
    /// Global buffer or local array index for memory ops.
    pub buf: u16,
    /// BuildVec part slots.
    pub ex: Vec<Slot>,
    /// Memory ops: the access is recorded in a race table. Loads that
    /// [`race_facts`] proves race-free skip it.
    pub track: bool,
}

impl POp {
    fn new(k: PK, d: Slot) -> POp {
        POp {
            k,
            d,
            a: Slot::NONE,
            b: Slot::NONE,
            c: Slot::NONE,
            aux: 0,
            buf: 0,
            ex: Vec::new(),
            track: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PTerm {
    Br {
        to: usize,
        copies: Vec<POp>,
    },
    /// `join` is `Some(reconvergence block)` ([`EXIT`] when the sides
    /// only meet at kernel exit) for a work-item-divergent condition;
    /// both sides then run under complementary lane masks.
    CondBr {
        cond: Slot,
        t: usize,
        f: usize,
        t_copies: Vec<POp>,
        f_copies: Vec<POp>,
        join: Option<usize>,
    },
    Barrier {
        to: usize,
        copies: Vec<POp>,
    },
    Ret,
}

/// Reconvergence point of a divergent branch whose sides only meet
/// again at kernel exit (some path returns).
pub(crate) const EXIT: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PBlock {
    pub ops: Vec<POp>,
    pub cost: Cost,
    pub races: RaceCounts,
    pub term: PTerm,
}

/// A block's memory ops by race-table treatment, frozen at plan time
/// and charged per active work-item like its [`Cost`]: the
/// `clc_race_proved_total` / `clc_race_tracked_total` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RaceCounts {
    pub proved_global: u64,
    pub tracked_global: u64,
    pub proved_local: u64,
    pub tracked_local: u64,
}

impl RaceCounts {
    fn of(ops: &[POp]) -> RaceCounts {
        let mut c = RaceCounts::default();
        for op in ops {
            let Some((global, _)) = mem_access(op.k) else {
                continue;
            };
            let n = match (global, op.track) {
                (true, false) => &mut c.proved_global,
                (true, true) => &mut c.tracked_global,
                (false, false) => &mut c.proved_local,
                (false, true) => &mut c.tracked_local,
            };
            *n += 1;
        }
        c
    }

    /// Add `o`, executed by `n` work-items.
    pub(crate) fn add(&mut self, o: &RaceCounts, n: u64) {
        self.proved_global += o.proved_global * n;
        self.tracked_global += o.tracked_global * n;
        self.proved_local += o.proved_local * n;
        self.tracked_local += o.tracked_local * n;
    }
}

/// The compiled kernel: a geometry-independent schedule. [`bind`]
/// resolves it to flat bank offsets for a concrete group size.
///
/// [`bind`]: TracePlan::bind
#[derive(Debug, Clone, PartialEq)]
pub struct TracePlan {
    pub stats: CompileStats,
    pub(crate) groups: Vec<GroupInfo>,
    pub(crate) blocks: Vec<PBlock>,
    /// Constant seeds written at every group reset.
    pub(crate) consts: Vec<(Slot, Value)>,
    /// Entry-parameter seeds: slot ← launch `init_regs[reg]`.
    pub(crate) entries: Vec<SlotReg>,
    /// Per buffer parameter: some store targets it. Only these buffers
    /// get inter-group race tables.
    pub(crate) stored: Vec<bool>,
}

/// Memory ops of a plan, split by whether their race-table record is
/// proved unnecessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RaceSplit {
    pub proved: usize,
    pub tracked: usize,
}

/// The race-freedom proofs in a compiled kernel's plan (see
/// [`race_facts`]), as static counts over its memory ops.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RaceProofs {
    /// Per buffer parameter: no store in the kernel targets it, so the
    /// buffer gets no inter-group race table and its loads record
    /// nothing.
    pub read_only: Vec<bool>,
    pub global_loads: RaceSplit,
    pub global_stores: RaceSplit,
    /// Local loads are proved per barrier phase.
    pub local_loads: RaceSplit,
    pub local_stores: RaceSplit,
}

/// An entry seed: this slot is initialised from that launch register.
pub(crate) type SlotReg = (Slot, Reg);

// ---- bound (per-launch) form ----------------------------------------------

/// A bound op: flat bank offsets plus loop bounds. `n` is the flat
/// element count for elementwise kinds and the rep (work-item) count
/// for structured kinds; `w` is the lane count. `masked` ops touch
/// only the active work-items under a partial mask: memory ops, and the
/// per-item integer divisions, clamps and block-argument copies.
#[derive(Debug, Clone)]
pub(crate) struct BOp {
    pub k: PK,
    pub d: u32,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub n: u32,
    pub w: u32,
    pub aux: u8,
    pub buf: u16,
    pub masked: bool,
    /// See [`POp::track`].
    pub track: bool,
    pub ex: Box<[u32]>,
}

#[derive(Debug, Clone)]
pub(crate) enum BTerm {
    Br {
        to: u32,
        copies: Box<[BOp]>,
    },
    CondBr {
        cond: u32,
        t: u32,
        f: u32,
        t_copies: Box<[BOp]>,
        f_copies: Box<[BOp]>,
        join: Option<usize>,
    },
    Barrier {
        to: u32,
        copies: Box<[BOp]>,
    },
    Ret,
}

#[derive(Debug, Clone)]
pub(crate) struct BBlock {
    pub ops: Vec<BOp>,
    pub cost: Cost,
    pub races: RaceCounts,
    pub term: BTerm,
}

/// One seed write performed at each group reset: `reps` repetitions of
/// the `lanes`-cell payload starting at `flat` in `bank`.
#[derive(Debug, Clone)]
pub(crate) struct BSeed {
    pub bank: Bank,
    pub flat: u32,
    pub reps: u32,
    pub lanes: u32,
    pub val: Value,
}

/// A plan bound to a concrete group size.
#[derive(Debug, Clone)]
pub(crate) struct BoundTrace {
    pub blocks: Vec<BBlock>,
    pub seeds: Vec<BSeed>,
    /// Entry-param seeds: (write shape, source register in `init_regs`).
    pub entry_seeds: Vec<(BSeed, Reg)>,
    pub ni: usize,
    pub nf: usize,
    pub nd: usize,
}

impl GroupInfo {
    fn unit(&self, nwi: usize) -> usize {
        self.lanes as usize * if self.varying { nwi } else { 1 }
    }
}

/// A memory kind's `(global, store)`; `None` for every other kind.
fn mem_access(k: PK) -> Option<(bool, bool)> {
    use PK::*;
    match k {
        LdG1F | LdGVF | LdG1D | LdGVD | LdG1I => Some((true, false)),
        StG1F | StGVF | StG1D | StGVD | StG1I => Some((true, true)),
        LdL1F | LdLVF | LdL1D | LdLVD | LdL1I => Some((false, false)),
        StL1F | StLVF | StL1D | StLVD | StL1I => Some((false, true)),
        _ => None,
    }
}

fn is_mem_pk(k: PK) -> bool {
    mem_access(k).is_some()
}

fn is_structured_pk(k: PK) -> bool {
    use PK::*;
    matches!(
        k,
        SplatI
            | SplatF
            | SplatD
            | BcastF
            | BcastD
            | BcastID
            | BuildF
            | BuildD
            | ExtrF
            | ExtrD
            | InsF
            | InsD
            | SelVF
            | SelVD
            | MadBF
            | MadBD
            | WiId
    )
}

impl TracePlan {
    /// The plan's race-freedom proofs, counted over its memory ops.
    #[must_use]
    pub fn race_proofs(&self) -> RaceProofs {
        let mut p = RaceProofs {
            read_only: self.stored.iter().map(|&s| !s).collect(),
            ..RaceProofs::default()
        };
        for op in self.blocks.iter().flat_map(|b| &b.ops) {
            let Some((global, store)) = mem_access(op.k) else {
                continue;
            };
            let split = match (global, store) {
                (true, false) => &mut p.global_loads,
                (true, true) => &mut p.global_stores,
                (false, false) => &mut p.local_loads,
                (false, true) => &mut p.local_stores,
            };
            if op.track {
                split.tracked += 1;
            } else {
                split.proved += 1;
            }
        }
        p
    }

    /// Resolve slots to flat offsets for groups of `nwi` work-items.
    pub(crate) fn bind(&self, nwi: usize) -> BoundTrace {
        let mut base = vec![0u32; self.groups.len()];
        let mut tot = [0usize; 3]; // I, F, D bank sizes
        for (gi, g) in self.groups.iter().enumerate() {
            let b = match g.bank {
                Bank::I => 0,
                Bank::F => 1,
                Bank::D => 2,
            };
            base[gi] = tot[b] as u32;
            tot[b] += g.n_slots as usize * g.unit(nwi);
        }
        let flat = |s: Slot| -> u32 {
            if s.group == u16::MAX {
                return 0;
            }
            let g = &self.groups[s.group as usize];
            base[s.group as usize] + s.slot * g.unit(nwi) as u32
        };
        let varying = |s: Slot| s.group != u16::MAX && self.groups[s.group as usize].varying;
        let bind_op = |p: &POp, copy: bool| -> BOp {
            let trapping = matches!(
                p.k,
                PK::DivI | PK::RemI | PK::ClampI | PK::ClampF | PK::ClampD
            );
            let masked = is_mem_pk(p.k) || ((copy || trapping) && varying(p.d));
            let (n, w) = if is_mem_pk(p.k) {
                (nwi as u32, u32::from(p.aux.max(1)))
            } else if matches!(p.k, PK::ExtrF | PK::ExtrD) {
                // The lane count comes from the *source* vector — the
                // destination is scalar.
                let g = &self.groups[p.a.group as usize];
                let reps = if g.varying { nwi as u32 } else { 1 };
                (reps, u32::from(g.lanes))
            } else if is_structured_pk(p.k) {
                let g = &self.groups[p.d.group as usize];
                let reps = if g.varying { nwi as u32 } else { 1 };
                (reps, u32::from(g.lanes))
            } else if matches!(p.k, PK::WiUni) {
                (1, 1)
            } else {
                // Elementwise: one flat loop over the dst's cells. For
                // cross-bank kinds (compares, converts) the operand
                // shape matches the dst shape cell-for-cell.
                let g = &self.groups[p.d.group as usize];
                let reps = if g.varying { nwi as u32 } else { 1 };
                (reps * u32::from(g.lanes), u32::from(g.lanes))
            };
            BOp {
                k: p.k,
                d: flat(p.d),
                a: flat(p.a),
                b: flat(p.b),
                c: flat(p.c),
                n,
                w,
                aux: p.aux,
                buf: p.buf,
                masked,
                track: p.track,
                ex: p.ex.iter().map(|&s| flat(s)).collect(),
            }
        };
        let bind_ops =
            |ops: &[POp]| -> Box<[BOp]> { ops.iter().map(|p| bind_op(p, true)).collect() };
        let blocks = self
            .blocks
            .iter()
            .map(|b| BBlock {
                ops: b.ops.iter().map(|p| bind_op(p, false)).collect(),
                cost: b.cost,
                races: b.races,
                term: match &b.term {
                    PTerm::Br { to, copies } => BTerm::Br {
                        to: *to as u32,
                        copies: bind_ops(copies),
                    },
                    PTerm::CondBr {
                        cond,
                        t,
                        f,
                        t_copies,
                        f_copies,
                        join,
                    } => BTerm::CondBr {
                        cond: flat(*cond),
                        t: *t as u32,
                        f: *f as u32,
                        t_copies: bind_ops(t_copies),
                        f_copies: bind_ops(f_copies),
                        join: *join,
                    },
                    PTerm::Barrier { to, copies } => BTerm::Barrier {
                        to: *to as u32,
                        copies: bind_ops(copies),
                    },
                    PTerm::Ret => BTerm::Ret,
                },
            })
            .collect();
        let seed_of = |slot: Slot, val: Value| -> BSeed {
            let g = &self.groups[slot.group as usize];
            BSeed {
                bank: g.bank,
                flat: flat(slot),
                reps: if g.varying { nwi as u32 } else { 1 },
                lanes: u32::from(g.lanes),
                val,
            }
        };
        BoundTrace {
            blocks,
            seeds: self.consts.iter().map(|&(s, v)| seed_of(s, v)).collect(),
            entry_seeds: self
                .entries
                .iter()
                .map(|&(s, r)| (seed_of(s, Value::I(0)), r))
                .collect(),
            ni: tot[0],
            nf: tot[1],
            nd: tot[2],
        }
    }
}

// ---- emission -------------------------------------------------------------

fn class_shape(c: RegClass) -> (Bank, u8) {
    match c {
        RegClass::Int => (Bank::I, 1),
        RegClass::F32 => (Bank::F, 1),
        RegClass::F64 => (Bank::D, 1),
        RegClass::V32(w) => (Bank::F, w),
        RegClass::V64(w) => (Bank::D, w),
    }
}

fn cmp_code(op: BinOp) -> u8 {
    match op {
        BinOp::Lt => 0,
        BinOp::Gt => 1,
        BinOp::Le => 2,
        BinOp::Ge => 3,
        BinOp::Eq => 4,
        BinOp::Ne => 5,
        _ => unreachable!("not a comparison"),
    }
}

pub(crate) fn wi_pack(f: WiFunc, dim: u8) -> u8 {
    let fc = match f {
        WiFunc::GlobalId => 0,
        WiFunc::LocalId => 1,
        WiFunc::GroupId => 2,
        WiFunc::GlobalSize => 3,
        WiFunc::LocalSize => 4,
        WiFunc::NumGroups => 5,
    };
    fc * 4 + dim
}

/// Schedule item within a block: a source op or an inserted splat.
enum SItem {
    Op(usize),
    Splat { src: Val, dst: Val },
}

/// Where a splat twin gets written.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SplatSite {
    /// At group reset (constants, entry params): no runtime op.
    Seed,
    BlockStart(usize),
    AfterOp(usize, usize),
}

struct Emitter<'a> {
    k: &'a CompiledKernel,
    f: &'a Func,
    /// `f.classes` extended with the splat twins'.
    classes: Vec<RegClass>,
    uni: Vec<bool>,
    splat: BTreeMap<Val, Val>,
    splat_site: HashMap<Val, SplatSite>,
    konst: Konst,
    groups: Vec<GroupInfo>,
    group_idx: HashMap<(Bank, u8, bool), u16>,
    slot_of: Vec<Option<Slot>>,
    /// Reserved scratch slot per group, for parallel-copy cycles.
    temps: Vec<u32>,
    /// Reconvergence point of each block's divergent branch.
    joins: Vec<Option<usize>>,
}

/// Emit a trace plan, or return the reason the kernel is declined.
/// `races` must come from [`race_facts`] on the same `f`.
pub(crate) fn emit(
    k: &CompiledKernel,
    f: &Func,
    races: RaceFacts,
    mut stats: CompileStats,
) -> Result<TracePlan, String> {
    let konst = Konst::of(f);
    let Divergence { uni, joins, .. } = divergence(f)?;
    let mut em = Emitter {
        k,
        f,
        classes: f.classes.clone(),
        uni,
        splat: BTreeMap::new(),
        splat_site: HashMap::new(),
        konst,
        groups: Vec::new(),
        group_idx: HashMap::new(),
        slot_of: Vec::new(),
        temps: Vec::new(),
        joins,
    };
    let scheds = em.plan_splats();
    em.allocate(&scheds, &mut stats);
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for (bi, blk) in f.blocks.iter().enumerate() {
        let mut ops = Vec::new();
        for item in &scheds[bi] {
            match item {
                SItem::Splat { src, dst } => {
                    let (bank, _) = class_shape(em.classes[*src as usize]);
                    let kind = match bank {
                        Bank::I => PK::SplatI,
                        Bank::F => PK::SplatF,
                        Bank::D => PK::SplatD,
                    };
                    let mut p = POp::new(kind, em.slot(*dst));
                    p.a = em.slot(*src);
                    ops.push(p);
                }
                SItem::Op(oi) => {
                    let op = &blk.ops[*oi];
                    if let Some(mut p) = em.lower_op(op)? {
                        p.track = races.tracks(bi, &op.kind);
                        ops.push(p);
                    }
                }
            }
        }
        let term = em.lower_term(bi, &blk.term);
        blocks.push(PBlock {
            races: RaceCounts::of(&ops),
            ops,
            cost: blk.cost,
            term,
        });
    }
    let (consts, entries) = em.collect_seeds();
    Ok(TracePlan {
        stats,
        groups: em.groups,
        blocks,
        consts,
        entries,
        stored: races.stored,
    })
}

/// Per-value uniformity, and the reconvergence point of every block
/// that ends in a work-item-divergent branch.
///
/// Start everything uniform and demote to a fixpoint: loads and
/// per-item id queries are varying sources; an op with a varying
/// operand is varying; a block parameter is varying when an incoming
/// argument is. A branch on a varying condition runs its sides under
/// complementary masks until they reconverge at its immediate
/// post-dominator, so a parameter of any block between the branch and
/// its join, or of the join itself, is varying unless it forwards one
/// value on every incoming edge: work-items arrive along different
/// paths. That covers loops too — when a divergent branch can leave a
/// loop, the loop header lies between the branch and its join (through
/// the back edge), so the loop-carried values are varying: work-items
/// leave at different iterations.
///
/// A barrier inside a divergent region — including any barrier after a
/// divergent `return` — would run under a partial mask: declined.
pub(crate) fn divergence(f: &Func) -> Result<Divergence, String> {
    let root = forwarded_roots(f);
    let ipdom = post_dominators(f);
    let mut uni = vec![true; f.n_vals()];
    let mut joins = vec![None; f.blocks.len()];
    let mut in_region = vec![false; f.blocks.len()];
    let mut changed = true;
    let demote = |uni: &mut Vec<bool>, v: Val, changed: &mut bool| {
        *changed |= std::mem::replace(&mut uni[v as usize], false);
    };
    while changed {
        changed = false;
        for (bi, b) in f.blocks.iter().enumerate() {
            for op in &b.ops {
                let Some(d) = op.dst else { continue };
                let varying = match &op.kind {
                    OpKind::LoadGlobal { .. } | OpKind::LoadLocal { .. } => true,
                    OpKind::Wi(WiFunc::GlobalId | WiFunc::LocalId, _) => true,
                    OpKind::Wi(_, _) => false,
                    kind => {
                        let mut any = false;
                        kind.for_each_operand(|o| any |= !uni[o as usize]);
                        any
                    }
                };
                if varying {
                    demote(&mut uni, d, &mut changed);
                }
            }
            for e in b.term.edges() {
                for (param, arg) in f.blocks[e.to].params.iter().zip(&e.args) {
                    if !uni[*arg as usize] {
                        demote(&mut uni, *param, &mut changed);
                    }
                }
            }
            let Term::CondBr { cond, .. } = &b.term else {
                continue;
            };
            if uni[*cond as usize] || joins[bi].is_some() {
                continue;
            }
            let r = ipdom[bi];
            joins[bi] = Some(r);
            let mut region = vec![false; f.blocks.len()];
            let mut stack: Vec<usize> = b.term.edges().iter().map(|e| e.to).collect();
            while let Some(x) = stack.pop() {
                if x != r && !std::mem::replace(&mut region[x], true) {
                    stack.extend(f.blocks[x].term.edges().iter().map(|e| e.to));
                }
            }
            for (x, blk) in f.blocks.iter().enumerate() {
                if region[x] && matches!(blk.term, Term::Barrier { .. }) {
                    return Err("barrier under a work-item-divergent branch".into());
                }
                in_region[x] |= region[x];
                if region[x] || x == r {
                    for &q in blk.params.iter().filter(|&&q| root[q as usize] == q) {
                        demote(&mut uni, q, &mut changed);
                    }
                }
            }
        }
    }
    Ok(Divergence {
        uni,
        joins,
        root,
        in_region,
    })
}

/// What [`divergence`] proves about a function.
pub(crate) struct Divergence {
    pub uni: Vec<bool>,
    /// Per block: the reconvergence point of its divergent branch.
    pub joins: Vec<Option<usize>>,
    /// Per value: the value it forwards (see [`forwarded_roots`]).
    pub root: Vec<Val>,
    /// Per block: whether it lies between a divergent branch and its
    /// join.
    pub in_region: Vec<bool>,
}

/// The value each value forwards: a block parameter whose incoming
/// arguments all resolve to one value `r` (or to itself, around a loop)
/// carries `r` on every path. The entry block's parameters forward
/// nothing: the launch's registers reach them on no edge.
fn forwarded_roots(f: &Func) -> Vec<Val> {
    let find = |root: &[Val], mut v: Val| {
        while root[v as usize] != v {
            v = root[v as usize];
        }
        v
    };
    let mut incoming: Vec<Vec<&Edge>> = vec![Vec::new(); f.blocks.len()];
    for b in &f.blocks {
        for e in b.term.edges() {
            incoming[e.to].push(e);
        }
    }
    let mut root: Vec<Val> = (0..f.n_vals() as Val).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, b) in f.blocks.iter().enumerate().skip(1) {
            for (i, &q) in b.params.iter().enumerate() {
                let mut args = incoming[bi].iter().map(|e| find(&root, e.args[i]));
                let mut only = None;
                if root[q as usize] == q && args.all(|a| a == q || *only.get_or_insert(a) == a) {
                    if let Some(r) = only {
                        root[q as usize] = r;
                        changed = true;
                    }
                }
            }
        }
    }
    (0..f.n_vals() as Val).map(|v| find(&root, v)).collect()
}

/// Which memory ops of a function need race tracking.
///
/// Two facts, proved on the final SSA function the plan is emitted
/// from:
/// - A global buffer is **read-only** when no `StoreGlobal` anywhere in
///   the function targets it (decided from the store ops, not from the
///   `const` qualifier). An inter-group race needs a write, and
///   barriers do not order groups, so this is the only global proof:
///   per buffer, over the whole kernel. Buffers cannot alias, because
///   `Kernel::marshal` requires `Arg::Buf(i)` for the i-th buffer
///   parameter, so a read-only buffer's loads never meet a store and
///   need no table at all.
/// - A local load is **phase-proved** when no `StoreLocal` to the same
///   array appears in its barrier-free region: the connected component
///   of its block once `Barrier` edges are removed (every other edge
///   counts, loop back edges included). Within one group a barrier
///   phase starts at one block (barriers never sit under divergent
///   branches; [`divergence`] declines those) and follows only
///   non-barrier edges until the next barrier, so it never leaves one
///   region. `RaceTable::on_read` can only fail against a write of the
///   same phase, and a later `on_write` only consults reader marks of
///   the same phase, so a proved load can neither report a race nor
///   feed one, and skipping its record changes no outcome.
///
/// Every store stays tracked: both proofs cover whole buffers or whole
/// phases, so a store is never the unrecorded half of a race.
pub(crate) struct RaceFacts {
    /// Per buffer parameter: some `StoreGlobal` targets it.
    pub stored: Vec<bool>,
    /// Per block: the representative block of its barrier-free region.
    region: Vec<usize>,
    /// `local_stored[region * n_arrays + arr]`: some block of the
    /// region stores to local array `arr`.
    local_stored: Vec<bool>,
    n_arrays: usize,
}

impl RaceFacts {
    /// Whether op `kind` in block `bi` must record its accesses.
    fn tracks(&self, bi: usize, kind: &OpKind) -> bool {
        match *kind {
            OpKind::LoadGlobal { buf, .. } => self.stored[buf],
            OpKind::LoadLocal { arr, .. } => {
                self.local_stored[self.region[bi] * self.n_arrays + arr]
            }
            ref k => k.is_mem(),
        }
    }
}

/// Prove the race-freedom facts of `f` (see [`RaceFacts`]).
pub(crate) fn race_facts(k: &CompiledKernel, f: &Func) -> RaceFacts {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let nb = f.blocks.len();
    let mut parent: Vec<usize> = (0..nb).collect();
    for (bi, b) in f.blocks.iter().enumerate() {
        if matches!(b.term, Term::Barrier { .. }) {
            continue;
        }
        for e in b.term.edges() {
            let (x, y) = (find(&mut parent, bi), find(&mut parent, e.to));
            parent[x] = y;
        }
    }
    let region: Vec<usize> = (0..nb).map(|b| find(&mut parent, b)).collect();
    let n_arrays = k.checked.local_arrays.len();
    let mut stored = vec![false; k.checked.buffer_params.len()];
    let mut local_stored = vec![false; nb * n_arrays];
    for (bi, b) in f.blocks.iter().enumerate() {
        for op in &b.ops {
            match op.kind {
                OpKind::StoreGlobal { buf, .. } => stored[buf] = true,
                OpKind::StoreLocal { arr, .. } => local_stored[region[bi] * n_arrays + arr] = true,
                _ => {}
            }
        }
    }
    RaceFacts {
        stored,
        region,
        local_stored,
        n_arrays,
    }
}

/// Immediate post-dominator of every block, [`EXIT`] when only the
/// kernel exit post-dominates it. A block that cannot reach a `ret`
/// (an endless loop, cut by the step limit) is treated as exiting.
fn post_dominators(f: &Func) -> Vec<usize> {
    let nb = f.blocks.len();
    let mut succ: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| match b.term {
            Term::Ret => vec![nb],
            _ => b.term.edges().iter().map(|e| e.to).collect(),
        })
        .collect();
    let preds = f.preds();
    let mut exits = vec![false; nb];
    let mut stack: Vec<usize> = (0..nb).filter(|&b| succ[b] == [nb]).collect();
    while let Some(x) = stack.pop() {
        if !std::mem::replace(&mut exits[x], true) {
            stack.extend(&preds[x]);
        }
    }
    for (b, s) in succ.iter_mut().enumerate() {
        if !exits[b] {
            s.push(nb);
        }
    }
    // pd[b][x]: x post-dominates b; node `nb` is the exit.
    let mut pd = vec![vec![true; nb + 1]; nb + 1];
    pd[nb] = (0..=nb).map(|x| x == nb).collect();
    let mut grew = true;
    while grew {
        grew = false;
        for b in (0..nb).rev() {
            let mut np = vec![true; nb + 1];
            for &s in &succ[b] {
                for (x, y) in np.iter_mut().zip(&pd[s]) {
                    *x = *x && *y;
                }
            }
            np[b] = true;
            if np != pd[b] {
                pd[b] = np;
                grew = true;
            }
        }
    }
    // Strict post-dominators form a chain; the nearest has the most.
    let size = |x: usize| pd[x].iter().filter(|&&y| y).count();
    (0..nb)
        .map(|b| {
            let ip = (0..=nb)
                .filter(|&x| x != b && pd[b][x])
                .max_by_key(|&x| size(x));
            match ip {
                Some(x) if x < nb => x,
                _ => EXIT,
            }
        })
        .collect()
}

impl Emitter<'_> {
    fn group(&mut self, bank: Bank, lanes: u8, varying: bool) -> u16 {
        if let Some(&g) = self.group_idx.get(&(bank, lanes, varying)) {
            return g;
        }
        let g = self.groups.len() as u16;
        self.groups.push(GroupInfo {
            bank,
            lanes,
            varying,
            n_slots: 0,
        });
        self.group_idx.insert((bank, lanes, varying), g);
        g
    }

    fn group_of_val(&mut self, v: Val) -> u16 {
        let (bank, lanes) = class_shape(self.classes[v as usize]);
        let varying = !self.uni[v as usize];
        self.group(bank, lanes, varying)
    }

    fn slot(&self, v: Val) -> Slot {
        self.slot_of[v as usize].expect("value has a slot")
    }

    fn op_varying(&self, op: &Op) -> bool {
        op.kind.is_mem() || op.dst.is_some_and(|d| !self.uni[d as usize])
    }

    /// Runtime operands after splat rewriting: `Wi` reads no slots (its
    /// dim is an immediate); a varying op reads the splatted twin of
    /// any uniform operand.
    fn rt_operands(&self, op: &Op) -> Vec<Val> {
        if matches!(op.kind, OpKind::Wi(_, _) | OpKind::Const(_)) {
            return vec![];
        }
        let varying = self.op_varying(op);
        op.kind
            .operands()
            .into_iter()
            .map(|o| self.rewrite(o, varying))
            .collect()
    }

    fn rewrite(&self, o: Val, consumer_varying: bool) -> Val {
        if consumer_varying && self.uni[o as usize] {
            *self.splat.get(&o).expect("splat twin planned")
        } else {
            o
        }
    }

    /// Decide which uniform values need varying twins, create the twin
    /// values, and build each block's schedule with the splat writes
    /// placed adjacent to the source definitions (so every use is
    /// dominated).
    fn plan_splats(&mut self) -> Vec<Vec<SItem>> {
        let f = self.f;
        let mut need: BTreeSet<Val> = BTreeSet::new();
        for b in &f.blocks {
            for op in &b.ops {
                if matches!(op.kind, OpKind::Wi(_, _) | OpKind::Const(_)) {
                    continue;
                }
                if self.op_varying(op) {
                    for o in op.kind.operands() {
                        if self.uni[o as usize] {
                            need.insert(o);
                        }
                    }
                }
            }
            for e in b.term.edges() {
                for (param, arg) in f.blocks[e.to].params.iter().zip(&e.args) {
                    if !self.uni[*param as usize] && self.uni[*arg as usize] {
                        need.insert(*arg);
                    }
                }
            }
        }
        // Twin values, in deterministic (val id) order.
        for &v in &need {
            let sv = self.classes.len() as Val;
            self.classes.push(self.classes[v as usize]);
            self.uni.push(false);
            self.splat.insert(v, sv);
        }
        // Definition sites. A value is a param or an op dst; Const dsts
        // and entry params (of a pred-less entry) seed at group reset.
        let entry_has_preds = !f.preds()[0].is_empty();
        for &v in &need {
            self.splat_site.insert(v, SplatSite::Seed);
        }
        for (bi, b) in f.blocks.iter().enumerate() {
            for &p in &b.params {
                if need.contains(&p) && (bi != 0 || entry_has_preds) {
                    self.splat_site.insert(p, SplatSite::BlockStart(bi));
                }
            }
            for (oi, op) in b.ops.iter().enumerate() {
                if let Some(d) = op.dst {
                    if need.contains(&d) && !matches!(op.kind, OpKind::Const(_)) {
                        self.splat_site.insert(d, SplatSite::AfterOp(bi, oi));
                    }
                }
            }
        }
        // Schedules.
        let mut scheds: Vec<Vec<SItem>> = Vec::with_capacity(f.blocks.len());
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut items = Vec::with_capacity(b.ops.len() + 4);
            for (&src, &site) in self.splat_site.iter().collect::<BTreeMap<_, _>>() {
                if site == SplatSite::BlockStart(bi) {
                    items.push(SItem::Splat {
                        src,
                        dst: self.splat[&src],
                    });
                }
            }
            for (oi, op) in b.ops.iter().enumerate() {
                if !matches!(op.kind, OpKind::Const(_)) {
                    items.push(SItem::Op(oi));
                }
                if let Some(d) = op.dst {
                    if self.splat_site.get(&d) == Some(&SplatSite::AfterOp(bi, oi)) {
                        items.push(SItem::Splat {
                            src: d,
                            dst: self.splat[&d],
                        });
                    }
                }
            }
            scheds.push(items);
        }
        scheds
    }

    /// Assign every live value a slot. Values confined to one block get
    /// linear-scan slot reuse; params, constants, seeds, and anything
    /// live across blocks are pinned. Each group also reserves one
    /// scratch slot for parallel-copy cycles at block edges.
    fn allocate(&mut self, scheds: &[Vec<SItem>], stats: &mut CompileStats) {
        let f = self.f;
        let n = self.classes.len();
        self.slot_of = vec![None; n];
        // (first, last, block, multi-block?) per value.
        let mut first = vec![u32::MAX; n];
        let mut last = vec![0u32; n];
        let mut home = vec![usize::MAX; n];
        let mut multi = vec![false; n];
        let mut touch = |v: Val, bi: usize, pos: u32| {
            let v = v as usize;
            first[v] = first[v].min(pos);
            last[v] = last[v].max(pos);
            if home[v] == usize::MAX {
                home[v] = bi;
            } else if home[v] != bi {
                multi[v] = true;
            }
        };
        let mut pos: u32 = 0;
        for (bi, b) in f.blocks.iter().enumerate() {
            pos += 1;
            for &p in &b.params {
                touch(p, bi, pos);
            }
            for item in &scheds[bi] {
                pos += 1;
                match item {
                    SItem::Op(oi) => {
                        let op = &b.ops[*oi];
                        for o in self.rt_operands(op) {
                            touch(o, bi, pos);
                        }
                        if let Some(d) = op.dst {
                            touch(d, bi, pos);
                        }
                    }
                    SItem::Splat { src, dst } => {
                        touch(*src, bi, pos);
                        touch(*dst, bi, pos);
                    }
                }
            }
            pos += 1;
            if let Term::CondBr { cond, .. } = &b.term {
                touch(*cond, bi, pos);
            }
            for e in b.term.edges() {
                for (param, arg) in f.blocks[e.to].params.iter().zip(&e.args) {
                    let a = self.rewrite(*arg, !self.uni[*param as usize]);
                    touch(a, bi, pos);
                }
            }
        }
        // Classify. Params and seed-written values are pinned: their
        // writes happen outside their own def position (edge copies,
        // group reset).
        let mut is_param = vec![false; n];
        for b in &f.blocks {
            for &p in &b.params {
                is_param[p as usize] = true;
            }
        }
        let mut seed_written = vec![false; n];
        for (v, _) in self.konst.iter() {
            seed_written[v as usize] = true;
        }
        for (&src, &site) in &self.splat_site {
            if site == SplatSite::Seed {
                seed_written[self.splat[&src] as usize] = true;
            }
        }
        for &p in &f.blocks[0].params {
            seed_written[p as usize] = true;
        }
        // Pinned pass (ascending val id = deterministic layout).
        let mut transient: Vec<Val> = Vec::new();
        for v in 0..n as Val {
            let vu = v as usize;
            if first[vu] == u32::MAX {
                continue; // never touched
            }
            let pinned = is_param[vu] || seed_written[vu] || multi[vu];
            if pinned {
                let g = self.group_of_val(v);
                let s = self.groups[g as usize].n_slots;
                self.groups[g as usize].n_slots += 1;
                self.slot_of[v as usize] = Some(Slot { group: g, slot: s });
            } else {
                transient.push(v);
            }
        }
        // Linear scan over transients.
        transient.sort_by_key(|&v| (first[v as usize], v));
        let mut free: HashMap<u16, Vec<u32>> = HashMap::new();
        let mut active: Vec<(u32, u16, u32)> = Vec::new(); // (last, group, slot)
        for v in transient {
            let start = first[v as usize];
            let mut i = 0;
            while i < active.len() {
                if active[i].0 <= start {
                    let (_, g, s) = active.swap_remove(i);
                    free.entry(g).or_default().push(s);
                } else {
                    i += 1;
                }
            }
            let g = self.group_of_val(v);
            let s = match free.get_mut(&g).and_then(Vec::pop) {
                Some(s) => s,
                None => {
                    let s = self.groups[g as usize].n_slots;
                    self.groups[g as usize].n_slots += 1;
                    s
                }
            };
            self.slot_of[v as usize] = Some(Slot { group: g, slot: s });
            active.push((last[v as usize], g, s));
        }
        // Scratch slot per group + the pressure metric.
        self.temps = Vec::with_capacity(self.groups.len());
        for g in &mut self.groups {
            self.temps.push(g.n_slots);
            g.n_slots += 1;
            if g.n_slots > 64 {
                stats.spills += u64::from(g.n_slots - 64);
            }
        }
    }

    fn collect_seeds(&self) -> (Vec<(Slot, Value)>, Vec<SlotReg>) {
        let mut consts = Vec::new();
        let mut entries = Vec::new();
        for (v, val) in self.konst.iter() {
            if let Some(s) = self.slot_of[v as usize] {
                consts.push((s, *val));
            }
            if let Some(&sv) = self.splat.get(&v) {
                if self.splat_site.get(&v) == Some(&SplatSite::Seed) {
                    if let Some(s) = self.slot_of[sv as usize] {
                        consts.push((s, *val));
                    }
                }
            }
        }
        for (i, &p) in self.f.blocks[0].params.iter().enumerate() {
            let reg = self.f.entry_regs[i];
            if let Some(s) = self.slot_of[p as usize] {
                entries.push((s, reg));
            }
            if let Some(&sv) = self.splat.get(&p) {
                if self.splat_site.get(&p) == Some(&SplatSite::Seed) {
                    if let Some(s) = self.slot_of[sv as usize] {
                        entries.push((s, reg));
                    }
                }
            }
        }
        (consts, entries)
    }

    /// Lower one SSA op to a planned op. `Ok(None)` for constants
    /// (they are seeds); `Err` declines the kernel.
    #[allow(clippy::too_many_lines)]
    fn lower_op(&self, op: &Op) -> Result<Option<POp>, String> {
        use PK::*;
        let cls = |v: Val| self.classes[v as usize];
        let ro = self.rt_operands(op);
        let dst = op.dst;
        let d_slot = match dst {
            Some(d) => self.slot(d),
            None => Slot::NONE,
        };
        let s = |i: usize| self.slot(ro[i]);
        let mut p;
        match &op.kind {
            OpKind::Const(_) => return Ok(None),
            OpKind::Bin(bop, a0, b0) => {
                let oc = cls(*a0);
                let dc = cls(dst.expect("bin has dst"));
                let kind = if bop.is_cmp() {
                    match oc {
                        RegClass::Int => CmpI,
                        RegClass::F32 => CmpF,
                        RegClass::F64 => CmpD,
                        other => return Err(format!("comparison on {other:?}")),
                    }
                } else if bop.is_logic() {
                    match (bop, oc) {
                        (BinOp::And, RegClass::Int) => LAndI,
                        (BinOp::Or, RegClass::Int) => LOrI,
                        (b, c) => return Err(format!("logic {b:?} on {c:?}")),
                    }
                } else {
                    match (dc, bop) {
                        (RegClass::Int, BinOp::Add) => AddI,
                        (RegClass::Int, BinOp::Sub) => SubI,
                        (RegClass::Int, BinOp::Mul) => MulI,
                        (RegClass::Int, BinOp::Div) => DivI,
                        (RegClass::Int, BinOp::Rem) => RemI,
                        (RegClass::Int, BinOp::BitAnd) => AndI,
                        (RegClass::Int, BinOp::BitOr) => OrI,
                        (RegClass::Int, BinOp::BitXor) => XorI,
                        (RegClass::Int, BinOp::Shl) => ShlI,
                        (RegClass::Int, BinOp::Shr) => ShrI,
                        (RegClass::F32 | RegClass::V32(_), BinOp::Add) => AddF,
                        (RegClass::F32 | RegClass::V32(_), BinOp::Sub) => SubF,
                        (RegClass::F32 | RegClass::V32(_), BinOp::Mul) => MulF,
                        (RegClass::F32 | RegClass::V32(_), BinOp::Div) => DivF,
                        (RegClass::F64 | RegClass::V64(_), BinOp::Add) => AddD,
                        (RegClass::F64 | RegClass::V64(_), BinOp::Sub) => SubD,
                        (RegClass::F64 | RegClass::V64(_), BinOp::Mul) => MulD,
                        (RegClass::F64 | RegClass::V64(_), BinOp::Div) => DivD,
                        (c, b) => return Err(format!("binary {b:?} on {c:?}")),
                    }
                };
                if !bop.is_cmp() && !bop.is_logic() && cls(ro[0]) != dc {
                    return Err("binary operand class mismatch".into());
                }
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.b = s(1);
                if bop.is_cmp() {
                    p.aux = cmp_code(*bop);
                }
                // Division by a known positive power of two (every
                // `vload2` index ends in `/2`) strength-reduces to a
                // branchless shift — no per-element zero check and no
                // hardware divide in the trace.
                if matches!(p.k, DivI | RemI) {
                    if let Some(c) = self.konst.int(*b0) {
                        if c > 0 && c & (c - 1) == 0 {
                            p.k = if p.k == DivI { DivIP2 } else { RemIP2 };
                            p.aux = c.trailing_zeros() as u8;
                            p.b = Slot::NONE;
                        }
                    }
                }
                // Multiplication by a power of two (tile strides are
                // powers of two throughout the generator) becomes a
                // shift: wrapping `x << k` equals wrapping `x * 2^k`
                // for every i64, and unlike 64-bit multiplies the
                // shift vectorises.
                if p.k == MulI {
                    let pow2 = |v: Val| match self.konst.int(v) {
                        Some(c) if c > 0 && c & (c - 1) == 0 => Some(c.trailing_zeros() as u8),
                        _ => None,
                    };
                    if let Some(sh) = pow2(*b0) {
                        p.k = MulIP2;
                        p.aux = sh;
                        p.b = Slot::NONE;
                    } else if let Some(sh) = pow2(*a0) {
                        p.k = MulIP2;
                        p.aux = sh;
                        p.a = p.b;
                        p.b = Slot::NONE;
                    }
                }
            }
            OpKind::Un(uop, a0) => {
                let kind = match (uop, cls(*a0)) {
                    (UnOp::Neg, RegClass::Int) => NegI,
                    (UnOp::Neg, RegClass::F32 | RegClass::V32(_)) => NegF,
                    (UnOp::Neg, RegClass::F64 | RegClass::V64(_)) => NegD,
                    (UnOp::Not, RegClass::Int) => NotI,
                    (u, c) => return Err(format!("unary {u:?} on {c:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
            }
            OpKind::Convert(a0, base) => {
                let kind = match (cls(*a0), base) {
                    (RegClass::Int, Base::Float) => I2F,
                    (RegClass::Int, Base::Double) => I2D,
                    (RegClass::Int, Base::Bool) => I2B,
                    (RegClass::Int, Base::Int | Base::Uint) => CpyI,
                    (RegClass::F32, Base::Double) => F2D,
                    (RegClass::F32, Base::Int | Base::Uint) => F2I,
                    (RegClass::F32, Base::Float) => CpyF,
                    (RegClass::F64, Base::Float) => D2F,
                    (RegClass::F64, Base::Int | Base::Uint) => D2I,
                    (RegClass::F64, Base::Double) => CpyD,
                    (RegClass::V32(_), Base::Double) => VF2D,
                    (RegClass::V64(_), Base::Float) => VD2F,
                    (RegClass::V32(_), Base::Float) => CpyF,
                    (RegClass::V64(_), Base::Double) => CpyD,
                    (c, b) => return Err(format!("convert {c:?} to {b:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
            }
            OpKind::Broadcast(a0, _) => {
                let kind = match cls(*a0) {
                    RegClass::F32 => BcastF,
                    RegClass::F64 => BcastD,
                    RegClass::Int => BcastID,
                    c => return Err(format!("broadcast of {c:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
            }
            OpKind::BuildVec(base, parts) => {
                let kind = match base {
                    Base::Float => BuildF,
                    Base::Double => BuildD,
                    b => return Err(format!("vector of {b:?}")),
                };
                let want = match base {
                    Base::Float => RegClass::F32,
                    _ => RegClass::F64,
                };
                if parts.iter().any(|&q| cls(q) != want) {
                    return Err("vector part class mismatch".into());
                }
                p = POp::new(kind, d_slot);
                p.ex = (0..ro.len()).map(s).collect();
            }
            OpKind::Extract(a0, lane) => {
                let kind = match cls(*a0) {
                    RegClass::V32(w) if *lane < w => ExtrF,
                    RegClass::V64(w) if *lane < w => ExtrD,
                    c => return Err(format!("extract lane {lane} from {c:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.aux = *lane;
            }
            OpKind::Insert(v0, sc, lane) => {
                let kind = match (cls(*v0), cls(*sc)) {
                    (RegClass::V32(w), RegClass::F32) if *lane < w => InsF,
                    (RegClass::V64(w), RegClass::F64) if *lane < w => InsD,
                    (c, sc) => return Err(format!("insert {sc:?} into {c:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.b = s(1);
                p.aux = *lane;
            }
            OpKind::Mad(a0, b0, c0) => {
                let dc = cls(dst.expect("mad has dst"));
                let kind = match dc {
                    RegClass::F32 | RegClass::V32(_) => MadF,
                    RegClass::F64 | RegClass::V64(_) => MadD,
                    c => return Err(format!("mad on {c:?}")),
                };
                if cls(*a0) != dc || cls(*b0) != dc || cls(*c0) != dc {
                    return Err("mad operand class mismatch".into());
                }
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.b = s(1);
                p.c = s(2);
            }
            OpKind::MadLane(v0, lane, b0, c0) => {
                let dc = cls(dst.expect("mad has dst"));
                let (kind, ws) = match (dc, cls(*v0)) {
                    (RegClass::V32(_), RegClass::V32(ws)) if *lane < ws => (MadBF, ws),
                    (RegClass::V64(_), RegClass::V64(ws)) if *lane < ws => (MadBD, ws),
                    (d, v) => return Err(format!("fused mad lane from {v:?} into {d:?}")),
                };
                if cls(*b0) != dc || cls(*c0) != dc {
                    return Err("mad operand class mismatch".into());
                }
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.b = s(1);
                p.c = s(2);
                p.aux = *lane;
                p.buf = u16::from(ws);
            }
            OpKind::Math(mf, _, n_args) => {
                let dc = cls(dst.expect("math has dst"));
                let kind = match (n_args, mf, dc) {
                    (3, MathFunc::Clamp, RegClass::Int) => ClampI,
                    (3, MathFunc::Clamp, RegClass::F32) => ClampF,
                    (3, MathFunc::Clamp, RegClass::F64) => ClampD,
                    (2, MathFunc::Min, RegClass::Int) => MinI,
                    (2, MathFunc::Max, RegClass::Int) => MaxI,
                    (2, MathFunc::Min | MathFunc::Fmin, RegClass::F32) => MinF,
                    (2, MathFunc::Max | MathFunc::Fmax, RegClass::F32) => MaxF,
                    (2, MathFunc::Min | MathFunc::Fmin, RegClass::F64) => MinD,
                    (2, MathFunc::Max | MathFunc::Fmax, RegClass::F64) => MaxD,
                    (1, MathFunc::Fabs, RegClass::F32) => AbsF,
                    (1, MathFunc::Fabs, RegClass::F64) => AbsD,
                    (1, MathFunc::Sqrt, RegClass::F32) => SqrtF,
                    (1, MathFunc::Sqrt, RegClass::F64) => SqrtD,
                    (1, MathFunc::Exp, RegClass::F32) => ExpF,
                    (1, MathFunc::Exp, RegClass::F64) => ExpD,
                    (1, MathFunc::Log, RegClass::F32) => LogF,
                    (1, MathFunc::Log, RegClass::F64) => LogD,
                    (1, MathFunc::NativeRecip, RegClass::F32) => RecipF,
                    (1, MathFunc::NativeRecip, RegClass::F64) => RecipD,
                    (n, f, c) => return Err(format!("math {f:?}/{n} on {c:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
                if ro.len() >= 2 {
                    p.b = s(1);
                }
                if ro.len() >= 3 {
                    p.c = s(2);
                }
            }
            OpKind::Wi(wf, dim) => {
                let d = match self.konst.get(*dim) {
                    Some(Value::I(d)) if (0..=1).contains(&d) => d as u8,
                    other => return Err(format!("work-item dim not 0/1: {other:?}")),
                };
                let kind = match wf {
                    WiFunc::GlobalId | WiFunc::LocalId => WiId,
                    _ => WiUni,
                };
                p = POp::new(kind, d_slot);
                p.aux = wi_pack(*wf, d);
            }
            OpKind::LoadGlobal { buf, width, .. } => {
                let base = self.k.checked.buffer_params[*buf].base;
                let kind = match (base, *width) {
                    (Base::Float, 1) => LdG1F,
                    (Base::Float, _) => LdGVF,
                    (Base::Double, 1) => LdG1D,
                    (Base::Double, _) => LdGVD,
                    (_, 1) => LdG1I,
                    (b, w) => return Err(format!("vector load width {w} from {b:?} buffer")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.aux = *width;
                p.buf = *buf as u16;
            }
            OpKind::StoreGlobal { buf, width, .. } => {
                let base = self.k.checked.buffer_params[*buf].base;
                let kind = match (base, *width) {
                    (Base::Float, 1) => StG1F,
                    (Base::Float, _) => StGVF,
                    (Base::Double, 1) => StG1D,
                    (Base::Double, _) => StGVD,
                    (_, 1) => StG1I,
                    (b, w) => return Err(format!("vector store width {w} to {b:?} buffer")),
                };
                p = POp::new(kind, Slot::NONE);
                p.a = s(0);
                p.b = s(1);
                p.aux = *width;
                p.buf = *buf as u16;
            }
            OpKind::LoadLocal { arr, width, .. } => {
                let base = self.k.checked.local_arrays[*arr].base;
                let kind = match (base, *width) {
                    (Base::Float, 1) => LdL1F,
                    (Base::Float, _) => LdLVF,
                    (Base::Double, 1) => LdL1D,
                    (Base::Double, _) => LdLVD,
                    (_, 1) => LdL1I,
                    (b, w) => return Err(format!("vector load width {w} from local {b:?}")),
                };
                p = POp::new(kind, d_slot);
                p.a = s(0);
                p.aux = *width;
                p.buf = *arr as u16;
            }
            OpKind::StoreLocal { arr, width, .. } => {
                let base = self.k.checked.local_arrays[*arr].base;
                let kind = match (base, *width) {
                    (Base::Float, 1) => StL1F,
                    (Base::Float, _) => StLVF,
                    (Base::Double, 1) => StL1D,
                    (Base::Double, _) => StLVD,
                    (_, 1) => StL1I,
                    (b, w) => return Err(format!("vector store width {w} to local {b:?}")),
                };
                p = POp::new(kind, Slot::NONE);
                p.a = s(0);
                p.b = s(1);
                p.aux = *width;
                p.buf = *arr as u16;
            }
            OpKind::Select(_, a0, _) => {
                let dc = cls(dst.expect("select has dst"));
                let kind = match dc {
                    RegClass::Int => SelI,
                    RegClass::F32 => SelF,
                    RegClass::F64 => SelD,
                    RegClass::V32(_) => SelVF,
                    RegClass::V64(_) => SelVD,
                };
                if cls(*a0) != dc {
                    return Err("select arm class mismatch".into());
                }
                p = POp::new(kind, d_slot);
                p.a = s(1);
                p.b = s(2);
                p.c = s(0); // condition
            }
        }
        Ok(Some(p))
    }

    fn lower_term(&self, bi: usize, term: &Term) -> PTerm {
        match term {
            Term::Br(e) => PTerm::Br {
                to: e.to,
                copies: self.edge_copies(e),
            },
            Term::CondBr { cond, t, f } => PTerm::CondBr {
                cond: self.slot(*cond),
                t: t.to,
                f: f.to,
                t_copies: self.edge_copies(t),
                f_copies: self.edge_copies(f),
                join: self.joins[bi],
            },
            Term::Barrier { next, .. } => PTerm::Barrier {
                to: next.to,
                copies: self.edge_copies(next),
            },
            Term::Ret => PTerm::Ret,
        }
    }

    /// Block-argument moves for one edge, sequentialised so no copy
    /// clobbers a not-yet-read source; cycles break through the
    /// group's reserved scratch slot.
    fn edge_copies(&self, e: &Edge) -> Vec<POp> {
        let params = &self.f.blocks[e.to].params;
        let mut moves: Vec<(Slot, Slot)> = Vec::new();
        for (param, arg) in params.iter().zip(&e.args) {
            let a = self.rewrite(*arg, !self.uni[*param as usize]);
            let d = self.slot(*param);
            let s = self.slot(a);
            if d != s {
                moves.push((d, s));
            }
        }
        let mut out = Vec::with_capacity(moves.len());
        let cpy = |d: Slot, s: Slot| -> POp {
            let kind = match self.groups[d.group as usize].bank {
                Bank::I => PK::CpyI,
                Bank::F => PK::CpyF,
                Bank::D => PK::CpyD,
            };
            let mut p = POp::new(kind, d);
            p.a = s;
            p
        };
        while !moves.is_empty() {
            if let Some(i) = (0..moves.len()).find(|&i| {
                !moves
                    .iter()
                    .enumerate()
                    .any(|(j, m)| j != i && m.1 == moves[i].0)
            }) {
                let (d, s) = moves.remove(i);
                out.push(cpy(d, s));
            } else {
                // Cycle: stash one source in the scratch slot.
                let s0 = moves[0].1;
                let t = Slot {
                    group: s0.group,
                    slot: self.temps[s0.group as usize],
                };
                out.push(cpy(t, s0));
                for m in &mut moves {
                    if m.1 == s0 {
                        m.1 = t;
                    }
                }
            }
        }
        out
    }
}
