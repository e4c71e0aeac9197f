//! Racy-kernel suite for the compiled engine's race-freedom proofs.
//!
//! The compiled clc engine skips race-table records that a compile-time
//! proof shows can never matter: loads from buffers no store targets,
//! and local loads in barrier phases that store nothing to their array.
//! Each kernel here races in a way those proofs must not hide, and must
//! fail its launch with the reference interpreter's error class (and,
//! for same-group local races, where attribution is deterministic, its
//! exact message). Each has a race-free twin that must pass on both
//! engines with equal `DynStats` and bit-identical buffers. A coverage
//! test then checks that the proofs do fire on the paper's kernels.

use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::direct::{generate_direct, DirectParams, DIRECT_KERNEL_NAME};
use clgemm::paper_params::all_winners;
use clgemm_blas::scalar::Precision;
use clgemm_blas::GemmType;
use clgemm_clc::ir::trace::RaceProofs;
use clgemm_clc::{Arg, BufData, ExecOptions, NdRange, Program, RuntimeError};

/// Which race a racy kernel has.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Race {
    /// Between work-groups, on a global buffer: which pair of groups is
    /// reported depends on the parallel schedule.
    Global,
    /// Between work-items of one group, on a local array: both engines
    /// report the same cell and pair.
    Local,
}

/// One hand-written case: a racy kernel and its race-free twin, run
/// with the same arguments.
struct Case {
    what: &'static str,
    racy: &'static str,
    twin: &'static str,
    nd: NdRange,
    args: &'static [Arg],
    bufs: fn() -> Vec<BufData>,
    /// The twin's buffers, when they differ from the racy kernel's.
    twin_bufs: Option<fn() -> Vec<BufData>>,
    race: Race,
    /// Per buffer parameter, in both kernels: no store targets it.
    read_only: &'static [bool],
}

fn f64s(n: usize) -> Vec<BufData> {
    vec![BufData::F64((0..n).map(|i| i as f64 * 0.5).collect())]
}

fn two_f64s(n: usize) -> Vec<BufData> {
    let mut b = f64s(n);
    b.push(BufData::F64(vec![0.0; n]));
    b
}

fn fails_as(race: Race, e: &RuntimeError) -> bool {
    match race {
        Race::Global => matches!(e, RuntimeError::GlobalRace { .. }),
        Race::Local => matches!(e, RuntimeError::LocalRace { .. }),
    }
}

/// `c[(int)a[i]] = i` with `a` a permutation of `0..8`, except that
/// `a[1] == a[6] == 6` in the racy run: work-items of groups 0 and 3
/// store the same cell.
fn data_index_bufs() -> Vec<BufData> {
    vec![
        BufData::F64(vec![0.0, 6.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        BufData::F64(vec![0.0; 8]),
    ]
}

fn permutation_bufs() -> Vec<BufData> {
    vec![
        BufData::F64(vec![7.0, 1.0, 5.0, 3.0, 4.0, 2.0, 6.0, 0.0]),
        BufData::F64(vec![0.0; 8]),
    ]
}

/// Both groups read `y[1]`; group 1 then writes it.
const READ_THEN_WRITE: &str = r"__kernel void k(__global double* y, __global double* z) {
    int g = get_group_id(0);
    double x = y[1];
    z[g] = x;
    if (g == 1) { y[1] = x + 1.0; }
}";

/// Both groups read `y[1]`; group 0 then writes it.
const READ_THEN_WRITE_MIRROR: &str = r"__kernel void k(__global double* y, __global double* z) {
    int g = get_group_id(0);
    double x = y[1];
    z[g] = x;
    if (g == 0) { y[1] = x + 1.0; }
}";

/// Both groups read `y[1]` and nobody writes it; group 1 writes a cell
/// no other group touches, so `y` stays tracked.
const READS_FROM_TWO_GROUPS: &str = r"__kernel void k(__global double* y, __global double* z) {
    int g = get_group_id(0);
    double x = y[1];
    z[g] = x;
    if (g == 1) { y[2] = x + 1.0; }
}";

fn cases() -> Vec<Case> {
    vec![
        Case {
            what: "inter-group write/write on one global cell",
            racy: r"__kernel void k(__global double* y) {
                y[0] = (double)get_global_id(0);
            }",
            twin: r"__kernel void k(__global double* y) {
                y[get_global_id(0)] = (double)get_global_id(0);
            }",
            nd: NdRange::d1(8, 2),
            args: &[Arg::Buf(0)],
            bufs: || f64s(8),
            twin_bufs: None,
            race: Race::Global,
            read_only: &[false],
        },
        Case {
            // Group 0 stores y[0] and never reads it; every other group
            // reads it, so whichever order the groups run in, one side
            // finds the other's mark.
            what: "inter-group read/write of one global cell",
            racy: r"__kernel void k(__global double* y) {
                int i = get_global_id(0);
                double x = 1.0;
                if (get_group_id(0) != 0) { x = y[0]; }
                y[i] = x + 1.0;
            }",
            twin: r"__kernel void k(__global double* y) {
                int i = get_global_id(0);
                double x = 1.0;
                if (get_group_id(0) != 0) { x = y[i]; }
                y[i] = x + 1.0;
            }",
            nd: NdRange::d1(8, 2),
            args: &[Arg::Buf(0)],
            bufs: || f64s(8),
            twin_bufs: None,
            race: Race::Global,
            read_only: &[false],
        },
        Case {
            // Group 1's own read of y[1] used to overwrite group 0's
            // reader mark, so its write passed whenever group 0 read
            // first.
            what: "a group that reads and then writes a cell another group read",
            racy: READ_THEN_WRITE,
            twin: READS_FROM_TWO_GROUPS,
            nd: NdRange::d1(2, 1),
            args: &[Arg::Buf(0), Arg::Buf(1)],
            bufs: || two_f64s(4),
            twin_bufs: None,
            race: Race::Global,
            read_only: &[false, false],
        },
        Case {
            what: "the same race with the groups' roles swapped",
            racy: READ_THEN_WRITE_MIRROR,
            twin: READS_FROM_TWO_GROUPS,
            nd: NdRange::d1(2, 1),
            args: &[Arg::Buf(0), Arg::Buf(1)],
            bufs: || two_f64s(4),
            twin_bufs: None,
            race: Race::Global,
            read_only: &[false, false],
        },
        Case {
            what: "store through a data-dependent index two groups share",
            racy: r"__kernel void k(__global const double* a, __global double* c) {
                int i = get_global_id(0);
                c[(int)a[i]] = (double)i;
            }",
            twin: r"__kernel void k(__global const double* a, __global double* c) {
                int i = get_global_id(0);
                c[(int)a[i]] = (double)i;
            }",
            nd: NdRange::d1(8, 2),
            args: &[Arg::Buf(0), Arg::Buf(1)],
            bufs: data_index_bufs,
            twin_bufs: Some(permutation_bufs),
            race: Race::Global,
            read_only: &[true, false],
        },
        Case {
            // y's only store is in a branch group 1 alone takes, so a
            // read-only proof taken over the paths most groups run
            // would miss it.
            what: "a store in a branch one group takes, read by the others",
            racy: r"__kernel void k(__global double* y, __global double* z) {
                int i = get_global_id(0);
                if (get_group_id(0) == 1) { y[0] = 2.0; }
                z[i] = y[0];
            }",
            twin: r"__kernel void k(__global double* y, __global double* z) {
                int i = get_global_id(0);
                if (get_group_id(0) == 1) { y[i] = 2.0; }
                z[i] = y[i];
            }",
            nd: NdRange::d1(8, 2),
            args: &[Arg::Buf(0), Arg::Buf(1)],
            bufs: || two_f64s(8),
            twin_bufs: None,
            race: Race::Global,
            read_only: &[false, false],
        },
        Case {
            // The uniform branch puts the store and the load in
            // different blocks of one barrier-free region.
            what: "same-phase local write/read across two blocks",
            racy: r"__kernel void k(__global double* y, int n) {
                __local double buf[4];
                int l = get_local_id(0);
                buf[l] = (double)l;
                double x = 0.0;
                if (n > 0) { x = 1.0; }
                x = x + buf[(l + 1) % 4];
                barrier(1);
                y[get_global_id(0)] = x;
            }",
            twin: r"__kernel void k(__global double* y, int n) {
                __local double buf[4];
                int l = get_local_id(0);
                buf[l] = (double)l;
                barrier(1);
                double x = 0.0;
                if (n > 0) { x = 1.0; }
                x = x + buf[(l + 1) % 4];
                y[get_global_id(0)] = x;
            }",
            nd: NdRange::d1(4, 4),
            args: &[Arg::Buf(0), Arg::I32(3)],
            bufs: || f64s(4),
            twin_bufs: None,
            race: Race::Local,
            read_only: &[false],
        },
        Case {
            // The load's block ends in the barrier and holds no store;
            // only the loop's back edge joins it to the store's phase:
            // iteration i's store and iteration i + 1's load share one.
            what: "a loop back edge carrying a local load into the next iteration's store",
            racy: r"__kernel void k(__global double* y, int n) {
                __local double buf[4];
                int l = get_local_id(0);
                double x = 0.0;
                for (int i = 0; i < n; i = i + 1) {
                    x = x + buf[(l + 1) % 4];
                    barrier(1);
                    buf[l] = x + (double)l;
                }
                y[get_global_id(0)] = x;
            }",
            twin: r"__kernel void k(__global double* y, int n) {
                __local double buf[4];
                int l = get_local_id(0);
                double x = 0.0;
                for (int i = 0; i < n; i = i + 1) {
                    x = x + buf[(l + 1) % 4];
                    barrier(1);
                    buf[l] = x + (double)l;
                    barrier(1);
                }
                y[get_global_id(0)] = x;
            }",
            nd: NdRange::d1(4, 4),
            args: &[Arg::Buf(0), Arg::I32(3)],
            bufs: || f64s(4),
            twin_bufs: None,
            race: Race::Local,
            read_only: &[false],
        },
    ]
}

/// Exact bit pattern of a buffer.
fn bits(b: &BufData) -> Vec<u64> {
    match b {
        BufData::F32(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        BufData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        BufData::I32(v) => v.iter().map(|x| *x as u32 as u64).collect(),
    }
}

fn proofs(src: &str) -> (Program, RaceProofs) {
    let prog = Program::compile(src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    let kernel = prog.kernel("k").expect("kernel present");
    let p = kernel
        .race_proofs()
        .unwrap_or_else(|| panic!("declined: {:?}\n{src}", kernel.compiled().trace_decline));
    (prog, p)
}

#[test]
fn racy_kernels_fail_on_both_engines() {
    // Every case runs, so a failure lists all the races that slipped.
    let mut wrong = Vec::new();
    for c in cases() {
        let (prog, _) = proofs(c.racy);
        let kernel = prog.kernel("k").unwrap();
        let [compiled, reference] =
            [ExecOptions::default(), ExecOptions::reference()].map(|opts| {
                let mut bufs = (c.bufs)();
                kernel.launch(c.nd, c.args, &mut bufs, &opts)
            });
        let ok = match (&compiled, &reference) {
            (Err(ce), Err(re)) => {
                fails_as(c.race, ce)
                    && fails_as(c.race, re)
                    && (c.race == Race::Global || ce.to_string() == re.to_string())
            }
            _ => false,
        };
        if !ok {
            wrong.push(format!(
                "{}: compiled {compiled:?} / reference {reference:?}",
                c.what
            ));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
fn race_free_twins_agree_on_both_engines() {
    for c in cases() {
        let (prog, _) = proofs(c.twin);
        let kernel = prog.kernel("k").unwrap();
        let bufs = c.twin_bufs.unwrap_or(c.bufs)();
        let [(cs, cb), (rs, rb)] = [ExecOptions::default(), ExecOptions::reference()].map(|opts| {
            let mut b = bufs.clone();
            let s = kernel
                .launch(c.nd, c.args, &mut b, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", c.what));
            (s, b)
        });
        assert_eq!(cs, rs, "{}: DynStats diverged", c.what);
        for (i, (x, y)) in cb.iter().zip(&rb).enumerate() {
            assert_eq!(bits(x), bits(y), "{}: buffer {i} not bit-identical", c.what);
        }
    }
}

/// A cell two groups read and one of them then writes is a race in every
/// schedule: the parallel engines run the two groups in either order
/// from launch to launch, and each launch must fail, naming two distinct
/// groups; the reads-only twin must pass every time.
#[test]
fn read_then_write_races_fail_in_every_schedule() {
    for opts in [ExecOptions::default(), ExecOptions::reference()] {
        for src in [
            READ_THEN_WRITE,
            READ_THEN_WRITE_MIRROR,
            READS_FROM_TWO_GROUPS,
        ] {
            let prog = Program::compile(src).expect("compiles");
            let kernel = prog.kernel("k").expect("kernel present");
            for launch in 0..64 {
                let mut bufs = two_f64s(4);
                let got = kernel.launch(
                    NdRange::d1(2, 1),
                    &[Arg::Buf(0), Arg::Buf(1)],
                    &mut bufs,
                    &opts,
                );
                match (src == READS_FROM_TWO_GROUPS, got) {
                    (true, Ok(_)) => {}
                    (false, Err(RuntimeError::GlobalRace { group, other, .. })) => {
                        assert_ne!(group, other, "launch {launch}: {src}");
                    }
                    (_, got) => panic!("launch {launch}: {got:?}\n{src}"),
                }
            }
        }
    }
}

/// The racy kernels keep every record their race needs; the local
/// twins show the phase proof firing once a barrier splits the phase.
#[test]
fn racy_accesses_stay_tracked() {
    for c in cases() {
        let (_, racy) = proofs(c.racy);
        let (_, twin) = proofs(c.twin);
        for p in [&racy, &twin] {
            assert_eq!(p.read_only, c.read_only, "{}", c.what);
            assert_eq!(
                p.global_stores.proved + p.local_stores.proved,
                0,
                "{}",
                c.what
            );
        }
        // Only loads from read-only buffers are proved.
        let read_only_loads = usize::from(c.read_only.contains(&true));
        assert_eq!(racy.global_loads.proved, read_only_loads, "{}", c.what);
        if c.race == Race::Local {
            assert_eq!(racy.local_loads.proved, 0, "{}", c.what);
            assert!(racy.local_loads.tracked > 0, "{}", c.what);
            assert_eq!(twin.local_loads.tracked, 0, "{}", c.what);
            assert!(twin.local_loads.proved > 0, "{}", c.what);
        }
    }
}

/// The paper's kernels: the 12 Table II winners and the direct kernel
/// for every GEMM type and precision. A and B are read-only and every
/// local load is phase-proved; C and the local stores stay tracked.
#[test]
fn proofs_cover_the_paper_kernels() {
    let mut kernels: Vec<(String, String, &str)> = all_winners()
        .into_iter()
        .map(|e| {
            let gen = generate(&e.params).expect("winner generates");
            (
                format!("{:?} {}", e.device, e.params.describe()),
                gen.source,
                KERNEL_NAME,
            )
        })
        .collect();
    for ty in GemmType::ALL {
        for precision in [Precision::F32, Precision::F64] {
            let gen = generate_direct(&DirectParams::default_for(ty, precision))
                .expect("direct kernel generates");
            kernels.push((
                format!("direct {ty:?} {precision:?}"),
                gen.source,
                DIRECT_KERNEL_NAME,
            ));
        }
    }
    assert_eq!(kernels.len(), 12 + 8);
    for (what, src, name) in &kernels {
        let prog = Program::compile(src).unwrap_or_else(|e| panic!("{what}: {e}"));
        let kernel = prog.kernel(name).expect("kernel present");
        let p = kernel
            .race_proofs()
            .unwrap_or_else(|| panic!("{what}: declined"));
        assert_eq!(
            p.read_only,
            [true, true, false],
            "{what}: A, B read-only; C stored"
        );
        assert!(p.global_loads.proved > 0, "{what}: {p:?}");
        assert!(
            p.global_stores.tracked > 0 && p.global_stores.proved == 0,
            "{what}: {p:?}"
        );
        assert_eq!(p.local_loads.tracked, 0, "{what}: {p:?}");
        assert_eq!(p.local_stores.proved, 0, "{what}: {p:?}");
        assert_eq!(
            p.local_loads.proved > 0,
            p.local_stores.tracked > 0,
            "{what}: local loads and stores come together: {p:?}"
        );
    }
}
