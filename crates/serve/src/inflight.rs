//! Content-addressed request identity and the idempotent result cache.
//!
//! Serving traffic repeats itself: retries, fan-in from replicated
//! callers, and periodic jobs all submit byte-identical GEMMs. Because
//! the routine layer is bit-exact — the same operands and kernel
//! parameters always produce the same `C` — identical requests are
//! *idempotent*, and executing each copy is pure waste. This module
//! gives every request a [`ContentKey`] (a hash of shape, transpose
//! type, scalars, and every input element's bit pattern) so the server
//! can run one representative and fan the result out, plus a small
//! bounded LRU [`ResultCache`] so repeats arriving *after* the original
//! completed are served without touching a device.
//!
//! Correctness argument: two requests with equal keys are treated as
//! the same computation. The key covers everything `TunedGemm` reads —
//! `op(A)`/`op(B)` selection, precision, `alpha`/`beta` bit patterns,
//! the dimensions and storage order of every operand, and all logical
//! elements of `A`, `B`, *and* `C` (`C` is live even at `beta == 0`,
//! because `0 · NaN` is NaN). Elements enter as their raw storage bits,
//! one storage line (a column of a column-major matrix, a row of a
//! row-major one) at a time, so `ld` padding — which the kernel never
//! reads — cannot split identical requests apart, while `-0.0` and
//! every NaN payload stay distinct from their look-alikes.
//!
//! The hash is built for speed, not proof: it must cost far less than
//! the GEMM it saves, so it reads a word at a time. Four independent
//! lanes each absorb two 64-bit words per round with one folded
//! multiply (the high and low halves of a 64×64→128-bit product,
//! xored), and the lanes fold into the 128-bit `(h1, h2)` at the end.
//! The seeds come from std's `RandomState` once per process, so keys
//! are only comparable within one process and are never persisted.
//! The argument assumes the operands do not depend on those seeds:
//! such inputs see each lane step as a random mixing of its 128 input
//! bits, so two different requests share a key with probability about
//! 2⁻¹²⁸, and the rare input that erases a lane's history (a word equal
//! to the lane's seed, which zeroes the product) turns up with
//! probability 2⁻⁶⁴ per word. A caller who could read the seeds could
//! craft collisions; keys are not a defence against adversarial
//! inputs. Even then a collision could only ever substitute one *served
//! result* for another of the same precision and shape, never corrupt
//! a batch.

use crate::request::{GemmPayload, GemmRequest};
use clgemm::params::KernelParams;
use clgemm::routine::GemmRun;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::Scalar;
use clgemm_blas::Trans;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::sync::OnceLock;

/// Content identity of a GEMM request: equal keys ⇒ the same
/// computation (same tuned kernel inputs, bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey {
    h1: u64,
    h2: u64,
    /// Total logical elements hashed, as a cheap length guard.
    elems: u64,
}

/// Independent multiply chains: enough multiplies in flight to hide
/// their latency.
const LANES: usize = 4;

/// Words one round absorbs: two per lane.
const BLOCK: usize = 2 * LANES;

/// This process's seeds: each lane's start value, each lane's mask for
/// its second operand, and four finishing masks.
fn seeds() -> &'static [u64; 2 * LANES + 4] {
    static SEEDS: OnceLock<[u64; 2 * LANES + 4]> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let state = RandomState::new();
        std::array::from_fn(|i| state.hash_one(i))
    })
}

/// The 128-bit product of `a` and `b` with its halves xored.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// One round: lane `l` absorbs words `2l` and `2l + 1` of a block read
/// through `word`. Each lane's result passes through `black_box`, which
/// keeps the four chains in general registers: left alone, LLVM
/// vectorises the four lanes' xors and moves the lane state between
/// vector and general registers around every multiply, at a third of
/// the throughput. The hashed value is the same either way.
#[inline]
fn round(lane: [u64; LANES], mask: [u64; LANES], word: impl Fn(usize) -> u64) -> [u64; LANES] {
    let [l0, l1, l2, l3] = lane;
    let [m0, m1, m2, m3] = mask;
    [
        black_box(fold_mul(word(0) ^ l0, word(1) ^ m0)),
        black_box(fold_mul(word(2) ^ l1, word(3) ^ m1)),
        black_box(fold_mul(word(4) ^ l2, word(5) ^ m2)),
        black_box(fold_mul(word(6) ^ l3, word(7) ^ m3)),
    ]
}

/// Storage scalars the key reads as raw bits, `PER_WORD` to a word.
trait Bits: Copy {
    const PER_WORD: usize;
    /// One word from `PER_WORD` elements (fewer only at a line's end).
    fn word(elems: &[Self]) -> u64;
    /// Word `i` of a block of exactly `BLOCK · PER_WORD` elements.
    fn block_word(elems: &[Self], i: usize) -> u64;
}

impl Bits for f64 {
    const PER_WORD: usize = 1;
    #[inline]
    fn word(elems: &[f64]) -> u64 {
        elems[0].to_bits()
    }
    #[inline]
    fn block_word(elems: &[f64], i: usize) -> u64 {
        elems[i].to_bits()
    }
}

impl Bits for f32 {
    const PER_WORD: usize = 2;
    #[inline]
    fn word(elems: &[f32]) -> u64 {
        elems
            .iter()
            .rev()
            .fold(0, |w, x| w << 32 | u64::from(x.to_bits()))
    }
    #[inline]
    fn block_word(elems: &[f32], i: usize) -> u64 {
        u64::from(elems[2 * i].to_bits()) | u64::from(elems[2 * i + 1].to_bits()) << 32
    }
}

/// The running hash: `LANES` folded-multiply chains fed a `BLOCK` of
/// words per round, plus the words still waiting for a full block.
struct Lanes {
    lane: [u64; LANES],
    mask: [u64; LANES],
    pending: [u64; BLOCK],
    fill: usize,
    words: u64,
}

impl Lanes {
    fn new() -> Lanes {
        let s = seeds();
        Lanes {
            lane: std::array::from_fn(|l| s[l]),
            mask: std::array::from_fn(|l| s[LANES + l]),
            pending: [0; BLOCK],
            fill: 0,
            words: 0,
        }
    }

    fn write(&mut self, word: u64) {
        self.pending[self.fill] = word;
        self.fill += 1;
        self.words += 1;
        if self.fill == BLOCK {
            self.fill = 0;
            self.lane = round(self.lane, self.mask, |i| self.pending[i]);
        }
    }

    /// Feed one storage line. Whole blocks go from the line straight
    /// to the lanes; only the ends pass through `pending`.
    fn write_line<T: Bits>(&mut self, line: &[T]) {
        let head = ((BLOCK - self.fill) % BLOCK * T::PER_WORD).min(line.len());
        let (head, body) = line.split_at(head);
        head.chunks(T::PER_WORD)
            .for_each(|w| self.write(T::word(w)));
        let mut blocks = body.chunks_exact(BLOCK * T::PER_WORD);
        let mut lanes = self.lane;
        for b in &mut blocks {
            lanes = round(lanes, self.mask, |i| T::block_word(b, i));
        }
        self.lane = lanes;
        self.words += (body.len() / (BLOCK * T::PER_WORD) * BLOCK) as u64;
        let tail = blocks.remainder();
        tail.chunks(T::PER_WORD)
            .for_each(|w| self.write(T::word(w)));
    }

    /// Absorb the zero-padded last block, then fold the lanes and the
    /// word count (which tells padding from real zero words) into 128
    /// bits.
    fn finish(mut self) -> (u64, u64) {
        if self.fill > 0 {
            self.pending[self.fill..].fill(0);
            self.lane = round(self.lane, self.mask, |i| self.pending[i]);
        }
        let f = &seeds()[2 * LANES..];
        let [a, b, c, d] = self.lane;
        let x = fold_mul(a ^ f[0], b ^ self.words);
        let y = fold_mul(c ^ f[1], d ^ f[2]);
        (fold_mul(x ^ f[3], y ^ f[0]), fold_mul(x ^ f[2], y ^ f[3]))
    }
}

fn trans_tag(t: Trans) -> u64 {
    match t {
        Trans::No => 0,
        Trans::Yes => 1,
    }
}

fn order_tag(o: StorageOrder) -> u64 {
    match o {
        StorageOrder::ColMajor => 0,
        StorageOrder::RowMajor => 1,
    }
}

/// Hash one operand: shape, storage order, then every storage line's
/// raw bits. Returns its logical element count.
fn hash_matrix<T: Scalar + Bits>(h: &mut Lanes, m: &Matrix<T>) -> u64 {
    h.write(m.rows() as u64);
    h.write(m.cols() as u64);
    h.write(order_tag(m.order()));
    m.lines().for_each(|line| h.write_line(line));
    (m.rows() * m.cols()) as u64
}

/// The content key of a request: one pass over the operands at a few
/// bytes per cycle, cheap next to even a 64³ GEMM.
#[must_use]
pub fn content_key(req: &GemmRequest) -> ContentKey {
    let mut h = Lanes::new();
    h.write(trans_tag(req.ty.ta));
    h.write(trans_tag(req.ty.tb));
    let elems = match &req.payload {
        GemmPayload::F64 {
            alpha,
            a,
            b,
            beta,
            c,
        } => {
            h.write(0); // precision tag
            h.write(alpha.to_bits());
            h.write(beta.to_bits());
            hash_matrix(&mut h, a) + hash_matrix(&mut h, b) + hash_matrix(&mut h, c)
        }
        GemmPayload::F32 {
            alpha,
            a,
            b,
            beta,
            c,
        } => {
            h.write(1);
            h.write(u64::from(alpha.to_bits()));
            h.write(u64::from(beta.to_bits()));
            hash_matrix(&mut h, a) + hash_matrix(&mut h, b) + hash_matrix(&mut h, c)
        }
    };
    let (h1, h2) = h.finish();
    ContentKey { h1, h2, elems }
}

/// Copy `src`'s logical elements into `dst`, line by line, leaving
/// `dst`'s leading dimension and `ld` padding as they were.
fn copy_logical<T: Scalar>(src: &Matrix<T>, dst: &mut Matrix<T>) {
    assert_eq!(
        (src.rows(), src.cols(), src.order()),
        (dst.rows(), dst.cols(), dst.order()),
        "content key includes the shape and order of C"
    );
    for (d, s) in dst.lines_mut().zip(src.lines()) {
        d.copy_from_slice(s);
    }
}

/// The result matrix a completed request produced, in its precision.
#[derive(Debug, Clone)]
pub enum CachedC {
    F64(Matrix<f64>),
    F32(Matrix<f32>),
}

impl CachedC {
    /// Capture the (already computed) `C` out of a served payload.
    #[must_use]
    pub fn capture(payload: &GemmPayload) -> CachedC {
        match payload {
            GemmPayload::F64 { c, .. } => CachedC::F64(c.clone()),
            GemmPayload::F32 { c, .. } => CachedC::F32(c.clone()),
        }
    }

    /// Copy the cached result's logical elements into a follower's own
    /// `C`, which keeps its leading dimension and untouched `ld`
    /// padding, exactly as if the follower had executed. Precision,
    /// shape and order always match because the content key pins them.
    pub fn write_into(&self, payload: &mut GemmPayload) {
        match (self, payload) {
            (CachedC::F64(src), GemmPayload::F64 { c, .. }) => copy_logical(src, c),
            (CachedC::F32(src), GemmPayload::F32 { c, .. }) => copy_logical(src, c),
            _ => unreachable!("content key includes precision"),
        }
    }
}

/// Everything needed to answer a duplicate request exactly as the
/// original was answered — device, parameters, modelled run, and the
/// result bits — so replaying the response still reproduces `C`.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Code name of the device that served the original.
    pub device: String,
    /// The kernel parameters the original executed with.
    pub params: KernelParams,
    /// Modelled timing of the original's share of its batch.
    pub run: GemmRun,
    /// Virtual time the original's batch drained.
    pub done_at: f64,
    /// The batch the original was grouped into.
    pub batch: u64,
    /// The computed result.
    pub c: CachedC,
}

/// A small LRU from [`ContentKey`] to the served result — the
/// cross-drain half of idempotent coalescing. Front is MRU.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: Vec<(ContentKey, CachedResult)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> ResultCache {
        assert!(capacity > 0, "result cache capacity must be positive");
        ResultCache {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up and touch: a hit moves the entry to the MRU position.
    pub fn get(&mut self, key: &ContentKey) -> Option<&CachedResult> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                self.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.insert(0, entry);
                Some(&self.entries[0].1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert at MRU, evicting the LRU entry when full. Replaces any
    /// existing entry for the key.
    pub fn insert(&mut self, key: ContentKey, result: CachedResult) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        self.entries.insert(0, (key, result));
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)` so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// The content key as it was computed while the lane rounds ran through
/// arrays, kept as the oracle [`content_key`] must match: the key must
/// stay the same function of the request.
#[cfg(test)]
mod oracle {
    use super::{fold_mul, order_tag, seeds, trans_tag, ContentKey, BLOCK, LANES};
    use crate::request::{GemmPayload, GemmRequest};
    use clgemm_blas::matrix::Matrix;
    use clgemm_blas::scalar::Scalar;

    fn round(lane: [u64; LANES], mask: [u64; LANES], block: [u64; BLOCK]) -> [u64; LANES] {
        std::array::from_fn(|l| fold_mul(block[2 * l] ^ lane[l], block[2 * l + 1] ^ mask[l]))
    }

    trait Bits: Copy {
        const PER_WORD: usize;
        fn word(elems: &[Self]) -> u64;
        fn block(elems: &[Self]) -> [u64; BLOCK];
    }

    impl Bits for f64 {
        const PER_WORD: usize = 1;
        fn word(elems: &[f64]) -> u64 {
            elems[0].to_bits()
        }
        fn block(elems: &[f64]) -> [u64; BLOCK] {
            let elems: &[f64; BLOCK] = elems.try_into().expect("one block");
            elems.map(f64::to_bits)
        }
    }

    impl Bits for f32 {
        const PER_WORD: usize = 2;
        fn word(elems: &[f32]) -> u64 {
            elems
                .iter()
                .rev()
                .fold(0, |w, x| w << 32 | u64::from(x.to_bits()))
        }
        fn block(elems: &[f32]) -> [u64; BLOCK] {
            let elems: &[f32; 2 * BLOCK] = elems.try_into().expect("one block");
            std::array::from_fn(|i| {
                u64::from(elems[2 * i].to_bits()) | u64::from(elems[2 * i + 1].to_bits()) << 32
            })
        }
    }

    struct Lanes {
        lane: [u64; LANES],
        mask: [u64; LANES],
        pending: [u64; BLOCK],
        fill: usize,
        words: u64,
    }

    impl Lanes {
        fn new() -> Lanes {
            let s = seeds();
            Lanes {
                lane: std::array::from_fn(|l| s[l]),
                mask: std::array::from_fn(|l| s[LANES + l]),
                pending: [0; BLOCK],
                fill: 0,
                words: 0,
            }
        }

        fn write(&mut self, word: u64) {
            self.pending[self.fill] = word;
            self.fill += 1;
            self.words += 1;
            if self.fill == BLOCK {
                self.fill = 0;
                self.lane = round(self.lane, self.mask, self.pending);
            }
        }

        fn write_line<T: Bits>(&mut self, line: &[T]) {
            let head = ((BLOCK - self.fill) % BLOCK * T::PER_WORD).min(line.len());
            let (head, body) = line.split_at(head);
            head.chunks(T::PER_WORD)
                .for_each(|w| self.write(T::word(w)));
            let mut blocks = body.chunks_exact(BLOCK * T::PER_WORD);
            let mut lanes = self.lane;
            for b in &mut blocks {
                lanes = round(lanes, self.mask, T::block(b));
            }
            self.lane = lanes;
            self.words += (body.len() / (BLOCK * T::PER_WORD) * BLOCK) as u64;
            let tail = blocks.remainder();
            tail.chunks(T::PER_WORD)
                .for_each(|w| self.write(T::word(w)));
        }

        fn finish(mut self) -> (u64, u64) {
            if self.fill > 0 {
                self.pending[self.fill..].fill(0);
                self.lane = round(self.lane, self.mask, self.pending);
            }
            let f = &seeds()[2 * LANES..];
            let [a, b, c, d] = self.lane;
            let x = fold_mul(a ^ f[0], b ^ self.words);
            let y = fold_mul(c ^ f[1], d ^ f[2]);
            (fold_mul(x ^ f[3], y ^ f[0]), fold_mul(x ^ f[2], y ^ f[3]))
        }
    }

    fn hash_matrix<T: Scalar + Bits>(h: &mut Lanes, m: &Matrix<T>) -> u64 {
        h.write(m.rows() as u64);
        h.write(m.cols() as u64);
        h.write(order_tag(m.order()));
        m.lines().for_each(|line| h.write_line(line));
        (m.rows() * m.cols()) as u64
    }

    pub(super) fn content_key(req: &GemmRequest) -> ContentKey {
        let mut h = Lanes::new();
        h.write(trans_tag(req.ty.ta));
        h.write(trans_tag(req.ty.tb));
        let elems = match &req.payload {
            GemmPayload::F64 {
                alpha,
                a,
                b,
                beta,
                c,
            } => {
                h.write(0);
                h.write(alpha.to_bits());
                h.write(beta.to_bits());
                hash_matrix(&mut h, a) + hash_matrix(&mut h, b) + hash_matrix(&mut h, c)
            }
            GemmPayload::F32 {
                alpha,
                a,
                b,
                beta,
                c,
            } => {
                h.write(1);
                h.write(u64::from(alpha.to_bits()));
                h.write(u64::from(beta.to_bits()));
                hash_matrix(&mut h, a) + hash_matrix(&mut h, b) + hash_matrix(&mut h, c)
            }
        };
        let (h1, h2) = h.finish();
        ContentKey { h1, h2, elems }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgemm_blas::GemmType;

    fn request(seed: u64, alpha: f64) -> GemmRequest {
        GemmRequest::new(
            GemmType::NN,
            GemmPayload::F64 {
                alpha,
                a: Matrix::test_pattern(24, 16, StorageOrder::ColMajor, seed),
                b: Matrix::test_pattern(16, 20, StorageOrder::ColMajor, seed + 1),
                beta: 0.0,
                c: Matrix::zeros(24, 20, StorageOrder::ColMajor),
            },
        )
    }

    #[test]
    fn identical_requests_share_a_key() {
        assert_eq!(content_key(&request(7, 1.0)), content_key(&request(7, 1.0)));
    }

    #[test]
    fn any_input_difference_changes_the_key() {
        let base = content_key(&request(7, 1.0));
        // Different input bytes.
        assert_ne!(base, content_key(&request(8, 1.0)));
        // Different scalar.
        assert_ne!(base, content_key(&request(7, 1.5)));
        // Different transpose type (same operand bytes).
        let mut transposed = request(7, 1.0);
        transposed.ty = GemmType::NT;
        if let GemmPayload::F64 { b, c, .. } = &mut transposed.payload {
            *b = Matrix::test_pattern(20, 16, StorageOrder::ColMajor, 8);
            *c = Matrix::zeros(24, 20, StorageOrder::ColMajor);
        }
        assert_ne!(base, content_key(&transposed));
        // Different C under beta != 0.
        let mut seeded_c = request(7, 1.0);
        if let GemmPayload::F64 { beta, c, .. } = &mut seeded_c.payload {
            *beta = 1.0;
            *c = Matrix::test_pattern(24, 20, StorageOrder::ColMajor, 3);
        }
        assert_ne!(base, content_key(&seeded_c));
    }

    #[test]
    fn precision_is_part_of_the_key() {
        let f32_req = GemmRequest::new(
            GemmType::NN,
            GemmPayload::F32 {
                alpha: 1.0,
                a: Matrix::test_pattern(24, 16, StorageOrder::ColMajor, 7),
                b: Matrix::test_pattern(16, 20, StorageOrder::ColMajor, 8),
                beta: 0.0,
                c: Matrix::zeros(24, 20, StorageOrder::ColMajor),
            },
        );
        assert_ne!(content_key(&request(7, 1.0)), content_key(&f32_req));
    }

    #[test]
    fn tenant_and_priority_do_not_split_the_key() {
        // Identity is *content*: scheduling metadata must not defeat
        // coalescing across tenants.
        let a = request(7, 1.0).with_tenant("alpha");
        let b = request(7, 1.0)
            .with_tenant("beta")
            .with_priority(crate::request::Priority::High);
        assert_eq!(content_key(&a), content_key(&b));
    }

    /// `m` stored with leading dimension `ld` and NaN in every gap.
    fn padded<T: Scalar>(m: &Matrix<T>, ld: usize, gap: T) -> Matrix<T> {
        let mut out = Matrix::zeros_with_ld(m.rows(), m.cols(), ld, m.order());
        out.as_mut_slice().fill(gap);
        for (d, s) in out.lines_mut().zip(m.lines()) {
            d.copy_from_slice(s);
        }
        out
    }

    fn nn(a: Matrix<f64>, b: Matrix<f64>, beta: f64, c: Matrix<f64>) -> GemmRequest {
        let payload = GemmPayload::F64 {
            alpha: 1.0,
            a,
            b,
            beta,
            c,
        };
        GemmRequest::new(GemmType::NN, payload)
    }

    fn nn32(a: Matrix<f32>, b: Matrix<f32>, beta: f32, c: Matrix<f32>) -> GemmRequest {
        let payload = GemmPayload::F32 {
            alpha: 1.0,
            a,
            b,
            beta,
            c,
        };
        GemmRequest::new(GemmType::NN, payload)
    }

    #[test]
    fn ld_and_gap_contents_do_not_split_the_key() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let (a, b, c) = (
                Matrix::<f64>::test_pattern(13, 9, order, 1),
                Matrix::<f64>::test_pattern(9, 11, order, 2),
                Matrix::<f64>::test_pattern(13, 11, order, 3),
            );
            let tight = content_key(&nn(a.clone(), b.clone(), 0.5, c.clone()));
            for (ld, gap) in [(17, f64::NAN), (29, -0.0), (40, f64::INFINITY)] {
                let loose = nn(
                    padded(&a, ld, gap),
                    padded(&b, ld, gap),
                    0.5,
                    padded(&c, ld, gap),
                );
                assert_eq!(content_key(&loose), tight, "{order:?} ld {ld}");
            }
            let (a, b, c) = (
                Matrix::<f32>::test_pattern(7, 5, order, 4),
                Matrix::<f32>::test_pattern(5, 3, order, 5),
                Matrix::<f32>::test_pattern(7, 3, order, 6),
            );
            let tight = content_key(&nn32(a.clone(), b.clone(), 0.0, c.clone()));
            for (ld, gap) in [(8, f32::NAN), (12, 1.0)] {
                let loose = nn32(
                    padded(&a, ld, gap),
                    padded(&b, ld, gap),
                    0.0,
                    padded(&c, ld, gap),
                );
                assert_eq!(content_key(&loose), tight, "{order:?} ld {ld}");
            }
        }
    }

    /// Every single-element change of A, B or C — at every position,
    /// with padded `ld` so lines straddle hash blocks — gives a key of
    /// its own.
    #[test]
    fn every_single_element_change_changes_the_key() {
        let quiet_nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let base_a = padded(
            &Matrix::test_pattern(5, 3, StorageOrder::ColMajor, 1),
            7,
            0.0,
        );
        let base_b = padded(
            &Matrix::test_pattern(3, 4, StorageOrder::RowMajor, 2),
            6,
            0.0,
        );
        let mut base_c = padded(
            &Matrix::test_pattern(5, 4, StorageOrder::ColMajor, 3),
            5,
            0.0,
        );
        *base_c.at_mut(4, 3) = 0.0;
        *base_c.at_mut(0, 0) = quiet_nan(1);
        let base = nn(base_a.clone(), base_b.clone(), 0.0, base_c.clone());
        let mut keys = vec![content_key(&base)];
        for operand in 0..3 {
            let (rows, cols) = [(5, 3), (3, 4), (5, 4)][operand];
            for j in 0..cols {
                for i in 0..rows {
                    let mut req = base.clone();
                    let GemmPayload::F64 { a, b, c, .. } = &mut req.payload else {
                        unreachable!()
                    };
                    let m = [a, b, c].into_iter().nth(operand).expect("three operands");
                    let v = m.at(i, j);
                    *m.at_mut(i, j) = if v.is_nan() { 0.5 } else { v + 0.25 };
                    keys.push(content_key(&req));
                }
            }
        }
        // +0.0 → −0.0, and one quiet-NaN payload → another, in C (live
        // even at beta = 0).
        let mut signed_zero = base.clone();
        let mut other_nan = base.clone();
        if let GemmPayload::F64 { c, .. } = &mut signed_zero.payload {
            *c.at_mut(4, 3) = -0.0;
        }
        if let GemmPayload::F64 { c, .. } = &mut other_nan.payload {
            *c.at_mut(0, 0) = quiet_nan(2);
        }
        keys.push(content_key(&signed_zero));
        keys.push(content_key(&other_nan));
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(
            distinct.len(),
            keys.len(),
            "{} keys, {} distinct",
            keys.len(),
            distinct.len()
        );

        // The same in single precision, where two elements share a word.
        let a = padded(
            &Matrix::<f32>::test_pattern(5, 3, StorageOrder::ColMajor, 1),
            6,
            0.0,
        );
        let base = nn32(
            a,
            Matrix::zeros(3, 2, StorageOrder::ColMajor),
            0.0,
            Matrix::zeros(5, 2, StorageOrder::ColMajor),
        );
        let mut keys = vec![content_key(&base)];
        for j in 0..3 {
            for i in 0..5 {
                let mut req = base.clone();
                if let GemmPayload::F32 { a, .. } = &mut req.payload {
                    *a.at_mut(i, j) = -a.at(i, j);
                }
                keys.push(content_key(&req));
            }
        }
        let mut signed_zero = base.clone();
        if let GemmPayload::F32 { c, .. } = &mut signed_zero.payload {
            *c.at_mut(4, 1) = -0.0;
        }
        keys.push(content_key(&signed_zero));
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }

    #[test]
    fn storage_order_stays_part_of_the_key() {
        let col = |seed| Matrix::<f64>::test_pattern(6, 6, StorageOrder::ColMajor, seed);
        let row = |seed| col(seed).to_order(StorageOrder::RowMajor);
        let c = Matrix::zeros(6, 6, StorageOrder::ColMajor);
        let by_cols = content_key(&nn(col(1), col(2), 0.0, c.clone()));
        assert_ne!(by_cols, content_key(&nn(row(1), col(2), 0.0, c.clone())));
        assert_ne!(by_cols, content_key(&nn(col(1), row(2), 0.0, c)));
    }

    #[test]
    fn write_into_keeps_the_followers_layout() {
        let src = Matrix::test_pattern(6, 5, StorageOrder::ColMajor, 9);
        let cached = CachedC::F64(src.clone());
        let mut payload = GemmPayload::F64 {
            alpha: 1.0,
            a: Matrix::zeros(6, 4, StorageOrder::ColMajor),
            b: Matrix::zeros(4, 5, StorageOrder::ColMajor),
            beta: 0.0,
            c: padded(&Matrix::zeros(6, 5, StorageOrder::ColMajor), 9, f64::NAN),
        };
        cached.write_into(&mut payload);
        let GemmPayload::F64 { c, .. } = payload else {
            unreachable!()
        };
        assert_eq!(c.ld(), 9);
        for (got, want) in c.lines().zip(src.lines()) {
            assert_eq!(got, want);
        }
        let gaps = c.as_slice().iter().filter(|v| v.is_nan()).count();
        assert_eq!(gaps, 9 * 5 - 6 * 5, "ld gaps untouched");
    }

    fn cached(tag: f64) -> CachedResult {
        CachedResult {
            device: "Tahiti".into(),
            params: clgemm::params::small_test_params(clgemm_blas::scalar::Precision::F64),
            run: GemmRun::empty(),
            done_at: tag,
            batch: 0,
            c: CachedC::F64(Matrix::zeros(1, 1, StorageOrder::ColMajor)),
        }
    }

    #[test]
    fn result_cache_is_lru_with_counters() {
        let k = |s| content_key(&request(s, 1.0));
        let mut cache = ResultCache::new(2);
        cache.insert(k(1), cached(1.0));
        cache.insert(k(2), cached(2.0));
        assert!(cache.get(&k(1)).is_some(), "touch 1 so 2 becomes LRU");
        cache.insert(k(3), cached(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k(2)).is_none(), "2 was LRU and must go");
        assert!(cache.get(&k(3)).is_some());
        assert_eq!(cache.counters(), (2, 1, 1));
    }

    #[test]
    fn cached_c_round_trips_into_a_payload() {
        let src = Matrix::test_pattern(6, 5, StorageOrder::ColMajor, 9);
        let cached = CachedC::F64(src.clone());
        let mut payload = GemmPayload::F64 {
            alpha: 1.0,
            a: Matrix::zeros(6, 4, StorageOrder::ColMajor),
            b: Matrix::zeros(4, 5, StorageOrder::ColMajor),
            beta: 0.0,
            c: Matrix::zeros(6, 5, StorageOrder::ColMajor),
        };
        cached.write_into(&mut payload);
        let GemmPayload::F64 { c, .. } = payload else {
            unreachable!()
        };
        assert_eq!(c.as_slice(), src.as_slice(), "bit-identical copy");
    }
    #[test]
    fn keys_match_the_array_round_oracle() {
        // Random operands of both precisions, both storage orders, padded
        // and tight leading dimensions, and edges that leave partial
        // blocks at the ends of lines and of the key.
        let mut rng = clgemm_shim::rng::Rng::new(0x5EED);
        for case in 0..200 {
            let dim = |rng: &mut clgemm_shim::rng::Rng| rng.range(1, 40);
            let (m, n, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
            let order = |rng: &mut clgemm_shim::rng::Rng| {
                if rng.bool() {
                    StorageOrder::ColMajor
                } else {
                    StorageOrder::RowMajor
                }
            };
            let (oa, ob, oc) = (order(&mut rng), order(&mut rng), order(&mut rng));
            let pad = rng.range(0, 5);
            let mut rand = |rows: usize, cols: usize, o: StorageOrder| {
                let minor = if o == StorageOrder::ColMajor {
                    rows
                } else {
                    cols
                };
                let mut x = Matrix::<f64>::zeros_with_ld(rows, cols, minor + pad, o);
                x.as_mut_slice()
                    .iter_mut()
                    .for_each(|v| *v = f64::from_bits(rng.next_u64()));
                x
            };
            let (a, b, c) = (rand(m, k, oa), rand(k, n, ob), rand(m, n, oc));
            let ty = GemmType::ALL[case % 4];
            let (a, b) = (
                if ty.ta == Trans::Yes {
                    transpose_dims(&a)
                } else {
                    a
                },
                if ty.tb == Trans::Yes {
                    transpose_dims(&b)
                } else {
                    b
                },
            );
            let alpha = f64::from_bits(rng.next_u64());
            let req = GemmRequest::new(
                ty,
                GemmPayload::F64 {
                    alpha,
                    a: a.clone(),
                    b: b.clone(),
                    beta: 0.5,
                    c: c.clone(),
                },
            );
            assert_eq!(
                content_key(&req),
                oracle::content_key(&req),
                "f64 case {case}"
            );
            let narrow = |x: &Matrix<f64>| {
                Matrix::<f32>::from_fn(x.rows(), x.cols(), x.order(), |i, j| x.at(i, j) as f32)
            };
            let req = GemmRequest::new(
                ty,
                GemmPayload::F32 {
                    alpha: alpha as f32,
                    a: padded(&narrow(&a), a.ld() + 1, f32::NAN),
                    b: narrow(&b),
                    beta: -0.0,
                    c: padded(&narrow(&c), c.ld(), 1.0),
                },
            );
            assert_eq!(
                content_key(&req),
                oracle::content_key(&req),
                "f32 case {case}"
            );
        }
    }

    /// The same elements seen as the transposed operand's storage.
    fn transpose_dims(x: &Matrix<f64>) -> Matrix<f64> {
        Matrix::from_fn(x.cols(), x.rows(), x.order(), |i, j| x.at(j, i))
    }
}
