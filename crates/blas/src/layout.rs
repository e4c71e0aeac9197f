//! The packed matrix data layouts of Fig. 3.
//!
//! The fast kernel computes `C ← α·Aᵀ·B + β·C`, reading two packed
//! operands that are both stored with the reduction dimension `K` as the
//! *row* axis:
//!
//! * packed `Aᵀ` is a `K × M` matrix (element `(p, i)` multiplies into row
//!   `i` of `C`),
//! * packed `B` is a `K × N` matrix (element `(p, j)` multiplies into
//!   column `j` of `C`).
//!
//! A layout describes how such a `K × W` matrix, blocked with factors
//! `Wwg` (width direction) and `Kwg` (depth direction), is linearised in
//! the staging buffer:
//!
//! * [`BlockLayout::RowMajor`] — plain row-major, `off = p·W + w`
//!   (Fig. 3(a)).
//! * [`BlockLayout::Cbl`] — column-block-row-major: each `K × Wwg`
//!   column-block is stored contiguously in row-major order (Fig. 3(b)).
//! * [`BlockLayout::Rbl`] — row-block-row-major: each `Kwg × Wwg`
//!   sub-block of a `Kwg × W` row-block is stored contiguously in
//!   row-major order (Fig. 3(c)).
//!
//! The exact same arithmetic is emitted into the generated OpenCL kernels
//! by `clgemm::codegen`, and the integration tests pin the two
//! implementations against each other.

/// One of the three supported packed layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockLayout {
    /// Fig. 3(a): plain row-major.
    RowMajor,
    /// Fig. 3(b): column-block-row-major.
    Cbl,
    /// Fig. 3(c): row-block-row-major.
    Rbl,
}

impl BlockLayout {
    /// All layouts, in the order of Fig. 3.
    pub const ALL: [BlockLayout; 3] = [BlockLayout::RowMajor, BlockLayout::Cbl, BlockLayout::Rbl];

    /// Short tag used in parameter tables, matching the paper ("RM", "CBL",
    /// "RBL").
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            BlockLayout::RowMajor => "RM",
            BlockLayout::Cbl => "CBL",
            BlockLayout::Rbl => "RBL",
        }
    }

    /// `true` for the two block-major layouts (CBL/RBL), which the paper
    /// finds essential for performance on all tested processors.
    #[must_use]
    pub fn is_block_major(self) -> bool {
        !matches!(self, BlockLayout::RowMajor)
    }

    /// Flat offset of element `(p, w)` in a packed `k × width` matrix with
    /// blocking factors `wwg` (width) and `kwg` (depth).
    ///
    /// `width` must be a multiple of `wwg` and `k` of `kwg` (the packing
    /// step guarantees this by zero-padding).
    #[inline]
    #[must_use]
    pub fn offset(self, p: usize, w: usize, dims: PackedDims) -> usize {
        debug_assert!(
            p < dims.k && w < dims.width,
            "({p},{w}) out of {}x{}",
            dims.k,
            dims.width
        );
        match self {
            BlockLayout::RowMajor => p * dims.width + w,
            BlockLayout::Cbl => {
                let cb = w / dims.wwg;
                let wi = w % dims.wwg;
                cb * (dims.k * dims.wwg) + p * dims.wwg + wi
            }
            BlockLayout::Rbl => {
                let rb = p / dims.kwg;
                let pi = p % dims.kwg;
                let cb = w / dims.wwg;
                let wi = w % dims.wwg;
                rb * (dims.kwg * dims.width) + cb * (dims.kwg * dims.wwg) + pi * dims.wwg + wi
            }
        }
    }
}

impl std::fmt::Display for BlockLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

impl std::str::FromStr for BlockLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "RM" | "ROW" | "ROWMAJOR" => Ok(BlockLayout::RowMajor),
            "CBL" => Ok(BlockLayout::Cbl),
            "RBL" => Ok(BlockLayout::Rbl),
            other => Err(format!("unknown layout {other:?}; expected RM/CBL/RBL")),
        }
    }
}

/// Dimensions of a packed operand buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedDims {
    /// Padded depth (reduction) extent; a multiple of `kwg`.
    pub k: usize,
    /// Padded width extent (`M` for the A operand, `N` for B); a multiple
    /// of `wwg`.
    pub width: usize,
    /// Work-group blocking factor in the width direction (`Mwg` or `Nwg`).
    pub wwg: usize,
    /// Work-group blocking factor in the depth direction (`Kwg`).
    pub kwg: usize,
}

impl PackedDims {
    /// Construct, validating divisibility.
    ///
    /// # Errors
    /// Returns a message when the padded extents are not multiples of the
    /// blocking factors (which would make block-major offsets ill-defined).
    pub fn new(k: usize, width: usize, wwg: usize, kwg: usize) -> Result<Self, String> {
        if wwg == 0 || kwg == 0 {
            return Err(format!(
                "blocking factors must be positive (wwg={wwg}, kwg={kwg})"
            ));
        }
        if !width.is_multiple_of(wwg) {
            return Err(format!("padded width {width} not a multiple of wwg {wwg}"));
        }
        if !k.is_multiple_of(kwg) {
            return Err(format!("padded depth {k} not a multiple of kwg {kwg}"));
        }
        Ok(PackedDims { k, width, wwg, kwg })
    }

    /// Total number of elements in the packed buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.k * self.width
    }

    /// `true` when the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Round `n` up to the next multiple of `step` (the zero-padding rule of
/// §IV-B). `round_up(0, s) == 0`.
#[inline]
#[must_use]
pub fn round_up(n: usize, step: usize) -> usize {
    assert!(step > 0, "rounding step must be positive");
    n.div_ceil(step) * step
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(k: usize, w: usize, wwg: usize, kwg: usize) -> PackedDims {
        PackedDims::new(k, w, wwg, kwg).unwrap()
    }

    /// Every layout must be a bijection from (p, w) onto [0, k*width).
    fn assert_bijective(layout: BlockLayout, d: PackedDims) {
        let mut seen = vec![false; d.len()];
        for p in 0..d.k {
            for w in 0..d.width {
                let off = layout.offset(p, w, d);
                assert!(
                    off < d.len(),
                    "{layout:?} offset {off} out of range {}",
                    d.len()
                );
                assert!(
                    !seen[off],
                    "{layout:?} offset {off} hit twice (p={p}, w={w})"
                );
                seen[off] = true;
            }
        }
    }

    #[test]
    fn all_layouts_are_bijections() {
        let d = dims(12, 8, 4, 3);
        for layout in BlockLayout::ALL {
            assert_bijective(layout, d);
        }
    }

    #[test]
    fn row_major_matches_plain_formula() {
        let d = dims(6, 10, 5, 2);
        assert_eq!(BlockLayout::RowMajor.offset(3, 7, d), 3 * 10 + 7);
    }

    #[test]
    fn cbl_blocks_are_contiguous() {
        // In CBL the whole K x Wwg column-block occupies one contiguous
        // span of k*wwg elements.
        let d = dims(8, 12, 4, 2);
        let block = 1; // columns 4..8
        let base = BlockLayout::Cbl.offset(0, block * d.wwg, d);
        for p in 0..d.k {
            for wi in 0..d.wwg {
                let off = BlockLayout::Cbl.offset(p, block * d.wwg + wi, d);
                assert_eq!(off, base + p * d.wwg + wi);
            }
        }
    }

    #[test]
    fn rbl_subblocks_are_contiguous() {
        // In RBL each Kwg x Wwg sub-block occupies one contiguous span.
        let d = dims(9, 8, 4, 3);
        let (rb, cb) = (2, 1);
        let base = BlockLayout::Rbl.offset(rb * d.kwg, cb * d.wwg, d);
        for pi in 0..d.kwg {
            for wi in 0..d.wwg {
                let off = BlockLayout::Rbl.offset(rb * d.kwg + pi, cb * d.wwg + wi, d);
                assert_eq!(off, base + pi * d.wwg + wi);
            }
        }
    }

    #[test]
    fn packed_dims_validation() {
        assert!(PackedDims::new(8, 10, 4, 2).is_err()); // 10 % 4 != 0
        assert!(PackedDims::new(7, 8, 4, 2).is_err()); // 7 % 2 != 0
        assert!(PackedDims::new(8, 8, 0, 2).is_err());
        assert!(PackedDims::new(8, 8, 4, 2).is_ok());
    }

    #[test]
    fn round_up_behaviour() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
    }

    #[test]
    fn layout_tags_parse_back() {
        for layout in BlockLayout::ALL {
            let parsed: BlockLayout = layout.tag().parse().unwrap();
            assert_eq!(parsed, layout);
        }
        assert!("XYZ".parse::<BlockLayout>().is_err());
    }
}
