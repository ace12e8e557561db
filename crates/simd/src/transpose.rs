//! Slice-level transpose helpers built on the in-register tile transpose.
//!
//! Two users:
//!
//! 1. The *local transpose layout* (paper §2.2): every aligned
//!    `vl*vl`-element sub-sequence of a 1D buffer is viewed as a `vl x vl`
//!    row-major matrix and transposed in place — performed once before and
//!    once after a sweep ([`transpose_blocks_in_place`]).
//! 2. The *DLT baseline* (global dimension-lifting) uses the same register
//!    tile as the inner kernel of a blocked out-of-place matrix transpose
//!    ([`transpose_rect`]).

use crate::vector::SimdF64;

/// Transpose one `vl x vl` tile held contiguously (row-major) at `buf`.
///
/// `buf.len()` must be exactly `V::LANES * V::LANES`.
#[inline(always)]
pub fn transpose_tile_in_place<V: SimdF64>(buf: &mut [f64]) {
    let vl = V::LANES;
    assert_eq!(buf.len(), vl * vl, "tile must be vl*vl elements");
    // Small stack set: LANES is 1, 2, 4 or 8.
    let mut set = [V::zero(); 8];
    let set = &mut set[..vl];
    for (r, v) in set.iter_mut().enumerate() {
        *v = V::from_slice(&buf[r * vl..]);
    }
    V::transpose(set);
    for (r, v) in set.iter().enumerate() {
        v.write_to_slice(&mut buf[r * vl..]);
    }
}

/// Apply the local transpose layout to a whole buffer: each consecutive
/// `vl*vl` block is transposed in place. `buf.len()` must be a multiple of
/// `vl*vl`. The transform is an involution: applying it twice restores the
/// original layout.
#[inline(always)]
pub fn transpose_blocks_in_place<V: SimdF64>(buf: &mut [f64]) {
    let tile = V::LANES * V::LANES;
    assert_eq!(
        buf.len() % tile,
        0,
        "buffer length {} not a multiple of vl*vl = {}",
        buf.len(),
        tile
    );
    for chunk in buf.chunks_exact_mut(tile) {
        transpose_tile_in_place::<V>(chunk);
    }
}

/// Out-of-place rectangular transpose: `dst[c*rows + r] = src[r*cols + c]`.
///
/// Blocked over `vl x vl` register tiles for the aligned interior, with a
/// scalar cleanup loop for ragged edges. This is the global transform the
/// DLT baseline performs before and after its sweeps.
#[inline(always)]
pub fn transpose_rect<V: SimdF64>(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    let vl = V::LANES;
    let rb = rows - rows % vl;
    let cb = cols - cols % vl;
    let mut set = [V::zero(); 8];
    for r0 in (0..rb).step_by(vl) {
        for c0 in (0..cb).step_by(vl) {
            let set = &mut set[..vl];
            for (i, v) in set.iter_mut().enumerate() {
                *v = V::from_slice(&src[(r0 + i) * cols + c0..]);
            }
            V::transpose(set);
            for (i, v) in set.iter().enumerate() {
                v.write_to_slice(&mut dst[(c0 + i) * rows + r0..]);
            }
        }
        // ragged columns
        for c in cb..cols {
            for i in 0..vl {
                dst[c * rows + r0 + i] = src[(r0 + i) * cols + c];
            }
        }
    }
    // ragged rows
    for r in rb..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Scalar reference transpose for testing.
pub fn transpose_rect_scalar(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Index mapping of the local transpose layout: where element `i` of the
/// original buffer lives after [`transpose_blocks_in_place`] with `vl` lanes.
#[inline]
pub fn transpose_layout_index(i: usize, vl: usize) -> usize {
    let tile = vl * vl;
    let base = i / tile * tile;
    let off = i % tile;
    let (r, c) = (off / vl, off % vl);
    base + c * vl + r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::{PF64x4, PF64x8};

    #[test]
    fn tile_4x4() {
        let mut buf: Vec<f64> = (0..16).map(|x| x as f64).collect();
        transpose_tile_in_place::<PF64x4>(&mut buf);
        let expect: Vec<f64> = vec![
            0.0, 4.0, 8.0, 12.0, 1.0, 5.0, 9.0, 13.0, 2.0, 6.0, 10.0, 14.0, 3.0, 7.0, 11.0, 15.0,
        ];
        assert_eq!(buf, expect);
    }

    #[test]
    fn blocks_involution() {
        let orig: Vec<f64> = (0..160).map(|x| x as f64 * 0.5).collect();
        let mut buf = orig.clone();
        transpose_blocks_in_place::<PF64x4>(&mut buf);
        assert_ne!(buf, orig);
        transpose_blocks_in_place::<PF64x4>(&mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn blocks_match_index_map() {
        let n = 64;
        let orig: Vec<f64> = (0..n).map(|x| x as f64).collect();
        let mut buf = orig.clone();
        transpose_blocks_in_place::<PF64x8>(&mut buf);
        for i in 0..n {
            assert_eq!(buf[transpose_layout_index(i, 8)], orig[i]);
        }
    }

    #[test]
    fn rect_matches_scalar() {
        for (rows, cols) in [(8, 8), (12, 20), (7, 9), (16, 5), (1, 13)] {
            let src: Vec<f64> = (0..rows * cols).map(|x| x as f64).collect();
            let mut a = vec![0.0; rows * cols];
            let mut b = vec![0.0; rows * cols];
            transpose_rect::<PF64x4>(&src, &mut a, rows, cols);
            transpose_rect_scalar(&src, &mut b, rows, cols);
            assert_eq!(a, b, "rows={rows} cols={cols}");
        }
    }

    #[test]
    fn index_map_is_involution() {
        for vl in [2usize, 4, 8] {
            for i in 0..4 * vl * vl {
                assert_eq!(transpose_layout_index(transpose_layout_index(i, vl), vl), i);
            }
        }
    }
}
