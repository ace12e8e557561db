//! Lane-generic `f64` SIMD vector trait.
//!
//! Stencil kernels in `stencil-core` are written once against [`SimdF64`]
//! and monomorphized per backend. The trait deliberately exposes only the
//! operations the paper's schemes need: arithmetic (+ FMA), the lane
//! shuffles used to build *assembled vectors* (Fig. 2), and element access
//! for the scalar edges of a sweep.

/// A fixed-width vector of `f64` lanes.
///
/// # Safety contract of `load`/`store`
///
/// The raw-pointer loads/stores are `unsafe` with the usual validity
/// requirements; slice-based helpers assert length and are safe.
pub trait SimdF64: Copy + Clone + Send + Sync + core::fmt::Debug + 'static {
    /// Number of `f64` lanes.
    const LANES: usize;

    /// The instruction set this backend's operations compile to. Code
    /// generic over `SimdF64` must only run a non-portable backend on a
    /// CPU where [`crate::Isa::detect`] reports at least this ISA, and
    /// runs it fastest inside a function compiled for it.
    const ISA: crate::Isa = crate::Isa::Portable;

    /// Vector with all lanes set to `x`.
    fn splat(x: f64) -> Self;

    /// All-zero vector.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Unaligned load of `LANES` elements.
    ///
    /// # Safety
    /// `ptr` must be valid for reads of `LANES * 8` bytes.
    unsafe fn load(ptr: *const f64) -> Self;

    /// Unaligned store of `LANES` elements.
    ///
    /// # Safety
    /// `ptr` must be valid for writes of `LANES * 8` bytes.
    unsafe fn store(self, ptr: *mut f64);

    /// Load from the front of a slice (asserts `s.len() >= LANES`).
    #[inline(always)]
    fn from_slice(s: &[f64]) -> Self {
        assert!(s.len() >= Self::LANES, "slice shorter than vector width");
        // SAFETY: length checked above.
        unsafe { Self::load(s.as_ptr()) }
    }

    /// Store to the front of a mutable slice (asserts length).
    #[inline(always)]
    fn write_to_slice(self, s: &mut [f64]) {
        assert!(s.len() >= Self::LANES, "slice shorter than vector width");
        // SAFETY: length checked above.
        unsafe { self.store(s.as_mut_ptr()) }
    }

    /// Lane-wise addition.
    fn add(self, o: Self) -> Self;
    /// Lane-wise subtraction.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise multiplication.
    fn mul(self, o: Self) -> Self;
    /// Fused multiply-add: `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lane-wise maximum.
    fn max(self, o: Self) -> Self;
    /// Lane-wise minimum.
    fn min(self, o: Self) -> Self;

    /// Lane-wise compare: 1.0 where `self >= o`, else 0.0. Used by
    /// nonlinear update rules (Game of Life) to stay branchless.
    fn ge01(self, o: Self) -> Self;

    /// Lane-wise equality as 0/1 doubles. Exact comparison — callers use
    /// it on small-integer-valued lanes (neighbour counts).
    #[inline(always)]
    fn eq01(self, o: Self) -> Self {
        self.ge01(o).mul(o.ge01(self))
    }

    /// Extract lane `i` (asserts `i < LANES`).
    fn extract(self, i: usize) -> f64;
    /// Return a copy with lane `i` replaced by `v`.
    fn insert(self, i: usize, v: f64) -> Self;

    /// Sum of all lanes (used only at sweep edges and in tests).
    #[inline(always)]
    fn horizontal_sum(self) -> f64 {
        let mut acc = 0.0;
        for i in 0..Self::LANES {
            acc += self.extract(i);
        }
        acc
    }

    /// `[a1, a2, .., a(N-1), b0]`: shift self left one lane, pulling the
    /// lowest lane of `next` into the top. This is the paper's *right
    /// dependent* assembly: blend + circular shift (Fig. 2).
    fn shift_in_right(self, next: Self) -> Self;

    /// `[p(N-1), a0, a1, .., a(N-2)]`: shift self right one lane, pulling
    /// the highest lane of `prev` into the bottom — the *left dependent*.
    fn shift_in_left(self, prev: Self) -> Self;

    /// Rotate lanes down: `[a1, .., a(N-1), a0]`.
    #[inline(always)]
    fn rotate_lanes_left(self) -> Self {
        self.shift_in_right(self)
    }

    /// Rotate lanes up: `[a(N-1), a0, .., a(N-2)]`.
    #[inline(always)]
    fn rotate_lanes_right(self) -> Self {
        self.shift_in_left(self)
    }

    /// In-register transpose of a `LANES x LANES` tile held in `set`
    /// (row-major: `set[r]` holds row `r`). Panics if `set.len() != LANES`.
    ///
    /// AVX2: the 2-stage `permute2f128`+`unpack` scheme of Fig. 3.
    /// AVX-512: the 3-stage scheme sketched in §2.3.
    fn transpose(set: &mut [Self]);

    /// Convert to a `Vec` of lane values (test/diagnostic helper).
    #[inline]
    fn to_vec(self) -> Vec<f64> {
        (0..Self::LANES).map(|i| self.extract(i)).collect()
    }
}

/// Scalar "1-lane vector": lets the generic kernels double as scalar
/// reference implementations, which the tests diff against.
impl SimdF64 for f64 {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        *ptr
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        *ptr = self;
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        f64::max(self, o)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        f64::min(self, o)
    }
    #[inline(always)]
    fn ge01(self, o: Self) -> Self {
        if self >= o {
            1.0
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn extract(self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self
    }

    #[inline(always)]
    fn insert(self, i: usize, v: f64) -> Self {
        assert_eq!(i, 0);
        v
    }

    #[inline(always)]
    fn shift_in_right(self, next: Self) -> Self {
        next
    }

    #[inline(always)]
    fn shift_in_left(self, prev: Self) -> Self {
        prev
    }

    #[inline(always)]
    fn transpose(set: &mut [Self]) {
        assert_eq!(set.len(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_lane_behaves_like_f64() {
        let a = <f64 as SimdF64>::splat(2.0);
        let b = <f64 as SimdF64>::splat(3.0);
        assert_eq!(a.add(b), 5.0);
        assert_eq!(a.mul(b), 6.0);
        assert_eq!(a.mul_add(b, b), 9.0);
        assert_eq!(a.shift_in_right(b), 3.0);
        assert_eq!(a.shift_in_left(b), 3.0);
        assert_eq!(a.horizontal_sum(), 2.0);
    }

    #[test]
    fn scalar_slice_roundtrip() {
        let s = [7.5];
        let v = <f64 as SimdF64>::from_slice(&s);
        let mut out = [0.0];
        v.write_to_slice(&mut out);
        assert_eq!(out, s);
    }
}
