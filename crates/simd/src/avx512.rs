//! AVX-512F backend: `__m512d` (8 x f64).
//!
//! Compiled into every x86_64 build; like [`crate::avx2`], a value of
//! [`F64x8`] must only be created on a CPU where [`crate::Isa::detect`]
//! reports [`crate::Isa::Avx512`], and kernels run it inside an
//! `#[target_feature(enable = "avx512f,avx2,fma")]` function. The 8x8 transpose
//! is the paper's three-stage scheme (§2.3): one stage of in-lane
//! `vunpcklpd`/`vunpckhpd`, then two stages of 128-bit-block shuffles
//! (`vshuff64x2`) — 24 single-uop shuffle instructions total, versus 8*8
//! scalar moves. Assembled dependents use one `valignq` each.

#![allow(clippy::missing_safety_doc)]

use crate::vector::SimdF64;
use core::arch::x86_64::*;

/// 8-lane `f64` vector backed by `__m512d`.
#[derive(Copy, Clone, Debug)]
#[repr(transparent)]
pub struct F64x8(pub __m512d);

impl F64x8 {
    /// Construct from lane values (lane 0 first).
    #[inline(always)]
    pub fn new(lanes: [f64; 8]) -> Self {
        // SAFETY: F64x8 values exist only on AVX-512 hosts (module docs).
        unsafe { Self(_mm512_loadu_pd(lanes.as_ptr())) }
    }

    /// Copy lanes out to an array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 8] {
        let mut out = [0.0; 8];
        // SAFETY: out has 8 elements.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }
}

impl SimdF64 for F64x8 {
    const LANES: usize = 8;
    const ISA: crate::Isa = crate::Isa::Avx512;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        unsafe { Self(_mm512_set1_pd(x)) }
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        Self(_mm512_loadu_pd(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        _mm512_storeu_pd(ptr, self.0)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        unsafe { Self(_mm512_add_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        unsafe { Self(_mm512_sub_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        unsafe { Self(_mm512_mul_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        unsafe { Self(_mm512_fmadd_pd(self.0, a.0, b.0)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        unsafe { Self(_mm512_max_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        unsafe { Self(_mm512_min_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn ge01(self, o: Self) -> Self {
        unsafe {
            let mask = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, o.0);
            Self(_mm512_maskz_mov_pd(mask, _mm512_set1_pd(1.0)))
        }
    }

    #[inline(always)]
    fn extract(self, i: usize) -> f64 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn insert(self, i: usize, v: f64) -> Self {
        let mut a = self.to_array();
        a[i] = v;
        Self::new(a)
    }

    /// `[a1..a7, b0]` — a single `valignq` (concat-shift by one element).
    #[inline(always)]
    fn shift_in_right(self, next: Self) -> Self {
        unsafe {
            let a = _mm512_castpd_si512(self.0);
            let n = _mm512_castpd_si512(next.0);
            Self(_mm512_castsi512_pd(_mm512_alignr_epi64::<1>(n, a)))
        }
    }

    /// `[p7, a0..a6]` — a single `valignq` by seven elements.
    #[inline(always)]
    fn shift_in_left(self, prev: Self) -> Self {
        unsafe {
            let a = _mm512_castpd_si512(self.0);
            let p = _mm512_castpd_si512(prev.0);
            Self(_mm512_castsi512_pd(_mm512_alignr_epi64::<7>(a, p)))
        }
    }

    /// Three-stage 8x8 transpose: unpack, then two rounds of
    /// `vshuff64x2` 128-bit block shuffles (imm 0x88 / 0xDD).
    #[inline(always)]
    fn transpose(set: &mut [Self]) {
        assert_eq!(set.len(), 8, "transpose needs a full vector set");
        unsafe {
            let r: [__m512d; 8] = [
                set[0].0, set[1].0, set[2].0, set[3].0, set[4].0, set[5].0, set[6].0, set[7].0,
            ];
            // Stage 1: interleave adjacent rows within 128-bit lanes.
            let t0 = _mm512_unpacklo_pd(r[0], r[1]); // a0 b0 a2 b2 a4 b4 a6 b6
            let t1 = _mm512_unpackhi_pd(r[0], r[1]); // a1 b1 a3 b3 ...
            let t2 = _mm512_unpacklo_pd(r[2], r[3]);
            let t3 = _mm512_unpackhi_pd(r[2], r[3]);
            let t4 = _mm512_unpacklo_pd(r[4], r[5]);
            let t5 = _mm512_unpackhi_pd(r[4], r[5]);
            let t6 = _mm512_unpacklo_pd(r[6], r[7]);
            let t7 = _mm512_unpackhi_pd(r[6], r[7]);
            // Stage 2: gather even/odd 128-bit blocks across row pairs.
            let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2); // a0b0 a4b4 c0d0 c4d4
            let u1 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
            let u2 = _mm512_shuffle_f64x2::<0xDD>(t0, t2); // a2b2 a6b6 c2d2 c6d6
            let u3 = _mm512_shuffle_f64x2::<0xDD>(t1, t3);
            let u4 = _mm512_shuffle_f64x2::<0x88>(t4, t6); // e0f0 e4f4 g0h0 g4h4
            let u5 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
            let u6 = _mm512_shuffle_f64x2::<0xDD>(t4, t6);
            let u7 = _mm512_shuffle_f64x2::<0xDD>(t5, t7);
            // Stage 3: final block interleave.
            set[0] = Self(_mm512_shuffle_f64x2::<0x88>(u0, u4)); // a0 b0 c0 d0 e0 f0 g0 h0
            set[1] = Self(_mm512_shuffle_f64x2::<0x88>(u1, u5));
            set[2] = Self(_mm512_shuffle_f64x2::<0x88>(u2, u6));
            set[3] = Self(_mm512_shuffle_f64x2::<0x88>(u3, u7));
            set[4] = Self(_mm512_shuffle_f64x2::<0xDD>(u0, u4));
            set[5] = Self(_mm512_shuffle_f64x2::<0xDD>(u1, u5));
            set[6] = Self(_mm512_shuffle_f64x2::<0xDD>(u2, u6));
            set[7] = Self(_mm512_shuffle_f64x2::<0xDD>(u3, u7));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below execute AVX-512 instructions: skip on hosts without.
    fn host_has_avx512() -> bool {
        let ok = crate::Isa::detect() == crate::Isa::Avx512;
        if !ok {
            eprintln!("skipped: this CPU has no AVX-512F");
        }
        ok
    }

    #[test]
    fn transpose_8x8() {
        if !host_has_avx512() {
            return;
        }
        let mut set = [F64x8::splat(0.0); 8];
        for (r, row) in set.iter_mut().enumerate() {
            let mut lanes = [0.0; 8];
            for (c, l) in lanes.iter_mut().enumerate() {
                *l = (r * 8 + c) as f64;
            }
            *row = F64x8::new(lanes);
        }
        F64x8::transpose(&mut set);
        for (r, row) in set.iter().enumerate() {
            for c in 0..8 {
                assert_eq!(row.extract(c), (c * 8 + r) as f64, "({r},{c})");
            }
        }
    }

    #[test]
    fn shifts() {
        if !host_has_avx512() {
            return;
        }
        let a = F64x8::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F64x8::new([9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
        assert_eq!(
            a.shift_in_right(b).to_array(),
            [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        );
        assert_eq!(
            a.shift_in_left(b).to_array(),
            [16.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn fma() {
        if !host_has_avx512() {
            return;
        }
        let a = F64x8::splat(2.0);
        let b = F64x8::splat(3.0);
        let c = F64x8::splat(1.0);
        assert_eq!(a.mul_add(b, c).extract(0), 7.0);
    }
}
