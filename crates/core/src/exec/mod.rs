//! Sweep executors.
//!
//! Each submodule implements one of the vectorization schemes the paper
//! evaluates (Fig. 8):
//!
//! | module        | paper name            | data organization |
//! |---------------|----------------------|-------------------|
//! | [`scalar`]    | (reference)          | none |
//! | [`multiload`] | Multiple Loads       | one unaligned load per tap |
//! | [`reorg`]     | Data Reorganization  | aligned loads + per-tap shuffles |
//! | [`dlt`]       | DLT                  | global dimension-lifted transpose |
//! | [`xlayout`]   | Our                  | local transpose layout (§2.2) |
//! | [`folded`]    | Our (m steps)        | register transpose + computation folding (§3.3) |
//! | [`folded3d`]  | Our (m steps, 3D)    | z-ring plane rotation + folding (dedicated 3D pipeline) |
//! | [`apop`]      | APOP benchmark       | two-array 1D3P with early-exercise max |
//! | [`life`]      | Game of Life         | 8-neighbour count + branchless rule |
//!
//! All step functions take explicit index ranges so the tiling layer can
//! drive them over arbitrary tile regions; full-sweep helpers handle the
//! Dirichlet boundary copy.
//!
//! ## ISA roots
//!
//! The vector kernels are generic over [`SimdF64`]; the intrinsic
//! backends only reach full speed inside a function compiled for their
//! instruction set. Every kernel a [`crate::Plan`] runs is therefore
//! declared through `isa_roots!`: it dispatches on [`SimdF64::ISA`]
//! into a `#[target_feature]` root, and everything beneath the root is
//! `#[inline(always)]`, so the whole kernel — tap loops, transposes,
//! FMAs — is compiled for AVX2+FMA or AVX-512F. Portable backends call
//! the kernel directly.

/// Declare kernel entry points `pub fn name<V: SimdF64>(args) -> R`
/// that run the `#[inline(always)]` implementation `imp::<V>(args)`
/// inside a `#[target_feature]` root for `V`'s ISA (see the module
/// docs). Everything `imp` calls must be `#[inline(always)]` too, or it
/// compiles for the baseline ISA.
///
/// ```ignore
/// isa_roots! {
///     /// docs of the entry point
///     pub fn step(src: &[f64], dst: &mut [f64]) = step_impl;
/// }
/// ```
macro_rules! isa_roots {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $imp:ident;
    )*) => {$(
        $(#[$attr])*
        $vis fn $name<V: SimdF64>($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2<V: SimdF64>($($arg: $ty),*) $(-> $ret)? {
                $imp::<V>($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn avx512<V: SimdF64>($($arg: $ty),*) $(-> $ret)? {
                $imp::<V>($($arg),*)
            }

            match V::ISA {
                // SAFETY: a backend with a non-portable ISA is only
                // instantiated on a CPU that has it (stencil_simd::isa).
                #[cfg(target_arch = "x86_64")]
                ::stencil_simd::Isa::Avx2 => unsafe { avx2::<V>($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                ::stencil_simd::Isa::Avx512 => unsafe { avx512::<V>($($arg),*) },
                _ => $imp::<V>($($arg),*),
            }
        }
    )*};
}
pub(crate) use isa_roots;

pub mod apop;
pub mod dlt;
pub mod folded;
pub mod folded3d;
pub mod life;
pub mod multiload;
pub mod reorg;
pub mod scalar;
pub mod xlayout;

use std::cell::UnsafeCell;
#[cfg(doc)]
use stencil_simd::SimdF64;

/// Dispatch a kernel implementation on the tap count, monomorphizing the
/// common stencil sizes so LLVM sees constant trip counts — full
/// unrolling plus register allocation of the tap window, worth 3-7x on
/// the hot loops. `T = 0` selects the dynamic-length fallback path
/// inside the implementation (`tap_count::<T>(taps)`).
macro_rules! dispatch_taps {
    ($impl_fn:ident, $V:ty, $taps:expr, ($($arg:expr),*)) => {{
        let taps: &[f64] = $taps;
        match taps.len() {
            3 => $impl_fn::<$V, 3>($($arg),*),
            5 => $impl_fn::<$V, 5>($($arg),*),
            7 => $impl_fn::<$V, 7>($($arg),*),
            9 => $impl_fn::<$V, 9>($($arg),*),
            11 => $impl_fn::<$V, 11>($($arg),*),
            13 => $impl_fn::<$V, 13>($($arg),*),
            17 => $impl_fn::<$V, 17>($($arg),*),
            _ => $impl_fn::<$V, 0>($($arg),*),
        }
    }};
}
pub(crate) use dispatch_taps;

/// Effective tap count for a `dispatch_taps` monomorphization.
#[inline(always)]
pub(crate) fn tap_count<const T: usize>(taps: &[f64]) -> usize {
    if T == 0 {
        taps.len()
    } else {
        debug_assert_eq!(taps.len(), T);
        T
    }
}

/// A `Sync` wrapper handing out raw mutable access to a slice for
/// *disjoint* parallel writes (each tile writes only its own region).
///
/// # Safety contract
/// Callers must guarantee that concurrent `slice_mut` regions never
/// overlap; the tiling layer's region disjointness provides this.
pub struct SharedMut<'a> {
    data: &'a UnsafeCell<[f64]>,
}

// SAFETY: see the struct-level contract; all synchronization is
// structural (disjoint regions + pool barriers).
unsafe impl Sync for SharedMut<'_> {}
unsafe impl Send for SharedMut<'_> {}

impl<'a> SharedMut<'a> {
    /// Wrap an exclusive slice.
    pub fn new(slice: &'a mut [f64]) -> Self {
        // SAFETY: &mut [f64] -> &UnsafeCell<[f64]> is the blessed cast.
        let data = unsafe { &*(slice as *mut [f64] as *const UnsafeCell<[f64]>) };
        Self { data }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        // Reading the length off the fat pointer needs no dereference.
        let ptr: *mut [f64] = self.data.get();
        ptr.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw mutable view of the whole slice.
    ///
    /// # Safety
    /// The caller must only touch a region no other thread touches
    /// concurrently.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [f64] {
        &mut *self.data.get()
    }

    /// Shared view of the whole slice.
    ///
    /// # Safety
    /// The caller must not read a region another thread writes
    /// concurrently.
    pub unsafe fn slice(&self) -> &[f64] {
        &*self.data.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Output bits of a few kernels behind every `isa_roots!` family
    /// (register 1D/2D/3D, transpose layout, multiple loads) on `V`.
    #[cfg(target_arch = "x86_64")]
    fn kernel_bits<V: stencil_simd::SimdF64>() -> Vec<Vec<u64>> {
        use crate::exec::folded3d::Ring3;
        use crate::kernels;
        use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect();
        let g1 = Grid1D::from_fn(203, |i| ((i * 37) % 19) as f64 * 0.3);
        let g2 = Grid2D::from_fn(37, 45, |y, x| ((y * 7 + x * 3) % 23) as f64 * 0.1);
        let g3 = Grid3D::from_fn(19, 21, 26, |z, y, x| ((z * 5 + y * 3 + x) % 17) as f64);
        let (p1, p2, p3) = (kernels::heat1d(), kernels::box2d9p(), kernels::box3d27p());
        let k2 = folded::FoldedKernel::new(&p2, 2);
        let k3 = folded::FoldedKernel::new(&p3, 2);
        let mut ml = PingPong::new(g2.clone());
        multiload::sweep_2d::<V>(&mut ml, &p2, 3);
        vec![
            bits(folded::sweep_1d::<V>(&g1, &p1, 2, 5).as_slice().to_vec()),
            bits(
                xlayout::sweep_folded_1d::<V>(&g1, &p1, 2, 5)
                    .as_slice()
                    .to_vec(),
            ),
            bits(folded::sweep_2d_with::<V>(&k2, &g2, &p2, 5).to_dense()),
            bits(folded3d::sweep_3d_ring_with::<V>(&k3, Ring3::default(), &g3, &p3, 4).to_dense()),
            bits(ml.into_current().to_dense()),
        ]
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn isa_roots_agree_bitwise_with_the_portable_backend() {
        use stencil_simd::portable::{PF64x4, PF64x8};
        use stencil_simd::{avx2::F64x4, avx512::F64x8, Isa};
        let isa = Isa::detect();
        if isa >= Isa::Avx2 {
            assert_eq!(kernel_bits::<F64x4>(), kernel_bits::<PF64x4>());
        } else {
            eprintln!("skipped the avx2 roots: not on this CPU");
        }
        if isa == Isa::Avx512 {
            assert_eq!(kernel_bits::<F64x8>(), kernel_bits::<PF64x8>());
        } else {
            eprintln!("skipped the avx512f roots: not on this CPU");
        }
    }

    #[test]
    fn shared_mut_disjoint_writes() {
        let mut v = vec![0.0f64; 100];
        {
            let sm = SharedMut::new(&mut v);
            std::thread::scope(|s| {
                for part in 0..4 {
                    let sm = &sm;
                    s.spawn(move || {
                        // SAFETY: parts are disjoint 25-element regions.
                        let sl = unsafe { sm.slice_mut() };
                        for x in &mut sl[part * 25..(part + 1) * 25] {
                            *x = part as f64;
                        }
                    });
                }
            });
            assert_eq!(sm.len(), 100);
        }
        assert_eq!(v[0], 0.0);
        assert_eq!(v[99], 3.0);
        assert_eq!(v[50], 2.0);
    }
}
