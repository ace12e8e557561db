//! # stencil-simd
//!
//! SIMD substrate for the stencil library: a lane-generic `f64` vector
//! trait ([`SimdF64`]), three backends (portable, AVX2, AVX-512F), the
//! paper's two-stage in-register `vl x vl` matrix transpose
//! ([`transpose`]), and the blend-plus-circular-shift *assembled vector*
//! operations used by the transpose layout ([`assemble`]).
//!
//! ## Backends
//!
//! * [`portable::PF64x4`] / [`portable::PF64x8`] — `[f64; N]` wrappers with
//!   `#[inline(always)]` per-lane operations: the fallback on hosts (and
//!   targets) without AVX, and the oracle the intrinsic backends are
//!   tested against.
//! * `avx2::F64x4` — `__m256d` wrappers, compiled into every x86_64
//!   build. Implements the paper's `permute2f128` + `unpackhi/lo`
//!   transpose (Fig. 3) and the `blend` + lane-rotate assembled vectors
//!   (Fig. 2).
//! * `avx512::F64x8` — `__m512d` wrappers for the AVX-512 experiments,
//!   compiled into every x86_64 build.
//!
//! ## Dispatch
//!
//! The intrinsic backends only run on a CPU that has their features:
//! [`Isa::detect`] probes the CPU once, and every [`SimdF64`] type names
//! the ISA its operations need ([`SimdF64::ISA`]). Kernels built on this
//! crate enter their hot loops through a `#[target_feature]` function
//! chosen from that ISA, so the intrinsics inline into code compiled for
//! the right instruction set. No build flag is involved.
//!
//! The aliases [`NativeF64x4`] and [`NativeF64x8`] keep their static
//! meaning: the widest backend the build's *static* target features
//! allow, which is the portable one unless the build enables AVX itself.
//!
//! ## Relation to the paper
//!
//! Section 2.3 argues that a `vl x vl` register transpose of `f64` via
//! single-cycle non-parameter unpack instructions (2 stages on AVX2, 3 on
//! AVX-512) beats both in-lane 4-stage schemes and shuffle-immediate
//! schemes. [`cost`] encodes that instruction/latency accounting so the
//! claim is checkable as a unit test rather than folklore.
//!
//! ```
//! use stencil_simd::{NativeF64x4, SimdF64};
//!
//! // A 4x4 in-register transpose: row i, lane j  ->  row j, lane i.
//! let mut rows: Vec<NativeF64x4> = (0..4)
//!     .map(|i| NativeF64x4::from_slice(&[0.0, 1.0, 2.0, 3.0].map(|x| x + 10.0 * i as f64)))
//!     .collect();
//! NativeF64x4::transpose(&mut rows);
//! assert_eq!(rows[1].to_vec(), vec![1.0, 11.0, 21.0, 31.0]);
//! ```

// Offset-indexed loops are the domain idiom here (windows, tiles, taps);
// iterators would hide the math.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod assemble;
pub mod cost;
pub mod isa;
pub mod portable;
pub mod transpose;
pub mod vector;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

#[cfg(target_arch = "x86_64")]
pub mod avx512;

pub use isa::Isa;
pub use vector::SimdF64;

/// Widest statically-available 4-lane `f64` vector type.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub type NativeF64x4 = avx2::F64x4;
/// Widest statically-available 4-lane `f64` vector type.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub type NativeF64x4 = portable::PF64x4;

/// Widest statically-available 8-lane `f64` vector type.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub type NativeF64x8 = avx512::F64x8;
/// Widest statically-available 8-lane `f64` vector type.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub type NativeF64x8 = portable::PF64x8;

/// True when the build statically enables AVX2 (and so [`NativeF64x4`]
/// is the AVX2 backend). Runtime dispatch does not depend on it.
pub const HAS_AVX2: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx2"));

/// True when the build statically enables AVX-512F (and so
/// [`NativeF64x8`] is the AVX-512 backend).
pub const HAS_AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// Human-readable description of the backends dispatched on this CPU
/// (see [`Isa::detect`]), for bench banners and host stamps.
pub fn backend_summary() -> String {
    let label = |lanes: usize| match Isa::detect().for_lanes(lanes) {
        Isa::Portable => "portable",
        Isa::Avx2 => "AVX2",
        Isa::Avx512 => "AVX-512F",
    };
    format!("4-lane: {}, 8-lane: {}", label(4), label(8))
}
