#![allow(clippy::needless_range_loop)]

//! Property tests: every backend must agree bit-for-bit with the
//! portable reference on every operation, for arbitrary lane values.
//!
//! The backends under test are the static aliases ([`NativeF64x4`],
//! [`NativeF64x8`]) plus, on x86_64, the AVX2 and AVX-512 backends
//! whenever [`Isa::detect`] finds them on this CPU — the backends plans
//! dispatch to at run time. A backend the CPU lacks is skipped with a
//! note on stderr.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use stencil_simd::portable::{PF64x4, PF64x8};
use stencil_simd::{Isa, NativeF64x4, NativeF64x8, SimdF64};

type Check = Result<(), String>;

fn arr4() -> impl Strategy<Value = [f64; 4]> {
    prop::array::uniform4(-1e6f64..1e6)
}

fn arr8() -> impl Strategy<Value = [f64; 8]> {
    prop::array::uniform8(-1e6f64..1e6)
}

/// True when this CPU runs `isa`; says so on stderr (once per ISA) when
/// it does not.
fn runs(isa: Isa) -> bool {
    static NOTED: [AtomicBool; 3] = [const { AtomicBool::new(false) }; 3];
    let ok = Isa::detect() >= isa;
    if !ok && !NOTED[isa as usize].swap(true, Ordering::Relaxed) {
        let name = isa.name();
        eprintln!("backend_equivalence: skipped the {name} backend (not on this CPU)");
    }
    ok
}

/// Run `$check::<V>($args)` for the static alias and every detected
/// intrinsic backend of the same width (`x4` or `x8`).
macro_rules! each_backend {
    (x4, $check:ident($($arg:expr),*)) => {{
        $check::<NativeF64x4>($($arg),*)?;
        #[cfg(target_arch = "x86_64")]
        if runs(Isa::Avx2) {
            $check::<stencil_simd::avx2::F64x4>($($arg),*)?;
        }
    }};
    (x8, $check:ident($($arg:expr),*)) => {{
        $check::<NativeF64x8>($($arg),*)?;
        #[cfg(target_arch = "x86_64")]
        if runs(Isa::Avx512) {
            $check::<stencil_simd::avx512::F64x8>($($arg),*)?;
        }
    }};
}

fn v<V: SimdF64>(a: &[f64]) -> V {
    V::from_slice(a)
}

fn arithmetic_x4<V: SimdF64>(a: [f64; 4], b: [f64; 4], c: [f64; 4]) -> Check {
    let p = PF64x4::new;
    let (na, nb, nc) = (v::<V>(&a), v::<V>(&b), v::<V>(&c));
    prop_assert_eq!(na.add(nb).to_vec(), p(a).add(p(b)).to_vec());
    prop_assert_eq!(na.sub(nb).to_vec(), p(a).sub(p(b)).to_vec());
    prop_assert_eq!(na.mul(nb).to_vec(), p(a).mul(p(b)).to_vec());
    prop_assert_eq!(na.max(nb).to_vec(), p(a).max(p(b)).to_vec());
    prop_assert_eq!(na.min(nb).to_vec(), p(a).min(p(b)).to_vec());
    prop_assert_eq!(na.ge01(nb).to_vec(), p(a).ge01(p(b)).to_vec());
    prop_assert_eq!(na.eq01(nb).to_vec(), p(a).eq01(p(b)).to_vec());
    // FMA: the portable backend fuses through f64::mul_add and the
    // intrinsic backends through vfmadd, so the bits agree exactly.
    prop_assert_eq!(
        na.mul_add(nb, nc).to_vec(),
        p(a).mul_add(p(b), p(c)).to_vec()
    );
    Ok(())
}

fn arithmetic_x8<V: SimdF64>(a: [f64; 8], b: [f64; 8], c: [f64; 8]) -> Check {
    let p = PF64x8::new;
    let (na, nb, nc) = (v::<V>(&a), v::<V>(&b), v::<V>(&c));
    prop_assert_eq!(na.add(nb).to_vec(), p(a).add(p(b)).to_vec());
    prop_assert_eq!(na.mul(nb).to_vec(), p(a).mul(p(b)).to_vec());
    prop_assert_eq!(na.ge01(nb).to_vec(), p(a).ge01(p(b)).to_vec());
    prop_assert_eq!(
        na.mul_add(nb, nc).to_vec(),
        p(a).mul_add(p(b), p(c)).to_vec()
    );
    Ok(())
}

fn shifts_x4<V: SimdF64>(a: [f64; 4], b: [f64; 4]) -> Check {
    let p = PF64x4::new;
    let (na, nb) = (v::<V>(&a), v::<V>(&b));
    prop_assert_eq!(
        na.shift_in_right(nb).to_vec(),
        p(a).shift_in_right(p(b)).to_vec()
    );
    prop_assert_eq!(
        na.shift_in_left(nb).to_vec(),
        p(a).shift_in_left(p(b)).to_vec()
    );
    prop_assert_eq!(
        na.rotate_lanes_left().to_vec(),
        p(a).rotate_lanes_left().to_vec()
    );
    prop_assert_eq!(
        na.rotate_lanes_right().to_vec(),
        p(a).rotate_lanes_right().to_vec()
    );
    Ok(())
}

fn shifts_x8<V: SimdF64>(a: [f64; 8], b: [f64; 8]) -> Check {
    let p = PF64x8::new;
    let (na, nb) = (v::<V>(&a), v::<V>(&b));
    prop_assert_eq!(
        na.shift_in_right(nb).to_vec(),
        p(a).shift_in_right(p(b)).to_vec()
    );
    prop_assert_eq!(
        na.shift_in_left(nb).to_vec(),
        p(a).shift_in_left(p(b)).to_vec()
    );
    Ok(())
}

/// Transpose a `LANES x LANES` tile of `rows` with `V` and with the
/// portable backend `P` of the same width; the results must agree.
fn transpose_vs<V: SimdF64, P: SimdF64>(rows: &[Vec<f64>]) -> Check {
    let mut native: Vec<V> = rows.iter().map(|r| v::<V>(r)).collect();
    let mut portable: Vec<P> = rows.iter().map(|r| v::<P>(r)).collect();
    V::transpose(&mut native);
    P::transpose(&mut portable);
    for (nv, pv) in native.iter().zip(&portable) {
        prop_assert_eq!(nv.to_vec(), pv.to_vec());
    }
    Ok(())
}

fn transpose_x4<V: SimdF64>(rows: &[Vec<f64>]) -> Check {
    transpose_vs::<V, PF64x4>(rows)
}

fn transpose_x8<V: SimdF64>(rows: &[Vec<f64>]) -> Check {
    transpose_vs::<V, PF64x8>(rows)
}

fn load_store<V: SimdF64>(a: &[f64], off: usize) -> Check {
    let mut buf = [0.0f64; 24];
    buf[off..off + V::LANES].copy_from_slice(&a[..V::LANES]);
    // SAFETY: off + LANES <= 16 < 24, in bounds by construction.
    let x = unsafe { V::load(buf.as_ptr().add(off)) };
    let mut out = [0.0f64; 24];
    unsafe { x.store(out.as_mut_ptr().add(off)) };
    prop_assert_eq!(&out[off..off + V::LANES], &a[..V::LANES]);
    Ok(())
}

fn insert_extract<V: SimdF64>(a: [f64; 4], i: usize, val: f64) -> Check {
    let w = v::<V>(&a).insert(i, val);
    prop_assert_eq!(w.extract(i), val);
    for j in 0..4 {
        if j != i {
            prop_assert_eq!(w.extract(j), a[j]);
        }
    }
    Ok(())
}

fn horizontal_sum<V: SimdF64>(a: [f64; 4]) -> Check {
    let want: f64 = a.iter().sum();
    let got = v::<V>(&a).horizontal_sum();
    prop_assert!((want - got).abs() <= 1e-9 * want.abs().max(1.0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arithmetic_matches_portable_x4(a in arr4(), b in arr4(), c in arr4()) {
        each_backend!(x4, arithmetic_x4(a, b, c));
    }

    #[test]
    fn arithmetic_matches_portable_x8(a in arr8(), b in arr8(), c in arr8()) {
        each_backend!(x8, arithmetic_x8(a, b, c));
    }

    #[test]
    fn shifts_match_portable_x4(a in arr4(), b in arr4()) {
        each_backend!(x4, shifts_x4(a, b));
    }

    #[test]
    fn transpose_matches_portable_x4(rows in prop::array::uniform4(arr4())) {
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
        each_backend!(x4, transpose_x4(&rows));
    }

    #[test]
    fn transpose_matches_portable_x8(rows in prop::array::uniform8(arr8())) {
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
        each_backend!(x8, transpose_x8(&rows));
    }

    #[test]
    fn shifts_match_portable_x8(a in arr8(), b in arr8()) {
        each_backend!(x8, shifts_x8(a, b));
    }

    #[test]
    fn load_store_roundtrip(a in arr8(), off in 0usize..8) {
        each_backend!(x4, load_store(&a, off));
        each_backend!(x8, load_store(&a, off));
    }

    #[test]
    fn insert_extract_consistency(a in arr4(), i in 0usize..4, val in -1e6f64..1e6) {
        each_backend!(x4, insert_extract(a, i, val));
    }

    #[test]
    fn horizontal_sum_matches(a in arr4()) {
        each_backend!(x4, horizontal_sum(a));
    }
}
