//! Runtime instruction-set detection.
//!
//! The intrinsic backends ([`crate::avx2`], [`crate::avx512`]) are
//! compiled into every x86_64 build, whatever the build's static target
//! features. Which of them a kernel may run is decided here, once per
//! process, from what the CPU reports — so one binary runs the AVX-512
//! kernels on an AVX-512 host and the portable ones on a host without
//! AVX, and never faults on either.

use std::sync::OnceLock;

/// A vector instruction set, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The build's baseline features only: the portable backend.
    Portable,
    /// AVX2 + FMA: the 4-lane [`crate::avx2`] backend.
    Avx2,
    /// AVX-512F (with AVX2 + FMA): the 8-lane [`crate::avx512`] backend.
    Avx512,
}

impl Isa {
    /// The widest ISA this CPU supports, probed on first call and cached
    /// for the life of the process.
    pub fn detect() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(probe)
    }

    /// The ISA whose backend serves `lanes`-wide vectors on a CPU that
    /// supports `self`: AVX2 for 4 lanes, AVX-512F for 8, and the
    /// portable backend for everything else (scalar lanes included).
    pub fn for_lanes(self, lanes: usize) -> Isa {
        match lanes {
            4 if self >= Isa::Avx2 => Isa::Avx2,
            8 if self == Isa::Avx512 => Isa::Avx512,
            _ => Isa::Portable,
        }
    }

    /// Lowercase label (`portable`, `avx2`, `avx512f`), as host stamps
    /// and tune-cache keys print it.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512f",
        }
    }
}

fn probe() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if avx2 {
            return Isa::Avx2;
        }
    }
    Isa::Portable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_lane_mapping_never_widens() {
        let isa = Isa::detect();
        assert_eq!(isa, Isa::detect());
        for lanes in [1usize, 2, 4, 8] {
            assert!(isa.for_lanes(lanes) <= isa);
        }
        assert_eq!(Isa::Avx512.for_lanes(4), Isa::Avx2);
        assert_eq!(Isa::Avx2.for_lanes(8), Isa::Portable);
        assert_eq!(Isa::Avx512.for_lanes(1), Isa::Portable);
    }
}
