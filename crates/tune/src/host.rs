//! Host fingerprinting for the per-host plan cache and the benchmark
//! dumps: a tuned choice is only trustworthy on the machine (and ISA
//! build) that measured it, so every cache key and every committed
//! baseline carries this fingerprint.

use stencil_core::Width;

/// The identity a tuning measurement is keyed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Machine hostname (the best of `$HOSTNAME`,
    /// `/proc/sys/kernel/hostname`, `/etc/hostname`, or `"unknown-host"`).
    pub hostname: String,
    /// The vector ISA plans dispatch to on this CPU ([`isa_string`]), so
    /// a tuned choice is only replayed on hosts that run the same
    /// kernels: an AVX-512 host and an AVX2 host fingerprint differently,
    /// as they must — their plan spaces differ.
    pub isa: String,
    /// Hardware threads the runtime sees.
    pub threads: usize,
}

impl HostFingerprint {
    /// Fingerprint the current host and build.
    pub fn detect() -> Self {
        Self {
            hostname: detect_hostname(),
            isa: isa_string(),
            threads: stencil_runtime::available_parallelism(),
        }
    }

    /// The `hostname|isa` prefix every cache key starts with (thread
    /// count is part of the per-entry key instead, since one host can
    /// legitimately tune for several pool sizes).
    pub fn key_prefix(&self) -> String {
        format!("{}|{}", self.hostname, self.isa)
    }
}

/// The dispatched-ISA label ([`stencil_simd::Isa::detect`]), including
/// the widest native width so a `Width::native_max()` change shows up in
/// the fingerprint.
pub fn isa_string() -> String {
    format!(
        "{}-w{}",
        stencil_simd::Isa::detect().name(),
        Width::native_max().lanes()
    )
}

fn detect_hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    for path in ["/proc/sys/kernel/hostname", "/etc/hostname"] {
        if let Ok(h) = std::fs::read_to_string(path) {
            let h = h.trim().to_string();
            if !h.is_empty() {
                return h;
            }
        }
    }
    "unknown-host".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_nonempty_and_stable() {
        let a = HostFingerprint::detect();
        let b = HostFingerprint::detect();
        assert_eq!(a, b);
        assert!(!a.hostname.is_empty());
        assert!(a.isa.contains("-w"));
        assert!(a.threads >= 1);
        assert!(a.key_prefix().contains('|'));
    }

    #[test]
    fn isa_tracks_the_build_features() {
        // the label names the ISA plans dispatch to on this CPU — not the
        // build's static target features — and its native width
        use stencil_simd::Isa;
        let isa = isa_string();
        let (name, lanes) = match Isa::detect() {
            Isa::Avx512 => ("avx512f", 8),
            Isa::Avx2 => ("avx2", 4),
            Isa::Portable => ("portable", 4),
        };
        assert_eq!(isa, format!("{name}-w{lanes}"));
    }
}
