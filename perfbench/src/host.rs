//! What the numbers ran on (the host stamp) and what the host can do
//! at best (the roofline probe).

use std::hint::black_box;
use std::time::Instant;
use stencil_core::Width;
use stencil_simd::{NativeF64x4, NativeF64x8, SimdF64};

/// Host facts printed with every result, so a portable-backend or
/// one-thread number cannot pass as something else.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `stencil_simd::backend_summary()`.
    pub backend: String,
    /// `Width::native_max()`: the width plans compile to by default.
    pub native_max: Width,
    /// Hardware threads (`available_parallelism`).
    pub nproc: usize,
    /// One core's L2 data cache, bytes (sysfs).
    pub l2_bytes: usize,
    /// Last-level cache, bytes (sysfs).
    pub llc_bytes: usize,
    /// Host name.
    pub hostname: String,
}

impl HostStamp {
    /// Read the stamp from the running host.
    pub fn detect() -> Self {
        let (l2_bytes, llc_bytes) = cache_sizes();
        HostStamp {
            backend: stencil_simd::backend_summary(),
            native_max: Width::native_max(),
            nproc: stencil_runtime::available_parallelism(),
            l2_bytes,
            llc_bytes,
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        }
    }

    /// One line naming host, backend, native width, threads and caches.
    pub fn line(&self) -> String {
        format!(
            "host: {} | backend {} | native width {:?} | nproc {} | L2 {} KiB | LLC {} KiB",
            self.hostname,
            self.backend,
            self.native_max,
            self.nproc,
            self.l2_bytes >> 10,
            self.llc_bytes >> 10
        )
    }

    /// The per-workload half of the stamp: the largest grid next to
    /// the LLC, and the pool threads the plans actually ran on.
    pub fn workload_line(&self, grid_bytes: usize, pool_threads: usize) -> String {
        format!(
            "workload: {:.1} MiB per grid = {:.3}x the {:.1} MiB LLC | pool threads used {}",
            grid_bytes as f64 / (1 << 20) as f64,
            grid_bytes as f64 / self.llc_bytes as f64,
            self.llc_bytes as f64 / (1 << 20) as f64,
            pool_threads
        )
    }
}

/// `(L2, last-level)` cache sizes of cpu0 from sysfs; conservative
/// defaults when sysfs is unreadable.
fn cache_sizes() -> (usize, usize) {
    let (mut l2, mut llc, mut llc_level) = (0, 0, 0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: usize = level.trim().parse().unwrap_or(0);
        let size = parse_size(size.trim());
        if level == 2 {
            l2 = size;
        }
        if level >= llc_level {
            (llc, llc_level) = (size, level);
        }
    }
    (
        if l2 == 0 { 1 << 20 } else { l2 },
        if llc == 0 { 32 << 20 } else { llc },
    )
}

fn parse_size(s: &str) -> usize {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1 << 10),
        Some(b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().unwrap_or(0) * mult
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// STREAM triad `a = b + s * c` over arrays of `len` f64 each, split
/// across `threads` scoped threads (first touch by the same split).
/// Returns GB/s counting 24 bytes per element (two reads, one write),
/// median over `reps` passes.
pub fn triad_gbs(len: usize, threads: usize, reps: usize) -> f64 {
    let threads = threads.max(1);
    let chunk = len.div_ceil(threads);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let run = |a: &mut [f64], b: &mut [f64], c: &mut [f64], init: bool| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    if init {
                        b.fill(1.0);
                        c.fill(2.0);
                        a.fill(0.0);
                    } else {
                        for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                            *a = *b + 3.0 * *c;
                        }
                    }
                });
            }
        });
    };
    run(&mut a, &mut b, &mut c, true);
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            run(&mut a, &mut b, &mut c, false);
            black_box(&a);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    24.0 * len as f64 / crate::stats::median(&times) / 1e9
}

/// Independent accumulator chains in the FMA probe: enough to cover
/// the latency of a fused multiply-add on current cores.
const FMA_CHAINS: usize = 12;

fn fma_loop<V: SimdF64>(iters: usize) -> f64 {
    let (a, b) = (V::splat(black_box(0.999_999)), V::splat(black_box(1e-7)));
    let mut acc = [V::splat(1.0); FMA_CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    acc.iter().map(|v| v.horizontal_sum()).sum()
}

/// Peak fused multiply-add rate of the vector type `width` dispatches
/// to, on `threads` threads for about `secs` seconds, GFLOP/s (2 flops
/// per lane per FMA).
pub fn fma_gflops(width: Width, threads: usize, secs: f64) -> f64 {
    let threads = threads.max(1);
    let run = move |iters: usize| match width {
        Width::W1 => black_box(fma_loop::<f64>(iters)),
        Width::W4 => black_box(fma_loop::<NativeF64x4>(iters)),
        Width::W8 => black_box(fma_loop::<NativeF64x8>(iters)),
    };
    let flops = |iters: usize| 2.0 * (width.lanes() * FMA_CHAINS * iters) as f64;
    // calibrate on one thread (this also warms the code)
    let probe = 20_000;
    let t0 = Instant::now();
    run(probe);
    let rate = flops(probe) / t0.elapsed().as_secs_f64();
    let iters = ((secs * rate / flops(1)) as usize).max(probe);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || run(iters));
        }
    });
    flops(iters) * threads as f64 / t0.elapsed().as_secs_f64() / 1e9
}
