//! Fig. 3D: the dedicated 3D register pipeline. Compares the legacy
//! reload-per-block folded executor against the z-ring pipeline (plane
//! rotation + separable two-stage fold) on the 3D kernels, block-free
//! at one thread and tessellate-tiled at the configured thread count —
//! both pipelines at the same width, thread count and fold factor, so
//! the delta is exactly the redundancy the ring removes.
//!
//! Also runs one measured-tuner probe for the radius-2 box (3D125P):
//! the deeper fold window (`MAX_R3 = 4`) keeps `Folded { m: 2 }`
//! selectable there, and the probe report shows what the tuner picked.

use stencil_bench::{gflops, measure, workload, Args, Table};
use stencil_core::exec::folded::{self, FoldedKernel};
use stencil_core::exec::folded3d::{self, Ring3};
use stencil_core::tile::tessellate;
use stencil_core::{kernels, Method, Pattern, Solver, Tiling, Tuning};
use stencil_grid::{Grid3D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::{NativeF64x4, SimdF64};

fn cases() -> Vec<(&'static str, Pattern)> {
    vec![
        ("3D-Heat", kernels::heat3d()),
        ("3D27P", kernels::box3d27p()),
        ("3D125P", kernels::box3d125p()),
        ("3DStar-R2", kernels::star3d_r2()),
    ]
}

/// Block-free sweep through the legacy reload-per-block pipeline.
fn legacy_blockfree(k: &FoldedKernel, g: &Grid3D, p: &Pattern, t: usize, reps: usize) -> f64 {
    let (_, d) = measure::best_of(reps, || folded::sweep_3d_with::<NativeF64x4>(k, g, p, t));
    rate(g, p, t, d)
}

/// Block-free sweep through the z-ring pipeline.
fn ring_blockfree(
    k: &FoldedKernel,
    ring: Ring3,
    g: &Grid3D,
    p: &Pattern,
    t: usize,
    reps: usize,
) -> f64 {
    let (_, d) = measure::best_of(reps, || {
        folded3d::sweep_3d_ring_with::<NativeF64x4>(k, ring, g, p, t)
    });
    rate(g, p, t, d)
}

/// Tessellate-tiled sweep, generic over the inner range kernel: both
/// pipelines run under the same pool, tiling and fold factor.
fn tess_sweep<K>(pool: &PoolHandle, g: &Grid3D, reff: usize, tb: usize, steps: usize, kernel: &K)
where
    K: Fn(
            &Grid3D,
            &mut Grid3D,
            std::ops::Range<usize>,
            std::ops::Range<usize>,
            std::ops::Range<usize>,
        ) + Sync,
{
    let mut pp = PingPong::new(g.clone());
    tessellate::run_3d(
        pool,
        &mut pp,
        reff,
        reff,
        tb,
        NativeF64x4::LANES,
        steps,
        kernel,
    );
    let _ = pp.into_current();
}

fn rate(g: &Grid3D, p: &Pattern, t: usize, d: std::time::Duration) -> f64 {
    gflops(g.nz() * g.ny() * g.nx(), t, 2 * p.points(), d)
}

fn main() {
    let args = Args::parse();
    let ((nz, ny, nx), t, tb, reps) = if args.paper {
        ((320, 320, 320), 40, 4, 1)
    } else if args.quick {
        ((40, 40, 40), 8, 2, 2)
    } else {
        ((128, 128, 128), 32, 4, 2)
    };
    let threads = args.threads();
    println!(
        "Fig. 3D — legacy reload-per-block vs z-ring 3D register pipeline \
         ({}, {nz}x{ny}x{nx}, t = {t})",
        stencil_simd::backend_summary()
    );

    let mut bf = Table::new("Fig 3D (block-free, 1 thread)", "GFLOP/s");
    let mut tess = Table::new("Fig 3D (tessellate)", "GFLOP/s");
    let pool = PoolHandle::new(threads);
    for (name, p) in cases() {
        if !args.wants(name) {
            continue;
        }
        let g = workload::random_3d(nz, ny, nx, 42);
        let lanes = 4usize;
        for m in [1usize, 2] {
            // the deeper window admits every case here: radius-2 at
            // m = 2 reaches folded radius 4 = MAX_R3
            let k = FoldedKernel::new(&p, m);
            let ring = Ring3::auto(lanes, k.radius());
            let legacy = legacy_blockfree(&k, &g, &p, t, reps);
            let zring = ring_blockfree(&k, ring, &g, &p, t, reps);
            bf.put(name, format!("Legacy (m={m})"), Some(legacy));
            bf.put(name, format!("Z-ring (m={m})"), Some(zring));
            if m == 2 {
                // tiled comparison at equal thread count; t is even, so
                // the folded body covers every step
                let reff = k.radius();
                let (_, dl) = measure::best_of(reps, || {
                    tess_sweep(
                        &pool,
                        &g,
                        reff,
                        tb,
                        t / m,
                        &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                            folded::step_range_3d::<NativeF64x4>(&k, s, d, zs, ys, xs)
                        },
                    )
                });
                let (_, dr) = measure::best_of(reps, || {
                    tess_sweep(
                        &pool,
                        &g,
                        reff,
                        tb,
                        t / m,
                        &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                            folded3d::step_range_3d_ring::<NativeF64x4>(&k, ring, s, d, zs, ys, xs)
                        },
                    )
                });
                tess.put(name, "Legacy tess (m=2)", Some(rate(&g, &p, t, dl)));
                tess.put(name, "Z-ring tess (m=2)", Some(rate(&g, &p, t, dr)));
            }
        }
        // one-line speedup summary for the acceptance read-off
        if let (Some(l), Some(r)) = (bf.get(name, "Legacy (m=2)"), bf.get(name, "Z-ring (m=2)")) {
            eprintln!("  {name}: z-ring/legacy (m=2, block-free) = {:.2}x", r / l);
        }
    }
    bf.print();
    tess.print();

    // Measured tuner over the radius-2 box: Folded { m: 2 } must be in
    // the candidate pool (folded radius 4 fits the deeper window), and
    // the probe report shows the pick and its z-ring geometry.
    stencil_tune::install();
    match Solver::new(kernels::box3d125p())
        .method(Method::Auto)
        .tiling(Tiling::Auto)
        .threads(threads)
        .tuning(Tuning::Measured)
        .domain_hint(&[nz, ny, nx])
        .compile()
    {
        Ok(plan) => println!(
            "tuner pick for 3D125P ({threads} threads): {:?} + {:?}, ring = {:?}",
            plan.method(),
            plan.tiling(),
            plan.ring3()
        ),
        Err(e) => eprintln!("tuner probe for 3D125P failed: {e}"),
    }

    if let Some(path) = &args.json {
        Table::dump_json(&[&bf, &tess], path).expect("write json");
        eprintln!("wrote {path}");
    }
}
