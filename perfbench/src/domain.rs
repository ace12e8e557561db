//! Kernels, seeded grids, plan compilation and the work accounting
//! (flops and computed bytes) every workload shares.

use crate::rng;
use stencil_core::{kernels, Method, Pattern, Plan, PlanError, Solver, Tiling, Tuning};
use stencil_grid::{Grid1D, Grid2D, Grid3D};
use stencil_runtime::PoolHandle;
use stencil_serve::JobDomain;

/// The seven linear Table-1 kernels, by their manifest names.
pub fn table1_linear() -> Vec<(&'static str, Pattern)> {
    vec![
        ("heat1d", kernels::heat1d()),
        ("d1p5", kernels::d1p5()),
        ("heat2d", kernels::heat2d()),
        ("box2d9p", kernels::box2d9p()),
        ("gb", kernels::gb()),
        ("heat3d", kernels::heat3d()),
        ("box3d27p", kernels::box3d27p()),
    ]
}

/// A grid of extents `ext` (outermost first) filled from `seed`, with
/// the fill split over `threads` threads (first touch where it runs).
pub fn seeded_domain(seed: u64, ext: &[usize], threads: usize) -> JobDomain {
    match *ext {
        [n] => JobDomain::D1(Grid1D::from_fn(n, |i| rng::at(seed, i as u64))),
        [ny, nx] => JobDomain::D2(Grid2D::from_fn(ny, nx, |y, x| {
            rng::at(seed, (y * nx + x) as u64)
        })),
        [nz, ny, nx] => {
            let mut g = Grid3D::zeros_parallel(nz, ny, nx, threads.max(1));
            let (sz, sy) = (g.stride_z(), g.stride_y());
            let per = nz.div_ceil(threads.max(1));
            std::thread::scope(|s| {
                for (c, chunk) in g.as_mut_slice().chunks_mut(sz * per).enumerate() {
                    s.spawn(move || {
                        for (dz, plane) in chunk.chunks_mut(sz).enumerate() {
                            let z = c * per + dz;
                            for y in 0..ny {
                                let base = ((z * ny + y) * nx) as u64;
                                for (x, v) in plane[y * sy..y * sy + nx].iter_mut().enumerate() {
                                    *v = rng::at(seed, base + x as u64);
                                }
                            }
                        }
                    });
                }
            });
            JobDomain::D3(g)
        }
        _ => panic!("domains are 1D, 2D or 3D"),
    }
}

/// Compile `pattern` the way the serve registry compiles its pooled
/// plans: `Method::Auto`, `Tiling::Auto`, `Tuning::Static`, a domain
/// hint, on `pool`.
pub fn registry_plan(pattern: &Pattern, hint: &[usize], pool: &PoolHandle) -> Plan {
    Solver::new(pattern.clone())
        .method(Method::Auto)
        .tiling(Tiling::Auto)
        .tuning(Tuning::Static)
        .domain_hint(hint)
        .pool(pool.clone())
        .compile()
        .expect("the Table-1 kernels compile under Auto/Static")
}

/// `plan`'s resolved configuration recompiled on its own pool of
/// `threads` (and, with `untiled`, without tiling).
pub fn replan(plan: &Plan, threads: usize, untiled: bool) -> Plan {
    let mut s = Solver::new(plan.pattern().clone())
        .method(plan.method())
        .tiling(if untiled { Tiling::None } else { plan.tiling() })
        .width(plan.width())
        .threads(threads);
    if let Some(r) = plan.ring3() {
        s = s.ring3(r);
    }
    s.compile().expect("a resolved configuration recompiles")
}

/// Run `t` steps of `plan` on a domain of any dimensionality.
pub fn run(plan: &Plan, d: &JobDomain, t: usize) -> Result<JobDomain, PlanError> {
    Ok(match d {
        JobDomain::D1(g) => JobDomain::D1(plan.run(g, t)?),
        JobDomain::D2(g) => JobDomain::D2(plan.run(g, t)?),
        JobDomain::D3(g) => JobDomain::D3(plan.run(g, t)?),
    })
}

/// Useful flops of `t` steps on `points` points: the Table-1 count,
/// two flops per nonzero tap per point-step.
pub fn flops(p: &Pattern, points: usize, t: usize) -> f64 {
    (points * t * p.flops_per_point()) as f64
}

/// Steps a tiled sweep keeps a point resident for between two trips
/// through memory: `m` folded steps per sweep times the tile round's
/// time block.
pub fn steps_per_trip(plan: &Plan) -> usize {
    let tb = match plan.tiling() {
        Tiling::Tessellate { time_block } | Tiling::Split { time_block } => time_block,
        _ => 1,
    };
    plan.m() * tb.max(1)
}

/// Computed memory traffic (not measured): one 8-byte read and one
/// 8-byte write per point per trip through memory; `t` steps take
/// `ceil(t / steps_per_trip)` trips.
pub fn computed_bytes(plan: &Plan, points: usize, t: usize) -> f64 {
    16.0 * points as f64 * t.div_ceil(steps_per_trip(plan)) as f64
}

/// Extents for a `dims`-dimensional grid of which two copies (the
/// ping-pong pair) fit in `l2_bytes`; sides are multiples of 8 so no
/// row padding is added.
pub fn l2_extents(dims: usize, l2_bytes: usize) -> Vec<usize> {
    let points = l2_bytes / 16;
    match dims {
        1 => vec![points / 8 * 8],
        2 => {
            let s = ((points as f64).sqrt() as usize) / 8 * 8;
            vec![s, s]
        }
        _ => {
            let s = ((points as f64).cbrt() as usize) / 8 * 8;
            vec![s, s, s]
        }
    }
}
