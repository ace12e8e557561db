//! Tessellate tiling drivers (1D/2D/3D), generic over the inner kernel.
//!
//! Each driver advances a ping-pong pair by `steps` *inner* steps (an
//! inner step is whatever the kernel does — one time level for plain
//! kernels, `m` levels for folded ones), in rounds of at most `tb` steps,
//! on tiles sized by [`tile_size`] from `tb` and the kernel's vector
//! width `lanes`.
//! Within a round the stages run under pool barriers; tiles within a
//! stage run in parallel, each executing its whole time loop (the
//! temporal reuse that makes tessellation a cache-blocking scheme).
//!
//! Kernel contract (the tiles' disjointness proof depends on it): a call
//! `kernel(src, dst, region)` writes exactly `region` of `dst` and reads
//! only within `reff` of `region` in `src`.

use crate::tile::{tile_size, DimTiling, RawPair};
use core::ops::Range;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::{parallel_for, ThreadPool};

/// Tessellated 1D run: advances `pp` by `steps` inner steps.
///
/// `reff`: radius of one inner step; `band`: Dirichlet band width;
/// `tb`: requested inner steps per round; `lanes`: the kernel's vector
/// width; `kernel(src, dst, lo, hi)`.
#[allow(clippy::too_many_arguments)] // the tile-size inputs ride along
pub fn run_1d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid1D>,
    reff: usize,
    band: usize,
    tb: usize,
    lanes: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&[f64], &mut [f64], usize, usize) + Sync,
{
    let n = pp.current().len();
    let ts = tile_size(&[n], band, reff, tb, lanes);
    let mut remaining = steps;
    while remaining > 0 {
        let tb_round = ts.tb.min(remaining);
        let dim = DimTiling::with_width(n, band, reff, tb_round, ts.wx, 0);
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        for stage_inv in [false, true] {
            let tiles = dim.count(stage_inv);
            parallel_for(pool, tiles, 1, &|tile_range: Range<usize>| {
                for i in tile_range {
                    for t in 0..tb_round {
                        let r = dim.range(stage_inv, i, t);
                        if r.is_empty() {
                            continue;
                        }
                        // SAFETY: within a stage, tile write regions are
                        // disjoint across all step pairs (tested in
                        // tile::tests) and reads stay within reff of the
                        // region, touching only quiescent or own data.
                        let (src, dst) = unsafe { pair.src_dst(t) };
                        kernel(src.as_slice(), dst.as_mut_slice(), r.start, r.end);
                    }
                }
            });
        }
        // Boundary cells must keep their frozen values in both arrays;
        // they were never written, and both arrays already agree there.
        for _ in 0..tb_round {
            pp.swap();
        }
        remaining -= tb_round;
    }
}

/// Tessellated 2D run. Stages: TT, VT (x-valley), TV (y-valley), VV.
#[allow(clippy::too_many_arguments)] // the tile-size inputs ride along
pub fn run_2d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid2D>,
    reff: usize,
    band: usize,
    tb: usize,
    lanes: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid2D, &mut Grid2D, Range<usize>, Range<usize>) + Sync,
{
    run_2d_at(pool, pp, reff, band, tb, lanes, steps, 0, kernel)
}

/// [`run_2d`] over a local window whose outer (y) axis starts at global
/// coordinate `origin_y`: tile phase is anchored to global coordinates,
/// so two windows of one domain agree on every tile they share (the
/// bit-exact-sharding contract; see [`DimTiling::new_at`]).
#[allow(clippy::too_many_arguments)] // origin rides along the driver's parameter set
pub fn run_2d_at<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid2D>,
    reff: usize,
    band: usize,
    tb: usize,
    lanes: usize,
    steps: usize,
    origin_y: usize,
    kernel: &K,
) where
    K: Fn(&Grid2D, &mut Grid2D, Range<usize>, Range<usize>) + Sync,
{
    let (ny, nx) = (pp.current().ny(), pp.current().nx());
    let ts = tile_size(&[ny, nx], band, reff, tb, lanes);
    let mut remaining = steps;
    while remaining > 0 {
        let tb_round = ts.tb.min(remaining);
        let dy = DimTiling::with_width(ny, band, reff, tb_round, ts.w, origin_y);
        let dx = DimTiling::with_width(nx, band, reff, tb_round, ts.wx, 0);
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        for stage in 0..4u32 {
            let (inv_y, inv_x) = (stage & 2 != 0, stage & 1 != 0);
            let (cy, cx) = (dy.count(inv_y), dx.count(inv_x));
            let tiles = cy * cx;
            parallel_for(pool, tiles, 1, &|tile_range: Range<usize>| {
                for tile in tile_range {
                    let (iy, ix) = (tile / cx, tile % cx);
                    for t in 0..tb_round {
                        let yr = dy.range(inv_y, iy, t);
                        let xr = dx.range(inv_x, ix, t);
                        if yr.is_empty() || xr.is_empty() {
                            continue;
                        }
                        // SAFETY: per-dimension disjointness makes the
                        // product regions disjoint within a stage; reads
                        // stay within reff (kernel contract).
                        let (src, dst) = unsafe { pair.src_dst(t) };
                        kernel(src, dst, yr, xr);
                    }
                }
            });
        }
        for _ in 0..tb_round {
            pp.swap();
        }
        remaining -= tb_round;
    }
}

/// Tessellated 3D run (8 stages: every triangle/inverted choice per dim).
#[allow(clippy::too_many_arguments)] // the tile-size inputs ride along
pub fn run_3d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid3D>,
    reff: usize,
    band: usize,
    tb: usize,
    lanes: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid3D, &mut Grid3D, Range<usize>, Range<usize>, Range<usize>) + Sync,
{
    run_3d_at(pool, pp, reff, band, tb, lanes, steps, 0, kernel)
}

/// [`run_3d`] over a local window whose outer (z) axis starts at global
/// coordinate `origin_z` (see [`run_2d_at`]).
#[allow(clippy::too_many_arguments)] // origin rides along the driver's parameter set
pub fn run_3d_at<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid3D>,
    reff: usize,
    band: usize,
    tb: usize,
    lanes: usize,
    steps: usize,
    origin_z: usize,
    kernel: &K,
) where
    K: Fn(&Grid3D, &mut Grid3D, Range<usize>, Range<usize>, Range<usize>) + Sync,
{
    let (nz, ny, nx) = (pp.current().nz(), pp.current().ny(), pp.current().nx());
    let ts = tile_size(&[nz, ny, nx], band, reff, tb, lanes);
    let mut remaining = steps;
    while remaining > 0 {
        let tb_round = ts.tb.min(remaining);
        let dz = DimTiling::with_width(nz, band, reff, tb_round, ts.w, origin_z);
        let dy = DimTiling::with_width(ny, band, reff, tb_round, ts.wx, 0);
        let dx = DimTiling::with_width(nx, band, reff, tb_round, ts.wx, 0);
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        for stage in 0..8u32 {
            let (inv_z, inv_y, inv_x) = (stage & 4 != 0, stage & 2 != 0, stage & 1 != 0);
            let (cz, cy, cx) = (dz.count(inv_z), dy.count(inv_y), dx.count(inv_x));
            let tiles = cz * cy * cx;
            parallel_for(pool, tiles, 1, &|tile_range: Range<usize>| {
                for tile in tile_range {
                    let (iz, rem) = (tile / (cy * cx), tile % (cy * cx));
                    let (iy, ix) = (rem / cx, rem % cx);
                    for t in 0..tb_round {
                        let zr = dz.range(inv_z, iz, t);
                        let yr = dy.range(inv_y, iy, t);
                        let xr = dx.range(inv_x, ix, t);
                        if zr.is_empty() || yr.is_empty() || xr.is_empty() {
                            continue;
                        }
                        // SAFETY: same disjointness argument, per dim.
                        let (src, dst) = unsafe { pair.src_dst(t) };
                        kernel(src, dst, zr, yr, xr);
                    }
                }
            });
        }
        for _ in 0..tb_round {
            pp.swap();
        }
        remaining -= tb_round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{folded, multiload, scalar};
    use crate::folding::fold;
    use crate::kernels;
    use crate::pattern::Pattern;
    use stencil_grid::max_abs_diff;
    use stencil_simd::NativeF64x4;

    fn pool() -> ThreadPool {
        ThreadPool::new(8)
    }

    #[test]
    fn tess_1d_scalar_kernel_matches_plain_sweep() {
        let p = kernels::heat1d();
        let n = 257;
        let steps = 11;
        let g = Grid1D::from_fn(n, |i| ((i * 37) % 19) as f64 * 0.4);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let taps = p.weights().to_vec();
        let mut pp = PingPong::new(g);
        run_1d(
            &pool(),
            &mut pp,
            1,
            1,
            4,
            1,
            steps,
            &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
        );
        assert_eq!(pp.steps(), steps);
        assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
    }

    #[test]
    fn tess_1d_vector_kernel_and_radius2() {
        let p = kernels::d1p5();
        let n = 400;
        let steps = 9;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.05).sin());
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let taps = p.weights().to_vec();
        let mut pp = PingPong::new(g);
        run_1d(
            &pool(),
            &mut pp,
            2,
            2,
            5,
            4,
            steps,
            &|s: &[f64], d: &mut [f64], lo, hi| {
                multiload::step_range_1d::<NativeF64x4>(s, d, &taps, lo, hi)
            },
        );
        assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
    }

    #[test]
    fn tess_1d_folded_squares_kernel() {
        // folded m=2 kernel within tessellation: reff = 2, band = 2
        let p = kernels::heat1d();
        let f = fold(&p, 2);
        let n = 512;
        let folded_steps = 8; // = 16 time levels
        let g = Grid1D::from_fn(n, |i| ((i * 13) % 31) as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &f, folded_steps);
        let taps = f.weights().to_vec();
        let mut pp = PingPong::new(g);
        run_1d(
            &pool(),
            &mut pp,
            2,
            2,
            3,
            4,
            folded_steps,
            &|s: &[f64], d: &mut [f64], lo, hi| {
                folded::step_squares_range_1d::<NativeF64x4>(s, d, &taps, lo, hi)
            },
        );
        assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
    }

    #[test]
    fn tess_2d_matches_plain_sweep() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(49, 61, |y, x| ((y * 11 + x * 3) % 23) as f64);
            let steps = 7;
            let mut want = PingPong::new(g.clone());
            scalar::sweep_2d(&mut want, &p, steps);
            let pc = p.clone();
            let mut pp = PingPong::new(g);
            run_2d(
                &pool(),
                &mut pp,
                1,
                1,
                3,
                4,
                steps,
                &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                    multiload::step_range_2d::<NativeF64x4>(s, d, &pc, ys, xs)
                },
            );
            assert!(
                max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12,
                "pts={}",
                p.points()
            );
        }
    }

    #[test]
    fn tess_2d_folded_kernel_matches_scalar_folded() {
        let p = kernels::box2d9p();
        let f = fold(&p, 2);
        let k = folded::FoldedKernel::new(&p, 2);
        let g = Grid2D::from_fn(53, 47, |y, x| ((y * 7 + x * 13) % 29) as f64 * 0.3);
        let folded_steps = 5;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_2d(&mut want, &f, folded_steps);
        let mut pp = PingPong::new(g);
        run_2d(
            &pool(),
            &mut pp,
            2,
            2,
            2,
            4,
            folded_steps,
            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                folded::step_range_2d::<NativeF64x4>(&k, s, d, ys, xs)
            },
        );
        assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-10);
    }

    #[test]
    fn tess_3d_matches_plain_sweep() {
        let p = kernels::heat3d();
        let g = Grid3D::from_fn(17, 19, 23, |z, y, x| ((z * 3 + y * 5 + x * 7) % 13) as f64);
        let steps = 5;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_3d(&mut want, &p, steps);
        let pc = p.clone();
        let mut pp = PingPong::new(g);
        run_3d(
            &pool(),
            &mut pp,
            1,
            1,
            2,
            4,
            steps,
            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                multiload::step_range_3d::<NativeF64x4>(s, d, &pc, zs, ys, xs)
            },
        );
        assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12);
    }

    #[test]
    fn tess_many_threads_stress() {
        // race detector by repetition: high thread count, tiny tiles
        let p = kernels::heat1d();
        let taps = p.weights().to_vec();
        let n = 1000;
        let g = Grid1D::from_fn(n, |i| (i % 97) as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, 24);
        let big_pool = ThreadPool::new(16);
        for _ in 0..5 {
            let mut pp = PingPong::new(g.clone());
            run_1d(
                &big_pool,
                &mut pp,
                1,
                1,
                6,
                1,
                24,
                &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
            );
            assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tess_handles_tb_larger_than_grid_allows() {
        // requested tb too big: driver clamps it per round
        let p = kernels::heat1d();
        let taps = p.weights().to_vec();
        let g = Grid1D::from_fn(24, |i| i as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, 10);
        let mut pp = PingPong::new(g);
        run_1d(
            &pool(),
            &mut pp,
            1,
            1,
            1000,
            1,
            10,
            &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
        );
        assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
    }

    #[test]
    fn tess_2d_life_nonlinear_kernel() {
        use crate::exec::life;
        let g = life::random_soup(40, 44, 3);
        let steps = 6;
        // reference: plain generations
        let want = life::sweep::<NativeF64x4>(&g, steps);
        let mut pp = PingPong::new(g);
        run_2d(
            &pool(),
            &mut pp,
            1,
            1,
            3,
            4,
            steps,
            &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range::<NativeF64x4>(s, d, ys, xs),
        );
        assert!(max_abs_diff(&want.to_dense(), &pp.current().to_dense()) < 1e-15);
    }

    /// Property-style: random shapes and step counts, scalar kernel.
    #[test]
    fn tess_2d_randomized_shapes() {
        let p = Pattern::new_2d(1, &[0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05]);
        for (ny, nx, steps, tb) in [
            (20usize, 35usize, 3usize, 2usize),
            (31, 22, 8, 5),
            (64, 17, 6, 4),
        ] {
            let g = Grid2D::from_fn(ny, nx, |y, x| ((y * 17 + x * 29) % 41) as f64);
            let mut want = PingPong::new(g.clone());
            scalar::sweep_2d(&mut want, &p, steps);
            let pc = p.clone();
            let mut pp = PingPong::new(g);
            run_2d(
                &pool(),
                &mut pp,
                1,
                1,
                tb,
                1,
                steps,
                &|s: &Grid2D, d: &mut Grid2D, ys, xs| scalar::step_range_2d(s, d, &pc, ys, xs),
            );
            assert!(
                max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12,
                "ny={ny} nx={nx} steps={steps} tb={tb}"
            );
        }
    }
}
