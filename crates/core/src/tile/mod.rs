//! Tiling layer: tessellate tiling (§3.4), split tiling (the SDSL
//! stand-in) and plain spatial blocking.
//!
//! ## Tessellation geometry
//!
//! Time blocking runs in *rounds* of `tb` (possibly folded) steps. Within
//! a round, each dimension is cut into tiles of width `w >= 2 * reff * tb`
//! (`reff` = radius advanced per inner step: `m * r` for an m-folded
//! kernel). Per dimension a cell has a *triangle profile*
//! `tau(i) = floor(dist_to_tile_edge / reff)` capped at `tb`; the stages
//! then update, at inner step `t`:
//!
//! * triangle ranges `[L + reff*(t+1), R - reff*(t+1))` — shrinking;
//! * inverted ranges `[B - reff*(t+1), B + reff*(t+1))` — growing around
//!   each interior tile boundary `B`.
//!
//! With `w = 2 * reff * tb` the triangles close to a point (the paper's
//! Fig. 7); with a wider `w` they are trapezoids, and the argument below
//! is unchanged. [`tile_size`] fixes `w` once per domain from the
//! *configured* time block and a floor of whole vectors, so a round
//! shorter than the time block (the last one, or a job of fewer steps)
//! runs trapezoids in full-width tiles instead of shrinking its tiles to
//! a few points.
//!
//! A d-dimensional stage is a choice of triangle/inverted per dimension
//! (`2^d` stages, barriers between; the paper's d+1-stage recombination
//! is a scheduling refinement of the same tessellation — see DESIGN.md).
//! Stage `s` updates, at step `t`, the product of its per-dim ranges;
//! every cell is updated exactly `tb` times per round with no redundant
//! computation, and all cross-tile reads within a stage touch only
//! quiescent data — the correctness tests in `tessellate.rs` verify
//! bit-equality against plain sweeps under heavy thread counts.
//!
//! Domain edges: ranges are clamped to the Dirichlet interior
//! `[band, n - band)`, and tiles touching a domain edge do not shrink on
//! that side (their reads hit frozen boundary cells).

pub mod spatial;
pub mod split;
pub mod tessellate;

use core::ops::Range;

/// Tiles span at least this many whole vectors along the innermost (x)
/// axis, the one the vector kernels run along: narrower tiles leave them
/// a few blocks per call, dominated by scalar edges and per-call set-up.
pub const MIN_TILE_VECTORS: usize = 8;

/// Tessellate geometry a domain settles on for every round of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSize {
    /// Inner steps of a full round: the configured time block, clamped
    /// so a `2 * reff * tb` triangle fits every extent's interior (the
    /// clamp of [`DimTiling::max_tb`]).
    pub tb: usize,
    /// Tile width along every axis but the innermost: `2 * reff * tb`.
    /// The outer axis is the one slabs cut, so this width also sets the
    /// halo of sharded and out-of-core runs.
    pub w: usize,
    /// Tile width along the innermost (x) axis: `w`, raised to
    /// [`MIN_TILE_VECTORS`] whole vectors and rounded up to a whole
    /// vector. The only axis of a 1D domain is its innermost.
    pub wx: usize,
}

/// The one place tessellate tile sizes are derived: the drivers, the
/// slab halo arithmetic of sharding and the out-of-core pass geometry
/// all call this, so their tile phases agree (the bit-exact stitches
/// depend on it).
///
/// `extents`: the domain's extent per axis, outermost first; `band`:
/// Dirichlet band; `reff`: radius of one inner step; `time_block`: the
/// configured inner steps per round; `lanes`: the plan's vector width.
pub fn tile_size(
    extents: &[usize],
    band: usize,
    reff: usize,
    time_block: usize,
    lanes: usize,
) -> TileSize {
    let tb = extents
        .iter()
        .map(|&n| DimTiling::max_tb(n, band, reff, time_block))
        .fold(time_block.max(1), usize::min);
    let w = 2 * reff * tb;
    let lanes = lanes.max(1);
    let wx = w.max(MIN_TILE_VECTORS * lanes).next_multiple_of(lanes);
    TileSize { tb, w, wx }
}

/// Per-dimension tessellation geometry for one round.
///
/// Tile boundaries are anchored to **global** coordinates: a dimension
/// that models the local window `[origin, origin + n)` of a larger
/// domain places its tile edges at global multiples of the tile width
/// `w`, not at multiples of the window start. Two windows of the same
/// domain therefore agree on every interior tile they share — the
/// property that lets the serving layer shard register-pipeline plans
/// under tessellate tiling bit-exactly. `origin = 0` (the
/// [`DimTiling::new`] constructor) reproduces the classic whole-domain
/// geometry unchanged.
#[derive(Debug, Clone, Copy)]
pub struct DimTiling {
    /// Grid extent in this dimension (local window length).
    pub n: usize,
    /// Dirichlet band width (frozen cells at each end of the window).
    pub band: usize,
    /// Radius advanced per inner step (`m * r` for folded kernels).
    pub reff: usize,
    /// Inner steps per round.
    pub tb: usize,
    /// Tile width (at least `2 * reff * tb`).
    pub w: usize,
    /// Number of triangle tiles intersecting the window.
    pub ntri: usize,
    /// Global coordinate of local index 0 (tile-phase anchor).
    pub origin: usize,
    /// Global index of the first tile intersecting the window.
    k0: usize,
}

impl DimTiling {
    /// Build the whole-domain geometry (`origin = 0`); `tb` is clamped
    /// so at least one tile fits.
    pub fn new(n: usize, band: usize, reff: usize, tb: usize) -> Self {
        Self::new_at(n, band, reff, tb, 0)
    }

    /// Build the geometry of a local window starting at global
    /// coordinate `origin` — tile phase is derived from global
    /// coordinates, never from the window start. Tiles are the classic
    /// `2 * reff * tb` triangles.
    pub fn new_at(n: usize, band: usize, reff: usize, tb: usize, origin: usize) -> Self {
        Self::with_width(n, band, reff, tb, 2 * reff * tb, origin)
    }

    /// [`DimTiling::new_at`] with tiles of width `w >= 2 * reff * tb`
    /// (trapezoids when wider; see [`tile_size`]).
    pub fn with_width(
        n: usize,
        band: usize,
        reff: usize,
        tb: usize,
        w: usize,
        origin: usize,
    ) -> Self {
        assert!(reff >= 1 && tb >= 1);
        assert!(w >= 2 * reff * tb, "tile narrower than its round");
        assert!(n > 2 * band, "grid smaller than its Dirichlet bands");
        let k0 = origin / w;
        let ntri = ((origin + n).div_ceil(w) - k0).max(1);
        Self {
            n,
            band,
            reff,
            tb,
            w,
            ntri,
            origin,
            k0,
        }
    }

    /// Largest `tb` such that the tile width `2*reff*tb` does not exceed
    /// the interior extent (so profiles are well-formed).
    pub fn max_tb(n: usize, band: usize, reff: usize, wanted: usize) -> usize {
        let interior = n.saturating_sub(2 * band);
        wanted.max(1).min((interior / (2 * reff)).max(1))
    }

    /// Triangle tile `k`'s update range at inner step `t` (may be
    /// empty), in local window coordinates. Tiles at window edges do not
    /// shrink on the edge side (the window edge is a frozen band —
    /// either the true domain edge or a shard's halo boundary).
    pub fn triangle_range(&self, k: usize, t: usize) -> Range<usize> {
        debug_assert!(k < self.ntri && t < self.tb);
        let shrink = self.reff * (t + 1);
        let lo = if k == 0 {
            self.band
        } else {
            // (k0 + k) * w > origin for k >= 1, so the subtraction is safe
            ((self.k0 + k) * self.w - self.origin + shrink).max(self.band)
        };
        let hi = if k == self.ntri - 1 {
            self.n - self.band
        } else {
            ((self.k0 + k + 1) * self.w - self.origin)
                .saturating_sub(shrink)
                .min(self.n - self.band)
        };
        lo..hi.max(lo)
    }

    /// Inverted tile at interior boundary `b` (1..ntri): update range at
    /// inner step `t`, in local window coordinates.
    pub fn inverted_range(&self, b: usize, t: usize) -> Range<usize> {
        debug_assert!(b >= 1 && b < self.ntri && t < self.tb);
        let grow = self.reff * (t + 1);
        let c = (self.k0 + b) * self.w - self.origin;
        let lo = c.saturating_sub(grow).max(self.band);
        let hi = (c + grow).min(self.n - self.band);
        lo..hi.max(lo)
    }

    /// Number of inverted tiles (interior boundaries).
    pub fn ninv(&self) -> usize {
        self.ntri - 1
    }

    /// Range for stage-kind `inv` and tile index `i` at step `t`.
    pub fn range(&self, inv: bool, i: usize, t: usize) -> Range<usize> {
        if inv {
            self.inverted_range(i + 1, t)
        } else {
            self.triangle_range(i, t)
        }
    }

    /// Tile count for stage-kind `inv`.
    pub fn count(&self, inv: bool) -> usize {
        if inv {
            self.ninv()
        } else {
            self.ntri
        }
    }
}

/// Raw two-buffer handle for tile-parallel Jacobi rounds.
///
/// Tiles running concurrently need simultaneous access to both time
/// levels with disjoint write regions; this wrapper hands out raw
/// pointers under the tiling layer's region-disjointness contract
/// (see module docs), keeping all mutation inside documented unsafe.
pub(crate) struct RawPair<G> {
    src0: *mut G,
    dst0: *mut G,
}

// SAFETY: tiles write disjoint regions; stage barriers order everything
// else (contract documented on the tiling drivers).
unsafe impl<G> Send for RawPair<G> {}
unsafe impl<G> Sync for RawPair<G> {}

impl<G> RawPair<G> {
    /// Wrap `(current, scratch)` mutable references.
    pub fn new(cur: &mut G, scratch: &mut G) -> Self {
        Self {
            src0: cur as *mut G,
            dst0: scratch as *mut G,
        }
    }

    /// `(src, dst)` for inner step `t` (parity alternates).
    ///
    /// # Safety
    /// Caller must only write regions no other thread touches during the
    /// same stage, per the tessellation disjointness argument.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn src_dst(&self, t: usize) -> (&G, &mut G) {
        if t.is_multiple_of(2) {
            (&*self.src0, &mut *self.dst0)
        } else {
            (&*self.dst0, &mut *self.src0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_profiles_match_paper_fig7() {
        // W = 8, tb = 4, reff = 1: per-cell update counts from triangles
        // must be the staircase min(dist, tb) for interior tiles.
        let d = DimTiling::new(24, 1, 1, 4);
        assert_eq!(d.w, 8);
        let mut count = [0usize; 24];
        for k in 0..d.ntri {
            for t in 0..d.tb {
                for i in d.triangle_range(k, t) {
                    count[i] += 1;
                }
            }
        }
        // middle tile [8, 16): profile 0,1,2,3,3,2,1,0 relative to edges
        assert_eq!(&count[8..16], &[0, 1, 2, 3, 3, 2, 1, 0]);
    }

    /// `(n, band, reff, tb, w)` cases whose tiles are wider than their
    /// round (`w > 2 * reff * tb`): trapezoids, as a round shorter than
    /// the configured time block runs them.
    const WIDE: [(usize, usize, usize, usize, usize); 5] = [
        (40, 1, 1, 1, 8),
        (64, 2, 2, 1, 16),
        (64, 2, 2, 3, 16),
        (100, 1, 2, 2, 24),
        (33, 1, 1, 2, 64),
    ];

    /// Per-cell update counts of one round (triangles plus inverted).
    fn round_counts(d: &DimTiling) -> Vec<usize> {
        let mut count = vec![0usize; d.n];
        for t in 0..d.tb {
            for k in 0..d.ntri {
                for i in d.triangle_range(k, t) {
                    count[i] += 1;
                }
            }
            for b in 1..d.ntri {
                for i in d.inverted_range(b, t) {
                    count[i] += 1;
                }
            }
        }
        count
    }

    #[test]
    fn triangles_plus_inverted_update_everything_tb_times() {
        for (n, band, reff, tb, w) in [(40usize, 1, 1, 4, 8), (64, 2, 2, 3, 12), (33, 1, 1, 2, 4)]
            .into_iter()
            .chain(WIDE)
        {
            let d = DimTiling::with_width(n, band, reff, tb, w, 0);
            for (i, &c) in round_counts(&d).iter().enumerate() {
                let want = if i < band || i >= n - band { 0 } else { tb };
                assert_eq!(c, want, "n={n} band={band} reff={reff} tb={tb} w={w} i={i}");
            }
        }
    }

    #[test]
    fn no_write_overlap_within_stage_at_any_step_pair() {
        // Disjointness of concurrent tiles: triangle tiles never overlap
        // at any (t, t') pair, and inverted tiles never overlap — for the
        // classic triangles and for trapezoids in wider tiles.
        let cases = [(48usize, 1usize, 1usize, 4usize, 8usize)]
            .into_iter()
            .chain(WIDE);
        for d in cases.map(|(n, band, reff, tb, w)| DimTiling::with_width(n, band, reff, tb, w, 0))
        {
            assert_disjoint(&d);
        }
    }

    fn assert_disjoint(d: &DimTiling) {
        for k1 in 0..d.ntri {
            for k2 in k1 + 1..d.ntri {
                for t1 in 0..d.tb {
                    for t2 in 0..d.tb {
                        let a = d.triangle_range(k1, t1);
                        let b = d.triangle_range(k2, t2);
                        assert!(a.end <= b.start || b.end <= a.start);
                    }
                }
            }
        }
        for b1 in 1..d.ntri {
            for b2 in b1 + 1..d.ntri {
                for t1 in 0..d.tb {
                    for t2 in 0..d.tb {
                        let a = d.inverted_range(b1, t1);
                        let b = d.inverted_range(b2, t2);
                        assert!(a.end <= b.start || b.end <= a.start);
                    }
                }
            }
        }
    }

    #[test]
    fn origin_anchored_windows_update_everything_tb_times() {
        // the tb-updates-per-cell invariant must hold for any window
        // origin, including origins inside a tile
        for (n, band, reff, tb, w, origin) in [
            (40usize, 1usize, 1usize, 4usize, 8usize, 8usize),
            (40, 1, 1, 4, 8, 5),
            (64, 2, 2, 3, 12, 23),
            (33, 1, 1, 2, 4, 100),
            (48, 2, 2, 2, 8, 7),
            // trapezoids: tiles wider than the round
            (40, 1, 1, 1, 8, 5),
            (64, 2, 2, 1, 16, 23),
            (48, 2, 2, 2, 24, 7),
            (33, 1, 1, 2, 64, 100),
        ] {
            let d = DimTiling::with_width(n, band, reff, tb, w, origin);
            for (i, &c) in round_counts(&d).iter().enumerate() {
                let want = if i < band || i >= n - band { 0 } else { tb };
                assert_eq!(c, want, "n={n} w={w} origin={origin} i={i}");
            }
        }
    }

    #[test]
    fn origin_anchored_interior_tiles_match_whole_domain() {
        // a window [o, o+n) of a larger domain reproduces, translated,
        // every tile range that is fully interior to both — tile phase
        // comes from global coordinates, not the window start
        let big = DimTiling::new(96, 1, 1, 3); // w = 6
        for o in [18usize, 21, 30] {
            let n = 48;
            let win = DimTiling::new_at(n, 1, 1, 3, o);
            assert_eq!(win.w, big.w);
            for t in 0..3 {
                for k in 1..win.ntri - 1 {
                    let kg = o / win.w + k;
                    if kg == 0 || kg >= big.ntri - 1 {
                        continue;
                    }
                    let wr = win.triangle_range(k, t);
                    let br = big.triangle_range(kg, t);
                    // compare only ranges unclamped by either edge band
                    if wr.start > win.band
                        && wr.end < win.n - win.band
                        && br.start > big.band
                        && br.end < big.n - big.band
                    {
                        assert_eq!(
                            (wr.start + o, wr.end + o),
                            (br.start, br.end),
                            "o={o} k={k} t={t}"
                        );
                    }
                }
                for b in 1..win.ntri {
                    let bg = o / win.w + b;
                    let wr = win.inverted_range(b, t);
                    let br = big.inverted_range(bg, t);
                    if wr.start > win.band && wr.end < win.n - win.band {
                        assert_eq!(
                            (wr.start + o, wr.end + o),
                            (br.start, br.end),
                            "o={o} b={b} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_size_follows_the_time_block_not_the_round() {
        // heat2d folded m = 2 (reff 2), time block 8, W8: the round
        // clamp comes from the configured block, the x axis gets the
        // vector floor, and short domains clamp tb as max_tb does
        let ts = tile_size(&[181, 181], 2, 2, 8, 8);
        assert_eq!(
            ts,
            TileSize {
                tb: 8,
                w: 32,
                wx: 64
            }
        );
        // a wide round already covers the floor; wx rounds up to lanes
        assert_eq!(tile_size(&[4096], 1, 3, 32, 4).wx, 192);
        assert_eq!(tile_size(&[4096], 1, 1, 3, 4).wx, 32);
        assert_eq!(tile_size(&[4096], 1, 5, 3, 8).wx, 64);
        // the interior of the shortest extent caps tb
        let ts = tile_size(&[64, 12, 64], 2, 2, 4, 4);
        assert_eq!((ts.tb, ts.w), (2, 8));
        // degenerate extents never underflow
        assert_eq!(tile_size(&[3], 2, 2, 4, 4).tb, 1);
    }

    #[test]
    fn shard_geometry_of_a_two_step_folded_plan_stitches_bit_exactly() {
        // a 2-step job on a Folded { m: 2 } plan runs one one-step round:
        // its tiles are still sized by the time block, and the halo must
        // grow by that width (not by the round's 2 * reff) for slabs run
        // at their global origin to reproduce the full run bit for bit
        use crate::slab::{interior_ranges, shard_geometry, slab_bounds};
        use crate::{kernels, Method, Solver, Tiling};
        use stencil_grid::Grid2D;
        let plan = Solver::new(kernels::box2d9p())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 8 })
            .threads(2)
            .compile()
            .unwrap();
        let (ny, nx, t) = (160usize, 72usize, 2usize);
        let ts = tile_size(&[ny, nx], 2, 2, 8, plan.width().lanes());
        let (halo, min_span) = shard_geometry(&plan, t, ny, &[nx]);
        assert_eq!(halo, t + ts.w);
        assert_eq!(min_span, 2 * 2 * (ts.tb + 1));
        let g = Grid2D::from_fn(ny, nx, |y, x| ((y * 7 + x * 3) % 19) as f64 * 0.25);
        let full = plan.run_2d(&g, t).unwrap();
        for (lo, hi) in interior_ranges(ny, 3) {
            let (slo, shi) = slab_bounds(lo, hi, ny, halo, plan.effective_radius());
            assert!(shi - slo >= min_span);
            let slab = Grid2D::from_fn(shi - slo, nx, |y, x| g.row(y + slo)[x]);
            let out = plan.run_2d_at(&slab, t, slo).unwrap();
            for y in lo..hi {
                let (a, b) = (out.row(y - slo), full.row(y));
                assert!(
                    a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "row {y} of slab [{slo}, {shi}) diverged"
                );
            }
        }
    }

    #[test]
    fn max_tb_keeps_tiles_inside() {
        assert_eq!(DimTiling::max_tb(100, 1, 1, 10), 10);
        assert_eq!(DimTiling::max_tb(100, 1, 1, 1000), 49);
        assert_eq!(DimTiling::max_tb(20, 2, 2, 8), 4);
        assert!(DimTiling::max_tb(6, 2, 1, 5) >= 1);
    }

    #[test]
    fn raw_pair_parity() {
        let mut a = vec![1.0f64];
        let mut b = vec![2.0f64];
        let pair = RawPair::new(&mut a, &mut b);
        unsafe {
            let (s0, d0) = pair.src_dst(0);
            assert_eq!(s0[0], 1.0);
            d0[0] = 5.0;
            let (s1, _) = pair.src_dst(1);
            assert_eq!(s1[0], 5.0);
        }
    }
}
