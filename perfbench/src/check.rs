//! Output checks against the scalar stencil.
//!
//! Full grids are compared against a `Method::Scalar` plan run. Grids
//! too large (or too remote) to recompute are checked at seeded sample
//! points whose dependence cone stays clear of the Dirichlet boundary:
//! the reference value is the scalar stencil applied `t` times over
//! that cone of the input.

use crate::rng::Rng;
use stencil_core::Pattern;
use stencil_serve::JobDomain;

/// Largest admissible |output - reference|. The kernels are weighted
/// averages over O(1) data; this admits the reassociation that
/// folding and FMA contraction introduce across ISAs (the workspace's
/// cross-executor suites use the same bound) and nothing looser.
pub const TOL: f64 = 1e-11;

/// Extents of `d` as `[nz, ny, nx]`, unused leading axes 1.
pub fn extents3(d: &JobDomain) -> [usize; 3] {
    let e = d.extents();
    let mut out = [1; 3];
    out[3 - e.len()..].copy_from_slice(&e);
    out
}

/// Value of `d` at `[z, y, x]` (leading coordinates 0 below 3D).
pub fn value(d: &JobDomain, p: [usize; 3]) -> f64 {
    match d {
        JobDomain::D1(g) => g[p[2]],
        JobDomain::D2(g) => g[(p[1], p[2])],
        JobDomain::D3(g) => g[(p[0], p[1], p[2])],
    }
}

/// The interior margin a sample needs for `t` steps of `p`: farther
/// than `radius * t` from every boundary.
pub fn margin(p: &Pattern, t: usize) -> usize {
    p.radius() * t + 1
}

/// `n` seeded sample points of a domain with extents `ext` (`[nz, ny,
/// nx]`), each at least `margin` from the boundary on the active axes
/// (the last `dims`). Empty when the domain is too small.
pub fn sample_points(
    rng: &mut Rng,
    ext: [usize; 3],
    dims: usize,
    margin: usize,
    n: usize,
) -> Vec<[usize; 3]> {
    if (3 - dims..3).any(|a| ext[a] < 2 * margin + 1) {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let mut p = [0; 3];
            for a in 3 - dims..3 {
                p[a] = rng.range(margin, ext[a] - margin);
            }
            p
        })
        .collect()
}

/// The scalar reference for the value at the centre of a dependence
/// cone after `t` steps of `p`. `input(o)` returns the input value at
/// offset `o` (`[dz, dy, dx]`, each within `radius * t`) from the
/// centre.
pub fn cone_value(p: &Pattern, t: usize, input: impl Fn([isize; 3]) -> f64) -> f64 {
    let (dims, r) = (p.dims(), p.radius() as isize);
    let active = |a: usize| a >= 3 - dims;
    let mut h = r * t as isize;
    let side = |h: isize, a: usize| if active(a) { (2 * h + 1) as usize } else { 1 };
    let idx = |h: isize, o: [isize; 3]| {
        let s = [side(h, 0), side(h, 1), side(h, 2)];
        let c = |a: usize| if active(a) { (o[a] + h) as usize } else { 0 };
        (c(0) * s[1] + c(1)) * s[2] + c(2)
    };
    let offsets = |h: isize| {
        let rng = |a: usize| if active(a) { -h..=h } else { 0..=0 };
        let mut v = Vec::new();
        for dz in rng(0) {
            for dy in rng(1) {
                for dx in rng(2) {
                    v.push([dz, dy, dx]);
                }
            }
        }
        v
    };
    let mut cur: Vec<f64> = offsets(h).into_iter().map(&input).collect();
    let taps = offsets(r);
    for _ in 0..t {
        let nh = h - r;
        cur = offsets(nh)
            .into_iter()
            .map(|o| {
                taps.iter().fold(0.0, |acc, d| {
                    let w = p.at(d[0], d[1], d[2]);
                    acc + w * cur[idx(h, [o[0] + d[0], o[1] + d[1], o[2] + d[2]])]
                })
            })
            .collect();
        h = nh;
    }
    cur[0]
}

/// Reference values at `points` after `t` steps of `p` from `input`.
pub fn cone_refs(p: &Pattern, t: usize, input: &JobDomain, points: &[[usize; 3]]) -> Vec<f64> {
    points
        .iter()
        .map(|c| {
            cone_value(p, t, |o| {
                let at = |a: usize| (c[a] as isize + o[a]) as usize;
                value(input, [at(0), at(1), at(2)])
            })
        })
        .collect()
}

/// True when `got` is within [`TOL`] of `want` (false for NaN).
pub fn within_tol(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL
}

/// Sample points of `out` that miss their reference by more than
/// [`TOL`].
pub fn mismatches(out: &JobDomain, points: &[[usize; 3]], refs: &[f64]) -> usize {
    points
        .iter()
        .zip(refs)
        .filter(|(p, r)| !within_tol(value(out, **p), **r))
        .count()
}

/// Dense row-major copy of `d` (padding stripped).
pub fn dense(d: &JobDomain) -> Vec<f64> {
    match d {
        JobDomain::D1(g) => g.as_slice().to_vec(),
        JobDomain::D2(g) => g.to_dense(),
        JobDomain::D3(g) => g.to_dense(),
    }
}

/// True when `a` and `b` agree within [`TOL`] everywhere.
pub fn all_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| within_tol(*x, *y))
}

/// How a workload's outputs are verified: a full reference grid, seeded
/// cone samples, or both. A check with neither fails every output.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// The full scalar-reference output, dense.
    pub full: Option<Vec<f64>>,
    /// Seeded interior sample coordinates `[z, y, x]`.
    pub points: Vec<[usize; 3]>,
    /// Cone reference value at each sample.
    pub refs: Vec<f64>,
}

impl Check {
    /// Seeded cone samples for `t` steps of `p` on `input`: `n` points
    /// clear of the boundary by the cone's reach.
    pub fn cone(rng: &mut Rng, p: &Pattern, t: usize, input: &JobDomain, n: usize) -> Self {
        let points = sample_points(rng, extents3(input), p.dims(), margin(p, t), n);
        let refs = cone_refs(p, t, input, &points);
        Check {
            full: None,
            points,
            refs,
        }
    }

    /// True when `out` passes every check this carries.
    pub fn passes(&self, out: &JobDomain) -> bool {
        let full_ok = self
            .full
            .as_ref()
            .is_none_or(|want| all_close(&dense(out), want));
        let cone_ok = mismatches(out, &self.points, &self.refs) == 0;
        (self.full.is_some() || !self.points.is_empty()) && full_ok && cone_ok
    }
}
