//! Compiled execution plans: validation, derived artifacts, and the
//! dimension-dispatched run paths.

use super::config::{Method, Ring3, Solver, Tiling, Tuning, Width};
use super::error::PlanError;
use crate::exec::folded::{self, FoldedKernel, MAX_R, MAX_R3};
use crate::exec::folded3d;
use crate::exec::{dlt, multiload, reorg, scalar, xlayout};
use crate::folding::fold;
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use crate::tile::{spatial, split, tessellate};
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::portable::{PF64x4, PF64x8};
use stencil_simd::{Isa, SimdF64};

/// Evaluate `$body` with the type alias `$V` bound to `plan`'s vector
/// backend: the intrinsic backend of its dispatched ISA ([`Plan::isa`]),
/// else the portable one of its width.
macro_rules! with_backend {
    ($plan:expr, $V:ident => $body:expr) => {
        match ($plan.width, $plan.isa) {
            (Width::W1, _) => {
                type $V = f64;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Width::W4, Isa::Avx2) => {
                type $V = stencil_simd::avx2::F64x4;
                $body
            }
            (Width::W4, _) => {
                type $V = PF64x4;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Width::W8, Isa::Avx512) => {
                type $V = stencil_simd::avx512::F64x8;
                $body
            }
            (Width::W8, _) => {
                type $V = PF64x8;
                $body
            }
        }
    };
}

/// Largest folded radius `m * r` the register pipeline supports for a
/// pattern of dimensionality `dims` at vector width `width` (the 1D
/// assembled vectors reach one lane per radius cell; 2D is bounded by
/// the fixed register windows of [`crate::exec::folded`]). The 3D bound
/// is the register-budget gate of the z-ring pipeline: [`MAX_R3`]
/// capped by the lane count, since the transpose window holds one
/// column per lane — a deep fold that cannot keep its window in
/// registers is rejected at compile time rather than silently degraded.
/// Scalar lanes keep the pre-ring cap of 2 (they run the scalar folded
/// sweep, where the window budget is moot).
pub(crate) fn fold_radius_cap(dims: usize, width: Width) -> usize {
    match dims {
        1 => width.lanes(),
        2 => MAX_R,
        _ => MAX_R3.min(width.lanes().max(2)),
    }
}

/// Reject degenerate or out-of-bound z-ring geometries with a typed
/// error (shared by the user-pinned and tuner-supplied paths).
fn validate_ring(r: Ring3) -> Result<(), PlanError> {
    if r.depth == 0 {
        return Err(PlanError::InvalidRing {
            ring: r,
            reason: "depth must be >= 1",
        });
    }
    if r.slab == 0 {
        return Err(PlanError::InvalidRing {
            ring: r,
            reason: "slab must be >= 1",
        });
    }
    if !r.valid() {
        return Err(PlanError::InvalidRing {
            ring: r,
            reason: "depth/slab exceed the supported ring bounds",
        });
    }
    Ok(())
}

/// Range-kernel family a method maps to inside the tiled drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Scalar,
    Vector,
    Register,
}

fn family(method: Method) -> Family {
    match method {
        Method::Scalar => Family::Scalar,
        Method::TransposeLayout | Method::Folded { .. } => Family::Register,
        // MultipleLoads and DataReorg share the unaligned-load kernel in
        // tiled execution; Dlt/Auto never reach a tiled family (compile
        // rejects or resolves them).
        _ => Family::Vector,
    }
}

/// A validated, compiled stencil execution plan.
///
/// Produced by [`Solver::compile`]; owns everything the runs reuse:
///
/// * the folded pattern Λ ([`Plan::folded`]) and, for 2D/3D register
///   pipelines, the planned [`FoldedKernel`] with its counterpart
///   schedule,
/// * the resolved [`Method`] (never [`Method::Auto`]) and [`Width`],
/// * the [`Isa`] its kernels run on: detected on this CPU at compile
///   time, never configured,
/// * a shared [`PoolHandle`] whose worker threads outlive the plan's
///   runs — clone the handle into several plans to amortize one pool.
///
/// `run_1d`/`run_2d`/`run_3d` (or the dimension-generic [`Plan::run`])
/// can be invoked any number of times; the only errors they can return
/// concern the grid itself — [`PlanError::DimensionMismatch`], plus
/// [`PlanError::MisalignedDomain`]/[`PlanError::DomainTooSmall`] for
/// DLT-layout plans, whose lifted rows constrain the innermost extent.
/// No planning work happens per run.
pub struct Plan {
    pattern: Pattern,
    method: Method,
    tiling: Tiling,
    width: Width,
    /// Instruction set the kernels dispatch to (`Isa::detect()` narrowed
    /// to the backend serving `width`).
    isa: Isa,
    pool: PoolHandle,
    /// Fold factor (1 unless the method is `Folded { m > 1 }`).
    m: usize,
    /// `fold(pattern, m)`; equals `pattern` when `m == 1`.
    folded: Pattern,
    /// 2D/3D register-pipeline kernel (transpose-layout / folded paths).
    kernel: Option<FoldedKernel>,
    /// Single-step register kernel for the `t % m` tessellate tail.
    tail_kernel: Option<FoldedKernel>,
    /// Resolved z-ring geometry (`Some` exactly for 3D register plans).
    ring3: Option<Ring3>,
    /// Opaque identity epoch ([`Solver::epoch`]): a generation counter
    /// for plan hot-swapping, with no effect on execution.
    epoch: u64,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("dims", &self.dims())
            .field("method", &self.method)
            .field("tiling", &self.tiling)
            .field("width", &self.width)
            .field("isa", &self.isa)
            .field("threads", &self.pool.threads())
            .field("m", &self.m)
            .field("effective_radius", &self.folded.radius())
            .field("ring3", &self.ring3)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Plan {
    /// Validate `cfg` and derive the reusable artifacts (see
    /// [`Solver::compile`], the public entry point).
    pub(crate) fn compile(cfg: &Solver) -> Result<Plan, PlanError> {
        let p = &cfg.pattern;
        let dims = p.dims();
        let threads = cfg
            .pool
            .as_ref()
            .map(|h| h.threads())
            .unwrap_or(cfg.threads);

        // A user-pinned z-ring geometry is rejected *before* any tuner
        // involvement: the error must be PlanError::InvalidRing in
        // every tuning mode, never a TuningFailed after a wasted probe
        // pass over candidates that cannot compile.
        if let Some(r) = cfg.ring3 {
            validate_ring(r)?;
        }

        // Resolve Method::Auto / Tiling::Auto first. The measured modes
        // route through the installed tuner; Static (and measured modes
        // with nothing left to tune) resolve from the §3.2 cost model.
        let auto_parts = matches!(cfg.method, Method::Auto) || matches!(cfg.tiling, Tiling::Auto);
        let (method, tiling, width, tuned_ring) = if auto_parts && cfg.tuning != Tuning::Static {
            let tuner = crate::tune::installed_tuner()
                .ok_or(PlanError::TunerUnavailable { mode: cfg.tuning })?;
            let req = crate::tune::TuneRequest {
                pattern: p,
                width: cfg.width,
                threads,
                method: match cfg.method {
                    Method::Auto => None,
                    m => Some(m),
                },
                tiling: match cfg.tiling {
                    Tiling::Auto => None,
                    t => Some(t),
                },
                domain_hint: cfg.domain_hint.as_deref(),
                ring3: cfg.ring3,
                mode: cfg.tuning,
            };
            let d = tuner.tune(&req).map_err(|e| match e {
                crate::tune::TuneFailure::CacheMiss { key } => PlanError::TuneCacheMiss { key },
                crate::tune::TuneFailure::Failed { reason } => PlanError::TuningFailed { reason },
            })?;
            // A decision must be concrete; if a (buggy or foreign)
            // tuner leaks an Auto through, resolve the remnant
            // statically so no Plan ever carries Auto.
            let method = match d.method {
                Method::Auto => crate::tune::auto_method(p, d.width, d.tiling),
                m => m,
            };
            let tiling = match d.tiling {
                Tiling::Auto => crate::tune::auto_tiling(dims, method, threads),
                t => t,
            };
            // the user's pinned ring always beats the tuner's
            (method, tiling, d.width, cfg.ring3.or(d.ring3))
        } else {
            let method = match cfg.method {
                Method::Auto => crate::tune::auto_method(p, cfg.width, cfg.tiling),
                m => m,
            };
            let tiling = match cfg.tiling {
                Tiling::Auto => crate::tune::auto_tiling(dims, method, threads),
                t => t,
            };
            (method, tiling, cfg.width, cfg.ring3)
        };

        // A tuner-supplied ring (cache entries are external input) gets
        // the same validation as the user's.
        if let Some(r) = tuned_ring {
            validate_ring(r)?;
        }

        // Degenerate tiling parameters.
        match tiling {
            Tiling::Tessellate { time_block } | Tiling::Split { time_block } if time_block == 0 => {
                return Err(PlanError::InvalidTiling {
                    tiling,
                    reason: "time_block must be >= 1",
                })
            }
            Tiling::Spatial { block: (a, b) } if a == 0 || b == 0 => {
                return Err(PlanError::InvalidTiling {
                    tiling,
                    reason: "spatial block extents must be >= 1",
                })
            }
            _ => {}
        }

        // Method × tiling compatibility.
        match (method, tiling) {
            (Method::Dlt, Tiling::Tessellate { .. } | Tiling::Spatial { .. }) => {
                return Err(PlanError::IncompatibleMethodTiling { method, tiling })
            }
            (m, Tiling::Split { .. }) if m != Method::Dlt => {
                return Err(PlanError::IncompatibleMethodTiling { method, tiling })
            }
            (Method::TransposeLayout | Method::Folded { .. }, Tiling::Spatial { .. }) => {
                return Err(PlanError::IncompatibleMethodTiling { method, tiling })
            }
            _ => {}
        }

        // Dimensionality limits.
        if matches!(tiling, Tiling::Spatial { .. }) && dims == 1 {
            return Err(PlanError::UnsupportedDimension {
                feature: "spatial blocking",
                pattern_dims: 1,
            });
        }
        if method == Method::Dlt && matches!(tiling, Tiling::None) && dims != 1 {
            return Err(PlanError::UnsupportedDimension {
                feature: "block-free DLT (pair Method::Dlt with Tiling::Split for the SDSL hybrid)",
                pattern_dims: dims,
            });
        }

        // Folding bounds.
        let m = match method {
            Method::Folded { m } => m,
            _ => 1,
        };
        if m == 0 {
            return Err(PlanError::InvalidFold {
                m: 0,
                folded_radius: 0,
                max_radius: 0,
            });
        }
        let register = family(method) == Family::Register;
        let cap = fold_radius_cap(dims, width);
        if register && m * p.radius() > cap {
            return Err(PlanError::InvalidFold {
                m,
                folded_radius: m * p.radius(),
                max_radius: cap,
            });
        }

        // Derive the reusable artifacts once.
        let folded = if m > 1 { fold(p, m) } else { p.clone() };
        let tiled = matches!(tiling, Tiling::Tessellate { .. });
        let (kernel, tail_kernel) = if register && dims >= 2 {
            let fold_plan = FoldPlan::new(p, m);
            if fold_plan.fresh.len() > folded::MAX_F {
                // The counterpart schedule overflows the register budget:
                // the fold is unexecutable even though the radius fits.
                return Err(PlanError::FoldPlanTooComplex {
                    m,
                    counterparts: fold_plan.fresh.len(),
                    max: folded::MAX_F,
                });
            }
            let kernel = FoldedKernel::from_plan(fold_plan);
            let tail = if tiled && m > 1 {
                Some(FoldedKernel::new(p, 1))
            } else {
                None
            };
            (Some(kernel), tail)
        } else {
            (None, None)
        };

        let ring3 = if register && dims == 3 {
            Some(tuned_ring.unwrap_or_else(|| Ring3::auto(width.lanes(), m * p.radius())))
        } else {
            None
        };

        let pool = cfg
            .pool
            .clone()
            .unwrap_or_else(|| PoolHandle::new(cfg.threads));
        Ok(Plan {
            pattern: p.clone(),
            method,
            tiling,
            width,
            isa: Isa::detect().for_lanes(width.lanes()),
            pool,
            m,
            folded,
            kernel,
            tail_kernel,
            ring3,
            epoch: cfg.epoch,
        })
    }

    /// The pattern this plan was compiled for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The resolved vectorization method (never [`Method::Auto`]).
    pub fn method(&self) -> Method {
        self.method
    }

    /// The tiling scheme.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// The resolved vector width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The instruction set this plan's kernels run on: the widest one
    /// this CPU supports for the plan's width (AVX2+FMA for
    /// [`Width::W4`], AVX-512F for [`Width::W8`]), else
    /// [`Isa::Portable`]. Results agree bit for bit with the portable
    /// backend of the same width.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The shared worker pool (clone the handle to reuse it elsewhere).
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Fold factor `m` (1 unless the method is `Folded { m > 1 }`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Resolved z-ring pipeline geometry — `Some` exactly for 3D
    /// register plans (transpose-layout / folded), `None` otherwise.
    /// Never `Some(invalid)`: compile validates pinned geometries.
    pub fn ring3(&self) -> Option<Ring3> {
        self.ring3
    }

    /// Identity epoch this plan was compiled with ([`Solver::epoch`]).
    /// Purely an identity tag for hot-swap bookkeeping — two plans that
    /// differ only in epoch execute identically, bit for bit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Spatial dimensionality of the compiled pattern.
    pub fn dims(&self) -> usize {
        self.pattern.dims()
    }

    /// The precomputed folded pattern Λ (`== pattern()` when `m == 1`).
    /// The same allocation is reused by every run.
    pub fn folded(&self) -> &Pattern {
        &self.folded
    }

    /// Effective radius of one (possibly folded) inner step.
    pub fn effective_radius(&self) -> usize {
        self.folded.radius()
    }

    /// Run `t` time steps on any supported domain ([`Grid1D`],
    /// [`Grid2D`], [`Grid3D`]); dimension-generic front end of
    /// `run_1d`/`run_2d`/`run_3d`.
    ///
    /// Errors: [`PlanError::DimensionMismatch`] when the domain's
    /// dimensionality differs from the pattern's, and
    /// [`PlanError::MisalignedDomain`] when a DLT-layout plan is given a
    /// grid whose innermost extent is not a lane multiple.
    pub fn run<D: Domain>(&self, domain: &D, t: usize) -> Result<D, PlanError> {
        if self.dims() != D::DIMS {
            return Err(PlanError::DimensionMismatch {
                pattern_dims: self.dims(),
                domain_dims: D::DIMS,
            });
        }
        // The DLT layout (block-free 1D and the SDSL split-tiling hybrid)
        // lifts the innermost dimension into lanes; ragged extents are a
        // typed run error, not an executor assert.
        if self.method == Method::Dlt {
            let lanes = self.width.lanes();
            let extent = domain.x_extent();
            if !extent.is_multiple_of(lanes) {
                return Err(PlanError::MisalignedDomain { extent, lanes });
            }
            // the lifted row (extent / lanes points) must cover the
            // stencil radius
            if extent / lanes < self.pattern.radius() {
                return Err(PlanError::DomainTooSmall {
                    extent,
                    min: self.pattern.radius() * lanes,
                });
            }
        }
        Ok(D::run_with(self, domain, t))
    }

    /// Run `t` time steps on a 1D grid.
    pub fn run_1d(&self, grid: &Grid1D, t: usize) -> Result<Grid1D, PlanError> {
        self.run(grid, t)
    }

    /// Run `t` time steps on a 2D grid.
    pub fn run_2d(&self, grid: &Grid2D, t: usize) -> Result<Grid2D, PlanError> {
        self.run(grid, t)
    }

    /// Run `t` time steps on a 3D grid.
    pub fn run_3d(&self, grid: &Grid3D, t: usize) -> Result<Grid3D, PlanError> {
        self.run(grid, t)
    }

    /// [`Plan::run_2d`] over a local window of a larger domain whose
    /// outer (y) axis starts at global coordinate `origin_y`: tessellate
    /// tile phase is derived from global coordinates, so windows of one
    /// domain agree on every tile they share — the contract bit-exact
    /// domain sharding (the serving layer) relies on. For non-tessellate
    /// tilings the origin changes nothing.
    pub fn run_2d_at(&self, grid: &Grid2D, t: usize, origin_y: usize) -> Result<Grid2D, PlanError> {
        if self.dims() != 2 {
            return Err(PlanError::DimensionMismatch {
                pattern_dims: self.dims(),
                domain_dims: 2,
            });
        }
        Ok(with_backend!(self, V => self.exec_2d::<V>(grid, t, origin_y)))
    }

    /// [`Plan::run_3d`] over a local window whose outer (z) axis starts
    /// at global coordinate `origin_z` (see [`Plan::run_2d_at`]).
    pub fn run_3d_at(&self, grid: &Grid3D, t: usize, origin_z: usize) -> Result<Grid3D, PlanError> {
        if self.dims() != 3 {
            return Err(PlanError::DimensionMismatch {
                pattern_dims: self.dims(),
                domain_dims: 3,
            });
        }
        Ok(with_backend!(self, V => self.exec_3d::<V>(grid, t, origin_z)))
    }

    // -----------------------------------------------------------------
    // Execution (compile() has already excluded every invalid branch; the
    // remaining matches are total without a single panic).
    // -----------------------------------------------------------------

    fn exec_1d<V: SimdF64>(&self, grid: &Grid1D, t: usize) -> Grid1D {
        let p = &self.pattern;
        match self.tiling {
            Tiling::None => match self.method {
                Method::Scalar => {
                    let mut pp = PingPong::new(grid.clone());
                    scalar::sweep_1d(&mut pp, p, t);
                    pp.into_current()
                }
                Method::DataReorg => {
                    let mut pp = PingPong::new(grid.clone());
                    reorg::sweep_1d::<V>(&mut pp, p, t);
                    pp.into_current()
                }
                Method::Dlt => dlt::sweep_1d::<V>(grid, p, t),
                Method::TransposeLayout => xlayout::sweep_1d::<V>(grid, p, t),
                Method::Folded { .. } => {
                    xlayout::sweep_folded_1d_with::<V>(grid, p.weights(), &self.folded, self.m, t)
                }
                // MultipleLoads; Auto is resolved at compile time.
                _ => {
                    let mut pp = PingPong::new(grid.clone());
                    multiload::sweep_1d::<V>(&mut pp, p, t);
                    pp.into_current()
                }
            },
            Tiling::Tessellate { time_block } => {
                let reff = self.folded.radius();
                let tw = self.folded.weights();
                let mut pp = PingPong::new(grid.clone());
                let pool = &self.pool;
                match family(self.method) {
                    Family::Scalar => tessellate::run_1d(
                        pool,
                        &mut pp,
                        reff,
                        reff,
                        time_block,
                        V::LANES,
                        t / self.m,
                        &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, tw, lo, hi),
                    ),
                    Family::Vector => tessellate::run_1d(
                        pool,
                        &mut pp,
                        reff,
                        reff,
                        time_block,
                        V::LANES,
                        t / self.m,
                        &|s: &[f64], d: &mut [f64], lo, hi| {
                            multiload::step_range_1d::<V>(s, d, tw, lo, hi)
                        },
                    ),
                    Family::Register => tessellate::run_1d(
                        pool,
                        &mut pp,
                        reff,
                        reff,
                        time_block,
                        V::LANES,
                        t / self.m,
                        &|s: &[f64], d: &mut [f64], lo, hi| {
                            folded::step_squares_range_1d::<V>(s, d, tw, lo, hi)
                        },
                    ),
                }
                // Leftover unfolded steps (t % m): the same tessellated
                // range-step kernel as the body, with the base taps —
                // threaded, with the same frozen-boundary discipline.
                let tail = t % self.m;
                if tail > 0 {
                    let bw = p.weights();
                    let r = p.radius();
                    tessellate::run_1d(
                        pool,
                        &mut pp,
                        r,
                        r,
                        time_block,
                        V::LANES,
                        tail,
                        &|s: &[f64], d: &mut [f64], lo, hi| {
                            folded::step_squares_range_1d::<V>(s, d, bw, lo, hi)
                        },
                    );
                }
                pp.into_current()
            }
            Tiling::Split { time_block } => {
                split::sweep_1d::<V>(&self.pool, grid, p, time_block, t)
            }
            // Spatial blocking is rejected for 1D at compile time and
            // Tiling::Auto is resolved there; this defensive fallback
            // keeps the match total without a panic in release builds,
            // and flags validation drift in debug ones.
            Tiling::Spatial { .. } | Tiling::Auto => {
                debug_assert!(false, "unresolved/invalid 1D tiling must not reach exec");
                let mut pp = PingPong::new(grid.clone());
                scalar::sweep_1d(&mut pp, p, t);
                pp.into_current()
            }
        }
    }

    fn exec_2d<V: SimdF64>(&self, grid: &Grid2D, t: usize, origin_y: usize) -> Grid2D {
        let p = &self.pattern;
        match self.tiling {
            Tiling::None => match (self.method, &self.kernel) {
                (Method::Scalar, _) => {
                    let mut pp = PingPong::new(grid.clone());
                    scalar::sweep_2d(&mut pp, p, t);
                    pp.into_current()
                }
                (Method::TransposeLayout | Method::Folded { .. }, Some(k)) => {
                    folded::sweep_2d_with::<V>(k, grid, p, t)
                }
                // MultipleLoads / DataReorg (and the defensive rest; the
                // register methods always carry a kernel after compile()).
                (method, kernel) => {
                    debug_assert!(
                        !matches!(method, Method::TransposeLayout | Method::Folded { .. })
                            || kernel.is_some(),
                        "register plan compiled without its kernel"
                    );
                    let mut pp = PingPong::new(grid.clone());
                    multiload::sweep_2d::<V>(&mut pp, p, t);
                    pp.into_current()
                }
            },
            Tiling::Tessellate { time_block } => {
                let mut pp = PingPong::new(grid.clone());
                let pool = &self.pool;
                match (family(self.method), &self.kernel) {
                    (Family::Register, Some(k)) => {
                        let reff = k.radius();
                        tessellate::run_2d_at(
                            pool,
                            &mut pp,
                            reff,
                            reff,
                            time_block,
                            V::LANES,
                            t / self.m,
                            origin_y,
                            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                                folded::step_range_2d::<V>(k, s, d, ys, xs)
                            },
                        );
                    }
                    (Family::Scalar, _) => {
                        let r = p.radius();
                        tessellate::run_2d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            t,
                            origin_y,
                            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                                scalar::step_range_2d(s, d, p, ys, xs)
                            },
                        );
                    }
                    (fam, kernel) => {
                        debug_assert!(
                            fam != Family::Register || kernel.is_some(),
                            "register plan compiled without its kernel"
                        );
                        let r = p.radius();
                        tessellate::run_2d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            t,
                            origin_y,
                            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                                multiload::step_range_2d::<V>(s, d, p, ys, xs)
                            },
                        );
                    }
                }
                // Leftover unfolded steps through the same tessellated
                // register kernel (single-step plan, precompiled). The
                // vector-kernel fallback keeps the result correct even if
                // a future compile() change forgets the tail kernel.
                let tail = t % self.m;
                if tail > 0 {
                    if let Some(tk) = &self.tail_kernel {
                        let r = tk.radius();
                        tessellate::run_2d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            tail,
                            origin_y,
                            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                                folded::step_range_2d::<V>(tk, s, d, ys, xs)
                            },
                        );
                    } else {
                        debug_assert!(false, "tessellate tail executed without its kernel");
                        let r = p.radius();
                        tessellate::run_2d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            tail,
                            origin_y,
                            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                                multiload::step_range_2d::<V>(s, d, p, ys, xs)
                            },
                        );
                    }
                }
                pp.into_current()
            }
            Tiling::Split { time_block } => {
                split::sweep_2d::<V>(&self.pool, grid, p, time_block, t)
            }
            // compile() resolves Auto; keep the match total (see exec_1d)
            Tiling::Auto => {
                debug_assert!(false, "Tiling::Auto must be resolved by compile()");
                let mut pp = PingPong::new(grid.clone());
                scalar::sweep_2d(&mut pp, p, t);
                pp.into_current()
            }
            Tiling::Spatial { block } => {
                let mut pp = PingPong::new(grid.clone());
                let r = p.radius();
                match family(self.method) {
                    Family::Scalar => spatial::run_2d(
                        &self.pool,
                        &mut pp,
                        r,
                        block,
                        t,
                        &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                            scalar::step_range_2d(s, d, p, ys, xs)
                        },
                    ),
                    _ => spatial::run_2d(
                        &self.pool,
                        &mut pp,
                        r,
                        block,
                        t,
                        &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                            multiload::step_range_2d::<V>(s, d, p, ys, xs)
                        },
                    ),
                }
                pp.into_current()
            }
        }
    }

    fn exec_3d<V: SimdF64>(&self, grid: &Grid3D, t: usize, origin_z: usize) -> Grid3D {
        let p = &self.pattern;
        // 3D register plans always resolve a ring at compile time; the
        // defensive default only covers direct construction drift.
        let ring = self.ring3.unwrap_or_default();
        match self.tiling {
            Tiling::None => match (self.method, &self.kernel) {
                (Method::Scalar, _) => {
                    let mut pp = PingPong::new(grid.clone());
                    scalar::sweep_3d(&mut pp, p, t);
                    pp.into_current()
                }
                (Method::TransposeLayout | Method::Folded { .. }, Some(k)) => {
                    let _span = stencil_obs::span(stencil_obs::SpanId::RingSweep);
                    folded3d::sweep_3d_ring_with::<V>(k, ring, grid, p, t)
                }
                (method, kernel) => {
                    debug_assert!(
                        !matches!(method, Method::TransposeLayout | Method::Folded { .. })
                            || kernel.is_some(),
                        "register plan compiled without its kernel"
                    );
                    let mut pp = PingPong::new(grid.clone());
                    multiload::sweep_3d::<V>(&mut pp, p, t);
                    pp.into_current()
                }
            },
            Tiling::Tessellate { time_block } => {
                let mut pp = PingPong::new(grid.clone());
                let pool = &self.pool;
                match (family(self.method), &self.kernel) {
                    (Family::Register, Some(k)) => {
                        let _span = stencil_obs::span(stencil_obs::SpanId::RingSweep);
                        let reff = k.radius();
                        tessellate::run_3d_at(
                            pool,
                            &mut pp,
                            reff,
                            reff,
                            time_block,
                            V::LANES,
                            t / self.m,
                            origin_z,
                            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                                folded3d::step_range_3d_ring::<V>(k, ring, s, d, zs, ys, xs)
                            },
                        );
                    }
                    (Family::Scalar, _) => {
                        let r = p.radius();
                        tessellate::run_3d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            t,
                            origin_z,
                            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                                scalar::step_range_3d(s, d, p, zs, ys, xs)
                            },
                        );
                    }
                    (fam, kernel) => {
                        debug_assert!(
                            fam != Family::Register || kernel.is_some(),
                            "register plan compiled without its kernel"
                        );
                        let r = p.radius();
                        tessellate::run_3d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            t,
                            origin_z,
                            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                                multiload::step_range_3d::<V>(s, d, p, zs, ys, xs)
                            },
                        );
                    }
                }
                // Same tail discipline as 2D, with the same correct
                // vector-kernel fallback.
                let tail = t % self.m;
                if tail > 0 {
                    if let Some(tk) = &self.tail_kernel {
                        let _span = stencil_obs::span(stencil_obs::SpanId::RingSweep);
                        let r = tk.radius();
                        tessellate::run_3d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            tail,
                            origin_z,
                            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                                folded3d::step_range_3d_ring::<V>(tk, ring, s, d, zs, ys, xs)
                            },
                        );
                    } else {
                        debug_assert!(false, "tessellate tail executed without its kernel");
                        let r = p.radius();
                        tessellate::run_3d_at(
                            pool,
                            &mut pp,
                            r,
                            r,
                            time_block,
                            V::LANES,
                            tail,
                            origin_z,
                            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                                multiload::step_range_3d::<V>(s, d, p, zs, ys, xs)
                            },
                        );
                    }
                }
                pp.into_current()
            }
            Tiling::Split { time_block } => {
                split::sweep_3d::<V>(&self.pool, grid, p, time_block, t)
            }
            // compile() resolves Auto; keep the match total (see exec_1d)
            Tiling::Auto => {
                debug_assert!(false, "Tiling::Auto must be resolved by compile()");
                let mut pp = PingPong::new(grid.clone());
                scalar::sweep_3d(&mut pp, p, t);
                pp.into_current()
            }
            Tiling::Spatial { block } => {
                let mut pp = PingPong::new(grid.clone());
                let r = p.radius();
                match family(self.method) {
                    Family::Scalar => spatial::run_3d(
                        &self.pool,
                        &mut pp,
                        r,
                        block,
                        t,
                        &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                            scalar::step_range_3d(s, d, p, zs, ys, xs)
                        },
                    ),
                    _ => spatial::run_3d(
                        &self.pool,
                        &mut pp,
                        r,
                        block,
                        t,
                        &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                            multiload::step_range_3d::<V>(s, d, p, zs, ys, xs)
                        },
                    ),
                }
                pp.into_current()
            }
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for stencil_grid::Grid1D {}
    impl Sealed for stencil_grid::Grid2D {}
    impl Sealed for stencil_grid::Grid3D {}
}

/// A grid type a [`Plan`] can run on — implemented by [`Grid1D`],
/// [`Grid2D`] and [`Grid3D`] (sealed). Enables dimension-generic code:
///
/// ```
/// use stencil_core::{kernels, Domain, Plan, Solver};
/// use stencil_grid::Grid2D;
///
/// fn advance<D: Domain>(plan: &Plan, state: &D, t: usize) -> D {
///     plan.run(state, t).expect("dimensionality checked by caller")
/// }
///
/// let plan = Solver::new(kernels::heat2d()).compile().unwrap();
/// let g = Grid2D::from_fn(32, 32, |y, x| (y + x) as f64);
/// let out = advance(&plan, &g, 3);
/// assert_eq!(out.to_dense().len(), 32 * 32);
/// ```
pub trait Domain: Clone + sealed::Sealed {
    /// Spatial dimensionality of this domain type.
    const DIMS: usize;

    /// Innermost (x) extent — used by [`Plan::run`] to validate
    /// DLT-layout alignment.
    #[doc(hidden)]
    fn x_extent(&self) -> usize;

    /// Dispatch a validated plan run (called by [`Plan::run`] after the
    /// dimensionality check).
    #[doc(hidden)]
    fn run_with(plan: &Plan, domain: &Self, t: usize) -> Self;
}

impl Domain for Grid1D {
    const DIMS: usize = 1;

    fn x_extent(&self) -> usize {
        self.len()
    }

    fn run_with(plan: &Plan, domain: &Self, t: usize) -> Self {
        with_backend!(plan, V => plan.exec_1d::<V>(domain, t))
    }
}

impl Domain for Grid2D {
    const DIMS: usize = 2;

    fn x_extent(&self) -> usize {
        self.nx()
    }

    fn run_with(plan: &Plan, domain: &Self, t: usize) -> Self {
        with_backend!(plan, V => plan.exec_2d::<V>(domain, t, 0))
    }
}

impl Domain for Grid3D {
    const DIMS: usize = 3;

    fn x_extent(&self) -> usize {
        self.nx()
    }

    fn run_with(plan: &Plan, domain: &Self, t: usize) -> Self {
        with_backend!(plan, V => plan.exec_3d::<V>(domain, t, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use stencil_grid::max_abs_diff;

    fn ref_1d(p: &Pattern, g: &Grid1D, t: usize) -> Grid1D {
        Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_1d(g, t)
            .unwrap()
    }

    #[test]
    fn all_1d_methods_agree_block_free() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(256, |i| ((i * 7) % 13) as f64);
        let t = 6;
        let want = ref_1d(&p, &g, t);
        for m in [
            Method::MultipleLoads,
            Method::DataReorg,
            Method::Dlt,
            Method::TransposeLayout,
        ] {
            let plan = Solver::new(p.clone()).method(m).compile().unwrap();
            let got = plan.run_1d(&g, t).unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12,
                "{m:?}"
            );
        }
    }

    #[test]
    fn tessellated_methods_agree_1d() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(300, |i| (i as f64 * 0.1).sin());
        let t = 12;
        let want = ref_1d(&p, &g, t);
        for (m, threads) in [
            (Method::MultipleLoads, 1),
            (Method::TransposeLayout, 4),
            (Method::Scalar, 3),
        ] {
            let plan = Solver::new(p.clone())
                .method(m)
                .tiling(Tiling::Tessellate { time_block: 4 })
                .threads(threads)
                .compile()
                .unwrap();
            let got = plan.run_1d(&g, t).unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12,
                "{m:?}"
            );
        }
    }

    #[test]
    fn sdsl_configuration_1d() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(256, |i| (i % 11) as f64);
        let t = 8;
        let want = ref_1d(&p, &g, t);
        let got = Solver::new(p)
            .method(Method::Dlt)
            .tiling(Tiling::Split { time_block: 4 })
            .threads(4)
            .compile()
            .unwrap()
            .run_1d(&g, t)
            .unwrap();
        assert!(max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12);
    }

    #[test]
    fn folded_tessellated_2d_matches_folded_reference() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(40, 44, |y, x| ((y * 3 + x) % 17) as f64);
        // reference: block-free folded (same m) — identical semantics
        let want = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap()
            .run_2d(&g, 8)
            .unwrap();
        let got = Solver::new(p)
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 2 })
            .threads(4)
            .compile()
            .unwrap()
            .run_2d(&g, 8)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10);
    }

    #[test]
    fn widths_agree_2d() {
        let p = kernels::heat2d();
        let g = Grid2D::from_fn(30, 34, |y, x| ((y * 13 + x * 5) % 19) as f64);
        let run = |w: Width| {
            Solver::new(p.clone())
                .method(Method::Folded { m: 2 })
                .width(w)
                .compile()
                .unwrap()
                .run_2d(&g, 4)
                .unwrap()
        };
        let (a, b, c) = (run(Width::W4), run(Width::W8), run(Width::W1));
        assert!(max_abs_diff(&a.to_dense(), &b.to_dense()) < 1e-10);
        assert!(max_abs_diff(&a.to_dense(), &c.to_dense()) < 1e-10);
    }

    #[test]
    fn three_d_paths_agree() {
        let p = kernels::heat3d();
        let g = Grid3D::from_fn(14, 14, 18, |z, y, x| ((z + y + x) % 5) as f64);
        let t = 4;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        let ml = Solver::new(p.clone())
            .method(Method::MultipleLoads)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &ml.to_dense()) < 1e-12);
        let tess = Solver::new(p)
            .method(Method::MultipleLoads)
            .tiling(Tiling::Tessellate { time_block: 2 })
            .threads(4)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &tess.to_dense()) < 1e-12);
    }

    #[test]
    fn spatial_blocking_2d() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(33, 37, |y, x| ((y + 2 * x) % 9) as f64);
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_2d(&g, 5)
            .unwrap();
        let got = Solver::new(p)
            .tiling(Tiling::Spatial { block: (8, 8) })
            .threads(3)
            .compile()
            .unwrap()
            .run_2d(&g, 5)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-12);
    }

    #[test]
    fn deprecated_one_shot_wrappers_still_work() {
        // the migration shim: one-shot style compiles-per-call
        #![allow(deprecated)]
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(128, |i| (i % 7) as f64);
        let want = ref_1d(&p, &g, 4);
        #[allow(deprecated)]
        let got = Solver::new(p).method(Method::MultipleLoads).run_1d(&g, 4);
        assert!(max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12);
    }

    #[test]
    fn auto_resolves_to_a_concrete_method() {
        let plan = Solver::new(kernels::heat1d())
            .method(Method::Auto)
            .compile()
            .unwrap();
        assert_ne!(plan.method(), Method::Auto);
        let g = Grid1D::from_fn(256, |i| ((i * 7) % 13) as f64);
        let want = ref_1d(&kernels::heat1d(), &g, 6);
        let got = plan.run_1d(&g, 6).unwrap();
        // auto may pick a folded method whose Dirichlet band is wider;
        // compare away from the boundary
        let band = 2 * 6;
        assert!(
            max_abs_diff(
                &want.as_slice()[band..256 - band],
                &got.as_slice()[band..256 - band]
            ) < 1e-12
        );
    }
}
