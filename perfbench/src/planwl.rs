//! The resident workloads: `plan-l2` (seven Table-1 kernels on
//! L2-sized grids) and `plan-dram` (3D-Heat on a grid at least four
//! times the last-level cache), and the per-layer probes beneath them:
//! `exec` (block-free sweeps), `tile` (the resolved tiling) and `plan`
//! (the pooled plan).

use crate::check::{self, Check};
use crate::domain::{self, registry_plan, replan};
use crate::host::HostStamp;
use crate::rng::Rng;
use std::time::Instant;
use stencil_core::exec::{folded, folded::FoldedKernel, folded3d, xlayout};
use stencil_core::{Method, Pattern, Plan, Width};
use stencil_runtime::PoolHandle;
use stencil_serve::JobDomain;
use stencil_simd::{NativeF64x4, NativeF64x8, SimdF64};

/// Steps per `plan-l2` job.
pub const L2_STEPS: usize = 2;
/// Steps per `plan-dram` job.
pub const DRAM_STEPS: usize = 2;
/// Sample points checked per cone-checked output.
pub const SAMPLES: usize = 16;

/// One kernel on one input, compiled and ready to run.
pub struct Case {
    /// Kernel name.
    pub name: &'static str,
    /// The input grid.
    pub input: JobDomain,
    /// Steps per job.
    pub steps: usize,
    /// The compiled plan.
    pub plan: Plan,
    /// How outputs are verified (filled in after set-up).
    pub check: Check,
}

impl Case {
    /// Useful flops of one job.
    pub fn flops(&self) -> f64 {
        domain::flops(self.plan.pattern(), self.input.points(), self.steps)
    }

    /// Computed bytes of one job under `plan`'s memory model.
    pub fn bytes(&self, plan: &Plan) -> f64 {
        domain::computed_bytes(plan, self.input.points(), self.steps)
    }
}

/// Set up `plan-l2`: seeded grids, registry-style plans, one warm run
/// each. Returns the cases and the per-kernel compile times (seconds).
pub fn setup_l2(seed: u64, host: &HostStamp, pool: &PoolHandle) -> (Vec<Case>, Vec<f64>) {
    let mut compile = Vec::new();
    let cases = domain::table1_linear()
        .into_iter()
        .enumerate()
        .map(|(i, (name, pattern))| {
            // a quarter of L2 per ping-pong pair: jobs short enough that a
            // run completes the thousand a p99 needs, data still L2-resident
            let ext = domain::l2_extents(pattern.dims(), host.l2_bytes / 4);
            let input = domain::seeded_domain(seed ^ (i as u64 + 1), &ext, 1);
            let t0 = Instant::now();
            let plan = registry_plan(&pattern, &ext, pool);
            compile.push(t0.elapsed().as_secs_f64());
            let steps = L2_STEPS;
            let warm = domain::run(&plan, &input, steps).expect("warm run");
            std::hint::black_box(warm);
            Case {
                name,
                input,
                steps,
                plan,
                check: Check::default(),
            }
        })
        .collect();
    (cases, compile)
}

/// Attach the checks to every L2 case: the full `Method::Scalar`
/// reference of what the plan computes (its folded pattern for
/// `t / m` steps, then the base pattern for the `t % m` tail, boundary
/// band included) plus cone samples of the base pattern, which also
/// catch a wrong fold.
pub fn check_l2(cases: &mut [Case], seed: u64) {
    let scalar = |p: &Pattern| {
        stencil_core::Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .expect("scalar plan")
    };
    for (i, c) in cases.iter_mut().enumerate() {
        let (m, p) = (c.plan.m(), c.plan.pattern());
        let body = domain::run(&scalar(c.plan.folded()), &c.input, c.steps / m).expect("scalar");
        let want = domain::run(&scalar(p), &body, c.steps % m).expect("scalar tail");
        let mut rng = Rng::new(seed, 0xC0E + i as u64);
        c.check = Check::cone(&mut rng, p, c.steps, &c.input, SAMPLES);
        c.check.full = Some(check::dense(&want));
    }
}

/// Side of the `plan-dram` cube: one grid at least four times the LLC.
pub fn dram_side(host: &HostStamp) -> usize {
    let points = (4 * host.llc_bytes).div_ceil(8) as f64;
    (points.cbrt().ceil() as usize).div_ceil(8) * 8
}

/// Set up `plan-dram`: allocate and fill the cube, compile, warm the
/// plan and its pool on a small grid.
pub fn setup_dram(seed: u64, host: &HostStamp, pool: &PoolHandle) -> Case {
    let n = dram_side(host);
    let pattern = stencil_core::kernels::heat3d();
    let input = domain::seeded_domain(seed, &[n, n, n], host.nproc);
    let plan = registry_plan(&pattern, &[n, n, n], pool);
    let small = domain::seeded_domain(seed, &[32, 32, 32], 1);
    std::hint::black_box(domain::run(&plan, &small, DRAM_STEPS).expect("warm run"));
    Case {
        name: "heat3d",
        input,
        steps: DRAM_STEPS,
        plan,
        check: Check::default(),
    }
}

/// Attach seeded cone samples to a case.
pub fn check_cone(c: &mut Case, seed: u64) {
    let mut rng = Rng::new(seed, 0xC0E);
    c.check = Check::cone(&mut rng, c.plan.pattern(), c.steps, &c.input, SAMPLES);
}

/// The outcome of a closed job loop.
#[derive(Debug, Default)]
pub struct Jobs {
    /// Wall seconds of each successful job (the timed call only).
    pub secs: Vec<f64>,
    /// Start of each successful job, seconds into the loop.
    pub starts: Vec<f64>,
    /// Useful flops of each successful job.
    pub flops: Vec<f64>,
    /// Wall seconds the loop ran.
    pub span: f64,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored or produced a wrong output.
    pub failed: u64,
    /// Seconds between one job's end and the next one's start
    /// (generator overhead, checks included).
    pub gaps: Vec<f64>,
}

/// Run the cases round-robin, one job in flight, until `seconds` of
/// wall time have passed (at least one round).
pub fn drive(cases: &[Case], seconds: f64) -> Jobs {
    let mut jobs = Jobs::default();
    let start = Instant::now();
    let mut last_end: Option<Instant> = None;
    let mut i = 0;
    while i < cases.len() || start.elapsed().as_secs_f64() < seconds {
        let c = &cases[i % cases.len()];
        let t0 = Instant::now();
        if let Some(end) = last_end {
            jobs.gaps.push((t0 - end).as_secs_f64());
        }
        let out = domain::run(&c.plan, &c.input, c.steps);
        let t1 = Instant::now();
        last_end = Some(t1);
        jobs.attempted += 1;
        match out {
            Ok(out) if c.check.passes(&out) => {
                jobs.secs.push((t1 - t0).as_secs_f64());
                jobs.starts.push((t0 - start).as_secs_f64());
                jobs.flops.push(c.flops());
            }
            _ => jobs.failed += 1,
        }
        i += 1;
    }
    jobs.span = start.elapsed().as_secs_f64();
    jobs
}

impl Jobs {
    /// Useful GFLOP/s of all successful jobs.
    pub fn gflops_all(&self) -> f64 {
        self.flops.iter().sum::<f64>() / self.secs.iter().sum::<f64>() / 1e9
    }

    /// Useful GFLOP/s of the jobs `idx`.
    pub fn gflops(&self, idx: &[usize]) -> f64 {
        let f: f64 = idx.iter().map(|&i| self.flops[i]).sum();
        f / idx.iter().map(|&i| self.secs[i]).sum::<f64>() / 1e9
    }
}

/// Median seconds of one `f()` call, repeating it for at least
/// `min_secs` and at least three times.
pub fn time_median(min_secs: f64, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::new();
    let start = Instant::now();
    while v.len() < 3 || start.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        f();
        v.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&v)
}

fn exec_sweep<V: SimdF64>(plan: &Plan, k: &FoldedKernel, d: &JobDomain, t: usize) -> JobDomain {
    let p = plan.pattern();
    match d {
        JobDomain::D1(g) => JobDomain::D1(xlayout::sweep_folded_1d_with::<V>(
            g,
            p.weights(),
            plan.folded(),
            plan.m(),
            t,
        )),
        JobDomain::D2(g) => JobDomain::D2(folded::sweep_2d_with::<V>(k, g, p, t)),
        JobDomain::D3(g) => JobDomain::D3(folded3d::sweep_3d_ring_with::<V>(
            k,
            plan.ring3().unwrap_or_default(),
            g,
            p,
            t,
        )),
    }
}

/// The `exec` layer: `t` block-free steps of `plan`'s resolved method
/// through the `stencil_core::exec` sweep it dispatches to, on the
/// calling thread. Non-register methods go through an untiled
/// one-thread plan instead.
pub fn exec_run(plan: &Plan, k: Option<&FoldedKernel>, d: &JobDomain, t: usize) -> JobDomain {
    match k {
        Some(k) => match plan.width() {
            Width::W1 => exec_sweep::<f64>(plan, k, d, t),
            Width::W4 => exec_sweep::<NativeF64x4>(plan, k, d, t),
            Width::W8 => exec_sweep::<NativeF64x8>(plan, k, d, t),
        },
        None => domain::run(&replan(plan, 1, true), d, t).expect("untiled run"),
    }
}

/// The folded kernel the `exec` layer sweeps with, for register
/// methods.
pub fn exec_kernel(plan: &Plan) -> Option<FoldedKernel> {
    matches!(
        plan.method(),
        Method::Folded { .. } | Method::TransposeLayout
    )
    .then(|| FoldedKernel::new(plan.pattern(), plan.m()))
}

/// Per-kernel layer rates of `plan-l2`, GFLOP/s.
#[derive(Debug, Clone)]
pub struct LayerRates {
    /// Kernel name.
    pub name: &'static str,
    /// `exec`: block-free, one thread.
    pub exec: f64,
    /// `tile`: resolved tiling, one thread.
    pub tile: f64,
    /// `plan`: the pooled plan on `nproc` threads.
    pub plan: f64,
    /// Computed bytes per flop of the block-free sweep.
    pub exec_bytes_per_flop: f64,
    /// Whether the three layers' outputs passed the case's check.
    pub ok: bool,
}

/// Measure `exec`, `tile` and `plan` on every case for about
/// `secs_each` seconds per layer.
pub fn layer_rates(cases: &[Case], secs_each: f64) -> Vec<LayerRates> {
    cases
        .iter()
        .map(|c| {
            let k = exec_kernel(&c.plan);
            let tile_plan = replan(&c.plan, 1, false);
            let mut ok = true;
            let mut check = |out: JobDomain| ok &= c.check.passes(&out);
            let te = time_median(secs_each, || {
                check(exec_run(&c.plan, k.as_ref(), &c.input, c.steps))
            });
            let tt = time_median(secs_each, || {
                check(domain::run(&tile_plan, &c.input, c.steps).expect("tile run"))
            });
            let tp = time_median(secs_each, || {
                check(domain::run(&c.plan, &c.input, c.steps).expect("plan run"))
            });
            let untiled = replan(&c.plan, 1, true);
            LayerRates {
                name: c.name,
                exec: c.flops() / te / 1e9,
                tile: c.flops() / tt / 1e9,
                plan: c.flops() / tp / 1e9,
                exec_bytes_per_flop: c.bytes(&untiled) / c.flops(),
                ok,
            }
        })
        .collect()
}
