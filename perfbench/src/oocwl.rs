//! The `ooc-stream` workload: a 3D27P domain spilled into a
//! `SlabStore` at set-up (the resident grid is then dropped) and
//! advanced with `run_streaming` at a window budget of 1/8 of the
//! domain's bytes, prefetch on.

use crate::check;
use crate::domain::{self, registry_plan};
use crate::rng::Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stencil_core::{kernels, Pattern, Plan};
use stencil_grid::Grid3D;
use stencil_ooc::{run_streaming, OocConfig, SlabStore, StreamReport};
use stencil_runtime::PoolHandle;
use stencil_serve::JobDomain;

/// Domain extents `[nz, ny, nx]`: tall and thin, so a window budget of
/// 1/8 of the domain still holds the deep halos of a full pass.
pub const EXT: [usize; 3] = [3072, 24, 24];
/// Steps per `run_streaming` call (one job): one full pass of the
/// plan's composition quantum.
pub const STEPS: usize = 8;
/// Cone samples checked per job.
pub const SAMPLES: usize = 4;
/// Where stores live: inside this package's directory, whatever the
/// working directory.
pub const STORE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.run");

/// The spilled domain and the plan that streams it.
pub struct Rig {
    /// The streaming plan (registry-style compile).
    pub plan: Plan,
    /// The store holding the domain.
    pub store: SlabStore,
    /// Streaming knobs: budget 1/8 of the domain, prefetch on.
    pub cfg: OocConfig,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.store.path());
    }
}

/// The kernel.
pub fn pattern() -> Pattern {
    kernels::box3d27p()
}

/// Bytes of the domain as the store holds it.
pub fn domain_bytes(ext: [usize; 3]) -> usize {
    ext.iter().product::<usize>() * 8
}

/// A store path unique to this process and `tag`.
pub fn store_path(tag: &str) -> PathBuf {
    let _ = std::fs::create_dir_all(STORE_DIR);
    Path::new(STORE_DIR).join(format!("ooc-{}-{tag}.slab", std::process::id()))
}

/// Set up: fill the domain from `seed`, compile, spill it into a store
/// at `path` and drop the resident grid.
pub fn setup(seed: u64, ext: [usize; 3], pool: &PoolHandle, path: &Path) -> Rig {
    let p = pattern();
    let grid = match domain::seeded_domain(seed, &ext, pool.threads()) {
        JobDomain::D3(g) => g,
        _ => unreachable!("3D extents give a 3D grid"),
    };
    let plan = registry_plan(&p, &ext, pool);
    let store = SlabStore::create(path, &grid, p.radius()).expect("spill the domain");
    drop(grid);
    Rig {
        plan,
        store,
        cfg: OocConfig {
            budget_bytes: domain_bytes(ext) / 8,
            prefetch: true,
            ..OocConfig::default()
        },
    }
}

/// Cone samples of the store's current surface: for each seeded point,
/// its coordinates and the reference value `t` steps on, read from the
/// planes its cone covers.
pub fn sample_refs(store: &SlabStore, rng: &mut Rng, t: usize, n: usize) -> Vec<([usize; 3], f64)> {
    let p = pattern();
    let (nz, ny, nx) = store.shape();
    let h = p.radius() * t;
    let mut scratch = Vec::new();
    check::sample_points(rng, [nz, ny, nx], 3, check::margin(&p, t), n)
        .into_iter()
        .map(|c| {
            let mut win = Grid3D::zeros(2 * h + 1, ny, nx);
            store
                .read_window(
                    store.surface(),
                    c[0] - h,
                    c[0] + h + 1,
                    &mut win,
                    &mut scratch,
                )
                .expect("read a sample window");
            let v = check::cone_value(&p, t, |o| {
                let at = |a: usize| (c[a] as isize + o[a]) as usize;
                win[((h as isize + o[0]) as usize, at(1), at(2))]
            });
            (c, v)
        })
        .collect()
}

/// Samples whose value on the store's current surface misses its
/// reference.
pub fn sample_misses(store: &SlabStore, samples: &[([usize; 3], f64)]) -> usize {
    let (_, ny, nx) = store.shape();
    let mut scratch = Vec::new();
    let mut plane = Grid3D::zeros(1, ny, nx);
    samples
        .iter()
        .filter(|(c, want)| {
            store
                .read_window(store.surface(), c[0], c[0] + 1, &mut plane, &mut scratch)
                .map(|()| !check::within_tol(plane[(0, c[1], c[2])], *want))
                .unwrap_or(true)
        })
        .count()
}

/// One checked streaming job of `t` steps: the report, its wall
/// seconds and whether the sampled outputs passed.
pub fn job(
    rig: &Rig,
    rng: &mut Rng,
    t: usize,
    cfg: &OocConfig,
) -> (Option<StreamReport>, f64, bool) {
    let samples = sample_refs(&rig.store, rng, t, SAMPLES);
    let t0 = Instant::now();
    let report = run_streaming(&rig.plan, &rig.store, t, cfg);
    let secs = t0.elapsed().as_secs_f64();
    let ok = report.is_ok() && !samples.is_empty() && sample_misses(&rig.store, &samples) == 0;
    (report.ok(), secs, ok)
}

/// Useful flops of one job of `t` steps on `ext`.
pub fn flops(ext: [usize; 3], t: usize) -> f64 {
    domain::flops(&pattern(), ext.iter().product(), t)
}
