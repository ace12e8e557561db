//! The traced run: the per-layer metrics and the ledger tables.
//!
//! Each layer is measured by timing calls into its public functions
//! from here, on the same seeded inputs as the workloads. The
//! workload's own loop also runs twice, with the `stencil_obs` span
//! rings off and on, which gives the tracing overhead. Every traced
//! run measures every layer, so each prints the full metric set; only
//! `gen.late_p99_ms` and `trace.overhead_frac` belong to the run's
//! workload.

use crate::host::{self, HostStamp};
use crate::planwl::{self, time_median, Case};
use crate::report::{self, Outcome, Row};
use crate::rng::Rng;
use crate::servewl::{self, JobInput, Sample};
use crate::stats::{geomean, median, p99_or_max};
use crate::{check, domain, oocwl};
use std::time::Instant;
use stencil_ooc::OocConfig;
use stencil_runtime::PoolHandle;
use stencil_serve::net::wire::{self, Frame};
use stencil_serve::{shard, JobDomain, JobSpec};

/// Seconds each layer probe repeats its call for (at least three
/// calls).
const PROBE_SECS: f64 = 0.15;

/// Measured host ceilings.
struct Roof {
    triad: f64,
    triad_1t: f64,
    fma: f64,
    fma_1t: f64,
}

impl Roof {
    /// Roofline bound (GFLOP/s) at `bytes_per_flop`, one thread or all.
    fn bound(&self, bytes_per_flop: f64, one_thread: bool) -> f64 {
        let (bw, peak) = if one_thread {
            (self.triad_1t, self.fma_1t)
        } else {
            (self.triad, self.fma)
        };
        peak.min(bw / bytes_per_flop)
    }
}

/// Run the traced ledger for `workload`.
pub fn traced(workload: &str, host: &HostStamp, seed: u64, secs: f64) -> Outcome {
    let mut o = Outcome::default();
    let pool = PoolHandle::shared(host.nproc);
    let roof = roofline(host, &mut o);
    let slice = (secs / 5.0).max(0.5);

    let (mut cases, compile) = planwl::setup_l2(seed, host, &pool);
    planwl::check_l2(&mut cases, seed);
    if workload == "plan-l2" {
        let run = |on: bool| {
            let j = traced_slice(on, || planwl::drive(&cases, slice));
            (j.gflops_all(), j)
        };
        let ((off, j_off), (on, j_on)) = (run(false), run(true));
        slice_metrics(
            &mut o,
            off,
            on,
            &j_off.gaps,
            j_off.attempted + j_on.attempted,
            j_off.failed + j_on.failed,
        );
    }
    plan_layers(host, &cases, &compile, &roof, &mut o);
    drop(cases);

    dram_layers(workload, host, seed, &pool, &roof, &mut o);
    serve_layers(workload, host, seed, slice, &mut o);
    ooc_layers(workload, seed, &pool, &mut o);
    let overhead = o.metrics.iter().find(|m| m.name == "trace.overhead_frac");
    println!(
        "\ntrace: {workload} loop with the stencil_obs span rings on against off: \
         overhead {:+.4} (trace.overhead_frac)",
        overhead.map_or(f64::NAN, |m| m.value)
    );
    o
}

/// Run `f` with the span rings on (`on`) or off; report the events
/// recorded.
fn traced_slice<T>(on: bool, f: impl FnOnce() -> T) -> T {
    stencil_obs::clear();
    stencil_obs::set_enabled(on);
    let out = f();
    stencil_obs::set_enabled(false);
    if on {
        println!(
            "trace: {} span events recorded",
            stencil_obs::snapshot().len()
        );
    }
    out
}

/// The workload-specific metrics: tracing overhead from the rates off
/// and on, generator lateness from the untraced slice's gaps.
fn slice_metrics(o: &mut Outcome, off: f64, on: f64, late_s: &[f64], n: u64, bad: u64) {
    o.count(n, bad);
    let late: Vec<f64> = late_s.iter().map(|s| s * 1e3).collect();
    o.put("gen.late_p99_ms", p99_or_max(&late).0, "ms");
    o.put("trace.overhead_frac", off / on - 1.0, "fraction");
}

fn roofline(host: &HostStamp, o: &mut Outcome) -> Roof {
    let len = 4 * host.llc_bytes / 8;
    let w = host.native_max;
    let roof = Roof {
        triad: host::triad_gbs(len, host.nproc, 5),
        triad_1t: host::triad_gbs(len, 1, 5),
        fma: host::fma_gflops(w, host.nproc, 0.2),
        fma_1t: host::fma_gflops(w, 1, 0.2),
    };
    println!(
        "roofline: triad arrays {:.0} MiB each (4x LLC); triad {:.2} GB/s ({} threads), {:.2} GB/s \
         (1 thread); FMA peak on {:?} vectors {:.2} GFLOP/s ({} threads), {:.2} (1 thread)",
        (len * 8) as f64 / (1 << 20) as f64,
        roof.triad,
        host.nproc,
        roof.triad_1t,
        w,
        roof.fma,
        host.nproc,
        roof.fma_1t
    );
    o.put("host.triad_gbs", roof.triad, "GB/s");
    o.put("host.triad_gbs_1t", roof.triad_1t, "GB/s");
    o.put("host.fma_gflops", roof.fma, "GFLOP/s");
    o.put("host.fma_gflops_1t", roof.fma_1t, "GFLOP/s");
    roof
}

fn plan_layers(host: &HostStamp, cases: &[Case], compile: &[f64], roof: &Roof, o: &mut Outcome) {
    let rates = planwl::layer_rates(cases, PROBE_SECS);
    o.count(
        3 * rates.len() as u64,
        rates.iter().filter(|r| !r.ok).count() as u64,
    );
    for r in &rates {
        o.put(format!("exec.{}.gflops", r.name), r.exec, "GFLOP/s");
    }
    let exec_roof: Vec<f64> = rates
        .iter()
        .map(|r| r.exec / roof.bound(r.exec_bytes_per_flop, true))
        .collect();
    o.put("exec.roofline_frac", geomean(&exec_roof), "fraction");
    for r in &rates {
        o.put(format!("tile.{}.gflops", r.name), r.tile, "GFLOP/s");
        o.put(format!("tile.{}.vs_exec", r.name), r.tile / r.exec, "ratio");
    }
    for r in &rates {
        o.put(format!("plan.{}.gflops", r.name), r.plan, "GFLOP/s");
    }
    let eff: Vec<f64> = rates
        .iter()
        .map(|r| r.plan / (r.tile * host.nproc as f64))
        .collect();
    o.put("plan.parallel_eff", geomean(&eff), "fraction");
    o.put("plan.compile_ms", median(compile) * 1e3, "ms");

    // one round of seven jobs per layer
    let flops: f64 = cases.iter().map(Case::flops).sum();
    let round = |rate: &dyn Fn(&planwl::LayerRates) -> f64| -> f64 {
        cases
            .iter()
            .zip(&rates)
            .map(|(c, r)| c.flops() / rate(r) / 1e6)
            .sum()
    };
    let row = |layer: &str, ms: f64, moves: &str| Row {
        layer: layer.into(),
        rate: flops / ms / 1e6,
        unit: "GFLOP/s",
        ms,
        moves: moves.into(),
    };
    report::ledger(
        "plan-l2 (one round of the seven kernels; the L2 grids)",
        &[
            row(
                "exec: block-free sweep, 1 thread",
                round(&|r| r.exec),
                "exec.*.gflops, exec.roofline_frac -> gflops on plan-l2 (little on plan-dram)",
            ),
            row(
                "tile: resolved tiling, 1 thread",
                round(&|r| r.tile),
                "tile.*.gflops, tile.*.vs_exec -> gflops on plan-l2",
            ),
            row(
                &format!("plan: Plan::run, {} pool threads", host.nproc),
                round(&|r| r.plan),
                "plan.*.gflops, plan.parallel_eff -> gflops on plan-l2; plan.compile_ms -> setup_s",
            ),
        ],
    );
    for r in &rates {
        println!(
            "   {:<9} exec {:>8.4}  tile {:>8.4} ({:>6.3}x)  plan {:>8.4} GFLOP/s  exec roofline {:.3} (computed bytes)",
            r.name,
            r.exec,
            r.tile,
            r.tile / r.exec,
            r.plan,
            r.exec / roof.bound(r.exec_bytes_per_flop, true)
        );
    }
}

fn dram_layers(
    workload: &str,
    host: &HostStamp,
    seed: u64,
    pool: &PoolHandle,
    roof: &Roof,
    o: &mut Outcome,
) {
    let mut case = planwl::setup_dram(seed, host, pool);
    planwl::check_cone(&mut case, seed);
    let tile_plan = domain::replan(&case.plan, 1, false);
    let timed = |plan: &stencil_core::Plan| {
        let t0 = Instant::now();
        let ok = domain::run(plan, &case.input, case.steps).is_ok_and(|d| case.check.passes(&d));
        (t0.elapsed().as_secs_f64(), ok)
    };
    let (tile_s, tile_ok) = timed(&tile_plan);
    let (plan_s, plan_ok) = timed(&case.plan);
    o.count(2, (!tile_ok) as u64 + (!plan_ok) as u64);
    if workload == "plan-dram" {
        let run = |on: bool| traced_slice(on, || timed(&case.plan));
        let ((off, ok_off), (on, ok_on)) = (run(false), run(true));
        // one job per slice: rates are inverse times, and a closed
        // loop of one job has no generator gaps
        slice_metrics(&mut *o, on, off, &[], 2, (!ok_off) as u64 + (!ok_on) as u64);
    }
    let (flops, bytes) = (case.flops(), case.bytes(&case.plan));
    let tile_gflops = flops / tile_s / 1e9;
    o.put("tile.dram.gbs_computed", bytes / tile_s / 1e9, "GB/s");
    o.put(
        "tile.dram.roofline_frac",
        tile_gflops / roof.bound(bytes / flops, true),
        "fraction",
    );
    o.put("plan.dram.gflops", flops / plan_s / 1e9, "GFLOP/s");
    o.put(
        "plan.dram.parallel_eff",
        tile_s / plan_s / host.nproc as f64,
        "fraction",
    );
    let row = |layer: &str, s: f64, moves: &str| Row {
        layer: layer.into(),
        rate: flops / s / 1e9,
        unit: "GFLOP/s",
        ms: s * 1e3,
        moves: moves.into(),
    };
    report::ledger(
        &format!(
            "plan-dram ({}^3 3D-Heat, {} steps; computed {:.1} B/point-step; roofline at {} threads {:.3} GFLOP/s)",
            planwl::dram_side(host),
            case.steps,
            bytes / (case.input.points() * case.steps) as f64,
            host.nproc,
            roof.bound(bytes / flops, false)
        ),
        &[
            row(
                "tile: resolved tiling, 1 thread",
                tile_s,
                "tile.dram.gbs_computed, tile.dram.roofline_frac -> gflops on plan-dram",
            ),
            row(
                &format!("plan: Plan::run, {} pool threads", host.nproc),
                plan_s,
                "plan.dram.gflops, plan.dram.parallel_eff -> gflops on plan-dram",
            ),
        ],
    );
}

fn serve_layers(workload: &str, host: &HostStamp, seed: u64, slice: f64, o: &mut Outcome) {
    let mut inputs = servewl::inputs(seed);
    let server = servewl::start(host.nproc, &inputs);
    servewl::check_inputs(&mut inputs, seed);
    let (addr, service) = (server.addr(), server.service());
    let wire_send = |cl: &mut _, i| servewl::send_wire(cl, &inputs, i);
    let local_send = |_: &mut (), i| servewl::send_local(service, &inputs, i);
    let conn = |c| servewl::wire_conn(addr, c);
    let rate = servewl::OFFERED_RATE;
    let n_a = servewl::PHASE_A_JOBS;
    let wire = servewl::open_loop(seed, host.nproc, rate, n_a, conn, wire_send);
    let local = servewl::open_loop(seed, host.nproc, rate, n_a, |_| (), local_send);
    let bad = |v: &[Sample]| v.iter().filter(|s| !s.ok).count() as u64;
    o.count((wire.len() + local.len()) as u64, bad(&wire) + bad(&local));
    if workload == "serve-wire" {
        let run = |on: bool| {
            traced_slice(on, || {
                servewl::closed_loop(seed, host.nproc, slice, conn, wire_send)
            })
        };
        let (off, on) = (run(false), run(true));
        let late: Vec<f64> = wire.iter().map(|s| s.late_ms / 1e3).collect();
        slice_metrics(
            &mut *o,
            off.len() as f64,
            on.len() as f64,
            &late,
            (off.len() + on.len()) as u64,
            bad(&off) + bad(&on),
        );
    }

    let col = |v: &[Sample], f: fn(&Sample) -> f64| -> Vec<f64> {
        v.iter().filter(|s| s.ok).map(f).collect()
    };
    let queue = col(&local, |s| s.queue_ms);
    o.put("queue.wait_p50_ms", median(&queue), "ms");
    o.put("queue.wait_p99_ms", p99_or_max(&queue).0, "ms");
    o.put(
        "service.compute_p50_ms",
        median(&col(&local, |s| s.compute_ms)),
        "ms",
    );

    // direct Plan::run of the registry plan on the same inputs; wire
    // results must match it bit for bit
    let mut client = servewl::wire_conn(addr, 99);
    let (mut direct_ms, mut compute_ms, mut sharded_ms, mut unsharded_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut plan_ms = Vec::new();
    let mut mismatched = 0;
    for (i, job) in inputs.iter().enumerate() {
        let spec = JobSpec::new(job.pattern.clone(), job.input.clone(), job.steps);
        let (plan, shards) = service.plan_for(&spec).expect("registry plan");
        let direct = domain::run(&plan, &job.input, job.steps).expect("direct run");
        let wired = client.run(job.header(), &job.dense).map(|out| out.data);
        mismatched += (!bits_equal(&wired.unwrap_or_default(), &check::dense(&direct))) as u64;
        let t = time_median(PROBE_SECS / 4.0, || {
            std::hint::black_box(domain::run(&plan, &job.input, job.steps).expect("direct run"));
        }) * 1e3;
        plan_ms.push(t);
        if job.big {
            let JobDomain::D3(g) = &job.input else {
                unreachable!("big jobs are 3D")
            };
            // the lanes and shard count the service itself uses
            let lanes = shard::lane_plans(&plan, shards).expect("lane plans");
            let s = shards;
            let stitched = shard::run_sharded_3d(&lanes, g, job.steps, s).expect("sharded run");
            mismatched += (!bits_equal(&stitched.to_dense(), &check::dense(&direct))) as u64;
            sharded_ms += time_median(PROBE_SECS / 4.0, || {
                std::hint::black_box(
                    shard::run_sharded_3d(&lanes, g, job.steps, s).expect("sharded"),
                );
            }) * 1e3;
            unsharded_ms += t;
        } else {
            let mine = col(
                &local
                    .iter()
                    .filter(|s| s.input == i)
                    .copied()
                    .collect::<Vec<_>>(),
                |s| s.compute_ms,
            );
            direct_ms += t;
            compute_ms += median(&mine);
        }
    }
    o.count(inputs.len() as u64 * 2, mismatched);
    if mismatched > 0 {
        println!("wire/sharded results differing from the in-process plan run: {mismatched}");
    }
    let st = service.stats();
    o.put("service.vs_plan", direct_ms / compute_ms, "ratio");
    let drained = st.jobs_completed + st.jobs_failed + st.jobs_shed;
    o.put(
        "batch.jobs_per_batch",
        drained as f64 / st.batches.max(1) as f64,
        "jobs",
    );
    o.put(
        "shard.jobs_frac",
        st.sharded_jobs as f64 / st.jobs_completed.max(1) as f64,
        "fraction",
    );
    o.put(
        "shard.shards_per_job",
        st.shards_executed as f64 / st.sharded_jobs.max(1) as f64,
        "shards",
    );
    o.put("shard.vs_unsharded", unsharded_ms / sharded_ms, "ratio");
    o.put("registry.hit_ratio", st.hit_ratio(), "fraction");

    let overhead: Vec<f64> = wire
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.rtt_ms - s.server_ms)
        .collect();
    let payload: f64 = wire
        .iter()
        .filter(|s| s.ok)
        .map(|s| 16.0 * inputs[s.input].dense.len() as f64)
        .sum();
    o.put("net.overhead_p50_ms", median(&overhead), "ms");
    o.put("net.overhead_p99_ms", p99_or_max(&overhead).0, "ms");
    o.put(
        "net.payload_mb_per_s",
        payload / 1e6 / (overhead.iter().sum::<f64>() / 1e3),
        "MB/s",
    );
    let (enc, dec) = codec_us_per_mb(&inputs);
    o.put("net.encode_us_per_mb", enc, "us/MB");
    o.put("net.decode_us_per_mb", dec, "us/MB");

    let ok_ms = |v: &[Sample], f: fn(&Sample) -> f64| median(&col(v, f));
    let row = |layer: &str, ms: f64, moves: &str| Row {
        layer: layer.into(),
        rate: 1e3 / ms,
        unit: "jobs/s",
        ms,
        moves: moves.into(),
    };
    report::ledger(
        &format!(
            "serve-wire (median job of the mix; open loop at {} jobs/s, {} wire + {} in-process jobs)",
            rate,
            wire.len(),
            local.len()
        ),
        &[
            row("plan: Plan::run of the registry plan", median(&plan_ms), "(reference)"),
            row(
                "service: queue + batch/shard + compute",
                ok_ms(&local, |s| s.server_ms),
                "queue.*, service.*, batch.*, shard.*, registry.* -> job_p50_ms, job_p99_ms, capacity_jobs_per_s on serve-wire",
            ),
            row(
                "net: NetClient round trip",
                ok_ms(&wire, |s| s.rtt_ms),
                "net.* -> job_p50_ms on serve-wire",
            ),
        ],
    );
    let _ = client.bye();
    let st = server.shutdown();
    println!(
        "service totals: {} completed, {} failed, {} rejected, {} shed, {} batches, {} sharded jobs",
        st.jobs_completed, st.jobs_failed, st.jobs_rejected, st.jobs_shed, st.batches, st.sharded_jobs
    );
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Microseconds per MB to `wire::encode` and `wire::decode` the
/// largest input's payload frame.
fn codec_us_per_mb(inputs: &[JobInput]) -> (f64, f64) {
    let data = inputs
        .iter()
        .map(|j| &j.dense)
        .max_by_key(|d| d.len())
        .expect("inputs");
    let frame = Frame::Payload(data.clone());
    let mb = (data.len() * 8) as f64 / 1e6;
    let mut buf = Vec::new();
    let enc = time_median(PROBE_SECS / 2.0, || {
        buf.clear();
        wire::encode(&frame, &mut buf);
    });
    let dec = time_median(PROBE_SECS / 2.0, || {
        std::hint::black_box(
            wire::decode(&buf, buf.len())
                .expect("decode")
                .expect("a whole frame"),
        );
    });
    (enc * 1e6 / mb, dec * 1e6 / mb)
}

fn ooc_layers(workload: &str, seed: u64, pool: &PoolHandle, o: &mut Outcome) {
    let rig = oocwl::setup(seed, oocwl::EXT, pool, &oocwl::store_path("traced"));
    let mut rng = Rng::new(seed, 3);
    let steps = oocwl::STEPS;
    let flops = oocwl::flops(oocwl::EXT, steps);
    // warm the page cache and the pool
    let (_, _, warm_ok) = oocwl::job(&rig, &mut rng, steps, &rig.cfg);
    let sync_cfg = OocConfig {
        prefetch: false,
        ..rig.cfg
    };
    let mut prefetch = Vec::new();
    let mut secs = Vec::new();
    let mut bad = (!warm_ok) as u64;
    for _ in 0..2 {
        let (rep, s, ok) = oocwl::job(&rig, &mut rng, steps, &rig.cfg);
        bad += (!ok) as u64;
        prefetch.extend(rep);
        secs.push(s);
    }
    let mut sync_secs = Vec::new();
    for _ in 0..2 {
        let (_, s, ok) = oocwl::job(&rig, &mut rng, steps, &sync_cfg);
        bad += (!ok) as u64;
        sync_secs.push(s);
    }
    // resident: the same domain materialized, one Plan::run per call
    let samples = oocwl::sample_refs(&rig.store, &mut rng, steps, oocwl::SAMPLES);
    let grid = JobDomain::D3(rig.store.to_grid().expect("materialize the store"));
    let out = domain::run(&rig.plan, &grid, steps).expect("resident run");
    let resident_ok = samples
        .iter()
        .all(|(c, want)| check::within_tol(check::value(&out, *c), *want));
    bad += (!resident_ok) as u64;
    drop(out);
    let resident_s = time_median(0.0, || {
        std::hint::black_box(domain::run(&rig.plan, &grid, steps).expect("resident run"));
    });
    drop(grid);
    o.count(6, bad);
    if workload == "ooc-stream" {
        let run = |on: bool| {
            traced_slice(on, || {
                oocwl::job(&rig, &mut Rng::new(seed, 4), steps, &rig.cfg)
            })
        };
        let ((_, off, ok_off), (_, on, ok_on)) = (run(false), run(true));
        slice_metrics(&mut *o, on, off, &[], 2, (!ok_off) as u64 + (!ok_on) as u64);
    }

    let sum = |f: fn(&stencil_ooc::StreamReport) -> u64| prefetch.iter().map(f).sum::<u64>() as f64;
    let wall_us: f64 = secs.iter().sum::<f64>() * 1e6;
    let hits = sum(|r| r.stats.prefetch_hit);
    let misses = sum(|r| r.stats.prefetch_miss);
    o.put("ooc.bytes_read", sum(|r| r.stats.bytes_read), "bytes");
    o.put("ooc.bytes_written", sum(|r| r.stats.bytes_written), "bytes");
    o.put("ooc.passes", sum(|r| r.passes as u64), "count");
    o.put(
        "ooc.io_blocked_frac",
        sum(|r| r.io_blocked_us) / wall_us,
        "fraction",
    );
    o.put(
        "ooc.io_overlap_frac",
        sum(|r| r.io_overlap_us) / wall_us,
        "fraction",
    );
    o.put(
        "ooc.prefetch_hit_ratio",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    o.put("ooc.stall_ms", sum(|r| r.stats.stall_us) / 1e3, "ms");
    o.put("ooc.io_retries", sum(|r| r.stats.io_retries), "count");
    let (pf, sy) = (median(&secs), median(&sync_secs));
    o.put("ooc.vs_resident", resident_s / pf, "ratio");
    o.put("ooc.vs_sync", sy / pf, "ratio");
    let row = |layer: &str, s: f64, moves: &str| Row {
        layer: layer.into(),
        rate: flops / s / 1e9,
        unit: "GFLOP/s",
        ms: s * 1e3,
        moves: moves.into(),
    };
    report::ledger(
        &format!(
            "ooc-stream ({:?} 3D27P, {} steps per job, budget {} KiB; page-cache IO)",
            oocwl::EXT,
            steps,
            rig.cfg.budget_bytes >> 10
        ),
        &[
            row("resident: Plan::run", resident_s, "(reference)"),
            row(
                "sync stream: run_streaming, prefetch off",
                sy,
                "ooc.vs_sync -> gflops on ooc-stream",
            ),
            row(
                "prefetch stream: run_streaming, prefetch on",
                pf,
                "ooc.* -> gflops on ooc-stream only",
            ),
        ],
    );
}
