//! The four workloads' untraced runs and their end-to-end metrics.
//!
//! Every workload reports the same end-to-end metrics. A job is
//! one `Plan::run` call (`plan-l2`, `plan-dram`), one wire job
//! (`serve-wire`) or one `run_streaming` call (`ooc-stream`).

use crate::host::{self, HostStamp};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats;
use crate::{oocwl, planwl, servewl};
use std::time::Instant;
use stencil_runtime::PoolHandle;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-ups per `ooc-stream` run, whose set-up includes a warm-up
/// streaming job of a few seconds.
pub const OOC_SETUPS: usize = 3;

/// Latency limit of each workload's jobs, ms: `slo_frac` is the share
/// of attempted jobs finished within it.
pub fn slo_ms(workload: &str) -> f64 {
    match workload {
        "plan-l2" => 40.0,
        "plan-dram" => 20_000.0,
        "ooc-stream" => 4_000.0,
        _ => servewl::SLO_MS,
    }
}

/// Run `f` `n` times (dropping each result before the next set-up) and
/// return the median set-up seconds and the last result.
pub fn setups<T>(n: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f(i));
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Job-level inputs to the end-to-end metrics.
pub struct JobStats<'a> {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Latency of each successful job, ms (for the p99 and the SLO).
    pub latency_ms: &'a [f64],
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs the latency limit applies to (phase A on `serve-wire`).
    pub slo_attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Useful GFLOP/s (median over slices).
    pub gflops: f64,
    /// Median job latency, ms (median over slices).
    pub p50_ms: f64,
    /// Jobs per second at capacity (median over slices).
    pub capacity: f64,
}

/// The end-to-end metrics. `job_p99_ms` and `failed_frac` are printed
/// but not part of the result: the p99 of a job mix this short swings
/// with host hiccups, and failures travel as `failed` / `attempted`.
pub fn e2e(workload: &str, j: JobStats) -> Outcome {
    let mut o = Outcome::default();
    o.count(j.attempted, j.failed);
    let (p99, is_p99) = stats::p99_or_max(j.latency_ms);
    let within = j
        .latency_ms
        .iter()
        .filter(|&&l| l <= slo_ms(workload))
        .count();
    o.put("setup_s", j.setup_s, "s");
    o.put("gflops", j.gflops, "GFLOP/s");
    o.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    o.put("job_p50_ms", j.p50_ms, "ms");
    o.put(
        "slo_frac",
        within as f64 / j.slo_attempted.max(1) as f64,
        "fraction",
    );
    o.put("capacity_jobs_per_s", j.capacity, "jobs/s");
    println!(
        "jobs: {} attempted, {} failed; job_p99_ms = {p99:.3} ms, {} of {} samples; \
         SLO limit {} ms; rates and p50 are medians over {} slices of the run",
        j.attempted,
        j.failed,
        if is_p99 {
            "the p99"
        } else {
            "the slowest (too few for a p99)"
        },
        j.latency_ms.len(),
        slo_ms(workload),
        stats::SLICES
    );
    o
}

fn plan_outcome(workload: &str, setup_s: f64, jobs: &planwl::Jobs) -> Outcome {
    let lat: Vec<f64> = jobs.secs.iter().map(|s| s * 1e3).collect();
    let per_slice = |f: &dyn Fn(&[usize]) -> f64| {
        stats::slice_median(&jobs.starts, jobs.span, stats::SLICES, f)
    };
    e2e(
        workload,
        JobStats {
            setup_s,
            latency_ms: &lat,
            attempted: jobs.attempted,
            slo_attempted: jobs.attempted,
            failed: jobs.failed,
            gflops: per_slice(&|idx| jobs.gflops(idx)),
            p50_ms: per_slice(&|idx| {
                stats::median(&idx.iter().map(|&i| lat[i]).collect::<Vec<_>>())
            }),
            capacity: per_slice(&|idx| {
                idx.len() as f64 / idx.iter().map(|&i| jobs.secs[i]).sum::<f64>()
            }),
        },
    )
}

/// `plan-l2`: the seven kernels round-robin, one `Plan::run` per job.
pub fn plan_l2(host: &HostStamp, seed: u64, secs: f64) -> Outcome {
    let pool = PoolHandle::shared(host.nproc);
    let (setup_s, (mut cases, _)) = setups(SETUPS, |_| planwl::setup_l2(seed, host, &pool));
    planwl::check_l2(&mut cases, seed);
    let bytes = cases
        .iter()
        .map(|c| c.input.points() * 8)
        .max()
        .unwrap_or(0);
    println!(
        "{}",
        host.workload_line(bytes, cases[0].plan.pool().threads())
    );
    let jobs = planwl::drive(&cases, secs);
    plan_outcome("plan-l2", setup_s, &jobs)
}

/// `plan-dram`: 3D-Heat on the cube, one `Plan::run` per job.
pub fn plan_dram(host: &HostStamp, seed: u64, secs: f64) -> Outcome {
    let pool = PoolHandle::shared(host.nproc);
    let (setup_s, mut case) = setups(SETUPS, |_| planwl::setup_dram(seed, host, &pool));
    planwl::check_cone(&mut case, seed);
    println!(
        "{}",
        host.workload_line(case.input.points() * 8, case.plan.pool().threads())
    );
    let jobs = planwl::drive(std::slice::from_ref(&case), secs);
    plan_outcome("plan-dram", setup_s, &jobs)
}

/// `serve-wire`: phase A (open loop) then phase B (closed loop).
pub fn serve_wire(host: &HostStamp, seed: u64, secs: f64) -> Outcome {
    let (setup_s, (server, mut inputs)) = setups(SETUPS, |_| {
        let inputs = servewl::inputs(seed);
        (servewl::start(host.nproc, &inputs), inputs)
    });
    servewl::check_inputs(&mut inputs, seed);
    let bytes = inputs.iter().map(|j| j.dense.len() * 8).max().unwrap_or(0);
    let threads = server.service().registry().pool().threads();
    println!("{}", host.workload_line(bytes, threads));
    let addr = server.addr();
    let conn = |c| servewl::wire_conn(addr, c);
    let send = |cl: &mut _, i| servewl::send_wire(cl, &inputs, i);
    let t0 = Instant::now();
    let (rate, n_a) = (servewl::OFFERED_RATE, servewl::PHASE_A_JOBS);
    let a = servewl::open_loop(seed, host.nproc, rate, n_a, conn, send);
    let b_secs = (secs - t0.elapsed().as_secs_f64()).max(servewl::PHASE_B_MIN_SECS);
    let tb = Instant::now();
    let b = servewl::closed_loop(seed, host.nproc, b_secs, conn, send);
    let b_secs = tb.elapsed().as_secs_f64();
    let st = server.shutdown();
    let ok = |v: &[servewl::Sample]| v.iter().filter(|s| s.ok).count();
    let a_ok: Vec<&servewl::Sample> = a.iter().filter(|s| s.ok).collect();
    let b_ok: Vec<&servewl::Sample> = b.iter().filter(|s| s.ok).collect();
    let lat: Vec<f64> = a_ok.iter().map(|s| s.latency_ms).collect();
    let a_at: Vec<f64> = a_ok.iter().map(|s| s.at_s).collect();
    let a_span = a_at.iter().copied().fold(0.0, f64::max);
    let b_at: Vec<f64> = b_ok.iter().map(|s| s.at_s).collect();
    let slice_s = b_secs / stats::SLICES as f64;
    let late = stats::p99_or_max(&a.iter().map(|s| s.late_ms).collect::<Vec<_>>()).0;
    println!(
        "phase A: {} jobs offered at {} jobs/s, generator late p99/max {late:.3} ms; \
         phase B: {} jobs on {} connections; service: {} completed, {} failed, {} rejected, {} shed",
        a.len(),
        servewl::OFFERED_RATE,
        b.len(),
        host.nproc,
        st.jobs_completed,
        st.jobs_failed,
        st.jobs_rejected,
        st.jobs_shed
    );
    let n = (a.len() + b.len()) as u64;
    e2e(
        "serve-wire",
        JobStats {
            setup_s,
            latency_ms: &lat,
            attempted: n,
            slo_attempted: a.len() as u64,
            failed: n - (ok(&a) + ok(&b)) as u64,
            // an open loop completes what it is offered: the service's
            // flop rate is measured at capacity, in phase B
            gflops: stats::slice_median(&b_at, b_secs, stats::SLICES, |idx| {
                idx.iter()
                    .map(|&i| inputs[b_ok[i].input].flops)
                    .sum::<f64>()
                    / slice_s
                    / 1e9
            }),
            p50_ms: stats::slice_median(&a_at, a_span, stats::SLICES, |idx| {
                stats::median(&idx.iter().map(|&i| lat[i]).collect::<Vec<_>>())
            }),
            capacity: stats::slice_median(&b_at, b_secs, stats::SLICES, |idx| {
                idx.len() as f64 / slice_s
            }),
        },
    )
}

/// `ooc-stream`: checked `run_streaming` jobs on the spilled domain.
pub fn ooc_stream(host: &HostStamp, seed: u64, secs: f64) -> Outcome {
    let pool = PoolHandle::shared(host.nproc);
    let (setup_s, rig) = setups(OOC_SETUPS, |i| {
        let rig = oocwl::setup(seed, oocwl::EXT, &pool, &oocwl::store_path(&i.to_string()));
        // warm: the first pass pays thread start-up and page-cache fill
        oocwl::job(&rig, &mut Rng::new(seed, 1), oocwl::STEPS, &rig.cfg);
        rig
    });
    println!(
        "{}",
        host.workload_line(oocwl::domain_bytes(oocwl::EXT), rig.plan.pool().threads())
    );
    let mut rng = Rng::new(seed, 2);
    let mut jobs = planwl::Jobs::default();
    let start = Instant::now();
    while jobs.attempted == 0 || start.elapsed().as_secs_f64() < secs {
        let at = start.elapsed().as_secs_f64();
        let (_, s, ok) = oocwl::job(&rig, &mut rng, oocwl::STEPS, &rig.cfg);
        jobs.attempted += 1;
        if ok {
            jobs.secs.push(s);
            jobs.starts.push(at);
            jobs.flops.push(oocwl::flops(oocwl::EXT, oocwl::STEPS));
        } else {
            jobs.failed += 1;
        }
    }
    jobs.span = start.elapsed().as_secs_f64();
    plan_outcome("ooc-stream", setup_s, &jobs)
}
