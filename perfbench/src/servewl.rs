//! The `serve-wire` workload: a `NetServer` over a `StencilService` in
//! this process, reached over loopback TCP through `NetClient`.
//!
//! The seeded job mix has two classes that use the service in two
//! ways: small 2D jobs (heat2d/box2d9p) below the shard floor, which
//! the queue batches, and 3D jobs (heat3d/box3d27p) above it, which the
//! service shards. Phase A is an open loop of Poisson arrivals at a
//! fixed offered rate, each job timed from its scheduled send time;
//! phase B is a closed loop, one job in flight per connection.

use crate::check::{self, Check};
use crate::domain;
use crate::rng::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use stencil_core::{kernels, Pattern, Tuning};
use stencil_grid::{Grid1D, Grid2D, Grid3D};
use stencil_serve::net::SubmitHeader;
use stencil_serve::{
    JobDomain, JobSpec, Manifest, NetClient, NetConfig, NetServer, ServeConfig, ShardPolicy,
    StencilService,
};

/// Phase-A offered load, jobs per second across all connections.
pub const OFFERED_RATE: f64 = 110.0;
/// Phase-A latency limit: a job finishing later (or failing) misses.
pub const SLO_MS: f64 = 50.0;
/// Phase-A arrivals across all connections: enough for a p99 with
/// ten samples beyond it.
pub const PHASE_A_JOBS: usize = 1100;
/// Shortest phase B, seconds (phase B fills the run after phase A).
pub const PHASE_B_MIN_SECS: f64 = 3.0;
/// Jobs per block of the mix: one big 3D job, the rest small 2D jobs,
/// so every run sends the same class shares.
pub const MIX_BLOCK: usize = 5;
/// Extents and steps of the small 2D jobs.
pub const SMALL: ([usize; 2], usize) = ([64, 64], 8);
/// Extents and steps of the sharded 3D jobs.
pub const BIG: ([usize; 3], usize) = ([48, 24, 24], 4);
/// The service's shard floor: 3D jobs are above it, 2D jobs below.
pub const SHARD_FLOOR: usize = 1 << 14;
/// Distinct seeded inputs per kernel.
pub const INPUTS_PER_KERNEL: usize = 4;
/// Cone samples checked per output.
pub const SAMPLES: usize = 4;

/// One job the generator can send: its kernel, input and checks.
pub struct JobInput {
    /// Manifest name of the kernel.
    pub kernel: &'static str,
    /// The stencil.
    pub pattern: Pattern,
    /// The input grid.
    pub input: JobDomain,
    /// The input, dense row-major (the wire payload).
    pub dense: Vec<f64>,
    /// Steps to advance.
    pub steps: usize,
    /// Cone-sample check of the output (attached by [`check_inputs`]).
    pub check: Check,
    /// Useful flops of the job.
    pub flops: f64,
    /// True for the 3D (sharded) class.
    pub big: bool,
}

impl JobInput {
    /// The wire header that submits this job.
    pub fn header(&self) -> SubmitHeader {
        SubmitHeader {
            id: 0,
            name: self.kernel.to_string(),
            pattern: self.pattern.clone(),
            extents: self.input.extents(),
            steps: self.steps,
            rounds: 1,
            tuning: None,
            deadline_ms: None,
        }
    }
}

/// The seeded input pool: [`INPUTS_PER_KERNEL`] grids per kernel,
/// small 2D kernels first.
pub fn inputs(seed: u64) -> Vec<JobInput> {
    let kinds: [(&'static str, Pattern, bool); 4] = [
        ("heat2d", kernels::heat2d(), false),
        ("box2d9p", kernels::box2d9p(), false),
        ("heat3d", kernels::heat3d(), true),
        ("box3d27p", kernels::box3d27p(), true),
    ];
    let mut out = Vec::new();
    for (k, (kernel, pattern, big)) in kinds.into_iter().enumerate() {
        for j in 0..INPUTS_PER_KERNEL {
            let (ext, steps) = if big {
                (BIG.0.to_vec(), BIG.1)
            } else {
                (SMALL.0.to_vec(), SMALL.1)
            };
            let input = domain::seeded_domain(seed ^ ((k * 16 + j + 1) as u64) << 20, &ext, 1);
            out.push(JobInput {
                flops: domain::flops(&pattern, input.points(), steps),
                pattern: pattern.clone(),
                kernel,
                dense: check::dense(&input),
                input,
                steps,
                check: Check::default(),
                big,
            });
        }
    }
    out
}

/// Attach seeded cone-sample checks to every input.
pub fn check_inputs(inputs: &mut [JobInput], seed: u64) {
    let mut rng = Rng::new(seed, 0x5E7);
    for j in inputs {
        j.check = Check::cone(&mut rng, &j.pattern, j.steps, &j.input, SAMPLES);
    }
}

/// The seeded job picker: indices into [`inputs`].
pub struct Mix {
    rng: Rng,
    k: usize,
    big_at: usize,
}

impl Mix {
    /// Picker for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Mix {
            rng: Rng::new(seed, stream),
            k: 0,
            big_at: 0,
        }
    }

    /// A job of class `class` (0 small, 1 big).
    pub fn pick_in(&mut self, class: usize) -> usize {
        let per_class = 2 * INPUTS_PER_KERNEL;
        class * per_class + self.rng.range(0, per_class)
    }

    /// The next job of the mix: one big job at a seeded place in every
    /// block of [`MIX_BLOCK`].
    pub fn pick(&mut self) -> usize {
        if self.k.is_multiple_of(MIX_BLOCK) {
            self.big_at = self.rng.range(0, MIX_BLOCK);
        }
        let class = usize::from(self.k % MIX_BLOCK == self.big_at);
        self.k += 1;
        self.pick_in(class)
    }
}

/// Start the service and its network front end, warm the registry with
/// the mix's kernels, and send each input once over the wire (the first
/// sharded job compiles its lane plans).
pub fn start(nproc: usize, inputs: &[JobInput]) -> NetServer {
    let service = stencil_serve::StencilService::start(ServeConfig {
        threads: nproc,
        queue_capacity: 256,
        tuning: Tuning::Static,
        shard: ShardPolicy {
            min_points: SHARD_FLOOR,
            max_shards: nproc,
            min_slab: 16,
        },
        ..ServeConfig::default()
    });
    let mut manifest = Manifest::new(Tuning::Static);
    manifest.push_kernel("heat2d", Some(&SMALL.0));
    manifest.push_kernel("box2d9p", Some(&SMALL.0));
    manifest.push_kernel("heat3d", Some(&BIG.0));
    manifest.push_kernel("box3d27p", Some(&BIG.0));
    let report = service.warm(&manifest);
    assert!(
        report.failed.is_empty(),
        "warm-up failed: {:?}",
        report.failed
    );
    let server = NetServer::start(
        service,
        NetConfig {
            max_conns: 64,
            tenant_quota: 64,
            ..NetConfig::default()
        },
    )
    .expect("bind a loopback port");
    let mut client = wire_conn(server.addr(), 0);
    for j in inputs {
        client.run(j.header(), &j.dense).expect("warm-up job");
    }
    server
}

/// Rebuild a result grid from its dense wire form.
pub fn from_dense(ext: &[usize], data: &[f64]) -> Option<JobDomain> {
    let n: usize = ext.iter().product();
    if data.len() != n {
        return None;
    }
    Some(match *ext {
        [n] => JobDomain::D1(Grid1D::from_slice(&data[..n])),
        [ny, nx] => JobDomain::D2(Grid2D::from_fn(ny, nx, |y, x| data[y * nx + x])),
        [nz, ny, nx] => JobDomain::D3(Grid3D::from_fn(nz, ny, nx, |z, y, x| {
            data[(z * ny + y) * nx + x]
        })),
        _ => return None,
    })
}

/// One completed (or failed) job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Input index.
    pub input: usize,
    /// Scheduled send (phase A) or send (phase B), seconds into the
    /// loop.
    pub at_s: f64,
    /// Scheduled send → result received, ms (phase A); send → result
    /// in phase B.
    pub latency_ms: f64,
    /// Actual send − scheduled send, ms.
    pub late_ms: f64,
    /// Client round trip, ms.
    pub rtt_ms: f64,
    /// The service's own queue + execution latency, ms.
    pub server_ms: f64,
    /// Queue wait, ms (in-process submissions only).
    pub queue_ms: f64,
    /// Compute time, ms (in-process submissions only).
    pub compute_ms: f64,
    /// Shards the job ran as.
    pub shards: u64,
    /// Succeeded and passed its check.
    pub ok: bool,
}

/// Send one job over the wire and check its result.
pub fn send_wire(client: &mut NetClient, inputs: &[JobInput], i: usize) -> Sample {
    let job = &inputs[i];
    let t0 = Instant::now();
    let out = client.run(job.header(), &job.dense);
    let mut smp = Sample {
        input: i,
        rtt_ms: t0.elapsed().as_secs_f64() * 1e3,
        ..Sample::default()
    };
    if let Ok(o) = out {
        smp.server_ms = o.latency_us as f64 / 1e3;
        smp.shards = o.shards;
        smp.ok = from_dense(&o.extents, &o.data).is_some_and(|d| job.check.passes(&d));
    }
    smp
}

/// Submit one job to the service in process and check its result; the
/// sample carries the job's timeline.
pub fn send_local(service: &StencilService, inputs: &[JobInput], i: usize) -> Sample {
    let job = &inputs[i];
    let t0 = Instant::now();
    let spec = JobSpec::new(job.pattern.clone(), job.input.clone(), job.steps);
    let out = service.submit(spec).and_then(|t| t.wait());
    let mut smp = Sample {
        input: i,
        rtt_ms: t0.elapsed().as_secs_f64() * 1e3,
        ..Sample::default()
    };
    if let Ok(r) = out {
        smp.server_ms = r.latency.as_secs_f64() * 1e3;
        smp.queue_ms = r.timeline.queue_us as f64 / 1e3;
        smp.compute_ms = r.timeline.compute_us as f64 / 1e3;
        smp.shards = r.shards as u64;
        smp.ok = job.check.passes(&r.output);
    }
    smp
}

/// Run `body(c)` on `conns` scoped threads and gather their samples.
fn per_connection(conns: usize, body: impl Fn(usize) -> Vec<Sample> + Sync) -> Vec<Sample> {
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns).map(|c| s.spawn(move || body(c))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Phase A: `conns` generator threads, each with its own connection
/// from `connect` and one job in flight, together sending `jobs`
/// Poisson arrivals at `rate`. With two or more connections each job
/// class has its own (even: small, odd: big) and its share of the rate,
/// so a small job never waits in the client behind a big one. Each job
/// is timed from its scheduled send time, so a stall charges the jobs
/// behind it.
pub fn open_loop<C>(
    seed: u64,
    conns: usize,
    rate: f64,
    jobs: usize,
    connect: impl Fn(usize) -> C + Sync,
    send: impl Fn(&mut C, usize) -> Sample + Sync,
) -> Vec<Sample> {
    per_connection(conns, |c| {
        let mut rng = Rng::new(seed, 0xA0 + c as u64);
        let mut mix = Mix::new(seed, 0xA8 + c as u64);
        let mut conn = connect(c);
        // this connection's class and share of the arrivals
        let (class, share) = if conns < 2 {
            (None, 1.0)
        } else {
            let class = c % 2;
            let peers = (conns - class).div_ceil(2) as f64;
            let big = 1.0 / MIX_BLOCK as f64;
            let frac = if class == 0 { 1.0 - big } else { big };
            (Some(class), frac / peers)
        };
        let start = Instant::now();
        let mut due = 0.0;
        let mut out = Vec::new();
        for _ in 0..(jobs as f64 * share).round() as usize {
            due += rng.exp_gap(rate * share);
            let i = match class {
                Some(k) => mix.pick_in(k),
                None => mix.pick(),
            };
            let now = start.elapsed().as_secs_f64();
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let late_ms = (start.elapsed().as_secs_f64() - due) * 1e3;
            let smp = send(&mut conn, i);
            out.push(Sample {
                at_s: due,
                late_ms,
                latency_ms: late_ms + smp.rtt_ms,
                ..smp
            });
        }
        out
    })
}

/// Phase B: `conns` connections each keeping one job in flight for
/// `secs`.
pub fn closed_loop<C>(
    seed: u64,
    conns: usize,
    secs: f64,
    connect: impl Fn(usize) -> C + Sync,
    send: impl Fn(&mut C, usize) -> Sample + Sync,
) -> Vec<Sample> {
    per_connection(conns, |c| {
        let mut mix = Mix::new(seed, 0xB0 + c as u64);
        let mut conn = connect(c);
        let start = Instant::now();
        let mut out = Vec::new();
        while start.elapsed().as_secs_f64() < secs {
            let at_s = start.elapsed().as_secs_f64();
            let smp = send(&mut conn, mix.pick());
            out.push(Sample {
                at_s,
                latency_ms: smp.rtt_ms,
                ..smp
            });
        }
        out
    })
}

/// A wire connection for generator thread `c`.
pub fn wire_conn(addr: SocketAddr, c: usize) -> NetClient {
    NetClient::connect(addr, &format!("gen{c}")).expect("connect to the loopback server")
}
