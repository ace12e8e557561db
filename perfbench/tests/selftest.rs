//! Self-tests of the benchmark's own machinery: the percentile rule,
//! the cone check, and seed determinism of the counts it reports.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use stencil_core::kernels;
use stencil_perfbench::check::{self, Check};
use stencil_perfbench::host::HostStamp;
use stencil_perfbench::rng::Rng;
use stencil_perfbench::stats::{p99_or_max, percentile, sorted};
use stencil_perfbench::{domain, oocwl, planwl, servewl};
use stencil_runtime::PoolHandle;
use stencil_serve::JobDomain;

#[test]
fn percentile_refuses_without_ten_samples_beyond() {
    let v = |n: usize| sorted(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
    // p99 of 1000 leaves exactly 10 beyond; of 999, only 9
    assert_eq!(percentile(&v(1000), 0.99), Some(989.0));
    assert_eq!(percentile(&v(999), 0.99), None);
    assert_eq!(percentile(&v(100), 0.99), None);
    // a median from percentile() needs 20 samples
    assert_eq!(percentile(&v(20), 0.5), Some(9.0));
    assert_eq!(percentile(&v(19), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    // the reported tail falls back to the slowest sample, flagged
    assert_eq!(p99_or_max(&[3.0, 1.0, 2.0]), (3.0, false));
    assert_eq!(p99_or_max(&v(1000)), (989.0, true));
}

#[test]
fn cone_check_flags_one_perturbed_sample() {
    let pool = PoolHandle::new(1);
    for (pattern, ext) in [
        (kernels::d1p5(), vec![256]),
        (kernels::gb(), vec![40, 48]),
        (kernels::box3d27p(), vec![24, 24, 24]),
    ] {
        let t = 4;
        let input = domain::seeded_domain(7, &ext, 1);
        let plan = domain::registry_plan(&pattern, &ext, &pool);
        let mut out = domain::run(&plan, &input, t).expect("run");
        let c = Check::cone(&mut Rng::new(7, 1), &pattern, t, &input, 8);
        assert_eq!(c.points.len(), 8);
        assert!(c.passes(&out), "{ext:?}: a correct run passes");
        let p = c.points[3];
        match &mut out {
            JobDomain::D1(g) => g[p[2]] += 1e-9,
            JobDomain::D2(g) => g[(p[1], p[2])] += 1e-9,
            JobDomain::D3(g) => g[(p[0], p[1], p[2])] += 1e-9,
        }
        assert_eq!(check::mismatches(&out, &c.points, &c.refs), 1, "{ext:?}");
        assert!(!c.passes(&out), "{ext:?}: the perturbed sample is caught");
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    let host = HostStamp::detect();
    let pool = PoolHandle::new(2);
    // flops and computed bytes of every plan-l2 job
    let counts = || {
        let (cases, _) = planwl::setup_l2(11, &host, &pool);
        cases
            .iter()
            .map(|c| (c.flops(), c.bytes(&c.plan), c.input.points()))
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(), counts());

    // store traffic and passes of one streaming job
    let ooc = |tag: &str| {
        let rig = oocwl::setup(11, oocwl::EXT, &pool, &oocwl::store_path(tag));
        let (rep, _, ok) = oocwl::job(&rig, &mut Rng::new(11, 2), oocwl::STEPS, &rig.cfg);
        let rep = rep.expect("the job streams");
        assert!(ok, "the streamed job passes its check");
        (rep.stats.bytes_read, rep.stats.bytes_written, rep.passes)
    };
    assert_eq!(ooc("det-a"), ooc("det-b"));

    // shards per job of the serve mix
    let shards = || {
        let inputs = servewl::inputs(11);
        let server = servewl::start(2, &inputs);
        let mut client = servewl::wire_conn(server.addr(), 0);
        let out: Vec<u64> = (0..inputs.len())
            .map(|i| servewl::send_wire(&mut client, &inputs, i).shards)
            .collect();
        drop(client);
        server.shutdown();
        out
    };
    let first = shards();
    assert!(first.iter().any(|&s| s > 1), "the 3D class shards");
    assert_eq!(first, shards());
}
