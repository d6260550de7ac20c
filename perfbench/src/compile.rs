//! `compile`: the `rana-compile precompile` grid on a fresh evaluator,
//! the store round trip (`to_bytes` → `from_bytes` → `warm_start` into a
//! second fresh evaluator), a warm-started serving sweep over Poisson and
//! bursty tenant mixes, and `evaluate_many` of S+ID and RANA*(E-5) over
//! the four paper networks.

use crate::gen::{derive, Rng};
use crate::reference::fnv;
use crate::report::{Checks, Metric};
use crate::spans::{self_time_by_name, Spans};
use crate::stats::{describe, median};
use crate::{energy_ok, traced, Outcome, Run};
use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
use rana_core::{Design, Evaluator, NetworkEnergy};
use rana_serve::{
    PartitionPolicy, QueuePolicy, ServeConfig, ServeReport, Server, TenantSpec, TrafficModel,
};
use rana_zoo::Network;
use std::time::Instant;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// Simulated horizon of each serving scenario, µs (`exp_serve`'s).
const SERVE_HORIZON_US: f64 = 20_000_000.0;

/// RANA*(E-5) ÷ S+ID geomean total energy over the four paper networks
/// reported in the paper.
const PAPER_ENERGY_VS_SID: f64 = 0.338;

/// The precompiled grid: every bank count the serving sweep can hand a
/// tenant (equal splits of 44 banks over 3 and 5 tenants, the 4-bank
/// quantum ladder of dynamic partitioning, and the full buffer), five
/// octaves of thermal derating at four rungs per octave.
fn grid() -> PrecompileSpec {
    let mut banks: Vec<usize> = (1..=11).map(|q| 4 * q).collect();
    banks.extend([8, 9, 14, 15, 22]);
    banks.sort_unstable();
    banks.dedup();
    PrecompileSpec { bank_counts: banks, ladder_octaves: 5, ..Default::default() }
}

fn zoo() -> Vec<Network> {
    vec![
        rana_zoo::alexnet(),
        rana_zoo::googlenet(),
        rana_zoo::vgg16(),
        rana_zoo::resnet50(),
        rana_zoo::mobilenet_v1(),
    ]
}

/// One serving scenario of the sweep, generated from the seed.
struct Scenario {
    name: &'static str,
    specs: Vec<TenantSpec>,
    cfg: ServeConfig,
}

/// The sweep's inputs: the `exp_serve` three-tenant Poisson mix under
/// static and dynamic partitioning and its five-tenant bursty mix, with
/// tenant weights, loads and traffic seeds drawn from the seed. Rates are
/// fractions of each mix's back-to-back capacity on `eval`.
fn sweep(seed: u64, eval: &Evaluator) -> Vec<Scenario> {
    let mut rng = Rng::new(derive(seed, "mixes", 0));
    let mut mix = |nets: Vec<Network>| -> Vec<TenantSpec> {
        nets.into_iter().map(|n| TenantSpec::new(n, rng.range(0.5, 1.5))).collect()
    };
    let poisson = mix(vec![rana_zoo::alexnet(), rana_zoo::googlenet(), rana_zoo::resnet50()]);
    let bursty = mix(zoo());
    let capacity = |specs: &[TenantSpec]| {
        let wsum: f64 = specs.iter().map(|s| s.weight).sum();
        let mean_us: f64 = specs
            .iter()
            .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
            .sum::<f64>()
            / wsum;
        1e6 / mean_us
    };
    let (pcap, bcap) = (capacity(&poisson), capacity(&bursty));
    let mut out = Vec::new();
    for (i, part) in [PartitionPolicy::Static, PartitionPolicy::Dynamic].into_iter().enumerate() {
        let load = rng.range(0.6, 0.9);
        let mut cfg = ServeConfig::paper(
            TrafficModel::Poisson { rate_rps: load * pcap },
            derive(seed, "traffic", i as u64),
        );
        cfg.horizon_us = SERVE_HORIZON_US;
        cfg.partition_policy = part;
        out.push(Scenario { name: "poisson", specs: poisson.clone(), cfg });
    }
    let traffic = TrafficModel::Bursty {
        rate_rps: rng.range(0.6, 0.9) * bcap,
        burst_factor: 3.0,
        burst_fraction: 0.25,
        mean_burst_us: 500_000.0,
    };
    let mut cfg = ServeConfig::paper(traffic, derive(seed, "traffic", 2));
    cfg.horizon_us = SERVE_HORIZON_US;
    cfg.queue_policy = QueuePolicy::Edf;
    cfg.partition_policy = PartitionPolicy::Dynamic;
    out.push(Scenario { name: "bursty", specs: bursty, cfg });
    out
}

struct Setup {
    nets: Vec<Network>,
    paper_nets: Vec<Network>,
    scenarios: Vec<Scenario>,
}

/// Generates the workload's inputs: the network zoo, the grid, and the
/// serving sweep (whose rates need the mixes' isolated latencies).
fn setup(seed: u64, spans: &mut Spans) -> Setup {
    let eval = Evaluator::paper_platform();
    let scenarios = spans.span("sched.evaluate", 0, || sweep(seed, &eval));
    Setup {
        nets: zoo(),
        paper_nets: vec![
            rana_zoo::alexnet(),
            rana_zoo::vgg16(),
            rana_zoo::googlenet(),
            rana_zoo::resnet50(),
        ],
        scenarios,
    }
}

/// Everything one iteration produced.
struct Iteration {
    searches: u64,
    precompile_s: f64,
    warm_start_s: f64,
    total_s: f64,
    store: ScheduleStore,
    bytes: usize,
    reports: Vec<ServeReport>,
    fresh_searches: u64,
    warm_hits: u64,
    energies: Vec<NetworkEnergy>,
    decoded_equal: bool,
}

fn iterate(s: &Setup, group: u64, spans: &mut Spans) -> Iteration {
    let start = Instant::now();
    let cold = Evaluator::paper_platform();
    let mut store = ScheduleStore::new();
    let stats =
        spans.span("sched.precompile", group, || precompile(&cold, &s.nets, &grid(), &mut store));
    let precompile_s = start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let bytes = spans.span("store.encode", group, || store.to_bytes());
    let decoded = spans.span("store.decode", group, || ScheduleStore::from_bytes(&bytes));
    let decoded_equal = decoded.as_ref().is_ok_and(|d| *d == store);
    let warm = Evaluator::paper_platform();
    spans.span("store.warm_start", group, || {
        if let Ok(d) = &decoded {
            d.warm_start(warm.cache());
        }
    });
    let reports: Vec<ServeReport> = s
        .scenarios
        .iter()
        .map(|sc| {
            let server = spans
                .span("serve.new", group, || Server::new(&warm, sc.specs.clone(), sc.cfg.clone()));
            spans.span("serve.run", group, || server.run())
        })
        .collect();
    let warm_start_s = warm_start.elapsed().as_secs_f64();
    let fresh_searches = warm.cache().misses();

    let points: Vec<(&Network, Design)> =
        s.paper_nets.iter().flat_map(|n| [(n, Design::SId), (n, Design::RanaStarE5)]).collect();
    let energies = spans.span("sched.evaluate", group, || cold.evaluate_many(&points));
    Iteration {
        searches: stats.searches + cold.cache().misses(),
        precompile_s,
        warm_start_s,
        total_s: start.elapsed().as_secs_f64(),
        bytes: bytes.len(),
        store,
        reports,
        fresh_searches,
        warm_hits: warm.cache().warm_hits(),
        energies,
        decoded_equal,
    }
}

/// Geomean over the paper networks of RANA*(E-5) ÷ S+ID total energy
/// (`energies` alternates S+ID, RANA*(E-5) per network).
fn energy_vs_sid(energies: &[NetworkEnergy]) -> f64 {
    let logs: Vec<f64> =
        energies.chunks(2).map(|p| (p[1].total.total_j() / p[0].total.total_j()).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn check_iteration(s: &Setup, it: &Iteration, index: u64, checks: &mut Checks) {
    checks.check(it.decoded_equal, || {
        format!("iteration {index}: from_bytes(to_bytes(store)) != store")
    });
    checks.check(it.fresh_searches == 0, || {
        format!("iteration {index}: warm serving sweep ran {} fresh searches", it.fresh_searches)
    });
    for (sc, r) in s.scenarios.iter().zip(&it.reports) {
        checks.check(
            r.offered == r.served + r.admission_drops + r.deadline_drops && r.served > 0,
            || format!("iteration {index} {}: offered {} != served + drops", sc.name, r.offered),
        );
        checks.check(energy_ok(&r.energy), || {
            format!("iteration {index} {}: negative energy", sc.name)
        });
    }
    for e in &it.energies {
        checks.check(energy_ok(&e.total) && e.total.total_j() > 0.0, || {
            format!("iteration {index} {} {}: bad energy", e.network, e.design)
        });
    }
}

fn digests(it: &Iteration) -> Vec<(String, String)> {
    let mut out = vec![
        ("store_fnv".to_string(), format!("{:#018x}", fnv(&it.store.to_bytes()))),
        ("store_entries".to_string(), it.store.len().to_string()),
    ];
    for e in &it.energies {
        let mut text = String::new();
        for l in &e.schedule.layers {
            text.push_str(&format!(
                "{} {} {:?} {} {:x}\n",
                l.sim.layer,
                l.sim.pattern,
                l.sim.tiling,
                l.refresh_words,
                l.energy.total_j().to_bits()
            ));
        }
        let design = e.design.replace(' ', "");
        out.push((
            format!("schedule.{}.{design}", e.network),
            format!("{:#018x}", fnv(text.as_bytes())),
        ));
    }
    for (i, r) in it.reports.iter().enumerate() {
        out.push((
            format!("serve.{i}.report_fnv"),
            format!("{:#018x}", fnv(r.to_json().as_bytes())),
        ));
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &Run, checks: &mut Checks) -> Outcome {
    let mut quiet = Spans::new(false);
    let mut setup_samples = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        state = Some(setup(cfg.seed, &mut quiet));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");
    let mut out = Outcome { setup_samples, ..Outcome::default() };
    if cfg.traced {
        traced_run(cfg, &s, checks, &mut out);
        return out;
    }

    let start = Instant::now();
    let (mut search_rates, mut warm_s) = (Vec::new(), Vec::new());
    let mut ratio = 0.0;
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let it = iterate(&s, index, &mut quiet);
        check_iteration(&s, &it, index, checks);
        if index == 0 {
            out.first_unit_rss_mb = crate::host::peak_rss_mb();
            out.digests = digests(&it);
            ratio = energy_vs_sid(&it.energies);
        }
        out.op_rates.push(it.searches as f64 / it.total_s);
        out.ops += it.searches;
        search_rates.push(it.searches as f64 / it.precompile_s);
        warm_s.push(it.warm_start_s);
        index += 1;
    }
    out.lines = vec![
        format!("iterations: {index}, {} Stage-2 searches", out.ops),
        format!(
            "compile_searches_per_s: {:.1} searches/s (precompile grid)",
            median(&search_rates)
        ),
        format!("warm_start_s: {}", describe(&warm_s, "s")),
        format!(
            "sim_energy_vs_sid: {ratio:.4} (paper {PAPER_ENERGY_VS_SID}, error {:+.1}%)",
            (ratio / PAPER_ENERGY_VS_SID - 1.0) * 100.0
        ),
    ];
    out
}

/// The traced run: iteration 0 untraced, then set-up and iteration 0
/// again with spans and telemetry sessions on.
fn traced_run(cfg: &Run, s: &Setup, checks: &mut Checks, out: &mut Outcome) {
    let t = Instant::now();
    let untraced = iterate(s, 0, &mut Spans::new(false));
    out.untraced_wall_s = t.elapsed().as_secs_f64();

    let mut spans = Spans::new(true);
    let ((setup, it, wall), telemetry) = traced(|| {
        let handle = spans.open("bench.setup", 0);
        let setup = setup(cfg.seed, &mut spans);
        spans.close(handle);
        let t = Instant::now();
        let handle = spans.open("bench.iteration", 0);
        let it = iterate(&setup, 0, &mut spans);
        spans.close(handle);
        (setup, it, t.elapsed().as_secs_f64())
    });
    out.traced_wall_s = wall;
    check_iteration(&setup, &it, 0, checks);
    out.digests = digests(&it);
    checks
        .check(digests(&untraced) == out.digests, || "tracing changed the compile results".into());
    let served: u64 = it.reports.iter().map(|r| r.served).sum();
    let observed: u64 = zoo()
        .iter()
        .filter_map(|n| {
            let key = rana_metrics::MetricKey::new("serve.latency_us").label("tenant", n.name());
            telemetry.metrics.hist_f64(key)
        })
        .map(|h| h.count())
        .sum();
    checks.check(observed == served, || {
        format!("metrics saw {observed} served requests, reports {served}")
    });

    let self_s = self_time_by_name(spans.spans());
    out.layer = vec![
        Metric::new("sched.precompile_s", "s", self_s["sched.precompile"]),
        Metric::new("sched.evaluate_s", "s", self_s["sched.evaluate"]),
        Metric::new("cache.warm_hits", "count", it.warm_hits as f64),
        Metric::new("store.encode_s", "s", self_s["store.encode"]),
        Metric::new("store.decode_s", "s", self_s["store.decode"]),
        Metric::new("store.warm_start_s", "s", self_s["store.warm_start"]),
        Metric::new("store.bytes", "bytes", it.bytes as f64),
        Metric::new("store.entries", "count", it.store.len() as f64),
        Metric::new("serve.new_s", "s", self_s["serve.new"]),
        Metric::new("serve.run_s", "s", self_s["serve.run"]),
        Metric::new(
            "serve.requests",
            "count",
            it.reports.iter().map(|r| r.offered).sum::<u64>() as f64,
        ),
        Metric::new("serve.fresh_searches", "count", it.fresh_searches as f64),
    ];
    out.telemetry = Some(telemetry);
    out.spans = spans;
}
