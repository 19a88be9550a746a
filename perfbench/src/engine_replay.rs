//! `engine-replay`: the three serving engines on fixed seeded
//! configurations, in whole rounds of four calls — `serve`,
//! `adaptive_serve`, `dispatch`, and `serve` again with `fix_obs`
//! tracing `Full`. One operation is one engine call, each on fresh
//! runtimes with no worker threads, so the engines' own driver threads
//! (at most two) do all the work, on one CPU.
//!
//! Shed, expired and rejected requests inside the simulated traffic are
//! part of the deterministic tables, not failures. A call fails when its
//! accounting does not close, a request errors, or its table differs
//! from the first call of the same kind in the run.

use crate::speed::Speed;
use crate::util::{median_u64, percentile, process_cpu_seconds, windowed_quantile, OneCpu};
use crate::{Budget, Report};
use fix_adapt::{adaptive_serve, AdaptConfig, AdaptTenant, AdmissionPolicy, ScalerConfig};
use fix_dispatch::{dispatch, DispatchConfig, FaultPlan, NodeStorage, RestartKind, RoutingPolicy};
use fix_obs::TracingMode;
use fix_serve::{
    serve, ArrivalProcess, RequestKind, ServeConfig, ServeReport, SloClass, TenantSpec,
};
use fixpoint::Runtime;
use std::time::{Duration, Instant};

/// Rounds per window of the tail.
const ROUNDS_PER_WINDOW: f64 = 1000.0;

/// Calibration slices run before each round.
const SLICES_PER_ROUND: usize = 4;
/// Rounds are scaled to the reference speed per window this long.
const SPEED_WINDOW_S: f64 = 1.0;
/// Windows with fewer rounds are left out of the scaled figures.
const MIN_ROUNDS: usize = 5;

/// Virtual length of each engine call's traffic.
pub const HORIZON_US: u64 = 120_000;

/// A multi-tenant SLO mix: latency-tier native adds and FixVM fib, a
/// normal-tier web app, and a batch-tier word count.
pub fn serve_config(seed: u64, drivers: usize) -> ServeConfig {
    ServeConfig {
        seed,
        duration_us: HORIZON_US,
        drivers,
        batch: 8,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        tenants: vec![
            TenantSpec::uniform_mix(
                "interactive",
                3,
                ArrivalProcess::Poisson { rate_rps: 4000.0 },
                RequestKind::Add,
            )
            .with_slo(SloClass::latency(2_000)),
            TenantSpec::uniform_mix(
                "guest",
                2,
                ArrivalProcess::Poisson { rate_rps: 1500.0 },
                RequestKind::Fib { max_n: 12 },
            )
            .with_slo(SloClass::latency(5_000)),
            TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 1000.0 },
                RequestKind::SebsHtml { users: 8 },
            ),
            TenantSpec::uniform_mix(
                "batch",
                1,
                ArrivalProcess::Poisson { rate_rps: 500.0 },
                RequestKind::Wordcount { shard_bytes: 4096 },
            )
            .with_slo(SloClass::batch()),
        ],
    }
}

/// A flash crowd against provable-expiry admission and a scaler capped
/// at two drivers.
pub fn adapt_config(seed: u64) -> AdaptConfig {
    AdaptConfig {
        seed,
        duration_us: HORIZON_US,
        batch: 8,
        queue_capacity: 64,
        batch_overhead_us: 5,
        inflight: 2,
        admission: Some(AdmissionPolicy::default()),
        scaler: ScalerConfig {
            min_drivers: 1,
            max_drivers: 2,
            control_interval_us: 500,
            up_backlog_us: 1_000,
            down_backlog_us: 100,
            hold_ticks: 2,
        },
        tenants: vec![
            AdaptTenant::Open(
                TenantSpec::uniform_mix(
                    "crowd",
                    3,
                    ArrivalProcess::FlashCrowd {
                        base_rps: 2000.0,
                        spike_at_us: HORIZON_US / 4,
                        spike_len_us: HORIZON_US / 4,
                        spike_rps: 20_000.0,
                    },
                    RequestKind::Fib { max_n: 256 },
                )
                .with_slo(SloClass::latency(1_000)),
            ),
            AdaptTenant::Open(TenantSpec::uniform_mix(
                "webapp",
                1,
                ArrivalProcess::Poisson { rate_rps: 1000.0 },
                RequestKind::SebsHtml { users: 8 },
            )),
        ],
    }
}

/// Two in-memory nodes, memoization-affinity routing, and a cold
/// restart of node 1 mid-run.
pub fn dispatch_config(seed: u64) -> DispatchConfig {
    DispatchConfig {
        base: serve_config(seed, 1),
        nodes: 2,
        policy: RoutingPolicy::Affinity,
        spill_margin: 8,
        storage: NodeStorage::Memory,
        fault: Some(FaultPlan {
            node: 1,
            kill_at_us: HORIZON_US / 3,
            restart_at_us: HORIZON_US / 2,
            restart: RestartKind::Cold,
        }),
    }
}

/// Accounting closure per tenant, and no request errors.
fn closes(r: &ServeReport) -> bool {
    r.tenants.iter().all(|t| {
        t.offered == t.admitted + t.dropped + t.rejected
            && t.admitted == t.ok + t.errors + t.expired + t.cancelled
            && t.errors == 0
    }) && r.completed > 0
}

#[derive(Default)]
struct Kind {
    calls: u64,
    failed: u64,
    completed: u64,
    rejected: u64,
    wall: Duration,
    plan_ns: Vec<u64>,
    exec_ns: Vec<u64>,
    table: Option<String>,
}

impl Kind {
    fn record(&mut self, wall: Duration, report: &ServeReport, table: String, ok: bool) {
        self.calls += 1;
        self.completed += report.completed;
        self.rejected += report.total_rejected();
        self.wall += wall;
        self.exec_ns.push(report.execution_wall.as_nanos() as u64);
        self.plan_ns
            .push(wall.saturating_sub(report.execution_wall).as_nanos() as u64);
        let same = match &self.table {
            Some(first) => *first == table,
            None => {
                self.table = Some(table);
                true
            }
        };
        if !(ok && same) {
            self.failed += 1;
        }
    }

    fn rps(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

pub fn run(budget: Budget, tr: &mut crate::trace::Tracer) -> Report {
    let mut report = Report::default();
    // The engines' driver and node threads share one CPU. On two vCPUs
    // of a shared host, a phase that runs two threads waits for
    // whichever vCPU the host has taken away, so wall-clock figures
    // followed the host's steal rather than the engines (ten runs moved
    // `rps` between 42k and 82k req/s at a steady CPU time per request).
    let pinned = OneCpu::pin();
    report.note(match &pinned {
        Some(p) => format!("engine threads held on CPU {}", p.cpu),
        None => "engine threads not held on one CPU: the kernel refused".to_string(),
    });
    let seed = budget.seed;
    // Set-up builds the configurations and validates them, and warms the
    // engines' code paths with one call of each.
    let (configs, setups) = crate::repeat_setup(
        |_| {
            let c = (
                serve_config(seed, 1),
                adapt_config(seed),
                dispatch_config(seed),
            );
            c.0.validate().expect("serve config");
            c.1.validate().expect("adapt config");
            c.2.validate().expect("dispatch config");
            serve(&Runtime::builder().build(), &c.0).expect("warm-up serve");
            adaptive_serve(&Runtime::builder().build(), &c.1).expect("warm-up adapt");
            dispatch(&c.2).expect("warm-up dispatch");
            c
        },
        drop,
    );
    let (serve_cfg, adapt_cfg, dispatch_cfg) = configs;

    let (mut s, mut a, mut d, mut t) = (
        Kind::default(),
        Kind::default(),
        Kind::default(),
        Kind::default(),
    );
    let mut hit_rate = 0.0;
    let mut events = 0u64;
    let mut round_us: Vec<f64> = Vec::new();
    let mut round_rps: Vec<(f64, f64)> = Vec::new();
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    let mut speed = Speed::new(start);
    let mut round_at: Vec<f64> = Vec::new();
    while round_us.is_empty() || start.elapsed().as_secs_f64() < budget.seconds {
        for _ in 0..SLICES_PER_ROUND {
            speed.slice();
        }
        let t_round = Instant::now();
        let done_before = s.completed + a.completed + d.completed + t.completed;

        let t0 = Instant::now();
        let r = tr
            .span("serve", "serve.serve", 0, || {
                serve(&Runtime::builder().build(), &serve_cfg)
            })
            .expect("serve");
        s.record(t0.elapsed(), &r, r.to_string(), closes(&r));

        let t0 = Instant::now();
        let r = tr
            .span("adapt", "adapt.adaptive_serve", 0, || {
                adaptive_serve(&Runtime::builder().build(), &adapt_cfg)
            })
            .expect("adaptive_serve");
        // The crowd is sized so that admission must refuse some of it.
        let rejects = r.serve.total_rejected() > 0;
        a.record(
            t0.elapsed(),
            &r.serve,
            r.serve.to_string(),
            closes(&r.serve) && rejects,
        );

        let t0 = Instant::now();
        let r = tr
            .span("dispatch", "dispatch.dispatch", 0, || {
                dispatch(&dispatch_cfg)
            })
            .expect("dispatch");
        let admitted: u64 = r.report.tenants.iter().map(|t| t.admitted).sum();
        let routed: u64 = r.report.nodes.iter().map(|n| n.routed).sum();
        let settled: u64 = r.report.nodes.iter().map(|n| n.served + n.expired).sum();
        let ok = closes(&r.report) && routed == admitted && settled == admitted;
        hit_rate = r.hit_rate();
        d.record(t0.elapsed(), &r.report, r.table(), ok);

        // The same serve call with the program's tracing on; its table
        // must equal the untraced one.
        fix_obs::recorder().clear();
        let t0 = Instant::now();
        fix_obs::set_tracing_mode(TracingMode::Full);
        let r = tr
            .span("serve", "serve.traced", 0, || {
                serve(&Runtime::builder().build(), &serve_cfg)
            })
            .expect("traced serve");
        fix_obs::set_tracing_mode(TracingMode::Off);
        let wall = t0.elapsed();
        let drained = tr.span("obs", "obs.drain", 0, || fix_obs::recorder().drain());
        events += drained.len() as u64;
        let table = r.to_string();
        let same_as_untraced = s.table.as_deref() == Some(table.as_str());
        t.record(wall, &r, table, closes(&r) && same_as_untraced);

        let round_s = t_round.elapsed().as_secs_f64();
        round_us.push(round_s * 1e6);
        round_at.push((t_round - start).as_secs_f64());
        let round_reqs = s.completed + a.completed + d.completed + t.completed - done_before;
        round_rps.push((round_at[round_at.len() - 1], round_reqs as f64 / round_s));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;

    for (name, k) in [
        ("serve", &s),
        ("adaptive_serve", &a),
        ("dispatch", &d),
        ("serve-traced", &t),
    ] {
        report.phase(name, k.calls, k.failed);
        report.note(format!(
            "{name:<15} {} calls, {} requests completed and {} rejected each, {:.0} req/s of wall time",
            k.calls,
            k.completed / k.calls.max(1),
            k.rejected / k.calls.max(1),
            k.rps()
        ));
    }
    let completed = s.completed + a.completed + d.completed + t.completed;
    let by_time: Vec<(f64, f64)> = round_at
        .iter()
        .copied()
        .zip(round_us.iter().copied())
        .collect();
    report.e2e(
        "p50_us",
        speed.time_quantile(&by_time, SPEED_WINDOW_S, 0.5, MIN_ROUNDS),
        "us",
    );
    // Round times keyed by round number: the tail is the median over
    // windows of ROUNDS_PER_WINDOW consecutive rounds.
    let by_round: Vec<(f64, f64)> = round_us
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64, *v))
        .collect();
    report.layer(
        "tail.p99_us",
        windowed_quantile(&by_round, ROUNDS_PER_WINDOW, 0.99, 1000),
        "us",
    );
    report.e2e(
        "rps",
        speed.rate_quantile(&round_rps, SPEED_WINDOW_S, 0.5, MIN_ROUNDS),
        "req/s",
    );
    let mut raw_rps: Vec<f64> = round_rps.iter().map(|r| r.1).collect();
    report.note(format!(
        "raw: round p50 {:.1} us, round rps p50 {:.1} req/s",
        percentile(&mut round_us, 0.5),
        percentile(&mut raw_rps, 0.5)
    ));
    report.note(format!("{} rounds in {elapsed:.2}s", round_us.len()));
    let ms = |v: &[u64]| median_u64(v) / 1e6;
    report.layer("serve.plan_ms", ms(&s.plan_ns), "ms");
    report.layer("serve.exec_ms", ms(&s.exec_ns), "ms");
    report.layer("adapt.plan_ms", ms(&a.plan_ns), "ms");
    report.layer("adapt.exec_ms", ms(&a.exec_ns), "ms");
    report.layer("dispatch.plan_ms", ms(&d.plan_ns), "ms");
    report.layer("dispatch.exec_ms", ms(&d.exec_ns), "ms");
    report.layer("dispatch.hit_rate", hit_rate, "ratio");
    report.layer("serve.rps", s.rps(), "req/s");
    report.layer("adapt.rps", a.rps(), "req/s");
    report.layer("dispatch.rps", d.rps(), "req/s");
    report.layer("serve.traced_rps", t.rps(), "req/s");
    report.layer(
        "obs.events_per_req",
        events as f64 / t.completed.max(1) as f64,
        "count",
    );
    report.common(&setups, cpu, completed, &speed);
    report
}
