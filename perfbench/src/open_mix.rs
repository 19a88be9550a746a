//! `open-mix`: open-loop Poisson arrivals over a seeded mix of request
//! kinds, each with a fixed cold share.
//!
//! One thread is both the client and the runtime's only executor (the
//! runtime has no worker threads): it sends every request when it is
//! due, and between arrivals drives the runtime through
//! `BatchTicket::wait_any` until some request completes. Latency is
//! timed from the moment a request was due, so time the thread spends
//! on a long request shows as latency of the requests behind it. One
//! busy thread keeps the figures clear of how the host places two busy
//! threads. Phase one holds a fixed offered rate; phase two saturates
//! the runtime to find the highest rate it sustains.

use crate::platform::{Inputs, Mix, Platform, Req, KIND_NAMES};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::util::{
    peak_rss_mib, percentile, process_cpu_seconds, windowed_quantile, windowed_rate, windows_of,
    OneCpu, Rng,
};
use crate::{Budget, Report};
use fix_core::api::{BatchTicket, SubmitOptions};
use fix_core::handle::Handle;
use fixpoint::Runtime;
use std::time::Instant;

/// Share of requests per kind: add, vm-add, fib, count, html.
pub const SHARES: [f64; 5] = [0.35, 0.20, 0.10, 0.20, 0.15];
/// Share of each kind's requests that are fresh (never seen before).
pub const COLD: [f64; 5] = [0.4, 0.4, 0.1, 0.25, 0.25];
/// Warm requests per kind, memoized during set-up.
const POOL_PER_KIND: usize = 64;
const SHARDS: usize = 512;
const SHARD_BYTES: usize = 32 * 1024;
/// The fixed offered rate of phase one, requests per second.
pub const FIXED_RATE: f64 = 4000.0;
/// Latency quantiles are taken per window of arrivals this long, scaled
/// to the reference speed by the window's calibration slices, and
/// averaged over the windows.
pub const TAIL_WINDOW_S: f64 = 0.5;
/// A phase whose backlog exceeds this many requests is abandoned and
/// counted as failed.
const BACKLOG_CAP: usize = 4000;
/// Throughput is taken per window this long, scaled the same way, and
/// averaged over the windows.
pub const RATE_WINDOW_S: f64 = 0.1;
/// Single-request submissions kept in flight in the saturation phase.
pub const SATURATION_DEPTH: usize = 64;
/// A calibration slice runs at most this often: in phase one when the
/// client is idle and the next arrival is at least `SLICE_IDLE_S` away,
/// in phase two between submissions.
const SLICE_PERIOD_S: f64 = 0.002;
const SLICE_IDLE_S: f64 = 150e-6;
/// Share of the run spent in phase one.
const FIXED_SHARE: f64 = 0.7;

struct State {
    p: Platform,
    inputs: Inputs,
    mix: Mix,
    /// Verified results of the warm pools, per kind.
    pool_out: Vec<Vec<Handle>>,
}

fn setup(budget: Budget) -> State {
    let shards = if budget.small { 16 } else { SHARDS };
    let inputs = Inputs {
        shards: Inputs::corpus(budget.seed, shards, SHARD_BYTES),
        payloads: Vec::new(),
    };
    let p = Platform::install(Runtime::builder().build(), &inputs.shards).expect("guests install");
    let mix = Mix::new(budget.seed, SHARES, COLD, POOL_PER_KIND, shards);
    let mut off = Tracer::new(false);
    let pool_out = mix
        .pool
        .iter()
        .map(|reqs| {
            let thunks: Vec<Handle> = reqs
                .iter()
                .map(|r| p.mint(r, &inputs, &mut off, 0).expect("mint"))
                .collect();
            let outs = p.rt.eval_many(&thunks);
            reqs.iter()
                .zip(outs)
                .map(|(r, out)| {
                    assert!(
                        p.check(r, &out, &inputs, &mut off, 0),
                        "set-up result of {r:?} is wrong"
                    );
                    out.expect("checked")
                })
                .collect()
        })
        .collect();
    State {
        p,
        inputs,
        mix,
        pool_out,
    }
}

/// What the client remembers about a request in flight.
struct InFlight {
    due: f64,
    id: u64,
    kind: usize,
    /// The request if fresh (checked after the phase), else its pool slot.
    check: Result<Req, (usize, usize)>,
}

#[derive(Default)]
struct Drive {
    sent: u64,
    completed: u64,
    failed: u64,
    fresh: u64,
    aborted: bool,
    latency_us: Vec<f64>,
    /// Due time (s into the phase) of each latency sample.
    due_s: Vec<f64>,
    /// Completion time (s into the phase) of each latency sample.
    done_s: Vec<f64>,
    /// Latency samples per request kind.
    by_kind: [Vec<f64>; 5],
    late_us: Vec<f64>,
    queued_max: usize,
    submit_ns: Vec<u64>,
    /// Seconds from the first send to the last completion.
    elapsed_s: f64,
    /// Process CPU seconds over the same span.
    cpu_s: f64,
    /// Calibration slices run during the phase, timed from its start.
    speed: Option<Speed>,
}

/// How the client offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop: Poisson arrivals at this many requests per second.
    Poisson(f64),
    /// Saturation: keep this many single-request submissions in flight.
    Outstanding(usize),
}

/// Offers `load` for `window` seconds and waits for every request to
/// finish.
fn drive(
    s: &State,
    load: Load,
    window: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    next_id: &mut u64,
) -> Drive {
    let mut d = Drive::default();
    // Parallel vectors: `wait_any` takes the tickets as a slice.
    let mut tickets: Vec<BatchTicket> = Vec::new();
    let mut flight: Vec<InFlight> = Vec::new();
    let mut fresh_done: Vec<(Req, fix_core::Result<Handle>, u64)> = Vec::new();
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    let mut speed = Speed::new(start);
    let gap = |rng: &mut Rng| match load {
        Load::Poisson(rate) => rng.exp(1.0 / rate),
        Load::Outstanding(_) => 0.0,
    };
    let mut next_due = gap(rng);
    let mut sending = true;
    let mut last_sample = 0.0;
    loop {
        let now = start.elapsed().as_secs_f64();
        let due = match load {
            Load::Poisson(_) => now >= next_due,
            Load::Outstanding(k) => {
                next_due = now;
                flight.len() < k
            }
        };
        if let Load::Outstanding(_) = load {
            speed.slice_every(SLICE_PERIOD_S);
        }
        if sending && due {
            let (req, slot) = s.mix.draw(rng);
            let id = *next_id;
            *next_id += 1;
            tr.begin("bench", "bench.request", id);
            let thunk = s.p.mint(&req, &s.inputs, tr, id).expect("mint");
            let t_submit = Instant::now();
            tickets.push(tr.span("fixpoint", "fixpoint.submit", id, || {
                s.p.rt.submit_with(&[thunk], SubmitOptions::default())
            }));
            d.submit_ns.push(t_submit.elapsed().as_nanos() as u64);
            tr.end();
            d.late_us.push((now - next_due) * 1e6);
            let kind = req.kind();
            let check = match slot {
                None => {
                    d.fresh += 1;
                    Ok(req)
                }
                Some(slot) => Err((kind, slot)),
            };
            flight.push(InFlight {
                due: next_due,
                id,
                kind,
                check,
            });
            d.sent += 1;
            next_due += gap(rng);
            if next_due >= window {
                sending = false;
            }
            continue;
        }
        if now - last_sample >= 0.001 {
            last_sample = now;
            d.queued_max = d.queued_max.max(s.p.rt.queued_jobs());
        }
        if tickets.is_empty() {
            if !sending {
                break;
            }
            if next_due - now > SLICE_IDLE_S {
                speed.slice_every(SLICE_PERIOD_S);
            }
            std::hint::spin_loop();
            continue;
        }
        if tickets.len() > BACKLOG_CAP {
            d.aborted = true;
            for t in tickets.drain(..) {
                t.cancel();
            }
            break;
        }
        // Nothing is due: drive the runtime on this thread until some
        // request completes.
        let i = BatchTicket::wait_any(&mut tickets).expect("unclaimed tickets remain");
        let done = start.elapsed().as_secs_f64();
        let out = tickets
            .swap_remove(i)
            .take_results()
            .and_then(|mut v| v.pop())
            .expect("a finished ticket holds one result");
        let f = flight.swap_remove(i);
        d.completed += 1;
        d.latency_us.push((done - f.due) * 1e6);
        d.due_s.push(f.due);
        d.done_s.push(done);
        d.by_kind[f.kind].push((done - f.due) * 1e6);
        match f.check {
            Ok(req) => fresh_done.push((req, out, f.id)),
            Err((kind, slot)) => {
                if out.ok() != Some(s.pool_out[kind][slot]) {
                    d.failed += 1;
                }
            }
        }
    }
    d.elapsed_s = start.elapsed().as_secs_f64();
    d.cpu_s = process_cpu_seconds() - cpu0;
    d.speed = Some(speed);
    for (req, out, id) in &fresh_done {
        if !s.p.check(req, out, &s.inputs, tr, *id) {
            d.failed += 1;
        }
    }
    d
}

pub fn run(budget: Budget, tr: &mut Tracer) -> Report {
    // The one thread stays on one CPU. Left free to move between the two
    // vCPUs, five interleaved runs spread `p50_us` over 8.8–15.7 us and
    // `rps` over 12.3k–16.2k req/s; held on one, 9.3–12.9 us and
    // 14.2k–16.7k req/s.
    let _pinned = OneCpu::pin();
    let mut report = Report::default();
    let (s, setups) = crate::repeat_setup(|_| setup(budget), drop);
    let mut rng = Rng::new(budget.seed, 0x0FE7);
    let mut next_id = 1u64;

    // Phase one: the fixed offered rate.
    let fixed_window = budget.seconds * FIXED_SHARE;
    let procs0 = s.p.rt.procedures_run();
    let steals0 = s.p.rt.work_steals();
    let mut fixed = drive(
        &s,
        Load::Poisson(FIXED_RATE),
        fixed_window,
        &mut rng,
        tr,
        &mut next_id,
    );
    let procs = s.p.rt.procedures_run() - procs0;
    let steals = s.p.rt.work_steals() - steals0;
    // Every fresh request adds objects and relations, and phase two's
    // request count follows the machine's speed; peak memory is taken
    // after the fixed amount of work of phase one.
    let peak_rss = peak_rss_mib();
    report.phase(
        "fixed-rate",
        fixed.sent,
        fixed.failed + u64::from(fixed.aborted),
    );
    let by_due: Vec<(f64, f64)> = fixed
        .due_s
        .iter()
        .copied()
        .zip(fixed.latency_us.iter().copied())
        .collect();
    let fixed_speed = fixed.speed.take().expect("drive keeps its slices");
    let p50 = fixed_speed.time_quantile(&by_due, TAIL_WINDOW_S, 0.5, 100);
    report.note(format!(
        "fixed-rate p50 per {TAIL_WINDOW_S}s window: {}",
        windows_of(&by_due, TAIL_WINDOW_S, 0.5)
            .iter()
            .map(|(v, _)| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let p99 = fixed_speed.time_quantile(&by_due, TAIL_WINDOW_S, 0.99, 1000);
    report.note(format!(
        "fixed-rate raw: windowed p50 {:.2} us, p99 {:.1} us; {} slices, factor {:.4}",
        windowed_quantile(&by_due, TAIL_WINDOW_S, 0.5, 100),
        windowed_quantile(&by_due, TAIL_WINDOW_S, 0.99, 1000),
        fixed_speed.slices.len(),
        fixed_speed.factor()
    ));
    report.e2e("p50_us", p50, "us");
    report.layer("tail.p99_us", p99, "us");
    report.note(format!(
        "fixed-rate {FIXED_RATE} req/s for {fixed_window:.1}s: {} latency samples, {} fresh",
        fixed.latency_us.len(),
        fixed.fresh
    ));
    for (k, samples) in fixed.by_kind.iter_mut().enumerate() {
        if !samples.is_empty() {
            report.note(format!(
                "fixed-rate {:<7} {:>7} samples, p50 {:>10.1} us, p99 {:>10.1} us",
                KIND_NAMES[k],
                samples.len(),
                percentile(samples, 0.5),
                percentile(samples, 0.99)
            ));
        }
    }
    {
        let l = &mut fixed.latency_us;
        let over = l.iter().filter(|v| **v > 1000.0).count();
        report.note(format!(
            "fixed-rate whole phase: p50 {:.1} p90 {:.1} p99 {:.1} p99.9 {:.1} us; {over} over 1 ms",
            percentile(l, 0.5),
            percentile(l, 0.9),
            percentile(l, 0.99),
            percentile(l, 0.999)
        ));
    }
    let late_p99 = percentile(&mut fixed.late_us, 0.99);
    let late_max = percentile(&mut fixed.late_us, 1.0);
    report.note(format!(
        "client lateness p99 {late_p99:.2} us, max {late_max:.2} us"
    ));
    let n = fixed.completed.max(1) as f64;
    report.layer("loadgen.late_p99_us", late_p99, "us");
    report.layer("storage.warm_share", 1.0 - fixed.fresh as f64 / n, "ratio");
    report.layer("fixpoint.procs_per_req", procs as f64 / n, "count");
    report.layer(
        "fixpoint.steals_per_kreq",
        steals as f64 * 1000.0 / n,
        "count",
    );
    report.layer("fixpoint.queued_max", fixed.queued_max as f64, "count");
    report.layer("storage.put_ns", tr.median_ns("storage.put"), "ns");
    report.layer("storage.get_ns", tr.median_ns("storage.get"), "ns");
    report.layer(
        "fixpoint.submit_ns",
        crate::util::median_u64(&fixed.submit_ns),
        "ns",
    );
    // Phase two: saturation. The client keeps SATURATION_DEPTH single
    // requests in flight; completions per second is the highest rate
    // the platform sustains on this mix, beyond which an open-loop
    // backlog grows.
    let sat_window = budget.seconds - fixed_window;
    // The thread never idles here, so process CPU per request is the
    // platform's cost; in phase one it would include the spin between
    // arrivals.
    let sat = drive(
        &s,
        Load::Outstanding(SATURATION_DEPTH),
        sat_window,
        &mut rng,
        tr,
        &mut next_id,
    );
    let cpu = sat.cpu_s;
    let sat_s = sat.elapsed_s;
    report.phase("saturation", sat.sent, sat.failed + u64::from(sat.aborted));
    let done: Vec<(f64, f64)> = sat.done_s.iter().map(|t| (*t, 1.0)).collect();
    let sat_speed = sat.speed.as_ref().expect("drive keeps its slices");
    report.e2e(
        "rps",
        sat_speed.rate(&done, RATE_WINDOW_S, sat_window),
        "req/s",
    );
    report.note(format!(
        "saturation raw: windowed rate {:.1} req/s",
        windowed_rate(&done, RATE_WINDOW_S, sat_window)
    ));
    report.note(format!(
        "saturation: {} requests with {SATURATION_DEPTH} in flight in {sat_s:.2}s",
        sat.completed
    ));
    report.common(&setups, cpu, sat.completed, sat_speed);
    report.e2e("peak_rss_mb", peak_rss, "MiB");
    report.note(format!(
        "mix shares {:?} of {:?}, cold shares {COLD:?}",
        SHARES,
        &KIND_NAMES[..5]
    ));
    report
}
