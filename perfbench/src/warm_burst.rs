//! `warm-burst`: a closed loop of batches against a runtime with one
//! worker, every request already memoized.
//!
//! Set-up mints a fixed request set of every kind and evaluates it once
//! (checking each result against its independent computation). The
//! measured phase re-mints each request from its arguments and keeps a
//! window of batches in flight through `submit_with`, blocking on the
//! oldest. Guest code never runs, so what is timed is the platform's
//! per-request overhead: mint, submit, claim, relation-cache hit, fill
//! and waiter wake.

use crate::open_mix::SHARES;
use crate::open_mix::{RATE_WINDOW_S, TAIL_WINDOW_S};
use crate::platform::{fresh, pick_kind, Inputs, Platform, Req};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::util::{median_u64, process_cpu_seconds, windowed_quantile, windowed_rate, Rng};
use crate::{Budget, Report};
use fix_core::api::{BatchTicket, SubmitOptions};
use fix_core::handle::Handle;
use fixpoint::Runtime;
use std::collections::VecDeque;
use std::time::Instant;

/// Distinct requests in the memoized set.
const REQUESTS: usize = 4096;
/// Requests per submitted batch.
pub const BATCH: usize = 64;
/// Batches kept in flight.
pub const WINDOW: usize = 4;
const SHARDS: usize = 16;
/// Batches a run is expected to stay under.
const SAMPLE_CAPACITY: usize = 1 << 18;
const SHARD_BYTES: usize = 32 * 1024;
/// A calibration slice runs at most this often, between batches.
const SLICE_PERIOD_S: f64 = 0.01;

struct State {
    p: Platform,
    inputs: Inputs,
    reqs: Vec<Req>,
    /// The checked result of each request.
    outs: Vec<Handle>,
}

fn setup(budget: Budget) -> State {
    let n = if budget.small { 512 } else { REQUESTS };
    let inputs = Inputs {
        shards: Inputs::corpus(budget.seed, SHARDS, SHARD_BYTES),
        payloads: Vec::new(),
    };
    let p = Platform::install(Runtime::builder().workers(1).build(), &inputs.shards)
        .expect("guests install");
    let mut rng = Rng::new(budget.seed, 0xB0B5);
    let reqs: Vec<Req> = (0..n)
        .map(|_| {
            let kind = pick_kind(&mut rng, &SHARES);
            fresh(&mut rng, kind, SHARDS)
        })
        .collect();
    let mut off = Tracer::new(false);
    let mut outs = Vec::with_capacity(n);
    for chunk in reqs.chunks(BATCH) {
        let thunks: Vec<Handle> = chunk
            .iter()
            .map(|r| p.mint(r, &inputs, &mut off, 0).expect("mint"))
            .collect();
        for (r, out) in chunk.iter().zip(p.rt.eval_many(&thunks)) {
            assert!(
                p.check(r, &out, &inputs, &mut off, 0),
                "set-up result of {r:?} is wrong"
            );
            outs.push(out.expect("checked"));
        }
    }
    State {
        p,
        inputs,
        reqs,
        outs,
    }
}

pub fn run(budget: Budget, tr: &mut Tracer) -> Report {
    // The client and the worker share one CPU, so that the calibration
    // slices time the CPU the whole workload runs on; on two CPUs the
    // slices, run by the client, would time the client's CPU alone while
    // the worker's may be in the host's other state.
    let _pinned = crate::util::OneCpu::pin();
    let mut report = Report::default();
    let (s, setups) = crate::repeat_setup(|_| setup(budget), drop);
    let batches = s.reqs.len() / BATCH;
    let mut order: Vec<usize> = (0..batches).collect();
    let mut rng = Rng::new(budget.seed, 0x5EED);

    let procs0 = s.p.rt.procedures_run();
    let steals0 = s.p.rt.work_steals();
    let cpu0 = process_cpu_seconds();
    let (mut completed, mut failed, mut sent) = (0u64, 0u64, 0u64);
    // (submit time, round trip in us) and (completion time, requests).
    // Sized up front so that growing them does not show in peak RSS.
    let mut rtt_us: Vec<(f64, f64)> = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut done_at: Vec<(f64, f64)> = Vec::with_capacity(SAMPLE_CAPACITY);
    let (mut submit_ns, mut wait_ns) = (
        Vec::with_capacity(SAMPLE_CAPACITY),
        Vec::with_capacity(SAMPLE_CAPACITY),
    );
    let mut queued_max = 0usize;
    // (batch index, submit start, submit return, ticket)
    let mut window: VecDeque<(usize, Instant, Instant, BatchTicket)> = VecDeque::new();
    let start = Instant::now();
    let mut speed = Speed::new(start);
    let mut next = 0usize;
    let mut settle = |window: &mut VecDeque<(usize, Instant, Instant, BatchTicket)>,
                      tr: &mut Tracer| {
        let (b, t_submit, t_back, ticket) = window.pop_front().expect("window is non-empty");
        let results = tr.span("fixpoint", "fixpoint.wait", b as u64, || ticket.wait());
        let done = Instant::now();
        rtt_us.push((
            (t_submit - start).as_secs_f64(),
            (done - t_submit).as_secs_f64() * 1e6,
        ));
        done_at.push(((done - start).as_secs_f64(), results.len() as f64));
        wait_ns.push((done - t_back).as_nanos() as u64);
        for (i, out) in results.iter().enumerate() {
            completed += 1;
            if out.as_ref().ok() != Some(&s.outs[b * BATCH + i]) {
                failed += 1;
            }
        }
    };
    // Whole passes over the request set, each in a fresh seeded order.
    while start.elapsed().as_secs_f64() < budget.seconds || !next.is_multiple_of(batches) {
        if next.is_multiple_of(batches) {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let b = order[next % batches];
        next += 1;
        if speed.due(SLICE_PERIOD_S) {
            // The worker shares the client's CPU: the slice runs with
            // nothing in flight, so that the worker does not preempt it.
            while !window.is_empty() {
                settle(&mut window, tr);
            }
            speed.slice();
        }
        if window.len() >= WINDOW {
            settle(&mut window, tr);
        }
        tr.begin("bench", "bench.batch", b as u64);
        let thunks: Vec<Handle> = s.reqs[b * BATCH..(b + 1) * BATCH]
            .iter()
            .enumerate()
            .map(|(i, r)| {
                s.p.mint(r, &s.inputs, tr, (b * BATCH + i) as u64)
                    .expect("mint")
            })
            .collect();
        let t_submit = Instant::now();
        let ticket = tr.span("fixpoint", "fixpoint.submit", b as u64, || {
            s.p.rt.submit_with(&thunks, SubmitOptions::default())
        });
        let t_back = Instant::now();
        tr.end();
        submit_ns.push((t_back - t_submit).as_nanos() as u64);
        sent += BATCH as u64;
        window.push_back((b, t_submit, t_back, ticket));
        queued_max = queued_max.max(s.p.rt.queued_jobs());
    }
    while !window.is_empty() {
        settle(&mut window, tr);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;
    let procs = s.p.rt.procedures_run() - procs0;
    let steals = s.p.rt.work_steals() - steals0;

    report.phase("warm", sent, failed);
    // A procedure run in the measured phase means memoization missed.
    report.phase("no-procedure", 1, u64::from(procs != 0));
    report.e2e(
        "p50_us",
        speed.time_quantile(&rtt_us, TAIL_WINDOW_S, 0.5, 100),
        "us",
    );
    report.layer(
        "tail.p99_us",
        speed.time_quantile(&rtt_us, TAIL_WINDOW_S, 0.99, 1000),
        "us",
    );
    report.e2e("rps", speed.rate(&done_at, RATE_WINDOW_S, elapsed), "req/s");
    report.note(format!(
        "raw: windowed p50 {:.1} us, windowed rate {:.1} req/s",
        windowed_quantile(&rtt_us, TAIL_WINDOW_S, 0.5, 100),
        windowed_rate(&done_at, RATE_WINDOW_S, elapsed)
    ));
    report.note(format!(
        "{completed} requests in {} batches of {BATCH}, window {WINDOW}, {elapsed:.2}s; {procs} procedures run",
        rtt_us.len()
    ));
    let n = completed.max(1) as f64;
    report.layer("storage.put_ns", tr.median_ns("storage.put"), "ns");
    report.layer("fixpoint.submit_ns", median_u64(&submit_ns), "ns");
    report.layer("fixpoint.wait_ns", median_u64(&wait_ns), "ns");
    report.layer(
        "fixpoint.steals_per_kreq",
        steals as f64 * 1000.0 / n,
        "count",
    );
    report.layer("fixpoint.queued_max", queued_max as f64, "count");
    report.layer("fixpoint.procs_per_req", procs as f64 / n, "count");
    report.layer(
        "storage.warm_share",
        1.0 - (procs as f64 / n).min(1.0),
        "ratio",
    );
    report.common(&setups, cpu, completed, &speed);
    report
}
