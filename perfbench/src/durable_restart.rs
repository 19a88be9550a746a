//! `durable-restart`: write, restart and read over a `DurableStore`, in
//! whole rounds.
//!
//! Each round opens a fresh directory under `perfbench/out/`:
//!
//! * **write** — a stream of cold `xform` requests over multi-KiB
//!   payloads, in batches through `submit_with`, then a flush;
//! * **restart** — drop the runtime and the store, `DurableStore::open`
//!   the directory, reinstall the guests and evaluate the first request;
//! * **read** — re-request every written request in a seeded order. The
//!   answers come from the replayed relations and the result bytes fault
//!   in from disk; no procedure runs.
//!
//! The runtime has no worker threads: the client drives evaluation while
//! it waits, and the store's writer thread is the second thread.

use crate::platform::{Inputs, Platform, Req};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::util::{median_u64, percentile, process_cpu_seconds, windowed_quantile, Rng};
use crate::{Budget, Report, OUT_DIR};
use fix_core::api::{BatchTicket, SubmitOptions};
use fix_core::handle::Handle;
use fix_durable::{DurableOptions, DurableStore, FsyncPolicy};
use fixpoint::Runtime;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Requests written (and read back) per round.
pub const REQUESTS: usize = 4096;
/// Bytes of each request's payload; the result is as large.
pub const PAYLOAD_BYTES: usize = 4096;
/// Requests per batch, in both phases.
pub const BATCH: usize = 4;
/// Batches kept in flight.
pub const WINDOW: usize = 4;

/// A calibration slice runs at most this often, between batches.
const SLICE_PERIOD_S: f64 = 0.002;

/// The fixed durability policy: fsync every 256 frames, and snapshot
/// automatically whenever the log passes 16 MiB.
pub fn options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::EveryN(256),
        snapshot_log_bytes: Some(16 << 20),
        ..DurableOptions::default()
    }
}

/// Opens the store at `dir`, installs the guests on a runtime over it
/// and stores `blobs` through it; also returns how long
/// `DurableStore::open` took.
fn open(dir: &Path, blobs: &[Vec<u8>], tr: &mut Tracer) -> (Platform, std::time::Duration) {
    let t0 = Instant::now();
    let store = tr
        .span("durable", "durable.open", 0, || {
            DurableStore::open(dir, options())
        })
        .expect("durable store opens");
    let opened = t0.elapsed();
    let rt = Runtime::builder().durable(store).build();
    (
        Platform::install(rt, blobs).expect("guests install"),
        opened,
    )
}

struct Phase {
    rtt_us: Vec<f64>,
    completed: u64,
    failed: u64,
}

/// Runs `order` through the platform in batches, checking every result.
fn pump(
    p: &Platform,
    inputs: &Inputs,
    order: &[usize],
    tr: &mut Tracer,
    speed: &mut Speed,
) -> Phase {
    let mut ph = Phase {
        rtt_us: Vec::with_capacity(order.len() / BATCH + 1),
        completed: 0,
        failed: 0,
    };
    let mut window: VecDeque<(&[usize], Instant, BatchTicket)> = VecDeque::new();
    let mut settle = |window: &mut VecDeque<(&[usize], Instant, BatchTicket)>, tr: &mut Tracer| {
        let (ids, t_submit, ticket) = window.pop_front().expect("window is non-empty");
        let results = tr.span("fixpoint", "fixpoint.wait", ids[0] as u64, || ticket.wait());
        ph.rtt_us.push(t_submit.elapsed().as_secs_f64() * 1e6);
        for (&i, out) in ids.iter().zip(&results) {
            ph.completed += 1;
            if !p.check(&Req::Xform { payload: i }, out, inputs, tr, i as u64) {
                ph.failed += 1;
            }
        }
    };
    for ids in order.chunks(BATCH) {
        speed.slice_every(SLICE_PERIOD_S);
        if window.len() >= WINDOW {
            settle(&mut window, tr);
        }
        let thunks: Vec<Handle> = ids
            .iter()
            .map(|&i| {
                p.mint(&Req::Xform { payload: i }, inputs, tr, i as u64)
                    .expect("mint")
            })
            .collect();
        let t_submit = Instant::now();
        let ticket = tr.span("fixpoint", "fixpoint.submit", ids[0] as u64, || {
            p.rt.submit_with(&thunks, SubmitOptions::default())
        });
        window.push_back((ids, t_submit, ticket));
    }
    while !window.is_empty() {
        settle(&mut window, tr);
    }
    ph
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(budget: Budget, tr: &mut Tracer) -> Report {
    let n = if budget.small { 512 } else { REQUESTS };
    let mut report = Report::default();
    let root: PathBuf = Path::new(OUT_DIR).join(format!("durable-{}", std::process::id()));
    // Set-up generates the payloads, opens a store on a fresh directory,
    // installs the guests over it, puts every payload through the store
    // and flushes: the storage path a write round starts from.
    let setup = |k: usize| {
        let dir = root.join(format!("setup-{k}"));
        let payloads = Inputs::payloads(budget.seed, n, PAYLOAD_BYTES);
        let (p, _) = open(&dir, &payloads, &mut Tracer::new(false));
        p.rt.durable().expect("durable").flush().expect("flush");
        (p, payloads, dir)
    };
    let teardown = |(p, _, dir): (Platform, Vec<Vec<u8>>, PathBuf)| {
        drop(p);
        let _ = std::fs::remove_dir_all(dir);
    };
    let (last_setup, setups) = crate::repeat_setup(setup, teardown);
    let payloads = last_setup.1.clone();
    teardown(last_setup);
    let inputs = Inputs {
        shards: Vec::new(),
        payloads,
    };
    let mut rng = Rng::new(budget.seed, 0xD15C);
    let write_order: Vec<usize> = (0..n).collect();

    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    let mut speed = Speed::new(start);
    let (mut raw_rtt, mut raw_rps) = (Vec::new(), Vec::new());
    let (mut write_s, mut recover_s, mut read_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut flush_us, mut open_ms, mut first_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut replayed, mut bytes_per_req, mut faults) = (0u64, 0.0f64, 0u64);
    // (round, read batch round trip in us), and each round's rate.
    let mut read_rtt: Vec<(f64, f64)> = Vec::new();
    let mut round_rps: Vec<f64> = Vec::new();
    let (mut written, mut read, mut write_failed, mut read_failed) = (0u64, 0u64, 0u64, 0u64);
    let (mut restart_failed, mut read_procs) = (0u64, 0u64);
    let mut rounds = 0u64;
    let mut drop_total = 0.0f64;
    let mut last: Option<(Platform, PathBuf)> = None;
    while rounds == 0 || start.elapsed().as_secs_f64() < budget.seconds {
        if let Some((p, dir)) = last.take() {
            drop(p);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = root.join(format!("round-{rounds}"));
        let _ = std::fs::remove_dir_all(&dir);

        // Write.
        let first_slice = speed.slices.len();
        let t0 = Instant::now();
        let (p, _) = open(&dir, &[], tr);
        let w = pump(&p, &inputs, &write_order, tr, &mut speed);
        let t_flush = Instant::now();
        tr.span("durable", "durable.flush", 0, || {
            p.rt.durable().expect("durable").flush()
        })
        .expect("flush");
        flush_us.push(t_flush.elapsed().as_micros() as u64);
        write_s.push(t0.elapsed().as_secs_f64());
        written += w.completed;
        write_failed += w.failed;

        // Restart.
        let t_drop = Instant::now();
        drop(p);
        let drop_s = t_drop.elapsed().as_secs_f64();
        let t_open = Instant::now();
        let (p, opened) = open(&dir, &[], tr);
        open_ms.push(opened.as_micros() as u64);
        let stats = p.rt.durable().expect("durable").stats();
        replayed = stats.replayed_relations;
        let procs0 = p.rt.procedures_run();
        let t_first = Instant::now();
        let first = Req::Xform { payload: 0 };
        let thunk = p.mint(&first, &inputs, tr, 0).expect("mint");
        let out = tr.span("fixpoint", "fixpoint.eval", 0, || p.rt.eval(thunk));
        if !p.check(&first, &out, &inputs, tr, 0) {
            restart_failed += 1;
        }
        first_us.push(t_first.elapsed().as_micros() as u64);
        recover_s.push(t_open.elapsed().as_secs_f64());
        drop_total += drop_s;

        // Read, in a fresh seeded order.
        let mut order = write_order.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let faults0 = p.rt.durable().expect("durable").stats().faults;
        let t_read = Instant::now();
        let r = pump(&p, &inputs, &order, tr, &mut speed);
        read_s.push(t_read.elapsed().as_secs_f64());
        faults += p.rt.durable().expect("durable").stats().faults - faults0;
        read_procs += p.rt.procedures_run() - procs0;
        read += r.completed;
        read_failed += r.failed;
        // The round's figures, scaled by the slices run during it.
        let f = speed.factor_since(first_slice);
        let rps = (w.completed + r.completed) as f64 / t0.elapsed().as_secs_f64();
        read_rtt.extend(r.rtt_us.iter().map(|v| (rounds as f64, *v * f)));
        raw_rtt.extend(r.rtt_us.iter().map(|v| (rounds as f64, *v)));
        round_rps.push(rps / f);
        raw_rps.push(rps);
        bytes_per_req = dir_bytes(&dir) as f64 / n as f64;
        last = Some((p, dir));
        rounds += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;

    if tr.on() {
        if let Some((p, _)) = &last {
            let d = p.rt.durable().expect("durable");
            let t = Instant::now();
            tr.span("durable", "durable.snapshot", 0, || d.snapshot())
                .expect("snapshot");
            report.layer("durable.snapshot_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        }
    }
    drop(last);
    let _ = std::fs::remove_dir_all(&root);

    report.phase("write", written, write_failed);
    report.phase("restart", rounds, restart_failed);
    report.phase("read", read, read_failed);
    // The read phase must be answered without running a procedure.
    report.phase("read-no-procedure", rounds, u64::from(read_procs != 0));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let total_reqs = written + read;
    // Tails and throughput are medians over rounds, each round scaled to
    // the reference speed by the slices run during it.
    report.e2e("p50_us", windowed_quantile(&read_rtt, 1.0, 0.5, 100), "us");
    report.layer(
        "tail.p99_us",
        windowed_quantile(&read_rtt, 1.0, 0.99, 1000),
        "us",
    );
    report.e2e("rps", percentile(&mut round_rps, 0.5), "req/s");
    report.note(format!(
        "raw: read p50 {:.1} us, round rps p50 {:.1} req/s",
        windowed_quantile(&raw_rtt, 1.0, 0.5, 100),
        percentile(&mut raw_rps, 0.5)
    ));
    report.note(format!(
        "{rounds} rounds of {n} requests ({PAYLOAD_BYTES} B payloads, batches of {BATCH}, window {WINDOW}) in {elapsed:.2}s; {} read batches",
        read_rtt.len()
    ));
    report.note(format!(
        "phase seconds: write {:.3}, drop {drop_total:.3}, open to first result {:.3}, read {:.3}",
        sum(&write_s),
        sum(&recover_s),
        sum(&read_s)
    ));
    let reads = read.max(1) as f64;
    report.layer("durable.write_rps", written as f64 / sum(&write_s), "req/s");
    report.layer(
        "durable.recover_s",
        {
            let mut r = recover_s.clone();
            percentile(&mut r, 0.5)
        },
        "s",
    );
    report.layer("durable.read_rps", read as f64 / sum(&read_s), "req/s");
    report.layer("durable.flush_us", median_u64(&flush_us), "us");
    report.layer("durable.open_ms", median_u64(&open_ms) / 1e3, "ms");
    report.layer("durable.first_result_us", median_u64(&first_us), "us");
    report.layer("durable.replayed_relations", replayed as f64, "count");
    report.layer("durable.bytes_per_req", bytes_per_req, "B");
    report.layer("durable.faults_per_req", faults as f64 / reads, "count");
    report.layer("storage.put_ns", tr.median_ns("storage.put"), "ns");
    report.layer("storage.get_ns", tr.median_ns("storage.get"), "ns");
    report.layer(
        "storage.warm_share",
        1.0 - (read_procs as f64 / reads).min(1.0),
        "ratio",
    );
    report.common(&setups, cpu, total_reqs, &speed);
    report
}
