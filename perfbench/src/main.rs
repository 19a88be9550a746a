//! `perfbench`: the Fix workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <open-mix|warm-burst|durable-restart|engine-replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload with the benchmark's
//! tracing off and prints the end-to-end metrics. With `--trace 1` it
//! runs the workload untraced and then traced (half the time each), runs
//! every other workload briefly with tracing on so that every layer is
//! reached, prints the per-layer metrics and self-time table, and writes
//! the spans to `perfbench/out/spans-<workload>.json`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A failed check makes the exit code non-zero.

mod durable_restart;
mod engine_replay;
mod open_mix;
mod platform;
mod probes;
mod speed;
mod trace;
mod util;
mod warm_burst;

use speed::Speed;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;
use util::{json_num, json_str};

pub const WORKLOADS: [&str; 4] = ["open-mix", "warm-burst", "durable-restart", "engine-replay"];

/// A measured run is this many sub-runs, one after the other, each with
/// its own set-up, state and share of the time; its figures are the mean
/// of theirs. A sub-run's figures keep one level for its whole length
/// and that level moves from one sub-run to the next, by ±8 % on
/// warm-burst in one process; ten of them average it.
pub const SUB_RUNS: usize = 10;

/// Set-up runs this many times per sub-run; `setup_s` is the median of
/// all the set-ups of a run.
pub const SETUP_REPEATS: usize = 1;

/// Where traced runs write their spans and durable runs their logs.
pub const OUT_DIR: &str = "perfbench/out";

/// How long and how large a workload runs.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seed: u64,
    pub seconds: f64,
    /// A reduced input size, for the brief traced runs of the other
    /// workloads.
    pub small: bool,
}

/// Operations attempted and failed in one phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    pub phases: Vec<Phase>,
    /// Accounting lines printed above the result.
    pub notes: Vec<String>,
    /// Each set-up's time, scaled to the reference speed.
    pub setups: Vec<f64>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.insert(name, (value, unit));
    }

    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name,
            attempted,
            failed,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Set-up time and the process figures every workload reports. CPU
    /// time is scaled to the reference speed by the measured phase's
    /// calibration slices in `speed`.
    pub fn common(&mut self, setup: &Setups, cpu_s: f64, completed: u64, speed: &Speed) {
        self.setups = setup.scaled.clone();
        let mut s = setup.scaled.clone();
        self.e2e("setup_s", util::percentile(&mut s, 0.5), "s");
        let per_req = cpu_s * 1e6 / completed.max(1) as f64;
        self.e2e("cpu_us_per_req", per_req * speed.factor(), "us");
        self.e2e("peak_rss_mb", util::peak_rss_mib(), "MiB");
        let list = |v: &[f64]| {
            v.iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.note(format!("setup_s runs, scaled: {}", list(&setup.scaled)));
        self.note(format!("setup_s runs, raw:    {}", list(&setup.raw)));
        self.note(format!(
            "cpu_s {cpu_s:.3} over {completed} completed requests: {per_req:.3} us each, raw"
        ));
        self.note(format!(
            "speed: {} calibration slices, {:.0} ns trimmed mean, factor {:.4}",
            speed.slices.len(),
            speed::REFERENCE_SLICE_NS / speed.factor(),
            speed.factor()
        ));
    }

    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// Each set-up's time, raw and scaled to the reference speed.
pub struct Setups {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

/// Calibration slices run before and after each set-up; its time is
/// scaled by their trimmed mean.
const SETUP_SLICES: usize = 16;

/// Runs `setup` `SETUP_REPEATS` times (its argument is the repeat's
/// index) and returns the last state. Each earlier state goes to
/// `teardown` before the next set-up, outside the timing.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Setups) {
    let mut speed = Speed::new(Instant::now());
    let mut times = Setups {
        raw: Vec::new(),
        scaled: Vec::new(),
    };
    let mut state = None;
    for k in 0..SETUP_REPEATS {
        if let Some(s) = state.take() {
            teardown(s);
        }
        let first = speed.slices.len();
        for _ in 0..SETUP_SLICES {
            speed.slice();
        }
        let t0 = Instant::now();
        state = Some(setup(k));
        let secs = t0.elapsed().as_secs_f64();
        for _ in 0..SETUP_SLICES {
            speed.slice();
        }
        let ns: Vec<f64> = speed.slices[first..].iter().map(|s| s.1).collect();
        times.raw.push(secs);
        times
            .scaled
            .push(secs * speed::REFERENCE_SLICE_NS / speed::trimmed_mean(ns));
    }
    (state.expect("set up at least once"), times)
}

/// Runs the named workload once.
fn run_workload(name: &str, budget: Budget, tr: &mut Tracer) -> Report {
    match name {
        "open-mix" => open_mix::run(budget, tr),
        "warm-burst" => warm_burst::run(budget, tr),
        "durable-restart" => durable_restart::run(budget, tr),
        "engine-replay" => engine_replay::run(budget, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs the workload as `SUB_RUNS` sub-runs and merges them: the mean of
/// each end-to-end figure, except `setup_s` (the median of every set-up)
/// and `peak_rss_mb` (the largest); phases add up.
fn measured_run(workload: &str, seed: u64, seconds: f64) -> Report {
    let subs: Vec<Report> = (0..SUB_RUNS)
        .map(|_| {
            let budget = Budget {
                seed,
                seconds: seconds / SUB_RUNS as f64,
                small: false,
            };
            run_workload(workload, budget, &mut Tracer::new(false))
        })
        .collect();
    let mut out = Report::default();
    for (&name, &(_, unit)) in &subs[0].e2e {
        let values: Vec<f64> = subs.iter().map(|r| r.e2e[name].0).collect();
        let value = match name {
            "setup_s" => {
                let mut all: Vec<f64> = subs.iter().flat_map(|r| r.setups.clone()).collect();
                util::percentile(&mut all, 0.5)
            }
            "peak_rss_mb" => values.iter().copied().fold(0.0, f64::max),
            _ => values.iter().sum::<f64>() / values.len() as f64,
        };
        out.e2e(name, value, unit);
    }
    for (k, sub) in subs.into_iter().enumerate() {
        out.note(format!(
            "sub-run {}: {}",
            k + 1,
            sub.e2e
                .iter()
                .map(|(name, (v, _))| format!("{name} {v:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for n in sub.notes {
            out.note(format!("sub-run {}: {n}", k + 1));
        }
        for p in sub.phases {
            match out.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.attempted += p.attempted;
                    q.failed += p.failed;
                }
                None => out.phases.push(p),
            }
        }
    }
    out
}

/// The end-to-end figure each workload's tracing overhead is taken on.
const OVERHEAD_METRIC: &str = "rps";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        match (args[i].strip_prefix("--"), args.get(i + 1)) {
            (Some(k), Some(v)) => {
                flags.insert(k, v);
                i += 2;
            }
            _ => usage(),
        }
    }
    let workload: &'static str = flags
        .get("workload")
        .and_then(|w| WORKLOADS.iter().find(|known| *known == w))
        .copied()
        .unwrap_or_else(|| usage());
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = flags
        .get("seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let traced = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };

    let (report, metrics) = if traced {
        traced_run(workload, seed, seconds)
    } else {
        let report = measured_run(workload, seed, seconds);
        let metrics = report.e2e.clone();
        (report, metrics)
    };

    for p in &report.phases {
        println!(
            "phase {:<12} attempted {:>9} failed {:>6}",
            p.name, p.attempted, p.failed
        );
    }
    for n in &report.notes {
        println!("{n}");
    }
    let (attempted, failed) = (report.attempted(), report.failed());
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run: the workload untraced and traced, then every other
/// workload briefly, traced, for the layers this one does not reach.
fn traced_run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
) -> (Report, BTreeMap<&'static str, (f64, &'static str)>) {
    let half = Budget {
        seed,
        seconds: seconds / 2.0,
        small: false,
    };
    let untraced = run_workload(workload, half, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    tr.set_workload(workload);
    let mut report = run_workload(workload, half, &mut tr);
    let mut layers = report.layers.clone();

    let base = untraced.e2e[OVERHEAD_METRIC].0;
    let with = report.e2e[OVERHEAD_METRIC].0;
    let overhead = 1.0 - with / base;
    layers.insert("bench.trace_overhead", (overhead, "ratio"));
    report.note(format!(
        "trace overhead on {workload}: {OVERHEAD_METRIC} {base:.1} untraced, {with:.1} traced ({:+.2}%)",
        overhead * 100.0
    ));
    for (name, (u, unit)) in &untraced.e2e {
        let t = report.e2e.get(name).map_or(0.0, |v| v.0);
        report.note(format!(
            "e2e {name:<16} untraced {u:>14.3} traced {t:>14.3} {unit}"
        ));
    }

    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        tr.set_workload(other);
        let t0 = Instant::now();
        let brief = run_workload(
            other,
            Budget {
                seed,
                seconds: 1.0,
                small: true,
            },
            &mut tr,
        );
        report.note(format!(
            "brief traced {other}: {:.2}s, attempted {}, failed {}",
            t0.elapsed().as_secs_f64(),
            brief.attempted(),
            brief.failed()
        ));
        for (name, v) in brief.layers {
            layers.entry(name).or_insert(v);
        }
        report.phases.extend(brief.phases);
    }

    tr.set_workload("probe");
    probes::run(seed, &mut tr, &mut layers);

    for line in tr.table().lines() {
        report.note(format!("self-time {line}"));
    }
    for (name, (value, unit)) in &layers {
        report.note(format!("layer {name:<28} {value:>16.4} {unit}"));
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{workload}.json"));
    match tr.write_json(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
    (report, layers)
}
