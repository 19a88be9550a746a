//! Idle-runtime probes of single layers, for the traced run: each times
//! one kind of call from outside, many times, and reports the median.

use crate::platform::{Inputs, Platform, Req};
use crate::trace::Tracer;
use crate::util::{median_u64, ns_since, Rng};
use fixpoint::Runtime;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const SHARD_BYTES: usize = 32 * 1024;
const CALLS: usize = 400;

pub fn run(seed: u64, tr: &mut Tracer, layers: &mut BTreeMap<&'static str, (f64, &'static str)>) {
    let inputs = Inputs {
        shards: Inputs::corpus(seed, 4, SHARD_BYTES),
        payloads: Inputs::payloads(seed, 64, 4096),
    };
    let p = Platform::install(Runtime::builder().workers(1).build(), &inputs.shards)
        .expect("guests install");
    let mut rng = Rng::new(seed, 0x9B0B);

    // fix-hash over copies of stored payloads and shards.
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for _ in 0..8 {
        for blob in inputs.shards.iter().chain(&inputs.payloads) {
            let copy = blob.clone();
            tr.span("hash", "hash.hash", 0, || black_box(fix_hash::hash(&copy)));
            bytes += copy.len();
        }
    }
    let ns = ns_since(t0) as f64;
    layers.insert("hash.ns_per_kib", (ns / (bytes as f64 / 1024.0), "ns"));

    let probe = |tr: &mut Tracer, layer: &'static str, name: &'static str, req: &Req| {
        let thunk = p.mint(req, &inputs, tr, 0).expect("mint");
        let t0 = Instant::now();
        let out = tr.span(layer, name, 0, || p.rt.eval(thunk));
        let ns = ns_since(t0);
        assert!(
            p.check(req, &out, &inputs, tr, 0),
            "probe {name} result is wrong"
        );
        ns
    };

    let warm = Req::Add { a: 1, b: 2 };
    probe(tr, "fixpoint", "fixpoint.eval", &warm);
    let mut ns: Vec<u64> = (0..CALLS * 10)
        .map(|_| probe(tr, "fixpoint", "fixpoint.warm_eval", &warm))
        .collect();
    layers.insert("fixpoint.warm_eval_ns", (median_u64(&ns), "ns"));

    ns = (0..CALLS)
        .map(|_| {
            let req = Req::Add {
                a: rng.below(1 << 40),
                b: rng.below(1 << 40),
            };
            probe(tr, "fixpoint", "fixpoint.native_cold", &req)
        })
        .collect();
    layers.insert("fixpoint.native_cold_us", (median_u64(&ns) / 1e3, "us"));

    ns = (0..CALLS)
        .map(|_| {
            let req = Req::VmAdd {
                a: rng.below(1 << 40),
                b: rng.below(1 << 40),
            };
            probe(tr, "vm", "vm.cold", &req)
        })
        .collect();
    layers.insert("vm.cold_us", (median_u64(&ns) / 1e3, "us"));

    ns = (0..CALLS)
        .map(|i| {
            let req = Req::Count {
                shard: i % inputs.shards.len(),
                needle: rng.lower_word(3),
            };
            probe(tr, "workloads", "workloads.count", &req)
        })
        .collect();
    layers.insert(
        "workloads.count_ns_per_kib",
        (median_u64(&ns) / (SHARD_BYTES as f64 / 1024.0), "ns"),
    );

    ns = (0..CALLS)
        .map(|_| {
            let req = Req::Html {
                user: format!("probe-{}", rng.lower_word(10)),
            };
            probe(tr, "flatware", "flatware.html_cold", &req)
        })
        .collect();
    layers.insert("flatware.html_cold_us", (median_u64(&ns) / 1e3, "us"));
}
