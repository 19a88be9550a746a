//! The program as a user drives it: a runtime with the guests installed
//! through the public API, requests minted from their arguments, and
//! the independent computations every result is checked against.

use crate::trace::Tracer;
use crate::util::Rng;
use fix_core::data::Blob;
use fix_core::handle::Handle;
use fix_core::limits::ResourceLimits;
use fix_core::Result;
use fixpoint::Runtime;
use std::sync::Arc;

/// Items rendered by every `dynamic-html` request.
pub const HTML_ITEMS: &str = "8";

/// One request, as its arguments.
#[derive(Clone, Debug)]
pub enum Req {
    /// Native `add`.
    Add { a: u64, b: u64 },
    /// The FixVM `add.fvm` guest.
    VmAdd { a: u64, b: u64 },
    /// The FixVM `fib.fvm` guest; `hint` is the output-size hint of the
    /// request's resource limits, so a fresh hint is a fresh request
    /// whose whole recursion runs in the interpreter.
    Fib { n: u64, hint: u64 },
    /// `count-string` over a stored corpus shard.
    Count { shard: usize, needle: String },
    /// SeBS `dynamic-html` through Flatware.
    Html { user: String },
    /// The benchmark's own `xform` codelet over a stored payload.
    Xform { payload: usize },
}

impl Req {
    pub fn kind(&self) -> usize {
        match self {
            Req::Add { .. } => 0,
            Req::VmAdd { .. } => 1,
            Req::Fib { .. } => 2,
            Req::Count { .. } => 3,
            Req::Html { .. } => 4,
            Req::Xform { .. } => 5,
        }
    }
}

pub const KIND_NAMES: [&str; 6] = ["add", "vm-add", "fib", "count", "html", "xform"];

/// Inputs the benchmark generates and keeps its own copy of.
pub struct Inputs {
    pub shards: Vec<Vec<u8>>,
    pub payloads: Vec<Vec<u8>>,
}

impl Inputs {
    /// Corpus shards: lowercase words from a small vocabulary, so short
    /// needles match often.
    pub fn corpus(seed: u64, shards: usize, shard_bytes: usize) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed, 0xC0);
        let vocab: Vec<String> = (0..512)
            .map(|_| {
                let len = 2 + rng.below(6) as usize;
                rng.lower_word(len)
            })
            .collect();
        (0..shards)
            .map(|_| {
                let mut text = Vec::with_capacity(shard_bytes);
                while text.len() < shard_bytes {
                    text.extend_from_slice(
                        vocab[rng.below(vocab.len() as u64) as usize].as_bytes(),
                    );
                    text.push(b' ');
                }
                text.truncate(shard_bytes);
                text
            })
            .collect()
    }

    /// Incompressible payloads of `bytes` each.
    pub fn payloads(seed: u64, count: usize, bytes: usize) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed, 0xDA);
        (0..count)
            .map(|_| {
                let mut p = Vec::with_capacity(bytes + 8);
                while p.len() < bytes {
                    p.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                p.truncate(bytes);
                p
            })
            .collect()
    }
}

/// A runtime with every guest the workloads use.
pub struct Platform {
    pub rt: Runtime,
    add: Handle,
    vm_add: Handle,
    fib: Handle,
    count: Handle,
    html: Handle,
    fs_root: Handle,
    xform: Handle,
    shards: Vec<Handle>,
}

impl Platform {
    /// Registers and installs the guests, and stores the corpus shards.
    pub fn install(rt: Runtime, shards: &[Vec<u8>]) -> Result<Platform> {
        let add = rt.register_native(
            "perfbench/add",
            Arc::new(|ctx| {
                let a = ctx.arg_blob(0)?.as_u64().unwrap_or(0);
                let b = ctx.arg_blob(1)?.as_u64().unwrap_or(0);
                ctx.host
                    .create_blob(a.wrapping_add(b).to_le_bytes().to_vec())
            }),
        );
        let xform = rt.register_native(
            "perfbench/xform",
            Arc::new(|ctx| {
                let input = ctx.arg_blob(0)?;
                let out: Vec<u8> = input.as_slice().iter().rev().map(|b| b ^ 0xA5).collect();
                ctx.host.create_blob(out)
            }),
        );
        let vm_add = fix_workloads::guests::install_add(&rt)?;
        let fib = fix_workloads::guests::install_fib(&rt)?;
        let count = fix_workloads::wordcount::register_count_string(&rt);
        let html = fix_workloads::sebs::register_dynamic_html(&rt);
        let fs_root = fix_workloads::sebs::build_sebs_fs(&rt, &[])?;
        let shards = shards
            .iter()
            .map(|s| rt.put_blob(Blob::from_slice(s)))
            .collect();
        Ok(Platform {
            rt,
            add,
            vm_add,
            fib,
            count,
            html,
            fs_root,
            xform,
            shards,
        })
    }

    /// Mints `req` the way a user does: put the arguments, apply the
    /// procedure. Every put and the apply is a `storage` span.
    pub fn mint(&self, req: &Req, inputs: &Inputs, tr: &mut Tracer, id: u64) -> Result<Handle> {
        let rt = &self.rt;
        let limits = ResourceLimits::default_limits();
        let put = |tr: &mut Tracer, blob: Blob| {
            tr.span("storage", "storage.put", id, || rt.put_blob(blob))
        };
        let (limits, procedure, args) = match req {
            Req::Add { a, b } | Req::VmAdd { a, b } => {
                let proc_h = if matches!(req, Req::Add { .. }) {
                    self.add
                } else {
                    self.vm_add
                };
                let a = put(tr, Blob::from_u64(*a));
                let b = put(tr, Blob::from_u64(*b));
                (limits, proc_h, vec![a, b])
            }
            Req::Fib { n, hint } => {
                let n = put(tr, Blob::from_u64(*n));
                (
                    limits.with_output_hint(*hint),
                    self.fib,
                    vec![self.vm_add, n],
                )
            }
            Req::Count { shard, needle } => {
                let needle = put(tr, Blob::from_slice(needle.as_bytes()));
                (limits, self.count, vec![self.shards[*shard], needle])
            }
            Req::Html { user } => {
                let argv = put(
                    tr,
                    flatware::encode_argv(&["dynamic-html", user.as_str(), HTML_ITEMS]),
                );
                (limits, self.html, vec![argv, self.fs_root])
            }
            Req::Xform { payload } => {
                let p = put(tr, Blob::from_slice(&inputs.payloads[*payload]));
                (limits, self.xform, vec![p])
            }
        };
        tr.span("storage", "storage.put", id, || {
            rt.apply(limits, procedure, &args)
        })
    }

    /// Checks a result against the independent computation for `req`,
    /// reading the result back through the store (a `storage.get` span).
    pub fn check(
        &self,
        req: &Req,
        result: &Result<Handle>,
        inputs: &Inputs,
        tr: &mut Tracer,
        id: u64,
    ) -> bool {
        let Ok(out) = result else {
            return false;
        };
        let rt = &self.rt;
        match req {
            Req::Add { a, b } | Req::VmAdd { a, b } => {
                read_u64(rt, *out, tr, id) == Some(a.wrapping_add(*b))
            }
            Req::Fib { n, .. } => read_u64(rt, *out, tr, id) == Some(fib(*n)),
            Req::Count { shard, needle } => {
                read_u64(rt, *out, tr, id)
                    == Some(count_nonoverlapping(
                        &inputs.shards[*shard],
                        needle.as_bytes(),
                    ))
            }
            Req::Html { user } => {
                let page = tr.span("storage", "storage.get", id, || {
                    let tree = rt.get_tree(*out).ok()?;
                    let code = rt.get_blob(tree.get(0)?).ok()?;
                    let stdout = rt.get_blob(tree.get(1)?).ok()?;
                    (code.as_slice().first() == Some(&0))
                        .then(|| String::from_utf8_lossy(stdout.as_slice()).into_owned())
                });
                page.is_some_and(|p| p.contains(&format!("Welcome {user}!")))
            }
            Req::Xform { payload } => {
                let got = tr.span("storage", "storage.get", id, || rt.get_blob(*out));
                let want = &inputs.payloads[*payload];
                got.is_ok_and(|g| {
                    g.len() == want.len()
                        && g.as_slice()
                            .iter()
                            .zip(want.iter().rev())
                            .all(|(g, w)| *g == w ^ 0xA5)
                })
            }
        }
    }
}

fn read_u64(rt: &Runtime, h: Handle, tr: &mut Tracer, id: u64) -> Option<u64> {
    tr.span("storage", "storage.get", id, || rt.get_blob(h))
        .ok()
        .and_then(|b| b.as_u64())
}

/// Iterative Fibonacci, the reference for `fib.fvm`.
pub fn fib(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// Naive non-overlapping count, the reference for `count-string`.
pub fn count_nonoverlapping(hay: &[u8], needle: &[u8]) -> u64 {
    if needle.is_empty() {
        return 0;
    }
    let (mut i, mut n) = (0usize, 0u64);
    while i + needle.len() <= hay.len() {
        if &hay[i..i + needle.len()] == needle {
            n += 1;
            i += needle.len();
        } else {
            i += 1;
        }
    }
    n
}

/// A request stream for the open-loop and closed-loop workloads: each
/// kind with its share, and a cold share drawn fresh, the rest repeated
/// from a pool that set-up memoizes.
pub struct Mix {
    /// Per kind (add, vm-add, fib, count, html): share of requests.
    pub shares: [f64; 5],
    /// Per kind: share of that kind's requests that are fresh.
    pub cold: [f64; 5],
    pub pool: Vec<Vec<Req>>,
    pub shards: usize,
}

impl Mix {
    /// Pools of warm requests per kind, `per_kind` each.
    pub fn new(seed: u64, shares: [f64; 5], cold: [f64; 5], per_kind: usize, shards: usize) -> Mix {
        let mut rng = Rng::new(seed, 0x9001);
        let pool = (0..5)
            .map(|k| (0..per_kind).map(|_| fresh(&mut rng, k, shards)).collect())
            .collect();
        Mix {
            shares,
            cold,
            pool,
            shards,
        }
    }

    /// Draws the next request: fresh (`None`), or from its kind's pool
    /// (`Some(slot)`).
    pub fn draw(&self, rng: &mut Rng) -> (Req, Option<usize>) {
        let kind = pick_kind(rng, &self.shares);
        if rng.unit() < self.cold[kind] {
            (fresh(rng, kind, self.shards), None)
        } else {
            let slot = rng.below(self.pool[kind].len() as u64) as usize;
            (self.pool[kind][slot].clone(), Some(slot))
        }
    }
}

/// Draws a kind index by `shares`; the last kind takes any remainder.
pub fn pick_kind(rng: &mut Rng, shares: &[f64]) -> usize {
    let mut u = rng.unit();
    shares
        .iter()
        .position(|s| {
            let hit = u < *s;
            u -= s;
            hit
        })
        .unwrap_or(shares.len() - 1)
}

/// A request of `kind` with fresh arguments.
pub fn fresh(rng: &mut Rng, kind: usize, shards: usize) -> Req {
    match kind {
        0 => Req::Add {
            a: rng.below(1 << 40),
            b: rng.below(1 << 40),
        },
        1 => Req::VmAdd {
            a: rng.below(1 << 40),
            b: rng.below(1 << 40),
        },
        2 => Req::Fib {
            n: 6 + rng.below(5),
            hint: rng.next_u64() >> 1,
        },
        3 => {
            let shard = rng.below(shards as u64) as usize;
            let len = 2 + rng.below(2) as usize;
            Req::Count {
                shard,
                needle: rng.lower_word(len),
            }
        }
        _ => Req::Html {
            user: format!("user-{}", rng.lower_word(10)),
        },
    }
}
