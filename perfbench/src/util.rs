//! Seeded generator, order statistics, process accounting and JSON
//! helpers. Nothing here calls into the program under test.

use std::time::Instant;

/// SplitMix64: the benchmark's own generator, so the offered load does
/// not change when the program's `rand` changes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream of `seed`; distinct `stream`s give independent inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x853C_49E6_748F_EA9B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn lower_word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median, over windows of `window_s` seconds, of each window's `q`
/// quantile. Samples are `(time in seconds, value)`. Windows with fewer
/// than `min_samples` samples are skipped; if none is left the quantile
/// of all samples is returned. Host preemption comes in bursts, so a
/// median of windows keeps one burst from deciding a run.
pub fn windowed_quantile(samples: &[(f64, f64)], window_s: f64, q: f64, min_samples: usize) -> f64 {
    let mut per: Vec<f64> = windows_of(samples, window_s, q)
        .into_iter()
        .filter(|(_, n)| *n >= min_samples)
        .map(|(v, _)| v)
        .collect();
    if per.is_empty() {
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        return percentile(&mut all, q);
    }
    percentile(&mut per, 0.5)
}

/// The `q` quantile and the sample count of each window of `window_s`
/// seconds, in time order.
pub fn windows_of(samples: &[(f64, f64)], window_s: f64, q: f64) -> Vec<(f64, usize)> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (t, v) in samples {
        windows.entry((t / window_s) as u64).or_default().push(*v);
    }
    windows
        .into_values()
        .map(|mut w| (percentile(&mut w, q), w.len()))
        .collect()
}

/// The median, over whole windows of `window_s` seconds before `end_s`,
/// of `(time in seconds, count)` events summed per window, per second.
pub fn windowed_rate(events: &[(f64, f64)], window_s: f64, end_s: f64) -> f64 {
    let whole = (end_s / window_s) as usize;
    if whole == 0 {
        return events.iter().map(|e| e.1).sum::<f64>() / end_s;
    }
    let mut counts = vec![0.0f64; whole];
    for (t, n) in events {
        if let Some(c) = counts.get_mut((t / window_s) as usize) {
            *c += n;
        }
    }
    percentile(&mut counts, 0.5) / window_s
}

/// Median of `u64` samples, as `f64`.
pub fn median_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    percentile(&mut v, 0.5)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process (exited threads too),
/// to the nanosecond.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the kernel writes one timespec into `ts`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `VmHWM` (peak resident set) of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPU sets as the kernel takes them: one bit per CPU, up to 1024.
type CpuMask = [u64; 16];

/// Holds the calling thread, and every thread it starts, on one CPU;
/// dropping it restores the CPUs the thread had before.
pub struct OneCpu {
    before: CpuMask,
    pub cpu: usize,
}

impl OneCpu {
    /// Moves the calling thread to the lowest-numbered CPU it may run
    /// on; `None` if the kernel refuses.
    pub fn pin() -> Option<OneCpu> {
        let mut before: CpuMask = [0; 16];
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: the kernel writes at most `size` bytes into `before`.
        if unsafe { sched_getaffinity(0, size, before.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|i| before[i / 64] >> (i % 64) & 1 == 1)?;
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes from `one`.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(OneCpu { before, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: the kernel reads `size` bytes from `before`.
        unsafe { sched_setaffinity(0, size, self.before.as_ptr()) };
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
