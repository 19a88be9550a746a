//! The host's speed, measured with a fixed piece of the benchmark's own
//! work, and timed figures scaled to one reference speed.
//!
//! The reference box is a guest on a shared host whose speed changes
//! from second to second: a fixed loop of multiplies takes 0.7 ms in one
//! state and 1.2 ms in the other, in CPU time as much as in wall time
//! (no steal is counted meanwhile), and a run may spend all or none of
//! its time in either state. A figure timed on such a host follows the
//! host: ten runs of one commit spread by a third. Every timed
//! end-to-end figure is therefore scaled to one reference speed. The
//! workload runs a short calibration slice (none of the program's code
//! is in it) every few milliseconds, where it would otherwise wait or
//! between operations, on the CPU its threads are held on, and a time
//! measured in a window whose slices took `s` ns (trimmed mean) is
//! multiplied by `REFERENCE_SLICE_NS / s`; a rate is divided by it. The
//! raw figures are printed beside the scaled ones.
//!
//! A slice has two parts, timed together, both on data the slice owns
//! and reads through before it starts timing, so that nothing the
//! program left in the caches or the heap changes it: multiply-and-xor
//! updates of a 32 KiB table, and add-rotate-xor rounds over a 4 KiB
//! block (the operations of a hash). In one-second windows of the
//! reference box the multiply part's time followed warm-burst's batch
//! round trip and engine-replay's round time with correlation 0.93 and
//! 0.95; scaled by the slices, the spread of ten-second runs fell to
//! 0.04–0.08 where the unscaled figures spread 0.1–0.3. A heap
//! allocation part followed open-mix more closely still, but its time
//! depends on the heap the program leaves behind, so it is left out.

use crate::util::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Words in the multiply part's table: 32 KiB.
const TABLE_WORDS: usize = 1 << 12;
/// Updates of the multiply part.
const TABLE_STEPS: usize = 1 << 13;
/// Words in the add-rotate-xor part's block: 4 KiB.
const BLOCK_WORDS: usize = 1 << 10;
/// Passes of the add-rotate-xor part over its block.
const BLOCK_PASSES: usize = 2;
/// What one slice takes on the fast state of the reference box; scaled
/// figures read as they would there.
pub const REFERENCE_SLICE_NS: f64 = 25_000.0;
/// Share of the values trimmed from each end before they are averaged.
const TRIM: f64 = 0.1;

/// Runs calibration slices and keeps when each ran and how long it took.
pub struct Speed {
    table: Vec<u64>,
    block: Vec<u32>,
    x: u64,
    start: Instant,
    last: Option<Instant>,
    /// `(seconds since start, ns)` of each slice.
    pub slices: Vec<(f64, f64)>,
}

impl Speed {
    /// Times are taken from `start`, the origin of the samples the
    /// slices will scale.
    pub fn new(start: Instant) -> Speed {
        Speed {
            table: vec![0x5EED; TABLE_WORDS],
            block: (0..BLOCK_WORDS as u32).collect(),
            x: 1,
            start,
            last: None,
            slices: Vec::with_capacity(1 << 16),
        }
    }

    fn multiply_part(&mut self) -> u64 {
        let mut acc = 0u64;
        for i in 0..TABLE_STEPS {
            self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let j = (z as usize) & (TABLE_WORDS - 1);
            self.table[j] = self.table[j].wrapping_add(z ^ i as u64);
            acc ^= self.table[j.wrapping_mul(7) & (TABLE_WORDS - 1)];
        }
        acc
    }

    fn rotate_part(&mut self) -> u64 {
        let mut st = [0u32; 16];
        for _ in 0..BLOCK_PASSES {
            for chunk in self.block.chunks(16) {
                for (s, w) in st.iter_mut().zip(chunk) {
                    *s ^= *w;
                }
                for (a, b, c, d) in [(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)] {
                    st[a] = st[a].wrapping_add(st[b]);
                    st[d] = (st[d] ^ st[a]).rotate_right(16);
                    st[c] = st[c].wrapping_add(st[d]);
                    st[b] = (st[b] ^ st[c]).rotate_right(12);
                    st[a] = st[a].wrapping_add(st[b]);
                    st[d] = (st[d] ^ st[a]).rotate_right(8);
                    st[c] = st[c].wrapping_add(st[d]);
                    st[b] = (st[b] ^ st[c]).rotate_right(7);
                }
            }
        }
        self.block[st[0] as usize & (BLOCK_WORDS - 1)] ^= st[1];
        u64::from(st[2])
    }

    /// Runs one slice and records how long it took.
    pub fn slice(&mut self) {
        let warm =
            self.table.iter().sum::<u64>() ^ self.block.iter().map(|w| u64::from(*w)).sum::<u64>();
        std::hint::black_box(warm);
        let t0 = Instant::now();
        let acc = self.multiply_part() ^ self.rotate_part();
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        self.slices.push(((t0 - self.start).as_secs_f64(), ns));
        self.last = Some(Instant::now());
    }

    /// Whether no slice ran in the last `period_s` seconds.
    pub fn due(&self, period_s: f64) -> bool {
        self.last
            .is_none_or(|l| l.elapsed().as_secs_f64() >= period_s)
    }

    /// Runs a slice if none ran in the last `period_s` seconds.
    pub fn slice_every(&mut self, period_s: f64) {
        if self.due(period_s) {
            self.slice();
        }
    }

    /// Reference speed over the speed of the whole run: what a time
    /// measured over the run is multiplied by.
    pub fn factor(&self) -> f64 {
        self.factor_since(0)
    }

    /// The factor of the slices from the `first`-th on.
    pub fn factor_since(&self, first: usize) -> f64 {
        let v: Vec<f64> = self.slices[first..].iter().map(|s| s.1).collect();
        if v.is_empty() {
            return 1.0;
        }
        REFERENCE_SLICE_NS / trimmed_mean(v)
    }

    /// The factor of each window of `window_s` seconds that holds a slice.
    fn factors(&self, window_s: f64) -> BTreeMap<u64, f64> {
        let mut per: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (t, ns) in &self.slices {
            per.entry((t / window_s) as u64).or_default().push(*ns);
        }
        per.into_iter()
            .map(|(w, v)| (w, REFERENCE_SLICE_NS / trimmed_mean(v)))
            .collect()
    }

    /// The `q` quantile of the time-valued `samples` (`(seconds, value)`)
    /// in each window of `window_s` seconds, scaled by the window's
    /// factor, averaged over the windows (trimmed). Windows with fewer
    /// than `min_samples` samples are left out; if none is left, all
    /// samples are one window, scaled by the run's factor.
    pub fn time_quantile(
        &self,
        samples: &[(f64, f64)],
        window_s: f64,
        q: f64,
        min_samples: usize,
    ) -> f64 {
        self.scaled_quantile(samples, window_s, q, min_samples, 1)
    }

    /// The same for rate-valued samples, which are divided by the factor.
    pub fn rate_quantile(
        &self,
        samples: &[(f64, f64)],
        window_s: f64,
        q: f64,
        min_samples: usize,
    ) -> f64 {
        self.scaled_quantile(samples, window_s, q, min_samples, -1)
    }

    fn scaled_quantile(
        &self,
        samples: &[(f64, f64)],
        window_s: f64,
        q: f64,
        min_samples: usize,
        power: i32,
    ) -> f64 {
        let factors = self.factors(window_s);
        let mut per: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (t, v) in samples {
            per.entry((t / window_s) as u64).or_default().push(*v);
        }
        let scaled: Vec<f64> = per
            .into_iter()
            .filter(|(_, v)| v.len() >= min_samples)
            .filter_map(|(w, mut v)| Some(percentile(&mut v, q) * factors.get(&w)?.powi(power)))
            .collect();
        if scaled.is_empty() {
            let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
            return percentile(&mut all, q) * self.factor().powi(power);
        }
        trimmed_mean(scaled)
    }

    /// Events per second (`(seconds, count)`) in each whole window of
    /// `window_s` seconds before `end_s`, divided by the window's factor,
    /// averaged over the windows (trimmed).
    pub fn rate(&self, events: &[(f64, f64)], window_s: f64, end_s: f64) -> f64 {
        let factors = self.factors(window_s);
        let mut counts: BTreeMap<u64, f64> =
            (0..(end_s / window_s) as u64).map(|w| (w, 0.0)).collect();
        for (t, n) in events {
            if let Some(c) = counts.get_mut(&((t / window_s) as u64)) {
                *c += n;
            }
        }
        let scaled: Vec<f64> = counts
            .into_iter()
            .filter_map(|(w, c)| Some(c / window_s / factors.get(&w)?))
            .collect();
        if scaled.is_empty() {
            return events.iter().map(|e| e.1).sum::<f64>() / end_s / self.factor();
        }
        trimmed_mean(scaled)
    }
}

/// The mean of `v` without its lowest and highest `TRIM` share.
pub fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "mean of no values");
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
    let cut = (v.len() as f64 * TRIM) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}
