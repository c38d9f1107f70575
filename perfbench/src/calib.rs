//! Host-speed calibration of the end-to-end timings.
//!
//! Other tenants of a shared host slow this process by up to 2x, in
//! states that last from a second to more than a minute. CPU time equals
//! wall time and steal time stays at 0 while it happens: the core runs
//! slower because neighbours load the core and memory system it shares.
//! A run that falls wholly inside such a state reads slow on every
//! timing, and no statistic over the run's own work can tell.
//!
//! A fixed kernel, run between the workload's timed pieces, slows with
//! it. Each piece is scaled by `NOMINAL_NS / the median kernel sample
//! taken within NEAR of it`, so it reads as the time the work takes when
//! the host runs the kernel at its nominal speed. The kernel is the
//! benchmark's own code: no change to the program under test moves it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// About the kernel's fastest time, in nanoseconds, on a 2-vCPU Intel
/// Xeon (2.0 GHz) VM. Scaled timings on that host read as seconds at its
/// fastest; elsewhere they are off by a roughly constant factor, which
/// the comparison of two builds on one host does not see.
pub const NOMINAL_NS: f64 = 1_520_000.0;

/// Host time between kernel samples while a run is timed. A sample
/// takes about 1.5 ms, so this costs about 7 % of a run.
const INTERVAL: Duration = Duration::from_millis(20);

/// Most samples one tick takes to catch up after a long piece, so long
/// pieces are sampled as densely as short ones.
const MAX_CATCH_UP: u128 = 8;

/// How far before and after a piece the samples that scale it may lie.
/// Host states last a second or more, so samples this close see the
/// state the piece ran in.
const NEAR: Duration = Duration::from_millis(200);

/// Samples taken before the first timed work, to warm the kernel up.
const WARM_UP: usize = 20;

/// Samples the kernel between timed pieces and scales each piece by the
/// samples around it.
pub struct Calibrator {
    on: bool,
    /// Every sample so far, in time order: when it ended, and its time.
    samples: Vec<(Instant, u64)>,
    /// Start of the current window.
    opened: Instant,
    /// When each timed piece of the current window ended.
    ends: Vec<Instant>,
}

impl Calibrator {
    /// A calibrator that has already taken its warm-up samples.
    pub fn new() -> Self {
        let mut c = Calibrator {
            on: true,
            ..Calibrator::off()
        };
        for _ in 0..WARM_UP {
            c.sample();
        }
        c.opened = Instant::now();
        c
    }

    /// A calibrator whose ticks do nothing, for passes whose wall time
    /// must not include samples.
    pub fn off() -> Self {
        Calibrator {
            on: false,
            samples: Vec::new(),
            opened: Instant::now(),
            ends: Vec::new(),
        }
    }

    /// Mark the end of a timed piece, then take a sample for every
    /// `INTERVAL` since the last one, at most `MAX_CATCH_UP`. Call it once
    /// after every timed piece, and never inside one.
    pub fn tick(&mut self) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.ends.push(now);
        let due = self.samples.last().map_or(1, |&(t, _)| {
            (now.duration_since(t).as_nanos() / INTERVAL.as_nanos()).min(MAX_CATCH_UP)
        });
        for _ in 0..due {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15)));
        let ns = t.elapsed().as_nanos() as u64;
        self.samples.push((Instant::now(), ns));
    }

    /// Close the current window and open the next. Returns, for each
    /// piece ticked in the window in order, the factor that turns its
    /// host time into nominal time: below 1 when the host ran slower
    /// than nominal.
    pub fn close_window(&mut self) -> Vec<f64> {
        // Samples after the last piece, so it has some on both sides.
        for _ in 0..MAX_CATCH_UP {
            self.sample();
        }
        let mut start = self.opened;
        let scales = self
            .ends
            .iter()
            .map(|&end| {
                let lo = start.checked_sub(NEAR).unwrap_or(start);
                let hi = end + NEAR;
                start = end;
                let from = self.samples.partition_point(|&(t, _)| t < lo);
                let to = self.samples.partition_point(|&(t, _)| t <= hi);
                // With no sample in reach, the last one before it.
                let near = &self.samples[from.min(to.saturating_sub(1))..to];
                let mut ns: Vec<u64> = near.iter().map(|&(_, ns)| ns).collect();
                ns.sort_unstable();
                NOMINAL_NS / ns[ns.len() / 2] as f64
            })
            .collect();
        self.ends.clear();
        self.opened = Instant::now();
        scales
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The fastest sample so far, in nanoseconds.
    pub fn fastest_ns(&self) -> u64 {
        self.samples.iter().map(|&(_, ns)| ns).min().unwrap_or(0)
    }
}

/// Ordered-map updates and sorts over a few thousand keys, then a
/// dependent multiply chain: the pointer-chasing, allocating work and
/// the arithmetic the simulator mixes, with a fixed instruction stream.
/// The map part slows with the host as much as the most memory-bound
/// workload does (`scan_heavy`); the chain does not slow at all. Mixed,
/// the kernel slows about as much as the other workloads.
fn kernel(mut x: u64) -> u64 {
    const KEYS: u64 = 4096;
    let mut map = BTreeMap::new();
    let mut batch: Vec<u64> = Vec::with_capacity(KEYS as usize);
    let mut acc = 0u64;
    for i in 0..27_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KEYS, i);
        if let Some((&k, _)) = map.range(x % KEYS..).next() {
            map.remove(&k);
            acc = acc.wrapping_add(k);
        }
        batch.push(x);
        if batch.len() == KEYS as usize {
            batch.sort_unstable();
            acc ^= batch[batch.len() / 2];
            batch.clear();
        }
    }
    for i in 0..250_000u64 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (acc >> 29);
    }
    acc
}
