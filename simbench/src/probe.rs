//! A fixed calibration workload that measures how fast the host runs.
//!
//! On a shared virtual machine the same code runs up to 70% slower for
//! minutes at a time, with no steal time to show for it: other tenants
//! take the caches and memory bandwidth the vCPU depends on. A window of
//! 40 s can lie wholly inside such a stretch, so no estimator over one
//! invocation's runs can see past it. The probe runs a small fixed
//! workload of the same kind as the simulator's (sorting, hashed and
//! ordered lookups, pointer chasing) between the simulator's runs, and
//! the benchmark divides its host times by how much slower than
//! [`REFERENCE_SECS`] the probe ran in the same window, taken at the same
//! kind of statistic as the host time it corrects. The probe is the
//! benchmark's own code, so a change to the simulator cannot move it.
//!
//! The probe allocates its memory once, before any simulator run, and
//! never again: a probe that allocated on every call ran at a speed that
//! depended on the state the simulator's runs left the heap in, and so on
//! the workload seed.

use std::hint::black_box;
use std::time::Instant;

use custody_simcore::stats::Summary;

/// Time of one call on the machine the README's numbers were taken on
/// (a 2-vCPU Intel Xeon VM) in a quiet stretch. Host times are reported
/// at this speed: a probe twice as slow as this halves them.
pub const REFERENCE_SECS: f64 = 0.0015;

/// Measured host time between two blocks of probe calls.
const INTERVAL_SECS: f64 = 0.5;

/// Host time a block of probe calls spends, as a share of the measured
/// time since the block before.
const SHARE: f64 = 0.05;

/// Integers sorted per call.
const SORTED: usize = 20_000;
/// Slots of the open-addressing table; a power of two.
const SLOTS: usize = 1 << 15;
/// Keys inserted into the table, each followed by a binary search.
const LOOKUPS: usize = 12_000;
/// Length of the cycle the pointer chase walks (256 KiB of `u32`).
const CHAIN: usize = 1 << 16;
/// Steps of the pointer chase.
const STEPS: usize = 150_000;

/// The probe's calls over one invocation, and the memory they work in.
#[derive(Debug)]
pub struct Probe {
    calls: Vec<f64>,
    pending_secs: f64,
    sorted: Vec<u64>,
    table: Vec<u64>,
    chain: Vec<u32>,
}

impl Default for Probe {
    /// Allocates the probe's memory; no call allocates after this.
    fn default() -> Self {
        // One random cycle through every index, so the chase visits all
        // of it in an order the prefetcher cannot follow.
        let mut order: Vec<u32> = (0..CHAIN as u32).collect();
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        for i in (1..CHAIN).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut chain = vec![0u32; CHAIN];
        for w in 0..CHAIN {
            chain[order[w] as usize] = order[(w + 1) % CHAIN];
        }
        Probe {
            calls: Vec::with_capacity(1 << 16),
            pending_secs: 0.0,
            sorted: vec![0; SORTED],
            table: vec![0; SLOTS],
            chain,
        }
    }
}

impl Probe {
    /// Counts `measured_secs` of measured host time, and runs a block of
    /// calls once [`INTERVAL_SECS`] of it have gathered. Each block starts
    /// with an untimed call, so every timed call finds the caches the same
    /// way: warm with its own data, whichever run came before.
    pub fn after(&mut self, measured_secs: f64) {
        self.pending_secs += measured_secs;
        if self.pending_secs >= INTERVAL_SECS {
            self.block();
        }
    }

    fn block(&mut self) {
        let budget = SHARE * self.pending_secs;
        self.pending_secs = 0.0;
        black_box(self.call());
        let mut spent = 0.0;
        while spent < budget || spent == 0.0 {
            let started = Instant::now();
            black_box(self.call());
            let secs = started.elapsed().as_secs_f64();
            self.calls.push(secs);
            spent += secs;
        }
    }

    /// Timed calls made so far.
    pub fn calls(&self) -> usize {
        self.calls.len()
    }

    /// How much slower than [`REFERENCE_SECS`] the timed calls ran at
    /// quantile `q` of their times. Runs a block first if none has run
    /// yet.
    pub fn slowdown(&mut self, q: f64) -> f64 {
        if self.calls.is_empty() {
            self.block();
        }
        let mut s = Summary::new();
        s.extend(self.calls.iter().copied());
        s.percentile(q).map_or(1.0, |t| t / REFERENCE_SECS)
    }

    /// One call of the calibration workload; always the same work, in
    /// the memory [`default`](Self::default) allocated.
    fn call(&mut self) -> u64 {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for v in &mut self.sorted {
            *v = rng.next();
        }
        self.sorted.sort_unstable();
        self.table.fill(0);
        let mask = SLOTS as u64 - 1;
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            let key = rng.next() | 1;
            let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) & mask;
            while self.table[at as usize] != 0 {
                at = (at + 1) & mask;
            }
            self.table[at as usize] = key;
            let wanted = self.sorted[(key % SORTED as u64) as usize];
            acc = acc.wrapping_add(self.sorted.partition_point(|&v| v < wanted) as u64);
        }
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.chain[at as usize];
        }
        acc.wrapping_add(u64::from(at))
    }
}

/// A xorshift64 generator: the probe needs fixed pseudo-random work, not
/// the simulator's RNG streams.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_do_the_same_work_and_fill_their_budget() {
        let mut p = Probe::default();
        assert_eq!(p.call(), p.call());
        p.after(INTERVAL_SECS / 2.0);
        assert_eq!(p.calls(), 0, "no block before an interval has gathered");
        p.after(INTERVAL_SECS / 2.0);
        assert!(p.calls() >= 1);
        let (fast, typical) = (p.slowdown(0.1), p.slowdown(0.5));
        assert!(fast.is_finite() && fast > 0.0 && fast <= typical);
        let mut fresh = Probe::default();
        assert!(fresh.slowdown(0.5) > 0.0);
        assert_eq!(fresh.calls(), 1, "a block runs if none has");
    }

    #[test]
    fn the_chase_visits_every_index() {
        let p = Probe::default();
        let mut at = 0u32;
        for step in 1..=CHAIN {
            at = p.chain[at as usize];
            assert_eq!(at == 0, step == CHAIN, "cycle closed early at {step}");
        }
    }
}
