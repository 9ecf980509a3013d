//! Host-speed calibration.
//!
//! On a shared VM, neighbours slow a run by up to 40 % for minutes at a
//! time, with steal near zero, and best-of-N cannot remove a slowdown that
//! lasts the whole run. So every time metric is reported in *reference
//! seconds*: the measured time divided by the run's host factor, the
//! median time of a fixed reference kernel sampled between the run's
//! units of work, over [`REFERENCE_S`]. Measured effect: the medians of
//! two ten-seed sets drift apart by up to 30 % raw and by at most 13 %
//! normalized (see `METRICS.md`).
//!
//! The kernel is the benchmark's own code — sorting, binary searches,
//! small allocations, a `BTreeMap` and a float dynamic programme, the
//! scheduler's kind of work — so no change to the program can move it.
//! The run header prints the factor and the raw figures.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's median time, in seconds, on the host the benchmark was
/// defined on (a 2-vCPU VM at 2.1 GHz) in a quiet phase.
pub const REFERENCE_S: f64 = 0.035;

/// Kernel runs per sample point.
const RUNS_PER_SAMPLE: usize = 3;

/// The fixed reference work.
pub fn kernel() -> u64 {
    let mut acc = 0u64;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for round in 0..70usize {
        let mut v: Vec<f64> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 100_000) as f64 * 0.37
            })
            .collect();
        v.sort_by(f64::total_cmp);
        let mut m = std::collections::BTreeMap::new();
        for i in 0..2000usize {
            let q = (i * 7919 + round) as f64 % 37_000.0;
            m.insert(v.partition_point(|&e| e < q), i);
        }
        let mut dp = vec![0.0f64; 600];
        for i in 1..600usize {
            for j in i.saturating_sub(24)..i {
                dp[i] = dp[i].max(dp[j] + v[(i * j) % v.len()] * 1e-3);
            }
        }
        let lists: Vec<Vec<u32>> = (0..200u32).map(|i| (0..i % 13).collect()).collect();
        acc ^=
            m.len() as u64 ^ dp[599].to_bits() ^ lists.iter().map(|l| l.len() as u64).sum::<u64>();
    }
    acc
}

/// Kernel timings collected over one run.
#[derive(Debug, Default)]
pub struct HostClock {
    samples: Vec<f64>,
}

impl HostClock {
    /// Times the kernel a few times; call between units of work.
    pub fn sample(&mut self) {
        for _ in 0..RUNS_PER_SAMPLE {
            let t0 = Instant::now();
            black_box(kernel());
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }

    /// Median kernel time over [`REFERENCE_S`]: above 1 on a slowed host.
    pub fn factor(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_positive() {
        assert_eq!(kernel(), kernel());
        let mut c = HostClock::default();
        c.sample();
        assert!(c.factor() > 0.0 && c.factor().is_finite());
    }
}
