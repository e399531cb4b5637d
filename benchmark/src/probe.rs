//! Machine-speed probe: how the end-to-end times stay comparable on a
//! host whose speed drifts.
//!
//! The 2-vCPU Xeon VM (on a shared host) the bounds were set on slows down
//! and speeds up by 15–30% within minutes with nothing else running in it,
//! longer than any run, so no run length averages it out. Every timed
//! operation (each set-up, sweep, chain hour, atlas run, serve loop) is
//! therefore preceded by this fixed kernel, and its wall time is reported
//! at the reference speed: `wall × PROBE_REFERENCE_MS / probe time`. The kernel is the
//! benchmark's own code, so no change to the program moves it; on a host
//! running at the reference speed a calibrated time equals the wall time.

use crate::common::Ctx;
use ed_serve::chaos::percentile;
use std::time::Instant;

/// Side of the kernel's dense matrix: 1 MB of `f64`, cache-resident.
const N: usize = 360;
/// The kernel's median time, in ms, on the 2-vCPU Xeon VM the bounds
/// in `BENCHMARK.json` were set on.
const PROBE_REFERENCE_MS: f64 = 27.0;

/// The probe of one run. Traced runs report no end-to-end times, so
/// their probe is off and scales nothing.
pub struct Probe {
    a: Vec<f64>,
    on: bool,
}

impl Probe {
    pub fn new(ctx: &Ctx) -> Probe {
        Probe {
            a: vec![0.0; N * N],
            on: !ctx.trace,
        }
    }

    /// One kernel run: a dense LU elimination (the sweeps' linear algebra)
    /// and a dependent integer chain (the scalar, branchy rest). Returns ms.
    fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (i, v) in self.a.iter_mut().enumerate() {
            let diagonal = if i % (N + 1) == 0 { N as f64 } else { 0.0 };
            *v = (next() >> 11) as f64 / (1u64 << 53) as f64 + diagonal;
        }
        for k in 0..N {
            let (done, rest) = self.a.split_at_mut((k + 1) * N);
            let pivot = &done[k * N..];
            for row in rest.chunks_exact_mut(N) {
                let f = row[k] / pivot[k];
                for (r, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *r -= f * p;
                }
            }
        }
        let mut h = 0;
        for _ in 0..10_000_000 {
            h ^= next();
        }
        std::hint::black_box((&self.a, h));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Probes the machine now and returns the factor that scales a wall
    /// time measured right after to the reference speed. The median of
    /// three kernel runs keeps one preempted run from skewing it.
    pub fn factor(&mut self) -> f64 {
        if !self.on {
            return 1.0;
        }
        let runs = [self.kernel_ms(), self.kernel_ms(), self.kernel_ms()];
        PROBE_REFERENCE_MS / percentile(&runs, 50.0)
    }
}
