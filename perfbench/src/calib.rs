//! Host-speed calibration: a fixed load that belongs to the benchmark, not
//! to the program, timed in CPU seconds next to every executor run.
//!
//! On a shared host the CPU time a fixed piece of work takes is not fixed:
//! neighbours on sibling hyperthreads and on the memory bus slow every
//! instruction this process issues, for minutes at a time. The load below
//! is slowed by the same neighbours, and nothing in the repository can
//! change its cost, so dividing a run's CPU time by it takes out much of
//! that slowdown. Not all of it: on the 2-vCPU Xeon host the benchmark was
//! sized on, over 20 minutes in which the median raw CPU times of the
//! three workloads grew 26-33%, the scaled ones grew 9-13%.
//!
//! Each run calibrates just before its set-up and again just after its
//! runtime shut down, and keeps the mean ([`host_cpu_s`]). The gated
//! timings are the run's CPU times multiplied by [`speed_factor`], that
//! is, expressed for a host on which the load takes [`NOMINAL_CPU_S`].
//!
//! The load mirrors the program's mix: each of two threads (one per place
//! of every workload) streams over a private buffer the size of one
//! place's `linreg-ctl` block, as a dense matvec does, and runs a
//! dependent arithmetic chain, as the scalar parts of a step do.

use crate::probe::process_cpu_ns;
use crate::stats::median;

/// CPU seconds the load took on the 2-vCPU Xeon host the benchmark was
/// sized on, at a quiet time. Any fixed value would do: it only sets the
/// scale the scaled timings are reported in.
pub const NOMINAL_CPU_S: f64 = 0.034;

/// Threads of the load: one per active place.
const THREADS: usize = 2;
/// f64 elements each thread streams over (16 MiB).
const STREAM_LEN: usize = 2 << 20;
/// Passes over the buffer.
const STREAM_PASSES: usize = 2;
/// Steps of the dependent chain.
const CHAIN_STEPS: usize = 4 << 20;
/// Timings of the load per calibration.
const SAMPLES: usize = 5;

/// One thread's share of the load; returns a value that depends on every
/// element, so the optimiser cannot drop any of it.
fn load(buf: &[f64]) -> f64 {
    let mut total = 0.0;
    for _ in 0..STREAM_PASSES {
        total += buf.iter().sum::<f64>();
    }
    let mut x = total.fract() + 0.5;
    for _ in 0..CHAIN_STEPS {
        x = x * 0.999_999_9 + 1e-7;
    }
    total + x
}

/// CPU seconds the calibration load takes now: the median of
/// [`SAMPLES`] timings, so that a burst shorter than the calibration does
/// not set the factor of a whole run. The buffers are allocated and
/// touched before the clock starts, so page faults are not timed.
pub fn host_cpu_s() -> f64 {
    let bufs: Vec<Vec<f64>> = (0..THREADS)
        .map(|t| (0..STREAM_LEN).map(|i| (i + t) as f64 * 1e-9).collect())
        .collect();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = process_cpu_ns();
            let sink: f64 = std::thread::scope(|s| {
                let handles: Vec<_> = bufs.iter().map(|b| s.spawn(|| load(b))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread"))
                    .sum()
            });
            std::hint::black_box(sink);
            (process_cpu_ns() - start) as f64 / 1e9
        })
        .collect();
    median(&samples).expect("at least one sample")
}

/// The factor that scales a CPU time measured next to a calibration load
/// that took `calib_cpu_s` to the nominal host speed.
pub fn speed_factor(calib_cpu_s: f64) -> f64 {
    NOMINAL_CPU_S / calib_cpu_s
}
