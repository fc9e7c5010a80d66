//! `perfbench` — the end-to-end, layer-attributed benchmark of resilient
//! GML executor runs. Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload linreg-ctl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation measures one workload (see [`workloads`] for the three
//! workloads, why each exists, and which layer metric should move which
//! end-to-end metric). It first runs the failure-free, non-resilient
//! reference of the same inputs, then repeats the resilient run until
//! `--seconds` is used up. Every run happens in a child process of its own:
//! the codec counters, the compute pool and the allocator's peak are
//! process-global, so a fresh process gives each run clean counters and
//! its own heap peak.
//!
//! * `--trace 0`: every run is untraced; prints the end-to-end metrics
//!   with their sample counts and checks every output. The gated timings
//!   are median CPU times scaled by a host-speed factor ([`calib`]),
//!   printed beside the wall-clock and raw CPU figures and the pass-time
//!   tails (see `summarize` in `main.rs` for why). Recovery
//!   latency `restore_s` is printed here for `pagerank-restore`, but the
//!   JSON line carries it among the per-layer metrics: that line must
//!   hold every end-to-end metric for every workload, and only one
//!   workload recovers.
//! * `--trace 1`: alternates traced and untraced runs; prints the
//!   per-layer metrics from the traced runs, the kernel probe, the paired
//!   non-resilient step time and the tracing overhead (traced minus
//!   untraced `run_s`). Traced runs write their spans under `perfbench/out`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

pub mod calib;
pub mod kernels;
pub mod probe;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

use stats::Record;
use workloads::{App, Sizes, Workload};

/// The end-to-end metrics (`--trace 0`), with units, each the median over
/// the measurement's runs: the CPU time of the executor run, the CPU time
/// of one executor pass (the interval between `step` calls; its median
/// within a run), the CPU time of set-up (runtime start, app `make`, store
/// creation), all three scaled to a host of nominal speed (see [`calib`]),
/// and the run's peak live heap.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_norm_s", "s"),
    ("iter_norm_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Figures of the whole run that are printed with the end-to-end metrics
/// and carried, ungated, with the per-layer ones: the wall-clock time to
/// solution, pass time and set-up time, the same as raw CPU times, the
/// pass-time tails, and the CPU time of the calibration load. On a shared
/// host the raw times follow the neighbours' load as much as the program.
pub const RUN_FIGURES: [(&str, &str); 9] = [
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("iter_cpu_ms_p50", "ms"),
    ("iter_cpu_ms_p90", "ms"),
    ("setup_wall_s", "s"),
    ("setup_cpu_s", "s"),
    ("calib_cpu_s", "s"),
];

/// The per-layer metrics (`--trace 1`), with units. Kernel flop and byte
/// counts are computed, not measured, and their units say so.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("iter_cpu_ms_p50", "ms"),
    ("iter_cpu_ms_p90", "ms"),
    ("setup_wall_s", "s"),
    ("setup_cpu_s", "s"),
    ("calib_cpu_s", "s"),
    ("step.ms_p50", "ms"),
    ("step.self_ms", "ms"),
    ("kernel.ms_per_iter", "ms"),
    ("kernel.flops_per_iter", "computed_flop"),
    ("kernel.bytes_per_iter", "computed_B"),
    ("kernel.flops_per_byte", "flop/B"),
    ("kernel.share_of_step", "ratio"),
    ("finish.ctl_per_iter", "count"),
    ("finish.tasks_per_iter", "count"),
    ("finish.overhead_ms_per_iter", "ms"),
    ("serial.encode_ms", "ms"),
    ("serial.decode_ms", "ms"),
    ("serial.bytes_shipped", "B"),
    ("serial.bytes_received", "B"),
    ("ckpt.ms_p50", "ms"),
    ("ckpt.self_ms", "ms"),
    ("ckpt.capture_ms", "ms"),
    ("ckpt.ship_ms", "ms"),
    ("ckpt.count", "count"),
    ("codec.ms", "ms"),
    ("codec.logical_bytes", "B"),
    ("codec.wire_bytes", "B"),
    ("codec.wire_ratio", "ratio"),
    ("detect.ms", "ms"),
    ("detect.calls", "count"),
    ("restore.ms", "ms"),
    ("restore_s", "s"),
    ("restore.bytes_received", "B"),
    ("restore.reexec_iters", "count"),
    ("mem.store_peak_bytes", "B"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// Largest accepted `|w - w_ref|` of a LinReg run against the sequential
/// CG twin, relative to `max(1, max |w_ref|)`. The distributed and
/// sequential CG sum in different orders, so bits differ; both converge
/// to the same weights.
pub const LINREG_TOL: f64 = 1e-9;

/// Where runs leave their spans and results (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Check one resilient run against the reference run of the same inputs:
/// the restore count, the final group size, the cost-report telescoping,
/// and the output. `Ok` describes what matched; `Err` names what failed.
pub fn check_run(
    w: &Workload,
    sizes: &Sizes,
    rec: &Record,
    reference: &Record,
) -> Result<String, String> {
    let want_restores = sizes.expected_restores() as f64;
    if rec.get("check.restores") != Some(want_restores) {
        return Err(format!(
            "restores {:?}, expected {want_restores}",
            rec.get("check.restores")
        ));
    }
    if rec.get("check.group_len") != Some(sizes.places as f64) {
        return Err(format!("final group size {:?}", rec.get("check.group_len")));
    }
    if rec.get("check.consistent") != Some(1.0) || rec.get("check.codec_consistent") != Some(1.0) {
        return Err("cost-report rows do not telescope to the run totals".into());
    }
    match w.app {
        App::LinReg => {
            let (got, want) = (rec.list("out.weights"), reference.list("ref.weights"));
            if got.len() != want.len() || want.is_empty() {
                return Err("weight vector length differs from the reference".into());
            }
            if got.iter().any(|v| !v.is_finite()) {
                return Err("non-finite weights".into());
            }
            let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let diff = got
                .iter()
                .zip(want)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            if diff > LINREG_TOL * scale {
                return Err(format!("weights differ from sequential CG by {diff:e}"));
            }
            Ok(format!("weights within {diff:.1e} of sequential CG"))
        }
        App::Gnmf => {
            let (got, want) = (rec.get("out.objective"), reference.get("ref.objective"));
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!("objective {got:?} != failure-free {want:?}"));
            }
            Ok("objective bit-equal to the failure-free run".into())
        }
        App::PageRank => {
            let (got, want) = (rec.text("out.digest"), reference.text("ref.digest"));
            if got.is_none() || got != want {
                return Err(format!("rank digest {got:?} != failure-free {want:?}"));
            }
            Ok("ranks bit-equal to the failure-free run".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_record(w: &Workload) -> Record {
        let mut r = Record::default();
        r.set("check.restores", w.full.expected_restores() as f64);
        r.set("check.group_len", w.full.places as f64);
        r.set("check.consistent", 1.0);
        r.set("check.codec_consistent", 1.0);
        r
    }

    #[test]
    fn check_run_rejects_wrong_outputs_and_accounting() {
        let [linreg, gnmf, pagerank] = &workloads::WORKLOADS;
        let mut reference = Record::default();
        reference.set_list("ref.weights", vec![0.5, -2.0]);
        reference.set("ref.objective", 1.25);
        reference.set_text("ref.digest", "00000000000000aa");

        let mut ok = run_record(linreg);
        ok.set_list("out.weights", vec![0.5, -2.0 + 1e-12]);
        assert!(check_run(linreg, &linreg.full, &ok, &reference).is_ok());
        let mut off = ok.clone();
        off.set_list("out.weights", vec![0.5, -2.0 + 1e-6]);
        assert!(check_run(linreg, &linreg.full, &off, &reference).is_err());
        off.set_list("out.weights", vec![f64::NAN, -2.0]);
        assert!(check_run(linreg, &linreg.full, &off, &reference).is_err());

        let mut r = run_record(gnmf);
        r.set("out.objective", 1.25);
        assert!(check_run(gnmf, &gnmf.full, &r, &reference).is_ok());
        r.set("out.objective", 1.25 + f64::EPSILON);
        assert!(check_run(gnmf, &gnmf.full, &r, &reference).is_err());

        let mut r = run_record(pagerank);
        r.set_text("out.digest", "00000000000000aa");
        assert!(check_run(pagerank, &pagerank.full, &r, &reference).is_ok());
        let mut no_restore = r.clone();
        no_restore.set("check.restores", 0.0);
        assert!(check_run(pagerank, &pagerank.full, &no_restore, &reference).is_err());
        let mut shrunk = r.clone();
        shrunk.set("check.group_len", 1.0);
        assert!(check_run(pagerank, &pagerank.full, &shrunk, &reference).is_err());
        let mut torn = r.clone();
        torn.set("check.consistent", 0.0);
        assert!(check_run(pagerank, &pagerank.full, &torn, &reference).is_err());
        r.set_text("out.digest", "00000000000000ab");
        assert!(check_run(pagerank, &pagerank.full, &r, &reference).is_err());
    }
}
