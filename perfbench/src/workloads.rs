//! The three workloads, why each exists, and what one run of each does.
//!
//! Every workload is a full `ResilientExecutor` run of a `gml-apps` app on
//! 2 active places, under the real runtime, store and codec, driven from a
//! single process. The host this was sized on has 2 cores: with more
//! places than cores the timings would measure the scheduler, so place
//! count stays at 2 and place-count effects are left to counts such as
//! `finish.ctl_per_iter`. The compute pool width is whatever the runtime
//! resolves (1 on 2 cores with 2–3 place dispatchers); it is recorded, not
//! forced.
//!
//! # Why each workload
//!
//! * `linreg-ctl` — `ResilientLinReg`, CG with 2 dense matvecs and ~8
//!   duplicated-vector ops per iteration: many `finish` blocks and ~38
//!   place-0 control messages per iteration, and a small state to
//!   checkpoint after the read-only `X` is saved once. Resilient-finish
//!   traffic and `gemv` do the work; store, codec and restore are bypassed.
//! * `gnmf-ckpt` — `ResilientGnmf` with a checkpoint every iteration and no
//!   failure. `W` is rewritten every iteration, so this is the store's write
//!   path with almost every chunk dirty: capture, digest, codec and ship do
//!   the work; restore is bypassed.
//! * `pagerank-restore` — `ResilientPageRank` on 2 places + 1 spare with a
//!   checkpoint every 10 iterations; place 1 is killed just past the middle
//!   of the run and `replace_redundant` recovers onto the spare. The app
//!   also digests its ranks for the executor's silent-error screen. This is
//!   the store's read path (fetch and decode from backups onto the spare),
//!   rollback re-execution and silent-error detection, plus `spmv`.
//!
//! # Which layer metric should move which end-to-end metric
//!
//! | layer (module) | per-layer metrics | should move |
//! |---|---|---|
//! | `gml-apps` step | `step.ms_p50` | `iter_ms_p50` on all three |
//! | `gml-matrix` kernels (probe) | `kernel.*` | `run_s`: `gemv` on `linreg-ctl`, `spmv` on `pagerank-restore`, gram/gemm on `gnmf-ckpt` |
//! | `apgas::finish` / runtime | `finish.ctl_per_iter`, `finish.tasks_per_iter`, `finish.overhead_ms_per_iter` | `iter_ms_p50` on `linreg-ctl`; little on `pagerank-restore` |
//! | `apgas::serial` | `serial.*` | `run_s` and `restore_s` on `pagerank-restore` |
//! | `gml-core` store / app_store | `ckpt.*` | `run_s` and `iter_ms_p90` on `gnmf-ckpt`; nothing on `linreg-ctl` |
//! | `gml-core` codec | `codec.*` | `run_s` on `gnmf-ckpt`; nothing on `linreg-ctl` |
//! | `apgas::digest` (detect) | `detect.ms`, `detect.calls` | `run_s` on `pagerank-restore` only |
//! | `gml-core` framework restore | `restore.*`, `restore_s` | `restore_s` and `run_s` on `pagerank-restore` |
//! | `apgas::mem` | `mem.store_peak_bytes` | `peak_heap_mb`, mostly on `gnmf-ckpt` |
//! | attribution | `unattributed_ms` | should stay flat everywhere |
//!
//! `run_s` and `iter_ms_*` are wall-clock figures; the gated end-to-end
//! metrics are their host-speed-scaled CPU-time twins `run_norm_s` and
//! `iter_norm_ms_p50` (see `summarize` in `main.rs`), which the same
//! layers move.
//!
//! Background ship runs concurrently with `step` (`overlap_ship`), and on
//! 2 cores it competes with compute: a store or codec change can show in
//! `step.ms_p50` as well as in `ckpt.*`, so read the two together.

use std::time::Instant;

use apgas::prelude::*;
use gml_apps::{
    reference, Gnmf, GnmfConfig, LinReg, LinRegConfig, PageRank, PageRankConfig, ResilientGnmf,
    ResilientLinReg, ResilientPageRank,
};
use gml_core::{
    AppResilientStore, ExecutorConfig, FailureInjector, ResilientExecutor, ResilientIterativeApp,
    RestoreMode,
};

use crate::kernels;
use crate::probe::{process_cpu_ns, write_spans, DigestedPageRank, Probe};
use crate::stats::{median, Record};

/// Which app a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// `ResilientLinReg`.
    LinReg,
    /// `ResilientGnmf`.
    Gnmf,
    /// `ResilientPageRank` with a rank digest.
    PageRank,
}

/// Problem size of one workload. Fields the app does not use are ignored.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Active places.
    pub places: usize,
    /// Examples / rows / nodes per place.
    pub rows_per_place: usize,
    /// Features (LinReg) or columns of `V` (GNMF).
    pub cols: usize,
    /// Factorisation rank (GNMF).
    pub rank: usize,
    /// Non-zeros per row (GNMF) or out-degree (PageRank).
    pub nnz_per_row: usize,
    /// Iterations; at its measured size every workload makes at least 100
    /// executor passes, so at least 10 pass samples lie beyond p90.
    pub iterations: u64,
    /// Iteration at whose start place 1 is killed, if any.
    pub kill_at: Option<u64>,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The app it runs.
    pub app: App,
    /// Spare places started up front.
    pub spares: usize,
    /// Checkpoint every this many iterations.
    pub ckpt_interval: u64,
    /// The measured size.
    pub full: Sizes,
    /// The smoke-test size.
    pub tiny: Sizes,
}

impl Sizes {
    /// Restores a correct run performs.
    pub fn expected_restores(&self) -> u64 {
        u64::from(self.kill_at.is_some())
    }
}

/// The victim of the injected failure.
const VICTIM: u32 = 1;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "linreg-ctl",
        why: "LinReg CG: many finish blocks per iteration, so resilient-finish control \
              traffic and gemv do the work; store, codec and restore are bypassed",
        app: App::LinReg,
        spares: 0,
        ckpt_interval: 20,
        // CG drives the residual norm² of this well-conditioned problem to
        // exactly 0 after 115-118 iterations (70-78 at the tiny size) on
        // every seed tried, and `LinReg::iterate_once` does not stop there:
        // two iterations later it computes beta = 0/0 and the weights turn
        // NaN, where `reference::linreg_cg` stops. The iteration counts
        // keep every run short of that point.
        full: Sizes {
            places: 2,
            rows_per_place: 20_000,
            cols: 100,
            rank: 0,
            nnz_per_row: 0,
            iterations: 100,
            kill_at: None,
        },
        tiny: Sizes {
            places: 2,
            rows_per_place: 200,
            cols: 10,
            rank: 0,
            nnz_per_row: 0,
            iterations: 50,
            kill_at: None,
        },
    },
    Workload {
        name: "gnmf-ckpt",
        why: "GNMF checkpointing every iteration with W fully rewritten: the store's write \
              path (capture, digest, codec, ship) with almost every chunk dirty",
        app: App::Gnmf,
        spares: 0,
        ckpt_interval: 1,
        full: Sizes {
            places: 2,
            rows_per_place: 10_000,
            cols: 200,
            rank: 16,
            nnz_per_row: 10,
            iterations: 100,
            kill_at: None,
        },
        tiny: Sizes {
            places: 2,
            rows_per_place: 100,
            cols: 20,
            rank: 4,
            nnz_per_row: 3,
            iterations: 100,
            kill_at: None,
        },
    },
    Workload {
        name: "pagerank-restore",
        why: "PageRank killing place 1 mid-run and restoring onto a spare: the store's read \
              path, rollback re-execution and silent-error detection, plus spmv",
        app: App::PageRank,
        spares: 1,
        ckpt_interval: 10,
        full: Sizes {
            places: 2,
            rows_per_place: 50_000,
            cols: 0,
            rank: 0,
            nnz_per_row: 16,
            iterations: 200,
            kill_at: Some(105),
        },
        tiny: Sizes {
            places: 2,
            rows_per_place: 300,
            cols: 0,
            rank: 0,
            nnz_per_row: 4,
            iterations: 110,
            kill_at: Some(55),
        },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn linreg_cfg(s: &Sizes, seed: u64) -> LinRegConfig {
    LinRegConfig {
        examples_per_place: s.rows_per_place,
        features: s.cols,
        iterations: s.iterations,
        lambda: 1e-6,
        seed,
    }
}

fn gnmf_cfg(s: &Sizes, seed: u64) -> GnmfConfig {
    GnmfConfig {
        rows_per_place: s.rows_per_place,
        cols: s.cols,
        rank: s.rank,
        nnz_per_row: s.nnz_per_row,
        iterations: s.iterations,
        eps: 1e-9,
        seed,
    }
}

fn pagerank_cfg(s: &Sizes, seed: u64) -> PageRankConfig {
    PageRankConfig {
        nodes_per_place: s.rows_per_place,
        out_degree: s.nnz_per_row,
        iterations: s.iterations,
        alpha: 0.85,
        seed,
    }
}

/// Hex form of a digest (text fields carry it exactly).
fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Stamp the compute pool width the runtime resolved.
fn stamp_pool(rec: &mut Record) {
    rec.set("stamp.pool_width", apgas::pool::workers() as f64);
}

/// One resilient run: start the runtime, make the app and store, run the
/// executor, and record what the probe and the counters saw, with the
/// host-speed calibration timed around it (see [`crate::calib`]). The output
/// the run produced is recorded outside the timed region, for the parent
/// to check against the reference.
pub fn run_rep(w: &Workload, sizes: &Sizes, seed: u64, run: u64, traced: bool) -> Record {
    let calib_before = crate::calib::host_cpu_s();
    let t0 = (Instant::now(), process_cpu_ns());
    let cfg = RuntimeConfig::new(sizes.places)
        .spares(w.spares)
        .resilient(true)
        .trace(false);
    let rt = Runtime::new(cfg);
    let (w, sizes) = (*w, *sizes);
    let out = rt.exec(move |ctx| -> Result<Record, String> {
        let world = ctx.world();
        let e = |e: gml_core::GmlError| e.to_string();
        match w.app {
            App::LinReg => {
                let app =
                    ResilientLinReg::make(ctx, linreg_cfg(&sizes, seed), &world).map_err(e)?;
                let (mut rec, probe) = execute(ctx, &w, &sizes, app, t0, run, traced)?;
                let weights = probe.inner.app.weights(ctx).map_err(e)?;
                rec.set_list("out.weights", weights.into_vec());
                Ok(rec)
            }
            App::Gnmf => {
                let app = ResilientGnmf::make(ctx, gnmf_cfg(&sizes, seed), &world).map_err(e)?;
                let (mut rec, probe) = execute(ctx, &w, &sizes, app, t0, run, traced)?;
                rec.set("out.objective", probe.inner.app.objective(ctx).map_err(e)?);
                Ok(rec)
            }
            App::PageRank => {
                let pr =
                    ResilientPageRank::make(ctx, pagerank_cfg(&sizes, seed), &world).map_err(e)?;
                let kill_at = sizes.kill_at.unwrap_or(u64::MAX);
                let app = FailureInjector::new(DigestedPageRank(pr), kill_at, Place::new(VICTIM));
                let (mut rec, probe) = execute(ctx, &w, &sizes, app, t0, run, traced)?;
                let ranks = probe.inner.app.0.app.ranks(ctx).map_err(e)?;
                rec.set_text("out.digest", hex(fnv1a_f64s(ranks.as_slice())));
                Ok(rec)
            }
        }
    });
    rt.shutdown();
    let calib_after = crate::calib::host_cpu_s();
    match out {
        Ok(Ok(mut rec)) => {
            rec.set("calib_cpu_s", (calib_before + calib_after) / 2.0);
            rec
        }
        Ok(Err(msg)) => error_record(msg),
        Err(e) => error_record(format!("runtime: {e}")),
    }
}

fn error_record(msg: String) -> Record {
    let mut rec = Record::default();
    rec.set_text("error", msg);
    rec
}

/// Run `app` under the executor and record the end-to-end numbers, and
/// with `traced` the per-layer ones. `t0` is when set-up began, as a wall
/// instant and as process CPU nanoseconds.
fn execute<A: ResilientIterativeApp>(
    ctx: &Ctx,
    w: &Workload,
    sizes: &Sizes,
    app: A,
    t0: (Instant, u64),
    run: u64,
    traced: bool,
) -> Result<(Record, Probe<A>), String> {
    let mut store = AppResilientStore::make(ctx).map_err(|e| e.to_string())?;
    let setup_wall_s = t0.0.elapsed().as_secs_f64();
    let setup_cpu_s = (process_cpu_ns() - t0.1) as f64 / 1e9;
    let mut probe = Probe::new(app, run, traced);
    let exec = ResilientExecutor::new(ExecutorConfig::new(
        w.ckpt_interval,
        RestoreMode::ReplaceRedundant,
    ));
    let world = ctx.world();
    let (start, start_cpu) = (Instant::now(), process_cpu_ns());
    let result = exec.run_reported(ctx, &mut probe, &world, &mut store);
    let run_s = start.elapsed().as_secs_f64();
    let run_cpu_s = (process_cpu_ns() - start_cpu) as f64 / 1e9;
    probe.rec.get_mut().finish();
    let peak_heap = apgas::mem::heap_peak_bytes();
    let (group, stats, report) = result.map_err(|e| format!("executor: {e}"))?;

    let mut r = Record::default();
    stamp_pool(&mut r);
    let codec = store.store().codec_config();
    r.set_text(
        "stamp.codec",
        format!(
            "{}/level{}/chunk{}",
            codec.mode_label(),
            codec.level,
            codec.chunk
        ),
    );
    r.set("setup_cpu_s", setup_cpu_s);
    r.set("setup_wall_s", setup_wall_s);
    r.set("run_s", run_s);
    r.set("run_cpu_s", run_cpu_s);
    r.set("peak_heap_mb", peak_heap as f64 / (1u64 << 20) as f64);
    let rec = probe.rec.borrow();
    r.set_list("iter_ms", rec.pass_ms());
    r.set_list("iter_cpu_ms", rec.pass_cpu_ms());
    r.set_list("restore_s", rec.restore_latency_s.clone());
    r.set("check.restores", stats.restores as f64);
    r.set("check.group_len", group.len() as f64);
    r.set(
        "check.consistent",
        f64::from(u8::from(report.consistent_with_totals())),
    );
    r.set(
        "check.codec_consistent",
        f64::from(u8::from(report.codec_consistent())),
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    // The executor's own split of the run: what its phases do not cover.
    let covered = stats.step_time + stats.checkpoint_time + stats.detect_time + stats.restore_time;
    r.set(
        "unattributed_ms.executor",
        ms(stats.total_time.saturating_sub(covered)),
    );
    if traced {
        layer_metrics(&mut r, &rec, sizes, &stats, &report);
        let path = crate::out_dir()
            .join("spans")
            .join(format!("{}-run{run}.json", w.name));
        if let Err(e) = write_spans(&path, &rec.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    drop(rec);
    Ok((r, probe))
}

/// The per-layer metrics of one traced run.
fn layer_metrics(
    r: &mut Record,
    rec: &crate::probe::Recorder,
    sizes: &Sizes,
    stats: &gml_core::RunStats,
    report: &gml_core::CostReport,
) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    r.set(
        "step.ms_p50",
        median(&rec.durations_ms("step")).unwrap_or(0.0),
    );
    r.set("step.self_ms", rec.self_ms("step"));
    // Counts per executor pass that stepped without recovering: a pass
    // that also checkpointed carries its checkpoint's traffic, which is
    // every pass of `gnmf-ckpt` and one in `ckpt_interval` elsewhere.
    let step_rows: Vec<_> = report
        .rows
        .iter()
        .filter(|row| row.restore.is_none() && !row.step.is_zero())
        .collect();
    let per_row = |f: &dyn Fn(&gml_core::IterRow) -> u64| {
        median(
            &step_rows
                .iter()
                .map(|row| f(row) as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    r.set("finish.ctl_per_iter", per_row(&|row| row.delta.ctl_total()));
    r.set(
        "finish.tasks_per_iter",
        per_row(&|row| row.delta.tasks_spawned),
    );
    let t = &report.totals;
    r.set("serial.encode_ms", t.encode_nanos as f64 / 1e6);
    r.set("serial.decode_ms", t.decode_nanos as f64 / 1e6);
    r.set("serial.bytes_shipped", t.bytes_shipped as f64);
    r.set("serial.bytes_received", t.bytes_received as f64);
    r.set(
        "ckpt.ms_p50",
        median(&rec.durations_ms("checkpoint")).unwrap_or(0.0),
    );
    r.set("ckpt.self_ms", rec.self_ms("checkpoint"));
    r.set("ckpt.capture_ms", ms(stats.capture_time));
    r.set("ckpt.ship_ms", ms(stats.ship_time));
    r.set("ckpt.count", stats.checkpoints as f64);
    let c = &report.codec_totals;
    r.set("codec.ms", (c.encode_nanos + c.decode_nanos) as f64 / 1e6);
    r.set("codec.logical_bytes", c.logical_bytes as f64);
    r.set("codec.wire_bytes", c.wire_bytes as f64);
    r.set("codec.wire_ratio", c.compression_ratio());
    r.set("detect.ms", sum(rec.durations_ms("detect")));
    r.set("detect.calls", rec.detect_calls as f64);
    r.set("restore.ms", sum(rec.durations_ms("restore")));
    r.set("restore.bytes_received", rec.restore_bytes_received as f64);
    r.set(
        "restore.reexec_iters",
        stats.iterations_run.saturating_sub(sizes.iterations) as f64,
    );
    r.set(
        "mem.store_peak_bytes",
        apgas::mem::high_water(MemTag::StoreShard) as f64,
    );
    r.set("unattributed_ms", rec.self_ms("run"));
}

/// The failure-free, non-resilient reference run of the same inputs: its
/// output is what every resilient run must reproduce, its step times pair
/// with the resilient ones (`finish.overhead_ms_per_iter`), and with
/// `probe` the kernel probe runs afterwards at the same pool width.
pub fn run_reference(w: &Workload, sizes: &Sizes, seed: u64, probe: bool) -> Record {
    let rt = Runtime::new(
        RuntimeConfig::new(sizes.places)
            .resilient(false)
            .trace(false),
    );
    let (w, sizes) = (*w, *sizes);
    let out = rt.exec(move |ctx| -> Result<Record, String> {
        let world = ctx.world();
        let e = |e: gml_core::GmlError| e.to_string();
        let mut rec = Record::default();
        let times = match w.app {
            App::LinReg => {
                let cfg = linreg_cfg(&sizes, seed);
                let (_, times) = LinReg::run_simple(ctx, cfg, &world).map_err(e)?;
                // The sequential CG twin on the whole training set.
                let m = sizes.rows_per_place * sizes.places;
                let (x, w_star) = reference::training_matrix(m, cfg.features, seed);
                let y = x.mult_vec(&w_star);
                let expect = reference::linreg_cg(&x, &y, cfg.lambda, cfg.iterations as usize);
                rec.set_list("ref.weights", expect.into_vec());
                times
            }
            App::Gnmf => {
                let (objective, times) =
                    Gnmf::run_simple(ctx, gnmf_cfg(&sizes, seed), &world).map_err(e)?;
                rec.set("ref.objective", objective);
                times
            }
            App::PageRank => {
                let (ranks, times) =
                    PageRank::run_simple(ctx, pagerank_cfg(&sizes, seed), &world).map_err(e)?;
                rec.set_text("ref.digest", hex(fnv1a_f64s(ranks.as_slice())));
                times
            }
        };
        rec.set_list(
            "nonres.step_ms",
            times.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
        );
        stamp_pool(&mut rec);
        Ok(rec)
    });
    rt.shutdown();
    let mut rec = match out {
        Ok(Ok(rec)) => rec,
        Ok(Err(msg)) => return error_record(msg),
        Err(e) => return error_record(format!("runtime: {e}")),
    };
    if probe {
        let budget_s = 1.0;
        let k = match w.app {
            App::LinReg => kernels::linreg(&sizes, seed, budget_s),
            App::Gnmf => kernels::gnmf(&sizes, seed, budget_s),
            App::PageRank => kernels::pagerank(&sizes, seed, budget_s),
        };
        rec.set("kernel.ms_per_iter", k.ms_per_iter);
        rec.set("kernel.flops_per_iter", k.cost.flops);
        rec.set("kernel.bytes_per_iter", k.cost.bytes);
        rec.set("kernel.samples", k.samples as f64);
    }
    rec
}
