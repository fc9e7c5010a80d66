//! The `perfbench` command line; see the library documentation for what
//! it measures and how.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use perfbench::stats::{json_num, json_str, median, quantile, Record};
use perfbench::workloads::{self, Sizes, Workload};
use perfbench::{calib, check_run, out_dir, END_TO_END, PER_LAYER, RUN_FIGURES};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    child: Option<String>,
    run: u64,
    traced: bool,
    probe: bool,
}

const USAGE: &str = "usage: perfbench --workload <linreg-ctl|gnmf-ckpt|pagerank-restore> \
                     --seed <n> --seconds <n> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut child, mut run, mut traced, mut probe) = (false, None, 0, false, false);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(workloads::find(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--child" => child = Some(value()?),
            "--run" => run = value()?.parse().map_err(|e| format!("--run: {e}"))?,
            "--traced" => traced = true,
            "--probe" => probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if child.is_none() && (seconds.is_none() || trace.is_none()) {
        return Err("--seconds and --trace are required".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        tiny,
        child,
        run,
        traced,
        probe,
    })
}

/// Pinned configuration: no inherited `GML_*` setting (codec, pool width,
/// task policy, tracing, monitor, forensics) may change a workload, so
/// every one is cleared before any runtime starts. Children inherit the
/// cleared environment.
fn clear_gml_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GML_"))
        .collect();
    for k in names {
        eprintln!("perfbench: clearing inherited {}", k.to_string_lossy());
        std::env::remove_var(&k);
    }
}

/// The commit the benchmark was built from, when the source tree is a git
/// checkout; `unknown` otherwise.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(git.join(reference)) {
        return id;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    clear_gml_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.tiny {
        args.workload.tiny
    } else {
        args.workload.full
    };
    match args.child.as_deref() {
        Some("rep") => {
            let rec = workloads::run_rep(args.workload, &sizes, args.seed, args.run, args.traced);
            print!("{}", rec.render());
            ExitCode::SUCCESS
        }
        Some("ref") => {
            print!(
                "{}",
                workloads::run_reference(args.workload, &sizes, args.seed, args.probe).render()
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("perfbench: unknown child role {other:?}");
            ExitCode::from(2)
        }
        None => measure(&args, &sizes),
    }
}

/// Run one child process and parse its record.
fn child(args: &Args, role: &str, extra: &[String]) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role, "--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("spawn {role}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{role} child exited with {}", out.status));
    }
    let rec = Record::parse(&String::from_utf8_lossy(&out.stdout))?;
    match rec.text("error") {
        Some(e) => Err(e.to_string()),
        None => Ok(rec),
    }
}

/// One figure over the untraced runs of a measurement: the median over
/// runs, with its sample count.
///
/// The gated timings (`run_norm_s`, `iter_norm_ms_p50`, `setup_s`) are CPU
/// times scaled by each run's host-speed factor (see [`calib`]): on a
/// shared host the neighbours slow every instruction for minutes at a
/// time, and the factor takes much of that out. Wall-clock times, raw CPU times
/// and pass-time tails are printed beside them, ungated.
fn summarize(untraced: &[&Run], name: &str) -> (f64, usize) {
    let (key, q, scaled) = match name {
        "run_norm_s" => ("run_cpu_s", None, true),
        "iter_norm_ms_p50" => ("iter_cpu_ms", Some(0.5), true),
        "setup_s" => ("setup_cpu_s", None, true),
        "iter_ms_p50" => ("iter_ms", Some(0.5), false),
        "iter_ms_p90" => ("iter_ms", Some(0.9), false),
        "iter_cpu_ms_p50" => ("iter_cpu_ms", Some(0.5), false),
        "iter_cpu_ms_p90" => ("iter_cpu_ms", Some(0.9), false),
        _ => (name, None, false),
    };
    let per_run: Vec<f64> = untraced
        .iter()
        .filter_map(|r| {
            let v = match q {
                Some(q) => quantile(r.rec.list(key), q),
                None => r.rec.get(key),
            }?;
            Some(if scaled {
                v * calib::speed_factor(r.rec.get("calib_cpu_s")?)
            } else {
                v
            })
        })
        .collect();
    let n = match q {
        Some(_) => untraced.iter().map(|r| r.rec.list(key).len()).sum(),
        None => per_run.len(),
    };
    (median(&per_run).unwrap_or(0.0), n)
}

/// One resilient run that finished: its timings count whatever its output
/// check says, and a failed check counts the run as failed.
struct Run {
    traced: bool,
    wall_s: f64,
    rec: Record,
    /// What the output check matched, or why it failed.
    check: Result<String, String>,
}

/// The parent process: reference, timed runs, checks, aggregation, report.
fn measure(args: &Args, sizes: &Sizes) -> ExitCode {
    let w = args.workload;
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let probe_flag: Vec<String> = if args.trace {
        vec!["--probe".into()]
    } else {
        vec![]
    };
    // Traced runs each write `spans/<workload>-run<k>.json`; drop the files
    // an earlier measurement of this workload left, so the directory holds
    // this measurement's spans only.
    if args.trace {
        let prefix = format!("{}-run", w.name);
        if let Ok(entries) = std::fs::read_dir(out_dir().join("spans")) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().starts_with(&prefix) {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }
    let reference = match child(args, "ref", &probe_flag) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Timed runs until the budget is used up; with --trace 1 traced and
    // untraced runs alternate, starting traced, at least one of each.
    let min_runs = if args.trace { 2 } else { 1 };
    let (mut runs, mut failures) = (Vec::<Run>::new(), Vec::<String>::new());
    let (start, mut longest) = (Instant::now(), 0.0f64);
    let mut attempted = 0u64;
    while attempted < min_runs || start.elapsed().as_secs_f64() + longest <= args.seconds {
        let traced = args.trace && attempted.is_multiple_of(2);
        let mut extra = vec!["--run".to_string(), attempted.to_string()];
        if traced {
            extra.push("--traced".into());
        }
        let t = Instant::now();
        let outcome = child(args, "rep", &extra);
        let wall_s = t.elapsed().as_secs_f64();
        longest = longest.max(wall_s);
        match outcome {
            Ok(rec) => {
                let check = check_run(w, sizes, &rec, &reference);
                if let Err(e) = &check {
                    eprintln!("perfbench: run {attempted} failed its output check: {e}");
                    failures.push(e.clone());
                }
                runs.push(Run {
                    traced,
                    wall_s,
                    rec,
                    check,
                });
            }
            Err(e) => {
                eprintln!("perfbench: run {attempted} failed: {e}");
                failures.push(e);
            }
        }
        attempted += 1;
    }

    let untraced: Vec<&Run> = runs.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Run> = runs.iter().filter(|r| r.traced).collect();
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!(
            "perfbench: no finished run to report ({} of {attempted} failed)",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    let med = |rs: &[&Run], key: &str| {
        median(&rs.iter().filter_map(|r| r.rec.get(key)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let restore_s: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.rec.list("restore_s").iter().copied())
        .collect();
    let n_untraced = untraced.len();

    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"places\": {}, \"spares\": {}, \"nproc\": {}, \
         \"pool_width\": {}, \"codec\": {}, \"commit\": {}, \"size\": {}, \"runs\": {}, \
         \"wall_s_per_run\": {}}}",
        json_str(w.name),
        args.seed,
        sizes.places,
        w.spares,
        nproc,
        med(&untraced, "stamp.pool_width"),
        json_str(untraced[0].rec.text("stamp.codec").unwrap_or("unknown")),
        json_str(&commit()),
        json_str(if args.tiny { "tiny" } else { "full" }),
        runs.len(),
        json_num(median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0)),
    );
    println!(
        "perfbench {} seed {} ({} places + {} spare, nproc {nproc})",
        w.name, args.seed, sizes.places, w.spares
    );
    println!("stamp {stamp}");
    println!("why: {}", w.why);
    for (i, r) in runs.iter().enumerate() {
        println!(
            "run {i:>2} {:<8} run_s {:.4}  run_cpu_s {:.4}  iter_cpu_ms_p50 {:.4}  \
             setup_cpu_s {:.4}  setup_wall_s {:.4}  calib_cpu_s {:.4}  \
             unattributed_ms(executor) {:.3}{}  check: {}",
            if r.traced { "traced" } else { "untraced" },
            r.rec.get("run_s").unwrap_or(0.0),
            r.rec.get("run_cpu_s").unwrap_or(0.0),
            quantile(r.rec.list("iter_cpu_ms"), 0.5).unwrap_or(0.0),
            r.rec.get("setup_cpu_s").unwrap_or(0.0),
            r.rec.get("setup_wall_s").unwrap_or(0.0),
            r.rec.get("calib_cpu_s").unwrap_or(0.0),
            r.rec.get("unattributed_ms.executor").unwrap_or(0.0),
            r.rec
                .get("unattributed_ms")
                .map(|u| format!("  unattributed_ms(spans) {u:.3}"))
                .unwrap_or_default(),
            match &r.check {
                Ok(detail) => detail.clone(),
                Err(e) => format!("FAILED: {e}"),
            },
        );
    }
    println!("failed/attempted: {}/{attempted}", failures.len());

    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    if !args.trace {
        println!("end-to-end (median over {n_untraced} runs; times host-speed scaled):");
        for (name, unit) in END_TO_END {
            let (v, n) = summarize(&untraced, name);
            println!("  {name:<16} {v:>12.4} {unit:<4} n={n}");
            metrics.push((name, unit, v, n));
        }
        println!("run figures (median over {n_untraced} runs; carried, ungated, per layer):");
        for (name, unit) in RUN_FIGURES {
            let (v, n) = summarize(&untraced, name);
            println!("  {name:<16} {v:>12.4} {unit:<4} n={n}");
        }
        // Only a workload that kills a place has a recovery to time.
        if let Some(v) = median(&restore_s) {
            println!(
                "  {:<16} {v:>12.4} {:<4} n={} (median; failure surfaced -> restore returned)",
                "restore_s",
                "s",
                restore_s.len()
            );
        }
    } else {
        let n_traced = traced.len();
        let step_p50 = med(&traced, "step.ms_p50");
        let kernel_ms = reference.get("kernel.ms_per_iter").unwrap_or(0.0);
        let flops = reference.get("kernel.flops_per_iter").unwrap_or(0.0);
        let bytes = reference.get("kernel.bytes_per_iter").unwrap_or(0.0);
        let kernel_n = reference.get("kernel.samples").unwrap_or(0.0) as usize;
        let nonres = reference.list("nonres.step_ms");
        for (name, unit) in PER_LAYER {
            let (v, n) = match name {
                "kernel.ms_per_iter" => (kernel_ms, kernel_n),
                "kernel.flops_per_iter" => (flops, 1),
                "kernel.bytes_per_iter" => (bytes, 1),
                "kernel.flops_per_byte" => (if bytes > 0.0 { flops / bytes } else { 0.0 }, 1),
                "kernel.share_of_step" => (
                    if step_p50 > 0.0 {
                        kernel_ms / step_p50
                    } else {
                        0.0
                    },
                    n_traced,
                ),
                "finish.overhead_ms_per_iter" => {
                    (step_p50 - median(nonres).unwrap_or(0.0), nonres.len())
                }
                "restore_s" => (median(&restore_s).unwrap_or(0.0), restore_s.len()),
                "trace.overhead_s" => (
                    med(&traced, "run_s") - med(&untraced, "run_s"),
                    n_traced + n_untraced,
                ),
                _ if RUN_FIGURES.iter().any(|(w, _)| *w == name) => {
                    let (v, n) = summarize(&untraced, name);
                    (v, n)
                }
                _ => (med(&traced, name), n_traced),
            };
            metrics.push((name, unit, v, n));
        }
        println!("per-layer (median over traced runs; kernel counts are computed):");
        for (name, unit, v, n) in &metrics {
            println!("  {name:<28} {v:>16.4} {unit:<13} n={n}");
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v, _)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
    let path = out_dir().join(format!("{}-trace{}.json", w.name, u8::from(args.trace)));
    let saved = std::fs::create_dir_all(out_dir()).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"stamp\": {stamp}, \"result\": {result}}}\n"),
        )
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
