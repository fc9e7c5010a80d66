//! The benchmark's view into an executor run, taken from outside the
//! program: [`Probe`] wraps the application and times every call the
//! executor makes into it (`step`, `checkpoint`, `restore` and the
//! silent-error screen's `output_digest`).
//!
//! Untraced, the probe only notes when each `step` starts (the executor
//! pass boundaries behind `iter_ms_*`) and when a failure surfaced and its
//! restore returned (`restore_s`). Traced, it also records one [`Span`]
//! per call and the runtime counters around each `restore`. Spans stay in
//! memory and are written out when the run ends.

use std::cell::RefCell;
use std::time::Instant;

use apgas::prelude::*;
use gml_apps::ResilientPageRank;
use gml_core::{AppResilientStore, ChecksummedStep, GmlResult, ResilientIterativeApp};

/// CPU time (user + system) consumed so far by every thread of this
/// process, in nanoseconds. Unlike wall time it does not grow while the
/// hypervisor runs another tenant on this vCPU (steal) or while a thread
/// waits, so it tracks the work a run does rather than the host's load.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked at compile time below) that
    // `clock_gettime` only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time with clock_gettime on 64-bit Linux");

/// One timed interval. Spans of one executor run share `run`; `parent` is
/// the index of the enclosing span in the run's span list (the root span
/// is its own parent).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was timed: `run`, `step`, `checkpoint`, `restore` or `detect`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: usize,
    /// The run this span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Index of the root `run` span; every probe span is its child.
pub const ROOT: usize = 0;

/// What the probe saw during one executor run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: u64,
    traced: bool,
    /// Start of every `step` call, in nanoseconds since `origin`.
    pub step_starts: Vec<u64>,
    /// Process CPU time at the start of every `step` call, in nanoseconds.
    pub step_cpu: Vec<u64>,
    /// Spans (traced only); `spans[ROOT]` is the whole run.
    pub spans: Vec<Span>,
    /// When the last failure surfaced (a `step` or `checkpoint` error).
    failed_at: Option<Instant>,
    /// Failure surfaced → `restore` returned, in seconds, per restore.
    pub restore_latency_s: Vec<f64>,
    /// Bytes received by places while inside `restore` (traced only).
    pub restore_bytes_received: u64,
    /// Calls to `output_digest`.
    pub detect_calls: u64,
}

impl Recorder {
    fn new(run: u64, traced: bool) -> Self {
        let origin = Instant::now();
        let spans = if traced {
            vec![Span {
                name: "run",
                start_ns: 0,
                end_ns: 0,
                parent: ROOT,
                run,
            }]
        } else {
            Vec::new()
        };
        Recorder {
            origin,
            run,
            traced,
            step_starts: Vec::with_capacity(1024),
            step_cpu: Vec::with_capacity(1024),
            spans,
            failed_at: None,
            restore_latency_s: Vec::new(),
            restore_bytes_received: 0,
            detect_calls: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, start_ns: u64) {
        if self.traced {
            let end_ns = self.now_ns();
            let run = self.run;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: ROOT,
                run,
            });
        }
    }

    /// Close the root span: called once the executor returned.
    pub fn finish(&mut self) {
        if self.traced {
            self.spans[ROOT].end_ns = self.now_ns();
        }
    }

    /// Executor pass intervals: the time between successive `step` starts,
    /// in milliseconds.
    pub fn pass_ms(&self) -> Vec<f64> {
        self.step_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }

    /// Process CPU time of each executor pass, in milliseconds.
    pub fn pass_cpu_ms(&self) -> Vec<f64> {
        self.step_cpu
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span named `name`, summed, in milliseconds: each
    /// span's duration minus what its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if i != ROOT {
                child_ns[s.parent] += s.dur_ns();
            }
        }
        let total: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .sum();
        total as f64 / 1e6
    }
}

/// Wraps an application and records what the executor asks of it.
pub struct Probe<A> {
    /// The wrapped application.
    pub inner: A,
    /// What was recorded (interior mutability: `output_digest` takes
    /// `&self`).
    pub rec: RefCell<Recorder>,
}

impl<A> Probe<A> {
    /// Wrap `inner` for run `run`; `traced` turns spans on.
    pub fn new(inner: A, run: u64, traced: bool) -> Self {
        Probe {
            inner,
            rec: RefCell::new(Recorder::new(run, traced)),
        }
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for Probe<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.inner.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        let start = {
            let mut rec = self.rec.borrow_mut();
            let t = rec.now_ns();
            rec.step_starts.push(t);
            rec.step_cpu.push(process_cpu_ns());
            t
        };
        let result = self.inner.step(ctx, iteration);
        let mut rec = self.rec.borrow_mut();
        rec.span("step", start);
        if result.is_err() {
            rec.failed_at = Some(Instant::now());
        }
        result
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        let start = self.rec.borrow().now_ns();
        let result = self.inner.checkpoint(ctx, store);
        let mut rec = self.rec.borrow_mut();
        rec.span("checkpoint", start);
        if result.is_err() {
            rec.failed_at = Some(Instant::now());
        }
        result
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        let traced = self.rec.borrow().traced;
        let before = traced.then(|| ctx.stats());
        let start = self.rec.borrow().now_ns();
        let result = self
            .inner
            .restore(ctx, new_places, store, snapshot_iteration, rebalance);
        let mut rec = self.rec.borrow_mut();
        if let Some(failed) = rec.failed_at.take() {
            rec.restore_latency_s.push(failed.elapsed().as_secs_f64());
        }
        rec.span("restore", start);
        if let Some(before) = before {
            rec.restore_bytes_received += ctx.stats().since(&before).bytes_received;
        }
        result
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        self.inner
            .as_checksummed()
            .map(|_| self as &dyn ChecksummedStep)
    }
}

impl<A: ResilientIterativeApp> ChecksummedStep for Probe<A> {
    fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
        let start = self.rec.borrow().now_ns();
        let inner = self
            .inner
            .as_checksummed()
            .expect("the executor screens only apps that opted in");
        let result = inner.output_digest(ctx);
        let mut rec = self.rec.borrow_mut();
        rec.detect_calls += 1;
        rec.span("detect", start);
        result
    }
}

/// PageRank opted into the executor's silent-error screen with a digest
/// of the rank vector, as `examples/resilient_pagerank.rs` does.
pub struct DigestedPageRank(pub ResilientPageRank);

impl ResilientIterativeApp for DigestedPageRank {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.0.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        self.0.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.0.checkpoint(ctx, store)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.0
            .restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        Some(self)
    }
}

impl ChecksummedStep for DigestedPageRank {
    fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
        Ok(fnv1a_f64s(self.0.app.ranks(ctx)?.as_slice()))
    }
}

/// Write a run's spans as one JSON array to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.name, s.run, s.start_ns, s.end_ns, s.parent
        );
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
