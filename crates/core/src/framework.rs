//! The resilient iterative-application framework (§V of the paper):
//! the programming model ([`ResilientIterativeApp`]) and the executor
//! ([`ResilientExecutor`]) with its restoration modes.
//!
//! The executor applies **coordinated checkpoint/restart** in the shape of
//! X10's `SPMDResilientIterativeExecutor` loop (`isFinished` / `step` /
//! checkpoint / `restore`). Until the app is finished, each loop pass runs
//! one fallible phase sequence: verify the recorded output digest,
//! checkpoint (every `checkpoint_interval` iterations, or Young's
//! interval), step, record the new digest. A recoverable [`GmlError`] from
//! any phase — a place death, or a detected silent error — reaches one
//! `match` that recovers: pick a new place group according to the
//! configured [`RestoreMode`], roll the application back to the last
//! committed snapshot, and resume from that iteration. Each phase's wall
//! time is read once and charged to the pass's [`IterRow`] and the run's
//! [`RunStats`] together.

use std::time::{Duration, Instant};

use apgas::prelude::*;
use apgas::stats::StatsSnapshot;
use apgas::trace::critical_path;

use crate::app_store::AppResilientStore;
use crate::codec::CodecSnapshot;
use crate::error::{GmlError, GmlResult};
use crate::forensics::{PostMortem, RestoreDecision};
use crate::report::{CostReport, IterRow, RestoreCost};

/// How the application adapts to the loss of places (§V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreMode {
    /// Continue on the surviving places, keeping the same data grid
    /// (block-by-block restore, possible load imbalance).
    Shrink,
    /// Continue on the surviving places, repartitioning the data grid for
    /// even load (overlap-copy restore, higher restore cost).
    ShrinkRebalance,
    /// Substitute a pre-allocated spare place for each failed one, keeping
    /// both the group size and the load distribution. Falls back to plain
    /// shrink when the spares run out.
    ReplaceRedundant,
    /// Dynamically create a brand-new place for each failed one (the
    /// paper's planned fourth mode, built on Elastic X10's dynamic place
    /// creation). Keeps group size and load distribution like
    /// replace-redundant, but without idling spare resources up-front.
    ReplaceElastic,
}

impl RestoreMode {
    /// Stable snake_case label, used for trace span labels and reports.
    pub fn label(self) -> &'static str {
        match self {
            RestoreMode::Shrink => "shrink",
            RestoreMode::ShrinkRebalance => "shrink_rebalance",
            RestoreMode::ReplaceRedundant => "replace_redundant",
            RestoreMode::ReplaceElastic => "replace_elastic",
        }
    }
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Take a checkpoint whenever `iteration % checkpoint_interval == 0`
    /// (including iteration 0). `0` disables checkpointing — failures then
    /// become unrecoverable.
    pub checkpoint_interval: u64,
    /// The restoration mode.
    pub mode: RestoreMode,
    /// Give up after this many restores.
    pub max_restores: u32,
    /// When set, the executor *adapts* the checkpoint interval with Young's
    /// formula: after each checkpoint it recomputes
    /// `sqrt(2 · t_checkpoint · MTTF) / t_step` iterations from the measured
    /// mean checkpoint and step times (§V: "Young's formula may be used to
    /// determine the checkpointing interval"). `checkpoint_interval` then
    /// only seeds the first interval.
    pub mttf: Option<Duration>,
}

impl ExecutorConfig {
    /// Create a new instance.
    pub fn new(checkpoint_interval: u64, mode: RestoreMode) -> Self {
        ExecutorConfig {
            checkpoint_interval,
            mode,
            max_restores: 8,
            mttf: None,
        }
    }

    /// Enable Young's-formula adaptive checkpoint intervals for the given
    /// mean time to failure.
    pub fn with_mttf(mut self, mttf: Duration) -> Self {
        self.mttf = Some(mttf);
        self
    }
}

/// Young's first-order approximation of the optimal checkpoint interval:
/// `sqrt(2 * t_checkpoint * MTTF)` (in the same time unit as the inputs).
pub fn young_interval(checkpoint_time: f64, mttf: f64) -> f64 {
    (2.0 * checkpoint_time * mttf).sqrt()
}

/// Young's interval converted to a whole number of iterations using the
/// measured mean checkpoint and step times; keeps `current` until enough
/// measurements exist.
fn young_iterations(stats: &RunStats, mttf: Duration, current: u64) -> u64 {
    if stats.checkpoints == 0 || stats.iterations_run == 0 {
        return current;
    }
    let mean_ckpt = stats.checkpoint_time.as_secs_f64() / stats.checkpoints as f64;
    let mean_step = stats.step_time.as_secs_f64() / stats.iterations_run as f64;
    if mean_step <= 0.0 || mean_ckpt <= 0.0 {
        return current;
    }
    let opt_secs = young_interval(mean_ckpt, mttf.as_secs_f64());
    (opt_secs / mean_step).round().clamp(1.0, 1e12) as u64
}

/// What the application must implement (§V-A2): the four-method programming
/// model. `iteration` is maintained by the executor and rolls back on
/// restore.
pub trait ResilientIterativeApp {
    /// The termination condition (iteration count, convergence, ...).
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool;

    /// One iteration of the algorithm.
    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()>;

    /// Save all state-carrying GML objects:
    /// `start_new_snapshot` / `save*` / `commit` (Listing 5, lines 3–7).
    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()>;

    /// Roll back to the snapshot: `remake` every GML object over
    /// `new_places` (repartitioning if `rebalance`), then restore their
    /// contents from `store` (Listing 5, lines 9–14).
    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()>;

    /// Opt into executor-side silent-error detection: apps that also
    /// implement [`ChecksummedStep`] override this to `Some(self)`;
    /// injector wrappers forward to their inner app. The default (`None`)
    /// keeps verification — and its cost — entirely off.
    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        None
    }
}

/// The silent-error detection hook: an app that can digest its
/// state-carrying output lets the executor record the digest when `step`
/// produces the data and re-derive it just before the next checkpoint
/// `commit()`. A mismatch means the state mutated *between* compute and
/// commit — a bit flip, a divergent replica, a buggy in-place kernel — and
/// is treated exactly like a place death: the executor rolls back to the
/// last committed snapshot (effective mode `silent_error`) instead of
/// checkpointing the corrupted state.
pub trait ChecksummedStep {
    /// A digest of the application's current output state (e.g.
    /// [`apgas::fnv1a_f64s`] over the result vector). Must be a pure
    /// function of the data: same state, same digest.
    fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64>;
}

/// Wall-clock breakdown of one executor run — the raw material for the
/// paper's Table IV (checkpoint% / restore% of total time). Each duration
/// except `total_time` is the sum of the matching column of the run's
/// [`CostReport`] rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Completed iterations, counting re-executed ones after rollbacks.
    pub iterations_run: u64,
    /// Distinct checkpoints committed.
    pub checkpoints: u64,
    /// Restores performed.
    pub restores: u64,
    /// Wall time spent in `step`.
    pub step_time: Duration,
    /// Wall time spent checkpointing.
    pub checkpoint_time: Duration,
    /// Wall time of the checkpoints' `save` calls (serialize under the
    /// object locks, owner inserts and backup transfers), as accumulated by
    /// the app store.
    pub capture_time: Duration,
    /// Backup-transfer busy time summed over places: the run's
    /// `ckpt_ship_nanos` counter delta. Places ship concurrently, so this
    /// can exceed `capture_time`.
    pub ship_time: Duration,
    /// Wall time spent computing and comparing output digests for
    /// silent-error detection (zero when the app opted out of
    /// [`ChecksummedStep`]).
    pub detect_time: Duration,
    /// Wall time spent recovering: the sum of every [`RestoreCost::time`].
    pub restore_time: Duration,
    /// Wall time of the whole run.
    pub total_time: Duration,
}

impl RunStats {
    /// Checkpoint share of total time, in percent.
    pub fn checkpoint_pct(&self) -> f64 {
        100.0 * self.checkpoint_time.as_secs_f64() / self.total_time.as_secs_f64().max(1e-12)
    }

    /// Restore share of total time, in percent.
    pub fn restore_pct(&self) -> f64 {
        100.0 * self.restore_time.as_secs_f64() / self.total_time.as_secs_f64().max(1e-12)
    }
}

/// Runs a [`ResilientIterativeApp`] to completion, checkpointing and
/// restoring as needed (§V-A3).
pub struct ResilientExecutor {
    cfg: ExecutorConfig,
}

/// The executor's loop state: what every phase and `recover` read and
/// advance.
struct RunState {
    group: PlaceGroup,
    iteration: u64,
    restores_left: u32,
    /// The current checkpoint interval (Young's formula may adapt it).
    interval: u64,
    next_checkpoint: u64,
    /// Silent-error screen: the digest recorded the last time a step
    /// produced output, as `(iteration, digest)`. Verified just before the
    /// next checkpoint commits; `None` when the app opted out or the state
    /// was rolled back since.
    recorded: Option<(u64, u64)>,
    stats: RunStats,
    /// Rows and bundles so far; the totals are filled in at the end.
    report: CostReport,
    /// Counter snapshots at the last row boundary, shared with the next row
    /// so no counter tick is ever double-counted or lost.
    prev_snap: StatsSnapshot,
}

impl RunState {
    /// Finish a report row: charge it the counter deltas since the previous
    /// row boundary.
    fn close_row(&mut self, ctx: &Ctx, mut row: IterRow) {
        let now = ctx.stats();
        row.delta = now.since(&self.prev_snap);
        self.prev_snap = now;
        // Memory levels are read at the same boundary, so each row's level
        // is the next row's starting point. Both are 0 with `mem-profile`
        // off.
        row.resident = apgas::mem::heap_bytes();
        row.ckpt_bytes = apgas::mem::current(apgas::mem::MemTag::StoreShard);
        self.report.rows.push(row);
    }
}

/// Run one phase, reading its wall time once and charging it to the pass's
/// row column and the run's matching [`RunStats`] field together.
fn timed<T>(col: &mut Duration, total: &mut Duration, phase: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = phase();
    charge(col, total, t.elapsed());
    out
}

fn charge(col: &mut Duration, total: &mut Duration, d: Duration) {
    *col += d;
    *total += d;
}

impl ResilientExecutor {
    /// Create a new instance.
    pub fn new(cfg: ExecutorConfig) -> Self {
        ResilientExecutor { cfg }
    }

    /// Execute `app` starting on `initial_places`. Returns the final place
    /// group (it may have shrunk or had spares substituted) and the timing
    /// breakdown.
    pub fn run<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        initial_places: &PlaceGroup,
        store: &mut AppResilientStore,
    ) -> GmlResult<(PlaceGroup, RunStats)> {
        let (group, stats, _) = self.run_reported(ctx, app, initial_places, store)?;
        Ok((group, stats))
    }

    /// Like [`run`](Self::run), but also returns the per-iteration
    /// [`CostReport`]: one row per executor loop pass with wall time spent
    /// in step / checkpoint / restore and the runtime counter deltas (ctl
    /// messages, codec time, bytes shipped and received) that pass consumed.
    /// Row boundary snapshots are shared, so the rows sum to exactly the
    /// report's totals, and each timed column sums to exactly its
    /// [`RunStats`] field.
    pub fn run_reported<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        initial_places: &PlaceGroup,
        store: &mut AppResilientStore,
    ) -> GmlResult<(PlaceGroup, RunStats, CostReport)> {
        let start = Instant::now();
        let first_snap = ctx.stats();
        let mut st = RunState {
            group: initial_places.clone(),
            iteration: 0,
            restores_left: self.cfg.max_restores,
            interval: self.cfg.checkpoint_interval,
            next_checkpoint: 0,
            recorded: None,
            stats: RunStats::default(),
            report: CostReport::default(),
            prev_snap: first_snap,
        };

        while !app.is_finished(ctx, st.iteration) {
            let mut row = IterRow { iteration: st.iteration, ..Default::default() };
            if let Err(e) = self.pass(ctx, app, store, &mut st, &mut row) {
                // Abort a half-taken snapshot (a no-op unless the checkpoint
                // phase failed).
                store.cancel_snapshot(ctx);
                if !e.is_recoverable() {
                    return Err(e);
                }
                row.restore = Some(self.recover(ctx, app, store, &mut st, &e)?);
            }
            st.close_row(ctx, row);
        }
        st.stats.total_time = start.elapsed();
        st.report.totals = st.prev_snap.since(&first_snap);
        st.stats.ship_time = Duration::from_nanos(st.report.totals.ckpt_ship_nanos);
        st.report.codec_totals = CodecSnapshot::from(&st.report.totals);
        Ok((st.group, st.stats, st.report))
    }

    /// One loop pass: verify digest → checkpoint → step → record digest.
    /// The first error from any phase ends the pass; the caller owns
    /// recovery.
    fn pass<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        store: &mut AppResilientStore,
        st: &mut RunState,
        row: &mut IterRow,
    ) -> GmlResult<()> {
        let it = st.iteration;
        // Periodic coordinated checkpoint (also re-taken right after a
        // restore, re-establishing full snapshot redundancy).
        if st.interval > 0 && it >= st.next_checkpoint {
            // Re-derive the output digest recorded when the step produced
            // the data. A mismatch means the state mutated between compute
            // and commit; rather than checkpoint the corrupted state, roll
            // back to the last *committed* snapshot as if a place had died.
            if let (Some(cs), Some((rec_iter, expected))) = (app.as_checksummed(), st.recorded)
            {
                let detect = row.detect.get_or_insert_default();
                let observed = timed(detect, &mut st.stats.detect_time, || cs.output_digest(ctx))?;
                if observed != expected {
                    return Err(GmlError::SilentError { iteration: rec_iter, expected, observed });
                }
            }
            store.set_current_iteration(it);
            let ckpt = row.checkpoint.get_or_insert_default();
            let result = timed(ckpt, &mut st.stats.checkpoint_time, || {
                let _span = ctx.trace_span(SpanKind::Checkpoint, it);
                app.checkpoint(ctx, store)
            });
            let capture = store.take_capture_time();
            if capture > Duration::ZERO {
                charge(row.capture.get_or_insert_default(), &mut st.stats.capture_time, capture);
            }
            result?;
            st.stats.checkpoints += 1;
            if let Some(mttf) = self.cfg.mttf {
                st.interval = young_iterations(&st.stats, mttf, st.interval);
            }
            st.next_checkpoint = it + st.interval;
        }

        let result = timed(&mut row.step, &mut st.stats.step_time, || {
            let _span = ctx.trace_span(SpanKind::Step, it);
            app.step(ctx, it)
        });
        // With tracing on, reconstruct this pass's cross-place critical
        // path from the rings (the Step span just closed) and feed the
        // watchdog so regressions and stragglers are flagged online.
        if ctx.tracer().is_on() {
            let profiles =
                critical_path::analyze(&ctx.tracer().events(), &ctx.tracer().dropped());
            // Re-executed iterations share a number after rollback; the
            // latest window is this pass's.
            if let Some(p) = profiles.iter().rev().find(|p| p.iteration == it) {
                row.path = Some(*p);
                ctx.observe_iteration(p);
            }
        }
        result?;
        st.stats.iterations_run += 1;
        // Record the output digest the moment the step produced it — the
        // reference the pre-commit verification compares against.
        if let Some(cs) = app.as_checksummed() {
            let detect = row.detect.get_or_insert_default();
            let digest = timed(detect, &mut st.stats.detect_time, || cs.output_digest(ctx))?;
            st.recorded = Some((it, digest));
        }
        st.iteration += 1;
        Ok(())
    }

    /// Roll the application back to the committed snapshot on the group
    /// [`plan`](Self::plan) picks, going around again while places keep
    /// dying mid-restore. On success the loop state resumes from the
    /// snapshot's iteration and one flight-recorder [`PostMortem`] bundle
    /// is pushed. `trigger` is the error being recovered from.
    fn recover<A: ResilientIterativeApp>(
        &self,
        ctx: &Ctx,
        app: &mut A,
        store: &mut AppResilientStore,
        st: &mut RunState,
        trigger: &GmlError,
    ) -> GmlResult<RestoreCost> {
        let t0 = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            if st.restores_left == 0 {
                return Err(GmlError::Unrecoverable("restore budget exhausted".into()));
            }
            st.restores_left -= 1;
            attempts += 1;
            let rolled_back_to = store.snapshot_iteration().ok_or_else(|| {
                GmlError::Unrecoverable("place failure before any committed checkpoint".into())
            })?;
            let (new_group, mut decision) = self.plan(ctx, &st.group, trigger)?;
            if new_group.is_empty() {
                return Err(GmlError::Unrecoverable("no live places remain".into()));
            }
            // The Restore span carries the same label the bundle records,
            // so the two match by construction.
            let (label, rebalance) = (decision.effective_label, decision.rebalance);
            let result = {
                let _span = ctx.trace_span_labeled(SpanKind::Restore, label, rolled_back_to);
                app.restore(ctx, &new_group, store, rolled_back_to, rebalance)
            };
            match result {
                Ok(()) => {}
                // Another place died during the restore: go around again
                // from the (unchanged) old group minus all dead places.
                Err(e) if e.is_recoverable() => continue,
                Err(e) => return Err(e),
            }
            st.stats.restores += 1;
            decision.rolled_back_to = rolled_back_to;
            decision.attempt = attempts;
            let bundle = PostMortem::capture(
                ctx,
                store.store(),
                &store.committed_snapshots(),
                decision,
                st.stats.restores,
            );
            bundle.maybe_write_env_dir();
            st.report.bundles.push(bundle);
            st.group = new_group;
            st.iteration = rolled_back_to;
            st.next_checkpoint = rolled_back_to;
            st.recorded = None;
            let time = t0.elapsed();
            st.stats.restore_time += time;
            return Ok(RestoreCost { label, rebalance, time, rolled_back_to, attempts });
        }
    }

    /// Restore-mode selection for one attempt: the group to restore onto,
    /// and the decision record explaining it (`rolled_back_to` and
    /// `attempt` are left for the caller). A dead place selects the
    /// configured mode; with no corpse, the only recoverable trigger is a
    /// [`GmlError::SilentError`], which restores on the unchanged group.
    fn plan(
        &self,
        ctx: &Ctx,
        group: &PlaceGroup,
        trigger: &GmlError,
    ) -> GmlResult<(PlaceGroup, RestoreDecision)> {
        let dead: Vec<Place> = group.iter().filter(|p| !ctx.is_alive(*p)).collect();
        let spares = ctx.live_spares();
        let survivors = group.len() - dead.len();
        let mode = self.cfg.mode;
        let mut d = RestoreDecision {
            configured_mode: mode.label(),
            effective_label: mode.label(),
            dead_places: dead.iter().map(|p| p.id()).collect(),
            live_spares: spares.iter().map(|p| p.id()).collect(),
            ..Default::default()
        };
        let new_group = if dead.is_empty() {
            // The places are fine but the data is not: roll the contents
            // back on the intact grid (no shrink, substitution or
            // rebalance).
            let GmlError::SilentError { iteration, expected, observed } = trigger else {
                return Err(GmlError::Unrecoverable("recoverable error but no dead place".into()));
            };
            d.effective_label = "silent_error";
            d.expected_digest = Some(*expected);
            d.observed_digest = Some(*observed);
            d.reason = format!(
                "silent data corruption detected at iteration {iteration}: recorded digest \
                 {expected:016x}, observed {observed:016x}; no place died — rolling back to \
                 the committed snapshot on the unchanged group"
            );
            group.clone()
        } else {
            match mode {
                RestoreMode::Shrink | RestoreMode::ShrinkRebalance => {
                    d.rebalance = mode == RestoreMode::ShrinkRebalance;
                    let grid = if d.rebalance { "repartitioned" } else { "same" };
                    d.reason = format!(
                        "configured {}: continue on the {survivors} surviving place(s), {grid} \
                         data grid",
                        mode.label()
                    );
                    group.without(&dead)
                }
                // The replace modes differ only in where the substitutes
                // come from: pre-allocated spares, or brand-new places
                // created on demand (Elastic X10).
                RestoreMode::ReplaceRedundant | RestoreMode::ReplaceElastic => {
                    let (subs, source) = if mode == RestoreMode::ReplaceElastic {
                        let fresh =
                            dead.iter().map(|_| ctx.spawn_place()).collect::<Result<Vec<_>, _>>()?;
                        d.places_spawned = fresh.iter().map(|p| p.id()).collect();
                        (fresh, "freshly spawned place(s)")
                    } else {
                        (spares, "live spare(s)")
                    };
                    let (label, n_dead, n_subs) = (mode.label(), dead.len(), subs.len());
                    if let Some(g) = group.replace(&dead, &subs) {
                        d.reason = format!(
                            "configured {label}: {n_dead} dead place(s) substituted from \
                             {n_subs} {source}"
                        );
                        g
                    } else {
                        // Substitutes ran out: fall back to plain shrink. The
                        // label reports what actually happened.
                        d.effective_label = RestoreMode::Shrink.label();
                        d.reason = format!(
                            "{label} fell back: {n_dead} dead place(s) but only {n_subs} \
                             {source}; shrinking"
                        );
                        group.without(&dead)
                    }
                }
            }
        };
        Ok((new_group, d))
    }
}

/// Wraps an app to inject a fail-stop failure of `victim` at the start of
/// iteration `kill_at` — the fault-injection pattern used throughout the
/// paper's restore experiments (Figs 5–7: "a single place failure occurs at
/// iteration 15").
pub struct FailureInjector<A> {
    /// The wrapped application.
    pub app: A,
    /// Iteration at which the failure fires.
    pub kill_at: u64,
    /// The place to kill.
    pub victim: Place,
    fired: bool,
}

impl<A> FailureInjector<A> {
    /// Create a new instance.
    pub fn new(app: A, kill_at: u64, victim: Place) -> Self {
        FailureInjector { app, kill_at, victim, fired: false }
    }

    /// Whether the injected failure has fired yet.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for FailureInjector<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.app.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if iteration == self.kill_at && !self.fired {
            self.fired = true;
            ctx.kill_place(self.victim)?;
        }
        self.app.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.app.checkpoint(ctx, store)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.app.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        self.app.as_checksummed()
    }
}

/// Wraps an app to inject *random* fail-stop failures: each iteration, with
/// probability `p`, one random live place (never immortal place zero) is
/// killed. Deterministic for a given seed, so chaos runs are reproducible.
/// This is the MTTF-style failure model behind Young's formula.
pub struct ChaosInjector<A> {
    /// The wrapped application.
    pub app: A,
    p: f64,
    max_kills: u32,
    kills: u32,
    rng_state: u64,
}

impl<A> ChaosInjector<A> {
    /// Create a new instance.
    pub fn new(app: A, per_iteration_probability: f64, max_kills: u32, seed: u64) -> Self {
        ChaosInjector {
            app,
            p: per_iteration_probability.clamp(0.0, 1.0),
            max_kills,
            kills: 0,
            rng_state: seed | 1,
        }
    }

    /// Failures injected so far.
    pub fn kills(&self) -> u32 {
        self.kills
    }

    /// xorshift64* — enough randomness for failure injection, and keeps
    /// this crate free of an RNG dependency.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<A: ResilientIterativeApp> ResilientIterativeApp for ChaosInjector<A> {
    fn is_finished(&self, ctx: &Ctx, iteration: u64) -> bool {
        self.app.is_finished(ctx, iteration)
    }

    fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
        if self.kills < self.max_kills && self.next_f64() < self.p {
            let candidates: Vec<Place> = ctx
                .all_places()
                .iter()
                .filter(|p| *p != Place::ZERO && ctx.is_alive(*p))
                .collect();
            // Leave at least one victim-able place alive for the app.
            if candidates.len() > 1 {
                let victim = candidates[self.next_u64() as usize % candidates.len()];
                self.kills += 1;
                ctx.kill_place(victim)?;
            }
        }
        self.app.step(ctx, iteration)
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.app.checkpoint(ctx, store)
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        snapshot_iteration: u64,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.app.restore(ctx, new_places, store, snapshot_iteration, rebalance)
    }

    fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
        self.app.as_checksummed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup_vector::DupVector;
    
    use apgas::runtime::{Runtime, RuntimeConfig};

    /// Test app: a duplicated vector incremented by 1 each iteration; a
    /// configurable failure is injected at a given iteration.
    struct CounterApp {
        v: DupVector,
        group: PlaceGroup,
        total_iters: u64,
        kill_at: Option<(u64, Place)>,
        kill_during_checkpoint: Option<Place>,
        checksummed: bool,
        corrupt_at_digest_call: Option<u64>,
        kill_at_digest_call: Option<(u64, Place)>,
        kill_during_restore: Option<Place>,
        digest_calls: std::cell::Cell<u64>,
        /// Run a whole second runtime inside the step of this iteration.
        nested_run_at: Option<u64>,
    }

    impl CounterApp {
        fn value(&self, ctx: &Ctx) -> f64 {
            self.v.read_local(ctx).unwrap().get(0)
        }
    }

    impl ResilientIterativeApp for CounterApp {
        fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
            iteration >= self.total_iters
        }

        fn step(&mut self, ctx: &Ctx, iteration: u64) -> GmlResult<()> {
            if let Some((at, victim)) = self.kill_at {
                if iteration == at && ctx.is_alive(victim) {
                    ctx.kill_place(victim)?;
                }
            }
            if self.nested_run_at == Some(iteration) {
                let inner = Runtime::run(RuntimeConfig::new(2).resilient(true), |ctx| {
                    delta_codec_run(ctx, None)
                })
                .unwrap();
                assert!(inner.codec_totals.logical_bytes > 0, "the nested run framed checkpoints");
            }
            self.v.apply(ctx, |x| {
                x.cell_add_scalar(1.0);
            })
        }

        fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
            if let Some(victim) = self.kill_during_checkpoint.take() {
                if ctx.is_alive(victim) {
                    ctx.kill_place(victim)?;
                }
            }
            store.start_new_snapshot();
            store.save(ctx, &self.v)?;
            store.commit(ctx)
        }

        fn restore(
            &mut self,
            ctx: &Ctx,
            new_places: &PlaceGroup,
            store: &mut AppResilientStore,
            _snapshot_iteration: u64,
            _rebalance: bool,
        ) -> GmlResult<()> {
            if let Some(victim) = self.kill_during_restore.take() {
                ctx.kill_place(victim)?;
            }
            self.v.remake(ctx, new_places)?;
            store.restore(ctx, &mut [&mut self.v])?;
            self.group = new_places.clone();
            Ok(())
        }

        fn as_checksummed(&self) -> Option<&dyn ChecksummedStep> {
            self.checksummed.then_some(self as &dyn ChecksummedStep)
        }
    }

    impl ChecksummedStep for CounterApp {
        fn output_digest(&self, ctx: &Ctx) -> GmlResult<u64> {
            let n = self.digest_calls.get() + 1;
            self.digest_calls.set(n);
            if self.corrupt_at_digest_call == Some(n) {
                // The injected silent error: flip the data *after* the step
                // recorded its digest, so the pre-commit check mismatches.
                self.v.apply(ctx, |x| {
                    x.cell_add_scalar(0.5);
                })?;
            }
            if let Some((at, victim)) = self.kill_at_digest_call {
                if at == n {
                    // A place dies while the digest is being taken; the
                    // next collective touch surfaces it.
                    ctx.kill_place(victim)?;
                    self.v.apply(ctx, |_| {})?;
                }
            }
            Ok(apgas::fnv1a_f64s(self.v.read_local(ctx)?.as_slice()))
        }
    }

    fn counter_app(ctx: &Ctx, group: &PlaceGroup, total: u64) -> (CounterApp, AppResilientStore) {
        let v = DupVector::make(ctx, 3, group).unwrap();
        let store = AppResilientStore::make(ctx).unwrap();
        (
            CounterApp {
                v,
                group: group.clone(),
                total_iters: total,
                kill_at: None,
                kill_during_checkpoint: None,
                checksummed: false,
                corrupt_at_digest_call: None,
                kill_at_digest_call: None,
                kill_during_restore: None,
                digest_calls: std::cell::Cell::new(0),
                nested_run_at: None,
            },
            store,
        )
    }

    /// A 6-iteration run checkpointing every iteration through the delta
    /// codec, optionally running a second such run, in its own runtime,
    /// inside the step of iteration `nested_run_at`.
    fn delta_codec_run(ctx: &Ctx, nested_run_at: Option<u64>) -> CostReport {
        let g = ctx.world();
        let (mut app, _) = counter_app(ctx, &g, 6);
        app.nested_run_at = nested_run_at;
        let codec = crate::codec::CodecConfig {
            mode: crate::codec::CodecMode::Delta,
            level: 1,
            ..crate::codec::CodecConfig::raw()
        };
        let mut store = AppResilientStore::make_with_codec(ctx, codec).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(1, RestoreMode::Shrink));
        exec.run_reported(ctx, &mut app, &g, &mut store).unwrap().2
    }

    #[test]
    fn nested_runtime_codec_traffic_stays_out_of_the_outer_report() {
        let run = |nested_run_at| {
            Runtime::run(RuntimeConfig::new(2).resilient(true), move |ctx| {
                delta_codec_run(ctx, nested_run_at)
            })
            .unwrap()
        };
        let alone = run(None);
        let outer = run(Some(2));
        // Byte and frame counts are exact; codec wall time never repeats,
        // so it is compared through the telescoping check only.
        let volume = |c: CodecSnapshot| CodecSnapshot { encode_nanos: 0, decode_nanos: 0, ..c };
        let columns = |r: &CostReport| {
            r.rows.iter().map(|row| volume(CodecSnapshot::from(&row.delta))).collect::<Vec<_>>()
        };
        assert!(alone.codec_totals.logical_bytes > 0, "the run framed its checkpoints");
        assert_eq!(volume(outer.codec_totals), volume(alone.codec_totals));
        assert_eq!(columns(&outer), columns(&alone));
        assert!(outer.codec_consistent() && alone.codec_consistent());
    }

    #[test]
    fn failure_free_run_counts_all_iterations() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 12);
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 12.0);
            assert_eq!(final_group, g);
            assert_eq!(stats.iterations_run, 12);
            assert_eq!(stats.checkpoints, 3, "at iterations 0, 5, 10");
            assert_eq!(stats.restores, 0);
        })
        .unwrap();
    }

    #[test]
    fn shrink_recovers_and_result_is_exact() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 30);
            app.kill_at = Some((15, Place::new(2)));
            let exec = ResilientExecutor::new(ExecutorConfig::new(10, RestoreMode::Shrink));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 30.0, "rollback + re-execution is exact");
            assert_eq!(final_group.len(), 3);
            assert!(!final_group.contains(Place::new(2)));
            assert_eq!(stats.restores, 1);
            // Iterations 10..15 re-ran: 30 + (15 - 10) = 35.
            assert_eq!(stats.iterations_run, 35);
            assert!(stats.restore_time > Duration::ZERO);
        })
        .unwrap();
    }

    #[test]
    fn silent_error_detected_before_commit_and_restored() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.checksummed = true;
            // Digest calls: one record after each step, one verify before
            // each checkpoint. With interval 5 the verify at iteration 5 is
            // call #6 — corrupt the data inside it, after step 4's record.
            app.corrupt_at_digest_call = Some(6);
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats, report) =
                exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 10.0, "rollback + re-execution is exact");
            assert_eq!(final_group.len(), 3, "no place died; the group is unchanged");
            assert_eq!(stats.restores, 1);
            assert!(stats.detect_time > Duration::ZERO);
            // Iterations 0..5 re-ran after rolling back to the snapshot
            // from iteration 0: 10 + 5.
            assert_eq!(stats.iterations_run, 15);
            // The flight recorder labels the restore silent_error and
            // carries the mismatching digest pair.
            let pm = &report.bundles[0];
            assert_eq!(pm.decision.effective_label, "silent_error");
            assert!(pm.decision.dead_places.is_empty());
            let expected = pm.decision.expected_digest.unwrap();
            let observed = pm.decision.observed_digest.unwrap();
            assert_ne!(expected, observed);
            pm.validate().unwrap();
            // The cost report renders the silent restore and stays
            // telescoped.
            assert!(report.render().contains("silent_error"));
            assert!(report.consistent_with_totals());
        })
        .unwrap();
    }

    #[test]
    fn checksummed_run_without_corruption_is_free_of_restores() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 12);
            app.checksummed = true;
            let exec = ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::Shrink));
            let (_, stats, report) =
                exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 12.0);
            assert_eq!(stats.restores, 0, "matching digests never trigger a rollback");
            assert!(stats.detect_time > Duration::ZERO, "verification cost is accounted");
            assert!(report.rows.iter().any(|r| r.detect.is_some()));
        })
        .unwrap();
    }

    #[test]
    fn replace_redundant_keeps_group_size() {
        Runtime::run(RuntimeConfig::new(3).spares(2).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 20);
            app.kill_at = Some((7, Place::new(1)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::ReplaceRedundant));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 20.0);
            assert_eq!(final_group.len(), 3, "spare substituted in place");
            assert!(final_group.contains(Place::new(3)), "first spare joined");
            assert_eq!(stats.restores, 1);
        })
        .unwrap();
    }

    #[test]
    fn replace_elastic_spawns_fresh_places() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 20);
            app.kill_at = Some((7, Place::new(1)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::ReplaceElastic));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 20.0);
            assert_eq!(final_group.len(), 3, "group back to full strength");
            assert!(
                final_group.contains(Place::new(3)),
                "a brand-new place was created: {final_group:?}"
            );
            assert_eq!(stats.restores, 1);
            assert_eq!(ctx.stats().places_spawned, 1);
        })
        .unwrap();
    }

    #[test]
    fn replace_elastic_handles_repeated_failures() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (inner, mut store) = counter_app(ctx, &g, 18);
            struct MultiKill {
                inner: CounterApp,
                kills: Vec<u64>,
                victim_idx: usize,
            }
            impl ResilientIterativeApp for MultiKill {
                fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
                    self.inner.is_finished(ctx, it)
                }
                fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
                    if self.kills.first() == Some(&it) {
                        self.kills.remove(0);
                        // Kill the current incarnation of group slot 1.
                        let victim = self.inner.group.place(self.victim_idx);
                        if ctx.is_alive(victim) {
                            ctx.kill_place(victim)?;
                        }
                    }
                    self.inner.step(ctx, it)
                }
                fn checkpoint(&mut self, ctx: &Ctx, s: &mut AppResilientStore) -> GmlResult<()> {
                    self.inner.checkpoint(ctx, s)
                }
                fn restore(
                    &mut self,
                    ctx: &Ctx,
                    g: &PlaceGroup,
                    s: &mut AppResilientStore,
                    si: u64,
                    rb: bool,
                ) -> GmlResult<()> {
                    self.inner.restore(ctx, g, s, si, rb)
                }
            }
            let mut app = MultiKill { inner, kills: vec![4, 9, 14], victim_idx: 1 };
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::ReplaceElastic));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.inner.value(ctx), 18.0);
            assert_eq!(final_group.len(), 3);
            assert_eq!(stats.restores, 3);
            assert_eq!(ctx.stats().places_spawned, 3, "one fresh place per failure");
        })
        .unwrap();
    }

    #[test]
    fn replace_redundant_falls_back_to_shrink_without_spares() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 16);
            app.kill_at = Some((6, Place::new(3)));
            let exec =
                ResilientExecutor::new(ExecutorConfig::new(4, RestoreMode::ReplaceRedundant));
            let (final_group, _) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 16.0);
            assert_eq!(final_group.len(), 3, "no spares: shrank instead");
        })
        .unwrap();
    }

    #[test]
    fn failure_during_checkpoint_rolls_back_to_previous() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            // The checkpoint at iteration 5 is sabotaged; the one at 0 must
            // serve as the recovery point.
            app.kill_during_checkpoint = Some(Place::new(2));
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            // kill_during_checkpoint fires at iteration 0's checkpoint...
            // which would leave no committed snapshot. Commit one first by
            // letting iteration 0's checkpoint succeed: arrange the kill at
            // the *second* checkpoint instead.
            app.kill_during_checkpoint = None;
            store.set_current_iteration(0);
            store.start_new_snapshot();
            store.save(ctx, &app.v).unwrap();
            store.commit(ctx).unwrap();
            app.kill_during_checkpoint = Some(Place::new(2));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 10.0);
            assert_eq!(final_group.len(), 2);
            assert!(stats.restores >= 1);
        })
        .unwrap();
    }

    #[test]
    fn failure_without_checkpointing_is_unrecoverable() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.kill_at = Some((3, Place::new(1)));
            let exec = ResilientExecutor::new(ExecutorConfig::new(0, RestoreMode::Shrink));
            let err = exec.run(ctx, &mut app, &g, &mut store).unwrap_err();
            assert!(matches!(err, GmlError::Unrecoverable(_)));
        })
        .unwrap();
    }

    #[test]
    fn repeated_failures_all_recovered() {
        Runtime::run(RuntimeConfig::new(5).resilient(true), |ctx| {
            let g = ctx.world();
            let (app, mut store) = counter_app(ctx, &g, 24);
            let exec = ResilientExecutor::new(ExecutorConfig::new(6, RestoreMode::Shrink));
            // Kill a different place on each pass by chaining kill_at via
            // a small custom app wrapper: reuse kill_at thrice.
            struct MultiKill {
                inner: CounterApp,
                kills: Vec<(u64, Place)>,
            }
            impl ResilientIterativeApp for MultiKill {
                fn is_finished(&self, ctx: &Ctx, it: u64) -> bool {
                    self.inner.is_finished(ctx, it)
                }
                fn step(&mut self, ctx: &Ctx, it: u64) -> GmlResult<()> {
                    if let Some(pos) =
                        self.kills.iter().position(|(at, p)| *at == it && ctx.is_alive(*p))
                    {
                        let (_, victim) = self.kills.remove(pos);
                        ctx.kill_place(victim)?;
                    }
                    self.inner.step(ctx, it)
                }
                fn checkpoint(&mut self, ctx: &Ctx, s: &mut AppResilientStore) -> GmlResult<()> {
                    self.inner.checkpoint(ctx, s)
                }
                fn restore(
                    &mut self,
                    ctx: &Ctx,
                    g: &PlaceGroup,
                    s: &mut AppResilientStore,
                    si: u64,
                    rb: bool,
                ) -> GmlResult<()> {
                    self.inner.restore(ctx, g, s, si, rb)
                }
            }
            let mut app = MultiKill {
                inner: app,
                kills: vec![(4, Place::new(1)), (9, Place::new(2)), (14, Place::new(3))],
            };
            let (final_group, stats) = exec
                .run(ctx, &mut app, &g, &mut store)
                .expect("three failures, three recoveries");
            assert_eq!(app.inner.value(ctx), 24.0);
            assert_eq!(final_group.len(), 2);
            assert_eq!(stats.restores, 3);
        })
        .unwrap();
    }

    #[test]
    fn restore_budget_exhaustion_gives_up() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 10);
            app.kill_at = Some((2, Place::new(1)));
            let mut cfg = ExecutorConfig::new(5, RestoreMode::Shrink);
            cfg.max_restores = 0;
            let exec = ResilientExecutor::new(cfg);
            let err = exec.run(ctx, &mut app, &g, &mut store).unwrap_err();
            assert!(matches!(err, GmlError::Unrecoverable(_)));
        })
        .unwrap();
    }

    #[test]
    fn adaptive_interval_follows_youngs_formula() {
        // Synthetic stats: 10ms checkpoints, 1ms steps, MTTF 10s →
        // optimal interval sqrt(2*0.01*10) ≈ 0.447s ≈ 447 steps.
        let stats = RunStats {
            checkpoints: 2,
            checkpoint_time: Duration::from_millis(20),
            iterations_run: 10,
            step_time: Duration::from_millis(10),
            ..Default::default()
        };
        let n = young_iterations(&stats, Duration::from_secs(10), 5);
        assert!((440..=455).contains(&n), "got {n}");
        // No measurements yet: seed interval is kept.
        let empty = RunStats::default();
        assert_eq!(young_iterations(&empty, Duration::from_secs(10), 7), 7);
    }

    #[test]
    fn executor_with_mttf_adapts_and_still_recovers() {
        Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 40);
            app.kill_at = Some((25, Place::new(2)));
            // A tiny MTTF forces frequent checkpoints; the run must still
            // complete correctly.
            let cfg = ExecutorConfig::new(10, RestoreMode::Shrink)
                .with_mttf(Duration::from_millis(5));
            let exec = ResilientExecutor::new(cfg);
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 40.0);
            assert_eq!(final_group.len(), 2);
            assert!(stats.checkpoints >= 2, "adaptive mode checkpointed: {stats:?}");
            assert_eq!(stats.restores, 1);
        })
        .unwrap();
    }

    #[test]
    fn chaos_injector_is_survivable_and_deterministic() {
        let run_once = |seed: u64| {
            Runtime::run(RuntimeConfig::new(6).resilient(true), move |ctx| {
                let g = ctx.world();
                let (app, mut store) = counter_app(ctx, &g, 30);
                let mut chaos = ChaosInjector::new(app, 0.15, 3, seed);
                let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
                let (final_group, stats) =
                    exec.run(ctx, &mut chaos, &g, &mut store).unwrap();
                assert_eq!(chaos.app.value(ctx), 30.0, "exact result despite chaos");
                (chaos.kills(), final_group.len(), stats.restores)
            })
            .unwrap()
        };
        let a = run_once(42);
        let b = run_once(42);
        assert_eq!(a, b, "same seed, same chaos");
        let (kills, final_len, restores) = a;
        assert!(kills >= 1, "the seed should produce at least one kill");
        assert_eq!(final_len, 6 - kills as usize);
        assert!(restores >= kills as u64);
    }

    #[test]
    fn place_death_inside_output_digest_is_recovered() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 12);
            app.checksummed = true;
            // Digest call 3 is the record after step 2.
            app.kill_at_digest_call = Some((3, Place::new(2)));
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats) = exec.run(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 12.0, "rollback + re-execution is exact");
            assert_eq!(stats.restores, 1);
            assert!(!final_group.contains(Place::new(2)));
        })
        .unwrap();
    }

    #[test]
    fn place_death_during_restore_retries_without_both_dead_places() {
        Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
            let g = ctx.world();
            let (mut app, mut store) = counter_app(ctx, &g, 20);
            app.kill_at = Some((7, Place::new(1)));
            app.kill_during_restore = Some(Place::new(2));
            let exec = ResilientExecutor::new(ExecutorConfig::new(5, RestoreMode::Shrink));
            let (final_group, stats, report) =
                exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
            assert_eq!(app.value(ctx), 20.0, "rollback + re-execution is exact");
            assert_eq!(stats.restores, 1, "one recovery, two attempts");
            let cost = report.rows.iter().find_map(|r| r.restore).unwrap();
            assert_eq!(cost.attempts, 2);
            assert_eq!(report.bundles[0].decision.attempt, 2);
            assert!(!final_group.contains(Place::new(1)));
            assert!(!final_group.contains(Place::new(2)));
            assert_eq!(final_group.len(), 2);
        })
        .unwrap();
    }

    #[test]
    fn report_rows_sum_to_run_stats() {
        for kill_at in [None, Some((7, Place::new(2)))] {
            Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
                let g = ctx.world();
                let (mut app, mut store) = counter_app(ctx, &g, 16);
                app.checksummed = true;
                app.kill_at = kill_at;
                let exec = ResilientExecutor::new(ExecutorConfig::new(3, RestoreMode::Shrink));
                let (_, stats, report) =
                    exec.run_reported(ctx, &mut app, &g, &mut store).unwrap();
                assert_eq!(app.value(ctx), 16.0);
                let sum = |f: fn(&IterRow) -> Option<Duration>| -> Duration {
                    report.rows.iter().filter_map(f).sum()
                };
                assert_eq!(sum(|r| Some(r.step)), stats.step_time);
                assert_eq!(sum(|r| r.checkpoint), stats.checkpoint_time);
                assert_eq!(sum(|r| r.capture), stats.capture_time);
                assert_eq!(Duration::from_nanos(report.summed().ckpt_ship_nanos), stats.ship_time);
                // No place dies inside a checkpoint here, so every row that
                // took one committed it, and its backup transfer was timed.
                let ckpt_rows: Vec<&IterRow> =
                    report.rows.iter().filter(|r| r.checkpoint.is_some()).collect();
                assert_eq!(ckpt_rows.len() as u64, stats.checkpoints);
                assert!(ckpt_rows.iter().all(|r| r.delta.ckpt_ship_nanos > 0));
                assert_eq!(sum(|r| r.detect), stats.detect_time);
                assert_eq!(sum(|r| r.restore.map(|c| c.time)), stats.restore_time);
                assert_eq!(report.restores(), stats.restores);
                assert_eq!(stats.restores, u64::from(kill_at.is_some()));
            })
            .unwrap();
        }
    }

    #[test]
    fn young_formula() {
        // 2 * 10s checkpoint * 500s MTTF = 10000 → 100s interval.
        assert!((young_interval(10.0, 500.0) - 100.0).abs() < 1e-9);
        assert_eq!(young_interval(0.0, 100.0), 0.0);
    }

    #[test]
    fn stats_percentages() {
        let stats = RunStats {
            total_time: Duration::from_secs(10),
            checkpoint_time: Duration::from_secs(2),
            restore_time: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((stats.checkpoint_pct() - 20.0).abs() < 1e-9);
        assert!((stats.restore_pct() - 10.0).abs() < 1e-9);
    }
}
