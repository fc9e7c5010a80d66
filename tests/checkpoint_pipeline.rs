//! Failure drills for the checkpoint pipeline, where each `save` ships its
//! backup copies before it returns: a backup killed mid-`save_batch` must
//! abort the checkpoint atomically (cancelled snapshot, no partial
//! inventory), and a backup killed inside the app's `checkpoint` must fail
//! that `save` so the executor restores from the previous committed
//! snapshot. Once `commit` returns, the store holds exactly the committed
//! snapshot, and an executor run that fails without recovering leaves no
//! half-taken snapshot behind.

use std::sync::Arc;

use resilient_gml::prelude::*;

use apgas::runtime::{Runtime, RuntimeConfig};

/// The per-place inventory lines that must survive a cancelled checkpoint
/// unchanged: (place id, alive, entries, snapshots, bytes).
fn inventory_fingerprint(ctx: &Ctx, store: &AppResilientStore) -> Vec<(u32, bool, u64, u64, u64)> {
    store
        .store()
        .inventory(ctx)
        .into_iter()
        .map(|inv| (inv.place.id(), inv.alive, inv.entries as u64, inv.snapshots as u64, inv.bytes))
        .collect()
}

/// Drill 1 — the backup place dies mid-`save_batch`: the save fails at
/// capture time (dead-backup fail-fast), the attempt is cancelled, and the
/// watermark delete leaves the store inventory bit-identical to its
/// pre-attempt state — no partial inventory, committed snapshot intact and
/// still restorable.
#[test]
fn backup_killed_mid_batch_aborts_checkpoint_atomically() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| i as f64 * 0.5).unwrap();
        let mut dup = DupVector::make(ctx, 512, &world).unwrap();
        dup.init(ctx, |i| 3.0 - i as f64).unwrap();

        let mut store = AppResilientStore::make(ctx).unwrap();
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.commit(ctx).unwrap();
        assert_eq!(store.snapshot_iteration(), Some(0));

        // Place 1 backs up both place 0's DistVector segment and the
        // DupVector master copy (owner place 0, backup = next in group).
        ctx.kill_place(Place::new(1)).unwrap();
        let baseline = inventory_fingerprint(ctx, &store);

        store.set_current_iteration(3);
        store.start_new_snapshot();
        // DupVector first: its owner (place 0) is alive, so this exercises
        // the pure dead-backup fail-fast inside save_batch.
        let err = store.save(ctx, &dup).unwrap_err();
        assert!(err.is_recoverable(), "dead backup must be recoverable: {err:?}");
        // The DistVector save also fails (place 1 is an owner too), but its
        // surviving segments insert owner copies first — real partial state.
        let err = store.save(ctx, &dv).unwrap_err();
        assert!(err.is_recoverable());
        assert_ne!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "the failed attempt must have left partial inserts for cancel to reap"
        );

        // Atomic abort: cancel deletes everything the attempt allocated.
        store.cancel_snapshot(ctx);
        assert_eq!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "cancelled checkpoint left partial inventory behind"
        );
        assert_eq!(store.snapshot_iteration(), Some(0), "committed snapshot must survive");

        // The committed snapshot is still fully restorable on the survivors.
        let survivors = world.without(&[Place::new(1)]);
        dv.remake(ctx, &survivors).unwrap();
        dup.remake(ctx, &survivors).unwrap();
        store.restore(ctx, &mut [&mut dv, &mut dup]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == i as f64 * 0.5));
        let d = dup.read_local(ctx).unwrap();
        assert!((0..512).all(|i| d.get(i) == 3.0 - i as f64));
    })
    .unwrap();
}

/// Counter app whose second checkpoint kills `victim` after
/// `start_new_snapshot` and before `save`, so that `save` runs against a
/// dead backup.
struct BackupKillerApp {
    v: DupVector,
    total_iters: u64,
    victim: Place,
    checkpoints: u64,
}

impl ResilientIterativeApp for BackupKillerApp {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.total_iters
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        store.start_new_snapshot();
        self.checkpoints += 1;
        if self.checkpoints == 2 {
            ctx.kill_place(self.victim)?;
        }
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
        self.v.remake(ctx, new_places)?;
        store.restore(ctx, &mut [&mut self.v])
    }
}

/// Drill 2 — the backup place dies inside the app's `checkpoint`, between
/// `start_new_snapshot` and `save`: the `save` fails, the executor cancels
/// the attempt and restores from the previous committed snapshot.
#[test]
fn backup_killed_before_save_fails_the_checkpoint_and_restores() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        // The DupVector master lives at place 0; place 1 is its backup —
        // killing it fails the backup transfer, not the owner's serialize.
        let mut app = BackupKillerApp {
            v: DupVector::make(ctx, 3, &world).unwrap(),
            total_iters: 8,
            victim: Place::new(1),
            checkpoints: 0,
        };
        let mut store = AppResilientStore::make(ctx).unwrap();

        let exec = ResilientExecutor::new(ExecutorConfig::new(3, RestoreMode::Shrink));
        let (final_group, stats, report) =
            exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();

        assert_eq!(final_group.len(), 3);
        assert_eq!(stats.restores, 1);
        // The save failed at the iteration-3 checkpoint, so the rollback
        // target is the previous committed snapshot: iteration 0.
        let restore = report
            .rows
            .iter()
            .find_map(|r| r.restore)
            .expect("one restore row expected");
        assert_eq!(restore.rolled_back_to, 0, "must restore the previous committed snapshot");
        assert_eq!(app.v.read_local(ctx).unwrap().get(0), 8.0);
    })
    .unwrap();
}

/// A delta codec configuration pinned explicitly (not `from_env`) so these
/// drills are independent of `GML_CKPT_*` set by the surrounding CI run.
/// The small chunk keeps one-element mutations well under the dirty-ratio
/// fallback on the 4096-element test vectors.
fn delta_codec() -> CodecConfig {
    CodecConfig {
        mode: CodecMode::Delta,
        level: 1,
        chunk: 1024,
        dirty_max: 0.5,
        full_every: 16,
        lossy_tol: None,
    }
}

/// Drill 1b — the backup dies mid-`save_batch` of a **delta** epoch: the
/// attempt aborts atomically (watermark cancel reaps partial delta frames),
/// the committed base chain stays intact, and restoring from it replays the
/// pre-mutation state bit-for-bit.
#[test]
fn backup_killed_mid_delta_epoch_aborts_atomically_and_base_restores() {
    Runtime::run(RuntimeConfig::new(4).resilient(true), |ctx| {
        let world = ctx.world();
        let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
        dv.init(ctx, |i| (i as f64).sin()).unwrap();
        let mut dup = DupVector::make(ctx, 4_096, &world).unwrap();
        dup.init(ctx, |i| 1.0 / (1.0 + i as f64)).unwrap();

        let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
        store.set_current_iteration(0);
        store.start_new_snapshot();
        store.save(ctx, &dv).unwrap();
        store.save(ctx, &dup).unwrap();
        store.commit(ctx).unwrap();

        // Small mutations so the doomed second epoch takes the delta path.
        dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice()[0] += 0.5).unwrap();
        dup.apply(ctx, |v| v.as_mut_slice()[7] = 42.0).unwrap();

        ctx.kill_place(Place::new(1)).unwrap();
        let baseline = inventory_fingerprint(ctx, &store);

        store.set_current_iteration(5);
        store.start_new_snapshot();
        assert!(store.save(ctx, &dup).unwrap_err().is_recoverable());
        assert!(store.save(ctx, &dv).unwrap_err().is_recoverable());
        store.cancel_snapshot(ctx);
        assert_eq!(
            inventory_fingerprint(ctx, &store),
            baseline,
            "cancelled delta epoch left partial frames behind"
        );

        // The committed (pre-mutation) snapshot restores bit-identically.
        let survivors = world.without(&[Place::new(1)]);
        dv.remake(ctx, &survivors).unwrap();
        dup.remake(ctx, &survivors).unwrap();
        store.restore(ctx, &mut [&mut dv, &mut dup]).unwrap();
        let v = dv.gather(ctx).unwrap();
        assert!((0..4_096).all(|i| v.get(i) == (i as f64).sin()));
        let d = dup.read_local(ctx).unwrap();
        assert!((0..4_096).all(|i| d.get(i) == 1.0 / (1.0 + i as f64)));
    })
    .unwrap();
}

/// FNV-1a digest of a vector's packed f64 contents.
fn vector_fnv(v: &Vector) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v.as_slice() {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    apgas::digest::fnv1a_bytes(&bytes)
}

/// Drill 1c — the **owner** dies after a delta epoch committed: restore must
/// replay base + delta frames from the backup copies, and the result must
/// hash identically to a run where nothing was ever killed.
#[test]
fn owner_killed_after_delta_commit_replays_chain_from_backups() {
    let run_once = |kill_owner: bool| -> u64 {
        let digest = Arc::new(std::sync::Mutex::new(0u64));
        let out = Arc::clone(&digest);
        Runtime::run(RuntimeConfig::new(4).resilient(true), move |ctx| {
            let world = ctx.world();
            let mut dv = DistVector::make(ctx, 4_096, &world).unwrap();
            dv.init(ctx, |i| (i as f64) * 0.25 - 7.0).unwrap();
            let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();

            // Epoch 0: full bases.
            store.set_current_iteration(0);
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();

            // Epoch 1: sparse mutation → delta frames chained on epoch 0.
            dv.for_each_segment(ctx, |s, _, seg| {
                seg.as_mut_slice()[0] = s as f64 + 0.125;
            })
            .unwrap();
            store.set_current_iteration(1);
            store.start_new_snapshot();
            store.save(ctx, &dv).unwrap();
            store.commit(ctx).unwrap();

            if kill_owner {
                // Place 2 owned its segments; their frames (delta head *and*
                // chain base) survive only at the backup (place 3).
                ctx.kill_place(Place::new(2)).unwrap();
                let survivors = world.without(&[Place::new(2)]);
                dv.remake(ctx, &survivors).unwrap();
            } else {
                dv.for_each_segment(ctx, |_, _, seg| seg.as_mut_slice().fill(0.0))
                    .unwrap();
            }
            store.restore(ctx, &mut [&mut dv]).unwrap();
            *out.lock().unwrap() = vector_fnv(&dv.gather(ctx).unwrap());
        })
        .unwrap();
        let d = *digest.lock().unwrap();
        d
    };

    let undisturbed = run_once(false);
    let replayed = run_once(true);
    assert_eq!(
        replayed, undisturbed,
        "chain replay from backups must be bit-identical to the never-killed run"
    );
}

/// One-object app that probes the store right after every successful
/// commit. With `fail_at_checkpoint = Some(n)`, the n-th checkpoint saves
/// and then returns a non-recoverable error instead of committing.
struct CommitProbeApp {
    v: DupVector,
    total_iters: u64,
    checkpoints: u64,
    fail_at_checkpoint: Option<u64>,
    /// Per successful commit: the most snapshot ids any one place holds.
    max_snapshots: Vec<u64>,
    /// The inventory right after the latest successful commit.
    committed_inventory: Vec<(u32, bool, u64, u64, u64)>,
}

impl ResilientIterativeApp for CommitProbeApp {
    fn is_finished(&self, _ctx: &Ctx, iteration: u64) -> bool {
        iteration >= self.total_iters
    }

    fn step(&mut self, ctx: &Ctx, _iteration: u64) -> GmlResult<()> {
        self.v.apply(ctx, |x| {
            x.cell_add_scalar(1.0);
        })
    }

    fn checkpoint(&mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.checkpoints += 1;
        store.start_new_snapshot();
        store.save(ctx, &self.v)?;
        if self.fail_at_checkpoint == Some(self.checkpoints) {
            return Err(GmlError::shape("injected non-recoverable checkpoint error"));
        }
        store.commit(ctx)?;
        self.committed_inventory = inventory_fingerprint(ctx, store);
        self.max_snapshots
            .push(self.committed_inventory.iter().map(|inv| inv.3).max().unwrap_or(0));
        Ok(())
    }

    fn restore(
        &mut self,
        ctx: &Ctx,
        new_places: &PlaceGroup,
        store: &mut AppResilientStore,
        _snapshot_iteration: u64,
        _rebalance: bool,
    ) -> GmlResult<()> {
        self.v.remake(ctx, new_places)?;
        store.restore(ctx, &mut [&mut self.v])
    }
}

fn commit_probe_app(ctx: &Ctx, group: &PlaceGroup, fail_at: Option<u64>) -> CommitProbeApp {
    CommitProbeApp {
        v: DupVector::make(ctx, 3, group).unwrap(),
        total_iters: 6,
        checkpoints: 0,
        fail_at_checkpoint: fail_at,
        max_snapshots: Vec::new(),
        committed_inventory: Vec::new(),
    }
}

/// The default executor checkpointing every iteration through a raw-codec
/// store: right after each `commit` the store holds exactly one
/// application snapshot (the retired one is already deleted and no later
/// one is in flight), and every row receives exactly the bytes it ships,
/// because each checkpoint's ships join inside its own pass.
#[test]
fn commit_returns_with_exactly_one_snapshot_and_rows_balance_bytes() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let world = ctx.world();
        let mut app = commit_probe_app(ctx, &world, None);
        let mut store = AppResilientStore::make_with_codec(ctx, CodecConfig::raw()).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(1, RestoreMode::Shrink));
        let (_, stats, report) = exec.run_reported(ctx, &mut app, &world, &mut store).unwrap();

        assert_eq!(stats.checkpoints, 6);
        assert_eq!(app.max_snapshots, vec![1; 6], "one application snapshot after each commit");
        for row in &report.rows {
            assert_eq!(
                row.delta.bytes_received, row.delta.bytes_shipped,
                "row for iteration {} split a transfer",
                row.iteration
            );
        }
        assert!(report.consistent_with_totals());
    })
    .unwrap();
}

/// A checkpoint fails with a non-recoverable error after one `save`: the
/// executor returns the error, but first cancels the half-taken snapshot,
/// so the store's inventory is exactly the committed snapshot's.
#[test]
fn non_recoverable_checkpoint_error_leaves_only_the_committed_snapshot() {
    Runtime::run(RuntimeConfig::new(3).resilient(true), |ctx| {
        let world = ctx.world();
        let mut app = commit_probe_app(ctx, &world, Some(3));
        let mut store = AppResilientStore::make_with_codec(ctx, delta_codec()).unwrap();
        let exec = ResilientExecutor::new(ExecutorConfig::new(1, RestoreMode::Shrink));

        let err = exec.run(ctx, &mut app, &world, &mut store).unwrap_err();
        assert!(!err.is_recoverable(), "{err}");
        assert_eq!(store.snapshot_iteration(), Some(1), "the second checkpoint stays committed");
        assert_eq!(
            inventory_fingerprint(ctx, &store),
            app.committed_inventory,
            "the failed attempt left partial inventory behind"
        );
    })
    .unwrap();
}
