//! The application resilient store (`AppResilientStore`, Listing 4).
//!
//! A coherent application checkpoint is a set of object snapshots taken
//! **atomically**: the new application snapshot is valid only once every
//! `save` succeeded and `commit` was called; any failure in between cancels
//! the whole attempt and the previous committed snapshot remains the
//! recovery point. With coordinated checkpointing only one committed
//! snapshot needs to be retained — `commit` deletes the previous one —
//! except that **read-only** objects' snapshots are shared across
//! application snapshots (`save_read_only`), which is why the paper's
//! PageRank checkpoints are so much cheaper than a full re-save.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use apgas::prelude::*;

use crate::codec::{CaptureCtx, CodecConfig};
use crate::error::{GmlError, GmlResult};
use crate::snapshot::{Snapshot, Snapshottable};
use crate::store::ResilientStore;

/// One committed (or pending) application snapshot.
struct AppSnapshot {
    /// The iteration this snapshot captures.
    iteration: u64,
    /// Object id → that object's snapshot.
    map: HashMap<u64, Snapshot>,
    /// snap_ids inherited from the previous application snapshot
    /// (read-only reuse) — not to be deleted when that snapshot retires.
    reused: HashSet<u64>,
    /// Store-id watermark at `start_new_snapshot`: every snap id this
    /// attempt allocated is at least this. The watermark lets cancellation
    /// delete ids burned by saves that failed *before* their snapshot
    /// entered `map`.
    first_snap_id: u64,
}

/// Driver-side coordinator for atomic application checkpoints.
///
/// `save` is synchronous: when it returns, every place has serialized its
/// part of the object, inserted the owner copy and shipped the backup copy
/// (one batched `at` per place, inside [`ResilientStore::save_batch`]). A
/// dead backup fails the `save`. `commit` promotes the snapshot and deletes
/// the retired one before it returns, so at most one committed application
/// snapshot (plus the pending attempt) is ever held.
pub struct AppResilientStore {
    store: ResilientStore,
    committed: Option<AppSnapshot>,
    pending: Option<AppSnapshot>,
    current_iteration: u64,
    capture_time: Duration,
    /// Snap ids that are *delta bases* of the committed snapshot's chains —
    /// older snapshots' ids kept alive past their own retirement because a
    /// committed delta frame still references them. Swept by the chain-aware
    /// GC in `commit` once no live chain needs them.
    retained_chain: HashSet<u64>,
}

impl AppResilientStore {
    /// Create the store (shards at every place, spares included), with the
    /// checkpoint codec configured from the `GML_CKPT_*` environment —
    /// delta frames with lossless compression by default
    /// (`GML_CKPT_CODEC=raw` restores the pre-codec byte-identical path).
    pub fn make(ctx: &Ctx) -> GmlResult<Self> {
        Self::make_with_codec(ctx, CodecConfig::from_env())
    }

    /// Create the store with an explicit codec configuration (tests and
    /// parity drills pass configs directly to stay independent of the
    /// environment, which is shared across concurrently running tests).
    pub fn make_with_codec(ctx: &Ctx, config: CodecConfig) -> GmlResult<Self> {
        Ok(Self::with_store(ResilientStore::make_with_codec(ctx, config)?))
    }

    /// Create the store with backup copies toggled (ablation; see
    /// [`ResilientStore::make_with_redundancy`]). The ablation path keeps
    /// the codec off so its byte accounting stays directly comparable to
    /// the historical baselines.
    pub fn make_with_redundancy(ctx: &Ctx, redundant: bool) -> GmlResult<Self> {
        Ok(Self::with_store(ResilientStore::make_with_redundancy(ctx, redundant)?))
    }

    fn with_store(store: ResilientStore) -> Self {
        AppResilientStore {
            store,
            committed: None,
            pending: None,
            current_iteration: 0,
            capture_time: Duration::ZERO,
            retained_chain: HashSet::new(),
        }
    }

    /// Harvest and reset the accumulated capture time: the wall time of
    /// every `save` since the last harvest, backup transfers included.
    pub fn take_capture_time(&mut self) -> Duration {
        std::mem::take(&mut self.capture_time)
    }

    /// The underlying key/value store.
    pub fn store(&self) -> &ResilientStore {
        &self.store
    }

    /// Tell the store which iteration the next snapshot captures (called by
    /// the executor before the application's `checkpoint` method runs).
    pub fn set_current_iteration(&mut self, iteration: u64) {
        self.current_iteration = iteration;
    }

    /// Begin a new application snapshot, discarding any uncommitted one.
    pub fn start_new_snapshot(&mut self) {
        self.pending = Some(AppSnapshot {
            iteration: self.current_iteration,
            map: HashMap::new(),
            reused: HashSet::new(),
            first_snap_id: self.store.peek_next_id(),
        });
    }

    /// Snapshot `obj` into the pending application snapshot: the object
    /// serializes under its lock, and every place inserts its owner copy
    /// and ships its backup copy before this method returns.
    pub fn save(&mut self, ctx: &Ctx, obj: &dyn Snapshottable) -> GmlResult<()> {
        let t0 = Instant::now();
        // Delta base for the codec: the committed snapshot of this same
        // object — but only while it is still fully redundant. A
        // degraded snapshot (one replica lost) is never a delta base: its
        // frames may live on a dead place, and the next checkpoint must
        // re-establish a self-contained full base anyway to restore double
        // redundancy. After a restore, `force_full` does the same for one
        // epoch so chains never straddle a recovery.
        let ref_snap = if self.store.codec_config().is_raw() || self.store.force_full() {
            None
        } else {
            self.committed
                .as_ref()
                .and_then(|c| c.map.get(&obj.object_id()))
                .filter(|s| s.fully_redundant(ctx))
                .cloned()
        };
        self.store
            .begin_capture(CaptureCtx { ref_snap: ref_snap.clone(), class: obj.payload_class() });
        let result = obj.make_snapshot(ctx, &self.store);
        let used_delta = self.store.end_capture();
        self.capture_time += t0.elapsed();
        // On failure the watermark in `cancel_snapshot` wipes the partial
        // inserts.
        let mut snap = result?;
        if used_delta {
            // At least one place emitted a delta frame: this snapshot's
            // restore needs the base's frames, so the base id (and whatever
            // it in turn references) rides along for the chain-aware GC.
            if let Some(base) = &ref_snap {
                snap.chain = base.chain.clone();
                snap.chain.push(base.snap_id);
            }
        }
        let pending = self
            .pending
            .as_mut()
            .ok_or_else(|| GmlError::shape("save() before start_new_snapshot()"))?;
        pending.map.insert(obj.object_id(), snap);
        Ok(())
    }

    /// Snapshot `obj` unless a **fully redundant** snapshot of it exists in
    /// the committed application snapshot, in which case that one is reused
    /// (the paper's `saveReadOnly`). A snapshot that lost one replica to a
    /// failure is *not* reused — it is re-saved, so that every committed
    /// checkpoint can absorb the next failure.
    pub fn save_read_only(&mut self, ctx: &Ctx, obj: &dyn Snapshottable) -> GmlResult<()> {
        let reusable = self.committed.as_ref().and_then(|c| {
            c.map.get(&obj.object_id()).filter(|s| s.fully_redundant(ctx)).cloned()
        });
        match reusable {
            Some(snap) => {
                let pending = self
                    .pending
                    .as_mut()
                    .ok_or_else(|| GmlError::shape("save_read_only() before start_new_snapshot()"))?;
                pending.reused.insert(snap.snap_id);
                pending.map.insert(obj.object_id(), snap);
                Ok(())
            }
            None => self.save(ctx, obj),
        }
    }

    /// Atomically promote the pending snapshot to committed and delete the
    /// retired one's entries (except those the new snapshot reuses, and
    /// except delta-chain bases its frames still reference). A base and its
    /// deltas promote or retire **atomically**: a chain id is deleted only
    /// once no live snapshot — head or chain — needs it.
    pub fn commit(&mut self, ctx: &Ctx) -> GmlResult<()> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| GmlError::shape("commit() before start_new_snapshot()"))?;
        let old = self.committed.replace(pending);
        let new = self.committed.as_ref().expect("just replaced");
        let mut keep: HashSet<u64> = new.map.values().map(|s| s.snap_id).collect();
        for s in new.map.values() {
            keep.extend(s.chain.iter().copied());
        }
        // Candidates for deletion: the previously retained chain bases plus
        // the retired snapshot's heads and chains.
        let mut stale: HashSet<u64> = std::mem::take(&mut self.retained_chain);
        if let Some(old) = &old {
            for s in old.map.values() {
                stale.insert(s.snap_id);
                stale.extend(s.chain.iter().copied());
            }
        }
        for id in stale {
            if !keep.contains(&id) {
                // Deleting old checkpoints is best-effort cleanup; a
                // failure here must not fail the commit.
                let _ = self.store.delete_snapshot(ctx, id);
            }
        }
        self.retained_chain =
            new.map.values().flat_map(|s| s.chain.iter().copied()).collect();
        // A snapshot committed cleanly: the post-restore full-base override
        // (if any) has produced its full frames and can lift.
        self.store.clear_force_full();
        Ok(())
    }

    /// Abort the pending snapshot, deleting any entries it created (but not
    /// reused read-only snapshots, which still belong to the committed one).
    pub fn cancel_snapshot(&mut self, ctx: &Ctx) {
        if let Some(pending) = self.pending.take() {
            // Watermark delete: every id the attempt allocated, including
            // ids burned by saves that failed before their snapshot entered
            // the map. Deleting is best-effort cleanup.
            for snap_id in pending.first_snap_id..self.store.peek_next_id() {
                if !pending.reused.contains(&snap_id) {
                    let _ = self.store.delete_snapshot(ctx, snap_id);
                }
            }
        }
    }

    /// True once a committed application snapshot exists.
    pub fn has_snapshot(&self) -> bool {
        self.committed.is_some()
    }

    /// The iteration captured by the committed snapshot.
    pub fn snapshot_iteration(&self) -> Option<u64> {
        self.committed.as_ref().map(|c| c.iteration)
    }

    /// The committed snapshot of one object.
    pub fn snapshot_of(&self, object_id: u64) -> GmlResult<Snapshot> {
        self.committed
            .as_ref()
            .and_then(|c| c.map.get(&object_id))
            .cloned()
            .ok_or_else(|| GmlError::data_loss(format!("no committed snapshot for object {object_id}")))
    }

    /// Every object snapshot in the committed application snapshot, sorted
    /// by snap id (for the flight recorder's redundancy audit).
    pub fn committed_snapshots(&self) -> Vec<Snapshot> {
        self.committed
            .as_ref()
            .map(|c| {
                let mut v: Vec<Snapshot> = c.map.values().cloned().collect();
                v.sort_by_key(|s| s.snap_id);
                v
            })
            .unwrap_or_default()
    }

    /// Restore every object in `objs` from the committed application
    /// snapshot (the paper's single `restore()` call restoring all saved
    /// GML objects).
    pub fn restore(&self, ctx: &Ctx, objs: &mut [&mut dyn Snapshottable]) -> GmlResult<()> {
        // Any restore breaks delta continuity: the surviving replicas may be
        // mid-rebuild and the restored in-memory state no longer descends
        // from the last committed frames' successor. The next checkpoint
        // emits full bases (cleared once that checkpoint commits).
        self.store.mark_force_full();
        for obj in objs.iter_mut() {
            let snap = self.snapshot_of(obj.object_id())?;
            obj.restore_snapshot(ctx, &self.store, &snap)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dup_vector::DupVector;
    use apgas::runtime::{Runtime, RuntimeConfig};

    fn run(places: usize, f: impl FnOnce(&Ctx) + Send + 'static) {
        Runtime::run(RuntimeConfig::new(places).resilient(true), f).unwrap();
    }

    #[test]
    fn checkpoint_commit_restore_cycle() {
        run(3, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 4, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();

            store.set_current_iteration(10);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            assert!(store.has_snapshot());
            assert_eq!(store.snapshot_iteration(), Some(10));

            v.apply(ctx, |x| x.fill(0.0)).unwrap();
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn save_requires_open_snapshot() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();
            assert!(store.save(ctx, &v).is_err());
            assert!(store.commit(ctx).is_err());
        });
    }

    #[test]
    fn save_ships_the_backup_copy_before_it_returns() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 4, &g).unwrap();
            // The DupVector's owner is place 0; its backup is place 1.
            let backup = Place::new(1);
            store.start_new_snapshot();
            assert_eq!(store.store().entries_at(ctx, backup).unwrap(), 0);
            store.save(ctx, &v).unwrap();
            assert_eq!(
                store.store().entries_at(ctx, backup).unwrap(),
                1,
                "the backup copy must land before save returns, not at commit"
            );
            store.commit(ctx).unwrap();
        });
    }

    #[test]
    fn commit_deletes_previous_snapshot_entries() {
        run(2, |ctx| {
            let g = ctx.world();
            // Raw codec: with deltas on, the previous snapshot would be
            // *retained* as the new head's chain base (covered below).
            let mut store =
                AppResilientStore::make_with_codec(ctx, CodecConfig::raw()).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            // The first snapshot's payload must be gone.
            assert!(first.fetch(ctx, store.store(), 0).is_err());
            // The new one is intact.
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert!(second.fetch(ctx, store.store(), 0).is_ok());
        });
    }

    #[test]
    fn delta_commit_retains_chain_bases_until_superseded() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store =
                AppResilientStore::make_with_codec(ctx, CodecConfig::from_env()).unwrap();
            // Big enough to span many chunks, so a one-element mutation
            // stays under the dirty-ratio threshold and deltas.
            let mut v = DupVector::make(ctx, 4096, &g).unwrap();
            v.init(ctx, |i| i as f64).unwrap();

            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();
            assert!(first.chain.is_empty(), "first snapshot is a full base");

            // Small mutation → the second snapshot deltas against the first,
            // so the first's frames must survive the commit as chain bases.
            v.apply(ctx, |x| x.as_mut_slice()[0] = 7.0).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert_eq!(second.chain, vec![first.snap_id], "head records its base");
            assert!(first.fetch(ctx, store.store(), 0).is_ok(), "base retained");
            let got = second.fetch(ctx, store.store(), 0).unwrap();
            let want = ctx.encode(&*v.local(ctx).unwrap().lock());
            assert_eq!(&got[..], &want[..], "delta head replays bit-identically");

            // Restoring flips force_full: the next snapshot re-bases (full
            // frames, empty chain) and promotion garbage-collects the
            // superseded head *and* its chain bases.
            store.restore(ctx, &mut [&mut v]).unwrap();
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let third = store.snapshot_of(v.object_id()).unwrap();
            assert!(third.chain.is_empty(), "post-restore snapshot is a full base");
            assert!(second.fetch(ctx, store.store(), 0).is_err(), "old head GC'd");
            assert!(first.fetch(ctx, store.store(), 0).is_err(), "old chain base GC'd");
            assert!(third.fetch(ctx, store.store(), 0).is_ok());
        });
    }

    #[test]
    fn read_only_snapshot_is_reused_across_commits() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();

            assert_eq!(first.snap_id, second.snap_id, "snapshot reused, not recreated");
            assert!(second.fetch(ctx, store.store(), 0).is_ok(), "survived the commit cleanup");
        });
    }

    #[test]
    fn cancel_discards_pending_but_keeps_committed() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 1.0).unwrap();

            store.set_current_iteration(5);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            // A later snapshot attempt is cancelled mid-way.
            v.apply(ctx, |x| x.fill(2.0)).unwrap();
            store.set_current_iteration(9);
            store.start_new_snapshot();
            store.save(ctx, &v).unwrap();
            store.cancel_snapshot(ctx);

            assert_eq!(store.snapshot_iteration(), Some(5), "committed point unchanged");
            store.restore(ctx, &mut [&mut v]).unwrap();
            assert_eq!(v.read_local(ctx).unwrap().as_slice(), &[1.0, 1.0]);
        });
    }

    #[test]
    fn cancel_preserves_reused_read_only_snapshots() {
        run(2, |ctx| {
            let g = ctx.world();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let v = DupVector::make(ctx, 2, &g).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.cancel_snapshot(ctx);

            let snap = store.snapshot_of(v.object_id()).unwrap();
            assert!(snap.fetch(ctx, store.store(), 0).is_ok(), "cancel must not nuke shared data");
        });
    }

    #[test]
    fn read_only_resnapshots_when_replicas_lost() {
        run(4, |ctx| {
            // Group not containing place 0 so the owner can die.
            let g: PlaceGroup =
                [Place::new(1), Place::new(2), Place::new(3)].into_iter().collect();
            let mut store = AppResilientStore::make(ctx).unwrap();
            let mut v = DupVector::make(ctx, 2, &g).unwrap();
            v.init(ctx, |_| 3.0).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let first = store.snapshot_of(v.object_id()).unwrap();

            // Kill both replicas of the read-only snapshot.
            ctx.kill_place(Place::new(1)).unwrap();
            ctx.kill_place(Place::new(2)).unwrap();
            let survivors = g.without(&[Place::new(1), Place::new(2)]);
            v.remake(ctx, &survivors).unwrap();
            v.init(ctx, |_| 3.0).unwrap();

            store.start_new_snapshot();
            store.save_read_only(ctx, &v).unwrap();
            store.commit(ctx).unwrap();
            let second = store.snapshot_of(v.object_id()).unwrap();
            assert_ne!(first.snap_id, second.snap_id, "unreachable snapshot re-created");
        });
    }
}
