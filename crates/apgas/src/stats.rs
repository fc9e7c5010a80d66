//! Runtime activity counters.
//!
//! These make the resilience costs the paper talks about *observable*: the
//! number of place-zero bookkeeping messages (the source of resilient-X10
//! overhead in Figs 2–4), the number of bytes serialized across places
//! (the source of checkpoint/restore cost in Table III and Figs 5–7) and
//! what the checkpoint codec turned those bytes into.
//!
//! Every counter is declared once, in the `counters!` table below, with
//! its field name, Prometheus family and help text. The table generates
//! [`RuntimeStats`] and [`StatsSnapshot`]; `snapshot`, `since`, `merged`,
//! the row sum and [`StatsSnapshot::entries`] work over all of it, so the
//! cost report, the Prometheus endpoint and post-mortem bundles pick up a
//! new counter with no other edit.

use std::sync::atomic::{AtomicU64, Ordering};

/// One declared runtime counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// Field name on [`RuntimeStats`] and [`StatsSnapshot`]; also the
    /// counter's JSON key.
    pub name: &'static str,
    /// Prometheus sample name. Counters that share a family carry a label
    /// set (`gml_ckpt_frames_total{kind="full"}`) and are rendered under
    /// one family header.
    pub family: &'static str,
    /// Prometheus help text (the family's, for labelled samples).
    pub help: &'static str,
}

impl Counter {
    /// The family name without its label set.
    pub fn family_name(&self) -> &'static str {
        self.family.split('{').next().unwrap_or(self.family)
    }
}

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident => $family:literal, $help:literal;)+) => {
        /// Monotonic counters maintained by the runtime. Cheap to update;
        /// read them with [`RuntimeStats::snapshot`].
        #[derive(Default)]
        pub struct RuntimeStats {
            $(#[doc = $help] $(#[doc = $doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`RuntimeStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[doc = $help] $(#[doc = $doc])* pub $name: u64,)+
        }

        /// Every declared counter, in declaration order.
        pub const COUNTERS: [Counter; COUNTER_COUNT] =
            [$(Counter { name: stringify!($name), family: $family, help: $help },)+];

        /// How many counters the table declares.
        pub const COUNTER_COUNT: usize = [$(stringify!($name),)+].len();

        impl StatsSnapshot {
            /// The counter values, in declaration order.
            pub fn values(&self) -> [u64; COUNTER_COUNT] {
                [$(self.$name,)+]
            }

            /// The snapshot holding `values`, given in declaration order.
            pub fn from_values(values: [u64; COUNTER_COUNT]) -> Self {
                let [$($name,)+] = values;
                StatsSnapshot { $($name,)+ }
            }
        }

        impl RuntimeStats {
            /// A point-in-time copy of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }
    };
}

counters! {
    tasks_spawned => "gml_tasks_spawned_total", "Tasks spawned via at/async_at.";
    at_calls => "gml_at_calls_total", "Synchronous at() round trips.";
    /// Each is a synchronous round trip to place zero in resilient mode.
    ctl_spawns => "gml_ctl_spawns_total", "Resilient-finish spawn records at place zero.";
    ctl_terms => "gml_ctl_terms_total", "Resilient-finish termination records.";
    ctl_waits => "gml_ctl_waits_total", "Resilient-finish wait registrations.";
    /// Maintained by the data layers via [`crate::runtime::Ctx::record_bytes`].
    bytes_shipped => "gml_bytes_shipped_total", "Payload bytes serialized for a place crossing.";
    /// Maintained via [`crate::runtime::Ctx::record_bytes_received`] at
    /// every receive site, mirroring `bytes_shipped`: the two are equal in a
    /// failure-free run; under failure, payloads shipped to a place that
    /// died in flight count as shipped but never as received.
    bytes_received => "gml_bytes_received_total", "Payload bytes landed at a receiving place.";
    /// Maintained via [`crate::runtime::Ctx::encode`].
    encode_nanos => "gml_encode_nanos_total", "Wall nanoseconds spent encoding payloads.";
    /// Maintained via [`crate::runtime::Ctx::decode`].
    decode_nanos => "gml_decode_nanos_total", "Wall nanoseconds spent decoding payloads.";
    failures => "gml_failures_total", "Fail-stop place failures injected.";
    places_spawned => "gml_places_spawned_total", "Places created elastically at runtime.";
    /// Each replay attempt beyond the first counts once.
    task_replays => "gml_task_replays_total", "Task bodies replayed after a panic or timeout.";
    task_timeouts => "gml_task_timeouts_total", "Task attempts abandoned on a policy deadline.";
    /// Each is a silent error caught by replication.
    task_vote_mismatches => "gml_task_vote_mismatches_total",
        "Replica digest votes with at least one dissenting replica.";
    /// Zero on raw-codec stores, which frame nothing.
    ckpt_logical_bytes => "gml_ckpt_logical_bytes_total",
        "Checkpoint payload bytes fed to the codec (pre-codec).";
    ckpt_wire_bytes => "gml_ckpt_wire_bytes_total",
        "Checkpoint frame bytes the codec emitted (post-codec).";
    /// Full base frames.
    ckpt_frames_full => "gml_ckpt_frames_total{kind=\"full\"}",
        "Checkpoint codec frames emitted, by kind (a lossy frame is also full or delta).";
    /// Delta frames.
    ckpt_frames_delta => "gml_ckpt_frames_total{kind=\"delta\"}",
        "Checkpoint codec frames emitted, by kind (a lossy frame is also full or delta).";
    /// Frames whose payload was lossily quantized.
    ckpt_frames_lossy => "gml_ckpt_frames_total{kind=\"lossy\"}",
        "Checkpoint codec frames emitted, by kind (a lossy frame is also full or delta).";
    codec_encode_nanos => "gml_ckpt_encode_nanos_total",
        "Wall nanoseconds the checkpoint codec spent encoding frames.";
    /// Delta-chain replay included.
    codec_decode_nanos => "gml_ckpt_decode_nanos_total",
        "Wall nanoseconds the checkpoint codec spent decoding frames.";
    /// Charged at the owning place around each batched backup `at`, so
    /// saves at different places add up their busy time.
    ckpt_ship_nanos => "gml_ckpt_ship_nanos_total",
        "Wall nanoseconds checkpoint saves spent shipping backup copies.";
}

impl StatsSnapshot {
    /// Total place-zero bookkeeping messages (the resilient-finish funnel).
    pub fn ctl_total(&self) -> u64 {
        self.ctl_spawns + self.ctl_terms + self.ctl_waits
    }

    /// Every declared counter with its value, in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static Counter, u64)> {
        COUNTERS.iter().zip(self.values())
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Counter-wise sum `self + other`: undoes [`since`](Self::since), and
    /// folds a run of row deltas back into the total they were cut from.
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        self.zip_with(other, |a, b| a + b)
    }

    fn zip_with(&self, other: &StatsSnapshot, f: impl Fn(u64, u64) -> u64) -> StatsSnapshot {
        let (a, b) = (self.values(), other.values());
        StatsSnapshot::from_values(std::array::from_fn(|i| f(a[i], b[i])))
    }
}

/// Counter-wise sum of many deltas (e.g. the rows of a cost report).
impl<'a> std::iter::Sum<&'a StatsSnapshot> for StatsSnapshot {
    fn sum<I: Iterator<Item = &'a StatsSnapshot>>(iter: I) -> Self {
        iter.fold(StatsSnapshot::default(), |acc, s| acc.merged(s))
    }
}

/// `wire / logical` bytes, or 1.0 when nothing was encoded.
pub fn wire_ratio(logical: u64, wire: u64) -> f64 {
    if logical == 0 {
        1.0
    } else {
        wire as f64 / logical as f64
    }
}

impl RuntimeStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose every declared counter holds `f(declaration index)`.
    fn filled(f: impl Fn(u64) -> u64) -> StatsSnapshot {
        StatsSnapshot::from_values(std::array::from_fn(|i| f(i as u64)))
    }

    #[test]
    fn snapshot_and_diff() {
        let s = RuntimeStats::default();
        RuntimeStats::bump(&s.tasks_spawned);
        RuntimeStats::add(&s.bytes_shipped, 100);
        let a = s.snapshot();
        RuntimeStats::bump(&s.tasks_spawned);
        RuntimeStats::bump(&s.ctl_spawns);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tasks_spawned, 1);
        assert_eq!(d.ctl_spawns, 1);
        assert_eq!(d.bytes_shipped, 0);
        assert_eq!(b.ctl_total(), 1);
    }

    #[test]
    fn since_is_counterwise_exact() {
        // Counters not named below get distinct, declaration-driven values,
        // so every declared counter is covered.
        let earlier = StatsSnapshot {
            tasks_spawned: 10,
            at_calls: 4,
            ctl_spawns: 3,
            ctl_terms: 3,
            ctl_waits: 1,
            bytes_shipped: 1_000,
            bytes_received: 900,
            encode_nanos: 50,
            decode_nanos: 40,
            failures: 1,
            places_spawned: 0,
            task_replays: 2,
            task_timeouts: 1,
            task_vote_mismatches: 0,
            ..filled(|i| 1_000 * i)
        };
        let later = StatsSnapshot {
            tasks_spawned: 25,
            at_calls: 9,
            ctl_spawns: 8,
            ctl_terms: 7,
            ctl_waits: 3,
            bytes_shipped: 4_000,
            bytes_received: 3_900,
            encode_nanos: 75,
            decode_nanos: 60,
            failures: 2,
            places_spawned: 1,
            task_replays: 5,
            task_timeouts: 2,
            task_vote_mismatches: 1,
            ..filled(|i| 1_000 * i + i + 1)
        };
        let d = later.since(&earlier);
        assert_eq!(d.tasks_spawned, 15);
        assert_eq!(d.at_calls, 5);
        assert_eq!(d.ctl_spawns, 5);
        assert_eq!(d.ctl_terms, 4);
        assert_eq!(d.ctl_waits, 2);
        assert_eq!(d.bytes_shipped, 3_000);
        assert_eq!(d.bytes_received, 3_000);
        assert_eq!(d.encode_nanos, 25);
        assert_eq!(d.decode_nanos, 20);
        assert_eq!(d.failures, 1);
        assert_eq!(d.places_spawned, 1);
        assert_eq!(d.task_replays, 3);
        assert_eq!(d.task_timeouts, 1);
        assert_eq!(d.task_vote_mismatches, 1);
        assert_eq!(d.ctl_total(), 11, "ctl_total sums the three ctl deltas");
        let (e, l) = (earlier.values(), later.values());
        for (i, (c, v)) in d.entries().enumerate() {
            assert!(v > 0, "{} did not advance", c.name);
            assert_eq!(v, l[i] - e[i], "{}", c.name);
        }
        assert_eq!(d.merged(&earlier), later, "merged undoes since");
        assert_eq!([earlier, d].iter().sum::<StatsSnapshot>(), later, "the row sum is merged");
    }

    #[test]
    fn since_saturates_when_counters_reset() {
        // A snapshot taken before a counter reset (e.g. comparing across two
        // separate runtimes) can be "ahead" of the later one; the delta must
        // clamp field-wise at zero, never wrap.
        let before_reset = StatsSnapshot {
            tasks_spawned: 100,
            at_calls: 50,
            ctl_spawns: 30,
            ctl_terms: 30,
            ctl_waits: 10,
            bytes_shipped: 1 << 30,
            bytes_received: 1 << 30,
            encode_nanos: u64::MAX,
            decode_nanos: 7,
            failures: 3,
            places_spawned: 2,
            task_replays: 4,
            task_timeouts: 2,
            task_vote_mismatches: 1,
            ..filled(|i| u64::MAX - i)
        };
        let after_reset = StatsSnapshot { tasks_spawned: 5, decode_nanos: 9, ..Default::default() };
        let d = after_reset.since(&before_reset);
        assert_eq!(d.tasks_spawned, 0, "100 -> 5 saturates, does not wrap");
        assert_eq!(d.at_calls, 0);
        assert_eq!(d.ctl_total(), 0);
        assert_eq!(d.bytes_shipped, 0);
        assert_eq!(d.encode_nanos, 0, "even a u64::MAX earlier value saturates");
        assert_eq!(d.decode_nanos, 2, "fields that did advance still diff exactly");
        assert_eq!(d.failures, 0);
        for (c, v) in d.entries().filter(|(c, _)| c.name != "decode_nanos") {
            assert_eq!(v, 0, "{} must saturate at zero", c.name);
        }
    }

    #[test]
    fn ctl_total_zero_and_mixed() {
        assert_eq!(StatsSnapshot::default().ctl_total(), 0);
        let s = StatsSnapshot { ctl_spawns: 2, ctl_terms: 0, ctl_waits: 5, ..Default::default() };
        assert_eq!(s.ctl_total(), 7);
    }

    #[test]
    fn declaration_names_are_unique_prometheus_counters() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert!(COUNTERS[..i].iter().all(|o| o.name != c.name && o.family != c.family));
            assert!(c.family_name().starts_with("gml_") && c.family_name().ends_with("_total"));
            assert!(!c.help.is_empty(), "{} has no help text", c.name);
        }
        assert_eq!(COUNTERS[0].name, "tasks_spawned");
        assert_eq!(COUNTER_COUNT, COUNTERS.len());
        assert_eq!(wire_ratio(0, 0), 1.0);
        assert_eq!(wire_ratio(8, 2), 0.25);
    }
}
