//! The VM-behaviour repository.
//!
//! "In the absence of interference, the analyzer updates the repository of
//! VM behaviors with this new information" (§4).  The repository is keyed by
//! application (VMs running the same code share behaviours — that is what
//! makes the global information check and the Zipf scalability results work)
//! and stores two kinds of entries: verified *normal* behaviours, which seed
//! the warning system's clusters, and *interference* behaviours, which
//! become cannot-link constraints.
//!
//! Section 5.5 notes the footprint is tiny — "less than 5 KB to record the
//! VM's behavior for the whole day" even for a VM analyzed hourly — and this
//! module exposes the same accounting so the memory-overhead table can be
//! regenerated.

use std::collections::{HashMap, VecDeque};

use analytics::constrained::LabelledBehaviour;
use serde::{Error, Value};
use workloads::AppId;

use crate::metrics::{BehaviorVector, DIMENSIONS};

/// A stored behaviour together with its label.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredBehavior {
    /// The normalized behaviour vector.
    pub behavior: BehaviorVector,
    /// True when the analyzer confirmed this behaviour was interference.
    pub interference: bool,
    /// Epoch at which the behaviour was recorded.
    pub epoch: u64,
}

/// Per-application behaviour store.
///
/// Entries live in a ring buffer so capacity eviction is O(1), and every
/// mutation bumps a [generation counter](Self::generation) so readers (the
/// warning system) can detect staleness in O(1) without comparing contents.
/// The generation counts *records*, not retained entries: once the store is
/// at capacity its length stops changing but the generation keeps advancing,
/// which is what makes the staleness check sound.
#[derive(Debug, Clone, Default)]
pub struct AppBehaviors {
    entries: VecDeque<StoredBehavior>,
    generation: u64,
}

/// An always-empty store, returned by [`BehaviorRepository::behaviors`] for
/// applications that were never analyzed (so the accessor can always hand
/// out a reference instead of cloning).
static EMPTY_APP_BEHAVIORS: AppBehaviors = AppBehaviors {
    entries: VecDeque::new(),
    generation: 0,
};

impl AppBehaviors {
    /// Confirmed-interference behaviours only.
    pub fn interference(&self) -> Vec<&BehaviorVector> {
        self.entries
            .iter()
            .filter(|e| e.interference)
            .map(|e| &e.behavior)
            .collect()
    }

    /// All entries as labelled points for the constrained clustering code.
    ///
    /// Allocates a fresh vector per call; the hot path uses
    /// [`Self::labelled_into`] with a reused buffer instead.
    pub fn labelled(&self) -> Vec<LabelledBehaviour> {
        let mut out = Vec::new();
        self.labelled_into(&mut out);
        out
    }

    /// Fills `out` with the labelled points, reusing both the outer buffer
    /// and the per-entry metric vectors already allocated in it, so repeated
    /// refreshes through the same scratch buffer stop allocating once the
    /// buffer has grown to the store's size.
    pub fn labelled_into(&self, out: &mut Vec<LabelledBehaviour>) {
        out.truncate(self.entries.len());
        let reused = out.len();
        for (slot, e) in out.iter_mut().zip(self.entries.iter()) {
            slot.metrics.clear();
            slot.metrics.extend_from_slice(&e.behavior.values);
            slot.interference = e.interference;
        }
        for e in self.entries.iter().skip(reused) {
            out.push(LabelledBehaviour {
                metrics: e.behavior.to_vec(),
                interference: e.interference,
            });
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic mutation counter: bumped on every record, including records
    /// that evicted an old entry.  Equal generations imply identical
    /// contents, so a reader can skip re-processing in O(1).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

// The generation counter is bookkeeping, not content: two stores holding
// the same entries are equal regardless of how many evictions it took each
// of them to get there.
impl PartialEq for AppBehaviors {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

// The durable-store wire format, written out by hand: the repository is the
// only typed data this workspace serializes.  `tests/persistence.rs` pins the
// exact text.

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

impl StoredBehavior {
    fn to_value(&self) -> Value {
        let values = self.behavior.values.iter().map(|x| Value::F64(*x));
        object([
            (
                "behavior",
                object([("values", Value::Array(values.collect()))]),
            ),
            ("interference", Value::Bool(self.interference)),
            ("epoch", Value::U64(self.epoch)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        let values = v.field("behavior")?.field("values")?.as_array()?;
        if values.len() != DIMENSIONS {
            return Err(Error::new(format!(
                "expected {DIMENSIONS} behaviour values, found {}",
                values.len()
            )));
        }
        let mut behavior = BehaviorVector {
            values: [0.0; DIMENSIONS],
        };
        for (slot, value) in behavior.values.iter_mut().zip(values) {
            *slot = value.as_f64()?;
        }
        Ok(Self {
            behavior,
            interference: v.field("interference")?.as_bool()?,
            epoch: v.field("epoch")?.as_u64()?,
        })
    }
}

// The entries keep the pre-ring-buffer `"entries": [...]` layout (the ring
// buffer is written as a plain JSON array).  The generation counter is
// persisted too, so "equal generations imply identical contents" holds
// across a save/restore: a reader (e.g. a live `WarningSystem`) that cached
// state at generation G stays correct against the restored store, because
// generation G still names exactly the contents it was fitted on and any
// post-restore record moves past it.  Restoring at `entries.len()` instead
// could *re-collide* with a pre-save generation after evictions.  Legacy
// payloads without the field fall back to the entry count.
impl AppBehaviors {
    fn to_value(&self) -> Value {
        let entries = self.entries.iter().map(StoredBehavior::to_value);
        object([
            ("entries", Value::Array(entries.collect())),
            ("generation", Value::U64(self.generation)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.field("entries")?.as_array()?;
        let entries: VecDeque<StoredBehavior> = entries
            .iter()
            .map(StoredBehavior::from_value)
            .collect::<Result<_, _>>()?;
        let generation = match v.get("generation") {
            Some(g) => g.as_u64()?,
            None => entries.len() as u64,
        };
        Ok(Self {
            entries,
            generation,
        })
    }
}

/// The repository: per-application behaviour history.
#[derive(Debug, Clone, Default)]
pub struct BehaviorRepository {
    apps: HashMap<u64, AppBehaviors>,
    /// Maximum entries retained per application (oldest evicted first).
    capacity_per_app: usize,
}

/// Default retention: at one verified behaviour per hour this is roughly two
/// weeks of history, well under the 5 KB/day budget of §5.5.
pub const DEFAULT_CAPACITY_PER_APP: usize = 512;

impl BehaviorRepository {
    /// Creates an empty repository with the default per-application capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY_PER_APP)
    }

    /// Creates an empty repository with an explicit per-application capacity.
    ///
    /// # Panics
    /// Panics if the capacity is zero.
    pub fn with_capacity(capacity_per_app: usize) -> Self {
        assert!(capacity_per_app > 0, "capacity must be positive");
        Self {
            apps: HashMap::new(),
            capacity_per_app,
        }
    }

    /// Records a verified-normal behaviour for an application.
    pub fn record_normal(&mut self, app: AppId, behavior: BehaviorVector, epoch: u64) {
        self.record(app, behavior, false, epoch);
    }

    /// Records a confirmed-interference behaviour for an application.
    pub fn record_interference(&mut self, app: AppId, behavior: BehaviorVector, epoch: u64) {
        self.record(app, behavior, true, epoch);
    }

    fn record(&mut self, app: AppId, behavior: BehaviorVector, interference: bool, epoch: u64) {
        debug_assert!(behavior.is_well_formed(), "storing malformed behaviour");
        let store = self.apps.entry(app.0).or_default();
        store.entries.push_back(StoredBehavior {
            behavior,
            interference,
            epoch,
        });
        while store.entries.len() > self.capacity_per_app {
            store.entries.pop_front();
        }
        store.generation += 1;
    }

    /// Behaviours known for an application (a shared empty store if never
    /// seen).  Borrowed, not cloned: callers read the history in place.
    pub fn behaviors(&self, app: AppId) -> &AppBehaviors {
        self.apps.get(&app.0).unwrap_or(&EMPTY_APP_BEHAVIORS)
    }

    /// The application's mutation generation (0 if never seen) — the O(1)
    /// staleness check backing [`crate::warning::WarningSystem::refresh_model`].
    pub fn generation(&self, app: AppId) -> u64 {
        self.apps.get(&app.0).map(|s| s.generation).unwrap_or(0)
    }

    /// Number of verified-normal behaviours for an application.
    pub fn normal_count(&self, app: AppId) -> usize {
        self.apps
            .get(&app.0)
            .map(|s| s.entries.iter().filter(|e| !e.interference).count())
            .unwrap_or(0)
    }

    /// Applications with at least one stored behaviour, in ascending id
    /// order (never hash order — callers sum footprints and drive figure
    /// sweeps off this list).
    pub fn known_apps(&self) -> Vec<AppId> {
        // Hash-order collection, sorted on the next line.  simlint: order-independent
        let mut apps: Vec<AppId> = self.apps.keys().map(|k| AppId(*k)).collect();
        apps.sort();
        apps
    }

    /// Approximate in-memory footprint of one application's history, in
    /// bytes (behaviour payload + label + epoch).  This is the quantity the
    /// paper bounds at "less than 5 KB ... for the whole day" (§5.5).
    pub fn footprint_bytes(&self, app: AppId) -> usize {
        self.apps
            .get(&app.0)
            .map(|s| {
                s.entries
                    .iter()
                    .map(|e| {
                        e.behavior.footprint_bytes()
                            + std::mem::size_of::<bool>()
                            + std::mem::size_of::<u64>()
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Total footprint across all applications, in bytes.
    pub fn total_footprint_bytes(&self) -> usize {
        self.known_apps()
            .iter()
            .map(|a| self.footprint_bytes(*a))
            .sum()
    }

    /// Serializes the repository to JSON (the durable NoSQL-store stand-in).
    /// Applications are written in the string order of their ids (`"10"`
    /// before `"2"`), whatever the hasher.
    pub fn to_json(&self) -> String {
        // Hash-order walk, sorted two lines down.  simlint: order-independent
        let apps = self.apps.iter();
        let mut apps: Vec<(String, Value)> = apps
            .map(|(app, store)| (app.to_string(), store.to_value()))
            .collect();
        apps.sort_by(|a, b| a.0.cmp(&b.0));
        let doc = object([
            ("apps", Value::Object(apps)),
            ("capacity_per_app", Value::U64(self.capacity_per_app as u64)),
        ]);
        // The codec refuses only non-finite floats, and every stored value is
        // finite: `record` takes well-formed behaviours (debug-asserted) and
        // `from_json`'s parser rejects numbers that overflow an `f64`.
        serde_json::to_string(&doc).expect("repository serializes")
    }

    /// Restores a repository from JSON produced by [`Self::to_json`].  A
    /// payload of the wrong shape — or one [`Self::with_capacity`] would
    /// refuse, such as a zero capacity — is an error, never a panic.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let doc = serde_json::from_str(json)?;
        let capacity_per_app = usize::try_from(doc.field("capacity_per_app")?.as_u64()?)
            .ok()
            .filter(|capacity| *capacity > 0)
            .ok_or_else(|| Error::new("capacity_per_app must be a positive `usize`"))?;
        let apps = doc
            .field("apps")?
            .as_object()?
            .iter()
            .map(|(key, store)| {
                let app: u64 = key
                    .parse()
                    .map_err(|_| Error::new(format!("invalid application id `{key}`")))?;
                Ok((app, AppBehaviors::from_value(store)?))
            })
            .collect::<Result<_, Error>>()?;
        Ok(Self {
            apps,
            capacity_per_app,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DIMENSIONS;

    fn behavior(v: f64) -> BehaviorVector {
        BehaviorVector::from_vec(&[v; DIMENSIONS])
    }

    #[test]
    fn records_and_separates_normal_from_interference() {
        let mut repo = BehaviorRepository::new();
        let app = AppId(3);
        assert!(repo.behaviors(app).is_empty());
        repo.record_normal(app, behavior(1.0), 0);
        repo.record_normal(app, behavior(1.1), 1);
        repo.record_interference(app, behavior(9.0), 2);
        assert_eq!(repo.normal_count(app), 2);
        let stored = repo.behaviors(app);
        assert_eq!(stored.interference().len(), 1);
        assert_eq!(stored.labelled().len(), 3);
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let mut repo = BehaviorRepository::with_capacity(3);
        let app = AppId(1);
        for i in 0..5 {
            repo.record_normal(app, behavior(i as f64), i);
        }
        let stored = repo.behaviors(app);
        assert_eq!(stored.len(), 3);
        assert_eq!(stored.labelled()[0].metrics[0], 2.0);
    }

    #[test]
    fn unknown_apps_report_empty_behaviors() {
        let repo = BehaviorRepository::new();
        assert!(repo.behaviors(AppId(9)).is_empty());
        assert_eq!(repo.normal_count(AppId(9)), 0);
        assert_eq!(repo.footprint_bytes(AppId(9)), 0);
    }

    #[test]
    fn daily_footprint_stays_under_paper_budget() {
        // A VM experiencing interference every hour stores 24 behaviours per
        // day; the paper bounds this at 5 KB (§5.5).
        let mut repo = BehaviorRepository::new();
        let app = AppId(7);
        for hour in 0..24 {
            repo.record_normal(app, behavior(hour as f64), hour * 3_600);
        }
        let bytes = repo.footprint_bytes(app);
        assert!(
            bytes < 5 * 1024,
            "daily footprint {bytes} bytes exceeds 5 KB"
        );
        assert!(bytes > 0);
    }

    #[test]
    fn known_apps_are_sorted_and_complete() {
        let mut repo = BehaviorRepository::new();
        repo.record_normal(AppId(5), behavior(1.0), 0);
        repo.record_normal(AppId(2), behavior(1.0), 0);
        assert_eq!(repo.known_apps(), vec![AppId(2), AppId(5)]);
        assert_eq!(
            repo.total_footprint_bytes(),
            repo.footprint_bytes(AppId(2)) + repo.footprint_bytes(AppId(5))
        );
    }

    #[test]
    fn generation_advances_on_every_record_even_at_capacity() {
        let mut repo = BehaviorRepository::with_capacity(2);
        let app = AppId(4);
        assert_eq!(repo.generation(app), 0);
        for i in 0..5u64 {
            repo.record_normal(app, behavior(i as f64), i);
            assert_eq!(repo.generation(app), i + 1);
        }
        // Length saturates at capacity, but the generation keeps moving —
        // that is what lets readers detect churn in a full store.
        assert_eq!(repo.behaviors(app).len(), 2);
        assert_eq!(repo.behaviors(app).generation(), 5);
    }

    #[test]
    fn labelled_into_reuses_buffers_and_matches_labelled() {
        let mut repo = BehaviorRepository::new();
        let app = AppId(6);
        repo.record_normal(app, behavior(1.0), 0);
        repo.record_interference(app, behavior(7.0), 1);
        let mut buf = Vec::new();
        repo.behaviors(app).labelled_into(&mut buf);
        assert_eq!(buf, repo.behaviors(app).labelled());
        // Refill through the same buffer after growth: contents stay exact.
        repo.record_normal(app, behavior(2.0), 2);
        repo.behaviors(app).labelled_into(&mut buf);
        assert_eq!(buf, repo.behaviors(app).labelled());
        // Shrunk source (fresh app) truncates the buffer.
        let other = AppId(7);
        repo.record_normal(other, behavior(3.0), 3);
        repo.behaviors(other).labelled_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf, repo.behaviors(other).labelled());
    }

    #[test]
    fn equality_ignores_the_generation_counter() {
        let mut evicted = BehaviorRepository::with_capacity(1);
        let mut fresh = BehaviorRepository::with_capacity(1);
        let app = AppId(8);
        evicted.record_normal(app, behavior(0.0), 0);
        evicted.record_normal(app, behavior(5.0), 1);
        fresh.record_normal(app, behavior(5.0), 1);
        assert_eq!(evicted.behaviors(app), fresh.behaviors(app));
        assert_ne!(
            evicted.behaviors(app).generation(),
            fresh.behaviors(app).generation()
        );
    }

    #[test]
    fn json_round_trip_preserves_contents() {
        let mut repo = BehaviorRepository::new();
        repo.record_normal(AppId(1), behavior(1.5), 3);
        repo.record_interference(AppId(1), behavior(8.0), 4);
        let restored = BehaviorRepository::from_json(&repo.to_json()).unwrap();
        assert_eq!(restored.behaviors(AppId(1)), repo.behaviors(AppId(1)));
    }

    #[test]
    fn json_round_trip_preserves_the_generation_counter() {
        // Evictions push the generation past the length; a restore must not
        // rewind it, or a reader's cached generation could collide with
        // different contents after post-restore records.
        let mut repo = BehaviorRepository::with_capacity(2);
        for i in 0..5u64 {
            repo.record_normal(AppId(1), behavior(i as f64), i);
        }
        let restored = BehaviorRepository::from_json(&repo.to_json()).unwrap();
        assert_eq!(restored.generation(AppId(1)), repo.generation(AppId(1)));
        assert_eq!(restored.generation(AppId(1)), 5);
    }

    #[test]
    fn legacy_json_without_generation_still_parses() {
        let mut repo = BehaviorRepository::new();
        repo.record_normal(AppId(1), behavior(1.0), 0);
        // Strip the generation field to emulate a pre-counter payload.
        let legacy = repo.to_json().replace(",\"generation\":1", "");
        assert!(!legacy.contains("generation"));
        let restored = BehaviorRepository::from_json(&legacy).unwrap();
        assert_eq!(restored.behaviors(AppId(1)), repo.behaviors(AppId(1)));
        assert_eq!(restored.generation(AppId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        BehaviorRepository::with_capacity(0);
    }
}
