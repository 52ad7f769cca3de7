//! Engine observability: a fixed-slot counter registry and an optional
//! packet-lifecycle tracer.
//!
//! Both obey a **zero-perturbation contract**: they observe the engine
//! without feeding anything back into it. Counters are plain `u64` adds on
//! pre-allocated slots (no branches on the hot path beyond the add itself),
//! and the tracer appends into a preallocated buffer behind a single
//! `Option` check — neither touches the RNG, the event wheel, or any
//! scheduling decision, so metrics bytes, store bytes and RNG draw order are
//! byte-identical with observability enabled or disabled. The
//! `obs_equivalence` tests of the engine and `tests/integration_obs.rs`
//! pin this, and the engine's digest corpus pins the counters and traces
//! themselves.

use serde::{Deserialize, Error, Number, Serialize, Value};

/// Version tag embedded in every serialized counter set (`"v"` field).
/// Readers reject tags they do not understand instead of silently
/// misdecoding, mirroring the latency-histogram schema rule.
pub const COUNTERS_FORMAT_VERSION: u64 = 1;

/// The fixed counter slots of the engine. The discriminants are the
/// serialized slot indices, so **never reorder or reuse them** — append new
/// counters at the end and bump [`COUNTERS_FORMAT_VERSION`] only if an
/// existing slot changes meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Output requests produced by head packets (allocation stage).
    AllocRequests = 0,
    /// Requests granted (packet moved input VC → output staging).
    AllocGrants = 1,
    /// Requests denied after the sort: port grant caps, staging filled up,
    /// or the downstream credit vanished between scoring and granting.
    AllocConflicts = 2,
    /// Head-packet candidate lists served from the per-VC cache.
    CandCacheHits = 3,
    /// Head-packet candidate lists that had to be recomputed.
    CandCacheMisses = 4,
    /// Grants that took an escape-tree hop.
    EscapeGrants = 5,
    /// Switches visited by the allocation stage (active-set size per cycle).
    AllocSwitchVisits = 6,
    /// Switches visited by the transmit stage (active-set size per cycle).
    XmitSwitchVisits = 7,
    /// Binomial draws of the rate contract v2 counting sampler.
    BinomialDraws = 8,
    /// Cycles with in-flight packets but zero progress (the watchdog's
    /// evidence trail).
    BlockedCycles = 9,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 10;

    /// Every counter, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::AllocRequests,
        Counter::AllocGrants,
        Counter::AllocConflicts,
        Counter::CandCacheHits,
        Counter::CandCacheMisses,
        Counter::EscapeGrants,
        Counter::AllocSwitchVisits,
        Counter::XmitSwitchVisits,
        Counter::BinomialDraws,
        Counter::BlockedCycles,
    ];

    /// Stable snake_case name, used by `--report --counters` tables.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::AllocRequests => "alloc_requests",
            Counter::AllocGrants => "alloc_grants",
            Counter::AllocConflicts => "alloc_conflicts",
            Counter::CandCacheHits => "cand_cache_hits",
            Counter::CandCacheMisses => "cand_cache_misses",
            Counter::EscapeGrants => "escape_grants",
            Counter::AllocSwitchVisits => "alloc_switch_visits",
            Counter::XmitSwitchVisits => "xmit_switch_visits",
            Counter::BinomialDraws => "binomial_draws",
            Counter::BlockedCycles => "blocked_cycles",
        }
    }
}

/// A fixed-slot set of engine counters.
///
/// Merging is exact per-slot addition — associative and commutative — so
/// folding per-replica or per-worker counter sets in any order yields the
/// same totals, exactly like [`crate::LatencyHistogram`] merging. That is
/// what lets `--report --counters` aggregate replica groups and lets counter
/// fields ride the distributed fold byte-identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    slots: [u64; Counter::COUNT],
}

impl CounterRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `n` to a counter. O(1), no allocation, no branch.
    #[inline(always)]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.slots[counter as usize] += n;
    }

    /// Increments a counter by one.
    #[inline(always)]
    pub fn incr(&mut self, counter: Counter) {
        self.slots[counter as usize] += 1;
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots[counter as usize]
    }

    /// Whether every slot is zero.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&v| v == 0)
    }

    /// Zeroes every slot (measurement-window reset).
    pub fn reset(&mut self) {
        self.slots = [0; Counter::COUNT];
    }

    /// Adds every slot of `other` into `self` (exact addition).
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            *mine += theirs;
        }
    }
}

/// Compact sparse encoding: `{"v":1,"c":[[slot,count],...]}` with occupied
/// slots in ascending order. Ascending order makes the bytes a function of
/// the counts alone, so serialize∘deserialize∘serialize is the identity on
/// bytes and merged stores re-serialize deterministically — the same
/// discipline as the latency-histogram field.
impl Serialize for CounterRegistry {
    fn serialize(&self) -> Value {
        let slots: Vec<Value> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(slot, &count)| {
                Value::Array(vec![
                    Value::Number(Number::UInt(slot as u64)),
                    Value::Number(Number::UInt(count)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "v".to_string(),
                Value::Number(Number::UInt(COUNTERS_FORMAT_VERSION)),
            ),
            ("c".to_string(), Value::Array(slots)),
        ])
    }
}

impl Deserialize for CounterRegistry {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let version = value
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::missing_field("v"))?;
        if version != COUNTERS_FORMAT_VERSION {
            return Err(Error::custom(format!(
                "unsupported counter registry version {version} (this build reads \
                 version {COUNTERS_FORMAT_VERSION})"
            )));
        }
        let Some(Value::Array(slots)) = value.get("c") else {
            return Err(Error::missing_field("c"));
        };
        let mut registry = CounterRegistry::new();
        for entry in slots {
            let Value::Array(pair) = entry else {
                return Err(Error::type_mismatch("[slot, count] pair", entry));
            };
            let (slot, count) = match pair.as_slice() {
                [slot, count] => (
                    slot.as_u64()
                        .ok_or_else(|| Error::type_mismatch("counter slot", slot))?,
                    count
                        .as_u64()
                        .ok_or_else(|| Error::type_mismatch("counter count", count))?,
                ),
                _ => return Err(Error::custom("counter entry is not a pair")),
            };
            if slot as usize >= Counter::COUNT {
                return Err(Error::custom(format!("counter slot {slot} out of range")));
            }
            registry.slots[slot as usize] += count;
        }
        Ok(registry)
    }
}

/// The lifecycle stages a traced packet passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Accepted into its source server's queue.
    Inject,
    /// Granted an output (crossbar traversal committed), VC chosen.
    Grant,
    /// Landed in an input VC of a switch after crossing a link.
    Hop,
    /// Consumed by its destination server.
    Deliver,
    /// Lost an allocation round after requesting (conflict or credit loss).
    Block,
}

impl TraceEventKind {
    /// Stable snake_case name used in the trace sidecar.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Inject => "inject",
            TraceEventKind::Grant => "grant",
            TraceEventKind::Hop => "hop",
            TraceEventKind::Deliver => "deliver",
            TraceEventKind::Block => "block",
        }
    }
}

/// One packet-lifecycle event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Packet id.
    pub packet: u64,
    /// Lifecycle stage.
    pub kind: TraceEventKind,
    /// The switch involved (source switch for injects, destination switch
    /// for deliveries).
    pub switch: u64,
    /// Switch-to-switch hops taken so far.
    pub hops: u64,
    /// Escape-tree hops taken so far.
    pub escape_hops: u64,
}

/// A preallocated bounded buffer of [`TraceEvent`]s.
///
/// The buffer never grows on the hot path: capacity is reserved up front and
/// events past capacity are dropped (and counted), keeping the earliest —
/// complete — packet lifecycles. Recording is an index bump and a copy.
#[derive(Debug)]
pub struct PacketTracer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl PacketTracer {
    /// Default event capacity used by campaign tracing.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A tracer holding up to `capacity` events (allocated immediately).
    pub fn with_capacity(capacity: usize) -> Self {
        PacketTracer {
            events: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Records one event; drops (and counts) it if the buffer is full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the recorded events out, leaving the tracer empty.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Default for PacketTracer {
    fn default() -> Self {
        PacketTracer::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_of(pairs: &[(Counter, u64)]) -> CounterRegistry {
        let mut r = CounterRegistry::new();
        for &(c, n) in pairs {
            r.add(c, n);
        }
        r
    }

    #[test]
    fn slot_names_and_order_are_stable() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (slot, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, slot, "{counter:?} moved slots");
        }
        assert_eq!(Counter::AllocRequests.name(), "alloc_requests");
        assert_eq!(Counter::BlockedCycles.name(), "blocked_cycles");
    }

    #[test]
    fn add_get_reset_round_trip() {
        let mut r = CounterRegistry::new();
        assert!(r.is_empty());
        r.add(Counter::AllocGrants, 7);
        r.incr(Counter::AllocGrants);
        assert_eq!(r.get(Counter::AllocGrants), 8);
        assert!(!r.is_empty());
        r.reset();
        assert!(r.is_empty());
    }

    #[test]
    fn merge_is_exact_slot_addition() {
        let mut a = registry_of(&[(Counter::AllocRequests, 3), (Counter::EscapeGrants, 1)]);
        let b = registry_of(&[(Counter::AllocRequests, 2), (Counter::BlockedCycles, 5)]);
        a.merge(&b);
        assert_eq!(a.get(Counter::AllocRequests), 5);
        assert_eq!(a.get(Counter::EscapeGrants), 1);
        assert_eq!(a.get(Counter::BlockedCycles), 5);
    }

    #[test]
    fn serializes_sparse_and_round_trips_byte_identically() {
        let r = registry_of(&[
            (Counter::AllocRequests, 10),
            (Counter::CandCacheHits, 4),
            (Counter::BlockedCycles, 2),
        ]);
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(json, r#"{"v":1,"c":[[0,10],[3,4],[9,2]]}"#);
        let back: CounterRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn rejects_unknown_versions_and_bad_slots() {
        assert!(serde_json::from_str::<CounterRegistry>(r#"{"v":2,"c":[]}"#).is_err());
        assert!(serde_json::from_str::<CounterRegistry>(r#"{"v":1,"c":[[10,1]]}"#).is_err());
        assert!(serde_json::from_str::<CounterRegistry>(r#"{"v":1,"c":[[1]]}"#).is_err());
        assert!(serde_json::from_str::<CounterRegistry>(r#"{"v":1}"#).is_err());
    }

    #[test]
    fn tracer_caps_at_capacity_and_counts_drops() {
        let mut tracer = PacketTracer::with_capacity(2);
        for i in 0..5 {
            tracer.record(TraceEvent {
                cycle: i,
                packet: i,
                kind: TraceEventKind::Hop,
                switch: 0,
                hops: 0,
                escape_hops: 0,
            });
        }
        assert_eq!(tracer.events().len(), 2);
        assert_eq!(tracer.dropped(), 3);
        assert_eq!(tracer.events()[0].cycle, 0);
        let taken = tracer.take_events();
        assert_eq!(taken.len(), 2);
        assert!(tracer.events().is_empty());
    }
}
