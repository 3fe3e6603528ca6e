//! The Haswell address-translation hardware event counters (paper, Table 2).

use counterpoint_mudd::CounterSpace;
use serde::{Serialize, Value};
use std::fmt;

/// Whether a μop (and therefore its HECs) is a load or a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum AccessType {
    /// Load μops (`load.*` counters, `mem_uops_retired.all_loads`, ...).
    Load,
    /// Store μops (`store.*` counters).
    Store,
}

impl AccessType {
    /// The two access types, in canonical order.
    pub const ALL: [AccessType; 2] = [AccessType::Load, AccessType::Store];

    /// The prefix used in counter names (`load` / `store`).
    pub fn prefix(&self) -> &'static str {
        match self {
            AccessType::Load => "load",
            AccessType::Store => "store",
        }
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// The counter groups of the paper's Table 2 / Figures 1b and 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum HecGroup {
    /// Retirement counters (`T.ret`, `T.ret_stlb_miss`) — 4 counters.
    Ret,
    /// Second-level TLB hit counters (`T.stlb_hit*`) — 6 counters.
    Stlb,
    /// Page-walk counters (`T.causes_walk`, `T.walk_done*`, `T.pde$_miss`) — 12
    /// counters.
    Walk,
    /// Page-walker memory-reference counters (`walk_ref.*`) — 4 counters.
    Refs,
}

impl HecGroup {
    /// All groups in the cumulative order used on the x-axes of Figures 1b and 9.
    pub const ALL: [HecGroup; 4] = [
        HecGroup::Ret,
        HecGroup::Stlb,
        HecGroup::Walk,
        HecGroup::Refs,
    ];

    /// Short label used in figures (`Ret`, `L2TLB`, `Walk`, `Refs`).
    pub fn label(&self) -> &'static str {
        match self {
            HecGroup::Ret => "Ret",
            HecGroup::Stlb => "L2TLB",
            HecGroup::Walk => "Walk",
            HecGroup::Refs => "Refs",
        }
    }

    /// The counter names belonging to this group, in [`EVENTS`] order.
    pub fn counters(&self) -> Vec<&'static str> {
        EVENTS
            .iter()
            .filter(|e| e.group == *self)
            .map(|e| e.name)
            .collect()
    }

    /// The full Linux-perf event name each of this paper's short names maps to
    /// (Table 2's "Full Event Name" column), for documentation purposes.
    pub fn perf_event_prefix(&self) -> &'static str {
        match self {
            HecGroup::Ret => "mem_uops_retired",
            HecGroup::Stlb | HecGroup::Walk => "dtlb_store_misses / dtlb_load_misses",
            HecGroup::Refs => "page_walker_loads",
        }
    }
}

/// Number of hardware events the simulator counts (the rows of Table 2).
pub const NUM_EVENTS: usize = 26;

/// One row of the event table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventSpec {
    /// The counter name used by counter spaces, μDDs and reports.
    pub name: &'static str,
    /// The Table 2 group the event belongs to.
    pub group: HecGroup,
}

const fn event(name: &'static str, group: HecGroup) -> EventSpec {
    EventSpec { name, group }
}

/// The event table: the paper's Table 2 in canonical order (groups in
/// [`HecGroup::ALL`] order, load events before store events within a group).
///
/// This is the single source of counter names and ids: an event's position in
/// the table is its [`EventId`], the simulator bumps counters by id, and every
/// name-based view ([`HecGroup::counters`], [`full_counter_space`],
/// [`cumulative_group_space`], [`names`]) is read from here.
pub static EVENTS: [EventSpec; NUM_EVENTS] = [
    event("load.ret", HecGroup::Ret),
    event("load.ret_stlb_miss", HecGroup::Ret),
    event("store.ret", HecGroup::Ret),
    event("store.ret_stlb_miss", HecGroup::Ret),
    event("load.stlb_hit", HecGroup::Stlb),
    event("load.stlb_hit_4k", HecGroup::Stlb),
    event("load.stlb_hit_2m", HecGroup::Stlb),
    event("store.stlb_hit", HecGroup::Stlb),
    event("store.stlb_hit_4k", HecGroup::Stlb),
    event("store.stlb_hit_2m", HecGroup::Stlb),
    event("load.causes_walk", HecGroup::Walk),
    event("load.walk_done", HecGroup::Walk),
    event("load.walk_done_4k", HecGroup::Walk),
    event("load.walk_done_2m", HecGroup::Walk),
    event("load.walk_done_1g", HecGroup::Walk),
    event("load.pde$_miss", HecGroup::Walk),
    event("store.causes_walk", HecGroup::Walk),
    event("store.walk_done", HecGroup::Walk),
    event("store.walk_done_4k", HecGroup::Walk),
    event("store.walk_done_2m", HecGroup::Walk),
    event("store.walk_done_1g", HecGroup::Walk),
    event("store.pde$_miss", HecGroup::Walk),
    event("walk_ref.l1", HecGroup::Refs),
    event("walk_ref.l2", HecGroup::Refs),
    event("walk_ref.l3", HecGroup::Refs),
    event("walk_ref.mem", HecGroup::Refs),
];

/// A typed event id: the position of an event in [`EVENTS`], and the index of
/// its value in [`CounterValues`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u8);

impl EventId {
    /// `first` is the table position of the group's first load event and
    /// `per_type` the number of events each access type has in the group.
    const fn per_access(first: u8, per_type: u8, offset: u8, t: AccessType) -> EventId {
        let type_index = match t {
            AccessType::Load => 0,
            AccessType::Store => 1,
        };
        EventId(first + type_index * per_type + offset)
    }

    /// `T.ret`
    pub const fn ret(t: AccessType) -> EventId {
        EventId::per_access(0, 2, 0, t)
    }
    /// `T.ret_stlb_miss`
    pub const fn ret_stlb_miss(t: AccessType) -> EventId {
        EventId::per_access(0, 2, 1, t)
    }
    /// `T.stlb_hit`
    pub const fn stlb_hit(t: AccessType) -> EventId {
        EventId::per_access(4, 3, 0, t)
    }
    /// `T.stlb_hit_4k`
    pub const fn stlb_hit_4k(t: AccessType) -> EventId {
        EventId::per_access(4, 3, 1, t)
    }
    /// `T.stlb_hit_2m`
    pub const fn stlb_hit_2m(t: AccessType) -> EventId {
        EventId::per_access(4, 3, 2, t)
    }
    /// `T.causes_walk`
    pub const fn causes_walk(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 0, t)
    }
    /// `T.walk_done`
    pub const fn walk_done(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 1, t)
    }
    /// `T.walk_done_4k`
    pub const fn walk_done_4k(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 2, t)
    }
    /// `T.walk_done_2m`
    pub const fn walk_done_2m(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 3, t)
    }
    /// `T.walk_done_1g`
    pub const fn walk_done_1g(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 4, t)
    }
    /// `T.pde$_miss`
    pub const fn pde_miss(t: AccessType) -> EventId {
        EventId::per_access(10, 6, 5, t)
    }
    /// `walk_ref.l1` / `.l2` / `.l3` for levels 1-3, `walk_ref.mem` otherwise.
    pub const fn walk_ref(level: usize) -> EventId {
        match level {
            1 => EventId(22),
            2 => EventId(23),
            3 => EventId(24),
            _ => EventId(25),
        }
    }

    /// The event's position in [`EVENTS`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The event's counter name.
    pub fn name(self) -> &'static str {
        EVENTS[self.index()].name
    }

    /// The event named `name`, if the table has one.
    pub fn from_name(name: &str) -> Option<EventId> {
        EVENTS
            .iter()
            .position(|e| e.name == name)
            .map(|i| EventId(i as u8))
    }

    /// Resolves every counter of a space to its event id, in space order.
    ///
    /// # Errors
    ///
    /// [`UnknownEvent`] naming the first counter the table does not have.
    pub fn resolve(space: &CounterSpace) -> Result<Vec<EventId>, UnknownEvent> {
        space
            .names()
            .iter()
            .map(|n| EventId::from_name(n).ok_or_else(|| UnknownEvent { name: n.clone() }))
            .collect()
    }
}

/// A counter name that is not one of the [`EVENTS`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownEvent {
    /// The name that was looked up.
    pub name: String,
}

impl fmt::Display for UnknownEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no hardware event named `{}`", self.name)
    }
}

impl std::error::Error for UnknownEvent {}

/// The full 26-counter space of the paper's Table 2, in [`EVENTS`] order.
pub fn full_counter_space() -> CounterSpace {
    cumulative_group_space(HecGroup::ALL.len())
}

/// The counter space obtained by taking the first `n` groups of
/// [`HecGroup::ALL`] cumulatively — the x-axis of Figures 1b and 9.
///
/// # Panics
///
/// Panics if `n` is zero or greater than the number of groups.
pub fn cumulative_group_space(n: usize) -> CounterSpace {
    assert!(n >= 1 && n <= HecGroup::ALL.len(), "need 1..=4 groups");
    let groups = &HecGroup::ALL[..n];
    let names: Vec<&str> = EVENTS
        .iter()
        .filter(|e| groups.contains(&e.group))
        .map(|e| e.name)
        .collect();
    CounterSpace::new(&names)
}

/// Counter name helpers for μDD construction: the names of the [`EventId`]
/// constructors of the same name.
pub mod names {
    use super::{AccessType, EventId};

    /// `T.ret`
    pub fn ret(t: AccessType) -> &'static str {
        EventId::ret(t).name()
    }
    /// `T.ret_stlb_miss`
    pub fn ret_stlb_miss(t: AccessType) -> &'static str {
        EventId::ret_stlb_miss(t).name()
    }
    /// `T.stlb_hit`
    pub fn stlb_hit(t: AccessType) -> &'static str {
        EventId::stlb_hit(t).name()
    }
    /// `T.stlb_hit_4k`
    pub fn stlb_hit_4k(t: AccessType) -> &'static str {
        EventId::stlb_hit_4k(t).name()
    }
    /// `T.stlb_hit_2m`
    pub fn stlb_hit_2m(t: AccessType) -> &'static str {
        EventId::stlb_hit_2m(t).name()
    }
    /// `T.causes_walk`
    pub fn causes_walk(t: AccessType) -> &'static str {
        EventId::causes_walk(t).name()
    }
    /// `T.walk_done`
    pub fn walk_done(t: AccessType) -> &'static str {
        EventId::walk_done(t).name()
    }
    /// `T.walk_done_4k`
    pub fn walk_done_4k(t: AccessType) -> &'static str {
        EventId::walk_done_4k(t).name()
    }
    /// `T.walk_done_2m`
    pub fn walk_done_2m(t: AccessType) -> &'static str {
        EventId::walk_done_2m(t).name()
    }
    /// `T.walk_done_1g`
    pub fn walk_done_1g(t: AccessType) -> &'static str {
        EventId::walk_done_1g(t).name()
    }
    /// `T.pde$_miss`
    pub fn pde_miss(t: AccessType) -> &'static str {
        EventId::pde_miss(t).name()
    }
    /// `walk_ref.l1` / `.l2` / `.l3` / `.mem`
    pub fn walk_ref(level: usize) -> &'static str {
        EventId::walk_ref(level).name()
    }
}

/// The simulator's ground-truth accumulator: one count per event of
/// [`EVENTS`], indexed by [`EventId`].
///
/// The PMU model snapshots it (a plain copy) once per measurement interval.
/// Names appear only at the [`CounterSpace`] boundary: [`to_vector`] and
/// [`value_of`] look names up, and serialization writes a name → count object
/// in table order.
///
/// [`to_vector`]: CounterValues::to_vector
/// [`value_of`]: CounterValues::value_of
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterValues {
    values: [u64; NUM_EVENTS],
}

impl CounterValues {
    /// Creates a set of counter values, all zero.
    pub fn new() -> CounterValues {
        CounterValues::default()
    }

    /// Adds one to an event's counter.
    pub fn increment(&mut self, event: EventId) {
        self.values[event.index()] += 1;
    }

    /// Adds `by` to an event's counter.
    pub fn add(&mut self, event: EventId, by: u64) {
        self.values[event.index()] += by;
    }

    /// The current value of an event's counter.
    pub fn get(&self, event: EventId) -> u64 {
        self.values[event.index()]
    }

    /// The current value of the named counter, or `None` if no event has that
    /// name.
    pub fn value_of(&self, name: &str) -> Option<u64> {
        EventId::from_name(name).map(|e| self.get(e))
    }

    /// Iterates over `(name, value)` pairs of every event, in [`EVENTS`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        EVENTS.iter().zip(self.values).map(|(e, v)| (e.name, v))
    }

    /// The values of `events`, in that order, as an `f64` vector.
    pub fn project(&self, events: &[EventId]) -> Vec<f64> {
        events.iter().map(|&e| self.get(e) as f64).collect()
    }

    /// Projects the values onto a counter space as an `f64` vector.
    ///
    /// # Panics
    ///
    /// Panics if the space names a counter that is not one of the [`EVENTS`]
    /// (resolve it with [`EventId::resolve`] to handle that case).
    pub fn to_vector(&self, space: &CounterSpace) -> Vec<f64> {
        let events = EventId::resolve(space).expect("the space names only Table 2 events");
        self.project(&events)
    }

    /// Component-wise difference `self - earlier` over `events`, in that order.
    /// Used by the PMU to turn cumulative counts into per-interval increments.
    ///
    /// # Panics
    ///
    /// Panics if any counter decreased (counters are monotone).
    pub fn delta_vector(&self, earlier: &CounterValues, events: &[EventId]) -> Vec<f64> {
        events
            .iter()
            .map(|&e| {
                let (now, before) = (self.get(e), earlier.get(e));
                assert!(now >= before, "counter {} decreased", e.name());
                (now - before) as f64
            })
            .collect()
    }

    /// Total of all counters (mostly for sanity checks in tests).
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }
}

impl Serialize for CounterValues {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(name, v)| (name.to_string(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_26_counters_in_group_order() {
        let space = full_counter_space();
        assert_eq!(space.len(), 26);
        assert_eq!(space.name(0), "load.ret");
        assert!(space.contains("store.walk_done_1g"));
        assert!(space.contains("walk_ref.mem"));
        assert!(space.contains("load.pde$_miss"));
    }

    #[test]
    fn group_sizes_match_table2() {
        assert_eq!(HecGroup::Ret.counters().len(), 4);
        assert_eq!(HecGroup::Stlb.counters().len(), 6);
        assert_eq!(HecGroup::Walk.counters().len(), 12);
        assert_eq!(HecGroup::Refs.counters().len(), 4);
        let total: usize = HecGroup::ALL.iter().map(|g| g.counters().len()).sum();
        assert_eq!(total, 26);
    }

    #[test]
    fn cumulative_group_spaces_grow() {
        assert_eq!(cumulative_group_space(1).len(), 4);
        assert_eq!(cumulative_group_space(2).len(), 10);
        assert_eq!(cumulative_group_space(3).len(), 22);
        assert_eq!(cumulative_group_space(4).len(), 26);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn zero_groups_panics() {
        let _ = cumulative_group_space(0);
    }

    #[test]
    fn group_labels_and_prefixes() {
        assert_eq!(HecGroup::Ret.label(), "Ret");
        assert_eq!(HecGroup::Stlb.label(), "L2TLB");
        assert!(HecGroup::Refs
            .perf_event_prefix()
            .contains("page_walker_loads"));
    }

    #[test]
    fn name_helpers_match_table2_names() {
        assert_eq!(names::causes_walk(AccessType::Load), "load.causes_walk");
        assert_eq!(names::pde_miss(AccessType::Store), "store.pde$_miss");
        assert_eq!(names::walk_ref(1), "walk_ref.l1");
        assert_eq!(names::walk_ref(4), "walk_ref.mem");
        assert_eq!(names::ret(AccessType::Load), "load.ret");
        assert_eq!(
            names::ret_stlb_miss(AccessType::Store),
            "store.ret_stlb_miss"
        );
        assert_eq!(names::stlb_hit_2m(AccessType::Load), "load.stlb_hit_2m");
        assert_eq!(names::walk_done_1g(AccessType::Load), "load.walk_done_1g");
    }

    #[test]
    fn access_type_display() {
        assert_eq!(AccessType::Load.to_string(), "load");
        assert_eq!(AccessType::Store.to_string(), "store");
        assert_eq!(AccessType::ALL.len(), 2);
    }

    #[test]
    fn event_constructors_name_their_table_rows() {
        for t in AccessType::ALL {
            let expected = [
                (EventId::ret(t), "ret"),
                (EventId::ret_stlb_miss(t), "ret_stlb_miss"),
                (EventId::stlb_hit(t), "stlb_hit"),
                (EventId::stlb_hit_4k(t), "stlb_hit_4k"),
                (EventId::stlb_hit_2m(t), "stlb_hit_2m"),
                (EventId::causes_walk(t), "causes_walk"),
                (EventId::walk_done(t), "walk_done"),
                (EventId::walk_done_4k(t), "walk_done_4k"),
                (EventId::walk_done_2m(t), "walk_done_2m"),
                (EventId::walk_done_1g(t), "walk_done_1g"),
                (EventId::pde_miss(t), "pde$_miss"),
            ];
            for (id, suffix) in expected {
                assert_eq!(id.name(), format!("{t}.{suffix}"));
            }
        }
        for (level, suffix) in [(1, "l1"), (2, "l2"), (3, "l3"), (4, "mem")] {
            assert_eq!(
                EventId::walk_ref(level).name(),
                format!("walk_ref.{suffix}")
            );
        }
    }

    #[test]
    fn event_ids_round_trip_through_names() {
        let space = full_counter_space();
        let ids = EventId::resolve(&space).unwrap();
        assert_eq!(ids, (0..NUM_EVENTS as u8).map(EventId).collect::<Vec<_>>());
        for id in ids {
            assert_eq!(EventId::from_name(id.name()), Some(id));
            assert_eq!(space.name(id.index()), id.name());
        }
        assert_eq!(EventId::from_name("load.rett"), None);
        let bad = CounterSpace::new(&["load.ret", "load.rett"]);
        let err = EventId::resolve(&bad).unwrap_err();
        assert_eq!(err.name, "load.rett");
        assert!(err.to_string().contains("load.rett"));
    }

    #[test]
    fn counter_values_accumulate_and_project() {
        let ret = EventId::ret(AccessType::Load);
        let l1 = EventId::walk_ref(1);
        let mut values = CounterValues::new();
        values.increment(ret);
        values.increment(ret);
        values.add(l1, 5);
        assert_eq!(values.get(ret), 2);
        assert_eq!(values.value_of("walk_ref.l1"), Some(5));
        assert_eq!(values.value_of("never.seen"), None);
        assert_eq!(values.total(), 7);

        let space = CounterSpace::new(&["load.ret", "walk_ref.l1", "store.ret"]);
        assert_eq!(values.to_vector(&space), vec![2.0, 5.0, 0.0]);
        let order: Vec<&str> = values.iter().map(|(n, _)| n).collect();
        assert_eq!(order, full_counter_space().name_refs());
    }

    #[test]
    #[should_panic(expected = "Table 2 events")]
    fn projecting_onto_an_unknown_counter_panics() {
        let _ = CounterValues::new().to_vector(&CounterSpace::new(&["load.rett"]));
    }

    #[test]
    fn counter_values_serialize_by_name_in_table_order() {
        let mut values = CounterValues::new();
        values.add(EventId::walk_ref(4), 3);
        let Value::Object(entries) = values.to_value() else {
            panic!("counter values serialize as an object");
        };
        assert_eq!(entries.len(), NUM_EVENTS);
        assert_eq!(entries[0].0, "load.ret");
        assert_eq!(entries[25], ("walk_ref.mem".to_string(), Value::Int(3)));
    }

    #[test]
    fn delta_vector_subtracts_snapshots() {
        let (load, store) = (
            EventId::ret(AccessType::Load),
            EventId::ret(AccessType::Store),
        );
        let mut earlier = CounterValues::new();
        earlier.add(load, 10);
        let mut later = earlier;
        later.add(load, 7);
        later.add(store, 3);
        assert_eq!(later.delta_vector(&earlier, &[load, store]), vec![7.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "decreased")]
    fn delta_vector_rejects_decreasing_counters() {
        let load = EventId::ret(AccessType::Load);
        let mut earlier = CounterValues::new();
        earlier.add(load, 10);
        let _ = CounterValues::new().delta_vector(&earlier, &[load]);
    }
}
