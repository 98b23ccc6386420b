//! Load-aware executor scheduling.
//!
//! The composition language lets every task declare an `implementation`
//! clause — `"location"`, `"priority"`, `"duration_ms"`, `"deadline_ms"`
//! pairs — precisely so the runtime can *place* (and, under failure,
//! *re-place*) the service that runs it (the paper's service-relocation
//! story, §3/§4). This module turns those hints from parsed-but-ignored
//! strings into scheduling decisions:
//!
//! - [`ImplHints`] is the typed view of the clause, extracted once per
//!   dispatch instead of ad-hoc string parsing at every consumer,
//! - [`Scheduler`] tracks per-executor in-flight load (incremented at
//!   dispatch, decremented when the task completes, fails or times
//!   out) and picks the target node: `location` is a **hard
//!   constraint** (only matching executors are eligible; a location no
//!   executor carries fails the task with a diagnosable error), retries
//!   avoid the node that just failed whenever any alternative is
//!   eligible, and the remainder is decided **least-loaded** (ties
//!   break by executor order, keeping runs deterministic),
//! - every executor declares a **capacity** ([`ExecutorSpec`]): the
//!   number of concurrent task slots it offers (`0` = unbounded, the
//!   legacy model; `1` = serial). The picker prefers unsaturated
//!   executors, and when *every* eligible executor is at capacity
//!   ([`Scheduler::all_saturated`]) the coordinator parks the dispatch
//!   in its ready queue instead of piling work onto a full node,
//! - a [`CostModel`] keeps a per-code EWMA of **observed** completion
//!   times, overriding absent-or-wrong declared `duration_ms` in load
//!   accounting and (bounded below by the declared floor) in watchdog
//!   deadline math — the hints are what the script *said*, the model is
//!   what the fleet *measured*.
//!
//! Each coordinator shard owns a scheduler over the *shared* executor
//! fleet: load views are per shard, so no cross-shard coordination sits
//! on the dispatch hot path. There is one policy; the verdicts of the
//! two retired baselines (a path hash, count-based least-loaded) are
//! frozen as constants in `tests/scheduling.rs`.

use std::collections::BTreeMap;

use flowscript_sim::{NodeId, SimDuration};

/// Typed view of a task's `implementation` clause. Unparsable values
/// degrade to `None`/default rather than failing dispatch — the clause
/// doubles as a free-form key/value store (`"code"` lives there too).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImplHints {
    /// Placement constraint: only executors registered at this
    /// location may run the task.
    pub location: Option<String>,
    /// Scheduling priority (higher runs first when ready tasks contend
    /// for busy executors; absent or unparsable means 0).
    pub priority: i64,
    /// Declared expected execution time, added to the watchdog base.
    pub duration_ms: Option<u64>,
    /// Declared deadline: a **cap** on the watchdog timeout, never a
    /// summand.
    pub deadline_ms: Option<u64>,
}

impl ImplHints {
    /// Extracts the typed hints from an implementation key/value map.
    /// An empty `location` value means *unpinned*, exactly like an
    /// absent one — the empty string is not a real label, and letting
    /// it through would pin the task to executors registered with an
    /// empty label.
    pub fn from_map(implementation: &BTreeMap<String, String>) -> Self {
        Self::from_lookup(|key| implementation.get(key).map(String::as_str))
    }

    /// [`ImplHints::from_map`] of the clause whose value of a key `get`
    /// looks up, wherever the clause lies.
    pub(crate) fn from_lookup<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Self {
        Self {
            location: get("location")
                .filter(|label| !label.is_empty())
                .map(str::to_owned),
            priority: get("priority").and_then(|v| v.parse().ok()).unwrap_or(0),
            duration_ms: get("duration_ms").and_then(|v| v.parse().ok()),
            deadline_ms: get("deadline_ms").and_then(|v| v.parse().ok()),
        }
    }

    /// The load the scheduler charges one dispatch of this task at: a
    /// remaining-time estimate of `1 + duration_ms`. The constant term
    /// makes undeclared tasks cost exactly one unit — a fleet with no
    /// duration hints degenerates to bare in-flight counting — while
    /// declared durations dominate whenever they exist, so one 400 ms
    /// task outweighs several 50 ms ones.
    pub fn load_cost(&self) -> u64 {
        self.duration_ms.unwrap_or(0).saturating_add(1)
    }
}

/// A per-shard moving estimate of real task durations, keyed by the
/// implementation code that ran.
///
/// The coordinator feeds it every genuine completion (the elapsed
/// virtual time from dispatch to the executor's report — queueing on a
/// saturated node is kept *out* of the sample by capacity parking, so
/// the estimate tracks service time, not congestion). The estimate is
/// an EWMA with a 1/4 gain: `new = (3·old + observed) / 4` — heavy
/// enough to converge within a few completions, smooth enough that one
/// outlier does not repoint the fleet.
///
/// Consumers go through [`CostModel::load_cost`] and
/// [`CostModel::watchdog_timeout`] instead of the raw
/// [`ImplHints`] accessors: once a code has been observed, the model
/// overrides the declared `duration_ms` (which may be absent, stale or
/// simply wrong) — except that the watchdog duration never drops below
/// the declared floor, and the declared `deadline_ms` cap always binds
/// last. [`ImplHints`] stays a pure parse product.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    observed_ns: BTreeMap<String, u64>,
}

impl CostModel {
    /// An empty model (every code falls back to its declared hints).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observed completion of `code` into its estimate.
    pub fn observe(&mut self, code: &str, elapsed_ns: u64) {
        match self.observed_ns.get_mut(code) {
            Some(old) => {
                *old = ((u128::from(*old) * 3 + u128::from(elapsed_ns)) / 4) as u64;
            }
            None => {
                self.observed_ns.insert(code.to_string(), elapsed_ns);
            }
        }
    }

    /// The smoothed estimate for `code` in milliseconds (rounded up so
    /// sub-millisecond work still registers as one unit), or `None`
    /// before the first completion.
    pub fn estimate_ms(&self, code: &str) -> Option<u64> {
        self.observed_ns.get(code).map(|ns| ns.div_ceil(1_000_000))
    }

    /// The load one dispatch of `code` is charged at: the observed
    /// estimate once one exists (overriding absent or lying declared
    /// durations), the declared [`ImplHints::load_cost`] before the
    /// first completion.
    pub fn load_cost(&self, code: &str, hints: &ImplHints) -> u64 {
        match self.estimate_ms(code) {
            Some(ms) => ms.saturating_add(1),
            None => hints.load_cost(),
        }
    }

    /// The watchdog timeout for one dispatch of `code`: the engine's
    /// base timeout extended by `max(declared duration_ms, 2 × observed
    /// estimate)` — an observed duration may *extend* the declared
    /// floor (a lying short hint must not time out healthy work; the 2×
    /// headroom absorbs normal variance), never shrink it — the whole
    /// thing capped by `deadline_ms` when declared: a deadline bounds
    /// how long the task may take, it never extends the watchdog.
    pub fn watchdog_timeout(
        &self,
        code: &str,
        hints: &ImplHints,
        base: SimDuration,
    ) -> SimDuration {
        let declared = hints.duration_ms.unwrap_or(0);
        let duration = match self.estimate_ms(code) {
            Some(estimate) => declared.max(estimate.saturating_mul(2)),
            None => declared,
        };
        let mut timeout = base;
        if duration > 0 {
            timeout = timeout + SimDuration::from_millis(duration);
        }
        if let Some(cap) = hints.deadline_ms {
            timeout = timeout.min(SimDuration::from_millis(cap));
        }
        timeout
    }
}

/// How dispatch picks an executor: location hard constraint, avoid the
/// failed node on retry, least **remaining work** among the eligible
/// remainder — each in-flight dispatch weighs `1 + duration_ms`
/// ([`ImplHints::load_cost`], overridden by the observed `CostModel`
/// estimate once one exists), so durations shape placement and hintless
/// fleets degenerate to in-flight counting.
///
/// Vestige: there is one policy, so this type, the `policy` parameter
/// of [`Scheduler::new`] and the unread `path` / `attempt` parameters of
/// [`Scheduler::pick`] exist only because the perf ledger's frozen
/// `sched.pick_ns` probe calls those signatures. ROADMAP item 1(c), the
/// PR that may edit the probe, deletes all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// The one policy.
    #[default]
    LeastLoaded,
}

/// One executor as registered with the system: where it runs, its
/// optional location label, and how many concurrent tasks it declares
/// it can serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorSpec {
    /// The executor's node.
    pub node: NodeId,
    /// Its location label (`None` — or the empty string — means
    /// unpinned).
    pub location: Option<String>,
    /// Declared concurrent task slots: `0` = unbounded (the legacy
    /// model), `1` = serial, `k` = `k` tasks at a time.
    pub capacity: u32,
}

impl ExecutorSpec {
    /// An unbounded, label-free executor on `node` (the legacy shape).
    pub fn unbounded(node: NodeId) -> Self {
        ExecutorSpec {
            node,
            location: None,
            capacity: 0,
        }
    }
}

/// One executor as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorSlot {
    /// The executor's node.
    pub node: NodeId,
    /// Its registered location label, if any.
    pub location: Option<String>,
    /// Declared capacity (`0` = unbounded).
    pub capacity: u32,
    /// Dispatches currently in flight on it *from this coordinator*.
    pub in_flight: u32,
    /// Remaining-work estimate of those dispatches: the sum of their
    /// [`ImplHints::load_cost`] charges.
    pub remaining: u64,
}

impl ExecutorSlot {
    /// True when the slot is at its declared capacity (never true for
    /// unbounded executors).
    pub fn saturated(&self) -> bool {
        self.capacity != 0 && self.in_flight >= self.capacity
    }
}

/// Why the scheduler could not place a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The task pins a location no registered executor carries. The
    /// offending location is carried for the diagnostic.
    NoExecutorAt(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoExecutorAt(location) => {
                write!(f, "no executor registered at location `{location}`")
            }
        }
    }
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The chosen executor node.
    pub node: NodeId,
    /// True when the dispatch had to re-use the node it was asked to
    /// avoid (a retry with no eligible alternative — e.g. a single
    /// executor, or a location pin matching exactly the failed node).
    pub no_alternative: bool,
    /// The chosen executor's remaining-work load at decision time,
    /// *before* this dispatch is charged — what the `sched.pick_load`
    /// histogram samples.
    pub load: u64,
}

/// Per-coordinator executor scheduler (see the module docs).
#[derive(Debug, Clone)]
pub struct Scheduler {
    slots: Vec<ExecutorSlot>,
    /// The sum of every slot's `in_flight`: the dispatches whose
    /// reports this shard still awaits.
    in_flight: u32,
}

impl Scheduler {
    /// Builds a scheduler over the executor fleet. `specs` order is the
    /// deterministic tie-break order. An empty-string location label
    /// normalizes to `None`: such an executor is label-free, not
    /// registered at a location named `""`. (`_policy`: see
    /// [`SchedPolicy`].)
    pub fn new(specs: Vec<ExecutorSpec>, _policy: SchedPolicy) -> Self {
        Self {
            slots: specs
                .into_iter()
                .map(|spec| ExecutorSlot {
                    node: spec.node,
                    location: spec.location.filter(|label| !label.is_empty()),
                    capacity: spec.capacity,
                    in_flight: 0,
                    remaining: 0,
                })
                .collect(),
            in_flight: 0,
        }
    }

    /// True when at least one executor is eligible for `hints` and
    /// **every** eligible one sits at its declared capacity — the
    /// caller should park the dispatch in its ready queue until a
    /// release frees a slot, instead of piling work onto a full node.
    /// An unsatisfiable pin returns `false`: that is a placement
    /// *error* ([`SchedError::NoExecutorAt`]), not congestion.
    pub fn all_saturated(&self, hints: &ImplHints) -> bool {
        let mut any_eligible = false;
        for slot in &self.slots {
            let eligible = match &hints.location {
                Some(location) => slot.location.as_deref() == Some(location.as_str()),
                None => true,
            };
            if eligible {
                any_eligible = true;
                if !slot.saturated() {
                    return false;
                }
            }
        }
        any_eligible
    }

    /// Picks the executor for one dispatch.
    ///
    /// `avoid` names the node the previous attempt died on (retries
    /// must relocate whenever an eligible alternative exists).
    /// Unsaturated executors are preferred over saturated ones, and
    /// relocation is preferred within each tier — but an unsaturated
    /// avoided node beats a saturated alternative: capacity is a
    /// declared bound, relocation only a preference. (`_path`,
    /// `_attempt`: see [`SchedPolicy`].)
    ///
    /// # Errors
    ///
    /// [`SchedError::NoExecutorAt`] when the task's `location` pin
    /// matches no registered executor — the task cannot run anywhere,
    /// so the caller fails it with the diagnosable reason instead of
    /// burning retries.
    pub fn pick(
        &self,
        _path: &str,
        _attempt: u32,
        hints: &ImplHints,
        avoid: Option<NodeId>,
    ) -> Result<Placement, SchedError> {
        assert!(!self.slots.is_empty(), "a system always has an executor");
        let eligible = |slot: &&ExecutorSlot| match &hints.location {
            Some(location) => slot.location.as_deref() == Some(location.as_str()),
            None => true,
        };
        // Only a real pin can be unsatisfiable: unpinned tasks are
        // eligible everywhere and the fleet is non-empty.
        if let Some(location) = &hints.location {
            if !self.slots.iter().any(|slot| eligible(&slot)) {
                return Err(SchedError::NoExecutorAt(location.clone()));
            }
        }
        // Least remaining work among the eligible; ties break by slot
        // order (deterministic runs).
        let best = |skip_avoided: bool, skip_saturated: bool| {
            self.slots
                .iter()
                .filter(eligible)
                .filter(|slot| !skip_avoided || avoid != Some(slot.node))
                .filter(|slot| !skip_saturated || !slot.saturated())
                .min_by_key(|slot| slot.remaining)
        };
        // Tier order: unsaturated beats saturated, then relocation
        // beats landing back on the avoided node.
        for (skip_avoided, skip_saturated) in
            [(true, true), (false, true), (true, false), (false, false)]
        {
            if let Some(slot) = best(skip_avoided, skip_saturated) {
                return Ok(Placement {
                    node: slot.node,
                    // Only a retry can set `avoid`; landing back on it
                    // means no alternative was eligible in any better
                    // tier.
                    no_alternative: avoid == Some(slot.node),
                    load: slot.remaining,
                });
            }
        }
        unreachable!("eligibility checked above");
    }

    /// Records a dispatch landing on `node`, charged at `cost`
    /// remaining-work units ([`ImplHints::load_cost`]).
    pub fn note_dispatch(&mut self, node: NodeId, cost: u64) {
        if let Some(slot) = self.slots.iter_mut().find(|slot| slot.node == node) {
            slot.in_flight += 1;
            slot.remaining = slot.remaining.saturating_add(cost);
            self.in_flight += 1;
        }
    }

    /// Records the dispatch on `node` ending (completion, failure,
    /// watchdog, or subtree cancellation), releasing the `cost` it was
    /// charged at.
    pub fn note_release(&mut self, node: NodeId, cost: u64) {
        if let Some(slot) = self.slots.iter_mut().find(|slot| slot.node == node) {
            if slot.in_flight > 0 {
                slot.in_flight -= 1;
                self.in_flight -= 1;
            }
            slot.remaining = slot.remaining.saturating_sub(cost);
        }
    }

    /// Zeroes every load counter (coordinator recovery rebuilds its
    /// in-flight view from scratch).
    pub fn reset_loads(&mut self) {
        for slot in &mut self.slots {
            slot.in_flight = 0;
            slot.remaining = 0;
        }
        self.in_flight = 0;
    }

    /// The dispatches in flight over every executor: the sum of the
    /// slots' `in_flight`, kept as they change.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// The current per-executor view (monitoring / tests).
    pub fn snapshot(&self) -> Vec<ExecutorSlot> {
        self.slots.clone()
    }

    /// The in-flight count of `node` (0 for unknown nodes).
    pub fn load_of(&self, node: NodeId) -> u32 {
        self.slots
            .iter()
            .find(|slot| slot.node == node)
            .map_or(0, |slot| slot.in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        let mut world = flowscript_sim::World::new(0);
        (0..n).map(|i| world.add_node(format!("e{i}"))).collect()
    }

    fn unbounded(ids: &[NodeId]) -> Vec<ExecutorSpec> {
        ids.iter()
            .map(|&node| ExecutorSpec::unbounded(node))
            .collect()
    }

    fn spec(node: NodeId, location: Option<&str>, capacity: u32) -> ExecutorSpec {
        ExecutorSpec {
            node,
            location: location.map(str::to_string),
            capacity,
        }
    }

    fn hints(pairs: &[(&str, &str)]) -> ImplHints {
        ImplHints::from_map(
            &pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        )
    }

    #[test]
    fn hints_extract_typed_values() {
        let h = hints(&[
            ("location", "paris"),
            ("priority", "7"),
            ("duration_ms", "250"),
            ("deadline_ms", "900"),
            ("code", "refX"),
        ]);
        assert_eq!(h.location.as_deref(), Some("paris"));
        assert_eq!(h.priority, 7);
        assert_eq!(h.duration_ms, Some(250));
        assert_eq!(h.deadline_ms, Some(900));
        // Unparsable values degrade instead of failing dispatch.
        let h = hints(&[("priority", "high"), ("duration_ms", "soon")]);
        assert_eq!(h.priority, 0);
        assert_eq!(h.duration_ms, None);
    }

    #[test]
    fn deadline_caps_the_watchdog_instead_of_extending_it() {
        let base = SimDuration::from_millis(1000);
        let unobserved = CostModel::new();
        let timeout =
            |pairs: &[(&str, &str)]| unobserved.watchdog_timeout("refX", &hints(pairs), base);
        // duration extends…
        assert_eq!(
            timeout(&[("duration_ms", "500")]),
            SimDuration::from_millis(1500)
        );
        // …deadline caps…
        assert_eq!(
            timeout(&[("deadline_ms", "700")]),
            SimDuration::from_millis(700)
        );
        // …and with both set the deadline bounds the extended timeout
        // (the old code summed all three: 1000 + 500 + 1200).
        assert_eq!(
            timeout(&[("duration_ms", "500"), ("deadline_ms", "1200")]),
            SimDuration::from_millis(1200)
        );
        // A generous deadline leaves the extension alone.
        assert_eq!(
            timeout(&[("duration_ms", "500"), ("deadline_ms", "60000")]),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn cost_model_overrides_lying_hints_once_observed() {
        let mut costs = CostModel::new();
        let lying = hints(&[("duration_ms", "1")]);
        // Before any observation the declared hint is all there is.
        assert_eq!(costs.load_cost("refX", &lying), 2);
        assert_eq!(costs.estimate_ms("refX"), None);
        // One observed 400ms completion repoints the estimate…
        costs.observe("refX", 400_000_000);
        assert_eq!(costs.estimate_ms("refX"), Some(400));
        assert_eq!(costs.load_cost("refX", &lying), 401);
        // …and the EWMA smooths further samples at a 1/4 gain.
        costs.observe("refX", 200_000_000);
        assert_eq!(costs.estimate_ms("refX"), Some(350));
        // Codes never observed still fall back to their own hints.
        assert_eq!(costs.load_cost("refY", &hints(&[])), 1);
    }

    #[test]
    fn observed_duration_extends_but_never_shrinks_the_watchdog() {
        let base = SimDuration::from_millis(200);
        let mut costs = CostModel::new();
        let lying = hints(&[("duration_ms", "1")]);
        // Unobserved: the declared extension alone.
        assert_eq!(
            costs.watchdog_timeout("refX", &lying, base),
            SimDuration::from_millis(201)
        );
        // A 300ms observation extends the deadline to 2× the estimate.
        costs.observe("refX", 300_000_000);
        assert_eq!(
            costs.watchdog_timeout("refX", &lying, base),
            SimDuration::from_millis(800)
        );
        // The declared floor holds when the observation is *shorter*
        // than the declaration — the model never shrinks a timeout.
        let generous = hints(&[("duration_ms", "5000")]);
        assert_eq!(
            costs.watchdog_timeout("refX", &generous, base),
            SimDuration::from_millis(5200)
        );
        // The declared deadline cap still binds last.
        let capped = hints(&[("duration_ms", "1"), ("deadline_ms", "500")]);
        assert_eq!(
            costs.watchdog_timeout("refX", &capped, base),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn least_loaded_spreads_and_ties_break_deterministically() {
        let ids = nodes(3);
        let mut sched = Scheduler::new(unbounded(&ids), SchedPolicy::LeastLoaded);
        // All empty: first slot wins the tie.
        let first = sched
            .pick("root/t", 0, &ImplHints::default(), None)
            .unwrap();
        assert_eq!(first.node, ids[0]);
        sched.note_dispatch(first.node, 1);
        // Next dispatch moves to the (now less loaded) second slot.
        let second = sched
            .pick("root/t", 0, &ImplHints::default(), None)
            .unwrap();
        assert_eq!(second.node, ids[1]);
        sched.note_dispatch(second.node, 1);
        let third = sched
            .pick("root/t", 0, &ImplHints::default(), None)
            .unwrap();
        assert_eq!(third.node, ids[2]);
        sched.note_dispatch(third.node, 1);
        // Releasing the middle one makes it least loaded again.
        sched.note_release(ids[1], 1);
        let again = sched
            .pick("root/t", 0, &ImplHints::default(), None)
            .unwrap();
        assert_eq!(again.node, ids[1]);
    }

    #[test]
    fn remaining_work_outweighs_bare_counts() {
        let ids = nodes(2);
        let long = hints(&[("duration_ms", "400")]);
        let short = hints(&[("duration_ms", "50")]);
        // Remaining-work: one 400ms task on node 0 outweighs two 50ms
        // tasks on node 1, so the next short task lands on node 1 even
        // though node 1 has more dispatches in flight.
        let mut sched = Scheduler::new(unbounded(&ids), SchedPolicy::LeastLoaded);
        sched.note_dispatch(ids[0], long.load_cost());
        sched.note_dispatch(ids[1], short.load_cost());
        sched.note_dispatch(ids[1], short.load_cost());
        assert_eq!(sched.pick("p", 0, &short, None).unwrap().node, ids[1]);
        // Releases restore the estimate exactly.
        sched.note_release(ids[0], long.load_cost());
        assert_eq!(sched.load_of(ids[0]), 0);
        assert_eq!(sched.pick("p", 0, &short, None).unwrap().node, ids[0]);
        // Hintless tasks cost one unit: remaining-work degenerates to
        // in-flight counting when nothing declares a duration.
        assert_eq!(ImplHints::default().load_cost(), 1);
    }

    #[test]
    fn capacity_prefers_unsaturated_and_reports_saturation() {
        let ids = nodes(2);
        let mut sched = Scheduler::new(
            vec![spec(ids[0], None, 1), spec(ids[1], None, 2)],
            SchedPolicy::LeastLoaded,
        );
        let h = ImplHints::default();
        assert!(!sched.all_saturated(&h));
        // Fill the serial executor: even though it is the least loaded
        // by remaining work, the picker must route around it.
        sched.note_dispatch(ids[0], 1);
        sched.note_dispatch(ids[1], 100);
        assert_eq!(sched.pick("p", 0, &h, None).unwrap().node, ids[1]);
        assert!(!sched.all_saturated(&h));
        // Fill the weighted executor too: everything is saturated.
        sched.note_dispatch(ids[1], 100);
        assert!(sched.all_saturated(&h));
        // A release frees a slot again.
        sched.note_release(ids[0], 1);
        assert!(!sched.all_saturated(&h));
        assert_eq!(sched.pick("p", 0, &h, None).unwrap().node, ids[0]);
    }

    #[test]
    fn saturation_is_per_eligible_set_and_ignores_unbounded() {
        let ids = nodes(3);
        let mut sched = Scheduler::new(
            vec![
                spec(ids[0], Some("paris"), 1),
                spec(ids[1], None, 1),
                spec(ids[2], None, 0),
            ],
            SchedPolicy::LeastLoaded,
        );
        let paris = hints(&[("location", "paris")]);
        sched.note_dispatch(ids[0], 1);
        // The pinned set is saturated even though the fleet is not…
        assert!(sched.all_saturated(&paris));
        assert!(!sched.all_saturated(&ImplHints::default()));
        // …an unbounded executor never saturates…
        sched.note_dispatch(ids[1], 1);
        for _ in 0..64 {
            sched.note_dispatch(ids[2], 1);
        }
        assert!(!sched.all_saturated(&ImplHints::default()));
        // …and an unsatisfiable pin is an error, not congestion.
        assert!(!sched.all_saturated(&hints(&[("location", "mars")])));
    }

    #[test]
    fn unsaturated_avoided_node_beats_saturated_alternative() {
        let ids = nodes(2);
        let mut sched = Scheduler::new(
            vec![spec(ids[0], None, 1), spec(ids[1], None, 1)],
            SchedPolicy::LeastLoaded,
        );
        // Node 1 is full; a retry avoiding node 0 must still land on
        // node 0 (capacity is a bound, relocation a preference) and be
        // flagged as having had no alternative.
        sched.note_dispatch(ids[1], 1);
        let placed = sched
            .pick("p", 1, &ImplHints::default(), Some(ids[0]))
            .unwrap();
        assert_eq!(placed.node, ids[0]);
        assert!(placed.no_alternative);
    }

    #[test]
    fn location_is_a_hard_constraint() {
        let ids = nodes(3);
        let sched = Scheduler::new(
            vec![
                spec(ids[0], None, 0),
                spec(ids[1], Some("paris"), 0),
                spec(ids[2], Some("tokyo"), 0),
            ],
            SchedPolicy::LeastLoaded,
        );
        let paris = hints(&[("location", "paris")]);
        assert_eq!(sched.pick("p", 0, &paris, None).unwrap().node, ids[1]);
        // Even when the pinned node is more loaded than the others.
        let mut sched = sched;
        for _ in 0..5 {
            sched.note_dispatch(ids[1], 1);
        }
        assert_eq!(sched.pick("p", 0, &paris, None).unwrap().node, ids[1]);
        // A location nobody carries is a diagnosable error.
        let mars = hints(&[("location", "mars")]);
        assert_eq!(
            sched.pick("p", 0, &mars, None),
            Err(SchedError::NoExecutorAt("mars".into()))
        );
    }

    #[test]
    fn empty_location_label_means_unpinned() {
        // An empty `location` value in the clause is no pin at all…
        let h = hints(&[("location", "")]);
        assert_eq!(h.location, None);
        // …and an executor registered with an empty label is
        // label-free, not installed at a location named `""` — the two
        // must not rendezvous as if "" were a real place.
        let ids = nodes(2);
        let mut sched = Scheduler::new(
            vec![spec(ids[0], Some(""), 0), spec(ids[1], None, 0)],
            SchedPolicy::LeastLoaded,
        );
        assert!(sched.snapshot().iter().all(|slot| slot.location.is_none()));
        // The empty-pinned task schedules like any unpinned task:
        // least-loaded over the whole fleet, no phantom constraint.
        sched.note_dispatch(ids[0], 1);
        assert_eq!(sched.pick("p", 0, &h, None).unwrap().node, ids[1]);
        // A real pin nobody carries still errors with its own name,
        // never the empty string.
        let mars = hints(&[("location", "mars")]);
        assert_eq!(
            sched.pick("p", 0, &mars, None),
            Err(SchedError::NoExecutorAt("mars".into()))
        );
    }

    #[test]
    fn retries_relocate_when_an_alternative_exists() {
        let ids = nodes(2);
        let sched = Scheduler::new(unbounded(&ids), SchedPolicy::LeastLoaded);
        let placed = sched
            .pick("root/t", 1, &ImplHints::default(), Some(ids[0]))
            .unwrap();
        assert_eq!(placed.node, ids[1]);
        assert!(!placed.no_alternative);
    }

    #[test]
    fn single_executor_retry_is_flagged_no_alternative() {
        let ids = nodes(1);
        let sched = Scheduler::new(unbounded(&ids), SchedPolicy::LeastLoaded);
        let placed = sched
            .pick("root/t", 1, &ImplHints::default(), Some(ids[0]))
            .unwrap();
        assert_eq!(placed.node, ids[0]);
        assert!(placed.no_alternative, "single executor cannot relocate");
        // A pinned retry whose location matches only the failed node is
        // flagged too.
        let ids = nodes(2);
        let sched = Scheduler::new(
            vec![spec(ids[0], Some("edge"), 0), spec(ids[1], None, 0)],
            SchedPolicy::LeastLoaded,
        );
        let placed = sched
            .pick("root/t", 2, &hints(&[("location", "edge")]), Some(ids[0]))
            .unwrap();
        assert_eq!(placed.node, ids[0]);
        assert!(placed.no_alternative);
    }

    #[test]
    fn release_never_underflows_and_reset_zeroes() {
        let ids = nodes(2);
        let mut sched = Scheduler::new(unbounded(&ids), SchedPolicy::LeastLoaded);
        sched.note_release(ids[0], 1);
        assert_eq!((sched.load_of(ids[0]), sched.in_flight()), (0, 0));
        sched.note_dispatch(ids[0], 1);
        sched.note_dispatch(ids[1], 1);
        // A node the scheduler does not know charges nothing.
        sched.note_dispatch(nodes(3)[2], 1);
        assert_eq!(sched.in_flight(), 2, "the slots' sum");
        sched.reset_loads();
        assert!(sched.snapshot().iter().all(|slot| slot.in_flight == 0));
        assert_eq!(sched.in_flight(), 0);
    }
}
