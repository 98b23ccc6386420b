//! Storage keys: the string uid layout, and the dense keys a probe reads.
//!
//! **The uid layout lives here and nowhere else**: every uid is spelled
//! here, and leaves here as a [`StoreKey`] — the one key type the store
//! takes — so no caller converts one. What an instance
//! keeps under a *name* sits under `inst/<name>/…` — `meta` (the
//! header) and, only while it is parked `Stuck`, `status` (why) — with the name
//! **escaped** where it
//! enters the uid (`%` → `%25`, `/` → `%2F`), so the name is exactly one
//! path segment: no instance's prefix is a prefix of another's.
//! Shard-wide objects sit under `sys/…`: the canonical sources
//! instances share by content (`sys/src/<hash>`; the plan an instance
//! runs is its source compiled, and is never stored),
//! `sys/move/<id>`, the record of a round this shard decided to move
//! out, and `sys/claimed/<id>`, the receipt of a claim this shard landed
//! (see [`crate::coordinator`]'s membership protocol).
//!
//! Everything an instance keeps **per task** is dense-keyed by
//! `(instance id, task id)` — the header assigns the first, the plan the
//! second: the task's input-binding and output facts and, after them,
//! its control block ([`FactKey::control`]). One contiguous range holds
//! a task, a subtree (plans number tasks in DFS pre-order) or the whole
//! instance, so hand-off packages, re-keys and purges blocks with the
//! facts, and no per-task object's key is ever formatted, hashed as a
//! string or compared bytewise.
//!
//! **An instance id is shard-local and named only by the instance's own
//! keys**: its header and its dense range. Everything that crosses an
//! instance's boundary names it by its name — executor reports and
//! relays, timers, move records and their claims (which re-key the ids
//! they carry onto the receiver's) — so no id is stored for the shard
//! at large. A shard allots the next id past the highest its store
//! holds (the last fact key, every header), keeps the count in memory,
//! and recomputes it at a restart: the id of an instance purged whole
//! may then be reused, and nothing can mistake one for the other.
//!
//! **A live instance is its id**: nothing is built per instance. Every
//! plan dependency source (and every `AnyOf` candidate) carries the
//! ordinals lowering derived for it — the probed fact's in its
//! producer's class ([`flowscript_plan::PlanSource::fact_ordinal`]) and
//! the taken object's in that fact's declaration — so [`probe_keys`]
//! places them under the instance's id by index arithmetic: the sub-key
//! whose existence answers "fired?" (the first declared object,
//! `obj = 1`, where the declaration has one; the *presence* record,
//! `obj = 0`, which a fact keeps only when no declared object can say
//! it fired) and the *data* sub-key of the one object the source takes
//! (`obj = ordinal + 1`, holding exactly that object's bytes). A
//! readiness probe is then point reads that decode that one object,
//! never a range scan or a whole record, and it compares no name,
//! scans nothing and allocates nothing. The header and stuck-record
//! uids are spelled on demand ([`meta_uid`], [`status_uid`]): every use
//! is cold — a start, a load, status, parking, repair, reconfiguration.

use std::borrow::Cow;
use std::fmt::Write;

use flowscript_plan::{Plan, PlanCond, Probe, TaskId};
use flowscript_tx::{FactKey, FactKind, ObjectUid, StoreKey, TxId};

/// Every per-instance uid starts with this.
pub(crate) const INSTANCE_ROOT: &str = "inst/";
/// What a header uid ends with (`uids_matching(INSTANCE_ROOT,
/// HEADER_SUFFIX)` enumerates the stored instances' headers;
/// [`header_instance`] names each).
pub(crate) const HEADER_SUFFIX: &str = "/meta";
/// The prefix of every pinned canonical source.
pub(crate) const SOURCE_PREFIX: &str = "sys/src/";
/// The prefix of every hand-off round's move record; a scan of it
/// yields one source's rounds oldest first.
pub(crate) const MOVE_PREFIX: &str = "sys/move/";
/// The prefix of every landed claim's receipt.
pub(crate) const CLAIMED_PREFIX: &str = "sys/claimed/";

/// An instance name as it appears in a uid: one path segment.
fn escape(name: &str) -> Cow<'_, str> {
    if !name.contains(['%', '/']) {
        return Cow::Borrowed(name);
    }
    Cow::Owned(name.replace('%', "%25").replace('/', "%2F"))
}

/// Inverse of [`escape`]; `None` for a segment `escape` cannot have
/// produced.
fn unescape(segment: &str) -> Option<String> {
    let mut name = String::with_capacity(segment.len());
    let mut rest = segment;
    while let Some(at) = rest.find(['%', '/']) {
        name.push_str(&rest[..at]);
        name.push(match rest.get(at..at + 3)? {
            "%25" => '%',
            "%2F" => '/',
            _ => return None,
        });
        rest = &rest[at + 3..];
    }
    name.push_str(rest);
    Some(name)
}

/// The prefix every uid of `instance` — and of no other instance —
/// starts with.
pub(crate) fn instance_prefix(instance: &str) -> String {
    instance_uid(instance, "")
}

/// `instance`'s uid ending in `suffix`, spelled into one allocation.
fn instance_uid(instance: &str, suffix: &str) -> String {
    let segment = escape(instance);
    let mut uid = String::with_capacity(INSTANCE_ROOT.len() + segment.len() + 1 + suffix.len());
    for part in [INSTANCE_ROOT, &segment, "/", suffix] {
        uid.push_str(part);
    }
    uid
}

fn key(uid: String) -> StoreKey {
    StoreKey::Uid(ObjectUid::new(uid))
}

/// The key of an instance's header.
pub(crate) fn meta_uid(instance: &str) -> StoreKey {
    key(instance_uid(instance, "meta"))
}

/// The instance a header uid names — the inverse of [`meta_uid`];
/// `None` for every other uid.
pub(crate) fn header_instance(uid: &str) -> Option<String> {
    let segment = uid
        .strip_prefix(INSTANCE_ROOT)?
        .strip_suffix(HEADER_SUFFIX)?;
    unescape(segment)
}

/// The key of an instance's stuck record: present only while it is
/// parked `Stuck`.
pub(crate) fn status_uid(instance: &str) -> StoreKey {
    key(instance_uid(instance, "status"))
}

/// A script's canonical source persists once per content hash, shared
/// by every instance started from that text.
pub(crate) fn source_uid(hash: u64) -> StoreKey {
    let mut uid = String::with_capacity(SOURCE_PREFIX.len() + 16);
    let _ = write!(uid, "{SOURCE_PREFIX}{hash:016x}");
    key(uid)
}

/// Inverse of [`source_uid`]: the hash a source blob's uid names.
pub(crate) fn source_blob_hash(uid: &ObjectUid) -> Option<u64> {
    let hex = uid.as_str().strip_prefix(SOURCE_PREFIX)?;
    u64::from_str_radix(hex, 16).ok()
}

/// The record of the hand-off round `id` — the id of the action that
/// decided it.
pub(crate) fn move_uid(id: TxId) -> StoreKey {
    key(format!("{MOVE_PREFIX}{:08x}.{:016x}", id.node(), id.seq()))
}

/// The shard-wide key a restart that ships anything rewrites, so the
/// log moves past the sequence number the restarted life counts its
/// dispatch tickets from (see the coordinator's dispatch module).
pub(crate) fn life_uid() -> StoreKey {
    key("sys/life".to_string())
}

/// Inverse of [`move_uid`]: the round a move-record uid names.
pub(crate) fn move_id(uid: &ObjectUid) -> Option<TxId> {
    let (node, seq) = uid.as_str().strip_prefix(MOVE_PREFIX)?.split_once('.')?;
    let node = u32::from_str_radix(node, 16).ok()?;
    Some(TxId::new(node, u64::from_str_radix(seq, 16).ok()?))
}

/// The receipt of claim `id`, written by the action that landed it.
pub(crate) fn claimed_uid(id: TxId) -> StoreKey {
    key(format!(
        "{CLAIMED_PREFIX}{:08x}.{:016x}",
        id.node(),
        id.seq()
    ))
}

/// The sub-key whose existence says the fact at `base` fired: the first
/// declared object's (`obj = 1`) when the declaration has objects — a
/// fact stored with that object keeps no presence record — else the
/// presence record (`obj = 0`).
pub(crate) fn fired_key(plan: &Plan, base: FactKey) -> FactKey {
    let decl = plan.fact_decl_objects(base.task, base.kind == FactKind::Input, base.item);
    match decl {
        Some(decl) if !decl.is_empty() => base.object(0),
        _ => base,
    }
}

/// The dense keys one dependency probe resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProbeKeys {
    /// The probed fact's presence sub-key (`obj = 0`): stored only when
    /// no declared object says the fact fired (see [`fired_key`]); its
    /// payload carries only objects with no declared ordinal.
    pub presence: FactKey,
    /// The sub-key read first to answer "fired?" ([`fired_key`]); when
    /// it is not `presence` and is absent, `presence` settles it.
    pub fired: FactKey,
    /// The sub-key holding the probed object's value alone (`None` for
    /// notifications, or when the object is undeclared at the producer
    /// — such a value, if published at all, lives in the presence
    /// record).
    pub data: Option<FactKey>,
}

/// What an evaluation probe of instance `instance`, running `plan`,
/// reads: the plan's derived ordinals of the probed source (or `AnyOf`
/// candidate) placed under the instance's id — index arithmetic, no
/// name compared, nothing scanned or allocated. `None` for a probe that
/// can never fire: its producer is gone, or does not declare the named
/// set or output.
pub(crate) fn probe_keys(plan: &Plan, instance: u32, probe: &Probe<'_>) -> Option<ProbeKeys> {
    let source = &plan.sources[probe.source as usize];
    let producer = source.producer?;
    let (base, object) = match probe.candidate {
        Some(cand) => {
            let item = plan.any_fact_ordinals[cand as usize]?;
            let object = plan.any_obj_ordinals[cand as usize];
            (FactKey::output(instance, producer, item), object)
        }
        None if matches!(source.cond, PlanCond::Input(_)) => {
            let item = source.fact_ordinal?;
            (
                FactKey::input(instance, producer, item),
                source.object_ordinal,
            )
        }
        None => {
            let item = source.fact_ordinal?;
            (
                FactKey::output(instance, producer, item),
                source.object_ordinal,
            )
        }
    };
    Some(ProbeKeys {
        presence: base,
        fired: fired_key(plan, base),
        data: object.map(|ordinal| base.object(ordinal)),
    })
}

/// The presence sub-key of `task`'s output fact named `name`, of
/// instance `instance` (commit paths; the name arrives from the wire,
/// so one short scan over the class's declared outputs compares
/// interned strings — no allocation).
pub(crate) fn out_key(plan: &Plan, instance: u32, task: TaskId, name: &str) -> Option<FactKey> {
    let class = plan.class_of(plan.task(task));
    plan.class_output_ordinal(class, name)
        .map(|item| FactKey::output(instance, task, item))
}

/// The presence sub-key of `task`'s input-binding fact for set `name`,
/// of instance `instance`.
pub(crate) fn in_key(plan: &Plan, instance: u32, task: TaskId, name: &str) -> Option<FactKey> {
    let class = plan.class_of(plan.task(task));
    plan.class_set_ordinal(class, name)
        .map(|item| FactKey::input(instance, task, item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::schema::compile_source;

    fn uid(key: &StoreKey) -> &ObjectUid {
        key.as_uid().expect("a string key")
    }

    fn order_plan() -> Plan {
        let schema = compile_source(
            flowscript_core::samples::ORDER_PROCESSING,
            "processOrderApplication",
        )
        .unwrap();
        Plan::lower(&schema)
    }

    #[test]
    fn no_instance_owns_a_uid_under_anothers_prefix() {
        let names = ["a", "a/b", "a/bind/x", "inst/a", "b/meta", "50%", "a%2Fb"];
        let uids_of = |name: &str| [meta_uid(name), status_uid(name)];
        for name in names {
            assert_eq!(unescape(&escape(name)).as_deref(), Some(name));
            assert_eq!(
                header_instance(uid(&meta_uid(name)).as_str()).as_deref(),
                Some(name)
            );
            for key in uids_of(name) {
                for other in names {
                    assert_eq!(
                        uid(&key).as_str().starts_with(&instance_prefix(other)),
                        other == name,
                        "`{key}` of `{name}` against the prefix of `{other}`"
                    );
                }
            }
            // Only the header reads as one.
            let status = status_uid(name);
            assert_eq!(header_instance(uid(&status).as_str()), None);
        }
        // Segments `escape` never produces name nobody.
        for segment in ["a%", "a%2", "a%2f", "a%41", "a/b"] {
            assert_eq!(unescape(segment), None, "`{segment}`");
        }
        // Names without `%` or `/` appear verbatim: the layout every
        // golden log was rendered under.
        assert_eq!(uid(&meta_uid("order-1")).as_str(), "inst/order-1/meta");
        assert_eq!(uid(&status_uid("order-1")).as_str(), "inst/order-1/status");
        assert_eq!(source_blob_hash(uid(&source_uid(0xAB))), Some(0xAB));
        assert_eq!(source_blob_hash(uid(&source_uid(u64::MAX))), Some(u64::MAX));
        assert_eq!(source_blob_hash(uid(&move_uid(TxId::new(1, 2)))), None);
        let round = TxId::new(3, 0x1_0000_0002);
        assert_eq!(
            uid(&move_uid(round)).as_str(),
            "sys/move/00000003.0000000100000002"
        );
        assert_eq!(move_id(uid(&move_uid(round))), Some(round));
        assert_eq!(move_id(uid(&source_uid(1))), None);
        assert_eq!(move_id(&ObjectUid::new("sys/move/3")), None);
    }

    /// The probe the evaluator builds for `source` (and `candidate`).
    fn probe(plan: &Plan, source: usize, candidate: Option<usize>) -> Probe<'_> {
        let src = &plan.sources[source];
        let (name, is_input) = match (&src.cond, candidate) {
            (_, Some(cand)) => (plan.any_pool[cand], false),
            (PlanCond::Input(set), None) => (*set, true),
            (PlanCond::Output(output), None) => (*output, false),
            (PlanCond::AnyOf(_), None) => unreachable!("a candidate is probed"),
        };
        Probe {
            source: source as u32,
            candidate: candidate.map(|cand| cand as u32),
            producer: plan.str(src.producer_path),
            name: plan.str(name),
            is_input,
        }
    }

    #[test]
    fn every_source_of_a_live_plan_resolves() {
        let plan = order_plan();
        let mut resolved = Vec::new();
        for (idx, source) in plan.sources.iter().enumerate() {
            match &source.cond {
                PlanCond::AnyOf(range) => {
                    for cand in range.iter() {
                        let keys = probe_keys(&plan, 3, &probe(&plan, idx, Some(cand)));
                        assert!(keys.is_some(), "candidate {cand} unresolved");
                        resolved.extend(keys);
                    }
                }
                _ => {
                    let keys = probe_keys(&plan, 3, &probe(&plan, idx, None));
                    assert!(keys.is_some(), "source {idx} unresolved");
                    // Dataflow sources resolve their object's data sub-key too.
                    if source.object.is_some() {
                        assert!(
                            keys.unwrap().data.is_some(),
                            "source {idx} lost its object sub-key"
                        );
                    }
                    resolved.extend(keys);
                }
            }
        }
        for probe in resolved {
            assert_eq!(probe.presence.instance, 3);
            assert_eq!(probe.presence.obj, 0, "presence keys address sub-object 0");
            if let Some(data) = probe.data {
                assert!(data.obj >= 1, "data keys address declared sub-objects");
                assert_eq!(data.with_obj(0), probe.presence);
            }
            // "Fired?" reads the first declared object where there is
            // one: a point read either way.
            let base = probe.presence;
            let decl = plan.fact_decl_objects(base.task, base.kind == FactKind::Input, base.item);
            let declares = !decl.expect("a resolved fact is declared").is_empty();
            assert_eq!(probe.fired.with_obj(0), base);
            assert_eq!(probe.fired.obj, u32::from(declares), "{base}");
        }
    }

    #[test]
    fn write_keys_match_probe_keys() {
        let plan = order_plan();
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        // The key the commit path writes under must be the key probes
        // read from: find the source probing checkStock/stockAvailable.
        let written = out_key(&plan, 0, check, "stockAvailable").unwrap();
        assert_eq!(written.kind, FactKind::Output);
        let probed = plan
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.producer == Some(check))
            .filter_map(|(idx, s)| match &s.cond {
                PlanCond::Output(name) if plan.str(*name) == "stockAvailable" => {
                    probe_keys(&plan, 0, &probe(&plan, idx, None))
                }
                _ => None,
            })
            .next()
            .expect("stockAvailable is probed");
        assert_eq!(written, probed.presence);
        // The data sub-key addresses stockInfo — declared ordinal 0.
        assert_eq!(probed.data, Some(written.object(0)));
    }

    #[test]
    fn the_instance_range_spans_every_block() {
        let schema =
            compile_source(flowscript_core::samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let plan = Plan::lower(&schema);
        let (lo, hi) = (FactKey::instance_first(1), FactKey::instance_last(1));
        for task in [0, plan.tasks.len() as TaskId - 1] {
            let block = FactKey::control(1, task);
            assert!(lo <= block && block <= hi);
            assert_eq!(block.instance, 1);
            assert_eq!(block.task, task);
            for item in 0..3 {
                let fact = FactKey::output(1, task, item).object(item);
                assert!(lo <= fact && fact <= hi, "{fact}");
                assert!(fact < block, "a block sorts after its task's facts");
            }
        }
    }
}
