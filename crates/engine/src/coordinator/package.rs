//! A claim's package: what it carries of an instance, how its receiver
//! re-keys it onto ids of its own, and how its source purges what it
//! handed off. Pure functions over a [`TxManager`]'s committed state —
//! the storage half of [`super::membership`]'s claims.

use flowscript_tx::{AtomicAction, FactKey, StableStore, StoreKey, TxId, TxManager};

use super::InstanceHeader;
use crate::error::EngineError;
use crate::keys::{self, meta_uid, source_uid};
use crate::msg::{AfterImages, EngineMsg};

/// Packages `instance`'s entire committed keyspace out of `mgr` — what
/// a claim carries, whether a live source's own store or a dead shard's
/// reopened storage holds it.
/// Everything derives from the committed header: the instance's uid
/// prefix, the canonical source it pins (under the header's hash; the
/// destination compiles its own plan from it) and the dense range of
/// the header's instance id, every task's facts and control block in
/// one contiguous range scan. The header comes FIRST: it is the entry that tells
/// [`rekeyed`] a new instance's run begins, what it is called and which
/// dense id its fact keys carry. A stuck record, if the instance has
/// one, rides along under the uid prefix. Returns `None` for a missing
/// or undecodable header.
pub(super) fn package_instance(
    mgr: &TxManager<StableStore>,
    instance: &str,
) -> Option<AfterImages> {
    let header_key = meta_uid(instance);
    let header: InstanceHeader = mgr.read_committed_key(&header_key).ok()??;
    let uids = mgr.uids_with_prefix(&keys::instance_prefix(instance));
    let facts = mgr.fact_keys_in_range(
        FactKey::instance_first(header.instance_id),
        FactKey::instance_last(header.instance_id),
    );
    let keys = std::iter::once(header_key.clone())
        .chain(
            uids.into_iter()
                .map(StoreKey::Uid)
                .filter(|key| *key != header_key),
        )
        .chain([source_uid(header.source_hash)])
        .chain(facts.into_iter().map(StoreKey::Fact));
    let images = keys.filter_map(|key| {
        let bytes = mgr.read_committed_bytes(&key)?.to_vec();
        Some((key, Some(bytes)))
    });
    Some(images.collect())
}

/// The claim of `instances`, as `mgr` holds them committed, encoded:
/// their packages back to back, under `id` and `epoch`.
pub(super) fn claim_bytes(
    mgr: &TxManager<StableStore>,
    id: TxId,
    epoch: u64,
    fenced: bool,
    instances: &[String],
) -> Vec<u8> {
    let packages = instances
        .iter()
        .filter_map(|name| package_instance(mgr, name));
    let writes = packages.flatten().collect();
    flowscript_codec::to_bytes(&EngineMsg::Claim {
        id,
        epoch,
        fenced,
        writes,
    })
}

/// Packaged entries ([`package_instance`] runs, back to back) as the
/// receiving shard stores them: each instance, in order of appearance,
/// takes the next dense id from `base` — every dense key, fact or
/// control block, re-keyed onto it (the dense id is shard-local; the
/// instance keeps its name), the
/// header's `instance_id` rewritten to match, everything else verbatim.
/// An instance `skip` names is left out whole. Returns the instances
/// kept, in id order, beside their entries.
///
/// # Errors
///
/// Entries that do not parse as such runs: a fact key outside its
/// run's id, a run that does not open with a decodable header.
pub(super) fn rekeyed(
    images: AfterImages,
    base: u32,
    skip: impl Fn(&str) -> bool,
) -> Result<(Vec<String>, AfterImages), EngineError> {
    let malformed = |what: &str| EngineError::Tx(format!("claim package malformed: {what}"));
    let mut names: Vec<String> = Vec::new();
    let mut out = AfterImages::with_capacity(images.len());
    // The open run: its uid prefix, the dense id its fact keys carry,
    // and the id they move onto (`None`: the instance is skipped).
    let mut run: Option<(String, u32, Option<u32>)> = None;
    for (key, bytes) in images {
        let uid = match &key {
            StoreKey::Fact(fact) => {
                let Some((_, src_id, new_id)) = &run else {
                    return Err(malformed("a fact before any header"));
                };
                if fact.instance != *src_id {
                    return Err(malformed("a fact outside its instance's id"));
                }
                if let Some(instance) = *new_id {
                    out.push((StoreKey::Fact(FactKey { instance, ..*fact }), bytes));
                }
                continue;
            }
            StoreKey::Uid(uid) => uid.as_str(),
        };
        let in_run = run
            .as_ref()
            .is_some_and(|(prefix, ..)| uid.starts_with(prefix));
        if !in_run && uid.starts_with(keys::INSTANCE_ROOT) {
            let name = keys::header_instance(uid)
                .ok_or_else(|| malformed("a run that does not open with its header"))?;
            let mut header: InstanceHeader = bytes
                .as_deref()
                .and_then(|bytes| flowscript_codec::from_bytes(bytes).ok())
                .ok_or_else(|| malformed("a header that does not decode"))?;
            let new_id = (!skip(&name)).then(|| base + names.len() as u32);
            run = Some((keys::instance_prefix(&name), header.instance_id, new_id));
            if let Some(new_id) = new_id {
                names.push(name);
                header.instance_id = new_id;
                out.push((key, Some(flowscript_codec::to_bytes(&header))));
            }
        } else if matches!(run, Some((.., Some(_)))) {
            // One of the run's own objects, or the source it pins.
            out.push((key, bytes));
        }
    }
    Ok((names, out))
}

/// Stages into `action` the deletion of every committed object of
/// `instance`: its whole uid prefix plus the dense range — facts and
/// control blocks — of the header's instance id. The storage half of
/// a landed round at its source, and of a superseded frozen copy (the
/// shared source blob stays; blob GC collects it once no local instance
/// pins it).
pub(super) fn purge_instance(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    instance: &str,
) -> Result<(), EngineError> {
    let header: Option<InstanceHeader> = mgr.read_committed_key(&meta_uid(instance))?;
    for uid in mgr.uids_with_prefix(&keys::instance_prefix(instance)) {
        mgr.delete_key(action, &StoreKey::Uid(uid))?;
    }
    if let Some(header) = &header {
        let lo = FactKey::instance_first(header.instance_id);
        let hi = FactKey::instance_last(header.instance_id);
        for key in mgr.fact_keys_in_range(lo, hi) {
            mgr.delete_key(action, &StoreKey::Fact(key))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(instance_id: u32) -> InstanceHeader {
        InstanceHeader {
            source_hash: 5,
            root: "root".into(),
            instance_id,
        }
    }

    /// One stuck instance's run as `package_instance` lays it out: the
    /// header, the stuck record, the shared source, one fact and one
    /// control block.
    fn run(name: &str, id: u32) -> AfterImages {
        vec![
            (
                meta_uid(name),
                Some(flowscript_codec::to_bytes(&header(id))),
            ),
            (crate::keys::status_uid(name), Some(vec![0])),
            (source_uid(5), Some(vec![4])),
            (StoreKey::Fact(FactKey::output(id, 2, 1)), Some(vec![3])),
            (StoreKey::Fact(FactKey::control(id, 2)), Some(vec![1])),
        ]
    }

    #[test]
    fn rekeyed_moves_facts_and_header_onto_the_new_ids_and_nothing_else() {
        // Two runs back to back, both on the source's ids 3 and 4, land
        // on 7 and 8: facts and headers move, the rest is verbatim. The
        // second's name extends the first's by a `/`: its run is its own.
        let images = [run("i", 3), run("i/j", 4)].concat();
        let (names, entries) = rekeyed(images.clone(), 7, |_| false).expect("well-formed runs");
        assert_eq!(names, ["i", "i/j"]);
        assert_eq!(entries, [run("i", 7), run("i/j", 8)].concat());
        // A skipped instance is left out whole, and takes no id.
        let (names, entries) = rekeyed(images, 7, |name| name == "i").expect("well-formed runs");
        assert_eq!((names, entries), (vec!["i/j".to_string()], run("i/j", 7)));
        // Hostile bytes are a typed error, never a panic: a corrupt
        // header, a fact before any run, a fact on somebody else's id,
        // a run that opens with something other than its header.
        let corrupt = vec![(meta_uid("i"), Some(vec![0xFF; 3]))];
        let stray = vec![run("i", 3).remove(3)];
        let mut foreign = run("i", 3);
        foreign.push((StoreKey::Fact(FactKey::output(4, 0, 0)), Some(vec![])));
        let headless = run("i", 3).split_off(1);
        for bad in [corrupt, stray, foreign, headless] {
            assert!(matches!(
                rekeyed(bad, 7, |_| false),
                Err(EngineError::Tx(why)) if why.contains("malformed")
            ));
        }
    }
}
