//! Compiled plans on the coordinator: decoded and validated once per
//! distinct encoding ([`PlanCache`]), persisted once per fingerprint
//! (`sys/plan/…`), and collected when no instance references them.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use flowscript_plan::Plan;
use flowscript_tx::ObjectUid;

use super::meta::plan_uid_fingerprint;
use super::{stored_instances, CoordHandle, Coordinator};
use crate::error::EngineError;

/// Validated plans by their encoding. Decoding a plan and checking it
/// (`is_well_formed` + `verify_fingerprint`) is a pure function of the
/// bytes, so each distinct encoding — the repository's reply for a
/// script version, a `sys/plan/…` blob — pays it once per coordinator,
/// and every instance of that plan shares one `Rc<Plan>`. Bytes that
/// fail to decode or validate are never entered. Evicted with the
/// blobs, in [`Coordinator::gc_plans`].
#[derive(Default)]
pub(super) struct PlanCache {
    plans: BTreeMap<Vec<u8>, Rc<Plan>>,
}

impl PlanCache {
    pub(super) fn validated(&mut self, bytes: &[u8]) -> Option<Rc<Plan>> {
        if let Some(plan) = self.plans.get(bytes) {
            return Some(plan.clone());
        }
        let plan = flowscript_codec::from_bytes::<Plan>(bytes)
            .ok()
            .filter(|plan| plan.is_well_formed() && plan.verify_fingerprint())?;
        let plan = Rc::new(plan);
        self.plans.insert(bytes.to_vec(), plan.clone());
        Some(plan)
    }

    /// Drops every plan whose fingerprint is not in `live`.
    fn retain_live(&mut self, live: &BTreeSet<u64>) {
        self.plans
            .retain(|_, plan| live.contains(&plan.fingerprint));
    }

    /// The held plans' fingerprints, ascending.
    fn fingerprints(&self) -> Vec<u64> {
        let mut held: Vec<u64> = self.plans.values().map(|plan| plan.fingerprint).collect();
        held.sort_unstable();
        held
    }
}

impl Coordinator {
    /// Drops persisted plan blobs (`sys/plan/…`) no instance references
    /// any more. Plans persist once per fingerprint; every
    /// reconfiguration re-fingerprints, so without this a reconfigured
    /// instance strands its old blobs forever. Runs at checkpoint time
    /// (cold path): the reference set is every resident instance's
    /// current plan plus every persisted meta's fingerprint — covering
    /// instances the shard has not (re)loaded.
    pub(super) fn gc_plans(&mut self) -> Result<(), EngineError> {
        let mut live: BTreeSet<u64> = self
            .instances
            .values()
            .map(|rt| rt.plan.fingerprint)
            .collect();
        live.extend(
            stored_instances(&self.mgr)
                .iter()
                .map(|(_, meta)| meta.plan_fingerprint),
        );
        self.plan_cache.retain_live(&live);
        let stale: Vec<ObjectUid> = self
            .mgr
            .uids_with_prefix("sys/plan/")
            .into_iter()
            .filter(|uid| plan_uid_fingerprint(uid).is_none_or(|fp| !live.contains(&fp)))
            .collect();
        if stale.is_empty() {
            return Ok(());
        }
        let action = self.mgr.begin();
        for uid in &stale {
            self.mgr.delete(&action, uid)?;
        }
        // Straight to the manager: the checkpoint that follows compacts
        // this commit away, and routing through `Self::commit` would
        // re-trigger the checkpoint counter.
        self.mgr.commit(action)?;
        Ok(())
    }
}

impl CoordHandle {
    /// Fingerprints of the compiled-plan blobs persisted in this
    /// shard's store (`sys/plan/…`) — the plan-GC observability hook.
    /// Performs a uid prefix scan: admin/monitoring only.
    pub fn persisted_plan_fingerprints(&self) -> Vec<u64> {
        self.inner
            .borrow()
            .mgr
            .uids_with_prefix("sys/plan/")
            .into_iter()
            .filter_map(|uid| plan_uid_fingerprint(&uid))
            .collect()
    }

    /// Fingerprints of the validated plans this shard holds decoded
    /// (served by the repository or read back from `sys/plan/…`
    /// blobs), ascending — the in-memory twin of
    /// [`CoordHandle::persisted_plan_fingerprints`]; test hook for the
    /// plan-cache suites.
    #[doc(hidden)]
    pub fn cached_plan_fingerprints(&self) -> Vec<u64> {
        self.inner.borrow().plan_cache.fingerprints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::schema;

    #[test]
    fn plan_cache_validates_once_and_never_holds_bad_bytes() {
        let schema =
            schema::compile_source(flowscript_core::samples::FIG1_DIAMOND, "diamond").unwrap();
        let bytes = flowscript_codec::to_bytes(&Plan::lower(&schema));
        let mut cache = PlanCache::default();
        // Every instance of one encoding shares one decoded plan.
        let first = cache.validated(&bytes).expect("a lowered plan validates");
        let again = cache
            .validated(&bytes)
            .expect("and is served from the cache");
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
        // Undecodable, truncated and tampered encodings all miss — and
        // leave no entry behind to be served later.
        let mut tampered = bytes.clone();
        *tampered.last_mut().unwrap() ^= 0xFF; // the stored fingerprint
        for bad in [&[0xFF; 3][..], &bytes[..bytes.len() / 2], &tampered] {
            assert!(cache.validated(bad).is_none());
        }
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
    }
}
