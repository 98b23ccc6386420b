//! Worklist / full-scan equivalence.
//!
//! The event-driven commit pipeline (reverse-edge worklist seeding) is
//! only allowed to be a *faster* scheduling of the same decisions the
//! full scope-tree rescan makes — never a different execution. For
//! randomized workflows — chains with alternative and unconditioned
//! (`AnyOf`) sources, leaf repeat loops, abort outcomes, a nested
//! compound running the Fig. 8 repeat-on-failure loop — and optional
//! mid-run reconfigurations (including task removal, which shifts every
//! dense task id and exercises the fact-key remap), two identically
//! seeded systems — one event-driven, one with
//! `EngineConfig::full_rescan` — must produce **identical dispatch
//! traces**, identical final statuses and identical task states.
//!
//! (In debug builds every drain additionally asserts the quiescence
//! oracle: no startable task or satisfied output left behind.)

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{generated_script, stage_params, StageParams};
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{ObjectVal, Reconfig, TaskBehavior, WorkflowSystem};
use flowscript_sim::SimDuration;
use proptest::prelude::*;

// File-local binding: repeat loops count calls per binding (one instance
// per world) where `common::bind_stages` keys on `ctx.attempt`.
fn bind_stage(sys: &WorkflowSystem, code: &str, params: StageParams) {
    let calls = Rc::new(Cell::new(0u32));
    sys.bind_fn(code, move |_| {
        let call = calls.get();
        calls.set(call + 1);
        if call < params.repeats {
            TaskBehavior::outcome("again")
                .with_object("p", ObjectVal::text("Data", call.to_string()))
                .with_redo_after(SimDuration::from_millis(20))
        } else if params.abort {
            TaskBehavior::outcome("failed")
        } else if params.alt {
            TaskBehavior::outcome("alt").with_object("out", ObjectVal::text("Data", "alt"))
        } else {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "done"))
        }
    });
}

/// Builds one system; `inner_aborts` controls how many times the nested
/// compound's constituent fails (each failure = one compound repeat).
fn build(n: usize, seed: u64, full_rescan: bool, script: &str) -> WorkflowSystem {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(500),
        retry_backoff: SimDuration::from_millis(10),
        max_repeats: 6,
        full_rescan,
        record_dispatches: true,
        ..Default::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(42) // identical virtual worlds; variation comes from `seed`
        .config(config)
        .build();
    sys.register_script("g", script, "root")
        .expect("generated script compiles");
    for i in 0..n {
        bind_stage(&sys, &format!("ref{i}"), stage_params(seed, i));
    }
    let inner_aborts = (seed >> 40) & 0b1; // 0 or 1 compound repeats
    let inner_calls = Rc::new(Cell::new(0u64));
    sys.bind_fn("refInner", move |_| {
        let call = inner_calls.get();
        inner_calls.set(call + 1);
        if call < inner_aborts {
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "inner"))
        }
    });
    sys.bind_fn("refExtra", |_| {
        TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "extra"))
    });
    sys
}

fn reconfig_op(choice: usize, n: usize) -> Option<Reconfig> {
    match choice {
        1 => Some(Reconfig::Rebind {
            code: "ref0".into(),
            to: "refExtra".into(),
        }),
        2 => Some(Reconfig::AddTask {
            scope_path: "root".into(),
            task_source: concat!(
                "task extra of taskclass Stage {\n",
                "    implementation { \"code\" is \"refExtra\" };\n",
                "    inputs { input main { inputobject in from { seed of task root if input main } } }\n",
                "}"
            )
            .into(),
        }),
        // Removing t0 shifts every later dense task id — the fact-key
        // remap must carry the committed facts across.
        3 if n >= 2 => Some(Reconfig::RemoveTask {
            task_path: "root/t0".into(),
        }),
        _ => None,
    }
}

fn run_one(
    n: usize,
    seed: u64,
    reconfig: usize,
    full_rescan: bool,
    script: &str,
) -> WorkflowSystem {
    let mut sys = build(n, seed, full_rescan, script);
    sys.start("i1", "g", "main", [("seed", ObjectVal::text("Data", "s"))])
        .expect("instance starts");
    if let Some(op) = reconfig_op(reconfig, n) {
        sys.run_for(SimDuration::from_millis(30));
        // A removal can be validly rejected depending on progress; both
        // modes see identical state, so both reject or both apply.
        let _ = sys.reconfigure("i1", op);
    }
    sys.run();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worklist_matches_full_rescan(
        n in 1usize..4,
        seed in 0u64..(1u64 << 42),
        reconfig in 0usize..4,
    ) {
        let script = generated_script(n, seed);
        let event_driven = run_one(n, seed, reconfig, false, &script);
        let full_rescan = run_one(n, seed, reconfig, true, &script);

        // Identical dispatch traces: same tasks, same attempts, same order.
        let lhs: Vec<_> = event_driven
            .dispatch_trace()
            .into_iter()
            .map(|d| (d.path, d.attempt))
            .collect();
        let rhs: Vec<_> = full_rescan
            .dispatch_trace()
            .into_iter()
            .map(|d| (d.path, d.attempt))
            .collect();
        prop_assert_eq!(&lhs, &rhs);

        // Identical terminal verdicts and per-task states.
        prop_assert_eq!(
            event_driven.status("i1").unwrap(),
            full_rescan.status("i1").unwrap()
        );
        prop_assert_eq!(event_driven.task_states("i1"), full_rescan.task_states("i1"));
        prop_assert_eq!(
            event_driven.stats().dispatches,
            full_rescan.stats().dispatches
        );
        prop_assert_eq!(event_driven.stats().repeats, full_rescan.stats().repeats);
        // The whole point: the event-driven pipeline re-checks fewer
        // tasks than the per-commit full scan (never more).
        prop_assert!(
            event_driven.stats().evaluations <= full_rescan.stats().evaluations
        );
    }
}
