//! Leaf-level marks (early release during execution, Fig. 3) and
//! leaf-level repeat outcomes — the non-compound halves of the output
//! model, complementing the compound cases in `paper_scenarios.rs` —
//! and what a compound repeat leaves in the log.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use flowscript_core::samples;
use flowscript_core::schema::compile_source;
use flowscript_engine::{CbState, EngineConfig, ObjectVal, TaskBehavior, WorkflowSystem};
use flowscript_plan::Plan;
use flowscript_sim::{SimDuration, SimTime};
use flowscript_tx::FactKind;

const MARK_SCRIPT: &str = r#"
class Data;
class Cost;

taskclass LongRunner {
    inputs { input main { in of class Data } };
    outputs {
        outcome finished { out of class Data };
        mark estimate { cost of class Cost }
    }
}

taskclass EagerConsumer {
    inputs { input main { cost of class Cost } };
    outputs { outcome billed { } }
}

taskclass Root {
    inputs { input main { in of class Data } };
    outputs {
        outcome done { out of class Data };
        mark bill { cost of class Cost }
    }
}

compoundtask root of taskclass Root {
    task runner of taskclass LongRunner {
        implementation { "code" is "refRunner" };
        inputs { input main { inputobject in from { in of task root if input main } } }
    };
    task biller of taskclass EagerConsumer {
        implementation { "code" is "refBiller" };
        inputs { input main { inputobject cost from { cost of task runner if output estimate } } }
    };
    outputs {
        outcome done {
            outputobject out from { out of task runner if output finished };
            notification from { task biller if output billed }
        };
        mark bill {
            outputobject cost from { cost of task runner if output estimate }
        }
    }
}
"#;

#[test]
fn leaf_mark_released_while_task_still_executing() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(91).build();
    sys.register_script("m", MARK_SCRIPT, "root").unwrap();
    // The runner works for 10 seconds but releases its cost estimate
    // after 1 second.
    sys.bind_fn("refRunner", |ctx| {
        TaskBehavior::outcome("finished")
            .with_work(SimDuration::from_secs(10))
            .with_mark(
                SimDuration::from_secs(1),
                "estimate",
                [("cost", ObjectVal::text("Cost", "42"))],
            )
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    sys.bind_fn("refBiller", |ctx| {
        assert_eq!(ctx.input_text("cost"), "42");
        TaskBehavior::outcome("billed")
    });
    sys.start("m1", "m", "main", [("in", ObjectVal::text("Data", "x"))])
        .unwrap();

    // After 2 virtual seconds the mark is out, the biller has consumed
    // it, and the runner is *still executing* — early release in action.
    sys.run_until(SimTime::from_nanos(2_000_000_000));
    let states = sys.task_states("m1");
    assert!(matches!(states["root/runner"], CbState::Executing { .. }));
    assert!(matches!(states["root/biller"], CbState::Done { .. }));
    // The compound-level `bill` mark was propagated from the leaf mark.
    assert_eq!(
        sys.output_fact("m1", "root", "bill").unwrap()["cost"].as_text(),
        "42"
    );
    assert!(sys.outcome("m1").is_none(), "root must still be running");

    sys.run();
    let outcome = sys.outcome("m1").expect("completes");
    assert_eq!(outcome.name, "done");
    assert_eq!(sys.stats().marks, 2, "leaf mark + compound mark");
}

#[test]
fn duplicate_and_undeclared_marks_ignored() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(92).build();
    sys.register_script("m", MARK_SCRIPT, "root").unwrap();
    sys.bind_fn("refRunner", |ctx| {
        TaskBehavior::outcome("finished")
            .with_work(SimDuration::from_secs(2))
            // The same mark twice plus one the class does not declare:
            // only the first `estimate` may land.
            .with_mark(
                SimDuration::from_millis(100),
                "estimate",
                [("cost", ObjectVal::text("Cost", "1"))],
            )
            .with_mark(
                SimDuration::from_millis(200),
                "estimate",
                [("cost", ObjectVal::text("Cost", "2"))],
            )
            .with_mark(
                SimDuration::from_millis(300),
                "undeclared",
                [("cost", ObjectVal::text("Cost", "3"))],
            )
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    sys.bind_fn("refBiller", |ctx| {
        assert_eq!(ctx.input_text("cost"), "1", "first mark wins");
        TaskBehavior::outcome("billed")
    });
    sys.start("m1", "m", "main", [("in", ObjectVal::text("Data", "x"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("m1").is_some());
    let fact = sys.output_fact("m1", "root/runner", "estimate").unwrap();
    assert_eq!(fact["cost"].as_text(), "1");
    assert!(sys.output_fact("m1", "root/runner", "undeclared").is_none());
}

const LEAF_REPEAT_SCRIPT: &str = r#"
class Data;

taskclass Poller {
    inputs { input main { in of class Data } };
    outputs {
        outcome ready { out of class Data };
        repeat outcome poll { progress of class Data }
    }
}

taskclass Root {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}

compoundtask root of taskclass Root {
    task poller of taskclass Poller {
        implementation { "code" is "refPoller" };
        inputs { input main { inputobject in from { in of task root if input main } } }
    };
    outputs { outcome done { outputobject out from { out of task poller if output ready } } }
}
"#;

#[test]
fn a_repeating_leaf_reexecutes_with_carried_objects() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(93).build();
    sys.register_script("p", LEAF_REPEAT_SCRIPT, "root")
        .unwrap();
    // Poll until the carried progress counter reaches 3 (Fig. 3's
    // Repeat1 transition, state carried through repeat objects).
    sys.bind_fn("refPoller", |ctx| {
        let progress: u32 = ctx
            .repeat_object("progress")
            .map(|o| o.as_text().parse().unwrap_or(0))
            .unwrap_or(0);
        if progress < 3 {
            TaskBehavior::outcome("poll")
                .with_object(
                    "progress",
                    ObjectVal::text("Data", (progress + 1).to_string()),
                )
                .with_redo_after(SimDuration::from_millis(50))
        } else {
            TaskBehavior::outcome("ready").with_object(
                "out",
                ObjectVal::text("Data", format!("after-{progress}-polls")),
            )
        }
    });
    sys.start("p1", "p", "main", [("in", ObjectVal::text("Data", "x"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("p1").expect("poller converges");
    assert_eq!(outcome.objects["out"].as_text(), "after-3-polls");
    assert_eq!(sys.stats().repeats, 3);
    // The redo delays are visible in virtual time (3 × 50ms + work).
    assert!(sys.now() >= SimTime::from_nanos(150_000_000));
}

#[test]
fn repeat_objects_name_the_leaf_that_made_them() {
    // The objects of a repeat outcome are the leaf's, as an outcome's
    // and a mark's are: stamped with its path in the fact it publishes
    // and in what the next attempt is handed back.
    let mut sys = WorkflowSystem::builder().executors(2).seed(93).build();
    sys.register_script("p", LEAF_REPEAT_SCRIPT, "root")
        .unwrap();
    let carried = Arc::new(Mutex::new(Vec::new()));
    let saw = carried.clone();
    sys.bind_fn("refPoller", move |ctx| match ctx.attempt {
        0 => TaskBehavior::outcome("poll")
            .with_object("progress", ObjectVal::text("Data", "1"))
            .with_redo_after(SimDuration::from_millis(5)),
        _ => {
            saw.lock()
                .unwrap()
                .push(ctx.repeat_object("progress").unwrap().to_val());
            TaskBehavior::outcome("ready").with_object("out", ObjectVal::text("Data", "done"))
        }
    });
    sys.start("p1", "p", "main", [("in", ObjectVal::text("Data", "x"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("p1").expect("converges").name, "done");
    let published = sys.output_fact("p1", "root/poller", "poll").unwrap();
    assert_eq!(published["progress"].produced_by, "root/poller");
    let stamped = ObjectVal::text("Data", "1").produced_by("root/poller");
    assert_eq!(*carried.lock().unwrap(), [stamped]);
}

#[test]
fn a_repeating_leaf_is_held_to_the_repeat_limit() {
    let config = EngineConfig {
        max_repeats: 5,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(94)
        .config(config)
        .build();
    sys.register_script("p", LEAF_REPEAT_SCRIPT, "root")
        .unwrap();
    // Never converges: the repeat bound must stop it.
    sys.bind_fn("refPoller", |_| {
        TaskBehavior::outcome("poll")
            .with_object("progress", ObjectVal::text("Data", "0"))
            .with_redo_after(SimDuration::from_millis(1))
    });
    sys.start("p1", "p", "main", [("in", ObjectVal::text("Data", "x"))])
        .unwrap();
    sys.run();
    match sys.status("p1").unwrap() {
        flowscript_engine::InstanceStatus::Stuck { reason } => {
            assert!(reason.contains("repeat limit"), "{reason}");
        }
        other => panic!("expected repeat-limit stuck, got {other:?}"),
    }
}

#[test]
fn compound_repeat_deletes_the_subtrees_facts_and_resets_its_blocks() {
    // Fig. 8: the hotel fails in the first incarnation, the flight is
    // cancelled and `businessReservation` takes its `retry`.
    let mut sys = common::build(1, common::det_config());
    sys.start(
        "trip-retry",
        "trip",
        "main",
        [("user", common::text("User", "retry"))],
    )
    .unwrap();
    sys.run();
    assert_eq!(sys.outcome("trip-retry").expect("converges").name, "booked");
    assert_eq!(sys.stats().repeats, 1);

    let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
    let plan = Plan::lower(&schema);
    let scope = plan
        .task_by_path("tripReservation/businessReservation")
        .unwrap();
    let subtree: BTreeSet<u32> = plan.subtree(scope).collect();

    let frames = common::log_frames(&sys.storage());
    let dense = |frame| {
        let writes = common::frame_writes(frame).into_iter();
        writes.filter_map(|(key, value)| Some((key.as_fact()?, value.is_some())))
    };
    // The one commit that deletes anything dense is the repeat's: what
    // it deletes are facts of the subtree (and the scope's own input
    // binding), and it rewrites every block of the subtree.
    let mut deleted_facts = 0;
    let mut reset = BTreeSet::new();
    for frame in &frames {
        let images: Vec<_> = dense(frame).collect();
        if images.iter().all(|(_, written)| *written) {
            continue;
        }
        for (key, written) in images {
            match (key.kind, written) {
                (FactKind::Control, true) => {
                    reset.insert(key.task);
                }
                (FactKind::Control, false) => panic!("`{key}` was deleted, not reset"),
                (_, false) => {
                    assert!(subtree.contains(&key.task) || key.task == scope, "`{key}`");
                    deleted_facts += 1;
                }
                (_, true) => {}
            }
        }
    }
    assert!(deleted_facts > 0, "the first incarnation's facts stayed");
    assert!(
        reset.is_superset(&subtree),
        "{reset:?} misses some of {subtree:?}"
    );
}

/// A root that repeats: `w` reads both objects of the root's second
/// input set `alt`, and the root takes `again` whenever `w` does.
const ROOT_REPEAT: &str = r#"
class Data;

taskclass Work {
    inputs { input main { in of class Data; extra of class Data } };
    outputs { outcome done { }; outcome again { } }
}

taskclass Root {
    inputs {
        input main { seed of class Data };
        input alt { seed of class Data; note of class Data }
    };
    outputs { outcome done { }; repeat outcome again { } }
}

compoundtask root of taskclass Root {
    task w of taskclass Work {
        implementation { "code" is "refWork" };
        inputs {
            input main {
                inputobject in from { seed of task root if input alt };
                inputobject extra from { note of task root if input alt }
            }
        }
    };
    outputs {
        outcome done { notification from { task w if output done } };
        repeat outcome again { notification from { task w if output again } }
    }
}
"#;

#[test]
fn a_repeating_root_reactivates_on_its_start_set_and_inputs_across_a_restart() {
    // `w` takes `again` in incarnations 0 and 1 — the second time 100 ms
    // in, across a crash of the coordinator and the executor, so that the
    // restart re-sends it — and `done` in incarnation 2. Each of the
    // root's incarnations runs on the set it was started on, `alt`, not
    // its class's first, and hands `w` the objects it was started with.
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .seed(17)
        .config(common::det_config())
        .build();
    sys.register_script("rr", ROOT_REPEAT, "root").unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let saw = seen.clone();
    sys.bind_fn("refWork", move |ctx| {
        let inputs = ctx
            .inputs()
            .map(|(name, object)| (name.to_string(), object.to_val()));
        saw.lock()
            .unwrap()
            .push((ctx.incarnation, inputs.collect::<BTreeMap<_, _>>()));
        match ctx.incarnation {
            0 => TaskBehavior::outcome("again"),
            1 => TaskBehavior::outcome("again").with_work(SimDuration::from_millis(100)),
            _ => TaskBehavior::outcome("done"),
        }
    });
    let started = [
        ("seed", ObjectVal::text("Data", "s")),
        ("note", ObjectVal::text("Data", "n")),
    ];
    sys.start("r", "rr", "alt", started.clone()).unwrap();
    let root_active_on_alt = |sys: &WorkflowSystem| {
        assert_eq!(
            sys.task_states("r")["root"],
            CbState::Active { set: "alt".into() }
        );
    };
    sys.run_for(SimDuration::from_millis(20));
    assert_eq!(sys.stats().repeats, 1, "incarnation 0 repeated the root");
    root_active_on_alt(&sys);
    common::restart_with_executors(&mut sys);
    root_active_on_alt(&sys);
    sys.run();
    assert_eq!(sys.outcome("r").expect("completes").name, "done");
    assert_eq!(
        sys.stats().repeats,
        2,
        "and incarnation 1, after the restart"
    );
    let seen = seen.lock().unwrap();
    let incarnations: Vec<u32> = seen.iter().map(|(incarnation, _)| *incarnation).collect();
    assert_eq!(incarnations, [0, 1, 1, 2], "incarnation 1 re-dispatched");
    for (incarnation, inputs) in seen.iter() {
        let data: Vec<(&str, &str)> = inputs
            .iter()
            .map(|(slot, value)| (slot.as_str(), std::str::from_utf8(&value.data).unwrap()))
            .collect();
        assert_eq!(
            data,
            [("extra", "n"), ("in", "s")],
            "incarnation {incarnation}"
        );
    }
}
