//! Dynamic reconfiguration of running instances (paper §2/§3): add or
//! remove tasks and dependencies atomically, rebind implementations
//! (online upgrade), and rescue stuck instances. A reconfiguration is a
//! new version of the instance's script, checked by the front end and
//! committed as one step.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::{add_t5, frame_writes, last_write, log_frames, text};
use flowscript_codec::ByteReader;
use flowscript_core::samples;
use flowscript_engine::{
    CbState, EngineError, InstanceStatus, ObjectVal, Reconfig, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};

fn diamond_system(seed: u64) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder().executors(2).seed(seed).build();
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    sys.bind_fn("refT1", |ctx| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(10))
            .with_object(
                "out",
                ObjectVal::text("Data", format!("{}1", ctx.input_text("seed"))),
            )
    });
    sys.bind_fn("refT2", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(10))
            .with_object("out", text("Data", "two"))
    });
    sys.bind_fn("refT3", |ctx| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(10))
            .with_object(
                "out",
                ObjectVal::text("Data", format!("{}3", ctx.input_text("in"))),
            )
    });
    sys.bind_fn("refT4", |ctx| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(10))
            .with_object(
                "out",
                ObjectVal::text(
                    "Data",
                    format!("{}|{}", ctx.input_text("left"), ctx.input_text("right")),
                ),
            )
    });
    sys
}

#[test]
fn paper_section2_add_t5_to_running_instance() {
    // The paper's §2 scenario: while Fig. 1's diamond runs, add a task t5
    // with dependencies from t2 and t4.
    let mut sys = diamond_system(61);
    sys.bind_fn("refT5", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text(
                "Data",
                format!("t5({},{})", ctx.input_text("left"), ctx.input_text("right")),
            ),
        )
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Let t1 (and possibly t2/t3) finish, then reconfigure mid-flight.
    sys.run_for(SimDuration::from_millis(15));
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    // The instance still completes (t5 feeds nothing, it just runs).
    assert!(sys.outcome("d1").is_some());
    let states = sys.task_states("d1");
    assert!(
        matches!(
            states.get("diamond/t5"),
            Some(CbState::Done { .. }) | Some(CbState::Cancelled)
        ),
        "t5 state: {:?}",
        states.get("diamond/t5")
    );
    assert_eq!(sys.stats().reconfigs, 1);
}

#[test]
fn added_task_sees_already_produced_outputs() {
    // Watcher replay: t5 is added *after* t2 and t4 have completed; its
    // dependencies must be satisfied from recorded facts, not just new
    // events.
    let mut sys = diamond_system(62);
    sys.bind_fn("refT5", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "late-joiner"))
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run(); // the whole diamond completes
    assert!(sys.outcome("d1").is_some());
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    // Root already terminated, so evaluation of t5 depends on the scope
    // being Done — it stays Waiting/Cancelled. Assert it did not corrupt
    // the completed instance.
    assert!(sys.outcome("d1").is_some());
}

#[test]
fn rebind_performs_online_upgrade() {
    let mut sys = diamond_system(63);
    // v2 of t3's implementation marks its output differently.
    sys.bind_fn("refT3v2", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text("Data", format!("v2<{}>", ctx.input_text("in"))),
        )
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Rebind before t3 runs (t1 takes 10ms; do it immediately).
    sys.reconfigure(
        "d1",
        Reconfig::Rebind {
            code: "refT3".into(),
            to: "refT3v2".into(),
        },
    )
    .unwrap();
    sys.run();
    let outcome = sys.outcome("d1").unwrap();
    assert_eq!(outcome.objects["out"].as_text(), "two|v2<s1>");
}

#[test]
fn reconfiguration_rescues_stuck_instance() {
    // A consumer whose sole producer has no implementation gets stuck;
    // adding an alternative source rescues it.
    const SCRIPT: &str = r#"
        class Data;
        taskclass Stage {
            inputs { input main { in of class Data } };
            outputs { outcome done { out of class Data } }
        }
        taskclass Root {
            inputs { input main { seed of class Data } };
            outputs { outcome done { out of class Data } }
        }
        compoundtask root of taskclass Root {
            task broken of taskclass Stage {
                implementation { "code" is "refBroken" };
                inputs { input main { inputobject in from { seed of task root if input main } } }
            };
            task healthy of taskclass Stage {
                implementation { "code" is "refHealthy" };
                inputs { input main { inputobject in from { seed of task root if input main } } }
            };
            task consumer of taskclass Stage {
                implementation { "code" is "refConsumer" };
                inputs { input main { inputobject in from { out of task broken if output done } } }
            };
            outputs {
                outcome done { outputobject out from { out of task consumer if output done } }
            }
        }
    "#;
    let config = flowscript_engine::EngineConfig {
        dispatch_timeout: SimDuration::from_millis(200),
        retry_backoff: SimDuration::from_millis(10),
        ..Default::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(64)
        .config(config)
        .build();
    sys.register_script("s", SCRIPT, "root").unwrap();
    // refBroken is deliberately unbound.
    sys.bind_fn("refHealthy", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text("Data", format!("healthy({})", ctx.input_text("in"))),
        )
    });
    sys.bind_fn("refConsumer", |ctx| {
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    sys.start("r1", "s", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(matches!(
        sys.status("r1").unwrap(),
        InstanceStatus::Stuck { .. }
    ));
    // Rescue: give the consumer an alternative source from `healthy`.
    sys.reconfigure(
        "r1",
        Reconfig::AddObjectSource {
            task_path: "root/consumer".into(),
            set: "main".into(),
            object: "in".into(),
            producer: "healthy".into(),
            producer_object: "out".into(),
            outcome: "done".into(),
        },
    )
    .unwrap();
    sys.run();
    let outcome = sys.outcome("r1").expect("rescued instance completes");
    assert_eq!(outcome.objects["out"].as_text(), "healthy(s)");
}

#[test]
fn invalid_reconfigurations_rejected_without_damage() {
    let mut sys = diamond_system(65);
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Unknown scope.
    assert!(sys
        .reconfigure(
            "d1",
            Reconfig::AddTask {
                scope_path: "diamond/ghost".into(),
                task_source: "task x of taskclass Stage { }".into(),
            },
        )
        .is_err());
    // Removing t3 orphans t4's `right` slot.
    assert!(sys
        .reconfigure(
            "d1",
            Reconfig::RemoveTask {
                task_path: "diamond/t3".into(),
            },
        )
        .is_err());
    // Unknown instance.
    assert!(sys
        .reconfigure(
            "ghost",
            Reconfig::Rebind {
                code: "a".into(),
                to: "b".into(),
            },
        )
        .is_err());
    // The instance is unharmed and completes.
    sys.run();
    assert!(sys.outcome("d1").is_some());
    assert_eq!(sys.stats().reconfigs, 0);
}

#[test]
fn reconfiguration_survives_coordinator_crash() {
    // The new version of the script is committed before `reconfigure`
    // returns: recovery runs it.
    let mut sys = diamond_system(66);
    sys.bind_fn("refT5", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "t5"))
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.reconfigure(
        "d1",
        Reconfig::AddTask {
            scope_path: "diamond".into(),
            task_source: r#"
                task t5 of taskclass NotifiedStage {
                    implementation { "code" is "refT5" };
                    inputs { input main { notification from { task t1 if output done } } }
                }
            "#
            .into(),
        },
    )
    .unwrap();
    // Crash + restart the coordinator immediately; on recovery the
    // reconfigured plan (with t5) must come back from the log.
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run();
    assert!(sys.outcome("d1").is_some(), "{:?}", sys.status("d1"));
    let states = sys.task_states("d1");
    assert!(
        matches!(
            states.get("diamond/t5"),
            Some(CbState::Done { .. }) | Some(CbState::Cancelled)
        ),
        "t5: {:?}",
        states.get("diamond/t5")
    );
}

/// The diamond `d1` with the paper's `t5` added 15 ms in, beside a
/// plain diamond `d2`; at 25 ms the coordinator crashes and restarts,
/// with `d1`'s pinned source overwritten while it is down when
/// `poison_source`.
fn reconfigured_then_crashed(poison_source: bool) -> WorkflowSystem {
    let mut sys = diamond_system(67);
    sys.bind_fn("refT5", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "t5"))
    });
    for name in ["d1", "d2"] {
        sys.start(name, "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run_for(SimDuration::from_millis(15));
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run_for(SimDuration::from_millis(10));
    assert_eq!(sys.status("d1"), Ok(InstanceStatus::Running));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    if poison_source {
        assert!(sys
            .coord_handle_mut(0)
            .get_mut()
            .poison_record("d1", "source"));
    }
    sys.restart_now(coordinator);
    sys
}

#[test]
fn recovery_compiles_the_current_version_from_its_pinned_source() {
    // The plan a restart runs `d1` off is the source its header pins
    // compiled — the script's current version, which declares `t5`
    // itself: no op is replayed, none is stored.
    let mut sys = reconfigured_then_crashed(false);
    sys.run();
    assert_eq!(sys.stats().recovered_instances, 2);
    assert!(
        sys.task_states("d1").contains_key("diamond/t5"),
        "the current source declares `t5`"
    );
    for name in ["d1", "d2"] {
        assert!(
            sys.outcome(name).is_some(),
            "{name}: {:?}",
            sys.status(name)
        );
    }
}

#[test]
fn a_poisoned_source_stops_its_instance_at_the_next_load() {
    // An instance runs off its pinned source compiled, so garbage under
    // the header's hash stops it at its next load, saying where — as
    // every other corrupt record of an instance does — and nothing else
    // on the shard.
    let mut sys = reconfigured_then_crashed(true);
    sys.run();
    match sys.status("d1") {
        Ok(InstanceStatus::Stuck { reason }) => {
            assert!(reason.contains("storage fault"), "{reason}");
            assert!(reason.contains("`sys/src/"), "{reason}");
        }
        other => panic!("a poisoned source loaded as {other:?}"),
    }
    assert_eq!(sys.stats().recovered_instances, 1, "`d2` alone");
    assert!(sys.outcome("d2").is_some(), "{:?}", sys.status("d2"));
    // Nor does a new instance of the edited script — the version `d1`
    // runs — share what sits under its hash: the text there is not its
    // text.
    sys.register_script("diamond5", &diamond_with_t5(), "diamond")
        .unwrap();
    let refused = sys
        .start("d3", "diamond5", "main", [("seed", text("Data", "s"))])
        .expect_err("started off a poisoned source");
    assert!(
        refused.to_string().contains("holds a different source"),
        "{refused}"
    );
    assert!(sys.status("d3").is_err());
}

/// Three leaves under a root that is `done` on `c`; `c` draws on the
/// root's seed, or on `b`'s output when `c_from_b`. Leaf `x` runs code
/// `refX`.
fn three_leaves(c_from_b: bool) -> String {
    let leaf = |name: &str, from: &str| {
        format!(
            r#"    task {name} of taskclass Work {{
        implementation {{ "code" is "ref{}" }};
        inputs {{ input main {{ inputobject in from {{ {from} }} }} }}
    }};
"#,
            name.to_uppercase()
        )
    };
    let seed = "seed of task root if input main";
    let c_source = if c_from_b {
        "out of task b if output done"
    } else {
        seed
    };
    format!(
        r#"
class Data;
taskclass Work {{
    inputs {{ input main {{ in of class Data }} }};
    outputs {{ outcome done {{ out of class Data }} }}
}}
taskclass Root {{
    inputs {{ input main {{ seed of class Data }} }};
    outputs {{ outcome done {{ }} }}
}}
compoundtask root of taskclass Root {{
{}{}{}    outputs {{ outcome done {{ notification from {{ task c if output done }} }} }}
}}
"#,
        leaf("a", seed),
        leaf("b", seed),
        leaf("c", c_source),
    )
}

/// Two executors, `three_leaves(c_from_b)` registered, each leaf bound
/// to `work_ms` of work.
fn three_leaves_system(c_from_b: bool, work_ms: [u64; 3]) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder().executors(2).seed(67).build();
    sys.register_script("three", &three_leaves(c_from_b), "root")
        .unwrap();
    for (code, ms) in ["refA", "refB", "refC"].into_iter().zip(work_ms) {
        sys.bind_fn(code, move |_| {
            TaskBehavior::outcome("done")
                .with_work(SimDuration::from_millis(ms))
                .with_object("out", text("Data", "d"))
        });
    }
    sys.start("i1", "three", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys
}

fn remove_a() -> Reconfig {
    Reconfig::RemoveTask {
        task_path: "root/a".into(),
    }
}

#[test]
fn removing_a_task_under_in_flight_siblings_keeps_the_books() {
    // `a`, `b` and `c` are all executing when `a` is removed: every
    // later dense task id shifts down by one under the dispatch books.
    let mut sys = three_leaves_system(false, [50, 50, 50]);
    sys.run_for(SimDuration::from_millis(10));
    sys.reconfigure("i1", remove_a()).unwrap();
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    assert!(
        sys.executor_loads(0)
            .iter()
            .all(|slot| slot.in_flight == 0 && slot.remaining == 0),
        "every charge must be released exactly once: {:?}",
        sys.executor_loads(0)
    );
    // The removed task's watchdog was cancelled with it: had it been
    // left armed, the run would have idled until it fired (30 s) into
    // a deleted control block.
    assert!(
        sys.now() < SimTime::from_nanos(1_000_000_000),
        "a watchdog outlived its task: the run ended at {}",
        sys.now()
    );
    assert_eq!(sys.stats().retries, 0);
    // And `a`'s attempt was cancelled where it ran.
    assert_eq!(sys.stats().cancels, 1);
}

#[test]
fn cost_samples_follow_the_task_across_an_id_shift() {
    // `a` and `b` execute, `c` waits on `b`; removing `a` shifts `b`
    // and `c` down but leaves every stale id in range — nothing panics,
    // the books just describe the wrong tasks unless they are re-keyed.
    let mut sys = three_leaves_system(true, [500, 50, 20]);
    sys.run_for(SimDuration::from_millis(10));
    sys.reconfigure("i1", remove_a()).unwrap();
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    let coord = sys.coord_handle(0);
    assert_eq!(
        coord.get().cost_estimate_ms("refA"),
        None,
        "`a` never reported: nothing ran under its code"
    );
    let b = coord.get().cost_estimate_ms("refB").expect("`b` completed");
    let c = coord.get().cost_estimate_ms("refC").expect("`c` completed");
    assert!((50..60).contains(&b), "refB sampled at {b} ms");
    assert!((20..30).contains(&c), "refC sampled at {c} ms");
    assert!(sys
        .executor_loads(0)
        .iter()
        .all(|slot| slot.in_flight == 0 && slot.remaining == 0));
}

/// Two compounds and a leaf under the root: `g` (one slow leaf `a`),
/// then `k`, whose leaf `x` drives every counter a control block has —
/// `k` repeats once on `x`'s `retry`, and in the second incarnation `x`
/// takes a leaf repeat, then emits its mark and keeps executing — then
/// `c`, waiting on `k`. Nothing draws on `g`, so it can go.
const COUNTERS: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs {
        outcome done { };
        outcome retry { };
        repeat outcome redo { };
        mark half { }
    }
}
taskclass Loop {
    inputs { input main { seed of class Data } };
    outputs { outcome done { }; repeat outcome again { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    compoundtask g of taskclass Loop {
        inputs { input main { inputobject seed from { seed of task root if input main } } };
        task a of taskclass Work {
            implementation { "code" is "refSlow" };
            inputs { input main { inputobject in from { seed of task g if input main } } }
        };
        outputs { outcome done { notification from { task a if output done } } }
    };
    compoundtask k of taskclass Loop {
        inputs { input main { inputobject seed from { seed of task root if input main } } };
        task x of taskclass Work {
            implementation { "code" is "refX" };
            inputs { input main { inputobject in from { seed of task k if input main } } }
        };
        outputs {
            outcome done { notification from { task x if output done } };
            repeat outcome again { notification from { task x if output retry } }
        }
    };
    task c of taskclass Work {
        implementation { "code" is "refQuick" };
        inputs { input main {
            inputobject in from { seed of task root if input main };
            notification from { task k if output done }
        } }
    };
    outputs { outcome done { notification from { task c if output done } } }
}
"#;

#[test]
fn control_blocks_follow_their_tasks_across_id_shifts_and_a_crash() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(68).build();
    sys.register_script("counters", COUNTERS, "root").unwrap();
    let slow = SimDuration::from_millis(500);
    sys.bind_fn("refSlow", move |_| {
        TaskBehavior::outcome("done").with_work(slow)
    });
    sys.bind_fn("refQuick", |_| TaskBehavior::outcome("done"));
    sys.bind_fn("refX", move |ctx| match (ctx.incarnation, ctx.attempt) {
        (0, _) => TaskBehavior::outcome("retry"),
        (_, 0) => TaskBehavior::outcome("redo").with_redo_after(SimDuration::from_millis(1)),
        _ => TaskBehavior::outcome("done").with_work(slow).with_mark(
            SimDuration::from_millis(5),
            "half",
            [],
        ),
    });
    sys.start("i1", "counters", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(30));

    let blocks = |sys: &WorkflowSystem| sys.coord_handle(0).get().task_blocks("i1");
    let before = blocks(&sys);
    let x = &before["root/k/x"];
    assert!(matches!(x.state, CbState::Executing { .. }), "{x:?}");
    assert_eq!(
        (x.incarnation, x.attempt, &x.marks_emitted[..], x.repeats),
        (1, 1, &["half".to_string()][..], 1)
    );
    let k = &before["root/k"];
    assert_eq!((k.scope_inc, k.repeats), (1, 1));
    assert!(matches!(
        before["root/g/a"].state,
        CbState::Executing { .. }
    ));
    assert_eq!(before["root/c"].state, CbState::Waiting);

    // A task added to `g` takes the id after `a`: `k`, `x` and `c` shift
    // up by one, each with its block.
    let add = Reconfig::AddTask {
        scope_path: "root/g".into(),
        task_source: r#"
            task a2 of taskclass Work {
                implementation { "code" is "refQuick" };
                inputs { input main { inputobject in from { seed of task g if input main } } }
            }"#
        .into(),
    };
    let commits = |sys: &WorkflowSystem| sys.metrics_snapshot().counter("tx.commits");
    let in_flight = |sys: &WorkflowSystem| -> u32 {
        sys.executor_loads(0)
            .iter()
            .map(|slot| slot.in_flight)
            .sum()
    };
    let (committed, flying) = (commits(&sys), in_flight(&sys));
    sys.reconfigure("i1", add).unwrap();
    let mut grown = blocks(&sys);
    let added = grown.remove("root/g/a2").expect("the new task has a block");
    // Straight after `reconfigure` returns, `a2` is executing: the step
    // that added it re-evaluated the instance and dispatched it, in the
    // one commit.
    assert!(
        matches!(added.state, CbState::Executing { .. }),
        "{added:?}"
    );
    assert_eq!(commits(&sys) - committed, 1);
    assert_eq!(in_flight(&sys), flying + 1, "`a2` is on the wire");
    assert_eq!(grown, before);

    // `g` goes, with `a` mid-execution: three ids vanish ahead of `k`.
    let remove = Reconfig::RemoveTask {
        task_path: "root/g".into(),
    };
    sys.reconfigure("i1", remove).unwrap();
    let mut survivors = before;
    survivors.retain(|path, _| !path.starts_with("root/g"));
    assert_eq!(survivors.len(), 4);
    assert_eq!(blocks(&sys), survivors);

    // The log replays to the same blocks, and recovery leaves them so:
    // the executing leaf is re-sent under the attempt it has, and
    // whichever of its reports lands first is applied.
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    assert_eq!(blocks(&sys), survivors);
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    assert_eq!(sys.stats().marks, 1, "the mark fired once");
}

/// `consumer` binds the object `producer`, declared after it, made; the
/// compound `inner` between them maps the object of its constituent
/// `made` into its outcome. Removing `inner`'s `middle` keeps the keys
/// of `consumer`'s binding and of `inner`'s outcome, and shifts the ids
/// of both producers the objects stored there name.
const SHIFTED_PRODUCERS: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Inner {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data; made of class Data } }
}
compoundtask root of taskclass Root {
    task consumer of taskclass Work {
        implementation { "code" is "refConsumer" };
        inputs { input main { inputobject in from { out of task producer if output done } } }
    };
    compoundtask inner of taskclass Inner {
        inputs { input main { inputobject seed from { seed of task root if input main } } };
        task middle of taskclass Work {
            implementation { "code" is "refQuick" };
            inputs { input main { inputobject in from { seed of task inner if input main } } }
        };
        task made of taskclass Work {
            implementation { "code" is "refMade" };
            inputs { input main { inputobject in from { seed of task inner if input main } } }
        };
        outputs { outcome done { outputobject out from { out of task made if output done } } }
    };
    task producer of taskclass Work {
        implementation { "code" is "refQuick" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs {
        outcome done {
            outputobject out from { out of task consumer if output done };
            outputobject made from { out of task inner if output done }
        }
    }
}
"#;

/// Runs [`SHIFTED_PRODUCERS`] to its end — with `middle` removed while
/// `consumer` executes, then a crash and a restart of the coordinator
/// and the executors, when `shifted`, so that the restart re-sends
/// `consumer` — and returns the final status and every input `consumer`
/// was handed.
fn run_shifted_producers(shifted: bool) -> (InstanceStatus, Vec<ObjectVal>) {
    let mut sys = WorkflowSystem::builder().executors(2).seed(70).build();
    sys.register_script("shift", SHIFTED_PRODUCERS, "root")
        .unwrap();
    sys.bind_fn("refQuick", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(5))
            .with_object("out", text("Data", "q"))
    });
    // An object of a class its declaration does not name.
    sys.bind_fn("refMade", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(5))
            .with_object("out", text("Blob", "m"))
    });
    let handed = Arc::new(Mutex::new(Vec::new()));
    let saw = handed.clone();
    sys.bind_fn("refConsumer", move |ctx| {
        saw.lock().unwrap().push(ctx.input("in").unwrap().to_val());
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(200))
            .with_object("out", text("Data", "c"))
    });
    sys.start("s1", "shift", "main", [("seed", text("Data", "s"))])
        .unwrap();
    if shifted {
        sys.run_for(SimDuration::from_millis(50));
        let states = sys.task_states("s1");
        assert!(matches!(states["root/consumer"], CbState::Executing { .. }));
        assert!(matches!(states["root/inner"], CbState::Done { .. }));
        let remove = Reconfig::RemoveTask {
            task_path: "root/inner/middle".into(),
        };
        sys.reconfigure("s1", remove).unwrap();
        common::restart_with_executors(&mut sys);
    }
    sys.run();
    let handed = handed.lock().unwrap().clone();
    (sys.status("s1").unwrap(), handed)
}

#[test]
fn a_remap_that_shifts_task_ids_re_encodes_the_producers_inside_values() {
    let (undisturbed, handed) = run_shifted_producers(false);
    let InstanceStatus::Completed(outcome) = &undisturbed else {
        panic!("{undisturbed:?}")
    };
    let made = &outcome.objects["made"];
    assert_eq!(
        (made.class.as_str(), made.produced_by.as_str()),
        ("Blob", "root/inner/made")
    );
    let expected = text("Data", "q").produced_by("root/producer");
    assert_eq!(handed, std::slice::from_ref(&expected));
    // The recovered re-dispatch reads the remapped binding back, and
    // the root maps the remapped outcome of `inner`: both as in the
    // undisturbed run.
    let (status, handed) = run_shifted_producers(true);
    assert_eq!(status, undisturbed);
    assert!(handed.len() >= 2, "{handed:?}: no re-dispatch");
    assert!(handed.iter().all(|input| *input == expected), "{handed:?}");
}

/// Fig. 1's diamond with the paper's `t5` declared in the script, last
/// among the root's constituents: the version `add_t5` makes of it.
fn diamond_with_t5() -> String {
    let Reconfig::AddTask { task_source, .. } = add_t5() else {
        unreachable!("add_t5 adds a task")
    };
    let diamond = samples::FIG1_DIAMOND;
    let outputs = diamond
        .rfind("    outputs {")
        .expect("the root maps outputs");
    format!(
        "{}{task_source};\n{}",
        &diamond[..outputs],
        &diamond[outputs..]
    )
}

/// The source `instance`'s header pins, as the shard's log last
/// committed them: the header opens with its layout tag, then the
/// source's hash, which names the blob.
fn pinned_source(sys: &WorkflowSystem, instance: &str) -> Vec<u8> {
    let storage = sys.storage();
    let header = last_write(&storage, &format!("inst/{instance}/meta")).expect("a header");
    let hash = ByteReader::new(&header[1..])
        .get_u64()
        .expect("a source hash");
    last_write(&storage, &format!("sys/src/{hash:016x}")).expect("a pinned source")
}

#[test]
fn malformed_edits_are_refused_by_the_front_end() {
    // Six edits the front end refuses, each with what it says — the one
    // validator a reconfiguration has, as a start has.
    let join_left_only = r#"
        task t5 of taskclass Join {
            implementation { "code" is "refT5" };
            inputs { input main { inputobject left from { out of task t2 if output done } } }
        }"#;
    let fed_by_ghost = r#"
        task t5 of taskclass Stage {
            implementation { "code" is "refT5" };
            inputs { input main { inputobject in from { out of task t2 if output ghost } } }
        }"#;
    let named_like_its_scope = r#"
        task diamond of taskclass Stage {
            implementation { "code" is "refT3" };
            inputs { input main { inputobject in from { out of task t1 if output done } } }
        }"#;
    let add = |task_source: &str| Reconfig::AddTask {
        scope_path: "diamond".into(),
        task_source: task_source.into(),
    };
    let left_from_t3 = |producer_object: &str, outcome: &str| Reconfig::AddObjectSource {
        task_path: "diamond/t4".into(),
        set: "main".into(),
        object: "left".into(),
        producer: "t3".into(),
        producer_object: producer_object.into(),
        outcome: outcome.into(),
    };
    let cases = [
        (
            Reconfig::AddNotification {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                producer: "t2".into(),
                outcome: "ghost".into(),
            },
            "taskclass `NotifiedStage` has no output `ghost`",
        ),
        (
            left_from_t3("out", "ghost"),
            "taskclass `Stage` has no output `ghost`",
        ),
        (
            left_from_t3("ghost", "done"),
            "output `done` of `Stage` has no object `ghost`",
        ),
        (
            add(named_like_its_scope),
            "constituent `diamond` shadows its enclosing compound task",
        ),
        (
            add(join_left_only),
            "input set `main` never binds object `right`",
        ),
        (
            add(fed_by_ghost),
            "taskclass `NotifiedStage` has no output `ghost`",
        ),
    ];
    let undisturbed = {
        let mut sys = diamond_system(61);
        sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run();
        (sys.status("d1").unwrap(), sys.task_states("d1"))
    };
    assert!(matches!(undisturbed.0, InstanceStatus::Completed(_)));
    for (op, said) in cases {
        let mut sys = diamond_system(61);
        sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run_for(SimDuration::from_millis(5));
        let sources = |sys: &WorkflowSystem| sys.coord_handle(0).get().persisted_source_hashes();
        let pinned = sources(&sys);
        match sys.reconfigure("d1", op.clone()) {
            Err(EngineError::ReconfigRejected(why)) => {
                assert!(why.contains(said), "{op:?}: {why}")
            }
            other => panic!("{op:?} was not refused: {other:?}"),
        }
        assert_eq!(sys.stats().reconfigs, 0, "{op:?}");
        assert_eq!(sources(&sys), pinned, "{op:?}");
        sys.run();
        let run = (sys.status("d1").unwrap(), sys.task_states("d1"));
        assert_eq!(run, undisturbed, "{op:?}");
    }
}

#[test]
fn a_reconfigured_instance_is_one_started_on_the_edited_script() {
    let mut sys = diamond_system(69);
    sys.bind_fn("refT5", |ctx| {
        let joined = format!("t5({},{})", ctx.input_text("left"), ctx.input_text("right"));
        TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", joined))
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(15));
    sys.reconfigure("d1", add_t5()).unwrap();
    // The same script, written with `t5` in it and started afresh.
    sys.register_script("diamond5", &diamond_with_t5(), "diamond")
        .unwrap();
    sys.start("d2", "diamond5", "main", [("seed", text("Data", "s"))])
        .unwrap();
    let pinned = pinned_source(&sys, "d1");
    assert_eq!(pinned, pinned_source(&sys, "d2"), "one pinned source");
    let served = sys
        .repository()
        .get("diamond5", None)
        .unwrap()
        .source
        .clone();
    assert_eq!(
        pinned,
        served.into_bytes(),
        "the text the repository serves"
    );

    sys.run_for(SimDuration::from_millis(10));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run();
    // Nothing was replayed: no op was ever logged, and what `d1` keeps
    // under its name is its header, as `d2` does — neither got stuck.
    for frame in log_frames(&sys.storage()) {
        for (key, _) in frame_writes(&frame) {
            let uid = key.to_string();
            assert!(!uid.starts_with("inst/d1/reconfig/"), "`{uid}`");
            if let Some(record) = uid.strip_prefix("inst/d1/") {
                assert_eq!(record, "meta", "`{uid}`");
            }
        }
    }
    // `t4` completes the root while `t5` still waits on it, so the
    // root's outcome cancels `t5` — in both instances.
    let InstanceStatus::Completed(outcome) = sys.status("d1").unwrap() else {
        panic!("{:?}", sys.status("d1"))
    };
    assert_eq!(
        (
            outcome.name.as_str(),
            outcome.objects["out"].as_text().as_str()
        ),
        ("done", "two|s13")
    );
    assert_eq!(outcome.objects["out"].produced_by, "diamond/t4");
    let done = || CbState::Done {
        outcome: "done".into(),
    };
    let mut states: BTreeMap<String, CbState> = ["", "/t1", "/t2", "/t3", "/t4"]
        .map(|task| (format!("diamond{task}"), done()))
        .into();
    states.insert("diamond/t5".into(), CbState::Cancelled);
    assert_eq!(sys.task_states("d1"), states);
    assert_eq!(sys.status("d2"), sys.status("d1"));
    assert_eq!(sys.task_states("d2"), states);
}

#[test]
fn a_reconfiguration_is_one_commit() {
    // Before `t1` reports, between its report and `t4`'s, and after the
    // root completed: the edit, the remap, the new block and the
    // re-evaluation over the new plan are one step, whatever it finds.
    for ms in [0, 15, 25] {
        let mut sys = diamond_system(61);
        sys.bind_fn("refT5", |_| {
            TaskBehavior::outcome("done").with_object("out", text("Data", "t5"))
        });
        sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run_for(SimDuration::from_millis(ms));
        let commits = |sys: &WorkflowSystem| sys.metrics_snapshot().counter("tx.commits");
        let before = commits(&sys);
        sys.reconfigure("d1", add_t5()).unwrap();
        assert_eq!(commits(&sys) - before, 1, "at {ms} ms");
        sys.run();
        assert!(sys.outcome("d1").is_some(), "at {ms} ms");
        assert_eq!(sys.stats().reconfigs, 1);
    }
}
