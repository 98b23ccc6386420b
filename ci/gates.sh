#!/usr/bin/env bash
# Every grep, count and dependency gate CI runs, one line each: the
# command, then `fail` with the rule it keeps. Run from anywhere:
#
#     bash ci/gates.sh
#
# Each line runs whatever the others do, and the script exits non-zero
# naming every gate that failed and how many did. It does not use
# `bash -e`: there a failing `! cmd` does not stop a script, so a
# broken rule would pass unseen.
set -u
cd "$(dirname "$0")/.." || exit 2
failed=0
fail() {
    echo "gate failed: $1" >&2
    failed=$((failed + 1))
}

! cargo tree -p flowscript-plan -e dev --offline | grep -q flowscript-engine || fail 'No dev-dependency cycle (the plan crate'\''s reference interpreter lives in its own tests)'
! grep -rnE 'std::time::(Instant|SystemTime)' crates/{codec,core,engine,obs,plan,sim,tx}/src || fail 'One clock (the engine and everything under it read virtual time only)'
! grep -rn 'KillPoint\|arm_chaos_kill' crates src tests examples || fail 'One fault injector (faults come from sim::FaultPlan, not from hooks in a driver)'
! grep -rnE 'PathHash|InFlightCount|min_window' crates src tests examples README.md || fail 'One scheduling policy, one commit window (the retired baselines stay retired, and so does the arrival-rate window, `min_window`; a window closes on what its shard awaits, not on a guess)'
! grep -rn 'InstanceMeta' crates src tests examples README.md || fail 'One instance record layout (the header/status split replaced the welded record, it does not sit beside it)'
! grep -rn 'instance_seq' crates src tests examples README.md || fail 'Instance ids come from the log (no stored id sequence)'
! grep -rnE 'count_nonterminal|note_terminals|Effect::(Terminals|Revived)|\.nonterminal\b' crates/engine/src && ! grep -nE 'pub (epoch|code):' crates/engine/src/msg.rs && ! grep -n 'epoch' crates/engine/src/executor.rs && ! grep -n 'script: String' crates/engine/src/coordinator/meta.rs || fail 'Keep only what something reads (no shadow non-terminal count; no epoch a receiver ignores, no second copy of a dispatch'\''s code; no script name in the header)'
! grep -rn 'format!("inst/' crates/engine/src --include='*.rs' | grep -v 'src/keys.rs' || fail 'One uid layout, one module (only keys.rs spells an instance uid)'
! grep -niE 'hand-?off' crates/tx/src/manager.rs crates/tx/src/log.rs || fail 'The transaction substrate names no engine protocol (the manager and the log format speak transactions only)'
! grep -rnE 'HandOffBegin|HandOffEnd|handoff_begin|handoff_end|open_handoffs|replayed_handoff_ends|begin_batch' crates src tests examples README.md || fail 'One move record (a round'\''s bookkeeping is the `sys/move/<id>` store object, its outbox; the old hand-off frames, their tables and the caller-less batch entry stay deleted)'
! grep -rn 'flowscript-benc[h]\|criterio[n]' Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml README.md .github/workflows/ci.yml || fail 'One performance instrument (the ledger; the retired micro-benches and their harness shim stay deleted — the bracket keeps this line from matching itself)'
! grep -rnE 'cb_uid|cb_prefix|"cb/"' crates src tests examples || fail 'One control-block key (dense, by task id; the string uid table and its prefix scan stay deleted)'
! grep -rn 'InstanceKeys' crates src tests examples README.md || fail 'An instance is its id (probes resolve through the plan; the per-instance key table stays deleted)'
! grep -rnE 'begin_nested|ParentTerminated|StableStore::(Mem|File)' crates src tests examples README.md || fail 'One door into the store (flat actions, one stable-storage handle; nesting and the closed storage enum stay deleted)'
! grep -rnE 'on_task_done|leaf_repeat|Staging::Slow|commit_cb\(|evaluate_from' crates src tests examples README.md && ! grep -nE 'atomically\(|commit_object\(' crates/engine/src/coordinator/evaluate.rs || fail 'Every event is one step (no report waits for its window to commit and then commits alone; no block commits in an action of its own; the cascade runs no action of its own)'
! grep -rnE 'begin_group|end_group|in_group|RecordBuffer|append_buffered|log_coordinator_decision|group_commit_count|wal_frames_appended' crates src tests examples README.md || fail 'No WAL group (every atomic action is one frame holding one commit record; the buffered groups and their caller-less getters stay deleted)'
! grep -rnE 'DistMsg|QueryOutcome|prepare_remote|resolve_remote|in_doubt|stage_decision|coordinator_decision|mint_dist_tx|Timer::Round|LogRecord::(Prepare|Resolve)' crates/engine/src crates/tx/src/manager.rs crates/tx/src/log.rs src tests examples || fail 'One way to move an instance (a live move is a claim sent from the source'\''s move record; the hand-off 2PC, its in-doubt stage and its log records stay out of the engine and the transaction manager)'
! grep -rn '\.begin()' crates/engine/src/coordinator --include='*.rs' | grep -vE 'coordinator/(step|lifecycle)\.rs' || fail 'One place an action begins (where the step opens its own; `gc_plans`, beside lifecycle'\''s tests, is the exception)'
! grep -rnE 'LockManager|lock_block|read_key(_raw)?\b|TxError::Lock|lock_waits' crates/tx/src/manager.rs crates/tx/src/error.rs crates/tx/tests crates/engine/src src tests examples || fail 'One open action per shard (a shard'\''s steps are the serial order; the manager takes no lock, the window no lock pass, and no engine read goes around read_through)'
! grep -rnE 'rebuild_schema|reconfig_uid|reconfig_prefix|reconfig_count|ReconfigEffects|compile_task_fragment|bind_uid|bind_prefix' crates src tests examples README.md || fail 'A reconfiguration is a new script version (no op log replayed at load, no rebinding table, no second validator beside the front end)'
! grep -rnw 'Schema' crates/engine/src/coordinator || fail 'One IR at run time (the coordinator runs off the plan; the schema is the front end'\''s output to Plan::lower)'
! grep -nE 'read::<ObjectVal>|write_key\(action, &(sub|StoreKey::Fact\(base\.object\()' crates/engine/src/facts.rs || fail 'A fact object is stored relative to its plan (no declared sub-key goes through the wire codec of ObjectVal)'
! grep -rnE 'impl (Encode|Decode) for TaskCb|read_key::<TaskCb>|read_committed_key::<TaskCb>' crates/engine/src || fail 'A control block is stored relative to its plan (facts.rs'\''s block codec is the one reader and writer of block keys; TaskCb has no wire codec)'
! grep -rnE 'lang::builder|flowscript_core::builder|ScriptBuilder' crates src tests examples README.md || fail 'Scripts are text (the front end has one way in; chain and fan are generated as text in samples.rs)'
! grep -nE '^pub mod' crates/engine/src/lib.rs || fail 'The engine'\''s public API is its crate root (every module is private; the pub use lines are the API)'
! for f in crates/engine/src/coordinator/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -nE 'RefCell|borrow\(\)|borrow_mut\(\)|World|schedule_node_after|rpc_call' && ! grep -rn 'TicketRef' crates src tests examples || fail 'A shard is a value (below its test modules the coordinator names no cell, no borrow, no world, no timer or call closure; no shared cell stands between the façade and what a node answers)'
! grep -nE 'fn call\b' crates/engine/src/driver.rs && ! grep -rnwE 'Ticket|give_up|set_shard_map_relay|record_system_event' crates/engine/src src tests examples README.md || fail 'One door into a node (an operator'\''s request is an input and its answer an output filed by the driver; no call closure beside the door, no ticket, no façade edit of a node'\''s state)'
! grep -nE '(writes|states)\.encode\(w\)|(writes|states): Vec::decode' crates/tx/src/log.rs || fail 'The log'\''s after-image lists have one encoding (each key written relative to the one before it; no list goes through the generic Vec codec)'
! grep -rnE 'FRAME_MAGIC|FRAME_VERSION|4 \+ 2 \+ 4 \+ 4' crates/codec/src || fail 'A log states its format once (magic and version live in the log header in crates/tx/src/log.rs; a frame is a varint length, a CRC and its record, and the per-frame magic, version and 14 B header stay gone)'
! grep -rnE 'set_handler|set_restart_hook|rpc_call|rpc_reply|schedule_node_after|RepoHandle' crates/engine/src | grep -v '^crates/engine/src/driver.rs:' || fail 'The engine meets the world in one place (only driver.rs installs handlers, makes calls, answers requests or arms timers)'
! grep -nE 'Rc<RefCell' crates/engine/src/{executor,repository,api}.rs || fail 'Every node is a value (no executor, repository or client state hides in a shared cell)'
! for f in crates/obs/src/*.rs crates/engine/src/coordinator/*.rs crates/tx/src/manager.rs crates/tx/src/storage.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -nE '\bRc\b|\bRegistry\b' || fail 'A shard owns what it holds (below their test modules, obs, the coordinator and the tx manager and storage name no Rc and no metric Registry; Coordinator is Send, asserted at build)'
! for f in crates/*/src/*.rs crates/*/src/*/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -nE 'sys/plan|plan_uid|PLAN_PREFIX|plan_bytes|is_well_formed|verify_fingerprint|impl Decode for Plan\b|from_bytes::<Plan>' || fail 'A plan is its source, compiled (below their test modules, the crates store, ship, decode and validate no plan)'
! for f in crates/*/src/*.rs crates/*/src/*/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -nE 'impl (Encode|Decode) for (InstanceStatus|Outcome)\b' || fail 'Status is not a stored type (below their test modules, the crates encode only the stuck reason; `Running` and `Completed` are read off the root block)'
test "$(for f in $(find crates/engine/src -name "*.rs"); do awk "/#\[cfg\(test\)\]/{exit} {print}" "$f"; done | grep -c "Plan::lower")" -eq 1 || fail 'One place the engine lowers a plan (the shard'\''s PlanCache; non-test crates/engine/src names Plan::lower once)'
! grep -rnE 'rpc_reply\(|is_request\(' crates src tests examples || fail 'One reply path in the sim (a request is answered through its reply token)'
grep -qE 'reevaluate\(&running' crates/engine/src/coordinator/recovery.rs || fail 'A restart re-arms in one step (recovery hands every running instance to the one step over resident instances, one frame; no step per instance)'
! grep -rnE 'fn (rearm|evaluate)\(' crates/engine/src/coordinator || fail 'One step over resident instances (no re-arm or full-evaluate step beside reevaluate)'
! grep -n 'start_msg(instance, script, None' crates/engine/src/api.rs || fail 'The façade names the version it registered (a start sends the version register_script returned, so a shard that fetched it before starts with no repository round trip)'
! grep -rnE 'self\.(publish|maybe_checkpoint|assert_settled)\(' crates/engine/src/coordinator --include='*.rs' | grep -v 'coordinator/step.rs:' || fail 'One step (every step commits, publishes, checks the checkpoint threshold and runs the oracles through Coordinator::step in coordinator/step.rs)'
test "$(grep -rn 'self.arm_watchdog(' crates/engine/src/coordinator --include='*.rs' | wc -l)" -eq 2 || fail 'A watchdog is armed in two places (a shipped attempt, and keep_moving - the rollback rule, a restart and a live landing)'
! grep -rn 'EngineMsg::Cancel' crates src tests examples | grep -vE '^crates/engine/src/(msg|executor|coordinator/dispatch)\.rs:' || fail 'One cancel path (a shard builds EngineMsg::Cancel only in coordinator/dispatch.rs, an executor matches it only in executor.rs; msg.rs holds its codec)'
! grep -rnE 'EngineMsg::(Census|Running)' crates src tests examples | grep -vE '^crates/engine/src/(msg|executor)\.rs:|^crates/engine/src/coordinator/' || fail 'One census path (a shard asks with EngineMsg::Census and reads the answer, EngineMsg::Running, only in coordinator/; an executor answers only in executor.rs; msg.rs holds their codec)'
test "$(grep -rn 'attempt += 1' crates/engine/src | wc -l)" -eq 2 || fail 'An attempt is bumped in two places (a lost attempt'\''s retry and a repeat; a restart re-sends the attempt a block has)'
! grep -rnE 'struct (MarkMsg|RunningAttempt)|enum PendingEvent|EngineMsg::Mark\b' crates src tests examples README.md || fail 'One attempt, one report (an attempt'\''s address and an executor'\''s report are one type each; the retired mark message, census entry and window buffer stay deleted)'
test "$(grep -c 'pub incarnation: u32' crates/engine/src/msg.rs)" -eq 1 || fail 'An attempt'\''s address is declared once (msg.rs'\''s Attempt holds the one incarnation field)'
! grep -rnE 'Timer::Dispatch|struct ParkedDispatch|fn on_dispatch_timer' crates src tests examples README.md || fail 'One state and one timer per flight (a delayed or parked attempt waits on its dispatch record; the boxed dispatch timer, the queue'\''s copy of the launch and their handler stay deleted)'
test "$(wc -c < README.md)" -le 39615 || fail 'README byte budget'

if [ "$failed" -ne 0 ]; then
    echo "$failed gate(s) failed" >&2
    exit 1
fi
echo "every gate passed"
