//! Isolated unit costs: the workload's own artifacts (its scripts, its
//! WAL bytes, its mean frame and commit sizes) replayed through one
//! layer's public functions at a time. Multiplied by the counts the
//! traced run read from the system, they give the *estimated* share of
//! each layer; spans inside the program are a later issue.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use flowscript_codec::frame::encode_frame;
use flowscript_core::ast::OutputKind;
use flowscript_core::schema::compile_source;
use flowscript_engine::{ExecutorSpec, ImplHints, ObjectVal, SchedPolicy, Scheduler};
use flowscript_plan::{eval, Plan, PlanFacts, Probe, TaskId};
use flowscript_sim::{LinkConfig, NodeId, World};
use flowscript_tx::dist::{CoordAction, Coordinator};
use flowscript_tx::lock::LockManager;
use flowscript_tx::{
    LockMode, LogRecord, MemStorage, ObjectUid, SharedFileStorage, Storage, StoreKey, TxId,
    TxManager, Wal,
};

use crate::stats::{median, sorted};
use crate::workloads::{Scratch, WalDir, Workload};

/// Median wall time of one `op`, in nanoseconds: batches of at least
/// 2 ms each, 15 of them, the first discarded as warm-up.
fn time_ns(mut op: impl FnMut()) -> f64 {
    const BATCHES: usize = 15;
    const BATCH: Duration = Duration::from_millis(2);
    let mut per_batch = 1u64;
    loop {
        let began = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        if began.elapsed() >= BATCH || per_batch >= 1 << 24 {
            break;
        }
        per_batch *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            began.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&sorted(&samples))
}

/// What the workload's own log says about its write path.
#[derive(Debug, Default)]
pub struct LogShape {
    /// Bytes on shard 0's log.
    pub bytes: u64,
    /// Top-level records (= frames) on it.
    pub records: Vec<LogRecord>,
    /// Mean after-images per commit.
    pub writes_per_commit: usize,
    /// Mean bytes per after-image value.
    pub value_bytes: usize,
}

impl LogShape {
    pub fn mean_frame_bytes(&self) -> usize {
        (self.bytes as usize)
            .checked_div(self.records.len())
            .unwrap_or(0)
    }
}

/// Top-level records on every shard's log file: each was one
/// `Storage::append`, that is one `write` + `fdatasync`.
pub fn frames_in(wal: &WalDir, shards: usize) -> usize {
    (0..shards)
        .map(|shard| {
            let storage =
                SharedFileStorage::open(wal.shard_file(shard)).expect("the workload's log opens");
            Wal::new(storage)
                .scan()
                .expect("the workload's log scans")
                .len()
        })
        .sum()
}

/// Scans shard 0's log file; also times the scan.
pub fn read_log(path: &Path) -> (LogShape, f64) {
    let storage = SharedFileStorage::open(path).expect("the workload's log opens");
    let bytes = storage.len();
    let wal = Wal::new(storage);
    let began = Instant::now();
    let records = wal.scan().expect("the workload's log scans");
    let scan_s = began.elapsed().as_secs_f64();

    let (mut commits, mut writes, mut value_bytes) = (0usize, 0usize, 0usize);
    let mut pending: Vec<&LogRecord> = records.iter().collect();
    while let Some(record) = pending.pop() {
        match record {
            LogRecord::GroupCommit { records } => pending.extend(records),
            LogRecord::Commit { writes: images, .. } => {
                commits += 1;
                writes += images.len();
                value_bytes += images
                    .iter()
                    .map(|(_, value)| value.as_ref().map_or(0, Vec::len))
                    .sum::<usize>();
            }
            _ => {}
        }
    }
    let shape = LogShape {
        bytes,
        writes_per_commit: writes.checked_div(commits).unwrap_or(0).max(1),
        value_bytes: value_bytes.checked_div(writes).unwrap_or(0).max(1),
        records,
    };
    (shape, bytes as f64 / 1e6 / scan_s)
}

/// A name-keyed fact store for the isolated plan evaluation.
#[derive(Default)]
struct Facts(BTreeMap<(String, String, bool), BTreeMap<String, ObjectVal>>);

impl PlanFacts for Facts {
    type Value = ObjectVal;

    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<ObjectVal> {
        self.0
            .get(&(
                probe.producer.to_string(),
                probe.name.to_string(),
                probe.is_input,
            ))
            .and_then(|objects| objects.get(object).cloned())
    }

    fn fact_fired(&self, probe: Probe<'_>) -> bool {
        self.0.contains_key(&(
            probe.producer.to_string(),
            probe.name.to_string(),
            probe.is_input,
        ))
    }
}

/// Facts as they stand mid-run: the root's input bound, then one
/// wavefront of what the coordinator would commit (satisfied input
/// sets bound, those leaves' first declared outcome published).
fn mid_run_facts(plan: &Plan) -> Facts {
    let mut facts = Facts::default();
    let objects_of = |range: flowscript_plan::Range32| -> BTreeMap<String, ObjectVal> {
        range
            .iter()
            .map(|index| &plan.class_objects[index])
            .map(|sig| {
                (
                    plan.str(sig.name).to_string(),
                    ObjectVal::text(plan.str(sig.class), "v"),
                )
            })
            .collect()
    };
    let root = plan.root();
    if let Some(index) = plan.class_of(root).sets.iter().next() {
        let set = &plan.class_sets[index];
        facts.0.insert(
            (
                plan.str(root.path).to_string(),
                plan.str(set.name).to_string(),
                true,
            ),
            objects_of(set.objects),
        );
    }
    for id in 1..plan.tasks.len() as TaskId {
        let Some((set, bound)) = eval::eval_task_inputs(plan, id, &facts) else {
            continue;
        };
        let task = plan.task(id);
        let path = plan.str(task.path).to_string();
        let bound = bound
            .into_iter()
            .map(|(name, value)| (plan.str(name).to_string(), value))
            .collect();
        facts
            .0
            .insert((path.clone(), plan.str(set).to_string(), true), bound);
        if task.is_scope {
            continue;
        }
        let class = plan.class_of(task);
        let outcome = class
            .outputs
            .iter()
            .map(|index| &plan.class_outputs[index])
            .find(|output| output.kind == OutputKind::Outcome);
        if let Some(outcome) = outcome {
            facts.0.insert(
                (path, plan.str(outcome.name).to_string(), false),
                objects_of(outcome.objects),
            );
        }
    }
    facts
}

/// Front end and plan costs, summed over the workload's scripts.
pub struct ScriptCosts {
    pub compile_us: f64,
    pub lower_us: f64,
    pub encoded_bytes: usize,
    pub eval_ns_per_task: f64,
}

pub fn script_costs(w: Workload) -> ScriptCosts {
    let mut costs = ScriptCosts {
        compile_us: 0.0,
        lower_us: 0.0,
        encoded_bytes: 0,
        eval_ns_per_task: 0.0,
    };
    let (mut eval_ns, mut tasks) = (0.0, 0usize);
    for (_, source, root) in w.scripts() {
        costs.compile_us += time_ns(|| {
            black_box(compile_source(black_box(source), root).expect("sample compiles"));
        }) / 1e3;
        let schema = compile_source(source, root).expect("sample compiles");
        costs.lower_us += time_ns(|| {
            black_box(Plan::lower(black_box(&schema)));
        }) / 1e3;
        let plan = Plan::lower(&schema);
        costs.encoded_bytes += flowscript_codec::to_bytes(&plan).len();
        let facts = mid_run_facts(&plan);
        let count = plan.tasks.len() - 1;
        eval_ns += time_ns(|| {
            for id in 1..plan.tasks.len() as TaskId {
                black_box(eval::eval_task_inputs(&plan, id, &facts));
            }
        });
        tasks += count;
    }
    costs.eval_ns_per_task = eval_ns / tasks as f64;
    costs
}

/// Codec costs over the workload's own records.
pub struct CodecCosts {
    pub encode_ns_per_record: f64,
    pub decode_ns_per_record: f64,
    pub frame_ns_per_kib: f64,
}

pub fn codec_costs(shape: &LogShape) -> CodecCosts {
    let count = shape.records.len().max(1) as f64;
    let payloads: Vec<Vec<u8>> = shape
        .records
        .iter()
        .map(flowscript_codec::to_bytes)
        .collect();
    let kib = payloads.iter().map(Vec::len).sum::<usize>().max(1) as f64 / 1024.0;
    CodecCosts {
        encode_ns_per_record: time_ns(|| {
            for record in &shape.records {
                black_box(flowscript_codec::to_bytes(black_box(record)));
            }
        }) / count,
        decode_ns_per_record: time_ns(|| {
            for payload in &payloads {
                black_box(
                    flowscript_codec::from_bytes::<LogRecord>(black_box(payload))
                        .expect("own encoding decodes"),
                );
            }
        }) / count,
        frame_ns_per_kib: time_ns(|| {
            for payload in &payloads {
                black_box(encode_frame(black_box(payload)).expect("payload frames"));
            }
        }) / kib,
    }
}

/// Transaction-substrate costs at the workload's commit and frame size.
pub struct TxCosts {
    pub commit_mem_us: f64,
    pub commit_file_us: f64,
    pub open_replay_s: f64,
    pub lock_acquire_ns: f64,
    pub append_sync_us: f64,
    pub append_mem_us: f64,
    pub dist_round_ns: f64,
}

/// As many keys as the workload's mean commit writes.
fn commit_keys(shape: &LogShape) -> Vec<StoreKey> {
    (0..shape.writes_per_commit)
        .map(|i| StoreKey::Uid(ObjectUid::new(format!("ledger/object/{i}"))))
        .collect()
}

/// Begin, workload-sized writes, commit: over a fixed key set, so the
/// store does not grow while timing.
fn commit_ns<S: Storage>(mut mgr: TxManager<S>, shape: &LogShape) -> f64 {
    let keys = commit_keys(shape);
    let value = vec![0x5a_u8; shape.value_bytes];
    time_ns(|| {
        let action = mgr.begin();
        for key in &keys {
            mgr.write_key_raw(&action, key, value.clone())
                .expect("uncontended write");
        }
        mgr.commit(action).expect("commit");
    })
}

/// `Storage::append` of one mean-size frame; the storage is emptied
/// between batches so neither arm pays for growth.
fn append_ns<S: Storage>(mut storage: S, frame: &[u8]) -> f64 {
    let mut since_truncate = 0u32;
    time_ns(|| {
        storage.append(black_box(frame)).expect("append");
        since_truncate += 1;
        if since_truncate == 4096 {
            storage.truncate(0).expect("truncate");
            since_truncate = 0;
        }
    })
}

pub fn tx_costs(shape: &LogShape, log: &Path, scratch: &Scratch) -> TxCosts {
    let dir = scratch.wal_dir();
    std::fs::create_dir_all(dir.path()).expect("scratch dir creatable");
    let file = |name: &str| SharedFileStorage::create(dir.path().join(name)).expect("file opens");

    let began = Instant::now();
    let replayed = TxManager::open(0, SharedFileStorage::open(log).expect("log opens"))
        .expect("the workload's log replays");
    let open_replay_s = began.elapsed().as_secs_f64();
    drop(replayed);

    let frame = vec![0x5a_u8; shape.mean_frame_bytes().max(1)];
    let keys = commit_keys(shape);
    let mut locks = LockManager::new();
    let tx = TxId::new(0, 1);

    TxCosts {
        commit_mem_us: commit_ns(TxManager::in_memory(), shape) / 1e3,
        commit_file_us: commit_ns(
            TxManager::open(0, file("commit.wal")).expect("fresh log opens"),
            shape,
        ) / 1e3,
        open_replay_s,
        lock_acquire_ns: time_ns(|| {
            for key in &keys {
                black_box(locks.acquire(tx, key, LockMode::Write));
            }
            locks.release_all(tx);
        }) / keys.len() as f64,
        append_sync_us: append_ns(file("append.wal"), &frame) / 1e3,
        append_mem_us: append_ns(MemStorage::new(), &frame) / 1e3,
        dist_round_ns: dist_round_ns(),
    }
}

/// One presumed-abort 2PC round over two participants: begin, both
/// votes, both acks, driven straight through the state machine.
fn dist_round_ns() -> f64 {
    let mut coordinator = Coordinator::new(0);
    let mut seq = 0u64;
    let key = StoreKey::Uid(ObjectUid::new("ledger/2pc"));
    time_ns(|| {
        seq += 1;
        let tx = TxId::new(0, seq);
        let writes = vec![
            (1, vec![(key.clone(), Some(vec![1]))]),
            (2, vec![(key.clone(), Some(vec![2]))]),
        ];
        black_box(coordinator.begin(tx, writes));
        black_box(coordinator.on_vote(tx, 1, true));
        black_box(coordinator.on_vote(tx, 2, true));
        black_box(coordinator.on_ack(tx, 1));
        let done = coordinator.on_ack(tx, 2);
        debug_assert!(matches!(
            done[..],
            [CoordAction::Done {
                committed: true,
                ..
            }]
        ));
    })
}

/// `Scheduler::pick` + `note_dispatch` + `note_release` over the
/// workloads' four-executor fleet.
pub fn sched_pick_ns() -> f64 {
    let specs = (0..4)
        .map(|i| ExecutorSpec::unbounded(NodeId::from_index(10 + i)))
        .collect();
    let mut scheduler = Scheduler::new(specs, SchedPolicy::default());
    let hints = ImplHints::default();
    time_ns(|| {
        let placement = scheduler
            .pick(black_box("diamond/t2"), 0, &hints, None)
            .expect("unpinned task places");
        scheduler.note_dispatch(placement.node, 1);
        scheduler.note_release(placement.node, 1);
    })
}

/// One message hop through the simulator: a two-node ping-pong through
/// `World::send`/`run`, sim trace off.
pub fn sim_hop_ns(seed: u64) -> f64 {
    const HOPS: u64 = 2000;
    time_ns(|| {
        let mut world = World::new(seed);
        world.trace_mut().set_enabled(false);
        let a = world.add_node("a");
        let b = world.add_node("b");
        let left = Rc::new(Cell::new(HOPS));
        for (node, peer) in [(a, b), (b, a)] {
            let left = left.clone();
            world.set_handler(node, move |world, envelope| {
                if left.get() > 0 {
                    left.set(left.get() - 1);
                    world.send(node, peer, envelope.payload.clone());
                }
            });
        }
        world.send(a, b, vec![0u8; 64]);
        world.run();
        debug_assert_eq!(left.get(), 0);
    }) / (HOPS + 1) as f64
}

/// The configured one-way link latency (virtual µs).
pub fn link_latency_us() -> f64 {
    LinkConfig::default().base_latency.as_nanos() as f64 / 1e3
}
