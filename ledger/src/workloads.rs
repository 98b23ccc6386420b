//! The three workloads: how each system is built, driven and checked
//! on either store.
//!
//! Only the narrow `WorkflowSystem` surface listed in the README is
//! used here, so the refactors queued behind this benchmark (config
//! knob removal, the coordinator split) leave these files alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use flowscript_core::samples;
use flowscript_engine::{
    CoordStats, EngineConfig, ObjectVal, ObserveLevel, Snapshot, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};

use crate::cpu::{Stopwatch, Times};
use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Wave,
    ClosedApps,
    CrashRecover,
}

/// Instances per repeat. At 1 000 a timed repeat takes 0.2–1 s of CPU,
/// so a run of some tens of seconds takes its medians over twenty or
/// more repeats; per-instance cost at 10 000 is within 15 % of this.
/// In the closed loop, 1 000 samples leave 10 beyond each repeat's p99.
pub const INSTANCES: usize = 1000;

/// Virtual time at which `crash_recover` kills every coordinator: T1
/// (30 s of work) has committed, T2/T3 are executing.
const CRASH_AT_NS: u64 = 45_000_000_000;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Wave, Workload::ClosedApps, Workload::CrashRecover];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wave => "wave",
            Workload::ClosedApps => "closed_apps",
            Workload::CrashRecover => "crash_recover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Wave => {
                "burst of fig. 1 diamonds, all live at once on 4 shards: batching, worklist drain, scheduler and sim hops under load"
            }
            Workload::ClosedApps => {
                "closed loop of fig. 7 orders and fig. 8 trips, one at a time: a commit window of one exposes per-commit latency"
            }
            Workload::CrashRecover => {
                "the wave crashed mid-flight on every shard and restarted: the read side of the log and the fault-injection gate"
            }
        }
    }

    /// The scripts the workload registers: `(name, source, root)`.
    pub fn scripts(self) -> &'static [(&'static str, &'static str, &'static str)] {
        match self {
            Workload::ClosedApps => &[
                (
                    "order",
                    samples::ORDER_PROCESSING,
                    "processOrderApplication",
                ),
                ("trip", samples::BUSINESS_TRIP, "tripReservation"),
            ],
            _ => &[("diamond", samples::FIG1_DIAMOND, "diamond")],
        }
    }

    pub fn is_wave(self) -> bool {
        self != Workload::ClosedApps
    }

    /// The arm the timed end-to-end metrics are measured on — the
    /// in-memory log, observation off — at `instances` instances per
    /// repeat ([`INSTANCES`] outside unit tests).
    pub fn arm(self, instances: usize) -> Arm {
        Arm {
            observe: ObserveLevel::Off,
            sim_trace: false,
            shards: if self.is_wave() { 4 } else { 1 },
            file_wal: false,
            instances,
        }
    }

    /// The same on a `fdatasync`'d log file per shard: the arm the
    /// durability checks, the log counts and the wall-clock figures
    /// come from.
    pub fn file_arm(self, instances: usize) -> Arm {
        Arm {
            file_wal: true,
            ..self.arm(instances)
        }
    }

    fn instance_name(self, index: usize) -> String {
        if self.is_wave() {
            format!("wave-{index}")
        } else {
            format!("app-{index}")
        }
    }
}

/// One way of running a workload. The end-to-end arm is
/// [`Workload::arm`]; the traced run varies one field at a time.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    pub observe: ObserveLevel,
    pub sim_trace: bool,
    pub shards: usize,
    pub file_wal: bool,
    pub instances: usize,
}

/// Where WAL directories and span files go: under the cargo target
/// directory, so everything the benchmark writes is build output.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

/// Numbers this process's WAL directories (unit tests run several
/// workloads on parallel threads).
static NEXT_WAL_DIR: AtomicU32 = AtomicU32::new(0);

impl Scratch {
    pub fn new() -> Scratch {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        Scratch {
            root: target.join("ledger"),
        }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh directory name unique to this process and call.
    pub fn wal_dir(&self) -> WalDir {
        let n = NEXT_WAL_DIR.fetch_add(1, Ordering::Relaxed);
        WalDir(self.root.join(format!("wal-{}-{n}", std::process::id())))
    }
}

/// A WAL directory removed when dropped.
#[derive(Debug)]
pub struct WalDir(PathBuf);

impl WalDir {
    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn shard_file(&self, shard: usize) -> PathBuf {
        self.0.join(format!("shard{shard}.wal"))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn text(class: &str, value: impl Into<String>) -> ObjectVal {
    ObjectVal::text(class, value)
}

/// Builds the workload's system: nodes, storage, scripts, bindings.
/// This is what `setup_s` times.
pub fn build_system(w: Workload, seed: u64, arm: Arm, wal_dir: Option<&Path>) -> WorkflowSystem {
    let config = EngineConfig {
        // Wave tasks take 30 virtual seconds; keep watchdogs out of the
        // way. The applications keep the default.
        dispatch_timeout: SimDuration::from_secs(if w.is_wave() { 300 } else { 30 }),
        ..Default::default()
    };
    let mut builder = WorkflowSystem::builder()
        .executors(4)
        .coordinators(arm.shards)
        .seed(seed)
        .trace(arm.sim_trace)
        .config(config)
        .observe(arm.observe);
    if let Some(dir) = wal_dir {
        builder = builder.wal_dir(dir);
    }
    let mut sys = builder.build();
    for (name, source, root) in w.scripts() {
        sys.register_script(name, source, root)
            .expect("sample script is valid");
    }
    if w.is_wave() {
        for code in ["refT1", "refT2", "refT3", "refT4"] {
            sys.bind_fn(code, |_| {
                TaskBehavior::outcome("done")
                    .with_work(SimDuration::from_secs(30))
                    .with_object("out", text("Data", "d"))
            });
        }
    } else {
        bind_order(&sys);
        bind_trip(&sys);
    }
    sys
}

fn bind_order(sys: &WorkflowSystem) {
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised").with_object("paymentInfo", text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable").with_object("stockInfo", text("StockInfo", "st"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_object("dispatchNote", text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
}

/// The trip's implementations are pure functions of their inputs: the
/// user object's text is threaded through every produced object, and a
/// user marked `flaky` makes the hotel fail in the compound's first
/// incarnation only — compensation plus one compound repeat, with no
/// state hidden in the closures.
fn bind_trip(sys: &WorkflowSystem) {
    sys.bind_fn("refDataAcquisition", |ctx| {
        TaskBehavior::outcome("acquired")
            .with_object("tripData", text("TripData", ctx.input_text("user")))
    });
    sys.bind_fn("refAirlineQueryA", |_| {
        TaskBehavior::outcome("notFound").with_work(SimDuration::from_millis(5))
    });
    for (code, millis) in [("refAirlineQueryB", 12), ("refAirlineQueryC", 30)] {
        sys.bind_fn(code, move |ctx| {
            TaskBehavior::outcome("found")
                .with_work(SimDuration::from_millis(millis))
                .with_object("flightList", text("FlightList", ctx.input_text("tripData")))
        });
    }
    sys.bind_fn("refFlightReservation", |ctx| {
        TaskBehavior::outcome("reserved")
            .with_object("plane", text("Plane", ctx.input_text("flightList")))
            .with_object("cost", text("Cost", "c"))
    });
    sys.bind_fn("refHotelReservation", |ctx| {
        if ctx.incarnation == 0 && ctx.input_text("plane").starts_with("flaky") {
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("hotelBooked").with_object("hotel", text("Hotel", "h"))
        }
    });
    sys.bind_fn("refFlightCancellation", |_| {
        TaskBehavior::outcome("cancelled")
    });
    sys.bind_fn("refPrintTickets", |_| {
        TaskBehavior::outcome("printed").with_object("tickets", text("Tickets", "tk"))
    });
}

/// One generated instance: which script, its input and the outcome it
/// must reach. Inputs are a function of `(workload, seed, index)` only.
struct Instance {
    name: String,
    script: &'static str,
    slot: &'static str,
    input: ObjectVal,
    expected: &'static str,
}

fn generate(w: Workload, seed: u64, count: usize) -> Vec<Instance> {
    (0..count)
        .map(|index| {
            let name = w.instance_name(index);
            if w.is_wave() {
                Instance {
                    name,
                    script: "diamond",
                    slot: "seed",
                    input: text("Data", format!("{seed:016x}")),
                    expected: "done",
                }
            } else if index % 3 != 2 {
                Instance {
                    name,
                    script: "order",
                    slot: "order",
                    input: text("Order", format!("{seed:016x}")),
                    expected: "orderCompleted",
                }
            } else {
                // Two orders per trip, and every 16th trip flaky, put
                // each reported percentile inside one population: p50
                // is a typical order, p99 (with ~2 % of instances
                // flaky) the median trip that takes compensation and a
                // compound repeat. The seed picks which trips are
                // flaky, never how many (give or take one).
                let trip = index / 3;
                let flaky = (trip as u64).wrapping_add(seed).is_multiple_of(16);
                let kind = if flaky { "flaky" } else { "solid" };
                Instance {
                    name,
                    script: "trip",
                    slot: "user",
                    input: text("User", format!("{kind}-{seed:016x}")),
                    expected: "booked",
                }
            }
        })
        .collect()
}

/// Counts read from the system at quiescence (before the cold restart,
/// so recovery's legitimate scans do not pollute the clean counts).
#[derive(Debug, Clone)]
pub struct Observed {
    pub snapshot: Snapshot,
    pub stats: CoordStats,
    /// Sim message deliveries; 0 unless the arm has the sim trace on.
    pub deliveries: usize,
}

/// What one repeat (fresh system, whole workload, checks) produced.
/// Every duration is taken on both clocks: CPU time for the end-to-end
/// metrics, wall time for the per-layer report.
#[derive(Debug)]
pub struct Repeat {
    pub instances: usize,
    /// First `start` to quiescence (including a mid-flight crash and
    /// restart on `crash_recover`).
    pub drive: Times,
    /// First `restart_now` call to last return.
    pub recovery: Times,
    /// Slowest single shard restart (wall).
    pub restart_max_s: f64,
    /// Per instance, `start` call to the moment its outcome is
    /// observable by the single client: its own quiescence in the
    /// closed loop, the wave's quiescence in a burst.
    pub latency: Vec<Times>,
    pub virtual_latency_ms: Vec<f64>,
    pub virtual_makespan_ms: f64,
    pub log_bytes: u64,
    pub recovered_instances: u64,
    /// One line per failed check, naming the instance.
    pub failures: Vec<String>,
    /// Hash over every instance's outcome (name, kind, objects).
    pub fingerprint: u64,
    pub observed: Observed,
    /// The WAL directory, kept alive for artifact replay.
    pub wal: Option<WalDir>,
}

impl Repeat {
    /// Multiplies every CPU time of the repeat by `factor`.
    pub fn scale_cpu(&mut self, factor: f64) {
        self.drive = self.drive.cpu_scaled(factor);
        self.recovery = self.recovery.cpu_scaled(factor);
        for latency in &mut self.latency {
            *latency = latency.cpu_scaled(factor);
        }
    }

    /// Wall µs per instance, first `start` to quiescence.
    pub fn per_instance_us(&self) -> f64 {
        self.drive.wall_s * 1e6 / self.instances as f64
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    *hash ^= 0xff;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Checks every instance's outcome against its expectation and folds
/// all outcomes into one fingerprint.
fn check_outcomes(sys: &WorkflowSystem, instances: &[Instance], failures: &mut Vec<String>) -> u64 {
    let mut hash = FNV_OFFSET;
    for instance in instances {
        fnv(&mut hash, instance.name.as_bytes());
        match sys.outcome(&instance.name) {
            None => failures.push(format!(
                "{}: no outcome (expected {})",
                instance.name, instance.expected
            )),
            Some(outcome) => {
                if outcome.name != instance.expected {
                    failures.push(format!(
                        "{}: outcome {} (expected {})",
                        instance.name, outcome.name, instance.expected
                    ));
                }
                fnv(&mut hash, outcome.name.as_bytes());
                fnv(&mut hash, format!("{:?}", outcome.kind).as_bytes());
                for (slot, object) in &outcome.objects {
                    fnv(&mut hash, slot.as_bytes());
                    fnv(&mut hash, object.class.as_bytes());
                    fnv(&mut hash, &object.data);
                    fnv(&mut hash, object.produced_by.as_bytes());
                }
            }
        }
    }
    hash
}

fn millis(from: SimTime, to: SimTime) -> f64 {
    to.since(from).as_nanos() as f64 / 1e6
}

/// Crashes every coordinator, then restarts them one by one, timed.
/// Returns `(first restart call to last return, slowest restart)`.
fn restart_all(sys: &mut WorkflowSystem, spans: &mut Spans) -> (Times, f64) {
    let nodes = sys.coordinator_nodes().to_vec();
    spans.enter("crash", None);
    for &node in &nodes {
        sys.crash_now(node);
    }
    spans.exit();
    let began = Stopwatch::start();
    let mut slowest = 0f64;
    for &node in &nodes {
        spans.enter("restart", None);
        let one = Stopwatch::start();
        sys.restart_now(node);
        slowest = slowest.max(one.elapsed().wall_s);
        spans.exit();
    }
    (began.elapsed(), slowest)
}

fn start_instance(
    sys: &mut WorkflowSystem,
    spans: &mut Spans,
    index: usize,
    instance: &Instance,
    failures: &mut Vec<String>,
) {
    spans.enter("start", Some(index as u32));
    let result = sys.start(
        &instance.name,
        instance.script,
        "main",
        [(instance.slot, instance.input.clone())],
    );
    spans.exit();
    if let Err(err) = result {
        failures.push(format!("{}: start failed: {err}", instance.name));
    }
}

/// Runs the workload once on a fresh system and checks its outputs.
pub fn run_repeat(
    w: Workload,
    seed: u64,
    arm: Arm,
    scratch: &Scratch,
    spans: &mut Spans,
) -> Repeat {
    let wal = arm.file_wal.then(|| scratch.wal_dir());
    let instances = generate(w, seed, arm.instances);

    spans.enter("repeat", None);
    spans.enter("setup", None);
    let mut sys = build_system(w, seed, arm, wal.as_ref().map(WalDir::path));
    spans.exit();

    let mut failures = Vec::new();
    let mut latency = Vec::with_capacity(instances.len());
    let mut virtual_latency_ms = Vec::with_capacity(instances.len());
    let mut recovery = None;

    spans.enter("drive", None);
    let drive_began = Stopwatch::start();
    if w.is_wave() {
        let mut started = Vec::with_capacity(instances.len());
        for (index, instance) in instances.iter().enumerate() {
            started.push((Stopwatch::start(), sys.now()));
            start_instance(&mut sys, spans, index, instance, &mut failures);
        }
        if w == Workload::CrashRecover {
            spans.enter("run", None);
            sys.run_until(SimTime::from_nanos(CRASH_AT_NS));
            spans.exit();
            recovery = Some(restart_all(&mut sys, spans));
        }
        spans.enter("run", None);
        sys.run();
        spans.exit();
        let virtual_end = sys.now();
        for (began, virtual_start) in started {
            latency.push(began.elapsed());
            virtual_latency_ms.push(millis(virtual_start, virtual_end));
        }
    } else {
        for (index, instance) in instances.iter().enumerate() {
            let (began, virtual_start) = (Stopwatch::start(), sys.now());
            start_instance(&mut sys, spans, index, instance, &mut failures);
            spans.enter("run", Some(index as u32));
            sys.run();
            spans.exit();
            latency.push(began.elapsed());
            virtual_latency_ms.push(millis(virtual_start, sys.now()));
        }
    }
    let drive = drive_began.elapsed();
    spans.exit();

    spans.enter("check", None);
    let virtual_makespan_ms = millis(SimTime::ZERO, sys.now());
    let log_bytes = sys.log_size();
    let observed = Observed {
        snapshot: sys.metrics_snapshot(),
        stats: sys.stats(),
        deliveries: if arm.sim_trace {
            sys.sim_trace().deliveries()
        } else {
            0
        },
    };
    let fingerprint = check_outcomes(&sys, &instances, &mut failures);
    spans.exit();

    // Durability gate on the workloads that did not crash mid-flight:
    // a cold restart over the log they left must bring every outcome
    // back unchanged. This is also their `recovery_s`.
    let (recovery, restart_max_s) = recovery.unwrap_or_else(|| {
        let timed = restart_all(&mut sys, spans);
        spans.enter("run", None);
        sys.run();
        spans.exit();
        let mut after = Vec::new();
        if check_outcomes(&sys, &instances, &mut after) != fingerprint || !after.is_empty() {
            failures.push(format!(
                "{}: outcomes changed across a cold restart ({} failed afterwards)",
                w.name(),
                after.len()
            ));
            failures.extend(after);
        }
        timed
    });
    let recovered_instances = sys.stats().recovered_instances;
    if recovered_instances != instances.len() as u64 {
        failures.push(format!(
            "{}: recovered {recovered_instances} instances, expected {}",
            w.name(),
            instances.len()
        ));
    }
    spans.exit();

    Repeat {
        instances: instances.len(),
        drive,
        recovery,
        restart_max_s,
        latency,
        virtual_latency_ms,
        virtual_makespan_ms,
        log_bytes,
        recovered_instances,
        failures,
        fingerprint,
        observed,
        wal,
    }
}
