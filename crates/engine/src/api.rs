//! The high-level facade: a complete workflow system on simulated nodes.
//!
//! [`WorkflowSystem`] wires the Fig. 4 topology: a client node, the
//! repository service, `k` execution-coordinator nodes, and `n` executor
//! nodes, all over the simulated network. Scripts are registered via
//! repository RPC, instances started via coordinator RPC, and everything
//! runs under the deterministic event loop ([`WorkflowSystem::run`]).
//!
//! With [`SystemBuilder::coordinators`] the execution service scales
//! out: instance ownership is sharded across the coordinator nodes by
//! the rendezvous-hashed [`ShardMap`], each shard owning its instances'
//! facts, control blocks and write-ahead log on its **own** stable
//! storage, while the repository (and its plan cache) stays shared.
//! Client calls route through the same map, and a request landing on
//! the wrong shard is forwarded to the owner.
//!
//! Fault injection is first-class: crash/restart any node (a restarted
//! coordinator recovers *its shard* from its own write-ahead log while
//! the other shards keep committing), partition the network, or apply a
//! scripted [`FaultPlan`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;

use flowscript_obs::{ObsEvent, ObserveLevel, Snapshot};
use flowscript_sim::{
    net::LinkConfig, FaultPlan, NodeEvent, NodeId, RpcError, SimDuration, SimTime, World,
};
use flowscript_tx::{SharedFileStorage, SharedStorage, StableStore};

use crate::coordinator::{
    CoordStats, Coordinator, DispatchRecord, EngineConfig, FailoverReport, InstanceStatus,
    MoveReport, Op, Outcome, Report, FLEET_DEADLINE,
};
use crate::driver::{Driver, Input, Node, Output};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::impl_registry::{Binding, Bindings, InvokeCtx, TaskBehavior};
use crate::msg::{EngineMsg, Objects};
use crate::reconfig::Reconfig;
use crate::repository::Repository;
use crate::sched::ExecutorSpec;
use crate::shard::ShardMap;
use crate::state::CbState;
use crate::value::ObjectVal;

/// Builder for a [`WorkflowSystem`].
#[derive(Debug)]
pub struct SystemBuilder {
    executors: usize,
    /// Additional executors with an explicit node name and location
    /// label (the scheduler's placement constraint).
    placed_executors: Vec<(String, String)>,
    /// Capacity every executor gets unless
    /// [`SystemBuilder::executors_weighted`] says otherwise: `0` is the
    /// legacy unbounded node, `1` the serial model.
    default_capacity: u32,
    /// Per-executor capacities for the location-less pool (overrides
    /// `executors` when non-empty).
    weighted_executors: Vec<u32>,
    coordinators: usize,
    seed: u64,
    config: EngineConfig,
    link: LinkConfig,
    shard_storages: Option<Vec<StableStore>>,
    wal_dir: Option<std::path::PathBuf>,
    trace_enabled: bool,
    /// Set by [`SystemBuilder::observe`]; kept beside `config` so it
    /// holds whichever of the two is called last.
    observe: Option<ObserveLevel>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self {
            executors: 2,
            placed_executors: Vec::new(),
            default_capacity: 0,
            weighted_executors: Vec::new(),
            coordinators: 1,
            seed: 0,
            config: EngineConfig::default(),
            link: LinkConfig::default(),
            shard_storages: None,
            wal_dir: None,
            trace_enabled: true,
            observe: None,
        }
    }
}

impl SystemBuilder {
    /// Number of location-less executor nodes. `executors(0)` is
    /// honored when [`SystemBuilder::executor_at`] adds placed ones
    /// (a placed-only fleet); with no placed executors either, build
    /// falls back to one location-less node — a system always has an
    /// executor.
    pub fn executors(mut self, n: usize) -> Self {
        self.executors = n;
        self
    }

    /// Adds one executor node named `node` registered at `location`.
    /// Tasks whose implementation clause pins that location dispatch
    /// only to matching executors; placed executors also serve
    /// unpinned tasks. Placed nodes come after the
    /// [`SystemBuilder::executors`] fleet in
    /// [`WorkflowSystem::executor_nodes`] order.
    pub fn executor_at(mut self, node: impl Into<String>, location: impl Into<String>) -> Self {
        self.placed_executors.push((node.into(), location.into()));
        self
    }

    /// Capacity every executor gets (declared to the schedulers AND
    /// enforced by the node's virtual-time slot queue): `k` concurrent
    /// tasks, `0` for the legacy unbounded node. Coordinators park
    /// dispatches once every eligible executor is at its capacity; `1`
    /// is the serial model `tests/scheduling.rs` runs on, so executor
    /// load shows up as latency.
    pub fn executor_capacity(mut self, capacity: u32) -> Self {
        self.default_capacity = capacity;
        self
    }

    /// A **weighted** location-less fleet: one executor per entry, with
    /// that entry's capacity (`0` = unbounded). Overrides
    /// [`SystemBuilder::executors`]; placed executors keep the default
    /// capacity.
    pub fn executors_weighted(mut self, capacities: Vec<u32>) -> Self {
        self.executors = capacities.len();
        self.weighted_executors = capacities;
        self
    }

    /// Number of coordinator nodes (≥ 1). Instances are sharded across
    /// them by consistent (rendezvous) hash of the instance name; every
    /// coordinator owns its shard's facts, WAL and worklists on its own
    /// stable storage.
    pub fn coordinators(mut self, n: usize) -> Self {
        self.coordinators = n.max(1);
        self
    }

    /// RNG seed (same seed ⇒ identical run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Engine policy (retries, timeouts, repeat bounds, checkpoints).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Default network link characteristics.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Uses existing per-shard stable storages (to model restarting a
    /// system over its surviving disks; see
    /// [`WorkflowSystem::shard_storages`]). Missing entries get fresh
    /// storage.
    pub fn shard_storages<S: Into<StableStore>>(mut self, storages: Vec<S>) -> Self {
        self.shard_storages = Some(storages.into_iter().map(Into::into).collect());
        self
    }

    /// Journals every shard to a real synced log file under `dir`
    /// (`shard0.wal`, `shard1.wal`, ...), created fresh — truncating
    /// leftovers from previous runs. Each WAL frame append becomes a
    /// `write` + `fdatasync`, so commits pay the durable-log cost the
    /// commit window amortizes; the in-memory default keeps simulated
    /// crash-survival without touching the disk. Explicit
    /// [`SystemBuilder::shard_storages`] entries take precedence per
    /// shard (restart-over-surviving-disk scenarios pass reopened
    /// [`SharedFileStorage`] handles there).
    ///
    /// # Panics
    ///
    /// [`SystemBuilder::build`] panics if `dir` cannot be created or a
    /// log file cannot be opened.
    pub fn wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Disables trace recording (benchmarks).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Observability level: overrides [`EngineConfig::observe`] of
    /// whatever config the system is built with, in either call order
    /// with [`SystemBuilder::config`].
    pub fn observe(mut self, level: ObserveLevel) -> Self {
        self.observe = Some(level);
        self
    }

    /// Builds the system: creates nodes, installs services.
    pub fn build(mut self) -> WorkflowSystem {
        if let Some(level) = self.observe {
            self.config.observe = level;
        }
        let mut world = World::new(self.seed);
        world.trace_mut().set_enabled(self.trace_enabled);
        world.net_mut().set_default_link(self.link);
        let client = world.add_node("client");
        let repo_node = world.add_node("repository");
        let coord_nodes: Vec<NodeId> = (0..self.coordinators)
            .map(|i| {
                world.add_node(if self.coordinators == 1 {
                    "coordinator".to_string()
                } else {
                    format!("coordinator{i}")
                })
            })
            .collect();
        // The executor fleet: the location-less pool first (weighted
        // capacities when declared), then every placed executor with
        // its label. An entirely empty fleet gets one default node — a
        // system always has an executor.
        let unlabeled = if self.executors == 0 && self.placed_executors.is_empty() {
            1
        } else {
            self.executors
        };
        let mut executor_specs: Vec<ExecutorSpec> = (0..unlabeled)
            .map(|i| ExecutorSpec {
                node: world.add_node(format!("executor{i}")),
                location: None,
                capacity: self
                    .weighted_executors
                    .get(i)
                    .copied()
                    .unwrap_or(self.default_capacity),
            })
            .collect();
        for (name, location) in &self.placed_executors {
            executor_specs.push(ExecutorSpec {
                node: world.add_node(name.clone()),
                location: Some(location.clone()),
                capacity: self.default_capacity,
            });
        }
        let executors: Vec<NodeId> = executor_specs.iter().map(|spec| spec.node).collect();

        let provided = self.shard_storages.unwrap_or_default();
        let storages: Vec<StableStore> = (0..self.coordinators)
            .map(|i| match provided.get(i) {
                Some(storage) => storage.clone(),
                None => fresh_storage(self.wal_dir.as_deref(), i).expect("wal file opens fresh"),
            })
            .collect();

        // The table, in the order the world numbered the nodes.
        let mut nodes = vec![
            Installed::Client(Driver::new(Client { node: client })),
            Installed::Repository(Driver::new(Repository::new(repo_node))),
        ];
        let shard = ShardMap::new(coord_nodes.clone());
        for (&node, storage) in coord_nodes.iter().zip(&storages) {
            let coordinator = Coordinator::open(
                node,
                repo_node,
                executor_specs.clone(),
                self.config.clone(),
                storage.clone(),
                shard.clone(),
            )
            .expect("fresh storage opens");
            let mut coord = Driver::new(coordinator);
            // If the storage carried previous state (system restart),
            // recover this shard.
            coord.input(&mut world, Input::Restart);
            nodes.push(Installed::Coordinator(Box::new(coord)));
        }
        nodes.extend(executor_specs.iter().map(|spec| {
            let executor = Executor::new(spec.clone(), Bindings::default());
            Installed::Executor(Driver::new(executor))
        }));

        WorkflowSystem {
            world,
            nodes,
            client,
            repo: repo_node,
            coord_nodes,
            executors,
            executor_specs,
            bindings: Bindings::default(),
            rebound: RefCell::default(),
            shard,
            storages,
            config: self.config,
            wal_dir: self.wal_dir,
            registered: BTreeMap::new(),
            probe: None,
        }
    }
}

/// Fresh stable storage for shard `idx`: a synced log file
/// `shard{idx}.wal` under `wal_dir` when one is configured (created
/// fresh, truncating leftovers), in-memory otherwise.
fn fresh_storage(
    wal_dir: Option<&std::path::Path>,
    idx: usize,
) -> Result<StableStore, EngineError> {
    let Some(dir) = wal_dir else {
        return Ok(SharedStorage::new().into());
    };
    std::fs::create_dir_all(dir).map_err(|e| EngineError::Tx(format!("wal dir: {e}")))?;
    let file = SharedFileStorage::create(dir.join(format!("shard{idx}.wal")))
        .map_err(|e| EngineError::Tx(format!("wal file: {e}")))?;
    Ok(file.into())
}

/// The façade's own node: the operator's request is a call to make —
/// to whom, with what bytes — and its answer what came back.
struct Client {
    node: NodeId,
}

impl Node for Client {
    type Timer = Infallible;
    type Call = ();
    type Op = (NodeId, Vec<u8>);
    type Answer = Result<Vec<u8>, RpcError>;

    fn node(&self) -> NodeId {
        self.node
    }

    fn handle(
        &mut self,
        _: SimTime,
        input: Input<Infallible, (), Self::Op>,
    ) -> Vec<Output<Infallible, (), Self::Answer>> {
        match input {
            Input::Op((to, bytes)) => vec![Output::Call {
                to,
                bytes,
                timeout: SimDuration::from_secs(10),
                call: (),
            }],
            Input::Answered((), answer) => vec![Output::Answer(answer)],
            _ => Vec::new(),
        }
    }
}

/// What runs on one node of the system: one of the four node kinds.
enum Installed {
    Client(Driver<Client>),
    Repository(Driver<Repository>),
    Coordinator(Box<Driver<Coordinator>>),
    Executor(Driver<Executor>),
}

impl Installed {
    /// Feeds the node the event the world named it for.
    fn deliver(&mut self, world: &mut World, event: NodeEvent) {
        match self {
            Installed::Client(driver) => driver.deliver(world, event),
            Installed::Repository(driver) => driver.deliver(world, event),
            Installed::Coordinator(driver) => driver.deliver(world, event),
            Installed::Executor(driver) => driver.deliver(world, event),
        }
    }

    fn kind(&self) -> NodeKind {
        match self {
            Installed::Client(_) => NodeKind::Client,
            Installed::Repository(_) => NodeKind::Repository,
            Installed::Coordinator(_) => NodeKind::Shard,
            Installed::Executor(_) => NodeKind::Executor,
        }
    }
}

/// The driver of kind `$kind` that the table entry `$entry` holds: the
/// kind the node's role says it runs.
macro_rules! driver {
    ($entry:expr, $kind:ident) => {
        match $entry {
            Installed::$kind(driver) => driver,
            _ => unreachable!(concat!("the node runs no ", stringify!($kind))),
        }
    };
}

/// A complete simulated workflow management system (Fig. 4).
pub struct WorkflowSystem {
    world: World,
    /// What runs on each node of the world, by node index: the client,
    /// the repository, every coordinator and every executor. A
    /// coordinator retired from the shard map by a planned drain or a
    /// crash-driven failover stays as a pure relay (late executor
    /// reports for its former instances route through it to the
    /// adopter), and its counters, traces and metrics keep aggregating.
    nodes: Vec<Installed>,
    client: NodeId,
    repo: NodeId,
    coord_nodes: Vec<NodeId>,
    executors: Vec<NodeId>,
    /// The executor fleet with location labels and capacities —
    /// retained so coordinators added later
    /// ([`WorkflowSystem::add_coordinator`]) schedule over the same
    /// fleet.
    executor_specs: Vec<ExecutorSpec>,
    /// The binding table every executor holds, as last handed over.
    bindings: Bindings,
    /// The table as bound since, until the next delivery hands it to
    /// every executor: a cell, since a bind takes `&self`.
    rebound: RefCell<Option<Bindings>>,
    shard: ShardMap,
    storages: Vec<StableStore>,
    /// Engine policy, retained for late-added coordinators.
    config: EngineConfig,
    /// WAL directory, retained so late-added shards journal alongside
    /// the original fleet (`shardN.wal`).
    wal_dir: Option<std::path::PathBuf>,
    /// Each script's version [`WorkflowSystem::register_script`] last
    /// returned. The façade is the repository's one writer, so this is
    /// its latest version: a start names it, and a shard that fetched
    /// it before launches with no round trip.
    registered: BTreeMap<String, u32>,
    /// A test's probe at [`WorkflowSystem::probe_deliveries`]: told the
    /// kind of node each delivery feeds, then `None` once it is fed.
    probe: Option<fn(Option<NodeKind>)>,
}

/// The kind of node a delivery feeds: what a probe at
/// [`WorkflowSystem::probe_deliveries`] is told.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The façade's client.
    Client,
    /// The script repository.
    Repository,
    /// A coordinator shard, serving or retired.
    Shard,
    /// A task executor.
    Executor,
}

impl WorkflowSystem {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The shard owning `instance` per the shard map.
    fn coord_for(&self, instance: &str) -> &Driver<Coordinator> {
        self.coord_on(self.shard.node_of(instance))
    }

    /// Hands `node` the event [`World::next`] named it for: the one
    /// place a node is fed what the world carries.
    fn deliver(&mut self, node: NodeId, event: NodeEvent) {
        self.hand_over();
        let world = &mut self.world;
        let installed = &mut self.nodes[node.index()];
        let Some(probe) = self.probe else {
            return installed.deliver(world, event);
        };
        probe(Some(installed.kind()));
        installed.deliver(world, event);
        probe(None);
    }

    /// Has `probe` told the kind of node each delivery feeds before it
    /// is fed, and `None` after: how a test's counting allocator
    /// charges what each kind costs. `None` removes it; unset, it costs
    /// each delivery one branch.
    #[doc(hidden)]
    pub fn probe_deliveries(&mut self, probe: Option<fn(Option<NodeKind>)>) {
        self.probe = probe;
    }

    /// The loop: feeds every node the world's events until `answer`
    /// takes what the asked node filed. `None` once the world runs dry
    /// — or, given `patience`, once that much virtual time passes
    /// without one.
    fn await_answer<A>(
        &mut self,
        patience: Option<SimDuration>,
        answer: impl Fn(&mut Self) -> Option<A>,
    ) -> Option<A> {
        let deadline = patience.map(|patience| self.world.now() + patience);
        loop {
            if let Some(answer) = answer(self) {
                return Some(answer);
            }
            let (node, event) = match deadline {
                Some(deadline) => self.world.next_until(deadline),
                None => self.world.next(),
            }?;
            self.deliver(node, event);
        }
    }

    // -----------------------------------------------------------------
    // Scripts and implementations.
    // -----------------------------------------------------------------

    /// Registers (and validates) a script with the repository service:
    /// its new version, which [`WorkflowSystem::start`] runs from now on.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidScript`] with rendered diagnostics.
    pub fn register_script(
        &mut self,
        name: &str,
        source: &str,
        root: &str,
    ) -> Result<u32, EngineError> {
        let msg = EngineMsg::RepoRegister {
            name: name.to_string(),
            source: source.to_string(),
            root: root.to_string(),
        };
        let result = match self.client_call(self.repo, &msg) {
            None => return Err(EngineError::Tx("repository call never completed".into())),
            Some(Err(err)) => Err(err.to_string()),
            Some(Ok(bytes)) => match flowscript_codec::from_bytes::<EngineMsg>(&bytes) {
                Ok(EngineMsg::RepoReply { result, .. }) => result,
                _ => Err("malformed repository reply".to_string()),
            },
        };
        let version = result.map_err(EngineError::InvalidScript)?;
        self.registered.insert(name.to_string(), version);
        Ok(version)
    }

    /// Calls `to` with `msg` from the client node, and runs the world
    /// until the answer comes: `None` if the world runs dry first.
    fn client_call(&mut self, to: NodeId, msg: &EngineMsg) -> Option<Result<Vec<u8>, RpcError>> {
        let client = self.client.index();
        let call = Input::Op((to, flowscript_codec::to_bytes(msg)));
        driver!(&mut self.nodes[client], Client).input(&mut self.world, call);
        self.await_answer(None, |sys| {
            driver!(&mut sys.nodes[client], Client).take_answer()
        })
    }

    /// Binds the code `name` to a closure, from the next delivery on.
    /// The closure is `Send + Sync`, as an executor holding it is: a
    /// count it keeps lives in an atomic or a mutex.
    pub fn bind_fn<F>(&self, name: &str, f: F)
    where
        F: Fn(&InvokeCtx) -> TaskBehavior + Send + Sync + 'static,
    {
        self.rebind(|table| table.insert(name.to_string(), Binding::Program(Arc::new(f))));
    }

    /// Binds the code `name` to a nested workflow script (§4.3), from
    /// the next delivery on.
    pub fn bind_script(&self, name: &str, source: &str, root: &str) {
        let (source, root) = (source.to_string(), root.to_string());
        self.rebind(|table| table.insert(name.to_string(), Binding::Script { source, root }));
    }

    /// Withdraws the code `name`'s binding from the next delivery on:
    /// whether it was bound.
    pub fn unbind(&self, name: &str) -> bool {
        self.rebind(|table| table.remove(name).is_some())
    }

    /// Binds every code as `bindings` does, and no other, from the next
    /// delivery on: how a nested world binds as the executor running it.
    pub(crate) fn bind_all(&self, bindings: Bindings) {
        *self.rebound.borrow_mut() = Some(bindings);
    }

    /// Edits the table not yet handed over — a copy of the one handed
    /// over last, made at the first edit since.
    fn rebind<R>(&self, edit: impl FnOnce(&mut BTreeMap<String, Binding>) -> R) -> R {
        let mut rebound = self.rebound.borrow_mut();
        edit(Arc::make_mut(
            rebound.get_or_insert_with(|| self.bindings.clone()),
        ))
    }

    /// Hands every executor the table bound since the last hand-over,
    /// if any, as an operator's input: what a delivery binds through.
    fn hand_over(&mut self) {
        let Some(bindings) = self.rebound.get_mut().take() else {
            return;
        };
        self.bindings = bindings;
        for node in &self.executors {
            let rebind = Input::Op(self.bindings.clone());
            driver!(&mut self.nodes[node.index()], Executor).input(&mut self.world, rebind);
        }
    }

    /// Direct repository access (admin/monitoring).
    pub fn repository(&self) -> &Repository {
        driver!(&self.nodes[self.repo.index()], Repository).get()
    }

    // -----------------------------------------------------------------
    // Instances.
    // -----------------------------------------------------------------

    /// The `StartInstance` wire message (one builder for every start
    /// entry point, so the shapes cannot drift apart). It names no
    /// epoch: a shard whose map disagrees with the client's relays the
    /// start to the owner its own map names.
    fn start_msg<I, K>(
        &self,
        instance: &str,
        script: &str,
        version: Option<u32>,
        set: &str,
        inputs: I,
    ) -> EngineMsg
    where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        EngineMsg::StartInstance {
            instance: instance.to_string(),
            script: script.to_string(),
            version,
            set: set.to_string(),
            inputs: inputs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Sends a `StartInstance` RPC from the client to `target` and
    /// awaits the acknowledgement.
    fn rpc_start(&mut self, target: NodeId, msg: &EngineMsg) -> Result<(), EngineError> {
        match self.client_call(target, msg) {
            None => Err(EngineError::Tx("start call never completed".into())),
            Some(Err(err)) => Err(EngineError::BadInputs(err.to_string())),
            Some(Ok(bytes)) => match flowscript_codec::from_bytes::<EngineMsg>(&bytes) {
                Ok(EngineMsg::Ack { result }) => result.map_err(EngineError::BadInputs),
                // The owning shard is at admission capacity: typed,
                // retryable rejection — not an input error.
                Ok(EngineMsg::Busy { queue_depth }) => Err(EngineError::Busy { queue_depth }),
                _ => Err(EngineError::BadInputs(
                    "malformed coordinator reply".to_string(),
                )),
            },
        }
    }

    /// Starts an instance of a registered script's latest version —
    /// the one this façade last registered — binding the root's `set`
    /// input set with `inputs`. The request routes to the coordinator
    /// shard owning the instance name. It names the version, so a shard
    /// that fetched it before starts it with no repository round trip;
    /// a name this façade never registered is looked up (and refused)
    /// by the repository.
    ///
    /// # Errors
    ///
    /// Unknown script, duplicate instance, bad inputs, or unreachable
    /// services.
    pub fn start<I, K>(
        &mut self,
        instance: &str,
        script: &str,
        set: &str,
        inputs: I,
    ) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        let version = self.registered.get(script).copied();
        let msg = self.start_msg(instance, script, version, set, inputs);
        let target = self.shard.node_of(instance);
        self.rpc_start(target, &msg)
    }

    /// [`WorkflowSystem::start`], deliberately routed through the
    /// coordinator at shard index `via` — which may not be the owner.
    /// A misdirected request is forwarded to the owning shard
    /// (forwarding tests; real clients route via the shard map).
    ///
    /// # Errors
    ///
    /// As for [`WorkflowSystem::start`].
    pub fn start_via_shard<I, K>(
        &mut self,
        via: usize,
        instance: &str,
        script: &str,
        set: &str,
        inputs: I,
    ) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        let version = self.registered.get(script).copied();
        let msg = self.start_msg(instance, script, version, set, inputs);
        let target = self.coord_nodes[via % self.coord_nodes.len()];
        self.rpc_start(target, &msg)
    }

    // -----------------------------------------------------------------
    // Driving the simulation.
    // -----------------------------------------------------------------

    /// Runs until the event queue drains (all instances settled).
    pub fn run(&mut self) {
        while let Some((node, event)) = self.world.next() {
            self.deliver(node, event);
        }
    }

    /// Runs events up to the given virtual time.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((node, event)) = self.world.next_until(deadline) {
            self.deliver(node, event);
        }
    }

    /// Runs events for the given additional virtual duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.world.now() + duration);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    // -----------------------------------------------------------------
    // Monitoring (the paper's administrative applications).
    // -----------------------------------------------------------------

    /// Instance status (answered by the owning shard).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`].
    pub fn status(&self, instance: &str) -> Result<InstanceStatus, EngineError> {
        self.coord_for(instance).get().status(instance)
    }

    /// The final outcome, if the instance completed.
    pub fn outcome(&self, instance: &str) -> Option<Outcome> {
        match self.status(instance) {
            Ok(InstanceStatus::Completed(outcome)) => Some(outcome),
            _ => None,
        }
    }

    /// Every task's state, keyed by path.
    pub fn task_states(&self, instance: &str) -> BTreeMap<String, CbState> {
        self.coord_for(instance).get().task_states(instance)
    }

    /// A published output fact (e.g. a root-level mark like `toPay`).
    pub fn output_fact(
        &self,
        instance: &str,
        path: &str,
        output: &str,
    ) -> Option<BTreeMap<String, ObjectVal>> {
        let shard = self.coord_for(instance).get();
        shard.output_fact(instance, path, output)
    }

    /// Every shard: the active ones plus retired ones (drained or
    /// failed-over nodes kept as relays), in the order they were
    /// installed. Aggregations walk all of them so a shard's history
    /// survives its retirement.
    fn all_coords(&self) -> impl Iterator<Item = &Driver<Coordinator>> {
        self.nodes.iter().filter_map(|node| match node {
            Installed::Coordinator(driver) => Some(&**driver),
            _ => None,
        })
    }

    /// Engine counters, aggregated over every coordinator shard —
    /// including retired shards, whose counters record the work they
    /// did before draining out.
    pub fn stats(&self) -> CoordStats {
        let mut total = CoordStats::default();
        for coord in self.all_coords() {
            total += &coord.get().stats();
        }
        total
    }

    /// Engine counters of one coordinator shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_stats(&self, shard: usize) -> CoordStats {
        self.coord_handle(shard).get().stats()
    }

    /// Ordered dispatch decisions, concatenated shard by shard (within
    /// one shard — and hence within one instance — records keep their
    /// order of occurrence; the equivalence tests compare per-instance
    /// subsequences across shard counts). A projection of the flight
    /// recorders: empty below [`ObserveLevel::Trace`].
    pub fn dispatch_trace(&self) -> Vec<DispatchRecord> {
        self.all_coords()
            .flat_map(|coord| coord.get().recorder().events())
            .filter_map(DispatchRecord::from_event)
            .collect()
    }

    /// One instance's dispatch decisions on its owning shard, in order
    /// of occurrence.
    pub fn dispatch_trace_of(&self, instance: &str) -> Vec<DispatchRecord> {
        let shard = self.coord_for(instance).get();
        let events = shard.recorder().events_for(instance).into_iter();
        events.filter_map(DispatchRecord::from_event).collect()
    }

    /// Total coordinator log size in bytes (all shards).
    pub fn log_size(&self) -> u64 {
        let coords = self.coord_nodes.iter().map(|&node| self.coord_on(node));
        coords.map(|coord| coord.get().log_size()).sum()
    }

    /// Corrupts one fact of `path` in place — the output, else the
    /// input set, called `name` (fault injection for the corrupt-record
    /// tests).
    #[doc(hidden)]
    pub fn poison_fact(&mut self, instance: &str, path: &str, name: &str) -> bool {
        let shard = self.coord_handle_mut(self.shard_of(instance)).get_mut();
        shard.poison_fact(instance, path, name)
    }

    /// Sends a forged mark report (under ticket 0) for `instance` *via* shard `via`
    /// (possibly not the owner) — test hook for the cross-shard
    /// forwarding path of one-way messages.
    ///
    /// # Panics
    ///
    /// Panics if `via` is out of range.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn send_mark_via_shard<I, K>(
        &mut self,
        via: usize,
        instance: &str,
        path: &str,
        incarnation: u32,
        attempt: u32,
        mark: &str,
        objects: I,
    ) where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        let at = crate::msg::Attempt {
            instance: instance.into(),
            path: path.into(),
            incarnation,
            attempt,
        };
        let result = crate::msg::TaskResult::Mark {
            name: mark.to_string(),
            objects: Objects::of(&objects.into_iter().map(|(k, v)| (k.into(), v)).collect()),
        };
        let report = crate::msg::TaskReport {
            at,
            ticket: 0,
            result,
        };
        let msg = flowscript_codec::to_bytes(&EngineMsg::Report(report));
        let target = self.coord_nodes[via];
        self.world.send(self.client, target, msg);
    }

    /// One shard's current view of the executor fleet: per-executor
    /// location label and in-flight dispatch count. Load views are per
    /// shard (each coordinator schedules over the shared fleet with
    /// its own counters).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn executor_loads(&self, shard: usize) -> Vec<crate::sched::ExecutorSlot> {
        self.coord_handle(shard).get().executor_loads()
    }

    /// The simulation trace (network/scheduler events of the simulated
    /// world — for the engine-level lifecycle trace of one instance see
    /// [`WorkflowSystem::trace`]).
    pub fn sim_trace(&self) -> &flowscript_sim::Trace {
        self.world.trace()
    }

    /// One instance's full lifecycle from the flight recorders: every
    /// shard's events for `instance` (the owner's, plus any relay's
    /// `forward` events), merged in virtual-time order. Empty unless
    /// the system runs with [`ObserveLevel::Trace`].
    ///
    /// The recorders survive coordinator crash-recovery (they model an
    /// external telemetry sink), so the trace spans crashes: the
    /// pre-crash events stay, a `recovery` event marks the reload, and
    /// post-recovery re-dispatches follow.
    pub fn trace(&self, instance: &str) -> Vec<ObsEvent> {
        let mut events: Vec<ObsEvent> = self
            .all_coords()
            .flat_map(|coord| coord.get().recorder().events_for(instance))
            .collect();
        events.sort_by_key(|event| (event.at_ns, event.shard, event.seq));
        events
    }

    /// A point-in-time metrics snapshot, merged over every shard's
    /// (retired ones included): counters and gauges sum, histograms
    /// merge bucket-wise. Exportable as JSON ([`Snapshot::to_json`]) or
    /// CSV ([`Snapshot::to_csv`]); one shard's is
    /// `coord_handle(shard).get().snapshot()`.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for coord in self.all_coords() {
            merged.merge(&coord.get().snapshot());
        }
        merged
    }

    /// Administrative fact repair on the owning shard: re-publishes
    /// `output` of `path` with `objects` (replacing corrupt bytes),
    /// force-completing the task if `output` is a terminal outcome it
    /// never reached, and revives the instance from
    /// `Stuck{fact storage fault}`.
    ///
    /// # Errors
    ///
    /// Unknown instance/task, an undeclared output name, or a failed
    /// commit.
    pub fn repair_fact<I, K>(
        &mut self,
        instance: &str,
        path: &str,
        output: &str,
        objects: I,
    ) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        let op = Op::Repair {
            instance: instance.to_string(),
            path: path.to_string(),
            output: output.to_string(),
            objects: objects.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        self.ask(self.shard.node_of(instance), op).map(drop)
    }

    // -----------------------------------------------------------------
    // Dynamic reconfiguration.
    // -----------------------------------------------------------------

    /// Applies a reconfiguration to a running instance atomically (on
    /// the owning shard).
    ///
    /// # Errors
    ///
    /// Validation failures leave the instance untouched.
    pub fn reconfigure(&mut self, instance: &str, op: Reconfig) -> Result<(), EngineError> {
        let name = instance.to_string();
        let op = Op::Reconfigure { instance: name, op };
        self.ask(self.shard.node_of(instance), op).map(drop)
    }

    /// Aborts a *waiting* task with one of its declared abort outcomes
    /// (the paper's user-forced abort from the wait state, Fig. 3).
    ///
    /// # Errors
    ///
    /// Unknown instance/task, non-waiting task, or undeclared outcome.
    pub fn abort_waiting_task(
        &mut self,
        instance: &str,
        path: &str,
        outcome: &str,
    ) -> Result<(), EngineError> {
        let op = Op::Abort {
            instance: instance.to_string(),
            path: path.to_string(),
            outcome: outcome.to_string(),
        };
        self.ask(self.shard.node_of(instance), op).map(drop)
    }

    /// Starts an instance of a *specific version* of a repository script.
    ///
    /// # Errors
    ///
    /// As for [`WorkflowSystem::start`], plus unknown versions.
    pub fn start_version<I, K>(
        &mut self,
        instance: &str,
        script: &str,
        version: u32,
        set: &str,
        inputs: I,
    ) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = (K, ObjectVal)>,
        K: Into<String>,
    {
        let msg = self.start_msg(instance, script, Some(version), set, inputs);
        let target = self.shard.node_of(instance);
        self.rpc_start(target, &msg)
    }

    // -----------------------------------------------------------------
    // Fault injection and sharding topology.
    // -----------------------------------------------------------------

    /// The first coordinator node's id (shard 0; the whole service for
    /// single-coordinator systems).
    pub fn coordinator_node(&self) -> NodeId {
        self.coord_nodes[0]
    }

    /// Every coordinator node, in shard order.
    pub fn coordinator_nodes(&self) -> &[NodeId] {
        &self.coord_nodes
    }

    /// The coordinator node owning `instance`.
    pub fn coordinator_node_for(&self, instance: &str) -> NodeId {
        self.shard.node_of(instance)
    }

    /// The shard index owning `instance`: its coordinator's position
    /// among [`Self::coordinator_nodes`], whatever order the map lists
    /// the nodes in.
    pub fn shard_of(&self, instance: &str) -> usize {
        let owner = self.shard.node_of(instance);
        let shard = self.coord_nodes.iter().position(|&node| node == owner);
        shard.expect("the map names only coordinators")
    }

    /// Number of coordinator shards.
    pub fn shard_count(&self) -> usize {
        self.coord_nodes.len()
    }

    /// The instance → coordinator assignment.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard
    }

    /// Executor node ids.
    pub fn executor_nodes(&self) -> &[NodeId] {
        &self.executors
    }

    /// Adds a fresh coordinator node named `name` to the execution
    /// service **live**: the node is created with its own stable
    /// storage, installed with the epoch-bumped shard map, and every
    /// instance the new map assigns to it is moved in by
    /// [`WorkflowSystem::rebalance`] — running instances included.
    ///
    /// Resumable: if the moves fail midway (a source or the new node
    /// crashed), the node stays installed outside the map, and calling
    /// this again with the same name resumes the same join — same node,
    /// same storage, same successor map.
    ///
    /// # Errors
    ///
    /// `name` is already a member, storage failures opening the new
    /// shard, or a move that did not complete.
    pub fn add_coordinator(&mut self, name: &str) -> Result<MoveReport, EngineError> {
        let mut new_map = self.shard.clone();
        if let Ok((_, node)) = self.coord_by_name(name) {
            if self.shard.nodes().contains(&node) {
                return Err(EngineError::Tx(format!(
                    "coordinator `{name}` is already a member"
                )));
            }
            new_map.add_node(node);
            return self.rebalance(new_map);
        }
        let storage = fresh_storage(self.wal_dir.as_deref(), self.coord_nodes.len())?;
        let node = self.world.add_node(name);
        new_map.add_node(node);
        // The new shard starts life on the bumped epoch; the surviving
        // shards keep the old map until the moves commit (dual-delivery
        // window), then flip in `rebalance`.
        let coordinator = Coordinator::open(
            node,
            self.repo,
            self.executor_specs.clone(),
            self.config.clone(),
            storage.clone(),
            new_map.clone(),
        )?;
        let coord = Driver::new(coordinator);
        self.nodes.push(Installed::Coordinator(Box::new(coord)));
        self.coord_nodes.push(node);
        self.storages.push(storage);
        self.rebalance(new_map)
    }

    /// Moves the system to `new_map` live: every shard in turn hands
    /// off the residents the map assigns elsewhere, one instance per
    /// round — a claim sent from the source's move record (see the
    /// coordinator's membership protocol: the shards run it themselves,
    /// over messages, while everything else keeps executing); only
    /// after every round lands does each coordinator (and the client
    /// router) flip to the new map. During the window, executor replies
    /// for moved instances keep landing on the old owner and are
    /// relayed — no report is lost or applied twice.
    ///
    /// # Errors
    ///
    /// A map naming a node that runs no coordinator, or whose epoch is
    /// not newer than the system's (both checked before anything
    /// moves); a source that is down or stops answering; a round whose
    /// destination refuses it — its instances thaw where they were — or
    /// does not answer — they stay frozen, decided, until a re-run, a
    /// restart or a flip settles them. Rounds that landed before the
    /// failure stay landed (their old owners relay); running the call
    /// again moves the rest.
    pub fn rebalance(&mut self, new_map: ShardMap) -> Result<MoveReport, EngineError> {
        if let Some(stranger) = new_map
            .nodes()
            .iter()
            .find(|node| !self.coord_nodes.contains(node))
        {
            return Err(EngineError::Tx(format!(
                "shard map names {stranger}, which runs no coordinator"
            )));
        }
        if new_map.epoch() <= self.shard.epoch() {
            return Err(EngineError::Tx(format!(
                "shard map epoch {} is not newer than the system's {}",
                new_map.epoch(),
                self.shard.epoch()
            )));
        }
        let report = self.hand_off(&new_map, 0..self.coord_nodes.len(), None)?;
        // The flip: everyone adopts the new map at its bumped epoch.
        for shard in 0..self.coord_nodes.len() {
            self.set_shard_map_of(shard, new_map.clone());
        }
        self.shard = new_map;
        Ok(report)
    }

    /// Installs `map` on shard `shard`: the flip, one shard's worth
    /// (a test calls it alone for the disagreeing maps a buggy flip
    /// would leave behind).
    #[doc(hidden)]
    pub fn set_shard_map_of(&mut self, shard: usize, map: ShardMap) {
        let _ = self.ask(self.coord_nodes[shard], Op::Map(map));
    }

    /// Hands each of the `sources` shards, in turn, the request to move
    /// out what `new_map` takes from it — a `drain` of the one named —
    /// and collects the reports.
    fn hand_off(
        &mut self,
        new_map: &ShardMap,
        sources: impl Iterator<Item = usize>,
        drain: Option<&str>,
    ) -> Result<MoveReport, EngineError> {
        let mut total = MoveReport::default();
        for idx in sources {
            let node = self.coord_nodes[idx];
            if !self.world.is_up(node) {
                // A request handed to a crashed process reaches nobody.
                return Err(EngineError::Tx(format!("coordinator {node} is down")));
            }
            let (to, drain) = (new_map.clone(), drain.map(str::to_string));
            let Report::Moved(report) = self.ask(node, Op::Move { to, drain })? else {
                unreachable!("a move is answered with its report");
            };
            total.absorb(report);
        }
        Ok(total)
    }

    /// Hands the shard on `node` the operator's `op`, and runs the world
    /// until the shard answers what it came to, giving up — and telling
    /// the shard so — once [`FLEET_DEADLINE`] of virtual time passes
    /// without an answer, a landed round or an answered claim included.
    fn ask(&mut self, node: NodeId, op: Op) -> Result<Report, EngineError> {
        let shard = node.index();
        driver!(&mut self.nodes[shard], Coordinator).input(&mut self.world, Input::Op(op));
        let answer = |sys: &mut Self| driver!(&mut sys.nodes[shard], Coordinator).take_answer();
        while let Some(answer) = self.await_answer(Some(FLEET_DEADLINE), answer) {
            if !matches!(answer, Ok(Report::Progress)) {
                return answer;
            }
        }
        self.ask(node, Op::GiveUp)?;
        Err(EngineError::Tx(format!(
            "coordinator {node} reported no progress for {} ms",
            FLEET_DEADLINE.as_millis()
        )))
    }

    /// Resolves a coordinator by node name to `(index, node)`.
    fn coord_by_name(&self, name: &str) -> Result<(usize, NodeId), EngineError> {
        self.coord_nodes
            .iter()
            .position(|&n| self.world.node_name(n) == name)
            .map(|idx| (idx, self.coord_nodes[idx]))
            .ok_or_else(|| EngineError::Tx(format!("no coordinator named `{name}`")))
    }

    /// [`Self::coord_by_name`] plus the map without that coordinator —
    /// the pre-flight drains and failovers share.
    fn departure(&self, name: &str, what: &str) -> Result<(usize, ShardMap), EngineError> {
        let (idx, node) = self.coord_by_name(name)?;
        if self.coord_nodes.len() == 1 {
            return Err(EngineError::Tx(format!(
                "cannot {what} the last coordinator"
            )));
        }
        let mut new_map = self.shard.clone();
        new_map.remove_node(node);
        Ok((idx, new_map))
    }

    /// Retires shard `idx` from the fleet: every shard (and the client
    /// router) flips to `new_map`, which omits the retired coordinator,
    /// so it stays installed as a pure relay on that map — its relay
    /// table re-pointed off departed nodes — and late executor reports
    /// for its former instances forward straight to the adopter.
    fn retire_coordinator(&mut self, idx: usize, new_map: ShardMap) {
        for shard in 0..self.coord_nodes.len() {
            self.set_shard_map_of(shard, new_map.clone());
        }
        self.shard = new_map;
        self.storages.remove(idx);
        self.coord_nodes.remove(idx);
    }

    /// Drains and removes coordinator `name` from the execution
    /// service **live**: the departing shard's entire resident
    /// population moves to the surviving shards *before* the node
    /// leaves the map — [`WorkflowSystem::rebalance`] in reverse, with
    /// rounds of up to 64 instances (one move record, one claim landed
    /// under a contiguous destination id range in one frame, one frame
    /// purging the slice). The drained node is then retired: it
    /// stays installed as a relay for late executor reports but owns
    /// nothing and serves nothing.
    ///
    /// # Errors
    ///
    /// Unknown name, draining the last shard, or a move that did not
    /// complete (as for [`WorkflowSystem::rebalance`]: what moved stays
    /// moved, the shard is not retired, and a re-run drains the rest).
    pub fn remove_coordinator(&mut self, name: &str) -> Result<MoveReport, EngineError> {
        let (idx, new_map) = self.departure(name, "drain")?;
        let report = self.hand_off(&new_map, std::iter::once(idx), Some(name))?;
        self.retire_coordinator(idx, new_map);
        Ok(report)
    }

    /// Adopts a dead shard's instances **without waiting for the node
    /// to come back**: the failover half of the elastic fleet. The
    /// operator mounts the dead shard's surviving storage on the first
    /// survivor that is up; that claimant durably fences the log
    /// (epoch-stamped claim — a zombie waking mid-adoption fails its
    /// next append instead of double-driving instances), reads every
    /// committed instance out of it and sends each to its new owner per
    /// the epoch-bumped map as a claim, where it is re-keyed, committed
    /// and adopted through the same path a live move lands on. The map
    /// flips only once every claim is answered, so a round some
    /// survivor had bound for the dead shard, re-addressed at the flip,
    /// finds the dead shard's newer copy already landed. Idempotent end
    /// to end: after a claimant that died mid-claim, or a destination
    /// that could not be reached, just run it again — already-claimed
    /// instances are skipped.
    ///
    /// Deliberately does NOT require the node to be down: adopting a
    /// *live* shard is the false-positive failure-detection scenario,
    /// and the fence is what keeps it safe.
    ///
    /// # Errors
    ///
    /// Unknown name, adopting the last shard, no survivor up to claim
    /// (nothing is fenced then), a foreign fence (another claimant got
    /// there first), storage failures, or a survivor that never
    /// acknowledged its share.
    pub fn adopt_dead_shard(&mut self, name: &str) -> Result<FailoverReport, EngineError> {
        let (idx, new_map) = self.departure(name, "fail over")?;
        let dead = self.coord_nodes[idx];
        let claimant = (self.coord_nodes.iter().copied())
            .find(|&node| node != dead && self.world.is_up(node))
            .ok_or_else(|| {
                EngineError::Tx(format!("no surviving coordinator is up to claim `{name}`"))
            })?;
        let op = Op::Adopt(self.storages[idx].clone(), dead, new_map.clone());
        let Report::Adopted(report) = self.ask(claimant, op)? else {
            unreachable!("an adoption is answered with its report");
        };
        self.retire_coordinator(idx, new_map);
        Ok(report)
    }

    /// Direct handle on one coordinator shard — test hook for reading
    /// one shard's residency, recorder, counters and timers.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[doc(hidden)]
    pub fn coord_handle(&self, shard: usize) -> &Driver<Coordinator> {
        self.coord_on(self.coord_nodes[shard])
    }

    /// [`Self::coord_handle`] of the coordinator on `node`, retired or
    /// not (panics if `node` runs none).
    #[doc(hidden)]
    pub fn coord_on(&self, node: NodeId) -> &Driver<Coordinator> {
        driver!(&self.nodes[node.index()], Coordinator)
    }

    /// [`Self::coord_handle`], for a test that edits the shard by hand.
    #[doc(hidden)]
    pub fn coord_handle_mut(&mut self, shard: usize) -> &mut Driver<Coordinator> {
        driver!(
            &mut self.nodes[self.coord_nodes[shard].index()],
            Coordinator
        )
    }

    /// The shards serving right now: node up, storage not claimed by
    /// another node (what a test may hold to its volatile invariants).
    /// A fence found in a shard's log tail is noted there, so a zombie's
    /// log is walked once however often this asks.
    #[doc(hidden)]
    pub fn serving_shards(&mut self) -> Vec<usize> {
        let up = |shard: &usize| self.world.is_up(self.coord_nodes[*shard]);
        let up: Vec<usize> = (0..self.coord_nodes.len()).filter(up).collect();
        let unfenced = |shard: &usize| !self.coord_handle_mut(*shard).get_mut().is_fenced();
        up.into_iter().filter(unfenced).collect()
    }

    /// The attempts each executor that is up holds running, by node:
    /// none once the world is quiescent — a finished attempt leaves the
    /// index, and so does a cancelled one.
    #[doc(hidden)]
    pub fn running_attempts(&self) -> Vec<(NodeId, usize)> {
        let up = self
            .executors
            .iter()
            .filter(|&&node| self.world.is_up(node));
        up.map(|&node| {
            (
                node,
                driver!(&self.nodes[node.index()], Executor).get().running(),
            )
        })
        .collect()
    }

    /// Whether the world has no event left to run.
    #[doc(hidden)]
    pub fn is_quiescent(&self) -> bool {
        self.world.pending_events() == 0
    }

    /// Schedules a fault plan.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        plan.apply(&mut self.world);
    }

    /// Crashes a node immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        self.world.crash(node);
    }

    /// Restarts a node immediately (a coordinator runs shard recovery).
    pub fn restart_now(&mut self, node: NodeId) {
        if self.world.restart(node) {
            self.deliver(node, NodeEvent::Restart);
        }
    }

    /// Direct world access for advanced scenarios (a node it restarts
    /// does not recover: [`Self::restart_now`] hands it the restart).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Shard 0's stable storage (the whole system's for
    /// single-coordinator builds; survives restarts).
    pub fn storage(&self) -> StableStore {
        self.storages[0].clone()
    }

    /// Every shard's stable storage, in shard order (rebuild a sharded
    /// system over its surviving disks via
    /// [`SystemBuilder::shard_storages`]).
    pub fn shard_storages(&self) -> Vec<StableStore> {
        self.storages.clone()
    }
}

impl std::fmt::Debug for WorkflowSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowSystem")
            .field("now", &self.world.now())
            .field("coordinators", &self.coord_nodes.len())
            .field("executors", &self.executors.len())
            .finish()
    }
}

#[cfg(test)]
impl WorkflowSystem {
    /// Every coordinator, in the order they were installed (shard order
    /// until a shard retires), to edit several by hand at once.
    pub(crate) fn shards_mut(&mut self) -> Vec<&mut Coordinator> {
        let coordinators = self.nodes.iter_mut().filter_map(|node| match node {
            Installed::Coordinator(driver) => Some(driver.get_mut()),
            _ => None,
        });
        coordinators.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::samples;

    fn text(class: &str, value: &str) -> ObjectVal {
        ObjectVal::text(class, value)
    }

    #[test]
    fn observe_overrides_the_config_in_either_call_order() {
        let metrics = || EngineConfig {
            observe: ObserveLevel::Metrics,
            ..EngineConfig::default()
        };
        let builder = WorkflowSystem::builder;
        let before = builder().observe(ObserveLevel::Trace).config(metrics());
        let after = builder().config(metrics()).observe(ObserveLevel::Trace);
        assert_eq!(before.build().config.observe, ObserveLevel::Trace);
        assert_eq!(after.build().config.observe, ObserveLevel::Trace);
        let untouched = builder().config(metrics()).build();
        assert_eq!(untouched.config.observe, ObserveLevel::Metrics);
    }

    #[test]
    fn quickstart_pipeline_completes() {
        let mut sys = WorkflowSystem::builder().executors(2).seed(1).build();
        sys.register_script("q", samples::QUICKSTART, "pipeline")
            .unwrap();
        sys.bind_fn("refProduce", |ctx| {
            TaskBehavior::outcome("produced").with_object(
                "message",
                ObjectVal::text("Message", format!("{}-made", ctx.input_text("seed"))),
            )
        });
        sys.bind_fn("refConsume", |ctx| {
            TaskBehavior::outcome("consumed").with_object(
                "result",
                ObjectVal::text("Message", ctx.input_text("message")),
            )
        });
        sys.start("i1", "q", "main", [("seed", text("Message", "s"))])
            .unwrap();
        sys.run();
        let outcome = sys.outcome("i1").expect("completed");
        assert_eq!(outcome.name, "done");
        assert_eq!(outcome.objects["result"].as_text(), "s-made");
        let states = sys.task_states("i1");
        assert!(matches!(states["pipeline/produce"], CbState::Done { .. }));
    }

    /// A bind, a rebind and an unbind after build are edits of the
    /// façade's table, handed to every executor before the next
    /// delivery: each instance binds through the table as it stood when
    /// it started.
    #[test]
    fn a_rebind_reaches_every_executor_before_the_next_delivery() {
        let mut sys = WorkflowSystem::builder().executors(3).seed(1).build();
        sys.register_script("q", samples::QUICKSTART, "pipeline")
            .unwrap();
        let produce = |made: &'static str| {
            move |_: &InvokeCtx| {
                TaskBehavior::outcome("produced")
                    .with_object("message", ObjectVal::text("Message", made))
            }
        };
        sys.bind_fn("refProduce", produce("v1"));
        sys.bind_fn("refConsume", |ctx| {
            TaskBehavior::outcome("consumed").with_object(
                "result",
                ObjectVal::text("Message", ctx.input_text("message")),
            )
        });
        let result = |sys: &mut WorkflowSystem, name: &str| {
            sys.start(name, "q", "main", [("seed", text("Message", "s"))])
                .unwrap();
            sys.run();
            assert!(sys.rebound.get_mut().is_none(), "handed over");
            sys.outcome(name)
                .map(|outcome| outcome.objects["result"].as_text())
        };
        assert_eq!(result(&mut sys, "i1").as_deref(), Some("v1"));
        sys.bind_fn("refProduce", produce("v2"));
        assert!(sys.rebound.borrow().is_some(), "held until a delivery");
        assert_eq!(result(&mut sys, "i2").as_deref(), Some("v2"));
        assert!(sys.unbind("refProduce"));
        assert!(!sys.unbind("refProduce"), "bound no more");
        assert_eq!(result(&mut sys, "i3"), None);
        match sys.status("i3").unwrap() {
            InstanceStatus::Stuck { reason } => {
                assert!(
                    reason.contains("no implementation bound for `refProduce`"),
                    "{reason}"
                );
            }
            other => panic!("expected stuck, got {other:?}"),
        }
    }

    #[test]
    fn quickstart_completes_on_every_shard_count() {
        for coordinators in [1usize, 2, 4, 8] {
            let mut sys = WorkflowSystem::builder()
                .executors(2)
                .coordinators(coordinators)
                .seed(1)
                .build();
            assert_eq!(sys.shard_count(), coordinators);
            assert_eq!(sys.coordinator_nodes().len(), coordinators);
            sys.register_script("q", samples::QUICKSTART, "pipeline")
                .unwrap();
            sys.bind_fn("refProduce", |_| {
                TaskBehavior::outcome("produced")
                    .with_object("message", ObjectVal::text("Message", "m"))
            });
            sys.bind_fn("refConsume", |_| {
                TaskBehavior::outcome("consumed")
                    .with_object("result", ObjectVal::text("Message", "r"))
            });
            for i in 0..6 {
                let name = format!("i{i}");
                sys.start(&name, "q", "main", [("seed", text("Message", "s"))])
                    .unwrap();
                assert!(sys.shard_of(&name) < coordinators);
            }
            sys.run();
            for i in 0..6 {
                assert_eq!(
                    sys.outcome(&format!("i{i}")).expect("completed").name,
                    "done"
                );
            }
        }
    }

    #[test]
    fn unknown_script_rejected() {
        let mut sys = WorkflowSystem::builder().seed(2).build();
        let err = sys
            .start("i1", "ghost", "main", Vec::<(String, ObjectVal)>::new())
            .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut sys = WorkflowSystem::builder().seed(3).build();
        sys.register_script("q", samples::QUICKSTART, "pipeline")
            .unwrap();
        sys.bind_fn("refProduce", |_| TaskBehavior::outcome("produced"));
        sys.bind_fn("refConsume", |_| TaskBehavior::outcome("consumed"));
        sys.start("i1", "q", "main", [("seed", text("Message", "x"))])
            .unwrap();
        let err = sys
            .start("i1", "q", "main", [("seed", text("Message", "x"))])
            .unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut sys = WorkflowSystem::builder().seed(4).build();
        sys.register_script("q", samples::QUICKSTART, "pipeline")
            .unwrap();
        // Missing object.
        let err = sys
            .start("i1", "q", "main", Vec::<(String, ObjectVal)>::new())
            .unwrap_err();
        assert!(err.to_string().contains("missing input object"), "{err}");
        // Wrong class.
        let err = sys
            .start("i2", "q", "main", [("seed", text("Wrong", "x"))])
            .unwrap_err();
        assert!(err.to_string().contains("expected `Message`"), "{err}");
        // Unknown set.
        let err = sys
            .start("i3", "q", "alt", [("seed", text("Message", "x"))])
            .unwrap_err();
        assert!(err.to_string().contains("no input set"), "{err}");
    }

    #[test]
    fn invalid_script_rejected_by_repository() {
        let mut sys = WorkflowSystem::builder().seed(5).build();
        let err = sys.register_script("bad", "task broken", "x").unwrap_err();
        assert!(matches!(err, EngineError::InvalidScript(_)));
    }

    #[test]
    fn unbound_implementation_leads_to_stuck() {
        let mut sys = WorkflowSystem::builder().seed(6).build();
        sys.register_script("q", samples::QUICKSTART, "pipeline")
            .unwrap();
        // Bind only the producer; the consumer has no implementation.
        sys.bind_fn("refProduce", |_| {
            TaskBehavior::outcome("produced")
                .with_object("message", ObjectVal::text("Message", "m"))
        });
        sys.start("i1", "q", "main", [("seed", text("Message", "x"))])
            .unwrap();
        sys.run();
        match sys.status("i1").unwrap() {
            InstanceStatus::Stuck { reason } => {
                assert!(reason.contains("consume"), "{reason}");
            }
            other => panic!("expected stuck, got {other:?}"),
        }
        assert!(sys.stats().failures >= 1);
        assert!(sys.stats().retries >= 1);
    }
}
