//! The fleet coordinator: every cross-node event of a fabric run, once,
//! for both backends.
//!
//! A fabric run interleaves per-request deliveries with events that touch
//! more than one node: scheduled live migrations ([`MigrationSpec`]),
//! injected node crashes ([`crate::FaultKind::Crash`]) and fleet-controller
//! ticks. [`FleetCoordinator`] decides when each fires and what it does to
//! the routing state (assignments, migration pins, the shard topology, the
//! controller and its standby pool). What an event does *to a node* goes
//! through a [`FleetPort`]: the simulator implements it as direct engine
//! calls, the threaded backend ([`crate::exec`]) as control entries on the
//! node's ingest queue plus reply channels. Both backends run this one
//! state machine over the same logical timestamps, so their replay parity
//! holds by construction.
//!
//! The ordering contract:
//!
//! * triggers (crashes and scheduled migrations) fire in (time,
//!   crashes-first, schedule order);
//! * controller ticks fire at k·interval, and a trigger at a tick instant
//!   fires first;
//! * everything due at or before an arrival fires before that arrival is
//!   delivered ([`FleetCoordinator::advance`]);
//! * triggers past the last arrival fire at the stream's final timestamp
//!   ([`FleetCoordinator::finish`]); ticks past it never fire.

use crate::controller::{
    spec_of, ControlAction, ControlRecord, ControlSample, ControllerConfig, ControllerView,
    FleetController,
};
use crate::fabric::{route, HandoffPackage, MigrationPhase, MigrationRecord, MigrationSpec};
use crate::fault::{plan_evacuation, FailoverPackage, FaultPlan};
use crate::request::{Request, ShedReason, TenantId};
use crate::shard::{NodeId, ShardNode, ShardRouter, TrafficLedger};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The node-side operations a backend offers the coordinator. Each one
/// addresses a single node at the logical instant of the fleet event.
/// The simulator's operations always succeed; the threaded backend's
/// report a node whose worker already died (`None`, `false` or `Err`),
/// and the coordinator then leaves that step undone.
pub(crate) trait FleetPort {
    /// Hand one arrival to `node`. Returns the admission-time shed
    /// reason when the backend learns it synchronously (the simulator);
    /// the threaded backend queues the request and returns `None`.
    fn deliver(&mut self, node: NodeId, request: &Request) -> Option<ShedReason>;

    /// Migration source side: bring `from` to `at_us`, splice `tenant`'s
    /// queued work and seal the handoff. `Err` carries the phase the
    /// migration stops at.
    fn drain(
        &mut self,
        from: NodeId,
        tenant: TenantId,
        to: NodeId,
        at_us: u64,
    ) -> Result<HandoffPackage, MigrationPhase>;

    /// Migration destination side: attach the account and re-enqueue its
    /// spliced work. Returns how many not-yet-ingested arrivals followed
    /// the account (the threaded backend's wall-mode queue splice), or
    /// `None` when `to` is gone.
    fn adopt(&mut self, to: NodeId, tenant: TenantId, package: HandoffPackage) -> Option<usize>;

    /// Crash `node` at `at_us`: resolve its pending work as refunded
    /// failover sheds and export its accounts, plus the orphaned
    /// in-flight requests of tenants that had already migrated away.
    /// `None` when the node is already gone.
    fn crash(&mut self, node: NodeId, at_us: u64) -> Option<(Vec<FailoverPackage>, Vec<Request>)>;

    /// Rebuild an evacuated account on survivor `to`; `false` when `to`
    /// is gone.
    fn absorb(&mut self, to: NodeId, package: FailoverPackage) -> bool;

    /// Return one prepaid query of `tenant` on its home `node` (an
    /// orphan of a crash).
    fn refund(&mut self, node: NodeId, tenant: TenantId, at_us: u64);

    /// Bring `node` to `at_us` and sample-and-reset its control tap;
    /// `None` when the node did not answer.
    fn sample(&mut self, node: NodeId, at_us: u64) -> Option<ControlSample>;

    /// Floor `node`'s brownout ladder at `level` (0 lifts the floor).
    fn set_brownout_floor(&mut self, node: NodeId, level: usize, at_us: u64);
}

/// A scheduled cross-node event: an injected crash or a migration.
enum FleetTrigger {
    /// Injected [`crate::FaultKind::Crash`] of a node.
    Crash(NodeId),
    /// A scheduled [`MigrationSpec`].
    Migrate(MigrationSpec),
}

/// The fabric's routing state a run mutates, borrowed for the run.
pub(crate) struct FleetState<'f> {
    pub(crate) shard_router: &'f mut ShardRouter,
    /// tenant → (home node, model family).
    pub(crate) assignments: &'f mut BTreeMap<TenantId, (NodeId, String)>,
    pub(crate) traffic: &'f mut TrafficLedger,
    /// The standby pool: lent to the controller for the run and written
    /// back by [`FleetCoordinator::into_parts`].
    pub(crate) standby: &'f mut Vec<ShardNode>,
}

/// Drives every fleet-level event of one run (see the module docs).
pub(crate) struct FleetCoordinator<'f> {
    state: FleetState<'f>,
    controller: FleetController,
    /// Pending triggers, in firing order.
    triggers: VecDeque<(u64, FleetTrigger)>,
    /// Next controller tick; `None` when the controller is disabled.
    next_tick: Option<u64>,
    tick_interval: u64,
    /// Nodes crashed so far this run.
    dead: BTreeSet<NodeId>,
    records: Vec<MigrationRecord>,
    load_factor: f64,
    max_total_pending: usize,
}

impl<'f> FleetCoordinator<'f> {
    /// A coordinator over `state` that will fire `plan`'s crashes and
    /// `specs`' migrations, and tick a controller built from
    /// `controller` (its standby pool taken from `state`).
    pub(crate) fn new(
        state: FleetState<'f>,
        controller: &ControllerConfig,
        plan: &FaultPlan,
        specs: &[MigrationSpec],
        load_factor: f64,
        max_total_pending: usize,
    ) -> Self {
        let mut keyed: Vec<(u64, u8, usize, FleetTrigger)> = Vec::new();
        for (i, (node, at_us)) in plan.crashes().enumerate() {
            keyed.push((at_us, 0, i, FleetTrigger::Crash(node)));
        }
        for (i, spec) in specs.iter().enumerate() {
            keyed.push((spec.trigger_us, 1, i, FleetTrigger::Migrate(spec.clone())));
        }
        keyed.sort_by_key(|(at, rank, idx, _)| (*at, *rank, *idx));
        let controller = FleetController::new(controller.clone(), std::mem::take(state.standby));
        let tick_interval = controller.config().interval_us.max(1);
        FleetCoordinator {
            next_tick: controller.config().enabled.then_some(tick_interval),
            tick_interval,
            controller,
            state,
            triggers: keyed.into_iter().map(|(at, _, _, t)| (at, t)).collect(),
            dead: BTreeSet::new(),
            records: Vec::with_capacity(specs.len()),
            load_factor,
            max_total_pending,
        }
    }

    /// Fire every trigger and controller tick due at or before
    /// `until_us`, in contract order.
    pub(crate) fn advance<P: FleetPort>(&mut self, port: &mut P, until_us: u64) {
        loop {
            let trigger_at = self
                .triggers
                .front()
                .map(|(at, _)| *at)
                .filter(|at| *at <= until_us);
            let tick_at = self.next_tick.filter(|at| *at <= until_us);
            match (trigger_at, tick_at) {
                (Some(t), Some(k)) if t > k => self.tick(port, k),
                (Some(_), _) => {
                    let (at_us, trigger) = self.triggers.pop_front().expect("peeked");
                    self.fire(port, trigger, at_us);
                }
                (None, Some(k)) => self.tick(port, k),
                (None, None) => break,
            }
        }
    }

    /// Deliver `request` to its tenant's current home ([`route`]: at
    /// processing time, since assignments move mid-stream).
    pub(crate) fn deliver<P: FleetPort>(
        &mut self,
        port: &mut P,
        request: &Request,
    ) -> Option<ShedReason> {
        let home = route(
            self.state.shard_router,
            self.state.assignments,
            request.tenant,
            &request.model,
        );
        port.deliver(home, request)
    }

    /// End of stream: triggers past the last arrival fire at `end_us`,
    /// the stream's final timestamp — not at their (possibly far-future)
    /// trigger instants, so timer replay stays bounded and the records
    /// show when the move really happened.
    pub(crate) fn finish<P: FleetPort>(&mut self, port: &mut P, end_us: u64) {
        while let Some((_, trigger)) = self.triggers.pop_front() {
            self.fire(port, trigger, end_us);
        }
    }

    /// The run's migration records (scheduled and controller-issued, in
    /// execution order) and control log. Writes the (possibly changed)
    /// standby pool back to the fabric.
    pub(crate) fn into_parts(self) -> (Vec<MigrationRecord>, Vec<ControlRecord>) {
        let (control, standby) = self.controller.into_parts();
        *self.state.standby = standby;
        (self.records, control)
    }

    fn fire<P: FleetPort>(&mut self, port: &mut P, trigger: FleetTrigger, at_us: u64) {
        match trigger {
            FleetTrigger::Crash(node) => self.crash(port, node, at_us),
            FleetTrigger::Migrate(spec) if self.dead.contains(&spec.to) => {
                // The destination died before the trigger: the migration
                // never starts and its record freezes at Planned.
                let from = self
                    .state
                    .assignments
                    .get(&spec.tenant)
                    .map_or(spec.to, |(node, _)| *node);
                self.records
                    .push(MigrationRecord::planned(&spec, from, at_us));
            }
            FleetTrigger::Migrate(spec) => self.migrate(port, &spec, at_us),
        }
    }

    /// Walk one migration through its drain/handoff state machine at
    /// `at_us` and record how far it got.
    fn migrate<P: FleetPort>(&mut self, port: &mut P, spec: &MigrationSpec, at_us: u64) {
        let (from, family) = self
            .state
            .assignments
            .get(&spec.tenant)
            .cloned()
            .expect("specs are validated before the run starts");
        let mut record = MigrationRecord::planned(spec, from, at_us);
        if from == spec.to {
            // Already home (e.g. a repeated migration of the same
            // tenant): nothing drains, nothing moves.
            record.phase = MigrationPhase::Resumed;
            self.records.push(record);
            return;
        }
        // Draining: the source is brought to the trigger instant. The
        // routing flip below happens before the next delivery, so the
        // drain set is closed.
        match port.drain(from, spec.tenant, spec.to, at_us) {
            Err(phase) => record.phase = phase,
            Ok(package) => {
                record.phase = MigrationPhase::Draining;
                record.absorb(&package);
                if let Some(queue_spliced) = port.adopt(spec.to, spec.tenant, package) {
                    // HandedOff, then Resumed once the assignment flips
                    // and pins to the new home.
                    self.state
                        .assignments
                        .insert(spec.tenant, (spec.to, family));
                    self.state.shard_router.pin(spec.tenant, spec.to);
                    record.queue_spliced = queue_spliced;
                    record.phase = MigrationPhase::Resumed;
                }
            }
        }
        self.records.push(record);
    }

    /// Crash `node` at `at_us`: evacuate it, drop it from the shard
    /// topology, re-home every evacuated account on a survivor under
    /// bounded load ([`plan_evacuation`], a pure function of the
    /// surviving topology) and pin it there, and send orphaned refunds
    /// to their accounts' current homes.
    fn crash<P: FleetPort>(&mut self, port: &mut P, node: NodeId, at_us: u64) {
        if !self.dead.insert(node) {
            return; // a duplicate crash of a dead node is a no-op
        }
        let Some((packages, orphans)) = port.crash(node, at_us) else {
            return; // the worker already died for real: nothing to evacuate
        };
        let FleetState {
            shard_router,
            assignments,
            traffic,
            ..
        } = &mut self.state;
        shard_router.remove_node(node);
        let moves = plan_evacuation(shard_router, assignments, traffic, node, self.load_factor);
        debug_assert_eq!(moves.len(), packages.len(), "every account gets a home");
        for (package, (tenant, family, dest)) in packages.into_iter().zip(moves) {
            debug_assert_eq!(package.tenant, tenant, "both walk tenants in id order");
            if port.absorb(dest, package) {
                assignments.insert(tenant, (dest, family));
                shard_router.pin(tenant, dest);
            }
        }
        for orphan in orphans {
            if let Some((home, _)) = assignments.get(&orphan.tenant) {
                port.refund(*home, orphan.tenant, at_us);
            }
        }
    }

    /// One controller tick at `at_us`: sample every live node (the shard
    /// topology, id order — crashed nodes already left it, standby nodes
    /// have not entered it), ask the controller, and apply its actions
    /// through the same migration state machine operators use.
    fn tick<P: FleetPort>(&mut self, port: &mut P, at_us: u64) {
        self.next_tick = Some(at_us + self.tick_interval);
        let mut active = Vec::new();
        let mut snapshots = Vec::new();
        for node in self.state.shard_router.nodes().to_vec() {
            if let Some(sample) = port.sample(node.id, at_us) {
                snapshots.push((node.id, sample));
                active.push(node);
            }
        }
        let view = ControllerView {
            active: &active,
            assignments: &*self.state.assignments,
            max_total_pending: self.max_total_pending,
        };
        let actions = self
            .controller
            .tick(at_us, &snapshots, &view, self.state.traffic);
        for action in actions {
            match action {
                ControlAction::Brownout { node, floor } => {
                    port.set_brownout_floor(node, floor, at_us);
                }
                ControlAction::Migrate { tenant, to, .. } => {
                    self.migrate(port, &spec_of(tenant, to, at_us), at_us);
                }
                ControlAction::Join {
                    node,
                    weight,
                    moves,
                } => {
                    self.state
                        .shard_router
                        .add_node(ShardNode { id: node, weight });
                    for (tenant, dest) in moves {
                        self.migrate(port, &spec_of(tenant, dest, at_us), at_us);
                    }
                }
                ControlAction::Drain { node, moves } => {
                    for (tenant, dest) in moves {
                        self.migrate(port, &spec_of(tenant, dest, at_us), at_us);
                    }
                    self.state.shard_router.remove_node(node);
                }
            }
        }
    }
}
