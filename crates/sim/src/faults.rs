//! Scheduled fault injection: declarative "at step k, break X" plans
//! for reproducible robustness experiments.
//!
//! Self-stabilization's fault model is the strongest possible — the
//! adversary may place the system in *any* configuration — but real
//! experiments need orchestrated, reproducible sequences of faults. A
//! [`FaultPlan`] is a script of [`Fault`]s executed while a driver
//! runs.
//!
//! Beyond the benign verbs (corrupt, isolate, set-topology), the model
//! speaks the classic adversary shapes:
//!
//! * [`Fault::CrashRecover`] — a node goes dark (all links severed),
//!   then resurrects with its **stale pre-crash state**: the transient
//!   fault self-stabilization is defined against.
//! * [`Fault::ByzantineBeacon`] — a node broadcasts forged or replayed
//!   beacons for a window while its true state stays intact: the
//!   poison propagates exactly as far as the epoch gating lets it.
//! * [`Fault::PartitionHeal`] — the topology is bisected along a cut,
//!   later restored: both fragments must converge separately and then
//!   merge.
//! * [`Fault::Jam`] — a regional medium blackout (every link touching
//!   the region severed), lifted at a deadline.
//!
//! One clock-generic [`FaultEngine`] applies every fault on all three
//! drivers: it owns the installed script, the followup queue, the
//! corruption hook and the fault-site stream, and works on the
//! driver's protocol, topology and activity core. The drivers keep
//! only their clock edge — *when* to call it — and a short epilogue.
//! The timed second phases (resurrection, healing, lie expiry) are
//! scheduled by the engine as [`Followup`]s due at
//! [`Fault::settles_by`], and fire at logical-step boundaries
//! **before** scripted faults, which fire before sends — the same
//! `fault ≤ send` ordering `tests/fault_ordering.rs` pins.
//!
//! Malformed plans (out-of-range victims, node-count-changing
//! topologies, position-free deployments with disk regions) are
//! rejected **before the run starts** by [`FaultPlan::validate_for`],
//! which the [`crate::Scenario`] builders and [`FaultPlan::run`] call —
//! a bad campaign fails the run with a typed [`SimError`], not the
//! process.

use std::collections::VecDeque;

use mwn_graph::{NodeId, Topology, TopologyDelta};
use mwn_radio::Medium;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::ActivityCore;
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::scenario::{Dynamics, TopologyDynamics};
use crate::{Corruptible, Network};

/// What a Byzantine node puts on the air instead of its true beacon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lie {
    /// A beacon forged from an adversarially corrupted clone of the
    /// node's state (drawn on the dedicated corruption stream); the
    /// true state is untouched.
    Forged,
    /// The node's beacon frozen at fault time and retransmitted
    /// verbatim for the whole window — a stale-retransmission replay
    /// that masks every genuine change until the window closes.
    Replayed,
}

/// The victims of a [`Fault::Jam`].
#[derive(Clone, Debug)]
pub enum Region {
    /// An explicit node set.
    Nodes(Vec<NodeId>),
    /// Every node within distance `r` of `(x, y)` — requires a
    /// positioned topology (checked by [`FaultPlan::validate_for`]).
    Disk {
        /// Center x coordinate.
        x: f64,
        /// Center y coordinate.
        y: f64,
        /// Radius.
        r: f64,
    },
}

impl Region {
    /// Resolves the region to its member nodes on `topo`.
    pub fn members(&self, topo: &Topology) -> Vec<NodeId> {
        match self {
            Region::Nodes(nodes) => nodes.clone(),
            Region::Disk { x, y, r } => {
                let positions = topo
                    .positions()
                    .expect("disk regions require positioned topologies (validate_for)");
                topo.nodes()
                    .filter(|p| {
                        let d = positions[p.index()];
                        let (dx, dy) = (d.x - x, d.y - y);
                        dx * dx + dy * dy <= r * r
                    })
                    .collect()
            }
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Corrupt the state of one node arbitrarily.
    CorruptNode(NodeId),
    /// Corrupt every node (restart the self-stabilization clock).
    CorruptAll,
    /// Corrupt approximately this fraction of nodes.
    CorruptFraction(f64),
    /// Sever all links of a node (its radio goes dark).
    Isolate(NodeId),
    /// Replace the topology (e.g. restore links, or apply a mobility
    /// snapshot). Must keep the node count.
    SetTopology(Topology),
    /// The node crashes (all links severed) and resurrects `dark_for`
    /// steps later with its **stale pre-crash state** and its
    /// still-present pre-crash links restored.
    CrashRecover {
        /// The crashing node.
        node: NodeId,
        /// Logical steps of darkness (clamped to at least 1).
        dark_for: u64,
    },
    /// The node broadcasts a [`Lie`] instead of its true beacon until
    /// logical step `until` (exclusive window end; clamped to fire at
    /// least one step after injection). Its true state is intact the
    /// whole time.
    ByzantineBeacon {
        /// The lying node.
        node: NodeId,
        /// What it puts on the air.
        lie: Lie,
        /// Logical step at which the lie expires.
        until: u64,
    },
    /// Sever every edge with exactly one endpoint in `cut` (a
    /// bisection), then restore the severed edges at step `heal_at`.
    PartitionHeal {
        /// One side of the bisection.
        cut: Vec<NodeId>,
        /// Logical step at which the severed edges are restored.
        heal_at: u64,
    },
    /// Regional medium blackout: sever every edge touching the region,
    /// restore the severed edges at step `until`.
    Jam {
        /// The jammed nodes.
        region: Region,
        /// Logical step at which the severed edges are restored.
        until: u64,
    },
}

impl Fault {
    /// Stable snake-case class label, for per-fault-class statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Fault::CorruptNode(_) => "corrupt-node",
            Fault::CorruptAll => "corrupt-all",
            Fault::CorruptFraction(_) => "corrupt-fraction",
            Fault::Isolate(_) => "isolate",
            Fault::SetTopology(_) => "set-topology",
            Fault::CrashRecover { .. } => "crash-recover",
            Fault::ByzantineBeacon { .. } => "byzantine-beacon",
            Fault::PartitionHeal { .. } => "partition-heal",
            Fault::Jam { .. } => "jam",
        }
    }

    /// The logical step by which this fault's scripted after-effects
    /// (resurrection, healing, lie expiry) have fired, given that the
    /// fault itself fired at step `fired_at`. Immediate faults settle
    /// at `fired_at`.
    pub fn settles_by(&self, fired_at: u64) -> u64 {
        match self {
            Fault::CrashRecover { dark_for, .. } => fired_at + (*dark_for).max(1),
            Fault::ByzantineBeacon { until, .. } => (*until).max(fired_at + 1),
            Fault::PartitionHeal { heal_at, .. } => (*heal_at).max(fired_at + 1),
            Fault::Jam { until, .. } => (*until).max(fired_at + 1),
            _ => fired_at,
        }
    }
}

/// A timed second phase of a fault, scheduled by the [`FaultEngine`]
/// that fired it and executed at a later logical-step boundary —
/// before that boundary's scripted faults, which fire before its sends.
pub(crate) enum Followup<P: Protocol> {
    /// End of a [`Fault::CrashRecover`] darkness: restore the stale
    /// pre-crash state and re-add the recorded links that are still
    /// absent.
    Resurrect {
        node: NodeId,
        state: P::State,
        links: Vec<NodeId>,
    },
    /// End of a [`Fault::PartitionHeal`] / [`Fault::Jam`]: re-add the
    /// recorded severed edges that are still absent.
    RestoreEdges { edges: Vec<(NodeId, NodeId)> },
    /// End of a [`Fault::ByzantineBeacon`] window: drop the lie and
    /// wake the node so the truth re-propagates.
    ClearLie { node: NodeId },
}

/// The corruption hook a script is installed with: it captures the
/// [`Corruptible`] capability, so scripted faults fire inside a
/// driver's step without bounding every driver method by it.
pub(crate) type Corruptor<P> = fn(&P, NodeId, &mut <P as Protocol>::State, &mut StdRng);

/// The one fault engine behind all three drivers.
///
/// Every operation works on the driver's `(protocol, topology, core)`
/// at a logical step `now` the driver supplies, and leaves the nodes it
/// woke — whose state or links it may have changed — in [`Self::woken`]
/// (cleared by each operation). Randomness comes from the per-event
/// corruption streams of the [`ActivityCore`] and from the engine's
/// own fault-site stream, never from a delivery or update stream.
pub(crate) struct FaultEngine<P: Protocol> {
    /// Installed scripted faults still to fire, sorted by step.
    script: VecDeque<(u64, Fault)>,
    /// Pending followups sorted by due step; equal dues keep their
    /// insertion order.
    followups: VecDeque<(u64, Followup<P>)>,
    corruptor: Option<Corruptor<P>>,
    /// Sequential fault-site stream ([`Fault::CorruptFraction`] picks).
    rng: StdRng,
    /// Nodes woken by the last operation (unsorted, may repeat).
    pub woken: Vec<NodeId>,
}

impl<P: Protocol> FaultEngine<P> {
    /// An idle engine drawing fault sites from the stream `fault_seed`.
    pub fn new(fault_seed: u64) -> Self {
        FaultEngine {
            script: VecDeque::new(),
            followups: VecDeque::new(),
            corruptor: None,
            rng: StdRng::seed_from_u64(fault_seed),
            woken: Vec::new(),
        }
    }

    /// Installs a step-sorted script ([`FaultPlan::into_events`]) and
    /// the corruption hook its faults use.
    pub fn install(&mut self, script: Vec<(u64, Fault)>, corruptor: Corruptor<P>) {
        self.script = script.into();
        self.corruptor = Some(corruptor);
    }

    /// The step of the next scripted fault.
    pub fn next_scripted(&self) -> Option<u64> {
        self.script.front().map(|(step, _)| *step)
    }

    /// Advances the script cursor past the next fault if it is due by
    /// step `now`, handing it over.
    pub fn pop_scripted(&mut self, now: u64) -> Option<Fault> {
        if self.next_scripted()? > now {
            return None;
        }
        self.script.pop_front().map(|(_, fault)| fault)
    }

    /// The due step of the earliest pending followup.
    pub fn next_due(&self) -> Option<u64> {
        self.followups.front().map(|(due, _)| *due)
    }

    /// The step boundary of the round and actor clocks: the mobility
    /// tick, then the followups due by step `now`, then the scripted
    /// faults due by it — all before the step's first beacon. Returns
    /// whether anything observable changed; `woken` then holds only
    /// the last operation's nodes, which these clocks do not read.
    pub fn step_edge(
        &mut self,
        now: u64,
        dynamics: &mut Dynamics,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) -> bool {
        let mut changed = match dynamics {
            Some(dynamics) => self.tick(dynamics.as_mut(), now, protocol, topo, core),
            None => false,
        };
        changed |= self.fire_due(now, protocol, topo, core);
        while let Some(fault) = self.pop_scripted(now) {
            self.dispatch(&fault, now, protocol, topo, core)
                .expect("scripts are validated before installation");
            changed = true;
        }
        changed
    }

    /// Applies one fault at logical step `now`; timed faults schedule
    /// their followup at [`Fault::settles_by`]`(now)`.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] for a [`Fault::SetTopology`]
    /// that changes the node count; nothing is applied then.
    pub fn dispatch(
        &mut self,
        fault: &Fault,
        now: u64,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) -> Result<(), SimError> {
        self.woken.clear();
        let due = fault.settles_by(now);
        match fault {
            Fault::CorruptNode(p) => {
                self.corrupt(*p, protocol, topo, core);
                self.woken.push(*p);
            }
            Fault::CorruptAll => {
                for p in topo.nodes() {
                    self.corrupt(p, protocol, topo, core);
                    self.woken.push(p);
                }
            }
            Fault::CorruptFraction(fraction) => {
                let fraction = fraction.clamp(0.0, 1.0);
                for p in topo.nodes() {
                    if self.rng.random_bool(fraction) {
                        self.woken.push(p);
                    }
                }
                for i in 0..self.woken.len() {
                    self.corrupt(self.woken[i], protocol, topo, core);
                }
            }
            Fault::Isolate(p) => self.isolate(*p, protocol, topo, core),
            Fault::SetTopology(next) => self.set_topology(next.clone(), topo, core)?,
            Fault::CrashRecover { node, .. } => {
                let state = core.table.states[node.index()].clone();
                let links = topo.neighbors(*node).to_vec();
                self.isolate(*node, protocol, topo, core);
                let resurrect = Followup::Resurrect {
                    node: *node,
                    state,
                    links,
                };
                self.schedule(due, resurrect);
            }
            Fault::ByzantineBeacon { node, lie, .. } => {
                let beacon = match lie {
                    // The forged content draws on the per-event
                    // corruption stream: delivery randomness is untouched.
                    Lie::Forged => {
                        let mut fake = core.table.states[node.index()].clone();
                        let mut rng = core.corrupt_rng(*node);
                        self.corruptor()(protocol, *node, &mut fake, &mut rng);
                        protocol.beacon(*node, &fake)
                    }
                    Lie::Replayed => core.table.beacons[node.index()].clone(),
                };
                core.install_lie(topo, *node, beacon);
                self.schedule(due, Followup::ClearLie { node: *node });
            }
            Fault::PartitionHeal { cut, .. } => {
                let side = membership(topo.len(), cut);
                let edges = topo
                    .edges()
                    .filter(|&(u, v)| side[u.index()] != side[v.index()])
                    .collect();
                self.sever(edges, due, protocol, topo, core);
            }
            Fault::Jam { region, .. } => {
                let jammed = membership(topo.len(), &region.members(topo));
                let edges = topo
                    .edges()
                    .filter(|&(u, v)| jammed[u.index()] || jammed[v.index()])
                    .collect();
                self.sever(edges, due, protocol, topo, core);
            }
        }
        Ok(())
    }

    /// Fires every followup due by step `now`, in due order (ties in
    /// scheduling order). Returns whether any fired.
    pub fn fire_due(
        &mut self,
        now: u64,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) -> bool {
        self.woken.clear();
        let mut fired = false;
        while self.next_due().is_some_and(|due| due <= now) {
            let (_, followup) = self.followups.pop_front().expect("peeked followup");
            fired = true;
            match followup {
                Followup::Resurrect { node, state, links } => {
                    core.table.states[node.index()] = state;
                    core.wake_mutated(node, topo);
                    self.woken.push(node);
                    let edges: Vec<(NodeId, NodeId)> = links
                        .iter()
                        .map(|&q| if node < q { (node, q) } else { (q, node) })
                        .collect();
                    self.restore(&edges, protocol, topo, core);
                }
                Followup::RestoreEdges { edges } => self.restore(&edges, protocol, topo, core),
                Followup::ClearLie { node } => {
                    core.clear_lie(protocol, topo, node);
                    self.woken.push(node);
                }
            }
        }
        fired
    }

    /// One mobility tick: the topology `dynamics` hold for `step`,
    /// applied incrementally when they provide moves, wholesale
    /// otherwise. Returns whether anything observable changed.
    pub fn tick(
        &mut self,
        dynamics: &mut (dyn TopologyDynamics + Send),
        step: u64,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) -> bool {
        self.woken.clear();
        if let Some(moves) = dynamics.next_moves(step) {
            if moves.is_empty() {
                return false;
            }
            let delta = topo.apply_moves(moves);
            self.apply_delta(&delta, protocol, topo, core)
        } else if let Some(next) = dynamics.next_topology(step) {
            self.set_topology(next.clone(), topo, core)
                .expect("topology dynamics must preserve the node count");
            true
        } else {
            false
        }
    }

    /// Replaces the topology wholesale. A swap carries no link-level
    /// delta, so every node is rescheduled (and no
    /// [`Protocol::link_down`] fires).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] if the node count changes:
    /// protocol state is indexed by node.
    pub fn set_topology(
        &mut self,
        next: Topology,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) -> Result<(), SimError> {
        self.woken.clear();
        if next.len() != topo.len() {
            return Err(SimError::NodeCountMismatch {
                expected: topo.len(),
                got: next.len(),
            });
        }
        *topo = next;
        core.table.mark_all(topo);
        self.woken.extend(topo.nodes());
        Ok(())
    }

    /// Severs every link of `p` ([`ActivityCore::isolate`]); wakes `p`
    /// and its former neighbors.
    pub fn isolate(
        &mut self,
        p: NodeId,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) {
        core.isolate(protocol, topo, p, &mut self.woken);
        self.woken.push(p);
    }

    fn corruptor(&self) -> Corruptor<P> {
        self.corruptor
            .expect("a script or `inject` installs the corruption hook")
    }

    /// Scrambles `p`'s state on a fresh corruption stream and wakes it
    /// in the core (the caller records it in `woken`).
    fn corrupt(&self, p: NodeId, protocol: &P, topo: &Topology, core: &mut ActivityCore<P>) {
        let mut rng = core.corrupt_rng(p);
        self.corruptor()(protocol, p, &mut core.table.states[p.index()], &mut rng);
        core.wake_mutated(p, topo);
    }

    fn schedule(&mut self, due: u64, followup: Followup<P>) {
        let at = self.followups.partition_point(|(d, _)| *d <= due);
        self.followups.insert(at, (due, followup));
    }

    /// Processes an incremental topology change through the core and
    /// wakes its endpoints. Returns whether anything observable changed.
    fn apply_delta(
        &mut self,
        delta: &TopologyDelta,
        protocol: &P,
        topo: &Topology,
        core: &mut ActivityCore<P>,
    ) -> bool {
        let changed = core.apply_delta(protocol, topo, delta);
        let endpoints = delta.added.iter().chain(&delta.removed);
        self.woken.extend(endpoints.flat_map(|&(u, v)| [u, v]));
        changed
    }

    /// Removes `edges` (all currently present) through the incremental
    /// delta path and schedules their restoration at step `due`.
    fn sever(
        &mut self,
        edges: Vec<(NodeId, NodeId)>,
        due: u64,
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) {
        if edges.is_empty() {
            return;
        }
        for &(u, v) in &edges {
            topo.remove_edge(u, v);
        }
        let delta = TopologyDelta {
            removed: edges,
            ..TopologyDelta::default()
        };
        self.apply_delta(&delta, protocol, topo, core);
        let edges = delta.removed;
        self.schedule(due, Followup::RestoreEdges { edges });
    }

    /// Re-adds whichever of `edges` are still absent (mobility or later
    /// faults may have restored or re-severed some).
    fn restore(
        &mut self,
        edges: &[(NodeId, NodeId)],
        protocol: &P,
        topo: &mut Topology,
        core: &mut ActivityCore<P>,
    ) {
        let mut added = Vec::new();
        for &(u, v) in edges {
            if !topo.has_edge(u, v) && topo.add_edge(u, v).is_ok() {
                added.push((u, v));
            }
        }
        let delta = TopologyDelta {
            added,
            ..TopologyDelta::default()
        };
        self.apply_delta(&delta, protocol, topo, core);
    }
}

impl<P: Corruptible> FaultEngine<P> {
    /// Installs the protocol's own [`Corruptible::corrupt`] as the
    /// corruption hook unless a script already installed one — what
    /// lets the drivers' public corruption methods and `inject` run
    /// without a script.
    pub fn arm_corruptor(&mut self) {
        self.corruptor.get_or_insert(P::corrupt);
    }
}

/// A node-indexed membership mask of `nodes`.
fn membership(n: usize, nodes: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &p in nodes {
        mask[p.index()] = true;
    }
    mask
}

/// A reproducible script of faults, each fired *before* the given step
/// executes.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, NodeId};
/// use mwn_radio::PerfectMedium;
/// use mwn_sim::{Fault, FaultPlan, Network, Protocol};
/// use rand::rngs::StdRng;
///
/// # struct Noop;
/// # impl Protocol for Noop {
/// #     type State = u32; type Beacon = u32;
/// #     fn init(&self, n: NodeId, _: &mut StdRng) -> u32 { n.value() }
/// #     fn beacon(&self, _: NodeId, s: &u32) -> u32 { *s }
/// #     fn receive(&self, _: NodeId, s: &mut u32, _: NodeId, b: &u32, _: u64) { *s = (*s).max(*b); }
/// #     fn update(&self, n: NodeId, s: &mut u32, _: u64, _: &mut StdRng) { *s = (*s).max(n.value()); }
/// # }
/// # impl mwn_sim::Corruptible for Noop {
/// #     fn corrupt(&self, _: NodeId, s: &mut u32, _: &mut StdRng) { *s = 0; }
/// # }
/// let mut plan = FaultPlan::new();
/// plan.at(5, Fault::CorruptAll).at(10, Fault::Isolate(NodeId::new(0)));
/// let mut net = Network::new(Noop, PerfectMedium, builders::line(4), 1);
/// plan.run(&mut net, 20).expect("valid plan");
/// assert_eq!(net.now(), 20);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `fault` to fire right before step `step` executes.
    /// Multiple faults may share a step; they fire in insertion order.
    ///
    /// Insertion is O(1): the script is built unsorted and sorted once
    /// (stably, so same-step insertion order survives) when the plan
    /// is installed into a driver or run.
    pub fn at(&mut self, step: u64, fault: Fault) -> &mut Self {
        self.events.push((step, fault));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Consumes the plan into its sorted `(step, fault)` script — the
    /// form [`crate::Scenario`] installs into the driver. The sort is
    /// stable: faults sharing a step keep their insertion order.
    pub(crate) fn into_events(self) -> Vec<(u64, Fault)> {
        let mut events = self.events;
        events.sort_by_key(|(step, _)| *step);
        events
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every scheduled fault against the deployment it will run
    /// on, so a malformed campaign fails at build time with a typed
    /// error instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] for a [`Fault::SetTopology`]
    /// that changes the node count; [`SimError::InvalidConfig`] for
    /// out-of-range victims or a [`Region::Disk`] over a topology
    /// without positions.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), SimError> {
        let n = topo.len();
        let check_node = |p: NodeId, role: &str| {
            if p.index() >= n {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan names {role} node {p} but the deployment has {n} nodes"
                )));
            }
            Ok(())
        };
        for (_, fault) in &self.events {
            match fault {
                Fault::CorruptNode(p) => check_node(*p, "corruption victim")?,
                Fault::Isolate(p) => check_node(*p, "isolation victim")?,
                Fault::CrashRecover { node, .. } => check_node(*node, "crash victim")?,
                Fault::ByzantineBeacon { node, .. } => check_node(*node, "Byzantine")?,
                Fault::SetTopology(t) => {
                    if t.len() != n {
                        return Err(SimError::NodeCountMismatch {
                            expected: n,
                            got: t.len(),
                        });
                    }
                }
                Fault::PartitionHeal { cut, .. } => {
                    for p in cut {
                        check_node(*p, "partition-cut")?;
                    }
                }
                Fault::Jam { region, .. } => match region {
                    Region::Nodes(nodes) => {
                        for p in nodes {
                            check_node(*p, "jam-region")?;
                        }
                    }
                    Region::Disk { .. } => {
                        if topo.positions().is_none() {
                            return Err(SimError::InvalidConfig(
                                "a disk jam region requires a positioned topology".to_string(),
                            ));
                        }
                    }
                },
                Fault::CorruptAll | Fault::CorruptFraction(_) => {}
            }
        }
        Ok(())
    }

    /// Runs `net` until `until_step`, firing scheduled faults along the
    /// way. Faults scheduled before the current step fire immediately;
    /// faults scheduled at or after `until_step` do not fire.
    ///
    /// # Errors
    ///
    /// Everything [`FaultPlan::validate_for`] rejects — the plan is
    /// validated against `net`'s topology before any step executes.
    pub fn run<P, M>(&self, net: &mut Network<P, M>, until_step: u64) -> Result<(), SimError>
    where
        P: Corruptible,
        M: Medium,
    {
        self.validate_for(net.topology())?;
        let mut script: Vec<&(u64, Fault)> = self.events.iter().collect();
        script.sort_by_key(|(step, _)| *step);
        let mut pending = script.into_iter().peekable();
        // Skip/fire anything already due.
        while net.now() < until_step {
            while let Some((step, fault)) = pending.peek() {
                if *step <= net.now() {
                    net.inject(fault).expect("plan validated before running");
                    pending.next();
                } else {
                    break;
                }
            }
            net.step();
        }
        // Faults due exactly at the final step boundary still fire (the
        // caller observes the post-fault state).
        while let Some((step, fault)) = pending.peek() {
            if *step <= net.now() {
                net.inject(fault).expect("plan validated before running");
                pending.next();
            } else {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;
    use mwn_graph::builders;
    use mwn_radio::PerfectMedium;
    use rand::rngs::StdRng;

    struct MaxFlood;
    impl Protocol for MaxFlood {
        type State = u32;
        type Beacon = u32;
        fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
            node.value()
        }
        fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
        fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
            *state = (*state).max(*beacon);
        }
        fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut StdRng) {
            *state = (*state).max(node.value());
        }
    }
    impl Corruptible for MaxFlood {
        fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
            *state = 0;
        }
    }

    #[test]
    fn faults_fire_in_order_and_heal() {
        let mut plan = FaultPlan::new();
        plan.at(10, Fault::CorruptAll);
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 1);
        plan.run(&mut net, 30).expect("valid plan");
        assert_eq!(net.now(), 30);
        // 20 steps after the corruption: flood reconverged.
        assert!(net.states().iter().all(|&s| s == 4));
    }

    #[test]
    fn isolation_fault_cuts_traffic() {
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 2);
        plan.run(&mut net, 20).expect("valid plan");
        assert_eq!(*net.state(NodeId::new(0)), 1, "max id cannot cross the cut");
    }

    #[test]
    fn set_topology_fault_restores_links() {
        let topo = builders::line(5);
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)))
            .at(10, Fault::SetTopology(topo.clone()));
        let mut net = Network::new(MaxFlood, PerfectMedium, topo, 3);
        plan.run(&mut net, 30).expect("valid plan");
        assert!(net.states().iter().all(|&s| s == 4), "healed after re-link");
    }

    #[test]
    fn fraction_and_single_node_faults() {
        let mut plan = FaultPlan::new();
        plan.at(5, Fault::CorruptFraction(0.5))
            .at(6, Fault::CorruptNode(NodeId::new(0)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(8), 4);
        plan.run(&mut net, 40).expect("valid plan");
        assert!(net.states().iter().all(|&s| s == 7));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_plain_run() {
        let plan = FaultPlan::new();
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(3), 5);
        plan.run(&mut net, 7).expect("valid plan");
        assert_eq!(net.now(), 7);
        assert!(plan.is_empty());
    }

    #[test]
    fn insertion_is_unsorted_and_the_script_sorts_stably() {
        // Regression for the old `at` that re-sorted the whole script
        // on every insertion: building is push-only now, and the final
        // sort must keep same-step faults in insertion order.
        let mut plan = FaultPlan::new();
        plan.at(5, Fault::CorruptNode(NodeId::new(10)))
            .at(3, Fault::CorruptAll)
            .at(5, Fault::CorruptNode(NodeId::new(20)))
            .at(1, Fault::Isolate(NodeId::new(0)))
            .at(5, Fault::CorruptNode(NodeId::new(30)));
        let events = plan.into_events();
        let steps: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![1, 3, 5, 5, 5], "sorted by step");
        let same_step: Vec<u32> = events
            .iter()
            .filter_map(|(s, f)| match (s, f) {
                (5, Fault::CorruptNode(p)) => Some(p.value()),
                _ => None,
            })
            .collect();
        assert_eq!(same_step, vec![10, 20, 30], "insertion order preserved");
    }

    #[test]
    fn malformed_plans_fail_the_run_not_the_process() {
        // Node-count-changing topology: a typed error, not a panic.
        let mut plan = FaultPlan::new();
        plan.at(2, Fault::SetTopology(builders::line(7)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 1);
        assert_eq!(
            plan.run(&mut net, 10),
            Err(SimError::NodeCountMismatch {
                expected: 5,
                got: 7
            })
        );
        assert_eq!(net.now(), 0, "nothing ran");

        // Out-of-range victims are named in the error.
        let mut plan = FaultPlan::new();
        plan.at(
            0,
            Fault::CrashRecover {
                node: NodeId::new(99),
                dark_for: 3,
            },
        );
        let err = plan.run(&mut net, 10).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("99"), "err: {err}");

        // Disk jam regions need positions (G(n, p) topologies have
        // none).
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
        let unpositioned = builders::gnp(5, 0.5, &mut rng);
        let mut net = Network::new(MaxFlood, PerfectMedium, unpositioned, 1);
        let mut plan = FaultPlan::new();
        plan.at(
            0,
            Fault::Jam {
                region: Region::Disk {
                    x: 0.5,
                    y: 0.5,
                    r: 0.2,
                },
                until: 5,
            },
        );
        let err = plan.run(&mut net, 10).unwrap_err();
        assert!(err.to_string().contains("positioned"), "err: {err}");
    }

    #[test]
    fn followups_fire_in_due_order_with_ties_in_scheduling_order() {
        let mut topo = builders::line(6);
        let mut core = ActivityCore::new(&MaxFlood, &topo, 1);
        let mut engine = FaultEngine::<MaxFlood>::new(0);
        for (due, node) in [(5, 0), (3, 1), (5, 2), (3, 3), (4, 4)] {
            let node = NodeId::new(node);
            engine.schedule(due, Followup::ClearLie { node });
        }
        assert_eq!(engine.next_due(), Some(3));
        assert!(!engine.fire_due(2, &MaxFlood, &mut topo, &mut core));
        assert!(engine.fire_due(4, &MaxFlood, &mut topo, &mut core));
        let fired = |engine: &FaultEngine<MaxFlood>| -> Vec<u32> {
            engine.woken.iter().map(|p| p.value()).collect()
        };
        assert_eq!(fired(&engine), vec![1, 3, 4]);
        assert!(engine.fire_due(9, &MaxFlood, &mut topo, &mut core));
        assert_eq!(fired(&engine), vec![0, 2]);
        assert_eq!(engine.next_due(), None);
    }

    #[test]
    fn settles_by_covers_every_timed_kind() {
        assert_eq!(Fault::CorruptAll.settles_by(7), 7);
        assert_eq!(
            Fault::CrashRecover {
                node: NodeId::new(0),
                dark_for: 4
            }
            .settles_by(10),
            14
        );
        // Zero-length windows still settle strictly after injection.
        assert_eq!(
            Fault::CrashRecover {
                node: NodeId::new(0),
                dark_for: 0
            }
            .settles_by(10),
            11
        );
        assert_eq!(
            Fault::ByzantineBeacon {
                node: NodeId::new(1),
                lie: Lie::Forged,
                until: 3
            }
            .settles_by(10),
            11
        );
        assert_eq!(
            Fault::PartitionHeal {
                cut: vec![NodeId::new(0)],
                heal_at: 25
            }
            .settles_by(10),
            25
        );
        assert_eq!(
            Fault::Jam {
                region: Region::Nodes(vec![NodeId::new(0)]),
                until: 30
            }
            .settles_by(10),
            30
        );
    }
}
