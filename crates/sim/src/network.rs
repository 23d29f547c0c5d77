use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};
use mwn_radio::{Delivery, Medium, Occupancy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{host_parallelism, kernels, on_pool_worker, run_sharded, ActivityCore};
use crate::faults::FaultEngine;
use crate::rng::{derive_seed, split_rng};
use crate::scenario::{Dynamics, Install};
use crate::stop::{RoundClock, RunReport, StopWhen};
use crate::{Activity, Corruptible, Fault, Observable, Protocol, SimError, StabilityTracker};

/// What one [`Network::step`] actually did — the activity counters of
/// the dirty-set engine.
///
/// For a *silent* protocol under gated scheduling, every field except
/// `updates`/`receives` drops to zero once the network stabilizes: no
/// node broadcasts, no frame flies, no guard runs. Under eager
/// scheduling `senders` and `updates` are always the node count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepActivity {
    /// Nodes that broadcast a beacon this step.
    pub senders: usize,
    /// (sender, 1-neighbor) frame copies that were in range.
    pub frames_attempted: usize,
    /// Frame copies actually received.
    pub frames_delivered: usize,
    /// [`Protocol::receive`] invocations.
    pub receives: usize,
    /// [`Protocol::update`] invocations.
    pub updates: usize,
    /// Nodes whose state changed (tracked under gated scheduling only;
    /// 0 under eager scheduling).
    pub changed: usize,
}

/// How many worker shards the per-step active-set pass uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardMode {
    /// Size from [`host_parallelism`], and only shard when the active
    /// set is large enough to amortize thread spawn and the network is
    /// not already stepped on a [`crate::run_pooled`] worker.
    Auto,
    /// Always split into exactly this many shards (equivalence tests,
    /// the CI forced-shard matrix leg).
    Forced(usize),
}

/// Below this many active nodes a shard's share of the pass does not
/// pay for its scoped-thread spawn; `Auto` then runs one shard inline.
const AUTO_SHARD_MIN_ACTIVE: usize = 1024;

/// One shard's scratch for the phase-5 pass, pooled across steps so
/// the steady-state pass never allocates; `align(64)` keeps two
/// workers' slots off a shared cache line (see [`crate::kernels`]).
#[repr(align(64))]
struct ShardScratch<P: Protocol> {
    /// Pre-pass snapshot of the node being processed (gated only).
    before: Option<P::State>,
    /// Nodes of this chunk whose state changed (gated only).
    changed: Vec<NodeId>,
    /// [`Protocol::receive`] invocations in this chunk.
    receives: usize,
}

/// One shard of the phase-5 pass: a contiguous chunk of the sorted
/// active set together with the node range it owns — the matching
/// windows of the state column and of the reception arena.
struct Shard<'a, P: Protocol> {
    nodes: &'a [NodeId],
    /// Index of the first node of the owned range (`states[0]`).
    base: usize,
    states: &'a mut [P::State],
    heard: kernels::HeardRowsMut<'a>,
    scratch: &'a mut ShardScratch<P>,
}

/// The synchronous round driver: one call to [`Network::step`] is one
/// of the paper's Δ(τ) "steps" (Section 5).
///
/// Within a step, in order:
///
/// 1. if the scenario attached mobility dynamics, the topology moves
///    (incrementally via [`Topology::apply_moves`] when the dynamics
///    provide per-step moves);
/// 2. fault followups, then scripted faults, due at this step fire
///    (both through the fault engine all three drivers share);
/// 3. every *scheduled* node snapshots its shared variables
///    ([`Protocol::beacon`]) — simultaneous, so information moves at
///    most one hop per step, exactly as in the paper's Table 2;
/// 4. the [`Medium`] decides which frame copies arrive;
/// 5. receivers process arrivals ([`Protocol::receive`]);
/// 6. scheduled nodes execute their enabled guarded assignments
///    ([`Protocol::update`]).
///
/// # Activity-driven scheduling
///
/// The paper's algorithms are **silent**: in the legitimate
/// configuration nothing changes any more. The driver exploits this
/// through the shared [`crate::engine`] core (dirty sets, beacon
/// epochs, per-edge reception tracking): when the protocol opts in
/// ([`Activity::Gated`]) *and* the medium supports gating, a node is
/// scheduled only if its state changed last round, a beacon it heard
/// changed, a topology delta touched it, or a fault hit it — quiescent
/// regions cost (near) zero work and zero messages.
///
/// Two media classes support gating. Per-copy independent fates
/// ([`Medium::independent_fates`]): all randomness is derived per
/// (step, node) / (step, sender) from the constructor seed
/// ([`crate::split_rng`]), so skipping an idle node consumes no
/// randomness and gated and eager execution are **byte-identical**
/// (property-tested in `tests/engine_equivalence.rs`). Contention
/// media implementing [`Medium::gated_contention`]: retired senders
/// keep *occupying* their slot statistically (an [`Occupancy`] summary
/// maintained incrementally by the engine), active frames fold that
/// population into their collision draws, and gated ≡ eager holds
/// **distributionally** — Wilson-band agreement on stabilization time,
/// delivery ratio and outputs (`tests/gated_csma.rs`). Fault injection
/// draws from a dedicated stream and never perturbs frame delivery.
///
/// # Sharded execution
///
/// The per-node pass of a step (phase 5) only ever writes a node's own
/// state and reception row while reading frozen beacon columns, so it
/// is embarrassingly parallel. [`Network::set_shards`] splits the
/// sorted active set into contiguous chunks, each owning a contiguous
/// node range, and every worker mutates its windows of the state column
/// and reception arena **in place** — sharded and serial execution are
/// byte-identical for every shard count (states, outputs, `RunReport`s).
/// The `MWN_FORCE_SHARDS` environment variable forces a shard count at
/// construction (the CI matrix leg runs the equivalence suites with 4).
///
/// Networks are normally built through [`crate::Scenario`]; the
/// constructor and the closure-projection run methods remain available
/// as the low-level interface.
pub struct Network<P: Protocol, M> {
    protocol: P,
    medium: M,
    topo: Topology,
    /// The shared activity core: columnar node table, dirty sets and
    /// derived-stream bases.
    core: ActivityCore<P>,
    /// Sequential stream for contention-coupled media (whose rounds
    /// are evaluated with the full sender set in one call).
    medium_rng: StdRng,
    step: u64,
    /// `true` when the user pinned the driver to eager scheduling.
    force_eager: bool,
    /// How the per-step active pass is split across workers.
    shards: ShardMode,
    /// Scripted faults, their followups and every injected fault.
    faults: FaultEngine<P>,
    dynamics: Dynamics,
    // Reused step buffers: no per-step allocation in steady state.
    senders_buf: Vec<NodeId>,
    active_buf: Vec<NodeId>,
    stale_buf: Vec<NodeId>,
    /// Pooled per-shard scratch for the phase-5 pass (slot 0 serves
    /// the one-shard case).
    shard_scratch: Vec<ShardScratch<P>>,
    delivery: Delivery,
    // Per-step observability for stop conditions and metrics.
    last_activity: StepActivity,
    env_changed: bool,
    messages_total: u64,
}

impl<P: Protocol, M> std::fmt::Debug for Network<P, M>
where
    P: std::fmt::Debug,
    M: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("protocol", &self.protocol)
            .field("medium", &self.medium)
            .field("topo", &self.topo)
            .field("states", &self.core.table.states)
            .field("step", &self.step)
            .field("dynamics", &self.dynamics.is_some())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol, M: Medium> Network<P, M> {
    /// Creates a network of cold-start nodes over `topo`.
    pub fn new(protocol: P, medium: M, topo: Topology, seed: u64) -> Self {
        let mut core = ActivityCore::new(&protocol, &topo, seed);
        if protocol.activity() == Activity::Gated && medium.gated_contention() {
            // Contention media can only gate silent senders if the
            // retired population keeps occupying its slots; the engine
            // maintains the summary alongside `send_pending`.
            core.table.occupancy = Some(Occupancy::new(topo.len()));
        }
        let shards = std::env::var("MWN_FORCE_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|k| ShardMode::Forced(k.max(1)))
            .unwrap_or(ShardMode::Auto);
        Network {
            core,
            protocol,
            medium,
            topo,
            medium_rng: StdRng::seed_from_u64(derive_seed(seed, u64::MAX)),
            step: 0,
            force_eager: false,
            shards,
            faults: FaultEngine::new(derive_seed(seed, u64::MAX - 2)),
            dynamics: None,
            senders_buf: Vec::new(),
            active_buf: Vec::new(),
            stale_buf: Vec::new(),
            shard_scratch: Vec::new(),
            delivery: Delivery::empty(0),
            last_activity: StepActivity::default(),
            env_changed: false,
            messages_total: 0,
        }
    }

    /// Detaches any topology dynamics attached by
    /// [`crate::Scenario::mobility`] — "the nodes stop moving" — so
    /// the protocol can settle on the final topology. Returns whether
    /// dynamics were attached.
    pub fn stop_dynamics(&mut self) -> bool {
        self.dynamics.take().is_some()
    }

    /// `true` when the driver is currently using dirty-set (gated)
    /// scheduling: the protocol declared [`Activity::Gated`], the
    /// medium supports it — independent frame fates
    /// ([`Medium::independent_fates`], byte-identical gating) or the
    /// gated-contention contract
    /// ([`Medium::gated_contention`], distributional gating via
    /// statistical slot occupancy) — and the user did not pin eager
    /// scheduling.
    pub fn is_gated(&self) -> bool {
        !self.force_eager
            && self.protocol.activity() == Activity::Gated
            && (self.medium.independent_fates() || self.medium.gated_contention())
    }

    /// The statistical slot-occupancy summary of the retired
    /// population — `Some` exactly when the driver was built to gate a
    /// contention medium. Exposed for the occupancy property tests and
    /// diagnostics; the counts always match a from-scratch recount
    /// over the current topology.
    pub fn occupancy(&self) -> Option<&Occupancy> {
        self.core.table.occupancy.as_ref()
    }

    /// Pins the driver to eager scheduling (`true`) or restores the
    /// automatic choice (`false`). Used by equivalence tests and
    /// before/after benchmarks; both modes are byte-identical for
    /// protocols honoring the [`Activity::Gated`] contract.
    pub fn set_eager(&mut self, eager: bool) {
        if self.force_eager && !eager {
            // Re-enabling gating after an eager stretch: the dirty
            // bookkeeping was degenerate, resynchronize conservatively.
            self.core.table.mark_all(&self.topo);
        }
        self.force_eager = eager;
    }

    /// Overrides how the per-step active pass is split across worker
    /// threads: `Some(k)` forces exactly `k` shards for every step
    /// (even tiny ones, even on pool workers), `None` restores the
    /// automatic policy: one shard per host worker once the active set
    /// amortizes thread spawn, but one shard on a [`crate::run_pooled`]
    /// worker (a parallel [`crate::Sweep`] job), so threads never nest.
    ///
    /// Sharded and serial execution are byte-identical for every shard
    /// count; this knob only moves wall-clock time.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        self.shards = match shards {
            Some(k) => ShardMode::Forced(k.max(1)),
            None => ShardMode::Auto,
        };
    }

    /// How many shards the next active pass of `active` nodes would
    /// use.
    fn shard_count(&self, active: usize) -> usize {
        match self.shards {
            ShardMode::Forced(k) => k.min(active.max(1)),
            ShardMode::Auto => {
                if active < AUTO_SHARD_MIN_ACTIVE || on_pool_worker() {
                    1
                } else {
                    host_parallelism()
                }
            }
        }
    }

    /// The activity counters of the most recent step.
    pub fn last_activity(&self) -> StepActivity {
        self.last_activity
    }

    /// Total beacon broadcasts since construction — the message-count
    /// metric of the communication-efficiency literature (Devismes et
    /// al.): for a silent protocol under gated scheduling this stops
    /// growing once the network stabilizes.
    pub fn messages_total(&self) -> u64 {
        self.messages_total
    }

    /// Processes an incremental topology change through the shared
    /// core: notify the protocol of vanished links, wake the touched
    /// nodes, realign their reception bookkeeping.
    fn apply_delta(&mut self, delta: &TopologyDelta) {
        if self.core.apply_delta(&self.protocol, &self.topo, delta) {
            // Even a link-preserving move changes the topology's
            // geometry: memoized predicate verdicts over (topo, states)
            // are stale.
            self.env_changed = true;
        }
    }

    /// Executes one synchronous step; returns the new step count.
    pub fn step(&mut self) -> u64 {
        self.env_changed = false;
        self.core.table.changed.clear();
        self.env_changed |= self.faults.step_edge(
            self.step,
            &mut self.dynamics,
            &self.protocol,
            &mut self.topo,
            &mut self.core,
        );
        let eager = !self.is_gated();
        if eager {
            // Degenerate dirty sets: everyone beacons, hears and runs —
            // the classic semantics, and the reference the gated mode
            // is tested against.
            self.core.table.update_dirty.insert_all();
            self.core.table.beacon_stale.insert_all();
            self.core.table.send_pending.insert_all();
            if let Some(occ) = &mut self.core.table.occupancy {
                // Everyone transmits for real: nobody occupies
                // statistically (O(1) once drained).
                occ.release_all();
            }
        }

        // Phase 1: refresh the beacons of nodes whose state changed.
        self.core
            .table
            .beacon_stale
            .drain_sorted_into(&mut self.stale_buf);
        for &p in &self.stale_buf {
            self.core.refresh_beacon(&self.protocol, &self.topo, p);
        }

        // Phase 2: the senders of this round.
        self.core
            .table
            .send_pending
            .collect_sorted_into(&mut self.senders_buf);

        // Phase 3: frame delivery. Media with independent fates get one
        // derived stream per (step, sender), so a frame's fate can
        // never depend on who else transmitted. Gated contention media
        // deliver the active set exactly while folding the retired
        // population in statistically (per-(step, sender) and
        // per-(step, receiver, sender) streams). Everything else —
        // and every eager round — evaluates the full sender set on the
        // sequential medium stream.
        self.delivery.reset(self.topo.len());
        if self.medium.independent_fates() {
            for &s in &self.senders_buf {
                let mut rng = self.core.medium_rng(self.step, s);
                self.medium
                    .deliver_from(&self.topo, s, &mut rng, &mut self.delivery);
            }
        } else if !eager && self.medium.gated_contention() {
            let streams = self.core.contention_streams(self.step);
            let occ = self
                .core
                .table
                .occupancy
                .as_ref()
                .expect("gated contention maintains an occupancy summary");
            self.medium.deliver_occupied_into(
                &self.topo,
                &self.senders_buf,
                occ,
                &streams,
                &mut self.delivery,
            );
        } else {
            self.medium.deliver_into(
                &self.topo,
                &self.senders_buf,
                &mut self.medium_rng,
                &mut self.delivery,
            );
        }

        // Phase 4: the active set — nodes already dirty plus receivers
        // of a beacon epoch they have not incorporated yet. The
        // freshness test is the branch-lean epoch-compare kernel over
        // the receiver's contiguous reception row.
        if !eager {
            let table = &mut self.core.table;
            let topo = &self.topo;
            for &r in &self.delivery.touched {
                if kernels::any_fresh(
                    table.heard.row(r.index()),
                    &table.epoch,
                    topo.neighbors(r),
                    &self.delivery.heard[r.index()],
                ) {
                    table.update_dirty.insert(r);
                }
            }
        }
        self.core
            .table
            .update_dirty
            .drain_sorted_into(&mut self.active_buf);

        // Phase 5: per-node execution — cached-copy refresh for heard
        // frames, then one pass of guarded assignments. Nodes only ever
        // touch their own state and read frozen beacons, so per-node
        // processing is equivalent to the classic all-receives-then-
        // all-updates phasing — and embarrassingly parallel.
        let receives = self.active_pass(eager);

        // Phase 6: retire senders every neighbor has caught up with. A
        // retiring sender under a contention medium starts occupying
        // its slot statistically instead of transmitting for real.
        if !eager {
            for &s in &self.senders_buf {
                if self.core.all_caught_up(&self.topo, s) {
                    self.core.table.send_pending.remove(s);
                    if let Some(occ) = &mut self.core.table.occupancy {
                        occ.occupy(s, &self.topo);
                    }
                }
            }
            // Forced marks are consumed by the change detection above.
            self.core.table.forced_changed.clear();
        }

        self.last_activity = StepActivity {
            senders: self.senders_buf.len(),
            frames_attempted: self.delivery.attempted,
            frames_delivered: self.delivery.delivered,
            receives,
            updates: self.active_buf.len(),
            changed: self.core.table.changed.len(),
        };
        self.messages_total += self.senders_buf.len() as u64;
        self.step += 1;
        self.step
    }

    /// The phase-5 pass. Chunk `i` of the sorted active set owns the
    /// nodes up to chunk `i + 1`'s first node, so the state column and
    /// the reception arena split there into disjoint windows. The merge
    /// appends the shards' changed lists in shard order — the serial
    /// order — so any shard count replays the one-shard (serial) loop.
    fn active_pass(&mut self, eager: bool) -> usize {
        let n_active = self.active_buf.len();
        let chunk = n_active.div_ceil(self.shard_count(n_active)).max(1);
        let shards = n_active.div_ceil(chunk).max(1);
        if self.shard_scratch.len() < shards {
            self.shard_scratch.resize_with(shards, || ShardScratch {
                before: None,
                changed: Vec::new(),
                receives: 0,
            });
        }
        let (now, update_base, active) = (self.step, self.core.update_base, &self.active_buf);
        let (protocol, topo, delivery) = (&self.protocol, &self.topo, &self.delivery);
        let table = &mut self.core.table;
        let n = table.states.len();
        let (mut states, mut heard, mut base) =
            (&mut table.states[..], Some(table.heard.rows_mut()), 0);
        let work = self.shard_scratch[..shards]
            .iter_mut()
            .enumerate()
            .map(|(i, scratch)| {
                let end = active.get((i + 1) * chunk).map_or(n, |p| p.index());
                let (own_states, rest) = std::mem::take(&mut states).split_at_mut(end - base);
                states = rest;
                let (own_heard, rest) = heard.take().expect("one window left").split_at(end);
                heard = Some(rest);
                let nodes = &active[(i * chunk).min(n_active)..((i + 1) * chunk).min(n_active)];
                let shard = Shard {
                    nodes,
                    base,
                    states: own_states,
                    heard: own_heard,
                    scratch,
                };
                base = end;
                shard
            });
        let (beacons, epoch, forced) = (&table.beacons, &table.epoch, &table.forced_changed);
        run_sharded(work, |mut shard: Shard<'_, P>| {
            let scratch = &mut *shard.scratch;
            scratch.changed.clear();
            scratch.receives = 0;
            for &p in shard.nodes {
                let state = &mut shard.states[p.index() - shard.base];
                let row = shard.heard.row_mut(p.index());
                if !eager {
                    match &mut scratch.before {
                        Some(s) => s.clone_from(state),
                        None => scratch.before = Some(state.clone()),
                    }
                }
                // The sorted-join kernel merges the delivered-sender
                // list with the adjacency list in one sweep per node.
                kernels::sorted_positions(
                    topo.neighbors(p),
                    &delivery.heard[p.index()],
                    |idx, s| {
                        let e = epoch[s.index()];
                        // Eager mode processes every delivered frame
                        // (classic semantics); gated mode skips
                        // re-receptions of an already-incorporated beacon,
                        // which the silence contract makes state no-ops.
                        if eager || row[idx] != e {
                            row[idx] = e;
                            protocol.receive(p, state, s, &beacons[s.index()], now);
                            scratch.receives += 1;
                        }
                    },
                );
                let mut rng = split_rng(update_base, now, u64::from(p.value()));
                protocol.update(p, state, now, &mut rng);
                if !eager && (forced.contains(p) || scratch.before.as_ref() != Some(state)) {
                    scratch.changed.push(p);
                }
            }
        });
        let mut receives = 0;
        for scratch in &self.shard_scratch[..shards] {
            receives += scratch.receives;
            table.changed.extend_from_slice(&scratch.changed);
        }
        for &p in &table.changed {
            table.update_dirty.insert(p);
            table.beacon_stale.insert(p);
        }
        receives
    }

    /// Runs `steps` synchronous steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Low-level: runs until the projection of every node state is
    /// unchanged for `quiet` consecutive steps, or the absolute step
    /// count reaches `max_steps`.
    ///
    /// Returns `Some(step)` — the step count after which the projection
    /// last changed (the *stabilization time* in steps) — or `None` on
    /// timeout. Prefer [`Network::run_to`] with
    /// [`StopWhen::stable_for`], which uses the protocol's canonical
    /// [`Observable`] projection instead of a caller-supplied closure.
    pub fn run_until_stable<K, F>(
        &mut self,
        mut project: F,
        quiet: u64,
        max_steps: u64,
    ) -> Option<u64>
    where
        K: PartialEq + Clone,
        F: FnMut(NodeId, &P::State) -> K,
    {
        let mut tracker = StabilityTracker::new(quiet);
        let mut buf: Vec<K> = Vec::with_capacity(self.core.table.states.len());
        let mut snapshot = |states: &[P::State], buf: &mut Vec<K>| {
            buf.clear();
            buf.extend(
                states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| project(NodeId::new(i as u32), s)),
            );
        };
        snapshot(&self.core.table.states, &mut buf);
        tracker.observe_slice(self.step, &buf);
        while self.step < max_steps {
            self.step();
            snapshot(&self.core.table.states, &mut buf);
            if tracker.observe_slice(self.step, &buf) {
                return Some(tracker.last_change());
            }
        }
        None
    }

    /// Current step count.
    pub fn now(&self) -> u64 {
        self.step
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Replaces the topology (same node count), e.g. after a mobility
    /// tick moved nodes. States are preserved: the protocol must cope
    /// with neighbors appearing and disappearing — that is the point.
    ///
    /// A wholesale swap carries no link-level delta, so it conservatively
    /// reschedules every node (and fires no [`Protocol::link_down`]
    /// notifications); incremental paths — mobility moves, scripted
    /// isolation — stay surgical.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeCountMismatch`] if the node count
    /// changes: protocol state is indexed by node, so nodes cannot be
    /// added or removed mid-run.
    pub fn set_topology(&mut self, topo: Topology) -> Result<(), SimError> {
        self.faults
            .set_topology(topo, &mut self.topo, &mut self.core)?;
        self.env_changed = true;
        Ok(())
    }

    /// Applies incremental node moves to the simulated topology
    /// (unit-disk only), waking exactly the nodes whose links changed.
    /// Returns the link churn.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Point2)]) -> TopologyDelta {
        let delta = self.topo.apply_moves(moves);
        self.apply_delta(&delta);
        delta
    }

    /// All node states, indexed by [`NodeId`].
    pub fn states(&self) -> &[P::State] {
        &self.core.table.states
    }

    /// The state of one node.
    pub fn state(&self, p: NodeId) -> &P::State {
        &self.core.table.states[p.index()]
    }

    /// Mutable state access (used by hand-written fault scenarios).
    /// The node is rescheduled: external mutation is a fault.
    pub fn state_mut(&mut self, p: NodeId) -> &mut P::State {
        self.core.wake_mutated(p, &self.topo);
        &mut self.core.table.states[p.index()]
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Severs every link of `p` by removing its edges — the node's
    /// radio goes dark but its state survives (crash of the *link*
    /// layer). Fires [`Protocol::link_down`] on both endpoints of every
    /// severed link. Use [`Network::set_topology`] to restore
    /// connectivity.
    pub fn isolate(&mut self, p: NodeId) {
        self.faults
            .isolate(p, &self.protocol, &mut self.topo, &mut self.core);
        self.env_changed = true;
    }
}

impl<P: Protocol, M: Medium> Install<P> for Network<P, M> {
    fn install_slots(&mut self) -> (&mut FaultEngine<P>, &mut Dynamics) {
        (&mut self.faults, &mut self.dynamics)
    }
}

impl<P: Protocol, M: Medium> RoundClock<P> for Network<P, M> {
    fn step(&mut self) -> u64 {
        Network::step(self)
    }
    fn now(&self) -> u64 {
        self.step
    }
    fn is_gated(&self) -> bool {
        Network::is_gated(self)
    }
    fn view(&self) -> (&P, &Topology, &ActivityCore<P>, bool) {
        (&self.protocol, &self.topo, &self.core, self.env_changed)
    }
}

impl<P: Observable, M: Medium> Network<P, M> {
    /// The observable output of every node.
    pub fn outputs(&self) -> Vec<P::Output> {
        let mut buf = Vec::new();
        self.core.outputs_into(&self.protocol, &mut buf);
        buf
    }

    /// Runs until `stop` is satisfied and reports what happened — the
    /// primary run method of the [`crate::Scenario`] API.
    ///
    /// The condition is checked before the first step and after every
    /// step. A condition with no [`StopWhen::MaxSteps`] budget that
    /// never holds runs forever; every long-running experiment should
    /// carry a budget (see [`StopWhen::within`]).
    ///
    /// Under gated scheduling the per-step evaluation is incremental: a
    /// quiescent step extends stability streaks and reuses memoized
    /// predicate verdicts without projecting a single output —
    /// [`StopWhen::StableFor`] effectively reads "dirty set empty".
    ///
    /// # Examples
    ///
    /// See the crate-level example.
    pub fn run_to(&mut self, stop: &StopWhen<P>) -> RunReport {
        crate::stop::run_to(self, stop)
    }
}

impl<P: Corruptible, M: Medium> Network<P, M> {
    /// Corrupts the state of one node arbitrarily.
    pub fn corrupt(&mut self, p: NodeId) {
        self.inject(&Fault::CorruptNode(p))
            .expect("corruption keeps the node count");
    }

    /// Corrupts every node: the adversarial "arbitrary initial
    /// configuration" of the self-stabilization definition.
    pub fn corrupt_all(&mut self) {
        self.inject(&Fault::CorruptAll)
            .expect("corruption keeps the node count");
    }

    /// Corrupts a deterministic pseudo-random subset of about
    /// `fraction` of the nodes; returns how many were corrupted.
    ///
    /// The subset is drawn from a dedicated fault stream, so injecting
    /// faults never perturbs frame-delivery randomness: two runs with
    /// the same seed see identical deliveries whether or not one of
    /// them injects faults.
    pub fn corrupt_fraction(&mut self, fraction: f64) -> usize {
        self.inject(&Fault::CorruptFraction(fraction))
            .expect("corruption keeps the node count");
        self.faults.woken.len()
    }

    /// Applies one [`Fault`] right now — the entry point the chaos
    /// harness uses to drive unscripted campaigns. Timed second phases
    /// (resurrection, healing, lie expiry) are scheduled as followups
    /// and fire at the start of their due step, before that step's
    /// scripted faults and sends.
    ///
    /// Victims must be in range (see
    /// [`crate::FaultPlan::validate_for`] for pre-run checking of whole
    /// plans).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] for a [`Fault::SetTopology`]
    /// that changes the node count.
    pub fn inject(&mut self, fault: &Fault) -> Result<(), SimError> {
        self.faults.arm_corruptor();
        self.faults.dispatch(
            fault,
            self.step,
            &self.protocol,
            &mut self.topo,
            &mut self.core,
        )?;
        self.env_changed = true;
        Ok(())
    }

    /// Corrupts `p` **without** waking it — a deliberately broken wake
    /// rule. Exists only so the certifier's liveness audit can be
    /// demonstrated to catch exactly this class of engine bug; never
    /// use it to model a fault.
    #[doc(hidden)]
    pub fn corrupt_silently(&mut self, p: NodeId) {
        let mut rng = self.core.corrupt_rng(p);
        self.protocol
            .corrupt(p, &mut self.core.table.states[p.index()], &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use mwn_radio::{BernoulliLoss, PerfectMedium};

    /// Stabilizes to the maximum id seen; corruption plants a huge fake
    /// value that only TTL-free re-flooding would *not* fix — so we use
    /// it to test corrupt/convergence mechanics, not the protocol.
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
            // Re-asserting the node's own id is what makes the flood
            // self-stabilizing: corrupted state cannot erase the source.
            *state = (*state).max(node.value());
        }
    }
    impl Corruptible for MaxFlood {
        fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
            *state = 0;
        }
    }
    impl Observable for MaxFlood {
        type Output = u32;
        fn output(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
    }

    /// The same flood with the silence contract declared: receive of an
    /// already-incorporated beacon and update at a fixpoint are no-ops.
    struct GatedFlood;
    impl Protocol for GatedFlood {
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
        fn activity(&self) -> Activity {
            Activity::Gated
        }
        fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
            old != new
        }
    }
    impl Observable for GatedFlood {
        type Output = u32;
        fn output(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
    }
    impl Corruptible for GatedFlood {
        fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
            *state = 0;
        }
    }

    #[test]
    fn max_flood_converges_on_a_line() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 1);
        let report = net.run_to(&StopWhen::stable_for(3).within(100));
        assert!(net.states().iter().all(|&s| s == 5));
        // Information moves one hop per step: node 0 is 5 hops from node 5.
        assert_eq!(report.expect_stable("converges"), 5);
        assert!(!report.timed_out);
    }

    #[test]
    fn one_hop_per_step_information_speed() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(10), 1);
        net.run(3);
        // After 3 steps the max id (9) can have travelled exactly 3 hops.
        assert_eq!(*net.state(NodeId::new(6)), 9);
        assert_eq!(*net.state(NodeId::new(5)), 8);
    }

    #[test]
    fn lossy_medium_still_converges() {
        let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.3), builders::line(6), 3);
        let report = net.run_to(&StopWhen::stable_for(10).within(2000));
        assert!(report.is_stable(), "τ = 0.3 must still converge w.p. 1");
        assert!(net.states().iter().all(|&s| s == 5));
    }

    #[test]
    fn corruption_then_reconvergence() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(8), 4);
        net.run(10);
        net.corrupt_all();
        assert!(net.states().iter().all(|&s| s == 0));
        net.run(10);
        assert!(net.states().iter().all(|&s| s == 7));
    }

    #[test]
    fn corrupt_fraction_reports_count() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(50), 5);
        let corrupted = net.corrupt_fraction(0.5);
        assert!(corrupted > 5 && corrupted < 45, "got {corrupted}");
    }

    #[test]
    fn fault_stream_is_independent_of_delivery_stream() {
        // Regression: corrupt_fraction used to draw from the medium's
        // stream, so "same seed + one corruption call" changed which
        // frames were later lost. With a dedicated fault stream, a run
        // that injects (zero-effect) faults sees identical deliveries.
        let run = |inject: bool| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(16), 9);
            net.run(3);
            if inject {
                // Draws from the fault stream but corrupts nobody.
                assert_eq!(net.corrupt_fraction(0.0), 0);
            }
            net.run(12);
            net.states().to_vec()
        };
        assert_eq!(
            run(true),
            run(false),
            "fault injection must not perturb delivery randomness"
        );
    }

    #[test]
    fn isolation_stops_information_flow() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 6);
        net.isolate(NodeId::new(2)); // cut the middle
        net.run(20);
        // Max id 4 cannot cross the cut.
        assert_eq!(*net.state(NodeId::new(0)), 1);
        assert_eq!(*net.state(NodeId::new(1)), 1);
    }

    #[test]
    fn runs_are_reproducible_from_seed() {
        let run = |seed| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(12), seed);
            net.run(7);
            net.states().to_vec()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn run_to_predicate() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let report = net
            .run_to(&StopWhen::predicate(|_, states| states.iter().all(|&s| s == 3)).within(100));
        assert!(report.satisfied && !report.timed_out);
        assert_eq!(report.end_step, 3);
    }

    #[test]
    fn run_to_budget_reports_timeout() {
        // A predicate that can never hold: only the budget fires.
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let report = net.run_to(&StopWhen::predicate(|_, states| states.contains(&99)).within(10));
        assert!(report.timed_out);
        assert!(!report.satisfied);
        assert_eq!(report.steps, 10);
        assert_eq!(report.stabilized, None);
    }

    #[test]
    fn run_to_composes_all_and_any() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 2);
        // Stable AND at least 8 steps executed: forces the run past the
        // 5-step stabilization point.
        let report = net.run_to(
            &StopWhen::stable_for(2)
                .and(StopWhen::max_steps(8))
                .within(100),
        );
        assert_eq!(report.expect_stable("line flood stabilizes"), 5);
        assert!(report.steps >= 8);
    }

    #[test]
    fn stability_streak_spans_run_to_restarts() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 3);
        net.run_to(&StopWhen::stable_for(3).within(100));
        // Re-arming on an already-stable network satisfies quickly and
        // reports the (unchanged-since) current step as last change.
        let report = net.run_to(&StopWhen::stable_for(2).within(10));
        assert!(report.is_stable());
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn set_topology_rejects_resize() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let err = net.set_topology(builders::line(5)).unwrap_err();
        assert_eq!(
            err,
            SimError::NodeCountMismatch {
                expected: 4,
                got: 5
            }
        );
        // The rejected swap left the network untouched.
        assert_eq!(net.topology().len(), 4);
        assert!(net.set_topology(builders::line(4)).is_ok());
    }

    #[test]
    fn gated_flood_goes_silent_after_stabilization() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(6), 1);
        assert!(net.is_gated());
        let report = net.run_to(&StopWhen::stable_for(3).within(100));
        assert_eq!(report.expect_stable("converges"), 5);
        let sent_before = net.messages_total();
        net.run(25);
        let tail = net.last_activity();
        assert_eq!(tail.senders, 0, "silent network must not broadcast");
        assert_eq!(tail.updates, 0, "silent network must not run guards");
        assert_eq!(tail.frames_attempted, 0);
        assert_eq!(
            net.messages_total(),
            sent_before,
            "message count frozen after stabilization"
        );
    }

    #[test]
    fn gated_equals_eager_on_perfect_medium() {
        let run = |eager: bool| {
            let mut net = Network::new(GatedFlood, PerfectMedium, builders::ring(9), 5);
            net.set_eager(eager);
            let report = net.run_to(&StopWhen::stable_for(4).within(200));
            (report, net.states().to_vec())
        };
        assert_eq!(run(true), run(false), "gating must be unobservable");
    }

    #[test]
    fn gated_equals_eager_under_loss_and_corruption() {
        let run = |eager: bool| {
            let mut net = Network::new(GatedFlood, BernoulliLoss::new(0.6), builders::ring(10), 13);
            net.set_eager(eager);
            net.run(5);
            net.corrupt_all();
            let report = net.run_to(&StopWhen::stable_for(8).within(1000));
            (report, net.states().to_vec(), net.now())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn eager_protocols_never_gate() {
        let net = Network::new(MaxFlood, PerfectMedium, builders::line(3), 0);
        assert!(!net.is_gated(), "Activity::Eager is the default contract");
    }

    #[test]
    fn gated_wakes_up_after_corruption() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(5), 2);
        net.run_to(&StopWhen::stable_for(2).within(100));
        net.run(3);
        assert_eq!(net.last_activity().senders, 0);
        net.corrupt(NodeId::new(4));
        assert_eq!(*net.state(NodeId::new(4)), 0);
        let report = net.run_to(&StopWhen::stable_for(2).within(100));
        assert!(report.is_stable());
        assert!(net.states().iter().all(|&s| s == 4), "re-flooded the max");
    }

    #[test]
    fn step_activity_counts_the_cold_start() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(4), 3);
        net.step();
        let first = net.last_activity();
        assert_eq!(first.senders, 4, "cold start: everyone broadcasts");
        assert_eq!(first.updates, 4);
        assert_eq!(first.frames_attempted, 6, "2·|E| in-range copies");
        assert_eq!(net.messages_total(), 4);
    }

    #[test]
    fn sharded_steps_equal_serial_steps() {
        // The deterministic owner-computes partition: every forced
        // shard count must reproduce the serial trajectory byte for
        // byte, through corruption and re-stabilization.
        let run = |shards: Option<usize>| {
            let mut net = Network::new(GatedFlood, BernoulliLoss::new(0.7), builders::ring(24), 8);
            net.set_shards(shards);
            net.run(6);
            net.corrupt_all();
            let report = net.run_to(&StopWhen::stable_for(5).within(500));
            (report, net.states().to_vec(), net.messages_total())
        };
        let serial = run(Some(1));
        for shards in [2, 3, 4, 7] {
            assert_eq!(serial, run(Some(shards)), "{shards} shards diverged");
        }
        assert_eq!(serial, run(None));
    }

    #[test]
    fn pool_workers_step_on_one_auto_shard() {
        // A network stepped on a run_pooled worker must not nest shard
        // threads inside the pool; forced counts are still honoured.
        let job = |seed: u64| {
            let mut net = Network::new(
                GatedFlood,
                BernoulliLoss::new(0.6),
                builders::ring(40),
                seed,
            );
            let auto = net.shard_count(AUTO_SHARD_MIN_ACTIVE);
            net.set_shards(Some(4));
            let forced = net.shard_count(AUTO_SHARD_MIN_ACTIVE);
            net.set_shards(None);
            net.run(5);
            net.corrupt_all();
            net.run(10);
            (auto, forced, net.states().to_vec())
        };
        let seeds = [5u64, 6];
        let serial = crate::Sweep::with_seeds(seeds.to_vec()).serial().map(job);
        let pooled = crate::run_pooled(2, 2, |i| job(seeds[i]));
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(
                s.0,
                host_parallelism(),
                "the calling thread shards by host width"
            );
            assert_eq!(p.0, 1, "a pool worker resolves Auto to one shard");
            assert_eq!((s.1, p.1), (4, 4), "forced counts hold everywhere");
            assert_eq!(s.2, p.2, "pooled runs replay the serial Sweep");
        }
    }

    #[test]
    fn sharded_eager_equals_serial_eager() {
        let run = |shards: usize| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(17), 21);
            net.set_shards(Some(shards));
            net.run(25);
            net.states().to_vec()
        };
        assert_eq!(run(1), run(4));
    }
}
