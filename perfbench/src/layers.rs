//! The per-layer metrics of the traced run. Every workload prints the
//! whole set; a layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

use crate::report::Metric;
use crate::trace::{Call, Meters, Outer};

/// Every per-layer metric: name, unit, what it is.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("graph.poisson_s", "s", "builders::poisson, summed"),
    (
        "graph.components_s",
        "s",
        "traversal::connected_components, summed",
    ),
    (
        "sim.step_self_s",
        "s",
        "round-driver run_to/step/advance time minus protocol, medium and view children",
    ),
    (
        "sim.updates",
        "count",
        "Protocol::update calls inside round-driver calls",
    ),
    (
        "sim.receives",
        "count",
        "Protocol::receive calls inside round-driver calls",
    ),
    (
        "sim.senders",
        "count",
        "frames sent through the medium (one per sender per step)",
    ),
    (
        "sim.changed",
        "count",
        "node state changes (summed StepActivity.changed; gated runs only)",
    ),
    (
        "sim.useful_update_frac",
        "ratio",
        "sim.changed / sim.updates",
    ),
    (
        "sim.receives_per_node_step",
        "ratio",
        "receives / (nodes x steps): neighbour reads per node per step",
    ),
    (
        "sim.sweep.busy_frac",
        "ratio",
        "sum of Sweep job seconds / (sweep wall x workers)",
    ),
    ("events.processed", "count", "EventDriver::events_processed"),
    (
        "events.per_period",
        "ratio",
        "events per beacon period advanced",
    ),
    (
        "events.self_s",
        "s",
        "event-driver advance time minus protocol and medium children",
    ),
    ("actors.step_s", "s", "actor-driver advance wall time"),
    (
        "actors.protocol_busy_s",
        "s",
        "protocol CPU time inside actor advance (all threads)",
    ),
    (
        "actors.receives",
        "count",
        "Protocol::receive calls inside actor advance",
    ),
    (
        "faults.injected",
        "count",
        "faults injected (ChaosHarness::inject, corrupt_all)",
    ),
    ("faults.inject_s", "s", "time inside fault injection calls"),
    (
        "radio.deliver_s",
        "s",
        "time inside Medium delivery methods (CPU, all threads)",
    ),
    ("radio.deliver_calls", "count", "Medium delivery calls"),
    (
        "radio.frames_attempted",
        "count",
        "frame copies in range of a sender",
    ),
    ("radio.frames_delivered", "count", "frame copies received"),
    (
        "radio.delivered_frac",
        "ratio",
        "frames delivered / attempted",
    ),
    (
        "radio.bytes_on_air",
        "B",
        "WireBeacon-encoded bytes of every frame sent",
    ),
    (
        "radio.air_bytes_per_node_step",
        "B",
        "bytes on air / (nodes x steps)",
    ),
    (
        "core.receive_s",
        "s",
        "Protocol::receive time (CPU, all threads)",
    ),
    ("core.receives", "count", "Protocol::receive calls"),
    (
        "core.update_s",
        "s",
        "Protocol::update time (CPU, all threads)",
    ),
    ("core.updates", "count", "Protocol::update calls"),
    (
        "core.beacon_s",
        "s",
        "beacon, beacon_into and beacon_changed time",
    ),
    ("core.output_s", "s", "Observable::output time"),
    ("core.other_s", "s", "init, corrupt and link_down time"),
    ("core.ns_per_update", "ns", "core.update_s / core.updates"),
    (
        "core.ns_per_receive",
        "ns",
        "core.receive_s / core.receives",
    ),
    (
        "core.extract_s",
        "s",
        "extract_clustering time in view factories",
    ),
    (
        "core.routes_s",
        "s",
        "HierarchicalRoutes::try_new time in view factories",
    ),
    ("core.route_builds", "count", "routing views built"),
    (
        "core.route_lookups",
        "count",
        "RoutingView::route and next_hop calls",
    ),
    ("core.lookup_s", "s", "RoutingView lookup time"),
    (
        "traffic.on_step_s",
        "s",
        "TrafficPlane::on_step time minus route lookups",
    ),
    (
        "traffic.in_flight.mean",
        "packets",
        "packets in flight, mean over steps",
    ),
    (
        "traffic.route_resolutions",
        "count",
        "TrafficReport.route_resolutions",
    ),
    ("traffic.view_calls", "count", "view factory invocations"),
    (
        "traffic.dropped.stranded",
        "packets",
        "TTL death with no usable hop",
    ),
    (
        "traffic.dropped.expired",
        "packets",
        "TTL death with a usable hop",
    ),
    (
        "traffic.dropped.overflow",
        "packets",
        "dropped at a full queue",
    ),
    ("chaos.self_s", "s", "certify time minus harness calls"),
    (
        "chaos.outputs_calls",
        "count",
        "ChaosHarness::outputs calls",
    ),
    ("chaos.outputs_s", "s", "time inside ChaosHarness::outputs"),
    (
        "chaos.closure_violations",
        "count",
        "closure checks violated, all cells",
    ),
    (
        "chaos.stale_after_audit",
        "count",
        "nodes healed by the liveness audit, all cells",
    ),
    (
        "chaos.restabilized_frac",
        "ratio",
        "restabilized / injected, all cells",
    ),
    (
        "chaos.cell_s.round",
        "s",
        "round + SlottedCsma(8) cell, certify wall time",
    ),
    (
        "chaos.cell_s.events",
        "s",
        "events + SlottedCsma(8) cell, certify wall time",
    ),
    (
        "chaos.cell_s.actors",
        "s",
        "actors + BernoulliLoss cell, certify wall time",
    ),
    (
        "trace.encode_s",
        "s",
        "the tracer's own beacon encoding (excluded from self times)",
    ),
    (
        "trace.overhead_s",
        "s",
        "traced measured time minus untraced measured time",
    ),
    (
        "trace.overhead_frac",
        "ratio",
        "trace.overhead_s / untraced measured time",
    ),
];

/// Accumulates the per-layer metrics of one traced run.
#[derive(Clone, Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }
}

const NS: f64 = 1e-9;

impl Layers {
    /// Adds `v` to metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] (a typo in the bench).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) += v;
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.add(name, 0.0);
        self.0.insert(name, v);
    }

    /// Reads metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one driver's inner-call totals and frame counters in.
    pub fn meters(&mut self, m: &Meters) {
        let s = m.snap();
        self.add("core.receive_s", s.busy(&[Call::Receive]) as f64 * NS);
        self.add("core.receives", s.count(Call::Receive) as f64);
        self.add("core.update_s", s.busy(&[Call::Update]) as f64 * NS);
        self.add("core.updates", s.count(Call::Update) as f64);
        self.add("core.beacon_s", s.busy(&[Call::Beacon]) as f64 * NS);
        self.add("core.output_s", s.busy(&[Call::Output]) as f64 * NS);
        self.add("core.other_s", s.busy(&[Call::ProtocolOther]) as f64 * NS);
        self.add("core.extract_s", s.busy(&[Call::Extract]) as f64 * NS);
        self.add("core.routes_s", s.busy(&[Call::Routes]) as f64 * NS);
        self.add("core.route_builds", s.count(Call::Routes) as f64);
        self.add("core.route_lookups", s.count(Call::Lookup) as f64);
        self.add("core.lookup_s", s.busy(&[Call::Lookup]) as f64 * NS);
        self.add("radio.deliver_s", s.busy(&[Call::Deliver]) as f64 * NS);
        self.add("radio.deliver_calls", s.count(Call::Deliver) as f64);
        self.add("trace.encode_s", s.busy(&[Call::Encode]) as f64 * NS);
        self.add(
            "radio.frames_attempted",
            m.frames_attempted.load(Relaxed) as f64,
        );
        self.add(
            "radio.frames_delivered",
            m.frames_delivered.load(Relaxed) as f64,
        );
        self.add("radio.bytes_on_air", m.bytes_on_air.load(Relaxed) as f64);
        self.add("sim.senders", m.frames_sent.load(Relaxed) as f64);
    }

    /// Folds a round-driver outer call (`run_to`, `step`, `advance` on
    /// a `Network`) in: its self time and the protocol calls inside.
    pub fn round_driver(&mut self, o: &Outer) {
        self.add("sim.step_self_s", o.self_ns() as f64 * NS);
        self.add("sim.updates", o.inner.count(Call::Update) as f64);
        self.add("sim.receives", o.inner.count(Call::Receive) as f64);
    }

    /// Derives the ratios from the totals; `node_steps` is Σ nodes ×
    /// steps the drivers advanced.
    pub fn finish(&mut self, node_steps: f64) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.set(
            "core.ns_per_update",
            ratio(self.get("core.update_s") * 1e9, self.get("core.updates")),
        );
        self.set(
            "core.ns_per_receive",
            ratio(self.get("core.receive_s") * 1e9, self.get("core.receives")),
        );
        self.set(
            "radio.delivered_frac",
            ratio(
                self.get("radio.frames_delivered"),
                self.get("radio.frames_attempted"),
            ),
        );
        self.set(
            "sim.useful_update_frac",
            ratio(self.get("sim.changed"), self.get("sim.updates")),
        );
        self.set(
            "sim.receives_per_node_step",
            ratio(self.get("core.receives"), node_steps),
        );
        self.set(
            "radio.air_bytes_per_node_step",
            ratio(self.get("radio.bytes_on_air"), node_steps),
        );
    }

    /// The metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, note)| {
                let host = unit == "s" || name.starts_with("trace.");
                let m = if host { Metric::host } else { Metric::sim };
                m(name, self.get(name), unit, note)
            })
            .collect()
    }
}
