//! `traffic-churn`: a stabilized 10k network carrying Zipf × Pareto
//! flows over its giant component, through repeated hottest-sink
//! outages (`isolate`, then `set_topology` to restore). Cycle `c`
//! takes down the `c`-th most popular sink, so the restabilization
//! mean is taken over many distinct outages.
//!
//! The step loop is `mwn_traffic::run_rounds` unrolled — `step`, then
//! the view factory when the plane needs routes, then `on_step` — so
//! that each is a separate outer call; a test checks it against
//! `run_rounds` report for report.

use std::sync::Arc;
use std::time::Instant;

use mwn_cluster::{
    extract_clustering, oracle, ClusterConfig, ClusterState, DensityCluster, HierarchicalRoutes,
    OracleConfig, RoutingView,
};
use mwn_graph::{traversal, NodeId, Topology};
use mwn_radio::{Medium, PerfectMedium};
use mwn_sim::{Network, Protocol, Scenario, StopWhen};
use mwn_traffic::{DemandModel, FlowSpec, TrafficConfig, TrafficPlane, TrafficReport};

use crate::common::{deploy, radius_for, secs, Ctx, EndToEnd, Outcome, Sample};
use crate::report::Metric;
use crate::trace::{Call, Meters, Span, SpanRec};
use crate::wrap::{TracedMedium, TracedProtocol, TracedView};

const LAMBDA: f64 = 10_000.0;
const DEGREE: f64 = 8.0;
const SETUPS: usize = 3;
/// Steps of one outage cycle: normal operation, the hottest sink
/// isolated, then restored.
const NORMAL: u64 = 40;
const OUTAGE: u64 = 24;
const RESTORE: u64 = 40;
/// Host seconds one cycle takes on the reference host (2 vCPU).
const NOMINAL_CYCLE_S: f64 = 0.1;

/// The data-plane configuration: the TTL outlives an outage plus the
/// control plane's restabilization, queues are deep.
pub const TRAFFIC: TrafficConfig = TrafficConfig {
    queue_capacity: 1024,
    service_rate: 32,
    ttl: 512,
    inject_rate: 1,
};

/// Outage cycles for a nominal run of `seconds`.
pub fn cycles(seconds: u64) -> u64 {
    ((seconds as f64 / NOMINAL_CYCLE_S).round() as u64).max(4)
}

/// The workload's flows over the giant `component`, sized so every
/// flow has finished injecting by `horizon` steps; starts are spread
/// over the run, so the load is level after a short ramp.
pub fn flows(component: &[NodeId], horizon: u64, seed: u64) -> Vec<FlowSpec> {
    let model = DemandModel {
        flows: (component.len() / 16).max(8),
        zipf_exponent: 0.9,
        pareto_shape: 1.5,
        mean_packets: horizon as f64 / 16.0,
        max_packets: horizon / 4,
        start_spread: horizon - horizon / 4,
    };
    model
        .generate(component.len(), seed)
        .into_iter()
        .map(|f| FlowSpec {
            src: component[f.src.index()],
            dst: component[f.dst.index()],
            ..f
        })
        .collect()
}

/// Every destination of `flows`, most flows first (ties by node id):
/// cycle `c` takes sink `c` down, wrapping around.
pub fn hottest_sinks(flows: &[FlowSpec]) -> Vec<NodeId> {
    let mut count = std::collections::BTreeMap::new();
    for f in flows {
        *count.entry(f.dst).or_insert(0usize) += 1;
    }
    let mut sinks: Vec<(usize, NodeId)> = count.into_iter().map(|(d, k)| (k, d)).collect();
    sinks.sort_by_key(|&(k, d)| (std::cmp::Reverse(k), d));
    sinks.into_iter().map(|(_, d)| d).collect()
}

/// Packet-hops of the packets delivered so far.
fn hops(plane: &TrafficPlane) -> f64 {
    let r = plane.report();
    r.delivered as f64 * r.mean_hops
}

/// The view factory's two halves, timed into `meters` when traced.
fn view<R>(
    topo: &Topology,
    states: &[ClusterState],
    meters: Option<&Meters>,
    wrap: impl FnOnce(HierarchicalRoutes) -> R,
) -> Option<R> {
    let clustering = match meters {
        Some(m) => m.time(Call::Extract, || extract_clustering(states)),
        None => extract_clustering(states),
    }?;
    let routes = match meters {
        Some(m) => m.time(Call::Routes, || {
            HierarchicalRoutes::try_new(topo, clustering)
        }),
        None => HierarchicalRoutes::try_new(topo, clustering),
    }?;
    Some(wrap(routes))
}

/// The traffic step loop: `run_rounds` unrolled into separate outer
/// calls, with the counters the workload reports.
pub struct Stepper<'a, P: Protocol, M> {
    /// The control plane.
    pub net: &'a mut Network<P, M>,
    /// The data plane.
    pub plane: &'a mut TrafficPlane,
    /// Traced meters, if any.
    pub meters: Option<Arc<Meters>>,
    /// View factory invocations.
    pub view_calls: u64,
    /// Σ packets in flight after each step.
    pub in_flight_sum: u64,
    /// Σ `StepActivity::changed`.
    pub changed: u64,
    /// Steps run.
    pub steps: u64,
}

impl<P, M> Stepper<'_, P, M>
where
    P: Protocol<State = ClusterState>,
    M: Medium,
{
    /// Runs up to `steps` steps on `span` (stopping early once the
    /// plane drains if `until_drained`); returns the offset of the last
    /// step that changed a node's state.
    pub fn run(&mut self, span: &mut Span<'_>, steps: u64, until_drained: bool) -> Option<u64> {
        let mut last_change = None;
        for i in 0..steps {
            let net = &mut *self.net;
            span.call("step", || net.step());
            let changed = net.last_activity().changed;
            if changed > 0 {
                last_change = Some(i + 1);
            }
            self.changed += changed as u64;
            let plane = &mut *self.plane;
            if plane.needs_routes() {
                self.view_calls += 1;
                let m = self.meters.clone();
                let v = span.call("view", || match &m {
                    Some(m) => view(net.topology(), net.states(), Some(m), |r| {
                        Routes::Traced(TracedView::new(r, m.clone()))
                    }),
                    None => view(net.topology(), net.states(), None, Routes::Bare),
                });
                span.call("on_step", || plane.on_step(net.topology(), v.as_ref()));
            } else {
                span.call("on_step", || plane.on_step::<Routes>(net.topology(), None));
            }
            self.in_flight_sum += plane.in_flight() as u64;
            self.steps += 1;
            if until_drained && plane.is_drained() {
                break;
            }
        }
        last_change
    }
}

/// A bare or traced routing view.
pub enum Routes {
    /// Undecorated.
    Bare(HierarchicalRoutes),
    /// Decorated.
    Traced(TracedView<HierarchicalRoutes>),
}

impl RoutingView for Routes {
    fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        match self {
            Routes::Bare(r) => r.route(topo, src, dst),
            Routes::Traced(r) => r.route(topo, src, dst),
        }
    }

    fn next_hop(&self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<NodeId> {
        match self {
            Routes::Bare(r) => r.next_hop(topo, at, dst),
            Routes::Traced(r) => r.next_hop(topo, at, dst),
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, LAMBDA, cycles(ctx.seconds))
}

/// Runs `cycles` outage cycles at intensity `lambda`.
pub fn run_with(ctx: &Ctx, lambda: f64, cycles: u64) -> Outcome {
    let seed = ctx.seed;
    let protocol = || DensityCluster::new(ClusterConfig::default().event_driven());
    if ctx.trace {
        measure(ctx, lambda, cycles, |topo| {
            let m = Arc::new(Meters::new(topo.len()));
            let net = Scenario::new(TracedProtocol::new(protocol(), m.clone()))
                .medium(TracedMedium::new(PerfectMedium, m.clone()))
                .topology(topo)
                .seed(seed)
                .build()
                .expect("generated deployment builds");
            (net, Some(m))
        })
    } else {
        measure(ctx, lambda, cycles, |topo| {
            let net = Scenario::new(protocol())
                .topology(topo)
                .seed(seed)
                .build()
                .expect("generated deployment builds");
            (net, None)
        })
    }
}

fn measure<P, M>(
    ctx: &Ctx,
    lambda: f64,
    cycles: u64,
    build: impl Fn(Topology) -> (Network<P, M>, Option<Arc<Meters>>),
) -> Outcome
where
    P: mwn_sim::Observable<Output = (u32, NodeId, NodeId)> + Protocol<State = ClusterState>,
    M: Medium,
{
    let mut out = Outcome::default();
    let horizon = cycles * (NORMAL + OUTAGE + RESTORE);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (topo, poisson_s) = deploy(lambda, radius_for(lambda, DEGREE), ctx.seed);
        let t1 = Instant::now();
        let mut components = traversal::connected_components(&topo);
        let components_s = secs(t1);
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let giant = components.into_iter().next().unwrap_or_default();
        let (mut net, meters) = build(topo);
        net.run_to(&StopWhen::stable_for(5).within(10_000));
        // Drain trailing beacons so traffic starts on a silent network.
        net.run(5);
        let flows = flows(&giant, horizon, ctx.seed ^ 0x7AFF);
        let mut plane = TrafficPlane::new(net.topology().len(), TRAFFIC);
        plane.add_flows(&flows);
        setups.push(secs(t0));
        out.layers.set("graph.poisson_s", poisson_s);
        out.layers.set("graph.components_s", components_s);
        built = Some((net, meters, plane, flows));
    }
    let (mut net, meters, mut plane, flows) = built.expect("at least one set-up");
    let topo = net.topology().clone();
    let n = topo.len();
    let want = oracle(&topo, &OracleConfig::default());
    if extract_clustering(&net.outputs()).is_none_or(|c| c != want) {
        out.problems
            .push("control plane not at the oracle clustering before traffic".into());
    }
    let sinks = hottest_sinks(&flows);
    let msgs0 = net.messages_total();

    let root = Span::open("traffic-churn", 0, None).close();
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut stab = Vec::new();
    let mut stepper = Stepper {
        net: &mut net,
        plane: &mut plane,
        meters: meters.clone(),
        view_calls: 0,
        in_flight_sum: 0,
        changed: 0,
        steps: 0,
    };
    let mut samples = Vec::new();
    for c in 0..cycles {
        let steps0 = stepper.steps;
        let hops0 = hops(stepper.plane);
        let mut span = Span::open(format!("cycle {c}"), root.id, meters.as_deref());
        stepper.run(&mut span, NORMAL, false);
        let hot = sinks[c as usize % sinks.len()];
        span.call("isolate", || stepper.net.isolate(hot));
        stab.push(stepper.run(&mut span, OUTAGE, false).unwrap_or(0));
        let restored = topo.clone();
        span.call("set_topology", || stepper.net.set_topology(restored))
            .expect("same node count");
        stab.push(stepper.run(&mut span, RESTORE, false).unwrap_or(0));
        let rec = span.close();
        samples.push(Sample {
            secs: rec.dur_ns as f64 * 1e-9,
            ops: 1.0,
            steps: (stepper.steps - steps0) as f64,
            work: hops(stepper.plane) - hops0,
        });
        spans.push(rec);
    }
    let mut span = Span::open("drain", root.id, meters.as_deref());
    stepper.run(&mut span, 4 * TRAFFIC.ttl, true);
    spans.push(span.close());
    let (view_calls, in_flight_sum, changed, steps) = (
        stepper.view_calls,
        stepper.in_flight_sum,
        stepper.changed,
        stepper.steps,
    );

    // Checks, outside the timed region.
    let report: TrafficReport = plane.report();
    let undelivered = report.injected - report.delivered;
    let dropped = report.dropped_stranded + report.dropped_expired + report.dropped_overflow;
    if undelivered != dropped + report.in_flight {
        out.problems
            .push(format!("packets not conserved: {}", report.to_json()));
    }
    if extract_clustering(&net.outputs()).is_none_or(|c| c != want) {
        out.problems
            .push("control plane not at the oracle clustering after the last restore".into());
    }
    out.attempted = report.injected;
    out.failed = undelivered;
    let msgs = net.messages_total() - msgs0;
    out.digest.u64(n as u64);
    out.digest.str(&report.to_json());
    for s in &stab {
        out.digest.u64(*s);
    }
    out.digest.u64(msgs);
    crate::common::digest_outputs(&mut out.digest, &net.outputs());

    let seconds: f64 = spans.iter().map(|s| s.dur_ns as f64 * 1e-9).sum();
    out.measured_s = seconds;
    let e2e = EndToEnd {
        setups: &setups,
        samples: &samples,
        op: "outage cycles (one per sample; the final drain is not sampled)",
        work: "delivered packet-hops",
        stab: (
            stab.iter().sum::<u64>() as f64 / stab.len().max(1) as f64,
            "steps from an isolate or restore to the last state change, mean",
        ),
        messages: (msgs as f64, (n as u64 * steps) as f64),
    };
    out.e2e = e2e.metrics();
    out.extra.extend(e2e.rates());
    out.e2e[0].note = format!("median of {SETUPS} set-ups (deployment, stabilization, flows)");
    let hops = report.delivered as f64 * report.mean_hops;
    out.extra.extend([
        Metric::host(
            "pkt_hops_per_s",
            hops / seconds,
            "1/s",
            "delivered packet-hops / host s",
        ),
        Metric::sim(
            "pkt_latency_steps.p95",
            report.latency_p95,
            "steps",
            "delivered packets",
        ),
        Metric::sim(
            "pkt_delivered",
            report.delivered as f64,
            "packets",
            "of injected",
        ),
        Metric::sim(
            "pkt_dropped",
            dropped as f64,
            "packets",
            format!(
                "stranded {} expired {} overflow {}",
                report.dropped_stranded, report.dropped_expired, report.dropped_overflow
            ),
        ),
    ]);

    let l = &mut out.layers;
    l.set(
        "traffic.in_flight.mean",
        in_flight_sum as f64 / steps.max(1) as f64,
    );
    l.set("traffic.route_resolutions", report.route_resolutions as f64);
    l.set("traffic.view_calls", view_calls as f64);
    l.set("traffic.dropped.stranded", report.dropped_stranded as f64);
    l.set("traffic.dropped.expired", report.dropped_expired as f64);
    l.set("traffic.dropped.overflow", report.dropped_overflow as f64);
    if let Some(m) = &meters {
        l.set("sim.changed", changed as f64);
        for s in &spans {
            l.round_driver(&s.outer("step"));
            l.add(
                "traffic.on_step_s",
                s.outer("on_step").self_ns() as f64 * 1e-9,
            );
        }
        l.meters(m);
    }
    l.finish((n as u64 * steps) as f64);
    out
}
