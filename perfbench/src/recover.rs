//! `recover-10k`: K full recoveries (`corrupt_all`, then `run_to`) of
//! 10k-node deployments on the gated round driver over a perfect
//! medium — the converging hot path at full activation.

use std::sync::Arc;
use std::time::Instant;

use mwn_cluster::{extract_clustering, oracle, ClusterConfig, DensityCluster, OracleConfig};
use mwn_graph::{NodeId, Topology};
use mwn_radio::{Medium, PerfectMedium};
use mwn_sim::{derive_seed, Corruptible, Network, Observable, Scenario, StopWhen};

use crate::common::{deploy, digest_outputs, radius_for, secs, Ctx, EndToEnd, Outcome, Sample};
use crate::report::{median, tail, Metric};
use crate::trace::{Call, Meters, Span};
use crate::wrap::{TracedMedium, TracedProtocol};

const LAMBDA: f64 = 10_000.0;
const DEGREE: f64 = 8.0;
/// Host seconds one recovery takes on the reference host (2 vCPU).
const NOMINAL_RECOVERY_S: f64 = 0.35;
/// Deployments per run; recoveries go round-robin over them, so the
/// figures average over topologies, not one draw.
const DEPLOYMENTS: usize = 4;
const QUIET: u64 = 4;
const BUDGET: u64 = 1_000;

/// Recoveries for a nominal run of `seconds`.
pub fn recoveries(seconds: u64) -> usize {
    ((seconds as f64 / NOMINAL_RECOVERY_S).round() as usize).max(20)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, LAMBDA, recoveries(ctx.seconds))
}

/// Runs `k` recoveries at intensity `lambda` (tests use small ones).
pub fn run_with(ctx: &Ctx, lambda: f64, k: usize) -> Outcome {
    let protocol = || DensityCluster::new(ClusterConfig::default().event_driven());
    let seed = ctx.seed;
    if ctx.trace {
        measure(ctx, lambda, k, |topo| {
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
        measure(ctx, lambda, k, |topo| {
            let net = Scenario::new(protocol())
                .topology(topo)
                .seed(seed)
                .build()
                .expect("generated deployment builds");
            (net, None)
        })
    }
}

type Out = (u32, NodeId, NodeId);

fn measure<P, M>(
    ctx: &Ctx,
    lambda: f64,
    k: usize,
    build: impl Fn(Topology) -> (Network<P, M>, Option<Arc<Meters>>),
) -> Outcome
where
    P: Observable<Output = Out> + Corruptible,
    M: Medium,
{
    let mut out = Outcome::default();
    let radius = radius_for(lambda, DEGREE);
    let stop = StopWhen::stable_for(QUIET).within(BUDGET);
    let root = Span::open("recover-10k", 0, None).close();
    let mut setups = Vec::new();
    let mut times = Vec::with_capacity(k);
    let mut samples = Vec::with_capacity(k);
    let (mut stab_sum, mut node_steps, mut msgs_sum) = (0u64, 0u64, 0u64);
    for d in 0..DEPLOYMENTS {
        let t0 = Instant::now();
        let (topo, poisson_s) = deploy(lambda, radius, derive_seed(ctx.seed, d as u64));
        let (mut net, meters) = build(topo);
        setups.push(secs(t0));
        out.layers.add("graph.poisson_s", poisson_s);
        let topo = net.topology().clone();
        let n = topo.len() as u64;
        let want = oracle(&topo, &OracleConfig::default());
        out.digest.u64(n);
        out.digest.u64(topo.edge_count() as u64);

        for i in (d..k).step_by(DEPLOYMENTS) {
            let msgs0 = net.messages_total();
            let mut span = Span::open(format!("recovery {i}"), root.id, meters.as_deref());
            span.call("corrupt_all", || net.corrupt_all());
            let start = net.now();
            let report = span.call("run_to", || net.run_to(&stop));
            let rec = span.close();
            let secs = rec.dur_ns as f64 * 1e-9;
            times.push(secs);
            let msgs = net.messages_total() - msgs0;
            samples.push(Sample {
                secs,
                ops: 1.0,
                steps: report.steps as f64,
                work: msgs as f64,
            });
            if meters.is_some() {
                let o = rec.outer("run_to");
                out.layers.round_driver(&o);
                // Under gated scheduling `run_to` re-projects exactly
                // the nodes whose state changed each step, so its
                // `output` calls sum `StepActivity::changed`.
                out.layers
                    .add("sim.changed", o.inner.count(Call::Output) as f64);
                let c = rec.outer("corrupt_all");
                out.layers.add("faults.injected", 1.0);
                out.layers.add("faults.inject_s", c.busy_ns as f64 * 1e-9);
            }

            // Checks, outside the timed region.
            let outputs = net.outputs();
            out.attempted += 1;
            let stab = report.stabilized.map(|s| s.saturating_sub(start));
            let legit = extract_clustering(&outputs).is_some_and(|c| c == want);
            if report.timed_out || !legit {
                out.failed += 1;
            }
            stab_sum += stab.unwrap_or(report.steps);
            node_steps += n * report.steps;
            msgs_sum += msgs;
            out.digest.u64(stab.unwrap_or(u64::MAX));
            out.digest.u64(report.steps);
            out.digest.u64(msgs);
            digest_outputs(&mut out.digest, &outputs);
        }
        if let Some(m) = &meters {
            out.layers.meters(m);
        }
    }
    let total: f64 = times.iter().sum();
    out.measured_s = total;
    let e2e = EndToEnd {
        setups: &setups,
        samples: &samples,
        op: "recoveries (one per sample)",
        work: "beacons",
        stab: (
            stab_sum as f64 / k as f64,
            "steps from corrupt_all to the last output change, mean over recoveries",
        ),
        messages: (msgs_sum as f64, node_steps as f64),
    };
    out.e2e = e2e.metrics();
    out.extra.extend(e2e.rates());
    out.extra.push(Metric::host(
        "recover_s.p50",
        median(&times),
        "s",
        format!("per recovery, n = {k}"),
    ));
    if let Some((p, v)) = tail(&times) {
        out.extra.push(Metric::host(
            "recover_s.tail",
            v,
            "s",
            format!("p{} per recovery, n = {k}", p * 100.0),
        ));
    }
    out.e2e[0].note =
        format!("median of {DEPLOYMENTS} set-ups (deployment + build), one per deployment");
    out.layers.finish(node_steps as f64);
    out
}
