//! `paper-sweep`: a `Sweep` of R independent paper-scale runs
//! (λ = 1000, r = 0.1, the paper's default TTL configuration, so the
//! round driver runs eager), each generating its deployment, building,
//! running to `stable_for(4)` and extracting its clustering.

use std::sync::Arc;
use std::time::Instant;

use mwn_cluster::{extract_clustering, oracle, ClusterConfig, DensityCluster, OracleConfig};
use mwn_graph::{traversal, NodeId, Topology};
use mwn_radio::{Medium, PerfectMedium};
use mwn_sim::{Network, Observable, Protocol, RunReport, Scenario, StopWhen, Sweep};

use crate::common::{deploy, digest_outputs, secs, Ctx, EndToEnd, Outcome, Sample};
use crate::report::{median, tail, Metric};
use crate::trace::{pool_width, Meters, Snap, Span, SpanRec};
use crate::wrap::{TracedMedium, TracedProtocol};

const LAMBDA: f64 = 1_000.0;
const RADIUS: f64 = 0.1;
/// Runs per host second on the reference host (2 vCPU).
const NOMINAL_RUNS_PER_S: f64 = 12.0;
const QUIET: u64 = 4;
const BUDGET: u64 = 1_000;

/// Runs for a nominal run of `seconds`.
pub fn runs(seconds: u64) -> usize {
    ((seconds as f64 * NOMINAL_RUNS_PER_S).round() as usize).max(20)
}

/// One sweep job's result.
struct Job {
    nodes: usize,
    components: usize,
    run: Run,
    job_s: f64,
    span: SpanRec,
    meters: Option<Arc<Meters>>,
}

fn job(seed: u64, parent: u64, lambda: f64, traced: bool) -> Job {
    let t0 = Instant::now();
    let (topo, poisson_s) = deploy(lambda, RADIUS, seed);
    let meters = traced.then(|| Arc::new(Meters::new(topo.len())));
    let mut span = Span::open_at(format!("run {seed:016x}"), parent, meters.as_deref(), t0);
    span.record("poisson", (poisson_s * 1e9) as u64, &Snap::default());
    let components = span.call("components", || {
        traversal::connected_components(&topo).len()
    });
    fn scenario<P: Protocol>(p: P, topo: &Topology, seed: u64) -> Scenario<P> {
        Scenario::new(p)
            .topology(topo.clone())
            .seed(seed)
            .validate(|t| ClusterConfig::default().validate_for(t))
    }
    let protocol = DensityCluster::new(ClusterConfig::default());
    let run = match &meters {
        None => {
            let net = span.call("build", || scenario(protocol, &topo, seed).build());
            drive(&mut span, t0, net.expect("paper deployments validate"))
        }
        Some(m) => {
            let net = span.call("build", || {
                scenario(TracedProtocol::new(protocol, m.clone()), &topo, seed)
                    .medium(TracedMedium::new(PerfectMedium, m.clone()))
                    .build()
            });
            drive(&mut span, t0, net.expect("paper deployments validate"))
        }
    };
    Job {
        nodes: topo.len(),
        components,
        run,
        job_s: secs(t0),
        span: span.close(),
        meters,
    }
}

/// What one run's driver produced.
struct Run {
    outputs: Vec<(u32, NodeId, NodeId)>,
    report: RunReport,
    messages: u64,
    setup_s: f64,
}

fn drive<P, M>(span: &mut Span<'_>, t0: Instant, mut net: Network<P, M>) -> Run
where
    P: Observable<Output = (u32, NodeId, NodeId)>,
    M: Medium,
{
    let setup_s = secs(t0);
    let stop = StopWhen::stable_for(QUIET).within(BUDGET);
    let report = span.call("run_to", || net.run_to(&stop));
    let outputs = span.call("extract", || net.outputs());
    Run {
        outputs,
        report,
        messages: net.messages_total(),
        setup_s,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, LAMBDA, runs(ctx.seconds))
}

/// Runs per `Sweep`: the runs are split into sweeps of this size, and
/// throughput is the median over sweeps.
const BATCH: usize = 20;

/// Runs `r` sweep runs at intensity `lambda` (tests use small ones).
pub fn run_with(ctx: &Ctx, lambda: f64, r: usize) -> Outcome {
    let mut out = Outcome::default();
    let root = Span::open("paper-sweep", 0, None);
    let root_id = root.id();
    let seeds = Sweep::over(r, ctx.seed).seeds().to_vec();
    let traced = ctx.trace;
    let mut jobs = Vec::with_capacity(r);
    let mut samples = Vec::new();
    let mut wall = 0.0;
    for batch in seeds.chunks(BATCH) {
        let t0 = Instant::now();
        let done = Sweep::with_seeds(batch.to_vec()).map(|seed| job(seed, root_id, lambda, traced));
        let batch_s = secs(t0);
        wall += batch_s;
        samples.push(Sample {
            secs: batch_s,
            ops: done.len() as f64,
            steps: done.iter().map(|j| j.run.report.steps as f64).sum(),
            work: done.iter().map(|j| j.run.messages as f64).sum(),
        });
        jobs.extend(done);
    }
    root.close();
    out.measured_s = wall;

    let (mut stab_sum, mut msgs_sum, mut node_steps) = (0u64, 0u64, 0u64);
    let mut job_times = Vec::with_capacity(r);
    for (j, &seed) in jobs.iter().zip(&seeds) {
        // Checks, outside the timed region: the deployment is drawn
        // again from its seed rather than kept through the sweep.
        out.attempted += 1;
        let r = &j.run;
        let (topo, _) = deploy(lambda, RADIUS, seed);
        let legit = extract_clustering(&r.outputs)
            .is_some_and(|c| c == oracle(&topo, &OracleConfig::default()));
        if r.report.timed_out || !legit {
            out.failed += 1;
        }
        stab_sum += r.report.stabilized.unwrap_or(r.report.steps);
        msgs_sum += r.messages;
        node_steps += j.nodes as u64 * r.report.steps;
        job_times.push(j.job_s);
        out.digest.u64(j.nodes as u64);
        out.digest.u64(j.components as u64);
        out.digest.u64(r.report.stabilized.unwrap_or(u64::MAX));
        out.digest.u64(r.report.steps);
        out.digest.u64(r.messages);
        digest_outputs(&mut out.digest, &r.outputs);

        out.layers.add(
            "graph.poisson_s",
            j.span.outer("poisson").busy_ns as f64 * 1e-9,
        );
        out.layers.add(
            "graph.components_s",
            j.span.outer("components").busy_ns as f64 * 1e-9,
        );
        if let Some(m) = &j.meters {
            out.layers.round_driver(&j.span.outer("run_to"));
            out.layers.meters(m);
        }
    }
    let setups: Vec<f64> = jobs.iter().map(|j| j.run.setup_s).collect();
    let workers = (pool_width() as usize).min(BATCH.min(r).max(1)) as f64;
    out.layers.set(
        "sim.sweep.busy_frac",
        job_times.iter().sum::<f64>() / (wall * workers),
    );
    out.layers.finish(node_steps as f64);
    let e2e = EndToEnd {
        setups: &setups,
        samples: &samples,
        op: &format!("runs (one sample per Sweep of {BATCH})"),
        work: "beacons",
        stab: (
            stab_sum as f64 / r as f64,
            "steps to the last output change from cold start, mean over runs",
        ),
        messages: (msgs_sum as f64, node_steps as f64),
    };
    out.e2e = e2e.metrics();
    out.extra.extend(e2e.rates());
    out.e2e[0].note = format!("median per-run set-up (poisson + components + build) of {r} runs");
    out.extra.push(Metric::host(
        "run_s.p50",
        median(&job_times),
        "s",
        format!("per run (inside a Sweep worker), n = {r}"),
    ));
    if let Some((p, v)) = tail(&job_times) {
        out.extra.push(Metric::host(
            "run_s.tail",
            v,
            "s",
            format!("p{} per run, n = {r}", p * 100.0),
        ));
    }
    out
}
