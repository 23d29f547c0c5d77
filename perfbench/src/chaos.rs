//! `chaos-campaign`: seeded healing-fault campaigns, each on its own
//! n ≈ 3k deployment and certified on three cells — round +
//! `SlottedCsma(8)`, events + `SlottedCsma(8)`, actors (2 threads) +
//! `BernoulliLoss`. The campaigns cycle through the healing fault
//! kinds; throughput is the median over campaigns.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use mwn_chaos::{certify, CampaignSpec, Certificate, CertifyConfig, ChaosHarness, FaultKind};
use mwn_cluster::{ClusterConfig, DensityCluster};
use mwn_graph::{NodeId, Topology};
use mwn_radio::{BernoulliLoss, Medium, SlottedCsma};
use mwn_sim::{
    derive_seed, ActorDriver, Corruptible, EventConfig, EventDriver, Network, Observable, Protocol,
    Scenario, WireBeacon,
};

use crate::common::{deploy, radius_for, secs, Ctx, EndToEnd, Outcome, Sample};
use crate::report::{median, Metric};
use crate::trace::{Call, Meters, Span, SpanRec, PROTOCOL};
use crate::wrap::{TracedHarness, TracedMedium, TracedProtocol};

const LAMBDA: f64 = 3_000.0;
const DEGREE: f64 = 8.0;
const CSMA_SLOTS: usize = 8;
const BERNOULLI_TAU: f64 = 0.8;
const ACTOR_THREADS: usize = 2;
/// The cells in certification order: driver, per-layer total, and
/// headline per-campaign figure.
const CELLS: [(&str, &str, &str); 3] = [
    ("round", "chaos.cell_s.round", "campaign_s.round"),
    ("events", "chaos.cell_s.events", "campaign_s.events"),
    ("actors", "chaos.cell_s.actors", "campaign_s.actors"),
];
/// Faults per campaign.
const INJECTIONS: usize = 4;
/// Host seconds one campaign (three cells) takes on the reference
/// host (2 vCPU).
const NOMINAL_CAMPAIGN_S: f64 = 3.3;

/// Campaigns for a nominal run of `seconds`: a multiple of the healing
/// fault kinds, at least one round of them.
pub fn campaigns(seconds: u64) -> usize {
    let kinds = FaultKind::healing().len();
    let rounds = (seconds as f64 / NOMINAL_CAMPAIGN_S / kinds as f64).round() as usize;
    rounds.max(1) * kinds
}

/// Campaign `k` of a run: its faults are all of healing kind
/// `k mod 6`. Fault kinds differ in cost by an order of magnitude, so
/// a run takes them in equal shares rather than as drawn, and its
/// figures do not swing with the kind mix of one seed.
pub fn spec(seed: u64, k: usize, injections: usize) -> CampaignSpec {
    let healing = FaultKind::healing();
    CampaignSpec {
        seed,
        injections,
        spacing: 12,
        max_window: 5,
        kinds: vec![healing[k % healing.len()]],
    }
}

fn protocol() -> DensityCluster {
    DensityCluster::new(ClusterConfig::default().event_driven())
}

/// The three drivers of one campaign, bare or traced.
struct Cells<P: Protocol, MR: Medium, MA: Medium> {
    round: Network<P, MR>,
    events: EventDriver<P, MR>,
    actors: ActorDriver<P, MA>,
}

fn build_bare(topo: &Topology, seed: u64) -> Cells<DensityCluster, SlottedCsma, BernoulliLoss> {
    Cells {
        round: Scenario::new(protocol())
            .medium(SlottedCsma::new(CSMA_SLOTS))
            .topology(topo.clone())
            .seed(seed)
            .build()
            .expect("generated deployment builds"),
        events: Scenario::new(protocol())
            .medium(SlottedCsma::new(CSMA_SLOTS))
            .topology(topo.clone())
            .seed(seed)
            .build_events(EventConfig::default())
            .expect("generated deployment builds"),
        actors: Scenario::new(protocol())
            .medium(BernoulliLoss::new(BERNOULLI_TAU))
            .topology(topo.clone())
            .seed(seed)
            .build_actors(ACTOR_THREADS)
            .expect("Bernoulli loss is proxyable"),
    }
}

type Traced<M> = TracedMedium<M>;
type TracedCells =
    Cells<TracedProtocol<DensityCluster>, Traced<SlottedCsma>, Traced<BernoulliLoss>>;

/// Traced drivers; each has its own meters (round, events, actors).
fn build_traced(topo: &Topology, seed: u64) -> (TracedCells, [Arc<Meters>; 3]) {
    let m = [(); 3].map(|_| Arc::new(Meters::new(topo.len())));
    let p = |i: usize| TracedProtocol::new(protocol(), m[i].clone());
    let cells = Cells {
        round: Scenario::new(p(0))
            .medium(TracedMedium::new(
                SlottedCsma::new(CSMA_SLOTS),
                m[0].clone(),
            ))
            .topology(topo.clone())
            .seed(seed)
            .build()
            .expect("generated deployment builds"),
        events: Scenario::new(p(1))
            .medium(TracedMedium::new(
                SlottedCsma::new(CSMA_SLOTS),
                m[1].clone(),
            ))
            .topology(topo.clone())
            .seed(seed)
            .build_events(EventConfig::default())
            .expect("generated deployment builds"),
        actors: Scenario::new(p(2))
            .medium(TracedMedium::new(
                BernoulliLoss::new(BERNOULLI_TAU),
                m[2].clone(),
            ))
            .topology(topo.clone())
            .seed(seed)
            .build_actors(ACTOR_THREADS)
            .expect("Bernoulli loss is proxyable"),
    };
    (cells, m)
}

/// Certifies one cell; with meters, through the traced harness.
fn certify_cell<H: ChaosHarness>(
    h: &mut H,
    labels: (&str, &str),
    meters: Option<&Meters>,
    parent: u64,
    spec: &CampaignSpec,
    topo: &Topology,
) -> (Certificate, SpanRec) {
    let cfg = CertifyConfig {
        horizon: 600,
        ..CertifyConfig::default()
    };
    let (medium, driver) = labels;
    let span = RefCell::new(Span::open(format!("cell {driver}"), parent, meters));
    let cert = if meters.is_some() {
        let mut traced = TracedHarness::new(h, &span);
        certify(
            &mut traced,
            "density-cluster",
            medium,
            driver,
            spec,
            topo,
            &cfg,
        )
    } else {
        certify(h, "density-cluster", medium, driver, spec, topo, &cfg)
    };
    (cert, span.into_inner().close())
}

/// One certified cell's results.
struct CellRun {
    driver: &'static str,
    cert: Certificate,
    span: SpanRec,
    steps: u64,
    messages: u64,
    outputs: Vec<(u32, NodeId, NodeId)>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, LAMBDA, campaigns(ctx.seconds), INJECTIONS)
}

/// Runs `campaigns` campaigns of `injections` faults, each on its own
/// deployment at intensity `lambda`.
pub fn run_with(ctx: &Ctx, lambda: f64, campaigns: usize, injections: usize) -> Outcome {
    let mut out = Outcome::default();
    let radius = radius_for(lambda, DEGREE);
    let root = Span::open("chaos-campaign", 0, None).close();
    let mut setups = Vec::new();
    // Campaigns differ by fault kind, so they are one sample together
    // rather than a median over unlike samples.
    let mut total = Sample::default();
    let mut cell_times: [Vec<f64>; 3] = Default::default();
    let (mut msgs, mut node_steps) = (0u64, 0u64);
    let (mut restab_weighted, mut restabilized_total, mut injected_total) = (0.0, 0usize, 0usize);
    for k in 0..campaigns {
        let seed = derive_seed(ctx.seed, k as u64);
        let spec = spec(seed ^ 0xC4A0_5EED, k, injections);
        let t0 = Instant::now();
        let (topo, poisson_s) = deploy(lambda, radius, seed);
        out.layers.add("graph.poisson_s", poisson_s);
        let runs = if ctx.trace {
            let (mut c, m) = build_traced(&topo, seed);
            setups.push(secs(t0));
            let cells = run_cells(&mut c, Some(&m), root.id, &spec, &topo);
            fold_traced(&mut out, &cells, &m, &c);
            cells
        } else {
            let mut c = build_bare(&topo, seed);
            setups.push(secs(t0));
            run_cells(&mut c, None, root.id, &spec, &topo)
        };

        let n = topo.len();
        out.digest.u64(n as u64);
        let mut sample = Sample::default();
        for (r, times) in runs.iter().zip(&mut cell_times) {
            let c = &r.cert;
            let cell_s = r.span.dur_ns as f64 * 1e-9;
            sample.secs += cell_s;
            sample.ops += 1.0;
            sample.steps += r.steps as f64;
            sample.work += r.messages as f64;
            times.push(cell_s);
            msgs += r.messages;
            node_steps += (n as u64) * r.steps;

            // Failure accounting: every injection must restabilize,
            // every closure check hold, the cell stabilize from cold
            // start, and every node pass the liveness audit.
            let restabilized: usize = c.classes.iter().map(|k| k.restabilized).sum();
            let class_injections: usize = c.classes.iter().map(|k| k.injections).sum();
            out.attempted += (c.injections + c.closure_checks + 1 + n) as u64;
            out.failed += (c.injections - restabilized.min(c.injections)
                + c.closure_violations
                + usize::from(!c.initially_stabilized)
                + c.stale_after_audit) as u64;
            if class_injections != c.injections
                || restabilized > c.injections
                || c.closure_checks != 2
            {
                out.problems.push(format!(
                    "{} certificate inconsistent: {}",
                    r.driver,
                    c.to_json()
                ));
            }
            if !c.is_clean() {
                out.notes.push(format!("campaign {k}: {}", c.headline()));
            }
            restab_weighted += c
                .classes
                .iter()
                .map(|k| k.p50 * k.restabilized as f64)
                .sum::<f64>();
            restabilized_total += restabilized;
            injected_total += c.injections;
            out.layers
                .add("chaos.closure_violations", c.closure_violations as f64);
            out.layers
                .add("chaos.stale_after_audit", c.stale_after_audit as f64);

            out.digest.str(&c.to_json());
            out.digest.u64(r.steps);
            out.digest.u64(r.messages);
            crate::common::digest_outputs(&mut out.digest, &r.outputs);
        }
        total.secs += sample.secs;
        total.ops += sample.ops;
        total.steps += sample.steps;
        total.work += sample.work;
    }
    out.measured_s = total.secs;
    out.layers.set(
        "chaos.restabilized_frac",
        restabilized_total as f64 / injected_total.max(1) as f64,
    );
    for ((name, layer, headline), times) in CELLS.iter().zip(&cell_times) {
        out.layers.set(layer, times.iter().sum());
        out.extra.push(Metric::host(
            headline,
            median(times),
            "s",
            format!("{name} cell: median over {campaigns} campaigns"),
        ));
    }
    let e2e = EndToEnd {
        setups: &setups,
        samples: &[total],
        op: "certified cells (all campaigns as one sample)",
        work: "beacons",
        stab: (
            restab_weighted / restabilized_total.max(1) as f64,
            "restabilization steps per injection: class medians weighted by restabilized count",
        ),
        messages: (msgs as f64, node_steps as f64),
    };
    out.e2e = e2e.metrics();
    out.extra.extend(e2e.rates());
    out.e2e[0].note =
        format!("median of {campaigns} set-ups (deployment + three drivers), one per campaign");
    out.layers.finish(node_steps as f64);
    out
}

fn run_cells<P, MR, MA>(
    c: &mut Cells<P, MR, MA>,
    meters: Option<&[Arc<Meters>; 3]>,
    parent: u64,
    spec: &CampaignSpec,
    topo: &Topology,
) -> Vec<CellRun>
where
    P: Observable<Output = (u32, NodeId, NodeId)> + Corruptible,
    P::Beacon: WireBeacon,
    MR: Medium,
    MA: Medium + Sync,
{
    let m = |i: usize| meters.map(|m| &*m[i]);
    let medium = format!("slotted-csma-{CSMA_SLOTS}");
    let (cert, span) = certify_cell(&mut c.round, (&medium, "round"), m(0), parent, spec, topo);
    let round = CellRun {
        driver: "round",
        cert,
        span,
        steps: c.round.now(),
        messages: c.round.messages_total(),
        outputs: c.round.outputs(),
    };
    let (cert, span) = certify_cell(&mut c.events, (&medium, "events"), m(1), parent, spec, topo);
    let events = CellRun {
        driver: "events",
        cert,
        span,
        steps: ChaosHarness::now(&c.events),
        messages: c.events.messages_total(),
        outputs: c.events.outputs(),
    };
    let bernoulli = format!("bernoulli-{BERNOULLI_TAU}");
    let (cert, span) = certify_cell(
        &mut c.actors,
        (&bernoulli, "actors"),
        m(2),
        parent,
        spec,
        topo,
    );
    let actors = CellRun {
        driver: "actors",
        cert,
        span,
        steps: c.actors.now(),
        messages: c.actors.messages_total(),
        outputs: c.actors.outputs(),
    };
    vec![round, events, actors]
}

fn fold_traced(out: &mut Outcome, runs: &[CellRun], m: &[Arc<Meters>; 3], c: &TracedCells) {
    for (r, meters) in runs.iter().zip(m) {
        out.layers.meters(meters);
        let advance = r.span.outer("advance");
        let inject = r.span.outer("inject");
        let outputs = r.span.outer("outputs");
        out.layers.add("faults.injected", inject.count as f64);
        out.layers
            .add("faults.inject_s", inject.busy_ns as f64 * 1e-9);
        out.layers
            .add("chaos.self_s", r.span.self_ns() as f64 * 1e-9);
        out.layers.add("chaos.outputs_calls", outputs.count as f64);
        out.layers
            .add("chaos.outputs_s", outputs.busy_ns as f64 * 1e-9);
        match r.driver {
            "round" => out.layers.round_driver(&advance),
            "events" => {
                out.layers
                    .add("events.self_s", advance.self_ns() as f64 * 1e-9);
                let processed = c.events.events_processed() as f64;
                out.layers.set("events.processed", processed);
                out.layers
                    .set("events.per_period", processed / r.steps.max(1) as f64);
            }
            _ => {
                out.layers
                    .add("actors.step_s", advance.busy_ns as f64 * 1e-9);
                out.layers.add(
                    "actors.protocol_busy_s",
                    advance.inner.busy(PROTOCOL) as f64 * 1e-9,
                );
                out.layers
                    .add("actors.receives", advance.inner.count(Call::Receive) as f64);
            }
        }
    }
}
