//! Tests of the benchmark's own code: the decorators are transparent
//! on every driver, the unrolled traffic loop is `run_rounds`, and
//! the metric names keep to `BENCHMARK.json` and its caps.

use std::cell::RefCell;
use std::sync::Arc;

use mwn_chaos::{certify, CampaignSpec, CertifyConfig};
use mwn_cluster::{extract_clustering, ClusterConfig, DensityCluster, HierarchicalRoutes};
use mwn_graph::{builders, traversal, Topology};
use mwn_radio::{BernoulliLoss, Medium, PerfectMedium, SlottedCsma};
use mwn_sim::{EventConfig, RunReport, Scenario, StopWhen};
use mwn_traffic::{run_rounds, TrafficPlane};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{Ctx, Outcome};
use crate::layers::PER_LAYER;
use crate::trace::{Call, Meters, Span};
use crate::wrap::{TracedHarness, TracedMedium, TracedProtocol};
use crate::{chaos, recover, sweep, traffic, WORKLOADS};

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "work_per_s",
    "stab_steps.mean",
    "beacons_per_node_step",
];

fn topo() -> Topology {
    builders::uniform(120, 0.16, &mut StdRng::seed_from_u64(5))
}

fn protocol() -> DensityCluster {
    DensityCluster::new(ClusterConfig::default().event_driven())
}

fn traced(m: &Arc<Meters>) -> TracedProtocol<DensityCluster> {
    TracedProtocol::new(protocol(), m.clone())
}

fn report(r: RunReport) -> (Option<u64>, u64, u64, bool) {
    (r.stabilized, r.steps, r.end_step, r.timed_out)
}

fn round_driver_agrees<M: Medium>(medium: impl Fn() -> M) {
    let t = topo();
    let m = Arc::new(Meters::new(t.len()));
    let mut bare = Scenario::new(protocol())
        .medium(medium())
        .topology(t.clone())
        .seed(3)
        .build()
        .expect("builds");
    let mut deco = Scenario::new(traced(&m))
        .medium(TracedMedium::new(medium(), m.clone()))
        .topology(t)
        .seed(3)
        .build()
        .expect("builds");
    assert_eq!(bare.is_gated(), deco.is_gated(), "the engine path changed");
    let stop = StopWhen::stable_for(4).within(800);
    for _ in 0..2 {
        bare.corrupt_all();
        deco.corrupt_all();
        assert_eq!(
            report(bare.run_to(&stop)),
            report(deco.run_to(&StopWhen::stable_for(4).within(800)))
        );
        assert_eq!(bare.states(), deco.states());
        assert_eq!(bare.outputs(), deco.outputs());
        assert_eq!(bare.messages_total(), deco.messages_total());
    }
    let s = m.snap();
    assert!(s.count(Call::Update) > 0 && s.count(Call::Receive) > 0);
    assert!(s.count(Call::Deliver) > 0);
}

#[test]
fn decorated_round_driver_agrees_with_bare() {
    round_driver_agrees(|| PerfectMedium);
    round_driver_agrees(|| BernoulliLoss::new(0.7));
    round_driver_agrees(|| SlottedCsma::new(8));
}

#[test]
fn decorated_event_driver_agrees_with_bare() {
    let t = topo();
    let m = Arc::new(Meters::new(t.len()));
    let mut bare = Scenario::new(protocol())
        .medium(SlottedCsma::new(8))
        .topology(t.clone())
        .seed(4)
        .build_events(EventConfig::default())
        .expect("builds");
    let mut deco = Scenario::new(traced(&m))
        .medium(TracedMedium::new(SlottedCsma::new(8), m.clone()))
        .topology(t)
        .seed(4)
        .build_events(EventConfig::default())
        .expect("builds");
    assert_eq!(bare.is_gated(), deco.is_gated(), "the engine path changed");
    bare.corrupt_all();
    deco.corrupt_all();
    bare.run_until_time(80.0);
    deco.run_until_time(80.0);
    assert_eq!(bare.states(), deco.states());
    assert_eq!(bare.outputs(), deco.outputs());
    assert_eq!(bare.messages_total(), deco.messages_total());
    assert_eq!(bare.events_processed(), deco.events_processed());
    assert!(m.snap().count(Call::Deliver) > 0);
}

#[test]
fn decorated_actor_driver_agrees_with_bare() {
    let t = topo();
    let m = Arc::new(Meters::new(t.len()));
    let mut bare = Scenario::new(protocol())
        .medium(BernoulliLoss::new(0.8))
        .topology(t.clone())
        .seed(6)
        .build_actors(2)
        .expect("builds");
    let mut deco = Scenario::new(traced(&m))
        .medium(TracedMedium::new(BernoulliLoss::new(0.8), m.clone()))
        .topology(t)
        .seed(6)
        .build_actors(2)
        .expect("builds");
    let stop = StopWhen::stable_for(4).within(800);
    bare.corrupt_all();
    deco.corrupt_all();
    assert_eq!(
        report(bare.run_to(&stop)),
        report(deco.run_to(&StopWhen::stable_for(4).within(800)))
    );
    assert_eq!(bare.states(), deco.states());
    assert_eq!(bare.messages_total(), deco.messages_total());
    let s = m.snap();
    assert!(s.count(Call::Deliver) > 0 && s.count(Call::Receive) > 0);
}

#[test]
fn traced_harness_certifies_like_the_bare_driver() {
    let t = topo();
    let spec = CampaignSpec::smoke(9);
    let cfg = CertifyConfig::default();
    let build = || {
        Scenario::new(protocol())
            .topology(t.clone())
            .seed(2)
            .build()
            .expect("builds")
    };
    let mut bare = build();
    let want = certify(&mut bare, "p", "m", "d", &spec, &t, &cfg);
    let mut net = build();
    let span = RefCell::new(Span::open("test", 0, None));
    let got = certify(
        &mut TracedHarness::new(&mut net, &span),
        "p",
        "m",
        "d",
        &spec,
        &t,
        &cfg,
    );
    assert_eq!(want.to_json(), got.to_json());
    let rec = span.into_inner().close();
    assert_eq!(rec.outer("inject").count, spec.injections as u64);
    assert!(rec.outer("advance").count > 0 && rec.outer("outputs").count > 0);
}

#[test]
fn unrolled_traffic_loop_is_run_rounds() {
    let t = builders::uniform(200, 0.14, &mut StdRng::seed_from_u64(8));
    let mut giant = traversal::connected_components(&t);
    giant.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let flows = traffic::flows(&giant[0], 300, 1);
    let net = || {
        let mut n = Scenario::new(protocol())
            .topology(t.clone())
            .seed(1)
            .build()
            .expect("builds");
        n.run_to(&StopWhen::stable_for(5).within(1_000));
        n
    };
    let plane = || {
        let mut p = TrafficPlane::new(t.len(), traffic::TRAFFIC);
        p.add_flows(&flows);
        p
    };
    let (mut a, mut pa) = (net(), plane());
    let want = run_rounds(&mut a, &mut pa, 300, |topo, states| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    });
    let (mut b, mut pb) = (net(), plane());
    let mut stepper = traffic::Stepper {
        net: &mut b,
        plane: &mut pb,
        meters: None,
        view_calls: 0,
        in_flight_sum: 0,
        changed: 0,
        steps: 0,
    };
    let mut span = Span::open("test", 0, None);
    stepper.run(&mut span, 300, true);
    assert!(want.delivered > 0);
    assert_eq!(want.to_json(), pb.report().to_json());
    assert_eq!(a.states(), b.states());
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("a string value") + 1..];
            rest[..rest.find('"').expect("a closed string")].to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_valid_unique_and_capped() {
    let e2e = END_TO_END.to_vec();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert!(!layers.is_empty() && layers.len() <= 128);
    let mut all: Vec<&str> = e2e.iter().chain(&layers).copied().collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), e2e.len() + layers.len(), "duplicate metric name");
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let e2e = END_TO_END.to_vec();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    assert_eq!(names_in(&json, "per_layer"), layers);
}

fn check(out: &Outcome, traced: bool) {
    let names: Vec<&str> = out.e2e.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END);
    assert!(
        out.e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0),
        "{:?}",
        out.e2e
    );
    let layer_names: Vec<&str> = out.layers.metrics().iter().map(|m| m.name).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(layer_names, want);
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert!(out.attempted > 0);
    if traced {
        assert!(out.layers.get("core.updates") > 0.0);
    }
}

/// Runs a small instance bare and traced: every metric is printed,
/// outputs are correct, and the digests agree.
fn small(run: impl Fn(&Ctx) -> Outcome) {
    let ctx = Ctx {
        seed: 7,
        seconds: 1,
        trace: false,
    };
    let bare = run(&ctx);
    let deco = run(&Ctx { trace: true, ..ctx });
    check(&bare, false);
    check(&deco, true);
    assert_eq!(bare.digest, deco.digest);
    assert_eq!((bare.attempted, bare.failed), (deco.attempted, deco.failed));
}

#[test]
fn recover_small_is_correct_and_transparent() {
    small(|ctx| recover::run_with(ctx, 300.0, 4));
}

#[test]
fn sweep_small_is_correct_and_transparent() {
    small(|ctx| sweep::run_with(ctx, 150.0, 6));
}

#[test]
fn chaos_small_is_correct_and_transparent() {
    small(|ctx| chaos::run_with(ctx, 150.0, 1, 3));
}

#[test]
fn traffic_small_is_correct_and_transparent() {
    small(|ctx| traffic::run_with(ctx, 400.0, 2));
}
