//! End-to-end certification of the engine under adversary campaigns.
//!
//! One [`CampaignSpec`] drives all three execution drivers through the
//! full fault model — crash-recover, Byzantine beacons, partition/heal,
//! regional jam, plus the classic corruptions — and the certifier must
//! come back clean on every cell: closure holds over quiet intervals,
//! every injection restabilizes inside the horizon, and the forced-eager
//! liveness audit finds no gated-asleep node with stale state.
//!
//! The last test is the audit's own certification: a deliberately
//! broken wake rule (state corrupted *without* waking the dirty-set,
//! via the test-only backdoor) is invisible to plain convergence
//! checking and must be caught by the audit.

use selfstab::prelude::*;
use selfstab::sim::EventConfig;

/// Max-flood over `u32` beacons, gated: the canonical silent protocol.
/// Its legitimate configurations are per-component maxima, so every
/// healing fault leaves a recoverable fixpoint.
struct MaxFlood;

impl Protocol for MaxFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut rand::rngs::StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut rand::rngs::StdRng) {
        *state = (*state).max(node.value());
    }
    fn activity(&self) -> selfstab::sim::Activity {
        selfstab::sim::Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Observable for MaxFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}

impl Corruptible for MaxFlood {
    fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut rand::rngs::StdRng) {
        *state = 0;
    }
}

/// `Certificate::to_json()` of the smoke campaign in
/// [`one_campaign_certifies_clean_on_all_three_drivers`], pinned byte
/// for byte. All three drivers emit this exact certificate, differing
/// only in the `driver` label: any drift in fault dispatch, followup
/// timing or the fault streams shows up here as a byte difference.
const GOLDEN_CERTIFICATE: &str = concat!(
    r#"{"protocol":"max-flood","medium":"perfect","driver":"{driver}","seed":7,"injections":6,"initially_stabilized":true,"closure_checks":2,"closure_violations":0,"stale_after_audit":0,"worst_restabilization":4.0,"clean":true,"classes":["#,
    r#"{"class":"corrupt-fraction","injections":1,"restabilized":1,"p50":1.0,"p95":1.0,"worst":1.0,"wilson_low":0.2065,"wilson_high":1.0000},"#,
    r#"{"class":"corrupt-node","injections":3,"restabilized":3,"p50":1.0,"p95":1.0,"worst":1.0,"wilson_low":0.4385,"wilson_high":1.0000},"#,
    r#"{"class":"crash-recover","injections":1,"restabilized":1,"p50":2.0,"p95":2.0,"worst":2.0,"wilson_low":0.2065,"wilson_high":1.0000},"#,
    r#"{"class":"partition-heal","injections":1,"restabilized":1,"p50":4.0,"p95":4.0,"worst":4.0,"wilson_low":0.2065,"wilson_high":1.0000}]}"#,
);

fn golden_certificate(driver: &str) -> String {
    GOLDEN_CERTIFICATE.replace("{driver}", driver)
}

fn deployment() -> Topology {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    builders::uniform(30, 0.3, &mut rng)
}

#[test]
fn one_campaign_certifies_clean_on_all_three_drivers() {
    let topo = deployment();
    let spec = CampaignSpec::smoke(7);
    let cfg = CertifyConfig::default();

    let mut net = Scenario::new(MaxFlood)
        .topology(topo.clone())
        .seed(5)
        .build()
        .expect("valid scenario");
    let round = certify(
        &mut net,
        "max-flood",
        "perfect",
        "round",
        &spec,
        &topo,
        &cfg,
    );
    assert!(round.is_clean(), "round cell dirty: {}", round.headline());

    let mut events = Scenario::new(MaxFlood)
        .topology(topo.clone())
        .seed(5)
        .build_events(EventConfig::default())
        .expect("valid event scenario");
    let event = certify(
        &mut events,
        "max-flood",
        "perfect",
        "events",
        &spec,
        &topo,
        &cfg,
    );
    assert!(event.is_clean(), "event cell dirty: {}", event.headline());

    let mut actors = Scenario::new(MaxFlood)
        .topology(topo.clone())
        .seed(5)
        .build_actors(2)
        .expect("valid actor scenario");
    let actor = certify(
        &mut actors,
        "max-flood",
        "perfect",
        "actors",
        &spec,
        &topo,
        &cfg,
    );
    assert!(actor.is_clean(), "actor cell dirty: {}", actor.headline());

    // All three cells saw the identical script.
    assert_eq!(round.injections, event.injections);
    assert_eq!(round.injections, actor.injections);
    for (cert, driver) in [(&round, "round"), (&event, "events"), (&actor, "actors")] {
        assert_eq!(
            cert.to_json(),
            golden_certificate(driver),
            "{driver} certificate drifted from the recorded golden"
        );
    }
}

#[test]
fn round_driver_certificates_are_byte_deterministic() {
    let topo = deployment();
    let spec = CampaignSpec::smoke(13);
    let cfg = CertifyConfig::default();
    let run = || {
        let mut net = Scenario::new(MaxFlood)
            .topology(deployment())
            .seed(9)
            .build()
            .expect("valid scenario");
        certify(
            &mut net,
            "max-flood",
            "perfect",
            "round",
            &spec,
            &topo,
            &cfg,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same campaign, same certificate");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn gated_csma_cell_certifies_clean() {
    // The statistically-gated contention path: the audit's soundness
    // argument (received beacons are state no-ops once legitimate)
    // carries the same campaign through slotted CSMA.
    let topo = deployment();
    let spec = CampaignSpec::smoke(3);
    let cfg = CertifyConfig::default();
    let mut net = Scenario::new(MaxFlood)
        .topology(topo.clone())
        .seed(11)
        .medium(SlottedCsma::new(8))
        .build()
        .expect("valid scenario");
    let cert = certify(&mut net, "max-flood", "csma-8", "round", &spec, &topo, &cfg);
    assert!(
        cert.is_clean(),
        "gated CSMA cell dirty: {}",
        cert.headline()
    );
}

#[test]
fn every_fault_kind_heals_on_every_medium() {
    // One certificate per (kind, medium) cell on the round driver —
    // including permanent Isolate, whose fragments still restabilize
    // and still owe a clean closure + audit.
    let topo = deployment();
    let cfg = CertifyConfig::default();
    for kind in FaultKind::all() {
        let spec = CampaignSpec {
            seed: 17,
            injections: 3,
            spacing: 10,
            max_window: 4,
            kinds: vec![kind],
        };
        for medium_ix in 0..3u8 {
            let cert = match medium_ix {
                0 => {
                    let mut net = Scenario::new(MaxFlood)
                        .topology(topo.clone())
                        .seed(23)
                        .build()
                        .expect("valid scenario");
                    certify(
                        &mut net,
                        "max-flood",
                        "perfect",
                        "round",
                        &spec,
                        &topo,
                        &cfg,
                    )
                }
                1 => {
                    let mut net = Scenario::new(MaxFlood)
                        .topology(topo.clone())
                        .seed(23)
                        .medium(BernoulliLoss::new(0.5))
                        .build()
                        .expect("valid scenario");
                    certify(
                        &mut net,
                        "max-flood",
                        "tau-0.5",
                        "round",
                        &spec,
                        &topo,
                        &cfg,
                    )
                }
                _ => {
                    let mut net = Scenario::new(MaxFlood)
                        .topology(topo.clone())
                        .seed(23)
                        .medium(SlottedCsma::new(8))
                        .build()
                        .expect("valid scenario");
                    certify(&mut net, "max-flood", "csma-8", "round", &spec, &topo, &cfg)
                }
            };
            assert!(
                cert.is_clean(),
                "{kind:?} on {} dirty: {}",
                cert.medium,
                cert.headline()
            );
        }
    }
}

#[test]
fn certificates_report_per_class_statistics() {
    let topo = deployment();
    let spec = CampaignSpec {
        seed: 5,
        injections: 8,
        spacing: 10,
        max_window: 3,
        kinds: FaultKind::healing(),
    };
    let mut net = Scenario::new(MaxFlood)
        .topology(topo.clone())
        .seed(2)
        .build()
        .expect("valid scenario");
    let cert = certify(
        &mut net,
        "max-flood",
        "perfect",
        "round",
        &spec,
        &topo,
        &CertifyConfig::default(),
    );
    assert!(cert.is_clean(), "{}", cert.headline());
    assert_eq!(
        cert.classes.iter().map(|c| c.injections).sum::<usize>(),
        cert.injections,
        "every injection lands in exactly one class"
    );
    for class in &cert.classes {
        assert!(class.p50 <= class.p95 && class.p95 <= class.worst);
        assert!(
            class.wilson_low <= 1.0 && class.wilson_high >= class.wilson_low,
            "Wilson interval is ordered"
        );
        assert!(class.worst <= cert.worst_restabilization);
    }
    let json = cert.to_json();
    assert!(json.contains("\"clean\":true"), "JSON carries the verdict");
}

#[test]
fn broken_wake_rule_is_caught_by_the_audit() {
    // A fault that mutates state WITHOUT waking the dirty-set is the
    // exact bug class the audit exists for: the gated run looks
    // perfectly stable — the victim is asleep on stale state — so no
    // convergence check can object. The forced-eager sweep must flush
    // it out.
    let mut net = Scenario::new(MaxFlood)
        .topology(builders::line(5))
        .seed(4)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(4).within(200))
        .expect_stable("stabilizes from cold start");
    assert_eq!(liveness_audit(&mut net, 3), 0, "clean engine audits clean");

    // The well-behaved path: a properly injected corruption wakes the
    // victim, the network restabilizes, and the audit stays clean.
    net.inject(&Fault::CorruptNode(NodeId::new(0)))
        .expect("node count unchanged");
    net.run_to(&StopWhen::stable_for(4).within(200))
        .expect_stable("restabilizes after an honest fault");
    assert_eq!(
        liveness_audit(&mut net, 3),
        0,
        "honest faults leave no residue"
    );

    // Drain the beacons the eager sweep re-queued, so the network is
    // genuinely quiescent before the silent corruption lands.
    net.run_to(&StopWhen::stable_for(6).within(200))
        .expect_stable("quiescent again after the audit");

    // The broken wake rule: corrupt node 0 silently. Gated steps leave
    // it asleep — stale state persists indefinitely…
    net.corrupt_silently(NodeId::new(0));
    let stale = *net.state(NodeId::new(0));
    assert_eq!(stale, 0, "the corruption landed");
    for _ in 0..20 {
        net.step();
    }
    assert_eq!(
        *net.state(NodeId::new(0)),
        0,
        "gated scheduling never notices the silent corruption"
    );
    // …until the audit pins eager and the node's output moves.
    let caught = liveness_audit(&mut net, 3);
    assert!(
        caught >= 1,
        "the liveness audit must flag the silently-corrupted node"
    );
    assert_eq!(
        *net.state(NodeId::new(0)),
        4,
        "the eager sweep heals what the audit flagged"
    );
}
