//! The paper's radio hypothesis, end to end: run the protocol over
//! media of decreasing quality — perfect, slotted CSMA/CA (τ emergent
//! from collisions), and Bernoulli loss at harsh τ — and over the
//! continuous-time event driver, confirming convergence every time.
//! Closes with a weak-stabilization estimate (Devismes et al.): the
//! probability of stabilizing within a fixed step budget at harsh τ,
//! with a Wilson 95% confidence interval.
//!
//! ```sh
//! cargo run --example lossy_channel
//! ```

use rand::SeedableRng;
use selfstab::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let topo = builders::poisson(400.0, 0.1, &mut rng);
    println!(
        "{} nodes, δ = {}; reference fixpoint computed centrally\n",
        topo.len(),
        topo.max_degree()
    );
    let want = oracle(&topo, &OracleConfig::default());

    // Perfect medium.
    run_over(
        "perfect medium (τ = 1)",
        PerfectMedium,
        ClusterConfig::default(),
        &topo,
        &want,
    );

    // Slotted CSMA with hidden terminals; measure its τ first.
    let mut csma = SlottedCsma::new(16);
    let tau = measure_tau(&mut csma, &topo, 40, &mut rng);
    run_over(
        &format!("slotted CSMA/CA, measured τ ≈ {tau:.2}"),
        csma,
        ClusterConfig {
            cache_ttl: 16,
            ..ClusterConfig::default()
        },
        &topo,
        &want,
    );

    // The worst medium the proofs allow: iid loss at τ = 0.5.
    run_over(
        "Bernoulli loss, τ = 0.5",
        BernoulliLoss::new(0.5),
        ClusterConfig {
            cache_ttl: 30,
            ..ClusterConfig::default()
        },
        &topo,
        &want,
    );

    // Continuous time: randomized beacons, frames with an arrival
    // delay. The event driver honors the scenario's medium — here
    // Bernoulli loss at τ = 0.65.
    // The TTL must cover the longest plausible run of lost beacons:
    // at 35% loss, 30 periods keeps false expiries to ~1e-13 per
    // entry.
    let mut driver = Scenario::new(DensityCluster::new(ClusterConfig {
        cache_ttl: 30,
        ..ClusterConfig::default()
    }))
    .medium(BernoulliLoss::new(0.65))
    .topology(topo.clone())
    .seed(3)
    .build_events(EventConfig::default())
    .expect("valid event scenario");
    let t = driver
        .run_until_output_stable(1.0, 10, 2000.0)
        .expect("event-driven run stabilizes");
    let got = extract_clustering(driver.states()).expect("clean");
    println!(
        "event driver: stabilized at t ≈ {t:.0} beacon periods, measured τ ≈ {:.2}, {} clusters{}",
        driver.measured_tau(),
        got.head_count(),
        if got == want {
            " — matches the fixpoint"
        } else {
            ""
        }
    );

    // Weak/probabilistic stabilization: what *fraction* of runs reach a
    // stable output within a tight budget at τ = 0.5? The Sweep
    // convergence helper fans the estimate over seeds; the Wilson score
    // interval says how much 40 samples are worth.
    println!();
    let budget = 250;
    let estimate = Sweep::over(40, 20050610)
        .convergence(
            |seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let deployment = builders::poisson(150.0, 0.12, &mut rng);
                Scenario::new(DensityCluster::new(ClusterConfig {
                    cache_ttl: 30,
                    ..ClusterConfig::default()
                }))
                .medium(BernoulliLoss::new(0.5))
                .topology(deployment)
                .seed(seed)
            },
            &StopWhen::stable_for(25).within(budget),
        )
        .expect("all scenarios build");
    let (low, high) = mwn_metrics::wilson_interval(estimate.stabilized, estimate.runs, 1.96);
    println!(
        "P(stable within {budget} steps at τ = 0.5) ≈ {:.2} \
         ({}/{} seeds; Wilson 95%: [{low:.2}, {high:.2}])",
        estimate.fraction(),
        estimate.stabilized,
        estimate.runs,
    );
}

fn run_over<M: Medium>(
    label: &str,
    medium: M,
    config: ClusterConfig,
    topo: &Topology,
    want: &Clustering,
) {
    let mut net = Scenario::new(DensityCluster::new(config))
        .medium(medium)
        .topology(topo.clone())
        .seed(9)
        .build()
        .expect("valid scenario");
    let report = net.run_to(&StopWhen::stable_for(25).within(50_000));
    let steps = report.expect_stable("stabilizes for any τ > 0");
    let got = extract_clustering(net.states()).expect("clean");
    println!(
        "{label:<38} stabilized in {steps:>4} steps, {} clusters{}",
        got.head_count(),
        if got == *want {
            " — matches the fixpoint"
        } else {
            ""
        }
    );
}
