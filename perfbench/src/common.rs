//! What every workload shares: the run context, the outcome, the
//! end-to-end metric set, deployments and the oracle check.

use std::time::Instant;

use mwn_graph::{builders, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::Layers;
use crate::report::{median, peak_rss_mb, Digest, Metric};

/// How one run was asked for.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Nominal measured seconds; sets the amount of work (see each
    /// workload's sizing), never read from the clock, so one
    /// `(seed, seconds)` pair always does the same work.
    pub seconds: u64,
    /// Install the decorators.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, as [`EndToEnd::metrics`] lists them.
    pub e2e: Vec<Metric>,
    /// Workload-specific headline metrics (printed, not gated).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness problems: any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Findings worth a line of their own (e.g. a dirty certificate).
    pub notes: Vec<String>,
    /// Digest of the simulated outputs.
    pub digest: Digest,
    /// Host seconds of the measured region.
    pub measured_s: f64,
}

/// One timed sample of a workload: host seconds, and the operations,
/// driver steps and work items it completed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Host seconds.
    pub secs: f64,
    /// Operations completed.
    pub ops: f64,
    /// Simulated driver steps (logical steps) advanced.
    pub steps: f64,
    /// Simulated work items processed (see [`EndToEnd::work`]).
    pub work: f64,
}

/// The end-to-end metrics of a run.
pub struct EndToEnd<'a> {
    /// Set-up times of the repeated set-ups.
    pub setups: &'a [f64],
    /// The timed samples: throughputs are medians over them, so a
    /// burst of host noise moves one sample, not the result.
    pub samples: &'a [Sample],
    /// What one operation is.
    pub op: &'a str,
    /// What one work item is.
    pub work: &'a str,
    /// Mean (re)stabilization steps, and how it is counted.
    pub stab: (f64, &'a str),
    /// Messages sent and node × steps advanced.
    pub messages: (f64, f64),
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl EndToEnd<'_> {
    fn rate(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        let rates: Vec<f64> = self.samples.iter().map(|s| ratio(f(s), s.secs)).collect();
        median(&rates)
    }

    /// The metric rows `BENCHMARK.json` gates, in its order.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.samples.len();
        vec![
            Metric::host(
                "setup_s",
                median(self.setups),
                "s",
                format!("median of {} set-ups", self.setups.len()),
            ),
            Metric::host("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM"),
            Metric::host(
                "work_per_s",
                self.rate(|s| s.work),
                "1/s",
                format!("{} per host s, median of {n} samples", self.work),
            ),
            Metric::sim("stab_steps.mean", self.stab.0, "steps", self.stab.1),
            Metric::sim(
                "beacons_per_node_step",
                ratio(self.messages.0, self.messages.1),
                "count",
                format!(
                    "{} messages / {} node-steps",
                    self.messages.0, self.messages.1
                ),
            ),
        ]
    }

    /// Operation and step rates, printed with the workload's headline
    /// metrics.
    pub fn rates(&self) -> Vec<Metric> {
        let n = self.samples.len();
        vec![
            Metric::host(
                "ops_per_s",
                self.rate(|s| s.ops),
                "1/s",
                format!("{} per host s, median of {n} samples", self.op),
            ),
            Metric::host(
                "steps_per_s",
                self.rate(|s| s.steps),
                "1/s",
                format!("driver steps per host s, median of {n} samples"),
            ),
        ]
    }
}

/// Radius giving mean degree `degree` at Poisson intensity `lambda`
/// on the unit square.
pub fn radius_for(lambda: f64, degree: f64) -> f64 {
    (degree / (lambda * std::f64::consts::PI)).sqrt()
}

/// A Poisson deployment drawn from `seed`, with the time it took.
pub fn deploy(lambda: f64, radius: f64, seed: u64) -> (Topology, f64) {
    let t0 = Instant::now();
    let topo = builders::poisson(lambda, radius, &mut StdRng::seed_from_u64(seed));
    (topo, t0.elapsed().as_secs_f64())
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Folds cluster outputs into a digest.
pub fn digest_outputs(d: &mut Digest, outputs: &[(u32, mwn_graph::NodeId, mwn_graph::NodeId)]) {
    for (dag, head, parent) in outputs {
        d.u64(u64::from(*dag));
        d.u64(u64::from(head.value()));
        d.u64(u64::from(parent.value()));
    }
}
