//! The repo benchmark: four workloads, end-to-end metrics, and a traced
//! per-layer run. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload recover-10k --seed 1 --seconds 20 --trace 0
//! ```

mod chaos;
mod common;
mod layers;
mod recover;
mod report;
mod sweep;
#[cfg(test)]
mod tests;
mod trace;
mod traffic;
mod wrap;

use std::process::ExitCode;

use common::{Ctx, Outcome};
use report::{host_line, render, result_line};

/// A workload's entry point.
type Workload = fn(&Ctx) -> Outcome;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("recover-10k", recover::run),
    ("paper-sweep", sweep::run),
    ("chaos-campaign", chaos::run),
    ("traffic-churn", traffic::run),
];

struct Args {
    run: Workload,
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 20, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let run = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or(format!("unknown workload {workload}"))?
        .1;
    Ok(Args {
        run,
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("MWN_FORCE_SHARDS").is_some() {
        eprintln!(
            "perfbench: MWN_FORCE_SHARDS is set; it selects another program than the one users run"
        );
        return ExitCode::from(2);
    }
    println!("{}", host_line());
    let ctx = args.ctx;
    // The end-to-end figures always come from an undecorated run.
    let mut out = (args.run)(&Ctx {
        trace: false,
        ..ctx
    });
    trace::take_spans();
    println!(
        "workload {} seed {} seconds {}: digest {:016x}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        out.digest.value()
    );
    println!("end-to-end:");
    print!("{}", render(&out.e2e));
    print!("{}", render(&out.extra));
    println!(
        "  failed_frac {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    let mut metrics = out.e2e.clone();
    if ctx.trace {
        let traced = (args.run)(&ctx);
        let spans = trace::take_spans();
        if traced.digest != out.digest {
            out.problems.push(format!(
                "traced digest {:016x} differs from untraced {:016x}",
                traced.digest.value(),
                out.digest.value()
            ));
        }
        out.problems.extend(traced.problems.iter().cloned());
        let mut layers = traced.layers.clone();
        let overhead = traced.measured_s - out.measured_s;
        layers.set("trace.overhead_s", overhead);
        layers.set("trace.overhead_frac", overhead / out.measured_s.max(1e-9));
        metrics = layers.metrics();
        println!("traced digest {:016x}", traced.digest.value());
        println!("per-layer:");
        print!("{}", render(&metrics));
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, ctx.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::spans_jsonl(&spans)))
        {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    for p in &out.problems {
        println!("  INCORRECT: {p}");
    }
    println!(
        "{}",
        result_line(out.problems.is_empty(), out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
