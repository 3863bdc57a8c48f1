//! `perfbench`: the CLgen reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <serve-narrow|serve-wide|paper-fig7> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run times the workload end to end, checks its outputs
//! and prints every end-to-end metric; with `--trace 1` it records spans
//! around calls into each layer and prints every per-layer metric (a layer
//! a workload does not exercise reads 0). The last line of standard output
//! is the result object; the line before it is the run report (work
//! counters and the environment). Traced runs write their spans to
//! `$CARGO_TARGET_DIR/perfbench-spans/` (default `.bench_build`).
//! See `README.md` beside this crate for the workloads and metrics.

mod checks;
mod fig7;
mod layers;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use trace::Tracer;

/// Every end-to-end metric and its unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric and its unit, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 36] = [
    ("serve.queued_ms", "ms"),
    ("serve.sampling_ms", "ms"),
    ("serve.filter_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.engine_steps", "steps/req"),
    ("serve.lane_occupancy", "ratio"),
    ("engine.step_us", "us"),
    ("neural.feed_us", "us"),
    ("engine.us_per_busy_lane", "us"),
    ("engine.chars_fed", "count"),
    ("validator.ns_per_char", "ns"),
    ("filter.candidates", "count"),
    ("filter.accept_ratio", "ratio"),
    ("filter.us_per_candidate", "us"),
    ("frontend.preprocess_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.sema_us", "us"),
    ("frontend.repair_us", "us"),
    ("corpus.rewrite_us", "us"),
    ("cldrive.run_kernel_calls", "count"),
    ("cldrive.run_kernel_ms", "ms"),
    ("cldrive.useful_profile_ratio", "ratio"),
    ("cldrive.check_ms", "ms"),
    ("cldrive.profile_ms", "ms"),
    ("cldrive.interp_instr_per_s", "1/s"),
    ("experiments.synthesize_s", "s"),
    ("experiments.suite_dataset_s", "s"),
    ("experiments.synthetic_dataset_s", "s"),
    ("predictive.loocv_s", "s"),
    ("builder.corpus_s", "s"),
    ("builder.train_s", "s"),
    ("model.checkpoint_s", "s"),
    ("serve.start_s", "s"),
    ("checks.sema_fault_kernels", "count"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("serve-narrow", false) => serve::run(serve::NARROW, args.seed, args.seconds, &mut out),
        ("serve-wide", false) => serve::run(serve::WIDE, args.seed, args.seconds, &mut out),
        ("paper-fig7", false) => fig7::run(args.seed, args.seconds, &mut out),
        ("serve-narrow", true) => {
            serve::run_traced(serve::NARROW, args.seed, args.seconds, &tracer, &mut out)
        }
        ("serve-wide", true) => {
            serve::run_traced(serve::WIDE, args.seed, args.seconds, &tracer, &mut out)
        }
        ("paper-fig7", true) => fig7::run_traced(args.seed, args.seconds, &tracer, &mut out),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // A layer the workload does not exercise reads 0.
    for &(name, unit) in expected {
        out.metrics.entry(name).or_insert((0.0, unit));
    }
    for (name, (_, unit)) in &out.metrics {
        let listed = expected.iter().any(|(n, u)| n == name && u == unit);
        assert!(listed, "metric {name} ({unit}) is not listed for this mode");
    }
    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
            .join("perfbench-spans");
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", out.report_line(&args.workload, args.seed, args.trace));
    println!("{}", out.result_line());
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}
