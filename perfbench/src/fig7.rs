//! The `paper-fig7` workload: the Fig. 7 experiment of `fig7_npb_speedup`,
//! run offline through the same public calls with the n-gram backend.

use crate::checks;
use crate::layers;
use crate::report::{median, peak_rss_mb, percentile, Outcome};
use crate::trace::{SpanId, Tracer};
use cl_frontend::printer::print_function;
use cl_frontend::sema::KernelSignature;
use cl_frontend::TranslationUnit;
use cldrive::{
    check_kernel, execute, generate_payload, CheckerOptions, DriveError, DriverOptions, ExecLimits,
    ExecutionCounts, HostDriver, NDRange, PayloadOptions, Platform,
};
use clgen::{
    stream_seed, ArgumentSpec, ClgenBuilder, SamplerConfig, SynthesizedKernel, TrainedModel,
};
use experiments::data::suite_driver_options;
use experiments::{build_suite_dataset, build_synthetic_dataset, DatasetConfig, SyntheticConfig};
use grewe_features::FeatureSet;
use predictive::{leave_one_out, BenchmarkResult, Dataset, TreeConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Kernels each pass synthesizes: `fig7_npb_speedup` at `CLGEN_SCALE=1`.
pub const KERNELS: usize = 300;
/// Set-ups before each untraced pass; `setup_s` is the median of all of a
/// run's set-ups, taken between passes so that no single stretch of the run
/// decides it.
const SETUPS_PER_PASS: usize = 3;
/// Sampling lanes of the stream (`SamplerConfig::new`'s default) and the
/// candidates per round it samples (`lanes × 4`).
const LANES: usize = 8;
const ROUND: usize = LANES * 4;

/// The synthesis configuration of `fig7_npb_speedup`.
fn config() -> SyntheticConfig {
    SyntheticConfig {
        target_kernels: KERNELS,
        max_attempts: KERNELS * 50,
        ..SyntheticConfig::default()
    }
}

/// The sampling run seed of pass `pass` of a run with workload seed `seed`:
/// each pass of a run samples other kernels.
fn run_seed(seed: u64, pass: u64) -> u64 {
    stream_seed(seed, u64::MAX - pass)
}

fn platforms() -> [Platform; 2] {
    [Platform::amd(), Platform::nvidia()]
}

fn setup(tracer: &Tracer, parent: SpanId) -> TrainedModel {
    let stage = tracer.scope("builder.corpus", parent, |_| {
        ClgenBuilder::with_options(config().clgen)
            .build_corpus()
            .expect("corpus builds")
    });
    tracer.scope("builder.train", parent, |_| {
        stage.train().expect("model trains")
    })
}

/// What one pass produced.
struct Pass {
    /// The stream's run seed.
    run_seed: u64,
    run_s: f64,
    synthesize_s: f64,
    kernels: Vec<SynthesizedKernel>,
    /// Candidates the stream dispatched.
    dispatched: u64,
    /// Kernels the filter accepted that the scope/literal check refused.
    sema_faults: u64,
    /// (platform, evaluated NPB dataset, baseline folds, with-CLgen folds).
    loocv: Vec<(String, Dataset, Vec<BenchmarkResult>, Vec<BenchmarkResult>)>,
    synthetic_examples: usize,
}

/// One pass of Fig. 7: synthesize `KERNELS` kernels that pass the checks,
/// build the suite and synthetic datasets on both platforms, and run
/// leave-one-out with and without the CLgen kernels, making the calls
/// `fig7_npb_speedup` makes.
fn pass(
    model: &TrainedModel,
    pass_seed: u64,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Pass {
    let config = config();
    let spec = ArgumentSpec::paper_default();
    let started = Instant::now();
    let (kernels, dispatched, sema_faults) = tracer.scope("experiments.synthesize", parent, |_| {
        let sampler = model.sampler(
            SamplerConfig::new(pass_seed)
                .with_spec(spec.clone())
                .with_sample(config.clgen.sample)
                .with_max_attempts(config.max_attempts),
        );
        let mut stream = sampler.stream();
        let mut kernels = Vec::with_capacity(KERNELS);
        let mut faults = 0u64;
        while kernels.len() < KERNELS {
            let Some(streamed) = stream.next() else { break };
            let compiled = cl_frontend::compile(&streamed.kernel.source, &Default::default());
            if checks::scope_fault(&compiled.unit).is_some() {
                faults += 1;
                continue;
            }
            out.check(
                compiled.is_ok()
                    && compiled.kernels.len() == 1
                    && checks::matches_spec(&compiled.kernels[0], &spec),
                || {
                    format!(
                        "accepted kernel without the paper signature:\n{}",
                        streamed.kernel.source
                    )
                },
            );
            kernels.push(streamed.kernel);
        }
        (kernels, stream.candidates_dispatched(), faults)
    });
    let synthesize_s = started.elapsed().as_secs_f64();
    out.check(kernels.len() == KERNELS, || {
        format!("stream ended after {} of {KERNELS} kernels", kernels.len())
    });

    let suites: Vec<Dataset> = tracer.scope("experiments.suite_dataset", parent, |_| {
        platforms()
            .iter()
            .map(|p| {
                build_suite_dataset(
                    p,
                    &DatasetConfig {
                        feature_set: FeatureSet::Grewe,
                        ..Default::default()
                    },
                )
            })
            .collect()
    });

    let synthetic: Vec<Dataset> = tracer.scope("experiments.synthetic_dataset", parent, |_| {
        platforms()
            .iter()
            .map(|p| build_synthetic_dataset(&kernels, p, FeatureSet::Grewe, &config.dataset_sizes))
            .collect()
    });

    let tree = TreeConfig::default();
    let loocv = tracer.scope("predictive.loocv", parent, |_| {
        platforms()
            .iter()
            .zip(suites.iter().zip(&synthetic))
            .map(|(p, (dataset, synth))| {
                let npb = dataset.of_suite("NPB");
                let others = Dataset {
                    examples: dataset
                        .examples
                        .iter()
                        .filter(|e| e.suite != "NPB")
                        .cloned()
                        .collect(),
                };
                let baseline = leave_one_out(&npb, Some(&others), &tree);
                let with_clgen = leave_one_out(&npb, Some(&others.merged_with(synth)), &tree);
                (p.name.clone(), npb, baseline, with_clgen)
            })
            .collect()
    });
    Pass {
        run_seed: pass_seed,
        run_s: started.elapsed().as_secs_f64(),
        synthesize_s,
        kernels,
        dispatched,
        sema_faults,
        loocv,
        synthetic_examples: synthetic.iter().map(Dataset::len).sum(),
    }
}

/// Checks and operation counts of one pass: each kernel, each fault probe
/// and each LOOCV fold is one operation; a probe fails while `cl-frontend`
/// accepts it.
fn account(pass: &Pass, out: &mut Outcome) {
    for (platform, npb, baseline, with_clgen) in &pass.loocv {
        for folds in [baseline, with_clgen] {
            for problem in checks::loocv_mismatches(npb, folds) {
                out.check(false, || format!("{platform}: {problem}"));
            }
            out.attempted += folds.len() as u64;
        }
    }
    out.check(pass.synthetic_examples > 0, || {
        "no synthetic examples".to_string()
    });
    out.attempted += pass.kernels.len() as u64;
    for probe in checks::SEMA_FAULT_PROBES {
        out.attempted += 1;
        if !checks::probe_rejected(probe) {
            out.failed += 1;
        }
    }
}

fn interpreter_checks(out: &mut Outcome) {
    for problem in checks::interpreter_reference_mismatches() {
        out.check(false, || format!("interpreter: {problem}"));
    }
}

/// Drive each of the pass's kernels on its own, on each platform, with the
/// call the pass makes for all of them at once: one latency sample per
/// kernel the driver accepts. Together the calls must give the pass's
/// examples.
fn drive_latencies(
    pass: &Pass,
    config: &SyntheticConfig,
    latencies: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let mut examples = 0;
    for p in platforms() {
        for kernel in &pass.kernels {
            let t0 = Instant::now();
            let one = build_synthetic_dataset(
                std::slice::from_ref(kernel),
                &p,
                FeatureSet::Grewe,
                &config.dataset_sizes,
            );
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            // A kernel the dynamic checker refuses costs a check, not a drive.
            if !one.is_empty() {
                latencies.push(elapsed_ms);
            }
            examples += one.len();
        }
    }
    out.check(examples == pass.synthetic_examples, || {
        format!(
            "kernels driven one by one give {examples} examples, the pass {}",
            pass.synthetic_examples
        )
    });
}

/// Whether another round, as long as the last one, would end nearer to
/// `deadline` than stopping now, so that a run measures `--seconds` to
/// within half a round.
fn fits(deadline: Instant, last_round_s: f64) -> bool {
    Instant::now() + Duration::from_secs_f64(last_round_s / 2.0) <= deadline
}

/// The untraced run: rounds of `SETUPS_PER_PASS` set-ups, one pass and the
/// one-by-one drives of its kernels, while they fit in `seconds` (at least
/// one), then the interpreter reference checks.
pub fn run(seed: u64, seconds: u64, out: &mut Outcome) {
    let off = Tracer::new(false);
    let config = config();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut setups, mut runs, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut candidates, mut synthesize_s) = (0u64, 0.0);
    let mut last_round_s = 0.0;
    while runs.is_empty() || fits(deadline, last_round_s) {
        let round = Instant::now();
        let mut model = None;
        for _ in 0..SETUPS_PER_PASS {
            drop(model.take());
            let t0 = Instant::now();
            model = Some(setup(&off, None));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let model = model.expect("at least one set-up");
        let p = pass(&model, run_seed(seed, runs.len() as u64), &off, None, out);
        account(&p, out);
        drive_latencies(&p, &config, &mut latencies, out);
        runs.push(p.run_s);
        candidates += p.dispatched;
        synthesize_s += p.synthesize_s;
        out.counters.insert("fig7.passes", runs.len() as u64);
        *out.counters.entry("filter.candidates").or_default() += p.dispatched;
        *out.counters.entry("checks.sema_fault_kernels").or_default() += p.sema_faults;
        last_round_s = round.elapsed().as_secs_f64();
    }
    interpreter_checks(out);
    out.metric("setup_s", median(&setups), "s");
    out.metric("run_s", median(&runs), "s");
    out.metric("latency_p50_ms", median(&latencies), "ms");
    out.metric("latency_p90_ms", percentile(&latencies, 90.0), "ms");
    out.metric("requests_per_s", candidates as f64 / synthesize_s, "1/s");
    out.counters
        .insert("fig7.latency_samples", latencies.len() as u64);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced run: one set-up and passes under phase spans, alternating
/// with untraced passes to measure the recorder's cost; then replays of the
/// last traced pass through the engine, validator, filter and cldrive.
pub fn run_traced(seed: u64, seconds: u64, tracer: &Tracer, out: &mut Outcome) {
    let root = tracer.begin("run", None);
    let model = tracer.scope("setup", root, |s| setup(tracer, s));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut last = None;
    // Untraced first, then traced, while passes fit in the run time (at
    // least one of each); the replays below use the last traced pass.
    let mut previous = 0.0;
    while traced.is_empty() || fits(deadline, previous) {
        let on = untraced.len() > traced.len();
        tracer.set_enabled(on);
        let span = tracer.begin("pass", root);
        let pass_seed = run_seed(seed, (traced.len() + untraced.len()) as u64);
        let p = pass(&model, pass_seed, tracer, span, out);
        tracer.end(span, p.kernels.len() as u64);
        previous = p.run_s;
        account(&p, out);
        if on {
            traced.push(p.run_s);
            last = Some(p);
        } else {
            untraced.push(p.run_s);
        }
    }
    tracer.set_enabled(true);
    let p = last.expect("one traced pass");
    out.metric(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    out.metric("checks.sema_fault_kernels", p.sema_faults as f64, "count");
    out.counters
        .insert("checks.sema_fault_kernels", p.sema_faults);

    // Engine: re-sample the pass's candidates round by round, as the stream
    // dispatched them.
    let config = config();
    let spec = ArgumentSpec::paper_default();
    let seeds: Vec<u64> = (0..p.dispatched)
        .map(|i| stream_seed(p.run_seed, i))
        .collect();
    let mut streams = model.streams(LANES);
    let candidates: Vec<_> = tracer.scope("replay.engine", root, |s| {
        seeds
            .chunks(ROUND)
            .flat_map(|round| {
                layers::replay_engine(
                    tracer,
                    s,
                    streams.as_mut(),
                    model.vocabulary(),
                    &spec.seed_text(),
                    config.clgen.sample,
                    round,
                    LANES,
                )
            })
            .collect()
    });
    tracer.scope("replay.validator", root, |s| {
        layers::replay_validator(tracer, s, &candidates)
    });
    let filter = SamplerConfig::new(0).filter;
    let accepted = tracer.scope("replay.filter", root, |s| {
        layers::replay_filter(tracer, s, &filter, &candidates)
    });
    // The replay must reproduce the pass's kernels.
    let replayed: Vec<&String> = accepted
        .iter()
        .filter(|source| {
            let compiled = cl_frontend::compile(source, &Default::default());
            checks::scope_fault(&compiled.unit).is_none()
        })
        .take(KERNELS)
        .collect();
    let same = replayed.len() == p.kernels.len()
        && replayed
            .iter()
            .zip(&p.kernels)
            .all(|(a, k)| **a == k.source);
    out.check(same, || {
        "filter replay diverges from the stream's kernels".to_string()
    });
    out.metric(
        "filter.accept_ratio",
        accepted.len() as f64 / candidates.len().max(1) as f64,
        "ratio",
    );

    tracer.scope("replay.cldrive", root, |s| {
        replay_cldrive(tracer, s, &p.kernels, &config.dataset_sizes, out)
    });
    tracer.end(root, 0);
    layers::report_replays(tracer, out);

    let t = tracer.totals();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let check = get("cldrive.check");
    out.metric(
        "cldrive.run_kernel_ms",
        get("cldrive.run_kernel").mean_ms(),
        "ms",
    );
    let profile = get("cldrive.profile");
    out.metric("cldrive.check_ms", check.mean_ms(), "ms");
    out.metric("cldrive.profile_ms", profile.mean_ms(), "ms");
    out.metric(
        "cldrive.interp_instr_per_s",
        if profile.ns == 0 {
            0.0
        } else {
            profile.count as f64 / profile.seconds()
        },
        "1/s",
    );
    out.counters
        .insert("cldrive.interp_instructions", profile.count);
    let per_pass = |name: &str| get(name).seconds() / traced.len() as f64;
    out.metric(
        "experiments.synthesize_s",
        per_pass("experiments.synthesize"),
        "s",
    );
    out.metric(
        "experiments.suite_dataset_s",
        per_pass("experiments.suite_dataset"),
        "s",
    );
    out.metric(
        "experiments.synthetic_dataset_s",
        per_pass("experiments.synthetic_dataset"),
        "s",
    );
    out.metric("predictive.loocv_s", per_pass("predictive.loocv"), "s");
    out.metric("builder.corpus_s", get("builder.corpus").seconds(), "s");
    out.metric("builder.train_s", get("builder.train").seconds(), "s");
}

/// Does the kernel read a second NDRange dimension? The host driver then
/// launches a 2-D range; the replay must launch what the driver launches.
fn uses_second_dimension(unit: &TranslationUnit, sig: &KernelSignature) -> bool {
    unit.function(&sig.name).is_some_and(|f| {
        let text = print_function(f);
        text.contains("get_global_id(1)")
            || text.contains("get_group_id(1)")
            || text.contains("get_local_id(1)")
    })
}

fn hash_of(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Replay the pass's `HostDriver::run_kernel` calls — every suite benchmark
/// kernel and every synthesized kernel, at each dataset size, on both
/// platforms. Each call is made once through `run_kernel` itself (timed as
/// `cldrive.run_kernel`) and once split into the steps it takes: the dynamic
/// check (`check_kernel`, four interpretations of two payloads) when
/// configured, then `generate_payload` and `interp::execute` at the capped
/// profile size. The split must reach the same outcome and the same
/// `ExecutionCounts` as `run_kernel`, so a driver that stops making these
/// steps fails the run instead of leaving the split to time a copy.
/// `cldrive.useful_profile_ratio` is distinct (kernel, payload)
/// interpretations over all interpretations.
fn replay_cldrive(
    tracer: &Tracer,
    parent: SpanId,
    kernels: &[SynthesizedKernel],
    synthetic_sizes: &[usize],
    out: &mut Outcome,
) {
    let suite_options = suite_driver_options();
    let mut synthetic_options = suite_driver_options();
    synthetic_options.checker = Some(CheckerOptions {
        global_size: 128,
        local_size: 32,
        ..Default::default()
    });
    let mut work: Vec<(String, Vec<usize>, &DriverOptions, bool)> = suites::all_benchmarks()
        .into_iter()
        .map(|b| (b.source, b.dataset_sizes, &suite_options, true))
        .collect();
    work.extend(kernels.iter().map(|k| {
        (
            k.source.clone(),
            synthetic_sizes.to_vec(),
            &synthetic_options,
            false,
        )
    }));
    let mut calls = 0u64;
    let mut interpretations = 0u64;
    let mut distinct = HashSet::new();
    let mut diverged = 0u64;
    for platform in platforms() {
        for (source, sizes, options, all_kernels) in &work {
            let compiled = cl_frontend::compile(source, &Default::default());
            if !compiled.is_ok() || compiled.kernels.is_empty() {
                continue;
            }
            let driver = HostDriver::with_options(platform.clone(), (*options).clone());
            let source_hash = hash_of(source);
            let sigs = if *all_kernels {
                &compiled.kernels[..]
            } else {
                &compiled.kernels[..1]
            };
            for &size in sizes {
                for sig in sigs {
                    calls += 1;
                    let span = tracer.begin("cldrive.run_kernel", parent);
                    let run = driver.run_kernel(&compiled.unit, sig, size);
                    tracer.end(span, 0);
                    // The split's outcome: the counts, or the step that failed.
                    let split: Result<ExecutionCounts, &str> = 'split: {
                        if let Some(checker) = &options.checker {
                            let span = tracer.begin("cldrive.check", parent);
                            let outcome = check_kernel(&compiled.unit, sig, checker);
                            tracer.end(span, 0);
                            interpretations += 4;
                            distinct.insert(hash_of((source_hash, &sig.name, "check-a")));
                            distinct.insert(hash_of((source_hash, &sig.name, "check-b")));
                            if !outcome.is_useful() {
                                break 'split Err("check");
                            }
                        }
                        let profile_size = size
                            .min(options.profile_elements_cap)
                            .max(options.local_size);
                        let span = tracer.begin("cldrive.profile", parent);
                        let payload = generate_payload(
                            sig,
                            &PayloadOptions {
                                global_size: profile_size,
                                local_size: options.local_size,
                                seed: options.seed,
                            },
                        );
                        let Ok(payload) = payload else {
                            tracer.end(span, 0);
                            break 'split Err("payload");
                        };
                        let ndrange = if uses_second_dimension(&compiled.unit, sig) {
                            let side = (profile_size as f64).sqrt().ceil() as usize;
                            let lside = (options.local_size as f64).sqrt().ceil().max(1.0) as usize;
                            NDRange::two_d(side.max(1), side.max(1), lside, lside)
                        } else {
                            NDRange::linear(profile_size, options.local_size)
                        };
                        let limits = ExecLimits {
                            steps_per_work_item: 2_000_000,
                            max_work_items: options.profile_work_item_cap,
                            total_steps: options.total_step_budget,
                        };
                        let result =
                            execute(&compiled.unit, &sig.name, payload.args, ndrange, &limits);
                        let instructions = result.as_ref().map_or(0, |r| r.counts.instructions);
                        tracer.end(span, instructions);
                        interpretations += 1;
                        distinct.insert(hash_of((
                            source_hash,
                            &sig.name,
                            profile_size,
                            options.seed,
                        )));
                        result.map(|r| r.counts).map_err(|_| "execute")
                    };
                    let agree = match (&run, &split) {
                        (Ok(run), Ok(counts)) => run.counts == *counts,
                        (Err(DriveError::Check(_)), Err("check"))
                        | (Err(DriveError::Payload(_)), Err("payload"))
                        | (Err(DriveError::Exec(_)), Err("execute")) => true,
                        _ => false,
                    };
                    if !agree {
                        diverged += 1;
                    }
                }
            }
        }
    }
    out.check(diverged == 0, || {
        format!("{diverged} of {calls} run_kernel calls differ from their check/profile split")
    });
    out.metric("cldrive.run_kernel_calls", calls as f64, "count");
    out.counters.insert("cldrive.run_kernel_calls", calls);
    out.metric(
        "cldrive.useful_profile_ratio",
        distinct.len() as f64 / interpretations.max(1) as f64,
        "ratio",
    );
}
