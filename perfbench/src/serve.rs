//! The `serve-narrow` and `serve-wide` workloads: an in-process
//! `clgen-serve` with 16 lanes over a deterministically initialised LSTM
//! (hidden 256, 2 layers), booted through a checkpoint round trip, driven by
//! closed-loop clients over real sockets.

use crate::layers;
use crate::report::{median, peak_rss_mb, percentile, Outcome};
use crate::trace::{SpanId, Tracer};
use clgen::spec::FREE_SEED;
use clgen::{stream_seed, ClgenBuilder, SampleOptions, SamplerConfig, TrainedModel};
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_serve::{client, json, Server, ServerConfig, ServerHandle, SynthesisParams};
use experiments::SyntheticConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lanes of the server's continuously batched run.
pub const LANES: usize = 16;
/// LSTM hidden units per layer.
pub const HIDDEN: usize = 256;
/// LSTM layers.
pub const LAYERS: usize = 2;
/// Weight-initialisation seed (fixed: the workload seed varies requests only).
pub const WEIGHT_SEED: u64 = 0x15F3;
/// Generated-character budget per candidate.
pub const MAX_CHARS: usize = 512;
/// Sampling temperature.
pub const TEMPERATURE: f32 = 0.9;
/// Measured segments of an untraced run. Each begins with a set-up of the
/// server it measures, so `setup_s`, their median, samples the whole run
/// instead of its first second.
const SEGMENTS: usize = 6;
/// Untimed requests before the measured phase.
const WARMUP_REQUESTS: usize = 4;
/// Requests per block for `run_s`.
const BLOCK: usize = 50;
/// Requests re-checked after the measured phase (re-sent alone, and
/// answered by an in-process `Sampler` session).
const CHECKED_REQUESTS: usize = 6;

/// One serve workload's traffic.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Closed-loop client connections.
    pub clients: usize,
    /// Candidates each request samples.
    pub candidates: usize,
    /// Requests replayed through the engine in the traced run.
    pub replay_requests: usize,
}

/// `serve-narrow`: one client, one candidate per request.
pub const NARROW: Shape = Shape {
    clients: 1,
    candidates: 1,
    replay_requests: 100,
};

/// `serve-wide`: two clients, 16 candidates per request.
pub const WIDE: Shape = Shape {
    clients: 2,
    candidates: LANES,
    replay_requests: 48,
};

/// Request `index` of a run: its seed derives from the workload seed.
/// `count` equals `max_attempts`, so every request samples exactly
/// `candidates` candidates whatever the filter accepts.
fn request(shape: Shape, seed: u64, index: usize) -> SynthesisParams {
    SynthesisParams {
        count: shape.candidates,
        temperature: TEMPERATURE,
        max_chars: MAX_CHARS,
        seed: stream_seed(seed, index as u64),
        max_attempts: shape.candidates,
        deadline_ms: None,
    }
}

struct Served {
    handle: ServerHandle,
    /// The model before its checkpoint round trip: the in-process reference.
    reference: TrainedModel,
}

fn setup(tracer: &Tracer, parent: SpanId) -> Served {
    let stage = tracer.scope("builder.corpus", parent, |_| {
        ClgenBuilder::with_options(SyntheticConfig::default().clgen)
            .build_corpus()
            .expect("corpus builds")
    });
    let vocab = stage.vocabulary().clone();
    let reference = tracer.scope("builder.train", parent, |_| {
        let config = LstmConfig {
            vocab_size: vocab.len(),
            hidden_size: HIDDEN,
            num_layers: LAYERS,
            seed: WEIGHT_SEED,
        };
        TrainedModel::from_lstm(vocab, LstmModel::new(config)).expect("model assembles")
    });
    let served = tracer.scope("model.checkpoint", parent, |_| {
        TrainedModel::from_bytes(&reference.to_bytes()).expect("checkpoint decodes")
    });
    let handle = tracer.scope("serve.start", parent, |_| {
        let handle = Server::start(
            served,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                lanes: LANES,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if client::get(handle.addr(), "/healthz").is_ok_and(|r| r.status == 200) {
                break;
            }
            assert!(Instant::now() < deadline, "server never became healthy");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle
    });
    Served { handle, reference }
}

/// One measured request.
struct Sample {
    index: usize,
    latency_ms: f64,
    /// Completion time, seconds since the measured phase began.
    done_s: f64,
    /// The done line's `queued`, `sampling`, `filter`, `respond` µs.
    stages: [u64; 4],
    generated_chars: u64,
    /// Whether the client recorded a span for this request.
    traced: bool,
    /// Trace-stripped body, kept for the requests re-checked afterwards.
    body: Option<String>,
}

/// The sum of the counts in a done line's `"rejected":{…}` object.
fn rejected_counts(done: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(start) = done.find("\"rejected\":{") else {
        return out;
    };
    let rest = &done[start + "\"rejected\":{".len()..];
    let Some(end) = rest.find('}') else {
        return out;
    };
    for pair in rest[..end].split(',').filter(|p| !p.is_empty()) {
        if let Some((k, v)) = pair.rsplit_once(':') {
            out.insert(
                k.trim_matches('"').to_string(),
                v.parse().unwrap_or(u64::MAX),
            );
        }
    }
    out
}

/// Check one response's shape; returns the done line on success.
fn check_response(shape: Shape, reply: &client::Response) -> Result<String, String> {
    if !reply.is_complete_synthesis() {
        return Err(format!("status {} or incomplete body", reply.status));
    }
    let lines = reply.lines();
    let done = lines.last().cloned().unwrap_or_default();
    let kernel_lines = lines
        .iter()
        .filter(|l| l.starts_with("{\"kernel\":"))
        .count() as u64;
    let kernels = json::extract_u64(&done, "kernels").unwrap_or(u64::MAX);
    let attempts = json::extract_u64(&done, "attempts").unwrap_or(u64::MAX);
    let rejected: u64 = rejected_counts(&done).values().sum();
    if attempts != shape.candidates as u64 {
        return Err(format!(
            "{attempts} attempts for {} requested",
            shape.candidates
        ));
    }
    if kernels != kernel_lines || kernels + rejected != attempts {
        return Err(format!(
            "done line counts disagree: {kernels} kernels ({kernel_lines} lines) + {rejected} rejected != {attempts} attempts"
        ));
    }
    Ok(done)
}

/// The closed loop: `shape.clients` connections each send their next
/// request as soon as the previous one completes, until `deadline`.
/// Requests take their indices from `next`; completion times count from
/// `offset_s` seconds.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    shape: Shape,
    seed: u64,
    next: &AtomicUsize,
    offset_s: f64,
    deadline: Instant,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Vec<Sample> {
    let samples = Mutex::new(Vec::new());
    let problems = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..shape.clients {
            scope.spawn(|| loop {
                if Instant::now() >= deadline {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                let params = request(shape, seed, index);
                // Every other request carries a client span, so the traced run
                // can compare the two halves (the recorder's own cost).
                let traced = tracer.enabled() && index.is_multiple_of(2);
                let span = if traced {
                    tracer.begin("serve.request", parent)
                } else {
                    None
                };
                let sent = Instant::now();
                let reply = client::synthesize(addr, &params);
                let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                tracer.end(span, 1);
                let done = match reply.as_ref().map_err(|e| e.to_string()) {
                    Ok(r) => check_response(shape, r),
                    Err(e) => Err(e),
                };
                match done {
                    Ok(done) => {
                        let stage = |name| json::extract_u64(&done, name).unwrap_or(0);
                        let body = (index < CHECKED_REQUESTS).then(|| {
                            client::strip_traces(&reply.as_ref().expect("checked").text())
                        });
                        samples.lock().expect("samples").push(Sample {
                            index,
                            latency_ms,
                            done_s: offset_s + start.elapsed().as_secs_f64(),
                            stages: [
                                stage("queued"),
                                stage("sampling"),
                                stage("filter"),
                                stage("respond"),
                            ],
                            generated_chars: json::extract_u64(&done, "generated_chars")
                                .unwrap_or(0),
                            traced,
                            body,
                        });
                    }
                    Err(e) => problems
                        .lock()
                        .expect("problems")
                        .push(format!("request {index}: {e}")),
                }
            });
        }
    });
    let problems = problems.into_inner().expect("problems");
    let mut samples = samples.into_inner().expect("samples");
    samples.sort_by_key(|s| s.index);
    out.attempted += (samples.len() + problems.len()) as u64;
    out.failed += problems.len() as u64;
    out.problems.extend(problems);
    samples
}

/// After the measured phase: a sample of requests, re-sent alone, must
/// return the same trace-stripped body (arrival-order invariance), and an
/// in-process `Sampler` session with the same seed and parameters must
/// produce the same kernels and counts.
fn check_sampled(served: &Served, shape: Shape, seed: u64, samples: &[Sample], out: &mut Outcome) {
    let addr = served.handle.addr();
    let checked: Vec<&Sample> = samples.iter().filter(|s| s.body.is_some()).collect();
    out.check(checked.len() == CHECKED_REQUESTS, || {
        format!(
            "only {} of {CHECKED_REQUESTS} checked requests completed",
            checked.len()
        )
    });
    for sample in checked {
        let params = request(shape, seed, sample.index);
        let body = sample.body.as_deref().expect("kept");
        match client::synthesize(addr, &params) {
            Ok(alone) => out.check(client::strip_traces(&alone.text()) == body, || {
                format!("request {} differs when re-sent alone", sample.index)
            }),
            Err(e) => out.check(false, || format!("re-send of {}: {e}", sample.index)),
        }
        let report = served
            .reference
            .sampler(
                SamplerConfig::new(params.seed)
                    .with_sample(SampleOptions {
                        max_chars: params.max_chars,
                        temperature: params.temperature,
                    })
                    .with_lanes(LANES)
                    .with_max_attempts(params.max_attempts),
            )
            .synthesize(params.count);
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        let kernels: Vec<String> = lines
            .iter()
            .filter(|l| l.starts_with("{\"kernel\":"))
            .filter_map(|l| json::extract_str(l, "kernel"))
            .collect();
        let done = lines.last().copied().unwrap_or_default();
        let expected: Vec<String> = report.kernels.iter().map(|k| k.source.clone()).collect();
        let expected_rejected: BTreeMap<String, u64> = report
            .stats
            .rejected
            .iter()
            .map(|(reason, n)| (reason.to_string(), *n as u64))
            .collect();
        let same = kernels == expected
            && json::extract_u64(done, "attempts") == Some(report.stats.attempts as u64)
            && json::extract_u64(done, "generated_chars")
                == Some(report.stats.generated_chars as u64)
            && rejected_counts(done) == expected_rejected;
        out.check(same, || {
            format!(
                "request {} differs from an in-process Sampler session",
                sample.index
            )
        });
    }
}

/// The `clgen_lane_occupancy` histogram's (count, sum) from `/metrics`.
fn occupancy(addr: SocketAddr) -> (f64, f64) {
    let text = client::get(addr, "/metrics")
        .map(|r| r.text())
        .unwrap_or_default();
    let read = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (
        read("clgen_lane_occupancy_count"),
        read("clgen_lane_occupancy_sum"),
    )
}

fn warm_up(addr: SocketAddr, shape: Shape, seed: u64) {
    for i in 0..WARMUP_REQUESTS {
        // Seeds outside the measured requests' range.
        let params = request(shape, !seed, i);
        let _ = client::synthesize(addr, &params);
    }
}

/// Latency, throughput and block metrics of a measured phase that lasted
/// `measured_s` seconds.
fn end_to_end(samples: &[Sample], measured_s: f64, out: &mut Outcome) {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let mut done: Vec<f64> = samples.iter().map(|s| s.done_s).collect();
    done.sort_by(f64::total_cmp);
    out.metric("latency_p50_ms", median(&latencies), "ms");
    out.metric("latency_p90_ms", percentile(&latencies, 90.0), "ms");
    out.metric("requests_per_s", samples.len() as f64 / measured_s, "1/s");
    let blocks: Vec<f64> = (0..done.len() / BLOCK)
        .map(|b| {
            let before = if b == 0 { 0.0 } else { done[b * BLOCK - 1] };
            done[(b + 1) * BLOCK - 1] - before
        })
        .collect();
    out.metric("run_s", median(&blocks), "s");
    out.counters.insert("requests", samples.len() as u64);
    out.counters.insert(
        "generated_chars",
        samples.iter().map(|s| s.generated_chars).sum(),
    );
}

/// The untraced run: `SEGMENTS` times, set up a fresh server (replacing
/// the last one), warm it up and measure the closed loop against it for an
/// equal share of `seconds`; then the output checks on the last server.
pub fn run(shape: Shape, seed: u64, seconds: u64, out: &mut Outcome) {
    let off = Tracer::new(false);
    let segment = Duration::from_secs_f64(seconds as f64 / SEGMENTS as f64);
    let next = AtomicUsize::new(0);
    let (mut setups, mut samples) = (Vec::new(), Vec::new());
    let mut measured_s = 0.0;
    let mut served: Option<Served> = None;
    for _ in 0..SEGMENTS {
        if let Some(previous) = served.take() {
            previous.handle.shutdown();
        }
        let t0 = Instant::now();
        let fresh = setup(&off, None);
        setups.push(t0.elapsed().as_secs_f64());
        let addr = fresh.handle.addr();
        warm_up(addr, shape, seed);
        let start = Instant::now();
        samples.extend(closed_loop(
            addr,
            shape,
            seed,
            &next,
            measured_s,
            start + segment,
            &off,
            None,
            out,
        ));
        measured_s += start.elapsed().as_secs_f64();
        served = Some(fresh);
    }
    let served = served.expect("at least one segment");
    samples.sort_by_key(|s| s.index);
    end_to_end(&samples, measured_s, out);
    out.metric("setup_s", median(&setups), "s");
    check_sampled(&served, shape, seed, &samples, out);
    served.handle.shutdown();
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced run: one set-up and the closed loop, both under spans, with
/// the server's own stage split and `/metrics` deltas; then the engine,
/// validator and filter replays of the first requests' candidates.
pub fn run_traced(shape: Shape, seed: u64, seconds: u64, tracer: &Tracer, out: &mut Outcome) {
    let root = tracer.begin("run", None);
    let served = tracer.scope("setup", root, |s| setup(tracer, s));
    let addr = served.handle.addr();
    warm_up(addr, shape, seed);
    let (steps0, busy0) = occupancy(addr);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let samples = tracer.scope("measure", root, |s| {
        closed_loop(
            addr,
            shape,
            seed,
            &AtomicUsize::new(0),
            0.0,
            deadline,
            tracer,
            s,
            out,
        )
    });
    let (steps1, busy1) = occupancy(addr);
    check_sampled(&served, shape, seed, &samples, out);
    served.handle.shutdown();

    let n = samples.len().max(1) as f64;
    let mean = |k: usize| samples.iter().map(|s| s.stages[k]).sum::<u64>() as f64 / n / 1e3;
    out.metric("serve.queued_ms", mean(0), "ms");
    out.metric("serve.sampling_ms", mean(1), "ms");
    out.metric("serve.filter_ms", mean(2), "ms");
    out.metric("serve.respond_ms", mean(3), "ms");
    let outside: f64 = samples
        .iter()
        .map(|s| s.latency_ms - s.stages.iter().sum::<u64>() as f64 / 1e3)
        .sum::<f64>()
        / n;
    out.metric("serve.outside_ms", outside, "ms");
    let steps = steps1 - steps0;
    out.metric("serve.engine_steps", steps / n, "steps/req");
    out.counters.insert("serve.engine_steps", steps as u64);
    out.metric(
        "serve.lane_occupancy",
        if steps > 0.0 {
            (busy1 - busy0) / steps / LANES as f64
        } else {
            0.0
        },
        "ratio",
    );
    let p50 = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.latency_ms)
            .collect();
        median(&v)
    };
    out.metric(
        "trace.overhead_pct",
        (p50(true) / p50(false) - 1.0) * 100.0,
        "%",
    );

    // Replays over the model the server was booted from.
    let model = &served.reference;
    let seeds: Vec<u64> = (0..shape.replay_requests)
        .flat_map(|i| {
            let params = request(shape, seed, i);
            (0..shape.candidates as u64).map(move |j| stream_seed(params.seed, j))
        })
        .collect();
    let options = SampleOptions {
        max_chars: MAX_CHARS,
        temperature: TEMPERATURE,
    };
    let mut streams = model.streams(LANES);
    let candidates = tracer.scope("replay.engine", root, |s| {
        layers::replay_engine(
            tracer,
            s,
            streams.as_mut(),
            model.vocabulary(),
            FREE_SEED,
            options,
            &seeds,
            shape.candidates,
        )
    });
    // The replay must reproduce what the server sampled.
    for sample in samples.iter().filter(|s| s.index < shape.replay_requests) {
        let chars: u64 = candidates[sample.index * shape.candidates..][..shape.candidates]
            .iter()
            .map(|c| c.generated_chars as u64)
            .sum();
        out.check(chars == sample.generated_chars, || {
            format!(
                "engine replay of request {} diverges from the server",
                sample.index
            )
        });
    }
    tracer.scope("replay.validator", root, |s| {
        layers::replay_validator(tracer, s, &candidates)
    });
    let filter = ServerConfig::default().filter;
    let accepted = tracer.scope("replay.filter", root, |s| {
        layers::replay_filter(tracer, s, &filter, &candidates)
    });
    tracer.end(root, 0);
    layers::report_replays(tracer, out);
    out.metric(
        "filter.accept_ratio",
        accepted.len() as f64 / candidates.len().max(1) as f64,
        "ratio",
    );
    let t = tracer.totals();
    let secs = |name: &str| t.get(name).map_or(0.0, |t| t.seconds());
    out.metric("builder.corpus_s", secs("builder.corpus"), "s");
    out.metric("builder.train_s", secs("builder.train"), "s");
    out.metric("model.checkpoint_s", secs("model.checkpoint"), "s");
    out.metric("serve.start_s", secs("serve.start"), "s");
}
