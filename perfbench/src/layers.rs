//! Per-layer replays for the traced run: the engine and model step, the
//! prefix validator and the rejection filter, each timed by spans around
//! calls into the layer's public functions.

use crate::report::Outcome;
use crate::trace::{SpanId, Tracer};
use cl_frontend::{parser, preprocess, sema, PrefixValidator};
use clgen::{filter_candidate, BatchEngine, SampleOptions, SampledCandidate, StopReason};
use clgen_corpus::filter::{compile_options, FilterConfig};
use clgen_corpus::rewriter::rewrite_unit_to_kernels;
use clgen_corpus::Vocabulary;
use clgen_neural::StreamBatch;
use std::cell::Cell;
use std::hint::black_box;

/// A [`StreamBatch`] that records a `neural.feed_many` span around every
/// batched feed of the streams it wraps, as a child of the engine step in
/// progress.
struct TimedStreams<'t, 's> {
    inner: &'s mut dyn StreamBatch,
    tracer: &'t Tracer,
    step: &'t Cell<SpanId>,
}

impl StreamBatch for TimedStreams<'_, '_> {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }

    fn num_streams(&self) -> usize {
        self.inner.num_streams()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn reset_stream(&mut self, stream: usize) {
        self.inner.reset_stream(stream);
    }

    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        let span = self.tracer.begin("neural.feed_many", self.step.get());
        self.inner.feed_many(pairs);
        self.tracer.end(span, pairs.len() as u64);
    }

    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        self.inner.probs_into(stream, out);
    }
}

/// Sample `seeds` through [`BatchEngine::admit`]/[`BatchEngine::step_into`]
/// over `streams`, keeping at most `busy` lanes occupied (the occupancy the
/// workload runs at), and return the candidates in seed order. Each step is
/// an `engine.step` span whose count is the lanes it advanced.
#[allow(clippy::too_many_arguments)]
pub fn replay_engine(
    tracer: &Tracer,
    parent: SpanId,
    streams: &mut dyn StreamBatch,
    vocab: &Vocabulary,
    seed_text: &str,
    options: SampleOptions,
    seeds: &[u64],
    busy: usize,
) -> Vec<SampledCandidate> {
    streams.reset();
    let step_span = Cell::new(None);
    let mut timed = TimedStreams {
        inner: streams,
        tracer,
        step: &step_span,
    };
    let mut results: Vec<Option<SampledCandidate>> = vec![None; seeds.len()];
    let mut next = 0usize;
    let mut completed = Vec::new();
    let mut engine = BatchEngine::new(&mut timed, vocab);
    loop {
        while next < seeds.len() && engine.occupied_lanes() < busy {
            let lane = engine.free_lane().expect("busy <= lanes");
            if let Some(done) = engine.admit(lane, next as u64, seed_text, options, seeds[next]) {
                results[next] = Some(done);
            }
            next += 1;
        }
        let occupied = engine.occupied_lanes();
        if occupied == 0 {
            break;
        }
        let span = tracer.begin("engine.step", parent);
        step_span.set(span);
        engine.step_into(&mut completed);
        tracer.end(span, occupied as u64);
        for (ticket, candidate) in completed.drain(..) {
            results[ticket as usize] = Some(candidate);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every admitted candidate completes"))
        .collect()
}

/// Feed every candidate's text through a fresh [`PrefixValidator`], one
/// `validator.feed` span per candidate counting its characters.
pub fn replay_validator(tracer: &Tracer, parent: SpanId, candidates: &[SampledCandidate]) {
    for candidate in candidates {
        let span = tracer.begin("validator.feed", parent);
        let mut validator = PrefixValidator::new();
        let mut chars = 0u64;
        for c in candidate.text.chars() {
            validator.feed(c);
            chars += 1;
        }
        black_box(validator.is_hopeless());
        tracer.end(span, chars);
    }
}

/// Run every candidate through [`filter_candidate`] (one `filter.candidate`
/// span each), then time the frontend stages of each candidate the filter
/// compiles: preprocess, parse, sema, repair of rejected texts, and the
/// corpus rewrite of accepted ones. Returns the accepted kernel sources.
pub fn replay_filter(
    tracer: &Tracer,
    parent: SpanId,
    filter: &FilterConfig,
    candidates: &[SampledCandidate],
) -> Vec<String> {
    let options = compile_options(filter);
    let parse_options = parser::ParseOptions {
        extra_type_names: options.extra_type_names.clone(),
    };
    let mut accepted = Vec::new();
    for candidate in candidates {
        let span = tracer.begin("filter.candidate", parent);
        let verdict = filter_candidate(filter, candidate);
        tracer.end(span, 1);
        if candidate.stop == StopReason::Hopeless {
            continue;
        }
        let pp = tracer.scope("frontend.preprocess", parent, |_| {
            preprocess::preprocess(&candidate.text, &options.preprocess)
        });
        let parsed = tracer.scope("frontend.parse", parent, |_| {
            parser::parse_with_options(&pp.text, &parse_options)
        });
        let checked = tracer.scope("frontend.sema", parent, |_| sema::analyze(&parsed.unit));
        black_box(checked.kernels.len());
        // `filter_candidate` offers repairs only for a raw text it rejects.
        let raw_accepted = matches!(&verdict, Ok(kernel) if !kernel.repaired);
        if !raw_accepted {
            let proposals = tracer.scope("frontend.repair", parent, |_| {
                cl_frontend::repair_candidates(&candidate.text)
            });
            black_box(proposals.len());
        } else {
            let rewritten = tracer.scope("corpus.rewrite", parent, |_| {
                rewrite_unit_to_kernels(parsed.unit.clone(), "clgen", 0)
            });
            black_box(rewritten.kernels.len());
        }
        if let Ok(kernel) = verdict {
            accepted.push(kernel.source);
        }
    }
    accepted
}

/// Report the engine, model-step, validator and filter metrics from the
/// spans the replays recorded.
pub fn report_replays(tracer: &Tracer, out: &mut Outcome) {
    let t = tracer.totals();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let step = get("engine.step");
    let feed = get("neural.feed_many");
    out.metric("engine.step_us", step.mean_us(), "us");
    out.metric("neural.feed_us", feed.mean_us(), "us");
    out.metric(
        "engine.us_per_busy_lane",
        if step.count == 0 {
            0.0
        } else {
            step.ns as f64 / 1e3 / step.count as f64
        },
        "us",
    );
    out.metric("engine.chars_fed", feed.count as f64, "count");
    out.counters.insert("engine.chars_fed", feed.count);
    out.counters.insert("engine.steps", step.spans);
    let validator = get("validator.feed");
    out.metric(
        "validator.ns_per_char",
        if validator.count == 0 {
            0.0
        } else {
            validator.ns as f64 / validator.count as f64
        },
        "ns",
    );
    let filter = get("filter.candidate");
    out.metric("filter.candidates", filter.spans as f64, "count");
    out.counters.insert("filter.candidates", filter.spans);
    out.metric("filter.us_per_candidate", filter.mean_us(), "us");
    for (metric, span) in [
        ("frontend.preprocess_us", "frontend.preprocess"),
        ("frontend.parse_us", "frontend.parse"),
        ("frontend.sema_us", "frontend.sema"),
        ("frontend.repair_us", "frontend.repair"),
        ("corpus.rewrite_us", "corpus.rewrite"),
    ] {
        out.metric(metric, get(span).mean_us(), "us");
    }
}
