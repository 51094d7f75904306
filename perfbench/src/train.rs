//! Training measurements: repeated whole fits, output checks, held-out
//! quality, and the per-layer split read from the program's `TrainEvent`s.

use crate::inputs::{render, TrainInputs, TrainSpec};
use crate::stats::{median, quantile, tail_q, Raw};
use srclda_core::perplexity::gibbs_perplexity;
use srclda_core::{Backend, FittedModel, FoldInConfig, TrainCheckpoint};
use srclda_eval::{token_accuracy, TopicMapping};
use srclda_obs::{TrainEvent, TrainObserver};
use srclda_serve::codec::fnv1a64;
use srclda_serve::{CheckpointStore, EngineOptions, InferenceEngine, ModelArtifact};
use std::path::Path;
use std::time::Instant;

/// Collects every event of a traced fit.
#[derive(Default)]
struct Collect(Vec<TrainEvent>);

impl TrainObserver for Collect {
    fn on_event(&mut self, event: &TrainEvent) {
        self.0.push(event.clone());
    }
}

/// One whole fit: set-up timings, fit wall time and the chain's digest.
pub struct Fit {
    /// `SourceLdaBuilder::build` + `SourceLda::assemble` seconds.
    pub setup_s: f64,
    /// `SourceLda::assemble` seconds alone.
    pub assemble_s: f64,
    /// `fit_resumable`/`fit_observed` seconds.
    pub fit_s: f64,
    /// Tokens sampled: sweeps × tokens per sweep.
    pub tokens: f64,
    /// `TrainCheckpoint::digest` of the final checkpoint when the workload
    /// checkpoints, else FNV over the final assignments and φ bits.
    pub digest: u64,
    /// The events of a traced fit (empty when untraced).
    pub events: Vec<TrainEvent>,
}

/// Repeated fits of one workload.
#[derive(Default)]
pub struct Series {
    /// Untraced fits.
    pub plain: Vec<Fit>,
    /// Traced fits.
    pub traced: Vec<Fit>,
    /// The last untraced fit's model (earlier models are dropped, so peak
    /// RSS stays that of one fit).
    pub fitted: Option<FittedModel>,
}

/// Build, assemble and fit once; `traced` attaches an event collector.
pub fn fit_once(
    spec: &TrainSpec,
    inputs: &TrainInputs,
    dir: &Path,
    traced: bool,
) -> Result<(Fit, FittedModel), String> {
    let builder = spec.builder(inputs.knowledge.clone());
    let t0 = Instant::now();
    let model = builder.build().map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    let gibbs = model
        .assemble(inputs.train.vocab_size())
        .map_err(|e| format!("assemble: {e}"))?;
    let assemble_s = t1.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let store = CheckpointStore::new(dir.join("checkpoint.slda"), 2);
    let labels = gibbs.labels().to_vec();
    let tokenizer = srclda_corpus::Tokenizer::permissive();
    let mut last_digest = None;
    let on_checkpoint = |cp: &TrainCheckpoint| {
        let artifact = ModelArtifact::from_checkpoint(
            cp,
            labels.clone(),
            inputs.train.vocabulary(),
            &tokenizer,
        )
        .map_err(|e| srclda_core::CoreError::InvalidConfig(format!("checkpoint artifact: {e}")))?;
        store
            .save_generation(cp.sweep, &artifact)
            .map_err(|e| srclda_core::CoreError::InvalidConfig(format!("checkpoint write: {e}")))?;
        last_digest = Some(cp.digest());
        Ok(())
    };
    let mut collect = Collect::default();
    let start = Instant::now();
    let fitted = if traced {
        gibbs.fit_observed(
            &inputs.train,
            None,
            spec.checkpoint_every,
            on_checkpoint,
            &mut collect,
        )
    } else {
        gibbs.fit_resumable(&inputs.train, None, spec.checkpoint_every, on_checkpoint)
    }
    .map_err(|e| format!("fit: {e}"))?;
    let fit_s = start.elapsed().as_secs_f64();
    let tokens = (spec.iterations * inputs.train.num_tokens()) as f64;
    let digest = last_digest.unwrap_or_else(|| chain_digest(&fitted));
    let fit = Fit {
        setup_s,
        assemble_s,
        fit_s,
        tokens,
        digest,
        events: collect.0,
    };
    Ok((fit, fitted))
}

/// Tokens sampled per second of fit wall time over all of `fits`. Within
/// a run the host's contention comes and goes, so fits run at two speeds;
/// the total over the run weighs both by the time spent in them, where a
/// median would jump between them from run to run.
pub fn tokens_per_s(fits: &[Fit]) -> f64 {
    let tokens: f64 = fits.iter().map(|f| f.tokens).sum();
    let secs: f64 = fits.iter().map(|f| f.fit_s).sum();
    tokens / secs
}

/// FNV-1a over the final assignments and φ bits: equal iff the chains ended
/// in the same state.
fn chain_digest(fitted: &FittedModel) -> u64 {
    let mut buf = Vec::new();
    for doc in fitted.assignments() {
        for &z in doc {
            buf.extend_from_slice(&z.to_le_bytes());
        }
    }
    for p in fitted.phi().as_slice() {
        buf.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    fnv1a64(&buf)
}

/// Whole fits for at least `seconds` (and at least one), appended to
/// `series`: alternating untraced and traced fits when `trace` is set, and
/// calling `between` with each untraced fit's model and wall time. A failed
/// fit is counted in `raw` and returns false; the series ends there.
#[allow(clippy::too_many_arguments)]
pub fn fit_for(
    series: &mut Series,
    spec: &TrainSpec,
    inputs: &TrainInputs,
    dir: &Path,
    seconds: f64,
    trace: bool,
    raw: &mut Raw,
    between: &mut dyn FnMut(&FittedModel, f64),
) -> bool {
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed().as_secs_f64() < seconds {
        first = false;
        for observed in [false, true] {
            if observed && !trace {
                continue;
            }
            match fit_once(spec, inputs, dir, observed) {
                Ok((fit, fitted)) if observed => {
                    raw.check(Ok(()));
                    series.traced.push(fit);
                    drop(fitted);
                }
                Ok((fit, fitted)) => {
                    raw.check(Ok(()));
                    between(&fitted, fit.fit_s);
                    series.plain.push(fit);
                    series.fitted = Some(fitted);
                }
                Err(e) => {
                    raw.check(Err(e));
                    return false;
                }
            }
        }
    }
    true
}

/// Every fit of `series` ended in the first untraced fit's state: repeated
/// fits and observed fits walk the same chain.
pub fn check_digests(series: &Series, raw: &mut Raw) {
    let Some(reference) = series.plain.first().map(|f| f.digest) else {
        return;
    };
    for fit in series.plain.iter().chain(&series.traced).skip(1) {
        raw.check(if fit.digest == reference {
            Ok(())
        } else {
            Err(format!(
                "fit digest {:016x} != first untraced fit's {reference:016x}",
                fit.digest
            ))
        });
    }
}

/// Extra set-ups (build + assemble, no fit) until there are `min` samples.
pub fn extra_setups(spec: &TrainSpec, inputs: &TrainInputs, have: usize, min: usize) -> Vec<f64> {
    (have..min)
        .filter_map(|_| {
            let builder = spec.builder(inputs.knowledge.clone());
            let t0 = Instant::now();
            let model = builder.build().ok()?;
            let _ = model.assemble(inputs.train.vocab_size()).ok()?;
            Some(t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// Output checks on one fitted model, each counted as an operation:
/// counts recomputed from the assignments equal the model's counts, and
/// every φ and θ row is a distribution.
pub fn check_fitted(fitted: &FittedModel, inputs: &TrainInputs, raw: &mut Raw) {
    let counts = fitted.counts();
    let (v, t) = (counts.vocab_size(), counts.num_topics());
    let mut nw = vec![0u32; v * t];
    let mut nt = vec![0u32; t];
    let mut bad_docs = 0usize;
    for (d, (doc, z)) in inputs
        .train
        .docs()
        .iter()
        .zip(fitted.assignments())
        .enumerate()
    {
        let mut nd = vec![0u32; t];
        for (w, &k) in doc.tokens().iter().zip(z) {
            nw[w.index() * t + k as usize] += 1;
            nt[k as usize] += 1;
            nd[k as usize] += 1;
        }
        if (0..t).any(|k| counts.nd(d, k) != nd[k]) {
            bad_docs += 1;
        }
    }
    let nw_ok = (0..v).all(|w| (0..t).all(|k| counts.nw(w, k) == nw[w * t + k]));
    let nt_ok = (0..t).all(|k| counts.nt(k) == nt[k]);
    raw.check(if nw_ok && nt_ok && bad_docs == 0 {
        Ok(())
    } else {
        Err(format!(
            "counts disagree with assignments (n_wt ok: {nw_ok}, n_t ok: {nt_ok}, docs off: {bad_docs})"
        ))
    });
    raw.check(rows_are_distributions(
        "phi",
        fitted.phi().as_slice(),
        fitted.vocab_size(),
    ));
    raw.check(rows_are_distributions(
        "theta",
        fitted.theta().as_slice(),
        fitted.num_topics(),
    ));
}

/// Every `width`-long row of `data` is finite, non-negative and sums to 1.
pub fn rows_are_distributions(what: &str, data: &[f64], width: usize) -> Result<(), String> {
    for (r, row) in data.chunks(width).enumerate() {
        let sum: f64 = row.iter().sum();
        if row.iter().any(|p| !p.is_finite() || *p < 0.0) || (sum - 1.0).abs() > 1e-6 {
            return Err(format!("{what} row {r} sums to {sum}"));
        }
    }
    Ok(())
}

/// Held-out perplexity and token accuracy of `fitted`, with their checks.
pub fn quality(fitted: &FittedModel, inputs: &TrainInputs, raw: &mut Raw) {
    // Five sweeps: at T=2000 each held-out sweep takes over a second.
    match gibbs_perplexity(fitted, &inputs.heldout, 5, 11) {
        Ok(p) if p.is_finite() && p > 0.0 => {
            raw.check(Ok(()));
            raw.metric(
                "heldout_perplexity",
                p,
                "ppl",
                inputs.heldout.num_tokens(),
                "gibbs_perplexity, 5 sweeps, seed 11",
            );
        }
        Ok(p) => raw.check(Err(format!("held-out perplexity is {p}"))),
        Err(e) => raw.check(Err(format!("perplexity: {e}"))),
    }
    let mapping = TopicMapping::by_label(fitted.labels(), &inputs.truth_labels);
    let acc = token_accuracy(&inputs.truth, fitted.assignments(), &mapping);
    raw.metric(
        "token_accuracy",
        acc.fraction(),
        "fraction",
        inputs.train.num_tokens(),
        "fitted topic mapped by label equals the generator's topic",
    );
}

/// Timed in-process inference with the trained model: an artifact round
/// trip (`to_bytes`/`from_bytes`), then closed-loop `InferenceEngine::infer`
/// over the held-out documents as raw text, cache disabled. Batches run
/// between fits, so inference and training sample the same stretch of time.
pub struct EngineProbe {
    engine: InferenceEngine,
    texts: Vec<String>,
    loads: Vec<f64>,
    bytes: usize,
    latencies: Vec<f64>,
    busy_s: f64,
    failures: Vec<String>,
}

impl EngineProbe {
    /// Round-trip `fitted` through the artifact codec and build an engine.
    pub fn new(fitted: &FittedModel, inputs: &TrainInputs) -> Result<Self, String> {
        let tokenizer = srclda_corpus::Tokenizer::permissive();
        let bytes = ModelArtifact::from_fitted(fitted, inputs.train.vocabulary(), &tokenizer)
            .map_err(|e| format!("artifact: {e}"))?
            .to_bytes();
        let mut loads = Vec::new();
        let mut loaded = None;
        for _ in 0..3 {
            // Drop the previous copy first: one decoded artifact at a time.
            drop(loaded.take());
            let t = Instant::now();
            let result = ModelArtifact::from_bytes(&bytes);
            loads.push(t.elapsed().as_secs_f64());
            loaded = Some(result.map_err(|e| format!("artifact decode: {e}"))?);
        }
        let options = EngineOptions {
            fold_in: FoldInConfig::default(),
            cache_capacity: 0,
        };
        let engine = InferenceEngine::from_artifact(&loaded.expect("three loads ran"), options)
            .map_err(|e| format!("engine: {e}"))?;
        let texts = inputs
            .heldout
            .docs()
            .iter()
            .map(|d| render(inputs.train.vocabulary(), d))
            .collect();
        Ok(EngineProbe {
            engine,
            texts,
            loads,
            bytes: bytes.len(),
            latencies: Vec::new(),
            busy_s: 0.0,
            failures: Vec::new(),
        })
    }

    /// Infer held-out documents back to back for about `seconds`.
    pub fn batch(&mut self, seconds: f64) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let text = &self.texts[self.latencies.len() % self.texts.len()];
            let t = Instant::now();
            let result = self.engine.infer(text);
            self.latencies.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(score) => {
                    let theta = score.theta();
                    if let Err(e) = rows_are_distributions("inferred theta", theta, theta.len()) {
                        self.failures.push(e);
                    }
                }
                Err(e) => self.failures.push(format!("infer: {e}")),
            }
        }
        self.busy_s += start.elapsed().as_secs_f64();
    }

    /// Record the inference metrics (and, traced, the engine's layers).
    pub fn report(self, trace: bool, raw: &mut Raw) {
        raw.checks(self.latencies.len() as u64, self.failures);
        let n = self.latencies.len();
        // Every held-out document is inferred many times over the run, as
        // the host's contention comes and goes. Percentiles are taken over
        // the documents of each one's mean latency: a percentile of the
        // pooled samples would jump between the host's fast and slow
        // spells with the share of the run each took.
        let docs = self.texts.len();
        let mut sums = vec![(0.0, 0usize); docs];
        for (i, &ms) in self.latencies.iter().enumerate() {
            let (sum, count) = &mut sums[i % docs];
            *sum += ms;
            *count += 1;
        }
        let per_doc: Vec<f64> = sums
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(sum, count)| sum / *count as f64)
            .collect();
        let q = tail_q(per_doc.len());
        let how = format!(
            "in-process InferenceEngine::infer on held-out docs, closed loop between fits; \
             percentiles over {} docs of each one's mean over its repeats ({n} inferences); \
             tail is p{:.1}",
            per_doc.len(),
            q * 100.0
        );
        raw.metric("infer_p50_ms", median(&per_doc), "ms", per_doc.len(), &how);
        raw.metric(
            "infer_p99_ms",
            quantile(&per_doc, q),
            "ms",
            per_doc.len(),
            &how,
        );
        raw.metric(
            "infer_max_rps",
            n as f64 / self.busy_s,
            "1/s",
            n,
            "closed-loop documents per second, one thread",
        );
        if !trace {
            return;
        }
        raw.metric(
            "artifact.load_s",
            median(&self.loads),
            "s",
            self.loads.len(),
            "ModelArtifact::from_bytes",
        );
        raw.metric(
            "artifact.bytes",
            self.bytes as f64,
            "bytes",
            1,
            "encoded artifact",
        );
        let config = FoldInConfig::default();
        let mut tok = Vec::new();
        let mut fold = Vec::new();
        for text in &self.texts {
            let t = Instant::now();
            let (ids, _) = self.engine.tokenize(text);
            tok.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let _ = self.engine.inference().fold_in(&ids, &config);
            fold.push(t.elapsed().as_secs_f64() * 1e3);
        }
        raw.metric(
            "engine.tokenize_us",
            median(&tok),
            "us",
            tok.len(),
            "InferenceEngine::tokenize per held-out doc",
        );
        fold_in_metrics(&fold, raw, "Inference::fold_in per held-out doc");
    }
}

/// `inference.fold_in_p50_ms` and `inference.fold_in_p99_ms` from per-document times.
pub fn fold_in_metrics(ms: &[f64], raw: &mut Raw, how: &str) {
    let n = ms.len();
    let q = tail_q(n);
    raw.metric("inference.fold_in_p50_ms", median(ms), "ms", n, how);
    raw.metric(
        "inference.fold_in_p99_ms",
        quantile(ms, q),
        "ms",
        n,
        &format!("{how}; p{:.1}", q * 100.0),
    );
}

/// The per-layer split of traced fits, from their `TrainEvent`s, plus the
/// tracing overhead against the untraced fits.
pub fn layer_metrics(spec: &TrainSpec, series: &Series, raw: &mut Raw) {
    let (plain, traced) = (&series.plain, &series.traced);
    let per_fit = |f: &dyn Fn(&Fit) -> Option<f64>| -> (f64, usize) {
        let xs: Vec<f64> = traced.iter().filter_map(f).collect();
        (median(&xs), xs.len())
    };
    let sweeps = |fit: &Fit| -> Vec<f64> {
        fit.events
            .iter()
            .filter_map(|e| match e {
                TrainEvent::Sweep { duration_secs, .. } => Some(*duration_secs),
                _ => None,
            })
            .collect()
    };
    let steady = |fit: &Fit| median(sweeps(fit).get(1..).unwrap_or(&[]));
    let (sweep_s, n) = per_fit(&|f| Some(steady(f)));
    raw.metric(
        "sampler.sweep_s",
        sweep_s,
        "s",
        n,
        "median Sweep.duration_secs after sweep 1, median over traced fits",
    );
    let (excess, n) = per_fit(&|f| sweeps(f).first().map(|s1| s1 - steady(f)));
    raw.metric(
        "sampler.first_sweep_excess_s",
        excess,
        "s",
        n,
        "sweep 1 minus steady sweep: count init and shard-state build",
    );

    let shard_sweeps = |fit: &Fit| -> Vec<(u64, Vec<f64>, f64)> {
        fit.events
            .iter()
            .filter_map(|e| match e {
                TrainEvent::ShardSweep { sweep, timings } => {
                    Some((*sweep, timings.shard_secs.clone(), timings.merge_secs))
                }
                _ => None,
            })
            .collect()
    };
    if matches!(spec.backend, Backend::ShardedDocs { .. }) {
        let steady_shards = |fit: &Fit| -> Vec<(f64, f64, f64, f64)> {
            let durations = sweeps(fit);
            shard_sweeps(fit)
                .into_iter()
                .filter(|(sweep, _, _)| *sweep >= 2)
                .map(|(sweep, secs, merge)| {
                    let max = secs.iter().copied().fold(0.0, f64::max);
                    let mean = secs.iter().sum::<f64>() / secs.len().max(1) as f64;
                    let total = durations.get(sweep as usize - 1).copied().unwrap_or(0.0);
                    (max, max / mean.max(1e-12), merge, total - max - merge)
                })
                .collect()
        };
        let pick = |i: usize| {
            per_fit(&|f| {
                let rows: Vec<f64> = steady_shards(f)
                    .iter()
                    .map(|r| [r.0, r.1, r.2, r.3][i])
                    .collect();
                Some(median(&rows))
            })
        };
        let (v, n) = pick(0);
        raw.metric(
            "sampler.shard_max_s",
            v,
            "s",
            n,
            "median over sweeps >= 2 of the slowest ShardSweep.shard_secs",
        );
        let (v, n) = pick(1);
        raw.metric(
            "sampler.shard_imbalance",
            v,
            "ratio",
            n,
            "median over sweeps >= 2 of max/mean shard_secs",
        );
        let (v, n) = pick(2);
        raw.metric(
            "sampler.merge_s",
            v,
            "s",
            n,
            "median over sweeps >= 2 of ShardSweep.merge_secs",
        );
        let (v, n) = pick(3);
        raw.metric(
            "sampler.sweep_unattributed_s",
            v,
            "s",
            n,
            "sweep - max shard - merge: snapshot, load, resync, spawn",
        );
    } else {
        for (name, unit) in [
            ("sampler.shard_max_s", "s"),
            ("sampler.shard_imbalance", "ratio"),
            ("sampler.merge_s", "s"),
            ("sampler.sweep_unattributed_s", "s"),
        ] {
            raw.unmeasured(name, unit, "the backend has no shards");
        }
    }

    let buckets = |fit: &Fit| -> Option<(u64, u64, u64)> {
        let mut fast = 0;
        let mut total = 0;
        let mut fallbacks = 0;
        let mut seen = false;
        for e in &fit.events {
            let counts = match e {
                TrainEvent::SparseBuckets { counts, .. } => Some(*counts),
                TrainEvent::ShardSweep { timings, .. } => timings.buckets,
                _ => None,
            };
            if let Some(c) = counts {
                seen = true;
                fast += c.q_hits + c.r_hits;
                total += c.total();
                fallbacks += c.dense_fallbacks;
            }
        }
        seen.then_some((fast, total, fallbacks))
    };
    if traced.first().and_then(buckets).is_some() {
        let (v, n) =
            per_fit(&|f| buckets(f).map(|(fast, total, _)| fast as f64 / total.max(1) as f64));
        raw.metric(
            "sampler.sparse_fast_share",
            v,
            "fraction",
            n,
            "(q + r bucket hits) / draws over the fit",
        );
        let (v, n) = per_fit(&|f| buckets(f).map(|(_, _, fb)| fb as f64));
        raw.metric(
            "sampler.dense_fallbacks",
            v,
            "count",
            n,
            "dense-walk fallback draws per fit",
        );
    } else {
        raw.unmeasured(
            "sampler.sparse_fast_share",
            "fraction",
            "the sweep kernel is not the sparse bucket kernel",
        );
        raw.unmeasured(
            "sampler.dense_fallbacks",
            "count",
            "the sweep kernel is not the sparse bucket kernel",
        );
    }

    let sum_of = |fit: &Fit, pick: fn(&TrainEvent) -> Option<f64>| -> f64 {
        fit.events.iter().filter_map(pick).sum()
    };
    let adapt = |e: &TrainEvent| match e {
        TrainEvent::Adapt { duration_secs, .. } => Some(*duration_secs),
        _ => None,
    };
    let ckpt = |e: &TrainEvent| match e {
        TrainEvent::Checkpoint { duration_secs, .. } => Some(*duration_secs),
        _ => None,
    };
    let ckpt_bytes = |e: &TrainEvent| match e {
        TrainEvent::Checkpoint { bytes, .. } => Some(*bytes as f64),
        _ => None,
    };
    if spec.adapt_every.is_some() {
        let (v, n) = per_fit(&|f| Some(sum_of(f, adapt)));
        raw.metric(
            "adapt.adapt_s",
            v,
            "s",
            n,
            "sum of Adapt.duration_secs per fit",
        );
    } else {
        raw.unmeasured("adapt.adapt_s", "s", "the workload does not adapt lambda");
    }
    if spec.checkpoint_every.is_some() {
        let (v, n) = per_fit(&|f| Some(sum_of(f, ckpt)));
        raw.metric(
            "checkpoints.write_s",
            v,
            "s",
            n,
            "sum of Checkpoint.duration_secs per fit (CheckpointStore writes)",
        );
        let (v, n) = per_fit(&|f| Some(sum_of(f, ckpt_bytes)));
        raw.metric(
            "checkpoints.bytes",
            v,
            "bytes",
            n,
            "sum of Checkpoint.bytes payload per fit",
        );
    } else {
        raw.unmeasured(
            "checkpoints.write_s",
            "s",
            "the workload writes no checkpoints",
        );
        raw.unmeasured(
            "checkpoints.bytes",
            "bytes",
            "the workload writes no checkpoints",
        );
    }
    let (v, n) = per_fit(&|f| {
        Some(f.fit_s - sweeps(f).iter().sum::<f64>() - sum_of(f, adapt) - sum_of(f, ckpt))
    });
    raw.metric(
        "fit.unattributed_s",
        v,
        "s",
        n,
        "fit wall - sum of sweep, adapt and checkpoint durations",
    );
    let (v, n) = per_fit(&|f| Some(f.assemble_s));
    raw.metric(
        "source_lda.assemble_s",
        v,
        "s",
        n,
        "SourceLda::assemble alone, traced fits",
    );

    raw.metric(
        "obs.trace_overhead",
        tokens_per_s(traced) / tokens_per_s(plain),
        "ratio",
        traced.len().min(plain.len()),
        "traced / untraced tokens per second of fit wall time",
    );
}

/// One `joint_word_log_likelihood` call on the final state, median of 3.
pub fn loglik_eval(fitted: &FittedModel, raw: &mut Raw) {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ll =
                srclda_core::loglik::joint_word_log_likelihood(fitted.counts(), fitted.priors());
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(ll);
            dt
        })
        .collect();
    raw.metric(
        "loglik.eval_s",
        median(&times),
        "s",
        times.len(),
        "joint_word_log_likelihood on the final state",
    );
}
