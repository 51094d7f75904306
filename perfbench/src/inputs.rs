//! Workload definitions and seeded input generation.
//!
//! Every input — knowledge source, training corpus, held-out split, ground
//! truth and request stream — is a pure function of `(workload, seed)`; the
//! program under test receives only these generated inputs.

use crate::stats::Mix;
use srclda_core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use srclda_core::{Backend, KernelKind, SmoothingMode, Variant};
use srclda_corpus::{Corpus, Document};
use srclda_knowledge::KnowledgeSource;
use srclda_synth::random_source_topics;

/// The benchmark's workloads; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// λ-integrated Source-LDA at T=2000 on two sparse-kernel shards.
    TrainT2000Sharded,
    /// The daemon serving a T=12 artifact with repeats, reloads and scrapes.
    ServeT12Hot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::TrainT2000Sharded, Workload::ServeT12Hot];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainT2000Sharded => "train_t2000_sharded",
            Workload::ServeT12Hot => "serve_t12_hot",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the serving workload.
    pub fn serves(self) -> bool {
        self == Workload::ServeT12Hot
    }

    /// The model trained by the workload (or, for serving, the model that
    /// produces the served artifact).
    pub fn train_spec(self) -> TrainSpec {
        match self {
            Workload::TrainT2000Sharded => TrainSpec {
                world: World {
                    vocab: 6000,
                    topics: 2000,
                    support: 25,
                    active: 24,
                    unlabeled: 0,
                    train_docs: 1000,
                    heldout_docs: 100,
                    doc_len: 60,
                },
                variant: Variant::Full,
                iterations: 6,
                backend: Backend::ShardedDocs {
                    kernel: KernelKind::Sparse,
                    shards: 2,
                    threads: 2,
                },
                adapt_every: Some(3),
                checkpoint_every: Some(3),
                loglik_every: None,
            },
            Workload::ServeT12Hot => TrainSpec {
                world: World {
                    vocab: 400,
                    topics: 12,
                    support: 30,
                    active: 12,
                    unlabeled: 0,
                    train_docs: 1000,
                    heldout_docs: 200,
                    doc_len: 50,
                },
                variant: Variant::Full,
                iterations: 30,
                backend: Backend::Serial,
                adapt_every: None,
                checkpoint_every: None,
                loglik_every: Some(5),
            },
        }
    }

    /// Tokens per request document and the share of requests that repeat
    /// an earlier document (serving workloads).
    pub fn request_shape(self) -> (usize, f64) {
        match self {
            Workload::ServeT12Hot => (25, 0.5),
            _ => (0, 0.0),
        }
    }

    fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// The synthetic world a workload draws its corpus from.
#[derive(Debug, Clone, Copy)]
pub struct World {
    /// Vocabulary size `V`.
    pub vocab: usize,
    /// Knowledge-source topics (the model's labeled topics).
    pub topics: usize,
    /// Words with non-zero count per source topic.
    pub support: usize,
    /// Source topics that actually generate the corpus.
    pub active: usize,
    /// Unlabeled topics, in the generator and in the model.
    pub unlabeled: usize,
    /// Training documents.
    pub train_docs: usize,
    /// Held-out documents.
    pub heldout_docs: usize,
    /// Tokens per document.
    pub doc_len: usize,
}

/// A workload's model configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Input shape.
    pub world: World,
    /// Source-LDA variant.
    pub variant: Variant,
    /// Gibbs sweeps per fit.
    pub iterations: usize,
    /// Sampler backend.
    pub backend: Backend,
    /// λ-adaptation interval in sweeps.
    pub adapt_every: Option<usize>,
    /// Checkpoint interval in sweeps.
    pub checkpoint_every: Option<usize>,
    /// Log-likelihood trace interval in sweeps.
    pub loglik_every: Option<usize>,
}

impl TrainSpec {
    /// Topics the model fits.
    pub fn model_topics(&self) -> usize {
        self.world.topics + self.world.unlabeled
    }

    /// The model builder, holding `knowledge`.
    pub fn builder(&self, knowledge: KnowledgeSource) -> srclda_core::source_lda::SourceLdaBuilder {
        let mut b = srclda_core::SourceLda::builder()
            .knowledge_source(knowledge)
            .variant(self.variant)
            .unlabeled_topics(self.world.unlabeled)
            .alpha(0.5)
            .iterations(self.iterations)
            .backend(self.backend)
            .seed(7);
        if self.variant == Variant::Full {
            b = b.approximation_steps(8).smoothing(SmoothingMode::Identity);
        }
        if let Some(every) = self.adapt_every {
            b = b.adaptive_lambda(every);
        }
        if let Some(every) = self.loglik_every {
            b = b.trace(srclda_core::TraceConfig {
                log_likelihood_every: Some(every),
                phi_snapshots: Vec::new(),
            });
        }
        b
    }
}

/// How far back a repeated request reaches, in requests.
const RECENT: usize = 256;

/// Generated training inputs.
pub struct TrainInputs {
    /// The knowledge source the model is built from.
    pub knowledge: KnowledgeSource,
    /// The training corpus.
    pub train: Corpus,
    /// Held-out documents over the same vocabulary.
    pub heldout: Corpus,
    /// The generator's topic for every training token.
    pub truth: Vec<Vec<u32>>,
    /// The generator's topic labels, indexing `truth`.
    pub truth_labels: Vec<Option<String>>,
    /// Request documents as raw text (serving workloads; else empty).
    pub requests: Vec<String>,
}

/// Generate the inputs of `workload` for `seed`, with `requests` request
/// documents for a serving workload.
pub fn generate(workload: Workload, seed: u64, requests: usize) -> TrainInputs {
    let spec = workload.train_spec();
    let w = spec.world;
    let mut mix = Mix::new(seed, workload.salt());
    let (vocab, knowledge) =
        random_source_topics(w.vocab, w.topics, w.support, 200, mix.next_u64());
    let active: Vec<usize> = (0..w.active.min(w.topics)).collect();
    let (req_len, repeat_share) = workload.request_shape();
    let distinct = (requests as f64 * (1.0 - repeat_share)).ceil() as usize;
    let gen = |docs: usize, len: usize, seed: u64| {
        SourceLdaGenerator {
            alpha: 0.5,
            unlabeled_topics: w.unlabeled,
            num_docs: docs,
            doc_len: DocLength::Fixed(len),
            lambda_mode: LambdaMode::None,
            seed,
            ..SourceLdaGenerator::default()
        }
        .generate(&knowledge.select(&active), &vocab)
        .expect("the generator accepts the workload's world")
    };
    let generated = gen(w.train_docs + w.heldout_docs, w.doc_len, mix.next_u64());
    let docs = generated.corpus.docs();
    let train = Corpus::from_parts(vocab.clone(), docs[..w.train_docs].to_vec());
    let heldout = Corpus::from_parts(vocab.clone(), docs[w.train_docs..].to_vec());
    let truth = generated.truth.assignments[..w.train_docs].to_vec();

    let mut texts: Vec<String> = Vec::new();
    if distinct > 0 {
        // Request documents come from the same generative process under
        // their own seed: on the corpus's themes, and distinct.
        let pool = gen(distinct, req_len, mix.next_u64());
        let unique: Vec<String> = pool
            .corpus
            .docs()
            .iter()
            .map(|d| render(&vocab, d))
            .collect();
        let mut sent = 0usize;
        for i in 0..requests {
            let repeat = sent > 0
                && (sent >= unique.len()
                    || (mix.next_u64() as f64 / u64::MAX as f64) < repeat_share);
            if repeat {
                // Repeats come from the recent past, as a user re-sending
                // a document does, so they can hit a cache.
                let back = 1 + mix.below(i.min(RECENT));
                texts.push(texts[i - back].clone());
            } else {
                texts.push(unique[sent].clone());
                sent += 1;
            }
        }
    }
    TrainInputs {
        knowledge,
        train,
        heldout,
        truth,
        truth_labels: generated.truth.labels,
        requests: texts,
    }
}

/// A document as the raw text a client would send.
pub fn render(vocab: &srclda_corpus::Vocabulary, doc: &Document) -> String {
    let words: Vec<&str> = doc.tokens().iter().map(|&w| vocab.word(w)).collect();
    words.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use srclda_serve::codec::fnv1a64;

    /// FNV-1a digest over every generated input, for the determinism test.
    fn digest(inputs: &TrainInputs) -> u64 {
        let mut buf = Vec::new();
        for topic in inputs.knowledge.topics() {
            buf.extend_from_slice(topic.label().as_bytes());
            for &c in topic.counts() {
                buf.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        for corpus in [&inputs.train, &inputs.heldout] {
            for word in corpus.vocabulary().words() {
                buf.extend_from_slice(word.as_bytes());
            }
            for doc in corpus.docs() {
                buf.extend_from_slice(&(doc.len() as u64).to_le_bytes());
                for w in doc.tokens() {
                    buf.extend_from_slice(&w.0.to_le_bytes());
                }
            }
        }
        for doc in &inputs.truth {
            for &z in doc {
                buf.extend_from_slice(&z.to_le_bytes());
            }
        }
        for label in inputs.truth_labels.iter().flatten() {
            buf.extend_from_slice(label.as_bytes());
        }
        for text in &inputs.requests {
            buf.extend_from_slice(text.as_bytes());
            buf.extend_from_slice(b"\n");
        }
        fnv1a64(&buf)
    }

    /// Same `(workload, seed)` → byte-identical inputs; another seed →
    /// different inputs. Covers both input families (a training world and
    /// a request stream with repeats).
    #[test]
    fn inputs_are_a_pure_function_of_workload_and_seed() {
        for workload in Workload::ALL {
            let a = digest(&generate(workload, 3, 200));
            let b = digest(&generate(workload, 3, 200));
            let c = digest(&generate(workload, 4, 200));
            assert_eq!(a, b, "{}: same seed gave different inputs", workload.name());
            assert_ne!(
                a,
                c,
                "{}: another seed gave the same inputs",
                workload.name()
            );
        }
    }

    #[test]
    fn hot_stream_repeats_about_half() {
        let hot = generate(Workload::ServeT12Hot, 1, 400).requests;
        let distinct: std::collections::HashSet<&String> = hot.iter().collect();
        let share = 1.0 - distinct.len() as f64 / hot.len() as f64;
        assert!((0.4..0.6).contains(&share), "repeat share {share}");
    }
}
