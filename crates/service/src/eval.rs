//! Distributed GA fitness evaluation (wire v7).
//!
//! The campaign protocol carries injection *trials*; this module teaches
//! it to carry fitness *jobs*. One connection carries one evaluation
//! session:
//!
//! ```text
//! client → server   EVAL_BATCH    (machine, fitness, budget, one generation of genomes)
//! server → client   EVAL_RESULT*  (one per individual, index-ordered)
//! server → client   BATCH_DONE    (result count for the generation, a sanity check)
//! client → server   EVAL_BATCH    ... (repeat, one frame per generation)
//! client closes the connection    (clean end of search)
//! ```
//!
//! The frames are variants of the campaign protocol's per-direction
//! enums — `EVAL_BATCH` is [`ClientMessage::Eval`], `EVAL_RESULT` is
//! [`ServerMessage::Score`], and the marker and errors are the shared
//! `Done`/`Error` — so a worker tells the two session kinds apart by
//! the variant its opening frame decodes to, and serves both in the
//! one session loop behind [`crate::serve`]; this module supplies the
//! genome kind's scoring step.
//!
//! The batch ships **knobs, not programs**: each individual is a genome,
//! and the worker materializes the candidate itself (`Knobs::from_genome`
//! → `generate` → `simulate` → `Fitness::score`). That keeps a generation
//! frame a few kilobytes regardless of candidate size, and it lets the
//! worker memoize by genome: elite individuals re-scored across
//! generations are [`EvalCache`] hits, not simulations.
//!
//! [`ClientMessage::Eval`]: crate::protocol::ClientMessage::Eval
//! [`ServerMessage::Score`]: crate::protocol::ServerMessage::Score
//!
//! Driver-side, genome batches are one of the two job kinds of the
//! supervised [`Fleet`] (see [`crate::fleet`]): genome-keyed affinity
//! sharding sends a re-scored elite to the worker whose cache holds it,
//! and individuals unacknowledged when a worker dies are re-sent to
//! survivors. The search result is bit-identical to a fault-free run
//! because every score is a deterministic function of (context,
//! genome). [`VenueEvaluator`] adapts any [`EvalVenue`] — the fleet, or
//! a broker connection — to the GA's [`FitnessEvaluator`] trait and
//! counts *distinct* genomes evaluated, the same number
//! [`avf_ga::LocalEvaluator`] reports, so `GaResult::evaluations` agrees
//! across local, remote, and brokered venues regardless of worker
//! deaths or cache evictions.

use std::collections::HashSet;
use std::sync::mpsc;

use avf_ace::{FaultRates, Fitness, FitnessScope, Structure};
use avf_codegen::{generate, Knobs, TargetParams};
use avf_ga::{genome_bits, EvalError, FitnessEvaluator, LocalEvaluator};
use avf_inject::BackendError;
use avf_isa::wire::{content_hash64, kind, WireError, WireReader, WireWriter};
use avf_sim::{simulate, MachineConfig};

use crate::auth::AuthKey;
use crate::cache::EvalCache;
use crate::fleet::{Fleet, GenomeBatches};
use crate::protocol::HASH_DOMAIN_EVAL;

/// Derives code-generator target parameters from a machine configuration.
///
/// This is the canonical mapping between the simulated microarchitecture
/// and the generator's sizing knobs; the driver and every evaluation
/// worker must agree on it, so it lives here with the wire codec.
#[must_use]
pub fn target_params(machine: &MachineConfig) -> TargetParams {
    TargetParams {
        rob_entries: machine.rob_entries as u32,
        line_bytes: machine.dl1.line_bytes,
        page_bytes: machine.page_bytes,
        dtlb_entries: machine.dtlb_entries as u32,
        dl1_bytes: machine.dl1.size_bytes,
        l2_bytes: machine.l2.size_bytes,
    }
}

/// The fixed part of an evaluation session: what every individual is
/// scored against.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// Target microarchitecture.
    pub machine: MachineConfig,
    /// Fitness function (fault rates + scope).
    pub fitness: Fitness,
    /// Committed-instruction budget per candidate evaluation.
    pub instr_budget: u64,
}

fn rates_code(rates: &FaultRates) -> u8 {
    match rates.name() {
        "Baseline" => 0,
        "RHC" => 1,
        "EDR" => 2,
        _ => 3,
    }
}

/// Every fitness scope, in wire-code order.
const SCOPES: [FitnessScope; 4] = [
    FitnessScope::Overall,
    FitnessScope::BitWeighted,
    FitnessScope::Core,
    FitnessScope::Caches,
];

fn encode_fitness(w: &mut WireWriter, fitness: &Fitness) {
    w.u8(rates_code(fitness.rates()));
    for s in Structure::ALL {
        w.f64(fitness.rates().rate(s));
    }
    w.code(&SCOPES, fitness.scope());
}

fn decode_fitness(r: &mut WireReader<'_>) -> Result<Fitness, WireError> {
    // The name code picks a base table for cosmetic reporting; the rates
    // themselves always travel as raw bits, so protected-design searches
    // score identically on every worker.
    let mut rates = match r.u8()? {
        0 => FaultRates::baseline(),
        1 => FaultRates::rhc(),
        2 => FaultRates::edr(),
        3 => FaultRates::custom("remote"),
        t => return Err(WireError::BadTag(t)),
    };
    for s in Structure::ALL {
        let rate = r.f64()?;
        if !(rate >= 0.0 && rate.is_finite()) {
            return Err(WireError::Invalid(
                "fault rates must be finite and non-negative",
            ));
        }
        rates.set(s, rate);
    }
    Ok(Fitness::with_scope(rates, r.code(&SCOPES)?))
}

impl EvalContext {
    fn encode(&self, w: &mut WireWriter) {
        self.machine.encode(w);
        encode_fitness(w, &self.fitness);
        w.u64(self.instr_budget);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<EvalContext, WireError> {
        let machine = MachineConfig::decode(r)?;
        let fitness = decode_fitness(r)?;
        let instr_budget = r.u64()?;
        if instr_budget == 0 {
            return Err(WireError::Invalid("evaluation budget must be positive"));
        }
        Ok(EvalContext {
            machine,
            fitness,
            instr_budget,
        })
    }

    /// Content fingerprint of this context — the cache-key half that
    /// guards a worker's memoized scores against a driver searching a
    /// different machine, fitness, or budget.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        content_hash64(HASH_DOMAIN_EVAL, &w.into_bytes())
    }
}

/// Key a genome routes and logs under: the content hash of its exact
/// gene bits. Both sides derive it, so CI can grep a worker's log for
/// the hit/miss history of a specific elite genome.
#[must_use]
pub fn genome_key(genes: &[f64]) -> u64 {
    let mut w = WireWriter::new();
    for bits in genome_bits(genes) {
        w.u64(bits);
    }
    content_hash64(HASH_DOMAIN_EVAL, &w.into_bytes())
}

/// One generation of fitness work: the `EVAL_BATCH` frame.
#[derive(Debug, Clone)]
pub struct EvalBatch {
    /// What to score against.
    pub context: EvalContext,
    /// Generation number (logging/observability only).
    pub generation: u64,
    /// `(individual index, genome)` pairs. Indices are driver-assigned
    /// and echoed in each `EVAL_RESULT`, so a generation sharded across
    /// workers reassembles unambiguously.
    pub individuals: Vec<(u64, Vec<f64>)>,
}

impl EvalBatch {
    /// Serializes the batch to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::EVAL_BATCH, |w| {
            self.context.encode(w);
            w.u64(self.generation);
            w.seq(&self.individuals, |w, (index, genes)| {
                w.u64(*index);
                w.seq(genes, |w, &g| w.f64(g));
            });
        })
    }

    /// Decodes the body of an `EVAL_BATCH` frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or an invalid field.
    pub fn decode(r: &mut WireReader<'_>) -> Result<EvalBatch, WireError> {
        Ok(EvalBatch {
            context: EvalContext::decode(r)?,
            generation: r.u64()?,
            individuals: r.seq(16, |r| {
                let index = r.u64()?;
                let genes = r.seq(8, WireReader::f64)?;
                if genes.is_empty() {
                    return Err(WireError::Invalid("an individual needs at least one gene"));
                }
                Ok((index, genes))
            })?,
        })
    }
}

/// One individual's score: the `EVAL_RESULT` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalScore {
    /// The driver-assigned individual index this score answers.
    pub index: u64,
    /// Fitness score, bit-exact as computed.
    pub score: f64,
    /// Whether the worker answered from its genome cache.
    pub cached: bool,
}

impl EvalScore {
    /// Serializes the score to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::EVAL_RESULT, |w| {
            w.u64(self.index);
            w.f64(self.score);
            w.bool(self.cached);
        })
    }

    /// Decodes the body of an `EVAL_RESULT` frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or a bad cache flag.
    pub fn decode(r: &mut WireReader<'_>) -> Result<EvalScore, WireError> {
        Ok(EvalScore {
            index: r.u64()?,
            score: r.f64()?,
            cached: r.bool()?,
        })
    }
}

/// Scores one genome against a context: materialize the candidate from
/// its knobs, simulate it, and apply the fitness. Deterministic — every
/// venue that scores the same (context, genome) pair produces the same
/// bits, which is what makes re-dispatch after a worker death invisible
/// in the search result.
#[must_use]
pub fn evaluate_genome(ctx: &EvalContext, genes: &[f64]) -> f64 {
    let params = target_params(&ctx.machine);
    let knobs = Knobs::from_genome(genes, &params);
    let candidate = generate(&knobs, &params);
    let result = simulate(&ctx.machine, &candidate.program, ctx.instr_budget);
    ctx.fitness.score(&result.report)
}

/// Scores one genome batch on a worker: the [`EvalCache`] hits first,
/// then the misses, inserted into the cache. The misses run on the
/// in-process [`LocalEvaluator`] a local search uses, with `threads`
/// workers. Returned in individual-index order.
pub(crate) fn score_batch(batch: &EvalBatch, cache: &EvalCache, threads: usize) -> Vec<EvalScore> {
    let fingerprint = batch.context.fingerprint();
    let mut results = Vec::with_capacity(batch.individuals.len());
    let (mut misses, mut genomes) = (Vec::new(), Vec::new());
    for (index, genes) in &batch.individuals {
        let bits = genome_bits(genes);
        let key = genome_key(genes);
        if let Some(score) = cache.lookup(fingerprint, &bits) {
            eprintln!(
                "serve: eval gen {} genome {key:016x} fitness HIT (cache)",
                batch.generation
            );
            results.push(EvalScore {
                index: *index,
                score,
                cached: true,
            });
        } else {
            eprintln!(
                "serve: eval gen {} genome {key:016x} fitness MISS (simulating)",
                batch.generation
            );
            misses.push((*index, bits));
            genomes.push(genes.clone());
        }
    }
    let context = batch.context.clone();
    let mut local = LocalEvaluator::new(threads.clamp(1, genomes.len().max(1)), move |genes| {
        evaluate_genome(&context, genes)
    });
    let scores = local
        .evaluate(&genomes)
        .expect("in-process evaluation is infallible");
    for ((index, bits), score) in misses.into_iter().zip(scores) {
        cache.insert(fingerprint, bits, score);
        results.push(EvalScore {
            index,
            score,
            cached: false,
        });
    }
    results.sort_by_key(|s| s.index);
    results
}

/// Counts *distinct* genomes submitted for evaluation — the number a
/// memoizing local evaluator would actually simulate. Driver-side, so
/// the count is invariant under worker deaths, re-dispatch duplicates,
/// and worker-cache evictions.
#[derive(Debug, Default)]
pub(crate) struct DistinctCounter {
    seen: HashSet<Vec<u64>>,
}

impl DistinctCounter {
    /// Records one generation.
    pub(crate) fn record(&mut self, generation: &[Vec<f64>]) {
        self.seen
            .extend(generation.iter().map(|genes| genome_bits(genes)));
    }

    /// Distinct genomes recorded so far.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.seen.len() as u64
    }
}

/// A venue that scores whole generations: the direct worker
/// [`Fleet`], or a broker relaying to one.
pub trait EvalVenue {
    /// Scores one generation, returning one ack per individual (in any
    /// order; each index exactly once).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the venue cannot finish the
    /// generation.
    fn score(&mut self, batch: EvalBatch) -> Result<Vec<EvalScore>, BackendError>;
}

impl EvalVenue for Fleet {
    fn score(&mut self, batch: EvalBatch) -> Result<Vec<EvalScore>, BackendError> {
        let (tx, rx) = mpsc::channel();
        let job = GenomeBatches {
            context: batch.context,
            generation: batch.generation,
        };
        self.run(&job, batch.individuals, &tx)?;
        drop(tx);
        rx.into_iter().collect()
    }
}

/// Adapts any [`EvalVenue`] to the GA's [`FitnessEvaluator`] trait:
/// numbers the generations, counts *distinct* genomes (the number
/// [`avf_ga::LocalEvaluator`] reports, invariant under worker deaths
/// and cache evictions), and tallies worker cache hits.
pub struct VenueEvaluator<V> {
    venue: V,
    context: EvalContext,
    generation: u64,
    distinct: DistinctCounter,
    cache_hits: u64,
}

impl<V: EvalVenue> VenueEvaluator<V> {
    /// Binds `venue` to an evaluation context.
    pub fn new(venue: V, context: EvalContext) -> VenueEvaluator<V> {
        VenueEvaluator {
            venue,
            context,
            generation: 0,
            distinct: DistinctCounter::default(),
            cache_hits: 0,
        }
    }

    /// Worker-reported cache hits across the search (observability; not
    /// part of the deterministic evaluation count).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

impl<V: EvalVenue> FitnessEvaluator for VenueEvaluator<V> {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let batch = EvalBatch {
            context: self.context.clone(),
            generation: self.generation,
            individuals: (0u64..).zip(generation.iter().cloned()).collect(),
        };
        let acks = self
            .venue
            .score(batch)
            .map_err(|e| EvalError(e.to_string()))?;
        let mut scores = vec![None; generation.len()];
        let mut hits = 0;
        for ack in acks {
            if let Some(slot) = scores.get_mut(ack.index as usize) {
                *slot = Some(ack.score);
            }
            hits += u64::from(ack.cached);
        }
        let scores = scores
            .into_iter()
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| EvalError("the venue left individuals unscored".to_owned()))?;
        self.generation += 1;
        self.distinct.record(generation);
        self.cache_hits += hits;
        Ok(scores)
    }

    fn evaluations(&self) -> u64 {
        self.distinct.count()
    }
}

/// Scores generations on a directly connected worker fleet.
pub type RemoteEvaluator = VenueEvaluator<Fleet>;

impl RemoteEvaluator {
    /// Connects a fleet and binds it to an evaluation context.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the fleet fails to connect.
    pub fn connect(
        addrs: &[String],
        key: Option<AuthKey>,
        context: EvalContext,
    ) -> Result<RemoteEvaluator, BackendError> {
        Ok(VenueEvaluator::new(Fleet::connect(addrs, key)?, context))
    }

    /// Individuals re-dispatched after worker deaths (observability;
    /// never part of the evaluation count).
    #[must_use]
    pub fn redispatched(&self) -> u64 {
        self.venue.redispatched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientMessage, ServerMessage};
    use avf_isa::wire::WIRE_VERSION;

    fn context() -> EvalContext {
        EvalContext {
            machine: MachineConfig::baseline(),
            fitness: Fitness::overall(FaultRates::rhc()),
            instr_budget: 20_000,
        }
    }

    fn batch() -> EvalBatch {
        EvalBatch {
            context: context(),
            generation: 7,
            individuals: vec![(0, vec![0.1, 0.2, 0.3]), (3, vec![0.9, -0.0, 1.0])],
        }
    }

    /// Decodes through the worker's one client-message entry point.
    fn decode_batch(bytes: &[u8]) -> Result<EvalBatch, WireError> {
        match ClientMessage::from_wire(bytes)? {
            ClientMessage::Eval(batch) => Ok(*batch),
            other => panic!("expected an eval batch, got {other:?}"),
        }
    }

    #[test]
    fn eval_batch_round_trips() {
        let b = batch();
        let decoded = decode_batch(&b.to_wire()).expect("round trip");
        assert_eq!(decoded.generation, 7);
        assert_eq!(decoded.individuals.len(), 2);
        assert_eq!(decoded.individuals[1].0, 3);
        assert_eq!(
            genome_bits(&decoded.individuals[1].1),
            genome_bits(&b.individuals[1].1),
            "genes travel bit-exactly, including -0.0"
        );
        assert_eq!(decoded.context.fingerprint(), b.context.fingerprint());
        assert_eq!(decoded.context.fitness.rates(), b.context.fitness.rates());
        assert_eq!(decoded.context.fitness.scope(), b.context.fitness.scope());
    }

    #[test]
    fn eval_score_round_trips_through_reply() {
        let s = EvalScore {
            index: 42,
            score: 0.123_456_789,
            cached: true,
        };
        assert_eq!(
            ServerMessage::from_wire(&s.to_wire()).expect("round trip"),
            ServerMessage::Score(s)
        );
        let done = ServerMessage::Done { events: 9 }.to_wire();
        assert_eq!(
            ServerMessage::from_wire(&done).expect("done decodes"),
            ServerMessage::Done { events: 9 }
        );
    }

    #[test]
    fn truncated_and_garbage_eval_payloads_fail_typed() {
        let bytes = batch().to_wire();
        for cut in [1, 6, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_batch(&bytes[..cut]),
                    Err(WireError::Truncated | WireError::BadMagic(_))
                ),
                "cut at {cut} must fail typed"
            );
        }
        let mut garbage = bytes.clone();
        garbage[0] ^= 0xFF;
        assert!(matches!(
            decode_batch(&garbage),
            Err(WireError::BadMagic(_))
        ));
        let wrong_kind = EvalScore {
            index: 0,
            score: 0.0,
            cached: false,
        }
        .to_wire();
        assert!(matches!(
            decode_batch(&wrong_kind),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn v6_eval_frames_fail_with_version_skew() {
        // A pre-eval v6 build cannot speak EVAL_BATCH at all; what it
        // would actually send is a v6 envelope, and this v7 build must
        // name both versions in the error instead of misdecoding.
        let mut stale = batch().to_wire();
        stale[4] = 6;
        assert!(matches!(
            decode_batch(&stale),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: WIRE_VERSION,
            })
        ));
        let mut stale_reply = EvalScore {
            index: 1,
            score: 1.0,
            cached: false,
        }
        .to_wire();
        stale_reply[4] = 6;
        assert_eq!(
            ServerMessage::from_wire(&stale_reply),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn context_fingerprint_tracks_every_field() {
        let base = context().fingerprint();
        let mut other = context();
        other.instr_budget += 1;
        assert_ne!(base, other.fingerprint(), "budget is part of the key");
        let mut other = context();
        other.fitness = Fitness::overall(FaultRates::baseline());
        assert_ne!(base, other.fingerprint(), "rates are part of the key");
        let mut other = context();
        other.fitness = Fitness::with_scope(FaultRates::rhc(), FitnessScope::Core);
        assert_ne!(base, other.fingerprint(), "scope is part of the key");
        let mut other = context();
        other.machine = MachineConfig::config_a();
        assert_ne!(base, other.fingerprint(), "machine is part of the key");
        assert_eq!(base, context().fingerprint(), "fingerprint is stable");
    }

    #[test]
    fn eval_cache_hits_and_evicts() {
        let cache = EvalCache::with_capacity(2);
        let bits_a = genome_bits(&[0.1]);
        let bits_b = genome_bits(&[0.2]);
        let bits_c = genome_bits(&[0.3]);
        assert_eq!(cache.lookup(1, &bits_a), None);
        cache.insert(1, bits_a.clone(), 10.0);
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        assert_eq!(cache.lookup(2, &bits_a), None, "context keys are distinct");
        cache.insert(1, bits_b.clone(), 20.0);
        // Touch A so B is the LRU victim when C arrives.
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        cache.insert(1, bits_c.clone(), 30.0);
        assert_eq!(cache.lookup(1, &bits_b), None, "LRU entry evicted");
        assert_eq!(cache.lookup(1, &bits_c), Some(30.0));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn distinct_counter_matches_local_semantics() {
        let mut counter = DistinctCounter::default();
        counter.record(&[vec![0.5, 0.5], vec![0.5, 0.5], vec![0.1, 0.9]]);
        assert_eq!(counter.count(), 2, "in-generation duplicates count once");
        counter.record(&[vec![0.5, 0.5], vec![0.0]]);
        assert_eq!(counter.count(), 3, "cross-generation repeats count once");
        counter.record(&[vec![-0.0]]);
        assert_eq!(counter.count(), 4, "-0.0 and 0.0 are distinct genomes");
    }

    #[test]
    fn decode_rejects_invalid_fields() {
        let mut b = batch();
        b.individuals[0].1.clear();
        assert!(matches!(
            decode_batch(&b.to_wire()),
            Err(WireError::Invalid(_))
        ));
        let mut b = batch();
        b.context.instr_budget = 0;
        assert!(matches!(
            decode_batch(&b.to_wire()),
            Err(WireError::Invalid(_))
        ));
        let mut nan_rates = batch().to_wire();
        // Corrupt the first fault rate (right after machine + name code)
        // into a negative value; the decoder must reject it rather than
        // panic inside `FaultRates::set`.
        let mut probe = WireWriter::new();
        batch().context.machine.encode(&mut probe);
        let rate_at = 6 + probe.len() + 1;
        nan_rates[rate_at..rate_at + 8].copy_from_slice(&f64::to_le_bytes(-1.0));
        assert!(matches!(
            decode_batch(&nan_rates),
            Err(WireError::Invalid(_))
        ));
    }
}
