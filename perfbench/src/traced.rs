//! Traced runs: the per-layer metrics.
//!
//! Every span is taken in the benchmark's own code, around calls into
//! the crates' public functions; nothing inside the program is
//! instrumented. A traced run takes the workload's sub-seeds in turn
//! for `--seconds` (at least one), running each unit once untraced and
//! once traced; it checks that both give the same tallies or scores,
//! and reports the difference in wall time as `trace.overhead_frac`.
//!
//! * Campaigns run through [`TracingBackend`], a `CampaignBackend` that
//!   replays the steps of `LocalBackend` with one worker and of
//!   `classify_trial` from outside, timing each phase. The campaign
//!   driver (planning, adaptive allocation, the concurrent ACE
//!   reference) is the library's own `Campaign::run_on`.
//! * The search runs `optimize` on a `LocalEvaluator` whose closure
//!   times the steps of `evaluate_genome`, behind a wrapper that times
//!   each `FitnessEvaluator::evaluate`.
//! * The brokered workload also sends one batch, repeatedly, through the
//!   broker and through a one-thread `LocalBackend`.

use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use avf_codegen::{generate, Knobs, GENOME_LEN};
use avf_ga::{optimize, EvalError, FitnessEvaluator, LocalEvaluator};
use avf_inject::{
    cycle_budget_of, golden_run_checkpointed, golden_run_with_evidence, shard_trials, BackendError,
    Campaign, CampaignBackend, CampaignSession, DecodedCheckpoints, FaultModel, FlipEffect,
    GoldenSpec, JobSpec, LocalBackend, OpenedJob, Outcome, PruneMap, RunEnd, SamplingPlan,
    StoreSource, Trial, TrialEvent, TrialStream, WorkerProvision, PRUNE_WINDOW,
};
use avf_isa::Program;
use avf_sim::{simulate, InjectionSim, MachineConfig};
use avf_stressmark::{generate_stressmark, target_params, SearchConfig};

use crate::metrics::{lookup, RunResult};
use crate::stats::{timed, Samples};
use crate::summary::{checked, CampaignSummary, SearchSummary};
use crate::untraced::cycle_units;
use crate::venue::BrokerVenue;
use crate::workload::{self, search_config, sub_seed, Sizes, Workload};

/// Phase times of the outside-driven trial loop, in seconds, plus its
/// counts.
#[derive(Debug, Clone, Default)]
pub struct TrialLoop {
    /// Restoring the shard's first checkpoint and advancing the
    /// fault-free prefix to each injection cycle.
    pub prefix: f64,
    /// The dry probe.
    pub probe: f64,
    /// Snapshots before armed flips.
    pub snapshot: f64,
    /// Applying armed flips.
    pub flip: f64,
    /// Faulty tails (`run_to_end`).
    pub tail: f64,
    /// Final memory digests.
    pub digest: f64,
    /// Rewinds to the snapshot (and dropping it).
    pub restore: f64,
    /// The whole loop.
    pub total: f64,
    /// Trials classified.
    pub trials: u64,
    /// Trials the probe found armed.
    pub armed: u64,
    /// Cycles simulated inside faulty tails.
    pub tail_cycles: u64,
    /// Per-armed-trial snapshot times, µs.
    pub snapshot_us: Samples,
    /// Per-armed-trial restore times, µs.
    pub restore_us: Samples,
    /// Per-digest times, µs.
    pub digest_us: Samples,
    /// Serialized size of the machine state at the first armed trial.
    pub snapshot_bytes: Option<usize>,
}

/// Classifies `trial` exactly as `avf_inject::classify_trial` does,
/// through the same public `InjectionSim` calls, timing each step.
pub fn classify_traced(
    sim: &mut InjectionSim<'_>,
    trial: &Trial,
    golden_digest: u64,
    t: &mut TrialLoop,
) -> Outcome {
    t.trials += 1;
    let (reached, secs) = timed(|| sim.run_to_cycle(trial.cycle));
    t.prefix += secs;
    if !reached {
        return Outcome::Unreached;
    }
    let (effect, secs) = timed(|| sim.probe_bit(trial.target, trial.entry, trial.bit));
    t.probe += secs;
    match effect {
        FlipEffect::Masked(_) => Outcome::Masked,
        FlipEffect::Diverged => Outcome::ReplayDiverged,
        FlipEffect::Armed => {
            t.armed += 1;
            if t.snapshot_bytes.is_none() {
                t.snapshot_bytes = Some(sim.snapshot_wire().len());
            }
            let (snap, secs) = timed(|| sim.snapshot());
            t.snapshot += secs;
            t.snapshot_us.push(secs * 1e6);
            let (_, secs) = timed(|| sim.flip_bit(trial.target, trial.entry, trial.bit));
            t.flip += secs;
            let start_cycle = sim.cycle();
            let (end, secs) = timed(|| sim.run_to_end());
            t.tail += secs;
            t.tail_cycles += sim.cycle() - start_cycle;
            let outcome = match end {
                RunEnd::Trapped | RunEnd::Timeout => Outcome::Due,
                RunEnd::Completed => {
                    let (digest, secs) = timed(|| sim.memory_digest());
                    t.digest += secs;
                    t.digest_us.push(secs * 1e6);
                    if digest == golden_digest {
                        Outcome::Masked
                    } else {
                        Outcome::Sdc
                    }
                }
            };
            let (_, secs) = timed(|| {
                sim.restore(&snap);
                drop(snap);
            });
            t.restore += secs;
            t.restore_us.push(secs * 1e6);
            outcome
        }
    }
}

/// Set-up times of the traced venue's `open`s.
#[derive(Debug, Clone, Default)]
pub struct OpenTimes {
    /// Golden passes (with evidence capture when pruning).
    pub golden_s: Samples,
    /// `PruneMap::build`.
    pub prune_build_s: Samples,
    /// `CheckpointStore::decode_all`.
    pub decode_s: Samples,
    /// Serialized size of the last checkpoint store.
    pub checkpoint_bytes: usize,
}

/// Everything a traced campaign recorded.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// The venue's set-up.
    pub open: OpenTimes,
    /// The trial loop.
    pub trials: TrialLoop,
}

/// A one-worker local venue whose set-up and trial loop are driven
/// from outside the library and timed step by step.
#[derive(Default)]
pub struct TracingBackend {
    trace: Arc<Mutex<CampaignTrace>>,
}

impl TracingBackend {
    /// What the venue recorded so far.
    #[must_use]
    pub fn trace(&self) -> CampaignTrace {
        self.trace.lock().expect("trace lock").clone()
    }
}

struct TracedJob {
    machine: MachineConfig,
    program: Program,
    checkpoints: DecodedCheckpoints,
    instr_budget: u64,
    cycle_budget: u64,
    fault_model: FaultModel,
    golden_digest: u64,
}

impl TracedJob {
    /// `LocalBackend`'s one-shard forward pass.
    fn run_shard(&self, shard: &[Trial], t: &mut TrialLoop, mut emit: impl FnMut(TrialEvent)) {
        let mut sim: Option<InjectionSim<'_>> = None;
        for trial in shard {
            let sim = sim.get_or_insert_with(|| {
                let (s, secs) = timed(|| {
                    let mut s = InjectionSim::new(&self.machine, &self.program, self.instr_budget);
                    s.set_cycle_budget(self.cycle_budget);
                    s.set_fault_model(self.fault_model);
                    let (_, snap) = self
                        .checkpoints
                        .nearest(trial.cycle)
                        .expect("store always holds the cycle-0 checkpoint");
                    s.restore(snap);
                    s
                });
                t.prefix += secs;
                s
            });
            let outcome = classify_traced(sim, trial, self.golden_digest, t);
            emit(TrialEvent {
                index: trial.index,
                target: trial.target,
                outcome,
            });
        }
    }
}

impl CampaignBackend for TracingBackend {
    fn workers(&self) -> usize {
        1
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let GoldenSpec::Delegated {
            checkpoint_interval,
        } = spec.golden
        else {
            return Err(BackendError::Protocol(
                "the traced venue runs the golden pass itself".to_owned(),
            ));
        };
        let mut trace = self.trace.lock().expect("trace lock");
        let mut prune = None;
        let (golden, store) = if spec.prune {
            let ((golden, store, evidence), secs) = timed(|| {
                golden_run_with_evidence(
                    &spec.machine,
                    &spec.program,
                    spec.instr_budget,
                    checkpoint_interval,
                    PRUNE_WINDOW,
                )
            });
            trace.open.golden_s.push(secs);
            let (map, secs) = timed(|| {
                PruneMap::build(&spec.machine, &spec.program, spec.fault_model, &evidence)
            });
            trace.open.prune_build_s.push(secs);
            prune = Some(Arc::new(map));
            (golden, store)
        } else {
            let (run, secs) = timed(|| {
                golden_run_checkpointed(
                    &spec.machine,
                    &spec.program,
                    spec.instr_budget,
                    checkpoint_interval,
                )
            });
            trace.open.golden_s.push(secs);
            run
        };
        trace.open.checkpoint_bytes = store.total_bytes();
        let (checkpoints, secs) = timed(|| store.decode_all(&spec.machine, &spec.program));
        trace.open.decode_s.push(secs);
        Ok(OpenedJob {
            session: Box::new(TracedSession {
                job: TracedJob {
                    machine: spec.machine,
                    program: spec.program,
                    checkpoints: checkpoints?,
                    instr_budget: spec.instr_budget,
                    cycle_budget: cycle_budget_of(golden.cycles),
                    fault_model: spec.fault_model,
                    golden_digest: golden.digest,
                },
                trace: Arc::clone(&self.trace),
            }),
            golden,
            checkpoints: store.len(),
            provisioning: vec![WorkerProvision {
                worker: "traced".to_owned(),
                source: StoreSource::GoldenRun,
            }],
            prune,
        })
    }
}

struct TracedSession {
    job: TracedJob,
    trace: Arc<Mutex<CampaignTrace>>,
}

impl CampaignSession for TracedSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        // One worker: one cycle-sorted shard, classified on this thread
        // (as `LocalBackend`'s single worker would, while the driver
        // waits) before the stream is handed back.
        let (tx, rx) = mpsc::channel();
        let mut trace = self.trace.lock().expect("trace lock");
        let t = &mut trace.trials;
        let ((), secs) = timed(|| {
            for shard in shard_trials(trials, 1) {
                self.job.run_shard(&shard, t, |ev| {
                    let _ = tx.send(Ok(ev));
                });
            }
        });
        t.total += secs;
        Ok(TrialStream::new(rx, Vec::new()))
    }
}

/// Runs workload `w` in alternating untraced and traced units, cycling
/// through its sub-seeds for about `seconds` (at least one pair).
pub fn run(w: Workload, sizes: &Sizes, seed: u64, seconds: f64, scratch: &Path) -> RunResult {
    let mut res = RunResult::default();
    match w {
        Workload::Search => search(sizes, seed, seconds, &mut res),
        _ => campaign(w, sizes, seed, seconds, scratch, &mut res),
    }
    let rate = res.failed as f64 / res.attempted.max(1) as f64;
    res.set("error_rate", rate);
    res
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn campaign(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    res: &mut RunResult,
) {
    let machine = workload::machine();
    let program = workload::program(w);
    let configs: Vec<_> = (0..sizes.sub_seeds(w))
        .map(|k| workload::campaign_config(w, sizes, sub_seed(seed, k)))
        .collect();

    // The brokered hop first: cold and warm opens, the campaign through
    // the broker, then one batch sent repeatedly through both hops. It
    // counts toward the run's time.
    let start = Instant::now();
    let brokered = if w == Workload::BrokeredStressmark {
        hop(sizes, &machine, &program, &configs[0], scratch, res)
    } else {
        None
    };

    let local = LocalBackend::new(1);
    let tracing = TracingBackend::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut trials_to_verdict = Samples::default();
    let mut residual = Samples::default();
    // One pair at least, then pairs until the deadline, taking the
    // sub-seeds in turn (a traced run need not cover all of them).
    let mut next = 0;
    let loop_seconds = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    cycle_units(1, loop_seconds, |_| {
        let k = next % configs.len();
        next += 1;
        let config = &configs[k];
        let run_on = |backend: &dyn CampaignBackend| {
            timed(|| Campaign::new(&machine, &program, config.clone()).run_on(backend))
        };
        let (untraced, untraced_wall) = run_on(&local);
        let (traced, traced_wall) = run_on(&tracing);
        let untraced = checked("untraced campaign", config.injections, untraced, res);
        let traced = checked("traced campaign", config.injections, traced, res);
        let ((untraced, _), (traced, report)) = (untraced?, traced?);
        res.check(untraced == traced, traced.trials, || {
            "the outside-driven trial loop does not reproduce the untraced tallies".to_owned()
        });
        if let (0, Some(b)) = (k, &brokered) {
            res.check(*b == traced, traced.trials, || {
                "the brokered campaign does not reproduce the local tallies".to_owned()
            });
        }
        untraced_s += untraced_wall;
        traced_s += traced_wall;
        trials_to_verdict.push(report.injections as f64);
        residual.push(
            report.targets.iter().map(|t| t.residual).sum::<f64>()
                / report.targets.len().max(1) as f64,
        );
        Some(traced_wall)
    });
    res.set("trace.overhead_frac", share(traced_s, untraced_s) - 1.0);

    let trace = tracing.trace();
    let t = &trace.trials;
    res.set(
        "sim.fault.mcycles_per_s",
        share(t.tail_cycles as f64, t.tail) / 1e6,
    );
    for (name, samples) in [
        ("sim.snapshot_us", &t.snapshot_us),
        ("sim.restore_us", &t.restore_us),
        ("sim.digest_us", &t.digest_us),
    ] {
        set_samples(res, name, samples);
    }
    res.set("sim.golden_s", trace.open.golden_s.median());
    res.set("sim.checkpoint_decode_s", trace.open.decode_s.median());
    res.set("sim.snapshot_bytes", t.snapshot_bytes.unwrap_or(0) as f64);
    res.set("sim.checkpoint_bytes", trace.open.checkpoint_bytes as f64);
    for (name, phase) in [
        ("inject.prefix_share", t.prefix),
        ("inject.probe_share", t.probe),
        ("inject.snapshot_share", t.snapshot),
        ("inject.flip_share", t.flip),
        ("inject.tail_share", t.tail),
        ("inject.digest_share", t.digest),
        ("inject.restore_share", t.restore),
    ] {
        res.set(name, share(phase, t.total));
    }
    res.set("inject.armed_frac", share(t.armed as f64, t.trials as f64));
    res.set(
        "inject.tail_cycles_per_armed",
        share(t.tail_cycles as f64, t.armed as f64),
    );
    res.set("inject.trials_to_verdict", trials_to_verdict.median());
    res.set("prune.build_s", trace.open.prune_build_s.median());
    res.set("prune.residual_frac", residual.median());

    // The campaign's ACE reference runs beside the trial loop, off the
    // blocking path; timed here on its own.
    let (ace, secs) = timed(|| simulate(&machine, &program, configs[0].instr_budget));
    res.set(
        "sim.ace.mcycles_per_s",
        share(ace.stats.cycles as f64, secs) / 1e6,
    );
}

/// Records a sampled timing as `name` (median) and `name.tail`, and
/// its sample count beside the metrics.
fn set_samples(res: &mut RunResult, name: &'static str, samples: &Samples) {
    res.set(name, samples.median());
    let tail = lookup(&format!("{name}.tail")).expect("every sampled timing has a .tail");
    res.set(tail.name, samples.tail());
    res.samples.push((name, samples.len()));
}

/// The brokered hop's layer metrics; returns the brokered campaign's
/// summary.
fn hop(
    sizes: &Sizes,
    machine: &MachineConfig,
    program: &Program,
    config: &avf_inject::CampaignConfig,
    scratch: &Path,
    res: &mut RunResult,
) -> Option<CampaignSummary> {
    let spec = workload::job_spec(machine, program, config);
    let failed = |res: &mut RunResult, e: BackendError| {
        res.attempted += config.injections;
        res.check(false, config.injections, || {
            format!("brokered hop failed: {e}")
        });
        None
    };
    let venue = match BrokerVenue::start(scratch) {
        Ok(v) => v,
        Err(e) => return failed(res, e),
    };
    let (cold, secs) = timed(|| venue.backend.open(spec.clone()));
    res.set("hop.open_cold_s", secs);
    drop(cold);
    let (warm, secs) = timed(|| venue.backend.open(spec.clone()));
    res.set("hop.open_warm_s", secs);
    drop(warm);

    let report = Campaign::new(machine, program, config.clone()).run_on(&venue.backend);
    let (summary, report) = checked("brokered campaign", config.injections, report, res)?;
    let mut redispatched = report.dispatches.iter().filter(|d| d.redispatched).count();

    let remote = venue.backend.open(spec.clone());
    let local = LocalBackend::new(1).open(spec);
    let (mut remote, mut local) = match (remote, local) {
        (Ok(r), Ok(l)) => (r, l),
        (Err(e), _) | (_, Err(e)) => return failed(res, e),
    };
    let plan = SamplingPlan::new(
        machine,
        &config.targets,
        config.injections,
        remote.golden.cycles,
        config.seed,
        None,
    );
    let batch = &plan.trials()[..sizes.hop_batch.min(plan.len())];
    let mut remote_ms = Samples::default();
    let mut local_ms = Samples::default();
    for _ in 0..sizes.hop_rounds {
        let (r, r_secs) = timed(|| drain(remote.session.as_mut(), batch));
        let (l, l_secs) = timed(|| drain(local.session.as_mut(), batch));
        res.attempted += 2 * batch.len() as u64;
        match (r, l) {
            (Ok(r), Ok(l)) => res.check(r == l, batch.len() as u64, || {
                "a batch through the broker and through the local venue disagree".to_owned()
            }),
            (Err(e), _) | (_, Err(e)) => {
                res.check(false, 2 * batch.len() as u64, || {
                    format!("hop batch failed: {e}")
                });
                return Some(summary);
            }
        }
        remote_ms.push(r_secs * 1e3);
        local_ms.push(l_secs * 1e3);
    }
    redispatched += remote
        .session
        .dispatch_log()
        .iter()
        .filter(|d| d.redispatched)
        .count();
    set_samples(res, "hop.batch_ms", &remote_ms);
    set_samples(res, "hop.local_batch_ms", &local_ms);
    res.set(
        "hop.overhead_frac",
        share(remote_ms.median(), local_ms.median()) - 1.0,
    );
    res.set("hop.redispatched", redispatched as f64);
    Some(summary)
}

/// Submits one batch and drains it; events sorted by trial index.
fn drain(
    session: &mut dyn CampaignSession,
    batch: &[Trial],
) -> Result<Vec<TrialEvent>, BackendError> {
    let mut events = session.submit(batch)?.collect::<Result<Vec<_>, _>>()?;
    if events.len() != batch.len() {
        return Err(BackendError::Protocol(format!(
            "{} events for a batch of {}",
            events.len(),
            batch.len()
        )));
    }
    events.sort_by_key(|e| e.index);
    Ok(events)
}

/// Step times of `evaluate_genome`, recorded by the evaluator closure.
#[derive(Debug, Clone, Default)]
struct EvalSteps {
    codegen_ms: Samples,
    sim_s: f64,
    sim_cycles: u64,
    score_us: Samples,
}

/// Times every `evaluate` call of the evaluator it wraps.
struct TimedEvaluator<E> {
    inner: E,
    evaluate_s: f64,
}

impl<E: FitnessEvaluator> FitnessEvaluator for TimedEvaluator<E> {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let (scores, secs) = timed(|| self.inner.evaluate(generation));
        self.evaluate_s += secs;
        scores
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// `generate_stressmark` on the local backend, replayed from outside
/// with every step timed.
fn traced_search(config: &SearchConfig) -> Result<(SearchSummary, EvalSteps, f64, f64), EvalError> {
    let steps = Arc::new(Mutex::new(EvalSteps::default()));
    let recorder = Arc::clone(&steps);
    let (machine, fitness, budget) = (
        config.machine.clone(),
        config.fitness.clone(),
        config.eval_instructions,
    );
    // The steps of `avf_service::evaluate_genome`, one by one.
    let closure = move |genes: &[f64]| {
        let (candidate, codegen) = timed(|| {
            let params = target_params(&machine);
            let knobs = Knobs::from_genome(genes, &params);
            generate(&knobs, &params)
        });
        let (result, sim) = timed(|| simulate(&machine, &candidate.program, budget));
        let (score, scoring) = timed(|| fitness.score(&result.report));
        let mut s = recorder.lock().expect("steps lock");
        s.codegen_ms.push(codegen * 1e3);
        s.sim_s += sim;
        s.sim_cycles += result.stats.cycles;
        s.score_us.push(scoring * 1e6);
        score
    };
    let mut evaluator = TimedEvaluator {
        inner: LocalEvaluator::new(1, closure),
        evaluate_s: 0.0,
    };
    let (ga, optimize_s) = timed(|| optimize(GENOME_LEN, &config.ga, &mut evaluator));
    let ga = ga?;
    // The winner's final re-run, as `generate_stressmark` does it.
    let params = target_params(&config.machine);
    let winner = generate(&Knobs::from_genome(&ga.best_genome, &params), &params);
    let result = simulate(&config.machine, &winner.program, config.final_instructions);
    let score = config.fitness.score(&result.report);
    let summary = SearchSummary::from_parts(config.ga.seed, &ga, score, &result.stats);
    let steps = steps.lock().expect("steps lock").clone();
    Ok((summary, steps, optimize_s, evaluator.evaluate_s))
}

fn search(sizes: &Sizes, seed: u64, seconds: f64, res: &mut RunResult) {
    let configs: Vec<_> = (0..sizes.search_sub_seeds)
        .map(|k| search_config(sizes, sub_seed(seed, k)))
        .collect();
    let ops = (sizes.population * sizes.generations) as u64 + 1;
    let mut steps = EvalSteps::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut optimize_s, mut evaluate_s) = (0.0, 0.0);
    let (mut evaluations, mut generations) = (0u64, 0usize);
    let mut next = 0;
    cycle_units(1, seconds, |_| {
        let config = &configs[next % configs.len()];
        next += 1;
        res.attempted += 2 * ops;
        let (untraced, untraced_wall) = timed(|| generate_stressmark(config));
        let (traced, traced_wall) = timed(|| traced_search(config));
        let (untraced, traced) = match (untraced, traced) {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => {
                res.check(false, 2 * ops, || {
                    format!("search seed {} failed: {e}", config.ga.seed)
                });
                return None;
            }
        };
        let (summary, unit_steps, unit_optimize_s, unit_evaluate_s) = traced;
        let seed = config.ga.seed;
        res.check(SearchSummary::of(seed, &untraced) == summary, ops, || {
            format!("traced search of seed {seed} differs from the untraced one")
        });
        untraced_s += untraced_wall;
        traced_s += traced_wall;
        optimize_s += unit_optimize_s;
        evaluate_s += unit_evaluate_s;
        evaluations += summary.evaluations;
        generations += summary.history.len();
        steps.codegen_ms.extend(&unit_steps.codegen_ms);
        steps.score_us.extend(&unit_steps.score_us);
        steps.sim_s += unit_steps.sim_s;
        steps.sim_cycles += unit_steps.sim_cycles;
        Some(traced_wall)
    });
    res.set("trace.overhead_frac", share(traced_s, untraced_s) - 1.0);
    res.set(
        "sim.ace.mcycles_per_s",
        share(steps.sim_cycles as f64, steps.sim_s) / 1e6,
    );
    set_samples(res, "codegen.generate_ms", &steps.codegen_ms);
    set_samples(res, "ace.score_us", &steps.score_us);
    res.set(
        "search.codegen_share",
        share(steps.codegen_ms.sum() / 1e3, optimize_s),
    );
    res.set("search.sim_share", share(steps.sim_s, optimize_s));
    res.set(
        "search.score_share",
        share(steps.score_us.sum() / 1e6, optimize_s),
    );
    res.set(
        "ga.overhead_share",
        share(optimize_s - evaluate_s, optimize_s),
    );
    res.set(
        "ga.evals_per_gen",
        share(evaluations as f64, generations as f64),
    );
    // No site space is sampled, so nothing is pruned.
    res.set("prune.residual_frac", 1.0);
}
