//! The campaign driver (engine v3): planning and aggregation only.
//!
//! Engine v2 added checkpointed forks and adaptive sequential sampling;
//! v3 splits the *driver* (batch planning, CI-driven allocation,
//! aggregation) from the *execution venue*. All trial execution goes
//! through the [`CampaignBackend`] protocol: the driver opens a
//! session with a [`JobSpec`] (program + machine + budget + golden-run
//! source), submits trial batches, and folds the [`TrialEvent`] stream
//! into outcome counts. Even the golden pass belongs to the venue by
//! default ([`GoldenMode::Worker`]): remote workers execute it in
//! parallel and the driver simulates nothing. [`LocalBackend`] gives
//! the classic in-process thread pool; `avf-service`'s `RemoteBackend`
//! fans the same batches out over TCP — with a fixed seed both produce
//! identical reports, because every sample is a pure function of
//! `(seed, batch, index)` and outcome counts merge commutatively.
//!
//! The ACE reference simulation has no data dependence on the injection
//! sweep, so it runs concurrently with the batch loop inside the same
//! thread scope (on a single hardware thread the two simply serialize).

use std::sync::Arc;
use std::time::Instant;

use avf_isa::Program;
use avf_prune::{PruneMap, PruneMode};
use avf_sim::{simulate, MachineConfig};

use crate::adaptive::allocate_batch;
use crate::backend::{
    cycle_budget_of, golden_pass, BackendError, CampaignBackend, GoldenSpec, JobSpec, LocalBackend,
};
use crate::plan::SamplingPlan;
use crate::report::{ace_avf_of, BatchProgress, CampaignReport, StopReason, TargetReport};
use crate::stats::OutcomeCounts;
use crate::Outcome;

/// Deterministic audit trials drawn per target from the pruned strata
/// under [`PruneMode::Audit`] — every one must observe masked.
const AUDIT_TRIALS_PER_TARGET: u64 = 64;

/// Who executes the fault-free golden pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GoldenMode {
    /// The execution venue runs the golden pass itself
    /// ([`GoldenSpec::Delegated`]): remote workers warm up in parallel
    /// and the driver never simulates the prefix locally. The driver
    /// cross-checks that every worker reports the identical golden
    /// digest.
    #[default]
    Worker,
    /// The driver runs the golden pass locally and ships the
    /// checkpoint store ([`GoldenSpec::Shipped`]) — subject to the
    /// content-hash cache handshake, so a worker that already holds
    /// the store never receives the bytes again.
    Driver,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total injection budget. For a fixed campaign (`ci_target: None`)
    /// every trial is executed, split round-robin across `targets`; for
    /// an adaptive campaign this is the trial *cap* sequential sampling
    /// may stop well short of.
    pub injections: u64,
    /// Seed deriving the whole sampling plan.
    pub seed: u64,
    /// Worker threads of the default [`LocalBackend`] (0 = all
    /// available cores). A backend passed to [`Campaign::run_on`]
    /// brings its own parallelism and ignores this.
    pub threads: usize,
    /// Committed-instruction budget for the golden run and every trial.
    pub instr_budget: u64,
    /// Structures to inject into.
    pub targets: Vec<avf_sim::InjectionTarget>,
    /// Adaptive mode: stop once every target's 95% CI half-width is at
    /// or below this value. `None` runs the fixed plan.
    pub ci_target: Option<f64>,
    /// Trials planned per adaptive batch (clamped to at least one).
    pub batch_size: u64,
    /// Golden-run checkpoint spacing in cycles (0 = auto: an eighth of
    /// the instruction budget, which lands near 4–16 checkpoints at
    /// typical IPC).
    pub checkpoint_interval: u64,
    /// Who executes the golden pass (default: the execution venue).
    /// Either mode yields a bit-identical report at a fixed seed — the
    /// golden run is deterministic, so only *where* it executes moves.
    pub golden_mode: GoldenMode,
    /// How queueing-structure control/tag flips are resolved (default:
    /// the micro-op replay oracle; `trap` restores the coarse
    /// control-corruption-is-DUE model for comparison).
    pub fault_model: avf_sim::FaultModel,
    /// Pre-campaign injection-site pruning (default: off). `On`
    /// stratifies sampling over the residual site space and credits the
    /// provably-masked strata analytically; `Audit` additionally injects
    /// a deterministic sample of *pruned* sites and hard-fails the
    /// campaign on any non-masked observation.
    pub prune: PruneMode,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            injections: 800,
            seed: 42,
            threads: 0,
            instr_budget: 30_000,
            targets: avf_sim::InjectionTarget::ALL.to_vec(),
            ci_target: None,
            batch_size: 128,
            checkpoint_interval: 0,
            golden_mode: GoldenMode::Worker,
            fault_model: avf_sim::FaultModel::default(),
            prune: PruneMode::Off,
        }
    }
}

impl CampaignConfig {
    fn effective_checkpoint_interval(&self) -> u64 {
        if self.checkpoint_interval > 0 {
            self.checkpoint_interval
        } else {
            (self.instr_budget / 8).max(64)
        }
    }
}

/// A configured fault-injection campaign over one program.
pub struct Campaign<'a> {
    machine: &'a MachineConfig,
    program: &'a Program,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Binds a campaign to a machine and program.
    #[must_use]
    pub fn new(
        machine: &'a MachineConfig,
        program: &'a Program,
        config: CampaignConfig,
    ) -> Campaign<'a> {
        Campaign {
            machine,
            program,
            config,
        }
    }

    /// Runs the campaign on the in-process [`LocalBackend`]
    /// ([`CampaignConfig::threads`] workers).
    ///
    /// Results are deterministic in `(seed, injections, instr_budget,
    /// ci_target, batch_size)` — the thread count (and execution venue,
    /// see [`Campaign::run_on`]) only changes wall-clock time.
    #[must_use]
    pub fn run(&self) -> CampaignReport {
        self.run_on(&LocalBackend::new(self.config.threads))
            .expect("the local backend is infallible on a store it just captured")
    }

    /// Runs the campaign on an arbitrary execution backend: checkpointed
    /// golden run, then batched trial submission overlapped with the
    /// ACE reference measurement.
    ///
    /// With a fixed seed the report is identical across backends — the
    /// sampling plan is derived purely from `(seed, batch, index)` and
    /// event aggregation is order-independent.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the backend cannot execute the
    /// campaign (unreachable workers, protocol violation, codec skew).
    pub fn run_on(&self, backend: &dyn CampaignBackend) -> Result<CampaignReport, BackendError> {
        let start = Instant::now();
        let prune_requested = self.config.prune.enabled();
        // In driver golden mode the driver runs the (instrumented)
        // golden pass itself and builds the prune map locally; in worker
        // mode the venue builds it during its delegated golden run and
        // returns it in the opened job.
        let mut driver_map: Option<Arc<PruneMap>> = None;
        let golden_spec = match self.config.golden_mode {
            GoldenMode::Worker => GoldenSpec::Delegated {
                checkpoint_interval: self.config.effective_checkpoint_interval(),
            },
            GoldenMode::Driver => {
                let (golden, store, evidence) = golden_pass(
                    self.machine,
                    self.program,
                    self.config.instr_budget,
                    self.config.effective_checkpoint_interval(),
                    prune_requested,
                );
                driver_map = evidence.map(|evidence| {
                    Arc::new(PruneMap::build(
                        self.machine,
                        self.program,
                        self.config.fault_model,
                        &evidence,
                    ))
                });
                GoldenSpec::Shipped {
                    store: Arc::new(store),
                    decoded: None,
                    golden,
                    cycle_budget: cycle_budget_of(golden.cycles),
                }
            }
        };
        let opened = backend.open(JobSpec {
            machine: self.machine.clone(),
            program: self.program.clone(),
            instr_budget: self.config.instr_budget,
            fault_model: self.config.fault_model,
            golden: golden_spec,
            prune: prune_requested,
        })?;
        let golden = opened.golden;
        let checkpoints = opened.checkpoints;
        let provisioning = opened.provisioning;
        let mut session = opened.session;

        let prune_map: Option<Arc<PruneMap>> = if prune_requested {
            let map = driver_map.or(opened.prune).ok_or_else(|| {
                BackendError::Protocol(
                    "pruning requested but neither the driver nor the venue produced a prune map"
                        .to_owned(),
                )
            })?;
            if map.cycles() != golden.cycles {
                return Err(BackendError::Protocol(format!(
                    "prune map covers {} golden cycles but the venue's golden run has {}",
                    map.cycles(),
                    golden.cycles
                )));
            }
            Some(map)
        } else {
            None
        };
        // Per-target residual masses: the stratified estimator samples
        // only the residual stratum and scales by these (1.0 unpruned).
        let residual: Vec<f64> = self
            .config
            .targets
            .iter()
            .map(|&t| prune_map.as_ref().map_or(1.0, |m| m.residual_fraction(t)))
            .collect();

        let mut counts = vec![OutcomeCounts::default(); self.config.targets.len()];
        let mut batches: Vec<BatchProgress> = Vec::new();
        let mut executed = 0u64;
        let mut stop = StopReason::FixedPlan;

        // The ACE reference has no dependence on the sweep: overlap it
        // with the trial batches instead of running it afterwards.
        let ace = std::thread::scope(|outer| {
            let ace_handle =
                outer.spawn(|| simulate(self.machine, self.program, self.config.instr_budget));

            loop {
                let plan = match self.config.ci_target {
                    None => {
                        if executed > 0 {
                            stop = StopReason::FixedPlan;
                            break;
                        }
                        // A fully-pruned target is an exact zero: the
                        // fixed plan round-robins over the targets that
                        // still have residual mass to sample.
                        let active: Vec<avf_sim::InjectionTarget> = self
                            .config
                            .targets
                            .iter()
                            .zip(&residual)
                            .filter(|&(_, &w)| w > 0.0)
                            .map(|(&t, _)| t)
                            .collect();
                        if active.is_empty() {
                            stop = StopReason::FixedPlan;
                            break;
                        }
                        SamplingPlan::new(
                            self.machine,
                            &active,
                            self.config.injections,
                            golden.cycles,
                            self.config.seed,
                            prune_map.as_deref(),
                        )
                    }
                    Some(ci_target) => {
                        // Convergence is tested before the budget (with a
                        // 1-trial probe when the cap is spent), so a campaign
                        // that converges on its last allowed batch reports
                        // the CI target, not the trial cap.
                        let budget_left = self.config.injections.saturating_sub(executed);
                        let alloc = allocate_batch(
                            &self.config.targets,
                            &counts,
                            &residual,
                            ci_target,
                            self.config.batch_size.max(1).min(budget_left.max(1)),
                        );
                        if alloc.is_empty() {
                            stop = StopReason::CiTarget;
                            break;
                        }
                        if budget_left == 0 {
                            stop = StopReason::TrialCap;
                            break;
                        }
                        SamplingPlan::for_batch(
                            self.machine,
                            &alloc,
                            golden.cycles,
                            self.config.seed,
                            batches.len() as u64,
                            executed,
                            prune_map.as_deref(),
                        )
                    }
                };
                if plan.is_empty() {
                    stop = StopReason::FixedPlan;
                    break;
                }

                let mut received = 0u64;
                for event in session.submit(plan.trials())? {
                    let event = event?;
                    let slot = self
                        .config
                        .targets
                        .iter()
                        .position(|&t| t == event.target)
                        .ok_or_else(|| {
                            BackendError::Protocol(format!(
                                "event for unplanned target {}",
                                event.target
                            ))
                        })?;
                    counts[slot].record(event.outcome);
                    received += 1;
                }
                if received != plan.len() as u64 {
                    // A lossy backend would silently skew the estimate;
                    // fail loudly instead.
                    return Err(BackendError::Protocol(format!(
                        "batch planned {} trials but {} events arrived",
                        plan.len(),
                        received
                    )));
                }
                executed += plan.len() as u64;

                let (widest_slot, max_half_width) = counts
                    .iter()
                    .map(OutcomeCounts::half_width95)
                    .zip(&residual)
                    .map(|(hw, &w)| w * hw)
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one target");
                batches.push(BatchProgress {
                    batch: batches.len() as u64,
                    trials: plan.len() as u64,
                    cumulative: executed,
                    widest: self.config.targets[widest_slot],
                    max_half_width,
                });
            }

            Ok::<_, BackendError>(ace_handle.join().expect("ACE reference thread panicked"))
        })?;

        // Audit mode: inject a deterministic sample of the *pruned*
        // sites. Every one is claimed provably masked by the classifier,
        // so a single non-masked observation is a soundness bug and
        // fails the campaign outright.
        let mut audited = 0u64;
        if self.config.prune == PruneMode::Audit {
            let map = prune_map
                .as_deref()
                .expect("audit mode always resolves a prune map");
            let plan = SamplingPlan::audit(
                self.machine,
                map,
                AUDIT_TRIALS_PER_TARGET,
                golden.cycles,
                self.config.seed,
            );
            for event in session.submit(plan.trials())? {
                let event = event?;
                if event.outcome != Outcome::Masked {
                    return Err(BackendError::Protocol(format!(
                        "prune audit failed: site claimed provably masked on {} \
                         observed {:?} (audit trial {})",
                        event.target, event.outcome, event.index
                    )));
                }
                audited += 1;
            }
        }

        let targets = self
            .config
            .targets
            .iter()
            .zip(counts)
            .zip(&residual)
            .map(|((&target, counts), &residual)| TargetReport {
                target,
                counts,
                ace_avf: ace_avf_of(&ace.report, target),
                residual,
            })
            .collect();

        Ok(CampaignReport {
            program: self.program.name().to_owned(),
            injections: executed,
            fault_model: self.config.fault_model,
            seed: self.config.seed,
            workers: backend.workers(),
            golden,
            targets,
            ci_target: self.config.ci_target,
            prune: self.config.prune,
            audited,
            stop,
            batches,
            checkpoints,
            provisioning,
            dispatches: session.dispatch_log(),
            wall: start.elapsed(),
        })
    }
}
