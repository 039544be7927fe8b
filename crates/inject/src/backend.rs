//! The campaign backend protocol: *where* trials execute, decoupled
//! from *how* a campaign is driven.
//!
//! [`Campaign::run`](crate::Campaign::run) used to own its worker
//! threads directly; bounding worst-case AVF at paper scale needs
//! millions of trials across many (program, machine) pairs, which means
//! the driver must not care whether trials run on this process's thread
//! pool or on a rack of remote workers. This module is the seam:
//!
//! * [`JobSpec`] — everything a worker needs to execute trials for one
//!   campaign: the program, the machine configuration, the instruction
//!   budget, and a [`GoldenSpec`] saying where the fault-free reference
//!   comes from — either a [`CheckpointStore`] the driver already
//!   captured ([`GoldenSpec::Shipped`]) or an instruction to the venue
//!   to execute the golden pass itself ([`GoldenSpec::Delegated`], the
//!   default: N remote workers warm up in parallel and the driver
//!   never simulates the prefix locally).
//! * [`CampaignBackend::open`] — binds a job to an execution venue and
//!   returns an [`OpenedJob`]: the [`CampaignSession`] plus the golden
//!   run the venue resolved (measured or received) and a per-worker
//!   record of how each worker obtained the checkpoint store.
//! * [`CampaignSession::submit`] — hands the session one batch of
//!   [`Trial`]s and returns a [`TrialStream`]: an iterator of
//!   [`TrialEvent`]s that yields each classified outcome *as it
//!   completes*, so an adaptive driver can re-allocate the next batch
//!   no matter where (or in what order) the trials actually ran.
//! * [`LocalBackend`] — the in-process thread pool, now just one client
//!   of this API. The TCP server and `RemoteBackend` in `avf-service`
//!   are the other.
//!
//! Outcome counts merge commutatively, and every trial's sample is a
//! pure function of `(seed, batch, index)`, so a campaign report is
//! identical for any backend, worker count, or event arrival order.

use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use avf_isa::wire::{kind, WireError, WireReader, WireWriter};
use avf_isa::Program;
use avf_prune::PruneMap;
use avf_sim::{
    golden_run_checkpointed, golden_run_with_evidence, CheckpointStore, DecodedCheckpoints,
    FaultModel, FlipEffect, GoldenRun, InjectionSim, InjectionTarget, MachineConfig, PruneEvidence,
    RunEnd, PRUNE_WINDOW,
};

use crate::plan::Trial;
use crate::Outcome;

/// Why a backend could not execute (part of) a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A payload failed to encode or decode.
    Wire(WireError),
    /// A transport-level I/O failure (connect, read, write).
    Io(String),
    /// A worker's connection died mid-session: the stream closed or
    /// truncated between frames. Distinct from [`BackendError::Remote`]
    /// (the worker is alive and reported a job-level error) because the
    /// remote backend treats a dead connection as *retryable* — the
    /// worker's unacknowledged trials are re-dispatched to survivors —
    /// while a reported error is always fatal.
    Disconnected {
        /// The worker whose connection died (address, or `all` when no
        /// survivor remained to re-dispatch to).
        worker: String,
        /// What the transport reported.
        detail: String,
    },
    /// A frame larger than the transport's safety limit.
    Oversized {
        /// Length announced by the frame header.
        len: u64,
        /// The transport's limit.
        max: u64,
    },
    /// The peer violated the campaign protocol (wrong frame kind,
    /// missing events, events for unplanned targets, golden-run
    /// divergence between workers).
    Protocol(String),
    /// A worker reported a fatal error of its own.
    Remote(String),
    /// A frame failed keyed-hash authentication: missing or mismatched
    /// tag, a replayed sequence number, or an unauthenticated peer
    /// talking to a keyed endpoint. Always fatal for the session —
    /// authentication failures are never retried or silently ignored.
    Auth(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Wire(e) => write!(f, "wire codec: {e}"),
            BackendError::Io(e) => write!(f, "transport: {e}"),
            BackendError::Disconnected { worker, detail } => {
                write!(f, "worker {worker} disconnected: {detail}")
            }
            BackendError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            BackendError::Protocol(what) => write!(f, "protocol violation: {what}"),
            BackendError::Remote(what) => write!(f, "worker error: {what}"),
            BackendError::Auth(what) => write!(f, "frame authentication failed: {what}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<WireError> for BackendError {
    fn from(e: WireError) -> BackendError {
        BackendError::Wire(e)
    }
}

impl From<std::io::Error> for BackendError {
    fn from(e: std::io::Error) -> BackendError {
        BackendError::Io(e.to_string())
    }
}

/// Where a job's fault-free reference (golden run + checkpoint store)
/// comes from.
#[derive(Debug, Clone)]
pub enum GoldenSpec {
    /// The driver already executed the golden pass and hands the
    /// results over. Over the wire only the store's *content hash*
    /// travels with the setup — a worker that already caches the store
    /// replies `HAVE` and the bytes are never re-shipped.
    Shipped {
        /// Serialized fault-free checkpoints (`Arc` so a cache or a
        /// multi-worker fan-out never deep-copies the blobs).
        store: Arc<CheckpointStore>,
        /// Already-decoded snapshots of the same store, when the venue
        /// has them at hand (a worker's decoded-checkpoint cache): the
        /// local backend then skips the per-campaign `decode_all`.
        /// `None` means "decode from the bytes".
        decoded: Option<Arc<DecodedCheckpoints>>,
        /// The fault-free reference run the store was captured from.
        golden: GoldenRun,
        /// Cycle watchdog budget of every trial (hang ⇒ DUE).
        cycle_budget: u64,
    },
    /// The execution venue runs [`avf_sim::golden_run_checkpointed`]
    /// itself from the shipped program/machine. N remote workers warm
    /// up in parallel, the driver never simulates the prefix, and the
    /// driver cross-checks that every worker reports the identical
    /// golden digest.
    Delegated {
        /// Golden-run checkpoint spacing in cycles (must be positive).
        checkpoint_interval: u64,
    },
}

/// Everything an execution venue needs to run trials for one campaign:
/// program, machine, instruction budget, and the golden-run source.
/// The driver builds one per campaign; backends may clone it to any
/// number of workers.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Machine configuration the plan was sampled against.
    pub machine: MachineConfig,
    /// Program under injection.
    pub program: Program,
    /// Committed-instruction budget of every trial (and of a delegated
    /// golden run).
    pub instr_budget: u64,
    /// How queueing-structure control/tag flips are resolved (the
    /// golden run is fault-free, so the model changes trial
    /// classification only — never the store or the reference digest).
    pub fault_model: FaultModel,
    /// Where the fault-free reference comes from.
    pub golden: GoldenSpec,
    /// Whether the campaign samples under a prune map. In delegated
    /// golden mode this asks the venue to capture ACE evidence during
    /// its golden pass and return the classifier's [`PruneMap`] in the
    /// opened job; in shipped mode the driver built the map alongside
    /// the store it ships, so the venue has nothing to add.
    pub prune: bool,
}

/// The hang watchdog every trial runs under, derived from the golden
/// run's length: a faulty run materially slower than the reference
/// counts as a detected (timeout) error. One shared formula so the
/// driver, the local backend, and every remote worker agree bit-for-bit
/// on trial classification.
#[must_use]
pub fn cycle_budget_of(golden_cycles: u64) -> u64 {
    golden_cycles.saturating_mul(4).saturating_add(50_000)
}

/// The fault-free golden pass of a job, checkpointed every
/// `checkpoint_interval` cycles. A pruning job (`with_evidence`) runs
/// it instrumented, capturing the ACE evidence the site classifier
/// consumes; the golden run and store are bit-identical either way.
/// Every venue that runs a golden pass — the driver, the local
/// backend, a `serve` worker — picks the pass here.
///
/// # Panics
///
/// Panics if `checkpoint_interval` is zero or the fault-free run does
/// not complete cleanly.
#[must_use]
pub fn golden_pass(
    machine: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    checkpoint_interval: u64,
    with_evidence: bool,
) -> (GoldenRun, CheckpointStore, Option<PruneEvidence>) {
    if with_evidence {
        let (golden, store, evidence) = golden_run_with_evidence(
            machine,
            program,
            instr_budget,
            checkpoint_interval,
            PRUNE_WINDOW,
        );
        (golden, store, Some(evidence))
    } else {
        let (golden, store) =
            golden_run_checkpointed(machine, program, instr_budget, checkpoint_interval);
        (golden, store, None)
    }
}

/// How one worker obtained the job's checkpoint store at `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSource {
    /// The worker already held the store (content-hash cache hit).
    Cached,
    /// The store was shipped to the worker over the session.
    Shipped,
    /// The worker executed the golden run itself.
    GoldenRun,
}

impl StoreSource {
    /// Every source, in wire-code order (the campaign-report codec).
    pub const ALL: [StoreSource; 3] = [
        StoreSource::Cached,
        StoreSource::Shipped,
        StoreSource::GoldenRun,
    ];
}

impl fmt::Display for StoreSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StoreSource::Cached => "cached",
            StoreSource::Shipped => "shipped",
            StoreSource::GoldenRun => "golden-run",
        })
    }
}

/// Per-worker record of how `open` provisioned the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProvision {
    /// Worker identity (remote address, or `local`).
    pub worker: String,
    /// How the worker obtained the store.
    pub source: StoreSource,
}

/// One dispatch of trials to one worker, recorded by the session so the
/// campaign report carries the full per-worker dispatch/re-dispatch
/// trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Driver batch index (0-based submit counter of the session).
    pub batch: u64,
    /// Worker the shard went to (remote address, or `local#k`).
    pub worker: String,
    /// Trials in the shard.
    pub trials: u64,
    /// Whether this dispatch re-queued trials a dead worker never
    /// acknowledged (`false` for the batch's initial fan-out).
    pub redispatched: bool,
}

/// A bound job: the batch session plus everything the venue resolved
/// while setting it up.
pub struct OpenedJob {
    /// The session trial batches are submitted through.
    pub session: Box<dyn CampaignSession>,
    /// The fault-free reference — measured by the venue in delegated
    /// mode, echoed back in shipped mode.
    pub golden: GoldenRun,
    /// Checkpoints in the job's store.
    pub checkpoints: usize,
    /// How each worker obtained the store.
    pub provisioning: Vec<WorkerProvision>,
    /// The prune map the venue built during a delegated golden pass
    /// (`None` when the job did not request pruning, or when the driver
    /// shipped the reference and therefore already holds the map). When
    /// multiple workers build it independently, the backend must
    /// cross-check they agree bit-for-bit before returning one.
    pub prune: Option<Arc<PruneMap>>,
}

/// One classified trial outcome, streamed back from wherever the trial
/// executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEvent {
    /// Global trial index (from the plan).
    pub index: u64,
    /// Structure the trial injected into.
    pub target: InjectionTarget,
    /// Classified outcome.
    pub outcome: Outcome,
}

impl TrialEvent {
    /// Serializes the event to a self-contained enveloped blob.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::TRIAL_EVENT, |w| {
            w.u64(self.index);
            w.code(&InjectionTarget::ALL, self.target);
            w.code(&Outcome::ALL, self.outcome);
        })
    }

    /// Decodes the body of a [`kind::TRIAL_EVENT`] frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or unknown codes.
    pub fn decode(r: &mut WireReader<'_>) -> Result<TrialEvent, WireError> {
        Ok(TrialEvent {
            index: r.u64()?,
            target: r.code(&InjectionTarget::ALL)?,
            outcome: r.code(&Outcome::ALL)?,
        })
    }
}

/// Serializes one batch of trials to an enveloped blob
/// ([`kind::TRIAL_BATCH`]).
#[must_use]
pub fn encode_trial_batch(trials: &[Trial]) -> Vec<u8> {
    WireWriter::frame(kind::TRIAL_BATCH, |w| w.seq(trials, |w, t| t.encode(w)))
}

/// Decodes the body of a [`kind::TRIAL_BATCH`] frame written by
/// [`encode_trial_batch`].
///
/// # Errors
///
/// Returns a [`WireError`] on truncation or unknown target codes.
pub fn decode_trial_batch(r: &mut WireReader<'_>) -> Result<Vec<Trial>, WireError> {
    r.seq(Trial::WIRE_BYTES, Trial::decode)
}

/// An execution venue for campaign trials.
///
/// Implementations bind a [`JobSpec`] once (paying setup — golden run
/// or checkpoint decode, connections — a single time) and then execute
/// any number of trial batches against it.
pub trait CampaignBackend {
    /// Degree of parallelism this backend reports (recorded in the
    /// campaign report; never affects results).
    fn workers(&self) -> usize;

    /// Binds a job to this venue, returning the opened session plus the
    /// golden run the venue resolved.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the venue cannot accept the job
    /// (bad checkpoints, unreachable workers, golden-run divergence
    /// between workers).
    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError>;
}

/// One campaign's execution state on a backend.
pub trait CampaignSession {
    /// Executes one batch of trials, streaming classified outcomes back
    /// as they complete. The stream must be drained before the next
    /// `submit` (the `&mut` receiver enforces it).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the batch cannot be dispatched.
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError>;

    /// Every dispatch the session performed so far, in dispatch order —
    /// including re-dispatches of trials a dead worker never
    /// acknowledged. Default: no record kept.
    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        Vec::new()
    }
}

/// Streaming iterator of per-trial outcomes for one submitted batch.
///
/// Yields events in completion order (which is execution-venue
/// dependent and irrelevant to the result: outcome counts commute).
/// The stream ends when every worker has reported; worker threads are
/// joined on exhaustion or drop.
pub struct TrialStream {
    rx: mpsc::Receiver<Result<TrialEvent, BackendError>>,
    handles: Vec<JoinHandle<()>>,
}

impl TrialStream {
    /// Wraps a channel of events plus the worker threads feeding it.
    #[must_use]
    pub fn new(
        rx: mpsc::Receiver<Result<TrialEvent, BackendError>>,
        handles: Vec<JoinHandle<()>>,
    ) -> TrialStream {
        TrialStream { rx, handles }
    }

    fn join_workers(&mut self) {
        for h in self.handles.drain(..) {
            // A panicking worker dropped its sender, which already
            // terminated the stream; surface the panic to the caller.
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Iterator for TrialStream {
    type Item = Result<TrialEvent, BackendError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.rx.recv() {
            Ok(item) => Some(item),
            Err(_) => {
                self.join_workers();
                None
            }
        }
    }
}

impl Drop for TrialStream {
    fn drop(&mut self) {
        // Stop buffering for senders, then wait the workers out so an
        // abandoned stream cannot leak threads into the next batch.
        drop(std::mem::replace(&mut self.rx, mpsc::channel().1));
        self.join_workers();
    }
}

/// Splits `trials` into `workers` cycle-sorted strided shards.
///
/// Each shard ascends in injection cycle, so one forward simulation
/// pass (checkpoint restore at the head, snapshot/flip/rewind at each
/// point) covers it; striding balances the per-trial tail-replay cost
/// across workers. Shards partition the input: every trial appears in
/// exactly one.
#[must_use]
pub fn shard_trials(trials: &[Trial], workers: usize) -> Vec<Vec<Trial>> {
    let mut by_cycle: Vec<usize> = (0..trials.len()).collect();
    by_cycle.sort_by_key(|&i| (trials[i].cycle, trials[i].index));
    let workers = workers.max(1);
    let mut shards = vec![Vec::with_capacity(trials.len() / workers + 1); workers];
    for (pos, &i) in by_cycle.iter().enumerate() {
        shards[pos % workers].push(trials[i]);
    }
    shards
}

/// Classifies a single trial on `sim`, which must be positioned at or
/// before the trial's injection cycle (and on the fault-free path).
/// Returns with `sim` rewound to the injection point, ready for the
/// next (equal-or-later-cycle) trial.
///
/// A trial whose injection cycle the fault-free prefix never reaches is
/// classified [`Outcome::Unreached`] — an explicit invalid-sample
/// verdict rather than the old `debug_assert!`, which in release builds
/// silently injected at whatever earlier cycle the run ended on.
pub fn classify_trial(sim: &mut InjectionSim<'_>, trial: &Trial, golden_digest: u64) -> Outcome {
    if !sim.run_to_cycle(trial.cycle) {
        return Outcome::Unreached;
    }
    // Dry-probe first: provably masked flips touch no machine state, so
    // they need neither the snapshot nor the rewind — on masked-heavy
    // programs that halves the deep-clone cost.
    match sim.probe_bit(trial.target, trial.entry, trial.bit) {
        FlipEffect::Masked(_) => Outcome::Masked,
        // An architecturally impossible decode mutates nothing either:
        // the verdict is immediate.
        FlipEffect::Diverged => Outcome::ReplayDiverged,
        FlipEffect::Armed => {
            let snap = sim.snapshot();
            let armed = sim.flip_bit(trial.target, trial.entry, trial.bit);
            debug_assert_eq!(armed, FlipEffect::Armed, "probe and flip must agree");
            let outcome = match sim.run_to_end() {
                RunEnd::Trapped | RunEnd::Timeout => Outcome::Due,
                RunEnd::Completed => {
                    if sim.memory_digest() == golden_digest {
                        Outcome::Masked
                    } else {
                        Outcome::Sdc
                    }
                }
            };
            sim.restore(&snap);
            outcome
        }
    }
}

/// The decoded, shareable execution state of one local campaign.
struct LocalJob {
    machine: MachineConfig,
    program: Program,
    checkpoints: Arc<DecodedCheckpoints>,
    instr_budget: u64,
    cycle_budget: u64,
    fault_model: FaultModel,
    golden_digest: u64,
}

impl LocalJob {
    /// Executes one cycle-sorted shard on a single forward pass,
    /// emitting an event per trial.
    fn run_shard(&self, shard: &[Trial], tx: &mpsc::Sender<Result<TrialEvent, BackendError>>) {
        let mut sim: Option<InjectionSim<'_>> = None;
        for trial in shard {
            // Lazy init: restore the nearest checkpoint below the
            // shard's first (lowest) injection cycle instead of
            // simulating the prefix from cycle 0.
            let sim = sim.get_or_insert_with(|| {
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
            let outcome = classify_trial(sim, trial, self.golden_digest);
            let event = TrialEvent {
                index: trial.index,
                target: trial.target,
                outcome,
            };
            if tx.send(Ok(event)).is_err() {
                return; // the stream was dropped; no one is listening
            }
        }
    }
}

/// The in-process thread-pool backend: the execution engine
/// [`Campaign::run`](crate::Campaign::run) always had, refit behind the
/// backend API.
pub struct LocalBackend {
    workers: usize,
}

impl LocalBackend {
    /// A local backend with `threads` workers (0 = all available
    /// cores).
    #[must_use]
    pub fn new(threads: usize) -> LocalBackend {
        let workers = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        LocalBackend { workers }
    }
}

impl CampaignBackend for LocalBackend {
    fn workers(&self) -> usize {
        self.workers
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let mut prune = None;
        let (store, decoded, golden, cycle_budget, source) = match spec.golden {
            GoldenSpec::Shipped {
                store,
                decoded,
                golden,
                cycle_budget,
            } => (store, decoded, golden, cycle_budget, StoreSource::Shipped),
            GoldenSpec::Delegated {
                checkpoint_interval,
            } => {
                if checkpoint_interval == 0 {
                    return Err(BackendError::Protocol(
                        "delegated golden run needs a positive checkpoint interval".to_owned(),
                    ));
                }
                let (golden, store, evidence) = golden_pass(
                    &spec.machine,
                    &spec.program,
                    spec.instr_budget,
                    checkpoint_interval,
                    spec.prune,
                );
                prune = evidence.map(|evidence| {
                    Arc::new(PruneMap::build(
                        &spec.machine,
                        &spec.program,
                        spec.fault_model,
                        &evidence,
                    ))
                });
                (
                    Arc::new(store),
                    None,
                    golden,
                    cycle_budget_of(golden.cycles),
                    StoreSource::GoldenRun,
                )
            }
        };
        let checkpoints_total = store.len();
        // Decode each checkpoint once per campaign (workers restore by
        // deep clone instead of re-parsing blobs per batch) — unless the
        // venue already holds the decoded snapshots (a cache hit in a
        // long-lived worker), in which case even that single decode is
        // skipped.
        let checkpoints = match decoded {
            Some(decoded) => decoded,
            None => Arc::new(store.decode_all(&spec.machine, &spec.program)?),
        };
        Ok(OpenedJob {
            session: Box::new(LocalSession {
                job: Arc::new(LocalJob {
                    machine: spec.machine,
                    program: spec.program,
                    checkpoints,
                    instr_budget: spec.instr_budget,
                    cycle_budget,
                    fault_model: spec.fault_model,
                    golden_digest: golden.digest,
                }),
                workers: self.workers,
                log: Vec::new(),
                batch: 0,
            }),
            golden,
            checkpoints: checkpoints_total,
            provisioning: vec![WorkerProvision {
                worker: "local".to_owned(),
                source,
            }],
            prune,
        })
    }
}

struct LocalSession {
    job: Arc<LocalJob>,
    workers: usize,
    log: Vec<DispatchRecord>,
    batch: u64,
}

impl CampaignSession for LocalSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let batch = self.batch;
        self.batch += 1;
        let (tx, rx) = mpsc::channel();
        let handles = shard_trials(trials, self.workers)
            .into_iter()
            .enumerate()
            .filter(|(_, shard)| !shard.is_empty())
            .map(|(k, shard)| {
                self.log.push(DispatchRecord {
                    batch,
                    worker: format!("local#{k}"),
                    trials: shard.len() as u64,
                    redispatched: false,
                });
                let job = Arc::clone(&self.job);
                let tx = tx.clone();
                std::thread::spawn(move || job.run_shard(&shard, &tx))
            })
            .collect();
        // Drop the prototype sender so the stream terminates when the
        // last worker finishes.
        drop(tx);
        Ok(TrialStream::new(rx, handles))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(index: u64, cycle: u64) -> Trial {
        Trial {
            index,
            target: InjectionTarget::ALL[(index % 8) as usize],
            cycle,
            entry: index * 3,
            bit: (index % 60) as u32,
        }
    }

    #[test]
    fn trial_batch_round_trips() {
        let trials: Vec<Trial> = (0..17).map(|i| trial(i, 1000 - i * 7)).collect();
        let bytes = encode_trial_batch(&trials);
        fn decode(bytes: &[u8]) -> Result<Vec<Trial>, WireError> {
            WireReader::frame(bytes, kind::TRIAL_BATCH, decode_trial_batch)
        }
        assert_eq!(decode(&bytes).unwrap(), trials);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(matches!(decode(&[0u8; 32]), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn trial_event_round_trips() {
        for (i, outcome) in Outcome::ALL.into_iter().enumerate() {
            let ev = TrialEvent {
                index: i as u64 * 1000,
                target: InjectionTarget::ALL[(i * 2) % InjectionTarget::ALL.len()],
                outcome,
            };
            let bytes = ev.to_wire();
            assert_eq!(
                WireReader::frame(&bytes, kind::TRIAL_EVENT, TrialEvent::decode),
                Ok(ev)
            );
        }
    }

    #[test]
    fn shards_partition_and_sort_by_cycle() {
        let trials: Vec<Trial> = (0..101).map(|i| trial(i, (i * 37) % 500)).collect();
        let shards = shard_trials(&trials, 4);
        assert_eq!(shards.len(), 4);
        let mut seen: Vec<u64> = shards.iter().flatten().map(|t| t.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..101).collect::<Vec<_>>());
        for shard in &shards {
            assert!(shard.windows(2).all(|p| p[0].cycle <= p[1].cycle));
        }
        // Zero workers degrades to one shard rather than panicking.
        assert_eq!(shard_trials(&trials, 0).len(), 1);
    }
}
