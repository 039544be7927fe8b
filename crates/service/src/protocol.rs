//! Campaign service message schema on top of [`crate::frame`].
//!
//! One connection carries one campaign session:
//!
//! ```text
//! client → server   JOB_SETUP    (machine, program, budget, golden mode + store hash)
//! server → client   STORE_HAVE | STORE_NEED   (checkpoint-store cache handshake)
//! client → server   STORE_DATA   (full store — only after NEED in shipped mode)
//! server → client   JOB_READY    (store hash + golden run + checkpoint count)
//! client → server   TRIAL_BATCH  (one adaptive batch of planned trials)
//! server → client   TRIAL_EVENT* (one per trial, streamed as classified)
//! server → client   BATCH_DONE   (event count for the batch, a sanity check)
//! client → server   TRIAL_BATCH  ... (repeat until the driver converges)
//! client closes the connection   (clean end of session)
//! server → client   SERVICE_ERROR (any time: fatal, connection closes)
//! ```
//!
//! The `JOB_SETUP` frame never carries checkpoint bytes: it names the
//! store by content hash (shipped mode) or by the delegated-job key
//! (worker-side golden run), and the worker answers `HAVE` from its
//! bounded LRU ([`crate::cache::StoreCache`]) or `NEED`. Only a `NEED`
//! in shipped mode moves store bytes; a `NEED` in delegated mode means
//! the worker is executing the golden pass itself. Either way the
//! worker closes setup with `JOB_READY`, and a driver fanning one job
//! across N workers cross-checks that every `JOB_READY` is identical —
//! golden-run divergence between workers is a hard protocol error.
//!
//! Each direction decodes through one message enum, for both session
//! kinds: [`ClientMessage`] is everything a worker receives (setup,
//! store, trial batch, and the [`crate::eval`] plane's `EVAL_BATCH`),
//! [`ServerMessage`] everything a driver receives (handshake, events,
//! `EVAL_RESULT` scores, `BATCH_DONE`, errors). A receiver decodes each
//! frame once and matches the variant; it never peeks at kind bytes.
//!
//! Every payload is an [`avf_isa::wire`] frame, so a stale worker build
//! or a foreign peer fails with a typed magic/version error instead of
//! a confusing mid-payload decode failure.

use std::sync::Arc;

use avf_inject::{decode_trial_batch, BackendError, Trial, TrialEvent};
use avf_isa::wire::{content_hash64, kind, WireError, WireReader, WireWriter, ENVELOPE_BYTES};
use avf_isa::Program;
use avf_prune::PruneMap;
use avf_sim::{CheckpointStore, FaultModel, GoldenRun, MachineConfig};

use crate::eval::{EvalBatch, EvalScore};

/// Hash domain of checkpoint-store content (shipped mode).
pub const HASH_DOMAIN_STORE: u8 = 0;

/// Hash domain of delegated-job parameters (worker-side golden runs).
pub const HASH_DOMAIN_DELEGATED_JOB: u8 = 1;

/// Hash domain of a job's machine/program geometry fingerprint (guards
/// the decoded-checkpoint cache against serving snapshots decoded for a
/// different configuration).
pub const HASH_DOMAIN_GEOMETRY: u8 = 2;

/// Hash domain of fitness-evaluation content (wire v7): the evaluation
/// context fingerprint and the genome routing/logging key — the two
/// halves of a worker's [`crate::EvalCache`] key.
pub const HASH_DOMAIN_EVAL: u8 = 3;

/// Fingerprint of the machine/program pair a cached decoded store is
/// only valid for.
#[must_use]
pub fn geometry_fingerprint(machine: &MachineConfig, program: &Program) -> u64 {
    let mut w = WireWriter::new();
    machine.encode(&mut w);
    program.encode(&mut w);
    content_hash64(HASH_DOMAIN_GEOMETRY, &w.into_bytes())
}

/// Golden-run mode of a [`JobSetup`], mirroring
/// [`avf_inject::GoldenSpec`] without the store bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupMode {
    /// The driver holds the store; the worker caches it by content
    /// hash and asks for the bytes only on a miss.
    Shipped {
        /// Content hash of the store's `STORE_DATA` payload.
        store_hash: u64,
        /// The driver's golden run (echoed back in `JOB_READY` so the
        /// cross-check is uniform across modes).
        golden: GoldenRun,
        /// Cycle watchdog budget of every trial.
        cycle_budget: u64,
    },
    /// The worker executes `golden_run_checkpointed` itself.
    Delegated {
        /// Golden-run checkpoint spacing in cycles.
        checkpoint_interval: u64,
    },
}

/// The session-opening frame: everything a worker needs to set a
/// campaign up, minus any checkpoint bytes.
#[derive(Debug, Clone)]
pub struct JobSetup {
    /// Machine configuration the plan was sampled against.
    pub machine: MachineConfig,
    /// Program under injection.
    pub program: Program,
    /// Committed-instruction budget of every trial (and of a delegated
    /// golden run).
    pub instr_budget: u64,
    /// How the worker resolves queueing-structure control/tag flips.
    /// Deliberately *not* part of the store cache key: the golden pass
    /// is fault-free, so trap and replay campaigns over the same
    /// (machine, program, budget, interval) share one checkpoint store.
    pub fault_model: FaultModel,
    /// Whether the campaign samples under pre-campaign site pruning
    /// (wire v5). In delegated mode a pruning worker captures ACE
    /// evidence during its golden pass and ships the classifier's
    /// [`PruneMap`] back in `JOB_READY`; in shipped mode the driver
    /// already holds the map, so the flag changes nothing worker-side.
    /// Not part of the cache key either: the checkpoint stream is
    /// bit-identical with and without evidence capture.
    pub prune: bool,
    /// Golden-run mode.
    pub mode: SetupMode,
}

impl JobSetup {
    /// The cache key this setup resolves to: the store's content hash
    /// in shipped mode, the delegated-job key otherwise.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        match self.mode {
            SetupMode::Shipped { store_hash, .. } => store_hash,
            SetupMode::Delegated {
                checkpoint_interval,
            } => delegated_job_key(
                &self.machine,
                &self.program,
                self.instr_budget,
                checkpoint_interval,
            ),
        }
    }

    /// Serializes the setup to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::JOB_SETUP, |w| {
            self.machine.encode(w);
            self.program.encode(w);
            w.u64(self.instr_budget);
            w.code(&FaultModel::ALL, self.fault_model);
            w.bool(self.prune);
            match &self.mode {
                SetupMode::Shipped {
                    store_hash,
                    golden,
                    cycle_budget,
                } => {
                    w.u8(0);
                    w.u64(*store_hash);
                    golden.encode(w);
                    w.u64(*cycle_budget);
                }
                SetupMode::Delegated {
                    checkpoint_interval,
                } => {
                    w.u8(1);
                    w.u64(*checkpoint_interval);
                }
            }
        })
    }

    fn decode(r: &mut WireReader<'_>) -> Result<JobSetup, WireError> {
        Ok(JobSetup {
            machine: MachineConfig::decode(r)?,
            program: Program::decode(r)?,
            instr_budget: r.u64()?,
            fault_model: r.code(&FaultModel::ALL)?,
            prune: r.bool()?,
            mode: match r.u8()? {
                0 => SetupMode::Shipped {
                    store_hash: r.u64()?,
                    golden: GoldenRun::decode(r)?,
                    cycle_budget: r.u64()?,
                },
                1 => {
                    let checkpoint_interval = r.u64()?;
                    if checkpoint_interval == 0 {
                        return Err(WireError::Invalid("checkpoint interval must be positive"));
                    }
                    SetupMode::Delegated {
                        checkpoint_interval,
                    }
                }
                t => return Err(WireError::BadTag(t)),
            },
        })
    }
}

/// The worker's end-of-setup report: which store it is running on and
/// the golden run it resolved (its own measurement in delegated mode,
/// the driver's echo in shipped mode).
///
/// `Eq` is load-bearing: a driver fanning one job over N workers
/// compares their `JobReady`s bit-for-bit, so when workers build prune
/// maps independently the cross-check covers the maps too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReady {
    /// Cache key the worker stored/found the job under.
    pub store_hash: u64,
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// Checkpoints in the store.
    pub checkpoints: u64,
    /// The prune map the worker built during a delegated golden pass
    /// with pruning requested (wire v5); `None` otherwise. Masses are
    /// recomputed at decode, never trusted from the wire.
    pub prune: Option<PruneMap>,
}

impl JobReady {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.store_hash);
        self.golden.encode(w);
        w.u64(self.checkpoints);
        w.opt(self.prune.as_ref(), |w, map| map.encode(w));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<JobReady, WireError> {
        Ok(JobReady {
            store_hash: r.u64()?,
            golden: GoldenRun::decode(r)?,
            checkpoints: r.u64()?,
            prune: r.opt(PruneMap::decode)?,
        })
    }
}

/// One client-to-server message: everything a worker can receive.
#[derive(Debug, Clone)]
pub enum ClientMessage {
    /// Open a campaign session (boxed: a setup dwarfs the other
    /// variants and would bloat every message otherwise).
    Setup(Box<JobSetup>),
    /// One batch of planned trials.
    Batch(Vec<Trial>),
    /// The checkpoint store, shipped after a `STORE_NEED` reply.
    Store {
        /// Decoded store.
        store: Arc<CheckpointStore>,
        /// Content hash of the payload as it crossed the wire — the
        /// receiver verifies it against the hash announced in setup.
        hash: u64,
    },
    /// One generation of genomes to score (wire v7): opens an
    /// evaluation session, or continues one.
    Eval(Box<EvalBatch>),
}

impl ClientMessage {
    /// Decodes a frame payload written by one of the client-side
    /// encoders ([`JobSetup::to_wire`], [`encode_store_data`],
    /// [`avf_inject::encode_trial_batch`], [`EvalBatch::to_wire`]).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// unexpected frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<ClientMessage, WireError> {
        WireReader::frame_any(bytes, kind::JOB_SETUP, |found, r| {
            Ok(Some(match found {
                kind::JOB_SETUP => ClientMessage::Setup(Box::new(JobSetup::decode(r)?)),
                kind::TRIAL_BATCH => ClientMessage::Batch(decode_trial_batch(r)?),
                kind::STORE_DATA => ClientMessage::Store {
                    store: Arc::new(CheckpointStore::decode(r)?),
                    hash: store_frame_hash(bytes),
                },
                kind::EVAL_BATCH => ClientMessage::Eval(Box::new(EvalBatch::decode(r)?)),
                _ => return Ok(None),
            }))
        })
    }
}

/// One server-to-client message: everything a driver can receive from
/// a worker, in a campaign session or an evaluation session.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Worker already caches the job's store under this key.
    StoreHave {
        /// The cache key (echoed for cross-checking).
        hash: u64,
    },
    /// Worker needs the store (shipped mode: send `STORE_DATA`;
    /// delegated mode: the worker is running the golden pass itself).
    StoreNeed {
        /// The cache key (echoed for cross-checking).
        hash: u64,
    },
    /// Job setup is complete; trial batches may flow.
    Ready(JobReady),
    /// A classified trial outcome.
    Event(TrialEvent),
    /// One individual's fitness score (wire v7).
    Score(EvalScore),
    /// The current batch is complete; `events` outcomes (or scores)
    /// were streamed.
    Done {
        /// Number of events the server sent for the batch.
        events: u64,
    },
    /// The server hit a fatal error; the connection is closing.
    Error(String),
}

impl ServerMessage {
    /// Serializes the message to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            ServerMessage::Event(ev) => ev.to_wire(),
            ServerMessage::Score(score) => score.to_wire(),
            ServerMessage::StoreHave { hash } => {
                WireWriter::frame(kind::STORE_HAVE, |w| w.u64(*hash))
            }
            ServerMessage::StoreNeed { hash } => {
                WireWriter::frame(kind::STORE_NEED, |w| w.u64(*hash))
            }
            ServerMessage::Ready(ready) => WireWriter::frame(kind::JOB_READY, |w| ready.encode(w)),
            ServerMessage::Done { events } => {
                WireWriter::frame(kind::BATCH_DONE, |w| w.u64(*events))
            }
            ServerMessage::Error(msg) => WireWriter::frame(kind::SERVICE_ERROR, |w| w.str(msg)),
        }
    }

    /// Decodes a frame payload written by [`ServerMessage::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// unexpected frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<ServerMessage, WireError> {
        WireReader::frame_any(bytes, kind::TRIAL_EVENT, |found, r| {
            Ok(Some(match found {
                kind::TRIAL_EVENT => ServerMessage::Event(TrialEvent::decode(r)?),
                kind::EVAL_RESULT => ServerMessage::Score(EvalScore::decode(r)?),
                kind::STORE_HAVE => ServerMessage::StoreHave { hash: r.u64()? },
                kind::STORE_NEED => ServerMessage::StoreNeed { hash: r.u64()? },
                kind::JOB_READY => ServerMessage::Ready(JobReady::decode(r)?),
                kind::BATCH_DONE => ServerMessage::Done { events: r.u64()? },
                kind::SERVICE_ERROR => ServerMessage::Error(r.str()?),
                _ => return Ok(None),
            }))
        })
    }
}

/// Serializes a checkpoint store to a `STORE_DATA` frame payload.
#[must_use]
pub fn encode_store_data(store: &CheckpointStore) -> Vec<u8> {
    WireWriter::frame(kind::STORE_DATA, |w| store.encode(w))
}

/// Content hash of a `STORE_DATA` frame payload — over exactly the
/// bytes after the envelope, so both ends hash the same span without a
/// second serialization pass.
#[must_use]
pub fn store_frame_hash(frame: &[u8]) -> u64 {
    content_hash64(HASH_DOMAIN_STORE, &frame[ENVELOPE_BYTES.min(frame.len())..])
}

/// The cache key of a delegated (worker-side golden run) job: a content
/// hash over the job's defining parameters. Two jobs with the same key
/// provably produce the same store and golden run — the golden pass is
/// a deterministic function of exactly these inputs.
#[must_use]
pub fn delegated_job_key(
    machine: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    checkpoint_interval: u64,
) -> u64 {
    let mut w = WireWriter::new();
    machine.encode(&mut w);
    program.encode(&mut w);
    w.u64(instr_budget);
    w.u64(checkpoint_interval);
    content_hash64(HASH_DOMAIN_DELEGATED_JOB, &w.into_bytes())
}

/// Maps a server-reported [`ServerMessage::Error`] into the backend
/// error the driver surfaces.
#[must_use]
pub fn remote_error(msg: String) -> BackendError {
    BackendError::Remote(msg)
}

/// A campaign-tagged frame: one inner protocol frame multiplexed onto a
/// shared connection (wire v6).
///
/// A broker connection is persistent and carries many campaigns — the
/// tag scopes every inner frame to one of them, so two tenants' (or one
/// tenant's two concurrent campaigns') setup/batch/event frames can
/// interleave on one socket without ambiguity. The tag is
/// connection-local: the side opening a campaign picks it, and both
/// sides echo it on every frame belonging to that campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mux {
    /// Connection-local campaign tag.
    pub tag: u64,
    /// The complete inner frame payload (itself enveloped).
    pub inner: Vec<u8>,
}

impl Mux {
    /// Wraps an inner frame payload under `tag`.
    #[must_use]
    pub fn wrap(tag: u64, inner: Vec<u8>) -> Mux {
        Mux { tag, inner }
    }

    /// Serializes the multiplexed frame to an enveloped payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::MUX, |w| {
            w.u64(self.tag);
            w.u32(u32::try_from(self.inner.len()).expect("inner frame exceeds u32 length"));
            w.bytes(&self.inner);
        })
    }

    /// Decodes the body of a `MUX` frame written by [`Mux::to_wire`].
    /// Both broker directions carry `MUX` frames, so their message
    /// enums decode it through this.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Mux, WireError> {
        let tag = r.u64()?;
        let len = r.u32()? as usize;
        Ok(Mux {
            tag,
            inner: r.bytes(len)?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_inject::Outcome;
    use avf_sim::InjectionTarget;

    fn golden() -> GoldenRun {
        GoldenRun {
            cycles: 12_345,
            committed: 9_876,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = [
            ServerMessage::Event(TrialEvent {
                index: 42,
                target: InjectionTarget::Iq,
                outcome: Outcome::Sdc,
            }),
            ServerMessage::StoreHave { hash: 7 },
            ServerMessage::StoreNeed { hash: u64::MAX },
            ServerMessage::Ready(JobReady {
                store_hash: 99,
                golden: golden(),
                checkpoints: 12,
                prune: None,
            }),
            ServerMessage::Score(EvalScore {
                index: 3,
                score: 0.5,
                cached: false,
            }),
            ServerMessage::Done { events: 128 },
            ServerMessage::Error("checkpoint store rejected".to_owned()),
        ];
        for msg in msgs {
            assert_eq!(ServerMessage::from_wire(&msg.to_wire()).unwrap(), msg);
        }
    }

    #[test]
    fn job_ready_carries_the_prune_map_bit_identically() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (run, _, evidence) =
            avf_sim::golden_run_with_evidence(&machine, &program, 600, 128, avf_sim::PRUNE_WINDOW);
        let map = PruneMap::build(&machine, &program, FaultModel::Replay, &evidence);
        let msg = ServerMessage::Ready(JobReady {
            store_hash: 0xC0FFEE,
            golden: run,
            checkpoints: 3,
            prune: Some(map),
        });
        let back = ServerMessage::from_wire(&msg.to_wire()).unwrap();
        assert_eq!(back, msg, "map equality over the wire is exact");
    }

    #[test]
    fn job_setup_round_trips_in_both_modes() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        for mode in [
            SetupMode::Shipped {
                store_hash: 0xABCD,
                golden: golden(),
                cycle_budget: 77_777,
            },
            SetupMode::Delegated {
                checkpoint_interval: 512,
            },
        ] {
            for prune in [false, true] {
                let setup = JobSetup {
                    machine: machine.clone(),
                    program: program.clone(),
                    instr_budget: 4_000,
                    fault_model: FaultModel::Trap,
                    prune,
                    mode,
                };
                let bytes = setup.to_wire();
                match ClientMessage::from_wire(&bytes).unwrap() {
                    ClientMessage::Setup(back) => {
                        assert_eq!(back.instr_budget, setup.instr_budget);
                        assert_eq!(back.fault_model, setup.fault_model);
                        assert_eq!(back.prune, setup.prune);
                        assert_eq!(back.mode, setup.mode);
                        assert_eq!(back.cache_key(), setup.cache_key());
                    }
                    other => panic!("expected a setup, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn delegated_zero_interval_is_rejected_at_decode() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let bytes = WireWriter::frame(kind::JOB_SETUP, |w| {
            machine.encode(w);
            program.encode(w);
            w.u64(1_000);
            w.code(&FaultModel::ALL, FaultModel::Replay);
            w.bool(false); // prune off
            w.u8(1);
            w.u64(0); // zero interval: the golden pass would never checkpoint
        });
        assert_eq!(
            ClientMessage::from_wire(&bytes).map(|_| ()),
            Err(WireError::Invalid("checkpoint interval must be positive"))
        );
    }

    #[test]
    fn store_data_hash_matches_on_both_ends() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (_, store) = avf_sim::golden_run_checkpointed(&machine, &program, 500, 64);
        let frame = encode_store_data(&store);
        let sender_side = store_frame_hash(&frame);
        match ClientMessage::from_wire(&frame).unwrap() {
            ClientMessage::Store { store: back, hash } => {
                assert_eq!(hash, sender_side, "receiver hashes the same span");
                assert_eq!(back.len(), store.len());
                assert_eq!(back.interval(), store.interval());
            }
            other => panic!("expected store data, got {other:?}"),
        }
    }

    #[test]
    fn delegated_job_key_tracks_every_parameter() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let base = delegated_job_key(&machine, &program, 1_000, 256);
        assert_eq!(base, delegated_job_key(&machine, &program, 1_000, 256));
        assert_ne!(base, delegated_job_key(&machine, &program, 1_001, 256));
        assert_ne!(base, delegated_job_key(&machine, &program, 1_000, 257));
        assert_ne!(
            base,
            delegated_job_key(&MachineConfig::config_a(), &program, 1_000, 256)
        );
    }

    #[test]
    fn foreign_and_stale_payloads_fail_typed() {
        assert!(matches!(
            ServerMessage::from_wire(&[0u8; 16]),
            Err(WireError::BadMagic(_))
        ));
        // A payload from a build speaking a different format version.
        let mut stale = Vec::from(avf_isa::wire::WIRE_MAGIC);
        stale.push(avf_isa::wire::WIRE_VERSION + 3);
        stale.push(kind::BATCH_DONE);
        stale.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            ServerMessage::from_wire(&stale),
            Err(WireError::UnsupportedVersion {
                found: avf_isa::wire::WIRE_VERSION + 3,
                expected: avf_isa::wire::WIRE_VERSION,
            })
        );
        // A pre-eval v6 build talking to this v7 build fails with the
        // typed version error at the envelope — long before the decoder
        // could misinterpret the eval frame kinds it does not know.
        let mut v6 = Vec::from(avf_isa::wire::WIRE_MAGIC);
        v6.push(6);
        v6.push(kind::JOB_READY);
        v6.extend_from_slice(&[0u8; 48]);
        assert_eq!(
            ServerMessage::from_wire(&v6),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: 7,
            })
        );
        // A client-side frame kind arriving where a server message belongs.
        let batch = avf_inject::encode_trial_batch(&[]);
        assert!(matches!(
            ServerMessage::from_wire(&batch),
            Err(WireError::WrongKind { .. })
        ));
        // And a server frame where a client message belongs.
        let done = ServerMessage::Done { events: 0 }.to_wire();
        assert!(matches!(
            ClientMessage::from_wire(&done),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn mux_frames_round_trip_and_reject_wrong_kinds() {
        let inner = ServerMessage::Done { events: 3 }.to_wire();
        let mux = Mux::wrap(0xFEED, inner.clone());
        fn decode(bytes: &[u8]) -> Result<Mux, WireError> {
            WireReader::frame(bytes, kind::MUX, Mux::decode)
        }
        let decoded = decode(&mux.to_wire()).unwrap();
        assert_eq!(decoded, mux);
        // The inner payload is a complete frame in its own right.
        assert_eq!(
            ServerMessage::from_wire(&decoded.inner).unwrap(),
            ServerMessage::Done { events: 3 }
        );
        // An unwrapped frame where a MUX frame belongs fails typed.
        assert!(matches!(decode(&inner), Err(WireError::WrongKind { .. })));
        // A truncated MUX frame fails typed, not by panicking.
        let whole = mux.to_wire();
        assert!(matches!(
            decode(&whole[..whole.len() - 2]),
            Err(WireError::Truncated)
        ));
    }
}
