//! Wire-format guard over every envelope kind.
//!
//! `pinned_frame_bytes` fixes the exact bytes (length plus content
//! hash) of one sample frame per kind, and `pinned_durable_log` fixes a
//! small campaign log written by the broker's store. The broker crate
//! sees every message type, so this one file covers the whole protocol.
//! Any change to a frame layout trips these pins: such a change must
//! bump `WIRE_VERSION` and re-pin.
//!
//! The rest is hostile input over the same samples: every truncation
//! prefix and random bit flips must decode to a value or a typed
//! `WireError` in every receiver, never a panic; and every variant of
//! every per-direction message enum must round-trip.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use avf_ace::{FaultRates, Fitness, FitnessScope};
use avf_broker::{
    CampaignPhase, CampaignSpec, CampaignStore, LogRecord, RejectReason, Reply, Request,
};
use avf_inject::{
    encode_trial_batch, BatchProgress, CampaignReport, DispatchRecord, Outcome, OutcomeCounts,
    PruneMode, StopReason, StoreSource, TargetReport, Trial, TrialEvent, WorkerProvision,
};
use avf_isa::wire::{content_hash64, WireError};
use avf_isa::Program;
use avf_prune::PruneMap;
use avf_service::protocol::{
    encode_store_data, store_frame_hash, ClientMessage, JobReady, JobSetup, Mux, ServerMessage,
    SetupMode,
};
use avf_service::{EvalBatch, EvalContext, EvalScore};
use avf_sim::{
    golden_run_checkpointed, golden_run_with_evidence, CheckpointStore, FaultModel, GoldenRun,
    InjectionTarget, MachineConfig, PipelineSnapshot, PRUNE_WINDOW,
};
use proptest::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::baseline()
}

fn program() -> Program {
    avf_workloads::testkit::register_chain()
}

/// The program every snapshot and store sample was taken on.
fn store_program() -> Program {
    avf_workloads::testkit::idle_loop()
}

fn store() -> CheckpointStore {
    golden_run_checkpointed(&machine(), &store_program(), 200, 256).1
}

fn golden() -> GoldenRun {
    GoldenRun {
        cycles: 12_345,
        committed: 9_876,
        digest: 0xDEAD_BEEF_CAFE_F00D,
    }
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        machine: machine(),
        program: avf_workloads::testkit::idle_loop(),
        injections: 400,
        seed: 11,
        instr_budget: 6_000,
        ci_target: Some(0.14),
        batch_size: 64,
        checkpoint_interval: 512,
        fault_model: FaultModel::Trap,
        prune: PruneMode::Audit,
    }
}

fn report() -> CampaignReport {
    CampaignReport {
        program: "register-chain".to_owned(),
        injections: 320,
        fault_model: FaultModel::Replay,
        seed: 42,
        workers: 2,
        golden: golden(),
        targets: vec![
            TargetReport {
                target: InjectionTarget::Rob,
                counts: OutcomeCounts {
                    masked: 100,
                    sdc: 7,
                    due: 3,
                    diverged: 1,
                    unreached: 0,
                },
                ace_avf: 0.25,
                residual: 1.0,
            },
            TargetReport {
                target: InjectionTarget::Dtlb,
                counts: OutcomeCounts {
                    masked: 200,
                    sdc: 0,
                    due: 9,
                    diverged: 0,
                    unreached: 2,
                },
                ace_avf: 0.031_25,
                residual: 0.5,
            },
        ],
        ci_target: Some(0.05),
        prune: PruneMode::On,
        audited: 16,
        stop: StopReason::CiTarget,
        batches: vec![
            BatchProgress {
                batch: 0,
                trials: 160,
                cumulative: 160,
                widest: InjectionTarget::Iq,
                max_half_width: 0.09,
            },
            BatchProgress {
                batch: 1,
                trials: 160,
                cumulative: 320,
                widest: InjectionTarget::L2,
                max_half_width: 0.048,
            },
        ],
        checkpoints: 3,
        provisioning: vec![
            WorkerProvision {
                worker: "127.0.0.1:7411".to_owned(),
                source: StoreSource::Cached,
            },
            WorkerProvision {
                worker: "127.0.0.1:7412".to_owned(),
                source: StoreSource::GoldenRun,
            },
        ],
        dispatches: vec![
            DispatchRecord {
                batch: 0,
                worker: "127.0.0.1:7411".to_owned(),
                trials: 160,
                redispatched: false,
            },
            DispatchRecord {
                batch: 1,
                worker: "127.0.0.1:7412".to_owned(),
                trials: 80,
                redispatched: true,
            },
        ],
        wall: Duration::from_nanos(123_456_789),
    }
}

fn setup(mode: SetupMode) -> JobSetup {
    JobSetup {
        machine: machine(),
        program: program(),
        instr_budget: 4_000,
        fault_model: FaultModel::Replay,
        prune: true,
        mode,
    }
}

fn trials() -> Vec<Trial> {
    vec![
        Trial {
            index: 0,
            target: InjectionTarget::Rob,
            cycle: 17,
            entry: 3,
            bit: 70,
        },
        Trial {
            index: 9,
            target: InjectionTarget::RegFile,
            cycle: 250,
            entry: 64,
            bit: 63,
        },
    ]
}

fn ready() -> JobReady {
    let (run, _, evidence) =
        golden_run_with_evidence(&machine(), &program(), 300, 256, PRUNE_WINDOW);
    JobReady {
        store_hash: 0xC0FFEE,
        golden: run,
        checkpoints: 2,
        prune: Some(PruneMap::build(
            &machine(),
            &program(),
            FaultModel::Replay,
            &evidence,
        )),
    }
}

fn eval_batch() -> EvalBatch {
    EvalBatch {
        context: EvalContext {
            machine: machine(),
            fitness: Fitness::with_scope(FaultRates::rhc(), FitnessScope::Core),
            instr_budget: 20_000,
        },
        generation: 7,
        individuals: vec![(0, vec![0.1, 0.2, 0.3]), (3, vec![0.9, -0.0, 1.0])],
    }
}

fn eval_score() -> EvalScore {
    EvalScore {
        index: 42,
        score: 0.123_456_789,
        cached: true,
    }
}

/// One sample frame per envelope kind (two for `JOB_SETUP`, one per
/// golden mode), each encoded by its public encoder.
fn samples() -> &'static [(&'static str, Vec<u8>)] {
    static SAMPLES: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    SAMPLES.get_or_init(build_samples)
}

fn build_samples() -> Vec<(&'static str, Vec<u8>)> {
    let store = store();
    let snapshot = store.nearest(u64::MAX).expect("a checkpoint").1.to_vec();
    vec![
        ("snapshot", snapshot),
        (
            "job_setup_shipped",
            setup(SetupMode::Shipped {
                store_hash: 0xABCD,
                golden: golden(),
                cycle_budget: 77_777,
            })
            .to_wire(),
        ),
        (
            "job_setup_delegated",
            setup(SetupMode::Delegated {
                checkpoint_interval: 256,
            })
            .to_wire(),
        ),
        ("trial_batch", encode_trial_batch(&trials())),
        (
            "trial_event",
            TrialEvent {
                index: 42,
                target: InjectionTarget::Iq,
                outcome: Outcome::ReplayDiverged,
            }
            .to_wire(),
        ),
        ("batch_done", ServerMessage::Done { events: 128 }.to_wire()),
        (
            "service_error",
            ServerMessage::Error("checkpoint store rejected".to_owned()).to_wire(),
        ),
        ("store_have", ServerMessage::StoreHave { hash: 7 }.to_wire()),
        (
            "store_need",
            ServerMessage::StoreNeed { hash: u64::MAX }.to_wire(),
        ),
        ("store_data", encode_store_data(&store)),
        ("job_ready", ServerMessage::Ready(ready()).to_wire()),
        ("broker_submit", Request::Submit(Box::new(spec())).to_wire()),
        ("broker_accepted", Reply::Accepted { id: 5 }.to_wire()),
        (
            "broker_rejected",
            Reply::Rejected {
                reason: RejectReason::QueueFull,
                detail: "64 pending".to_owned(),
            }
            .to_wire(),
        ),
        ("broker_attach", Request::Attach { id: 9 }.to_wire()),
        (
            "broker_status",
            Reply::Status {
                id: 4,
                phase: CampaignPhase::Running,
                trials_done: 128,
            }
            .to_wire(),
        ),
        (
            "broker_report",
            Reply::Report {
                id: 4,
                report: Box::new(report()),
            }
            .to_wire(),
        ),
        (
            "broker_failed",
            Reply::Failed {
                id: 8,
                error: "workers unreachable".to_owned(),
            }
            .to_wire(),
        ),
        (
            "log_accepted",
            LogRecord::Accepted {
                id: 3,
                tenant: "team-a".to_owned(),
                spec: Box::new(spec()),
            }
            .to_wire(),
        ),
        (
            "log_progress",
            LogRecord::Progress {
                id: 3,
                trials_done: 192,
            }
            .to_wire(),
        ),
        (
            "mux",
            Mux::wrap(0xFEED, ServerMessage::Done { events: 3 }.to_wire()).to_wire(),
        ),
        (
            "broker_hello",
            Request::Hello {
                tenant: "team-a".to_owned(),
            }
            .to_wire(),
        ),
        ("broker_hello_ack", Reply::HelloAck { workers: 3 }.to_wire()),
        ("eval_batch", eval_batch().to_wire()),
        ("eval_result", eval_score().to_wire()),
    ]
}

/// `(name, length, content_hash64(0, bytes))` of every sample frame,
/// produced by the encoders of the last commit before the shared codec
/// idiom. A mismatch means a frame's bytes changed.
const PINNED: &[(&str, usize, u64)] = &[
    ("snapshot", 17889, 0x1E8942AAE741D706),
    ("job_setup_shipped", 1080, 0x1FA2AAF2AC814FF7),
    ("job_setup_delegated", 1048, 0x04E6D9620C5D1856),
    ("trial_batch", 72, 0xADEDBBDF3BA94319),
    ("trial_event", 16, 0x728ADAA1ED6CB9B7),
    ("batch_done", 14, 0x7F55C4956DD65B2B),
    ("service_error", 39, 0xF5C23908C183DAAA),
    ("store_have", 14, 0xC3ACCDF85613A976),
    ("store_need", 14, 0x9F6863E828E516C4),
    ("store_data", 35770, 0x581431D5A945E804),
    ("job_ready", 1351, 0x7F78F3972C3B0017),
    ("broker_submit", 476, 0x4E729C894C237C71),
    ("broker_accepted", 14, 0x6E1B22F2F36B16A5),
    ("broker_rejected", 25, 0x8868FE60B47AE63D),
    ("broker_attach", 14, 0x10DAE9D2485E2B4F),
    ("broker_status", 23, 0xE15629F74C56B074),
    ("broker_report", 456, 0xAE017E733E6069FB),
    ("broker_failed", 41, 0xA69FDB4F10A4D595),
    ("log_accepted", 498, 0x74C476EAA322F1C8),
    ("log_progress", 22, 0x7737E08F89115C6E),
    ("mux", 32, 0x8E625E8174479092),
    ("broker_hello", 20, 0x2EDFB206F18CE92E),
    ("broker_hello_ack", 14, 0xAD07243DC98C57CD),
    ("eval_batch", 424, 0x2B1686A7A628A946),
    ("eval_result", 23, 0x5D502B72F12B07D8),
];

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), content_hash64(0, bytes))
}

#[test]
fn pinned_frame_bytes() {
    let actual: Vec<(&str, usize, u64)> = samples()
        .iter()
        .map(|(name, bytes)| {
            let (len, hash) = fingerprint(bytes);
            (*name, len, hash)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, hash)| format!("    (\"{name}\", {len}, 0x{hash:016X}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "frame bytes changed; actual table:\n{table}"
    );
}

#[test]
fn every_kind_has_a_sample() {
    let mut kinds: Vec<u8> = samples().iter().map(|(_, bytes)| bytes[5]).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, (1..=24).collect::<Vec<u8>>());
}

fn tmp_log(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avf-wire-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaigns.log")
}

/// Length and hash of the log file [`write_log`] produces.
const PINNED_LOG: (usize, u64) = (1525, 0xC78B_E287_A279_BF93);

fn write_log(path: &std::path::Path) {
    let (mut store, replayed) = CampaignStore::open(path).unwrap();
    assert!(replayed.is_empty());
    let records = [
        LogRecord::Accepted {
            id: 1,
            tenant: "t1".to_owned(),
            spec: Box::new(spec()),
        },
        LogRecord::Progress {
            id: 1,
            trials_done: 64,
        },
        LogRecord::Report {
            id: 1,
            report: Box::new(report()),
        },
        LogRecord::Accepted {
            id: 2,
            tenant: "t2".to_owned(),
            spec: Box::new(spec()),
        },
        LogRecord::Failed {
            id: 2,
            error: "fleet open failed".to_owned(),
        },
    ];
    for record in &records {
        store.append(record).unwrap();
    }
}

#[test]
fn pinned_durable_log() {
    let path = tmp_log("pinned");
    write_log(&path);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        fingerprint(&bytes),
        PINNED_LOG,
        "durable log bytes changed; actual {:?}",
        fingerprint(&bytes)
    );

    let (_, replayed) = CampaignStore::open(&path).unwrap();
    assert_eq!(replayed.len(), 2);
    let (first, second) = (&replayed[0], &replayed[1]);
    assert_eq!((first.id, first.tenant.as_str()), (1, "t1"));
    assert_eq!((second.id, second.tenant.as_str()), (2, "t2"));
    assert_eq!(first.trials_done, 64);
    assert_eq!(second.trials_done, 0);
    for stored in [first, second] {
        assert_eq!(
            Request::Submit(Box::new((*stored.spec).clone())).to_wire(),
            Request::Submit(Box::new(spec())).to_wire(),
            "the spec reopens bit-identically"
        );
    }
    match &first.outcome {
        Some(Ok(back)) => assert_eq!(
            Reply::Report {
                id: 1,
                report: Box::new((**back).clone()),
            }
            .to_wire(),
            Reply::Report {
                id: 1,
                report: Box::new(report()),
            }
            .to_wire(),
            "the report reopens bit-identically"
        ),
        other => panic!("campaign 1 must reopen with its report, got {other:?}"),
    }
    match &second.outcome {
        Some(Err(error)) => assert_eq!(error, "fleet open failed"),
        other => panic!("campaign 2 must reopen failed, got {other:?}"),
    }
    // Reopening is idempotent: nothing was torn, so nothing is chopped.
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}

/// Runs every receiver's decoder over `bytes` — both directions of the
/// worker plane, both broker directions, the durable log, the snapshot
/// codec, and a worker's decode of a shipped store's checkpoints — and
/// counts the decoders that accept it. A decoder either accepts or
/// returns a typed [`WireError`]; a panic fails the calling test.
fn receivers_accepting(bytes: &[u8], machine: &MachineConfig, program: &Program) -> usize {
    let client = match ClientMessage::from_wire(bytes) {
        Ok(ClientMessage::Store { store, .. }) => store.decode_all(machine, program).map(drop),
        other => other.map(drop),
    };
    let results: [Result<(), WireError>; 6] = [
        client,
        ServerMessage::from_wire(bytes).map(drop),
        Request::from_wire(bytes).map(drop),
        Reply::from_wire(bytes).map(drop),
        LogRecord::from_wire(bytes).map(drop),
        PipelineSnapshot::from_wire(bytes, machine, program).map(drop),
    ];
    results.iter().filter(|r| r.is_ok()).count()
}

#[test]
fn every_truncation_prefix_fails_typed() {
    let (machine, program) = (machine(), store_program());
    for (name, bytes) in samples() {
        assert!(
            receivers_accepting(bytes, &machine, &program) > 0,
            "{name}: the whole frame decodes"
        );
        for cut in 0..bytes.len() {
            assert_eq!(
                receivers_accepting(&bytes[..cut], &machine, &program),
                0,
                "{name}: a {cut}-byte prefix must not decode"
            );
        }
    }
}

proptest! {
    #[test]
    fn bit_flipped_frames_decode_or_fail_typed(
        sample in 0usize..25,
        flips in proptest::collection::vec((0u64..u64::MAX, 0u32..8), 1..9)
    ) {
        let (_, bytes) = &samples()[sample];
        let mut corrupt = bytes.clone();
        for (at, bit) in flips {
            let at = (at % corrupt.len() as u64) as usize;
            corrupt[at] ^= 1 << bit;
        }
        receivers_accepting(&corrupt, &machine(), &store_program());
    }
}

/// Decodes `bytes`, re-encodes the value, and requires the same bytes.
fn reencodes<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) {
    let value = decode(bytes).expect("the frame decodes");
    assert_eq!(encode(&value), bytes, "the frame re-encodes to its bytes");
}

#[test]
fn every_client_message_variant_round_trips() {
    for mode in [
        SetupMode::Shipped {
            store_hash: 0xABCD,
            golden: golden(),
            cycle_budget: 77_777,
        },
        SetupMode::Delegated {
            checkpoint_interval: 256,
        },
    ] {
        let bytes = setup(mode).to_wire();
        match ClientMessage::from_wire(&bytes).unwrap() {
            ClientMessage::Setup(back) => assert_eq!(back.to_wire(), bytes),
            other => panic!("expected a setup, got {other:?}"),
        }
    }
    let bytes = encode_trial_batch(&trials());
    match ClientMessage::from_wire(&bytes).unwrap() {
        ClientMessage::Batch(back) => assert_eq!(back, trials()),
        other => panic!("expected a trial batch, got {other:?}"),
    }
    let bytes = encode_store_data(&store());
    match ClientMessage::from_wire(&bytes).unwrap() {
        ClientMessage::Store { store, hash } => {
            assert_eq!(encode_store_data(&store), bytes);
            assert_eq!(hash, store_frame_hash(&bytes));
        }
        other => panic!("expected a store, got {other:?}"),
    }
    let bytes = eval_batch().to_wire();
    match ClientMessage::from_wire(&bytes).unwrap() {
        ClientMessage::Eval(back) => assert_eq!(back.to_wire(), bytes),
        other => panic!("expected an eval batch, got {other:?}"),
    }
}

#[test]
fn every_server_message_variant_round_trips() {
    for msg in [
        ServerMessage::StoreHave { hash: 7 },
        ServerMessage::StoreNeed { hash: u64::MAX },
        ServerMessage::Ready(ready()),
        ServerMessage::Event(TrialEvent {
            index: 42,
            target: InjectionTarget::Iq,
            outcome: Outcome::ReplayDiverged,
        }),
        ServerMessage::Score(eval_score()),
        ServerMessage::Done { events: 128 },
        ServerMessage::Error("checkpoint store rejected".to_owned()),
    ] {
        assert_eq!(ServerMessage::from_wire(&msg.to_wire()), Ok(msg));
    }
}

fn mux() -> Mux {
    Mux::wrap(0xFEED, ServerMessage::Done { events: 3 }.to_wire())
}

#[test]
fn every_broker_request_variant_round_trips() {
    for request in [
        Request::Hello {
            tenant: "team-a".to_owned(),
        },
        Request::Submit(Box::new(spec())),
        Request::Attach { id: 9 },
        Request::Mux(mux()),
    ] {
        reencodes(&request.to_wire(), Request::from_wire, Request::to_wire);
    }
}

#[test]
fn every_broker_reply_variant_round_trips() {
    for reply in [
        Reply::HelloAck { workers: 3 },
        Reply::Accepted { id: 5 },
        Reply::Rejected {
            reason: RejectReason::QueueFull,
            detail: "64 pending".to_owned(),
        },
        Reply::Status {
            id: 4,
            phase: CampaignPhase::Running,
            trials_done: 128,
        },
        Reply::Report {
            id: 4,
            report: Box::new(report()),
        },
        Reply::Failed {
            id: 8,
            error: "workers unreachable".to_owned(),
        },
        Reply::Mux(mux()),
    ] {
        reencodes(&reply.to_wire(), Reply::from_wire, Reply::to_wire);
    }
}

#[test]
fn every_log_record_variant_round_trips() {
    for record in [
        LogRecord::Accepted {
            id: 3,
            tenant: "team-a".to_owned(),
            spec: Box::new(spec()),
        },
        LogRecord::Progress {
            id: 3,
            trials_done: 192,
        },
        LogRecord::Report {
            id: 3,
            report: Box::new(report()),
        },
        LogRecord::Failed {
            id: 3,
            error: "fleet open failed".to_owned(),
        },
    ] {
        reencodes(&record.to_wire(), LogRecord::from_wire, LogRecord::to_wire);
    }
}

#[test]
fn snapshots_round_trip() {
    let (machine, program) = (machine(), store_program());
    let store = store();
    // The first checkpoint and the last (the pinned sample).
    for cycle in [0, u64::MAX] {
        let (_, bytes) = store.nearest(cycle).expect("a checkpoint");
        reencodes(
            bytes,
            |b| PipelineSnapshot::from_wire(b, &machine, &program),
            PipelineSnapshot::to_wire,
        );
    }
}
