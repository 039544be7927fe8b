//! The long-running worker: one session loop for both job kinds.
//!
//! `avf-stressmark serve --listen <addr>` runs [`serve`]: an accept
//! loop that gives every connection its own handler thread. The opening
//! frame picks the session's kind. A `JOB_SETUP` opens a *trial*
//! session: the handler resolves the job's checkpoint store through the
//! shared [`StoreCache`] (cache hit, shipped bytes, or its own golden
//! run), opens a [`LocalBackend`] session — the exact [`CampaignBackend`]
//! code path in-process campaigns run — and answers `JOB_READY`. An
//! `EVAL_BATCH` opens a *genome* session with that frame as its first
//! batch (see [`crate::eval`]).
//!
//! One loop then serves both kinds: decode each batch frame once (a
//! frame of the other kind is a typed protocol error), validate it, and
//! stream its acks through a [`FrameBatcher`] — trial events *as they
//! complete*, genome scores from the shared [`EvalCache`] plus a
//! parallel pass over the misses — before the `BATCH_DONE` barrier.
//!
//! [`ServeOptions::die_mid_batch`] is deliberate fault injection for
//! the resilience tests and the CI resilience job: the loop streams
//! half of the designated batch's acks, then drops the connection with
//! no error frame — exactly what a worker crash looks like from the
//! driver's side.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use avf_inject::{
    cycle_budget_of, golden_pass, BackendError, CampaignBackend, CampaignSession, GoldenSpec,
    JobSpec, LocalBackend,
};
use avf_prune::PruneMap;
use avf_sim::MachineConfig;

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, AuthVerifier, ConnectionAuth};
use crate::cache::{CacheEntry, EvalCache, StoreCache};
use crate::eval::score_batch;
use crate::frame::FrameBatcher;
use crate::metrics::ServeStats;
use crate::protocol::{
    geometry_fingerprint, ClientMessage, JobReady, JobSetup, ServerMessage, SetupMode,
};

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads per session, trial and genome sessions alike
    /// (0 = all available cores, resolved once when [`serve`] starts).
    pub threads: usize,
    /// Fault injection for resilience testing: abort the connection
    /// midway through streaming batch `n` (0-based, counted per
    /// connection, either kind) — half the batch's acks go out, then
    /// the socket dies with no error frame.
    pub die_mid_batch: Option<u64>,
    /// The checkpoint-store cache shared by every connection. A fresh
    /// default-bounded cache per `ServeOptions` unless the caller
    /// wants to observe or share one.
    pub cache: Arc<StoreCache>,
    /// Shared frame-authentication key (`--auth-key-file`). `None`
    /// accepts plain frames; `Some` requires every frame on every
    /// connection to carry a valid tag and tags every reply.
    pub auth: Option<AuthKey>,
    /// Session counters the metrics endpoint renders.
    pub stats: Arc<ServeStats>,
    /// The genome→fitness score cache shared by every evaluation
    /// session (wire v7), the fitness analogue of `cache`: elite
    /// genomes re-scored across generations hit here instead of
    /// re-simulating.
    pub eval_cache: Arc<EvalCache>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 0,
            die_mid_batch: None,
            cache: StoreCache::shared(),
            auth: None,
            stats: ServeStats::shared(),
            eval_cache: EvalCache::shared(),
        }
    }
}

/// Runs the accept loop forever, spawning one handler thread per
/// connection. Never returns except on listener failure.
///
/// # Errors
///
/// Returns the I/O error that broke the accept loop.
pub fn serve(listener: TcpListener, opts: &ServeOptions) -> std::io::Result<()> {
    // Resolve "all cores" once, with the count the local backend
    // computes, so both session kinds run on the same thread count.
    let opts = ServeOptions {
        threads: LocalBackend::new(opts.threads).workers(),
        ..opts.clone()
    };
    for conn in listener.incoming() {
        let stream = conn?;
        let opts = opts.clone();
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string());
            // One auth pair per connection: fresh per-direction
            // sequence spaces are what make replay detection sound.
            let auth = opts.auth.map(|key| Arc::new(ConnectionAuth::server(key)));
            match handle_connection(&stream, &opts, auth.as_ref()) {
                Ok(()) => {
                    opts.stats.sessions_ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    opts.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                    if matches!(e, BackendError::Auth(_)) {
                        opts.stats.auth_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                    // Best-effort error frame; the connection may already be
                    // gone, and either way the session is over. Signed when
                    // the server is keyed — an authenticated driver must
                    // never trust an unsigned error frame.
                    let mut w = BufWriter::new(&stream);
                    let _ = write_frame_signed(
                        &mut w,
                        &ServerMessage::Error(e.to_string()).to_wire(),
                        auth.as_ref().map(|a| a.signer.as_ref()),
                    );
                    let _ = w.flush();
                    eprintln!("serve: session with {peer} failed: {e}");
                }
            }
        });
    }
    Ok(())
}

/// Binds an ephemeral local port and runs [`serve`] on a background
/// thread, returning the bound address — the in-process harness the
/// loopback tests and CI smoke use.
///
/// # Errors
///
/// Returns the I/O error if the port cannot be bound.
pub fn spawn_local(opts: ServeOptions) -> std::io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        if let Err(e) = serve(listener, &opts) {
            eprintln!("serve: accept loop failed: {e}");
        }
    });
    Ok(addr)
}

/// Resolves the job's checkpoint store and golden run through the
/// cache, answering the handshake on `writer`. On a shipped-mode miss
/// this reads the `STORE_DATA` frame from `reader` and verifies its
/// content hash against the one announced in setup.
fn resolve_store(
    setup: &JobSetup,
    reader: &mut BufReader<&TcpStream>,
    writer: &mut FrameBatcher<&TcpStream>,
    cache: &StoreCache,
    verifier: Option<&AuthVerifier>,
) -> Result<(CacheEntry, u64), BackendError> {
    let key = setup.cache_key();
    let geometry = geometry_fingerprint(&setup.machine, &setup.program);
    if let Some(mut entry) = cache.get(key, geometry) {
        eprintln!("serve: job {key:016x} checkpoint store HAVE (cache hit)");
        writer.push(&ServerMessage::StoreHave { hash: key }.to_wire())?;
        writer.flush()?;
        // A pruning delegated job needs the golden pass's ACE evidence
        // on top of the store (shipped-mode pruning is driver-side
        // only). A store cached from an uninstrumented pass is re-run
        // instrumented, cross-checked to resolve the identical
        // reference, and refreshed so the next pruning session hits
        // outright.
        if let SetupMode::Delegated {
            checkpoint_interval,
        } = setup.mode
        {
            if setup.prune && entry.evidence.is_none() {
                eprintln!("serve: job {key:016x} regenerating prune evidence (instrumented pass)");
                let (golden, _, evidence) = golden_pass(
                    &setup.machine,
                    &setup.program,
                    setup.instr_budget,
                    checkpoint_interval,
                    true,
                );
                if golden != entry.golden {
                    return Err(BackendError::Protocol(format!(
                        "instrumented golden pass diverged from the cached reference: \
                         digest {:016x} vs {:016x}",
                        golden.digest, entry.golden.digest
                    )));
                }
                entry.evidence = evidence.map(Arc::new);
                cache.insert(key, entry.clone());
            }
        }
        return Ok((entry, key));
    }
    writer.push(&ServerMessage::StoreNeed { hash: key }.to_wire())?;
    writer.flush()?;
    let (store, golden, evidence) = match setup.mode {
        SetupMode::Shipped {
            store_hash, golden, ..
        } => {
            eprintln!("serve: job {key:016x} checkpoint store NEED (awaiting shipment)");
            let Some(payload) = read_frame_verified(reader, verifier)? else {
                return Err(BackendError::Disconnected {
                    worker: "client".to_owned(),
                    detail: "connection closed before the checkpoint store arrived".to_owned(),
                });
            };
            let ClientMessage::Store { store, hash } = ClientMessage::from_wire(&payload)? else {
                return Err(BackendError::Protocol(
                    "expected a STORE_DATA frame after STORE_NEED".to_owned(),
                ));
            };
            if hash != store_hash {
                return Err(BackendError::Protocol(format!(
                    "shipped store hashes to {hash:016x}, setup announced {store_hash:016x}"
                )));
            }
            (store, golden, None)
        }
        SetupMode::Delegated {
            checkpoint_interval,
        } => {
            eprintln!("serve: job {key:016x} checkpoint store NEED (running golden pass)");
            let (golden, store, evidence) = golden_pass(
                &setup.machine,
                &setup.program,
                setup.instr_budget,
                checkpoint_interval,
                setup.prune,
            );
            (Arc::new(store), golden, evidence.map(Arc::new))
        }
    };
    // Decode once at insertion: every later campaign on this worker —
    // this connection included — restores straight from the decoded
    // snapshots, so a cache hit no longer pays `decode_all`. Doubles as
    // the geometry verification of a shipped store.
    let decoded = Arc::new(store.decode_all(&setup.machine, &setup.program)?);
    let entry = CacheEntry {
        store,
        decoded,
        golden,
        geometry,
        evidence,
    };
    cache.insert(key, entry.clone());
    Ok((entry, key))
}

/// The kind-specific half of one worker session: which batch frames it
/// accepts and how a batch becomes acks. Framing, the fault hook and
/// the `BATCH_DONE` barrier are the one loop in [`handle_connection`].
enum Session {
    /// Campaign trial batches against one opened job on this machine.
    Trials(Box<dyn CampaignSession>, Box<MachineConfig>),
    /// GA genome batches, scored through the shared [`EvalCache`].
    Genomes,
}

/// A batch's acks in streaming order.
type Acks = Box<dyn Iterator<Item = Result<ServerMessage, BackendError>>>;

impl Session {
    /// Opens a trial session: resolves the job's store, opens a local
    /// session on it, and answers `JOB_READY`.
    fn trials(
        setup: JobSetup,
        reader: &mut BufReader<&TcpStream>,
        writer: &mut FrameBatcher<&TcpStream>,
        opts: &ServeOptions,
        verifier: Option<&AuthVerifier>,
    ) -> Result<Session, BackendError> {
        let (entry, key) = resolve_store(&setup, reader, writer, &opts.cache, verifier)?;
        let cycle_budget = match setup.mode {
            SetupMode::Shipped { cycle_budget, .. } => cycle_budget,
            SetupMode::Delegated { .. } => cycle_budget_of(entry.golden.cycles),
        };
        // A pruning delegated job ships the classifier's map back with
        // JOB_READY: the driver never simulated the golden pass, so the
        // worker's evidence is the only source. The map derives from
        // the session's fault model; the cached evidence is
        // model-independent.
        let prune =
            match (&setup.mode, entry.evidence.as_deref()) {
                (SetupMode::Delegated { .. }, Some(evidence)) if setup.prune => Some(
                    PruneMap::build(&setup.machine, &setup.program, setup.fault_model, evidence),
                ),
                _ => None,
            };
        let machine = setup.machine.clone();
        let golden = entry.golden;
        let opened = LocalBackend::new(opts.threads).open(JobSpec {
            machine: setup.machine,
            program: setup.program,
            instr_budget: setup.instr_budget,
            fault_model: setup.fault_model,
            golden: GoldenSpec::Shipped {
                store: entry.store,
                decoded: Some(entry.decoded),
                golden,
                cycle_budget,
            },
            prune: false, // the store (and map) are already resolved here
        })?;
        writer.push(
            &ServerMessage::Ready(JobReady {
                store_hash: key,
                golden,
                checkpoints: opened.checkpoints as u64,
                prune,
            })
            .to_wire(),
        )?;
        writer.flush()?;
        Ok(Session::Trials(opened.session, Box::new(machine)))
    }

    /// Validates one decoded batch frame and returns its size and its
    /// acks: trial events streamed as the local session yields them,
    /// or genome scores (cache hits, then the misses scored on
    /// `opts.threads` threads). A frame of the other kind is a typed
    /// protocol error.
    fn acks(
        &mut self,
        message: ClientMessage,
        opts: &ServeOptions,
    ) -> Result<(usize, Acks), BackendError> {
        match (self, message) {
            (Session::Trials(session, machine), ClientMessage::Batch(trials)) => {
                // The simulator *asserts* entry/bit bounds, so an
                // out-of-geometry trial smuggled over the wire must
                // become an error frame, not a panicked worker thread.
                let sizes = machine.structure_sizes();
                if let Some(t) = trials.iter().find(|t| {
                    t.entry >= t.target.entries(machine) || t.bit >= t.target.entry_bits(&sizes)
                }) {
                    return Err(BackendError::Protocol(format!(
                        "trial {} ({} entry {} bit {}) lies outside the job's machine geometry",
                        t.index, t.target, t.entry, t.bit
                    )));
                }
                let events = session.submit(&trials)?;
                Ok((
                    trials.len(),
                    Box::new(events.map(|e| e.map(ServerMessage::Event))),
                ))
            }
            (Session::Genomes, ClientMessage::Eval(batch)) => {
                let scores = score_batch(&batch, &opts.eval_cache, opts.threads);
                let acks = scores.into_iter().map(|s| Ok(ServerMessage::Score(s)));
                Ok((batch.individuals.len(), Box::new(acks)))
            }
            (Session::Trials(..), _) => Err(BackendError::Protocol(
                "expected a trial batch frame".to_owned(),
            )),
            (Session::Genomes, _) => Err(BackendError::Protocol(
                "expected an eval batch frame".to_owned(),
            )),
        }
    }
}

/// Drives one worker session over one connection: the opening frame
/// picks the kind, then one loop serves every batch until the client
/// hangs up.
fn handle_connection(
    stream: &TcpStream,
    opts: &ServeOptions,
    auth: Option<&Arc<ConnectionAuth>>,
) -> Result<(), BackendError> {
    let mut reader = BufReader::new(stream);
    let verifier = auth.map(|a| a.verifier.as_ref());
    let mut writer = FrameBatcher::new(stream).with_signer(auth.map(|a| Arc::clone(&a.signer)));

    // The session must open with a job setup frame — or, since wire
    // v7, an EVAL_BATCH frame that is also the genome session's first
    // batch.
    let Some(payload) = read_frame_verified(&mut reader, verifier)? else {
        return Ok(()); // connected and left; nothing to do
    };
    let (mut session, mut pending) = match ClientMessage::from_wire(&payload)? {
        ClientMessage::Setup(setup) => (
            Session::trials(*setup, &mut reader, &mut writer, opts, verifier)?,
            None,
        ),
        first @ ClientMessage::Eval(_) => (Session::Genomes, Some(first)),
        _ => {
            return Err(BackendError::Protocol(
                "session must open with a job setup frame".to_owned(),
            ))
        }
    };

    let mut served = 0u64;
    loop {
        let message = match pending.take() {
            Some(first) => first,
            None => match read_frame_verified(&mut reader, verifier)? {
                Some(payload) => ClientMessage::from_wire(&payload)?,
                None => return Ok(()), // the client hung up: clean end
            },
        };
        let (size, acks) = session.acks(message, opts)?;
        // Injected fault: stream half the batch, then crash. No error
        // frame, no DONE — the driver must observe this as a dead
        // connection and re-dispatch the unacknowledged half.
        let crash = opts.die_mid_batch == Some(served);
        let mut events = 0u64;
        for ack in acks.take(if crash { size / 2 } else { usize::MAX }) {
            writer.push(&ack?.to_wire())?;
            events += 1;
        }
        if crash {
            writer.flush()?;
            eprintln!("serve: injected fault — aborting connection mid-batch {served}");
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
        writer.push(&ServerMessage::Done { events }.to_wire())?;
        // The DONE marker is a protocol barrier: everything queued for
        // the batch must reach the driver before it plans the next one.
        writer.flush()?;
        opts.stats.batches_served.fetch_add(1, Ordering::Relaxed);
        opts.stats
            .events_streamed
            .fetch_add(events, Ordering::Relaxed);
        served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::protocol::JobSetup;
    use avf_sim::MachineConfig;

    #[test]
    fn empty_connection_is_a_clean_session() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        // Connect and immediately hang up: the handler must treat this
        // as a zero-job session, not an error.
        drop(TcpStream::connect(addr).unwrap());
        // A second connection still works (the accept loop survived).
        drop(TcpStream::connect(addr).unwrap());
    }

    /// Opens a delegated-mode session on `addr` and drains the
    /// handshake up to (and including) JOB_READY.
    fn open_session(addr: std::net::SocketAddr, instr_budget: u64) -> TcpStream {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let stream = TcpStream::connect(addr).unwrap();
        {
            let mut w = BufWriter::new(&stream);
            let setup = JobSetup {
                machine,
                program,
                instr_budget,
                fault_model: avf_inject::FaultModel::default(),
                prune: false,
                mode: SetupMode::Delegated {
                    checkpoint_interval: 256,
                },
            };
            write_frame(&mut w, &setup.to_wire()).unwrap();
            w.flush().unwrap();
            let mut r = BufReader::new(&stream);
            let reply = read_frame(&mut r).unwrap().expect("handshake reply");
            assert!(matches!(
                ServerMessage::from_wire(&reply).unwrap(),
                ServerMessage::StoreHave { .. } | ServerMessage::StoreNeed { .. }
            ));
            let ready = read_frame(&mut r).unwrap().expect("ready frame");
            match ServerMessage::from_wire(&ready).unwrap() {
                ServerMessage::Ready(ready) => assert!(ready.checkpoints > 0),
                other => panic!("expected JOB_READY, got {other:?}"),
            }
        }
        stream
    }

    #[test]
    fn out_of_geometry_trials_get_an_error_frame_not_a_panic() {
        use avf_inject::{encode_trial_batch, Trial};
        use avf_sim::InjectionTarget;

        let machine = MachineConfig::baseline();
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = open_session(addr, 2_000);
        let mut w = BufWriter::new(&stream);
        // One trial far past the ROB's physical entries: the simulator
        // would assert; the server must reject it at the protocol layer.
        let bad = Trial {
            index: 0,
            target: InjectionTarget::Rob,
            cycle: 1,
            entry: machine.rob_entries as u64 + 5,
            bit: 0,
        };
        write_frame(&mut w, &encode_trial_batch(&[bad])).unwrap();
        w.flush().unwrap();

        let mut r = BufReader::new(&stream);
        let reply = read_frame(&mut r).unwrap().expect("error frame");
        match ServerMessage::from_wire(&reply).unwrap() {
            ServerMessage::Error(msg) => assert!(msg.contains("geometry"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn garbage_setup_gets_an_error_frame() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(&stream);
        write_frame(&mut w, b"this is not a job spec").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(&stream);
        let reply = read_frame(&mut r).unwrap().expect("error frame");
        match ServerMessage::from_wire(&reply).unwrap() {
            ServerMessage::Error(msg) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn second_identical_session_hits_the_store_cache() {
        let opts = ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        };
        let cache = Arc::clone(&opts.cache);
        let addr = spawn_local(opts).unwrap();
        drop(open_session(addr, 2_000));
        assert_eq!(cache.stats().hits, 0);
        drop(open_session(addr, 2_000));
        // The handler thread of the second connection completed its
        // lookup before sending JOB_READY, which open_session waited on.
        assert_eq!(cache.stats().hits, 1, "identical job must hit");
        // A different budget is a different job key.
        drop(open_session(addr, 2_500));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    fn next_message(r: &mut BufReader<&TcpStream>) -> ServerMessage {
        let frame = read_frame(r).unwrap().expect("a reply frame");
        ServerMessage::from_wire(&frame).unwrap()
    }

    /// A one-individual genome batch on a short budget.
    fn eval_batch() -> Vec<u8> {
        use avf_ace::{FaultRates, Fitness};
        crate::EvalBatch {
            context: crate::EvalContext {
                machine: MachineConfig::baseline(),
                fitness: Fitness::overall(FaultRates::baseline()),
                instr_budget: 2_000,
            },
            generation: 0,
            individuals: vec![(0, vec![0.5; avf_codegen::GENOME_LEN])],
        }
        .to_wire()
    }

    /// Sends one genome batch on `stream` and checks its score and DONE.
    fn eval_round(stream: &TcpStream) {
        let mut w = BufWriter::new(stream);
        write_frame(&mut w, &eval_batch()).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream);
        assert!(matches!(next_message(&mut r), ServerMessage::Score(_)));
        assert_eq!(next_message(&mut r), ServerMessage::Done { events: 1 });
    }

    fn in_geometry_trial() -> Vec<u8> {
        avf_inject::encode_trial_batch(&[avf_inject::Trial {
            index: 0,
            target: avf_sim::InjectionTarget::Rob,
            cycle: 1,
            entry: 0,
            bit: 0,
        }])
    }

    #[test]
    fn eval_session_sent_a_trial_batch_gets_a_typed_error() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        eval_round(&stream);
        let mut w = BufWriter::new(&stream);
        write_frame(&mut w, &in_geometry_trial()).unwrap();
        w.flush().unwrap();
        match next_message(&mut BufReader::new(&stream)) {
            ServerMessage::Error(msg) => assert!(msg.contains("expected an eval batch"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The worker survives: a fresh connection is served.
        eval_round(&TcpStream::connect(addr).unwrap());
    }

    #[test]
    fn trial_session_sent_an_eval_batch_gets_a_typed_error() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = open_session(addr, 2_000);
        let mut w = BufWriter::new(&stream);
        write_frame(&mut w, &eval_batch()).unwrap();
        w.flush().unwrap();
        match next_message(&mut BufReader::new(&stream)) {
            ServerMessage::Error(msg) => assert!(msg.contains("expected a trial batch"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The worker survives: a fresh connection is served, and its
        // trial batch still runs.
        let stream = open_session(addr, 2_000);
        let mut w = BufWriter::new(&stream);
        write_frame(&mut w, &in_geometry_trial()).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(&stream);
        assert!(matches!(next_message(&mut r), ServerMessage::Event(_)));
        assert_eq!(next_message(&mut r), ServerMessage::Done { events: 1 });
    }
}
