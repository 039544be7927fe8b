//! The long-running campaign job server.
//!
//! `avf-stressmark serve --listen <addr>` runs [`serve`]: an accept
//! loop that gives every connection its own handler thread. A handler
//! is a thin wire adapter over [`LocalBackend`] — it resolves the
//! job's checkpoint store through the shared [`StoreCache`] (cache
//! hit, shipped bytes, or its own golden run), opens a local session,
//! then turns every trial-batch frame into a `submit` and streams the
//! resulting trial events back as length-prefixed frames *as they
//! complete* (coalesced through a [`FrameBatcher`] so a fast stream
//! does not pay one syscall per 16-byte event). The server is
//! venue-symmetric with in-process execution by construction: both
//! sides of the socket run the exact same [`CampaignBackend`] code
//! path.
//!
//! [`ServeOptions::die_mid_batch`] is deliberate fault injection for
//! the resilience tests and the CI resilience job: the handler streams
//! half of the designated batch's events, then drops the connection
//! with no error frame — exactly what a worker crash looks like from
//! the driver's side.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use avf_inject::{
    cycle_budget_of, BackendError, CampaignBackend, GoldenSpec, JobSpec, LocalBackend,
};
use avf_prune::PruneMap;
use avf_sim::{golden_run_checkpointed, golden_run_with_evidence, PRUNE_WINDOW};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, AuthVerifier, ConnectionAuth};
use crate::cache::{CacheEntry, StoreCache};
use crate::eval::{handle_eval_session, EvalCache};
use crate::frame::FrameBatcher;
use crate::metrics::ServeStats;
use crate::protocol::{
    geometry_fingerprint, ClientMessage, JobReady, JobSetup, ServerMessage, SetupMode,
};

/// Server tuning.
#[derive(Clone)]
pub struct ServeOptions {
    /// Worker threads per connection (0 = all available cores).
    pub threads: usize,
    /// Fault injection for resilience testing: abort the connection
    /// midway through streaming batch `n` (0-based, counted per
    /// connection) — half the batch's events go out, then the socket
    /// dies with no error frame.
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

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("threads", &self.threads)
            .field("die_mid_batch", &self.die_mid_batch)
            .field("cache", &self.cache.stats())
            .field("auth", &self.auth.is_some())
            .field("eval_cache", &self.eval_cache.stats())
            .finish()
    }
}

/// Runs the accept loop forever, spawning one handler thread per
/// connection. Never returns except on listener failure.
///
/// # Errors
///
/// Returns the I/O error that broke the accept loop.
pub fn serve(listener: TcpListener, opts: &ServeOptions) -> std::io::Result<()> {
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
    setup: JobSetup,
    reader: &mut BufReader<&TcpStream>,
    writer: &mut FrameBatcher<&TcpStream>,
    cache: &StoreCache,
    verifier: Option<&AuthVerifier>,
) -> Result<(JobSetup, CacheEntry, u64), BackendError> {
    let key = setup.cache_key();
    let geometry = geometry_fingerprint(&setup.machine, &setup.program);
    // A pruning delegated job needs the golden pass's ACE evidence on
    // top of the store (shipped-mode pruning is driver-side only).
    let wants_evidence = setup.prune && matches!(setup.mode, SetupMode::Delegated { .. });
    if let Some(mut entry) = cache.get(key, geometry) {
        eprintln!("serve: job {key:016x} checkpoint store HAVE (cache hit)");
        writer.push(&ServerMessage::StoreHave { hash: key }.to_wire())?;
        writer.flush()?;
        if wants_evidence && entry.evidence.is_none() {
            // The cached store came from an uninstrumented pass: re-run
            // instrumented to capture evidence, cross-check it resolved
            // the identical reference, and refresh the entry so the
            // next pruning session hits outright.
            let SetupMode::Delegated {
                checkpoint_interval,
            } = setup.mode
            else {
                unreachable!("wants_evidence implies delegated mode");
            };
            eprintln!("serve: job {key:016x} regenerating prune evidence (instrumented pass)");
            let (golden, _, evidence) = golden_run_with_evidence(
                &setup.machine,
                &setup.program,
                setup.instr_budget,
                checkpoint_interval,
                PRUNE_WINDOW,
            );
            if golden != entry.golden {
                return Err(BackendError::Protocol(format!(
                    "instrumented golden pass diverged from the cached reference: \
                     digest {:016x} vs {:016x}",
                    golden.digest, entry.golden.digest
                )));
            }
            entry.evidence = Some(Arc::new(evidence));
            cache.insert(key, entry.clone());
        }
        return Ok((setup, entry, key));
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
            if setup.prune {
                let (golden, store, evidence) = golden_run_with_evidence(
                    &setup.machine,
                    &setup.program,
                    setup.instr_budget,
                    checkpoint_interval,
                    PRUNE_WINDOW,
                );
                (Arc::new(store), golden, Some(Arc::new(evidence)))
            } else {
                let (golden, store) = golden_run_checkpointed(
                    &setup.machine,
                    &setup.program,
                    setup.instr_budget,
                    checkpoint_interval,
                );
                (Arc::new(store), golden, None)
            }
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
    Ok((setup, entry, key))
}

/// Drives one campaign session over one connection.
fn handle_connection(
    stream: &TcpStream,
    opts: &ServeOptions,
    auth: Option<&Arc<ConnectionAuth>>,
) -> Result<(), BackendError> {
    let mut reader = BufReader::new(stream);
    let verifier = auth.map(|a| a.verifier.as_ref());
    let mut writer = FrameBatcher::new(stream).with_signer(auth.map(|a| Arc::clone(&a.signer)));

    // The session must open with a job setup frame — or, since wire
    // v7, an EVAL_BATCH frame opening a fitness-evaluation session.
    let Some(payload) = read_frame_verified(&mut reader, verifier)? else {
        return Ok(()); // connected and left; nothing to do
    };
    let setup = match ClientMessage::from_wire(&payload)? {
        ClientMessage::Setup(setup) => *setup,
        ClientMessage::Eval(batch) => {
            return handle_eval_session(stream, &mut reader, &mut writer, *batch, opts, verifier);
        }
        _ => {
            return Err(BackendError::Protocol(
                "session must open with a job setup frame".to_owned(),
            ))
        }
    };
    let (setup, entry, key) =
        resolve_store(setup, &mut reader, &mut writer, &opts.cache, verifier)?;

    let cycle_budget = match setup.mode {
        SetupMode::Shipped { cycle_budget, .. } => cycle_budget,
        SetupMode::Delegated { .. } => cycle_budget_of(entry.golden.cycles),
    };
    // Keep the job's geometry for batch validation: the simulator
    // *asserts* entry/bit bounds, so an out-of-geometry trial smuggled
    // over the wire must be rejected here with an error frame, not
    // allowed to panic a worker thread.
    let machine = setup.machine.clone();
    let sizes = machine.structure_sizes();
    // A pruning delegated job ships the classifier's map back with
    // JOB_READY: the driver never simulated the golden pass, so the
    // worker's evidence is the only source. The map derives from the
    // session's fault model; the cached evidence is model-independent.
    let prune = match (&setup.mode, entry.evidence.as_deref()) {
        (SetupMode::Delegated { .. }, Some(evidence)) if setup.prune => Some(PruneMap::build(
            &machine,
            &setup.program,
            setup.fault_model,
            evidence,
        )),
        _ => None,
    };
    let backend = LocalBackend::new(opts.threads);
    let golden = entry.golden;
    let opened = backend.open(JobSpec {
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
    let mut session = opened.session;

    // Then any number of trial batches until the client hangs up.
    let mut served = 0u64;
    while let Some(payload) = read_frame_verified(&mut reader, verifier)? {
        let ClientMessage::Batch(trials) = ClientMessage::from_wire(&payload)? else {
            return Err(BackendError::Protocol(
                "expected a trial batch frame".to_owned(),
            ));
        };
        if let Some(t) = trials
            .iter()
            .find(|t| t.entry >= t.target.entries(&machine) || t.bit >= t.target.entry_bits(&sizes))
        {
            return Err(BackendError::Protocol(format!(
                "trial {} ({} entry {} bit {}) lies outside the job's machine geometry",
                t.index, t.target, t.entry, t.bit
            )));
        }
        if opts.die_mid_batch == Some(served) {
            // Injected fault: stream half the batch, then crash. No
            // error frame, no DONE — the driver must observe this as a
            // dead connection and re-dispatch the unacknowledged half.
            let half = (trials.len() / 2) as u64;
            for (streamed, event) in session.submit(&trials)?.enumerate() {
                if streamed as u64 >= half {
                    break;
                }
                writer.push(&ServerMessage::Event(event?).to_wire())?;
            }
            writer.flush()?;
            eprintln!("serve: injected fault — aborting connection mid-batch {served}");
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
        let mut events = 0u64;
        for event in session.submit(&trials)? {
            let event = event?;
            writer.push(&ServerMessage::Event(event).to_wire())?;
            events += 1;
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
    Ok(())
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
}
