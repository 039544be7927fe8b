//! [`RemoteBackend`]: the TCP client side of the campaign service.
//!
//! One backend fans a campaign out over one or more `serve` workers.
//! `open` runs the setup handshake against every worker *in parallel*:
//! the setup frame names the checkpoint store by content hash, each
//! worker answers `HAVE` (cached) or `NEED` (ship the bytes, or — in
//! delegated mode — run the golden pass itself), and every worker
//! closes with `JOB_READY`. The driver then cross-checks that all
//! workers resolved the *identical* golden run; divergence is a hard
//! protocol error, because a worker disagreeing about the fault-free
//! reference would silently corrupt every classification it returns.
//!
//! `submit` hands each batch to the supervised [`Fleet`] as trial
//! batches (see [`crate::fleet`]): cycle-sorted shards stride across
//! live workers, their event streams merge into one [`TrialStream`],
//! and the trials a dead worker never acknowledged are re-dispatched
//! to the survivors. Because every trial's outcome is a pure function
//! of the trial itself (sampled from `(seed, batch, index)`), the final
//! `CampaignReport` is bit-identical to the fault-free run; only the
//! dispatch trajectory records that the failure happened.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use avf_inject::{
    BackendError, CampaignBackend, CampaignSession, DispatchRecord, GoldenSpec, JobSpec, OpenedJob,
    StoreSource, Trial, TrialStream, WorkerProvision,
};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use crate::fleet::{Fleet, TrialBatches};
use crate::protocol::{
    encode_store_data, store_frame_hash, JobReady, JobSetup, ServerMessage, SetupMode,
};

/// A campaign backend executing trials on remote `serve` workers.
pub struct RemoteBackend {
    addrs: Vec<String>,
    auth: Option<AuthKey>,
}

impl RemoteBackend {
    /// A backend over one or more worker addresses (`host:port`).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty — a remote backend with no workers
    /// cannot execute anything.
    #[must_use]
    pub fn new(addrs: Vec<String>) -> RemoteBackend {
        assert!(
            !addrs.is_empty(),
            "remote backend needs at least one worker"
        );
        RemoteBackend { addrs, auth: None }
    }

    /// [`RemoteBackend::new`] with frame authentication: every frame
    /// to and from every worker carries a keyed tag under `key`, and
    /// every received frame must verify (the workers must be running
    /// with the same `--auth-key-file`).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn with_auth(addrs: Vec<String>, key: AuthKey) -> RemoteBackend {
        let mut backend = RemoteBackend::new(addrs);
        backend.auth = Some(key);
        backend
    }

    /// The configured worker addresses.
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

/// Every worker must report the same setup result; any divergence is a
/// correctness emergency, not a tolerable degradation.
fn cross_check_ready(readys: &[(String, JobReady)]) -> Result<(), BackendError> {
    let (first_addr, reference) = &readys[0];
    for (addr, ready) in &readys[1..] {
        if ready != reference {
            return Err(BackendError::Protocol(format!(
                "golden-run divergence between workers: {first_addr} reports \
                 digest {:016x} / {} cycles / store {:016x}, {addr} reports \
                 digest {:016x} / {} cycles / store {:016x}",
                reference.golden.digest,
                reference.golden.cycles,
                reference.store_hash,
                ready.golden.digest,
                ready.golden.cycles,
                ready.store_hash,
            )));
        }
    }
    Ok(())
}

/// Reads one handshake frame, mapping a clean close to a typed error —
/// a worker that hangs up during setup is a failed open, not EOF.
fn handshake_frame(
    reader: &mut BufReader<&TcpStream>,
    addr: &str,
    auth: Option<&ConnectionAuth>,
) -> Result<Vec<u8>, BackendError> {
    read_frame_verified(reader, auth.map(|a| a.verifier.as_ref()))?.ok_or_else(|| {
        BackendError::Disconnected {
            worker: addr.to_owned(),
            detail: "connection closed during the setup handshake".to_owned(),
        }
    })
}

/// One worker's completed setup handshake: its live connection plus
/// what it reported.
struct OpenedWorker {
    stream: TcpStream,
    auth: Option<ConnectionAuth>,
    ready: JobReady,
    source: StoreSource,
}

/// Runs the full setup handshake against one worker.
fn open_worker(
    addr: &str,
    setup_frame: &[u8],
    store_frame: Option<&[u8]>,
    key: Option<AuthKey>,
) -> Result<OpenedWorker, BackendError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
    // Event frames are tiny; don't let Nagle batch them up.
    let _ = stream.set_nodelay(true);
    let auth = key.map(ConnectionAuth::client);
    let signer = auth.as_ref().map(|a| a.signer.as_ref());
    let mut w = BufWriter::new(&stream);
    write_frame_signed(&mut w, setup_frame, signer)?;
    w.flush().map_err(BackendError::from)?;

    let mut r = BufReader::new(&stream);
    let reply = handshake_frame(&mut r, addr, auth.as_ref())?;
    let source = match ServerMessage::from_wire(&reply)? {
        ServerMessage::StoreHave { .. } => StoreSource::Cached,
        ServerMessage::StoreNeed { .. } => match store_frame {
            Some(frame) => {
                write_frame_signed(&mut w, frame, signer)?;
                w.flush().map_err(BackendError::from)?;
                StoreSource::Shipped
            }
            // Delegated mode: the worker is running the golden pass.
            None => StoreSource::GoldenRun,
        },
        ServerMessage::Error(msg) => return Err(crate::protocol::remote_error(msg)),
        other => {
            return Err(BackendError::Protocol(format!(
                "worker {addr} answered setup with {other:?} instead of HAVE/NEED"
            )))
        }
    };
    let reply = handshake_frame(&mut r, addr, auth.as_ref())?;
    let ready = match ServerMessage::from_wire(&reply)? {
        ServerMessage::Ready(ready) => ready,
        ServerMessage::Error(msg) => return Err(crate::protocol::remote_error(msg)),
        other => {
            return Err(BackendError::Protocol(format!(
                "worker {addr} answered setup with {other:?} instead of JOB_READY"
            )))
        }
    };
    // The server sends nothing after JOB_READY until our next batch
    // frame, so dropping the BufReader here cannot strand reply bytes.
    drop(r);
    drop(w);
    Ok(OpenedWorker {
        stream,
        auth,
        ready,
        source,
    })
}

impl CampaignBackend for RemoteBackend {
    fn workers(&self) -> usize {
        self.addrs.len()
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        // Serialize the setup (and, in shipped mode, the store) once;
        // every worker receives the identical bytes.
        let (mode, store_frame, expected) = match &spec.golden {
            GoldenSpec::Shipped {
                store,
                golden,
                cycle_budget,
                ..
            } => {
                let frame = encode_store_data(store);
                let hash = store_frame_hash(&frame);
                let expected = JobReady {
                    store_hash: hash,
                    golden: *golden,
                    checkpoints: store.len() as u64,
                    // Shipped mode: the driver built any prune map
                    // alongside the store; workers have nothing to add.
                    prune: None,
                };
                (
                    SetupMode::Shipped {
                        store_hash: hash,
                        golden: *golden,
                        cycle_budget: *cycle_budget,
                    },
                    Some(Arc::new(frame)),
                    Some(expected),
                )
            }
            GoldenSpec::Delegated {
                checkpoint_interval,
            } => (
                SetupMode::Delegated {
                    checkpoint_interval: *checkpoint_interval,
                },
                None,
                None,
            ),
        };
        let setup_frame = Arc::new(
            JobSetup {
                machine: spec.machine,
                program: spec.program,
                instr_budget: spec.instr_budget,
                fault_model: spec.fault_model,
                prune: spec.prune,
                mode,
            }
            .to_wire(),
        );

        // N workers handshake — and, in delegated mode, execute their
        // golden passes — in parallel.
        let handles: Vec<_> = self
            .addrs
            .iter()
            .map(|addr| {
                let addr = addr.clone();
                let setup_frame = Arc::clone(&setup_frame);
                let store_frame = store_frame.clone();
                let key = self.auth;
                std::thread::spawn(move || {
                    open_worker(
                        &addr,
                        &setup_frame,
                        store_frame.as_deref().map(Vec::as_slice),
                        key,
                    )
                })
            })
            .collect();
        let mut connections = Vec::with_capacity(self.addrs.len());
        let mut readys = Vec::with_capacity(self.addrs.len());
        let mut provisioning = Vec::with_capacity(self.addrs.len());
        for (handle, addr) in handles.into_iter().zip(&self.addrs) {
            let opened = handle.join().expect("handshake thread panicked")?;
            connections.push((addr.clone(), opened.stream, opened.auth));
            readys.push((addr.clone(), opened.ready));
            provisioning.push(WorkerProvision {
                worker: addr.clone(),
                source: opened.source,
            });
        }
        cross_check_ready(&readys)?;
        // Cross-check passed: every worker reported this identical
        // ready, prune map included — adopting worker 0's is adopting
        // all of them.
        let ready = readys[0].1.clone();
        if let Some(expected) = expected {
            if ready != expected {
                return Err(BackendError::Protocol(format!(
                    "workers acknowledged store {:016x} / digest {:016x}, driver shipped \
                     store {:016x} / digest {:016x}",
                    ready.store_hash,
                    ready.golden.digest,
                    expected.store_hash,
                    expected.golden.digest,
                )));
            }
        }
        Ok(OpenedJob {
            session: Box::new(RemoteSession(Arc::new(Mutex::new(Fleet::new(connections))))),
            golden: ready.golden,
            checkpoints: usize::try_from(ready.checkpoints).unwrap_or(usize::MAX),
            provisioning,
            prune: ready.prune.map(Arc::new),
        })
    }
}

/// A campaign session on the fleet. The fleet sits behind a lock only
/// so each batch's supervisor thread can own it while the driver drains
/// the stream; batches never overlap.
struct RemoteSession(Arc<Mutex<Fleet>>);

impl CampaignSession for RemoteSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let (tx, rx) = mpsc::channel();
        let fleet = Arc::clone(&self.0);
        let trials = trials.to_vec();
        let supervisor = std::thread::spawn(move || {
            let mut fleet = fleet.lock().expect("fleet lock");
            if let Err(e) = fleet.run(&TrialBatches, trials, &tx) {
                let _ = tx.send(Err(e));
            }
        });
        Ok(TrialStream::new(rx, vec![supervisor]))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.0.lock().expect("fleet lock").dispatch_log().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_sim::GoldenRun;

    fn ready(digest: u64) -> JobReady {
        JobReady {
            store_hash: 0xA1,
            golden: GoldenRun {
                cycles: 1000,
                committed: 900,
                digest,
            },
            checkpoints: 4,
            prune: None,
        }
    }

    #[test]
    fn cross_check_accepts_agreement_and_rejects_divergence() {
        let agree = vec![
            ("a:1".to_owned(), ready(7)),
            ("b:2".to_owned(), ready(7)),
            ("c:3".to_owned(), ready(7)),
        ];
        assert!(cross_check_ready(&agree).is_ok());

        let diverge = vec![("a:1".to_owned(), ready(7)), ("b:2".to_owned(), ready(8))];
        let err = cross_check_ready(&diverge).unwrap_err();
        assert!(
            matches!(&err, BackendError::Protocol(msg) if msg.contains("divergence")),
            "{err}"
        );
    }
}
