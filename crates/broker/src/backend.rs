//! [`BrokeredBackend`] and [`BrokeredEvaluator`]: run a campaign or a
//! GA search through the broker's worker fleet over one authenticated
//! connection.
//!
//! Both speak the ordinary worker protocol — a campaign's setup and
//! trial batches, a search's genome batches — wrapped in `MUX` frames
//! on a persistent broker connection, so [`avf_inject::Campaign::run_on`]
//! and [`avf_ga::optimize`] need no changes: the broker is just another
//! venue. The broker relays each batch onto its supervised worker fleet
//! ([`avf_service::Fleet`]), so re-dispatch, StoreCache reuse, genome
//! affinity and golden-run cross-checking all happen on the far side.
//! Driver-side, both job kinds drain their acks through the same
//! index-once drain the fleet uses ([`drain_batch`]), unwrapped from
//! `MUX` by one reader: a repeated, unassigned or missing index is a
//! protocol error, not a miscounted batch.
//!
//! Brokered campaigns are delegated-golden only (`GoldenMode::Worker`):
//! shipping a checkpoint store through the broker would buy nothing
//! over direct worker connections and would double its transfer.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use avf_ga::{EvalError, FitnessEvaluator};
use avf_inject::{
    encode_trial_batch, BackendError, CampaignBackend, CampaignSession, DispatchRecord, GoldenSpec,
    JobSpec, OpenedJob, StoreSource, Trial, TrialStream, WorkerProvision,
};
use avf_service::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use avf_service::fleet::{drain_batch, AckSink, GenomeBatches, JobKind, TrialBatches};
use avf_service::protocol::{JobSetup, Mux, ServerMessage, SetupMode};
use avf_service::{EvalBatch, EvalContext, EvalScore, EvalVenue, VenueEvaluator};

use crate::protocol::{Reply, Request};

/// Shared state of one brokered connection: a locked write half (so
/// MAC sequence order matches byte order) and a locked read half (one
/// reader at a time — the protocol is strictly request/response per
/// session, so batch drains never overlap).
struct Conn {
    addr: String,
    stream: TcpStream,
    reader: Mutex<BufReader<TcpStream>>,
    auth: Option<ConnectionAuth>,
}

impl Conn {
    fn send_payload(&self, payload: &[u8]) -> Result<(), BackendError> {
        let mut w = BufWriter::new(&self.stream);
        write_frame_signed(
            &mut w,
            payload,
            self.auth.as_ref().map(|a| a.signer.as_ref()),
        )?;
        w.flush().map_err(BackendError::from)
    }

    fn recv_payload(
        &self,
        reader: &mut BufReader<TcpStream>,
    ) -> Result<Option<Vec<u8>>, BackendError> {
        read_frame_verified(reader, self.auth.as_ref().map(|a| a.verifier.as_ref()))
    }

    fn closed(&self) -> BackendError {
        BackendError::Disconnected {
            worker: self.addr.clone(),
            detail: "broker closed the connection".to_owned(),
        }
    }

    /// Receives the next MUX-wrapped frame for `tag`, unwrapped; `None`
    /// when the broker closed the connection.
    fn recv_mux(
        &self,
        reader: &mut BufReader<TcpStream>,
        tag: u64,
    ) -> Result<Option<Vec<u8>>, BackendError> {
        let Some(payload) = self.recv_payload(reader)? else {
            return Ok(None);
        };
        match Reply::from_wire(&payload)? {
            Reply::Mux(mux) if mux.tag == tag => Ok(Some(mux.inner)),
            Reply::Mux(mux) => Err(BackendError::Protocol(format!(
                "broker answered on MUX tag {} while tag {tag} was active",
                mux.tag
            ))),
            // A session-level Failed frame (bad hello, auth trouble)
            // surfaces as a typed remote error, not a codec mismatch.
            Reply::Failed { error, .. } => Err(BackendError::Remote(error)),
            _ => Err(BackendError::Protocol(format!(
                "broker sent a non-MUX reply while tag {tag} was active"
            ))),
        }
    }
}

/// One `MUX`-tagged session on a broker connection: a campaign, or a
/// whole search. Dropping it sends the end-of-session marker (an empty
/// `MUX` payload), which releases the broker's scheduler slot for the
/// next session on this persistent connection. Best-effort — if the
/// connection is gone the broker notices that instead.
struct Tagged {
    conn: Arc<Conn>,
    tag: u64,
}

impl Tagged {
    fn send(&self, inner: Vec<u8>) -> Result<(), BackendError> {
        self.conn
            .send_payload(&Mux::wrap(self.tag, inner).to_wire())
    }

    /// Drains one batch's acks into `sink`, each index exactly once.
    /// Holds the read half for the whole batch: the broker sends
    /// nothing else on this session until `Done`.
    fn drain<K: JobKind>(
        &self,
        batch: &[K::Item],
        sink: &AckSink<K::Ack>,
    ) -> Result<(), BackendError> {
        let mut reader = self.conn.reader.lock().expect("reader lock");
        drain_batch::<K>(
            || self.conn.recv_mux(&mut reader, self.tag),
            &format!("broker({})", self.conn.addr),
            batch,
            sink,
        )
    }
}

impl Drop for Tagged {
    fn drop(&mut self) {
        let _ = self.send(Vec::new());
    }
}

/// A campaign backend that executes trials through a broker.
pub struct BrokeredBackend {
    conn: Arc<Conn>,
    workers: usize,
    next_tag: AtomicU64,
}

impl BrokeredBackend {
    /// Connects to the broker at `addr` and opens the session as
    /// `tenant` (the fair-scheduling unit this campaign bills to).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a key mismatch, or a broker fronting
    /// zero workers.
    pub fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
    ) -> Result<BrokeredBackend, BackendError> {
        let (conn, workers) = open_conn(addr, tenant, key)?;
        Ok(BrokeredBackend {
            conn: Arc::new(conn),
            workers,
            next_tag: AtomicU64::new(1),
        })
    }
}

/// Connects, says hello as `tenant`, and returns the live connection
/// plus the broker's advertised worker count.
fn open_conn(
    addr: &str,
    tenant: &str,
    key: Option<AuthKey>,
) -> Result<(Conn, usize), BackendError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| BackendError::Io(format!("clone stream: {e}")))?,
    );
    let conn = Conn {
        addr: addr.to_owned(),
        stream,
        reader: Mutex::new(reader),
        auth: key.map(ConnectionAuth::client),
    };
    conn.send_payload(
        &Request::Hello {
            tenant: tenant.to_owned(),
        }
        .to_wire(),
    )?;
    let workers = {
        let mut reader = conn.reader.lock().expect("reader lock");
        let payload = conn
            .recv_payload(&mut reader)?
            .ok_or_else(|| conn.closed())?;
        match Reply::from_wire(&payload)? {
            Reply::HelloAck { workers } => workers as usize,
            Reply::Failed { error, .. } => return Err(BackendError::Remote(error)),
            other => {
                return Err(BackendError::Protocol(format!(
                    "broker answered hello with {other:?}"
                )))
            }
        }
    };
    if workers == 0 {
        return Err(BackendError::Protocol(
            "broker fronts no workers".to_owned(),
        ));
    }
    Ok((conn, workers))
}

impl CampaignBackend for BrokeredBackend {
    fn workers(&self) -> usize {
        self.workers
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let GoldenSpec::Delegated {
            checkpoint_interval,
        } = spec.golden
        else {
            return Err(BackendError::Protocol(
                "brokered campaigns are delegated-golden only (golden mode `worker`)".to_owned(),
            ));
        };
        let session = Tagged {
            conn: Arc::clone(&self.conn),
            tag: self.next_tag.fetch_add(1, Ordering::Relaxed),
        };
        let setup = JobSetup {
            machine: spec.machine,
            program: spec.program,
            instr_budget: spec.instr_budget,
            fault_model: spec.fault_model,
            prune: spec.prune,
            mode: SetupMode::Delegated {
                checkpoint_interval,
            },
        };
        session.send(setup.to_wire())?;
        let ready = {
            let mut reader = self.conn.reader.lock().expect("reader lock");
            let payload = self
                .conn
                .recv_mux(&mut reader, session.tag)?
                .ok_or_else(|| self.conn.closed())?;
            match ServerMessage::from_wire(&payload)? {
                ServerMessage::Ready(ready) => ready,
                ServerMessage::Error(msg) => return Err(BackendError::Remote(msg)),
                other => {
                    return Err(BackendError::Protocol(format!(
                        "broker answered setup with {other:?} instead of JOB_READY"
                    )))
                }
            }
        };
        // One provision entry per fleet worker: the broker's fleet ran
        // (or cache-hit) the golden pass; the driver shipped nothing.
        let provisioning = (0..self.workers)
            .map(|i| WorkerProvision {
                worker: format!("broker({}) worker {i}", self.conn.addr),
                source: StoreSource::GoldenRun,
            })
            .collect();
        Ok(OpenedJob {
            session: Box::new(BrokeredSession {
                session: Arc::new(session),
                log: Vec::new(),
            }),
            golden: ready.golden,
            checkpoints: usize::try_from(ready.checkpoints).unwrap_or(usize::MAX),
            provisioning,
            prune: ready.prune.map(Arc::new),
        })
    }
}

struct BrokeredSession {
    /// Shared with each batch's drainer thread, so the end-of-session
    /// marker goes out only once no drain is in flight.
    session: Arc<Tagged>,
    log: Vec<DispatchRecord>,
}

impl CampaignSession for BrokeredSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        self.session.send(encode_trial_batch(trials))?;
        self.log.push(DispatchRecord {
            batch: self.log.len() as u64,
            worker: format!("broker({})", self.session.conn.addr),
            trials: trials.len() as u64,
            redispatched: false,
        });
        let (tx, rx) = mpsc::channel();
        let session = Arc::clone(&self.session);
        let trials = trials.to_vec();
        let drainer = std::thread::spawn(move || {
            if let Err(e) = session.drain::<TrialBatches>(&trials, &tx) {
                let _ = tx.send(Err(e));
            }
        });
        Ok(TrialStream::new(rx, vec![drainer]))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.log.clone()
    }
}

impl EvalVenue for Tagged {
    fn score(&mut self, batch: EvalBatch) -> Result<Vec<EvalScore>, BackendError> {
        self.send(batch.to_wire())?;
        let (tx, rx) = mpsc::channel();
        self.drain::<GenomeBatches>(&batch.individuals, &tx)?;
        drop(tx);
        rx.into_iter().collect()
    }
}

/// A fitness evaluator that scores GA generations through the broker
/// (wire v7): the evaluation analogue of [`BrokeredBackend`].
///
/// One authenticated connection, one MUX tag for the whole search.
/// Each generation becomes one `EVAL_BATCH` that the broker relays
/// onto its worker fleet as a genome batch — so genome-cache affinity
/// and death re-dispatch come from the same fleet the direct
/// `--workers` path uses, behind the broker's admission control and
/// fair scheduling.
pub struct BrokeredEvaluator(VenueEvaluator<Tagged>);

impl BrokeredEvaluator {
    /// Connects to the broker at `addr` as `tenant` and binds the
    /// session to an evaluation context.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a key mismatch, or a broker fronting
    /// zero workers.
    pub fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
        context: EvalContext,
    ) -> Result<BrokeredEvaluator, BackendError> {
        let (conn, _workers) = open_conn(addr, tenant, key)?;
        let session = Tagged {
            conn: Arc::new(conn),
            tag: 1,
        };
        Ok(BrokeredEvaluator(VenueEvaluator::new(session, context)))
    }

    /// Worker-reported cache hits across the search (observability; not
    /// part of the deterministic evaluation count).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.0.cache_hits()
    }
}

impl FitnessEvaluator for BrokeredEvaluator {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        self.0.evaluate(generation)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use avf_inject::{FaultModel, Outcome, TrialEvent};
    use avf_service::frame::{read_frame, write_frame};
    use avf_service::protocol::JobReady;
    use avf_sim::{GoldenRun, InjectionTarget, MachineConfig};

    /// A fake broker that says hello, answers the setup with a MUX
    /// `Ready`, then answers the first batch with `replies`.
    fn scripted_broker(replies: Vec<ServerMessage>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake broker");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(&stream);
            let mut w = BufWriter::new(&stream);
            let mut send = |payload: Vec<u8>| {
                write_frame(&mut w, &payload).expect("write");
                w.flush().expect("flush");
            };
            let _hello = read_frame(&mut reader).expect("hello");
            send(Reply::HelloAck { workers: 1 }.to_wire());
            let setup = read_frame(&mut reader).expect("setup").expect("setup");
            let Ok(Request::Mux(Mux { tag, .. })) = Request::from_wire(&setup) else {
                panic!("expected a MUX-wrapped setup");
            };
            let ready = JobReady {
                store_hash: 0,
                golden: GoldenRun {
                    cycles: 5_000,
                    committed: 4_000,
                    digest: 0x1234,
                },
                checkpoints: 1,
                prune: None,
            };
            send(Mux::wrap(tag, ServerMessage::Ready(ready).to_wire()).to_wire());
            let _batch = read_frame(&mut reader).expect("batch");
            for reply in replies {
                send(Mux::wrap(tag, reply.to_wire()).to_wire());
            }
            // Hold the connection until the driver hangs up.
            while let Ok(Some(_)) = read_frame(&mut reader) {}
        });
        addr
    }

    fn event(index: u64) -> ServerMessage {
        ServerMessage::Event(TrialEvent {
            index,
            target: InjectionTarget::Rob,
            outcome: Outcome::Masked,
        })
    }

    fn submit_two_trials(addr: &str) -> Vec<Result<TrialEvent, BackendError>> {
        let backend = BrokeredBackend::connect(addr, "t", None).expect("connect");
        let opened = backend
            .open(JobSpec {
                machine: MachineConfig::baseline(),
                program: avf_workloads::testkit::register_chain(),
                instr_budget: 6_000,
                fault_model: FaultModel::default(),
                golden: GoldenSpec::Delegated {
                    checkpoint_interval: 512,
                },
                prune: false,
            })
            .expect("open");
        let trials: Vec<Trial> = (0..2)
            .map(|index| Trial {
                index,
                target: InjectionTarget::Rob,
                cycle: 1 + index,
                entry: 0,
                bit: 0,
            })
            .collect();
        let mut session = opened.session;
        session.submit(&trials).expect("submit").collect()
    }

    #[test]
    fn brokered_drain_rejects_a_repeated_trial_index() {
        // Two events for trial 0 plus a `Done` that counts two: the
        // event count checks out, but trial 0 would be counted twice
        // and trial 1 never.
        let addr = scripted_broker(vec![event(0), event(0), ServerMessage::Done { events: 2 }]);
        let results = submit_two_trials(&addr);
        assert!(
            matches!(results.last(), Some(Err(BackendError::Protocol(_)))),
            "{results:?}"
        );
    }
}
