//! The supervised worker fleet: one dispatcher for both job kinds.
//!
//! Both loops of the methodology run on the same `serve` fleet. The
//! fault-injection campaign ships *trial batches* (`TRIAL_BATCH` out,
//! one `Event` per trial back); the GA search ships *genome batches*
//! (`EVAL_BATCH` out, one `EVAL_RESULT` per individual back). Both end
//! with `Done` and may be cut short by `Error`. Everything else is the
//! same, so it lives here once:
//!
//! * per-slot connection and frame-auth state, with dead slots kept in
//!   place so shard affinity of the survivors never shifts;
//! * one round of dispatch per batch, one drain thread per shard, each
//!   checking that every assigned index is acknowledged exactly once
//!   and that `Done` agrees with what streamed;
//! * re-dispatch of a dead worker's unacknowledged items to the
//!   survivors, logged as [`DispatchRecord`]s;
//! * the typed error when no worker is left.
//!
//! A [`JobKind`] supplies only what differs: the item index, how
//! pending items shard over live slots, the request encoder and the
//! ack decoder. Because every item's result is a pure function of the
//! item, a batch that lost a worker mid-flight yields exactly what the
//! fault-free run yields; only the dispatch log records the failure.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc;

use avf_inject::{
    encode_trial_batch, shard_trials, BackendError, DispatchRecord, Trial, TrialEvent,
};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use crate::eval::{genome_key, EvalBatch, EvalContext, EvalScore};
use crate::protocol::{remote_error, ServerMessage};

/// Where drains deliver acknowledgements. Drains only ever send `Ok`;
/// the error slot lets a batch's consumer see a fatal error in-stream.
pub type AckSink<A> = mpsc::Sender<Result<A, BackendError>>;

/// One decoded worker reply within a batch.
pub enum Reply<A> {
    /// One item's acknowledgement.
    Ack(A),
    /// End of the batch, with the number of acks the worker streamed.
    Done(u64),
    /// The worker reported a fatal error.
    Error(String),
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::TrialBatches {}
    impl Sealed for super::GenomeBatches {}
}

/// What differs between the two kinds of batch the fleet carries.
/// Sealed: [`TrialBatches`] and [`GenomeBatches`] are the only kinds.
pub trait JobKind: sealed::Sealed {
    /// One unit of work.
    type Item: Clone + Send + Sync;
    /// A worker's answer for one item.
    type Ack: Send;

    /// The driver-assigned index of an item.
    fn index(item: &Self::Item) -> u64;

    /// The index an ack answers.
    fn ack_index(ack: &Self::Ack) -> u64;

    /// Splits `pending` into `(slot, shard)` pairs over the live slots
    /// (`live` is ascending and non-empty; `fleet` counts every slot,
    /// dead ones included).
    fn shard(
        &self,
        pending: Vec<Self::Item>,
        live: &[usize],
        fleet: usize,
    ) -> Vec<(usize, Vec<Self::Item>)>;

    /// The request frame for one shard.
    fn encode(&self, shard: &[Self::Item]) -> Vec<u8>;

    /// Decodes one reply frame.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] for a malformed or out-of-place frame.
    fn decode(payload: &[u8]) -> Result<Reply<Self::Ack>, BackendError>;
}

/// Fault-injection trial batches: `TRIAL_BATCH` out, `Event`s back.
pub struct TrialBatches;

impl JobKind for TrialBatches {
    type Item = Trial;
    type Ack = TrialEvent;

    fn index(item: &Trial) -> u64 {
        item.index
    }

    fn ack_index(ack: &TrialEvent) -> u64 {
        ack.index
    }

    /// Cycle-sorted striding, so every shard is one forward pass.
    fn shard(
        &self,
        pending: Vec<Trial>,
        live: &[usize],
        _fleet: usize,
    ) -> Vec<(usize, Vec<Trial>)> {
        live.iter()
            .copied()
            .zip(shard_trials(&pending, live.len()))
            .collect()
    }

    fn encode(&self, shard: &[Trial]) -> Vec<u8> {
        encode_trial_batch(shard)
    }

    fn decode(payload: &[u8]) -> Result<Reply<TrialEvent>, BackendError> {
        match ServerMessage::from_wire(payload)? {
            ServerMessage::Event(ev) => Ok(Reply::Ack(ev)),
            ServerMessage::Done { events } => Ok(Reply::Done(events)),
            ServerMessage::Error(msg) => Ok(Reply::Error(msg)),
            other => Err(BackendError::Protocol(format!(
                "unexpected {other:?} mid-batch"
            ))),
        }
    }
}

/// GA genome batches: one generation's `(index, genome)` pairs scored
/// against `context`, `EVAL_BATCH` out, `EVAL_RESULT`s back.
pub struct GenomeBatches {
    /// What every individual is scored against.
    pub(crate) context: EvalContext,
    /// Generation number (worker logging only).
    pub(crate) generation: u64,
}

impl JobKind for GenomeBatches {
    type Item = (u64, Vec<f64>);
    type Ack = EvalScore;

    fn index(item: &(u64, Vec<f64>)) -> u64 {
        item.0
    }

    fn ack_index(ack: &EvalScore) -> u64 {
        ack.index
    }

    /// Genome affinity: a re-scored elite routes to the slot whose
    /// cache holds it. A dead preferred slot falls back to a live one,
    /// deterministically in the death pattern; scores never depend on
    /// who computed them.
    fn shard(
        &self,
        pending: Vec<(u64, Vec<f64>)>,
        live: &[usize],
        fleet: usize,
    ) -> Vec<(usize, Vec<(u64, Vec<f64>)>)> {
        let mut shards: Vec<Vec<(u64, Vec<f64>)>> = vec![Vec::new(); fleet];
        for item in pending {
            let key = genome_key(&item.1);
            let preferred = (key % fleet as u64) as usize;
            let slot = if live.binary_search(&preferred).is_ok() {
                preferred
            } else {
                live[(key % live.len() as u64) as usize]
            };
            shards[slot].push(item);
        }
        shards.into_iter().enumerate().collect()
    }

    fn encode(&self, shard: &[(u64, Vec<f64>)]) -> Vec<u8> {
        EvalBatch {
            context: self.context.clone(),
            generation: self.generation,
            individuals: shard.to_vec(),
        }
        .to_wire()
    }

    fn decode(payload: &[u8]) -> Result<Reply<EvalScore>, BackendError> {
        match ServerMessage::from_wire(payload)? {
            ServerMessage::Score(score) => Ok(Reply::Ack(score)),
            ServerMessage::Done { events } => Ok(Reply::Done(events)),
            ServerMessage::Error(msg) => Ok(Reply::Error(msg)),
            other => Err(BackendError::Protocol(format!(
                "unexpected {other:?} mid-batch"
            ))),
        }
    }
}

/// What one shard's drain observed.
pub(crate) enum Fate {
    /// Every item acknowledged once and `Done` checked out.
    Clean,
    /// The consumer dropped its end; stop quietly.
    ConsumerGone,
    /// The connection died. `leftover` holds the shard positions never
    /// acknowledged, ascending, for re-dispatch.
    Dead {
        leftover: Vec<usize>,
        error: BackendError,
    },
    /// Not retryable: a worker-reported error or a protocol violation.
    Fatal(BackendError),
}

/// Drains one shard's replies from `frames` into `sink`. Each index of
/// `shard` must be acknowledged exactly once before a `Done` whose
/// count matches; transport failure (EOF or `Io`) is connection death,
/// anything else is fatal.
pub(crate) fn drain<K: JobKind>(
    frames: &mut dyn FnMut() -> Result<Option<Vec<u8>>, BackendError>,
    peer: &str,
    shard: &[K::Item],
    sink: &AckSink<K::Ack>,
) -> Fate {
    let mut outstanding: HashMap<u64, usize> = shard
        .iter()
        .enumerate()
        .map(|(pos, item)| (K::index(item), pos))
        .collect();
    let dead = |outstanding: &HashMap<u64, usize>, detail: String| {
        // Shard order keeps re-dispatched trial shards cycle-sorted.
        let mut leftover: Vec<usize> = outstanding.values().copied().collect();
        leftover.sort_unstable();
        Fate::Dead {
            leftover,
            error: BackendError::Disconnected {
                worker: peer.to_owned(),
                detail,
            },
        }
    };
    let mut seen = 0u64;
    loop {
        let payload = match frames() {
            Ok(Some(payload)) => payload,
            Ok(None) => return dead(&outstanding, "connection closed mid-batch".to_owned()),
            // Transport failures, including a stream truncated inside a
            // frame, are connection death: typed and retryable.
            Err(BackendError::Io(detail)) => return dead(&outstanding, detail),
            Err(e) => return Fate::Fatal(e),
        };
        match K::decode(&payload) {
            Ok(Reply::Ack(ack)) => {
                let index = K::ack_index(&ack);
                if outstanding.remove(&index).is_none() {
                    return Fate::Fatal(BackendError::Protocol(format!(
                        "{peer} acknowledged item {index}, which it was never assigned \
                         (or acknowledged twice)"
                    )));
                }
                seen += 1;
                if sink.send(Ok(ack)).is_err() {
                    return Fate::ConsumerGone;
                }
            }
            Ok(Reply::Done(count)) => {
                if count != seen || !outstanding.is_empty() {
                    return Fate::Fatal(BackendError::Protocol(format!(
                        "{peer} reported {count} acks, streamed {seen}, expected {}",
                        shard.len()
                    )));
                }
                return Fate::Clean;
            }
            Ok(Reply::Error(msg)) => return Fate::Fatal(remote_error(msg)),
            Err(e) => return Fate::Fatal(e),
        }
    }
}

/// [`drain`] for a single peer with no survivors behind it (a broker
/// connection): connection death is just an error.
///
/// # Errors
///
/// Returns the [`BackendError`] that ended the batch early.
pub fn drain_batch<K: JobKind>(
    mut frames: impl FnMut() -> Result<Option<Vec<u8>>, BackendError>,
    peer: &str,
    batch: &[K::Item],
    sink: &AckSink<K::Ack>,
) -> Result<(), BackendError> {
    match drain::<K>(&mut frames, peer, batch, sink) {
        Fate::Clean | Fate::ConsumerGone => Ok(()),
        Fate::Dead { error, .. } | Fate::Fatal(error) => Err(error),
    }
}

struct Slot {
    addr: String,
    /// `None` once the connection died; the slot stays so slot numbers
    /// (and genome affinity) are stable for the fleet's lifetime.
    stream: Option<TcpStream>,
    /// Frame-auth state for the connection's whole life, shared by the
    /// dispatching writer and the draining reader.
    auth: Option<ConnectionAuth>,
}

/// Persistent connections to a worker fleet, supervised: shards of a
/// dead worker are re-dispatched to survivors, and only an all-dead
/// fleet (or a protocol violation) fails a batch.
pub struct Fleet {
    slots: Vec<Slot>,
    log: Vec<DispatchRecord>,
    batches: u64,
    last_error: Option<BackendError>,
}

impl Fleet {
    /// A fleet over already-open connections, one slot each.
    pub(crate) fn new(connections: Vec<(String, TcpStream, Option<ConnectionAuth>)>) -> Fleet {
        Fleet {
            slots: connections
                .into_iter()
                .map(|(addr, stream, auth)| Slot {
                    addr,
                    stream: Some(stream),
                    auth,
                })
                .collect(),
            log: Vec::new(),
            batches: 0,
            last_error: None,
        }
    }

    /// Connects to every worker up front; any refused connection fails
    /// the whole fleet (starting against a half-broken fleet is a
    /// configuration error, not a runtime fault).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if `addrs` is empty or any connection
    /// fails.
    pub fn connect(addrs: &[String], key: Option<AuthKey>) -> Result<Fleet, BackendError> {
        if addrs.is_empty() {
            return Err(BackendError::Protocol(
                "a fleet needs at least one worker address".to_owned(),
            ));
        }
        let mut connections = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
            // Ack frames are tiny; don't let Nagle batch them up.
            let _ = stream.set_nodelay(true);
            connections.push((addr.clone(), stream, key.map(ConnectionAuth::client)));
        }
        Ok(Fleet::new(connections))
    }

    /// Every dispatch so far, in order, re-dispatches included.
    pub(crate) fn dispatch_log(&self) -> &[DispatchRecord] {
        &self.log
    }

    /// Items re-dispatched to survivors after worker deaths.
    #[must_use]
    pub fn redispatched(&self) -> u64 {
        self.log
            .iter()
            .filter(|d| d.redispatched)
            .map(|d| d.trials)
            .sum()
    }

    fn kill(&mut self, slot: usize, error: BackendError) {
        eprintln!("fleet: lost worker {}: {error}", self.slots[slot].addr);
        self.slots[slot].stream = None;
        self.last_error = Some(error);
    }

    /// Writes one shard's request and returns the read half to drain.
    fn dispatch(&self, slot: usize, frame: &[u8]) -> Result<TcpStream, BackendError> {
        let slot = &self.slots[slot];
        let stream = slot.stream.as_ref().expect("dispatch to a live slot");
        let mut w = BufWriter::new(stream);
        write_frame_signed(&mut w, frame, slot.auth.as_ref().map(|a| a.signer.as_ref()))?;
        w.flush()?;
        stream
            .try_clone()
            .map_err(|e| BackendError::Io(format!("clone stream: {e}")))
    }

    /// Runs one batch to completion, sending every ack to `sink`: shard
    /// over the live slots, drain each shard on its own thread, then
    /// re-dispatch whatever dead workers left unacknowledged. Returns
    /// early and quietly if the sink's consumer hangs up.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when no live worker remains or a
    /// worker fails non-retryably.
    pub(crate) fn run<K: JobKind>(
        &mut self,
        job: &K,
        mut pending: Vec<K::Item>,
        sink: &AckSink<K::Ack>,
    ) -> Result<(), BackendError> {
        let batch = self.batches;
        self.batches += 1;
        let mut redispatched = false;
        while !pending.is_empty() {
            let live: Vec<usize> = (0..self.slots.len())
                .filter(|&s| self.slots[s].stream.is_some())
                .collect();
            if live.is_empty() {
                return Err(self
                    .last_error
                    .take()
                    .unwrap_or_else(|| BackendError::Disconnected {
                        worker: "all".to_owned(),
                        detail: "no live worker remains to dispatch to".to_owned(),
                    }));
            }
            if redispatched {
                eprintln!(
                    "fleet: re-dispatching {} unacknowledged item(s) to {} survivor(s)",
                    pending.len(),
                    live.len()
                );
            }
            let mut deferred = Vec::new();
            let mut round = Vec::new();
            for (slot, shard) in job.shard(pending, &live, self.slots.len()) {
                if shard.is_empty() {
                    continue;
                }
                match self.dispatch(slot, &job.encode(&shard)) {
                    Ok(reader) => {
                        self.log.push(DispatchRecord {
                            batch,
                            worker: self.slots[slot].addr.clone(),
                            trials: shard.len() as u64,
                            redispatched,
                        });
                        round.push((slot, shard, reader));
                    }
                    Err(e) => {
                        let error = BackendError::Disconnected {
                            worker: self.slots[slot].addr.clone(),
                            detail: e.to_string(),
                        };
                        self.kill(slot, error);
                        deferred.extend(shard);
                    }
                }
            }

            // Drain every dispatched shard concurrently, and join the
            // whole round before re-dispatching, so a survivor is never
            // written to while its reader is mid-stream.
            let slots = &self.slots;
            let fates: Vec<Fate> = std::thread::scope(|scope| {
                let handles: Vec<_> = round
                    .iter()
                    .map(|(slot, shard, reader)| {
                        let slot = &slots[*slot];
                        scope.spawn(move || {
                            let verifier = slot.auth.as_ref().map(|a| a.verifier.as_ref());
                            let mut reader = BufReader::new(reader);
                            drain::<K>(
                                &mut || read_frame_verified(&mut reader, verifier),
                                &slot.addr,
                                shard,
                                sink,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            let mut fatal = None;
            let mut consumer_gone = false;
            for ((slot, shard, _), fate) in round.into_iter().zip(fates) {
                match fate {
                    Fate::Clean => {}
                    Fate::ConsumerGone => consumer_gone = true,
                    Fate::Dead { leftover, error } => {
                        self.kill(slot, error);
                        deferred.extend(leftover.into_iter().map(|pos| shard[pos].clone()));
                    }
                    Fate::Fatal(e) => fatal = fatal.or(Some(e)),
                }
            }
            if consumer_gone {
                return Ok(());
            }
            if let Some(e) = fatal {
                return Err(e);
            }
            pending = deferred;
            redispatched = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_ace::{FaultRates, Fitness};
    use avf_inject::Outcome;
    use avf_sim::{InjectionTarget, MachineConfig};

    type Frame = Result<Option<Vec<u8>>, BackendError>;

    /// Runs [`drain`] over a scripted frame source, returning the fate
    /// and the indices that reached the sink.
    fn run<K: JobKind>(shard: &[K::Item], script: Vec<Frame>) -> (Fate, Vec<u64>) {
        let mut script = script.into_iter();
        let (tx, rx) = mpsc::channel();
        let fate = drain::<K>(&mut || script.next().unwrap_or(Ok(None)), "w:1", shard, &tx);
        drop(tx);
        let acked = rx
            .into_iter()
            .map(|ack| K::ack_index(&ack.expect("drains only send acks")))
            .collect();
        (fate, acked)
    }

    fn done(count: u64) -> Frame {
        Ok(Some(ServerMessage::Done { events: count }.to_wire()))
    }

    fn protocol(fate: &Fate) -> bool {
        matches!(fate, Fate::Fatal(BackendError::Protocol(_)))
    }

    /// Every drain case, for one job kind: `shard` holds items with
    /// indices 10, 20, 30 (in that shard order) and `ack` encodes a
    /// worker's answer for an index.
    fn drain_cases<K: JobKind>(shard: &[K::Item], ack: fn(u64) -> Frame) {
        let (fate, acked) = run::<K>(shard, vec![ack(20), ack(10), ack(30), done(3)]);
        assert!(matches!(fate, Fate::Clean));
        assert_eq!(acked, [20, 10, 30], "acks stream in arrival order");

        let (fate, _) = run::<K>(shard, vec![ack(10), ack(10)]);
        assert!(protocol(&fate), "a repeated index is fatal");

        let (fate, _) = run::<K>(shard, vec![ack(10), ack(11)]);
        assert!(protocol(&fate), "an unassigned index is fatal");

        let (fate, _) = run::<K>(shard, vec![ack(10), ack(20), ack(30), done(4)]);
        assert!(protocol(&fate), "Done must count what streamed");
        let (fate, _) = run::<K>(shard, vec![ack(10), ack(20), done(2)]);
        assert!(protocol(&fate), "Done before every index is acked");

        for death in [Ok(None), Err(BackendError::Io("reset".to_owned()))] {
            let (fate, acked) = run::<K>(shard, vec![ack(20), death]);
            assert_eq!(acked, [20]);
            match fate {
                Fate::Dead { leftover, error } => {
                    assert_eq!(leftover, [0, 2], "the unacked items, in shard order");
                    assert!(matches!(error, BackendError::Disconnected { .. }));
                }
                _ => panic!("EOF or Io mid-shard is connection death"),
            }
        }

        // A worker-reported error is fatal, never Dead: the supervisor
        // only re-dispatches the leftovers of a dead connection.
        let error = Ok(Some(ServerMessage::Error("boom".to_owned()).to_wire()));
        let (fate, _) = run::<K>(shard, vec![ack(10), error]);
        assert!(matches!(fate, Fate::Fatal(BackendError::Remote(msg)) if msg == "boom"));
        let auth = Err(BackendError::Auth("bad tag".to_owned()));
        let (fate, _) = run::<K>(shard, vec![auth]);
        assert!(matches!(fate, Fate::Fatal(BackendError::Auth(_))));
    }

    #[test]
    fn drain_checks_trial_batches() {
        let trial = |index| Trial {
            index,
            target: InjectionTarget::Rob,
            cycle: index * 7,
            entry: 0,
            bit: 0,
        };
        let ack = |index| {
            Ok(Some(
                ServerMessage::Event(TrialEvent {
                    index,
                    target: InjectionTarget::Rob,
                    outcome: Outcome::Masked,
                })
                .to_wire(),
            ))
        };
        drain_cases::<TrialBatches>(&[trial(10), trial(20), trial(30)], ack);
    }

    #[test]
    fn drain_checks_genome_batches() {
        let ack = |index| {
            Ok(Some(
                EvalScore {
                    index,
                    score: 0.5,
                    cached: false,
                }
                .to_wire(),
            ))
        };
        drain_cases::<GenomeBatches>(&[(10, vec![0.1]), (20, vec![0.2]), (30, vec![0.3])], ack);
    }

    #[test]
    fn genome_shards_keep_affinity_and_fall_back_to_live_slots() {
        let job = GenomeBatches {
            context: EvalContext {
                machine: MachineConfig::baseline(),
                fitness: Fitness::overall(FaultRates::baseline()),
                instr_budget: 1,
            },
            generation: 0,
        };
        let items: Vec<(u64, Vec<f64>)> = (0..32).map(|i| (i, vec![i as f64 / 32.0])).collect();
        for (slot, shard) in job.shard(items.clone(), &[0, 1, 2], 3) {
            for (_, genes) in shard {
                assert_eq!(genome_key(&genes) % 3, slot as u64, "preferred slot");
            }
        }
        let shards = job.shard(items, &[0, 2], 3);
        assert!(shards[1].1.is_empty(), "a dead slot gets nothing");
        let placed: usize = shards.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(placed, 32, "shards partition the batch");
    }
}
