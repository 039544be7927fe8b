//! The workspace's one wire codec idiom.
//!
//! Everything that crosses a process boundary — checkpoint snapshots,
//! campaign and search protocol frames, broker requests and replies,
//! durable-log records — is a little-endian byte blob built from the
//! same few pieces on [`WireWriter`]/[`WireReader`]:
//!
//! * fixed-width scalars (`u8`..`u64`, `i16`, `i32`, bit-exact `f64`,
//!   `bool`, `usize` as `u64`) and length-prefixed UTF-8 strings;
//! * [`WireWriter::seq`]/[`WireReader::seq`]: a `u64` count, then each
//!   element. The reader bounds the count by the bytes left and the
//!   element's wire minimum *before* allocating, so a hostile count
//!   fails typed instead of reserving gigabytes;
//! * [`WireWriter::opt`]/[`WireReader::opt`]: a 0/1 tag, then the value;
//! * [`WireWriter::blob`]/[`WireReader::blob`]: length-prefixed bytes;
//! * [`WireWriter::code`]/[`WireReader::code`]: a C-like enum as its
//!   position in a declaration-order `&'static [T]` table — an unknown
//!   code is [`WireError::BadTag`];
//! * [`WireWriter::frame`]/[`WireReader::frame`] (and
//!   [`WireReader::frame_any`] for a direction with many kinds): the
//!   self-describing envelope ([`WIRE_MAGIC`], [`WIRE_VERSION`], a
//!   [`kind`] byte) around one body, with the reader enforcing that the
//!   body consumed every byte.
//!
//! Body codecs are plain `encode(&self, &mut WireWriter)` /
//! `decode(&mut WireReader, ..context)` functions, not traits: several
//! need decoding context (the program a snapshot re-fetches from, the
//! cache geometry it rebuilds onto). Both ends are the same build of
//! this workspace, so the format carries no schema; any layout change
//! bumps [`WIRE_VERSION`].

use std::fmt;

/// Magic number opening every enveloped wire blob ("AVFW").
///
/// Once blobs cross a socket or land on disk, a stale or foreign payload
/// must fail *identifiably* — a magic mismatch means "this is not ours at
/// all", a version mismatch means "ours, but from an incompatible build"
/// — rather than surfacing as a random [`WireError::BadTag`] deep inside
/// the payload.
pub const WIRE_MAGIC: [u8; 4] = *b"AVFW";

/// Format version of every enveloped blob. Bump on any incompatible
/// change to an enveloped payload's layout.
///
/// v3: `JOB_SETUP` no longer embeds the checkpoint store inline — it
/// carries a content hash plus a golden-run mode, with the store (when
/// needed at all) following in a separate `STORE_DATA` frame after a
/// `STORE_NEED` reply.
///
/// v4: the micro-op replay oracle. Snapshot `DynInst` records now carry
/// the fetch-time source-operand values the oracle replays corrupted
/// micro-ops with, `JOB_SETUP` carries the campaign's fault model
/// (trap vs replay), and trial events gained the `ReplayDiverged`
/// outcome code for corrupted entries that decode to architecturally
/// impossible states.
///
/// v5: pre-campaign injection-site pruning. `JOB_SETUP` carries the
/// campaign's prune flag and `JOB_READY` optionally carries the
/// worker-built `PruneMap` (per-target masked-site strata with proof
/// tags), so delegated workers and the driver agree bit-for-bit on the
/// stratified sampling space.
///
/// v6: the campaign broker. New envelope kinds for broker sessions
/// (hello/submit/attach/status/report and campaign-id-tagged `MUX`
/// frames that interleave many campaigns on one socket), a wire codec
/// for complete `CampaignReport`s (requiring `f64` scalar support),
/// and the broker's durable on-disk campaign log records. Frames may
/// additionally carry a keyed-hash authentication tag *outside* the
/// envelope (see `avf-service`'s auth module); the envelope layout
/// itself is unchanged.
///
/// v7: distributed stressmark search. The protocol carries GA fitness
/// jobs, not just injection campaigns: `EVAL_BATCH` ships one
/// generation of genomes (knobs, not programs — each individual is
/// codegen'd worker-side) plus the machine, fault rates, fitness
/// scope, and evaluation budget; `EVAL_RESULT` streams back one
/// individual's score with a cache flag, terminated by the existing
/// `BATCH_DONE` marker.
pub const WIRE_VERSION: u8 = 7;

/// Bytes an envelope occupies on the wire: magic + version + kind.
pub const ENVELOPE_BYTES: usize = 6;

/// Registry of envelope kind bytes, so the payload kinds that cross
/// process boundaries cannot collide.
pub mod kind {
    /// A serialized [`avf-sim`] pipeline snapshot (checkpoint blob).
    pub const SNAPSHOT: u8 = 1;
    /// A campaign job specification (program + machine + store hash).
    pub const JOB_SETUP: u8 = 2;
    /// One batch of planned injection trials.
    pub const TRIAL_BATCH: u8 = 3;
    /// One classified per-trial outcome event.
    pub const TRIAL_EVENT: u8 = 4;
    /// End-of-batch marker carrying the event count for the batch.
    pub const BATCH_DONE: u8 = 5;
    /// A fatal error reported by a campaign worker.
    pub const SERVICE_ERROR: u8 = 6;
    /// Worker already holds the job's checkpoint store (cache hit).
    pub const STORE_HAVE: u8 = 7;
    /// Worker needs the job's checkpoint store (cache miss).
    pub const STORE_NEED: u8 = 8;
    /// A full checkpoint store shipped in response to [`STORE_NEED`].
    pub const STORE_DATA: u8 = 9;
    /// Worker finished job setup (store resolved, golden run known).
    pub const JOB_READY: u8 = 10;
    /// Driver submits a campaign spec to the broker for queued execution.
    pub const BROKER_SUBMIT: u8 = 11;
    /// Broker accepted a submitted campaign (carries its campaign id).
    pub const BROKER_ACCEPTED: u8 = 12;
    /// Broker rejected a submission (typed admission-control reason).
    pub const BROKER_REJECTED: u8 = 13;
    /// Driver asks for a campaign's current state / final report.
    pub const BROKER_ATTACH: u8 = 14;
    /// Broker reports a campaign's queue/progress state.
    pub const BROKER_STATUS: u8 = 15;
    /// Broker delivers a completed campaign's full `CampaignReport`.
    pub const BROKER_REPORT: u8 = 16;
    /// Broker reports that a campaign failed (carries the error text).
    pub const BROKER_FAILED: u8 = 17;
    /// Durable-log record: a campaign spec was accepted into the queue.
    pub const LOG_ACCEPTED: u8 = 18;
    /// Durable-log record: a trial batch of a running campaign finished.
    pub const LOG_PROGRESS: u8 = 19;
    /// Campaign-id-tagged frame multiplexing one campaign's inner
    /// protocol frame onto a shared broker connection.
    pub const MUX: u8 = 20;
    /// First frame of a broker session: tenant name + intent.
    pub const BROKER_HELLO: u8 = 21;
    /// Broker's reply to [`BROKER_HELLO`] (fleet size, session id).
    pub const BROKER_HELLO_ACK: u8 = 22;
    /// One GA generation of genomes to score (machine, rates, scope,
    /// budget, and `(index, genome)` pairs — the worker codegens each
    /// individual from its genome).
    pub const EVAL_BATCH: u8 = 23;
    /// One individual's fitness score (index, score, cache flag).
    pub const EVAL_RESULT: u8 = 24;
}

/// 64-bit FNV-1a content hash with a leading domain byte.
///
/// This keys the worker-side checkpoint-store cache: hashes over
/// different byte streams in different *domains* (store contents vs.
/// delegated-job parameters) must not collide structurally, so every
/// hash mixes in a domain tag first. Not cryptographic — the cache is a
/// bandwidth optimization between trusted peers, and a mismatch is
/// re-verified by the worker before use.
#[must_use]
pub fn content_hash64(domain: u8, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = (OFFSET ^ u64::from(domain)).wrapping_mul(PRIME);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Error decoding a wire blob: truncated input, a bad tag, an envelope
/// mismatch, or a value inconsistent with the decoder's machine
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum/option tag byte had an unknown value.
    BadTag(u8),
    /// The envelope does not start with [`WIRE_MAGIC`]: the payload is
    /// not an AVF wire blob at all (garbage, or a foreign protocol).
    BadMagic([u8; 4]),
    /// The envelope carries a format version this build does not speak.
    UnsupportedVersion {
        /// Version byte found in the envelope.
        found: u8,
        /// The version this build encodes and decodes ([`WIRE_VERSION`]).
        expected: u8,
    },
    /// The envelope's kind byte is not the kind the decoder expected
    /// (e.g. a trial-batch frame where a job-setup frame belongs).
    WrongKind {
        /// Kind byte found in the envelope.
        found: u8,
        /// Kind the decoder required.
        expected: u8,
    },
    /// A decoded value is impossible for the decoding configuration
    /// (e.g. an entry index past the structure's geometry).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:02x?} (not an AVF blob)"),
            WireError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "wire format version {found} (this build speaks {expected})"
                )
            }
            WireError::WrongKind { found, expected } => {
                write!(
                    f,
                    "wire envelope kind {found} where kind {expected} was expected"
                )
            }
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Position of `value` in its wire `table`: the code
/// [`WireWriter::code`] writes for it.
///
/// # Panics
///
/// Panics if `value` is missing from `table` — a table must list every
/// variant of its enum.
#[must_use]
pub fn code_of<T: PartialEq>(table: &[T], value: T) -> u8 {
    let index = table
        .iter()
        .position(|t| *t == value)
        .expect("every variant is in its wire table");
    u8::try_from(index).expect("wire tables hold at most 256 entries")
}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Encodes one enveloped frame: [`WIRE_MAGIC`], the build's
    /// [`WIRE_VERSION`], the `kind` byte (see [`kind`]), then whatever
    /// `body` writes. Every blob that can cross a process or machine
    /// boundary is one, so stale, truncated, or foreign payloads are
    /// rejected with a typed error before any body field is touched.
    #[must_use]
    pub fn frame(kind: u8, body: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.buf.extend_from_slice(&WIRE_MAGIC);
        w.buf.push(WIRE_VERSION);
        w.buf.push(kind);
        body(&mut w);
        w.buf
    }

    /// Finishes encoding and returns the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i16`.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (little-endian
    /// `u64`), so encode/decode round-trips are exact to the bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `usize` as a `u64` (sizes are machine-independent on the
    /// wire).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a C-like enum value as its position in `table` (see
    /// [`code_of`]).
    pub fn code<T: PartialEq>(&mut self, table: &[T], value: T) {
        self.u8(code_of(table, value));
    }

    /// Writes an option: tag byte 0 for `None`, or 1 followed by what
    /// `some` writes for the value.
    pub fn opt<T>(&mut self, value: Option<T>, some: impl FnOnce(&mut WireWriter, T)) {
        match value {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                some(self, v);
            }
        }
    }

    /// Writes a length-prefixed sequence: the element count as a `u64`,
    /// then what `elem` writes for each item. The count is patched in
    /// after the items, so any iterator works (a filter included).
    pub fn seq<I: IntoIterator>(
        &mut self,
        items: I,
        mut elem: impl FnMut(&mut WireWriter, I::Item),
    ) {
        let at = self.buf.len();
        self.u64(0);
        let mut count = 0u64;
        for item in items {
            elem(self, item);
            count += 1;
        }
        self.buf[at..at + 8].copy_from_slice(&count.to_le_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn blob(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.bytes(v);
    }

    /// Writes raw bytes (caller is responsible for length framing).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts decoding at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Decodes one frame of kind `expected` written by
    /// [`WireWriter::frame`]: validates the envelope, decodes the body
    /// with `body`, and requires it to consume every byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::WrongKind`] for any other kind, the
    /// envelope's magic/version error, or the body's error.
    pub fn frame<T>(
        bytes: &'a [u8],
        expected: u8,
        body: impl FnOnce(&mut WireReader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        WireReader::frame_any(bytes, expected, |kind, r| {
            if kind == expected {
                body(r).map(Some)
            } else {
                Ok(None)
            }
        })
    }

    /// Decodes one frame of any kind a message direction accepts:
    /// validates the envelope, hands its kind and the body to `body`,
    /// and requires the body to consume every byte. `body` answers
    /// `Ok(None)` for a kind it does not accept, which becomes
    /// [`WireError::WrongKind`] naming `expected` (the direction's
    /// representative kind).
    ///
    /// # Errors
    ///
    /// Returns the envelope's magic/version error, `WrongKind`, or the
    /// body's error.
    pub fn frame_any<T>(
        bytes: &'a [u8],
        expected: u8,
        body: impl FnOnce(u8, &mut WireReader<'a>) -> Result<Option<T>, WireError>,
    ) -> Result<T, WireError> {
        let mut r = WireReader::new(bytes);
        let found = r.envelope()?;
        let value = body(found, &mut r)?.ok_or(WireError::WrongKind { found, expected })?;
        r.finish()?;
        Ok(value)
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Validates an envelope and returns its kind byte. Checks run
    /// outermost-first, so the error names the most fundamental
    /// mismatch: not-ours ([`WireError::BadMagic`]), then incompatible
    /// build ([`WireError::UnsupportedVersion`]).
    fn envelope(&mut self) -> Result<u8, WireError> {
        let magic: [u8; 4] = self.take(4)?.try_into().expect("4");
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = self.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                expected: WIRE_VERSION,
            });
        }
        self.u8()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self) -> Result<i16, WireError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads an `f64` written by [`WireWriter::f64`] (exact bit pattern).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a string written by [`WireWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let bytes = self.blob()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("string is not UTF-8"))
    }

    /// Reads a `bool` byte (0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        self.code(&[false, true])
    }

    /// Reads a `usize` written by [`WireWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }

    /// Reads a C-like enum value written by [`WireWriter::code`] over
    /// the same `table`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] for a code past the table.
    pub fn code<T: Copy>(&mut self, table: &[T]) -> Result<T, WireError> {
        let code = self.u8()?;
        table
            .get(usize::from(code))
            .copied()
            .ok_or(WireError::BadTag(code))
    }

    /// Reads an option written by [`WireWriter::opt`], decoding a
    /// present value with `some`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] for a tag other than 0 or 1, or
    /// the value's error.
    pub fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut WireReader<'a>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.bool()? {
            some(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`WireWriter::seq`], decoding each
    /// element with `elem`. Every element occupies at least
    /// `min_elem_bytes` on the wire, so a count the remaining input
    /// cannot hold fails with [`WireError::Truncated`] *before* the
    /// result is allocated.
    ///
    /// # Errors
    ///
    /// Returns `Truncated` on an impossible count, or the first
    /// element's error.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut WireReader<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Reads length-prefixed bytes written by [`WireWriter::blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// Reads a sequence count, bounded by the input left.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Asserts the whole input was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Invalid("trailing bytes after decode"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i32(-12345);
        w.bool(true);
        w.usize(99);
        w.opt(None, WireWriter::u32);
        w.opt(Some(5), WireWriter::u32);
        w.opt(Some(1 << 40), WireWriter::u64);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -12345);
        assert!(r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(r.opt(WireReader::u32).unwrap(), None);
        assert_eq!(r.opt(WireReader::u32).unwrap(), Some(5));
        assert_eq!(r.opt(WireReader::u64).unwrap(), Some(1 << 40));
        r.finish().unwrap();
    }

    #[test]
    fn option_layout_is_a_tag_then_the_value() {
        let mut w = WireWriter::new();
        w.opt(None, WireWriter::u32);
        w.opt(Some(0x0102_0304), WireWriter::u32);
        assert_eq!(w.into_bytes(), [0, 1, 4, 3, 2, 1]);
    }

    #[test]
    fn f64_round_trips_to_the_bit() {
        let mut w = WireWriter::new();
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, 0.123_456_789] {
            w.f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, 0.123_456_789] {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = WireWriter::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bad_tags_are_errors() {
        let bytes = [2u8];
        assert_eq!(WireReader::new(&bytes).bool(), Err(WireError::BadTag(2)),);
        let bytes = [9u8, 0, 0, 0, 0];
        assert_eq!(
            WireReader::new(&bytes).opt(WireReader::u32),
            Err(WireError::BadTag(9)),
        );
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Green,
        Blue,
    }

    const COLORS: [Color; 3] = [Color::Red, Color::Green, Color::Blue];

    #[test]
    fn enum_codes_are_table_positions() {
        let mut w = WireWriter::new();
        for c in COLORS {
            w.code(&COLORS, c);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes, [0, 1, 2]);
        let mut r = WireReader::new(&bytes);
        for c in COLORS {
            assert_eq!(r.code(&COLORS).unwrap(), c);
        }
        r.finish().unwrap();
        assert_eq!(code_of(&COLORS, Color::Blue), 2);
        assert_eq!(
            WireReader::new(&[3]).code(&COLORS),
            Err(WireError::BadTag(3))
        );
    }

    #[test]
    fn seq_writes_a_count_then_the_elements() {
        let mut w = WireWriter::new();
        // Any iterator, even one whose length is unknown up front.
        w.seq((0u32..10).filter(|v| v % 3 == 0), WireWriter::u32);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 4 * 4);
        assert_eq!(bytes[..8], 4u64.to_le_bytes());
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq(4, WireReader::u32).unwrap(), [0, 3, 6, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn seq_len_bounds_counts_by_remaining_input() {
        let mut w = WireWriter::new();
        w.usize(3);
        w.bytes(&[0u8; 12]); // 3 elements × 4 bytes
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq(4, WireReader::u32).unwrap().len(), 3);

        // A count the input cannot hold at the element's wire minimum
        // fails before anything is decoded or allocated.
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq(5, WireReader::u32), Err(WireError::Truncated));

        // A corrupt count far beyond the input must error, not allocate.
        let mut w = WireWriter::new();
        w.u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        assert_eq!(
            WireReader::new(&bytes).seq(4, WireReader::u32),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn blobs_round_trip_and_bound_their_length() {
        let mut w = WireWriter::new();
        w.blob(b"abc");
        w.blob(b"");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.blob().unwrap(), b"abc");
        assert_eq!(r.blob().unwrap(), b"");
        r.finish().unwrap();

        let mut w = WireWriter::new();
        w.usize(4);
        w.bytes(b"abc");
        assert_eq!(
            WireReader::new(&w.into_bytes()).blob(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn envelope_round_trips() {
        let bytes = WireWriter::frame(kind::TRIAL_EVENT, |w| w.u32(7));
        assert_eq!(bytes[..4], WIRE_MAGIC);
        assert_eq!(bytes[4], WIRE_VERSION);
        assert_eq!(bytes[5], kind::TRIAL_EVENT);
        assert_eq!(bytes.len(), ENVELOPE_BYTES + 4);
        assert_eq!(
            WireReader::frame(&bytes, kind::TRIAL_EVENT, WireReader::u32),
            Ok(7)
        );
        assert_eq!(
            WireReader::frame(&bytes, kind::JOB_SETUP, WireReader::u32),
            Err(WireError::WrongKind {
                found: kind::TRIAL_EVENT,
                expected: kind::JOB_SETUP,
            })
        );
        // A direction accepting several kinds sees which one arrived.
        let any = |bytes: &[u8]| {
            WireReader::frame_any(bytes, kind::BATCH_DONE, |k, r| {
                Ok(match k {
                    kind::TRIAL_EVENT => Some(r.u32()?),
                    kind::BATCH_DONE => Some(0),
                    _ => None,
                })
            })
        };
        assert_eq!(any(&bytes), Ok(7));
        assert_eq!(any(&WireWriter::frame(kind::BATCH_DONE, |_| {})), Ok(0));
        assert_eq!(
            any(&WireWriter::frame(kind::MUX, |_| {})),
            Err(WireError::WrongKind {
                found: kind::MUX,
                expected: kind::BATCH_DONE,
            })
        );
    }

    #[test]
    fn frames_reject_trailing_bytes() {
        let mut bytes = WireWriter::frame(kind::BATCH_DONE, |w| w.u64(1));
        bytes.push(0);
        assert_eq!(
            WireReader::frame(&bytes, kind::BATCH_DONE, WireReader::u64),
            Err(WireError::Invalid("trailing bytes after decode"))
        );
    }

    #[test]
    fn envelope_rejects_garbage_and_version_skew() {
        let decode = |bytes: &[u8]| WireReader::frame(bytes, kind::SNAPSHOT, |_| Ok(()));
        // Garbage: not our magic at all.
        let garbage = [0xDEu8, 0xAD, 0xBE, 0xEF, 1, 1];
        assert_eq!(
            decode(&garbage),
            Err(WireError::BadMagic([0xDE, 0xAD, 0xBE, 0xEF]))
        );
        // Truncated: magic cut short.
        assert_eq!(decode(b"AV"), Err(WireError::Truncated));
        // A stale blob from a hypothetical older build: right magic,
        // wrong version.
        let mut stale = Vec::from(WIRE_MAGIC);
        stale.push(WIRE_VERSION + 1);
        stale.push(kind::SNAPSHOT);
        assert_eq!(
            decode(&stale),
            Err(WireError::UnsupportedVersion {
                found: WIRE_VERSION + 1,
                expected: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn strings_and_i16_round_trip() {
        let mut w = WireWriter::new();
        w.str("register-chain");
        w.str("");
        w.i16(-300);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "register-chain");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.i16().unwrap(), -300);
        r.finish().unwrap();

        // A corrupt string length far beyond the input must error.
        let mut w = WireWriter::new();
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(WireReader::new(&bytes).str(), Err(WireError::Truncated));
    }

    #[test]
    fn content_hash_separates_domains_and_inputs() {
        let a = content_hash64(0, b"checkpoint store bytes");
        assert_eq!(a, content_hash64(0, b"checkpoint store bytes"), "stable");
        assert_ne!(a, content_hash64(1, b"checkpoint store bytes"), "domains");
        assert_ne!(a, content_hash64(0, b"checkpoint store bytez"), "content");
        // The canonical FNV-1a offset basis survives the domain mixing
        // (domain 0 of the empty string is a fixed, documented value).
        assert_eq!(
            content_hash64(0, b""),
            0xCBF2_9CE4_8422_2325u64.wrapping_mul(0x0000_0100_0000_01B3)
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = [1u8, 2];
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
