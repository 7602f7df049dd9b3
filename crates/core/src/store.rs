//! Durable, crash-safe, content-addressed result store.
//!
//! The store is the study runner's one persistence format: it is both
//! the checkpoint a killed study resumes from and the cache that lets
//! repeated cells be *simulated once, ever*, across many `repro study`
//! invocations. The file must survive being killed mid-write,
//! truncated, or bit-flipped. [`Store`] is that substrate:
//!
//! * **Content addressing** — records are keyed by the
//!   [`crate::runner::spec_hash`] of the experiment (app set, graph
//!   set, configuration set, scale, budgets) mixed with the crate
//!   version ([`CODE_VERSION`]), so results produced by a different
//!   spec *or a different simulator build* never silently mix.
//! * **Crash safety** — the on-disk format is length-framed and
//!   checksummed per record ([format](#on-disk-format)); torn,
//!   truncated, or bit-flipped records are detected, skipped, and
//!   *reported* ([`StoreLoadReport`]) rather than trusted or fatal.
//!   Loading never panics. Opening the store repairs a torn tail by
//!   truncating it to the last intact frame, so appends after a crash
//!   stay parseable.
//! * **One writer** — a handle takes an exclusive OS lock
//!   ([`File::try_lock`]) on the sibling file `PATH.lock` when it opens
//!   and holds it until it drops. A second open of the same store, from
//!   this process or another, fails at once with
//!   [`GgsError::StoreLock`]. The OS releases the lock when its holder
//!   exits, however it exits, so a crashed run never blocks the next
//!   one. The lock file is left in place and its contents are never
//!   read. The worker threads of one study share one handle.
//! * **Index** — only the handle's own appends change the file, so the
//!   handle scans it once at open and replays each append it makes into
//!   the same in-memory snapshot ([index](#the-index)). A lookup is a
//!   map probe, and [`Store::load`] returns the snapshot without reading
//!   the file.
//! * **Compaction** — [`Store::compact`] rewrites the store to only
//!   the newest result per cell via write-to-temp (`PATH.tmp`) +
//!   atomic rename + directory fsync, so a crash during compaction
//!   leaves either the old or the new file, never a hybrid.
//!
//! # On-disk format
//!
//! ```text
//! header  := b"GGSSTOR1" version:u32le reserved:u32le          (16 bytes)
//! record  := magic:u32le len:u32le crc:u32le payload[len]
//! magic   == 0x52_52_47_47 ("GGRR")
//! crc     == FNV-1a-32 of payload
//! payload == one compact JSON result record (see `Record`)
//! ```
//!
//! A reader that fails to frame a record (bad magic, absurd length,
//! checksum mismatch, unparseable payload, or bytes missing at the
//! tail) resynchronizes by scanning forward for the next record magic
//! and reports the skipped span, so one corrupt record never takes
//! down the rest of the file. Format version 1 also held per-cell lease
//! and release records; this build refuses it ([`STORE_FORMAT_VERSION`]).
//!
//! # The index
//!
//! A handle's snapshot always reports exactly what a full scan of the
//! file would. It is replayed from the file's *settled* prefix, which
//! ends just past the last intact frame that no later append can make
//! scan differently. A frame running past the end of the file (a torn
//! append), or a corrupt span with no record magic after it (a checksum
//! flip on the last append), may read differently once the next frame
//! follows it. So the handle keeps the bytes past the settled prefix in
//! memory, replays them into a separate view, and replays them again,
//! followed by the next append. When an append fails, the handle reads
//! back whatever part of it reached the file, so a torn frame is indexed
//! as a full scan would see it.
//!
//! Fault injection for all of the above lives in [`StoreFaults`]; the
//! crash-recovery guarantees are held by `crates/core/tests/store_crash.rs`
//! and documented in `docs/robustness.md`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ggs_trace::{TraceEvent, TraceSink};

use crate::error::GgsError;
use crate::json::{self, Value};
use crate::runner::cell_key;
use crate::study::ResultRow;

/// File magic: the first eight bytes of every store file.
pub const STORE_MAGIC: [u8; 8] = *b"GGSSTOR1";

/// On-disk format version. Bump on incompatible layout changes; a
/// mismatched version is a hard [`GgsError::StoreFormat`] error (the
/// file is *not* rewritten — refusing to guess beats corrupting data
/// written by another build).
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Per-record frame magic (`"GGRR"` little-endian), the
/// resynchronization anchor for corrupt-region recovery.
pub const RECORD_MAGIC: u32 = 0x5252_4747;

/// Code version mixed into every store key. Results are only reusable
/// by the simulator build that produced them: golden statistics are
/// pinned per version, so a version bump invalidates (without
/// deleting) older records.
pub const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Upper bound on a record payload; a framed length beyond this is
/// treated as corruption, which keeps a bit-flipped length field from
/// swallowing the rest of the file.
const MAX_RECORD_LEN: u32 = 1 << 20;

const HEADER_LEN: usize = 16;
const FRAME_LEN: usize = 12;

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// 64-bit FNV-1a, the stable hash behind store keys and
/// [`crate::runner::spec_hash`].
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV64_BASIS, bytes)
}

pub(crate) const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a 64-bit FNV-1a hash `h` over `bytes`.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mixes a study's spec hash with [`CODE_VERSION`]: the content
/// address under which this build's results are stored and looked up.
pub fn versioned_spec_hash(spec_hash: &str) -> String {
    let text = format!("{spec_hash}|code={CODE_VERSION}|fmt={STORE_FORMAT_VERSION}");
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// The 16-byte file header of this format version.
fn header() -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[..8].copy_from_slice(&STORE_MAGIC);
    head[8..12].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    head
}

/// One logical record of the store file.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed cell result: the durable payload.
    Result {
        /// Versioned spec hash the result belongs to.
        spec_hash: String,
        /// Application mnemonic.
        app: String,
        /// Graph mnemonic.
        graph: String,
        /// The cell's result row.
        row: ResultRow,
    },
}

impl Record {
    /// Serializes the record as its compact JSON payload.
    pub fn payload(&self) -> String {
        let Record::Result {
            spec_hash,
            app,
            graph,
            row,
        } = self;
        let mut obj = BTreeMap::from([
            ("kind".to_owned(), Value::String("result".to_owned())),
            ("spec_hash".to_owned(), Value::String(spec_hash.clone())),
            ("app".to_owned(), Value::String(app.clone())),
            ("graph".to_owned(), Value::String(graph.clone())),
        ]);
        row.write_fields(&mut obj);
        Value::Object(obj).to_string_compact()
    }

    /// Parses a record payload; `None` on anything malformed (the
    /// caller reports it as corruption).
    pub fn parse(payload: &str) -> Option<Record> {
        let v = json::parse(payload).ok()?;
        let s = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        if v.get("kind").and_then(Value::as_str)? != "result" {
            return None;
        }
        Some(Record::Result {
            spec_hash: s("spec_hash")?,
            app: s("app")?,
            graph: s("graph")?,
            row: ResultRow::read_fields(&v).ok()?,
        })
    }

    /// Frames the record for appending: magic, length, checksum,
    /// payload.
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.payload();
        let bytes = payload.as_bytes();
        let mut out = Vec::with_capacity(FRAME_LEN + bytes.len());
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a32(bytes).to_le_bytes());
        out.extend_from_slice(bytes);
        out
    }
}

/// A corrupt span encountered while scanning the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSpan {
    /// Byte offset the span starts at.
    pub offset: u64,
    /// Bytes skipped before the scanner resynchronized (or reached
    /// the end of the file).
    pub bytes: u64,
    /// What went wrong, for the human report.
    pub detail: &'static str,
}

/// What a tolerant load observed, surfaced so corruption is visible
/// instead of silent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreLoadReport {
    /// Records decoded successfully.
    pub records: usize,
    /// Corrupt spans skipped (torn/truncated/bit-flipped records).
    pub corrupt: Vec<CorruptSpan>,
    /// Offset one past the last intact frame; open-for-write repair
    /// truncates trailing garbage back to this point.
    pub valid_end: u64,
}

impl StoreLoadReport {
    /// Total bytes skipped as corrupt.
    pub fn corrupt_bytes(&self) -> u64 {
        self.corrupt.iter().map(|c| c.bytes).sum()
    }
}

/// The store's replayed logical state plus the load report.
#[derive(Debug, Clone, Default)]
pub struct StoreSnapshot {
    /// Latest result per `(spec_hash, cell key)`; later records win.
    results: BTreeMap<(String, String), ResultRow>,
    /// What the scan observed.
    pub report: StoreLoadReport,
}

impl StoreSnapshot {
    fn replay(&mut self, record: Record) {
        let Record::Result {
            spec_hash,
            app,
            graph,
            row,
        } = record;
        let key = cell_key(&app, &graph, &row.config);
        self.results.insert((spec_hash, key), row);
    }

    /// The completed cells recorded under `spec_hash`, keyed by
    /// `APP/GRAPH/CONFIG`.
    pub fn completed_for(&self, spec_hash: &str) -> BTreeMap<String, ResultRow> {
        self.results
            .iter()
            .filter(|((h, _), _)| h == spec_hash)
            .map(|((_, k), row)| (k.clone(), row.clone()))
            .collect()
    }

    /// The result for one cell, if present.
    pub fn lookup(&self, spec_hash: &str, key: &str) -> Option<&ResultRow> {
        self.results.get(&(spec_hash.to_owned(), key.to_owned()))
    }

    /// Total distinct results across every spec hash.
    pub fn total_results(&self) -> usize {
        self.results.len()
    }
}

/// The holder of a lease, in [`Claim::Busy`], which is never returned.
/// Kept for perfbench/harness; delete with the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLease {
    /// Owning process id.
    pub owner: u32,
}

/// Outcome of [`Store::try_claim`]. Kept for perfbench/harness; delete
/// with the next benchmark change.
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// The cell already has a result; no simulation needed.
    Done(ResultRow),
    /// The cell has no result yet.
    Claimed,
    /// Never returned: a handle is the store's only writer.
    Busy(StoreLease),
}

/// Deliberate store-level failure modes, extending the PR 3 fault
/// plumbing down into the persistence layer (tests and the CI store
/// smoke). All counters are one-shot/decrementing and shared behind an
/// `Arc`, so a cloned handle observes the same budget.
#[derive(Debug, Clone)]
pub struct StoreFaults {
    inner: Arc<StoreFaultsInner>,
}

impl Default for StoreFaults {
    fn default() -> Self {
        Self::none()
    }
}

#[derive(Debug, Default)]
struct StoreFaultsInner {
    /// Cut the next append after writing this many bytes of the frame,
    /// then report an I/O error (simulates dying mid-write).
    /// `u64::MAX` = disarmed.
    torn_write_at: AtomicU64,
    /// Flip the checksum of the next N appends (simulates a bit flip
    /// that fsync cannot catch; the write itself "succeeds").
    crc_flips: AtomicU32,
}

impl StoreFaults {
    /// No faults.
    pub fn none() -> Self {
        let inner = StoreFaultsInner {
            torn_write_at: AtomicU64::new(u64::MAX),
            crc_flips: AtomicU32::new(0),
        };
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Arm a torn write: the next append stops after `at` bytes of the
    /// frame and reports an I/O error. `at = 0` models a crash before
    /// anything hit the disk; a value inside the frame models a torn
    /// tail.
    pub fn torn_write(self, at: u64) -> Self {
        self.inner.torn_write_at.store(at, Ordering::Relaxed);
        self
    }

    /// Arm `n` checksum flips on upcoming appends.
    pub fn crc_flips(self, n: u32) -> Self {
        self.inner.crc_flips.store(n, Ordering::Relaxed);
        self
    }

    /// Parses a CLI store-fault spec: `torn[:BYTES]`, `short`, or `crc`
    /// (see `repro study --inject-store-fault`).
    pub fn parse_spec(self, spec: &str) -> Result<Self, GgsError> {
        match spec.split_once(':') {
            Some(("torn", at)) => {
                let at = at.parse::<u64>().map_err(|_| {
                    GgsError::InvalidSpec(format!(
                        "torn store fault needs a byte count, got {at:?}"
                    ))
                })?;
                Ok(self.torn_write(at))
            }
            None if spec == "torn" => Ok(self.torn_write(FRAME_LEN as u64 + 7)),
            // A short write is a torn write that loses only the frame's
            // final byte: the length field promises more than arrived.
            None if spec == "short" => Ok(self.torn_write(u64::MAX - 1)),
            None if spec == "crc" => Ok(self.crc_flips(1)),
            _ => Err(GgsError::InvalidSpec(format!(
                "unknown store fault {spec:?} (expected torn[:BYTES], short, or crc)"
            ))),
        }
    }

    fn take_torn(&self) -> Option<u64> {
        let at = self.inner.torn_write_at.swap(u64::MAX, Ordering::Relaxed);
        (at != u64::MAX).then_some(at)
    }

    fn take_crc_flip(&self) -> bool {
        self.inner
            .crc_flips
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Report of one [`Store::compact`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Result records kept (latest per cell).
    pub kept_records: usize,
    /// Superseded result records dropped.
    pub dropped_records: usize,
    /// Corrupt spans dropped.
    pub dropped_corrupt: usize,
    /// Bytes reclaimed (old size − new size).
    pub reclaimed_bytes: u64,
}

impl fmt::Display for CompactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kept {} result(s), dropped {} record(s) and {} corrupt span(s), reclaimed {} bytes",
            self.kept_records, self.dropped_records, self.dropped_corrupt, self.reclaimed_bytes
        )
    }
}

/// A handle on one on-disk result store, and its only writer.
///
/// The handle is `Sync`: study worker threads share one `Store`, and
/// its index mutex serializes their appends. A second handle on the
/// same path cannot open while this one lives (module doc, "One
/// writer").
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    faults: StoreFaults,
    /// `PATH.lock`, exclusively locked until the handle drops.
    _lock: File,
    index: Mutex<Index>,
}

impl Store {
    /// Opens (creating if absent) the store at `path` with no fault
    /// injection.
    pub fn open(path: &Path) -> Result<Self, GgsError> {
        Self::open_with(path, StoreFaults::none())
    }

    /// Opens (creating if absent) the store at `path` with injected
    /// `faults`.
    ///
    /// Takes the store's lock first: while another handle on `path`
    /// lives, in this process or another, this fails at once with
    /// [`GgsError::StoreLock`]. Creation writes the magic + version
    /// header; opening an existing file validates it and repairs a torn
    /// tail (truncating trailing garbage back to the last intact frame)
    /// so later appends stay parseable. A file with the wrong magic or
    /// another format version is refused with [`GgsError::StoreFormat`].
    pub fn open_with(path: &Path, faults: StoreFaults) -> Result<Self, GgsError> {
        let lock_path = sibling_path(path, ".lock");
        let lock = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&lock_path)?;
        lock.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => GgsError::StoreLock {
                detail: format!("{} is held by another open handle", lock_path.display()),
            },
            TryLockError::Error(e) => GgsError::Io(e),
        })?;
        let index = Index::open(path)?;
        Ok(Self {
            path: path.to_owned(),
            faults,
            _lock: lock,
            index: Mutex::new(index),
        })
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store's contents: every intact record replayed into a
    /// [`StoreSnapshot`], with torn/truncated/bit-flipped records
    /// skipped and reported on `snapshot.report`. Equals a full scan of
    /// the file, and reads nothing: the handle's index already holds it
    /// ([index](#the-index)). Never fails; the `Result` is kept for
    /// callers that propagate it.
    pub fn load(&self) -> Result<StoreSnapshot, GgsError> {
        Ok(self.lock_index().view().clone())
    }

    /// The stored result for cell `key` under `spec_hash`, if any. A
    /// published result is final: the simulator is deterministic and
    /// compaction keeps the newest row.
    pub fn lookup(&self, spec_hash: &str, key: &str) -> Option<ResultRow> {
        self.lock_index().view().lookup(spec_hash, key).cloned()
    }

    /// Publishes a completed cell result: appends its record and fsyncs
    /// the file.
    pub fn publish(
        &self,
        spec_hash: &str,
        app: &str,
        graph: &str,
        row: &ResultRow,
    ) -> Result<(), GgsError> {
        let mut frame = Record::Result {
            spec_hash: spec_hash.to_owned(),
            app: app.to_owned(),
            graph: graph.to_owned(),
            row: row.clone(),
        }
        .frame();
        if self.faults.take_crc_flip() {
            // Corrupt the stored checksum; the write itself succeeds,
            // exactly like a bit flip between memory and platter.
            frame[8] ^= 0x01;
        }
        let mut index = self.lock_index();
        let end = index.end();
        let mut file = &index.file;
        let written = match self.faults.take_torn() {
            Some(at) => {
                let cut = (at as usize).min(frame.len() - 1);
                file.write_all(&frame[..cut])
                    .and_then(|()| file.sync_all())
                    .and(Err(std::io::Error::other(format!(
                        "injected torn write after {cut} of {} bytes",
                        frame.len()
                    ))))
            }
            None => file.write_all(&frame).and_then(|()| file.sync_all()),
        };
        match written {
            Ok(()) => {
                index.ingest(&frame);
                Ok(())
            }
            Err(e) => {
                index.read_back(end)?;
                Err(GgsError::Io(e))
            }
        }
    }

    /// Whether cell `key` has a result: [`Claim::Done`] with it, else
    /// [`Claim::Claimed`]. A lookup; `_ttl` is ignored. Kept for
    /// perfbench/harness; delete with the next benchmark change.
    pub fn try_claim(&self, spec_hash: &str, key: &str, _ttl: Duration) -> Result<Claim, GgsError> {
        Ok(match self.lookup(spec_hash, key) {
            Some(row) => Claim::Done(row),
            None => Claim::Claimed,
        })
    }

    /// Does nothing. Kept for perfbench/harness; delete with the next
    /// benchmark change.
    pub fn release(&self, _spec_hash: &str, _key: &str) -> Result<(), GgsError> {
        Ok(())
    }

    /// Rewrites the store to only the newest result record per cell,
    /// dropping superseded duplicates and corrupt spans. The rewrite
    /// goes to the sibling file `PATH.tmp`, is flushed to disk, and
    /// replaces the store by atomic rename, whose directory entry is
    /// flushed in turn: a crash mid-compaction leaves the old file
    /// intact.
    ///
    /// Once the new file is in place, emits a
    /// [`TraceEvent::StoreEvict`] through `sink` with the report's
    /// dropped records and reclaimed bytes, timestamped relative to
    /// `epoch` (the start of the run that compacts).
    pub fn compact(&self, sink: &dyn TraceSink, epoch: Instant) -> Result<CompactReport, GgsError> {
        let mut index = self.lock_index();
        let snapshot = index.view();
        let mut out = Vec::with_capacity(HEADER_LEN + snapshot.results.len() * 128);
        out.extend_from_slice(&header());
        let mut kept = 0usize;
        for ((spec_hash, key), row) in &snapshot.results {
            // The key embeds app/graph/config; recover app and graph
            // for the record from its first two segments.
            let mut parts = key.splitn(3, '/');
            let (Some(app), Some(graph), Some(_)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            out.extend_from_slice(
                &Record::Result {
                    spec_hash: spec_hash.clone(),
                    app: app.to_owned(),
                    graph: graph.to_owned(),
                    row: row.clone(),
                }
                .frame(),
            );
            kept += 1;
        }
        let report = CompactReport {
            kept_records: kept,
            dropped_records: snapshot.report.records - kept,
            dropped_corrupt: snapshot.report.corrupt.len(),
            reclaimed_bytes: index.end().saturating_sub(out.len() as u64),
        };

        let tmp = sibling_path(&self.path, ".tmp");
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&out)?;
        file.sync_all()?;
        // Opened before the rename, so the index never loses its file.
        let file = OpenOptions::new().read(true).append(true).open(&tmp)?;
        std::fs::rename(&tmp, &self.path)?;
        *index = Index::replay(file, &out[HEADER_LEN..]);
        sync_parent_dir(&self.path)?;
        if sink.enabled() {
            sink.emit(&TraceEvent::StoreEvict {
                records: report.dropped_records as u64,
                bytes: report.reclaimed_bytes,
                at_us: epoch.elapsed().as_micros() as u64,
            });
        }
        Ok(report)
    }

    /// Locks this handle's index. Nothing that runs under this mutex
    /// panics (the scan never does: `record_frames_survive_byte_mutations`),
    /// so the index behind a poisoned guard is still the file's.
    fn lock_index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Suffixes the whole file name, so distinct stores never share a
/// sibling: `x.store` → `x.store.tmp`, and `foo.tmp` → `foo.tmp.tmp`.
fn sibling_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// Flushes the directory entry of `path`, so a rename into it survives
/// a crash. (Only Unix lets a directory be opened and synced.)
fn sync_parent_dir(path: &Path) -> Result<(), GgsError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// One handle's replayed view of the store file (module doc, "The
/// index").
#[derive(Debug)]
struct Index {
    /// The store file, open for reading and appending.
    file: File,
    /// Everything replayed from the settled prefix of the file: the
    /// bytes up to the end of the last intact frame, which no later
    /// append can make scan differently. `snapshot.report.valid_end`
    /// is where it ends.
    snapshot: StoreSnapshot,
    /// The file's bytes past the settled prefix.
    pending: Vec<u8>,
    /// `snapshot` plus `pending` replayed, when `pending` is not empty.
    tail: Option<StoreSnapshot>,
}

impl Index {
    /// Opens the store file at `path`, creating it if absent: writes or
    /// validates its header, repairs a torn tail, and replays it.
    fn open(path: &Path) -> Result<Self, GgsError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if check_header(&bytes)? < HEADER_LEN {
            // An empty file, or a crash tore the initial header write
            // (the magic prefix is ours, but the header is incomplete).
            // No record can have followed it, so writing a fresh header
            // loses nothing.
            file.set_len(0)?;
            file.write_all(&header())?;
            file.sync_all()?;
            return Ok(Self::replay(file, &[]));
        }
        let index = Self::replay(file, &bytes[HEADER_LEN..]);
        let valid_end = index.view().report.valid_end;
        if valid_end == bytes.len() as u64 {
            return Ok(index);
        }
        // Cut trailing garbage (a torn final write) back to the last
        // intact frame: it would corrupt every later append. Mid-file
        // corruption stays; scans skip it.
        index.file.set_len(valid_end)?;
        index.file.sync_all()?;
        Ok(Self::replay(
            index.file,
            &bytes[HEADER_LEN..valid_end as usize],
        ))
    }

    /// The index of `file`, whose records (everything past the header)
    /// are `records`.
    fn replay(file: File, records: &[u8]) -> Self {
        let mut index = Self {
            file,
            snapshot: StoreSnapshot::default(),
            pending: Vec::new(),
            tail: None,
        };
        index.snapshot.report.valid_end = HEADER_LEN as u64;
        index.ingest(records);
        index
    }

    /// What a full scan of the file reports.
    fn view(&self) -> &StoreSnapshot {
        self.tail.as_ref().unwrap_or(&self.snapshot)
    }

    /// The file's length.
    fn end(&self) -> u64 {
        self.snapshot.report.valid_end + self.pending.len() as u64
    }

    /// Replays `appended`, the bytes the file gained past [`Self::end`]:
    /// what settles into `snapshot`, the rest into `pending` and
    /// `tail`.
    fn ingest(&mut self, appended: &[u8]) {
        let joined;
        let bytes = if self.pending.is_empty() {
            appended
        } else {
            joined = [self.pending.as_slice(), appended].concat();
            &joined
        };
        let base = self.snapshot.report.valid_end;
        let settled = scan_from(bytes, base, &mut self.snapshot, true);
        self.pending = bytes[settled..].to_vec();
        self.tail = (!self.pending.is_empty()).then(|| {
            let mut tail = self.snapshot.clone();
            scan_from(&self.pending, base + settled as u64, &mut tail, false);
            tail
        });
    }

    /// Replays whatever a failed append left in the file past `end`,
    /// where it began.
    fn read_back(&mut self, end: u64) -> Result<(), GgsError> {
        let mut landed = Vec::new();
        let mut file = &self.file;
        file.seek(SeekFrom::Start(end))?;
        file.read_to_end(&mut landed)?;
        self.ingest(&landed);
        Ok(())
    }
}

/// Validates the 16-byte header. Returns the number of header bytes
/// consumed, or an error. A file shorter than the header that is a
/// *prefix* of a valid header is the killed-during-creation case and
/// reads as empty; anything else is a foreign file.
fn check_header(head: &[u8]) -> Result<usize, GgsError> {
    let magic_len = head.len().min(STORE_MAGIC.len());
    if head[..magic_len] != STORE_MAGIC[..magic_len] {
        return Err(GgsError::StoreFormat {
            detail: "bad magic (not a GGS result store)".to_owned(),
        });
    }
    if head.len() < HEADER_LEN {
        // Truncated during creation: tolerate as an empty store.
        return Ok(head.len());
    }
    let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    if version != STORE_FORMAT_VERSION {
        return Err(GgsError::StoreFormat {
            detail: format!("format version {version} (this build reads {STORE_FORMAT_VERSION})"),
        });
    }
    Ok(HEADER_LEN)
}

/// Frames and replays the records in `bytes`, the store image from
/// absolute offset `base`, resynchronizing on corruption; corrupt spans
/// are reported at absolute offsets. Never panics. Returns how many
/// leading bytes were replayed: all of them, unless `settle` is set and
/// the scan meets a span that bytes appended later could read
/// differently — a frame running past the end, or corruption with no
/// record magic after it. Then it stops at the end of the last intact
/// frame before that span, dropping the corrupt spans it reported past
/// that frame.
fn scan_from(bytes: &[u8], base: u64, snapshot: &mut StoreSnapshot, settle: bool) -> usize {
    let mut pos = 0;
    // End of the last intact frame, and the corrupt spans before it.
    let mut settled = (0, snapshot.report.corrupt.len());
    while pos < bytes.len() {
        let at = base + pos as u64;
        match frame_at(bytes, pos) {
            Ok((payload, next)) => {
                match Record::parse(payload) {
                    Some(record) => {
                        snapshot.replay(record);
                        snapshot.report.records += 1;
                    }
                    None => snapshot.report.corrupt.push(CorruptSpan {
                        offset: at,
                        bytes: (next - pos) as u64,
                        detail: "framed record with unparseable payload",
                    }),
                }
                // Framing was intact either way, so it is safe to
                // append after this point.
                snapshot.report.valid_end = base + next as u64;
                pos = next;
                settled = (pos, snapshot.report.corrupt.len());
            }
            Err(bad) => {
                // Resynchronize: hunt for the next record magic.
                let resume = resync(bytes, pos + 1);
                if settle && (bad.short || resume == bytes.len()) {
                    snapshot.report.corrupt.truncate(settled.1);
                    return settled.0;
                }
                snapshot.report.corrupt.push(CorruptSpan {
                    offset: at,
                    bytes: (resume - pos) as u64,
                    detail: bad.detail,
                });
                pos = resume;
            }
        }
    }
    pos
}

/// A frame that failed to decode.
#[derive(Debug)]
struct BadFrame {
    detail: &'static str,
    /// The frame runs past the end of the bytes, so appended bytes may
    /// still complete it.
    short: bool,
}

impl BadFrame {
    fn corrupt(detail: &'static str) -> Self {
        Self {
            detail,
            short: false,
        }
    }

    fn short(detail: &'static str) -> Self {
        Self {
            detail,
            short: true,
        }
    }
}

/// Attempts to decode one frame at `pos`; returns the payload and the
/// offset one past the frame.
fn frame_at(bytes: &[u8], pos: usize) -> Result<(&str, usize), BadFrame> {
    let header = bytes
        .get(pos..pos + FRAME_LEN)
        .ok_or(BadFrame::short("truncated frame header"))?;
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != RECORD_MAGIC {
        return Err(BadFrame::corrupt("bad record magic"));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD_LEN {
        return Err(BadFrame::corrupt("implausible record length"));
    }
    let crc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let payload = bytes
        .get(pos + FRAME_LEN..pos + FRAME_LEN + len as usize)
        .ok_or(BadFrame::short("truncated record payload"))?;
    if fnv1a32(payload) != crc {
        return Err(BadFrame::corrupt("checksum mismatch"));
    }
    let payload =
        std::str::from_utf8(payload).map_err(|_| BadFrame::corrupt("non-UTF-8 payload"))?;
    Ok((payload, pos + FRAME_LEN + len as usize))
}

/// Finds the next plausible frame start at or after `from`.
fn resync(bytes: &[u8], from: usize) -> usize {
    let needle = RECORD_MAGIC.to_le_bytes();
    let mut pos = from;
    while pos + 4 <= bytes.len() {
        if bytes[pos..pos + 4] == needle {
            return pos;
        }
        pos += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A directory of one test's own, removed when it drops. Tests run
    /// in parallel, so none may remove a directory another one uses.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh path named `name`, in a directory that lives as long as
    /// the returned guard.
    fn temp_store(name: &str) -> (TempDir, PathBuf) {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ggs-store-unit-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        (TempDir(dir), path)
    }

    fn row(config: &str, cycles: u64) -> ResultRow {
        ResultRow {
            config: config.to_owned(),
            total_cycles: cycles,
            fractions: [0.2, 0.2, 0.2, 0.2, 0.2],
        }
    }

    fn result(config: &str, cycles: u64) -> Record {
        Record::Result {
            spec_hash: "h".into(),
            app: "PR".into(),
            graph: "AMZ".into(),
            row: row(config, cycles),
        }
    }

    #[test]
    fn records_round_trip_through_frames() {
        let record = result("SGR", 123);
        let frame = record.frame();
        let (payload, next) = frame_at(&frame, 0).expect("own frames decode");
        assert_eq!(next, frame.len());
        assert_eq!(Record::parse(payload), Some(record));
        // Version 1's lease records no longer parse.
        let lease = r#"{"acquired_ms":1000,"key":"PR/AMZ/SGR","kind":"lease","owner":7,"spec_hash":"h","ttl_ms":500}"#;
        assert_eq!(Record::parse(lease), None);
    }

    #[test]
    fn publish_lookup_and_later_duplicates_win() {
        let (_dir, path) = temp_store("basic.store");
        let store = Store::open(&path).expect("open");
        store.publish("h1", "PR", "AMZ", &row("SGR", 100)).unwrap();
        store.publish("h1", "PR", "AMZ", &row("SGR", 200)).unwrap();
        store.publish("h2", "PR", "AMZ", &row("SGR", 300)).unwrap();
        let snap = store.load().unwrap();
        assert_eq!(snap.lookup("h1", "PR/AMZ/SGR"), Some(&row("SGR", 200)));
        assert_eq!(snap.lookup("h2", "PR/AMZ/SGR"), Some(&row("SGR", 300)));
        assert_eq!(snap.completed_for("h1").len(), 1);
        assert!(snap.report.corrupt.is_empty());
        assert_eq!(store.lookup("h1", "PR/AMZ/SGR"), Some(row("SGR", 200)));
        assert_eq!(store.lookup("h1", "PR/AMZ/TG0"), None);
    }

    /// One writer: while a handle lives, opening its path again fails
    /// at once, from this thread or another, and the first handle still
    /// publishes. Once it drops, the path opens again.
    #[test]
    fn a_second_open_is_refused_while_a_handle_lives() {
        let (_dir, path) = temp_store("one-writer.store");
        let first = Store::open(&path).expect("open");
        let started = Instant::now();
        let refused = |open: Result<Store, GgsError>| match open {
            Err(GgsError::StoreLock { detail }) => detail.contains(".lock"),
            _ => false,
        };
        assert!(refused(Store::open(&path)));
        let other_thread = std::thread::scope(|s| s.spawn(|| Store::open(&path)).join());
        assert!(refused(other_thread.expect("thread joins")));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "refusal waited {:?}",
            started.elapsed()
        );
        first.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        drop(first);
        let second = Store::open(&path).expect("reopen after drop");
        assert_eq!(second.lookup("h", "PR/AMZ/SGR"), Some(row("SGR", 1)));
    }

    /// The lock is the OS's, not the lock file's contents: a leftover
    /// lock file, whatever it holds, does not block an open.
    #[test]
    fn leftover_lock_files_do_not_block() {
        let (_dir, path) = temp_store("leftover-lock.store");
        let lock = sibling_path(&path, ".lock");
        for leftover in [&b""[..], b"garbage", br#"{"pid":999999,"acquired_ms":1}"#] {
            std::fs::write(&lock, leftover).unwrap();
            let store = Store::open(&path).expect("a leftover lock file does not block");
            store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        }
        assert!(lock.exists(), "the lock file stays in place");
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.load().unwrap().report.records, 3);
    }

    /// What perfbench/harness sees through the kept shims: `try_claim`
    /// is a lookup that writes nothing, and `release` does nothing.
    #[test]
    fn lease_shims_answer_from_the_index() {
        let (_dir, path) = temp_store("shims.store");
        let store = Store::open(&path).expect("open");
        let ttl = Duration::from_secs(30);
        let len = || std::fs::metadata(&path).unwrap().len();
        let before = len();
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Claimed
        );
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Claimed
        );
        store.release("h", "PR/AMZ/SGR").unwrap();
        assert_eq!(len(), before, "claims and releases write nothing");
        store.publish("h", "PR", "AMZ", &row("SGR", 42)).unwrap();
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Done(row("SGR", 42))
        );
        store.release("h", "PR/AMZ/SGR").unwrap();
        assert_eq!(store.load().unwrap().report.records, 1);
    }

    #[test]
    fn corrupt_records_are_skipped_and_reported() {
        let (_dir, path) = temp_store("corrupt.store");
        let store = Store::open(&path).expect("open");
        for i in 0..4 {
            store
                .publish("h", "PR", "AMZ", &row(&format!("C{i}"), i))
                .unwrap();
        }
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the second record's payload.
        let second = {
            let first_end = frame_at(&bytes, HEADER_LEN).unwrap().1;
            first_end + FRAME_LEN + 4
        };
        bytes[second] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let snap = Store::open(&path).expect("reopen").load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 3, "{:?}", snap.report);
        assert_eq!(snap.report.corrupt.len(), 1);
        assert!(snap.report.corrupt_bytes() > 0);
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let (_dir, path) = temp_store("torn.store");
        {
            let store = Store::open(&path).expect("open");
            store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
            store.publish("h", "PR", "AMZ", &row("TG0", 2)).unwrap();
        }
        // Tear the final record mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        // Reopening repairs the tail; a fresh append then parses clean.
        let store = Store::open(&path).expect("reopen");
        store.publish("h", "PR", "AMZ", &row("SD1", 3)).unwrap();
        let snap = store.load().unwrap();
        assert!(snap.report.corrupt.is_empty(), "{:?}", snap.report);
        let completed = snap.completed_for("h");
        assert_eq!(
            completed.keys().cloned().collect::<Vec<_>>(),
            ["PR/AMZ/SD1", "PR/AMZ/SGR"]
        );
    }

    #[test]
    fn injected_faults_fire_once_each() {
        let (_dir, path) = temp_store("faults.store");
        let faults = StoreFaults::none();
        let store = Store::open_with(&path, faults.clone()).expect("open");
        // First publish: checksum flip — write succeeds, record is dead.
        let _ = faults.clone().crc_flips(1);
        store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        // Second publish: torn write — reported as an I/O error.
        let _ = faults.clone().torn_write(15);
        let err = store.publish("h", "PR", "AMZ", &row("TG0", 2)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert!(matches!(err, GgsError::Io(_)), "{err}");
        // Both sabotaged records are detected and reported, not trusted.
        let snap = store.load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 0, "{:?}", snap.report);
        assert_eq!(snap.report.corrupt.len(), 2, "{:?}", snap.report);
        // Reopening repairs the (entirely corrupt) tail; a clean publish
        // then loads without corruption.
        drop(store);
        let store = Store::open(&path).expect("reopen repairs");
        store.publish("h", "PR", "AMZ", &row("SD1", 3)).unwrap();
        let snap = store.load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 1, "{:?}", snap.report);
        assert!(snap.report.corrupt.is_empty(), "{:?}", snap.report);
    }

    #[test]
    fn foreign_and_newer_files_are_refused() {
        let (_dir, path) = temp_store("foreign.bin");
        std::fs::write(&path, b"definitely not a store file").unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(GgsError::StoreFormat { .. })
        ));

        let (_dir, path) = temp_store("newer.store");
        let mut bytes = header().to_vec();
        bytes[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(GgsError::StoreFormat { .. })
        ));
    }

    /// A version-1 store (which also held lease and release records) is
    /// refused, naming both versions, and left as it was.
    #[test]
    fn version_one_stores_are_refused() {
        let (_dir, path) = temp_store("v1.store");
        let mut bytes = header().to_vec();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&result("SGR", 1).frame());
        std::fs::write(&path, &bytes).unwrap();
        match Store::open(&path) {
            Err(GgsError::StoreFormat { detail }) => {
                assert!(detail.contains("version 1"), "{detail}");
                assert!(detail.contains("reads 2"), "{detail}");
            }
            other => panic!("expected StoreFormat, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn compaction_keeps_latest_results_and_is_loadable() {
        let (_dir, path) = temp_store("compact.store");
        let store = Store::open(&path).expect("open");
        for i in 0..10 {
            store.publish("h", "PR", "AMZ", &row("SGR", i)).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let report = store.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        assert_eq!(report.kept_records, 1);
        assert_eq!(report.dropped_records, 9);
        assert!(report.reclaimed_bytes > 0);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        let snap = store.load().unwrap();
        assert_eq!(snap.lookup("h", "PR/AMZ/SGR"), Some(&row("SGR", 9)));
        assert!(snap.report.corrupt.is_empty());
        // The handle appends to the compacted file.
        store.publish("h", "CC", "RAJ", &row("DG1", 1)).unwrap();
        drop(store);
        let snap = Store::open(&path).unwrap().load().unwrap();
        assert_eq!(snap.total_results(), 2);
        assert!(snap.report.corrupt.is_empty());
    }

    #[test]
    fn store_fault_specs_parse() {
        assert!(StoreFaults::none().parse_spec("torn").is_ok());
        assert!(StoreFaults::none().parse_spec("torn:40").is_ok());
        assert!(StoreFaults::none().parse_spec("short").is_ok());
        assert!(StoreFaults::none().parse_spec("crc").is_ok());
        assert!(StoreFaults::none().parse_spec("meteor").is_err());
        assert!(StoreFaults::none().parse_spec("torn:x").is_err());
    }

    #[test]
    fn versioned_hash_is_stable_and_version_sensitive() {
        let a = versioned_spec_hash("deadbeef");
        assert_eq!(a, versioned_spec_hash("deadbeef"));
        assert_ne!(a, versioned_spec_hash("deadbeee"));
        assert_eq!(a.len(), 16);
        // FNV-1a-64 reference vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Satellite: compaction replaces the store by renaming `PATH.tmp`
    /// over it, even when the store's own name ends in `.tmp` (it used
    /// to rewrite such a store in place, losing it to a crash before
    /// the rename).
    #[cfg(unix)]
    #[test]
    fn compacting_a_store_named_tmp_replaces_it_by_rename() {
        use std::os::unix::fs::MetadataExt as _;
        let (_dir, path) = temp_store("foo.tmp");
        let store = Store::open(&path).expect("open");
        for i in 0..4 {
            store.publish("h", "PR", "AMZ", &row("SGR", i)).unwrap();
            store
                .publish("h", "CC", "RAJ", &row(&format!("C{i}"), i))
                .unwrap();
        }
        let inode = std::fs::metadata(&path).unwrap().ino();
        let report = store.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        assert_eq!(report.kept_records, 5);
        assert_ne!(
            std::fs::metadata(&path).unwrap().ino(),
            inode,
            "rewritten in place"
        );
        assert!(!sibling_path(&path, ".tmp").exists());
        drop(store);
        let snap = Store::open(&path).unwrap().load().unwrap();
        assert_eq!(snap.lookup("h", "PR/AMZ/SGR"), Some(&row("SGR", 3)));
        assert_eq!(snap.completed_for("h").len(), 5);
    }

    /// Satellite: two stores differing only in extension no longer share
    /// a temp file, so compacting `x.store` leaves `x.tmp` alone.
    #[test]
    fn compaction_leaves_an_unrelated_dot_tmp_file_alone() {
        let (_dir, path) = temp_store("x.store");
        let bystander = path.with_extension("tmp");
        std::fs::write(&bystander, b"someone else's data").unwrap();
        let store = Store::open(&path).expect("open");
        store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        store.publish("h", "PR", "AMZ", &row("SGR", 2)).unwrap();
        store.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        assert_eq!(std::fs::read(&bystander).unwrap(), b"someone else's data");
        assert_eq!(store.load().unwrap().completed_for("h").len(), 1);
    }

    /// A full scan of a store image in one pass: the reference every
    /// index must match.
    fn full_scan(bytes: &[u8]) -> StoreSnapshot {
        let mut snapshot = StoreSnapshot::default();
        let consumed = check_header(bytes).expect("a store image");
        snapshot.report.valid_end = consumed as u64;
        if consumed == HEADER_LEN {
            scan_from(
                &bytes[HEADER_LEN..],
                HEADER_LEN as u64,
                &mut snapshot,
                false,
            );
        }
        snapshot
    }

    fn same_as_scan(got: &StoreSnapshot, bytes: &[u8]) -> Result<(), String> {
        let want = full_scan(bytes);
        prop_assert_eq!(&got.results, &want.results);
        prop_assert_eq!(&got.report, &want.report);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: one handle driven through random publishes and
        /// compactions, with injected checksum flips, torn and short
        /// writes, and external truncations (drop, truncate, reopen),
        /// always loads what a fresh scan of the file reports.
        #[test]
        fn index_matches_a_fresh_scan(
            ops in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 1..32)
        ) {
            let (_dir, path) = temp_store("differential.store");
            let faults = StoreFaults::none();
            let mut store = Store::open_with(&path, faults.clone()).map_err(|e| e.to_string())?;
            for (step, &(op, cell, n)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        let _ = store.publish("h", "PR", "AMZ", &row(&format!("C{cell}"), n));
                    }
                    2 => {
                        store.compact(&ggs_trace::NOOP, Instant::now()).map_err(|e| e.to_string())?;
                    }
                    3 => {
                        let _ = match n % 3 {
                            0 => faults.clone().crc_flips(1),
                            1 => faults.clone().torn_write(n % 300),
                            _ => faults.clone().torn_write(u64::MAX - 1),
                        };
                    }
                    4 => {
                        let lookup = store.lookup("h", &format!("PR/AMZ/C{cell}"));
                        let loaded = store.load().map_err(|e| e.to_string())?;
                        prop_assert_eq!(lookup.as_ref(), loaded.lookup("h", &format!("PR/AMZ/C{cell}")));
                    }
                    _ => {
                        drop(store);
                        let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                        let file = OpenOptions::new().write(true).open(&path).map_err(|e| e.to_string())?;
                        file.set_len(n % (len + 1)).map_err(|e| e.to_string())?;
                        drop(file);
                        store = Store::open_with(&path, faults.clone()).map_err(|e| e.to_string())?;
                    }
                }
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                let loaded = store.load().map_err(|e| e.to_string())?;
                same_as_scan(&loaded, &bytes)
                    .map_err(|e| format!("step {step} op {op}: {e}"))?;
            }
        }
    }

    /// A valid store image: the header, then `records` result frames
    /// cycling through five cells.
    fn store_image(records: usize) -> Vec<u8> {
        let mut bytes = header().to_vec();
        for i in 0..records {
            bytes.extend_from_slice(&result(&format!("C{}", i % 5), i as u64).frame());
        }
        bytes
    }

    /// Applies byte-level edits `(kind, at, byte)` to `bytes` at or past
    /// offset `from`: insert, truncate, overwrite, delete or bit flip.
    fn mutate(bytes: &mut Vec<u8>, from: usize, edits: &[(u8, usize, u8)]) {
        for &(kind, at, byte) in edits {
            let i = from + at % (bytes.len() + 1 - from);
            match kind {
                0 => bytes.insert(i, byte),
                1 => bytes.truncate(i),
                _ if i == bytes.len() => {}
                2 => bytes[i] = byte,
                3 => {
                    bytes.remove(i);
                }
                _ => bytes[i] ^= 1 << (byte % 8),
            }
        }
    }

    /// Strategy: byte edits, with the frame magic's bytes drawn as often
    /// as a uniform byte so mutations forge frame starts.
    fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
        let byte = prop_oneof![
            (0usize..4).prop_map(|i| RECORD_MAGIC.to_le_bytes()[i]),
            0u8..=255,
        ];
        prop::collection::vec((0u8..8, 0usize..1 << 16, byte), 1..9)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Fuzz: a record scan of a byte-mutated image never panics and
        /// reports only corrupt spans inside the image, and an index fed
        /// the image in two appends, split anywhere, equals a full scan.
        #[test]
        fn record_frames_survive_byte_mutations(edits in edits(), split in 0usize..1 << 16) {
            let mut bytes = store_image(20);
            mutate(&mut bytes, HEADER_LEN, &edits);
            let scan = full_scan(&bytes);
            let len = bytes.len() as u64;
            prop_assert!(scan.report.valid_end <= len);
            for span in &scan.report.corrupt {
                prop_assert!(
                    span.offset >= HEADER_LEN as u64 && span.offset + span.bytes <= len,
                    "{span:?} outside a {len}-byte image"
                );
            }
            let records = &bytes[HEADER_LEN..];
            let split = split % (records.len() + 1);
            let (_dir, path) = temp_store("split.store");
            let file = File::create(&path).map_err(|e| e.to_string())?;
            let mut index = Index::replay(file, &records[..split]);
            index.ingest(&records[split..]);
            prop_assert_eq!(index.end(), len);
            same_as_scan(index.view(), &bytes)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fuzz: a byte-mutated store file, header included, is either
        /// refused as foreign or opens with its tail repaired: loads
        /// equal a full scan, and a result published after the repair
        /// reads back.
        #[test]
        fn mutated_store_files_open_or_are_refused(edits in edits()) {
            let mut bytes = store_image(20);
            mutate(&mut bytes, 0, &edits);
            let (_dir, path) = temp_store("fuzz.store");
            std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
            let store = match Store::open(&path) {
                Ok(store) => store,
                Err(GgsError::StoreFormat { .. }) => return Ok(()),
                Err(e) => return Err(format!("open: {e}")),
            };
            let read = || std::fs::read(&path).map_err(|e| e.to_string());
            same_as_scan(&store.load().map_err(|e| e.to_string())?, &read()?)?;
            store.publish("h", "PR", "AMZ", &row("FUZZ", 7)).map_err(|e| e.to_string())?;
            let loaded = store.load().map_err(|e| e.to_string())?;
            same_as_scan(&loaded, &read()?)?;
            prop_assert_eq!(loaded.lookup("h", "PR/AMZ/FUZZ").map(|r| r.total_cycles), Some(7));
        }
    }
}
