//! Durable, crash-safe, content-addressed result store shared across
//! studies and processes.
//!
//! The store is the study runner's one persistence format: it is both
//! the checkpoint a killed study resumes from and the cache that lets
//! repeated cells be *simulated once, ever*, across many `repro study`
//! invocations, possibly running concurrently. The file they share
//! must survive being killed mid-write, truncated, or bit-flipped.
//! [`Store`] is that shared substrate:
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
//!   Loading never panics. Opening the store for writing repairs a
//!   torn tail by truncating it to the last intact frame, so appends
//!   after a crash stay parseable.
//! * **Multi-process safety** — appends and claims serialize through
//!   an advisory lock file (owner pid + timestamp, expiry-based
//!   stale reclaim, bounded-backoff retry with seeded jitter via
//!   [`crate::runner::RetryPolicy`]); per-cell *lease* records let N
//!   concurrent processes partition a sweep without simulating any
//!   cell twice ([`Store::try_claim`]).
//! * **Incremental index** — each handle keeps the file replayed into
//!   one in-memory snapshot plus the offset it has read up to, and
//!   catches up by reading only the bytes appended since
//!   ([index](#the-per-handle-index)). A claim on a cell whose result
//!   is already indexed takes no lock and does no I/O.
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
//! payload == one compact JSON object (see `Record`)
//! ```
//!
//! A reader that fails to frame a record (bad magic, absurd length,
//! checksum mismatch, unparseable payload, or bytes missing at the
//! tail) resynchronizes by scanning forward for the next record magic
//! and reports the skipped span, so one corrupt record never takes
//! down the rest of the file.
//!
//! # The per-handle index
//!
//! Between compactions the file only grows, so a claim never needs to
//! read a byte twice. Each handle holds, behind the same mutex that
//! serializes its threads' lock-file critical sections:
//!
//! * the snapshot replayed from the file's *settled* prefix, which ends
//!   just past the last intact frame that no later append can make scan
//!   differently. A frame running past the end of the file, or a
//!   corrupt span with no record magic after it, may still be
//!   completed, so the prefix stops at the last intact frame before it
//!   and the next catch-up reads from there again. The bytes past the
//!   settled prefix are replayed into a separate view, so every read
//!   reports exactly what a full scan of the file would;
//! * the file itself, held open, with its device and inode numbers.
//!
//! Catching up stats the path. If it names another file (a peer's
//! compaction renamed a new one into place) or the file is shorter than
//! the settled prefix (a torn-tail repair or an external truncation),
//! the index resets and rescans from the header. Otherwise only the
//! bytes past the offset are read. Holding the old file open keeps its
//! inode number from being reused by a replacement. [`Store::load`] and
//! [`Store::compact`] also re-read the settled prefix and compare its
//! FNV-1a-64 digest, so an in-place rewrite is rescanned rather than
//! trusted. A record this handle appends is replayed straight into the
//! index as it is written.
//!
//! [`Store::try_claim`] answers a cell whose result is indexed under the
//! mutex alone: a published result is final, since the simulator is
//! deterministic and compaction keeps the newest row. A miss takes the
//! lock file, catches up, and then claims or reports the live lease, so
//! lease arbitration across processes still happens under the lock.
//!
//! Fault injection for all of the above lives in [`StoreFaults`]; the
//! crash-recovery guarantees are held by `crates/core/tests/store_crash.rs`
//! and documented in `docs/robustness.md`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, Metadata, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ggs_trace::{TraceEvent, TraceSink};

use crate::error::GgsError;
use crate::json::{self, Value};
use crate::runner::{cell_key, RetryPolicy};
use crate::study::ResultRow;

/// File magic: the first eight bytes of every store file.
pub const STORE_MAGIC: [u8; 8] = *b"GGSSTOR1";

/// On-disk format version. Bump on incompatible layout changes; a
/// mismatched version is a hard [`GgsError::StoreFormat`] error (the
/// file is *not* rewritten — refusing to guess beats corrupting data
/// written by a newer build).
pub const STORE_FORMAT_VERSION: u32 = 1;

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

/// How long a lock file may exist before another process may presume
/// its owner dead and reclaim it.
const LOCK_STALE_MS: u64 = 10_000;

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

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Mixes a study's spec hash with [`CODE_VERSION`]: the content
/// address under which this build's results are stored and looked up.
pub fn versioned_spec_hash(spec_hash: &str) -> String {
    let text = format!("{spec_hash}|code={CODE_VERSION}|fmt={STORE_FORMAT_VERSION}");
    format!("{:016x}", fnv1a64(text.as_bytes()))
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
    /// A per-cell lease: `owner` is simulating `key`; other processes
    /// must not start it until the lease expires or is released.
    Lease {
        /// Versioned spec hash the lease belongs to.
        spec_hash: String,
        /// `APP/GRAPH/CONFIG` cell key.
        key: String,
        /// Owning process id.
        owner: u32,
        /// Heartbeat timestamp, ms since the Unix epoch.
        acquired_ms: u64,
        /// Time-to-live; the lease expires at `acquired_ms + ttl_ms`.
        ttl_ms: u64,
    },
    /// An explicit lease release (a cell that failed rather than
    /// producing a result; results release implicitly).
    Release {
        /// Versioned spec hash the release belongs to.
        spec_hash: String,
        /// `APP/GRAPH/CONFIG` cell key.
        key: String,
        /// Process id that held the lease.
        owner: u32,
    },
}

impl Record {
    /// Serializes the record as its compact JSON payload.
    pub fn payload(&self) -> String {
        let obj = match self {
            Record::Result {
                spec_hash,
                app,
                graph,
                row,
            } => {
                let mut obj = BTreeMap::from([
                    ("kind".to_owned(), Value::String("result".to_owned())),
                    ("spec_hash".to_owned(), Value::String(spec_hash.clone())),
                    ("app".to_owned(), Value::String(app.clone())),
                    ("graph".to_owned(), Value::String(graph.clone())),
                ]);
                row.write_fields(&mut obj);
                obj
            }
            Record::Lease {
                spec_hash,
                key,
                owner,
                acquired_ms,
                ttl_ms,
            } => BTreeMap::from([
                ("kind".to_owned(), Value::String("lease".to_owned())),
                ("spec_hash".to_owned(), Value::String(spec_hash.clone())),
                ("key".to_owned(), Value::String(key.clone())),
                ("owner".to_owned(), Value::Number(f64::from(*owner))),
                ("acquired_ms".to_owned(), Value::Number(*acquired_ms as f64)),
                ("ttl_ms".to_owned(), Value::Number(*ttl_ms as f64)),
            ]),
            Record::Release {
                spec_hash,
                key,
                owner,
            } => BTreeMap::from([
                ("kind".to_owned(), Value::String("release".to_owned())),
                ("spec_hash".to_owned(), Value::String(spec_hash.clone())),
                ("key".to_owned(), Value::String(key.clone())),
                ("owner".to_owned(), Value::Number(f64::from(*owner))),
            ]),
        };
        Value::Object(obj).to_string_compact()
    }

    /// Parses a record payload; `None` on anything malformed (the
    /// caller reports it as corruption).
    pub fn parse(payload: &str) -> Option<Record> {
        let v = json::parse(payload).ok()?;
        let s = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        match v.get("kind").and_then(Value::as_str)? {
            "result" => Some(Record::Result {
                spec_hash: s("spec_hash")?,
                app: s("app")?,
                graph: s("graph")?,
                row: ResultRow::read_fields(&v).ok()?,
            }),
            "lease" => Some(Record::Lease {
                spec_hash: s("spec_hash")?,
                key: s("key")?,
                owner: v.get("owner").and_then(Value::as_u64)? as u32,
                acquired_ms: v.get("acquired_ms").and_then(Value::as_u64)?,
                ttl_ms: v.get("ttl_ms").and_then(Value::as_u64)?,
            }),
            "release" => Some(Record::Release {
                spec_hash: s("spec_hash")?,
                key: s("key")?,
                owner: v.get("owner").and_then(Value::as_u64)? as u32,
            }),
            _ => None,
        }
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
    /// Live (unreleased, unsuperseded) leases per `(spec_hash, key)`.
    leases: BTreeMap<(String, String), (u32, u64, u64)>,
    /// What the scan observed.
    pub report: StoreLoadReport,
}

impl StoreSnapshot {
    fn replay(&mut self, record: Record) {
        match record {
            Record::Result {
                spec_hash,
                app,
                graph,
                row,
            } => {
                let key = cell_key(&app, &graph, &row.config);
                self.leases.remove(&(spec_hash.clone(), key.clone()));
                self.results.insert((spec_hash, key), row);
            }
            Record::Lease {
                spec_hash,
                key,
                owner,
                acquired_ms,
                ttl_ms,
            } => {
                self.leases
                    .insert((spec_hash, key), (owner, acquired_ms, ttl_ms));
            }
            Record::Release {
                spec_hash,
                key,
                owner,
            } => {
                if self
                    .leases
                    .get(&(spec_hash.clone(), key.clone()))
                    .map(|l| l.0)
                    == Some(owner)
                {
                    self.leases.remove(&(spec_hash, key));
                }
            }
        }
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

    /// The live lease on `key` at wall-clock `now_ms`, if any.
    pub fn live_lease(&self, spec_hash: &str, key: &str, now_ms: u64) -> Option<StoreLease> {
        let &(owner, acquired_ms, ttl_ms) =
            self.leases.get(&(spec_hash.to_owned(), key.to_owned()))?;
        if now_ms >= acquired_ms.saturating_add(ttl_ms) {
            return None;
        }
        Some(StoreLease {
            owner,
            acquired_ms,
            ttl_ms,
        })
    }

    /// Total distinct results across every spec hash.
    pub fn total_results(&self) -> usize {
        self.results.len()
    }
}

/// A live lease, as seen by another process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLease {
    /// Owning process id.
    pub owner: u32,
    /// When the lease was taken, ms since the Unix epoch.
    pub acquired_ms: u64,
    /// Lease time-to-live in ms.
    pub ttl_ms: u64,
}

impl StoreLease {
    /// Milliseconds until this lease expires at `now_ms` (0 if already
    /// expired).
    pub fn expires_in_ms(&self, now_ms: u64) -> u64 {
        self.acquired_ms
            .saturating_add(self.ttl_ms)
            .saturating_sub(now_ms)
    }
}

/// Outcome of a claim attempt ([`Store::try_claim`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// The cell already has a result; no simulation needed.
    Done(ResultRow),
    /// This process now holds the lease and must simulate the cell.
    Claimed,
    /// Another live process holds the lease; poll again later.
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
    /// Cut the next *result* append after writing this many bytes of
    /// the frame, then report an I/O error (simulates dying mid-write).
    /// `u64::MAX` = disarmed.
    torn_write_at: AtomicU64,
    /// Flip the checksum of the next N result appends (simulates a
    /// bit flip that fsync cannot catch; the write itself "succeeds").
    crc_flips: AtomicU32,
    /// Fail the next N lock acquisitions with an I/O error.
    lock_failures: AtomicU32,
}

impl StoreFaults {
    /// No faults.
    pub fn none() -> Self {
        let inner = StoreFaultsInner {
            torn_write_at: AtomicU64::new(u64::MAX),
            crc_flips: AtomicU32::new(0),
            lock_failures: AtomicU32::new(0),
        };
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Arm a torn write: the next result append stops after `at`
    /// bytes of the frame and reports an I/O error. `at = 0` models a
    /// crash before anything hit the disk; a value inside the frame
    /// models a torn tail.
    pub fn torn_write(self, at: u64) -> Self {
        self.inner.torn_write_at.store(at, Ordering::Relaxed);
        self
    }

    /// Arm `n` checksum flips on upcoming result appends.
    pub fn crc_flips(self, n: u32) -> Self {
        self.inner.crc_flips.store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` lock-acquire failures.
    pub fn lock_failures(self, n: u32) -> Self {
        self.inner.lock_failures.store(n, Ordering::Relaxed);
        self
    }

    /// Parses a CLI store-fault spec: `torn[:BYTES]`, `short`, `crc`,
    /// or `lock` (see `repro study --inject-store-fault`).
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
            None if spec == "lock" => Ok(self.lock_failures(2)),
            _ => Err(GgsError::InvalidSpec(format!(
                "unknown store fault {spec:?} (expected torn[:BYTES], short, crc, or lock)"
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

    fn take_lock_failure(&self) -> bool {
        self.inner
            .lock_failures
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Report of one [`Store::compact`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Result records kept (latest per cell).
    pub kept_records: usize,
    /// Records dropped: superseded duplicates, leases, releases.
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

/// A handle on one on-disk result store.
///
/// The handle is `Sync`: study worker threads share one `Store`, and
/// independent processes open their own handles on the same path. All
/// mutation serializes through the advisory lock file. Sibling threads
/// queue on the handle's index mutex, which a thread holds for as long
/// as it holds the lock file, so they never contend for the file.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    lock_path: PathBuf,
    owner: u32,
    lock_retry: RetryPolicy,
    faults: StoreFaults,
    /// This handle's replayed view of the file; its mutex also
    /// serializes lock-file critical sections among sibling threads.
    index: Mutex<Index>,
}

impl Store {
    /// Opens (creating if absent) the store at `path` with no fault
    /// injection and the default lock retry policy.
    pub fn open(path: &Path) -> Result<Self, GgsError> {
        Self::open_with(path, StoreFaults::none())
    }

    /// Opens (creating if absent) the store at `path` with injected
    /// `faults`.
    ///
    /// Creation writes the magic + version header; opening an existing
    /// file validates it and repairs a torn tail (truncating trailing
    /// garbage back to the last intact frame) so later appends stay
    /// parseable. A file with the wrong magic or a newer format
    /// version is refused with [`GgsError::StoreFormat`].
    pub fn open_with(path: &Path, faults: StoreFaults) -> Result<Self, GgsError> {
        let owner = std::process::id();
        let store = Self {
            path: path.to_owned(),
            lock_path: lock_path_for(path),
            owner,
            // Lock holds are milliseconds; retry often, briefly, and
            // with per-process jitter so contending processes do not
            // hammer the lock in phase (docs/robustness.md).
            lock_retry: RetryPolicy {
                max_attempts: 64,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(50),
                jitter_seed: Some(u64::from(owner) ^ 0x9e37_79b9_7f4a_7c15),
            },
            faults,
            index: Mutex::new(Index::new()),
        };
        {
            let mut lock = store.acquire_lock()?;
            store.ensure_header_locked()?;
            store.repair_tail_locked(&mut lock)?;
        }
        Ok(store)
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Overrides the lease owner id (defaults to the process id).
    /// Lets tests — and future in-process shard runners — model
    /// multiple independent claimants inside one process.
    pub fn with_owner(mut self, owner: u32) -> Self {
        self.owner = owner;
        self
    }

    /// Tolerantly loads the store: every intact record is replayed
    /// into a [`StoreSnapshot`]; torn/truncated/bit-flipped records
    /// are skipped and reported on `snapshot.report`. Never panics;
    /// errors only on unreadable files or a foreign/newer header.
    ///
    /// The result equals a full scan of the file, but only the bytes
    /// appended since this handle last read are replayed
    /// ([index](#the-per-handle-index)).
    pub fn load(&self) -> Result<StoreSnapshot, GgsError> {
        let mut index = self.lock_index();
        index.catch_up(&self.path, true)?;
        Ok(index.view().clone())
    }

    /// Publishes a completed cell result (append + flush under the
    /// file lock). The result supersedes any lease on the cell.
    pub fn publish(
        &self,
        spec_hash: &str,
        app: &str,
        graph: &str,
        row: &ResultRow,
    ) -> Result<(), GgsError> {
        let record = Record::Result {
            spec_hash: spec_hash.to_owned(),
            app: app.to_owned(),
            graph: graph.to_owned(),
            row: row.clone(),
        };
        let mut lock = self.acquire_lock_durable()?;
        self.append(&mut lock, &record, true)
    }

    /// Attempts to claim cell `key` for this process, and returns the
    /// existing result, a fresh lease, or the live competing lease.
    /// Expired leases are reclaimed (expiry-based recovery from crashed
    /// owners). A result already in this handle's index is returned
    /// without touching the file; otherwise the handle catches up with
    /// the store under the lock and decides there.
    pub fn try_claim(&self, spec_hash: &str, key: &str, ttl: Duration) -> Result<Claim, GgsError> {
        let index = self.lock_index();
        if let Some(row) = index.view().lookup(spec_hash, key) {
            return Ok(Claim::Done(row.clone()));
        }
        let mut lock = self.lock_file(index, None)?;
        lock.index.catch_up(&self.path, false)?;
        let snapshot = lock.index.view();
        if let Some(row) = snapshot.lookup(spec_hash, key) {
            return Ok(Claim::Done(row.clone()));
        }
        let now = now_ms();
        if let Some(lease) = snapshot.live_lease(spec_hash, key, now) {
            if lease.owner != self.owner {
                return Ok(Claim::Busy(lease));
            }
        }
        let record = Record::Lease {
            spec_hash: spec_hash.to_owned(),
            key: key.to_owned(),
            owner: self.owner,
            acquired_ms: now,
            ttl_ms: ttl.as_millis() as u64,
        };
        let frame = self.append_locked(&record, false)?;
        lock.index.appended(&self.path, &frame)?;
        Ok(Claim::Claimed)
    }

    /// Releases a lease this process holds on `key` (used when a
    /// claimed cell fails instead of producing a result, so other
    /// processes need not wait out the TTL). Best-effort by design.
    pub fn release(&self, spec_hash: &str, key: &str) -> Result<(), GgsError> {
        let record = Record::Release {
            spec_hash: spec_hash.to_owned(),
            key: key.to_owned(),
            owner: self.owner,
        };
        let mut lock = self.acquire_lock()?;
        self.append(&mut lock, &record, false)
    }

    /// Rewrites the store to only the newest result record per cell
    /// plus any unexpired leases, dropping superseded duplicates,
    /// releases, expired leases, and corrupt spans. The rewrite goes
    /// to the sibling file `PATH.tmp`, is flushed to disk, and replaces
    /// the store by atomic rename, whose directory entry is flushed in
    /// turn: a crash mid-compaction leaves the old file intact.
    ///
    /// Once the new file is in place, emits a
    /// [`TraceEvent::StoreEvict`] through `sink` with the report's
    /// dropped records and reclaimed bytes, timestamped relative to
    /// `epoch` (the start of the run that compacts).
    pub fn compact(&self, sink: &dyn TraceSink, epoch: Instant) -> Result<CompactReport, GgsError> {
        let mut lock = self.acquire_lock()?;
        let old_len = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        lock.index.catch_up(&self.path, true)?;
        let snapshot = lock.index.view();
        let now = now_ms();

        let mut out = Vec::with_capacity(HEADER_LEN + snapshot.results.len() * 128);
        out.extend_from_slice(&STORE_MAGIC);
        out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
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
        let mut live_leases = 0usize;
        for ((spec_hash, key), &(owner, acquired_ms, ttl_ms)) in &snapshot.leases {
            if now >= acquired_ms.saturating_add(ttl_ms) {
                continue; // expired: reclaimable, drop it
            }
            out.extend_from_slice(
                &Record::Lease {
                    spec_hash: spec_hash.clone(),
                    key: key.clone(),
                    owner,
                    acquired_ms,
                    ttl_ms,
                }
                .frame(),
            );
            live_leases += 1;
        }
        let report = CompactReport {
            kept_records: kept,
            dropped_records: snapshot.report.records - kept - live_leases,
            dropped_corrupt: snapshot.report.corrupt.len(),
            reclaimed_bytes: old_len.saturating_sub(out.len() as u64),
        };

        let tmp = sibling_path(&self.path, ".tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&out)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // The index now describes the file just written.
        *lock.index = Index::on(file)?;
        lock.index.ingest(&out)?;
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

    // ---- internals ----------------------------------------------------

    /// Writes the header if the file is missing or empty. Must hold
    /// the lock.
    fn ensure_header_locked(&self) -> Result<(), GgsError> {
        let len = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if len == 0 {
            let mut file = File::create(&self.path)?;
            file.write_all(&STORE_MAGIC)?;
            file.write_all(&STORE_FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&0u32.to_le_bytes())?;
            file.sync_all()?;
            return Ok(());
        }
        // Validate an existing header (every scan re-validates it;
        // this catches foreign files before we ever append to them).
        let mut head = [0u8; HEADER_LEN];
        let mut file = File::open(&self.path)?;
        let got = file.read(&mut head)?;
        let consumed = check_header(&head[..got])?;
        if consumed < HEADER_LEN {
            // A crash tore the initial header write (magic prefix is
            // ours, but the header is incomplete). No record can have
            // followed it, so rewriting a fresh header loses nothing —
            // and without it every later append would be unreadable.
            drop(file);
            let mut file = File::create(&self.path)?;
            file.write_all(&STORE_MAGIC)?;
            file.write_all(&STORE_FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&0u32.to_le_bytes())?;
            file.sync_all()?;
        }
        Ok(())
    }

    /// Truncates trailing garbage (a torn final write) back to the
    /// last intact frame, so appends after a crash remain parseable.
    /// Mid-file corruption is left in place — readers skip it — but a
    /// corrupt *tail* would corrupt every subsequent append. Seeds the
    /// index from the scan it does. Must hold the lock.
    fn repair_tail_locked(&self, lock: &mut LockGuard<'_>) -> Result<(), GgsError> {
        lock.index.catch_up(&self.path, false)?;
        let valid_end = lock.index.view().report.valid_end;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        if valid_end < file.metadata()?.len() {
            file.set_len(valid_end)?;
            file.sync_all()?;
            // The cut only removes bytes past the settled prefix.
            lock.index.catch_up(&self.path, false)?;
        }
        Ok(())
    }

    /// Appends one framed record and flushes it, returning the bytes
    /// written. Must hold the lock. `durable` additionally fsyncs (used
    /// for results; leases and releases are advisory and survive on
    /// best effort).
    fn append_locked(&self, record: &Record, durable: bool) -> Result<Vec<u8>, GgsError> {
        let mut frame = record.frame();
        let is_result = matches!(record, Record::Result { .. });
        if is_result && self.faults.take_crc_flip() {
            // Corrupt the stored checksum; the write itself succeeds,
            // exactly like a bit flip between memory and platter.
            frame[8] ^= 0x01;
        }
        let torn = if is_result {
            self.faults.take_torn()
        } else {
            None
        };
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        if let Some(at) = torn {
            let cut = (at as usize).min(frame.len().saturating_sub(1));
            file.write_all(&frame[..cut])?;
            let _ = file.flush();
            let _ = file.sync_all();
            return Err(GgsError::Io(std::io::Error::other(format!(
                "injected torn write after {cut} of {} bytes",
                frame.len()
            ))));
        }
        file.write_all(&frame)?;
        file.flush()?;
        if durable {
            file.sync_all()?;
        }
        Ok(frame)
    }

    /// Catches the index up, appends `record`, and replays it into the
    /// index. Must hold the lock.
    fn append(
        &self,
        lock: &mut LockGuard<'_>,
        record: &Record,
        durable: bool,
    ) -> Result<(), GgsError> {
        lock.index.catch_up(&self.path, false)?;
        let frame = self.append_locked(record, durable)?;
        lock.index.appended(&self.path, &frame)
    }

    /// Locks this handle's index, resetting an index left poisoned by a
    /// panicking thread: the next catch-up rescans the file.
    fn lock_index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(|poisoned| {
            self.index.clear_poison();
            let mut index = poisoned.into_inner();
            *index = Index::new();
            index
        })
    }

    /// Acquires the advisory lock file with bounded, jittered backoff;
    /// stale locks (older than [`LOCK_STALE_MS`]) are reclaimed.
    fn acquire_lock(&self) -> Result<LockGuard<'_>, GgsError> {
        self.lock_file(self.lock_index(), None)
    }

    /// Like [`Self::acquire_lock`], but retries until a wall-clock
    /// deadline instead of a bounded attempt count. Used on the
    /// publish path: a computed result in hand is worth far more than
    /// the wait, and giving up there would strand a lease whose
    /// expiry makes a peer re-simulate the cell. Stale-lock reclaim
    /// guarantees forward progress within [`LOCK_STALE_MS`] even if a
    /// competing holder died mid-append, so `2.5×` that bound means
    /// the deadline only fires on a genuinely wedged filesystem.
    fn acquire_lock_durable(&self) -> Result<LockGuard<'_>, GgsError> {
        let deadline = Instant::now() + Duration::from_millis(LOCK_STALE_MS.saturating_mul(5) / 2);
        self.lock_file(self.lock_index(), Some(deadline))
    }

    /// Takes the lock file on behalf of the thread holding `index`;
    /// the returned guard keeps both until it drops.
    fn lock_file<'a>(
        &'a self,
        index: MutexGuard<'a, Index>,
        deadline: Option<Instant>,
    ) -> Result<LockGuard<'a>, GgsError> {
        if self.faults.take_lock_failure() {
            return Err(GgsError::StoreLock {
                detail: format!(
                    "injected lock-acquire failure on {}",
                    self.lock_path.display()
                ),
            });
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&self.lock_path)
            {
                Ok(mut file) => {
                    let _ = write!(
                        file,
                        "{{\"pid\":{},\"acquired_ms\":{}}}",
                        self.owner,
                        now_ms()
                    );
                    return Ok(LockGuard { store: self, index });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if self.lock_is_stale() {
                        // Best-effort reclaim; losing the race to
                        // another reclaimer just means one more retry.
                        let _ = std::fs::remove_file(&self.lock_path);
                        continue;
                    }
                    let exhausted = match deadline {
                        Some(deadline) => Instant::now() >= deadline,
                        None => attempt >= self.lock_retry.max_attempts,
                    };
                    if exhausted {
                        return Err(GgsError::StoreLock {
                            detail: format!(
                                "{} still held after {} attempts",
                                self.lock_path.display(),
                                attempt
                            ),
                        });
                    }
                    std::thread::sleep(self.lock_retry.backoff(attempt));
                }
                Err(e) => return Err(GgsError::Io(e)),
            }
        }
    }

    /// Whether the current lock file is older than [`LOCK_STALE_MS`]
    /// (its owner presumed dead mid-critical-section).
    fn lock_is_stale(&self) -> bool {
        let Ok(text) = std::fs::read_to_string(&self.lock_path) else {
            // Unreadable or already gone: retry will sort it out.
            return false;
        };
        let acquired = json::parse(&text)
            .ok()
            .and_then(|v| v.get("acquired_ms").and_then(Value::as_u64));
        match acquired {
            Some(t) => now_ms().saturating_sub(t) > LOCK_STALE_MS,
            // No owner record: a peer that just create_new'd the lock
            // has not written its record yet, so judge by file age —
            // reclaiming a freshly created empty lock would break
            // mutual exclusion mid-claim. A crash between create and
            // write leaves an *old* empty file, which this still
            // reclaims rather than wedging the store forever.
            None => std::fs::metadata(&self.lock_path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > Duration::from_millis(LOCK_STALE_MS)),
        }
    }
}

/// Derives the lock-file path: `store.bin` → `store.bin.lock`.
fn lock_path_for(path: &Path) -> PathBuf {
    sibling_path(path, ".lock")
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

/// RAII advisory-lock guard: holds the handle's index mutex and the
/// lock file, and removes the lock file on drop before the mutex is
/// released, so a sibling thread never finds this thread's lock file.
struct LockGuard<'a> {
    store: &'a Store,
    index: MutexGuard<'a, Index>,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.store.lock_path);
    }
}

/// Device and inode numbers: which file a path named when it was read.
#[cfg(unix)]
fn file_id(meta: &Metadata) -> (u64, u64) {
    use std::os::unix::fs::MetadataExt as _;
    (meta.dev(), meta.ino())
}

/// Without inode numbers, a replacement is only caught when it is
/// shorter than the indexed prefix or, on a verified read, by digest.
#[cfg(not(unix))]
fn file_id(_meta: &Metadata) -> (u64, u64) {
    (0, 0)
}

/// One handle's replayed view of the store file (module doc, "The
/// per-handle index").
#[derive(Debug)]
struct Index {
    /// Everything replayed from the settled prefix of the file: the
    /// bytes up to the end of the last intact frame, which no later
    /// append can make scan differently. `snapshot.report.valid_end`
    /// is where it ends.
    snapshot: StoreSnapshot,
    /// FNV-1a-64 of the settled prefix.
    digest: u64,
    /// `snapshot` plus whatever follows the settled prefix, when
    /// anything does.
    tail: Option<StoreSnapshot>,
    /// The file read, held open so a replacement cannot reuse its inode
    /// number, and its [`file_id`].
    file: Option<(File, (u64, u64))>,
}

impl Index {
    fn new() -> Self {
        Self {
            snapshot: StoreSnapshot::default(),
            digest: FNV64_BASIS,
            tail: None,
            file: None,
        }
    }

    /// An empty index that reads from `file`.
    fn on(file: File) -> Result<Self, GgsError> {
        let id = file_id(&file.metadata()?);
        Ok(Self {
            file: Some((file, id)),
            ..Self::new()
        })
    }

    /// Where the settled prefix ends.
    fn offset(&self) -> u64 {
        self.snapshot.report.valid_end
    }

    /// What a full scan of the file as last read would report.
    fn view(&self) -> &StoreSnapshot {
        self.tail.as_ref().unwrap_or(&self.snapshot)
    }

    /// Brings the index up to date with the file at `path`: rescans
    /// from the header if the path names another file or one shorter
    /// than the settled prefix, and otherwise replays only the bytes
    /// past it. `verify` also re-reads the settled prefix and rescans
    /// if its digest changed (an in-place rewrite).
    fn catch_up(&mut self, path: &Path, verify: bool) -> Result<(), GgsError> {
        let meta = match std::fs::metadata(path) {
            Ok(meta) => meta,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                *self = Self::new();
                return Ok(());
            }
            Err(e) => return Err(GgsError::Io(e)),
        };
        let same_file = self
            .file
            .as_ref()
            .is_some_and(|(_, id)| *id == file_id(&meta));
        if !same_file || meta.len() < self.offset() {
            *self = Self::on(File::open(path)?)?;
        }
        let Some((file, _)) = &self.file else {
            return Ok(());
        };
        let mut file: &File = file;
        let offset = self.offset() as usize;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(if verify { 0 } else { offset as u64 }))?;
        file.read_to_end(&mut bytes)?;
        if !verify {
            return self.ingest(&bytes);
        }
        let unchanged = bytes
            .get(..offset)
            .is_some_and(|prefix| fnv1a64(prefix) == self.digest);
        if !unchanged {
            *self = Self {
                file: self.file.take(),
                ..Self::new()
            };
        }
        let offset = self.offset() as usize;
        self.ingest(&bytes[offset..])
    }

    /// Replays `bytes`, the file's contents from the end of the settled
    /// prefix on: what settles into `snapshot`, the rest into `tail`.
    fn ingest(&mut self, mut bytes: &[u8]) -> Result<(), GgsError> {
        self.tail = None;
        if self.offset() == 0 {
            if bytes.is_empty() {
                return Ok(());
            }
            let consumed = check_header(bytes)?;
            if consumed < HEADER_LEN {
                // A torn header: the file reads as empty until the next
                // open rewrites it.
                let mut tail = self.snapshot.clone();
                tail.report.valid_end = consumed as u64;
                self.tail = Some(tail);
                return Ok(());
            }
            self.digest = fnv1a64_extend(self.digest, &bytes[..HEADER_LEN]);
            self.snapshot.report.valid_end = HEADER_LEN as u64;
            bytes = &bytes[HEADER_LEN..];
        }
        let settled = scan_from(bytes, self.offset(), &mut self.snapshot, true);
        self.digest = fnv1a64_extend(self.digest, &bytes[..settled]);
        if settled < bytes.len() {
            let mut tail = self.snapshot.clone();
            scan_from(&bytes[settled..], self.offset(), &mut tail, false);
            self.tail = Some(tail);
        }
        Ok(())
    }

    /// Replays a frame this handle just appended to the file at `path`,
    /// having caught up under the same hold of the lock file. Then an
    /// index with nothing past its settled prefix ends where the frame
    /// starts; otherwise it catches up again, rereading the unsettled
    /// bytes that the frame now follows.
    fn appended(&mut self, path: &Path, frame: &[u8]) -> Result<(), GgsError> {
        if self.offset() < HEADER_LEN as u64 || self.tail.is_some() {
            return self.catch_up(path, false);
        }
        self.ingest(frame)
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

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ggs-store-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(lock_path_for(&path));
        path
    }

    fn row(config: &str, cycles: u64) -> ResultRow {
        ResultRow {
            config: config.to_owned(),
            total_cycles: cycles,
            fractions: [0.2, 0.2, 0.2, 0.2, 0.2],
        }
    }

    #[test]
    fn records_round_trip_through_frames() {
        for record in [
            Record::Result {
                spec_hash: "aa".into(),
                app: "PR".into(),
                graph: "AMZ".into(),
                row: row("SGR", 123),
            },
            Record::Lease {
                spec_hash: "aa".into(),
                key: "PR/AMZ/SGR".into(),
                owner: 7,
                acquired_ms: 1000,
                ttl_ms: 500,
            },
            Record::Release {
                spec_hash: "aa".into(),
                key: "PR/AMZ/SGR".into(),
                owner: 7,
            },
        ] {
            let frame = record.frame();
            let (payload, next) = frame_at(&frame, 0).expect("own frames decode");
            assert_eq!(next, frame.len());
            assert_eq!(Record::parse(payload), Some(record));
        }
    }

    #[test]
    fn publish_lookup_and_later_duplicates_win() {
        let path = temp_store("basic.store");
        let store = Store::open(&path).expect("open");
        store.publish("h1", "PR", "AMZ", &row("SGR", 100)).unwrap();
        store.publish("h1", "PR", "AMZ", &row("SGR", 200)).unwrap();
        store.publish("h2", "PR", "AMZ", &row("SGR", 300)).unwrap();
        let snap = store.load().unwrap();
        assert_eq!(snap.lookup("h1", "PR/AMZ/SGR"), Some(&row("SGR", 200)));
        assert_eq!(snap.lookup("h2", "PR/AMZ/SGR"), Some(&row("SGR", 300)));
        assert_eq!(snap.completed_for("h1").len(), 1);
        assert!(snap.report.corrupt.is_empty());
    }

    #[test]
    fn claim_lease_release_cycle() {
        let path = temp_store("lease.store");
        let store = Store::open(&path).expect("open");
        let ttl = Duration::from_secs(60);
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Claimed
        );
        // Same process can always reclaim its own cell.
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Claimed
        );
        store.release("h", "PR/AMZ/SGR").unwrap();
        let snap = store.load().unwrap();
        assert!(snap.live_lease("h", "PR/AMZ/SGR", now_ms()).is_none());
        // A published result answers later claims with Done.
        store.publish("h", "PR", "AMZ", &row("SGR", 42)).unwrap();
        assert_eq!(
            store.try_claim("h", "PR/AMZ/SGR", ttl).unwrap(),
            Claim::Done(row("SGR", 42))
        );
    }

    #[test]
    fn foreign_lease_blocks_until_expiry() {
        let path = temp_store("foreign-lease.store");
        let store = Store::open(&path).expect("open");
        // Forge a lease from another pid directly.
        let fresh = Record::Lease {
            spec_hash: "h".into(),
            key: "PR/AMZ/SGR".into(),
            owner: store.owner + 1,
            acquired_ms: now_ms(),
            ttl_ms: 60_000,
        };
        {
            let _lock = store.acquire_lock().unwrap();
            store.append_locked(&fresh, false).unwrap();
        }
        match store
            .try_claim("h", "PR/AMZ/SGR", Duration::from_secs(1))
            .unwrap()
        {
            Claim::Busy(lease) => {
                assert_eq!(lease.owner, store.owner + 1);
                assert!(lease.expires_in_ms(now_ms()) > 0);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // An expired foreign lease is reclaimed.
        let stale = Record::Lease {
            spec_hash: "h".into(),
            key: "PR/AMZ/DGR".into(),
            owner: store.owner + 1,
            acquired_ms: now_ms().saturating_sub(10_000),
            ttl_ms: 1,
        };
        {
            let _lock = store.acquire_lock().unwrap();
            store.append_locked(&stale, false).unwrap();
        }
        assert_eq!(
            store
                .try_claim("h", "PR/AMZ/DGR", Duration::from_secs(1))
                .unwrap(),
            Claim::Claimed
        );
    }

    #[test]
    fn corrupt_records_are_skipped_and_reported() {
        let path = temp_store("corrupt.store");
        let store = Store::open(&path).expect("open");
        for i in 0..4 {
            store
                .publish("h", "PR", "AMZ", &row(&format!("C{i}"), i))
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the second record's payload.
        let second = {
            let first_end = frame_at(&bytes, HEADER_LEN).unwrap().1;
            first_end + FRAME_LEN + 4
        };
        bytes[second] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let snap = store.load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 3, "{:?}", snap.report);
        assert_eq!(snap.report.corrupt.len(), 1);
        assert!(snap.report.corrupt_bytes() > 0);
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let path = temp_store("torn.store");
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
        let path = temp_store("faults.store");
        let faults = StoreFaults::none()
            .torn_write(15)
            .crc_flips(1)
            .lock_failures(1);
        let store = Store::open_with(&path, faults).expect_err("lock fault fires on open");
        assert!(matches!(store, GgsError::StoreLock { .. }));

        let faults = StoreFaults::none();
        let store = Store::open_with(&path, faults.clone()).expect("open");
        // First publish: checksum flip — write succeeds, record is dead.
        let _ = faults.clone().crc_flips(1);
        store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        // Second publish: torn write — reported as an I/O error.
        let _ = faults.clone().torn_write(15);
        let err = store.publish("h", "PR", "AMZ", &row("TG0", 2)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert!(err.is_retryable());
        // Both sabotaged records are detected and reported, not trusted.
        let snap = store.load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 0, "{:?}", snap.report);
        assert_eq!(snap.report.corrupt.len(), 2, "{:?}", snap.report);
        // Reopening repairs the (entirely corrupt) tail; a clean publish
        // then loads without corruption.
        let store = Store::open(&path).expect("reopen repairs");
        store.publish("h", "PR", "AMZ", &row("SD1", 3)).unwrap();
        let snap = store.load().unwrap();
        assert_eq!(snap.completed_for("h").len(), 1, "{:?}", snap.report);
        assert!(snap.report.corrupt.is_empty(), "{:?}", snap.report);
    }

    #[test]
    fn foreign_and_newer_files_are_refused() {
        let path = temp_store("foreign.bin");
        std::fs::write(&path, b"definitely not a store file").unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(GgsError::StoreFormat { .. })
        ));

        let path = temp_store("newer.store");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(GgsError::StoreFormat { .. })
        ));
    }

    #[test]
    fn compaction_keeps_latest_results_and_is_loadable() {
        let path = temp_store("compact.store");
        let store = Store::open(&path).expect("open");
        for i in 0..10 {
            store.publish("h", "PR", "AMZ", &row("SGR", i)).unwrap();
        }
        store
            .try_claim("h", "CC/RAJ/DGR", Duration::from_millis(1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5)); // let the lease expire
        let before = std::fs::metadata(&path).unwrap().len();
        let report = store.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        assert_eq!(report.kept_records, 1);
        assert_eq!(report.dropped_records, 10); // 9 superseded + 1 expired lease
        assert!(report.reclaimed_bytes > 0);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        let snap = store.load().unwrap();
        assert_eq!(snap.lookup("h", "PR/AMZ/SGR"), Some(&row("SGR", 9)));
        assert!(snap.report.corrupt.is_empty());
    }

    #[test]
    fn stale_lock_files_are_reclaimed() {
        let path = temp_store("stale-lock.store");
        let store = Store::open(&path).expect("open");
        // Plant a lock from a "dead" process, acquired long ago.
        std::fs::write(
            lock_path_for(&path),
            format!(
                "{{\"pid\":999999,\"acquired_ms\":{}}}",
                now_ms() - LOCK_STALE_MS - 1
            ),
        )
        .unwrap();
        store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        // A *fresh* contentless lock is NOT stale: a peer that just
        // created it may not have written its owner record yet, and
        // reclaiming it would break mutual exclusion mid-claim.
        let lock = lock_path_for(&path);
        std::fs::write(&lock, "garbage").unwrap();
        assert!(!store.lock_is_stale());
        // Once the file itself is old (a crash between create and
        // write), garbage content is reclaimed like any stale lock.
        let old = std::time::SystemTime::now() - Duration::from_millis(LOCK_STALE_MS + 1_000);
        OpenOptions::new()
            .write(true)
            .open(&lock)
            .unwrap()
            .set_modified(old)
            .unwrap();
        assert!(store.lock_is_stale());
        store.publish("h", "PR", "AMZ", &row("TG0", 2)).unwrap();
        assert_eq!(store.load().unwrap().completed_for("h").len(), 2);
    }

    #[test]
    fn store_fault_specs_parse() {
        assert!(StoreFaults::none().parse_spec("torn").is_ok());
        assert!(StoreFaults::none().parse_spec("torn:40").is_ok());
        assert!(StoreFaults::none().parse_spec("short").is_ok());
        assert!(StoreFaults::none().parse_spec("crc").is_ok());
        assert!(StoreFaults::none().parse_spec("lock").is_ok());
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

    /// Satellite: sibling threads on one handle queue on the index
    /// mutex for the whole lock-file critical section, so a thread never
    /// finds a sibling's lock file — even with no lock retries at all.
    #[test]
    fn sibling_threads_never_contend_for_the_lock_file() {
        let path = temp_store("siblings.store");
        let mut store = Store::open(&path).expect("open");
        store.lock_retry.max_attempts = 1;
        let ttl = Duration::from_secs(60);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("PR/T{t}/C{i}");
                        let claim = store.try_claim("h", &key, ttl);
                        assert!(matches!(claim, Ok(Claim::Claimed)), "{key}: {claim:?}");
                        if let Err(e) = store.release("h", &key) {
                            panic!("{key}: release failed: {e}");
                        }
                    }
                });
            }
        });
        let snap = store.load().unwrap();
        assert_eq!(snap.report.records, 800, "{:?}", snap.report);
        assert!(snap.leases.is_empty());
    }

    /// Satellite: compaction replaces the store by renaming `PATH.tmp`
    /// over it, even when the store's own name ends in `.tmp` (it used
    /// to rewrite such a store in place, losing it to a crash before
    /// the rename).
    #[cfg(unix)]
    #[test]
    fn compacting_a_store_named_tmp_replaces_it_by_rename() {
        use std::os::unix::fs::MetadataExt as _;
        let path = temp_store("foo.tmp");
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
        assert!(!lock_path_for(&path).exists());
        assert!(!sibling_path(&path, ".tmp").exists());
        let snap = Store::open(&path).unwrap().load().unwrap();
        assert_eq!(snap.lookup("h", "PR/AMZ/SGR"), Some(&row("SGR", 3)));
        assert_eq!(snap.completed_for("h").len(), 5);
    }

    /// Satellite: two stores differing only in extension no longer share
    /// a temp file, so compacting `x.store` leaves `x.tmp` alone.
    #[test]
    fn compaction_leaves_an_unrelated_dot_tmp_file_alone() {
        let path = temp_store("x.store");
        let bystander = path.with_extension("tmp");
        std::fs::write(&bystander, b"someone else's data").unwrap();
        let store = Store::open(&path).expect("open");
        store.publish("h", "PR", "AMZ", &row("SGR", 1)).unwrap();
        store.publish("h", "PR", "AMZ", &row("SGR", 2)).unwrap();
        store.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        assert_eq!(std::fs::read(&bystander).unwrap(), b"someone else's data");
        assert_eq!(store.load().unwrap().completed_for("h").len(), 1);
    }

    /// Satellite: a handle whose file a peer compacted and then grew past
    /// the handle's old offset rescans the new file instead of reading
    /// on from that offset (which a length check alone would allow).
    #[test]
    fn claims_follow_a_peer_that_replaced_the_file() {
        let path = temp_store("replaced.store");
        let a = Store::open(&path).expect("open A").with_owner(1);
        for i in 0..12 {
            a.publish("h", "PR", "AMZ", &row("SGR", i)).unwrap();
        }
        let old_offset = a.load().unwrap().report.valid_end;

        let b = Store::open(&path).expect("open B").with_owner(2);
        b.compact(&ggs_trace::NOOP, Instant::now()).unwrap();
        let mut published = 0;
        while std::fs::metadata(&path).unwrap().len() <= old_offset {
            b.publish("h", "CC", "RAJ", &row(&format!("C{published}"), published))
                .unwrap();
            published += 1;
        }

        let claim = a.try_claim("h", "CC/RAJ/C0", Duration::from_secs(60));
        assert_eq!(claim.unwrap(), Claim::Done(row("C0", 0)));
        // The claim's catch-up alone (no verifying load) sees the file
        // as a fresh scan does.
        let bytes = std::fs::read(&path).unwrap();
        let index = a.lock_index();
        assert!(
            index.view().report.corrupt.is_empty(),
            "{:?}",
            index.view().report
        );
        assert_eq!(
            index.view().completed_for("h").len(),
            1 + published as usize
        );
        same_as_scan(index.view(), &bytes).unwrap();
    }

    /// A handle whose file was cut under it (an external truncation,
    /// then a repairing open) rescans on its next claim rather than
    /// replaying its own append at the old offset.
    #[test]
    fn claims_rescan_a_file_truncated_under_them() {
        let path = temp_store("truncated-under.store");
        let a = Store::open(&path).expect("open");
        for i in 0..4 {
            a.publish("h", "PR", "AMZ", &row(&format!("C{i}"), i))
                .unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let first_end = frame_at(&bytes, HEADER_LEN).unwrap().1;
        std::fs::write(&path, &bytes[..first_end + 20]).unwrap();
        Store::open(&path).expect("reopen repairs the cut tail");

        let claim = a.try_claim("h", "PR/AMZ/C9", Duration::from_secs(60));
        assert_eq!(claim.unwrap(), Claim::Claimed);
        let bytes = std::fs::read(&path).unwrap();
        same_as_scan(a.lock_index().view(), &bytes).unwrap();
        assert_eq!(a.lock_index().view().completed_for("h").len(), 1);
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
        prop_assert_eq!(&got.leases, &want.leases);
        prop_assert_eq!(&got.report, &want.report);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: two handles driven through random publishes,
        /// claims, releases and compactions, with injected checksum
        /// flips and torn writes and external truncations, always
        /// report what a fresh scan of the file reports.
        #[test]
        fn index_matches_a_fresh_scan(
            ops in prop::collection::vec((0u8..8, 0usize..2, 0u8..4, 0u64..1_000_000), 1..32)
        ) {
            let path = temp_store("differential.store");
            let faults = [StoreFaults::none(), StoreFaults::none()];
            let handles = [
                Store::open_with(&path, faults[0].clone()).map_err(|e| e.to_string())?.with_owner(1),
                Store::open_with(&path, faults[1].clone()).map_err(|e| e.to_string())?.with_owner(2),
            ];
            for (step, &(op, who, cell, n)) in ops.iter().enumerate() {
                let store = &handles[who];
                let key = format!("PR/AMZ/C{cell}");
                // Whether the op went through the lock file and left
                // this handle's index caught up with the file.
                let locked = match op {
                    0 | 1 => store.publish("h", "PR", "AMZ", &row(&format!("C{cell}"), n)).is_ok(),
                    2 | 3 => {
                        let ttl = Duration::from_millis(if n % 2 == 0 { 0 } else { 60_000 });
                        matches!(store.try_claim("h", &key, ttl), Ok(Claim::Claimed | Claim::Busy(_)))
                    }
                    4 => store.release("h", &key).is_ok(),
                    5 => store.compact(&ggs_trace::NOOP, Instant::now()).is_ok(),
                    6 => {
                        if n % 2 == 0 {
                            let _ = faults[who].clone().crc_flips(1);
                        } else {
                            let _ = faults[who].clone().torn_write(n % 300);
                        }
                        false
                    }
                    _ => {
                        let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                        let file = OpenOptions::new().write(true).open(&path).map_err(|e| e.to_string())?;
                        file.set_len(n % (len + 1)).map_err(|e| e.to_string())?;
                        drop(file);
                        Store::open(&path).map_err(|e| e.to_string())?;
                        false
                    }
                };
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                if locked {
                    same_as_scan(store.lock_index().view(), &bytes)
                        .map_err(|e| format!("step {step} op {op}: index of handle {who}: {e}"))?;
                }
                for (h, handle) in handles.iter().enumerate() {
                    let loaded = handle.load().map_err(|e| e.to_string())?;
                    same_as_scan(&loaded, &bytes)
                        .map_err(|e| format!("step {step} op {op}: load of handle {h}: {e}"))?;
                }
            }
        }
    }

    /// A valid store image: the header, then `records` frames cycling
    /// through results, leases and releases on five cells.
    fn store_image(records: usize) -> Vec<u8> {
        let mut bytes = STORE_MAGIC.to_vec();
        bytes.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for i in 0..records {
            let config = format!("C{}", i % 5);
            let key = format!("PR/AMZ/{config}");
            let (spec_hash, owner) = ("h".to_owned(), i as u32);
            let record = match i % 3 {
                0 => Record::Result {
                    spec_hash,
                    app: "PR".to_owned(),
                    graph: "AMZ".to_owned(),
                    row: row(&config, i as u64),
                },
                1 => Record::Lease {
                    spec_hash,
                    key,
                    owner,
                    acquired_ms: 1_000 * i as u64,
                    ttl_ms: 60_000,
                },
                _ => Record::Release {
                    spec_hash,
                    key,
                    owner,
                },
            };
            bytes.extend_from_slice(&record.frame());
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

        /// Fuzz: a record scan of a byte-mutated image never panics,
        /// reports only corrupt spans inside the image, and an index
        /// caught up from any split point equals a full scan.
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
            let mut index = Index::new();
            index.ingest(&bytes[..split % (bytes.len() + 1)]).map_err(|e| e.to_string())?;
            let settled = index.offset() as usize;
            index.ingest(&bytes[settled..]).map_err(|e| e.to_string())?;
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
            let path = temp_store("fuzz.store");
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
