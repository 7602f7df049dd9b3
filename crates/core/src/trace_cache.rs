//! Sweep-level kernel-trace memoization.
//!
//! A study cell's work splits into a *functional producer* — replaying
//! the app's frontier evolution and packing each kernel launch into a
//! [`WarpTrace`] — and a *timing consumer* that feeds those traces to
//! the simulator. The producer half is a pure function of
//! `(app, graph, propagation, tb_size)` and the warp and line size the
//! kernels are packed for: coherence and consistency
//! affect *when* micro-ops complete, never *which* micro-ops exist
//! (the property test in `crates/core/tests/trace_reuse.rs` pins
//! this). The 12-cell coherence × consistency × direction grid
//! therefore contains only two distinct trace streams per static app
//! (push and pull) and one per dynamic app — yet the naive sweep
//! rebuilds the stream for every cell.
//!
//! [`TraceCache`] memoizes streams across cells: the first cell of an
//! `app × graph × direction` group builds the stream (a *miss*), its
//! ~5 siblings replay it by [`Arc`] (a *hit*), and a byte-bounded LRU
//! keeps the cache from growing with the sweep. Hits, misses, and
//! evictions are emitted as [`TraceEvent`]s so the reuse is observable
//! in study traces, exactly like the result store's.
//!
//! One cache serves one warp and line geometry. A [`StreamKey`] names
//! no geometry (`tb_size` is its only machine axis), so every stream in
//! a cache must be packed for the same `warp_size` and `line_bytes`;
//! each [`WarpTrace`] records the geometry it was packed for, and
//! `run_stream_budgeted` refuses a stream whose geometry differs from
//! its spec's with a typed error instead of mis-simulating it.
//!
//! `repro bench`'s grid arm and the benchmark harness share streams
//! through a cache. The study runner needs none: each of its workers
//! walks all the cells of one stream at a time and holds that stream
//! itself (see [`crate::runner`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ggs_apps::AppKind;
use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::trace::WarpTrace;
use ggs_trace::{TraceEvent, TraceSink};

use crate::store::{fnv1a64_extend, FNV64_BASIS};

/// A materialized kernel stream: every packed trace of one workload
/// run, in launch order, individually [`Arc`]'d so consumers never copy
/// records.
pub type TraceStream = Arc<Vec<Arc<WarpTrace>>>;

/// Identity of one cached stream. Graphs are identified by a content
/// fingerprint (see [`graph_fingerprint`]) rather than an address, so
/// equal graphs share entries regardless of where they live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The application.
    pub app: AppKind,
    /// Content fingerprint of the input graph.
    pub graph_fp: u64,
    /// Traversal direction (with `tb_size` and `policy_fp`, the only
    /// axes that change the stream).
    pub prop: Propagation,
    /// Thread-block size the stream was generated for.
    pub tb_size: u32,
    /// Fingerprint of the realized direction policy
    /// ([`ggs_apps::Workload::policy_fingerprint`]): `0` for the
    /// static propagations, a hash of the density threshold and the
    /// per-iteration directions for [`Propagation::Hybrid`].
    /// Keeps hybrid streams from ever colliding with static push/pull
    /// entries — or with hybrid streams realized under a different
    /// threshold.
    pub policy_fp: u64,
}

impl StreamKey {
    /// A key for one cached stream; `policy_fp` is derived from the
    /// workload so callers cannot desynchronize it from `prop`.
    pub fn for_workload(
        workload: &ggs_apps::Workload<'_>,
        prop: Propagation,
        tb_size: u32,
    ) -> Self {
        Self {
            app: workload.app(),
            graph_fp: graph_fingerprint(workload.graph()),
            prop,
            tb_size,
            policy_fp: workload.policy_fingerprint(prop),
        }
    }

    /// The `APP/<fp>/PROP/TB` label used in trace events (hybrid keys
    /// append the policy fingerprint).
    pub fn label(&self, graph_name: &str) -> String {
        let dir = match self.prop {
            Propagation::Pull => "pull",
            Propagation::Push => "push",
            Propagation::PushPull => "pushpull",
            Propagation::Hybrid => "hybrid",
        };
        let mut label = format!(
            "{}/{}/{}/{}",
            self.app.mnemonic(),
            graph_name,
            dir,
            self.tb_size
        );
        if self.policy_fp != 0 {
            label.push_str(&format!("/{:016x}", self.policy_fp));
        }
        label
    }
}

/// Stable 64-bit content fingerprint of a CSR graph (FNV-1a over the
/// shape, topology arrays, and weights). Computed once per graph per
/// study; two structurally identical graphs collide on purpose.
pub fn graph_fingerprint(graph: &Csr) -> u64 {
    let mut h = FNV64_BASIS;
    let mut mix = |word: u64| h = fnv1a64_extend(h, &word.to_le_bytes());
    mix(graph.num_vertices() as u64);
    mix(graph.num_edges());
    for &r in graph.row_ptr() {
        mix(r as u64);
    }
    for &c in graph.col_idx() {
        mix(c as u64);
    }
    mix(graph.is_weighted() as u64);
    if graph.is_weighted() {
        for v in 0..graph.num_vertices() {
            for &w in graph.edge_weights(v).unwrap_or(&[]) {
                mix(w as u64);
            }
        }
    }
    h
}

#[derive(Debug)]
struct CacheEntry {
    stream: TraceStream,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<StreamKey, CacheEntry>,
    /// Per-key build slots: same-key builders serialize on the slot
    /// while other keys proceed; the global lock is never held across
    /// a build.
    building: HashMap<StreamKey, Arc<Mutex<()>>>,
    bytes: u64,
    tick: u64,
}

/// Running totals of cache traffic (monotonic; readable while workers
/// share the cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Streams served without running the producer.
    pub hits: u64,
    /// Streams built by the producer.
    pub misses: u64,
    /// Streams dropped by the LRU to stay under the byte budget.
    pub evicted_streams: u64,
    /// Heap bytes released by evictions.
    pub evicted_bytes: u64,
}

/// An `Arc`-shared, byte-bounded memo of workload kernel streams.
///
/// Thread-safe: the entry map sits behind one mutex that is only held
/// for lookups and inserts; stream *construction* runs outside it,
/// serialized per key so concurrent cells of the same group build the
/// stream exactly once while unrelated groups build in parallel.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use ggs_core::experiment::produce_trace_stream;
/// use ggs_core::trace_cache::{graph_fingerprint, StreamKey, TraceCache};
/// use ggs_apps::{AppKind, Workload};
/// use ggs_graph::GraphBuilder;
/// use ggs_model::Propagation;
///
/// let g = GraphBuilder::new(64)
///     .edges((0..63).map(|i| (i, i + 1)))
///     .symmetric(true)
///     .build()?;
/// let cache = TraceCache::new(64 << 20);
/// let key = StreamKey::for_workload(&Workload::new(AppKind::Pr, &g), Propagation::Push, 256);
/// assert_eq!(key.graph_fp, graph_fingerprint(&g));
/// let build = || Arc::new(produce_trace_stream(AppKind::Pr, &g, Propagation::Push, 256));
/// let first = cache.get_or_build(key, "RING", &ggs_trace::NOOP, || 0, build);
/// let again = cache.get_or_build(key, "RING", &ggs_trace::NOOP, || 0, build);
/// assert!(Arc::ptr_eq(&first, &again));
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct TraceCache {
    inner: Mutex<Inner>,
    capacity_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted_streams: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl TraceCache {
    /// Creates a cache bounded to `capacity_bytes` of trace heap (as
    /// accounted by [`WarpTrace::heap_bytes`]: 4 bytes per record word
    /// and per warp offset, since packed arenas are shrunk to their
    /// length). A stream larger than the whole budget is returned to its
    /// builder but never cached.
    pub fn new(capacity_bytes: u64) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(Inner::default()),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted_streams: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        })
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Heap bytes currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Streams currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no streams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic totals since construction.
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted_streams: self.evicted_streams.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }

    /// Returns `key`'s stream, running `build` only if no sibling cell
    /// has built it yet. Emits a [`TraceEvent::TraceCacheHit`] or
    /// [`TraceEvent::TraceCacheMiss`] through `sink` (labelled with
    /// `graph_name`; `now_us` supplies the event timestamp) and a
    /// [`TraceEvent::TraceCacheEvict`] when the insert pushed older
    /// streams out.
    pub fn get_or_build(
        &self,
        key: StreamKey,
        graph_name: &str,
        sink: &dyn TraceSink,
        now_us: impl Fn() -> u64,
        build: impl FnOnce() -> TraceStream,
    ) -> TraceStream {
        // Fast path + build-slot acquisition. The slot is cloned out so
        // the global lock is never held while waiting on (or running) a
        // build — only same-key callers serialize.
        let slot = {
            let mut inner = self.lock();
            if let Some(stream) = Self::lookup(&mut inner, key) {
                drop(inner);
                self.note_hit(key, graph_name, sink, &now_us);
                return stream;
            }
            inner
                .building
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(())))
                .clone()
        };
        let _guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        // Double-check: a same-key builder may have finished while we
        // waited on the slot. Late arrivals count as hits — the work
        // was shared either way.
        if let Some(stream) = Self::lookup(&mut self.lock(), key) {
            self.note_hit(key, graph_name, sink, &now_us);
            return stream;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if sink.enabled() {
            sink.emit(&TraceEvent::TraceCacheMiss {
                key: key.label(graph_name),
                at_us: now_us(),
            });
        }
        let stream = build();
        let bytes: u64 = stream.iter().map(|k| k.heap_bytes()).sum();
        let mut evicted = (0u64, 0u64);
        {
            let mut inner = self.lock();
            if bytes <= self.capacity_bytes {
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.insert(
                    key,
                    CacheEntry {
                        stream: Arc::clone(&stream),
                        bytes,
                        last_used: tick,
                    },
                );
                inner.bytes += bytes;
                evicted = self.evict_over_budget(&mut inner, key);
            }
            inner.building.remove(&key);
        }
        if evicted.0 > 0 && sink.enabled() {
            sink.emit(&TraceEvent::TraceCacheEvict {
                streams: evicted.0,
                bytes: evicted.1,
                at_us: now_us(),
            });
        }
        stream
    }

    fn lookup(inner: &mut MutexGuard<'_, Inner>, key: StreamKey) -> Option<TraceStream> {
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.stream)
        })
    }

    fn note_hit(
        &self,
        key: StreamKey,
        graph_name: &str,
        sink: &dyn TraceSink,
        now_us: &impl Fn() -> u64,
    ) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if sink.enabled() {
            sink.emit(&TraceEvent::TraceCacheHit {
                key: key.label(graph_name),
                at_us: now_us(),
            });
        }
    }

    /// Drops least-recently-used entries until the budget holds,
    /// never evicting `just_inserted` (the caller's own stream).
    /// Returns `(streams, bytes)` evicted.
    fn evict_over_budget(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        just_inserted: StreamKey,
    ) -> (u64, u64) {
        let mut streams = 0u64;
        let mut bytes = 0u64;
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.bytes -= entry.bytes;
                streams += 1;
                bytes += entry.bytes;
            }
        }
        self.evicted_streams.fetch_add(streams, Ordering::Relaxed);
        self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
        (streams, bytes)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_apps::Workload;
    use ggs_graph::GraphBuilder;

    fn ring(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    fn key(app: AppKind, g: &Csr, prop: Propagation) -> StreamKey {
        StreamKey::for_workload(&Workload::new(app, g), prop, 256)
    }

    fn stream(app: AppKind, g: &Csr, prop: Propagation) -> TraceStream {
        Arc::new(crate::experiment::produce_trace_stream(app, g, prop, 256))
    }

    #[test]
    fn fingerprint_distinguishes_topology_and_weights() {
        let a = ring(64);
        let b = ring(65);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&ring(64)));
        let weighted = ring(64).with_hashed_weights(8);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&weighted));
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Fingerprints key trace-cache entries, so the hash must not
        // drift when its implementation is refactored.
        assert_eq!(graph_fingerprint(&ring(64)), 3_718_702_934_302_300_069);
        assert_eq!(
            graph_fingerprint(&ring(64).with_hashed_weights(8)),
            75_461_223_524_790_084
        );
    }

    #[test]
    fn hybrid_keys_never_collide_with_static_keys() {
        let g = ring(64);
        let push = key(AppKind::Bfs, &g, Propagation::Push);
        let pull = key(AppKind::Bfs, &g, Propagation::Pull);
        let hybrid = key(AppKind::Bfs, &g, Propagation::Hybrid);
        assert_eq!((push.policy_fp, pull.policy_fp), (0, 0));
        assert_ne!(hybrid.policy_fp, 0);
        assert_ne!(hybrid, push);
        assert_ne!(hybrid, pull);
        // The label carries the realized-policy fingerprint so traces
        // can distinguish hybrid schedules.
        assert!(hybrid.label("RING").contains("hybrid"));
        assert!(hybrid
            .label("RING")
            .contains(&format!("{:016x}", hybrid.policy_fp)));
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let g = ring(64);
        let cache = TraceCache::new(64 << 20);
        let k = key(AppKind::Pr, &g, Propagation::Push);
        let first = cache.get_or_build(
            k,
            "RING",
            &ggs_trace::NOOP,
            || 0,
            || stream(AppKind::Pr, &g, Propagation::Push),
        );
        let second = cache.get_or_build(
            k,
            "RING",
            &ggs_trace::NOOP,
            || 0,
            || panic!("cached stream must not rebuild"),
        );
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let g = ring(256);
        let groups = [
            (AppKind::Pr, Propagation::Push),
            (AppKind::Pr, Propagation::Pull),
            (AppKind::Mis, Propagation::Push),
        ];
        let sizes: Vec<u64> = groups
            .iter()
            .map(|&(app, prop)| stream(app, &g, prop).iter().map(|k| k.heap_bytes()).sum())
            .collect();
        // Room for any two streams, not all three.
        let cache = TraceCache::new(sizes.iter().sum::<u64>() - 1);
        for (app, prop) in groups {
            cache.get_or_build(
                key(app, &g, prop),
                "RING",
                &ggs_trace::NOOP,
                || 0,
                || stream(app, &g, prop),
            );
        }
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
        assert!(cache.stats().evicted_streams >= 1);
        // The newest stream survives eviction.
        let k = key(AppKind::Mis, &g, Propagation::Push);
        cache.get_or_build(
            k,
            "RING",
            &ggs_trace::NOOP,
            || 0,
            || panic!("newest entry must not have been evicted"),
        );
    }

    #[test]
    fn oversized_streams_pass_through_uncached() {
        let g = ring(256);
        let cache = TraceCache::new(16); // smaller than any real stream
        let k = key(AppKind::Pr, &g, Propagation::Push);
        let s = cache.get_or_build(
            k,
            "RING",
            &ggs_trace::NOOP,
            || 0,
            || stream(AppKind::Pr, &g, Propagation::Push),
        );
        assert!(!s.is_empty());
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_same_key_builders_build_once() {
        let g = Arc::new(ring(128));
        let cache = TraceCache::new(64 << 20);
        let builds = Arc::new(AtomicU64::new(0));
        let k = key(AppKind::Pr, &g, Propagation::Push);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let g = Arc::clone(&g);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    cache.get_or_build(
                        k,
                        "RING",
                        &ggs_trace::NOOP,
                        || 0,
                        || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            stream(AppKind::Pr, &g, Propagation::Push)
                        },
                    );
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn hit_and_miss_events_are_emitted() {
        let g = ring(64);
        let cache = TraceCache::new(64 << 20);
        let sink = ggs_trace::WriterSink::jsonl(Vec::new());
        let k = key(AppKind::Pr, &g, Propagation::Pull);
        for _ in 0..2 {
            cache.get_or_build(
                k,
                "RING",
                &sink,
                || 42,
                || stream(AppKind::Pr, &g, Propagation::Pull),
            );
        }
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert!(out.contains("\"type\":\"trace_cache_miss\""), "{out}");
        assert!(out.contains("\"type\":\"trace_cache_hit\""), "{out}");
        assert!(out.contains("PR/RING/pull/256"), "{out}");
    }
}
