//! The coherent memory system: per-SM L1s, banked shared L2, MSHRs,
//! store buffers, and the two coherence protocols (GPU and DeNovo).
//!
//! Timing is *latency-oracle* style: each access computes its completion
//! time from the current cache/queue state and updates that state
//! immediately. The engine keeps SM clocks closely interleaved, so shared
//! structures (L2 tags, ownership, bank queues) are updated in
//! near-global time order.
//!
//! Per-line and per-word side state (the DeNovo ownership registry, the
//! atomic and ownership-transfer chains) lives in two `PagedMap`s keyed
//! by line and word number, one lookup per access. MSHRs, store buffers
//! and outstanding-atomic trackers are `CompletionRing`s, admitted on
//! every L1 load miss, store and atomic.

use crate::cache::{Cache, LineState, Probe};
#[cfg(feature = "check")]
use crate::check::{InvariantKind, ProtocolChecker, ProtocolViolation};
use crate::config::{CoherenceKind, ConsistencyModel, HwConfig};
use crate::events::CompletionRing;
use crate::noc::Mesh;
use crate::params::SystemParams;
use crate::stats::{MemCounters, RegionStats};
use crate::trace::WORD_SHIFT;
use ggs_trace::{TraceEvent, Tracer};
use std::collections::HashMap;

/// Page granularity of the paged tier: 4Ki keys per page.
const PAGE_BITS: u32 = 12;

/// Slots per page of the paged tier.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// Keys below this bound use the paged tier: lazily allocated
/// 4Ki-slot pages indexed by `key >>` [`PAGE_BITS`], so a map costs
/// one pointer per 4Ki keys of span plus one page per 4Ki-key window
/// that holds a written key — it grows with the keys written, not
/// with the address space below them. Packed traces store line and
/// word numbers as `u32`, so only direct [`MemorySystem`] callers can
/// pass this bound; their keys fall to a `HashMap`.
const PAGED_KEY_LIMIT: u64 = 1 << 32;

/// Per-key state keyed by the key itself (a line number or a word
/// number): keys below [`PAGED_KEY_LIMIT`] index lazily allocated
/// pages that hold their entries inline, the rest a `HashMap`. A key
/// never written reads as `T::default()`; only writes allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PagedMap<T> {
    /// `pages[key >> PAGE_BITS]`, allocated on the first write into its
    /// window. The vector grows to the highest written page.
    pages: Vec<Option<Box<[T]>>>,
    /// Keys at or above [`PAGED_KEY_LIMIT`].
    sparse: HashMap<u64, T>,
}

impl<T: Copy + Default> PagedMap<T> {
    /// The entry of `key`, or `T::default()` if it was never written.
    #[inline]
    fn get(&self, key: u64) -> T {
        if key < PAGED_KEY_LIMIT {
            return match self.pages.get((key >> PAGE_BITS) as usize) {
                Some(Some(page)) => page[key as usize & (PAGE_SLOTS - 1)],
                _ => T::default(),
            };
        }
        self.sparse.get(&key).copied().unwrap_or_default()
    }

    /// The entry of `key` if its page (or hashed entry) exists; never
    /// allocates.
    #[inline]
    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        if key < PAGED_KEY_LIMIT {
            let page = self
                .pages
                .get_mut((key >> PAGE_BITS) as usize)?
                .as_deref_mut()?;
            return Some(&mut page[key as usize & (PAGE_SLOTS - 1)]);
        }
        self.sparse.get_mut(&key)
    }

    /// The entry of `key` for writing, allocating its page on first use.
    #[inline]
    fn entry(&mut self, key: u64) -> &mut T {
        if key >= PAGED_KEY_LIMIT {
            return self.sparse.entry(key).or_default();
        }
        let index = (key >> PAGE_BITS) as usize;
        if index >= self.pages.len() {
            self.pages.resize_with(index + 1, || None);
        }
        let page = self.pages[index].get_or_insert_with(Self::new_page);
        &mut page[key as usize & (PAGE_SLOTS - 1)]
    }

    /// A page of default entries, built on the heap (a page is tens of
    /// KB; kept out of line so no caller carries it on its stack).
    #[cold]
    #[inline(never)]
    fn new_page() -> Box<[T]> {
        vec![T::default(); PAGE_SLOTS].into_boxed_slice()
    }

    /// Every entry of an allocated page or of the hashed tier, with its
    /// key, in no particular order.
    #[cfg(any(test, feature = "check"))]
    fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let paged = self.pages.iter().enumerate().flat_map(|(index, page)| {
            let base = (index as u64) << PAGE_BITS;
            page.iter()
                .flat_map(|page| page.iter().enumerate())
                .map(move |(slot, &entry)| (base | slot as u64, entry))
        });
        paged.chain(self.sparse.iter().map(|(&key, &entry)| (key, entry)))
    }

    /// Every entry of an allocated page or of the hashed tier.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages
            .iter_mut()
            .flatten()
            .flat_map(|page| page.iter_mut())
            .chain(self.sparse.values_mut())
    }

    /// Heap bytes held: the page vector, its allocated pages and the
    /// hashed tier.
    fn heap_bytes(&self) -> u64 {
        let pages = self.pages.iter().flatten().count() * PAGE_SLOTS * size_of::<T>();
        let hashed = self.sparse.capacity() * (size_of::<u64>() + size_of::<T>());
        (self.pages.capacity() * size_of::<Option<Box<[T]>>>() + pages + hashed) as u64
    }
}

/// Bits of a packed [`Chain`] that hold its kernel epoch (high) and
/// its completion cycle (low).
const EPOCH_BITS: u32 = 16;
const CYCLE_BITS: u32 = u64::BITS - EPOCH_BITS;

/// Largest epoch the field holds; the kernel after it clears every
/// chain and restarts the count (see [`MemorySystem::begin_kernel`]).
const EPOCH_MAX: u64 = (1 << EPOCH_BITS) - 1;

/// A serialization chain entry: the completion cycle of the latest
/// atomic to a word, or of the latest ownership transfer of a line,
/// packed beside the epoch (kernel) that wrote it. An entry of another
/// epoch reads as "no chain", so a kernel boundary retires every chain
/// at once. The default entry, epoch 0, is never current once a kernel
/// has begun.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Chain(u64);

impl Chain {
    #[inline]
    fn new(epoch: u64, completion: u64) -> Self {
        assert!(
            completion >> CYCLE_BITS == 0,
            "completion cycle {completion} exceeds {CYCLE_BITS} bits"
        );
        Self(epoch << CYCLE_BITS | completion)
    }

    /// The recorded completion if it belongs to `epoch`, else 0.
    #[inline]
    fn completion(self, epoch: u64) -> u64 {
        if self.0 >> CYCLE_BITS == epoch {
            self.0 & ((1 << CYCLE_BITS) - 1)
        } else {
            0
        }
    }
}

/// DeNovo state of one line: its registered owner SM and its
/// ownership-transfer chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineEntry {
    owner: Option<u32>,
    transfer: Chain,
}

/// Kind of memory access, for per-region attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Load,
    Store,
    Atomic,
}

/// Outcome of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Earliest cycle at which the issuing warp may proceed (back-pressure
    /// from MSHRs / store buffers is folded in here).
    pub proceed_at: u64,
    /// Cycle at which the transaction fully completes (data returned /
    /// write globally visible).
    pub complete_at: u64,
}

impl Access {
    #[inline]
    fn at(proceed_at: u64, complete_at: u64) -> Self {
        Self {
            proceed_at,
            complete_at,
        }
    }
}

/// The coherent memory hierarchy shared by all SMs.
///
/// The lifetime parameter is the borrow of an injected
/// [`ggs_trace::TraceSink`]; constructing via [`MemorySystem::new`]
/// leaves tracing off and the lifetime unconstrained.
///
/// `Clone` copies the whole hierarchy state, so a simulation can fork
/// at a kernel boundary (see `Simulation::fork`).
#[derive(Debug, Clone)]
pub struct MemorySystem<'t> {
    hw: HwConfig,
    mesh: Mesh,
    line_shift: u32,
    banks: u32,
    l2_atomic_occupancy: u64,
    registration_occupancy: u64,
    atomic_rmw: u64,
    l1_atomic_occupancy: u64,
    l1_hit: u64,

    l1: Vec<Cache>,
    l2: Cache,
    /// DeNovo line state by line number. The ownership registry:
    /// a line is registered to an SM iff it is resident `Owned` in that
    /// SM's L1. The transfer chain: a line's registration cannot begin
    /// before the previous transfer of that line completed (DeNovo
    /// ping-pong serialization). Only registrations write it, so
    /// pure-GPU runs keep it empty.
    lines: PagedMap<LineEntry>,
    /// Per-bank next-free time (service occupancy / contention).
    bank_free: Vec<u64>,
    /// Per-word atomic serialization chain by word number (byte
    /// address / 4).
    words: PagedMap<Chain>,
    /// Epoch of the current kernel, tagging the chains it writes.
    epoch: u64,
    mshr: Vec<CompletionRing>,
    store_buf: Vec<CompletionRing>,
    /// Outstanding-atomic trackers: one entry per warp atomic
    /// instruction (the coalescing unit tracks a warp's atomic burst as
    /// one outstanding request), bounding DRFrlx memory-level
    /// parallelism.
    atomic_q: Vec<CompletionRing>,

    /// Event counters (reset by the embedding `Simulation` as needed).
    pub counters: MemCounters,
    /// Registered address regions, sorted by base, for per-data-structure
    /// attribution: `(base, end, name)`.
    regions: Vec<(u64, u64, String)>,
    region_stats: Vec<RegionStats>,

    /// Injected trace sink handle; [`ggs_trace::Tracer::off`] by default.
    tracer: Tracer<'t>,
    /// Cycle of the last ownership-transfer event emitted (stride
    /// sampling bounds the trace volume of hot ping-pong lines).
    last_ownership_emit: u64,

    /// Protocol invariant observer (`check` feature): `None` until
    /// [`MemorySystem::enable_protocol_checker`] turns it on.
    #[cfg(feature = "check")]
    checker: Option<ProtocolChecker>,
}

impl<'t> MemorySystem<'t> {
    /// Builds the memory system for `params` under configuration `hw`,
    /// with tracing off.
    pub fn new(params: &SystemParams, hw: HwConfig) -> Self {
        Self::with_tracer(params, hw, Tracer::off())
    }

    /// Builds the memory system with an injected trace sink handle.
    pub fn with_tracer(params: &SystemParams, hw: HwConfig, tracer: Tracer<'t>) -> Self {
        let line_shift = params.line_bytes.trailing_zeros();
        assert!(
            params.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let n = params.num_sms as usize;
        let l1: Vec<Cache> = (0..n)
            .map(|_| {
                Cache::with_geometry(
                    params.l1_bytes,
                    params.l1_assoc as usize,
                    params.line_bytes as u64,
                )
            })
            .collect();
        Self {
            hw,
            mesh: Mesh::new(params),
            line_shift,
            banks: params.l2_banks,
            l2_atomic_occupancy: params.l2_atomic_occupancy,
            registration_occupancy: params.registration_occupancy,
            atomic_rmw: params.atomic_rmw_cycles,
            l1_atomic_occupancy: params.l1_atomic_occupancy,
            l1_hit: params.l1_hit_cycles,
            l1,
            l2: Cache::with_geometry(
                params.l2_bytes,
                params.l2_assoc as usize,
                params.line_bytes as u64,
            ),
            lines: PagedMap::default(),
            bank_free: vec![0; params.l2_banks as usize],
            words: PagedMap::default(),
            epoch: 0,
            mshr: (0..n)
                .map(|_| CompletionRing::new(params.mshr_entries as usize))
                .collect(),
            store_buf: (0..n)
                .map(|_| CompletionRing::new(params.store_buffer_entries as usize))
                .collect(),
            atomic_q: (0..n)
                .map(|_| CompletionRing::new(params.mshr_entries as usize))
                .collect(),
            counters: MemCounters::default(),
            regions: Vec::new(),
            region_stats: Vec::new(),
            tracer,
            last_ownership_emit: 0,
            #[cfg(feature = "check")]
            checker: None,
        }
    }

    /// Total NoC flits implied by the traffic counters so far (full-line
    /// payloads plus single-flit control messages).
    pub fn noc_flit_total(&self) -> u64 {
        self.mesh.flit_total(
            self.counters.noc_line_transfers,
            self.counters.noc_control_messages,
        )
    }

    /// Registers a named address region `[base, base + bytes)` for
    /// per-data-structure attribution (GSI-style). Regions must not
    /// overlap; accesses outside every region are simply unattributed.
    pub fn register_region(&mut self, name: impl Into<String>, base: u64, bytes: u64) {
        self.regions.push((base, base + bytes, name.into()));
        self.regions.sort_by_key(|r| r.0);
        self.region_stats = vec![RegionStats::default(); self.regions.len()];
    }

    /// Per-region attribution collected so far, as `(name, stats)`.
    pub fn region_stats(&self) -> Vec<(String, RegionStats)> {
        self.regions
            .iter()
            .zip(&self.region_stats)
            .map(|((_, _, n), s)| (n.clone(), *s))
            .collect()
    }

    fn region_of(&self, addr: u64) -> Option<usize> {
        if self.regions.is_empty() {
            return None;
        }
        let i = self.regions.partition_point(|r| r.0 <= addr);
        if i == 0 {
            return None;
        }
        let (base, end, _) = &self.regions[i - 1];
        (addr >= *base && addr < *end).then_some(i - 1)
    }

    fn attribute(&mut self, addr: u64, kind: AccessKind, hit: bool, latency: u64) {
        if let Some(i) = self.region_of(addr) {
            let s = &mut self.region_stats[i];
            match kind {
                AccessKind::Load => {
                    s.loads += 1;
                    if hit {
                        s.l1_hits += 1;
                    }
                }
                AccessKind::Store => {
                    s.stores += 1;
                    if hit {
                        s.store_hits += 1;
                    }
                }
                AccessKind::Atomic => {
                    s.atomics += 1;
                    if hit {
                        s.atomic_hits += 1;
                    }
                }
            }
            s.total_latency += latency;
        }
    }

    /// The configured hardware point.
    pub fn hw(&self) -> HwConfig {
        self.hw
    }

    /// Switches the consistency model recorded with the hardware point.
    /// The memory system itself never consults it (only the coherence
    /// protocol), so a forked simulation carries its new model here.
    pub(crate) fn set_consistency(&mut self, model: ConsistencyModel) {
        self.hw.consistency = model;
    }

    /// Heap bytes held by the hierarchy state: caches, the line and
    /// word maps, completion rings and region attribution.
    /// Grows with the lines and words a run touches, not with the span
    /// of the address space.
    pub fn heap_bytes(&self) -> u64 {
        let vec = |len: usize, elem: usize| (len * elem) as u64;
        let rings = [&self.mshr, &self.store_buf, &self.atomic_q]
            .into_iter()
            .map(|q| {
                vec(q.capacity(), size_of::<CompletionRing>())
                    + q.iter().map(CompletionRing::heap_bytes).sum::<u64>()
            })
            .sum::<u64>();
        vec(self.l1.capacity(), size_of::<Cache>())
            + self.l1.iter().map(Cache::heap_bytes).sum::<u64>()
            + self.l2.heap_bytes()
            + self.lines.heap_bytes()
            + self.words.heap_bytes()
            + vec(self.bank_free.capacity(), size_of::<u64>())
            + rings
            + vec(self.regions.capacity(), size_of::<(u64, u64, String)>())
            + vec(self.region_stats.capacity(), size_of::<RegionStats>())
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn bank_of(&self, line: u64) -> u32 {
        // The default 16-bank geometry takes the mask path; a runtime
        // `div` here is measurable on the access hot path.
        if self.banks.is_power_of_two() {
            (line & (self.banks as u64 - 1)) as u32
        } else {
            (line % self.banks as u64) as u32
        }
    }

    /// The registered owner of `line`, ignoring the active coherence
    /// protocol (checker paths need the raw registry view).
    #[inline]
    fn registered_owner(&self, line: u64) -> Option<u32> {
        self.lines.get(line).owner
    }

    /// The registered owner of `line` on the access hot path. Under GPU
    /// coherence the registry is provably empty (registrations only
    /// happen under DeNovo, and the hardware point is fixed at
    /// construction), so the lookup is skipped entirely.
    #[inline]
    fn owner_of(&self, line: u64) -> Option<u32> {
        match self.hw.coherence {
            CoherenceKind::Gpu => None,
            CoherenceKind::DeNovo => self.registered_owner(line),
        }
    }

    /// Acquires an L2 bank for `occupancy` cycles starting no earlier
    /// than `arrive`; returns the service start time.
    fn bank_service(&mut self, bank: u32, arrive: u64, occupancy: u64) -> u64 {
        let slot = &mut self.bank_free[bank as usize];
        let start = arrive.max(*slot);
        *slot = start + occupancy;
        start
    }

    /// Probes the L2 for `line`, filling it `Valid` on a miss; returns
    /// whether it hit.
    fn l2_hit_or_fill(&mut self, line: u64) -> bool {
        let p = self.l2.probe(line);
        let hit = p.state().is_some();
        if !hit {
            self.l2.fill(p, line, LineState::Valid);
        }
        hit
    }

    /// One round trip from SM `sm` to `line`'s home L2 bank, leaving at
    /// `leave`: half the mesh latency out, bank service starting no
    /// earlier than `earliest` (e.g. the previous atomic to the same
    /// word) and occupying the bank for `occupancy` cycles, the L2
    /// probe and fill (plus the memory penalty on a miss), `service`
    /// cycles of work at the bank, then half the mesh latency back.
    /// Returns `(done_at_bank, complete_at)`.
    fn l2_trip(
        &mut self,
        sm: u32,
        line: u64,
        leave: u64,
        earliest: u64,
        occupancy: u64,
        service: u64,
    ) -> (u64, u64) {
        let bank = self.bank_of(line);
        let half = self.mesh.l2_latency(sm, bank) / 2;
        let start = self.bank_service(bank, (leave + half).max(earliest), occupancy);
        let penalty = if self.l2_hit_or_fill(line) {
            self.counters.l2_hits += 1;
            0
        } else {
            self.counters.l2_misses += 1;
            self.mesh.mem_penalty(bank)
        };
        let done_at_bank = start + service + penalty;
        (done_at_bank, done_at_bank + half)
    }

    /// Fills `line` in `state` into `sm`'s L1 over the way `probe`
    /// found. An evicted owned line is written back.
    fn l1_fill(&mut self, sm: u32, probe: Probe, line: u64, state: LineState, at: u64) {
        if let Some(ev) = self.l1[sm as usize].fill(probe, line, state) {
            if ev.state == LineState::Owned {
                self.write_back(ev.line, at);
            }
        }
    }

    /// Writes back an owned line leaving an L1: ownership returns to
    /// the L2 directory and the home bank absorbs the data.
    fn write_back(&mut self, line: u64, at: u64) {
        if let Some(entry) = self.lines.get_mut(line) {
            entry.owner = None;
        }
        self.l2_hit_or_fill(line);
        let bank = self.bank_of(line);
        self.bank_service(bank, at, 2);
        self.counters.noc_line_transfers += 1;
    }

    /// The end of every access: attributes it to its address region,
    /// runs the `check` feature's per-line invariant check, and returns
    /// `access`.
    #[inline]
    fn finish(
        &mut self,
        addr: u64,
        kind: AccessKind,
        hit: bool,
        at: u64,
        access: Access,
    ) -> Access {
        self.attribute(addr, kind, hit, access.complete_at - at);
        #[cfg(feature = "check")]
        self.check_line_invariants(self.line_of(addr), at);
        access
    }

    /// Non-atomic load of one coalesced line by SM `sm` issued at `at`.
    pub fn load(&mut self, sm: u32, addr: u64, at: u64) -> Access {
        let line = self.line_of(addr);
        // The probe's victim stays reserved through the miss path below:
        // nothing in between touches this L1.
        let probe = self.l1[sm as usize].probe(line);
        if probe.state().is_some() {
            self.counters.l1_hits += 1;
            let done = at + self.l1_hit;
            return self.finish(addr, AccessKind::Load, true, at, Access::at(done, done));
        }
        self.counters.l1_misses += 1;
        let start = self.mshr[sm as usize].admit_at(at);
        if start > at {
            self.counters.mshr_stalls += 1;
        }

        let complete_at = match self.owner_of(line) {
            // DeNovo: line lives in another SM's L1; fetch from there
            // (the owner keeps ownership for a read).
            Some(other) if other != sm => {
                self.counters.remote_transfers += 1;
                start + self.mesh.remote_l1_latency(sm, other)
            }
            // Reads are pipelined: one per bank per cycle.
            _ => self.l2_trip(sm, line, start, 0, 1, 1).1,
        };
        self.counters.noc_line_transfers += 1;
        self.mshr[sm as usize].push(complete_at);
        self.l1_fill(sm, probe, line, LineState::Valid, at);
        let access = Access::at(complete_at, complete_at);
        self.finish(addr, AccessKind::Load, false, at, access)
    }

    /// Non-atomic store of one coalesced line by SM `sm` issued at `at`.
    ///
    /// GPU coherence: write-through via the store buffer (the warp
    /// proceeds once a buffer slot is free). DeNovo: obtain ownership at
    /// the L1; the registration occupies a store-buffer slot until it
    /// completes, but the warp proceeds immediately.
    pub fn store(&mut self, sm: u32, addr: u64, at: u64) -> Access {
        let line = self.line_of(addr);
        let (hit, access) = match self.hw.coherence {
            CoherenceKind::Gpu => {
                self.counters.write_throughs += 1;
                let admit = self.store_buf[sm as usize].admit_at(at);
                if admit > at {
                    self.counters.store_buffer_stalls += 1;
                }
                let (_, complete_at) = self.l2_trip(sm, line, admit, 0, 1, 0);
                self.counters.noc_line_transfers += 1;
                self.store_buf[sm as usize].push(complete_at);
                // Write-through updates a resident L1 copy in place (it
                // stays Valid); no allocation on miss.
                (false, Access::at(admit + 1, complete_at))
            }
            CoherenceKind::DeNovo => match self.own_or_register(sm, line, at) {
                // Already owned: pure local write.
                None => (true, Access::at(at + self.l1_hit, at + self.l1_hit)),
                Some(complete_at) => (false, Access::at(at + 1, complete_at)),
            },
        };
        self.finish(addr, AccessKind::Store, hit, at, access)
    }

    /// The DeNovo write step shared by stores and atomics: an owner's
    /// access only refreshes its L1 copy's LRU position and returns
    /// `None`; any other SM registers ownership and gets the
    /// registration's completion time. The L1 probe answers who owns
    /// the line: the registry names `sm` exactly when `sm`'s L1 holds
    /// the line `Owned` (see `owner`).
    fn own_or_register(&mut self, sm: u32, line: u64, at: u64) -> Option<u64> {
        let probe = self.l1[sm as usize].probe(line);
        (probe.state() != Some(LineState::Owned))
            .then(|| self.register_ownership(sm, probe, line, at))
    }

    /// Obtains DeNovo ownership of `line` for SM `sm`: a registration
    /// round-trip through the L2 directory (or the previous owner's L1),
    /// filling the line `Owned` into `sm`'s L1 over the way `probe`
    /// found. Returns the completion time; the registration occupies a
    /// store-buffer slot until then.
    fn register_ownership(&mut self, sm: u32, probe: Probe, line: u64, at: u64) -> u64 {
        self.counters.registrations += 1;
        let entry = self.lines.get(line);
        let admit = self.store_buf[sm as usize].admit_at(at);
        // Transfers of the same line serialize: the directory hands a
        // line to one owner at a time (ping-pong under contention).
        let start = admit.max(entry.transfer.completion(self.epoch));
        let prev = entry.owner;
        let remote = prev.filter(|&p| p != sm);
        if self.tracer.enabled()
            && (at >= self.last_ownership_emit + self.tracer.stride()
                || self.counters.registrations == 1)
        {
            self.last_ownership_emit = at;
            self.tracer.emit(&TraceEvent::OwnershipTransfer {
                sm,
                cycle: at,
                line,
                remote: remote.is_some(),
            });
        }
        let complete_at = if let Some(prev) = remote {
            self.counters.remote_transfers += 1;
            start + self.mesh.remote_l1_latency(sm, prev)
        } else {
            // Directory registration: same bank service cost as an
            // L2 atomic (lookup + state update + data reply).
            let occupancy = self.registration_occupancy;
            self.l2_trip(sm, line, start, 0, occupancy, 0).1
        };
        self.counters.noc_line_transfers += 1;
        self.counters.noc_control_messages += 2; // request + ack

        // The previous owner's hold is revoked: its L1 copy goes.
        if let Some(prev) = prev {
            self.l1[prev as usize].invalidate(line);
        }
        *self.lines.entry(line) = LineEntry {
            owner: Some(sm),
            transfer: Chain::new(self.epoch, complete_at),
        };
        self.l1_fill(sm, probe, line, LineState::Owned, at);
        self.store_buf[sm as usize].push(complete_at);
        complete_at
    }

    /// Atomic read-modify-write on one word by SM `sm` issued at `at`.
    ///
    /// GPU coherence: executes at the word's home L2 bank, serialized per
    /// word and contending for bank service. DeNovo: executes at the L1
    /// when owned (registering first when not), serialized per word.
    pub fn atomic(&mut self, sm: u32, addr: u64, at: u64) -> Access {
        let line = self.line_of(addr);
        let word = addr >> WORD_SHIFT;
        let chain = self.words.get(word).completion(self.epoch);
        let (hit, done, complete_at) = match self.hw.coherence {
            CoherenceKind::Gpu => {
                self.counters.l2_atomics += 1;
                self.counters.noc_control_messages += 2; // request + reply
                let (occupancy, rmw) = (self.l2_atomic_occupancy, self.atomic_rmw);
                let (done_at_bank, complete_at) = self.l2_trip(sm, line, at, chain, occupancy, rmw);
                (false, done_at_bank, complete_at)
            }
            CoherenceKind::DeNovo => {
                self.counters.l1_atomics += 1;
                let registered = self.own_or_register(sm, line, at);
                let done = registered.unwrap_or(at).max(chain) + self.l1_atomic_occupancy;
                (registered.is_none(), done, done)
            }
        };
        *self.words.entry(word) = Chain::new(self.epoch, done);
        self.finish(
            addr,
            AccessKind::Atomic,
            hit,
            at,
            Access::at(at + 1, complete_at),
        )
    }

    /// Reserves an outstanding-atomic slot for one warp atomic
    /// instruction issued at `at`; returns the cycle the slot is
    /// available (back-pressure when all trackers are in flight).
    pub fn atomic_slot_admit(&mut self, sm: u32, at: u64) -> u64 {
        let start = self.atomic_q[sm as usize].admit_at(at);
        if start > at {
            self.counters.mshr_stalls += 1;
        }
        start
    }

    /// Records the completion time of the warp atomic instruction whose
    /// slot was reserved by [`MemorySystem::atomic_slot_admit`].
    pub fn atomic_slot_complete(&mut self, sm: u32, complete_at: u64) {
        self.atomic_q[sm as usize].push(complete_at);
    }

    /// Acquire: flash self-invalidation of SM `sm`'s L1 (owned DeNovo
    /// lines survive).
    pub fn acquire(&mut self, sm: u32) {
        #[cfg(feature = "check")]
        let skipped = self
            .checker
            .as_mut()
            .map(|c| std::mem::take(&mut c.skip_next_invalidation))
            .unwrap_or(false);
        #[cfg(not(feature = "check"))]
        let skipped = false;
        if !skipped {
            let n = self.l1[sm as usize].invalidate_unowned();
            self.counters.invalidations += n;
        }
        #[cfg(feature = "check")]
        self.check_acquire_invariants(sm);
    }

    /// Release: returns the cycle by which all of SM `sm`'s outstanding
    /// write-throughs / registrations have completed.
    pub fn release_drain(&self, sm: u32) -> u64 {
        self.store_buf[sm as usize].drain_time()
    }

    /// Cycle by which every SM's writes have drained (kernel end).
    pub fn global_drain(&self) -> u64 {
        self.store_buf
            .iter()
            .map(|b| b.drain_time())
            .max()
            .unwrap_or(0)
    }

    /// Marks a kernel boundary: clears the per-word atomic and per-line
    /// transfer chains (new kernel, new epoch) and performs the launch
    /// acquire on every SM. Cache and ownership state persist, as in the
    /// simulated machine.
    pub fn begin_kernel(&mut self) {
        // Epoch bumps retire every chain entry at once; the maps keep
        // their pages for the next kernel.
        self.epoch += 1;
        if self.epoch > EPOCH_MAX {
            self.clear_chains();
        }
        for sm in 0..self.l1.len() as u32 {
            self.acquire(sm);
        }
    }

    /// Epoch-field rollover (every [`EPOCH_MAX`] kernels): no chain
    /// written so far belongs to the new kernel, so clear them all and
    /// restart the epoch count. Owners stay. Amortized to nothing;
    /// keeps the 16-bit packed epoch exact over any number of kernels.
    #[cold]
    fn clear_chains(&mut self) {
        self.words.values_mut().for_each(|c| *c = Chain::default());
        self.lines
            .values_mut()
            .for_each(|l| l.transfer = Chain::default());
        self.epoch = 1;
    }
}

/// Protocol invariant checking (see [`crate::check`]). The invariant
/// logic lives here because it needs to peek at every L1 and the
/// ownership registry; `ProtocolChecker` only accumulates violations.
#[cfg(feature = "check")]
impl MemorySystem<'_> {
    /// Turns the protocol invariant checker on. Until this is called,
    /// the compiled-in hooks cost one branch per access.
    pub fn enable_protocol_checker(&mut self) {
        self.checker = Some(ProtocolChecker::default());
    }

    /// Drains every violation recorded since the last call (empty if
    /// the protocol behaved — or the checker was never enabled).
    pub fn take_protocol_violations(&mut self) -> Vec<ProtocolViolation> {
        self.checker
            .as_mut()
            .map(|c| std::mem::take(&mut c.violations))
            .unwrap_or_default()
    }

    /// Full-state audit at cycle `at`: re-checks every line resident in
    /// any L1 or registered in the ownership registry. Use at kernel
    /// boundaries; per-access checking already covers touched lines.
    pub fn audit(&mut self, at: u64) {
        if self.checker.is_none() {
            return;
        }
        let mut lines: Vec<u64> = self
            .lines
            .iter()
            .filter_map(|(line, entry)| entry.owner.map(|_| line))
            .collect();
        for l1 in &self.l1 {
            lines.extend(l1.resident_lines().map(|(line, _)| line));
        }
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            self.check_line_invariants(line, at);
        }
    }

    /// Fault injection for negative tests: plants `line` as `Owned` in
    /// `sm`'s L1 *without* updating the ownership registry, so the next
    /// check of that line reports a violation (ownership-registry
    /// mismatch under DeNovo, owned-line-exists under GPU coherence,
    /// and SWMR if another L1 legitimately owns it).
    pub fn debug_force_owned(&mut self, sm: u32, line: u64) {
        let probe = self.l1[sm as usize].probe(line);
        self.l1[sm as usize].fill(probe, line, LineState::Owned);
    }

    /// Fault injection for negative tests: the next acquire skips its
    /// self-invalidation, leaving stale `Valid` lines for the
    /// post-acquire check to catch. No-op unless the checker is
    /// enabled.
    pub fn debug_skip_next_invalidation(&mut self) {
        if let Some(c) = self.checker.as_mut() {
            c.skip_next_invalidation = true;
        }
    }

    /// Structural view of `sm`'s L1 state for the line containing
    /// `addr` (`None` when not resident). Used by the ggs-verify
    /// conformance bridge to compare the implementation against the
    /// timing-free protocol model step by step.
    pub fn probe_l1_state(&self, sm: u32, addr: u64) -> Option<LineState> {
        self.l1[sm as usize].peek(self.line_of(addr))
    }

    /// Raw ownership-registry entry for the line containing `addr`,
    /// ignoring the active protocol (GPU runs always report `None`).
    pub fn probe_owner(&self, addr: u64) -> Option<u32> {
        self.registered_owner(self.line_of(addr))
    }

    /// Forces the line containing `addr` out of `sm`'s L1 as if it were
    /// chosen as a capacity victim at cycle `at`: an Owned victim
    /// writes back (ownership returns to the L2 directory) exactly like
    /// a real eviction. No-op when the line is not resident. Lets the
    /// ggs-verify bridge replay witness schedules containing explicit
    /// evictions.
    pub fn debug_evict(&mut self, sm: u32, addr: u64, at: u64) {
        let line = self.line_of(addr);
        if self.l1[sm as usize].invalidate(line) == Some(LineState::Owned) {
            self.write_back(line, at);
        }
    }

    /// Checks every per-line invariant for `line` after an access at
    /// cycle `at`: SWMR, ownership-registry consistency (DeNovo), and
    /// no-owned-lines (GPU coherence). The disabled-checker case must
    /// stay an inlined branch: this hook sits on every access, and the
    /// `check` feature is compiled in whenever `ggs-check` is in the
    /// dependency graph — including the benchmark binary.
    #[inline]
    fn check_line_invariants(&mut self, line: u64, at: u64) {
        if self.checker.is_some() {
            self.check_line_invariants_enabled(line, at);
        }
    }

    #[cold]
    fn check_line_invariants_enabled(&mut self, line: u64, at: u64) {
        let owners: Vec<u32> = (0..self.l1.len() as u32)
            .filter(|&s| self.l1[s as usize].peek(line) == Some(LineState::Owned))
            .collect();
        let mut found = Vec::new();
        if owners.len() > 1 {
            found.push(ProtocolViolation {
                cycle: at,
                sm: owners[0],
                line,
                kind: InvariantKind::Swmr,
                detail: format!("line is Owned in {} L1s: SMs {owners:?}", owners.len()),
            });
        }
        match self.hw.coherence {
            CoherenceKind::Gpu => {
                for &sm in &owners {
                    found.push(ProtocolViolation {
                        cycle: at,
                        sm,
                        line,
                        kind: InvariantKind::GpuOwnedLine,
                        detail: "L1 holds an Owned line under write-through GPU coherence"
                            .to_owned(),
                    });
                }
            }
            CoherenceKind::DeNovo => {
                let registered = self.registered_owner(line);
                if let Some(reg) = registered {
                    if !owners.contains(&reg) {
                        found.push(ProtocolViolation {
                            cycle: at,
                            sm: reg,
                            line,
                            kind: InvariantKind::OwnerMapMismatch,
                            detail: format!(
                                "registry says SM {reg} owns the line, but its L1 holds it {:?}",
                                self.l1[reg as usize].peek(line)
                            ),
                        });
                    }
                }
                for &sm in &owners {
                    if registered != Some(sm) {
                        found.push(ProtocolViolation {
                            cycle: at,
                            sm,
                            line,
                            kind: InvariantKind::OwnerMapMismatch,
                            detail: format!(
                                "L1 holds the line Owned, but the registry entry is {registered:?}"
                            ),
                        });
                    }
                }
            }
        }
        let checker = self.checker.as_mut().expect("checked above");
        checker.now = checker.now.max(at);
        checker.violations.extend(found);
    }

    /// Checks the post-acquire invariant for `sm`: after
    /// self-invalidation only `Owned` lines may remain resident, so a
    /// surviving `Valid` line could serve stale data.
    fn check_acquire_invariants(&mut self, sm: u32) {
        if self.checker.is_none() {
            return;
        }
        let stale: Vec<u64> = self.l1[sm as usize]
            .resident_lines()
            .filter(|&(_, state)| state == LineState::Valid)
            .map(|(line, _)| line)
            .collect();
        let checker = self.checker.as_mut().expect("checked above");
        let now = checker.now;
        for line in stale {
            checker.violations.push(ProtocolViolation {
                cycle: now,
                sm,
                line,
                kind: InvariantKind::StaleAfterAcquire,
                detail: "Valid (unowned) line survived the acquire's self-invalidation".to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConsistencyModel;
    use proptest::prelude::*;

    fn mem(coh: CoherenceKind) -> MemorySystem<'static> {
        MemorySystem::new(
            &SystemParams::default(),
            HwConfig::new(coh, ConsistencyModel::Drf1),
        )
    }

    /// Allocated pages of `map`.
    fn pages<T>(map: &PagedMap<T>) -> usize {
        map.pages.iter().flatten().count()
    }

    /// Keys across both tiers: dense runs over the first pages, paged
    /// keys scattered over many pages, and hashed keys from the tier
    /// limit up to `u64::MAX`. (Paged keys just below the limit cost a
    /// 16 MB page vector each case; `paged_map_splits_its_tiers_at_the_limit`
    /// covers them.)
    fn map_keys() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..(3 * PAGE_SLOTS as u64),
            0u64..(1 << 24),
            PAGED_KEY_LIMIT..(PAGED_KEY_LIMIT + 3),
            PAGED_KEY_LIMIT..u64::MAX,
            Just(u64::MAX),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Writes (`Some`) and reads (`None`) against a `HashMap`
        /// reference model: every read returns the model's entry (the
        /// default when absent) and allocates nothing.
        #[test]
        fn paged_map_matches_a_hash_map_model(
            ops in prop::collection::vec((map_keys(), prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)]), 0..200),
        ) {
            let mut map = PagedMap::<u64>::default();
            let mut model = HashMap::new();
            for &(key, write) in &ops {
                let expect = model.get(&key).copied().unwrap_or_default();
                match write {
                    Some(value) => {
                        *map.entry(key) = value;
                        model.insert(key, value);
                    }
                    None => {
                        // A read could only allocate its own key's page
                        // or hashed entry.
                        let index = (key >> PAGE_BITS) as usize;
                        let shape = |m: &PagedMap<u64>| {
                            let page = m.pages.get(index).is_some_and(Option::is_some);
                            (m.pages.len(), page, m.sparse.len())
                        };
                        let before = shape(&map);
                        prop_assert_eq!(map.get(key), expect);
                        prop_assert_eq!(map.get_mut(key).map_or(0, |v| *v), expect);
                        prop_assert_eq!(shape(&map), before);
                    }
                }
            }
            for (&key, &value) in &model {
                prop_assert_eq!(map.get(key), value);
            }
            let mut written: Vec<(u64, u64)> = map.iter().filter(|&(_, v)| v != 0).collect();
            let mut expect: Vec<(u64, u64)> = model.into_iter().filter(|&(_, v)| v != 0).collect();
            written.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(written, expect);
            let copy = map.clone();
            prop_assert!(copy == map);
            prop_assert_eq!(copy.heap_bytes() <= map.heap_bytes(), true);
        }
    }

    #[test]
    fn paged_map_splits_its_tiers_at_the_limit() {
        let mut t = PagedMap::<u64>::default();
        *t.entry(PAGED_KEY_LIMIT - 1) = 1;
        *t.entry(PAGED_KEY_LIMIT) = 2;
        assert_eq!((pages(&t), t.sparse.len()), (1, 1));
        assert_eq!(t.pages.len(), (PAGED_KEY_LIMIT >> PAGE_BITS) as usize);
        assert_eq!((t.get(PAGED_KEY_LIMIT - 1), t.get(PAGED_KEY_LIMIT)), (1, 2));
        assert_eq!(
            (t.get(PAGED_KEY_LIMIT - 2), t.get(PAGED_KEY_LIMIT + 1)),
            (0, 0)
        );
        assert_eq!(t.get_mut(PAGED_KEY_LIMIT + 1), None);
        let mut keys: Vec<(u64, u64)> = t.iter().filter(|&(_, v)| v != 0).collect();
        keys.sort_unstable();
        assert_eq!(keys, [(PAGED_KEY_LIMIT - 1, 1), (PAGED_KEY_LIMIT, 2)]);
        assert!(t.clone() == t);
    }

    #[test]
    fn paged_map_survives_a_dense_key_run() {
        // A contiguous key run far from 0, spanning page boundaries.
        let mut t = PagedMap::<u64>::default();
        let base = (1 << 26) - 100;
        let n = PAGE_SLOTS as u64 * 3;
        for i in 0..n {
            *t.entry(base + i) = i + 1;
        }
        // Three pages of keys that start 100 before a page boundary.
        assert_eq!(pages(&t), 4);
        for i in (0..n).step_by(997) {
            assert_eq!(t.get(base + i), i + 1);
        }
        assert_eq!(t.get(base - 1), 0);
        assert_eq!(t.get(base + n), 0);
        let keys: Vec<(u64, u64)> = t.iter().filter(|&(_, v)| v != 0).collect();
        assert_eq!(keys, (0..n).map(|i| (base + i, i + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn paged_map_grows_with_written_keys_not_their_span() {
        // 1024 word keys past 2^26 untouched ones (a 256 MB address
        // gap) allocate one page plus a pointer per page of span, not a
        // slot per key below them.
        // Entries sit inline: 8 bytes per word, 16 per line.
        assert_eq!((size_of::<Chain>(), size_of::<LineEntry>()), (8, 16));
        let mut t = PagedMap::<Chain>::default();
        let base = 1u64 << 26;
        for i in 0..1024 {
            *t.entry(base + i) = Chain::new(1, i);
        }
        let span_pointers = (base >> PAGE_BITS) as usize * size_of::<Option<Box<[Chain]>>>();
        let page = PAGE_SLOTS * size_of::<Chain>();
        let bytes = t.heap_bytes() as usize;
        assert_eq!(pages(&t), 1);
        assert!(bytes >= span_pointers + page, "{bytes}");
        assert!(
            bytes <= 2 * (span_pointers + page),
            "{bytes} bytes for 1024 keys"
        );
        assert!(bytes < (base as usize) / 64, "{bytes} bytes");
        assert_eq!(t.get(base - 1), Chain::default(), "untouched key");
        assert_eq!(t.get(base >> 1), Chain::default(), "untouched page");
    }

    #[test]
    fn chains_stay_exact_past_the_epoch_field() {
        // DeNovo atomics to a line SM 0 owns complete at
        // `max(at, chain) + occupancy`, so the completion shows exactly
        // whether a chain held. Word 0 takes atomics every kernel; word i
        // every `gaps[i]`-th kernel, around the sizes a narrow epoch
        // field would alias at.
        let occupancy = SystemParams::default().l1_atomic_occupancy;
        let mut m = mem(CoherenceKind::DeNovo);
        let at = m.store(0, 0x1000, 0).complete_at + 1;
        let gaps = [
            1,
            2,
            255,
            256,
            257,
            EPOCH_MAX - 1,
            EPOCH_MAX,
            EPOCH_MAX + 1,
            EPOCH_MAX + 2,
            2 * EPOCH_MAX,
            2 * EPOCH_MAX + 2,
        ];
        let kernels = 3 * (EPOCH_MAX + 1) + 7;
        for kernel in 1..=kernels {
            m.begin_kernel();
            for (i, &gap) in gaps.iter().enumerate() {
                if kernel % gap != 0 {
                    continue;
                }
                let addr = 0x1000 + 4 * i as u64;
                let first = m.atomic(0, addr, at);
                assert_eq!(
                    first.complete_at,
                    at + occupancy,
                    "kernel {kernel}, gap {gap}: an earlier kernel's atomic held"
                );
                let second = m.atomic(0, addr, at);
                assert_eq!(
                    second.complete_at,
                    at + 2 * occupancy,
                    "kernel {kernel}, gap {gap}: the same kernel's atomic did not hold"
                );
            }
        }
        assert_eq!(m.counters.registrations, 1);
        assert_eq!(m.registered_owner(0x1000 >> 6), Some(0));
    }

    #[test]
    fn load_miss_then_hit() {
        let mut m = mem(CoherenceKind::Gpu);
        let a = m.load(0, 0x1000, 0);
        assert!(a.complete_at >= 29, "first load should go to L2/memory");
        let b = m.load(0, 0x1000, a.complete_at);
        assert_eq!(b.complete_at, a.complete_at + 1, "second load is an L1 hit");
        assert_eq!(m.counters.l1_hits, 1);
        assert_eq!(m.counters.l1_misses, 1);
    }

    #[test]
    fn first_touch_pays_memory_latency() {
        let mut m = mem(CoherenceKind::Gpu);
        let a = m.load(0, 0x2000, 0);
        assert!(
            a.complete_at >= 197,
            "cold miss should include memory latency, got {}",
            a.complete_at
        );
        assert_eq!(m.counters.l2_misses, 1);
        // A different SM touching the same line now hits in L2.
        let b = m.load(1, 0x2000, 1000);
        assert!(b.complete_at - 1000 < 197, "L2 hit should be fast");
        assert_eq!(m.counters.l2_hits, 1);
    }

    #[test]
    fn gpu_acquire_invalidates_everything() {
        let mut m = mem(CoherenceKind::Gpu);
        m.load(0, 0x1000, 0);
        m.acquire(0);
        assert_eq!(m.counters.invalidations, 1);
        let again = m.load(0, 0x1000, 10_000);
        assert!(
            again.complete_at - 10_000 > 1,
            "must re-fetch after acquire"
        );
    }

    #[test]
    fn denovo_owned_lines_survive_acquire() {
        let mut m = mem(CoherenceKind::DeNovo);
        m.store(0, 0x1000, 0); // registers ownership
        m.acquire(0);
        let a = m.atomic(0, 0x1000, 10_000);
        assert_eq!(
            a.complete_at,
            10_000 + 2,
            "owned atomic should execute locally after acquire"
        );
        assert_eq!(m.counters.l1_atomics, 1);
    }

    #[test]
    fn gpu_atomics_serialize_per_word() {
        let mut m = mem(CoherenceKind::Gpu);
        let a = m.atomic(0, 0x42100, 0);
        let b = m.atomic(1, 0x42100, 0);
        assert!(
            b.complete_at >= a.complete_at + 6,
            "same-word atomics must serialize: {} then {}",
            a.complete_at,
            b.complete_at
        );
    }

    #[test]
    fn atomics_serialize_per_word_not_per_byte_address() {
        // The chain a second atomic waits on: the L2 read-modify-write
        // under GPU coherence, the L1 atomic unit under DeNovo.
        let params = SystemParams::default();
        for (coh, gap) in [
            (CoherenceKind::Gpu, params.atomic_rmw_cycles),
            (CoherenceKind::DeNovo, params.l1_atomic_occupancy),
        ] {
            // Two byte offsets of the word at 0x1000 share one chain.
            let mut m = mem(coh);
            let a = m.atomic(0, 0x1000, 0);
            let b = m.atomic(0, 0x1002, 0);
            assert!(
                b.complete_at >= a.complete_at + gap,
                "{coh:?}: 0x1002 must wait for 0x1000: {} then {}",
                a.complete_at,
                b.complete_at
            );
            // The adjacent word (same line, same bank) does not.
            let mut m = mem(coh);
            let a = m.atomic(0, 0x1000, 0);
            let c = m.atomic(0, 0x1004, 0);
            assert!(
                c.complete_at < a.complete_at + gap,
                "{coh:?}: 0x1004 must not wait for 0x1000: {} then {}",
                a.complete_at,
                c.complete_at
            );
        }
    }

    #[test]
    fn gpu_atomics_to_different_banks_overlap() {
        let mut m = mem(CoherenceKind::Gpu);
        let a = m.atomic(0, 0x0, 0);
        let b = m.atomic(0, 64, 0); // next line, different bank
                                    // Both complete in roughly one round-trip (cold-miss penalties
                                    // differ slightly per bank); far from the ~400 cycles serial
                                    // execution would take.
        assert!(b.complete_at < a.complete_at + 50);
    }

    #[test]
    fn denovo_atomic_registers_then_hits_locally() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.atomic(0, 0x3000, 0);
        assert!(a.complete_at >= 29, "first atomic pays registration");
        assert_eq!(m.counters.registrations, 1);
        let b = m.atomic(0, 0x3000, a.complete_at + 10);
        assert_eq!(
            b.complete_at,
            a.complete_at + 10 + 2,
            "owned atomic is local"
        );
    }

    #[test]
    fn denovo_ownership_ping_pong() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.atomic(0, 0x3000, 0);
        let t = a.complete_at + 10;
        let b = m.atomic(1, 0x3000, t);
        // SM1 must fetch from SM0's L1: remote transfer recorded, and the
        // latency is in the remote-L1 range rather than a local hit.
        assert_eq!(m.counters.remote_transfers, 1);
        assert!(b.complete_at - t >= 35, "remote transfer expected");
        // Ownership moved: SM1 now local, SM0 remote again.
        let c = m.atomic(1, 0x3000, b.complete_at + 5);
        assert_eq!(c.complete_at, b.complete_at + 5 + 2);
    }

    #[test]
    fn gpu_store_goes_through_buffer() {
        let mut m = mem(CoherenceKind::Gpu);
        let s = m.store(0, 0x5000, 0);
        assert_eq!(s.proceed_at, 1, "store should not block the warp");
        assert!(s.complete_at >= 14, "write-through takes L2 time");
        assert_eq!(m.counters.write_throughs, 1);
        assert!(m.release_drain(0) >= s.complete_at);
    }

    #[test]
    fn denovo_store_after_ownership_is_local() {
        let mut m = mem(CoherenceKind::DeNovo);
        let s1 = m.store(0, 0x5000, 0);
        let s2 = m.store(0, 0x5000, s1.complete_at + 1);
        assert_eq!(
            s2.complete_at,
            s1.complete_at + 1 + 1,
            "owned store is local"
        );
        assert_eq!(m.counters.registrations, 1);
    }

    #[test]
    fn denovo_store_upgrades_a_loaded_line_in_place() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.load(0, 0x1000, 0);
        m.store(0, 0x1000, a.complete_at);
        let line = 0x1000 >> 6;
        assert_eq!(m.counters.registrations, 1);
        assert_eq!(m.owner_of(line), Some(0));
        // One copy, now Owned: the fill rewrote the loaded line's way.
        assert_eq!(m.l1[0].peek(line), Some(LineState::Owned));
        assert_eq!(m.l1[0].occupancy(), 1);
        // The load miss and the registration move a line each; an
        // eviction's write-back would add a third.
        assert_eq!(m.counters.noc_line_transfers, 2);
        // The Valid copy left the valid-way count when it became Owned,
        // so the launch acquire finds nothing to invalidate.
        m.begin_kernel();
        assert_eq!(m.counters.invalidations, 0);
        assert_eq!(m.l1[0].peek(line), Some(LineState::Owned));
    }

    #[test]
    fn store_buffer_backpressure() {
        let params = SystemParams {
            store_buffer_entries: 2,
            ..SystemParams::default()
        };
        let mut m = MemorySystem::new(
            &params,
            HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf1),
        );
        let a = m.store(0, 0x0, 0);
        let b = m.store(0, 0x100, 0);
        let c = m.store(0, 0x200, 0);
        assert_eq!(a.proceed_at, 1);
        assert_eq!(b.proceed_at, 1);
        assert!(
            c.proceed_at > 1,
            "third store must wait for a slot: {:?}",
            c
        );
    }

    #[test]
    fn mshr_backpressure() {
        let params = SystemParams {
            mshr_entries: 1,
            ..SystemParams::default()
        };
        let mut m = MemorySystem::new(
            &params,
            HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf1),
        );
        let a = m.load(0, 0x0, 0);
        let b = m.load(0, 0x1000, 0);
        assert!(b.complete_at > a.complete_at, "second miss waits for MSHR");
    }

    #[test]
    fn begin_kernel_clears_atomic_chains_and_invalidates() {
        let mut m = mem(CoherenceKind::Gpu);
        m.atomic(0, 0x100, 0);
        m.load(0, 0x4000, 0);
        m.begin_kernel();
        assert!(m.counters.invalidations >= 1);
        // Chain cleared: a new atomic at t=0 does not serialize after the
        // old one.
        let a = m.atomic(0, 0x100, 0);
        assert!(a.complete_at < 200);
    }

    #[test]
    fn region_attribution_counts_store_and_atomic_hits() {
        let mut m = mem(CoherenceKind::DeNovo);
        m.register_region("frontier", 0x0, 0x10000);
        let s1 = m.store(0, 0x1000, 0); // registration: miss
        let s2 = m.store(0, 0x1000, s1.complete_at + 1); // owned: local hit
        let a1 = m.atomic(0, 0x1000, s2.complete_at + 1); // owned: local hit
        m.load(0, 0x1000, a1.complete_at + 1); // resident: load hit
        let stats = m.region_stats();
        let (name, s) = &stats[0];
        assert_eq!(name, "frontier");
        assert_eq!((s.stores, s.store_hits), (2, 1));
        assert_eq!((s.atomics, s.atomic_hits), (1, 1));
        assert_eq!((s.loads, s.l1_hits), (1, 1));
    }

    #[test]
    fn gpu_region_attribution_has_no_store_or_atomic_hits() {
        let mut m = mem(CoherenceKind::Gpu);
        m.register_region("rank", 0x0, 0x10000);
        let s1 = m.store(0, 0x1000, 0);
        m.store(0, 0x1000, s1.complete_at + 1); // write-through again
        m.atomic(0, 0x1000, 0); // executes at the L2
        let stats = m.region_stats();
        let s = stats[0].1;
        assert_eq!((s.stores, s.store_hits), (2, 0));
        assert_eq!((s.atomics, s.atomic_hits), (1, 0));
    }

    #[test]
    fn owned_eviction_returns_ownership() {
        // Tiny L1: 1 set x 1 way = 1 line.
        let params = SystemParams {
            l1_bytes: 64,
            l1_assoc: 1,
            ..SystemParams::default()
        };
        let mut m = MemorySystem::new(
            &params,
            HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::Drf1),
        );
        m.store(0, 0x0, 0); // own line 0
        m.store(0, 0x40, 100); // evicts line 0
                               // Line 0 no longer owned: atomic from SM1 should not ping-pong.
        let before = m.counters.remote_transfers;
        m.atomic(1, 0x0, 200);
        assert_eq!(m.counters.remote_transfers, before);
    }
}

#[cfg(all(test, feature = "check"))]
mod check_tests {
    use super::*;
    use crate::check::InvariantKind;
    use crate::config::ConsistencyModel;

    fn mem(coh: CoherenceKind) -> MemorySystem<'static> {
        let mut m = MemorySystem::new(
            &SystemParams::default(),
            HwConfig::new(coh, ConsistencyModel::Drf1),
        );
        m.enable_protocol_checker();
        m
    }

    #[test]
    fn clean_denovo_traffic_reports_nothing() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.atomic(0, 0x100, 0);
        let b = m.atomic(1, 0x100, a.complete_at + 1); // ownership hand-off
        m.store(0, 0x200, b.complete_at + 1);
        m.load(2, 0x100, b.complete_at + 2);
        m.acquire(0);
        m.audit(b.complete_at + 10);
        assert_eq!(m.take_protocol_violations(), Vec::new());
    }

    #[test]
    fn clean_gpu_traffic_reports_nothing() {
        let mut m = mem(CoherenceKind::Gpu);
        m.load(0, 0x100, 0);
        m.store(1, 0x100, 5);
        m.atomic(2, 0x100, 10);
        m.acquire(0);
        m.audit(100);
        assert_eq!(m.take_protocol_violations(), Vec::new());
    }

    #[test]
    fn forced_ownership_breaks_registry_consistency() {
        let mut m = mem(CoherenceKind::DeNovo);
        m.debug_force_owned(1, 0x100 >> 6);
        m.load(0, 0x100, 0);
        let violations = m.take_protocol_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == InvariantKind::OwnerMapMismatch && v.sm == 1),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_flags_registry_entry_without_owned_l1_copy() {
        // The registry still names SM 0 after its L1 copy vanished
        // behind the protocol's back: only a registry-driven audit can
        // find the line, since no L1 holds it any more.
        let mut m = mem(CoherenceKind::DeNovo);
        let s = m.store(0, 0x100, 0);
        let line = 0x100 >> 6;
        m.l1[0].invalidate(line);
        m.audit(s.complete_at);
        let violations = m.take_protocol_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == InvariantKind::OwnerMapMismatch && v.sm == 0 && v.line == line),
            "{violations:?}"
        );
    }

    #[test]
    fn double_ownership_breaks_swmr() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.store(0, 0x100, 0); // SM 0 legitimately owns the line
        m.debug_force_owned(1, 0x100 >> 6);
        m.audit(a.complete_at);
        let violations = m.take_protocol_violations();
        assert!(
            violations.iter().any(|v| v.kind == InvariantKind::Swmr),
            "{violations:?}"
        );
    }

    #[test]
    fn owned_line_under_gpu_coherence_is_flagged() {
        let mut m = mem(CoherenceKind::Gpu);
        m.debug_force_owned(0, 0x40 >> 6);
        m.audit(7);
        let violations = m.take_protocol_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == InvariantKind::GpuOwnedLine && v.cycle == 7),
            "{violations:?}"
        );
    }

    #[test]
    fn skipped_invalidation_leaves_stale_lines() {
        let mut m = mem(CoherenceKind::Gpu);
        m.load(0, 0x1000, 0);
        m.debug_skip_next_invalidation();
        m.acquire(0);
        let violations = m.take_protocol_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == InvariantKind::StaleAfterAcquire
                    && v.sm == 0
                    && v.line == 0x1000 >> 6),
            "{violations:?}"
        );
        // The *next* acquire is clean again (one-shot injection).
        m.load(0, 0x1000, 100);
        m.acquire(0);
        assert_eq!(m.take_protocol_violations(), Vec::new());
    }

    #[test]
    fn disabled_checker_records_nothing() {
        let mut m = MemorySystem::new(
            &SystemParams::default(),
            HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf1),
        );
        m.debug_force_owned(0, 1);
        m.audit(0);
        assert_eq!(m.take_protocol_violations(), Vec::new());
    }
}

#[cfg(test)]
mod traffic_tests {
    use super::*;
    use crate::config::{CoherenceKind, ConsistencyModel};

    fn mem(coh: CoherenceKind) -> MemorySystem<'static> {
        MemorySystem::new(
            &SystemParams::default(),
            HwConfig::new(coh, ConsistencyModel::Drf1),
        )
    }

    #[test]
    fn loads_count_one_line_transfer_per_miss() {
        let mut m = mem(CoherenceKind::Gpu);
        m.load(0, 0x0, 0);
        m.load(0, 0x0, 100); // hit: no new traffic
        assert_eq!(m.counters.noc_line_transfers, 1);
    }

    #[test]
    fn gpu_atomics_are_control_traffic() {
        let mut m = mem(CoherenceKind::Gpu);
        m.atomic(0, 0x100, 0);
        assert_eq!(m.counters.noc_control_messages, 2);
        assert_eq!(m.counters.noc_line_transfers, 0);
    }

    #[test]
    fn denovo_owned_atomics_generate_no_traffic() {
        let mut m = mem(CoherenceKind::DeNovo);
        let a = m.atomic(0, 0x100, 0); // registration traffic
        let after_reg = (
            m.counters.noc_line_transfers,
            m.counters.noc_control_messages,
        );
        m.atomic(0, 0x100, a.complete_at + 1); // owned: local, free
        assert_eq!(
            (
                m.counters.noc_line_transfers,
                m.counters.noc_control_messages
            ),
            after_reg
        );
    }

    #[test]
    fn write_throughs_are_line_traffic() {
        let mut m = mem(CoherenceKind::Gpu);
        m.store(0, 0x200, 0);
        assert_eq!(m.counters.noc_line_transfers, 1);
    }
}
