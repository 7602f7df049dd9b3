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
//! atomic and ownership-transfer chains) lives in flat vectors indexed
//! by ids that an `IdTable` hands out in first-touch order. MSHRs,
//! store buffers and outstanding-atomic trackers are `CompletionRing`s,
//! admitted on every L1 load miss, store and atomic.

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

/// Page granularity of the paged tier: 4Ki keys, one 16 KB page.
const PAGE_BITS: u32 = 12;

/// Slots per page of the paged tier.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// Keys below this bound use the paged tier: lazily allocated
/// 4Ki-slot pages indexed by `key >>` [`PAGE_BITS`], so a table costs
/// one pointer per 4Ki keys of span plus one page per 4Ki-key window
/// that holds an interned key — it grows with the keys interned, not
/// with the address space below them. Packed traces store line and
/// word numbers as `u32`, so only direct [`MemorySystem`] callers can
/// pass this bound; their keys fall to a `HashMap`.
const PAGED_KEY_LIMIT: u64 = 1 << 32;

/// Interner from 64-bit keys (line numbers, word addresses) to dense
/// `u32` ids, built lazily as a run touches addresses. Ids index flat
/// side tables (ownership registry, serialization chains), replacing
/// per-access `HashMap` probes with array loads on every re-visit.
///
/// Two tiers by key magnitude — paged (`< 2^32`) and hashed (the rest)
/// — chosen so the id of a key depends only on *first-touch order*,
/// never on which tier resolved it: golden statistics are invariant to
/// the tier layout.
#[derive(Debug, Clone, Default)]
struct IdTable {
    /// `pages[key >> PAGE_BITS]` holds a lazily allocated `id + 1`
    /// page (`0` = never interned). The page vector grows to the
    /// highest *touched* page.
    pages: Vec<Option<Box<[u32; PAGE_SLOTS]>>>,
    /// Keys at or above [`PAGED_KEY_LIMIT`].
    sparse: HashMap<u64, u32>,
    keys: Vec<u64>,
}

impl IdTable {
    fn intern(&mut self, key: u64) -> u32 {
        if key < PAGED_KEY_LIMIT {
            let page = (key >> PAGE_BITS) as usize;
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let page = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SLOTS]));
            let slot = &mut page[key as usize & (PAGE_SLOTS - 1)];
            if *slot == 0 {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                *slot = id + 1;
            }
            return *slot - 1;
        }
        let next = self.keys.len() as u32;
        let id = *self.sparse.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        if key < PAGED_KEY_LIMIT {
            let page = self.pages.get((key >> PAGE_BITS) as usize)?.as_deref()?;
            return page[key as usize & (PAGE_SLOTS - 1)].checked_sub(1);
        }
        self.sparse.get(&key).copied()
    }

    #[inline]
    fn key(&self, id: u32) -> u64 {
        self.keys[id as usize]
    }

    /// Heap bytes held: the page vector, its allocated pages, the key
    /// list and the hashed tier.
    fn heap_bytes(&self) -> u64 {
        let pages = self.pages.iter().flatten().count() * PAGE_SLOTS * size_of::<u32>();
        let hashed = self.sparse.capacity() * (size_of::<u64>() + size_of::<u32>());
        (self.pages.capacity() * size_of::<usize>()
            + pages
            + self.keys.capacity() * size_of::<u64>()
            + hashed) as u64
    }
}

/// Sentinel in the dense ownership registry: line currently unowned.
const NO_OWNER: u32 = u32::MAX;

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
    /// Dense ids for every ownership-registered line (lazily interned;
    /// never-registered lines don't enter the table, so pure-GPU runs
    /// keep it empty).
    lines: IdTable,
    /// DeNovo ownership registry, indexed by line id ([`NO_OWNER`] when
    /// unowned). Invariant: a line is registered here iff it is resident
    /// `Owned` in that SM's L1.
    owner: Vec<u32>,
    /// Per-bank next-free time (service occupancy / contention).
    bank_free: Vec<u64>,
    /// Dense ids for atomically-accessed words, keyed by word number
    /// (byte address / 4).
    words: IdTable,
    /// Per-word atomic serialization chain, indexed by word id: epoch
    /// tag + completion of the latest atomic to the word. Entries from
    /// older epochs read as "no chain", so kernel boundaries clear the
    /// chain in O(1) by bumping `atomic_epoch`.
    atomic_chain: Vec<(u64, u64)>,
    atomic_epoch: u64,
    /// Per-line ownership-transfer chain, indexed by line id and
    /// epoch-tagged like `atomic_chain`: a line's registration cannot
    /// begin before the previous transfer of that line completed
    /// (DeNovo ping-pong serialization).
    owner_chain: Vec<(u64, u64)>,
    owner_epoch: u64,
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
            lines: IdTable::default(),
            owner: Vec::new(),
            bank_free: vec![0; params.l2_banks as usize],
            words: IdTable::default(),
            atomic_chain: Vec::new(),
            atomic_epoch: 0,
            owner_chain: Vec::new(),
            owner_epoch: 0,
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

    /// Heap bytes held by the hierarchy state: caches, id tables and
    /// their side tables, completion rings and region attribution.
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
            + vec(self.owner.capacity(), size_of::<u32>())
            + vec(self.bank_free.capacity(), size_of::<u64>())
            + vec(self.atomic_chain.capacity(), size_of::<(u64, u64)>())
            + vec(self.owner_chain.capacity(), size_of::<(u64, u64)>())
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

    /// Interns `line`, growing the id-indexed side tables in lockstep.
    fn intern_line(&mut self, line: u64) -> u32 {
        let id = self.lines.intern(line);
        if self.owner.len() <= id as usize {
            self.owner.resize(id as usize + 1, NO_OWNER);
            self.owner_chain.resize(id as usize + 1, (0, 0));
        }
        id
    }

    /// Interns an atomic word number, growing its chain table.
    fn intern_word(&mut self, word: u64) -> u32 {
        let id = self.words.intern(word);
        if self.atomic_chain.len() <= id as usize {
            self.atomic_chain.resize(id as usize + 1, (0, 0));
        }
        id
    }

    /// The registered owner of `line`, ignoring the active coherence
    /// protocol (checker paths need the raw registry view).
    #[inline]
    fn registered_owner(&self, line: u64) -> Option<u32> {
        let id = self.lines.get(line)?;
        let o = self.owner[id as usize];
        (o != NO_OWNER).then_some(o)
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

    /// Epoch-tagged chain read: the recorded completion if it belongs to
    /// the current epoch, else "no chain".
    #[inline]
    fn chain_get(entry: (u64, u64), epoch: u64) -> u64 {
        if entry.0 == epoch {
            entry.1
        } else {
            0
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
        if let Some(id) = self.lines.get(line) {
            self.owner[id as usize] = NO_OWNER;
        }
        self.l2_hit_or_fill(line);
        let bank = self.bank_of(line);
        self.bank_service(bank, at, 2);
        self.counters.noc_line_transfers += 1;
    }

    /// Revokes the previous owner's hold on line `id` (downgrade on
    /// remote registration or read), invalidating its L1 copy.
    fn revoke_owner(&mut self, id: u32) {
        let prev = self.owner[id as usize];
        if prev != NO_OWNER {
            self.owner[id as usize] = NO_OWNER;
            self.l1[prev as usize].invalidate(self.lines.key(id));
        }
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
        let id = self.intern_line(line);
        let admit = self.store_buf[sm as usize].admit_at(at);
        // Transfers of the same line serialize: the directory hands a
        // line to one owner at a time (ping-pong under contention).
        let chain = Self::chain_get(self.owner_chain[id as usize], self.owner_epoch);
        let start = admit.max(chain);
        let prev = self.owner[id as usize];
        let remote = prev != NO_OWNER && prev != sm;
        if self.tracer.enabled()
            && (at >= self.last_ownership_emit + self.tracer.stride()
                || self.counters.registrations == 1)
        {
            self.last_ownership_emit = at;
            self.tracer.emit(&TraceEvent::OwnershipTransfer {
                sm,
                cycle: at,
                line,
                remote,
            });
        }
        let complete_at = if remote {
            self.counters.remote_transfers += 1;
            start + self.mesh.remote_l1_latency(sm, prev)
        } else {
            // Directory registration: same bank service cost as an
            // L2 atomic (lookup + state update + data reply).
            let occupancy = self.registration_occupancy;
            self.l2_trip(sm, line, start, 0, occupancy, 0).1
        };
        self.owner_chain[id as usize] = (self.owner_epoch, complete_at);
        self.counters.noc_line_transfers += 1;
        self.counters.noc_control_messages += 2; // request + ack
        self.revoke_owner(id);
        self.owner[id as usize] = sm;
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
        let wid = self.intern_word(addr >> WORD_SHIFT) as usize;
        let chain = Self::chain_get(self.atomic_chain[wid], self.atomic_epoch);
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
        self.atomic_chain[wid] = (self.atomic_epoch, done);
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

    /// Marks a kernel boundary: clears the per-word atomic serialization
    /// chains (new kernel, new epoch) and performs the launch acquire on
    /// every SM. Cache and ownership state persist, as in the simulated
    /// machine.
    pub fn begin_kernel(&mut self) {
        // Epoch bumps retire every chain entry at once; the tables keep
        // their interned capacity for the next kernel.
        self.atomic_epoch += 1;
        self.owner_epoch += 1;
        for sm in 0..self.l1.len() as u32 {
            self.acquire(sm);
        }
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
        let mut lines: Vec<u64> = (0..self.owner.len() as u32)
            .filter(|&id| self.owner[id as usize] != NO_OWNER)
            .map(|id| self.lines.key(id))
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

    fn mem(coh: CoherenceKind) -> MemorySystem<'static> {
        MemorySystem::new(
            &SystemParams::default(),
            HwConfig::new(coh, ConsistencyModel::Drf1),
        )
    }

    #[test]
    fn id_table_assigns_first_touch_order_across_tiers() {
        let mut t = IdTable::default();
        // One key per tier and page, interleaved, then revisited: ids
        // must follow first-touch order regardless of which tier or page
        // resolves the key.
        let page = PAGE_SLOTS as u64;
        let keys = [
            7u64,                 // first page
            page * 300 + 3,       // a later page
            PAGED_KEY_LIMIT + 11, // hashed
            PAGED_KEY_LIMIT - 1,  // last paged key
            u64::MAX,             // hashed extreme
            8,                    // first page again
        ];
        for (expect, &k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), expect as u32, "first touch of {k:#x}");
        }
        for (expect, &k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), expect as u32, "revisit of {k:#x}");
            assert_eq!(t.get(k), Some(expect as u32));
            assert_eq!(t.key(expect as u32), k);
        }
        assert_eq!(t.get(9), None);
        assert_eq!(t.get(page * 300 + 4), None);
        assert_eq!(t.get(page * 299), None, "untouched page inside the span");
        assert_eq!(t.get(PAGED_KEY_LIMIT + 12), None);
        // Many scattered huge keys keep first-touch ids in the hashed
        // tier too.
        let first = keys.len() as u64;
        let huge = |i: u64| PAGED_KEY_LIMIT + 13 + i * 0x9E37_79B9;
        for i in 0..10_000u64 {
            assert_eq!(t.intern(huge(i)), (first + i) as u32);
        }
        for i in (0..10_000u64).step_by(271) {
            assert_eq!(t.get(huge(i)), Some((first + i) as u32));
            assert_eq!(t.key((first + i) as u32), huge(i));
        }
        assert_eq!(t.get(PAGED_KEY_LIMIT + 1), None);
    }

    #[test]
    fn id_table_paged_tier_survives_a_dense_key_run() {
        // A contiguous key run far from 0, spanning page boundaries.
        let mut t = IdTable::default();
        let base = (1 << 26) - 100;
        for i in 0..(PAGE_SLOTS as u64 * 3) {
            assert_eq!(t.intern(base + i), i as u32);
        }
        for i in (0..(PAGE_SLOTS as u64 * 3)).step_by(997) {
            assert_eq!(t.get(base + i), Some(i as u32));
            assert_eq!(t.key(i as u32), base + i);
        }
    }

    #[test]
    fn id_table_grows_with_interned_keys_not_their_span() {
        // 1024 word keys past 2^26 untouched ones (a 256 MB address
        // gap) allocate one page plus a pointer per page of span, not a
        // slot per key below them.
        let mut t = IdTable::default();
        let base = 1u64 << 26;
        for i in 0..1024 {
            t.intern(base + i);
        }
        let span_pointers = (base >> PAGE_BITS) as usize * size_of::<usize>();
        let bytes = t.heap_bytes() as usize;
        assert!(bytes >= PAGE_SLOTS * size_of::<u32>(), "{bytes}");
        assert!(
            bytes <= 2 * (span_pointers + PAGE_SLOTS * size_of::<u32>()),
            "{bytes} bytes for 1024 keys"
        );
        assert!(bytes < (base as usize) / 64, "{bytes} bytes");
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
