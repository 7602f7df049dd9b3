//! Property-based tests of the simulator's structural invariants.

use proptest::prelude::*;

use ggs_sim::cache::{Cache, Eviction, LineState};
use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
use ggs_sim::engine::Simulation;
use ggs_sim::noc::Mesh;
use ggs_sim::params::SystemParams;
use ggs_sim::stats::{StallBreakdown, StallClass};
use ggs_sim::trace::{KernelTrace, MicroOp, WarpTrace};

fn small_params() -> SystemParams {
    SystemParams::default().scaled_caches(0.125).unwrap()
}

/// Runs `kernel` packed for `params` on a fresh simulation of `hw`.
fn simulate(kernel: &KernelTrace, params: SystemParams, hw: HwConfig) -> ggs_sim::ExecStats {
    let packed = WarpTrace::pack(kernel, &params).unwrap();
    let mut sim = Simulation::new(params, hw).unwrap();
    sim.run_kernel(&packed).unwrap();
    sim.finish()
}

/// Strategy: a kernel with divergent lane lengths, zero-op threads,
/// compute-only stretches, and repeated, unsorted addresses (a small
/// word range makes lanes collide on lines), over block sizes that are
/// and are not multiples of the warp size.
fn divergent_kernels() -> impl Strategy<Value = KernelTrace> {
    fn addr() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..64, 0u64..1 << 20].prop_map(|w| w * 4)
    }
    fn op() -> impl Strategy<Value = MicroOp> {
        prop_oneof![
            addr().prop_map(MicroOp::load),
            addr().prop_map(MicroOp::store),
            addr().prop_map(MicroOp::atomic),
            addr().prop_map(MicroOp::atomic_returning),
            (0u16..40).prop_map(MicroOp::compute),
            (0u16..40).prop_map(MicroOp::compute),
        ]
    }
    let lane = prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(op(), 0..4),
        prop::collection::vec(op(), 0..24),
    ];
    let tb_size = prop_oneof![Just(48u32), Just(32), Just(64), Just(256), 1u32..100];
    (prop::collection::vec(lane, 0..300), tb_size)
        .prop_map(|(threads, tb)| KernelTrace::new(threads, tb).unwrap())
}

/// One slot as the SM used to gather it per issue: every active lane's
/// op, load and store addresses masked to their line base and sorted
/// and deduplicated, atomics in lane order, and the longest compute.
#[derive(Debug, PartialEq)]
struct GatheredSlot {
    loads: Vec<u64>,
    stores: Vec<u64>,
    atomics: Vec<u64>,
    any_returns: bool,
    compute: u16,
}

/// Test-only reference packer: splits each block into warps from its
/// first thread and gathers every slot of every warp.
fn gather(kernel: &KernelTrace, warp_size: usize, line_bytes: u64) -> Vec<Vec<GatheredSlot>> {
    let threads = kernel.num_threads() as usize;
    let tb = kernel.tb_size() as usize;
    let mut warps = Vec::new();
    for block in (0..threads).step_by(tb) {
        let end = (block + tb).min(threads);
        for lo in (block..end).step_by(warp_size) {
            let lanes: Vec<&[MicroOp]> = (lo..(lo + warp_size).min(end))
                .map(|t| kernel.thread(t as u64))
                .collect();
            let len = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
            let slots = (0..len)
                .map(|k| {
                    let mut slot = GatheredSlot {
                        loads: Vec::new(),
                        stores: Vec::new(),
                        atomics: Vec::new(),
                        any_returns: false,
                        compute: 0,
                    };
                    for op in lanes.iter().filter_map(|l| l.get(k)) {
                        match *op {
                            MicroOp::Load { addr } => slot.loads.push(addr & !(line_bytes - 1)),
                            MicroOp::Store { addr } => slot.stores.push(addr & !(line_bytes - 1)),
                            MicroOp::Atomic {
                                addr,
                                returns_value,
                            } => {
                                slot.atomics.push(addr);
                                slot.any_returns |= returns_value;
                            }
                            MicroOp::Compute { cycles } => slot.compute = slot.compute.max(cycles),
                        }
                    }
                    slot.loads.sort_unstable();
                    slot.loads.dedup();
                    slot.stores.sort_unstable();
                    slot.stores.dedup();
                    slot
                })
                .collect();
            warps.push(slots);
        }
    }
    warps
}

/// Strategy: a small kernel of arbitrary mixed micro-ops.
fn kernels() -> impl Strategy<Value = KernelTrace> {
    let op = prop_oneof![
        (0u64..4096).prop_map(|w| MicroOp::load(w * 4)),
        (0u64..4096).prop_map(|w| MicroOp::store(w * 4)),
        (0u64..4096).prop_map(|w| MicroOp::atomic(w * 4)),
        (0u64..256).prop_map(|w| MicroOp::atomic_returning(w * 4)),
        (1u16..8).prop_map(MicroOp::compute),
    ];
    let thread = prop::collection::vec(op, 0..12);
    prop::collection::vec(thread, 1..200).prop_map(|threads| KernelTrace::new(threads, 64).unwrap())
}

/// One call (or probe-then-fill pair) on a [`Cache`], as driven by
/// the differential test.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// `probe` alone: a hit refreshes LRU, a miss changes nothing.
    Probe(u64),
    /// `probe`, then `fill` whether it hit or missed: a fill on a hit
    /// changes the line's state in place.
    Fill(u64, LineState),
    /// `probe`, then `fill` only on a miss.
    FillOnMiss(u64, LineState),
    Peek(u64),
    Invalidate(u64),
    InvalidateUnowned,
}

/// What one [`CacheOp`] returned: the probe's state, then the fill's
/// eviction (`None` when there was no fill).
#[derive(Debug, PartialEq)]
enum CacheReply {
    Probed(Option<LineState>, Option<Eviction>),
    State(Option<LineState>),
    Flushed(u64),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let line = || 0u64..24;
    let state = || prop_oneof![Just(LineState::Valid), Just(LineState::Owned)];
    // Fills are listed twice so sets fill up and evict.
    let op = prop_oneof![
        (line(), state()).prop_map(|(l, s)| CacheOp::Fill(l, s)),
        (line(), state()).prop_map(|(l, s)| CacheOp::Fill(l, s)),
        (line(), state()).prop_map(|(l, s)| CacheOp::FillOnMiss(l, s)),
        line().prop_map(CacheOp::Probe),
        line().prop_map(CacheOp::Peek),
        line().prop_map(CacheOp::Invalidate),
        Just(CacheOp::InvalidateUnowned),
    ];
    prop::collection::vec(op, 1..200)
}

/// One occupied way of the reference cache.
#[derive(Debug, Clone, Copy)]
struct RefWay {
    line: u64,
    state: LineState,
    last_use: u64,
}

/// Test-only reference cache: each set is a list of ways, a miss
/// fills the first empty way or else evicts the least recently used
/// one, and flash invalidation empties every `Valid` way.
struct RefCache {
    sets: Vec<Vec<Option<RefWay>>>,
    clock: u64,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets: vec![vec![None; ways]; sets as usize],
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Option<RefWay>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn way(&mut self, line: u64) -> Option<&mut RefWay> {
        self.set(line).iter_mut().flatten().find(|w| w.line == line)
    }

    fn lookup(&mut self, line: u64) -> Option<LineState> {
        self.clock += 1;
        let clock = self.clock;
        let way = self.way(line)?;
        way.last_use = clock;
        Some(way.state)
    }

    fn peek(&mut self, line: u64) -> Option<LineState> {
        self.way(line).map(|w| w.state)
    }

    fn insert(&mut self, line: u64, state: LineState) -> Option<Eviction> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(way) = self.way(line) {
            way.state = state;
            way.last_use = clock;
            return None;
        }
        let set = self.set(line);
        let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
            (0..set.len())
                .min_by_key(|&i| set[i].map(|w| w.last_use))
                .unwrap()
        });
        let evicted = set[victim].map(|w| Eviction {
            line: w.line,
            state: w.state,
        });
        set[victim] = Some(RefWay {
            line,
            state,
            last_use: clock,
        });
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let set = self.set(line);
        let i = set.iter().position(|w| w.is_some_and(|w| w.line == line))?;
        set[i].take().map(|w| w.state)
    }

    fn invalidate_unowned(&mut self) -> u64 {
        let mut n = 0;
        for way in self.sets.iter_mut().flatten() {
            if way.is_some_and(|w| w.state == LineState::Valid) {
                *way = None;
                n += 1;
            }
        }
        n
    }

    fn apply(&mut self, op: CacheOp) -> CacheReply {
        match op {
            CacheOp::Probe(l) => CacheReply::Probed(self.lookup(l), None),
            CacheOp::Fill(l, s) => {
                let hit = self.lookup(l);
                CacheReply::Probed(hit, self.insert(l, s))
            }
            CacheOp::FillOnMiss(l, s) => match self.lookup(l) {
                Some(hit) => CacheReply::Probed(Some(hit), None),
                None => CacheReply::Probed(None, self.insert(l, s)),
            },
            CacheOp::Peek(l) => CacheReply::State(self.peek(l)),
            CacheOp::Invalidate(l) => CacheReply::State(self.invalidate(l)),
            CacheOp::InvalidateUnowned => CacheReply::Flushed(self.invalidate_unowned()),
        }
    }

    fn resident(&self) -> Vec<(u64, LineState)> {
        let mut lines: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .flatten()
            .map(|w| (w.line, w.state))
            .collect();
        lines.sort_unstable_by_key(|&(l, _)| l);
        lines
    }
}

fn apply_to_cache(c: &mut Cache, op: CacheOp) -> CacheReply {
    match op {
        CacheOp::Probe(l) => CacheReply::Probed(c.probe(l).state(), None),
        CacheOp::Fill(l, s) => {
            let p = c.probe(l);
            CacheReply::Probed(p.state(), c.fill(p, l, s))
        }
        CacheOp::FillOnMiss(l, s) => {
            let p = c.probe(l);
            let ev = match p.state() {
                Some(_) => None,
                None => c.fill(p, l, s),
            };
            CacheReply::Probed(p.state(), ev)
        }
        CacheOp::Peek(l) => CacheReply::State(c.peek(l)),
        CacheOp::Invalidate(l) => CacheReply::State(c.invalidate(l)),
        CacheOp::InvalidateUnowned => CacheReply::Flushed(c.invalidate_unowned()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every configuration executes every kernel to completion, with a
    /// fully-classified non-zero cycle count.
    #[test]
    fn all_configs_terminate(kernel in kernels()) {
        for hw in HwConfig::all() {
            let stats = simulate(&kernel, small_params(), hw);
            prop_assert!(stats.total_cycles() > 0);
            // Each SM contributes exactly total_cycles classified cycles.
            let expected = stats.total_cycles() * 15;
            prop_assert_eq!(stats.breakdown.total(), expected);
        }
    }

    /// Simulation is deterministic: identical runs produce identical
    /// statistics.
    #[test]
    fn simulation_is_deterministic(kernel in kernels()) {
        let run = || {
            let hw = HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::DrfRlx);
            simulate(&kernel, small_params(), hw)
        };
        prop_assert_eq!(run(), run());
    }

    /// Weakening the consistency model never meaningfully slows a
    /// workload down (DRF0 ≥ DRF1 ≥ DRFrlx up to a modest scheduling
    /// tolerance — reordering changes issue interleaving, which can
    /// shift bank contention and cache evictions a little either way,
    /// exactly as on real hardware).
    #[test]
    fn weaker_consistency_is_never_slower(kernel in kernels()) {
        for coh in CoherenceKind::ALL {
            let time = |m: ConsistencyModel| {
                simulate(&kernel, small_params(), HwConfig::new(coh, m)).total_cycles()
            };
            let t0 = time(ConsistencyModel::Drf0);
            let t1 = time(ConsistencyModel::Drf1);
            let tr = time(ConsistencyModel::DrfRlx);
            prop_assert!(t0 * 23 >= t1 * 20, "DRF0 {t0} < DRF1 {t1}");
            prop_assert!(t1 * 23 >= tr * 20, "DRF1 {t1} < DRFrlx {tr}");
        }
    }

    /// Every packed slot record equals the per-lane gather, line masking,
    /// sort and dedup the SM used to redo on every issue; warps keep
    /// their block-relative split and their index even when empty.
    #[test]
    fn packed_slots_equal_the_per_lane_gather(
        kernel in divergent_kernels(),
        warp_size in prop_oneof![Just(32u32), Just(16), Just(8), 1u32..70],
        line_bytes in prop_oneof![Just(64u32), Just(32), Just(128), Just(4)],
    ) {
        let params = SystemParams { warp_size, line_bytes, ..SystemParams::default() };
        let packed = WarpTrace::pack(&kernel, &params).unwrap();
        let expected = gather(&kernel, warp_size as usize, u64::from(line_bytes));
        prop_assert_eq!(packed.num_warps(), expected.len());
        for (w, want) in expected.iter().enumerate() {
            let got: Vec<GatheredSlot> = packed
                .warp(w)
                .map(|s| GatheredSlot {
                    loads: s.load_addrs().collect(),
                    stores: s.store_addrs().collect(),
                    atomics: s.atomic_addrs().collect(),
                    any_returns: s.any_returns,
                    compute: s.compute,
                })
                .collect();
            prop_assert_eq!(&got, want, "warp {}", w);
        }
        // Blocks hand out exactly the warps in order.
        let by_block: usize = (0..packed.num_blocks() as usize + 1)
            .map(|b| packed.block(b).count())
            .sum();
        prop_assert_eq!(by_block, expected.len());
        prop_assert_eq!(packed.total_ops(), kernel.total_ops());
        prop_assert_eq!(packed.num_threads(), kernel.num_threads());
    }

    /// Cache: after filling a line it is present; capacity is never
    /// exceeded; flash invalidation leaves only owned lines.
    #[test]
    fn cache_invariants(lines in prop::collection::vec(0u64..512, 1..300)) {
        let mut c = Cache::new(8, 4);
        for (i, &l) in lines.iter().enumerate() {
            let state = if i % 3 == 0 { LineState::Owned } else { LineState::Valid };
            let p = c.probe(l);
            c.fill(p, l, state);
            prop_assert_eq!(c.peek(l), Some(state));
            prop_assert!(c.occupancy() <= c.capacity_lines());
        }
        c.invalidate_unowned();
        for &l in &lines {
            if let Some(s) = c.peek(l) {
                prop_assert_eq!(s, LineState::Owned);
            }
        }
    }

    /// Cache matches the reference model call for call: every return
    /// value and every eviction, under mixed `Owned`/`Valid` lines,
    /// targeted and flash invalidation, fills after a miss and fills on
    /// a hit that change the line's state. This pins the victim rule
    /// (first dead way, else the LRU way).
    #[test]
    fn cache_matches_reference_model(
        sets in prop_oneof![Just(1u64), Just(2), Just(4)],
        ways in 1usize..9,
        ops in cache_ops(),
    ) {
        let mut cache = Cache::new(sets, ways);
        let mut model = RefCache::new(sets, ways);
        for (n, &op) in ops.iter().enumerate() {
            let got = apply_to_cache(&mut cache, op);
            let want = model.apply(op);
            prop_assert_eq!(got, want, "call #{} {:?}", n, op);
            let mut resident: Vec<_> = cache.resident_lines().collect();
            resident.sort_unstable_by_key(|&(l, _)| l);
            prop_assert_eq!(resident, model.resident(), "contents after call #{}", n);
        }
    }

    /// Mesh distances form a metric (symmetry + triangle inequality) and
    /// all latencies stay within the paper's Table IV ranges.
    #[test]
    fn mesh_is_a_metric(a in 0u32..16, b in 0u32..16, c in 0u32..16) {
        let m = Mesh::new(&SystemParams::default());
        prop_assert_eq!(m.hops(a, b), m.hops(b, a));
        prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
        if a < 15 && b < 15 {
            let r = m.remote_l1_latency(a, b);
            prop_assert!((35..=83).contains(&r));
        }
    }

    /// StallBreakdown arithmetic: totals are additive and fractions sum
    /// to 1 for non-empty breakdowns.
    #[test]
    fn breakdown_arithmetic(cycles in prop::collection::vec((0usize..5, 1u64..1000), 1..20)) {
        let mut b = StallBreakdown::default();
        for &(class, n) in &cycles {
            b.record(StallClass::ALL[class], n);
        }
        let frac_sum: f64 = StallClass::ALL.iter().map(|&c| b.fraction(c)).sum();
        prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        let doubled = b + b;
        prop_assert_eq!(doubled.total(), 2 * b.total());
    }
}
