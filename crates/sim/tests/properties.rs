//! Property-based tests of the simulator's structural invariants.

use proptest::prelude::*;

use ggs_sim::cache::{Cache, LineState};
use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
use ggs_sim::engine::Simulation;
use ggs_sim::noc::Mesh;
use ggs_sim::params::SystemParams;
use ggs_sim::stats::{StallBreakdown, StallClass};
use ggs_sim::trace::{KernelTrace, MicroOp, Op, WarpTrace};

fn small_params() -> SystemParams {
    SystemParams::default().scaled_caches(0.125).unwrap()
}

/// Runs `kernel` packed for `params` on a fresh simulation of `hw`.
fn simulate(kernel: &KernelTrace, params: SystemParams, hw: HwConfig) -> ggs_sim::ExecStats {
    let packed = WarpTrace::pack(kernel, &params).unwrap();
    let mut sim = Simulation::new(params, hw);
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
            let lanes: Vec<&[Op]> = (lo..(lo + warp_size).min(end))
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
                        match op.get() {
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

    /// Cache: after inserting a line it is present; capacity is never
    /// exceeded; flash invalidation leaves only owned lines.
    #[test]
    fn cache_invariants(lines in prop::collection::vec(0u64..512, 1..300)) {
        let mut c = Cache::new(8, 4);
        for (i, &l) in lines.iter().enumerate() {
            let state = if i % 3 == 0 { LineState::Owned } else { LineState::Valid };
            c.insert(l, state);
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
