//! Graph Coloring (CLR) — static traversal, symmetric control, target
//! information (Table III).
//!
//! Pannotia-style max/min coloring: each round, every uncolored vertex
//! compares a random value against its uncolored neighbors; the local
//! maximum takes color `2r`, the local minimum `2r + 1`.
//!
//! Information lives at the *target*: the pull variant gathers each
//! neighbor's packed color+value word (one load per edge), computes the
//! neighborhood max/min locally and writes its own color in one kernel,
//! while the push variant must scatter values into a per-target packed
//! max/min aggregate (one atomic per edge) and run a second per-vertex
//! kernel to decide colors and reset the aggregates.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::layout::AddressSpace;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{vertex_kernel, GraphArrays};

/// Maximum rounds simulated per run (the reference runs to
/// completion).
pub const MAX_ROUNDS: u32 = 8;

/// Sentinel for an uncolored vertex.
pub const UNCOLORED: u32 = u32::MAX;

fn value(v: u32) -> u64 {
    let mut x = (v as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5ee5_ca1e;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    ((x ^ (x >> 33)) << 32) | v as u64
}

/// Host-reference coloring: returns a proper vertex coloring (adjacent
/// vertices receive different colors).
///
/// # Example
///
/// ```
/// use ggs_apps::clr;
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(3)
///     .edges([(0, 1), (1, 2), (2, 0)])
///     .symmetric(true)
///     .build()?;
/// let colors = clr::reference(&g);
/// assert_ne!(colors[0], colors[1]);
/// assert_ne!(colors[1], colors[2]);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<u32> {
    snapshots(graph).pop().unwrap_or_default()
}

/// Color snapshots after each round.
fn snapshots(graph: &Csr) -> Vec<Vec<u32>> {
    let n = graph.num_vertices();
    let mut color = vec![UNCOLORED; n as usize];
    let mut snaps = Vec::new();
    let mut round = 0u32;
    while color.contains(&UNCOLORED) {
        let prev = color.clone();
        for v in 0..n {
            if prev[v as usize] != UNCOLORED {
                continue;
            }
            let undecided: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&t| prev[t as usize] == UNCOLORED && t != v)
                .collect();
            let vv = value(v);
            let is_max = undecided.iter().all(|&t| value(t) < vv);
            let is_min = undecided.iter().all(|&t| value(t) > vv);
            if is_max {
                color[v as usize] = 2 * round;
            } else if is_min {
                color[v as usize] = 2 * round + 1;
            }
        }
        snaps.push(color.clone());
        round += 1;
        debug_assert!(round < 10_000, "coloring failed to converge");
    }
    if snaps.is_empty() {
        snaps.push(color);
    }
    snaps
}

/// Generates the kernel sequence of a CLR run (pull: one kernel per
/// round; push: two kernels per round), handing each kernel to `run` as
/// a [`KernelSource`]. The stream depends only on `(graph, prop,
/// tb_size)`, so it is safe to materialize once and replay across
/// configuration cells.
///
/// # Panics
///
/// Panics if `prop` is not [`Propagation::Push`] or
/// [`Propagation::Pull`] (no dynamic direction policy).
pub fn generate(
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
    run: &mut dyn FnMut(KernelSource<'_>),
) {
    assert!(
        matches!(prop, Propagation::Push | Propagation::Pull),
        "graph coloring supports no dynamic direction policy: use Push or Pull"
    );
    let n = graph.num_vertices();
    let (mut space, arrays) = GraphArrays::workspace(graph);
    let color = space.array("color", n as u64);
    let val = space.array("val", n as u64);
    // Packed max/min aggregate: one 2x32-bit word per vertex.
    let agg = space.array("agg", n as u64);

    let snaps = snapshots(graph);
    let mut before = vec![UNCOLORED; n as usize];

    for after in snaps.iter().take(MAX_ROUNDS as usize) {
        match prop {
            Propagation::Push => {
                // Kernel 1: scatter values to neighbor aggregates.
                vertex_kernel(run, n, tb_size, |s, ops| {
                    ops.push(MicroOp::load(color.addr(s as u64)));
                    if before[s as usize] != UNCOLORED {
                        return;
                    }
                    ops.push(MicroOp::load(val.addr(s as u64)));
                    for e in graph.edge_range(s) {
                        arrays.load_edge_target(e as u64, ops);
                        let t = graph.col_idx()[e as usize];
                        // Fused max/min aggregate (packed 2x32-bit word):
                        // one fire-and-forget atomic per edge; colored
                        // targets ignore their aggregate, so no blocking
                        // predicate load sits in the inner loop.
                        let _ = t;
                        ops.push(MicroOp::atomic(
                            agg.addr(graph.col_idx()[e as usize] as u64),
                        ));
                    }
                });
                // Kernel 2: decide colors from the aggregates.
                vertex_kernel(run, n, tb_size, |v, ops| {
                    ops.push(MicroOp::load(color.addr(v as u64)));
                    if before[v as usize] != UNCOLORED {
                        return;
                    }
                    ops.push(MicroOp::load(agg.addr(v as u64)));
                    ops.push(MicroOp::load(val.addr(v as u64)));
                    ops.push(MicroOp::compute(2));
                    if after[v as usize] != UNCOLORED {
                        ops.push(MicroOp::store(color.addr(v as u64)));
                    }
                    // Reset the aggregate for the next round.
                    ops.push(MicroOp::store(agg.addr(v as u64)));
                });
            }
            Propagation::Pull => {
                // Single kernel: local max/min scan, local color write.
                vertex_kernel(run, n, tb_size, |t, ops| {
                    ops.push(MicroOp::load(color.addr(t as u64)));
                    if before[t as usize] != UNCOLORED {
                        return;
                    }
                    ops.push(MicroOp::load(val.addr(t as u64)));
                    for e in graph.edge_range(t) {
                        arrays.load_edge_target(e as u64, ops);
                        let s = graph.col_idx()[e as usize];
                        // Packed color+value word: one blocking sparse
                        // load per edge (the max/min comparison
                        // dual-issues under the load).
                        ops.push(MicroOp::load(val.addr(s as u64)));
                        let _ = s;
                    }
                    if after[t as usize] != UNCOLORED {
                        ops.push(MicroOp::store(color.addr(t as u64)));
                    }
                });
            }
            _ => unreachable!("direction filtered by supported_propagations"),
        }
        before.clone_from(after);
    }
}

/// The workload's address map: `(array name, base, bytes)` for every
/// region its kernels touch, in the exact layout `generate` uses
/// (deterministic). Feed these to
/// [`ggs_sim::SimulationBuilder::region`] for per-data-structure
/// attribution.
pub fn memory_map(graph: &Csr) -> Vec<(String, u64, u64)> {
    let mut space = AddressSpace::new(64);
    let _ = GraphArrays::new(&mut space, graph);
    let n = graph.num_vertices() as u64;
    let _ = space.array("color", n);
    let _ = space.array("val", n);
    let _ = space.array("agg", n);
    space
        .regions()
        .map(|(name, base, bytes)| (name.to_owned(), base, bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn ring(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    fn assert_proper(graph: &Csr, colors: &[u32]) {
        for (s, t) in graph.edges() {
            assert_ne!(colors[s as usize], colors[t as usize], "edge {s}-{t}");
            assert_ne!(colors[s as usize], UNCOLORED);
        }
    }

    #[test]
    fn reference_colors_ring_properly() {
        let g = ring(101);
        assert_proper(&g, &reference(&g));
    }

    #[test]
    fn reference_colors_clique_properly() {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = Csr::from_edges(8, &edges);
        let colors = reference(&g);
        assert_proper(&g, &colors);
        // A clique needs all-distinct colors.
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn push_issues_one_atomic_per_uncolored_edge_round1() {
        let g = ring(64);
        let mut first = true;
        generate(&g, Propagation::Push, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            if !first {
                return;
            }
            first = false;
            let atomics: usize = (0..k.num_threads())
                .map(|t| {
                    k.thread(t)
                        .iter()
                        .filter(|o| matches!(o.get(), MicroOp::Atomic { .. }))
                        .count()
                })
                .sum();
            assert_eq!(atomics as u64, g.num_edges());
        });
    }

    #[test]
    fn pull_is_single_kernel_per_round_push_is_two() {
        let g = ring(64);
        let count = |prop| {
            let mut kernels = 0;
            generate(&g, prop, 256, &mut |_| kernels += 1);
            kernels
        };
        let pull = count(Propagation::Pull);
        let push = count(Propagation::Push);
        assert_eq!(push, 2 * pull);
    }

    #[test]
    fn empty_graph_emits_nothing() {
        let g = Csr::from_edges(0, &[]);
        let mut kernels = 0;
        generate(&g, Propagation::Pull, 256, &mut |_| kernels += 1);
        assert_eq!(kernels, 1); // single empty snapshot round
    }
}
