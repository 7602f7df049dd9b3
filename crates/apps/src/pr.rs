//! PageRank (PR) — topology-driven, static traversal, symmetric
//! control, source information (Table III).
//!
//! Every vertex is active every iteration (no predicates). The rank
//! contribution `rank[s] / deg[s]` is a *source* property: the push
//! variant hoists its loads and the division into the outer loop (once
//! per source), while the pull variant must re-load `rank[s]` and
//! `deg[s]` and divide for every in-edge.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{layout, vertex_kernel};

/// Damping factor used by the reference implementation.
pub const DAMPING: f64 = 0.85;

/// Number of PR iterations simulated per run.
///
/// The paper measures whole-app GPU time; PR's per-iteration behaviour
/// is stationary, so a small fixed count preserves the configuration
/// ranking at a fraction of the simulation cost (see EXPERIMENTS.md).
pub const ITERATIONS: u32 = 3;

/// Cost of the floating-point divide + multiply-accumulate in cycles.
const DIV_CYCLES: u16 = 6;

/// Host-reference PageRank: returns the rank vector after `iterations`
/// synchronous iterations with damping [`DAMPING`].
///
/// # Example
///
/// ```
/// use ggs_apps::pr;
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(3)
///     .edges([(0, 1), (1, 2), (2, 0)])
///     .symmetric(true)
///     .build()?;
/// let ranks = pr::reference(&g, 20);
/// // The symmetric triangle is regular: ranks converge to uniform.
/// assert!((ranks[0] - ranks[2]).abs() < 1e-9);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr, iterations: u32) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - DAMPING) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        // Dangling (degree-0) vertices redistribute their mass
        // uniformly, keeping the ranks a probability distribution.
        let dangling: f64 = (0..graph.num_vertices())
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| rank[v as usize])
            .sum();
        next.fill(base + DAMPING * dangling / n as f64);
        for s in 0..graph.num_vertices() {
            let deg = graph.out_degree(s);
            if deg == 0 {
                continue;
            }
            let contrib = DAMPING * rank[s as usize] / deg as f64;
            for &t in graph.neighbors(s) {
                next[t as usize] += contrib;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// The per-vertex arrays `generate` lays out after the CSR arrays, in
/// order: the ranks of the current and the next iteration, alternating.
pub(crate) const ARRAYS: [&str; 2] = ["rank_a", "rank_b"];

/// Generates the kernel sequence of a PR run ([`ITERATIONS`] kernels),
/// handing each kernel to `run` as a [`KernelSource`]. The stream is a
/// pure function of `(graph, prop, tb_size)` — coherence and
/// consistency never appear here — so consumers may materialize and
/// reuse it across configuration cells.
///
/// # Panics
///
/// Panics if `prop` is not [`Propagation::Push`] or
/// [`Propagation::Pull`] (PR has static
/// traversal).
pub fn generate(
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
    run: &mut dyn FnMut(KernelSource<'_>),
) {
    assert!(
        matches!(prop, Propagation::Push | Propagation::Pull),
        "PageRank supports no dynamic direction policy: use Push or Pull"
    );
    let n = graph.num_vertices();
    let (_space, arrays, rank) = layout(graph, ARRAYS);

    for iter in 0..ITERATIONS {
        let cur = rank[(iter % 2) as usize];
        let nxt = rank[((iter + 1) % 2) as usize];
        match prop {
            Propagation::Push => vertex_kernel(run, n, tb_size, |s, ops| {
                // Hoisted source property: rank[s], degree, one divide.
                ops.push(MicroOp::load(cur.addr(s as u64)));
                arrays.load_degree(s, ops);
                ops.push(MicroOp::compute(DIV_CYCLES));
                for e in graph.edge_range(s) {
                    arrays.load_edge_target(e as u64, ops);
                    let t = graph.col_idx()[e as usize];
                    ops.push(MicroOp::atomic(nxt.addr(t as u64)));
                }
            }),
            Propagation::Pull => vertex_kernel(run, n, tb_size, |t, ops| {
                arrays.load_degree(t, ops);
                for e in graph.edge_range(t) {
                    arrays.load_edge_target(e as u64, ops);
                    let s = graph.col_idx()[e as usize];
                    // Per-edge source property loads + divide: the cost
                    // of not hoisting.
                    ops.push(MicroOp::load(cur.addr(s as u64)));
                    ops.push(MicroOp::load(arrays.row_ptr.addr(s as u64)));
                    ops.push(MicroOp::compute(DIV_CYCLES));
                }
                ops.push(MicroOp::store(nxt.addr(t as u64)));
            }),
            _ => unreachable!("direction filtered by supported_propagations"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn chain(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn reference_ranks_sum_to_one() {
        let g = chain(50);
        let ranks = reference(&g, 30);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn reference_star_center_ranks_highest() {
        let g = GraphBuilder::new(10)
            .edges((1..10).map(|i| (0, i)))
            .symmetric(true)
            .build()
            .unwrap();
        let ranks = reference(&g, 30);
        assert!(ranks[0] > ranks[1] * 3.0);
    }

    #[test]
    fn reference_empty_graph() {
        assert!(reference(&Csr::from_edges(0, &[]), 5).is_empty());
    }

    #[test]
    fn push_emits_one_atomic_per_edge() {
        let g = chain(20);
        let mut atomics = 0u64;
        let mut kernels = 0;
        generate(&g, Propagation::Push, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            kernels += 1;
            for t in 0..k.num_threads() {
                atomics += k
                    .thread(t)
                    .iter()
                    .filter(|o| matches!(o, MicroOp::Atomic { .. }))
                    .count() as u64;
            }
        });
        assert_eq!(kernels, ITERATIONS as usize);
        assert_eq!(atomics, g.num_edges() * ITERATIONS as u64);
    }

    #[test]
    fn pull_emits_no_atomics_and_one_store_per_vertex() {
        let g = chain(20);
        generate(&g, Propagation::Pull, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            let mut stores = 0;
            for t in 0..k.num_threads() {
                assert!(k
                    .thread(t)
                    .iter()
                    .all(|o| !matches!(o, MicroOp::Atomic { .. })));
                stores += k
                    .thread(t)
                    .iter()
                    .filter(|o| matches!(o, MicroOp::Store { .. }))
                    .count();
            }
            assert_eq!(stores, 20);
        });
    }

    #[test]
    fn pull_loads_source_properties_per_edge() {
        let g = chain(20);
        let mut first = true;
        generate(&g, Propagation::Pull, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            if !first {
                return;
            }
            first = false;
            // Interior vertex: degree 2 -> 1 degree load + per-edge
            // (col_idx + rank + deg + compute) + 1 store = 1 + 2*4 + 1.
            assert_eq!(k.thread(1).len(), 10);
        });
    }

    #[test]
    #[should_panic(expected = "no dynamic direction policy")]
    fn rejects_pushpull() {
        let g = chain(4);
        generate(&g, Propagation::PushPull, 256, &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "no dynamic direction policy")]
    fn rejects_hybrid() {
        // PR exposes no active set, so the frontier-adaptive policy is
        // rejected up front rather than degenerating to always-pull.
        let g = chain(4);
        generate(&g, Propagation::Hybrid, 256, &mut |_| {});
    }
}
