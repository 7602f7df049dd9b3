//! Single-Source Shortest Path (SSSP) — static traversal, source
//! control, source information (Table III).
//!
//! Bellman-Ford style with an *updated* flag per vertex: only vertices
//! relaxed in the previous iteration propagate (the frontier). The
//! push variant elides the whole inner loop for inactive sources after
//! a single flag load; the pull variant must test every in-neighbor's
//! flag inside the inner loop.
//!
//! Each iteration launches two kernels, as in Pannotia: a relax kernel
//! and a per-vertex settle kernel that folds `newdist` into `dist` and
//! rebuilds the flags.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{layout, step_direction, vertex_kernel};

/// Source vertex of every SSSP run.
pub const ROOT: u32 = 0;

/// Maximum Bellman-Ford iterations simulated per run (the reference
/// implementation always runs to convergence; the trace replay is
/// capped to bound simulation cost — see EXPERIMENTS.md).
pub const MAX_ITERATIONS: u32 = 5;

/// Distance value for unreachable vertices.
pub const INF: u32 = u32::MAX;

/// Host-reference SSSP from [`ROOT`]: full Bellman-Ford to convergence.
///
/// Unweighted graphs are treated as having unit weights.
///
/// # Example
///
/// ```
/// use ggs_apps::sssp;
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3)])
///     .symmetric(true)
///     .build()?;
/// assert_eq!(sssp::reference(&g), vec![0, 1, 2, 3]);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<u32> {
    bellman_ford(graph).0
}

/// Per-iteration frontiers (sets of *updated* vertices), starting with
/// `[ROOT]`, until convergence. Used by the trace replay and by the
/// hybrid direction policy (the frontier's density decides push vs.
/// pull per iteration).
pub fn frontiers(graph: &Csr) -> Vec<Vec<u32>> {
    bellman_ford(graph).1
}

/// The one Bellman-Ford pass from [`ROOT`] behind [`reference`] and
/// [`frontiers`]: the final distances and every iteration's frontier.
fn bellman_ford(graph: &Csr) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = graph.num_vertices() as usize;
    let mut dist = vec![INF; n];
    let mut fronts = Vec::new();
    if n == 0 {
        return (dist, fronts);
    }
    dist[ROOT as usize] = 0;
    let mut active = vec![ROOT];
    while !active.is_empty() {
        let mut changed = std::collections::BTreeSet::new();
        for &s in &active {
            let ds = dist[s as usize];
            let weights = graph.edge_weights(s);
            for (i, &t) in graph.neighbors(s).iter().enumerate() {
                let w = weights.map_or(1, |w| w[i]);
                let cand = ds.saturating_add(w);
                if cand < dist[t as usize] {
                    dist[t as usize] = cand;
                    changed.insert(t);
                }
            }
        }
        fronts.push(std::mem::replace(
            &mut active,
            changed.into_iter().collect(),
        ));
    }
    (dist, fronts)
}

/// The realized per-iteration directions of a hybrid SSSP run on
/// `graph`: each Bellman-Ford iteration runs push while its updated-
/// vertex frontier is below [`Propagation::HYBRID_DENSITY_THRESHOLD`]
/// of the vertex count and pull once it reaches it. Pure function of
/// the graph, like the kernel stream itself; `generate` hands each
/// kernel to its consumer with the direction it ran.
pub fn hybrid_directions(graph: &Csr) -> Vec<Propagation> {
    frontiers(graph)
        .iter()
        .take(MAX_ITERATIONS as usize)
        .map(|front| step_direction(Propagation::Hybrid, front.len(), graph.num_vertices()))
        .collect()
}

/// The per-vertex arrays `generate` lays out after the CSR arrays, in
/// order: distances, relaxed distances and updated flags.
pub(crate) const ARRAYS: [&str; 3] = ["dist", "newdist", "flag"];

/// Generates the kernel sequence of an SSSP run (two kernels per
/// simulated iteration), handing each kernel to `run` as a
/// [`KernelSource`] together with the direction it ran. The stream
/// depends only on `(graph, prop, tb_size)`, so it is safe to
/// materialize once and replay across configuration cells. Under
/// [`Propagation::Hybrid`] each iteration independently runs the push
/// or pull relax variant as chosen by [`hybrid_directions`]; its settle
/// kernel is labeled with the same direction.
///
/// # Panics
///
/// Panics if `prop` is [`Propagation::PushPull`].
pub fn generate(
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
    run: &mut dyn FnMut(KernelSource<'_>, Propagation),
) {
    assert_ne!(
        prop,
        Propagation::PushPull,
        "SSSP has static traversal: use Push, Pull, or Hybrid"
    );
    let n = graph.num_vertices();
    let (_space, arrays, [dist, newdist, flag]) = layout(graph, ARRAYS);

    let fronts = frontiers(graph);
    let mut active = vec![false; n as usize];

    for front in fronts.iter().take(MAX_ITERATIONS as usize) {
        active.fill(false);
        for &v in front {
            active[v as usize] = true;
        }

        let dir = step_direction(prop, front.len(), n);
        let run = &mut |k: KernelSource<'_>| run(k, dir);
        match dir {
            Propagation::Push => vertex_kernel(run, n, tb_size, |s, ops| {
                // Control at source: one flag load elides everything.
                ops.push(MicroOp::load(flag.addr(s as u64)));
                if !active[s as usize] {
                    return;
                }
                // Hoisted source information.
                ops.push(MicroOp::load(dist.addr(s as u64)));
                for e in graph.edge_range(s) {
                    arrays.load_edge_target(e as u64, ops);
                    arrays.load_edge_weight(e as u64, ops);
                    ops.push(MicroOp::compute(2));
                    let t = graph.col_idx()[e as usize];
                    ops.push(MicroOp::atomic(newdist.addr(t as u64)));
                }
            }),
            Propagation::Pull => vertex_kernel(run, n, tb_size, |t, ops| {
                let mut any = false;
                for e in graph.edge_range(t) {
                    arrays.load_edge_target(e as u64, ops);
                    let s = graph.col_idx()[e as usize];
                    // Control in the inner loop: flag tested per edge.
                    ops.push(MicroOp::load(flag.addr(s as u64)));
                    if active[s as usize] {
                        ops.push(MicroOp::load(dist.addr(s as u64)));
                        arrays.load_edge_weight(e as u64, ops);
                        ops.push(MicroOp::compute(2));
                        any = true;
                    }
                }
                if any {
                    ops.push(MicroOp::store(newdist.addr(t as u64)));
                }
            }),
            _ => unreachable!("direction filtered by supported_propagations"),
        }

        // Settle kernel: identical for both variants.
        vertex_kernel(run, n, tb_size, |v, ops| {
            ops.push(MicroOp::load(newdist.addr(v as u64)));
            ops.push(MicroOp::load(dist.addr(v as u64)));
            ops.push(MicroOp::compute(1));
            ops.push(MicroOp::store(dist.addr(v as u64)));
            ops.push(MicroOp::store(flag.addr(v as u64)));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn weighted_chain(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
            .with_hashed_weights(4)
    }

    #[test]
    fn reference_unit_weights() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (1, 3), (3, 4)])
            .symmetric(true)
            .build()
            .unwrap();
        assert_eq!(reference(&g), vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn reference_weighted_prefix_sums() {
        let g = weighted_chain(6);
        let d = reference(&g);
        assert_eq!(d[0], 0);
        for v in 1..6u32 {
            let w = g.edge_weights(v - 1).unwrap()[g.neighbors(v - 1).binary_search(&v).unwrap()];
            assert_eq!(d[v as usize], d[(v - 1) as usize] + w);
        }
    }

    #[test]
    fn reference_unreachable_is_inf() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 0)])
            .build()
            .unwrap();
        let d = reference(&g);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn frontiers_grow_then_shrink() {
        let g = GraphBuilder::new(64)
            .edges((0..63).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        let f = frontiers(&g);
        assert_eq!(f[0], vec![0]);
        assert_eq!(f[1], vec![1]);
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn push_elides_inactive_sources() {
        let g = GraphBuilder::new(40)
            .edges((0..39).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        let mut first = true;
        generate(&g, Propagation::Push, 256, &mut |k, _| {
            let k = k.into_trace().unwrap();
            if !first {
                return;
            }
            first = false;
            // Iteration 0: only the root is active.
            assert!(k.thread(0).len() > 2, "root does real work");
            assert_eq!(k.thread(20).len(), 1, "inactive source = 1 flag load");
        });
    }

    #[test]
    fn pull_tests_flags_per_edge() {
        let g = GraphBuilder::new(40)
            .edges((0..39).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        let mut first = true;
        generate(&g, Propagation::Pull, 256, &mut |k, _| {
            let k = k.into_trace().unwrap();
            if !first {
                return;
            }
            first = false;
            // Vertex 20 (inactive neighbors): 2 edges x (col_idx + flag).
            assert_eq!(k.thread(20).len(), 4);
        });
    }

    #[test]
    fn kernel_count_is_two_per_iteration() {
        let g = weighted_chain(32);
        let mut kernels = 0;
        generate(&g, Propagation::Push, 256, &mut |_, _| kernels += 1);
        let fronts = frontiers(&g).len().min(MAX_ITERATIONS as usize);
        assert_eq!(kernels, 2 * fronts);
    }

    /// A star from the root: iteration 0's frontier is the root alone
    /// (sparse → push), iteration 1's frontier is every leaf the root
    /// just relaxed (dense → pull).
    fn star(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((1..n).map(|v| (0, v)))
            .edges((1..n - 1).map(|v| (v, v + 1)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn hybrid_switches_on_dense_frontier() {
        let dirs = hybrid_directions(&star(128));
        assert_eq!(dirs[0], Propagation::Push, "root-only frontier is sparse");
        assert!(
            dirs.contains(&Propagation::Pull),
            "dense frontier must flip to pull: {dirs:?}"
        );
    }

    #[test]
    fn hybrid_on_sparse_frontiers_matches_push_stream() {
        // A 64-chain's frontier is one vertex per iteration — always
        // below the threshold, so hybrid degenerates to pure push.
        let g = weighted_chain(64);
        let mut push = Vec::new();
        generate(&g, Propagation::Push, 256, &mut |k, dir| {
            push.push((k.into_trace().unwrap(), dir))
        });
        let mut hybrid = Vec::new();
        generate(&g, Propagation::Hybrid, 256, &mut |k, dir| {
            hybrid.push((k.into_trace().unwrap(), dir))
        });
        assert!(hybrid.iter().all(|(_, dir)| *dir == Propagation::Push));
        assert_eq!(push, hybrid);
    }
}
