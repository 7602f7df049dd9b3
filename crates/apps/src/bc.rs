//! Betweenness Centrality (BC) — static traversal, source control,
//! symmetric information (Table III).
//!
//! Brandes' algorithm from a single root: a level-synchronous forward
//! BFS accumulating shortest-path counts (`sigma`), then a backward
//! sweep accumulating dependencies (`delta`). The forward phase has
//! frontier control at the *source* (push skips off-frontier sources
//! after one level load); information is symmetric (both variants load
//! `sigma` per edge). The backward sweep is a local accumulation and is
//! identical for both variants.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{layout, vertex_kernel};

/// Root vertex of every BC run.
pub const ROOT: u32 = 0;

/// Maximum BFS levels simulated forward and backward (the reference
/// always runs the full traversal).
pub const MAX_LEVELS: u32 = 8;

/// Level value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Forward BFS from [`ROOT`]: per-vertex `(level, sigma)` where `sigma`
/// counts shortest paths.
fn forward(graph: &Csr) -> (Vec<u32>, Vec<u64>) {
    let n = graph.num_vertices() as usize;
    let mut level = vec![UNREACHED; n];
    let mut sigma = vec![0u64; n];
    if n == 0 {
        return (level, sigma);
    }
    level[ROOT as usize] = 0;
    sigma[ROOT as usize] = 1;
    let mut frontier = vec![ROOT];
    let mut l = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &s in &frontier {
            for &t in graph.neighbors(s) {
                if level[t as usize] == UNREACHED {
                    level[t as usize] = l + 1;
                    next.push(t);
                }
                if level[t as usize] == l + 1 {
                    sigma[t as usize] += sigma[s as usize];
                }
            }
        }
        frontier = next;
        l += 1;
    }
    (level, sigma)
}

/// Host-reference BC scores (unnormalized, single root).
///
/// # Example
///
/// ```
/// use ggs_apps::bc;
/// use ggs_graph::GraphBuilder;
///
/// // Path 0-1-2: all shortest paths from 0 pass through vertex 1.
/// let g = GraphBuilder::new(3)
///     .edges([(0, 1), (1, 2)])
///     .symmetric(true)
///     .build()?;
/// let scores = bc::reference(&g);
/// assert!(scores[1] > scores[2]);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let (level, sigma) = forward(graph);
    let mut delta = vec![0.0f64; n];
    let max_level = level
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    for l in (0..max_level).rev() {
        for v in 0..graph.num_vertices() {
            if level[v as usize] != l {
                continue;
            }
            let mut acc = 0.0;
            for &t in graph.neighbors(v) {
                if level[t as usize] == l + 1 && sigma[t as usize] > 0 {
                    acc += (sigma[v as usize] as f64 / sigma[t as usize] as f64)
                        * (1.0 + delta[t as usize]);
                }
            }
            delta[v as usize] += acc;
        }
    }
    delta
}

/// The per-vertex arrays `generate` lays out after the CSR arrays, in
/// order: BFS levels, shortest-path counts and dependencies.
pub(crate) const ARRAYS: [&str; 3] = ["level", "sigma", "delta"];

/// Generates the kernel sequence of a BC run (one kernel per forward
/// level, then one per backward level), handing each kernel to `run` as
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
        "BC supports no dynamic direction policy: use Push or Pull"
    );
    let n = graph.num_vertices();
    let (_space, arrays, [level_arr, sigma_arr, delta_arr]) = layout(graph, ARRAYS);

    let (level, _sigma) = forward(graph);
    let max_level = level
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    let levels = max_level.min(MAX_LEVELS);

    // Forward phase: one kernel per level.
    for l in 0..levels {
        match prop {
            Propagation::Push => vertex_kernel(run, n, tb_size, |s, ops| {
                // Source control: one level load elides off-frontier work.
                ops.push(MicroOp::load(level_arr.addr(s as u64)));
                if level[s as usize] != l {
                    return;
                }
                ops.push(MicroOp::load(sigma_arr.addr(s as u64)));
                for e in graph.edge_range(s) {
                    arrays.load_edge_target(e as u64, ops);
                    let t = graph.col_idx()[e as usize];
                    ops.push(MicroOp::load(level_arr.addr(t as u64)));
                    if level[t as usize] == l + 1 {
                        ops.push(MicroOp::atomic(sigma_arr.addr(t as u64)));
                        // Benign first-writer-wins race on the level
                        // word: must be a *marked* (relaxed) atomic to
                        // stay DRF, exactly like BFS push.
                        ops.push(MicroOp::atomic(level_arr.addr(t as u64)));
                    }
                }
            }),
            Propagation::Pull => vertex_kernel(run, n, tb_size, |t, ops| {
                ops.push(MicroOp::load(level_arr.addr(t as u64)));
                // Unvisited targets scan their in-neighbors.
                if level[t as usize] < l + 1 {
                    return;
                }
                let mut found = false;
                for e in graph.edge_range(t) {
                    arrays.load_edge_target(e as u64, ops);
                    let s = graph.col_idx()[e as usize];
                    ops.push(MicroOp::load(level_arr.addr(s as u64)));
                    if level[s as usize] == l {
                        ops.push(MicroOp::load(sigma_arr.addr(s as u64)));
                        ops.push(MicroOp::compute(1));
                        found = true;
                    }
                }
                if found && level[t as usize] == l + 1 {
                    // sigma[t] is safe to write in place: this kernel
                    // only reads sigma of level-l vertices, and t is at
                    // level l+1 — disjoint addresses.
                    ops.push(MicroOp::store(sigma_arr.addr(t as u64)));
                }
            }),
            _ => unreachable!("direction filtered by supported_propagations"),
        }

        // Pull writes the level word in a separate settle kernel: the
        // gather kernel above reads `level` remotely, so updating it in
        // place would be an (unmarked) read/write race. The settle pass
        // is a dense local update — each thread touches only its own
        // word — which keeps pull atomic-free and race-free (Table I).
        if prop == Propagation::Pull {
            vertex_kernel(run, n, tb_size, |v, ops| {
                ops.push(MicroOp::load(level_arr.addr(v as u64)));
                if level[v as usize] == l + 1 {
                    ops.push(MicroOp::store(level_arr.addr(v as u64)));
                }
            });
        }
    }

    // Backward phase: identical local accumulation for both variants.
    for l in (0..levels).rev() {
        vertex_kernel(run, n, tb_size, |v, ops| {
            ops.push(MicroOp::load(level_arr.addr(v as u64)));
            if level[v as usize] != l {
                return;
            }
            ops.push(MicroOp::load(sigma_arr.addr(v as u64)));
            for e in graph.edge_range(v) {
                arrays.load_edge_target(e as u64, ops);
                let t = graph.col_idx()[e as usize];
                ops.push(MicroOp::load(level_arr.addr(t as u64)));
                if level[t as usize] == l + 1 {
                    ops.push(MicroOp::load(sigma_arr.addr(t as u64)));
                    ops.push(MicroOp::load(delta_arr.addr(t as u64)));
                    ops.push(MicroOp::compute(3));
                }
            }
            ops.push(MicroOp::store(delta_arr.addr(v as u64)));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn path(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn reference_path_interior_dominates() {
        let scores = reference(&path(5));
        // From root 0, dependency decreases along the path.
        assert!(scores[1] > scores[2]);
        assert!(scores[2] > scores[3]);
        assert_eq!(scores[4], 0.0);
    }

    #[test]
    fn reference_star_leaves_are_zero() {
        let g = GraphBuilder::new(10)
            .edges((1..10).map(|i| (0, i)))
            .symmetric(true)
            .build()
            .unwrap();
        let scores = reference(&g);
        for score in &scores[1..10] {
            assert_eq!(*score, 0.0);
        }
    }

    #[test]
    fn reference_counts_multiple_shortest_paths() {
        // Diamond: 0-1-3, 0-2-3. Each middle vertex carries half.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .symmetric(true)
            .build()
            .unwrap();
        let scores = reference(&g);
        assert!((scores[1] - 0.5).abs() < 1e-12);
        assert!((scores[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forward_levels_and_sigma() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .symmetric(true)
            .build()
            .unwrap();
        let (level, sigma) = forward(&g);
        assert_eq!(level, vec![0, 1, 1, 2]);
        assert_eq!(sigma, vec![1, 1, 1, 2]);
    }

    #[test]
    fn kernel_count_is_levels_forward_plus_backward() {
        let g = path(6); // levels 0..5 -> max_level 5, capped at 5
        let mut kernels = 0;
        generate(&g, Propagation::Push, 256, &mut |_| kernels += 1);
        assert_eq!(kernels, 10);
    }

    #[test]
    fn push_elides_off_frontier_sources() {
        let g = path(40);
        let mut seen = 0;
        generate(&g, Propagation::Push, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            if seen == 0 {
                // Level-0 kernel: only the root works.
                assert!(k.thread(0).len() > 2);
                assert_eq!(k.thread(30).len(), 1);
            }
            seen += 1;
        });
    }

    #[test]
    fn pull_scans_in_neighbors_of_unvisited() {
        let g = path(40);
        let mut seen = 0;
        generate(&g, Propagation::Pull, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            if seen == 0 {
                // Vertex 1 is at level 1: scans both neighbors.
                assert!(k.thread(1).len() >= 5);
                // Already-settled root does a single load.
                assert_eq!(k.thread(0).len(), 1);
            }
            seen += 1;
        });
    }
}
