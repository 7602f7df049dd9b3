//! Breadth-First Search (BFS) — **extension application** (not part of
//! the paper's six-workload matrix; added per §VIII's outlook of
//! extending the taxonomy to more algorithms).
//!
//! Level-synchronous BFS from a single root: static traversal, source
//! control (the frontier predicate elides whole inner loops for push),
//! symmetric information (both variants exchange only the level word).
//! Structurally it is the forward phase of Betweenness Centrality
//! without the path counting, which makes it a useful minimal probe of
//! the frontier-control dimension.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{layout, settle_level_kernel, step_direction, vertex_kernel, Levels};

/// Root vertex of every BFS run.
pub const ROOT: u32 = 0;

/// Maximum levels simulated per run (the reference always runs the full
/// traversal).
pub const MAX_LEVELS: u32 = 12;

/// Level value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Host-reference BFS from [`ROOT`]: per-vertex levels (hop distances).
///
/// # Example
///
/// ```
/// use ggs_apps::bfs;
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3)])
///     .symmetric(true)
///     .build()?;
/// assert_eq!(bfs::reference(&g), vec![0, 1, 2, 3]);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<u32> {
    Levels::traverse(graph, ROOT, |_, _| {}).level
}

/// The realized per-level directions of a hybrid BFS run on `graph`:
/// each level runs push while the frontier (vertices at that level) is
/// below [`Propagation::HYBRID_DENSITY_THRESHOLD`] of the vertex count
/// and pull once it reaches it. Pure function of the graph — the same
/// invariant the kernel stream itself obeys; `generate` hands each
/// kernel to its consumer with the direction it ran.
pub fn hybrid_directions(graph: &Csr) -> Vec<Propagation> {
    let levels = Levels::traverse(graph, ROOT, |_, _| {});
    levels.frontier_sizes[..levels.depth().min(MAX_LEVELS) as usize]
        .iter()
        .map(|&f| step_direction(Propagation::Hybrid, f, graph.num_vertices()))
        .collect()
}

/// The per-vertex arrays `generate` lays out after the CSR arrays, in
/// order: BFS levels.
pub(crate) const ARRAYS: [&str; 1] = ["level"];

/// Generates the kernel sequence of a BFS run (one kernel per level,
/// plus a settle kernel per pull level), handing each kernel to `run`
/// as a [`KernelSource`] together with the direction it ran. The stream
/// depends only on `(graph, prop, tb_size)`, so it is safe to
/// materialize once and replay across configuration cells. Under
/// [`Propagation::Hybrid`] each level independently runs the push or
/// pull variant as chosen by [`hybrid_directions`]; both kernels of a
/// pull level are labeled pull.
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
        "BFS has static traversal: use Push, Pull, or Hybrid"
    );
    let n = graph.num_vertices();
    let (_space, arrays, [level_arr]) = layout(graph, ARRAYS);

    let levels = Levels::traverse(graph, ROOT, |_, _| {});
    let level = &levels.level;

    for l in 0..levels.depth().min(MAX_LEVELS) {
        let dir = step_direction(prop, levels.frontier_sizes[l as usize], n);
        let run = &mut |k: KernelSource<'_>| run(k, dir);
        match dir {
            Propagation::Push => vertex_kernel(run, n, tb_size, |s, ops| {
                // Source control: one level load elides off-frontier
                // sources entirely.
                ops.push(MicroOp::load(level_arr.addr(s as u64)));
                if level[s as usize] != l {
                    return;
                }
                for e in graph.edge_range(s) {
                    arrays.load_edge_target(e as u64, ops);
                    let t = graph.col_idx()[e as usize];
                    if level[t as usize] == l + 1 {
                        // Racy benign write: first writer wins.
                        ops.push(MicroOp::atomic(level_arr.addr(t as u64)));
                    }
                }
            }),
            Propagation::Pull => vertex_kernel(run, n, tb_size, |t, ops| {
                ops.push(MicroOp::load(level_arr.addr(t as u64)));
                if level[t as usize] < l + 1 {
                    return; // already settled
                }
                for e in graph.edge_range(t) {
                    arrays.load_edge_target(e as u64, ops);
                    let s = graph.col_idx()[e as usize];
                    ops.push(MicroOp::load(level_arr.addr(s as u64)));
                    if level[s as usize] == l {
                        // Found a frontier parent; real kernels break
                        // out here, so remaining edges are skipped.
                        break;
                    }
                }
            }),
            _ => unreachable!("direction filtered by supported_propagations"),
        }

        if dir == Propagation::Pull {
            settle_level_kernel(run, tb_size, level_arr, level, l);
        }
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
    fn reference_levels_on_path() {
        assert_eq!(reference(&path(5)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reference_unreachable() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .symmetric(true)
            .build()
            .unwrap();
        assert_eq!(reference(&g), vec![0, 1, UNREACHED]);
    }

    #[test]
    fn reference_matches_unit_weight_sssp() {
        let g = GraphBuilder::new(64)
            .edges(
                (0..64u32)
                    .map(|i| (i, (i * 7 + 1) % 64))
                    .filter(|&(a, b)| a != b),
            )
            .symmetric(true)
            .build()
            .unwrap();
        let bfs = reference(&g);
        let sssp = crate::sssp::reference(&g);
        for v in 0..64 {
            let want = if sssp[v] == crate::sssp::INF {
                UNREACHED
            } else {
                sssp[v]
            };
            assert_eq!(bfs[v], want, "vertex {v}");
        }
    }

    #[test]
    fn push_elides_off_frontier() {
        let g = path(32);
        let mut first = true;
        generate(&g, Propagation::Push, 256, &mut |k, _| {
            let k = k.into_trace().unwrap();
            if first {
                assert!(k.thread(0).len() > 1);
                assert_eq!(k.thread(20).len(), 1);
                first = false;
            }
        });
    }

    #[test]
    fn pull_early_exits_on_found_parent() {
        let g = path(32);
        let mut first = true;
        generate(&g, Propagation::Pull, 256, &mut |k, _| {
            let k = k.into_trace().unwrap();
            if first {
                // Vertex 1 finds its parent on the first in-edge:
                // 1 own-level load + col_idx + parent level + store.
                assert!(k.thread(1).len() <= 4);
                first = false;
            }
        });
    }

    #[test]
    fn kernel_count_is_levels() {
        let g = path(6);
        let mut kernels = 0;
        generate(&g, Propagation::Push, 256, &mut |_, _| kernels += 1);
        assert_eq!(kernels, 5);
    }

    /// A graph whose BFS frontier starts sparse and then explodes:
    /// root → 4 hubs → a dense middle tier → a sparse tail. The
    /// middle-tier frontier (level 2) is above the density threshold
    /// *while it still has the tail to discover*, so the hybrid run
    /// must realize pull on that level.
    fn fanout(n: u32) -> Csr {
        let hubs = 4u32;
        let mid_end = n - 32;
        GraphBuilder::new(n)
            .edges((1..=hubs).map(|h| (0, h)))
            .edges((hubs + 1..mid_end).map(|v| (1 + (v % hubs), v)))
            .edges((mid_end..n).map(|v| (hubs + 1 + (v % (mid_end - hubs - 1)), v)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn hybrid_switches_push_to_pull_on_fanout() {
        let dirs = hybrid_directions(&fanout(256));
        assert_eq!(dirs[0], Propagation::Push, "root frontier is sparse");
        assert!(
            dirs.contains(&Propagation::Pull),
            "exploded frontier must flip to pull: {dirs:?}"
        );
    }

    #[test]
    fn hybrid_on_sparse_frontiers_matches_push_stream() {
        // A path's frontier is one vertex per level — always below the
        // threshold, so the hybrid stream degenerates to pure push.
        let g = path(32);
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
