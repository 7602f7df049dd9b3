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

use crate::common::{layout, vertex_kernel};

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
    let n = graph.num_vertices() as usize;
    let mut level = vec![UNREACHED; n];
    if n == 0 {
        return level;
    }
    level[ROOT as usize] = 0;
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
            }
        }
        frontier = next;
        l += 1;
    }
    level
}

/// The realized per-level directions of a hybrid BFS run on `graph`:
/// each level runs push while the frontier (vertices at that level) is
/// below [`Propagation::HYBRID_DENSITY_THRESHOLD`] of the vertex count
/// and pull once it reaches it. Pure function of the graph — the same
/// invariant the kernel stream itself obeys.
pub fn hybrid_directions(graph: &Csr) -> Vec<Propagation> {
    let n = graph.num_vertices();
    let level = reference(graph);
    let max_level = level
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    (0..max_level.min(MAX_LEVELS))
        .map(|l| {
            let frontier = level.iter().filter(|&&x| x == l).count();
            Propagation::hybrid_direction_for_density(frontier as f64 / n.max(1) as f64)
        })
        .collect()
}

/// The realized per-**kernel** direction schedule of a hybrid BFS run:
/// a push level emits one kernel, a pull level emits the gather kernel
/// plus the local settle kernel (both labeled pull). Mirrors the
/// `generate` emission order exactly, so element *i* is the direction
/// kernel *i* actually ran — the contract certification and the trace
/// cache's policy fingerprint both key on this.
pub fn hybrid_schedule(graph: &Csr) -> Vec<Propagation> {
    hybrid_directions(graph)
        .into_iter()
        .flat_map(|d| {
            if d == Propagation::Pull {
                vec![Propagation::Pull; 2]
            } else {
                vec![Propagation::Push]
            }
        })
        .collect()
}

/// The per-vertex arrays `generate` lays out after the CSR arrays, in
/// order: BFS levels.
pub(crate) const ARRAYS: [&str; 1] = ["level"];

/// Generates the kernel sequence of a BFS run (one kernel per level,
/// plus a settle kernel per pull level), handing each kernel to `run`
/// as a [`KernelSource`]. The stream depends only on `(graph, prop,
/// tb_size)`, so it is safe to materialize once and replay across
/// configuration cells. Under [`Propagation::Hybrid`] each level
/// independently runs the push or pull variant as chosen by
/// [`hybrid_directions`].
///
/// # Panics
///
/// Panics if `prop` is [`Propagation::PushPull`].
pub fn generate(
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
    run: &mut dyn FnMut(KernelSource<'_>),
) {
    assert_ne!(
        prop,
        Propagation::PushPull,
        "BFS has static traversal: use Push, Pull, or Hybrid"
    );
    let n = graph.num_vertices();
    let (_space, arrays, [level_arr]) = layout(graph, ARRAYS);

    let level = reference(graph);
    let max_level = level
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);

    let hybrid_dirs = (prop == Propagation::Hybrid).then(|| hybrid_directions(graph));

    for l in 0..max_level.min(MAX_LEVELS) {
        let dir = hybrid_dirs.as_ref().map_or(prop, |dirs| dirs[l as usize]);
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
                        // Found a frontier parent; real kernels break out
                        // here, so remaining edges are skipped.
                        break;
                    }
                }
            }),
            _ => unreachable!("direction filtered by supported_propagations"),
        }

        // Pull settles discovered vertices in a second, purely local
        // kernel: the gather kernel reads `level` remotely, so storing
        // it there would be an unmarked read/write race (see
        // docs/checking.md). One thread per vertex, own word only.
        if dir == Propagation::Pull {
            vertex_kernel(run, n, tb_size, |v, ops| {
                ops.push(MicroOp::load(level_arr.addr(v as u64)));
                if level[v as usize] == l + 1 {
                    ops.push(MicroOp::store(level_arr.addr(v as u64)));
                }
            });
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
        generate(&g, Propagation::Push, 256, &mut |k| {
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
        generate(&g, Propagation::Pull, 256, &mut |k| {
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
        generate(&g, Propagation::Push, 256, &mut |_| kernels += 1);
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
    fn hybrid_schedule_mirrors_emitted_kernels() {
        for g in [path(32), fanout(256)] {
            let schedule = hybrid_schedule(&g);
            let mut kernels = 0;
            generate(&g, Propagation::Hybrid, 256, &mut |_| kernels += 1);
            assert_eq!(schedule.len(), kernels, "one schedule entry per kernel");
        }
    }

    #[test]
    fn hybrid_on_sparse_frontiers_matches_push_stream() {
        // A path's frontier is one vertex per level — always below the
        // threshold, so the hybrid stream degenerates to pure push.
        let g = path(32);
        let mut push = Vec::new();
        generate(&g, Propagation::Push, 256, &mut |k| {
            push.push(k.into_trace().unwrap())
        });
        let mut hybrid = Vec::new();
        generate(&g, Propagation::Hybrid, 256, &mut |k| {
            hybrid.push(k.into_trace().unwrap())
        });
        assert_eq!(push, hybrid);
    }
}
