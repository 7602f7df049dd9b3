//! Shared trace-generation machinery for the vertex-centric kernels.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::layout::{AddressSpace, ArrayHandle};
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::bfs::UNREACHED;

/// Address handles for the CSR arrays every kernel walks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphArrays {
    pub row_ptr: ArrayHandle,
    pub col_idx: ArrayHandle,
    pub weights: Option<ArrayHandle>,
}

/// Lays out a workload's memory in a fresh [`AddressSpace`]: `graph`'s
/// CSR arrays, then one `num_vertices`-word array per name in
/// `vertex_arrays`, in order. This is the one layout of each app: its
/// `generate` takes its handles from here, and `Workload::memory_map`
/// reads the space's regions. It is a pure function of the graph and the
/// names, so the emitted stream is too, and one stream serves every
/// configuration that simulates it. Producers hold the space until they
/// return (`_space`): freeing it before the kernels are emitted raised
/// the perfbench `store` workload's peak RSS by 0.6 MB (5%), through
/// allocator fragmentation alone.
pub(crate) fn layout<const N: usize>(
    graph: &Csr,
    vertex_arrays: [&str; N],
) -> (AddressSpace, GraphArrays, [ArrayHandle; N]) {
    let mut space = AddressSpace::new(64);
    let csr = GraphArrays {
        row_ptr: space.array("row_ptr", graph.num_vertices() as u64 + 1),
        col_idx: space.array("col_idx", graph.num_edges()),
        weights: graph
            .is_weighted()
            .then(|| space.array("weights", graph.num_edges())),
    };
    let n = u64::from(graph.num_vertices());
    let vertex = vertex_arrays.map(|name| space.array(name, n));
    (space, csr, vertex)
}

impl GraphArrays {
    /// Emits the degree lookup for vertex `v` (`row_ptr[v]` and
    /// `row_ptr[v+1]` share a cache line 15 times out of 16; one load
    /// covers the pair).
    pub fn load_degree(&self, v: u32, ops: &mut Vec<MicroOp>) {
        ops.push(MicroOp::load(self.row_ptr.addr(v as u64)));
    }

    /// Emits the `col_idx[e]` load for edge slot `e`.
    pub fn load_edge_target(&self, e: u64, ops: &mut Vec<MicroOp>) {
        ops.push(MicroOp::load(self.col_idx.addr(e)));
    }

    /// Emits the `weights[e]` load for edge slot `e` (no-op when the
    /// graph is unweighted).
    pub fn load_edge_weight(&self, e: u64, ops: &mut Vec<MicroOp>) {
        if let Some(w) = self.weights {
            ops.push(MicroOp::load(w.addr(e)));
        }
    }
}

/// Hands `run` a vertex-centric kernel: one thread per vertex, thread
/// `v`'s ops appended by `emit(v, ops)` as the consumer takes them.
///
/// The consumer packs each warp as its lanes are emitted
/// ([`KernelSource::pack`]), so producing a kernel for the simulator
/// builds no per-thread trace of it; only a consumer that reads threads
/// one by one materializes one ([`KernelSource::into_trace`]).
pub(crate) fn vertex_kernel<F>(
    run: &mut dyn FnMut(KernelSource<'_>),
    num_vertices: u32,
    tb_size: u32,
    mut emit: F,
) where
    F: FnMut(u32, &mut Vec<MicroOp>),
{
    run(KernelSource::new(num_vertices, tb_size, &mut emit));
}

/// The one level-synchronous traversal behind BFS and BC: each vertex's
/// level (hop distance from the root, [`UNREACHED`] if none) and the
/// size of each level's frontier.
#[derive(Debug)]
pub(crate) struct Levels {
    pub level: Vec<u32>,
    /// `frontier_sizes[l]` vertices sit at level `l`; the last entry is
    /// the deepest level reached.
    pub frontier_sizes: Vec<usize>,
}

impl Levels {
    /// Traverses `graph` from `root`, calling `on_edge(s, t)` for every
    /// edge from a level-`l` vertex `s` to a level-`l + 1` vertex `t`
    /// (the shortest-path DAG), in traversal order.
    pub fn traverse(graph: &Csr, root: u32, mut on_edge: impl FnMut(u32, u32)) -> Self {
        let mut level = vec![UNREACHED; graph.num_vertices() as usize];
        let mut frontier_sizes = Vec::new();
        if level.is_empty() {
            return Self {
                level,
                frontier_sizes,
            };
        }
        level[root as usize] = 0;
        let mut frontier = vec![root];
        let mut l = 0;
        while !frontier.is_empty() {
            frontier_sizes.push(frontier.len());
            let mut next = Vec::new();
            for &s in &frontier {
                for &t in graph.neighbors(s) {
                    if level[t as usize] == UNREACHED {
                        level[t as usize] = l + 1;
                        next.push(t);
                    }
                    if level[t as usize] == l + 1 {
                        on_edge(s, t);
                    }
                }
            }
            frontier = next;
            l += 1;
        }
        Self {
            level,
            frontier_sizes,
        }
    }

    /// The deepest level reached: the number of level steps a full run
    /// takes (0 for an empty graph or a lone root).
    pub fn depth(&self) -> u32 {
        self.frontier_sizes.len().saturating_sub(1) as u32
    }
}

/// The direction one frontier step of a `prop` run takes: `prop`
/// itself, or under [`Propagation::Hybrid`] push while the frontier
/// (`frontier` of `n` vertices) is below
/// [`Propagation::HYBRID_DENSITY_THRESHOLD`] and pull once it reaches it.
pub(crate) fn step_direction(prop: Propagation, frontier: usize, n: u32) -> Propagation {
    if prop == Propagation::Hybrid {
        Propagation::hybrid_direction_for_density(frontier as f64 / n.max(1) as f64)
    } else {
        prop
    }
}

/// Emits the settle kernel that follows a pull level step of BFS and
/// BC: every vertex loads its own `level` word and stores it if the step
/// discovered it (`level[v] == l + 1`). The gather kernel before it
/// reads `level` remotely, so storing it there would be an unmarked
/// read/write race (see docs/checking.md); here each thread touches only
/// its own word, which keeps pull atomic-free and race-free (Table I).
pub(crate) fn settle_level_kernel(
    run: &mut dyn FnMut(KernelSource<'_>),
    tb_size: u32,
    level_arr: ArrayHandle,
    level: &[u32],
    l: u32,
) {
    vertex_kernel(run, level.len() as u32, tb_size, |v, ops| {
        ops.push(MicroOp::load(level_arr.addr(v as u64)));
        if level[v as usize] == l + 1 {
            ops.push(MicroOp::store(level_arr.addr(v as u64)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    #[test]
    fn graph_arrays_do_not_alias() {
        let g = GraphBuilder::new(10)
            .edges((0..9).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
            .with_hashed_weights(8);
        let (_, arrays, [prop]) = layout(&g, ["prop"]);
        let rp_end = arrays.row_ptr.addr(10);
        assert!(arrays.col_idx.addr(0) > rp_end);
        let w = arrays.weights.unwrap();
        assert!(w.addr(0) > arrays.col_idx.addr(g.num_edges() - 1));
        assert!(prop.addr(0) > w.addr(g.num_edges() - 1));
    }

    #[test]
    fn vertex_kernel_one_thread_per_vertex() {
        let mut kernels = Vec::new();
        vertex_kernel(
            &mut |k| kernels.push(k.into_trace().unwrap()),
            10,
            4,
            |v, ops| {
                if v % 2 == 0 {
                    ops.push(MicroOp::compute(1));
                }
            },
        );
        let [k] = &kernels[..] else {
            panic!("one kernel expected, got {}", kernels.len())
        };
        assert_eq!(k.num_threads(), 10);
        assert_eq!(k.thread(0).len(), 1);
        assert_eq!(k.thread(1).len(), 0);
        assert_eq!(k.tb_size(), 4);
    }

    #[test]
    fn an_ignored_kernel_still_emits_every_thread_once() {
        // Emitters may carry state from one thread to the next, so a
        // consumer that drops a kernel must not change what follows.
        let mut emitted = Vec::new();
        vertex_kernel(&mut |k| drop(k), 5, 4, |v, _| emitted.push(v));
        assert_eq!(emitted, [0, 1, 2, 3, 4]);
    }
}
