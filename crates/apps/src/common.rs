//! Shared trace-generation machinery for the vertex-centric kernels.

use ggs_graph::Csr;
use ggs_sim::layout::{AddressSpace, ArrayHandle};
use ggs_sim::trace::{KernelTrace, MicroOp};

/// Address handles for the CSR arrays every kernel walks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphArrays {
    pub row_ptr: ArrayHandle,
    pub col_idx: ArrayHandle,
    pub weights: Option<ArrayHandle>,
}

impl GraphArrays {
    /// Allocates the CSR arrays in `space` for `graph`.
    pub fn new(space: &mut AddressSpace, graph: &Csr) -> Self {
        Self {
            row_ptr: space.array("row_ptr", graph.num_vertices() as u64 + 1),
            col_idx: space.array("col_idx", graph.num_edges()),
            weights: graph
                .is_weighted()
                .then(|| space.array("weights", graph.num_edges())),
        }
    }

    /// The standard producer workspace: a fresh [`AddressSpace`] with
    /// the CSR arrays laid out first, exactly as every `memory_map`
    /// assumes. Each functional producer builds one per `generate`
    /// call; the layout is a pure function of the graph, which is what
    /// makes the emitted trace streams cacheable across configurations
    /// (see `ggs-core`'s `TraceCache`).
    pub fn workspace(graph: &Csr) -> (AddressSpace, GraphArrays) {
        let mut space = AddressSpace::new(64);
        let arrays = GraphArrays::new(&mut space, graph);
        (space, arrays)
    }

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

/// Builds a vertex-centric kernel: one thread per vertex, traces
/// produced by `emit(vertex, ops)`.
///
/// Each thread's ops are appended to one flat arena (the emit closures
/// only push), so building a kernel costs two allocations total instead
/// of one per vertex.
pub(crate) fn vertex_kernel<F>(num_vertices: u32, tb_size: u32, mut emit: F) -> KernelTrace
where
    F: FnMut(u32, &mut Vec<MicroOp>),
{
    let mut ops = Vec::new();
    let mut offsets = Vec::with_capacity(num_vertices as usize + 1);
    offsets.push(0);
    for v in 0..num_vertices {
        emit(v, &mut ops);
        offsets.push(u32::try_from(ops.len()).expect("trace exceeds u32 op capacity"));
    }
    KernelTrace::from_flat(ops, offsets, tb_size)
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
        let mut space = AddressSpace::new(64);
        let arrays = GraphArrays::new(&mut space, &g);
        let rp_end = arrays.row_ptr.addr(10);
        assert!(arrays.col_idx.addr(0) > rp_end);
        assert!(arrays.weights.is_some());
    }

    #[test]
    fn vertex_kernel_one_thread_per_vertex() {
        let k = vertex_kernel(10, 4, |v, ops| {
            if v % 2 == 0 {
                ops.push(MicroOp::compute(1));
            }
        });
        assert_eq!(k.num_threads(), 10);
        assert_eq!(k.thread(0).len(), 1);
        assert_eq!(k.thread(1).len(), 0);
        assert_eq!(k.tb_size(), 4);
    }
}
