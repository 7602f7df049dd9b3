//! Connected Components (CC) — *dynamic* traversal (Table III), adapted
//! from the ECL-CC algorithm of Jaiganesh & Burtscher (HPDC'18).
//!
//! Union-find over a shared `parent` array: a hooking pass walks every
//! edge, chasing both endpoints' parent chains to their roots (racy,
//! data-dependent reads — the *transitive closure* traversal the paper
//! calls dynamic) and hooking the larger root under the smaller with a
//! compare-and-swap; shortcut passes then flatten the chains.
//!
//! All parent-chain accesses are synchronization accesses whose
//! *returned values drive control flow*, so they are emitted as
//! value-returning atomics — which is why relaxed consistency cannot
//! help CC (§IV-A4) and why DeNovo's L1 ownership of the converging
//! parent entries pays off (the paper's `DD1` recommendation).

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::layout::AddressSpace;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{vertex_kernel, GraphArrays};

/// Number of shortcut (pointer-jumping) kernels simulated after the
/// hooking kernel.
pub const SHORTCUT_ROUNDS: u32 = 2;

/// Host-reference connected components: returns the component root id
/// of every vertex.
///
/// # Example
///
/// ```
/// use ggs_apps::cc;
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4).edge(0, 1).edge(2, 3).symmetric(true).build()?;
/// let labels = cc::reference(&g);
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// assert_eq!(labels[2], labels[3]);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n).collect();
    for v in 0..n {
        for &t in graph.neighbors(v) {
            union(&mut parent, v, t);
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

fn find(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        let g = parent[parent[v as usize] as usize];
        parent[v as usize] = g;
        v = g;
    }
    v
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi as usize] = lo;
    }
}

/// Generates the kernel sequence of a CC run (init, hooking, and
/// [`SHORTCUT_ROUNDS`] shortcut kernels), handing each kernel to `run`
/// as a [`KernelSource`]. The stream depends only on `(graph, prop,
/// tb_size)`, so it is safe to materialize once and replay across
/// configuration cells.
///
/// CC is inherently push+pull; `prop` must be
/// [`Propagation::PushPull`].
///
/// # Panics
///
/// Panics if `prop` is not [`Propagation::PushPull`].
pub fn generate(
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
    run: &mut dyn FnMut(KernelSource<'_>),
) {
    assert_eq!(
        prop,
        Propagation::PushPull,
        "connected components has dynamic traversal: use PushPull"
    );
    let n = graph.num_vertices();
    let (mut space, arrays) = GraphArrays::workspace(graph);
    let parent = space.array("parent", n as u64);

    // Replayed union-find state mirrors what the trace touches.
    let mut pstate: Vec<u32> = (0..n).collect();

    // Init kernel: parent[v] = v (first smaller neighbor in ECL-CC; a
    // plain store either way).
    vertex_kernel(run, n, tb_size, |v, ops| {
        ops.push(MicroOp::store(parent.addr(v as u64)));
    });

    // Hooking kernel: every vertex processes its out-edges to smaller
    // ids; each endpoint's chain is chased with value-returning atomics
    // (addresses are data-dependent), then hooked with a CAS.
    let emit_find = |pstate: &Vec<u32>, mut v: u32, ops: &mut Vec<MicroOp>| -> u32 {
        loop {
            ops.push(MicroOp::atomic_returning(parent.addr(v as u64)));
            let p = pstate[v as usize];
            if p == v {
                return v;
            }
            v = p;
        }
    };
    vertex_kernel(run, n, tb_size, |v, ops| {
        for e in graph.edge_range(v) {
            let t = graph.col_idx()[e as usize];
            if t >= v {
                continue; // each undirected edge hooked once
            }
            arrays.load_edge_target(e as u64, ops);
            let rv = emit_find(&pstate, v, ops);
            let rt = emit_find(&pstate, t, ops);
            if rv != rt {
                let (lo, hi) = if rv < rt { (rv, rt) } else { (rt, rv) };
                ops.push(MicroOp::atomic_returning(parent.addr(hi as u64)));
                pstate[hi as usize] = lo;
            }
        }
    });

    // Shortcut kernels: flatten chains with pointer jumping.
    for _ in 0..SHORTCUT_ROUNDS {
        let mut next = pstate.clone();
        vertex_kernel(run, n, tb_size, |v, ops| {
            let mut cur = v;
            loop {
                ops.push(MicroOp::atomic_returning(parent.addr(cur as u64)));
                let p = pstate[cur as usize];
                if p == cur {
                    break;
                }
                cur = p;
            }
            ops.push(MicroOp::store(parent.addr(v as u64)));
            next[v as usize] = cur;
        });
        pstate = next;
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
    let _ = space.array("parent", graph.num_vertices() as u64);
    space
        .regions()
        .map(|(name, base, bytes)| (name.to_owned(), base, bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    #[test]
    fn reference_two_components() {
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .symmetric(true)
            .build()
            .unwrap();
        let l = reference(&g);
        assert_eq!(l[0], l[2]);
        assert_eq!(l[3], l[5]);
        assert_ne!(l[0], l[3]);
    }

    #[test]
    fn reference_isolated_vertices_are_their_own_component() {
        let g = Csr::from_edges(3, &[]);
        assert_eq!(reference(&g), vec![0, 1, 2]);
    }

    #[test]
    fn reference_labels_are_component_minima() {
        let g = GraphBuilder::new(5)
            .edges([(4, 2), (2, 0)])
            .symmetric(true)
            .build()
            .unwrap();
        let l = reference(&g);
        assert_eq!(l[4], 0);
        assert_eq!(l[2], 0);
    }

    #[test]
    fn trace_uses_only_returning_atomics_for_parent_chains() {
        let g = GraphBuilder::new(16)
            .edges((0..15).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        let mut kernels = 0;
        let mut returning = 0u64;
        let mut plain = 0u64;
        generate(&g, Propagation::PushPull, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            kernels += 1;
            for t in 0..k.num_threads() {
                for op in k.thread(t).iter().map(|o| o.get()) {
                    match op {
                        MicroOp::Atomic {
                            returns_value: true,
                            ..
                        } => returning += 1,
                        MicroOp::Atomic {
                            returns_value: false,
                            ..
                        } => plain += 1,
                        _ => {}
                    }
                }
            }
        });
        assert_eq!(kernels, (2 + SHORTCUT_ROUNDS) as usize);
        assert!(returning > 0);
        assert_eq!(plain, 0, "every CC atomic returns a value");
    }

    #[test]
    #[should_panic(expected = "dynamic traversal")]
    fn rejects_static_variants() {
        let g = GraphBuilder::new(4)
            .edge(0, 1)
            .symmetric(true)
            .build()
            .unwrap();
        generate(&g, Propagation::Push, 256, &mut |_| {});
    }

    #[test]
    fn shortcut_flattens_chains() {
        // A long path produces deep chains that shortcutting shortens:
        // the final kernel's traces must be shorter than the first
        // shortcut's.
        let g = GraphBuilder::new(200)
            .edges((0..199).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        let mut lens = Vec::new();
        generate(&g, Propagation::PushPull, 256, &mut |k| {
            let k = k.into_trace().unwrap();
            lens.push(k.total_ops());
        });
        let shortcut1 = lens[2];
        let shortcut2 = lens[3];
        assert!(shortcut2 <= shortcut1, "{lens:?}");
    }
}
