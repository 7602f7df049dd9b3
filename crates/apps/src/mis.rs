//! Maximal Independent Set (MIS) — static traversal, symmetric control,
//! symmetric information (Table III).
//!
//! Luby-style: every undecided vertex compares a random priority with
//! its undecided neighbors; local maxima join the set and knock their
//! neighbors out. Control and information are symmetric (both variants
//! predicate on their own status and exchange the same priority data);
//! the variants differ in the direction of the priority exchange:
//!
//! * **push** — each undecided source scatters its priority into its
//!   neighbors' max-aggregates with fire-and-forget atomics (the
//!   paper's "dense local reads, sparse remote atomics"); a per-vertex
//!   decide kernel then compares the own priority to the aggregate and
//!   winners knock their neighbors out;
//! * **pull** — each undecided target gathers its neighbors' packed
//!   status+priority words with blocking sparse loads and updates only
//!   itself.

use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::layout::AddressSpace;
use ggs_sim::trace::{KernelSource, MicroOp};

use crate::common::{vertex_kernel, GraphArrays};

/// Maximum rounds simulated per run (the reference runs to
/// completion; random-priority MIS completes in O(log |V|) rounds).
pub const MAX_ROUNDS: u32 = 8;

/// Vertex status in the MIS computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not yet decided.
    Undecided,
    /// In the independent set.
    In,
    /// Excluded (a neighbor is in the set).
    Out,
}

fn priority(v: u32) -> u64 {
    // Deterministic pseudo-random priority; ties broken by id.
    let mut x = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) << 32) | v as u64
}

/// Host-reference MIS: returns the final status of every vertex.
///
/// The result is a valid maximal independent set: no two `In` vertices
/// are adjacent, and every `Out` vertex has an `In` neighbor.
///
/// # Example
///
/// ```
/// use ggs_apps::mis::{reference, Status};
/// use ggs_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(2).edge(0, 1).symmetric(true).build()?;
/// let s = reference(&g);
/// // Exactly one endpoint of a single edge joins the set.
/// assert_eq!(s.iter().filter(|&&x| x == Status::In).count(), 1);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
pub fn reference(graph: &Csr) -> Vec<Status> {
    rounds(graph).pop().unwrap_or_default()
}

/// Status snapshots *after* each round, starting from the first round's
/// result. The trace replay uses the snapshot *before* round `r` to
/// know which vertices still do work.
fn rounds(graph: &Csr) -> Vec<Vec<Status>> {
    let n = graph.num_vertices();
    let mut status = vec![Status::Undecided; n as usize];
    let mut snaps = Vec::new();
    loop {
        let mut winners = Vec::new();
        for v in 0..n {
            if status[v as usize] != Status::Undecided {
                continue;
            }
            let pv = priority(v);
            let wins = graph
                .neighbors(v)
                .iter()
                .all(|&t| status[t as usize] != Status::Undecided || priority(t) < pv);
            if wins {
                winners.push(v);
            }
        }
        if winners.is_empty() {
            // Isolated leftovers (no undecided vertices remain).
            break;
        }
        for &v in &winners {
            status[v as usize] = Status::In;
            for &t in graph.neighbors(v) {
                if status[t as usize] == Status::Undecided {
                    status[t as usize] = Status::Out;
                }
            }
        }
        snaps.push(status.clone());
        if !status.contains(&Status::Undecided) {
            break;
        }
    }
    if snaps.is_empty() {
        snaps.push(status);
    }
    snaps
}

/// Generates the kernel sequence of an MIS run (one kernel per round),
/// handing each kernel to `run` as a [`KernelSource`]. The stream
/// depends only on `(graph, prop, tb_size)`, so it is safe to
/// materialize once and replay across configuration cells.
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
        "MIS supports no dynamic direction policy: use Push or Pull"
    );
    let n = graph.num_vertices();
    let (mut space, arrays) = GraphArrays::workspace(graph);
    let status = space.array("status", n as u64);
    let prio = space.array("prio", n as u64);
    let agg = space.array("prio_agg", n as u64);

    let snaps = rounds(graph);
    let mut before = vec![Status::Undecided; n as usize];

    for after in snaps.iter().take(MAX_ROUNDS as usize) {
        match prop {
            Propagation::Push => {
                // Scatter: each undecided source pushes its priority
                // into its neighbors' max-aggregates with one
                // fire-and-forget atomic per edge (idempotent for
                // decided targets, so no blocking predicate load sits in
                // the inner loop).
                vertex_kernel(run, n, tb_size, |s, ops| {
                    ops.push(MicroOp::load(status.addr(s as u64)));
                    if before[s as usize] != Status::Undecided {
                        return;
                    }
                    ops.push(MicroOp::load(prio.addr(s as u64)));
                    for e in graph.edge_range(s) {
                        arrays.load_edge_target(e as u64, ops);
                        let t = graph.col_idx()[e as usize];
                        ops.push(MicroOp::atomic(agg.addr(t as u64)));
                    }
                });
                // Decide: compare own priority to the aggregate; the
                // (few) winners join the set and knock their neighbors
                // out with fire-and-forget atomics.
                vertex_kernel(run, n, tb_size, |v, ops| {
                    ops.push(MicroOp::load(status.addr(v as u64)));
                    if before[v as usize] != Status::Undecided {
                        return;
                    }
                    ops.push(MicroOp::load(agg.addr(v as u64)));
                    ops.push(MicroOp::load(prio.addr(v as u64)));
                    ops.push(MicroOp::compute(1));
                    ops.push(MicroOp::store(agg.addr(v as u64))); // reset
                    if after[v as usize] == Status::In {
                        ops.push(MicroOp::store(status.addr(v as u64)));
                        for e in graph.edge_range(v) {
                            arrays.load_edge_target(e as u64, ops);
                            let t = graph.col_idx()[e as usize];
                            ops.push(MicroOp::atomic(status.addr(t as u64)));
                        }
                    }
                });
            }
            Propagation::Pull => {
                // Gather: each undecided target reads its neighbors'
                // packed status+priority words (one blocking sparse load
                // per edge, followed by the data-dependent comparison)
                // and updates only itself — winners join, vertices that
                // saw a winner drop out.
                vertex_kernel(run, n, tb_size, |v, ops| {
                    ops.push(MicroOp::load(status.addr(v as u64)));
                    if before[v as usize] != Status::Undecided {
                        return;
                    }
                    ops.push(MicroOp::load(prio.addr(v as u64)));
                    for e in graph.edge_range(v) {
                        arrays.load_edge_target(e as u64, ops);
                        let t = graph.col_idx()[e as usize] as u64;
                        ops.push(MicroOp::load(prio.addr(t)));
                        ops.push(MicroOp::compute(1));
                    }
                    if after[v as usize] != Status::Undecided {
                        ops.push(MicroOp::store(status.addr(v as u64)));
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
    let _ = space.array("status", n);
    let _ = space.array("prio", n);
    let _ = space.array("prio_agg", n);
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

    fn assert_valid_mis(graph: &Csr, status: &[Status]) {
        for v in 0..graph.num_vertices() {
            match status[v as usize] {
                Status::In => {
                    for &t in graph.neighbors(v) {
                        assert_ne!(status[t as usize], Status::In, "adjacent In at {v},{t}");
                    }
                }
                Status::Out => {
                    assert!(
                        graph
                            .neighbors(v)
                            .iter()
                            .any(|&t| status[t as usize] == Status::In),
                        "Out vertex {v} has no In neighbor"
                    );
                }
                Status::Undecided => panic!("vertex {v} left undecided"),
            }
        }
    }

    #[test]
    fn reference_is_valid_on_ring() {
        let g = ring(101);
        assert_valid_mis(&g, &reference(&g));
    }

    #[test]
    fn reference_is_valid_on_star() {
        let g = GraphBuilder::new(20)
            .edges((1..20).map(|i| (0, i)))
            .symmetric(true)
            .build()
            .unwrap();
        assert_valid_mis(&g, &reference(&g));
    }

    #[test]
    fn isolated_vertices_join_the_set() {
        let g = Csr::from_edges(5, &[]);
        let s = reference(&g);
        assert!(s.iter().all(|&x| x == Status::In));
    }

    #[test]
    fn push_uses_atomics_pull_does_not() {
        let g = ring(64);
        let count = |prop| {
            let mut atomics = 0u64;
            generate(&g, prop, 256, &mut |k| {
                let k = k.into_trace().unwrap();
                for t in 0..k.num_threads() {
                    atomics += k
                        .thread(t)
                        .iter()
                        .filter(|o| matches!(o.get(), MicroOp::Atomic { .. }))
                        .count() as u64;
                }
            });
            atomics
        };
        assert!(count(Propagation::Push) > 0);
        assert_eq!(count(Propagation::Pull), 0);
    }

    #[test]
    fn decided_vertices_do_one_load_in_later_rounds() {
        let g = ring(64);
        let mut last = None;
        generate(&g, Propagation::Pull, 256, &mut |k| {
            last = Some(k.into_trace().unwrap())
        });
        let k = last.expect("at least one round");
        // In the final round nearly every vertex is already decided.
        let short = (0..k.num_threads())
            .filter(|&t| k.thread(t).len() == 1)
            .count();
        assert!(short > 32, "short traces: {short}");
    }

    #[test]
    fn push_is_two_kernels_per_round_pull_is_one() {
        let g = ring(64);
        let count = |prop| {
            let mut kernels = 0;
            generate(&g, prop, 256, &mut |_| kernels += 1);
            kernels
        };
        assert_eq!(count(Propagation::Push), 2 * count(Propagation::Pull));
    }
}
