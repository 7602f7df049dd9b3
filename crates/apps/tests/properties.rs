//! Property-based tests of the applications' host references and trace
//! generators on arbitrary graphs.

use proptest::prelude::*;

use ggs_apps::{bc, cc, clr, mis, pr, sssp, AppKind, Workload};
use ggs_graph::{Csr, GraphBuilder};
use ggs_model::Propagation;
use ggs_sim::trace::{MicroOp, WarpTrace};
use ggs_sim::SystemParams;

/// Strategy: an arbitrary normalized (symmetric, loop-free) graph.
fn graphs(max_v: u32) -> impl Strategy<Value = Csr> {
    (2..=max_v).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 1..400).prop_map(move |edges| {
            GraphBuilder::new(n)
                .edges(edges)
                .symmetric(true)
                .build()
                .unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PageRank: ranks are positive and sum to 1.
    #[test]
    fn pr_ranks_form_a_distribution(g in graphs(256)) {
        let ranks = pr::reference(&g, 15);
        prop_assert!(ranks.iter().all(|&r| r > 0.0));
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    /// SSSP: distances satisfy the relaxation fixpoint — no edge can
    /// still be relaxed, and every reachable non-root vertex has a
    /// predecessor proving its distance.
    #[test]
    fn sssp_is_a_fixpoint(g in graphs(256)) {
        let g = g.with_hashed_weights(16);
        let dist = sssp::reference(&g);
        prop_assert_eq!(dist[0], 0);
        for s in 0..g.num_vertices() {
            if dist[s as usize] == sssp::INF {
                continue;
            }
            let ws = g.edge_weights(s).expect("weighted");
            for (i, &t) in g.neighbors(s).iter().enumerate() {
                prop_assert!(
                    dist[t as usize] <= dist[s as usize].saturating_add(ws[i]),
                    "edge {s}->{t} still relaxable"
                );
            }
        }
        for v in 1..g.num_vertices() {
            let dv = dist[v as usize];
            if dv == sssp::INF {
                continue;
            }
            let witnessed = g.neighbors(v).iter().enumerate().any(|(i, &u)| {
                let w = g.edge_weights(v).expect("weighted")[i];
                dist[u as usize].saturating_add(w) == dv
            });
            prop_assert!(witnessed, "vertex {v} distance {dv} has no witness");
        }
    }

    /// MIS: the result is independent and maximal.
    #[test]
    fn mis_is_independent_and_maximal(g in graphs(256)) {
        let status = mis::reference(&g);
        for v in 0..g.num_vertices() {
            match status[v as usize] {
                mis::Status::In => {
                    prop_assert!(g
                        .neighbors(v)
                        .iter()
                        .all(|&t| status[t as usize] != mis::Status::In));
                }
                mis::Status::Out => {
                    prop_assert!(g
                        .neighbors(v)
                        .iter()
                        .any(|&t| status[t as usize] == mis::Status::In));
                }
                mis::Status::Undecided => prop_assert!(false, "undecided vertex {v}"),
            }
        }
    }

    /// CLR: the coloring is proper and complete.
    #[test]
    fn clr_coloring_is_proper(g in graphs(256)) {
        let colors = clr::reference(&g);
        for (s, t) in g.edges() {
            prop_assert_ne!(colors[s as usize], clr::UNCOLORED);
            prop_assert_ne!(colors[s as usize], colors[t as usize]);
        }
    }

    /// BC: scores are non-negative and zero on vertices unreachable
    /// from the root.
    #[test]
    fn bc_scores_are_sane(g in graphs(256)) {
        let scores = bc::reference(&g);
        let dist = sssp::reference(&g); // unit weights: BFS distances
        for v in 0..g.num_vertices() {
            prop_assert!(scores[v as usize] >= 0.0);
            if dist[v as usize] == sssp::INF && v != 0 {
                prop_assert_eq!(scores[v as usize], 0.0);
            }
        }
    }

    /// CC: two vertices share a label iff they share an edge-connected
    /// component (checked against a BFS labelling).
    #[test]
    fn cc_matches_bfs_components(g in graphs(256)) {
        let labels = cc::reference(&g);
        let n = g.num_vertices();
        let mut bfs = vec![u32::MAX; n as usize];
        for root in 0..n {
            if bfs[root as usize] != u32::MAX {
                continue;
            }
            let mut stack = vec![root];
            bfs[root as usize] = root;
            while let Some(v) = stack.pop() {
                for &t in g.neighbors(v) {
                    if bfs[t as usize] == u32::MAX {
                        bfs[t as usize] = root;
                        stack.push(t);
                    }
                }
            }
        }
        for a in 0..n {
            for &b in g.neighbors(a) {
                prop_assert_eq!(labels[a as usize], labels[b as usize]);
            }
        }
        // Distinct BFS components never share a CC label.
        for a in 0..n as usize {
            for b in (a + 1)..n as usize {
                if bfs[a] != bfs[b] {
                    prop_assert_ne!(labels[a], labels[b]);
                }
            }
        }
    }

    /// Trace invariants: pull variants never emit atomics; push relax
    /// kernels emit no plain stores of remote properties during the edge
    /// loop; every generated address is line-aligned to a word.
    #[test]
    fn trace_invariants(g in graphs(128)) {
        let g = g.with_hashed_weights(8);
        for app in AppKind::ALL {
            for &prop in app.supported_propagations() {
                Workload::new(app, &g).produce(prop, 256, &mut |k, _| {
                    let k = k.into_trace().unwrap();
                    for t in 0..k.num_threads() {
                        for &op in k.thread(t) {
                            if let Some(addr) = op.address() {
                                assert_eq!(addr % 4, 0, "{app}/{prop}: unaligned");
                            }
                            if prop == Propagation::Pull {
                                assert!(
                                    !matches!(op, MicroOp::Atomic { .. }),
                                    "{app}: pull must not use atomics"
                                );
                            }
                        }
                    }
                });
            }
        }
    }

    /// Every address a kernel touches falls inside the app's declared
    /// memory map (the GSI-style attribution regions are complete).
    #[test]
    fn memory_map_covers_every_access(g in graphs(128)) {
        let g = g.with_hashed_weights(8);
        for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
            let map = Workload::new(app, &g).memory_map();
            let covered = |addr: u64| {
                map.iter().any(|(_, base, bytes)| addr >= *base && addr < base + bytes)
            };
            for &prop in app.supported_propagations() {
                Workload::new(app, &g).produce(prop, 256, &mut |k, _| {
                    let k = k.into_trace().unwrap();
                    for t in 0..k.num_threads() {
                        for &op in k.thread(t) {
                            if let Some(addr) = op.address() {
                                assert!(
                                    covered(addr),
                                    "{app}/{prop}: address {addr:#x} outside memory map"
                                );
                            }
                        }
                    }
                });
            }
        }
    }

    /// Kernel counts are deterministic per (app, variant, graph).
    #[test]
    fn generation_is_deterministic(g in graphs(128)) {
        let g = g.with_hashed_weights(8);
        for app in AppKind::ALL {
            for &prop in app.supported_propagations() {
                let collect = || {
                    let mut kernels = Vec::new();
                    Workload::new(app, &g).produce(prop, 256, &mut |k, _| {
                        let k = k.into_trace().unwrap();
                        kernels.push(k.total_ops());
                    });
                    kernels
                };
                prop_assert_eq!(collect(), collect());
            }
        }
    }

    /// Streaming packing — each warp packed as its lanes are emitted —
    /// equals packing the materialized per-thread trace word for word,
    /// for every app and direction. Block sizes that are not a multiple
    /// of the warp size, partial last blocks and lanes without ops
    /// (CC's hooking kernel always has one: vertex 0 hooks nothing) are
    /// drawn as often as the study's geometry.
    #[test]
    fn streaming_packing_matches_packing_the_materialized_trace(
        g in graphs(128),
        tb_size in prop_oneof![Just(256u32), Just(48), 1u32..300],
        warp_size in prop_oneof![Just(32u32), Just(7), 1u32..64],
        line_bytes in prop_oneof![Just(64u32), Just(4), Just(128)],
    ) {
        let g = g.with_hashed_weights(8);
        let params = SystemParams {
            warp_size,
            line_bytes,
            ..SystemParams::default()
        };
        for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
            for &prop in app.supported_propagations() {
                let workload = Workload::new(app, &g);
                let mut streamed = Vec::new();
                workload.produce(prop, tb_size, &mut |k, _| streamed.push(k.pack(&params).unwrap()));
                let mut materialized = Vec::new();
                workload.produce(prop, tb_size, &mut |k, _| {
                    let trace = k.into_trace().unwrap();
                    materialized.push(WarpTrace::pack(&trace, &params).unwrap());
                });
                prop_assert_eq!(streamed.len(), materialized.len());
                for (s, m) in streamed.iter().zip(&materialized) {
                    // Words, warp offsets, thread and op counts, atomic
                    // mix and geometry.
                    prop_assert_eq!(s, m, "{}/{}", app, prop);
                    prop_assert_eq!(s.heap_bytes(), exact_heap_bytes(s));
                    prop_assert_eq!(m.heap_bytes(), exact_heap_bytes(m));
                }
            }
        }
    }
}

/// The bytes a packed kernel's records, per-block warp offsets and
/// block table take, with no growth slack.
fn exact_heap_bytes(w: &WarpTrace) -> u64 {
    let words: usize = (0..w.num_warps())
        .flat_map(|i| w.warp(i))
        .map(|s| 2 + s.loads.len() + s.stores.len() + s.atomics.len())
        .sum();
    let blocks = w.num_blocks() as usize;
    let table = blocks * std::mem::size_of::<ggs_sim::trace::PackedBlock>();
    (4 * (words + w.num_warps() + blocks) + table) as u64
}
