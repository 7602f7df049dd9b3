//! Pins every application's address map: the region names, their order
//! and their `(base, bytes)`. Certification checks the Table I
//! contracts by these names, and the GSI view attributes accesses to
//! data structures by them, so a layout change must show up here.

use ggs_apps::{AppKind, Workload};
use ggs_graph::{Csr, GraphBuilder};

/// The regions an app lays out after the CSR arrays, each of
/// `vertices` words, one line apart.
fn vertex_arrays(app: AppKind) -> &'static [&'static str] {
    match app {
        AppKind::Pr => &["rank_a", "rank_b"],
        AppKind::Sssp => &["dist", "newdist", "flag"],
        AppKind::Mis => &["status", "prio", "prio_agg"],
        AppKind::Clr => &["color", "val", "agg"],
        AppKind::Bc => &["level", "sigma", "delta"],
        AppKind::Cc => &["parent"],
        AppKind::Bfs => &["level"],
    }
}

/// Checks every app's map on `graph` against `csr` (the CSR regions)
/// followed by the app's vertex arrays at `first_base`, `stride` apart,
/// `vertex_bytes` long.
fn check(graph: &Csr, csr: &[(&str, u64, u64)], first_base: u64, stride: u64, vertex_bytes: u64) {
    for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
        let mut expected: Vec<(String, u64, u64)> = csr
            .iter()
            .map(|&(name, base, bytes)| (name.to_owned(), base, bytes))
            .collect();
        for (i, name) in vertex_arrays(app).iter().enumerate() {
            let base = first_base + i as u64 * stride;
            expected.push(((*name).to_owned(), base, vertex_bytes));
        }
        assert_eq!(Workload::new(app, graph).memory_map(), expected, "{app}");
    }
}

#[test]
fn memory_maps_on_a_weighted_graph() {
    let g = GraphBuilder::new(10)
        .edges((0..9).map(|i| (i, i + 1)))
        .symmetric(true)
        .build()
        .unwrap()
        .with_hashed_weights(8);
    assert_eq!((g.num_vertices(), g.num_edges()), (10, 18));
    let csr = [
        ("row_ptr", 0, 44),
        ("col_idx", 128, 72),
        ("weights", 320, 72),
    ];
    check(&g, &csr, 512, 128, 40);
}

#[test]
fn memory_maps_on_an_unweighted_graph() {
    let g = GraphBuilder::new(37)
        .edges((0..37).map(|i| (i, (i * 7 + 3) % 37)))
        .symmetric(true)
        .build()
        .unwrap();
    assert_eq!((g.num_vertices(), g.num_edges()), (37, 72));
    let csr = [("row_ptr", 0, 152), ("col_idx", 256, 288)];
    check(&g, &csr, 640, 256, 148);
}
