//! Property-based tests of the graph substrate's invariants.

use proptest::prelude::*;

use ggs_graph::mtx::{read_mtx, write_mtx};
use ggs_graph::synth::{DegreeModel, SynthConfig};
use ggs_graph::{Csr, GraphBuilder};

/// Strategy: an arbitrary edge list over up to `max_v` vertices.
fn edge_lists(max_v: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_v).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..200);
        (Just(n), edges)
    })
}

proptest! {
    /// The builder always produces a directed symmetric graph without
    /// self-loops or duplicates, regardless of input.
    #[test]
    fn builder_normalizes_any_edge_list((n, edges) in edge_lists(64)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).build().unwrap();
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
        // No duplicates: every adjacency list is strictly increasing.
        for v in 0..n {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Degree identities: the sum of out-degrees equals the edge count,
    /// and the degree statistics bound each other.
    #[test]
    fn degree_identities((n, edges) in edge_lists(64)) {
        let g = GraphBuilder::new(n).edges(edges).build().unwrap();
        let total: u64 = (0..n).map(|v| g.out_degree(v) as u64).sum();
        prop_assert_eq!(total, g.num_edges());
        let s = g.degree_stats();
        prop_assert!(s.min as f64 <= s.avg + 1e-9);
        prop_assert!(s.avg <= s.max as f64 + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Transposing twice is the identity, and the transpose preserves
    /// the edge count.
    #[test]
    fn transpose_involution((n, edges) in edge_lists(48)) {
        let g = Csr::from_edges(n, &edges);
        let tt = g.transpose().transpose();
        prop_assert_eq!(&tt, &g);
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    /// Matrix Market write → read roundtrips any normalized graph.
    #[test]
    fn mtx_roundtrip((n, edges) in edge_lists(48)) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).build().unwrap();
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).expect("write succeeds");
        let back = read_mtx(&buf[..]).expect("parse succeeds");
        prop_assert_eq!(back, g);
    }

    /// Hashed edge weights are symmetric and within range for any graph.
    #[test]
    fn hashed_weights_invariants((n, edges) in edge_lists(48), max_w in 1u32..100) {
        let g = GraphBuilder::new(n).edges(edges).symmetric(true).build().unwrap()
            .with_hashed_weights(max_w);
        for (s, t) in g.edges() {
            let i = g.neighbors(s).binary_search(&t).expect("edge exists");
            let w_st = g.edge_weights(s).expect("weighted")[i];
            prop_assert!((1..=max_w).contains(&w_st));
            let j = g.neighbors(t).binary_search(&s).expect("symmetric");
            let w_ts = g.edge_weights(t).expect("weighted")[j];
            prop_assert_eq!(w_st, w_ts);
        }
    }

    /// The synthetic generator hits its exact edge target and the
    /// normalization invariants for arbitrary small configurations.
    #[test]
    fn synth_invariants(
        n in 64u32..2048,
        avg in 1.0f64..8.0,
        p_local in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = SynthConfig::custom(
            "prop",
            n,
            avg,
            DegreeModel::log_normal(0.8),
            p_local,
        )
        .seed(seed);
        let g = cfg.generate();
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), cfg.target_edges());
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
    }

    /// Higher locality never decreases the fraction of thread-block-local
    /// edges (monotonicity of the locality knob, coarse check).
    #[test]
    fn synth_locality_monotone(seed in 0u64..200) {
        let frac = |p_local: f64| {
            let g = SynthConfig::custom(
                "prop", 2048, 6.0, DegreeModel::constant(6, 0.0), p_local)
                .seed(seed)
                .generate();
            let local = g.edges().filter(|&(s, t)| s / 256 == t / 256).count();
            local as f64 / g.num_edges() as f64
        };
        let lo = frac(0.05);
        let hi = frac(0.9);
        prop_assert!(hi > lo, "local fraction should grow: {lo} vs {hi}");
    }
}

/// One byte-level edit of a Matrix Market stream. Positions are taken
/// modulo the stream's length, so every edit lands.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Overwrite(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    FlipBit(usize, u8),
}

/// Strategy: one edit, writing the bytes the format gives meaning to
/// as often as an arbitrary byte.
fn mutations() -> impl Strategy<Value = Mutation> {
    let byte = || {
        prop_oneof![
            prop_oneof![
                Just(b'0'),
                Just(b'1'),
                Just(b'9'),
                Just(b' '),
                Just(b'\n'),
                Just(b'%'),
                Just(b'-'),
                Just(0xff),
            ],
            0u8..=255,
        ]
    };
    prop_oneof![
        (0usize..4096, byte()).prop_map(|(at, b)| Mutation::Overwrite(at, b)),
        (0usize..4096, byte()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        (0usize..4096).prop_map(Mutation::Delete),
        (0usize..4096, 0u8..8).prop_map(|(at, bit)| Mutation::FlipBit(at, bit)),
    ]
}

/// Strategy: a valid Matrix Market stream — one written from an
/// arbitrary graph, or a hand-written one using the forms the writer
/// never emits (comments, blank lines, values, a symmetric banner).
fn mtx_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        edge_lists(24).prop_map(|(n, edges)| {
            let g = GraphBuilder::new(n)
                .edges(edges)
                .symmetric(true)
                .build()
                .unwrap();
            let mut buf = Vec::new();
            write_mtx(&g, &mut buf).expect("write succeeds");
            buf
        }),
        Just(
            b"%%MatrixMarket matrix coordinate real symmetric\n% a comment\n\n\
              5 5 4\n2 1 0.5\n3 2 -1e3\n\n5 4 7\n4 4 1\n"
                .to_vec()
        ),
        Just(b"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n".to_vec()),
    ]
}

/// Applies `edits` to `bytes` in order.
fn mutate(mut bytes: Vec<u8>, edits: &[Mutation]) -> Vec<u8> {
    for &edit in edits {
        let at = |i: usize, len: usize| i % len.max(1);
        match edit {
            Mutation::Overwrite(i, b) if !bytes.is_empty() => {
                let i = at(i, bytes.len());
                bytes[i] = b;
            }
            Mutation::Insert(i, b) => {
                let i = at(i, bytes.len() + 1);
                bytes.insert(i, b);
            }
            Mutation::Delete(i) if !bytes.is_empty() => {
                let i = at(i, bytes.len());
                bytes.remove(i);
            }
            Mutation::FlipBit(i, bit) if !bytes.is_empty() => {
                let i = at(i, bytes.len());
                bytes[i] ^= 1 << bit;
            }
            _ => {}
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Fuzz: byte-level mutations of valid Matrix Market input never
    /// make the parser panic. It returns a typed error or a graph, and
    /// any graph it returns is normalized.
    #[test]
    fn mtx_parser_survives_byte_mutations(
        input in mtx_inputs(),
        edits in prop::collection::vec(mutations(), 1..8),
    ) {
        let bytes = mutate(input, &edits);
        if let Ok(g) = read_mtx(&bytes[..]) {
            prop_assert!(g.is_symmetric());
            prop_assert!(!g.has_self_loops());
        }
    }
}
