//! Pins every application's packed kernel stream, and the direction each
//! kernel ran, on two small fixed graphs: an FNV-1a digest of every slot
//! of every packed kernel plus the per-kernel direction letters. Any
//! change to what a producer emits, or to the direction it reports, must
//! show up here.

use ggs_apps::{AppKind, Workload};
use ggs_graph::{Csr, GraphBuilder};
use ggs_model::Propagation;
use ggs_sim::trace::WarpTrace;
use ggs_sim::SystemParams;

/// A 48-vertex irregular graph with hashed weights.
fn weighted() -> Csr {
    GraphBuilder::new(48)
        .edges((0..48u32).map(|i| (i, (i * 5 + 1) % 48)))
        .edges((0..48u32).map(|i| (i, (i * 11 + 7) % 48)))
        .symmetric(true)
        .build()
        .unwrap()
        .with_hashed_weights(16)
}

/// Root -> 4 hubs -> a dense middle tier -> a sparse tail: the frontier
/// starts sparse and then explodes, so hybrid BFS and hybrid SSSP each
/// realize both push and pull kernels.
fn fanout() -> Csr {
    let (n, hubs) = (256u32, 4u32);
    let mid_end = n - 32;
    GraphBuilder::new(n)
        .edges((1..=hubs).map(|h| (0, h)))
        .edges((hubs + 1..mid_end).map(|v| (1 + (v % hubs), v)))
        .edges((mid_end..n).map(|v| (hubs + 1 + (v % (mid_end - hubs - 1)), v)))
        .symmetric(true)
        .build()
        .unwrap()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn kernel(&mut self, kernel: &WarpTrace) {
        self.word(kernel.num_threads());
        for w in 0..kernel.num_warps() {
            self.word(w as u64);
            for slot in kernel.warp(w) {
                self.word(u64::from(slot.compute) | u64::from(slot.any_returns) << 16);
                for (tag, addrs) in [
                    (1, slot.load_addrs().collect::<Vec<_>>()),
                    (2, slot.store_addrs().collect()),
                    (3, slot.atomic_addrs().collect()),
                ] {
                    self.word(tag);
                    addrs.into_iter().for_each(|a| self.word(a));
                }
            }
        }
    }
}

/// `(digest of every packed kernel, direction letter of each kernel)`
/// of `app` under `prop` on `graph` (weighted first if the app needs
/// it, as every consumer does).
fn pin(app: AppKind, graph: &Csr, prop: Propagation) -> (u64, String) {
    let graph = app.weighted(graph);
    let workload = Workload::new(app, &graph);
    let params = SystemParams::default();
    let mut kernels = Vec::new();
    let mut directions = Vec::new();
    workload.produce(prop, 256, &mut |k, dir| {
        kernels.push(k.pack(&params).unwrap());
        directions.push(dir);
    });
    let mut h = Fnv::new();
    let mut letters = String::new();
    for (kernel, dir) in kernels.iter().zip(&directions) {
        h.word(dir.letter() as u64);
        h.kernel(kernel);
        letters.push(dir.letter());
    }
    (h.0, letters)
}

fn check(graph: &Csr, expected: &[(&str, char, u64, &str)]) {
    let mut actual = Vec::new();
    for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
        for &prop in app.supported_propagations() {
            let (digest, letters) = pin(app, graph, prop);
            actual.push((app.mnemonic().to_owned(), prop.letter(), digest, letters));
        }
    }
    let expected: Vec<_> = expected
        .iter()
        .map(|&(app, prop, digest, letters)| (app.to_owned(), prop, digest, letters.to_owned()))
        .collect();
    let table: String = actual
        .iter()
        .map(|(app, prop, digest, letters)| {
            format!("\n({app:?}, {prop:?}, {digest:#018x}, {letters:?}),")
        })
        .collect();
    assert_eq!(actual, expected, "actual table:{table}");
}

#[test]
fn streams_on_a_weighted_graph() {
    check(
        &weighted(),
        &[
            ("PR", 'T', 0x1f7b4ef795f8a22c, "TTT"),
            ("PR", 'S', 0xe3a66665e8d9f00f, "SSS"),
            ("SSSP", 'T', 0xb0d6c9c648ee2477, "TTTTTTTT"),
            ("SSSP", 'S', 0x9b63a12ec0c3628b, "SSSSSSSS"),
            ("SSSP", 'H', 0x1654f3b4d3a21812, "SSTTTTTT"),
            ("MIS", 'T', 0xfcb323f321fe155d, "TT"),
            ("MIS", 'S', 0x0055f0592a956b4c, "SSSS"),
            ("CLR", 'T', 0x3930ffe3ec549ad5, "TTT"),
            ("CLR", 'S', 0x30080990c5882210, "SSSSSS"),
            ("BC", 'T', 0x45584f346b5a8972, "TTTTTTTTT"),
            ("BC", 'S', 0xbf942aeb15fedf2a, "SSSSSS"),
            ("CC", 'D', 0xee8e31fc636edd3e, "DDDD"),
            ("BFS", 'T', 0xa0c763d2edbea8ff, "TTTTTT"),
            ("BFS", 'S', 0xd86ae497b9b5ff20, "SSS"),
            ("BFS", 'H', 0xef905fa7f89b0f26, "STTTT"),
        ],
    );
}

#[test]
fn streams_on_a_fanout_graph() {
    let g = fanout();
    // The graph does what it is here for: both hybrid apps mix
    // directions.
    for app in [AppKind::Bfs, AppKind::Sssp] {
        let (_, letters) = pin(app, &g, Propagation::Hybrid);
        assert!(
            letters.contains('S') && letters.contains('T'),
            "{app}: {letters}"
        );
    }
    check(
        &g,
        &[
            ("PR", 'T', 0x42b7b6ffc59da56b, "TTT"),
            ("PR", 'S', 0x22106b7cee0a3c72, "SSS"),
            ("SSSP", 'T', 0x554fb397c35691c8, "TTTTTTTT"),
            ("SSSP", 'S', 0x465d06499485df2d, "SSSSSSSS"),
            ("SSSP", 'H', 0x5ffd140b5629c8ae, "SSSSTTTT"),
            ("MIS", 'T', 0xc57ed6fc512b9947, "TT"),
            ("MIS", 'S', 0x5d645c8491b64c78, "SSSS"),
            ("CLR", 'T', 0x209169bb99171097, "TTT"),
            ("CLR", 'S', 0x49428b954314a3e2, "SSSSSS"),
            ("BC", 'T', 0xc9f4a316b6d62d5b, "TTTTTTTTT"),
            ("BC", 'S', 0x7129882c92ba7de6, "SSSSSS"),
            ("CC", 'D', 0x4d037bd8e316f365, "DDDD"),
            ("BFS", 'T', 0xcad7d51294bc222b, "TTTTTT"),
            ("BFS", 'S', 0x47c5a54370e7ac33, "SSS"),
            ("BFS", 'H', 0x4c20c352621238ac, "SSTT"),
        ],
    );
}
