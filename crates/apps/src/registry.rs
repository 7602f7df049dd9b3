//! Application registry: the Table III rows and a uniform dispatch
//! surface for workload construction.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use ggs_graph::Csr;
use ggs_model::taxonomy::{AlgoBias, AlgoProfile, Propagation};
use ggs_sim::trace::KernelSource;

use crate::common::layout;

/// Largest edge weight of the hashed weights SSSP runs on when its
/// graph carries none (see [`AppKind::weighted`]).
pub const SSSP_MAX_WEIGHT: u32 = 64;

/// One of the paper's six applications (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    /// PageRank.
    Pr,
    /// Single-Source Shortest Path.
    Sssp,
    /// Maximal Independent Set.
    Mis,
    /// Graph Coloring.
    Clr,
    /// Betweenness Centrality.
    Bc,
    /// Connected Components (ECL-CC).
    Cc,
    /// Breadth-First Search — extension application beyond the paper's
    /// six-workload matrix (not in [`AppKind::ALL`]; see
    /// [`AppKind::EXTENDED`]).
    Bfs,
}

impl AppKind {
    /// All six applications in Table III order (the paper's workload
    /// matrix).
    pub const ALL: [AppKind; 6] = [
        AppKind::Pr,
        AppKind::Sssp,
        AppKind::Mis,
        AppKind::Clr,
        AppKind::Bc,
        AppKind::Cc,
    ];

    /// Extension applications beyond the paper's matrix (§VIII outlook).
    pub const EXTENDED: [AppKind; 1] = [AppKind::Bfs];

    /// Table III mnemonic (`PR`, `SSSP`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AppKind::Pr => "PR",
            AppKind::Sssp => "SSSP",
            AppKind::Mis => "MIS",
            AppKind::Clr => "CLR",
            AppKind::Bc => "BC",
            AppKind::Cc => "CC",
            AppKind::Bfs => "BFS",
        }
    }

    /// The application's algorithmic-property row from Table III.
    pub fn algo_profile(self) -> AlgoProfile {
        match self {
            AppKind::Pr => AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Source),
            AppKind::Sssp => AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Source),
            AppKind::Mis => AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Symmetric),
            AppKind::Clr => AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Target),
            AppKind::Bc => AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Symmetric),
            AppKind::Cc => AlgoProfile::new_dynamic(),
            AppKind::Bfs => AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Symmetric),
        }
    }

    /// Propagation variants this application implements.
    ///
    /// Every static-traversal app implements pull and push; the
    /// frontier-driven ones whose producers expose an active set (BFS,
    /// SSSP) additionally implement the frontier-adaptive
    /// [`Propagation::Hybrid`] policy. PR does *not* — its producer has
    /// no active set (every vertex is live every iteration), so a
    /// density switch would degenerate to always-pull. Dynamic
    /// traversals (CC) remain push+pull only.
    pub fn supported_propagations(self) -> &'static [Propagation] {
        match self {
            AppKind::Sssp | AppKind::Bfs => {
                &[Propagation::Pull, Propagation::Push, Propagation::Hybrid]
            }
            AppKind::Cc => &[Propagation::PushPull],
            AppKind::Pr | AppKind::Mis | AppKind::Clr | AppKind::Bc => {
                &[Propagation::Pull, Propagation::Push]
            }
        }
    }

    /// `true` if the application needs edge weights (SSSP).
    pub fn needs_weights(self) -> bool {
        matches!(self, AppKind::Sssp)
    }

    /// `graph` with SSSP's deterministic weights
    /// ([`Csr::with_hashed_weights`] up to [`SSSP_MAX_WEIGHT`]) attached
    /// if this application needs weights and the graph has none.
    pub fn weighted(self, graph: &Csr) -> Cow<'_, Csr> {
        if self.needs_weights() && !graph.is_weighted() {
            Cow::Owned(graph.clone().with_hashed_weights(SSSP_MAX_WEIGHT))
        } else {
            Cow::Borrowed(graph)
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing an unknown application mnemonic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAppError(String);

impl fmt::Display for ParseAppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown application {:?} (expected one of PR, SSSP, MIS, CLR, BC, CC)",
            self.0
        )
    }
}

impl std::error::Error for ParseAppError {}

impl FromStr for AppKind {
    type Err = ParseAppError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "PR" => Ok(AppKind::Pr),
            "SSSP" => Ok(AppKind::Sssp),
            "MIS" => Ok(AppKind::Mis),
            "CLR" => Ok(AppKind::Clr),
            "BC" => Ok(AppKind::Bc),
            "CC" => Ok(AppKind::Cc),
            "BFS" => Ok(AppKind::Bfs),
            _ => Err(ParseAppError(s.to_owned())),
        }
    }
}

/// An application bound to an input graph — one of the paper's 36
/// workloads.
///
/// # Example
///
/// ```
/// use ggs_apps::{AppKind, Workload};
/// use ggs_graph::GraphBuilder;
/// use ggs_model::Propagation;
///
/// let g = GraphBuilder::new(8)
///     .edges((0..7).map(|i| (i, i + 1)))
///     .symmetric(true)
///     .build()?;
/// let w = Workload::new(AppKind::Cc, &g);
/// let mut kernels = 0;
/// w.produce(Propagation::PushPull, 256, &mut |_, _| kernels += 1);
/// assert!(kernels > 0);
/// # Ok::<(), ggs_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Workload<'g> {
    app: AppKind,
    graph: &'g Csr,
}

impl<'g> Workload<'g> {
    /// Binds an application to a graph.
    pub fn new(app: AppKind, graph: &'g Csr) -> Self {
        Self { app, graph }
    }

    /// The application.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The input graph.
    pub fn graph(&self) -> &'g Csr {
        self.graph
    }

    /// The workload's address map: `(array name, base, bytes)` for every
    /// region its kernels touch, in the layout `produce` uses (the CSR
    /// arrays, then the app's per-vertex arrays). Feed these to
    /// [`ggs_sim::SimulationBuilder::region`] for per-data-structure
    /// attribution.
    pub fn memory_map(&self) -> Vec<(String, u64, u64)> {
        let g = self.graph;
        let space = match self.app {
            AppKind::Pr => layout(g, crate::pr::ARRAYS).0,
            AppKind::Sssp => layout(g, crate::sssp::ARRAYS).0,
            AppKind::Mis => layout(g, crate::mis::ARRAYS).0,
            AppKind::Clr => layout(g, crate::clr::ARRAYS).0,
            AppKind::Bc => layout(g, crate::bc::ARRAYS).0,
            AppKind::Cc => layout(g, crate::cc::ARRAYS).0,
            AppKind::Bfs => layout(g, crate::bfs::ARRAYS).0,
        };
        space
            .regions()
            .map(|(name, base, bytes)| (name.to_owned(), base, bytes))
            .collect()
    }

    /// Generates the workload's kernel sequence under propagation
    /// `prop`, handing each kernel to `run` as a [`KernelSource`] (its
    /// thread count, block size and per-vertex emitter) together with
    /// the direction it ran: `prop` itself for the static propagations,
    /// push or pull per kernel under [`Propagation::Hybrid`]. The
    /// consumer packs the kernel into warp slots as the lanes are
    /// emitted, in windows of consecutive thread blocks
    /// ([`KernelSource::windows`], how the simulations take it) or whole
    /// ([`KernelSource::pack`]), or materializes its per-thread trace
    /// ([`KernelSource::into_trace`]); one kernel is produced at a time,
    /// and its threads are emitted once each, in order, whatever the
    /// consumer takes.
    ///
    /// The emitted stream is the functional half of the workload: it is
    /// a pure function of `(app, graph, prop, tb_size)` and never
    /// depends on coherence, consistency, or any timing parameter —
    /// the invariant `ggs-core`'s study runner (and its `TraceCache`)
    /// relies on to share one stream across every configuration cell
    /// of a direction.
    ///
    /// # Panics
    ///
    /// Panics if `prop` is not supported by the application (see
    /// [`AppKind::supported_propagations`]).
    pub fn produce(
        &self,
        prop: Propagation,
        tb_size: u32,
        run: &mut dyn FnMut(KernelSource<'_>, Propagation),
    ) {
        let g = self.graph;
        let run_static = &mut |k: KernelSource<'_>| run(k, prop);
        match self.app {
            AppKind::Pr => crate::pr::generate(g, prop, tb_size, run_static),
            AppKind::Sssp => crate::sssp::generate(g, prop, tb_size, run),
            AppKind::Mis => crate::mis::generate(g, prop, tb_size, run_static),
            AppKind::Clr => crate::clr::generate(g, prop, tb_size, run_static),
            AppKind::Bc => crate::bc::generate(g, prop, tb_size, run_static),
            AppKind::Cc => crate::cc::generate(g, prop, tb_size, run_static),
            AppKind::Bfs => crate::bfs::generate(g, prop, tb_size, run),
        }
    }

    /// Fingerprint of the direction policy as *realized* on this
    /// workload's graph: `0` for the static propagations (the
    /// direction is fully named by the propagation itself) and, for
    /// [`Propagation::Hybrid`], an FNV-1a hash of the density threshold
    /// plus the per-iteration direction letters
    /// ([`crate::bfs::hybrid_directions`],
    /// [`crate::sssp::hybrid_directions`]; none for an app without a
    /// hybrid stream). Cache keys must incorporate this so a hybrid
    /// stream never collides with a static push or pull stream — nor
    /// with a hybrid stream produced under a different threshold or
    /// realized schedule.
    pub fn policy_fingerprint(&self, prop: Propagation) -> u64 {
        if prop != Propagation::Hybrid {
            return 0;
        }
        let directions = match self.app {
            AppKind::Bfs => crate::bfs::hybrid_directions(self.graph),
            AppKind::Sssp => crate::sssp::hybrid_directions(self.graph),
            _ => Vec::new(),
        };
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for byte in Propagation::HYBRID_DENSITY_THRESHOLD
            .to_bits()
            .to_le_bytes()
        {
            h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        for dir in directions {
            h = (h ^ dir.letter() as u64).wrapping_mul(PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    #[test]
    fn mnemonics_roundtrip() {
        for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
            let parsed: AppKind = app.mnemonic().parse().unwrap();
            assert_eq!(parsed, app);
        }
        assert!("XYZ".parse::<AppKind>().is_err());
    }

    #[test]
    fn table3_profiles() {
        use ggs_model::taxonomy::Traversal::*;
        assert_eq!(AppKind::Pr.algo_profile().traversal, Static);
        assert_eq!(AppKind::Cc.algo_profile().traversal, Dynamic);
        assert!(AppKind::Sssp.algo_profile().favors_source());
        assert!(AppKind::Bc.algo_profile().favors_source());
        assert!(!AppKind::Mis.algo_profile().favors_source());
        assert!(!AppKind::Clr.algo_profile().favors_source());
    }

    #[test]
    fn supported_propagations() {
        assert_eq!(AppKind::Pr.supported_propagations().len(), 2);
        assert_eq!(
            AppKind::Cc.supported_propagations(),
            &[Propagation::PushPull]
        );
    }

    /// A chain with a star from vertex 0: the frontier after the root
    /// is dense, so hybrid BFS and SSSP flip from push to pull.
    fn star_chain() -> Csr {
        GraphBuilder::new(64)
            .edges((0..63).map(|i| (i, i + 1)))
            .edges((1..63).map(|v| (0, v)))
            .symmetric(true)
            .build()
            .unwrap()
            .with_hashed_weights(4)
    }

    #[test]
    fn policy_fingerprint_is_zero_only_for_static_props() {
        let g = star_chain();
        for app in [AppKind::Bfs, AppKind::Sssp] {
            let w = Workload::new(app, &g);
            assert_eq!(w.policy_fingerprint(Propagation::Push), 0);
            assert_eq!(w.policy_fingerprint(Propagation::Pull), 0);
            let fp = w.policy_fingerprint(Propagation::Hybrid);
            assert_ne!(fp, 0, "{app} hybrid fingerprint");
            let mut directions = Vec::new();
            w.produce(Propagation::Hybrid, 256, &mut |_, dir| directions.push(dir));
            assert!(directions.contains(&Propagation::Push), "{directions:?}");
            assert!(directions.contains(&Propagation::Pull), "{directions:?}");
        }
        // An app without a hybrid stream still keys it apart from its
        // static streams.
        assert_ne!(
            Workload::new(AppKind::Pr, &g).policy_fingerprint(Propagation::Hybrid),
            0
        );
    }

    #[test]
    fn policy_fingerprint_tells_realized_schedules_apart() {
        // A chain's frontier stays sparse, so its hybrid runs push only.
        let chain = GraphBuilder::new(64)
            .edges((0..63).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
            .with_hashed_weights(4);
        let star = star_chain();
        for app in [AppKind::Bfs, AppKind::Sssp] {
            assert_ne!(
                Workload::new(app, &chain).policy_fingerprint(Propagation::Hybrid),
                Workload::new(app, &star).policy_fingerprint(Propagation::Hybrid),
                "{app}"
            );
        }
    }

    #[test]
    fn only_frontier_apps_support_hybrid() {
        for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
            let hybrid = app.supported_propagations().contains(&Propagation::Hybrid);
            assert_eq!(
                hybrid,
                matches!(app, AppKind::Bfs | AppKind::Sssp),
                "{app} hybrid support"
            );
        }
    }

    #[test]
    fn only_sssp_needs_weights() {
        let g = GraphBuilder::new(8)
            .edges((0..7).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap();
        for app in AppKind::ALL {
            assert_eq!(app.needs_weights(), app == AppKind::Sssp);
            let weighted = app.weighted(&g);
            assert_eq!(weighted.is_weighted(), app == AppKind::Sssp, "{app}");
        }
        // SSSP's weights are the hashed ones up to SSSP_MAX_WEIGHT, and
        // a graph that already has weights keeps them.
        let hashed = g.clone().with_hashed_weights(SSSP_MAX_WEIGHT);
        assert_eq!(*AppKind::Sssp.weighted(&g), hashed);
        let own = g.with_hashed_weights(4);
        assert!(matches!(AppKind::Sssp.weighted(&own), Cow::Borrowed(_)));
    }

    #[test]
    fn every_static_app_generates_both_variants() {
        let g = GraphBuilder::new(32)
            .edges((0..31).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
            .with_hashed_weights(4);
        for app in AppKind::ALL.into_iter().chain(AppKind::EXTENDED) {
            for &prop in app.supported_propagations() {
                let mut kernels = 0;
                Workload::new(app, &g).produce(prop, 256, &mut |k, dir| {
                    kernels += 1;
                    assert_eq!(dir == prop, prop != Propagation::Hybrid, "{app}/{prop}");
                    assert_eq!(k.num_threads(), 32);
                });
                assert!(kernels > 0, "{app}/{prop} emitted no kernels");
            }
        }
    }
}
