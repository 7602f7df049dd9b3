//! The certification sweep the ISSUE acceptance criteria ask for:
//! every application × supported direction is DRF-clean and honors its
//! Table I contract on a realistic synthetic graph, the dynamic
//! protocol checker stays silent across the full coherence ×
//! consistency grid, and injected protocol bugs are *caught* (the
//! checker is not vacuously quiet).

use ggs_apps::AppKind;
use ggs_check::certify::{certify_matrix, run_protocol_checked};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::Propagation;
use ggs_sim::check::InvariantKind;
use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
use ggs_sim::params::SystemParams;
use ggs_sim::trace::{KernelTrace, MicroOp, WarpTrace};
use ggs_sim::Simulation;

/// A small but structurally realistic graph: the e-mail-network preset
/// (power-law degrees, the paper's most irregular input family) at a
/// scale that keeps the sweep under a second.
fn small_graph() -> ggs_graph::Csr {
    SynthConfig::preset(GraphPreset::Eml).scale(0.02).generate()
}

/// Tentpole sweep: all 6 apps (plus the extended set) × both supported
/// directions certify clean under every consistency model.
#[test]
fn full_app_direction_matrix_is_drf_clean() {
    let graph = small_graph();
    for model in ConsistencyModel::ALL {
        let reports = certify_matrix(&graph, model, true).unwrap();
        // 6 paper apps + extended set, each with >= 1 direction.
        assert!(reports.len() >= AppKind::ALL.len() * 2 - AppKind::ALL.len());
        let mut saw_push = false;
        let mut saw_pull = false;
        for r in &reports {
            assert!(
                r.is_clean(),
                "{} {} not clean under {model}:\n{r}",
                r.app.mnemonic(),
                r.prop
            );
            saw_push |= r.prop == Propagation::Push;
            saw_pull |= r.prop == Propagation::Pull;
        }
        assert!(saw_push && saw_pull);
    }
}

/// The pull contract is not vacuous: pull traces really contain zero
/// atomics, and push traces really contain some (so the certification
/// is distinguishing the directions, not passing everything).
#[test]
fn matrix_distinguishes_directions() {
    let graph = small_graph();
    let reports = certify_matrix(&graph, ConsistencyModel::Drf0, false).unwrap();
    for r in &reports {
        match r.prop {
            Propagation::Pull => assert_eq!(r.atomic_ops, 0, "{r}"),
            Propagation::Push => assert!(r.atomic_ops > 0, "{r}"),
            Propagation::PushPull => assert!(r.atomic_ops > 0, "{r}"),
            // Hybrid atomic counts depend on how many iterations
            // realize push; the direction split itself is pinned by
            // certify::tests::hybrid_certifies_each_kernel_under_its_realized_direction.
            Propagation::Hybrid => {}
        }
    }
}

/// Dynamic pass: a push and a pull workload run under all six
/// coherence × consistency points without a single protocol-invariant
/// violation.
#[test]
fn protocol_checker_is_silent_across_the_grid() {
    let graph = small_graph();
    let params = SystemParams::default();
    for hw in HwConfig::all() {
        for prop in [Propagation::Push, Propagation::Pull] {
            let violations = run_protocol_checked(AppKind::Bfs, &graph, prop, hw, &params).unwrap();
            assert!(
                violations.is_empty(),
                "BFS {prop} under {}: {violations:?}",
                hw.code()
            );
        }
    }
}

/// One thread per word: a trivially clean kernel used to seed cache
/// state for the injection tests below, packed for the default params.
fn touch_kernel(threads: u64) -> WarpTrace {
    let trace: Vec<Vec<MicroOp>> = (0..threads)
        .map(|t| {
            vec![
                MicroOp::load(0x1000 + t * 4),
                MicroOp::store(0x1000 + t * 4),
            ]
        })
        .collect();
    let kernel = KernelTrace::new(trace, 32).unwrap();
    WarpTrace::pack(&kernel, &SystemParams::default()).unwrap()
}

/// Negative test: planting ownership in an L1 behind the registry's
/// back is caught by the audit (owner-map mismatch under DeNovo, and
/// double ownership trips SWMR).
#[test]
fn injected_broken_ownership_is_caught() {
    let mut sim = Simulation::builder(
        SystemParams::default(),
        HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::Drf1),
    )
    .checker()
    .build()
    .unwrap();
    sim.run_kernel(&touch_kernel(32)).unwrap();
    assert_eq!(sim.take_protocol_violations(), Vec::new());

    // Thread 0's store registered line 0x1000>>6 to SM 0; plant the
    // same line Owned in SM 1.
    sim.debug_hooks().force_owned(1, 0x1000 >> 6);
    sim.audit_protocol();
    let violations = sim.take_protocol_violations();
    assert!(
        violations.iter().any(|v| v.kind == InvariantKind::Swmr),
        "{violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::OwnerMapMismatch && v.sm == 1),
        "{violations:?}"
    );
}

/// Negative test: an L1 that skips its self-invalidation at an acquire
/// is caught holding stale lines (and only once — the injection is
/// one-shot, so the following kernel is clean again).
#[test]
fn injected_skipped_invalidation_is_caught() {
    let mut sim = Simulation::builder(
        SystemParams::default(),
        HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf0),
    )
    .checker()
    .build()
    .unwrap();
    sim.run_kernel(&touch_kernel(8)).unwrap();
    assert_eq!(sim.take_protocol_violations(), Vec::new());

    sim.debug_hooks().skip_next_invalidation();
    sim.run_kernel(&touch_kernel(8)).unwrap();
    let violations = sim.take_protocol_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::StaleAfterAcquire && v.sm == 0),
        "{violations:?}"
    );

    sim.run_kernel(&touch_kernel(8)).unwrap();
    assert_eq!(sim.take_protocol_violations(), Vec::new());
}

/// Under GPU coherence no L1 may ever hold an Owned line; the injector
/// proves the checker would see one.
#[test]
fn injected_gpu_ownership_is_caught() {
    let mut sim = Simulation::builder(
        SystemParams::default(),
        HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::DrfRlx),
    )
    .checker()
    .build()
    .unwrap();
    sim.debug_hooks().force_owned(3, 0x77);
    sim.audit_protocol();
    let violations = sim.take_protocol_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::GpuOwnedLine && v.sm == 3 && v.line == 0x77),
        "{violations:?}"
    );
}
