//! Qualitative claims from the paper's evaluation (§VI), checked at a
//! reduced scale. These are the *shape* claims the reproduction must
//! preserve; the full-magnitude comparison lives in EXPERIMENTS.md and
//! the `repro` harness.

use ggs_apps::AppKind;
use ggs_core::experiment::{run_workload, ExperimentSpec};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::SystemConfig;
use ggs_trace::Tracer;

const SCALE: f64 = 0.05;

fn cycles(app: AppKind, preset: GraphPreset, code: &str) -> u64 {
    cycles_at(SCALE, app, preset, code)
}

fn cycles_at(scale: f64, app: AppKind, preset: GraphPreset, code: &str) -> u64 {
    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::at_scale(scale);
    let cfg: SystemConfig = code.parse().expect("valid config");
    run_workload(app, &graph, cfg, &spec, Tracer::off(), None)
        .expect("paper cells run")
        .total_cycles()
}

/// §IV-A4 / Figure 5: Connected Components (dynamic traversal, racy
/// value-returning accesses) strongly prefers DeNovo — DD1 is far ahead
/// of the DG1 baseline.
#[test]
fn cc_strongly_prefers_denovo() {
    for preset in [GraphPreset::Dct, GraphPreset::Raj] {
        let dg1 = cycles(AppKind::Cc, preset, "DG1");
        let dd1 = cycles(AppKind::Cc, preset, "DD1");
        assert!(
            (dd1 as f64) < 0.7 * dg1 as f64,
            "{preset}: DD1 {dd1} should be well under DG1 {dg1}"
        );
    }
}

/// §IV-A4: relaxation cannot help CC — its racy accesses return values
/// that drive control flow, so DGR ≈ DG1.
#[test]
fn cc_gains_nothing_from_relaxation() {
    let dg1 = cycles(AppKind::Cc, GraphPreset::Dct, "DG1") as f64;
    let dgr = cycles(AppKind::Cc, GraphPreset::Dct, "DGR") as f64;
    assert!((dgr - dg1).abs() / dg1 < 0.02, "DGR {dgr} vs DG1 {dg1}");
}

/// §VI: DRFrlx's MLP pays off most on imbalanced inputs — on EML
/// (imbalance 1.0), push under DRFrlx is much faster than under DRF1.
#[test]
fn drfrlx_hides_imbalance_on_eml() {
    for app in [AppKind::Pr, AppKind::Sssp] {
        let sg1 = cycles(app, GraphPreset::Eml, "SG1");
        let sgr = cycles(app, GraphPreset::Eml, "SGR");
        assert!(
            (sgr as f64) < 0.8 * sg1 as f64,
            "{app}: SGR {sgr} should be well under SG1 {sg1}"
        );
    }
}

/// §VI: DRF0 push is uniformly poor (every atomic pays a full
/// invalidate + flush + blocking round trip) — the reason Figure 5
/// omits it.
#[test]
fn drf0_push_is_uniformly_poor() {
    // Scale 0.15 rather than the file-wide 0.05: since cache set counts
    // round *down* to a power of two (capacity must never exceed the
    // configured budget), tiny scales leave a degenerate few-set L1
    // where DRF0's per-atomic self-invalidation is nearly free and bank
    // contention noise dominates the DRF0/DRF1 gap. From 0.15 up the
    // gap points the paper's way and widens with scale (SG0/SG1 on OLS:
    // 1.015x at 0.15, 1.034x at 0.2, 1.084x at 0.25).
    for preset in [GraphPreset::Dct, GraphPreset::Ols] {
        let sg0 = cycles_at(0.15, AppKind::Pr, preset, "SG0");
        let sg1 = cycles_at(0.15, AppKind::Pr, preset, "SG1");
        assert!(sg0 > sg1, "{preset}: SG0 {sg0} must exceed SG1 {sg1}");
    }
}

/// §VI (Figure 5 caption): pull uses no fine-grained atomics, so its
/// execution time is exactly insensitive to the consistency model.
#[test]
fn pull_is_insensitive_to_consistency() {
    let tg0 = cycles(AppKind::Mis, GraphPreset::Dct, "TG0");
    let tg1 = cycles(AppKind::Mis, GraphPreset::Dct, "TG1");
    let tgr = cycles(AppKind::Mis, GraphPreset::Dct, "TGR");
    assert_eq!(tg0, tg1);
    assert_eq!(tg0, tgr);
}

/// Table V / §VI: SSSP (source control and information) always prefers
/// push — the frontier predicate elides entire inner loops.
#[test]
fn sssp_prefers_push_on_every_input() {
    for preset in GraphPreset::ALL {
        let tg0 = cycles(AppKind::Sssp, preset, "TG0");
        let sgr = cycles(AppKind::Sssp, preset, "SGR");
        assert!(
            sgr < tg0,
            "{preset}: push SGR {sgr} should beat pull TG0 {tg0}"
        );
    }
}

/// §VI interdependence: on RAJ (high reuse + high imbalance), DeNovo
/// beats GPU coherence for push under DRFrlx (atomics hit owned L1
/// lines), while on EML (no locality, hub contention) GPU coherence
/// wins (ownership would ping-pong).
#[test]
fn coherence_choice_depends_on_input() {
    let raj_sgr = cycles(AppKind::Pr, GraphPreset::Raj, "SGR");
    let raj_sdr = cycles(AppKind::Pr, GraphPreset::Raj, "SDR");
    assert!(
        raj_sdr < raj_sgr,
        "RAJ: SDR {raj_sdr} should beat SGR {raj_sgr}"
    );
    let eml_sgr = cycles(AppKind::Pr, GraphPreset::Eml, "SGR");
    let eml_sdr = cycles(AppKind::Pr, GraphPreset::Eml, "SDR");
    assert!(
        eml_sgr < eml_sdr,
        "EML: SGR {eml_sgr} should beat SDR {eml_sdr}"
    );
}
