//! Contract tests for the fallible public API surface: every
//! configuration code the paper's Figures 5–6 use round-trips through
//! `FromStr`, and malformed input is reported as a typed error — never
//! a panic.

use gpu_graph_spec::prelude::*;
use gpu_graph_spec::sim::params::ParamsError;
use gpu_graph_spec::sim::trace::{KernelTrace, MicroOp, Op};

/// The nine configuration codes shown in Figure 5 (five static bars,
/// four dynamic bars for CC).
const FIGURE5_CODES: [&str; 9] = [
    "TG0", "SG1", "SGR", "SD1", "SDR", // static workloads
    "DG1", "DGR", "DD1", "DDR", // CC
];

#[test]
fn figure5_codes_round_trip_through_fromstr() {
    for code in FIGURE5_CODES {
        let parsed: SystemConfig = code
            .parse()
            .unwrap_or_else(|e| panic!("{code} must parse: {e}"));
        assert_eq!(parsed.code(), code, "round-trip mismatch for {code}");
        // And through the unified error type.
        let via_ggs: Result<SystemConfig, GgsError> =
            code.parse::<SystemConfig>().map_err(GgsError::from);
        assert_eq!(via_ggs.unwrap().code(), code);
    }
}

#[test]
fn bad_config_codes_yield_errors_not_panics() {
    for bad in ["", "X", "SG", "SGX", "TGRR", "ZZ9", "S G R", "🦀🦀🦀"] {
        let err: GgsError = match bad.parse::<SystemConfig>() {
            Ok(cfg) => panic!("{bad:?} unexpectedly parsed as {cfg}"),
            Err(e) => e.into(),
        };
        // The error is printable and identifies itself as a config
        // parse failure.
        assert!(matches!(err, GgsError::Config(_)));
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn bad_inputs_surface_as_typed_errors_across_the_api() {
    // Application mnemonics.
    assert!("PAGE_RANK".parse::<AppKind>().is_err());
    assert!("PR".parse::<AppKind>().is_ok());
    // Graph presets.
    assert!("XYZ".parse::<GraphPreset>().is_err());
    // Experiment specs.
    assert!(ExperimentSpec::builder().scale(-1.0).build().is_err());
    assert!(ExperimentSpec::builder()
        .scale(f64::INFINITY)
        .build()
        .is_err());
    // System parameters, checked again when a spec takes them.
    let bad = SystemParams {
        line_bytes: 48,
        ..SystemParams::default()
    };
    assert!(bad.validate().is_err());
    assert!(matches!(
        ExperimentSpec::builder().params(bad).build(),
        Err(GgsError::Params(_))
    ));
    assert!(SystemParams::default().validate().is_ok());
    // Graph construction.
    assert!(GraphBuilder::new(4).edge(0, 9).build().is_err());
    // Kernel traces: an address the packed op cannot hold.
    let far = vec![vec![MicroOp::load(Op::MAX_ADDR + 1)]];
    assert!(matches!(
        KernelTrace::new(far, 256),
        Err(ParamsError::AddressOutOfRange(_))
    ));
}

#[test]
fn prelude_covers_the_experiment_workflow() {
    // Compile-time check that the prelude exports compose: build →
    // predict → simulate, all through `?`-able APIs.
    fn workflow() -> Result<u64, GgsError> {
        let graph = GraphBuilder::new(256)
            .edges((0..255).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()?;
        let spec = ExperimentSpec::builder().scale(0.02).build()?;
        let profile = GraphProfile::measure(&graph, &spec.metric_params());
        let config = predict_full(&AppKind::Pr.algo_profile(), &profile);
        let stats = run_workload(AppKind::Pr, &graph, config, &spec, Tracer::off(), None)?;
        Ok(stats.total_cycles())
    }
    assert!(workflow().unwrap() > 0);
}
