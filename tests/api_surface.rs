//! Contract tests for the fallible public API surface: every
//! configuration code the paper's Figures 5–6 use round-trips through
//! `FromStr`, and malformed input is reported as a typed error — never
//! a panic.

use std::fmt::Display;

use proptest::prelude::*;

use gpu_graph_spec::model::Propagation;
use gpu_graph_spec::prelude::*;
use gpu_graph_spec::sim::params::ParamsError;
use gpu_graph_spec::sim::trace::{KernelTrace, MicroOp, WarpTrace};

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
    // Kernel traces: a load whose line number does not fit the packed
    // records' 32 bits.
    let params = SystemParams::default();
    let far_line = (u64::from(u32::MAX) + 1) * u64::from(params.line_bytes);
    let far = KernelTrace::new(vec![vec![MicroOp::load(far_line)]], 256).unwrap();
    assert_eq!(
        WarpTrace::pack(&far, &params),
        Err(ParamsError::AddressOutOfRange(far_line))
    );
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

/// Every name or code the four name parsers accept, in canonical
/// (upper) case: configuration codes, hardware codes, application and
/// graph mnemonics.
fn valid_names() -> Vec<String> {
    let props = [
        Propagation::Pull,
        Propagation::Push,
        Propagation::PushPull,
        Propagation::Hybrid,
    ];
    let configs = props.into_iter().flat_map(|p| {
        HwConfig::all().map(move |hw| SystemConfig::new(p, hw.coherence, hw.consistency).code())
    });
    let apps = AppKind::ALL.into_iter().chain(AppKind::EXTENDED);
    let graphs = GraphPreset::ALL.into_iter().chain(GraphPreset::EXTENDED);
    configs
        .chain(HwConfig::all().map(HwConfig::code))
        .chain(apps.map(|a| a.mnemonic().to_owned()))
        .chain(graphs.map(|g| g.mnemonic().to_owned()))
        .collect()
}

#[test]
fn every_valid_code_and_mnemonic_round_trips() {
    for code in valid_names() {
        for form in [code.clone(), code.to_ascii_lowercase()] {
            if let Ok(c) = form.parse::<SystemConfig>() {
                assert_eq!(c.code(), code);
            } else if let Ok(hw) = form.parse::<HwConfig>() {
                assert_eq!(hw.code(), code);
            } else if let Ok(app) = form.parse::<AppKind>() {
                assert_eq!(app.mnemonic(), code);
            } else {
                let graph: GraphPreset = form.parse().unwrap();
                assert_eq!(graph.mnemonic(), code);
            }
        }
    }
    // 4 propagations x 6 hardware points, 6 hardware points, 7 apps,
    // 7 graphs.
    assert_eq!(valid_names().len(), 24 + 6 + 7 + 7);
}

/// Checks one parse of `input`: a value whose canonical name is
/// `input` up to ASCII case, or an error that prints.
fn check_parse<T, E: Display>(
    input: &str,
    parsed: Result<T, E>,
    canonical: impl Fn(&T) -> String,
) -> Result<(), String> {
    match parsed {
        Ok(v) if canonical(&v).eq_ignore_ascii_case(input) => Ok(()),
        Ok(v) => Err(format!("{input:?} parsed as {}", canonical(&v))),
        Err(e) if e.to_string().is_empty() => Err(format!("{input:?}: empty error")),
        Err(_) => Ok(()),
    }
}

/// Applies byte edits `(kind, position, byte)` to `bytes`: insert,
/// overwrite, delete or flip one bit of the byte at `position` (taken
/// modulo the length).
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let i = at % (bytes.len() + 1);
        match kind {
            0 => bytes.insert(i, byte),
            _ if i == bytes.len() => {}
            1 => bytes[i] = byte,
            2 => {
                bytes.remove(i);
            }
            _ => bytes[i] ^= 1 << (byte % 8),
        }
    }
    bytes
}

/// Strategy: a byte, with the parsers' alphabet, ASCII case partners
/// and UTF-8 lead/continuation bytes drawn as often as a uniform pick.
fn bytes() -> impl Strategy<Value = u8> {
    let alphabet = b"TSDHG01RPCMBAZLWNOFIXtsdhg1r 9\x80\xc3\xe2\xf0\xff";
    prop_oneof![
        (0..alphabet.len()).prop_map(move |i| alphabet[i]),
        0u8..=255,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Fuzz: byte-mutated names and codes never make a name parser
    /// panic. Each returns a typed error or the value the input names.
    #[test]
    fn name_parsers_survive_byte_mutations(
        seed in 0usize..1024,
        edits in prop::collection::vec((0u8..4, 0usize..8, bytes()), 1..6),
    ) {
        let names = valid_names();
        let bytes = mutate(names[seed % names.len()].clone().into_bytes(), &edits);
        let input = String::from_utf8_lossy(&bytes);
        check_parse(&input, input.parse::<SystemConfig>(), SystemConfig::code)?;
        check_parse(&input, input.parse::<HwConfig>(), |hw| hw.code())?;
        check_parse(&input, input.parse::<AppKind>(), |a| a.mnemonic().to_owned())?;
        check_parse(&input, input.parse::<GraphPreset>(), |g| g.mnemonic().to_owned())?;
    }
}
