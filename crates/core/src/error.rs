//! The workspace-wide error type for fallible public APIs.
//!
//! Every leaf crate defines its own small typed error (parse errors,
//! parameter validation, graph construction); [`GgsError`] wraps them
//! all behind `From` impls so application code — the `repro` harness,
//! examples, downstream users — can thread one error type with `?`.

use std::fmt;

use ggs_apps::ParseAppError;
use ggs_graph::builder::GraphError;
use ggs_graph::mtx::ParseMtxError;
use ggs_graph::synth::ParsePresetError;
use ggs_model::decision::ParseConfigError;
use ggs_sim::config::ParseHwConfigError;
use ggs_sim::params::ParamsError;

/// Unified error for the GGS public API surface.
///
/// # Example
///
/// ```
/// use ggs_core::error::GgsError;
///
/// fn parse(code: &str) -> Result<ggs_model::SystemConfig, GgsError> {
///     Ok(code.parse::<ggs_model::SystemConfig>()?)
/// }
/// assert!(parse("SGR").is_ok());
/// assert!(parse("XYZ").is_err());
/// ```
#[derive(Debug)]
pub enum GgsError {
    /// A system-configuration code (`SGR`, `TG0`, …) failed to parse.
    Config(ParseConfigError),
    /// A coherence/consistency hardware code failed to parse.
    HwConfig(ParseHwConfigError),
    /// An application mnemonic failed to parse.
    App(ParseAppError),
    /// A graph-preset mnemonic failed to parse.
    Preset(ParsePresetError),
    /// A Matrix Market file was malformed.
    Mtx(ParseMtxError),
    /// A simulator parameter was invalid.
    Params(ParamsError),
    /// A graph could not be built.
    Graph(GraphError),
    /// An experiment specification was invalid (bad scale, empty
    /// configuration set, …).
    InvalidSpec(String),
    /// The requested (application, configuration) pairing is
    /// unsupported — e.g. push propagation for Connected Components.
    Unsupported {
        /// Application mnemonic.
        app: String,
        /// The unsupported propagation direction.
        propagation: String,
    },
    /// A serialized study could not be parsed.
    Json(String),
    /// An I/O failure (trace output, study files).
    Io(std::io::Error),
    /// A simulation exceeded its configured kernel or simulated-cycle
    /// budget (watchdog; see `ExperimentSpec::budget`).
    Budget(ggs_sim::BudgetBreach),
    /// A simulation ran past its wall-clock limit (a study cell's
    /// `StudyOptions::cell_deadline`).
    Deadline {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// A study cell panicked; the panic was caught at the cell boundary
    /// and its payload kept as this error's message.
    CellPanic {
        /// The panic payload, downcast to a string when possible.
        payload: String,
    },
    /// A result-store file could not be interpreted: wrong magic, an
    /// unsupported format version, or structural corruption beyond
    /// what the tolerant scanner can skip (see `core::store`).
    StoreFormat {
        /// What was wrong with the file.
        detail: String,
    },
    /// The result store is already open: another live handle, in this
    /// process or another, holds its lock file (`PATH.lock`). The lock
    /// frees when that handle drops or its process exits.
    StoreLock {
        /// Lock path and contention detail.
        detail: String,
    },
}

impl GgsError {
    /// Whether this error is a watchdog trip (budget or wall-clock
    /// deadline) rather than a genuine failure; the study runner
    /// records such cells as `Timeout` instead of `Failed`.
    pub fn is_timeout(&self) -> bool {
        matches!(self, GgsError::Budget(_) | GgsError::Deadline { .. })
    }
}

impl fmt::Display for GgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GgsError::Config(e) => e.fmt(f),
            GgsError::HwConfig(e) => e.fmt(f),
            GgsError::App(e) => e.fmt(f),
            GgsError::Preset(e) => e.fmt(f),
            GgsError::Mtx(e) => e.fmt(f),
            GgsError::Params(e) => e.fmt(f),
            GgsError::Graph(e) => e.fmt(f),
            GgsError::InvalidSpec(msg) => write!(f, "invalid experiment spec: {msg}"),
            GgsError::Unsupported { app, propagation } => {
                write!(f, "{app} does not support {propagation} propagation")
            }
            GgsError::Json(msg) => write!(f, "malformed study JSON: {msg}"),
            GgsError::Io(e) => e.fmt(f),
            GgsError::Budget(b) => b.fmt(f),
            GgsError::Deadline { limit_ms } => {
                write!(f, "wall-clock deadline exceeded ({limit_ms} ms)")
            }
            GgsError::CellPanic { payload } => write!(f, "cell panicked: {payload}"),
            GgsError::StoreFormat { detail } => write!(f, "result store format error: {detail}"),
            GgsError::StoreLock { detail } => write!(f, "result store lock unavailable: {detail}"),
        }
    }
}

impl std::error::Error for GgsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GgsError::Config(e) => Some(e),
            GgsError::HwConfig(e) => Some(e),
            GgsError::App(e) => Some(e),
            GgsError::Preset(e) => Some(e),
            GgsError::Mtx(e) => Some(e),
            GgsError::Params(e) => Some(e),
            GgsError::Graph(e) => Some(e),
            GgsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseConfigError> for GgsError {
    fn from(e: ParseConfigError) -> Self {
        GgsError::Config(e)
    }
}

impl From<ParseHwConfigError> for GgsError {
    fn from(e: ParseHwConfigError) -> Self {
        GgsError::HwConfig(e)
    }
}

impl From<ParseAppError> for GgsError {
    fn from(e: ParseAppError) -> Self {
        GgsError::App(e)
    }
}

impl From<ParsePresetError> for GgsError {
    fn from(e: ParsePresetError) -> Self {
        GgsError::Preset(e)
    }
}

impl From<ParseMtxError> for GgsError {
    fn from(e: ParseMtxError) -> Self {
        GgsError::Mtx(e)
    }
}

impl From<ParamsError> for GgsError {
    fn from(e: ParamsError) -> Self {
        GgsError::Params(e)
    }
}

impl From<GraphError> for GgsError {
    fn from(e: GraphError) -> Self {
        GgsError::Graph(e)
    }
}

impl From<std::io::Error> for GgsError {
    fn from(e: std::io::Error) -> Self {
        GgsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_leaf_parse_error() {
        let cfg: GgsError = "bogus"
            .parse::<ggs_model::SystemConfig>()
            .unwrap_err()
            .into();
        assert!(matches!(cfg, GgsError::Config(_)));
        let app: GgsError = "bogus".parse::<ggs_apps::AppKind>().unwrap_err().into();
        assert!(matches!(app, GgsError::App(_)));
        let params: GgsError = ggs_sim::SystemParams {
            num_sms: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err()
        .into();
        assert!(matches!(params, GgsError::Params(_)));
        let graph: GgsError = ggs_graph::GraphBuilder::new(1)
            .edge(0, 9)
            .build()
            .unwrap_err()
            .into();
        assert!(matches!(graph, GgsError::Graph(_)));
    }

    #[test]
    fn display_preserves_legacy_panic_substrings() {
        let e = GgsError::Unsupported {
            app: "CC".into(),
            propagation: "push".into(),
        };
        assert!(e.to_string().contains("does not support"));
    }
}
