//! Running one (application, graph, configuration) experiment point.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ggs_apps::{AppKind, Workload};
use ggs_graph::Csr;
use ggs_model::{Propagation, SystemConfig};
use ggs_sim::stats::RegionStats;
use ggs_sim::trace::WarpTrace;
use ggs_sim::{BudgetBreach, ExecStats, SimBudget, Simulation, SystemParams};
use ggs_trace::Tracer;

use crate::error::GgsError;

/// Experiment-wide settings shared by every simulation of a study.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Scale factor applied to the synthetic inputs *and* (already) to
    /// the cache capacities inside `params`. Stored for reporting.
    pub scale: f64,
    /// Simulated hardware parameters (Table IV, possibly cache-scaled).
    pub params: SystemParams,
    /// Watchdog budget applied to every simulation run under this spec
    /// (kernel/iteration and simulated-cycle limits). Unlimited by
    /// default; a breached run is reported as [`GgsError::Budget`]. The
    /// wall-clock limit is an argument of each run function instead, so
    /// a spec never carries a point in time.
    pub budget: SimBudget,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        Self::at_scale(1.0)
    }
}

impl ExperimentSpec {
    /// A spec for inputs generated at `scale`, with cache capacities
    /// scaled to match (so the paper's volume classes are preserved —
    /// DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite. Prefer
    /// [`ExperimentSpec::builder`] on paths that must not panic.
    pub fn at_scale(scale: f64) -> Self {
        let spec = Self::builder().scale(scale).build();
        spec.unwrap_or_else(|e| panic!("{e}"))
    }

    /// A fluent builder over [`ExperimentSpec::at_scale`]'s derivation
    /// that validates the scale and also allows overriding the derived
    /// [`SystemParams`].
    ///
    /// # Example
    ///
    /// ```
    /// use ggs_core::experiment::ExperimentSpec;
    ///
    /// let spec = ExperimentSpec::builder().scale(0.05).build()?;
    /// assert!(spec.params.l1_bytes >= 8 * 1024);
    /// assert!(ExperimentSpec::builder().scale(-1.0).build().is_err());
    /// # Ok::<(), ggs_core::error::GgsError>(())
    /// ```
    pub fn builder() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            scale: 1.0,
            params: None,
            budget: SimBudget::UNLIMITED,
        }
    }

    /// Metric parameters for the *nominal* scaled machine (cache
    /// capacities scaled exactly, without the simulator's L1 fidelity
    /// floor), so metric classes match the paper's Table II at every
    /// scale.
    pub fn metric_params(&self) -> ggs_model::MetricParams {
        ggs_model::MetricParams::default().scaled_caches(self.scale)
    }
}

/// Fluent builder for [`ExperimentSpec`] (see
/// [`ExperimentSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    scale: f64,
    params: Option<SystemParams>,
    budget: SimBudget,
}

impl ExperimentSpecBuilder {
    /// Scale factor for synthetic inputs and cache capacities
    /// (default 1.0).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Caps the number of kernels (≈ iterations for the level-
    /// synchronous graph workloads) any single simulation may launch.
    pub fn max_kernels(mut self, limit: u64) -> Self {
        self.budget.max_kernels = Some(limit);
        self
    }

    /// Caps the simulated cycles any single simulation may accumulate.
    pub fn max_sim_cycles(mut self, limit: u64) -> Self {
        self.budget.max_cycles = Some(limit);
        self
    }

    /// Replaces the derived [`SystemParams`] wholesale. The params are
    /// used as given — no cache scaling or launch-overhead adjustment
    /// is applied on top — and checked by [`SystemParams::validate`]
    /// in [`ExperimentSpecBuilder::build`].
    pub fn params(mut self, params: SystemParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`GgsError::Params`] if `scale` is not positive and
    /// finite, or if overriding params fail [`SystemParams::validate`].
    pub fn build(self) -> Result<ExperimentSpec, GgsError> {
        let scale = self.scale;
        let mut params = SystemParams::default().scaled_caches(scale)?;
        // Scale the fixed kernel-launch overhead with the input size so
        // the overhead-to-work ratio matches the full-scale system
        // (otherwise launches dominate small inputs and bias against
        // multi-kernel variants).
        params.kernel_launch_cycles =
            ((params.kernel_launch_cycles as f64 * scale) as u64).max(100);
        // Scale resident thread blocks with the caches so each thread's
        // share of the L1 matches the full-scale machine (otherwise the
        // shrunken L1 is thrashed by an unshrunken warp population and
        // the dense-read caching that push relies on disappears).
        params.max_blocks_per_sm =
            ((params.max_blocks_per_sm as f64 * scale).round() as u32).max(1);
        // Floor the simulated L1 at one thread block's working window
        // (~8 KB): a thread block's CSR slice does not shrink with the
        // scale factor, so an exactly-scaled L1 below this floor loses
        // the intra-block locality both pull and DeNovo rely on. The
        // *classifier* keeps nominal scaling (see `metric_params`) so
        // every Table II volume class is preserved.
        params.l1_bytes = params.l1_bytes.max(8 * 1024);
        if let Some(given) = self.params {
            given.validate()?;
            params = given;
        }
        Ok(ExperimentSpec {
            scale,
            params,
            budget: self.budget,
        })
    }
}

/// Simulates `app` on `graph` under `config`, returning the final
/// execution statistics.
///
/// The application's kernel sequence is generated lazily and fed to a
/// fresh [`Simulation`] configured with the hardware half of `config`;
/// cache and ownership state persist across the workload's kernels, as
/// on the simulated machine. Every simulator event is emitted through
/// `tracer` ([`Tracer::off`] runs without instrumentation at zero
/// cost). SSSP requires a weighted graph; deterministic weights are
/// attached on the fly when missing.
///
/// The spec's [`SimBudget`] and the wall-clock `limit` are enforced
/// inside the engine — cycle limits at the exact breach cycle and the
/// limit mid-kernel, so even a single hung kernel is abandoned. The
/// limit starts when the simulation is built; one too large to
/// represent as a deadline means none. Once either trips, the
/// remaining kernels are skipped.
///
/// # Errors
///
/// [`GgsError::Unsupported`] if `app` does not support
/// `config.propagation` (e.g. push for CC); [`GgsError::Budget`] /
/// [`GgsError::Deadline`] if the budget or the limit is breached.
pub fn run_workload(
    app: AppKind,
    graph: &Csr,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    limit: Option<Duration>,
) -> Result<ExecStats, GgsError> {
    let kernels = Kernels::Generate {
        graph,
        regions: false,
    };
    let (stats, _) = simulate(app, config, kernels, spec, tracer, limit)?;
    Ok(stats)
}

/// Like [`run_workload`], additionally registering the application's
/// address map so the result carries GSI-style per-data-structure
/// attribution (`(array name, stats)` in address order).
///
/// # Errors
///
/// As [`run_workload`].
pub fn run_workload_profiled(
    app: AppKind,
    graph: &Csr,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    limit: Option<Duration>,
) -> Result<(ExecStats, Vec<(String, RegionStats)>), GgsError> {
    let kernels = Kernels::Generate {
        graph,
        regions: true,
    };
    simulate(app, config, kernels, spec, tracer, limit)
}

/// Materializes the kernel stream of `(app, graph, prop)` for the
/// `tb_size`, warp size and line size of `params` — the *functional*
/// half of a workload run, shared by every configuration cell of a
/// direction (the stream never depends on coherence, consistency, or
/// timing; see [`Workload::produce`]).
///
/// Each kernel is packed into warp slots as the application emits its
/// lanes ([`KernelSource::pack`]), so no per-thread trace of a kernel
/// is built: beside the stream, only one warp's lanes are live. SSSP's
/// deterministic weight attachment is the same as
/// [`run_workload`]'s, so the stream for an unweighted graph matches
/// what the fused run simulates. A `prop` that `app` does not support
/// (see [`AppKind::supported_propagations`]) yields an empty stream;
/// [`run_stream_budgeted`] rejects such a pairing with
/// [`GgsError::Unsupported`].
///
/// [`KernelSource::pack`]: ggs_sim::trace::KernelSource::pack
///
/// # Errors
///
/// [`GgsError::Params`] if a kernel cannot be packed for `params` (see
/// [`KernelSource::pack`]).
pub fn produce_stream(
    app: AppKind,
    graph: &Csr,
    prop: Propagation,
    params: &SystemParams,
) -> Result<Vec<Arc<WarpTrace>>, GgsError> {
    let mut stream = Vec::new();
    if !app.supported_propagations().contains(&prop) {
        return Ok(stream);
    }
    let mut failed = None;
    Workload::new(app, &app.weighted(graph)).produce(prop, params.tb_size, &mut |kernel, _| {
        if failed.is_none() {
            match kernel.pack(params) {
                Ok(packed) => stream.push(Arc::new(packed)),
                Err(e) => failed = Some(e),
            }
        }
    });
    match failed {
        Some(e) => Err(e.into()),
        None => Ok(stream),
    }
}

/// [`produce_stream`] for the warp and line size of
/// [`SystemParams::default`] and the given `tb_size`: the stream every
/// spec built by [`ExperimentSpec::builder`] without a params override
/// simulates. A stream that cannot be packed comes back empty, like an
/// unsupported `prop`; call [`produce_stream`] to learn why.
pub fn produce_trace_stream(
    app: AppKind,
    graph: &Csr,
    prop: Propagation,
    tb_size: u32,
) -> Vec<Arc<WarpTrace>> {
    let params = SystemParams {
        tb_size,
        ..SystemParams::default()
    };
    produce_stream(app, graph, prop, &params).unwrap_or_default()
}

/// Timing half of the split workload run: simulates a pre-built kernel
/// `stream` (from [`produce_stream`], possibly via a `TraceCache`)
/// under `config`, with the same tracing, budget and limit semantics
/// as [`run_workload`]. Feeding the same kernels in the same order
/// through the same engine makes the statistics bit-identical to the
/// fused run.
///
/// # Errors
///
/// As [`run_workload`], plus [`GgsError::Params`] (a
/// [`ParamsError::GeometryMismatch`](ggs_sim::ParamsError::GeometryMismatch))
/// if the stream was packed for another warp or line size than
/// `spec.params`; the mismatched kernel is not simulated.
pub fn run_stream_budgeted(
    stream: &[Arc<WarpTrace>],
    app: AppKind,
    config: SystemConfig,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    limit: Option<Duration>,
) -> Result<ExecStats, GgsError> {
    let kernels = Kernels::Cached(stream);
    let (stats, _) = simulate(app, config, kernels, spec, tracer, limit)?;
    Ok(stats)
}

/// Where [`simulate`] takes its kernels from.
enum Kernels<'a> {
    /// Generated lazily from `(app, graph)` — the fused functional and
    /// timing run. `regions` registers the workload's address map for
    /// per-array attribution.
    Generate { graph: &'a Csr, regions: bool },
    /// A pre-built stream, replayed in order.
    Cached(&'a [Arc<WarpTrace>]),
}

/// The consumer loop behind every run function: builds the
/// [`Simulation`] for `config` under the spec's budget and a deadline
/// `limit` from now, feeds it `kernels` until either trips, and maps a
/// breach to [`GgsError`].
fn simulate(
    app: AppKind,
    config: SystemConfig,
    kernels: Kernels<'_>,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    limit: Option<Duration>,
) -> Result<(ExecStats, Vec<(String, RegionStats)>), GgsError> {
    check_supported(app, config)?;
    let mut builder = Simulation::builder(spec.params.clone(), config.hw())
        .tracer(tracer)
        .budget(spec.budget)
        .deadline(limit.and_then(|l| Instant::now().checked_add(l)));
    let sim = match kernels {
        Kernels::Generate { graph, regions } => {
            let graph = app.weighted(graph);
            let workload = Workload::new(app, &graph);
            if regions {
                for (name, base, bytes) in workload.memory_map() {
                    builder = builder.region(name, base, bytes);
                }
            }
            let mut sim = builder.build()?;
            let mut failed = None;
            workload.produce(config.propagation, spec.params.tb_size, &mut |kernel, _| {
                if failed.is_none() && !sim.budget_exhausted() {
                    let packed = kernel.pack(&spec.params);
                    failed = packed.and_then(|k| sim.run_kernel(&k)).err();
                }
            });
            if let Some(e) = failed {
                return Err(e.into());
            }
            sim
        }
        Kernels::Cached(stream) => {
            let mut sim = builder.build()?;
            for kernel in stream {
                if sim.budget_exhausted() {
                    break;
                }
                sim.run_kernel(kernel)?;
            }
            sim
        }
    };
    match sim.budget_breach() {
        Some(BudgetBreach::Deadline { .. }) => Err(GgsError::Deadline {
            limit_ms: limit.map_or(0, |l| u64::try_from(l.as_millis()).unwrap_or(u64::MAX)),
        }),
        Some(breach) => Err(GgsError::Budget(breach)),
        None => {
            let regions = sim.region_stats();
            Ok((sim.finish(), regions))
        }
    }
}

fn check_supported(app: AppKind, config: SystemConfig) -> Result<(), GgsError> {
    if app.supported_propagations().contains(&config.propagation) {
        Ok(())
    } else {
        Err(GgsError::Unsupported {
            app: app.to_string(),
            propagation: config.propagation.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;
    use ggs_sim::{KernelTrace, MicroOp, ParamsError};

    fn graph() -> Csr {
        GraphBuilder::new(1024)
            .edges((0..1023).map(|i| (i, i + 1)))
            .edges(
                (0..1024)
                    .map(|i| (i, (i * 37) % 1024))
                    .filter(|&(a, b)| a != b),
            )
            .symmetric(true)
            .build()
            .unwrap()
    }

    fn run(app: AppKind, g: &Csr, config: &str, spec: &ExperimentSpec) -> ExecStats {
        let config = config.parse().expect("valid config");
        run_workload(app, g, config, spec, Tracer::off(), None).expect("run succeeds")
    }

    #[test]
    fn rejects_unsupported_propagation() {
        let g = graph();
        let spec = ExperimentSpec::default();
        let cfg: SystemConfig = "SGR".parse().unwrap();
        let stream = produce_trace_stream(AppKind::Cc, &g, cfg.propagation, 256);
        assert!(stream.is_empty());
        let errs = [
            run_workload(AppKind::Cc, &g, cfg, &spec, Tracer::off(), None).unwrap_err(),
            run_workload_profiled(AppKind::Cc, &g, cfg, &spec, Tracer::off(), None).unwrap_err(),
            run_stream_budgeted(&stream, AppKind::Cc, cfg, &spec, Tracer::off(), None).unwrap_err(),
        ];
        for err in errs {
            assert!(matches!(err, GgsError::Unsupported { .. }), "{err}");
            assert!(err.to_string().contains("does not support"));
        }
    }

    #[test]
    fn spec_builder_validates_scale() {
        let spec = ExperimentSpec::builder().scale(0.05).build().unwrap();
        assert_eq!(spec.scale, 0.05);
        assert_eq!(spec, ExperimentSpec::at_scale(0.05));
        assert!(ExperimentSpec::builder().scale(0.0).build().is_err());
        assert!(ExperimentSpec::builder().scale(f64::NAN).build().is_err());
        assert!(ExperimentSpec::builder().scale(-2.0).build().is_err());
    }

    #[test]
    fn spec_builder_rejects_invalid_params() {
        // Each of these panics or hangs in a run, so `build` must refuse it.
        let bad = [
            SystemParams {
                l2_banks: 0,
                ..SystemParams::default()
            },
            SystemParams {
                mshr_entries: 0,
                ..SystemParams::default()
            },
            SystemParams {
                line_bytes: 48,
                ..SystemParams::default()
            },
            SystemParams {
                warp_size: 0,
                ..SystemParams::default()
            },
        ];
        for params in bad {
            let err = ExperimentSpec::builder()
                .params(params)
                .build()
                .unwrap_err();
            assert!(matches!(err, GgsError::Params(_)), "{err}");
        }
    }

    #[test]
    fn spec_builder_accepts_explicit_params() {
        let params = SystemParams {
            tb_size: 128,
            ..SystemParams::default()
        };
        let spec = ExperimentSpec::builder()
            .params(params.clone())
            .build()
            .unwrap();
        assert_eq!(spec.params, params);
    }

    /// Runs PR/SGR on [`graph`] through every public run path and
    /// returns each path's error; a path that succeeds ignored the
    /// limit under test.
    fn errors_on_every_path(
        spec: &ExperimentSpec,
        limit: Option<Duration>,
    ) -> Vec<(&'static str, GgsError)> {
        let g = graph();
        let cfg: SystemConfig = "SGR".parse().unwrap();
        let stream = produce_trace_stream(AppKind::Pr, &g, cfg.propagation, spec.params.tb_size);
        let off = Tracer::off;
        [
            (
                "fused",
                run_workload(AppKind::Pr, &g, cfg, spec, off(), limit).err(),
            ),
            (
                "profiled",
                run_workload_profiled(AppKind::Pr, &g, cfg, spec, off(), limit).err(),
            ),
            (
                "stream",
                run_stream_budgeted(&stream, AppKind::Pr, cfg, spec, off(), limit).err(),
            ),
        ]
        .into_iter()
        .map(|(path, err)| {
            (
                path,
                err.unwrap_or_else(|| panic!("{path} run ignored the limit")),
            )
        })
        .collect()
    }

    #[test]
    fn params_set_after_build_are_validated_on_every_path() {
        // `params` is a public field, so a spec can skip the builder's
        // check; every run path still returns a typed error, not a
        // panic in the cache or memory system.
        let bad = [
            SystemParams {
                line_bytes: 48,
                ..SystemParams::default()
            },
            SystemParams {
                l1_assoc: 0,
                ..SystemParams::default()
            },
        ];
        for params in bad {
            let spec = ExperimentSpec {
                params,
                ..ExperimentSpec::default()
            };
            for (path, err) in errors_on_every_path(&spec, None) {
                assert!(matches!(err, GgsError::Params(_)), "{path}: {err}");
            }
        }
    }

    #[test]
    fn producing_a_stream_for_a_zero_block_size_is_a_typed_error() {
        let params = SystemParams {
            tb_size: 0,
            ..SystemParams::default()
        };
        let err = produce_stream(AppKind::Pr, &graph(), Propagation::Push, &params).unwrap_err();
        assert!(
            matches!(err, GgsError::Params(ParamsError::NonPositive("tb_size"))),
            "{err}"
        );
    }

    #[test]
    fn budgeted_run_reports_kernel_budget_breach_as_timeout() {
        // Every public run path honors the spec's budget, not only the
        // ones that also take a deadline.
        let spec = ExperimentSpec::builder()
            .scale(0.05)
            .max_kernels(1)
            .build()
            .unwrap();
        for (path, err) in errors_on_every_path(&spec, None) {
            assert!(matches!(err, GgsError::Budget(_)), "{path}: {err}");
            assert!(err.is_timeout(), "{path}");
            assert!(
                err.to_string().contains("kernel budget exhausted"),
                "{path}: {err}"
            );
        }
    }

    #[test]
    fn budgeted_run_reports_cycle_budget_breach_as_timeout() {
        // The spec's simulated-cycle cap reaches the engine on every
        // public run path and surfaces as a typed budget error.
        let spec = ExperimentSpec::builder()
            .scale(0.05)
            .max_sim_cycles(1)
            .build()
            .unwrap();
        for (path, err) in errors_on_every_path(&spec, None) {
            assert!(matches!(err, GgsError::Budget(_)), "{path}: {err}");
            assert!(err.is_timeout(), "{path}");
            assert!(err.to_string().contains("cycle budget"), "{path}: {err}");
        }
    }

    #[test]
    fn budgeted_run_honors_wall_clock_limit() {
        // A zero limit stops every public run path before its first
        // kernel, and reports the limit it was given.
        let spec = ExperimentSpec::at_scale(0.05);
        for (path, err) in errors_on_every_path(&spec, Some(Duration::ZERO)) {
            assert!(
                matches!(err, GgsError::Deadline { limit_ms: 0 }),
                "{path}: {err}"
            );
            assert!(err.is_timeout(), "{path}");
        }
    }

    #[test]
    fn deadline_reports_the_configured_limit() {
        // A limit that expires mid-stream reports the limit as given,
        // not the time left when the simulation started.
        let spec = ExperimentSpec::at_scale(0.05);
        let threads = (0..256).map(|_| vec![MicroOp::compute(64)]).collect();
        let kernel = KernelTrace::new(threads, spec.params.tb_size).unwrap();
        let kernel = Arc::new(WarpTrace::pack(&kernel, &spec.params).unwrap());
        let endless = vec![kernel; 200_000];
        let cfg = "SGR".parse().unwrap();
        let limit = Some(Duration::from_millis(100));
        let err = run_stream_budgeted(&endless, AppKind::Pr, cfg, &spec, Tracer::off(), limit)
            .unwrap_err();
        match err {
            GgsError::Deadline { limit_ms } => assert_eq!(limit_ms, 100),
            other => panic!("expected a deadline breach, got {other}"),
        }
    }

    #[test]
    fn unlimited_budget_matches_untracked_run() {
        // Generous limits never trip and never perturb the statistics.
        let g = graph();
        let spec = ExperimentSpec::at_scale(0.05);
        let generous = ExperimentSpec::builder()
            .scale(0.05)
            .max_kernels(1 << 20)
            .max_sim_cycles(u64::MAX)
            .build()
            .unwrap();
        let limit = Some(Duration::from_secs(3600));
        let cfg = "SGR".parse().unwrap();
        let budgeted = run_workload(AppKind::Pr, &g, cfg, &generous, Tracer::off(), limit).unwrap();
        assert_eq!(budgeted, run(AppKind::Pr, &g, "SGR", &spec));
    }

    #[test]
    fn stream_path_is_bit_identical_to_generate_path() {
        // Differential check over every (app, supported config) cell,
        // the hybrid direction-policy cells included: the fused,
        // cached-stream and profiled runs feed the same kernels to the
        // same engine, so their statistics must match exactly.
        let g = graph();
        let spec = ExperimentSpec::at_scale(0.05);
        let tb = spec.params.tb_size;
        for app in AppKind::ALL {
            let mut configs = SystemConfig::all_for(app.algo_profile().traversal);
            configs.extend(crate::sweep::hybrid_configs(app));
            for cfg in configs {
                let off = Tracer::off;
                let fused = run_workload(app, &g, cfg, &spec, off(), None).unwrap();
                let stream = produce_trace_stream(app, &g, cfg.propagation, tb);
                let cached = run_stream_budgeted(&stream, app, cfg, &spec, off(), None).unwrap();
                let (profiled, _) =
                    run_workload_profiled(app, &g, cfg, &spec, off(), None).unwrap();
                assert!(fused.total_cycles() > 0, "{app}/{cfg} produced no cycles");
                assert_eq!(cached, fused, "{app}/{cfg}: cached stream");
                assert_eq!(profiled, fused, "{app}/{cfg}: profiled");
            }
        }
    }

    #[test]
    fn streams_run_only_on_the_geometry_they_were_packed_for() {
        // A `StreamKey` carries no geometry, so a stream packed for the
        // default warp and line size must be refused, not mis-simulated,
        // by a spec with another.
        let g = graph();
        let cfg: SystemConfig = "SGR".parse().unwrap();
        let stream = produce_trace_stream(AppKind::Pr, &g, cfg.propagation, 256);
        let default = SystemParams::default();
        for (what, params) in [
            (
                "warp_size",
                SystemParams {
                    warp_size: 16,
                    ..default.clone()
                },
            ),
            (
                "line_bytes",
                SystemParams {
                    line_bytes: 128,
                    ..default.clone()
                },
            ),
        ] {
            let spec = ExperimentSpec::builder().params(params).build().unwrap();
            let err = run_stream_budgeted(&stream, AppKind::Pr, cfg, &spec, Tracer::off(), None)
                .unwrap_err();
            match err {
                GgsError::Params(ParamsError::GeometryMismatch { what: w, .. }) => {
                    assert_eq!(w, what)
                }
                other => panic!("{what}: expected a geometry mismatch, got {other}"),
            }
        }
    }

    #[test]
    fn streams_packed_for_a_spec_match_its_fused_run() {
        // Packing follows the spec's geometry, so a narrower warp and a
        // longer line give the same statistics on both run paths.
        let g = graph();
        let params = SystemParams {
            warp_size: 16,
            line_bytes: 128,
            ..ExperimentSpec::at_scale(0.05).params
        };
        let spec = ExperimentSpec::builder().params(params).build().unwrap();
        for code in ["SGR", "TD1"] {
            let cfg: SystemConfig = code.parse().unwrap();
            let stream = produce_stream(AppKind::Sssp, &g, cfg.propagation, &spec.params).unwrap();
            assert!(stream
                .iter()
                .all(|k| k.warp_size() == 16 && k.line_bytes() == 128));
            let off = Tracer::off;
            let cached =
                run_stream_budgeted(&stream, AppKind::Sssp, cfg, &spec, off(), None).unwrap();
            let fused = run_workload(AppKind::Sssp, &g, cfg, &spec, off(), None).unwrap();
            assert_eq!(cached, fused, "{code}");
        }
        // The default-geometry wrapper packs what `produce_stream` does.
        let tb = ExperimentSpec::default().params.tb_size;
        let by_default = produce_trace_stream(AppKind::Pr, &g, Propagation::Push, tb);
        let by_params =
            produce_stream(AppKind::Pr, &g, Propagation::Push, &SystemParams::default()).unwrap();
        assert_eq!(by_default, by_params);
    }

    #[test]
    fn sssp_weights_attached_automatically() {
        let g = graph();
        assert!(!g.is_weighted());
        let spec = ExperimentSpec::at_scale(0.05);
        assert!(run(AppKind::Sssp, &g, "SG1", &spec).total_cycles() > 0);
    }

    #[test]
    fn profiled_run_attributes_every_graph_walk() {
        let g = graph();
        let spec = ExperimentSpec::at_scale(0.05);
        let cfg = "SGR".parse().unwrap();
        let (stats, regions) =
            run_workload_profiled(AppKind::Pr, &g, cfg, &spec, Tracer::off(), None).unwrap();
        assert!(stats.total_cycles() > 0);
        let by_name = |n: &str| {
            regions
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, s)| *s)
                .expect("region present")
        };
        // Push PR walks col_idx and atomically updates one rank buffer
        // per iteration.
        assert!(by_name("col_idx").loads > 0);
        let rank_atomics = by_name("rank_a").atomics + by_name("rank_b").atomics;
        assert_eq!(
            rank_atomics,
            g.num_edges() * u64::from(ggs_apps::pr::ITERATIONS),
        );
        // No atomics ever hit the read-only CSR arrays.
        assert_eq!(by_name("col_idx").atomics, 0);
        assert_eq!(by_name("row_ptr").atomics, 0);
    }

    #[test]
    fn drf0_push_is_slowest_push_variant() {
        // The paper shows DRF0 performs poorly for all push configs
        // (§VI): heavy atomics + full invalidate/flush per atomic.
        let g = graph();
        let spec = ExperimentSpec::at_scale(0.05);
        let t0 = run(AppKind::Pr, &g, "SG0", &spec).total_cycles();
        let t1 = run(AppKind::Pr, &g, "SG1", &spec).total_cycles();
        let tr = run(AppKind::Pr, &g, "SGR", &spec).total_cycles();
        assert!(t0 > t1, "DRF0 ({t0}) must be slower than DRF1 ({t1})");
        assert!(t1 >= tr, "DRF1 ({t1}) must not beat DRFrlx ({tr})");
    }
}
