//! The whole-GPU simulation engine: block dispatch, event-driven SM
//! scheduling, kernel sequencing, and statistics aggregation.
//!
//! # Event-driven core
//!
//! The engine does not step every SM every cycle. Each SM runs ahead on
//! its own local clock for up to `QUANTUM_CYCLES`, then *parks*: it is
//! queued once, on a binary heap, at its own clock. Popping the heap
//! resumes the SM whose wake-up is earliest (ties by SM id), so when
//! every SM is stalled the global clock skips directly to the next
//! ready event instead of idling through empty cycles. MSHR,
//! store-buffer, and outstanding-atomic back-pressure is tracked by the
//! completion rings inside [`MemorySystem`]; their completion times are
//! what warp `ready_at` values (and therefore SM clocks) are made of.
//! See `docs/performance.md` for why this reproduces the stepped loop's
//! statistics bit-exactly.

use crate::config::HwConfig;
use crate::mem::MemorySystem;
use crate::params::ParamsError;
use crate::params::SystemParams;
use crate::sm::{Sm, Step};
use crate::stats::{ExecStats, StallClass};
use crate::trace::WarpTrace;
use ggs_trace::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// How far one SM may run ahead of the globally-earliest SM before
/// yielding (keeps shared-state updates near global time order while
/// amortizing scheduling overhead).
const QUANTUM_CYCLES: u64 = 256;

/// How many wake-ups may elapse between wall-clock deadline checks
/// (`Instant::now` is cheap but not free; a power of two keeps the
/// check branch-predictable).
const DEADLINE_CHECK_EVERY: u32 = 64;

/// Watchdog limits on a simulation's work.
///
/// Long-running sweeps (the 36-workload study) use budgets to bound
/// non-converging dynamic workloads and oversized inputs: once a limit
/// is breached the simulation stops *at the limit* and refuses further
/// kernels, and the caller observes [`Simulation::budget_exhausted`].
/// `None` means unlimited (the default), so existing callers are
/// unaffected. The wall-clock limit is not part of the budget: it is
/// set with [`SimulationBuilder::deadline`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Maximum number of kernels (≈ algorithm iterations for the
    /// level-synchronous graph apps) the simulation may execute.
    pub max_kernels: Option<u64>,
    /// Maximum simulated GPU cycles. Enforced *exactly*: SM clocks are
    /// clamped to the limit, so the simulation stops at the breach
    /// cycle itself even though the engine skips idle cycles.
    pub max_cycles: Option<u64>,
}

impl SimBudget {
    /// The unlimited budget (all limits absent).
    pub const UNLIMITED: SimBudget = SimBudget {
        max_kernels: None,
        max_cycles: None,
    };
}

/// Which watchdog limit a simulation ran into: a [`SimBudget`] limit
/// or the [deadline](SimulationBuilder::deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The kernel-count limit was reached.
    Kernels {
        /// Configured limit.
        limit: u64,
        /// Kernels executed when the breach was detected.
        reached: u64,
    },
    /// The simulated-cycle limit was reached. The clock is clamped to
    /// the limit, so `reached == limit` exactly.
    Cycles {
        /// Configured limit.
        limit: u64,
        /// Simulated clock when the breach was detected.
        reached: u64,
    },
    /// The wall-clock deadline expired.
    Deadline {
        /// Simulated clock when the deadline was observed expired.
        reached: u64,
    },
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BudgetBreach::Kernels { limit, reached } => {
                write!(f, "kernel budget exhausted: {reached} of at most {limit}")
            }
            BudgetBreach::Cycles { limit, reached } => write!(
                f,
                "simulated-cycle budget exhausted: {reached} of at most {limit}"
            ),
            BudgetBreach::Deadline { reached } => write!(
                f,
                "wall-clock deadline exhausted at simulated cycle {reached}"
            ),
        }
    }
}

/// Fluent constructor for [`Simulation`]: tracer, budget, deadline,
/// address regions, and (under the `check` feature) the protocol checker are
/// all fixed before the first kernel runs, replacing the former
/// construct-then-mutate sequence.
///
/// ```
/// use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
/// use ggs_sim::engine::{SimBudget, Simulation};
/// use ggs_sim::params::SystemParams;
///
/// let hw = HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf0);
/// let sim = Simulation::builder(SystemParams::default(), hw)
///     .budget(SimBudget {
///         max_kernels: Some(64),
///         ..SimBudget::UNLIMITED
///     })
///     .region("ranks", 0x1000, 4096)
///     .build()?;
/// assert_eq!(sim.budget().max_kernels, Some(64));
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug)]
pub struct SimulationBuilder<'t> {
    params: SystemParams,
    hw: HwConfig,
    tracer: Tracer<'t>,
    budget: SimBudget,
    deadline: Option<Instant>,
    regions: Vec<(String, u64, u64)>,
    #[cfg(feature = "check")]
    checker: bool,
}

impl<'t> SimulationBuilder<'t> {
    /// Injects a trace sink handle. The engine, every SM, and the
    /// memory system emit structured events to it (see
    /// [`ggs_trace::TraceEvent`] for the schema).
    pub fn tracer(mut self, tracer: Tracer<'t>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs a watchdog budget (see [`SimBudget`]). Limits apply to
    /// the simulation's cumulative kernel count and clock, not per
    /// kernel.
    pub fn budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the wall-clock deadline (`None`, the default, for none).
    /// It is checked at kernel boundaries and inside the event loop
    /// (every `DEADLINE_CHECK_EVERY` wake-ups), so a hung kernel is
    /// abandoned mid-flight instead of running to completion first.
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Registers a named address region for per-data-structure
    /// attribution (GSI-style; see [`crate::stats::RegionStats`]).
    /// May be called once per region.
    pub fn region(mut self, name: impl Into<String>, base: u64, bytes: u64) -> Self {
        self.regions.push((name.into(), base, bytes));
        self
    }

    /// Enables the dynamic protocol invariant checker from the first
    /// kernel (see [`crate::check`]).
    #[cfg(feature = "check")]
    pub fn checker(mut self) -> Self {
        self.checker = true;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Any [`ParamsError`] of [`SystemParams::validate`]: the parameters
    /// are checked here, because the cache and memory system divide by
    /// and index with them.
    pub fn build(self) -> Result<Simulation<'t>, ParamsError> {
        self.params.validate()?;
        let mut mem = MemorySystem::with_tracer(&self.params, self.hw, self.tracer);
        for (name, base, bytes) in self.regions {
            mem.register_region(name, base, bytes);
        }
        #[cfg(feature = "check")]
        if self.checker {
            mem.enable_protocol_checker();
        }
        Ok(Simulation {
            params: self.params,
            hw: self.hw,
            mem,
            stats: ExecStats::default(),
            clock: 0,
            tracer: self.tracer,
            budget: self.budget,
            deadline: self.deadline,
            breach: None,
        })
    }
}

/// A multi-kernel simulation of one workload on one hardware
/// configuration.
///
/// Cache contents, DeNovo ownership, and statistics persist across
/// [`Simulation::run_kernel`] calls, as they do on the simulated machine;
/// call [`Simulation::finish`] to retrieve the final [`ExecStats`].
///
/// Construct via [`Simulation::new`] (bare) or [`Simulation::builder`]
/// (tracer, budget, deadline, regions, checker). See the crate-level
/// documentation for an end-to-end example.
///
/// The lifetime parameter is the borrow of an injected
/// [`ggs_trace::TraceSink`]; [`Simulation::new`] leaves tracing off and
/// the lifetime unconstrained.
#[derive(Debug)]
pub struct Simulation<'t> {
    params: SystemParams,
    hw: HwConfig,
    mem: MemorySystem<'t>,
    stats: ExecStats,
    clock: u64,
    tracer: Tracer<'t>,
    budget: SimBudget,
    deadline: Option<Instant>,
    breach: Option<BudgetBreach>,
}

impl<'t> Simulation<'t> {
    /// Creates a simulation of `params` hardware under configuration
    /// `hw`, with tracing off, no budget and no deadline — the same as
    /// `Simulation::builder(params, hw).build()`.
    ///
    /// # Errors
    ///
    /// As [`SimulationBuilder::build`].
    pub fn new(params: SystemParams, hw: HwConfig) -> Result<Self, ParamsError> {
        Self::builder(params, hw).build()
    }

    /// Starts building a simulation of `params` hardware under
    /// configuration `hw` (see [`SimulationBuilder`]).
    pub fn builder(params: SystemParams, hw: HwConfig) -> SimulationBuilder<'t> {
        SimulationBuilder {
            params,
            hw,
            tracer: Tracer::off(),
            budget: SimBudget::UNLIMITED,
            deadline: None,
            regions: Vec::new(),
            #[cfg(feature = "check")]
            checker: false,
        }
    }

    /// The configured watchdog budget (unlimited by default).
    pub fn budget(&self) -> SimBudget {
        self.budget
    }

    /// Whether a budget limit has been breached. Once set, every
    /// subsequent [`Simulation::run_kernel`] call is ignored, so partial
    /// statistics stay valid for reporting.
    pub fn budget_exhausted(&self) -> bool {
        self.breach.is_some()
    }

    /// The first budget breach observed, if any.
    pub fn budget_breach(&self) -> Option<BudgetBreach> {
        self.breach
    }

    /// Latches a breach if the budget is exceeded at the current clock /
    /// kernel count / wall time. Called at kernel boundaries (the cycle
    /// and deadline limits are additionally enforced inside the event
    /// loop, so `reached` is exact under cycle-skipping).
    fn check_budget(&mut self) {
        if self.breach.is_some() {
            return;
        }
        if let Some(limit) = self.budget.max_kernels {
            if self.stats.kernels >= limit {
                self.breach = Some(BudgetBreach::Kernels {
                    limit,
                    reached: self.stats.kernels,
                });
                return;
            }
        }
        if let Some(limit) = self.budget.max_cycles {
            if self.clock >= limit {
                self.breach = Some(BudgetBreach::Cycles {
                    limit,
                    reached: self.clock,
                });
                return;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.breach = Some(BudgetBreach::Deadline {
                    reached: self.clock,
                });
            }
        }
    }

    /// The injected trace handle (off unless one was passed to
    /// [`SimulationBuilder::tracer`]).
    pub fn tracer(&self) -> Tracer<'t> {
        self.tracer
    }

    /// The hardware configuration under simulation.
    pub fn hw(&self) -> HwConfig {
        self.hw
    }

    /// Per-region attribution collected so far, as `(name, stats)`
    /// pairs in base-address order.
    pub fn region_stats(&self) -> Vec<(String, crate::stats::RegionStats)> {
        self.mem.region_stats()
    }

    /// The system parameters under simulation.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Executes one kernel launch to completion (or to the budget
    /// boundary, whichever comes first).
    ///
    /// Empty kernels (no threads) are ignored entirely.
    ///
    /// # Errors
    ///
    /// [`ParamsError::GeometryMismatch`] if `kernel` was packed for
    /// another warp size or line size than this simulation's params;
    /// nothing runs then.
    pub fn run_kernel(&mut self, kernel: &WarpTrace) -> Result<(), ParamsError> {
        kernel.check_geometry(&self.params)?;
        if kernel.num_threads() == 0 {
            return Ok(());
        }
        self.check_budget();
        if self.breach.is_some() {
            return Ok(());
        }
        let kernel_seq = self.stats.kernels;
        self.stats.kernels += 1;
        if self.tracer.enabled() {
            // Round boundary: the pre-launch clock marks where the host
            // submitted this iteration's kernel.
            self.tracer.emit(&TraceEvent::Iteration {
                round: kernel_seq,
                cycle: self.clock,
            });
        }
        let counters_before = self.mem.counters;
        let flits_before = self.mem.noc_flit_total();
        let hard_stop = self.budget.max_cycles;

        // Kernel launch overhead: all SMs idle. A cycle budget clamps
        // the launch itself — the breach cycle can fall inside it.
        let launch = self.params.kernel_launch_cycles;
        if let Some(limit) = hard_stop {
            if self.clock + launch >= limit {
                let idle = limit - self.clock;
                self.clock = limit;
                self.stats
                    .breakdown
                    .record(StallClass::Idle, idle * self.params.num_sms as u64);
                self.stats.total_cycles = self.clock;
                self.check_budget();
                return Ok(());
            }
        }
        self.clock += launch;
        self.stats
            .breakdown
            .record(StallClass::Idle, launch * self.params.num_sms as u64);

        // Launch acquire: self-invalidate every L1 (owned DeNovo lines
        // survive inside `MemorySystem`).
        self.mem.begin_kernel();

        let start = self.clock;
        let num_blocks = kernel.num_blocks();
        if self.tracer.enabled() {
            self.tracer.emit(&TraceEvent::KernelBegin {
                kernel: kernel_seq,
                cycle: start,
                blocks: num_blocks,
                threads: kernel.num_threads(),
            });
        }
        let num_blocks = num_blocks as usize;
        let mut sms: Vec<Sm<'_>> = (0..self.params.num_sms)
            .map(|id| {
                Sm::new(
                    id,
                    start,
                    self.hw.consistency,
                    self.params.max_blocks_per_sm,
                )
                .with_tracer(self.tracer)
                .with_hard_stop(hard_stop)
            })
            .collect();

        let mut next_block = 0usize;

        // Initial block distribution, round-robin over SMs.
        'fill: loop {
            let mut any = false;
            for sm in sms.iter_mut() {
                if next_block >= num_blocks {
                    break 'fill;
                }
                if sm.has_capacity() {
                    sm.assign_block(kernel.block(next_block));
                    next_block += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        // Event loop: each SM is queued at most once, at its own clock;
        // popping resumes the earliest one (ties by id, so the
        // interleaving is deterministic).
        let mut wakeups: BinaryHeap<Reverse<(u64, u32)>> =
            sms.iter().map(|sm| Reverse((sm.now, sm.id()))).collect();

        let deadline = self.deadline;
        let mut events: u32 = 0;
        let mut deadline_hit: Option<u64> = None;
        let mut finish_times = vec![0u64; sms.len()];
        while let Some(Reverse((t, id))) = wakeups.pop() {
            if let Some(d) = deadline {
                events = events.wrapping_add(1);
                if events.is_multiple_of(DEADLINE_CHECK_EVERY) && Instant::now() >= d {
                    deadline_hit = Some(t);
                    break;
                }
            }
            let idx = id as usize;
            let sm = &mut sms[idx];
            let horizon = t + QUANTUM_CYCLES;
            loop {
                // Feed new blocks whenever capacity frees up.
                while sm.has_capacity() && next_block < num_blocks {
                    sm.assign_block(kernel.block(next_block));
                    next_block += 1;
                }
                match sm.step(&mut self.mem) {
                    Step::Issued | Step::Waited => {
                        if sm.now > horizon {
                            // Quantum exhausted: park until the SM's
                            // local clock, letting its peers catch up.
                            wakeups.push(Reverse((sm.now, id)));
                            break;
                        }
                    }
                    Step::Stopped => {
                        // Cycle budget: the SM sits exactly on the
                        // boundary and never resumes.
                        finish_times[idx] = sm.now;
                        break;
                    }
                    Step::Drained => {
                        if next_block < num_blocks {
                            continue; // more blocks to fetch
                        }
                        finish_times[idx] = sm.finish_time(&self.mem);
                        break;
                    }
                }
            }
        }

        if let Some(reached) = deadline_hit {
            // Wall-clock abort mid-kernel: keep the statistics recorded
            // so far, pin the clock at the abort cycle, and latch.
            self.abort_kernel(&sms, reached, kernel_seq, &counters_before, flits_before);
            self.breach = Some(BudgetBreach::Deadline { reached });
            return Ok(());
        }

        let mut kernel_end = finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(start)
            .max(self.mem.global_drain())
            .max(start);
        if let Some(limit) = hard_stop {
            // The drain tail (outstanding memory completions) may lie
            // past the budget boundary; the budget cuts it off so the
            // breach is observed at exactly the limit.
            kernel_end = kernel_end.min(limit);
            for f in finish_times.iter_mut() {
                *f = (*f).min(limit);
            }
        }

        // Aggregate per-SM breakdowns plus end-of-kernel idle time.
        for (i, sm) in sms.iter().enumerate() {
            self.stats.breakdown += sm.stats;
            let fin = finish_times[i].max(sm.now);
            // Cycles between an SM's own completion and the kernel end
            // are idle; cycles between `now` and its own outstanding
            // completions are sync drain.
            if finish_times[i] > sm.now {
                self.stats
                    .breakdown
                    .record(StallClass::Sync, finish_times[i] - sm.now);
            }
            self.stats
                .breakdown
                .record(StallClass::Idle, kernel_end - fin);
        }

        self.clock = kernel_end;
        self.stats.total_cycles = self.clock;
        self.stats.mem = self.mem.counters;

        if self.tracer.enabled() {
            self.emit_kernel_end(kernel_seq, kernel_end, &counters_before, flits_before);
        }
        // Re-check after the kernel so a breach (now at exactly the
        // budget cycle, thanks to the clamping above) is visible to the
        // caller immediately, not only on the next launch attempt.
        self.check_budget();
        Ok(())
    }

    /// Mid-kernel abort bookkeeping (wall-clock deadline): fold in the
    /// partial per-SM statistics and close the kernel's trace span at
    /// `reached`.
    fn abort_kernel(
        &mut self,
        sms: &[Sm<'_>],
        reached: u64,
        kernel_seq: u64,
        counters_before: &crate::stats::MemCounters,
        flits_before: u64,
    ) {
        for sm in sms {
            self.stats.breakdown += sm.stats;
        }
        self.clock = reached;
        self.stats.total_cycles = reached;
        self.stats.mem = self.mem.counters;
        if self.tracer.enabled() {
            self.emit_kernel_end(kernel_seq, reached, counters_before, flits_before);
        }
    }

    /// Per-kernel counter deltas (the memory system accumulates across
    /// kernels) plus the end-of-kernel marker.
    fn emit_kernel_end(
        &self,
        kernel_seq: u64,
        kernel_end: u64,
        counters_before: &crate::stats::MemCounters,
        flits_before: u64,
    ) {
        let d = self.mem.counters.delta(counters_before);
        self.tracer.emit(&TraceEvent::CacheCounters {
            kernel: kernel_seq,
            cycle: kernel_end,
            l1_hits: d.l1_hits,
            l1_misses: d.l1_misses,
            l2_hits: d.l2_hits,
            l2_misses: d.l2_misses,
            l1_atomics: d.l1_atomics,
            l2_atomics: d.l2_atomics,
            registrations: d.registrations,
            remote_transfers: d.remote_transfers,
            invalidations: d.invalidations,
        });
        self.tracer.emit(&TraceEvent::NocTotals {
            kernel: kernel_seq,
            cycle: kernel_end,
            line_transfers: d.noc_line_transfers,
            control_messages: d.noc_control_messages,
            flits: self.mem.noc_flit_total().saturating_sub(flits_before),
        });
        self.tracer.emit(&TraceEvent::KernelEnd {
            kernel: kernel_seq,
            cycle: kernel_end,
        });
    }

    /// Read-only view of the statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Consumes the simulation and returns the final statistics.
    pub fn finish(self) -> ExecStats {
        self.stats
    }
}

/// Protocol invariant checking (`check` feature): forwarding to
/// [`MemorySystem`]'s checker so tools never need the memory system
/// directly. See [`crate::check`].
#[cfg(feature = "check")]
impl<'t> Simulation<'t> {
    /// Drains the protocol violations recorded so far.
    pub fn take_protocol_violations(&mut self) -> Vec<crate::check::ProtocolViolation> {
        self.mem.take_protocol_violations()
    }

    /// Audits the full cache/ownership state at the current simulated
    /// cycle (per-access checks only cover touched lines).
    pub fn audit_protocol(&mut self) {
        self.mem.audit(self.clock);
    }

    /// Fault-injection hooks for negative tests (see [`DebugHooks`]).
    pub fn debug_hooks(&mut self) -> DebugHooks<'_, 't> {
        DebugHooks { mem: &mut self.mem }
    }
}

/// Fault-injection handle for negative protocol-checker tests (`check`
/// feature only): deliberately corrupt coherence state and assert the
/// checker notices. Obtained via [`Simulation::debug_hooks`], so the
/// injection surface stays off the plain simulation API.
#[cfg(feature = "check")]
#[derive(Debug)]
pub struct DebugHooks<'a, 't> {
    mem: &'a mut MemorySystem<'t>,
}

#[cfg(feature = "check")]
impl DebugHooks<'_, '_> {
    /// Plants `line` as Owned in SM `sm`'s L1 behind the ownership
    /// registry's back: see [`MemorySystem::debug_force_owned`].
    pub fn force_owned(&mut self, sm: u32, line: u64) {
        self.mem.debug_force_owned(sm, line);
    }

    /// Makes the next acquire skip its self-invalidation: see
    /// [`MemorySystem::debug_skip_next_invalidation`].
    pub fn skip_next_invalidation(&mut self) {
        self.mem.debug_skip_next_invalidation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceKind, ConsistencyModel};
    use crate::trace::{KernelTrace, MicroOp};

    /// Packs `kernel` for `sim`'s geometry and runs it.
    fn run(sim: &mut Simulation<'_>, kernel: &KernelTrace) {
        let packed = WarpTrace::pack(kernel, sim.params()).unwrap();
        sim.run_kernel(&packed).unwrap();
    }

    fn hw(c: CoherenceKind, m: ConsistencyModel) -> HwConfig {
        HwConfig::new(c, m)
    }

    fn compute_kernel(threads: usize, ops: usize) -> KernelTrace {
        KernelTrace::new(vec![vec![MicroOp::compute(2); ops]; threads], 256).unwrap()
    }

    #[test]
    fn tracer_emits_kernel_lifecycle_events() {
        use ggs_trace::{Tracer, WriterSink};

        let sink = WriterSink::jsonl(Vec::new());
        {
            let mut sim = Simulation::builder(
                SystemParams::default(),
                hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
            )
            .tracer(Tracer::new(&sink, 100))
            .build()
            .unwrap();
            // Loads so the cache counters are non-trivial.
            let threads = (0..256u64)
                .map(|t| vec![MicroOp::load(t * 4), MicroOp::compute(4)])
                .collect();
            run(&mut sim, &KernelTrace::new(threads, 256).unwrap());
            sim.finish();
        }
        let text = String::from_utf8(sink.into_inner()).expect("jsonl is utf-8");
        for kind in [
            "iteration",
            "kernel_begin",
            "kernel_end",
            "cache_counters",
            "noc_totals",
        ] {
            assert!(text.contains(kind), "missing event kind {kind}:\n{text}");
        }
    }

    #[test]
    fn kernels_packed_for_another_geometry_are_refused() {
        let narrow = SystemParams {
            warp_size: 16,
            ..SystemParams::default()
        };
        let packed = WarpTrace::pack(&compute_kernel(64, 2), &narrow).unwrap();
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        assert_eq!(
            sim.run_kernel(&packed),
            Err(ParamsError::GeometryMismatch {
                what: "warp_size",
                trace: 16,
                params: 32
            })
        );
        assert_eq!(sim.stats().kernels, 0);
        assert_eq!(sim.stats().total_cycles(), 0);
    }

    #[test]
    fn empty_kernel_is_free() {
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        run(&mut sim, &KernelTrace::new(Vec::new(), 256).unwrap());
        assert_eq!(sim.finish().total_cycles(), 0);
    }

    #[test]
    fn single_block_runs_on_one_sm() {
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        run(&mut sim, &compute_kernel(256, 4));
        let stats = sim.finish();
        assert!(stats.total_cycles() > 0);
        assert!(stats.breakdown.get(StallClass::Busy) > 0);
        // 14 of 15 SMs were idle the whole kernel.
        assert!(stats.breakdown.get(StallClass::Idle) > 0);
    }

    #[test]
    fn more_blocks_take_longer() {
        let run = |blocks: usize| {
            let mut sim = Simulation::new(
                SystemParams::default(),
                hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
            )
            .unwrap();
            run(&mut sim, &compute_kernel(256 * blocks, 16));
            sim.finish().total_cycles()
        };
        // Compare past the fixed kernel-launch overhead.
        let launch = SystemParams::default().kernel_launch_cycles;
        let t15 = run(15) - launch;
        let t150 = run(150) - launch;
        assert!(t150 > t15 * 5, "t15={t15} t150={t150}");
    }

    #[test]
    fn blocks_spread_over_sms() {
        // 15 blocks of heavy compute should take barely longer than 1.
        let run = |blocks: usize| {
            let mut sim = Simulation::new(
                SystemParams::default(),
                hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
            )
            .unwrap();
            run(&mut sim, &compute_kernel(256 * blocks, 64));
            sim.finish().total_cycles()
        };
        let t1 = run(1);
        let t15 = run(15);
        assert!(
            t15 < t1 * 2,
            "parallel blocks should overlap: t1={t1} t15={t15}"
        );
    }

    #[test]
    fn kernel_budget_stops_further_launches() {
        let mut sim = Simulation::builder(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .budget(SimBudget {
            max_kernels: Some(2),
            ..SimBudget::UNLIMITED
        })
        .build()
        .unwrap();
        for _ in 0..10 {
            run(&mut sim, &compute_kernel(256, 4));
        }
        assert!(sim.budget_exhausted());
        assert!(matches!(
            sim.budget_breach(),
            Some(BudgetBreach::Kernels { limit: 2, .. })
        ));
        assert_eq!(sim.stats().kernels, 2, "third and later launches ignored");
    }

    #[test]
    fn cycle_budget_breaches_at_exactly_the_limit() {
        // The limit falls inside the kernel launch overhead: the clock
        // must stop at the limit itself, not at the end of the launch.
        let mut sim = Simulation::builder(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .budget(SimBudget {
            max_cycles: Some(1),
            ..SimBudget::UNLIMITED
        })
        .build()
        .unwrap();
        run(&mut sim, &compute_kernel(256, 4));
        assert_eq!(sim.stats().kernels, 1);
        assert_eq!(
            sim.budget_breach(),
            Some(BudgetBreach::Cycles {
                limit: 1,
                reached: 1
            })
        );
        let clock_after = sim.stats().total_cycles();
        assert_eq!(clock_after, 1, "the clock stops exactly at the limit");
        run(&mut sim, &compute_kernel(256, 4));
        assert_eq!(sim.stats().kernels, 1);
        assert_eq!(sim.stats().total_cycles(), clock_after);
    }

    #[test]
    fn cycle_budget_is_exact_under_cycle_skipping() {
        // Memory-bound kernel: warps stall for long latencies, so the
        // engine's stall jumps would overshoot a mid-stall limit if the
        // skip target were not clamped to the budget boundary.
        let params = SystemParams::default();
        let limit = params.kernel_launch_cycles + 150;
        let scattered_loads = KernelTrace::new(
            (0..256u64)
                .map(|t| (0..8).map(|k| MicroOp::load((t * 8 + k) * 4096)).collect())
                .collect(),
            256,
        )
        .unwrap();
        let mut sim = Simulation::builder(params, hw(CoherenceKind::Gpu, ConsistencyModel::Drf0))
            .budget(SimBudget {
                max_cycles: Some(limit),
                ..SimBudget::UNLIMITED
            })
            .build()
            .unwrap();
        run(&mut sim, &scattered_loads);
        assert_eq!(
            sim.budget_breach(),
            Some(BudgetBreach::Cycles {
                limit,
                reached: limit
            }),
            "breach is detected at the exact breach cycle"
        );
        let stats = sim.finish();
        assert_eq!(stats.total_cycles(), limit);
    }

    #[test]
    fn expired_deadline_blocks_the_next_launch() {
        let mut sim = Simulation::builder(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .deadline(Some(Instant::now()))
        .build()
        .unwrap();
        run(&mut sim, &compute_kernel(256, 4));
        assert_eq!(sim.stats().kernels, 0, "deadline already expired");
        assert!(matches!(
            sim.budget_breach(),
            Some(BudgetBreach::Deadline { .. })
        ));
    }

    #[test]
    fn deadline_aborts_a_running_kernel() {
        // A deadline slightly in the future expires while the (large)
        // kernel is in flight; the engine must abandon it mid-kernel
        // rather than running it to completion first. The margin is
        // wall-clock-sensitive, so retry with doubling margins: too
        // tight and the launch itself is refused (kernels == 0), too
        // loose and the kernel completes (no breach).
        // Packed before the clock starts, so the margins time the run.
        let kernel =
            WarpTrace::pack(&compute_kernel(256 * 256, 64), &SystemParams::default()).unwrap();
        let mut outcomes = Vec::new();
        for micros in [50u64, 200, 800, 3200, 12800] {
            let mut sim = Simulation::builder(
                SystemParams::default(),
                hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
            )
            .deadline(Some(
                Instant::now() + std::time::Duration::from_micros(micros),
            ))
            .build()
            .unwrap();
            sim.run_kernel(&kernel).unwrap();
            let aborted_mid_kernel = sim.stats().kernels == 1
                && matches!(sim.budget_breach(), Some(BudgetBreach::Deadline { .. }));
            if aborted_mid_kernel {
                return;
            }
            outcomes.push((micros, sim.stats().kernels, sim.budget_breach()));
        }
        panic!("no margin aborted mid-kernel: {outcomes:?}");
    }

    #[test]
    fn unlimited_budget_never_breaches() {
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        for _ in 0..4 {
            run(&mut sim, &compute_kernel(256, 2));
        }
        assert!(!sim.budget_exhausted());
        assert!(sim.budget_breach().is_none());
        assert_eq!(sim.stats().kernels, 4);
    }

    #[test]
    fn budget_breach_display_names_the_limit() {
        let k = BudgetBreach::Kernels {
            limit: 5,
            reached: 5,
        };
        assert!(k.to_string().contains("kernel budget"));
        let c = BudgetBreach::Cycles {
            limit: 100,
            reached: 100,
        };
        assert!(c.to_string().contains("cycle budget"));
        let d = BudgetBreach::Deadline { reached: 42 };
        assert!(d.to_string().contains("deadline"));
    }

    #[test]
    fn stats_accumulate_across_kernels() {
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        run(&mut sim, &compute_kernel(256, 4));
        let t1 = sim.stats().total_cycles();
        run(&mut sim, &compute_kernel(256, 4));
        let t2 = sim.stats().total_cycles();
        assert!(t2 > t1);
        assert_eq!(sim.stats().kernels, 2);
    }

    #[test]
    fn fully_stalled_sm_parks_and_is_rearmed_by_completion() {
        // One warp on one SM issues a cold load whose miss latency is
        // pushed far past the scheduling quantum, so the SM goes fully
        // memory-stalled and must park on the wake-up heap; only the
        // completion event re-arms it to issue its second slot. If the
        // re-arm were lost the busy count would stop at 1 and the tail
        // accounting below could not close.
        let params = SystemParams {
            mem_base_cycles: 10_000,
            ..SystemParams::default()
        };
        let launch = params.kernel_launch_cycles;
        let kernel = KernelTrace::new(
            vec![vec![MicroOp::load(0x10_000), MicroOp::compute(2)]; 32],
            32,
        )
        .unwrap();
        let mut sim = Simulation::builder(params, hw(CoherenceKind::Gpu, ConsistencyModel::Drf0))
            .build()
            .unwrap();
        run(&mut sim, &kernel);
        let stats = sim.finish();
        let b = &stats.breakdown;
        assert_eq!(b.get(StallClass::Busy), 2, "both slots issued");
        let data = b.get(StallClass::Data);
        assert!(data >= 9_000, "park spans the miss latency, got {data}");
        // The issuing SM is never idle (it finishes last), so its
        // cycles from launch to kernel end partition exactly into
        // busy + data-stall + tail sync.
        assert_eq!(
            b.get(StallClass::Busy) + data + b.get(StallClass::Sync),
            stats.total_cycles() - launch,
        );
    }

    #[test]
    fn drained_sms_skip_clock_to_next_wake_up() {
        // Two single-warp blocks on two SMs, each stalling far past the
        // quantum on a compute dependency. Both SMs park, the heap
        // holds wake-ups at two distinct future cycles, and with every
        // SM stalled the clock must skip straight to each event: the
        // final cycle count is exact, with no rounding to quantum or
        // sampling boundaries.
        let params = SystemParams::default();
        let launch = params.kernel_launch_cycles;
        let mut threads = vec![vec![MicroOp::compute(50_000), MicroOp::compute(2)]; 32];
        threads.extend(vec![
            vec![MicroOp::compute(60_000), MicroOp::compute(2)];
            32
        ]);
        let kernel = KernelTrace::new(threads, 32).unwrap();
        let mut sim = Simulation::builder(params, hw(CoherenceKind::Gpu, ConsistencyModel::Drf0))
            .build()
            .unwrap();
        run(&mut sim, &kernel);
        let stats = sim.finish();
        // Per SM: issue (1) + comp stall + issue (1) + 2-cycle tail;
        // the kernel ends at the slower SM's tail.
        assert_eq!(stats.total_cycles(), launch + 1 + 60_000 + 1 + 2);
        assert_eq!(stats.breakdown.get(StallClass::Busy), 4);
        assert_eq!(stats.breakdown.get(StallClass::Comp), 110_000);
    }

    #[test]
    fn many_blocks_refill_in_waves() {
        // 64 blocks over 15 SMs with capacity 8: every block must run.
        let kernel = compute_kernel(256 * 64, 2);
        let mut sim = Simulation::new(
            SystemParams::default(),
            hw(CoherenceKind::Gpu, ConsistencyModel::Drf0),
        )
        .unwrap();
        run(&mut sim, &kernel);
        let stats = sim.finish();
        // Busy cycles equal the total number of issued warp instructions:
        // 64 blocks x 8 warps x 2 slots.
        assert_eq!(stats.breakdown.get(StallClass::Busy), 64 * 8 * 2);
    }

    #[test]
    fn denovo_retains_ownership_across_kernels() {
        let store_kernel = KernelTrace::new(
            (0..256u64).map(|t| vec![MicroOp::store(t * 4)]).collect(),
            256,
        )
        .unwrap();
        let atomic_kernel = KernelTrace::new(
            (0..256u64).map(|t| vec![MicroOp::atomic(t * 4)]).collect(),
            256,
        )
        .unwrap();
        let run = |c: CoherenceKind| {
            let mut sim =
                Simulation::new(SystemParams::default(), hw(c, ConsistencyModel::Drf1)).unwrap();
            run(&mut sim, &store_kernel);
            run(&mut sim, &atomic_kernel);
            sim.finish()
        };
        let dn = run(CoherenceKind::DeNovo);
        let gp = run(CoherenceKind::Gpu);
        assert!(dn.mem.l1_atomics > 0, "DeNovo should hit owned lines");
        assert_eq!(gp.mem.l1_atomics, 0, "GPU coherence never does L1 atomics");
    }
}
