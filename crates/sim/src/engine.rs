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

use crate::config::{ConsistencyModel, HwConfig};
use crate::mem::MemorySystem;
use crate::params::ParamsError;
use crate::params::SystemParams;
use crate::sm::{Sm, Step};
use crate::stats::{ExecStats, StallClass};
use crate::trace::{BlockWindow, KernelShape, WarpTrace};
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

/// Fluent constructor for [`Simulation`]: tracer, deadline, address
/// regions, and (under the `check` feature) the protocol checker are
/// all fixed before the first kernel runs, replacing the former
/// construct-then-mutate sequence.
///
/// ```
/// use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
/// use ggs_sim::engine::Simulation;
/// use ggs_sim::params::SystemParams;
/// use std::time::{Duration, Instant};
///
/// let hw = HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf0);
/// let sim = Simulation::builder(SystemParams::default(), hw)
///     .deadline(Some(Instant::now() + Duration::from_secs(60)))
///     .region("ranks", 0x1000, 4096)
///     .build()?;
/// assert_eq!(sim.deadline_breach(), None);
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug)]
pub struct SimulationBuilder<'t> {
    params: SystemParams,
    hw: HwConfig,
    tracer: Tracer<'t>,
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

    /// Sets the wall-clock deadline (`None`, the default, for none),
    /// the only limit on a simulation's work. It is checked at kernel
    /// boundaries and inside the event loop (every
    /// `DEADLINE_CHECK_EVERY` wake-ups), so a hung kernel is abandoned
    /// mid-flight instead of running to completion first.
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
            deadline: self.deadline,
            breach: None,
            run: None,
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
/// (tracer, deadline, regions, checker). See the crate-level
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
    deadline: Option<Instant>,
    /// Simulated cycle at which the deadline was observed expired.
    breach: Option<u64>,
    /// The kernel run paused between windows, if one is in flight.
    run: Option<KernelRun<'t>>,
}

impl<'t> Simulation<'t> {
    /// Creates a simulation of `params` hardware under configuration
    /// `hw`, with tracing off and no deadline — the same as
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
            deadline: None,
            regions: Vec::new(),
            #[cfg(feature = "check")]
            checker: false,
        }
    }

    /// The simulated cycle at which the wall-clock deadline was
    /// observed expired, if it was. Once set, every subsequent
    /// [`Simulation::run_kernel`] or [`Simulation::run_window`] call is
    /// ignored, so partial statistics stay valid for reporting.
    pub fn deadline_breach(&self) -> Option<u64> {
        self.breach
    }

    /// Re-arms the wall-clock deadline (`None` for none) for the
    /// kernels still to run. A breach already latched stays latched.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Latches a breach if the deadline has passed. Called at kernel
    /// boundaries (the event loop also checks it mid-kernel).
    fn check_deadline(&mut self) {
        if self.breach.is_none() && self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.breach = Some(self.clock);
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

    /// Executes one kernel launch to completion (or until the deadline
    /// passes, whichever comes first): the one-window case of
    /// [`Self::run_window`], with the whole kernel as the window.
    ///
    /// Empty kernels (no threads) are ignored entirely.
    ///
    /// # Errors
    ///
    /// As [`Self::run_window`].
    pub fn run_kernel(&mut self, kernel: &WarpTrace) -> Result<(), ParamsError> {
        self.run_window(kernel.as_window())
    }

    /// Runs one window of a kernel's blocks: the first window launches
    /// the kernel, and the run *pauses* when block dispatch needs a
    /// block past the window, to go on when the next window is handed
    /// over. The window holding the kernel's last block runs it to
    /// completion (or until the deadline passes). Dispatch, and so every
    /// statistic, is the same whatever the windows are: a kernel run in
    /// windows equals the same kernel run whole ([`Self::run_kernel`]).
    ///
    /// A paused run holds each resident block's records and nothing
    /// else of the kernel, so the caller may drop a window once it has
    /// run. [`Self::fork`] copies a paused run with the rest of the
    /// state.
    ///
    /// Empty kernels (no threads) are ignored entirely, and so is every
    /// window once the deadline has been breached.
    ///
    /// # Errors
    ///
    /// Nothing runs on an error:
    /// - [`ParamsError::GeometryMismatch`] if the window was packed for
    ///   another warp size or line size than this simulation's params;
    /// - [`ParamsError::WindowOutOfOrder`] if the window is not the next
    ///   one of the kernel in flight (or, with none in flight, not a
    ///   kernel's first).
    pub fn run_window(&mut self, window: &BlockWindow) -> Result<(), ParamsError> {
        let shape = window.shape();
        shape.check_geometry(&self.params)?;
        if self.breach.is_some() {
            return Ok(());
        }
        let expected = match &self.run {
            Some(run) if run.shape == shape => run.next_block,
            Some(_) => u64::MAX,
            None => 0,
        };
        if window.first_block() != expected {
            return Err(ParamsError::WindowOutOfOrder {
                expected,
                got: window.first_block(),
            });
        }
        let Some(mut run) = self.run.take().or_else(|| self.launch(shape)) else {
            return Ok(());
        };
        match run.advance(&mut self.mem, window, self.deadline) {
            Advance::Paused => self.run = Some(run),
            Advance::Done => self.end_kernel(run),
            Advance::Aborted(reached) => {
                // Wall-clock abort mid-kernel: keep the statistics
                // recorded so far, pin the clock at the abort cycle, and
                // latch.
                self.abort_kernel(&run, reached);
                self.breach = Some(reached);
            }
        }
        Ok(())
    }

    /// Launches a kernel of `shape`: charges the launch overhead,
    /// self-invalidates the L1s and sets up the SMs. `None` for an empty
    /// kernel or once the deadline has passed.
    fn launch(&mut self, shape: KernelShape) -> Option<KernelRun<'t>> {
        if shape.num_threads == 0 {
            return None;
        }
        self.check_deadline();
        if self.breach.is_some() {
            return None;
        }
        let seq = self.stats.kernels;
        self.stats.kernels += 1;
        if self.tracer.enabled() {
            // Round boundary: the pre-launch clock marks where the host
            // submitted this iteration's kernel.
            self.tracer.emit(&TraceEvent::Iteration {
                round: seq,
                cycle: self.clock,
            });
        }
        let counters_before = self.mem.counters;
        let flits_before = self.mem.noc_flit_total();

        // Kernel launch overhead: all SMs idle.
        let launch = self.params.kernel_launch_cycles;
        self.clock += launch;
        self.stats
            .breakdown
            .record(StallClass::Idle, launch * self.params.num_sms as u64);

        // Launch acquire: self-invalidate every L1 (owned DeNovo lines
        // survive inside `MemorySystem`).
        self.mem.begin_kernel();

        let start = self.clock;
        if self.tracer.enabled() {
            self.tracer.emit(&TraceEvent::KernelBegin {
                kernel: seq,
                cycle: start,
                blocks: shape.num_blocks(),
                threads: shape.num_threads,
            });
        }
        let sms: Vec<Sm<'t>> = (0..self.params.num_sms)
            .map(|id| {
                Sm::new(id, start, self.hw.consistency, &self.params).with_tracer(self.tracer)
            })
            .collect();
        Some(KernelRun {
            shape,
            seq,
            start,
            counters_before,
            flits_before,
            finish_times: vec![0; sms.len()],
            sms,
            next_block: 0,
            phase: Phase::Fill { sm: 0, any: false },
            wakeups: BinaryHeap::new(),
            events: 0,
        })
    }

    /// End-of-kernel bookkeeping for a run that dispatched every block
    /// and drained: the kernel ends when the last SM finishes (or the
    /// memory system drains), and each SM's cycles after its own finish
    /// are idle.
    fn end_kernel(&mut self, run: KernelRun<'t>) {
        let KernelRun {
            sms,
            finish_times,
            start,
            ..
        } = &run;
        let kernel_end = finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(*start)
            .max(self.mem.global_drain())
            .max(*start);

        // Aggregate per-SM breakdowns plus end-of-kernel idle time.
        for (sm, &finish) in sms.iter().zip(finish_times) {
            self.stats.breakdown += sm.stats;
            let fin = finish.max(sm.now);
            // Cycles between an SM's own completion and the kernel end
            // are idle; cycles between `now` and its own outstanding
            // completions are sync drain.
            if finish > sm.now {
                self.stats
                    .breakdown
                    .record(StallClass::Sync, finish - sm.now);
            }
            self.stats
                .breakdown
                .record(StallClass::Idle, kernel_end - fin);
        }

        self.clock = kernel_end;
        self.stats.total_cycles = self.clock;
        self.stats.mem = self.mem.counters;

        if self.tracer.enabled() {
            self.emit_kernel_end(&run, kernel_end);
        }
        // Re-check after the kernel so a breach is visible to the caller
        // immediately, not only on the next launch attempt.
        self.check_deadline();
    }

    /// Mid-kernel abort bookkeeping (wall-clock deadline): fold in the
    /// partial per-SM statistics and close the kernel's trace span at
    /// `reached`.
    fn abort_kernel(&mut self, run: &KernelRun<'t>, reached: u64) {
        for sm in &run.sms {
            self.stats.breakdown += sm.stats;
        }
        self.clock = reached;
        self.stats.total_cycles = reached;
        self.stats.mem = self.mem.counters;
        if self.tracer.enabled() {
            self.emit_kernel_end(run, reached);
        }
    }

    /// Per-kernel counter deltas (the memory system accumulates across
    /// kernels) plus the end-of-kernel marker.
    fn emit_kernel_end(&self, run: &KernelRun<'t>, kernel_end: u64) {
        let kernel_seq = run.seq;
        let d = self.mem.counters.delta(&run.counters_before);
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
            flits: self.mem.noc_flit_total().saturating_sub(run.flits_before),
        });
        self.tracer.emit(&TraceEvent::KernelEnd {
            kernel: kernel_seq,
            cycle: kernel_end,
        });
    }

    /// Forks the simulation: the copy holds the same cache, ownership,
    /// queue and statistics state, the same deadline and the same paused
    /// kernel run, if one is in flight ([`Self::run_window`]), and runs
    /// every slot still to issue under consistency model `model`.
    ///
    /// The model is consulted only when an atomic issues, so on a prefix
    /// whose atomics `model` and this simulation's model treat alike
    /// (they share a class under the prefix's
    /// [`AtomicMix`](crate::config::AtomicMix), see
    /// [`ConsistencyModel::class_representative`]), the fork is in
    /// exactly the state a fresh simulation under `model` would reach
    /// on that prefix. Between the windows of a kernel, the prefix is
    /// every block dispatched so far.
    pub fn fork(&self, model: ConsistencyModel) -> Simulation<'t> {
        let mut mem = self.mem.clone();
        mem.set_consistency(model);
        let mut run = self.run.clone();
        for sm in run.iter_mut().flat_map(|run| &mut run.sms) {
            sm.set_consistency(model);
        }
        Simulation {
            params: self.params.clone(),
            hw: HwConfig::new(self.hw.coherence, model),
            mem,
            stats: self.stats.clone(),
            clock: self.clock,
            tracer: self.tracer,
            deadline: self.deadline,
            breach: self.breach,
            run,
        }
    }

    /// `true` while a kernel run is paused between windows
    /// ([`Self::run_window`]).
    pub fn kernel_in_flight(&self) -> bool {
        self.run.is_some()
    }

    /// Heap bytes held by the simulator state between kernels (the
    /// memory system's caches, line and word maps and queues); the
    /// per-kernel SM state, and the records of the blocks it holds, are
    /// freed when each kernel ends. Grows with
    /// the lines and words the run touched, not with the span of its
    /// address space.
    pub fn heap_bytes(&self) -> u64 {
        self.mem.heap_bytes()
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

/// One kernel in flight: its SMs, the wake-up heap and block dispatch,
/// paused between windows.
#[derive(Debug, Clone)]
struct KernelRun<'t> {
    shape: KernelShape,
    /// The kernel's index among the simulation's kernels.
    seq: u64,
    /// The cycle the kernel's first block could issue (after launch).
    start: u64,
    counters_before: crate::stats::MemCounters,
    flits_before: u64,
    sms: Vec<Sm<'t>>,
    /// Each SM's finish time, set once it has drained for good.
    finish_times: Vec<u64>,
    /// The next block to dispatch.
    next_block: u64,
    phase: Phase,
    /// SM wake-ups, each SM at most once, at its own clock.
    wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    /// Wake-ups popped, for the deadline check's stride.
    events: u32,
}

/// Where a [`KernelRun`]'s dispatch is, so a run paused for want of a
/// block resumes at the very step it stopped at.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The initial round-robin distribution: the next SM offered a
    /// block, and whether the current round placed one.
    Fill { sm: usize, any: bool },
    /// The event loop: `Some((id, horizon))` while SM `id` is mid
    /// quantum, with the horizon it runs ahead to.
    Run(Option<(u32, u64)>),
}

/// How [`KernelRun::advance`] stopped.
#[derive(Debug)]
enum Advance {
    /// Dispatch needs a block past the window.
    Paused,
    /// Every block dispatched and every SM drained.
    Done,
    /// The deadline passed at the given cycle.
    Aborted(u64),
}

impl KernelRun<'_> {
    /// Runs the kernel with the blocks of `window` until dispatch needs
    /// one past it, the kernel ends, or `deadline` passes.
    fn advance(
        &mut self,
        mem: &mut MemorySystem<'_>,
        window: &BlockWindow,
        deadline: Option<Instant>,
    ) -> Advance {
        let num_blocks = self.shape.num_blocks();
        let end = window.end_block();
        let sms = &mut self.sms;

        // Initial block distribution, round-robin over SMs.
        if let Phase::Fill { mut sm, mut any } = self.phase {
            loop {
                if sm == sms.len() {
                    if !any {
                        break;
                    }
                    (sm, any) = (0, false);
                }
                if self.next_block >= num_blocks {
                    break;
                }
                if sms[sm].has_capacity() {
                    if self.next_block == end {
                        self.phase = Phase::Fill { sm, any };
                        return Advance::Paused;
                    }
                    sms[sm].assign_block(window.block(self.next_block));
                    self.next_block += 1;
                    any = true;
                }
                sm += 1;
            }
            self.wakeups = sms.iter().map(|sm| Reverse((sm.now, sm.id()))).collect();
            self.phase = Phase::Run(None);
        }

        // Event loop: each SM is queued at most once, at its own clock;
        // popping resumes the earliest one (ties by id, so the
        // interleaving is deterministic).
        loop {
            let (id, horizon) = match self.phase {
                Phase::Run(Some(resume)) => resume,
                _ => {
                    let Some(Reverse((t, id))) = self.wakeups.pop() else {
                        return Advance::Done;
                    };
                    if let Some(d) = deadline {
                        self.events = self.events.wrapping_add(1);
                        if self.events.is_multiple_of(DEADLINE_CHECK_EVERY) && Instant::now() >= d {
                            return Advance::Aborted(t);
                        }
                    }
                    (id, t + QUANTUM_CYCLES)
                }
            };
            self.phase = Phase::Run(None);
            let idx = id as usize;
            let sm = &mut sms[idx];
            loop {
                // Feed new blocks whenever capacity frees up.
                while sm.has_capacity() && self.next_block < num_blocks {
                    if self.next_block == end {
                        self.phase = Phase::Run(Some((id, horizon)));
                        return Advance::Paused;
                    }
                    sm.assign_block(window.block(self.next_block));
                    self.next_block += 1;
                }
                match sm.step(mem) {
                    Step::Issued | Step::Waited => {
                        if sm.now > horizon {
                            // Quantum exhausted: park until the SM's
                            // local clock, letting its peers catch up.
                            self.wakeups.push(Reverse((sm.now, id)));
                            break;
                        }
                    }
                    Step::Drained => {
                        if self.next_block < num_blocks {
                            continue; // more blocks to fetch
                        }
                        self.finish_times[idx] = sm.finish_time(mem);
                        break;
                    }
                }
            }
        }
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
    fn windows_run_only_in_kernel_order() {
        use crate::trace::{BlockWindow, KernelSource};
        // One SM holding one block: two blocks a window.
        let params = SystemParams {
            num_sms: 1,
            max_blocks_per_sm: 1,
            ..SystemParams::default()
        };
        let mut emit = |_: u32, ops: &mut Vec<MicroOp>| ops.push(MicroOp::compute(2));
        let windows: Vec<BlockWindow> = KernelSource::new(6 * 32, 32, &mut emit)
            .windows(&params)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(windows.len(), 3);
        let mut sim =
            Simulation::new(params, hw(CoherenceKind::Gpu, ConsistencyModel::Drf0)).unwrap();
        let out_of_order = |expected, got| Err(ParamsError::WindowOutOfOrder { expected, got });
        assert_eq!(sim.run_window(&windows[1]), out_of_order(0, 2));
        sim.run_window(&windows[0]).unwrap();
        assert!(sim.kernel_in_flight());
        assert_eq!(sim.run_window(&windows[2]), out_of_order(2, 4));
        sim.run_window(&windows[1]).unwrap();
        sim.run_window(&windows[2]).unwrap();
        assert!(!sim.kernel_in_flight());
        assert_eq!(sim.stats().kernels, 1);
        assert_eq!(sim.stats().breakdown.get(StallClass::Busy), 6);
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
        assert_eq!(sim.deadline_breach(), Some(0));
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
            let aborted_mid_kernel = sim.stats().kernels == 1 && sim.deadline_breach().is_some();
            if aborted_mid_kernel {
                return;
            }
            outcomes.push((micros, sim.stats().kernels, sim.deadline_breach()));
        }
        panic!("no margin aborted mid-kernel: {outcomes:?}");
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
    fn a_fork_after_an_atomic_free_prefix_equals_a_fresh_run() {
        // Kernel 0 issues no atomics, so every consistency model times
        // it alike; kernel 1 mixes fire-and-forget and value-returning
        // atomics on contended words, so the models part ways there.
        let plain = KernelTrace::new(
            (0..512u64)
                .map(|t| {
                    vec![
                        MicroOp::load(t * 4),
                        MicroOp::store(0x8000 + t * 4),
                        MicroOp::compute(2),
                    ]
                })
                .collect(),
            256,
        )
        .unwrap();
        let atomics = KernelTrace::new(
            (0..512u64)
                .map(|t| {
                    vec![
                        MicroOp::load(0x8000 + t * 4),
                        MicroOp::atomic(0x2_0000 + (t % 16) * 4),
                        MicroOp::atomic(0x2_0000 + (t * 7 % 16) * 4),
                        MicroOp::compute(2),
                        MicroOp::atomic_returning(0x3_0000 + (t % 8) * 4),
                    ]
                })
                .collect(),
            256,
        )
        .unwrap();
        let params = SystemParams::default();
        let (plain, atomics) = (
            WarpTrace::pack(&plain, &params).unwrap(),
            WarpTrace::pack(&atomics, &params).unwrap(),
        );
        assert_eq!(plain.atomic_mix(), crate::config::AtomicMix::None);
        assert_eq!(
            atomics.atomic_mix(),
            crate::config::AtomicMix::SomeFireAndForget
        );
        for coherence in [CoherenceKind::Gpu, CoherenceKind::DeNovo] {
            let fresh = |model| {
                let mut sim = Simulation::new(params.clone(), hw(coherence, model)).unwrap();
                sim.run_kernel(&plain).unwrap();
                sim.run_kernel(&atomics).unwrap();
                sim.finish()
            };
            let fresh: Vec<ExecStats> = ConsistencyModel::ALL.into_iter().map(fresh).collect();
            assert!(
                fresh[0] != fresh[1] && fresh[1] != fresh[2],
                "kernel 1 must tell the models apart under {coherence:?}"
            );
            for (a, base) in ConsistencyModel::ALL.into_iter().enumerate() {
                let mut prefix = Simulation::new(params.clone(), hw(coherence, base)).unwrap();
                prefix.run_kernel(&plain).unwrap();
                for (b, model) in ConsistencyModel::ALL.into_iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let mut fork = prefix.fork(model);
                    assert_eq!(fork.hw(), hw(coherence, model));
                    fork.run_kernel(&atomics).unwrap();
                    assert_eq!(
                        fork.finish(),
                        fresh[b],
                        "{coherence:?}: {base:?} forked to {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn simulator_state_grows_with_touched_words_not_the_address_space() {
        // A push kernel on a graph with a large edge array and few
        // vertices: its atomics hit 1024 vertex words laid out after a
        // 64 MB edge array, of which it reads one line per vertex. The
        // line and word maps must cost about one page per touched
        // window, not a slot for every word below the vertex array
        // (64 MB of them).
        let vertices = 1024u64;
        let ranks = 64 << 20;
        let kernel = KernelTrace::new(
            (0..vertices)
                .map(|v| {
                    vec![
                        MicroOp::load(v * 64 * 1024),
                        MicroOp::atomic(ranks + v * 4),
                        MicroOp::atomic(ranks + (v * 37 % vertices) * 4),
                    ]
                })
                .collect(),
            256,
        )
        .unwrap();
        for coherence in [CoherenceKind::Gpu, CoherenceKind::DeNovo] {
            let mut sim = Simulation::new(
                SystemParams::default(),
                hw(coherence, ConsistencyModel::DrfRlx),
            )
            .unwrap();
            let fixed = sim.heap_bytes();
            run(&mut sim, &kernel);
            let grown = sim.heap_bytes() - fixed;
            assert!(
                grown < 512 << 10,
                "{coherence:?}: {grown} bytes for {vertices} words (fixed {fixed})"
            );
            // A fork copies the state (at no spare capacity).
            let fork = sim.fork(ConsistencyModel::Drf1).heap_bytes();
            assert!(fork <= sim.heap_bytes() && fork > fixed, "{fork}");
        }
    }

    #[test]
    fn dense_atomic_words_grow_the_state_by_their_chains() {
        // A push kernel whose atomics hit 64 Ki consecutive vertex words.
        // Their 8-byte chains fill sixteen 32 KB pages (512 KB); DeNovo
        // adds one 64 KB page for the 4096 registered lines.
        let words = 64u64 << 10;
        let kernel = KernelTrace::new(
            (0..words).map(|v| vec![MicroOp::atomic(v * 4)]).collect(),
            256,
        )
        .unwrap();
        for coherence in [CoherenceKind::Gpu, CoherenceKind::DeNovo] {
            let mut sim = Simulation::new(
                SystemParams::default(),
                hw(coherence, ConsistencyModel::DrfRlx),
            )
            .unwrap();
            let fixed = sim.heap_bytes();
            run(&mut sim, &kernel);
            let grown = sim.heap_bytes() - fixed;
            assert!(
                grown < 1 << 20,
                "{coherence:?}: {grown} bytes for {words} atomic words (fixed {fixed})"
            );
        }
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
