//! The one delivery path from a kernel stream to simulations: several
//! configurations of one stream simulated in *lockstep*.
//!
//! A [`Lockstep`] holds one live simulation, a *lane*, per consistency
//! class of its configurations. The stream is produced once; each
//! kernel is packed once, in windows of consecutive thread blocks
//! ([`KernelSource::windows`]), and every lane runs a window
//! ([`Simulation::run_window`]) before the next is packed, so a window's
//! records are shared by all lanes and a block's records are freed once
//! every lane has dispatched it and no SM still holds it. Beside the
//! simulators, the lockstep holds one window and the earlier blocks
//! still resident.
//!
//! Cells that differ only in a consistency model their stream cannot
//! observe (see
//! [`ConsistencyModel::class_representative`](ggs_sim::ConsistencyModel::class_representative))
//! share a lane. A stream's [`AtomicMix`] is only known when it ends, so
//! the lanes open on the first window's mix, and when a later window
//! raises it and splits a class, the lane of that class is forked
//! ([`Simulation::fork`]), mid-kernel if need be, before any lane
//! dispatches a block of that window. The model is observed only when an
//! atomic issues, and no atomic of the raised kind has issued yet, so
//! each fork is exactly where a fresh simulation of its class would be.
//!
//! Every lane runs each window behind its own `catch_unwind`, and its
//! wall-clock limit is charged only with its own simulation time: before
//! each window its deadline is re-armed with what is left
//! ([`Simulation::set_deadline`]). A lane that panics or breaches leaves
//! the lockstep with its typed error, and the others go on.
//!
//! The study runner drives one lockstep per stream group; a single run
//! ([`crate::experiment::run_workload`]) is a one-lane lockstep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ggs_apps::Workload;
use ggs_model::{Propagation, SystemConfig};
use ggs_sim::trace::{BlockWatch, BlockWindow, KernelSource, WarpTrace};
use ggs_sim::{AtomicMix, Simulation, SystemParams, Tracer};

use crate::error::GgsError;

/// One live simulation of a lockstep: the cells of one consistency
/// class under the atomic mix seen so far, as positions into the
/// lockstep's configurations. The simulation runs under the first
/// member's configuration.
#[derive(Debug)]
pub(crate) struct Lane<'t> {
    pub(crate) sim: Simulation<'t>,
    pub(crate) members: Vec<usize>,
    /// Wall-clock time spent simulating this lane's windows, including
    /// the prefix it shared before a fork: what its cells' limit is
    /// charged with.
    pub(crate) spent: Duration,
}

/// How each class of a finished lockstep ended: its members, in order,
/// and its simulation, or the error it left with.
pub(crate) type Settled<'t> = Vec<(Vec<usize>, Result<Simulation<'t>, GgsError>)>;

/// The lanes of one kernel stream's configurations, and the classes
/// already settled by leaving with a failure.
#[derive(Debug)]
pub(crate) struct Lockstep<'a, 't> {
    params: &'a SystemParams,
    /// The configurations, by position.
    configs: Vec<SystemConfig>,
    limit: Option<Duration>,
    tracer: Tracer<'t>,
    /// Address regions registered with every lane's simulation.
    regions: Vec<(String, u64, u64)>,
    /// The maximum [`AtomicMix`] of the windows seen so far; `None`
    /// before the first window, when no lane is open yet.
    mix: Option<AtomicMix>,
    pub(crate) lanes: Vec<Lane<'t>>,
    settled: Settled<'t>,
    /// The most packed bytes live at once: a window's, plus those of
    /// the earlier blocks still resident when it was packed.
    peak_window_bytes: u64,
}

impl<'a, 't> Lockstep<'a, 't> {
    /// A lockstep of `configs` on `params` hardware, each cell's
    /// simulation limited to `limit` of wall-clock time and traced
    /// through `tracer`.
    pub(crate) fn new(
        params: &'a SystemParams,
        configs: Vec<SystemConfig>,
        limit: Option<Duration>,
        tracer: Tracer<'t>,
    ) -> Self {
        Self {
            params,
            configs,
            limit,
            tracer,
            regions: Vec::new(),
            mix: None,
            lanes: Vec::new(),
            settled: Vec::new(),
            peak_window_bytes: 0,
        }
    }

    /// Registers `regions` (`(name, base, bytes)`) with every lane for
    /// per-region attribution.
    pub(crate) fn regions(mut self, regions: Vec<(String, u64, u64)>) -> Self {
        self.regions = regions;
        self
    }

    /// The most packed bytes live at once so far (see the module docs).
    pub(crate) fn peak_window_bytes(&self) -> u64 {
        self.peak_window_bytes
    }

    /// Splits `members` into classes under `mix`, each in order, the
    /// classes ordered by their first member. A class's key is the
    /// configuration with its consistency model replaced by the class
    /// representative.
    fn classes(configs: &[SystemConfig], members: Vec<usize>, mix: AtomicMix) -> Vec<Vec<usize>> {
        let mut classes: Vec<(SystemConfig, Vec<usize>)> = Vec::new();
        for m in members {
            let mut key = configs[m];
            key.consistency = key.consistency.class_representative(mix);
            match classes.iter_mut().find(|(k, _)| *k == key) {
                Some((_, class)) => class.push(m),
                None => classes.push((key, vec![m])),
            }
        }
        classes.into_iter().map(|(_, class)| class).collect()
    }

    /// Opens one lane per class of every configuration under `mix`.
    fn open(&mut self, mix: AtomicMix) {
        let everyone = (0..self.configs.len()).collect();
        for members in Self::classes(&self.configs, everyone, mix) {
            let hw = self.configs[members[0]].hw();
            let mut builder = Simulation::builder(self.params.clone(), hw).tracer(self.tracer);
            for (name, base, bytes) in &self.regions {
                builder = builder.region(name.clone(), *base, *bytes);
            }
            match builder.build() {
                Ok(sim) => self.lanes.push(Lane {
                    sim,
                    members,
                    spent: Duration::ZERO,
                }),
                Err(e) => self.settled.push((members, Err(e.into()))),
            }
        }
        self.mix = Some(mix);
    }

    /// Re-classes every lane under the raised `mix`. A lane whose
    /// members now fall into several classes keeps its simulation for
    /// the class of its first member and forks it, paused where it is,
    /// for each other class: the members were indistinguishable on the
    /// prefix, so each fork is exactly where that class would be.
    fn split(&mut self, mix: AtomicMix) {
        let mut forks = Vec::new();
        for lane in &mut self.lanes {
            let members = std::mem::take(&mut lane.members);
            let mut classes = Self::classes(&self.configs, members, mix).into_iter();
            lane.members = classes.next().unwrap_or_default();
            for members in classes {
                let model = self.configs[members[0]].consistency;
                forks.push(Lane {
                    sim: lane.sim.fork(model),
                    members,
                    spent: lane.spent,
                });
            }
        }
        self.lanes.extend(forks);
        self.mix = Some(mix);
    }

    /// Feeds one window to every live lane, after opening or splitting
    /// the lanes for its atomics. A lane that fails leaves with its
    /// error; the others go on.
    fn deliver(&mut self, window: &BlockWindow) {
        let mix = window.atomic_mix();
        match self.mix {
            None => self.open(mix),
            Some(seen) if mix > seen => self.split(mix),
            Some(_) => {}
        }
        let limit = self.limit;
        let mut failed = Vec::new();
        self.lanes.retain_mut(|lane| match lane.run(window, limit) {
            Ok(()) => true,
            Err(e) => {
                failed.push((std::mem::take(&mut lane.members), Err(e)));
                false
            }
        });
        self.settled.extend(failed);
    }

    /// Feeds a packed kernel to every live lane, as one window.
    pub(crate) fn step(&mut self, kernel: &WarpTrace) {
        self.deliver(kernel.as_window());
    }

    /// Feeds one kernel to every live lane, window by window: each
    /// window is packed once, run by every lane, and dropped before the
    /// next is packed. Once every lane has left, the rest of the kernel
    /// is emitted unpacked.
    ///
    /// # Errors
    ///
    /// [`GgsError::Params`] if the kernel cannot be packed for the
    /// lockstep's params.
    pub(crate) fn run_kernel(&mut self, kernel: KernelSource<'_>) -> Result<(), GgsError> {
        let mut windows = kernel.windows(self.params)?;
        let mut watch = BlockWatch::default();
        while !self.is_over() {
            let Some(window) = windows.next().transpose()? else {
                break;
            };
            let live = window.heap_bytes() + watch.held_bytes();
            self.peak_window_bytes = self.peak_window_bytes.max(live);
            self.deliver(&window);
            watch.watch(&window);
        }
        Ok(())
    }

    /// Produces `workload`'s stream under `prop` once, feeding each
    /// kernel to the lanes as it comes ([`Self::run_kernel`]). Returns
    /// why the stream could not be produced, if it could not: a kernel
    /// that cannot be packed, or a panic in the producer.
    pub(crate) fn produce(
        &mut self,
        workload: &Workload<'_>,
        prop: Propagation,
    ) -> Option<GgsError> {
        let mut failure = None;
        let tb_size = self.params.tb_size;
        let produced = catch_unwind(AssertUnwindSafe(|| {
            workload.produce(prop, tb_size, &mut |kernel, _| {
                // A kernel left unpacked drains itself when dropped.
                if failure.is_none() && !self.is_over() {
                    failure = self.run_kernel(kernel).err();
                }
            });
        }));
        match produced {
            Ok(()) => failure,
            Err(payload) => Some(GgsError::CellPanic {
                payload: panic_message(payload),
            }),
        }
    }

    /// `true` once lanes are open and every one has left.
    pub(crate) fn is_over(&self) -> bool {
        self.mix.is_some() && self.lanes.is_empty()
    }

    /// Ends the lockstep: every class settles, each live lane with its
    /// simulation. If the stream could not be produced, every live lane
    /// instead fails with `failure`, together as one entry.
    pub(crate) fn finish(mut self, failure: Option<GgsError>) -> Settled<'t> {
        if self.mix.is_none() {
            // No window came: every cell is in its class under no atomics.
            self.open(AtomicMix::None);
        }
        let lanes = std::mem::take(&mut self.lanes);
        match failure {
            None => {
                let live = lanes.into_iter().map(|lane| (lane.members, Ok(lane.sim)));
                self.settled.extend(live);
            }
            Some(e) => {
                let mut members: Vec<usize> = lanes.into_iter().flat_map(|l| l.members).collect();
                members.sort_unstable();
                if !members.is_empty() {
                    self.settled.push((members, Err(e)));
                }
            }
        }
        self.settled
    }
}

impl Lane<'_> {
    /// Runs one window behind its own `catch_unwind`, with the deadline
    /// re-armed to what is left of `limit` after the lane's simulation
    /// time so far.
    fn run(&mut self, window: &BlockWindow, limit: Option<Duration>) -> Result<(), GgsError> {
        if let Some(limit) = limit {
            let left = limit.saturating_sub(self.spent);
            self.sim.set_deadline(Instant::now().checked_add(left));
        }
        let start = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| self.sim.run_window(window)));
        self.spent += start.elapsed();
        match ran {
            Err(payload) => Err(GgsError::CellPanic {
                payload: panic_message(payload),
            }),
            Ok(Err(e)) => Err(e.into()),
            Ok(Ok(())) if self.sim.deadline_breach().is_some() => {
                Err(GgsError::deadline(limit.unwrap_or_default()))
            }
            Ok(Ok(())) => Ok(()),
        }
    }
}

/// The message of a panic caught at a lane or cell boundary: its
/// payload when that is a string, else a placeholder.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_sim::trace::{KernelTrace, MicroOp, PackedBlock};

    #[test]
    fn live_packed_bytes_stay_within_a_window_and_the_resident_blocks() {
        // Two SMs holding one block each: four blocks a window. The
        // kernel has 60 blocks of skewed sizes, so a whole kernel is
        // many windows' worth of records.
        let params = SystemParams {
            num_sms: 2,
            max_blocks_per_sm: 1,
            tb_size: 64,
            ..SystemParams::default()
        };
        let window_blocks = params.window_blocks() as usize;
        let blocks = 60;
        assert!(blocks >= 10 * window_blocks);
        let ops = |t: u32| {
            let (block, lane) = (u64::from(t) / 64, u64::from(t) % 64);
            let len = 1 + (block * 7 % 5) * (lane % 3);
            (0..len)
                .map(|k| MicroOp::load((block * 4096 + lane * 64 + k) * 4))
                .collect::<Vec<_>>()
        };
        let threads: Vec<Vec<MicroOp>> = (0..64 * blocks as u32).map(ops).collect();
        let whole = WarpTrace::pack(&KernelTrace::new(threads, 64).unwrap(), &params).unwrap();
        let sizes: Vec<u64> = whole
            .as_window()
            .blocks()
            .iter()
            .map(PackedBlock::heap_bytes)
            .collect();
        // A window: its blocks and its block table. Resident: as many of
        // the largest blocks as both lanes' SMs hold.
        let table = (window_blocks * std::mem::size_of::<PackedBlock>()) as u64;
        let window = sizes
            .windows(window_blocks)
            .map(|w| w.iter().sum::<u64>())
            .max();
        let mut largest = sizes.clone();
        largest.sort_unstable_by(|a, b| b.cmp(a));
        let resident: u64 = largest.iter().take(2 * 2).sum();
        let bound = window.unwrap_or_default() + table + resident;
        assert!(whole.heap_bytes() > 3 * bound, "the bound must tell");

        let configs = ["SG1", "SD1"].map(|c| c.parse().unwrap()).to_vec();
        let mut lockstep = Lockstep::new(&params, configs, None, Tracer::off());
        let mut emit = |t: u32, out: &mut Vec<MicroOp>| out.extend(ops(t));
        let kernel = KernelSource::new(64 * blocks as u32, 64, &mut emit);
        lockstep.run_kernel(kernel).unwrap();
        assert_eq!(lockstep.lanes.len(), 2);
        let peak = lockstep.peak_window_bytes();
        assert!(peak > 0 && peak <= bound, "peak {peak}, bound {bound}");
        // And the lanes ran the whole kernel.
        for (_, sim) in lockstep.finish(None) {
            assert_eq!(sim.unwrap().stats().kernels, 1);
        }
    }
}
