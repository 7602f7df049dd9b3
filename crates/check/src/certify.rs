//! Whole-application certification: the static analyzer of [`crate::drf`]
//! applied to every kernel of a workload, plus the per-direction Table I
//! contract checks and the dynamic protocol-checked simulation run.
//!
//! Directions promise (Table I of the paper):
//!
//! * **Pull** — dense local updates, sparse remote *reads*, no atomics:
//!   every written address is touched by exactly one thread and no
//!   kernel issues an atomic.
//! * **Push** — dense local reads, sparse remote *atomics*: shared
//!   addresses are only ever updated through atomics (plain writes stay
//!   thread-private).
//! * **Push+Pull** (CC) — racy-but-benign reads with marked updates:
//!   only the DRF rule itself is enforced (no plain-plain races).

use std::fmt;

use ggs_apps::{AppKind, Workload};
use ggs_graph::Csr;
use ggs_model::Propagation;
use ggs_sim::check::ProtocolViolation;
use ggs_sim::config::{ConsistencyModel, HwConfig};
use ggs_sim::params::{ParamsError, SystemParams};
use ggs_sim::Simulation;

use crate::drf::{analyze_kernel, AccessClass, KernelAnalysis, Violation, ViolationKind};

/// Thread-block size used for certification traces (the same default
/// the simulation study uses).
pub const TB_SIZE: u32 = 256;

/// The certification result for one application in one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReport {
    /// Application.
    pub app: AppKind,
    /// Propagation direction analyzed.
    pub prop: Propagation,
    /// Consistency model the synchronization counts were computed
    /// under.
    pub consistency: ConsistencyModel,
    /// Kernels in the launch sequence.
    pub kernels: usize,
    /// Distinct addresses analyzed, summed over kernels.
    pub addresses: usize,
    /// Address counts per [`AccessClass`] (summed over kernels),
    /// indexed by [`AccessClass::index`].
    pub class_counts: [usize; 5],
    /// Total atomic ops across kernels.
    pub atomic_ops: u64,
    /// Atomics acting as fences under `consistency` (see
    /// [`crate::drf::KernelAnalysis::fence_atomics`]).
    pub fence_atomics: u64,
    /// Atomics blocking their warp under `consistency`.
    pub blocking_atomics: u64,
    /// Total plain stores across kernels.
    pub plain_writes: u64,
    /// Every race and contract violation found.
    pub violations: Vec<Violation>,
}

impl AppReport {
    /// `true` if the workload honors both the DRF rule and its
    /// direction's contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for tables and logs.
    pub fn summary_line(&self) -> String {
        let classes: Vec<String> = AccessClass::ALL
            .iter()
            .filter(|c| self.class_counts[c.index()] > 0)
            .map(|c| format!("{} {}", c.label(), self.class_counts[c.index()]))
            .collect();
        format!(
            "{:4} {:9} {:6}: {:3} kernels, {:6} addrs [{}], {} atomics ({} fence, {} blocking) — {}",
            self.app.mnemonic(),
            self.prop.to_string(),
            self.consistency.to_string(),
            self.kernels,
            self.addresses,
            classes.join(", "),
            self.atomic_ops,
            self.fence_atomics,
            self.blocking_atomics,
            if self.is_clean() {
                "CLEAN".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

impl fmt::Display for AppReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary_line())
    }
}

/// Applies the per-direction contract to one kernel's analysis,
/// attributing addresses to `regions` (`(name, base, bytes)` entries
/// from the workload's memory map).
///
/// [`Propagation::Hybrid`] names no contract: each kernel of a hybrid
/// run must be checked under the direction it actually ran, which
/// [`Workload::produce`] hands over with the kernel (as
/// [`certify_workload`] does). Passing it yields one
/// [`ViolationKind::UnresolvedDirection`].
pub fn check_kernel_contract(
    analysis: &KernelAnalysis,
    prop: Propagation,
    kernel: usize,
    regions: &[(String, u64, u64)],
) -> Vec<Violation> {
    let region_of = |addr: u64| -> Option<String> {
        regions
            .iter()
            .find(|(_, base, bytes)| addr >= *base && addr < base + bytes)
            .map(|(name, _, _)| name.clone())
    };
    let mut out = Vec::new();
    for race in &analysis.races {
        out.push(Violation {
            kernel,
            addr: race.addr,
            region: region_of(race.addr),
            kind: ViolationKind::Race,
            detail: format!(
                "{} ({} plain writes, {} plain reads; threads {:?})",
                race.conflict_line(),
                race.plain_writes,
                race.plain_reads,
                race.threads
            ),
        });
    }
    match prop {
        Propagation::Push => {
            for (addr, threads) in &analysis.shared_plain_writes {
                out.push(Violation {
                    kernel,
                    addr: *addr,
                    region: region_of(*addr),
                    kind: ViolationKind::PushPlainSharedWrite,
                    detail: format!("plain write among threads {threads:?}"),
                });
            }
        }
        Propagation::Pull => {
            for (addr, threads) in &analysis.shared_plain_writes {
                out.push(Violation {
                    kernel,
                    addr: *addr,
                    region: region_of(*addr),
                    kind: ViolationKind::PullRemoteWrite,
                    detail: format!("written address shared by threads {threads:?}"),
                });
            }
            if analysis.atomic_ops > 0 {
                let addr = analysis.atomic_addr_sample.unwrap_or(0);
                out.push(Violation {
                    kernel,
                    addr,
                    region: region_of(addr),
                    kind: ViolationKind::PullAtomic,
                    detail: format!("{} atomics in a pull kernel", analysis.atomic_ops),
                });
            }
        }
        // CC's dynamic direction admits benign monotonic reads and
        // marked updates: only the DRF rule applies.
        Propagation::PushPull => {}
        Propagation::Hybrid => out.push(Violation {
            kernel,
            addr: 0,
            region: None,
            kind: ViolationKind::UnresolvedDirection,
            detail: "hybrid names no contract: check the direction the kernel ran".to_owned(),
        }),
    }
    out
}

/// Statically certifies one application in one direction on `graph`:
/// analyzes every kernel trace and checks the direction's contract.
///
/// Every kernel is checked under the Table I contract of the direction
/// [`Workload::produce`] reports it ran. For [`Propagation::Hybrid`]
/// that differs from kernel to kernel: push kernels must confine plain
/// writes, pull kernels must be atomic-free with thread-private writes.
///
/// # Errors
///
/// A [`ParamsError`] if a kernel's per-thread trace cannot be built
/// (see [`KernelSource::into_trace`](ggs_sim::trace::KernelSource::into_trace)).
pub fn certify_workload(
    app: AppKind,
    graph: &Csr,
    prop: Propagation,
    consistency: ConsistencyModel,
) -> Result<AppReport, ParamsError> {
    let graph = app.weighted(graph);
    let workload = Workload::new(app, &graph);
    let regions = workload.memory_map();
    let mut report = AppReport {
        app,
        prop,
        consistency,
        kernels: 0,
        addresses: 0,
        class_counts: [0; 5],
        atomic_ops: 0,
        fence_atomics: 0,
        blocking_atomics: 0,
        plain_writes: 0,
        violations: Vec::new(),
    };
    let mut failed = None;
    workload.produce(prop, TB_SIZE, &mut |kernel, dir| {
        if failed.is_some() {
            return;
        }
        let kernel = match kernel.into_trace() {
            Ok(kernel) => kernel,
            Err(e) => {
                failed = Some(e);
                return;
            }
        };
        let analysis = analyze_kernel(&kernel, consistency);
        report.violations.extend(check_kernel_contract(
            &analysis,
            dir,
            report.kernels,
            &regions,
        ));
        report.addresses += analysis.addresses;
        for (total, n) in report.class_counts.iter_mut().zip(analysis.class_counts) {
            *total += n;
        }
        report.atomic_ops += analysis.atomic_ops;
        report.fence_atomics += analysis.fence_atomics;
        report.blocking_atomics += analysis.blocking_atomics;
        report.plain_writes += analysis.plain_writes;
        report.kernels += 1;
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Certifies the full application × direction matrix on `graph`:
/// the paper's six applications plus (optionally) the extension apps,
/// each in every supported direction.
///
/// # Errors
///
/// As [`certify_workload`].
pub fn certify_matrix(
    graph: &Csr,
    consistency: ConsistencyModel,
    include_extended: bool,
) -> Result<Vec<AppReport>, ParamsError> {
    let apps: Vec<AppKind> = AppKind::ALL
        .into_iter()
        .chain(
            include_extended
                .then_some(AppKind::EXTENDED)
                .into_iter()
                .flatten(),
        )
        .collect();
    let mut reports = Vec::new();
    for app in apps {
        for &prop in app.supported_propagations() {
            reports.push(certify_workload(app, graph, prop, consistency)?);
        }
    }
    Ok(reports)
}

/// Runs one workload through the simulator with the dynamic protocol
/// checker enabled, auditing the final cache/ownership state, and
/// returns every invariant violation observed (empty = protocol held).
///
/// # Errors
///
/// A [`ParamsError`] if a kernel cannot be packed for `params` (see
/// [`KernelSource::pack`](ggs_sim::trace::KernelSource::pack)).
pub fn run_protocol_checked(
    app: AppKind,
    graph: &Csr,
    prop: Propagation,
    hw: HwConfig,
    params: &SystemParams,
) -> Result<Vec<ProtocolViolation>, ParamsError> {
    let graph = app.weighted(graph);
    let workload = Workload::new(app, &graph);
    let mut builder = Simulation::builder(params.clone(), hw).checker();
    for (name, base, bytes) in workload.memory_map() {
        builder = builder.region(name, base, bytes);
    }
    let mut sim = builder.build()?;
    let mut failed = None;
    workload.produce(prop, TB_SIZE, &mut |kernel, _| {
        if failed.is_none() {
            failed = kernel.pack(params).and_then(|k| sim.run_kernel(&k)).err();
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    sim.audit_protocol();
    Ok(sim.take_protocol_violations())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;
    use ggs_sim::trace::MicroOp;
    use ggs_sim::KernelTrace;

    fn ring(n: u32) -> Csr {
        GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn every_workload_is_clean_on_a_ring() {
        let g = ring(64);
        for report in certify_matrix(&g, ConsistencyModel::Drf1, true).unwrap() {
            assert!(
                report.is_clean(),
                "{}\n{:#?}",
                report.summary_line(),
                report.violations
            );
            assert!(report.kernels > 0, "{}", report.summary_line());
        }
    }

    #[test]
    fn pull_reports_no_atomics_and_push_reports_some() {
        let g = ring(64);
        for app in AppKind::ALL {
            for &prop in app.supported_propagations() {
                let r = certify_workload(app, &g, prop, ConsistencyModel::Drf0).unwrap();
                if prop == Propagation::Pull {
                    assert_eq!(r.atomic_ops, 0, "{}", r.summary_line());
                }
            }
        }
        let push_pr =
            certify_workload(AppKind::Pr, &g, Propagation::Push, ConsistencyModel::Drf0).unwrap();
        assert!(push_pr.atomic_ops > 0);
        // Under DRF0 every atomic fences; the counts must agree.
        assert_eq!(push_pr.fence_atomics, push_pr.atomic_ops);
    }

    #[test]
    fn contract_rejects_plain_shared_write_in_push() {
        let kernel = KernelTrace::new(
            vec![vec![MicroOp::store(64)], vec![MicroOp::atomic(64)]],
            256,
        )
        .unwrap();
        let analysis = analyze_kernel(&kernel, ConsistencyModel::Drf1);
        let v = check_kernel_contract(&analysis, Propagation::Push, 0, &[]);
        assert!(
            v.iter()
                .any(|x| x.kind == ViolationKind::PushPlainSharedWrite),
            "{v:?}"
        );
    }

    #[test]
    fn contract_rejects_atomics_and_remote_writes_in_pull() {
        let kernel = KernelTrace::new(
            vec![
                vec![MicroOp::atomic(0), MicroOp::store(64)],
                vec![MicroOp::atomic(0), MicroOp::load(64)],
            ],
            256,
        )
        .unwrap();
        let analysis = analyze_kernel(&kernel, ConsistencyModel::Drf1);
        let v = check_kernel_contract(&analysis, Propagation::Pull, 3, &[("lv".into(), 0, 128)]);
        assert!(
            v.iter().any(|x| x.kind == ViolationKind::PullAtomic),
            "{v:?}"
        );
        // store(64) vs load(64) from different threads is also a race.
        assert!(v.iter().any(|x| x.kind == ViolationKind::Race), "{v:?}");
        assert!(v.iter().all(|x| x.kernel == 3));
        assert!(v.iter().all(|x| x.region.as_deref() == Some("lv")), "{v:?}");
    }

    #[test]
    fn pushpull_applies_only_the_drf_rule() {
        let kernel = KernelTrace::new(
            vec![
                vec![MicroOp::store(0), MicroOp::atomic(64)],
                vec![MicroOp::atomic(64), MicroOp::load(0)],
            ],
            256,
        )
        .unwrap();
        let analysis = analyze_kernel(&kernel, ConsistencyModel::DrfRlx);
        let v = check_kernel_contract(&analysis, Propagation::PushPull, 0, &[]);
        // store(0)/load(0) race is reported; the atomics are fine.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Race);
    }

    /// Three-tier fanout: root -> 4 hubs -> dense middle tier -> sparse
    /// tail. BFS frontiers are sparse at levels 0-1 (push) and dense at
    /// level 2 (pull), so a hybrid run realizes both directions.
    fn fanout(n: u32) -> Csr {
        let hubs = 4u32;
        let mid_end = n - 32;
        let mut edges: Vec<(u32, u32)> = (1..=hubs).map(|h| (0, h)).collect();
        for h in 1..=hubs {
            for v in hubs + 1..mid_end {
                edges.push((h, v));
            }
        }
        for v in mid_end..n {
            edges.push((hubs + 1 + (v % (mid_end - hubs - 1)), v));
        }
        GraphBuilder::new(n)
            .edges(edges)
            .symmetric(true)
            .build()
            .unwrap()
    }

    #[test]
    fn hybrid_certifies_each_kernel_under_its_realized_direction() {
        let g = fanout(256);
        let mut directions = Vec::new();
        Workload::new(AppKind::Bfs, &g).produce(Propagation::Hybrid, TB_SIZE, &mut |_, dir| {
            directions.push(dir)
        });
        // The run must actually mix directions, otherwise this test
        // degenerates to a static certification.
        assert!(directions.contains(&Propagation::Push), "{directions:?}");
        assert!(directions.contains(&Propagation::Pull), "{directions:?}");

        let r = certify_workload(
            AppKind::Bfs,
            &g,
            Propagation::Hybrid,
            ConsistencyModel::Drf1,
        )
        .unwrap();
        assert!(r.is_clean(), "{}\n{:#?}", r.summary_line(), r.violations);
        assert_eq!(r.kernels, directions.len(), "{}", r.summary_line());
        // The push half uses atomics; under a whole-run pull contract
        // those kernels would be flagged, so a clean report is evidence
        // the checker followed the realized schedule.
        assert!(r.atomic_ops > 0, "{}", r.summary_line());
    }

    #[test]
    fn contract_check_rejects_raw_hybrid() {
        let kernel = KernelTrace::new(vec![vec![MicroOp::load(0)]], 256).unwrap();
        let analysis = analyze_kernel(&kernel, ConsistencyModel::Drf1);
        let v = check_kernel_contract(&analysis, Propagation::Hybrid, 2, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::UnresolvedDirection);
        assert_eq!(v[0].kernel, 2);
    }

    #[test]
    fn protocol_run_is_clean_for_a_real_workload() {
        let g = ring(64);
        let params = SystemParams::default();
        for hw in HwConfig::all() {
            let violations =
                run_protocol_checked(AppKind::Cc, &g, Propagation::PushPull, hw, &params).unwrap();
            assert_eq!(violations, Vec::new(), "under {hw}");
        }
    }
}
