//! Literal report digests: absolute values, not equivalences.
//!
//! Every other digest test compares two runs of the same code (event
//! core vs lockstep, worker counts, build paths), so a change that moves
//! both sides alike passes them. These pin the [`ClusterReport`] digest
//! of two small racks to the values recorded before per-node memory
//! reclamation and per-rack workload caching landed; host-side memory
//! work must leave them exactly as they are.
//!
//! * a homogeneous rack where every node runs several tasks of the same
//!   class back to back, so a node reuses one cached workload build and
//!   carries caches and finished thread slots between tasks;
//! * a big/little rack with competitive duplication, loser cancellation
//!   and a fault plan, so `Machine::cancel_all` runs on losing replicas
//!   and a node crash requeues its in-flight task.
//!
//! A deliberate semantic change regenerates both literals and says so
//! in its change log.

use sprint_archsim::config::MachineConfig;
use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultResponse};
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

const HOMOGENEOUS_DIGEST: u64 = 0xd570_67db_2e97_70e2;
const HETERO_FAULTS_DIGEST: u64 = 0xb4a3_38d8_55ea_33fc;

/// Four nodes, eight sobel-A tasks and four kmeans-A tasks in one
/// batch: every node runs at least two tasks of each class it sees.
fn homogeneous_rack() -> ClusterBuilder {
    let mut tasks = ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 8, 8);
    tasks.extend(ClusterTask::batch(WorkloadKind::Kmeans, InputSize::A, 8, 4));
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::greedy_default())
        .tasks(tasks)
        .trace_capacity(0)
}

/// Two 16-core and two 8-core nodes, cheapest-headroom placement,
/// duplicated sobel tasks whose losers are cancelled, and a fault plan
/// with a sensor dropout and a node crash.
fn hetero_faults_rack() -> ClusterBuilder {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let big = MachineConfig::hpca();
    let little = MachineConfig::hpca().with_cores(8);
    let specs = vec![
        NodeSpec::standard(big.clone())
            .with_share_weight(1.5)
            .with_thermal_weight(1.25),
        NodeSpec::standard(little.clone())
            .with_share_weight(0.75)
            .with_thermal_weight(0.8),
        NodeSpec::standard(big)
            .with_share_weight(1.5)
            .with_thermal_weight(1.25),
        NodeSpec::standard(little)
            .with_share_weight(0.75)
            .with_thermal_weight(0.8),
    ];
    let mut tasks = ClusterTask::arrivals(WorkloadKind::Sobel, InputSize::A, 16, 8, 0.0, 60e-6);
    for (i, t) in tasks.iter_mut().enumerate() {
        if i % 2 == 0 {
            *t = t.with_min_cores(16);
        }
    }
    let plan = FaultPlan::new(vec![
        FaultEvent {
            window: 4,
            node: 1,
            kind: FaultKind::SensorDropout,
        },
        FaultEvent {
            window: 10,
            node: 2,
            kind: FaultKind::NodeCrash,
        },
    ])
    .with_retries(3, 16)
    .with_response(FaultResponse::Aware);
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::CompetitiveDuplicate {
            admit_headroom_k: 10.0,
            copies: 2,
            cancel_losers: true,
        })
        .rack_supply(RackSupplyParams::rack(4).time_scaled(3000.0))
        .config(cfg)
        .node_specs(specs)
        .placement(Placement::CheapestHeadroom)
        .tasks(tasks)
        .fault_plan(plan)
        .max_time_s(0.01)
        .trace_capacity(0)
}

fn run_event(builder: ClusterBuilder) -> ClusterReport {
    let mut cluster = EventDrivenCluster::new(builder.build());
    cluster.run_to_completion();
    cluster.report()
}

#[test]
fn homogeneous_rack_digest_is_pinned() {
    let report = run_event(homogeneous_rack());
    assert_eq!(report.completed, 12);
    let per_node = report.outcomes.iter().fold([0usize; 4], |mut n, o| {
        n[o.node] += 1;
        n
    });
    assert!(
        per_node.iter().all(|&n| n >= 2),
        "every node must run several tasks: {per_node:?}"
    );
    assert_eq!(
        report.digest(),
        HOMOGENEOUS_DIGEST,
        "homogeneous rack digest moved: {:#x}",
        report.digest()
    );
}

#[test]
fn hetero_faults_rack_digest_is_pinned() {
    let report = run_event(hetero_faults_rack());
    assert!(report.cancelled_copies > 0, "loser cancellation must fire");
    assert!(report.node_crashes > 0, "the crash must bite");
    assert_eq!(
        report.digest(),
        HETERO_FAULTS_DIGEST,
        "hetero/faults rack digest moved: {:#x}",
        report.digest()
    );
}
