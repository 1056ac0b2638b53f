//! Building and running the simulator for a workload, and checking what
//! it reports.

use std::time::Instant;

use sprint_cluster::prelude::*;
use sprint_facility::prelude::*;

use crate::fleet::{cluster_builder, Workload};
use crate::reference::Reference;

/// Builds the workload's rack on the event-driven core.
pub fn build(spec: &RackSpec) -> EventDrivenCluster {
    EventDrivenCluster::new(cluster_builder(spec).build())
}

/// What a run reports, reduced to what the benchmark measures and checks.
#[derive(Debug, Clone)]
pub struct Summary {
    pub digest: u64,
    pub submitted: usize,
    pub completed: usize,
    pub failed: usize,
    pub outstanding: usize,
    pub drained: bool,
    pub conserved: bool,
    pub makespan_s: f64,
    pub latencies_s: Vec<f64>,
    pub energy_j: f64,
    pub supply_aborts: usize,
    pub fault_counters: [usize; 8],
    pub node_crashes: usize,
    pub cancelled_copies: usize,
}

/// Runs the rack to a terminal outcome and summarises its report.
pub fn run(mut cluster: EventDrivenCluster) -> Summary {
    let outcome = cluster.run_to_completion();
    rack_summary(&cluster.report(), outcome == ClusterOutcome::Drained)
}

/// A timed run is cut into chunks of consecutive steps about this long.
const CHUNK_S: f64 = 2e-3;

/// Runs the rack like [`run`], in chunks of consecutive
/// `EventDrivenCluster::step` calls with one slice of the host-speed
/// reference after each: returns the summary and, per chunk, the host
/// seconds of the chunk and of its slice.
pub fn run_chunked(
    mut cluster: EventDrivenCluster,
    reference: &mut Reference,
) -> (Summary, Vec<(f64, f64)>) {
    let mut chunks = Vec::new();
    let mut t0 = Instant::now();
    let outcome = loop {
        let outcome = cluster.step();
        let dt = t0.elapsed().as_secs_f64();
        if outcome.is_terminal() || dt >= CHUNK_S {
            chunks.push((dt, reference.slice()));
            t0 = Instant::now();
        }
        if outcome.is_terminal() {
            break outcome;
        }
    };
    let s = rack_summary(&cluster.report(), outcome == ClusterOutcome::Drained);
    (s, chunks)
}

pub fn rack_summary(r: &ClusterReport, drained: bool) -> Summary {
    Summary {
        digest: r.digest(),
        submitted: r.total_tasks,
        completed: r.completed,
        failed: r.failed_tasks,
        outstanding: r.outstanding_tasks,
        drained,
        conserved: r.task_conservation_holds(),
        makespan_s: r.makespan_s,
        latencies_s: r.outcomes.iter().map(TaskOutcome::latency_s).collect(),
        energy_j: r.node_reports.iter().map(|n| n.energy_j).sum(),
        supply_aborts: r.supply_aborts,
        fault_counters: [
            r.fault_events,
            r.sensor_faults,
            r.supply_faults,
            r.node_crashes,
            r.failsafe_preemptions,
            r.requeues,
            r.failed_tasks,
            r.quarantined_nodes,
        ],
        node_crashes: r.node_crashes,
        cancelled_copies: r.cancelled_copies,
    }
}

pub fn facility_summary(r: &FacilityReport) -> Summary {
    let racks = &r.rack_reports;
    Summary {
        digest: r.digest(),
        submitted: r.total_tasks,
        completed: r.completed,
        failed: r.failed_tasks,
        outstanding: r.outstanding_tasks,
        drained: r.all_drained,
        conserved: r.task_conservation_holds(),
        makespan_s: r.makespan_s,
        latencies_s: racks
            .iter()
            .flat_map(|c| c.outcomes.iter().map(TaskOutcome::latency_s))
            .collect(),
        energy_j: racks
            .iter()
            .flat_map(|c| c.node_reports.iter().map(|n| n.energy_j))
            .sum(),
        supply_aborts: r.supply_aborts,
        fault_counters: [
            r.fault_events,
            r.sensor_faults,
            r.supply_faults,
            r.node_crashes,
            r.failsafe_preemptions,
            r.requeues,
            r.failed_tasks,
            r.quarantined_nodes,
        ],
        node_crashes: r.node_crashes,
        cancelled_copies: r.cancelled_copies,
    }
}

/// The correctness gate: every failed check, by name. Every run must
/// submit what the benchmark generated and conserve tasks; a fault-free
/// one must drain with no supply aborts and no fault activity. A
/// faulted run need only reach a terminal outcome, but a `whole`
/// workload run must show that its fault plan bit.
pub fn check(w: Workload, spec: &RackSpec, s: &Summary, whole: bool) -> Vec<String> {
    let mut failed = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            failed.push(what.to_string());
        }
    };
    expect(s.submitted == spec.tasks.len(), "submitted == generated");
    expect(s.conserved, "task conservation");
    if w.faulted() {
        // A faulted rack may hit its time limit with quarantined work
        // outstanding; `run` only returns on a terminal outcome.
        if whole {
            expect(s.node_crashes > 0, "crash plan bit");
            expect(s.cancelled_copies > 0, "losing copies cancelled");
        }
    } else {
        expect(s.drained, "drained");
        expect(s.completed == s.submitted, "every task completed");
        expect(s.supply_aborts == 0, "no supply aborts");
        expect(
            s.fault_counters.iter().all(|&c| c == 0),
            "no fault activity",
        );
    }
    expect(
        s.latencies_s.iter().all(|l| l.is_finite() && *l > 0.0),
        "finite positive latencies",
    );
    failed
}
