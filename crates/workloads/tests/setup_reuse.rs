//! `Workload::setup` may be called any number of times on one build.
//!
//! A cluster builds each (kind, size) once per rack and sets it up for
//! every task of that class. That is only sound if a reused build
//! spawns exactly what a fresh build does: this runs every kernel twice
//! from one build and twice from two fresh builds, each on a fresh
//! machine, and requires all four runs to agree bit for bit.

use sprint_archsim::{Machine, MachineConfig, Stats};
use sprint_workloads::suite::{build_workload, InputSize, Workload, WorkloadKind};

fn run(workload: &dyn Workload) -> (Stats, u64, u64) {
    let mut machine = Machine::new(MachineConfig::hpca().with_cores(4));
    workload.setup(&mut machine, 4);
    let report = machine.run_to_completion(1_000_000, 1_000_000);
    assert!(report.all_done, "{} did not finish", workload.name());
    let stats = *machine.stats();
    (stats, machine.time_ps(), stats.dynamic_energy_j.to_bits())
}

#[test]
fn a_reused_build_runs_like_fresh_builds() {
    for kind in WorkloadKind::ALL {
        let shared = build_workload(kind, InputSize::A);
        let runs = [
            run(shared.as_ref()),
            run(shared.as_ref()),
            run(build_workload(kind, InputSize::A).as_ref()),
            run(build_workload(kind, InputSize::A).as_ref()),
        ];
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert_eq!(*r, runs[0], "{}: run {i} diverged from run 0", kind.name());
        }
    }
}
