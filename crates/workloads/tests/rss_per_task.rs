//! Host memory per task is bounded by live work, not by run length.
//!
//! One machine runs many back-to-back tasks of one shared workload
//! build, as a cluster node does. Finished threads must give back their
//! kernel and op buffer, so resident memory stops growing once the
//! caches are warm: after `WARMUP` tasks, `10 * WARMUP` more may add
//! only each finished thread's slot bookkeeping.
//!
//! The measurement reads the process's `VmRSS`, so this file holds a
//! single test and runs in a process of its own.

#![cfg(target_os = "linux")]

use sprint_archsim::{Machine, MachineConfig};
use sprint_workloads::sobel::SobelWorkload;
use sprint_workloads::suite::Workload;

const WARMUP: usize = 16;
const THREADS: usize = 16;
/// Resident growth allowed per task after warm-up, kB. A finished
/// thread keeps a slot of a few dozen bytes and a run-queue entry; a
/// thread that keeps its kernel and its 256-op buffer holds about 4 kB.
const MAX_KB_PER_TASK: f64 = 16.0;

fn vm_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn resident_memory_per_task_stays_flat() {
    let workload = SobelWorkload::with_dims(64, 48, 7);
    let mut machine = Machine::new(MachineConfig::hpca());
    let run_task = |machine: &mut Machine| {
        workload.setup(machine, THREADS);
        while machine.live_threads() > 0 {
            machine.run_window(1_000_000);
        }
    };
    for _ in 0..WARMUP {
        run_task(&mut machine);
    }
    let before = vm_rss_kb();
    let tasks = 10 * WARMUP;
    for _ in 0..tasks {
        run_task(&mut machine);
    }
    let per_task = (vm_rss_kb() - before) / tasks as f64;
    eprintln!("VmRSS growth: {per_task:.2} kB per task over {tasks} tasks");
    assert!(
        per_task <= MAX_KB_PER_TASK,
        "resident memory grows {per_task:.1} kB per task (bound {MAX_KB_PER_TASK} kB)"
    );
}
