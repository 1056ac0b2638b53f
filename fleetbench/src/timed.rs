//! Untraced runs: the end-to-end metrics.
//!
//! One run repeats the whole workload — generate, build, run, check —
//! until the time budget is spent. Every repeat sees the same inputs, so
//! every repeat must report the same digest. The first repeat is a
//! warm-up: it fills the heap and gives the peak RSS, and neither its
//! set-ups nor its run phase are timed.
//!
//! Later repeats time in reference seconds: each set-up, and each chunk
//! of steps of the run phase (`sim::run_chunked`), is scaled by
//! `NOMINAL_S` over the host-speed reference slice that runs right
//! after it. `setup_s` is the median over set-ups and the throughput
//! metrics are medians over repeats. See `reference.rs` for why.

use std::time::Instant;

use crate::fleet::{generate, Scale, Workload};
use crate::reference::{Reference, NOMINAL_S};
use crate::sim::{build, check, run, run_chunked, Summary};
use crate::util::{median, percentile, proc_status_kb, tail, Json, Metrics};

/// Each repeat sets up again until it has spent this long on set-up (or
/// made `MAX_SETUPS` set-ups), so cheap set-ups still give a steady
/// median.
const SETUP_BUDGET_S: f64 = 0.25;
const MAX_SETUPS: usize = 25;

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: String,
    pub details: String,
}

pub fn measure(w: Workload, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    // Made once the warm-up repeat has run and the peak RSS is read, so
    // its table is not part of the peak.
    let mut reference: Option<Reference> = None;
    let mut tasks_per_s = Vec::new();
    let mut sim_s_per_s = Vec::new();
    let mut host_tasks_per_s = Vec::new();
    let mut host_setup_s = Vec::new();
    let mut slice_us = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut checks_failed: Vec<String> = Vec::new();
    let mut first: Option<Summary> = None;
    let mut repeats = 0;
    let mut peak_rss_kb = 0.0;
    loop {
        let (mut spent, mut reps) = (0.0, 0);
        let (spec, cluster) = loop {
            let t0 = Instant::now();
            let spec = generate(w, seed, scale);
            let cluster = build(&spec);
            let dt = t0.elapsed().as_secs_f64();
            if let Some(r) = reference.as_mut() {
                setup_s.push(dt * NOMINAL_S / r.slice());
                host_setup_s.push(dt);
            }
            spent += dt;
            reps += 1;
            if spent >= SETUP_BUDGET_S || reps == MAX_SETUPS {
                break (spec, cluster);
            }
        };
        let (s, chunks) = match reference.as_mut() {
            Some(r) => {
                let (s, chunks) = run_chunked(cluster, r);
                (s, Some(chunks))
            }
            None => (run(cluster), None),
        };
        repeats += 1;
        let mut problems = check(w, &spec, &s, true);
        if let Some(f) = &first {
            if f.digest != s.digest {
                problems.push("digest repeats within the run".to_string());
            }
        }
        attempted += s.submitted;
        if problems.is_empty() {
            failed += s.failed + s.outstanding;
            if let Some(chunks) = chunks {
                let ref_s = reference_s(&chunks);
                let host_s: f64 = chunks.iter().map(|c| c.0).sum();
                let slices: Vec<f64> = chunks.iter().map(|c| c.1).collect();
                tasks_per_s.push(s.completed as f64 / ref_s);
                sim_s_per_s.push(s.makespan_s / ref_s);
                host_tasks_per_s.push(s.completed as f64 / host_s);
                slice_us.push(median(&slices) * 1e6);
            }
        } else {
            // A run that fails a check contributes no timing, and all of
            // its tasks count as failed.
            failed += s.submitted;
            for p in problems {
                if !checks_failed.contains(&p) {
                    checks_failed.push(p);
                }
            }
        }
        if first.is_none() {
            // Later repeats reuse (and fragment) the first one's heap, so
            // the peak is taken once the first repeat has run.
            peak_rss_kb = proc_status_kb("VmHWM");
            first = Some(s);
            reference = Some(Reference::new());
        }
        let elapsed = start.elapsed().as_secs_f64();
        if repeats >= 2 && elapsed + elapsed / repeats as f64 > seconds {
            break;
        }
    }
    let s = first.expect("at least one repeat ran");
    let (tail_q, tail_s) = tail(&s.latencies_s);
    let mut m = Metrics::default();
    m.add("tasks_per_s", median(&tasks_per_s), "1/s");
    m.add("sim_s_per_s", median(&sim_s_per_s), "sim_s/s");
    m.add("setup_s", median(&setup_s), "s");
    m.add("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    m.add(
        "task_ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    m.add(
        "sim_p50_latency_ms",
        percentile(&s.latencies_s, 0.5) * 1e3,
        "sim_ms",
    );
    m.add("sim_tail_latency_ms", tail_s * 1e3, "sim_ms");
    m.add(
        "sim_energy_per_task_mj",
        s.energy_j / s.completed.max(1) as f64 * 1e3,
        "mJ",
    );
    let n = s.latencies_s.len();
    let details = Json::default()
        .str("digest", &format!("{:016x}", s.digest))
        .int("repeats", repeats)
        .int("setups", setup_s.len() as u64)
        .num("host_setup_s_p50", median(&host_setup_s))
        .int("tasks_per_repeat", s.submitted as u64)
        .raw("repeat_tasks_per_s", format!("{tasks_per_s:?}"))
        .raw("repeat_host_tasks_per_s", format!("{host_tasks_per_s:?}"))
        .raw("repeat_slice_us_p50", format!("{slice_us:?}"))
        .num("task_fail_frac", failed as f64 / attempted.max(1) as f64)
        .num("tail_quantile", tail_q)
        .int("tail_samples", n as u64)
        .int(
            "tail_beyond",
            n.saturating_sub(crate::util::rank(n.max(1), tail_q)) as u64,
        )
        .num("makespan_sim_s", s.makespan_s)
        .int("node_crashes", s.node_crashes as u64)
        .int("cancelled_copies", s.cancelled_copies as u64)
        .raw("checks_failed", format!("{checks_failed:?}"))
        .finish();
    Outcome {
        correct: checks_failed.is_empty(),
        attempted,
        failed,
        metrics: m.finish(),
        details,
    }
}

/// A timed repeat's run phase in reference seconds: each chunk's host
/// seconds scaled by `NOMINAL_S` over the slice that followed it, which
/// is what the chunk would have taken with the reference at its nominal
/// speed.
fn reference_s(chunks: &[(f64, f64)]) -> f64 {
    chunks
        .iter()
        .map(|&(chunk, slice)| chunk * NOMINAL_S / slice)
        .sum()
}
