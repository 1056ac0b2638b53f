//! The traced run: per-layer metrics, timed from the benchmark's own
//! code around every call it makes into a layer's public functions.
//!
//! Layers reached only through a caller — archsim and thermal inside a
//! cluster window, core inside a node — are driven directly with the
//! workload's configuration. The facility layer is a one-rack facility
//! around a prefix of the workload's tasks.

use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use sprint_archsim::config::MachineConfig;
use sprint_archsim::machine::Machine;
use sprint_cluster::prelude::*;
use sprint_core::controller::ControllerEvent;
use sprint_core::fault::{FaultSensor, FaultState, FaultSupply};
use sprint_core::session::SprintSession;
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::build_workload;

use crate::fleet::{cluster_builder, facility_builder, generate, window_s, Scale, Workload};
use crate::sim::{build, check, facility_summary, rack_summary, run, Summary};
use crate::timed::Outcome;
use crate::util::{median, percentile, proc_status_kb, Json, Metrics};

/// Tasks of the workload's stream the archsim and core drives run back
/// to back, and the windows of the cluster run the thermal drive replays.
const ARCHSIM_TASKS: usize = 12;
const CORE_TASKS: usize = 6;
const THERMAL_WINDOWS: usize = 5_000;
/// The one-rack facility drive runs the first 1/`FACILITY_PREFIX` of
/// the workload's tasks.
const FACILITY_PREFIX: usize = 4;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory spans, written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, returning its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        (end - span.start_ns) as f64 * 1e-9
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Durations of every span named `name`, in microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
            .collect()
    }

    fn write(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the cluster drive observed, window by window.
#[derive(Default)]
struct ClusterTrace {
    /// (sprinting nodes, rack heat in watts) after each step.
    windows: Vec<(usize, f64)>,
    backlog: Vec<f64>,
    idle_us: Vec<f64>,
    busy_us: Vec<f64>,
}

/// Steps an event-driven rack to a terminal outcome with a span around
/// every `EventDrivenCluster::step`.
fn traced_cluster(
    tr: &mut Tracer,
    mut cluster: EventDrivenCluster,
) -> (ClusterReport, bool, ClusterTrace) {
    let mut ct = ClusterTrace::default();
    let run = tr.open("cluster.run");
    let outcome = loop {
        let backlog = cluster.ready_backlog();
        let idle = backlog == 0 && cluster.rack_heat_w() == 0.0;
        let (outcome, dt) = tr.time("cluster.step", || cluster.step());
        ct.backlog.push(backlog as f64);
        if idle {
            ct.idle_us.push(dt * 1e6);
        } else {
            ct.busy_us.push(dt * 1e6);
        }
        if outcome.is_terminal() {
            break outcome;
        }
        ct.windows
            .push((cluster.sprinting_count(), cluster.rack_heat_w()));
    };
    tr.close(run);
    let report = cluster.report();
    (report, outcome == ClusterOutcome::Drained, ct)
}

/// The rack's thermal parameters as the cluster builds them: node
/// footprints scaled by their specs' thermal weights.
fn rack_thermal(spec: &RackSpec) -> GridThermalParams {
    let mut params = spec.thermal.clone();
    if let Some(specs) = &spec.node_specs {
        for (n, s) in specs.iter().enumerate() {
            params.floorplan.scale_core(n, s.thermal_weight);
        }
    }
    params
}

fn node_machine(spec: &RackSpec, node: usize) -> MachineConfig {
    match &spec.node_specs {
        Some(specs) => specs[node].machine.clone(),
        None => spec.machine.clone(),
    }
}

/// Archsim: a bare machine running the workload's first tasks back to
/// back at its window size; caches and memory state carry over.
fn drive_archsim(tr: &mut Tracer, spec: &RackSpec, m: &mut Metrics) {
    let window_ps = spec.config.sample_window_ps;
    let mut machine = Machine::new(node_machine(spec, 0));
    let tasks = &spec.tasks[..spec.tasks.len().min(ARCHSIM_TASKS)];
    let mut rss_after_first = 0.0;
    let mut run_s = 0.0;
    for (i, t) in tasks.iter().enumerate() {
        tr.time("workloads.kernel_build", || {
            build_workload(t.kind, t.size).setup(&mut machine, t.threads)
        });
        let task = tr.open("archsim.task");
        while machine.live_threads() > 0 {
            run_s += tr
                .time("archsim.run_window", || machine.run_window(window_ps))
                .1;
        }
        tr.close(task);
        if i == 0 {
            rss_after_first = proc_status_kb("VmRSS");
        }
    }
    let rss_growth = proc_status_kb("VmRSS") - rss_after_first;
    let windows = tr.durations_us("archsim.run_window");
    let st = machine.stats();
    let debug = format!("{machine:?}");
    let slots = debug
        .split(", threads: ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    m.add(
        "workloads.kernel_build_us_p50",
        median(&tr.durations_us("workloads.kernel_build")),
        "us",
    );
    m.add("archsim.run_window_us_p50", median(&windows), "us");
    m.add(
        "archsim.run_window_us_p99",
        percentile(&windows, 0.99),
        "us",
    );
    m.add("archsim.windows", windows.len() as f64, "count");
    m.add(
        "archsim.sim_minstr_per_s",
        st.instructions as f64 / run_s / 1e6,
        "Minstr/s",
    );
    m.add(
        "archsim.rss_kb_per_task",
        rss_growth / (tasks.len().max(2) - 1) as f64,
        "kB",
    );
    m.add("archsim.thread_slots_end", slots, "count");
    m.add(
        "archsim.l1_hit_ratio",
        st.l1_hits as f64 / (st.l1_hits + st.l1_misses).max(1) as f64,
        "frac",
    );
    m.add(
        "archsim.llc_hit_ratio",
        st.llc_hits as f64 / (st.llc_hits + st.llc_misses).max(1) as f64,
        "frac",
    );
    m.add("archsim.instructions", st.instructions as f64, "count");
}

/// Core: node 0's session (the rack's thermal leader) runs the first
/// tasks back to back while node 1's session rests beside it — a busy
/// and an idle node-window per window.
fn drive_core(tr: &mut Tracer, spec: &RackSpec, m: &mut Metrics) {
    let t = spec;
    let rack = RackThermal::new(rack_thermal(spec).build());
    let supply = t.supply.expect("every workload rack has a supply pool");
    let pool = match &t.node_specs {
        Some(specs) => {
            let w: Vec<f64> = specs.iter().map(|s| s.share_weight).collect();
            RackSupply::new_weighted(supply, &w)
        }
        None => RackSupply::new(supply, rack.nodes()),
    };
    let mut sustained = t.config.clone();
    sustained.mode = sprint_core::config::ExecutionMode::Sustained;
    let session = |node: usize| {
        let state = Rc::new(FaultState::default());
        SprintSession::new(
            Machine::new(node_machine(spec, node)),
            FaultSensor::new(rack.node_view(node), Rc::clone(&state)),
            FaultSupply::new(supply.node_supply(&pool, node), state),
            sustained.clone(),
            0,
            Vec::new(),
        )
    };
    let (mut busy, mut idle) = (session(0), session(1));
    let dt = window_s(&t.config);
    for task in spec.tasks.iter().take(CORE_TASKS) {
        busy.set_config(t.config.clone());
        build_workload(task.kind, task.size).setup(busy.machine_mut(), task.threads);
        busy.begin_burst();
        loop {
            let (outcome, _) = tr.time("core.step", || busy.step());
            tr.time("core.rest", || idle.rest(dt));
            if outcome.is_terminal() {
                break;
            }
        }
    }
    let aborts = busy
        .events()
        .iter()
        .filter(|e| matches!(e, ControllerEvent::SupplyLimited { .. }))
        .count();
    m.add(
        "core.step_us_p50",
        median(&tr.durations_us("core.step")),
        "us",
    );
    m.add(
        "core.rest_us_p50",
        median(&tr.durations_us("core.rest")),
        "us",
    );
    m.add("core.supply_aborts", aborts as f64, "count");
}

/// Thermal: the rack grid replaying the traced cluster run's windows —
/// sprinting nodes at twice the share of the others of the rack heat.
fn drive_thermal(tr: &mut Tracer, spec: &RackSpec, windows: &[(usize, f64)], m: &mut Metrics) {
    let mut grid = rack_thermal(spec).build();
    let nodes = grid.params().floorplan.core_count();
    let dt = window_s(&spec.config);
    let mut peak = grid.junction_temp_c();
    for &(sprinting, heat_w) in windows.iter().take(THERMAL_WINDOWS) {
        let share = heat_w / (nodes + sprinting) as f64;
        for n in 0..nodes {
            grid.set_core_power_w(n, if n < sprinting { 2.0 * share } else { share });
        }
        tr.time("thermal.advance", || grid.advance(dt));
        peak = peak.max(grid.junction_temp_c());
    }
    let adv = tr.durations_us("thermal.advance");
    m.add("thermal.advance_us_p50", median(&adv), "us");
    m.add("thermal.advance_us_p99", percentile(&adv, 0.99), "us");
    m.add("thermal.peak_junction_c", peak, "degC");
}

fn cluster_metrics(m: &mut Metrics, tr: &Tracer, ct: &ClusterTrace, r: &ClusterReport) {
    let steps = tr.durations_us("cluster.step");
    let started = (r.admitted_sprints + r.denied_sprints).max(1) as f64;
    m.add("cluster.step_us_p50", median(&steps), "us");
    m.add("cluster.step_us_p99", percentile(&steps, 0.99), "us");
    m.add("cluster.steps", steps.len() as f64, "count");
    m.add("cluster.idle_step_us_p50", median(&ct.idle_us), "us");
    m.add("cluster.busy_step_us_p50", median(&ct.busy_us), "us");
    m.add("cluster.backlog_p50", median(&ct.backlog), "count");
    m.add("cluster.backlog_max", percentile(&ct.backlog, 1.0), "count");
    m.add(
        "cluster.sprint_admit_frac",
        r.admitted_sprints as f64 / started,
        "frac",
    );
    m.add(
        "cluster.cancelled_per_task",
        r.cancelled_copies as f64 / r.total_tasks.max(1) as f64,
        "copies/task",
    );
    m.add("cluster.sheds", r.sheds as f64, "count");
    m.add("cluster.power_sheds", r.power_sheds as f64, "count");
    m.add("cluster.requeues", r.requeues as f64, "count");
    m.add("cluster.fault_events", r.fault_events as f64, "count");
    m.add(
        "cluster.quarantined_nodes",
        r.quarantined_nodes as f64,
        "count",
    );
}

/// The workload's own run and the cluster drive.
struct Main {
    tps_untraced: f64,
    tps_traced: f64,
    report: ClusterReport,
    trace: ClusterTrace,
    /// Run summaries that must share one digest.
    summaries: Vec<Summary>,
}

/// The cluster layer is the workload's rack itself: it runs untraced,
/// then with a span around every step, which gives the tracing
/// overhead.
fn drive_main(tr: &mut Tracer, spec: &RackSpec, problems: &mut Vec<String>) -> Main {
    let cluster = build(spec);
    let t0 = Instant::now();
    let untraced = run(cluster);
    let tps_untraced = untraced.completed as f64 / t0.elapsed().as_secs_f64();
    let (session, _) = tr.time("cluster.build", || cluster_builder(spec).build());
    let t0 = Instant::now();
    let (report, drained, trace) = traced_cluster(tr, EventDrivenCluster::new(session));
    let traced = rack_summary(&report, drained);
    let tps_traced = traced.completed as f64 / t0.elapsed().as_secs_f64();
    if traced.digest != untraced.digest {
        problems.push("digest repeats within the run".to_string());
    }
    Main {
        tps_untraced,
        tps_traced,
        report,
        trace,
        summaries: vec![untraced, traced],
    }
}

/// The facility layer at one worker and at two: a one-rack facility
/// around a prefix of the workload's tasks.
fn drive_facility(tr: &mut Tracer, w: Workload, spec: &RackSpec, m: &mut Metrics) -> Vec<String> {
    let n = (spec.tasks.len() / FACILITY_PREFIX).max(1);
    let mut sub = spec.clone();
    sub.tasks.truncate(n);
    let (facility, _) = tr.time("facility.build", || facility_builder(spec, n).build());
    let (two, run_2w) = tr.time("facility.run", || facility.run(2));
    let (one, run_1w) = tr.time("facility.run", || facility.run(1));
    let mut problems = check(w, &sub, &facility_summary(&one), false);
    if one.digest() != two.digest() {
        problems.push("facility digest independent of worker count".to_string());
    }
    m.add("facility.run_s_1w", run_1w, "s");
    m.add("facility.run_s_2w", run_2w, "s");
    m.add("facility.parallel_eff", run_1w / (2.0 * run_2w), "frac");
    m.add("facility.epochs", one.epochs as f64, "count");
    m.add(
        "facility.epoch_ms",
        run_2w * 1e3 / one.epochs.max(1) as f64,
        "ms",
    );
    m.add(
        "facility.migrated_tasks",
        one.migrated_tasks as f64,
        "count",
    );
    m.add("facility.peak_inlet_c", one.peak_inlet_c, "degC");
    problems
}

pub fn measure(w: Workload, seed: u64, scale: Scale, spans_path: &str) -> Outcome {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let mut problems: Vec<String> = Vec::new();
    let (spec, _) = tr.time("workloads.generate", || generate(w, seed, scale));
    // The archsim drive runs first, on a fresh heap, so its RSS growth
    // is the machine's own.
    drive_archsim(&mut tr, &spec, &mut m);
    drive_core(&mut tr, &spec, &mut m);
    let main = drive_main(&mut tr, &spec, &mut problems);
    cluster_metrics(&mut m, &tr, &main.trace, &main.report);
    drive_thermal(&mut tr, &spec, &main.trace.windows, &mut m);
    problems.extend(drive_facility(&mut tr, w, &spec, &mut m));
    let summaries = main.summaries;
    let span_ms = |name| tr.durations_us(name).first().copied().unwrap_or(0.0) * 1e-3;
    m.add("workloads.generate_ms", span_ms("workloads.generate"), "ms");
    m.add("cluster.build_ms", span_ms("cluster.build"), "ms");
    m.add("facility.build_ms", span_ms("facility.build"), "ms");
    m.add(
        "trace.overhead_frac",
        main.tps_untraced / main.tps_traced - 1.0,
        "frac",
    );

    for s in &summaries {
        problems.extend(check(w, &spec, s, true));
        if s.digest != summaries[0].digest {
            problems.push("digest repeats within the run".to_string());
        }
    }
    problems.sort();
    problems.dedup();
    if let Err(e) = tr.write(spans_path, w.name()) {
        problems.push(format!("spans written: {e}"));
    }
    let attempted: usize = summaries.iter().map(|s| s.submitted).sum();
    let failed = if problems.is_empty() {
        summaries.iter().map(|s| s.failed + s.outstanding).sum()
    } else {
        attempted
    };
    let details = Json::default()
        .str("digest", &format!("{:016x}", summaries[0].digest))
        .int("spans", tr.spans.len() as u64)
        .raw("checks_failed", format!("{problems:?}"))
        .finish();
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m.finish(),
        details,
    }
}
