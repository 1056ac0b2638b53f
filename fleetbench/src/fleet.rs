//! The benchmark workloads: what each feeds the fleet simulator and how
//! the simulator is configured for it. Each is one event-driven rack.
//!
//! Inputs are open-loop arrival schedules in simulated time, generated up
//! front from the workload seed and handed to the program as task lists.
//! Class mixes are stratified (every seed runs the same multiset of task
//! classes; the seed picks their order and arrival times), so seeds move
//! the schedule without moving the amount of work.

use sprint_archsim::config::MachineConfig;
use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultResponse};
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

/// Thermal/electrical time compression of the rack and facility studies.
const COMPRESS: f64 = 6000.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16-node power-study rack under a saturating Table-1 mix.
    RackBacklog,
    /// A 1024-node rack on a coarse grid with arrivals far apart.
    SparseFleet,
    /// A big/little rack under competitive duplication and faults.
    HeteroFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RackBacklog,
        Workload::SparseFleet,
        Workload::HeteroFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RackBacklog => "rack_backlog",
            Workload::SparseFleet => "sparse_fleet",
            Workload::HeteroFaults => "hetero_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the fault plan is part of the workload.
    pub fn faulted(self) -> bool {
        self == Workload::HeteroFaults
    }
}

/// Full scale is what the benchmark measures; tiny scale is the
/// self-test's: the same configuration with a handful of tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// splitmix64: the benchmark's own seeded stream, independent of the
/// program's generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_F1EE_7BE4_C400)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The study sprint configuration: `hpca_parallel` with the rack's
/// nameplate credit of 8 W per node.
fn rack_sprint_config() -> SprintConfig {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    cfg
}

/// The study rack with no tasks yet.
fn template(thermal: GridThermalParams, nodes: usize) -> RackSpec {
    RackSpec {
        thermal,
        machine: MachineConfig::hpca(),
        node_specs: None,
        placement: Placement::PolicyDefault,
        config: rack_sprint_config(),
        policy: ClusterPolicy::greedy_default(),
        power: PowerPolicy::rationed_default(),
        supply: Some(RackSupplyParams::rack(nodes).time_scaled(COMPRESS)),
        tasks: Vec::new(),
        fault: None,
        trace_capacity: 0,
        max_time_s: 10.0,
    }
}

/// Stratified open-loop stream: `rounds` rounds of one task of every
/// class, each round in seeded order, task `i` arriving at a seeded
/// point of the first half of the slot `[i, i + 1) * gap_s`. The mean
/// rate is the open loop's, but without the clumps of a Poisson stream
/// or long runs of one class, whose seed-to-seed spread would swamp the
/// latency figures at these task counts.
fn stratified(
    rng: &mut Rng,
    classes: &[(WorkloadKind, InputSize)],
    rounds: usize,
    gap_s: f64,
) -> Vec<ClusterTask> {
    let mut order = Vec::with_capacity(classes.len() * rounds);
    for _ in 0..rounds {
        let mut round = classes.to_vec();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, (kind, size))| {
            ClusterTask::new(kind, size, 16, (i as f64 + 0.5 * rng.unit()) * gap_s)
        })
        .collect()
}

/// The Table-1 classes of `rack_backlog`: sizes A and B of sobel, kmeans
/// and texture, plus feature A and segment A — mixed working sets, from
/// L1-resident kmeans to LLC-bound feature. Disparity (memory-bound)
/// costs 5x a sobel task and would leave room for only 3 repeats a run.
const BACKLOG_CLASSES: [(WorkloadKind, InputSize); 8] = [
    (WorkloadKind::Sobel, InputSize::A),
    (WorkloadKind::Sobel, InputSize::B),
    (WorkloadKind::Feature, InputSize::A),
    (WorkloadKind::Kmeans, InputSize::A),
    (WorkloadKind::Kmeans, InputSize::B),
    (WorkloadKind::Texture, InputSize::A),
    (WorkloadKind::Texture, InputSize::B),
    (WorkloadKind::Segment, InputSize::A),
];

/// Classes of `hetero_faults`: sobel A asks for a wide node; kmeans B
/// may not be duplicated, so a crash under it forces a requeue. Two
/// sobel tasks a round keep the median inside one class: with an even
/// split it sits on the boundary between the classes' latencies.
const HETERO_CLASSES: [(WorkloadKind, InputSize); 3] = [
    (WorkloadKind::Sobel, InputSize::A),
    (WorkloadKind::Sobel, InputSize::A),
    (WorkloadKind::Kmeans, InputSize::B),
];

/// Generates the workload's rack from its seed: the rack with its
/// arrival schedule and, for `hetero_faults`, its fault plan.
pub fn generate(w: Workload, seed: u64, scale: Scale) -> RackSpec {
    let tiny = scale == Scale::Tiny;
    let mut rng = Rng::new(seed);
    match w {
        Workload::RackBacklog => {
            let rounds = if tiny { 1 } else { 13 };
            let tasks = stratified(&mut rng, &BACKLOG_CLASSES, rounds, 40e-6);
            RackSpec {
                tasks,
                ..template(GridThermalParams::rack(4, 4).time_scaled(COMPRESS), 16)
            }
        }
        Workload::SparseFleet => {
            let tasks = if tiny { 3 } else { 100 };
            let edge = if tiny { 8 } else { 32 };
            // Arrivals ~2 ms apart: each task runs alone on a mostly idle
            // fleet, so the event core's sleeping-node bookkeeping does
            // the work.
            let classes = [(WorkloadKind::Sobel, InputSize::A)];
            let tasks = stratified(&mut rng, &classes, tasks, 2e-3);
            RackSpec {
                tasks,
                ..template(
                    GridThermalParams::rack(edge, edge)
                        .with_grid(8, 8)
                        .time_scaled(COMPRESS),
                    edge * edge,
                )
            }
        }
        Workload::HeteroFaults => {
            let rounds = if tiny { 4 } else { 34 };
            let tasks: Vec<ClusterTask> = stratified(&mut rng, &HETERO_CLASSES, rounds, 300e-6)
                .into_iter()
                .map(|t| {
                    if t.kind == WorkloadKind::Sobel {
                        t.with_min_cores(16)
                    } else {
                        t.not_duplicable()
                    }
                })
                .collect();
            let nodes = 16;
            let mut t = template(GridThermalParams::rack(4, 4).time_scaled(COMPRESS), nodes);
            t.node_specs = Some(hetero_specs(nodes));
            t.placement = Placement::CheapestHeadroom;
            t.policy = ClusterPolicy::competitive_default();
            t.max_time_s = 0.2;
            let horizon = (tasks.last().map_or(0.0, |t| t.arrival_s) / window_s(&t.config)) as u64;
            t.fault = Some(fault_plan(&mut rng, nodes, horizon.max(64)));
            t.tasks = tasks;
            t
        }
    }
}

pub fn window_s(cfg: &SprintConfig) -> f64 {
    cfg.sample_window_ps as f64 * 1e-12
}

/// Big 16-core nodes with heavier nameplate shares and footprints
/// alternating with light 8-core ones.
fn hetero_specs(nodes: usize) -> Vec<NodeSpec> {
    let big = NodeSpec::standard(MachineConfig::hpca())
        .with_share_weight(1.5)
        .with_thermal_weight(1.25);
    let little = NodeSpec::standard(MachineConfig::hpca().with_cores(8))
        .with_share_weight(0.75)
        .with_thermal_weight(0.8);
    (0..nodes)
        .map(|n| {
            if n % 2 == 0 {
                big.clone()
            } else {
                little.clone()
            }
        })
        .collect()
}

/// The fault plan of `hetero_faults`: one onset of each kind below, in
/// seeded order, each at a seeded window of its own slot of the arrival
/// horizon on a seeded node, cleared `FAULT_HOLD` windows later (crashes
/// are never recovered). A fixed count of each kind keeps the damage the
/// same from seed to seed; seeded rates can draw no crash at all.
fn fault_plan(rng: &mut Rng, nodes: usize, horizon: u64) -> FaultPlan {
    const FAULT_HOLD: u64 = 600;
    let mut kinds = [
        FaultKind::SensorStuck(20.0 + rng.below(100) as f64),
        FaultKind::SensorBias(-10.0 + rng.below(21) as f64),
        FaultKind::SensorDropout,
        FaultKind::SupplyCollapse(1.25 + rng.below(8) as f64 * 0.25),
        FaultKind::SupplyBrownout,
        FaultKind::NodeCrash,
        FaultKind::SensorDropout,
        FaultKind::NodeCrash,
        FaultKind::NodeCrash,
        FaultKind::NodeCrash,
    ];
    rng.shuffle(&mut kinds);
    let slot = horizon / kinds.len() as u64;
    // Distinct nodes, so both crashes take a live node down.
    let mut order: Vec<u32> = (0..nodes as u32).collect();
    rng.shuffle(&mut order);
    let mut events = Vec::new();
    for (i, (kind, &node)) in kinds.into_iter().zip(&order).enumerate() {
        let window = i as u64 * slot + rng.below(slot);
        events.push(FaultEvent { window, node, kind });
        let clear = match kind {
            FaultKind::NodeCrash => None,
            FaultKind::SupplyCollapse(_) | FaultKind::SupplyBrownout => {
                Some(FaultKind::SupplyClear)
            }
            _ => Some(FaultKind::SensorClear),
        };
        if let Some(kind) = clear {
            events.push(FaultEvent {
                window: window + FAULT_HOLD,
                node,
                kind,
            });
        }
    }
    FaultPlan::new(events)
        .with_retries(3, 512)
        .with_response(FaultResponse::Aware)
}

/// The cluster builder for one rack spec.
pub fn cluster_builder(spec: &RackSpec) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(spec.thermal.clone())
        .machine(spec.machine.clone())
        .config(spec.config.clone())
        .policy(spec.policy.clone())
        .power_policy(spec.power)
        .placement(spec.placement)
        .tasks(spec.tasks.iter().copied())
        .trace_capacity(spec.trace_capacity)
        .max_time_s(spec.max_time_s);
    if let Some(specs) = &spec.node_specs {
        b = b.node_specs(specs.iter().cloned());
    }
    if let Some(supply) = spec.supply {
        b = b.rack_supply(supply);
    }
    if let Some(plan) = &spec.fault {
        b = b.fault_plan(plan.clone());
    }
    b
}

/// A one-rack facility around the workload's rack, its first `n` tasks
/// only (no cap, no rows): the traced run times the facility layer on
/// it.
pub fn facility_builder(spec: &RackSpec, n: usize) -> FacilityBuilder {
    let mut b = FacilityBuilder::new(1)
        .rack_thermal(spec.thermal.clone())
        .machine(spec.machine.clone())
        .placement(spec.placement)
        .config(spec.config.clone())
        .policy(spec.policy.clone())
        .power_policy(spec.power)
        .trace_capacity(spec.trace_capacity)
        .max_time_s(spec.max_time_s)
        .event_driven(true)
        .tasks_on(0, spec.tasks.iter().take(n).copied());
    if let Some(specs) = &spec.node_specs {
        b = b.node_specs(specs.iter().cloned());
    }
    if let Some(supply) = spec.supply {
        b = b.rack_supply(supply);
    }
    if let Some(plan) = &spec.fault {
        b = b.fault_on(0, plan.clone());
    }
    b
}
