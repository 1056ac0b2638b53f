//! The event-driven cluster core: the lockstep semantics, paid only
//! where something happens.
//!
//! The paper's sprint-and-rest regime means most nodes are idle or
//! resting most of the time, yet the lockstep [`ClusterSession::step`]
//! loop touches *every* node *every* sampling window — cost scales
//! with fleet size instead of activity. [`EventDrivenCluster`]
//! restructures the same simulation as a discrete-event scheduler:
//!
//! * **Components** — task arrivals, the admission scheduler, the rack
//!   settlement leader, and each node session — each expose a
//!   `next_tick()`: the next window at which that component has a
//!   thermally- or electrically-relevant instant. Ticks live on a
//!   time-ordered binary heap keyed `(window, component kind, node
//!   index)`, so simultaneous events pop in a deterministic order:
//!   time first, then component kind (arrivals before scheduler before
//!   settlement before nodes — the lockstep phase order), then node
//!   index.
//! * **The settlement component ticks every window.** The per-window
//!   grid integration is bitwise irreducible (the ADI sweeps have no
//!   fixed point, and the peak-junction sample reads every window), so
//!   node 0 — the lockstep leader whose advance settles the shared
//!   grid and supply pool — executes every window. What the event core
//!   elides is everything *around* the physics: per-node rest calls,
//!   the per-window temperature snapshot, and the scheduler passes on
//!   windows where they are provably no-ops. The leader's advance costs
//!   O(grid cells), not O(nodes): the grid makes one die pass per
//!   advance (its junction, gradient and per-cell peak caches), and
//!   per-core readings fold cached cells on demand.
//! * **Idle nodes sleep.** A node with no task and no pending tick
//!   costs nothing per window. Its per-window `rest` effects on the
//!   *shared* state are already in place (core power zero, recorded
//!   idle draw — both idempotent, written by its retirement tick), and
//!   its *private* rest effects (the idle-clock accumulation, the
//!   per-window supply recharge) are replayed verbatim — same calls,
//!   same order, same floating-point sequence — when the node is next
//!   observed: before any window that may assign it work, and at
//!   terminal/report time. The replay is cache-hot and branch-free, so
//!   a sleeping fleet costs a fraction of the lockstep loop.
//! * **The scheduler ticks only when it could act.** Assignment is a
//!   no-op while the ready queue is empty; the shed passes are no-ops
//!   while no node holds or occupies a sprint slot. The scheduler
//!   component therefore schedules its next tick only while `ready`,
//!   the grant rotation, or a ramping/sprinting node exists — exactly
//!   the conditions under which the lockstep passes can observe or
//!   mutate anything.
//!
//! # What a window costs
//!
//! A quiet window (no fault, arrival or armed scheduler) runs only the
//! settlement leader — an O(grid cells) advance — plus the busy and
//! due nodes. Two costs remain O(fleet): the scheduler's per-node
//! temperature snapshot on armed windows (one cached-cell fold per
//! node), and `catch_up_all`'s replay of the sleeping nodes before any
//! assignment, which costs O(nodes x windows slept) because each
//! sleeping node's rest is replayed window by window for bit-exactness.
//!
//! # The lockstep path is the golden oracle
//!
//! The lockstep stepper remains intact and authoritative: for any
//! configuration, the event-driven run must reproduce the lockstep
//! [`ClusterReport`] **digest byte-for-byte**
//! ([`ClusterReport::digest`]). The equivalence tests in
//! `tests/event_core.rs` (and the facility-level digests across worker
//! thread counts) pin this invariant; seeded event-order fuzzing
//! ([`EventDrivenCluster::with_event_seed`]) additionally shows the
//! report is independent of heap insertion order, hardening the
//! shed-order determinism story.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sprint_core::controller::SprintState;

use crate::cluster::{ClusterOutcome, ClusterReport, ClusterSession};
use crate::queue::ClusterTask;
use crate::rack::RackThermal;
use crate::supply::RackSupply;

/// Component kinds, in tie-break order within one window — the
/// lockstep phase order: faults fire before anything reads a sensor,
/// arrivals feed the scheduler, the scheduler precedes settlement,
/// settlement (node 0, the grid/pool leader) precedes the remaining
/// node sessions. (Kind values order the heap only — they never touch
/// simulated state, so renumbering is digest-neutral.)
const KIND_FAULT: u8 = 0;
const KIND_ARRIVALS: u8 = 1;
const KIND_SCHEDULER: u8 = 2;
const KIND_SETTLEMENT: u8 = 3;
const KIND_NODE: u8 = 4;

/// One scheduled tick: `(window, component kind, node index)`. The
/// tuple's lexicographic order *is* the deterministic event order.
type Tick = (u64, u8, u32);

/// The discrete-event cluster core. Wraps a [`ClusterSession`] and
/// drives it window-accurate but activity-proportional; see the module
/// docs for the component model and the golden-oracle invariant.
pub struct EventDrivenCluster {
    inner: ClusterSession,
    /// Min-heap of pending ticks (`Reverse` flips `BinaryHeap`'s max
    /// order).
    heap: BinaryHeap<Reverse<Tick>>,
    /// Windows fully executed per node. Node 0 is always current; a
    /// sleeping node's deficit is replayed by [`Self::catch_up_all`].
    done: Vec<u64>,
    /// Per-window scratch: nodes with a pending tick this window, in
    /// ascending index order (the heap pops same-window node ticks
    /// sorted, and a node holds at most one).
    due_nodes: Vec<u32>,
    /// Nodes currently holding a task, ascending. Membership is exact
    /// between windows: a task appears only via `assign_ready` (after
    /// which the list is rebuilt) and vanishes only inside the owning
    /// node's own `run_node_window` (observed where it runs). This is
    /// what lets a quiet window run only the leader (O(grid cells))
    /// plus the busy and due nodes, instead of scanning the fleet.
    busy: Vec<u32>,
    /// Push-order fuzz seed: when set, each window's new ticks are
    /// inserted into the heap in a seeded-random order. Tick keys are
    /// unique, so the pop order — and therefore the run — must not
    /// change; the fuzz tests pin that.
    event_seed: Option<u64>,
    /// Per-window scratch for new ticks (reused; no per-step
    /// allocation once warm).
    scratch: Vec<Tick>,
}

impl std::fmt::Debug for EventDrivenCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventDrivenCluster")
            .field("windows", &self.inner.windows)
            .field("heap", &self.heap.len())
            .field("session", &self.inner)
            .finish()
    }
}

impl EventDrivenCluster {
    /// Wraps a (freshly built) lockstep session in the event-driven
    /// core.
    ///
    /// # Panics
    ///
    /// Panics if the session has already been stepped: the event core
    /// must own the run from window 0 to schedule the initial ticks.
    pub fn new(inner: ClusterSession) -> Self {
        assert_eq!(
            inner.windows, 0,
            "the event-driven core must own the run from window 0"
        );
        let nodes = inner.nodes.len();
        let mut this = Self {
            inner,
            heap: BinaryHeap::new(),
            done: vec![0; nodes],
            due_nodes: Vec::new(),
            busy: Vec::new(),
            event_seed: None,
            scratch: Vec::new(),
        };
        this.prime();
        this
    }

    /// [`Self::new`], with each window's heap insertions performed in a
    /// `seed`-derived random order. Pure fuzz instrumentation: tick
    /// keys are unique, so the heap's pop order — and the whole run —
    /// is identical for every seed; the event-order fuzz tests assert
    /// exactly that.
    pub fn with_event_seed(inner: ClusterSession, seed: u64) -> Self {
        let mut this = Self::new(inner);
        // Re-prime so even the initial ticks go through the shuffle.
        this.event_seed = Some(seed);
        this.heap.clear();
        this.prime();
        this
    }

    /// Schedules the initial ticks: the settlement leader at window 0,
    /// every node's first rest at window 0 (recording its idle draw on
    /// the shared pool — the one rest effect later settlements read),
    /// the arrivals component at the first task's window, and the
    /// fault component at the plan's first stamped window.
    fn prime(&mut self) {
        let mut ticks = std::mem::take(&mut self.scratch);
        ticks.push((0, KIND_SETTLEMENT, 0u32));
        for i in 1..self.inner.nodes.len() {
            ticks.push((0, KIND_NODE, i as u32));
        }
        if let Some(w) = self.next_arrival_tick() {
            ticks.push((w, KIND_ARRIVALS, 0));
        }
        if let Some(w) = self.next_fault_tick() {
            ticks.push((w, KIND_FAULT, 0));
        }
        self.push_ticks(&mut ticks);
        self.scratch = ticks;
    }

    /// The fault component's `next_tick()`: the next unapplied plan
    /// event's stamped window. Like arrivals, the component re-arms
    /// itself each time it fires, so the chain visits every stamped
    /// window exactly once.
    fn next_fault_tick(&self) -> Option<u64> {
        let plan = self.inner.fault_plan.as_ref()?;
        plan.events.get(self.inner.next_fault).map(|e| e.window)
    }

    /// The arrivals component's `next_tick()`: the first window whose
    /// lockstep clock reaches the next pending task, i.e. the smallest
    /// `W` with `W * window_s >= arrival_s` — computed against the
    /// exact predicate the arrivals pop uses, so the tick can neither
    /// miss the task nor fire a window early.
    fn next_arrival_tick(&self) -> Option<u64> {
        let arrival = self
            .inner
            .arrival_order
            .get(self.inner.next_arrival)
            .map(|&task| {
                let arrival_s = self.inner.tasks[task].arrival_s;
                let w = self.inner.window_s;
                let mut k = ((arrival_s / w).ceil()).max(0.0) as u64;
                while (k as f64) * w < arrival_s {
                    k += 1;
                }
                while k > 0 && ((k - 1) as f64) * w >= arrival_s {
                    k -= 1;
                }
                k
            });
        // Crash-retry requeues enter the ready queue through the same
        // component (their due is already a window).
        let requeue = self
            .inner
            .requeue
            .get(self.inner.next_requeue)
            .map(|&(due, _, _)| due);
        match (arrival, requeue) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (a, r) => a.or(r),
        }
    }

    /// The scheduler component's `next_tick()` condition: whether the
    /// lockstep scheduler passes could observe or mutate anything next
    /// window. Assignment acts only on a non-empty ready queue; the
    /// shed passes act only on grant-rotation entries or
    /// ramping/sprinting nodes (on anything less they are provably
    /// side-effect-free, including the rotation `retain`).
    fn scheduler_armed(&self) -> bool {
        !self.inner.ready.is_empty()
            || !self.inner.grant_order.is_empty()
            || self.busy.iter().any(|&i| {
                let n = &self.inner.nodes[i as usize];
                n.task.is_some()
                    && matches!(
                        n.session.state(),
                        SprintState::Ramping | SprintState::Sprinting
                    )
            })
    }

    /// Inserts new ticks, draining the buffer; under a fuzz seed the
    /// insertion order is seeded-random first.
    fn push_ticks(&mut self, ticks: &mut Vec<Tick>) {
        if let Some(seed) = self.event_seed {
            // Fisher-Yates off an LCG keyed by seed and the current
            // window, so every window shuffles differently.
            let mut state = seed ^ self.inner.windows.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for i in (1..ticks.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                ticks.swap(i, j);
            }
        }
        for &t in ticks.iter() {
            self.heap.push(Reverse(t));
        }
        ticks.clear();
    }

    /// Replays every sleeping node's outstanding rest windows so all
    /// nodes have executed windows `0..target`. The replay reproduces
    /// the *same* per-window `rest` sequence the lockstep loop would
    /// have made — batched through `rest_many`, whose contract is
    /// bit-identical to the loop — and the shared-state legs of those
    /// windows are pure followers (the settlement leader already
    /// carried the grid and pool past them), so the bit pattern of
    /// every touched float is identical to the lockstep run's. The
    /// batching is what makes sleeping cheap: a follower window costs
    /// a couple of adds instead of two `RefCell` round-trips.
    fn catch_up_all(&mut self, target: u64) {
        for i in 1..self.inner.nodes.len() {
            debug_assert!(self.done[i] <= target);
            if self.done[i] < target {
                debug_assert!(
                    self.inner.nodes[i].task.is_none(),
                    "a busy node can never sleep"
                );
                let deficit = target - self.done[i];
                self.inner.nodes[i]
                    .session
                    .rest_many(self.inner.window_s, deficit);
                self.done[i] = target;
            }
        }
    }

    /// Advances the cluster by one sampling window — same contract and
    /// same outcome sequence as the lockstep [`ClusterSession::step`],
    /// with sleeping nodes' ledgers settled lazily. On a terminal
    /// outcome every node is caught up, so the session state (and its
    /// report) is byte-identical to the lockstep run's.
    pub fn step(&mut self) -> ClusterOutcome {
        if self.inner.drained() {
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::Drained;
        }
        if self.inner.windows >= self.inner.max_windows {
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::TimeLimit;
        }
        // Last window's cancellation scratches were consumed through
        // the end of that step (cancel-window rests, retirement ticks);
        // clear them before anything this window can read them.
        self.inner.cancelled_scratch.clear();
        self.inner.cancelled_after_run.clear();
        let w = self.inner.windows;
        // Drain this window's ticks in deterministic (kind, node)
        // order.
        let mut fault_due = false;
        let mut arrivals_due = false;
        let mut scheduler_due = false;
        self.due_nodes.clear();
        while let Some(&Reverse((tw, kind, node))) = self.heap.peek() {
            if tw != w {
                debug_assert!(tw > w, "a tick was scheduled in the past");
                break;
            }
            self.heap.pop();
            match kind {
                KIND_FAULT => fault_due = true,
                KIND_ARRIVALS => arrivals_due = true,
                KIND_SCHEDULER => scheduler_due = true,
                KIND_SETTLEMENT => {}
                _ => {
                    // Same-window node ticks pop in ascending index
                    // order (the heap key ends in the node index), so
                    // the due list is sorted by construction.
                    debug_assert!(self.due_nodes.last().is_none_or(|&p| p < node));
                    self.due_nodes.push(node);
                }
            }
        }
        // Fault phase: apply this window's stamped faults before
        // anything reads a sensor — the lockstep order. The failsafe
        // may preempt a sprint and a crash may free a node, so a fault
        // window always runs the full scheduler phase below (its
        // retain/shed passes are exactly what lockstep runs).
        if fault_due {
            self.inner.apply_faults();
        }
        let now = self.inner.now_s();
        // Scheduler phase — exactly the lockstep passes, run only on
        // windows where they could act (see `scheduler_armed`).
        let scheduling = fault_due || arrivals_due || scheduler_due;
        if scheduling {
            let mut temps = std::mem::take(&mut self.inner.temps_buf);
            self.inner.rack.node_temps_c_into(&mut temps);
            self.inner.temps_buf = temps;
            self.inner.mask_faulted_temps();
            if arrivals_due {
                self.inner.pop_arrivals(now);
                self.inner.pop_requeues();
            }
            if !self.inner.ready.is_empty() {
                // Assignment may start work on any idle node: bring
                // the whole fleet current before the scheduler looks.
                self.catch_up_all(w);
                self.inner.assign_ready(now);
            }
            self.inner.shed_pass(now);
            self.inner.power_shed_pass(now);
        }
        // Node phase, in index order. Node 0 is the settlement leader
        // and executes every window (its advance settles the shared
        // grid and supply pool); other nodes execute when busy or when
        // a tick (their retirement rest) is due.
        let mut ticks = std::mem::take(&mut self.scratch);
        let nodes = self.inner.nodes.len();
        if scheduling {
            // A scheduler window may have assigned tasks anywhere:
            // scan the fleet (the temperature snapshot above already
            // paid O(fleet) this window) and rebuild the busy list.
            self.busy.clear();
            let mut di = 0;
            let mut ci = 0;
            for i in 0..nodes {
                let due = self.due_nodes.get(di) == Some(&(i as u32));
                if due {
                    di += 1;
                }
                // A node that crashed *while busy* this window was
                // current at the window start and must still execute:
                // its first rest zeroes the core power its sprint was
                // injecting, before the next settlement integrates the
                // grid. (It then sleeps like any idle node.)
                let crashed = fault_due && self.inner.crashed_scratch.get(ci) == Some(&(i as u32));
                if crashed {
                    ci += 1;
                }
                // A losing replica cancelled this window by a
                // lower-indexed winner has not had its turn yet: it
                // still executes this window's rest (the lockstep loop
                // reaches it task-less), zeroing the core power its
                // copy was injecting before the next settlement.
                // Entries appear mid-loop (the winner runs first), so
                // this is a membership scan, not a cursor.
                let cancelled = self.inner.cancelled_scratch.contains(&(i as u32));
                let busy = self.inner.nodes[i].task.is_some();
                if i == 0 || busy || due || crashed || cancelled {
                    debug_assert_eq!(self.done[i], w, "an executing node must be current");
                    self.inner.run_node_window(i);
                    self.done[i] = w + 1;
                    // A node that just went idle owes one more real
                    // tick: its first rest zeroes its core power and
                    // records its idle draw on the pool — shared-state
                    // effects the next settlement reads, so they
                    // cannot be deferred.
                    if i > 0 && busy && self.inner.nodes[i].task.is_none() {
                        ticks.push((w + 1, KIND_NODE, i as u32));
                    }
                }
                if self.inner.nodes[i].task.is_some() {
                    self.busy.push(i as u32);
                }
            }
        } else {
            // Quiet window: no assignment was possible, so the busy
            // list is exact — run node 0 plus the busy and due nodes,
            // merged in ascending index order. This is the same
            // execution set (and order) the full scan would pick:
            // every skipped node is idle with no pending tick.
            debug_assert_eq!(self.done[0], w, "the leader must be current");
            let busy0 = self.inner.nodes[0].task.is_some();
            debug_assert_eq!(busy0, self.busy.first() == Some(&0));
            self.inner.run_node_window(0);
            self.done[0] = w + 1;
            let mut retired = busy0 && self.inner.nodes[0].task.is_none();
            let mut bi = usize::from(busy0);
            let mut di = 0;
            while bi < self.busy.len() || di < self.due_nodes.len() {
                let nb = self.busy.get(bi).copied().unwrap_or(u32::MAX);
                let nd = self.due_nodes.get(di).copied().unwrap_or(u32::MAX);
                // Disjoint on a quiet window (a due node is resting),
                // but take both cursors on a tie anyway.
                let i = nb.min(nd) as usize;
                bi += usize::from(nb <= nd);
                di += usize::from(nd <= nb);
                debug_assert_eq!(self.done[i], w, "an executing node must be current");
                let busy = self.inner.nodes[i].task.is_some();
                // A busy-list entry whose task vanished mid-window is
                // a loser a winner cancelled moments ago — its rest
                // below is exactly the lockstep behaviour; anything
                // else is a genuine desync.
                debug_assert!(
                    busy == (nb <= nd)
                        || self.inner.cancelled_scratch.contains(&(i as u32))
                        || self.inner.cancelled_after_run.contains(&(i as u32)),
                    "busy list out of sync"
                );
                self.inner.run_node_window(i);
                self.done[i] = w + 1;
                if busy && self.inner.nodes[i].task.is_none() {
                    ticks.push((w + 1, KIND_NODE, i as u32));
                    retired = true;
                }
            }
            if retired {
                let fleet = &self.inner.nodes;
                self.busy.retain(|&i| fleet[i as usize].task.is_some());
            }
        }
        // Cancellation epilogue: a loser cancelled *after* it had
        // already run this window (lower index than its winner) is
        // still on the busy list and owes a retirement rest next
        // window — the rest lockstep gives it at `w + 1`, which zeroes
        // its core power and records its idle draw before that
        // window's settlement. Losers cancelled *before* their turn
        // already rested this window through the cancelled-scratch
        // path and sleep like any other idle node.
        if !self.inner.cancelled_after_run.is_empty() {
            let fleet = &self.inner.nodes;
            self.busy.retain(|&i| fleet[i as usize].task.is_some());
            for &j in &self.inner.cancelled_after_run {
                ticks.push((w + 1, KIND_NODE, j));
            }
        }
        self.inner.windows = w + 1;
        let junction = self.inner.rack.junction_temp_c();
        if junction > self.inner.peak_junction_c {
            self.inner.peak_junction_c = junction;
        }
        // Schedule next window's ticks.
        if self.inner.drained() {
            ticks.clear();
            self.scratch = ticks;
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::Drained;
        }
        ticks.push((w + 1, KIND_SETTLEMENT, 0));
        if self.scheduler_armed() {
            ticks.push((w + 1, KIND_SCHEDULER, 0));
        }
        // A fault window may have scheduled a crash-retry requeue,
        // which arrives through the arrivals component: re-arm it on
        // fault windows too (a duplicate arrivals tick is harmless —
        // a spurious scheduler phase replays exactly the lockstep
        // window).
        if arrivals_due || fault_due {
            if let Some(aw) = self.next_arrival_tick() {
                ticks.push((aw.max(w + 1), KIND_ARRIVALS, 0));
            }
        }
        if fault_due {
            if let Some(fw) = self.next_fault_tick() {
                ticks.push((fw.max(w + 1), KIND_FAULT, 0));
            }
        }
        self.push_ticks(&mut ticks);
        self.scratch = ticks;
        ClusterOutcome::Running
    }

    /// Steps until the queue drains or the time limit trips.
    pub fn run_to_completion(&mut self) -> ClusterOutcome {
        loop {
            let outcome = self.step();
            if outcome.is_terminal() {
                return outcome;
            }
        }
    }

    /// Builds the cluster summary for the run so far. Takes `&mut
    /// self` because sleeping nodes' rest ledgers are settled first —
    /// the report is byte-identical to the lockstep run's at the same
    /// window count.
    pub fn report(&mut self) -> ClusterReport {
        self.catch_up_all(self.inner.windows);
        self.inner.report()
    }

    /// Settles every sleeping node and hands back the inner session,
    /// indistinguishable from a lockstep session stepped to the same
    /// window.
    pub fn into_session(mut self) -> ClusterSession {
        self.catch_up_all(self.inner.windows);
        self.inner
    }

    /// The wrapped session (read-only; sleeping nodes may be behind on
    /// their private rest ledgers until the next catch-up point).
    pub fn session(&self) -> &ClusterSession {
        &self.inner
    }

    /// [`ClusterSession::drain_stranded_requeues`], event-aware: any
    /// arrivals ticks already armed for the drained entries' due
    /// windows become no-ops (a spurious scheduler phase replays
    /// exactly the lockstep window, which runs its scheduler every
    /// window anyway), so draining between steps preserves the
    /// golden-oracle digest equivalence.
    pub fn drain_stranded_requeues(&mut self) -> Vec<ClusterTask> {
        self.inner.drain_stranded_requeues()
    }

    /// [`ClusterSession::inject_task`], event-aware: arms a scheduler
    /// tick at the current window so the admission pass observes the
    /// new ready entry immediately — without it a fully-sleeping fleet
    /// (e.g. a rack that had drained before the facility routed a
    /// stranded task here) would never wake to run the task.
    pub fn inject_task(&mut self, task: ClusterTask) -> usize {
        let id = self.inner.inject_task(task);
        let mut ticks = std::mem::take(&mut self.scratch);
        ticks.push((self.inner.windows, KIND_SCHEDULER, 0));
        self.push_ticks(&mut ticks);
        self.scratch = ticks;
        id
    }

    /// Sampling windows stepped so far.
    pub fn windows(&self) -> u64 {
        self.inner.windows
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// True once every submitted task has been resolved (completed,
    /// or failed after exhausting its crash retries).
    pub fn drained(&self) -> bool {
        self.inner.drained()
    }

    /// The shared rack.
    pub fn rack(&self) -> &RackThermal {
        self.inner.rack()
    }

    /// The shared electrical pool, when the cluster runs on one.
    pub fn supply(&self) -> Option<&RackSupply> {
        self.inner.supply()
    }

    /// Total heat the rack currently injects into its grid, watts.
    pub fn rack_heat_w(&self) -> f64 {
        self.inner.rack_heat_w()
    }

    /// Tasks arrived but not yet placed on a node.
    pub fn ready_backlog(&self) -> usize {
        self.inner.ready_backlog()
    }

    /// Nodes currently holding a sprint grant.
    pub fn sprinting_count(&self) -> usize {
        self.inner.sprinting_count()
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.inner.completed()
    }
}
