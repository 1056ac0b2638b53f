//! HotSpot-style multi-layer grid thermal backend.
//!
//! Where [`crate::phone`] lumps the whole package into a handful of RC
//! nodes, [`GridThermal`] discretizes each package layer (die, PCM,
//! spreader, ...) into an `nx x ny` cell grid. Per-core power from a
//! [`Floorplan`] is injected into the die
//! cells it overlaps, conducts laterally within layers and vertically
//! between them, and finally convects from the last layer to the
//! ambient. The payoff is *where* heat accumulates: active cores form
//! hotspots several degrees above the die average, so the hottest cell —
//! not the mean — is what gates a sprint.
//!
//! Cells store enthalpy (the same enthalpy method as [`crate::node`]),
//! so a PCM layer exhibits an exact per-cell melting plateau and energy
//! conservation holds to floating-point roundoff.
//!
//! # Choosing a solver
//!
//! Two integration schemes share the same state, power map and
//! invariants; pick one with [`GridThermalParams::solver`]:
//!
//! * [`GridSolver::Explicit`] (the default) — forward Euler with
//!   automatic sub-stepping: the step size is bounded by a fraction of
//!   the smallest cell RC constant, computed once at build time (layer
//!   structure cannot change afterwards). Every arithmetic operation is
//!   plain `f64` add/mul — no transcendentals — so traces are
//!   bit-reproducible across platforms, which the golden-trace test
//!   relies on. **Explicit is required whenever bit-stable traces
//!   matter** (golden tables, cross-platform regression baselines).
//!   Its cost is the catch: the stability sub-step shrinks with the
//!   *cell* time constant, so refining an `n x n` die grid multiplies
//!   both the cell count (`n^2`) and the sub-step count (`~n^2`) —
//!   `O(n^4)` work overall. Fine at 8x8; painful at 32x32; hopeless for
//!   a rack-as-floorplan grid.
//!
//! * [`GridSolver::Adi`] — a semi-implicit operator-split scheme
//!   (alternating-direction implicit): each sub-step sweeps die rows,
//!   then columns, then the vertical layer stacks, solving one
//!   tridiagonal system per line with the O(n) Thomas solver
//!   ([`crate::tridiag`]). Implicit sweeps are unconditionally stable,
//!   so the sub-step is bounded by the fastest *layer-to-layer*
//!   (vertical) time constant — which is independent of the grid
//!   resolution — instead of the lateral cell constant. The PCM
//!   nonlinearity is handled by a per-step phase-state linearization:
//!   each cell's phase branch (solid / melting plateau / liquid) is
//!   frozen at sub-step entry — plateau cells become fixed-temperature
//!   rows, the others use their branch capacity — and enthalpy is then
//!   corrected from the post-sweep edge fluxes, which are antisymmetric
//!   by construction, so *exact* energy conservation survives (the same
//!   invariant the explicit property tests pin). Accuracy tracks the
//!   explicit solver to well under 0.1 K on sprint-and-rest cycles
//!   (see `tests/grid_adi.rs`) while taking sub-steps 10-200x larger,
//!   which is a >10x wall-clock win at 32x32 and grows with resolution
//!   (`perfbench` records the trajectory in `BENCH_grid.json`).
//!   Prefer it for fine grids (16x16 and up), long scenarios, and
//!   rack-scale floorplans; its traces are deterministic but *not*
//!   bit-identical to the explicit solver's.
//!
//! ## Batched sweeps
//!
//! The ADI sweeps are hundreds of *independent* tridiagonal lines per
//! sub-step (one per row, column and vertical cell stack). Lines of a
//! sweep are solved as lanes of one structure-of-arrays pass
//! ([`crate::tridiag`]'s `solve_batch` / `solve_planar`): the Thomas
//! recurrence is a serially-dependent chain *within* a line, but lanes
//! are independent, so laying lines side by side turns the
//! latency-bound per-line chain into unit-stride inner loops the
//! auto-vectorizer chews whole `f64` lanes at a time. Every lane
//! performs the per-line arithmetic in the per-line order, so batched
//! sweeps are bit-identical to line-at-a-time sweeps (pinned by the
//! tridiag property tests and the in-module reference-equivalence
//! tests).
//!
//! Sweeps run serially on the calling thread. Parallelism lives one
//! level up: a facility's worker shards advance whole racks
//! concurrently.
//!
//! ## Automatic explicit fallback
//!
//! An ADI sub-step costs several explicit sub-steps' worth of work
//! (operator evaluation plus three sweeps). On coarse or strongly
//! time-compressed grids the explicit stability bound can be so close
//! to the ADI accuracy bound that implicit sweeps are pure overhead, so
//! when [`GridThermalParams::adi_explicit_fallback`] is on (the
//! default), a window whose explicit sub-step count is within
//! [`ADI_FALLBACK_COST_RATIO`]x of its ADI sub-step count integrates
//! explicitly instead — per `advance` call, from the same state, with
//! the same invariants. Disable it to pin the ADI path itself (as the
//! solver-equivalence tests do).

use serde::{Deserialize, Serialize};

use crate::floorplan::Floorplan;
use crate::phone::PhoneThermalParams;
use crate::tridiag::{Tridiag, TridiagFactor};

/// Integration scheme for a [`GridThermal`] backend. See the
/// [module docs](self) for the accuracy/cost trade-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridSolver {
    /// Forward Euler, sub-stepped to the smallest cell RC constant.
    /// Bit-stable traces; `O(cells x substeps)` cost that grows as
    /// `n^4` with grid refinement. The default.
    #[default]
    Explicit,
    /// Semi-implicit ADI: row/column/stack Thomas sweeps with per-step
    /// phase-state linearization. Unconditionally stable, sub-step set
    /// by the resolution-independent vertical time constant; exactly
    /// energy-conserving but not bit-identical to `Explicit`.
    Adi,
}

/// Phase-change parameters of a grid layer (totals for the whole layer;
/// distributed over cells by area).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerPhase {
    /// Melting temperature, Celsius.
    pub melt_temp_c: f64,
    /// Total latent heat of the layer, joules.
    pub latent_heat_j: f64,
    /// Total sensible capacity of the liquid phase, J/K.
    pub liquid_capacity_j_per_k: f64,
}

/// One package layer of the grid stack, top (die) downwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridLayer {
    /// Layer name (used in accessors and error messages).
    pub name: String,
    /// Total (solid-phase) sensible heat capacity of the layer, J/K.
    pub capacity_j_per_k: f64,
    /// Lateral sheet resistance, K/W per square (`1 / (k * thickness)`).
    /// `f64::INFINITY` disables lateral conduction in this layer.
    pub lateral_r_square_k_per_w: f64,
    /// Interface resistance from this layer to the next, K/W across the
    /// whole die area (ignored for the last layer, which couples to the
    /// ambient through the sink resistance instead).
    pub r_to_next_k_per_w: f64,
    /// Optional phase change (a PCM layer).
    pub phase_change: Option<LayerPhase>,
}

impl GridLayer {
    /// A sensible-only layer.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacity or resistances.
    pub fn sensible(
        name: impl Into<String>,
        capacity_j_per_k: f64,
        lateral_r_square_k_per_w: f64,
        r_to_next_k_per_w: f64,
    ) -> Self {
        let layer = Self {
            name: name.into(),
            capacity_j_per_k,
            lateral_r_square_k_per_w,
            r_to_next_k_per_w,
            phase_change: None,
        };
        layer.validate();
        layer
    }

    /// A phase-change layer.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities, latent heat or resistances.
    pub fn pcm(
        name: impl Into<String>,
        capacity_j_per_k: f64,
        lateral_r_square_k_per_w: f64,
        r_to_next_k_per_w: f64,
        phase: LayerPhase,
    ) -> Self {
        let layer = Self {
            name: name.into(),
            capacity_j_per_k,
            lateral_r_square_k_per_w,
            r_to_next_k_per_w,
            phase_change: Some(phase),
        };
        layer.validate();
        layer
    }

    fn validate(&self) {
        assert!(
            self.capacity_j_per_k.is_finite() && self.capacity_j_per_k > 0.0,
            "layer capacity must be positive"
        );
        assert!(
            self.lateral_r_square_k_per_w > 0.0,
            "lateral resistance must be positive (INFINITY to disable)"
        );
        assert!(
            self.r_to_next_k_per_w.is_finite() && self.r_to_next_k_per_w > 0.0,
            "interface resistance must be positive"
        );
        if let Some(pc) = &self.phase_change {
            assert!(pc.latent_heat_j > 0.0, "latent heat must be positive");
            assert!(
                pc.liquid_capacity_j_per_k > 0.0,
                "liquid capacity must be positive"
            );
        }
    }
}

/// Full parameter set for a [`GridThermal`] backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridThermalParams {
    /// Ambient temperature, Celsius.
    pub ambient_c: f64,
    /// Maximum safe cell temperature, Celsius.
    pub t_max_c: f64,
    /// Grid cells along the die width.
    pub nx: usize,
    /// Grid cells along the die height.
    pub ny: usize,
    /// Core placement (power injection map for the die layer).
    pub floorplan: Floorplan,
    /// Package layers, die first. The die layer (index 0) receives the
    /// chip power; the last layer couples to ambient.
    pub layers: Vec<GridLayer>,
    /// Convection resistance from the last layer to ambient, K/W across
    /// the whole area.
    pub r_sink_ambient_k_per_w: f64,
    /// Sub-step bound as a fraction of the smallest cell RC constant.
    /// The ADI solver applies the same fraction to its (much larger)
    /// vertical time constant, so it doubles as the accuracy knob.
    pub stability_fraction: f64,
    /// Integration scheme (see the module docs' "Choosing a solver").
    pub solver: GridSolver,
    /// Let a window whose explicit sub-step count is within
    /// [`ADI_FALLBACK_COST_RATIO`]x of its ADI sub-step count integrate
    /// explicitly even under [`GridSolver::Adi`] (on by default; see
    /// the module docs' "Automatic explicit fallback"). Disable to pin
    /// the ADI path itself regardless of cost.
    pub adi_explicit_fallback: bool,
}

impl GridThermalParams {
    /// A grid re-provisioning of the paper's phone package: the same
    /// junction/PCM/case capacities and series resistances as
    /// [`PhoneThermalParams::hpca`] (without the secondary board path),
    /// but with the die split into cells over a 4x4 core floorplan. TDP
    /// and sprint budget are near the lumped design's; what changes is
    /// that active cores form hotspots ~5-10 C above the die mean, so
    /// the hottest cell hits the 70 C limit during a 16 W sprint even
    /// though the *average* junction stays comfortably below it.
    ///
    /// Hotspot timescales at 1 W/core (uncompressed): 16 active cores
    /// reach the limit in ~0.75 s — well before the lumped package's
    /// ~1.1 s budget — while 8 cores last ~1.3 s and 4 cores ~3 s, so a
    /// core-count throttle genuinely stretches the sprint.
    pub fn hpca_like() -> Self {
        Self {
            ambient_c: 25.0,
            t_max_c: 70.0,
            nx: 8,
            ny: 8,
            floorplan: Floorplan::regular_array(4, 4, 0.72, 0.8),
            layers: vec![
                // Die: the junction lump of the phone model, now spatial.
                // Lateral sheet resistance ~= 1/(k_si * t_die).
                GridLayer::sensible("die", 0.01, 8.0, 0.35),
                // PCM: metal-foam-infiltrated composite (the paper's
                // Section 4.4 encapsulation), so lateral conduction
                // redistributes a hot core's heat into neighbouring
                // still-frozen PCM; the interface to the case remains
                // the dominant cooling resistance.
                GridLayer::pcm(
                    "pcm",
                    0.042,
                    300.0,
                    38.0,
                    LayerPhase {
                        melt_temp_c: 60.0,
                        latent_heat_j: 14.0,
                        liquid_capacity_j_per_k: 0.042,
                    },
                ),
                // Spreader/case: copper-class lateral spreading.
                GridLayer::sensible("spreader", 50.0, 2.0, 1.0),
            ],
            r_sink_ambient_k_per_w: 1.0,
            stability_fraction: 0.2,
            solver: GridSolver::Explicit,
            adi_explicit_fallback: true,
        }
    }

    /// A 1x1-cell-per-layer grid equivalent of a (board-less) phone
    /// package: die = junction lump, PCM block, spreader = case, with
    /// the same capacities and series resistances. Used to validate the
    /// grid solver against the lumped reference — both must track the
    /// same junction trajectory. The secondary board path (if present in
    /// `phone`) is not modelled; compare against a `board_path: None`
    /// build.
    ///
    /// # Panics
    ///
    /// Panics if `phone` has no PCM (the grid stack expects the
    /// three-layer chain) or a PCM material without a melting point.
    pub fn phone_equivalent(phone: &PhoneThermalParams) -> Self {
        assert!(
            phone.pcm_mass_g > 0.0,
            "phone_equivalent needs the PCM layer"
        );
        let melt = phone
            .pcm_material
            .melting_point_c()
            .expect("PCM material must have a melting point");
        let sensible = phone
            .pcm_material
            .block_heat_capacity_j_per_k(phone.pcm_mass_g);
        let latent = phone.pcm_material.block_latent_heat_j(phone.pcm_mass_g);
        Self {
            ambient_c: phone.ambient_c,
            t_max_c: phone.t_max_c,
            nx: 1,
            ny: 1,
            floorplan: Floorplan::full_die(),
            layers: vec![
                GridLayer::sensible(
                    "die",
                    phone.junction_capacity_j_per_k,
                    f64::INFINITY,
                    phone.r_junction_pcm_k_per_w,
                ),
                GridLayer::pcm(
                    "pcm",
                    sensible,
                    f64::INFINITY,
                    phone.r_pcm_case_k_per_w,
                    LayerPhase {
                        melt_temp_c: melt,
                        latent_heat_j: latent,
                        liquid_capacity_j_per_k: sensible,
                    },
                ),
                GridLayer::sensible("spreader", phone.case_capacity_j_per_k, f64::INFINITY, 1.0),
            ],
            r_sink_ambient_k_per_w: phone.r_case_ambient_k_per_w,
            // Tight sub-steps: this configuration exists to be compared
            // against the exactly-integrated lumped reference.
            stability_fraction: 0.05,
            solver: GridSolver::Explicit,
            adi_explicit_fallback: true,
        }
    }

    /// A rack-as-floorplan grid: `cols x rows` *servers* (one floorplan
    /// "core" rectangle per node) over a shared-airflow plenum layer —
    /// the data-center generalization of the die model (Porto et al.'s
    /// "fast, but not so furious" sprinting regime). Heat leaves each
    /// node vertically into the plenum, mixes laterally there (strong
    /// lateral conduction stands in for airflow recirculation), and
    /// convects to the CRAC ambient through the sink resistance.
    ///
    /// The design point assumes paper-like nodes: ~1 W sustained and
    /// ~16 W sprinting per server. Capacities are deliberately small
    /// (a behavioural rack, not a physical one) so node sprints exhaust
    /// on the paper's timescales: per-node sprint budget ≈ 30 J, node
    /// time constant ≈ 0.4 s, rack (plenum) time constant ≈ 10 s. The
    /// sizing scales with the node count — a lone sprinter barely
    /// registers (junction ≈ 45 C), a third of the rack sprinting
    /// approaches the 70 C limit, and the whole rack sprinting drives
    /// the steady state far past it (thermal collapse) — which is
    /// exactly the contention a cluster-level admission policy manages.
    ///
    /// Defaults: 8x8 cells per node (so a 4x4 rack is a 32x32 grid) and
    /// the ADI solver — the stack has no PCM, so every ADI line factor
    /// is cached and the sub-step is resolution-independent; explicit
    /// sub-stepping at rack resolutions is exactly the cost the solver
    /// work removed. Override with [`Self::with_grid`] /
    /// [`Self::with_solver`] where a scenario needs to.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` and `rows` are at least 1.
    pub fn rack(cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "rack needs at least one server");
        let nodes = (cols * rows) as f64;
        // Server rectangles nearly tile the rack footprint.
        let (span, fill) = (0.96, 0.82);
        let coverage = (span * fill) * (span * fill);
        // Per-node constants of the design point (see the doc comment).
        // The plenum is deliberately light: airflow carries little
        // thermal mass, so the shared layer *reacts* on sprint
        // timescales — load up the rack and every node's inlet warms
        // within a burst, which is what makes unmanaged all-node
        // sprinting overshoot into the failsafe instead of being
        // quietly absorbed.
        let server_c_j_per_k = 1.0 * nodes;
        let plenum_c_j_per_k = 0.5 * nodes;
        // Whole-area server->plenum resistance giving each node a local
        // vertical resistance of ~0.6 K/W through its own footprint.
        let r_server_plenum = 0.6 * coverage / nodes;
        // Sink sized so the rack sustains ~8 W per node at the limit:
        // all-sustained (1 W/node) idles ~30 C, a quarter of the rack
        // sprinting runs warm, the whole rack sprinting collapses.
        let r_sink = 45.0 / (8.0 * nodes);
        Self {
            ambient_c: 25.0,
            t_max_c: 70.0,
            nx: 8 * cols,
            ny: 8 * rows,
            floorplan: Floorplan::regular_array(cols, rows, span, fill),
            layers: vec![
                // Servers: chassis + heatsink mass, nearly isolated
                // laterally (conduction between neighbouring chassis
                // is negligible next to the airflow path).
                GridLayer::sensible("servers", server_c_j_per_k, 50.0, r_server_plenum),
                // Plenum: shared airflow; strong lateral mixing.
                GridLayer::sensible("plenum", plenum_c_j_per_k, 0.1, 1.0),
            ],
            r_sink_ambient_k_per_w: r_sink,
            stability_fraction: 0.2,
            solver: GridSolver::Adi,
            adi_explicit_fallback: true,
        }
    }

    /// Sets the grid resolution (builder style).
    pub fn with_grid(mut self, nx: usize, ny: usize) -> Self {
        self.nx = nx;
        self.ny = ny;
        self
    }

    /// Swaps the floorplan (builder style).
    pub fn with_floorplan(mut self, floorplan: Floorplan) -> Self {
        self.floorplan = floorplan;
        self
    }

    /// Selects the integration scheme (builder style).
    pub fn with_solver(mut self, solver: GridSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Enables or disables the automatic explicit fallback for cheap
    /// windows (builder style); see [`Self::adi_explicit_fallback`].
    pub fn with_adi_fallback(mut self, enabled: bool) -> Self {
        self.adi_explicit_fallback = enabled;
        self
    }

    /// Compresses every thermal time constant by `factor` by dividing
    /// all heat capacities and latent heats by it — the same simulation
    /// trick as [`PhoneThermalParams::time_scaled`]. Steady-state
    /// temperatures and TDP are unchanged; transients shrink by exactly
    /// `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is strictly positive and finite.
    pub fn time_scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        for layer in &mut self.layers {
            layer.capacity_j_per_k /= factor;
            if let Some(pc) = &mut layer.phase_change {
                pc.latent_heat_j /= factor;
                pc.liquid_capacity_j_per_k /= factor;
            }
        }
        self
    }

    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid/stack/floorplan, a limit at or below
    /// ambient, an ambient at or above a PCM melting point, or a
    /// stability fraction outside `(0, 0.5]`.
    pub fn validate(&self) {
        assert!(self.nx >= 1 && self.ny >= 1, "grid needs at least one cell");
        assert!(!self.layers.is_empty(), "stack needs at least one layer");
        assert!(
            self.floorplan.core_count() >= 1,
            "floorplan needs at least one core"
        );
        assert!(self.t_max_c > self.ambient_c, "limit must exceed ambient");
        assert!(
            self.r_sink_ambient_k_per_w.is_finite() && self.r_sink_ambient_k_per_w > 0.0,
            "sink resistance must be positive"
        );
        assert!(
            self.stability_fraction > 0.0 && self.stability_fraction <= 0.5,
            "stability fraction must be in (0, 0.5]"
        );
        for layer in &self.layers {
            layer.validate();
            if let Some(pc) = &layer.phase_change {
                assert!(
                    self.ambient_c < pc.melt_temp_c,
                    "ambient must be below the PCM melting point"
                );
            }
        }
    }

    /// Equivalent junction-to-ambient series resistance of the stack
    /// (valid for uniform power: interface resistances plus sink), K/W.
    pub fn series_resistance_k_per_w(&self) -> f64 {
        let interfaces: f64 = self.layers[..self.layers.len() - 1]
            .iter()
            .map(|l| l.r_to_next_k_per_w)
            .sum();
        interfaces + self.r_sink_ambient_k_per_w
    }

    /// Builds the backend with every cell at ambient temperature.
    pub fn build(self) -> GridThermal {
        GridThermal::new(self)
    }
}

/// Implicitness weight of the ADI theta scheme. `1/2` is the
/// trapezoidal (Crank-Nicolson) limit — second-order accurate but with
/// zero damping of unresolved stiff modes; backing off slightly buys
/// L-stable-like damping (amplification `-(1-θ)/θ` as `dt/τ -> ∞`)
/// while keeping the first-order error term `(θ - 1/2) dt` an order of
/// magnitude below backward Euler's. The sprint-cycle equivalence tests
/// pin the resulting accuracy.
const ADI_THETA: f64 = 0.55;

/// Cost of one ADI sub-step in explicit sub-steps: a full operator
/// evaluation (= one explicit step) plus three batched sweeps, each a
/// few passes over the grid. With [`GridThermalParams::
/// adi_explicit_fallback`] on, an `advance` window integrates
/// explicitly whenever its explicit sub-step count is within this
/// ratio of its ADI count — i.e. whenever implicit sweeps cannot pay
/// for themselves. Coarse, heavily time-compressed racks (the
/// event-core perf case: explicit/ADI step ratio ≈ 1.2) and lumped 1x1
/// chains (ratio 1) fall back; every die-scale case stays ADI (8x8 at
/// the perfbench window is ratio 11, a 16x16 is ratio 41). The
/// crossover is pinned by `tests/grid_adi.rs`.
pub const ADI_FALLBACK_COST_RATIO: f64 = 5.0;

/// A conductance edge between two cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct GridEdge {
    a: u32,
    b: u32,
    g_w_per_k: f64,
}

/// Per-cell phase-change bookkeeping (copied from the owning layer with
/// per-cell totals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CellPhase {
    melt_temp_c: f64,
    latent_heat_j: f64,
    liquid_capacity_j_per_k: f64,
}

/// Cached ADI line factorizations for the coefficient sets that cannot
/// change between sub-steps: every line of a PCM-free layer solves the
/// identical tridiagonal system (only melting-plateau rows ever alter a
/// coefficient, and only PCM layers have those), so the Thomas
/// elimination is factored once per theta-weighted step size and
/// replayed per line. Keyed on `wdt`; a `advance` call with a different
/// window size rebuilds lazily (a session's window is constant, so in
/// practice this is built once).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct AdiCoeffCache {
    /// The theta-weighted sub-step the factors were built for
    /// (0 = empty cache; `wdt` is always positive in use).
    wdt: f64,
    /// Per-layer row (x-direction) factors; `None` for PCM layers,
    /// lateral-disabled layers and 1-cell axes.
    rows: Vec<Option<TridiagFactor>>,
    /// Per-layer column (y-direction) factors.
    cols: Vec<Option<TridiagFactor>>,
    /// The vertical-stack factor, shared by every cell column (the
    /// per-cell conductances are uniform); `None` when any layer has
    /// phase change, since plateau rows rewrite stack coefficients.
    stack: Option<TridiagFactor>,
}

/// The grid thermal backend. See the module docs for the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridThermal {
    params: GridThermalParams,
    cells_per_layer: usize,
    /// Enthalpy per cell (J, relative to 0 C), layer-major.
    enthalpy_j: Vec<f64>,
    /// Solid-phase sensible capacity per cell, J/K.
    capacity_j_per_k: Vec<f64>,
    /// Phase change per cell (PCM layers only).
    phase: Vec<Option<CellPhase>>,
    /// Power injected per cell, W (die layer only).
    power_w: Vec<f64>,
    /// Conduction edges (lateral + vertical). Both solvers evaluate the
    /// full operator through this list: the explicit step directly, the
    /// ADI step for its Douglas-Gunn right-hand side.
    edges: Vec<GridEdge>,
    /// Convection edges from last-layer cells to ambient.
    sink: Vec<(u32, f64)>,
    /// Per-core (cell, weight) lists on the die layer.
    core_cells: Vec<Vec<(usize, f64)>>,
    /// Indices of phase-change cells (sparse: the PCM layer only), so
    /// the hot temperature pass can stay branch-free for the rest.
    pcm_cells: Vec<u32>,
    /// Per-layer x-neighbour conductance, W/K (0 = lateral disabled).
    lat_gx: Vec<f64>,
    /// Per-layer y-neighbour conductance, W/K (0 = lateral disabled).
    lat_gy: Vec<f64>,
    /// Per-cell vertical conductance across each layer interface, W/K.
    g_vert: Vec<f64>,
    /// Per-cell last-layer-to-ambient conductance, W/K.
    g_sink_cell: f64,
    chip_power_w: f64,
    /// Per-core power, watts — the source of truth behind `power_w`.
    /// Written either uniformly (the `set_chip_power_w` split over
    /// `active_cores`) or individually (`set_core_power_w`, the rack
    /// path where every node carries its own load).
    core_power_w: Vec<f64>,
    /// `core_power_w` changed since `power_w` was last rebuilt; the
    /// rebuild happens once at the next `advance` (many rack nodes
    /// update their powers between two integrations — one rebuild
    /// serves them all).
    core_power_dirty: bool,
    active_cores: usize,
    sub_step_s: f64,
    adi_sub_step_s: f64,
    time_s: f64,
    boundary_absorbed_j: f64,
    peak_hotspot_gradient_k: f64,
    /// Hottest die cell after the last `advance` (or reset), Celsius.
    /// Enthalpy only changes inside `advance`/`reset_to_ambient`, so
    /// the cache is always current; it turns the per-window
    /// junction/headroom/limit queries of the sprint controller from
    /// O(cells) scans into loads.
    junction_cache_c: f64,
    /// Die-layer cell temperatures after the last `advance` (or reset),
    /// Celsius. Like the junction cache it is always current, so
    /// per-core, gradient and mean queries fold cached cells instead of
    /// re-deriving temperatures from enthalpy.
    die_temps_c: Vec<f64>,
    /// Peak temperature seen per die cell since the last reset, Celsius.
    /// Per-core peaks fold these on read: max commutes with max, so the
    /// result equals a running per-core peak while each advance stays
    /// O(cells) however many cores share them.
    peak_die_temps_c: Vec<f64>,
    /// Ambient at the last reset, Celsius: the floor every peak starts
    /// from (`set_ambient_c` may move the ambient since).
    peak_floor_c: f64,
    scratch_temps: Vec<f64>,
    scratch_flows: Vec<f64>,
    /// ADI scratch: per-cell effective capacity for the current
    /// sub-step's phase-state linearization (INFINITY = melting
    /// plateau, i.e. a fixed-temperature row).
    adi_ceff: Vec<f64>,
    /// ADI scratch: the Douglas-Gunn right-hand side carried between
    /// implicit factors (energy units, `C * w`).
    adi_rhs: Vec<f64>,
    /// ADI scratch: one line's tridiagonal system and solution.
    tri_sub: Vec<f64>,
    tri_diag: Vec<f64>,
    tri_sup: Vec<f64>,
    tri_rhs: Vec<f64>,
    tri_x: Vec<f64>,
    /// ADI scratch for the batched paths: a whole plane (row/column
    /// sweep) or the whole grid (stack sweep) of solutions from one
    /// planar Thomas pass.
    adi_plane: Vec<f64>,
    /// Lane-major coefficient planes for the general (PCM) batched
    /// sweeps: per-lane tridiagonal systems assembled side by side so
    /// one [`Tridiag::solve_batch`] call sweeps a whole layer (or every
    /// vertical stack) at once.
    adi_bat_sub: Vec<f64>,
    adi_bat_diag: Vec<f64>,
    adi_bat_sup: Vec<f64>,
    adi_bat_rhs: Vec<f64>,
    /// Staging scratch for [`TridiagFactor::solve_batch`] row bundles.
    adi_batch_scratch: Vec<f64>,
    tridiag: Tridiag,
    adi_cache: AdiCoeffCache,
}

impl GridThermal {
    /// Builds the grid from validated parameters, all cells at ambient.
    pub fn new(params: GridThermalParams) -> Self {
        params.validate();
        let (nx, ny) = (params.nx, params.ny);
        let cells = nx * ny;
        let n = cells * params.layers.len();
        let mut capacity = Vec::with_capacity(n);
        let mut phase = Vec::with_capacity(n);
        for layer in &params.layers {
            let c_cell = layer.capacity_j_per_k / cells as f64;
            let p_cell = layer.phase_change.map(|pc| CellPhase {
                melt_temp_c: pc.melt_temp_c,
                latent_heat_j: pc.latent_heat_j / cells as f64,
                liquid_capacity_j_per_k: pc.liquid_capacity_j_per_k / cells as f64,
            });
            for _ in 0..cells {
                capacity.push(c_cell);
                phase.push(p_cell);
            }
        }
        // Per-axis conductances in SoA form, the single source both
        // operator representations are built from: the ADI sweeps use
        // them directly, the edge list (the explicit step and the ADI
        // right-hand side) is assembled from the same values below.
        // Sheet resistance per square: an x-neighbour pair spans dx of
        // length over dy of width, so R = r_sq * dx / dy. Zero means
        // "no such edge" (lateral disabled, or a 1-cell axis).
        let dx = params.floorplan.die_w() / nx as f64;
        let dy = params.floorplan.die_h() / ny as f64;
        let lateral = |r_sq: f64, num: f64, den: f64, axis_cells: usize| {
            if r_sq.is_finite() && axis_cells > 1 {
                num / (r_sq * den)
            } else {
                0.0
            }
        };
        let lat_gx: Vec<f64> = params
            .layers
            .iter()
            .map(|l| lateral(l.lateral_r_square_k_per_w, dy, dx, nx))
            .collect();
        let lat_gy: Vec<f64> = params
            .layers
            .iter()
            .map(|l| lateral(l.lateral_r_square_k_per_w, dx, dy, ny))
            .collect();
        let g_vert: Vec<f64> = params.layers[..params.layers.len() - 1]
            .iter()
            .map(|l| 1.0 / (l.r_to_next_k_per_w * cells as f64))
            .collect();

        let mut edges = Vec::new();
        for li in 0..params.layers.len() {
            let base = li * cells;
            let (g_x, g_y) = (lat_gx[li], lat_gy[li]);
            if g_x > 0.0 || g_y > 0.0 {
                for y in 0..ny {
                    for x in 0..nx {
                        let i = (base + y * nx + x) as u32;
                        if x + 1 < nx {
                            edges.push(GridEdge {
                                a: i,
                                b: i + 1,
                                g_w_per_k: g_x,
                            });
                        }
                        if y + 1 < ny {
                            edges.push(GridEdge {
                                a: i,
                                b: i + nx as u32,
                                g_w_per_k: g_y,
                            });
                        }
                    }
                }
            }
            if li + 1 < params.layers.len() {
                let g_v = g_vert[li];
                for c in 0..cells {
                    edges.push(GridEdge {
                        a: (base + c) as u32,
                        b: (base + cells + c) as u32,
                        g_w_per_k: g_v,
                    });
                }
            }
        }
        let sink_base = (params.layers.len() - 1) * cells;
        let g_sink = 1.0 / (params.r_sink_ambient_k_per_w * cells as f64);
        let sink: Vec<(u32, f64)> = (0..cells)
            .map(|c| ((sink_base + c) as u32, g_sink))
            .collect();

        // Stability bound: smallest C / G_total over cells, computed once
        // (the structure is fixed; the solid capacity is the conservative
        // choice for PCM cells, whose effective capacity only grows
        // during melt).
        let mut g_total = vec![0.0f64; n];
        for e in &edges {
            g_total[e.a as usize] += e.g_w_per_k;
            g_total[e.b as usize] += e.g_w_per_k;
        }
        for &(i, g) in &sink {
            g_total[i as usize] += g;
        }
        let mut min_tau = f64::INFINITY;
        for i in 0..n {
            let c = match &phase[i] {
                Some(pc) => capacity[i].min(pc.liquid_capacity_j_per_k),
                None => capacity[i],
            };
            if g_total[i] > 0.0 {
                min_tau = min_tau.min(c / g_total[i]);
            }
        }
        let sub_step_s = if min_tau.is_finite() {
            params.stability_fraction * min_tau
        } else {
            f64::MAX
        };

        // ADI sub-step bound: implicit sweeps are unconditionally
        // stable, so this is an *accuracy* bound — the stability
        // fraction of the fastest vertical (layer-to-layer) time
        // constant, which with the theta-weighted factors keeps
        // sprint-cycle junction traces within 0.1 K of the explicit
        // reference (tests/grid_adi.rs pins it). Per-cell capacity over
        // per-cell vertical conductance equals the layer-level ratio,
        // so the bound is independent of the grid resolution: exactly
        // the decoupling the explicit solver lacks.
        let layer_count = params.layers.len();
        let mut min_tau_vert = f64::INFINITY;
        for (li, layer) in params.layers.iter().enumerate() {
            let g_up = if li > 0 { g_vert[li - 1] } else { 0.0 };
            let g_dn = if li + 1 < layer_count {
                g_vert[li]
            } else {
                g_sink
            };
            let c_cell = match &layer.phase_change {
                Some(pc) => (layer.capacity_j_per_k / cells as f64)
                    .min(pc.liquid_capacity_j_per_k / cells as f64),
                None => layer.capacity_j_per_k / cells as f64,
            };
            min_tau_vert = min_tau_vert.min(c_cell / (g_up + g_dn));
        }
        let adi_sub_step_s = params.stability_fraction * min_tau_vert;

        let pcm_cells: Vec<u32> = phase
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_some().then_some(i as u32))
            .collect();
        let line_max = nx.max(ny).max(layer_count);
        let core_cells: Vec<Vec<(usize, f64)>> = (0..params.floorplan.core_count())
            .map(|c| params.floorplan.cell_weights(c, nx, ny))
            .collect();
        let cores = core_cells.len();
        let ambient = params.ambient_c;
        let mut grid = Self {
            cells_per_layer: cells,
            enthalpy_j: vec![0.0; n],
            capacity_j_per_k: capacity,
            phase,
            power_w: vec![0.0; n],
            edges,
            sink,
            core_cells,
            pcm_cells,
            lat_gx,
            lat_gy,
            g_vert,
            g_sink_cell: g_sink,
            chip_power_w: 0.0,
            core_power_w: vec![0.0; cores],
            core_power_dirty: false,
            active_cores: cores,
            sub_step_s,
            adi_sub_step_s,
            time_s: 0.0,
            boundary_absorbed_j: 0.0,
            peak_hotspot_gradient_k: 0.0,
            junction_cache_c: ambient,
            die_temps_c: vec![ambient; cells],
            peak_die_temps_c: vec![ambient; cells],
            peak_floor_c: ambient,
            scratch_temps: vec![0.0; n],
            scratch_flows: vec![0.0; n],
            adi_ceff: vec![0.0; n],
            adi_rhs: vec![0.0; n],
            tri_sub: vec![0.0; line_max],
            tri_diag: vec![0.0; line_max],
            tri_sup: vec![0.0; line_max],
            tri_rhs: vec![0.0; line_max],
            tri_x: vec![0.0; line_max],
            adi_plane: vec![0.0; n],
            adi_bat_sub: vec![0.0; n],
            adi_bat_diag: vec![0.0; n],
            adi_bat_sup: vec![0.0; n],
            adi_bat_rhs: vec![0.0; n],
            adi_batch_scratch: Vec::new(),
            tridiag: Tridiag::with_capacity(line_max),
            adi_cache: AdiCoeffCache::default(),
            params,
        };
        grid.reset_to_ambient();
        grid
    }

    /// The parameters this backend was built from.
    pub fn params(&self) -> &GridThermalParams {
        &self.params
    }

    /// Cells per layer (`nx * ny`).
    pub fn cells_per_layer(&self) -> usize {
        self.cells_per_layer
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.params.layers.len()
    }

    /// The explicit solver's automatic stability sub-step bound,
    /// seconds (a fraction of the smallest cell RC constant).
    pub fn sub_step_s(&self) -> f64 {
        self.sub_step_s
    }

    /// The ADI solver's accuracy sub-step bound, seconds (a fraction of
    /// the fastest vertical time constant; resolution-independent).
    pub fn adi_sub_step_s(&self) -> f64 {
        self.adi_sub_step_s
    }

    /// The integration scheme this backend steps with.
    pub fn solver(&self) -> GridSolver {
        self.params.solver
    }

    /// The scheme a window of `dt_s` seconds actually integrates with:
    /// the configured solver, except that a cheap-window ADI `advance`
    /// falls back to explicit when implicit sweeps cannot pay for
    /// themselves (see [`ADI_FALLBACK_COST_RATIO`]; disabled via
    /// [`GridThermalParams::adi_explicit_fallback`]).
    pub fn effective_solver(&self, dt_s: f64) -> GridSolver {
        match self.params.solver {
            GridSolver::Explicit => GridSolver::Explicit,
            GridSolver::Adi => {
                if self.params.adi_explicit_fallback && dt_s > 0.0 {
                    let steps_e = (dt_s / self.sub_step_s).ceil().max(1.0);
                    let steps_a = (dt_s / self.adi_sub_step_s).ceil().max(1.0);
                    if steps_e <= ADI_FALLBACK_COST_RATIO * steps_a {
                        return GridSolver::Explicit;
                    }
                }
                GridSolver::Adi
            }
        }
    }

    /// Current simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Sets the total chip power; it is split evenly across the active
    /// cores and rasterized onto the die cells each core overlaps.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite power.
    pub fn set_chip_power_w(&mut self, watts: f64) {
        assert!(watts.is_finite(), "power must be finite");
        self.chip_power_w = watts;
        self.apply_power_map();
    }

    /// Sets how many cores the chip power is spread over (clamped to
    /// `[1, core_count]`); the first `n` floorplan cores are active.
    pub fn set_active_cores(&mut self, n: usize) {
        let n = n.clamp(1, self.core_cells.len());
        if n != self.active_cores {
            self.active_cores = n;
            self.apply_power_map();
        }
    }

    /// Active core count the power map assumes.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Total chip power currently injected, watts.
    pub fn chip_power_w(&self) -> f64 {
        self.chip_power_w
    }

    /// Sets one core's power individually, leaving every other core's
    /// untouched — the rack path, where each floorplan "core" is a
    /// server carrying its own load. The total chip power becomes the
    /// sum of the per-core powers; a later [`set_chip_power_w`]
    /// (uniform split over the active cores) overwrites the whole map
    /// again, so the two interfaces compose without hidden state.
    ///
    /// [`set_chip_power_w`]: Self::set_chip_power_w
    ///
    /// # Panics
    ///
    /// Panics on a non-finite power or an out-of-range core index.
    pub fn set_core_power_w(&mut self, core: usize, watts: f64) {
        assert!(watts.is_finite(), "power must be finite");
        assert!(core < self.core_cells.len(), "core index out of range");
        // Unchanged writes are free: idle rack nodes re-assert 0 W
        // every sampling window, and a skipped rewrite is trivially
        // bit-identical to a repeated one.
        if self.core_power_w[core] == watts {
            return;
        }
        self.core_power_w[core] = watts;
        self.chip_power_w = self.core_power_w.iter().sum();
        // The cell map rebuild is deferred to the next `advance`: the
        // rebuild is always from zero (bit-stable, unlike a running
        // +=/-= delta), and deferring coalesces the many per-node
        // writes a rack makes between two integrations into one pass.
        self.core_power_dirty = true;
    }

    /// Power currently injected by core `core`, watts.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn core_power_w(&self, core: usize) -> f64 {
        self.core_power_w[core]
    }

    fn apply_power_map(&mut self) {
        let per_core = self.chip_power_w / self.active_cores as f64;
        for (c, p) in self.core_power_w.iter_mut().enumerate() {
            *p = if c < self.active_cores { per_core } else { 0.0 };
        }
        // One rebuild path for both interfaces: with `core_power_w`
        // just filled, the per-core rebuild performs the identical
        // zero-and-accumulate arithmetic the uniform split always did
        // (0 W cores contribute exactly nothing either way).
        self.apply_core_power_map();
    }

    /// Rebuilds the die power map from the per-core powers (the
    /// `set_core_power_w` path; rewrites from zero with the same
    /// arithmetic as [`Self::apply_power_map`]).
    fn apply_core_power_map(&mut self) {
        self.core_power_dirty = false;
        for p in self.power_w[..self.cells_per_layer].iter_mut() {
            *p = 0.0;
        }
        for (core, cells) in self.core_cells.iter().enumerate() {
            let w = self.core_power_w[core];
            if w != 0.0 {
                for &(cell, weight) in cells {
                    self.power_w[cell] += w * weight;
                }
            }
        }
    }

    fn cell_temp(&self, i: usize) -> f64 {
        cell_temp_of(self.enthalpy_j[i], self.capacity_j_per_k[i], &self.phase[i])
    }

    /// Temperature of cell `(x, y)` in layer `layer`, Celsius.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn cell_temp_c(&self, layer: usize, x: usize, y: usize) -> f64 {
        assert!(layer < self.layer_count() && x < self.params.nx && y < self.params.ny);
        self.cell_temp(layer * self.cells_per_layer + y * self.params.nx + x)
    }

    /// Hottest die-layer cell, Celsius — the hotspot the sprint
    /// controller must respect. Served from a cache refreshed on every
    /// `advance` (enthalpy cannot change between advances), so the
    /// controller's repeated junction/headroom/limit queries cost a
    /// load instead of an O(cells) scan.
    pub fn junction_temp_c(&self) -> f64 {
        self.junction_cache_c
    }

    /// Mean die-layer temperature, Celsius — what a lumped model would
    /// report.
    pub fn mean_die_temp_c(&self) -> f64 {
        let sum: f64 = self.die_temps_c.iter().sum();
        sum / self.cells_per_layer as f64
    }

    /// Spread between the hottest and coolest die cell right now, Kelvin.
    pub fn hotspot_gradient_k(&self) -> f64 {
        let (lo, hi) = min_max(&self.die_temps_c);
        hi - lo
    }

    /// Largest die-cell spread observed over the whole run, Kelvin.
    pub fn peak_hotspot_gradient_k(&self) -> f64 {
        self.peak_hotspot_gradient_k
    }

    /// Hottest cell under core `core`'s footprint, Celsius.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn core_temp_c(&self, core: usize) -> f64 {
        self.core_cells[core]
            .iter()
            .map(|&(cell, _)| self.die_temps_c[cell])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Current per-core hotspot temperatures, Celsius.
    pub fn core_temps_c(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.core_cells.len()];
        self.core_temps_c_into(&mut out);
        out
    }

    /// Writes the current per-core hotspot temperatures into `out` —
    /// the non-allocating form of [`Self::core_temps_c`] for per-window
    /// polling loops (the cluster admission scheduler reads every
    /// node's temperature every sampling window).
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals the floorplan's core count.
    pub fn core_temps_c_into(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.core_cells.len(),
            "output slice must have one slot per core"
        );
        for (c, t) in out.iter_mut().enumerate() {
            *t = self.core_temp_c(c);
        }
    }

    /// Peak per-core hotspot temperatures since the last reset, Celsius:
    /// the hottest any cell under each core's footprint has been after an
    /// `advance`, never below the ambient at that reset. Folded from the
    /// per-cell peaks on each call (O(footprint cells)).
    pub fn peak_core_temps_c(&self) -> Vec<f64> {
        self.core_cells
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .map(|&(cell, _)| self.peak_die_temps_c[cell])
                    .fold(self.peak_floor_c, f64::max)
            })
            .collect()
    }

    /// Overall melt fraction: melted latent heat over total latent heat
    /// across all PCM cells (zero without a PCM layer).
    pub fn melt_fraction(&self) -> f64 {
        let mut melted = 0.0;
        let mut total = 0.0;
        for (i, phase) in self.phase.iter().enumerate() {
            if let Some(pc) = phase {
                let h0 = pc.melt_temp_c * self.capacity_j_per_k[i];
                melted += (self.enthalpy_j[i] - h0).clamp(0.0, pc.latent_heat_j);
                total += pc.latent_heat_j;
            }
        }
        if total > 0.0 {
            melted / total
        } else {
            0.0
        }
    }

    /// Ambient temperature, Celsius.
    pub fn ambient_c(&self) -> f64 {
        self.params.ambient_c
    }

    /// Changes the ambient (sink/inlet-air) temperature mid-run — the
    /// facility settlement hook: row-level airflow recirculation raises
    /// a rack's inlet air as its row's exhaust heat exceeds the CRAC
    /// capacity. Safe between `advance` calls with either solver: the
    /// ambient enters only the right-hand side of the heat operator
    /// (the `T - ambient` sink term), never the cached ADI line
    /// factorizations, so no factorization is invalidated. Cell state
    /// is untouched — only future sink flows change.
    ///
    /// # Panics
    ///
    /// Panics unless `ambient_c` is finite and below the thermal limit
    /// (and below any PCM melting point, mirroring `validate`).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        assert!(
            ambient_c.is_finite() && ambient_c < self.params.t_max_c,
            "ambient must be finite and below the thermal limit"
        );
        for layer in &self.params.layers {
            if let Some(pc) = &layer.phase_change {
                assert!(
                    ambient_c < pc.melt_temp_c,
                    "ambient must be below the PCM melting point"
                );
            }
        }
        self.params.ambient_c = ambient_c;
    }

    /// Maximum safe cell temperature, Celsius.
    pub fn t_max_c(&self) -> f64 {
        self.params.t_max_c
    }

    /// Headroom of the hottest cell below the limit, Kelvin.
    pub fn headroom_k(&self) -> f64 {
        self.params.t_max_c - self.junction_temp_c()
    }

    /// True once the hottest cell has reached the limit.
    pub fn at_thermal_limit(&self) -> bool {
        self.junction_temp_c() >= self.params.t_max_c - 1e-9
    }

    /// Sprint energy budget from the current state, joules: remaining
    /// latent heat plus the sensible headroom of the die and PCM layers
    /// up to the limit (the grid analogue of the phone model's
    /// "16 joules"). Die and phase-change cells only: the bulk of
    /// sensible layers further down (spreaders, heatsinks) would dwarf
    /// the fast storage that actually buffers a sprint.
    pub fn sprint_energy_budget_j(&self) -> f64 {
        let mut budget = 0.0;
        for i in 0..self.enthalpy_j.len() {
            if i >= self.cells_per_layer && self.phase[i].is_none() {
                continue;
            }
            budget += self.cell_sprint_budget_j(i);
        }
        budget
    }

    /// Sprint energy budget of one core's region, joules: the same
    /// accounting as [`Self::sprint_energy_budget_j`] restricted to the
    /// cell columns under core `core`'s floorplan footprint. This is
    /// the budget a *node* of a rack floorplan can spend — its own die
    /// cells and the storage directly beneath them — rather than the
    /// rack-global figure. For a core whose footprint covers the whole
    /// die the two are identical (bit-for-bit: same cells, visited in
    /// the same layer-major ascending order, so the sums accumulate
    /// identically). Touches only the footprint's columns — no
    /// allocation, no full-grid scan — so it is cheap enough for
    /// per-window scheduler telemetry.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn region_sprint_budget_j(&self, core: usize) -> f64 {
        let mut budget = 0.0;
        for li in 0..self.params.layers.len() {
            let base = li * self.cells_per_layer;
            for &(cell, _) in &self.core_cells[core] {
                let i = base + cell;
                if li > 0 && self.phase[i].is_none() {
                    continue;
                }
                budget += self.cell_sprint_budget_j(i);
            }
        }
        budget
    }

    /// One cell's contribution to the sprint budget: remaining latent
    /// heat plus sensible headroom up to the limit.
    fn cell_sprint_budget_j(&self, i: usize) -> f64 {
        let t_max = self.params.t_max_c;
        let t = self.cell_temp(i);
        match &self.phase[i] {
            Some(pc) => {
                let h0 = pc.melt_temp_c * self.capacity_j_per_k[i];
                let mut budget =
                    (pc.latent_heat_j - (self.enthalpy_j[i] - h0)).clamp(0.0, pc.latent_heat_j);
                if t < pc.melt_temp_c {
                    budget += (pc.melt_temp_c - t) * self.capacity_j_per_k[i];
                    budget += (t_max - pc.melt_temp_c) * pc.liquid_capacity_j_per_k;
                } else {
                    budget += (t_max - t).max(0.0) * pc.liquid_capacity_j_per_k;
                }
                budget
            }
            None => (t_max - t).max(0.0) * self.capacity_j_per_k[i],
        }
    }

    /// Total enthalpy stored in all cells, joules (for conservation
    /// checks together with [`Self::boundary_absorbed_j`]).
    pub fn total_stored_enthalpy_j(&self) -> f64 {
        self.enthalpy_j.iter().sum()
    }

    /// Cumulative energy absorbed by the ambient since construction,
    /// joules.
    pub fn boundary_absorbed_j(&self) -> f64 {
        self.boundary_absorbed_j
    }

    /// Resets every cell to ambient (PCM fully frozen) and clears the
    /// peak trackers.
    pub fn reset_to_ambient(&mut self) {
        let ambient = self.params.ambient_c;
        for i in 0..self.enthalpy_j.len() {
            // Ambient is below any melting point (validated), so the
            // solid branch applies.
            self.enthalpy_j[i] = ambient * self.capacity_j_per_k[i];
        }
        self.peak_hotspot_gradient_k = 0.0;
        self.peak_floor_c = ambient;
        self.peak_die_temps_c.fill(ambient);
        // The die cache holds the temperatures the enthalpy encodes, not
        // `ambient` itself: the round-trip can land an ulp off it.
        self.refresh_die_temps();
    }

    /// Advances the grid by `dt_s` seconds, sub-stepping to the active
    /// solver's bound. Simulation time accumulates from the actual
    /// sub-steps taken, so the reported clock and the integrated state
    /// cannot drift apart over long runs.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or not finite.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "dt must be finite and non-negative"
        );
        if self.core_power_dirty {
            self.apply_core_power_map();
        }
        if dt_s > 0.0 {
            let solver = self.effective_solver(dt_s);
            let bound = match solver {
                GridSolver::Explicit => self.sub_step_s,
                GridSolver::Adi => self.adi_sub_step_s,
            };
            let steps = (dt_s / bound).ceil().max(1.0) as u64;
            let sub = dt_s / steps as f64;
            match solver {
                GridSolver::Explicit => {
                    for _ in 0..steps {
                        self.step_once(sub);
                        self.time_s += sub;
                    }
                }
                GridSolver::Adi => {
                    for _ in 0..steps {
                        self.adi_step(sub);
                        self.time_s += sub;
                    }
                }
            }
        }
        self.track_peaks();
    }

    /// Refreshes `scratch_temps` from the enthalpy state: a branch-free
    /// solid-branch pass over every cell, then the piecewise correction
    /// for the sparse phase-change set. Bit-identical to evaluating
    /// [`cell_temp_of`] per cell (the solid branch *is* `h / c`), but
    /// the hot loop carries no `Option` test.
    fn fill_temps(&mut self) {
        for ((t, h), c) in self
            .scratch_temps
            .iter_mut()
            .zip(&self.enthalpy_j)
            .zip(&self.capacity_j_per_k)
        {
            *t = h / c;
        }
        for &i in &self.pcm_cells {
            let i = i as usize;
            self.scratch_temps[i] =
                cell_temp_of(self.enthalpy_j[i], self.capacity_j_per_k[i], &self.phase[i]);
        }
    }

    /// Evaluates the full heat operator at the current `scratch_temps`
    /// into `scratch_flows` (power + lateral + vertical + sink, W per
    /// cell), booking the ambient sink energy of one `dt` step. Shared
    /// by the explicit step and the ADI right-hand side.
    fn fill_flows(&mut self, dt: f64) {
        self.scratch_flows.copy_from_slice(&self.power_w);
        let temps = &self.scratch_temps[..];
        let flows = &mut self.scratch_flows[..];
        for e in &self.edges[..] {
            let q = (temps[e.a as usize] - temps[e.b as usize]) * e.g_w_per_k;
            flows[e.a as usize] -= q;
            flows[e.b as usize] += q;
        }
        let ambient = self.params.ambient_c;
        for &(i, g) in &self.sink[..] {
            let q = (temps[i as usize] - ambient) * g;
            flows[i as usize] -= q;
            self.boundary_absorbed_j += q * dt;
        }
    }

    /// One explicit sub-step: per-edge transfers are antisymmetric, so
    /// total enthalpy (cells + ambient bookkeeping) is conserved exactly.
    fn step_once(&mut self, dt: f64) {
        self.fill_temps();
        self.fill_flows(dt);
        for (h, f) in self.enthalpy_j.iter_mut().zip(&self.scratch_flows) {
            *h += f * dt;
        }
    }

    /// One semi-implicit ADI sub-step (theta-weighted Douglas-Gunn
    /// factorization): evaluate the *full* operator explicitly at step
    /// entry as the right-hand side, then pass the resulting increment
    /// through three implicit factors — row, column, and vertical-stack
    /// Thomas solves. The factored system
    /// `(C - θdt Lx)(C^-1)(C - θdt Ly)(C^-1)(C - θdt (Lz + Lsink)) dT =
    /// dt F(T^n)` differs from the unfactored theta scheme only by
    /// `O(dt^2)` cross terms in the increment, so there is none of the
    /// directional ping-pong a sequential split suffers, and every
    /// factor is an M-matrix, so the step is unconditionally stable for
    /// `θ >= 1/2`.
    ///
    /// The PCM nonlinearity is a per-step phase-state linearization:
    /// each cell's branch is frozen at step entry; melting-plateau
    /// cells become zero-increment (fixed-temperature) rows and absorb
    /// their net inflow as latent enthalpy. All enthalpy updates are
    /// antisymmetric edge fluxes (or booked sink flux), so conservation
    /// is exact regardless of how the linearization approximated the
    /// temperatures.
    fn adi_step(&mut self, dt: f64) {
        if self.pcm_cells.is_empty() {
            // No phase change anywhere: every cell's branch is the
            // solid one forever, so the general path degenerates to a
            // fully linear step that a batched routine reproduces
            // bit-for-bit at a fraction of the cost.
            self.adi_step_linear(dt);
        } else {
            self.adi_step_general(dt);
        }
    }

    /// The general (phase-aware) ADI sub-step; see [`adi_step`]
    /// (Self::adi_step) for the scheme. Sweeps run batched: PCM-free
    /// layers replay their cached factor over the whole layer at once,
    /// PCM layers assemble every line's (possibly plateau-modified)
    /// system lane-major and sweep them in one general batch. Each
    /// lane's arithmetic — and each cell's enthalpy-update and
    /// `boundary_absorbed_j` order — matches the line-at-a-time loop
    /// exactly, so the batch is bit-identical to
    /// [`Self::adi_step_general_reference`] (pinned in the test module).
    fn adi_step_general(&mut self, dt: f64) {
        let n = self.enthalpy_j.len();
        for i in 0..n {
            self.adi_ceff[i] = match &self.phase[i] {
                None => self.capacity_j_per_k[i],
                Some(pc) => {
                    let h0 = pc.melt_temp_c * self.capacity_j_per_k[i];
                    if self.enthalpy_j[i] <= h0 {
                        self.capacity_j_per_k[i]
                    } else if self.enthalpy_j[i] <= h0 + pc.latent_heat_j {
                        f64::INFINITY
                    } else {
                        pc.liquid_capacity_j_per_k
                    }
                }
            };
        }
        self.fill_temps();
        self.fill_flows(dt);
        for i in 0..n {
            let e = self.scratch_flows[i] * dt;
            self.enthalpy_j[i] += e;
            self.adi_rhs[i] = e;
        }
        let wdt = ADI_THETA * dt;
        self.ensure_adi_cache(wdt);
        let cache = std::mem::take(&mut self.adi_cache);
        let (nx, ny) = (self.params.nx, self.params.ny);
        let layers = self.params.layers.len();
        if nx > 1 {
            for li in 0..layers {
                let g = self.lat_gx[li];
                if g > 0.0 {
                    match cache.rows[li].as_ref() {
                        Some(f) => self.adi_rows_factored(li, g, wdt, f),
                        None => self.adi_rows_general(li, g, wdt),
                    }
                }
            }
        }
        if ny > 1 {
            for li in 0..layers {
                let g = self.lat_gy[li];
                if g > 0.0 {
                    match cache.cols[li].as_ref() {
                        Some(f) => self.adi_cols_factored(li, g, wdt, f),
                        None => self.adi_cols_general(li, g, wdt),
                    }
                }
            }
        }
        match cache.stack.as_ref() {
            Some(f) => self.adi_stack_factored(wdt, f),
            None => self.adi_stack_general(wdt),
        }
        self.adi_cache = cache;
    }

    /// The pre-batching general sub-step: one [`Self::adi_sweep_line`] /
    /// [`Self::adi_sweep_stack`] call per line. Kept as the oracle the
    /// batched [`Self::adi_step_general`] is pinned against bit for bit.
    #[cfg(test)]
    fn adi_step_general_reference(&mut self, dt: f64) {
        let n = self.enthalpy_j.len();
        // Freeze each cell's phase branch for this step. INFINITY marks
        // the melting plateau (a Dirichlet, zero-increment row).
        for i in 0..n {
            self.adi_ceff[i] = match &self.phase[i] {
                None => self.capacity_j_per_k[i],
                Some(pc) => {
                    let h0 = pc.melt_temp_c * self.capacity_j_per_k[i];
                    if self.enthalpy_j[i] <= h0 {
                        self.capacity_j_per_k[i]
                    } else if self.enthalpy_j[i] <= h0 + pc.latent_heat_j {
                        f64::INFINITY
                    } else {
                        pc.liquid_capacity_j_per_k
                    }
                }
            };
        }
        // Explicit full-operator evaluation at T^n: both the first
        // enthalpy increment and the Douglas-Gunn right-hand side
        // (energy units; `adi_rhs` carries `C * w` between factors).
        self.fill_temps();
        self.fill_flows(dt);
        for i in 0..n {
            let e = self.scratch_flows[i] * dt;
            self.enthalpy_j[i] += e;
            self.adi_rhs[i] = e;
        }
        // The implicit factors weight their operator by θdt; the
        // explicit evaluation above carries the matching (1-θ) share,
        // so the unfactored limit is the trapezoidal theta scheme.
        let wdt = ADI_THETA * dt;
        self.ensure_adi_cache(wdt);
        // Take the cache out of `self` so the sweeps can borrow its
        // factors while mutating everything else; restored below.
        let cache = std::mem::take(&mut self.adi_cache);
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        if nx > 1 {
            for li in 0..layers {
                let g = self.lat_gx[li];
                if g > 0.0 {
                    let factor = cache.rows[li].as_ref();
                    for y in 0..ny {
                        self.adi_sweep_line(li * cells + y * nx, 1, nx, g, wdt, factor);
                    }
                }
            }
        }
        if ny > 1 {
            for li in 0..layers {
                let g = self.lat_gy[li];
                if g > 0.0 {
                    let factor = cache.cols[li].as_ref();
                    for x in 0..nx {
                        self.adi_sweep_line(li * cells + x, nx, ny, g, wdt, factor);
                    }
                }
            }
        }
        // The vertical factor always runs: it owns the ambient sink, so
        // even a 1x1 grid (the lumped-equivalent chain) reduces to the
        // plain unfactored theta scheme through here.
        for c in 0..cells {
            self.adi_sweep_stack(c, wdt, cache.stack.as_ref());
        }
        self.adi_cache = cache;
    }

    /// Rebuilds the cached line factorizations when the theta-weighted
    /// sub-step changes (in a session it never does after the first
    /// window, so this amortizes to a single build). Only coefficient
    /// sets that are constant across sub-steps are cached: lines of
    /// PCM-free layers, and the shared vertical stack when no layer
    /// has phase change. Every cached factor reproduces the uncached
    /// assembly bit-for-bit (same expressions, same order).
    fn ensure_adi_cache(&mut self, wdt: f64) {
        if self.adi_cache.wdt == wdt {
            return;
        }
        let layers = self.params.layers.len();
        let cells = self.cells_per_layer;
        let (nx, ny) = (self.params.nx, self.params.ny);
        let line_factor = |has_pcm: bool, ceff: f64, g: f64, len: usize| {
            if has_pcm || g <= 0.0 || len <= 1 {
                return None;
            }
            let gdt = g * wdt;
            let mut sub = vec![0.0; len];
            let mut diag = vec![0.0; len];
            let mut sup = vec![0.0; len];
            for (k, d) in diag.iter_mut().enumerate() {
                let mut row = ceff;
                if k > 0 {
                    row += gdt;
                    sub[k] = -gdt;
                }
                if k + 1 < len {
                    row += gdt;
                    sup[k] = -gdt;
                }
                *d = row;
            }
            Some(TridiagFactor::new(&sub, &diag, &sup))
        };
        let mut rows = Vec::with_capacity(layers);
        let mut cols = Vec::with_capacity(layers);
        for (li, layer) in self.params.layers.iter().enumerate() {
            let has_pcm = layer.phase_change.is_some();
            // Per-cell capacity is uniform within a layer, so any
            // cell's value stands for the whole line.
            let ceff = self.capacity_j_per_k[li * cells];
            rows.push(line_factor(has_pcm, ceff, self.lat_gx[li], nx));
            cols.push(line_factor(has_pcm, ceff, self.lat_gy[li], ny));
        }
        let any_pcm = self.params.layers.iter().any(|l| l.phase_change.is_some());
        let stack = if any_pcm {
            None
        } else {
            let mut sub = vec![0.0; layers];
            let mut diag = vec![0.0; layers];
            let mut sup = vec![0.0; layers];
            for l in 0..layers {
                let ceff = self.capacity_j_per_k[l * cells];
                let g_up = if l > 0 { self.g_vert[l - 1] } else { 0.0 };
                let g_dn = if l + 1 < layers { self.g_vert[l] } else { 0.0 };
                let mut d = ceff + wdt * (g_up + g_dn);
                if l + 1 == layers {
                    d += wdt * self.g_sink_cell;
                }
                sub[l] = -wdt * g_up;
                diag[l] = d;
                sup[l] = -wdt * g_dn;
            }
            Some(TridiagFactor::new(&sub, &diag, &sup))
        };
        self.adi_cache = AdiCoeffCache {
            wdt,
            rows,
            cols,
            stack,
        };
    }

    /// One implicit lateral factor over a line of `len` cells starting
    /// at `base` and spaced `stride` apart, with uniform neighbour
    /// conductance `g`: solves `(C - wdt Lx) w = rhs` for the increment
    /// `w` (`wdt` is the theta-weighted step), applies the
    /// antisymmetric enthalpy correction `wdt * Lx w`, and stores
    /// `C * w` as the next factor's right-hand side.
    ///
    /// Layers with lateral conduction disabled never reach here; for
    /// them the factor is the identity (`C w = rhs` and `Lx w = 0`), so
    /// skipping the line entirely is exact, not an approximation.
    ///
    /// `factor` carries the line's cached elimination when the layer is
    /// PCM-free (the coefficients cannot change between sub-steps);
    /// with it the per-line work is just the two substitution passes.
    ///
    /// Only the reference sub-step drives this now; the live engine
    /// batches whole sweeps (see [`Self::adi_step_general`]).
    #[cfg(test)]
    fn adi_sweep_line(
        &mut self,
        base: usize,
        stride: usize,
        len: usize,
        g: f64,
        wdt: f64,
        factor: Option<&TridiagFactor>,
    ) {
        let gdt = g * wdt;
        if let Some(f) = factor {
            for k in 0..len {
                self.tri_rhs[k] = self.adi_rhs[base + k * stride];
            }
            f.solve(&self.tri_rhs[..len], &mut self.tri_x[..len]);
        } else {
            for k in 0..len {
                let i = base + k * stride;
                let ceff = self.adi_ceff[i];
                if ceff.is_finite() {
                    let mut diag = ceff;
                    let mut sub = 0.0;
                    let mut sup = 0.0;
                    if k > 0 {
                        diag += gdt;
                        sub = -gdt;
                    }
                    if k + 1 < len {
                        diag += gdt;
                        sup = -gdt;
                    }
                    self.tri_sub[k] = sub;
                    self.tri_diag[k] = diag;
                    self.tri_sup[k] = sup;
                    self.tri_rhs[k] = self.adi_rhs[i];
                } else {
                    self.tri_sub[k] = 0.0;
                    self.tri_diag[k] = 1.0;
                    self.tri_sup[k] = 0.0;
                    self.tri_rhs[k] = 0.0;
                }
            }
            self.tridiag.solve(
                &self.tri_sub[..len],
                &self.tri_diag[..len],
                &self.tri_sup[..len],
                &self.tri_rhs[..len],
                &mut self.tri_x[..len],
            );
        }
        for k in 0..len - 1 {
            let i = base + k * stride;
            let q = (self.tri_x[k] - self.tri_x[k + 1]) * gdt;
            self.enthalpy_j[i] -= q;
            self.enthalpy_j[i + stride] += q;
        }
        for k in 0..len {
            let i = base + k * stride;
            let ceff = self.adi_ceff[i];
            if ceff.is_finite() {
                self.adi_rhs[i] = ceff * self.tri_x[k];
            }
            // Plateau rows keep a zero increment; their rhs is never
            // read again this step.
        }
    }

    /// The final implicit factor over one vertical stack (cell `c`
    /// through every layer, interface conduction plus the ambient
    /// sink): solves for the step's temperature increment (with the
    /// theta-weighted step `wdt`) and applies the vertical/sink
    /// enthalpy corrections.
    ///
    /// `factor` carries the cached stack elimination when no layer has
    /// phase change — one factorization then serves every cell column,
    /// which on a PCM-free rack grid removes the entire per-column
    /// assembly-and-eliminate cost.
    ///
    /// Only the reference sub-step drives this now; the live engine
    /// batches whole sweeps (see [`Self::adi_step_general`]).
    #[cfg(test)]
    fn adi_sweep_stack(&mut self, c: usize, wdt: f64, factor: Option<&TridiagFactor>) {
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let g_sink = self.g_sink_cell;
        if let Some(f) = factor {
            for l in 0..layers {
                self.tri_rhs[l] = self.adi_rhs[l * cells + c];
            }
            f.solve(&self.tri_rhs[..layers], &mut self.tri_x[..layers]);
        } else {
            for l in 0..layers {
                let i = l * cells + c;
                let ceff = self.adi_ceff[i];
                let g_up = if l > 0 { self.g_vert[l - 1] } else { 0.0 };
                let g_dn = if l + 1 < layers { self.g_vert[l] } else { 0.0 };
                if ceff.is_finite() {
                    let mut diag = ceff + wdt * (g_up + g_dn);
                    if l + 1 == layers {
                        diag += wdt * g_sink;
                    }
                    self.tri_sub[l] = -wdt * g_up;
                    self.tri_diag[l] = diag;
                    self.tri_sup[l] = -wdt * g_dn;
                    self.tri_rhs[l] = self.adi_rhs[i];
                } else {
                    self.tri_sub[l] = 0.0;
                    self.tri_diag[l] = 1.0;
                    self.tri_sup[l] = 0.0;
                    self.tri_rhs[l] = 0.0;
                }
            }
            self.tridiag.solve(
                &self.tri_sub[..layers],
                &self.tri_diag[..layers],
                &self.tri_sup[..layers],
                &self.tri_rhs[..layers],
                &mut self.tri_x[..layers],
            );
        }
        for l in 0..layers - 1 {
            let i = l * cells + c;
            let q = (self.tri_x[l] - self.tri_x[l + 1]) * self.g_vert[l] * wdt;
            self.enthalpy_j[i] -= q;
            self.enthalpy_j[i + cells] += q;
        }
        // The sink sees only the *increment* here; the `T^n - ambient`
        // part was booked by the explicit evaluation.
        let q_sink = self.tri_x[layers - 1] * g_sink * wdt;
        self.enthalpy_j[(layers - 1) * cells + c] -= q_sink;
        self.boundary_absorbed_j += q_sink;
    }

    /// [`adi_step`](Self::adi_step) specialized to a grid with no phase
    /// change anywhere (`pcm_cells` empty). Bit-identical to the
    /// general path on such a grid, which the equivalence rests on:
    ///
    /// - every `adi_ceff` entry would be the plain solid capacity, so
    ///   the fill is skipped and `capacity_j_per_k` read directly;
    /// - every conducting layer (and the stack) has a cached
    ///   [`TridiagFactor`], whose solve is bit-identical to the
    ///   uncached assembly, so only the factored branch is kept;
    /// - row lines are contiguous, so the factor solves straight out of
    ///   `adi_rhs` with no staging copy;
    /// - column and stack sweeps run as *planar* solves
    ///   ([`TridiagFactor::solve_planar`]): lines are interleaved lane
    ///   by lane, but each lane's arithmetic — and each cell's enthalpy
    ///   update sequence, and the cell-ascending
    ///   `boundary_absorbed_j` accumulation — keeps the exact order of
    ///   the line-at-a-time loop, because distinct lines touch disjoint
    ///   cells.
    fn adi_step_linear(&mut self, dt: f64) {
        let n = self.enthalpy_j.len();
        self.fill_temps();
        self.fill_flows(dt);
        for i in 0..n {
            let e = self.scratch_flows[i] * dt;
            self.enthalpy_j[i] += e;
            self.adi_rhs[i] = e;
        }
        let wdt = ADI_THETA * dt;
        self.ensure_adi_cache(wdt);
        let cache = std::mem::take(&mut self.adi_cache);
        let (nx, ny) = (self.params.nx, self.params.ny);
        let layers = self.params.layers.len();
        if nx > 1 {
            for li in 0..layers {
                let g = self.lat_gx[li];
                if g > 0.0 {
                    let factor = cache.rows[li]
                        .as_ref()
                        .expect("PCM-free conducting layer always has a row factor");
                    self.adi_rows_factored(li, g, wdt, factor);
                }
            }
        }
        if ny > 1 {
            for li in 0..layers {
                let g = self.lat_gy[li];
                if g > 0.0 {
                    let factor = cache.cols[li]
                        .as_ref()
                        .expect("PCM-free conducting layer always has a column factor");
                    self.adi_cols_factored(li, g, wdt, factor);
                }
            }
        }
        let stack = cache
            .stack
            .as_ref()
            .expect("PCM-free grid always has a stack factor");
        self.adi_stack_factored(wdt, stack);
        self.adi_cache = cache;
    }

    /// Every row of layer `li` in one contiguous bundle: the cached
    /// factor's [`TridiagFactor::solve_batch`] stages the layer's `ny`
    /// back-to-back lines through the transposed scratch (the SIMD
    /// layout), then the corrections and `C * w` write-back of the
    /// per-line sweep run per row unchanged. Callable from both the
    /// linear and the general path: on a PCM-free layer `adi_ceff`
    /// holds exactly `capacity_j_per_k`, so reading the capacity keeps
    /// the write-back bit-identical either way.
    fn adi_rows_factored(&mut self, li: usize, g: f64, wdt: f64, f: &TridiagFactor) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let base = li * cells;
        let gdt = g * wdt;
        f.solve_batch(
            &self.adi_rhs[base..base + cells],
            &mut self.adi_plane[..cells],
            &mut self.adi_batch_scratch,
        );
        for y in 0..ny {
            let row = y * nx;
            for k in 0..nx - 1 {
                let q = (self.adi_plane[row + k] - self.adi_plane[row + k + 1]) * gdt;
                self.enthalpy_j[base + row + k] -= q;
                self.enthalpy_j[base + row + k + 1] += q;
            }
            for k in 0..nx {
                let i = base + row + k;
                self.adi_rhs[i] = self.capacity_j_per_k[i] * self.adi_plane[row + k];
            }
        }
    }

    /// Every row of a PCM layer in one general batch: lane `y` of the
    /// lane-major coefficient planes is row `y`'s system, assembled with
    /// the per-line expressions (melting-plateau cells become Dirichlet
    /// rows) and swept by [`Tridiag::solve_batch`]. Bit-identical per
    /// row to the per-line assembly-and-solve.
    fn adi_rows_general(&mut self, li: usize, g: f64, wdt: f64) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let base = li * cells;
        let gdt = g * wdt;
        let lanes = ny;
        for k in 0..nx {
            for y in 0..ny {
                let i = base + y * nx + k;
                let idx = k * lanes + y;
                let ceff = self.adi_ceff[i];
                if ceff.is_finite() {
                    let mut diag = ceff;
                    let mut sub = 0.0;
                    let mut sup = 0.0;
                    if k > 0 {
                        diag += gdt;
                        sub = -gdt;
                    }
                    if k + 1 < nx {
                        diag += gdt;
                        sup = -gdt;
                    }
                    self.adi_bat_sub[idx] = sub;
                    self.adi_bat_diag[idx] = diag;
                    self.adi_bat_sup[idx] = sup;
                    self.adi_bat_rhs[idx] = self.adi_rhs[i];
                } else {
                    self.adi_bat_sub[idx] = 0.0;
                    self.adi_bat_diag[idx] = 1.0;
                    self.adi_bat_sup[idx] = 0.0;
                    self.adi_bat_rhs[idx] = 0.0;
                }
            }
        }
        self.tridiag.solve_batch(
            &self.adi_bat_sub[..cells],
            &self.adi_bat_diag[..cells],
            &self.adi_bat_sup[..cells],
            &self.adi_bat_rhs[..cells],
            &mut self.adi_plane[..cells],
            lanes,
        );
        for y in 0..ny {
            for k in 0..nx - 1 {
                let i = base + y * nx + k;
                let q = (self.adi_plane[k * lanes + y] - self.adi_plane[(k + 1) * lanes + y]) * gdt;
                self.enthalpy_j[i] -= q;
                self.enthalpy_j[i + 1] += q;
            }
            for k in 0..nx {
                let i = base + y * nx + k;
                let ceff = self.adi_ceff[i];
                if ceff.is_finite() {
                    self.adi_rhs[i] = ceff * self.adi_plane[k * lanes + y];
                }
            }
        }
    }

    /// Every column of a PCM layer in one general batch: lane `x` is
    /// column `x`'s system, and the lane-major index `y * nx + x` *is*
    /// the natural plane index, so assembly needs no transpose.
    fn adi_cols_general(&mut self, li: usize, g: f64, wdt: f64) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let base = li * cells;
        let gdt = g * wdt;
        for y in 0..ny {
            for x in 0..nx {
                let i = base + y * nx + x;
                let idx = y * nx + x;
                let ceff = self.adi_ceff[i];
                if ceff.is_finite() {
                    let mut diag = ceff;
                    let mut sub = 0.0;
                    let mut sup = 0.0;
                    if y > 0 {
                        diag += gdt;
                        sub = -gdt;
                    }
                    if y + 1 < ny {
                        diag += gdt;
                        sup = -gdt;
                    }
                    self.adi_bat_sub[idx] = sub;
                    self.adi_bat_diag[idx] = diag;
                    self.adi_bat_sup[idx] = sup;
                    self.adi_bat_rhs[idx] = self.adi_rhs[i];
                } else {
                    self.adi_bat_sub[idx] = 0.0;
                    self.adi_bat_diag[idx] = 1.0;
                    self.adi_bat_sup[idx] = 0.0;
                    self.adi_bat_rhs[idx] = 0.0;
                }
            }
        }
        self.tridiag.solve_batch(
            &self.adi_bat_sub[..cells],
            &self.adi_bat_diag[..cells],
            &self.adi_bat_sup[..cells],
            &self.adi_bat_rhs[..cells],
            &mut self.adi_plane[..cells],
            nx,
        );
        for y in 0..ny - 1 {
            let row = y * nx;
            for x in 0..nx {
                let q = (self.adi_plane[row + x] - self.adi_plane[row + nx + x]) * gdt;
                self.enthalpy_j[base + row + x] -= q;
                self.enthalpy_j[base + row + nx + x] += q;
            }
        }
        for idx in 0..cells {
            let i = base + idx;
            let ceff = self.adi_ceff[i];
            if ceff.is_finite() {
                self.adi_rhs[i] = ceff * self.adi_plane[idx];
            }
        }
    }

    /// Every vertical stack in one general batch: lane `c` is cell
    /// column `c`'s system (lane-major index `l * cells + c` is the
    /// natural layer-major order), assembled with the per-stack
    /// expressions including the last-layer sink term; the sink booking
    /// stays cell-ascending, preserving the `boundary_absorbed_j`
    /// accumulation order of the per-stack loop.
    fn adi_stack_general(&mut self, wdt: f64) {
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let n = layers * cells;
        let g_sink = self.g_sink_cell;
        for l in 0..layers {
            let g_up = if l > 0 { self.g_vert[l - 1] } else { 0.0 };
            let g_dn = if l + 1 < layers { self.g_vert[l] } else { 0.0 };
            for c in 0..cells {
                let i = l * cells + c;
                let ceff = self.adi_ceff[i];
                if ceff.is_finite() {
                    let mut diag = ceff + wdt * (g_up + g_dn);
                    if l + 1 == layers {
                        diag += wdt * g_sink;
                    }
                    self.adi_bat_sub[i] = -wdt * g_up;
                    self.adi_bat_diag[i] = diag;
                    self.adi_bat_sup[i] = -wdt * g_dn;
                    self.adi_bat_rhs[i] = self.adi_rhs[i];
                } else {
                    self.adi_bat_sub[i] = 0.0;
                    self.adi_bat_diag[i] = 1.0;
                    self.adi_bat_sup[i] = 0.0;
                    self.adi_bat_rhs[i] = 0.0;
                }
            }
        }
        self.tridiag.solve_batch(
            &self.adi_bat_sub[..n],
            &self.adi_bat_diag[..n],
            &self.adi_bat_sup[..n],
            &self.adi_bat_rhs[..n],
            &mut self.adi_plane[..n],
            cells,
        );
        for l in 0..layers - 1 {
            let row = l * cells;
            let gv = self.g_vert[l];
            for c in 0..cells {
                let q = (self.adi_plane[row + c] - self.adi_plane[row + cells + c]) * gv * wdt;
                self.enthalpy_j[row + c] -= q;
                self.enthalpy_j[row + cells + c] += q;
            }
        }
        let row = (layers - 1) * cells;
        for c in 0..cells {
            let q_sink = self.adi_plane[row + c] * g_sink * wdt;
            self.enthalpy_j[row + c] -= q_sink;
            self.boundary_absorbed_j += q_sink;
        }
    }

    /// Every column of layer `li` in one planar pass. Lane `x` of the
    /// planar solve is column `x`'s Thomas recurrence; the correction
    /// loops run y-outer so each cell sees its `+q`/`-q` pair in the
    /// same order as the per-column loop.
    fn adi_cols_factored(&mut self, li: usize, g: f64, wdt: f64, f: &TridiagFactor) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let base = li * cells;
        let gdt = g * wdt;
        f.solve_planar(
            &self.adi_rhs[base..base + cells],
            &mut self.adi_plane[..cells],
            nx,
        );
        for y in 0..ny - 1 {
            let row = y * nx;
            for x in 0..nx {
                let q = (self.adi_plane[row + x] - self.adi_plane[row + nx + x]) * gdt;
                self.enthalpy_j[base + row + x] -= q;
                self.enthalpy_j[base + row + nx + x] += q;
            }
        }
        for i in 0..cells {
            self.adi_rhs[base + i] = self.capacity_j_per_k[base + i] * self.adi_plane[i];
        }
    }

    /// Every vertical stack in one planar pass (lane `c` = cell column
    /// `c`), then the vertical/sink corrections of
    /// [`adi_sweep_stack`](Self::adi_sweep_stack) with the layer loop
    /// outermost; the sink booking stays cell-ascending, so the
    /// `boundary_absorbed_j` accumulation order is untouched.
    fn adi_stack_factored(&mut self, wdt: f64, f: &TridiagFactor) {
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let n = layers * cells;
        f.solve_planar(&self.adi_rhs[..n], &mut self.adi_plane[..n], cells);
        for l in 0..layers - 1 {
            let row = l * cells;
            let gv = self.g_vert[l];
            for c in 0..cells {
                let q = (self.adi_plane[row + c] - self.adi_plane[row + cells + c]) * gv * wdt;
                self.enthalpy_j[row + c] -= q;
                self.enthalpy_j[row + cells + c] += q;
            }
        }
        let g_sink = self.g_sink_cell;
        let row = (layers - 1) * cells;
        for c in 0..cells {
            let q_sink = self.adi_plane[row + c] * g_sink * wdt;
            self.enthalpy_j[row + c] -= q_sink;
            self.boundary_absorbed_j += q_sink;
        }
    }

    /// Refreshes the die-temperature and junction caches from the
    /// enthalpy state; returns the coolest and hottest die cell.
    fn refresh_die_temps(&mut self) -> (f64, f64) {
        for i in 0..self.cells_per_layer {
            self.die_temps_c[i] = self.cell_temp(i);
        }
        let (lo, hi) = min_max(&self.die_temps_c);
        self.junction_cache_c = hi;
        (lo, hi)
    }

    /// The per-advance die bookkeeping: refresh the caches, then fold
    /// every cell into its running peak and the gradient tracker.
    /// O(die cells), whatever the core count.
    fn track_peaks(&mut self) {
        let (lo, hi) = self.refresh_die_temps();
        self.peak_hotspot_gradient_k = self.peak_hotspot_gradient_k.max(hi - lo);
        for (peak, &t) in self.peak_die_temps_c.iter_mut().zip(&self.die_temps_c) {
            *peak = peak.max(t);
        }
    }
}

/// Smallest and largest value of `temps`, folded in index order
/// (`(INFINITY, NEG_INFINITY)` when empty).
fn min_max(temps: &[f64]) -> (f64, f64) {
    temps
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        })
}

/// Piecewise temperature-of-enthalpy (the enthalpy method), matching
/// [`crate::node::StorageNode`] with a 0 C reference.
fn cell_temp_of(enthalpy_j: f64, solid_capacity_j_per_k: f64, phase: &Option<CellPhase>) -> f64 {
    match phase {
        None => enthalpy_j / solid_capacity_j_per_k,
        Some(pc) => {
            let h0 = pc.melt_temp_c * solid_capacity_j_per_k;
            if enthalpy_j <= h0 {
                enthalpy_j / solid_capacity_j_per_k
            } else if enthalpy_j <= h0 + pc.latent_heat_j {
                pc.melt_temp_c
            } else {
                pc.melt_temp_c + (enthalpy_j - h0 - pc.latent_heat_j) / pc.liquid_capacity_j_per_k
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient_everywhere() {
        let g = GridThermalParams::hpca_like().build();
        for layer in 0..g.layer_count() {
            for y in 0..g.params().ny {
                for x in 0..g.params().nx {
                    assert!((g.cell_temp_c(layer, x, y) - 25.0).abs() < 1e-9);
                }
            }
        }
        assert_eq!(g.melt_fraction(), 0.0);
        assert_eq!(g.hotspot_gradient_k(), 0.0);
    }

    #[test]
    fn uniform_power_reaches_the_series_steady_state() {
        // Full-die core, lateral disabled by symmetry anyway: the grid
        // must settle at ambient + P * (sum of series resistances).
        let mut params = GridThermalParams::hpca_like().with_floorplan(Floorplan::full_die());
        params.layers = vec![
            GridLayer::sensible("die", 0.2, 10.0, 1.0),
            GridLayer::sensible("mid", 0.5, 10.0, 2.0),
            GridLayer::sensible("sink", 1.0, 10.0, 1.0),
        ];
        params.r_sink_ambient_k_per_w = 3.0;
        params.nx = 3;
        params.ny = 3;
        let mut g = params.build();
        g.set_chip_power_w(2.0);
        g.advance(200.0);
        let expected = 25.0 + 2.0 * (1.0 + 2.0 + 3.0);
        let got = g.junction_temp_c();
        assert!(
            (got - expected).abs() < 0.05,
            "expected {expected}, got {got}"
        );
        // Uniform power: no gradient.
        assert!(g.hotspot_gradient_k() < 1e-6);
    }

    #[test]
    fn concentrated_cores_form_a_hotspot() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_chip_power_w(16.0);
        g.advance(2.0);
        let gradient = g.hotspot_gradient_k();
        assert!(
            gradient > 3.0,
            "4x4 core array must produce a multi-degree gradient, got {gradient:.2} K"
        );
        assert!(g.junction_temp_c() > g.mean_die_temp_c() + 1.0);
    }

    #[test]
    fn fewer_active_cores_concentrate_the_same_power() {
        let mut all = GridThermalParams::hpca_like().build();
        let mut one = GridThermalParams::hpca_like().build();
        all.set_chip_power_w(4.0);
        one.set_active_cores(1);
        one.set_chip_power_w(4.0);
        all.advance(1.0);
        one.advance(1.0);
        assert!(
            one.junction_temp_c() > all.junction_temp_c() + 1.0,
            "4 W on one core must run hotter than on sixteen: {:.2} vs {:.2}",
            one.junction_temp_c(),
            all.junction_temp_c()
        );
    }

    #[test]
    fn energy_is_conserved() {
        let mut g = GridThermalParams::hpca_like().build();
        let e0 = g.total_stored_enthalpy_j();
        g.set_chip_power_w(16.0);
        g.advance(0.7);
        let injected = 16.0 * 0.7;
        let stored = g.total_stored_enthalpy_j() - e0;
        let absorbed = g.boundary_absorbed_j();
        assert!(
            (stored + absorbed - injected).abs() < 1e-9 * injected,
            "stored {stored} + absorbed {absorbed} != {injected}"
        );
    }

    #[test]
    fn pcm_layer_melts_and_budget_shrinks() {
        let mut g = GridThermalParams::hpca_like().build();
        let b0 = g.sprint_energy_budget_j();
        assert!(
            (13.0..20.0).contains(&b0),
            "cold budget {b0:.1} J should be near the paper's 16 J"
        );
        g.set_chip_power_w(16.0);
        g.advance(0.8);
        assert!(g.melt_fraction() > 0.0, "sprint heat must start the melt");
        assert!(g.sprint_energy_budget_j() < b0);
    }

    #[test]
    fn time_scaling_compresses_transients_only() {
        let mut base = GridThermalParams::hpca_like().build();
        let mut scaled = GridThermalParams::hpca_like().time_scaled(10.0).build();
        base.set_chip_power_w(8.0);
        scaled.set_chip_power_w(8.0);
        base.advance(1.0);
        scaled.advance(0.1);
        assert!(
            (base.junction_temp_c() - scaled.junction_temp_c()).abs() < 0.2,
            "10x compressed run at t/10 must match: {:.2} vs {:.2}",
            base.junction_temp_c(),
            scaled.junction_temp_c()
        );
    }

    #[test]
    fn reset_clears_state_and_peaks() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_chip_power_w(16.0);
        g.advance(1.0);
        assert!(g.peak_hotspot_gradient_k() > 0.0);
        g.reset_to_ambient();
        assert!((g.junction_temp_c() - 25.0).abs() < 1e-9);
        assert_eq!(g.peak_hotspot_gradient_k(), 0.0);
        assert_eq!(g.melt_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "limit must exceed ambient")]
    fn inverted_limits_rejected() {
        let mut p = GridThermalParams::hpca_like();
        p.t_max_c = 20.0;
        p.validate();
    }

    #[test]
    fn solver_selection_plumbs_through() {
        let explicit = GridThermalParams::hpca_like().build();
        assert_eq!(explicit.solver(), GridSolver::Explicit);
        let adi = GridThermalParams::hpca_like()
            .with_solver(GridSolver::Adi)
            .build();
        assert_eq!(adi.solver(), GridSolver::Adi);
        // The decoupling in one line: the ADI bound dwarfs the explicit
        // one, and refining the grid widens the gap (the explicit bound
        // shrinks, the ADI bound holds still).
        assert!(adi.adi_sub_step_s() > 5.0 * adi.sub_step_s());
        let fine = GridThermalParams::hpca_like().with_grid(32, 32).build();
        assert!(fine.sub_step_s() < explicit.sub_step_s() / 4.0);
        assert!((fine.adi_sub_step_s() - explicit.adi_sub_step_s()).abs() < 1e-12);
    }

    #[test]
    fn per_core_power_matches_the_uniform_split() {
        // Writing chip/N to every core individually must reproduce the
        // uniform `set_chip_power_w` split bit-for-bit.
        let mut uniform = GridThermalParams::hpca_like().build();
        let mut per_core = GridThermalParams::hpca_like().build();
        uniform.set_chip_power_w(16.0);
        let cores = per_core.params().floorplan.core_count();
        for c in 0..cores {
            per_core.set_core_power_w(c, 16.0 / cores as f64);
        }
        assert_eq!(uniform.chip_power_w(), per_core.chip_power_w());
        uniform.advance(0.5);
        per_core.advance(0.5);
        assert_eq!(
            uniform.junction_temp_c().to_bits(),
            per_core.junction_temp_c().to_bits()
        );
    }

    #[test]
    fn one_hot_core_power_heats_only_its_region() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_core_power_w(0, 4.0);
        assert_eq!(g.chip_power_w(), 4.0);
        assert_eq!(g.core_power_w(0), 4.0);
        assert_eq!(g.core_power_w(7), 0.0);
        g.advance(1.0);
        // Core 0 (a corner of the array) must run hotter than the
        // diagonally opposite core 15.
        assert!(g.core_temp_c(0) > g.core_temp_c(15) + 1.0);
    }

    #[test]
    fn region_budget_of_a_full_die_core_equals_the_global_budget() {
        let mut p = GridThermalParams::hpca_like();
        p.floorplan = Floorplan::full_die();
        let mut g = p.build();
        g.set_chip_power_w(8.0);
        g.advance(0.4);
        assert_eq!(
            g.sprint_energy_budget_j().to_bits(),
            g.region_sprint_budget_j(0).to_bits(),
            "a footprint covering every cell must see the global budget"
        );
    }

    #[test]
    fn region_budgets_track_their_own_heat() {
        let mut g = GridThermalParams::hpca_like().build();
        let cold0 = g.region_sprint_budget_j(0);
        let cold15 = g.region_sprint_budget_j(15);
        assert!((cold0 - cold15).abs() < 1e-9, "symmetric corners at rest");
        g.set_core_power_w(0, 6.0);
        g.advance(1.0);
        assert!(
            g.region_sprint_budget_j(0) < g.region_sprint_budget_j(15),
            "the heated region must have less budget left"
        );
    }

    #[test]
    fn core_temps_into_matches_the_allocating_accessor() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_chip_power_w(10.0);
        g.advance(0.5);
        let alloc = g.core_temps_c();
        let mut buf = vec![0.0; alloc.len()];
        g.core_temps_c_into(&mut buf);
        assert_eq!(alloc, buf);
    }

    /// The per-core algorithm the die caches replaced, kept as their
    /// oracle: every query re-derives cell temperatures from enthalpy,
    /// and every advance folds each core's footprint into a running
    /// per-core peak.
    struct PerCoreReference {
        peak_core_temps_c: Vec<f64>,
        peak_hotspot_gradient_k: f64,
    }

    impl PerCoreReference {
        fn new(g: &GridThermal) -> Self {
            Self {
                peak_core_temps_c: vec![g.ambient_c(); g.core_cells.len()],
                peak_hotspot_gradient_k: 0.0,
            }
        }

        fn reset(&mut self, g: &GridThermal) {
            *self = Self::new(g);
        }

        fn core_temp_c(g: &GridThermal, core: usize) -> f64 {
            g.core_cells[core]
                .iter()
                .map(|&(cell, _)| g.cell_temp(cell))
                .fold(f64::NEG_INFINITY, f64::max)
        }

        fn die_lo_hi(g: &GridThermal) -> (f64, f64) {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 0..g.cells_per_layer {
                let t = g.cell_temp(i);
                lo = lo.min(t);
                hi = hi.max(t);
            }
            (lo, hi)
        }

        fn region_sprint_budget_j(g: &GridThermal, core: usize) -> f64 {
            let mut budget = 0.0;
            for li in 0..g.params.layers.len() {
                let base = li * g.cells_per_layer;
                for &(cell, _) in &g.core_cells[core] {
                    let i = base + cell;
                    if li > 0 && g.phase[i].is_none() {
                        continue;
                    }
                    budget += g.cell_sprint_budget_j(i);
                }
            }
            budget
        }

        /// The per-advance bookkeeping: gradient peak, then every core.
        fn track(&mut self, g: &GridThermal) {
            let (lo, hi) = Self::die_lo_hi(g);
            self.peak_hotspot_gradient_k = self.peak_hotspot_gradient_k.max(hi - lo);
            for core in 0..g.core_cells.len() {
                let t = Self::core_temp_c(g, core);
                if t > self.peak_core_temps_c[core] {
                    self.peak_core_temps_c[core] = t;
                }
            }
        }

        fn assert_matches(&self, g: &GridThermal, when: &str) {
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            let cores = g.core_cells.len();
            let core_temps: Vec<f64> = (0..cores).map(|c| Self::core_temp_c(g, c)).collect();
            assert_eq!(
                bits(&g.core_temps_c()),
                bits(&core_temps),
                "{when}: core temps"
            );
            assert_eq!(
                bits(&g.peak_core_temps_c()),
                bits(&self.peak_core_temps_c),
                "{when}: peak core temps"
            );
            let (lo, hi) = Self::die_lo_hi(g);
            assert_eq!(
                g.junction_temp_c().to_bits(),
                hi.to_bits(),
                "{when}: junction"
            );
            assert_eq!(
                g.hotspot_gradient_k().to_bits(),
                (hi - lo).to_bits(),
                "{when}: gradient"
            );
            assert_eq!(
                g.peak_hotspot_gradient_k().to_bits(),
                self.peak_hotspot_gradient_k.to_bits(),
                "{when}: peak gradient"
            );
            let sum: f64 = (0..g.cells_per_layer).map(|i| g.cell_temp(i)).sum();
            assert_eq!(
                g.mean_die_temp_c().to_bits(),
                (sum / g.cells_per_layer as f64).to_bits(),
                "{when}: mean die temp"
            );
            for c in 0..cores {
                assert_eq!(
                    g.region_sprint_budget_j(c).to_bits(),
                    Self::region_sprint_budget_j(g, c).to_bits(),
                    "{when}: region budget of core {c}"
                );
            }
        }
    }

    /// Drives `g` through a per-core power schedule with a mid-run
    /// ambient change, a reset, and a second ambient change below the
    /// reset's (so peaks must keep the reset floor), checking the die
    /// caches against [`PerCoreReference`] after every advance. Returns
    /// the largest melt fraction seen.
    fn drive_against_per_core_reference(mut g: GridThermal, max_core_w: f64) -> f64 {
        let mut reference = PerCoreReference::new(&g);
        reference.assert_matches(&g, "fresh");
        let cores = g.core_cells.len();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut melt = 0.0f64;
        for window in 0..40 {
            match window {
                10 => g.set_ambient_c(30.0),
                20 => {
                    g.reset_to_ambient();
                    reference.reset(&g);
                    reference.assert_matches(&g, "after reset");
                }
                25 => g.set_ambient_c(27.0),
                _ => {}
            }
            // Heat hard before the reset, then mostly rest after it.
            let duty = if window < 20 { 0.8 } else { 0.3 };
            for core in 0..cores {
                let u = next();
                let w = if u < duty {
                    max_core_w * (0.5 + 0.5 * u)
                } else {
                    0.0
                };
                g.set_core_power_w(core, w);
            }
            let dt = if window % 7 == 0 { 0.0 } else { 0.05 };
            g.advance(dt);
            reference.track(&g);
            reference.assert_matches(&g, &format!("window {window}"));
            melt = melt.max(g.melt_fraction());
        }
        melt
    }

    #[test]
    fn die_caches_match_the_per_core_reference_bit_for_bit() {
        // Many cores per cell: 1024 nodes on an 8x8 die.
        let shared = GridThermalParams::rack(32, 32).with_grid(8, 8).build();
        drive_against_per_core_reference(shared, 20.0);
        // Many cells per core: 4 nodes on a 32x32 die.
        let spanning = GridThermalParams::rack(2, 2).with_grid(32, 32).build();
        drive_against_per_core_reference(spanning, 20.0);
        // Phase change: the PCM plateau and melt must not disturb the
        // caches either.
        let melt = drive_against_per_core_reference(GridThermalParams::hpca_like().build(), 1.6);
        assert!(melt > 0.0, "the hpca schedule must reach the melt");
        // A sliver core that rasterizes onto no cell: its peak is the
        // reset ambient, its live reading the empty fold.
        let sliver = GridThermalParams::rack(2, 1)
            .with_floorplan(
                Floorplan::new(1.0, 1.0)
                    .with_core("wide", 0.1, 0.1, 0.8, 0.3)
                    .with_core("sliver", 0.5, 0.5, 1e-20, 1e-20),
            )
            .build();
        assert!(sliver.core_cells[1].is_empty());
        drive_against_per_core_reference(sliver, 20.0);
    }

    #[test]
    fn rack_preset_steady_states_bracket_the_limit() {
        // All-sustained idles far below the limit; the whole rack
        // sprinting drives the steady state past it (thermal collapse):
        // exactly the contention an admission policy has to manage.
        let nodes = 16;
        let mut idle = GridThermalParams::rack(4, 4).build();
        assert_eq!(idle.params().nx, 32);
        assert_eq!(idle.params().floorplan.core_count(), nodes);
        assert_eq!(idle.solver(), GridSolver::Adi);
        for n in 0..nodes {
            idle.set_core_power_w(n, 1.0);
        }
        idle.advance(200.0);
        assert!(
            idle.junction_temp_c() < 40.0,
            "sustained rack must idle cool, got {:.1} C",
            idle.junction_temp_c()
        );

        let mut one = GridThermalParams::rack(4, 4).build();
        for n in 0..nodes {
            one.set_core_power_w(n, if n == 5 { 16.0 } else { 1.0 });
        }
        one.advance(200.0);
        assert!(
            one.junction_temp_c() < 55.0,
            "a lone sprinter must stay well below the limit, got {:.1} C",
            one.junction_temp_c()
        );

        let mut all = GridThermalParams::rack(4, 4).build();
        for n in 0..nodes {
            all.set_core_power_w(n, 16.0);
        }
        all.advance(200.0);
        assert!(
            all.junction_temp_c() > all.t_max_c() + 10.0,
            "an unmanaged all-node sprint must collapse thermally, got {:.1} C",
            all.junction_temp_c()
        );
    }

    #[test]
    fn adi_cache_rebuilds_on_a_new_step_size_without_changing_results() {
        // Two identical ADI racks, one advanced with a uniform window
        // and one with a mixed schedule covering the same span, must
        // agree closely (the cache is keyed on the sub-step and must
        // rebuild transparently).
        let mut a = GridThermalParams::rack(2, 2).build();
        let mut b = GridThermalParams::rack(2, 2).build();
        for n in 0..4 {
            a.set_core_power_w(n, 8.0);
            b.set_core_power_w(n, 8.0);
        }
        for _ in 0..40 {
            a.advance(0.05);
        }
        for _ in 0..10 {
            b.advance(0.13);
        }
        b.advance(0.7);
        assert!(
            (a.junction_temp_c() - b.junction_temp_c()).abs() < 0.2,
            "{} vs {}",
            a.junction_temp_c(),
            b.junction_temp_c()
        );
    }

    #[test]
    fn adi_reaches_the_same_series_steady_state() {
        let mut params = GridThermalParams::hpca_like().with_floorplan(Floorplan::full_die());
        params.layers = vec![
            GridLayer::sensible("die", 0.2, 10.0, 1.0),
            GridLayer::sensible("mid", 0.5, 10.0, 2.0),
            GridLayer::sensible("sink", 1.0, 10.0, 1.0),
        ];
        params.r_sink_ambient_k_per_w = 3.0;
        params.nx = 3;
        params.ny = 3;
        params.solver = GridSolver::Adi;
        let mut g = params.build();
        g.set_chip_power_w(2.0);
        g.advance(200.0);
        let expected = 25.0 + 2.0 * (1.0 + 2.0 + 3.0);
        let got = g.junction_temp_c();
        assert!(
            (got - expected).abs() < 0.05,
            "expected {expected}, got {got}"
        );
        assert!(g.hotspot_gradient_k() < 1e-6);
    }

    /// Drives the *general* (phase-aware) ADI path with the same
    /// sub-stepping and peak tracking as [`GridThermal::advance`], so a
    /// PCM-free grid can be integrated down both paths side by side.
    fn advance_general(g: &mut GridThermal, dt_s: f64) {
        assert!(matches!(g.params.solver, GridSolver::Adi));
        if g.core_power_dirty {
            g.apply_core_power_map();
        }
        if dt_s > 0.0 {
            let steps = (dt_s / g.adi_sub_step_s).ceil().max(1.0) as u64;
            let sub = dt_s / steps as f64;
            for _ in 0..steps {
                g.adi_step_general(sub);
                g.time_s += sub;
            }
        }
        g.track_peaks();
    }

    #[test]
    fn linear_fast_path_matches_general_adi_bit_for_bit() {
        // The PCM-free fast path (batched factors, planar sweeps) must
        // reproduce the general path to the last bit, or every digest
        // pinned downstream (cluster, facility) would shift.
        let mut fast = GridThermalParams::rack(2, 2).build();
        let mut general = GridThermalParams::rack(2, 2).build();
        assert!(
            fast.pcm_cells.is_empty(),
            "rack preset must be PCM-free for this test"
        );
        let cores = fast.params().floorplan.cores().len();
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for window in 0..120 {
            for core in 0..cores {
                // Mix busy, idle, and repeated-value windows so the
                // dirty-map early-out is exercised on both sides.
                let u = next();
                let watts = if u < 0.4 { 0.0 } else { 40.0 * u };
                fast.set_core_power_w(core, watts);
                general.set_core_power_w(core, watts);
            }
            let dt = if window % 7 == 0 { 0.05 } else { 0.002 };
            fast.advance(dt);
            advance_general(&mut general, dt);
        }
        for i in 0..fast.enthalpy_j.len() {
            assert_eq!(
                fast.enthalpy_j[i].to_bits(),
                general.enthalpy_j[i].to_bits(),
                "cell {i} diverged"
            );
        }
        assert_eq!(
            fast.boundary_absorbed_j.to_bits(),
            general.boundary_absorbed_j.to_bits()
        );
        assert_eq!(
            fast.junction_cache_c.to_bits(),
            general.junction_cache_c.to_bits()
        );
        assert_eq!(
            fast.peak_hotspot_gradient_k.to_bits(),
            general.peak_hotspot_gradient_k.to_bits()
        );
        for (a, b) in fast
            .peak_core_temps_c()
            .iter()
            .zip(&general.peak_core_temps_c())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Drives the pre-batching per-line general sub-step
    /// ([`GridThermal::adi_step_general_reference`]) with the same
    /// sub-stepping and peak tracking as [`GridThermal::advance`].
    fn advance_general_reference(g: &mut GridThermal, dt_s: f64) {
        assert!(matches!(g.params.solver, GridSolver::Adi));
        if g.core_power_dirty {
            g.apply_core_power_map();
        }
        if dt_s > 0.0 {
            let steps = (dt_s / g.adi_sub_step_s).ceil().max(1.0) as u64;
            let sub = dt_s / steps as f64;
            for _ in 0..steps {
                g.adi_step_general_reference(sub);
                g.time_s += sub;
            }
        }
        g.track_peaks();
    }

    #[test]
    fn batched_general_sweeps_match_the_per_line_reference_bit_for_bit() {
        // The lane-major batched assembly (and the factored whole-layer
        // bundles on the PCM-free layers) must reproduce the
        // line-at-a-time general sweep to the last bit — through solid
        // heating, the melting plateau (Dirichlet rows), full melt and
        // refreeze.
        let mut batched = GridThermalParams::hpca_like()
            .with_grid(6, 5)
            .with_solver(GridSolver::Adi)
            .build();
        let mut reference = GridThermalParams::hpca_like()
            .with_grid(6, 5)
            .with_solver(GridSolver::Adi)
            .build();
        assert!(
            !batched.pcm_cells.is_empty(),
            "the hpca preset must carry PCM for this test"
        );
        // Sprint hard into the melt, dwell on the plateau, then cool.
        let schedule = [
            (18.0, 0.4),
            (16.0, 0.6),
            (20.0, 0.5),
            (0.0, 0.8),
            (22.0, 0.7),
            (0.0, 2.0),
        ];
        for &(watts, dt) in &schedule {
            batched.set_chip_power_w(watts);
            reference.set_chip_power_w(watts);
            advance_general(&mut batched, dt);
            advance_general_reference(&mut reference, dt);
        }
        assert!(
            batched.peak_core_temps_c().iter().any(|&t| t > 59.0),
            "the schedule must actually reach the melt region"
        );
        for i in 0..batched.enthalpy_j.len() {
            assert_eq!(
                batched.enthalpy_j[i].to_bits(),
                reference.enthalpy_j[i].to_bits(),
                "cell {i} diverged"
            );
        }
        assert_eq!(
            batched.boundary_absorbed_j.to_bits(),
            reference.boundary_absorbed_j.to_bits()
        );
        assert_eq!(
            batched.junction_cache_c.to_bits(),
            reference.junction_cache_c.to_bits()
        );
        assert_eq!(
            batched.peak_hotspot_gradient_k.to_bits(),
            reference.peak_hotspot_gradient_k.to_bits()
        );
    }
}
