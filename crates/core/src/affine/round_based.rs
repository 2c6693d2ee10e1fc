//! The idealised round-based form of the hierarchical affine protocol.
//!
//! This implementation follows the Section-3 overview (generalised to the full
//! Section-4 hierarchy) as a *nested round* recursion rather than as the
//! asynchronous state machine:
//!
//! * a **round of a cell** picks two of its populated child cells uniformly at
//!   random, routes a packet between their leaders (greedy geographic
//!   routing, both directions), applies the affine exchange
//!   `x ← x + α(x' − x)` with `α = (2/5)·E#(child)` to the two leader values,
//!   and then re-averages both children internally;
//! * **re-averaging a child** either recurses (rounds of the child's own
//!   children, then pairwise gossip inside leaves) or, in the idealised
//!   [`LocalAveraging::Exact`] mode, sets every member to the child's mean at
//!   a cost of `2·|child|` transmissions (an aggregation/broadcast flood —
//!   the cheapest physically implementable stand-in).
//!
//! The top level runs rounds until the measured global relative error drops
//! below the target, which is what the experiments actually need; inner levels
//! use the paper's `O(ñ·log(ñ/ε_r))` round counts with a configurable
//! constant. The paper's accuracy cascade `ε_{r+1} = ε_r/(25·n^{7/2+a})`
//! (Section 4.1) is replaced by a configurable per-level decay factor —
//! DESIGN.md §2, substitution 3 — because the literal cascade is unreachable
//! in floating point for any interesting `n`.

use crate::affine::hierarchy::Hierarchy;
use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::{affine_exchange, convex_average, AffineCoefficient};
use geogossip_geometry::point::NodeId;
use geogossip_geometry::PartitionConfig;
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::route_terminus_to_node;
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, Clocking, SquaredError};
use geogossip_sim::metrics::{ConvergenceTrace, TracePoint, TransmissionCounter};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// How the affine coefficient of a leader exchange is chosen.
///
/// The paper writes the coefficient as `(2/5)·E#(□)`, the *expected* cell
/// population, because in its regime (`E# ≥ (log n)^8`) the Chernoff bound
/// makes the realized population indistinguishable from the expectation. At
/// simulable sizes the expected leaf population is small (tens), occupancy
/// fluctuates by ±50%, and an `E#`-based coefficient can exceed the realized
/// population — making the effective mixing weight larger than 1 and the
/// exchange divergent. The implementation therefore scales the coefficient by
/// the **realized** population handed in by the caller (DESIGN.md §2,
/// substitution 2); in the paper's regime the two coincide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoefficientRule {
    /// `α = fraction · #(□)` — the paper uses `fraction = 2/5` (Section 4.2).
    FractionOfPopulation(f64),
    /// A fixed coefficient independent of the cell size; `Fixed(0.5)` is the
    /// convex baseline used in the E8 ablation.
    Fixed(f64),
}

impl CoefficientRule {
    /// The paper's rule `α = (2/5)·#(□)`.
    pub fn paper() -> Self {
        CoefficientRule::FractionOfPopulation(0.4)
    }

    /// The convex-combination rule `α = 1/2` (what previous gossip protocols
    /// use; the ablation baseline).
    pub fn convex() -> Self {
        CoefficientRule::Fixed(0.5)
    }

    /// The coefficient for an exchange between cells of (realized) population
    /// `cell_population`.
    pub fn coefficient(&self, cell_population: f64) -> AffineCoefficient {
        match *self {
            CoefficientRule::FractionOfPopulation(f) => {
                AffineCoefficient::new(f * cell_population.max(1.0))
            }
            CoefficientRule::Fixed(alpha) => AffineCoefficient::new(alpha),
        }
    }
}

/// How a cell is re-averaged internally after its leader took part in a
/// long-range exchange.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LocalAveraging {
    /// Idealised: set every member to the cell mean, charging `2·|cell|`
    /// transmissions (convergecast + broadcast along a flooding tree). Used to
    /// exhibit the paper's asymptotic shape without the polylogarithmic
    /// constants of nested gossip.
    Exact,
    /// Faithful: recurse through the hierarchy and run pairwise gossip inside
    /// leaf cells until the within-cell relative error drops below the
    /// current level's accuracy target. `max_exchanges_factor` caps the
    /// number of pairwise exchanges at `factor · m²` for a leaf of `m`
    /// members (a safety net for internally disconnected leaves).
    Gossip {
        /// Cap on leaf exchanges as a multiple of `m²`.
        max_exchanges_factor: f64,
    },
}

/// Configuration of the round-based protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundBasedConfig {
    /// How the hierarchical partition is built.
    pub partition: PartitionConfig,
    /// Affine coefficient rule for leader exchanges.
    pub coefficient: CoefficientRule,
    /// Local re-averaging mode.
    pub local_averaging: LocalAveraging,
    /// Multiplier on the `m·ln(m/ε)` inner-round count.
    pub rounds_factor: f64,
    /// Per-level accuracy decay: `ε_{r+1} = ε_r · epsilon_decay`.
    pub epsilon_decay: f64,
    /// Safety cap on the number of top-level rounds.
    pub max_top_rounds: u64,
}

impl RoundBasedConfig {
    /// Faithful configuration: paper coefficient, recursive local averaging,
    /// practical partition.
    pub fn practical(n: usize) -> Self {
        RoundBasedConfig {
            partition: PartitionConfig::practical(n),
            coefficient: CoefficientRule::paper(),
            local_averaging: LocalAveraging::Gossip {
                max_exchanges_factor: 8.0,
            },
            rounds_factor: 1.0,
            epsilon_decay: 0.1,
            max_top_rounds: 100_000,
        }
    }

    /// Idealised configuration: paper coefficient, exact (flood-based) local
    /// averaging. Exhibits the `n^{1+o(1)}` shape without nested-gossip
    /// constants.
    pub fn idealized(n: usize) -> Self {
        RoundBasedConfig {
            local_averaging: LocalAveraging::Exact,
            ..Self::practical(n)
        }
    }

    /// The Section-3 overview: a single level of `~√n` cells, exact local
    /// averaging.
    pub fn section3_overview(n: usize) -> Self {
        RoundBasedConfig {
            partition: PartitionConfig::top_level_only(n),
            local_averaging: LocalAveraging::Exact,
            ..Self::practical(n)
        }
    }

    /// Replaces the coefficient rule (used by the E8 ablation).
    pub fn with_coefficient(mut self, rule: CoefficientRule) -> Self {
        self.coefficient = rule;
        self
    }
}

/// Counters describing one run of the round-based protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Number of top-level rounds executed.
    pub top_rounds: u64,
    /// Total number of leader-to-leader affine exchanges (all levels).
    pub long_range_exchanges: u64,
    /// Total number of pairwise exchanges inside leaf cells.
    pub local_exchanges: u64,
    /// Number of leader routings that dead-ended before their destination.
    pub failed_routes: u64,
    /// Number of leaf-averaging passes that hit their exchange cap before
    /// reaching the accuracy target (internally disconnected leaves).
    pub stalled_local_passes: u64,
}

/// Result of [`RoundBasedAffineGossip::run_until`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundBasedReport {
    /// Whether the global error target was reached.
    pub converged: bool,
    /// Final relative ℓ₂ error.
    pub final_error: f64,
    /// Transmission counters (routing / local / control).
    pub transmissions: TransmissionCounter,
    /// Error-vs-cost trace sampled once per top-level round.
    pub trace: ConvergenceTrace,
    /// Protocol statistics.
    pub stats: RoundStats,
}

/// The round-based hierarchical affine gossip protocol.
///
/// # Example
///
/// ```
/// use geogossip_core::prelude::*;
/// use geogossip_graph::GeometricGraph;
/// use geogossip_geometry::sampling::sample_unit_square;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(11);
/// let pts = sample_unit_square(512, &mut rng);
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let values = InitialCondition::Spike.generate(graph.len(), &mut rng);
/// let mut gossip = RoundBasedAffineGossip::new(
///     &graph, values, RoundBasedConfig::idealized(graph.len()),
/// )?;
/// let report = gossip.run_until(0.01, &mut rng);
/// assert!(report.converged);
/// # Ok::<(), geogossip_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoundBasedAffineGossip<'a> {
    graph: &'a GeometricGraph,
    hierarchy: Hierarchy,
    state: GossipState,
    config: RoundBasedConfig,
    stats: RoundStats,
    /// Leaf-gossip membership marks: `stamp[v] == cell + 1` while `v` is a
    /// member of the cell being averaged (see [`Self::leaf_gossip`]).
    stamp: Vec<u32>,
    /// The current exchange's in-cell neighbors, reused across exchanges.
    in_cell: Vec<u32>,
}

impl<'a> RoundBasedAffineGossip<'a> {
    /// Creates the protocol over `graph` with the given initial values and
    /// configuration.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::EmptyNetwork`] / [`ProtocolError::ValueLengthMismatch`]
    ///   for malformed inputs.
    /// * [`ProtocolError::DegeneratePartition`] when the partition has fewer
    ///   than two populated top-level cells.
    /// * [`ProtocolError::InvalidParameter`] for non-positive factors.
    pub fn new(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        config: RoundBasedConfig,
    ) -> Result<Self, ProtocolError> {
        if graph.is_empty() {
            return Err(ProtocolError::EmptyNetwork);
        }
        if initial_values.len() != graph.len() {
            return Err(ProtocolError::ValueLengthMismatch {
                nodes: graph.len(),
                values: initial_values.len(),
            });
        }
        if !config.rounds_factor.is_finite() || config.rounds_factor <= 0.0 {
            return Err(ProtocolError::InvalidParameter {
                name: "rounds_factor".into(),
                reason: "must be strictly positive".into(),
            });
        }
        if !config.epsilon_decay.is_finite()
            || config.epsilon_decay <= 0.0
            || config.epsilon_decay > 1.0
        {
            return Err(ProtocolError::InvalidParameter {
                name: "epsilon_decay".into(),
                reason: "must lie in (0, 1]".into(),
            });
        }
        let hierarchy = Hierarchy::build(graph, config.partition)?;
        Ok(RoundBasedAffineGossip {
            graph,
            hierarchy,
            state: GossipState::new(initial_values),
            config,
            stats: RoundStats::default(),
            stamp: vec![0; graph.len()],
            in_cell: Vec::new(),
        })
    }

    /// The current gossip state.
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// The hierarchy the protocol runs on.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RoundStats {
        self.stats
    }

    /// Runs top-level rounds until the global relative error is at or below
    /// `epsilon` (or the round cap is hit) and returns the full report.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn run_until<R: Rng + ?Sized>(&mut self, epsilon: f64, rng: &mut R) -> RoundBasedReport {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        let mut tx = TransmissionCounter::new();
        let mut trace = ConvergenceTrace::new();
        trace.push(TracePoint {
            transmissions: 0,
            ticks: 0,
            relative_error: self.state.relative_error(),
        });

        let child_epsilon = (epsilon * self.config.epsilon_decay).max(f64::MIN_POSITIVE);
        let top_children = self.hierarchy.populated_children(0).to_vec();

        // Pre-averaging pass: the Section-3 argument starts from "A has been
        // run on each subsquare", i.e. every top-level cell is internally
        // averaged before leaders start exchanging.
        if top_children.len() >= 2 {
            self.pre_average_pass(&top_children, child_epsilon, &mut tx, rng);
        }
        trace.push(TracePoint {
            transmissions: tx.total(),
            ticks: self.stats.top_rounds,
            relative_error: self.state.relative_error(),
        });

        // Stall detection: if the error has not improved by at least 1% over a
        // full window of rounds (several complete passes over the top cells),
        // the run has hit the floor imposed by imperfect local averaging and
        // is reported as non-converged rather than looping to the cap.
        let stall_window = (20 * top_children.len().max(2)) as u64;
        let mut best_error = self.state.relative_error();
        let mut rounds_since_improvement = 0u64;

        let mut converged = self.state.relative_error() <= epsilon;
        while !converged && self.stats.top_rounds < self.config.max_top_rounds {
            if top_children.len() < 2 {
                // Nothing to exchange with: local averaging is all we can do,
                // and the pre-averaging pass already did it.
                break;
            }
            self.top_level_round(&top_children, child_epsilon, &mut tx, rng);
            let error = self.state.relative_error();
            converged = error <= epsilon;
            trace.push(TracePoint {
                transmissions: tx.total(),
                ticks: self.stats.top_rounds,
                relative_error: error,
            });
            if error < best_error * 0.99 {
                best_error = error;
                rounds_since_improvement = 0;
            } else {
                rounds_since_improvement += 1;
                if rounds_since_improvement >= stall_window {
                    break;
                }
            }
        }

        RoundBasedReport {
            converged,
            final_error: self.state.relative_error(),
            transmissions: tx,
            trace,
            stats: self.stats,
        }
    }

    /// The Section-3 pre-averaging pass: internally averages every populated
    /// top-level cell. Shared verbatim by [`Self::run_until`] and
    /// [`RoundBasedActivation`], so the two paths consume the RNG in exactly
    /// the same order.
    fn pre_average_pass<R: Rng + ?Sized>(
        &mut self,
        top_children: &[usize],
        child_epsilon: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        for &child in top_children {
            self.average_cell(child, child_epsilon, tx, rng);
        }
    }

    /// One top-level round: pick two distinct populated top cells uniformly
    /// at random, exchange their leaders, re-average both, and count the
    /// round. Shared verbatim by [`Self::run_until`] and
    /// [`RoundBasedActivation`] — keeping the draw order in one place is what
    /// holds the two execution paths bit-identical.
    fn top_level_round<R: Rng + ?Sized>(
        &mut self,
        top_children: &[usize],
        child_epsilon: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let m = top_children.len();
        let i = top_children[rng.gen_range(0..m)];
        let j = loop {
            let cand = top_children[rng.gen_range(0..m)];
            if cand != i {
                break cand;
            }
        };
        self.leader_exchange(i, j, tx, rng);
        self.average_cell(i, child_epsilon, tx, rng);
        self.average_cell(j, child_epsilon, tx, rng);
        self.stats.top_rounds += 1;
    }

    /// One leader-to-leader affine exchange between cells `a` and `b`
    /// (which must be populated).
    fn leader_exchange<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let _ = rng;
        let (Some(la), Some(lb)) = (self.hierarchy.leader(a), self.hierarchy.leader(b)) else {
            return;
        };
        // Route the caller's packet to the callee and the callee's reply back
        // (allocation-free: only hop counts and delivery flags are needed).
        let (out, out_delivered) = route_terminus_to_node(self.graph, la, lb);
        let (back, back_delivered) = route_terminus_to_node(self.graph, lb, la);
        if !out_delivered {
            self.stats.failed_routes += 1;
        }
        if !back_delivered {
            self.stats.failed_routes += 1;
        }
        tx.charge_routing((out.hops + back.hops) as u64);

        // The coefficient is based on the smaller of the two realized cell
        // populations so the effective mixing weight stays below 1 even for
        // under-populated cells (see `CoefficientRule`).
        let population = self
            .hierarchy
            .members(a)
            .len()
            .min(self.hierarchy.members(b).len()) as f64;
        let alpha = self.config.coefficient.coefficient(population);
        let (xa, xb) = (self.state.value(la.index()), self.state.value(lb.index()));
        let (na, nb) = affine_exchange(xa, xb, alpha);
        self.state.set(la.index(), na);
        self.state.set(lb.index(), nb);
        self.stats.long_range_exchanges += 1;
    }

    /// Re-averages cell `cell_idx` internally to accuracy `epsilon_r`.
    fn average_cell<R: Rng + ?Sized>(
        &mut self,
        cell_idx: usize,
        epsilon_r: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let member_count = self.hierarchy.members(cell_idx).len();
        if member_count <= 1 {
            return;
        }
        match self.config.local_averaging {
            LocalAveraging::Exact => self.exact_average(cell_idx, tx),
            LocalAveraging::Gossip { .. } => {
                // Children are read by index from the hierarchy's precomputed
                // slice: holding the slice across the recursive `&mut self`
                // calls below would not borrow-check, and copying it would
                // allocate on every call.
                let m = self.hierarchy.populated_children(cell_idx).len();
                let child = |this: &Self, k: usize| this.hierarchy.populated_children(cell_idx)[k];
                if m < 2 {
                    self.leaf_gossip(cell_idx, epsilon_r, tx, rng);
                } else {
                    // The affine exchanges are only stable when every child is
                    // already internally averaged ("Suppose that A has been
                    // run on each subsquare", Section 3) — otherwise a child
                    // leader's value does not represent its cell and the
                    // non-convex coefficient amplifies the discrepancy. So
                    // first re-establish that precondition, then run rounds of
                    // child-leader exchanges until the cell's internal spread
                    // is below the accuracy target, capped at the paper's
                    // O(m·log(m/ε)) round count times a safety factor.
                    let child_epsilon =
                        (epsilon_r * self.config.epsilon_decay).max(f64::MIN_POSITIVE);
                    for k in 0..m {
                        self.average_cell(child(self, k), child_epsilon, tx, rng);
                    }
                    let planned = (self.config.rounds_factor
                        * m as f64
                        * (m as f64 / epsilon_r).max(std::f64::consts::E).ln())
                    .ceil() as u64;
                    let cap = planned.saturating_mul(4).max(8);
                    let mut rounds = 0u64;
                    while self.cell_spread(cell_idx) > epsilon_r && rounds < cap {
                        let i = child(self, rng.gen_range(0..m));
                        let j = loop {
                            let cand = child(self, rng.gen_range(0..m));
                            if cand != i {
                                break cand;
                            }
                        };
                        self.leader_exchange(i, j, tx, rng);
                        self.average_cell(i, child_epsilon, tx, rng);
                        self.average_cell(j, child_epsilon, tx, rng);
                        rounds += 1;
                    }
                    if rounds >= cap && self.cell_spread(cell_idx) > epsilon_r {
                        self.stats.stalled_local_passes += 1;
                    }
                }
            }
        }
    }

    /// Relative spread of the values inside a cell: the ℓ₂ deviation of the
    /// members' values around the cell mean, normalised by `max(|mean|, 1)`.
    /// This is the quantity the accuracy cascade `ε_r` of Section 4.1 bounds.
    fn cell_spread(&self, cell_idx: usize) -> f64 {
        spread(self.hierarchy.members(cell_idx), &self.state)
    }

    /// Idealised local averaging: every member takes the cell mean; cost is
    /// one convergecast plus one broadcast over the cell (2 transmissions per
    /// member), charged as control traffic.
    fn exact_average(&mut self, cell_idx: usize, tx: &mut TransmissionCounter) {
        let Self {
            hierarchy, state, ..
        } = self;
        let members = hierarchy.members(cell_idx);
        if members.is_empty() {
            return;
        }
        let sum: f64 = members.iter().map(|&m| state.value(m)).sum();
        let mean = sum / members.len() as f64;
        for &m in members {
            state.set(m, mean);
        }
        tx.charge_control(2 * members.len() as u64);
    }

    /// Pairwise gossip restricted to the members of a leaf cell, run until the
    /// within-cell relative deviation drops below `epsilon_r` or the exchange
    /// cap is hit.
    ///
    /// **Draw order (frozen).** Each exchange draws one member `u` uniformly
    /// from the cell's member list, then — only if `u` has an in-cell
    /// neighbor — one partner uniformly from `u`'s in-cell neighbors taken in
    /// CSR order. The draws depend only on the member count and the in-cell
    /// neighbor count, so how membership is tested cannot move them.
    ///
    /// Membership is a mark, not a set: every member gets `stamp = cell + 1`
    /// before the first exchange. A cell's member list never changes, so a
    /// node still carrying that mark from an earlier call is a member too;
    /// no generation counter is needed and nothing can wrap. The in-cell
    /// neighbors are gathered into one reused buffer, so a call allocates
    /// nothing.
    fn leaf_gossip<R: Rng + ?Sized>(
        &mut self,
        cell_idx: usize,
        epsilon_r: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let Self {
            graph,
            hierarchy,
            state,
            config,
            stats,
            stamp,
            in_cell,
        } = self;
        let members = hierarchy.members(cell_idx);
        let m = members.len();
        if m <= 1 {
            return;
        }
        let cap = match config.local_averaging {
            LocalAveraging::Gossip {
                max_exchanges_factor,
            } => ((max_exchanges_factor * (m * m) as f64).ceil() as u64).max(16),
            LocalAveraging::Exact => unreachable!("leaf_gossip is only called in Gossip mode"),
        };

        if spread(members, state) <= epsilon_r {
            return;
        }
        let mark = u32::try_from(cell_idx + 1).expect("cell index fits in u32");
        for &u in members {
            stamp[u] = mark;
        }
        let mut attempts = 0u64;
        loop {
            // A batch of exchanges between error checks keeps the check cost
            // (O(m)) amortised. Attempts are counted even when a member has no
            // in-cell neighbor, so internally disconnected leaves cannot spin
            // forever.
            for _ in 0..m {
                attempts += 1;
                let u = members[rng.gen_range(0..m)];
                in_cell.clear();
                in_cell.extend(
                    graph
                        .neighbors(NodeId(u))
                        .iter()
                        .filter(|&&v| stamp[v as usize] == mark),
                );
                if in_cell.is_empty() {
                    continue;
                }
                let v = in_cell[rng.gen_range(0..in_cell.len())] as usize;
                let (nu, nv) = convex_average(state.value(u), state.value(v));
                state.set(u, nu);
                state.set(v, nv);
                tx.charge_local(2);
                stats.local_exchanges += 1;
            }
            if spread(members, state) <= epsilon_r {
                return;
            }
            if attempts >= cap {
                stats.stalled_local_passes += 1;
                return;
            }
        }
    }
}

/// Relative spread of `members`' values: the ℓ₂ deviation around their mean,
/// normalised by `max(|mean|, 1)` (see [`RoundBasedAffineGossip::cell_spread`]).
fn spread(members: &[usize], state: &GossipState) -> f64 {
    if members.len() <= 1 {
        return 0.0;
    }
    let mean = members.iter().map(|&i| state.value(i)).sum::<f64>() / members.len() as f64;
    let dev: f64 = members
        .iter()
        .map(|&i| {
            let d = state.value(i) - mean;
            d * d
        })
        .sum::<f64>()
        .sqrt();
    dev / mean.abs().max(1.0)
}

/// The round-based protocol as a **self-paced [`Activation`]**, so it can be
/// boxed, registered, and driven by the engine like the tick-driven
/// protocols.
///
/// One engine tick maps to one unit of the protocol's own schedule: the first
/// tick runs the Section-3 pre-averaging pass over the top-level cells, every
/// later tick runs one top-level round. Because the adapter reports
/// [`Clocking::SelfPaced`], the engine draws **no** Poisson clock randomness,
/// so a run through the engine consumes the RNG in exactly the order
/// [`RoundBasedAffineGossip::run_until`] does — the scenario determinism test
/// (`tests/scenario_api.rs`) pins the two paths to bit-identical results.
/// Stalls (no ≥1% improvement over a full window of rounds, or the
/// `max_top_rounds` cap) surface through [`Activation::halted`].
#[derive(Debug, Clone)]
pub struct RoundBasedActivation<'a> {
    inner: RoundBasedAffineGossip<'a>,
    child_epsilon: f64,
    top_children: Vec<usize>,
    stall_window: u64,
    pre_averaged: bool,
    halted: bool,
    best_error: f64,
    rounds_since_improvement: u64,
    effective_alpha_top: f64,
}

impl<'a> RoundBasedActivation<'a> {
    /// Creates the adapter for a run targeting relative error `epsilon`
    /// (the per-level accuracy cascade derives from it).
    ///
    /// # Errors
    ///
    /// Everything [`RoundBasedAffineGossip::new`] reports, plus
    /// [`ProtocolError::InvalidParameter`] when `epsilon` is not strictly
    /// positive and finite.
    pub fn new(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        config: RoundBasedConfig,
        epsilon: f64,
    ) -> Result<Self, ProtocolError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(ProtocolError::invalid(
                "epsilon",
                "round-based target must be strictly positive and finite",
            ));
        }
        let inner = RoundBasedAffineGossip::new(graph, initial_values, config)?;
        let child_epsilon = (epsilon * config.epsilon_decay).max(f64::MIN_POSITIVE);
        let top_children = inner.hierarchy.populated_children(0).to_vec();
        let stall_window = (20 * top_children.len().max(2)) as u64;
        let effective_alpha_top = top_children
            .first()
            .map(|&c| {
                let population = inner.hierarchy.members(c).len() as f64;
                config.coefficient.coefficient(population).value()
            })
            .unwrap_or(0.0);
        let best_error = inner.state.relative_error();
        Ok(RoundBasedActivation {
            inner,
            child_epsilon,
            top_children,
            stall_window,
            pre_averaged: false,
            halted: false,
            best_error,
            rounds_since_improvement: 0,
            effective_alpha_top,
        })
    }

    /// The wrapped protocol (hierarchy, state, statistics).
    pub fn inner(&self) -> &RoundBasedAffineGossip<'a> {
        &self.inner
    }
}

impl Activation for RoundBasedActivation<'_> {
    fn on_tick(&mut self, _tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        if self.halted {
            return;
        }
        if !self.pre_averaged {
            // "Suppose that A has been run on each subsquare" (Section 3):
            // every top-level cell is internally averaged before leaders
            // start exchanging.
            if self.top_children.len() >= 2 {
                let top_children = std::mem::take(&mut self.top_children);
                self.inner
                    .pre_average_pass(&top_children, self.child_epsilon, tx, rng);
                self.top_children = top_children;
            } else {
                // Nothing to exchange with: local averaging is all there is,
                // and without it the pre-averaging pass cannot even run.
                self.halted = true;
            }
            self.pre_averaged = true;
            self.best_error = self.inner.state.relative_error();
            self.rounds_since_improvement = 0;
            return;
        }
        if self.inner.stats.top_rounds >= self.inner.config.max_top_rounds {
            self.halted = true;
            return;
        }
        // Borrow-splitting: the cell list is lent to the inner protocol for
        // the duration of the round (no allocation; `top_children` is never
        // empty here, so the placeholder cannot be observed).
        let top_children = std::mem::take(&mut self.top_children);
        self.inner
            .top_level_round(&top_children, self.child_epsilon, tx, rng);
        self.top_children = top_children;

        // Stall detection, exactly as in `run_until`: no ≥1% improvement over
        // a full window of rounds means the run has hit the floor imposed by
        // imperfect local averaging.
        let error = self.inner.state.relative_error();
        if error < self.best_error * 0.99 {
            self.best_error = error;
            self.rounds_since_improvement = 0;
        } else {
            self.rounds_since_improvement += 1;
            if self.rounds_since_improvement >= self.stall_window {
                self.halted = true;
            }
        }
        if self.inner.stats.top_rounds >= self.inner.config.max_top_rounds {
            self.halted = true;
        }
    }

    fn relative_error(&self) -> f64 {
        self.inner.state.relative_error()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        Some(SquaredError {
            current_sq: self.inner.state.deviation_sq(),
            initial: self.inner.state.initial_deviation(),
        })
    }

    fn name(&self) -> &str {
        match self.inner.config.local_averaging {
            LocalAveraging::Exact => "affine (idealized local avg)",
            LocalAveraging::Gossip { .. } => "affine (recursive local avg)",
        }
    }

    fn params(&self) -> Vec<(String, String)> {
        let config = &self.inner.config;
        vec![
            ("coefficient".into(), format!("{:?}", config.coefficient)),
            (
                "local_averaging".into(),
                format!("{:?}", config.local_averaging),
            ),
            ("rounds_factor".into(), format!("{}", config.rounds_factor)),
            ("epsilon_decay".into(), format!("{}", config.epsilon_decay)),
            (
                "max_top_rounds".into(),
                format!("{}", config.max_top_rounds),
            ),
        ]
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let stats = self.inner.stats;
        vec![
            ("top_rounds".into(), stats.top_rounds as f64),
            (
                "long_range_exchanges".into(),
                stats.long_range_exchanges as f64,
            ),
            ("local_exchanges".into(), stats.local_exchanges as f64),
            ("failed_routes".into(), stats.failed_routes as f64),
            (
                "stalled_local_passes".into(),
                stats.stalled_local_passes as f64,
            ),
            ("effective_alpha_top".into(), self.effective_alpha_top),
        ]
    }

    fn rounds(&self) -> Option<u64> {
        Some(self.inner.stats.top_rounds)
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn clocking(&self) -> Clocking {
        Clocking::SelfPaced
    }

    fn trace_interval(&self) -> Option<u64> {
        // One trace point per top-level round, exactly like `run_until`'s
        // report trace (the engine's default `n`-tick interval would collapse
        // a sub-`n`-round run to its endpoints).
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InitialCondition;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn construction_validates_inputs() {
        let g = graph(100, 1);
        assert!(
            RoundBasedAffineGossip::new(&g, vec![0.0; 100], RoundBasedConfig::practical(100))
                .is_ok()
        );
        assert!(
            RoundBasedAffineGossip::new(&g, vec![0.0; 99], RoundBasedConfig::practical(100))
                .is_err()
        );
        let mut bad = RoundBasedConfig::practical(100);
        bad.rounds_factor = 0.0;
        assert!(RoundBasedAffineGossip::new(&g, vec![0.0; 100], bad).is_err());
        let mut bad = RoundBasedConfig::practical(100);
        bad.epsilon_decay = 0.0;
        assert!(RoundBasedAffineGossip::new(&g, vec![0.0; 100], bad).is_err());
    }

    #[test]
    fn idealized_mode_converges_quickly() {
        let g = graph(512, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let report = gossip.run_until(0.01, &mut rng);
        assert!(report.converged, "error stuck at {}", report.final_error);
        assert!(report.stats.top_rounds > 0);
        assert!(report.transmissions.routing() > 0);
        assert!(report.transmissions.control() > 0);
    }

    #[test]
    fn recursive_gossip_mode_converges() {
        // n = 384 gives a three-level hierarchy, so this exercises the nested
        // recursion (leaf gossip inside child-leader rounds inside top-level
        // rounds). The target is modest: nested gossip's accuracy floor at
        // this size is governed by the ε_r cascade, and experiment E4
        // (`crates/bench/src/experiments/e04_scaling.rs`) tracks the
        // achievable accuracy; the unit test only requires solid convergence
        // well below the pre-averaging plateau (~0.4).
        let g = graph(384, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::practical(g.len())).unwrap();
        let report = gossip.run_until(0.2, &mut rng);
        assert!(report.converged, "error stuck at {}", report.final_error);
        assert!(report.stats.local_exchanges > 0);
        assert!(report.transmissions.local() > 0);
    }

    #[test]
    fn mass_is_conserved() {
        let g = graph(400, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values = InitialCondition::Uniform.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let _ = gossip.run_until(0.01, &mut rng);
        assert!(
            gossip.state().mass_drift() < 1e-9,
            "drift {}",
            gossip.state().mass_drift()
        );
    }

    #[test]
    fn section3_overview_converges() {
        let g = graph(512, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let values = InitialCondition::Ramp.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::section3_overview(g.len()))
                .unwrap();
        let report = gossip.run_until(0.02, &mut rng);
        assert!(report.converged);
        // Single-level hierarchy: only root rounds, no nested long-range
        // exchanges beyond the top level.
        assert_eq!(gossip.hierarchy().levels(), 2);
    }

    #[test]
    fn convex_coefficient_converges_more_slowly_than_paper_coefficient() {
        // E8's headline: with convex leader exchanges (α = 1/2) each contact
        // moves only ~1/√n of a cell's mass, so many more top-level rounds are
        // needed than with the paper's α = 2√n/5.
        let g = graph(512, 10);
        let values = InitialCondition::Spike.generate(g.len(), &mut ChaCha8Rng::seed_from_u64(11));
        let mut base = RoundBasedConfig::idealized(g.len());
        base.max_top_rounds = 20_000;

        let mut paper = RoundBasedAffineGossip::new(
            &g,
            values.clone(),
            base.with_coefficient(CoefficientRule::paper()),
        )
        .unwrap();
        let paper_report = paper.run_until(0.05, &mut ChaCha8Rng::seed_from_u64(12));

        let mut convex = RoundBasedAffineGossip::new(
            &g,
            values,
            base.with_coefficient(CoefficientRule::convex()),
        )
        .unwrap();
        let convex_report = convex.run_until(0.05, &mut ChaCha8Rng::seed_from_u64(12));

        assert!(paper_report.converged);
        assert!(
            !convex_report.converged
                || convex_report.stats.top_rounds > 2 * paper_report.stats.top_rounds,
            "convex rounds {} vs paper rounds {}",
            convex_report.stats.top_rounds,
            paper_report.stats.top_rounds
        );
    }

    #[test]
    fn trace_is_monotone_in_cost() {
        let g = graph(256, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let report = gossip.run_until(0.05, &mut rng);
        let pts = report.trace.points();
        assert!(pts
            .windows(2)
            .all(|w| w[0].transmissions <= w[1].transmissions));
    }

    #[test]
    fn activation_adapter_matches_run_until_bit_for_bit() {
        use geogossip_sim::{AsyncEngine, StopCondition};
        let g = graph(384, 21);
        let values = InitialCondition::Spike.generate(g.len(), &mut ChaCha8Rng::seed_from_u64(22));
        let epsilon = 0.05;
        for config in [
            RoundBasedConfig::idealized(g.len()),
            RoundBasedConfig::practical(g.len()),
        ] {
            let mut direct = RoundBasedAffineGossip::new(&g, values.clone(), config).unwrap();
            let direct_report = direct.run_until(epsilon, &mut ChaCha8Rng::seed_from_u64(77));

            let mut adapter =
                RoundBasedActivation::new(&g, values.clone(), config, epsilon).unwrap();
            let engine_report = AsyncEngine::new(g.len()).run(
                &mut adapter,
                StopCondition::at_epsilon(epsilon).with_max_ticks(200_000_000),
                &mut ChaCha8Rng::seed_from_u64(77),
            );

            assert_eq!(engine_report.converged(), direct_report.converged);
            assert_eq!(
                engine_report.transmissions.total(),
                direct_report.transmissions.total()
            );
            assert_eq!(
                adapter.inner().stats().top_rounds,
                direct_report.stats.top_rounds
            );
            assert_eq!(
                engine_report.final_error.to_bits(),
                direct_report.final_error.to_bits(),
                "final errors diverged for {config:?}"
            );
        }
    }

    #[test]
    fn leaf_without_in_cell_neighbors_stops_at_its_attempt_cap() {
        // A radius far below any sensor spacing leaves every sensor without a
        // neighbor, so no exchange can happen and only the cap ends the pass.
        let pts = sample_unit_square(256, &mut ChaCha8Rng::seed_from_u64(17));
        let g = GeometricGraph::build(pts, 1e-9);
        assert_eq!(g.edge_count(), 0);
        let values: Vec<f64> = (0..g.len()).map(|i| i as f64).collect();
        let config = RoundBasedConfig::practical(g.len());
        let mut gossip = RoundBasedAffineGossip::new(&g, values, config).unwrap();
        let hierarchy = gossip.hierarchy();
        let leaf = (0..hierarchy.partition().num_cells())
            .find(|&c| hierarchy.populated_children(c).len() < 2 && hierarchy.members(c).len() >= 2)
            .expect("a leaf with at least two members");
        let m = hierarchy.members(leaf).len();
        let before = gossip.state().values().to_vec();

        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut tx = TransmissionCounter::new();
        gossip.leaf_gossip(leaf, 1e-3, &mut tx, &mut rng);

        let stats = gossip.stats();
        assert_eq!(stats.stalled_local_passes, 1);
        assert_eq!(stats.local_exchanges, 0);
        assert_eq!(tx.total(), 0);
        assert_eq!(gossip.state().values(), &before[..]);
        // The pass ran whole batches of `m` attempts until it reached the
        // cap, each taking exactly one member draw and no neighbor draw.
        let LocalAveraging::Gossip {
            max_exchanges_factor,
        } = config.local_averaging
        else {
            unreachable!("the practical config gossips locally")
        };
        let cap = ((max_exchanges_factor * (m * m) as f64).ceil() as u64).max(16);
        let attempts = cap.div_ceil(m as u64) * m as u64;
        let mut reference = ChaCha8Rng::seed_from_u64(18);
        for _ in 0..attempts {
            let _ = reference.gen_range(0..m);
        }
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn activation_adapter_rejects_bad_epsilon() {
        let g = graph(128, 23);
        let values = vec![0.0; g.len()];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(RoundBasedActivation::new(
                &g,
                values.clone(),
                RoundBasedConfig::idealized(g.len()),
                bad
            )
            .is_err());
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn run_until_rejects_bad_epsilon() {
        let g = graph(128, 15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let values = vec![0.0; g.len()];
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let _ = gossip.run_until(0.0, &mut rng);
    }
}
