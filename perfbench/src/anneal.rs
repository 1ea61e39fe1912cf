//! `anneal-ami49`: the delta move loop of [`Annealer`]
//! ([`Annealer::resume_delta`]) on ami49 with the Irregular-Grid
//! congestion term (`Weights::routability()`).
//!
//! One op is one SA move. A forwarding [`Probe`] around the
//! `FloorplanProblem` marks the start of every move, so each move is
//! timed on its own with one clock read.
//!
//! A run is several short anneals, each with its own RNG stream derived
//! from the workload seed, so that a run's figures average over several
//! trajectories rather than hang on one. The anneals share one untimed
//! initial-temperature estimate, then each one's first moves are run
//! [`REPEATS`] times from the checkpoint at step 0. Resuming is
//! bit-identical, so every repeat makes the same moves; a move's time is
//! its fastest repeat, which leaves out the host's slow phases.
//!
//! With tracing on, the probe times the calls into the floorplanner on
//! every other move and leaves the moves between untouched, so traced and
//! untraced moves share the host's fast and slow phases. Right after each
//! move it replays the move through the public stage functions of
//! `floorplan`, `netlist` and `core` on a replica that follows the run's
//! decisions; the replay's time is taken out of the move's interval.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use irgrid::anneal::{Annealer, Checkpoint, DeltaProblem, Problem, RunControl, Schedule};
use irgrid::congestion::{
    CongestionSession, DeltaCongestion, DeltaCongestionSession, IrregularGridModel,
    RetainedCongestion,
};
use irgrid::floorplan::{
    net_segments, Decomposition, FloorplanRepr, PinPlacer, Placement, PolishExpr,
};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::netlist::Circuit;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::layers::Layers;
use crate::stats::{json_number, Samples, Tally};
use crate::{Config, Outcome};

type Floorplanner<'c> = FloorplanProblem<'c, IrregularGridModel>;
type Segments = Vec<(Point, Point)>;

/// Seconds of `--seconds` per anneal, which sets the number of anneals.
const SECONDS_PER_CHAIN: f64 = 3.33;
/// Untimed moves at the start of each anneal, which fill the fresh delta
/// session's caches.
const WARM_MOVES: usize = 5;
/// Timed moves of each anneal, which follow the warm moves.
const CHAIN_MOVES: usize = 60;
/// How many times the moves of each anneal are run.
const REPEATS: usize = 5;

/// The schedule of `repro table1`'s standard mode.
fn table1_schedule() -> Schedule {
    Schedule {
        moves_per_temperature: 120,
        cooling: 0.88,
        max_temperatures: 100,
        ..Schedule::default()
    }
}

/// Whether the traced run times the calls of loop move `index`.
fn traced(index: usize) -> bool {
    index.is_multiple_of(2)
}

/// Stage times of one replayed move and the work it did.
#[derive(Debug, Default, Clone, Copy)]
struct StageTimes {
    perturb: Duration,
    pack: Duration,
    diff: Duration,
    decompose: Duration,
    /// The core delta session's `propose`.
    core_propose: Duration,
    /// The core delta session's `commit` or `undo`, as the run decided.
    core_settle: Duration,
    changed_modules: usize,
    nets: usize,
    segments: usize,
}

/// One loop move as the traced run saw it.
#[derive(Debug, Default, Clone, Copy)]
struct MoveRecord {
    traced: bool,
    /// Time in the floorplanner's `propose`.
    propose: Duration,
    /// Time in its `commit` or `undo`.
    settle: Duration,
    kept: bool,
    /// Tracer time inside the move's interval, not part of the move.
    excluded: Duration,
    stages: StageTimes,
}

/// A copy of the floorplanner's move pipeline built from the public
/// stage functions, kept on the run's trajectory.
struct Replica<'c> {
    circuit: &'c Circuit,
    placer: PinPlacer,
    model: IrregularGridModel,
    module_nets: Vec<Vec<usize>>,
    committed: PolishExpr,
    placement: Placement,
    nets: Vec<Segments>,
    session: <IrregularGridModel as DeltaCongestion>::DeltaSession,
    rng: ChaCha8Rng,
}

fn decompose(circuit: &Circuit, placer: &PinPlacer, placement: &Placement, net: usize) -> Segments {
    let members: Vec<Rect> = circuit.nets()[net]
        .pins()
        .iter()
        .map(|&m| placement.module_rect(m))
        .collect();
    net_segments(&placer.place_net(&members), Decomposition::Mst)
}

fn decompose_all(circuit: &Circuit, placer: &PinPlacer, placement: &Placement) -> Vec<Segments> {
    (0..circuit.nets().len())
        .map(|n| decompose(circuit, placer, placement, n))
        .collect()
}

impl<'c> Replica<'c> {
    fn new(fixture: &'c Fixture) -> Replica<'c> {
        let circuit = &fixture.circuit;
        let placer = PinPlacer::new(fixture.pitch);
        let mut module_nets = vec![Vec::new(); circuit.modules().len()];
        for (n, net) in circuit.nets().iter().enumerate() {
            for &m in net.pins() {
                module_nets[m.index()].push(n);
            }
        }
        let committed = PolishExpr::initial(circuit.modules().len());
        let placement = committed.place(circuit);
        let nets = decompose_all(circuit, &placer, &placement);
        let model = IrregularGridModel::new(fixture.pitch);
        let session = model.delta_session();
        Replica {
            circuit,
            placer,
            model,
            module_nets,
            committed,
            placement,
            nets,
            session,
            rng: ChaCha8Rng::seed_from_u64(0x7ace),
        }
    }

    /// Starts over at `state`, as the run's `rebase` does.
    fn rebase(&mut self, state: &PolishExpr) {
        self.committed = state.clone();
        self.placement = state.place(self.circuit);
        self.nets = decompose_all(self.circuit, &self.placer, &self.placement);
        self.session = self.model.delta_session();
        let _ = self
            .session
            .rebase(&self.placement.chip(), &self.nets.concat());
    }

    /// Replays a move to `state` through perturb, pack, placement diff,
    /// per-net re-decomposition and the core session's `propose`, then
    /// `commit` or `undo` as the run decided. Stage times are taken when
    /// `timed`; an untimed rejected move leaves the replica as it is.
    fn replay(&mut self, state: &PolishExpr, kept: bool, timed: bool) -> StageTimes {
        let mut t = StageTimes::default();
        if !timed && !kept {
            return t;
        }
        if timed {
            // The perturbation itself, on a copy with the replica's RNG.
            let mut copy = self.committed.clone();
            let start = Instant::now();
            FloorplanRepr::perturb(&mut copy, &mut self.rng);
            t.perturb = start.elapsed();
            std::hint::black_box(&copy);
        }
        let start = Instant::now();
        let next = state.place(self.circuit);
        t.pack = start.elapsed();

        let start = Instant::now();
        let changed = self.placement.changed_modules(&next);
        t.diff = start.elapsed();

        let mut touched: Vec<usize> = changed
            .iter()
            .flat_map(|&m| self.module_nets[m].iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut pending = self.nets.clone();
        let start = Instant::now();
        for &n in &touched {
            pending[n] = decompose(self.circuit, &self.placer, &next, n);
        }
        t.decompose = start.elapsed();

        let segments = pending.concat();
        let start = Instant::now();
        std::hint::black_box(self.session.propose(&next.chip(), &segments));
        t.core_propose = start.elapsed();

        let start = Instant::now();
        if kept {
            self.session.commit();
        } else {
            std::hint::black_box(self.session.undo());
        }
        t.core_settle = start.elapsed();
        if kept {
            self.committed = state.clone();
            self.placement = next;
            self.nets = pending;
        }
        t.changed_modules = changed.len();
        t.nets = touched.len();
        t.segments = segments.len();
        t
    }
}

/// What the probe keeps when tracing.
struct Tracer<'c> {
    /// One record per loop move.
    records: Vec<MoveRecord>,
    /// The proposed state of the move in flight.
    proposed: Option<PolishExpr>,
    replica: Replica<'c>,
}

/// A forwarding wrapper around a [`FloorplanProblem`].
struct Probe<'p, 'c> {
    inner: &'p Floorplanner<'c>,
    /// Start of every loop move.
    marks: RefCell<Vec<Instant>>,
    /// The cost of every proposal, to check that repeats agree.
    costs: RefCell<Vec<f64>>,
    /// Every `check_every`-th proposed state with its cost, while
    /// `sampling`, for the output check after the clocks stop.
    checks: RefCell<Vec<(PolishExpr, f64)>>,
    check_every: usize,
    sampling: Cell<bool>,
    /// `Some` when tracing.
    tracer: Option<RefCell<Tracer<'c>>>,
}

/// Runs `call`, timed when `timed`.
fn time<T>(timed: bool, call: impl FnOnce() -> T) -> (T, Duration) {
    if !timed {
        return (call(), Duration::ZERO);
    }
    let start = Instant::now();
    let value = call();
    (value, start.elapsed())
}

impl Probe<'_, '_> {
    /// `commit` (`kept`) or `undo` through `call`, then the replay.
    fn settle(&self, kept: bool, call: impl FnOnce()) {
        let Some(tracer) = &self.tracer else {
            return call();
        };
        let traced = tracer.borrow().records.last().is_some_and(|r| r.traced);
        let ((), settle) = time(traced, call);
        let start = Instant::now();
        let mut tracer = tracer.borrow_mut();
        let state = tracer
            .proposed
            .take()
            .expect("the engine proposes before it commits or undoes");
        let stages = tracer.replica.replay(&state, kept, traced);
        let record = tracer.records.last_mut().expect("a record per propose");
        record.settle = settle;
        record.kept = kept;
        record.stages = stages;
        record.excluded += start.elapsed();
    }
}

/// The delta loop calls `cost` and `perturb` only to estimate its initial
/// temperature; its moves go through [`DeltaProblem`].
impl Problem for Probe<'_, '_> {
    type State = PolishExpr;

    fn initial_state(&self) -> PolishExpr {
        self.inner.initial_state()
    }

    fn cost(&self, state: &PolishExpr) -> f64 {
        self.inner.cost(state)
    }

    fn perturb<G: rand::Rng>(&self, state: &mut PolishExpr, rng: &mut G) {
        self.inner.perturb(state, rng);
    }
}

impl DeltaProblem for Probe<'_, '_> {
    fn rebase(&self, state: &PolishExpr) -> f64 {
        let cost = self.inner.rebase(state);
        // Before the run's first mark, so it lies inside no move.
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().replica.rebase(state);
        }
        cost
    }

    fn propose<G: rand::Rng>(&self, state: &mut PolishExpr, rng: &mut G) -> f64 {
        let index = {
            let mut marks = self.marks.borrow_mut();
            marks.push(Instant::now());
            marks.len() - 1
        };
        let (cost, propose) = time(traced(index) && self.tracer.is_some(), || {
            self.inner.propose(state, rng)
        });
        if let Some(tracer) = &self.tracer {
            let start = Instant::now();
            let mut tracer = tracer.borrow_mut();
            tracer.proposed = Some(state.clone());
            tracer.records.push(MoveRecord {
                traced: traced(index),
                propose,
                excluded: start.elapsed(),
                ..MoveRecord::default()
            });
        }
        if self.sampling.get() && index.is_multiple_of(self.check_every) {
            self.checks.borrow_mut().push((state.clone(), cost));
        }
        self.costs.borrow_mut().push(cost);
        cost
    }

    fn commit(&self) {
        self.settle(true, || self.inner.commit());
    }

    fn undo(&self, state: &mut PolishExpr) {
        self.settle(false, || self.inner.undo(state));
    }
}

/// The circuit and the set-up that every run repeats.
struct Fixture {
    circuit: Circuit,
    pitch: Um,
}

impl Fixture {
    fn new() -> Fixture {
        let bench = McncCircuit::Ami49;
        Fixture {
            circuit: bench.circuit(),
            pitch: Um(bench.paper_grid_pitch_um()),
        }
    }

    fn problem(&self) -> Floorplanner<'_> {
        let model = IrregularGridModel::new(self.pitch);
        FloorplanProblem::new(
            &self.circuit,
            self.pitch,
            Weights::routability(),
            Some(model),
        )
    }
}

/// One pass over the workload's moves.
struct Pass {
    /// Per-op latencies of the timed moves.
    samples: Samples,
    /// Wall time of the timed moves.
    wall: Duration,
    /// Mean over the anneals of each one's best cost.
    best_cost: f64,
    /// Accepted and proposed moves of the timed segments (first repeat).
    accepted: usize,
    moves: usize,
    /// Timed moves the pass set out to make.
    attempted: usize,
    /// Median move time of each anneal.
    chain_p50: Vec<f64>,
    /// Ops that never ran, repeats that disagreed, or failed checks.
    failed: u64,
    /// Tracing only: each timed move's time with its record.
    timed: Vec<(Duration, MoveRecord)>,
    /// Tracing only: the replica's final committed chip and segments.
    replica_end: Option<(Rect, Segments)>,
}

/// The number of anneals in a run.
fn chains(config: &Config) -> usize {
    if config.tiny {
        return 1;
    }
    ((config.seconds as f64 / SECONDS_PER_CHAIN).round() as usize).max(1)
}

/// Runs the workload's anneals: standard-schedule anneals from one
/// step-0 checkpoint, each with an RNG stream derived from the workload
/// seed. The probe resumes each anneal for [`WARM_MOVES`] untimed and
/// [`CHAIN_MOVES`] timed moves, [`REPEATS`] times (once when tracing,
/// whose replay already doubles each move). A move's time is its fastest
/// repeat. All anneals start from the same initial floorplan and their
/// first moves are timed, before their trajectories drift apart: a run's
/// move cost then depends little on the seed. Set-up is repeated once
/// per round of repeats, into `setups`.
fn pass(
    fixture: &Fixture,
    problem: &Floorplanner<'_>,
    config: &Config,
    setups: &mut Vec<f64>,
) -> Pass {
    let chains = chains(config);
    let (warm, moves) = if config.tiny {
        (2, 24)
    } else {
        (WARM_MOVES, CHAIN_MOVES)
    };
    let repeats = if config.trace {
        1
    } else if config.tiny {
        2
    } else {
        REPEATS
    };
    let ops = chains * moves;
    let probe = Probe {
        inner: problem,
        marks: RefCell::new(Vec::with_capacity((ops + chains * warm) * repeats)),
        costs: RefCell::new(Vec::with_capacity((ops + chains * warm) * repeats)),
        checks: RefCell::new(Vec::new()),
        check_every: (ops / 32).max(1),
        sampling: Cell::new(false),
        tracer: config.trace.then(|| {
            RefCell::new(Tracer {
                records: Vec::new(),
                proposed: None,
                replica: Replica::new(fixture),
            })
        }),
    };
    let annealer = Annealer::new(table1_schedule());
    let mut best_costs = Vec::new();
    let mut best_states = Vec::new();
    let (mut accepted, mut proposed_moves) = (0usize, 0usize);
    let mut samples = Samples::with_capacity(ops);
    let mut wall = Duration::ZERO;
    let mut timed = Vec::new();
    let mut failed = 0u64;
    // One initial-temperature estimate, stopped at the step-0 boundary
    // checkpoint, starts every anneal; each anneal gets its own RNG
    // stream. The repeats then go round-robin over the anneals, so the
    // repeats of one move lie seconds apart and a slow host phase rarely
    // covers all of them.
    let mut base = None;
    let estimated = annealer.run_with_checkpoints_delta(
        problem,
        config.seed,
        &RunControl::unlimited().with_step_budget(0),
        |checkpoint| base = Some(checkpoint.clone()),
    );
    let starts: Vec<Checkpoint<PolishExpr>> = match (estimated, base) {
        (Ok(_), Some(base)) => (0..chains as u64)
            .map(|chain| Checkpoint {
                rng: ChaCha8Rng::seed_from_u64(config.seed.wrapping_mul(1_000).wrapping_add(chain)),
                ..base.clone()
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut fastest = vec![vec![Duration::MAX; moves]; starts.len()];
    let mut first: Vec<Option<(Vec<f64>, f64)>> = vec![None; starts.len()];
    for _ in 0..repeats {
        // Set-up again before each round, so that `setup_s`, the median,
        // spans the run's host phases like the moves do.
        if !config.trace {
            let start = Instant::now();
            let fixture = Fixture::new();
            std::hint::black_box(fixture.problem());
            setups.push(start.elapsed().as_secs_f64());
        }
        for (c, start) in starts.iter().enumerate() {
            let control = RunControl::unlimited().with_move_budget((warm + moves) as u64);
            let from = probe.marks.borrow().len();
            probe.sampling.set(first[c].is_none());
            let result = annealer.resume_delta(&probe, start.clone(), &control);
            let end = Instant::now();
            let Ok(result) = result else {
                failed += 1;
                continue;
            };
            // A move lasts from its mark to the next, the last move to the
            // run's end, less the tracer's time inside it.
            let marks = probe.marks.borrow();
            let tracer = probe.tracer.as_ref().map(RefCell::borrow);
            let proposed = marks.len() - from;
            let done = proposed.saturating_sub(warm).min(moves);
            for (i, slot) in fastest[c].iter_mut().enumerate().take(done) {
                let g = from + warm + i;
                let next = marks.get(g + 1).copied().unwrap_or(end);
                let record = tracer.as_ref().map(|t| t.records[g]);
                let elapsed = next - marks[g] - record.map_or(Duration::ZERO, |r| r.excluded);
                *slot = (*slot).min(elapsed);
                timed.extend(record.map(|r| (elapsed, r)));
            }
            drop((marks, tracer));
            // Every repeat must make the same moves at the same costs.
            let costs = probe.costs.borrow()[from..].to_vec();
            match &first[c] {
                None => {
                    accepted += result.stats.accepted;
                    proposed_moves += proposed;
                    best_costs.push(result.best_cost);
                    best_states.push((result.best, result.best_cost));
                    first[c] = Some((costs, result.best_cost));
                }
                Some((first_costs, first_best)) => {
                    let same = costs.len() == first_costs.len()
                        && costs
                            .iter()
                            .zip(first_costs)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                        && result.best_cost.to_bits() == first_best.to_bits();
                    failed += u64::from(!same);
                }
            }
        }
    }
    let mut chain_p50 = Vec::new();
    for chain in &fastest {
        let mut own = Samples::with_capacity(chain.len());
        for &elapsed in chain.iter().filter(|&&d| d != Duration::MAX) {
            wall += elapsed;
            samples.push(elapsed);
            own.push(elapsed);
        }
        chain_p50.push(own.median_ms());
    }
    failed += ops.saturating_sub(samples.len()) as u64;

    // Output checks, after the clocks stop: sampled proposal costs and
    // each best state's cost against `rebase` of the same state, which
    // starts a fresh delta session.
    for (state, cost) in probe.checks.borrow().iter() {
        if problem.rebase(state).to_bits() != cost.to_bits() || !cost.is_finite() {
            failed += 1;
        }
    }
    for (state, cost) in &best_states {
        if problem.rebase(state).to_bits() != cost.to_bits() {
            failed += 1;
        }
    }
    let replica_end = probe.tracer.map(|t| {
        let replica = t.into_inner().replica;
        (replica.placement.chip(), replica.nets.concat())
    });
    Pass {
        samples,
        wall,
        best_cost: crate::stats::mean(&best_costs),
        accepted,
        moves: proposed_moves,
        attempted: ops,
        chain_p50,
        failed,
        timed,
        replica_end,
    }
}

/// Mean ms of `k` full evaluations on one retained session.
fn time_full_evaluations(
    model: &IrregularGridModel,
    chip: &Rect,
    segments: &[(Point, Point)],
    k: usize,
) -> f64 {
    let mut session = model.session();
    let _ = CongestionSession::evaluate(&mut session, chip, segments);
    let start = Instant::now();
    for _ in 0..k {
        std::hint::black_box(CongestionSession::evaluate(&mut session, chip, segments));
    }
    start.elapsed().as_secs_f64() * 1e3 / k as f64
}

pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::new();
    let start = Instant::now();
    let fixture = Fixture::new();
    let problem = fixture.problem();
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let pass = pass(&fixture, &problem, config, &mut setups);
    outcome.tally = Tally {
        attempted: pass.attempted as u64,
        failed: pass.failed,
    };
    outcome.end_to_end(
        crate::stats::median(&setups),
        &pass.samples,
        pass.wall,
        pass.best_cost,
    );
    outcome.diag("moves", pass.moves.to_string());
    outcome.diag("accepted", pass.accepted.to_string());
    let chain_p50: Vec<String> = pass.chain_p50.iter().map(|&ms| json_number(ms)).collect();
    outcome.diag("chain_p50_ms", format!("[{}]", chain_p50.join(", ")));
    if config.trace {
        per_layer(&fixture, &pass, &mut outcome.per_layer);
    }
    outcome
}

/// Mean of `f` over `records`, in µs.
fn mean_us<'a>(
    records: impl Iterator<Item = &'a (Duration, MoveRecord)>,
    f: impl Fn(&(Duration, MoveRecord)) -> Duration,
) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for r in records {
        sum += f(r).as_secs_f64() * 1e6;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-layer metrics of the traced run, from its timed moves. Stage
/// times are means per traced move so that they add up; a self time is a
/// span minus the stages it calls. The stage sum clamps each self time at
/// zero, so a replay that over-counts a stage shows as a sum above the
/// untraced move time; the untraced moves are the ones between the
/// traced ones.
fn per_layer(fixture: &Fixture, pass: &Pass, out: &mut Layers) {
    let traced = || pass.timed.iter().filter(|(_, r)| r.traced);
    let kept = || traced().filter(|(_, r)| r.kept);
    let undone = || traced().filter(|(_, r)| !r.kept);
    let n = traced().count().max(1) as f64;
    let op_us = mean_us(traced(), |r| r.0);
    let untraced_us = mean_us(pass.timed.iter().filter(|(_, r)| !r.traced), |r| r.0);
    let stage = |f: fn(&StageTimes) -> Duration| mean_us(traced(), |r| f(&r.1.stages));
    let count =
        |f: fn(&StageTimes) -> usize| traced().map(|r| f(&r.1.stages)).sum::<usize>() as f64 / n;

    let propose_us = mean_us(traced(), |r| r.1.propose);
    let commit_us = mean_us(kept(), |r| r.1.settle);
    let undo_us = mean_us(undone(), |r| r.1.settle);
    let commit_share = kept().count() as f64 / n;
    let undo_share = undone().count() as f64 / n;
    let perturb_us = stage(|s| s.perturb);
    let pack_us = stage(|s| s.pack);
    let diff_us = stage(|s| s.diff);
    let decompose_us = stage(|s| s.decompose);
    let core_propose_us = stage(|s| s.core_propose);
    let core_commit_us = mean_us(kept(), |r| r.1.stages.core_settle);
    let core_undo_us = mean_us(undone(), |r| r.1.stages.core_settle);
    let inner = perturb_us + pack_us + diff_us + decompose_us + core_propose_us;
    let engine_self = op_us - propose_us - commit_share * commit_us - undo_share * undo_us;
    let propose_self = propose_us - inner;
    let commit_self = commit_us - core_commit_us;
    let undo_self = undo_us - core_undo_us;
    let stage_sum = engine_self.max(0.0)
        + inner
        + propose_self.max(0.0)
        + commit_share * (core_commit_us + commit_self.max(0.0))
        + undo_share * (core_undo_us + undo_self.max(0.0));

    out.set("core.delta_propose_ms", core_propose_us / 1e3);
    out.set("core.delta_commit_us", core_commit_us);
    out.set("core.delta_undo_us", core_undo_us);
    out.set("floorplan.perturb_us", perturb_us);
    out.set("floorplan.pack_us", pack_us);
    out.set("floorplan.diff_us", diff_us);
    out.set("netlist.decompose_us", decompose_us);
    out.set("anneal.engine_self_us", engine_self);
    out.set("irgrid.propose_us", propose_us);
    out.set("irgrid.commit_us", commit_us);
    out.set("irgrid.undo_us", undo_us);
    out.set("irgrid.propose_self_us", propose_self);
    out.set("irgrid.commit_self_us", commit_self);
    out.set("irgrid.undo_self_us", undo_self);
    out.set(
        "anneal.accept_ratio",
        pass.accepted as f64 / pass.moves.max(1) as f64,
    );
    out.set("floorplan.changed_modules", count(|s| s.changed_modules));
    out.set("netlist.nets_redecomposed", count(|s| s.nets));
    out.set("core.segments", count(|s| s.segments));
    // The full (Simpson) evaluator this workload calls in calibration and
    // the initial-temperature estimate, on the replica's final state.
    let (chip, segments) = pass
        .replica_end
        .as_ref()
        .expect("the traced pass keeps its replica");
    let model = IrregularGridModel::new(fixture.pitch);
    let map = model.congestion_map(chip, segments);
    out.set("core.ir_cells", map.ir_cell_count() as f64);
    out.set("core.x_cuts", map.x_cuts().len() as f64);
    out.set("core.y_cuts", map.y_cuts().len() as f64);
    out.set(
        "core.evaluate_ms",
        time_full_evaluations(&model, chip, segments, 8),
    );
    out.set("trace.overhead_ratio", op_us / untraced_us);
    out.set("trace.stage_sum_ratio", stage_sum / untraced_us);
}
