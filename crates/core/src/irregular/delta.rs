//! Incremental (delta) evaluation of the Irregular-Grid model.
//!
//! The retained [`CongestionEvaluator`](super::CongestionEvaluator)
//! rebuilds the whole map per call: every range is re-scored even though
//! a simulated-annealing move perturbs one or two modules. The expensive
//! part of a rebuild is not the bookkeeping — cut merging and totals
//! accumulation are microseconds — it is the per-range *scoring* (Simpson
//! integration per IR cell). [`IrDeltaEvaluator`] makes scoring
//! incremental:
//!
//! * **Relative-signature block memo.** A range's scored block (its
//!   per-cell probabilities over the snapped span) depends only on the
//!   span's *shape*: the net type and the cut offsets relative to the
//!   span origin. Translating a range — the common case under repacking,
//!   where whole subtrees shift — reuses its block verbatim. Blocks are
//!   memoized in a `BTreeMap` (deterministic iteration; `HashMap` is
//!   banned by lint rule D1) keyed by that signature, as `Arc<[i64]>` of
//!   **Q32-quantized** probabilities.
//! * **Recency window.** Reuse is short-ranged — nearly all memo hits go
//!   to blocks used a few proposals earlier — while an ami49 block is
//!   ≈1 040 IR cells × 8 B ≈ 8 KB and a run misses ≈300 of them per
//!   move (≈20 k entries per 70 moves). Each entry is therefore stamped
//!   with the proposal that last used it, and every [`MEMO_WINDOW`]
//!   proposals a deterministic `retain` drops the entries not used in
//!   the last `MEMO_WINDOW` — the memo never holds more than two
//!   windows' worth of blocks. (The former 65 536-entry clear-on-full
//!   memo grew a single 6 360-move ami49 anneal to 426 MB peak RSS; the
//!   window holds it to 54 MB.)
//! * **Integer totals.** Per-cell totals are `i64` sums of quantized
//!   blocks (see [`crate::num::quantize_probability`]). Integer addition
//!   commutes, so incremental subtract/add updates are bit-identical to
//!   a from-scratch rebuild — the exactness the delta API demands.
//! * **Double-buffered commit/undo.** The session keeps a *committed*
//!   and a *proposed* snapshot. `commit` is a pointer swap; `undo` drops
//!   the proposal in O(1). No journal, no replay.
//! * **Cheap re-merge.** Cutlines are global state — one moved range can
//!   cascade merges arbitrarily far — so each proposal re-derives the
//!   merged cut set (O(R log R) over ~1400 raw cuts, microseconds).
//!   When the merged cuts come out unchanged, old contributions are
//!   subtracted and new ones added only for the ranges that actually
//!   moved; when the cut set shifts, all (mostly memo-hit) blocks are
//!   re-accumulated — still integer adds, still exact.
//!
//! * **Closed-form exit integrals.** Block and memo keys change
//!   whenever the cut pattern does — which under annealing is *every
//!   move* — so the block memo alone would degenerate to full Simpson
//!   scoring per proposal (and the cut patterns a real run produces
//!   never recur, so no cache keyed on them can help). Instead the
//!   Theorem-1 exit integrals are evaluated in closed form: the
//!   variable-variance normal-CDF antiderivative
//!   [`ExitCdf`](super::approx::ExitCdf) turns every cell of every cut
//!   pattern into two `erf` evaluations, O(cells) per block with no
//!   quadrature loop at all. A missed block is scored by one fused
//!   kernel straight into Q32 integers: cell boundaries outside an exit
//!   line's saturation window skip the `erf` entirely (about a third
//!   of them on ami49), and the pin override, clamp and quantization
//!   run in the same pass that finishes each column.
//!
//! Scoring structure (corridors, the `g1 + g2` exact threshold,
//! Theorem-1 row/column exit sweeps, pin override, clamp) is the
//! retained evaluator's. Cell values are not bit-identical to the
//! Simpson-integrated `f64` pipeline — `ExitCdf` and Simpson are two
//! quadratures of the same Theorem-1 density, agreeing to well inside
//! the normal approximation's own deviation from exact route counts —
//! but they are *pure functions of the floorplan*, so a fresh session
//! reproduces a warm session's map bit for bit, which is the exactness
//! the delta API contracts.
//!
//! The evaluator is serial: `IrregularGridModel::with_threads` is
//! ignored here (the scoring work a proposal leaves after memoization is
//! too small to fan out).

use std::collections::BTreeMap;
use std::sync::Arc;

use irgrid_geom::{Point, Rect};

use crate::num::{dequantize_total, quantize_probability, LnFactorials, PROBABILITY_FRACTION_BITS};
use crate::routing::{NetType, RoutingRange};
use crate::score::top_area_fraction_mean_in_place;
use crate::UnitGrid;

use super::approx::{ExitCdf, ExitKind, ExitProfile};
use super::cutlines::{merged_cuts_into, snap_span};
use super::exact::block_probability_exact;
use super::{Evaluator, IrCongestionMap, IrregularGridModel};

/// Signature tag for corridor ranges (all-ones block; only the span's
/// cell dimensions matter).
const KIND_CORRIDOR: i64 = 2;

/// Proposals between memo sweeps, and the age in proposals past which a
/// block not used since is dropped by a sweep. Picked by measurement on
/// ami49 delta anneals — the change in blocks scored per proposal
/// against the former 65 536-entry clear-on-full memo, and peak RSS:
///
/// | window | 11 × 65-move sessions | one 6 360-move session |
/// |-------:|----------------------:|-----------------------:|
/// | 4      | +1.2 %, 28 MB         | +18 % (cells +6.9 %), 32 MB |
/// | 8      | +0.4 %, 49 MB         | +13 % (cells +5.2 %), 54 MB |
/// | 16     | +0.1 %, 93 MB         | +8.5 % (cells +3.5 %), 94 MB |
/// | old    | 0, 177 MB             | 0, 426 MB              |
///
/// Not a knob: results never depend on it, only the work done.
const MEMO_WINDOW: u64 = 8;

/// Q32 probability 1 (pin cells, corridors).
const Q32_ONE: i64 = 1 << PROBABILITY_FRACTION_BITS;

fn span_len(lo: usize, hi: usize) -> i64 {
    (hi - lo) as i64 // irgrid-lint: allow(C1): IR spans hold < 2^32 cut intervals, far inside i64
}

fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// One memoized block and the proposal that last used it.
#[derive(Debug)]
struct MemoEntry {
    block: Arc<[i64]>,
    last_used: u64,
}

/// Deterministic work counters of an [`IrDeltaEvaluator`], read through
/// [`IrDeltaEvaluator::work_counters`]. Plain integers, no clocks: the
/// same sequence of calls yields the same counters on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaWorkCounters {
    /// Floorplans built: every `rebase` and every `propose`.
    pub proposals: u64,
    /// Ranges whose block was found in the memo.
    pub memo_hits: u64,
    /// Ranges whose block was built on a memo miss (corridors included).
    pub blocks_scored: u64,
    /// IR cells of the blocks built on a miss.
    pub cells_scored: u64,
    /// Blocks the memo holds now.
    pub memo_entries: u64,
    /// Blocks dropped by the recency window so far.
    pub memo_evicted: u64,
}

/// FNV-1a over a snapshot's exact cut vectors, Q32 totals, and cost
/// bit pattern — the bit-identity contract collapsed to 64 bits.
fn snapshot_fingerprint(snap: &Snapshot) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(snap.valid).to_le_bytes());
    eat(snap.cost.to_bits().to_le_bytes());
    for slice in [&snap.x_cuts, &snap.y_cuts, &snap.totals] {
        eat(u64::try_from(slice.len()).unwrap_or(u64::MAX).to_le_bytes());
        for &value in slice {
            eat(value.to_le_bytes());
        }
    }
    hash
}

/// One fully evaluated floorplan: merged cuts, per-range snapped spans
/// and scored blocks, integer per-cell totals, and the resulting cost.
#[derive(Debug, Default)]
struct Snapshot {
    x_cuts: Vec<i64>,
    y_cuts: Vec<i64>,
    /// Row-major Q32 totals, `(x_cuts.len() - 1) × (y_cuts.len() - 1)`.
    totals: Vec<i64>,
    ranges: Vec<RoutingRange>,
    /// Per-range snapped span `(ix1, ix2, iy1, iy2)` into the cut vectors.
    spans: Vec<(usize, usize, usize, usize)>,
    /// Per-range scored block over its span (shared with the memo).
    blocks: Vec<Arc<[i64]>>,
    cost: f64,
    valid: bool,
}

/// The incremental Irregular-Grid evaluation session — the
/// [`DeltaCongestionSession`](crate::DeltaCongestionSession)
/// implementation minted by
/// [`IrregularGridModel::delta_session`](crate::DeltaCongestion::delta_session).
///
/// # Examples
///
/// ```
/// use irgrid_core::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600));
/// let a = vec![(Point::new(Um(90), Um(90)), Point::new(Um(510), Um(510)))];
/// let b = vec![(Point::new(Um(90), Um(510)), Point::new(Um(510), Um(90)))];
/// let model = IrregularGridModel::new(Um(30));
///
/// let mut session = model.delta_session();
/// let base = session.rebase(&chip, &a);
/// let proposed = session.propose(&chip, &b);
/// assert_eq!(session.undo(), base); // rejected: committed state kept
/// assert_eq!(session.propose(&chip, &b), proposed);
/// session.commit();
/// // Bit-identical to a from-scratch build of the same floorplan.
/// assert_eq!(model.delta_session().rebase(&chip, &b), proposed);
/// ```
#[derive(Debug)]
pub struct IrDeltaEvaluator {
    model: IrregularGridModel,
    lf: LnFactorials,
    memo: BTreeMap<Vec<i64>, MemoEntry>,
    committed: Snapshot,
    proposed: Snapshot,
    pending: bool,
    /// `memo_entries` is filled in on read.
    counters: DeltaWorkCounters,
    // Reusable scratch (steady-state proposals allocate only on memo miss).
    raw_cuts: Vec<i64>,
    key: Vec<i64>,
    xs: Vec<i64>,
    ys: Vec<i64>,
    fblock: Vec<f64>,
    qblock: Vec<i64>,
    pairs: Vec<(f64, f64)>,
}

impl IrDeltaEvaluator {
    /// Creates a session with no committed state; the first
    /// [`rebase`](Self::rebase) (or `propose`) performs a full build.
    #[must_use]
    pub fn new(model: IrregularGridModel) -> IrDeltaEvaluator {
        IrDeltaEvaluator {
            model,
            lf: LnFactorials::up_to(0),
            memo: BTreeMap::new(),
            committed: Snapshot::default(),
            proposed: Snapshot::default(),
            pending: false,
            counters: DeltaWorkCounters::default(),
            raw_cuts: Vec::new(),
            key: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            fblock: Vec::new(),
            qblock: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// The session's work so far: proposals built, memo hits, blocks and
    /// cells scored, live and evicted memo entries.
    #[must_use]
    pub fn work_counters(&self) -> DeltaWorkCounters {
        DeltaWorkCounters {
            memo_entries: count(self.memo.len()),
            ..self.counters
        }
    }

    /// The model this session was built from.
    #[must_use]
    pub fn model(&self) -> &IrregularGridModel {
        &self.model
    }

    /// The committed floorplan's cost (0 before the first rebase).
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.committed.cost
    }

    /// The committed Q32 per-cell totals (row-major), with their cut
    /// vectors — the exact integers the bit-identity contract is stated
    /// over.
    #[must_use]
    pub fn quantized(&self) -> (&[i64], &[i64], &[i64]) {
        (
            &self.committed.x_cuts,
            &self.committed.y_cuts,
            &self.committed.totals,
        )
    }

    /// Materializes the committed state as an [`IrCongestionMap`]
    /// (dequantized totals; exact, since Q32 totals stay below 2⁵³).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been committed yet.
    #[must_use]
    pub fn congestion_map(&self) -> IrCongestionMap {
        assert!(
            self.committed.valid,
            "congestion_map before the first rebase/commit"
        );
        IrCongestionMap {
            pitch: self.model.pitch,
            x_cuts: self.committed.x_cuts.clone(),
            y_cuts: self.committed.y_cuts.clone(),
            totals: self
                .committed
                .totals
                .iter()
                .map(|&t| dequantize_total(t))
                .collect(),
            top_fraction: f64::from(self.model.top_fraction_permille) / 1000.0,
        }
    }

    /// Whether a committed state exists (i.e. a `rebase` or `commit`
    /// has happened). Before that, [`cost`](Self::cost) is a default 0
    /// and [`committed_fingerprint`](Self::committed_fingerprint) covers
    /// an empty snapshot.
    #[must_use]
    pub fn has_committed(&self) -> bool {
        self.committed.valid
    }

    /// An FNV-1a fingerprint of the committed snapshot: the exact cut
    /// vectors, Q32 totals, and the cost's bit pattern. Two sessions
    /// with equal fingerprints committed bit-identical maps — this is
    /// the hook a checkpointing layer uses to verify that a restored
    /// session replayed to the same state it persisted.
    #[must_use]
    pub fn committed_fingerprint(&self) -> u64 {
        snapshot_fingerprint(&self.committed)
    }

    /// The fingerprint [`committed_fingerprint`](Self::committed_fingerprint)
    /// would report after a [`commit`](crate::DeltaCongestionSession::commit)
    /// of the current proposal. Meaningful only while a proposal is
    /// pending; otherwise it covers whatever the last proposal built.
    /// A checkpointing layer persists this *before* committing so a
    /// restored session can be verified against it.
    #[must_use]
    pub fn proposed_fingerprint(&self) -> u64 {
        snapshot_fingerprint(&self.proposed)
    }

    /// Builds `self.proposed` from the given floorplan and returns its
    /// cost. Uses the committed snapshot only as a subtract/add base
    /// when the merged cut sets coincide — the result is independent of
    /// it either way.
    fn build_proposal(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.counters.proposals += 1;
        let epoch = self.counters.proposals;
        let grid = UnitGrid::new(chip, self.model.pitch);
        let min_gap = if self.model.merge_lines { 2 } else { 1 };

        self.proposed.ranges.clear();
        self.proposed.ranges.extend(
            segments
                .iter()
                .map(|&(a, b)| RoutingRange::from_segment(&grid, a, b)),
        );

        self.raw_cuts.clear();
        for range in &self.proposed.ranges {
            self.raw_cuts.push(range.x0());
            self.raw_cuts.push(range.x0() + range.g1());
        }
        merged_cuts_into(
            grid.cols(),
            &mut self.raw_cuts,
            min_gap,
            &mut self.proposed.x_cuts,
        );
        self.raw_cuts.clear();
        for range in &self.proposed.ranges {
            self.raw_cuts.push(range.y0());
            self.raw_cuts.push(range.y0() + range.g2());
        }
        merged_cuts_into(
            grid.rows(),
            &mut self.raw_cuts,
            min_gap,
            &mut self.proposed.y_cuts,
        );

        let lf_bound = grid.cols() + grid.rows() + 2;
        // irgrid-lint: allow(C1): cols + rows + 2 is positive and far below usize::MAX
        self.lf.ensure_up_to(lf_bound as usize);

        // Per-range snapped spans and (memoized) scored blocks.
        self.proposed.spans.clear();
        self.proposed.blocks.clear();
        for i in 0..self.proposed.ranges.len() {
            let range = self.proposed.ranges[i];
            let (ix1, ix2) = snap_span(&self.proposed.x_cuts, range.x0(), range.x0() + range.g1());
            let (iy1, iy2) = snap_span(&self.proposed.y_cuts, range.y0(), range.y0() + range.g2());
            self.proposed.spans.push((ix1, ix2, iy1, iy2));

            let corridor = range.g1() == 1 || range.g2() == 1;
            self.key.clear();
            if corridor {
                self.key.push(KIND_CORRIDOR);
                self.key.push(span_len(ix1, ix2));
                self.key.push(span_len(iy1, iy2));
            } else {
                self.key.push(match range.net_type() {
                    NetType::TypeI => 0,
                    NetType::TypeII => 1,
                });
                self.key.push(span_len(ix1, ix2));
                let x0 = self.proposed.x_cuts[ix1];
                for j in ix1 + 1..=ix2 {
                    self.key.push(self.proposed.x_cuts[j] - x0);
                }
                let y0 = self.proposed.y_cuts[iy1];
                for j in iy1 + 1..=iy2 {
                    self.key.push(self.proposed.y_cuts[j] - y0);
                }
            }

            let block = if let Some(hit) = self.memo.get_mut(&self.key) {
                hit.last_used = epoch;
                self.counters.memo_hits += 1;
                Arc::clone(&hit.block)
            } else {
                let cells = (ix2 - ix1) * (iy2 - iy1);
                self.counters.blocks_scored += 1;
                self.counters.cells_scored += count(cells);
                let scored: Arc<[i64]> = if corridor {
                    std::iter::repeat(Q32_ONE).take(cells).collect()
                } else {
                    self.xs.clear();
                    self.xs.push(0);
                    let x0 = self.proposed.x_cuts[ix1];
                    for j in ix1 + 1..=ix2 {
                        self.xs.push(self.proposed.x_cuts[j] - x0);
                    }
                    self.ys.clear();
                    self.ys.push(0);
                    let y0 = self.proposed.y_cuts[iy1];
                    for j in iy1 + 1..=iy2 {
                        self.ys.push(self.proposed.y_cuts[j] - y0);
                    }
                    score_block_q32(
                        &self.model,
                        range.net_type(),
                        &self.xs,
                        &self.ys,
                        &self.lf,
                        &mut self.fblock,
                        &mut self.qblock,
                    );
                    Arc::from(self.qblock.as_slice())
                };
                self.memo.insert(
                    self.key.clone(),
                    MemoEntry {
                        block: Arc::clone(&scored),
                        last_used: epoch,
                    },
                );
                scored
            };
            self.proposed.blocks.push(block);
        }
        // Recency window: drop the blocks no proposal of the last window
        // used. Blocks are pure functions of their key, so eviction never
        // changes a result, only re-scores it; the sweep is a pure
        // function of the call sequence, so the counters repeat too.
        if epoch % MEMO_WINDOW == 0 {
            let before = self.memo.len();
            self.memo
                .retain(|_, entry| epoch - entry.last_used < MEMO_WINDOW);
            self.counters.memo_evicted += count(before - self.memo.len());
        }

        // Accumulate integer totals. When the merged cut sets (and the
        // range count) are unchanged, diff against the committed totals:
        // subtract the old block and add the new one for exactly the
        // ranges that moved. Integer adds commute, so this equals the
        // full re-accumulation bit for bit.
        let ir_cols = self.proposed.x_cuts.len() - 1;
        let ir_rows = self.proposed.y_cuts.len() - 1;
        let same_grid = self.committed.valid
            && self.proposed.x_cuts == self.committed.x_cuts
            && self.proposed.y_cuts == self.committed.y_cuts
            && self.proposed.ranges.len() == self.committed.ranges.len();
        self.proposed.totals.clear();
        if same_grid {
            self.proposed
                .totals
                .extend_from_slice(&self.committed.totals);
            for i in 0..self.proposed.ranges.len() {
                if self.proposed.ranges[i] == self.committed.ranges[i] {
                    continue;
                }
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.committed.spans[i],
                    &self.committed.blocks[i],
                    -1,
                );
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.proposed.spans[i],
                    &self.proposed.blocks[i],
                    1,
                );
            }
        } else {
            self.proposed.totals.resize(ir_cols * ir_rows, 0);
            for i in 0..self.proposed.ranges.len() {
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.proposed.spans[i],
                    &self.proposed.blocks[i],
                    1,
                );
            }
        }

        // Cost: identical arithmetic to `IrCongestionMap::cost` over the
        // dequantized densities (dequantization is exact).
        self.pairs.clear();
        for j in 0..ir_rows {
            for i in 0..ir_cols {
                let dx = self.proposed.x_cuts[i + 1] - self.proposed.x_cuts[i];
                let dy = self.proposed.y_cuts[j + 1] - self.proposed.y_cuts[j];
                // irgrid-lint: allow(C1): cell areas are below 2^53, exact in f64
                let area = (dx * dy) as f64;
                self.pairs.push((
                    dequantize_total(self.proposed.totals[j * ir_cols + i]) / area,
                    area,
                ));
            }
        }
        let cost = top_area_fraction_mean_in_place(
            &mut self.pairs,
            f64::from(self.model.top_fraction_permille) / 1000.0,
        );
        self.proposed.cost = cost;
        self.proposed.valid = true;
        cost
    }
}

impl crate::DeltaCongestionSession for IrDeltaEvaluator {
    fn rebase(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let cost = self.build_proposal(chip, segments);
        std::mem::swap(&mut self.committed, &mut self.proposed);
        self.pending = false;
        cost
    }

    fn propose(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let cost = self.build_proposal(chip, segments);
        self.pending = true;
        cost
    }

    fn commit(&mut self) {
        if self.pending {
            std::mem::swap(&mut self.committed, &mut self.proposed);
            self.pending = false;
        }
    }

    fn undo(&mut self) -> f64 {
        self.pending = false;
        self.committed.cost
    }
}

/// Adds (`sign = 1`) or removes (`sign = -1`) one scored block into the
/// row-major totals grid at its snapped span.
fn apply_block(
    totals: &mut [i64],
    ir_cols: usize,
    span: (usize, usize, usize, usize),
    block: &[i64],
    sign: i64,
) {
    let (ix1, ix2, iy1, iy2) = span;
    let ncols = ix2 - ix1;
    for (jy, row) in (iy1..iy2).enumerate() {
        let base = row * ir_cols + ix1;
        let brow = jy * ncols;
        for jx in 0..ncols {
            totals[base + jx] += sign * block[brow + jx];
        }
    }
}

/// Scores one snapped range in span-local coordinates straight into Q32:
/// `xs`/`ys` are the cumulative cut offsets (`xs[0] = 0`,
/// `xs.last() = g1`), `out` receives the quantized per-cell
/// probabilities row-major, and `acc` is `f64` scratch for the
/// row-plus-column exit sums. Same exit-term structure, exact-threshold
/// path, pin override, and clamp as the retained evaluator's
/// `accumulate_range`, restated over the whole span (delta blocks are
/// never band-restricted) with pins mapped to the span's corner cells
/// (pins sit at the snapped range's corners by construction) — except
/// that each approximate cell integral is the closed-form [`ExitCdf`]
/// mass (two `erf` evaluations) instead of a Simpson pass. The closed
/// form depends on nothing but `(g1, g2, exit)` and the cell bounds, so
/// scoring a brand-new cut pattern — which under annealing is every
/// move — costs O(cells) with no quadrature and no caching, and a fresh
/// session reproduces a warm session's values bit for bit by
/// construction.
///
/// Every value equals `quantize_probability` of the per-cell oracle's
/// (the test module's `score_block`) bit for bit; the kernel only skips
/// work: [`ExitCdf::below_clipped`] returns the saturated values without
/// an `erf`, the Type I/II column chains are separate loops, and the
/// pin override, clamp (`quantize_probability` clamps) and quantization
/// run in the pass that finishes each column.
fn score_block_q32(
    model: &IrregularGridModel,
    net_type: NetType,
    xs: &[i64],
    ys: &[i64],
    lf: &LnFactorials,
    acc: &mut Vec<f64>,
    out: &mut Vec<i64>,
) {
    let ncols = xs.len() - 1;
    let nrows = ys.len() - 1;
    let g1 = xs[ncols];
    let g2 = ys[nrows];
    out.clear();

    // Pin IR cells: local pin coordinates 0 and g1-1 (resp. g2-1) fall in
    // the first and last cut interval of the span.
    let pins = match net_type {
        NetType::TypeI => [(0usize, 0usize), (ncols - 1, nrows - 1)],
        NetType::TypeII => [(0, nrows - 1), (ncols - 1, 0)],
    };
    let is_pin = |jx: usize, jy: usize| pins.contains(&(jx, jy));

    let use_exact = model.evaluator == Evaluator::Exact || g1 + g2 <= model.exact_threshold;
    if use_exact {
        let snapped = RoutingRange::from_cells(0, 0, g1, g2, net_type);
        for jy in 0..nrows {
            let y1 = ys[jy];
            let y2 = ys[jy + 1] - 1;
            for jx in 0..ncols {
                out.push(if is_pin(jx, jy) {
                    Q32_ONE
                } else {
                    let x1 = xs[jx];
                    let x2 = xs[jx + 1] - 1;
                    quantize_probability(block_probability_exact(&snapped, lf, x1, x2, y1, y2))
                });
            }
        }
        return;
    }

    fn unitf(v: i64) -> f64 {
        v as f64 // irgrid-lint: allow(C1): unit-grid offsets are small integers, exact in f64
    }

    let correction = if model.approx.continuity_correction {
        0.5
    } else {
        0.0
    };
    let mirrored = |y1: i64, y2: i64| match net_type {
        NetType::TypeI => (y1, y2),
        NetType::TypeII => (g2 - 1 - y2, g2 - 1 - y1),
    };
    let base_intervals = model.approx.simpson_intervals;
    acc.clear();
    acc.resize(ncols * nrows, 0.0);
    out.resize(ncols * nrows, 0);

    // Row sweep: exits upward through each row's top edge. A cell over
    // unit cells `x1..=x2` integrates `[x1 - c, x2 + c]`; with the
    // continuity correction adjacent cells share their half-integer
    // boundary, so the sweep costs one CDF evaluation per cut. Rows on
    // which the closed form degenerates (extreme exits) fall back to the
    // same adaptive Simpson pass the float evaluator uses — still a pure
    // function of the floorplan, just slower, and rare (one unit row per
    // span edge).
    for (jy, row) in acc.chunks_exact_mut(ncols).enumerate() {
        let (_, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
        if my2 >= g2 - 1 {
            continue; // touches the top boundary: no routes leave upward
        }
        let cdf = ExitCdf::new(g1, g2, my2);
        match cdf.kind() {
            ExitKind::Zero => {}
            ExitKind::Quad => {
                let profile = ExitProfile::new(g1, g2, my2);
                for (jx, cell) in row.iter_mut().enumerate() {
                    let a = unitf(xs[jx]) - correction;
                    let b = unitf(xs[jx + 1] - 1) + correction;
                    *cell = profile.integral(a, b, base_intervals);
                }
            }
            ExitKind::Closed if correction > 0.0 => {
                let mut lo = cdf.below_clipped(unitf(xs[0]) - correction);
                for (jx, cell) in row.iter_mut().enumerate() {
                    let hi = cdf.below_clipped(unitf(xs[jx + 1] - 1) + correction);
                    *cell = (hi - lo).max(0.0);
                    lo = hi;
                }
            }
            ExitKind::Closed => {
                for (jx, cell) in row.iter_mut().enumerate() {
                    let hi = cdf.below_clipped(unitf(xs[jx + 1] - 1));
                    *cell = (hi - cdf.below_clipped(unitf(xs[jx]))).max(0.0);
                }
            }
        }
    }
    // Column sweep: exits rightward through each column's right edge
    // (the axes swap). Type II mirroring reverses the row order, so the
    // shared-boundary chain walks `jy` downward there — either way each
    // cut is evaluated once. Each column is finished (pin override,
    // clamp, quantization) as soon as its exits are in.
    for jx in 0..ncols {
        let x2 = xs[jx + 1] - 1;
        // A column touching the right boundary has no rightward exits.
        if x2 < g1 - 1 {
            let cdf = ExitCdf::new(g2, g1, x2);
            match cdf.kind() {
                ExitKind::Zero => {}
                ExitKind::Quad => {
                    let profile = ExitProfile::new(g2, g1, x2);
                    for jy in 0..nrows {
                        let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                        acc[jy * ncols + jx] += profile.integral(
                            unitf(my1) - correction,
                            unitf(my2) + correction,
                            base_intervals,
                        );
                    }
                }
                ExitKind::Closed if correction > 0.0 => {
                    // Walk cells in ascending mirrored order so adjacent
                    // cells share their half-integer boundary.
                    let mut lo = cdf.below_clipped(-correction);
                    match net_type {
                        NetType::TypeI => {
                            for jy in 0..nrows {
                                let hi = cdf.below_clipped(unitf(ys[jy + 1] - 1) + correction);
                                acc[jy * ncols + jx] += (hi - lo).max(0.0);
                                lo = hi;
                            }
                        }
                        NetType::TypeII => {
                            for jy in (0..nrows).rev() {
                                let hi = cdf.below_clipped(unitf(g2 - 1 - ys[jy]) + correction);
                                acc[jy * ncols + jx] += (hi - lo).max(0.0);
                                lo = hi;
                            }
                        }
                    }
                }
                ExitKind::Closed => {
                    for jy in 0..nrows {
                        let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                        let hi = cdf.below_clipped(unitf(my2) + correction);
                        acc[jy * ncols + jx] +=
                            (hi - cdf.below_clipped(unitf(my1) - correction)).max(0.0);
                    }
                }
            }
        }
        for jy in 0..nrows {
            let cell = jy * ncols + jx;
            out[cell] = if is_pin(jx, jy) {
                Q32_ONE
            } else {
                quantize_probability(acc[cell])
            };
        }
    }
}

/// The per-cell scoring path the fused kernel replaced, kept as its
/// bit-identity oracle.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Scores one snapped range in span-local coordinates: `xs`/`ys` are the
    /// cumulative cut offsets (`xs[0] = 0`, `xs.last() = g1`), `out` receives
    /// the per-cell probabilities row-major. Same exit-term structure,
    /// exact-threshold path, pin override, and clamp as the retained
    /// evaluator's `accumulate_range`, restated over the whole span (delta
    /// blocks are never band-restricted) with pins mapped to the span's
    /// corner cells (pins sit at the snapped range's corners by
    /// construction) — except that each approximate cell integral is the
    /// closed-form [`ExitCdf`] mass (two `erf` evaluations) instead of a
    /// Simpson pass. The closed form depends on nothing but `(g1, g2, exit)`
    /// and the cell bounds, so scoring a brand-new cut pattern — which under
    /// annealing is every move — costs O(cells) with no quadrature and no
    /// caching, and a fresh session reproduces a warm session's values
    /// bit for bit by construction.
    pub(super) fn score_block(
        model: &IrregularGridModel,
        net_type: NetType,
        xs: &[i64],
        ys: &[i64],
        lf: &LnFactorials,
        out: &mut Vec<f64>,
    ) {
        let ncols = xs.len() - 1;
        let nrows = ys.len() - 1;
        let g1 = xs[ncols];
        let g2 = ys[nrows];
        let snapped = RoutingRange::from_cells(0, 0, g1, g2, net_type);
        out.clear();
        out.resize(ncols * nrows, 0.0);

        // Pin IR cells: local pin coordinates 0 and g1-1 (resp. g2-1) fall in
        // the first and last cut interval of the span.
        let pins = match net_type {
            NetType::TypeI => [(0usize, 0usize), (ncols - 1, nrows - 1)],
            NetType::TypeII => [(0, nrows - 1), (ncols - 1, 0)],
        };
        let is_pin = |jx: usize, jy: usize| pins.contains(&(jx, jy));

        let use_exact = model.evaluator == Evaluator::Exact || g1 + g2 <= model.exact_threshold;
        if use_exact {
            for jy in 0..nrows {
                let y1 = ys[jy];
                let y2 = ys[jy + 1] - 1;
                for jx in 0..ncols {
                    let x1 = xs[jx];
                    let x2 = xs[jx + 1] - 1;
                    out[jy * ncols + jx] = if is_pin(jx, jy) {
                        1.0
                    } else {
                        block_probability_exact(&snapped, lf, x1, x2, y1, y2)
                    };
                }
            }
            return;
        }

        fn unitf(v: i64) -> f64 {
            v as f64
        }

        let correction = if model.approx.continuity_correction {
            0.5
        } else {
            0.0
        };
        let mirrored = |y1: i64, y2: i64| match net_type {
            NetType::TypeI => (y1, y2),
            NetType::TypeII => (g2 - 1 - y2, g2 - 1 - y1),
        };

        let base_intervals = model.approx.simpson_intervals;
        // Row sweep: exits upward through each row's top edge. A cell over
        // unit cells `x1..=x2` integrates `[x1 - c, x2 + c]`; with the
        // continuity correction adjacent cells share their half-integer
        // boundary, so the sweep costs one CDF evaluation per cut. Rows on
        // which the closed form degenerates (extreme exits) fall back to the
        // same adaptive Simpson pass the float evaluator uses — still a pure
        // function of the floorplan, just slower, and rare (one unit row per
        // span edge).
        for jy in 0..nrows {
            let y1 = ys[jy];
            let y2 = ys[jy + 1] - 1;
            let (_, my2) = mirrored(y1, y2);
            if my2 >= g2 - 1 {
                continue; // touches the top boundary: no routes leave upward
            }
            let cdf = ExitCdf::new(g1, g2, my2);
            if cdf.kind() == ExitKind::Zero {
                continue;
            }
            let row = jy * ncols;
            if cdf.kind() == ExitKind::Quad {
                let profile = ExitProfile::new(g1, g2, my2);
                for jx in 0..ncols {
                    let a = unitf(xs[jx]) - correction;
                    let b = unitf(xs[jx + 1] - 1) + correction;
                    out[row + jx] = profile.integral(a, b, base_intervals);
                }
            } else if correction > 0.0 {
                let mut lo = cdf.below(unitf(xs[0]) - correction);
                for jx in 0..ncols {
                    let hi = cdf.below(unitf(xs[jx + 1] - 1) + correction);
                    out[row + jx] = (hi - lo).max(0.0);
                    lo = hi;
                }
            } else {
                for jx in 0..ncols {
                    out[row + jx] = cdf.mass(unitf(xs[jx]), unitf(xs[jx + 1] - 1));
                }
            }
        }
        // Column sweep: exits rightward through each column's right edge
        // (the axes swap). Type II mirroring reverses the row order, so the
        // shared-boundary chain walks `jy` downward there — either way each
        // cut is evaluated once.
        for jx in 0..ncols {
            let x2 = xs[jx + 1] - 1;
            if x2 >= g1 - 1 {
                continue; // touches the right boundary
            }
            let cdf = ExitCdf::new(g2, g1, x2);
            if cdf.kind() == ExitKind::Zero {
                continue;
            }
            if cdf.kind() == ExitKind::Quad {
                let profile = ExitProfile::new(g2, g1, x2);
                for jy in 0..nrows {
                    let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                    out[jy * ncols + jx] += profile.integral(
                        unitf(my1) - correction,
                        unitf(my2) + correction,
                        base_intervals,
                    );
                }
            } else if correction > 0.0 {
                // `mirrored` is monotone in the mirrored coordinate: walk
                // cells in ascending `my` order so adjacent cells share
                // their half-integer boundary.
                let jys: &mut dyn Iterator<Item = usize> = match net_type {
                    NetType::TypeI => &mut (0..nrows),
                    NetType::TypeII => &mut (0..nrows).rev(),
                };
                let mut lo = cdf.below(-correction);
                for jy in jys {
                    let (_, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                    let hi = cdf.below(unitf(my2) + correction);
                    out[jy * ncols + jx] += (hi - lo).max(0.0);
                    lo = hi;
                }
            } else {
                for jy in 0..nrows {
                    let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                    out[jy * ncols + jx] +=
                        cdf.mass(unitf(my1) - correction, unitf(my2) + correction);
                }
            }
        }
        // Pin override and clamp, matching the retained evaluator's commit
        // pass cell for cell.
        for jy in 0..nrows {
            for jx in 0..ncols {
                let cell = &mut out[jy * ncols + jx];
                *cell = if is_pin(jx, jy) {
                    1.0
                } else {
                    cell.clamp(0.0, 1.0)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::ApproxConfig;
    use crate::{CongestionModel, DeltaCongestionSession};
    use irgrid_geom::Um;

    fn chip(w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(w), Um(h))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    /// Corridor + type II + exact-threshold mix (the evaluator tests'
    /// fixture).
    fn crossing_segments() -> Vec<(Point, Point)> {
        vec![
            (pt(30, 30), pt(840, 600)),
            (pt(60, 750), pt(780, 90)),   // type II
            (pt(240, 30), pt(300, 870)),  // near-vertical
            (pt(15, 450), pt(885, 450)),  // corridor
            (pt(90, 90), pt(150, 150)),   // small: exact-threshold path
            (pt(200, 200), pt(200, 200)), // degenerate: zero-length
        ]
    }

    fn fresh_rebase(
        model: IrregularGridModel,
        chip: &Rect,
        segments: &[(Point, Point)],
    ) -> IrDeltaEvaluator {
        let mut session = IrDeltaEvaluator::new(model);
        session.rebase(chip, segments);
        session
    }

    fn assert_bit_identical(a: &IrDeltaEvaluator, b: &IrDeltaEvaluator, context: &str) {
        assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "cost ({context})");
        assert_eq!(a.quantized(), b.quantized(), "map ({context})");
    }

    #[test]
    fn warm_session_matches_fresh_rebase_through_move_churn() {
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&the_chip, &segments);

        for step in 0..30 {
            // Move one endpoint deterministically; every 7th move is
            // re-proposed after an undo (reject/undo chains).
            let k = step % segments.len();
            let old = segments[k];
            segments[k].0 = pt(
                (old.0.x.0 + 90 * (1 + step as i64)) % 870,
                (old.0.y.0 + 150) % 870,
            );
            let proposed = warm.propose(&the_chip, &segments);
            if step % 7 == 3 {
                assert_eq!(warm.undo(), warm.cost());
                let again = warm.propose(&the_chip, &segments);
                assert_eq!(proposed.to_bits(), again.to_bits(), "re-propose after undo");
            }
            if step % 3 == 0 {
                // Reject: restore the segment list too.
                warm.undo();
                segments[k] = old;
            } else {
                warm.commit();
            }
            let reference = fresh_rebase(model, &the_chip, &segments);
            assert_bit_identical(&warm, &reference, &format!("step {step}"));
        }
    }

    #[test]
    fn fast_path_on_unchanged_cuts_is_exact() {
        // Moving a segment entirely inside its IR cell structure keeps
        // the merged cuts identical, exercising the subtract/add path.
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&the_chip, &segments);
        // Swap the two endpoints of the type II segment: same range
        // boundaries, same cuts, different nothing — then genuinely move it.
        segments[1] = (segments[1].1, segments[1].0);
        warm.propose(&the_chip, &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "endpoint swap",
        );
        segments[1].0 = pt(75, 735);
        warm.propose(&the_chip, &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "small move",
        );
    }

    /// A deterministic churn of `crossing_segments`: every step moves
    /// one endpoint, so blocks keep changing shape and the memo keeps
    /// both hitting (unmoved ranges) and missing (moved ones).
    fn churn_step(segments: &mut [(Point, Point)], step: i64) {
        let k = (step as usize) % segments.len();
        segments[k].1 = pt(
            60 + (segments[k].1.x.0 + 90 * (step + 1)) % 780,
            60 + (segments[k].1.y.0 + 150 + 30 * step) % 780,
        );
    }

    #[test]
    fn memo_window_bounds_entries_deterministically() {
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&the_chip, &segments);
        for step in 0..(5 * MEMO_WINDOW as i64) {
            let committed = segments.clone();
            churn_step(&mut segments, step);
            warm.propose(&the_chip, &segments);
            if step % 3 == 0 {
                warm.undo();
                segments = committed;
            } else {
                warm.commit();
            }
            // Every entry was used within the last two windows, and right
            // after a sweep within the last one.
            let epoch = warm.counters.proposals;
            let age_bound = if epoch % MEMO_WINDOW == 0 {
                MEMO_WINDOW
            } else {
                2 * MEMO_WINDOW
            };
            for entry in warm.memo.values() {
                assert!(
                    epoch - entry.last_used < age_bound,
                    "step {step}: entry last used at {} survives epoch {epoch}",
                    entry.last_used
                );
            }
            // Hence at most two windows' worth of ranges' blocks.
            let bound = 2 * MEMO_WINDOW * count(segments.len());
            assert!(warm.work_counters().memo_entries <= bound);
            assert_bit_identical(
                &warm,
                &fresh_rebase(model, &the_chip, &segments),
                &format!("windowed step {step}"),
            );
        }
        let counters = warm.work_counters();
        assert!(counters.memo_evicted > 0, "the window never evicted");
        assert_eq!(counters.memo_entries, count(warm.memo.len()));
    }

    #[test]
    fn work_counters_repeat_for_a_fixed_sequence() {
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let run = || {
            let mut session = IrDeltaEvaluator::new(model);
            let mut segments = crossing_segments();
            let mut trace = vec![{
                session.rebase(&the_chip, &segments);
                session.work_counters()
            }];
            for step in 0..(3 * MEMO_WINDOW as i64) {
                churn_step(&mut segments, step);
                session.propose(&the_chip, &segments);
                if step % 3 == 0 {
                    session.undo();
                } else {
                    session.commit();
                }
                trace.push(session.work_counters());
            }
            trace
        };
        let first = run();
        assert_eq!(first, run(), "counters differ between identical runs");
        let last = first[first.len() - 1];
        assert_eq!(last.proposals, 1 + 3 * MEMO_WINDOW);
        // Every range of every proposal is either a hit or a scored block.
        let ranges = count(crossing_segments().len()) * last.proposals;
        assert_eq!(last.memo_hits + last.blocks_scored, ranges);
        assert!(last.memo_hits > 0 && last.memo_evicted > 0);
        assert!(last.cells_scored >= last.blocks_scored);
    }

    /// Span-local cut offsets `0 = xs[0] < … < xs[n] = g` from arbitrary
    /// raw values (each folded into `1..g`).
    fn offsets(g: i64, raw: &[i64]) -> Vec<i64> {
        let mut cuts: Vec<i64> = raw.iter().map(|&r| 1 + r.rem_euclid(g - 1)).collect();
        cuts.extend([0, g]);
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    /// `(fused kernel, oracle)` Q32 blocks of one span.
    fn fused_and_oracle(
        model: &IrregularGridModel,
        net_type: NetType,
        xs: &[i64],
        ys: &[i64],
    ) -> (Vec<i64>, Vec<i64>) {
        let lf = LnFactorials::up_to((xs[xs.len() - 1] + ys[ys.len() - 1] + 2) as usize);
        let (mut acc, mut fused) = (Vec::new(), Vec::new());
        score_block_q32(model, net_type, xs, ys, &lf, &mut acc, &mut fused);
        let mut probabilities = Vec::new();
        oracle::score_block(model, net_type, xs, ys, &lf, &mut probabilities);
        let reference = probabilities
            .iter()
            .map(|&p| quantize_probability(p))
            .collect();
        (fused, reference)
    }

    /// The model variants the kernel branches on.
    fn kernel_models() -> [IrregularGridModel; 3] {
        let base = IrregularGridModel::new(Um(30));
        [
            base,
            base.with_approx_config(ApproxConfig {
                continuity_correction: false,
                ..ApproxConfig::default()
            }),
            base.with_evaluator(Evaluator::Exact),
        ]
    }

    #[test]
    fn fused_kernel_matches_oracle_on_every_path() {
        // Hand-picked spans covering each branch: Type I and II, cuts at
        // unit rows/columns 1 and g−1 (the ExitKind::Quad exit lines),
        // g1 + g2 at and below the exact threshold, one-interval spans,
        // extreme aspect ratios — under each model variant.
        let spans: [(i64, i64, &[i64], &[i64]); 8] = [
            (31, 21, &[1, 5, 9, 20, 30], &[1, 4, 11, 19, 20]),
            (40, 8, &[3, 17, 33], &[1, 2, 6, 7]),
            (8, 40, &[1, 7], &[10, 20, 30, 39]),
            (5, 5, &[1, 3, 4], &[2]),
            (4, 6, &[2], &[1, 5]),
            (2, 300, &[1], &[1, 100, 150, 299]),
            (300, 3, &[1, 2, 150, 299], &[1, 2]),
            (60, 60, &[], &[]),
        ];
        for model in kernel_models() {
            for net_type in [NetType::TypeI, NetType::TypeII] {
                for &(g1, g2, xr, yr) in &spans {
                    let (xs, ys) = (offsets(g1, xr), offsets(g2, yr));
                    let (fused, reference) = fused_and_oracle(&model, net_type, &xs, &ys);
                    assert_eq!(fused, reference, "{g1}x{g2} {net_type:?} {model:?}");
                }
            }
        }
        // The Quad fallback is really taken by the first span.
        assert_eq!(ExitCdf::new(31, 21, 0).kind(), ExitKind::Quad);
        assert_eq!(ExitCdf::new(31, 21, 19).kind(), ExitKind::Quad);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The fused Q32 kernel reproduces the per-cell oracle bit for bit
        /// on generated spans: both net types, every model variant,
        /// extents from the exact-threshold range up to extreme aspect
        /// ratios, random cut patterns (which hit the Quad exit lines
        /// whenever a cut lands at 1 or g−1).
        fn fused_kernel_matches_oracle(
            net in 0u8..2,
            variant in 0usize..3,
            scale in 0usize..3,
            g1_raw in 0i64..1_000_000,
            g2_raw in 0i64..1_000_000,
            xr in proptest::collection::vec(0i64..1_000_000, 0..24),
            yr in proptest::collection::vec(0i64..1_000_000, 0..24),
        ) {
            let bound = [8, 64, 400][scale];
            let (g1, g2) = (2 + g1_raw % bound, 2 + g2_raw % bound);
            let net_type = if net == 0 { NetType::TypeI } else { NetType::TypeII };
            let model = kernel_models()[variant];
            // Exact scoring of huge spans is slow and adds no coverage.
            proptest::prop_assume!(variant != 2 || g1 + g2 <= 200);
            let (xs, ys) = (offsets(g1, &xr), offsets(g2, &yr));
            let (fused, reference) = fused_and_oracle(&model, net_type, &xs, &ys);
            proptest::prop_assert_eq!(fused, reference);
        }
    }

    #[test]
    fn quantized_cost_tracks_float_evaluator() {
        // Not bit-identical to the f64 pipeline: a different accumulator
        // (Q32 integers) and a different quadrature (closed-form ExitCdf
        // antiderivatives instead of per-cell adaptive Simpson). Both
        // effects are far below the model's own approximation error;
        // 1e-4 bounds them comfortably.
        for model in [
            IrregularGridModel::new(Um(30)),
            IrregularGridModel::new(Um(30)).with_evaluator(Evaluator::Exact),
            IrregularGridModel::new(Um(30)).without_line_merging(),
        ] {
            let segments = crossing_segments();
            let float_cost = model.evaluate(&chip(900, 900), &segments);
            let mut session = IrDeltaEvaluator::new(model);
            let quant_cost = session.rebase(&chip(900, 900), &segments);
            assert!(
                (float_cost - quant_cost).abs() < 1e-4,
                "float {float_cost} vs quantized {quant_cost}"
            );
        }
    }

    #[test]
    fn map_matches_float_map_to_quadrature_error() {
        // Same cuts exactly; per-cell totals agree to quantization plus
        // quadrature error (the delta path integrates exit terms with
        // the closed-form ExitCdf, not per-cell Simpson; see approx.rs).
        let model = IrregularGridModel::new(Um(30));
        let segments = crossing_segments();
        let float_map = model.congestion_map(&chip(900, 900), &segments);
        let mut session = IrDeltaEvaluator::new(model);
        session.rebase(&chip(900, 900), &segments);
        let delta_map = session.congestion_map();
        assert_eq!(float_map.x_cuts(), delta_map.x_cuts());
        assert_eq!(float_map.y_cuts(), delta_map.y_cuts());
        for j in 0..float_map.ir_rows() {
            for i in 0..float_map.ir_cols() {
                let f = float_map.total(i, j);
                let d = delta_map.total(i, j);
                // The closed-form exit integrals deviate from adaptive
                // Simpson by up to ~0.02 per exit term in pathological
                // shapes; on this fixture the observed worst cell is
                // ~3e-4. 2e-3 absolute leaves margin while still
                // catching structural regressions.
                assert!(
                    (f - d).abs() <= 2e-3,
                    "cell ({i},{j}): float {f} vs delta {d}"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_floorplans() {
        let model = IrregularGridModel::new(Um(30));
        let mut session = IrDeltaEvaluator::new(model);
        assert_eq!(session.rebase(&chip(300, 300), &[]), 0.0);
        // A floorplan of only coincident-pin (zero-length) segments.
        let degenerate = vec![(pt(50, 50), pt(50, 50)); 4];
        let cost = session.propose(&chip(300, 300), &degenerate);
        session.commit();
        assert_bit_identical(
            &session,
            &fresh_rebase(model, &chip(300, 300), &degenerate),
            "degenerate",
        );
        assert!(cost.is_finite());
    }

    #[test]
    fn undo_without_proposal_is_a_noop() {
        let model = IrregularGridModel::new(Um(30));
        let mut session = IrDeltaEvaluator::new(model);
        assert_eq!(session.undo(), 0.0);
        let base = session.rebase(&chip(900, 900), &crossing_segments());
        assert_eq!(session.undo(), base);
        session.commit(); // also a no-op
        assert_eq!(session.cost(), base);
    }

    #[test]
    fn chip_resize_between_proposals() {
        // Chip growth changes the grid extent (different boundary cut),
        // forcing the full re-accumulation path.
        let model = IrregularGridModel::new(Um(30));
        let segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&chip(900, 900), &segments);
        warm.propose(&chip(990, 930), &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &chip(990, 930), &segments),
            "resized chip",
        );
    }
}
