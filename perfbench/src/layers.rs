//! The per-layer metrics of the traced run.
//!
//! Every workload reports every metric in [`PER_LAYER`]. A layer a
//! workload never calls during its timed ops reports 0: the measured time
//! in that layer, and the "no change" prediction made visible.

use crate::stats::Metrics;

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core: the congestion evaluators.
    ("core.delta_propose_ms", "ms"),
    ("core.delta_commit_us", "us"),
    ("core.delta_undo_us", "us"),
    ("core.evaluate_ms", "ms"),
    // floorplan: perturbation, packing and the placement diff.
    ("floorplan.perturb_us", "us"),
    ("floorplan.pack_us", "us"),
    ("floorplan.diff_us", "us"),
    // netlist: pin placement plus MST decomposition of the nets a move
    // re-decomposes.
    ("netlist.decompose_us", "us"),
    // anneal: the move loop outside the calls into the problem.
    ("anneal.engine_self_us", "us"),
    // irgrid: the floorplanner's calls and their self time.
    ("irgrid.propose_us", "us"),
    ("irgrid.commit_us", "us"),
    ("irgrid.undo_us", "us"),
    ("irgrid.propose_self_us", "us"),
    ("irgrid.commit_self_us", "us"),
    ("irgrid.undo_self_us", "us"),
    // serve: codec, handler, transport, store.
    ("serve.codec_us", "us"),
    ("serve.handle_propose_ms", "ms"),
    ("serve.handle_commit_ms", "ms"),
    ("serve.handle_undo_ms", "ms"),
    ("serve.handle_evaluate_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.propose_rtt_ms", "ms"),
    ("serve.commit_rtt_ms", "ms"),
    ("serve.undo_rtt_ms", "ms"),
    ("serve.evaluate_rtt_ms", "ms"),
    ("serve.store_write_ms", "ms"),
    // Counts at the same boundaries; they repeat exactly per seed.
    ("anneal.accept_ratio", "ratio"),
    ("floorplan.changed_modules", "count"),
    ("netlist.nets_redecomposed", "count"),
    ("core.segments", "count"),
    ("core.ir_cells", "count"),
    ("core.x_cuts", "count"),
    ("core.y_cuts", "count"),
    ("serve.request_bytes", "bytes"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.persists", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    // The traced run against the untraced one.
    ("trace.overhead_ratio", "ratio"),
    ("trace.stage_sum_ratio", "ratio"),
];

/// Values for every [`PER_LAYER`] metric, all 0 until set.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets `name`, which must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let index = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[index] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| self.values[i])
    }

    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        for (&(name, unit), &value) in PER_LAYER.iter().zip(&self.values) {
            metrics.put(name, value, unit);
        }
        metrics
    }
}
