//! Shared experiment harness: run Affidavit configurations over generated
//! problem instances and aggregate the §5.2 metrics.

use std::time::Instant;

use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datagen::metrics::{evaluate, InstanceMetrics};
use affidavit_datasets::specs::DatasetSpec;
use affidavit_datasets::synth::generate_rows;
use serde::Serialize;

/// The two Table 2 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ConfigKind {
    /// `Hs`: overlap start state, β = 1, ϱ = 1.
    Hs,
    /// `H^id`: id start states, β = 2, ϱ = 5.
    Hid,
}

impl ConfigKind {
    /// Short label as used in Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            ConfigKind::Hs => "Hs",
            ConfigKind::Hid => "Hid",
        }
    }

    /// The corresponding solver configuration.
    pub fn to_config(self, seed: u64) -> AffidavitConfig {
        match self {
            ConfigKind::Hs => AffidavitConfig::paper_overlap().with_seed(seed),
            ConfigKind::Hid => AffidavitConfig::paper_id().with_seed(seed),
        }
    }
}

/// Averaged metrics of one Table 2 cell (dataset × setting × config).
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    /// Dataset name.
    pub dataset: String,
    /// Attribute count of the materialized instances (incl. pk).
    pub attrs: usize,
    /// Record count of the base table used.
    pub records: usize,
    /// Configuration label.
    pub config: &'static str,
    /// Noise fraction η.
    pub eta: f64,
    /// Transformation fraction τ.
    pub tau: f64,
    /// Number of problem instances averaged.
    pub runs: usize,
    /// Mean runtime in seconds.
    pub t_secs: f64,
    /// Mean relative core size.
    pub delta_core: f64,
    /// Mean relative costs.
    pub delta_costs: f64,
    /// Mean cell accuracy.
    pub acc: f64,
}

impl CellResult {
    /// Render as a Table 2 style row fragment.
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>3} {:>7}  {:<3}  η=τ={:.1}  t={:>8.2}s  Δcore={:>5.2}  Δcosts={:>5.2}  acc={:>5.2}",
            self.dataset,
            self.attrs,
            self.records,
            self.config,
            self.eta,
            self.t_secs,
            self.delta_core,
            self.delta_costs,
            self.acc
        )
    }
}

/// Run one instance: solve and evaluate.
///
/// When `rows` caps the dataset below its paper size, the `Hs` overlap
/// pair budget is scaled down quadratically (`pairs ∝ rows²`) so the
/// matcher's collapse on low-distinctness tables — the Table 2 effect on
/// chess/nursery/letter — is preserved at laptop scale.
#[allow(clippy::too_many_arguments)]
fn run_one(
    spec: &DatasetSpec,
    rows: usize,
    eta: f64,
    tau: f64,
    kind: ConfigKind,
    seed: u64,
    threads: usize,
) -> InstanceMetrics {
    let (base, pool) = generate_rows(spec, rows, seed);
    let blueprint = Blueprint::new(base, pool, GenConfig::new(eta, tau, seed));
    let mut generated = blueprint.materialize_full();
    let mut cfg = kind.to_config(seed).with_threads(threads);
    if rows < spec.rows {
        let ratio = rows as f64 / spec.rows as f64;
        cfg.max_block_size = ((cfg.max_block_size as f64) * ratio * ratio)
            .ceil()
            .max(4.0) as usize;
    }
    let solver = Affidavit::new(cfg);
    let started = Instant::now();
    let outcome = solver.explain(&mut generated.instance);
    let runtime = started.elapsed();
    evaluate(&outcome.explanation, &mut generated, runtime)
}

/// Run a full Table 2 cell: `runs` instances in parallel on one worker per
/// hardware thread (`affidavit_table::resolve_threads(0)`), averaged;
/// `threads` sizes each instance's own search.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    spec: &DatasetSpec,
    rows: usize,
    eta: f64,
    tau: f64,
    kind: ConfigKind,
    runs: usize,
    base_seed: u64,
    threads: usize,
) -> CellResult {
    let metrics = rayon::fan_out(runs, affidavit_table::resolve_threads(0), |i| {
        run_one(spec, rows, eta, tau, kind, base_seed + i as u64, threads)
    });
    let n = metrics.len() as f64;
    CellResult {
        dataset: spec.name.to_owned(),
        attrs: spec.attrs,
        records: rows,
        config: kind.label(),
        eta,
        tau,
        runs,
        t_secs: metrics.iter().map(|m| m.runtime.as_secs_f64()).sum::<f64>() / n,
        delta_core: metrics.iter().map(|m| m.delta_core).sum::<f64>() / n,
        delta_costs: metrics.iter().map(|m| m.delta_costs).sum::<f64>() / n,
        acc: metrics.iter().map(|m| m.accuracy).sum::<f64>() / n,
    }
}

/// The three Table 2 difficulty settings.
pub const SETTINGS: [(f64, f64); 3] = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.7)];

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_datasets::by_name;

    #[test]
    fn easy_cell_reaches_high_accuracy() {
        let spec = by_name("iris").unwrap();
        let cell = run_cell(&spec, 150, 0.3, 0.3, ConfigKind::Hid, 3, 77, 1);
        assert!(cell.acc > 0.9, "acc {}", cell.acc);
        assert!(cell.delta_core > 0.9, "Δcore {}", cell.delta_core);
        assert!(
            (cell.delta_costs - 1.0).abs() < 0.3,
            "Δcosts {}",
            cell.delta_costs
        );
    }

    #[test]
    fn config_kinds_map_to_paper_parameters() {
        let hs = ConfigKind::Hs.to_config(1);
        assert_eq!((hs.beta, hs.queue_width), (1, 1));
        let hid = ConfigKind::Hid.to_config(1);
        assert_eq!((hid.beta, hid.queue_width), (2, 5));
    }
}
