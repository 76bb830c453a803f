//! The synthetic label source of the `serve` and `stream` workloads.
//!
//! Running the 12 detectors costs seconds per corpus, which would swamp
//! what these workloads measure, so their selectors train on labels from
//! [`ShapeOracle`] instead: a deterministic function of series content
//! that a selector can learn from z-normalised windows. `auc_pr` on these
//! workloads is the oracle's score of the picks, a quality tripwire that is
//! bitwise reproducible at a fixed seed.

use kdselector_core::stream::LabelOracle;
use tsdata::TimeSeries;

pub struct ShapeOracle;

impl ShapeOracle {
    /// Best model: the series' roughness (mean |Δx| over its standard
    /// deviation, scale-free like the windows the selector sees) bucketed
    /// on a log scale into the 12 model slots.
    pub fn best(ts: &TimeSeries) -> usize {
        let x = &ts.values;
        if x.len() < 2 {
            return 0;
        }
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let sd = (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
        let step = x.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (n - 1.0);
        let roughness = step / sd.max(1e-12);
        ((roughness.log2() * 2.0 + 10.0).floor().max(0.0) as usize).min(11)
    }
}

impl LabelOracle for ShapeOracle {
    /// Graded row: 0.9 at the best slot, 0.1 lower per slot of distance,
    /// floored at 0.1, so a near miss scores between a hit and a miss.
    fn perf_row(&self, ts: &TimeSeries) -> Vec<f64> {
        let best = Self::best(ts) as f64;
        (0..12)
            .map(|m| (0.9 - 0.1 * (m as f64 - best).abs()).max(0.1))
            .collect()
    }
}
