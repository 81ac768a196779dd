//! Output checks, run after the measured window.
//!
//! * serve-hot: every answer is bit-identical to `TreeLattice::estimate`.
//! * serve-cold: every [`COLD_STRIDE`]-th answer, and every held-out one,
//!   is bit-identical to `estimate_catalog` on a replica `MmapCatalog`.

use std::path::Path;

use treelattice::{estimate_catalog, EstimateOptions, MmapCatalog, TreeLattice};

use crate::drive::Record;
use crate::setup::Queries;
use crate::spec::{Kind, Spec};

/// serve-cold checks one answer in this many; checking all would cost as
/// much as serving them.
pub const COLD_STRIDE: usize = 8;

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Answers compared against a reference.
    pub checked: usize,
    /// Compared answers that differed.
    pub mismatches: usize,
}

/// `log` holds every request in send order; `heldout` the held-out
/// answers (bits, `None` when the request failed), sent after `log`.
pub fn run(
    spec: &Spec,
    base: &TreeLattice,
    frame_path: &Path,
    queries: &Queries,
    log: &[Record],
    heldout: &[Option<u64>],
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut compare = |served: Option<u64>, reference: f64| {
        if let Some(bits) = served {
            report.checked += 1;
            if bits != reference.to_bits() {
                report.mismatches += 1;
            }
        }
    };
    let est = spec.estimator;
    match spec.kind {
        Kind::ServeHot => {
            let reference: Vec<f64> = queries
                .pool
                .iter()
                .map(|q| base.estimate(&q.twig, est))
                .collect();
            for r in log {
                compare(r.answer, reference[r.query as usize]);
            }
            for (q, &served) in queries.heldout.iter().zip(heldout) {
                compare(served, base.estimate(&q.twig, est));
            }
        }
        Kind::ServeCold => {
            let catalog =
                MmapCatalog::open(frame_path).map_err(|e| format!("check catalog: {e}"))?;
            let opts = EstimateOptions::default();
            for r in log.iter().step_by(COLD_STRIDE) {
                let twig = &queries.pool[r.query as usize].twig;
                compare(r.answer, estimate_catalog(&catalog, twig, est, &opts));
            }
            for (q, &served) in queries.heldout.iter().zip(heldout) {
                compare(served, estimate_catalog(&catalog, &q.twig, est, &opts));
            }
        }
    }
    Ok(report)
}
