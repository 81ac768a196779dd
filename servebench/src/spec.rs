//! The two workloads and their smoke-sized variants.

use std::ops::RangeInclusive;
use std::time::Duration;

use treelattice::Estimator;

/// Which layer a workload puts in charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cached estimates: the wire and server path dominate.
    ServeHot,
    /// Never-repeated estimates on the mmap backend: the engine and
    /// catalog kernel dominate.
    ServeCold,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Target element count of the IMDB stand-in document.
    pub elements: usize,
    /// Lattice order.
    pub k: usize,
    /// Serve from the zero-copy mmap catalog instead of memory.
    pub mmap: bool,
    pub estimator: Estimator,
    /// Node counts of the sampled twigs.
    pub sizes: RangeInclusive<usize>,
    /// Distinct twigs the traffic draws from. serve-cold sends each at
    /// most once per process, so its pool is sized by the window.
    pub pool: usize,
    /// Held-out twigs estimated after the window for `qerror_gmean`.
    pub heldout: usize,
    /// Requests sent before the window opens.
    pub warmup: usize,
}

impl Spec {
    /// `window` is one measuring process's share of the run.
    pub fn by_name(name: &str, smoke: bool, window: Duration) -> Option<Spec> {
        let mut spec = match name {
            "serve-hot" => Spec {
                kind: Kind::ServeHot,
                name: "serve-hot",
                elements: 1_000_000,
                k: 4,
                mmap: false,
                estimator: Estimator::Recursive,
                sizes: 5..=8,
                pool: 128,
                heldout: 1_024,
                warmup: 2_000,
            },
            "serve-cold" => Spec {
                kind: Kind::ServeCold,
                name: "serve-cold",
                elements: 200_000,
                k: 5,
                mmap: true,
                estimator: Estimator::RecursiveVoting,
                sizes: 7..=10,
                // ~2.1k requests/s on a 2-vCPU VM; the margin lets a faster
                // server still see only distinct twigs.
                pool: (5_000.0 * window.as_secs_f64()) as usize + 1_000,
                heldout: 1_024,
                warmup: 500,
            },
            _ => return None,
        };
        if smoke {
            spec.elements = if spec.kind == Kind::ServeCold {
                6_000
            } else {
                12_000
            };
            spec.pool = spec.pool.min(if spec.kind == Kind::ServeCold {
                2_000
            } else {
                64
            });
            spec.heldout = 32;
            spec.warmup = 100;
        }
        Some(spec)
    }
}
