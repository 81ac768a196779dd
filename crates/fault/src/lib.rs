//! Unified fault taxonomy, resource budgets, and deterministic fail-point
//! injection for the TreeLattice pipeline.
//!
//! Every crate boundary in the workspace funnels its failure modes into one
//! [`Fault`] type so callers (the CLI, the batched engine, tests) can react
//! to *kinds* of failure instead of string-matching per-crate error types.
//! [`Budget`] carries the resource limits an estimation or mining call must
//! respect; the estimator consults it and degrades (see `Degradation`)
//! instead of running away. [`failpoints`] is the seeded fault-injection
//! harness the chaos suite drives.

pub mod failpoints;

use std::fmt;
use std::time::{Duration, Instant};

/// The closed set of failure classes the pipeline can report.
///
/// Each variant has a stable kebab-case name ([`FaultKind::as_str`]) used in
/// CLI error output and metric labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Malformed input: XML documents or twig query strings.
    Parse,
    /// A memory or work budget was exhausted ([`Budget::max_mem_bytes`],
    /// [`Budget::max_k`]).
    BudgetExhausted,
    /// The exact-match kernel refused a same-label sibling group larger
    /// than its subset-DP bound.
    GroupTooLarge,
    /// A persisted summary failed frame, checksum, or structural
    /// validation on load.
    CorruptSummary,
    /// A batch worker panicked; the panic was contained to its query.
    WorkerPanic,
    /// A wall-clock deadline ([`Budget::deadline`]) expired.
    Timeout,
}

impl FaultKind {
    /// Stable kebab-case name, used in error messages and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Parse => "parse",
            FaultKind::BudgetExhausted => "budget-exhausted",
            FaultKind::GroupTooLarge => "group-too-large",
            FaultKind::CorruptSummary => "corrupt-summary",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::Timeout => "timeout",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A classified pipeline failure: a [`FaultKind`] plus human context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    pub kind: FaultKind,
    /// Fail-point site name when the fault was injected by [`failpoints`],
    /// `None` for organic faults.
    pub site: Option<&'static str>,
    pub message: String,
}

impl Fault {
    pub fn new(kind: FaultKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            site: None,
            message: message.into(),
        }
    }

    /// A fault produced by an active fail-point at `site`.
    pub fn injected(kind: FaultKind, site: &'static str) -> Self {
        Self {
            kind,
            site: Some(site),
            message: format!("injected by fail-point `{site}`"),
        }
    }

    pub fn parse(message: impl Into<String>) -> Self {
        Self::new(FaultKind::Parse, message)
    }

    pub fn budget(message: impl Into<String>) -> Self {
        Self::new(FaultKind::BudgetExhausted, message)
    }

    pub fn timeout(message: impl Into<String>) -> Self {
        Self::new(FaultKind::Timeout, message)
    }

    pub fn corrupt_summary(message: impl Into<String>) -> Self {
        Self::new(FaultKind::CorruptSummary, message)
    }

    pub fn worker_panic(message: impl Into<String>) -> Self {
        Self::new(FaultKind::WorkerPanic, message)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

impl std::error::Error for Fault {}

/// Resource limits for one mining or estimation call.
///
/// The default budget is unlimited; enforcement only happens on the
/// resilient code paths, so the plain infallible APIs pay nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Cap on bytes the call may allocate for its working state
    /// (memo tables, candidate levels). `None` = unlimited.
    pub max_mem_bytes: Option<u64>,
    /// Wall-clock point after which the call must degrade or stop.
    pub deadline: Option<Instant>,
    /// Cap on the decomposition order: sub-twig sizes above this are
    /// treated as unavailable, forcing fix-sized estimation at a smaller k
    /// (and capping the mined lattice order). `None` = use the summary's k.
    pub max_k: Option<usize>,
}

impl Budget {
    /// No limits; never trips.
    pub fn unlimited() -> Self {
        Self::default()
    }

    pub fn is_unlimited(&self) -> bool {
        self.max_mem_bytes.is_none() && self.deadline.is_none() && self.max_k.is_none()
    }

    /// Sets the deadline to `now + dur`.
    pub fn with_time_limit(mut self, dur: Duration) -> Self {
        self.deadline = Some(Instant::now() + dur);
        self
    }

    pub fn with_max_mem_bytes(mut self, bytes: u64) -> Self {
        self.max_mem_bytes = Some(bytes);
        self
    }

    pub fn with_max_k(mut self, k: usize) -> Self {
        self.max_k = Some(k);
        self
    }

    /// Errors with [`FaultKind::Timeout`] if the deadline has passed (or
    /// the `budget.deadline` fail-point fires).
    pub fn check_deadline(&self) -> Result<(), Fault> {
        if failpoints::fire(failpoints::sites::BUDGET_DEADLINE) {
            return Err(Fault::injected(
                FaultKind::Timeout,
                failpoints::sites::BUDGET_DEADLINE,
            ));
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Fault::timeout("deadline expired")),
            _ => Ok(()),
        }
    }

    /// Errors with [`FaultKind::BudgetExhausted`] if `used_bytes` exceeds
    /// the memory cap (or the `budget.mem` fail-point fires).
    pub fn check_mem(&self, used_bytes: u64) -> Result<(), Fault> {
        if failpoints::fire(failpoints::sites::BUDGET_MEM) {
            return Err(Fault::injected(
                FaultKind::BudgetExhausted,
                failpoints::sites::BUDGET_MEM,
            ));
        }
        match self.max_mem_bytes {
            Some(cap) if used_bytes > cap => Err(Fault::budget(format!(
                "memory budget exhausted: {used_bytes} bytes used, cap {cap}"
            ))),
            _ => Ok(()),
        }
    }
}

/// The outcome classes every entry point of the pipeline reports — the
/// single vocabulary behind the CLI's process exit codes and the server's
/// request-level status codes.
///
/// The mapping is part of the external contract (scripts branch on it, the
/// wire protocol carries it), so it lives here — next to [`Fault`] and
/// [`Degradation`] — and both `tl-cli` and `tl-server` call [`exit_code`]
/// instead of hard-coding numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The request succeeded on the exact path.
    Success,
    /// The request succeeded on a degraded rung of the ladder (the caller
    /// is told which via [`Degradation`]); still a success to scripts.
    DegradedOk,
    /// The caller's input was malformed (bad flags, bad query syntax, a
    /// query the exact kernel refuses).
    UsageError,
    /// A typed pipeline [`Fault`]: missing/corrupt input, parse failure,
    /// budget trip surfaced as an error, injected fault.
    Fault,
}

/// The one exit-code table: success and degraded-ok are `0` (a degraded
/// estimate is still an estimate — the provenance note goes to stderr, not
/// the exit code), usage errors are `2`, faults are `3`.
pub const fn exit_code(outcome: Outcome) -> i32 {
    match outcome {
        Outcome::Success | Outcome::DegradedOk => 0,
        Outcome::UsageError => 2,
        Outcome::Fault => 3,
    }
}

/// Provenance of a resilient estimate: how far down the degradation ladder
/// the estimator had to climb to produce a number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// The requested estimator ran to completion within budget.
    None,
    /// The budget tripped (or `max_k` capped the order); the estimate came
    /// from fix-sized decomposition over windows of size `k`, smaller than
    /// the summary's mined order.
    ReducedK { k: usize },
    /// Last rung: a closed-form path-independence (first-order Markov)
    /// product over levels 1–2 of the summary. Always terminates, coarsest
    /// accuracy.
    Markov,
}

impl Degradation {
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Degradation::None)
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::None => f.write_str("none"),
            Degradation::ReducedK { k } => write!(f, "reduced-k({k})"),
            Degradation::Markov => f.write_str("markov-fallback"),
        }
    }
}

/// FNV-1a 64-bit: the one checksum behind the tl-wire/1 frame, the WAL
/// record and the fail-point site hash. Stable across runs and
/// platforms, dependency-free, and cheap enough to run on every frame.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors of the published FNV-1a 64 parameters: the
    /// wire, WAL and fail-point hashes are this function, so these pin
    /// every persisted and transmitted checksum.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            (FaultKind::Parse, "parse"),
            (FaultKind::BudgetExhausted, "budget-exhausted"),
            (FaultKind::GroupTooLarge, "group-too-large"),
            (FaultKind::CorruptSummary, "corrupt-summary"),
            (FaultKind::WorkerPanic, "worker-panic"),
            (FaultKind::Timeout, "timeout"),
        ];
        for (kind, name) in kinds {
            assert_eq!(kind.as_str(), name);
        }
    }

    #[test]
    fn display_includes_kind_and_message() {
        let f = Fault::parse("bad tag");
        assert_eq!(f.to_string(), "[parse] bad tag");
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check_deadline().is_ok());
        assert!(b.check_mem(u64::MAX).is_ok());
    }

    #[test]
    fn expired_deadline_is_a_timeout() {
        let b = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::default()
        };
        let err = b.check_deadline().unwrap_err();
        assert_eq!(err.kind, FaultKind::Timeout);
    }

    #[test]
    fn mem_cap_trips_only_above_cap() {
        let b = Budget::unlimited().with_max_mem_bytes(100);
        assert!(b.check_mem(100).is_ok());
        let err = b.check_mem(101).unwrap_err();
        assert_eq!(err.kind, FaultKind::BudgetExhausted);
    }

    /// Pins the exit-code table. These numbers are an external contract
    /// (CI scripts and the wire protocol both branch on them); changing
    /// any row is a breaking change and must fail loudly here.
    #[test]
    fn exit_code_table_is_pinned() {
        assert_eq!(exit_code(Outcome::Success), 0);
        assert_eq!(exit_code(Outcome::DegradedOk), 0);
        assert_eq!(exit_code(Outcome::UsageError), 2);
        assert_eq!(exit_code(Outcome::Fault), 3);
    }

    #[test]
    fn degradation_display() {
        assert_eq!(Degradation::None.to_string(), "none");
        assert_eq!(Degradation::ReducedK { k: 2 }.to_string(), "reduced-k(2)");
        assert_eq!(Degradation::Markov.to_string(), "markov-fallback");
        assert!(!Degradation::None.is_degraded());
        assert!(Degradation::Markov.is_degraded());
    }
}
