//! Deterministic, seeded fail-point harness.
//!
//! A fail-point is a named site in production code that asks
//! [`fire`]`("site.name")` whether it should inject a fault this time.
//! When no plan is active the call is a single relaxed atomic load; with
//! the `failpoints` cargo feature disabled the whole module compiles to
//! no-ops and the sites vanish from the binary.
//!
//! Activation is either programmatic ([`activate`] / the test-friendly
//! [`with_active`]) or environmental (`TL_CHAOS` holds the spec,
//! `TL_CHAOS_SEED` the seed) — the CLI maps its `--chaos`/`--chaos-seed`
//! flags onto the same entry points.
//!
//! # Spec grammar
//!
//! A plan is `site=rule` pairs separated by `;`:
//!
//! | rule     | behaviour                                              |
//! |----------|--------------------------------------------------------|
//! | `always` | fire on every hit                                      |
//! | `never`  | never fire (site still counts hits)                    |
//! | `nth:N`  | fire exactly on the N-th hit (1-based)                 |
//! | `1inN`   | fire pseudo-randomly ~1/N of hits, seeded and          |
//! |          | deterministic in (seed, site, hit index)               |
//!
//! Example: `xml.parse=nth:2;engine.worker=1in4`.

/// Canonical fail-point site names. Keeping them in one place means the
/// chaos suite can enumerate every site the pipeline defines.
pub mod sites {
    /// Inside `tl_xml::parse_document`: injects a parse error.
    pub const XML_PARSE: &str = "xml.parse";
    /// Inside `TreeLattice::from_bytes`, before checksum verification:
    /// flips a payload byte so the frame check must catch it.
    pub const SUMMARY_CORRUPT: &str = "summary.corrupt";
    /// Inside `Budget::check_deadline`: simulates deadline expiry.
    pub const BUDGET_DEADLINE: &str = "budget.deadline";
    /// Inside `Budget::check_mem`: simulates an allocation-cap hit.
    pub const BUDGET_MEM: &str = "budget.mem";
    /// Inside each resilient batch worker: panics, exercising the
    /// engine's `catch_unwind` containment.
    pub const ENGINE_WORKER: &str = "engine.worker";
    /// Between mining levels: simulates deadline expiry, forcing an
    /// early stop at a lower order.
    pub const MINER_DEADLINE: &str = "miner.deadline";
    /// Inside `WalWriter::append`: the record frame is torn mid-body (a
    /// partial prefix reaches the file) and the append fails.
    pub const WAL_APPEND_TORN: &str = "wal.append.torn";
    /// Inside `WalWriter::append`: the frame lands short of its trailing
    /// checksum bytes and the append fails.
    pub const WAL_APPEND_SHORT: &str = "wal.append.short";
    /// Inside `WalWriter`: fsync reports an I/O error after the record
    /// bytes were written; the writer must undo the record before
    /// surfacing the fault so the file never holds an unacknowledged
    /// complete record.
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// Inside the snapshot protocol: crash after the temp file is
    /// durable but before the rename publishes it.
    pub const SNAPSHOT_BEFORE_RENAME: &str = "snapshot.before_rename";
    /// Inside the snapshot protocol: crash after the rename publishes
    /// the snapshot but before the WAL is truncated.
    pub const SNAPSHOT_AFTER_RENAME: &str = "snapshot.after_rename";

    /// Every site the pipeline defines, for exhaustive chaos sweeps.
    pub const ALL: &[&str] = &[
        XML_PARSE,
        SUMMARY_CORRUPT,
        BUDGET_DEADLINE,
        BUDGET_MEM,
        ENGINE_WORKER,
        MINER_DEADLINE,
        WAL_APPEND_TORN,
        WAL_APPEND_SHORT,
        WAL_FSYNC,
        SNAPSHOT_BEFORE_RENAME,
        SNAPSHOT_AFTER_RENAME,
    ];
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Fast-path gate: `fire` bails on one relaxed load unless a plan is
    /// active, so disabled fail-points cost nothing measurable.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static INJECTED: AtomicU64 = AtomicU64::new(0);

    fn plan_slot() -> &'static Mutex<Option<Plan>> {
        static PLAN: OnceLock<Mutex<Option<Plan>>> = OnceLock::new();
        PLAN.get_or_init(|| Mutex::new(None))
    }

    /// Orders tests around global plans: a test that activates a plan
    /// holds the write side (`with_active` takes it), a test that runs
    /// fail-point sites without a plan holds the read side, so no plan
    /// fires in a test that did not ask for it.
    static GATE: RwLock<()> = RwLock::new(());

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Rule {
        Always,
        Never,
        Nth(u64),
        OneIn(u64),
    }

    #[derive(Debug)]
    struct Site {
        name: String,
        rule: Rule,
        hits: u64,
    }

    #[derive(Debug)]
    struct Plan {
        seed: u64,
        sites: Vec<Site>,
    }

    fn parse_rule(s: &str) -> Result<Rule, String> {
        if s == "always" {
            return Ok(Rule::Always);
        }
        if s == "never" {
            return Ok(Rule::Never);
        }
        if let Some(n) = s.strip_prefix("nth:") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad nth count in rule `{s}`"))?;
            if n == 0 {
                return Err("nth count must be >= 1".into());
            }
            return Ok(Rule::Nth(n));
        }
        if let Some(n) = s.strip_prefix("1in") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad denominator in rule `{s}`"))?;
            if n == 0 {
                return Err("1inN denominator must be >= 1".into());
            }
            return Ok(Rule::OneIn(n));
        }
        Err(format!(
            "unknown fail-point rule `{s}` (expected always, never, nth:N, or 1inN)"
        ))
    }

    fn parse_spec(spec: &str) -> Result<Vec<Site>, String> {
        let mut sites = Vec::new();
        for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
            let (name, rule) = part
                .split_once('=')
                .ok_or_else(|| format!("fail-point entry `{part}` is missing `=rule`"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(format!("fail-point entry `{part}` has an empty site name"));
            }
            sites.push(Site {
                name: name.to_owned(),
                rule: parse_rule(rule.trim())?,
                hits: 0,
            });
        }
        if sites.is_empty() {
            return Err("empty fail-point spec".into());
        }
        Ok(sites)
    }

    /// splitmix64: the deterministic per-hit coin for `1inN` rules.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Installs a fail-point plan. Replaces any active plan. Errors on a
    /// malformed spec (the caller maps this to a usage error).
    pub fn activate(spec: &str, seed: u64) -> Result<(), String> {
        let sites = parse_spec(spec)?;
        let mut guard = plan_slot().lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(Plan { seed, sites });
        ACTIVE.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Removes the active plan; all sites go back to never firing.
    pub fn deactivate() {
        let mut guard = plan_slot().lock().unwrap_or_else(PoisonError::into_inner);
        ACTIVE.store(false, Ordering::SeqCst);
        *guard = None;
    }

    /// True when a plan is installed.
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Total faults injected since process start (monotonic).
    pub fn injected_total() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// Reads `TL_CHAOS` / `TL_CHAOS_SEED` and installs the plan they
    /// describe. Returns `Ok(false)` when `TL_CHAOS` is unset.
    pub fn activate_from_env() -> Result<bool, String> {
        let spec = match std::env::var("TL_CHAOS") {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Ok(false),
        };
        let seed = match std::env::var("TL_CHAOS_SEED") {
            Ok(s) => s
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("TL_CHAOS_SEED `{s}` is not a u64"))?,
            Err(_) => 0,
        };
        activate(&spec, seed)?;
        Ok(true)
    }

    /// Should the fail-point at `site` inject a fault now?
    ///
    /// One relaxed atomic load when no plan is active.
    #[inline]
    pub fn fire(site: &str) -> bool {
        if !ACTIVE.load(Ordering::Relaxed) {
            return false;
        }
        fire_slow(site)
    }

    #[cold]
    fn fire_slow(site: &str) -> bool {
        let mut guard = plan_slot().lock().unwrap_or_else(PoisonError::into_inner);
        let Some(plan) = guard.as_mut() else {
            return false;
        };
        let seed = plan.seed;
        let Some(entry) = plan.sites.iter_mut().find(|s| s.name == site) else {
            return false;
        };
        entry.hits += 1;
        let fired = match entry.rule {
            Rule::Always => true,
            Rule::Never => false,
            Rule::Nth(n) => entry.hits == n,
            Rule::OneIn(n) => {
                let coin = splitmix64(seed ^ crate::fnv1a(site.as_bytes()) ^ entry.hits);
                coin.is_multiple_of(n)
            }
        };
        if fired {
            INJECTED.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// An exclusive hold on the global fail-point state, for code that
    /// activates plans or needs to serialize chaos activity around a
    /// multi-step critical section. Waits out every other holder.
    pub fn exclusive() -> Exclusive {
        Exclusive {
            _hold: GATE.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// The guard [`exclusive`] returns.
    pub struct Exclusive {
        _hold: RwLockWriteGuard<'static, ()>,
    }

    impl Exclusive {
        /// [`with_active`] under this hold: a test that runs plan-free
        /// steps between its plans keeps one hold throughout, so no
        /// other test's plan can fire in those steps.
        pub fn with_active<T>(&self, spec: &str, seed: u64, f: impl FnOnce() -> T) -> T {
            activate(spec, seed).expect("invalid fail-point spec in test");
            struct Deactivate;
            impl Drop for Deactivate {
                fn drop(&mut self) {
                    deactivate();
                }
            }
            let _d = Deactivate;
            f()
        }
    }

    /// A shared hold: no plan is activated through [`exclusive`] or
    /// [`with_active`] while it lives. Tests that run fail-point sites
    /// without a plan of their own take it; any number of them run
    /// side by side.
    pub fn shared() -> RwLockReadGuard<'static, ()> {
        GATE.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with `spec` active under `seed`, deactivating afterwards
    /// even if `f` panics. Serialized process-wide so concurrent tests
    /// never observe each other's plans. It takes [`exclusive`] itself,
    /// so a caller already holding it uses [`Exclusive::with_active`].
    pub fn with_active<T>(spec: &str, seed: u64, f: impl FnOnce() -> T) -> T {
        exclusive().with_active(spec, seed, f)
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    //! Feature-off stubs: everything is inert and `fire` is a constant
    //! `false` the optimizer deletes.

    #[inline(always)]
    pub fn fire(_site: &str) -> bool {
        false
    }

    pub fn activate(_spec: &str, _seed: u64) -> Result<(), String> {
        Err("fail-points were compiled out (feature `failpoints` is disabled)".into())
    }

    pub fn deactivate() {}

    pub fn is_active() -> bool {
        false
    }

    pub fn injected_total() -> u64 {
        0
    }

    pub fn activate_from_env() -> Result<bool, String> {
        Ok(false)
    }

    pub fn with_active<T>(_spec: &str, _seed: u64, f: impl FnOnce() -> T) -> T {
        f()
    }
}

pub use imp::{
    activate, activate_from_env, deactivate, fire, injected_total, is_active, with_active,
};

#[cfg(feature = "failpoints")]
pub use imp::{exclusive, shared, Exclusive};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn inactive_sites_never_fire() {
        let _guard = exclusive();
        deactivate();
        assert!(!fire(sites::XML_PARSE));
        assert!(!is_active());
    }

    #[test]
    fn always_and_never() {
        with_active("a=always;b=never", 0, || {
            for _ in 0..5 {
                assert!(fire("a"));
                assert!(!fire("b"));
            }
            // Unconfigured sites never fire even while a plan is active.
            assert!(!fire("c"));
        });
    }

    #[test]
    fn nth_fires_exactly_once() {
        with_active("s=nth:3", 0, || {
            let fired: Vec<bool> = (0..6).map(|_| fire("s")).collect();
            assert_eq!(fired, vec![false, false, true, false, false, false]);
        });
    }

    #[test]
    fn one_in_n_is_deterministic_per_seed() {
        let run = |seed| {
            with_active("s=1in3", seed, || {
                (0..64).map(|_| fire("s")).collect::<Vec<_>>()
            })
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must reproduce the same firing pattern");
        assert_ne!(a, c, "different seeds should differ over 64 hits");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0, "1in3 over 64 hits should fire at least once");
    }

    #[test]
    fn injected_total_is_monotonic() {
        let before = injected_total();
        with_active("s=always", 0, || {
            fire("s");
            fire("s");
        });
        assert!(injected_total() >= before + 2);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "",
            "s",
            "s=",
            "s=sometimes",
            "s=nth:0",
            "s=1in0",
            "=always",
            "s=nth:x",
        ] {
            let _guard = exclusive();
            assert!(
                activate(spec, 0).is_err(),
                "spec `{spec}` should be rejected"
            );
            deactivate();
        }
    }

    #[test]
    fn with_active_deactivates_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_active("s=always", 0, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(
            !is_active(),
            "plan must be cleared after a panicking closure"
        );
    }
}
