//! # tl-cli — the `treelattice` command-line tool
//!
//! A thin, dependency-free front end over the workspace:
//!
//! ```text
//! treelattice build <input.xml> -o <summary.tlat> [--k N] [--delta D] [--threads N] [--values MODE]
//! treelattice estimate <summary.tlat> <query> [--estimator recursive|voting|fixed] [--values MODE] [--engine-cache] [--threads N]
//! treelattice workload <summary.tlat> <queries.txt> [--estimator ...] [--values MODE] [--engine-cache] [--threads N]
//! treelattice explain <summary.tlat> <query>
//! treelattice truth <input.xml> <query> [--values MODE]
//! treelattice inspect <summary.tlat>
//! treelattice prune <summary.tlat> -o <out.tlat> --delta D
//! treelattice gen <nasa|imdb|psd|xmark> -o <out.xml> [--scale N] [--seed N] [--values MODE]
//! treelattice metrics report <metrics.json>
//! ```
//!
//! `workload` estimates one query per line of `<queries.txt>` (blank lines
//! and `#` comments skipped). `--engine-cache` routes estimation through
//! the shared cross-query sub-twig cache ([`treelattice::EstimationEngine`])
//! and reports its hit rate; `--threads` sets the batch worker count
//! (0 = available parallelism).
//!
//! `MODE` is `ignore` (default), `exact`, or `bucket:<N>`; pass the same
//! mode to `build`, `estimate`, and `truth` so value predicates
//! (`item[incategory="category3"]`) resolve to the labels the summary was
//! built with.
//!
//! Every command accepts a global `--metrics <path>` flag that records the
//! invocation in a [`tl_obs::MetricsRecorder`] and writes a `tl-metrics/1`
//! JSON snapshot to `<path>` on success; `metrics report` renders such a
//! snapshot as a table. `estimate` also accepts an `.xml` file in place of
//! a summary: it builds a throwaway in-memory lattice (`--k`, default 4)
//! and reports the exact match count alongside the estimate, so one
//! invocation exercises — and with `--metrics`, measures — the whole
//! pipeline.
//!
//! ## Resource budgets and fault injection
//!
//! `build`, `estimate`, and `workload` take resource-budget flags:
//! `--budget-ms <N>` (wall-clock deadline), `--budget-mem <BYTES>`
//! (memoization/lattice memory cap), and `--budget-k <N>` (decomposition
//! order cap). Under a budget the estimator *degrades* instead of failing
//! — it falls back to a smaller fix-sized order, then to a first-order
//! Markov model — and a degraded run still exits `0`, with a note on
//! stderr naming the rung taken. The global `--chaos <spec>` /
//! `--chaos-seed <N>` flags (or `TL_CHAOS` / `TL_CHAOS_SEED` in the
//! environment) activate the deterministic fail-point harness in
//! [`tl_fault::failpoints`] for the invocation.
//!
//! Exit codes: `0` success (including degraded estimates), `2` usage
//! error, `3` fault (missing/corrupt input, parse failure, injected or
//! real pipeline fault).
//!
//! All command logic lives in [`run`], which writes stdout and stderr text
//! to injected sinks so the test suite can drive the full tool without
//! spawning processes.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use tl_datagen::{Dataset, GenConfig};
use tl_fault::failpoints;
use tl_twig::parse_twig_in;
use tl_xml::{parse_document_observed, DocIndex, ParseOptions, ValueMode};
use treelattice::{
    exit_code, Budget, BuildConfig, Catalog as _, CorpusConfig, EngineConfig, EstimateOptions,
    EstimationEngine, Estimator, Fault, MmapCatalog, Outcome, ResilientEstimate, TreeLattice,
};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 3 = fault).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: exit_code(Outcome::UsageError),
        }
    }

    /// A pipeline fault: missing or corrupt input, a parse failure, or an
    /// injected/real fault surfaced by the estimation stack. Exit code 3,
    /// distinct from usage errors (2) and degraded-but-successful runs (0).
    /// The numbers come from the one shared table in
    /// [`tl_fault::exit_code`], which the server's request-level status
    /// codes use too.
    fn fault(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: exit_code(Outcome::Fault),
        }
    }
}

impl From<Fault> for CliError {
    fn from(fault: Fault) -> Self {
        CliError::fault(fault.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// The tool's usage text.
pub const USAGE: &str = "\
treelattice — twig selectivity estimation over XML documents

USAGE:
  treelattice build <input.xml> -o <summary.tlat> [--k N] [--delta D] [--threads N] [--values MODE]
  treelattice mine <corpus-dir> -o <summary.tlat> [--k N] [--shards N] [--threads N] [--delta D] [--values MODE]
  treelattice summary merge <a.tlat> <b.tlat> [more.tlat ...] -o <out.tlat> [--delta D]
  treelattice summary recover <wal-dir> -o <out.tlat> [--base <base.tlat>] [--online-budget N]
  treelattice summary snapshot <wal-dir> [--base <base.tlat>] [--online-budget N]
  treelattice estimate <summary.tlat|input.xml> <query> [--estimator recursive|voting|fixed] [--values MODE] [--engine-cache] [--mmap] [--threads N] [--k N]
  treelattice workload <summary.tlat> <queries.txt> [--estimator recursive|voting|fixed] [--values MODE] [--engine-cache] [--threads N]
  treelattice explain <summary.tlat> <query>
  treelattice truth <input.xml> <query> [--values MODE]
  treelattice inspect <summary.tlat>
  treelattice prune <summary.tlat> -o <out.tlat> --delta D
  treelattice gen <nasa|imdb|psd|xmark> -o <out.xml> [--scale N] [--seed N] [--values MODE]
  treelattice metrics report <metrics.json>

Queries use the twig syntax: a/b/c, //laptop[brand][price], a[b[d]][c/e];
with --values, equality predicates like item[incategory=\"category3\"].
MODE is ignore (default), exact, or bucket:<N>.
`workload` reads one query per line; --engine-cache shares sub-twig
estimates across the whole batch and reports the cache hit rate.
Any command also takes --metrics <path>: on success a tl-metrics/1 JSON
snapshot (parse/index/mine/match/cache/latency metrics) is written there;
render one with `metrics report`. Passing an .xml file to `estimate`
builds a throwaway in-memory lattice (--k, default 4) and reports the
exact match count alongside the estimate.
build/estimate/workload take resource budgets: --budget-ms N (deadline),
--budget-mem BYTES (memory cap), --budget-k N (decomposition order cap).
Budgeted estimates degrade (smaller fix-sized order, then a first-order
Markov model) instead of failing, exit 0, and note the rung on stderr.
The global --chaos <spec> / --chaos-seed <N> flags (or TL_CHAOS /
TL_CHAOS_SEED) activate the deterministic fail-point harness.
`mine` builds one merged summary over every .xml file in a directory
(lexicographic order), sharding documents across --shards workers
(0 = all cores); results are bit-identical for every shard count.
`summary merge` folds existing summaries into one: counts add, label
universes union. With --delta, pruning runs once after the final merge
(delta-pruning does not commute with merging). `summary recover` runs
tl-server's startup recovery offline over a --wal-dir durability
directory (newest valid snapshot + write-ahead-log tail; a torn final
record is a clean end-of-log, mid-log corruption exits 3) and writes the
recovered state as a plain summary; `summary snapshot` additionally
publishes an atomic snapshot there and truncates the WAL.
`estimate --mmap` serves
pattern lookups zero-copy from the on-disk frame through a
checksum-validated memory map instead of loading the summary.
Exit codes: 0 = success or degraded, 2 = usage error, 3 = fault.
Catalog-open faults exit 3 like any other fault: a missing file, a
truncated frame, or a checksum mismatch (CorruptSummary) — whether from
`estimate`, `estimate --mmap`, `summary merge`, or `inspect`.
";

/// Per-invocation observability: holds a live [`tl_obs::MetricsRecorder`]
/// when `--metrics <path>` was given, and the no-op recorder otherwise.
struct Obs {
    recorder: Option<Arc<tl_obs::MetricsRecorder>>,
    path: Option<String>,
}

impl Obs {
    /// The recorder to thread through `*_observed` APIs.
    fn rec(&self) -> &dyn tl_obs::Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => &tl_obs::NOOP,
        }
    }

    /// A shared handle for the estimation engine's worker threads.
    fn shared(&self) -> Arc<dyn tl_obs::Recorder> {
        match &self.recorder {
            Some(r) => r.clone(),
            None => Arc::new(tl_obs::Noop),
        }
    }

    /// Writes the snapshot to the requested path, if any.
    fn write(&self) -> Result<(), CliError> {
        if let (Some(rec), Some(path)) = (&self.recorder, &self.path) {
            write_file(path, rec.snapshot().to_json().as_bytes())?;
        }
        Ok(())
    }
}

/// The global flags shared by every command: `--metrics <path>`,
/// `--chaos <spec>`, and `--chaos-seed <N>`.
struct Globals {
    obs: Obs,
    chaos_spec: Option<String>,
    chaos_seed: u64,
}

/// Extracts the global flags from anywhere in the argument list, returning
/// the remaining arguments and the global context.
fn strip_globals(args: &[String]) -> Result<(Vec<String>, Globals), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut path = None;
    let mut chaos_spec = None;
    let mut chaos_seed = 0u64;
    let mut i = 0;
    let take_value = |args: &[String], i: usize, name: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("{name} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                path = Some(take_value(args, i, "--metrics")?);
                i += 2;
            }
            "--chaos" => {
                chaos_spec = Some(take_value(args, i, "--chaos")?);
                i += 2;
            }
            "--chaos-seed" => {
                chaos_seed = take_value(args, i, "--chaos-seed")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--chaos-seed: {e}")))?;
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let recorder = path
        .as_ref()
        .map(|_| Arc::new(tl_obs::MetricsRecorder::with_schema()));
    Ok((
        rest,
        Globals {
            obs: Obs { recorder, path },
            chaos_spec,
            chaos_seed,
        },
    ))
}

/// Deactivates the fail-point harness when the invocation ends, even if a
/// command errors out mid-way.
struct ChaosGuard {
    active: bool,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        if self.active {
            failpoints::deactivate();
        }
    }
}

/// Activates the fail-point harness for this invocation from `--chaos` /
/// `--chaos-seed`, falling back to the `TL_CHAOS` / `TL_CHAOS_SEED`
/// environment variables when the flags are absent.
fn activate_chaos(globals: &Globals) -> Result<ChaosGuard, CliError> {
    match &globals.chaos_spec {
        Some(spec) => {
            failpoints::activate(spec, globals.chaos_seed)
                .map_err(|e| CliError::usage(format!("--chaos: {e}")))?;
            Ok(ChaosGuard { active: true })
        }
        None => {
            let active = failpoints::activate_from_env()
                .map_err(|e| CliError::usage(format!("TL_CHAOS: {e}")))?;
            Ok(ChaosGuard { active })
        }
    }
}

/// Runs one invocation; `args` excludes the program name. Normal output
/// goes to `out`; advisory notes (degradation provenance, early-stop
/// notices) go to `err`, which the binary prints to stderr. A run that
/// only degraded — never failed — returns `Ok` with a note in `err`.
pub fn run(args: &[String], out: &mut String, err: &mut String) -> Result<(), CliError> {
    let (args, globals) = strip_globals(args)?;
    let chaos = activate_chaos(&globals)?;
    let injected_before = failpoints::injected_total();
    let obs = &globals.obs;
    let Some(command) = args.first() else {
        return Err(CliError::usage(USAGE));
    };
    if let Some(rec) = &obs.recorder {
        rec.set_meta("command", command.as_str());
    }
    let rest = &args[1..];
    let result = match command.as_str() {
        "build" => cmd_build(rest, out, err, obs),
        "mine" => cmd_mine(rest, out, obs),
        "summary" => cmd_summary(rest, out),
        "estimate" => cmd_estimate(rest, out, err, obs),
        "workload" => cmd_workload(rest, out, err, obs),
        "explain" => cmd_explain(rest, out),
        "truth" => cmd_truth(rest, out, obs),
        "inspect" => cmd_inspect(rest, out),
        "prune" => cmd_prune(rest, out),
        "gen" => cmd_gen(rest, out, obs),
        "metrics" => cmd_metrics(rest, out),
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    if chaos.active {
        let injected = failpoints::injected_total().saturating_sub(injected_before);
        obs.rec().add(tl_obs::names::FAULT_INJECTED, injected);
    }
    result?;
    obs.write()
}

/// Consumes the `--budget-ms` / `--budget-mem` / `--budget-k` flags,
/// returning the assembled [`Budget`] and whether any limit was set.
fn parse_budget(args: &mut Args<'_>) -> Result<(Budget, bool), CliError> {
    let ms: Option<u64> = args.numeric("--budget-ms")?;
    let mem: Option<u64> = args.numeric("--budget-mem")?;
    let max_k: Option<usize> = args.numeric("--budget-k")?;
    let mut budget = Budget::unlimited();
    if let Some(ms) = ms {
        budget = budget.with_time_limit(Duration::from_millis(ms));
    }
    if let Some(bytes) = mem {
        budget = budget.with_max_mem_bytes(bytes);
    }
    if let Some(k) = max_k {
        if k < 2 {
            return Err(CliError::usage("--budget-k must be at least 2"));
        }
        budget = budget.with_max_k(k);
    }
    Ok((budget, ms.is_some() || mem.is_some() || max_k.is_some()))
}

/// Appends the stderr note for a degraded estimate.
fn note_degraded(err: &mut String, what: &str, est: &ResilientEstimate) {
    if est.degradation.is_degraded() {
        let _ = write!(err, "note: {what} degraded to {}", est.degradation);
        match &est.cause {
            Some(cause) => {
                let _ = writeln!(err, " ({cause})");
            }
            None => err.push('\n'),
        }
    }
}

/// Minimal flag cursor: positionals in order, flags anywhere.
struct Args<'a> {
    items: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(items: &'a [String]) -> Self {
        Self {
            items,
            used: vec![false; items.len()],
        }
    }

    /// Consumes a boolean flag, returning whether it was present.
    fn flag(&mut self, name: &str) -> bool {
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn flag_value(&mut self, name: &str) -> Result<Option<&'a str>, CliError> {
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                let v = self
                    .items
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage(format!("{name} needs a value")))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn numeric<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag_value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| CliError::usage(format!("{name}: {e}"))),
        }
    }

    fn positional(&mut self, what: &str) -> Result<&'a str, CliError> {
        for i in 0..self.items.len() {
            if !self.used[i] && !self.items[i].starts_with("--") && self.items[i] != "-o" {
                self.used[i] = true;
                return Ok(&self.items[i]);
            }
        }
        Err(CliError::usage(format!("missing <{what}>")))
    }

    fn finish(self) -> Result<(), CliError> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(CliError::usage(format!(
                    "unexpected argument `{}`",
                    self.items[i]
                )));
            }
        }
        Ok(())
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::fault(format!("{path}: {e}")))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| CliError::fault(format!("{path}: {e}")))?;
        }
    }
    std::fs::write(path, bytes).map_err(|e| CliError::fault(format!("{path}: {e}")))
}

fn load_document_with(
    path: &str,
    values: ValueMode,
    rec: &dyn tl_obs::Recorder,
) -> Result<tl_xml::Document, CliError> {
    let bytes = read_file(path)?;
    parse_document_observed(
        &bytes,
        ParseOptions {
            values,
            ..Default::default()
        },
        rec,
    )
    .map_err(|e| CliError::fault(format!("{path}: XML parse error at {e}")))
}

fn load_summary(path: &str) -> Result<TreeLattice, CliError> {
    let bytes = read_file(path)?;
    TreeLattice::from_bytes(&bytes).map_err(|e| CliError::fault(format!("{path}: {e}")))
}

fn parse_value_mode(name: Option<&str>) -> Result<ValueMode, CliError> {
    match name.unwrap_or("ignore") {
        "ignore" => Ok(ValueMode::Ignore),
        "exact" => Ok(ValueMode::AsLabels),
        other => {
            if let Some(n) = other.strip_prefix("bucket:") {
                let buckets: u32 = n
                    .parse()
                    .map_err(|e| CliError::usage(format!("--values bucket: {e}")))?;
                Ok(ValueMode::Bucketed(buckets))
            } else {
                Err(CliError::usage(format!(
                    "unknown value mode `{other}` (expected ignore|exact|bucket:<N>)"
                )))
            }
        }
    }
}

fn parse_estimator(name: Option<&str>) -> Result<Estimator, CliError> {
    match name.unwrap_or("voting") {
        "recursive" | "rec" => Ok(Estimator::Recursive),
        "voting" | "vote" => Ok(Estimator::RecursiveVoting),
        "fixed" | "fix" | "fix-sized" => Ok(Estimator::FixSized),
        other => Err(CliError::usage(format!(
            "unknown estimator `{other}` (expected recursive|voting|fixed)"
        ))),
    }
}

fn cmd_build(
    rest: &[String],
    out: &mut String,
    err: &mut String,
    obs: &Obs,
) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("build needs -o <summary.tlat>"))?
        .to_owned();
    let k: usize = args.numeric("--k")?.unwrap_or(4);
    let delta: Option<f64> = args.numeric("--delta")?;
    let threads: usize = args.numeric("--threads")?.unwrap_or(0);
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let (budget, _) = parse_budget(&mut args)?;
    let input = args.positional("input.xml")?.to_owned();
    args.finish()?;
    if k < 2 {
        return Err(CliError::usage("--k must be at least 2"));
    }

    let doc = load_document_with(&input, values, obs.rec())?;
    let start = std::time::Instant::now();
    let index = DocIndex::new_observed(&doc, obs.rec());
    let (lattice, stopped_early) = TreeLattice::build_with_report(
        &doc,
        &index,
        &BuildConfig {
            k,
            threads,
            prune_delta: delta,
            budget,
        },
        obs.rec(),
    );
    if let Some(fault) = stopped_early {
        // The lower-order lattice is still exact and usable; the budget
        // trip is advisory, not fatal.
        obs.rec().add(tl_obs::names::FAULT_TOTAL, 1);
        let _ = writeln!(
            err,
            "note: mining stopped early at order {} ({fault})",
            lattice.k()
        );
    }
    let elapsed = start.elapsed();
    write_file(&output, &lattice.to_bytes())?;
    let _ = writeln!(
        out,
        "built {}-lattice over {} elements in {:.2?}: {} patterns, {} bytes -> {output}",
        lattice.k(),
        doc.len(),
        elapsed,
        lattice.summary().len(),
        lattice.summary_bytes(),
    );
    Ok(())
}

/// `mine <corpus-dir>`: builds one merged summary over every `.xml` file
/// in a directory, sharding documents across workers (the merge-monoid
/// path — bit-identical to mining the concatenated corpus sequentially).
fn cmd_mine(rest: &[String], out: &mut String, obs: &Obs) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("mine needs -o <summary.tlat>"))?
        .to_owned();
    let k: usize = args.numeric("--k")?.unwrap_or(4);
    let shards: usize = args.numeric("--shards")?.unwrap_or(0);
    let threads: usize = args.numeric("--threads")?.unwrap_or(1);
    let delta: Option<f64> = args.numeric("--delta")?;
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let input = args.positional("corpus-dir")?.to_owned();
    args.finish()?;
    if k < 2 {
        return Err(CliError::usage("--k must be at least 2"));
    }
    if let Some(d) = delta {
        if !(0.0..=1.0).contains(&d) {
            return Err(CliError::usage("--delta must be in [0, 1]"));
        }
    }

    let entries =
        std::fs::read_dir(&input).map_err(|e| CliError::fault(format!("{input}: {e}")))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    // Lexicographic order keeps the corpus — and hence the merged summary
    // bytes — independent of directory-enumeration order.
    files.sort();
    if files.is_empty() {
        return Err(CliError::fault(format!("{input}: no .xml files")));
    }
    let docs: Vec<tl_xml::Document> = files
        .iter()
        .map(|p| load_document_with(&p.to_string_lossy(), values, obs.rec()))
        .collect::<Result<_, _>>()?;

    let start = std::time::Instant::now();
    let lattice = TreeLattice::build_corpus_observed(
        &docs,
        CorpusConfig {
            max_size: k,
            shards,
            threads,
        },
        delta,
        obs.rec(),
    );
    let elapsed = start.elapsed();
    write_file(&output, &lattice.to_bytes())?;
    let elements: usize = docs.iter().map(tl_xml::Document::len).sum();
    let _ = writeln!(
        out,
        "mined {} documents ({} elements) into a {}-lattice in {:.2?}: {} patterns, {} bytes -> {output}",
        docs.len(),
        elements,
        lattice.k(),
        elapsed,
        lattice.summary().len(),
        lattice.summary_bytes(),
    );
    Ok(())
}

/// `summary merge`: folds stored summaries into one over the union of
/// their label universes, with counts added and δ-pruning (if requested)
/// applied once after the final merge.
fn cmd_summary(rest: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let action = args.positional("merge")?.to_owned();
    match action.as_str() {
        "merge" => {}
        "recover" => return cmd_summary_recover(args, out),
        "snapshot" => return cmd_summary_snapshot(args, out),
        other => {
            return Err(CliError::usage(format!(
                "unknown summary action `{other}` (expected merge|recover|snapshot)"
            )))
        }
    }
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("summary merge needs -o <out.tlat>"))?
        .to_owned();
    let delta: Option<f64> = args.numeric("--delta")?;
    let mut inputs = Vec::new();
    while let Ok(path) = args.positional("summary.tlat") {
        inputs.push(path.to_owned());
    }
    args.finish()?;
    if inputs.len() < 2 {
        return Err(CliError::usage(
            "summary merge needs at least two input summaries",
        ));
    }
    if let Some(d) = delta {
        if !(0.0..=1.0).contains(&d) {
            return Err(CliError::usage("--delta must be in [0, 1]"));
        }
    }

    let mut merged = load_summary(&inputs[0])?;
    for path in &inputs[1..] {
        let other = load_summary(path)?;
        merged.merge(&other);
    }
    if let Some(d) = delta {
        merged.prune(d);
    }
    write_file(&output, &merged.to_bytes())?;
    let _ = writeln!(
        out,
        "merged {} summaries: k = {}, {} labels, {} patterns, {} bytes -> {output}",
        inputs.len(),
        merged.k(),
        merged.labels().len(),
        merged.summary().len(),
        merged.summary_bytes(),
    );
    Ok(())
}

/// `summary recover <wal-dir> --base <base.tlat> -o <out.tlat>`: offline
/// recovery — newest valid snapshot plus WAL-tail replay — materialized
/// as a plain summary frame. The durability directory is not modified.
fn cmd_summary_recover(mut args: Args<'_>, out: &mut String) -> Result<(), CliError> {
    let wal_dir = args.positional("wal-dir")?.to_owned();
    let base = args.flag_value("--base")?.map(str::to_owned);
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("summary recover needs -o <out.tlat>"))?
        .to_owned();
    let online_budget: Option<usize> = args.numeric("--online-budget")?;
    args.finish()?;

    let base_lattice = base.as_deref().map(load_summary).transpose()?;
    let opts = treelattice::DurableOptions {
        online_budget: online_budget.unwrap_or(1 << 20),
        ..treelattice::DurableOptions::default()
    };
    let recovered = treelattice::recover(
        std::path::Path::new(&wal_dir),
        base_lattice.as_ref(),
        &opts,
        &tl_obs::NOOP,
    )?;
    write_file(&output, &recovered.tuned.lattice().to_bytes())?;
    let _ = writeln!(out, "{} -> {output}", recovered.report);
    Ok(())
}

/// `summary snapshot <wal-dir> --base <base.tlat>`: recover, then force
/// an atomic snapshot into the durability directory and truncate the
/// WAL — the operator-driven compaction path.
fn cmd_summary_snapshot(mut args: Args<'_>, out: &mut String) -> Result<(), CliError> {
    let wal_dir = args.positional("wal-dir")?.to_owned();
    let base = args.flag_value("--base")?.map(str::to_owned);
    let online_budget: Option<usize> = args.numeric("--online-budget")?;
    args.finish()?;

    let base_lattice = base.as_deref().map(load_summary).transpose()?;
    let opts = treelattice::DurableOptions {
        online_budget: online_budget.unwrap_or(1 << 20),
        ..treelattice::DurableOptions::default()
    };
    let (mut durable, report) = treelattice::DurableLattice::open(
        std::path::Path::new(&wal_dir),
        base_lattice.as_ref(),
        &opts,
        &tl_obs::NOOP,
    )?;
    let _ = writeln!(out, "{report}");
    let seq = durable.snapshot(&tl_obs::NOOP)?;
    let _ = writeln!(out, "snapshot published at seq {seq}, wal truncated");
    Ok(())
}

fn cmd_estimate(
    rest: &[String],
    out: &mut String,
    err: &mut String,
    obs: &Obs,
) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let estimator = {
        let value = args.flag_value("--estimator")?.map(str::to_owned);
        parse_estimator(value.as_deref())?
    };
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let engine_cache = args.flag("--engine-cache");
    let use_mmap = args.flag("--mmap");
    let threads: usize = args.numeric("--threads")?.unwrap_or(0);
    let k: usize = args.numeric("--k")?.unwrap_or(4);
    let (budget, budgeted) = parse_budget(&mut args)?;
    let summary_path = args.positional("summary.tlat|input.xml")?.to_owned();
    let query = args.positional("query")?.to_owned();
    args.finish()?;
    if k < 2 {
        return Err(CliError::usage("--k must be at least 2"));
    }

    // Zero-copy mode: validate the frame once, then serve every pattern
    // lookup straight from the mapped bytes — nothing is deserialized.
    if use_mmap {
        if summary_path.ends_with(".xml") {
            return Err(CliError::usage("--mmap needs a stored <summary.tlat>"));
        }
        if budgeted {
            return Err(CliError::usage(
                "--mmap does not combine with --budget-* (the degradation ladder is in-memory only)",
            ));
        }
        let catalog = MmapCatalog::open_observed(Path::new(&summary_path), obs.rec())
            .map_err(|e| CliError::fault(format!("{summary_path}: {e}")))?;
        let twig = parse_query_in(catalog.labels(), &query, values)?;
        let opts = EstimateOptions::default();
        let est = if engine_cache {
            let engine = EstimationEngine::with_recorder(
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
                obs.shared(),
            );
            engine.estimate_catalog(&catalog, &twig, estimator, &opts)
        } else {
            treelattice::estimate_catalog(&catalog, &twig, estimator, &opts)
        };
        catalog.flush_lookups(obs.rec());
        let _ = writeln!(out, "{est:.3}");
        return Ok(());
    }

    // One-shot mode: given raw XML, build a throwaway lattice in memory and
    // keep the document around to report the exact count as well.
    let one_shot = summary_path.ends_with(".xml");
    let (lattice, source) = if one_shot {
        let doc = load_document_with(&summary_path, values, obs.rec())?;
        let index = DocIndex::new_observed(&doc, obs.rec());
        let lattice = TreeLattice::build_with_index_observed(
            &doc,
            &index,
            &BuildConfig {
                k,
                threads,
                prune_delta: None,
                budget: Budget::unlimited(),
            },
            obs.rec(),
        );
        (lattice, Some((doc, index)))
    } else {
        (load_summary(&summary_path)?, None)
    };

    let twig = parse_query_for(&lattice, &query, values)?;
    let opts = EstimateOptions {
        budget,
        ..EstimateOptions::default()
    };
    let est = if engine_cache {
        let engine = EstimationEngine::with_recorder(
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
            obs.shared(),
        );
        if budgeted {
            let resilient = engine.estimate_resilient(&lattice, &twig, estimator, &opts)?;
            note_degraded(err, "estimate", &resilient);
            resilient.value
        } else {
            engine.estimate(&lattice, &twig, estimator, &opts)
        }
    } else if budgeted {
        let resilient = lattice.estimate_resilient(&twig, estimator, &opts);
        note_degraded(err, "estimate", &resilient);
        resilient.value
    } else {
        lattice.estimate_with_observed(&twig, estimator, &opts, obs.rec())
    };
    let _ = writeln!(out, "{est:.3}");

    if let Some((doc, index)) = &source {
        // In-document labels only; the exact kernel may still reject hostile
        // queries, in which case the estimate stands alone.
        let in_alphabet = twig
            .nodes()
            .all(|n| twig.label(n).index() < doc.labels().len());
        let exact = if in_alphabet {
            tl_twig::MatchCounter::with_index(doc, index)
                .observed(obs.rec())
                .try_count(&twig)
                .ok()
        } else {
            Some(0)
        };
        if let Some(count) = exact {
            let _ = writeln!(out, "# exact: {count}");
        }
    }
    Ok(())
}

/// Parses one query against a lattice's label table, honoring the value
/// mode (unknown labels map to fresh ids that estimate to zero).
fn parse_query_for(
    lattice: &TreeLattice,
    query: &str,
    values: ValueMode,
) -> Result<tl_twig::Twig, CliError> {
    parse_query_in(lattice.labels(), query, values)
}

/// [`parse_query_for`] against a bare label table — what catalog backends
/// expose without materializing a lattice. Structural queries read the
/// table in place; value predicates intern their value labels into a
/// copy.
fn parse_query_in(
    labels: &tl_xml::LabelInterner,
    query: &str,
    values: ValueMode,
) -> Result<tl_twig::Twig, CliError> {
    match values {
        ValueMode::Ignore => parse_twig_in(query, labels),
        mode => tl_twig::parse_twig_valued(query, &mut labels.clone(), mode),
    }
    .map_err(|e| CliError::usage(format!("query `{query}`: {e}")))
}

fn cmd_workload(
    rest: &[String],
    out: &mut String,
    err: &mut String,
    obs: &Obs,
) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let estimator = {
        let value = args.flag_value("--estimator")?.map(str::to_owned);
        parse_estimator(value.as_deref())?
    };
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let engine_cache = args.flag("--engine-cache");
    let threads: usize = args.numeric("--threads")?.unwrap_or(0);
    let (budget, budgeted) = parse_budget(&mut args)?;
    let summary_path = args.positional("summary.tlat")?.to_owned();
    let queries_path = args.positional("queries.txt")?.to_owned();
    args.finish()?;

    let lattice = load_summary(&summary_path)?;
    let text = String::from_utf8(read_file(&queries_path)?)
        .map_err(|_| CliError::fault(format!("{queries_path}: not valid UTF-8")))?;
    let mut queries: Vec<String> = Vec::new();
    let mut twigs: Vec<tl_twig::Twig> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        twigs.push(parse_query_for(&lattice, line, values)?);
        queries.push(line.to_owned());
    }
    if twigs.is_empty() {
        return Err(CliError::usage(format!("{queries_path}: no queries")));
    }

    let opts = EstimateOptions {
        budget,
        ..EstimateOptions::default()
    };
    let start = std::time::Instant::now();
    // Budgeted (or chaos-exposed) runs go through the resilient paths: each
    // query comes back as an estimate, possibly degraded, or a typed fault.
    let resilient = budgeted || failpoints::is_active();
    let (results, stats): (Vec<Result<ResilientEstimate, Fault>>, _) = if engine_cache {
        let engine = EstimationEngine::with_recorder(
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
            obs.shared(),
        );
        let results = if resilient {
            engine.estimate_batch_resilient(&lattice, &twigs, estimator, &opts)
        } else {
            engine
                .estimate_batch(&lattice, &twigs, estimator, &opts)
                .into_iter()
                .map(|v| Ok(ResilientEstimate::exact(v)))
                .collect()
        };
        (results, Some(engine.stats()))
    } else {
        (
            twigs
                .iter()
                .map(|t| {
                    if resilient {
                        Ok(lattice.estimate_resilient(t, estimator, &opts))
                    } else {
                        Ok(ResilientEstimate::exact(lattice.estimate_with_observed(
                            t,
                            estimator,
                            &opts,
                            obs.rec(),
                        )))
                    }
                })
                .collect(),
            None,
        )
    };
    let elapsed = start.elapsed();

    let mut degraded = 0usize;
    let mut faulted = 0usize;
    for (query, result) in queries.iter().zip(&results) {
        match result {
            Ok(est) => {
                if est.degradation.is_degraded() {
                    degraded += 1;
                }
                let _ = writeln!(out, "{:.3}\t{query}", est.value);
            }
            Err(fault) => {
                faulted += 1;
                let _ = writeln!(out, "fault:{}\t{query}", fault.kind.as_str());
            }
        }
    }
    if degraded > 0 {
        let _ = writeln!(
            err,
            "note: {degraded} of {} estimates degraded under the budget",
            results.len()
        );
    }
    if faulted > 0 {
        // The engine already counted these under fault.total; the note is
        // the user-facing side of the same signal.
        let _ = writeln!(err, "note: {faulted} of {} queries faulted", results.len());
    }
    let _ = writeln!(out, "# {} queries in {:.2?}", twigs.len(), elapsed);
    if faulted == results.len() {
        return Err(CliError::fault(format!(
            "{queries_path}: all {faulted} queries faulted"
        )));
    }
    if let Some(stats) = stats {
        let _ = writeln!(
            out,
            "# engine cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} bytes",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.entries,
            stats.bytes
        );
        let _ = writeln!(
            out,
            "# engine interner: {} keys, {} key bytes cloned; dag: {} nodes / {} refs ({:.2}x dedup)",
            stats.interner_keys,
            stats.key_clone_bytes,
            stats.dag_nodes,
            stats.dag_refs,
            stats.dedup_ratio()
        );
    }
    Ok(())
}

fn cmd_explain(rest: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let summary_path = args.positional("summary.tlat")?.to_owned();
    let query = args.positional("query")?.to_owned();
    args.finish()?;
    let lattice = load_summary(&summary_path)?;
    let text = lattice
        .explain_query(&query)
        .map_err(|e| CliError::usage(format!("query: {e}")))?;
    out.push_str(&text);
    Ok(())
}

fn cmd_truth(rest: &[String], out: &mut String, obs: &Obs) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let input = args.positional("input.xml")?.to_owned();
    let query = args.positional("query")?.to_owned();
    args.finish()?;

    let doc = load_document_with(&input, values, obs.rec())?;
    let twig = match values {
        ValueMode::Ignore => parse_twig_in(&query, doc.labels()),
        mode => tl_twig::parse_twig_valued(&query, &mut doc.labels().clone(), mode),
    }
    .map_err(|e| CliError::usage(format!("query: {e}")))?;
    // Labels unknown to the document cannot match.
    let count = if twig
        .nodes()
        .any(|n| twig.label(n).index() >= doc.labels().len())
    {
        0
    } else {
        // The exact kernel rejects hostile queries (an oversized same-label
        // sibling group makes the injective subset-DP exponential); surface
        // that as a usage error instead of a count.
        let index = DocIndex::new_observed(&doc, obs.rec());
        tl_twig::MatchCounter::with_index(&doc, &index)
            .observed(obs.rec())
            .try_count(&twig)
            .map_err(|e| CliError::usage(format!("query: {e}")))?
    };
    let _ = writeln!(out, "{count}");
    Ok(())
}

fn cmd_inspect(rest: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let summary_path = args.positional("summary.tlat")?.to_owned();
    args.finish()?;

    let lattice = load_summary(&summary_path)?;
    let _ = writeln!(
        out,
        "k = {}, labels = {}, patterns = {}, bytes = {}",
        lattice.k(),
        lattice.labels().len(),
        lattice.summary().len(),
        lattice.summary_bytes()
    );
    for (size, (stored, pruned)) in lattice.summary().level_info().iter().enumerate() {
        let _ = writeln!(
            out,
            "  level {}: {} patterns{}",
            size + 1,
            stored,
            if *pruned { " (pruned)" } else { "" }
        );
    }
    // The five highest-count patterns, as queries.
    let mut top: Vec<(u64, String)> = lattice
        .summary()
        .iter()
        .map(|(key, count)| (count, key.decode().to_query_string(lattice.labels())))
        .collect();
    top.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let _ = writeln!(out, "top patterns:");
    for (count, query) in top.into_iter().take(5) {
        let _ = writeln!(out, "  {count:>10}  {query}");
    }
    Ok(())
}

fn cmd_prune(rest: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("prune needs -o <out.tlat>"))?
        .to_owned();
    let delta: f64 = args
        .numeric("--delta")?
        .ok_or_else(|| CliError::usage("prune needs --delta D"))?;
    let summary_path = args.positional("summary.tlat")?.to_owned();
    args.finish()?;
    if !(0.0..=1.0).contains(&delta) {
        return Err(CliError::usage("--delta must be in [0, 1]"));
    }

    let mut lattice = load_summary(&summary_path)?;
    let report = lattice.prune(delta);
    write_file(&output, &lattice.to_bytes())?;
    let _ = writeln!(
        out,
        "pruned {}/{} patterns ({} -> {} bytes) -> {output}",
        report.pruned, report.examined, report.bytes_before, report.bytes_after
    );
    Ok(())
}

fn cmd_gen(rest: &[String], out: &mut String, obs: &Obs) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let output = args
        .flag_value("-o")?
        .ok_or_else(|| CliError::usage("gen needs -o <out.xml>"))?
        .to_owned();
    let scale: usize = args.numeric("--scale")?.unwrap_or(50_000);
    let seed: u64 = args.numeric("--seed")?.unwrap_or(42);
    let values = {
        let raw = args.flag_value("--values")?.map(str::to_owned);
        parse_value_mode(raw.as_deref())?
    };
    let name = args.positional("dataset")?.to_owned();
    args.finish()?;

    let dataset: Dataset = name.parse().map_err(CliError::usage)?;
    let doc = dataset.generate_valued_observed(
        GenConfig {
            seed,
            target_elements: scale,
        },
        values,
        obs.rec(),
    );
    let mut buf = Vec::new();
    tl_xml::write_document(&doc, &mut buf)
        .map_err(|e| CliError::fault(format!("serialize: {e}")))?;
    write_file(&output, &buf)?;
    let _ = writeln!(
        out,
        "generated {} ({} elements, {} labels) -> {output}",
        dataset,
        doc.len(),
        doc.labels().len()
    );
    Ok(())
}

fn cmd_metrics(rest: &[String], out: &mut String) -> Result<(), CliError> {
    let mut args = Args::new(rest);
    let action = args.positional("report")?.to_owned();
    let path = args.positional("metrics.json")?.to_owned();
    args.finish()?;
    if action != "report" {
        return Err(CliError::usage(format!(
            "unknown metrics action `{action}` (expected report)"
        )));
    }
    let text = String::from_utf8(read_file(&path)?)
        .map_err(|_| CliError::fault(format!("{path}: not valid UTF-8")))?;
    let snapshot =
        tl_obs::Snapshot::from_json(&text).map_err(|e| CliError::fault(format!("{path}: {e}")))?;
    out.push_str(&snapshot.render_report());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fail-point plans are process-global: a test that activates chaos
    // holds `failpoints::exclusive()` throughout, and a test that runs
    // fail-point sites without a plan holds `failpoints::shared()`, so an
    // active plan never leaks into an unrelated concurrent test.

    fn call(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let mut err = String::new();
        run(&owned, &mut out, &mut err)?;
        Ok(out)
    }

    /// Like [`call`] but returning the stderr notes alongside stdout.
    fn call_chaos(args: &[&str]) -> (Result<(), CliError>, String, String) {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let mut err = String::new();
        let result = run(&owned, &mut out, &mut err);
        (result, out, err)
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tl-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let out = call(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn full_pipeline_gen_build_estimate_truth() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("corpus.xml");
        let tlat = dir.join("corpus.tlat");
        let out = call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("generated xmark"));

        let out = call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.contains("built 3-lattice"), "{out}");

        let est: f64 = call(&[
            "estimate",
            tlat.to_str().unwrap(),
            "item/mailbox",
            "--estimator",
            "recursive",
        ])
        .unwrap()
        .trim()
        .parse()
        .unwrap();
        let truth: f64 = call(&["truth", xml.to_str().unwrap(), "item/mailbox"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(est, truth, "size-2 query is exact");

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truth_rejects_oversized_sibling_groups_as_usage_error() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("hostile.xml");
        std::fs::write(&xml, "<a><b/><b/></a>").unwrap();
        // One more same-label step than the kernel's subset-DP bound.
        let mut query = String::from("a");
        for _ in 0..=tl_twig::MAX_SIBLING_GROUP {
            query.push_str("[b]");
        }
        let err = call(&["truth", xml.to_str().unwrap(), &query]).unwrap_err();
        assert_eq!(err.code, 2, "usage error, not a panic");
        assert!(
            err.message.contains("same-label sibling"),
            "{}",
            err.message
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn workload_runs_batch_with_and_without_engine_cache() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("w.xml");
        let tlat = dir.join("w.tlat");
        let queries = dir.join("w.txt");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        std::fs::write(
            &queries,
            "# a comment\nitem/mailbox\n\nitem[mailbox][payment]\nsite/regions\n",
        )
        .unwrap();

        let plain = call(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
        ])
        .unwrap();
        assert!(plain.contains("# 3 queries in"), "{plain}");
        assert!(!plain.contains("engine cache"), "{plain}");

        let cached = call(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--engine-cache",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(cached.contains("# engine cache:"), "{cached}");
        assert!(cached.contains("hit rate"), "{cached}");

        // Same estimates either way, line for line.
        let ests = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(ests(&plain), ests(&cached));

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn estimate_engine_cache_matches_plain_estimate() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("ec.xml");
        let tlat = dir.join("ec.tlat");
        std::fs::write(&xml, "<r><a><b/><c/></a><a><b/><c/></a><a><b/></a></r>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        let plain = call(&["estimate", tlat.to_str().unwrap(), "a[b][c]"]).unwrap();
        let cached = call(&[
            "estimate",
            tlat.to_str().unwrap(),
            "a[b][c]",
            "--engine-cache",
        ])
        .unwrap();
        assert_eq!(plain, cached);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn workload_rejects_empty_query_file() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let tlat = dir.join("e.tlat");
        let xml = dir.join("e.xml");
        let queries = dir.join("empty.txt");
        std::fs::write(&xml, "<a><b/></a>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        std::fs::write(&queries, "# only comments\n\n").unwrap();
        let err = call(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("no queries"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn inspect_reports_levels() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("c.xml");
        let tlat = dir.join("c.tlat");
        std::fs::write(&xml, "<a><b><c/></b><b/></a>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        let out = call(&["inspect", tlat.to_str().unwrap()]).unwrap();
        assert!(out.contains("k = 3"), "{out}");
        assert!(out.contains("level 1: 3 patterns"), "{out}");
        assert!(out.contains("top patterns:"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prune_shrinks_summary() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("p.xml");
        let tlat = dir.join("p.tlat");
        let pruned = dir.join("p0.tlat");
        let mut body = String::from("<r>");
        for _ in 0..10 {
            body.push_str("<a><b/><c/></a>");
        }
        body.push_str("</r>");
        std::fs::write(&xml, body).unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        let out = call(&[
            "prune",
            tlat.to_str().unwrap(),
            "-o",
            pruned.to_str().unwrap(),
            "--delta",
            "0",
        ])
        .unwrap();
        assert!(out.contains("pruned"), "{out}");
        assert!(
            std::fs::metadata(&pruned).unwrap().len() < std::fs::metadata(&tlat).unwrap().len()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn explain_shows_trace() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("e.xml");
        let tlat = dir.join("e.tlat");
        std::fs::write(&xml, "<r><a><b/><c/></a><a><b/></a><a><b/><c/></a></r>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        let out = call(&["explain", tlat.to_str().unwrap(), "a[b][c]"]).unwrap();
        assert!(out.contains("recursive = "), "{out}");
        assert!(out.contains("s(T1)*s(T2)/s(T12)"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn estimate_rejects_bad_estimator() {
        let err = call(&["estimate", "x.tlat", "a/b", "--estimator", "wild"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown estimator"));
    }

    #[test]
    fn missing_files_are_faults() {
        let err = call(&["inspect", "/nonexistent/summary.tlat"]).unwrap_err();
        assert_eq!(err.code, 3);
    }

    #[test]
    fn truncated_summary_is_a_fault() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("t.xml");
        let tlat = dir.join("t.tlat");
        std::fs::write(&xml, "<a><b/></a>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        let bytes = std::fs::read(&tlat).unwrap();
        std::fs::write(&tlat, &bytes[..bytes.len() - 3]).unwrap();
        let err = call(&["inspect", tlat.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("truncated"), "{}", err.message);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn budgeted_estimate_degrades_and_exits_zero() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("bud.xml");
        let tlat = dir.join("bud.tlat");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "4",
        ])
        .unwrap();
        // --budget-k 2 forces the reduced-k rung on a size-3 query.
        let (result, out, note) = call_chaos(&[
            "estimate",
            tlat.to_str().unwrap(),
            "item/mailbox/mail",
            "--budget-k",
            "2",
        ]);
        result.unwrap();
        let est: f64 = out.trim().parse().unwrap();
        assert!(est.is_finite() && est > 0.0, "{out}");
        assert!(note.contains("degraded to reduced-k"), "{note}");
        // Unbudgeted, the same query is exact-path and note-free.
        let (result, _, clean_note) =
            call_chaos(&["estimate", tlat.to_str().unwrap(), "item/mailbox/mail"]);
        result.unwrap();
        assert!(clean_note.is_empty(), "{clean_note}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn build_under_expired_deadline_stops_early_but_succeeds() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("dl.xml");
        let tlat = dir.join("dl.tlat");
        std::fs::write(&xml, "<r><a><b/><c/></a><a><b/></a></r>").unwrap();
        let (result, out, note) = call_chaos(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "4",
            "--budget-ms",
            "0",
        ]);
        result.unwrap();
        assert!(note.contains("mining stopped early"), "{note}");
        assert!(out.contains("built 1-lattice"), "{out}");
        // The lower-order summary is still valid and loadable.
        let inspect = call(&["inspect", tlat.to_str().unwrap()]).unwrap();
        assert!(inspect.contains("k = 1"), "{inspect}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn chaos_bad_spec_is_usage_error() {
        let _fp = failpoints::exclusive();
        let (result, _, _) = call_chaos(&["help", "--chaos", "xml.parse=sometimes"]);
        let err = result.unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--chaos"), "{}", err.message);
    }

    #[test]
    fn chaos_injected_parse_fault_exits_3() {
        let _fp = failpoints::exclusive();
        let dir = tempdir();
        let xml = dir.join("chaos.xml");
        std::fs::write(&xml, "<a><b/></a>").unwrap();
        let (result, _, _) = call_chaos(&[
            "truth",
            xml.to_str().unwrap(),
            "a/b",
            "--chaos",
            "xml.parse=always",
        ]);
        let err = result.unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("injected"), "{}", err.message);
        // The plan is deactivated once the invocation ends.
        assert!(!failpoints::is_active());
        let truth = call(&["truth", xml.to_str().unwrap(), "a/b"]).unwrap();
        assert_eq!(truth.trim(), "1");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn chaos_worker_panic_in_workload_is_contained() {
        let _fp = failpoints::exclusive();
        let dir = tempdir();
        let xml = dir.join("cw.xml");
        let tlat = dir.join("cw.tlat");
        let queries = dir.join("cw.txt");
        std::fs::write(&xml, "<r><a><b/><c/></a><a><b/><c/></a><a><b/></a></r>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        std::fs::write(&queries, "a/b\na[b][c]\na/c\n").unwrap();
        let (result, out, note) = call_chaos(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--engine-cache",
            "--threads",
            "1",
            "--chaos",
            "engine.worker=nth:2",
        ]);
        result.unwrap();
        let lines: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("fault:worker-panic"), "{out}");
        assert!(
            lines[0].contains("a/b") && lines[2].contains("a/c"),
            "{out}"
        );
        assert!(note.contains("1 of 3 queries faulted"), "{note}");
        // Without chaos the same workload is clean and fault-free.
        let clean = call(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--engine-cache",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(!clean.contains("fault:"), "{clean}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn build_rejects_k1() {
        let err = call(&["build", "in.xml", "-o", "out.tlat", "--k", "1"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn unexpected_arguments_rejected() {
        let err = call(&["truth", "a.xml", "a/b", "extra"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unexpected argument"));
    }

    #[test]
    fn valued_pipeline_end_to_end() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("v.xml");
        let tlat = dir.join("v.tlat");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "3000",
            "--seed",
            "5",
            "--values",
            "exact",
        ])
        .unwrap();
        let content = std::fs::read_to_string(&xml).unwrap();
        assert!(content.contains("category"), "values serialized as text");
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
            "--values",
            "exact",
        ])
        .unwrap();
        let q = "item[incategory=\"category0\"]";
        let est: f64 = call(&[
            "estimate",
            tlat.to_str().unwrap(),
            q,
            "--values",
            "exact",
            "--estimator",
            "recursive",
        ])
        .unwrap()
        .trim()
        .parse()
        .unwrap();
        let truth: f64 = call(&["truth", xml.to_str().unwrap(), q, "--values", "exact"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(truth > 0.0);
        assert_eq!(est, truth, "in-lattice valued query is exact");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_value_mode_rejected() {
        let err = call(&["estimate", "x.tlat", "a", "--values", "fuzzy"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("value mode"));
    }

    #[test]
    fn gen_rejects_unknown_dataset() {
        let err = call(&["gen", "unknown", "-o", "x.xml"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn metrics_flag_requires_value() {
        let err = call(&["inspect", "x.tlat", "--metrics"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--metrics needs a value"));
    }

    #[test]
    fn estimate_oneshot_xml_emits_full_metrics_snapshot() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("one.xml");
        let metrics = dir.join("one.json");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        let out = call(&[
            "estimate",
            xml.to_str().unwrap(),
            "item/mailbox",
            "--k",
            "3",
            "--engine-cache",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("# exact:"), "{out}");

        let text = std::fs::read_to_string(&metrics).unwrap();
        let snap = tl_obs::Snapshot::from_json(&text).unwrap();
        use tl_obs::names;
        for name in [
            names::XML_PARSE_DOCS,
            names::XML_INDEX_BUILDS,
            names::MINER_RUNS,
            names::TWIG_MATCH_CALLS,
            names::ENGINE_QUERIES,
        ] {
            assert!(
                snap.counters.get(name).copied().unwrap_or(0) >= 1,
                "counter {name} not populated: {text}"
            );
        }
        // Cache counters are present (schema-preregistered) even when the
        // single query produced no hits.
        assert!(snap.counters.contains_key(names::ENGINE_CACHE_HITS));
        assert!(snap.counters.contains_key(names::ENGINE_CACHE_MISSES));
        // Per-level miner stats were recorded dynamically.
        assert!(
            snap.counters.keys().any(|k| k.starts_with("miner.level1.")),
            "no per-level miner counters: {text}"
        );
        let latency = snap.histograms.get(names::QUERY_LATENCY_US).unwrap();
        assert!(latency.count >= 1, "no query latency recorded");
        assert!(snap.spans.get(names::SPAN_PARSE).unwrap().count >= 1);
        assert!(snap.spans.get(names::SPAN_MINE).unwrap().count >= 1);
        assert_eq!(
            snap.meta.get("command").map(String::as_str),
            Some("estimate")
        );

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_do_not_change_estimates() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("par.xml");
        let tlat = dir.join("par.tlat");
        let metrics = dir.join("par.json");
        std::fs::write(&xml, "<r><a><b/><c/></a><a><b/><c/></a><a><b/></a></r>").unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        let plain = call(&["estimate", tlat.to_str().unwrap(), "a[b][c]"]).unwrap();
        let observed = call(&[
            "estimate",
            tlat.to_str().unwrap(),
            "a[b][c]",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(plain, observed);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn workload_with_metrics_records_cache_traffic() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("wm.xml");
        let tlat = dir.join("wm.tlat");
        let queries = dir.join("wm.txt");
        let metrics = dir.join("wm.json");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        std::fs::write(
            &queries,
            "item/mailbox\nitem[mailbox][payment]\nsite/regions\n",
        )
        .unwrap();
        let out = call(&[
            "workload",
            tlat.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--engine-cache",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("# engine cache:"), "{out}");

        let snap =
            tl_obs::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        use tl_obs::names;
        // Unknown-label queries short-circuit to 0.0 before recording, so
        // the count is a lower bound, not exactly the workload size.
        let queries_run = snap.counters.get(names::ENGINE_QUERIES).copied().unwrap();
        assert!((2..=3).contains(&queries_run), "{queries_run} queries");
        let hits = snap
            .counters
            .get(names::ENGINE_CACHE_HITS)
            .copied()
            .unwrap();
        let misses = snap
            .counters
            .get(names::ENGINE_CACHE_MISSES)
            .copied()
            .unwrap();
        assert!(hits + misses > 0, "no cache traffic recorded");
        assert!(snap.spans.get(names::SPAN_BATCH).unwrap().count >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_report_renders_snapshot_table() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("rep.xml");
        let metrics = dir.join("rep.json");
        std::fs::write(&xml, "<r><a><b/></a></r>").unwrap();
        call(&[
            "estimate",
            xml.to_str().unwrap(),
            "a/b",
            "--k",
            "2",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let out = call(&["metrics", "report", metrics.to_str().unwrap()]).unwrap();
        assert!(out.contains("engine.queries"), "{out}");
        assert!(out.contains("xml.parse"), "{out}");

        let err = call(&["metrics", "frobnicate", metrics.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Writes a small corpus of generated XMark documents into
    /// `dir/corpus/` and returns that directory.
    fn gen_corpus(dir: &std::path::Path, docs: usize) -> std::path::PathBuf {
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        for i in 0..docs {
            let xml = corpus.join(format!("doc{i}.xml"));
            call(&[
                "gen",
                "xmark",
                "-o",
                xml.to_str().unwrap(),
                "--scale",
                "400",
                "--seed",
                &(10 + i).to_string(),
            ])
            .unwrap();
        }
        corpus
    }

    #[test]
    fn mine_shards_a_corpus_directory_bit_identically() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let corpus = gen_corpus(&dir, 3);
        // A stray non-XML file must be ignored, not parsed.
        std::fs::write(corpus.join("README.txt"), "not xml").unwrap();

        let serial = dir.join("serial.tlat");
        let sharded = dir.join("sharded.tlat");
        let out = call(&[
            "mine",
            corpus.to_str().unwrap(),
            "-o",
            serial.to_str().unwrap(),
            "--k",
            "3",
            "--shards",
            "1",
        ])
        .unwrap();
        assert!(out.contains("mined 3 documents"), "{out}");

        let out = call(&[
            "mine",
            corpus.to_str().unwrap(),
            "-o",
            sharded.to_str().unwrap(),
            "--k",
            "3",
            "--shards",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("mined 3 documents"), "{out}");
        assert_eq!(
            std::fs::read(&serial).unwrap(),
            std::fs::read(&sharded).unwrap(),
            "sharded mining must serialize bit-identically to sequential"
        );

        // The mined summary answers queries like any built one.
        let est = call(&["estimate", serial.to_str().unwrap(), "item/mailbox"]).unwrap();
        let _: f64 = est.trim().parse().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn mine_rejects_empty_and_missing_corpus_as_fault() {
        let dir = tempdir();
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = dir.join("x.tlat");
        let err =
            call(&["mine", empty.to_str().unwrap(), "-o", out.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);
        assert!(err.message.contains("no .xml files"), "{}", err.message);

        let missing = dir.join("nope");
        let err = call(&[
            "mine",
            missing.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 3);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn summary_merge_matches_mining_the_union() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let corpus = gen_corpus(&dir, 2);
        let files: Vec<std::path::PathBuf> = {
            let mut v: Vec<_> = std::fs::read_dir(&corpus)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            v.sort();
            v
        };
        // Build each document alone, then merge the stored summaries.
        let mut parts = Vec::new();
        for (i, xml) in files.iter().enumerate() {
            let tlat = dir.join(format!("part{i}.tlat"));
            call(&[
                "build",
                xml.to_str().unwrap(),
                "-o",
                tlat.to_str().unwrap(),
                "--k",
                "3",
            ])
            .unwrap();
            parts.push(tlat);
        }
        let merged = dir.join("merged.tlat");
        let out = call(&[
            "summary",
            "merge",
            parts[0].to_str().unwrap(),
            parts[1].to_str().unwrap(),
            "-o",
            merged.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("merged 2 summaries"), "{out}");

        // Mining the same two documents as one corpus must give the same
        // bytes: merge is exactly "mine the union".
        let mined = dir.join("mined.tlat");
        call(&[
            "mine",
            corpus.to_str().unwrap(),
            "-o",
            mined.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            std::fs::read(&mined).unwrap(),
            "summary merge must agree with corpus mining"
        );

        // Fewer than two inputs is a usage error, as is an unknown action.
        let err = call(&[
            "summary",
            "merge",
            parts[0].to_str().unwrap(),
            "-o",
            merged.to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        let err = call(&["summary", "split", parts[0].to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 2);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn summary_recover_and_snapshot_round_trip_a_wal_dir() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("r.xml");
        let tlat = dir.join("r.tlat");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "1500",
            "--seed",
            "3",
        ])
        .unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();

        // Seed a durability directory the way a crashed server would
        // leave it: WAL records, no final snapshot.
        let base = load_summary(tlat.to_str().unwrap()).unwrap();
        let wal_dir = dir.join("wal");
        let query = {
            let mut labels = base.labels().clone();
            tl_twig::parse_twig("site/regions", &mut labels).unwrap()
        };
        {
            let opts = treelattice::DurableOptions::default();
            let (mut durable, _) =
                treelattice::DurableLattice::open(&wal_dir, Some(&base), &opts, &tl_obs::NOOP)
                    .unwrap();
            for (i, count) in [3u64, 9, 27].iter().enumerate() {
                durable
                    .apply(&query, *count, i as u64 + 1, &tl_obs::NOOP)
                    .unwrap();
            }
            // No drain: the WAL alone carries the observations.
        }
        assert!(std::fs::metadata(wal_dir.join("wal.log")).unwrap().len() > 0);

        let recovered_path = dir.join("recovered.tlat");
        let out = call(&[
            "summary",
            "recover",
            wal_dir.to_str().unwrap(),
            "--base",
            tlat.to_str().unwrap(),
            "-o",
            recovered_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("replayed 3"), "{out}");
        let recovered = load_summary(recovered_path.to_str().unwrap()).unwrap();
        use tl_twig::canonical::key_of;
        assert_eq!(
            recovered.summary().stored(&key_of(&query)),
            Some(27),
            "recovery must land on the last applied count"
        );

        // Snapshot compacts: WAL truncated, snapshot file published, and
        // offline recovery still produces the same summary bytes.
        let out = call(&[
            "summary",
            "snapshot",
            wal_dir.to_str().unwrap(),
            "--base",
            tlat.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("snapshot published at seq 3"), "{out}");
        assert_eq!(std::fs::metadata(wal_dir.join("wal.log")).unwrap().len(), 0);
        let again = dir.join("again.tlat");
        call(&[
            "summary",
            "recover",
            wal_dir.to_str().unwrap(),
            "-o",
            again.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&recovered_path).unwrap(),
            std::fs::read(&again).unwrap(),
            "snapshot-then-recover must be bit-identical to wal-replay recovery"
        );

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn estimate_mmap_agrees_with_in_memory_catalog() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        let xml = dir.join("m.xml");
        let tlat = dir.join("m.tlat");
        call(&[
            "gen",
            "xmark",
            "-o",
            xml.to_str().unwrap(),
            "--scale",
            "2000",
            "--seed",
            "7",
        ])
        .unwrap();
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap();

        for query in ["item/mailbox", "item[mailbox][payment]", "site/regions"] {
            let memory = call(&["estimate", tlat.to_str().unwrap(), query]).unwrap();
            let mapped = call(&["estimate", tlat.to_str().unwrap(), query, "--mmap"]).unwrap();
            assert_eq!(memory, mapped, "{query}");
        }

        // The mmap path feeds the same metrics pipeline, including the
        // zero-copy catalog counters.
        let metrics = dir.join("m.json");
        call(&[
            "estimate",
            tlat.to_str().unwrap(),
            "item/mailbox",
            "--mmap",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let report = call(&["metrics", "report", metrics.to_str().unwrap()]).unwrap();
        assert!(report.contains("catalog.mmap.opens"), "{report}");
        assert!(report.contains("catalog.mmap.lookups"), "{report}");

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn estimate_mmap_guards_inputs_and_corruption() {
        let _fp = failpoints::shared();
        let dir = tempdir();
        // `--mmap` needs a stored frame, not raw XML.
        let xml = dir.join("g.xml");
        std::fs::write(&xml, "<r><a><b/></a></r>").unwrap();
        let err = call(&["estimate", xml.to_str().unwrap(), "a/b", "--mmap"]).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);

        // A checksum-corrupted frame is a catalog-open fault: exit 3.
        let tlat = dir.join("g.tlat");
        call(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            tlat.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        let mut bytes = std::fs::read(&tlat).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&tlat, &bytes).unwrap();
        let err = call(&["estimate", tlat.to_str().unwrap(), "a/b", "--mmap"]).unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);

        let _ = std::fs::remove_dir_all(dir);
    }
}
