//! Served-path benchmark for the TreeLattice estimate server.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 15 --trace 0 [--smoke]
//! ```
//!
//! The process started with these flags generates an IMDB stand-in
//! document and the twig sample from the seed, counts the held-out twigs
//! exactly, and writes them into its work directory. It then runs
//! [`PROCESSES`] fresh measuring processes of itself, one after another,
//! each with an equal share of the window. Each one times the program's
//! set-up (parse, index, mine, serialize, write, `serve`, connect), drives
//! an in-process `tl_server` with one worker over one closed-loop
//! tl-wire/1 connection, checks every answer, and prints its metrics. The
//! reported value of each metric is the median over the processes, so
//! neither one process's address layout nor a burst of host noise during
//! one share of the window sets it.
//!
//! The last stdout line is the result object; the line before it carries
//! the run's metadata, each process's values and undeclared diagnostics.
//! `--trace 1` runs one measuring process over the whole window, reports
//! the per-layer metrics instead and writes the span file
//! `.servebench/trace-<workload>.tsv`. See README.md.

mod checks;
mod drive;
mod layers;
mod metrics;
mod setup;
mod spec;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use tl_obs::json::{parse, Json};

use crate::drive::LoadGen;
use crate::layers::Replicas;
use crate::metrics::{Diag, Outcome};
use crate::setup::Served;
use crate::spec::Spec;
use crate::trace::Tracer;

const USAGE: &str = "usage: tl-servebench --workload <serve-hot|serve-cold> --seed <n> \
--seconds <n> --trace <0|1> [--smoke]";

/// Where runs keep their files, relative to the working directory.
pub const OUT_DIR: &str = ".servebench";

/// Measuring processes per untraced run.
const PROCESSES: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Set in a measuring process: the work directory holding the inputs.
    child: Option<PathBuf>,
}

impl Args {
    fn processes(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => PROCESSES,
        }
    }

    /// One measuring process's share of the window.
    fn window(&self) -> Duration {
        Duration::from_secs(self.seconds) / self.processes() as u32
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke, mut child) =
        (None, None, None, None, false, None);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            "--child" => child = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        smoke,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tl-servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload, args.smoke, args.window()) else {
        eprintln!(
            "tl-servebench: unknown workload `{}`\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let result = match &args.child {
        Some(dir) => measure(&args, &spec, dir),
        None => {
            let work = PathBuf::from(OUT_DIR).join(format!(
                "{}-{}-{}",
                spec.name,
                args.seed,
                std::process::id()
            ));
            let result = run(&args, &spec, &work);
            let _ = std::fs::remove_dir_all(&work);
            result
        }
    };
    match result {
        Ok(out) => {
            println!("{}", out.diagnostics);
            println!("{}", out.result);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tl-servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prepares the inputs in `work`, runs the measuring processes one after
/// another, and reports the median of each metric over them.
fn run(args: &Args, spec: &Spec, work: &Path) -> Result<metrics::Printed, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    setup::prepare(spec, args.seed, work)?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut outputs = Vec::new();
    for _ in 0..args.processes() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--child")
            .arg(work)
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("start a measuring process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let [.., diagnostics, result] = lines[..] else {
            return Err(format!("measuring process failed ({})", out.status));
        };
        let parsed = parse(result).map_err(|e| format!("measuring process result: {e}"))?;
        outputs.push((diagnostics.to_string(), parsed));
    }
    aggregate(args, spec, &outputs)
}

/// One metric as the measuring processes reported it.
struct Column {
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// Combines the measuring processes' `(diagnostics, result)` lines: the
/// median of each metric, and the sums of `attempted` and `failed`.
fn aggregate(
    args: &Args,
    spec: &Spec,
    outputs: &[(String, Json)],
) -> Result<metrics::Printed, String> {
    let bad = || "measuring process result: unexpected shape".to_string();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut columns: Vec<Column> = Vec::new();
    for (i, (_, r)) in outputs.iter().enumerate() {
        attempted += r.get("attempted").and_then(Json::as_u64).ok_or_else(bad)?;
        failed += r.get("failed").and_then(Json::as_u64).ok_or_else(bad)?;
        correct &= r.get("correct") == Some(&Json::Bool(true));
        let m = r.get("metrics").and_then(Json::entries).ok_or_else(bad)?;
        if i == 0 {
            for (name, metric) in m {
                let unit = metric.get("unit").and_then(Json::as_str).ok_or_else(bad)?;
                columns.push(Column {
                    name: name.clone(),
                    unit: unit.to_string(),
                    values: Vec::new(),
                });
            }
        }
        if m.len() != columns.len() {
            return Err(bad());
        }
        for (c, (name, metric)) in columns.iter_mut().zip(m) {
            let value = metric.get("value").and_then(Json::as_f64);
            c.values
                .push(value.filter(|_| *name == c.name).ok_or_else(bad)?);
        }
    }
    correct &= failed == 0;

    let result = metrics::result_line(
        correct,
        attempted,
        failed,
        columns.iter().map(|c| {
            (
                c.name.as_str(),
                c.unit.as_str(),
                sys::median(&mut c.values.clone()),
            )
        }),
    );
    let per_process: Vec<(&str, Diag)> = columns
        .iter()
        .map(|c| (c.name.as_str(), Diag::Nums(c.values.clone())))
        .collect();
    let each: Vec<&str> = outputs.iter().map(|(d, _)| d.as_str()).collect();
    let run = [
        ("workload", Diag::Str(spec.name.into())),
        ("seed", Diag::Num(args.seed as f64)),
        ("trace", Diag::Num(f64::from(u8::from(args.trace)))),
        ("smoke", Diag::Num(f64::from(u8::from(args.smoke)))),
        ("processes", Diag::Num(outputs.len() as f64)),
        ("window_s", Diag::Num(args.seconds as f64)),
        (
            "error_rate",
            Diag::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("per_process", Diag::Json(metrics::object(&per_process))),
        ("by_process", Diag::Json(format!("[{}]", each.join(", ")))),
    ];
    Ok(metrics::Printed {
        diagnostics: format!("{{\"servebench\": {}}}", metrics::object(&run)),
        result,
        correct,
    })
}

/// One measuring process: the timed set-up, the window, the checks.
fn measure(args: &Args, spec: &Spec, dir: &Path) -> Result<metrics::Printed, String> {
    let work = dir.join(format!("process-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    // One CPU for the set-up, the client and every server thread, so each
    // handoff between them is a context switch on that CPU. Spread over a
    // VM's vCPUs, each handoff is also a cross-vCPU wake-up whose cost
    // follows the host's load: in interleaved runs on a 2-vCPU VM,
    // unpinned serve-hot spread about three times as wide as pinned.
    let pinned_cpu = sys::pin_to_one_cpu();
    let xml = setup::read_xml(dir)?;
    let mut tracer = Tracer::new(args.trace);
    let start = tracer.now();
    let (setup_times, served) = setup::timed_setup(&xml, spec, &work, args.seed)?;
    tracer.record_setup(0, start, &setup_times);
    drop(xml);
    let queries = setup::read_queries(dir, &served.lattice)?;
    let Served {
        elements,
        lattice,
        frame,
        frame_path,
        handle,
        mut client,
    } = served;
    let replicas = if args.trace {
        Some(Replicas::new(
            spec.estimator,
            spec.mmap,
            &frame,
            &frame_path,
        )?)
    } else {
        None
    };

    let mut load = LoadGen::new(&mut client, spec, &queries, args.seed, replicas, tracer);
    load.warm_up();
    let window = load.run(args.window(), args.trace);
    let peak_rss_mb = sys::peak_rss_mb();
    let LoadGen {
        log,
        replicas,
        tracer,
        traffic,
        ..
    } = load;

    // Held-out q-error sample, answered by the same server after the window.
    let heldout: Vec<Option<u64>> = queries
        .heldout
        .iter()
        .map(|q| match client.estimate(spec.estimator, &q.text) {
            Ok(e) if !e.degradation.is_degraded() => Some(e.value.to_bits()),
            _ => None,
        })
        .collect();
    let scrape = client
        .scrape()
        .map_err(|e| format!("scrape: {e}"))
        .and_then(|json| tl_obs::Snapshot::from_json(&json).map_err(|e| format!("scrape: {e}")))?;
    drop(client);
    handle.shutdown().map_err(|f| format!("shutdown: {f}"))?;

    let report = checks::run(spec, &lattice, &frame_path, &queries, &log, &heldout)?;
    let outcome = Outcome {
        spec,
        elements,
        patterns: lattice.summary().len(),
        frame_bytes: frame.len(),
        setup: &setup_times,
        queries: &queries,
        log: &log,
        heldout: &heldout,
        window,
        peak_rss_mb,
        scrape: &scrape,
        report: &report,
        cold_wraps: traffic.wraps,
        wal_fs: sys::fs_type(&work),
        host_cpus,
        pinned_cpu,
    };
    if !args.trace {
        return Ok(outcome.end_to_end());
    }
    let replicas = replicas.expect("traced runs build replicas");
    let layers = metrics::layer_passes(
        &outcome,
        &lattice,
        &frame,
        &frame_path,
        &work,
        replicas,
        tracer,
    )?;
    Ok(outcome.per_layer(layers))
}
