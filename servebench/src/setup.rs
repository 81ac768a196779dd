//! Input generation and exact counts (untimed, once per run, in the
//! parent process) and the timed program set-up (once per measuring
//! process).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tl_datagen::{Dataset, GenConfig};
use tl_server::{serve, Client, ClientConfig, ServerConfig, ServerHandle};
use tl_twig::{MatchCounter, Twig};
use tl_xml::{parse_document, DocIndex, Document, ParseOptions};
use treelattice::{BuildConfig, TreeLattice};

use crate::spec::{Kind, Spec};

/// The rendered document: the program's only input.
const DOC_FILE: &str = "doc.xml";
/// The sampled twigs as query strings, with the held-out exact counts.
const QUERY_FILE: &str = "queries.tsv";

/// Generates the IMDB stand-in document from the seed, samples the twig
/// pool and the held-out q-error sample, counts the held-out twigs
/// exactly, and writes the XML and the queries into `dir` for the
/// measuring processes to read.
pub fn prepare(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let doc = Dataset::Imdb.generate(GenConfig {
        seed,
        target_elements: spec.elements,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_9e7e);
    let mut seen = HashSet::new();
    let pool = sample_twigs(&doc, spec, &mut rng, spec.pool, &mut seen);
    let heldout = sample_twigs(&doc, spec, &mut rng, spec.heldout, &mut seen);
    let floor = if spec.kind == Kind::ServeCold {
        64
    } else {
        spec.pool
    };
    if pool.len() < floor.min(spec.pool) || heldout.len() < spec.heldout / 2 {
        return Err(format!(
            "document too small: {} pool and {} held-out twigs sampled",
            pool.len(),
            heldout.len()
        ));
    }
    let index = DocIndex::new(&doc);
    let counter = MatchCounter::with_index(&doc, &index);
    let mut text = String::new();
    for twig in &pool {
        let _ = writeln!(text, "pool\t{}", twig.to_query_string(doc.labels()));
    }
    for twig in &heldout {
        let truth = counter.count(twig);
        let _ = writeln!(
            text,
            "heldout\t{truth}\t{}",
            twig.to_query_string(doc.labels())
        );
    }
    let mut xml = Vec::new();
    tl_xml::write_document(&doc, &mut xml).map_err(|e| format!("render: {e}"))?;
    for (name, bytes) in [(DOC_FILE, xml.as_slice()), (QUERY_FILE, text.as_bytes())] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Samples up to `n` distinct occurring twigs whose sizes fall in
/// `spec.sizes`, skipping canonical keys in `seen` (and adding the chosen
/// ones).
fn sample_twigs(
    doc: &Document,
    spec: &Spec,
    rng: &mut StdRng,
    n: usize,
    seen: &mut HashSet<Vec<u8>>,
) -> Vec<Twig> {
    let mut out = Vec::with_capacity(n);
    let max_attempts = n.saturating_mul(8).max(1_000);
    for _ in 0..max_attempts {
        if out.len() >= n {
            break;
        }
        let size = rng.gen_range(*spec.sizes.start()..=*spec.sizes.end());
        let Some(twig) = tl_workload::sample::random_occurred_twig(doc, rng, size) else {
            continue;
        };
        let key = tl_twig::canonical::key_of(&twig);
        if seen.insert(key.as_bytes().to_vec()) {
            out.push(key.decode());
        }
    }
    out
}

/// The XML bytes [`prepare`] wrote.
pub fn read_xml(dir: &Path) -> Result<Vec<u8>, String> {
    let path = dir.join(DOC_FILE);
    std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Wall time of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub parse: Duration,
    pub index: Duration,
    pub mine: Duration,
    pub to_bytes: Duration,
    pub write: Duration,
    pub serve: Duration,
    pub connect: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.parse + self.index + self.mine + self.to_bytes + self.write + self.serve + self.connect
    }

    /// `(layer, duration)` pairs in pipeline order, as trace spans name them.
    pub fn stages(&self) -> [(&'static str, Duration); 7] {
        [
            ("xml.parse", self.parse),
            ("xml.index", self.index),
            ("miner.mine", self.mine),
            ("serialize.to_bytes", self.to_bytes),
            ("setup.write", self.write),
            ("server.start", self.serve),
            ("client.connect", self.connect),
        ]
    }
}

/// Everything the set-up leaves running.
pub struct Served {
    /// Elements of the parsed document.
    pub elements: usize,
    pub lattice: TreeLattice,
    pub frame: Vec<u8>,
    pub frame_path: PathBuf,
    pub handle: ServerHandle,
    pub client: Client,
}

/// Parses, indexes, mines, serializes, writes the frame into `dir`,
/// starts the server and opens the client connection, timing each stage.
pub fn timed_setup(
    xml: &[u8],
    spec: &Spec,
    dir: &Path,
    seed: u64,
) -> Result<(SetupTimes, Served), String> {
    let frame_path = dir.join("summary.tlat");
    let mut t = SetupTimes::default();
    let mut clock = Instant::now();
    let mut lap = |slot: &mut Duration| {
        let now = Instant::now();
        *slot = now - clock;
        clock = now;
    };

    let doc = parse_document(xml, ParseOptions::default()).map_err(|e| format!("parse: {e}"))?;
    lap(&mut t.parse);
    let index = DocIndex::new(&doc);
    lap(&mut t.index);
    let build = BuildConfig {
        k: spec.k,
        threads: 1,
        ..BuildConfig::default()
    };
    let lattice = TreeLattice::build_with_index(&doc, &index, &build);
    lap(&mut t.mine);
    let frame = lattice.to_bytes();
    lap(&mut t.to_bytes);
    std::fs::write(&frame_path, &frame).map_err(|e| format!("{}: {e}", frame_path.display()))?;
    lap(&mut t.write);
    let mut config = ServerConfig::new(&frame_path);
    config.mmap = spec.mmap;
    config.workers = 1;
    let handle = serve(config).map_err(|f| format!("serve: {f}"))?;
    lap(&mut t.serve);
    let client_config = ClientConfig {
        seed: seed | 1,
        ..ClientConfig::default()
    };
    let client = Client::connect_with(handle.addr(), tl_server::DEFAULT_TENANT, client_config)
        .map_err(|e| format!("connect: {e}"))?;
    lap(&mut t.connect);
    Ok((
        t,
        Served {
            elements: doc.len(),
            lattice,
            frame,
            frame_path,
            handle,
            client,
        },
    ))
}

/// One query the traffic can send.
#[derive(Clone, Debug)]
pub struct Query {
    /// The wire form.
    pub text: String,
    /// `text` parsed against the served label table, as the server sees it.
    pub twig: Twig,
}

/// The pool the traffic draws from and the held-out q-error sample.
pub struct Queries {
    pub pool: Vec<Query>,
    pub heldout: Vec<Query>,
    /// Exact counts of the held-out twigs.
    pub heldout_truth: Vec<u64>,
}

/// Reads the queries [`prepare`] wrote and parses them against the
/// served lattice's labels.
pub fn read_queries(dir: &Path, lattice: &TreeLattice) -> Result<Queries, String> {
    let path = dir.join(QUERY_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut queries = Queries {
        pool: Vec::new(),
        heldout: Vec::new(),
        heldout_truth: Vec::new(),
    };
    for line in text.lines() {
        let bad = || format!("{}: malformed line `{line}`", path.display());
        let fields: Vec<&str> = line.split('\t').collect();
        let query_text = *fields.last().ok_or_else(bad)?;
        let twig = lattice
            .parse_query(query_text)
            .map_err(|e| format!("{}: {e}", bad()))?;
        let query = Query {
            text: query_text.to_string(),
            twig,
        };
        match fields[..] {
            ["pool", _] => queries.pool.push(query),
            ["heldout", truth, _] => {
                queries.heldout.push(query);
                queries
                    .heldout_truth
                    .push(truth.parse().map_err(|_| bad())?);
            }
            _ => return Err(bad()),
        }
    }
    Ok(queries)
}
