//! The gated workloads: one pipeline, two regimes.
//!
//! Every workload drives the same path through the layers' public API:
//! edge-list file → `DiGraph` → all-pairs solve or index build → persist
//! → load + serve (a restart) → a closed loop of rounds, each of which is
//! one edit batch (ingest-side update, persist, client `Reload`) followed
//! by top-k requests from one client against the new generation. The
//! workloads differ in graph family and size, in which engine they build,
//! and in the request mix and cache regime (see the crate README).

use crate::heap::{self, StaticLog};
use crate::trace::{median, percentile, Tracer};
use simrank_core::index::SimRankIndex;
use simrank_core::query::QueryEngine;
use simrank_core::{dynamic, oip, persist, psum, topk, SharingPlan, SimMatrix, SimRankOptions};
use simrank_graph::{io as graph_io, DiGraph, EdgeDelta, NodeId};
use simrank_serve::{
    serve, Client, EngineSource, Ranking, ServerConfig, ServerHandle, SplitMix64, ZipfWorkload,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SimRank damping factor `C` of every workload.
pub const DAMPING: f64 = 0.6;
/// Worker-pool width of every solve, build and server dispatch.
pub const POOL: usize = 2;
/// `k` of every top-k request.
pub const TOP_K: u32 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Restarts before the measured rounds; the last one serves them.
const RESTART_REPS: usize = 3;
/// Extra restarts timed after each round's checks, so the `load_s`
/// median samples the whole run rather than one moment of it.
const RESTARTS_PER_ROUND: usize = 4;
/// `Stats` round trips timed after each round's requests.
const STATS_PROBES: usize = 10;
/// Vertex pairs whose fixed-point residual the all-pairs check samples.
const RESIDUAL_PAIRS: usize = 2000;
/// Sources whose index rows are compared with the dense oracles.
const ORACLE_SOURCES: usize = 16;
/// Iterations of the dense psum-SR oracle for index rows
/// (`C^(K+1) ≈ 7e-11` at `C = 0.6`).
const ORACLE_ITERATIONS: u32 = 45;

/// A gated workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// OIP-SR all-pairs scores, maintained by warm resweeps.
    AllPairs,
    /// Index serving of a Zipf-skewed hot set through a small LRU.
    IndexServe,
}

impl Workload {
    /// Every gated workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::AllPairs, Workload::IndexServe];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AllPairs => "allpairs",
            Workload::IndexServe => "index-serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self) -> Spec {
        match self {
            Workload::AllPairs => Spec {
                family: Family::BerkStan,
                nodes: 2000,
                epsilon: 1e-3,
                all_pairs: true,
                sources_per_request: 32,
                zipf: false,
                hot_set: 64,
                warmup_requests: 2,
                timed_requests: 60,
            },
            Workload::IndexServe => Spec {
                family: Family::BerkStan,
                nodes: 700,
                epsilon: 1e-4,
                all_pairs: false,
                sources_per_request: 8,
                zipf: true,
                hot_set: 700,
                warmup_requests: 200,
                timed_requests: 1000,
            },
        }
    }
}

/// Edits per batch: this many inserts of absent edges, then this many
/// removes of present ones.
pub const BATCH_INSERTS: usize = 4;
/// See [`BATCH_INSERTS`].
pub const BATCH_REMOVES: usize = 4;
/// Out-edges per arriving vertex of the preferential-attachment family.
pub const PREFERENTIAL_OUT: usize = 5;
/// Zipf skew of the `index-serve` source trace.
pub const ZIPF_SKEW: f64 = 1.0;

/// Graph family of a workload's input.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `simrank_datasets::berkstan_like`: copying web graph, overlapping in-sets.
    BerkStan,
    /// `preferential_attachment(n, 5)`: heavy-tailed in-degrees.
    Preferential,
}

/// The generated input graph of `family` at `nodes` vertices.
pub fn generate(family: Family, nodes: usize, seed: u64) -> DiGraph {
    match family {
        Family::BerkStan => simrank_datasets::berkstan_like(nodes, seed).graph,
        Family::Preferential => {
            simrank_graph::gen::preferential_attachment(nodes, PREFERENTIAL_OUT, seed)
        }
    }
}

/// What one workload runs.
struct Spec {
    family: Family,
    nodes: usize,
    epsilon: f64,
    /// OIP-SR all-pairs scores (`SRM1`) instead of the index (`SRI1`).
    all_pairs: bool,
    /// Sources per `TopKBatch` request.
    sources_per_request: usize,
    /// Zipf-skewed sources; otherwise uniform over the hot set.
    zipf: bool,
    /// Vertices that uniform sources are drawn from, without replacement.
    hot_set: usize,
    /// Untimed requests after each reload, to refill the row cache.
    warmup_requests: usize,
    /// Timed requests per round.
    timed_requests: usize,
}

/// Solver options of every workload: `C`, `ε` and the pool width, set
/// explicitly rather than read from the environment.
pub fn options(epsilon: f64) -> SimRankOptions {
    SimRankOptions::default()
        .with_damping(DAMPING)
        .with_epsilon(epsilon)
        .with_threads(POOL)
}

fn pool() -> NonZeroUsize {
    NonZeroUsize::new(POOL).expect("pool width is positive")
}

/// Operations attempted and failed, with the failures' descriptions.
#[derive(Default)]
pub struct Ledger {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation; an error fails it and ends the run.
    fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.fail(msg.clone());
            msg
        })
    }

    /// Counts one correctness check.
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}: {}", detail()));
        }
    }

    /// Records a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// Per-layer counts and per-batch samples, by metric name.
#[derive(Default)]
pub struct Notes(BTreeMap<&'static str, Vec<f64>>);

impl Notes {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    fn sum(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }
}

/// Everything one run measured.
pub struct Run {
    /// The span recorder (shared with the server's reload thread).
    pub tracer: Arc<Tracer>,
    /// Operations and checks.
    pub ledger: Ledger,
    /// End-to-end samples and per-layer counts.
    notes: Notes,
    answers: usize,
    replay: Duration,
    /// Start of the current timed replay, with the cache counters then.
    replay_start: Option<(Instant, (u64, u64))>,
}

impl Run {
    /// An empty run; `trace` turns span recording on.
    pub fn new(trace: bool) -> Run {
        Run {
            tracer: Arc::new(Tracer::new(trace)),
            ledger: Ledger::default(),
            notes: Notes::default(),
            answers: 0,
            replay: Duration::ZERO,
            replay_start: None,
        }
    }

    /// Opens a timed replay, given the cache's `(hits, misses)` then.
    fn replay_started(&mut self, cache: (u64, u64)) {
        self.replay_start = Some((Instant::now(), cache));
    }

    /// Closes the timed replay, given the cache's `(hits, misses)` now.
    fn replay_ended(&mut self, cache: (u64, u64)) {
        let (start, before) = self.replay_start.take().expect("replay was started");
        self.replay += start.elapsed();
        self.notes
            .push("serve.cache_hits", (cache.0 - before.0) as f64);
        self.notes
            .push("serve.cache_misses", (cache.1 - before.1) as f64);
    }

    /// The end-to-end metrics `(name, unit, value)`, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("setup_s", "s", self.notes.median("setup_s")),
            ("load_s", "s", self.notes.median("load_s")),
            ("update_s", "s", self.notes.median("update_s")),
            ("query_p50_ms", "ms", percentile(&latencies_ms(), 50.0)),
            ("peak_heap_mib", "MiB", heap::peak_bytes() as f64 / MIB),
        ]
    }

    /// The replay's tail latency and throughput, which are measured but
    /// not gated: on a small shared host both follow scheduler stalls
    /// more than the program (see the README).
    pub fn ungated(&self) -> Vec<(&'static str, &'static str, f64)> {
        let replay = self.replay.as_secs_f64();
        let qps = if replay > 0.0 {
            self.answers as f64 / replay
        } else {
            0.0
        };
        vec![
            (
                "serve.query_p99_ms",
                "ms",
                percentile(&latencies_ms(), 99.0),
            ),
            ("serve.qps", "1/s", qps),
        ]
    }

    /// The per-layer metrics `(name, unit, value)`, in `BENCHMARK.json` order. Timings are
    /// medians of span self times, so they exist only in a traced run; a
    /// layer the workload does not run reads `0`.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let spans = self.tracer.self_times();
        let span =
            |name: &str, scale: f64| median(spans.get(name).map_or(&[], Vec::as_slice)) * scale;
        let n = &self.notes;
        let engine_s = span("engine.solve", 1.0);
        let engine_adds = n.median("engine.adds");
        let build_adds = n.median("index.build_adds");
        let (hits, misses) = (n.sum("serve.cache_hits"), n.sum("serve.cache_misses"));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        vec![
            ("graph.read_s", "s", span("graph.read", 1.0)),
            ("graph.apply_batch_us", "us", span("graph.apply_batch", 1e6)),
            ("plan.mst_build_s", "s", span("plan.build", 1.0)),
            ("plan.d_eff", "count", n.median("plan.d_eff")),
            ("engine.share_sums_s", "s", engine_s),
            ("engine.iterations", "count", n.median("engine.iterations")),
            ("engine.adds", "count", engine_adds),
            (
                "engine.ns_per_add",
                "ns",
                ratio(engine_s * 1e9, engine_adds),
            ),
            (
                "engine.peak_intermediate_mib",
                "MiB",
                n.median("engine.peak_intermediate_mib"),
            ),
            ("dynamic.resweep_s", "s", span("dynamic.resweep", 1.0)),
            (
                "dynamic.resweep_iterations",
                "count",
                n.median("dynamic.resweep_iterations"),
            ),
            (
                "dynamic.resweep_adds",
                "count",
                n.median("dynamic.resweep_adds"),
            ),
            ("index.build_s", "s", span("index.build", 1.0)),
            (
                "index.build_rounds",
                "count",
                n.median("index.build_rounds"),
            ),
            ("index.build_adds", "count", build_adds),
            ("index.residual", "1", n.median("index.residual")),
            ("index.repair_s", "s", span("index.repair", 1.0)),
            (
                "index.repair_rounds",
                "count",
                n.median("index.repair_rounds"),
            ),
            ("index.repair_adds", "count", n.median("index.repair_adds")),
            (
                "index.repair_to_build_adds",
                "ratio",
                ratio(n.median("index.repair_adds"), build_adds),
            ),
            ("index.query_ms", "ms", span("index.query", 1e3)),
            (
                "persist.save_scores_s",
                "s",
                span("persist.save_scores", 1.0),
            ),
            (
                "persist.load_scores_s",
                "s",
                span("persist.load_scores", 1.0),
            ),
            ("persist.scores_mib", "MiB", n.median("persist.scores_mib")),
            ("persist.save_index_s", "s", span("persist.save_index", 1.0)),
            ("persist.load_index_s", "s", span("persist.load_index", 1.0)),
            ("persist.index_kib", "KiB", n.median("persist.index_kib")),
            ("query.topk_us", "us", span("query.topk", 1e6)),
            ("serve.cache_hits", "count", hits),
            ("serve.cache_misses", "count", misses),
            ("serve.hit_ratio", "ratio", ratio(hits, hits + misses)),
            ("serve.rtt_ms", "ms", span("serve.stats", 1e3)),
            ("serve.reload_ms", "ms", span("serve.reload", 1e3)),
        ]
        .into_iter()
        .chain(self.ungated())
        .collect()
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Round trip of every timed request, in ms (as `f64` bits).
static LATENCIES: StaticLog<{ 1 << 20 }> = StaticLog::new();
/// Source of every answer of the current round.
static SERVED_SOURCES: StaticLog<{ 1 << 16 }> = StaticLog::new();
/// Ranking fingerprint of every answer of the current round.
static SERVED_RANKINGS: StaticLog<{ 1 << 16 }> = StaticLog::new();

const LOG_FULL: &str = "benchmark record log is full";

fn latencies_ms() -> Vec<f64> {
    LATENCIES.values().map(f64::from_bits).collect()
}

/// The ingest side: the graph plus whatever answers queries on it.
enum Ingest {
    Scores { graph: DiGraph, scores: SimMatrix },
    Index(SimRankIndex),
}

impl Ingest {
    fn graph(&self) -> &DiGraph {
        match self {
            Ingest::Scores { graph, .. } => graph,
            Ingest::Index(index) => index.graph(),
        }
    }

    fn engine(&self) -> &dyn QueryEngine {
        match self {
            Ingest::Scores { scores, .. } => scores,
            Ingest::Index(index) => index,
        }
    }

    /// Applies one edit batch and persists the result: `apply_batch` +
    /// warm `resweep` + `save_scores` (the two calls
    /// `DynamicSimRank::apply_batch` makes, made here so each is timed),
    /// or `repair` + `save_index`.
    fn update(
        &mut self,
        tr: &Tracer,
        notes: &mut Notes,
        opts: &SimRankOptions,
        batch: &[EdgeDelta],
        artifact: &Path,
    ) -> Result<(), String> {
        match self {
            Ingest::Scores { graph, scores } => {
                let summary = tr
                    .span("graph.apply_batch", || graph.apply_batch(batch))
                    .0
                    .map_err(|e| format!("apply_batch: {e}"))?;
                if !summary.is_noop() {
                    let ((next, report), _) = tr.span("dynamic.resweep", || {
                        dynamic::resweep_with_report(graph, scores, opts)
                    });
                    notes.push("dynamic.resweep_iterations", report.iterations as f64);
                    notes.push("dynamic.resweep_adds", report.adds as f64);
                    *scores = next;
                }
                tr.span("persist.save_scores", || {
                    persist::save_scores(scores, artifact)
                })
                .0
                .map_err(|e| format!("save_scores: {e}"))
            }
            Ingest::Index(index) => {
                let (next, report) = tr
                    .span("index.repair", || index.repair_with_report(batch, opts))
                    .0
                    .map_err(|e| format!("repair: {e}"))?;
                notes.push("index.repair_rounds", report.iterations as f64);
                notes.push("index.repair_adds", report.adds as f64);
                *index = next;
                tr.span("persist.save_index", || {
                    persist::save_index(index, artifact)
                })
                .0
                .map_err(|e| format!("save_index: {e}"))
            }
        }
    }
}

/// Span name of loading the persisted artifact.
fn load_span(all_pairs: bool) -> &'static str {
    if all_pairs {
        "persist.load_scores"
    } else {
        "persist.load_index"
    }
}

/// Loads the persisted artifact as a servable engine.
fn load_engine(all_pairs: bool, path: &Path) -> Result<Box<dyn QueryEngine>, String> {
    if all_pairs {
        persist::load_scores(path)
            .map(|s| Box::new(s) as Box<dyn QueryEngine>)
            .map_err(|e| e.to_string())
    } else {
        persist::load_index(path)
            .map(|i| Box::new(i) as Box<dyn QueryEngine>)
            .map_err(|e| e.to_string())
    }
}

/// The server's reload source: the persisted artifact, reloaded from disk.
fn file_source(tracer: Arc<Tracer>, all_pairs: bool, path: PathBuf) -> Box<dyn EngineSource> {
    Box::new(move || {
        tracer
            .span_handed_off(load_span(all_pairs), || load_engine(all_pairs, &path))
            .0
    })
}

fn server_config(spec: &Spec) -> ServerConfig {
    ServerConfig {
        cache_capacity: spec.nodes / 10,
        cache_shards: 8,
        max_batch: 64,
        threads: pool(),
    }
}

/// A seeded edit batch against `g`: [`BATCH_INSERTS`] absent edges to
/// insert, then [`BATCH_REMOVES`] present edges to remove.
pub fn edit_batch(g: &DiGraph, rng: &mut SplitMix64) -> Vec<EdgeDelta> {
    let n = g.node_count() as u64;
    let mut batch = Vec::with_capacity(BATCH_INSERTS + BATCH_REMOVES);
    while batch.len() < BATCH_INSERTS {
        let (u, v) = (
            (rng.next_u64() % n) as NodeId,
            (rng.next_u64() % n) as NodeId,
        );
        let d = EdgeDelta::Insert(u, v);
        if u != v && !g.has_edge(u, v) && !batch.contains(&d) {
            batch.push(d);
        }
    }
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    while batch.len() < BATCH_INSERTS + BATCH_REMOVES {
        let (u, v) = edges[(rng.next_u64() % edges.len() as u64) as usize];
        let d = EdgeDelta::Remove(u, v);
        if !batch.contains(&d) {
            batch.push(d);
        }
    }
    batch
}

/// Request sources: Zipf-skewed, or uniform without replacement over a
/// hot set (the first `hot` vertices of a seeded shuffle, dealt in
/// order and reshuffled when spent).
struct Sources {
    rng: SplitMix64,
    zipf: Option<ZipfWorkload>,
    deck: Vec<NodeId>,
    dealt: usize,
}

impl Sources {
    fn new(n: usize, zipf: bool, hot: usize, seed: u64) -> Sources {
        let mut sources = Sources {
            rng: SplitMix64::new(seed),
            zipf: zipf.then(|| ZipfWorkload::new(n, ZIPF_SKEW, seed ^ 0x5eed_2f1f)),
            deck: (0..n as NodeId).collect(),
            dealt: n,
        };
        sources.shuffle();
        sources.deck.truncate(hot);
        sources.dealt = sources.deck.len();
        sources
    }

    fn shuffle(&mut self) {
        for i in (1..self.deck.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            self.deck.swap(i, j);
        }
        self.dealt = 0;
    }

    fn next(&mut self) -> NodeId {
        if let Some(z) = &self.zipf {
            return z.sample(&mut self.rng);
        }
        if self.dealt == self.deck.len() {
            self.shuffle();
        }
        self.dealt += 1;
        self.deck[self.dealt - 1]
    }

    fn request(&mut self, width: usize) -> Vec<NodeId> {
        (0..width).map(|_| self.next()).collect()
    }
}

/// Hash of a ranking's ids and score bits (what "bit for bit" compares).
fn fingerprint(ranking: &[(NodeId, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(v, s) in ranking {
        for word in [v as u64, s.to_bits()] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ ranking.len() as u64
}

/// One `TopKBatch` request of `sources`.
fn top_k_request(client: &mut Client, sources: &[NodeId]) -> Result<(u64, Vec<Ranking>), String> {
    client
        .top_k_batch(sources, TOP_K)
        .map_err(|e| e.to_string())
}

/// Paths of one run's files inside the work directory.
pub struct Files {
    edges: PathBuf,
    artifact: PathBuf,
}

impl Files {
    /// File names unique to this process, under `dir`.
    pub fn new(dir: &Path, workload: Workload, seed: u64) -> Files {
        let stem = format!("{}-s{seed}-p{}", workload.name(), std::process::id());
        let ext = if workload.spec().all_pairs {
            "srm"
        } else {
            "sri"
        };
        Files {
            edges: dir.join(format!("{stem}.edges")),
            artifact: dir.join(format!("{stem}.{ext}")),
        }
    }

    /// Removes the run's files.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.edges);
        let _ = std::fs::remove_file(&self.artifact);
    }
}

/// Runs `workload`'s measured rounds until `seconds` have passed since
/// the first began (whole rounds, with their restarts and checks).
pub fn execute(
    run: &mut Run,
    workload: Workload,
    seed: u64,
    seconds: f64,
    files: &Files,
) -> Result<(), String> {
    let spec = workload.spec();
    let opts = options(spec.epsilon);
    let tr = Arc::clone(&run.tracer);

    // Input: the seeded graph, written as an edge-list file (untimed).
    let input = generate(spec.family, spec.nodes, seed);
    let file = std::fs::File::create(&files.edges).map_err(|e| format!("create edge list: {e}"))?;
    graph_io::write_edge_list(&input, file).map_err(|e| format!("write edge list: {e}"))?;
    drop(input);

    // Set-up: edge-list file → first answer ready, several times.
    heap::track(true);
    let mut ingest = None;
    let mut solved = None;
    for _ in 0..SETUP_REPS {
        drop(ingest.take());
        drop(solved.take());
        let (result, took) = tr.span("bench.setup", || {
            setup_once(&tr, &mut run.notes, &spec, &opts, files)
        });
        let (i, s) = run.ledger.op("setup", result)?;
        run.notes.push("setup_s", took.as_secs_f64());
        ingest = Some(i);
        solved = s;
    }
    heap::track(false);
    let mut ingest = ingest.expect("at least one set-up");
    check_setup(run, &ingest, solved.take(), &opts, files, seed);

    // Restart: load the persisted artifact and start serving it.
    heap::track(true);
    let mut server: Option<ServerHandle> = None;
    for _ in 0..RESTART_REPS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        server = Some(restart(run, &spec, files)?);
    }
    let server = server.expect("at least one restart");
    let mut client = run.ledger.op("connect", Client::connect(server.addr()))?;

    // Measured rounds: edit batch → update + persist + reload → requests.
    let mut edit_rng = SplitMix64::new(seed ^ 0xed17_ba7c);
    let mut sources = Sources::new(spec.nodes, spec.zipf, spec.hot_set, seed ^ 0x7a3e_51c0);
    let mut shadow = (!spec.all_pairs).then(|| ingest.graph().clone());
    let mut generation = server.generation();
    let mut req_id = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let rounds = Instant::now();
    loop {
        heap::track(true);
        let batch = edit_batch(ingest.graph(), &mut edit_rng);
        if let Some(shadow) = shadow.as_mut() {
            // The index applies the batch inside `repair`; the same call on
            // a copy of the graph times the graph layer on its own.
            let applied = tr
                .span("graph.apply_batch", || shadow.apply_batch(&batch))
                .0;
            run.ledger.op("apply_batch", applied)?;
        }
        let (result, took) = tr.span("bench.update", || -> Result<u64, String> {
            ingest.update(&tr, &mut run.notes, &opts, &batch, &files.artifact)?;
            tr.span("serve.reload", || {
                tr.hand_off();
                client.reload()
            })
            .0
            .map_err(|e| format!("reload: {e}"))
        });
        let next = run.ledger.op("update", result)?;
        run.notes.push("update_s", took.as_secs_f64());
        run.ledger.check(
            "Reload advances the generation",
            next == generation + 1,
            || format!("generation {generation} reloaded to {next}"),
        );
        generation = next;

        let mut stale = 0usize;
        for i in 0..spec.warmup_requests + spec.timed_requests {
            if i == spec.warmup_requests {
                let cache = stats(&tr, &mut run.ledger, &mut client)?;
                run.replay_started(cache);
            }
            let us = sources.request(spec.sources_per_request);
            req_id += 1;
            let (reply, took) =
                tr.request("serve.topk", req_id, || top_k_request(&mut client, &us));
            let (g, rankings) = run.ledger.op("top-k request", reply)?;
            if i >= spec.warmup_requests {
                if !LATENCIES.push((took.as_secs_f64() * 1e3).to_bits()) {
                    return Err(LOG_FULL.into());
                }
                run.answers += us.len();
            }
            stale += usize::from(g != generation || rankings.len() != us.len());
            for (&u, ranking) in us.iter().zip(&rankings) {
                if !(SERVED_SOURCES.push(u.into()) && SERVED_RANKINGS.push(fingerprint(ranking))) {
                    return Err(LOG_FULL.into());
                }
            }
        }
        let cache = stats(&tr, &mut run.ledger, &mut client)?;
        run.replay_ended(cache);
        for _ in 1..STATS_PROBES {
            stats(&tr, &mut run.ledger, &mut client)?;
        }

        heap::track(false);
        run.ledger
            .check("answers carry the reloaded generation", stale == 0, || {
                format!("{stale} answers not from generation {generation}")
            });
        verify_served(run, ingest.engine());
        for _ in 0..RESTARTS_PER_ROUND {
            restart(run, &spec, files)?.shutdown();
        }
        if rounds.elapsed() >= budget {
            break;
        }
    }
    drop(client);
    server.shutdown();
    check_final(run, &ingest, shadow.as_ref(), &opts, seed);
    Ok(())
}

/// One restart, timed into `load_s`: load the persisted artifact and
/// start a server over it with a file-backed reload source.
fn restart(run: &mut Run, spec: &Spec, files: &Files) -> Result<ServerHandle, String> {
    let tr = Arc::clone(&run.tracer);
    let (result, took) = tr.span("bench.restart", || -> Result<ServerHandle, String> {
        let engine = tr
            .span(load_span(spec.all_pairs), || {
                load_engine(spec.all_pairs, &files.artifact)
            })
            .0?;
        let source = file_source(Arc::clone(&tr), spec.all_pairs, files.artifact.clone());
        tr.span("serve.start", || {
            serve(engine, Some(source), server_config(spec))
        })
        .0
        .map_err(|e| e.to_string())
    });
    let handle = run.ledger.op("restart", result)?;
    run.notes.push("load_s", took.as_secs_f64());
    Ok(handle)
}

/// One `Stats` round trip: the cache's `(hits, misses)` so far.
fn stats(tr: &Tracer, ledger: &mut Ledger, client: &mut Client) -> Result<(u64, u64), String> {
    let reply = tr.span("serve.stats", || client.stats()).0;
    let (_, s) = ledger.op("stats request", reply)?;
    Ok((s.cache_hits, s.cache_misses))
}

/// Edge-list file → first answer ready. All-pairs: read, plan, OIP-SR,
/// `SRM1` save and load (the solved matrix is returned for the
/// round-trip check). Index: read, build and `SRI1` save.
fn setup_once(
    tr: &Tracer,
    notes: &mut Notes,
    spec: &Spec,
    opts: &SimRankOptions,
    files: &Files,
) -> Result<(Ingest, Option<SimMatrix>), String> {
    let graph = tr
        .span("graph.read", || {
            std::fs::File::open(&files.edges)
                .map_err(|e| e.to_string())
                .and_then(|f| graph_io::read_edge_list(f).map_err(|e| e.to_string()))
        })
        .0?;
    if spec.all_pairs {
        let (plan, _) = tr.span("plan.build", || SharingPlan::build(&graph, opts));
        let ((solved, report), _) = tr.span("engine.solve", || {
            oip::oip_simrank_with_plan(&graph, &plan, opts)
        });
        notes.push("plan.d_eff", plan.d_eff());
        notes.push("engine.iterations", report.iterations as f64);
        notes.push("engine.adds", report.adds as f64);
        notes.push(
            "engine.peak_intermediate_mib",
            report.peak_intermediate_bytes as f64 / MIB,
        );
        drop(plan);
        tr.span("persist.save_scores", || {
            persist::save_scores(&solved, &files.artifact)
        })
        .0
        .map_err(|e| format!("save_scores: {e}"))?;
        let scores = tr
            .span("persist.load_scores", || {
                persist::load_scores(&files.artifact)
            })
            .0
            .map_err(|e| format!("load_scores: {e}"))?;
        Ok((Ingest::Scores { graph, scores }, Some(solved)))
    } else {
        let ((index, report), _) = tr.span("index.build", || {
            SimRankIndex::build_with_report(&graph, opts)
        });
        notes.push("index.build_rounds", report.iterations as f64);
        notes.push("index.build_adds", report.adds as f64);
        notes.push("index.residual", index.solver_residual());
        tr.span("persist.save_index", || {
            persist::save_index(&index, &files.artifact)
        })
        .0
        .map_err(|e| format!("save_index: {e}"))?;
        Ok((Ingest::Index(index), None))
    }
}

/// Checks of the set-up's output, against properties the method must have.
fn check_setup(
    run: &mut Run,
    ingest: &Ingest,
    solved: Option<SimMatrix>,
    opts: &SimRankOptions,
    files: &Files,
    seed: u64,
) {
    let size = std::fs::metadata(&files.artifact).map_or(0, |m| m.len()) as f64;
    let ledger = &mut run.ledger;
    match ingest {
        Ingest::Scores { graph, scores } => {
            run.notes.push("persist.scores_mib", size / MIB);
            let solved = solved.expect("all-pairs set-up returns the solved matrix");
            let same_bits = solved.order() == scores.order()
                && solved
                    .iter_upper()
                    .zip(scores.iter_upper())
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2.to_bits() == b.2.to_bits());
            ledger.check("SRM1 load is bit-equal to the save", same_bits, String::new);
            check_score_matrix(ledger, scores);
            let k = opts.conventional_iterations();
            let bound = DAMPING.powi(k as i32 + 1) + 1e-12;
            let worst = fixed_point_residual(graph, scores, seed);
            ledger.check(
                "SimRank fixed-point residual ≤ C^(K+1)",
                worst <= bound,
                || format!("residual {worst:e} > {bound:e}"),
            );
        }
        Ingest::Index(index) => {
            run.notes.push("persist.index_kib", size / 1024.0);
            let tol = opts.epsilon * (1.0 - DAMPING);
            let r = index.solver_residual();
            ledger.check("index diagonal residual ≤ ε(1−C)", r <= tol, || {
                format!("residual {r:e} > {tol:e}")
            });
            let loaded = persist::load_index(&files.artifact);
            ledger.check(
                "SRI1 load equals the built index",
                loaded.as_ref().is_ok_and(|l| l == index),
                || format!("{:?}", loaded.as_ref().err()),
            );
        }
    }
}

/// Symmetric, unit diagonal, every score in `[0, 1]`.
fn check_score_matrix(ledger: &mut Ledger, s: &SimMatrix) {
    let n = s.order();
    let mut bad = 0usize;
    for a in 0..n {
        bad += usize::from(s.get(a, a) != 1.0);
        for b in (a + 1)..n {
            let v = s.get(a, b);
            bad += usize::from(!(0.0..=1.0).contains(&v) || v.to_bits() != s.get(b, a).to_bits());
        }
    }
    ledger.check(
        "scores symmetric, unit diagonal, in [0, 1]",
        bad == 0,
        || format!("{bad} entries violate it"),
    );
}

/// Largest `|s(a,b) − C/(|I(a)||I(b)|)·Σ s(i,j)|` over seeded vertex pairs.
fn fixed_point_residual(g: &DiGraph, s: &SimMatrix, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed ^ 0xf1ed_9017);
    let n = g.node_count() as u64;
    let mut worst = 0.0f64;
    for _ in 0..RESIDUAL_PAIRS {
        let (a, b) = (
            (rng.next_u64() % n) as NodeId,
            (rng.next_u64() % n) as NodeId,
        );
        if a == b {
            continue;
        }
        let (ia, ib) = (g.in_neighbors(a), g.in_neighbors(b));
        let f = if ia.is_empty() || ib.is_empty() {
            0.0
        } else {
            let sum: f64 = ia
                .iter()
                .flat_map(|&i| ib.iter().map(move |&j| s.get(i as usize, j as usize)))
                .sum();
            DAMPING * sum / (ia.len() * ib.len()) as f64
        };
        worst = worst.max((s.get(a as usize, b as usize) - f).abs());
    }
    worst
}

/// Every ranking served this round equals the in-process top-k of the
/// same engine state, bit for bit. The in-process calls are also the
/// run's `index.query` and `query.topk` spans. Empties the round's log.
fn verify_served(run: &mut Run, engine: &dyn QueryEngine) {
    let tr = &run.tracer;
    let mut expected: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut mismatched = 0usize;
    let mut answers = 0usize;
    for (u, got) in SERVED_SOURCES.values().zip(SERVED_RANKINGS.values()) {
        let u = u as NodeId;
        answers += 1;
        let want = *expected.entry(u).or_insert_with(|| {
            let (row, _) = tr.span("index.query", || engine.single_source(u));
            let (ranking, _) =
                tr.span("query.topk", || topk::top_k_scores(&row, u, TOP_K as usize));
            fingerprint(&ranking)
        });
        mismatched += usize::from(got != want);
    }
    run.ledger.check(
        "served rankings equal in-process top-k",
        mismatched == 0,
        || format!("{mismatched} of {answers} rankings differ"),
    );
    SERVED_SOURCES.clear();
    SERVED_RANKINGS.clear();
}

/// Bound on `|index row − exact SimRank|`: with `r` the diagonal
/// residual and `T = C^(K+1)·max|d|` the series tail, the error matrix
/// `E` satisfies `|E_aa| ≤ r` and `E_ab = C·(Q E Qᵀ)_ab − T_ab` off the
/// diagonal, so `max|E| ≤ r + T/(1 − C)`.
fn index_error_bound(index: &SimRankIndex) -> f64 {
    let c = index.damping();
    let dmax = index
        .diagonal_correction()
        .iter()
        .fold(0.0f64, |m, d| m.max(d.abs()));
    index.solver_residual() + dmax * c.powi(index.depth() as i32 + 1) / (1.0 - c)
}

/// Largest entry-wise difference of two rows.
fn row_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Checks after the last batch, against independent recomputations.
fn check_final(
    run: &mut Run,
    ingest: &Ingest,
    shadow: Option<&DiGraph>,
    opts: &SimRankOptions,
    seed: u64,
) {
    let ledger = &mut run.ledger;
    match ingest {
        Ingest::Scores { graph, scores } => {
            check_score_matrix(ledger, scores);
            // Warm stop ⇒ within C·ε of the fixed point; K cold sweeps ⇒
            // within C^(K+1).
            let k = opts.conventional_iterations();
            let cold = psum::psum_simrank(graph, &opts.with_iterations(k));
            let bound = DAMPING * opts.epsilon + DAMPING.powi(k as i32 + 1) + 1e-12;
            let gap = scores.max_abs_diff(&cold);
            ledger.check(
                "warm resweep matches a cold psum-SR solve",
                gap <= bound,
                || format!("max gap {gap:e} > {bound:e}"),
            );
        }
        Ingest::Index(index) => {
            let g = index.graph();
            ledger.check(
                "repaired index graph equals the batch-patched graph",
                shadow == Some(g),
                String::new,
            );
            let tol = opts.epsilon * (1.0 - DAMPING);
            let r = index.solver_residual();
            ledger.check("repaired diagonal residual ≤ ε(1−C)", r <= tol, || {
                format!("residual {r:e} > {tol:e}")
            });
            let cold = SimRankIndex::build(g, opts);
            let oracle = psum::psum_simrank(g, &opts.with_iterations(ORACLE_ITERATIONS));
            let oracle_err = DAMPING.powi(ORACLE_ITERATIONS as i32 + 1);
            let (rep_bound, cold_bound) = (index_error_bound(index), index_error_bound(&cold));
            let mut rng = SplitMix64::new(seed ^ 0x0ac1_e5e7);
            let (mut vs_cold, mut vs_oracle) = (0.0f64, 0.0f64);
            for _ in 0..ORACLE_SOURCES {
                let u = (rng.next_u64() % g.node_count() as u64) as NodeId;
                let row = index.query(u);
                vs_cold = vs_cold.max(row_gap(&row, &cold.query(u)));
                vs_oracle = vs_oracle.max(row_gap(&row, &oracle.row(u as usize)));
            }
            let bound = rep_bound + cold_bound + 1e-12;
            ledger.check(
                "repaired index matches a cold build",
                vs_cold <= bound,
                || format!("max gap {vs_cold:e} > {bound:e}"),
            );
            let bound = rep_bound + oracle_err + 1e-12;
            ledger.check(
                "index rows match the psum-SR oracle",
                vs_oracle <= bound,
                || format!("max gap {vs_oracle:e} > {bound:e}"),
            );
            run.notes.push("check.index_vs_cold", vs_cold);
            run.notes.push("check.index_vs_oracle", vs_oracle);
            run.notes.push("check.index_bound", rep_bound);
        }
    }
}

/// Gaps the final index checks measured, with the bound they met:
/// `(vs cold build, vs oracle, bound of the repaired index)`.
pub fn index_check_gaps(run: &Run) -> Option<(f64, f64, f64)> {
    let n = &run.notes;
    (!n.samples("check.index_bound").is_empty()).then(|| {
        (
            n.median("check.index_vs_cold"),
            n.median("check.index_vs_oracle"),
            n.median("check.index_bound"),
        )
    })
}
