//! The workloads and the repetition loop that measures them.
//!
//! A run repeats its workload from a freshly built cluster and server
//! ("a rep") until the timed phases add up to `--seconds`, and at least
//! [`Sizes::min_reps`] times, so that the block cache and the result
//! cache start from the same state in every rep and set-up is measured
//! several times. Each rep does a fixed amount of work (the scale-free
//! workloads draw each rep's query list from the same distribution);
//! every metric is taken per rep and the run reports the median over
//! its reps, which keeps a short stall of the machine out of the result
//! (except the latency quantiles, taken over the requests of all reps,
//! and `peak_rss_mb`, the first rep's; see `Ctx::finish`).
//!
//! Reference answers are computed after the last rep through the
//! in-process `QueryService::run` on a cluster of their own, and every
//! served answer must equal them. `peak_rss_mb` covers each rep's set-up
//! and timed phase only, not these checks. In traced mode the reps alternate
//! between untraced and traced; the per-layer metrics come from the
//! traced reps and the difference between the two kinds is the tracing
//! overhead.

use crate::digest::{self, Adjacency};
use crate::inputs::{self, QueryMix};
use crate::report::{self, Measured, Metrics};
use crate::rss::{release_free_memory, RssSampler};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{self, Span, Spans};
use datacutter::FilterTiming;
use mssg_core::bfs::{bfs, BfsOptions};
use mssg_core::cluster::SharedBackend;
use mssg_core::ingest::{ingest, IngestOptions, IngestReport};
use mssg_core::{
    BackendKind, BackendOptions, EpochManager, MssgCluster, QueryParams, QueryService,
};
use mssg_serve::{Client, Outcome, Query, ResponseBody, ServeConfig, Server};
use mssg_types::{Edge, Gid, Result};
use simio::{IoSnapshot, IoStats};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Back-end nodes of every cluster the benchmark builds.
pub const NODES: usize = 4;
/// Client connections of the query workloads (at most the 2 cores the
/// benchmark was sized on).
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight. Four outstanding requests
/// keep both cores busy, so work from other processes on the host moves
/// the figures less: a competing busy loop cut `query-scalefree`
/// throughput by 13-23% at two connections of two requests, and by
/// 38-50% at one connection of one request, whose p95 rose by 87-112%.
const IN_FLIGHT: usize = 2;
/// Payload of one undirected edge (two 8-byte ids), the base of
/// `simio.write_amp`.
const EDGE_PAYLOAD_BYTES: f64 = 16.0;
/// No new rep starts after this much wall time, so a run ends well
/// inside its time limit even on a slow machine.
const REP_BUDGET: Duration = Duration::from_secs(100);
/// Query-list stream of `mixed-ingest-query` (rep `r` uses
/// `MIXED_STREAM + r`), apart from the `query-scalefree` lists.
const MIXED_STREAM: u64 = 1 << 32;
/// Failure messages kept for the report.
const MAX_FAILURE_NOTES: usize = 20;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bulk ingestion of the PubMed-S-like stream, then degree read-back.
    IngestBulk,
    /// Zipf-source BFS, 2-hop and degree queries over the scale-free graph.
    QueryScalefree,
    /// Distinct long BFS queries over a path.
    QueryChain,
    /// Update batches through `Server::ingest` next to a query client.
    MixedIngestQuery,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::IngestBulk,
        Workload::QueryScalefree,
        Workload::QueryChain,
        Workload::MixedIngestQuery,
    ];

    /// The workloads `BENCHMARK.json` gates, in its order. The other two
    /// run and check their answers, but on a 2-vCPU virtual machine
    /// their timings follow the host: a 900-round chain BFS and reads
    /// beside update batches are bound by how fast a sleeping thread
    /// wakes, and ten runs of the same code spread by 20-68% of their
    /// median (interquartile range; see `README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::IngestBulk, Workload::QueryScalefree];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBulk => "ingest-bulk",
            Workload::QueryScalefree => "query-scalefree",
            Workload::QueryChain => "query-chain",
            Workload::MixedIngestQuery => "mixed-ingest-query",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition bounds.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// The PubMed-S-like graph is `1/pubmed_scale_div` of the paper's.
    pub pubmed_scale_div: u64,
    /// Edges of the `query-chain` path.
    pub chain_vertices: u64,
    /// Hops of every `query-chain` BFS.
    pub chain_hops: u64,
    /// Queries per `query-chain` rep.
    pub chain_queries: usize,
    /// Set-ups per `query-chain` rep: the path loads in milliseconds,
    /// too briefly for one sample per rep to give a steady `setup_s` and
    /// `ingest_edges_per_s`, so each rep sets up this many times.
    pub chain_setups_per_rep: usize,
    /// Set-ups per `query-scalefree` rep, for the same reason: with one
    /// load per rep a run's `ingest_edges_per_s` was the median of three.
    pub scalefree_setups_per_rep: usize,
    /// Query list of a `query-scalefree` rep.
    pub scalefree_mix: QueryMix,
    /// Query list of a `mixed-ingest-query` rep.
    pub mixed_mix: QueryMix,
    /// Update batches of a `mixed-ingest-query` rep.
    pub mixed_batches: usize,
    /// Degree look-ups after each `ingest-bulk` load.
    pub readback_queries: usize,
    /// BFS queries replayed through `bfs::bfs` for the per-layer BFS
    /// breakdown (traced runs only).
    pub bfs_sample: usize,
    /// Fewest reps in a run.
    pub min_reps: usize,
    /// Most reps in a run.
    pub max_reps: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Sizes {
        Sizes {
            pubmed_scale_div: 64,
            chain_vertices: 4000,
            chain_hops: 900,
            chain_queries: 200,
            chain_setups_per_rep: 40,
            scalefree_setups_per_rep: 3,
            scalefree_mix: QueryMix {
                bfs: 64,
                khop: 8,
                degree: 8,
            },
            mixed_mix: QueryMix {
                bfs: 0,
                khop: 50,
                degree: 150,
            },
            mixed_batches: 8,
            readback_queries: 30_000,
            bfs_sample: 16,
            min_reps: 3,
            max_reps: 32,
        }
    }

    /// Sizes small enough for the benchmark's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            pubmed_scale_div: 4096,
            chain_vertices: 300,
            chain_hops: 60,
            chain_queries: 24,
            chain_setups_per_rep: 2,
            scalefree_setups_per_rep: 2,
            scalefree_mix: QueryMix {
                bfs: 8,
                khop: 6,
                degree: 6,
            },
            mixed_mix: QueryMix {
                bfs: 0,
                khop: 6,
                degree: 12,
            },
            mixed_batches: 4,
            readback_queries: 20,
            bfs_sample: 4,
            min_reps: 2,
            max_reps: 4,
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed seconds to accumulate over reps.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for cluster data (removed as reps end).
    pub work_dir: PathBuf,
    /// Corrupt one expected answer, so the correctness gate must trip.
    pub plant_wrong_answer: bool,
}

impl RunConfig {
    /// Which query list rep `rep` runs, for workloads that draw a list
    /// per rep. Traced runs pair each untraced rep with a traced one on
    /// the same list, so the tracing overhead compares like with like.
    fn list_index(&self, rep: usize) -> u64 {
        (if self.trace { rep / 2 } else { rep }) as u64
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted: queries, ingest calls, read-backs.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Deterministic counters that differed from the first rep.
    pub det_mismatches: Vec<String>,
    /// Spans of the traced reps.
    pub spans: Vec<Span>,
}

impl RunOutput {
    /// `true` when every operation succeeded and answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `cfg` to completion.
pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut ctx = Ctx::new(cfg);
    let outcome = match cfg.workload {
        Workload::IngestBulk => ingest_bulk(&mut ctx),
        Workload::QueryScalefree | Workload::QueryChain => serve_queries(&mut ctx),
        Workload::MixedIngestQuery => mixed(&mut ctx),
    };
    if let Err(e) = outcome {
        ctx.fail(format!("run aborted: {e}"));
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    ctx.finish()
}

/// Accumulators shared by the workloads.
struct Ctx<'a> {
    cfg: &'a RunConfig,
    spans: Spans,
    out: RunOutput,
    setup_s: Vec<f64>,
    ingest_eps: Vec<f64>,
    /// Per rep: queries answered per second.
    qps: Vec<f64>,
    /// Latency of every successful query, all reps pooled: a quantile of
    /// the pool is steadier than the median of per-rep quantiles, whose
    /// scale-free lists each hold only 80 latencies.
    latencies_ms: Vec<f64>,
    disk_bpe: Vec<f64>,
    /// Per rep; only the first is reported (see `finish`).
    peak_rss_mb: Vec<f64>,
    rss: RssSampler,
    /// Per-layer samples; each metric reports the median of its samples.
    layer: BTreeMap<&'static str, Vec<f64>>,
    det_first: Option<Vec<(&'static str, u64)>>,
    phase_untraced: Vec<f64>,
    phase_traced: Vec<f64>,
}

impl<'a> Ctx<'a> {
    fn new(cfg: &'a RunConfig) -> Ctx<'a> {
        Ctx {
            cfg,
            spans: if cfg.trace {
                Spans::enabled()
            } else {
                Spans::disabled()
            },
            out: RunOutput::default(),
            setup_s: Vec::new(),
            ingest_eps: Vec::new(),
            qps: Vec::new(),
            latencies_ms: Vec::new(),
            disk_bpe: Vec::new(),
            peak_rss_mb: Vec::new(),
            rss: RssSampler::start(),
            layer: BTreeMap::new(),
            det_first: None,
            phase_untraced: Vec::new(),
            phase_traced: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.out.failed += 1;
        if self.out.failures.len() < MAX_FAILURE_NOTES {
            self.out.failures.push(msg);
        }
    }

    /// Counts one operation, failed with `err` if it is `Some`.
    fn op(&mut self, err: Option<String>) {
        self.out.attempted += 1;
        if let Some(msg) = err {
            self.fail(msg);
        }
    }

    /// Records one rep's query phase: `answered` queries in `secs`, with
    /// the latencies of those that succeeded.
    fn query_phase(&mut self, answered: usize, secs: f64, latencies_ms: &[f64]) {
        self.qps.push(ratio(answered as f64, secs));
        self.latencies_ms.extend_from_slice(latencies_ms);
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(report::unit_of(name).is_some(), "unknown metric {name}");
        self.layer.entry(name).or_default().push(value);
    }

    /// Records counters that must repeat exactly in every rep of a run.
    fn deterministic(&mut self, rep: usize, values: Vec<(&'static str, u64)>) {
        match &self.det_first {
            None => self.det_first = Some(values),
            Some(first) => {
                for ((name, want), (_, got)) in first.iter().zip(&values) {
                    if want != got {
                        self.out
                            .det_mismatches
                            .push(format!("rep {rep}: {name} = {got}, first rep {want}"));
                    }
                }
            }
        }
    }

    /// The span recorder for one rep: live only in the traced reps.
    fn rep_spans(&self, traced: bool) -> Spans {
        if traced {
            self.spans.clone()
        } else {
            Spans::disabled()
        }
    }

    /// Runs `body` once per rep until the timed phases reach
    /// `--seconds` (and at least `min_reps` times; four in traced mode,
    /// two untraced and two traced). `body` returns its timed seconds.
    fn reps(
        &mut self,
        mut body: impl FnMut(&mut Ctx<'a>, usize, bool) -> Result<f64>,
    ) -> Result<()> {
        let started = Instant::now();
        let sizes = &self.cfg.sizes;
        let min_reps = if self.cfg.trace {
            sizes.min_reps.max(4)
        } else {
            sizes.min_reps
        };
        let max_reps = sizes.max_reps.max(min_reps);
        let mut timed = 0.0;
        for rep in 0..max_reps {
            let traced = self.cfg.trace && rep % 2 == 1;
            let secs = body(self, rep, traced)?;
            eprintln!(
                "rep {rep}{}: setup {:.4} s, timed phase {secs:.4} s, peak RSS {:.1} MB",
                if traced { " (traced)" } else { "" },
                self.setup_s.last().copied().unwrap_or(0.0),
                self.peak_rss_mb.last().copied().unwrap_or(0.0),
            );
            if traced {
                self.phase_traced.push(secs);
            } else {
                self.phase_untraced.push(secs);
            }
            timed += secs;
            let enough = timed >= self.cfg.seconds || started.elapsed() >= REP_BUDGET;
            if rep + 1 >= min_reps && enough {
                break;
            }
        }
        Ok(())
    }

    /// Opens a rep's `peak_rss_mb` window; call just before its set-up.
    fn rss_open(&self) {
        release_free_memory();
        self.rss.take_peak_mb();
    }

    /// Closes the window; call just after the timed phase, before the
    /// benchmark's own checks, so their memory stays out of the figure.
    fn rss_close(&mut self) {
        let peak = self.rss.take_peak_mb();
        self.peak_rss_mb.push(peak);
    }

    fn rep_dir(&self, rep: usize) -> PathBuf {
        self.cfg.work_dir.join(format!("rep-{rep}"))
    }

    fn finish(mut self) -> RunOutput {
        for msg in &self.out.det_mismatches {
            eprintln!("DETERMINISM MISMATCH: {msg}");
        }
        let mut m = Metrics::new();
        let mut put = |name: &'static str, value: f64, samples: usize| {
            m.insert(name, Measured { value, samples });
        };
        if self.cfg.trace {
            let spans = self.spans.finished();
            for (layer, ns) in trace::self_time_by_layer(&spans) {
                if let Some((name, _)) = report::PER_LAYER
                    .iter()
                    .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
                {
                    put(name, ns as f64 / 1e6, 1);
                }
            }
            put("trace.spans", spans.len() as f64, 1);
            let untraced = median(&self.phase_untraced);
            put(
                "trace.overhead_pct",
                100.0 * ratio(median(&self.phase_traced) - untraced, untraced),
                self.phase_traced.len(),
            );
            put("det.mismatches", self.out.det_mismatches.len() as f64, 1);
            for (name, values) in &self.layer {
                put(name, median(values), values.len());
            }
            self.out.spans = spans;
        } else {
            put("setup_s", median(&self.setup_s), self.setup_s.len());
            put(
                "ingest_edges_per_s",
                median(&self.ingest_eps),
                self.ingest_eps.len(),
            );
            let lat = &self.latencies_ms;
            let n = lat.len();
            put("query_qps", median(&self.qps), n);
            put("query_p50_ms", quantile(lat, 0.5).unwrap_or(0.0), n);
            put("query_p95_ms", quantile(lat, 0.95).unwrap_or(0.0), n);
            put(
                "disk_bytes_per_edge",
                median(&self.disk_bpe),
                self.disk_bpe.len(),
            );
            // The first rep's peak: glibc's per-thread arenas keep their
            // high-water marks, so later reps start from what earlier
            // ones left resident and their peaks climb with the rep count.
            put(
                "peak_rss_mb",
                self.peak_rss_mb.first().copied().unwrap_or(0.0),
                1,
            );
        }
        self.out.metrics = m;
        self.out
    }
}

/// Counter handles kept from a cluster before it is handed to a server.
struct Handles {
    backends: Vec<SharedBackend>,
    io: Vec<Arc<IoStats>>,
}

impl Handles {
    fn of(cluster: &MssgCluster) -> Handles {
        Handles {
            backends: (0..cluster.nodes()).map(|i| cluster.backend(i)).collect(),
            io: (0..cluster.nodes()).map(|i| cluster.io_stats(i)).collect(),
        }
    }

    fn io(&self) -> IoSnapshot {
        self.io
            .iter()
            .fold(IoSnapshot::default(), |acc, s| acc.merged(&s.snapshot()))
    }

    /// Block-cache `(hits, misses, evictions)` summed over the nodes.
    fn cache(&self) -> (u64, u64, u64) {
        self.backends.iter().fold((0, 0, 0), |acc, b| {
            let (h, m, e) = b.lock().cache_counters().unwrap_or((0, 0, 0));
            (acc.0 + h, acc.1 + m, acc.2 + e)
        })
    }
}

/// Per-layer storage metrics over one phase.
fn storage_layer(
    ctx: &mut Ctx,
    io: &IoSnapshot,
    cache_before: (u64, u64, u64),
    cache_after: (u64, u64, u64),
    edges: u64,
) {
    let hits = (cache_after.0 - cache_before.0) as f64;
    let misses = (cache_after.1 - cache_before.1) as f64;
    ctx.layer("grdb.cache_hit_ratio", ratio(hits, hits + misses));
    ctx.layer(
        "grdb.cache_evictions",
        (cache_after.2 - cache_before.2) as f64,
    );
    ctx.layer("simio.block_reads", io.block_reads as f64);
    ctx.layer("simio.block_writes", io.block_writes as f64);
    ctx.layer("simio.bytes_written", io.bytes_written as f64);
    ctx.layer(
        "simio.write_amp",
        ratio(io.bytes_written as f64, EDGE_PAYLOAD_BYTES * edges as f64),
    );
    ctx.layer("simio.syncs", io.syncs as f64);
}

/// Per-layer ingestion metrics over the given ingest calls.
fn ingest_layer(ctx: &mut Ctx, reports: &[&IngestReport]) {
    let ms_of = |filter: &str, f: fn(&FilterTiming) -> Duration| -> f64 {
        reports
            .iter()
            .flat_map(|r| r.telemetry.filter(filter))
            .map(|t| ms(f(t)))
            .sum()
    };
    let store_busy = ms_of("store", FilterTiming::busy);
    let store_wait = ms_of("store", |t| t.blocked_recv);
    let frontend_busy = ms_of("ingest", FilterTiming::busy);
    ctx.layer("ingest.store_busy_ms", store_busy);
    ctx.layer("ingest.store_wait_ms", store_wait);
    ctx.layer("ingest.frontend_busy_ms", frontend_busy);
    ctx.layer(
        "ingest.windows",
        reports.iter().map(|r| windows_of(r)).sum::<u64>() as f64,
    );
}

/// Windows an ingest call streamed. Core ingestion exports no window
/// counter, so this is derived from the edges it reports and the default
/// window size.
fn windows_of(report: &IngestReport) -> u64 {
    report
        .edges
        .div_ceil(IngestOptions::default().window_edges as u64)
}

fn fresh_cluster(dir: &Path) -> Result<MssgCluster> {
    let _ = std::fs::remove_dir_all(dir);
    MssgCluster::new(dir, NODES, BackendKind::Grdb, &BackendOptions::default())
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Degree of `v` as `QueryService`'s `degree` analysis prints it.
fn degree_answer(adj: &Adjacency, v: Gid) -> String {
    format!("degree={}", adj.get(&v.raw()).map_or(0, Vec::len))
}

/// `ingest-bulk`: load the stream into a fresh cluster with
/// `core::ingest::ingest` (the timed phase), then look up the degree of
/// uniform vertices through `QueryService::run` and compare the stored
/// adjacency with the stream's.
fn ingest_bulk(ctx: &mut Ctx) -> Result<()> {
    let sizes = ctx.cfg.sizes.clone();
    let seed = ctx.cfg.seed;
    let expected = digest::expected_adjacency(&inputs::pubmed_edges(seed, sizes.pubmed_scale_div));
    let want_digest = digest::digest(&expected);
    let vertices = inputs::pubmed_vertices(sizes.pubmed_scale_div);
    let readback = inputs::uniform_vertices(seed, vertices, sizes.readback_queries);
    let mut want_degrees: Vec<String> = readback
        .iter()
        .map(|&v| degree_answer(&expected, v))
        .collect();
    if ctx.cfg.plant_wrong_answer {
        want_degrees[0].insert_str(0, "planted ");
    }
    drop(expected);
    let svc = QueryService::new();

    ctx.reps(|ctx, rep, traced| {
        let sp = ctx.rep_spans(traced);
        let root = sp.open("bench.rep", 0);
        ctx.rss_open();
        let t0 = Instant::now();
        let edges = {
            let _s = sp.open("graphgen.generate", root.id());
            inputs::pubmed_edges(seed, sizes.pubmed_scale_div)
        };
        let dir = ctx.rep_dir(rep);
        let mut cluster = {
            let _s = sp.open("core.cluster_open", root.id());
            fresh_cluster(&dir)?
        };
        let handles = Handles::of(&cluster);
        ctx.setup_s.push(secs(t0.elapsed()));

        let n = edges.len() as u64;
        let (io0, cache0) = (handles.io(), handles.cache());
        let t = Instant::now();
        let report = {
            let _s = sp.open("ingest.run", root.id());
            ingest(&mut cluster, edges.into_iter(), &IngestOptions::default())?
        };
        let wall = t.elapsed();
        let (io, cache1) = (handles.io().since(&io0), handles.cache());
        ctx.ingest_eps.push(n as f64 / secs(wall));

        let io1 = handles.io();
        let t = Instant::now();
        let mut latencies = Vec::with_capacity(readback.len());
        let mut pins = Vec::new();
        for (&vertex, want) in readback.iter().zip(&want_degrees) {
            if traced {
                pins.push(time_pin(cluster.epoch_manager(), &sp, root.id()));
            }
            let (name, params) = analysis(&Query::Degree { vertex });
            let q0 = Instant::now();
            let got = {
                let _s = sp.open("query.run", root.id());
                svc.run(&cluster, name, &params)
            };
            latencies.push(ms(q0.elapsed()));
            ctx.op(match got {
                Ok(got) if got == *want => None,
                Ok(got) => Some(format!("degree of {vertex:?}: got {got:?}, want {want:?}")),
                Err(e) => Some(format!("degree of {vertex:?}: {e}")),
            });
        }
        ctx.query_phase(latencies.len(), secs(t.elapsed()), &latencies);
        ctx.rss_close();
        let readback_io = handles.io().since(&io1);

        let stored = {
            let _s = sp.open("grdb.digest", root.id());
            digest::stored_adjacency(&handles.backends)?
        };
        let got_digest = digest::digest(&stored);
        ctx.op(if report.edges != n {
            Some(format!("ingest reported {} edges of {n}", report.edges))
        } else if got_digest != want_digest {
            Some(format!(
                "stored adjacency digest {got_digest:#x} != stream digest {want_digest:#x}"
            ))
        } else {
            None
        });
        let disk = dir_bytes(&dir);
        ctx.disk_bpe.push(disk as f64 / n as f64);
        ctx.deterministic(
            rep,
            vec![
                ("simio.block_reads", io.block_reads),
                ("simio.block_writes", io.block_writes),
                ("simio.bytes_written", io.bytes_written),
                ("simio.syncs", io.syncs),
                ("ingest.windows", windows_of(&report)),
                ("disk_bytes", disk),
            ],
        );
        if traced {
            ctx.layer("query.degree_ms.p50", median(&latencies));
            ctx.layer("epoch.pin_us", mean(&pins));
            ingest_layer(ctx, &[&report]);
            storage_layer(ctx, &io, cache0, cache1, n);
            ctx.layer(
                "simio.block_reads_per_query",
                ratio(readback_io.block_reads as f64, latencies.len() as f64),
            );
        }
        drop(root);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(secs(wall))
    })
}

/// The analysis name and parameters `mssg-serve` runs for `query`.
fn analysis(query: &Query) -> (&'static str, QueryParams) {
    let mut p = QueryParams::new();
    let name = match query {
        Query::Bfs { source, dest } => {
            p.insert("source".into(), source.raw().to_string());
            p.insert("dest".into(), dest.raw().to_string());
            "bfs"
        }
        Query::KHop { source, k } => {
            p.insert("source".into(), source.raw().to_string());
            p.insert("k".into(), k.to_string());
            "khop"
        }
        Query::Degree { vertex } => {
            p.insert("vertex".into(), vertex.raw().to_string());
            "degree"
        }
        Query::Components => "components",
    };
    (name, p)
}

/// Answers every query in `queries` in process through
/// `QueryService::run`, one at a time, and records each analysis's
/// latency for the per-layer `query.*` metrics.
fn reference_answers(
    ctx: &mut Ctx,
    cluster: &MssgCluster,
    queries: &BTreeSet<Query>,
) -> Result<BTreeMap<Query, String>> {
    let svc = QueryService::new();
    let sp = ctx.spans.clone();
    let root = sp.open("bench.reference", 0);
    let mut out = BTreeMap::new();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for q in queries {
        let (name, params) = analysis(q);
        let t = Instant::now();
        let got = {
            let _s = sp.open("query.run", root.id());
            svc.run(cluster, name, &params)?
        };
        by_kind.entry(name).or_default().push(ms(t.elapsed()));
        out.insert(q.clone(), got);
    }
    for (kind, name) in [
        ("bfs", "query.bfs_ms.p50"),
        ("khop", "query.khop_ms.p50"),
        ("degree", "query.degree_ms.p50"),
    ] {
        if let Some(v) = by_kind.get(kind) {
            ctx.layer(name, median(v));
        }
    }
    Ok(out)
}

/// Per-layer BFS breakdown (traced runs): replays up to
/// `Sizes::bfs_sample` of the BFS queries through `bfs::bfs` twice, and
/// flags counters that differ between the two passes.
fn bfs_layer(ctx: &mut Ctx, cluster: &MssgCluster, queries: &BTreeSet<Query>) -> Result<()> {
    let sample: Vec<(Gid, Gid)> = queries
        .iter()
        .filter_map(|q| match q {
            Query::Bfs { source, dest } => Some((*source, *dest)),
            _ => None,
        })
        .take(ctx.cfg.sizes.bfs_sample)
        .collect();
    if sample.is_empty() {
        return Ok(());
    }
    let sp = ctx.spans.clone();
    let root = sp.open("bench.bfs_sample", 0);
    let mut passes = Vec::new();
    for _ in 0..2 {
        let (mut setup, mut barrier, mut busy) = (Vec::new(), Vec::new(), Vec::new());
        let mut counters = [0u64; 4];
        for &(source, dest) in &sample {
            let t = Instant::now();
            let m = {
                let _s = sp.open("bfs.run", root.id());
                bfs(cluster, source, dest, &BfsOptions::default())?
            };
            let wall = t.elapsed();
            let copies = m.telemetry.filter("bfs");
            setup.push(ms(wall.saturating_sub(m.telemetry.elapsed)));
            barrier.push(mean(
                &copies
                    .iter()
                    .map(|c| ms(c.blocked_recv))
                    .collect::<Vec<_>>(),
            ));
            busy.push(mean(
                &copies.iter().map(|c| ms(c.busy())).collect::<Vec<_>>(),
            ));
            counters[0] += u64::from(m.rounds);
            counters[1] += m.edges_scanned;
            counters[2] += m.telemetry.net.remote_msgs;
            counters[3] += m.telemetry.net.remote_bytes;
        }
        passes.push((setup, barrier, busy, counters));
    }
    let (setup, barrier, busy, counters) = &passes[1];
    ctx.layer("bfs.setup_ms", mean(setup));
    ctx.layer("bfs.barrier_wait_ms", mean(barrier));
    ctx.layer("bfs.busy_ms", mean(busy));
    let names = [
        "bfs.rounds",
        "bfs.edges_scanned",
        "dc.remote_msgs",
        "dc.remote_bytes",
    ];
    for (i, name) in names.into_iter().enumerate() {
        ctx.layer(name, counters[i] as f64);
        if passes[0].3[i] != counters[i] {
            ctx.out.det_mismatches.push(format!(
                "{name}: {} on the second pass, {} on the first",
                counters[i], passes[0].3[i]
            ));
        }
    }
    Ok(())
}

/// Microseconds to take and drop a pin on the current epoch: how long a
/// query arriving now would wait for the update gate.
fn time_pin(epochs: &EpochManager, sp: &Spans, parent: u64) -> f64 {
    let t = Instant::now();
    let _s = sp.open("epoch.pin", parent);
    drop(epochs.pin());
    t.elapsed().as_secs_f64() * 1e6
}

/// One served query's fate.
struct Answer {
    index: usize,
    latency_ms: f64,
    outcome: std::result::Result<ResponseBody, String>,
}

/// What one connection saw.
#[derive(Default)]
struct ConnectionLog {
    answers: Vec<Answer>,
    pin_us: Vec<f64>,
    secs: f64,
}

/// A closed-loop client: one connection keeping `IN_FLIGHT` requests
/// outstanding over `list[i]` for each `i` in `indices`. Starts at
/// `start`; with `pins`, times an epoch pin before every send (traced
/// reps only). `answered(n)` runs after the `n`-th answer arrives.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    addr: SocketAddr,
    list: &[Query],
    indices: Vec<usize>,
    start: &Barrier,
    sp: &Spans,
    parent: u64,
    pins: Option<&EpochManager>,
    answered: &mut dyn FnMut(usize),
) -> ConnectionLog {
    let mut log = ConnectionLog::default();
    let lost = |log: &mut ConnectionLog, index: usize, why: &str| {
        log.answers.push(Answer {
            index,
            latency_ms: 0.0,
            outcome: Err(why.to_string()),
        })
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            for &i in &indices {
                lost(&mut log, i, &format!("connect: {e}"));
            }
            None
        }
    };
    start.wait();
    let Some(client) = client.as_mut() else {
        return log;
    };
    let t0 = Instant::now();
    let mut inflight = HashMap::new();
    let mut next = 0;
    loop {
        while inflight.len() < IN_FLIGHT && next < indices.len() {
            let i = indices[next];
            next += 1;
            if let Some(epochs) = pins {
                log.pin_us.push(time_pin(epochs, sp, parent));
            }
            let span = sp.open("serve.request", parent);
            let sent = Instant::now();
            match client.send(&list[i]) {
                Ok(id) => {
                    inflight.insert(id, (i, sent, span));
                }
                Err(e) => lost(&mut log, i, &format!("send: {e}")),
            }
        }
        if inflight.is_empty() {
            break;
        }
        match client.recv() {
            Ok((id, outcome)) => {
                let Some((index, sent, span)) = inflight.remove(&id) else {
                    continue;
                };
                drop(span);
                log.answers.push(Answer {
                    index,
                    latency_ms: ms(sent.elapsed()),
                    outcome: match outcome {
                        Outcome::Answer(body) => Ok(body),
                        Outcome::Rejected(r) => Err(format!("rejected: {r:?}")),
                    },
                });
                answered(log.answers.len());
            }
            Err(e) => {
                let why = format!("recv: {e}");
                for (_, (i, _, _)) in inflight.drain() {
                    lost(&mut log, i, &why);
                }
                for &i in &indices[next..] {
                    lost(&mut log, i, &why);
                }
                break;
            }
        }
    }
    log.secs = secs(t0.elapsed());
    log
}

/// Splits a BFS result into its answer (`path_length`, `rounds`) and
/// its `edges_scanned` work counter. The counter is not part of the
/// answer: when a peer learns that the target was found while it still
/// waits for the previous round to close, it stops without expanding
/// its share of the last round, so the count depends on thread timing.
/// It is compared as a deterministic counter instead (`det.mismatches`).
fn split_bfs_result(result: &str) -> (&str, Option<&str>) {
    match result.rsplit_once(" edges_scanned=") {
        Some((answer, scanned)) if result.starts_with("path_length=") => (answer, Some(scanned)),
        _ => (result, None),
    }
}

/// Latencies of the answers that were not errors or rejections.
fn ok_latencies(answers: &[Answer]) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.outcome.is_ok())
        .map(|a| a.latency_ms)
        .collect()
}

/// Checks each served answer of a query against the expected result
/// (or the reason none is known).
fn check_answers<'a>(
    ctx: &mut Ctx,
    checks: impl IntoIterator<Item = (&'a Query, &'a Answer, std::result::Result<String, String>)>,
) {
    let mut scanned_differs = 0;
    for (q, a, want) in checks {
        let err = match &a.outcome {
            Err(e) => Some(format!("{q:?}: {e}")),
            Ok(body) => match want {
                Ok(w) if w == body.result => None,
                Ok(w) => {
                    let (got, got_scanned) = split_bfs_result(&body.result);
                    let (want, want_scanned) = split_bfs_result(&w);
                    if got == want && got_scanned.is_some() && want_scanned.is_some() {
                        scanned_differs += 1;
                        None
                    } else {
                        Some(format!("{q:?}: served {:?}, expected {w:?}", body.result))
                    }
                }
                Err(e) => Some(format!("{q:?}: {e}")),
            },
        };
        ctx.op(err);
    }
    if scanned_differs > 0 {
        ctx.out.det_mismatches.push(format!(
            "bfs.edges_scanned: {scanned_differs} served BFS answers scanned another \
             number of edges than the in-process run of the same query"
        ));
    }
}

/// Serve-layer metrics of one rep's server.
fn serve_layer(ctx: &mut Ctx, server: &Server) {
    let snap = server.telemetry().metrics.snapshot();
    // The histograms' log2 buckets would quantise a quantile to a power
    // of two that reads the same run after run; their exact sum and
    // count give the mean.
    let mean_ms = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.mean() / 1e3);
    ctx.layer("serve.queue_wait_ms.mean", mean_ms("serve.queue_us"));
    ctx.layer("serve.exec_ms.mean", mean_ms("serve.latency_us"));
    let cache = server.cache_stats();
    ctx.layer(
        "serve.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    ctx.layer("serve.cache_invalidations", cache.invalidations as f64);
    ctx.layer(
        "serve.rejected",
        snap.counters.get("serve.overloaded").copied().unwrap_or(0) as f64,
    );
}

/// Opens a fresh cluster, starts a server on it, and loads `edges`
/// through `Server::ingest`. Returns the server, the counter handles,
/// the ingest report and the wall time of the ingest call.
fn start_server(
    dir: &Path,
    edges: Vec<Edge>,
    sp: &Spans,
    parent: u64,
) -> Result<(Server, Handles, IngestReport, Duration)> {
    let cluster = {
        let _s = sp.open("core.cluster_open", parent);
        fresh_cluster(dir)?
    };
    let handles = Handles::of(&cluster);
    let server = {
        let _s = sp.open("serve.start", parent);
        Server::start(cluster, &ServeConfig::default())?
    };
    let t = Instant::now();
    let report = {
        let _s = sp.open("serve.ingest", parent);
        server.ingest(edges.into_iter(), &IngestOptions::default())?
    };
    Ok((server, handles, report, t.elapsed()))
}

fn stop_server(mut server: Server, sp: &Spans, parent: u64) {
    let _s = sp.open("serve.stop", parent);
    server.stop();
}

/// `query-scalefree` and `query-chain`: a fresh served graph per rep,
/// then the rep's fixed query list from `CONNECTIONS` closed-loop
/// connections (the timed phase). After the last rep, a reference
/// cluster answers every query that was served, and each served answer
/// is checked against it.
fn serve_queries(ctx: &mut Ctx) -> Result<()> {
    let sizes = ctx.cfg.sizes.clone();
    let seed = ctx.cfg.seed;
    let chain = ctx.cfg.workload == Workload::QueryChain;
    let generate = move || {
        if chain {
            inputs::chain_edges(sizes.chain_vertices)
        } else {
            inputs::pubmed_edges(seed, sizes.pubmed_scale_div)
        }
    };
    let graph = (!chain)
        .then(|| inputs::Graph::new(inputs::pubmed_vertices(sizes.pubmed_scale_div), &generate()));
    // Chain queries all cost the same, so every rep repeats one list;
    // scale-free queries vary, so each rep draws a list of its own and
    // the run's median spans several.
    let cfg = ctx.cfg;
    let list_for = |rep: usize| match &graph {
        None => inputs::chain_queries(
            seed,
            sizes.chain_vertices,
            sizes.chain_hops,
            sizes.chain_queries,
        ),
        Some(graph) => {
            inputs::scalefree_queries(seed, graph, sizes.scalefree_mix, cfg.list_index(rep))
        }
    };
    let setups_per_rep = if chain {
        sizes.chain_setups_per_rep
    } else {
        sizes.scalefree_setups_per_rep
    };
    // Each rep's list, and its served answers.
    let mut lists: Vec<Vec<Query>> = Vec::new();
    let mut served: Vec<(usize, Answer)> = Vec::new();

    ctx.reps(|ctx, rep, traced| {
        let list = list_for(rep);
        let sp = ctx.rep_spans(traced);
        let root = sp.open("bench.rep", 0);
        let dir = ctx.rep_dir(rep);
        // The last set-up serves the rep; any before it only measure
        // set-up (see `Sizes::chain_setups_per_rep`), and the
        // `peak_rss_mb` window opens again at each.
        let mut setups_left = setups_per_rep;
        let (server, handles, report, ingest_wall, n) = loop {
            ctx.rss_open();
            let t0 = Instant::now();
            let edges = {
                let _s = sp.open("graphgen.generate", root.id());
                generate()
            };
            let n = edges.len() as u64;
            let (server, handles, report, ingest_wall) = start_server(&dir, edges, &sp, root.id())?;
            ctx.setup_s.push(secs(t0.elapsed()));
            ctx.ingest_eps.push(n as f64 / secs(ingest_wall));
            ctx.op((report.edges != n)
                .then(|| format!("ingest reported {} edges of {n}", report.edges)));
            setups_left -= 1;
            if setups_left == 0 {
                break (server, handles, report, ingest_wall, n);
            }
            stop_server(server, &sp, root.id());
        };
        let disk = dir_bytes(&dir);
        ctx.disk_bpe.push(disk as f64 / n as f64);
        ctx.deterministic(
            rep,
            vec![
                ("ingest.windows", windows_of(&report)),
                ("disk_bytes", disk),
            ],
        );

        let (io0, cache0) = (handles.io(), handles.cache());
        let epochs = server.epoch_manager();
        let start = Barrier::new(CONNECTIONS + 1);
        let (logs, wall) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (list, start, sp) = (&list, &start, &sp);
                    let pins = traced.then_some(&*epochs);
                    let indices = (c..list.len()).step_by(CONNECTIONS).collect();
                    let (addr, parent) = (server.addr(), root.id());
                    s.spawn(move || {
                        connection_loop(addr, list, indices, start, sp, parent, pins, &mut |_| {})
                    })
                })
                .collect();
            start.wait();
            let t = Instant::now();
            let logs: Vec<ConnectionLog> = workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect();
            (logs, t.elapsed())
        });
        ctx.rss_close();
        let (io, cache1) = (handles.io().since(&io0), handles.cache());
        let pins: Vec<f64> = logs.iter().flat_map(|l| l.pin_us.iter().copied()).collect();
        let answers: Vec<Answer> = logs.into_iter().flat_map(|l| l.answers).collect();
        ctx.query_phase(list.len(), secs(wall), &ok_latencies(&answers));
        if traced {
            serve_layer(ctx, &server);
            ctx.layer("epoch.pin_us", mean(&pins));
            ctx.layer(
                "epoch.update_wait_ms",
                ms(ingest_wall.saturating_sub(report.telemetry.elapsed)),
            );
            ingest_layer(ctx, &[&report]);
            storage_layer(ctx, &io, cache0, cache1, 0);
            ctx.layer(
                "simio.block_reads_per_query",
                ratio(io.block_reads as f64, list.len() as f64),
            );
        }
        stop_server(server, &sp, root.id());
        drop(root);
        let _ = std::fs::remove_dir_all(&dir);
        lists.push(list);
        served.extend(answers.into_iter().map(|a| (rep, a)));
        Ok(secs(wall))
    })?;

    let ref_dir = ctx.cfg.work_dir.join("reference");
    let mut ref_cluster = fresh_cluster(&ref_dir)?;
    ingest(
        &mut ref_cluster,
        generate().into_iter(),
        &IngestOptions::default(),
    )?;
    if ctx.cfg.trace {
        let first: BTreeSet<Query> = lists[0].iter().cloned().collect();
        bfs_layer(ctx, &ref_cluster, &first)?;
    }
    let queries: BTreeSet<Query> = lists.iter().flatten().cloned().collect();
    let mut reference = reference_answers(ctx, &ref_cluster, &queries)?;
    drop(ref_cluster);
    let _ = std::fs::remove_dir_all(&ref_dir);
    if ctx.cfg.plant_wrong_answer {
        if let Some(a) = reference.get_mut(&lists[0][0]) {
            a.insert_str(0, "planted ");
        }
    }
    let sp = ctx.spans.clone();
    let _s = sp.open("bench.check", 0);
    check_answers(
        ctx,
        served.iter().map(|(rep, a)| {
            let q = &lists[*rep][a.index];
            let want = reference.get(q).cloned();
            (q, a, want.ok_or_else(|| "no reference answer".to_string()))
        }),
    );
    Ok(())
}

/// `mixed-ingest-query`: the first three quarters of the scale-free
/// stream are served, then one connection runs the rep's query list
/// while another thread applies the last quarter as update batches
/// through `Server::ingest` (together, the timed phase). Batch `b`
/// starts once `b + 1` ninths of the list are answered, so every rep
/// interleaves reads and writes the same way. Each answer is checked
/// against the graph of the epoch it reports; the final graph against
/// the whole stream.
fn mixed(ctx: &mut Ctx) -> Result<()> {
    let sizes = ctx.cfg.sizes.clone();
    let seed = ctx.cfg.seed;
    let split = move || {
        let all = inputs::pubmed_edges(seed, sizes.pubmed_scale_div);
        inputs::split_updates(&all, sizes.mixed_batches)
    };
    let all = inputs::pubmed_edges(seed, sizes.pubmed_scale_div);
    let want_digest = digest::digest(&digest::expected_adjacency(&all));
    let graph = inputs::Graph::new(inputs::pubmed_vertices(sizes.pubmed_scale_div), &all);
    let base_len = inputs::split_updates(&all, sizes.mixed_batches).0.len() as u64;
    drop(all);
    let cfg = ctx.cfg;
    let list_for = |rep: usize| {
        let stream = MIXED_STREAM + cfg.list_index(rep);
        inputs::scalefree_queries(seed, &graph, sizes.mixed_mix, stream)
    };
    // Served answers with the number of batches their epoch had
    // applied, checked once the reference graph of each prefix exists.
    let mut served: Vec<(usize, usize, Answer)> = Vec::new();

    ctx.reps(|ctx, rep, traced| {
        let list = list_for(rep);
        let sp = ctx.rep_spans(traced);
        let root = sp.open("bench.rep", 0);
        ctx.rss_open();
        let t0 = Instant::now();
        let (base_edges, batch_edges) = {
            let _s = sp.open("graphgen.generate", root.id());
            split()
        };
        let dir = ctx.rep_dir(rep);
        let (server, handles, base_report, _) = start_server(&dir, base_edges, &sp, root.id())?;
        ctx.setup_s.push(secs(t0.elapsed()));
        ctx.op((base_report.edges != base_len).then(|| {
            format!(
                "base ingest reported {} edges of {base_len}",
                base_report.edges
            )
        }));
        let mut prefix_of_epoch = BTreeMap::from([(server.epoch(), 0usize)]);

        let (io0, cache0) = (handles.io(), handles.cache());
        let epochs = server.epoch_manager();
        let start = Barrier::new(3);
        let checkpoint = list.len() / (batch_edges.len() + 1);
        let (go, next_batch) = std::sync::mpsc::channel::<()>();
        let (log, updates, wall) = std::thread::scope(|s| {
            let (list, start, sp, server) = (&list, &start, &sp, &server);
            let parent = root.id();
            let pins = traced.then_some(&*epochs);
            let queries = s.spawn(move || {
                let indices = (0..list.len()).collect();
                let mut answered = |n: usize| {
                    if checkpoint > 0 && n.is_multiple_of(checkpoint) {
                        let _ = go.send(());
                    }
                };
                connection_loop(
                    server.addr(),
                    list,
                    indices,
                    start,
                    sp,
                    parent,
                    pins,
                    &mut answered,
                )
            });
            let updates = s.spawn(move || {
                start.wait();
                batch_edges
                    .into_iter()
                    .map(|batch| {
                        // A client that stopped early releases the rest.
                        let _ = next_batch.recv();
                        let n = batch.len() as u64;
                        let t = Instant::now();
                        let _s = sp.open("serve.ingest", parent);
                        let r = server.ingest(batch.into_iter(), &IngestOptions::default());
                        (n, t.elapsed(), r.map(|r| (r, server.epoch())))
                    })
                    .collect::<Vec<_>>()
            });
            start.wait();
            let t = Instant::now();
            let log = queries.join().expect("client thread panicked");
            let updates = updates.join().expect("ingest thread panicked");
            (log, updates, t.elapsed())
        });
        ctx.rss_close();
        let (io, cache1) = (handles.io().since(&io0), handles.cache());

        let mut reports = Vec::new();
        let (mut edges, mut update_secs, mut waits) = (0u64, 0.0, Vec::new());
        for (b, (n, wall, r)) in updates.into_iter().enumerate() {
            edges += n;
            update_secs += secs(wall);
            match r {
                Ok((report, epoch)) => {
                    ctx.op((report.edges != n)
                        .then(|| format!("batch {b} reported {} edges of {n}", report.edges)));
                    waits.push(ms(wall.saturating_sub(report.telemetry.elapsed)));
                    prefix_of_epoch.insert(epoch, b + 1);
                    reports.push(report);
                }
                Err(e) => ctx.op(Some(format!("batch {b}: {e}"))),
            }
        }
        ctx.ingest_eps.push(edges as f64 / update_secs);
        ctx.query_phase(list.len(), log.secs, &ok_latencies(&log.answers));

        let stored = {
            let _s = sp.open("grdb.digest", root.id());
            digest::stored_adjacency(&handles.backends)?
        };
        let got_digest = digest::digest(&stored);
        ctx.op((got_digest != want_digest).then(|| {
            format!("final adjacency digest {got_digest:#x} != stream digest {want_digest:#x}")
        }));
        let disk = dir_bytes(&dir);
        ctx.disk_bpe.push(disk as f64 / (base_len + edges) as f64);
        let windows: u64 = reports.iter().map(windows_of).sum();
        ctx.deterministic(rep, vec![("ingest.windows", windows), ("disk_bytes", disk)]);
        if traced {
            serve_layer(ctx, &server);
            ctx.layer("epoch.pin_us", mean(&log.pin_us));
            ctx.layer("epoch.update_wait_ms", mean(&waits));
            let all_reports: Vec<&IngestReport> = reports.iter().collect();
            ingest_layer(ctx, &all_reports);
            storage_layer(ctx, &io, cache0, cache1, edges);
            ctx.layer(
                "simio.block_reads_per_query",
                ratio(io.block_reads as f64, list.len() as f64),
            );
        }
        for a in log.answers {
            let prefix = match &a.outcome {
                Ok(body) => prefix_of_epoch.get(&body.epoch).copied(),
                Err(_) => Some(0),
            };
            match prefix {
                Some(p) => served.push((rep, p, a)),
                None => ctx.op(Some(format!(
                    "{:?} answered at epoch {} which no ingest call reported",
                    list[a.index],
                    a.outcome.as_ref().map_or(0, |b| b.epoch)
                ))),
            }
        }
        stop_server(server, &sp, root.id());
        drop(root);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(secs(wall))
    })?;

    // The reference graph grows batch by batch; at each prefix, answer
    // the queries some epoch with that prefix was asked.
    let lists: BTreeMap<usize, Vec<Query>> = served
        .iter()
        .map(|(rep, _, _)| (*rep, list_for(*rep)))
        .collect();
    let mut needed: BTreeMap<usize, BTreeSet<Query>> = BTreeMap::new();
    for (rep, prefix, a) in &served {
        needed
            .entry(*prefix)
            .or_default()
            .insert(lists[rep][a.index].clone());
    }
    let (base, batches) = split();
    let dir = ctx.cfg.work_dir.join("reference");
    let mut cluster = fresh_cluster(&dir)?;
    ingest(&mut cluster, base.into_iter(), &IngestOptions::default())?;
    if ctx.cfg.trace {
        let first: BTreeSet<Query> = list_for(0).into_iter().collect();
        bfs_layer(ctx, &cluster, &first)?;
    }
    let mut reference: BTreeMap<(usize, Query), String> = BTreeMap::new();
    for prefix in 0..=batches.len() {
        if prefix > 0 {
            ingest(
                &mut cluster,
                batches[prefix - 1].clone().into_iter(),
                &IngestOptions::default(),
            )?;
        }
        if let Some(queries) = needed.get(&prefix) {
            for (q, a) in reference_answers(ctx, &cluster, queries)? {
                reference.insert((prefix, q), a);
            }
        }
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    if ctx.cfg.plant_wrong_answer {
        if let Some(a) = reference.values_mut().next() {
            a.insert_str(0, "planted ");
        }
    }
    check_answers(
        ctx,
        served.iter().map(|(rep, prefix, a)| {
            let q = &lists[rep][a.index];
            let want = reference.get(&(*prefix, q.clone())).cloned();
            (q, a, want.ok_or_else(|| "no reference answer".to_string()))
        }),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_work_counter_is_split_from_the_answer() {
        assert_eq!(
            split_bfs_result("path_length=3 rounds=3 edges_scanned=1526"),
            ("path_length=3 rounds=3", Some("1526"))
        );
        assert_eq!(split_bfs_result("unreachable"), ("unreachable", None));
        assert_eq!(
            split_bfs_result("vertices=7 edges_scanned=12"),
            ("vertices=7 edges_scanned=12", None)
        );
    }
}
