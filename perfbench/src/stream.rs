//! `stream` workload: a model trained on the first 80% of digg-like's
//! edges (graph padded to the final node count) follows the rest of the
//! stream. A generator thread appends small records to the edge log at
//! a fixed rate; the main thread applies each record with a
//! `StreamProcessor` and hot-swaps a live `QueryEngine` that a reader
//! thread queries at a fixed rate. A drain replays a pre-filled log at
//! full speed. Each round of a run carries one drain and one segment of
//! the live phase.

use crate::net::{open_loop, Load};
use crate::report::{median, quantile, since, Fnv, Ledger, Pass, ROUNDS};
use crate::{Size, Workload};
use ehna_core::{AggregatorKind, EhnaConfig, EhnaModel, Trainer};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_serve::{
    BruteForceIndex, EmbeddingStore, EngineConfig, QueryEngine, Server, ServerHandle,
};
use ehna_stream::{EdgeLogReader, EdgeLogWriter, RefreshPlanner, StreamOptions, StreamProcessor};
use ehna_tgraph::{GraphBuilder, NodeEmbeddings, NodeId, TemporalEdge, TemporalGraph};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `refresh_equivalence` bound for a frozen model: every row of the
/// incrementally refreshed table is within this of a full refresh.
const FROZEN_BOUND: f64 = 1e-4;

/// Edges per edge-log record.
const EDGES_PER_RECORD: usize = 4;
/// Most recent prefix edges the prefix model takes gradient steps on.
const TRAIN_EDGES: usize = 1024;
/// Reader `knn` requests, spread evenly over the live phase.
const READER_REQUESTS: usize = 1000;
/// Records the generator appends during the live phase.
const LIVE_RECORDS: usize = 300;

/// Seconds the live phase spreads its records over, in all rounds.
fn live_s(size: Size, seconds: f64) -> f64 {
    match size {
        Size::Full => 0.3 * seconds,
        Size::Min => 2.0,
    }
}

/// Records pre-filled into the drain log (capped by the suffix).
fn drain_records(size: Size) -> usize {
    match size {
        Size::Full => 400,
        Size::Min => 200,
    }
}

/// The prefix model: attention aggregator at dim 16, k = l = 4, batch
/// 512. Streaming runs the model frozen (see README.md).
fn config(seed: u64) -> EhnaConfig {
    EhnaConfig {
        dim: 16,
        num_walks: 4,
        walk_length: 4,
        batch_size: 512,
        epochs: 1,
        threads: 2,
        aggregator: AggregatorKind::Attn,
        seed,
        ..Default::default()
    }
}

const OPTIONS: StreamOptions =
    StreamOptions { finetune_steps: 0, full_rebuild_every: 0, finetune_lr: None };

struct Live {
    processor: StreamProcessor,
    engine: Arc<QueryEngine>,
    front: ServerHandle,
    /// The post-prefix state every drain starts from: graph and model.
    prefix: TemporalGraph,
    model_bytes: Vec<u8>,
    /// Where drains swap their tables (no server reads it).
    drain_engine: Arc<QueryEngine>,
    live_log: EdgeLogWriter,
    drain_path: PathBuf,
    live_path: PathBuf,
    records: Vec<Vec<TemporalEdge>>,
    input_fnv: String,
    sizes: (usize, usize, usize),
    infer_rows_per_s: f64,
}

fn serve_table(
    emb: &NodeEmbeddings,
) -> Result<(Arc<EmbeddingStore>, Box<BruteForceIndex>), String> {
    let store = Arc::new(EmbeddingStore::new(emb.clone(), None).map_err(|e| e.to_string())?);
    let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Ok((store, index))
}

/// Generate → split → prefix-train → baseline refresh → spawn, and
/// pre-fill the drain log.
fn setup(
    seed: u64,
    drain_records: usize,
    work: &Path,
    ledger: &mut Ledger,
) -> Result<Live, String> {
    let (graph, prefix, records) = ledger.span("other", || -> Result<_, String> {
        let graph = generate(Dataset::DiggLike, Scale::Small, seed);
        let edges = graph.edges();
        let cut = edges.len() * 4 / 5;
        let mut b = GraphBuilder::with_num_nodes(graph.num_nodes());
        b.extend_edges(edges[..cut].iter().copied()).map_err(|e| e.to_string())?;
        let prefix = b.build().map_err(|e| e.to_string())?;
        let records: Vec<Vec<TemporalEdge>> =
            edges[cut..].chunks(EDGES_PER_RECORD).map(<[_]>::to_vec).collect();
        Ok((graph, prefix, records))
    })?;
    // One pass over the most recent prefix edges: walks see the whole
    // prefix, gradient steps take only its tail (a full epoch over the
    // prefix, four times per run, would not fit the run's time budget).
    let mut trainer = ledger.span("core.prefix_train", || -> Result<_, String> {
        let mut trainer = Trainer::new(&prefix, config(seed))?;
        let edges = prefix.edges();
        let tail: Vec<_> = edges[edges.len().saturating_sub(TRAIN_EDGES)..]
            .iter()
            .map(|e| (e.src, e.dst, e.t))
            .collect();
        for (i, batch) in tail.chunks(trainer.model().config.batch_size).enumerate() {
            trainer.train_batch(batch, i as u64);
        }
        Ok(trainer)
    })?;
    let mut infer_rows_per_s = f64::NAN;
    if ledger.is_on() {
        let (emb, secs) = ledger.timed("core.infer", || trainer.embeddings());
        infer_rows_per_s = emb.num_nodes() as f64 / secs;
    }
    let model = trainer.into_model();
    let processor = ledger
        .span("stream.baseline_refresh", || StreamProcessor::new(prefix.clone(), model, OPTIONS))
        .map_err(|e| e.to_string())?;
    let mut model_bytes = Vec::new();
    ledger
        .span("other", || processor.model().save_checkpoint(&mut model_bytes))
        .map_err(|e| e.to_string())?;
    let (engine, front, drain_engine) = ledger.span("serve.spawn", || -> Result<_, String> {
        let (store, index) = serve_table(processor.embeddings())?;
        let engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
        let front = Server::bind("127.0.0.1:0", Arc::clone(&engine))
            .and_then(Server::spawn)
            .map_err(|e| e.to_string())?;
        let (store, index) = serve_table(processor.embeddings())?;
        let drain_engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
        Ok((engine, front, drain_engine))
    })?;
    let dir = work.join("stream");
    let (live_path, drain_path) = (dir.join("live.ehnl"), dir.join("drain.ehnl"));
    let live_log = ledger.span("stream.wal_append", || -> std::io::Result<_> {
        std::fs::create_dir_all(&dir)?;
        let live = EdgeLogWriter::create(&live_path)?;
        let mut drain = EdgeLogWriter::create(&drain_path)?;
        for r in records.iter().skip(LIVE_RECORDS).take(drain_records) {
            drain.append(r)?;
        }
        Ok(live)
    });
    let live_log = live_log.map_err(|e| format!("edge log in {}: {e}", dir.display()))?;
    Ok(Live {
        prefix: processor.graph().clone(),
        processor,
        engine,
        front,
        model_bytes,
        drain_engine,
        live_log,
        drain_path,
        live_path,
        input_fnv: Fnv::new().edges(graph.edges()).hex(),
        sizes: (graph.num_nodes(), prefix.num_edges(), graph.num_edges() - prefix.num_edges()),
        records,
        infer_rows_per_s,
    })
}

/// Largest row distance between two tables of the same shape.
fn max_row_dist(a: &NodeEmbeddings, b: &NodeEmbeddings) -> f64 {
    (0..a.num_nodes())
        .map(|v| {
            let (ra, rb) = (a.get(NodeId(v as u32)), b.get(NodeId(v as u32)));
            ra.iter().zip(rb).map(|(x, y)| (f64::from(*x) - f64::from(*y)).powi(2)).sum::<f64>()
        })
        .fold(0.0, f64::max)
        .sqrt()
}

/// Check a processor's incrementally refreshed table against
/// `StreamProcessor::full_refresh` on the same model and graph, leaving
/// the processor on the fully refreshed table.
fn check_full_refresh(
    processor: &mut StreamProcessor,
    stage: &str,
    ledger: &mut Ledger,
    pass: &mut Pass,
) -> Result<(), String> {
    let streamed = processor.embeddings().clone();
    ledger.span("stream.full_refresh", || processor.full_refresh()).map_err(|e| e.to_string())?;
    let dist = ledger.span("other", || max_row_dist(&streamed, processor.embeddings()));
    pass.check(
        &format!("stream.{stage}_matches_full_refresh"),
        dist < FROZEN_BOUND,
        format!("largest row distance {dist:.3e} (< {FROZEN_BOUND:e})"),
    );
    pass.fingerprint.extend(streamed.as_slice().iter().map(|x| u64::from(x.to_bits())));
    Ok(())
}

/// Per-record measurements of the main-thread loop.
#[derive(Default)]
struct Applied {
    records: usize,
    edges: usize,
    refreshed: usize,
    read_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    /// Seconds spent in traced-only plan probes (not part of `body_s`).
    probe_s: f64,
}

/// Apply one record and hot-swap `engine`'s serving snapshot.
fn apply(
    processor: &mut StreamProcessor,
    engine: &QueryEngine,
    batch: &[TemporalEdge],
    planner: &RefreshPlanner,
    ledger: &mut Ledger,
    out: &mut Applied,
) -> Result<(), String> {
    let (outcome, secs) = ledger.timed("stream.apply", || processor.apply_batch(batch));
    let outcome = outcome.map_err(|e| e.to_string())?;
    out.apply_ms.push(secs * 1e3);
    let (swapped, secs) = ledger.timed("serve.swap", || -> Result<(), String> {
        let (store, index) = serve_table(processor.embeddings())?;
        engine.swap_snapshot(store, index);
        Ok(())
    });
    swapped?;
    out.swap_ms.push(secs * 1e3);
    if ledger.is_on() {
        // The plan `apply_batch` made internally, re-made on its graph.
        let (_, secs) =
            ledger.timed("stream.plan_probe", || planner.plan(processor.graph(), batch));
        out.plan_ms.push(secs * 1e3);
        out.probe_s += secs;
    }
    out.records += 1;
    out.edges += batch.len();
    out.refreshed += outcome.refreshed;
    Ok(())
}

/// Seconds one set-up takes (the server is shut down after).
pub fn time_setup(seed: u64, size: Size, work: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let live = setup(seed, drain_records(size), work, &mut Ledger::new(false))?;
    let secs = since(t);
    live.shutdown();
    Ok(secs)
}

/// The `stream` workload between set-up and report. Each round runs
/// one drain of the pre-filled log and then one segment of the live
/// phase (a tenth of its records and reader requests).
pub struct Bench {
    live: Live,
    seed: u64,
    live_s: f64,
    live_records: usize,
    expected_drain: usize,
    planner: RefreshPlanner,
    pass: Pass,
    log: EdgeLogReader,
    applied: Applied,
    live_applied: usize,
    freshness_ms: Vec<f64>,
    append_ms: Vec<f64>,
    backlog: usize,
    reads: Load,
    /// Per live segment: the reader's and the freshness medians.
    reader_p50_ms: Vec<f64>,
    fresh_p50_ms: Vec<f64>,
    /// The last drain's processor, checked against a full refresh.
    last_drain: Option<StreamProcessor>,
    round_rates: Vec<f64>,
    records_per_drain: Vec<usize>,
}

impl Bench {
    pub fn new(
        size: Size,
        seed: u64,
        seconds: f64,
        work: &Path,
        ledger: &mut Ledger,
    ) -> Result<Self, String> {
        let mut pass = Pass::default();
        let live = setup(seed, drain_records(size), work, ledger)?;
        let (nodes, prefix_edges, suffix_edges) = live.sizes;
        let live_records = LIVE_RECORDS.min(live.records.len());
        pass.input("stream.nodes", nodes);
        pass.input("stream.prefix_edges", prefix_edges);
        pass.input("stream.suffix_edges", suffix_edges);
        pass.input("stream.live_records", live_records);
        pass.input("stream.graph_fnv", &live.input_fnv);
        let log = ledger
            .span("other", || EdgeLogReader::open(&live.live_path))
            .map_err(|e| e.to_string())?;
        Ok(Bench {
            seed,
            live_s: live_s(size, seconds),
            live_records,
            expected_drain: live
                .records
                .len()
                .saturating_sub(live_records)
                .min(drain_records(size)),
            planner: RefreshPlanner::for_config(&live.processor.model().config),
            live,
            pass,
            log,
            applied: Applied::default(),
            live_applied: 0,
            freshness_ms: Vec::new(),
            append_ms: Vec::new(),
            backlog: 0,
            reads: Load::default(),
            reader_p50_ms: Vec::new(),
            fresh_p50_ms: Vec::new(),
            last_drain: None,
            round_rates: Vec::new(),
            records_per_drain: Vec::new(),
        })
    }

    /// Replay the drain log at full speed on a processor rebuilt from the
    /// post-prefix state (the model goes through a checkpoint round trip).
    fn drain(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let live = &self.live;
        let mut processor = ledger.span("stream.baseline_refresh", || -> Result<_, String> {
            let config = live.processor.model().config.clone();
            let model = EhnaModel::load_checkpoint(&live.model_bytes[..], &live.prefix, config)
                .map_err(|e| e.to_string())?;
            StreamProcessor::new(live.prefix.clone(), model, OPTIONS).map_err(|e| e.to_string())
        })?;
        let mut log = ledger
            .span("other", || EdgeLogReader::open(&live.drain_path))
            .map_err(|e| e.to_string())?;
        let (t, edges, records) = (Instant::now(), self.applied.edges, self.applied.records);
        loop {
            let (batch, secs) = ledger.timed("stream.wal_read", || log.next_batch());
            let Some(batch) = batch.map_err(|e| e.to_string())? else { break };
            self.applied.read_ms.push(secs * 1e3);
            let engine = &self.live.drain_engine;
            apply(&mut processor, engine, &batch, &self.planner, ledger, &mut self.applied)?;
        }
        let drained = self.applied.edges - edges;
        self.round_rates.push(drained as f64 / since(t));
        self.records_per_drain.push(self.applied.records - records);
        self.last_drain = Some(processor);
        Ok(())
    }

    /// The live records of `round`: a generator thread appends them at the
    /// live rate while a reader thread queries the served snapshot, and
    /// this thread applies each record as it appears in the log.
    fn live_segment(&mut self, round: usize, ledger: &mut Ledger) -> Result<(), String> {
        let (first, end) =
            (round * self.live_records / ROUNDS, (round + 1) * self.live_records / ROUNDS);
        let seg_s = self.live_s / ROUNDS as f64;
        let record_rate = (end - first) as f64 / seg_s;
        let requests = READER_REQUESTS / ROUNDS;
        let reader_rate = requests as f64 / seg_s;
        let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(end - first));
        let applied_edges = AtomicUsize::new(self.applied.edges);
        let (addr, nodes) = (self.live.front.addr(), self.live.sizes.0);
        let seed = self.seed ^ 0x5EAD_E700 ^ round as u64;
        let Bench { live, planner, log, applied, freshness_ms, .. } = self;
        let (recs, writer) = (&live.records[first..end], &mut live.live_log);
        let (gen, reads, driven) = std::thread::scope(|s| {
            let generator = s.spawn(|| -> std::io::Result<(Vec<f64>, usize)> {
                let start = Instant::now();
                let mut append_ms = Vec::new();
                let mut appended = applied_edges.load(Ordering::SeqCst);
                for (i, rec) in recs.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(i as f64 / record_rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    stamps.lock().expect("stamp lock").push(Instant::now());
                    let t = Instant::now();
                    writer.append(rec)?;
                    append_ms.push(since(t) * 1e3);
                    appended += rec.len();
                }
                Ok((append_ms, appended - applied_edges.load(Ordering::SeqCst)))
            });
            let reader = s.spawn(|| open_loop(addr, 1, reader_rate, requests, nodes, seed));
            let driven = (|| -> Result<(), String> {
                let mut last_progress = Instant::now();
                let mut done = 0;
                while done < recs.len() {
                    let (batch, secs) = ledger.timed("stream.wal_read", || log.next_batch());
                    match batch.map_err(|e| e.to_string())? {
                        Some(batch) => {
                            applied.read_ms.push(secs * 1e3);
                            let (processor, engine) = (&mut live.processor, &live.engine);
                            apply(processor, engine, &batch, planner, ledger, applied)?;
                            applied_edges.store(applied.edges, Ordering::SeqCst);
                            let stamp = stamps.lock().expect("stamp lock")[done];
                            freshness_ms.push(since(stamp) * 1e3);
                            done += 1;
                            last_progress = Instant::now();
                        }
                        None if since(last_progress) > 10.0 => {
                            return Err("edge log stalled for 10 s".into())
                        }
                        None => ledger
                            .span("stream.idle", || std::thread::sleep(Duration::from_micros(200))),
                    }
                }
                Ok(())
            })();
            let gen = generator.join().expect("generator thread panicked");
            let reads = reader.join().expect("reader thread panicked");
            (gen, reads, driven)
        });
        driven?;
        let (append_ms, backlog) = gen.map_err(|e| format!("generator: {e}"))?;
        self.append_ms.extend(append_ms);
        self.backlog = self.backlog.max(backlog);
        self.live_applied += end - first;
        self.reader_p50_ms.push(median(&reads.latency_ms));
        let fresh = &self.freshness_ms[self.freshness_ms.len() - (end - first)..];
        self.fresh_p50_ms.push(median(fresh));
        self.reads.merge(reads);
        Ok(())
    }

    fn finish(mut self, ledger: &mut Ledger) -> Result<Pass, String> {
        let t = Instant::now();
        // Every live record was hot-swapped in: the served snapshot is the
        // processor's table bit for bit, and that table is a full refresh's.
        let served = self.live.engine.store();
        let same = served.dense().is_some_and(|d| {
            d.as_slice()
                .iter()
                .zip(self.live.processor.embeddings().as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        drop(served);
        let pass = &mut self.pass;
        pass.check(
            "stream.serves_latest_table",
            same,
            format!("served snapshot bit-identical to the streamed table: {same}"),
        );
        check_full_refresh(&mut self.live.processor, "live", ledger, pass)?;
        let last_drain = self.last_drain.as_mut().ok_or("no drain ran")?;
        check_full_refresh(last_drain, "drain", ledger, pass)?;
        pass.body_s += since(t) - self.applied.probe_s;

        let (live_records, expected) = (self.live_records, self.expected_drain);
        pass.ops(
            "stream.live_records",
            live_records as u64,
            (live_records - self.live_applied) as u64,
        );
        let rounds = self.records_per_drain.len();
        let drain_done: usize = self.records_per_drain.iter().sum();
        pass.ops(
            "stream.drain_records",
            (expected * rounds) as u64,
            (expected * rounds).saturating_sub(drain_done) as u64,
        );
        let reads = &self.reads;
        pass.ops("stream.reader", reads.attempted, reads.failed);
        pass.check(
            "stream.reader_ok",
            reads.failed == 0,
            format!("{} of {} reader requests failed", reads.failed, reads.attempted),
        );
        pass.check(
            "stream.drained",
            expected > 0 && self.records_per_drain.iter().all(|&n| n == expected),
            format!("records per drain {:?} of {expected}", self.records_per_drain),
        );

        // Throughput is the upper quartile of the drains' rates: host
        // interference only ever slows a drain down, and on a quiet host
        // the same log drained from the same state still read 3 400 to
        // 5 400 edges/s from one drain to the next.
        eprintln!("stream: drain rounds edges/s {:.0?}", self.round_rates);
        pass.e2e.put("stream.drain_edges_per_s", quantile(&self.round_rates, 0.75), "1/s");
        // The reader's p50 is the lower quartile of the segments' medians,
        // like the serve workload's open loop (see `serve::Bench::finish`).
        // Freshness is a record's apply and swap, compute rather than
        // wake-ups, which steal moves little: its p50 is over all records.
        let freshness_ms = &self.freshness_ms;
        pass.e2e.put("stream.freshness_p50_ms", quantile(freshness_ms, 0.5), "ms");
        eprintln!("stream: reader block p50 ms {:.3?}", self.reader_p50_ms);
        eprintln!("stream: freshness block p50 ms {:.3?}", self.fresh_p50_ms);
        pass.e2e.put("stream.knn_p50_ms", quantile(&self.reader_p50_ms, 0.25), "ms");
        pass.layer.put("stream.freshness_p95_ms", quantile(freshness_ms, 0.95), "ms");
        pass.layer.put("stream.knn_p99_ms", quantile(&reads.latency_ms, 0.99), "ms");
        pass.layer.put("core.infer_rows_per_s", self.live.infer_rows_per_s, "1/s");
        let applied = &self.applied;
        pass.layer.put("stream.wal_append_ms", median(&self.append_ms), "ms");
        pass.layer.put("stream.wal_read_ms", median(&applied.read_ms), "ms");
        pass.layer.put("stream.plan_ms", median(&applied.plan_ms), "ms");
        pass.layer.put("stream.apply_ms", median(&applied.apply_ms), "ms");
        let rows = self.live.processor.embeddings().num_nodes();
        pass.layer.put(
            "stream.dirty_share",
            applied.refreshed as f64 / (applied.records * rows).max(1) as f64,
            "ratio",
        );
        pass.layer.put("serve.swap_ms", median(&applied.swap_ms), "ms");
        pass.layer.put("stream.backlog_edges", self.backlog as f64, "count");
        let Bench { live, pass, .. } = self;
        ledger.span("other", || live.shutdown());
        Ok(pass)
    }
}

impl Workload for Bench {
    fn round(&mut self, round: usize, ledger: &mut Ledger) -> Result<(), String> {
        let t = Instant::now();
        self.drain(ledger)?;
        self.live_segment(round, ledger)?;
        self.pass.body_s += since(t);
        Ok(())
    }

    fn finish(self: Box<Self>, ledger: &mut Ledger) -> Result<Pass, String> {
        (*self).finish(ledger)
    }
}

impl Live {
    fn shutdown(self) {
        self.front.shutdown();
    }
}
