//! `serve` workload: a seeded, clustered table encoded as int8 EHNQ,
//! split into two mmap shards behind a `Router`, queried with uniform
//! keys (so the router cache misses) in a closed and an open loop.

use crate::net::{closed_loop, knn_line, open_loop, splitmix, LineClient, Load};
use crate::report::{median, quantile, since, Fnv, Ledger, Pass, ROUNDS};
use crate::{Size, Workload};
use ehna_cluster::{plan_shards_quant, MuxClient, Request, Response, Router, RouterConfig};
use ehna_cluster::{ShardConfig, ShardHandle, ShardServer};
use ehna_serve::{handle_line, BruteForceIndex, EmbeddingStore, EngineConfig, LineHandler};
use ehna_serve::{QueryEngine, RequestLimits, Server, ServerConfig, ServerHandle, MAX_NAME_LEN};
use ehna_tgraph::quant::sq_dist_f64;
use ehna_tgraph::{NameMap, NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 64;
const SHARDS: u32 = 2;
const CLUSTERS: usize = 64;
const K: usize = 10;
/// Client threads and connections: the host's two CPUs.
const CLIENTS: usize = 2;
/// Requests checked against the standalone engine and the f32 oracle.
const CHECKED: usize = 100;

const ROWS: usize = 12_000;
/// Open-loop arrival rate (1/s): about a quarter of the closed-loop
/// capacity measured on a quiet 2-vCPU x86-64 host, so the loop stays
/// below capacity when the host takes half the CPU time.
const RATE: f64 = 180.0;
const OPEN_COUNT: usize = 1000;
/// Seconds of untimed closed-loop load before the timed phases.
const WARMUP_S: f64 = 0.5;

/// Seconds of closed-loop load.
fn closed_s(size: Size, seconds: f64) -> f64 {
    match size {
        Size::Full => 0.2 * seconds,
        Size::Min => 1.0,
    }
}

/// Rows drawn around `CLUSTERS` gaussian centres, so that neighbours are
/// meaningful and int8 rounding can reorder close ones.
fn clustered_table(rows: usize, seed: u64) -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_7AB1_E000_0001);
    let mut gauss = move || {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    };
    let centres: Vec<f32> = (0..CLUSTERS * DIM).map(|_| gauss()).collect();
    let mut data = Vec::with_capacity(rows * DIM);
    for r in 0..rows {
        let c = (r * 7919 + (gauss().abs() * 1e3) as usize) % CLUSTERS;
        data.extend(centres[c * DIM..(c + 1) * DIM].iter().map(|&x| x + 0.35 * gauss()));
    }
    NodeEmbeddings::from_vec(DIM, data)
}

/// A running two-shard cluster behind a JSON router.
struct Cluster {
    table: NodeEmbeddings,
    quant: QuantizedEmbeddings,
    full_path: std::path::PathBuf,
    engines: Vec<Arc<QueryEngine>>,
    shards: Vec<ShardHandle>,
    router: Arc<Router>,
    front: ServerHandle,
    times: SetupTimes,
}

/// Layer times of one setup; open and verify are summed over shards.
#[derive(Default)]
struct SetupTimes {
    encode_s: f64,
    plan_s: f64,
    open_ms: f64,
    verify_ms: f64,
}

impl Cluster {
    fn shutdown(self) {
        self.front.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// Generate → encode → plan → open → spawn, timing each layer.
fn setup(seed: u64, work: &Path, ledger: &mut Ledger) -> Result<Cluster, String> {
    let table = ledger.span("other", || clustered_table(ROWS, seed));
    let mut times = SetupTimes::default();
    let (quant, encode_s) = ledger.timed("tgraph.quant_encode", || {
        QuantizedEmbeddings::encode(&table, &QuantSpec::new(QuantFormat::Int8))
    });
    let quant = quant.map_err(|e| e.to_string())?;
    times.encode_s = encode_s;
    let dir = work.join("serve");
    let full_path = dir.join("full.int8.ehnq");
    ledger
        .span("other", || {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)
                .and_then(|()| quant.save_path(&full_path).map_err(std::io::Error::other))
        })
        .map_err(|e| format!("write {}: {e}", full_path.display()))?;
    let (manifest, plan_s) =
        ledger.timed("cluster.plan_shards", || plan_shards_quant(&quant, None, SHARDS, &dir));
    let manifest = manifest.map_err(|e| e.to_string())?;
    times.plan_s = plan_s;
    let limits = RequestLimits::default();
    let mut engines = Vec::new();
    let mut shards = Vec::new();
    let mut replicas = Vec::new();
    for (i, entry) in manifest.shards.iter().enumerate() {
        let path = dir.join(&entry.snapshot);
        let (q, open_s) =
            ledger.timed("tgraph.open_mmap", || QuantizedEmbeddings::open_path(&path, true));
        let q = q.map_err(|e| e.to_string())?;
        let (verified, verify_s) = ledger.timed("tgraph.verify_payload", || q.verify_payload());
        verified.map_err(|e| e.to_string())?;
        times.open_ms += open_s * 1e3;
        times.verify_ms += verify_s * 1e3;
        let names_path = dir.join(&entry.names);
        let shard = ledger.span("serve.spawn", || -> Result<_, String> {
            // Shard names carry the global labels the router answers with.
            let names = std::fs::File::open(&names_path)
                .map_err(|e| e.to_string())
                .and_then(|f| {
                    NameMap::load_capped(BufReader::new(f), q.num_nodes(), MAX_NAME_LEN)
                        .map_err(|e| e.to_string())
                })
                .map_err(|e| format!("{}: {e}", names_path.display()))?;
            let store =
                Arc::new(EmbeddingStore::from_quant(q, Some(names)).map_err(|e| e.to_string())?);
            let engine = Arc::new(QueryEngine::new(
                Arc::clone(&store),
                Box::new(BruteForceIndex::new(store)),
                EngineConfig::default(),
            ));
            engines.push(Arc::clone(&engine));
            let config = ShardConfig { shard_id: i as u32, ..Default::default() };
            let server = ShardServer::bind("127.0.0.1:0", engine, limits.clone(), None, config)
                .map_err(|e| e.to_string())?;
            replicas.push(vec![server.local_addr().map_err(|e| e.to_string())?]);
            server.spawn().map_err(|e| e.to_string())
        })?;
        shards.push(shard);
    }
    let (router, front) = ledger.span("serve.spawn", || -> Result<_, String> {
        let config = RouterConfig { probe_interval: Duration::ZERO, ..Default::default() };
        let router =
            Arc::new(Router::new(manifest, replicas, limits, config).map_err(|e| e.to_string())?);
        let handler: Arc<dyn LineHandler> = router.clone();
        let front = Server::bind_handler("127.0.0.1:0", handler, ServerConfig::default())
            .and_then(Server::spawn)
            .map_err(|e| e.to_string())?;
        Ok((router, front))
    })?;
    Ok(Cluster { table, quant, full_path, engines, shards, router, front, times })
}

/// Exact top-`K` ids of row `q` over the f32 table, ties by id, `q` excluded.
fn exact_top_k(table: &NodeEmbeddings, q: usize) -> Vec<usize> {
    let query = table.get(NodeId(q as u32));
    let mut all: Vec<(f64, usize)> = (0..table.num_nodes())
        .filter(|&i| i != q)
        .map(|i| (sq_dist_f64(query, table.get(NodeId(i as u32))), i))
        .collect();
    all.select_nth_unstable_by(K, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(K);
    all.into_iter().map(|(_, i)| i).collect()
}

/// The `"id"` fields of a knn response, in order.
fn response_ids(line: &str) -> Vec<usize> {
    line.split("\"id\":").skip(1).filter_map(|s| s.split([',', '}']).next()?.parse().ok()).collect()
}

fn us(t: Instant) -> f64 {
    since(t) * 1e6
}

/// Seconds one set-up takes (the cluster is shut down after).
pub fn time_setup(seed: u64, work: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let cluster = setup(seed, work, &mut Ledger::new(false))?;
    let secs = since(t);
    cluster.shutdown();
    Ok(secs)
}

/// The `serve` workload between set-up and report: the output checks
/// and warm-up run in [`Bench::new`], then each round runs one
/// closed-loop slice and one open-loop block.
pub struct Bench {
    c: Cluster,
    seed: u64,
    slice_s: f64,
    pass: Pass,
    client: LineClient,
    recall: f64,
    failed: u64,
    warm: Load,
    closed: Load,
    open: Load,
    slice_qps: Vec<f64>,
    block_p50_ms: Vec<f64>,
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
        let c = setup(seed, work, ledger)?;
        pass.input("serve.rows", ROWS);
        pass.input("serve.dim", DIM);
        pass.input("serve.table_fnv", Fnv::new().floats(c.table.as_slice()).hex());
        pass.input("serve.open_rate_per_s", RATE);
        let body = Instant::now();
        let addr = c.front.addr();
        let limits = RequestLimits::default();

        // Output checks on a seeded sample of distinct keys, before any
        // load warms the router cache (so both sides answer "cached":false).
        let oracle = ledger.span("other", || -> Result<_, String> {
            let q =
                QuantizedEmbeddings::open_path(&c.full_path, true).map_err(|e| e.to_string())?;
            let store = Arc::new(EmbeddingStore::from_quant(q, None).map_err(|e| e.to_string())?);
            let config = EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() };
            Ok(QueryEngine::new(Arc::clone(&store), Box::new(BruteForceIndex::new(store)), config))
        })?;
        let mut key_rng = seed ^ 0xC4EC_4ED0_0000_0001;
        let mut keys: Vec<usize> = Vec::new();
        while keys.len() < CHECKED.min(ROWS) {
            let k = splitmix(&mut key_rng) as usize % ROWS;
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut client = LineClient::connect(addr).map_err(|e| e.to_string())?;
        let (mut identical, mut failed, mut recall, mut mismatch) =
            (0usize, 0u64, 0.0f64, String::new());
        for &key in &keys {
            let line = knn_line(key, K);
            let got = ledger.span("cluster.route", || client.call(&line).map(str::to_string));
            let Ok(got) = got else {
                failed += 1;
                continue;
            };
            ledger.span("other", || {
                let want_line = handle_line(&oracle, &limits, &line).to_string();
                if want_line == got {
                    identical += 1;
                } else if mismatch.is_empty() {
                    mismatch =
                        format!("; first mismatch on {line}: standalone {want_line} router {got}");
                }
                let want = exact_top_k(&c.table, key);
                let ids = response_ids(&got);
                recall += ids.iter().filter(|i| want.contains(i)).count() as f64 / K as f64;
            });
        }
        ledger.span("other", || drop(oracle));
        pass.ops("serve.check", keys.len() as u64, failed);
        pass.check(
            "serve.router_matches_standalone",
            identical == keys.len(),
            format!(
                "{identical}/{} router answers byte-identical to a standalone int8 engine{mismatch}",
                keys.len()
            ),
        );

        // Untimed warm-up: the first few hundred requests after start-up
        // (connections, worker wake-ups, page faults on the mapped shards)
        // run up to twice as slow as the rest.
        let warm = ledger.span("cluster.route", || {
            closed_loop(addr, CLIENTS, WARMUP_S, ROWS, seed ^ 0x3A3A_0000)
        });
        pass.body_s = since(body);
        Ok(Bench {
            c,
            seed,
            slice_s: closed_s(size, seconds) / ROUNDS as f64,
            pass,
            client,
            recall: recall / keys.len() as f64,
            failed,
            warm,
            closed: Load::default(),
            open: Load::default(),
            slice_qps: Vec::new(),
            block_p50_ms: Vec::new(),
        })
    }

    /// Closed-loop capacity is the upper quartile of the rounds' slice
    /// throughputs, and the open-loop p50 the lower quartile of the
    /// rounds' block medians: a burst of host steal slows a request chain
    /// of a dozen thread wake-ups by a factor of two to five, so the
    /// best quarter of the rounds reads the code rather than the host.
    fn finish(self, ledger: &mut Ledger) -> Result<Pass, String> {
        let Bench {
            c,
            seed,
            mut pass,
            client,
            recall,
            failed,
            warm,
            closed,
            open,
            slice_qps,
            block_p50_ms,
            ..
        } = self;
        pass.ops("serve.warmup", warm.attempted, warm.failed);
        pass.ops("serve.closed", closed.attempted, closed.failed);
        pass.ops("serve.open", open.attempted, open.failed);
        pass.check(
            "serve.all_responses_ok",
            warm.failed + closed.failed + open.failed + failed == 0,
            format!("{} closed-loop and {} open-loop requests failed", closed.failed, open.failed),
        );
        eprintln!("serve: closed-loop slices 1/s {slice_qps:.0?}");
        pass.e2e.put("serve.knn_qps", quantile(&slice_qps, 0.75), "1/s");
        eprintln!("serve: open-loop block p50 ms {block_p50_ms:.3?}");
        pass.e2e.put("serve.knn_p50_ms", quantile(&block_p50_ms, 0.25), "ms");
        pass.layer.put("serve.knn_p99_ms", quantile(&open.latency_ms, 0.99), "ms");
        pass.e2e.put("serve.recall_at_10", recall, "ratio");
        pass.fingerprint.push(recall.to_bits());

        let stats = LineHandler::stats(c.router.as_ref());
        let hits = stats.cache_hits.load(std::sync::atomic::Ordering::Relaxed) as f64;
        let misses = stats.cache_misses.load(std::sync::atomic::Ordering::Relaxed) as f64;
        pass.layer.put("tgraph.quant_encode_s", c.times.encode_s, "s");
        pass.layer.put("tgraph.open_mmap_ms", c.times.open_ms, "ms");
        pass.layer.put("tgraph.verify_payload_ms", c.times.verify_ms, "ms");
        pass.layer.put("cluster.plan_shards_s", c.times.plan_s, "s");
        pass.layer.put("cluster.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        pass.layer.put("serve.gen_lag_ms", quantile(&open.lag_ms, 0.99), "ms");
        if ledger.is_on() {
            probe_layers(&c, seed, ledger, &mut pass)?;
        }
        ledger.span("other", || {
            drop(client);
            c.shutdown();
        });
        Ok(pass)
    }
}

impl Workload for Bench {
    fn round(&mut self, round: usize, ledger: &mut Ledger) -> Result<(), String> {
        let t = Instant::now();
        let addr = self.c.front.addr();
        let r = round as u64;
        let load = ledger.span("cluster.route", || {
            closed_loop(addr, CLIENTS, self.slice_s, ROWS, self.seed ^ 0xC105_ED00 ^ r)
        });
        self.slice_qps.push((load.attempted - load.failed) as f64 / load.wall_s);
        self.closed.merge(load);
        let block = ledger.span("cluster.route", || {
            open_loop(addr, CLIENTS, RATE, OPEN_COUNT / ROUNDS, ROWS, self.seed ^ 0x0BE7_0000 ^ r)
        });
        self.block_p50_ms.push(median(&block.latency_ms));
        self.open.merge(block);
        self.pass.body_s += since(t);
        Ok(())
    }

    fn finish(self: Box<Self>, ledger: &mut Ledger) -> Result<Pass, String> {
        (*self).finish(ledger)
    }
}

/// Traced-pass probes: one request at a time through each layer.
fn probe_layers(
    c: &Cluster,
    seed: u64,
    ledger: &mut Ledger,
    pass: &mut Pass,
) -> Result<(), String> {
    let limits = RequestLimits::default();
    let rows = c.table.num_nodes();
    let shard_addrs: Vec<_> = c.shards.iter().map(ShardHandle::addr).collect();
    let (muxes, mut client) = ledger.span("other", || -> Result<_, String> {
        let muxes = shard_addrs
            .iter()
            .map(|&a| MuxClient::connect(a, Duration::from_secs(2), Duration::from_secs(5)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((muxes, LineClient::connect(c.front.addr()).map_err(|e| e.to_string())?))
    })?;
    let (mut engine_us, mut line_us, mut rtt_us, mut overhead_us, mut skew_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rng = seed ^ 0x9809_E000;
    for _ in 0..200 {
        // Shard 0 owns even ids; the engine call and the JSON call take
        // different nodes so that neither answers from the hot-node cache.
        let mut even = || (splitmix(&mut rng) as usize % rows) & !1;
        let (global, other) = (even(), even());
        let t = Instant::now();
        let hit = ledger.span("serve.engine_knn", || {
            c.engines[0].knn_node(NodeId((global / SHARDS as usize) as u32), K, false)
        });
        engine_us.push(us(t));
        hit.map_err(|e| e.to_string())?;
        let t = Instant::now();
        ledger.span("serve.handle_line", || {
            black_box(handle_line(&c.engines[0], &limits, &knn_line(other, K)))
        });
        line_us.push(us(t));
        let vector = c.quant.row(global).into_owned();
        let mut shard_us = Vec::new();
        for mux in &muxes {
            let req = Request::Knn { k: K as u32 + 1, explain: false, vector: vector.clone() };
            let t = Instant::now();
            let resp = ledger.span("cluster.shard_rpc", || mux.call(&req, Duration::from_secs(5)));
            shard_us.push(us(t));
            if !matches!(resp, Ok(Response::Knn { .. })) {
                return Err(format!("shard probe failed: {resp:?}"));
            }
        }
        let t = Instant::now();
        let resp =
            ledger.span("cluster.route", || client.call(&knn_line(global, K)).map(str::to_string));
        let router = us(t);
        resp.map_err(|e| e.to_string())?;
        let slowest = shard_us.iter().copied().fold(0.0, f64::max);
        overhead_us.push(router - slowest);
        skew_us.push((shard_us[0] - shard_us[1]).abs());
        rtt_us.extend(shard_us);
    }
    pass.layer.put("serve.engine_knn_us", median(&engine_us), "us");
    pass.layer.put("serve.json_us", median(&line_us) - median(&engine_us), "us");
    pass.layer.put("cluster.shard_rtt_us", median(&rtt_us), "us");
    pass.layer.put("cluster.router_overhead_us", median(&overhead_us), "us");
    pass.layer.put("cluster.fanout_skew_p99_us", quantile(&skew_us, 0.99), "us");

    // Full-table scans per format, ascending-dimension f64 contract.
    for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq] {
        let q = ledger
            .span("tgraph.quant_encode", || {
                QuantizedEmbeddings::encode(&c.table, &QuantSpec::new(format))
            })
            .map_err(|e| e.to_string())?;
        let mut ns = Vec::new();
        for i in 0..5 {
            let query = c.table.get(NodeId(((i * 7717) % rows) as u32));
            ledger.span("tgraph.scan", || {
                let scorer = q.scorer(query);
                let t = Instant::now();
                let mut acc = 0.0f64;
                for r in 0..rows {
                    acc += scorer.dist(black_box(r));
                }
                black_box(acc);
                ns.push(since(t) * 1e9 / rows as f64);
            });
        }
        pass.layer.put(&format!("tgraph.scan_ns_per_row.{}", format.label()), median(&ns), "ns");
    }
    ledger.span("other", || drop(muxes));
    Ok(())
}
