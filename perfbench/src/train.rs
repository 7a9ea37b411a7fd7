//! `train` workload: the paper's job. Trains the LSTM aggregator, then
//! the attention aggregator, on the link-prediction train split of
//! digg-like (tiny scale), checkpointing every epoch, and scores
//! held-out Weighted-L2 AUC for each.

use crate::net::splitmix;
use crate::report::{median, since, Fnv, Ledger, Pass, ROUNDS};
use crate::{Size, Workload};
use ehna_core::{load_checkpoint_path, AggregatorKind, AttnStage, EhnaConfig, Trainer};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_eval::{EdgeOperator, LinkPredictionConfig, LinkPredictionTask};
use ehna_nn::kernels;
use ehna_tgraph::{NodeId, TemporalGraph, Timestamp};
use ehna_walks::NeighborhoodSampler;
use std::cell::RefCell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Paper defaults (dim 64, k = 10, l = 10, batch 512, two threads) at
/// full size; `EhnaConfig::tiny()` on one thread at minimum size, where
/// the kernels are too small to gain from a second thread and spawning
/// it dominates. Pipeline depth 2 and a checkpoint every epoch
/// throughout. Each `Trainer::train` call runs one epoch.
fn config(size: Size, seed: u64, aggregator: AggregatorKind) -> EhnaConfig {
    let (base, threads) = match size {
        Size::Full => (EhnaConfig::default(), 2),
        Size::Min => (EhnaConfig::tiny(), 1),
    };
    EhnaConfig {
        aggregator,
        threads,
        pipeline_depth: 2,
        epochs: 1,
        checkpoint_every: 1,
        seed,
        ..base
    }
}

/// Epochs per aggregator, and after how many of them held-out AUC is
/// scored: one at paper size. At minimum size one short epoch per
/// aggregator every other round, with AUC after the second: the tiny
/// model's AUC peaks early and then wanders from seed to seed (LSTM,
/// seeds 1-6: 0.73-0.79 after two epochs, 0.58-0.74 after six).
fn epochs(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (1, 1),
        Size::Min => (ROUNDS / 2, 2),
    }
}

/// One aggregator's trainer and what its epochs measured.
struct Fit<'g> {
    aggregator: AggregatorKind,
    cfg: EhnaConfig,
    trainer: Trainer<'g>,
    path: PathBuf,
    /// Seconds per checkpoint write, pushed by the trainer's hook.
    writes: Rc<RefCell<Vec<f64>>>,
    /// Wall seconds per epoch, its checkpoint included.
    epoch_s: Vec<f64>,
    losses: Vec<f64>,
    checkpoint_error: Option<String>,
    auc: f64,
}

impl<'g> Fit<'g> {
    fn new(
        graph: &'g TemporalGraph,
        cfg: EhnaConfig,
        work: &Path,
        ledger: &mut Ledger,
    ) -> Result<Self, String> {
        let mut trainer = ledger.span("core.init", || Trainer::new(graph, cfg.clone()))?;
        let path = work.join(format!("train_{}.ckpt", cfg.aggregator.name()));
        let writes = Rc::new(RefCell::new(Vec::new()));
        let (hook_path, hook_writes) = (path.clone(), Rc::clone(&writes));
        trainer.set_checkpoint_hook(Box::new(move |_, t: &Trainer| {
            let start = Instant::now();
            let result = t.checkpoint_to_path(&hook_path);
            hook_writes.borrow_mut().push(since(start));
            result
        }));
        Ok(Fit {
            aggregator: cfg.aggregator,
            cfg,
            trainer,
            path,
            writes,
            epoch_s: Vec::new(),
            losses: Vec::new(),
            checkpoint_error: None,
            auc: f64::NAN,
        })
    }
}

/// The generated graph and its link-prediction split.
pub struct Inputs {
    graph: TemporalGraph,
    task: LinkPredictionTask,
}

impl Inputs {
    /// Generate the graph and split off the held-out links.
    pub fn generate(seed: u64) -> Self {
        let graph = generate(Dataset::DiggLike, Scale::Tiny, seed);
        let task = LinkPredictionTask::prepare(
            &graph,
            LinkPredictionConfig { seed, ..Default::default() },
        );
        Inputs { graph, task }
    }
}

/// Seconds one set-up takes.
pub fn time_setup(seed: u64) -> f64 {
    let t = Instant::now();
    let inputs = Inputs::generate(seed);
    let secs = since(t);
    drop(inputs);
    secs
}

/// Totals over every epoch and checkpoint of a pass.
#[derive(Default)]
struct Totals {
    sample_s: f64,
    stall_s: f64,
    compute_s: f64,
    epochs: usize,
    failed_epochs: u64,
    write_s: Vec<f64>,
    load_s: Vec<f64>,
    ckpt_bytes: u64,
    /// Seconds of traced-only probes inside the body, left out of `body_s`.
    probe_s: f64,
}

/// The `train` workload between set-up and report. At minimum size the
/// two tiny trainers take turns, one epoch per round, so that each
/// aggregator's epochs spread over the whole run; at paper size both
/// train in [`Bench::finish`], one after the other (two paper-size
/// autodiff tapes at once would not fit in memory), after every other
/// workload's rounds.
pub struct Bench<'a> {
    inputs: &'a Inputs,
    size: Size,
    seed: u64,
    work: PathBuf,
    fits: Vec<Fit<'a>>,
    totals: Totals,
    pass: Pass,
}

impl<'a> Bench<'a> {
    pub fn new(
        inputs: &'a Inputs,
        size: Size,
        seed: u64,
        work: &Path,
        ledger: &mut Ledger,
    ) -> Result<Self, String> {
        let mut pass = Pass::default();
        let train_graph = inputs.task.train_graph();
        pass.input("train.nodes", inputs.graph.num_nodes());
        pass.input("train.edges", inputs.graph.num_edges());
        pass.input("train.train_edges", train_graph.num_edges());
        pass.input("train.graph_fnv", Fnv::new().edges(inputs.graph.edges()).hex());
        let t = Instant::now();
        let mut fits = Vec::new();
        if size == Size::Min {
            for aggregator in [AggregatorKind::Lstm, AggregatorKind::Attn] {
                fits.push(Fit::new(train_graph, config(size, seed, aggregator), work, ledger)?);
            }
        }
        pass.body_s = since(t);
        Ok(Bench {
            inputs,
            size,
            seed,
            work: work.to_path_buf(),
            fits,
            totals: Totals::default(),
            pass,
        })
    }

    fn finish(mut self, ledger: &mut Ledger) -> Result<Pass, String> {
        let t = Instant::now();
        let train_graph = self.inputs.task.train_graph();
        let (epochs, auc_after) = epochs(self.size);
        if self.size == Size::Full {
            for aggregator in [AggregatorKind::Lstm, AggregatorKind::Attn] {
                let cfg = config(self.size, self.seed, aggregator);
                let mut fit = Fit::new(train_graph, cfg, &self.work, ledger)?;
                for _ in 0..epochs {
                    fit.epoch(&self.inputs.task, auc_after, ledger, &mut self.totals);
                }
                fit.close(self.inputs, self.seed, ledger, &mut self.totals, &mut self.pass)?;
            }
        }
        for fit in std::mem::take(&mut self.fits) {
            fit.close(self.inputs, self.seed, ledger, &mut self.totals, &mut self.pass)?;
        }
        let Bench { size, seed, totals, mut pass, .. } = self;
        pass.ops("train.epochs", totals.epochs as u64, totals.failed_epochs);
        pass.ops("train.checkpoints", totals.write_s.len() as u64, 0);
        pass.body_s += since(t) - totals.probe_s;

        let per_epoch = 1.0 / totals.epochs.max(1) as f64;
        pass.layer.put("walks.sample_s", totals.sample_s * per_epoch, "s");
        pass.layer.put("walks.stall_s", totals.stall_s * per_epoch, "s");
        pass.layer.put("core.compute_s", totals.compute_s * per_epoch, "s");
        pass.layer.put("core.checkpoint_write_ms", median(&totals.write_s) * 1e3, "ms");
        pass.layer.put("core.checkpoint_load_ms", median(&totals.load_s) * 1e3, "ms");
        pass.layer.put("core.checkpoint_bytes", totals.ckpt_bytes as f64, "bytes");
        if ledger.is_on() {
            let cfg = config(size, seed, AggregatorKind::Attn);
            ledger.span("nn.kernels", || kernel_probes(&cfg, &mut pass));
        }
        Ok(pass)
    }
}

impl Workload for Bench<'_> {
    fn round(&mut self, round: usize, ledger: &mut Ledger) -> Result<(), String> {
        if self.fits.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        let (epochs, auc_after) = epochs(self.size);
        let n = self.fits.len();
        let fit = &mut self.fits[round % n];
        if fit.epoch_s.len() < epochs {
            fit.epoch(&self.inputs.task, auc_after, ledger, &mut self.totals);
        }
        self.pass.body_s += since(t);
        Ok(())
    }

    fn finish(self: Box<Self>, ledger: &mut Ledger) -> Result<Pass, String> {
        (*self).finish(ledger)
    }
}

impl Fit<'_> {
    /// One epoch, its checkpoint included, and held-out AUC after epoch
    /// `auc_after`. The kernel thread budget is process-wide and every
    /// trainer sets it when built, so it is set again here for this
    /// trainer's configuration.
    fn epoch(
        &mut self,
        task: &LinkPredictionTask,
        auc_after: usize,
        ledger: &mut Ledger,
        totals: &mut Totals,
    ) {
        kernels::set_threads(kernels::resolve_threads(self.cfg.threads));
        let t = Instant::now();
        let report = self.trainer.train();
        self.epoch_s.push(since(t));
        // The epoch's wall splits into main-thread compute, waits on the
        // walk prefetcher, and checkpoint writes; sampling itself runs on
        // the prefetch thread, hidden behind compute.
        let phases = report.total_phase_timings();
        ledger.add("core.compute", phases.compute_time.as_secs_f64());
        ledger.add("walks.stall", phases.prefetch_stall_time.as_secs_f64());
        totals.sample_s += phases.sample_time.as_secs_f64();
        totals.stall_s += phases.prefetch_stall_time.as_secs_f64();
        totals.compute_s += phases.compute_time.as_secs_f64();
        self.losses.extend(report.epoch_losses);
        self.checkpoint_error = self.checkpoint_error.take().or(report.checkpoint_error);
        if self.epoch_s.len() == auc_after {
            let emb = ledger.span("core.infer", || self.trainer.embeddings());
            self.auc =
                ledger.span("eval.linkpred", || task.evaluate(&emb, EdgeOperator::WeightedL2).auc);
        }
    }

    /// Checks and metrics of one trained aggregator: its checkpoints, its
    /// losses, its rate and AUC, and a resume from its last checkpoint.
    fn close(
        mut self,
        inputs: &Inputs,
        seed: u64,
        ledger: &mut Ledger,
        totals: &mut Totals,
        pass: &mut Pass,
    ) -> Result<(), String> {
        let train_graph = inputs.task.train_graph();
        let name = self.aggregator.name();
        eprintln!("train.{name}: epoch wall s {:.3?}", self.epoch_s);
        let writes = self.writes.borrow().clone();
        ledger.add("core.checkpoint_write", writes.iter().sum());
        totals.epochs += self.losses.len();
        totals.failed_epochs += self.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        pass.check(
            &format!("train.{name}_checkpoints"),
            self.checkpoint_error.is_none() && writes.len() == self.epoch_s.len(),
            format!("{} checkpoints written, error {:?}", writes.len(), self.checkpoint_error),
        );
        pass.check(
            &format!("train.{name}_losses_finite"),
            self.losses.iter().all(|l| l.is_finite()),
            format!("{:?}", self.losses),
        );
        totals.write_s.extend(writes);
        pass.fingerprint.extend(self.losses.iter().map(|l| l.to_bits()));
        // Edges x epochs over the epochs' wall time, checkpoints included.
        pass.e2e.put(
            &format!("train.{name}_edges_per_s"),
            (train_graph.num_edges() * self.epoch_s.len()) as f64
                / self.epoch_s.iter().sum::<f64>(),
            "1/s",
        );
        pass.e2e.put(&format!("train.{name}_auc"), self.auc, "ratio");
        pass.fingerprint.push(self.auc.to_bits());
        let emb = ledger.span("core.infer", || self.trainer.embeddings());

        // The last checkpoint must resume to the same model: its
        // embeddings are bit-identical to the live trainer's.
        let (loaded, secs) = ledger.timed("core.checkpoint_load", || {
            load_checkpoint_path(&self.path, train_graph, self.cfg.clone())
        });
        totals.load_s.push(secs);
        let (loaded, used_backup) =
            loaded.map_err(|e| format!("load {}: {e}", self.path.display()))?;
        totals.ckpt_bytes +=
            ledger.span("other", || std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0));
        let mut resumed =
            ledger.span("core.init", || Trainer::from_checkpoint(train_graph, loaded))?;
        let again = ledger.span("core.infer", || resumed.embeddings());
        let same =
            emb.as_slice().iter().zip(again.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
        pass.check(
            &format!("train.{name}_checkpoint_resumes"),
            same && !used_backup,
            format!("resumed embeddings bit-identical: {same}, backup used: {used_backup}"),
        );
        if ledger.is_on() && self.aggregator == AggregatorKind::Lstm {
            let (ratio, secs) = ledger
                .timed("walks.history_probe", || history_ratio(train_graph, &self.trainer, seed));
            totals.probe_s += secs;
            pass.layer.put("walks.history_ratio", ratio, "ratio");
        }
        Ok(())
    }
}

/// Share of training targets (both endpoints of every train edge, at
/// the edge's time) whose walks find any history.
fn history_ratio(graph: &TemporalGraph, trainer: &Trainer, seed: u64) -> f64 {
    let cfg = &trainer.model().config;
    let sampler =
        NeighborhoodSampler::new(graph, trainer.model().walk_config(graph), cfg.num_walks);
    let targets: Vec<(NodeId, Timestamp)> =
        graph.edges().iter().flat_map(|e| [(e.src, e.t), (e.dst, e.t)]).collect();
    let hns = sampler.sample_batch(&targets, cfg.threads, seed);
    hns.iter().filter(|h| h.has_history()).count() as f64 / hns.len().max(1) as f64
}

/// Deterministic values in [-1, 1).
fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len).map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 23) as f32 - 1.0).collect()
}

/// Median seconds per call of `f` over at least 5 calls and ~0.2 s.
fn per_call(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || since(start) < 0.2 {
        let t = Instant::now();
        f();
        times.push(since(t));
    }
    median(&times)
}

/// Public `ehna_nn::kernels` calls at one training batch's shapes: rows
/// = batch × (2 + negatives) targets, one walk slot each.
fn kernel_probes(cfg: &EhnaConfig, pass: &mut Pass) {
    let rows = cfg.batch_size * (2 + cfg.negatives);
    let (d, lmax, heads) = (cfg.dim, cfg.walk_length, cfg.heads);
    let (a, b) = (filled(rows * d, 1), filled(d * 4 * d, 2));
    let mut c = vec![0.0f32; rows * 4 * d];
    let secs = per_call(|| kernels::gemm_acc(rows, d, 4 * d, black_box(&a), black_box(&b), &mut c));
    pass.layer.put("nn.gemm_gflops", 2.0 * (rows * d * 4 * d) as f64 / secs / 1e9, "GFLOP/s");

    let (pre, c_prev) = (filled(rows * 4 * d, 3), filled(rows * d, 4));
    let (mut hc, mut aux) = (vec![0.0f32; rows * 2 * d], vec![0.0f32; rows * 5 * d]);
    let secs = per_call(|| {
        kernels::lstm_step_forward(rows, d, black_box(&pre), &c_prev, &mut hc, &mut aux)
    });
    pass.layer.put("nn.lstm_step_ms", secs * 1e3, "ms");

    let tk = AttnStage::time_width(d);
    let lens = vec![lmax as u32; rows];
    let (q, x, tv) = (filled(rows * d, 5), filled(rows * lmax * d, 6), filled(rows * lmax * tk, 7));
    let (wk, wv, kt, vt) =
        (filled(d * d, 8), filled(d * d, 9), filled(tk * d, 10), filled(tk * d, 11));
    let aux_w = kernels::temporal_attention_aux(lmax, d, tk, heads);
    let (mut out, mut aux) = (vec![0.0f32; rows * d], vec![0.0f32; rows * aux_w]);
    let g_out = filled(rows * d, 12);
    let mut scratch = vec![0.0f32; rows * heads * (d + tk)];
    let (mut dq, mut dx, mut dtv) =
        (vec![0.0f32; rows * d], vec![0.0f32; rows * lmax * d], vec![0.0f32; rows * lmax * tk]);
    let (mut dwk, mut dwv, mut dkt, mut dvt) =
        (vec![0.0f32; d * d], vec![0.0f32; d * d], vec![0.0f32; tk * d], vec![0.0f32; tk * d]);
    let secs = per_call(|| {
        kernels::temporal_attention_forward(
            rows, lmax, d, tk, heads, &lens, &q, &x, &tv, &wk, &kt, &wv, &vt, &mut out, &mut aux,
        );
        kernels::temporal_attention_backward(
            rows,
            lmax,
            d,
            tk,
            heads,
            &lens,
            &q,
            &x,
            &tv,
            &wk,
            &kt,
            &wv,
            &vt,
            &aux,
            &g_out,
            &mut scratch,
            &mut dq,
            &mut dx,
            &mut dtv,
            &mut dwk,
            &mut dkt,
            &mut dwv,
            &mut dvt,
        );
        black_box(&dq);
    });
    pass.layer.put("nn.attention_fwd_bwd_ms", secs * 1e3, "ms");
}
