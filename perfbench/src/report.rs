//! Measurement plumbing shared by the workloads: summary statistics, the
//! per-layer time ledger, and the record one workload pass produces.

use std::time::Instant;

/// Nearest-rank quantile of `values` (any order); `NaN` when empty. A
/// failed request is recorded as `+inf`, so it lands beyond every
/// latency limit instead of vanishing from the sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Rounds a run interleaves its workloads in (see `main.rs`).
pub const ROUNDS: usize = 10;

/// Wall-clock seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-layer time ledger of one traced pass. Every stretch of the
/// main thread's work is attributed to a named layer row (or the
/// explicit `other` row for the benchmark's own glue); rows never
/// nest. When the rows do not add up to the wall clock, time went
/// unattributed or was counted twice. Off, it only runs the closures.
pub struct Ledger {
    on: bool,
    start: Instant,
    rows: Vec<(&'static str, f64, u64)>,
}

impl Ledger {
    pub fn new(on: bool) -> Self {
        Ledger { on, start: Instant::now(), rows: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, charging its wall time to `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.timed(layer, f).0
    }

    /// [`Ledger::span`] that also returns the seconds `f` took, measured
    /// whether or not the ledger is on.
    pub fn timed<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let secs = since(t);
        self.add(layer, secs);
        (out, secs)
    }

    /// Charge `secs` measured elsewhere (e.g. a trainer's phase timings)
    /// to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        if !self.on {
            return;
        }
        match self.rows.iter_mut().find(|r| r.0 == layer) {
            Some(row) => {
                row.1 += secs;
                row.2 += 1;
            }
            None => self.rows.push((layer, secs, 1)),
        }
    }

    /// Seconds since the ledger was created.
    pub fn wall(&self) -> f64 {
        since(self.start)
    }

    /// `|Σ rows − wall| / wall`.
    pub fn reconcile_error(&self) -> f64 {
        let wall = self.wall();
        let sum: f64 = self.rows.iter().map(|r| r.1).sum();
        (sum - wall).abs() / wall
    }

    /// Ledger rows `{layer, total_s, share, calls}` on stderr.
    pub fn print(&self, phase: &str) {
        let wall = self.wall();
        eprintln!("ledger {phase}: wall {wall:.3}s");
        for (layer, secs, calls) in &self.rows {
            eprintln!("  {layer:<28} {secs:>9.4}s {:>6.1}% {calls:>7} calls", 100.0 * secs / wall);
        }
    }
}

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Operations one phase attempted, and how many failed.
pub struct PhaseOps {
    pub phase: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one pass of one workload produced.
#[derive(Default)]
pub struct Pass {
    /// End-to-end metrics (reported with tracing off).
    pub e2e: Metrics,
    /// Per-layer metrics (reported from the traced pass).
    pub layer: Metrics,
    pub ops: Vec<PhaseOps>,
    /// Output checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Provenance of the generated inputs: sizes and content hashes.
    pub inputs: Vec<(String, String)>,
    /// Values that must be bit-identical between the untraced and the
    /// traced pass (tracing must perturb nothing).
    pub fingerprint: Vec<u64>,
    /// Wall time of the part both passes run (tracing overhead base).
    pub body_s: f64,
}

impl Pass {
    pub fn ops(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.ops.push(PhaseOps { phase: phase.to_string(), attempted, failed });
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn input(&mut self, key: &str, value: impl ToString) {
        self.inputs.push((key.to_string(), value.to_string()));
    }
}

/// FNV-1a 64 over a stream of words: the generated-input fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn edges(self, edges: &[ehna_tgraph::TemporalEdge]) -> Self {
        edges.iter().fold(self, |h, e| {
            h.bytes(&e.src.0.to_le_bytes())
                .bytes(&e.dst.0.to_le_bytes())
                .bytes(&e.t.raw().to_le_bytes())
                .bytes(&e.w.to_bits().to_le_bytes())
        })
    }

    pub fn floats(self, v: &[f32]) -> Self {
        v.iter().fold(self, |h, x| h.bytes(&x.to_le_bytes()))
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
