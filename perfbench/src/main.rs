//! End-to-end benchmark of the EHNA stack: the `train`, `serve` and
//! `stream` workloads, end-to-end metrics with tracing off, and a
//! traced per-layer ledger. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload train|serve|stream --seed N --seconds S --trace 0|1 [--size full|min]
//! ```
//!
//! Prints a provenance/accounting line, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod net;
mod report;
mod serve;
mod stream;
mod train;

use report::{median, Ledger, Metrics, Pass, ROUNDS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How large a workload runs: `Full` is the benchmark proper, `Min` the
/// smoke size (also used for `train` when another workload is named).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Min,
}

const WORKLOADS: [&str; 3] = ["train", "serve", "stream"];
/// Run order: `train` last, because the serving phases measured after a
/// full-size training pass (and the ~7 GB it frees) read slow and erratic.
const RUN_ORDER: [&str; 3] = ["serve", "stream", "train"];
/// Least set-ups per run of the named workload; `setup_s` is their median.
const SETUPS: usize = 3;
/// ROADMAP gate: ledger rows must sum to the wall time within 5%.
const RECONCILE_LIMIT: f64 = 0.05;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: "", seed: 0, seconds: 10.0, trace: false, size: Size::Full };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("flag {} needs a value", pair[0])) };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or_else(|| bad(&format!("expected one of {WORKLOADS:?}")))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "min" => Size::Min,
                    _ => return Err(bad(&"expected full or min")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One workload between set-up and report: a run sets every workload
/// up, then interleaves their rounds, then finishes each.
pub trait Workload {
    /// Run round `round` (of [`ROUNDS`]).
    fn round(&mut self, round: usize, ledger: &mut Ledger) -> Result<(), String>;
    /// Run the output checks, report the metrics and tear down.
    fn finish(self: Box<Self>, ledger: &mut Ledger) -> Result<Pass, String>;
}

/// Set up workload `name` at `size`.
fn start<'a>(
    name: &str,
    size: Size,
    args: &Args,
    work: &Path,
    train_inputs: &'a train::Inputs,
    ledger: &mut Ledger,
) -> Result<Box<dyn Workload + 'a>, String> {
    Ok(match name {
        "train" => Box::new(train::Bench::new(train_inputs, size, args.seed, work, ledger)?),
        "serve" => Box::new(serve::Bench::new(size, args.seed, args.seconds, work, ledger)?),
        _ => Box::new(stream::Bench::new(size, args.seed, args.seconds, work, ledger)?),
    })
}

/// `setup_s`: the median over repeated set-ups (each torn down again) of
/// the named workload, taken first, in a fresh process. At least
/// `SETUPS`, and more while they are cheap, up to 25 or ~1 s in all, so
/// that the median of a set-up of a few milliseconds is steady.
fn setup_s(args: &Args, work: &Path) -> Result<f64, String> {
    let mut times: Vec<f64> = Vec::new();
    while times.len() < SETUPS || (times.len() < 25 && times.iter().sum::<f64>() < 1.0) {
        times.push(match args.workload {
            "train" => train::time_setup(args.seed),
            "serve" => serve::time_setup(args.seed, work)?,
            _ => stream::time_setup(args.seed, args.size, work)?,
        });
    }
    eprintln!("{}: setup s {times:.4?}", args.workload);
    Ok(median(&times))
}

/// Everything a run reports, merged over its workloads.
#[derive(Default)]
struct Outcome {
    e2e: Metrics,
    layer: Metrics,
    passes: Vec<Pass>,
}

/// The size workload `name` runs at: `serve` and `stream` at the
/// requested size, `train` at the requested size when it is the named
/// workload and at minimum size otherwise (paper-size training takes
/// ~25 s and ~7 GB).
fn size_of(name: &str, args: &Args) -> Size {
    if name == "train" && args.workload != "train" {
        Size::Min
    } else {
        args.size
    }
}

/// Every workload, so that every run reports every metric, in
/// `ROUNDS` interleaved rounds: the host's speed drifts by tens of per
/// cent over tens of seconds, and interleaving spreads each workload's
/// samples over the whole run instead of one stretch of it. `setup_s` is
/// the named workload's. With tracing, each workload then runs again,
/// traced and on its own, and the two passes must agree bit for bit.
fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        out.e2e.put("setup_s", setup_s(args, work)?, "s");
    }
    let off = &mut Ledger::new(false);
    let train_inputs = train::Inputs::generate(args.seed);
    let mut running = Vec::new();
    for name in RUN_ORDER {
        eprintln!("perfbench: {name} ({:?})", size_of(name, args));
        running.push(start(name, size_of(name, args), args, work, &train_inputs, off)?);
    }
    for round in 0..ROUNDS {
        for w in &mut running {
            w.round(round, off)?;
        }
    }
    let mut passes = Vec::new();
    for w in running {
        passes.push(w.finish(off)?);
    }
    for (name, mut pass) in RUN_ORDER.into_iter().zip(passes) {
        out.e2e.0.append(&mut pass.e2e.0);
        if args.trace {
            eprintln!("perfbench: {name} ({:?}, traced)", size_of(name, args));
            let mut ledger = Ledger::new(true);
            let inputs = ledger.span("other", || train::Inputs::generate(args.seed));
            let mut w = start(name, size_of(name, args), args, work, &inputs, &mut ledger)?;
            for round in 0..ROUNDS {
                w.round(round, &mut ledger)?;
            }
            let mut traced = w.finish(&mut ledger)?;
            let err = ledger.reconcile_error();
            ledger.print(name);
            traced.check(
                &format!("{name}.ledger_reconciles"),
                err <= RECONCILE_LIMIT,
                format!("layer rows + other differ from wall time by {:.2}%", 100.0 * err),
            );
            traced.check(
                &format!("{name}.tracing_perturbs_nothing"),
                traced.fingerprint == pass.fingerprint,
                format!("{} fingerprint words compared", pass.fingerprint.len()),
            );
            out.layer.put(&format!("ledger.{name}.reconcile_pct"), 100.0 * err, "%");
            out.layer.put(
                &format!("ledger.{name}.trace_overhead_s"),
                traced.body_s - pass.body_s,
                "s",
            );
            out.layer.0.append(&mut traced.layer.0);
            traced.inputs.clear();
            out.passes.push(traced);
        }
        out.passes.push(pass);
    }
    Ok(out)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as a JSON number: failed requests make latencies
/// infinite, which is reported as 1e308 (and fails the run's checks).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "1e308".into()
    } else {
        "-1e308".into()
    }
}

/// This process's peak resident set in MiB (`VmHWM`), when the OS reports it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").map(|v| v.trim().trim_end_matches("kB").trim().to_string())
            })
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `HEAD`'s commit when run from a git checkout, read without git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "none".into() };
    let Some(reference) = head.trim().strip_prefix("ref: ") else { return head.trim().into() };
    if let Some(rev) = read(reference) {
        return rev.trim().into();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn report(args: &Args, thp_disabled: bool, steal_pct: f64, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let mut line = String::new();
    write!(
        line,
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":{},\"nproc\":{nproc},\
         \"rustc\":{},\"rustflags\":{},\"target_cpu_native\":{},\"thp_disabled\":{thp_disabled},\"git_rev\":{},\"peak_rss_mib\":{},\"steal_pct\":{}",
        json_str(args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&format!("{:?}", args.size).to_lowercase()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(flags),
        flags.contains("target-cpu=native"),
        json_str(&git_rev()),
        json_num(peak_rss_mib().round()),
        json_num((steal_pct * 10.0).round() / 10.0),
    )
    .expect("write to String");
    for pass in &out.passes {
        for (k, v) in &pass.inputs {
            write!(line, ",{}:{}", json_str(k), json_str(v)).expect("write to String");
        }
    }
    line.push_str("},\"phases\":[");
    let ops: Vec<String> = out
        .passes
        .iter()
        .flat_map(|p| &p.ops)
        .map(|o| {
            format!(
                "{{\"phase\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{}}}",
                json_str(&o.phase),
                o.attempted,
                o.attempted - o.failed,
                o.failed
            )
        })
        .collect();
    line.push_str(&ops.join(","));
    line.push_str("],\"checks\":[");
    let checks: Vec<String> = out
        .passes
        .iter()
        .flat_map(|p| &p.checks)
        .map(|(name, ok, detail)| {
            format!(
                "{{\"check\":{},\"passed\":{ok},\"detail\":{}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    line.push_str(&checks.join(","));
    line.push_str("]}");
    line
}

fn result_line(args: &Args, out: &Outcome) -> String {
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    let mut correct = out.passes.iter().flat_map(|p| &p.checks).all(|c| c.1);
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            correct = false;
        }
    }
    let attempted: u64 = out.passes.iter().flat_map(|p| &p.ops).map(|o| o.attempted).sum();
    let failed: u64 = out.passes.iter().flat_map(|p| &p.ops).map(|o| o.failed).sum();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

fn main() {
    let thp_disabled = host::disable_thp();
    let ticks = host::cpu_ticks();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    match outcome {
        Ok(out) => {
            for (name, ok, detail) in out.passes.iter().flat_map(|p| &p.checks) {
                eprintln!("check {:<36} {} {detail}", name, if *ok { "ok  " } else { "FAIL" });
            }
            let steal_pct = host::steal_pct_since(ticks);
            println!("{}", report(&args, thp_disabled, steal_pct, &out));
            println!("{}", result_line(&args, &out));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
