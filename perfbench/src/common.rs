//! Pieces every workload shares: arguments, seeded inputs, set-up timing,
//! the timed phase, per-op bookkeeping, metrics and output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gr_bench::record_model;
use gr_gpu::GpuSku;
use gr_mlfw::fusion::Granularity;
use gr_mlfw::{cpu_ref, ModelSpec};

use crate::trace::Tracer;

/// Recording session seed. Fixed: the workload seed only shapes inputs
/// and the order requests draw them, never the program under test.
const RECORD_SEED: u64 = 7;
/// Seed of every replay machine, fixed for the same reason.
pub const MACHINE_SEED: u64 = 11;
/// Set-up runs this many times per run; `setup_s` is the median. With 3
/// repetitions its quartiles lay up to 22% apart between runs.
const SETUP_REPS: usize = 7;
/// Untimed ops before the timed phase (caches, allocator, lazy set-up).
/// A fixed count, not a time, so the virtual-time counts of the ops that
/// follow repeat exactly between runs.
pub const WARMUP_OPS: usize = 100;
/// With `--trace 1`, the timed phase alternates untraced and traced
/// blocks of this length, so both halves see the same machine noise.
const TRACE_BLOCK_MS: u128 = 250;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Extra human-readable lines (checks, failure kinds, overhead).
    pub notes: Vec<String>,
}

impl Report {
    pub fn print(&self, args: &Args) {
        let wl = &args.workload;
        for n in &self.notes {
            println!("{wl}: {n}");
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{wl}: attempted {} ops, failed {} (failed_share {failed_share:.6})",
            self.attempted, self.failed
        );
        let shown = if args.trace { &self.layers } else { &self.e2e };
        for m in shown {
            println!("{wl}: {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let mut json = String::new();
        for (i, m) in shown.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// splitmix64: the benchmark's own generator, independent of the
/// program's RNG so a change there cannot move the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_4A11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A recorded model and the CPU reference outputs of its input pool.
pub struct Model {
    pub blob: Vec<u8>,
    pub inputs: Vec<Vec<f32>>,
    pub refs: Vec<Vec<f32>>,
}

/// Records `spec` as one whole-network recording on `sku`, then draws
/// `pool` inputs from `rng` and computes their CPU reference outputs.
pub fn record(sku: &'static GpuSku, spec: &ModelSpec, rng: &mut Rng, pool: usize) -> Model {
    let mut rm = record_model(sku, spec, Granularity::WholeNn, true, RECORD_SEED);
    assert_eq!(rm.blobs.len(), 1, "whole-network recording expected");
    let inputs: Vec<Vec<f32>> = (0..pool)
        .map(|_| (0..rm.net.input_len()).map(|_| rng.unit() as f32).collect())
        .collect();
    let refs = inputs
        .iter()
        .map(|x| cpu_ref::cpu_infer(&rm.net, x))
        .collect();
    Model {
        blob: rm.blobs.remove(0),
        inputs,
        refs,
    }
}

/// Runs `f` `SETUP_REPS` times, keeping the last result (earlier ones are
/// dropped before the next starts), and returns it with the median time.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&secs)))
}

/// The error's variant path from its `Debug` form, e.g. `Verify` or
/// `Replay.Verify`: the kind failures are counted by.
fn error_kind(e: &dyn std::fmt::Debug) -> String {
    let dbg = format!("{e:?}");
    let mut kind = Vec::new();
    let mut rest = dbg.as_str();
    loop {
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        kind.push(&rest[..end]);
        match rest[end..].strip_prefix('(') {
            Some(inner) if inner.starts_with(|c: char| c.is_ascii_uppercase()) => rest = inner,
            _ => break,
        }
    }
    kind.join(".")
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The timed phase: `--seconds` of wall time, split into alternating
/// untraced/traced blocks when tracing.
pub struct Phase {
    start: Instant,
    len: Duration,
    trace: bool,
}

impl Phase {
    pub fn start(args: &Args) -> Phase {
        Phase {
            start: Instant::now(),
            len: Duration::from_secs_f64(args.seconds),
            trace: args.trace,
        }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.len
    }

    /// Whether an op starting now is traced.
    pub fn traced_block(&self) -> bool {
        self.trace && (self.start.elapsed().as_millis() / TRACE_BLOCK_MS) % 2 == 1
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// `all_e2e` lists the JSON metrics first and from this index on the
/// ones that are printed only. On a shared host, stretches of a run, or
/// whole runs, fall into phases where ops take much longer; the fastest
/// ops of a run are slowed least. Between runs, the quartiles of the p05
/// lay at most 5.4% apart, those of the p50 up to 11%, of `service-mix`
/// p99 up to 21% (up to 155% in other rounds), too close to any useful
/// bound (see `perfbench/README.md`).
const PRINTED_ONLY_FROM: usize = 4;

/// Latency samples kept per side (untraced, traced). Beyond this many
/// ops a uniform reservoir sample is kept, so the benchmark's own memory
/// stays flat and `peak_rss_mb` does not grow with the op count.
const RESERVOIR: usize = 1 << 15;

/// Counts and a latency sample of the untraced or the traced ops.
#[derive(Default)]
struct Side {
    attempted: u64,
    correct: u64,
    lat_ms: Vec<f64>,
}

/// Outcome of every timed op.
pub struct OpLog {
    sides: [Side; 2],
    reservoir_rng: Rng,
    /// Failed ops by error kind, with the first message of each kind.
    pub errors: BTreeMap<String, (u64, String)>,
    /// Ops whose output differed from the CPU reference.
    pub wrong: u64,
}

impl Default for OpLog {
    fn default() -> OpLog {
        OpLog {
            sides: Default::default(),
            reservoir_rng: Rng::new(0),
            errors: BTreeMap::new(),
            wrong: 0,
        }
    }
}

/// What an op ended in.
pub enum Outcome {
    Correct,
    /// Output returned but not bit-identical to the reference.
    Wrong,
    /// Refused or errored: the error kind and message.
    Failed(String, String),
}

impl Outcome {
    /// `Correct` when `out` is bit-identical to the reference `want`.
    pub fn check(out: &[f32], want: &[f32]) -> Outcome {
        if bits_equal(out, want) {
            Outcome::Correct
        } else {
            Outcome::Wrong
        }
    }
}

/// The failed outcome for error `e`.
pub fn failed<E: std::fmt::Debug + std::fmt::Display>(e: &E) -> Outcome {
    Outcome::Failed(error_kind(e), e.to_string())
}

impl OpLog {
    pub fn push(&mut self, lat: Duration, traced: bool, outcome: Outcome) {
        let side = &mut self.sides[usize::from(traced)];
        side.attempted += 1;
        let ms = lat.as_secs_f64() * 1e3;
        if side.lat_ms.len() < RESERVOIR {
            side.lat_ms.push(ms);
        } else {
            let j = (self.reservoir_rng.next_u64() % side.attempted) as usize;
            if j < RESERVOIR {
                side.lat_ms[j] = ms;
            }
        }
        match outcome {
            Outcome::Correct => side.correct += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Failed(kind, msg) => self.errors.entry(kind).or_insert((0, msg)).0 += 1,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.sides.iter().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.sides.iter().map(|s| s.attempted - s.correct).sum()
    }

    /// End-to-end metrics over the ops whose traced flag is `traced`: the
    /// JSON ones, then the printed-only ones. Latency covers every
    /// attempted op, failed ones too: in a closed loop a failed op still
    /// holds its caller for that long.
    fn all_e2e(&self, traced: bool, span_s: f64, setup_s: f64) -> Vec<Metric> {
        let side = &self.sides[usize::from(traced)];
        let mut lat = side.lat_ms.clone();
        lat.sort_by(f64::total_cmp);
        let correct = side.correct as f64;
        let n = side.attempted.max(1) as f64;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("latency_p05_ms", quantile_sorted(&lat, 0.05), "ms"),
            metric("correct_share", correct / n, "ratio"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("latency_p50_ms", quantile_sorted(&lat, 0.50), "ms"),
            metric("throughput_ops_s", correct / span_s, "1/s"),
            metric("latency_p90_ms", quantile_sorted(&lat, 0.90), "ms"),
            metric("latency_p99_ms", quantile_sorted(&lat, 0.99), "ms"),
        ]
    }

    /// The end-to-end metrics of the JSON line (untraced ops).
    pub fn e2e(&self, span_s: f64, setup_s: f64) -> Vec<Metric> {
        let mut m = self.all_e2e(false, span_s, setup_s);
        m.truncate(PRINTED_ONLY_FROM);
        m
    }

    /// Notes shared by all workloads: the printed-only metrics, failures
    /// by kind, and with tracing the overhead of the traced blocks over
    /// the untraced ones.
    pub fn notes(&self, args: &Args, elapsed_s: f64, setup_s: f64) -> Vec<String> {
        let span_s = if args.trace {
            elapsed_s / 2.0
        } else {
            elapsed_s
        };
        let mut notes: Vec<String> = self.all_e2e(false, span_s, setup_s)[PRINTED_ONLY_FROM..]
            .iter()
            .map(|m| {
                format!(
                    "{} {:.6} {} (printed only, not bounded)",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        notes.extend(
            self.errors
                .iter()
                .map(|(k, (n, msg))| format!("failed ops of kind {k}: {n} (first: {msg})")),
        );
        if self.wrong > 0 {
            notes.push(format!(
                "CHECK FAILED: {} outputs differ from cpu_ref",
                self.wrong
            ));
        }
        if args.trace {
            let plain = self.all_e2e(false, span_s, setup_s);
            let traced = self.all_e2e(true, span_s, setup_s);
            for (p, t) in plain.iter().zip(&traced) {
                if p.name == "setup_s" || p.name == "peak_rss_mb" {
                    continue;
                }
                notes.push(format!(
                    "tracing overhead {:<18} untraced {:.6} traced {:.6} {} ({:+.2}%)",
                    p.name,
                    p.value,
                    t.value,
                    p.unit,
                    100.0 * (t.value - p.value) / p.value
                ));
            }
        }
        notes
    }
}

/// Linear-interpolated quantile of sorted data (0 when empty).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the spans and a per-name / per-layer self-time summary under
/// `.perfbench_out/` in the working directory; returns the summary,
/// indented for printing as one note.
pub fn write_trace(args: &Args, tr: &Tracer, notes: &[String]) -> Result<String, String> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("write spans: {e}"))?;

    let ops = tr.traced_ops().max(1) as f64;
    let mut s = format!("# {stem}: {} traced ops\n", tr.traced_ops());
    s.push_str("# span (set-up and probe spans included)  calls  median_ms  median_self_ms\n");
    for (name, t) in tr.by_name() {
        let _ = writeln!(
            s,
            "{name:<40} {:>6} {:>10.4} {:>15.4}",
            t.total_ms.len(),
            median(&t.total_ms),
            median(&t.self_ms)
        );
    }
    s.push_str("# layer self time per traced op, ms (timed ops only)\n");
    for (layer, ms) in tr.self_ms_by_layer() {
        let _ = writeln!(s, "{layer:<28} {:>12.4}", ms / ops);
    }
    for n in notes {
        let _ = writeln!(s, "# {n}");
    }
    let summary = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&summary, &s).map_err(|e| format!("write summary: {e}"))?;
    Ok(s.trim_end().replace('\n', "\n  "))
}
