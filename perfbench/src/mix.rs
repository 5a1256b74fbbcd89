//! `service-mix`: one G71 shard, one worker, `max_batch` 8, holding two
//! recordings: MNIST and MNIST-deep, recorded in separate sessions. One
//! thread keeps 8 MNIST requests outstanding (closed loop): it waits for
//! the oldest ticket, checks it, and submits the next request with a pool
//! input drawn from the seed.
//!
//! Known defect shown here: the two recordings' VA layouts overlap, and
//! the nano driver refuses a mapping that conflicts with one the other
//! recording left in place. Whichever recording the worker serves first
//! keeps working; every request for the other fails with
//! `Verify("conflicting mapping at ...")`. Timed ops must not fail: a
//! failure count that grows with the run's length differs between any two
//! runs. So the timed phase sends MNIST only, and after it a fixed probe
//! sends one MNIST-deep request per pool input and reports how many were
//! refused, by kind (`service.failed_verify` in the traced run). A refused
//! probe request does not fail the run; a served one must match the CPU
//! reference. `perfbench/README.md` shows how to reproduce it.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use gr_gpu::sku::MALI_G71;
use gr_gpu::Machine;
use gr_mlfw::models;
use gr_recording::Recording;
use gr_replayer::{EnvKind, Environment, ReplayIo, ReplayReport, Replayer};
use gr_service::{BatchOutcome, ReplayRequest, ReplayService, ShardSpec, ShardStats, Ticket};

use crate::common::{
    bits_equal, failed, record, timed_setup, write_trace, Args, Model, OpLog, Outcome, Phase,
    Report, Rng, MACHINE_SEED, WARMUP_OPS,
};
use crate::layers::{upload_kb, verify_probe, Layers};
use crate::trace::{Tracer, PROBE_OP};

const CALLERS: usize = 8;
const MAX_BATCH: usize = 8;
const POOL: usize = 16;
/// Index of MNIST-deep in the shard's recordings (MNIST is 0).
const DEEP: usize = 1;
const SKU: &str = "G71";
/// Repetitions of the worker probe in the traced run.
const WORKER_PROBES: usize = 5;

/// A running service that is shut down, and its worker joined, on drop.
struct Service(Option<ReplayService>);

impl Service {
    fn get(&self) -> &ReplayService {
        self.0.as_ref().expect("service is running")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            s.shutdown();
        }
    }
}

struct Setup {
    models: [Model; 2],
    recs: [Recording; 2],
    service: Service,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, String> {
    let mut rng = Rng::new(seed);
    let deep = models::by_name("MNIST-deep").ok_or("MNIST-deep is not in the catalog")?;
    // Two record calls: two separate recording sessions.
    let models = [
        record(&MALI_G71, &models::mnist(), &mut rng, POOL),
        record(&MALI_G71, &deep, &mut rng, POOL),
    ];
    let mut decode = |m: &Model| {
        tr.span("recording.decode", || Recording::from_bytes(&m.blob))
            .map_err(|e| format!("decode: {e}"))
    };
    let recs = [decode(&models[0])?, decode(&models[1])?];
    let spec = ShardSpec::new(
        &MALI_G71,
        EnvKind::UserLevel,
        vec![models[0].blob.clone(), models[1].blob.clone()],
    )
    .workers(1)
    .max_batch(MAX_BATCH)
    .seed(MACHINE_SEED);
    let service = tr
        .span("service.spawn", || {
            ReplayService::builder().shard(spec).spawn()
        })
        .map_err(|e| format!("spawn: {e}"))?;
    Ok(Setup {
        models,
        recs,
        service: Service(Some(service)),
    })
}

/// Times, from outside, the replayer calls a service worker makes: a
/// machine, an environment and replayer, and `load` of both recordings
/// at spawn; then a first and a second MNIST `replay`, and `cleanup`.
/// Returns the second replay's report.
fn worker_probe(s: &Setup, tr: &mut Tracer) -> Result<ReplayReport, String> {
    let machine = tr.span("gpu.machine_new", || Machine::new(&MALI_G71, MACHINE_SEED));
    let mut replayer = tr
        .span("replayer.new", || {
            Environment::new(EnvKind::UserLevel, machine).map(Replayer::new)
        })
        .map_err(|e| format!("worker probe: {e}"))?;
    let mut ids = [0; 2];
    for (id, rec) in ids.iter_mut().zip(&s.recs) {
        let rec = rec.clone();
        *id = tr
            .span("replayer.load", || replayer.load(rec))
            .map_err(|e| format!("worker probe: load: {e}"))?;
    }
    let mut io = ReplayIo::for_recording(&s.recs[0]);
    io.set_input_f32(0, &s.models[0].inputs[0])
        .map_err(|e| e.to_string())?;
    tr.span("replayer.first_replay", || replayer.replay(ids[0], &mut io))
        .map_err(|e| format!("worker probe: first replay: {e}"))?;
    let report = tr
        .span("replayer.replay", || replayer.replay(ids[0], &mut io))
        .map_err(|e| format!("worker probe: replay: {e}"))?;
    let out = io.output_f32(0).map_err(|e| e.to_string())?;
    if !bits_equal(&out, &s.models[0].refs[0]) {
        return Err("worker probe: output differs from cpu_ref".to_string());
    }
    tr.span("replayer.cleanup", || replayer.cleanup());
    Ok(report)
}

struct InFlight {
    ticket: Ticket,
    start: Instant,
    model: usize,
    k: usize,
    traced: bool,
    op: u64,
}

/// Builds and submits one request for recording `model` with pool input
/// `k`; a refused submission is returned as the failed outcome with its
/// start time.
fn submit(
    s: &Setup,
    model: usize,
    k: usize,
    op: u64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<InFlight, (Outcome, Instant)> {
    tr.set_on(traced);
    tr.set_op(op);
    let start = Instant::now();
    let io = tr.span("replayer.io_in", || {
        let mut io = ReplayIo::for_recording(&s.recs[model]);
        io.set_input_f32(0, &s.models[model].inputs[k]).map(|()| io)
    });
    let io = io.map_err(|e| (failed(&e), start))?;
    let ticket = tr
        .span("service.submit", || {
            s.service
                .get()
                .submit_request(SKU, ReplayRequest::single(model, io))
        })
        .map_err(|e| (failed(&e), start))?;
    Ok(InFlight {
        ticket,
        start,
        model,
        k,
        traced,
        op,
    })
}

/// Waits for `f` and checks its output; returns the outcome and, when the
/// batch report came back, the report.
fn finish(s: &Setup, f: InFlight, tr: &mut Tracer) -> (Outcome, Option<BatchOutcome>) {
    tr.set_on(f.traced);
    tr.set_op(f.op);
    let res = tr.span("service.wait", || f.ticket.wait());
    let outcome = match res {
        Err(e) => return (failed(&e), None),
        Ok(o) => o,
    };
    let out = match tr.span("replayer.io_out", || outcome.ios[0].output_f32(0)) {
        Ok(out) => out,
        Err(e) => return (failed(&e), Some(outcome)),
    };
    let verdict = tr.span("bench.check", || {
        Outcome::check(&out, &s.models[f.model].refs[f.k])
    });
    (verdict, Some(outcome))
}

fn shard_stats(s: &Setup) -> Result<ShardStats, String> {
    s.service
        .get()
        .stats()
        .shard(SKU)
        .cloned()
        .ok_or_else(|| format!("no {SKU} shard"))
}

/// Per-batch figures from the successful tickets' batch reports. Every
/// ticket of a batch carries that batch's report, so each ticket adds
/// `1/elements` of it.
#[derive(Default)]
struct BatchSums {
    batches: f64,
    resident: f64,
    prologue_exec: f64,
    reupload_bytes: f64,
    virtual_ns_per_element: f64,
    tickets: f64,
}

impl BatchSums {
    fn add(&mut self, o: &BatchOutcome) {
        let r = &o.report;
        let w = 1.0 / r.elements.max(1) as f64;
        self.batches += w;
        if r.prologue_skipped > 0 {
            self.resident += w;
        }
        self.prologue_exec += w * (r.prologue_actions - r.prologue_skipped) as f64;
        self.reupload_bytes += w * r.resident_reupload_bytes as f64;
        self.virtual_ns_per_element += r.wall.as_nanos() as f64 * w;
        self.tickets += 1.0;
    }
}

/// Requests of the MNIST-deep probe: one per pool input.
const DEEP_PROBE: usize = POOL;

/// What the MNIST-deep probe's requests ended in.
#[derive(Default)]
struct Probe {
    served: u64,
    wrong: u64,
    /// Refused requests by error kind, with the first message of each.
    errors: BTreeMap<String, (u64, String)>,
}

impl Probe {
    fn notes(&self) -> Vec<String> {
        let refused: u64 = self.errors.values().map(|(n, _)| n).sum();
        let mut notes = vec![format!(
            "MNIST-deep probe (known defect, not timed ops): {refused} of {DEEP_PROBE} requests refused, {} served, {} wrong",
            self.served, self.wrong
        )];
        notes.extend(self.errors.iter().map(|(k, (n, msg))| {
            format!("MNIST-deep probe refused, kind {k}: {n} (first: {msg})")
        }));
        notes
    }
}

/// Sends one MNIST-deep request per pool input, one at a time, after
/// MNIST has been served (see the module comment).
fn deep_probe(s: &Setup, tr: &mut Tracer) -> Probe {
    let mut probe = Probe::default();
    for k in 0..DEEP_PROBE {
        let outcome = match submit(s, DEEP, k, PROBE_OP, false, tr) {
            Ok(f) => finish(s, f, tr).0,
            Err((outcome, _)) => outcome,
        };
        match outcome {
            Outcome::Correct => probe.served += 1,
            Outcome::Wrong => probe.wrong += 1,
            Outcome::Failed(kind, msg) => probe.errors.entry(kind).or_insert((0, msg)).0 += 1,
        }
    }
    probe
}

#[allow(clippy::too_many_lines)]
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new();
    tr.set_on(args.trace);
    let (s, setup_s) = timed_setup(|| setup(args.seed, &mut tr))?;
    tr.set_on(false);
    // The order of pool inputs draws from its own stream, after the pools.
    let mut rng = Rng::new(args.seed.wrapping_add(0x006D_6978));

    // The warm-up serves MNIST, so MNIST is the recording the worker maps
    // first in every run (see the module comment). A request costs a
    // fraction of a cold-start op, so it runs four times as many.
    let mut q: VecDeque<InFlight> = VecDeque::with_capacity(CALLERS);
    for _ in 0..WARMUP_OPS * 4 {
        while q.len() < CALLERS {
            let f = submit(&s, 0, rng.below(POOL), PROBE_OP, false, &mut tr)
                .map_err(|_| "warm-up submit refused".to_string())?;
            q.push_back(f);
        }
        let f = q.pop_front().expect("queue is full");
        let _ = finish(&s, f, &mut tr);
    }

    let before = shard_stats(&s)?;
    let mut log = OpLog::default();
    let mut sums = BatchSums::default();
    let mut n = 0u64;
    let phase = Phase::start(args);
    // Tickets submitted during warm-up resolve in the timed phase but are
    // not timed ops; only requests submitted from here on count.
    let mut untimed = q.len();
    while phase.running() {
        while q.len() < CALLERS {
            let traced = phase.traced_block();
            match submit(&s, 0, rng.below(POOL), n, traced, &mut tr) {
                Ok(f) => q.push_back(f),
                Err((outcome, start)) => log.push(start.elapsed(), traced, outcome),
            }
            n += 1;
        }
        let f = q.pop_front().expect("queue is full");
        let (start, traced) = (f.start, f.traced);
        let (outcome, batch) = finish(&s, f, &mut tr);
        if untimed > 0 {
            untimed -= 1;
            continue;
        }
        if let (Outcome::Correct, Some(b)) = (&outcome, &batch) {
            sums.add(b);
        }
        log.push(start.elapsed(), traced, outcome);
    }
    let elapsed = phase.elapsed_s();
    // Drain what is still outstanding (untimed, untraced), so the
    // counters settle.
    while let Some(mut f) = q.pop_front() {
        f.traced = false;
        let _ = finish(&s, f, &mut tr);
    }
    let after = shard_stats(&s)?;
    let probe = deep_probe(&s, &mut tr);
    let settled = shard_stats(&s)?;

    let batches = after.batches - before.batches;
    let tickets: u64 = (0..after.batch_sizes.len())
        .map(|i| {
            let was = before.batch_sizes.get(i).copied().unwrap_or(0);
            (i as u64 + 1) * (after.batch_sizes[i] - was)
        })
        .sum();
    let batch_size_mean = tickets as f64 / batches.max(1) as f64;
    let skipped = after.prologue_skipped - before.prologue_skipped;

    let mut notes = log.notes(args, elapsed, setup_s);
    notes.extend(probe.notes());
    let mut checks = Vec::new();
    if batch_size_mean <= 1.0 {
        checks.push(format!(
            "batch_size_mean {batch_size_mean:.3} <= 1: batching is not exercised"
        ));
    }
    if skipped == 0 {
        checks.push("prologue_skipped is 0: residency is not exercised".to_string());
    }
    if probe.wrong > 0 {
        checks.push(format!(
            "{} MNIST-deep probe outputs differ from cpu_ref",
            probe.wrong
        ));
    }
    if !settled.is_consistent() {
        checks.push("service stats are not consistent".to_string());
    }
    notes.push(format!(
        "exercise: {batches} batches, batch_size_mean {batch_size_mean:.3}, prologue_skipped {skipped}"
    ));
    notes.extend(
        checks
            .iter()
            .map(|c| format!("CHECK FAILED (exercise): {c}")),
    );

    let mut layers = Layers::default();
    if args.trace {
        tr.set_on(true);
        tr.set_op(PROBE_OP);
        let mut report = None;
        for rec in &s.recs {
            verify_probe(&mut tr, rec, &MALI_G71, 100)?;
        }
        for _ in 0..WORKER_PROBES {
            report = Some(worker_probe(&s, &mut tr)?);
        }
        let dump_bytes = (s.recs[0].dump_bytes() + s.recs[1].dump_bytes()) as f64 / 2.0;
        layers = Layers::from_spans(&tr, dump_bytes);
        layers.upload_kb_per_op = upload_kb(&s.recs[0], &MALI_G71)?;
        if let Some(r) = &report {
            layers.set_virtual(r, r.wall.as_nanos() as f64, layers.replay_ms);
        }
        layers.retries = (after.retries - before.retries) as f64;
        layers.batch_size_mean = batch_size_mean;
        let ok_batches = sums.batches.max(1e-9);
        layers.resident_batch_share = sums.resident / ok_batches;
        layers.prologue_exec_per_batch = sums.prologue_exec / ok_batches;
        layers.reupload_kb_per_batch = sums.reupload_bytes / ok_batches / 1024.0;
        layers.virtual_ns_per_element = sums.virtual_ns_per_element / sums.tickets.max(1.0);
        layers.rejected_full = (after.rejected_full - before.rejected_full) as f64;
        layers.faults = (after.faults - before.faults) as f64;
        for (kind, (count, _)) in log.errors.iter().chain(&probe.errors) {
            if kind.ends_with("Verify") {
                layers.failed_verify += *count as f64;
            } else {
                layers.failed_other += *count as f64;
            }
        }
        notes.push(write_trace(args, &tr, &notes)?);
    }
    drop(s);

    Ok(Report {
        attempted: log.attempted(),
        failed: log.failed(),
        correct: log.wrong == 0 && checks.is_empty(),
        e2e: log.e2e(elapsed, setup_s),
        layers: layers.metrics(),
        notes,
    })
}
