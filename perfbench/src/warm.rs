//! `warm-infer`: MNIST on G71 in the user-level environment, one caller,
//! one warm replayer. Each op sets a pool input, replays, reads the
//! output and checks it against the CPU reference. It serves the same
//! recording as `service-mix`, one `replay` at a time, so it bypasses the
//! service, batching and residency that `service-mix` exercises.
//!
//! MNIST, not MobileNet: a MobileNet op (about 1.8 MB of dumps uploaded
//! and 71 jobs) slowed by up to 1.9x while the shared host was busy, and
//! even its 5th-percentile latency moved by up to 2x between runs; an
//! MNIST op on the same host moved by a few percent.

use std::time::Instant;

use gr_gpu::sku::MALI_G71;
use gr_gpu::Machine;
use gr_mlfw::models;
use gr_recording::Recording;
use gr_replayer::{EnvKind, Environment, ReplayError, ReplayIo, ReplayReport, Replayer};

use crate::common::{
    failed, record, timed_setup, write_trace, Args, Model, OpLog, Outcome, Phase, Report, Rng,
    MACHINE_SEED, WARMUP_OPS,
};
use crate::layers::{service_probe, upload_kb, verify_probe, Layers, ReplayCounts};
use crate::trace::{Tracer, PROBE_OP};

const POOL: usize = 16;

/// Decodes, builds a machine and replayer, loads, and runs the first
/// replay, each call as its own span.
fn warm_replayer(m: &Model, tr: &mut Tracer) -> Result<(Replayer, usize), String> {
    let rec = tr
        .span("recording.decode", || Recording::from_bytes(&m.blob))
        .map_err(|e| format!("decode: {e}"))?;
    let machine = tr.span("gpu.machine_new", || Machine::new(&MALI_G71, MACHINE_SEED));
    let mut replayer = tr
        .span("replayer.new", || {
            Environment::new(EnvKind::UserLevel, machine).map(Replayer::new)
        })
        .map_err(|e| format!("environment: {e}"))?;
    let id = tr
        .span("replayer.load", || replayer.load(rec))
        .map_err(|e| format!("load: {e}"))?;
    let mut io = ReplayIo::for_recording(replayer.recording(id));
    io.set_input_f32(0, &m.inputs[0])
        .map_err(|e| e.to_string())?;
    tr.span("replayer.first_replay", || replayer.replay(id, &mut io))
        .map_err(|e| format!("first replay: {e}"))?;
    Ok((replayer, id))
}

fn op(
    m: &Model,
    k: usize,
    replayer: &mut Replayer,
    id: usize,
    io: &mut ReplayIo,
    tr: &mut Tracer,
) -> Result<(Outcome, ReplayReport), ReplayError> {
    tr.span("replayer.io_in", || io.set_input_f32(0, &m.inputs[k]))?;
    let report = tr.span("replayer.replay", || replayer.replay(id, io))?;
    let out = tr.span("replayer.io_out", || io.output_f32(0))?;
    let outcome = tr.span("bench.check", || Outcome::check(&out, &m.refs[k]));
    Ok((outcome, report))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new();
    tr.set_on(args.trace);
    let ((model, (mut replayer, id)), setup_s) = timed_setup(|| {
        let m = record(&MALI_G71, &models::mnist(), &mut Rng::new(args.seed), POOL);
        let warm = warm_replayer(&m, &mut tr)?;
        Ok((m, warm))
    })?;
    tr.set_on(false);
    let mut io = ReplayIo::for_recording(replayer.recording(id));

    // An op costs a fraction of a cold-start op, so the warm-up runs four
    // times as many.
    for i in 0..WARMUP_OPS * 4 {
        op(&model, i % POOL, &mut replayer, id, &mut io, &mut tr)
            .map_err(|e| format!("warm-up op failed: {e}"))?;
    }

    let mut log = OpLog::default();
    let mut counts = ReplayCounts::new(replayer.recording(id).actions.len());
    let phase = Phase::start(args);
    let mut n = 0u64;
    while phase.running() {
        let traced = phase.traced_block();
        tr.set_on(traced);
        tr.set_op(n);
        let t = Instant::now();
        let root = tr.begin("bench.op");
        let k = n as usize % POOL;
        let res = op(&model, k, &mut replayer, id, &mut io, &mut tr);
        tr.end(root);
        let lat = t.elapsed();
        match res {
            Ok((outcome, report)) => {
                counts.note(n, &report);
                log.push(lat, traced, outcome);
            }
            Err(e) => log.push(lat, traced, failed(&e)),
        }
        n += 1;
    }
    let elapsed = phase.elapsed_s();
    tr.set_on(args.trace);
    tr.set_op(PROBE_OP);
    tr.span("replayer.cleanup", || replayer.cleanup());

    let mut notes = log.notes(args, elapsed, setup_s);
    notes.extend(counts.notes());

    let mut layers = Layers::default();
    if args.trace {
        let rec = Recording::from_bytes(&model.blob).map_err(|e| e.to_string())?;
        verify_probe(&mut tr, &rec, &MALI_G71, 200)?;
        service_probe(&mut tr, &MALI_G71, EnvKind::UserLevel, &model, &rec, 32)?;
        layers = Layers::from_spans(&tr, rec.dump_bytes() as f64);
        layers.upload_kb_per_op = upload_kb(&rec, &MALI_G71)?;
        counts.fill(&mut layers);
        notes.push(write_trace(args, &tr, &notes)?);
    }

    Ok(Report {
        attempted: log.attempted(),
        failed: log.failed(),
        correct: log.wrong == 0 && counts.violations.is_empty(),
        e2e: log.e2e(elapsed, setup_s),
        layers: layers.metrics(),
        notes,
    })
}
