//! `cold-start`: MNIST on v3d in the kernel-level environment, one
//! caller. Each op decodes the container, builds a fresh machine,
//! environment and replayer, loads, replays once with a pool input,
//! checks the output against the CPU reference, and cleans up.

use std::time::Instant;

use gr_gpu::sku::V3D_RPI4;
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

fn op(m: &Model, k: usize, tr: &mut Tracer) -> Result<(Outcome, ReplayReport), ReplayError> {
    let rec = tr.span("recording.decode", || Recording::from_bytes(&m.blob))?;
    let machine = tr.span("gpu.machine_new", || Machine::new(&V3D_RPI4, MACHINE_SEED));
    let mut replayer = tr.span("replayer.new", || {
        Environment::new(EnvKind::KernelLevel, machine).map(Replayer::new)
    })?;
    let id = tr.span("replayer.load", || replayer.load(rec))?;
    let mut io = ReplayIo::for_recording(replayer.recording(id));
    tr.span("replayer.io_in", || io.set_input_f32(0, &m.inputs[k]))?;
    let report = tr.span("replayer.first_replay", || replayer.replay(id, &mut io))?;
    let out = tr.span("replayer.io_out", || io.output_f32(0))?;
    let outcome = tr.span("bench.check", || Outcome::check(&out, &m.refs[k]));
    tr.span("replayer.cleanup", || replayer.cleanup());
    Ok((outcome, report))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (model, setup_s) = timed_setup(|| {
        Ok(record(
            &V3D_RPI4,
            &models::mnist(),
            &mut Rng::new(args.seed),
            POOL,
        ))
    })?;
    let mut tr = Tracer::new();

    for i in 0..WARMUP_OPS {
        op(&model, i % POOL, &mut tr).map_err(|e| format!("warm-up op failed: {e}"))?;
    }

    let mut log = OpLog::default();
    let full_actions = Recording::from_bytes(&model.blob)
        .map_err(|e| e.to_string())?
        .actions
        .len();
    let mut counts = ReplayCounts::new(full_actions);
    let phase = Phase::start(args);
    let mut n = 0u64;
    while phase.running() {
        let traced = phase.traced_block();
        tr.set_on(traced);
        tr.set_op(n);
        let t = Instant::now();
        let root = tr.begin("bench.op");
        let res = op(&model, n as usize % POOL, &mut tr);
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

    let mut notes = log.notes(args, elapsed, setup_s);
    notes.extend(counts.notes());

    let mut layers = Layers::default();
    if args.trace {
        let rec = Recording::from_bytes(&model.blob).map_err(|e| e.to_string())?;
        verify_probe(&mut tr, &rec, &V3D_RPI4, 200)?;
        service_probe(&mut tr, &V3D_RPI4, EnvKind::KernelLevel, &model, &rec, 32)?;
        layers = Layers::from_spans(&tr, rec.dump_bytes() as f64);
        // The first replay is the only replay of a cold-start op.
        layers.replay_ms = layers.first_replay_ms;
        layers.upload_kb_per_op = upload_kb(&rec, &V3D_RPI4)?;
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
