//! The per-layer metrics every workload reports (`--trace 1`), and the
//! probes that time single layer calls from outside.
//!
//! Probes run after the timed phase, as spans outside the timed ops.
//! They time calls a workload's own ops do not make from the benchmark
//! thread: `verify::verify` on its own (inside `load` it cannot be timed
//! apart), the replayer calls a service worker makes (on `service-mix`),
//! and a service round trip with the workload's own recording (on the
//! two single-caller workloads, which bypass the service). The batching
//! and residency counters stay 0 on the single-caller workloads: that is
//! their bypass.

use std::collections::HashSet;

use gr_gpu::GpuSku;
use gr_recording::{Action, Recording};
use gr_replayer::replayer::DEFAULT_MAX_PAGES;
use gr_replayer::{verify, EnvKind, NanoIface, ReplayIo, ReplayReport};
use gr_service::{ReplayRequest, ReplayService, ShardSpec};

use crate::common::{bits_equal, mean, median, metric, Metric, Model, MACHINE_SEED};
use crate::trace::Tracer;

#[derive(Default)]
pub struct Layers {
    pub decode_ms: f64,
    pub decode_mb_s: f64,
    pub machine_new_ms: f64,
    pub new_ms: f64,
    pub verify_ms: f64,
    pub load_ms: f64,
    pub first_replay_ms: f64,
    pub cleanup_ms: f64,
    pub replay_ms: f64,
    pub io_in_us: f64,
    pub io_out_us: f64,
    pub startup_virtual_ns: f64,
    pub replay_virtual_ns: f64,
    pub host_per_virtual: f64,
    pub actions_per_op: f64,
    pub upload_kb_per_op: f64,
    pub retries: f64,
    pub jobs_per_op: f64,
    pub host_us_per_job: f64,
    pub submit_us: f64,
    pub wait_ms: f64,
    pub batch_size_mean: f64,
    pub resident_batch_share: f64,
    pub prologue_exec_per_batch: f64,
    pub reupload_kb_per_batch: f64,
    pub virtual_ns_per_element: f64,
    pub rejected_full: f64,
    pub faults: f64,
    pub failed_verify: f64,
    pub failed_other: f64,
}

impl Layers {
    /// The fields timed by the spans of the same name: medians, except
    /// `service.wait`, a mean (its median is near 0 whenever one batch
    /// resolved several tickets before the thread waited on them).
    /// `dump_bytes` is the decompressed size of one decoded recording.
    pub fn from_spans(tr: &Tracer, dump_bytes: f64) -> Layers {
        let times = tr.by_name();
        let med = |name: &str| times.get(name).map_or(0.0, |t| median(&t.total_ms));
        let decode_ms = med("recording.decode");
        Layers {
            decode_ms,
            decode_mb_s: dump_bytes / 1e3 / decode_ms,
            machine_new_ms: med("gpu.machine_new"),
            new_ms: med("replayer.new"),
            verify_ms: med("replayer.verify"),
            load_ms: med("replayer.load"),
            first_replay_ms: med("replayer.first_replay"),
            cleanup_ms: med("replayer.cleanup"),
            replay_ms: med("replayer.replay"),
            io_in_us: med("replayer.io_in") * 1e3,
            io_out_us: med("replayer.io_out") * 1e3,
            submit_us: med("service.submit") * 1e3,
            wait_ms: times.get("service.wait").map_or(0.0, |t| mean(&t.total_ms)),
            ..Layers::default()
        }
    }

    /// Fills the virtual-time counts and the host/virtual ratio from one
    /// op's report, the replay's virtual ns per op and the median host
    /// time of a replay.
    pub fn set_virtual(&mut self, r: &ReplayReport, replay_virtual_ns: f64, replay_host_ms: f64) {
        self.startup_virtual_ns = r.startup.as_nanos() as f64;
        self.replay_virtual_ns = replay_virtual_ns;
        self.actions_per_op = r.actions as f64;
        self.jobs_per_op = f64::from(r.jobs);
        self.host_per_virtual = replay_host_ms / (replay_virtual_ns / 1e6);
        self.host_us_per_job = replay_host_ms * 1e3 / f64::from(r.jobs.max(1));
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("recording.decode_ms", self.decode_ms, "ms"),
            metric("recording.decode_mb_s", self.decode_mb_s, "MB/s"),
            metric("gpu.machine_new_ms", self.machine_new_ms, "ms"),
            metric("replayer.new_ms", self.new_ms, "ms"),
            metric("replayer.verify_ms", self.verify_ms, "ms"),
            metric("replayer.load_ms", self.load_ms, "ms"),
            metric("replayer.first_replay_ms", self.first_replay_ms, "ms"),
            metric("replayer.cleanup_ms", self.cleanup_ms, "ms"),
            metric("replayer.replay_ms", self.replay_ms, "ms"),
            metric("replayer.io_in_us", self.io_in_us, "us"),
            metric("replayer.io_out_us", self.io_out_us, "us"),
            metric(
                "replayer.startup_virtual_ns",
                self.startup_virtual_ns,
                "count",
            ),
            metric(
                "replayer.replay_virtual_ns",
                self.replay_virtual_ns,
                "count",
            ),
            metric("replayer.host_per_virtual", self.host_per_virtual, "ratio"),
            metric("replayer.actions_per_op", self.actions_per_op, "count"),
            metric("replayer.upload_kb_per_op", self.upload_kb_per_op, "KB"),
            metric("replayer.retries", self.retries, "count"),
            metric("gpu.jobs_per_op", self.jobs_per_op, "count"),
            metric("gpu.host_us_per_job", self.host_us_per_job, "us"),
            metric("service.submit_us", self.submit_us, "us"),
            metric("service.wait_ms", self.wait_ms, "ms"),
            metric("service.batch_size_mean", self.batch_size_mean, "count"),
            metric(
                "service.resident_batch_share",
                self.resident_batch_share,
                "ratio",
            ),
            metric(
                "service.prologue_exec_per_batch",
                self.prologue_exec_per_batch,
                "count",
            ),
            metric(
                "service.reupload_kb_per_batch",
                self.reupload_kb_per_batch,
                "KB",
            ),
            metric(
                "service.virtual_ns_per_element",
                self.virtual_ns_per_element,
                "count",
            ),
            metric("service.rejected_full", self.rejected_full, "count"),
            metric("service.faults", self.faults, "count"),
            metric("service.failed_verify", self.failed_verify, "count"),
            metric("service.failed_other", self.failed_other, "count"),
        ]
    }
}

/// Replay virtual time drifts a little from op to op on a warm machine
/// (its seeded jitter stream advances), so the count reported is the mean
/// over this many timed ops right after the fixed warm-up, which repeats
/// exactly between runs.
const VIRTUAL_WINDOW: usize = 32;

/// The bypass check and the virtual-time counts of the two single-caller
/// workloads. Every `replay` must run every recorded action and repeat
/// the first op's startup, job, action and retry counts exactly:
/// residency or a batch prologue skip would change them.
pub struct ReplayCounts {
    full_actions: usize,
    first: Option<ReplayReport>,
    window_ns: Vec<f64>,
    retries: u64,
    pub violations: Vec<String>,
}

impl ReplayCounts {
    pub fn new(full_actions: usize) -> ReplayCounts {
        ReplayCounts {
            full_actions,
            first: None,
            window_ns: Vec::with_capacity(VIRTUAL_WINDOW),
            retries: 0,
            violations: Vec::new(),
        }
    }

    pub fn note(&mut self, op: u64, r: &ReplayReport) {
        self.retries += u64::from(r.retries);
        if self.window_ns.len() < VIRTUAL_WINDOW {
            self.window_ns.push(r.wall.as_nanos() as f64);
        }
        if r.actions != self.full_actions {
            self.violations.push(format!(
                "op {op} ran {} of {} actions",
                r.actions, self.full_actions
            ));
        }
        let key = |r: &ReplayReport| (r.startup, r.jobs, r.actions, r.retries);
        match &self.first {
            None => self.first = Some(r.clone()),
            Some(f) if key(f) != key(r) => {
                self.violations
                    .push(format!("op {op}: {r:?} != first op {f:?}"));
            }
            Some(_) => {}
        }
    }

    /// The counts line and the first few check failures, for printing.
    pub fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        if let Some(r) = &self.first {
            notes.push(format!(
                "virtual counts per op (repeat exactly between runs): startup_ns {} replay_ns {} (mean of the first {} timed ops) jobs {} actions {} retries {}",
                r.startup.as_nanos(),
                mean(&self.window_ns),
                self.window_ns.len(),
                r.jobs,
                r.actions,
                self.retries
            ));
        }
        notes.extend(
            self.violations
                .iter()
                .take(5)
                .map(|v| format!("CHECK FAILED (bypass): {v}")),
        );
        notes
    }

    /// Fills the virtual-time counts, the host/virtual ratio (from the
    /// median host time of a replay) and the retry count.
    pub fn fill(&self, layers: &mut Layers) {
        if let Some(r) = &self.first {
            layers.set_virtual(r, mean(&self.window_ns), layers.replay_ms);
        }
        layers.retries = self.retries as f64;
    }
}

/// Times `verify::verify` on its own, `reps` times, as `replayer.verify`
/// spans. The replayer runs the same call inside `load`, so
/// `load_ms - verify_ms` is the load bookkeeping.
pub fn verify_probe(
    tr: &mut Tracer,
    rec: &Recording,
    sku: &GpuSku,
    reps: usize,
) -> Result<(), String> {
    let iface = NanoIface::for_family(sku.family);
    for _ in 0..reps {
        tr.span("replayer.verify", || {
            verify::verify(rec, iface, DEFAULT_MAX_PAGES)
        })
        .map_err(|e| format!("verify probe: {e}"))?;
    }
    Ok(())
}

/// Dump bytes a full replay uploads: every `Upload` the verifier did not
/// find dead, in KB.
pub fn upload_kb(rec: &Recording, sku: &GpuSku) -> Result<f64, String> {
    let report = verify::verify(rec, NanoIface::for_family(sku.family), DEFAULT_MAX_PAGES)
        .map_err(|e| format!("verify: {e}"))?;
    let dead: HashSet<usize> = report.dead_uploads.into_iter().collect();
    let bytes: usize = rec
        .actions
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .filter_map(|(_, a)| match a.action {
            Action::Upload { dump_idx } => rec.dumps.get(dump_idx as usize),
            _ => None,
        })
        .map(|d| d.bytes.len())
        .sum();
    Ok(bytes as f64 / 1024.0)
}

/// Serves `model`'s recording through a one-worker service, `reps`
/// single requests one at a time, as `service.submit` / `service.wait`
/// spans; every output must match the reference.
pub fn service_probe(
    tr: &mut Tracer,
    sku: &'static GpuSku,
    env: EnvKind,
    model: &Model,
    rec: &Recording,
    reps: usize,
) -> Result<(), String> {
    let spec = ShardSpec::new(sku, env, vec![model.blob.clone()])
        .workers(1)
        .seed(MACHINE_SEED);
    let service = ReplayService::builder()
        .shard(spec)
        .spawn()
        .map_err(|e| format!("service probe: spawn: {e}"))?;
    let mut result = Ok(());
    for k in 0..reps {
        let k = k % model.inputs.len();
        let mut io = ReplayIo::for_recording(rec);
        if let Err(e) = io.set_input_f32(0, &model.inputs[k]) {
            result = Err(format!("service probe: input: {e}"));
            break;
        }
        let ticket = tr.span("service.submit", || {
            service.submit_request(sku.name, ReplayRequest::single(0, io))
        });
        let outcome = ticket.and_then(|t| tr.span("service.wait", || t.wait()));
        let out = outcome
            .map_err(|e| e.to_string())
            .and_then(|o| o.ios[0].output_f32(0).map_err(|e| e.to_string()));
        match out {
            Ok(out) if bits_equal(&out, &model.refs[k]) => {}
            Ok(_) => {
                result = Err("service probe: output differs from cpu_ref".to_string());
                break;
            }
            Err(e) => {
                result = Err(format!("service probe: {e}"));
                break;
            }
        }
    }
    service.shutdown();
    result
}
