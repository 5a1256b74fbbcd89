//! End-to-end integration: record on the full stack, replay on the tiny
//! replayer, validate §7.2-style correctness.

use gpureplay::prelude::*;
use gr_gpu::FaultKind;
use gr_mlfw::cpu_ref;
use gr_sim::SimRng;

fn random_input(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| rng.unit_f64() as f32).collect()
}

/// Record MNIST once, replay it on new inputs, compare against the CPU
/// reference — outputs must be bit-identical (§7.2).
#[test]
fn replay_matches_cpu_reference_on_new_inputs() {
    let dev = Machine::new(&sku::MALI_G71, 1);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 7)
        .unwrap();
    let net = recs.net.clone();
    let bytes = recs.recordings[0].to_bytes();
    harness.finish();

    let target = Machine::new(&sku::MALI_G71, 2);
    let env = Environment::new(EnvKind::UserLevel, target).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&bytes).unwrap();

    for seed in [11u64, 12, 13] {
        let input = random_input(net.input_len(), seed);
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &input).unwrap();
        let report = replayer.replay(id, &mut io).unwrap();
        assert_eq!(report.retries, 0);
        assert!(report.jobs > 0);
        let replayed = io.output_f32(0).unwrap();
        let reference = cpu_ref::cpu_infer(&net, &input);
        assert_eq!(replayed, reference, "seed {seed}: bit-identical expected");
    }
    replayer.cleanup();
}

/// The same end-to-end flow on the v3d family (kernel-level replayer).
#[test]
fn v3d_record_replay_roundtrip() {
    let dev = Machine::new(&sku::V3D_RPI4, 3);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 9)
        .unwrap();
    let net = recs.net.clone();
    let bytes = recs.recordings[0].to_bytes();
    harness.finish();

    let target = Machine::new(&sku::V3D_RPI4, 4);
    let env = Environment::new(EnvKind::KernelLevel, target).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&bytes).unwrap();
    let input = random_input(net.input_len(), 5);
    let mut io = ReplayIo::for_recording(replayer.recording(id));
    io.set_input_f32(0, &input).unwrap();
    replayer.replay(id, &mut io).unwrap();
    assert_eq!(io.output_f32(0).unwrap(), cpu_ref::cpu_infer(&net, &input));
    replayer.cleanup();
}

/// Physical frames of `machine` that are currently allocated.
fn allocated_frames(machine: &Machine) -> Vec<u64> {
    let frames = machine.frames().lock();
    (0..frames.capacity() as u64)
        .map(|i| gr_gpu::machine::DRAM_BASE + i * gr_soc::PAGE_SIZE as u64)
        .filter(|&pa| frames.is_allocated(pa))
        .collect()
}

/// A second replayer on the same machine gets the first one's freed table
/// and data frames back. Every frame it is handed must be scrubbed (§5.1),
/// even after another tenant wrote over all of them.
#[test]
fn second_replayer_on_one_machine_gets_scrubbed_frames() {
    const POISON: u64 = 0xDEAD_BEEF_CAFE_F00D;
    for (sku, env_kind) in [
        (&sku::MALI_G71, EnvKind::UserLevel),
        (&sku::V3D_RPI4, EnvKind::KernelLevel),
    ] {
        let dev = Machine::new(sku, 21);
        let mut harness = RecordHarness::new(dev).unwrap();
        let recs = harness
            .record_inference(&models::mnist(), Granularity::WholeNn, 22)
            .unwrap();
        let net = recs.net.clone();
        let bytes = recs.recordings[0].to_bytes();
        harness.finish();
        let input = random_input(net.input_len(), 23);
        let reference = cpu_ref::cpu_infer(&net, &input);

        // Eight frames more than one replay needs, so the second
        // replayer's allocations wrap around onto the first one's frames.
        let tables = match sku.family {
            gr_gpu::sku::GpuFamilyKind::Mali => 2,
            gr_gpu::sku::GpuFamilyKind::V3d => gr_gpu::v3d::pgtable::PT_PAGES,
        };
        let pages = recs.recordings[0].meta.peak_mapped_pages as usize + tables + 8;
        let target = Machine::with_dram(sku, 24, pages * gr_soc::PAGE_SIZE);
        // Replays once on a fresh replayer and returns the frames it held.
        let run = || {
            let env = Environment::new(env_kind, target.clone()).unwrap();
            let mut replayer = Replayer::new(env);
            for pa in allocated_frames(&target) {
                let table = target.mem().read_vec(pa, gr_soc::PAGE_SIZE).unwrap();
                assert!(
                    table.iter().all(|&b| b == 0),
                    "table frame {pa:#x} not scrubbed"
                );
            }
            let id = replayer.load_bytes(&bytes).unwrap();
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, &input).unwrap();
            replayer.replay(id, &mut io).unwrap();
            assert_eq!(io.output_f32(0).unwrap(), reference, "{}", sku.name);
            let used = allocated_frames(&target);
            for &pa in &used {
                let page = target.mem().read_vec(pa, gr_soc::PAGE_SIZE).unwrap();
                assert!(
                    page.chunks_exact(8).all(|w| w != POISON.to_le_bytes()),
                    "{}: frame {pa:#x} kept poison",
                    sku.name
                );
            }
            replayer.cleanup();
            used
        };
        let first = run();
        // Cleanup cleared the first replayer's PTEs but left its data.
        // Poison every free frame, its tables and data frames included.
        let page = POISON.to_le_bytes().repeat(gr_soc::PAGE_SIZE / 8);
        for i in 0..target.frames().lock().capacity() as u64 {
            let pa = gr_gpu::machine::DRAM_BASE + i * gr_soc::PAGE_SIZE as u64;
            target.mem().write(pa, &page).unwrap();
        }
        let second = run();
        let reused = second.iter().filter(|pa| first.contains(pa)).count();
        assert!(
            reused > second.len() / 2,
            "{}: only {reused} of {} frames reused",
            sku.name,
            second.len()
        );
    }
}

/// A new machine may get a dropped machine's DRAM storage back (§2). It
/// must read zero before its first replay, whatever the old machine left
/// there (§5.1), and replay bit-identically on it.
#[test]
fn new_machine_never_sees_a_dropped_machines_dram() {
    const POISON: u8 = 0xA5;
    for (sku, env_kind) in [
        (&sku::MALI_G71, EnvKind::UserLevel),
        (&sku::V3D_RPI4, EnvKind::KernelLevel),
    ] {
        let dev = Machine::new(sku, 31);
        let mut harness = RecordHarness::new(dev).unwrap();
        let recs = harness
            .record_inference(&models::mnist(), Granularity::WholeNn, 32)
            .unwrap();
        let net = recs.net.clone();
        let bytes = recs.recordings[0].to_bytes();
        harness.finish();
        let input = random_input(net.input_len(), 33);
        let reference = cpu_ref::cpu_infer(&net, &input);

        let tables = match sku.family {
            gr_gpu::sku::GpuFamilyKind::Mali => 2,
            gr_gpu::sku::GpuFamilyKind::V3d => gr_gpu::v3d::pgtable::PT_PAGES,
        };
        let size =
            (recs.recordings[0].meta.peak_mapped_pages as usize + tables + 16) * gr_soc::PAGE_SIZE;
        let replay_on = |machine: Machine| {
            let env = Environment::new(env_kind, machine).unwrap();
            let mut replayer = Replayer::new(env);
            let id = replayer.load_bytes(&bytes).unwrap();
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, &input).unwrap();
            replayer.replay(id, &mut io).unwrap();
            replayer.cleanup();
            io.output_f32(0).unwrap()
        };
        let base = gr_gpu::machine::DRAM_BASE;

        // Machine A replays, then every byte of its DRAM is poisoned
        // before the last handle to it goes.
        let a = Machine::with_dram(sku, 34, size);
        assert_eq!(replay_on(a.clone()), reference, "{}: A", sku.name);
        a.mem().fill(base, size, POISON).unwrap();
        drop(a);

        let b = Machine::with_dram(sku, 35, size);
        let zero = b
            .mem()
            .with_slice(base, size, |s| s.iter().all(|&x| x == 0))
            .unwrap();
        assert!(zero, "{}: B's DRAM holds A's bytes", sku.name);
        assert_eq!(replay_on(b), reference, "{}: B", sku.name);
    }
}

/// Per-layer recordings replayed in sequence in one session reproduce the
/// whole network (paper Fig. 4).
#[test]
fn per_layer_recordings_chain_in_one_session() {
    let dev = Machine::new(&sku::MALI_G71, 5);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::PerLayer, 21)
        .unwrap();
    let net = recs.net.clone();
    let blobs: Vec<Vec<u8>> = recs.recordings.iter().map(|r| r.to_bytes()).collect();
    harness.finish();

    let target = Machine::new(&sku::MALI_G71, 6);
    let env = Environment::new(EnvKind::UserLevel, target).unwrap();
    let mut replayer = Replayer::new(env);
    let ids: Vec<usize> = blobs
        .iter()
        .map(|b| replayer.load_bytes(b).unwrap())
        .collect();
    let input = random_input(net.input_len(), 31);
    let mut final_out = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        if i == 0 {
            io.set_input_f32(0, &input).unwrap();
        }
        replayer.replay(id, &mut io).unwrap();
        if i + 1 == ids.len() {
            final_out = io.output_f32(0).unwrap();
        }
    }
    assert_eq!(final_out, cpu_ref::cpu_infer(&net, &input));
    replayer.cleanup();
}

/// TEE and baremetal environments replay the same recording correctly.
#[test]
fn tee_and_baremetal_replay() {
    let dev = Machine::new(&sku::MALI_G71, 7);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 8)
        .unwrap();
    let net = recs.net.clone();
    let bytes = recs.recordings[0].to_bytes();
    harness.finish();

    for kind in [EnvKind::Tee, EnvKind::Baremetal] {
        let target = Machine::new(&sku::MALI_G71, 8);
        let env = Environment::new(kind, target).unwrap();
        let mut replayer = Replayer::new(env);
        let id = replayer.load_bytes(&bytes).unwrap();
        let input = random_input(net.input_len(), 17);
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &input).unwrap();
        replayer.replay(id, &mut io).unwrap();
        assert_eq!(
            io.output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&net, &input),
            "{kind}"
        );
        replayer.cleanup();
    }
}

/// §7.2 fault injection: offline cores and corrupted PTEs are detected as
/// state divergences and recovered by re-execution.
#[test]
fn replay_recovers_from_injected_faults() {
    let dev = Machine::new(&sku::MALI_G71, 9);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 10)
        .unwrap();
    let net = recs.net.clone();
    let bytes = recs.recordings[0].to_bytes();
    harness.finish();

    let target = Machine::new(&sku::MALI_G71, 10);
    let env = Environment::new(EnvKind::UserLevel, target.clone()).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&bytes).unwrap();
    let input = random_input(net.input_len(), 23);

    // Fault 1: forcibly offline shader cores just before replay — the
    // first job fails, the replayer resets and re-executes.
    target.inject_fault(FaultKind::OfflineCores { mask: 0xFF });
    let mut io = ReplayIo::for_recording(replayer.recording(id));
    io.set_input_f32(0, &input).unwrap();
    let report = replayer.replay(id, &mut io).unwrap();
    assert!(report.retries >= 1, "fault must have forced a retry");
    assert_eq!(io.output_f32(0).unwrap(), cpu_ref::cpu_infer(&net, &input));

    // Fault 2: corrupt the PTE of the input buffer mid-session; recovery
    // re-populates the page tables.
    target.inject_fault(FaultKind::CorruptPte { va: net.input_va });
    let mut io2 = ReplayIo::for_recording(replayer.recording(id));
    io2.set_input_f32(0, &input).unwrap();
    let report2 = replayer.replay(id, &mut io2).unwrap();
    assert_eq!(io2.output_f32(0).unwrap(), cpu_ref::cpu_infer(&net, &input));
    assert!(report2.retries <= 2);
    replayer.cleanup();
}

/// Cross-SKU (§6.4): a G31 recording replays on G71 only after patching;
/// the affinity patch restores full speed.
#[test]
fn cross_sku_patching_g31_to_g71() {
    let dev = Machine::new(&sku::MALI_G31, 11);
    let mut harness = RecordHarness::new(dev).unwrap();
    let rec = harness.record_vecadd(512, 16_000_000, 13).unwrap();
    harness.finish();

    let a: Vec<f32> = random_input(512, 41);
    let b: Vec<f32> = random_input(512, 42);
    let expected: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();

    let run =
        |rec: &Recording| -> Result<(Vec<f32>, gr_sim::SimDuration), gr_replayer::ReplayError> {
            let target = Machine::new(&sku::MALI_G71, 12);
            let env = Environment::new(EnvKind::UserLevel, target).unwrap();
            let mut replayer = Replayer::new(env);
            let id = replayer.load(rec.clone())?;
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, &a).unwrap();
            io.set_input_f32(1, &b).unwrap();
            let report = replayer.replay(id, &mut io)?;
            let out = io.output_f32(0).unwrap();
            replayer.cleanup();
            Ok((out, report.wall))
        };

    // Unpatched: must fail (wrong GPU id expectation / PTE layout).
    assert!(
        run(&rec).is_err(),
        "unpatched G31 recording must not replay on G71"
    );

    // Pgtable+MMU patch: correct results, reduced speed (1 core).
    let partial = patch_recording(
        &rec,
        &sku::MALI_G31,
        &sku::MALI_G71,
        PatchOptions::without_affinity(),
    )
    .unwrap();
    let (out1, t1) = run(&partial).unwrap();
    assert_eq!(out1, expected);

    // Full patch: correct and faster (8 cores).
    let full = patch_recording(&rec, &sku::MALI_G31, &sku::MALI_G71, PatchOptions::full()).unwrap();
    let (out2, t2) = run(&full).unwrap();
    assert_eq!(out2, expected);
    assert!(
        t2 < t1,
        "affinity patch should speed up replay: {t2} vs {t1}"
    );
}

/// Training: replaying the per-iteration recording in a loop (weights fed
/// back) reduces the loss, mirroring Fig. 4's training flow.
#[test]
fn training_iteration_replays_and_learns() {
    let dev = Machine::new(&sku::MALI_G71, 13);
    let mut harness = RecordHarness::new(dev).unwrap();
    let trec = harness.record_training(15).unwrap();
    let bytes = trec.recording.to_bytes();
    harness.finish();

    let target = Machine::new(&sku::MALI_G71, 14);
    let env = Environment::new(EnvKind::UserLevel, target).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&bytes).unwrap();

    // Synthetic digit, fixed label.
    let img = random_input(28 * 28, 55);
    let label = 3.0f32;
    // Weights start from the recorded initialization.
    let mut w: Vec<Vec<u8>> = trec
        .initial_weights
        .iter()
        .map(|(_, b)| b.clone())
        .collect();

    let loss_of = |probs: &[f32]| -> f32 { -(probs[3].max(1e-12)).ln() };
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for _ in 0..8 {
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &img).unwrap();
        io.set_input_f32(1, &[label]).unwrap();
        io.inputs[2] = w[0].clone();
        io.inputs[3] = w[1].clone();
        io.inputs[4] = w[2].clone();
        replayer.replay(id, &mut io).unwrap();
        let probs = io.output_f32(0).unwrap();
        // App-side predicate P: extract updated weights, check loss.
        w[0] = io.outputs[1].clone();
        w[1] = io.outputs[2].clone();
        w[2] = io.outputs[3].clone();
        last_loss = loss_of(&probs);
        first_loss.get_or_insert(last_loss);
    }
    let first = first_loss.unwrap();
    assert!(
        last_loss < first,
        "loss should decrease across replayed iterations: {first} -> {last_loss}"
    );
    replayer.cleanup();
}

/// Security: fabricated recordings are rejected by the verifier, and
/// tampered containers fail the integrity check (Table 5 scenarios).
#[test]
fn hostile_recordings_are_rejected() {
    use gr_recording::{Action, RecordingMeta, TimedAction};
    let target = Machine::new(&sku::MALI_G71, 15);
    let env = Environment::new(EnvKind::UserLevel, target).unwrap();
    let mut replayer = Replayer::new(env);

    // Illegal register access.
    let mut evil = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "evil",
    ));
    evil.actions.push(TimedAction::immediate(Action::RegWrite {
        reg: 0x2FFC,
        mask: u32::MAX,
        val: 0xDEAD_BEEF,
    }));
    assert!(matches!(
        replayer.load(evil),
        Err(gr_replayer::ReplayError::Verify(_))
    ));

    // Memory-hungry recording rejected by the cap.
    let mut hog = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "hog",
    ));
    hog.actions.push(TimedAction::immediate(Action::MapGpuMem {
        va: 0,
        pte_flags: vec![0xB; 100_000],
    }));
    assert!(replayer.load(hog).is_err());

    // Bit-flipped container fails integrity.
    let mut ok = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "ok",
    ));
    ok.actions
        .push(TimedAction::immediate(Action::SetGpuPgtable));
    let mut bytes = ok.to_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    assert!(matches!(
        replayer.load_bytes(&bytes),
        Err(gr_replayer::ReplayError::Container(_))
    ));
    replayer.cleanup();
}
