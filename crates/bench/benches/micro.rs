//! Criterion micro-benchmarks: real wall-clock cost of the replayer's hot
//! paths (action interpretation, verification, GRZ codec, GPU VM kernels).

use criterion::{criterion_group, criterion_main, Criterion};
use gr_gpu::{sku, Machine};
use gr_mlfw::fusion::Granularity;
use gr_mlfw::models;
use gr_recording::{grz_compress, grz_decompress, Recording};
use gr_replayer::{EnvKind, Environment, NanoIface, ReplayIo, Replayer};

fn bench_replay(c: &mut Criterion) {
    let rm = gr_bench::record_model(
        &sku::MALI_G71,
        &models::mnist(),
        Granularity::WholeNn,
        true,
        7,
    );
    let input: Vec<f32> = (0..rm.net.input_len()).map(|i| i as f32 * 0.001).collect();
    c.bench_function("replay_mnist_whole_nn", |b| {
        b.iter(|| {
            let machine = Machine::new(&sku::MALI_G71, 9);
            let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
            let mut replayer = Replayer::new(env);
            let id = replayer.load(rm.recordings[0].clone()).unwrap();
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, &input).unwrap();
            replayer.replay(id, &mut io).unwrap();
            replayer.cleanup();
        })
    });
    c.bench_function("verify_mnist_recording", |b| {
        b.iter(|| gr_replayer::verify::verify(&rm.recordings[0], NanoIface::Mali, 1 << 20).unwrap())
    });
    let bytes = rm.recordings[0].to_bytes();
    c.bench_function("container_decode", |b| {
        b.iter(|| Recording::from_bytes(&bytes).unwrap())
    });
    // A fresh v3d machine plus replayer: DRAM set-up and the nano
    // driver's 64-page flat table, the part of cold start before `load`.
    c.bench_function("replayer_new_v3d", |b| {
        b.iter(|| {
            let machine = Machine::new(&sku::V3D_RPI4, 9);
            Replayer::new(Environment::new(EnvKind::KernelLevel, machine).unwrap())
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut data = vec![0u8; 256 * 1024];
    for (i, b) in data.iter_mut().enumerate() {
        *b = if i % 7 == 0 { (i / 7) as u8 } else { 0 };
    }
    let z = grz_compress(&data);
    c.bench_function("grz_compress_256k", |b| b.iter(|| grz_compress(&data)));
    c.bench_function("grz_decompress_256k", |b| {
        b.iter(|| grz_decompress(&z).unwrap())
    });
}

fn bench_kernels(c: &mut Criterion) {
    use gr_gpu::vm::bytecode::{ActKind, PoolKind};
    use gr_gpu::vm::kernels;
    use std::hint::black_box;
    let x: Vec<f32> = (0..8 * 28 * 28).map(|i| (i as f32 * 0.01).sin()).collect();
    let w: Vec<f32> = (0..16 * 8 * 9).map(|i| (i as f32 * 0.02).cos()).collect();
    c.bench_function("vm_conv2d_8x28x28_to_16", |b| {
        b.iter(|| kernels::conv2d(&x, &w, None, 8, 28, 28, 16, 3, 3, 1, 1, 1, ActKind::Relu))
    });
    // MNIST's 2x2 max pool; shapes go through `black_box` so the kernel
    // is not specialised for constants the VM only knows at run time.
    c.bench_function("pool2d_mnist", |b| {
        b.iter(|| {
            let (ch, h, w, win) = black_box((8, 28, 28, 2));
            kernels::pool2d(&x, ch, h, w, win, win, PoolKind::Max)
        })
    });
    let a: Vec<f32> = (0..128 * 128).map(|i| i as f32 * 1e-4).collect();
    c.bench_function("vm_matmul_128", |b| {
        b.iter(|| kernels::matmul(&a, &a, 128, 128, 128))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_replay, bench_codec, bench_kernels
}
criterion_main!(benches);
