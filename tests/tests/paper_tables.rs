//! Reproduction of the paper's structural claims at test scale: the
//! instance-count formulas behind Tables II and III, and the workload
//! properties the evaluation section states.

use p2g_core::prelude::*;
use std::sync::Arc;

/// Table II's instance-count structure: yDCT = luma blocks × frames,
/// uDCT = vDCT = chroma blocks × frames, read = frames + 1 (the final
/// instance hits end-of-stream: "only 50 frames are encoded, because the
/// last instance reaches the end of the video stream"), vlc = frames.
#[test]
fn table2_instance_formulas_hold() {
    use p2g_mjpeg::{build_mjpeg_program, MjpegConfig, SyntheticVideo};

    let frames = 3u64;
    // 64x32 → (64/8)*(32/8) = 32 luma, (64/16)*(32/16) = 8 chroma blocks.
    let src = SyntheticVideo::new(64, 32, frames, 1);
    let config = MjpegConfig {
        quality: 75,
        max_frames: frames,
        fast_dct: true,
        dct_chunk: 1,
        ..MjpegConfig::default()
    };
    let (program, _) = build_mjpeg_program(Arc::new(src), config).unwrap();
    let report = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(frames + 1))
        .and_then(|n| n.wait())
        .unwrap();
    let ins = &report.instruments;

    assert_eq!(ins.kernel("init").unwrap().instances, 1);
    assert_eq!(ins.kernel("read/splityuv").unwrap().instances, frames + 1);
    assert_eq!(ins.kernel("yDCT").unwrap().instances, 32 * frames);
    assert_eq!(ins.kernel("uDCT").unwrap().instances, 8 * frames);
    assert_eq!(ins.kernel("vDCT").unwrap().instances, 8 * frames);
    assert_eq!(ins.kernel("vlc/write").unwrap().instances, frames);
}

/// Table II's headline observation: DCT kernel time dominates dispatch
/// overhead for MJPEG ("time spent in kernel code is considerably higher
/// compared to the dispatch overhead").
#[test]
fn table2_dct_kernel_time_dominates_dispatch() {
    use p2g_mjpeg::{build_mjpeg_program, MjpegConfig, SyntheticVideo};

    let src = SyntheticVideo::new(96, 96, 2, 2);
    let config = MjpegConfig {
        quality: 75,
        max_frames: 2,
        fast_dct: false, // naive DCT, as the paper measures
        dct_chunk: 1,
        ..MjpegConfig::default()
    };
    let (program, _) = build_mjpeg_program(Arc::new(src), config).unwrap();
    let report = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(3))
        .and_then(|n| n.wait())
        .unwrap();
    let ydct = report.instruments.kernel("yDCT").unwrap();
    assert!(
        ydct.kernel_time > ydct.dispatch_time,
        "naive DCT work ({:?}) must dominate dispatch ({:?})",
        ydct.kernel_time,
        ydct.dispatch_time
    );
}

/// Table III's instance-count structure: assign = n × iterations,
/// refine = k × iterations, init = 1, print = iterations.
#[test]
fn table3_instance_formulas_hold() {
    use p2g_kmeans::{build_kmeans_program, KmeansConfig};

    let config = KmeansConfig {
        n: 120,
        k: 6,
        dim: 2,
        iterations: 5,
        seed: 3,
        assign_chunk: 1,
    };
    let (program, _) = build_kmeans_program(&config).unwrap();
    let report = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(config.iterations))
        .and_then(|n| n.wait())
        .unwrap();
    let ins = &report.instruments;
    assert_eq!(ins.kernel("init").unwrap().instances, 1);
    assert_eq!(ins.kernel("assign").unwrap().instances, 120 * 5);
    assert_eq!(ins.kernel("refine").unwrap().instances, 6 * 5);
    assert_eq!(ins.kernel("print").unwrap().instances, 5);
}

/// Table III's headline observation: the assign kernel is fine-grained —
/// dispatch overhead is comparable to kernel time (4.07 µs vs 6.95 µs in
/// the paper), unlike MJPEG's DCT. We assert the *ratio* property: assign's
/// dispatch/kernel ratio far exceeds yDCT's.
#[test]
fn table3_assign_granularity_vs_dct() {
    use p2g_kmeans::{build_kmeans_program, KmeansConfig};
    use p2g_mjpeg::{build_mjpeg_program, MjpegConfig, SyntheticVideo};

    let kconfig = KmeansConfig {
        n: 400,
        k: 10,
        dim: 2,
        iterations: 4,
        seed: 3,
        assign_chunk: 1,
    };
    let (kprogram, _) = build_kmeans_program(&kconfig).unwrap();
    let kreport = NodeBuilder::new(kprogram)
        .workers(2)
        .launch(RunLimits::ages(kconfig.iterations))
        .and_then(|n| n.wait())
        .unwrap();
    let assign = kreport.instruments.kernel("assign").unwrap();

    let src = SyntheticVideo::new(64, 64, 2, 2);
    let mconfig = MjpegConfig {
        quality: 75,
        max_frames: 2,
        fast_dct: false,
        dct_chunk: 1,
        ..MjpegConfig::default()
    };
    let (mprogram, _) = build_mjpeg_program(Arc::new(src), mconfig).unwrap();
    let mreport = NodeBuilder::new(mprogram)
        .workers(2)
        .launch(RunLimits::ages(3))
        .and_then(|n| n.wait())
        .unwrap();
    let ydct = mreport.instruments.kernel("yDCT").unwrap();

    let assign_ratio = assign.dispatch_us() / assign.kernel_us().max(1e-6);
    let dct_ratio = ydct.dispatch_us() / ydct.kernel_us().max(1e-6);
    assert!(
        assign_ratio > dct_ratio,
        "assign dispatch/kernel ratio ({assign_ratio:.2}) must exceed yDCT's ({dct_ratio:.2})"
    );
}

/// The K-means inertia decreases across the iterations of a P2G run —
/// the algorithm actually converges, not just executes.
#[test]
fn kmeans_converges_under_p2g() {
    use p2g_kmeans::{build_kmeans_program, KmeansConfig};

    let config = KmeansConfig {
        n: 300,
        k: 10,
        dim: 2,
        iterations: 8,
        seed: 21,
        assign_chunk: 1,
    };
    let (program, result) = build_kmeans_program(&config).unwrap();
    NodeBuilder::new(program)
        .workers(4)
        .launch(RunLimits::ages(config.iterations))
        .and_then(|n| n.wait())
        .unwrap();
    let log = result.inertia_log();
    assert_eq!(log.len(), 8);
    for w in log.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "inertia must not increase: {w:?}");
    }
    assert!(log[7] < log[0], "inertia must strictly improve overall");
}

/// The analyzer's accounting walk scales with the instances a store
/// affects, not the elements it writes (the paper's sub-field granularity,
/// §V-C): a CIF frame stores ≈ 304k elements across its input and result
/// planes, but feeds only 2376 DCT instances, and the walk takes at most
/// about four steps per instance. A K-means point assignment costs one
/// step for its stored element and one for its instance's `points` row,
/// plus a share of the dataset's and the centroids' rows: at most 2.5 per
/// item.
#[test]
fn analyzer_walk_scales_with_instances() {
    use p2g_kmeans::{build_kmeans_program, KmeansConfig};
    use p2g_mjpeg::{build_mjpeg_program, MjpegConfig, SyntheticVideo};

    let frames = 2u64;
    let src = SyntheticVideo::new(352, 288, frames, 1);
    let config = MjpegConfig {
        quality: 75,
        max_frames: frames,
        fast_dct: true,
        dct_chunk: 1,
        ..MjpegConfig::default()
    };
    let (program, _) = build_mjpeg_program(Arc::new(src), config).unwrap();
    let report = NodeBuilder::new(program)
        .workers(1)
        .launch(RunLimits::ages(frames + 1))
        .and_then(|n| n.wait())
        .unwrap();
    let per_frame = report.instruments.analyzer_elements_walked() / frames;
    assert!(
        per_frame <= 9_500,
        "{per_frame} walk steps per CIF frame for 2376 DCT instances"
    );

    let kconfig = KmeansConfig {
        n: 400,
        k: 10,
        dim: 2,
        iterations: 4,
        seed: 3,
        assign_chunk: 1,
    };
    let (kprogram, _) = build_kmeans_program(&kconfig).unwrap();
    let kreport = NodeBuilder::new(kprogram)
        .workers(1)
        .launch(RunLimits::ages(kconfig.iterations))
        .and_then(|n| n.wait())
        .unwrap();
    let items = (kconfig.n as u64) * kconfig.iterations;
    let walked = kreport.instruments.analyzer_elements_walked();
    assert!(
        walked * 2 <= items * 5,
        "{walked} walk steps for {items} K-means point assignments"
    );
}
