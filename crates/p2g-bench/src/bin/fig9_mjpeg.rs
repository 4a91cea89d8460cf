//! Figure 9 — Motion JPEG workload execution time vs worker threads.
//!
//! Protocol (paper Section VIII): encode the test sequence (Foreman CIF,
//! 50 frames — here the synthetic Foreman-like substitute documented in
//! DESIGN.md), sweeping 1..=8 worker threads with 10 iterations per count,
//! reporting mean ± standard deviation, plus the standalone single-threaded
//! encoder as the baseline reference.
//!
//! Defaults are scaled down so the bench completes quickly on small hosts;
//! reproduce the paper-scale run with:
//! `cargo run -p p2g-bench --bin fig9_mjpeg --release -- --frames 50 --iters 10 --max-threads 8`
//!
//! `--fast-dct` switches the DCT bodies to the SIMD AAN path,
//! `--dct-chunk N` chunks DCT instances and `--adaptive` lets the
//! runtime adapt chunk sizes online — together the "after" configuration
//! of the kernel-body optimisation.

use std::sync::Arc;
use std::time::Instant;

use p2g_bench::{arg, has_flag, hwinfo, logical_cpus, sweep_workers, write_result};
use p2g_core::prelude::*;
use p2g_mjpeg::{build_mjpeg_program, encode_standalone, MjpegConfig, SyntheticVideo};

fn main() {
    let frames: u64 = arg("--frames", 12);
    let iters: usize = arg("--iters", 5);
    let max_threads: usize = arg("--max-threads", 8);
    let quality: u8 = arg("--quality", 75);
    let fast_dct = has_flag("--fast-dct");
    let dct_chunk: usize = arg("--dct-chunk", 1);
    let adaptive = has_flag("--adaptive");

    let mut out = String::new();
    out.push_str("Figure 9 — Workload execution time for Motion JPEG\n");
    out.push_str("==================================================\n");
    out.push_str(&format!(
        "synthetic Foreman-like CIF (352x288), {frames} frames, quality {quality}, \
         {} DCT, chunk {dct_chunk}, adaptive {adaptive}\n",
        if fast_dct { "SIMD AAN" } else { "naive" },
    ));
    out.push_str(&format!(
        "host ({} logical CPUs):\n{}\n",
        logical_cpus(),
        hwinfo()
    ));

    // Baseline: the standalone single-threaded encoder (paper: 19 s on the
    // Core i7, 30 s on the Opteron at 50 frames).
    let source = SyntheticVideo::foreman_like(frames);
    let t0 = Instant::now();
    let stream = encode_standalone(&source, quality, frames, fast_dct);
    let baseline = t0.elapsed();
    out.push_str(&format!(
        "standalone single-threaded encoder: {:.4} s ({} bytes)\n\n",
        baseline.as_secs_f64(),
        stream.len()
    ));

    let series = sweep_workers("P2G MJPEG", 1..=max_threads, iters, |threads| {
        let source = Arc::new(SyntheticVideo::foreman_like(frames));
        let config = MjpegConfig {
            quality,
            max_frames: frames,
            fast_dct,
            dct_chunk,
            ..MjpegConfig::default()
        };
        let (program, sink) = build_mjpeg_program(source, config).expect("valid program");
        let node = NodeBuilder::new(program).workers(threads);
        // --trace measures the sweep with structured tracing enabled.
        let mut limits = RunLimits::ages(frames + 1).with_gc_window(4);
        if has_flag("--trace") {
            limits = limits.with_trace();
        }
        if adaptive {
            limits = limits.with_adaptive(AdaptiveGranularity::default());
        }
        let t0 = Instant::now();
        node.launch(limits).and_then(|n| n.wait()).expect("run succeeds");
        let dt = t0.elapsed();
        assert!(!sink.take().is_empty());
        dt
    });

    out.push_str(&series.render());
    out.push_str("\npaper reference shape: near-linear scaling 1->7 threads; the 8th\n");
    out.push_str("thread shares a core with the dedicated dependency analyzer and\n");
    out.push_str("flattens. On hosts with fewer cores than threads the curve flattens\n");
    out.push_str("at the core count (see EXPERIMENTS.md).\n");

    print!("{out}");
    let out_name: String = arg("--out", "fig9_mjpeg.txt".to_string());
    let csv_name: String = arg("--out-csv", "fig9_mjpeg.csv".to_string());
    write_result(&out_name, &out);
    write_result(&csv_name, &series.to_csv());
}
