//! Multi-tenant session throughput — N concurrent MJPEG streaming
//! sessions on one shared worker pool, the resident-runtime configuration
//! the session API exists for.
//!
//! Each session thread submits frames through the admission window,
//! receives encoded outputs, and samples resident memory; the bench
//! reports aggregate frames/sec, submit→output frame latency, and the
//! flat-memory gauges (peak resident slabs, peak analyzer live ages, GC
//! retirements). Writes a JSON artifact under `results/` for the
//! `BENCH_sessions.json` trajectory.
//!
//! Usage:
//! `cargo run -p p2g-bench --bin session_throughput --release -- \
//!    [--sessions 8] [--frames 1000] [--width 64] [--height 64] \
//!    [--workers N] [--in-flight 8] [--gc-window 8] [--quick] \
//!    [--adaptive] [--label after] [--out BENCH_sessions.json]`
//!
//! `--adaptive` turns on online chunk-size adaptation.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2g_bench::{arg, has_flag, hwinfo, logical_cpus, write_result};
use p2g_core::prelude::*;
use p2g_mjpeg::{
    build_mjpeg_stream_program, stream_frame_parts, FrameSource, MjpegConfig, SyntheticVideo,
};

struct SessionStats {
    frames: u64,
    dropped: u64,
    peak_resident_ages: usize,
    peak_resident_bytes: usize,
    peak_live_ages: u64,
    gc_ages_collected: u64,
    granularity_changes: u64,
    /// Submit→output latency per frame, nanoseconds.
    lat_ns: Vec<u64>,
    /// Per-kernel body-latency quantiles (name, p50/p95/p99 ns).
    kernel_lat: Vec<(String, u64, u64, u64)>,
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    runtime: &SessionRuntime,
    seed: u64,
    frames: u64,
    width: usize,
    height: usize,
    in_flight: usize,
    gc_window: u64,
    adaptive: bool,
) -> SessionStats {
    let src = SyntheticVideo::new(width, height, frames, seed);
    let sink = SessionSink::new();
    let config = MjpegConfig {
        quality: 75,
        fast_dct: true,
        ..MjpegConfig::default()
    };
    let program = build_mjpeg_stream_program(width, height, config, sink.clone())
        .expect("stream program builds");
    let mut session_config = SessionConfig::new("vlc/write")
        .sink(sink)
        .max_in_flight(in_flight)
        .gc_window(gc_window);
    if adaptive {
        session_config = session_config.with_adaptive(AdaptiveGranularity::default());
    }
    let session = runtime
        .open(program, session_config)
        .expect("session opens");

    let mut submitted_at: Vec<Instant> = Vec::with_capacity(frames as usize);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(frames as usize);
    let mut peak_resident_ages = 0usize;
    let mut peak_resident_bytes = 0usize;
    let mut dropped = 0u64;

    fn note_output(
        out: SessionOutput,
        submitted_at: &[Instant],
        lat_ns: &mut Vec<u64>,
        dropped: &mut u64,
    ) {
        lat_ns.push(submitted_at[out.age as usize].elapsed().as_nanos() as u64);
        if out.dropped() {
            *dropped += 1;
        }
    }
    for n in 0..frames {
        let f = src.frame(n).expect("synthetic frame");
        submitted_at.push(Instant::now());
        session
            .submit(stream_frame_parts(&session, &f))
            .expect("session accepts while open");
        while let Some(out) = session.poll_output() {
            note_output(out, &submitted_at, &mut lat_ns, &mut dropped);
        }
        if n % 32 == 0 {
            peak_resident_ages = peak_resident_ages.max(session.resident_ages());
            peak_resident_bytes = peak_resident_bytes.max(session.bytes_resident());
        }
    }
    while (lat_ns.len() as u64) < frames {
        let out = session
            .recv(Duration::from_secs(60))
            .expect("stream drains within timeout");
        note_output(out, &submitted_at, &mut lat_ns, &mut dropped);
    }
    let report = session
        .finish(Duration::from_secs(60))
        .expect("session finishes cleanly");
    assert_eq!(report.frames_completed, frames);
    let ins = &report.report.instruments;
    let kernel_lat = ins
        .all()
        .iter()
        .filter(|(_, s)| s.instances > 0)
        .map(|(name, _)| {
            let (p50, p95, p99) = ins.latency_quantiles(name).unwrap_or_default();
            (
                name.clone(),
                p50.as_nanos() as u64,
                p95.as_nanos() as u64,
                p99.as_nanos() as u64,
            )
        })
        .collect();
    SessionStats {
        frames,
        dropped,
        peak_resident_ages,
        peak_resident_bytes,
        peak_live_ages: ins.peak_live_ages(),
        gc_ages_collected: ins.gc_ages_collected(),
        granularity_changes: ins.granularity_changes(),
        lat_ns,
        kernel_lat,
    }
}

fn main() {
    let quick = has_flag("--quick");
    let sessions: usize = arg("--sessions", if quick { 4 } else { 8 });
    let frames: u64 = arg("--frames", if quick { 60 } else { 1000 });
    let width: usize = arg("--width", 64);
    let height: usize = arg("--height", 64);
    let workers: usize = arg("--workers", logical_cpus());
    let in_flight: usize = arg("--in-flight", 8);
    let gc_window: u64 = arg("--gc-window", 8);
    let adaptive = has_flag("--adaptive");
    let label: String = arg("--label", "after".to_string());
    let out: String = arg("--out", "BENCH_sessions.json".to_string());

    eprintln!(
        "session_throughput: {sessions} sessions x {frames} frames ({width}x{height}) \
         on {workers} workers, window {in_flight}, gc {gc_window}, \
         adaptive {adaptive}"
    );
    eprintln!("{}", hwinfo());

    let runtime = Arc::new(SessionRuntime::new(workers));
    let t0 = Instant::now();
    let stats: Vec<SessionStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let runtime = &runtime;
                s.spawn(move || {
                    run_session(
                        runtime,
                        0xBEEF + i as u64,
                        frames,
                        width,
                        height,
                        in_flight,
                        gc_window,
                        adaptive,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed();
    runtime.shutdown();

    let frames_total: u64 = stats.iter().map(|s| s.frames).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped).sum();
    let peak_resident_ages = stats.iter().map(|s| s.peak_resident_ages).max().unwrap_or(0);
    let peak_resident_bytes = stats
        .iter()
        .map(|s| s.peak_resident_bytes)
        .max()
        .unwrap_or(0);
    let peak_live_ages = stats.iter().map(|s| s.peak_live_ages).max().unwrap_or(0);
    let gc_collected: u64 = stats.iter().map(|s| s.gc_ages_collected).sum();
    let granularity_changes: u64 = stats.iter().map(|s| s.granularity_changes).sum();
    let fps = frames_total as f64 / elapsed.as_secs_f64();

    // Per-kernel body-latency quantiles: worst (max) across sessions, so
    // the artifact reflects the slowest tenant.
    let mut kernel_lat: Vec<(String, u64, u64, u64)> = Vec::new();
    for s in &stats {
        for (name, p50, p95, p99) in &s.kernel_lat {
            match kernel_lat.iter_mut().find(|(n, ..)| n == name) {
                Some(e) => {
                    e.1 = e.1.max(*p50);
                    e.2 = e.2.max(*p95);
                    e.3 = e.3.max(*p99);
                }
                None => kernel_lat.push((name.clone(), *p50, *p95, *p99)),
            }
        }
    }

    let mut lat: Vec<u64> = stats.iter().flat_map(|s| s.lat_ns.iter().copied()).collect();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    let mean = if lat.is_empty() {
        0
    } else {
        lat.iter().sum::<u64>() / lat.len() as u64
    };

    eprintln!(
        "{frames_total} frames in {:.3}s -> {fps:.1} frames/s; latency mean {}us p50 {}us \
         p99 {}us; peak resident slabs {peak_resident_ages} ({peak_resident_bytes} B), \
         peak live ages {peak_live_ages}, {gc_collected} slabs GCed, {dropped} dropped",
        elapsed.as_secs_f64(),
        mean / 1_000,
        pct(0.50) / 1_000,
        pct(0.99) / 1_000,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"session_throughput\",");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"shape\": \"mjpeg-stream\", \"sessions\": {sessions}, \
         \"frames_per_session\": {frames}, \"width\": {width}, \"height\": {height}, \
         \"workers\": {workers}, \"in_flight\": {in_flight}, \"gc_window\": {gc_window}, \
         \"adaptive\": {adaptive} }},"
    );
    let _ = writeln!(json, "  \"frames_total\": {frames_total},");
    let _ = writeln!(json, "  \"dropped_frames\": {dropped},");
    let _ = writeln!(json, "  \"elapsed_s\": {:.6},", elapsed.as_secs_f64());
    let _ = writeln!(json, "  \"frames_per_sec\": {fps:.1},");
    let _ = writeln!(json, "  \"peak_resident_ages\": {peak_resident_ages},");
    let _ = writeln!(json, "  \"peak_resident_bytes\": {peak_resident_bytes},");
    let _ = writeln!(json, "  \"peak_live_ages\": {peak_live_ages},");
    let _ = writeln!(json, "  \"gc_ages_collected\": {gc_collected},");
    let _ = writeln!(json, "  \"granularity_changes\": {granularity_changes},");
    let _ = writeln!(json, "  \"frame_latency_ns\": {{");
    let _ = writeln!(json, "    \"mean\": {mean},");
    let _ = writeln!(json, "    \"p50\": {},", pct(0.50));
    let _ = writeln!(json, "    \"p99\": {},", pct(0.99));
    let _ = writeln!(json, "    \"max\": {}", lat.last().copied().unwrap_or(0));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernel_latency_ns\": {{");
    for (i, (name, p50, p95, p99)) in kernel_lat.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99} }}{}",
            if i + 1 < kernel_lat.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    write_result(&out, &json);
}
