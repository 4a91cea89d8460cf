//! Shared harness utilities for regenerating the paper's tables and
//! figures: host introspection (Table I), worker-thread sweeps with
//! mean ± standard deviation (Figures 9 and 10), and result persistence
//! under `results/`.

use std::fmt::Write as _;
use std::time::Duration;

/// One measured series: mean and standard deviation per worker count.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    /// (worker threads, mean seconds, stddev seconds)
    pub points: Vec<(usize, f64, f64)>,
}

impl Series {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}\n{:>8} {:>12} {:>12}\n",
            self.label, "threads", "mean (s)", "std (s)"
        );
        for &(t, mean, std) in &self.points {
            let _ = writeln!(s, "{t:>8} {mean:>12.4} {std:>12.4}");
        }
        s
    }

    /// Render as CSV (threads,mean,std).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("threads,mean_s,std_s\n");
        for &(t, mean, std) in &self.points {
            let _ = writeln!(s, "{t},{mean:.6},{std:.6}");
        }
        s
    }
}

/// Mean and standard deviation of durations, in seconds.
fn mean_std(samples: &[Duration]) -> (f64, f64) {
    let xs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Sweep worker thread counts, timing `run(threads)` `iters` times each —
/// the measurement protocol of the paper's Figures 9/10 ("ranging from 1
/// worker thread to 8 worker threads with 10 iterations per worker thread
/// count ... mean running time with standard deviation").
pub fn sweep_workers(
    label: &str,
    threads: impl IntoIterator<Item = usize>,
    iters: usize,
    mut run: impl FnMut(usize) -> Duration,
) -> Series {
    let mut points = Vec::new();
    for t in threads {
        let samples: Vec<Duration> = (0..iters).map(|_| run(t)).collect();
        let (mean, std) = mean_std(&samples);
        eprintln!("  {t} threads: mean {mean:.4}s ± {std:.4}s");
        points.push((t, mean, std));
    }
    Series {
        label: label.to_string(),
        points,
    }
}

/// Host machine description — the role of the paper's Table I.
pub fn hwinfo() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("unknown")
        .trim()
        .to_string();
    let physical: std::collections::HashSet<&str> = cpuinfo
        .lines()
        .filter(|l| l.starts_with("core id"))
        .collect();
    let logical = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
        .max(1);
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kb: u64 = meminfo
        .lines()
        .find(|l| l.starts_with("MemTotal"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let mut s = String::new();
    let _ = writeln!(s, "CPU-name          {model}");
    let _ = writeln!(s, "Physical cores    {}", physical.len().max(1));
    let _ = writeln!(s, "Logical threads   {logical}");
    let _ = writeln!(s, "Memory            {} MB", mem_kb / 1024);
    s
}

/// Number of logical CPUs.
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write a result artifact under `results/` (creating the directory), or
/// verbatim when `name` is an absolute path.
pub fn write_result(name: &str, contents: &str) {
    let path = if std::path::Path::new(name).is_absolute() {
        name.to_string()
    } else {
        std::fs::create_dir_all("results").ok();
        format!("results/{name}")
    };
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Parse `--flag value` style args with a default.
pub fn arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when a bare `--flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let samples = [Duration::from_secs(1), Duration::from_secs(3)];
        let (mean, std) = mean_std(&samples);
        assert!((mean - 2.0).abs() < 1e-9);
        assert!((std - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_rendering() {
        let s = Series {
            label: "test".into(),
            points: vec![(1, 2.0, 0.1), (2, 1.0, 0.05)],
        };
        assert!(s.render().contains("threads"));
        assert!(s.to_csv().starts_with("threads,mean_s,std_s\n1,2.0"));
    }

    #[test]
    fn hwinfo_has_fields() {
        let info = hwinfo();
        assert!(info.contains("CPU-name"));
        assert!(info.contains("Logical threads"));
    }

    #[test]
    fn sweep_collects_all_points() {
        let s = sweep_workers("x", [1, 2], 3, |_| Duration::from_millis(1));
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, m, _)| m > 0.0));
    }
}
