//! Order statistics and the open-loop latency book.

/// Sort a sample in place (total order; the ledger never records NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// The `q`-quantile of an ascending sample by the nearest-rank rule.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The percentile rule: the highest percentile not above `want` that still
/// has at least ten samples beyond it, and never below the median. A tail
/// percentile read off fewer than ten samples is one outlier, not a
/// statistic.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    let want_rank = (want * n as f64).ceil() as usize;
    if n - want_rank >= 10 {
        want
    } else {
        ((n - 10) as f64 / n as f64).max(0.5)
    }
}

/// A timing sample reduced to what the ledger reports: the median, the
/// high percentile the sample supports, and how many samples there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile actually reported as "high" (≤ the one asked for).
    pub hi_pct: f64,
    pub hi: f64,
}

pub fn summarize(samples: &[f64], want_hi: f64) -> Summary {
    let mut s = samples.to_vec();
    sort(&mut s);
    let hi_pct = supported_percentile(s.len(), want_hi);
    Summary {
        n: s.len(),
        p50: median(&s),
        hi_pct,
        hi: quantile(&s, hi_pct),
    }
}

/// Latency bookkeeping for one generated stream. Every frame has a *due*
/// time; latency runs from due to output and lateness from due to the
/// moment the generator actually started the submit. In an open loop the
/// due times are a fixed schedule, so a stall (full window, slow consumer)
/// is charged to every frame that fell due during it — the frames an
/// independent source would have produced regardless. In a closed loop
/// the caller passes the submit time itself as the due time.
#[derive(Debug, Default)]
pub struct LatencyBook {
    due_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
}

impl LatencyBook {
    /// The open-loop schedule: frame `i` of a stream that started at
    /// `start_ns` with `period_ns` between frames.
    pub fn due_at(start_ns: u64, period_ns: u64, i: u64) -> u64 {
        start_ns + i * period_ns
    }

    /// Record that the frame due at `due_ns` began its submit at `now_ns`.
    /// Frames are recorded in submit order, which is age order.
    pub fn submitting(&mut self, due_ns: u64, now_ns: u64) {
        self.due_ns.push(due_ns);
        self.late_ns.push(now_ns.saturating_sub(due_ns));
    }

    /// Record the output of the `nth` submitted frame arriving at `now_ns`.
    /// Returns false for an output that matches no recorded submit.
    pub fn received(&mut self, nth: usize, now_ns: u64) -> bool {
        match self.due_ns.get(nth) {
            Some(&due) => {
                self.latency_ns.push(now_ns.saturating_sub(due));
                true
            }
            None => false,
        }
    }

    pub fn submitted(&self) -> usize {
        self.due_ns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(7, 0.95), 0.5);
        assert_eq!(supported_percentile(19, 0.95), 0.5);
        // 22 samples: rank 12 leaves exactly ten beyond.
        let q = supported_percentile(22, 0.95);
        assert!((q - 12.0 / 22.0).abs() < 1e-12);
        // p95 needs 200 samples to have ten beyond it.
        assert!(supported_percentile(199, 0.95) < 0.95);
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        assert_eq!(supported_percentile(2400, 0.95), 0.95);
        // Never above what was asked for.
        assert_eq!(supported_percentile(1_000_000, 0.5), 0.5);
    }

    #[test]
    fn summary_reads_the_supported_percentile() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&samples, 0.95);
        assert_eq!(s.n, 40);
        assert_eq!(s.p50, 20.5);
        assert_eq!(s.hi_pct, 0.75);
        assert_eq!(s.hi, 30.0); // ten samples (31..=40) lie beyond it
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.75), 3.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_later_frames() {
        // 10 ns cadence. Frame 0 goes out on time and returns at 35: the
        // consumer stalled, the window (1) stayed full, and frames 1..=3
        // fell due at 10, 20, 30 while the generator sat blocked. They go
        // out back to back afterwards and each takes 5 ns to process.
        let mut book = LatencyBook::default();
        book.submitting(LatencyBook::due_at(0, 10, 0), 0);
        book.received(0, 35);
        for (i, (submit, output)) in [(35, 40), (40, 45), (45, 50)].into_iter().enumerate() {
            let i = i as u64 + 1;
            book.submitting(LatencyBook::due_at(0, 10, i), submit);
            assert!(book.received(i as usize, output));
        }
        // From due time, not from the late submit: 40-10, 45-20, 50-30.
        assert_eq!(book.latency_ns, vec![35, 30, 25, 20]);
        // Submit-to-output would have read 5 for each and hidden the stall.
        assert_eq!(book.late_ns, vec![0, 25, 20, 15]);
        assert!(
            !book.received(9, 60),
            "an output without a submit is an error"
        );
    }
}
