//! Percentiles, medians and the per-block summaries behind `qps`,
//! `lat_p50_us` and `lat_p95_us`.

use std::time::Duration;

/// Blocks the timed phase is split into; the reported figure is the median
/// of the per-block figures, which shrugs off a disturbance that hits one
/// or two blocks.
pub const BLOCKS: usize = 6;

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latencies and busy time of one client, bucketed by block.
#[derive(Debug, Clone)]
pub struct BlockRecorder {
    block_ops: usize,
    /// Query latencies in microseconds, per block.
    latencies_us: Vec<Vec<f64>>,
    /// Time spent inside operations (queries and ingests), per block.
    busy: Vec<Duration>,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// Queries that succeeded within the latency limit.
    pub within_limit: u64,
    limit: Duration,
}

impl BlockRecorder {
    /// `block_ops` operations (queries and ingests alike) make one block.
    pub fn new(block_ops: usize, limit: Duration) -> BlockRecorder {
        BlockRecorder {
            block_ops,
            latencies_us: vec![Vec::new(); BLOCKS],
            busy: vec![Duration::ZERO; BLOCKS],
            failed: 0,
            within_limit: 0,
            limit,
        }
    }

    /// Record timed operation number `index` (0-based, warm-up excluded).
    /// Ingests add busy time but no latency sample.
    pub fn record(&mut self, index: usize, is_query: bool, elapsed: Duration, ok: bool) {
        let block = index / self.block_ops;
        self.busy[block] += elapsed;
        if is_query {
            self.latencies_us[block].push(elapsed.as_secs_f64() * 1e6);
            if ok && elapsed <= self.limit {
                self.within_limit += 1;
            }
        }
        if !ok {
            self.failed += 1;
        }
    }

    pub fn queries(&self) -> usize {
        self.latencies_us.iter().map(Vec::len).sum()
    }
}

/// Per-block figures of a whole run (all clients), and their medians.
#[derive(Debug, Clone)]
pub struct BlockSummary {
    pub qps: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p95_us: Vec<f64>,
    /// Latency samples in the smallest block.
    pub min_block_samples: usize,
}

impl BlockSummary {
    /// Combine the clients' recorders. A block's throughput is the sum of
    /// each client's queries over its own busy time (a closed loop with no
    /// think time, so busy time is the client's wall time minus the
    /// harness's own checking); its percentiles pool every client's samples.
    pub fn from_clients(clients: &[BlockRecorder]) -> BlockSummary {
        let mut summary = BlockSummary {
            qps: Vec::with_capacity(BLOCKS),
            p50_us: Vec::with_capacity(BLOCKS),
            p95_us: Vec::with_capacity(BLOCKS),
            min_block_samples: usize::MAX,
        };
        for block in 0..BLOCKS {
            let mut pooled: Vec<f64> = Vec::new();
            let mut qps = 0.0;
            for c in clients {
                pooled.extend_from_slice(&c.latencies_us[block]);
                qps += c.latencies_us[block].len() as f64 / c.busy[block].as_secs_f64();
            }
            pooled.sort_by(f64::total_cmp);
            summary.qps.push(qps);
            summary.p50_us.push(percentile(&pooled, 0.50));
            summary.p95_us.push(percentile(&pooled, 0.95));
            summary.min_block_samples = summary.min_block_samples.min(pooled.len());
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 20 samples: exactly one sample lies beyond the 95th percentile.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[6.0, 1.0, 4.0, 2.0, 9.0, 3.0]), 3.5);
    }

    #[test]
    fn block_median_ignores_one_disturbed_block() {
        let mut r = BlockRecorder::new(10, Duration::from_millis(5));
        for i in 0..10 * BLOCKS {
            // Block 2 runs ten times slower than the others.
            let ms = if i / 10 == 2 { 10 } else { 1 };
            r.record(i, true, Duration::from_millis(ms), true);
        }
        let s = BlockSummary::from_clients(&[r.clone()]);
        assert_eq!(s.min_block_samples, 10);
        assert!((s.qps[0] - 1000.0).abs() < 1e-6);
        assert!((s.qps[2] - 100.0).abs() < 1e-6);
        assert!((median(&s.qps) - 1000.0).abs() < 1e-6);
        assert_eq!(median(&s.p95_us), 1000.0);
        // The slow block's ten queries missed the 5 ms limit.
        assert_eq!(r.within_limit, 50);
        assert_eq!(r.queries(), 60);
    }

    #[test]
    fn ingests_add_busy_time_but_no_latency_sample() {
        let mut r = BlockRecorder::new(2, Duration::from_secs(1));
        for block in 0..BLOCKS {
            r.record(2 * block, false, Duration::from_millis(9), true);
            r.record(2 * block + 1, true, Duration::from_millis(1), true);
        }
        let s = BlockSummary::from_clients(&[r]);
        assert!((s.qps[0] - 100.0).abs() < 1e-6);
        assert_eq!(s.p50_us[0], 1000.0);
    }
}
