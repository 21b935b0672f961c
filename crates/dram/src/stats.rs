//! Metric collection for the memory system.

use mocktails_trace::Op;

/// A bounded histogram of non-negative integer observations.
///
/// Used for the queue-length-seen-per-request distributions of Fig. 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with bins `0..=max`.
    pub fn new(max: usize) -> Self {
        Self {
            counts: vec![0; max + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation (clamped to the last bin).
    pub fn record(&mut self, value: usize) {
        let idx = value.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u64;
    }

    /// Count per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

/// Per-injecting-device counters (SoC runs tag each request with a port).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Read bursts serviced for this port.
    pub read_bursts: u64,
    /// Write bursts serviced for this port.
    pub write_bursts: u64,
    /// Sum of burst latencies for this port.
    pub latency_sum: u64,
}

impl PortStats {
    /// Mean burst latency for this port (0 with no bursts).
    pub fn avg_latency(&self) -> f64 {
        let bursts = self.read_bursts + self.write_bursts;
        if bursts == 0 {
            0.0
        } else {
            self.latency_sum as f64 / bursts as f64
        }
    }
}

/// Metrics collected by one memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// Read bursts serviced.
    pub read_bursts: u64,
    /// Write bursts serviced.
    pub write_bursts: u64,
    /// Read bursts serviced per bank.
    pub read_bursts_per_bank: Vec<u64>,
    /// Write bursts serviced per bank.
    pub write_bursts_per_bank: Vec<u64>,
    /// Read row hits / misses.
    pub read_row_hits: u64,
    /// Read row misses (activations or conflicts).
    pub read_row_misses: u64,
    /// Write row hits.
    pub write_row_hits: u64,
    /// Write row misses.
    pub write_row_misses: u64,
    /// Read-queue length seen by each arriving read burst.
    pub read_queue_seen: Histogram,
    /// Write-queue length seen by each arriving write burst.
    pub write_queue_seen: Histogram,
    /// Reads serviced before each read→write switch.
    pub turnarounds: Vec<u64>,
    /// Sum of read burst latencies (completion − injection).
    pub read_latency_sum: u64,
    /// Sum of write burst latencies.
    pub write_latency_sum: u64,
    /// Per-port counters, keyed by the injecting device's port id.
    pub ports: std::collections::BTreeMap<u16, PortStats>,
    /// All-bank refreshes performed (tREFI cadence).
    pub refreshes: u64,
}

impl ChannelStats {
    pub(crate) fn new(banks: usize, read_queue: usize, write_queue: usize) -> Self {
        Self {
            read_bursts: 0,
            write_bursts: 0,
            read_bursts_per_bank: vec![0; banks],
            write_bursts_per_bank: vec![0; banks],
            read_row_hits: 0,
            read_row_misses: 0,
            write_row_hits: 0,
            write_row_misses: 0,
            read_queue_seen: Histogram::new(read_queue),
            write_queue_seen: Histogram::new(write_queue),
            turnarounds: Vec::new(),
            read_latency_sum: 0,
            write_latency_sum: 0,
            ports: std::collections::BTreeMap::new(),
            refreshes: 0,
        }
    }

    pub(crate) fn observe_queues(&mut self, op: Op, read_len: usize, write_len: usize) {
        match op {
            Op::Read => self.read_queue_seen.record(read_len),
            Op::Write => self.write_queue_seen.record(write_len),
        }
    }

    pub(crate) fn record_turnaround(&mut self, reads: u64) {
        self.turnarounds.push(reads);
    }

    pub(crate) fn record_service(&mut self, op: Op, bank: usize, row_hit: bool, latency: u64) {
        match op {
            Op::Read => {
                self.read_bursts += 1;
                self.read_bursts_per_bank[bank] += 1;
                if row_hit {
                    self.read_row_hits += 1;
                } else {
                    self.read_row_misses += 1;
                }
                self.read_latency_sum += latency;
            }
            Op::Write => {
                self.write_bursts += 1;
                self.write_bursts_per_bank[bank] += 1;
                if row_hit {
                    self.write_row_hits += 1;
                } else {
                    self.write_row_misses += 1;
                }
                self.write_latency_sum += latency;
            }
        }
    }

    /// Mean reads per read→write turnaround (0 when no switch occurred).
    pub fn avg_reads_per_turnaround(&self) -> f64 {
        if self.turnarounds.is_empty() {
            0.0
        } else {
            self.turnarounds.iter().sum::<u64>() as f64 / self.turnarounds.len() as f64
        }
    }
}

/// Metrics for the whole memory system (one [`ChannelStats`] per channel).
#[derive(Debug, Clone, PartialEq)]
pub struct DramStats {
    channels: Vec<ChannelStats>,
    /// Total injector stall cycles caused by full queues.
    pub stall_cycles: u64,
}

impl DramStats {
    pub(crate) fn new(channels: Vec<ChannelStats>, stall_cycles: u64) -> Self {
        Self {
            channels,
            stall_cycles,
        }
    }

    /// Per-channel statistics.
    pub fn channels(&self) -> &[ChannelStats] {
        &self.channels
    }

    /// Total read bursts across channels (Fig. 6).
    pub fn total_read_bursts(&self) -> u64 {
        self.channels.iter().map(|c| c.read_bursts).sum()
    }

    /// Total write bursts across channels (Fig. 6).
    pub fn total_write_bursts(&self) -> u64 {
        self.channels.iter().map(|c| c.write_bursts).sum()
    }

    /// Total read row hits (Figs. 9–10).
    pub fn total_read_row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.read_row_hits).sum()
    }

    /// Total write row hits (Figs. 9–10).
    pub fn total_write_row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.write_row_hits).sum()
    }

    /// Mean read-queue length observed by arriving reads (Fig. 7).
    pub fn avg_read_queue_len(&self) -> f64 {
        weighted_mean(
            self.channels
                .iter()
                .map(|c| (c.read_queue_seen.mean(), c.read_queue_seen.total())),
        )
    }

    /// Mean write-queue length observed by arriving writes (Fig. 7).
    pub fn avg_write_queue_len(&self) -> f64 {
        weighted_mean(
            self.channels
                .iter()
                .map(|c| (c.write_queue_seen.mean(), c.write_queue_seen.total())),
        )
    }

    /// Mean burst latency, reads and writes combined (Fig. 13).
    pub fn avg_access_latency(&self) -> f64 {
        let bursts: u64 = self.total_read_bursts() + self.total_write_bursts();
        if bursts == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .channels
            .iter()
            .map(|c| c.read_latency_sum + c.write_latency_sum)
            .sum();
        sum as f64 / bursts as f64
    }

    /// Aggregated per-port counters across channels (empty for untagged
    /// runs, which use port 0 throughout).
    pub fn port_stats(&self) -> std::collections::BTreeMap<u16, PortStats> {
        let mut out: std::collections::BTreeMap<u16, PortStats> = Default::default();
        for ch in &self.channels {
            for (&port, s) in &ch.ports {
                let agg = out.entry(port).or_default();
                agg.read_bursts += s.read_bursts;
                agg.write_bursts += s.write_bursts;
                agg.latency_sum += s.latency_sum;
            }
        }
        out
    }

    /// Mean read latency in cycles.
    pub fn avg_read_latency(&self) -> f64 {
        let bursts = self.total_read_bursts();
        if bursts == 0 {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.read_latency_sum)
            .sum::<u64>() as f64
            / bursts as f64
    }
}

fn weighted_mean(parts: impl Iterator<Item = (f64, u64)>) -> f64 {
    let mut sum = 0.0;
    let mut weight = 0u64;
    for (mean, w) in parts {
        sum += mean * w as f64;
        weight += w;
    }
    if weight == 0 {
        0.0
    } else {
        sum / weight as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(4);
        for v in [0, 1, 1, 2, 10] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 0, 1]); // 10 clamps into the last bin
        assert_eq!(h.total(), 5);
        assert_eq!(h.mean(), 14.0 / 5.0);
    }

    #[test]
    fn histogram_empty_mean_is_zero() {
        assert_eq!(Histogram::new(4).mean(), 0.0);
    }

    #[test]
    fn channel_stats_record_per_bank() {
        let mut s = ChannelStats::new(8, 32, 64);
        s.record_service(Op::Read, 3, true, 10);
        s.record_service(Op::Write, 3, false, 20);
        s.record_service(Op::Read, 0, false, 30);
        assert_eq!(s.read_bursts, 2);
        assert_eq!(s.write_bursts, 1);
        assert_eq!(s.read_bursts_per_bank[3], 1);
        assert_eq!(s.write_bursts_per_bank[3], 1);
        assert_eq!(s.read_row_hits, 1);
        assert_eq!(s.read_row_misses, 1);
        assert_eq!(s.write_row_misses, 1);
        assert_eq!(s.read_latency_sum, 40);
    }

    #[test]
    fn turnaround_average() {
        let mut s = ChannelStats::new(1, 1, 1);
        assert_eq!(s.avg_reads_per_turnaround(), 0.0);
        s.record_turnaround(10);
        s.record_turnaround(20);
        assert_eq!(s.avg_reads_per_turnaround(), 15.0);
    }

    #[test]
    fn dram_stats_aggregate() {
        let mut a = ChannelStats::new(2, 4, 4);
        a.record_service(Op::Read, 0, true, 100);
        let mut b = ChannelStats::new(2, 4, 4);
        b.record_service(Op::Read, 1, false, 200);
        b.record_service(Op::Write, 1, true, 50);
        let stats = DramStats::new(vec![a, b], 7);
        assert_eq!(stats.total_read_bursts(), 2);
        assert_eq!(stats.total_write_bursts(), 1);
        assert_eq!(stats.total_read_row_hits(), 1);
        assert_eq!(stats.total_write_row_hits(), 1);
        assert_eq!(stats.avg_read_latency(), 150.0);
        assert!((stats.avg_access_latency() - 350.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.stall_cycles, 7);
    }

    #[test]
    fn queue_means_weighted_across_channels() {
        let mut a = ChannelStats::new(1, 8, 8);
        a.observe_queues(Op::Read, 4, 0);
        let mut b = ChannelStats::new(1, 8, 8);
        b.observe_queues(Op::Read, 2, 0);
        b.observe_queues(Op::Read, 2, 0);
        b.observe_queues(Op::Read, 2, 0);
        let stats = DramStats::new(vec![a, b], 0);
        assert!((stats.avg_read_queue_len() - 2.5).abs() < 1e-9);
        assert_eq!(stats.avg_write_queue_len(), 0.0);
    }
}
