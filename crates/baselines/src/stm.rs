//! The STM baseline: stride-history tables + single-probability operations.
//!
//! STM (*"STM: Cloning the Spatial and Temporal Memory Access Behavior"*,
//! Awad & Solihin, HPCA 2014) predicts the next stride from a history of
//! recent strides. The paper plugs STM into the same 2L-TS hierarchy as
//! McC, replacing only the **address** (stride) and **operation** models
//! (§IV-A): strides come from a pattern table keyed by up to the last 8
//! strides, and the operation is drawn from one read-probability value —
//! which is exactly the weakness Figs. 9–11 expose, since a single
//! probability cannot capture read/write *ordering*.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mocktails_core::partition::hierarchy;
use mocktails_core::{HierarchyConfig, McC, McCSampler};
use mocktails_trace::rng::Prng;
use mocktails_trace::rng::Rng;
use mocktails_trace::{AddrRange, Op, Request, Trace};

/// Maximum stride history STM considers (the paper uses at most the last 8
/// strides for the smaller per-leaf tables).
pub const MAX_HISTORY: usize = 8;

/// A stride pattern table: maps a history of recent strides to a
/// distribution over the next stride, with back-off to shorter histories.
///
/// Stored as a trie over *reversed* histories: the root is the empty
/// history (the order-0 distribution), and the child of a node along
/// stride `s` is that node's history extended one stride further into the
/// past by `s`, so a path from the root spells a history most recent
/// stride first. Each node holds its next-stride distribution, sorted by
/// stride.
///
/// Fitting inserts every context of up to [`MAX_HISTORY`] strides together
/// with all of its shorter suffixes, so the stored histories are closed
/// under taking suffixes. Hence the longest stored suffix of a query
/// history is exactly the deepest node reached by walking the query from
/// its most recent stride, and [`StrideTable::sample`]'s longest-context
/// back-off is one walk down the trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrideTable {
    /// Trie nodes; node 0 is the root (the empty history).
    nodes: Vec<StrideNode>,
    first: i64,
}

/// One history context of a [`StrideTable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct StrideNode {
    /// `(older stride, child node)`, sorted by stride.
    children: Vec<(i64, usize)>,
    /// `(next stride, count)`, sorted by stride.
    next: Vec<(i64, u64)>,
}

impl StrideNode {
    fn child(&self, stride: i64) -> Option<usize> {
        self.children
            .binary_search_by_key(&stride, |&(s, _)| s)
            .ok()
            .map(|i| self.children[i].1)
    }

    fn count(&mut self, stride: i64) {
        match self.next.binary_search_by_key(&stride, |&(s, _)| s) {
            Ok(i) => self.next[i].1 += 1,
            Err(i) => self.next.insert(i, (stride, 1)),
        }
    }
}

impl StrideTable {
    /// Fits the table to an observed stride sequence.
    ///
    /// Returns `None` if there are no strides (single-request leaf).
    pub fn fit(strides: &[i64]) -> Option<Self> {
        let &first = strides.first()?;
        let mut nodes = vec![StrideNode::default()];
        for (i, &stride) in strides.iter().enumerate() {
            nodes[0].count(stride);
            // Contexts strides[i-h..i] for h = 1..=MAX_HISTORY, each one
            // stride longer than the last: walk from the most recent.
            let mut node = 0;
            for &older in strides[i.saturating_sub(MAX_HISTORY)..i].iter().rev() {
                node = match nodes[node].child(older) {
                    Some(child) => child,
                    None => {
                        let child = nodes.len();
                        let children = &mut nodes[node].children;
                        let at = children.partition_point(|&(s, _)| s < older);
                        children.insert(at, (older, child));
                        nodes.push(StrideNode::default());
                        child
                    }
                };
                nodes[node].count(stride);
            }
        }
        Some(Self { nodes, first })
    }

    /// The first observed stride (seeds generation).
    pub fn first(&self) -> i64 {
        self.first
    }

    /// Number of stored history contexts.
    pub fn contexts(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Samples the next stride given the most recent history (most recent
    /// last), backing off from the longest matching context to order 0.
    pub fn sample<R: Rng + ?Sized>(&self, history: &[i64], rng: &mut R) -> i64 {
        let mut node = &self.nodes[0];
        for &stride in history.iter().rev().take(MAX_HISTORY) {
            match node.child(stride) {
                Some(child) => node = &self.nodes[child],
                None => break,
            }
        }
        pick(&node.next, rng)
    }
}

fn pick<R: Rng + ?Sized>(dist: &[(i64, u64)], rng: &mut R) -> i64 {
    let total: u64 = dist.iter().map(|&(_, c)| c).sum();
    debug_assert!(total > 0);
    let mut target = rng.gen_range(0..total);
    for &(v, c) in dist {
        if target < c {
            return v;
        }
        target -= c;
    }
    unreachable!("weighted pick within total")
}

/// STM's leaf model: stride table + read/write counts + McC time and size.
#[derive(Debug, Clone, PartialEq)]
pub struct StmLeaf {
    start_time: u64,
    start_address: u64,
    range: AddrRange,
    count: u64,
    reads: u64,
    writes: u64,
    strides: Option<StrideTable>,
    delta_time: McC,
    size: McC,
}

impl StmLeaf {
    /// Fits an STM leaf to a partition.
    pub fn fit(partition: &mocktails_core::Partition) -> Self {
        let delta_times: Vec<i64> = partition
            .delta_times()
            .into_iter()
            .map(|d| d as i64)
            .collect();
        let reads = partition.iter().filter(|r| r.op.is_read()).count() as u64;
        Self {
            start_time: partition.start_time(),
            start_address: partition.start_address(),
            range: partition.addr_range(),
            count: partition.len() as u64,
            reads,
            writes: partition.len() as u64 - reads,
            strides: StrideTable::fit(&partition.strides()),
            delta_time: McC::fit_or(&delta_times, 0),
            size: McC::fit(&partition.size_states()),
        }
    }

    /// Number of requests this leaf generates.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn generator(&self, strict: bool) -> StmGenerator<'_> {
        StmGenerator {
            leaf: self,
            remaining: self.count,
            reads_left: self.reads,
            writes_left: self.writes,
            time: self.start_time,
            address: self.start_address,
            history: [0; MAX_HISTORY],
            history_len: 0,
            first: true,
            delta_time: self.delta_time.sampler(strict),
            size: self.size.sampler(strict),
        }
    }
}

/// Streaming generator for one STM leaf.
#[derive(Debug)]
struct StmGenerator<'a> {
    leaf: &'a StmLeaf,
    remaining: u64,
    reads_left: u64,
    writes_left: u64,
    time: u64,
    address: u64,
    /// The last `history_len` strides, most recent last.
    history: [i64; MAX_HISTORY],
    history_len: usize,
    first: bool,
    delta_time: McCSampler,
    size: McCSampler,
}

impl StmGenerator<'_> {
    /// Appends `stride` to the history window, dropping the oldest stride
    /// once the window holds [`MAX_HISTORY`].
    fn push_history(&mut self, stride: i64) {
        if self.history_len == MAX_HISTORY {
            self.history.copy_within(1.., 0);
            self.history[MAX_HISTORY - 1] = stride;
        } else {
            self.history[self.history_len] = stride;
            self.history_len += 1;
        }
    }

    fn next_request(&mut self, rng: &mut Prng) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.first {
            self.first = false;
            if let Some(t) = &self.leaf.strides {
                self.push_history(t.first());
            }
        } else {
            let dt = self.delta_time.next_value(rng).max(0) as u64;
            self.time = self.time.saturating_add(dt);
            let stride = match &self.leaf.strides {
                Some(t) => t.sample(&self.history[..self.history_len], rng),
                None => 0,
            };
            self.push_history(stride);
            self.address = self
                .leaf
                .range
                .wrap(self.address.wrapping_add(stride as u64));
        }
        // Operation: one probability value, with strict convergence on the
        // total read/write counts.
        let total = self.reads_left + self.writes_left;
        let op = if total == 0 {
            Op::Read
        } else if rng.gen_range(0..total) < self.reads_left {
            self.reads_left -= 1;
            Op::Read
        } else {
            self.writes_left -= 1;
            Op::Write
        };
        let size = self.size.next_value(rng).clamp(1, i64::from(u32::MAX)) as u32;
        Some(Request::new(self.time, self.address, op, size))
    }
}

/// An STM statistical profile over the same hierarchy as Mocktails.
#[derive(Debug, Clone, PartialEq)]
pub struct StmProfile {
    leaves: Vec<StmLeaf>,
}

impl StmProfile {
    /// Fits STM leaves over the hierarchy described by `config` — the
    /// paper's `2L-TS (STM)` when `config` is
    /// [`HierarchyConfig::two_level_ts`].
    pub fn fit(trace: &Trace, config: &HierarchyConfig) -> Self {
        let leaves = hierarchy::partition(trace, config)
            .iter()
            .map(StmLeaf::fit)
            .collect();
        Self { leaves }
    }

    /// The fitted leaves.
    pub fn leaves(&self) -> &[StmLeaf] {
        &self.leaves
    }

    /// Total requests the profile synthesizes.
    pub fn total_requests(&self) -> u64 {
        self.leaves.iter().map(StmLeaf::count).sum()
    }

    /// Synthesizes a trace by merging all leaf generators through a
    /// timestamp-ordered priority queue (the same §III-C injection process
    /// as Mocktails — only the leaf feature models differ).
    pub fn synthesize(&self, seed: u64) -> Trace {
        let mut rng = Prng::seed_from_u64(seed);
        let mut gens: Vec<StmGenerator> = self.leaves.iter().map(|l| l.generator(true)).collect();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut pending: Vec<Option<Request>> = Vec::with_capacity(gens.len());
        for (i, g) in gens.iter_mut().enumerate() {
            let r = g.next_request(&mut rng);
            if let Some(req) = r {
                heap.push(Reverse((req.timestamp, i)));
            }
            pending.push(r);
        }
        let mut out = Vec::with_capacity(self.total_requests() as usize);
        let mut last_time = 0u64;
        while let Some(Reverse((_, i))) = heap.pop() {
            let mut req = pending[i].take().expect("pending request exists"); // lint: allow(L001, each heap entry indexes its pending slot exactly once)
            req.timestamp = req.timestamp.max(last_time);
            last_time = req.timestamp;
            out.push(req);
            if let Some(next) = gens[i].next_request(&mut rng) {
                heap.push(Reverse((next.timestamp, i)));
                pending[i] = Some(next);
            }
        }
        Trace::from_sorted_requests(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_core::Partition;

    fn mixed_trace() -> Trace {
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            let addr = 0x1000 + (i % 25) * 64;
            let r = if i % 3 == 0 {
                Request::write(i * 10, addr, 64)
            } else {
                Request::read(i * 10, addr, 64)
            };
            reqs.push(r);
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn stride_table_learns_patterns() {
        let strides = [64i64, 64, 64, -128, 64, 64, 64, -128];
        let table = StrideTable::fit(&strides).unwrap();
        assert_eq!(table.first(), 64);
        assert!(table.contexts() > 0);
        // After history [64, 64, 64] the only observed next is -128.
        let mut rng = Prng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(table.sample(&[64, 64, 64], &mut rng), -128);
        }
    }

    #[test]
    fn stride_table_backs_off_on_unseen_history() {
        let strides = [8i64, 64, 64, 64];
        let table = StrideTable::fit(&strides).unwrap();
        let mut rng = Prng::seed_from_u64(1);
        // Unseen long history: must still produce an observed stride.
        let s = table.sample(&[999, 999, 999, 64], &mut rng);
        assert!([8, 64].contains(&s));
    }

    #[test]
    fn stride_table_empty_is_none() {
        assert!(StrideTable::fit(&[]).is_none());
    }

    #[test]
    fn leaf_strict_op_counts() {
        let trace = mixed_trace();
        let part = Partition::new(trace.requests().to_vec());
        let leaf = StmLeaf::fit(&part);
        let mut rng = Prng::seed_from_u64(3);
        let mut g = leaf.generator(true);
        let mut reads = 0;
        let mut writes = 0;
        while let Some(r) = g.next_request(&mut rng) {
            if r.op.is_read() {
                reads += 1;
            } else {
                writes += 1;
            }
        }
        assert_eq!(reads, trace.reads());
        assert_eq!(writes, trace.writes());
    }

    #[test]
    fn profile_synthesis_matches_counts() {
        let trace = mixed_trace();
        let profile = StmProfile::fit(&trace, &HierarchyConfig::two_level_ts(500));
        let synth = profile.synthesize(7);
        assert_eq!(synth.len(), trace.len());
        assert_eq!(synth.reads(), trace.reads());
        assert_eq!(synth.writes(), trace.writes());
    }

    #[test]
    fn synthesis_stays_in_leaf_ranges() {
        let trace = mixed_trace();
        let profile = StmProfile::fit(&trace, &HierarchyConfig::two_level_ts(500));
        let synth = profile.synthesize(11);
        let fp = trace.footprint_range().unwrap();
        for r in synth.iter() {
            assert!(fp.contains(r.address));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let trace = mixed_trace();
        let profile = StmProfile::fit(&trace, &HierarchyConfig::two_level_ts(500));
        assert_eq!(profile.synthesize(5), profile.synthesize(5));
    }

    #[test]
    fn timestamps_monotonic() {
        let trace = mixed_trace();
        let profile = StmProfile::fit(&trace, &HierarchyConfig::two_level_ts(300));
        let synth = profile.synthesize(2);
        assert!(synth
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn stm_loses_op_ordering_but_not_counts() {
        // Perfectly alternating R/W: McC captures the order, STM's single
        // probability cannot — but the counts still converge.
        let reqs: Vec<Request> = (0..100u64)
            .map(|i| {
                if i % 2 == 0 {
                    Request::read(i, 0x1000 + (i % 16) * 64, 64)
                } else {
                    Request::write(i, 0x1000 + (i % 16) * 64, 64)
                }
            })
            .collect();
        let trace = Trace::from_requests(reqs);
        let profile = StmProfile::fit(&trace, &HierarchyConfig::two_level_ts(1_000_000));
        let synth = profile.synthesize(13);
        assert_eq!(synth.reads(), 50);
        assert_eq!(synth.writes(), 50);
        // Ordering is (almost surely) not perfectly alternating.
        let alternations = synth
            .requests()
            .windows(2)
            .filter(|w| w[0].op != w[1].op)
            .count();
        assert!(alternations < 99, "STM should scramble the op sequence");
    }
}
