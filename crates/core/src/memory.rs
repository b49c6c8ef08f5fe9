//! Inter-partition memory accounting.
//!
//! Two related measures, both in board-memory words:
//!
//! * [`boundary_words`] — data live *across* each partition boundary
//!   (the quantity bounded by `M_max` in the ILP's Equation 3);
//! * [`per_partition_words`] — the paper's per-partition `m_i_temp`
//!   (§2.2/§4 accounting: data read into plus written out of partition `i`
//!   for one computation), which sizes the loop-fission memory blocks;
//!   [`partition_io`] splits it by direction for the host interface.

use crate::partitioning::{MemoryMode, Partitioning};
use sparcs_dfg::TaskGraph;

/// Words stored across each boundary `b` (between partitions `b` and `b+1`);
/// the returned vector has `N − 1` entries.
///
/// With [`MemoryMode::Edge`] each edge `t1 → t2` whose endpoints straddle the
/// boundary contributes `B(t1, t2)`; with [`MemoryMode::Net`] each *producer*
/// with at least one consumer beyond the boundary contributes its
/// `output_words` once.
pub fn boundary_words(g: &TaskGraph, part: &Partitioning, mode: MemoryMode) -> Vec<u64> {
    let n = part.partition_count();
    if n <= 1 {
        return Vec::new();
    }
    let mut out = vec![0u64; (n - 1) as usize];
    match mode {
        MemoryMode::Edge => {
            for e in g.edges() {
                let ps = part.partition_of(e.src).0;
                let pd = part.partition_of(e.dst).0;
                for b in ps..pd {
                    out[b as usize] += e.words;
                }
            }
        }
        MemoryMode::Net => {
            for (t, task) in g.tasks() {
                let ps = part.partition_of(t).0;
                let max_consumer = g
                    .successors(t)
                    .map(|s| part.partition_of(s).0)
                    .max()
                    .unwrap_or(ps);
                for b in ps..max_consumer {
                    out[b as usize] += task.output_words;
                }
            }
        }
    }
    out
}

/// One partition's per-computation word traffic, split by direction and
/// origin. `env_in + cross_in + cross_out + env_out` is the paper's
/// `m_i_temp` ([`per_partition_words`]); the directional split is what an
/// executable host interface needs (how many words the host stages in, how
/// many it reads back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionIo {
    /// Environment-input words consumed by this partition.
    pub env_in: u64,
    /// Words crossing in from other partitions.
    pub cross_in: u64,
    /// Words this partition produces for other partitions.
    pub cross_out: u64,
    /// Environment-output words this partition produces.
    pub env_out: u64,
}

impl PartitionIo {
    /// Words the host stages into this partition per computation.
    pub fn input_words(&self) -> u64 {
        self.env_in + self.cross_in
    }

    /// Words this partition writes back per computation.
    pub fn output_words(&self) -> u64 {
        self.cross_out + self.env_out
    }

    /// The paper's `m_i_temp` contribution: everything moved.
    pub fn total_words(&self) -> u64 {
        self.input_words() + self.output_words()
    }
}

/// Per-partition word traffic split by direction and origin — the
/// directional refinement of [`per_partition_words`] (which sums each
/// entry's four fields).
pub fn partition_io(g: &TaskGraph, part: &Partitioning) -> Vec<PartitionIo> {
    let n = part.partition_count() as usize;
    let mut io = vec![PartitionIo::default(); n];

    // Environment inputs: counted in every partition that consumes the port.
    for (_, port) in g.env_inputs() {
        let mut parts: Vec<u32> = port.tasks.iter().map(|&t| part.partition_of(t).0).collect();
        parts.sort_unstable();
        parts.dedup();
        for p in parts {
            io[p as usize].env_in += port.words;
        }
    }
    // Environment outputs: counted in every partition that produces the port.
    for (_, port) in g.env_outputs() {
        let mut parts: Vec<u32> = port.tasks.iter().map(|&t| part.partition_of(t).0).collect();
        parts.sort_unstable();
        parts.dedup();
        for p in parts {
            io[p as usize].env_out += port.words;
        }
    }
    // Inter-task values (net semantics: one stored copy per producer). A
    // consuming partition reads at most the producer's full value, and at
    // most the sum of the edge payloads actually entering it.
    for (t, task) in g.tasks() {
        let ps = part.partition_of(t).0 as usize;
        let mut words_into: Vec<(u32, u64)> = Vec::new();
        for e in g.out_edges(t) {
            let pd = part.partition_of(e.dst).0;
            if pd as usize == ps {
                continue;
            }
            match words_into.iter_mut().find(|(p, _)| *p == pd) {
                Some((_, w)) => *w += e.words,
                None => words_into.push((pd, e.words)),
            }
        }
        if !words_into.is_empty() {
            io[ps].cross_out += task.output_words;
            for (p, w) in words_into {
                io[p as usize].cross_in += w.min(task.output_words);
            }
        }
    }
    io
}

/// The paper's per-partition intermediate memory `m_i_temp`: for each
/// partition, words read in (environment inputs consumed there plus
/// values crossing in from earlier partitions) plus words written out
/// (values crossing to later partitions plus environment outputs).
///
/// For the DCT case study this reproduces the paper's `(32, 16, 16)`.
pub fn per_partition_words(g: &TaskGraph, part: &Partitioning) -> Vec<u64> {
    partition_io(g, part)
        .iter()
        .map(PartitionIo::total_words)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::PartitionId;
    use sparcs_dfg::{Resources, TaskGraph};

    /// a → {b, c}; a's output is 4 words; edges carry 4 words each.
    fn fanout_graph() -> TaskGraph {
        let mut g = TaskGraph::new("fanout");
        let a = g.add_task("a", Resources::clbs(1), 10, 4);
        let b = g.add_task("b", Resources::clbs(1), 10, 1);
        let c = g.add_task("c", Resources::clbs(1), 10, 1);
        g.add_edge(a, b, 4).unwrap();
        g.add_edge(a, c, 4).unwrap();
        g.add_env_input("in", 4, [a]).unwrap();
        g.add_env_output("out_b", 1, [b]).unwrap();
        g.add_env_output("out_c", 1, [c]).unwrap();
        g
    }

    #[test]
    fn edge_mode_double_counts_shared_values() {
        let g = fanout_graph();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(1)]);
        assert_eq!(boundary_words(&g, &p, MemoryMode::Edge), vec![8]);
        assert_eq!(boundary_words(&g, &p, MemoryMode::Net), vec![4]);
    }

    #[test]
    fn net_mode_counts_until_last_consumer() {
        let g = fanout_graph();
        // a | b | c: a's value crosses both boundaries (c reads it in P3).
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(2)]);
        assert_eq!(boundary_words(&g, &p, MemoryMode::Net), vec![4, 4]);
        assert_eq!(boundary_words(&g, &p, MemoryMode::Edge), vec![8, 4]);
    }

    #[test]
    fn single_partition_has_no_boundaries() {
        let g = fanout_graph();
        let p = Partitioning::new(vec![PartitionId(0); 3]);
        assert!(boundary_words(&g, &p, MemoryMode::Net).is_empty());
    }

    #[test]
    fn partition_io_splits_directions_and_sums_to_m_temp() {
        let g = fanout_graph();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(1)]);
        let io = partition_io(&g, &p);
        // P1: env in 4, crossing out 4; P2: crossing in 4, env out 1+1.
        assert_eq!(
            io,
            vec![
                PartitionIo {
                    env_in: 4,
                    cross_in: 0,
                    cross_out: 4,
                    env_out: 0
                },
                PartitionIo {
                    env_in: 0,
                    cross_in: 4,
                    cross_out: 0,
                    env_out: 2
                },
            ]
        );
        assert_eq!(
            io.iter().map(PartitionIo::total_words).collect::<Vec<_>>(),
            per_partition_words(&g, &p)
        );
        assert_eq!((io[0].input_words(), io[0].output_words()), (4, 4));
    }

    #[test]
    fn per_partition_counts_env_and_crossings() {
        let g = fanout_graph();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(1)]);
        // P1: env in 4 + crossing out 4 = 8. P2: crossing in 4 + env out 2 = 6.
        assert_eq!(per_partition_words(&g, &p), vec![8, 6]);
    }

    #[test]
    fn live_range_sees_pass_through_values() {
        let g = fanout_graph();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(2)]);
        // a | b | c: a's value stays live through P2 until c reads it in P3,
        // so it is stored across both boundaries.
        assert_eq!(boundary_words(&g, &p, MemoryMode::Net), vec![4, 4]);
        // The paper's per-partition count charges it only where it is read
        // or written: P2 reads it for b (4) and writes out_b (1).
        assert_eq!(per_partition_words(&g, &p), vec![8, 5, 5]);
    }

    #[test]
    fn per_partition_env_input_spanning_two_partitions_counts_twice() {
        let mut g = TaskGraph::new("span");
        let a = g.add_task("a", Resources::clbs(1), 1, 1);
        let b = g.add_task("b", Resources::clbs(1), 1, 1);
        g.add_env_input("shared", 6, [a, b]).unwrap();
        g.add_env_output("oa", 1, [a]).unwrap();
        g.add_env_output("ob", 1, [b]).unwrap();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1)]);
        // P1: in 6 + out 1; P2: in 6 + out 1.
        assert_eq!(per_partition_words(&g, &p), vec![7, 7]);
    }
}
