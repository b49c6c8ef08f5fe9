//! Deterministic task-graph generators for tests, property tests and the
//! benchmarks.
//!
//! All generators are seeded ([`rand::rngs::StdRng`]) so every experiment is
//! reproducible bit-for-bit.

use crate::graph::{TaskGraph, TaskId};
use crate::resources::Resources;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`layered`] random DAG generation (TGFF-style).
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredConfig {
    /// Number of layers (≥ 1).
    pub layers: u32,
    /// Minimum tasks per layer (≥ 1).
    pub min_width: u32,
    /// Maximum tasks per layer (≥ `min_width`).
    pub max_width: u32,
    /// Probability of an edge between a task and each task of the next layer.
    pub edge_prob: f64,
    /// Inclusive range of task CLB costs.
    pub clbs: (u64, u64),
    /// Inclusive range of task delays in nanoseconds.
    pub delay_ns: (u64, u64),
    /// Inclusive range of per-edge word counts.
    pub words: (u64, u64),
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            layers: 5,
            min_width: 2,
            max_width: 6,
            edge_prob: 0.4,
            clbs: (40, 400),
            delay_ns: (50, 800),
            words: (1, 16),
        }
    }
}

/// Generates a layered random DAG.
///
/// Every non-first layer task is guaranteed at least one predecessor in the
/// previous layer so the graph's depth equals `layers`, which keeps the
/// temporal-order structure interesting for partitioning.
///
/// # Panics
///
/// Panics if `cfg` is degenerate (`layers == 0`, `min_width == 0`,
/// `min_width > max_width`, or an inverted range).
pub fn layered(cfg: &LayeredConfig, seed: u64) -> TaskGraph {
    assert!(cfg.layers >= 1, "need at least one layer");
    assert!(cfg.min_width >= 1, "need at least one task per layer");
    assert!(cfg.min_width <= cfg.max_width, "width range inverted");
    assert!(cfg.clbs.0 <= cfg.clbs.1, "clb range inverted");
    assert!(cfg.delay_ns.0 <= cfg.delay_ns.1, "delay range inverted");
    assert!(cfg.words.0 <= cfg.words.1, "word range inverted");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new(format!("layered-{seed}"));
    let mut prev_layer: Vec<TaskId> = Vec::new();
    for layer in 0..cfg.layers {
        let width = rng.gen_range(cfg.min_width..=cfg.max_width);
        let mut this_layer = Vec::with_capacity(width as usize);
        for i in 0..width {
            let t = g.add_task(
                format!("L{layer}_{i}"),
                Resources::clbs(rng.gen_range(cfg.clbs.0..=cfg.clbs.1)),
                rng.gen_range(cfg.delay_ns.0..=cfg.delay_ns.1),
                rng.gen_range(cfg.words.0..=cfg.words.1),
            );
            this_layer.push(t);
        }
        connect_layer(
            &mut g,
            &mut rng,
            &prev_layer,
            &this_layer,
            cfg.edge_prob,
            cfg.words,
        );
        prev_layer = this_layer;
    }
    add_env_io(&mut g);
    g
}

/// Links `this` layer to the `prev` one: an edge from each `prev` task
/// with probability `edge_prob`, and one from a random `prev` task when
/// none was drawn, so every non-first-layer task has a predecessor. Edge
/// words are drawn from the inclusive range `words`.
fn connect_layer(
    g: &mut TaskGraph,
    rng: &mut StdRng,
    prev: &[TaskId],
    this: &[TaskId],
    edge_prob: f64,
    words: (u64, u64),
) {
    if prev.is_empty() {
        return;
    }
    for &dst in this {
        let mut connected = false;
        for &src in prev {
            if rng.gen_bool(edge_prob) {
                let w = rng.gen_range(words.0..=words.1);
                g.add_edge(src, dst, w).expect("layered edges are acyclic");
                connected = true;
            }
        }
        if !connected {
            let src = prev[rng.gen_range(0..prev.len())];
            let w = rng.gen_range(words.0..=words.1);
            g.add_edge(src, dst, w).expect("layered edges are acyclic");
        }
    }
}

/// Environment I/O on roots and leaves (the Figure-3 shape): one input
/// per root and one output per leaf, each as wide as the task's output.
fn add_env_io(g: &mut TaskGraph) {
    let roots = g.roots();
    let leaves = g.leaves();
    for (i, &r) in roots.iter().enumerate() {
        let words = g.task(r).output_words.max(1);
        g.add_env_input(format!("in{i}"), words, [r])
            .expect("roots are valid tasks");
    }
    for (i, &l) in leaves.iter().enumerate() {
        let words = g.task(l).output_words.max(1);
        g.add_env_output(format!("out{i}"), words, [l])
            .expect("leaves are valid tasks");
    }
}

/// Parameters for [`scaled`]: layered generation with an *exact* task
/// budget plus width/depth and resource-skew knobs, for the synthetic
/// scale suite (graphs far beyond what the exact solver can touch).
///
/// Unlike [`LayeredConfig`], whose task count emerges from per-layer
/// width rolls, a [`ScaledConfig`] hits `nodes` exactly: layer widths
/// are jittered around `avg_width` and the final layer absorbs the
/// remainder, so `scaled(&cfg, seed).task_count() == cfg.nodes` for
/// every seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledConfig {
    /// Exact number of tasks to generate (≥ 1).
    pub nodes: u32,
    /// Average tasks per layer (≥ 1) — the width/depth knob: depth is
    /// roughly `nodes / avg_width`.
    pub avg_width: u32,
    /// Relative per-layer width jitter in `[0, 1)`: each layer's width is
    /// drawn from `avg_width · [1 − jitter, 1 + jitter]`.
    pub width_jitter: f64,
    /// Probability of an edge between a task and each task of the next
    /// layer (every non-root task keeps at least one predecessor).
    pub edge_prob: f64,
    /// Inclusive range of task CLB costs.
    pub clbs: (u64, u64),
    /// Resource-skew knob: `0.0` draws CLB costs uniformly from `clbs`;
    /// larger values bias the draw toward the low end with a heavy tail
    /// of large tasks (the draw is `lo + (hi − lo) · u^(1 + skew)` for
    /// uniform `u`), the shape that stresses bin packing.
    pub skew: f64,
    /// Inclusive range of task delays in nanoseconds.
    pub delay_ns: (u64, u64),
    /// Inclusive range of per-edge word counts.
    pub words: (u64, u64),
}

impl ScaledConfig {
    /// A preset with `nodes` tasks: moderately wide layers (width ≈
    /// `√nodes`, so depth ≈ width), mild skew — the default shape of the
    /// synthetic scale suite.
    pub fn preset(nodes: u32) -> Self {
        // Integer square root for a deterministic width choice.
        let mut w = 1u32;
        while (w + 1).saturating_mul(w + 1) <= nodes {
            w += 1;
        }
        ScaledConfig {
            nodes,
            avg_width: w.max(1),
            width_jitter: 0.5,
            edge_prob: 0.12,
            clbs: (20, 300),
            skew: 1.0,
            delay_ns: (50, 800),
            words: (1, 16),
        }
    }

    /// The 10k-node member of the scale suite.
    pub fn preset_10k() -> Self {
        Self::preset(10_000)
    }
}

/// Generates a layered random DAG with an exact task count and skewed
/// resources (see [`ScaledConfig`]). Deterministic for a given
/// `(cfg, seed)` pair; every non-root-layer task keeps at least one
/// predecessor in the previous layer, and environment I/O covers the
/// roots and leaves like [`layered`].
///
/// # Panics
///
/// Panics if `cfg` is degenerate (`nodes == 0`, `avg_width == 0`, an
/// inverted range, or `width_jitter`/`skew` outside their documented
/// domains).
pub fn scaled(cfg: &ScaledConfig, seed: u64) -> TaskGraph {
    assert!(cfg.nodes >= 1, "need at least one task");
    assert!(cfg.avg_width >= 1, "need at least one task per layer");
    assert!(
        (0.0..1.0).contains(&cfg.width_jitter),
        "width_jitter must be in [0, 1)"
    );
    assert!(cfg.skew >= 0.0, "skew must be nonnegative");
    assert!(cfg.clbs.0 <= cfg.clbs.1, "clb range inverted");
    assert!(cfg.delay_ns.0 <= cfg.delay_ns.1, "delay range inverted");
    assert!(cfg.words.0 <= cfg.words.1, "word range inverted");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new(format!("scaled-{}-{seed}", cfg.nodes));
    let skewed_clbs = |rng: &mut StdRng| -> u64 {
        let (lo, hi) = cfg.clbs;
        if lo == hi {
            return lo;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        let shaped = u.powf(1.0 + cfg.skew);
        lo + ((hi - lo) as f64 * shaped).round() as u64
    };
    let mut remaining = cfg.nodes;
    let mut prev_layer: Vec<TaskId> = Vec::new();
    let mut layer = 0u32;
    while remaining > 0 {
        let jitter = cfg.avg_width as f64 * cfg.width_jitter;
        let lo = ((cfg.avg_width as f64 - jitter).floor() as u32).max(1);
        let hi = ((cfg.avg_width as f64 + jitter).ceil() as u32).max(lo);
        let width = rng.gen_range(lo..=hi).min(remaining);
        let mut this_layer = Vec::with_capacity(width as usize);
        for i in 0..width {
            let t = g.add_task(
                format!("S{layer}_{i}"),
                Resources::clbs(skewed_clbs(&mut rng)),
                rng.gen_range(cfg.delay_ns.0..=cfg.delay_ns.1),
                rng.gen_range(cfg.words.0..=cfg.words.1),
            );
            this_layer.push(t);
        }
        connect_layer(
            &mut g,
            &mut rng,
            &prev_layer,
            &this_layer,
            cfg.edge_prob,
            cfg.words,
        );
        remaining -= width;
        prev_layer = this_layer;
        layer += 1;
    }
    add_env_io(&mut g);
    g
}

/// A linear chain of `n` identical tasks — the simplest pipeline.
pub fn chain(n: u32, clbs: u64, delay_ns: u64, words: u64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("chain-{n}"));
    let ids: Vec<TaskId> = (0..n)
        .map(|i| g.add_task(format!("t{i}"), Resources::clbs(clbs), delay_ns, words))
        .collect();
    for w in ids.windows(2) {
        g.add_edge(w[0], w[1], words).expect("chain is acyclic");
    }
    if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
        g.add_env_input("in", words, [first]).expect("valid");
        g.add_env_output("out", words, [last]).expect("valid");
    }
    g
}

/// The worked delay-estimation example of the paper's Figure 4.
///
/// Builds a graph whose optimal 2-partition split yields partition delays of
/// exactly 400 ns and 300 ns: partition 1 holds three parallel chains with
/// path delays 350, 400 and 150 ns; partition 2 holds a 300 ns chain fed by
/// all three.
pub fn fig4_example() -> TaskGraph {
    let mut g = TaskGraph::new("fig4");
    // Chain A: 100 + 250 = 350 ns.
    let a1 = g.add_task_kind("a1", "P1", Resources::clbs(200), 100, 1);
    let a2 = g.add_task_kind("a2", "P1", Resources::clbs(200), 250, 1);
    // Chain B: 300 + 100 = 400 ns.
    let b1 = g.add_task_kind("b1", "P1", Resources::clbs(200), 300, 1);
    let b2 = g.add_task_kind("b2", "P1", Resources::clbs(200), 100, 1);
    // Chain C: 150 ns.
    let c1 = g.add_task_kind("c1", "P1", Resources::clbs(200), 150, 1);
    // Partition 2: 200 + 100 = 300 ns.
    let d1 = g.add_task_kind("d1", "P2", Resources::clbs(500), 200, 1);
    let d2 = g.add_task_kind("d2", "P2", Resources::clbs(500), 100, 1);
    g.add_edge(a1, a2, 1).expect("acyclic");
    g.add_edge(b1, b2, 1).expect("acyclic");
    g.add_edge(a2, d1, 1).expect("acyclic");
    g.add_edge(b2, d1, 1).expect("acyclic");
    g.add_edge(c1, d1, 1).expect("acyclic");
    g.add_edge(d1, d2, 1).expect("acyclic");
    g.add_env_input("in_a", 1, [a1]).expect("valid");
    g.add_env_input("in_b", 1, [b1]).expect("valid");
    g.add_env_input("in_c", 1, [c1]).expect("valid");
    g.add_env_output("out", 1, [d2]).expect("valid");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::paths;

    #[test]
    fn layered_is_a_dag_with_requested_depth() {
        let cfg = LayeredConfig::default();
        for seed in 0..20 {
            let g = layered(&cfg, seed);
            g.validate().unwrap();
            let lv = algo::levels(&g).unwrap();
            assert_eq!(lv.depth, cfg.layers, "seed {seed}");
        }
    }

    #[test]
    fn layered_is_deterministic_per_seed() {
        let cfg = LayeredConfig::default();
        assert_eq!(layered(&cfg, 7), layered(&cfg, 7));
        assert_ne!(layered(&cfg, 7), layered(&cfg, 8));
    }

    #[test]
    fn layered_non_roots_have_predecessors() {
        let g = layered(&LayeredConfig::default(), 3);
        let lv = algo::levels(&g).unwrap();
        for t in g.task_ids() {
            if lv.asap[t.index()] > 0 {
                assert!(g.in_degree(t) > 0, "{t} at level >0 must have preds");
            }
        }
    }

    #[test]
    fn layered_env_ports_cover_roots_and_leaves() {
        let g = layered(&LayeredConfig::default(), 11);
        assert_eq!(g.env_inputs().count(), g.roots().len());
        assert_eq!(g.env_outputs().count(), g.leaves().len());
    }

    #[test]
    fn scaled_hits_the_exact_node_budget() {
        for nodes in [1u32, 7, 40, 500] {
            let cfg = ScaledConfig::preset(nodes);
            for seed in 0..3 {
                let g = scaled(&cfg, seed);
                g.validate().unwrap();
                assert_eq!(g.task_count(), nodes as usize, "nodes {nodes} seed {seed}");
            }
        }
    }

    #[test]
    fn scaled_is_deterministic_per_seed() {
        let cfg = ScaledConfig::preset(120);
        assert_eq!(scaled(&cfg, 9), scaled(&cfg, 9));
        assert_ne!(scaled(&cfg, 9), scaled(&cfg, 10));
    }

    #[test]
    fn scaled_depth_follows_the_width_knob() {
        // Wider layers → shallower graph, for the same node budget.
        let mut wide = ScaledConfig::preset(300);
        wide.avg_width = 60;
        wide.width_jitter = 0.0;
        let mut deep = wide.clone();
        deep.avg_width = 10;
        let dw = algo::levels(&scaled(&wide, 5)).unwrap().depth;
        let dd = algo::levels(&scaled(&deep, 5)).unwrap().depth;
        assert!(dw < dd, "wide depth {dw} must be below deep depth {dd}");
    }

    #[test]
    fn scaled_skew_biases_resources_low_with_a_heavy_tail() {
        let mut uniform = ScaledConfig::preset(400);
        uniform.skew = 0.0;
        let mut skewed = uniform.clone();
        skewed.skew = 3.0;
        let mean = |g: &TaskGraph| {
            g.tasks().map(|(_, t)| t.resources.clbs).sum::<u64>() / g.task_count() as u64
        };
        let (gu, gs) = (scaled(&uniform, 2), scaled(&skewed, 2));
        assert!(mean(&gs) < mean(&gu), "skew must pull the mean down");
        // The tail survives: the skewed draw still reaches the top decile.
        let hi = uniform.clbs.0 + (uniform.clbs.1 - uniform.clbs.0) * 9 / 10;
        assert!(gs.tasks().any(|(_, t)| t.resources.clbs >= hi));
    }

    #[test]
    fn scaled_env_ports_cover_roots_and_leaves() {
        let g = scaled(&ScaledConfig::preset(64), 11);
        assert_eq!(g.env_inputs().count(), g.roots().len());
        assert_eq!(g.env_outputs().count(), g.leaves().len());
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn generated_texts_are_pinned() {
        // FNV-1a digests of the `.tg` text: any change to a generator's
        // draws, or to their order, moves them.
        let layered_pins = [
            (0, 0x4316_7cd5_4f3b_9469),
            (2, 0x5563_52fb_8671_c7a8),
            (5, 0x5e5e_395a_0bb4_fdbf),
            (7, 0x36c7_871b_590b_b53d),
        ];
        for (seed, pin) in layered_pins {
            let text = crate::parse::to_text(&layered(&LayeredConfig::default(), seed));
            assert_eq!(fnv64(text.as_bytes()), pin, "layered seed {seed}");
        }
        let text = crate::parse::to_text(&scaled(&ScaledConfig::preset(300), 3));
        assert_eq!(
            fnv64(text.as_bytes()),
            0x6a72_0b99_5b36_8641,
            "scaled-300 seed 3"
        );
    }

    #[test]
    fn chain_shape() {
        let g = chain(6, 100, 50, 2);
        assert_eq!(g.task_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(paths::count_paths(&g).unwrap(), 1);
        assert_eq!(algo::total_delay(&g), 300);
    }

    #[test]
    fn fig4_path_delays_match_paper() {
        let g = fig4_example();
        let all = paths::enumerate_paths(&g, 16).unwrap();
        // Whole-graph root→leaf paths (all end in d1,d2): 350+300, 400+300,
        // 150+300.
        let mut delays: Vec<u64> = all.iter().map(|p| p.delay_ns(&g)).collect();
        delays.sort_unstable();
        assert_eq!(delays, vec![450, 650, 700]);
        let cp = algo::critical_path(&g).unwrap().unwrap();
        assert_eq!(cp.delay_ns, 700);
    }
}
