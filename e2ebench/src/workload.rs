//! The named workloads and their seeded inputs.
//!
//! Every workload drives the same four user operations, each on inputs
//! generated from the workload's seed: a synthesis pass (`sparcs
//! partition` + `fission` per statement), an exploration (`sparcs
//! explore`), a stream of computations through the synthesized design
//! (`sparcs run`), and submit→result round trips against an in-process
//! `sparcsd`. What differs is the input, and therefore which layer does
//! the work.

use crate::serve::Daemon;
use sparcs::core::model::ModelConfig;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{self, ScaledConfig};
use sparcs::dfg::parse::to_text;
use sparcs::dfg::{Resources, TaskGraph};
use sparcs::estimate::Architecture;
use sparcs::flow::ExploreSpace;
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use sparcs::rtr::stream::splitmix64;
use sparcs::service::JobSpec;
use std::path::Path;

/// The paper's workload size: 245,760 4×4 DCT blocks (§4, Tables 1–2).
pub const PAPER_BLOCKS: u64 = 245_760;
/// The proven-optimal latency of the §4 DCT model on XC4044/WildForce.
pub const DCT_EXACT_LATENCY_NS: u64 = 300_008_440;
/// Output digest of 2²⁰ default-seeded computations through the §4 DCT
/// design (as `bench-streaming` records it).
pub const DCT_STREAM_DIGEST: u64 = 0xb5ff_588f_1c66_a4dd;
/// Computations streamed through the DCT design.
pub const DCT_STREAM_COMPUTATIONS: u64 = 1 << 20;
/// `k`-batches streamed through a generated design.
pub const GENERATED_STREAM_BATCHES: u64 = 4;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The §4 DCT model on XC4044/WildForce.
    DctPaper,
    /// One 10k-node `gen::scaled` graph on a 50k-CLB / 4M-word device.
    Scaled10k,
    /// A closed loop of 2 clients against `sparcsd`, with a restart.
    Service,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::DctPaper, Kind::Scaled10k, Kind::Service];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DctPaper => "dct-paper",
            Kind::Scaled10k => "scaled-10k",
            Kind::Service => "service",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One problem statement: a graph rendered to `.tg` text, a board, and a
/// partitioner spec, plus what the benchmark knows about its answer.
#[derive(Debug, Clone)]
pub struct Statement {
    /// The graph, as generated (kept for audits).
    pub graph: TaskGraph,
    /// The graph as `.tg` text (what users hand the CLI and daemon).
    pub text: String,
    /// Target board.
    pub arch: Architecture,
    /// The board's `sparcsd` wire name, when it is a daemon preset.
    pub wire_arch: Option<&'static str>,
    /// Partitioner spec (`parse_spec` grammar).
    pub spec: String,
    /// Options for exact and multilevel seeds.
    pub options: PartitionOptions,
    /// Certified latency bound: `partition_count_lb·CT` plus the
    /// critical-path bound, both from `sparcs_analyze`.
    pub bound_ns: u64,
    /// The latency an exact answer must have, when it is pinned.
    pub pinned_latency_ns: Option<u64>,
}

impl Statement {
    /// The statement as a daemon job (the daemon builds its own default
    /// options, so only board presets can be served).
    pub fn job(&self) -> JobSpec {
        JobSpec {
            arch: self.wire_arch.unwrap_or("xc4044").into(),
            partitioner: self.spec.clone(),
            ..JobSpec::new(self.text.clone())
        }
    }

    /// Same graph, board and bound under another spec.
    fn with_spec(&self, spec: &str, pinned_latency_ns: Option<u64>) -> Statement {
        Statement {
            spec: spec.into(),
            pinned_latency_ns,
            ..self.clone()
        }
    }
}

/// What one exploration covers.
#[derive(Debug, Clone)]
pub struct ExploreCase {
    /// The graph explored.
    pub graph: TaskGraph,
    /// The session's board.
    pub arch: Architecture,
    /// Use [`ExploreSpace::widened`] (three boards, cap sweep).
    pub widened: bool,
    /// Include the exact ILP.
    pub include_ilp: bool,
    /// Extra specs.
    pub specs: Vec<String>,
    /// Shared ILP options.
    pub options: PartitionOptions,
}

impl ExploreCase {
    /// The space, cold: a fresh cache per call (the CLI starts cold).
    pub fn space(&self, jobs: u32) -> ExploreSpace {
        let mut space = if self.widened {
            ExploreSpace::widened(PAPER_BLOCKS)
        } else {
            ExploreSpace::for_workload(PAPER_BLOCKS)
        };
        space.include_ilp = self.include_ilp;
        space.specs = self.specs.clone();
        space.ilp_options = self.options.clone();
        space.jobs = jobs;
        space.cache = Some(std::sync::Arc::new(sparcs::cache::PartitionCache::new()));
        space
    }
}

/// A workload's generated inputs plus its running daemon.
pub struct Inputs {
    /// Synthesis statements, one synthesis pass = all of them.
    pub synth: Vec<Statement>,
    /// The exploration.
    pub explore: ExploreCase,
    /// Statements the daemon serves.
    pub serve_pool: Vec<Statement>,
    /// Indices into `serve_pool`: one serve batch (flow workloads) or
    /// the whole closed-loop request sequence (service).
    pub serve_sequence: Vec<usize>,
    /// The generated graph whose design is streamed (`None`: the §4 DCT
    /// design). Fixed across seeds: stream throughput depends on the
    /// partition structure, so a seeded design would make the stream
    /// metric measure the seed rather than the host path.
    pub stream_statement: Option<Statement>,
    /// The in-process daemon (taken out across a restart).
    pub daemon: Option<Daemon>,
}

/// The seed of the graph `bench-multilevel` measures at scale; the
/// scaled workload streams its design.
pub const REFERENCE_STREAM_SEED: u64 = 10;

/// The 50k-CLB / 4M-word device `bench-multilevel` uses at scale.
pub fn big_device() -> Architecture {
    let mut arch = Architecture::xc4044_wildforce();
    arch.name = "50k-CLB/4M-word".into();
    arch.resources = Resources::clbs(50_000);
    arch.memory_words = 4_000_000;
    arch
}

/// `partition_count_lb·CT + critical-path bound` for `(g, arch)`.
pub fn certified_bound(g: &TaskGraph, arch: &Architecture) -> u64 {
    let analysis =
        sparcs::analyze::analyze(g, arch, MemoryMode::Net).expect("generated graphs are DAGs");
    let cp = sparcs::analyze::critical_path_lb_ns(g).expect("generated graphs are DAGs");
    u64::from(analysis.partition_count_lb) * arch.reconfig_time_ns + cp
}

fn statement(
    graph: TaskGraph,
    arch: Architecture,
    wire_arch: Option<&'static str>,
    spec: &str,
    options: PartitionOptions,
) -> Statement {
    let text = to_text(&graph);
    let bound_ns = certified_bound(&graph, &arch);
    Statement {
        graph,
        text,
        arch,
        wire_arch,
        spec: spec.into(),
        options,
        bound_ns,
        pinned_latency_ns: None,
    }
}

/// The §4 DCT statement under `ilp`, with its declared row symmetry (as
/// the case study solves it) or without (as the daemon, which builds
/// default options, solves it).
fn dct_statement(with_symmetry: bool) -> Statement {
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("the DCT model builds");
    let options = if with_symmetry {
        PartitionOptions {
            model: ModelConfig {
                declared_symmetry: dct.symmetry_groups.clone(),
                ..ModelConfig::default()
            },
            ..PartitionOptions::default()
        }
    } else {
        PartitionOptions::default()
    };
    let mut s = statement(
        dct.graph,
        Architecture::xc4044_wildforce(),
        Some("xc4044"),
        "ilp",
        options,
    );
    s.pinned_latency_ns = Some(DCT_EXACT_LATENCY_NS);
    s
}

/// A seeded `gen::scaled` graph. The workload seed is mixed with a
/// per-graph index so one run's graphs differ from each other.
fn scaled_graph(nodes: u32, seed: u64, index: u64) -> TaskGraph {
    gen::scaled(
        &ScaledConfig::preset(nodes),
        splitmix64(seed ^ splitmix64(index)),
    )
}

/// Requests per serve batch on the flow workloads.
pub const SERVE_BATCH: usize = 8;
/// Statements of the service workload's synthesis pass.
pub const SERVICE_SYNTH: usize = 9;
/// Size of the service workload's pool of distinct statements.
pub const SERVICE_POOL: usize = 192;
/// Length of the service workload's request sequence (a run sends a
/// prefix sized by its measured time).
pub const SERVICE_SEQUENCE: usize = 4096;

/// The service job mix: 1 in 4 fresh statements is the DCT graph under
/// `ilp`, 3 in 4 are fresh 200-node graphs under `list+anneal`; half of
/// all requests repeat a uniformly drawn earlier request.
fn service_sequence(seed: u64, pool: usize) -> Vec<usize> {
    let mut state = splitmix64(seed ^ 0x5e41_ce00);
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut sequence: Vec<usize> = Vec::with_capacity(SERVICE_SEQUENCE);
    let mut fresh_graphs = 1usize; // pool[0] is the DCT statement
    for _ in 0..SERVICE_SEQUENCE {
        let draw = next();
        let statement = if !sequence.is_empty() && draw % 2 == 0 {
            sequence[(next() % sequence.len() as u64) as usize]
        } else if (draw >> 1) % 4 == 0 {
            0
        } else {
            let s = fresh_graphs;
            fresh_graphs = if fresh_graphs + 1 < pool {
                fresh_graphs + 1
            } else {
                1
            };
            s
        };
        sequence.push(statement);
    }
    sequence
}

/// Generates the workload's inputs and starts its daemon under `dir`.
///
/// # Errors
///
/// Daemon start-up failures.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let (synth, explore, serve_pool, serve_sequence) = match kind {
        Kind::DctPaper => {
            let ilp = dct_statement(true);
            let synth = vec![
                ilp.with_spec("ilp", Some(DCT_EXACT_LATENCY_NS)),
                ilp.with_spec("list+kl", None),
                // Proven optimal on the DCT (BENCH_multilevel.json).
                ilp.with_spec("multilevel", Some(DCT_EXACT_LATENCY_NS)),
                ilp.with_spec("portfolio", Some(DCT_EXACT_LATENCY_NS)),
            ];
            let explore = ExploreCase {
                graph: ilp.graph.clone(),
                arch: ilp.arch.clone(),
                widened: true,
                include_ilp: true,
                specs: Vec::new(),
                options: ilp.options.clone(),
            };
            // The daemon builds default options: no declared symmetry.
            let served = dct_statement(false);
            (synth, explore, vec![served], vec![0; SERVE_BATCH])
        }
        Kind::Scaled10k => {
            let graph = scaled_graph(10_000, seed, 0);
            let base = statement(
                graph.clone(),
                big_device(),
                None,
                "list",
                PartitionOptions::default(),
            );
            let synth = vec![base.clone(), base.with_spec("memlist", None)];
            let explore = ExploreCase {
                graph: graph.clone(),
                arch: big_device(),
                widened: false,
                include_ilp: false,
                specs: vec!["memlist".into()],
                options: PartitionOptions::default(),
            };
            // The daemon serves board presets only, and one 10k-node
            // request holds a worker for seconds (the README records how
            // many): the daemon is measured here on the same DCT batch as
            // on dct-paper, a control that scaled-10k's layers must not
            // move.
            let served = dct_statement(false);
            (synth, explore, vec![served], vec![0; SERVE_BATCH])
        }
        Kind::Service => {
            let mut pool = vec![dct_statement(false)];
            for i in 1..SERVICE_POOL {
                pool.push(statement(
                    scaled_graph(200, seed, i as u64),
                    Architecture::xc4044_wildforce(),
                    Some("xc4044"),
                    "list+anneal",
                    PartitionOptions::default(),
                ));
            }
            // In-process, a synthesis pass solves what a worker solves
            // for the first distinct statements of the mix: the DCT and
            // enough generated graphs that their seed-to-seed differences
            // average out.
            let synth = pool[..SERVICE_SYNTH].to_vec();
            let explore = ExploreCase {
                graph: pool[0].graph.clone(),
                arch: pool[0].arch.clone(),
                widened: false,
                include_ilp: true,
                specs: Vec::new(),
                options: PartitionOptions::default(),
            };
            let sequence = service_sequence(seed, pool.len());
            (synth, explore, pool, sequence)
        }
    };
    let stream_statement = (kind == Kind::Scaled10k).then(|| {
        let graph = gen::scaled(&ScaledConfig::preset(10_000), REFERENCE_STREAM_SEED);
        Statement {
            text: to_text(&graph),
            graph,
            arch: big_device(),
            wire_arch: None,
            spec: "list".into(),
            options: PartitionOptions::default(),
            bound_ns: 0,
            pinned_latency_ns: None,
        }
    });
    let daemon = Some(Daemon::start(dir)?);
    Ok(Inputs {
        synth,
        explore,
        serve_pool,
        serve_sequence,
        stream_statement,
        daemon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_graphs_and_another_seed_others() {
        assert_eq!(
            to_text(&scaled_graph(700, 7, 0)),
            to_text(&scaled_graph(700, 7, 0))
        );
        assert_ne!(
            to_text(&scaled_graph(700, 7, 0)),
            to_text(&scaled_graph(700, 8, 0))
        );
        assert_ne!(
            to_text(&scaled_graph(200, 7, 1)),
            to_text(&scaled_graph(200, 7, 2))
        );
        assert_eq!(service_sequence(3, 64), service_sequence(3, 64));
        assert_ne!(service_sequence(3, 64), service_sequence(4, 64));
    }

    #[test]
    fn the_service_mix_repeats_half_its_requests() {
        let seq = service_sequence(11, SERVICE_POOL);
        let mut seen = std::collections::HashSet::new();
        let repeats = seq.iter().filter(|&&s| !seen.insert(s)).count();
        let share = repeats as f64 / seq.len() as f64;
        assert!(share > 0.5, "repeat share {share}");
        let dct = seq.iter().filter(|&&s| s == 0).count() as f64 / seq.len() as f64;
        assert!((0.15..0.35).contains(&dct), "DCT share {dct}");
    }
}
