//! Integration tests for the `sparcs` CLI binary: the example graph feeds
//! back through the flow subcommands, and error paths exit non-zero with
//! the usage text.

use std::process::{Command, Output};

fn sparcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparcs"))
        .args(args)
        .output()
        .expect("sparcs binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes text to a fresh temp file and returns its path.
fn temp_graph(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sparcs-cli-{}-{name}.tg", std::process::id()));
    std::fs::write(&path, text).expect("temp graph writes");
    path
}

#[test]
fn example_output_feeds_back_through_dot() {
    let example = sparcs(&["example"]);
    assert!(example.status.success(), "sparcs example succeeds");
    let text = stdout(&example);
    assert!(text.contains("task"), "example emits the graph format");

    let path = temp_graph("dot", &text);
    let dot = sparcs(&["dot", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(
        dot.status.success(),
        "sparcs dot succeeds: {}",
        stderr(&dot)
    );
    let rendered = stdout(&dot);
    assert!(rendered.contains("digraph"), "Graphviz output: {rendered}");
    // The example graph partitions on the default device, so the dot output
    // is partition-clustered.
    assert!(
        rendered.contains("cluster"),
        "partition clusters: {rendered}"
    );
}

#[test]
fn example_output_feeds_back_through_partition_and_explore() {
    let text = stdout(&sparcs(&["example"]));
    let path = temp_graph("flow", &text);
    let file = path.to_str().unwrap();

    let partition = sparcs(&["partition", file]);
    assert!(partition.status.success(), "{}", stderr(&partition));
    assert!(stdout(&partition).contains("latency"));

    let list = sparcs(&["partition", file, "--partitioner", "list"]);
    assert!(list.status.success(), "{}", stderr(&list));
    assert!(stdout(&list).contains("via list"));

    let explore = sparcs(&["explore", file, "--inputs", "100000"]);
    assert!(explore.status.success(), "{}", stderr(&explore));
    let table = stdout(&explore);
    assert!(table.contains("best:"), "{table}");
    assert!(table.contains("ilp") && table.contains("list"), "{table}");

    // The flow flags narrow the exploration axes instead of being ignored.
    let narrowed = sparcs(&[
        "explore",
        file,
        "--inputs",
        "100000",
        "--partitioner",
        "list",
        "--pow2",
        "--strategy",
        "idh",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(narrowed.status.success(), "{}", stderr(&narrowed));
    let table = stdout(&narrowed);
    assert!(!table.contains("ilp"), "ILP candidates excluded: {table}");
    assert!(!table.contains("FDH"), "FDH candidates excluded: {table}");
    assert!(!table.contains("exact"), "exact rounding excluded: {table}");
    assert!(table.contains("best: list + IDH"), "{table}");
}

#[test]
fn explore_widens_across_jobs_caps_and_boards() {
    let text = stdout(&sparcs(&["example"]));
    let path = temp_graph("widened", &text);
    let file = path.to_str().unwrap();

    let widened = sparcs(&[
        "explore",
        file,
        "--inputs",
        "100000",
        "--jobs",
        "2",
        "--max-partitions",
        "2,4",
        "--arch",
        "xc4044",
        "--arch",
        "xc6200",
    ]);
    assert!(widened.status.success(), "{}", stderr(&widened));
    let table = stdout(&widened);
    assert!(table.contains("XC4044/WildForce"), "{table}");
    assert!(table.contains("XC6000"), "both boards ranked: {table}");
    assert!(table.contains("coverage:"), "{table}");
    assert!(table.contains("jobs = 2"), "{table}");

    // A cap below the resource lower bound is convicted by the static
    // analyzer before any solve — reported as skipped coverage with the
    // convicting rule id, not silently raised and not fatal.
    let capped = sparcs(&["explore", file, "--max-partitions", "1,4"]);
    let _ = std::fs::remove_file(&path);
    assert!(capped.status.success(), "{}", stderr(&capped));
    let table = stdout(&capped);
    assert!(table.contains("1 static-pruned"), "{table}");
    assert!(
        table.contains("statically pruned [partition-count-bound]"),
        "{table}"
    );

    // Identical rankings regardless of --jobs (determinism guarantee).
    let strip = |out: &str| {
        out.lines()
            .skip_while(|l| !l.starts_with("rank"))
            .take_while(|l| !l.starts_with("coverage"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let path = temp_graph("jobs", &text);
    let file = path.to_str().unwrap();
    let serial = sparcs(&[
        "explore", file, "--jobs", "1", "--arch", "xc4044", "--arch", "tm",
    ]);
    let parallel = sparcs(&[
        "explore", file, "--jobs", "4", "--arch", "xc4044", "--arch", "tm",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(strip(&stdout(&serial)), strip(&stdout(&parallel)));
}

#[test]
fn run_streams_synthetic_workloads_without_materializing() {
    let text = stdout(&sparcs(&["example"]));
    let path = temp_graph("run", &text);
    let file = path.to_str().unwrap();

    let run = sparcs(&[
        "run",
        file,
        "--seq",
        "idh",
        "--workload",
        "50000",
        "--synthetic",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let out = stdout(&run);
    assert!(out.contains("stream: synthetic, I = 50000"), "{out}");
    assert!(out.contains("seq   : IDH"), "{out}");
    assert!(out.contains("50000 computations"), "report present: {out}");
    assert!(out.contains("digest:"), "{out}");

    // Identical workloads produce identical digests (deterministic stream).
    let again = sparcs(&[
        "run",
        file,
        "--seq",
        "idh",
        "--workload",
        "50000",
        "--synthetic",
    ]);
    assert_eq!(out, stdout(&again));

    // The static baseline runs behind the same flag.
    let stat = sparcs(&[
        "run",
        file,
        "--seq",
        "static",
        "--workload",
        "100",
        "--synthetic",
    ]);
    assert!(stat.status.success(), "{}", stderr(&stat));
    assert!(
        stdout(&stat).contains("seq   : static"),
        "{}",
        stdout(&stat)
    );

    // A workload grid is an explore feature; run takes exactly one.
    let grid = sparcs(&["run", file, "--workload", "10,20", "--synthetic"]);
    assert!(!grid.status.success());
    assert!(
        stderr(&grid).contains("single workload"),
        "{}",
        stderr(&grid)
    );

    // Without --synthetic the workload comes from stdin; a --workload
    // flag there would be silently dropped, so it is rejected instead.
    let dropped = sparcs(&["run", file, "--workload", "10"]);
    let _ = std::fs::remove_file(&path);
    assert!(!dropped.status.success());
    assert!(
        stderr(&dropped).contains("--synthetic"),
        "{}",
        stderr(&dropped)
    );
}

#[test]
fn run_reads_stdin_and_streams_stdout() {
    use std::io::Write as _;
    use std::process::Stdio;
    let text = stdout(&sparcs(&["example"]));
    let path = temp_graph("run-stdin", &text);
    let file = path.to_str().unwrap();

    // The example graph consumes 3 input words per computation.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sparcs"))
        .args(["run", file, "--seq", "fdh"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sparcs spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"1 2 3 4 5 6")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    assert_eq!(lines.len(), 2, "one line per computation: {lines:?}");
    let err = stderr(&out);
    assert!(err.contains("2 computations"), "report on stderr: {err}");
}

/// Host buffers hold the slots a stream fills, not `k` of them: under a
/// 1 GiB address-space cap, a 10-computation stream runs on a board whose
/// `k` is 500 million (value histories for `k` slots, at least one 4-byte
/// word each, would alone take 2 GB). The report is still charged per
/// `k`-slot batch.
#[test]
fn run_sizes_host_buffers_by_the_stream_not_the_board() {
    let capped_run = |extra: &[&str]| {
        Command::new("sh")
            .args(["-c", r#"ulimit -v 1048576; exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_sparcs"))
            .args([
                "run",
                concat!(env!("CARGO_MANIFEST_DIR"), "/examples/graphs/fig4.tg"),
            ])
            .args(["--synthetic", "--workload", "10"])
            .args(extra)
            .output()
            .expect("sh runs")
    };
    let huge = capped_run(&["--memory", "2000000000"]);
    assert!(huge.status.success(), "{}", stderr(&huge));
    assert!(
        stdout(&huge).contains("digest: 02905229be8e235b"),
        "{}",
        stdout(&huge)
    );

    let fdh = capped_run(&["--memory", "20000000", "--seq", "fdh"]);
    assert!(fdh.status.success(), "{}", stderr(&fdh));
    let out = stdout(&fdh);
    assert!(
        out.contains(
            "report: 4.3250 s total (0.2000 s reconfig x2, 3.5000 s compute, \
             0.6250 s exposed transfer, 25000000 words, 10 computations)"
        ),
        "{out}"
    );
    assert!(out.contains("digest: 02905229be8e235b"), "{out}");
}

#[test]
fn explore_ranks_a_workload_grid_in_one_call() {
    let text = stdout(&sparcs(&["example"]));
    let path = temp_graph("grid", &text);
    let file = path.to_str().unwrap();
    let out = sparcs(&["explore", file, "--workload", "10000,1000000"]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("for I = 10000"), "{table}");
    assert!(table.contains("for I = 1000000"), "{table}");
    // Small workloads cannot amortize the reconfiguration cascade; huge
    // ones can — the grid surfaces the crossover in one invocation.
    assert_eq!(
        table.matches("best:").count(),
        2,
        "one best line per workload: {table}"
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = sparcs(&["frobnicate"]);
    assert!(!out.status.success(), "unknown subcommand exits non-zero");
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("usage:"), "usage text printed: {err}");
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = sparcs(&["partition", "--frobnicate"]);
    assert!(!out.status.success(), "unknown flag exits non-zero");
    let err = stderr(&out);
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    assert!(err.contains("usage:"), "usage text printed: {err}");
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = sparcs(&[]);
    assert!(!out.status.success(), "bare invocation exits non-zero");
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn missing_graph_file_fails_without_usage_noise() {
    let out = sparcs(&["partition", "/nonexistent/graph.tg"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("error:"), "{err}");
    // A runtime error is not a usage error; the usage text stays out.
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn bad_flag_values_fail_with_usage() {
    for args in [
        ["partition", "--clbs", "banana"].as_slice(),
        ["codegen", "--strategy", "sideways"].as_slice(),
        ["partition", "--partitioner", "quantum"].as_slice(),
        ["explore", "--arch", "virtex9000"].as_slice(),
        ["explore", "--jobs", "0"].as_slice(),
        ["explore", "--max-partitions", "2,zero"].as_slice(),
    ] {
        let out = sparcs(args);
        assert!(!out.status.success(), "{args:?} exits non-zero");
        assert!(stderr(&out).contains("usage:"), "{args:?} prints usage");
    }
}

#[test]
fn analyze_reports_facts_and_convicts_without_solving() {
    // The checked-in example graph is the CI fixture; analyzing it must
    // succeed, name every bound rule, and (with --json) emit one object.
    let out = sparcs(&["analyze", "examples/graphs/fig4.tg"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = stdout(&out);
    for rule in [
        "critical-path-bound",
        "partition-count-bound",
        "memory-bound",
        "temp-memory-bound",
        "reconfig-ledger-bound",
    ] {
        assert!(report.contains(rule), "missing {rule}: {report}");
    }
    assert!(report.contains("no static infeasibility"), "{report}");

    let json = sparcs(&["analyze", "examples/graphs/fig4.tg", "--json"]);
    assert!(json.status.success(), "{}", stderr(&json));
    let line = stdout(&json);
    assert!(
        line.starts_with('{') && line.trim_end().ends_with('}'),
        "{line}"
    );
    assert!(line.contains("\"schedulable\":true"), "{line}");

    // A cap below the certified partition-count bound is convicted
    // statically — no solver ran, yet the verdict names the rule.
    let capped = sparcs(&[
        "analyze",
        "examples/graphs/fig4.tg",
        "--max-partitions",
        "1",
    ]);
    assert!(capped.status.success(), "verdict is a report, not an error");
    let report = stdout(&capped);
    assert!(
        report.contains("statically infeasible [partition-count-bound]"),
        "{report}"
    );

    // An error-class lint (edge wider than its producer's output) makes
    // the exit nonzero so CI can gate on checked-in graphs.
    let bad = "graph bad\ntask a clbs=100 delay=10 out=1\ntask b clbs=100 delay=10 out=1\n\
               edge a -> b words=9\ninput i words=1 tasks=a\noutput o words=1 tasks=b\n";
    let path = temp_graph("analyze-bad", bad);
    let out = sparcs(&["analyze", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success(), "error lints exit nonzero");
    assert!(stdout(&out).contains("width-mismatch"), "{}", stdout(&out));
    assert!(stderr(&out).contains("error-class"), "{}", stderr(&out));
}
