//! End-to-end crash tests against the real daemon binary.
//!
//! Each test spawns `sparcsd` (via `CARGO_BIN_EXE_sparcsd`), talks to it
//! over its Unix socket with the public [`Client`], kills it — either
//! with an injected `SPARCSD_FAULTS` crash at a labeled point or with a
//! real `SIGKILL` — restarts it over the same journal, and checks the
//! recovery contract: every acknowledged job completes, no claim is left
//! stuck, and the final results are bit-identical to an uninterrupted
//! run.

use sparcs::dfg::gen::{self, LayeredConfig};
use sparcs::dfg::parse;
use sparcs::service::{Client, JobPhase, JobSpec, Request, Response, ResultSummary, ServiceStats};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn fig4_text() -> String {
    parse::to_text(&gen::fig4_example())
}

/// A fresh scratch root for one test (removed best-effort at the end).
fn fresh_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sparcsd-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

/// Spawns a daemon: one worker (so fault hit counts are deterministic),
/// per-tag socket and data dir, and a named store dir — tags passing the
/// same `store` name share that store, others are isolated (the baseline
/// must not pre-publish results the victim would then serve from disk
/// instead of exercising its solve path).
fn spawn_daemon(
    root: &Path,
    tag: &str,
    store: &str,
    faults: Option<&str>,
    extra: &[&str],
) -> (Child, Client) {
    let socket = root.join(format!("{tag}.sock"));
    let _ = std::fs::remove_file(&socket);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sparcsd"));
    cmd.arg("--socket")
        .arg(&socket)
        .arg("--data")
        .arg(root.join(format!("{tag}-data")))
        .arg("--store")
        .arg(root.join(store))
        .args(["--workers", "1"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match faults {
        Some(f) => cmd.env("SPARCSD_FAULTS", f),
        None => cmd.env_remove("SPARCSD_FAULTS"),
    };
    let child = cmd.spawn().expect("daemon spawns");
    (child, Client::new(socket))
}

/// Blocks until the daemon answers on its socket.
fn wait_ready(client: &Client) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if client.request(&Request::Stats).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Blocks until the child process exits (the injected crash fired).
fn wait_crashed(child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(
                !status.success(),
                "the daemon must have crashed, not exited cleanly"
            );
            return;
        }
        assert!(Instant::now() < deadline, "daemon never crashed");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn result_of(client: &Client, job: u64) -> ResultSummary {
    match client
        .request(&Request::Result {
            job,
            wait_ms: Some(60_000),
        })
        .expect("result request")
    {
        Response::Result { result, .. } => result,
        other => panic!("job {job} did not complete: {other:?}"),
    }
}

fn stats_of(client: &Client) -> ServiceStats {
    match client.request(&Request::Stats).expect("stats request") {
        Response::Stats { stats } => stats,
        other => panic!("unexpected stats reply: {other:?}"),
    }
}

/// Sends `Shutdown` and requires the daemon to exit within 20 s; one that
/// does not is killed and fails the test.
fn shutdown(client: &Client, child: &mut Child) {
    let _ = client.request(&Request::Shutdown);
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the daemon did not exit within 20 s of its shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The uninterrupted run every crash case is compared against.
fn baseline(root: &Path, spec: &JobSpec) -> ResultSummary {
    let (mut child, client) = spawn_daemon(root, "baseline", "baseline-store", None, &[]);
    wait_ready(&client);
    let job = client.submit(spec.clone()).expect("baseline submit");
    let result = result_of(&client, job);
    shutdown(&client, &mut child);
    result
}

/// The kill-9 matrix: at every labeled crash point, an acknowledged job
/// survives the crash, the restarted daemon recovers it (no stuck
/// claims), and the served result is bit-identical to the uninterrupted
/// run.
#[test]
fn crash_matrix_recovers_every_acked_job_with_identical_results() {
    // With one worker and one job the append sequence is deterministic:
    // append 1 = the submit (acked), append 2 = the claim. Reply 1 is
    // `wait_ready`'s stats, reply 2 the submit's ack.
    let cases = [
        "journal.append.mid=crash@2",  // claim torn mid-record
        "journal.append.post=crash@2", // claim durable, then death
        "worker.claim.post=crash",     // claimed, solve never started
        "worker.solve.post=crash",     // solved, result never journaled
        "store.publish.mid=crash",     // result temp written, not renamed
        // A slow ack must not let a worker claim the job and crash first.
        "proto.reply=delay:500@2,worker.claim.post=crash",
    ];
    let spec = JobSpec::new(fig4_text());
    for faults in cases {
        let root = fresh_root(&format!("matrix-{}", faults.replace(['.', '=', '@'], "-")));
        let expected = baseline(&root, &spec);

        let (mut crashed, client) =
            spawn_daemon(&root, "victim", "victim-store", Some(faults), &[]);
        wait_ready(&client);
        let job = client
            .submit(spec.clone())
            .expect("submit is acked before the crash");
        wait_crashed(&mut crashed);

        // Restart over the same journal, no faults: the acked job must
        // complete with the exact baseline numbers.
        let (mut revived, client) = spawn_daemon(&root, "victim", "victim-store", None, &[]);
        wait_ready(&client);
        let recovered = result_of(&client, job);
        assert_eq!(
            recovered, expected,
            "{faults}: recovery must be bit-identical to the uninterrupted run"
        );
        let stats = stats_of(&client);
        assert_eq!(
            (stats.queued, stats.running),
            (0, 0),
            "{faults}: no stuck claims after recovery"
        );
        shutdown(&client, &mut revived);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A real `SIGKILL` (not an injected abort) at an arbitrary instant: the
/// acknowledged job still recovers bit-identically.
#[test]
fn sigkill_mid_run_recovers_on_restart() {
    let root = fresh_root("sigkill");
    let spec = JobSpec::new(fig4_text());
    let expected = baseline(&root, &spec);

    let (mut victim, client) = spawn_daemon(&root, "victim", "victim-store", None, &[]);
    wait_ready(&client);
    let job = client.submit(spec.clone()).expect("submit acked");
    victim.kill().expect("SIGKILL delivered");
    let _ = victim.wait();

    let (mut revived, client) = spawn_daemon(&root, "victim", "victim-store", None, &[]);
    wait_ready(&client);
    assert_eq!(result_of(&client, job), expected);
    shutdown(&client, &mut revived);
    let _ = std::fs::remove_dir_all(&root);
}

/// Graceful degradation: a deadline-expired solve is served as a normal
/// result — the audited incumbent plus a proven nonzero lower bound —
/// not an error.
#[test]
fn deadline_expired_solves_serve_an_audited_incumbent_and_bound() {
    let root = fresh_root("deadline");
    // Large enough that an exact ILP cannot finish in 25 ms, small enough
    // that the warm-start incumbent exists immediately.
    let cfg = LayeredConfig {
        layers: 10,
        min_width: 4,
        max_width: 6,
        ..LayeredConfig::default()
    };
    let spec = JobSpec {
        budget_ms: Some(25),
        ..JobSpec::new(parse::to_text(&gen::layered(&cfg, 42)))
    };
    let (mut child, client) = spawn_daemon(&root, "deadline", "store", None, &[]);
    wait_ready(&client);
    let job = client.submit(spec).expect("submit acked");
    let result = result_of(&client, job);
    assert!(result.cancelled, "the budget must have expired mid-search");
    assert!(!result.proven_optimal);
    assert!(
        result.bound_ns > 0,
        "the served bound is a proven fact, not a placeholder"
    );
    assert!(
        result.bound_ns <= result.latency_ns,
        "a certified lower bound can never exceed the incumbent's latency"
    );
    shutdown(&client, &mut child);
    let _ = std::fs::remove_dir_all(&root);
}

/// Two concurrent daemons share one result store: the second daemon
/// serves the first daemon's published solve from disk (after
/// re-certifying it), and concurrent operation corrupts nothing.
#[test]
fn two_daemons_share_one_result_store_without_corruption() {
    let root = fresh_root("shared-store");
    let spec = JobSpec::new(fig4_text());

    let (mut a, client_a) = spawn_daemon(&root, "daemon-a", "store", None, &[]);
    let (mut b, client_b) = spawn_daemon(&root, "daemon-b", "store", None, &[]);
    wait_ready(&client_a);
    wait_ready(&client_b);

    // A solves and publishes; B must answer from the shared store.
    let job_a = client_a.submit(spec.clone()).expect("A accepts");
    let from_a = result_of(&client_a, job_a);
    let job_b = client_b.submit(spec.clone()).expect("B accepts");
    let from_b = result_of(&client_b, job_b);
    assert_eq!(from_a, from_b, "both daemons serve identical results");
    assert!(
        stats_of(&client_b).store_hits >= 1,
        "B served A's published result from the shared store"
    );

    // Concurrent submits of distinct statements to both daemons: every
    // job completes and the daemons agree on every statement.
    let chains: Vec<JobSpec> = (3..7)
        .map(|n| JobSpec::new(parse::to_text(&gen::chain(n, 120, 90, 4))))
        .collect();
    let jobs: Vec<(u64, u64)> = chains
        .iter()
        .map(|s| {
            (
                client_a.submit(s.clone()).expect("A accepts"),
                client_b.submit(s.clone()).expect("B accepts"),
            )
        })
        .collect();
    for (ja, jb) in jobs {
        assert_eq!(
            result_of(&client_a, ja),
            result_of(&client_b, jb),
            "concurrent daemons never disagree on a statement"
        );
    }
    shutdown(&client_a, &mut a);
    shutdown(&client_b, &mut b);
    let _ = std::fs::remove_dir_all(&root);
}

/// Admission control: with a budget cap set, unbounded or over-budget
/// submits are rejected with the documented code, in-budget work runs.
#[test]
fn admission_control_rejects_over_budget_work() {
    let root = fresh_root("admission");
    let (mut child, client) =
        spawn_daemon(&root, "capped", "store", None, &["--max-budget-ms", "5000"]);
    wait_ready(&client);

    let unbounded = client.request(&Request::Submit {
        spec: JobSpec::new(fig4_text()),
    });
    assert!(
        matches!(
            unbounded,
            Ok(Response::Error { ref code, .. }) if code == "over-budget"
        ),
        "unbounded work must be refused under a cap: {unbounded:?}"
    );
    let too_big = client.request(&Request::Submit {
        spec: JobSpec {
            budget_ms: Some(60_000),
            ..JobSpec::new(fig4_text())
        },
    });
    assert!(
        matches!(
            too_big,
            Ok(Response::Error { ref code, .. }) if code == "over-budget"
        ),
        "an over-cap budget must be refused: {too_big:?}"
    );

    let job = client
        .submit(JobSpec {
            budget_ms: Some(4_000),
            ..JobSpec::new(fig4_text())
        })
        .expect("in-budget work is admitted");
    let result = result_of(&client, job);
    assert!(result.latency_ns > 0);
    shutdown(&client, &mut child);
    let _ = std::fs::remove_dir_all(&root);
}

/// An injected dropped reply (`proto.reply=drop`) looks like an I/O error
/// to the client; the next request — the retry — succeeds, because
/// submits are journaled before the ack and requests are idempotent to
/// re-issue.
#[test]
fn dropped_replies_surface_as_io_errors_and_retries_succeed() {
    let root = fresh_root("drop");
    let (mut child, client) = spawn_daemon(&root, "droppy", "store", Some("proto.reply=drop"), &[]);
    wait_ready(&client); // the readiness probe itself eats the one drop
    let probe = client.request(&Request::Stats);
    assert!(
        probe.is_ok(),
        "after the armed drop, requests flow again: {probe:?}"
    );
    shutdown(&client, &mut child);
    let _ = std::fs::remove_dir_all(&root);
}

/// `Shutdown` answers a pending `Result` wait at once instead of keeping
/// the process alive until the wait expires, and it waits only for the
/// in-flight solve. Clients that connect during that drain get an error
/// at once. The waited-for job stays journaled and completes after a
/// restart.
#[test]
fn shutdown_answers_pending_waits_and_waits_only_for_in_flight_solves() {
    let root = fresh_root("shutdown-wait");
    // The one worker stalls 3 s on its first claim (job A), so job B
    // stays queued behind it.
    let (mut child, client) = spawn_daemon(
        &root,
        "waity",
        "store",
        Some("worker.claim.post=delay:3000"),
        &[],
    );
    wait_ready(&client);
    let a = client.submit(JobSpec::new(fig4_text())).expect("A acked");
    let claimed_by = Instant::now() + Duration::from_secs(20);
    while !matches!(
        client.request(&Request::Status { job: a }),
        Ok(Response::Status {
            phase: JobPhase::Running,
            ..
        })
    ) {
        assert!(Instant::now() < claimed_by, "the worker never claimed A");
        std::thread::sleep(Duration::from_millis(5));
    }
    let b = client
        .submit(JobSpec::new(parse::to_text(&gen::chain(4, 120, 90, 4))))
        .expect("B acked");

    // The waiter connects before the `Shutdown` does, so the daemon
    // accepts and serves it first.
    let mut waiter = UnixStream::connect(client.socket()).expect("waiter connects");
    let wait = Request::Result {
        job: b,
        wait_ms: Some(60_000),
    };
    let line = serde_json::to_string(&wait).expect("request encodes");
    waiter
        .write_all(format!("{line}\n").as_bytes())
        .expect("waiter writes");
    let waiter = std::thread::spawn(move || {
        let mut reply = String::new();
        BufReader::new(waiter).read_line(&mut reply).map(|_| reply)
    });
    let t0 = Instant::now();
    let ack = client.request(&Request::Shutdown);

    let late = client
        .clone()
        .with_timeout(Some(Duration::from_secs(10)))
        .request(&Request::Stats);
    let late_ms = t0.elapsed().as_millis();
    let draining = child.try_wait().expect("try_wait").is_none();

    let limit = t0 + Duration::from_secs(15);
    while !(waiter.is_finished() && child.try_wait().expect("try_wait").is_some())
        && Instant::now() < limit
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    let waiter_done = waiter.is_finished();
    let exited = child.try_wait().expect("try_wait");
    let _ = child.kill();
    let _ = child.wait();

    assert_eq!(ack.expect("shutdown acked"), Response::Ok);
    assert!(waiter_done, "the pending wait was not answered within 15 s");
    assert!(
        exited.is_some_and(|status| status.success()),
        "the daemon did not exit cleanly within 15 s: {exited:?}"
    );
    assert!(
        late.is_err() && late_ms < 5_000,
        "a request during the drain must fail at once: {late:?} after {late_ms} ms"
    );
    assert!(draining, "the probe must have met the draining daemon");
    let reply = waiter
        .join()
        .expect("waiter thread")
        .expect("the waiter reads a reply");
    match serde_json::from_str(reply.trim_end()).expect("reply parses") {
        Response::Error { code, message } => {
            assert_eq!(code, "not-done");
            assert!(message.contains("shutting down"), "{message}");
        }
        other => panic!("a pending wait must answer not-done: {other:?}"),
    }

    // Restart without faults: A finished during the drain, B runs now.
    let (mut revived, client) = spawn_daemon(&root, "waity", "store", None, &[]);
    wait_ready(&client);
    assert!(result_of(&client, a).latency_ns > 0);
    assert!(result_of(&client, b).latency_ns > 0);
    shutdown(&client, &mut revived);
    let _ = std::fs::remove_dir_all(&root);
}
