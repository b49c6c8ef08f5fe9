//! The daemon's accept path, driven in process: `server::run` on a
//! thread of the test, the way the end-to-end benchmark runs it.
//!
//! A broken `Shutdown` wake leaves `run` blocked in `accept` forever, so
//! every wait for `run` to return polls `JoinHandle::is_finished` against
//! a deadline: the test fails instead of hanging.

use sparcs::dfg::{gen, parse};
use sparcs::service::{Client, JobSpec, Request, Response, ResultSummary, ServiceStats};
use sparcsd::server::{self, Config};
use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A daemon on a thread of this process, over a fresh scratch root.
struct Daemon {
    root: PathBuf,
    socket: PathBuf,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(name: &str) -> Daemon {
        let root =
            std::env::temp_dir().join(format!("sparcsd-accept-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch root");
        let socket = root.join("sparcsd.sock");
        let config = Config::new(&socket, root.join("data"), root.join("store"));
        let thread = std::thread::spawn(move || server::run(config));
        let daemon = Daemon {
            root,
            socket,
            thread,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.client().request(&Request::Stats).is_err() {
            assert!(!daemon.thread.is_finished(), "run returned before serving");
            assert!(Instant::now() < deadline, "the daemon never answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon
    }

    fn client(&self) -> Client {
        Client::new(&self.socket).with_timeout(Some(CLIENT_TIMEOUT))
    }

    /// Sends `Shutdown` and requires `run` to return `Ok` within `limit`.
    /// Returns the scratch root for the caller to inspect and remove.
    fn shut_down(self, limit: Duration) -> PathBuf {
        let ack = self.client().request(&Request::Shutdown);
        assert_eq!(ack.expect("shutdown acked"), Response::Ok);
        let deadline = Instant::now() + limit;
        while !self.thread.is_finished() {
            assert!(
                Instant::now() < deadline,
                "run did not return within {limit:?} of the shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        self.thread
            .join()
            .expect("the daemon thread did not panic")
            .expect("run returns Ok");
        self.root
    }
}

/// One request per connection: each round trip passes through `accept`,
/// and a blocked `accept` answers at once. A 20 ms accept poll would put
/// every sequential request on its sleep.
#[test]
fn sequential_round_trips_are_not_paced_by_a_poll() {
    let daemon = Daemon::start("latency");
    let client = daemon.client();
    let mut ms: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let reply = client.request(&Request::Stats).expect("stats");
            assert!(matches!(reply, Response::Stats { .. }), "{reply:?}");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let root = daemon.shut_down(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(root);
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 10.0,
        "median Stats round trip {median:.2} ms; sorted: {ms:.2?}"
    );
}

/// `Shutdown` wakes an idle daemon's blocked `accept`: `run` returns, the
/// socket file is gone, and a later request fails instead of waiting.
#[test]
fn shutdown_of_an_idle_daemon_returns_and_removes_the_socket() {
    let daemon = Daemon::start("idle");
    let socket = daemon.socket.clone();
    let client = daemon.client();
    let root = daemon.shut_down(Duration::from_secs(5));
    assert!(
        root.exists() && !socket.exists(),
        "the socket file must be removed"
    );
    let t = Instant::now();
    let late = client.request(&Request::Stats);
    assert!(late.is_err(), "a stopped daemon cannot answer: {late:?}");
    assert!(
        t.elapsed() < CLIENT_TIMEOUT,
        "the late request must fail at once, not time out ({:?})",
        t.elapsed()
    );
    let _ = std::fs::remove_dir_all(root);
}

/// A fresh solve and a cached answer each fsync the journal twice: the
/// submit, before its ack, and the done. The claim and the progress note
/// in between are written without an fsync.
#[test]
fn a_served_answer_fsyncs_the_journal_twice() {
    let daemon = Daemon::start("syncs");
    let client = daemon.client();
    let spec = JobSpec::new(parse::to_text(&gen::fig4_example()));
    let stats = || -> ServiceStats {
        match client.request(&Request::Stats) {
            Ok(Response::Stats { stats }) => stats,
            other => panic!("unexpected stats reply: {other:?}"),
        }
    };
    let serve = || -> ResultSummary {
        let job = client.submit(spec.clone()).expect("submit acked");
        match client.request(&Request::Result {
            job,
            wait_ms: Some(60_000),
        }) {
            Ok(Response::Result { result, .. }) => result,
            other => panic!("job {job} did not complete: {other:?}"),
        }
    };

    let start = stats();
    assert_eq!(start.journal_syncs, 0, "a fresh daemon has fsynced nothing");
    let solved = serve();
    let after_solve = stats();
    let cached = serve();
    let after_hit = stats();
    let root = daemon.shut_down(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(root);

    assert_eq!(after_solve.journal_syncs, 2, "a fresh solve");
    assert_eq!(after_solve.cache_hits, 0);
    assert_eq!(after_hit.journal_syncs - after_solve.journal_syncs, 2);
    assert_eq!(after_hit.cache_hits, 1, "the resubmit is a cache hit");
    assert_eq!(cached, solved);
}
