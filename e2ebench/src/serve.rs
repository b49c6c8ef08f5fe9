//! The in-process `sparcsd` and the closed-loop clients that drive it.

use crate::trace::{Ctx, Tracer};
use sparcs::service::{Client, JobSpec, Request, Response, ResultSummary, ServiceStats};
use sparcsd::server::{self, Config};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients, as many as the daemon's default workers (the
/// machine this benchmark was written on has 2 processors).
pub const CLIENTS: usize = 2;
/// Client read timeout: far above any single request of these workloads,
/// far below the benchmark's own time limit.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a `Result` request may hold waiting for its job.
const RESULT_WAIT_MS: u64 = 50_000;

/// A daemon running on a thread of this process, with its own data and
/// store directories.
pub struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    /// Starts a daemon with `Config::new` defaults over `dir` (its
    /// journal and store are created there, or replayed when present) and
    /// waits until it answers.
    ///
    /// # Errors
    ///
    /// Start-up failures, or a daemon that never answers.
    pub fn start(dir: &Path) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        // A relative socket path stays under the 108-byte `sun_path`
        // limit however deep the checkout is.
        let socket = dir.join("sparcsd.sock");
        let config = Config::new(&socket, dir.join("data"), dir.join("store"));
        let thread = std::thread::spawn(move || server::run(config));
        let daemon = Daemon {
            dir: dir.to_path_buf(),
            socket,
            thread: Some(thread),
        };
        let t0 = Instant::now();
        while daemon.client().request(&Request::Stats).is_err() {
            if t0.elapsed() > Duration::from_secs(30)
                || daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
            {
                return Err(io::Error::other("sparcsd did not come up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// The daemon's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A client for this daemon.
    pub fn client(&self) -> Client {
        Client::new(&self.socket).with_timeout(Some(CLIENT_TIMEOUT))
    }

    /// The daemon's counters.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn stats(&self) -> Result<ServiceStats, String> {
        match self.client().request(&Request::Stats) {
            Ok(Response::Stats { stats }) => Ok(stats),
            other => Err(format!("stats: {other:?}")),
        }
    }

    /// Orderly shutdown; waits for the daemon thread to end.
    ///
    /// # Errors
    ///
    /// The daemon's own exit error, or a shutdown it did not acknowledge.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let ack = self.client().request(&Request::Shutdown);
        let exit = thread.join();
        match (ack, exit) {
            (Ok(Response::Ok), Ok(Ok(()))) => Ok(()),
            (ack, exit) => Err(format!("shutdown: ack {ack:?}, exit {exit:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One submit→result round trip.
#[derive(Debug, Clone)]
pub struct Served {
    /// Index of the statement in the workload's pool.
    pub statement: usize,
    /// Submit→certified result, ms.
    pub total_ms: f64,
    /// The served result, or why there is none.
    pub result: Result<ResultSummary, String>,
}

fn round_trip(
    client: &Client,
    job: JobSpec,
    statement: usize,
    tracer: &Tracer,
    ctx: Ctx,
) -> Served {
    let t0 = Instant::now();
    let submitted = tracer.span(ctx, "sparcsd.submit", |_| client.submit(job));
    let result = match submitted {
        Ok(job) => tracer.span(ctx, "sparcsd.result", |_| {
            match client.request(&Request::Result {
                job,
                wait_ms: Some(RESULT_WAIT_MS),
            }) {
                Ok(Response::Result { result, .. }) => Ok(result),
                Ok(other) => Err(format!("job {job}: {other:?}")),
                Err(e) => Err(format!("job {job}: {e}")),
            }
        }),
        Err(e) => Err(format!("submit: {e}")),
    };
    Served {
        statement,
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

/// A closed loop: [`CLIENTS`] threads each send `Submit`, then
/// `Result{wait_ms}`, then take the next statement of `sequence`, until
/// the sequence is exhausted. Returns every round trip and the loop's wall
/// time.
pub fn closed_loop(
    daemon: &Daemon,
    jobs: &[JobSpec],
    sequence: &[usize],
    tracer: &Tracer,
) -> (Vec<Served>, Duration) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let served: Vec<Served> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = daemon.client();
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // relaxed-ok: a ticket counter; no other memory is
                        // published through it.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&statement) = sequence.get(i) else {
                            break;
                        };
                        let op = tracer.op();
                        mine.push(tracer.span(op, "serve.request", |ctx| {
                            round_trip(&client, jobs[statement].clone(), statement, tracer, ctx)
                        }));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    (served, t0.elapsed())
}
