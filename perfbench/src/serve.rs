//! Serving measurements: the in-process daemon driven open-loop over
//! loopback at a fixed rate ladder, with output checks against the
//! in-process engine and the daemon's own `GET /metrics`.

use crate::inputs::{generate, Workload};
use crate::stats::{median, quantile, tail_q, Raw};
use crate::train;
use srclda_core::FoldInConfig;
use srclda_serve::server::{http, json};
use srclda_serve::{
    EngineOptions, InferenceEngine, ModelArtifact, ModelRegistry, Server, ServerConfig,
    ServerHandle,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ratio of successive rungs above the nominal rate: a change in capacity
/// of more than a tenth moves the knee by at least one rung.
const STEP: f64 = 1.1;

/// Most requests a stream holds. The stream wraps around; at this length,
/// far more than the engine cache holds, a wrapped request is no cache hit.
const MAX_STREAM: usize = 8_000;

/// A workload's open-loop schedule: the nominal rate and the geometric
/// rungs `STEP` apart above it, up to `top`. A run is a series of steps,
/// each a fit slice, a slice at the nominal rate and one rung of a
/// staircase, so that every measurement samples the whole run.
struct Ladder {
    /// The rate whose latencies are reported as `infer_p50_ms`/`infer_p99_ms`.
    nominal: f64,
    /// The highest rung.
    top: f64,
    /// Latency limit on the tail percentile, in ms.
    limit_ms: f64,
    /// Seconds of one rung.
    rung_s: f64,
    /// Seconds of the nominal-rate slice of one step.
    nominal_s: f64,
    /// Seconds of the fit slice of one step.
    fit_s: f64,
    /// Interval of `POST /reload` and `GET /metrics` alongside the stream.
    control_every: Duration,
}

/// The serving workload's schedule. The nominal rate sits far below the
/// knee, so `infer_p50_ms` measures the unloaded request path; the limit
/// leaves room for a reload stall of tens of ms.
const LADDER: Ladder = Ladder {
    nominal: 1000.0,
    top: 40000.0,
    limit_ms: 50.0,
    rung_s: 1.0,
    nominal_s: 0.4,
    fit_s: 0.6,
    control_every: Duration::from_millis(100),
};

impl Ladder {
    /// The rungs above the nominal rate, ascending.
    fn grid(&self) -> Vec<f64> {
        let mut grid = Vec::new();
        let mut rate = self.nominal * STEP;
        while rate <= self.top {
            grid.push(rate.round());
            rate *= STEP;
        }
        grid
    }

    /// Requests one slice at `rate` sends.
    fn count(&self, rate: f64) -> usize {
        let secs = if rate == self.nominal {
            self.nominal_s
        } else {
            self.rung_s
        };
        (rate * secs).round().max(1.0) as usize
    }

    /// Steps in a run of `seconds`.
    fn steps(&self, seconds: f64) -> usize {
        ((seconds / (self.rung_s + self.nominal_s + self.fit_s)) as usize).max(4)
    }
}

/// Grid rungs a staircase moves at first.
const START_STEP: usize = 8;

/// Walk a grid of `len` rungs as a staircase of `steps` tests: up after a
/// pass, down after a failure, `START_STEP` rungs at a time at first and
/// half as many after every reversal, down to one rung. `run` tests one
/// rung and returns whether it passed and its index among the run's rungs.
/// Returns the indices of the passing tests made once the step was one
/// rung: they sit on the knee (the highest rung that passes) and follow it
/// as the host's speed drifts. Empty when the staircase never reversed
/// (every rung passed, or none did).
fn staircase(len: usize, steps: usize, run: &mut dyn FnMut(usize) -> (bool, usize)) -> Vec<usize> {
    let mut at = (START_STEP - 1).min(len.saturating_sub(1));
    let mut step = START_STEP;
    let mut last = None;
    let mut knee = Vec::new();
    for _ in 0..steps {
        let fine = step == 1;
        let (passed, index) = run(at);
        if last.is_some_and(|l| l != passed) {
            step = (step / 2).max(1);
        }
        last = Some(passed);
        if passed {
            if fine {
                knee.push(index);
            }
            at = (at + step).min(len - 1);
        } else {
            at = at.saturating_sub(step);
        }
    }
    knee
}

/// Engine options of the daemon and of the reference engine.
fn engine_options() -> EngineOptions {
    EngineOptions {
        fold_in: FoldInConfig::default(),
        cache_capacity: 1024,
    }
}

/// Train the served model once and write `model.slda` and `requests.txt`
/// into `dir`. Its held-out quality and output checks are the serving
/// workload's; this fit is input generation and is not timed (`measure`
/// times its own fits of the same model).
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Raw {
    let spec = workload.train_spec();
    let inputs = generate(workload, seed, MAX_STREAM);
    let mut raw = Raw::default();
    let fitted = match train::fit_once(&spec, &inputs, dir, false) {
        Ok((_, fitted)) => fitted,
        Err(e) => {
            raw.check(Err(e));
            return raw;
        }
    };
    raw.check(Ok(()));
    train::check_fitted(&fitted, &inputs, &mut raw);
    train::quality(&fitted, &inputs, &mut raw);
    let tokenizer = srclda_corpus::Tokenizer::permissive();
    let saved = ModelArtifact::from_fitted(&fitted, inputs.train.vocabulary(), &tokenizer)
        .map_err(|e| e.to_string())
        .and_then(|a| a.save(dir.join("model.slda")).map_err(|e| e.to_string()));
    raw.check(saved.map_err(|e| format!("saving the artifact: {e}")));
    let written = std::fs::write(dir.join("requests.txt"), inputs.requests.join("\n"));
    raw.check(written.map_err(|e| format!("writing requests: {e}")));
    raw
}

/// A running daemon.
struct Daemon {
    handle: ServerHandle,
    registry: Arc<ModelRegistry>,
    join: JoinHandle<()>,
}

impl Daemon {
    /// Load the artifact, build the registry and engine, bind, start the
    /// workers, and wait for the first `/healthz` 200. Returns the daemon
    /// and the seconds all of that took.
    ///
    /// The probe connects before the workers start, so it waits in the
    /// listen backlog and the first worker's first `accept` takes it. Probing
    /// after the start would add the phase of the workers' idle accept poll
    /// (`ServerConfig::poll_interval`, 25 ms), a timer unrelated to the
    /// set-up work.
    fn boot(path: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let registry = Arc::new(ModelRegistry::new(engine_options()));
        registry
            .load("bench", path)
            .map_err(|e| format!("registry load: {e}"))?;
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // One worker per CPU, and at least two: a worker serves one
            // connection at a time, and the request stream and the control
            // connection each hold one.
            workers: crate::stats::nproc().max(2),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, registry.clone()).map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
        let probe = Conn::open(handle.addr()).and_then(|mut conn| {
            let healthz = http_request("GET", "/healthz", "", "");
            conn.writer.write_all(healthz.as_bytes())?;
            Ok(conn)
        });
        let join = std::thread::spawn(move || {
            let _ = server.run();
        });
        let daemon = Daemon {
            handle,
            registry,
            join,
        };
        match probe.and_then(|mut conn| http::read_simple_response(&mut conn.reader)) {
            Ok((200, _)) => Ok((daemon, start.elapsed().as_secs_f64())),
            other => {
                daemon.stop();
                Err(format!("first /healthz: {other:?}"))
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}

/// A keep-alive client connection to the daemon.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one whole request and read the reply. One write per request:
    /// a request split over several segments can wait on delayed ACKs.
    fn send(&mut self, request: &str) -> std::io::Result<(u16, String)> {
        self.writer.write_all(request.as_bytes())?;
        http::read_simple_response(&mut self.reader)
    }
}

/// An HTTP/1.1 request with a body and optional extra header lines.
fn http_request(method: &str, path: &str, headers: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One request on a fresh connection, closed when it returns.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
) -> std::io::Result<(u16, String)> {
    Conn::open(addr)?.send(&http_request(method, path, headers, ""))
}

/// Unlabelled samples of one Prometheus text exposition.
type Prom = Vec<(String, f64)>;

/// Parse the samples out of a Prometheus text exposition.
fn prom_values(text: &str) -> Prom {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn prom_get(values: &Prom, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// One request's client-side timing, in ms from the rung start.
#[derive(Clone, Copy)]
struct Sample {
    /// When it was due.
    due: f64,
    /// Sent minus due.
    lateness: f64,
    /// Reply minus sent.
    service: f64,
    /// Reply minus due; infinite for a failed request.
    latency: f64,
}

/// The outcome of one rung.
struct Rung {
    rate: f64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    scheduled: usize,
    /// `(request index, body)` of sampled replies, for the θ check.
    bodies: Vec<(usize, String)>,
}

impl Rung {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency).collect()
    }

    /// Replies per second between the rung's first and last reply.
    fn achieved_rps(&self) -> f64 {
        let done: Vec<f64> = self.samples.iter().map(|s| s.due + s.latency).collect();
        let first = done.iter().copied().fold(f64::INFINITY, f64::min);
        let last = done.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if done.len() < 2 || last <= first {
            return 0.0;
        }
        (done.len() - 1) as f64 / (last - first) * 1e3
    }

    /// The tail latency and the median lateness of the last fifth, in ms.
    fn tail_and_backlog(&self) -> (f64, f64) {
        let lat = self.latencies();
        let last: Vec<f64> = self.samples[self.samples.len() * 4 / 5..]
            .iter()
            .map(|s| s.lateness)
            .collect();
        (quantile(&lat, tail_q(lat.len())), median(&last))
    }

    /// Whether the rung met the latency limit at its tail percentile with
    /// every request sent and no growing backlog.
    fn passes(&self, limit_ms: f64) -> bool {
        let (tail, backlog) = self.tail_and_backlog();
        self.samples.len() == self.scheduled && tail <= limit_ms && backlog <= limit_ms / 2.0
    }
}

/// Send `count` requests from `requests[offset..]`, wrapping around at the
/// end of the stream, open-loop at `rate` on one keep-alive connection.
/// Each request is timed from when it was due, so a stall also delays the
/// requests queued behind it. The rung stops early, failed, once a request
/// is sent `give_up` after it was due.
fn run_rung(
    addr: SocketAddr,
    requests: &[String],
    offset: usize,
    count: usize,
    rate: f64,
    give_up: Duration,
) -> Rung {
    let mut rung = Rung {
        rate,
        samples: Vec::with_capacity(count),
        failures: Vec::new(),
        scheduled: count,
        bodies: Vec::new(),
    };
    let keep_every = (count / 16).max(1);
    // Connect and warm the connection before the clock starts: the
    // daemon's workers poll for new connections, so a fresh connection's
    // first request would wait on the accept poll.
    let mut conn = match Conn::open(addr).and_then(|mut conn| {
        conn.send(&http_request("GET", "/healthz", "", ""))?;
        Ok(conn)
    }) {
        Ok(conn) => conn,
        Err(e) => {
            rung.failures.push(format!("connect: {e}"));
            return rung;
        }
    };
    let start = Instant::now() + Duration::from_millis(50);
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if sent.duration_since(due) > give_up {
            break;
        }
        let index = (offset + i) % requests.len();
        let result = conn.send(&requests[index]);
        let done = Instant::now();
        let mut sample = Sample {
            due: ms(due, start),
            lateness: ms(sent, due),
            service: ms(done, sent),
            latency: ms(done, due),
        };
        match result {
            Ok((200, reply)) => {
                if i % keep_every == 0 {
                    rung.bodies.push((index, reply));
                }
            }
            Ok((status, reply)) => {
                sample.latency = f64::INFINITY;
                rung.failures.push(format!(
                    "/infer returned {status}: {}",
                    reply.chars().take(120).collect::<String>()
                ));
            }
            Err(e) => {
                sample.latency = f64::INFINITY;
                rung.failures.push(format!("/infer: {e}"));
                rung.samples.push(sample);
                break;
            }
        }
        rung.samples.push(sample);
    }
    rung
}

/// Reloads and scrapes alongside the stream, and the engine cache counts
/// gathered before each hot-swap replaces the engine.
#[derive(Default)]
struct Control {
    reload_s: Vec<f64>,
    scrape_ms: Vec<f64>,
    failures: Vec<String>,
    hits: u64,
    misses: u64,
}

/// Reload and scrape every `every` until `stop`, idle while `pause`.
fn control_loop(
    daemon: &Daemon,
    every: Duration,
    stop: &AtomicBool,
    pause: &AtomicBool,
) -> Control {
    let mut c = Control::default();
    // One keep-alive connection, so each call pays for the work it asks
    // for and not for the daemon's accept poll.
    let mut conn: Option<Conn> = None;
    let mut call = |method: &str, path: &str, body: &str| -> std::io::Result<(u16, String)> {
        if conn.is_none() {
            conn = Some(Conn::open(daemon.addr())?);
        }
        let result = conn
            .as_mut()
            .expect("opened above")
            .send(&http_request(method, path, "", body));
        if result.is_err() {
            conn = None;
        }
        result
    };
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(every);
        if pause.load(Ordering::SeqCst) {
            continue;
        }
        let t = Instant::now();
        match call("GET", "/metrics", "") {
            Ok((200, body)) if json::parse(&body).is_ok() => {
                c.scrape_ms.push(t.elapsed().as_secs_f64() * 1e3)
            }
            Ok((status, _)) => c
                .failures
                .push(format!("GET /metrics returned {status} or bad json")),
            Err(e) => c.failures.push(format!("GET /metrics: {e}")),
        }
        if let Some(entry) = daemon.registry.get("bench") {
            let stats = entry.engine.cache_stats();
            c.hits += stats.hits;
            c.misses += stats.misses;
        }
        let t = Instant::now();
        match call("POST", "/reload", "{\"model\": \"bench\"}") {
            Ok((200, _)) => c.reload_s.push(t.elapsed().as_secs_f64()),
            Ok((status, body)) => c
                .failures
                .push(format!("POST /reload returned {status}: {body}")),
            Err(e) => c.failures.push(format!("POST /reload: {e}")),
        }
    }
    c
}

/// Server-side counters summed over the nominal-rate slices.
#[derive(Default)]
struct NominalProm {
    docs: f64,
    count: f64,
    latency_s: f64,
    compute_s: f64,
    shed: f64,
}

impl NominalProm {
    /// Add the counters' growth from `before` to `after`.
    fn add(&mut self, before: &Prom, after: &Prom) {
        let delta = |name: &str| prom_get(after, name) - prom_get(before, name);
        self.docs += delta("srclda_serve_infer_docs_total");
        self.count += delta("srclda_serve_infer_latency_seconds_count");
        self.latency_s += delta("srclda_serve_infer_latency_seconds_sum");
        self.compute_s += delta("srclda_serve_infer_compute_seconds_total");
        self.shed = prom_get(after, "srclda_serve_shed_total");
    }
}

/// The daemon's Prometheus exposition, parsed (empty when unreachable).
fn scrape(addr: SocketAddr) -> Prom {
    request(
        addr,
        "GET",
        "/metrics",
        "Accept: text/plain; version=0.0.4\r\n",
    )
    .map(|(_, body)| prom_values(&body))
    .unwrap_or_default()
}

/// Measure a serving workload on the inputs `prepare` wrote into `dir`:
/// daemon set-up, then steps of a fit slice (the served model's training
/// throughput), a slice at the nominal rate and one staircase rung, with
/// reloads and scrapes alongside the stream.
pub fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Raw {
    let mut raw = Raw::default();
    match std::fs::read_to_string(dir.join("prepare.json")).map(|t| json::parse(&t)) {
        Ok(Ok(prepared)) => raw.absorb(&prepared),
        _ => raw.check(Err("prepare.json missing or unreadable".into())),
    }
    let texts: Vec<String> = match std::fs::read_to_string(dir.join("requests.txt")) {
        Ok(t) => t.lines().map(str::to_string).collect(),
        Err(e) => {
            raw.check(Err(format!("requests.txt: {e}")));
            return raw;
        }
    };
    let model = dir.join("model.slda");
    let ladder = &LADDER;

    // Set-up: several boots, each torn down except the last.
    let boots = 41;
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..boots {
        match Daemon::boot(&model) {
            Ok((d, secs)) => {
                raw.check(Ok(()));
                setups.push(secs);
                if i + 1 < boots {
                    d.stop();
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                raw.check(Err(e));
                return raw;
            }
        }
    }
    let daemon = daemon.expect("the last boot is kept");
    raw.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "artifact load + registry/engine build + bind until /healthz 200",
    );

    // Pre-render whole requests so the generator only writes bytes.
    let requests: Vec<String> = texts
        .iter()
        .map(|t| {
            let body = json::obj(vec![("text", json::Value::from(t.as_str()))]).render();
            http_request("POST", "/infer", "", &body)
        })
        .collect();
    let spec = workload.train_spec();
    let grid = ladder.grid();
    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let mut nominal = Vec::new();
    let mut rungs = Vec::new();
    let mut prom = NominalProm::default();
    let mut series = train::Series::default();
    let mut rss = None;
    let mut knee = Vec::new();
    let control = std::thread::scope(|s| {
        let control = {
            let (daemon, stop, pause) = (&daemon, &stop, &pause);
            s.spawn(move || control_loop(daemon, ladder.control_every, stop, pause))
        };
        // A request this late exceeds the limit, and so does the backlog
        // behind it: the rung has failed, and need not run to its end.
        let give_up = Duration::from_secs_f64(4.0 * ladder.limit_ms / 1e3);
        let mut offset = 0usize;
        let mut slice = |rate: f64| {
            let count = ladder.count(rate);
            let rung = run_rung(daemon.addr(), &requests, offset, count, rate, give_up);
            offset += count;
            rung
        };
        let nominal_slice = |prom: &mut NominalProm, slice: &mut dyn FnMut(f64) -> Rung| {
            let before = if trace {
                scrape(daemon.addr())
            } else {
                Vec::new()
            };
            let rung = slice(ladder.nominal);
            if trace {
                prom.add(&before, &scrape(daemon.addr()));
            }
            rung
        };
        nominal.push(nominal_slice(&mut prom, &mut slice));
        // Peak RSS of the daemon serving at the nominal rate, read before
        // the training inputs and fits exist in this process.
        rss = crate::stats::peak_rss_mb();
        let inputs = generate(workload, seed, 0);
        let mut fitting = true;
        knee = staircase(grid.len(), ladder.steps(seconds), &mut |g| {
            if fitting {
                pause.store(true, Ordering::SeqCst);
                fitting = train::fit_for(
                    &mut series,
                    &spec,
                    &inputs,
                    dir,
                    ladder.fit_s,
                    trace,
                    &mut raw,
                    &mut |_, _| {},
                );
                pause.store(false, Ordering::SeqCst);
            }
            nominal.push(nominal_slice(&mut prom, &mut slice));
            let rung = slice(grid[g]);
            let passed = rung.passes(ladder.limit_ms);
            rungs.push((rung, passed));
            (passed, rungs.len() - 1)
        });
        stop.store(true, Ordering::SeqCst);
        control.join().expect("the control loop does not panic")
    });

    train::check_digests(&series, &mut raw);
    if !series.plain.is_empty() {
        raw.metric(
            "train_tokens_per_s",
            train::tokens_per_s(&series.plain),
            "tokens/s",
            series.plain.len(),
            "sweeps x tokens / fit_resumable wall, summed over the served model's fits spread over the run, NoopObserver",
        );
    }
    for rung in nominal.iter().chain(rungs.iter().map(|(r, _)| r)) {
        raw.checks(rung.samples.len() as u64, rung.failures.clone());
    }
    let nominal = Rung {
        rate: ladder.nominal,
        samples: nominal
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect(),
        failures: Vec::new(),
        scheduled: nominal.iter().map(|r| r.scheduled).sum(),
        bodies: nominal.into_iter().flat_map(|r| r.bodies).collect(),
    };
    let lat = nominal.latencies();
    let q = tail_q(lat.len());
    let how = format!(
        "client-observed, timed from due, at {} req/s; tail is p{:.1} of {}",
        ladder.nominal,
        q * 100.0,
        lat.len()
    );
    raw.metric("infer_p50_ms", median(&lat), "ms", lat.len(), &how);
    raw.metric("infer_p99_ms", quantile(&lat, q), "ms", lat.len(), &how);
    // The knee's replies/s: the mean over the staircase's passes at one
    // rung a step (rungs are a tenth apart, so a median would move in
    // whole rungs); without a reversal, the highest rung that passed; with
    // no rung passing, the nominal rate's.
    let max_rps = if knee.is_empty() {
        let passed = rungs
            .iter()
            .filter(|(_, p)| *p)
            .map(|(r, _)| r.achieved_rps());
        passed.fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.max(x))))
    } else {
        let sum: f64 = knee.iter().map(|&i| rungs[i].0.achieved_rps()).sum();
        Some(sum / knee.len() as f64)
    }
    .unwrap_or_else(|| nominal.achieved_rps());
    let tested: Vec<String> = rungs
        .iter()
        .map(|(r, p)| format!("{}{}", r.rate, if *p { "" } else { "x" }))
        .collect();
    let ladder_note = format!(
        "replies/s at the knee: mean over {} staircase passes at one rung a step \
         (tail <= {} ms, no growing backlog; rungs x{} apart from {} to {} req/s); \
         rungs tested, x = failed: {}",
        knee.len(),
        ladder.limit_ms,
        STEP,
        ladder.nominal,
        ladder.top,
        tested.join(" ")
    );
    raw.metric("infer_max_rps", max_rps, "1/s", knee.len(), &ladder_note);

    // Served θ must be bit-identical to the in-process engine's.
    let reference = ModelArtifact::load(&model)
        .map_err(|e| e.to_string())
        .and_then(|a| {
            InferenceEngine::from_artifact(&a, engine_options()).map_err(|e| e.to_string())
        });
    let sampled: Vec<&(usize, String)> = nominal
        .bodies
        .iter()
        .chain(rungs.iter().flat_map(|(r, _)| &r.bodies))
        .collect();
    match &reference {
        Ok(engine) => {
            for (i, body) in &sampled {
                raw.check(check_theta(engine, &texts[*i], body));
            }
        }
        Err(e) => raw.check(Err(format!("reference engine: {e}"))),
    }

    raw.checks(
        (control.reload_s.len() + control.scrape_ms.len()) as u64,
        control.failures.clone(),
    );
    if trace {
        if let Some(fitted) = &series.fitted {
            train::layer_metrics(&spec, &series, &mut raw);
            train::loglik_eval(fitted, &mut raw);
        }
        serve_layers(
            &mut raw,
            &daemon,
            &nominal,
            &prom,
            &control,
            &sampled,
            &texts,
            reference.ok(),
            &model,
        );
    }
    daemon.stop();
    crate::finish(&mut raw, rss);
    raw
}

/// The served θ in `body` equals, bit for bit, the engine's θ for `text`.
fn check_theta(engine: &InferenceEngine, text: &str, body: &str) -> Result<(), String> {
    let served: Vec<f64> = json::parse(body)
        .map_err(|e| format!("reply is not json: {e}"))?
        .get("theta")
        .and_then(json::Value::as_arr)
        .ok_or("reply has no theta")?
        .iter()
        .map(|v| v.as_f64().ok_or("theta entry is not a number"))
        .collect::<Result<_, _>>()?;
    let local = engine
        .infer(text)
        .map_err(|e| format!("reference infer: {e}"))?;
    train::rows_are_distributions("served theta", &served, served.len().max(1))?;
    let same = served.len() == local.theta().len()
        && served
            .iter()
            .zip(local.theta())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err("served theta differs from InferenceEngine::infer".into())
    }
}

/// Per-layer metrics of a serving run.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    raw: &mut Raw,
    daemon: &Daemon,
    nominal: &Rung,
    prom: &NominalProm,
    control: &Control,
    sampled: &[&(usize, String)],
    texts: &[String],
    engine: Option<InferenceEngine>,
    model: &Path,
) {
    let docs = prom.docs.max(1.0);
    let server_ms = prom.latency_s / prom.count.max(1.0) * 1e3;
    let compute_ms = prom.compute_s / docs * 1e3;
    let n = docs as usize;
    raw.metric(
        "server.latency_ms",
        server_ms,
        "ms",
        n,
        "mean of the /metrics latency histogram over the nominal-rate slices",
    );
    raw.metric(
        "server.compute_ms",
        compute_ms,
        "ms",
        n,
        "infer_compute_seconds_total / docs over the nominal-rate slices",
    );
    raw.metric(
        "server.overhead_ms",
        server_ms - compute_ms,
        "ms",
        n,
        "server latency - compute (the daemon times one interval for both)",
    );
    let service: Vec<f64> = nominal.samples.iter().map(|s| s.service).collect();
    let mean_service = service.iter().sum::<f64>() / service.len().max(1) as f64;
    raw.metric(
        "client.socket_ms",
        mean_service - server_ms,
        "ms",
        service.len(),
        "mean client send->reply - mean server latency",
    );
    let late: Vec<f64> = nominal.samples.iter().map(|s| s.lateness).collect();
    let q = tail_q(late.len());
    raw.metric(
        "client.lateness_ms",
        quantile(&late, q),
        "ms",
        late.len(),
        &format!("p{:.1} of due->send at the nominal rate", q * 100.0),
    );
    raw.metric(
        "server.shed",
        prom.shed,
        "count",
        1,
        "srclda_serve_shed_total",
    );

    let (hits, misses) = match daemon.registry.get("bench") {
        Some(entry) => {
            let s = entry.engine.cache_stats();
            (control.hits + s.hits, control.misses + s.misses)
        }
        None => (control.hits, control.misses),
    };
    raw.metric(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
        (hits + misses) as usize,
        "ModelEntry.engine.cache_stats(), summed across hot-swaps",
    );
    raw.metric(
        "registry.reload_s",
        median(&control.reload_s),
        "s",
        control.reload_s.len(),
        "client-observed POST /reload",
    );
    raw.metric(
        "metrics.scrape_ms",
        median(&control.scrape_ms),
        "ms",
        control.scrape_ms.len(),
        "client-observed GET /metrics (json)",
    );

    let mut parse_us = Vec::new();
    let mut render_us = Vec::new();
    for (_, body) in sampled {
        let t = Instant::now();
        let parsed = json::parse(body);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Ok(v) = parsed {
            let t = Instant::now();
            std::hint::black_box(v.render());
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    raw.metric(
        "json.parse_us",
        median(&parse_us),
        "us",
        parse_us.len(),
        "server::json::parse of sampled /infer replies",
    );
    raw.metric(
        "json.render_us",
        median(&render_us),
        "us",
        render_us.len(),
        "Value::render of the parsed replies",
    );

    let mut loads = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let ok = ModelArtifact::load(model).is_ok();
        loads.push(t.elapsed().as_secs_f64());
        raw.check(if ok {
            Ok(())
        } else {
            Err("artifact reload from disk failed".into())
        });
    }
    raw.metric(
        "artifact.load_s",
        median(&loads),
        "s",
        loads.len(),
        "ModelArtifact::load from disk",
    );
    let bytes = std::fs::metadata(model).map_or(0, |m| m.len());
    raw.metric(
        "artifact.bytes",
        bytes as f64,
        "bytes",
        1,
        "artifact file size",
    );

    if let Some(engine) = engine {
        let config = FoldInConfig::default();
        let replay = &texts[..texts
            .len()
            .min(if engine.num_topics() > 100 { 200 } else { 2000 })];
        let mut tok = Vec::new();
        let mut fold = Vec::new();
        for text in replay {
            let t = Instant::now();
            let (ids, _) = engine.tokenize(text);
            tok.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let _ = engine.inference().fold_in(&ids, &config);
            fold.push(t.elapsed().as_secs_f64() * 1e3);
        }
        raw.metric(
            "engine.tokenize_us",
            median(&tok),
            "us",
            tok.len(),
            "InferenceEngine::tokenize per request doc",
        );
        train::fold_in_metrics(&fold, raw, "Inference::fold_in replaying request token ids");
        let phi_bytes = engine.num_topics() * engine.inference().vocab_size() * 8;
        raw.info("nproc", json::Value::from(crate::stats::nproc()));
        raw.info(
            "llc_bytes",
            crate::stats::llc_bytes().map_or(json::Value::Null, json::Value::from),
        );
        raw.info("phi_bytes_computed", json::Value::from(phi_bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whatever the knee inside the grid, the staircase settles on it and
    /// reports only passes there; with every rung passing or none, it
    /// never reverses and reports nothing.
    #[test]
    fn staircase_settles_on_the_knee() {
        let len = 38;
        for knee in [0usize, 3, 7, 10, 17, 25, 31, 36] {
            let mut ran = Vec::new();
            let found = staircase(len, 30, &mut |g| {
                ran.push(g);
                (g <= knee, ran.len() - 1)
            });
            assert!(!found.is_empty(), "knee {knee}: no passes at the knee");
            assert!(
                found.iter().all(|&i| ran[i] == knee),
                "knee {knee}: passes at {:?}",
                found.iter().map(|&i| ran[i]).collect::<Vec<_>>()
            );
        }
        for pass in [true, false] {
            let mut n = 0;
            let found = staircase(len, 30, &mut |_| {
                n += 1;
                (pass, n - 1)
            });
            assert!(found.is_empty(), "all {pass}: {found:?}");
        }
    }
}
