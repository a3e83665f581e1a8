//! The serve session of the traced `family-sweep` run: the real `ccserve`
//! binary under open-loop traffic, measured per layer.
//!
//! The daemon runs as a child process (`--workers` = cores, `--cache-log`
//! in the run's directory, the default `always` fsync policy).  One
//! generator process drives it over at most `cores / 2` connections, each
//! with one sending and one receiving thread, so the generator never
//! holds more threads than there are cores.
//!
//! **Traffic.**  Keys are drawn from a seeded Zipf stream over a fixed key
//! universe: Table II protocols at explicit admissible valuations (or
//! daemon-selected ones), and generated family points x seeds.  Requests
//! arrive open loop: a seeded Poisson schedule fixes each request's
//! *intended* send time before the phase starts, sends never wait for
//! responses, and latency is timed from the intended send, so a stall
//! counts against every request it delays.  `loadgen.lag_p99_ms` reports
//! how late the sender ran; a session whose generator fell more than
//! [`MAX_LAG_MS`] behind at p99 marks the run invalid (see
//! [`Report::invalid`]) rather than reporting its figures.
//!
//! **Phases.**  Warm-up (every Table II key once, then a stretch of the
//! stream), the nominal rate ([`NOMINAL_RPS`]: the stream whose requests,
//! responses and misses the wire, job and store layers replay), the high
//! rate ([`HIGH_RPS`]: loaded pings and sampled queue and server counters),
//! then SIGKILL and a restart on the same log.  The rates were fixed once,
//! from measurements of the commit that introduced the benchmark (capacity
//! about 800-1000 req/s on 2 cores), so later changes are compared at the
//! same offered load.
//!
//! **Gates.**  Every definite verdict served for a key must equal the
//! in-process `CheckJob` oracle for the same (source, valuation) (checked
//! on a bounded sample of keys), every repeat of a key must repeat its
//! verdicts, and after the restart every recently acknowledged definite
//! verdict must be served identically from the recovered cache.
//!
//! Attempts are the requests of the nominal and high phases; failures are
//! `Overloaded`, `Rejected` and `Error` responses, `?` verdicts and I/O
//! errors among them.
//!
//! There is no serve workload with end-to-end figures: on a 2-core virtual
//! machine shared with other tenants its millisecond latency tails moved by
//! 20-60% (quartile spread over median) between runs of the same code,
//! wider than any bound that could still catch a regression.

use crate::batch::resolve_source;
use crate::cores;
use crate::gen::{poisson_schedule, zipf_stream, SplitMix64, Zipf};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use ccchecker::{CheckJob, CheckerOptions, JobOutcome, Spec};
use cccore::fingerprint::{
    spec_fingerprint, system_fingerprint, valuation_fingerprint, verdict_code,
};
use cccore::VerifierConfig;
use cccounter::CounterSystem;
use ccprotocols::family::{FamilyParams, FaultModel};
use ccserve::cache::CachedVerdict;
use ccserve::wire::{
    decode_response, encode_request, encode_response, read_frame, write_frame, CheckRequest,
    Priority, Request, Response, Source, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use ccserve::{FsyncPolicy, VerdictLog};
use ccta::ParamValuation;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The nominal offered rate, requests per second.
const NOMINAL_RPS: f64 = 150.0;
/// The fixed high offered rate: about a third of the capacity of the
/// commit that introduced the benchmark.
const HIGH_RPS: f64 = 300.0;
/// The generator is invalid beyond this lag at p99.
const MAX_LAG_MS: f64 = 25.0;
/// Zipf key universe size and exponent.
const ZIPF_KEYS: usize = 1 << 14;
const ZIPF_EXPONENT: f64 = 1.05;
/// Keys checked against the in-process oracle per session.
const ORACLE_KEYS: usize = 48;
/// Acknowledged keys re-requested after the restart.
const RECOVERY_KEYS: usize = 256;
/// Distinct nominal-phase miss keys whose jobs the job layer replays.
const JOB_KEYS: usize = 24;

/// One request shape: a source and its explicit valuations (empty: the
/// daemon selects).
#[derive(Debug, Clone)]
struct Key {
    source: Source,
    valuations: Vec<Vec<u64>>,
}

impl Key {
    fn label(&self) -> String {
        format!("{:?}{:?}", self.source, self.valuations)
    }

    fn request(&self, id: u64) -> Request {
        Request::Check(CheckRequest {
            id,
            priority: Priority::Normal,
            deadline_ms: 0,
            source: self.source.clone(),
            valuations: self.valuations.clone(),
            obligations: vec![],
            progress: false,
            park_on_interrupt: false,
        })
    }
}

/// The fixed key universe: rank -> key.
struct Universe {
    table2: Vec<Key>,
    points: Vec<FamilyParams>,
}

impl Universe {
    fn new() -> Self {
        let grid = VerifierConfig {
            max_param_value: 8,
            max_processes: 4,
            max_valuations: 3,
            ..VerifierConfig::default()
        };
        let mut table2 = Vec::new();
        for p in ccprotocols::all_protocols() {
            let model = p.single_round();
            let name = p.name().to_string();
            table2.push(Key {
                source: Source::Protocol(name.clone()),
                valuations: vec![],
            });
            for v in grid.select_valuations(&model) {
                table2.push(Key {
                    source: Source::Protocol(name.clone()),
                    valuations: vec![v.values().to_vec()],
                });
            }
        }
        let base = FamilyParams {
            phases: 1,
            width: 1,
            fanout: 1,
            guard_density: 0,
            shared_vars: 1,
            coin_vars: 2,
            faults: FaultModel::Byzantine,
            resilience: 2,
        };
        let points = vec![
            base.clone(),
            FamilyParams {
                faults: FaultModel::Crash,
                ..base.clone()
            },
            FamilyParams {
                width: 2,
                guard_density: 50,
                ..base.clone()
            },
            FamilyParams {
                phases: 2,
                guard_density: 60,
                ..base
            },
        ];
        Universe { table2, points }
    }

    /// The key of a Zipf rank: a fixed mix, so the cost of the head and of
    /// the tail is the same for every workload seed.
    fn key(&self, rank: usize) -> Key {
        let h = SplitMix64::new(rank as u64).next_u64();
        if h % 8 < 3 {
            self.table2[(h >> 8) as usize % self.table2.len()].clone()
        } else {
            Key {
                source: Source::Family {
                    params: self.points[(h >> 8) as usize % self.points.len()].clone(),
                    seed: rank as u64,
                },
                valuations: vec![],
            }
        }
    }
}

/// A running daemon child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `ccserve` on `log` and waits for its first answered ping.
    fn spawn(bin: &Path, dir: &Path, log: &Path) -> Result<Daemon, String> {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let started = Instant::now();
        let child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--workers", &cores().to_string(), "--cache-log"])
            .arg(log)
            .args(["--stats-interval", "3600"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: "127.0.0.1:0".parse().unwrap(),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    daemon.addr = addr;
                    break;
                }
            }
            if started.elapsed() > Duration::from_secs(20) {
                return Err("ccserve never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut conn = Conn::open(daemon.addr)?;
        match conn.call(&Request::Ping)? {
            Response::Pong => Ok(daemon),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }
}

impl Drop for Daemon {
    /// SIGKILL, then reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One blocking connection speaking the wire protocol.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        write_frame(&mut self.stream, &encode_request(req)).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        let payload =
            read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(|e| format!("recv: {e}"))?;
        decode_response(&payload).map_err(|e| format!("decode: {e}"))
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }
}

/// What one request's terminal response said.
#[derive(Debug, Clone)]
enum Answer {
    /// Verdict glyphs per cell and whether every verdict was a cache hit.
    Verdict {
        codes: Vec<Vec<u8>>,
        cached: bool,
    },
    Failed(String),
}

impl Answer {
    fn of(resp: &Response) -> Answer {
        match resp {
            Response::Verdict { cells, .. } => Answer::Verdict {
                codes: cells
                    .iter()
                    .map(|c| c.verdicts.iter().map(|v| v.code).collect())
                    .collect(),
                cached: cells.iter().all(|c| c.verdicts.iter().all(|v| v.cached)),
            },
            other => Answer::Failed(format!("{other:?}")),
        }
    }

    fn definite(&self) -> Option<&Vec<Vec<u8>>> {
        match self {
            Answer::Verdict { codes, .. } if codes.iter().flatten().all(|&c| c != b'?') => {
                Some(codes)
            }
            _ => None,
        }
    }
}

/// One request of a phase, as the generator saw it.
struct Sent {
    key: usize,
    intended: Instant,
    sent: Option<Instant>,
    done: Option<Instant>,
    answer: Option<Answer>,
}

/// What a phase measured.
struct Phase {
    requests: Vec<Sent>,
    /// Raw terminal responses, kept for the wire replay of a traced run.
    responses: Vec<Response>,
    /// Ping round trips in microseconds and sampled server counters.
    pings_us: Vec<f64>,
    stats: Vec<StatsSnapshot>,
}

impl Phase {
    fn lags_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|r| Some(ms(r.sent?.saturating_duration_since(r.intended))))
            .collect()
    }

    fn failures(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| !matches!(&r.answer, Some(a) if a.definite().is_some()))
            .count()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `keys[i]` at `start + offsets[i]` over the connections, open
/// loop, and collects every terminal response.  With `sample`, each sender
/// also interleaves a ping and a stats request every 10 ms.
fn drive(
    addr: SocketAddr,
    keys: &[Key],
    stream: &[usize],
    offsets: &[Duration],
    sample: bool,
    keep_responses: bool,
) -> Result<Phase, String> {
    let conns = (cores() / 2).max(1);
    let start = Instant::now() + Duration::from_millis(20);
    let requests: Vec<Mutex<Sent>> = stream
        .iter()
        .zip(offsets)
        .map(|(&key, &off)| {
            Mutex::new(Sent {
                key,
                intended: start + off,
                sent: None,
                done: None,
                answer: None,
            })
        })
        .collect();
    let collected = Mutex::new((Vec::new(), Vec::new(), Vec::new()));
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..conns {
            let mut tx = match Conn::open(addr) {
                Ok(tx) => tx,
                Err(e) => {
                    errors.lock().unwrap().push(e);
                    continue;
                }
            };
            let mut rx = Conn {
                stream: tx.stream.try_clone().expect("clone the socket"),
            };
            let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
            let pings = Mutex::new(VecDeque::new());
            let (requests, collected, errors) = (&requests, &collected, &errors);
            let expected = mine.len();
            let pings = std::sync::Arc::new(pings);
            let rx_pings = std::sync::Arc::clone(&pings);
            s.spawn(move || {
                let mut next_sample = start;
                for i in mine {
                    let (intended, key) = {
                        let r = requests[i].lock().unwrap();
                        (r.intended, r.key)
                    };
                    while sample && next_sample <= intended {
                        let now = Instant::now();
                        if next_sample > now {
                            std::thread::sleep(next_sample - now);
                        }
                        rx_pings.lock().unwrap().push_back(Instant::now());
                        let _ = tx.send(&Request::Ping);
                        let _ = tx.send(&Request::Stats);
                        next_sample += Duration::from_millis(10);
                    }
                    let now = Instant::now();
                    if intended > now {
                        std::thread::sleep(intended - now);
                    }
                    let req = keys[key].request(i as u64);
                    requests[i].lock().unwrap().sent = Some(Instant::now());
                    if let Err(e) = tx.send(&req) {
                        errors.lock().unwrap().push(e);
                        return;
                    }
                }
            });
            s.spawn(move || {
                let mut answered = 0;
                let mut local = (Vec::new(), Vec::new(), Vec::new());
                while answered < expected {
                    let resp = match rx.recv() {
                        Ok(r) => r,
                        Err(e) => {
                            errors.lock().unwrap().push(e);
                            break;
                        }
                    };
                    let now = Instant::now();
                    match &resp {
                        Response::Pong => {
                            if let Some(t) = pings.lock().unwrap().pop_front() {
                                local.1.push(now.duration_since(t).as_secs_f64() * 1e6);
                            }
                        }
                        Response::Stats(snap) => local.2.push(snap.clone()),
                        Response::Progress { .. } => {}
                        terminal => {
                            let id = terminal.request_id().unwrap_or(u64::MAX) as usize;
                            let Some(slot) = requests.get(id) else {
                                errors.lock().unwrap().push(format!("unknown id {id}"));
                                break;
                            };
                            let mut r = slot.lock().unwrap();
                            r.done = Some(now);
                            r.answer = Some(Answer::of(terminal));
                            answered += 1;
                            if keep_responses {
                                local.0.push(resp);
                            }
                        }
                    }
                }
                let mut all = collected.lock().unwrap();
                all.0.extend(local.0);
                all.1.extend(local.1);
                all.2.extend(local.2);
            });
        }
    });
    let errors = errors.into_inner().unwrap();
    if let Some(e) = errors.first() {
        return Err(format!("load generator: {e} ({} errors)", errors.len()));
    }
    let (responses, pings_us, stats) = collected.into_inner().unwrap();
    Ok(Phase {
        requests: requests
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
        responses,
        pings_us,
        stats,
    })
}

/// The generator's running state: the Zipf stream position, so phases
/// continue one stream.
struct Traffic {
    seed: u64,
    stream: Vec<usize>,
    used: usize,
    phases: usize,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        let zipf = Zipf::new(ZIPF_KEYS, ZIPF_EXPONENT);
        Traffic {
            seed,
            stream: zipf_stream(seed, &zipf, 200_000),
            used: 0,
            phases: 0,
        }
    }

    /// The next phase's ranks and intended offsets at `rate` over `span`.
    fn phase(&mut self, rate: f64, span: Duration) -> (Vec<usize>, Vec<Duration>) {
        self.phases += 1;
        let offsets = poisson_schedule(self.seed ^ (self.phases as u64) << 32, rate, span);
        let n = offsets.len();
        if self.used + n > self.stream.len() {
            self.used = 0;
        }
        let ranks = self.stream[self.used..self.used + n].to_vec();
        self.used += n;
        (ranks, offsets)
    }
}

/// Acknowledged definite verdicts by key, and the gate on repeats.
#[derive(Default)]
struct Acked {
    by_key: HashMap<usize, Vec<Vec<u8>>>,
    /// First-seen order of the keys.
    order: Vec<usize>,
}

impl Acked {
    fn absorb(&mut self, phase: &Phase, report: &mut Report, keys: &[Key]) {
        for r in &phase.requests {
            let Some(codes) = r.answer.as_ref().and_then(Answer::definite) else {
                continue;
            };
            match self.by_key.get(&r.key) {
                None => {
                    self.by_key.insert(r.key, codes.clone());
                    self.order.push(r.key);
                }
                Some(first) if first == codes => {}
                Some(_) => report.violation(format!(
                    "{}: a repeated request changed its verdicts",
                    keys[r.key].label()
                )),
            }
        }
    }
}

/// Compiles a key's counter systems and specs as the daemon's `run_check`
/// does: explicit valuations as given, else at most four selected ones.
fn compile(key: &Key) -> Result<(Vec<CounterSystem>, Vec<Spec>), String> {
    let r = resolve_source(
        &key.source,
        &VerifierConfig::quick(),
        &Tracer::new(false),
        0,
    )?;
    let valuations: Vec<ParamValuation> = if key.valuations.is_empty() {
        // the daemon's default cap on auto-selected valuations
        r.valuations.into_iter().take(4).collect()
    } else {
        key.valuations
            .iter()
            .map(|raw| ParamValuation::new(raw.clone()))
            .collect()
    };
    let systems = valuations
        .into_iter()
        .map(|v| {
            CounterSystem::new(r.model.clone(), v).map_err(|e| format!("counter system: {e:?}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((systems, r.specs))
}

/// The in-process oracle: a fresh `CheckJob` per valuation.
fn oracle(key: &Key) -> Result<Vec<Vec<u8>>, String> {
    let (systems, specs) = compile(key)?;
    systems
        .iter()
        .map(
            |sys| match CheckJob::new(sys, &specs, CheckerOptions::default()).run() {
                JobOutcome::Completed { outcomes, .. } => {
                    Ok(outcomes.iter().map(|o| verdict_code(o.status)).collect())
                }
                _ => Err("an unlimited job did not complete".to_string()),
            },
        )
        .collect()
}

/// Checks up to [`ORACLE_KEYS`] acknowledged keys against the oracle.
fn oracle_gate(acked: &Acked, keys: &[Key], report: &mut Report) {
    for &k in acked.order.iter().take(ORACLE_KEYS) {
        match oracle(&keys[k]) {
            Ok(codes) if codes == acked.by_key[&k] => {}
            Ok(_) => report.violation(format!(
                "{}: served verdicts differ from the in-process CheckJob",
                keys[k].label()
            )),
            Err(e) => report.violation(format!("{}: oracle: {e}", keys[k].label())),
        }
    }
}

/// Restarts the daemon on its log and requires the most recently
/// acknowledged keys (up to [`RECOVERY_KEYS`]) to be served identically: a
/// recovered verdict must be an acknowledged one, and one the bounded cache
/// dropped is recomputed.  Returns how many verdicts the log replayed.
fn restart_gate(
    bin: &Path,
    dir: &Path,
    log: &Path,
    acked: &Acked,
    keys: &[Key],
    report: &mut Report,
) -> Result<u64, String> {
    let daemon = Daemon::spawn(bin, dir, log)?;
    let mut conn = Conn::open(daemon.addr)?;
    let recovered = match conn.call(&Request::Stats)? {
        Response::Stats(s) => s.log_recovered,
        other => return Err(format!("expected stats, got {other:?}")),
    };
    for (id, &k) in acked.order.iter().rev().take(RECOVERY_KEYS).enumerate() {
        match Answer::of(&conn.call(&keys[k].request(id as u64))?) {
            Answer::Verdict { codes, .. } if codes == acked.by_key[&k] => {}
            Answer::Verdict { codes, .. } => report.violation(format!(
                "{}: after restart verdicts {codes:?} differ from the acknowledged {:?}",
                keys[k].label(),
                acked.by_key[&k]
            )),
            Answer::Failed(why) => report.violation(format!(
                "{}: after restart the request failed: {why}",
                keys[k].label()
            )),
        }
    }
    Ok(recovered)
}

/// Runs one serve session of about `seconds` and records the daemon-side
/// per-layer metrics; the job, wire and store replays record their spans
/// into `tracer`.
pub fn session(seed: u64, seconds: f64, out: &Path, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(seed, seconds, out, tracer, &mut report) {
        report.violation(e);
    }
    // the daemons are gone: their logs and port files are not results
    let _ = std::fs::remove_dir_all(out);
    report
}

fn run_inner(
    seed: u64,
    seconds: f64,
    out: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds);
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("ccserve");
    let universe = Universe::new();
    let keys: Vec<Key> = (0..ZIPF_KEYS).map(|r| universe.key(r)).collect();
    let mut traffic = Traffic::new(seed);

    let dir = out.join("daemon");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = dir.join("verdicts.cclog");
    let daemon = Daemon::spawn(&bin, &dir, &log)?;
    let addr = daemon.addr;

    let mut conn = Conn::open(addr)?;
    let mut idle_pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        conn.call(&Request::Ping)?;
        idle_pings.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // warm-up: every Table II key once, so the nominal phase's misses come
    // from the Zipf stream rather than from a few costly keys' first
    // appearance; then a stretch of the stream itself
    for (i, key) in universe.table2.iter().enumerate() {
        if Answer::of(&conn.call(&key.request(i as u64))?)
            .definite()
            .is_none()
        {
            return Err(format!("{}: no definite verdict", key.label()));
        }
    }
    let mut acked = Acked::default();
    let (ranks, offsets) = traffic.phase(NOMINAL_RPS, budget.mul_f64(0.08));
    let warm = drive(addr, &keys, &ranks, &offsets, false, false)?;
    acked.absorb(&warm, report, &keys);
    let (ranks, offsets) = traffic.phase(NOMINAL_RPS, budget.mul_f64(0.36));
    let nominal = drive(addr, &keys, &ranks, &offsets, false, true)?;
    acked.absorb(&nominal, report, &keys);
    let (ranks, offsets) = traffic.phase(HIGH_RPS, budget.mul_f64(0.24));
    let high = drive(addr, &keys, &ranks, &offsets, true, false)?;
    acked.absorb(&high, report, &keys);
    let mut lags = nominal.lags_ms();
    lags.extend(high.lags_ms());
    let lag = stats::tail(&lags).map_or(0.0, |(_, v)| v);
    if lag > MAX_LAG_MS {
        report.invalid = Some(format!(
            "the load generator fell {lag:.1} ms behind its schedule at the tail"
        ));
        return Ok(());
    }
    for phase in [&nominal, &high] {
        report.attempted += phase.requests.len() as u64;
        report.failed += phase.failures() as u64;
    }
    let final_stats = conn.call(&Request::Stats)?;

    // SIGKILL, then restart on the same log
    drop(conn);
    drop(daemon);
    let log_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
    let recovered = restart_gate(&bin, &dir, &log, &acked, &keys, report)?;
    oracle_gate(&acked, &keys, report);

    traced_layers(
        TracedInputs {
            keys: &keys,
            nominal: &nominal,
            high: &high,
            idle_pings,
            final_stats,
            log_bytes,
            recovered,
            lag,
            dir: &dir,
        },
        tracer,
        report,
    )
}

struct TracedInputs<'a> {
    keys: &'a [Key],
    nominal: &'a Phase,
    high: &'a Phase,
    idle_pings: Vec<f64>,
    final_stats: Response,
    log_bytes: u64,
    recovered: u64,
    lag: f64,
    dir: &'a Path,
}

/// The daemon-side per-layer metrics: job, wire, transport, queue, server,
/// cache, store and load generator.
fn traced_layers(t: TracedInputs, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    // job.run on the first [`JOB_KEYS`] distinct miss keys of the nominal
    // phase: a fixed unit of work, whatever the machine's speed
    let mut misses: Vec<usize> = Vec::new();
    for r in &t.nominal.requests {
        if matches!(r.answer, Some(Answer::Verdict { cached: false, .. }))
            && !misses.contains(&r.key)
            && misses.len() < JOB_KEYS
        {
            misses.push(r.key);
        }
    }
    let mut job_ms = Vec::new();
    let mut verdict_stream = Vec::new();
    for &k in &misses {
        let (systems, specs) = compile(&t.keys[k])?;
        for sys in &systems {
            let t0 = Instant::now();
            let outcome = tracer.span("job.run", k as u64, || {
                CheckJob::new(sys, &specs, CheckerOptions::default()).run()
            });
            job_ms.push(ms(t0.elapsed()));
            if let JobOutcome::Completed { outcomes, .. } = outcome {
                let sfp = system_fingerprint(sys.model());
                let vfp = valuation_fingerprint(sys.params());
                for (spec, o) in specs.iter().zip(outcomes) {
                    verdict_stream.push((
                        (sfp, vfp, spec_fingerprint(spec)),
                        CachedVerdict {
                            status: o.status,
                            states_explored: o.states_explored,
                            transitions_explored: o.transitions_explored,
                            detail: o.detail,
                        },
                    ));
                }
            }
        }
    }
    report.latency(&job_ms, "job.run_p50_ms", "job.run_p99_ms");

    // wire: encode and decode the nominal phase's requests and responses
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    for (i, r) in t.nominal.requests.iter().enumerate() {
        let req = t.keys[r.key].request(i as u64);
        let payload = tracer.span("wire.encode", i as u64, || encode_request(&req));
        req_bytes.push(payload.len() as f64);
        tracer
            .span("wire.decode", i as u64, || {
                ccserve::wire::decode_request(&payload)
            })
            .map_err(|e| format!("request does not round-trip: {e}"))?;
    }
    for (i, resp) in t.nominal.responses.iter().enumerate() {
        let payload = tracer.span("wire.encode", i as u64, || encode_response(resp));
        resp_bytes.push(payload.len() as f64);
        let back = tracer
            .span("wire.decode", i as u64, || decode_response(&payload))
            .map_err(|e| format!("response does not round-trip: {e}"))?;
        if &back != resp {
            report.violation("a response does not round-trip through the wire codec");
        }
    }
    for (metric, span) in [
        ("wire.encode_us", "wire.encode"),
        ("wire.decode_us", "wire.decode"),
    ] {
        let us = tracer.durations_us(span);
        report.set(
            metric,
            stats::median(&us).unwrap_or(0.0),
            us.len(),
            "median",
        );
    }
    report.set(
        "wire.request_bytes",
        stats::mean(&req_bytes),
        req_bytes.len(),
        "mean",
    );
    report.set(
        "wire.response_bytes",
        stats::mean(&resp_bytes),
        resp_bytes.len(),
        "mean",
    );

    // store: append the job replay's verdicts with fsync always, replay them
    let log = t.dir.join("replay.cclog");
    let _ = std::fs::remove_file(&log);
    let (mut vlog, _) = VerdictLog::open(&log, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for (i, (key, v)) in verdict_stream.iter().enumerate() {
        let t0 = Instant::now();
        tracer
            .span("store.append", i as u64, || vlog.append_verdict(key, v))
            .map_err(|e| format!("append: {e}"))?;
        appends.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(vlog);
    let t0 = Instant::now();
    let (_, state) = tracer
        .span("store.replay", 0, || {
            VerdictLog::open(&log, FsyncPolicy::Always)
        })
        .map_err(|e| e.to_string())?;
    let replay_ms = ms(t0.elapsed());
    if state.verdicts.len() != verdict_stream.len() {
        report.violation("the verdict log did not replay every appended record");
    }
    report.latency(&appends, "store.append_p50_us", "store.append_p99_us");
    report.set(
        "store.replay_ms",
        replay_ms,
        state.verdicts.len(),
        "VerdictLog::open",
    );
    report.set(
        "store.log_bytes",
        t.log_bytes as f64,
        1,
        "the daemon's log after load",
    );
    report.set(
        "store.recovered",
        t.recovered as f64,
        1,
        "log_recovered after restart",
    );

    // transport, queue, server and cache from the daemon
    report.set(
        "transport.ping_rtt_us",
        stats::median(&t.idle_pings).unwrap_or(0.0),
        t.idle_pings.len(),
        "idle, median",
    );
    report.set(
        "transport.ping_rtt_loaded_us",
        stats::median(&t.high.pings_us).unwrap_or(0.0),
        t.high.pings_us.len(),
        format!("at {HIGH_RPS} req/s, median"),
    );
    let depth: Vec<f64> = t.high.stats.iter().map(|s| s.queue_depth as f64).collect();
    let busy: Vec<f64> = t
        .high
        .stats
        .iter()
        .map(|s| s.active_jobs as f64 / cores() as f64)
        .collect();
    report.set(
        "queue.depth_mean",
        stats::mean(&depth),
        depth.len(),
        "sampled every 10 ms",
    );
    report.set(
        "queue.depth_max",
        depth.iter().cloned().fold(0.0, f64::max),
        depth.len(),
        "sampled every 10 ms",
    );
    report.set(
        "server.busy_frac",
        stats::mean(&busy),
        busy.len(),
        "active jobs / workers",
    );
    if let Response::Stats(s) = &t.final_stats {
        report.set("queue.shed", s.shed as f64, 1, "over the session");
        report.set("cache.hits", s.cache_hits as f64, 1, "obligation lookups");
        report.set(
            "cache.misses",
            s.cache_misses as f64,
            1,
            "obligation lookups",
        );
        let lookups = (s.cache_hits + s.cache_misses).max(1) as f64;
        report.set("cache.hit_rate", s.cache_hits as f64 / lookups, 1, "");
    }
    report.set(
        "loadgen.lag_p99_ms",
        t.lag,
        t.nominal.requests.len() + t.high.requests.len(),
        "tail lag behind the intended send",
    );
    report.set(
        "loadgen.sent",
        (t.nominal.requests.len() + t.high.requests.len()) as f64,
        1,
        "nominal + high phases",
    );
    Ok(())
}
