//! The `mixed` workload: one daemon (`suif_server::serve_tcp_with`, the
//! entry point of `suif-explorer serve --tcp`) in a child process, with two
//! connections from this process.  The interactive tenant replays the
//! `explore` script for one Ch. 4 application in a closed loop with a fixed
//! think time; the bulk tenant issues back-to-back `corpus` commands over
//! a cycle of seeded program ranges.  This is the only workload that
//! exercises the daemon's reactor, command pool, JSON encoding and queue
//! wait under contention.

use crate::trace::{grouped, median, Tracer};
use crate::{Config, Metrics, Tally};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use suif_benchmarks::{ch4_apps, BenchProgram, Scale};
use suif_dynamic::SplitMix64;
use suif_server::json::Json;

/// The interactive tenant's application: ten guru targets and three
/// case-study assertions per replay, so the median reply is a slice and
/// the tail an assert, not the boundary between the two.
const APP: &str = "arc3d";
/// Fixed think time between interactive commands.
const THINK: Duration = Duration::from_millis(2);
/// The daemon's shared fact-tier budget (`--shared-budget`): the bulk
/// tenant analyzes fresh programs for the whole run, and without a budget
/// the tier grows with every one of them.
const SHARED_BUDGET: usize = 64 << 20;
/// Generated programs per bulk `corpus` command.
const BULK_PROGRAMS: usize = 300;
/// Pool workers of each bulk `corpus` command: with the interactive
/// tenant's command on the other daemon worker, the two tenants keep both
/// CPUs of the reference host busy without oversubscribing them.
const BULK_WORKERS: usize = 1;
/// The bulk tenant cycles over this many seeded ranges of programs: the
/// first cycle is cold, later ones rerun over the shared tier.  Ranges
/// that stayed fresh for the whole run would grow the daemon's summary
/// cache and emptiness memo, which no budget bounds, with every program,
/// so its peak memory would track throughput.
const BULK_RANGES: u64 = 4;

/// The daemon child process; killed and reaped if still running on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    fn start(cfg: &Config) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args([
                "--serve-daemon",
                &cfg.threads.to_string(),
                &cfg.workers.to_string(),
                &cfg.speculate.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// Peak resident set of the daemon process, in MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to shut down and wait for it to exit.
    fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.call(r#"{"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Serve as the daemon: what `suif-explorer serve --tcp 127.0.0.1:0
/// --threads T --workers W --speculate S` runs.
pub fn serve(threads: usize, workers: usize, speculate: usize) -> std::io::Result<()> {
    suif_server::serve_tcp_with(
        "127.0.0.1:0",
        suif_server::ServiceOptions {
            threads,
            workers,
            speculate,
            shared_budget: Some(SHARED_BUDGET),
            ..Default::default()
        },
    )
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Send one request line; return the reply text and its latency from
    /// send, in seconds.
    fn call(&mut self, req: &str) -> Result<(String, f64), String> {
        let t0 = Instant::now();
        self.stream
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if line.is_empty() {
            return Err("connection closed".into());
        }
        Ok((line, t0.elapsed().as_secs_f64()))
    }
}

fn parse_ok(reply: &str) -> Result<Json, String> {
    let j = Json::parse(reply.trim()).map_err(|e| format!("bad reply: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(j)
    } else {
        Err(format!("error reply: {}", reply.trim()))
    }
}

/// What one replay of the interactive script measured.
#[derive(Default)]
struct Replay {
    open_s: f64,
    replies_ms: Vec<f64>,
    encode_ms: f64,
    last_stats: Option<Json>,
}

/// Send one interactive command after the think time; an error reply
/// counts as a failure.
fn call(
    c: &mut Client,
    name: &'static str,
    req: &str,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Json, f64), String> {
    std::thread::sleep(THINK);
    let (out, _) = tr.span(name, || c.call(req));
    let (text, secs) = out?;
    match parse_ok(&text) {
        Ok(j) => {
            tally.attempt();
            Ok((j, secs))
        }
        Err(e) => {
            tally.fail(format!("{name}: {e}"));
            Err(e)
        }
    }
}

/// One replay of the `explore` script: load, guru, slice every target in
/// a seeded order, assert each case-study assertion, stats.
fn replay(
    c: &mut Client,
    app: &BenchProgram,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    tr.next_request();
    let mut call = |name: &'static str, req: String, tr: &mut Tracer, tally: &mut Tally| {
        call(c, name, &req, tr, tally)
    };
    let load = Json::obj([("cmd", Json::str("load")), ("text", Json::str(&app.source))]);
    let (_, secs) = call("server.load", load.to_string(), tr, tally)?;
    r.open_s += secs;
    let (guru, secs) = call("server.guru", r#"{"cmd":"guru"}"#.into(), tr, tally)?;
    r.open_s += secs;
    r.replies_ms.push(secs * 1e3);
    let t0 = Instant::now();
    std::hint::black_box(guru.to_string());
    r.encode_ms += t0.elapsed().as_secs_f64() * 1e3;
    let mut targets: Vec<String> = guru
        .get("targets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|t| t.get("loop").and_then(Json::as_str).map(str::to_string))
        .collect();
    tally.check(!targets.is_empty(), || "guru returned no targets".into());
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.below(i + 1));
    }
    for t in &targets {
        let req = Json::obj([("cmd", Json::str("slice")), ("loop", Json::str(t))]);
        let (reply, secs) = call("server.slice", req.to_string(), tr, tally)?;
        r.replies_ms.push(secs * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(reply.to_string());
        r.encode_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    for a in &app.assertions {
        let kind = if a.privatize {
            "private"
        } else {
            "independent"
        };
        let req = Json::obj([
            ("cmd", Json::str("assert")),
            ("loop", Json::str(&a.loop_name)),
            ("var", Json::str(&a.var)),
            ("kind", Json::str(kind)),
        ]);
        let (reply, secs) = call("server.assert", req.to_string(), tr, tally)?;
        r.replies_ms.push(secs * 1e3);
        let verdict = reply.get("assertion").and_then(Json::as_str);
        tally.check(verdict != Some("contradicted"), || {
            format!("assert {} {} contradicted", a.loop_name, a.var)
        });
    }
    let (stats, secs) = call("server.stats", r#"{"cmd":"stats"}"#.into(), tr, tally)?;
    r.replies_ms.push(secs * 1e3);
    r.last_stats = Some(stats);
    Ok(r)
}

/// The running daemon plus the interactive tenant's idle-reply baseline.
pub struct Setup {
    daemon: Daemon,
    interactive: Client,
    app: BenchProgram,
    idle_ms: Vec<f64>,
}

/// Start the daemon, connect the interactive tenant, and replay its script
/// on the idle daemon.
pub fn set_up(cfg: &Config, tally: &mut Tally) -> Result<Setup, String> {
    let app = ch4_apps(Scale::Bench)
        .into_iter()
        .find(|b| b.name == APP)
        .expect("ch4 app");
    let daemon = Daemon::start(cfg)?;
    let mut interactive = Client::connect(&daemon.addr)?;
    // The first replay computes what later replays find in the shared
    // tier; the second is the idle baseline of the steady state.
    let mut rng = SplitMix64::new(cfg.seed);
    let mut idle = Replay::default();
    for _ in 0..2 {
        idle = replay(
            &mut interactive,
            &app,
            &mut rng,
            &mut Tracer::new(false),
            tally,
        )?;
    }
    Ok(Setup {
        daemon,
        interactive,
        app,
        idle_ms: idle.replies_ms,
    })
}

impl Setup {
    /// Shut the daemon down (a set-up repetition that is not measured).
    pub fn close(self) {
        self.daemon.shutdown();
    }
}

fn stat(j: &Option<Json>, path: &[&str]) -> f64 {
    j.as_ref().map_or(0.0, |j| crate::json_f64(j, path))
}

/// Interactive and bulk tenants side by side for `seconds`.
struct Window {
    opens: Vec<f64>,
    /// Interactive reply latencies, one vector per replay.
    replies_ms: Vec<Vec<f64>>,
    encode_ms: Vec<f64>,
    bulk_s: Vec<f64>,
    bulk_programs: usize,
    first_stats: Option<Json>,
    last_stats: Option<Json>,
    tracer: Tracer,
}

fn window(
    s: &mut Setup,
    cfg: &Config,
    seconds: f64,
    traced: bool,
    round: u64,
    tally: &mut Tally,
) -> Window {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let addr = s.daemon.addr.clone();
    let seed = cfg.seed;
    let bulk = std::thread::scope(|scope| {
        let bulk = scope.spawn(move || -> Result<(Vec<f64>, usize), String> {
            let mut c = Client::connect(&addr)?;
            let (mut lat, mut programs) = (Vec::new(), 0);
            let mut i = 0u64;
            while Instant::now() < deadline {
                let base = seed.wrapping_mul(1_000_003) + (i % BULK_RANGES) * BULK_PROGRAMS as u64;
                let req = format!(
                    r#"{{"cmd":"corpus","gen":{BULK_PROGRAMS},"seed_base":{base},"workers":{BULK_WORKERS}}}"#
                );
                let (text, secs) = c.call(&req)?;
                let j = parse_ok(&text)?;
                let summary = j.get("summary");
                let ok = summary.and_then(|s| s.get("ok")).and_then(Json::as_i64);
                let n = summary.and_then(|s| s.get("programs")).and_then(Json::as_i64);
                if ok != Some(BULK_PROGRAMS as i64) || n != ok {
                    return Err(format!("corpus summary: {ok:?} of {n:?} programs ok"));
                }
                lat.push(secs);
                programs += BULK_PROGRAMS;
                i += 1;
            }
            Ok((lat, programs))
        });
        let mut w = Window {
            opens: Vec::new(),
            replies_ms: Vec::new(),
            encode_ms: Vec::new(),
            bulk_s: Vec::new(),
            bulk_programs: 0,
            first_stats: None,
            last_stats: None,
            tracer: Tracer::new(traced),
        };
        let mut rng = SplitMix64::new(cfg.seed.wrapping_add(round + 1));
        while w.opens.is_empty() || Instant::now() < deadline {
            match replay(&mut s.interactive, &s.app, &mut rng, &mut w.tracer, tally) {
                Ok(r) => {
                    w.opens.push(r.open_s);
                    w.replies_ms.push(r.replies_ms);
                    w.encode_ms.push(r.encode_ms);
                    if w.first_stats.is_none() {
                        w.first_stats = r.last_stats.clone();
                    }
                    w.last_stats = r.last_stats;
                }
                Err(e) => {
                    tally.fail(format!("interactive replay: {e}"));
                    break;
                }
            }
        }
        (w, bulk.join())
    });
    let (mut w, joined) = bulk;
    match joined {
        Ok(Ok((lat, programs))) => {
            tally.attempt_n(lat.len() as u64);
            w.bulk_s = lat;
            w.bulk_programs = programs;
        }
        Ok(Err(e)) => tally.fail(format!("bulk tenant: {e}")),
        Err(_) => tally.fail("bulk tenant panicked".into()),
    }
    w
}

pub fn run(mut s: Setup, cfg: &Config, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let budget = cfg.seconds as f64;
    let untraced = window(
        &mut s,
        cfg,
        if cfg.trace { budget / 2.0 } else { budget },
        false,
        0,
        tally,
    );
    // One group: the interactive tail is the rare reply the bulk tenant
    // delays, so it is taken over the whole window.
    let (p50, pct, tail_ms) = grouped(&untraced.replies_ms, untraced.replies_ms.len().max(1));
    m.set("open_s", median(&untraced.opens));
    m.set("pass_s", median(&untraced.bulk_s));
    m.set("reply_p50_ms", p50);
    m.set("reply_tail_ms", tail_ms);
    m.set("reply_tail_pct", pct as f64);
    m.note(format!(
        "{} interactive replays, {} replies (tail is p{pct}); \
         idle reply p50 {:.3} ms; bulk {:.0} programs/s over {} commands",
        untraced.opens.len(),
        untraced.replies_ms.iter().map(Vec::len).sum::<usize>(),
        median(&s.idle_ms),
        untraced.bulk_programs as f64 / untraced.bulk_s.iter().sum::<f64>().max(1e-9),
        untraced.bulk_s.len()
    ));
    let mut traced = None;
    if cfg.trace {
        traced = Some(window(&mut s, cfg, budget / 2.0, true, 1, tally));
    }
    m.set_peak_rss(s.daemon.peak_rss_mb());
    s.daemon.shutdown();
    let Some(w) = traced else {
        return m;
    };
    let idle = median(&s.idle_ms);
    let loaded = median(&w.replies_ms.concat());
    m.set("server.idle_rtt_ms", idle);
    m.set("server.queue_wait_ms", loaded - idle);
    m.set("server.json_encode_ms", median(&w.encode_ms));
    for (k, name) in [
        ("polls", "server.reactor.polls"),
        ("wakeups", "server.reactor.wakeups"),
        ("offloaded", "server.reactor.offloaded"),
    ] {
        let path = ["service", "reactor", k];
        m.set(
            name,
            stat(&w.last_stats, &path) - stat(&w.first_stats, &path),
        );
    }
    let hits = stat(&w.last_stats, &["tier", "hits"]);
    let misses = stat(&w.last_stats, &["tier", "misses"]);
    m.set("tier.hit_ratio", hits / (hits + misses).max(1.0));
    m.set(
        "tier.peak_resident_bytes",
        stat(&w.last_stats, &["tier", "peak_resident_bytes"]),
    );
    // Only the client side of the daemon is visible here: the median
    // interactive reply splits into the idle round trip (execution,
    // encoding and transport on an idle daemon) and the wait the bulk
    // tenant adds.  Both sides of the accounting are per reply.
    let mut by_layer = std::collections::BTreeMap::new();
    by_layer.insert("server", loaded);
    m.layer_self(&by_layer);
    m.accounting(median(&untraced.replies_ms.concat()), loaded, loaded, 0.0);
    m.spans = Some(w.tracer);
    m
}
