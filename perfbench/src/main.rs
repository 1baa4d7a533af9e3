//! The SUIF Explorer benchmark: one command per workload, printing every
//! metric by name with its unit, and checking the outputs it measures.
//!
//! ```text
//! perfbench --workload explore|restart|corpus|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  The line
//! before it records the host and configuration.  See `README.md` for the
//! workloads, the metrics, and which layer metric should move which
//! end-to-end metric.

mod corpus;
mod mixed;
mod session;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{median, Tracer};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("open_s", "s"),
    ("pass_s", "s"),
    ("reply_p50_ms", "ms"),
    ("reply_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reply_tail_pct", "%"),
    ("ir.parse_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.facts_computed", "count"),
    ("analysis.facts_reused", "count"),
    ("analysis.facts_shared", "count"),
    ("analysis.summarize.invocations", "count"),
    ("analysis.liveness.invocations", "count"),
    ("analysis.classify.invocations", "count"),
    ("analysis.summary_cache.hits", "count"),
    ("analysis.summary_cache.misses", "count"),
    ("poly.fm_runs", "count"),
    ("poly.quick_sats", "count"),
    ("poly.interval_rejects", "count"),
    ("poly.prove_empty.hits", "count"),
    ("poly.prove_empty.misses", "count"),
    ("poly.prove_empty.hit_ratio", "ratio"),
    ("dynamic.profile_ms", "ms"),
    ("dynamic.dyndep_ms", "ms"),
    ("dynamic.ops", "count"),
    ("explorer.reanalyze_ms", "ms"),
    ("explorer.guru_ms", "ms"),
    ("explorer.open_self_ms", "ms"),
    ("slicing.slice_ms", "ms"),
    ("slicing.carried_deps_ms", "ms"),
    ("snapshot.checkpoint_ms", "ms"),
    ("snapshot.appended_bytes", "bytes"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.base_bytes", "bytes"),
    ("server.expected_hashes_ms", "ms"),
    ("server.session_open_self_ms", "ms"),
    ("tier.hit_ratio", "ratio"),
    ("tier.peak_resident_bytes", "bytes"),
    ("corpus.program_ms", "ms"),
    ("corpus.pool_efficiency", "ratio"),
    ("server.idle_rtt_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.json_encode_ms", "ms"),
    ("server.reactor.polls", "count"),
    ("server.reactor.wakeups", "count"),
    ("server.reactor.offloaded", "count"),
    ("ir.self_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("dynamic.self_ms", "ms"),
    ("explorer.self_ms", "ms"),
    ("slicing.self_ms", "ms"),
    ("snapshot.self_ms", "ms"),
    ("server.self_ms", "ms"),
    ("corpus.self_ms", "ms"),
    ("trace.e2e_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.self_sum_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.replay_ms", "ms"),
];

/// The set-up runs at least `SETUP_MIN_REPS` times and, while it has taken
/// less than `SETUP_MIN_SECS` in all, up to `SETUP_MAX_REPS` times;
/// `setup_s` is the median.  A set-up of a tenth of a second thus spans
/// seconds of host time, so a burst of interference cannot cover all of it.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 40;
const SETUP_MIN_SECS: f64 = 3.0;

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Repeat a set-up that times itself; returns each repetition's seconds.
fn repeat_setup(mut f: impl FnMut() -> f64) -> Vec<f64> {
    let mut times: Vec<f64> = Vec::new();
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECS && times.len() < SETUP_MAX_REPS)
    {
        times.push(f());
    }
    times
}

/// Thread and worker counts, each pinned at or below the host's CPUs.
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `ScheduleOptions.threads` of every session (and daemon `--threads`).
    pub threads: usize,
    /// Corpus pool workers (and daemon `--workers`).
    pub workers: usize,
    /// Daemon `--speculate`.
    pub speculate: usize,
}

impl Config {
    pub fn sched(&self) -> suif_analysis::ScheduleOptions {
        suif_analysis::ScheduleOptions {
            threads: self.threads,
        }
    }
}

/// Operations attempted and failed; a failure is an error reply, a panic,
/// or a failed correctness check.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn attempt_n(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {why}");
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.attempt();
        } else {
            self.fail(why());
        }
    }
}

/// The figures one run reports.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    self_sum_ms: f64,
    notes: Vec<String>,
    peak_rss_mb: Option<f64>,
    pub spans: Option<Tracer>,
}

impl Metrics {
    /// Set a metric listed in `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name));
        self.values.insert(name, value);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn set_peak_rss(&mut self, mb: f64) {
        self.peak_rss_mb = Some(mb);
    }

    /// Self time per layer along the blocking path, in ms.
    pub fn layer_self(&mut self, by_layer: &BTreeMap<&str, f64>) {
        for (layer, ms) in by_layer {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".self_ms") == Some(layer));
            debug_assert!(name.is_some(), "no self-time metric for layer {layer}");
            if let Some(name) = name {
                self.values.insert(name, *ms);
            }
            self.self_sum_ms += ms;
        }
    }

    pub fn prove_empty(&mut self, (hits, misses): (u64, u64)) {
        self.values.insert("poly.prove_empty.hits", hits as f64);
        self.values.insert("poly.prove_empty.misses", misses as f64);
        self.values.insert(
            "poly.prove_empty.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    /// How the traced pass accounts for the end-to-end time: `e2e_ms` is
    /// the untraced pass, `traced_ms` the traced one (replays excluded),
    /// `named_ms` the sum of the named per-layer time metrics.
    pub fn accounting(&mut self, e2e_ms: f64, traced_ms: f64, named_ms: f64, replay_ms: f64) {
        self.values.insert("trace.e2e_ms", e2e_ms);
        self.values.insert("trace.traced_ms", traced_ms);
        self.values.insert("trace.overhead_ms", traced_ms - e2e_ms);
        self.values.insert("trace.self_sum_ms", self.self_sum_ms);
        self.values.insert("trace.residual_ms", e2e_ms - named_ms);
        self.values.insert("trace.replay_ms", replay_ms);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload explore|restart|corpus|mixed --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every file under `crates/`, in path order: identifies the
/// measured source when the checkout is not a git repository.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The number at `path` inside a JSON reply (0 when absent).
pub fn json_f64(j: &suif_server::json::Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for p in path {
        match cur.get(p) {
            Some(n) => cur = n,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn json_str(s: &str) -> String {
    suif_server::json::Json::str(s).to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-daemon") {
        let n = |i: usize| {
            args.get(i)
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| usage())
        };
        if let Err(e) = mixed::serve(n(1), n(2), n(3)) {
            eprintln!("daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cfg = Config {
        seed,
        seconds,
        trace,
        threads: cpus.min(2),
        workers: cpus.min(2),
        speculate: cpus.min(2),
    };
    let work = PathBuf::from(format!(".perfbench_tmp/{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("work dir inside the checkout");
    let mut tally = Tally::default();

    let (setup_times, mut metrics) = match workload.as_str() {
        "explore" | "restart" => {
            let mut apps = Vec::new();
            let mut warm = None;
            let times = repeat_setup(|| {
                timed(|| {
                    apps = session::build_apps();
                    if workload == "restart" {
                        let base = work.join("base");
                        warm = Some(session::build_warm_base(&apps, &base, &cfg, &mut tally));
                    }
                })
            });
            (
                times,
                session::run(&apps, warm.as_ref(), &cfg, &work, &mut tally),
            )
        }
        "corpus" => {
            let mut entries = Vec::new();
            let times = repeat_setup(|| {
                timed(|| {
                    entries = corpus::entries(seed);
                    corpus::oracle(&entries, &mut tally);
                })
            });
            (times, corpus::run(&entries, &cfg, &mut tally))
        }
        "mixed" => {
            let mut setup: Option<Result<mixed::Setup, String>> = None;
            let times = repeat_setup(|| {
                if let Some(Ok(s)) = setup.take() {
                    s.close();
                }
                timed(|| setup = Some(mixed::set_up(&cfg, &mut tally)))
            });
            match setup {
                Some(Ok(s)) => (times, mixed::run(s, &cfg, &mut tally)),
                Some(Err(e)) => {
                    eprintln!("mixed set-up failed: {e}");
                    let _ = std::fs::remove_dir_all(&work);
                    std::process::exit(1);
                }
                None => unreachable!("set-up ran at least once"),
            }
        }
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    metrics.set("setup_s", median(&setup_times));
    let rss = metrics
        .peak_rss_mb
        .unwrap_or_else(|| peak_rss_mb("/proc/self/status"));
    metrics.set("peak_rss_mb", rss);

    // Host and configuration, and the spans of a traced run, beside the
    // result.
    let out_dir = PathBuf::from(".perfbench_out");
    let _ = std::fs::create_dir_all(&out_dir);
    let executor_env = std::env::var("SUIF_EXECUTOR_THREADS").ok();
    let config = format!(
        "{{\"host\":{{\"cpus\":{cpus},\"rustc\":{},\"commit\":{},\"source_fnv\":\"{}\"}},\
         \"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"session_threads\":{},\"corpus_workers\":{},\"daemon\":{{\"threads\":{},\"workers\":{},\
         \"speculate\":{}}},\"SUIF_EXECUTOR_THREADS\":{},\"setup_s\":[{}],\"notes\":[{}]}}",
        json_str(&command_output("rustc", &["--version"])),
        // Only this directory's own repository: git would otherwise report
        // the commit of any repository the checkout happens to sit in.
        json_str(&if Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        }),
        source_fingerprint(Path::new(".")),
        json_str(&workload),
        cfg.threads,
        cfg.workers,
        cfg.threads,
        cfg.workers,
        cfg.speculate,
        executor_env
            .as_deref()
            .map(json_str)
            .unwrap_or("null".into()),
        setup_times
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(","),
        metrics
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    if let Some(tr) = &metrics.spans {
        let path = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("warning: writing {}: {e}", path.display());
        }
    }
    let list = if trace { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = metrics.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    let _ = std::fs::write(
        out_dir.join(format!(
            "result-{workload}-{seed}-trace{}.json",
            trace as u8
        )),
        format!("{{\"config\":{config},\"result\":{result}}}\n"),
    );
    for n in &metrics.notes {
        eprintln!("{workload}: {n}");
    }
    println!("{config}");
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let j = suif_server::json::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }
}
