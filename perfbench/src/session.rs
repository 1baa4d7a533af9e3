//! The `explore` and `restart` workloads: the paper's case-study session
//! (§4.1.4, §4.2.4) driven through `suif_server::Session` over the four
//! Ch. 4 applications at `Scale::Bench`.
//!
//! One pass runs, per application: open (with persistence into a fresh
//! directory), `guru`, `slice` of every guru target in a seeded order,
//! `assert` of each case-study assertion (each assert checkpoints),
//! `analyze`, and close.  `explore` opens cold; `restart` opens from the
//! persist directories a cold pass left at set-up, in a process whose
//! `prove_empty` memo and summary cache are empty.

use crate::trace::{grouped, median, Tracer};
use crate::{json_f64, Config, Metrics, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::{
    snapshot, Assertion, FactStore, ParallelizeConfig, Parallelizer, SummaryCache,
};
use suif_benchmarks::{ch4_apps, BenchProgram, Scale};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DynDepAnalyzer, LoopProfiler, SplitMix64};
use suif_explorer::Explorer;
use suif_ir::Program;
use suif_server::json::Json;
use suif_server::{Session, SessionConfig, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

/// The hand-written case-study loops that need the user's assertions:
/// sequential after open, parallel after the asserts.  The same list
/// `tests/benchmarks_end_to_end.rs` pins.
pub const CASE_STUDY_LOOPS: &[(&str, &[&str])] = &[
    ("mdg", &["interf/1000"]),
    (
        "hydro",
        &[
            "vsetuv/85",
            "vsetuv/105",
            "vsetuv/155",
            "vqterm/85",
            "vh2200/1000",
            "vsetgc/200",
            "update/1000",
        ],
    ),
    ("arc3d", &["stepf3d/701", "stepf3d/702", "stepf3d/801"]),
    (
        "flo88",
        &[
            "psmoo/50",
            "psmoo/100",
            "psmoo/150",
            "eflux/50",
            "dflux/30",
            "dflux/70",
        ],
    ),
];

/// Passes per group for the reply percentiles: two passes hold 14 flo88
/// asserts, so the tail falls inside the slowest class of replies rather
/// than on the edge between two.
const PASSES_PER_GROUP: usize = 2;

/// Per-loop `(name, parallel)` verdicts, in source order.
type Verdicts = Vec<(String, bool)>;

/// One application with its reference verdicts.
pub struct App {
    pub bench: BenchProgram,
    /// `Parallelizer::analyze` without and with the case-study assertions.
    pub reference: (Verdicts, Verdicts),
}

fn assertions_of(b: &BenchProgram) -> Vec<Assertion> {
    b.assertions
        .iter()
        .map(|a| {
            if a.privatize {
                Assertion::Privatizable {
                    loop_name: a.loop_name.clone(),
                    var: a.var.clone(),
                }
            } else {
                Assertion::Independent {
                    loop_name: a.loop_name.clone(),
                    var: a.var.clone(),
                }
            }
        })
        .collect()
}

fn analysis_verdicts(a: &suif_analysis::ProgramAnalysis<'_>) -> Verdicts {
    a.ctx
        .tree
        .loops
        .iter()
        .map(|l| (l.name.clone(), a.verdicts[&l.stmt].is_parallel()))
        .collect()
}

fn json_verdicts(loops: Option<&Json>) -> Verdicts {
    loops
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|l| {
            (
                l.get("loop")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                l.get("parallel").and_then(Json::as_bool).unwrap_or(false),
            )
        })
        .collect()
}

/// Build the four applications and their reference verdicts: the
/// `explore` set-up.
pub fn build_apps() -> Vec<App> {
    ch4_apps(Scale::Bench)
        .into_iter()
        .map(|bench| {
            let program = bench.parse();
            let auto = Parallelizer::analyze(&program, ParallelizeConfig::default());
            let user = Parallelizer::analyze(
                &program,
                ParallelizeConfig {
                    assertions: assertions_of(&bench),
                    ..Default::default()
                },
            );
            let reference = (analysis_verdicts(&auto), analysis_verdicts(&user));
            App { bench, reference }
        })
        .collect()
}

/// Per-pass totals of the layer counters (read from the session's `stats`
/// and the process-wide poly counters around each session call).
#[derive(Default)]
struct Counters {
    facts: [f64; 3],
    invocations: [f64; 3],
    cache: (u64, u64),
    poly: [f64; 3],
    prove_empty: (u64, u64),
    dynamic_ops: u64,
    appended_bytes: f64,
    base_bytes: u64,
}

/// Process-wide counters that move during one session call.
struct Probe {
    poly: suif_poly::PolyStats,
    pe: (u64, u64),
}

impl Probe {
    fn take() -> Probe {
        Probe {
            poly: suif_poly::poly_stats(),
            pe: suif_poly::prove_empty_cache_counters(),
        }
    }

    fn add_since(&self, c: &mut Counters) {
        let d = suif_poly::poly_stats().since(&self.poly);
        c.poly[0] += d.fm_runs as f64;
        c.poly[1] += d.quick_sats as f64;
        c.poly[2] += d.interval_rejects as f64;
        let pe = suif_poly::prove_empty_cache_counters();
        c.prove_empty.0 += pe.0 - self.pe.0;
        c.prove_empty.1 += pe.1 - self.pe.1;
    }
}

/// Add the counters of the session's most recent analysis run.
fn add_analysis(c: &mut Counters, stats: &Json) {
    for (i, k) in ["computed", "reused", "shared"].iter().enumerate() {
        c.facts[i] += json_f64(stats, &["facts", k]);
    }
    for (i, p) in ["summarize", "liveness", "classify"].iter().enumerate() {
        c.invocations[i] += json_f64(stats, &["passes", p, "invocations"]);
    }
}

/// Timings of one application's session within a pass.
#[derive(Default)]
struct AppTimes {
    /// Open through the first guru reply, seconds.
    open_s: f64,
    /// Every session call, seconds.
    ops_s: f64,
    /// Per-reply latencies after open (guru, slice, assert, analyze), ms.
    replies_ms: Vec<f64>,
}

/// What `restart` checks its warm open against.
pub struct WarmBase {
    /// Pristine persist directory per application.
    pub dir: PathBuf,
    /// Verdicts the cold session reported after open, per application.
    pub cold_verdicts: Vec<Verdicts>,
}

/// The layer replica a traced pass keeps beside the session: the same
/// program and inputs, driven through the layers' public functions.
struct Replica<'p> {
    ex: Explorer<'p>,
    cache: SummaryCache,
}

fn loop_stmt(ex: &Explorer<'_>, name: &str) -> Option<suif_ir::StmtId> {
    ex.analysis
        .ctx
        .tree
        .loops
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.stmt)
}

/// Run one application's scripted session.  `warm` is the pristine persist
/// directory a `restart` pass opens from (copied into `dir` first).
#[allow(clippy::too_many_arguments)]
fn run_app(
    app: &App,
    idx: usize,
    dir: &Path,
    warm: Option<&WarmBase>,
    cfg: &Config,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    c: &mut Counters,
    tally: &mut Tally,
) -> AppTimes {
    let b = &app.bench;
    let mut t = AppTimes::default();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("persist dir");
    if let Some(w) = warm {
        for f in [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE] {
            let src = w.dir.join(b.name).join(f);
            if src.exists() {
                std::fs::copy(&src, dir.join(f)).expect("copy persist dir");
            }
        }
    }
    // Cold means cold: no memo entries or summaries from earlier work in
    // this process.  A warm open imports the memo from its snapshot.
    suif_poly::clear_prove_empty_cache();
    let cache = Arc::new(SummaryCache::new());
    tr.next_request();

    // ---- open ---------------------------------------------------------
    let probe = Probe::take();
    let t0 = Instant::now();
    let (opened, open_id) = tr.span("server.session_open", || {
        Session::open_cfg(
            &b.source,
            cache.clone(),
            SessionConfig {
                opts: cfg.sched(),
                spec_budget: 0,
                persist_dir: Some(dir.to_path_buf()),
                ..Default::default()
            },
        )
    });
    let open_secs = t0.elapsed().as_secs_f64();
    probe.add_since(c);
    t.ops_s += open_secs;
    t.open_s += open_secs;
    let mut s = match opened {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("{}: open failed: {e}", b.name));
            return t;
        }
    };
    tally.attempt();
    let tracing = tr.enabled();
    let stats = if tracing { Some(s.stats_json()) } else { None };
    if let Some(st) = &stats {
        add_analysis(c, st);
        tr.attribute(
            open_id,
            "snapshot.checkpoint",
            json_f64(st, &["snapshot", "save_secs"]),
        );
    }

    // Replay what the open did inside `Session::open_cfg`, with its inputs:
    // parse, content-key hashing, the snapshot load of a warm open, and
    // `Explorer::with_store` with its analysis and the two interpreter
    // runs over the session's input (the empty vector).
    let mut program: Option<Program> = None;
    tr.replay(open_id, "ir.parse", || {
        program = Some(suif_ir::parse_program(&b.source).expect("parsed once already"));
    });
    let mut replica: Option<Replica<'_>> = None;
    if let Some(p) = program.as_ref() {
        let config = ParallelizeConfig::default();
        let mut expected = Default::default();
        tr.replay(open_id, "server.expected_hashes", || {
            expected = Parallelizer::expected_fact_hashes(p, &config);
        });
        let mut loaded = Vec::new();
        if let Some(w) = warm {
            tr.replay(open_id, "snapshot.load", || {
                let base =
                    std::fs::read(w.dir.join(b.name).join(SNAPSHOT_FILE)).unwrap_or_default();
                let log = std::fs::read(w.dir.join(b.name).join(SNAPSHOT_LOG_FILE)).ok();
                if let Ok(img) = snapshot::merge_image(&base, log.as_deref()) {
                    loaded = img
                        .facts
                        .into_iter()
                        .filter(|f| expected.get(&f.key) == Some(&f.hash))
                        .collect();
                    let store = FactStore::new();
                    store.import(loaded.clone());
                    suif_poly::import_prove_empty_memo(&img.prove_empty);
                }
            });
            c.base_bytes += std::fs::metadata(w.dir.join(b.name).join(SNAPSHOT_FILE))
                .map(|m| m.len())
                .unwrap_or(0);
        } else {
            suif_poly::clear_prove_empty_cache();
            c.base_bytes += std::fs::metadata(dir.join(SNAPSHOT_FILE))
                .map(|m| m.len())
                .unwrap_or(0);
        }
        let fresh_store = |facts: &Vec<suif_analysis::ExportedFact>| {
            let store = Arc::new(FactStore::new());
            store.import(facts.clone());
            store
        };
        let ex_cache = SummaryCache::new();
        let mut ex = None;
        let ex_id = tr.replay(open_id, "explorer.open", || {
            ex = Explorer::with_store(
                p,
                config.clone(),
                Vec::new(),
                &cfg.sched(),
                Some(&ex_cache),
                fresh_store(&loaded),
            )
            .ok()
            .map(|(ex, _)| ex);
        });
        if warm.is_none() {
            suif_poly::clear_prove_empty_cache();
        }
        let mut analysis = None;
        tr.replay(ex_id, "analysis.analyze", || {
            let store = fresh_store(&loaded);
            analysis = Some(
                Parallelizer::analyze_in(
                    p,
                    config.clone(),
                    &cfg.sched(),
                    Some(&SummaryCache::new()),
                    &store,
                )
                .0,
            );
        });
        tr.replay(ex_id, "dynamic.profile", || {
            let mut profiler = LoopProfiler::new();
            let mut m = Machine::new(p, &mut profiler).expect("layout");
            m.set_input(Vec::new());
            let _ = m.run();
            c.dynamic_ops += m.ops();
        });
        if let Some(a) = &analysis {
            tr.replay(ex_id, "dynamic.dyndep", || {
                let mut dd = DynDepAnalyzer::new(suif_explorer::explorer::dyndep_config(p, a));
                let mut m = Machine::new(p, &mut dd).expect("layout");
                m.set_input(Vec::new());
                let _ = m.run();
                c.dynamic_ops += m.ops();
            });
        }
        replica = ex.map(|ex| Replica {
            ex,
            cache: ex_cache,
        });
    }

    // Open-time checks: the case-study loops start sequential, every
    // verdict matches the reference analysis, and a warm open loads its
    // snapshot and recomputes nothing.
    let case_loops = CASE_STUDY_LOOPS
        .iter()
        .find(|(n, _)| *n == b.name)
        .map(|(_, l)| *l)
        .unwrap_or(&[]);
    let at_open = json_verdicts(s.verdicts_json().get("loops"));
    tally.check(at_open == app.reference.0, || {
        format!(
            "{}: verdicts after open differ from the reference analysis",
            b.name
        )
    });
    for l in case_loops {
        let par = at_open.iter().find(|(n, _)| n == l).map(|v| v.1);
        tally.check(par == Some(false), || {
            format!(
                "{}: {l} should be sequential after open, got {par:?}",
                b.name
            )
        });
    }
    if let Some(w) = warm {
        let st = stats.clone().unwrap_or_else(|| s.stats_json());
        let status = st
            .get("snapshot")
            .and_then(|j| j.get("status"))
            .and_then(Json::as_str);
        tally.check(status == Some("loaded"), || {
            format!("{}: warm open reported snapshot status {status:?}", b.name)
        });
        for p in ["summarize", "liveness", "classify"] {
            let n = json_f64(&st, &["passes", p, "invocations"]);
            tally.check(n == 0.0, || {
                format!("{}: warm open ran {p} {n} times", b.name)
            });
        }
        tally.check(at_open == w.cold_verdicts[idx], || {
            format!("{}: warm verdicts differ from the cold session's", b.name)
        });
    }

    // ---- guru ---------------------------------------------------------
    let probe = Probe::take();
    let t0 = Instant::now();
    let (guru, guru_id) = tr.span("server.guru", || s.guru_json());
    let secs = t0.elapsed().as_secs_f64();
    probe.add_since(c);
    t.ops_s += secs;
    t.open_s += secs;
    t.replies_ms.push(secs * 1e3);
    tally.attempt();
    if let Some(r) = replica.as_mut() {
        tr.replay(guru_id, "explorer.guru", || {
            std::hint::black_box(r.ex.guru());
        });
    }
    let mut targets: Vec<String> = guru
        .get("targets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|t| t.get("loop").and_then(Json::as_str).map(str::to_string))
        .collect();
    tally.check(!targets.is_empty(), || {
        format!("{}: guru returned no targets", b.name)
    });

    // ---- slice every target, in a seeded order --------------------------
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.below(i + 1));
    }
    for target in &targets {
        let probe = Probe::take();
        let t0 = Instant::now();
        let (reply, slice_id) = tr.span("server.slice", || s.slice_json(target));
        let secs = t0.elapsed().as_secs_f64();
        probe.add_since(c);
        t.ops_s += secs;
        t.replies_ms.push(secs * 1e3);
        match reply {
            Ok(_) => tally.attempt(),
            Err(e) => tally.fail(format!("{}: slice {target}: {e}", b.name)),
        }
        if let Some(r) = replica.as_mut() {
            if let Some(stmt) = loop_stmt(&r.ex, target) {
                tr.replay(slice_id, "slicing.carried_deps", || {
                    std::hint::black_box(r.ex.carried_deps(stmt));
                });
                tr.replay(slice_id, "slicing.slice", || {
                    std::hint::black_box(r.ex.slices_for_dep(stmt, 0));
                });
            }
        }
    }

    // ---- assert each case-study assertion (each checkpoints) ------------
    let assertions = assertions_of(b);
    for (a, ua) in assertions.into_iter().zip(&b.assertions) {
        let save0 = if tracing {
            json_f64(&s.stats_json(), &["snapshot", "save_secs"])
        } else {
            0.0
        };
        let probe = Probe::take();
        let t0 = Instant::now();
        let (reply, assert_id) = tr.span("server.assert", || {
            s.assert_json(&ua.loop_name, &ua.var, !ua.privatize)
        });
        let secs = t0.elapsed().as_secs_f64();
        probe.add_since(c);
        t.ops_s += secs;
        t.replies_ms.push(secs * 1e3);
        let verdict = reply.get("assertion").and_then(Json::as_str).unwrap_or("");
        if verdict == "contradicted" || verdict.is_empty() {
            tally.fail(format!(
                "{}: assert {} {}: {verdict:?}",
                b.name, ua.loop_name, ua.var
            ));
        } else {
            tally.attempt();
        }
        if tracing {
            let st = s.stats_json();
            add_analysis(c, &st);
            tr.attribute(
                assert_id,
                "snapshot.checkpoint",
                json_f64(&st, &["snapshot", "save_secs"]) - save0,
            );
        }
        if let Some(r) = replica.as_mut() {
            tr.replay(assert_id, "explorer.reanalyze", || {
                std::hint::black_box(r.ex.assert_and_reanalyze_with_stats(a));
            });
        }
    }

    // ---- analyze --------------------------------------------------------
    let probe = Probe::take();
    let t0 = Instant::now();
    let (reply, analyze_id) = tr.span("server.analyze", || s.analyze());
    let secs = t0.elapsed().as_secs_f64();
    probe.add_since(c);
    t.ops_s += secs;
    t.replies_ms.push(secs * 1e3);
    tally.attempt();
    if let (Some(r), Some(p)) = (replica.as_ref(), program.as_ref()) {
        tr.replay(analyze_id, "analysis.analyze", || {
            std::hint::black_box(Parallelizer::analyze_in(
                p,
                r.ex.analysis.config.clone(),
                &cfg.sched(),
                Some(&r.cache),
                r.ex.store(),
            ));
        });
    }
    let after = json_verdicts(reply.get("loops"));
    tally.check(after == app.reference.1, || {
        format!(
            "{}: verdicts after the asserts differ from the reference analysis",
            b.name
        )
    });
    for l in case_loops {
        let par = after.iter().find(|(n, _)| n == l).map(|v| v.1);
        tally.check(par == Some(true), || {
            format!(
                "{}: {l} should be parallel after the asserts, got {par:?}",
                b.name
            )
        });
    }
    if tracing {
        let st = s.stats_json();
        add_analysis(c, &st);
        c.appended_bytes += json_f64(&st, &["snapshot", "appended_bytes"]);
    }

    // ---- close (the final checkpoint) -----------------------------------
    let t0 = Instant::now();
    tr.span("server.close", || drop(s));
    t.ops_s += t0.elapsed().as_secs_f64();
    let (h, m) = cache.counters();
    c.cache.0 += h;
    c.cache.1 += m;
    drop(replica);
    t
}

/// One pass over the four applications.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    apps: &[App],
    root: &Path,
    warm: Option<&WarmBase>,
    cfg: &Config,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    c: &mut Counters,
    tally: &mut Tally,
) -> AppTimes {
    let mut total = AppTimes::default();
    for (i, app) in apps.iter().enumerate() {
        let dir = root.join(app.bench.name);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_app(app, i, &dir, warm, cfg, rng, tr, c, tally)
        }));
        match caught {
            Ok(t) => {
                total.open_s += t.open_s;
                total.ops_s += t.ops_s;
                total.replies_ms.extend(t.replies_ms);
            }
            Err(_) => tally.fail(format!("{}: session panicked", app.bench.name)),
        }
    }
    let _ = std::fs::remove_dir_all(root);
    total
}

/// Build the pristine persist directories `restart` opens from: one cold
/// pass of the full script per application, untraced.
pub fn build_warm_base(apps: &[App], dir: &Path, cfg: &Config, tally: &mut Tally) -> WarmBase {
    let _ = std::fs::remove_dir_all(dir);
    let mut cold_verdicts = Vec::new();
    let mut tr = Tracer::new(false);
    let mut c = Counters::default();
    let mut rng = SplitMix64::new(0);
    for (i, app) in apps.iter().enumerate() {
        let d = dir.join(app.bench.name);
        run_app(app, i, &d, None, cfg, &mut rng, &mut tr, &mut c, tally);
        cold_verdicts.push(app.reference.0.clone());
    }
    WarmBase {
        dir: dir.to_path_buf(),
        cold_verdicts,
    }
}

/// Run `explore` (`warm = None`) or `restart` for `cfg.seconds`, traced or
/// not, and report its metrics.
pub fn run(
    apps: &[App],
    warm: Option<&WarmBase>,
    cfg: &Config,
    work: &Path,
    tally: &mut Tally,
) -> Metrics {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut m = Metrics::default();
    let root = work.join("pass");
    let budget = cfg.seconds as f64;
    let start = Instant::now();
    // Untraced passes give the end-to-end figures; a traced run spends half
    // its time on them (for the tracing overhead) and the rest traced.
    let untraced_budget = if cfg.trace { budget / 2.0 } else { budget };
    let (mut opens, mut passes, mut replies) = (Vec::new(), Vec::new(), Vec::<Vec<f64>>::new());
    let mut sink = Counters::default();
    let mut quiet = Tracer::new(false);
    while opens.is_empty() || start.elapsed().as_secs_f64() < untraced_budget {
        let t = run_pass(
            apps, &root, warm, cfg, &mut rng, &mut quiet, &mut sink, tally,
        );
        opens.push(t.open_s);
        passes.push(t.ops_s);
        replies.push(t.replies_ms);
    }
    let (p50, pct, tail_ms) = grouped(&replies, PASSES_PER_GROUP);
    m.set("open_s", median(&opens));
    m.set("pass_s", median(&passes));
    m.set("reply_p50_ms", p50);
    m.set("reply_tail_ms", tail_ms);
    m.note(format!(
        "{} passes ({:?} s) of {} replies each; reply tail is p{pct} of {PASSES_PER_GROUP} passes",
        passes.len(),
        passes,
        replies[0].len()
    ));
    m.set("reply_tail_pct", pct as f64);
    if !cfg.trace {
        return m;
    }

    let mut per_pass: Vec<(Tracer, Counters, f64)> = Vec::new();
    while per_pass.is_empty() || start.elapsed().as_secs_f64() < budget {
        let mut tr = Tracer::new(true);
        let mut c = Counters::default();
        let t = run_pass(apps, &root, warm, cfg, &mut rng, &mut tr, &mut c, tally);
        per_pass.push((tr, c, t.ops_s));
    }
    // Report the traced pass whose time is the median.
    per_pass.sort_by(|a, b| a.2.total_cmp(&b.2));
    let (tr, c, traced_s) = per_pass.swap_remove(per_pass.len() / 2);
    let self_ms = tr.self_ms_by_name();
    let get = |n: &str| self_ms.get(n).copied().unwrap_or(0.0);
    let named = [
        ("ir.parse_ms", "ir.parse"),
        ("analysis.analyze_ms", "analysis.analyze"),
        ("dynamic.profile_ms", "dynamic.profile"),
        ("dynamic.dyndep_ms", "dynamic.dyndep"),
        ("explorer.reanalyze_ms", "explorer.reanalyze"),
        ("explorer.guru_ms", "explorer.guru"),
        ("explorer.open_self_ms", "explorer.open"),
        ("slicing.slice_ms", "slicing.slice"),
        ("slicing.carried_deps_ms", "slicing.carried_deps"),
        ("snapshot.checkpoint_ms", "snapshot.checkpoint"),
        ("snapshot.load_ms", "snapshot.load"),
        ("server.expected_hashes_ms", "server.expected_hashes"),
        ("server.session_open_self_ms", "server.session_open"),
    ];
    let mut named_sum = 0.0;
    for (metric, span) in named {
        m.set(metric, get(span));
        named_sum += get(span);
    }
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ms) in &self_ms {
        *by_layer.entry(crate::trace::layer_of(name)).or_insert(0.0) += ms;
    }
    m.layer_self(&by_layer);
    m.set("analysis.facts_computed", c.facts[0]);
    m.set("analysis.facts_reused", c.facts[1]);
    m.set("analysis.facts_shared", c.facts[2]);
    m.set("analysis.summarize.invocations", c.invocations[0]);
    m.set("analysis.liveness.invocations", c.invocations[1]);
    m.set("analysis.classify.invocations", c.invocations[2]);
    m.set("analysis.summary_cache.hits", c.cache.0 as f64);
    m.set("analysis.summary_cache.misses", c.cache.1 as f64);
    m.set("poly.fm_runs", c.poly[0]);
    m.set("poly.quick_sats", c.poly[1]);
    m.set("poly.interval_rejects", c.poly[2]);
    m.prove_empty(c.prove_empty);
    m.set("dynamic.ops", c.dynamic_ops as f64);
    m.set("snapshot.appended_bytes", c.appended_bytes);
    m.set("snapshot.base_bytes", c.base_bytes as f64);
    m.accounting(
        median(&passes) * 1e3,
        traced_s * 1e3,
        named_sum,
        tr.replay_ns() as f64 / 1e6,
    );
    m.spans = Some(tr);
    m
}
