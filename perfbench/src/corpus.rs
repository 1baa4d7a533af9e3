//! The `corpus` workload: `suif_server::run_corpus` over seeded
//! `minif-gen` programs, a cold pass on a fresh `SharedFactTier` followed
//! by a warm rerun over the same tier.  No interpreter runs, so analysis
//! and the polyhedral kernel do nearly all the work.

use crate::trace::{grouped, median, Tracer};
use crate::{Config, Metrics, Tally};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer, SharedFactTier, SummaryCache};
use suif_server::{CorpusEntry, CorpusOptions, CorpusRun};

/// Programs per pass: a cold pass takes about half a second on the 2-CPU
/// reference host, so a run measures well over ten passes.
pub const PROGRAMS: usize = 600;

/// Programs of the corpus checked with the static-vs-dynamic oracle at
/// set-up: enough that the set-up's cost varies little with the seed.
const ORACLE_SAMPLE: usize = 48;

/// The corpus of one run: `PROGRAMS` generated programs from a seed base
/// derived from the workload seed.
pub fn entries(seed: u64) -> Vec<CorpusEntry> {
    suif_server::generated_entries(PROGRAMS, seed.wrapping_mul(1_000_003))
}

/// Set-up check, outside the timed region: every loop the static analysis
/// calls parallel in a sample of the corpus certifies race-free under four
/// adversarial schedules, with output identical to the sequential run.
pub fn oracle(entries: &[CorpusEntry], tally: &mut Tally) {
    for e in entries.iter().take(ORACLE_SAMPLE) {
        let Ok(program) = suif_ir::parse_program(&e.source) else {
            tally.fail(format!("{}: does not parse", e.name));
            continue;
        };
        let seq = suif_parallel::capture_sequential(&program, &[]);
        let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
        let plans = suif_parallel::ParallelPlans::from_analysis(&pa);
        for info in pa.certify_inputs().into_iter().filter(|i| i.parallel) {
            let Some(plan) = plans.loops.get(&info.stmt) else {
                tally.fail(format!(
                    "{}: parallel loop {} has no plan",
                    e.name, info.name
                ));
                continue;
            };
            let cert = suif_parallel::certify_loop(
                &program,
                info.stmt,
                plan,
                &suif_parallel::CertifyOptions {
                    schedules: 4,
                    seed: e.source.len() as u64,
                    ..Default::default()
                },
            );
            let ok = cert.schedules.iter().all(|s| {
                s.outcome.races.is_empty()
                    && s.capture.error.is_none()
                    && minif_gen::canon(&s.capture.output) == minif_gen::canon(&seq.output)
            });
            tally.check(ok, || {
                format!("{}: loop {} failed certification", e.name, info.name)
            });
        }
    }
}

fn options(cfg: &Config) -> CorpusOptions {
    CorpusOptions {
        workers: cfg.workers,
        ..Default::default()
    }
}

/// One cold + warm pass.
struct Pass {
    cold: CorpusRun,
    warm: CorpusRun,
    tier: Arc<SharedFactTier>,
    cache: Arc<SummaryCache>,
    warm_tier: (u64, u64),
    poly: suif_poly::PolyStats,
    prove_empty: (u64, u64),
}

fn run_pass(entries: &[CorpusEntry], cfg: &Config, tr: &mut Tracer, tally: &mut Tally) -> Pass {
    // Cold means cold: a fresh tier, a fresh summary cache, an empty memo.
    suif_poly::clear_prove_empty_cache();
    let tier = Arc::new(SharedFactTier::new());
    let cache = Arc::new(SummaryCache::new());
    let poly0 = suif_poly::poly_stats();
    let pe0 = suif_poly::prove_empty_cache_counters();
    tr.next_request();
    let (cold, _) = tr.span("corpus.cold", || {
        suif_server::run_corpus(entries.to_vec(), &options(cfg), &tier, &cache, |_| {})
    });
    let t0 = tier.stats();
    tr.next_request();
    let (warm, _) = tr.span("corpus.warm", || {
        suif_server::run_corpus(entries.to_vec(), &options(cfg), &tier, &cache, |_| {})
    });
    let t1 = tier.stats();
    let pe1 = suif_poly::prove_empty_cache_counters();
    let poly = suif_poly::poly_stats().since(&poly0);
    for run in [&cold, &warm] {
        for r in &run.reports {
            if r.is_ok() {
                tally.attempt();
            } else {
                tally.fail(format!("{}: {} {:?}", r.name, r.status, r.error));
            }
        }
    }
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        let same = c.deterministic_json().to_string() == w.deterministic_json().to_string();
        tally.check(same, || {
            format!("{}: warm report differs from cold", c.name)
        });
    }
    Pass {
        cold,
        warm,
        tier,
        cache,
        warm_tier: (t1.hits - t0.hits, t1.misses - t0.misses),
        poly,
        prove_empty: (pe1.0 - pe0.0, pe1.1 - pe0.1),
    }
}

/// Replay every program of the cold pass sequentially, in the state the
/// pool ran it: `analyze_single` in a fresh store, with its parse and
/// analysis replayed as children.
fn replay_programs(entries: &[CorpusEntry], tr: &mut Tracer) {
    suif_poly::clear_prove_empty_cache();
    for e in entries {
        tr.next_request();
        let id = tr.replay(usize::MAX, "corpus.program", || {
            std::hint::black_box(suif_server::analyze_single(&e.name, &e.source, 0));
        });
        let mut program = None;
        tr.replay(id, "ir.parse", || {
            program = suif_ir::parse_program(&e.source).ok()
        });
        if let Some(p) = &program {
            tr.replay(id, "analysis.analyze", || {
                std::hint::black_box(Parallelizer::analyze_in(
                    p,
                    ParallelizeConfig::default(),
                    &suif_analysis::ScheduleOptions::sequential(),
                    None,
                    &FactStore::new(),
                ));
            });
        }
    }
}

pub fn run(entries: &[CorpusEntry], cfg: &Config, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let budget = cfg.seconds as f64;
    let untraced_budget = if cfg.trace { budget / 2.0 } else { budget };
    let start = Instant::now();
    let (mut colds, mut passes, mut lat) = (Vec::new(), Vec::new(), Vec::<Vec<f64>>::new());
    let mut quiet = Tracer::new(false);
    while colds.is_empty() || start.elapsed().as_secs_f64() < untraced_budget {
        let p = run_pass(entries, cfg, &mut quiet, tally);
        colds.push(p.cold.summary.wall_secs);
        passes.push(p.cold.summary.wall_secs + p.warm.summary.wall_secs);
        lat.push(p.cold.reports.iter().map(|r| r.secs * 1e3).collect());
    }
    let (p50, pct, tail_ms) = grouped(&lat, 1);
    m.set("open_s", median(&colds));
    m.set("pass_s", median(&passes));
    m.set("reply_p50_ms", p50);
    m.set("reply_tail_ms", tail_ms);
    m.set("reply_tail_pct", pct as f64);
    m.note(format!(
        "{} passes of {} programs: cold {:.0}/s, warm {:.0}/s (medians); program tail is p{pct} of a pass",
        passes.len(),
        entries.len(),
        entries.len() as f64 / median(&colds),
        entries.len() as f64 / (median(&passes) - median(&colds)),
    ));
    if !cfg.trace {
        return m;
    }

    // Traced: the same cold + warm pass with spans around both runs, then
    // the cold pass's programs replayed one by one.
    let mut tr = Tracer::new(true);
    let p = run_pass(entries, cfg, &mut tr, tally);
    let traced_s = p.cold.summary.wall_secs + p.warm.summary.wall_secs;
    replay_programs(entries, &mut tr);
    let self_ms = tr.self_ms_by_name();
    let get = |n: &str| self_ms.get(n).copied().unwrap_or(0.0);
    let workers = p.cold.summary.workers.max(1) as f64;
    let busy: f64 = p.cold.reports.iter().map(|r| r.secs).sum();
    let efficiency = busy / (workers * p.cold.summary.wall_secs);
    // The pool runs programs side by side, so a sequential replay's time
    // counts on the blocking path divided by the worker count; what the
    // pool's wall time holds beyond that is its idle and imbalance.
    let seq_ms = tr.total_ms("corpus.program");
    let pool_idle_ms = tr.total_ms("corpus.cold") - seq_ms / workers;
    m.set("ir.parse_ms", get("ir.parse"));
    m.set("analysis.analyze_ms", get("analysis.analyze"));
    m.set("corpus.program_ms", seq_ms);
    m.set("corpus.pool_efficiency", efficiency);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    by_layer.insert("ir", get("ir.parse") / workers);
    by_layer.insert("analysis", get("analysis.analyze") / workers);
    by_layer.insert(
        "corpus",
        get("corpus.program") / workers + pool_idle_ms + tr.total_ms("corpus.warm"),
    );
    m.layer_self(&by_layer);
    let mut facts = [0.0; 3];
    let mut inv = [0.0; 3];
    for r in p.cold.reports.iter().chain(&p.warm.reports) {
        facts[0] += r.facts_computed as f64;
        facts[1] += r.facts_reused as f64;
        facts[2] += r.facts_shared as f64;
        for (name, _, n, _, _) in &r.passes {
            if let Some(i) = ["summarize", "liveness", "classify"]
                .iter()
                .position(|p| p == name)
            {
                inv[i] += *n as f64;
            }
        }
    }
    m.set("analysis.facts_computed", facts[0]);
    m.set("analysis.facts_reused", facts[1]);
    m.set("analysis.facts_shared", facts[2]);
    m.set("analysis.summarize.invocations", inv[0]);
    m.set("analysis.liveness.invocations", inv[1]);
    m.set("analysis.classify.invocations", inv[2]);
    let (h, mi) = p.cache.counters();
    m.set("analysis.summary_cache.hits", h as f64);
    m.set("analysis.summary_cache.misses", mi as f64);
    m.set("poly.fm_runs", p.poly.fm_runs as f64);
    m.set("poly.quick_sats", p.poly.quick_sats as f64);
    m.set("poly.interval_rejects", p.poly.interval_rejects as f64);
    m.prove_empty(p.prove_empty);
    let (th, tm) = p.warm_tier;
    m.set("tier.hit_ratio", th as f64 / (th + tm).max(1) as f64);
    m.set(
        "tier.peak_resident_bytes",
        p.tier.stats().peak_resident_bytes as f64,
    );
    let named = (get("ir.parse") + get("analysis.analyze") + get("corpus.program")) / workers;
    m.accounting(
        median(&passes) * 1e3,
        traced_s * 1e3,
        named,
        tr.replay_ns() as f64 / 1e6,
    );
    m.spans = Some(tr);
    m
}
