//! Parallel-demand smoke benchmark for CI: per ch4 application, the
//! classify fan-out of [`FactStore::demand_all`] with one worker versus a
//! small pool, plus a speculative-prefetch session demo, emitted to
//! `BENCH_3.json`.
//!
//! Both sides of each comparison start from a fresh fact store and a
//! cleared polyhedral emptiness memo, so the wall-clock difference is the
//! executor's, not a cache artifact.  The reported number is the best of
//! three runs (the smoke check cares about the ordering, not the noise).

use std::sync::Arc;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer, ScheduleOptions, SummaryCache};
use suif_benchmarks::{apps, BenchProgram, Scale};
use suif_server::json::Json;
use suif_server::{Session, SessionConfig};

const RUNS: usize = 3;
const PAR_THREADS: usize = 4;

/// Best-of-`RUNS` classify fan-out wall-clock with `threads` demand
/// workers, each run cold: fresh store, cleared prove-empty memo.
fn classify_wall(program: &suif_ir::Program, threads: usize) -> (f64, u64, usize) {
    let mut best = f64::INFINITY;
    let mut deduped = 0;
    let mut loops = 0;
    for _ in 0..RUNS {
        suif_poly::clear_prove_empty_cache();
        let store = FactStore::new();
        let (pa, stats) = Parallelizer::analyze_in(
            program,
            ParallelizeConfig::default(),
            &ScheduleOptions { threads },
            None,
            &store,
        );
        best = best.min(stats.demand_exec.wall_secs);
        deduped = stats.facts_deduped;
        loops = pa.ctx.tree.loops.len();
    }
    (best, deduped, loops)
}

fn bench_app(bench: &BenchProgram) -> (String, f64, f64) {
    let program = bench.parse();
    let (seq, _, loops) = classify_wall(&program, 1);
    let (par, deduped, _) = classify_wall(&program, PAR_THREADS);
    eprintln!(
        "{:<8} {loops:>3} loops  seq {seq:.6}s  par({PAR_THREADS}) {par:.6}s  x{:.2}",
        bench.name,
        seq / par.max(1e-12)
    );
    let json = format!(
        "{{\"name\":\"{}\",\"loops\":{loops},\"seq_wall_secs\":{seq:.6},\
         \"par_wall_secs\":{par:.6},\"speedup\":{:.4},\"deduped\":{deduped}}}",
        bench.name,
        seq / par.max(1e-12)
    );
    (json, seq, par)
}

/// Session demo: `guru` spawns the background prefetch, `slice` on the top
/// target claims its facts; the daemon's speculation counters are the
/// receipt.
fn speculation_demo() -> String {
    let bench = apps::mdg(Scale::Test);
    let cache = Arc::new(SummaryCache::new());
    let cfg = SessionConfig {
        opts: ScheduleOptions::sequential(),
        spec_budget: 4,
        ..SessionConfig::default()
    };
    let mut s = Session::open_cfg(&bench.source, cache, cfg).expect("open mdg session");
    let guru = s.guru_json();
    s.wait_speculation();
    if let Some(t) = guru
        .get("targets")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
        .and_then(|t| t.get("loop"))
        .and_then(Json::as_str)
    {
        let _ = s.slice_json(t);
    }
    let stats = s.stats_json();
    let spec = stats.get("speculation").expect("speculation stats");
    let n = |k: &str| spec.get(k).and_then(Json::as_i64).unwrap_or(0);
    format!(
        "{{\"spawned\":{},\"hits\":{},\"wasted\":{},\"pending\":{}}}",
        n("spawned"),
        n("hits"),
        n("wasted"),
        n("pending")
    )
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let benches = [
        apps::mdg(Scale::Test),
        apps::hydro(Scale::Test),
        apps::arc3d(Scale::Test),
        apps::flo88(Scale::Test, false),
        apps::hydro2d(Scale::Test),
        apps::wave5(Scale::Test),
    ];
    let mut total_seq = 0.0;
    let mut total_par = 0.0;
    let mut per_app = Vec::new();
    for b in &benches {
        let (json, seq, par) = bench_app(b);
        total_seq += seq;
        total_par += par;
        per_app.push(json);
    }
    let json = format!(
        "{{\"bench\":\"ch4-classify-fanout\",\"par_threads\":{PAR_THREADS},\"cpus\":{cpus},\
         \"apps\":[{}],\
         \"total\":{{\"seq_wall_secs\":{total_seq:.6},\"par_wall_secs\":{total_par:.6},\
         \"speedup\":{:.4}}},\
         \"speculation\":{}}}",
        per_app.join(","),
        total_seq / total_par.max(1e-12),
        speculation_demo()
    );
    std::fs::write("BENCH_3.json", &json).expect("write BENCH_3.json");
    println!("{json}");
    if total_par >= total_seq {
        // On a single-CPU host the fan-out cannot beat inline execution;
        // report the numbers but only fail where parallel hardware exists.
        eprintln!(
            "warning: parallel demand ({total_par:.6}s) not below sequential ({total_seq:.6}s)"
        );
        if cpus > 1 {
            std::process::exit(1);
        }
    }
}
