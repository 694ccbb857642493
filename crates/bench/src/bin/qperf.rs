//! Query-scoping microbenchmark: PDR with cone-restricted decision
//! domains ([`engines::pdr::Pdr::domains`]) vs. the same engine with
//! unrestricted VSIDS.
//!
//! Every `benchmarks/*.v` design is blasted and template-compiled
//! once, then checked by both configurations under the same budget.
//! Emits machine-readable JSON on stdout: per-design verdicts, query
//! counts, mean decisions and propagations per query for both legs,
//! the domain counters (in-domain decisions, parked variables), wall
//! times, and the per-design decisions-per-query ratio (domains on /
//! off) with its geomean —
//! the query-scoping leg of the perf trajectory next to `pdrperf`
//! (architecture) and `parperf` (scaling).
//!
//! Exits 2 if the two configurations disagree on any verdict or a
//! definite verdict fails independent certification; exits 1 if the
//! geomean decisions-per-query ratio is not strictly below 1 (domains
//! must prune decisions overall).
//!
//! Usage: `cargo run --release -p bench --bin qperf [-- --timeout SECS]`

use engines::certify::certify;
use engines::pdr::Pdr;
use engines::{Blasted, CheckOutcome, Checker, Verdict};
use std::time::Instant;

fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Safe => "safe".into(),
        Verdict::Unsafe(t) => format!("bug@{}", t.length()),
        Verdict::Unknown(u) => format!("unknown({u})"),
    }
}

fn run(checker: &Pdr, ts: &rtlir::TransitionSystem, blasted: &Blasted) -> (CheckOutcome, f64) {
    let t0 = Instant::now();
    let out = checker.check_blasted(ts, blasted);
    (out, t0.elapsed().as_secs_f64())
}

/// Mean decisions (or propagations) per SAT query.
fn per_query(total: u64, queries: u64) -> f64 {
    total as f64 / queries.max(1) as f64
}

fn main() {
    let (timeout, benchmarks) = bench::parse_args(20);
    let mut ratios: Vec<f64> = Vec::new();
    let mut disagreed = false;
    let mut uncertified = false;
    println!("{{");
    println!("  \"benchmark\": \"qperf\",");
    println!("  \"timeout_s\": {timeout},");
    println!("  \"runs\": [");
    for (i, b) in benchmarks.iter().enumerate() {
        let ts = b.compile().expect("benchmark compiles");
        let blasted = Blasted::of(&ts);
        let budget = bench::budget(timeout);
        let (on, on_s) = run(&Pdr::new(budget.clone()), &ts, &blasted);
        let (off, off_s) = run(
            &Pdr {
                domains: false,
                ..Pdr::new(budget)
            },
            &ts,
            &blasted,
        );
        // Only opposing *definite* verdicts are a disagreement (the
        // portfolio rule): a timeout on one side is a budget artifact.
        let agree = !matches!(
            (&on.outcome, &off.outcome),
            (Verdict::Safe, Verdict::Unsafe(_)) | (Verdict::Unsafe(_), Verdict::Safe)
        );
        disagreed |= !agree;
        // Every definite verdict must survive independent
        // certification against the raw template.
        let mut certified = true;
        for out in [&on, &off] {
            if !matches!(out.outcome, Verdict::Unknown(_)) && !certify(&blasted.sys, out).ok {
                certified = false;
            }
        }
        uncertified |= !certified;
        let dec_on = per_query(on.stats.decisions, on.stats.sat_queries);
        let dec_off = per_query(off.stats.decisions, off.stats.sat_queries);
        let prop_on = per_query(on.stats.propagations, on.stats.sat_queries);
        let prop_off = per_query(off.stats.propagations, off.stats.sat_queries);
        let ratio = dec_on / dec_off.max(1e-9);
        ratios.push(ratio);
        print!(
            "    {{\"design\":\"{}\",\"verdict_on\":\"{}\",\"verdict_off\":\"{}\",\
             \"certified\":{},\
             \"queries_on\":{},\"queries_off\":{},\
             \"decisions_per_query_on\":{:.2},\"decisions_per_query_off\":{:.2},\
             \"propagations_per_query_on\":{:.2},\"propagations_per_query_off\":{:.2},\
             \"domain_decisions\":{},\"domain_skipped\":{},\
             \"on_s\":{:.4},\"off_s\":{:.4},\"decision_ratio\":{:.3}}}",
            b.name,
            verdict_label(&on.outcome),
            verdict_label(&off.outcome),
            certified,
            on.stats.sat_queries,
            off.stats.sat_queries,
            dec_on,
            dec_off,
            prop_on,
            prop_off,
            on.stats.domain_decisions,
            on.stats.domain_skipped,
            on_s,
            off_s,
            ratio,
        );
        println!("{}", if i + 1 < benchmarks.len() { "," } else { "" });
    }
    println!("  ],");
    let geo = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp();
    let geomean = geo(&ratios);
    println!("  \"geomean_decision_ratio\": {geomean:.3},");
    println!("  \"disagreement\": {disagreed},");
    println!("  \"certificate_failure\": {uncertified}");
    println!("}}");
    if disagreed || uncertified {
        std::process::exit(2);
    }
    if geomean >= 1.0 {
        std::process::exit(1);
    }
}
