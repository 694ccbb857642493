//! Per-layer counters of a traced run, gathered from the public
//! reports each check returns (`CheckOutcome`, `CertifyReport`,
//! `PortfolioOutcome` and its `EngineReport`s) and from the spans.

use crate::check::{Accepted, Answer};
use crate::trace::Layer;
use std::collections::BTreeMap;
use std::time::Duration;

/// The hybrid portfolio's seats, by `Checker::name`.
pub const SEATS: [&str; 5] = ["bmc", "abc-kind", "abc-itp", "abc-pdr", "cpa-predabs"];

#[derive(Default)]
struct Seat {
    time: Duration,
    queries: u64,
    wins: usize,
}

#[derive(Default)]
pub struct Counters {
    checks: usize,
    rejected: usize,
    /// Checks that reached an engine.
    engine_runs: usize,
    mined: u64,
    retained: u64,
    invariant_clauses: u64,
    queries: u64,
    decisions: u64,
    propagations: u64,
    /// Engine time the queries were issued in (summed over seats).
    engine_time: Duration,
    pdr_runs: usize,
    /// Time of the portfolio's PDR seat.
    pdr_time: Duration,
    pdr_frames: u64,
    pdr_arena_peak: u64,
    /// Time of the portfolio's witness re-checks.
    certify_time: Duration,
    certify_checked: usize,
    certify_ok: usize,
    /// Portfolio checks, and those that had a winner.
    races: usize,
    races_won: usize,
    seats: BTreeMap<&'static str, Seat>,
    seat_time: Duration,
    loser_time: Duration,
    uncertified_wins: usize,
    /// Races in which at least one seat was demoted.
    demoted_races: usize,
}

impl Counters {
    /// Folds in one traced check and how the oracle judged it.
    pub fn absorb(&mut self, answer: &Answer, judged: &Result<Accepted, String>) {
        self.checks += 1;
        if *judged == Ok(Accepted::Uncertified) {
            self.uncertified_wins += 1;
        }
        match answer {
            Answer::Panicked(_) => {}
            Answer::Rejected(_) => self.rejected += 1,
            Answer::Pdr {
                invariant,
                invariant_clauses,
                out,
                cert,
                ..
            } => {
                self.engine(invariant, *invariant_clauses as u32);
                let s = &out.stats;
                self.solver(s);
                self.pdr_runs += 1;
                self.pdr_frames += u64::from(s.depth);
                self.pdr_arena_peak += s.arena_peak_bytes;
                self.certified(cert);
            }
            Answer::Portfolio { invariant, out, .. } => {
                self.engine(invariant, out.invariant_clauses);
                let won = out.winner.is_some();
                let mut demoted = false;
                for e in &out.engines {
                    let s = &e.outcome.stats;
                    self.solver(s);
                    if e.name == "abc-pdr" {
                        self.pdr_runs += 1;
                        self.pdr_time += s.time;
                        self.pdr_frames += u64::from(s.depth);
                        self.pdr_arena_peak += s.arena_peak_bytes;
                    }
                    if let Some(c) = &e.certify {
                        self.certify_time += c.time;
                        self.certified(c);
                        demoted |= !c.ok;
                    }
                    let seat = self.seats.entry(e.name).or_default();
                    seat.time += s.time;
                    seat.queries += s.sat_queries;
                    seat.wins += usize::from(e.winner);
                    if won {
                        self.seat_time += s.time;
                        if !e.winner {
                            self.loser_time += s.time;
                        }
                    }
                }
                self.races += 1;
                self.races_won += usize::from(won);
                self.demoted_races += usize::from(demoted);
            }
        }
    }

    fn engine(&mut self, inv: &aig::AnalysisStats, clauses: u32) {
        self.engine_runs += 1;
        self.mined += u64::from(inv.mined);
        self.retained += u64::from(inv.retained);
        self.invariant_clauses += u64::from(clauses);
    }

    fn solver(&mut self, s: &engines::EngineStats) {
        self.queries += s.sat_queries;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.engine_time += s.time;
    }

    fn certified(&mut self, c: &engines::CertifyReport) {
        if c.witnessed || !c.ok {
            self.certify_checked += 1;
            self.certify_ok += usize::from(c.ok);
        }
    }

    /// Every per-layer metric as `(name, value, unit)`. `spans` are the
    /// traced checks' layers; `traced_cps` and `untraced_cps` the
    /// throughput of the traced and the interleaved untraced passes.
    pub fn metrics(
        &self,
        spans: &BTreeMap<&'static str, Layer>,
        traced_cps: f64,
        untraced_cps: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let checks = self.checks.max(1) as f64;
        let runs = self.engine_runs.max(1) as f64;
        let span = |name: &str| spans.get(name).copied().unwrap_or_default();
        // Milliseconds per check, over every traced check, so that the
        // layers of one check add up to its time.
        let per_check = |d: Duration| d.as_secs_f64() * 1e3 / checks;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let vfront = ["vfront.parse", "vfront.elaborate", "vfront.synthesize"];
        // PDR and certification have their own spans on pdr-suite; in
        // the portfolio their time comes from the seats' reports.
        let pdr_time = span("pdr").total + self.pdr_time;
        let certify_time = span("certify").total + self.certify_time;
        let check = span("check");
        let queries = self.queries as f64;
        let mut m: Vec<(String, f64, &'static str)> = vec![
            (
                "vfront.compile_ms".into(),
                per_check(vfront.iter().map(|v| span(v).total).sum()),
                "ms",
            ),
            (
                "vfront.parse_ms".into(),
                per_check(span(vfront[0]).total),
                "ms",
            ),
            (
                "vfront.elaborate_ms".into(),
                per_check(span(vfront[1]).total),
                "ms",
            ),
            (
                "vfront.synthesize_ms".into(),
                per_check(span(vfront[2]).total),
                "ms",
            ),
            (
                "vfront.reject_frac".into(),
                self.rejected as f64 / checks,
                "frac",
            ),
            (
                "aig.blasted_of_ms".into(),
                per_check(span("aig.blasted_of").total),
                "ms",
            ),
            (
                "aig.blast_ms".into(),
                per_check(span("aig.blast").total),
                "ms",
            ),
            (
                "aig.template_ms".into(),
                per_check(span("aig.template").total),
                "ms",
            ),
            (
                "aig.mine_ms".into(),
                per_check(span("aig.mine").total),
                "ms",
            ),
            (
                "aig.preprocess_ms".into(),
                per_check(span("aig.preprocess").total),
                "ms",
            ),
            (
                "aig.mine_retained_frac".into(),
                ratio(self.retained as f64, self.mined as f64),
                "frac",
            ),
            (
                "aig.invariant_clauses".into(),
                self.invariant_clauses as f64 / runs,
                "count",
            ),
            ("satb.queries".into(), queries / runs, "count"),
            (
                "satb.us_per_query".into(),
                ratio(self.engine_time.as_secs_f64() * 1e6, queries),
                "us",
            ),
            (
                "satb.decisions_per_query".into(),
                ratio(self.decisions as f64, queries),
                "count",
            ),
            (
                "satb.propagations_per_query".into(),
                ratio(self.propagations as f64, queries),
                "count",
            ),
            ("pdr.ms".into(), per_check(pdr_time), "ms"),
            (
                "pdr.frames".into(),
                ratio(self.pdr_frames as f64, self.pdr_runs as f64),
                "count",
            ),
            (
                "pdr.arena_peak_bytes".into(),
                ratio(self.pdr_arena_peak as f64, self.pdr_runs as f64),
                "bytes",
            ),
            ("certify.ms".into(), per_check(certify_time), "ms"),
            (
                "certify.ok_frac".into(),
                ratio(self.certify_ok as f64, self.certify_checked as f64),
                "frac",
            ),
            (
                "portfolio.race_ms".into(),
                per_check(span("portfolio").total),
                "ms",
            ),
        ];
        let seat = |name: &str| self.seats.get(name);
        for s in SEATS {
            let t = seat(s).map_or(Duration::ZERO, |x| x.time);
            m.push((format!("portfolio.seat_ms.{s}"), per_check(t), "ms"));
        }
        for s in SEATS {
            let q = seat(s).map_or(0, |x| x.queries) as f64;
            m.push((format!("portfolio.seat_queries.{s}"), q / runs, "count"));
        }
        for s in SEATS {
            let w = seat(s).map_or(0, |x| x.wins) as f64;
            m.push((
                format!("portfolio.wins.{s}"),
                ratio(w, self.races_won as f64),
                "frac",
            ));
        }
        m.extend([
            (
                "portfolio.loser_share".into(),
                ratio(self.loser_time.as_secs_f64(), self.seat_time.as_secs_f64()),
                "frac",
            ),
            // Rates, not totals, so they compare across commits that
            // fit more or fewer checks into a run.
            (
                "portfolio.uncertified_wins".into(),
                ratio(self.uncertified_wins as f64, self.races_won as f64),
                "frac",
            ),
            (
                "portfolio.demotions".into(),
                ratio(self.demoted_races as f64, self.races as f64),
                "frac",
            ),
            ("check.self_ms".into(), per_check(check.self_time), "ms"),
            (
                "trace.span_coverage".into(),
                ratio(
                    (check.total - check.self_time).as_secs_f64(),
                    check.total.as_secs_f64(),
                ),
                "frac",
            ),
            ("trace.checks_per_s".into(), traced_cps, "1/s"),
            ("trace.untraced_checks_per_s".into(), untraced_cps, "1/s"),
            (
                "trace.overhead_frac".into(),
                ratio(untraced_cps, traced_cps) - 1.0,
                "frac",
            ),
        ]);
        m
    }
}
