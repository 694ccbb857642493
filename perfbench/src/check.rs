//! One check — Verilog source through `vfront`, `Blasted::of`, the
//! engine and certification — and the oracle that judges its output.

use crate::trace::Recorder;
use crate::workload::{Engine, Item};
use bmarks::Expected;
use engines::certify::{self, CertifyReport};
use engines::{Blasted, CheckOutcome, Checker, PortfolioOutcome, Unknown, Verdict};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Budget of the independent PDR run that settles an uncertified
/// portfolio win on a mutant, whose ground truth is unknown.
const SETTLE_BUDGET_S: u64 = 10;

/// What one check produced.
pub enum Answer {
    /// `vfront` rejected the source: a completed check on mutants.
    Rejected(String),
    Pdr {
        sys: Arc<aig::AigSystem>,
        invariant: aig::AnalysisStats,
        invariant_clauses: usize,
        out: CheckOutcome,
        cert: CertifyReport,
    },
    Portfolio {
        sys: Arc<aig::AigSystem>,
        invariant: aig::AnalysisStats,
        out: PortfolioOutcome,
    },
    /// The pipeline panicked.
    Panicked(String),
}

/// Runs one check of `item` on `engine`, with a span around each
/// public call.
pub fn run(engine: &Engine, item: &Item, rec: &mut Recorder) -> Answer {
    rec.span("check", |rec| {
        catch_unwind(AssertUnwindSafe(|| pipeline(engine, item, rec))).unwrap_or_else(|e| {
            let msg = e
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Answer::Panicked(msg)
        })
    })
}

fn pipeline(engine: &Engine, item: &Item, rec: &mut Recorder) -> Answer {
    let compiled = rec
        .span("vfront.parse", |_| vfront::parse(&item.source))
        .and_then(|m| rec.span("vfront.elaborate", |_| vfront::elaborate(&m, item.top)))
        .and_then(|d| rec.span("vfront.synthesize", |_| vfront::synthesize(&d)));
    let ts = match compiled {
        Ok(ts) => ts,
        Err(e) => return Answer::Rejected(e.to_string()),
    };
    let blasted = rec.span("aig.blasted_of", |_| Blasted::of(&ts));
    let invariant = blasted.invariant.stats.clone();
    match engine {
        Engine::Pdr(pdr) => {
            let out = rec.span("pdr", |_| pdr.check_blasted(&ts, &blasted));
            let cert = rec.span("certify", |_| certify::certify(&blasted.sys, &out));
            Answer::Pdr {
                sys: blasted.sys.clone(),
                invariant,
                invariant_clauses: blasted.invariant.clauses.len(),
                out,
                cert,
            }
        }
        Engine::Portfolio(p) => {
            let out = rec.span("portfolio", |_| p.check_detailed_blasted(&ts, &blasted));
            Answer::Portfolio {
                sys: blasted.sys.clone(),
                invariant,
                out,
            }
        }
    }
}

/// Splits `Blasted::of` on the same source into the public steps it
/// is made of — blast, template compilation, invariant mining with its
/// certification, and preprocessing — each in its own span under an
/// `aig.probe` root. Runs outside the timed check.
pub fn aig_probe(item: &Item, rec: &mut Recorder) {
    let Ok(ts) = vfront::compile(&item.source, item.top) else {
        return;
    };
    rec.span("aig.probe", |rec| {
        let sys = rec.span("aig.blast", |_| aig::blast_system(&ts));
        let raw = rec.span("aig.template", |_| aig::TransitionTemplate::compile(&sys));
        let inv = rec.span("aig.mine", |_| {
            let inv = aig::analyze(
                &sys,
                &raw,
                &aig::AnalysisConfig::default(),
                &satb::Limits::default(),
            );
            let ok = inv.is_empty() || certify::certify_invariant(&sys, &raw, &inv.clauses).ok;
            if ok {
                inv
            } else {
                aig::StaticInvariant::default()
            }
        });
        let tpl = if inv.constants.is_empty() {
            raw
        } else {
            rec.span("aig.template", |_| {
                aig::TransitionTemplate::compile(&aig::refine_with_constants(&sys, &inv.constants))
            })
        };
        rec.span("aig.preprocess", |_| tpl.preprocess());
    });
}

/// How the oracle accepted a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// `vfront` rejected a mutant.
    Rejected,
    /// A definite verdict backed by a checked witness.
    Certified,
    /// A correct portfolio win without a witness to check.
    Uncertified,
}

/// Judges a check's output. `Ok` says how it was accepted; `Err` says
/// why it is a failure.
///
/// With a known answer the verdict must equal it; an Unsafe trace must
/// replay on the blasted netlist and a Safe witness must pass
/// `certify::certify`. Without one (mutants) any panic, disagreement
/// alarm, Unknown verdict, non-replaying trace or failed certificate
/// fails; a witness-less Safe win is settled by an independent PDR run.
/// On either, a portfolio seat that panicked or whose witness failed
/// its re-check fails the check, even when another seat won the race.
pub fn judge(item: &Item, answer: &Answer) -> Result<Accepted, String> {
    match answer {
        Answer::Panicked(msg) => Err(format!("panic: {msg}")),
        Answer::Rejected(why) => match item.expected {
            Some(_) => Err(format!("vfront rejected a benchmark design: {why}")),
            None => Ok(Accepted::Rejected),
        },
        Answer::Pdr { sys, out, cert, .. } => {
            judge_verdict(item.expected, sys, &out.outcome)?;
            if !cert.ok {
                return Err(format!("certificate failed: {:?}", cert.failure));
            }
            if !cert.witnessed {
                return Err("PDR answered without a witness".into());
            }
            Ok(Accepted::Certified)
        }
        Answer::Portfolio { sys, out, .. } => {
            if out.disagreement {
                return Err("portfolio disagreement alarm".into());
            }
            judge_seats(out)?;
            judge_verdict(item.expected, sys, &out.verdict)?;
            if out.verdict.is_unsafe() {
                return Ok(Accepted::Certified);
            }
            match &out.certificate {
                Some(cert) => {
                    let claimed = CheckOutcome {
                        outcome: Verdict::Safe,
                        stats: Default::default(),
                        certificate: Some(cert.clone()),
                    };
                    let rep = certify::certify(sys, &claimed);
                    if rep.ok && rep.witnessed {
                        Ok(Accepted::Certified)
                    } else {
                        Err(format!("winner's certificate failed: {:?}", rep.failure))
                    }
                }
                None if item.expected.is_some() => Ok(Accepted::Uncertified),
                None => settle_safe(item).map(|()| Accepted::Uncertified),
            }
        }
    }
}

/// No seat of the race panicked or was demoted for a witness that
/// failed its re-check.
fn judge_seats(out: &PortfolioOutcome) -> Result<(), String> {
    for e in &out.engines {
        if let Verdict::Unknown(u @ (Unknown::Crashed(_) | Unknown::CertificateFailed(_))) =
            &e.outcome.outcome
        {
            return Err(format!("seat {}: {u}", e.name));
        }
        if let Some(c) = e.certify.as_ref().filter(|c| !c.ok) {
            return Err(format!(
                "seat {}'s certificate failed: {:?}",
                e.name, c.failure
            ));
        }
    }
    Ok(())
}

/// The verdict is definite, matches a known answer, and an Unsafe
/// trace replays.
fn judge_verdict(
    expected: Option<Expected>,
    sys: &aig::AigSystem,
    verdict: &Verdict,
) -> Result<(), String> {
    let unsafe_ = match verdict {
        Verdict::Unknown(u) => return Err(format!("no verdict: {u}")),
        Verdict::Safe => false,
        Verdict::Unsafe(trace) => {
            if !trace.replays_on(sys) {
                return Err("counterexample trace does not replay".into());
            }
            true
        }
    };
    match expected {
        Some(Expected::Safe) if unsafe_ => Err("UNSAFE on a safe design".into()),
        Some(Expected::Unsafe) if !unsafe_ => Err("SAFE on an unsafe design".into()),
        _ => Ok(()),
    }
}

/// Confirms a witness-less Safe verdict on a mutant with a solo,
/// certified PDR run.
fn settle_safe(item: &Item) -> Result<(), String> {
    let ts = vfront::compile(&item.source, item.top).map_err(|e| e.to_string())?;
    let blasted = Blasted::of(&ts);
    let out = engines::pdr::Pdr::new(bench::budget(SETTLE_BUDGET_S)).check_blasted(&ts, &blasted);
    let cert = certify::certify(&blasted.sys, &out);
    match out.outcome {
        Verdict::Safe if cert.ok && cert.witnessed => Ok(()),
        other => Err(format!(
            "uncertified SAFE win, independent PDR says {other}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{pass_items, Workload};

    fn design(name: &str) -> Item {
        let b = bmarks::by_name(name).expect("design exists");
        Item {
            design: 0,
            source: b.source.to_string(),
            top: b.top,
            expected: Some(b.expected),
        }
    }

    fn pdr_answer(item: &Item) -> Answer {
        run(
            &Workload::PdrSuite.engine(),
            item,
            &mut Recorder::new(false),
        )
    }

    #[test]
    fn oracle_accepts_real_answers() {
        for name in ["DAIO", "Dekker"] {
            let item = design(name);
            assert_eq!(
                judge(&item, &pdr_answer(&item)),
                Ok(Accepted::Certified),
                "{name}"
            );
        }
    }

    #[test]
    fn oracle_rejects_a_forged_wrong_verdict() {
        let item = design("DAIO");
        let Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            mut out,
            cert,
        } = pdr_answer(&item)
        else {
            panic!("DAIO compiles");
        };
        // The certificate check of an Unsafe answer passed; swap in a
        // Safe verdict on this unsafe design.
        out.outcome = Verdict::Safe;
        let forged = Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            out,
            cert,
        };
        assert_eq!(
            judge(&item, &forged),
            Err("SAFE on an unsafe design".into())
        );
    }

    #[test]
    fn oracle_rejects_a_forged_non_replaying_trace() {
        let item = design("DAIO");
        let Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            mut out,
            cert,
        } = pdr_answer(&item)
        else {
            panic!("DAIO compiles");
        };
        let Verdict::Unsafe(trace) = &mut out.outcome else {
            panic!("DAIO is unsafe");
        };
        // Stop the trace one cycle early: the bad no longer fires.
        trace.states.pop();
        trace.inputs.pop();
        assert!(!trace.replays_on(&sys));
        let forged = Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            out,
            cert,
        };
        let err = judge(&item, &forged).expect_err("forged trace");
        assert!(err.contains("does not replay"), "{err}");
        // The same forgery fails on a mutant, where no answer is known.
        let mutant = Item {
            expected: None,
            ..item
        };
        assert!(judge(&mutant, &forged).is_err());
    }

    #[test]
    fn oracle_fails_unknown_panics_and_suite_rejections() {
        let item = design("Dekker");
        let panicked = Answer::Panicked("boom".into());
        assert!(judge(&item, &panicked).is_err());
        let rejected = Answer::Rejected("syntax".into());
        assert!(
            judge(&item, &rejected).is_err(),
            "a suite design must compile"
        );
        let mutant = Item {
            expected: None,
            ..design("Dekker")
        };
        assert_eq!(judge(&mutant, &rejected), Ok(Accepted::Rejected));
        let Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            mut out,
            cert,
        } = pdr_answer(&item)
        else {
            panic!("Dekker compiles");
        };
        out.outcome = Verdict::Unknown(engines::Unknown::Timeout);
        let timed_out = Answer::Pdr {
            sys,
            invariant,
            invariant_clauses,
            out,
            cert,
        };
        assert!(judge(&mutant, &timed_out).is_err());
    }

    #[test]
    fn oracle_fails_a_crashed_or_demoted_losing_seat() {
        let item = design("Dekker");
        let real = || {
            run(
                &Workload::PortfolioSuite.engine(),
                &item,
                &mut Recorder::new(false),
            )
        };
        assert_eq!(
            judge(&item, &real()).map(|_| ()),
            Ok(()),
            "the real race passes"
        );
        let crash = |e: &mut engines::portfolio::EngineReport| {
            e.outcome.outcome = Verdict::Unknown(Unknown::Crashed(e.name.into()));
        };
        let demote = |e: &mut engines::portfolio::EngineReport| {
            e.outcome.outcome =
                Verdict::Unknown(Unknown::CertificateFailed("not inductive".into()));
        };
        let failed_recheck = |e: &mut engines::portfolio::EngineReport| {
            e.certify = Some(CertifyReport {
                ok: false,
                witnessed: true,
                obligations: 1,
                failure: Some("not inductive".into()),
                proof_chains: 0,
                time: Default::default(),
            });
        };
        let forgeries: [&dyn Fn(&mut engines::portfolio::EngineReport); 3] =
            [&crash, &demote, &failed_recheck];
        for forge in forgeries {
            let Answer::Portfolio {
                sys,
                invariant,
                mut out,
            } = real()
            else {
                panic!("Dekker compiles");
            };
            let loser = out
                .engines
                .iter_mut()
                .find(|e| !e.winner)
                .expect("a losing seat");
            forge(loser);
            let name = loser.name;
            let forged = Answer::Portfolio {
                sys,
                invariant,
                out,
            };
            let err = judge(&item, &forged).expect_err("a failed seat fails the check");
            assert!(err.contains(name), "{err}");
            let mutant = Item {
                expected: None,
                ..design("Dekker")
            };
            assert!(judge(&mutant, &forged).is_err());
        }
    }

    #[test]
    fn traced_check_spans_every_layer() {
        let w = Workload::PdrSuite;
        let item = &pass_items(w, &w.designs(), 1, 0)[2];
        let mut rec = Recorder::new(true);
        let answer = run(&w.engine(), item, &mut rec);
        assert!(judge(item, &answer).is_ok());
        aig_probe(item, &mut rec);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        for layer in [
            "check",
            "vfront.parse",
            "vfront.elaborate",
            "vfront.synthesize",
            "aig.blasted_of",
            "pdr",
            "certify",
            "aig.probe",
            "aig.blast",
            "aig.template",
            "aig.mine",
            "aig.preprocess",
        ] {
            assert!(names.contains(&layer), "missing span {layer}");
        }
    }
}
