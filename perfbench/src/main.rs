//! End-to-end benchmark of the verification pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pdr-suite --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One client checks the workload's sources one after another (a
//! closed loop), in whole passes over every input, until `--seconds`
//! have gone by. Every output is judged by the oracle in [`check`].
//! Every time is reported scaled to a reference speed of the machine,
//! which a fixed kernel timed between passes measures (see [`calib`]).
//! The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. See `perfbench/README.md`.

mod calib;
mod check;
mod cpu;
mod layers;
mod rng;
mod stats;
mod trace;
mod workload;

use bmarks::Benchmark;
use check::{Accepted, Answer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Engine, Item, Workload};

/// Set-up repetitions; `setup_s` is the median of their times, each
/// scaled to the reference speed (see [`calib`]).
const SETUP_REPS: usize = 31;

/// A pass still running this long after start is abandoned (and left
/// out of every metric), so a run always ends in time.
const HARD_CAP: Duration = Duration::from_secs(150);

/// Stack of the client thread, as large as a main thread's.
const CLIENT_STACK: usize = 8 << 20;

/// Failures printed in full to standard error.
const SHOWN_FAILURES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| {
        flags.remove(name).ok_or(format!(
            "missing {name}; usage: --workload W --seed N --seconds S --trace 0|1"
        ))
    };
    let num = |s: String, what: &str| s.parse::<u64>().map_err(|e| format!("{what}: {e}"));
    let args = Args {
        workload: take("--workload")?.parse()?,
        seed: num(take("--seed")?, "--seed")?,
        seconds: num(take("--seconds")?, "--seconds")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(args)
}

/// What set-up leaves for the measured loop.
struct Bench {
    designs: Vec<Benchmark>,
    engine: Engine,
    first_pass: Vec<Item>,
}

/// The set-up a run pays before its first check: load the source
/// designs, compile and blast each once, build the engine and draw the
/// first pass's inputs.
fn setup(w: Workload, seed: u64) -> Bench {
    let designs = w.designs();
    for b in &designs {
        let ts = vfront::compile(b.source, b.top).expect("benchmark designs compile");
        std::hint::black_box(engines::Blasted::of(&ts));
    }
    let first_pass = workload::pass_items(w, &designs, seed, 0);
    Bench {
        designs,
        engine: w.engine(),
        first_pass,
    }
}

/// One check as the loop saw it.
struct Record {
    pass: u64,
    design: usize,
    wall: Duration,
    cpu: Duration,
    judged: Result<Accepted, String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The client runs on a thread of its own, so its allocations come
    // from a thread heap rather than the main thread's `brk` heap. In
    // twelve processes the median set-up on the main thread took
    // 15.7-25.2 ms, with a third of the processes under 18.3 ms; on a
    // spawned thread of the same processes it took 19.8-25.6 ms,
    // eleven of them 22.6 ms or more.
    std::thread::Builder::new()
        .name("client".into())
        .stack_size(CLIENT_STACK)
        .spawn(move || run(args))
        .expect("spawn the client thread")
        .join()
        .expect("the client thread does not panic")
}

fn run(args: Args) -> ExitCode {
    let started = Instant::now();
    // One untimed set-up and kernel run first, so the timed ones find
    // the allocator and caches warm. Then set-ups and kernel samples
    // alternate, so each set-up is scaled by the speed of its moment.
    std::hint::black_box(setup(args.workload, args.seed));
    std::hint::black_box(calib::kernel());
    let mut setup_speed = calib::Speed::new(1);
    setup_speed.sample();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(setup(args.workload, args.seed));
        let took = t.elapsed().as_secs_f64();
        setup_speed.sample();
        setups.push((took, took * setup_speed.scale(i)));
    }
    let Bench {
        designs,
        engine,
        first_pass,
    } = built.expect("at least one set-up");
    let mut next_pass = Some(first_pass);
    let setup_raw = stats::median(&stats::sorted(setups.iter().map(|s| s.0).collect()));
    let setup_s = stats::median(&stats::sorted(setups.iter().map(|s| s.1).collect()));
    let mut speed = calib::Speed::new(args.workload.threads());
    speed.sample();

    let mut rec = trace::Recorder::new(false);
    let mut counters = layers::Counters::default();
    // Whole passes only: untraced, and (with --trace 1) traced.
    let mut records: [Vec<Record>; 2] = [Vec::new(), Vec::new()];
    let mut passes = 0u64;
    let mut abandoned = false;
    let measure = Instant::now();
    'passes: while measure.elapsed() < Duration::from_secs(args.seconds) {
        // With --trace 1, odd passes are traced and even ones are not,
        // so the two interleave and their throughput compares.
        let traced = args.trace && passes % 2 == 1;
        rec.set_on(traced);
        let items = next_pass
            .take()
            .unwrap_or_else(|| workload::pass_items(args.workload, &designs, args.seed, passes));
        let mut pass = Vec::with_capacity(items.len());
        for item in &items {
            if started.elapsed() > HARD_CAP {
                abandoned = true;
                break 'passes;
            }
            let design = designs[item.design].name;
            rec.next_check(design);
            let (cpu0, t0) = (cpu::process_time(), Instant::now());
            let answer: Answer = check::run(&engine, item, &mut rec);
            let (wall, cpu) = (t0.elapsed(), cpu::process_time() - cpu0);
            let judged = check::judge(item, &answer);
            if traced {
                counters.absorb(&answer, &judged);
                rec.next_check(design);
                check::aig_probe(item, &mut rec);
            }
            pass.push(Record {
                pass: passes,
                design: item.design,
                wall,
                cpu,
                judged,
            });
        }
        records[usize::from(traced)].extend(pass);
        passes += 1;
        speed.sample();
    }

    let all: Vec<&Record> = records.iter().flatten().collect();
    let failures: Vec<&String> = all.iter().filter_map(|r| r.judged.as_ref().err()).collect();
    for f in failures.iter().take(SHOWN_FAILURES) {
        eprintln!("perfbench: failed check: {f}");
    }
    let uncertified = all
        .iter()
        .filter(|r| r.judged == Ok(Accepted::Uncertified))
        .count();
    println!(
        "workload {} seed {}: {} whole passes, {} checks, {} failed, {} uncertified wins \
         (portfolio.uncertified_wins), {} threads available{}",
        args.workload.name(),
        args.seed,
        passes,
        all.len(),
        failures.len(),
        uncertified,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if abandoned {
            ", last pass abandoned at the hard cap"
        } else {
            ""
        },
    );

    println!(
        "reference kernel: median {:.4} ms around the passes, {:.4} ms around the set-ups \
         (reference {} ms); set-up median as measured {:.6} s",
        speed.median_ms(),
        setup_speed.median_ms(),
        calib::REFERENCE_MS,
        setup_raw
    );
    let metrics = if args.trace {
        let traced_cps = throughput(&records[1], |_| 1.0);
        let untraced_cps = throughput(&records[0], |_| 1.0);
        let spans = trace::layers(rec.spans());
        let path = write_trace(&rec, &args);
        println!(
            "spans of {} traced checks written to {path}",
            records[1].len()
        );
        println!("self time per span, ms per traced check:");
        for (name, l) in &spans {
            let per = l.self_time.as_secs_f64() * 1e3 / records[1].len().max(1) as f64;
            println!("  {name:<20} {per:>10.4} ms self  ({} calls)", l.calls);
        }
        // Per-layer times are scaled by the whole run's kernel median:
        // they are means over every traced check, not per pass.
        let scale = calib::REFERENCE_MS / speed.median_ms();
        counters
            .metrics(&spans, traced_cps, untraced_cps)
            .into_iter()
            .map(|(name, value, unit)| {
                let value = match unit {
                    "ms" | "us" => value * scale,
                    "1/s" => value / scale,
                    _ => value,
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let raw = end_to_end(&records[0], &designs, setup_raw, |_| 1.0);
        println!("as measured, before scaling:");
        for (name, value, unit) in &raw {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        println!("scaled to the reference speed:");
        end_to_end(&records[0], &designs, setup_s, |r| {
            speed.scale(r.pass as usize)
        })
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let attempted = all.len();
    let correct = failures.is_empty() && attempted > 0 && !abandoned;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Checks per second of busy check time, each check's time multiplied
/// by `scale`.
fn throughput(records: &[Record], scale: impl Fn(&Record) -> f64) -> f64 {
    let busy: f64 = records
        .iter()
        .map(|r| r.wall.as_secs_f64() * scale(r))
        .sum();
    if busy > 0.0 {
        records.len() as f64 / busy
    } else {
        0.0
    }
}

fn end_to_end(
    records: &[Record],
    designs: &[Benchmark],
    setup_s: f64,
    scale: impl Fn(&Record) -> f64,
) -> Vec<(String, f64, &'static str)> {
    let ms = |r: &Record| r.wall.as_secs_f64() * 1e3 * scale(r);
    let all = stats::sorted(records.iter().map(ms).collect());
    let n = all.len().max(1);
    let (tail_p, tail, beyond) = if all.is_empty() {
        (50.0, 0.0, 0)
    } else {
        stats::tail(&all)
    };
    // The median of each pass's median check. On a suite the pooled
    // median falls at the edge between the sixth and seventh fastest
    // designs' clusters, so it was the slowest of all their checks and
    // moved about twice as much as the machine did. A pass median is
    // one check near that edge, and their median a typical one.
    let mut passes: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in records {
        passes.entry(r.pass).or_default().push(ms(r));
    }
    let pass_medians: Vec<f64> = passes
        .into_values()
        .map(|xs| stats::median(&stats::sorted(xs)))
        .collect();
    let p50 = if pass_medians.is_empty() {
        0.0
    } else {
        stats::median(&stats::sorted(pass_medians))
    };
    // A design's checks group by kind: a mutant `vfront` rejects takes
    // a tenth of a millisecond, one that compiles takes milliseconds,
    // and some designs reject almost exactly half their mutants, so
    // one median over both kinds would jump between them run to run.
    let mut groups: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
    for r in records {
        let rejected = r.judged == Ok(Accepted::Rejected);
        groups.entry((r.design, rejected)).or_default().push(ms(r));
    }
    let medians: Vec<f64> = groups
        .into_iter()
        .map(|((d, rejected), xs)| {
            let med = stats::median(&stats::sorted(xs.clone()));
            let kind = if rejected { " (rejected)" } else { "" };
            println!(
                "  median check of {:<25} {med:>10.4} ms over {} checks",
                format!("{}{kind}", designs[d].name),
                xs.len()
            );
            med
        })
        .collect();
    let ok = records.iter().filter(|r| r.judged.is_ok()).count();
    let cpu: f64 = records
        .iter()
        .map(|r| r.cpu.as_secs_f64() * 1e3 * scale(r))
        .sum();
    println!(
        "check_ms.tail is p{tail_p} over {} checks ({beyond} beyond it)",
        all.len()
    );
    vec![
        ("checks_per_s".into(), throughput(records, &scale), "1/s"),
        ("check_ms.p50".into(), p50, "ms"),
        ("check_ms.tail".into(), tail, "ms"),
        (
            "check_ms.geomean".into(),
            if medians.is_empty() {
                0.0
            } else {
                stats::geomean(&medians)
            },
            "ms",
        ),
        ("pass_frac".into(), ok as f64 / n as f64, "frac"),
        ("cpu_ms_per_check".into(), cpu / n as f64, "ms"),
        ("setup_s".into(), setup_s, "s"),
    ]
}

/// A JSON number (JSON has no NaN or infinity).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn write_trace(rec: &trace::Recorder, args: &Args) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}
