//! The twelve DATE 2016 benchmark designs.
//!
//! The paper evaluates on circuits "derived from real world hardware
//! benchmark suites, including VIS Verilog models, the Texas-97
//! Benchmark suite, and opencores.org": a Huffman encoder/decoder and
//! a Digital Audio Input-Output chip (data-path intensive), plus a
//! non-pipelined 3-stage processor, a Read-Copy-Update protocol, a
//! FIFO controller, a buffer allocation model and an instruction
//! queue controller (control-intensive), along with Dekker, Heap,
//! TicTacToe, traffic-light and Vending designs appearing in
//! Figures 3–5.
//!
//! The paper's artifact archive is no longer online, so each design is
//! re-authored here from its description and the standard literature,
//! keeping the published characteristics (see `DESIGN.md` §2): DAIO
//! and traffic-light are **unsafe** with bugs manifesting at cycles 64
//! and 65; FIFO, BufAl and RCU are safe but not k-inductive for
//! feasible k; the rest are easy for every engine.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), vfront::VerilogError> {
//! let b = bmarks::by_name("fifos").expect("exists");
//! let ts = b.compile()?;
//! assert!(!ts.bads().is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use rtlir::TransitionSystem;
use vfront::VerilogError;

/// Ground-truth verdict of a benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// All assertions hold on all reachable states.
    Safe,
    /// An assertion is violated; `bug_cycle` gives the first cycle.
    Unsafe,
}

/// Design class, as the paper groups them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Data-path intensive.
    DataPath,
    /// Control intensive.
    Control,
}

/// One benchmark: embedded Verilog source plus ground truth.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Short name, as used in the paper's figures.
    pub name: &'static str,
    /// Verilog source text.
    pub source: &'static str,
    /// Top module name.
    pub top: &'static str,
    /// Ground-truth verdict.
    pub expected: Expected,
    /// First violating cycle for unsafe designs.
    pub bug_cycle: Option<u64>,
    /// Data-path or control intensive.
    pub class: Class,
    /// One-line description.
    pub description: &'static str,
    /// Expected difficulty: designs whose properties are not
    /// k-inductive for feasible k (only invariant-generating engines
    /// prove them in reasonable time).
    pub hard: bool,
}

impl Benchmark {
    /// Compiles the benchmark into a word-level transition system.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (none are expected for the embedded
    /// sources; the test-suite compiles every benchmark).
    pub fn compile(&self) -> Result<TransitionSystem, VerilogError> {
        vfront::compile(self.source, self.top)
    }
}

/// All twelve benchmarks, in the row order of the paper's figures.
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BufAl",
            source: include_str!("../../../benchmarks/bufal.v"),
            top: "bufal",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "buffer allocation model: bitmap vs. counter coupling",
            hard: true,
        },
        Benchmark {
            name: "DAIO",
            source: include_str!("../../../benchmarks/daio.v"),
            top: "daio",
            expected: Expected::Unsafe,
            bug_cycle: Some(64),
            class: Class::DataPath,
            description: "digital audio I/O serdes; frame-sync bug at cycle 64",
            hard: false,
        },
        Benchmark {
            name: "Dekker",
            source: include_str!("../../../benchmarks/dekker.v"),
            top: "dekker",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "Dekker's mutual exclusion protocol",
            hard: false,
        },
        Benchmark {
            name: "FIFOs",
            source: include_str!("../../../benchmarks/fifo.v"),
            top: "fifo",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "FIFO controller with weak (non-inductive) flags property",
            hard: true,
        },
        Benchmark {
            name: "Heap",
            source: include_str!("../../../benchmarks/heap.v"),
            top: "heap",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "binary heap controller with one sift step per cycle",
            hard: false,
        },
        Benchmark {
            name: "Huffman",
            source: include_str!("../../../benchmarks/huffman.v"),
            top: "huffman",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::DataPath,
            description: "Huffman encoder/decoder round-trip",
            hard: false,
        },
        Benchmark {
            name: "Ibuf",
            source: include_str!("../../../benchmarks/ibuf.v"),
            top: "ibuf",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "instruction queue controller",
            hard: false,
        },
        Benchmark {
            name: "RCU",
            source: include_str!("../../../benchmarks/rcu.v"),
            top: "rcu",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "read-copy-update grace-period protocol",
            hard: true,
        },
        Benchmark {
            name: "TicTacToe",
            source: include_str!("../../../benchmarks/tictactoe.v"),
            top: "tictactoe",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "tic-tac-toe referee with win detection",
            hard: false,
        },
        Benchmark {
            name: "non-pipe-mp",
            source: include_str!("../../../benchmarks/npipe_mp.v"),
            top: "npipe_mp",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "non-pipelined 3-stage microprocessor",
            hard: false,
        },
        Benchmark {
            name: "traffic-light",
            source: include_str!("../../../benchmarks/traffic_light.v"),
            top: "traffic_light",
            expected: Expected::Unsafe,
            bug_cycle: Some(65),
            class: Class::Control,
            description: "traffic light controller; collision bug at cycle 65",
            hard: false,
        },
        Benchmark {
            name: "Vending",
            source: include_str!("../../../benchmarks/vending.v"),
            top: "vending",
            expected: Expected::Safe,
            bug_cycle: None,
            class: Class::Control,
            description: "vending machine credit/change controller",
            hard: false,
        },
    ]
}

/// Looks up a benchmark by its (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtlir::{Simulator, Value};

    #[test]
    fn twelve_benchmarks() {
        assert_eq!(all().len(), 12);
        assert!(by_name("fifos").is_some());
        assert!(by_name("rcu").is_some());
        assert!(by_name("ghost").is_none());
    }

    #[test]
    fn all_compile() {
        for b in all() {
            let ts = b
                .compile()
                .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", b.name));
            assert!(!ts.bads().is_empty(), "{} has no property", b.name);
            assert!(
                ts.validate().is_empty(),
                "{} has validation problems: {:?}",
                b.name,
                ts.validate()
            );
        }
    }

    /// Truncated sources are what an editor hands the frontend mid-edit:
    /// every prefix of every benchmark, cut at each char boundary, must
    /// come back as `Ok` or a `VerilogError`, never as a panic.
    #[test]
    fn truncated_sources_never_panic_the_frontend() {
        let mut panics = Vec::new();
        for b in all() {
            for end in (0..=b.source.len()).filter(|&i| b.source.is_char_boundary(i)) {
                let prefix = &b.source[..end];
                if std::panic::catch_unwind(|| vfront::compile(prefix, b.top)).is_err() {
                    panics.push(format!("{} cut at byte {end}", b.name));
                }
            }
        }
        assert!(panics.is_empty(), "frontend panicked on: {panics:?}");
    }

    fn random_inputs(ts: &TransitionSystem, rng: &mut StdRng) -> Vec<Value> {
        ts.inputs()
            .iter()
            .map(|&v| {
                let w = ts.pool().var_sort(v).width();
                Value::bv(w, rng.gen::<u64>())
            })
            .collect()
    }

    #[test]
    fn unsafe_bugs_manifest_at_documented_cycle() {
        for b in all().into_iter().filter(|b| b.expected == Expected::Unsafe) {
            let ts = b.compile().expect("compiles");
            // The planted bugs are deterministic: any stimulus triggers
            // them at exactly the documented cycle.
            let mut rng = StdRng::seed_from_u64(7);
            let mut sim = Simulator::new(&ts);
            let hit = sim.run_until_bad(200, |_| random_inputs(&ts, &mut rng));
            assert_eq!(
                hit, b.bug_cycle,
                "{}: bug must manifest at the documented cycle",
                b.name
            );
        }
    }

    #[test]
    fn safe_designs_survive_random_simulation() {
        for b in all().into_iter().filter(|b| b.expected == Expected::Safe) {
            let ts = b.compile().expect("compiles");
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sim = Simulator::new(&ts);
                let hit = sim.run_until_bad(3000, |_| random_inputs(&ts, &mut rng));
                assert_eq!(hit, None, "{} violated under seed {seed}", b.name);
            }
        }
    }

    #[test]
    fn classes_match_paper() {
        let dp: Vec<&str> = all()
            .into_iter()
            .filter(|b| b.class == Class::DataPath)
            .map(|b| b.name)
            .collect();
        assert_eq!(dp, vec!["DAIO", "Huffman"]);
        assert_eq!(
            all().iter().filter(|b| b.hard).count(),
            3,
            "FIFO, BufAl and RCU are the hard trio"
        );
    }
}
