//! The three workloads: which sources each check compiles, which
//! engine runs on them, and how `--seed` orders every pass and picks
//! the edit-stream mutants.

use crate::rng::Rng;
use bmarks::{Benchmark, Expected};
use std::str::FromStr;

/// Passes in one edit-stream cycle. A cycle checks every
/// single-character deletion of every design exactly once, a
/// 1/`EDIT_CYCLE` share of each design per pass.
pub const EDIT_CYCLE: u64 = 25;

/// Wall-clock budget of one suite check, in seconds (the slowest
/// design, FIFOs, needs about one).
const SUITE_BUDGET_S: u64 = 30;

/// Budget of one edit-stream check: an editor-loop answer.
const EDIT_BUDGET_S: u64 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All twelve designs, single-threaded PDR plus certification.
    PdrSuite,
    /// All twelve designs through the hybrid portfolio race.
    PortfolioSuite,
    /// Every single-character deletion of the designs not marked hard,
    /// a seeded slice per pass, through the hybrid portfolio under a
    /// short budget.
    EditStream,
}

impl FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or(format!(
                "unknown workload `{s}` (pdr-suite, portfolio-suite, edit-stream)"
            ))
    }
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PdrSuite,
        Workload::PortfolioSuite,
        Workload::EditStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PdrSuite => "pdr-suite",
            Workload::PortfolioSuite => "portfolio-suite",
            Workload::EditStream => "edit-stream",
        }
    }

    /// The engine every check of this workload runs.
    pub fn engine(self) -> Engine {
        match self {
            Workload::PdrSuite => {
                Engine::Pdr(engines::pdr::Pdr::new(bench::budget(SUITE_BUDGET_S)))
            }
            Workload::PortfolioSuite => Engine::Portfolio(bench::hybrid_portfolio(SUITE_BUDGET_S)),
            Workload::EditStream => Engine::Portfolio(bench::hybrid_portfolio(EDIT_BUDGET_S)),
        }
    }

    /// Threads a check keeps busy: one for PDR, every core for the
    /// portfolio's race.
    pub fn threads(self) -> usize {
        match self {
            Workload::PdrSuite => 1,
            Workload::PortfolioSuite | Workload::EditStream => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
        }
    }

    /// The source designs this workload draws from.
    pub fn designs(self) -> Vec<Benchmark> {
        let all = bmarks::all();
        match self {
            Workload::PdrSuite | Workload::PortfolioSuite => all,
            Workload::EditStream => all.into_iter().filter(|b| !b.hard).collect(),
        }
    }
}

pub enum Engine {
    Pdr(engines::pdr::Pdr),
    Portfolio(engines::Portfolio),
}

/// One input of a pass: a Verilog source and what is known about it.
pub struct Item {
    /// Index of the source design in [`Workload::designs`].
    pub design: usize,
    pub source: String,
    pub top: &'static str,
    /// The ground truth, known for the unmodified designs only.
    pub expected: Option<Expected>,
}

/// The inputs of pass number `pass` under `seed`, in the order they
/// are checked: every design once on the suites; on edit-stream, the
/// pass's slice of every design's deletion mutants (see
/// [`EDIT_CYCLE`]), so a run checks thousands of distinct edits and
/// repeats none until the cycle ends.
pub fn pass_items(w: Workload, designs: &[Benchmark], seed: u64, pass: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for (design, b) in designs.iter().enumerate() {
        let item = |source: String, expected| Item {
            design,
            source,
            top: b.top,
            expected,
        };
        match w {
            Workload::PdrSuite | Workload::PortfolioSuite => {
                items.push(item(b.source.to_string(), Some(b.expected)))
            }
            Workload::EditStream => {
                let cycle = pass / EDIT_CYCLE;
                let mut at: Vec<usize> = b.source.char_indices().map(|(i, _)| i).collect();
                // One shuffle per design and cycle, on a stream apart
                // from the pass orders (which use streams 0, 1, ...).
                Rng::new(seed, !(cycle << 8 | design as u64)).shuffle(&mut at);
                let k = (pass % EDIT_CYCLE) as usize;
                let n = at.len();
                let cycle_len = EDIT_CYCLE as usize;
                for &i in &at[k * n / cycle_len..(k + 1) * n / cycle_len] {
                    items.push(item(delete_char(b.source, i), None));
                }
            }
        }
    }
    Rng::new(seed, pass).shuffle(&mut items);
    items
}

/// `src` without the character that starts at byte `at`.
fn delete_char(src: &str, at: usize) -> String {
    let len = src[at..].chars().next().map_or(0, char::len_utf8);
    let mut m = String::with_capacity(src.len());
    m.push_str(&src[..at]);
    m.push_str(&src[at + len..]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(w: Workload, seed: u64, pass: u64) -> Vec<String> {
        pass_items(w, &w.designs(), seed, pass)
            .into_iter()
            .map(|i| i.source)
            .collect()
    }

    #[test]
    fn mutants_repeat_per_seed_and_differ_across_seeds_and_passes() {
        let w = Workload::EditStream;
        let a = sources(w, 7, 0);
        assert_eq!(a, sources(w, 7, 0));
        assert_ne!(a, sources(w, 8, 0));
        assert_ne!(a, sources(w, 7, 1), "each pass checks other mutants");
        let designs = w.designs();
        assert_eq!(designs.len(), 9);
        assert!(designs.iter().all(|b| !b.hard));
        for it in pass_items(w, &designs, 7, 0) {
            let original = designs[it.design].source;
            assert_eq!(it.source.chars().count() + 1, original.chars().count());
            assert!(it.expected.is_none());
        }
    }

    #[test]
    fn a_cycle_checks_every_deletion_once() {
        let w = Workload::EditStream;
        let designs = w.designs();
        for seed in [1, 2] {
            let mut seen: Vec<(usize, String)> = (0..EDIT_CYCLE)
                .flat_map(|p| pass_items(w, &designs, seed, p))
                .map(|i| (i.design, i.source))
                .collect();
            let mut all: Vec<(usize, String)> = designs
                .iter()
                .enumerate()
                .flat_map(|(d, b)| {
                    b.source
                        .char_indices()
                        .map(move |(i, _)| (d, delete_char(b.source, i)))
                })
                .collect();
            seen.sort_unstable();
            all.sort_unstable();
            assert_eq!(seen, all);
        }
        // The next cycle draws the same mutants in other passes.
        assert_ne!(sources(w, 1, 0), sources(w, 1, EDIT_CYCLE));
    }

    #[test]
    fn suite_order_is_a_seeded_permutation_of_the_twelve_designs() {
        for w in [Workload::PdrSuite, Workload::PortfolioSuite] {
            let designs = w.designs();
            let order = |seed, pass| -> Vec<usize> {
                pass_items(w, &designs, seed, pass)
                    .iter()
                    .map(|i| i.design)
                    .collect()
            };
            let o = order(5, 0);
            assert_eq!(o, order(5, 0));
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..12).collect::<Vec<_>>());
            assert_ne!(o, order(5, 1), "each pass gets its own order");
            assert_ne!(o, order(6, 0), "each seed gets its own orders");
            let items = pass_items(w, &designs, 5, 0);
            assert!(items.iter().all(|i| i.expected.is_some()));
            assert!(items.iter().all(|i| i.source == designs[i.design].source));
        }
    }

    #[test]
    fn deleting_a_character() {
        assert_eq!(delete_char("abc", 0), "bc");
        assert_eq!(delete_char("abc", 2), "ab");
        assert_eq!(delete_char("aéb", 1), "ab");
    }

    #[test]
    fn workload_names_parse() {
        assert_eq!("pdr-suite".parse(), Ok(Workload::PdrSuite));
        assert_eq!("portfolio-suite".parse(), Ok(Workload::PortfolioSuite));
        assert_eq!("edit-stream".parse(), Ok(Workload::EditStream));
        assert!("hit".parse::<Workload>().is_err());
    }
}
