//! One module per experiment (E1–E10), each documenting its own claim,
//! setup and expected outcome; [`EXPERIMENTS`] lists them in order.
//!
//! Every experiment is a pure function from a [`Scale`] and a master seed to
//! an [`ExperimentOutput`]; the `all_experiments` binary only parses its
//! arguments with [`Invocation::parse`], calls the selected functions, and
//! prints the results.

use geogossip_analysis::Table;
use serde::{Deserialize, Serialize};

pub mod e01_lemma1;
pub mod e02_lemma2;
pub mod e03_trajectories;
pub mod e04_scaling;
pub mod e05_routing;
pub mod e06_connectivity;
pub mod e07_occupancy;
pub mod e08_coefficient;
pub mod e09_uniformity;
pub mod e10_hierarchy;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds — used by the test-suite.
    Smoke,
    /// A few minutes — the default for the binary.
    Quick,
    /// The experiments' full-size runs.
    Full,
}

impl Scale {
    /// Parses a scale from a command-line argument (`smoke`/`quick`/`full`);
    /// any other string is `None`.
    pub fn from_arg(arg: &str) -> Option<Self> {
        match arg {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The result of one experiment: the table to print plus free-form summary
/// lines (fitted exponents, pass/fail verdicts, caveats).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutput {
    /// Experiment identifier, e.g. `"E4"`.
    pub id: String,
    /// One-line title.
    pub title: String,
    /// The main result table.
    pub table: Table,
    /// Additional summary lines printed after the table.
    pub summary: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the output for a terminal: title, Markdown table, summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: {} ==\n\n{}",
            self.id,
            self.title,
            self.table.to_markdown()
        );
        for line in &self.summary {
            out.push('\n');
            out.push_str(line);
        }
        out.push('\n');
        out
    }
}

/// Standard seed used by the binary so every experiment's numbers are
/// regenerable verbatim.
pub const DEFAULT_SEED: u64 = 20070612;

/// One experiment: its command-line id and the function that runs it.
pub type Experiment = (&'static str, fn(Scale, u64) -> ExperimentOutput);

/// Every experiment, in the order `all_experiments` runs them.
pub static EXPERIMENTS: [Experiment; 10] = [
    ("e1", e01_lemma1::run),
    ("e2", e02_lemma2::run),
    ("e3", e03_trajectories::run),
    ("e4", e04_scaling::run),
    ("e5", e05_routing::run),
    ("e6", e06_connectivity::run),
    ("e7", e07_occupancy::run),
    ("e8", e08_coefficient::run),
    ("e9", e09_uniformity::run),
    ("e10", e10_hierarchy::run),
];

/// The command line of the `all_experiments` binary.
pub const USAGE: &str = "usage: all_experiments [e1..e10] [smoke|quick|full] [seed]";

/// A parsed `all_experiments` command line.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// The experiments to run: one, or all of [`EXPERIMENTS`].
    pub experiments: &'static [Experiment],
    /// The scale to run them at ([`Scale::Quick`] when not given).
    pub scale: Scale,
    /// The master seed ([`DEFAULT_SEED`] when not given).
    pub seed: u64,
}

impl Invocation {
    /// Parses `[id] [scale] [seed]` (program name excluded). The id is
    /// resolved through [`EXPERIMENTS`]; without one, every experiment runs.
    /// An unknown id or scale, an unparsable seed or a surplus argument is
    /// an error naming the offending argument.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let mut args = args.iter().map(AsRef::as_ref).peekable();
        let experiments = match args
            .peek()
            .and_then(|&id| EXPERIMENTS.iter().position(|&(name, _)| name == id))
        {
            Some(index) => {
                args.next();
                &EXPERIMENTS[index..=index]
            }
            None => &EXPERIMENTS[..],
        };
        let scale = match args.next() {
            Some(arg) => Scale::from_arg(arg)
                .ok_or_else(|| format!("unknown experiment or scale `{arg}`"))?,
            None => Scale::Quick,
        };
        let seed = match args.next() {
            Some(arg) => arg.parse().map_err(|_| format!("invalid seed `{arg}`"))?,
            None => DEFAULT_SEED,
        };
        if let Some(arg) = args.next() {
            return Err(format!("unexpected argument `{arg}`"));
        }
        Ok(Invocation {
            experiments,
            scale,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(experiments: &[Experiment]) -> Vec<&'static str> {
        experiments.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn table_lists_e1_to_e10_once_each_in_order() {
        let expected: Vec<String> = (1..=10).map(|k| format!("e{k}")).collect();
        assert_eq!(ids(&EXPERIMENTS), expected);
    }

    #[test]
    fn scales_parse_and_unknown_scales_are_none() {
        assert_eq!(Scale::from_arg("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::from_arg("quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_arg("full"), Some(Scale::Full));
        assert_eq!(Scale::from_arg("quik"), None);
        assert_eq!(Scale::from_arg(""), None);
    }

    #[test]
    fn id_scale_and_seed_are_each_optional() {
        let all = Invocation::parse::<&str>(&[]).unwrap();
        assert_eq!(ids(all.experiments), ids(&EXPERIMENTS));
        assert_eq!((all.scale, all.seed), (Scale::Quick, DEFAULT_SEED));

        let all_smoke = Invocation::parse(&["smoke", "7"]).unwrap();
        assert_eq!(all_smoke.experiments.len(), EXPERIMENTS.len());
        assert_eq!((all_smoke.scale, all_smoke.seed), (Scale::Smoke, 7));

        let one = Invocation::parse(&["e10", "full"]).unwrap();
        assert_eq!(ids(one.experiments), ["e10"]);
        assert_eq!((one.scale, one.seed), (Scale::Full, DEFAULT_SEED));
    }

    #[test]
    fn unknown_ids_scales_seeds_and_surplus_arguments_are_errors() {
        for args in [
            &["e99", "smoke"][..],
            &["e0"],
            &["E4", "smoke"],
            &["e4", "quik"],
            &["quik"],
            &["e4", "smoke", "seed"],
            &["e4", "smoke", "1", "extra"],
        ] {
            assert!(Invocation::parse(args).is_err(), "{args:?} parsed");
        }
    }
}
