//! Command-line parsing. Unknown or malformed arguments are an error the
//! caller answers with the usage text and exit code 2 — never a panic.

use std::path::PathBuf;

use crate::metrics::{workload, WorkloadDef};

pub const USAGE: &str = "\
usage: benchmark [run] [all|WORKLOAD] [options]   run workloads, print every metric
       benchmark selfcheck [options]              run the end-to-end pass twice, compare
       benchmark compare A.json B.json            apply the bounds to two --out files
       benchmark spread A.json B.json ...         run-to-run spread of each metric over --out files
       benchmark manifest                         print BENCHMARK.json

options:
  --workload NAME   run one workload (same as `run NAME`)
  --seed N          seed of the op tapes (default 1)
  --seconds S       measured seconds per workload
  --scale F         measured seconds = F x the workload's default (default 1)
  --trace [0|1]     also run the traced pass and print the per-layer metrics
  --out FILE        write the results as JSON

workloads: bank-uniform hetero-sets scan-update ctl-churn phase-shift
A single-workload run prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. Exit code 1: an oracle failed.";

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub scale: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 1,
            seconds: None,
            scale: 1.0,
            trace: false,
            out: None,
        }
    }
}

impl Opts {
    /// Measured seconds for `w`.
    pub fn seconds_for(&self, w: &WorkloadDef) -> f64 {
        self.seconds.unwrap_or(w.default_seconds * self.scale)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `None`: all workloads, each in its own child process.
    Run(Option<&'static str>, Opts),
    Selfcheck(Opts),
    Compare(PathBuf, PathBuf),
    /// Result files to take the spread over, and where to write it.
    Spread(Vec<PathBuf>, Option<PathBuf>),
    Manifest,
}

fn positive(flag: &str, text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 && v <= 3600.0 => Ok(v),
        _ => Err(format!("{flag} wants a number in (0, 3600], got '{text}'")),
    }
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts = Opts::default();
    let mut words: Vec<&str> = Vec::new();
    let mut named: Option<&'static str> = None;
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} wants a value"));
        match arg {
            "--seed" => {
                let v = value(arg)?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got '{v}'"))?;
            }
            "--seconds" => opts.seconds = Some(positive(arg, value(arg)?)?),
            "--scale" => opts.scale = positive(arg, value(arg)?)?,
            "--out" => opts.out = Some(PathBuf::from(value(arg)?)),
            "--workload" => {
                let v = value(arg)?;
                named = Some(
                    workload(v)
                        .ok_or_else(|| format!("unknown workload '{v}'"))?
                        .name,
                );
            }
            "--trace" => {
                opts.trace = match it.peek() {
                    Some(&"0") => {
                        it.next();
                        false
                    }
                    Some(&"1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            word => words.push(word),
        }
    }
    // `run NAME` and `--workload NAME` name the same thing.
    let run = |target: Option<&'static str>| match (target, named) {
        (Some(a), Some(b)) if a != b => Err(format!("both '{a}' and --workload {b} given")),
        (a, b) => Ok(Command::Run(a.or(b), opts.clone())),
    };
    match words.as_slice() {
        [] | ["run"] | ["all"] | ["run", "all"] => run(None),
        ["run", name] | [name] if workload(name).is_some() => run(workload(name).map(|w| w.name)),
        ["run", name] => Err(format!("unknown workload '{name}'")),
        ["selfcheck"] if named.is_none() => Ok(Command::Selfcheck(opts)),
        ["compare", a, b] if named.is_none() => Ok(Command::Compare(a.into(), b.into())),
        ["spread", files @ ..] if named.is_none() && files.len() >= 2 => Ok(Command::Spread(
            files.iter().map(PathBuf::from).collect(),
            opts.out,
        )),
        ["manifest"] if named.is_none() => Ok(Command::Manifest),
        other => Err(format!("cannot make sense of '{}'", other.join(" "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn the_driver_form_runs_one_workload() {
        let cmd = p("--workload ctl-churn --seed 9 --seconds 12 --trace 0").unwrap();
        let want = Opts {
            seed: 9,
            seconds: Some(12.0),
            ..Default::default()
        };
        assert_eq!(cmd, Command::Run(Some("ctl-churn"), want));
        let Command::Run(_, o) = p("--workload ctl-churn --trace 1 --seed 2").unwrap() else {
            panic!()
        };
        assert!(o.trace && o.seed == 2);
    }

    #[test]
    fn run_all_is_the_default_and_trace_needs_no_value() {
        assert_eq!(p("").unwrap(), Command::Run(None, Opts::default()));
        let Command::Run(None, o) = p("run all --trace --scale 0.5 --out r.json").unwrap() else {
            panic!()
        };
        assert!(o.trace && o.scale == 0.5 && o.out == Some("r.json".into()));
        assert_eq!(
            p("run scan-update").unwrap(),
            Command::Run(Some("scan-update"), Opts::default())
        );
        assert_eq!(p("phase-shift").unwrap(), p("run phase-shift").unwrap());
        let w = workload("phase-shift").unwrap();
        assert_eq!(o.seconds_for(w), 12.5);
        assert_eq!(Opts::default().seconds_for(w), 25.0);
    }

    #[test]
    fn other_commands_parse() {
        assert_eq!(p("manifest").unwrap(), Command::Manifest);
        assert_eq!(
            p("compare a.json b.json").unwrap(),
            Command::Compare("a.json".into(), "b.json".into())
        );
        assert!(matches!(p("selfcheck --seed 3").unwrap(), Command::Selfcheck(o) if o.seed == 3));
        assert_eq!(
            p("spread a.json b.json --out s.json").unwrap(),
            Command::Spread(
                vec!["a.json".into(), "b.json".into()],
                Some("s.json".into())
            )
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "--bogus",
            "--seed",
            "--seed x",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--seconds 1e9",
            "--scale -2",
            "--workload nope",
            "run nope",
            "run all extra",
            "compare a.json",
            "spread a.json",
            "run bank-uniform --workload ctl-churn",
            "frobnicate",
        ] {
            assert!(p(bad).is_err(), "'{bad}' should be rejected");
        }
    }
}
