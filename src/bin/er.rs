//! `er` — command-line entity resolution with the fusion framework.
//!
//! ```text
//! er resolve <records.tsv> [options]     resolve a TSV dataset, print clusters
//! er generate <restaurant|product|paper> [--scale F] [--seed N] [--out FILE]
//! er evaluate <records.tsv> [options]    resolve and score against the truth column
//!
//! options:
//!   --cross-source        only match records from different sources
//!   --max-df F            frequent-term cap as a corpus fraction  [0.05]
//!   --eta F               matching-probability threshold η        [0.98]
//!   --rounds N            ITER ⇄ CliqueRank reinforcement rounds  \[5\]
//!   --alpha F             random-walk exponent α                  \[20\]
//!   --steps N             random-walk step bound S                \[20\]
//!   --output MODE         clusters | pairs | probabilities        [clusters]
//!   --threads N           worker threads for the shared pool      [autodetect]
//! ```
//!
//! `ER_THREADS` in the environment sets the default worker-thread count;
//! `--threads` overrides it. Every parallel phase is deterministic, so
//! the thread count never changes results, only speed.
//!
//! The TSV format is `id \t source \t entity \t text` (see
//! `er_datasets::loader`); `resolve` ignores the entity column,
//! `evaluate` scores against it.

use std::process::ExitCode;

use er_core::{FusionConfig, Resolver};
use er_datasets::{generators, loader, Dataset, SourcePolicy};
use er_text::validate_max_df_fraction;
use unsupervised_er::pipeline;

fn main() -> ExitCode {
    // ER_OBS_OUT=<path> turns telemetry recording on and dumps the
    // report there on exit (.prom suffix selects Prometheus text; the
    // feature-gated build makes both calls free otherwise).
    er_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    match er_obs::dump_if_requested() {
        Ok(Some(path)) => eprintln!("wrote telemetry to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write telemetry: {e}"),
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `er help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("resolve") => resolve(&args[1..], false),
        Some("evaluate") => resolve(&args[1..], true),
        Some("generate") => generate(&args[1..]),
        Some("help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

const USAGE: &str = "\
er — unsupervised entity resolution (ITER + CliqueRank, ICDE 2018)

usage:
  er resolve <records.tsv> [options]     resolve a TSV dataset, print clusters
  er generate <restaurant|product|paper> [--scale F] [--seed N] [--out FILE]
  er evaluate <records.tsv> [options]    resolve and score against the truth column

options:
  --cross-source        only match records from different sources
  --max-df F            frequent-term cap as a corpus fraction  [0.05]
  --eta F               matching-probability threshold eta      [0.98]
  --rounds N            ITER <-> CliqueRank reinforcement rounds [5]
  --alpha F             random-walk exponent alpha              [20]
  --steps N             random-walk step bound S                [20]
  --output MODE         clusters | pairs | probabilities        [clusters]
  --threads N           worker threads for the shared pool      [autodetect]

environment:
  ER_THREADS            default worker-thread count (--threads overrides)
  ER_OBS_OUT            write pipeline telemetry to this path on exit
                        (.prom suffix selects Prometheus text format)
";

struct Options {
    path: Option<String>,
    cross_source: bool,
    max_df: f64,
    output: String,
    config: FusionConfig,
    scale: f64,
    seed: u64,
    out_file: Option<String>,
    kind: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        path: None,
        cross_source: false,
        max_df: 0.05,
        output: "clusters".to_owned(),
        config: FusionConfig::default(),
        scale: 1.0,
        seed: 0,
        out_file: None,
        kind: None,
    };
    // ER_THREADS sets the pool size for hosts where autodetection is
    // wrong (e.g. containers with restricted cpusets); --threads wins.
    if let Ok(t) = std::env::var("ER_THREADS") {
        let t = parse_usize(&t)
            .map_err(|e| format!("bad ER_THREADS: {e}"))?
            .max(1);
        opts.config.threads = t;
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--cross-source" => opts.cross_source = true,
            "--max-df" => opts.max_df = parse_f64(&value("--max-df")?)?,
            "--eta" => opts.config.eta = parse_f64(&value("--eta")?)?,
            "--rounds" => opts.config.rounds = parse_usize(&value("--rounds")?)?,
            "--alpha" => {
                let a = parse_f64(&value("--alpha")?)?;
                opts.config.cliquerank.alpha = a;
            }
            "--steps" => {
                let s = parse_usize(&value("--steps")?)?;
                opts.config.cliquerank.steps = s;
            }
            "--output" => opts.output = value("--output")?,
            "--threads" => {
                opts.config.threads = parse_usize(&value("--threads")?)?.max(1);
            }
            "--scale" => opts.scale = parse_f64(&value("--scale")?)?,
            "--seed" => opts.seed = parse_usize(&value("--seed")?)? as u64,
            "--out" => opts.out_file = Some(value("--out")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}"));
            }
            positional => {
                if opts.path.is_none() {
                    opts.path = Some(positional.to_owned());
                    opts.kind = Some(positional.to_owned());
                } else {
                    return Err(format!("unexpected argument {positional:?}"));
                }
            }
        }
    }
    validate_max_df_fraction(opts.max_df)?;
    opts.config.validate()?;
    Ok(opts)
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn resolve(args: &[String], evaluate: bool) -> Result<(), String> {
    let opts = parse_options(args)?;
    let path = opts.path.as_deref().ok_or("missing <records.tsv>")?;
    let policy = if opts.cross_source {
        SourcePolicy::CrossSourceOnly
    } else {
        SourcePolicy::WithinSingleSource
    };
    let dataset = loader::load_tsv(path, policy).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} records from {path} ({} candidate universe)",
        dataset.len(),
        dataset.candidate_universe_size()
    );

    let prepared = pipeline::prepare_with(&dataset, opts.max_df);
    eprintln!(
        "{} candidate pairs share at least one term after the df<={} filter",
        prepared.graph.pair_count(),
        opts.max_df
    );
    let outcome = Resolver::new(opts.config.clone()).resolve(&prepared.graph);

    match opts.output.as_str() {
        "clusters" => {
            for cluster in outcome.clusters.iter().filter(|c| c.len() > 1) {
                let ids: Vec<String> = cluster.iter().map(u32::to_string).collect();
                println!("{}", ids.join("\t"));
            }
        }
        "pairs" => {
            for &(a, b) in &outcome.matches {
                println!("{a}\t{b}");
            }
        }
        "probabilities" => {
            for (pair, p) in prepared
                .graph
                .pairs()
                .iter()
                .zip(&outcome.matching_probabilities)
            {
                println!("{}\t{}\t{p:.6}", pair.a, pair.b);
            }
        }
        other => return Err(format!("unknown output mode {other:?}")),
    }

    if evaluate {
        let counts = er_eval::evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth);
        eprintln!(
            "F1 = {:.4}  (precision {:.4}, recall {:.4}; {} matches, {} true pairs)",
            counts.f1(),
            counts.precision(),
            counts.recall(),
            outcome.matches.len(),
            prepared.truth.total()
        );
    } else {
        eprintln!(
            "{} matches in {} multi-record entities",
            outcome.matches.len(),
            outcome.clusters.iter().filter(|c| c.len() > 1).count()
        );
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let kind = opts.kind.as_deref().ok_or("missing dataset kind")?;
    let dataset: Dataset = match kind {
        "restaurant" => {
            let mut cfg = er_datasets::RestaurantConfig::default().scaled(opts.scale);
            if opts.seed != 0 {
                cfg.seed = opts.seed;
            }
            generators::restaurant::generate(&cfg)
        }
        "product" => {
            let mut cfg = er_datasets::ProductConfig::default().scaled(opts.scale);
            if opts.seed != 0 {
                cfg.seed = opts.seed;
            }
            generators::product::generate(&cfg)
        }
        "paper" => {
            let mut cfg = er_datasets::PaperConfig::default().scaled(opts.scale);
            if opts.seed != 0 {
                cfg.seed = opts.seed;
            }
            generators::paper::generate(&cfg)
        }
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    match &opts.out_file {
        Some(path) => {
            loader::save_tsv(&dataset, path).map_err(|e| e.to_string())?;
            eprintln!("wrote {} records to {path}", dataset.len());
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            loader::write_tsv(&dataset, &mut stdout).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parses_defaults() {
        let o = parse_options(&args(&["data.tsv"])).unwrap();
        assert_eq!(o.path.as_deref(), Some("data.tsv"));
        assert!(!o.cross_source);
        assert_eq!(o.max_df, 0.05);
        assert_eq!(o.output, "clusters");
        assert_eq!(o.config.rounds, 5);
    }

    #[test]
    fn parses_all_options() {
        let o = parse_options(&args(&[
            "d.tsv",
            "--cross-source",
            "--max-df",
            "0.1",
            "--eta",
            "0.9",
            "--rounds",
            "3",
            "--alpha",
            "10",
            "--steps",
            "15",
            "--output",
            "pairs",
        ]))
        .unwrap();
        assert!(o.cross_source);
        assert_eq!(o.max_df, 0.1);
        assert_eq!(o.config.eta, 0.9);
        assert_eq!(o.config.rounds, 3);
        assert_eq!(o.config.cliquerank.alpha, 10.0);
        assert_eq!(o.config.cliquerank.steps, 15);
        assert_eq!(o.output, "pairs");
    }

    #[test]
    fn parses_threads_option() {
        let o = parse_options(&args(&["d.tsv", "--threads", "3"])).unwrap();
        assert_eq!(o.config.threads, 3);
        // 0 clamps to 1 rather than erroring.
        let o = parse_options(&args(&["d.tsv", "--threads", "0"])).unwrap();
        assert_eq!(o.config.threads, 1);
    }

    #[test]
    fn rejects_unknown_option() {
        assert!(parse_options(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse_options(&args(&["d.tsv", "--eta"])).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(parse_options(&args(&["d.tsv", "--eta", "high"])).is_err());
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        for (option, value) in [
            ("--alpha", "2000"),
            ("--alpha", "1024"),
            ("--alpha", "0"),
            ("--alpha", "NaN"),
            ("--steps", "0"),
            ("--rounds", "0"),
            ("--eta", "1.5"),
            ("--eta", "NaN"),
            ("--max-df", "1.5"),
            ("--max-df", "-0.1"),
            ("--max-df", "NaN"),
        ] {
            let parsed = parse_options(&args(&["d.tsv", option, value]));
            assert!(parsed.is_err(), "{option} {value} accepted");
        }
    }

    #[test]
    fn rejects_extra_positional() {
        assert!(parse_options(&args(&["a.tsv", "b.tsv"])).is_err());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }
}
