//! The irgrid benchmark: one command runs one named workload in this
//! process, checks its outputs, and prints every metric by name and
//! unit as the last line of standard output.
//!
//! ```text
//! irgrid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line holds the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it holds the per-layer metrics of a
//! separate traced pass. See `README.md` beside this crate.

mod anneal;
mod host;
mod layers;
mod serve;
mod stats;

use std::time::{Duration, Instant};

use layers::Layers;
use stats::{json_number, json_string, Metrics, Samples, Tally};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["anneal-ami49", "serve-ami49"];

/// End-to-end metric names and units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("best_cost", "cost"),
];

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// A seconds-long smoke of the same code paths, for the tests.
    pub tiny: bool,
}

impl Config {
    /// The fixed op count of a run: the workload's ops per unit times
    /// `--seconds`, never fewer than the 100 ops a p90 needs. Both sides
    /// of a comparison do the same work, however fast each is.
    pub fn ops(&self, per_unit: f64) -> usize {
        if self.tiny {
            return 24;
        }
        ((per_unit * self.seconds as f64).round() as usize).max(100)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Metrics,
    pub per_layer: Layers,
    pub diag: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome::default()
    }

    pub fn diag(&mut self, key: &'static str, value: String) {
        self.diag.push((key, value));
    }

    /// Records the timing metrics of the timed ops (all but
    /// `peak_rss_mb`, which `main` adds at the end of the run).
    pub fn end_to_end(&mut self, setup_s: f64, samples: &Samples, wall: Duration, best_cost: f64) {
        self.end_to_end.put("setup_s", setup_s, "s");
        self.end_to_end.put(
            "ops_per_s",
            samples.len() as f64 / wall.as_secs_f64(),
            "1/s",
        );
        self.end_to_end.put("op_ms_p50", samples.median_ms(), "ms");
        self.end_to_end.put(
            "op_ms_p90",
            samples.percentile_ms(90).unwrap_or(f64::NAN),
            "ms",
        );
        self.end_to_end.put("best_cost", best_cost, "cost");
        self.diag("timed_ops", samples.len().to_string());
        // The highest percentile the run supports (p99 from 1 000 ops),
        // recorded but not gated: see README.md.
        if let Some((percentile, ms)) = samples.tail_ms() {
            self.diag("tail_percentile", json_string(&format!("p{percentile}")));
            self.diag("op_ms_tail", json_number(ms));
        }
        let windows: Vec<String> = samples
            .window_medians_ms(10)
            .into_iter()
            .map(json_number)
            .collect();
        self.diag("window_p50_ms", format!("[{}]", windows.join(", ")));
        let deciles: Vec<String> = samples.deciles_ms().into_iter().map(json_number).collect();
        self.diag("deciles_ms", format!("[{}]", deciles.join(", ")));
    }
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: irgrid-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> &'a str {
    let Some(i) = args.iter().position(|a| a == name) else {
        usage(&format!("missing {name}"));
    };
    match args.get(i + 1) {
        Some(value) => value,
        None => usage(&format!("{name} needs a value")),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let text = flag(args, name);
    text.parse()
        .unwrap_or_else(|_| usage(&format!("{name} `{text}` is not valid")))
}

/// Runs `workload`; `None` for an unknown name.
pub fn run_workload(workload: &str, config: &Config) -> Option<Outcome> {
    Some(match workload {
        "anneal-ami49" => anneal::run(config),
        "serve-ami49" => serve::run(config),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").to_owned();
    let seconds: u64 = parse(&args, "--seconds");
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    let trace = match flag(&args, "--trace") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace `{other}` must be 0 or 1")),
    };
    let config = Config {
        seed: parse(&args, "--seed"),
        seconds,
        trace,
        tiny: false,
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }

    let load_start = host::load_average();
    // The first run of the kernel in a process has read up to twice as
    // slow as later ones; it serves as a warm-up.
    host::reference_kernel_ms();
    let kernel_before = host::reference_kernel_ms();
    let started = Instant::now();
    let mut outcome = run_workload(&workload, &config).expect("workload name was checked");
    let run_s = started.elapsed().as_secs_f64();
    let kernel_after = host::reference_kernel_ms();
    let peak_rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    outcome.end_to_end.put("peak_rss_mb", peak_rss, "MB");

    let correct = outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    let metrics = if trace {
        outcome.per_layer.metrics()
    } else {
        outcome.end_to_end
    };
    let load = |l: Option<f64>| l.map_or("null".to_owned(), json_number);
    let mut diag = vec![
        ("workload", json_string(&workload)),
        ("seed", config.seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("commit", json_string(&host::commit_hash())),
        ("cpu_count", host::cpu_count().to_string()),
        ("load_avg_start", load(load_start)),
        ("load_avg_end", load(host::load_average())),
        ("ref_kernel_ms_before", json_number(kernel_before)),
        ("ref_kernel_ms_after", json_number(kernel_after)),
        ("run_s", json_number(run_s)),
        ("error_rate", json_number(outcome.tally.error_rate())),
    ];
    diag.extend(outcome.diag.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = diag.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"diagnostics\": {{{}}}}}", body.join(", "));
    println!("{}", stats::result_line(correct, outcome.tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json` match the ones reported.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start
                ..text[start..]
                    .find(']')
                    .map(|e| start + e)
                    .expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quote")].to_owned())
            .filter(|n| WORKLOADS.contains(&n.as_str()))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name}");
        }
    }

    fn tiny(trace: bool) -> Config {
        Config {
            seed: 3,
            seconds: 1,
            trace,
            tiny: true,
        }
    }

    /// A tiny run of every workload passes its output checks and reports
    /// every metric.
    #[test]
    fn every_workload_smokes_at_tiny_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let outcome = run_workload(workload, &tiny(trace)).expect("known workload");
                assert_eq!(outcome.tally.failed, 0, "{workload} trace={trace}");
                assert!(outcome.tally.attempted > 0, "{workload}");
                let names: Vec<&str> = outcome.end_to_end.names().collect();
                let expected: Vec<&str> = END_TO_END
                    .iter()
                    .map(|(n, _)| *n)
                    .filter(|n| *n != "peak_rss_mb")
                    .collect();
                assert_eq!(names, expected, "{workload}");
                for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "op_ms_p90") {
                    if let Some(v) = outcome.end_to_end.get(name) {
                        assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
                    }
                }
                if trace {
                    // The layers each workload calls report time in them.
                    let called: &[&str] = match *workload {
                        "anneal-ami49" => &[
                            "core.delta_propose_ms",
                            "floorplan.pack_us",
                            "netlist.decompose_us",
                            "irgrid.propose_us",
                        ],
                        _ => &[
                            "serve.codec_us",
                            "serve.handle_propose_ms",
                            "serve.propose_rtt_ms",
                        ],
                    };
                    for name in called
                        .iter()
                        .chain(&["core.segments", "trace.overhead_ratio"])
                    {
                        assert!(outcome.per_layer.get(name) > 0.0, "{workload} {name}");
                    }
                }
            }
        }
    }
}
